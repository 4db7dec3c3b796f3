//! CFG + dominators + natural-loops optimizer tier.
//!
//! The fuser ([`crate::fuse`]) is a peephole over a linear instruction
//! window; this module is the first piece of *real* compiler
//! infrastructure over the bytecode: basic-block CFG construction,
//! a dominator tree (Cooper–Harvey–Kennedy iterative algorithm),
//! natural-loop detection via back edges, and a dominance-powered pass
//! tier that runs between `fuse_to_fixpoint` and `pack` (see
//! [`crate::compile::CompileOptions::cfg`], env-gated by
//! `CHEF_EXEC_CFG=0`):
//!
//! * **Loop-invariant code motion** ([`optimize`]): hoists invariant
//!   pure instructions out of natural loops into a synthesized
//!   preheader, so arclen-class kernels stop re-executing (and, in
//!   oracle mode, re-shadowing) the same computation every iteration.
//! * **Register-file compaction**: dead register slots (vacated by
//!   fusion and by hoist renaming) are squeezed out with a dense
//!   renumbering, so pooled [`crate::vm::Machine`]s allocate smaller
//!   register files on every arena checkout.
//!
//! ## Trap/deadline safety of hoisting
//!
//! Hoisting reorders an instruction relative to the loop's trip-count
//! test, so every candidate must preserve the *exact* observable trap
//! behaviour of the unoptimized stream — including the opt-in
//! [`crate::vm::TrapKind::NonFinite`] check on every float write and
//! the cooperative deadline probe at backward jumps. Candidates are
//! split into two classes:
//!
//! * **Class A — never-trapping writes**, hoisted *unguarded*: finite
//!   `FConst`, `FMov`, `FNeg`, `I2F` (an `i64 as f64` is always
//!   finite; a finite float copy/negation stays finite, because under
//!   `trap_on_nonfinite` every previously written float register has
//!   already passed its own write check), and the pure trap-free int
//!   ops (`IConst`/`IMov`/`IAdd`/`ISub`/`IMul`/`INeg`/`BNot`/`ICmp`/
//!   `IAddImm`). Executing one of these on a zero-trip entry is
//!   invisible: the write is trap-free and its value can only be read
//!   by uses dominated by the original definition.
//! * **Class B — float ops whose result may be non-finite** (`FAdd`,
//!   `FMul`, `FDiv`, rounds, intrinsics, constant-operand forms, …),
//!   hoisted behind a **zero-trip guard**: a copy of the loop header's
//!   integer compare-and-branch exit test, retargeted to skip the
//!   hoisted block when the loop would not execute. With the guard,
//!   the hoisted op executes exactly when the first iteration would
//!   have executed it, with bit-identical operands, so a `NonFinite`
//!   trap fires in the optimized stream iff it fired in the original
//!   (same kind, same source span; only the reported `pc` moves, as it
//!   already does under fusion). Class B additionally requires the
//!   defining block to dominate every back-edge source and every
//!   non-header exit source, so "first iteration runs" implies "the
//!   original instruction ran". Float-compare exit tests are never
//!   used as guards and `FCmp`/`F2I` are never hoisted: the shadow
//!   interpreter re-evaluates those on shadow operands, and
//!   duplicating or de-duplicating them would change divergence
//!   reports.
//!
//! `IDiv`/`IRem` (DivByZero), loads/stores (OobIndex, memory order),
//! tape ops (side effects) and anything reading a register written in
//! the loop are never hoisted. Deadline/budget semantics are
//! unchanged: hoisted code is straight-line (probes happen only at
//! taken backward jumps, which LICM neither adds nor removes per
//! iteration — it only removes straight-line work between them).
//!
//! Irreducible control flow (a retreating edge whose target does not
//! dominate its source — impossible to emit from KernelC but possible
//! in hand-built bytecode) makes the pass bail cleanly: no hoisting,
//! compaction only.
//!
//! Block leaders, edges, liveness, hoist renaming, jump remapping and
//! compaction read every operand and target through the operand table
//! in [`crate::bytecode`] (the one fusion and the validator use), so
//! this tier holds no per-opcode operand layout; only the semantic
//! tables (hoist class, guard polarity) are its own.

use crate::bytecode::{CompiledFunction, Instr, ParamSpec, Reg, RegClass};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Version of the CFG pass tier, hashed into [`crate::store::content_key`]
/// so a persisted variant compiled by a different tier revision can
/// never warm-hit.
pub const CFG_TIER_VERSION: u32 = 1;

/// A maximal straight-line run of instructions.
#[derive(Clone, Debug)]
pub struct BasicBlock {
    /// Half-open instruction range `[start, end)` into `instrs`.
    pub range: Range<usize>,
    /// Predecessor block indices (unordered, deduplicated).
    pub preds: Vec<usize>,
    /// Successor block indices (at most 2; conditional order: taken,
    /// fall-through).
    pub succs: Vec<usize>,
}

/// Control-flow graph over a compiled function's instruction stream.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Blocks in instruction order; block 0 contains pc 0 (the entry).
    pub blocks: Vec<BasicBlock>,
    /// Reachable blocks in reverse postorder (entry first).
    pub rpo: Vec<usize>,
    /// `rpo_num[b]` = position of `b` in `rpo` (`usize::MAX` when
    /// unreachable).
    pub rpo_num: Vec<usize>,
    /// `block_of[pc]` = index of the block containing `pc`.
    pub block_of: Vec<usize>,
}

impl Cfg {
    /// Partitions the instruction stream into basic blocks (leader
    /// detection) and wires pred/succ edges + reverse postorder.
    pub fn build(func: &CompiledFunction) -> Cfg {
        let n = func.instrs.len();
        let mut leader = vec![false; n.max(1)];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, ins) in func.instrs.iter().enumerate() {
            if ins.is_exit() || ins.target().is_some() {
                if pc + 1 < n {
                    leader[pc + 1] = true;
                }
                // Jump targets start blocks; the fall-through successor
                // of a straight-line instruction does not.
                for s in ins.successors(pc).iter().flatten() {
                    if *s < n {
                        leader[*s] = true;
                    }
                }
            }
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for pc in 0..n {
            if pc > start && leader[pc] {
                blocks.push(BasicBlock {
                    range: start..pc,
                    preds: Vec::new(),
                    succs: Vec::new(),
                });
                start = pc;
            }
        }
        if n > 0 {
            blocks.push(BasicBlock {
                range: start..n,
                preds: Vec::new(),
                succs: Vec::new(),
            });
        }
        for (b, blk) in blocks.iter().enumerate() {
            for pc in blk.range.clone() {
                block_of[pc] = b;
            }
        }
        // Edges come from each block's last instruction only (interior
        // instructions are straight-line by construction).
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (b, blk) in blocks.iter().enumerate() {
            let last = blk.range.end - 1;
            for s in func.instrs[last].successors(last).iter().flatten() {
                if *s < n {
                    edges.push((b, block_of[*s]));
                }
            }
        }
        let nb = blocks.len();
        for &(u, v) in &edges {
            if !blocks[u].succs.contains(&v) {
                blocks[u].succs.push(v);
            }
            if !blocks[v].preds.contains(&u) {
                blocks[v].preds.push(u);
            }
        }
        // Reverse postorder via iterative DFS from the entry block.
        let mut rpo = Vec::with_capacity(nb);
        let mut rpo_num = vec![usize::MAX; nb];
        if nb > 0 {
            let mut state = vec![0u8; nb]; // 0 unseen, 1 on stack, 2 done
            let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
            state[0] = 1;
            let mut post = Vec::with_capacity(nb);
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                if *i < blocks[b].succs.len() {
                    let s = blocks[b].succs[*i];
                    *i += 1;
                    if state[s] == 0 {
                        state[s] = 1;
                        stack.push((s, 0));
                    }
                } else {
                    state[b] = 2;
                    post.push(b);
                    stack.pop();
                }
            }
            rpo = post.into_iter().rev().collect();
            for (i, &b) in rpo.iter().enumerate() {
                rpo_num[b] = i;
            }
        }
        Cfg {
            blocks,
            rpo,
            rpo_num,
            block_of,
        }
    }
}

/// Immediate-dominator tree over a [`Cfg`]'s reachable blocks
/// (Cooper–Harvey–Kennedy "A Simple, Fast Dominance Algorithm").
#[derive(Clone, Debug)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator of `b` (`idom[entry] == entry`;
    /// `usize::MAX` for unreachable blocks).
    pub idom: Vec<usize>,
}

impl Dominators {
    /// Iterates `idom` to fixpoint over the reverse postorder.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let nb = cfg.blocks.len();
        let mut idom = vec![usize::MAX; nb];
        if nb == 0 {
            return Dominators { idom };
        }
        let entry = cfg.rpo[0];
        idom[entry] = entry;
        let intersect = |idom: &[usize], mut u: usize, mut v: usize| -> usize {
            while u != v {
                while cfg.rpo_num[u] > cfg.rpo_num[v] {
                    u = idom[u];
                }
                while cfg.rpo_num[v] > cfg.rpo_num[u] {
                    v = idom[v];
                }
            }
            u
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let mut new_idom = usize::MAX;
                for &p in &cfg.blocks[b].preds {
                    if idom[p] == usize::MAX {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(&idom, new_idom, p)
                    };
                }
                if new_idom != usize::MAX && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }

    /// Does block `a` dominate block `b`? (Reflexive; `false` when `b`
    /// is unreachable.)
    pub fn dominates(&self, a: usize, mut b: usize) -> bool {
        if self.idom.get(b).copied().unwrap_or(usize::MAX) == usize::MAX {
            return false;
        }
        loop {
            if b == a {
                return true;
            }
            let p = self.idom[b];
            if p == b {
                return false; // reached the entry
            }
            b = p;
        }
    }
}

/// One natural loop: a back edge's header plus every block that can
/// reach the back edge without passing the header.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// Header block (dominates every block in the loop).
    pub header: usize,
    /// All member blocks (sorted ascending; includes the header).
    pub blocks: Vec<usize>,
    /// Back-edge source blocks (latches), sorted.
    pub back_edges: Vec<usize>,
}

/// Detects natural loops via retreating edges. Loops sharing a header
/// are merged. Returns `None` when the CFG is irreducible (a
/// retreating edge whose target does not dominate its source) — the
/// caller must then skip loop transforms entirely.
pub fn natural_loops(cfg: &Cfg, dom: &Dominators) -> Option<Vec<NaturalLoop>> {
    let mut by_header: HashMap<usize, (HashSet<usize>, Vec<usize>)> = HashMap::new();
    for &u in &cfg.rpo {
        for &h in &cfg.blocks[u].succs {
            if cfg.rpo_num[h] == usize::MAX || cfg.rpo_num[h] > cfg.rpo_num[u] {
                continue; // forward/cross edge
            }
            if !dom.dominates(h, u) {
                return None; // irreducible
            }
            let (body, latches) = by_header.entry(h).or_default();
            latches.push(u);
            // Walk predecessors backward from the latch, stopping at
            // the header.
            body.insert(h);
            let mut stack = vec![u];
            while let Some(b) = stack.pop() {
                if body.insert(b) {
                    for &p in &cfg.blocks[b].preds {
                        if cfg.rpo_num[p] != usize::MAX {
                            stack.push(p);
                        }
                    }
                } else if b == h {
                    continue;
                }
            }
        }
    }
    let mut loops: Vec<NaturalLoop> = by_header
        .into_iter()
        .map(|(header, (body, mut latches))| {
            let mut blocks: Vec<usize> = body.into_iter().collect();
            blocks.sort_unstable();
            latches.sort_unstable();
            latches.dedup();
            NaturalLoop {
                header,
                blocks,
                back_edges: latches,
            }
        })
        .collect();
    // Innermost first (fewest blocks), then by header for determinism.
    loops.sort_by_key(|l| (l.blocks.len(), l.header));
    Some(loops)
}

/// What [`optimize`] did to one function.
#[derive(Clone, Debug, Default)]
pub struct CfgStats {
    /// Basic blocks in the pre-pass CFG.
    pub blocks: u32,
    /// Natural loops detected in the pre-pass CFG.
    pub loops: u32,
    /// Instructions hoisted to preheaders.
    pub hoisted: u32,
    /// Zero-trip guard branches synthesized.
    pub guards: u32,
    /// Register slots eliminated by compaction (all three files).
    pub regs_compacted: u32,
    /// `false` when the CFG was irreducible and loop transforms were
    /// skipped.
    pub reducible: bool,
    /// Debug-readable descriptions of the hoisted instructions, in
    /// hoist order (consumed by `repro --cfg` and the golden test).
    pub hoisted_ops: Vec<String>,
}

// ---------------------------------------------------------------------
// LICM
// ---------------------------------------------------------------------

/// Hoist class of one candidate (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HoistClass {
    /// Never-trapping write: safe to execute on a zero-trip entry.
    TrapFree,
    /// Float op whose write may be non-finite: needs the zero-trip
    /// guard (or to already live in the header's pre-test prefix).
    NeedsGuard,
}

/// Classifies an instruction as hoistable-if-invariant. Anything with
/// side effects, trap potential beyond `NonFinite`, or a shadow
/// re-evaluation site (`FCmp`, `F2I`) is `None`.
fn hoist_class(ins: &Instr) -> Option<HoistClass> {
    use Instr::*;
    match ins {
        FConst { v, .. } => Some(if v.is_finite() {
            HoistClass::TrapFree
        } else {
            HoistClass::NeedsGuard
        }),
        FMov { .. } | FNeg { .. } | I2F { .. } => Some(HoistClass::TrapFree),
        IConst { .. }
        | IMov { .. }
        | IAdd { .. }
        | ISub { .. }
        | IMul { .. }
        | INeg { .. }
        | BNot { .. }
        | ICmp { .. }
        | IAddImm { .. } => Some(HoistClass::TrapFree),
        FAdd { .. }
        | FSub { .. }
        | FMul { .. }
        | FDiv { .. }
        | FRound { .. }
        | FIntr1 { .. }
        | FIntr2 { .. }
        | FMulAdd { .. }
        | FAddRound { .. }
        | FSubRound { .. }
        | FMulRound { .. }
        | FDivRound { .. }
        | FIntr1Round { .. }
        | FIntr2Round { .. }
        | FAddC { .. }
        | FSubC { .. }
        | FSubCR { .. }
        | FMulC { .. }
        | FDivC { .. }
        | FDivCR { .. } => Some(HoistClass::NeedsGuard),
        _ => None,
    }
}

/// One planned hoist.
struct Hoist {
    /// Original pc of the instruction (deleted from the loop).
    pc: usize,
    /// The instruction as it will appear in the preheader (dst may be
    /// renamed to a fresh register).
    ins: Instr,
    /// `(use_pc, old_reg, new_index)` read-rewrites for renamed hoists.
    rewrites: Vec<(usize, Reg, u32)>,
}

/// Per-block scalar liveness (upward-exposed uses / defs / live-out),
/// used to prove a renamed hoist's original destination value never
/// escapes its block.
struct Liveness {
    live_out: Vec<HashSet<Reg>>,
}

impl Liveness {
    fn compute(func: &CompiledFunction, cfg: &Cfg) -> Liveness {
        let nb = cfg.blocks.len();
        let mut ue = vec![HashSet::new(); nb];
        let mut def = vec![HashSet::new(); nb];
        let mut exits = vec![false; nb];
        for (b, blk) in cfg.blocks.iter().enumerate() {
            for pc in blk.range.clone() {
                let ins = &func.instrs[pc];
                ins.reads(|r| {
                    if !def[b].contains(&r) {
                        ue[b].insert(r);
                    }
                });
                if let Some(w) = ins.write() {
                    def[b].insert(w);
                }
            }
            exits[b] = func.instrs[blk.range.end - 1].is_exit();
        }
        // Scalar parameter home registers are read back by `unbind_args`
        // after the run: keep them live at every function exit. (Like
        // `reads`/`write`, liveness tracks the scalar files only.)
        let param_live: HashSet<Reg> = func
            .params
            .iter()
            .map(ParamSpec::home)
            .filter(|&(class, _)| class != RegClass::A)
            .collect();
        let mut live_in: Vec<HashSet<Reg>> = vec![HashSet::new(); nb];
        let mut live_out: Vec<HashSet<Reg>> = vec![HashSet::new(); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().rev() {
                let mut new_out: HashSet<Reg> = if exits[b] {
                    param_live.clone()
                } else {
                    HashSet::new()
                };
                for &s in &cfg.blocks[b].succs {
                    new_out.extend(live_in[s].iter().copied());
                }
                let mut new_in = ue[b].clone();
                for r in new_out.iter() {
                    if !def[b].contains(r) {
                        new_in.insert(*r);
                    }
                }
                if new_out != live_out[b] || new_in != live_in[b] {
                    live_out[b] = new_out;
                    live_in[b] = new_in;
                    changed = true;
                }
            }
        }
        Liveness { live_out }
    }
}

/// Builds the zero-trip guard: a copy of the header's int
/// compare-and-branch exit test that jumps *past* the preheader (to
/// the relocated header) exactly when the loop would not run. Returns
/// `None` when the header terminator is not guardable.
fn synthesize_guard(
    func: &CompiledFunction,
    cfg: &Cfg,
    lp: &NaturalLoop,
) -> Option<(Instr, usize)> {
    use Instr::*;
    let hb = &cfg.blocks[lp.header];
    let t_pc = hb.range.end - 1;
    let ins = &func.instrs[t_pc];
    let in_loop = |b: usize| lp.blocks.binary_search(&b).is_ok();
    // The exit test with its polarity flipped. Only int tests guard:
    // unconditional, float-compare and exit terminators return `None`.
    let flipped = match *ins {
        JmpIfFalse { cond, target } => JmpIfTrue { cond, target },
        JmpIfTrue { cond, target } => JmpIfFalse { cond, target },
        ICmpJmpFalse { op, a, b, target } => ICmpJmpTrue { op, a, b, target },
        ICmpJmpTrue { op, a, b, target } => ICmpJmpFalse { op, a, b, target },
        ICmpImmJmpFalse { op, a, imm, target } => ICmpImmJmpTrue { op, a, imm, target },
        ICmpImmJmpTrue { op, a, imm, target } => ICmpImmJmpFalse { op, a, imm, target },
        _ => return None,
    };
    let target = ins.target()? as usize;
    let n = func.instrs.len();
    let taken_in = target < n && in_loop(cfg.block_of[target]);
    let fall_in = t_pc + 1 < n && in_loop(cfg.block_of[t_pc + 1]);
    // Exactly one side must leave the loop.
    if taken_in == fall_in {
        return None;
    }
    // The guard reads its operands at the preheader, before the header
    // prefix runs; they must be untouched by that prefix.
    let mut operands: Vec<Reg> = Vec::new();
    ins.reads(|r| operands.push(r));
    for pc in hb.range.start..t_pc {
        if let Some(w) = func.instrs[pc].write() {
            if operands.contains(&w) {
                return None;
            }
        }
    }
    // The guard jumps to the relocated header iff the loop exits: same
    // polarity when the taken side exits, flipped when the fall-through
    // does. The placeholder target 0 is patched by the caller once the
    // preheader size is known.
    let mut guard = if taken_in { flipped } else { ins.clone() };
    *guard.target_mut()? = 0;
    Some((guard, t_pc))
}

/// Plans the hoists for one loop. Returns the hoists plus the guard
/// (if one is needed and available).
fn plan_loop(
    func: &CompiledFunction,
    cfg: &Cfg,
    dom: &Dominators,
    live: &Liveness,
    lp: &NaturalLoop,
) -> (Vec<Hoist>, Option<(Instr, usize)>) {
    let in_loop = |b: usize| lp.blocks.binary_search(&b).is_ok();
    let hb = &cfg.blocks[lp.header];
    let header_term = hb.range.end - 1;

    // Registers written anywhere in the loop (with write counts), and
    // every read site per register in the whole function.
    let mut loop_writes: HashMap<Reg, u32> = HashMap::new();
    for &b in &lp.blocks {
        for pc in cfg.blocks[b].range.clone() {
            if let Some(w) = func.instrs[pc].write() {
                *loop_writes.entry(w).or_insert(0) += 1;
            }
        }
    }
    let mut read_sites: HashMap<Reg, Vec<usize>> = HashMap::new();
    for (pc, ins) in func.instrs.iter().enumerate() {
        ins.reads(|r| read_sites.entry(r).or_default().push(pc));
    }
    let param_homes: HashSet<Reg> = func.params.iter().map(ParamSpec::home).collect();
    let named_f: HashSet<u32> = func.fvar_names.iter().map(|(r, _)| *r).collect();

    let guard = synthesize_guard(func, cfg, lp);
    // Class B from outside the header prefix additionally needs: the
    // defining block dominates every latch and every non-header exit
    // source (so "the loop runs one iteration" implies "the original
    // instruction ran").
    let mut exit_sources: Vec<usize> = Vec::new();
    for &b in &lp.blocks {
        let blk = &cfg.blocks[b];
        if func.instrs[blk.range.end - 1].is_exit() {
            exit_sources.push(b); // returns straight out of the loop
            continue;
        }
        if blk.succs.iter().any(|s| !in_loop(*s)) {
            exit_sources.push(b);
        }
    }

    let mut next_freg = func.n_fregs;
    let mut next_ireg = func.n_iregs;
    let mut hoists: Vec<Hoist> = Vec::new();

    for &b in &lp.blocks {
        let blk = &cfg.blocks[b];
        for pc in blk.range.clone() {
            let ins = &func.instrs[pc];
            let class = match hoist_class(ins) {
                Some(c) => c,
                None => continue,
            };
            let dst = match ins.write() {
                Some(d) => d,
                None => continue,
            };
            // Operands must be loop-invariant (and untouched by hoists
            // already planned this round, which count as loop writes).
            let mut invariant = true;
            ins.reads(|r| {
                if loop_writes.contains_key(&r) {
                    invariant = false;
                }
            });
            if !invariant {
                continue;
            }
            // Trap-safety placement rules for floats that may produce a
            // non-finite write.
            if class == HoistClass::NeedsGuard {
                let in_header_prefix = b == lp.header && pc < header_term;
                if !in_header_prefix {
                    if guard.is_none() {
                        continue;
                    }
                    if !lp.back_edges.iter().all(|&l| dom.dominates(b, l)) {
                        continue;
                    }
                    if !exit_sources
                        .iter()
                        .all(|&s| s == lp.header || dom.dominates(b, s))
                    {
                        continue;
                    }
                }
            }
            let writes_of_dst = loop_writes.get(&dst).copied().unwrap_or(0);
            let reads = read_sites.get(&dst).cloned().unwrap_or_default();
            if writes_of_dst == 1 && !param_homes.contains(&dst) {
                // Single-writer path: keep the destination, require the
                // defining block to dominate every read in the function.
                let mut ok = true;
                for &u in &reads {
                    let ub = cfg.block_of[u];
                    if ub == b {
                        if u <= pc {
                            ok = false;
                        }
                    } else if !dom.dominates(b, ub) {
                        ok = false;
                    }
                }
                if ok {
                    hoists.push(Hoist {
                        pc,
                        ins: ins.clone(),
                        rewrites: Vec::new(),
                    });
                    // Its dst still counts as a loop write: later
                    // candidates reading it wait for the next round.
                    continue;
                }
            }
            // Renamed path: fresh destination register, rewrite the
            // reads of this def inside its block window. Only for
            // unnamed non-param destinations (renaming a named variable
            // would change shadow attribution and trap naming).
            if param_homes.contains(&dst) {
                continue;
            }
            if dst.0 == RegClass::F && named_f.contains(&dst.1) {
                continue;
            }
            // Window: (pc, next write of dst in this block]. The def
            // must not escape the block unless overwritten first.
            let mut window_end = blk.range.end;
            let mut closed_by_write = false;
            for w in pc + 1..blk.range.end {
                if func.instrs[w].write() == Some(dst) {
                    window_end = w + 1; // its reads still see the old def
                    closed_by_write = true;
                    break;
                }
            }
            if !closed_by_write && live.live_out[b].contains(&dst) {
                continue;
            }
            // Reads of dst outside the window would observe the deleted
            // def: reject (can only happen via same-block reads before
            // pc; cross-block reads imply live-out, handled above).
            if reads
                .iter()
                .any(|&u| cfg.block_of[u] == b && (u <= pc || u >= window_end))
            {
                continue;
            }
            let rewrite_sites: Vec<usize> = reads
                .iter()
                .copied()
                .filter(|&u| u > pc && u < window_end)
                .collect();
            // The packed `FMulAdd` word holds its addend in 8 bits: never
            // rename an addend to a register beyond that field.
            if dst.0 == RegClass::F
                && u8::try_from(next_freg).is_err()
                && rewrite_sites
                    .iter()
                    .any(|&u| matches!(func.instrs[u], Instr::FMulAdd { c, .. } if c.0 == dst.1))
            {
                continue;
            }
            let next = if dst.0 == RegClass::F {
                &mut next_freg
            } else {
                &mut next_ireg
            };
            let fresh = (dst.0, *next);
            *next += 1;
            let renamed = ins.with_write(fresh).expect("a candidate writes `dst`");
            let rewrites: Vec<(usize, Reg, u32)> = rewrite_sites
                .into_iter()
                .map(|u| (u, dst, fresh.1))
                .collect();
            hoists.push(Hoist {
                pc,
                ins: renamed,
                rewrites,
            });
        }
    }

    // A hoisted write must not feed the guard: the guard runs before
    // the hoisted block, and the first header test must still read the
    // same values it used to. Single-writer hoists can only reach the
    // header test from the header prefix (covered by use-dominance);
    // fresh renames never collide. Guard operands clashing with a
    // planned hoist's original prefix position are rejected inside
    // `synthesize_guard` via the prefix-write scan.
    let needs_guard = hoists.iter().any(|h| {
        hoist_class(&func.instrs[h.pc]) == Some(HoistClass::NeedsGuard)
            && !(cfg.block_of[h.pc] == lp.header && h.pc < header_term)
    });
    (hoists, if needs_guard { guard } else { None })
}

/// Rebuilds the instruction stream with `hoists` (and the optional
/// guard) inserted as a preheader at the loop header, deleting the
/// hoisted originals and remapping every jump target.
fn apply_plan(
    func: &mut CompiledFunction,
    cfg: &Cfg,
    lp: &NaturalLoop,
    hoists: Vec<Hoist>,
    guard: Option<(Instr, usize)>,
) {
    let h = cfg.blocks[lp.header].range.start;
    let n = func.instrs.len();
    let hoist_set: HashSet<usize> = hoists.iter().map(|x| x.pc).collect();
    let mut rewrites: HashMap<usize, Vec<(Reg, u32)>> = HashMap::new();
    for hs in &hoists {
        for &(u, old, new) in &hs.rewrites {
            rewrites.entry(u).or_default().push((old, new));
        }
    }
    // kept[i] = number of non-hoisted pcs in [0, i), over the whole
    // stream: a loop body may sit before its header in pc order, so
    // hoists can shift targets on either side of the header.
    let mut kept = vec![0usize; n + 1];
    for pc in 0..n {
        kept[pc + 1] = kept[pc] + usize::from(!hoist_set.contains(&pc));
    }
    let k = hoists.len() + usize::from(guard.is_some());
    // The preheader starts where the header used to; the header follows it.
    let pre = kept[h];
    let in_loop = |b: usize| lp.blocks.binary_search(&b).is_ok();
    let remap_target = |t: usize, src_pc: usize| -> usize {
        if t < h {
            kept[t]
        } else if t == h {
            // Back edges skip the preheader; outside entries run it.
            if in_loop(cfg.block_of[src_pc]) {
                pre + k
            } else {
                pre
            }
        } else {
            kept[t.min(n)] + k + t.saturating_sub(n)
        }
    };

    let mut instrs = Vec::with_capacity(n + k);
    let mut spans = Vec::with_capacity(n + k);
    let mut max_f = func.n_fregs;
    let mut max_i = func.n_iregs;
    for old_pc in 0..n {
        if old_pc == h {
            if let Some((g, g_pc)) = &guard {
                let mut g = g.clone();
                *g.target_mut().unwrap() = (pre + k) as u32;
                instrs.push(g);
                spans.push(func.spans[*g_pc]);
            }
            for hs in &hoists {
                hs.ins.regs(|(class, idx), _| match class {
                    RegClass::F => max_f = max_f.max(idx + 1),
                    RegClass::I => max_i = max_i.max(idx + 1),
                    RegClass::A => {}
                });
                instrs.push(hs.ins.clone());
                spans.push(func.spans[hs.pc]);
            }
        }
        if hoist_set.contains(&old_pc) {
            continue;
        }
        let mut ins = func.instrs[old_pc].clone();
        if let Some(rw) = rewrites.get(&old_pc) {
            ins.regs_mut(|class, idx, is_write| {
                if is_write {
                    return;
                }
                for &(old, new) in rw {
                    if old == (class, *idx) {
                        *idx = new;
                    }
                }
            });
        }
        if let Some(t) = ins.target_mut() {
            *t = remap_target(*t as usize, old_pc) as u32;
        }
        instrs.push(ins);
        spans.push(func.spans[old_pc]);
    }
    func.instrs = instrs;
    func.spans = spans;
    func.n_fregs = max_f;
    func.n_iregs = max_i;
}

// ---------------------------------------------------------------------
// Register compaction
// ---------------------------------------------------------------------

/// Densely renumbers the three register files, dropping slots that are
/// neither referenced by an instruction, a parameter home, nor a named
/// variable (names are kept so shadow attribution and trap naming are
/// unchanged). Returns the number of slots eliminated.
fn compact_registers(func: &mut CompiledFunction) -> u32 {
    const CLASSES: [RegClass; 3] = [RegClass::F, RegClass::I, RegClass::A];
    let mut used = CLASSES.map(|c| vec![false; func.reg_count(c) as usize]);
    for ins in &func.instrs {
        ins.regs(|(class, idx), _| used[class as usize][idx as usize] = true);
    }
    let names = func.fvar_names.iter().map(|(r, _)| (RegClass::F, *r));
    let names = names.chain(func.avar_names.iter().map(|(r, _)| (RegClass::A, *r)));
    for (class, idx) in func.params.iter().map(ParamSpec::home).chain(names) {
        used[class as usize][idx as usize] = true;
    }
    // Dense renumbering of each file: old index → new (u32::MAX if dropped).
    let maps = used.map(|used| {
        let mut map = vec![u32::MAX; used.len()];
        let mut next = 0u32;
        for (i, _) in used.iter().enumerate().filter(|(_, &u)| u) {
            map[i] = next;
            next += 1;
        }
        (map, next)
    });
    let old = func.n_fregs + func.n_iregs + func.n_aregs;
    let saved = old - maps.iter().map(|(_, n)| n).sum::<u32>();
    if saved == 0 {
        return 0;
    }
    let new = |(class, idx): Reg| maps[class as usize].0[idx as usize];
    for ins in &mut func.instrs {
        ins.regs_mut(|class, idx, _| *idx = new((class, *idx)));
    }
    for p in &mut func.params {
        p.reg = new(p.home());
    }
    for (r, _) in &mut func.fvar_names {
        *r = new((RegClass::F, *r));
    }
    for (r, _) in &mut func.avar_names {
        *r = new((RegClass::A, *r));
    }
    [func.n_fregs, func.n_iregs, func.n_aregs] = CLASSES.map(|c| maps[c as usize].1);
    saved
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

const MAX_ROUNDS: u32 = 64;

/// Runs the CFG pass tier on a (typically post-fusion) function:
/// iterated LICM (one loop per round, innermost first, full CFG
/// recompute after each change) followed by register compaction.
/// Invalidates `func.packed` — [`crate::compile::compile`] re-packs
/// afterwards.
pub fn optimize(func: &mut CompiledFunction) -> CfgStats {
    func.packed = None;
    let mut stats = CfgStats {
        reducible: true,
        ..CfgStats::default()
    };
    let mut round = 0u32;
    'rounds: loop {
        round += 1;
        if round > MAX_ROUNDS {
            break;
        }
        let _build = chef_telemetry::span("cfg.build");
        let cfg = Cfg::build(func);
        let dom = Dominators::compute(&cfg);
        let loops = match natural_loops(&cfg, &dom) {
            Some(l) => l,
            None => {
                stats.reducible = false;
                if round == 1 {
                    stats.blocks = cfg.blocks.len() as u32;
                }
                break;
            }
        };
        if round == 1 {
            stats.blocks = cfg.blocks.len() as u32;
            stats.loops = loops.len() as u32;
        }
        drop(_build);
        let _licm = chef_telemetry::span("licm");
        let live = Liveness::compute(func, &cfg);
        for lp in &loops {
            let (hoists, guard) = plan_loop(func, &cfg, &dom, &live, lp);
            if hoists.is_empty() {
                continue;
            }
            stats.hoisted += hoists.len() as u32;
            stats.guards += u32::from(guard.is_some());
            for h in &hoists {
                stats.hoisted_ops.push(format!("{:?}", h.ins));
            }
            apply_plan(func, &cfg, lp, hoists, guard);
            continue 'rounds;
        }
        break;
    }
    stats.regs_compacted = compact_registers(func);
    chef_telemetry::counter("exec.cfg.blocks").add(stats.blocks as u64);
    chef_telemetry::counter("exec.cfg.loops").add(stats.loops as u64);
    chef_telemetry::counter("exec.licm.hoisted").add(stats.hoisted as u64);
    chef_telemetry::counter("exec.regs.compacted").add(stats.regs_compacted as u64);
    stats
}

/// Human-readable dump of the function's CFG: blocks (with pred/succ
/// edges), the dominator tree, and detected natural loops. Consumed by
/// `repro --cfg <kernel>` and the pinned arclen golden test.
pub fn dump(func: &CompiledFunction) -> String {
    use std::fmt::Write;
    let cfg = Cfg::build(func);
    let dom = Dominators::compute(&cfg);
    let loops = natural_loops(&cfg, &dom);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "cfg {}: {} instrs, {} blocks",
        func.name,
        func.instrs.len(),
        cfg.blocks.len()
    );
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let _ = writeln!(
            s,
            "  b{b}: pc {}..{} preds={:?} succs={:?} idom={}",
            blk.range.start,
            blk.range.end,
            blk.preds,
            blk.succs,
            if dom.idom[b] == usize::MAX {
                "-".to_string()
            } else {
                format!("b{}", dom.idom[b])
            }
        );
    }
    match &loops {
        None => {
            let _ = writeln!(s, "  loops: irreducible (pass bails)");
        }
        Some(ls) => {
            let _ = writeln!(s, "  loops: {}", ls.len());
            for l in ls {
                let _ = writeln!(
                    s,
                    "    header=b{} blocks={:?} latches={:?}",
                    l.header, l.blocks, l.back_edges
                );
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{CmpOp, IReg, ParamKind, RetKind};
    use crate::value::ArgValue;
    use chef_ir::span::Span;

    fn int_func(instrs: Vec<Instr>, n_iregs: u32) -> CompiledFunction {
        let spans = vec![Span::default(); instrs.len()];
        CompiledFunction {
            name: "hand".into(),
            instrs,
            spans,
            n_fregs: 0,
            n_iregs,
            n_aregs: 0,
            params: vec![ParamSpec {
                name: "p".into(),
                kind: ParamKind::I,
                by_ref: false,
                reg: 0,
            }],
            ret: RetKind::I,
            fvar_names: vec![],
            avar_names: vec![],
            packed: None,
        }
    }

    /// Classic irreducible shape: entry branches into both halves of a
    /// two-entry cycle.
    fn irreducible_func() -> CompiledFunction {
        use Instr::*;
        int_func(
            vec![
                // E: p != 0 -> B (pc 4)
                JmpIfTrue {
                    cond: IReg(0),
                    target: 4,
                },
                // A:
                IAddImm {
                    dst: IReg(1),
                    a: IReg(1),
                    imm: 1,
                },
                ICmpImmJmpTrue {
                    op: CmpOp::Gt,
                    a: IReg(1),
                    imm: 100,
                    target: 6,
                },
                Jmp { target: 4 },
                // B:
                IAddImm {
                    dst: IReg(1),
                    a: IReg(1),
                    imm: 2,
                },
                // retreating edge B -> A whose target does not dominate it
                ICmpImmJmpFalse {
                    op: CmpOp::Gt,
                    a: IReg(1),
                    imm: 100,
                    target: 1,
                },
                // X:
                RetI { src: IReg(1) },
            ],
            2,
        )
    }

    /// Hand-built doubly nested counting loop.
    fn nested_func() -> CompiledFunction {
        use Instr::*;
        int_func(
            vec![
                // E: s = 0; i = 0
                IConst { dst: IReg(1), v: 0 }, // 0: s
                IConst { dst: IReg(2), v: 0 }, // 1: i
                // H1: i < p ? fall : exit
                ICmpJmpFalse {
                    op: CmpOp::Lt,
                    a: IReg(2),
                    b: IReg(0),
                    target: 10,
                }, // 2
                // j = 0
                IConst { dst: IReg(3), v: 0 }, // 3
                // H2: j < p ? fall : latch1
                ICmpJmpFalse {
                    op: CmpOp::Lt,
                    a: IReg(3),
                    b: IReg(0),
                    target: 8,
                }, // 4
                // body2: s += 1; j += 1
                IAddImm {
                    dst: IReg(1),
                    a: IReg(1),
                    imm: 1,
                }, // 5
                IAddImm {
                    dst: IReg(3),
                    a: IReg(3),
                    imm: 1,
                }, // 6
                Jmp { target: 4 }, // 7
                // latch1: i += 1
                IAddImm {
                    dst: IReg(2),
                    a: IReg(2),
                    imm: 1,
                }, // 8
                Jmp { target: 2 }, // 9
                // exit
                RetI { src: IReg(1) }, // 10
            ],
            4,
        )
    }

    #[test]
    fn irreducible_cfg_is_detected_and_pass_bails() {
        let func = irreducible_func();
        let cfg = Cfg::build(&func);
        let dom = Dominators::compute(&cfg);
        assert!(natural_loops(&cfg, &dom).is_none(), "must flag irreducible");

        let mut opt = func.clone();
        let stats = optimize(&mut opt);
        assert!(!stats.reducible);
        assert_eq!(stats.hoisted, 0, "irreducible CFG must not hoist");
        // The stream itself is untouched by LICM (compaction may
        // renumber, but this function uses every register).
        let before = crate::vm::run(&func, vec![ArgValue::I(1)]).unwrap();
        let after = crate::vm::run(&opt, vec![ArgValue::I(1)]).unwrap();
        assert_eq!(before.ret, after.ret);
        assert_eq!(before.stats.instrs_executed, after.stats.instrs_executed);
    }

    #[test]
    fn nested_loops_are_detected_with_correct_nesting() {
        let func = nested_func();
        let cfg = Cfg::build(&func);
        let dom = Dominators::compute(&cfg);
        let loops = natural_loops(&cfg, &dom).expect("reducible");
        assert_eq!(loops.len(), 2);
        // Innermost (fewest blocks) first.
        let inner = &loops[0];
        let outer = &loops[1];
        assert!(inner.blocks.len() < outer.blocks.len());
        for b in &inner.blocks {
            assert!(
                outer.blocks.contains(b),
                "inner loop must be nested in outer"
            );
        }
        assert_ne!(inner.header, outer.header);
        assert!(dom.dominates(outer.header, inner.header));
        // Headers dominate their members.
        for &b in &inner.blocks {
            assert!(dom.dominates(inner.header, b));
        }
        // Entry block dominates everything reachable.
        for &b in &cfg.rpo {
            assert!(dom.dominates(cfg.rpo[0], b));
        }
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable_blocks() {
        let func = nested_func();
        let cfg = Cfg::build(&func);
        assert_eq!(cfg.rpo[0], cfg.block_of[0]);
        assert_eq!(cfg.rpo.len(), cfg.blocks.len());
        // Every edge u->v that is not a back edge satisfies
        // rpo_num[u] < rpo_num[v].
        let dom = Dominators::compute(&cfg);
        for &u in &cfg.rpo {
            for &v in &cfg.blocks[u].succs {
                if !dom.dominates(v, u) {
                    assert!(cfg.rpo_num[u] < cfg.rpo_num[v]);
                }
            }
        }
    }

    #[test]
    fn nested_hand_loop_runs_identically_after_optimize() {
        let func = nested_func();
        let mut opt = func.clone();
        let stats = optimize(&mut opt);
        assert!(stats.reducible);
        for n in [0i64, 1, 2, 7] {
            let a = crate::vm::run(&func, vec![ArgValue::I(n)]).unwrap();
            let b = crate::vm::run(&opt, vec![ArgValue::I(n)]).unwrap();
            assert_eq!(a.ret, b.ret, "n={n}");
        }
    }

    #[test]
    fn compaction_drops_dead_registers_and_preserves_behavior() {
        use Instr::*;
        // Registers 5/9 are allocated but never touched.
        let mut func = int_func(
            vec![
                IAddImm {
                    dst: IReg(7),
                    a: IReg(0),
                    imm: 3,
                },
                RetI { src: IReg(7) },
            ],
            10,
        );
        let before = crate::vm::run(&func, vec![ArgValue::I(4)]).unwrap();
        let saved = compact_registers(&mut func);
        assert!(
            saved >= 7,
            "expected most of the 10 iregs dropped, saved {saved}"
        );
        assert_eq!(func.n_iregs, 2);
        let after = crate::vm::run(&func, vec![ArgValue::I(4)]).unwrap();
        assert_eq!(before.ret, after.ret);
    }

    #[test]
    fn licm_hoists_invariant_float_mul_out_of_compiled_loop() {
        // `h * h` is invariant; the division by the loop-variant `i`
        // keeps fusion from folding the multiply into an FMulAdd.
        let src = "double f(double h, int n) {
            double s = 0.0;
            for (int i = 1; i <= n; i++) { s = s + h * h / i; }
            return s;
        }";
        let mut p = chef_ir::parser::parse_program(src).unwrap();
        chef_ir::typeck::check_program(&mut p).unwrap();
        let base = crate::compile::compile(
            &p.functions[0],
            &crate::compile::CompileOptions {
                cfg: false,
                ..Default::default()
            },
        )
        .unwrap();
        let mut opt = base.clone();
        let stats = optimize(&mut opt);
        assert!(stats.reducible);
        assert!(
            stats.hoisted >= 1,
            "h*h must hoist; dump:\n{}\n{}",
            dump(&base),
            base.disassemble()
        );
        let args = || vec![ArgValue::F(1.5), ArgValue::I(10)];
        let a = crate::vm::run(&base, args()).unwrap();
        let b = crate::vm::run(&opt, args()).unwrap();
        assert_eq!(a.ret, b.ret);
        assert!(b.stats.instrs_executed < a.stats.instrs_executed);
        // Zero-trip and single-trip entries agree too (guard paths).
        for n in [0i64, 1] {
            let a = crate::vm::run(&base, vec![ArgValue::F(1.5), ArgValue::I(n)]).unwrap();
            let b = crate::vm::run(&opt, vec![ArgValue::F(1.5), ArgValue::I(n)]).unwrap();
            assert_eq!(a.ret, b.ret, "n={n}");
        }
    }
}
