//! The register bytecode the VM executes.
//!
//! KernelC functions are compiled ([`mod@crate::compile`]) to a flat
//! instruction vector over three register files: floats (`f64` slots),
//! integers (`i64` slots, also holding booleans as 0/1), and arrays.
//! Narrow float precisions are simulated explicitly in the instruction
//! stream with [`Instr::FRound`] — the compiler inserts a round after
//! every operation whose result precision is below `f64`, which is what
//! makes a "demoted" compilation behave like the hand-rewritten
//! mixed-precision source of the paper.

use chef_ir::ast::Intrinsic;
use chef_ir::span::Span;
use chef_ir::types::FloatTy;

/// Index into the float register file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FReg(pub u32);

/// Index into the integer register file (also used for booleans).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IReg(pub u32);

/// Index into the array register file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AReg(pub u32);

/// Comparison operator for `FCmp`/`ICmp`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The comparison with its operands swapped: `a op b` ≡ `b op' a`.
    pub fn mirror(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// One VM instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `f[dst] = v`
    FConst { dst: FReg, v: f64 },
    /// `f[dst] = f[src]`
    FMov { dst: FReg, src: FReg },
    /// `f[dst] = f[a] + f[b]`
    FAdd { dst: FReg, a: FReg, b: FReg },
    /// `f[dst] = f[a] - f[b]`
    FSub { dst: FReg, a: FReg, b: FReg },
    /// `f[dst] = f[a] * f[b]`
    FMul { dst: FReg, a: FReg, b: FReg },
    /// `f[dst] = f[a] / f[b]` (IEEE semantics: ±∞/NaN on zero divisor)
    FDiv { dst: FReg, a: FReg, b: FReg },
    /// `f[dst] = -f[src]`
    FNeg { dst: FReg, src: FReg },
    /// `f[dst] = round_to(f[src], ty)` — the precision-simulation hook.
    FRound { dst: FReg, src: FReg, ty: FloatTy },
    /// `f[dst] = intr(f[a])` (dispatches through the approx config)
    FIntr1 { dst: FReg, intr: Intrinsic, a: FReg },
    /// `f[dst] = intr(f[a], f[b])`
    FIntr2 {
        dst: FReg,
        intr: Intrinsic,
        a: FReg,
        b: FReg,
    },
    /// `i[dst] = f[a] op f[b]`
    FCmp {
        dst: IReg,
        op: CmpOp,
        a: FReg,
        b: FReg,
    },
    /// `f[dst] = farr[arr][i[idx]]` (bounds-checked)
    FLoad { dst: FReg, arr: AReg, idx: IReg },
    /// `farr[arr][i[idx]] = f[src]` (bounds-checked)
    FStore { arr: AReg, idx: IReg, src: FReg },
    /// `i[dst] = trunc(f[src])` (C cast semantics)
    F2I { dst: IReg, src: FReg },
    /// `f[dst] = i[src] as f64`
    I2F { dst: FReg, src: IReg },

    /// `i[dst] = v`
    IConst { dst: IReg, v: i64 },
    /// `i[dst] = i[src]`
    IMov { dst: IReg, src: IReg },
    /// `i[dst] = i[a] + i[b]` (wrapping)
    IAdd { dst: IReg, a: IReg, b: IReg },
    /// `i[dst] = i[a] - i[b]` (wrapping)
    ISub { dst: IReg, a: IReg, b: IReg },
    /// `i[dst] = i[a] * i[b]` (wrapping)
    IMul { dst: IReg, a: IReg, b: IReg },
    /// `i[dst] = i[a] / i[b]` (traps on zero divisor)
    IDiv { dst: IReg, a: IReg, b: IReg },
    /// `i[dst] = i[a] % i[b]` (traps on zero divisor)
    IRem { dst: IReg, a: IReg, b: IReg },
    /// `i[dst] = -i[src]`
    INeg { dst: IReg, src: IReg },
    /// `i[dst] = i[a] op i[b]`
    ICmp {
        dst: IReg,
        op: CmpOp,
        a: IReg,
        b: IReg,
    },
    /// `i[dst] = iarr[arr][i[idx]]` (bounds-checked)
    ILoad { dst: IReg, arr: AReg, idx: IReg },
    /// `iarr[arr][i[idx]] = i[src]` (bounds-checked)
    IStore { arr: AReg, idx: IReg, src: IReg },
    /// `i[dst] = 1 - i[src]` (boolean not)
    BNot { dst: IReg, src: IReg },

    /// Unconditional jump to instruction index `target`.
    Jmp { target: u32 },
    /// Jump when `i[cond] == 0`.
    JmpIfFalse { cond: IReg, target: u32 },
    /// Jump when `i[cond] != 0`.
    JmpIfTrue { cond: IReg, target: u32 },

    /// Push `f[src]` onto the tape (forward sweep of Fig. 2).
    TPushF { src: FReg },
    /// Pop the tape into `f[dst]` (backward sweep of Fig. 2).
    TPopF { dst: FReg },
    /// Push `i[src]` onto the int tape (trip counts, branch flags).
    TPushI { src: IReg },
    /// Pop the int tape into `i[dst]`.
    TPopI { dst: IReg },

    /// Allocate a zeroed float array of length `i[len]` into slot `arr`.
    AllocF { arr: AReg, len: IReg },
    /// Allocate a zeroed int array of length `i[len]` into slot `arr`.
    AllocI { arr: AReg, len: IReg },

    // ---- fused superinstructions (emitted by [`crate::fuse`]) ----
    //
    // Each one is the exact composition of the base instructions it
    // replaces — same rounding, same trap points — so a fused program is
    // bit-identical to its unfused compilation; only the dispatch count
    // changes.
    /// `f[dst] = f[a] * f[b] + f[c]` — mul and add rounded **separately**
    /// (not an FMA), matching the unfused pair.
    FMulAdd {
        dst: FReg,
        a: FReg,
        b: FReg,
        c: FReg,
    },
    /// `f[dst] = round_to(f[a] + f[b], ty)` — the dominant pair in
    /// demoted code.
    FAddRound {
        dst: FReg,
        a: FReg,
        b: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = round_to(f[a] - f[b], ty)`
    FSubRound {
        dst: FReg,
        a: FReg,
        b: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = round_to(f[a] * f[b], ty)`
    FMulRound {
        dst: FReg,
        a: FReg,
        b: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = round_to(f[a] / f[b], ty)`
    FDivRound {
        dst: FReg,
        a: FReg,
        b: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = round_to(intr(f[a]), ty)` — intrinsic call into a demoted
    /// variable (e.g. `float y = sin(x)`).
    FIntr1Round {
        dst: FReg,
        intr: Intrinsic,
        a: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = round_to(intr(f[a], f[b]), ty)`
    FIntr2Round {
        dst: FReg,
        intr: Intrinsic,
        a: FReg,
        b: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = f[a] + k` — constant operand folded out of an `FConst`
    /// the loop body would otherwise re-materialize every iteration.
    FAddC { dst: FReg, a: FReg, k: f64 },
    /// `f[dst] = f[a] - k`
    FSubC { dst: FReg, a: FReg, k: f64 },
    /// `f[dst] = k - f[a]`
    FSubCR { dst: FReg, k: f64, a: FReg },
    /// `f[dst] = f[a] * k`
    FMulC { dst: FReg, a: FReg, k: f64 },
    /// `f[dst] = f[a] / k`
    FDivC { dst: FReg, a: FReg, k: f64 },
    /// `f[dst] = k / f[a]` (the `1.0 / x` idiom)
    FDivCR { dst: FReg, k: f64, a: FReg },
    /// Jump to `target` when `!(i[a] op imm)` — the fused
    /// constant-bound loop test (`IConst` + `ICmpJmpFalse`).
    ICmpImmJmpFalse {
        op: CmpOp,
        a: IReg,
        imm: i64,
        target: u32,
    },
    /// Jump to `target` when `i[a] op imm`.
    ICmpImmJmpTrue {
        op: CmpOp,
        a: IReg,
        imm: i64,
        target: u32,
    },
    /// `f[dst] = farr[arr][i[base] + off]` (bounds-checked)
    FLoadOff {
        dst: FReg,
        arr: AReg,
        base: IReg,
        off: i32,
    },
    /// `farr[arr][i[base] + off] = f[src]` (bounds-checked)
    FStoreOff {
        arr: AReg,
        base: IReg,
        off: i32,
        src: FReg,
    },
    /// `i[dst] = i[a] + imm` (wrapping) — loop increments.
    IAddImm { dst: IReg, a: IReg, imm: i64 },
    /// Jump to `target` when `!(f[a] op f[b])` — fused compare-and-branch
    /// (the loop-exit test).
    FCmpJmpFalse {
        op: CmpOp,
        a: FReg,
        b: FReg,
        target: u32,
    },
    /// Jump to `target` when `f[a] op f[b]`.
    FCmpJmpTrue {
        op: CmpOp,
        a: FReg,
        b: FReg,
        target: u32,
    },
    /// Jump to `target` when `!(i[a] op i[b])`.
    ICmpJmpFalse {
        op: CmpOp,
        a: IReg,
        b: IReg,
        target: u32,
    },
    /// Jump to `target` when `i[a] op i[b]`.
    ICmpJmpTrue {
        op: CmpOp,
        a: IReg,
        b: IReg,
        target: u32,
    },

    /// Return `f[src]`.
    RetF { src: FReg },
    /// Return `i[src]` as an int.
    RetI { src: IReg },
    /// Return `i[src]` as a bool.
    RetB { src: IReg },
    /// Return nothing.
    RetVoid,
    /// Control fell off the end of a non-void function.
    TrapMissingReturn,
}

/// Register file an operand lives in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum RegClass {
    /// Float file.
    F,
    /// Integer file.
    I,
    /// Array file.
    A,
}

/// A register operand: its file and its index in that file.
pub(crate) type Reg = (RegClass, u32);

// ---------------------------------------------------------------------
// The operand table
// ---------------------------------------------------------------------
//
// Which registers each opcode reads and writes, and where it jumps, is
// written out exactly once, in `regs_mut` and `target_mut`. Fusion's
// dataflow, the CFG tier's liveness/LICM/compaction and the validator
// that makes unchecked dispatch sound all derive from these two.

impl Instr {
    /// Calls `f(class, &mut index, is_write)` for every register operand,
    /// reads first and the (at most one) write last, arrays included.
    pub(crate) fn regs_mut(&mut self, mut f: impl FnMut(RegClass, &mut u32, bool)) {
        use Instr::*;
        use RegClass::{A, F, I};
        match self {
            FConst { dst, .. } => f(F, &mut dst.0, true),
            FMov { dst, src } | FNeg { dst, src } | FRound { dst, src, .. } => {
                f(F, &mut src.0, false);
                f(F, &mut dst.0, true);
            }
            FAdd { dst, a, b }
            | FSub { dst, a, b }
            | FMul { dst, a, b }
            | FDiv { dst, a, b }
            | FAddRound { dst, a, b, .. }
            | FSubRound { dst, a, b, .. }
            | FMulRound { dst, a, b, .. }
            | FDivRound { dst, a, b, .. }
            | FIntr2 { dst, a, b, .. }
            | FIntr2Round { dst, a, b, .. } => {
                f(F, &mut a.0, false);
                f(F, &mut b.0, false);
                f(F, &mut dst.0, true);
            }
            FIntr1 { dst, a, .. }
            | FIntr1Round { dst, a, .. }
            | FAddC { dst, a, .. }
            | FSubC { dst, a, .. }
            | FSubCR { dst, a, .. }
            | FMulC { dst, a, .. }
            | FDivC { dst, a, .. }
            | FDivCR { dst, a, .. } => {
                f(F, &mut a.0, false);
                f(F, &mut dst.0, true);
            }
            FMulAdd { dst, a, b, c } => {
                f(F, &mut a.0, false);
                f(F, &mut b.0, false);
                f(F, &mut c.0, false);
                f(F, &mut dst.0, true);
            }
            FCmp { dst, a, b, .. } => {
                f(F, &mut a.0, false);
                f(F, &mut b.0, false);
                f(I, &mut dst.0, true);
            }
            FLoad { dst, arr, idx }
            | FLoadOff {
                dst,
                arr,
                base: idx,
                ..
            } => {
                f(A, &mut arr.0, false);
                f(I, &mut idx.0, false);
                f(F, &mut dst.0, true);
            }
            FStore { arr, idx, src }
            | FStoreOff {
                arr,
                base: idx,
                src,
                ..
            } => {
                f(A, &mut arr.0, false);
                f(I, &mut idx.0, false);
                f(F, &mut src.0, false);
            }
            F2I { dst, src } => {
                f(F, &mut src.0, false);
                f(I, &mut dst.0, true);
            }
            I2F { dst, src } => {
                f(I, &mut src.0, false);
                f(F, &mut dst.0, true);
            }
            IConst { dst, .. } => f(I, &mut dst.0, true),
            IMov { dst, src }
            | INeg { dst, src }
            | BNot { dst, src }
            | IAddImm { dst, a: src, .. } => {
                f(I, &mut src.0, false);
                f(I, &mut dst.0, true);
            }
            IAdd { dst, a, b }
            | ISub { dst, a, b }
            | IMul { dst, a, b }
            | IDiv { dst, a, b }
            | IRem { dst, a, b }
            | ICmp { dst, a, b, .. } => {
                f(I, &mut a.0, false);
                f(I, &mut b.0, false);
                f(I, &mut dst.0, true);
            }
            ILoad { dst, arr, idx } => {
                f(A, &mut arr.0, false);
                f(I, &mut idx.0, false);
                f(I, &mut dst.0, true);
            }
            IStore { arr, idx, src } => {
                f(A, &mut arr.0, false);
                f(I, &mut idx.0, false);
                f(I, &mut src.0, false);
            }
            Jmp { .. } | RetVoid | TrapMissingReturn => {}
            JmpIfFalse { cond: a, .. }
            | JmpIfTrue { cond: a, .. }
            | ICmpImmJmpFalse { a, .. }
            | ICmpImmJmpTrue { a, .. }
            | TPushI { src: a }
            | RetI { src: a }
            | RetB { src: a } => f(I, &mut a.0, false),
            FCmpJmpFalse { a, b, .. } | FCmpJmpTrue { a, b, .. } => {
                f(F, &mut a.0, false);
                f(F, &mut b.0, false);
            }
            ICmpJmpFalse { a, b, .. } | ICmpJmpTrue { a, b, .. } => {
                f(I, &mut a.0, false);
                f(I, &mut b.0, false);
            }
            TPushF { src } | RetF { src } => f(F, &mut src.0, false),
            TPopF { dst } => f(F, &mut dst.0, true),
            TPopI { dst } => f(I, &mut dst.0, true),
            AllocF { arr, len } | AllocI { arr, len } => {
                f(I, &mut len.0, false);
                f(A, &mut arr.0, true);
            }
        }
    }

    /// The jump-target field, if the instruction branches.
    pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
        use Instr::*;
        match self {
            Jmp { target }
            | JmpIfFalse { target, .. }
            | JmpIfTrue { target, .. }
            | FCmpJmpFalse { target, .. }
            | FCmpJmpTrue { target, .. }
            | ICmpJmpFalse { target, .. }
            | ICmpJmpTrue { target, .. }
            | ICmpImmJmpFalse { target, .. }
            | ICmpImmJmpTrue { target, .. } => Some(target),
            _ => None,
        }
    }

    /// The jump target, if the instruction branches.
    pub(crate) fn target(&self) -> Option<u32> {
        self.clone().target_mut().copied()
    }

    /// Read-only [`Instr::regs_mut`] (it visits a copy): `f(reg, is_write)`
    /// per operand.
    pub(crate) fn regs(&self, mut f: impl FnMut(Reg, bool)) {
        self.clone().regs_mut(|class, idx, w| f((class, *idx), w));
    }

    /// Calls `f` for every scalar (float or int) register the instruction
    /// reads. The dataflow users of this and [`Instr::write`] (fusion's
    /// dead-after query, LICM liveness) never move or rename arrays, and
    /// leaving array operands out keeps their sets small.
    pub(crate) fn reads(&self, mut f: impl FnMut(Reg)) {
        self.regs(|r, w| {
            if !w && r.0 != RegClass::A {
                f(r)
            }
        });
    }

    /// The scalar register the instruction writes, if any.
    pub(crate) fn write(&self) -> Option<Reg> {
        let mut out = None;
        self.regs(|r, w| {
            if w && r.0 != RegClass::A {
                out = Some(r)
            }
        });
        out
    }

    /// The instruction with its write retargeted to `d`; `None` when it
    /// writes nothing in `d`'s file.
    pub(crate) fn with_write(&self, d: Reg) -> Option<Instr> {
        let mut out = self.clone();
        let mut hit = false;
        out.regs_mut(|class, idx, w| {
            if w && class == d.0 {
                *idx = d.1;
                hit = true;
            }
        });
        hit.then_some(out)
    }

    /// `true` for the instructions that leave the function.
    pub(crate) fn is_exit(&self) -> bool {
        use Instr::*;
        matches!(
            self,
            RetF { .. } | RetI { .. } | RetB { .. } | RetVoid | TrapMissingReturn
        )
    }

    /// Successor pcs of the instruction at `pc`: the jump target first,
    /// then the fall-through. Both `None` for an exit.
    pub(crate) fn successors(&self, pc: usize) -> [Option<usize>; 2] {
        let target = self.target().map(|t| t as usize);
        match self {
            _ if self.is_exit() => [None, None],
            Instr::Jmp { .. } => [target, None],
            _ if target.is_some() => [target, Some(pc + 1)],
            _ => [Some(pc + 1), None],
        }
    }
}

/// Scalar/array kind of one parameter in the compiled signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamKind {
    /// Float scalar at the (possibly demoted) precision; incoming values
    /// are rounded to this precision at call entry.
    F(FloatTy),
    /// Int scalar.
    I,
    /// Bool scalar.
    B,
    /// Float array with the given (possibly demoted) element precision;
    /// elements are rounded in place at call entry.
    FArr(FloatTy),
    /// Int array.
    IArr,
}

/// One parameter of a compiled function.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamSpec {
    /// Source-level name (for diagnostics and reports).
    pub name: String,
    /// Scalar/array kind with effective precision.
    pub kind: ParamKind,
    /// `true` if the updated value is copied back to the caller (arrays
    /// always are).
    pub by_ref: bool,
    /// The register (in the file implied by `kind`) the parameter binds to.
    pub reg: u32,
}

impl ParamSpec {
    /// The register the parameter binds to, with its file.
    pub(crate) fn home(&self) -> Reg {
        let class = match self.kind {
            ParamKind::F(_) => RegClass::F,
            ParamKind::I | ParamKind::B => RegClass::I,
            ParamKind::FArr(_) | ParamKind::IArr => RegClass::A,
        };
        (class, self.reg)
    }
}

/// Return-value kind of a compiled function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetKind {
    /// Float return at the given precision (the VM rounds on return).
    F(FloatTy),
    /// Int return.
    I,
    /// Bool return.
    B,
    /// No return value.
    Void,
}

/// A fully compiled KernelC function.
#[derive(Clone, Debug)]
pub struct CompiledFunction {
    /// Source function name.
    pub name: String,
    /// The instruction stream.
    pub instrs: Vec<Instr>,
    /// Source span of each instruction (parallel to `instrs`), for traps.
    pub spans: Vec<Span>,
    /// Number of float registers.
    pub n_fregs: u32,
    /// Number of integer registers.
    pub n_iregs: u32,
    /// Number of array registers.
    pub n_aregs: u32,
    /// Parameter binding specs, in call order.
    pub params: Vec<ParamSpec>,
    /// Return kind.
    pub ret: RetKind,
    /// Source names of the float registers that are variable homes
    /// (`(register index, name)`, ascending; temporaries are unnamed).
    /// Consumed by the shadow interpreter's per-variable attribution and
    /// by diagnostics; execution never reads it.
    pub fvar_names: Vec<(u32, String)>,
    /// Source names of the array registers (every array register is a
    /// variable home; there are no array temporaries).
    pub avar_names: Vec<(u32, String)>,
    /// The packed `u64` word stream + constant pool produced by
    /// [`crate::pack`] — the form the dispatch loop executes. Always
    /// present on [`crate::compile::compile`] output; a hand-built function
    /// may leave it `None` and is then packed when it enters a machine.
    /// When present it is word-for-word equivalent to `instrs`;
    /// [`crate::vm::validate_function`] enforces that before any unchecked
    /// packed dispatch.
    pub packed: Option<crate::pack::PackedCode>,
}

impl CompiledFunction {
    /// Size of the register file `class`.
    pub(crate) fn reg_count(&self, class: RegClass) -> u32 {
        match class {
            RegClass::F => self.n_fregs,
            RegClass::I => self.n_iregs,
            RegClass::A => self.n_aregs,
        }
    }

    /// Human-readable disassembly (one instruction per line), useful in
    /// tests and for debugging generated adjoints.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fn {} (fregs={}, iregs={}, aregs={})",
            self.name, self.n_fregs, self.n_iregs, self.n_aregs
        );
        for (pc, ins) in self.instrs.iter().enumerate() {
            let _ = writeln!(out, "{pc:4}: {ins:?}");
        }
        out
    }
}

/// One sample of every [`Instr`] variant, with each register below 4 in
/// its file and every jump target 1. The list also expands to an
/// exhaustive `match` over its variant names, so adding a variant
/// without a sample fails to compile.
#[cfg(test)]
#[rustfmt::skip] // one sample per line
pub(crate) fn samples() -> Vec<Instr> {
    macro_rules! samples {
        ($($v:ident $fields:tt),* $(,)?) => {{
            #[allow(dead_code)]
            fn exhaustive(ins: &Instr) {
                match ins {
                    $(Instr::$v { .. } => {})*
                }
            }
            vec![$(Instr::$v $fields),*]
        }};
    }
    use chef_ir::types::FloatTy::{BF16, F16, F32};
    use CmpOp::*;
    use Intrinsic::{Fmax, Pow, Sin, Sqrt};
    let (f, i, a) = (FReg, IReg, AReg);
    samples![
        FConst { dst: f(3), v: 1.5 },
        FMov { dst: f(1), src: f(2) },
        FAdd { dst: f(3), a: f(1), b: f(2) },
        FSub { dst: f(3), a: f(1), b: f(2) },
        FMul { dst: f(3), a: f(1), b: f(2) },
        FDiv { dst: f(3), a: f(1), b: f(2) },
        FNeg { dst: f(1), src: f(2) },
        FRound { dst: f(1), src: f(2), ty: BF16 },
        FIntr1 { dst: f(1), intr: Sin, a: f(2) },
        FIntr2 { dst: f(3), intr: Pow, a: f(1), b: f(2) },
        FCmp { dst: i(3), op: Le, a: f(1), b: f(2) },
        FLoad { dst: f(1), arr: a(2), idx: i(3) },
        FStore { arr: a(2), idx: i(3), src: f(1) },
        F2I { dst: i(1), src: f(2) },
        I2F { dst: f(1), src: i(2) },
        IConst { dst: i(3), v: -32768 },
        IMov { dst: i(1), src: i(2) },
        IAdd { dst: i(3), a: i(1), b: i(2) },
        ISub { dst: i(3), a: i(1), b: i(2) },
        IMul { dst: i(3), a: i(1), b: i(2) },
        IDiv { dst: i(3), a: i(1), b: i(2) },
        IRem { dst: i(3), a: i(1), b: i(2) },
        INeg { dst: i(1), src: i(2) },
        ICmp { dst: i(3), op: Ge, a: i(1), b: i(2) },
        ILoad { dst: i(1), arr: a(2), idx: i(3) },
        IStore { arr: a(2), idx: i(3), src: i(1) },
        BNot { dst: i(1), src: i(2) },
        Jmp { target: 1 },
        JmpIfFalse { cond: i(1), target: 1 },
        JmpIfTrue { cond: i(2), target: 1 },
        TPushF { src: f(3) },
        TPopF { dst: f(3) },
        TPushI { src: i(3) },
        TPopI { dst: i(3) },
        AllocF { arr: a(1), len: i(2) },
        AllocI { arr: a(3), len: i(1) },
        FMulAdd { dst: f(0), a: f(1), b: f(2), c: f(3) },
        FAddRound { dst: f(3), a: f(1), b: f(2), ty: F32 },
        FSubRound { dst: f(3), a: f(1), b: f(2), ty: F16 },
        FMulRound { dst: f(3), a: f(1), b: f(2), ty: BF16 },
        FDivRound { dst: f(3), a: f(1), b: f(2), ty: F32 },
        FIntr1Round { dst: f(1), intr: Sqrt, a: f(2), ty: F32 },
        FIntr2Round { dst: f(3), intr: Fmax, a: f(1), b: f(2), ty: F16 },
        FAddC { dst: f(1), a: f(2), k: 0.25 },
        FSubC { dst: f(1), a: f(2), k: -0.0 },
        FSubCR { dst: f(1), k: 3.0, a: f(2) },
        FMulC { dst: f(1), a: f(2), k: f64::INFINITY },
        FDivC { dst: f(1), a: f(2), k: 7.0 },
        FDivCR { dst: f(1), k: 1.0, a: f(2) },
        ICmpImmJmpFalse { op: Lt, a: i(1), imm: -5, target: 1 },
        ICmpImmJmpTrue { op: Gt, a: i(2), imm: 300, target: 1 },
        FLoadOff { dst: f(1), arr: a(2), base: i(3), off: -128 },
        FStoreOff { arr: a(2), base: i(3), off: 127, src: f(1) },
        IAddImm { dst: i(1), a: i(2), imm: -1 },
        FCmpJmpFalse { op: Gt, a: f(1), b: f(2), target: 1 },
        FCmpJmpTrue { op: Eq, a: f(1), b: f(2), target: 1 },
        ICmpJmpFalse { op: Ne, a: i(1), b: i(2), target: 1 },
        ICmpJmpTrue { op: Lt, a: i(1), b: i(2), target: 1 },
        RetF { src: f(3) },
        RetI { src: i(3) },
        RetB { src: i(2) },
        RetVoid {},
        TrapMissingReturn {},
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_table_yields_every_register_field() {
        // `Debug` prints every field, so counting `FReg(`/`IReg(`/`AReg(`
        // there is a census of register operands independent of the table.
        let mut total = 0;
        for ins in samples() {
            let dbg = format!("{ins:?}");
            let mut yielded = [0usize; 3];
            let mut writes = 0;
            ins.regs(|(class, _), w| {
                yielded[class as usize] += 1;
                writes += usize::from(w);
            });
            let printed = ["FReg(", "IReg(", "AReg("].map(|p| dbg.matches(p).count());
            assert_eq!(yielded, printed, "{dbg}");
            assert!(writes <= 1, "{dbg}");
            assert_eq!(ins.target().is_some(), dbg.contains("target"), "{dbg}");
            total += yielded.iter().sum::<usize>();
        }
        assert_eq!(samples().len(), 63);
        assert_eq!(total, 132);
    }

    #[test]
    fn disassembly_contains_instructions() {
        let f = CompiledFunction {
            name: "t".into(),
            instrs: vec![
                Instr::FConst {
                    dst: FReg(0),
                    v: 1.5,
                },
                Instr::RetF { src: FReg(0) },
            ],
            spans: vec![Span::DUMMY; 2],
            n_fregs: 1,
            n_iregs: 0,
            n_aregs: 0,
            params: vec![],
            ret: RetKind::F(FloatTy::F64),
            fvar_names: vec![],
            avar_names: vec![],
            packed: None,
        };
        let d = f.disassemble();
        assert!(d.contains("FConst"));
        assert!(d.contains("RetF"));
    }
}
