//! Differential test: the CFG optimizer tier must be unobservable.
//!
//! Every `chef-apps` kernel is compiled twice — CFG tier off and on —
//! and executed on the same workload, in three configurations (primal at
//! declared precisions, primal with every float demoted to `f32`, and
//! the reverse-AD adjoint).
//!
//! The two compilations must agree **bit-for-bit** on the return value
//! and every output argument, and exactly on the tape/memory counters.
//! `instrs_executed` may shrink (LICM's whole point) but not grow on
//! these loop-heavy kernels.
//!
//! In shadow mode the divergence *report* must also be preserved: the
//! same split count, the same decision sequence (operator, operands,
//! taken/would-take), and the same per-variable attribution. Only the
//! `pc`/`at_instr` coordinates of a split may move (hoisting relocates
//! instructions), and only the *local-error accounting* may differ (a
//! hoisted rounding op contributes one preheader sample instead of one
//! per iteration) — neither is part of the decision record.
//!
//! Randomly generated branching kernels (bounded loops, near-tie float
//! compares) and deterministic fault-injection schedules round out the
//! suite: recovery paths must observe the same outcome kinds and the
//! same number of plan draws whether or not the tier ran.

use chef_exec::cfg;
use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::fault::{FaultKind, FaultPlan};
use chef_exec::prelude::*;
use chef_exec::shadow::run_shadow;
use chef_ir::ast::{Function, Program};
use chef_ir::types::{ElemTy, FloatTy, Type};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One app kernel with a representative (small) workload.
fn kernels() -> Vec<(&'static str, Program, &'static str, Vec<ArgValue>)> {
    vec![
        (
            "arclen",
            chef_apps::arclen::program(),
            chef_apps::arclen::NAME,
            chef_apps::arclen::args(500),
        ),
        (
            "simpsons",
            chef_apps::simpsons::program(),
            chef_apps::simpsons::NAME,
            chef_apps::simpsons::args(500),
        ),
        (
            "kmeans",
            chef_apps::kmeans::program(),
            chef_apps::kmeans::NAME,
            chef_apps::kmeans::args(&chef_apps::kmeans::workload(100, 5, 4, 42)),
        ),
        (
            "blackscholes",
            chef_apps::blackscholes::program(),
            chef_apps::blackscholes::NAME,
            chef_apps::blackscholes::args(&chef_apps::blackscholes::workload(50, 42)),
        ),
        (
            "hpccg",
            chef_apps::hpccg::program(),
            chef_apps::hpccg::NAME,
            chef_apps::hpccg::args(&chef_apps::hpccg::problem(4, 4, 4)),
        ),
    ]
}

fn inlined_kernel(program: &Program, func: &str) -> Function {
    chef_passes::inline_program(program)
        .expect("kernel inlines")
        .function(func)
        .expect("kernel exists")
        .clone()
}

/// Demotes every float variable (scalar and array) to `f32`.
fn demote_all(func: &Function) -> PrecisionMap {
    let mut pm = PrecisionMap::empty();
    for (id, v) in func.vars_iter() {
        if let Type::Float(_) | Type::Array(ElemTy::Float(_)) = v.ty {
            pm.set(id, FloatTy::F32);
        }
    }
    pm
}

/// Compiles `func` with the CFG tier off and on (everything else equal,
/// fusion pinned on so both sides see the same input stream).
fn compile_pair(
    func: &Function,
    pm: &PrecisionMap,
) -> (
    chef_exec::bytecode::CompiledFunction,
    chef_exec::bytecode::CompiledFunction,
) {
    let mk = |cfg_on: bool| {
        compile(
            func,
            &CompileOptions {
                precisions: pm.clone(),
                fuse: true,
                cfg: cfg_on,
            },
        )
        .expect("kernel compiles")
    };
    (mk(false), mk(true))
}

fn big_opts() -> ExecOptions {
    ExecOptions {
        max_instrs: Some(500_000_000),
        ..Default::default()
    }
}

fn assert_args_bit_equal(label: &str, a: &[ArgValue], b: &[ArgValue]) {
    assert_eq!(a.len(), b.len(), "{label}: arg count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        match (x, y) {
            (ArgValue::F(x), ArgValue::F(y)) => {
                assert_eq!(x.to_bits(), y.to_bits(), "{label}: scalar arg {i}")
            }
            (ArgValue::FArr(x), ArgValue::FArr(y)) => {
                assert_eq!(x.len(), y.len(), "{label}: array arg {i} length");
                for (k, (xv, yv)) in x.iter().zip(y).enumerate() {
                    assert_eq!(xv.to_bits(), yv.to_bits(), "{label}: array arg {i}[{k}]");
                }
            }
            (x, y) => assert_eq!(x, y, "{label}: arg {i}"),
        }
    }
}

/// Runs `func` compiled with the CFG tier off and on; asserts the
/// outcomes are indistinguishable except for a (never larger)
/// instruction count.
fn assert_cfg_unobservable(label: &str, func: &Function, pm: &PrecisionMap, args: &[ArgValue]) {
    let (off, on) = compile_pair(func, pm);
    let opts = big_opts();
    let a = run_with(&off, args.to_vec(), &opts)
        .unwrap_or_else(|t| panic!("{label}: cfg-off trapped: {t}"));
    let b = run_with(&on, args.to_vec(), &opts)
        .unwrap_or_else(|t| panic!("{label}: cfg-on trapped: {t}"));

    match (&a.ret, &b.ret) {
        (Some(Value::F(x)), Some(Value::F(y))) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: float return differs")
        }
        (x, y) => assert_eq!(x, y, "{label}: return differs"),
    }
    assert_args_bit_equal(label, &a.args, &b.args);
    assert_eq!(
        a.stats.tape_peak_bytes, b.stats.tape_peak_bytes,
        "{label}: tape peak"
    );
    assert_eq!(
        a.stats.tape_total_pushes, b.stats.tape_total_pushes,
        "{label}: tape traffic"
    );
    assert_eq!(
        a.stats.local_array_bytes, b.stats.local_array_bytes,
        "{label}: local arrays"
    );
    assert_eq!(
        a.stats.arg_array_bytes, b.stats.arg_array_bytes,
        "{label}: arg arrays"
    );
    assert!(
        b.stats.instrs_executed <= a.stats.instrs_executed,
        "{label}: CFG tier increased instruction count ({} > {})",
        b.stats.instrs_executed,
        a.stats.instrs_executed
    );
}

/// Runs the f64-shadow oracle over both compilations; asserts the primal
/// stream and the divergence *decisions* are preserved. Split
/// coordinates (`pc`, `at_instr`) and local-error accounting
/// (`acc_error`, `samples`, `var_error`) may legitimately differ — a
/// hoisted instruction lives at a new pc and executes once per loop
/// entry instead of once per iteration.
fn assert_cfg_shadow_unobservable(
    label: &str,
    func: &Function,
    pm: &PrecisionMap,
    args: &[ArgValue],
) {
    let label = format!("{label}/shadow");
    let (off, on) = compile_pair(func, pm);
    let opts = big_opts();
    let sa = run_shadow::<f64>(&off, args.to_vec(), &opts)
        .unwrap_or_else(|t| panic!("{label}: cfg-off trapped: {t}"));
    let sb = run_shadow::<f64>(&on, args.to_vec(), &opts)
        .unwrap_or_else(|t| panic!("{label}: cfg-on trapped: {t}"));

    match (&sa.ret, &sb.ret) {
        (Some(Value::F(x)), Some(Value::F(y))) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: primal return differs")
        }
        (x, y) => assert_eq!(x, y, "{label}: primal return differs"),
    }
    match (sa.shadow_ret, sb.shadow_ret) {
        (Some(x), Some(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: shadow return differs")
        }
        (x, y) => assert_eq!(x, y, "{label}: shadow return differs"),
    }
    assert_args_bit_equal(&label, &sa.args, &sb.args);
    assert_eq!(
        sa.divergence_count, sb.divergence_count,
        "{label}: split count differs"
    );
    let ka: Vec<_> = sa.divergence.iter().map(|d| d.kind).collect();
    let kb: Vec<_> = sb.divergence.iter().map(|d| d.kind).collect();
    assert_eq!(ka, kb, "{label}: split decision sequence differs");
    assert_eq!(
        sa.var_divergence, sb.var_divergence,
        "{label}: per-variable split attribution differs"
    );
}

#[test]
fn primal_kernels_are_bit_identical_cfg_on_vs_off() {
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        assert_cfg_unobservable(label, &func, &PrecisionMap::empty(), &args);
    }
}

#[test]
fn fully_demoted_kernels_are_bit_identical_cfg_on_vs_off() {
    // Demotion floods the stream with F*Round forms — the Class B
    // (guard-requiring) hoist candidates.
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let pm = demote_all(&func);
        assert_cfg_unobservable(&format!("{label}/demoted"), &func, &pm, &args);
    }
}

#[test]
fn adjoint_kernels_are_bit_identical_cfg_on_vs_off() {
    // The analysis hot path: reverse-AD adjoints with tape traffic. LICM
    // must not reorder anything across TPush/TPop.
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let grad = match chef_ad::reverse::reverse_diff(&func) {
            Ok(g) => g,
            Err(e) => panic!("{label}: reverse_diff failed: {e}"),
        };
        let mut grad_args = args.to_vec();
        for a in &args {
            match a {
                ArgValue::F(_) => grad_args.push(ArgValue::F(0.0)),
                ArgValue::FArr(v) => grad_args.push(ArgValue::FArr(vec![0.0; v.len()])),
                _ => {}
            }
        }
        assert_cfg_unobservable(
            &format!("{label}/adjoint"),
            &grad,
            &PrecisionMap::empty(),
            &grad_args,
        );
    }
}

#[test]
fn demoted_kernels_preserve_the_shadow_divergence_report() {
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let pm = demote_all(&func);
        assert_cfg_shadow_unobservable(label, &func, &pm, &args);
    }
}

#[test]
fn arclen_licm_actually_hoists_and_shrinks_the_run() {
    // The acceptance anchor: on arclen the tier must *do* something —
    // hoist at least one invariant op and strictly reduce the dynamic
    // instruction count — not just be harmless.
    let func = inlined_kernel(&chef_apps::arclen::program(), chef_apps::arclen::NAME);
    let args = chef_apps::arclen::args(500);
    let (off, on) = compile_pair(&func, &PrecisionMap::empty());

    let mut opt = off.clone();
    let stats = cfg::optimize(&mut opt);
    assert!(stats.reducible, "arclen's CFG is reducible");
    assert!(
        stats.hoisted >= 1,
        "arclen must yield at least one LICM hoist, got {stats:?}"
    );

    let opts = big_opts();
    let a = run_with(&off, args.clone(), &opts).expect("cfg-off runs");
    let b = run_with(&on, args, &opts).expect("cfg-on runs");
    assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
    assert!(
        b.stats.instrs_executed < a.stats.instrs_executed,
        "LICM did not shrink arclen's dynamic count ({} >= {})",
        b.stats.instrs_executed,
        a.stats.instrs_executed
    );
}

// ------------------------------------------------------ fault injection

/// Drives `n` calls through identical [`FaultPlan`] schedules with the
/// tier off and on; every call must resolve to the same outcome shape
/// (same return bits, or a trap of the same kind) and the two plans must
/// have drawn the same number of ordinals.
fn assert_fault_schedule_agrees(label: &str, kind: FaultKind, period: u64, phase: u64) {
    // simpsons' first parameter is a float — required for the Nan kind,
    // which poisons the first float argument after binding.
    let func = inlined_kernel(&chef_apps::simpsons::program(), chef_apps::simpsons::NAME);
    let (off, on) = compile_pair(&func, &PrecisionMap::empty());
    let plan_off = FaultPlan::new(Some(kind), period, phase, 1_000);
    let plan_on = FaultPlan::new(Some(kind), period, phase, 1_000);
    let opts_off = ExecOptions {
        fault: Some(plan_off.clone()),
        ..big_opts()
    };
    let opts_on = ExecOptions {
        fault: Some(plan_on.clone()),
        ..big_opts()
    };

    let n = 9;
    let mut fired = 0;
    for call in 0..n {
        let args = chef_apps::simpsons::args(200);
        let a = catch_unwind(AssertUnwindSafe(|| run_with(&off, args.clone(), &opts_off)));
        let b = catch_unwind(AssertUnwindSafe(|| run_with(&on, args, &opts_on)));
        match (a, b) {
            (Ok(Ok(x)), Ok(Ok(y))) => {
                assert_eq!(
                    x.ret_f().to_bits(),
                    y.ret_f().to_bits(),
                    "{label}: call {call} results differ"
                );
            }
            (Ok(Err(ta)), Ok(Err(tb))) => {
                fired += 1;
                assert_eq!(
                    std::mem::discriminant(&ta.kind),
                    std::mem::discriminant(&tb.kind),
                    "{label}: call {call} trap kinds differ ({:?} vs {:?})",
                    ta.kind,
                    tb.kind
                );
            }
            (Err(_), Err(_)) => fired += 1, // both sides panicked (Panic kind)
            (a, b) => panic!(
                "{label}: call {call} outcomes diverge: cfg-off {:?} vs cfg-on {:?}",
                a.map(|r| r.map(|o| o.ret)),
                b.map(|r| r.map(|o| o.ret))
            ),
        }
    }
    assert!(fired > 0, "{label}: schedule never fired — test is vacuous");
    assert_eq!(plan_off.draws(), n, "{label}: cfg-off draw count");
    assert_eq!(plan_on.draws(), n, "{label}: cfg-on draw count");
}

#[test]
fn fault_injection_schedules_agree_cfg_on_vs_off() {
    assert_fault_schedule_agrees("fault/trap", FaultKind::Trap, 3, 1);
    assert_fault_schedule_agrees("fault/nan", FaultKind::Nan, 4, 2);
    assert_fault_schedule_agrees("fault/panic", FaultKind::Panic, 4, 0);
}

// ------------------------------------------------- random branching kernels

/// Deterministic split-mix generator for kernel synthesis (the same
/// recipe as `proptest_precision.rs`).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn lit(&mut self) -> f64 {
        0.5 + self.unit() * 1.5
    }
}

/// A bounded branching kernel over two inputs, biased toward LICM bait:
/// loop bodies mix an invariant product (`x0 * x1 * lit`, hoistable)
/// with the loop-carried accumulation, behind near-tie float branches
/// and a possibly zero-trip while loop.
fn branching_kernel(g: &mut Gen) -> String {
    let mut src = String::from("double f(double x0, double x1) {\n");
    let inv = format!("x0 * x1 * {:.17}", g.lit());
    let step = format!("x{} * {:.17}", g.below(2), 0.03 + g.unit() * 0.05);
    let iters = g.below(44); // 0 and 1 trips exercise the zero-trip guard
    let _ = writeln!(src, "    double part = 0.0;");
    let _ = writeln!(
        src,
        "    for (int i = 0; i < {iters}; i++) {{ part = part + {step} + {inv}; }}"
    );
    let _ = writeln!(src, "    double acc = part;");
    if g.below(2) == 0 {
        let _ = writeln!(
            src,
            "    for (int i = 0; i < {iters}; i++) {{ acc = acc + {step}; }}"
        );
    } else {
        let _ = writeln!(
            src,
            "    while (acc < part * 1.99) {{ acc = acc + {step} + {inv}; }}"
        );
    }
    let _ = writeln!(src, "    double chk = part + part;");
    let _ = writeln!(src, "    double r = 0.0;");
    let _ = writeln!(
        src,
        "    if (acc < chk) {{ r = acc * {:.17}; }} else {{ r = acc + {:.17}; }}",
        g.lit(),
        g.lit()
    );
    let _ = writeln!(src, "    return r;\n}}");
    src
}

fn compiled_cfg_pair(
    src: &str,
    demote_all_to: Option<FloatTy>,
) -> (
    chef_exec::bytecode::CompiledFunction,
    chef_exec::bytecode::CompiledFunction,
) {
    let mut p = chef_ir::parser::parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    chef_ir::typeck::check_program(&mut p).unwrap_or_else(|e| panic!("{e:?}\n{src}"));
    let func = &p.functions[0];
    let mut pm = PrecisionMap::empty();
    if let Some(ty) = demote_all_to {
        for (id, v) in func.vars_iter() {
            if v.ty.is_differentiable() {
                pm.set(id, ty);
            }
        }
    }
    let mk = |cfg_on: bool| {
        compile(
            func,
            &CompileOptions {
                precisions: pm.clone(),
                fuse: true,
                cfg: cfg_on,
            },
        )
        .unwrap_or_else(|e| panic!("{e:?}\n{src}"))
    };
    (mk(false), mk(true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn branching_kernels_are_bit_identical_cfg_on_vs_off(seed in 0u64..(1u64 << 60)) {
        let mut g = Gen(seed | 1);
        let src = branching_kernel(&mut g);
        let demote = if g.below(2) == 0 { Some(FloatTy::F32) } else { None };
        let (off, on) = compiled_cfg_pair(&src, demote);
        let args = vec![ArgValue::F(g.lit()), ArgValue::F(g.lit())];
        let opts = big_opts();
        // Primal: identical results. No instruction-count assertion here —
        // on a zero-trip loop the preheader guard is pure overhead (a
        // handful of instructions), which is fine; only bits matter.
        let a = run_with(&off, args.clone(), &opts).unwrap_or_else(|t| panic!("{t}\n{src}"));
        let b = run_with(&on, args.clone(), &opts).unwrap_or_else(|t| panic!("{t}\n{src}"));
        prop_assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits(), "{}", src);
        // Shadow: identical divergence decisions and attribution.
        let sa = run_shadow::<f64>(&off, args.clone(), &opts)
            .unwrap_or_else(|t| panic!("{t}\n{src}"));
        let sb = run_shadow::<f64>(&on, args, &opts)
            .unwrap_or_else(|t| panic!("{t}\n{src}"));
        prop_assert_eq!(sa.ret_f().to_bits(), sb.ret_f().to_bits(), "{}", src);
        prop_assert_eq!(
            sa.shadow_f().to_bits(), sb.shadow_f().to_bits(), "{}", src
        );
        prop_assert_eq!(sa.divergence_count, sb.divergence_count, "{}", src);
        let ka: Vec<_> = sa.divergence.iter().map(|d| d.kind).collect();
        let kb: Vec<_> = sb.divergence.iter().map(|d| d.kind).collect();
        prop_assert_eq!(ka, kb, "{}", src);
        prop_assert_eq!(&sa.var_divergence, &sb.var_divergence, "{}", src);
        // And without demotion the f64 shadow can never diverge.
        if demote.is_none() {
            prop_assert_eq!(sb.divergence_count, 0, "{}", src);
        }
    }
}

// ------------------------------------------------------------ golden dump

/// `repro --cfg arclen` debug surface, pinned: the block/loop structure
/// the tier sees and the ops it hoists must not drift silently. The LICM
/// stats of every app kernel's primal are pinned alongside.
#[test]
fn arclen_cfg_dump_is_pinned() {
    let fused = |program: &Program, name: &str| {
        compile(
            &inlined_kernel(program, name),
            &CompileOptions {
                precisions: PrecisionMap::empty(),
                fuse: true,
                cfg: false,
            },
        )
        .expect("kernel compiles")
    };
    let c = fused(&chef_apps::arclen::program(), chef_apps::arclen::NAME);
    let dump = cfg::dump(&c);
    assert_eq!(dump, GOLDEN_ARCLEN_DUMP, "\nactual dump:\n{dump}");

    let mut opt = c.clone();
    let stats = cfg::optimize(&mut opt);
    assert_eq!(
        stats.hoisted_ops, GOLDEN_ARCLEN_HOISTS,
        "\nactual hoists:\n{:#?}",
        stats.hoisted_ops
    );

    let mut licm: Vec<_> = kernels()
        .into_iter()
        .map(|(kernel, program, name, _)| {
            let s = cfg::optimize(&mut fused(&program, name));
            (kernel, s.hoisted, s.guards, s.regs_compacted)
        })
        .collect();
    licm.sort_unstable();
    assert_eq!(licm, GOLDEN_LICM_STATS);
}

/// `(kernel, hoisted, guards, registers compacted)` per app primal,
/// sorted by kernel name.
const GOLDEN_LICM_STATS: &[(&str, u32, u32, u32)] = &[
    ("arclen", 1, 1, 3),
    ("blackscholes", 0, 0, 4),
    ("hpccg", 1, 0, 1),
    ("kmeans", 3, 0, 1),
    ("simpsons", 3, 0, 6),
];

const GOLDEN_ARCLEN_DUMP: &str = "\
cfg arclen: 30 instrs, 8 blocks
  b0: pc 0..6 preds=[] succs=[1] idom=b0
  b1: pc 6..7 preds=[0, 5] succs=[6, 2] idom=b0
  b2: pc 7..12 preds=[1] succs=[3] idom=b1
  b3: pc 12..13 preds=[2, 4] succs=[5, 4] idom=b2
  b4: pc 13..20 preds=[3] succs=[3] idom=b3
  b5: pc 20..28 preds=[3] succs=[1] idom=b3
  b6: pc 28..29 preds=[1] succs=[] idom=b1
  b7: pc 29..30 preds=[] succs=[] idom=-
  loops: 2
    header=b3 blocks=[3, 4] latches=[4]
    header=b1 blocks=[1, 2, 3, 4, 5] latches=[5]
";

const GOLDEN_ARCLEN_HOISTS: &[&str] = &["FMul { dst: FReg(12), a: FReg(0), b: FReg(0) }"];
