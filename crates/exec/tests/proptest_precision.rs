//! Property tests for the precision-simulation substrate: the soft-float
//! rounding functions must behave like IEEE 754 conversions, the tape
//! must be a faithful LIFO, and — on randomly generated *branching*
//! kernels (bounded loops + float compares) — the shadow pass's primal
//! stream must agree bit-for-bit with the plain VM (return value and
//! every statistic), with zero divergences whenever no demotion is
//! applied.

use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::precision::{demotion_error, round_to, ulp};
use chef_exec::prelude::*;
use chef_exec::shadow::run_shadow;
use chef_exec::tape::Tape;
use chef_ir::types::FloatTy;
use proptest::prelude::*;
use std::fmt::Write as _;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rounding_is_idempotent(x in -1e30f64..1e30, ty in any_float_ty()) {
        let once = round_to(x, ty);
        prop_assert_eq!(round_to(once, ty), once);
    }

    #[test]
    fn rounding_is_monotone(a in -1e6f64..1e6, b in -1e6f64..1e6, ty in any_float_ty()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(round_to(lo, ty) <= round_to(hi, ty));
    }

    #[test]
    fn rounding_error_is_bounded_by_epsilon(x in 1e-3f64..1e3, ty in any_float_ty()) {
        // Relative error ≤ machine epsilon in the normal range.
        let err = demotion_error(x, ty).abs();
        prop_assert!(
            err <= ty.epsilon() * x.abs() * (1.0 + 1e-12),
            "x={x} ty={ty} err={err}"
        );
    }

    #[test]
    fn rounding_is_odd(x in -1e6f64..1e6, ty in any_float_ty()) {
        // round(-x) == -round(x) for round-to-nearest-even.
        prop_assert_eq!(round_to(-x, ty), -round_to(x, ty));
    }

    #[test]
    fn f16_matches_f32_double_rounding_path(x in -60000f64..60000.0) {
        // f64 -> f16 via our table must agree with f64 -> f32 -> f16
        // (f32 is wide enough that the two-step conversion cannot
        // double-round for values in the f16 range).
        let direct = round_to(x, FloatTy::F16);
        let two_step = round_to(x as f32 as f64, FloatTy::F16);
        prop_assert_eq!(direct, two_step);
    }

    #[test]
    fn wider_formats_are_at_least_as_accurate(x in -1e4f64..1e4) {
        let e16 = demotion_error(x, FloatTy::F16).abs();
        let e32 = demotion_error(x, FloatTy::F32).abs();
        let e64 = demotion_error(x, FloatTy::F64).abs();
        prop_assert!(e64 == 0.0);
        prop_assert!(e32 <= e16 * (1.0 + 1e-12));
    }

    #[test]
    fn rounded_value_is_within_half_ulp(x in 0.5f64..1e4, ty in any_float_ty()) {
        let r = round_to(x, ty);
        if r.is_finite() {
            prop_assert!(
                (x - r).abs() <= ulp(x, ty) * 0.5 * (1.0 + 1e-12),
                "x={x} ty={ty} r={r}"
            );
        }
    }

    #[test]
    fn tape_is_lifo(values in prop::collection::vec(-1e9f64..1e9, 1..64)) {
        let mut t = Tape::new();
        for &v in &values {
            t.push_f(v).unwrap();
        }
        let mut popped = Vec::new();
        while let Ok(v) = t.pop_f() {
            popped.push(v);
        }
        let mut expect = values.clone();
        expect.reverse();
        prop_assert_eq!(popped, expect);
    }

    #[test]
    fn tape_peak_equals_max_live(values in prop::collection::vec(0usize..8, 1..100)) {
        // Interpret the sequence as push (v>0 repeated v times) / pop (0).
        let mut t = Tape::new();
        let mut live = 0usize;
        let mut max_live = 0usize;
        for v in values {
            if v == 0 {
                if live > 0 {
                    t.pop_f().unwrap();
                    live -= 1;
                }
            } else {
                for _ in 0..v {
                    t.push_f(1.0).unwrap();
                    live += 1;
                }
            }
            max_live = max_live.max(live);
        }
        prop_assert_eq!(t.peak_entries(), max_live);
    }
}

fn any_float_ty() -> impl Strategy<Value = FloatTy> {
    prop_oneof![
        Just(FloatTy::F16),
        Just(FloatTy::BF16),
        Just(FloatTy::F32),
        Just(FloatTy::F64)
    ]
}

// ------------------------------------------------------- branching kernels

/// Deterministic split-mix generator for kernel synthesis (the same
/// recipe as `chef-shadow`'s proptests).
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

/// A bounded branching kernel over two inputs: a split accumulation
/// (`part` then `acc`), a float-threshold branch comparing the two
/// differently-associated sums (a near-tie, so demotions flip it on a
/// healthy fraction of seeds), and an optional piecewise tail.
fn branching_kernel(g: &mut Gen) -> String {
    let mut src = String::from("double f(double x0, double x1) {\n");
    let step = format!("x{} * {:.17}", g.below(2), 0.03 + g.unit() * 0.05);
    let iters = 8 + g.below(40);
    let _ = writeln!(src, "    double part = 0.0;");
    let _ = writeln!(
        src,
        "    for (int i = 0; i < {iters}; i++) {{ part = part + {step}; }}"
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
            "    while (acc < part * 1.99) {{ acc = acc + {step}; }}"
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
    if g.below(2) == 0 {
        let _ = writeln!(src, "    double w = 0.0;");
        let _ = writeln!(
            src,
            "    if (acc * 0.5 <= chk * {:.17}) {{ w = r + {:.17}; }} else {{ w = r * {:.17}; }}",
            0.5 * (1.0 + (g.unit() - 0.5) * 2e-7),
            g.lit(),
            g.lit()
        );
        let _ = writeln!(src, "    return w;\n}}");
    } else {
        let _ = writeln!(src, "    return r;\n}}");
    }
    src
}

fn compiled(src: &str, demote_all_to: Option<FloatTy>) -> chef_exec::bytecode::CompiledFunction {
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
    compile(
        func,
        &CompileOptions {
            precisions: pm,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{e:?}\n{src}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn branching_kernels_shadow_primal_matches_the_vm(seed in 0u64..(1u64 << 60)) {
        let mut g = Gen(seed | 1);
        let src = branching_kernel(&mut g);
        let demote = if g.below(2) == 0 { Some(FloatTy::F32) } else { None };
        let func = compiled(&src, demote);
        let args = vec![ArgValue::F(g.lit()), ArgValue::F(g.lit())];
        // Explicit budget: a miscompiled loop fails as a typed trap
        // instead of hanging the suite.
        let opts = ExecOptions {
            max_instrs: Some(10_000_000),
            ..Default::default()
        };
        // The shadow and plain lanes of the one dispatch loop share the
        // primal statements, and shadow statements never write primal
        // state: identical results and identical dispatch counts.
        let a = run_with(&func, args.clone(), &opts).unwrap_or_else(|t| panic!("{t}\n{src}"));
        let sa = run_shadow::<f64>(&func, args, &opts)
            .unwrap_or_else(|t| panic!("{t}\n{src}"));
        prop_assert_eq!(a.ret_f().to_bits(), sa.ret_f().to_bits(), "{}", src);
        prop_assert_eq!(a.stats, sa.stats, "{}", src);
        // And without demotion the f64 shadow can never diverge.
        if demote.is_none() {
            prop_assert_eq!(sa.divergence_count, 0, "{}", src);
            prop_assert!(sa.divergence.is_empty(), "{src}");
        }
    }
}
