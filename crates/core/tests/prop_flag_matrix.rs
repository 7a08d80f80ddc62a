//! Flag cross-product differential property test for the shared comm
//! driver: every combination of `comm_compute_overlap` × `comm_plan` ×
//! `native_kernels` × local-phase execution mode, over random
//! multi-statement shift kernels — all sequenced by `f90d_comm::driver`,
//! all compared against the all-flags-off sequential bytecode run, which
//! is itself checked against the sequential reference interpreter.
//!
//! The driver's contract, flag by flag:
//!
//! * arrays and PRINT output are bit-identical under EVERY combination;
//! * payload bytes never change (coalescing repacks, overlap re-orders —
//!   neither re-sends);
//! * messages only change under `comm_plan` (coalescing, never more);
//! * virtual time only changes under `comm_plan` (strictly fewer
//!   startups) or `comm_compute_overlap` (different charge interleaving
//!   by design);
//! * at equal flags the bytecode and native tiers agree on every metric
//!   bit-for-bit.

use std::collections::HashMap;

use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{budget, ArrayData, ExecMode, Machine, MachineSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Kernel {
    n: i64,
    /// Stencil statements per sweep.
    k: usize,
    /// Two shift constants per statement.
    shifts: [(i64, i64); 2],
    iters: i64,
    grid: Vec<i64>,
    exec: ExecMode,
}

fn offset(c: i64) -> String {
    match c.cmp(&0) {
        std::cmp::Ordering::Equal => String::new(),
        std::cmp::Ordering::Greater => format!("+{c}"),
        std::cmp::Ordering::Less => format!("{c}"),
    }
}

/// `k` independent two-shift stencils plus copy-backs inside a DO sweep —
/// the shape that is simultaneously overlap-eligible (pure ghost-shift
/// preludes), plan-eligible (consecutive exchanges to batch), and
/// native-eligible (affine REAL bodies), so every flag in the matrix has
/// something to act on.
fn program(p: &Kernel) -> String {
    let pad = p
        .shifts
        .iter()
        .take(p.k)
        .flat_map(|&(a, b)| [a.abs(), b.abs()])
        .max()
        .unwrap()
        .max(1);
    let (lo, hi) = (1 + pad, p.n - pad);
    let mut decls = String::new();
    let mut aligns = String::new();
    let mut inits = String::new();
    let mut stencils = String::new();
    let mut copies = String::new();
    for j in 1..=p.k {
        decls.push_str(&format!("REAL A{j}(N), B{j}(N)\n"));
        aligns.push_str(&format!(
            "C$ ALIGN A{j}(I) WITH T(I)\nC$ ALIGN B{j}(I) WITH T(I)\n"
        ));
        inits.push_str(&format!("FORALL (I=1:N) B{j}(I) = REAL({j}+I)*0.25\n"));
        let (s1, s2) = p.shifts[j - 1];
        stencils.push_str(&format!(
            "  FORALL (I={lo}:{hi}) A{j}(I) = 0.5*B{j}(I{o1}) + B{j}(I{o2})\n",
            o1 = offset(s1),
            o2 = offset(s2),
        ));
        copies.push_str(&format!("  FORALL (I={lo}:{hi}) B{j}(I) = A{j}(I)\n"));
    }
    format!(
        "
PROGRAM FLAGMAT
INTEGER, PARAMETER :: N = {n}
{decls}INTEGER IT
C$ TEMPLATE T(N)
{aligns}C$ DISTRIBUTE T(BLOCK)
{inits}DO IT = 1, {iters}
{stencils}{copies}END DO
PRINT *, 'DONE', B1(2)
END
",
        n = p.n,
        iters = p.iters,
    )
}

fn kernels() -> impl Strategy<Value = Kernel> {
    (
        (24i64..48, 1usize..=2, 1i64..=2),
        (-2i64..=2, -2i64..=2),
        (-2i64..=2, -2i64..=2),
        prop_oneof![Just(vec![1]), Just(vec![2]), Just(vec![4])],
        prop_oneof![Just(ExecMode::Sequential), Just(ExecMode::Threaded)],
    )
        .prop_map(|(nki, s1, s2, grid, exec)| {
            let (n, k, iters) = nki;
            Kernel {
                n,
                k,
                shifts: [s1, s2],
                iters,
                grid,
                exec,
            }
        })
}

type Metrics = (u64, u64, u64, Vec<String>, Vec<ArrayData>);

/// One run at a full flag assignment; returns
/// `(virt_bits, messages, bytes, printed, arrays)`.
fn run_cfg(p: &Kernel, overlap: bool, plan: bool, native: bool, exec: ExecMode) -> Metrics {
    budget::global().ensure_total_at_least(8);
    let src = program(p);
    let mut opts = CompileOptions::on_grid(&p.grid).with_exec(exec);
    opts.opt.comm_compute_overlap = overlap;
    opts.opt.comm_plan = plan;
    opts.opt.native_kernels = native;
    let compiled = compile(&src, &opts).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&p.grid));
    let names: Vec<String> = (1..=p.k)
        .flat_map(|j| [format!("A{j}"), format!("B{j}")])
        .collect();
    let mut eng = compiled
        .engine(&mut m)
        .unwrap_or_else(|e| panic!("lowering failed: {e}\n{src}"));
    let rep = eng
        .run(&mut m)
        .unwrap_or_else(|e| panic!("run failed: {e}\n{src}"));
    let arrays = names
        .iter()
        .map(|a| eng.gather_array(&mut m, a).unwrap())
        .collect();
    (
        rep.elapsed.to_bits(),
        rep.messages,
        rep.bytes,
        rep.printed,
        arrays,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_flag_combination_matches_the_reference(p in kernels()) {
        // The all-flags-off sequential bytecode tier is the semantic
        // anchor; its arrays and PRINT output must in turn match the
        // sequential reference interpreter.
        let (tb, msg_b, by_b, pr_b, arr_b) =
            run_cfg(&p, false, false, false, ExecMode::Sequential);
        let src = program(&p);
        let analyzed = compile(&src, &CompileOptions::on_grid(&p.grid)).unwrap().analyzed;
        let reference = run_reference(&analyzed, &HashMap::new()).unwrap();
        prop_assert_eq!(&pr_b, &reference.printed, "anchor PRINT vs reference");
        let names = (1..=p.k).flat_map(|j| [format!("A{j}"), format!("B{j}")]);
        for (name, got) in names.zip(&arr_b) {
            prop_assert_eq!(got, &reference.arrays[&name].data, "anchor {} vs reference", name);
        }
        for overlap in [false, true] {
            for plan in [false, true] {
                // Run the bytecode and native tiers and require that they
                // agree with each other exactly.
                let bc = run_cfg(&p, overlap, plan, false, p.exec);
                let nat = run_cfg(&p, overlap, plan, true, p.exec);
                prop_assert_eq!(&bc, &nat,
                    "native tier must be invisible at overlap={} plan={}", overlap, plan);

                let (to, msg_o, by_o, pr_o, arr_o) = bc;
                prop_assert_eq!(&arr_o, &arr_b,
                    "arrays bit-identical at overlap={} plan={}", overlap, plan);
                prop_assert_eq!(&pr_o, &pr_b,
                    "PRINT invariant at overlap={} plan={}", overlap, plan);
                prop_assert_eq!(by_o, by_b, "no flag may change payload bytes");
                if plan {
                    prop_assert!(msg_o <= msg_b, "the plan must never add messages");
                } else {
                    prop_assert_eq!(msg_o, msg_b,
                        "only comm_plan may change message counts (overlap={})", overlap);
                }
                if !plan && !overlap {
                    prop_assert_eq!(to, tb,
                        "virtual time must be bit-identical with both timing flags off");
                } else if plan && !overlap {
                    prop_assert!(
                        f64::from_bits(to) <= f64::from_bits(tb),
                        "the plan must never increase virtual time"
                    );
                }
                // overlap on: virtual time differs by design (interior
                // compute charges against wire time); the cross-tier
                // equality above is the invariant that matters.
            }
        }
    }

    #[test]
    fn full_flag_runs_are_deterministic(p in kernels()) {
        // Everything on at once, twice, plus the bytecode tier: the
        // driver's sequencing must be a pure function of the program.
        let a = run_cfg(&p, true, true, true, p.exec);
        let b = run_cfg(&p, true, true, true, p.exec);
        prop_assert_eq!(&a, &b, "all-flags-on run must be deterministic");
        let bc = run_cfg(&p, true, true, false, p.exec);
        prop_assert_eq!(&a, &bc, "all-flags-on metrics must agree across tiers");
    }
}
