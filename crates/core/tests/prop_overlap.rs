//! Differential property test for the transport redesign: random shift
//! kernels × grids × both execution tiers × both local-phase execution modes
//! (threaded runs lease pool workers from the process-wide budget and
//! must be bit-identical to sequential ones, including under overlap).
//!
//! * **Blocking wrappers**: executing through the posted-operation API's
//!   post-then-finish wrappers must be deterministic and bit-identical
//!   across tiers — the committed `BENCH_baseline.json` (CI's
//!   `repro --quick --baseline` gate) pins these same metrics against the
//!   pre-redesign blocking transport, so equality here plus the CI gate
//!   is the "≡ pre-redesign baseline" property.
//! * **Overlap mode**: `comm_compute_overlap` must keep arrays, PRINT,
//!   message and byte counts bit-identical, never increase virtual time,
//!   and strictly decrease it on communication-bound multi-rank stencils.

use f90d_core::{compile, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{budget, ArrayData, ExecMode, Machine, MachineSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ShiftKernel {
    n: i64,
    shift1: i64,
    shift2: i64,
    iters: i64,
    grid: Vec<i64>,
    machine: &'static str,
    exec: ExecMode,
}

fn offset(c: i64) -> String {
    match c.cmp(&0) {
        std::cmp::Ordering::Equal => String::new(),
        std::cmp::Ordering::Greater => format!("+{c}"),
        std::cmp::Ordering::Less => format!("{c}"),
    }
}

/// A 1-D stencil whose RHS reads `B(I+s1)` and `B(I+s2)`: with BLOCK
/// distribution the detector emits `overlap_shift` preludes, which is
/// exactly the shape the split-phase path executes.
fn program(p: &ShiftKernel) -> String {
    let pad = p.shift1.abs().max(p.shift2.abs()).max(1);
    let (lo, hi) = (1 + pad, p.n - pad);
    format!(
        "
PROGRAM SHIFTK
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N)
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)*0.5
FORALL (I=1:N) A(I) = 0.0
DO IT = 1, {iters}
  FORALL (I={lo}:{hi}) A(I) = B(I{s1}) + 2.0*B(I{s2}) - B(I)
  FORALL (I={lo}:{hi}) B(I) = A(I)
END DO
END
",
        n = p.n,
        iters = p.iters,
        s1 = offset(p.shift1),
        s2 = offset(p.shift2),
    )
}

fn kernels() -> impl Strategy<Value = ShiftKernel> {
    (
        16i64..48,
        -3i64..=3,
        -3i64..=3,
        1i64..=3,
        prop_oneof![Just(vec![1]), Just(vec![2]), Just(vec![4])],
        prop_oneof![Just("ipsc860"), Just("ncube2")],
        prop_oneof![Just(ExecMode::Sequential), Just(ExecMode::Threaded)],
    )
        .prop_map(
            |(n, shift1, shift2, iters, grid, machine, exec)| ShiftKernel {
                n,
                shift1,
                shift2,
                iters,
                grid,
                machine,
                exec,
            },
        )
}

fn spec_of(name: &str) -> MachineSpec {
    match name {
        "ipsc860" => MachineSpec::ipsc860(),
        _ => MachineSpec::ncube2(),
    }
}

type Metrics = (u64, u64, u64, Vec<String>, Vec<ArrayData>);

/// `(virt_bits, messages, bytes, printed, arrays)` of one run on one
/// execution tier (`native`: kernels on; off is the bytecode loop) under
/// an explicit execution mode, wired through
/// `CompileOptions::exec_mode`.
fn run_exec(p: &ShiftKernel, native: bool, overlap: bool, exec: ExecMode) -> Metrics {
    budget::global().ensure_total_at_least(8);
    let src = program(p);
    let mut opts = CompileOptions::on_grid(&p.grid).with_exec(exec);
    opts.opt.native_kernels = native;
    opts.opt.comm_compute_overlap = overlap;
    let compiled = compile(&src, &opts).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let mut m = Machine::new(spec_of(p.machine), ProcGrid::new(&p.grid));
    let mut eng = compiled
        .engine(&mut m)
        .unwrap_or_else(|e| panic!("lowering failed: {e}\n{src}"));
    let rep = eng
        .run(&mut m)
        .unwrap_or_else(|e| panic!("run failed: {e}\n{src}"));
    let arrays = ["A", "B"]
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

/// [`run_exec`] under the kernel's sampled mode.
fn run(p: &ShiftKernel, native: bool, overlap: bool) -> Metrics {
    run_exec(p, native, overlap, p.exec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocking_wrappers_deterministic_and_tier_identical(p in kernels()) {
        let nat = run(&p, true, false);
        let nat2 = run(&p, true, false);
        prop_assert_eq!(&nat, &nat2, "blocking wrappers must be deterministic");
        // The bytecode tier is the oracle for the native tier's metrics.
        let bc = run(&p, false, false);
        prop_assert_eq!(&nat, &bc, "blocking metrics must agree across tiers");
        // Execution mode must be invisible in every metric: anchor the
        // sampled mode against an explicitly sequential run.
        let seq = run_exec(&p, true, false, ExecMode::Sequential);
        prop_assert_eq!(&nat, &seq, "threaded must be bit-identical to sequential");
    }

    #[test]
    fn overlap_preserves_results_and_never_slows(p in kernels()) {
        // Sequential blocking anchor: the overlap runs below execute in
        // the sampled mode, so this also differentially tests
        // threaded × overlap × schedule-cache against sequential.
        let (tb, msg_b, by_b, pr_b, arr_b) = run_exec(&p, true, false, ExecMode::Sequential);
        for native in [true, false] {
            let (to, msg_o, by_o, pr_o, arr_o) = run(&p, native, true);
            prop_assert_eq!(msg_o, msg_b, "messages invariant under overlap");
            prop_assert_eq!(by_o, by_b, "bytes invariant under overlap");
            prop_assert_eq!(&pr_o, &pr_b, "PRINT invariant under overlap");
            prop_assert_eq!(&arr_o, &arr_b, "arrays bit-identical under overlap");
            prop_assert!(
                f64::from_bits(to) <= f64::from_bits(tb),
                "overlap must never increase virtual time ({} vs {})",
                f64::from_bits(to), f64::from_bits(tb)
            );
            // Communication-bound cells (real wire traffic and nonzero
            // shifts) must get strictly faster.
            let shifted = p.shift1 != 0 || p.shift2 != 0;
            if shifted && msg_b > 0 {
                prop_assert!(
                    f64::from_bits(to) < f64::from_bits(tb),
                    "communication-bound stencil must strictly improve\n{}",
                    program(&p)
                );
            }
        }
    }
}
