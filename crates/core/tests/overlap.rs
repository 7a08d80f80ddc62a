//! Communication–computation overlap (`OptFlags::comm_compute_overlap`):
//! split-phase stencil execution must strictly lower modelled virtual
//! time on communication-bound Jacobi cells while keeping array results
//! and PRINT output bit-identical — on both machine models and both
//! execution tiers. Also covers the redesigned transport's end-of-run
//! quiescence check surfacing as `ExecError`.

use std::collections::HashMap;

use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, Machine, MachineSpec, Transport};

// Local copies of the benchmark workloads (`f90d-bench` sits above this
// crate in the dependency graph, so the sources are inlined here).
mod workloads {
    pub fn jacobi(n: i64, iters: i64) -> String {
        format!(
            "
PROGRAM JACOBI
INTEGER, PARAMETER :: N = {n}
REAL A(N, N), B(N, N)
INTEGER IT
C$ TEMPLATE T(N, N)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ DISTRIBUTE T(BLOCK, BLOCK)
FORALL (I=1:N, J=1:N) B(I,J) = REAL(I+J)
FORALL (I=1:N, J=1:N) A(I,J) = 0.0
DO IT = 1, {iters}
  FORALL (I=2:N-1, J=2:N-1)&
&   A(I,J) = 0.25*(B(I-1,J)+B(I+1,J)+B(I,J-1)+B(I,J+1))
  FORALL (I=2:N-1, J=2:N-1) B(I,J) = A(I,J)
END DO
END
"
        )
    }

    pub fn gaussian(n: i64) -> String {
        format!(
            "
PROGRAM GAUSS
INTEGER, PARAMETER :: N = {n}
REAL A(N, N)
INTEGER K
C$ DISTRIBUTE A(*, BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = 1.0/REAL(I+J-1)
FORALL (I=1:N) A(I,I) = A(I,I) + 2.0
DO K = 1, N-1
  FORALL (I=K+1:N, J=K+1:N) A(I,J) = A(I,J) - A(I,K)/A(K,K)*A(K,J)
END DO
END
"
        )
    }

    pub fn irregular(n: i64) -> String {
        format!(
            "
PROGRAM IRREG
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N), C(N)
INTEGER U(N), V(N)
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) C(I) = REAL(N - I)
FORALL (I=1:N) U(I) = MOD(I*7, N) + 1
FORALL (I=1:N) V(I) = MOD(I*11, N) + 1
DO IT = 1, 4
  FORALL (I=1:N) A(U(I)) = B(V(I)) + C(I)
END DO
END
"
        )
    }
}

/// Run `src` on one execution tier (`native`: kernels on; off is the
/// bytecode element loop) and return `(elapsed, messages, bytes,
/// printed, arrays)`.
fn run(
    src: &str,
    grid: &[i64],
    spec: &MachineSpec,
    native: bool,
    overlap: bool,
    arrays: &[&str],
) -> (f64, u64, u64, Vec<String>, Vec<ArrayData>) {
    let mut opts = CompileOptions::on_grid(grid);
    opts.opt.native_kernels = native;
    opts.opt.comm_compute_overlap = overlap;
    let compiled = compile(src, &opts).expect("compiles");
    let mut m = Machine::new(spec.clone(), ProcGrid::new(grid));
    let mut eng = compiled.engine(&mut m).expect("lowers");
    let rep = eng.run(&mut m).expect("runs");
    let data = arrays
        .iter()
        .map(|a| eng.gather_array(&mut m, a).unwrap())
        .collect();
    (rep.elapsed, rep.messages, rep.bytes, rep.printed, data)
}

#[test]
fn overlap_lowers_virtual_time_bit_identical_results() {
    let src = workloads::jacobi(48, 3);
    for spec in [MachineSpec::ipsc860(), MachineSpec::ncube2()] {
        for native in [true, false] {
            let (t_block, msg_b, by_b, print_b, arr_b) =
                run(&src, &[2, 2], &spec, native, false, &["A", "B"]);
            let (t_over, msg_o, by_o, print_o, arr_o) =
                run(&src, &[2, 2], &spec, native, true, &["A", "B"]);
            assert!(
                t_over < t_block,
                "{} (native {native}): overlap {t_over} must beat blocking {t_block}",
                spec.name
            );
            assert_eq!(msg_o, msg_b, "same messages either way");
            assert_eq!(by_o, by_b, "same bytes either way");
            assert_eq!(print_o, print_b, "same PRINT either way");
            assert_eq!(arr_o, arr_b, "arrays must be bit-identical");
        }
    }
}

#[test]
fn overlap_tiers_agree_bit_exactly() {
    // Virtual metrics: the bytecode tier is the oracle for the native
    // tier. Arrays and PRINT: the sequential reference interpreter.
    let src = workloads::jacobi(32, 2);
    let analyzed = compile(&src, &CompileOptions::on_grid(&[2, 2]))
        .unwrap()
        .analyzed;
    let reference = run_reference(&analyzed, &HashMap::new()).unwrap();
    for spec in [MachineSpec::ipsc860(), MachineSpec::ncube2()] {
        let (t_bc, msg_bc, by_bc, print_bc, arr_bc) =
            run(&src, &[2, 2], &spec, false, true, &["A", "B"]);
        let (t_nat, msg_nat, by_nat, print_nat, arr_nat) =
            run(&src, &[2, 2], &spec, true, true, &["A", "B"]);
        assert_eq!(
            t_bc.to_bits(),
            t_nat.to_bits(),
            "{}: overlap virtual time must agree across tiers",
            spec.name
        );
        assert_eq!((msg_bc, by_bc), (msg_nat, by_nat));
        assert_eq!(print_bc, print_nat);
        assert_eq!(print_nat, reference.printed);
        assert_eq!(arr_bc, arr_nat);
        for (name, got) in ["A", "B"].iter().zip(&arr_nat) {
            assert_eq!(got, &reference.arrays[*name].data, "{}: {name}", spec.name);
        }
    }
}

#[test]
fn overlap_flag_is_inert_for_non_stencil_programs() {
    // Gaussian elimination (multicast preludes) and the irregular kernel
    // (gather/scatter schedules) have no overlap-eligible FORALL: the
    // flag must change nothing, bit for bit.
    for src in [workloads::gaussian(24), workloads::irregular(64)] {
        for native in [true, false] {
            let spec = MachineSpec::ipsc860();
            let (t0, m0, b0, p0, a0) = run(&src, &[4], &spec, native, false, &[]);
            let (t1, m1, b1, p1, a1) = run(&src, &[4], &spec, native, true, &[]);
            assert_eq!(t0.to_bits(), t1.to_bits(), "native {native}: virtual time");
            assert_eq!((m0, b0, p0, a0), (m1, b1, p1, a1));
        }
    }
}

#[test]
fn overlap_single_rank_matches_blocking() {
    // On one rank every ghost move is a local copy performed at post
    // time; overlap mode must still produce identical arrays and not
    // increase time.
    let src = workloads::jacobi(24, 2);
    let spec = MachineSpec::ipsc860();
    let (t_b, _, _, _, arr_b) = run(&src, &[1, 1], &spec, true, false, &["A", "B"]);
    let (t_o, _, _, _, arr_o) = run(&src, &[1, 1], &spec, true, true, &["A", "B"]);
    assert_eq!(arr_b, arr_o);
    assert!(t_o <= t_b);
}

#[test]
fn leaked_message_surfaces_as_exec_error() {
    // The end-of-run quiescence check: a message posted outside the
    // compiled program (never received) must fail the run with a
    // structured error, not be silently dropped.
    let src = workloads::jacobi(12, 1);
    let compiled = compile(&src, &CompileOptions::on_grid(&[2, 2])).unwrap();
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[2, 2]));
    m.transport
        .post_send(0, 1, 999_999, ArrayData::Real(vec![1.0]));
    let mut eng = compiled.engine(&mut m).unwrap();
    let err = eng.run(&mut m).unwrap_err();
    assert!(
        err.0.contains("not quiescent"),
        "expected quiescence failure, got: {err}"
    );
}
