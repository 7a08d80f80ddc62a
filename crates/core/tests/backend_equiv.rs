//! The execution tiers must be indistinguishable: on every workload
//! shape the paper's evaluation uses (Jacobi, Gaussian elimination, FFT
//! butterfly, irregular), in both local-phase execution modes, the
//! native tier matches the sequential reference interpreter on array
//! contents and PRINT output, and the bytecode tier on virtual time and
//! message/byte counts.

use std::collections::HashMap;

use f90d_core::reference::run_reference;
use f90d_core::{compile, vm_cache, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, ExecMode, Machine, MachineSpec};

fn gaussian(n: i64) -> String {
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

fn jacobi(n: i64, iters: i64) -> String {
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

fn fft_butterfly(nx: i64, incrm: i64) -> String {
    let size = 2 * nx * incrm;
    format!(
        "
PROGRAM FFTB
INTEGER, PARAMETER :: NX = {nx}, INCRM = {incrm}, M = {size}
REAL X(M), TERM2(M)
C$ TEMPLATE T(M)
C$ ALIGN X(I) WITH T(I)
C$ ALIGN TERM2(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:M) X(I) = REAL(I) * 0.5
FORALL (I=1:M) TERM2(I) = REAL(M - I)
FORALL (I=1:INCRM, J=1:NX/2)&
& X(I+J*INCRM*2-INCRM) = X(I+J*INCRM*2) - TERM2(I+J*INCRM*2-INCRM)
END
"
    )
}

fn irregular(n: i64) -> String {
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

/// Run `src` on one execution tier; return per-array host images plus
/// the execution report data.
fn run_tier(
    src: &str,
    grid: &[i64],
    arrays: &[&str],
    native: bool,
    mode: ExecMode,
) -> (Vec<ArrayData>, f64, u64, u64, Vec<String>) {
    // Threaded runs must get a real pool even on single-core CI hosts,
    // where the default worker budget would degrade them to sequential.
    f90d_machine::budget::global().ensure_total_at_least(8);
    let mut opts = CompileOptions::on_grid(grid);
    opts.opt.native_kernels = native;
    let compiled = compile(src, &opts).expect("compiles");
    let mut m = Machine::with_mode(MachineSpec::ipsc860(), ProcGrid::new(grid), mode);
    let mut eng = compiled.engine(&mut m).expect("lowers");
    let report = eng.run(&mut m).expect("runs");
    let imgs = arrays
        .iter()
        .map(|a| eng.gather_array(&mut m, a).expect("array exists"))
        .collect();
    (
        imgs,
        report.elapsed,
        report.messages,
        report.bytes,
        report.printed,
    )
}

/// The native tier, in both local-phase modes, against two oracles:
/// the sequential reference interpreter for arrays and PRINT output, and
/// the sequential bytecode tier (native kernels off) for virtual time,
/// messages and bytes.
fn assert_tiers_agree(name: &str, src: &str, grid: &[i64], arrays: &[&str]) {
    let analyzed = compile(src, &CompileOptions::on_grid(grid))
        .expect("compiles")
        .analyzed;
    let reference = run_reference(&analyzed, &HashMap::new()).expect("reference runs");
    let (bc, bc_t, bc_msg, bc_bytes, bc_out) =
        run_tier(src, grid, arrays, false, ExecMode::Sequential);
    for mode in [ExecMode::Sequential, ExecMode::Threaded] {
        let (nat, nat_t, nat_msg, nat_bytes, nat_out) = run_tier(src, grid, arrays, true, mode);
        for (k, (a, b)) in nat.iter().zip(&bc).enumerate() {
            assert_eq!(
                a, b,
                "{name} ({mode:?}): array {} differs between tiers",
                arrays[k]
            );
            assert_eq!(
                a, &reference.arrays[arrays[k]].data,
                "{name} ({mode:?}): array {} differs from the reference",
                arrays[k]
            );
        }
        assert_eq!(bc_t, nat_t, "{name} ({mode:?}): virtual time differs");
        assert_eq!(bc_msg, nat_msg, "{name} ({mode:?}): message count differs");
        assert_eq!(bc_bytes, nat_bytes, "{name} ({mode:?}): byte count differs");
        assert_eq!(
            bc_out, nat_out,
            "{name} ({mode:?}): PRINT differs between tiers"
        );
        assert_eq!(
            nat_out, reference.printed,
            "{name} ({mode:?}): PRINT differs from the reference"
        );
    }
}

#[test]
fn jacobi_matches_on_four_nodes() {
    assert_tiers_agree("jacobi", &jacobi(16, 3), &[2, 2], &["A", "B"]);
}

#[test]
fn jacobi_matches_on_one_node() {
    assert_tiers_agree("jacobi-1", &jacobi(12, 2), &[1, 1], &["A", "B"]);
}

#[test]
fn gaussian_matches_across_grids() {
    for p in [1i64, 2, 4] {
        assert_tiers_agree("gaussian", &gaussian(16), &[p], &["A"]);
    }
}

#[test]
fn fft_butterfly_matches() {
    assert_tiers_agree("fft", &fft_butterfly(8, 2), &[4], &["X", "TERM2"]);
}

#[test]
fn irregular_matches() {
    assert_tiers_agree(
        "irregular",
        &irregular(16),
        &[4],
        &["A", "B", "C", "U", "V"],
    );
}

#[test]
fn print_and_reduction_match() {
    let src = "
PROGRAM SUMS
INTEGER, PARAMETER :: N = 24
REAL A(N), S
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = REAL(I)
S = SUM(A)
PRINT *, 'sum:', S
END
";
    assert_tiers_agree("sums", src, &[4], &["A"]);
}

#[test]
fn vm_program_is_cached_across_runs() {
    let src = jacobi(8, 1);
    let compiled = compile(&src, &CompileOptions::on_grid(&[2, 2])).unwrap();
    let p1 = compiled.vm_program().unwrap();
    let misses = vm_cache().misses();
    let p2 = compiled.vm_program().unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&p1, &p2),
        "cache must return the same program"
    );
    assert_eq!(
        vm_cache().misses(),
        misses,
        "second lookup must not re-lower"
    );
    // A different grid is a different program.
    let other = compile(&src, &CompileOptions::on_grid(&[1, 1])).unwrap();
    let p3 = other.vm_program().unwrap();
    assert!(!std::sync::Arc::ptr_eq(&p1, &p3));
}
