//! Contract of the native kernel tier (the execution tier above the
//! bytecode VM): selection at lowering time is invisible in every
//! observable — array bits, virtual time, messages, bytes, PRINT — and
//! the engine's `native_counts` trace proves which tier actually ran.
//! Non-matching shapes (masks, unstructured subscripts) and non-binding
//! dispatches (CYCLIC mappings) must fall back to bytecode, counted.

use std::collections::HashMap;

use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions, RunTrace};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, Machine, MachineSpec};

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

/// Run under the VM backend; return gathered images + report metrics +
/// the run trace (for the native counters).
fn run_vm(
    src: &str,
    grid: &[i64],
    arrays: &[&str],
    native: bool,
) -> (Vec<ArrayData>, f64, u64, u64, Vec<String>, RunTrace) {
    let mut opts = CompileOptions::on_grid(grid);
    opts.opt.native_kernels = native;
    let compiled = compile(src, &opts).expect("compiles");
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(grid));
    let (rep, trace) = compiled.run_on_traced(&mut m).expect("runs");
    let prog = compiled.vm_program().expect("lowers");
    let eng = f90d_vm::Engine::new_preserving(prog, &mut m);
    let imgs = arrays
        .iter()
        .map(|a| eng.gather_array(&mut m, a).expect("array exists"))
        .collect();
    (
        imgs,
        rep.elapsed,
        rep.messages,
        rep.bytes,
        rep.printed,
        trace,
    )
}

/// Final images of `arrays` under the sequential reference interpreter.
fn reference_images(src: &str, grid: &[i64], arrays: &[&str]) -> Vec<ArrayData> {
    let compiled = compile(src, &CompileOptions::on_grid(grid)).expect("compiles");
    let reference = run_reference(&compiled.analyzed, &HashMap::new()).expect("reference runs");
    arrays
        .iter()
        .map(|a| reference.arrays[*a].data.clone())
        .collect()
}

/// Jacobi's four FORALL shapes (index-cast fill, constant fill, scaled
/// 4-point stencil, copy) all dispatch native on a BLOCK×BLOCK grid, and
/// both tiers agree bit-for-bit on every observable (and with the
/// sequential reference on every array bit).
#[test]
fn jacobi_dispatches_native_and_tiers_agree() {
    let src = jacobi(16, 3);
    let arrays = ["A", "B"];
    let (nat, nat_t, nat_msg, nat_b, nat_out, nat_tr) = run_vm(&src, &[2, 2], &arrays, true);
    let (vm, vm_t, vm_msg, vm_b, vm_out, vm_tr) = run_vm(&src, &[2, 2], &arrays, false);

    // 2 init FORALLs + 2 per sweep × 3 sweeps, every one on the native
    // tier; with the tier disabled, every one is a bytecode fallback.
    assert_eq!(
        (nat_tr.native_matched, nat_tr.native_fallback),
        (8, 0),
        "all jacobi FORALLs should dispatch native"
    );
    assert_eq!((vm_tr.native_matched, vm_tr.native_fallback), (0, 8));

    assert_eq!(nat, vm, "native vs bytecode array images");
    assert_eq!(
        nat,
        reference_images(&src, &[2, 2], &arrays),
        "native vs reference array images"
    );
    assert_eq!((nat_t, nat_msg, nat_b), (vm_t, vm_msg, vm_b));
    assert_eq!(nat_out, vm_out);
}

/// The reduction-accumulate FORALLs feeding a SUM-into-scalar reduction
/// (`S = S + A` and `S = S + W*B`) dispatch on the fused
/// `reduce_accumulate` template instead of composed generic closures,
/// and both tiers agree on every observable including the reduced PRINT
/// value.
#[test]
fn sum_accumulate_dispatches_native() {
    let src = "
PROGRAM ACCUM
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N), S(N)
REAL W, SS
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN S(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
W = 0.5
FORALL (I=1:N) A(I) = REAL(I)
FORALL (I=1:N) B(I) = REAL(N-I)
FORALL (I=1:N) S(I) = 0.0
DO IT = 1, 3
  FORALL (I=1:N) S(I) = S(I) + A(I)
  FORALL (I=1:N) S(I) = S(I) + W*B(I)
END DO
SS = SUM(S)
PRINT *, 'ACC', SS
END
";
    let arrays = ["S"];
    let (nat, nat_t, nat_msg, nat_b, nat_out, nat_tr) = run_vm(src, &[4], &arrays, true);
    // 3 inits + 3 sweeps x 2 accumulates, all native; no fallbacks.
    assert_eq!(
        (nat_tr.native_matched, nat_tr.native_fallback),
        (9, 0),
        "accumulate FORALLs should all dispatch native"
    );
    let (vm, vm_t, vm_msg, vm_b, vm_out, vm_tr) = run_vm(src, &[4], &arrays, false);
    assert_eq!((vm_tr.native_matched, vm_tr.native_fallback), (0, 9));
    assert_eq!(nat, vm, "native vs bytecode array images");
    assert_eq!(
        nat,
        reference_images(src, &[4], &arrays),
        "native vs reference array images"
    );
    assert_eq!((nat_t, nat_msg, nat_b), (vm_t, vm_msg, vm_b));
    assert_eq!(nat_out, vm_out);
    assert!(nat_out.iter().any(|l| l.contains("ACC")), "PRINT ran");
}

/// A WHERE-masked FORALL never selects a kernel: masks change which
/// iterations execute (and charge mask cost), which the closures do not
/// model. The trace counter proves bytecode ran it.
#[test]
fn masked_forall_falls_back_to_bytecode() {
    let src = "
PROGRAM MASKED
INTEGER, PARAMETER :: N = 16
REAL A(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = REAL(I)
FORALL (I=1:N, A(I) > 8.0) A(I) = 0.0
END
";
    let (_, _, _, _, _, tr) = run_vm(src, &[4], &["A"], true);
    assert_eq!(tr.native_matched, 1, "the unmasked init still matches");
    assert_eq!(tr.native_fallback, 1, "the masked FORALL must fall back");
}

/// Indirect (non-affine) subscripts go through the unstructured gather
/// machinery — never native.
#[test]
fn non_affine_subscript_falls_back_to_bytecode() {
    let src = "
PROGRAM INDIRECT
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
INTEGER U(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN U(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I) * 0.5
FORALL (I=1:N) U(I) = MOD(I*5, N) + 1
FORALL (I=1:N) A(I) = B(U(I))
END
";
    let (nat, .., tr) = run_vm(src, &[4], &["A"], true);
    // B's init matches; U writes an INTEGER array and A reads through
    // a gathered temporary — both must fall back.
    assert_eq!((tr.native_matched, tr.native_fallback), (1, 2));
    let (vm, .., vm_tr) = run_vm(src, &[4], &["A"], false);
    assert_eq!(vm_tr.native_matched, 0);
    assert_eq!(nat, vm);
}

/// CYCLIC mappings select a kernel (the body is affine REAL) but can
/// never bind at dispatch: local indexing needs per-element ownership
/// math (`RDim::General`), so every execution is a counted fallback with
/// bit-identical results.
#[test]
fn cyclic_mapping_falls_back_at_dispatch() {
    let src = "
PROGRAM CYC
INTEGER, PARAMETER :: N = 24
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(CYCLIC)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) A(I) = B(I) * 2.0
END
";
    let (nat, nat_t, nat_msg, nat_b, _, tr) = run_vm(src, &[4], &["A", "B"], true);
    assert_eq!(tr.native_matched, 0, "CYCLIC must never dispatch native");
    assert_eq!(tr.native_fallback, 2);
    let (vm, vm_t, vm_msg, vm_b, ..) = run_vm(src, &[4], &["A", "B"], false);
    assert_eq!(nat, vm);
    assert_eq!(nat, reference_images(src, &[4], &["A", "B"]));
    assert_eq!((nat_t, nat_msg, nat_b), (vm_t, vm_msg, vm_b));
}

/// The overlap split-phase path always runs bytecode (boundary/interior
/// staging), even when the same FORALL dispatches native in blocking
/// mode — and the fallback counter records it.
#[test]
fn overlap_split_phase_counts_as_fallback() {
    let src = jacobi(16, 2);
    let mut opts = CompileOptions::on_grid(&[2, 2]);
    opts.opt.comm_compute_overlap = true;
    let compiled = compile(&src, &opts).expect("compiles");
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[2, 2]));
    let (_, tr) = compiled.run_on_traced(&mut m).expect("runs");
    // The 2 stencil sweeps run split-phase (fallback); the non-stencil
    // FORALLs (2 inits + 2 copies) still dispatch native.
    assert_eq!((tr.native_matched, tr.native_fallback), (4, 2));
}
