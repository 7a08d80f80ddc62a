//! End-to-end concurrency: many workers compiling and running the same
//! and different programs through the process-wide VM program cache must
//! produce bit-identical reports, share one lowering per key, and keep
//! the counters exact.
//!
//! Everything lives in ONE test function: the assertions are deltas on
//! the global `vm_cache()` counters, so no other cache user may run
//! concurrently inside this test binary.

use std::sync::Barrier;

use f90d_core::{compile, vm_cache, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{Machine, MachineSpec};

fn jacobi(n: i64) -> String {
    format!(
        "
PROGRAM JAC
INTEGER, PARAMETER :: N = {n}
REAL A(N, N), B(N, N)
C$ TEMPLATE T(N, N)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ DISTRIBUTE T(BLOCK, BLOCK)
FORALL (I=1:N, J=1:N) B(I,J) = REAL(I+J)
FORALL (I=2:N-1, J=2:N-1)&
&   A(I,J) = 0.25*(B(I-1,J)+B(I+1,J)+B(I,J-1)+B(I,J+1))
END
"
    )
}

#[test]
fn concurrent_compiled_runs_share_one_lowering() {
    const THREADS: usize = 8;
    let opts = CompileOptions::on_grid(&[2, 2]);

    // Phase 1 — same program from every worker: one lowering, identical
    // bit-exact reports, per-job machines untouched by each other.
    let src = jacobi(10); // even: disjoint from phase 2's odd size list
    let (h0, m0) = (vm_cache().hits(), vm_cache().misses());
    let barrier = Barrier::new(THREADS);
    let reports: Vec<(f64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (src, opts, barrier) = (&src, &opts, &barrier);
                s.spawn(move || {
                    let compiled = compile(src, opts).unwrap();
                    barrier.wait(); // race the cold cache key
                    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[2, 2]));
                    let (rep, _) = compiled.run_on_traced(&mut m).unwrap();
                    (rep.elapsed, rep.messages, rep.bytes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &reports[1..] {
        assert_eq!(
            r.0.to_bits(),
            reports[0].0.to_bits(),
            "virtual time drifted"
        );
        assert_eq!((r.1, r.2), (reports[0].1, reports[0].2), "traffic drifted");
    }
    assert_eq!(
        vm_cache().misses() - m0,
        1,
        "same key must lower exactly once"
    );
    assert_eq!(vm_cache().hits() - h0, THREADS as u64 - 1);

    // Phase 2 — different programs concurrently: one lowering each, and
    // every concurrent result matches its own serial rerun bit-exactly.
    let sizes: Vec<i64> = (0..THREADS as i64).map(|t| 9 + 2 * t).collect();
    let (h1, m1) = (vm_cache().hits(), vm_cache().misses());
    let barrier = Barrier::new(THREADS);
    let concurrent: Vec<(f64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = sizes
            .iter()
            .map(|&n| {
                let (opts, barrier) = (&opts, &barrier);
                s.spawn(move || {
                    let compiled = compile(&jacobi(n), opts).unwrap();
                    barrier.wait();
                    let mut m = Machine::new(MachineSpec::ncube2(), ProcGrid::new(&[2, 2]));
                    let (rep, _) = compiled.run_on_traced(&mut m).unwrap();
                    (rep.elapsed, rep.messages, rep.bytes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(vm_cache().misses() - m1, THREADS as u64);
    assert_eq!(vm_cache().hits() - h1, 0);
    for (&n, conc) in sizes.iter().zip(&concurrent) {
        let compiled = compile(&jacobi(n), &opts).unwrap();
        let mut m = Machine::new(MachineSpec::ncube2(), ProcGrid::new(&[2, 2]));
        let (rep, trace) = compiled.run_on_traced(&mut m).unwrap();
        assert!(trace.program_cache_hit, "serial rerun must hit the cache");
        assert_eq!(rep.elapsed.to_bits(), conc.0.to_bits(), "n={n}");
        assert_eq!((rep.messages, rep.bytes), (conc.1, conc.2), "n={n}");
    }
}
