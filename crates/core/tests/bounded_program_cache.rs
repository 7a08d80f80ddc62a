//! The process-wide bytecode program cache is bounded: a long-running
//! daemon that compiles novel programs (each lowering holds about 20 KB)
//! must not grow it without limit. More distinct programs than the cap
//! pass through `vm_cache()`; its size never exceeds the cap, and every
//! run — including reruns of programs whose lowering was evicted —
//! prints what the sequential reference interpreter prints.
//!
//! A test binary of its own: the size assertions read the global cache.

use std::collections::HashMap;

use f90d_core::reference::run_reference;
use f90d_core::{compile, vm_cache, CompileOptions, PROGRAM_CACHE_CAP};
use f90d_distrib::ProcGrid;
use f90d_machine::{Machine, MachineSpec};

/// A small distributed program, distinct (and printing a distinct sum)
/// for every `k`.
fn program(k: usize) -> String {
    format!(
        "
PROGRAM SCALED
INTEGER, PARAMETER :: N = 8
REAL A(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = REAL(I) * {k}.0
PRINT *, SUM(A)
END
"
    )
}

/// Compile, run on a two-node machine, and check the PRINT output
/// against the reference interpreter.
fn run_and_check(k: usize) {
    let compiled = compile(&program(k), &CompileOptions::on_grid(&[2])).unwrap();
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[2]));
    let report = compiled.run_on(&mut m).unwrap();
    let reference = run_reference(&compiled.analyzed, &HashMap::new()).unwrap();
    assert_eq!(report.printed, reference.printed, "program {k}");
}

#[test]
fn novel_programs_never_grow_the_cache_past_its_cap() {
    let cache = vm_cache();
    assert_eq!(cache.capacity(), PROGRAM_CACHE_CAP);
    let total = PROGRAM_CACHE_CAP + PROGRAM_CACHE_CAP / 4;
    for k in 0..total {
        run_and_check(k);
    }
    assert!(
        cache.misses() >= total as u64,
        "every novel program was lowered"
    );
    assert!(
        cache.len() <= PROGRAM_CACHE_CAP,
        "{} cached programs exceed the cap {PROGRAM_CACHE_CAP}",
        cache.len()
    );
    // The earliest programs were evicted: rerunning them lowers again and
    // still runs correctly.
    let before = cache.misses();
    for k in 0..64 {
        run_and_check(k);
    }
    assert!(cache.misses() > before, "no early program was evicted");
    assert!(cache.len() <= PROGRAM_CACHE_CAP);
}
