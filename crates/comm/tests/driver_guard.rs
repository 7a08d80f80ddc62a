//! Guard: the FORALL communication lifecycle is sequenced in exactly one
//! place — `f90d_comm::driver`. When two executors each sequenced their
//! own, the rank-1 multicast slab-temp bug had to be fixed twice. This
//! test fails the build if the execution engine grows a direct reference
//! to the batching planner, the raw overlap move builder, or the raw
//! transport post call, so orchestration cannot quietly fork again.

use std::fs;
use std::path::Path;

/// Raw-orchestration identifiers the engine must not mention. Doc
/// comments count too: a comment pointing readers at the raw layer is
/// the first step toward someone calling it.
const FORBIDDEN: &[&str] = &["PhaseExchange", "overlap_shift_moves", "post_send"];

fn check(rel: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("guard test cannot read {}: {e}", path.display()));
    for needle in FORBIDDEN {
        for (lineno, line) in src.lines().enumerate() {
            assert!(
                !line.contains(needle),
                "{rel}:{} references `{needle}` directly; FORALL comm \
                 orchestration must go through f90d_comm::driver\n  {}",
                lineno + 1,
                line.trim()
            );
        }
    }
}

#[test]
fn engine_uses_driver_only() {
    check("../vm/src/engine.rs");
}
