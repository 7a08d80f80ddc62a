//! CLI contract of the `repro` binary: flag validation exits 2 with a
//! diagnostic before any experiment runs.

use std::process::Command;

fn repro_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[track_caller]
fn expect_exit_2(args: &[&str], frag: &str) {
    let out = repro_bin().args(args).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, got {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(frag),
        "{args:?} stderr {stderr:?} !~ {frag}"
    );
    assert!(
        out.stdout.is_empty(),
        "no experiment output may precede a usage error"
    );
}

#[test]
fn zero_jobs_and_workers_exit_2() {
    expect_exit_2(&["--jobs", "0"], "--jobs expects a worker count >= 1");
    expect_exit_2(&["--jobs", "-3"], "--jobs expects");
    expect_exit_2(&["--jobs", "lots"], "--jobs expects");
    expect_exit_2(
        &["--workers", "0"],
        "--workers expects a worker-budget total >= 1",
    );
    expect_exit_2(&["--workers", "x"], "--workers expects");
}

#[test]
fn other_bad_flags_still_exit_2() {
    expect_exit_2(&["--repeat", "0"], "--repeat expects");
    expect_exit_2(&["--exec", "warp-speed"], "--exec expects");
    // The execution-backend axis is gone; the flag is now unknown.
    expect_exit_2(&["--backend", "vm"], "unknown argument");
    expect_exit_2(&["--frobnicate"], "unknown argument");
}
