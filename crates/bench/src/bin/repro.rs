//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--exp all|t1|t2|t3|fig5|table4|fig6|port|vmcmp|overlap|commplan|scaling|abl-shift|abl-sched|abl-fuse|abl-overlap|matrix]
//!       [--n <matrix size>] [--quick]
//!       [--jobs N] [--exec sequential|threaded] [--workers N]
//!       [--out results.json] [--baseline results.json] [--wall-tol F]
//!       [--repeat N] [--no-sched-cache] [--native|--no-native] [--gate F]
//! ```
//!
//! `--quick` shrinks the Gaussian-elimination size (255 instead of 1023)
//! so the whole suite finishes in about a minute; the shapes are
//! unchanged.
//!
//! The executing experiments (fig5 / table4 / fig6 / port) print their
//! host wall-clock beside the modelled output. `--exp vmcmp` prints the
//! two execution tiers head-to-head — the bytecode VM and the native
//! kernel tier — with their modelled times checked bit-for-bit. It
//! accepts only `--quick`, `--out vmcmp.json` (an `f90d-vmcmp/v3` document, schema in
//! the README) and `--gate <factor>`, which exits 1 unless the native
//! tier beats the bytecode VM by at least that wall-clock factor on some
//! comm-light workload (jacobi / gauss — irregular is gather-bound and
//! only reported). Virtual-time drift between tiers always exits 1.
//!
//! `--no-native` turns the native kernel tier off for the matrix
//! (`OptFlags::native_kernels = false`: every FORALL runs the bytecode
//! element loop); `--native` restores the default. Virtual metrics are
//! bit-identical either way — the flag exists to measure the tier and to
//! bisect host-side misbehaviour, and per-cell `native_kernels`
//! matched/fallback counts land in `results.json` (informational, never
//! gated).
//!
//! `--exp matrix` (implied by `--jobs`) runs the full §8 experiment
//! matrix on a work-stealing worker pool (`f90d_bench::harness`).
//! Stdout carries only the deterministic virtual metrics in canonical
//! cell order — byte-identical for any `--jobs` value — while wall-clock
//! and cache commentary goes to stderr. `--out` writes the structured
//! `results.json`; `--baseline` diffs against a previous one and exits
//! nonzero on any virtual-metric drift (wall clock is reported, and only
//! gated when `--wall-tol <factor>` is given).
//!
//! `--exp overlap` reproduces the §5.1/§7 communication–computation
//! overlap claim on Jacobi: for both machine models it
//! compares temporary-shift, blocking ghost-exchange, and split-phase
//! (`comm_compute_overlap`) execution, verifies array results and PRINT
//! are bit-identical across all three, and **exits 1** if overlap does
//! not strictly lower the modelled time — CI runs it as a smoke gate.
//! `--out overlap.json` writes the rows as an `f90d-overlap/v2` document
//! (schema in the README).
//!
//! `--exp commplan` reproduces the phase-level communication planning
//! claim (`OptFlags::comm_plan`, PARTI-style message coalescing): for
//! both machine models it runs the multi-array stencil
//! and the multigrid V-cycle with per-statement vs phase-batched ghost
//! exchanges, verifies arrays/PRINT/bytes are bit-identical, and **exits
//! 1** unless the planner never loses and strictly wins (fewer messages,
//! lower modelled time) on the multi-array stencil. `--gate <factor>`
//! additionally requires that multi-stencil speedup on every machine;
//! `--out commplan.json` writes an `f90d-commplan/v2` document
//! (schema in the README).
//!
//! `--exp scaling` runs the thousand-rank weak-scaling sweep
//! (`f90d_bench::scaling`): jacobi and gaussian at P ∈ {16 … 4096} on
//! hypercube vs torus vs fat tree, each cell with the per-link
//! contention model off and on. It **exits 1** unless contention never
//! improves a modelled time, every contention-off curve is monotone in
//! P, and jacobi's weak-scaling efficiency at P = 256 stays above the
//! committed floor. `--quick` caps gaussian at P ≤ 256 (jacobi still
//! covers 4096 — the CI proof that a 4096-rank machine fits); `--out
//! scaling.json` writes an `f90d-scaling/v1` document (schema in the
//! README).
//!
//! `--exec threaded` runs every cell's local phases on its machine's
//! persistent worker pool; `--workers N` sets the process-wide worker
//! budget the cells lease pool workers from (default: host
//! parallelism), so `--jobs J --exec threaded` never runs more than N
//! pool threads however `J × P` multiplies out — cells that lease
//! nothing degrade to sequential. Virtual metrics are bit-identical to
//! `--exec sequential` by construction; CI gates a threaded run against
//! the same `BENCH_baseline.json` to prove it. Per-cell worker grants
//! land in `results.json` (`workers`, informational, never gated).
//!
//! `--repeat N` runs the matrix N times back to back in one process:
//! every run is gated against `--baseline` (proving the warm schedule
//! cache changes no virtual metric) and reports its schedule-cache
//! hit/miss counts on stderr — the second run's hits are the cross-run
//! reuse the CI job asserts on. `--no-sched-cache` disables the
//! process-wide schedule cache entirely (every cell rebuilds its
//! inspector schedules; virtual metrics are identical by construction).

use std::collections::HashMap;
use std::time::Instant;

use f90d_bench::experiments as exp;
use f90d_bench::scaling;
use f90d_bench::workloads;
use f90d_core::detect::{classify_pair, classify_subscript, DimAlign};
use f90d_core::{compile, CompileOptions};
use f90d_frontend::ast::{BinOp, Expr};
use f90d_machine::{ExecMode, MachineSpec};

/// Run one executing experiment and print its host wall-clock beside the
/// modelled output.
fn timed(label: &str, f: impl FnOnce()) {
    let t0 = Instant::now();
    f();
    println!(
        "  [{label}] wall-clock {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut which = "all".to_string();
    let mut n: i64 = 1023;
    let mut quick = false;
    let mut jobs: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut wall_tol: Option<f64> = None;
    let mut repeat: usize = 1;
    let mut sched_cache = true;
    let mut exec = ExecMode::Sequential;
    let mut workers: Option<usize> = None;
    let mut native = true;
    let mut gate: Option<f64> = None;
    let mut n_arg = false;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => which = it.next().cloned().unwrap_or_else(|| "all".into()),
            "--native" => native = true,
            "--no-native" => native = false,
            "--gate" => {
                gate = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&g: &f64| g > 0.0)
                        .unwrap_or_else(|| {
                            eprintln!("--gate expects a speedup factor > 0 (e.g. 1.5)");
                            std::process::exit(2);
                        }),
                )
            }
            "--n" => {
                n_arg = true;
                n = it.next().and_then(|v| v.parse().ok()).unwrap_or(1023)
            }
            "--quick" => quick = true,
            "--repeat" => {
                repeat = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--repeat expects a run count >= 1");
                        std::process::exit(2);
                    })
            }
            "--no-sched-cache" => sched_cache = false,
            "--exec" => {
                exec = it
                    .next()
                    .and_then(|v| ExecMode::parse(v))
                    .unwrap_or_else(|| {
                        eprintln!("--exec expects `sequential` or `threaded`");
                        std::process::exit(2);
                    })
            }
            "--workers" => {
                workers = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&w: &usize| w >= 1)
                        .unwrap_or_else(|| {
                            eprintln!("--workers expects a worker-budget total >= 1");
                            std::process::exit(2);
                        }),
                )
            }
            "--jobs" => {
                jobs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&j: &usize| j >= 1)
                        .unwrap_or_else(|| {
                            eprintln!("--jobs expects a worker count >= 1");
                            std::process::exit(2);
                        }),
                )
            }
            "--out" => out = it.next().cloned(),
            "--baseline" => baseline = it.next().cloned(),
            "--wall-tol" => {
                wall_tol = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--wall-tol expects a slowdown factor (e.g. 3.0)");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    // The harness flags only make sense for the matrix experiment; they
    // imply it, and combining them with another --exp is an error rather
    // than a silently-skipped regression gate.
    let matrix_flags = jobs.is_some()
        || out.is_some()
        || baseline.is_some()
        || wall_tol.is_some()
        || repeat > 1
        || !sched_cache
        || exec != ExecMode::Sequential
        || workers.is_some()
        || !native;
    if which == "vmcmp" {
        // Like overlap, the experiment fixes its own cells and always
        // runs every tier; reject flags it would otherwise ignore.
        if jobs.is_some()
            || baseline.is_some()
            || wall_tol.is_some()
            || repeat > 1
            || !sched_cache
            || exec != ExecMode::Sequential
            || workers.is_some()
            || !native
            || n_arg
        {
            eprintln!("--exp vmcmp accepts only --quick, --out and --gate (it always runs both tiers at its own sizes)");
            std::process::exit(2);
        }
        exp_vmcmp(quick, out, gate);
        return;
    }
    if which == "commplan" {
        // Fixed cells like overlap/vmcmp: both machine models, planner
        // off vs on, at its own sizes.
        if jobs.is_some()
            || baseline.is_some()
            || wall_tol.is_some()
            || repeat > 1
            || !sched_cache
            || exec != ExecMode::Sequential
            || workers.is_some()
            || !native
            || n_arg
        {
            eprintln!("--exp commplan accepts only --quick, --out and --gate (it always runs both machine models at its own sizes)");
            std::process::exit(2);
        }
        exp_commplan(quick, out, gate);
        return;
    }
    if which == "scaling" {
        // Fixed sweep (workloads × topologies × P, contention off/on)
        // with committed gates — no tunable flags beyond --quick/--out.
        if jobs.is_some()
            || baseline.is_some()
            || wall_tol.is_some()
            || repeat > 1
            || !sched_cache
            || exec != ExecMode::Sequential
            || workers.is_some()
            || !native
            || n_arg
            || gate.is_some()
        {
            eprintln!(
                "--exp scaling accepts only --quick and --out (its gates are committed constants)"
            );
            std::process::exit(2);
        }
        exp_scaling(quick, out);
        return;
    }
    if gate.is_some() {
        eprintln!("--gate is a claim gate; it requires --exp vmcmp (native speedup) or --exp commplan (planner speedup)");
        std::process::exit(2);
    }
    if matrix_flags && which == "all" {
        which = "matrix".into();
    }
    if which == "matrix" {
        exp_matrix(
            quick,
            jobs.unwrap_or(1),
            out,
            baseline,
            wall_tol,
            repeat,
            sched_cache,
            exec,
            workers,
            native,
        );
        return;
    }
    if which == "overlap" {
        // The experiment fixes its own cell (both machine models, Jacobi
        // sizes per --quick); reject ignored flags instead of silently running
        // something other than what was asked for.
        if jobs.is_some()
            || baseline.is_some()
            || wall_tol.is_some()
            || repeat > 1
            || !sched_cache
            || exec != ExecMode::Sequential
            || workers.is_some()
            || !native
            || n_arg
        {
            eprintln!("--exp overlap accepts only --quick and --out (it always runs both machine models at its own sizes)");
            std::process::exit(2);
        }
        exp_overlap(quick, out);
        return;
    }
    if matrix_flags {
        eprintln!("--jobs/--exec/--workers/--out/--baseline/--wall-tol/--repeat/--no-sched-cache require the matrix experiment (--exp matrix), not --exp {which}");
        std::process::exit(2);
    }
    if quick {
        n = 255;
    }
    let all = which == "all";
    if all || which == "t1" {
        exp_t1();
    }
    if all || which == "t2" {
        exp_t2();
    }
    if all || which == "t3" {
        exp_t3();
    }
    if all || which == "fig5" {
        timed("fig5", exp_fig5);
    }
    if all || which == "table4" || which == "fig6" {
        timed("table4/fig6", || exp_table4_fig6(n, which == "fig6"));
    }
    if all || which == "port" {
        timed("port", exp_portability);
    }
    if all {
        // `--exp vmcmp` alone returns above (it takes its own flags);
        // the full suite still includes an ungated run.
        exp_vmcmp(quick, None, None);
        exp_overlap(quick, None);
        exp_commplan(quick, None, None);
    }
    if all || which == "abl-shift" {
        exp_abl_shift();
    }
    if all || which == "abl-sched" {
        exp_abl_sched();
    }
    if all || which == "abl-fuse" {
        exp_abl_fuse();
    }
    if all || which == "abl-overlap" {
        exp_abl_overlap();
    }
}

/// The full §8 experiment matrix on the work-stealing harness.
///
/// Deterministic metrics → stdout (canonical order, byte-identical for
/// any `--jobs`); wall clock and cache commentary → stderr; structured
/// results → `--out` (last run when `--repeat` > 1); regression gate →
/// `--baseline`, applied to **every** repeat (exit 1 on drift — a warm
/// schedule cache must not move a single virtual bit).
#[allow(clippy::too_many_arguments)]
fn exp_matrix(
    quick: bool,
    jobs: usize,
    out: Option<String>,
    baseline: Option<String>,
    wall_tol: Option<f64>,
    repeat: usize,
    sched_cache: bool,
    exec: ExecMode,
    workers: Option<usize>,
    native: bool,
) {
    use f90d_bench::harness;

    let scale = if quick {
        harness::Scale::Quick
    } else {
        harness::Scale::Full
    };
    let cells = harness::matrix(scale);
    let mut cfg = harness::MatrixConfig::new(scale);
    cfg.jobs = jobs;
    cfg.sched_cache = sched_cache;
    cfg.exec = exec;
    cfg.budget = workers;
    cfg.native = native;
    eprintln!(
        "# matrix: {} cells, {} jobs, suite {}, {} run(s), schedule cache {}, exec {}, native kernels {}",
        cells.len(),
        jobs,
        scale.name(),
        repeat,
        if sched_cache { "on" } else { "off" },
        exec.name(),
        if native { "on" } else { "off" }
    );
    let base = baseline.map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let doc = serde::json::Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {path}: {e}");
            std::process::exit(2);
        });
        (path, doc)
    });
    for run in 1..=repeat {
        let report = harness::run_matrix_cfg(&cells, &cfg);
        print!("{}", harness::render_table(&report));
        let per_cell_wall: f64 = report.cells.iter().map(|c| c.wall_s).sum();
        eprintln!(
            "# wall-clock {:.3} s on {} jobs (sum of cell wall-clocks {:.3} s, pool efficiency {:.0}%)",
            report.wall_s,
            report.jobs,
            per_cell_wall,
            100.0 * per_cell_wall / (report.wall_s * report.jobs as f64)
        );
        if report.exec == ExecMode::Threaded {
            let pooled = report.cells.iter().filter(|c| c.workers > 0).count();
            eprintln!(
                "# exec threaded: worker budget {}, {} of {} cells ran pooled (rest degraded to sequential)",
                report.worker_budget,
                pooled,
                report.cells.len()
            );
        }
        eprintln!(
            "# schedule cache (run {run}): hits={} misses={}",
            report.sched_hits, report.sched_misses
        );
        let json = harness::report_json(&report);
        // Write (overwriting earlier runs) BEFORE the baseline diff: when
        // the gate exits 1, the CI artifact must hold exactly the run
        // that drifted, to diagnose or commit as the new baseline.
        if let Some(path) = &out {
            std::fs::write(path, json.render_pretty()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("# wrote {path} (run {run})");
        }
        if let Some((path, base)) = &base {
            match harness::diff_baseline(&json, base, wall_tol) {
                Ok(summary) => eprintln!("# baseline (run {run}): {summary}"),
                Err(drift) => {
                    eprintln!("# BASELINE DRIFT (run {run}) against {path}:\n{drift}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Execution-tier head-to-head: host wall-clock of one full run per
/// workload under each tier (bytecode VM / native kernels), a check
/// that the modelled times agree bit-for-bit,
/// and — with `--gate` — an exit-1 gate on the native-vs-vm speedup over
/// the comm-light workloads.
fn exp_vmcmp(quick: bool, out: Option<String>, gate: Option<f64>) {
    // `comm_light`: FORALL time dominates, so the native tier has
    // something to accelerate. The irregular kernel is gather/scatter
    // bound (and falls back to bytecode anyway) — reported, never gated.
    struct Case {
        name: &'static str,
        src: String,
        grid: Vec<i64>,
        comm_light: bool,
    }
    let cases: Vec<Case> = if quick {
        vec![
            Case {
                name: "jacobi 128, 4 sweeps, [2,2]",
                src: workloads::jacobi(128, 4),
                grid: vec![2, 2],
                comm_light: true,
            },
            Case {
                name: "gauss 64, [4]",
                src: workloads::gaussian(64),
                grid: vec![4],
                comm_light: true,
            },
            Case {
                name: "irregular 2048, [4]",
                src: workloads::irregular(2048),
                grid: vec![4],
                comm_light: false,
            },
        ]
    } else {
        vec![
            Case {
                name: "jacobi 256, 4 sweeps, [2,2]",
                src: workloads::jacobi(256, 4),
                grid: vec![2, 2],
                comm_light: true,
            },
            Case {
                name: "gauss 96, [4]",
                src: workloads::gaussian(96),
                grid: vec![4],
                comm_light: true,
            },
            Case {
                name: "irregular 4096, [4]",
                src: workloads::irregular(4096),
                grid: vec![4],
                comm_light: false,
            },
        ]
    };
    let spec = MachineSpec::ipsc860();
    let rows: Vec<(&Case, exp::TierRow)> = cases
        .iter()
        .map(|c| (c, exp::tier_wallclock(&c.src, &c.grid, &spec)))
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(c, r)| {
            vec![
                c.name.to_string(),
                format!("{:.1}", r.wall_vm_s * 1e3),
                format!("{:.1}", r.wall_native_s * 1e3),
                format!("{:.2}x", r.wall_vm_s / r.wall_native_s),
                format!("{}/{}", r.native_matched, r.native_fallback),
                if r.virt_equal {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]
        })
        .collect();
    exp::print_table(
        "Execution tiers — host wall-clock, bytecode vs native kernels (iPSC/860 model)",
        &[
            "workload",
            "vm ms",
            "native ms",
            "native vs vm",
            "matched/fallback",
            "virtual time equal",
        ],
        &table,
    );
    if let Some(path) = &out {
        use serde::json::Json;
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("f90d-vmcmp/v3".into())),
            (
                "machine".into(),
                Json::Str(MachineSpec::ipsc860().name.clone()),
            ),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|(c, r)| {
                            Json::Obj(vec![
                                ("workload".into(), Json::Str(c.name.into())),
                                ("comm_light".into(), Json::Bool(c.comm_light)),
                                ("wall_vm_s".into(), Json::Num(r.wall_vm_s)),
                                ("wall_native_s".into(), Json::Num(r.wall_native_s)),
                                ("virt_s".into(), Json::Num(r.virt_s)),
                                ("virt_equal".into(), Json::Bool(r.virt_equal)),
                                (
                                    "native_kernels".into(),
                                    Json::Obj(vec![
                                        ("matched".into(), Json::Num(r.native_matched as f64)),
                                        ("fallback".into(), Json::Num(r.native_fallback as f64)),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.render_pretty()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("# wrote {path}");
    }
    // Tier drift in the modelled metrics is a correctness failure no
    // matter what was asked for.
    let drifted: Vec<&str> = rows
        .iter()
        .filter(|(_, r)| !r.virt_equal)
        .map(|(c, _)| c.name)
        .collect();
    if !drifted.is_empty() {
        eprintln!("# VIRTUAL TIME DRIFT between tiers on: {drifted:?}");
        std::process::exit(1);
    }
    if let Some(need) = gate {
        let best = rows
            .iter()
            .filter(|(c, _)| c.comm_light)
            .map(|(c, r)| (c.name, r.wall_vm_s / r.wall_native_s))
            .fold(
                ("none", 0.0_f64),
                |acc, x| if x.1 > acc.1 { x } else { acc },
            );
        if best.1 < need {
            eprintln!(
                "# NATIVE TIER GATE FAILED: best comm-light native-vs-vm speedup {:.2}x ({}) < {need}x",
                best.1, best.0
            );
            std::process::exit(1);
        }
        println!(
            "  native tier gate: {:.2}x on {} (>= {need}x required): pass",
            best.1, best.0
        );
    }
}

/// The §5.1/§7 communication–computation overlap experiment: Jacobi
/// under temporary-shift, blocking ghost-exchange and split-phase
/// execution, per machine model. Exits 1 when the overlap
/// claim does not hold (modelled time must strictly drop with results
/// bit-identical).
fn exp_overlap(quick: bool, out: Option<String>) {
    let (n, iters, p) = if quick { (48, 4, 2) } else { (128, 8, 4) };
    let rows = exp::overlap_experiment(n, iters, p);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.machine.to_string(),
                format!("{:.6}", r.t_temporary),
                format!("{:.6}", r.t_blocking),
                format!("{:.6}", r.t_overlap),
                format!("{:.2}x", r.t_temporary / r.t_overlap),
                format!("{:.2}x", r.t_blocking / r.t_overlap),
                if r.arrays_identical && r.print_identical {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]
        })
        .collect();
    exp::print_table(
        &format!(
            "Overlap (§5.1/§7) — Jacobi {n}x{n}, {iters} sweeps, {p}x{p} grid: modelled seconds per shift strategy"
        ),
        &[
            "machine",
            "temporary",
            "blocking",
            "overlap",
            "vs temp",
            "vs block",
            "bit-identical",
        ],
        &table,
    );
    if let Some(path) = &out {
        let doc = serde::json::Json::Obj(vec![
            (
                "schema".into(),
                serde::json::Json::Str("f90d-overlap/v2".into()),
            ),
            ("n".into(), serde::json::Json::Num(n as f64)),
            ("iters".into(), serde::json::Json::Num(iters as f64)),
            (
                "grid".into(),
                serde::json::Json::Arr(vec![
                    serde::json::Json::Num(p as f64),
                    serde::json::Json::Num(p as f64),
                ]),
            ),
            (
                "rows".into(),
                serde::json::Json::Arr(
                    rows.iter()
                        .map(|r| {
                            serde::json::Json::Obj(vec![
                                ("machine".into(), serde::json::Json::Str(r.machine.into())),
                                (
                                    "t_temporary_s".into(),
                                    serde::json::Json::Num(r.t_temporary),
                                ),
                                ("t_blocking_s".into(), serde::json::Json::Num(r.t_blocking)),
                                ("t_overlap_s".into(), serde::json::Json::Num(r.t_overlap)),
                                (
                                    "arrays_identical".into(),
                                    serde::json::Json::Bool(r.arrays_identical),
                                ),
                                (
                                    "print_identical".into(),
                                    serde::json::Json::Bool(r.print_identical),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.render_pretty()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("# wrote {path}");
    }
    let failed: Vec<String> = rows
        .iter()
        .filter(|r| !r.holds())
        .map(|r| r.machine.to_string())
        .collect();
    if !failed.is_empty() {
        eprintln!("# OVERLAP CLAIM VIOLATED on: {failed:?}");
        std::process::exit(1);
    }
    println!(
        "  overlap < temporary and overlap < blocking on every machine, results bit-identical: yes"
    );
}

/// The phase-level communication planning experiment: the multi-array
/// stencil and the multigrid V-cycle under per-statement vs phase-batched
/// coalesced ghost exchanges, per machine model. Exits 1 when any row
/// changes a result bit or moves more traffic, or — with `--gate` —
/// when the multi-stencil speedup falls below the factor on any machine.
fn exp_commplan(quick: bool, out: Option<String>, gate: Option<f64>) {
    let (n, iters, p) = if quick { (48, 4, 4) } else { (128, 8, 4) };
    let rows = exp::commplan_experiment(n, iters, p);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.machine.to_string(),
                format!("{:.6}", r.t_per_stmt),
                format!("{:.6}", r.t_plan),
                format!("{:.2}x", r.speedup()),
                format!("{}", r.msgs_per_stmt),
                format!("{}", r.msgs_plan),
                if r.arrays_identical && r.print_identical && r.bytes_equal {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]
        })
        .collect();
    exp::print_table(
        &format!(
            "Comm phases — {n} elements, {iters} sweeps, {p} procs: per-statement vs batched coalesced ghost exchanges (modelled seconds)"
        ),
        &[
            "workload",
            "machine",
            "per-stmt",
            "planned",
            "speedup",
            "msgs off",
            "msgs on",
            "bit-identical",
        ],
        &table,
    );
    if let Some(path) = &out {
        use serde::json::Json;
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("f90d-commplan/v2".into())),
            ("n".into(), Json::Num(n as f64)),
            ("iters".into(), Json::Num(iters as f64)),
            ("grid".into(), Json::Arr(vec![Json::Num(p as f64)])),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("workload".into(), Json::Str(r.workload.into())),
                                ("machine".into(), Json::Str(r.machine.into())),
                                ("t_per_stmt_s".into(), Json::Num(r.t_per_stmt)),
                                ("t_plan_s".into(), Json::Num(r.t_plan)),
                                ("msgs_per_stmt".into(), Json::Num(r.msgs_per_stmt as f64)),
                                ("msgs_plan".into(), Json::Num(r.msgs_plan as f64)),
                                ("bytes_equal".into(), Json::Bool(r.bytes_equal)),
                                ("arrays_identical".into(), Json::Bool(r.arrays_identical)),
                                ("print_identical".into(), Json::Bool(r.print_identical)),
                                ("gated".into(), Json::Bool(r.gated)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.render_pretty()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("# wrote {path}");
    }
    let failed: Vec<String> = rows
        .iter()
        .filter(|r| !r.holds())
        .map(|r| format!("{}/{}", r.workload, r.machine))
        .collect();
    if !failed.is_empty() {
        eprintln!("# COMM-PLAN CLAIM VIOLATED on: {failed:?}");
        std::process::exit(1);
    }
    if let Some(need) = gate {
        let worst = rows
            .iter()
            .filter(|r| r.gated)
            .map(|r| (r, r.speedup()))
            .fold((None::<&exp::CommPlanRow>, f64::INFINITY), |acc, (r, s)| {
                if s < acc.1 {
                    (Some(r), s)
                } else {
                    acc
                }
            });
        if worst.1 < need {
            let r = worst.0.unwrap();
            eprintln!(
                "# COMM-PLAN GATE FAILED: multi-stencil speedup {:.2}x on {} < {need}x",
                worst.1, r.machine
            );
            std::process::exit(1);
        }
        println!(
            "  comm-plan gate: worst multi-stencil speedup {:.2}x (>= {need}x required on every machine): pass",
            worst.1
        );
    }
    println!(
        "  planned <= per-statement everywhere, strict win on the multi-array stencil, results bit-identical: yes"
    );
}

/// Table 1: structured communication detection.
/// The thousand-rank weak-scaling sweep (`f90d_bench::scaling`): prints
/// the speedup-vs-P table, optionally writes the `f90d-scaling/v1`
/// document, and exits 1 when any committed gate fails (contention-on
/// improving a time, a non-monotone curve, or the jacobi P=256
/// efficiency floor).
fn exp_scaling(quick: bool, out: Option<String>) {
    let t0 = Instant::now();
    let report = scaling::scaling_experiment(quick);
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.topology.to_string(),
                r.nranks.to_string(),
                r.n.to_string(),
                format!("{:.6}", r.time_off),
                format!("{:.6}", r.time_on),
                format!(
                    "{:.2}x",
                    if r.time_off > 0.0 {
                        r.time_on / r.time_off
                    } else {
                        1.0
                    }
                ),
                r.messages.to_string(),
                r.links_used.to_string(),
                format!("{:.3}", r.efficiency),
            ]
        })
        .collect();
    exp::print_table(
        &format!(
            "Weak scaling — jacobi + gaussian, P in {:?}, contention off/on{}",
            scaling::RANKS,
            if quick {
                " (quick: gaussian capped at P<=256)"
            } else {
                ""
            }
        ),
        &[
            "workload",
            "topology",
            "P",
            "N",
            "t_off",
            "t_on",
            "slowdown",
            "messages",
            "links",
            "efficiency",
        ],
        &table,
    );
    eprintln!(
        "# scaling sweep wall-clock {:.1} s ({} cells)",
        t0.elapsed().as_secs_f64(),
        report.rows.len()
    );
    if let Some(path) = &out {
        use serde::json::Json;
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("f90d-scaling/v1".into())),
            ("quick".into(), Json::Bool(quick)),
            ("base_spec".into(), Json::Str("iPSC/860 constants".into())),
            (
                "jacobi_eff_floor_p256".into(),
                Json::Num(scaling::JACOBI_EFF_FLOOR_P256),
            ),
            (
                "gates".into(),
                Json::Obj(vec![
                    (
                        "contention_never_improves".into(),
                        Json::Bool(report.contention_never_improves),
                    ),
                    ("monotone_in_p".into(), Json::Bool(report.monotone_in_p)),
                    (
                        "efficiency_floor_holds".into(),
                        Json::Bool(report.efficiency_floor_holds),
                    ),
                    ("pass".into(), Json::Bool(report.holds())),
                ]),
            ),
            (
                "rows".into(),
                Json::Arr(
                    report
                        .rows
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("workload".into(), Json::Str(r.workload.into())),
                                ("topology".into(), Json::Str(r.topology.into())),
                                ("nranks".into(), Json::Num(r.nranks as f64)),
                                ("n".into(), Json::Num(r.n as f64)),
                                ("t_off_s".into(), Json::Num(r.time_off)),
                                ("t_on_s".into(), Json::Num(r.time_on)),
                                ("messages".into(), Json::Num(r.messages as f64)),
                                ("links_used".into(), Json::Num(r.links_used as f64)),
                                ("efficiency".into(), Json::Num(r.efficiency)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.render_pretty()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("# wrote {path}");
    }
    if !report.holds() {
        eprintln!(
            "# SCALING CLAIM VIOLATED: contention_never_improves={} monotone_in_p={} efficiency_floor_holds={}",
            report.contention_never_improves, report.monotone_in_p, report.efficiency_floor_holds
        );
        std::process::exit(1);
    }
    println!(
        "  contention never improves, curves monotone in P, jacobi efficiency(P=256) >= {:.2} on every topology: yes",
        scaling::JACOBI_EFF_FLOOR_P256
    );
}

fn exp_t1() {
    let vars = vec!["I".to_string()];
    let params = HashMap::new();
    let al = Some(DimAlign {
        tdim: 0,
        off: 0,
        block: true,
    });
    let var = Expr::Var("I".into());
    let cases: Vec<(&str, Expr, Expr)> = vec![
        ("(i, s)", var.clone(), Expr::Var("S".into())),
        ("(i, i+c)", var.clone(), var.clone().plus(2)),
        ("(i, i-c)", var.clone(), var.clone().plus(-2)),
        (
            "(i, i+s)",
            var.clone(),
            Expr::bin(BinOp::Add, var.clone(), Expr::Var("S".into())),
        ),
        (
            "(i, i-s)",
            var.clone(),
            Expr::bin(BinOp::Sub, var.clone(), Expr::Var("S".into())),
        ),
        ("(d, s)", Expr::Int(7), Expr::Int(2)),
        ("(i, i)", var.clone(), var.clone()),
    ];
    let rows: Vec<Vec<String>> = cases
        .into_iter()
        .map(|(name, lhs, rhs)| {
            let lp = classify_subscript(&lhs, &vars, &params);
            let rp = classify_subscript(&rhs, &vars, &params);
            let tag = classify_pair(&lp, &rp, al, al);
            vec![name.to_string(), format!("{tag:?}")]
        })
        .collect();
    exp::print_table(
        "Table 1 — structured communication detection (BLOCK)",
        &["pattern", "primitive"],
        &rows,
    );
}

/// Table 2: unstructured communication detection.
fn exp_t2() {
    let vars = vec!["I".to_string(), "J".to_string()];
    let params = HashMap::new();
    let f = Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Mul, Expr::Int(2), Expr::Var("I".into())),
        Expr::Int(1),
    );
    let v = Expr::Ref(
        "V".into(),
        vec![f90d_frontend::ast::Subscript::Index(Expr::Var("I".into()))],
    );
    let unknown = Expr::bin(BinOp::Add, Expr::Var("I".into()), Expr::Var("J".into()));
    let rows: Vec<Vec<String>> = [("f(i) = 2i+1", f), ("V(i)", v), ("i+j (unknown)", unknown)]
        .into_iter()
        .map(|(name, e)| {
            let p = classify_subscript(&e, &vars, &params);
            let fam = f90d_core::detect::unstructured_of(&p);
            let (read, write) = match fam {
                f90d_core::detect::UnstructKind::PrecompRead => ("precomp_read", "postcomp_write"),
                f90d_core::detect::UnstructKind::Gather => ("gather", "scatter"),
            };
            vec![name.to_string(), read.to_string(), write.to_string()]
        })
        .collect();
    exp::print_table(
        "Table 2 — unstructured communication detection",
        &["pattern", "read RHS", "write LHS"],
        &rows,
    );
}

/// Table 3: intrinsic categories (coverage + modelled microbench).
fn exp_t3() {
    let rows: Vec<Vec<String>> = exp::table3_microbench(1 << 16)
        .into_iter()
        .map(|(cat, name, t)| vec![cat.into(), name.into(), format!("{:.3} ms", t * 1e3)])
        .collect();
    exp::print_table(
        "Table 3 — intrinsic categories, 16-node iPSC/860 model, 64Ki elements",
        &["category", "intrinsic", "modelled time"],
        &rows,
    );
}

/// Figure 5: GE time vs N, 16 nodes, iPSC/860 vs nCUBE/2.
fn exp_fig5() {
    let sizes: Vec<i64> = (2..=19).map(|k| k * 16).collect();
    let rows: Vec<Vec<String>> = exp::fig5(&sizes, 16)
        .into_iter()
        .map(|(n, a, b)| vec![n.to_string(), format!("{a:.4}"), format!("{b:.4}")])
        .collect();
    exp::print_table(
        "Figure 5 — Gaussian elimination, 16 nodes (seconds)",
        &["N", "iPSC/860", "nCUBE/2"],
        &rows,
    );
}

/// Table 4 + Figure 6.
fn exp_table4_fig6(n: i64, fig6_only: bool) {
    let rows = exp::table4(n, &[1, 2, 4, 8, 16]);
    if !fig6_only {
        let t: Vec<Vec<String>> = rows
            .iter()
            .map(|&(p, h, c)| {
                vec![
                    p.to_string(),
                    format!("{h:.2}"),
                    format!("{c:.2}"),
                    format!("{:.3}", c / h),
                ]
            })
            .collect();
        exp::print_table(
            &format!("Table 4 — hand-written vs compiled GE, {n}x{n}, iPSC/860 model (seconds)"),
            &["PEs", "hand", "Fortran 90D", "ratio"],
            &t,
        );
    }
    let sp: Vec<Vec<String>> = exp::fig6(&rows)
        .into_iter()
        .map(|(p, sh, sc)| vec![p.to_string(), format!("{sh:.2}"), format!("{sc:.2}")])
        .collect();
    exp::print_table(
        "Figure 6 — speedup vs sequential",
        &["PEs", "hand", "Fortran 90D"],
        &sp,
    );
}

fn exp_portability() {
    let rows: Vec<Vec<String>> = exp::portability(128, 16)
        .into_iter()
        .map(|(name, t)| vec![name, format!("{t:.4}")])
        .collect();
    exp::print_table(
        "Portability (paper §8.1) — same compiled GE (N=128, P=16) on three machine models",
        &["machine", "seconds"],
        &rows,
    );
}

fn exp_abl_shift() {
    let (m_on, m_off, t_on, t_off) = exp::ablation_merge_comm(64, 8);
    exp::print_table(
        "ABL-1 — §7(2) duplicate-communication elimination (GE kernel, N=64, P=8)",
        &["variant", "messages", "seconds"],
        &[
            vec!["merged".into(), m_on.to_string(), format!("{t_on:.4}")],
            vec!["unmerged".into(), m_off.to_string(), format!("{t_off:.4}")],
        ],
    );
    // Also show the shift-union example from the paper.
    let src = "
PROGRAM UNI
INTEGER, PARAMETER :: N = 64
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N-3) A(I) = B(I+2) + B(I+3)
END
";
    for (label, merge) in [("union", true), ("two shifts", false)] {
        let mut o = CompileOptions::on_grid(&[8]);
        o.opt.merge_comm = merge;
        let c = compile(src, &o).unwrap();
        println!(
            "  A(I)=B(I+2)+B(I+3): {label} -> {} overlap_shift call(s)",
            c.spmd.comm_census()["overlap_shift"]
        );
    }
}

fn exp_abl_sched() {
    let (t_reuse, t_no) = exp::ablation_schedule_reuse(4096, 8);
    exp::print_table(
        "ABL-2 — §7(3) schedule reuse (irregular kernel, N=4096, P=8, 4 repeats)",
        &["variant", "seconds"],
        &[
            vec!["reused".into(), format!("{t_reuse:.4}")],
            vec!["rebuilt".into(), format!("{t_no:.4}")],
        ],
    );
}

fn exp_abl_fuse() {
    let (t_fused, t_two) = exp::ablation_multicast_shift(256);
    exp::print_table(
        "ABL-3 — §5.3.1 fused multicast_shift (N=256, 4x4 grid, 16 repeats)",
        &["variant", "seconds"],
        &[
            vec!["fused".into(), format!("{t_fused:.4}")],
            vec!["two-step".into(), format!("{t_two:.4}")],
        ],
    );
}

fn exp_abl_overlap() {
    let (t_overlap, t_temp) = exp::ablation_overlap_shift(128, 8, 4);
    exp::print_table(
        "ABL-4 — §5.1 overlap_shift vs temporary_shift (Jacobi 128x128, 4x4 grid, 8 sweeps)",
        &["variant", "seconds"],
        &[
            vec!["overlap areas".into(), format!("{t_overlap:.4}")],
            vec!["temporaries".into(), format!("{t_temp:.4}")],
        ],
    );
    let _ = workloads::jacobi(8, 1); // keep the module linked in --exp lists
}
