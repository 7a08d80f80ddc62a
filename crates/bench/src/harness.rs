//! Parallel repro harness: the full (workload × size × grid × machine)
//! experiment matrix of the paper's §8 evaluation, run by a
//! work-stealing pool of `std::thread::scope` workers.
//!
//! Execution is *virtual-time* deterministic — every cell builds its own
//! [`Machine`], so the modelled seconds, message counts and byte counts
//! of a cell are identical no matter which worker runs it or in what
//! order. That is what makes the matrix CI-gateable: [`render_table`]
//! emits only the deterministic columns in canonical cell order (so
//! `--jobs 8` output is byte-identical to `--jobs 1`), and
//! [`diff_baseline`] compares a run against a committed `results.json`
//! bit-exactly on the virtual metrics while only reporting wall clock.
//!
//! The shared hot state is two process-wide keyed caches
//! (`f90d_machine::KeyedCache`): the VM program cache
//! (`f90d_core::vm_cache` — one lowering per (source hash, options, grid)
//! key) and the schedule cache
//! (`f90d_comm::sched_cache` — one inspector build per (kind, grid,
//! request-pattern) key, across cells *and* across repeated matrix
//! runs). Each run's hit/miss totals for both are summed from the
//! cells' own run traces — never read off the process-global counters,
//! which concurrent runs in the same process share — and neither cache
//! changes a cell's virtual metrics.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use f90d_core::{compile, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{budget, ExecMode, Machine, MachineSpec};
use serde::json::Json;

use crate::workloads;

/// Matrix size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smallest cells — fast enough for debug-build unit tests.
    Tiny,
    /// CI preset (`repro --quick --jobs 4`): every shape, small sizes.
    Quick,
    /// Paper-scale sizes.
    Full,
}

impl Scale {
    /// Name recorded in `results.json` (baselines must match suites).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// One experiment-matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Workload name: `gaussian`, `jacobi`, `fft`, `irregular`.
    pub workload: &'static str,
    /// Primary problem size (matrix side, grid side, vector length …).
    pub n: i64,
    /// Logical processor grid shape.
    pub grid: Vec<i64>,
    /// Machine model: `ipsc860` or `ncube2`.
    pub machine: &'static str,
}

impl Cell {
    /// Canonical id, e.g. `jacobi/n96/g2x2/ipsc860`.
    pub fn id(&self) -> String {
        format!(
            "{}/n{}/g{}/{}",
            self.workload,
            self.n,
            grid_name(&self.grid),
            self.machine
        )
    }

    fn source(&self) -> String {
        match self.workload {
            "gaussian" => workloads::gaussian(self.n),
            // Secondary parameters are fixed so a cell is fully described
            // by (workload, n): 4 Jacobi sweeps, FFT increment 2.
            "jacobi" => workloads::jacobi(self.n, 4),
            "fft" => workloads::fft_butterfly(self.n, 2),
            "irregular" => workloads::irregular(self.n),
            other => panic!("unknown workload {other}"),
        }
    }

    fn spec(&self) -> MachineSpec {
        match self.machine {
            "ipsc860" => MachineSpec::ipsc860(),
            "ncube2" => MachineSpec::ncube2(),
            other => panic!("unknown machine {other}"),
        }
    }
}

/// Deterministic metrics plus informational timing for one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that produced this.
    pub cell: Cell,
    /// Modelled elapsed seconds (deterministic, gated bit-exactly).
    pub virt_s: f64,
    /// Messages sent (deterministic, gated).
    pub messages: u64,
    /// Payload bytes sent (deterministic, gated).
    pub bytes: u64,
    /// PRINT output (deterministic, gated).
    pub printed: Vec<String>,
    /// Host wall clock for the run (informational — never gated by
    /// default, scheduling-dependent).
    pub wall_s: f64,
    /// Program-cache outcome: `true` hit, `false` this cell performed
    /// the lowering. Which cell of a key group lowers depends on worker
    /// scheduling, so this is informational; the *totals* are
    /// deterministic.
    pub cache_hit: bool,
    /// Schedule-cache hits during this cell's run (informational — which
    /// cell of a pattern group builds depends on worker scheduling).
    pub sched_hits: u64,
    /// Schedule-cache misses (inspector builds) during this cell's run.
    pub sched_misses: u64,
    /// Pool workers the cell's machine held for its local phases (0 =
    /// sequential, either by `--exec sequential` or because the worker
    /// budget was exhausted when this cell leased). Informational —
    /// grants depend on which cells run concurrently — and never gated.
    pub workers: usize,
    /// FORALL executions dispatched to a native-tier kernel (always 0
    /// under `repro --no-native`). Informational,
    /// never gated — the tiers are bit-identical on every gated metric.
    pub native_matched: u64,
    /// FORALL executions that ran the bytecode element loop instead.
    pub native_fallback: u64,
    /// Comm phases the shared driver posted as one batched, coalesced
    /// ghost exchange (nonzero only with `comm_plan` on — e.g. the
    /// `--exp commplan` ablation). Informational, never gated.
    pub comm_groups: u64,
    /// Comm phases the driver refused and re-ran statement-by-statement
    /// (planning failed — e.g. mixed element types). Informational.
    pub comm_fallbacks: u64,
}

/// One full matrix run.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Suite preset name.
    pub suite: &'static str,
    /// Worker count used.
    pub jobs: usize,
    /// Wall clock of the whole run.
    pub wall_s: f64,
    /// Program-cache hits of this run's cells.
    pub cache_hits: u64,
    /// Program-cache misses (lowerings) of this run's cells.
    pub cache_misses: u64,
    /// Schedule-cache hits of this run's cells (hits + misses is
    /// deterministic; the split depends on process cache history — a
    /// second matrix run in the same process is all hits).
    pub sched_hits: u64,
    /// Schedule-cache misses (inspector builds) of this run's cells.
    pub sched_misses: u64,
    /// Local-phase execution mode the cells ran under.
    pub exec: ExecMode,
    /// Worker-budget total at run time (`repro --workers`, default host
    /// parallelism). Threaded cells lease pool workers from this pot.
    pub worker_budget: usize,
    /// Per-cell results, in canonical matrix order.
    pub cells: Vec<CellResult>,
}

fn grid_name(grid: &[i64]) -> String {
    grid.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// Intern a serialized workload name back to the matrix's static name
/// (also validates it).
fn workload_of(name: &str) -> Option<&'static str> {
    ["gaussian", "jacobi", "fft", "irregular"]
        .into_iter()
        .find(|&w| w == name)
}

/// Intern a serialized machine name back to the matrix's static name.
fn machine_of(name: &str) -> Option<&'static str> {
    ["ipsc860", "ncube2"].into_iter().find(|&m| m == name)
}

/// The experiment matrix at `scale`, in canonical order: workload, then
/// size, then grid, then machine.
pub fn matrix(scale: Scale) -> Vec<Cell> {
    // (workload, sizes, grids) per scale.
    type Row = (&'static str, Vec<i64>, Vec<Vec<i64>>);
    let rows: Vec<Row> = match scale {
        Scale::Tiny => vec![
            ("gaussian", vec![16], vec![vec![1], vec![4]]),
            ("jacobi", vec![12], vec![vec![2, 2]]),
            ("fft", vec![8], vec![vec![4]]),
            ("irregular", vec![64], vec![vec![4]]),
        ],
        Scale::Quick => vec![
            ("gaussian", vec![96, 160], vec![vec![1], vec![4], vec![8]]),
            ("jacobi", vec![96], vec![vec![2, 2], vec![4, 4]]),
            ("fft", vec![64], vec![vec![4], vec![8]]),
            ("irregular", vec![4096], vec![vec![4], vec![8]]),
        ],
        Scale::Full => vec![
            ("gaussian", vec![256, 512], vec![vec![1], vec![4], vec![16]]),
            ("jacobi", vec![256], vec![vec![2, 2], vec![4, 4]]),
            ("fft", vec![256], vec![vec![8], vec![16]]),
            ("irregular", vec![16384], vec![vec![8], vec![16]]),
        ],
    };
    let mut cells = Vec::new();
    for (workload, sizes, grids) in rows {
        for &n in &sizes {
            for grid in &grids {
                for machine in ["ipsc860", "ncube2"] {
                    cells.push(Cell {
                        workload,
                        n,
                        grid: grid.clone(),
                        machine,
                    });
                }
            }
        }
    }
    cells
}

/// Compile and run one cell on its own fresh [`Machine`].
pub fn run_cell(cell: &Cell) -> CellResult {
    run_cell_with(cell, true)
}

/// [`run_cell`] with the cross-run schedule cache on or off
/// (`repro --no-sched-cache`). Virtual metrics are identical either way.
pub fn run_cell_with(cell: &Cell, sched_cache: bool) -> CellResult {
    run_cell_cfg(cell, sched_cache, ExecMode::Sequential)
}

/// [`run_cell_with`] under an explicit local-phase execution mode
/// (`repro --exec`). A threaded cell leases up to P pool workers from
/// the process-wide `f90d_machine::budget` for the duration of the run
/// — the machine (and with it the pool and its lease) is dropped when
/// this returns, normally or by panic, so a crashed cell can never leak
/// budget. Virtual metrics are identical in either mode.
pub fn run_cell_cfg(cell: &Cell, sched_cache: bool, exec: ExecMode) -> CellResult {
    run_cell_native(cell, sched_cache, exec, true)
}

/// [`run_cell_cfg`] with the native kernel tier on or off (`repro
/// --no-native`). Every gated metric is identical either way; only host
/// wall clock and the informational `native_kernels` counters change.
pub fn run_cell_native(cell: &Cell, sched_cache: bool, exec: ExecMode, native: bool) -> CellResult {
    let mut opts = CompileOptions::on_grid(&cell.grid);
    opts.sched_cache = sched_cache;
    opts.exec_mode = Some(exec);
    opts.opt.native_kernels = native;
    let compiled =
        compile(&cell.source(), &opts).unwrap_or_else(|e| panic!("{} compiles: {e}", cell.id()));
    let mut m = Machine::new(cell.spec(), ProcGrid::new(&cell.grid));
    let t0 = Instant::now();
    let (rep, trace) = compiled
        .run_on_traced(&mut m)
        .unwrap_or_else(|e| panic!("{} runs: {e:?}", cell.id()));
    CellResult {
        cell: cell.clone(),
        virt_s: rep.elapsed,
        messages: rep.messages,
        bytes: rep.bytes,
        printed: rep.printed,
        wall_s: t0.elapsed().as_secs_f64(),
        cache_hit: trace.program_cache_hit,
        sched_hits: trace.sched_hits,
        sched_misses: trace.sched_misses,
        workers: trace.workers,
        native_matched: trace.native_matched,
        native_fallback: trace.native_fallback,
        comm_groups: trace.comm_groups,
        comm_fallbacks: trace.comm_fallbacks,
    }
}

/// How [`run_matrix_cfg`] runs a matrix: worker count, suite name,
/// schedule-cache toggle, local-phase execution mode, worker budget.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Harness job workers (cells run concurrently).
    pub jobs: usize,
    /// Suite preset recorded in the report (baselines must match).
    pub scale: Scale,
    /// Consult the cross-run schedule cache (`--no-sched-cache` off).
    pub sched_cache: bool,
    /// Local-phase execution mode per cell (`repro --exec`).
    pub exec: ExecMode,
    /// When `Some`, set the process-wide worker-budget total before the
    /// run (`repro --workers N`); `None` leaves it at its current value
    /// (default: host parallelism). Threaded cells lease pool workers
    /// per cell and degrade to sequential when the pot is empty, so
    /// `jobs × per-cell workers` never exceeds this total.
    pub budget: Option<usize>,
    /// Native kernel tier on VM cells (`repro --no-native` turns it
    /// off). Gated metrics are identical either way.
    pub native: bool,
}

impl MatrixConfig {
    /// Sequential single-job defaults for `scale`.
    pub fn new(scale: Scale) -> Self {
        MatrixConfig {
            jobs: 1,
            scale,
            sched_cache: true,
            exec: ExecMode::Sequential,
            budget: None,
            native: true,
        }
    }
}

/// Run `cells` on `jobs` workers with work stealing; results come back
/// in canonical (input) order regardless of execution interleaving.
/// `scale` is recorded as the report's suite name — pass the same value
/// the cells were built with ([`diff_baseline`] refuses cross-suite
/// comparisons).
pub fn run_matrix_scaled(cells: &[Cell], jobs: usize, scale: Scale) -> MatrixReport {
    run_matrix_with(cells, jobs, scale, true)
}

/// [`run_matrix_scaled`] with the cross-run schedule cache on or off.
pub fn run_matrix_with(
    cells: &[Cell],
    jobs: usize,
    scale: Scale,
    sched_cache: bool,
) -> MatrixReport {
    let mut cfg = MatrixConfig::new(scale);
    cfg.jobs = jobs;
    cfg.sched_cache = sched_cache;
    run_matrix_cfg(cells, &cfg)
}

/// Pop one job for worker `w`: its own deque's front, else a steal from
/// the back of another worker's deque.
///
/// Two audit findings from the original inline version are pinned down
/// here (and by the `jobs ≫ cells` stress test):
///
/// * The old `queues[w].lock().unwrap().pop_front().or_else(|| …steal…)`
///   kept the **temporary** guard on the worker's own deque alive for
///   the whole statement — Rust extends initializer temporaries to the
///   end of the `let` — so every stealer scanned victims *while holding
///   its own lock*. Two workers in the steal phase could each block on
///   the other's held mutex: a circular wait that deadlocked the pool
///   (overwhelmingly likely once `jobs ≫ cells` puts most workers in
///   the steal phase at once). The own-queue pop is now a separate
///   statement, so no lock is held while stealing.
/// * The steal scan itself locked victims front-to-back with blocking
///   `lock()`, serializing idle workers behind busy queues. It now
///   skips contended victims with `try_lock` and only re-scans while a
///   contended victim might still hold work. Skipping is *safe* for
///   termination: seeding finishes before any worker starts (the seed
///   loop precedes `thread::scope`, so no worker can observe a
///   half-seeded deque), and every deque's owner drains it with its own
///   blocking pop before exiting — a skipped job is never a lost job.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    let mine = queues[w].lock().unwrap().pop_front();
    if mine.is_some() {
        return mine;
    }
    let jobs = queues.len();
    loop {
        let mut saw_contended = false;
        for off in 1..jobs {
            match queues[(w + off) % jobs].try_lock() {
                Ok(mut q) => {
                    if let Some(i) = q.pop_back() {
                        return Some(i);
                    }
                }
                // Contended: someone is popping/stealing there right
                // now. Skip it — never block on a victim — but remember
                // to look again: it may still hold undrained work.
                Err(std::sync::TryLockError::WouldBlock) => saw_contended = true,
                // A poisoned victim deque means a worker panicked inside
                // a pop — its cells are already lost to the panic, which
                // propagates through the scope join; stop stealing.
                Err(std::sync::TryLockError::Poisoned(_)) => {}
            }
        }
        if !saw_contended {
            return None;
        }
        std::thread::yield_now();
    }
}

/// [`run_matrix_scaled`] under a full [`MatrixConfig`]: schedule cache,
/// execution mode and worker budget.
///
/// Each worker owns a deque seeded round-robin **before** the scope
/// starts; it pops its own front and when empty steals from the back of
/// the others via `next_job` (try-lock, never blocking on a victim).
/// With `exec = Threaded` every cell leases pool workers from the
/// process-wide budget for its machine's local phases, so the host runs
/// at most `budget` pool threads no matter how `jobs × P` multiplies
/// out; cells that lease nothing run sequentially — bit-identically.
pub fn run_matrix_cfg(cells: &[Cell], cfg: &MatrixConfig) -> MatrixReport {
    let jobs = cfg.jobs.max(1);
    if let Some(total) = cfg.budget {
        budget::global().set_total(total);
    }
    let t0 = Instant::now();

    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, _) in cells.iter().enumerate() {
        queues[i % jobs].lock().unwrap().push_back(i);
    }
    let slots: Vec<OnceLock<CellResult>> = cells.iter().map(|_| OnceLock::new()).collect();

    std::thread::scope(|s| {
        for w in 0..jobs {
            let queues = &queues;
            let slots = &slots;
            s.spawn(move || {
                while let Some(i) = next_job(queues, w) {
                    let _ = slots[i].set(run_cell_native(
                        &cells[i],
                        cfg.sched_cache,
                        cfg.exec,
                        cfg.native,
                    ));
                }
            });
        }
    });

    let wall_s = t0.elapsed().as_secs_f64();
    let cells: Vec<CellResult> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("every cell ran"))
        .collect();
    let cache_hits = cells.iter().filter(|c| c.cache_hit).count() as u64;
    MatrixReport {
        suite: cfg.scale.name(),
        jobs,
        wall_s,
        cache_hits,
        cache_misses: cells.len() as u64 - cache_hits,
        sched_hits: cells.iter().map(|c| c.sched_hits).sum(),
        sched_misses: cells.iter().map(|c| c.sched_misses).sum(),
        exec: cfg.exec,
        worker_budget: budget::global().total(),
        cells,
    }
}

/// Render the deterministic view of a report: one row per cell in
/// canonical order, virtual metrics at full precision, plus the cache
/// totals (which are scheduling-independent: misses = distinct keys).
/// This is the `repro` stdout that must be byte-identical across
/// `--jobs` values.
pub fn render_table(rep: &MatrixReport) -> String {
    let mut out = String::new();
    out.push_str("workload\tn\tgrid\tmachine\tvirt_s\tmessages\tbytes\n");
    for c in &rep.cells {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            c.cell.workload,
            c.cell.n,
            grid_name(&c.cell.grid),
            c.cell.machine,
            c.virt_s,
            c.messages,
            c.bytes
        ));
        for line in &c.printed {
            out.push_str(&format!("  print: {line}\n"));
        }
    }
    out.push_str(&format!(
        "cache: hits={} misses={}\n",
        rep.cache_hits, rep.cache_misses
    ));
    out
}

/// Serialize a report to the `results.json` tree (`f90d-results/v1`).
pub fn report_json(rep: &MatrixReport) -> Json {
    let cells = rep
        .cells
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("workload".into(), Json::Str(c.cell.workload.into())),
                ("n".into(), Json::Num(c.cell.n as f64)),
                (
                    "grid".into(),
                    Json::Arr(c.cell.grid.iter().map(|&d| Json::Num(d as f64)).collect()),
                ),
                ("machine".into(), Json::Str(c.cell.machine.into())),
                ("virt_s".into(), Json::Num(c.virt_s)),
                ("messages".into(), Json::Num(c.messages as f64)),
                ("bytes".into(), Json::Num(c.bytes as f64)),
                (
                    "printed".into(),
                    Json::Arr(c.printed.iter().map(|s| Json::Str(s.clone())).collect()),
                ),
                ("wall_s".into(), Json::Num(c.wall_s)),
                ("cache_hit".into(), Json::Bool(c.cache_hit)),
                ("sched_hits".into(), Json::Num(c.sched_hits as f64)),
                ("sched_misses".into(), Json::Num(c.sched_misses as f64)),
                // Pool workers leased for this cell's local phases.
                // Informational, never gated: grants depend on which
                // cells happened to run concurrently.
                ("workers".into(), Json::Num(c.workers as f64)),
                // Native-tier coverage for this cell's FORALL
                // executions. Informational, never gated: the tiers are
                // bit-identical on every gated metric, this only shows
                // how much of the corpus the kernels cover.
                (
                    "native_kernels".into(),
                    Json::Obj(vec![
                        ("matched".into(), Json::Num(c.native_matched as f64)),
                        ("fallback".into(), Json::Num(c.native_fallback as f64)),
                    ]),
                ),
                // Shared comm driver phase outcomes for this cell.
                // Informational, never gated: the driver's fallback
                // contract keeps every gated metric bit-identical, this
                // only shows how many phases actually batched.
                (
                    "comm_plan".into(),
                    Json::Obj(vec![
                        ("groups".into(), Json::Num(c.comm_groups as f64)),
                        ("fallbacks".into(), Json::Num(c.comm_fallbacks as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str("f90d-results/v1".into())),
        ("suite".into(), Json::Str(rep.suite.into())),
        ("jobs".into(), Json::Num(rep.jobs as f64)),
        // Execution mode + worker budget (informational, never gated:
        // virtual metrics are mode-independent by construction, which is
        // exactly what `--exec threaded --baseline` proves in CI).
        ("exec".into(), Json::Str(rep.exec.name().into())),
        ("worker_budget".into(), Json::Num(rep.worker_budget as f64)),
        ("wall_s".into(), Json::Num(rep.wall_s)),
        (
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(rep.cache_hits as f64)),
                ("misses".into(), Json::Num(rep.cache_misses as f64)),
            ]),
        ),
        (
            // Cross-run schedule-cache outcomes. Informational, never
            // gated by `diff_baseline` (older baselines lack the block;
            // the split depends on process cache history).
            "schedule_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(rep.sched_hits as f64)),
                ("misses".into(), Json::Num(rep.sched_misses as f64)),
            ]),
        ),
        ("cells".into(), Json::Arr(cells)),
    ])
}

/// The deterministic projection of one serialized cell, used as the
/// comparison unit by [`diff_baseline`].
#[derive(Debug, PartialEq)]
struct CellMetrics {
    virt_bits: u64,
    messages: u64,
    bytes: u64,
    printed: Vec<String>,
    wall_s: f64,
}

/// Reconstruct the [`Cell`] a serialized entry describes and return its
/// canonical [`Cell::id`] — the one id format, shared with run panics
/// and table rendering, so baseline keys can never drift from it.
fn cell_key(c: &Json) -> Result<String, String> {
    let field = |k: &'static str| c.get(k).ok_or(k);
    let workload = field("workload")?.as_str().ok_or("workload")?;
    let machine = field("machine")?.as_str().ok_or("machine")?;
    // Documents written while the matrix also ran a second execution
    // backend tag every cell; only the surviving `vm` rows are valid.
    if let Some(backend) = c.get("backend") {
        if backend.as_str() != Some("vm") {
            return Err(format!("unknown backend {backend:?}"));
        }
    }
    let cell = Cell {
        workload: workload_of(workload).ok_or_else(|| format!("unknown workload {workload}"))?,
        n: field("n")?.as_f64().ok_or("n")? as i64,
        grid: field("grid")?
            .as_arr()
            .ok_or("grid")?
            .iter()
            .map(|d| d.as_f64().map(|f| f as i64).ok_or("grid".to_string()))
            .collect::<Result<_, _>>()?,
        machine: machine_of(machine).ok_or_else(|| format!("unknown machine {machine}"))?,
    };
    Ok(cell.id())
}

fn cell_metrics(c: &Json) -> Result<CellMetrics, String> {
    Ok(CellMetrics {
        virt_bits: c
            .get("virt_s")
            .and_then(Json::as_f64)
            .ok_or("virt_s")?
            .to_bits(),
        messages: c.get("messages").and_then(Json::as_u64).ok_or("messages")?,
        bytes: c.get("bytes").and_then(Json::as_u64).ok_or("bytes")?,
        printed: c
            .get("printed")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|s| s.as_str().unwrap_or("").to_string())
            .collect(),
        wall_s: c.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

fn doc_cells(doc: &Json) -> Result<Vec<(String, CellMetrics)>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some("f90d-results/v1") {
        return Err("not a f90d-results/v1 document".into());
    }
    doc.get("cells")
        .and_then(Json::as_arr)
        .ok_or("document has no cells array")?
        .iter()
        .map(|c| {
            let key = cell_key(c).map_err(|e| format!("bad cell ({e})"))?;
            let m = cell_metrics(c).map_err(|e| format!("cell {key}: missing {e}"))?;
            Ok((key, m))
        })
        .collect()
}

/// Diff `current` against `baseline` (both `f90d-results/v1` trees).
///
/// Virtual time (bit-exact), message count, byte count, PRINT output and
/// the cell set itself are gated; any drift returns `Err` with one line
/// per mismatch. Wall clock is reported in the `Ok` summary and only
/// gated when `wall_tol` is `Some(factor)`: the run fails if any cell is
/// more than `factor`× slower than its baseline wall clock (CI leaves
/// this off — wall clock depends on the host).
pub fn diff_baseline(
    current: &Json,
    baseline: &Json,
    wall_tol: Option<f64>,
) -> Result<String, String> {
    let cur_suite = current.get("suite").and_then(Json::as_str);
    let base_suite = baseline.get("suite").and_then(Json::as_str);
    if cur_suite != base_suite {
        return Err(format!(
            "suite mismatch: current {cur_suite:?} vs baseline {base_suite:?}"
        ));
    }
    let cur = doc_cells(current)?;
    let base = doc_cells(baseline)?;
    let mut drift = Vec::new();
    let mut wall_worst: (f64, &str) = (0.0, "");
    for (key, b) in &base {
        match cur.iter().find(|(k, _)| k == key) {
            None => drift.push(format!("{key}: missing from current run")),
            Some((_, c)) => {
                if c.virt_bits != b.virt_bits {
                    drift.push(format!(
                        "{key}: virt_s {} != baseline {}",
                        f64::from_bits(c.virt_bits),
                        f64::from_bits(b.virt_bits)
                    ));
                }
                if c.messages != b.messages {
                    drift.push(format!(
                        "{key}: messages {} != baseline {}",
                        c.messages, b.messages
                    ));
                }
                if c.bytes != b.bytes {
                    drift.push(format!("{key}: bytes {} != baseline {}", c.bytes, b.bytes));
                }
                if c.printed != b.printed {
                    drift.push(format!("{key}: PRINT output differs from baseline"));
                }
                if b.wall_s > 0.0 {
                    let ratio = c.wall_s / b.wall_s;
                    if ratio > wall_worst.0 {
                        wall_worst = (ratio, key);
                    }
                    if let Some(tol) = wall_tol {
                        if ratio > tol {
                            drift.push(format!(
                                "{key}: wall clock {:.4}s > {tol}x baseline {:.4}s",
                                c.wall_s, b.wall_s
                            ));
                        }
                    }
                }
            }
        }
    }
    for (key, _) in &cur {
        if !base.iter().any(|(k, _)| k == key) {
            drift.push(format!("{key}: not in baseline (add it by regenerating)"));
        }
    }
    if drift.is_empty() {
        Ok(format!(
            "{} cells match baseline bit-exactly; worst wall-clock ratio {:.2}x ({})",
            base.len(),
            wall_worst.0,
            wall_worst.1
        ))
    } else {
        Err(drift.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_order_is_canonical_and_ids_unique() {
        let cells = matrix(Scale::Quick);
        let ids: Vec<String> = cells.iter().map(Cell::id).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate cell ids");
        // Canonical order: same every call.
        assert_eq!(
            ids,
            matrix(Scale::Quick)
                .iter()
                .map(Cell::id)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_scale_covers_all_workloads_and_machines() {
        for scale in [Scale::Tiny, Scale::Quick, Scale::Full] {
            let cells = matrix(scale);
            for w in ["gaussian", "jacobi", "fft", "irregular"] {
                assert!(cells.iter().any(|c| c.workload == w), "{scale:?} {w}");
            }
            assert!(cells.iter().any(|c| c.machine == "ncube2"));
        }
    }
}
