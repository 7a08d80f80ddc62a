//! One benchmark run: set up, measure for the requested seconds, check
//! every result, derive the metrics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use f90d_core::Backend;
use f90d_serve::{Client, RunRequest, ServeConfig, Server, ServerHandle};
use serde::json::Json;

use crate::gen::{self, Job, Rng, Workload};
use crate::host::Speed;
use crate::metrics::{self, median, quantile, ratio};
use crate::pipeline::{self, execute, execute_as_job, Outcome, Prepared};
use crate::trace::{self, Tracer};

/// Set-ups per run: at least `SETUP_MIN`, then more while the run has
/// spent less than `SETUP_BUDGET` on them. `setup_s` is their median at
/// the reference host speed. The host's speed drifts over seconds, so
/// set-ups spread over a few seconds give a steadier median than the
/// same number back to back.
const SETUP_MIN: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(5);

/// Repetitions of each differential configuration in a traced run.
const DIFF_REPS: usize = 3;

/// The op order of a batch workload, by program index. The host's speed
/// drifts by up to about 1.5× over seconds, so each program's latencies
/// form a fast and a slow cluster. The heavy program is at least twice
/// as slow as the frequent one, and runs once per three ops: the median
/// then sits in the upper part of the frequent program's latencies and
/// the 90th percentile inside the heavy one's, so neither moves unless
/// most of the window ran fast.
const BATCH_CYCLE: [usize; 3] = [0, 0, 1];

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Generator seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Traced run: print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Checked results: every check counts as attempted, every mismatch or
/// error as failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a finished run reports.
pub struct Report {
    /// All checks of the run.
    pub tally: Tally,
    /// End-to-end or per-layer values, as `--trace` asks.
    pub values: BTreeMap<&'static str, f64>,
    /// The virtual-invariance record.
    pub record: BTreeMap<&'static str, f64>,
    /// The trace document (traced runs only).
    pub trace: Option<Json>,
    /// Info lines printed before the result line.
    pub info: Vec<String>,
}

/// Key of an op in [`Window::ops`] that ran a novel serve job.
const NOVEL: usize = usize::MAX;

/// The measured window.
#[derive(Default)]
struct Window {
    /// Each op: its program (an index into the prepared programs, or
    /// [`NOVEL`]), whether it was traced, its host latency in ms.
    ops: Vec<(usize, bool, f64)>,
    /// Completion time of each op, in seconds since the window opened.
    done_s: Vec<f64>,
    /// Checks of the window's ops.
    tally: Tally,
    /// Window length actually measured.
    elapsed_s: f64,
    /// Host-speed kernel times sampled through the window.
    speed: Speed,
}

impl Window {
    /// Record an op of program `key` sent at `sent`, completing now.
    fn record(&mut self, key: usize, traced: bool, sent: Instant, start: Instant) {
        let done = Instant::now();
        let ms = done.duration_since(sent).as_secs_f64() * 1e3;
        self.ops.push((key, traced, ms));
        self.done_s.push(done.duration_since(start).as_secs_f64());
    }

    /// Host latency of each untraced op.
    fn untraced_ms(&self) -> Vec<f64> {
        self.ops.iter().filter(|o| !o.1).map(|o| o.2).collect()
    }

    /// Tracing overhead per op: for each program, the median latency of
    /// its traced ops minus that of its untraced ones, averaged with
    /// weights by op count. Traced and untraced ops alternate through
    /// the window, so a drift of the host's speed falls on both alike.
    fn trace_overhead_ms(&self) -> f64 {
        let mut by_key: BTreeMap<usize, [Vec<f64>; 2]> = BTreeMap::new();
        for &(key, traced, ms) in &self.ops {
            by_key.entry(key).or_default()[usize::from(traced)].push(ms);
        }
        let (mut sum, mut n) = (0.0, 0.0);
        for [untraced, traced] in by_key.values() {
            if !untraced.is_empty() && !traced.is_empty() {
                let w = (untraced.len() + traced.len()) as f64;
                sum += w * (median(traced) - median(untraced));
                n += w;
            }
        }
        ratio(sum, n)
    }

    /// Verified ops per second, sustained: the completions are cut into
    /// chunks of `k` consecutive ops, and the rate three quarters of the
    /// chunks reached is reported. The host's speed drifts over seconds,
    /// and for a while runs up to about 1.5x faster; a mean over the
    /// window moves with the share of time spent fast, this rate only
    /// when most of the window ran fast. The latency quantiles hold up
    /// the same way (see [`BATCH_CYCLE`]). Chunk times include the
    /// host-speed kernel samples taken between ops, a fixed few percent.
    fn ops_per_s(&mut self, k: usize) -> f64 {
        self.done_s.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        let rates: Vec<f64> = self
            .done_s
            .chunks_exact(k)
            .map(|c| {
                let rate = k as f64 / (c[k - 1] - prev);
                prev = c[k - 1];
                rate
            })
            .collect();
        let ok = ratio(
            (self.tally.attempted - self.tally.failed) as f64,
            self.tally.attempted as f64,
        );
        quantile(&rates, 0.25) * ok
    }
}

/// Serve completions per chunk of [`Window::ops_per_s`].
const SERVE_CHUNK: usize = 64;

/// Reads the resident-memory high-water mark once, when the window's
/// `at`-th op completes: the daemon's memory grows with every novel
/// program it compiles, so the reading covers the same amount of work
/// however fast the host ran.
struct RssProbe {
    at: u64,
    done: AtomicU64,
    mb_bits: AtomicU64,
}

impl RssProbe {
    fn new(at: u64) -> Self {
        RssProbe {
            at,
            done: AtomicU64::new(0),
            mb_bits: AtomicU64::new(0),
        }
    }

    fn op_done(&self) {
        // Relaxed: a statistic, read after the window's threads joined.
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let mb = metrics::peak_rss_mb();
            self.mb_bits.store(mb.to_bits(), Ordering::Relaxed);
        }
    }

    /// The reading, or the current mark if fewer than `at` ops completed.
    fn mb(&self) -> f64 {
        if self.done.load(Ordering::Relaxed) >= self.at {
            f64::from_bits(self.mb_bits.load(Ordering::Relaxed))
        } else {
            metrics::peak_rss_mb()
        }
    }
}

/// Serve telemetry summed over run responses.
#[derive(Default)]
struct Telemetry {
    responses: f64,
    exec_ms: f64,
    queue_wait_ms: f64,
    lease_wait_ms: f64,
    compile_hits: f64,
    joined: f64,
}

fn clear_caches() {
    f90d_core::vm_cache().clear();
    f90d_comm::sched_cache::global().clear();
}

fn cache_counters() -> [f64; 4] {
    let vm = f90d_core::vm_cache();
    let sc = f90d_comm::sched_cache::global();
    [vm.hits(), vm.misses(), sc.hits(), sc.misses()].map(|c| c as f64)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Prepare every job, checking each against the reference, with a
/// host-speed sample after each.
fn prepare_all(
    tr: &mut Tracer,
    jobs: &[Job],
    tally: &mut Tally,
    speed: &mut Speed,
) -> Result<Vec<Prepared>, String> {
    let mut prepared = Vec::new();
    for j in jobs {
        let p = pipeline::prepare(tr, j).map_err(|e| format!("{}: {e}", j.label))?;
        tally.check(p.verified);
        prepared.push(p);
        speed.sample();
    }
    Ok(prepared)
}

/// One warm op of a batch workload: program-cache lookup, machine
/// build, engine run, result check.
fn batch_op(tr: &mut Tracer, p: &Prepared) -> Result<bool, String> {
    tr.span("op", |tr| {
        let prog = p.compiled.vm_program()?;
        let ex = execute_as_job(tr, &p.job, &p.compiled.options, prog)?;
        Ok(tr.span("check", |_| Outcome::from(&ex.report) == p.expect))
    })
}

fn serve_request(job: &Job) -> RunRequest {
    RunRequest {
        source: job.source.clone(),
        grid: job.grid.clone(),
        machine: job.machine.to_string(),
        backend: Backend::Vm,
        sched_cache: true,
        threaded: false,
        overlap: false,
    }
}

fn response_outcome(resp: &Json) -> Option<Outcome> {
    if resp.get("ok") != Some(&Json::Bool(true)) {
        return None;
    }
    let r = resp.get("result")?;
    Some(Outcome {
        virt_s: r.get("elapsed_virt_s")?.as_f64()?,
        messages: r.get("messages")?.as_u64()?,
        bytes: r.get("bytes")?.as_u64()?,
        printed: r
            .get("printed")?
            .as_arr()?
            .iter()
            .map(|s| s.as_str().map(String::from))
            .collect::<Option<_>>()?,
    })
}

/// Everything one serve client saw.
struct ClientLog {
    window: Window,
    novel: Vec<(Job, Option<Outcome>)>,
    telemetry: Telemetry,
    tracer: Tracer,
}

/// One closed-loop client: send, wait for the reply, send the next.
/// Every fourth request is a novel job; the rest repeat the hot set.
fn serve_client(
    mut client: Client,
    hot: &[Prepared],
    cid: usize,
    args: &Args,
    (epoch, start): (Instant, Instant),
    rss: &RssProbe,
) -> ClientLog {
    let mut log = ClientLog {
        window: Window::default(),
        novel: Vec::new(),
        telemetry: Telemetry::default(),
        tracer: Tracer::new(false, epoch),
    };
    let mut pick = Rng::new(args.seed, 100 + cid as u64);
    let mut draw = Rng::new(args.seed, 200 + cid as u64);
    let deadline = start + Duration::from_secs(args.seconds);
    for k in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        // Traced and untraced groups of four requests (one of them
        // novel) alternate.
        log.tracer.on = args.trace && (k / 4) % 2 == 1;
        let (key, job, expect) = if gen::is_novel(k) {
            (NOVEL, gen::novel_job(&mut draw, cid, k), None)
        } else {
            let i = pick.range(0, hot.len() as i64 - 1) as usize;
            (i, hot[i].job.clone(), Some(&hot[i].expect))
        };
        let req = serve_request(&job);
        let t = Instant::now();
        let resp = log.tracer.span("op", |_| client.run(&req));
        log.window.record(key, log.tracer.on, t, start);
        rss.op_done();
        if k % SERVE_CHUNK == SERVE_CHUNK - 1 {
            log.window.speed.sample();
        }
        let Ok(resp) = resp else {
            log.window.tally.check(false);
            break;
        };
        if let Some(tel) = resp.get("telemetry") {
            let num = |k: &str| tel.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let flag = |k: &str| f64::from(u8::from(tel.get(k) == Some(&Json::Bool(true))));
            let s = &mut log.telemetry;
            s.responses += 1.0;
            s.exec_ms += num("exec_ms");
            s.queue_wait_ms += num("queue_wait_ms");
            s.lease_wait_ms += num("lease_wait_ms");
            s.compile_hits += flag("compile_cache_hit");
            s.joined += flag("joined");
        }
        let got = response_outcome(&resp);
        match expect {
            Some(want) => log.window.tally.check(got.as_ref() == Some(want)),
            // Checked after the window against an in-process verified run.
            None => log.novel.push((job, got)),
        }
    }
    log
}

/// Check each novel job's response against an in-process verified run;
/// also returns the runs' native dispatch counts and their spans.
fn verify_novel(
    jobs: &[(Job, Option<Outcome>)],
    trace: bool,
    epoch: Instant,
) -> Result<(Tally, (u64, u64), Tracer), String> {
    let mut tr = Tracer::new(trace, epoch);
    let (mut tally, mut native) = (Tally::default(), (0, 0));
    for (job, got) in jobs {
        let p = pipeline::prepare(&mut tr, job)?;
        tally.check(p.verified && got.as_ref() == Some(&p.expect));
        native = (native.0 + p.native_counts.0, native.1 + p.native_counts.1);
    }
    Ok((tally, native, tr))
}

/// Build the set-up state: caches cleared, programs compiled and
/// verified, and for `serve` a fresh daemon warmed with the hot set.
/// Samples the host's speed between its steps: a sample is short and the
/// host's speed changes within a set-up, so one at each end would miss
/// the long steps between them.
fn setup(
    tr: &mut Tracer,
    wl: Workload,
    jobs: &[Job],
    tally: &mut Tally,
    speed: &mut Speed,
) -> Result<(Vec<Prepared>, Option<ServerHandle>), String> {
    clear_caches();
    let server = match wl {
        Workload::Serve => {
            Some(Server::spawn(ServeConfig::default()).map_err(|e| format!("server spawn: {e}"))?)
        }
        _ => None,
    };
    // The daemon polls for connections every 10 ms. Connecting before
    // the compiles lets it accept while they run; connecting after them
    // would add a wait that jumps between 0 and 10 ms as the compiles'
    // time moves across a poll.
    let client = match &server {
        Some(server) => Some(Client::connect(server.addr).map_err(|e| e.to_string())?),
        None => None,
    };
    speed.sample();
    let prepared = prepare_all(tr, jobs, tally, speed)?;
    if let Some(mut client) = client {
        for p in &prepared {
            let resp = client.run(&serve_request(&p.job));
            tally.check(resp.ok().as_ref().and_then(response_outcome) == Some(p.expect.clone()));
        }
        speed.sample();
    }
    Ok((prepared, server))
}

/// The virtual-invariance record: exact modelled times and counts of
/// one pass over the workload's distinct programs.
fn virt_record(prepared: &[Prepared]) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut quiet = Tracer::new(false, Instant::now());
    let (mut virt, mut compute, mut contention, mut spread) = (0.0, 0.0, 0.0, 0.0);
    let mut counts = [0u64; 9];
    for p in prepared {
        let prog = p.compiled.vm_program()?;
        virt += p.expect.virt_s;
        spread += p.clock_spread_s;
        let spec = pipeline::compute_only(p.job.spec());
        let opts = &p.compiled.options;
        compute += execute(&mut quiet, &p.job, opts, prog.clone(), spec, false, true)?
            .report
            .elapsed;
        if p.job.contention {
            let off = execute(&mut quiet, &p.job, opts, prog, p.job.spec(), false, true)?;
            contention += p.expect.virt_s - off.report.elapsed;
        }
        let row = [
            p.expect.messages,
            p.expect.bytes,
            p.collectives,
            p.comm_groups,
            p.comm_fallbacks,
            p.comm_calls,
            p.comm_calls_removed,
            p.native_selected,
            p.links_used,
        ];
        for (c, v) in counts.iter_mut().zip(row) {
            *c += v;
        }
    }
    let names = [
        "comm.messages",
        "comm.bytes",
        "comm.collectives",
        "comm.groups",
        "comm.fallbacks",
        "codegen.comm_calls",
        "optimize.comm_calls_removed",
        "native.selected",
        "net.links_used",
    ];
    let mut rec: BTreeMap<&'static str, f64> =
        names.into_iter().zip(counts.map(|c| c as f64)).collect();
    rec.insert("virt_s", virt);
    rec.insert("virt.compute_s", compute);
    rec.insert("virt.comm_s", virt - compute);
    rec.insert("virt.contention_s", contention);
    rec.insert("virt.imbalance", ratio(spread, virt));
    Ok(rec)
}

/// Median host ms of `b` minus median host ms of `a`, alternating
/// which runs first.
fn paired_ms(
    mut a: impl FnMut() -> Result<(), String>,
    mut b: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for r in 0..DIFF_REPS {
        for first in [r % 2 == 0, r % 2 != 0] {
            let t = Instant::now();
            if first {
                a()?;
                ta.push(ms_since(t));
            } else {
                b()?;
                tb.push(ms_since(t));
            }
        }
    }
    Ok(median(&tb) - median(&ta))
}

/// Host ms per op that native kernels, the schedule cache and
/// contention pricing account for, from runs with each switched.
fn differentials(prepared: &[Prepared]) -> Result<[f64; 3], String> {
    let mut sums = [0.0; 3];
    for p in prepared {
        let on = p.compiled.vm_program()?;
        let off = Arc::new(f90d_core::vmlower::lower_with(&p.compiled.spmd, false)?);
        let run = |prog: &Arc<_>, contention, sched_cache| {
            let mut quiet = Tracer::new(false, Instant::now());
            let spec = p.job.spec();
            execute(
                &mut quiet,
                &p.job,
                &p.compiled.options,
                Arc::clone(prog),
                spec,
                contention,
                sched_cache,
            )
            .map(drop)
        };
        let c = p.job.contention;
        sums[0] += paired_ms(|| run(&on, c, true), || run(&off, c, true))?;
        sums[1] += paired_ms(|| run(&on, c, true), || run(&on, c, false))?;
        if c {
            sums[2] += paired_ms(|| run(&on, false, true), || run(&on, true, true))?;
        }
    }
    Ok(sums.map(|s| s / prepared.len() as f64))
}

/// Run the benchmark.
pub fn run(args: &Args, epoch: Instant) -> Result<Report, String> {
    let wl = args.workload;
    let jobs = gen::batch_jobs(wl, args.seed);
    let mut tr = Tracer::new(args.trace, epoch);
    let mut tally = Tally::default();
    let mut info = vec![format!(
        "# perfbench workload={} seed={} seconds={} trace={} jobs=[{}]",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        jobs.iter()
            .map(|j| j.label.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    )];

    // Each set-up is timed from its start until the first op is ready,
    // less the time its host-speed samples took.
    let mut setups_s = Vec::new();
    let mut setup_speed = Speed::default();
    let mut state = None;
    let t0 = Instant::now();
    while setups_s.len() < SETUP_MIN || t0.elapsed() < SETUP_BUDGET {
        if let Some((_, Some(server))) = state.take() {
            ServerHandle::shutdown(server).map_err(|e| e.to_string())?;
        }
        let sampled_ms = setup_speed.sampled_ms();
        let t = Instant::now();
        state = Some(setup(&mut tr, wl, &jobs, &mut tally, &mut setup_speed)?);
        setups_s.push(t.elapsed().as_secs_f64() - (setup_speed.sampled_ms() - sampled_ms) / 1e3);
    }
    let (prepared, server) = state.expect("at least one set-up");

    // The measured window.
    let c0 = cache_counters();
    let c1;
    let mut window = Window::default();
    let mut telemetry = Telemetry::default();
    let mut pool = [0.0; 2];
    let mut novel_native = (0, 0);
    // Batch memory is flat after the first ops; the daemon's grows with
    // every novel program.
    let (chunk, rss) = match server {
        Some(_) => (SERVE_CHUNK, RssProbe::new(8000)),
        None => (BATCH_CYCLE.len(), RssProbe::new(100)),
    };
    let start = Instant::now();
    match &server {
        None => {
            let deadline = start + Duration::from_secs(args.seconds);
            for i in 0.. {
                if Instant::now() >= deadline {
                    break;
                }
                // Traced and untraced cycles alternate.
                tr.on = args.trace && (i / BATCH_CYCLE.len()) % 2 == 1;
                let key = BATCH_CYCLE[i % BATCH_CYCLE.len()];
                let t = Instant::now();
                let ok = batch_op(&mut tr, &prepared[key]);
                window.record(key, tr.on, t, start);
                rss.op_done();
                if i % BATCH_CYCLE.len() == BATCH_CYCLE.len() - 1 {
                    window.speed.sample();
                }
                if let Err(e) = &ok {
                    eprintln!("op failed: {e}");
                }
                window.tally.check(ok == Ok(true));
            }
            window.elapsed_s = start.elapsed().as_secs_f64();
            c1 = cache_counters();
        }
        Some(server) => {
            let state = server.state();
            let pool0 = [state.pool.created(), state.pool.reused()];
            let clients = (0..2)
                .map(|_| Client::connect(server.addr))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let logs: Vec<ClientLog> = std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .into_iter()
                    .enumerate()
                    .map(|(cid, c)| {
                        let hot = &prepared;
                        let rss = &rss;
                        s.spawn(move || serve_client(c, hot, cid, args, (epoch, start), rss))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("serve client panicked"))
                    .collect()
            });
            window.elapsed_s = start.elapsed().as_secs_f64();
            c1 = cache_counters();
            pool = [
                (state.pool.created() - pool0[0]) as f64,
                (state.pool.reused() - pool0[1]) as f64,
            ];
            // Novel jobs are checked against in-process verified runs,
            // compiled from cold caches as the daemon compiled them, one
            // thread per client.
            clear_caches();
            let mut novel = Vec::new();
            for log in logs {
                window.ops.extend(log.window.ops);
                window.done_s.extend(log.window.done_s);
                window.speed.extend(log.window.speed);
                window.tally.add(log.window.tally);
                tr.absorb(log.tracer);
                let t = log.telemetry;
                telemetry.responses += t.responses;
                telemetry.exec_ms += t.exec_ms;
                telemetry.queue_wait_ms += t.queue_wait_ms;
                telemetry.lease_wait_ms += t.lease_wait_ms;
                telemetry.compile_hits += t.compile_hits;
                telemetry.joined += t.joined;
                novel.push(log.novel);
            }
            let checked = std::thread::scope(|s| {
                let handles: Vec<_> = novel
                    .iter()
                    .map(|jobs| s.spawn(|| verify_novel(jobs, args.trace, epoch)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("novel verification panicked"))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            for (t, native, tracer) in checked {
                window.tally.add(t);
                novel_native = (novel_native.0 + native.0, novel_native.1 + native.1);
                tr.absorb(tracer);
            }
        }
    }
    if let Some(server) = server {
        server.shutdown().map_err(|e| e.to_string())?;
    }
    tr.on = false;
    tally.add(window.tally);
    let lat_ms = window.untraced_ms();
    let (ops_per_s, p50, p90) = (
        window.ops_per_s(chunk),
        median(&lat_ms),
        quantile(&lat_ms, 0.9),
    );
    info.push(format!(
        "# ops={} window_s={:.3} unscaled: setups_s={setups_s:?} setup_kernel_ms={} \
         ops_per_s={ops_per_s} op_ms_p50={p50} op_ms_p90={p90} host_kernel_ms={}",
        window.tally.attempted,
        window.elapsed_s,
        setup_speed.median_ms(),
        window.speed.kernel_ms(),
    ));

    let record = virt_record(&prepared)?;
    let mut values = BTreeMap::new();
    let mut trace_doc = None;
    if !args.trace {
        // Window host times at the reference host speed (see `host`).
        let scale = window.speed.scale();
        values.insert("setup_s", median(&setups_s) * setup_speed.setup_scale());
        values.insert("ops_per_s", ops_per_s / scale);
        values.insert("op_ms_p50", p50 * scale);
        values.insert("op_ms_p90", p90 * scale);
        values.insert("virt_s", record["virt_s"]);
        values.insert("peak_rss_mb", rss.mb());
        values.insert(
            "ok_frac",
            1.0 - ratio(tally.failed as f64, tally.attempted as f64),
        );
    } else {
        let [saved_native, saved_sched, contention] = differentials(&prepared)?;
        let spans = tr.spans();
        let selfs = trace::self_times(spans);
        let layer = |name| trace::mean_self_ms(spans, &selfs, name);
        for (key, span) in [
            ("frontend.ms", "frontend"),
            ("codegen.ms", "codegen"),
            ("optimize.ms", "optimize"),
            ("vmlower.ms", "vmlower"),
            ("machine.new_ms", "machine.new"),
            ("engine.ms", "engine"),
            ("reference.ms", "reference"),
            ("check.ms", "check"),
            ("op.self_ms", "op"),
        ] {
            values.insert(key, layer(span));
        }
        let d = [c1[0] - c0[0], c1[1] - c0[1], c1[2] - c0[2], c1[3] - c0[3]];
        values.insert("vm_cache.hit_ratio", ratio(d[0], d[0] + d[1]));
        values.insert("sched_cache.hit_ratio", ratio(d[2], d[2] + d[3]));
        values.insert("mpool.reuse_ratio", ratio(pool[1], pool[0] + pool[1]));
        // Dispatch counts are fixed per program; weigh every distinct
        // program the run executed once.
        let (matched, fallback) = prepared.iter().fold(novel_native, |(m, f), p| {
            (m + p.native_counts.0, f + p.native_counts.1)
        });
        let (matched, fallback) = (matched as f64, fallback as f64);
        values.insert("native.match_ratio", ratio(matched, matched + fallback));
        values.insert("native.saved_ms", saved_native);
        values.insert("sched_cache.saved_ms", saved_sched);
        values.insert("net.contention_ms", contention);
        let n = telemetry.responses;
        values.insert("serve.exec_ms", ratio(telemetry.exec_ms, n));
        values.insert("serve.queue_wait_ms", ratio(telemetry.queue_wait_ms, n));
        values.insert("serve.lease_wait_ms", ratio(telemetry.lease_wait_ms, n));
        values.insert("serve.compile_hit_ratio", ratio(telemetry.compile_hits, n));
        values.insert("serve.join_ratio", ratio(telemetry.joined, n));
        values.insert("trace.overhead_ms", window.trace_overhead_ms());
        values.insert(
            "fail_frac",
            ratio(tally.failed as f64, tally.attempted as f64),
        );
        values.insert("host.kernel_ms", window.speed.kernel_ms());
        for (k, v) in &record {
            if *k != "virt_s" {
                values.insert(k, *v);
            }
        }
        trace_doc = Some(trace::to_json(
            spans,
            vec![
                ("workload".into(), Json::Str(wl.name().into())),
                ("seed".into(), Json::Num(args.seed as f64)),
            ],
        ));
    }
    Ok(Report {
        tally,
        values,
        record,
        trace: trace_doc,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::self_times;

    fn small_jobs() -> Vec<Job> {
        let mut jobs = gen::serve_hot_set(3);
        jobs.push(Job {
            label: "gaussian(16) on a fat tree".into(),
            source: f90d_bench::workloads::gaussian(16),
            grid: vec![16],
            machine: "fattree-4x4",
            contention: true,
            comm_plan: false,
        });
        jobs
    }

    #[test]
    fn virtual_metrics_repeat_exactly_across_two_runs() {
        let record = || {
            let mut tr = Tracer::new(false, Instant::now());
            let (mut tally, mut speed) = (Tally::default(), Speed::default());
            let prepared = prepare_all(&mut tr, &small_jobs(), &mut tally, &mut speed).unwrap();
            virt_record(&prepared).unwrap()
        };
        let (a, b) = (record(), record());
        assert_eq!(a.len(), b.len());
        for (k, v) in &a {
            assert_eq!(v.to_bits(), b[k].to_bits(), "{k}");
        }
        assert!(a["virt.contention_s"] > 0.0 && a["comm.messages"] > 0.0);
    }

    #[test]
    fn trace_overhead_compares_each_program_with_itself() {
        let mut w = Window::default();
        for (key, ms) in [(0, 10.0), (1, 40.0)] {
            for k in 0..4 {
                w.ops.push((key, false, ms + k as f64));
                w.ops.push((key, true, ms + k as f64 + 0.5));
            }
        }
        // A program that ran only untraced adds nothing.
        w.ops.push((NOVEL, false, 1000.0));
        assert_eq!(w.trace_overhead_ms(), 0.5);
        assert_eq!(w.untraced_ms().len(), 9);
    }

    #[test]
    fn traced_self_times_never_exceed_their_parent_span() {
        let mut tr = Tracer::new(true, Instant::now());
        let mut tally = Tally::default();
        let prepared =
            prepare_all(&mut tr, &small_jobs(), &mut tally, &mut Speed::default()).unwrap();
        for p in &prepared {
            assert_eq!(batch_op(&mut tr, p), Ok(true), "{}", p.job.label);
        }
        assert_eq!(tally.failed, 0);
        let spans = tr.spans();
        assert!(spans.iter().any(|s| s.parent.is_some()));
        for (s, own) in spans.iter().zip(self_times(spans)) {
            assert!(own >= 0 && own as u64 <= s.dur_ns(), "{}", s.name);
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                assert_eq!(parent.op, s.op);
            }
        }
    }

    #[test]
    fn a_traced_serve_run_checks_every_response_and_reports_every_layer() {
        let args = Args {
            workload: Workload::Serve,
            seed: 4,
            seconds: 1,
            trace: true,
        };
        let rep = run(&args, Instant::now()).unwrap();
        assert_eq!(rep.tally.failed, 0);
        assert!(rep.tally.attempted > 8);
        let mut values = rep.values;
        values.insert("virt.record_diffs", 0.0);
        metrics::result_line(1, 0, &metrics::PER_LAYER, &values);
        assert!(values["serve.compile_hit_ratio"] > 0.0);
    }
}
