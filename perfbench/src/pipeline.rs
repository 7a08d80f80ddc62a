//! Calls into the program's layers, each wrapped in its span: the
//! compile stages, machine construction, the bytecode engine, the
//! reference interpreter and the result checks.

use std::collections::HashMap;
use std::sync::Arc;

use f90d_core::reference::run_reference;
use f90d_core::{codegen, optimize, Backend, CompileOptions, Compiled};
use f90d_distrib::ProcGrid;
use f90d_machine::{ExecMode, Machine, MachineSpec, Value};
use f90d_vm::{Engine, RunReport, VmProgram};

use crate::gen::Job;
use crate::trace::Tracer;

/// What every run of one program must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Modelled seconds.
    pub virt_s: f64,
    /// Wire messages.
    pub messages: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// PRINT output.
    pub printed: Vec<String>,
}

impl From<&RunReport> for Outcome {
    fn from(r: &RunReport) -> Self {
        Outcome {
            virt_s: r.elapsed,
            messages: r.messages,
            bytes: r.bytes,
            printed: r.printed.clone(),
        }
    }
}

/// One engine execution: the machine and engine stay alive for
/// inspection.
pub struct Executed {
    /// The machine after the run.
    pub machine: Machine,
    /// The engine after the run.
    pub engine: Engine,
    /// The run's report.
    pub report: RunReport,
}

/// A program compiled, lowered and verified against the reference
/// interpreter, with the counts its verified run produced.
pub struct Prepared {
    /// The generated job.
    pub job: Job,
    /// The compiled program.
    pub compiled: Compiled,
    /// The verified run's result.
    pub expect: Outcome,
    /// Gathered arrays and PRINT output matched the reference.
    pub verified: bool,
    /// Comm calls codegen emitted.
    pub comm_calls: u64,
    /// Comm calls `optimize` removed.
    pub comm_calls_removed: u64,
    /// FORALLs given a native kernel at lowering.
    pub native_selected: u64,
    /// FORALL executions of the verified run on a native kernel and on
    /// the bytecode loop.
    pub native_counts: (u64, u64),
    /// Collective calls the machine counted.
    pub collectives: u64,
    /// Comm phases posted as one coalesced exchange.
    pub comm_groups: u64,
    /// Comm phases that fell back to per-statement exchange.
    pub comm_fallbacks: u64,
    /// Directed links that carried traffic (contention model on).
    pub links_used: u64,
    /// Latest rank clock minus the mean rank clock, in seconds.
    pub clock_spread_s: f64,
}

/// The compile options every job runs with: the VM backend on one
/// thread, the default optimisations, comm planning as the job asks.
pub fn options(job: &Job) -> CompileOptions {
    let mut o = CompileOptions::on_grid(&job.grid).with_backend(Backend::Vm);
    o.opt.comm_plan = job.comm_plan;
    o.exec_mode = Some(ExecMode::Sequential);
    o
}

fn comm_census_total(spmd: &f90d_core::ir::SProgram) -> u64 {
    spmd.comm_census().values().sum::<usize>() as u64
}

/// Compile `job` stage by stage, as `f90d_core::compile` does, with a
/// span around each stage.
pub fn compile(tr: &mut Tracer, job: &Job) -> Result<(Compiled, u64, u64), String> {
    let opts = options(job);
    let analyzed = tr.span("frontend", |_| f90d_frontend::compile_front(&job.source))?;
    let mut spmd = tr
        .span("codegen", |_| codegen::lower(&analyzed, &opts))
        .map_err(|e| e.to_string())?;
    let emitted = comm_census_total(&spmd);
    tr.span("optimize", |_| optimize::optimize(&mut spmd, &opts.opt));
    let removed = emitted.saturating_sub(comm_census_total(&spmd));
    let compiled = Compiled {
        spmd,
        analyzed,
        options: opts,
        source_hash: f90d_vm::cache::fnv1a(job.source.as_bytes()),
    };
    Ok((compiled, emitted, removed))
}

/// Build a machine and run `prog` on it, with the engine configured
/// from `opts` as `Compiled::run_on` configures it, except that the
/// global schedule cache is on only if `sched_cache` says so.
pub fn execute(
    tr: &mut Tracer,
    job: &Job,
    opts: &CompileOptions,
    prog: Arc<VmProgram>,
    spec: MachineSpec,
    contention: bool,
    sched_cache: bool,
) -> Result<Executed, String> {
    let mut machine = tr.span("machine.new", |_| {
        let mut m = Machine::new(spec, ProcGrid::new(&job.grid));
        m.set_contention(contention);
        m
    });
    tr.span("engine", |_| {
        let mut engine = Engine::new(prog, &mut machine);
        engine.sched.reuse = opts.opt.schedule_reuse;
        engine.sched.use_global = opts.sched_cache && sched_cache;
        engine.overlap = opts.opt.comm_compute_overlap;
        engine.plan = opts.opt.comm_plan;
        engine.exec = opts.exec_mode;
        let report = engine.run(&mut machine).map_err(|e| e.to_string())?;
        Ok(Executed {
            machine,
            engine,
            report,
        })
    })
}

/// Run a compiled job as configured: its own machine model, contention
/// setting and compile options.
pub fn execute_as_job(
    tr: &mut Tracer,
    job: &Job,
    opts: &CompileOptions,
    prog: Arc<VmProgram>,
) -> Result<Executed, String> {
    execute(tr, job, opts, prog, job.spec(), job.contention, true)
}

fn same_value(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Real(x), Value::Real(y)) => {
            (x.is_nan() && y.is_nan()) || (x - y).abs() <= 1e-9 * (1.0 + y.abs())
        }
        (a, b) => a == b,
    }
}

/// Compile, lower, run once and compare every gathered array and the
/// PRINT output with the sequential reference interpreter.
pub fn prepare(tr: &mut Tracer, job: &Job) -> Result<Prepared, String> {
    let (compiled, comm_calls, comm_calls_removed) = compile(tr, job)?;
    let prog = tr.span("vmlower", |_| compiled.vm_program())?;
    let native_selected = prog.foralls.iter().filter(|f| f.native.is_some()).count() as u64;
    let reference = tr.span("reference", |_| {
        run_reference(&compiled.analyzed, &HashMap::new())
    })?;
    let mut ex = execute_as_job(tr, job, &compiled.options, prog)?;
    let verified = tr.span("check", |_| {
        let arrays_match = reference.arrays.iter().all(|(name, want)| {
            ex.engine
                .gather_array(&mut ex.machine, name)
                .is_some_and(|got| {
                    got.len() == want.data.len()
                        && (0..got.len()).all(|k| same_value(got.get(k), want.data.get(k)))
                })
        });
        arrays_match && ex.report.printed == reference.printed
    });
    let clocks = &ex.machine.transport.clocks;
    let max = clocks.iter().copied().fold(0.0, f64::max);
    let mean = clocks.iter().sum::<f64>() / clocks.len() as f64;
    let (comm_groups, comm_fallbacks) = ex.engine.comm.counts();
    Ok(Prepared {
        job: job.clone(),
        expect: Outcome::from(&ex.report),
        verified,
        comm_calls,
        comm_calls_removed,
        native_selected,
        native_counts: ex.engine.native_counts(),
        collectives: ex.machine.stats.sorted().iter().map(|&(_, c)| c).sum(),
        comm_groups,
        comm_fallbacks,
        links_used: ex.machine.transport.links_used() as u64,
        clock_spread_s: max - mean,
        compiled,
    })
}

/// The job's machine model with message costs removed (α = β = τ = 0):
/// the same run then costs only its computation.
pub fn compute_only(spec: MachineSpec) -> MachineSpec {
    MachineSpec {
        alpha: 0.0,
        beta: 0.0,
        tau: 0.0,
        ..spec
    }
}
