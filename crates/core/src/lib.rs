//! # f90d-core — the Fortran 90D/HPF compiler
//!
//! The paper's primary contribution (its Figure 1 pipeline):
//!
//! ```text
//! Fortran 90D/HPF source
//!   → lexer & parser                 (f90d-frontend)
//!   → normalization to FORALL form   (f90d-frontend::normalize)
//!   → data partitioning              (codegen → f90d-distrib DADs)
//!   → computation partitioning       (codegen, paper §4: owner computes,
//!                                     set_BOUND, non-canonical fallbacks)
//!   → communication detection        (detect, Algorithm 1 + Tables 1/2)
//!   → communication insertion        (codegen → collective calls)
//!   → optimization                   (optimize, paper §7)
//!   → SPMD node program              (ir; displayable as Fortran 77+MP
//!                                     via fortran_out)
//! ```
//!
//! Execution is loosely synchronous over a simulated MIMD machine: the
//! node program is lowered to register bytecode ([`vmlower`]) and run by
//! [`f90d_vm::Engine`] on a [`f90d_machine::Machine`]; correctness is
//! checked against the sequential [`mod@reference`] interpreter.
//!
//! ## Quick example
//!
//! ```
//! use f90d_core::{compile, CompileOptions};
//! use f90d_machine::{Machine, MachineSpec};
//! use f90d_distrib::ProcGrid;
//!
//! let src = "
//! PROGRAM JACOBI1
//! INTEGER, PARAMETER :: N = 16
//! REAL A(N), B(N)
//! C$ PROCESSORS P(4)
//! C$ TEMPLATE T(N)
//! C$ ALIGN A(I) WITH T(I)
//! C$ ALIGN B(I) WITH T(I)
//! C$ DISTRIBUTE T(BLOCK)
//! FORALL (I=1:N) B(I) = 1.0
//! FORALL (I=2:N-1) A(I) = 0.5*(B(I-1) + B(I+1))
//! END
//! ";
//! let compiled = compile(src, &CompileOptions::default()).unwrap();
//! let mut machine = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[4]));
//! let report = compiled.run_on(&mut machine).unwrap();
//! assert!(report.elapsed > 0.0);
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod detect;
pub mod fortran_out;
pub mod ir;
pub mod optimize;
pub mod options;
pub mod reference;
pub mod vmlower;

use std::sync::{Arc, OnceLock};

use f90d_frontend::sema::AnalyzedProgram;
use f90d_machine::{KeyedCache, Machine};
use f90d_vm::cache::fnv1a;
use f90d_vm::{Engine, VmProgram};

pub use f90d_vm::{RunReport as ExecReport, VmError as ExecError};
pub use options::{Backend, CompileOptions, OptFlags};

/// A compiled program: the SPMD IR plus the analyzed source it came from.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The SPMD node program.
    pub spmd: ir::SProgram,
    /// The analyzed + normalized front-end form (kept for the reference
    /// interpreter and for diagnostics).
    pub analyzed: AnalyzedProgram,
    /// The options it was compiled with.
    pub options: CompileOptions,
    /// Hash of the source text — with the options and grid it keys the
    /// bytecode program cache ([`ProgramKey`]).
    pub source_hash: u64,
}

/// Per-run cache outcomes of one [`Compiled::run_on_traced`] call. The
/// parallel repro harness records this per matrix cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTrace {
    /// Bytecode program-cache outcome: `true` hit, `false` this run
    /// performed the lowering.
    pub program_cache_hit: bool,
    /// Cross-run schedule-cache hits (first-per-run patterns found
    /// already built by an earlier run).
    pub sched_hits: u64,
    /// Cross-run schedule-cache misses (inspector builds performed).
    pub sched_misses: u64,
    /// Pool workers the machine held for this run's local phases (0 =
    /// sequential, either by mode or because the process-wide worker
    /// budget was exhausted when the machine leased). Serve telemetry
    /// and `results.json` report this per request/cell.
    pub workers: usize,
    /// FORALL executions dispatched to a native-tier kernel.
    /// Informational — the tiers are bit-identical on every virtual
    /// metric.
    pub native_matched: u64,
    /// FORALL executions that ran the bytecode element loop instead: no
    /// kernel was selected at lowering, a dispatch precondition failed,
    /// or the overlap split-phase path ran.
    pub native_fallback: u64,
    /// Comm phases the shared driver posted as one batched, coalesced
    /// ghost exchange (`comm_plan` on). Informational —
    /// the driver's fallback contract keeps results bit-identical.
    pub comm_groups: u64,
    /// Comm phases the driver refused (planning failed — e.g. mixed
    /// element types) and re-ran statement-by-statement instead.
    pub comm_fallbacks: u64,
}

impl Compiled {
    /// Execute on a machine (which must have the compiled grid shape).
    /// Arrays start zero-initialized; use [`Compiled::engine`] directly
    /// to seed inputs first.
    pub fn run_on(&self, m: &mut Machine) -> Result<ExecReport, ExecError> {
        self.run_on_traced(m).map(|(rep, _)| rep)
    }

    /// [`Compiled::run_on`] that also reports the run's cache outcomes:
    /// the bytecode program-cache lookup and the cross-run
    /// schedule-cache hit/miss counts.
    pub fn run_on_traced(&self, m: &mut Machine) -> Result<(ExecReport, RunTrace), ExecError> {
        let (mut eng, hit) = self.engine_traced(m)?;
        let rep = eng.run(m)?;
        let (native_matched, native_fallback) = eng.native_counts();
        let (comm_groups, comm_fallbacks) = eng.comm.counts();
        Ok((
            rep,
            RunTrace {
                program_cache_hit: hit,
                sched_hits: eng.sched.hits(),
                sched_misses: eng.sched.misses(),
                workers: m.workers(),
                native_matched,
                native_fallback,
                comm_groups,
                comm_fallbacks,
            },
        ))
    }

    /// An [`Engine`] over [`Compiled::vm_program`] with every array
    /// allocated on `m`, configured from [`Compiled::options`] exactly as
    /// [`Compiled::run_on`] runs it. Seed inputs with
    /// [`Engine::seed_array`], then [`Engine::run`].
    pub fn engine(&self, m: &mut Machine) -> Result<Engine, ExecError> {
        self.engine_traced(m).map(|(eng, _)| eng)
    }

    fn engine_traced(&self, m: &mut Machine) -> Result<(Engine, bool), ExecError> {
        let (prog, hit) = self.vm_program_traced().map_err(ExecError)?;
        let mut eng = Engine::new(prog, m);
        eng.sched.reuse = self.options.opt.schedule_reuse;
        eng.sched.use_global = self.options.sched_cache;
        eng.overlap = self.options.opt.comm_compute_overlap;
        eng.plan = self.options.opt.comm_plan;
        eng.exec = self.options.exec_mode;
        Ok((eng, hit))
    }

    /// The lowered bytecode program, via the global cache keyed by
    /// [`ProgramKey`]: repeated runs skip lowering.
    pub fn vm_program(&self) -> Result<Arc<VmProgram>, String> {
        self.vm_program_traced().map(|(p, _)| p)
    }

    /// [`Compiled::vm_program`] that also reports whether the lookup was
    /// a cache hit.
    pub fn vm_program_traced(&self) -> Result<(Arc<VmProgram>, bool), String> {
        let key = (
            self.source_hash,
            self.options.opt.clone(),
            self.spmd.grid_shape.clone(),
        );
        vm_cache().get_or_try_build(&key, || {
            vmlower::lower_with(&self.spmd, self.options.opt.native_kernels)
        })
    }

    /// Render the generated node program as Fortran 77 + MP text.
    pub fn fortran77(&self) -> String {
        fortran_out::to_fortran77(&self.spmd)
    }
}

/// Identity of a bytecode lowering: (source hash, optimization flags,
/// grid shape). Every field is compared by equality, and a new
/// [`OptFlags`] field joins the key through its derived `Hash`/`Eq`.
pub type ProgramKey = (u64, OptFlags, Vec<i64>);

/// The process-wide bytecode program cache.
pub type ProgramCache = KeyedCache<ProgramKey, VmProgram>;

/// Programs the [`vm_cache`] holds (about 20 KB each): a long-running
/// daemon compiling novel programs must not grow without bound.
pub const PROGRAM_CACHE_CAP: usize = 1024;

/// The process-wide bytecode program cache.
pub fn vm_cache() -> &'static ProgramCache {
    static CACHE: OnceLock<ProgramCache> = OnceLock::new();
    CACHE.get_or_init(|| KeyedCache::new(PROGRAM_CACHE_CAP))
}

// The parallel repro harness compiles once and runs the same `Compiled`
// from many workers sharing one `ProgramCache`; losing either bound (for
// example by putting an `Rc` in the IR) is a compile error here, not a
// runtime surprise there.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Compiled>();
    assert_send_sync::<ProgramCache>();
    assert_send_sync::<Arc<VmProgram>>();
};

/// Compile Fortran 90D/HPF source text.
pub fn compile(source: &str, opts: &CompileOptions) -> Result<Compiled, String> {
    let analyzed = f90d_frontend::compile_front(source)?;
    let mut spmd = codegen::lower(&analyzed, opts).map_err(|e| e.to_string())?;
    optimize::optimize(&mut spmd, &opts.opt);
    Ok(Compiled {
        spmd,
        analyzed,
        options: opts.clone(),
        source_hash: fnv1a(source.as_bytes()),
    })
}
