//! Experiment runners — one per paper table/figure and ablation (index
//! in README.md). Every function returns plain data so the `repro`
//! binary, the criterion benches and the integration tests all draw
//! from the same source.

use std::sync::Arc;

use f90d_core::{compile, CompileOptions, Compiled, OptFlags};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, ExecMode, Machine, MachineSpec};
use f90d_vm::Engine;

use crate::handwritten::ge_handwritten;
use crate::workloads;

/// Compile + run Gaussian elimination on `p` processors of `spec`;
/// returns the modelled elimination time (initialization excluded the
/// same way for both variants).
pub fn ge_compiled_time(n: i64, p: i64, spec: &MachineSpec, merge_comm: bool) -> f64 {
    let mut opts = CompileOptions::on_grid(&[p]);
    opts.opt.merge_comm = merge_comm;
    let compiled = compile(&workloads::gaussian(n), &opts).expect("gaussian compiles");
    let mut m = Machine::new(spec.clone(), ProcGrid::new(&[p]));
    // Execute the initialization FORALLs, reset the clock, then eliminate
    // — Table 4 times the solver, not the data generation.
    let fragment = |stmts: &[f90d_core::ir::SStmt]| {
        let prog = f90d_core::ir::SProgram {
            stmts: stmts.to_vec(),
            ..compiled.spmd.clone()
        };
        Arc::new(f90d_core::vmlower::lower(&prog).expect("fragment lowers"))
    };
    let (init, elim) = compiled.spmd.stmts.split_at(2);
    Engine::new(fragment(init), &mut m)
        .run(&mut m)
        .expect("init runs");
    m.reset_time();
    let mut e1 = Engine::new_preserving(fragment(elim), &mut m);
    e1.sched.reuse = true;
    e1.run(&mut m).expect("elimination runs");
    m.elapsed()
}

/// Run `compiled` on a fresh `spec` machine of its grid, configured from
/// its options, and gather `arrays` afterwards: `(report, images)`.
fn run_gather(
    compiled: &Compiled,
    spec: &MachineSpec,
    arrays: &[&str],
) -> (f90d_core::ExecReport, Vec<ArrayData>) {
    let mut m = Machine::new(spec.clone(), ProcGrid::new(&compiled.spmd.grid_shape));
    let mut eng = compiled.engine(&mut m).expect("lowers");
    let rep = eng.run(&mut m).expect("runs");
    let imgs = arrays
        .iter()
        .map(|a| eng.gather_array(&mut m, a).expect("array exists"))
        .collect();
    (rep, imgs)
}

/// One row of the two-tier head-to-head (`repro --exp vmcmp`): best-of-
/// three host wall-clock per execution tier on one workload, plus the
/// modelled metrics that must be bit-identical across tiers.
#[derive(Debug, Clone)]
pub struct TierRow {
    /// Bytecode VM with the native kernel tier disabled.
    pub wall_vm_s: f64,
    /// Bytecode VM with native kernels on (the default configuration).
    pub wall_native_s: f64,
    /// Modelled time of the native run (the bytecode tier must agree).
    pub virt_s: f64,
    /// Virtual time bit-identical across both tiers.
    pub virt_equal: bool,
    /// FORALL executions the native run dispatched to kernels.
    pub native_matched: u64,
    /// FORALL executions the native run left on the bytecode loop.
    pub native_fallback: u64,
}

/// Host wall-clock of one full run of `src` under each execution tier:
/// bytecode VM (`native_kernels` off) and the native kernel tier.
/// Lowering is warmed outside the timed region (the program cache is
/// what repeated-run harnesses hit); each tier gets one warm-up run and
/// then the best of three.
pub fn tier_wallclock(src: &str, grid: &[i64], spec: &MachineSpec) -> TierRow {
    let run = |native: bool| {
        let mut opts = CompileOptions::on_grid(grid);
        opts.opt.native_kernels = native;
        let compiled = compile(src, &opts).expect("compiles");
        compiled.vm_program().expect("lowers");
        // One warm-up, then the best of three timed runs.
        let once = || {
            let mut m = Machine::new(spec.clone(), ProcGrid::new(grid));
            let t0 = std::time::Instant::now();
            let (rep, trace) = compiled.run_on_traced(&mut m).expect("runs");
            (
                t0.elapsed().as_secs_f64(),
                rep.elapsed,
                trace.native_matched,
                trace.native_fallback,
            )
        };
        once();
        (0..3)
            .map(|_| once())
            .fold((f64::INFINITY, 0.0, 0, 0), |acc, r| {
                if r.0 < acc.0 {
                    r
                } else {
                    acc
                }
            })
    };
    let (wv, vv, _, _) = run(false);
    let (wn, vn, matched, fallback) = run(true);
    TierRow {
        wall_vm_s: wv,
        wall_native_s: wn,
        virt_s: vn,
        virt_equal: vv.to_bits() == vn.to_bits(),
        native_matched: matched,
        native_fallback: fallback,
    }
}

/// Hand-written GE time on `p` processors of `spec`.
pub fn ge_hand_time(n: i64, p: i64, spec: &MachineSpec) -> f64 {
    let mut m = Machine::new(spec.clone(), ProcGrid::new(&[p]));
    ge_handwritten(&mut m, n)
}

/// Figure 5: compiled-GE execution time vs problem size on 16 nodes of
/// the iPSC/860 and nCUBE/2 models. Returns `(n, t_ipsc, t_ncube)` rows.
pub fn fig5(sizes: &[i64], p: i64) -> Vec<(i64, f64, f64)> {
    let ipsc = MachineSpec::ipsc860();
    let ncube = MachineSpec::ncube2();
    sizes
        .iter()
        .map(|&n| {
            (
                n,
                ge_compiled_time(n, p, &ipsc, true),
                ge_compiled_time(n, p, &ncube, true),
            )
        })
        .collect()
}

/// One Table 4 row: `(p, hand_time, compiled_time)`.
pub fn table4_row(n: i64, p: i64) -> (i64, f64, f64) {
    let spec = MachineSpec::ipsc860();
    (
        p,
        ge_hand_time(n, p, &spec),
        ge_compiled_time(n, p, &spec, true),
    )
}

/// Table 4: hand-written vs compiled GE, iPSC/860 model.
pub fn table4(n: i64, procs: &[i64]) -> Vec<(i64, f64, f64)> {
    procs.iter().map(|&p| table4_row(n, p)).collect()
}

/// Figure 6: speedups against the sequential (P = 1) run of each code.
pub fn fig6(rows: &[(i64, f64, f64)]) -> Vec<(i64, f64, f64)> {
    let (h1, c1) = (rows[0].1, rows[0].2);
    rows.iter().map(|&(p, h, c)| (p, h1 / h, c1 / c)).collect()
}

/// Table 3 microbenchmarks: modelled time of one representative intrinsic
/// per category on a 16-node iPSC/860. Returns `(category, intrinsic,
/// seconds)`.
pub fn table3_microbench(n: i64) -> Vec<(&'static str, &'static str, f64)> {
    use f90d_distrib::DistKind;
    use f90d_machine::{ElemType, Value};
    use f90d_runtime::{intrinsics as rt, DistArray};
    let spec = MachineSpec::ipsc860();
    let mut out = Vec::new();
    // 1. structured communication: CSHIFT
    {
        let mut m = Machine::new(spec.clone(), ProcGrid::new(&[16]));
        let a = DistArray::create(&mut m, "A", ElemType::Real, &[n], &[DistKind::Block]);
        let b = DistArray::create(&mut m, "B", ElemType::Real, &[n], &[DistKind::Block]);
        a.fill_with(&mut m, |g| Value::Real(g[0] as f64));
        m.reset_time();
        rt::cshift(&mut m, &a, &b, 0, 3);
        out.push(("structured", "CSHIFT", m.elapsed()));
    }
    // 2. reduction: SUM
    {
        let mut m = Machine::new(spec.clone(), ProcGrid::new(&[16]));
        let a = DistArray::create(&mut m, "A", ElemType::Real, &[n], &[DistKind::Block]);
        a.fill_with(&mut m, |g| Value::Real(g[0] as f64));
        m.reset_time();
        let _ = rt::sum(&mut m, &a);
        out.push(("reduction", "SUM", m.elapsed()));
    }
    // 3. multicasting: SPREAD
    {
        let mut m = Machine::new(spec.clone(), ProcGrid::new(&[4, 4]));
        let v = DistArray::create(
            &mut m,
            "V",
            ElemType::Real,
            &[n.min(256)],
            &[DistKind::Block],
        );
        let d = DistArray::create(
            &mut m,
            "D",
            ElemType::Real,
            &[16, n.min(256)],
            &[DistKind::Block, DistKind::Block],
        );
        v.fill_with(&mut m, |g| Value::Real(g[0] as f64));
        m.reset_time();
        rt::spread(&mut m, &v, &d, 0);
        out.push(("multicast", "SPREAD", m.elapsed()));
    }
    // 4. unstructured: TRANSPOSE
    {
        let side = (n as f64).sqrt() as i64;
        let mut m = Machine::new(spec.clone(), ProcGrid::new(&[4, 4]));
        let a = DistArray::create(
            &mut m,
            "A",
            ElemType::Real,
            &[side, side],
            &[DistKind::Block, DistKind::Block],
        );
        let b = DistArray::create(
            &mut m,
            "B",
            ElemType::Real,
            &[side, side],
            &[DistKind::Block, DistKind::Block],
        );
        a.fill_with(&mut m, |g| Value::Real((g[0] * side + g[1]) as f64));
        m.reset_time();
        rt::transpose(&mut m, &a, &b);
        out.push(("unstructured", "TRANSPOSE", m.elapsed()));
    }
    // 5. special: MATMUL (Fox)
    {
        let side = ((n as f64).sqrt() as i64 / 4).max(1) * 4;
        let mut m = Machine::new(spec.clone(), ProcGrid::new(&[4, 4]));
        let dist = [DistKind::Block, DistKind::Block];
        let a = DistArray::create(&mut m, "A", ElemType::Real, &[side, side], &dist);
        let b = DistArray::create(&mut m, "B", ElemType::Real, &[side, side], &dist);
        let c = DistArray::create(&mut m, "C", ElemType::Real, &[side, side], &dist);
        a.fill_with(&mut m, |g| Value::Real((g[0] + g[1]) as f64));
        b.fill_with(&mut m, |g| Value::Real((g[0] * 2 - g[1]) as f64));
        m.reset_time();
        rt::matmul(&mut m, &a, &b, &c);
        out.push(("special", "MATMUL", m.elapsed()));
    }
    out
}

/// Compile `src` under `opts` and run it once on a fresh `spec` machine.
fn run_fresh(src: &str, opts: &CompileOptions, spec: &MachineSpec) -> f90d_core::ExecReport {
    let compiled = compile(src, opts).expect("compiles");
    run_gather(&compiled, spec, &[]).0
}

/// ABL-1 (§7(2) duplicate-communication elimination) on the GE kernel:
/// `(messages_opt_on, messages_opt_off, t_on, t_off)`.
pub fn ablation_merge_comm(n: i64, p: i64) -> (u64, u64, f64, f64) {
    let spec = MachineSpec::ipsc860();
    let run = |merge: bool| {
        let mut opts = CompileOptions::on_grid(&[p]);
        opts.opt.merge_comm = merge;
        let rep = run_fresh(&workloads::gaussian(n), &opts, &spec);
        (rep.messages, rep.elapsed)
    };
    let (msg_on, t_on) = run(true);
    let (msg_off, t_off) = run(false);
    (msg_on, msg_off, t_on, t_off)
}

/// ABL-2 (§7(3) schedule reuse) on the irregular kernel:
/// `(t_reuse, t_no_reuse)`.
pub fn ablation_schedule_reuse(n: i64, p: i64) -> (f64, f64) {
    let spec = MachineSpec::ipsc860();
    let run = |reuse: bool| {
        let mut opts = CompileOptions::on_grid(&[p]);
        opts.opt.schedule_reuse = reuse;
        run_fresh(&workloads::irregular(n), &opts, &spec).elapsed
    };
    (run(true), run(false))
}

/// ABL-3 (§5.3.1 fused multicast_shift): `(t_fused, t_two_step)`.
pub fn ablation_multicast_shift(n: i64) -> (f64, f64) {
    let spec = MachineSpec::ipsc860();
    let src = format!(
        "
PROGRAM MCS
INTEGER, PARAMETER :: N = {n}
REAL A(N,N), B(N,N)
INTEGER S, IT
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
S = 2
FORALL (I=1:N, J=1:N) B(I,J) = REAL(I*J)
DO IT = 1, 16
  FORALL (I=1:N, J=1:N-2) A(I,J) = B(3,J+S)
END DO
END
"
    );
    let run = |fused: bool| {
        let mut opts = CompileOptions::on_grid(&[4, 4]);
        opts.opt.fuse_multicast_shift = fused;
        opts.opt.hoist_invariant_comm = false;
        run_fresh(&src, &opts, &spec).elapsed
    };
    (run(true), run(false))
}

/// ABL-4 (§5.1 overlap vs temporary shift) on Jacobi:
/// `(t_overlap, t_temporary)`.
pub fn ablation_overlap_shift(n: i64, iters: i64, p: i64) -> (f64, f64) {
    let spec = MachineSpec::ipsc860();
    let run = |overlap: bool| {
        let mut opts = CompileOptions::on_grid(&[p, p]);
        opts.opt.overlap_shift = overlap;
        run_fresh(&workloads::jacobi(n, iters), &opts, &spec).elapsed
    };
    (run(true), run(false))
}

/// One row of the communication–computation overlap experiment
/// (`repro --exp overlap`): modelled Jacobi time under the three shift
/// execution strategies, plus the bit-identity verdicts.
#[derive(Debug, Clone)]
pub struct OverlapRow {
    /// Machine model name (`ipsc860` / `ncube2`).
    pub machine: &'static str,
    /// `OptFlags::overlap_shift = false`: every shift through a
    /// temporary (the §5.1 baseline the claimed speedup is measured
    /// against).
    pub t_temporary: f64,
    /// Default flags: `overlap_shift` into ghost areas, blocking
    /// exchange (the `BENCH_baseline.json` configuration).
    pub t_blocking: f64,
    /// `comm_compute_overlap`: ghost exchange posted, interior compute
    /// hides the wire, boundary computed after completion.
    pub t_overlap: f64,
    /// Arrays A and B bit-identical across all three modes.
    pub arrays_identical: bool,
    /// PRINT output identical across all three modes.
    pub print_identical: bool,
}

impl OverlapRow {
    /// The §5.1/§7 claim this experiment reproduces: split-phase overlap
    /// beats both the temporary-shift strategy and the blocking ghost
    /// exchange, without changing a single result bit.
    pub fn holds(&self) -> bool {
        self.t_overlap < self.t_temporary
            && self.t_overlap < self.t_blocking
            && self.arrays_identical
            && self.print_identical
    }
}

/// Communication–computation overlap on Jacobi (`n × n`, `iters` sweeps,
/// `p × p` grid): one row per machine model.
pub fn overlap_experiment(n: i64, iters: i64, p: i64) -> Vec<OverlapRow> {
    let src = workloads::jacobi(n, iters);
    let run = |spec: &MachineSpec, overlap_shift: bool, overlap: bool| {
        let mut opts = CompileOptions::on_grid(&[p, p]);
        opts.opt.overlap_shift = overlap_shift;
        opts.opt.comm_compute_overlap = overlap;
        let compiled = compile(&src, &opts).expect("jacobi compiles");
        run_gather(&compiled, spec, &["A", "B"])
    };
    [
        ("ipsc860", MachineSpec::ipsc860()),
        ("ncube2", MachineSpec::ncube2()),
    ]
    .into_iter()
    .map(|(machine, spec)| {
        let (t, arr_t) = run(&spec, false, false);
        let (b, arr_b) = run(&spec, true, false);
        let (o, arr_o) = run(&spec, true, true);
        OverlapRow {
            machine,
            t_temporary: t.elapsed,
            t_blocking: b.elapsed,
            t_overlap: o.elapsed,
            arrays_identical: arr_t == arr_b && arr_b == arr_o,
            print_identical: t.printed == b.printed && b.printed == o.printed,
        }
    })
    .collect()
}

/// One row of the phase-level communication planning experiment
/// (`repro --exp commplan`): one workload × machine model,
/// with the planner off (per-statement ghost exchanges) and on
/// (phase-batched, PARTI-style coalesced posts).
#[derive(Debug, Clone)]
pub struct CommPlanRow {
    /// Workload label.
    pub workload: &'static str,
    /// Machine model name (`ipsc860` / `ncube2`).
    pub machine: &'static str,
    /// `OptFlags::comm_plan = false`: one ghost-exchange post per
    /// statement per array per direction (the baseline configuration).
    pub t_per_stmt: f64,
    /// Planner on: consecutive eligible FORALLs share one batched post,
    /// same-destination strips coalesce into one message.
    pub t_plan: f64,
    /// Wire messages with the planner off.
    pub msgs_per_stmt: u64,
    /// Wire messages with the planner on.
    pub msgs_plan: u64,
    /// Total bytes identical in both modes (coalescing repacks, never
    /// re-sends).
    pub bytes_equal: bool,
    /// Arrays bit-identical in both modes.
    pub arrays_identical: bool,
    /// PRINT output identical in both modes.
    pub print_identical: bool,
    /// Whether the strict-improvement claim applies: the multi-array
    /// stencil is the coalescing showcase; the V-cycle mixes groupable
    /// statements with pinned write→read chains and is reported only.
    pub gated: bool,
}

impl CommPlanRow {
    /// Modelled-time improvement of the planner.
    pub fn speedup(&self) -> f64 {
        self.t_per_stmt / self.t_plan
    }

    /// The claim this experiment reproduces: phase-batched coalesced
    /// posts never change a result bit or move more traffic, and on the
    /// coalescing showcase they strictly remove messages and time.
    pub fn holds(&self) -> bool {
        self.arrays_identical
            && self.print_identical
            && self.bytes_equal
            && self.t_plan <= self.t_per_stmt
            && self.msgs_plan <= self.msgs_per_stmt
            && (!self.gated
                || (self.msgs_plan < self.msgs_per_stmt && self.t_plan < self.t_per_stmt))
    }
}

/// Phase-level communication planning on the multi-array stencil and the
/// multigrid V-cycle (`n` elements, `iters` sweeps, `p` processors): one
/// row per workload × machine model.
pub fn commplan_experiment(n: i64, iters: i64, p: i64) -> Vec<CommPlanRow> {
    let cases: Vec<(&'static str, String, Vec<&'static str>, bool)> = vec![
        (
            "multi-stencil",
            workloads::multi_stencil(n, iters),
            vec!["A", "B", "C", "A2", "B2", "C2"],
            true,
        ),
        (
            "v-cycle",
            workloads::vcycle(n, iters),
            vec!["U", "R", "UC", "RC"],
            false,
        ),
    ];
    let run = |src: &str, names: &[&str], spec: &MachineSpec, plan: bool| {
        let mut opts = CompileOptions::on_grid(&[p]);
        opts.opt.comm_plan = plan;
        let compiled = compile(src, &opts).expect("workload compiles");
        run_gather(&compiled, spec, names)
    };
    let mut rows = Vec::new();
    for (workload, src, names, gated) in &cases {
        for (machine, spec) in [
            ("ipsc860", MachineSpec::ipsc860()),
            ("ncube2", MachineSpec::ncube2()),
        ] {
            let (off, arr_off) = run(src, names, &spec, false);
            let (on, arr_on) = run(src, names, &spec, true);
            rows.push(CommPlanRow {
                workload,
                machine,
                t_per_stmt: off.elapsed,
                t_plan: on.elapsed,
                msgs_per_stmt: off.messages,
                msgs_plan: on.messages,
                bytes_equal: on.bytes == off.bytes,
                arrays_identical: arr_on == arr_off,
                print_identical: on.printed == off.printed,
                gated: *gated,
            });
        }
    }
    rows
}

/// Portability demonstration (paper §8.1): the same compiled program runs
/// under every machine model; returns `(machine, time)` rows.
pub fn portability(n: i64, p: i64) -> Vec<(String, f64)> {
    [
        MachineSpec::ipsc860(),
        MachineSpec::ncube2(),
        MachineSpec::paragon(4, 4).expect("4x4 mesh is valid"),
    ]
    .into_iter()
    .map(|spec| {
        let name = spec.name.clone();
        (name, ge_compiled_time(n, p, &spec, true))
    })
    .collect()
}

/// Threaded-executor smoke check: the Jacobi program runs identically in
/// Sequential and Threaded local-phase modes (hand-written runtime path).
pub fn threaded_equivalence(n: i64, p: i64) -> bool {
    use f90d_distrib::DistKind;
    use f90d_machine::{ElemType, Value};
    use f90d_runtime::DistArray;
    let run = |mode: ExecMode| {
        let mut m = Machine::with_mode(MachineSpec::ideal(), ProcGrid::new(&[p]), mode);
        let a = DistArray::create(&mut m, "A", ElemType::Real, &[n], &[DistKind::Block]);
        a.fill_with(&mut m, |g| Value::Real(g[0] as f64));
        m.local_phase(|rank, mem| {
            let arr = mem.array_mut("A");
            let cnt = arr.shape[0];
            for l in 0..cnt {
                let v = arr.get(&[l]).as_real();
                arr.set(&[l], Value::Real(v * 2.0 + rank as f64));
            }
            cnt * 2
        });
        a.gather_host(&mut m)
    };
    run(ExecMode::Sequential) == run(ExecMode::Threaded)
}

/// Pretty table printer shared by the repro binary.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", header.join("\t"));
    for r in rows {
        println!("{}", r.join("\t"));
    }
}

/// Keep the default optimization flags visible to binaries.
pub fn default_flags() -> OptFlags {
    OptFlags::default()
}
