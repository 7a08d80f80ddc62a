//! The bytecode execution engine.
//!
//! Runs a [`VmProgram`] against a simulated machine, loosely
//! synchronously, charging the machine's virtual-time cost model. The
//! per-element hot path is a flat fetch/decode loop over pre-resolved
//! register code: array accesses go through per-rank *resolved
//! accessors* (affine local-index forms plus a row-major stride sum)
//! instead of per-element descriptor math and name lookups.
//!
//! FORALL local phases run under the machine's
//! [`ExecMode`](f90d_machine::ExecMode) — rank by
//! rank, or all ranks concurrently on scoped threads — because every
//! element read of a compiled FORALL body targets the executing rank's
//! own memory.

use std::sync::Arc;

use f90d_comm::driver::{self, CommDriver, ComputeSink, PhaseOutcome};
use f90d_comm::op::CommError;
use f90d_comm::overlap::Margins;
use f90d_comm::plan::GhostSpec;
use f90d_comm::sched_cache::RunSchedules;
use f90d_comm::schedule::{self, ElementReq};
use f90d_comm::structured;
use f90d_distrib::{set_bound, ArrayDimMap, Dad, DistKind};
use f90d_machine::{ArrayData, LocalArray, Machine, NodeMemory, Value};
use f90d_runtime::intrinsics as rt;
use f90d_runtime::DistArray;

use crate::bytecode::*;
use crate::native::{ElemArgs, ElemFn, Lin, NativeKernel, ReadSite};
use crate::ops;

/// Execution error (runtime faults in the compiled program).
#[derive(Debug, Clone)]
pub struct VmError(pub String);

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for VmError {}

impl From<CommError> for VmError {
    fn from(e: CommError) -> Self {
        VmError(e.0)
    }
}

type VmResult<T> = Result<T, VmError>;

fn verr<T>(msg: impl Into<String>) -> VmResult<T> {
    Err(VmError(msg.into()))
}

/// Result of one execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Modelled elapsed time (seconds on the simulated machine).
    pub elapsed: f64,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Collected PRINT output.
    pub printed: Vec<String>,
}

/// One dimension of a resolved accessor: how a global subscript becomes
/// a padded local index on a specific rank.
#[derive(Debug, Clone)]
enum RDim {
    /// `l_pad = a*g + b` (undistributed and BLOCK dimensions — ghost
    /// offset folded into `b`).
    Affine {
        /// Stride.
        a: i64,
        /// Offset (includes the ghost_lo shift).
        b: i64,
    },
    /// CYCLIC / BLOCK-CYCLIC: ownership check plus μ⁻¹ through the
    /// dimension map.
    General {
        /// The composite dimension map.
        dm: ArrayDimMap,
        /// This rank's grid coordinate on the dimension's axis.
        coord: i64,
        /// Ghost cells below.
        ghost_lo: i64,
    },
}

/// A [`AccPlan`] resolved against one rank and the live descriptors:
/// subscripts → flat padded offset with no descriptor math in the loop.
#[derive(Debug, Clone)]
struct ResolvedAcc {
    /// The array actually read/written.
    target: ArrId,
    /// Per-dimension index transforms.
    dims: Vec<RDim>,
    /// Global extent per dimension (bounds check).
    extents: Vec<i64>,
    /// Padded extent per dimension (ghost-range check).
    padded: Vec<i64>,
    /// Row-major strides over the padded extents.
    strides: Vec<i64>,
}

impl ResolvedAcc {
    /// Flat padded offset of global subscripts `subs`, one per
    /// dimension of the target (lowering already removed a slab read's
    /// fixed source dimension).
    #[inline]
    fn offset(&self, subs: &[i64], name: &str, rank: i64) -> Result<usize, String> {
        let mut off: i64 = 0;
        for (k, &g) in subs.iter().enumerate() {
            if g < 0 || g >= self.extents[k] {
                return Err(format!(
                    "subscript {} out of bounds on dim {k} of {name} (extent {})",
                    g + 1,
                    self.extents[k]
                ));
            }
            let l_pad = match &self.dims[k] {
                RDim::Affine { a, b } => a * g + b,
                RDim::General {
                    dm,
                    coord,
                    ghost_lo,
                } => {
                    let t = dm.align.apply(g);
                    if dm.dist.proc_of(t) != *coord {
                        return Err(format!(
                            "rank {rank} reads unowned element {subs:?} of {name}"
                        ));
                    }
                    dm.dist.local_of(t) + ghost_lo
                }
            };
            if l_pad < 0 || l_pad >= self.padded[k] {
                return Err(format!(
                    "rank {rank} reads outside the padded segment of {name} at {subs:?}"
                ));
            }
            off += l_pad * self.strides[k];
        }
        Ok(off as usize)
    }
}

/// Engine state: live descriptors, replicated scalars, loop variables.
pub struct Engine {
    prog: Arc<VmProgram>,
    /// Runtime descriptors (REDISTRIBUTE may change them).
    dads: Vec<Dad>,
    scalars: Vec<Value>,
    vars: Vec<i64>,
    printed: Vec<String>,
    /// Schedule reuse (§7(3), per-run) and the cross-run schedule cache:
    /// toggle `sched.reuse` / `sched.use_global` before running.
    pub sched: RunSchedules,
    /// `OptFlags::comm_compute_overlap`: execute eligible stencil FORALLs
    /// split-phase (ghost-exchange post → interior compute → complete →
    /// boundary compute). Off by default — virtual time changes (that is
    /// the point), array results and PRINT do not.
    pub overlap: bool,
    /// `CompileOptions::exec_mode`: when `Some`, [`Engine::run`]
    /// switches the machine to this local-phase mode (leasing threaded
    /// workers from the process-wide `f90d_machine::budget`) before
    /// executing. `None` respects the machine as given. Virtual metrics
    /// are identical either way.
    pub exec: Option<f90d_machine::ExecMode>,
    /// `OptFlags::comm_plan`: honour [`VmPhase`] annotations, batching
    /// each phase's ghost exchanges into one coalesced exchange
    /// sequenced by the shared [`CommDriver`]. Off (the default) runs
    /// the per-statement schedule even on annotated programs.
    pub plan: bool,
    /// The shared FORALL communication driver (`f90d_comm::driver`):
    /// sequences phase batching, split-phase overlap, and quiescence,
    /// and carries the `comm_plan {groups, fallbacks}` counters the run
    /// trace surfaces.
    pub comm: CommDriver,
    /// FORALL executions dispatched to a native-tier kernel.
    native_matched: u64,
    /// FORALL executions that ran the bytecode element loop instead (no
    /// kernel selected, a dispatch precondition failed, or the overlap
    /// split-phase path ran).
    native_fallback: u64,
}

impl Engine {
    /// Prepare an engine and allocate every array on the machine.
    pub fn new(prog: Arc<VmProgram>, m: &mut Machine) -> Self {
        assert_eq!(
            m.grid.shape, prog.grid_shape,
            "machine grid must match the compiled grid"
        );
        for decl in &prog.arrays {
            let (shape, ghost) = decl_alloc(decl);
            for mem in &mut m.mems {
                mem.insert_array(
                    decl.name.clone(),
                    LocalArray::with_ghost_lazy(decl.ty, &shape, &ghost, &ghost),
                );
            }
        }
        Self::fresh(prog)
    }

    /// Like [`Engine::new`] but keeps existing array segments (running a
    /// program fragment over state produced by an earlier fragment).
    pub fn new_preserving(prog: Arc<VmProgram>, m: &mut Machine) -> Self {
        for decl in &prog.arrays {
            if !m.mems[0].has_array(&decl.name) {
                let (shape, ghost) = decl_alloc(decl);
                for mem in &mut m.mems {
                    mem.insert_array(
                        decl.name.clone(),
                        LocalArray::with_ghost_lazy(decl.ty, &shape, &ghost, &ghost),
                    );
                }
            }
        }
        Self::fresh(prog)
    }

    fn fresh(prog: Arc<VmProgram>) -> Self {
        let scalars = prog.scalars.iter().map(|(_, ty)| ty.zero()).collect();
        let dads = prog.arrays.iter().map(|a| a.dad.clone()).collect();
        let nvars = prog.nvars;
        Engine {
            prog,
            dads,
            scalars,
            vars: vec![0; nvars],
            printed: Vec::new(),
            sched: RunSchedules::new(),
            overlap: false,
            exec: None,
            plan: false,
            comm: CommDriver::new(),
            native_matched: 0,
            native_fallback: 0,
        }
    }

    /// `(matched, fallback)` FORALL execution counts for this engine:
    /// how many FORALL executions dispatched to a native-tier kernel vs
    /// ran the bytecode element loop. Informational — the tiers are
    /// bit-identical on every virtual metric.
    pub fn native_counts(&self) -> (u64, u64) {
        (self.native_matched, self.native_fallback)
    }

    /// Read a scalar by name (post-run inspection).
    pub fn scalar(&self, name: &str) -> Option<Value> {
        let slot = self.prog.scalar_slot(name)?;
        Some(self.scalars[slot as usize])
    }

    /// Current runtime descriptor of array `id`.
    pub fn dad(&self, id: ArrId) -> &Dad {
        &self.dads[id]
    }

    /// Seed a named array from a host row-major buffer before running.
    pub fn seed_array(&self, m: &mut Machine, name: &str, data: &ArrayData) -> bool {
        let Some(id) = self.prog.array_id(name) else {
            return false;
        };
        self.dist_array(id).scatter_host(m, data);
        true
    }

    /// Gather a named array to a host buffer (inspection).
    pub fn gather_array(&self, m: &mut Machine, name: &str) -> Option<ArrayData> {
        let id = self.prog.array_id(name)?;
        Some(self.dist_array(id).gather_host(m))
    }

    fn dist_array(&self, id: ArrId) -> DistArray {
        DistArray {
            name: self.prog.arrays[id].name.clone(),
            dad: self.dads[id].clone(),
            ty: self.prog.arrays[id].ty,
        }
    }

    /// Run the whole program: a flat fetch/decode loop over the
    /// statement stream.
    pub fn run(&mut self, m: &mut Machine) -> VmResult<RunReport> {
        if let Some(mode) = self.exec {
            m.set_exec(mode);
        }
        let prog = self.prog.clone();
        let mut regs: Vec<Value> = Vec::new();
        let mut do_stack: Vec<(i64, i64)> = Vec::new();
        let mut pc = 0usize;
        while pc < prog.code.len() {
            match &prog.code[pc] {
                PInst::ScalarAssign { slot, rhs, cost } => {
                    let v = self.eval_scalar(rhs, m, &mut regs)?;
                    self.scalars[*slot as usize] = v;
                    for r in 0..m.nranks() {
                        m.transport.charge_elem_ops(r, *cost);
                    }
                    pc += 1;
                }
                PInst::OwnerAssign {
                    arr,
                    subs,
                    rhs,
                    cost,
                } => {
                    let g: Vec<i64> = subs
                        .iter()
                        .map(|e| self.eval_scalar(e, m, &mut regs).map(|v| v.as_int()))
                        .collect::<VmResult<_>>()?;
                    let v = self.eval_scalar(rhs, m, &mut regs)?;
                    let dad = &self.dads[*arr];
                    let l = dad.local_index(&g);
                    let name = &prog.arrays[*arr].name;
                    for rank in dad.owner_ranks(&g) {
                        m.mems[rank as usize].array_mut(name).set(&l, v);
                        m.transport.charge_elem_ops(rank, *cost);
                    }
                    pc += 1;
                }
                PInst::Comm(i) => {
                    self.exec_comm(&prog.comms[*i as usize], m, &mut regs)?;
                    pc += 1;
                }
                PInst::Forall(i) => {
                    if self.plan {
                        if let Some(VmPhase::Lead { len }) = prog.foralls[*i as usize].plan {
                            // Collect the phase: `len` consecutive FORALL
                            // instructions starting here (the planner only
                            // groups adjacent FORALLs, which lower to
                            // adjacent instructions).
                            let mut ids = Vec::with_capacity(len as usize);
                            let mut j = pc;
                            while ids.len() < len as usize && j < prog.code.len() {
                                let PInst::Forall(k) = &prog.code[j] else {
                                    break;
                                };
                                ids.push(*k);
                                j += 1;
                            }
                            if ids.len() == len as usize {
                                self.exec_phase(&ids, m)?;
                                pc = j;
                                continue;
                            }
                            // A truncated phase means the annotation and
                            // the instruction stream disagree; run the
                            // always-correct per-statement schedule.
                        }
                    }
                    self.exec_forall(&prog.foralls[*i as usize], m)?;
                    pc += 1;
                }
                PInst::Runtime(i) => {
                    self.exec_runtime(&prog.rtcalls[*i as usize], m, &mut regs)?;
                    pc += 1;
                }
                PInst::Print(i) => {
                    let mut line = String::new();
                    for (k, item) in prog.prints[*i as usize].iter().enumerate() {
                        if k > 0 {
                            line.push(' ');
                        }
                        match item {
                            VmPrintItem::Text(t) => line.push_str(t),
                            VmPrintItem::Val(e) => {
                                let v = self.eval_scalar(e, m, &mut regs)?;
                                line.push_str(&v.to_string());
                            }
                        }
                    }
                    self.printed.push(line);
                    pc += 1;
                }
                PInst::BranchFalse { cond, cost, target } => {
                    let c = self.eval_scalar(cond, m, &mut regs)?.as_bool();
                    for r in 0..m.nranks() {
                        m.transport.charge_elem_ops(r, *cost);
                    }
                    pc = if c { pc + 1 } else { *target };
                }
                PInst::Jump { target } => pc = *target,
                PInst::DoStart {
                    var,
                    lb,
                    ub,
                    st,
                    exit,
                } => {
                    let lb = self.eval_scalar(lb, m, &mut regs)?.as_int();
                    let ub = self.eval_scalar(ub, m, &mut regs)?.as_int();
                    let st = self.eval_scalar(st, m, &mut regs)?.as_int();
                    if st == 0 {
                        return verr("DO stride of zero");
                    }
                    if (st > 0 && lb <= ub) || (st < 0 && lb >= ub) {
                        self.vars[*var as usize] = lb;
                        do_stack.push((ub, st));
                        pc += 1;
                    } else {
                        pc = *exit;
                    }
                }
                PInst::DoNext { var, back } => {
                    for r in 0..m.nranks() {
                        m.transport.charge_elem_ops(r, 1); // loop control
                    }
                    let (ub, st) = *do_stack.last().expect("DoNext outside DO");
                    let v = self.vars[*var as usize] + st;
                    if (st > 0 && v <= ub) || (st < 0 && v >= ub) {
                        self.vars[*var as usize] = v;
                        pc = *back;
                    } else {
                        do_stack.pop();
                        pc += 1;
                    }
                }
            }
        }
        driver::quiesce(m)?;
        Ok(RunReport {
            elapsed: m.elapsed(),
            messages: m.transport.messages,
            bytes: m.transport.bytes,
            printed: std::mem::take(&mut self.printed),
        })
    }

    // ---- scalar (replicated-context) evaluation ------------------------

    fn eval_scalar(&self, code: &ExprCode, m: &Machine, regs: &mut Vec<Value>) -> VmResult<Value> {
        let prog = &*self.prog;
        regs.clear();
        regs.resize(code.nregs as usize, Value::Int(0));
        for op in &code.ops {
            match *op {
                Op::Const { dst, k } => regs[dst as usize] = prog.consts[k as usize],
                Op::LoadVar { dst, slot } => {
                    regs[dst as usize] = Value::Int(self.vars[slot as usize])
                }
                Op::LoadScalar { dst, slot } => regs[dst as usize] = self.scalars[slot as usize],
                Op::Affine { dst, slot, a, b } => {
                    regs[dst as usize] = Value::Int(a * self.vars[slot as usize] + b)
                }
                Op::Bin { op, dst, a, b } => {
                    regs[dst as usize] =
                        ops::eval_bin(op, regs[a as usize], regs[b as usize]).map_err(VmError)?
                }
                Op::Un { op, dst, a } => {
                    regs[dst as usize] = ops::eval_un(op, regs[a as usize]).map_err(VmError)?
                }
                Op::Intrin { f, dst, base, n } => {
                    let args = &regs[base as usize..(base + n) as usize];
                    regs[dst as usize] = ops::eval_intrin(f, args).map_err(VmError)?
                }
                Op::Read { dst, acc, base, n } => {
                    let plan = &prog.accessors[acc as usize];
                    let AccPlan::Owned { arr } = plan else {
                        return verr("non-replicated read in scalar context");
                    };
                    let g: Vec<i64> = regs[base as usize..(base + n) as usize]
                        .iter()
                        .map(|v| v.as_int())
                        .collect();
                    let dad = &self.dads[*arr];
                    let rank = dad.owner_ranks(&g)[0];
                    let l = dad.local_index(&g);
                    regs[dst as usize] =
                        m.mems[rank as usize].array(&prog.arrays[*arr].name).get(&l);
                }
                Op::ReadSeq { .. } => return verr("non-replicated read in scalar context"),
            }
        }
        Ok(regs[code.out as usize])
    }

    // ---- communication and runtime calls -------------------------------

    fn exec_comm(&mut self, c: &VmComm, m: &mut Machine, regs: &mut Vec<Value>) -> VmResult<()> {
        let prog = self.prog.clone();
        match c {
            VmComm::Multicast {
                src,
                tmp,
                dim,
                src_g,
            } => {
                let g = self.eval_scalar(src_g, m, regs)?.as_int();
                let dad = self.dads[*src].clone();
                structured::multicast(
                    m,
                    &prog.arrays[*src].name,
                    &dad,
                    &prog.arrays[*tmp].name,
                    *dim,
                    g,
                )?;
                Ok(())
            }
            VmComm::Transfer {
                src,
                tmp,
                dim,
                src_g,
                dst_g,
                dst_arr,
                dst_dim,
            } => {
                let sg = self.eval_scalar(src_g, m, regs)?.as_int();
                let dg = self.eval_scalar(dst_g, m, regs)?.as_int();
                let dst_coord = self.dads[*dst_arr].dims[*dst_dim].proc_of(dg);
                let dad = self.dads[*src].clone();
                structured::transfer(
                    m,
                    &prog.arrays[*src].name,
                    &dad,
                    &prog.arrays[*tmp].name,
                    *dim,
                    sg,
                    dst_coord,
                )?;
                Ok(())
            }
            VmComm::OverlapShift { arr, dim, c } => {
                let dad = self.dads[*arr].clone();
                driver::ghost_exchange(m, &prog.arrays[*arr].name, &dad, *dim, *c)?;
                Ok(())
            }
            VmComm::TempShift {
                src,
                tmp,
                dim,
                amount,
            } => {
                let s = self.eval_scalar(amount, m, regs)?.as_int();
                let dad = self.dads[*src].clone();
                structured::temporary_shift(
                    m,
                    &prog.arrays[*src].name,
                    &dad,
                    &prog.arrays[*tmp].name,
                    *dim,
                    s,
                    false,
                )?;
                Ok(())
            }
            VmComm::MulticastShift {
                src,
                tmp,
                mdim,
                src_g,
                sdim,
                amount,
            } => {
                let g = self.eval_scalar(src_g, m, regs)?.as_int();
                let s = self.eval_scalar(amount, m, regs)?.as_int();
                let dad = self.dads[*src].clone();
                structured::multicast_shift(
                    m,
                    &prog.arrays[*src].name,
                    &dad,
                    &prog.arrays[*tmp].name,
                    *mdim,
                    g,
                    *sdim,
                    s,
                )?;
                Ok(())
            }
            VmComm::Concat { src, tmp } => {
                let dad = self.dads[*src].clone();
                structured::concatenation(
                    m,
                    &prog.arrays[*src].name,
                    &dad,
                    &prog.arrays[*tmp].name,
                )?;
                Ok(())
            }
            VmComm::BroadcastElem { arr, subs, target } => {
                let g: Vec<i64> = subs
                    .iter()
                    .map(|e| self.eval_scalar(e, m, regs).map(|v| v.as_int()))
                    .collect::<VmResult<_>>()?;
                let dad = &self.dads[*arr];
                let owner = dad.owner_ranks(&g)[0];
                let l = dad.local_index(&g);
                let v = m.mems[owner as usize]
                    .array(&prog.arrays[*arr].name)
                    .get(&l);
                // Tree broadcast of one element to all ranks.
                let members: Vec<i64> = (0..m.nranks()).collect();
                let root_pos = members.iter().position(|&r| r == owner).unwrap();
                let mut payload = ArrayData::zeros(v.elem_type(), 1);
                payload.set(0, v);
                m.stats.record("broadcast_elem");
                f90d_comm::helpers::tree_broadcast(m, &members, root_pos, payload, |_, _, _| {})?;
                self.scalars[*target as usize] = v;
                Ok(())
            }
            VmComm::Reduce {
                kind,
                arr,
                arr2,
                target,
                to_int,
            } => {
                let a = self.dist_array(*arr);
                let v = match kind {
                    VmReduce::Sum => Value::Real(rt::sum(m, &a)),
                    VmReduce::Product => Value::Real(rt::product(m, &a)),
                    VmReduce::MaxVal => Value::Real(rt::maxval(m, &a)),
                    VmReduce::MinVal => Value::Real(rt::minval(m, &a)),
                    VmReduce::Count => Value::Int(rt::count(m, &a)),
                    VmReduce::All => Value::Bool(rt::all(m, &a)),
                    VmReduce::Any => Value::Bool(rt::any(m, &a)),
                    VmReduce::DotProduct => {
                        let b = self.dist_array(arr2.expect("dotproduct second operand"));
                        Value::Real(rt::dotproduct(m, &a, &b))
                    }
                };
                let v = if *to_int {
                    Value::Int(v.as_real() as i64)
                } else {
                    v
                };
                self.scalars[*target as usize] = v;
                Ok(())
            }
        }
    }

    fn exec_runtime(
        &mut self,
        call: &VmRt,
        m: &mut Machine,
        regs: &mut Vec<Value>,
    ) -> VmResult<()> {
        match call {
            VmRt::CShift {
                src,
                dst,
                dim,
                shift,
            } => {
                let s = self.eval_scalar(shift, m, regs)?.as_int();
                let (a, b) = (self.dist_array(*src), self.dist_array(*dst));
                rt::cshift(m, &a, &b, *dim, s);
                Ok(())
            }
            VmRt::EoShift {
                src,
                dst,
                dim,
                shift,
                boundary,
            } => {
                let s = self.eval_scalar(shift, m, regs)?.as_int();
                let bv = self.eval_scalar(boundary, m, regs)?;
                let (a, b) = (self.dist_array(*src), self.dist_array(*dst));
                rt::eoshift(m, &a, &b, *dim, s, bv);
                Ok(())
            }
            VmRt::Transpose { src, dst } => {
                let (a, b) = (self.dist_array(*src), self.dist_array(*dst));
                rt::transpose(m, &a, &b);
                Ok(())
            }
            VmRt::Matmul { a, b, c } => {
                let (aa, bb, cc) = (
                    self.dist_array(*a),
                    self.dist_array(*b),
                    self.dist_array(*c),
                );
                rt::matmul(m, &aa, &bb, &cc);
                Ok(())
            }
            VmRt::Redistribute { arr, new_dad } => {
                let old = self.dist_array(*arr);
                let staging = format!("__REDIST_{}", old.name);
                let mut nd = new_dad.clone();
                nd.name = old.name.clone();
                let target = DistArray::from_dad(m, staging.clone(), old.ty, nd.clone(), 0);
                f90d_comm::redist::redistribute(m, &old.name, &old.dad, &staging, &target.dad)?;
                // Move staged segments under the original name.
                for mem in &mut m.mems {
                    let seg = mem.remove_array(&staging).expect("staging allocated");
                    mem.insert_array(old.name.clone(), seg);
                }
                self.dads[*arr] = nd;
                Ok(())
            }
            VmRt::RemapCopy { src, dst } => {
                let s = self.dist_array(*src);
                let d = self.dist_array(*dst);
                f90d_comm::redist::redistribute(m, &s.name, &s.dad, &d.name, &d.dad)?;
                Ok(())
            }
        }
    }

    // ---- FORALL --------------------------------------------------------

    fn exec_forall(&mut self, f: &VmForall, m: &mut Machine) -> VmResult<()> {
        self.exec_forall_inner(f, m, false)
    }

    /// Execute one planner-formed comm phase (`ids` are forall-table
    /// indices): hand every member's ghost exchanges (against the live
    /// descriptors) to the shared driver, which deduplicates and batches
    /// them into one coalesced exchange, then run the members with their
    /// preludes skipped. A runtime planning refusal falls back to the
    /// bit-identical per-statement path — the annotations are advisory.
    fn exec_phase(&mut self, ids: &[u16], m: &mut Machine) -> VmResult<()> {
        let prog = self.prog.clone();
        let mut specs: Vec<GhostSpec> = Vec::new();
        for &id in ids {
            for &ci in &prog.foralls[id as usize].pre {
                let VmComm::OverlapShift { arr, dim, c } = &prog.comms[ci as usize] else {
                    return verr("comm phase member has a non-overlap-shift prelude");
                };
                specs.push(GhostSpec {
                    arr: prog.arrays[*arr].name.clone(),
                    dad: self.dads[*arr].clone(),
                    dim: *dim,
                    c: *c,
                });
            }
        }
        match self.comm.phase_exchange(m, specs)? {
            PhaseOutcome::Refused => {
                for &id in ids {
                    self.exec_forall(&prog.foralls[id as usize], m)?;
                }
            }
            PhaseOutcome::Exchanged => {
                for &id in ids {
                    self.exec_forall_inner(&prog.foralls[id as usize], m, true)?;
                }
            }
        }
        Ok(())
    }

    /// FORALL body with an optional prelude skip: a phase lead already
    /// posted (and completed) this statement's ghost exchanges, so phase
    /// members run with `skip_pre` — which also bypasses the split-phase
    /// overlap path, whose post/finish would re-send the exchanges. The
    /// native tier still binds as usual.
    fn exec_forall_inner(&mut self, f: &VmForall, m: &mut Machine, skip_pre: bool) -> VmResult<()> {
        let prog = self.prog.clone();
        if self.overlap && !skip_pre {
            if let Some(margins) = self.overlap_plan(f, &prog) {
                // Split-phase boundary/interior execution always runs
                // the bytecode element loop.
                self.native_fallback += 1;
                return self.exec_forall_overlap(f, m, &margins);
            }
        }
        let mut regs: Vec<Value> = Vec::new();
        // Communication prelude.
        if !skip_pre {
            for &c in &f.pre {
                self.exec_comm(&prog.comms[c as usize], m, &mut regs)?;
            }
        }
        let nranks = m.nranks() as usize;
        // Owner filter: which ranks participate.
        let mut active = vec![true; nranks];
        for (arr, dim, idx) in &f.owner_filter {
            let g = self.eval_scalar(idx, m, &mut regs)?.as_int();
            let dad = &self.dads[*arr];
            let dm = &dad.dims[*dim];
            let axis = dm.grid_axis.expect("owner filter on distributed dim");
            let owner = dm.proc_of(g);
            for (rank, slot) in active.iter_mut().enumerate() {
                if m.grid.coords_of(rank as i64)[axis] != owner {
                    *slot = false;
                }
            }
        }
        // Bounds are replicated values: evaluate once.
        let mut bounds = Vec::with_capacity(f.vars.len());
        for spec in &f.vars {
            let lb = self.eval_scalar(&spec.lb, m, &mut regs)?.as_int();
            let ub = self.eval_scalar(&spec.ub, m, &mut regs)?.as_int();
            let st = self.eval_scalar(&spec.st, m, &mut regs)?.as_int();
            if st <= 0 {
                return verr("FORALL stride must be positive");
            }
            bounds.push((lb, ub, st));
        }
        // Per-rank iteration lists (`set_BOUND`).
        let mut iter_lists: Vec<Vec<Vec<i64>>> = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            if !active[rank] {
                iter_lists.push(vec![vec![]; f.vars.len()]);
                continue;
            }
            let mut lists = Vec::with_capacity(f.vars.len());
            for (spec, &b) in f.vars.iter().zip(&bounds) {
                lists.push(self.iterations_for(spec, b, m, rank as i64));
            }
            iter_lists.push(lists);
        }
        // Resolve the accessors this FORALL references, per rank.
        let resolved: Vec<Vec<Option<ResolvedAcc>>> = (0..nranks)
            .map(|rank| {
                let coords = m.grid.coords_of(rank as i64);
                let mut table: Vec<Option<ResolvedAcc>> = vec![None; prog.accessors.len()];
                for &a in &f.accs_used {
                    table[a as usize] =
                        Some(self.resolve_acc(&prog.accessors[a as usize], &coords));
                }
                table
            })
            .collect();
        // Unstructured reads: inspector + vectorized executor.
        for g in &f.gathers {
            self.exec_gather(f, g, m, &iter_lists, &resolved)?;
        }
        // Native tier: when lowering selected a kernel and every rank's
        // dispatch preconditions hold, run the monomorphized closures
        // instead of the bytecode element loop.
        if let Some(kid) = f.native {
            if let Some(bound) = self.bind_native(&prog.natives[kid], &iter_lists, &resolved) {
                self.native_matched += 1;
                return run_native_forall(&prog, f, m, &bound, &iter_lists);
            }
        }
        self.native_fallback += 1;
        // Main loop: one local phase under the machine's ExecMode.
        let scatter = f.body.scatter;
        let max_regs = forall_max_regs(f);
        let results: Vec<Result<ScatterOut, String>> = m.local_phase_map(|rank, mem| {
            match run_forall_rank(
                &prog,
                f,
                rank,
                mem,
                &iter_lists[rank as usize],
                &resolved[rank as usize],
                &self.vars,
                &self.scalars,
                max_regs,
                true,
            ) {
                Ok((scat, _, ops)) => (Ok(scat), ops),
                Err(e) => (Err(e), 0),
            }
        });
        let mut scatter_out: Vec<ScatterOut> = Vec::with_capacity(nranks);
        for r in results {
            scatter_out.push(r.map_err(VmError)?);
        }
        // Post-loop scatter.
        if let Some(invertible) = scatter {
            self.exec_scatter(f, m, invertible, &scatter_out)?;
        }
        Ok(())
    }

    /// Overlap eligibility: the prelude is pure `overlap_shift`, no
    /// gathers, no owner filter, owned writes only, and every shifted
    /// dimension maps onto a stride-1 `OwnerDim` loop variable per the
    /// shared [`driver::stencil_margins`] geometry. Returns the
    /// per-variable ghost margins, or `None` to fall back to blocking
    /// execution. The margin arithmetic, the eligibility core, and the
    /// interior/boundary split all live in `f90d_comm`.
    fn overlap_plan(&self, f: &VmForall, prog: &VmProgram) -> Option<Margins> {
        if f.pre.is_empty() || !f.gathers.is_empty() || !f.owner_filter.is_empty() {
            return None;
        }
        if f.body.scatter.is_some() {
            return None;
        }
        let loop_dims: Vec<Option<&ArrayDimMap>> = f
            .vars
            .iter()
            .map(|spec| match &spec.part {
                VmPartition::OwnerDim {
                    arr: la,
                    dim: ld,
                    a: 1,
                    ..
                } => Some(&self.dads[*la].dims[*ld]),
                _ => None,
            })
            .collect();
        let mut shifts = Vec::with_capacity(f.pre.len());
        for &ci in &f.pre {
            let VmComm::OverlapShift {
                arr,
                dim,
                c: amount,
            } = &prog.comms[ci as usize]
            else {
                return None;
            };
            shifts.push((&self.dads[*arr].dims[*dim], *amount));
        }
        driver::stencil_margins(&loop_dims, &shifts)
    }

    /// Split-phase stencil execution (paper §5.1/§7 latency hiding),
    /// sequenced by the shared [`driver::run_overlap`]: the driver posts
    /// the ghost exchanges, runs this backend's interior element loop
    /// under the machine's [`f90d_machine::ExecMode`] while the strips
    /// are on the wire, completes the exchanges, runs the boundary
    /// slabs, and commits — array results bit-identical to blocking
    /// execution, only virtual clocks differ.
    fn exec_forall_overlap(
        &mut self,
        f: &VmForall,
        m: &mut Machine,
        margins: &Margins,
    ) -> VmResult<()> {
        let prog = self.prog.clone();
        let mut regs: Vec<Value> = Vec::new();
        let mut shifts = Vec::with_capacity(f.pre.len());
        for &ci in &f.pre {
            let VmComm::OverlapShift { arr, dim, c } = &prog.comms[ci as usize] else {
                unreachable!("overlap_plan admitted a non-shift prelude")
            };
            shifts.push(GhostSpec {
                arr: prog.arrays[*arr].name.clone(),
                dad: self.dads[*arr].clone(),
                dim: *dim,
                c: *c,
            });
        }
        // Bounds and per-rank iteration lists (no owner filter by
        // eligibility); the driver splits them into interior/boundary
        // via the shared `f90d_comm::overlap` geometry.
        let nranks = m.nranks() as usize;
        let mut bounds = Vec::with_capacity(f.vars.len());
        for spec in &f.vars {
            let lb = self.eval_scalar(&spec.lb, m, &mut regs)?.as_int();
            let ub = self.eval_scalar(&spec.ub, m, &mut regs)?.as_int();
            let st = self.eval_scalar(&spec.st, m, &mut regs)?.as_int();
            if st <= 0 {
                return verr("FORALL stride must be positive");
            }
            bounds.push((lb, ub, st));
        }
        let mut iter_lists: Vec<Vec<Vec<i64>>> = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            iter_lists.push(
                f.vars
                    .iter()
                    .zip(&bounds)
                    .map(|(spec, &b)| self.iterations_for(spec, b, m, rank as i64))
                    .collect(),
            );
        }
        let resolved: Vec<Vec<Option<ResolvedAcc>>> = (0..nranks)
            .map(|rank| {
                let coords = m.grid.coords_of(rank as i64);
                let mut table: Vec<Option<ResolvedAcc>> = vec![None; prog.accessors.len()];
                for &a in &f.accs_used {
                    table[a as usize] =
                        Some(self.resolve_acc(&prog.accessors[a as usize], &coords));
                }
                table
            })
            .collect();
        let mut sink = VmSink {
            prog: &prog,
            f,
            resolved: &resolved,
            vars: &self.vars,
            scalars: &self.scalars,
            max_regs: forall_max_regs(f),
            staged: vec![StagedWrites::new(); nranks],
        };
        driver::run_overlap(m, &shifts, margins, &iter_lists, &mut sink)
    }

    /// The iterations of `spec` assigned to `rank` (`set_BOUND`),
    /// returning global iteration values.
    fn iterations_for(
        &self,
        spec: &VmLoopSpec,
        (lb, ub, st): (i64, i64, i64),
        m: &Machine,
        rank: i64,
    ) -> Vec<i64> {
        if lb > ub {
            return vec![];
        }
        match &spec.part {
            VmPartition::Replicate => (0..)
                .map(|k| lb + k * st)
                .take_while(|&v| v <= ub)
                .collect(),
            VmPartition::BlockIter => {
                let count = (ub - lb) / st + 1;
                let p = m.nranks();
                let chunk = (count + p - 1) / p;
                let first = rank * chunk;
                let last = ((rank + 1) * chunk).min(count);
                (first..last).map(|k| lb + k * st).collect()
            }
            VmPartition::OwnerDim { arr, dim, a, b } => {
                let dad = &self.dads[*arr];
                let dm = &dad.dims[*dim];
                if !dm.is_distributed() {
                    return (0..)
                        .map(|k| lb + k * st)
                        .take_while(|&v| v <= ub)
                        .collect();
                }
                let coord = m.grid.coords_of(rank)[dm.grid_axis.unwrap()];
                // Template progression t(v) = S*v + O.
                let s_align = dm.align.stride;
                let o_align = dm.align.offset;
                let s = s_align * a;
                let o = s_align * b + o_align;
                let t1 = s * lb + o;
                let t2 = s * ub + o;
                let (tlo, thi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
                let tstep = (s * st).abs();
                let li = set_bound(&dm.dist, coord, tlo, thi, tstep);
                let mut out = Vec::with_capacity(li.len() as usize);
                for l in li.to_vec() {
                    let t = dm
                        .dist
                        .global_of(coord, l)
                        .expect("set_bound local maps to global");
                    let num = t - o;
                    if num % s != 0 {
                        continue;
                    }
                    let v = num / s;
                    if v >= lb && v <= ub && (v - lb) % st == 0 {
                        out.push(v);
                    }
                }
                out.sort_unstable();
                out
            }
        }
    }

    /// Resolve one accessor against the live descriptor for a node at
    /// `coords`.
    fn resolve_acc(&self, plan: &AccPlan, coords: &[i64]) -> ResolvedAcc {
        let target = plan.target();
        let decl = &self.prog.arrays[target];
        let dad = &self.dads[target];
        let alloc = dad.local_shape();
        let ndim = dad.rank();
        let mut dims = Vec::with_capacity(ndim);
        let mut extents = Vec::with_capacity(ndim);
        let mut padded = Vec::with_capacity(ndim);
        for (d, dm) in dad.dims.iter().enumerate() {
            let ghost = if dm.is_distributed() { decl.ghost } else { 0 };
            let pad = alloc[d] + 2 * ghost;
            let rd = if !dm.is_distributed() {
                RDim::Affine { a: 1, b: ghost }
            } else if dm.dist.kind == DistKind::Block {
                let coord = coords[dm.grid_axis.unwrap()];
                RDim::Affine {
                    a: dm.align.stride,
                    b: dm.align.offset - coord * dm.dist.block_size() + ghost,
                }
            } else {
                let coord = coords[dm.grid_axis.unwrap()];
                RDim::General {
                    dm: dm.clone(),
                    coord,
                    ghost_lo: ghost,
                }
            };
            dims.push(rd);
            extents.push(dm.extent);
            padded.push(pad);
        }
        let mut strides = vec![1i64; ndim];
        for d in (0..ndim.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * padded[d + 1];
        }
        ResolvedAcc {
            target,
            dims,
            extents,
            padded,
            strides,
        }
    }

    // ---- native tier dispatch ------------------------------------------

    /// Bind a selected [`NativeKernel`] against this execution's per-rank
    /// resolved accessors and iteration lists. Returns `None` — whole
    /// FORALL falls back to bytecode — unless, on **every** active rank:
    /// every used accessor dimension is affine (BLOCK / undistributed),
    /// every read/write site stays inside the array extents and the
    /// padded segment over the rank's whole iteration box (no mask means
    /// every listed tuple executes, so corner analysis is exact and any
    /// violation is exactly a bytecode runtime error), every INTEGER
    /// scalar a subscript folds holds `Value::Int`, and every REAL
    /// scalar the closures read holds `Value::Real`.
    fn bind_native(
        &self,
        kernel: &NativeKernel,
        iter_lists: &[Vec<Vec<i64>>],
        resolved: &[Vec<Option<ResolvedAcc>>],
    ) -> Option<Vec<Option<NatBody>>> {
        let nv = kernel.var_slots.len();
        let mut out = Vec::with_capacity(iter_lists.len());
        for (rank, lists) in iter_lists.iter().enumerate() {
            if lists.iter().any(|l| l.is_empty()) {
                out.push(None);
                continue;
            }
            // Iteration lists are sorted ascending, so firsts/lasts are
            // the per-variable box corners.
            let lo: Vec<i64> = lists.iter().map(|l| l[0]).collect();
            let hi: Vec<i64> = lists.iter().map(|l| *l.last().unwrap()).collect();
            let table = &resolved[rank];
            let b = &kernel.body;
            let mut read_offs = Vec::with_capacity(b.reads.len());
            let mut read_arrs = Vec::with_capacity(b.reads.len());
            for site in &b.reads {
                let racc = table[site.acc as usize].as_ref()?;
                read_offs.push(self.bind_site(site, racc, kernel, nv, &lo, &hi)?);
                read_arrs.push(racc.target);
            }
            let lhs = table[b.lhs_acc as usize].as_ref()?;
            let lhs_site = ReadSite {
                acc: b.lhs_acc,
                subs: b.lhs_subs.clone(),
            };
            let lhs_off = self.bind_site(&lhs_site, lhs, kernel, nv, &lo, &hi)?;
            let mut lin_vals = Vec::with_capacity(b.lins.len());
            for lin in &b.lins {
                lin_vals.push(self.bind_lin(lin, kernel, nv)?);
            }
            let mut scalars = Vec::with_capacity(b.scalar_slots.len());
            for &slot in &b.scalar_slots {
                match self.scalars[slot as usize] {
                    Value::Real(v) => scalars.push(v),
                    _ => return None,
                }
            }
            out.push(Some(NatBody {
                func: b.func.clone(),
                read_offs,
                read_arrs,
                lin_vals,
                scalars,
                lhs_off,
                cost: b.cost,
            }));
        }
        Some(out)
    }

    /// Fold a selection-time [`Lin`] into a per-rank affine form over the
    /// FORALL variables: outer loop variables take their current values,
    /// INTEGER scalar terms fold their current `Value::Int` (anything
    /// else fails the bind).
    fn bind_lin(&self, lin: &Lin, kernel: &NativeKernel, nv: usize) -> Option<NatAff> {
        let mut aff = NatAff {
            base: lin.base,
            k: vec![0; nv],
        };
        for &(slot, c) in &lin.vterms {
            match kernel.var_slots.iter().position(|&s| s == slot) {
                Some(j) => aff.k[j] += c,
                None => aff.base += c * self.vars[slot as usize],
            }
        }
        for &(slot, c) in &lin.sterms {
            match self.scalars[slot as usize] {
                Value::Int(v) => aff.base += c * v,
                _ => return None,
            }
        }
        Some(aff)
    }

    /// Compose a site's affine subscripts through a resolved accessor
    /// into a flat padded-offset affine form — the symbolic mirror of
    /// [`ResolvedAcc::offset`], including both bounds checks (validated
    /// over the iteration box corners instead of per element).
    fn bind_site(
        &self,
        site: &ReadSite,
        racc: &ResolvedAcc,
        kernel: &NativeKernel,
        nv: usize,
        lo: &[i64],
        hi: &[i64],
    ) -> Option<NatAff> {
        let mut off = NatAff {
            base: 0,
            k: vec![0; nv],
        };
        for (k, sub) in site.subs.iter().enumerate() {
            let g = self.bind_lin(sub, kernel, nv)?;
            let (gmin, gmax) = g.range(lo, hi);
            if gmin < 0 || gmax >= racc.extents[k] {
                return None;
            }
            let RDim::Affine { a, b } = racc.dims[k] else {
                return None; // CYCLIC / BLOCK-CYCLIC: per-element ownership math
            };
            let l = g.scale_shift(a, b);
            let (lmin, lmax) = l.range(lo, hi);
            if lmin < 0 || lmax >= racc.padded[k] {
                return None;
            }
            off.add_scaled(&l, racc.strides[k]);
        }
        Some(off)
    }

    // ---- unstructured communication ------------------------------------

    fn exec_gather(
        &mut self,
        f: &VmForall,
        g: &VmGather,
        m: &mut Machine,
        iter_lists: &[Vec<Vec<i64>>],
        resolved: &[Vec<Option<ResolvedAcc>>],
    ) -> VmResult<()> {
        let prog = self.prog.clone();
        let src_name = prog.arrays[g.src].name.clone();
        let tmp_name = prog.arrays[g.tmp].name.clone();
        let src_dad = self.dads[g.src].clone();
        let nranks = m.nranks() as usize;
        let max_regs = forall_max_regs(f);
        // Inspector: per rank, evaluate the subscripts for every local
        // iteration in iteration order, forming the request list.
        let mut reqs: Vec<ElementReq> = Vec::new();
        let mut counts = vec![0usize; nranks];
        let mut insp_ops = vec![0i64; nranks];
        let mut visited = vec![false; nranks];
        for rank in 0..nranks {
            let lists = &iter_lists[rank];
            if lists.iter().any(|l| l.is_empty()) {
                continue;
            }
            visited[rank] = true;
            let table = &resolved[rank];
            let views: Vec<Option<&LocalArray>> = table
                .iter()
                .map(|o| {
                    o.as_ref()
                        .map(|a| m.mems[rank].array(&prog.arrays[a.target].name))
                })
                .collect();
            let mut vars = self.vars.clone();
            let mut regs = vec![Value::Int(0); max_regs];
            let mut dummy_counters: Vec<usize> = Vec::new();
            let mut cursor = vec![0usize; lists.len()];
            'iter: loop {
                for (k, list) in lists.iter().enumerate() {
                    vars[f.vars[k].var as usize] = list[cursor[k]];
                }
                let mut run = true;
                if let Some(mask) = &f.mask {
                    // Masks must not depend on gathered values.
                    run = eval_elem(
                        &prog,
                        mask,
                        &mut regs,
                        &vars,
                        &self.scalars,
                        &views,
                        table,
                        &[],
                        &mut dummy_counters,
                        false,
                        rank as i64,
                    )
                    .map_err(VmError)?
                    .as_bool();
                }
                if run {
                    let mut gidx = Vec::with_capacity(g.subs.len());
                    for s in &g.subs {
                        gidx.push(
                            eval_elem(
                                &prog,
                                s,
                                &mut regs,
                                &vars,
                                &self.scalars,
                                &views,
                                table,
                                &[],
                                &mut dummy_counters,
                                false,
                                rank as i64,
                            )
                            .map_err(VmError)?
                            .as_int(),
                        );
                    }
                    insp_ops[rank] += 4;
                    let owner = src_dad.owner_ranks(&gidx)[0];
                    let l = src_dad.local_index(&gidx);
                    let src_off = m.mems[owner as usize].array(&src_name).offset(&l);
                    reqs.push(ElementReq {
                        requester: rank as i64,
                        owner,
                        src_off,
                        dst_off: counts[rank],
                    });
                    counts[rank] += 1;
                }
                // advance cartesian cursor (last var fastest)
                let mut d = lists.len();
                loop {
                    if d == 0 {
                        break 'iter;
                    }
                    d -= 1;
                    cursor[d] += 1;
                    if cursor[d] < lists[d].len() {
                        break;
                    }
                    cursor[d] = 0;
                }
            }
        }
        for rank in 0..nranks {
            if visited[rank] {
                m.transport.charge_elem_ops(rank as i64, insp_ops[rank]);
            }
        }
        // Size the sequential buffers.
        let ty = prog.arrays[g.tmp].ty;
        for (rank, &n) in counts.iter().enumerate() {
            m.mems[rank].insert_array(tmp_name.clone(), LocalArray::zeros(ty, &[n.max(1) as i64]));
        }
        // Schedule (per-run §7(3) reuse + cross-run cache); the driver
        // maps (fast_path, read) onto the schedule kind.
        let sched = driver::schedule(m, &mut self.sched, &reqs, g.local_only, false)?;
        schedule::execute_read(m, &sched, &src_name, &tmp_name)?;
        Ok(())
    }

    fn exec_scatter(
        &mut self,
        f: &VmForall,
        m: &mut Machine,
        invertible: bool,
        outputs: &[ScatterOut],
    ) -> VmResult<()> {
        let prog = self.prog.clone();
        let dst = f.body.arr;
        let dst_name = prog.arrays[dst].name.clone();
        let dst_dad = self.dads[dst].clone();
        let ty = prog.arrays[dst].ty;
        // Stage values into per-rank sequential source buffers.
        let buf_name = format!("__SCATBUF_{dst_name}");
        for (rank, vals) in outputs.iter().enumerate() {
            let mut la = LocalArray::zeros(ty, &[vals.len().max(1) as i64]);
            for (k, (_, v)) in vals.iter().enumerate() {
                la.set(&[k as i64], *v);
            }
            m.mems[rank].insert_array(buf_name.clone(), la);
        }
        let mut reqs = Vec::new();
        for (rank, vals) in outputs.iter().enumerate() {
            for (k, (g, _)) in vals.iter().enumerate() {
                let src_off = m.mems[rank].array(&buf_name).offset(&[k as i64]);
                for owner in dst_dad.owner_ranks(g) {
                    let l = dst_dad.local_index(g);
                    let dst_off = m.mems[owner as usize].array(&dst_name).offset(&l);
                    reqs.push(ElementReq {
                        // For write schedules the "requester" is the
                        // receiving owner and the "owner" the producer.
                        requester: owner,
                        owner: rank as i64,
                        src_off,
                        dst_off,
                    });
                }
            }
        }
        let sched = driver::schedule(m, &mut self.sched, &reqs, invertible, true)?;
        schedule::execute_write(m, &sched, &buf_name, &dst_name)?;
        Ok(())
    }
}

/// The bytecode engine's [`ComputeSink`]: the shared driver decides
/// *when* ghost exchanges post, complete, and commit; this sink runs the
/// interior/boundary element loops ([`run_forall_rank`], uncommitted)
/// under the machine's `ExecMode` via `local_phase_map`, which charges
/// interior ranks as usual and each rank's boundary slabs as one summed
/// lump.
struct VmSink<'a> {
    prog: &'a VmProgram,
    f: &'a VmForall,
    resolved: &'a [Vec<Option<ResolvedAcc>>],
    vars: &'a [i64],
    scalars: &'a [Value],
    max_regs: usize,
    staged: Vec<StagedWrites>,
}

impl ComputeSink for VmSink<'_> {
    type Error = VmError;

    fn interior(&mut self, m: &mut Machine, lists: &[Vec<Vec<i64>>]) -> VmResult<()> {
        let (prog, f, resolved, vars, scalars, max_regs) = (
            self.prog,
            self.f,
            self.resolved,
            self.vars,
            self.scalars,
            self.max_regs,
        );
        let results: Vec<Result<StagedWrites, String>> = m.local_phase_map(|rank, mem| {
            match run_forall_rank(
                prog,
                f,
                rank,
                mem,
                &lists[rank as usize],
                &resolved[rank as usize],
                vars,
                scalars,
                max_regs,
                false,
            ) {
                Ok((_, staged, ops)) => (Ok(staged), ops),
                Err(e) => (Err(e), 0),
            }
        });
        for (rank, r) in results.into_iter().enumerate() {
            self.staged[rank].extend(r.map_err(VmError)?);
        }
        Ok(())
    }

    fn boundary(&mut self, m: &mut Machine, slabs: &[Vec<Vec<Vec<i64>>>]) -> VmResult<()> {
        let (prog, f, resolved, vars, scalars, max_regs) = (
            self.prog,
            self.f,
            self.resolved,
            self.vars,
            self.scalars,
            self.max_regs,
        );
        let results: Vec<Result<StagedWrites, String>> = m.local_phase_map(|rank, mem| {
            let mut staged = StagedWrites::new();
            let mut ops = 0i64;
            for slab in &slabs[rank as usize] {
                match run_forall_rank(
                    prog,
                    f,
                    rank,
                    mem,
                    slab,
                    &resolved[rank as usize],
                    vars,
                    scalars,
                    max_regs,
                    false,
                ) {
                    Ok((_, st, o)) => {
                        staged.extend(st);
                        ops += o;
                    }
                    Err(e) => return (Err(e), 0),
                }
            }
            (Ok(staged), ops)
        });
        for (rank, r) in results.into_iter().enumerate() {
            self.staged[rank].extend(r.map_err(VmError)?);
        }
        Ok(())
    }

    fn commit(&mut self, m: &mut Machine) -> VmResult<()> {
        let name = &self.prog.arrays[self.f.body.arr].name;
        for (rank, writes) in std::mem::take(&mut self.staged).into_iter().enumerate() {
            if writes.is_empty() {
                continue;
            }
            let arr = m.mems[rank].array_mut(name);
            for (off, v) in writes {
                arr.set_flat(off, v);
            }
        }
        Ok(())
    }
}

/// One rank's scatter-write output: `(global_subscripts, value)` pairs in
/// iteration order.
type ScatterOut = Vec<(Vec<i64>, Value)>;

/// One rank's staged owned writes: `(flat offset, value)` pairs, returned
/// uncommitted to the caller during split-phase (overlap) execution.
type StagedWrites = Vec<(usize, Value)>;

/// Allocation shape + symmetric ghost widths for one declared array.
fn decl_alloc(decl: &VmArrayDecl) -> (Vec<i64>, Vec<i64>) {
    let shape = decl.dad.local_shape();
    let ghost: Vec<i64> = decl
        .dad
        .dims
        .iter()
        .map(|d| if d.is_distributed() { decl.ghost } else { 0 })
        .collect();
    (shape, ghost)
}

/// Largest register file any element-context code of `f` needs.
fn forall_max_regs(f: &VmForall) -> usize {
    let mut n = f.mask.as_ref().map_or(0, |c| c.nregs) as usize;
    for v in &f.vars {
        n = n
            .max(v.lb.nregs as usize)
            .max(v.ub.nregs as usize)
            .max(v.st.nregs as usize);
    }
    n = n.max(f.body.rhs.nregs as usize);
    for s in &f.body.subs {
        n = n.max(s.nregs as usize);
    }
    for g in &f.gathers {
        for s in &g.subs {
            n = n.max(s.nregs as usize);
        }
    }
    n
}

/// One affine form bound to a rank: `base + Σ k[j]·iter_value[j]` over
/// the FORALL variables, outer to inner.
struct NatAff {
    base: i64,
    k: Vec<i64>,
}

impl NatAff {
    #[inline]
    fn at(&self, vals: &[i64]) -> i64 {
        let mut v = self.base;
        for (c, x) in self.k.iter().zip(vals) {
            v += c * x;
        }
        v
    }

    /// Exact min/max over the box `[lo, hi]` per variable (attained at
    /// corners, which are real iteration tuples).
    fn range(&self, lo: &[i64], hi: &[i64]) -> (i64, i64) {
        let (mut a, mut b) = (self.base, self.base);
        for (j, &c) in self.k.iter().enumerate() {
            if c >= 0 {
                a += c * lo[j];
                b += c * hi[j];
            } else {
                a += c * hi[j];
                b += c * lo[j];
            }
        }
        (a, b)
    }

    fn scale_shift(&self, a: i64, b: i64) -> NatAff {
        NatAff {
            base: a * self.base + b,
            k: self.k.iter().map(|&c| a * c).collect(),
        }
    }

    fn add_scaled(&mut self, other: &NatAff, s: i64) {
        self.base += s * other.base;
        for (c, o) in self.k.iter_mut().zip(&other.k) {
            *c += s * o;
        }
    }
}

/// A kernel body bound to one rank: everything the element loop needs
/// with no descriptor math, bounds checks, or `Value` boxing left.
struct NatBody {
    func: ElemFn,
    /// Flat padded offset of each read site.
    read_offs: Vec<NatAff>,
    /// Target array of each read site (view lookup).
    read_arrs: Vec<ArrId>,
    /// Values for [`ElemArgs::lins`].
    lin_vals: Vec<NatAff>,
    /// Snapshot for [`ElemArgs::scalars`].
    scalars: Vec<f64>,
    /// Flat padded offset of the owned write.
    lhs_off: NatAff,
    /// Modelled cost per iteration (identical to the bytecode body's).
    cost: i64,
}

/// Execute a bound native kernel: one local phase under the machine's
/// `ExecMode`, same cost charging, staging, and commit order as the
/// bytecode loop — only the per-element work is closure calls over raw
/// `f64` slices.
fn run_native_forall(
    prog: &VmProgram,
    f: &VmForall,
    m: &mut Machine,
    bound: &[Option<NatBody>],
    iter_lists: &[Vec<Vec<i64>>],
) -> VmResult<()> {
    let commit_name = &prog.arrays[f.body.arr].name;
    m.local_phase(|rank, mem| {
        let Some(b) = &bound[rank as usize] else {
            return 0;
        };
        let lists = &iter_lists[rank as usize];
        // Lazily-allocated segments expose no raw slice until their
        // buffer exists (`LocalArray::data`); force every array this
        // phase will view before taking shared borrows.
        for &arr in &b.read_arrs {
            mem.array_mut(&prog.arrays[arr].name).materialize();
        }
        // Pre-borrow every read view as a raw f64 slice (selection
        // admits REAL arrays only).
        let views: Vec<&[f64]> = b
            .read_arrs
            .iter()
            .map(|&arr| mem.array(&prog.arrays[arr].name).data().as_real_slice())
            .collect();
        let mut vals = vec![0i64; lists.len()];
        let mut readbuf: Vec<f64> = Vec::new();
        let mut linbuf: Vec<i64> = Vec::new();
        let mut staged: Vec<(usize, f64)> = Vec::new();
        let mut ops: i64 = 0;
        let mut cursor = vec![0usize; lists.len()];
        'iter: loop {
            for (k, list) in lists.iter().enumerate() {
                vals[k] = list[cursor[k]];
            }
            readbuf.clear();
            for (view, off) in views.iter().zip(&b.read_offs) {
                readbuf.push(view[off.at(&vals) as usize]);
            }
            linbuf.clear();
            for l in &b.lin_vals {
                linbuf.push(l.at(&vals));
            }
            let v = (b.func)(&ElemArgs {
                reads: &readbuf,
                lins: &linbuf,
                scalars: &b.scalars,
            });
            ops += b.cost;
            staged.push((b.lhs_off.at(&vals) as usize, v));
            // advance cartesian cursor (last var fastest)
            let mut d = lists.len();
            loop {
                if d == 0 {
                    break 'iter;
                }
                d -= 1;
                cursor[d] += 1;
                if cursor[d] < lists[d].len() {
                    break;
                }
                cursor[d] = 0;
            }
        }
        drop(views);
        // Commit staged owned writes (RHS-before-LHS within the rank),
        // same single-target commit as the bytecode loop.
        let out = mem.array_mut(commit_name).data_mut().as_real_slice_mut();
        for (off, v) in staged {
            out[off] = v;
        }
        ops
    });
    Ok(())
}

/// The per-rank element loop: flat fetch/decode over the mask and body
/// register code, with owned writes staged (FORALL RHS-before-LHS
/// semantics within the rank) and scatter writes collected for the
/// post-loop schedule. Returns the scatter outputs, any uncommitted
/// staged writes, and the modelled cost.
///
/// `commit`: `true` commits the staged owned writes into `mem` before
/// returning (the blocking path). `false` returns them uncommitted —
/// the overlap driver runs this once over the interior sub-product and
/// once per boundary slab, and commits both phases together after the
/// ghost exchange completes.
#[allow(clippy::too_many_arguments)]
fn run_forall_rank(
    prog: &VmProgram,
    f: &VmForall,
    rank: i64,
    mem: &mut NodeMemory,
    lists: &[Vec<i64>],
    resolved: &[Option<ResolvedAcc>],
    vars_base: &[i64],
    scalars: &[Value],
    max_regs: usize,
    commit: bool,
) -> Result<(ScatterOut, StagedWrites, i64), String> {
    let mut scat: ScatterOut = Vec::new();
    if lists.iter().any(|l| l.is_empty()) {
        return Ok((scat, Vec::new(), 0));
    }
    let views: Vec<Option<&LocalArray>> = resolved
        .iter()
        .map(|o| o.as_ref().map(|a| mem.array(&prog.arrays[a.target].name)))
        .collect();
    let seq_views: Vec<&LocalArray> = f
        .gathers
        .iter()
        .map(|g| mem.array(&prog.arrays[g.tmp].name))
        .collect();
    let mut vars = vars_base.to_vec();
    let mut regs = vec![Value::Int(0); max_regs];
    let mut counters = vec![0usize; f.gathers.len()];
    let mut staged: Vec<(usize, Value)> = Vec::new();
    let mut subs_buf: Vec<i64> = Vec::new();
    let mut ops: i64 = 0;
    let mut cursor = vec![0usize; lists.len()];
    'iter: loop {
        for (k, list) in lists.iter().enumerate() {
            vars[f.vars[k].var as usize] = list[cursor[k]];
        }
        let mut run = true;
        if let Some(mask) = &f.mask {
            ops += f.mask_cost;
            run = eval_elem(
                prog,
                mask,
                &mut regs,
                &vars,
                scalars,
                &views,
                resolved,
                &seq_views,
                &mut counters,
                true,
                rank,
            )?
            .as_bool();
        }
        if run {
            let b = &f.body;
            let v = eval_elem(
                prog,
                &b.rhs,
                &mut regs,
                &vars,
                scalars,
                &views,
                resolved,
                &seq_views,
                &mut counters,
                true,
                rank,
            )?;
            ops += b.cost;
            subs_buf.clear();
            for s in &b.subs {
                subs_buf.push(
                    eval_elem(
                        prog,
                        s,
                        &mut regs,
                        &vars,
                        scalars,
                        &views,
                        resolved,
                        &seq_views,
                        &mut counters,
                        true,
                        rank,
                    )?
                    .as_int(),
                );
            }
            match b.scatter {
                None => {
                    let acc = resolved[b.lhs_acc.expect("owned write accessor") as usize]
                        .as_ref()
                        .expect("lhs accessor resolved");
                    let off = acc.offset(&subs_buf, &prog.arrays[b.arr].name, rank)?;
                    staged.push((off, v));
                }
                Some(_) => scat.push((subs_buf.clone(), v)),
            }
        }
        // advance cartesian cursor (last var fastest)
        let mut d = lists.len();
        loop {
            if d == 0 {
                break 'iter;
            }
            d -= 1;
            cursor[d] += 1;
            if cursor[d] < lists[d].len() {
                break;
            }
            cursor[d] = 0;
        }
    }
    drop(views);
    drop(seq_views);
    // Blocking path: commit staged owned writes (RHS-before-LHS within
    // the rank) into the body's array. Overlap phases return them
    // uncommitted instead.
    if commit {
        if !staged.is_empty() {
            let arr = mem.array_mut(&prog.arrays[f.body.arr].name);
            for (off, v) in staged {
                arr.set_flat(off, v);
            }
        }
        return Ok((scat, Vec::new(), ops));
    }
    Ok((scat, staged, ops))
}

/// Element-context expression evaluation: the innermost fetch/decode
/// loop. All array reads go through the rank's pre-borrowed `views` and
/// pre-resolved accessors.
#[allow(clippy::too_many_arguments)]
#[inline]
fn eval_elem(
    prog: &VmProgram,
    code: &ExprCode,
    regs: &mut [Value],
    vars: &[i64],
    scalars: &[Value],
    views: &[Option<&LocalArray>],
    resolved: &[Option<ResolvedAcc>],
    seq_views: &[&LocalArray],
    counters: &mut [usize],
    seq_ok: bool,
    rank: i64,
) -> Result<Value, String> {
    for op in &code.ops {
        match *op {
            Op::Const { dst, k } => regs[dst as usize] = prog.consts[k as usize],
            Op::LoadVar { dst, slot } => regs[dst as usize] = Value::Int(vars[slot as usize]),
            Op::LoadScalar { dst, slot } => regs[dst as usize] = scalars[slot as usize],
            Op::Affine { dst, slot, a, b } => {
                regs[dst as usize] = Value::Int(a * vars[slot as usize] + b)
            }
            Op::Bin { op, dst, a, b } => {
                regs[dst as usize] = ops::eval_bin(op, regs[a as usize], regs[b as usize])?
            }
            Op::Un { op, dst, a } => regs[dst as usize] = ops::eval_un(op, regs[a as usize])?,
            Op::Intrin { f, dst, base, n } => {
                let args = &regs[base as usize..(base + n) as usize];
                regs[dst as usize] = ops::eval_intrin(f, args)?
            }
            Op::Read { dst, acc, base, n } => {
                let mut subs = [0i64; 8];
                for (k, v) in regs[base as usize..(base + n) as usize].iter().enumerate() {
                    subs[k] = v.as_int();
                }
                let racc = resolved[acc as usize].as_ref().expect("accessor resolved");
                let off = racc.offset(&subs[..n as usize], &prog.arrays[racc.target].name, rank)?;
                let view = views[acc as usize].expect("accessor view");
                regs[dst as usize] = view.get_flat(off);
            }
            Op::ReadSeq { dst, gather } => {
                if !seq_ok {
                    return Err("gathered value read outside the element loop".into());
                }
                let k = counters[gather as usize];
                counters[gather as usize] += 1;
                regs[dst as usize] = seq_views[gather as usize].get(&[k as i64]);
            }
        }
    }
    Ok(regs[code.out as usize])
}
