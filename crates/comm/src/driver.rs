//! The FORALL communication driver.
//!
//! The paper's central claim is one portable run-time support system
//! under every compiled program (§6). This module is where that claim
//! is enforced in the code base: the full FORALL communication
//! lifecycle — per-statement ghost exchanges, the opt-in split-phase
//! overlap (`comm_compute_overlap`), phase-level batching
//! (`comm_plan`), unstructured schedule reuse, the rank-1 slab-temp
//! subscript contract, and the end-of-run quiescence check — is
//! sequenced **here**, once, and the bytecode engine in `f90d-vm`
//! drives it through these entry points. The engine keeps only
//! evaluation: it hands the driver a [`ComputeSink`] with
//! interior/boundary element-loop callbacks and never touches
//! [`PhaseExchange`], `overlap_shift_moves`, or the raw transport itself
//! (a guard test in `tests/` enforces exactly that).
//!
//! Contracts, bit for bit:
//! * [`CommDriver::phase_exchange`] batches a phase's deduplicated
//!   ghost exchanges through one coalesced [`PhaseExchange`]; a runtime
//!   planning refusal is reported as [`PhaseOutcome::Refused`] (and
//!   counted) so the caller can fall back to the always-correct
//!   per-statement path — the planner annotations are advisory.
//! * [`run_overlap`] posts every ghost exchange, runs the sink's
//!   interior compute **before** completing them (so the interior
//!   genuinely hides wire time), completes, runs the boundary slabs,
//!   and commits — the split geometry comes from the shared
//!   [`Margins`].

use std::sync::Arc;

use f90d_distrib::{ArrayDimMap, Dad};
use f90d_machine::{Machine, Transport};

use crate::op::{CommError, CommOp, CommResult};
use crate::overlap::{dims_overlap_compatible, Margins};
use crate::plan::{GhostSpec, PhaseExchange};
use crate::sched_cache::RunSchedules;
use crate::schedule::{ElementReq, Schedule, ScheduleKind};
use crate::structured;

/// Outcome of a batched phase exchange attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseOutcome {
    /// The coalesced exchange ran: every member's ghost cells are
    /// filled, so the members must execute with their preludes skipped.
    Exchanged,
    /// Runtime planning refused the batch (e.g. mixed element types).
    /// Nothing was posted; the caller must run the bit-identical
    /// per-statement fallback — every member's `pre` list is intact.
    Refused,
}

/// Per-run communication-orchestration state and counters.
///
/// The engine owns one `CommDriver` for the lifetime of a run and
/// routes every FORALL comm-phase decision through it; the counters
/// surface in the run trace (`comm_plan {groups, fallbacks}` in
/// `results.json`) so a cell's batching behaviour is observable without
/// being gated.
#[derive(Debug, Default, Clone)]
pub struct CommDriver {
    /// Phases that executed as one coalesced exchange.
    groups: u64,
    /// Phases the runtime planner refused (per-statement fallback ran).
    fallbacks: u64,
}

impl CommDriver {
    /// A fresh driver with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(groups, fallbacks)`: coalesced phases executed vs runtime
    /// planning refusals that fell back to per-statement execution.
    pub fn counts(&self) -> (u64, u64) {
        (self.groups, self.fallbacks)
    }

    /// Execute one planner-formed comm phase's ghost exchanges as a
    /// single coalesced [`PhaseExchange`].
    ///
    /// `specs` is every member's exchange list in statement order,
    /// duplicates included — the driver deduplicates by
    /// `(array, dim, c)` (none of a phase's members writes an exchanged
    /// array, so repeated fills would carry identical data). On
    /// [`PhaseOutcome::Exchanged`] the caller runs the members with
    /// their preludes skipped; on [`PhaseOutcome::Refused`] nothing was
    /// posted and the caller runs the per-statement fallback.
    pub fn phase_exchange(
        &mut self,
        m: &mut Machine,
        specs: Vec<GhostSpec>,
    ) -> CommResult<PhaseOutcome> {
        let mut batch: Vec<GhostSpec> = Vec::with_capacity(specs.len());
        for s in specs {
            if batch
                .iter()
                .any(|b| b.arr == s.arr && b.dim == s.dim && b.c == s.c)
            {
                continue;
            }
            batch.push(s);
        }
        let mut op = match PhaseExchange::plan(m, batch) {
            Ok(op) => op,
            Err(_) => {
                self.fallbacks += 1;
                return Ok(PhaseOutcome::Refused);
            }
        };
        op.post(m)?;
        op.finish(m)?;
        self.groups += 1;
        Ok(PhaseOutcome::Exchanged)
    }
}

/// One blocking per-statement ghost exchange (the `overlap_shift`
/// prelude of an unbatched FORALL): fill the ghost cells of `arr` for a
/// compile-time shift by `c` along `dim`.
pub fn ghost_exchange(m: &mut Machine, arr: &str, dad: &Dad, dim: usize, c: i64) -> CommResult<()> {
    structured::overlap_shift(m, arr, dad, dim, c, false)
}

/// Map a FORALL's `overlap_shift` prelude onto per-loop-variable ghost
/// margins — the eligibility core of split-phase execution, shared so
/// the eligibility rule lives in one place.
///
/// `loop_dims[k]` is the LHS dimension map carried by loop variable `k`
/// when that variable is a stride-1 owner-computes partition (`None`
/// otherwise — such variables can never absorb a margin). Each shift in
/// `shifts` (`(shifted dimension map, shift constant)`) must land on
/// the first compatible loop variable per [`dims_overlap_compatible`];
/// any shift with no compatible variable makes the whole FORALL
/// ineligible (`None` — callers fall back to blocking execution).
pub fn stencil_margins(
    loop_dims: &[Option<&ArrayDimMap>],
    shifts: &[(&ArrayDimMap, i64)],
) -> Option<Margins> {
    let mut margins = Margins::new(loop_dims.len());
    for (sdm, amount) in shifts {
        let var = loop_dims
            .iter()
            .position(|ldm| ldm.is_some_and(|l| dims_overlap_compatible(l, sdm)))?;
        margins.add(var, *amount);
    }
    Some(margins)
}

/// The compute half an executor lends to [`run_overlap`]: the driver
/// owns *when* ghost exchanges post, complete, and commit; the sink owns
/// *how* elements are evaluated and *how* their cost is charged. The
/// driver's unit tests substitute a fake sink through this boundary.
///
/// Contract: `interior` runs (and charges) entirely before the posted
/// exchanges complete — that ordering is the latency hiding.
/// `boundary` runs after completion and must charge each rank's slabs
/// as **one** lump sum. Writes from both calls must be staged, not
/// applied; `commit` applies them together, preserving FORALL
/// RHS-before-LHS semantics across the phase split.
pub trait ComputeSink {
    /// The executor's error type.
    type Error: From<CommError>;

    /// Run the interior iterations: per rank, the plain cartesian
    /// product of `lists[rank]` (already restricted to the margin-safe
    /// interior). Charge each rank's cost as the executor normally would.
    fn interior(&mut self, m: &mut Machine, lists: &[Vec<Vec<i64>>]) -> Result<(), Self::Error>;

    /// Run the boundary slabs: per rank, each sub-product in
    /// `slabs[rank]`, charging the rank's slabs as one summed lump.
    fn boundary(
        &mut self,
        m: &mut Machine,
        slabs: &[Vec<Vec<Vec<i64>>>],
    ) -> Result<(), Self::Error>;

    /// Apply every staged write from both phases.
    fn commit(&mut self, m: &mut Machine) -> Result<(), Self::Error>;
}

/// Split-phase stencil execution (paper §5.1/§7 latency hiding), the
/// single implementation behind `comm_compute_overlap`: post every
/// ghost exchange in `shifts`, run the sink's
/// interior compute while the strips are on the wire, complete the
/// exchanges, run the boundary slabs that read the freshly filled ghost
/// cells, then commit both phases' staged writes. Array results are
/// bit-identical to blocking execution — only the virtual clocks
/// differ, which is the point.
///
/// `iter_lists` are the per-rank, per-variable iteration lists of the
/// full FORALL; the interior/boundary split comes from the shared
/// [`Margins`] geometry.
pub fn run_overlap<S: ComputeSink>(
    m: &mut Machine,
    shifts: &[GhostSpec],
    margins: &Margins,
    iter_lists: &[Vec<Vec<i64>>],
    sink: &mut S,
) -> Result<(), S::Error> {
    // 1. Post every ghost exchange: senders pay pack + α and are free.
    let mut posted = Vec::with_capacity(shifts.len());
    for s in shifts {
        posted.push(structured::overlap_shift_post(
            m, &s.arr, &s.dad, s.dim, s.c, false,
        )?);
    }
    // 2. Split each rank's iteration space once via the shared geometry.
    let interior: Vec<Vec<Vec<i64>>> = iter_lists
        .iter()
        .map(|lists| margins.interior_lists(lists))
        .collect();
    let boundary: Vec<Vec<Vec<Vec<i64>>>> = iter_lists
        .iter()
        .map(|lists| margins.boundary_slabs(lists))
        .collect();
    // 3. Interior compute, charged before the completions below so it
    // genuinely hides the wire time.
    sink.interior(m, &interior)?;
    // 4. Complete the ghost exchanges: each receiver's clock advances
    // to max(its post-interior clock, strip arrival).
    for op in posted {
        op.finish(m)?;
    }
    // 5. Boundary compute: only the shell tuples whose reads touch
    // ghost cells.
    sink.boundary(m, &boundary)?;
    // 6. Commit both phases' staged writes (FORALL RHS-before-LHS).
    sink.commit(m)
}

/// Build (or reuse, per-run and through the cross-run cache) the
/// schedule for an unstructured request list. For reads, `fast_path`
/// (= `local_only`) selects the local-only schedule over fan-in
/// requests; for writes (`is_write`), it (= `invertible`) selects
/// local-only over the sender-driven schedule. One mapping, used by
/// the engine's gather and scatter executors.
pub fn schedule(
    m: &mut Machine,
    rs: &mut RunSchedules,
    reqs: &[ElementReq],
    fast_path: bool,
    is_write: bool,
) -> CommResult<Arc<Schedule>> {
    let kind = if fast_path {
        ScheduleKind::LocalOnly
    } else if is_write {
        ScheduleKind::SenderDriven
    } else {
        ScheduleKind::FanInRequests
    };
    rs.schedule(m, kind, reqs, is_write)
}

/// The rank-1 slab-temp subscript contract, shared by every consumer of
/// a scalar-multicast slab temporary (the VM lowering): which of a
/// read's `nsubs` source subscripts
/// survive the dropped `fixed_dim`. `None` means the source was rank-1 —
/// the slab is the single dummy extent-1 dimension the multicast's
/// `slab_dad` pads in, and the consumer must index it with a constant
/// zero instead of an empty subscript list.
pub fn slab_kept_dims(nsubs: usize, fixed_dim: usize) -> Option<Vec<usize>> {
    let kept: Vec<usize> = (0..nsubs).filter(|&d| d != fixed_dim).collect();
    if kept.is_empty() {
        None
    } else {
        Some(kept)
    }
}

/// End-of-run transport quiescence check: leaked in-flight messages or
/// never-completed posted receives surface as a structured [`CommError`]
/// instead of being silently dropped. Every engine run ends here.
pub fn quiesce(m: &mut Machine) -> CommResult<()> {
    m.transport.quiescent_check().map_err(CommError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::{DadBuilder, DistKind, ProcGrid};
    use f90d_machine::{ElemType, LocalArray, MachineSpec, Value};

    /// 1-D machine with `names` BLOCK arrays, ghost width 2 both sides,
    /// array `k`'s element `i` = 1000k + i (same fixture as `plan.rs`).
    fn setup(n: i64, p: i64, names: &[&str]) -> (Machine, Dad) {
        let grid = ProcGrid::new(&[p]);
        let mut m = Machine::new(MachineSpec::ipsc860(), grid.clone());
        let dad = DadBuilder::new(names[0], &[n])
            .distribute(&[DistKind::Block])
            .grid(grid)
            .build()
            .unwrap();
        for (base, name) in names.iter().enumerate() {
            for rank in 0..m.nranks() {
                let coords = m.grid.coords_of(rank);
                let mut la = LocalArray::with_ghost(ElemType::Real, &dad.local_shape(), &[2], &[2]);
                for (g, l) in dad.owned_elements(&coords) {
                    la.set(&l, Value::Real((1000 * base as i64 + g[0]) as f64));
                }
                m.mems[rank as usize].insert_array(*name, la);
            }
        }
        (m, dad)
    }

    fn spec(dad: &Dad, name: &str, c: i64) -> GhostSpec {
        GhostSpec {
            arr: name.into(),
            dad: dad.clone(),
            dim: 0,
            c,
        }
    }

    /// Duplicate specs across phase members collapse to one exchange:
    /// the batched fill moves exactly the bytes of the deduplicated set
    /// and the driver counts one group.
    #[test]
    fn phase_exchange_dedups_and_counts_groups() {
        let (mut m_ref, dad) = setup(32, 4, &["A", "B"]);
        let mut drv_ref = CommDriver::new();
        let deduped = vec![spec(&dad, "A", 1), spec(&dad, "B", 1)];
        assert_eq!(
            drv_ref.phase_exchange(&mut m_ref, deduped).unwrap(),
            PhaseOutcome::Exchanged
        );

        let (mut m, dad) = setup(32, 4, &["A", "B"]);
        let mut drv = CommDriver::new();
        // Three members, two of them re-reading the same shifted A.
        let dup = vec![
            spec(&dad, "A", 1),
            spec(&dad, "A", 1),
            spec(&dad, "B", 1),
            spec(&dad, "A", 1),
        ];
        assert_eq!(
            drv.phase_exchange(&mut m, dup).unwrap(),
            PhaseOutcome::Exchanged
        );
        assert_eq!(drv.counts(), (1, 0));
        assert_eq!(m.transport.messages, m_ref.transport.messages);
        assert_eq!(m.transport.bytes, m_ref.transport.bytes);
        quiesce(&mut m).unwrap();
    }

    /// A mixed-element-type batch is refused: nothing posts, the
    /// fallback counter ticks, and the caller is free to run the
    /// per-statement path.
    #[test]
    fn phase_exchange_refusal_posts_nothing_and_counts_a_fallback() {
        let (mut m, dad) = setup(16, 2, &["A"]);
        for rank in 0..m.nranks() {
            let la = LocalArray::with_ghost(ElemType::Int, &dad.local_shape(), &[2], &[2]);
            m.mems[rank as usize].insert_array("K", la);
        }
        let mut drv = CommDriver::new();
        let specs = vec![spec(&dad, "A", 1), spec(&dad, "K", 1)];
        assert_eq!(
            drv.phase_exchange(&mut m, specs).unwrap(),
            PhaseOutcome::Refused
        );
        assert_eq!(drv.counts(), (0, 1));
        assert_eq!(m.transport.messages, 0, "a refusal must post nothing");
        quiesce(&mut m).unwrap();
    }

    /// `run_overlap` is bit-identical to blocking execution: same ghost
    /// fills, same messages and bytes, interior charged before the
    /// completions, boundary after.
    #[test]
    fn run_overlap_orders_post_interior_finish_boundary_commit() {
        #[derive(Default)]
        struct Probe {
            calls: Vec<&'static str>,
            /// Messages already completed when `interior` ran.
            msgs_at_interior: u64,
        }
        impl ComputeSink for Probe {
            type Error = CommError;
            fn interior(
                &mut self,
                m: &mut Machine,
                lists: &[Vec<Vec<i64>>],
            ) -> Result<(), CommError> {
                self.calls.push("interior");
                self.msgs_at_interior = m.transport.messages;
                // Interior of a ±1-margined 8-wide block keeps the
                // middle and drops both edges.
                assert!(lists.iter().all(|l| l.len() == 1));
                Ok(())
            }
            fn boundary(
                &mut self,
                _m: &mut Machine,
                slabs: &[Vec<Vec<Vec<i64>>>],
            ) -> Result<(), CommError> {
                self.calls.push("boundary");
                assert!(slabs.iter().any(|s| !s.is_empty()));
                Ok(())
            }
            fn commit(&mut self, _m: &mut Machine) -> Result<(), CommError> {
                self.calls.push("commit");
                Ok(())
            }
        }

        let (mut m, dad) = setup(32, 4, &["A"]);
        let shifts = vec![spec(&dad, "A", 1), spec(&dad, "A", -1)];
        let mut margins = Margins::new(1);
        margins.add(0, 1);
        margins.add(0, -1);
        // Rank r owns globals 8r..8r+7.
        let iter_lists: Vec<Vec<Vec<i64>>> = (0..4)
            .map(|r| vec![(8 * r..8 * r + 8).collect::<Vec<i64>>()])
            .collect();
        let mut sink = Probe::default();
        run_overlap(&mut m, &shifts, &margins, &iter_lists, &mut sink).unwrap();
        assert_eq!(sink.calls, vec!["interior", "boundary", "commit"]);
        // The sends were already posted (and counted) when the interior
        // ran — posting precedes compute, completion follows it.
        assert_eq!(sink.msgs_at_interior, m.transport.messages);
        assert!(m.transport.messages > 0);
        quiesce(&mut m).unwrap();
    }

    #[test]
    fn stencil_margins_mirror_the_backend_eligibility_rules() {
        let grid = ProcGrid::new(&[4]);
        let dad = DadBuilder::new("A", &[32])
            .distribute(&[DistKind::Block])
            .grid(grid.clone())
            .build()
            .unwrap();
        let dm = &dad.dims[0];
        // A compatible loop variable absorbs both shift directions.
        let m = stencil_margins(&[Some(dm)], &[(dm, 1), (dm, -2)]).unwrap();
        let lists = vec![(0i64..8).collect::<Vec<i64>>()];
        assert_eq!(
            m.interior_lists(&lists),
            vec![(2i64..7).collect::<Vec<i64>>()]
        );
        // No owner-computes variable → ineligible.
        assert!(stencil_margins(&[None], &[(dm, 1)]).is_none());
        // A replicated (undistributed) shifted dimension is ineligible
        // too: dims_overlap_compatible requires a grid axis.
        let repl = DadBuilder::new("R", &[32]).build().unwrap();
        assert!(stencil_margins(&[Some(dm)], &[(&repl.dims[0], 1)]).is_none());
    }

    #[test]
    fn slab_kept_dims_pads_rank_one_sources() {
        assert_eq!(slab_kept_dims(2, 0), Some(vec![1]));
        assert_eq!(slab_kept_dims(3, 1), Some(vec![0, 2]));
        // Rank-1 source: the dropped dim is the only dim — consumers
        // must read the padded extent-1 dummy dimension at zero.
        assert_eq!(slab_kept_dims(1, 0), None);
    }
}
