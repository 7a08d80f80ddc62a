//! Phase-level communication plans: PARTI-style message coalescing
//! (paper §7, optimization 1 taken across statement boundaries).
//!
//! A *comm phase* is a group of consecutive FORALLs (or one FORALL with
//! several shifted RHS arrays) whose ghost exchanges are all posted
//! before any of them finishes. Where the per-statement path sends one
//! message per `(source rank, destination rank)` pair *per exchange*,
//! the phase executor merges every exchange's strip travelling between
//! the same pair into **one** wire transfer: one startup α, summed
//! bytes. On α-dominated stencil phases (thin ghost strips, k arrays)
//! that saves `(k−1)·α` per pair at every sender.
//!
//! The planner that decides *which* FORALLs form a phase lives in the
//! core optimizer (`comm_plan` pass); the execution engine drives this
//! module through the shared comm driver with the planner's
//! [`GhostSpec`] lists.
//!
//! Failure contract: a completion error mid-[`finish`](CommOp::finish)
//! does not abandon the remaining posted receives — every handle is
//! still driven exactly once (no leak of completable messages, no
//! double-complete), and the resulting [`CommError`] enumerates every
//! exchange pair whose handle is still open so the caller's
//! quiescence report names them all.

use std::collections::BTreeMap;

use f90d_distrib::Dad;
use f90d_machine::{ArrayData, ElemType, Machine, RecvHandle, Transport};

use crate::op::{CommError, CommOp, CommResult};
use crate::structured::overlap_shift_moves;

/// One ghost exchange batched into a phase: fill the ghost cells of
/// `arr` (live descriptor `dad`) for a compile-time shift by `c` along
/// array dimension `dim`. The executors build one spec per *distinct*
/// `(array, dim, c)` in the phase — duplicate exchanges across phase
/// members collapse to one spec (none of the phase's members writes the
/// exchanged array, so repeated fills would carry identical data).
#[derive(Debug, Clone)]
pub struct GhostSpec {
    /// Array whose ghost cells are filled.
    pub arr: String,
    /// Its live distribution descriptor.
    pub dad: Dad,
    /// Shifted array dimension.
    pub dim: usize,
    /// Compile-time shift constant.
    pub c: i64,
}

/// `(from, to) → [(item index, element moves)]`: every element travelling
/// between one rank pair, grouped by the [`GhostSpec`] it belongs to, in
/// deterministic (pair, item) order.
type PhaseMoves = BTreeMap<(i64, i64), Vec<(usize, Vec<(usize, usize)>)>>;

/// A split-phase, multi-array coalesced ghost exchange.
///
/// `post` packs, per remote `(from, to)` pair, the boundary strips of
/// *every* item crossing that pair into a single message (one α at the
/// sender, one packing charge over the summed bytes) and posts one
/// receive. `finish` completes each pair once and unpacks the items in
/// planning order. Local (same-rank) ghost fills are performed at post
/// time and charged at memcpy rate, exactly like the per-statement
/// [`crate::helpers::ExchangeOp`].
#[derive(Debug)]
pub struct PhaseExchange {
    items: Vec<GhostSpec>,
    ty: ElemType,
    moves: PhaseMoves,
    /// Posted receives, in deterministic pair order.
    pending: Vec<((i64, i64), RecvHandle)>,
    posted: bool,
}

impl PhaseExchange {
    /// Plan a coalesced exchange over `items`. Planning reads the live
    /// arrays (for offsets and element types) but posts nothing. All
    /// items must share one element type — the phase planner only
    /// groups same-typed arrays, so a mix here is a planner bug and
    /// surfaces as a structured error rather than a mis-packed message.
    pub fn plan(m: &Machine, items: Vec<GhostSpec>) -> CommResult<PhaseExchange> {
        let ty = match items.first() {
            Some(it) => m.mems[0].array(&it.arr).elem_type(),
            None => ElemType::Real,
        };
        for it in &items {
            let t = m.mems[0].array(&it.arr).elem_type();
            if t != ty {
                return Err(CommError(format!(
                    "comm phase mixes element types ({ty:?} and {t:?} on {})",
                    it.arr
                )));
            }
        }
        let mut moves: PhaseMoves = BTreeMap::new();
        for (k, it) in items.iter().enumerate() {
            let pm = overlap_shift_moves(m, &it.arr, &it.dad, it.dim, it.c, false);
            for (pair, mv) in pm {
                if !mv.is_empty() {
                    moves.entry(pair).or_default().push((k, mv));
                }
            }
        }
        Ok(PhaseExchange {
            items,
            ty,
            moves,
            pending: Vec::new(),
            posted: false,
        })
    }

    /// Number of wire messages this phase will send (remote pairs).
    pub fn coalesced_messages(&self) -> usize {
        self.moves.iter().filter(|((f, t), _)| f != t).count()
    }

    /// Number of wire messages the per-statement path would send for the
    /// same items: one per (item, remote pair).
    pub fn per_statement_messages(&self) -> usize {
        self.moves
            .iter()
            .filter(|((f, t), _)| f != t)
            .map(|(_, entries)| entries.len())
            .sum()
    }
}

impl CommOp for PhaseExchange {
    type Output = ();

    /// Perform local ghost fills, then pack and post one coalesced send
    /// per remote pair and post the matching receive.
    fn post(&mut self, m: &mut Machine) -> CommResult<()> {
        if self.posted {
            return Err(CommError("comm phase posted twice".into()));
        }
        self.posted = true;
        m.stats.record("comm_phase");
        for _ in &self.items {
            m.stats.record("overlap_shift");
        }
        let tag = m.fresh_tag();
        let copy_rate = m.spec().time_copy_byte;
        let elem_bytes = self.ty.bytes();
        for (&(from, to), entries) in self.moves.iter() {
            let n_elems: usize = entries.iter().map(|(_, mv)| mv.len()).sum();
            if n_elems == 0 {
                continue;
            }
            let bytes = n_elems as i64 * elem_bytes;
            if from == to {
                let mem = &mut m.mems[from as usize];
                for (k, mv) in entries {
                    let name = &self.items[*k].arr;
                    let vals: Vec<_> = {
                        let a = mem.array(name);
                        mv.iter().map(|&(s, _)| a.get_flat(s)).collect()
                    };
                    let a = mem.array_mut(name);
                    for (&(_, d), v) in mv.iter().zip(vals) {
                        a.set_flat(d, v);
                    }
                }
                m.transport.charge_compute(from, copy_rate * bytes as f64);
                continue;
            }
            // Pack every item's strip into one payload, in item order.
            let mut data = ArrayData::zeros(self.ty, n_elems);
            let mut off = 0usize;
            for (k, mv) in entries {
                let a = m.mems[from as usize].array(&self.items[*k].arr);
                for &(s, _) in mv {
                    data.set(off, a.get_flat(s));
                    off += 1;
                }
            }
            m.transport.charge_compute(from, copy_rate * bytes as f64);
            m.transport.post_send(from, to, tag, data);
            let h = m.transport.post_recv(to, from, tag);
            self.pending.push(((from, to), h));
        }
        Ok(())
    }

    /// Complete every posted receive in pair order, charge the unpack
    /// copy, and deposit each item's elements.
    ///
    /// A failed completion does not stop the batch: the remaining
    /// handles are still driven (arrived payloads deposit normally),
    /// and the final error lists **every** pair whose handle is still
    /// open, so nothing is silently leaked and nothing completes twice.
    fn finish(mut self, m: &mut Machine) -> CommResult<()> {
        if !self.posted {
            return Err(CommError("comm phase finished before post".into()));
        }
        let copy_rate = m.spec().time_copy_byte;
        let mut failed: Vec<String> = Vec::new();
        for (pair, h) in std::mem::take(&mut self.pending) {
            let payload = match m.transport.complete(h) {
                Ok(p) => p,
                Err(e) => {
                    failed.push(e.to_string());
                    continue;
                }
            };
            let (_, to) = pair;
            let bytes = payload.len() as i64 * payload.elem_type().bytes();
            m.transport.charge_compute(to, copy_rate * bytes as f64);
            let mut off = 0usize;
            for (k, mv) in &self.moves[&pair] {
                let a = m.mems[to as usize].array_mut(&self.items[*k].arr);
                for &(_, d) in mv {
                    a.set_flat(d, payload.get(off));
                    off += 1;
                }
            }
        }
        if failed.is_empty() {
            Ok(())
        } else {
            Err(CommError(format!(
                "comm phase finish: {} coalesced exchange(s) still open: {}",
                failed.len(),
                failed.join("; ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::overlap_shift;
    use f90d_distrib::{DadBuilder, DistKind, ProcGrid};
    use f90d_machine::{ElemType, LocalArray, MachineSpec, Value};

    /// 1-D machine with `names` BLOCK arrays, ghost width 2 both sides,
    /// A(i) = base + i per array.
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

    fn ghost_value(m: &Machine, dad: &Dad, name: &str, rank: i64, c: i64) -> Vec<f64> {
        // Values sitting in the ghost cells rank `rank` needs for A(i+c).
        let coords = m.grid.coords_of(rank);
        let locals = crate::helpers::owned_dim_locals(dad, 0, coords[0]);
        let (lo, hi) = (*locals.first().unwrap(), *locals.last().unwrap());
        let ghosts: Vec<i64> = if c > 0 {
            (hi + 1..=hi + c).collect()
        } else {
            (lo + c..lo).collect()
        };
        let a = m.mems[rank as usize].array(name);
        ghosts.iter().map(|&l| a.get(&[l]).as_real()).collect()
    }

    #[test]
    fn coalesced_fill_matches_per_statement_with_fewer_messages() {
        let n = 32;
        let p = 4;
        // Per-statement reference: three arrays, one exchange each.
        let (mut m1, dad) = setup(n, p, &["A", "B", "C"]);
        for name in ["A", "B", "C"] {
            overlap_shift(&mut m1, name, &dad, 0, 1, false).unwrap();
        }
        let per_stmt_msgs = m1.transport.messages;
        let per_stmt_bytes = m1.transport.bytes;

        // Phase: the same three exchanges coalesced.
        let (mut m2, _) = setup(n, p, &["A", "B", "C"]);
        let items = ["A", "B", "C"]
            .iter()
            .map(|&name| GhostSpec {
                arr: name.into(),
                dad: dad.clone(),
                dim: 0,
                c: 1,
            })
            .collect();
        let mut px = PhaseExchange::plan(&m2, items).unwrap();
        assert_eq!(px.per_statement_messages(), 3 * px.coalesced_messages());
        px.post(&mut m2).unwrap();
        px.finish(&mut m2).unwrap();
        m2.transport.quiescent_check().unwrap();

        // Same ghost contents, same bytes, one third the messages.
        for rank in 0..p {
            for name in ["A", "B", "C"] {
                assert_eq!(
                    ghost_value(&m1, &dad, name, rank, 1),
                    ghost_value(&m2, &dad, name, rank, 1),
                    "ghost mismatch on {name} rank {rank}"
                );
            }
        }
        assert_eq!(m2.transport.bytes, per_stmt_bytes);
        assert_eq!(m2.transport.messages * 3, per_stmt_msgs);
        // One α instead of three per pair: the senders' clocks are
        // strictly ahead (lower) under the plan.
        let t1 = m1.transport.clocks.iter().cloned().fold(0.0, f64::max);
        let t2 = m2.transport.clocks.iter().cloned().fold(0.0, f64::max);
        assert!(t2 < t1, "coalesced {t2} must beat per-statement {t1}");
    }

    #[test]
    fn mixed_directions_and_widths_coalesce_per_pair() {
        let n = 24;
        let (mut m, dad) = setup(n, 4, &["A", "B"]);
        let items = vec![
            GhostSpec {
                arr: "A".into(),
                dad: dad.clone(),
                dim: 0,
                c: 2,
            },
            GhostSpec {
                arr: "B".into(),
                dad: dad.clone(),
                dim: 0,
                c: -1,
            },
        ];
        let mut px = PhaseExchange::plan(&m, items).unwrap();
        // Opposite signs travel between different pairs: no merge, but
        // also no error — the plan degenerates to per-statement counts.
        assert_eq!(px.per_statement_messages(), px.coalesced_messages());
        px.post(&mut m).unwrap();
        px.finish(&mut m).unwrap();
        m.transport.quiescent_check().unwrap();
        // Spot-check both fills landed.
        assert_eq!(ghost_value(&m, &dad, "A", 0, 2), vec![6.0, 7.0]);
        assert_eq!(ghost_value(&m, &dad, "B", 1, -1), vec![1005.0]);
    }

    #[test]
    fn mid_finish_error_reports_every_open_handle_and_drains_the_rest() {
        let (mut m, dad) = setup(32, 4, &["A", "B"]);
        let items = vec![
            GhostSpec {
                arr: "A".into(),
                dad: dad.clone(),
                dim: 0,
                c: 1,
            },
            GhostSpec {
                arr: "B".into(),
                dad: dad.clone(),
                dim: 0,
                c: 1,
            },
        ];
        let mut px = PhaseExchange::plan(&m, items).unwrap();
        px.post(&mut m).unwrap();
        let posted = px.coalesced_messages();
        assert!(posted >= 3, "want several pairs in flight, got {posted}");
        // Inject a CommError into the *middle* of the batched finish:
        // steal the message of one middle pair by completing a
        // handle on the same channel, so that pair's own completion
        // finds no matching message while later pairs still succeed.
        let victim = px.pending[posted / 2].0;
        let tag = px.pending[posted / 2].1.tag();
        let stolen = m.transport.post_recv(victim.1, victim.0, tag);
        m.transport.complete(stolen).unwrap();
        let err = px.finish(&mut m).unwrap_err();
        // Structured report names the victim pair, and only it.
        assert!(
            err.0.contains("1 coalesced exchange(s) still open"),
            "{err}"
        );
        assert!(
            err.0
                .contains(&format!("recv({} <- {}", victim.1, victim.0)),
            "error must name the open handle: {err}"
        );
        // Every other handle was drained: exactly one receive is still
        // open (the victim's), and no message is left in flight.
        match m.transport.quiescent_check() {
            Err(f90d_machine::TransportError::NotQuiescent {
                in_flight,
                open_recvs,
                example,
            }) => {
                assert_eq!(in_flight, 0, "drained handles must consume their messages");
                // The stolen completion retired its own posted receive;
                // the victim's original handle is the only leak.
                assert_eq!(open_recvs, 1);
                // The extended quiescence report names the open receive
                // even with nothing left in flight.
                assert_eq!(example, Some((victim.0, victim.1, tag)));
            }
            other => panic!("expected NotQuiescent, got {other:?}"),
        }
    }

    #[test]
    fn phase_rejects_mixed_element_types() {
        let (mut m, dad) = setup(16, 2, &["A"]);
        for rank in 0..m.nranks() {
            let la = LocalArray::with_ghost(ElemType::Int, &dad.local_shape(), &[2], &[2]);
            m.mems[rank as usize].insert_array("K", la);
        }
        let items = vec![
            GhostSpec {
                arr: "A".into(),
                dad: dad.clone(),
                dim: 0,
                c: 1,
            },
            GhostSpec {
                arr: "K".into(),
                dad: dad.clone(),
                dim: 0,
                c: 1,
            },
        ];
        let err = PhaseExchange::plan(&m, items).unwrap_err();
        assert!(err.0.contains("element types"), "{err}");
    }
}
