//! Cross-run schedule cache (paper §7, optimization 3, scaled up).
//!
//! The per-`Engine` schedule reuse of the compilers amortizes
//! the inspector only *within* one execution; every fresh
//! `Compiled::run_on`, every matrix cell and every long-running service
//! request used to rebuild the same PARTI schedules from scratch. This
//! module is the process-wide complement: a [`KeyedCache`] keyed by the
//! full [`SchedKey`] — the `(ScheduleKind, grid shape, complete request
//! list)` triple, compared by *equality*, never by `Schedule::signature()`
//! alone (a 64-bit hash that can collide).
//!
//! What a hit skips is the **wall-clock** rebuild of the move table. The
//! modelled inspector cost ([`schedule::inspect`]) is charged on every
//! run regardless, so per-run virtual time, message counts and byte
//! counts are bit-identical whether the cache is cold, warm, or disabled
//! (`repro --no-sched-cache`) — that is what keeps `BENCH_baseline.json`
//! valid.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use f90d_machine::{KeyedCache, Machine};

use crate::op::CommResult;
use crate::schedule::{self, ElementReq, Schedule, ScheduleKind};

/// Schedules the [`global`] cache holds. A key retains its full request
/// pattern plus the built move table, so a long-running service
/// executing data-dependent patterns needs the bound; benchmark working
/// sets are tens of keys.
pub const SCHED_CACHE_CAP: usize = 1024;

/// The full identity of a communication schedule: inspector family, the
/// logical grid it was built for, and the complete element-request
/// pattern. Two keys are the same schedule iff they are `==`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchedKey {
    /// Which inspector family builds this schedule.
    pub kind: ScheduleKind,
    /// Logical processor-grid shape the request ranks refer to.
    pub grid: Vec<i64>,
    /// The full request pattern, in inspector order.
    pub reqs: Vec<ElementReq>,
}

/// The process-wide [`SchedKey`] → [`Schedule`] cache.
pub type SchedCache = KeyedCache<SchedKey, Schedule>;

/// The process-wide schedule cache shared by every engine run.
pub fn global() -> &'static SchedCache {
    static CACHE: OnceLock<SchedCache> = OnceLock::new();
    CACHE.get_or_init(|| KeyedCache::new(SCHED_CACHE_CAP))
}

/// Per-run front end over the caches: owns the §7(3) within-run reuse
/// map (previously a signature-keyed `HashMap` in each executor — now
/// keyed by the full pattern, so a signature collision can no longer
/// alias two schedules) and consults the process-wide [`global`] cache
/// for the cross-run build. One per `Engine` instance.
pub struct RunSchedules {
    /// Within-run reuse map, `[read, write]` per pattern: the built
    /// schedule is side-agnostic, but each side's first occurrence must
    /// charge its own inspector cost, exactly as the per-executor caches
    /// did. Indexing by side (instead of keying by it) lets the hit path
    /// look up with one borrowed key — no extra pattern clone.
    seen: HashMap<SchedKey, [Option<Arc<Schedule>>; 2]>,
    /// §7(3) flag: reuse schedules across executions of the same pattern
    /// within this run (skipping the inspector *charge* on repeats).
    pub reuse: bool,
    /// Consult the process-wide cache for builds. Off (`repro
    /// --no-sched-cache`) every first-per-run occurrence rebuilds; per-run
    /// virtual metrics are identical either way.
    pub use_global: bool,
    hits: u64,
    misses: u64,
}

impl Default for RunSchedules {
    fn default() -> Self {
        Self::new()
    }
}

impl RunSchedules {
    /// Fresh per-run state: reuse on, global cache on.
    pub fn new() -> Self {
        RunSchedules {
            seen: HashMap::new(),
            reuse: true,
            use_global: true,
            hits: 0,
            misses: 0,
        }
    }

    /// The schedule for `reqs` under inspector family `kind`.
    ///
    /// Within-run repeats (when [`RunSchedules::reuse`] is on) are free —
    /// no inspector charge, no cache traffic — matching the paper's
    /// schedule-reuse optimization. The first occurrence per run always
    /// charges the full modelled inspector cost through
    /// [`schedule::inspect`]; only the wall-clock move-table build is
    /// skipped on a global-cache hit.
    pub fn schedule(
        &mut self,
        m: &mut Machine,
        kind: ScheduleKind,
        reqs: &[ElementReq],
        is_write: bool,
    ) -> CommResult<Arc<Schedule>> {
        let key = SchedKey {
            kind,
            grid: m.grid.shape.clone(),
            reqs: reqs.to_vec(),
        };
        let side = is_write as usize;
        if self.reuse {
            if let Some(s) = self.seen.get(&key).and_then(|pair| pair[side].as_ref()) {
                return Ok(s.clone());
            }
        }
        schedule::inspect(m, kind, reqs)?;
        let sched = if self.use_global {
            let (s, hit) = global().get_or_build(&key, || schedule::build_schedule(kind, reqs));
            if hit {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            s
        } else {
            Arc::new(schedule::build_schedule(kind, reqs))
        };
        if self.reuse {
            self.seen.entry(key).or_default()[side] = Some(sched.clone());
        }
        Ok(sched)
    }

    /// Global-cache hits this run (first-per-run patterns found built).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Global-cache misses this run (builds performed).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

// Every harness worker shares one `SchedCache`; losing either bound is a
// compile error here, not a runtime surprise there.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SchedCache>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn req(requester: i64, owner: i64, src_off: usize, dst_off: usize) -> ElementReq {
        ElementReq {
            requester,
            owner,
            src_off,
            dst_off,
        }
    }

    #[test]
    fn kind_grid_and_pattern_are_part_of_the_key() {
        let c = SchedCache::new(SCHED_CACHE_CAP);
        let key = |kind, grid: Vec<i64>, src_off| SchedKey {
            kind,
            grid,
            reqs: vec![req(0, 1, src_off, 0)],
        };
        let keys = [
            key(ScheduleKind::LocalOnly, vec![4], 3),
            key(ScheduleKind::FanInRequests, vec![4], 3),
            key(ScheduleKind::LocalOnly, vec![2, 2], 3),
            key(ScheduleKind::LocalOnly, vec![4], 4),
        ];
        let built: Vec<_> = keys
            .iter()
            .map(|k| {
                c.get_or_build(k, || schedule::build_schedule(k.kind, &k.reqs))
                    .0
            })
            .collect();
        assert_eq!(c.len(), 4, "kind, grid and pattern must separate entries");
        assert!(!Arc::ptr_eq(&built[0], &built[3]));
        assert_eq!(built[1].kind(), ScheduleKind::FanInRequests);
        let (again, hit) = c.get_or_build(&keys[0], || panic!("must not rebuild"));
        assert!(hit);
        assert!(Arc::ptr_eq(&built[0], &again));
    }
}
