//! Cross-run schedule cache (paper §7, optimization 3, scaled up).
//!
//! The per-`Engine` schedule reuse of the compilers amortizes
//! the inspector only *within* one execution; every fresh
//! `Compiled::run_on`, every matrix cell and every long-running service
//! request used to rebuild the same PARTI schedules from scratch. This
//! module is the process-wide complement, modelled on the VM program
//! cache (`f90d_vm::cache`):
//!
//! * **sharded** — concurrent harness workers contend only on the shard
//!   owning their key;
//! * **per-key slot locks** — N workers racing one cold key perform
//!   exactly one build; the rest block on the slot (not the shard) and
//!   observe a hit; builds of different keys proceed fully in parallel;
//! * **full-pattern keys** — a [`SchedKey`] is the `(ScheduleKind, grid
//!   shape, complete request list)` triple, compared by *equality*, never
//!   by `Schedule::signature()` alone: the signature is a 64-bit hash and
//!   can collide, so it is only ever used to pick a shard.
//!
//! What a hit skips is the **wall-clock** rebuild of the move table. The
//! modelled inspector cost ([`schedule::inspect`]) is charged on every
//! run regardless, so per-run virtual time, message counts and byte
//! counts are bit-identical whether the cache is cold, warm, or disabled
//! (`repro --no-sched-cache`) — that is what keeps `BENCH_baseline.json`
//! valid.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use f90d_machine::Machine;

use crate::op::CommResult;
use crate::schedule::{self, ElementReq, Schedule, ScheduleKind};

/// Shard count. A small power of two: a workload set caches tens of
/// schedules, so this bounds contention, not capacity.
const SHARDS: usize = 16;

/// Capacity cap per shard (so 1024 entries process-wide). A key retains
/// its full request pattern plus the built move table, so an unbounded
/// map would grow without limit in a long-running service executing
/// data-dependent patterns; past the cap an arbitrary finished entry is
/// evicted (benchmark working sets are tens of keys — the cap is a
/// memory safety valve, not an LRU policy).
const MAX_PER_SHARD: usize = 64;

/// The full identity of a communication schedule: inspector family, the
/// logical grid it was built for, and the complete element-request
/// pattern. Two keys are the same schedule iff they are `==` — the
/// hash ([`pattern_hash`]) only routes to a shard.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchedKey {
    /// Which inspector family builds this schedule.
    pub kind: ScheduleKind,
    /// Logical processor-grid shape the request ranks refer to.
    pub grid: Vec<i64>,
    /// The full request pattern, in inspector order.
    pub reqs: Vec<ElementReq>,
}

/// FNV-1a over the key structure — the workspace's standard cache-key
/// hash, used **only** to choose a shard. It can collide (the collision
/// regression test engineers one); the shard map stores full [`SchedKey`]s
/// so colliding patterns still get distinct slots.
pub fn pattern_hash(key: &SchedKey) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(key.kind as u64);
    mix(key.grid.len() as u64);
    for &d in &key.grid {
        mix(d as u64);
    }
    mix(key.reqs.len() as u64);
    for r in &key.reqs {
        mix(r.requester as u64);
        mix(r.owner as u64);
        mix(r.src_off as u64);
        mix(r.dst_off as u64);
    }
    h
}

/// Per-key slot: the built schedule, `None` while cold.
#[derive(Default)]
struct Slot {
    sched: Mutex<Option<Arc<Schedule>>>,
}

/// A sharded concurrent [`SchedKey`] → `Arc<Schedule>` map with hit/miss
/// counters. Shared by every harness worker (`Send + Sync`).
pub struct SchedCache {
    shards: Vec<Mutex<HashMap<SchedKey, Arc<Slot>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for SchedCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedCache {
    /// Empty cache.
    pub fn new() -> Self {
        SchedCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &SchedKey) -> &Mutex<HashMap<SchedKey, Arc<Slot>>> {
        &self.shards[(pattern_hash(key) % SHARDS as u64) as usize]
    }

    /// Lock, recovering from poison: `build` runs inspector code under
    /// the slot lock, and a panic there must surface once — not cascade
    /// as `PoisonError` panics in every other worker of that key. A
    /// poisoned slot still holds `None`, so the next caller of *that* key
    /// simply retries the build; every other key is untouched.
    fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
        lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up `key`, building with `build` on a miss. Returns the shared
    /// schedule and whether this call was a hit. Concurrent callers of
    /// the same key block on the per-key slot until the one build
    /// finishes, then all share it.
    pub fn get_or_build(
        &self,
        key: &SchedKey,
        build: impl FnOnce() -> Schedule,
    ) -> (Arc<Schedule>, bool) {
        let slot = {
            let mut map = Self::recover(self.shard(key));
            if let Some(slot) = map.get(key) {
                slot.clone()
            } else {
                if map.len() >= MAX_PER_SHARD {
                    // Evict an arbitrary *finished* entry (never a slot
                    // some worker is still building — its key must stay
                    // reachable so racers keep converging on one build).
                    let victim = map
                        .iter()
                        .find(|(_, s)| s.sched.try_lock().map(|g| g.is_some()).unwrap_or(false))
                        .map(|(k, _)| k.clone());
                    if let Some(k) = victim {
                        map.remove(&k);
                    }
                }
                let slot = Arc::new(Slot::default());
                map.insert(key.clone(), slot.clone());
                slot
            }
        };
        // Shard lock released: the build below serializes only callers of
        // this key.
        let mut sched = Self::recover(&slot.sched);
        if let Some(s) = sched.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (s.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let s = Arc::new(build());
        *sched = Some(s.clone());
        (s, false)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (inspector builds performed) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached schedules (slots holding a finished build).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                // Snapshot the slots, then release the shard lock before
                // touching any slot mutex: a slot may be mid-build, and
                // holding the shard lock while waiting on it would stall
                // lookups of every other key in the shard.
                let slots: Vec<Arc<Slot>> = Self::recover(s).values().cloned().collect();
                slots
                    .iter()
                    .filter(|slot| Self::recover(&slot.sched).is_some())
                    .count()
            })
            .sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached schedule (tests).
    pub fn clear(&self) {
        for s in &self.shards {
            Self::recover(s).clear();
        }
    }
}

/// The process-wide schedule cache shared by every engine run.
pub fn global() -> &'static SchedCache {
    static CACHE: OnceLock<SchedCache> = OnceLock::new();
    CACHE.get_or_init(SchedCache::new)
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
    assert_send_sync::<Arc<Schedule>>();
    assert_send_sync::<SchedKey>();
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

    fn key(kind: ScheduleKind, reqs: Vec<ElementReq>) -> SchedKey {
        SchedKey {
            kind,
            grid: vec![4],
            reqs,
        }
    }

    #[test]
    fn hit_returns_same_schedule() {
        let c = SchedCache::new();
        let k = key(ScheduleKind::FanInRequests, vec![req(0, 1, 2, 0)]);
        let (a, hit_a) = c.get_or_build(&k, || schedule::build_schedule(k.kind, &k.reqs));
        let (b, hit_b) = c.get_or_build(&k, || panic!("must not rebuild"));
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((c.hits(), c.misses(), c.len()), (1, 1, 1));
    }

    #[test]
    fn distinct_patterns_get_distinct_slots() {
        let c = SchedCache::new();
        let ka = key(ScheduleKind::LocalOnly, vec![req(0, 1, 0, 0)]);
        let kb = key(ScheduleKind::LocalOnly, vec![req(0, 1, 1, 0)]);
        let (a, _) = c.get_or_build(&ka, || schedule::build_schedule(ka.kind, &ka.reqs));
        let (b, _) = c.get_or_build(&kb, || schedule::build_schedule(kb.kind, &kb.reqs));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(c.len(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn kind_and_grid_are_part_of_the_key() {
        let c = SchedCache::new();
        let reqs = vec![req(0, 1, 3, 0)];
        let k1 = key(ScheduleKind::LocalOnly, reqs.clone());
        let k2 = key(ScheduleKind::FanInRequests, reqs.clone());
        let k3 = SchedKey {
            kind: ScheduleKind::LocalOnly,
            grid: vec![2, 2],
            reqs,
        };
        for k in [&k1, &k2, &k3] {
            c.get_or_build(k, || schedule::build_schedule(k.kind, &k.reqs));
        }
        assert_eq!(c.len(), 3, "kind and grid must separate entries");
    }

    #[test]
    fn capacity_cap_bounds_the_cache() {
        let c = SchedCache::new();
        let total = SHARDS * MAX_PER_SHARD;
        for i in 0..3 * total {
            let k = key(ScheduleKind::LocalOnly, vec![req(0, 1, i, 0)]);
            c.get_or_build(&k, || schedule::build_schedule(k.kind, &k.reqs));
        }
        assert!(
            c.len() <= total,
            "{} entries exceed the cap {total}",
            c.len()
        );
        assert_eq!(c.misses(), 3 * total as u64, "every distinct key built");
        // An evicted key is simply rebuilt on next use — still correct.
        let k = key(ScheduleKind::LocalOnly, vec![req(0, 1, 0, 0)]);
        let (s, _) = c.get_or_build(&k, || schedule::build_schedule(k.kind, &k.reqs));
        assert_eq!(s.kind(), ScheduleKind::LocalOnly);
    }

    #[test]
    fn clear_empties_every_shard() {
        let c = SchedCache::new();
        for i in 0..64 {
            let k = key(ScheduleKind::LocalOnly, vec![req(0, 1, i, 0)]);
            c.get_or_build(&k, || schedule::build_schedule(k.kind, &k.reqs));
        }
        assert_eq!(c.len(), 64);
        c.clear();
        assert!(c.is_empty());
    }
}
