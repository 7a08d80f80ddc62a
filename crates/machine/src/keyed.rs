//! The process-wide keyed build cache: one policy for every cache that
//! memoizes an expensive, deterministic build by key — the bytecode
//! program cache, the cross-run schedule cache (paper §7(3) scaled up)
//! and `f90d-serve`'s compiled-program cache are all a [`KeyedCache`].
//!
//! * **Sharded by one hash of the full key.** The hash only picks a
//!   shard and pre-filters its entries; a lookup matches by *equality*
//!   of the full key, so two keys whose hashes collide still get
//!   distinct entries. Hashes route; equality decides.
//! * **Per-key build slots.** The shard lock is held only to find or
//!   insert a key's slot; the build runs under the slot's own lock. N
//!   callers racing on one cold key build exactly once (the rest block
//!   on the slot and observe a hit), and builds of distinct keys run in
//!   parallel, even within one shard.
//! * **Fallible builds are never cached.** A failed (or panicking)
//!   build leaves its slot empty; the next caller of that key retries.
//! * **Poison recovery.** A build panics under the slot lock; every
//!   lock is taken poison-tolerantly, so the panic surfaces once instead
//!   of cascading as `PoisonError` panics in every other caller.
//! * **A capacity fixed at construction.** When a shard is full, the
//!   next insertion into it first drops that shard's finished entries
//!   (an epoch clear per shard), except those looked up since the
//!   shard's previous clear: a hot entry gets a second chance, so a
//!   stream of one-off keys does not keep evicting the hot set. If every
//!   entry was looked up, all finished entries go. Slots some caller
//!   still holds — a build in flight and the callers waiting on it —
//!   always stay, so racers keep converging on one build.

use std::convert::Infallible;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shard count. A small power of two: it bounds lock contention, while
/// the capacity bounds memory.
pub const SHARDS: usize = 16;

/// A key's build slot: `None` until its value is built.
type Slot<V> = Mutex<Option<Arc<V>>>;

/// One shard entry: the key, its routing hash, its slot, and whether a
/// lookup found it since the shard's last clear.
struct Entry<K, V> {
    hash: u64,
    key: K,
    slot: Arc<Slot<V>>,
    used: bool,
}

/// A sharded, bounded, concurrent `K → Arc<V>` build cache with exact
/// hit/miss counters (see the module docs for the policy). `Send + Sync`
/// when `K` and `V` are: one cache is shared by every worker.
pub struct KeyedCache<K, V> {
    shards: Vec<Mutex<Vec<Entry<K, V>>>>,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> std::fmt::Debug for KeyedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedCache")
            .field("capacity", &(self.per_shard * SHARDS))
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish_non_exhaustive()
    }
}

/// Lock, recovering from poison (see the module docs). A poisoned slot
/// still holds `None`, so the next caller simply retries the build.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `true` while some caller holds the entry's slot: a build in flight,
/// or a caller waiting on it.
fn held<K, V>(e: &Entry<K, V>) -> bool {
    Arc::strong_count(&e.slot) > 1
}

/// Clear a full shard (see the module docs): finished and abandoned
/// (failed) entries go unless used since the last clear; if that leaves
/// the shard full, every entry no caller holds goes.
fn make_room<K, V>(entries: &mut Vec<Entry<K, V>>, per_shard: usize) {
    entries.retain_mut(|e| held(e) || std::mem::take(&mut e.used));
    if entries.len() >= per_shard {
        entries.retain(held);
    }
}

impl<K: Eq + Hash + Clone, V> KeyedCache<K, V> {
    /// Empty cache holding at most `capacity` finished values (rounded
    /// down to a multiple of [`SHARDS`], at least one per shard).
    pub fn new(capacity: usize) -> Self {
        KeyedCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            per_shard: (capacity / SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up `key`, building with `build` on a miss. Returns the shared
    /// value and whether this call was a hit. An `Err` from `build` is
    /// returned as is and nothing is cached.
    pub fn get_or_try_build<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(key);
        let slot = {
            let mut entries = recover(&self.shards[(hash % SHARDS as u64) as usize]);
            match entries.iter_mut().find(|e| e.hash == hash && e.key == *key) {
                Some(e) => {
                    e.used = true;
                    Arc::clone(&e.slot)
                }
                None => {
                    if entries.len() >= self.per_shard {
                        make_room(&mut entries, self.per_shard);
                    }
                    let slot = Arc::new(Mutex::new(None));
                    entries.push(Entry {
                        hash,
                        key: key.clone(),
                        slot: Arc::clone(&slot),
                        used: false,
                    });
                    slot
                }
            }
        };
        // Shard lock released: the build below serializes only callers of
        // this key.
        let mut value = recover(&slot);
        if let Some(v) = value.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(v), true));
        }
        let v = Arc::new(build()?);
        *value = Some(Arc::clone(&v));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((v, false))
    }

    /// [`KeyedCache::get_or_try_build`] for a build that cannot fail.
    pub fn get_or_build(&self, key: &K, build: impl FnOnce() -> V) -> (Arc<V>, bool) {
        let Ok(found) = self.get_or_try_build(key, || Ok::<V, Infallible>(build()));
        found
    }

    /// Lookups that found a finished value.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Values built and cached (failed builds are not counted).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bound on the finished values held; it is exceeded only by builds
    /// still in flight when their full shard was cleared.
    pub fn capacity(&self) -> usize {
        self.per_shard * SHARDS
    }

    /// Number of finished values.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                // Snapshot the slots, then release the shard lock before
                // touching any slot: a slot may be mid-build, and waiting
                // on it under the shard lock would stall every other key
                // of the shard.
                let slots: Vec<_> = recover(shard).iter().map(|e| Arc::clone(&e.slot)).collect();
                slots.iter().filter(|s| recover(s).is_some()).count()
            })
            .sum()
    }

    /// `true` when no finished value is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every finished value (builds in flight finish and stay).
    /// The hit/miss counters are not reset.
    pub fn clear(&self) {
        for shard in &self.shards {
            recover(shard).retain(held);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_spread_over_shards() {
        let c = KeyedCache::new(1024);
        for k in 0..64u64 {
            c.get_or_build(&k, || k);
        }
        assert_eq!(c.len(), 64);
        assert!(c.shards.iter().all(|s| !recover(s).is_empty()));
    }
}
