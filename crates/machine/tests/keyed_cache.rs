//! Concurrency, keying and capacity contract of [`KeyedCache`], the one
//! build cache behind the bytecode program cache, the cross-run schedule
//! cache and the daemon's compile cache: racing callers never build one
//! key twice, distinct keys never deadlock, the hit/miss counters stay
//! exact under contention, failed and panicking builds are never cached
//! and poison only their own key, colliding hashes never alias two keys,
//! and the capacity bounds the cache without dropping a build in flight.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};

use f90d_machine::keyed::SHARDS;
use f90d_machine::KeyedCache;

/// The value a correct build of `key` produces.
fn value_of(key: usize) -> String {
    format!("built-{key}")
}

/// A key whose `Hash` is constant: every key lands in one shard with one
/// hash value, so only key equality can tell two entries apart.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Colliding(usize);

impl Hash for Colliding {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

#[test]
fn hit_returns_the_same_value() {
    let c = KeyedCache::new(1024);
    let (a, hit_a) = c.get_or_build(&7usize, || value_of(7));
    let (b, hit_b) = c.get_or_build(&7usize, || panic!("must not rebuild"));
    assert!(!hit_a);
    assert!(hit_b);
    assert!(Arc::ptr_eq(&a, &b));
    assert_eq!((c.hits(), c.misses(), c.len()), (1, 1, 1));
}

#[test]
fn errors_are_not_cached() {
    let c = KeyedCache::new(1024);
    assert!(c
        .get_or_try_build(&1usize, || Err::<String, _>("nope"))
        .is_err());
    assert!(c.is_empty());
    assert_eq!(c.misses(), 0, "a failed build is not a cached miss");
    let (v, hit) = c
        .get_or_try_build(&1usize, || Ok::<_, &str>(value_of(1)))
        .unwrap();
    assert!(!hit);
    assert_eq!(*v, value_of(1));
    assert_eq!(c.len(), 1);
}

#[test]
fn same_key_races_build_exactly_once() {
    const THREADS: usize = 16;
    let cache = KeyedCache::new(1024);
    let builds = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);
    let values: Vec<Arc<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait(); // all threads hit the cold key together
                    let (v, _) = cache.get_or_build(&42usize, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        value_of(42)
                    });
                    v
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(builds.load(Ordering::SeqCst), 1, "duplicate build");
    for v in &values[1..] {
        assert!(Arc::ptr_eq(&values[0], v), "distinct values returned");
    }
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), THREADS as u64 - 1);
    assert_eq!(cache.len(), 1);
}

#[test]
fn distinct_keys_build_independently() {
    const THREADS: usize = 12;
    const ROUNDS: usize = 4;
    let cache = KeyedCache::new(1024);
    let builds = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, builds, barrier) = (&cache, &builds, &barrier);
            s.spawn(move || {
                barrier.wait();
                // Every thread touches every key, several times, in a
                // thread-dependent order (covers same-shard neighbours).
                for r in 0..ROUNDS {
                    for off in 0..THREADS {
                        let key = (t + off + r) % THREADS;
                        let (v, _) = cache.get_or_build(&key, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            value_of(key)
                        });
                        assert_eq!(*v, value_of(key), "wrong value for key {key}");
                    }
                }
            });
        }
    });
    assert_eq!(builds.load(Ordering::SeqCst), THREADS, "one build per key");
    assert_eq!(cache.misses(), THREADS as u64);
    assert_eq!(
        cache.hits(),
        (THREADS * THREADS * ROUNDS - THREADS) as u64,
        "every non-first lookup is a hit"
    );
    assert_eq!(cache.len(), THREADS);
}

#[test]
fn failed_builds_retry_under_contention() {
    const THREADS: usize = 8;
    let cache = KeyedCache::new(1024);
    let attempts = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let (cache, attempts, barrier) = (&cache, &attempts, &barrier);
            s.spawn(move || {
                barrier.wait();
                // The first attempt fails; the error must not be cached,
                // so a later success fills the slot.
                let n = attempts.fetch_add(1, Ordering::SeqCst);
                let r = cache.get_or_try_build(&7usize, move || {
                    if n == 0 {
                        Err("transient")
                    } else {
                        Ok(value_of(n))
                    }
                });
                if n > 0 {
                    r.unwrap();
                }
            });
        }
    });
    assert_eq!(cache.len(), 1, "eventually cached");
    let (v, hit) = cache.get_or_build(&7usize, || panic!("must be cached by now"));
    assert!(hit);
    assert_ne!(*v, value_of(0), "the failed attempt left no value");
}

#[test]
fn panicking_build_poisons_only_its_slot() {
    const THREADS: usize = 8;
    let cache = KeyedCache::new(1024);
    let barrier = Barrier::new(THREADS + 1);
    std::thread::scope(|s| {
        // One builder panics on the hot key…
        let (c, b) = (&cache, &barrier);
        s.spawn(move || {
            b.wait();
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.get_or_build(&0usize, || panic!("build bug"));
            }));
            assert!(panicked.is_err());
        });
        // …while other keys keep building and hitting undisturbed.
        for t in 1..=THREADS {
            let (c, b) = (&cache, &barrier);
            s.spawn(move || {
                b.wait();
                let (first, hit_first) = c.get_or_build(&t, || value_of(t));
                let (again, hit_again) = c.get_or_build(&t, || value_of(t));
                assert!(!hit_first);
                assert!(hit_again);
                assert!(Arc::ptr_eq(&first, &again));
            });
        }
    });
    // The panicked key's slot is recoverable, not poisoned: the next
    // caller retries the build instead of cascading a PoisonError panic.
    let (v, hit) = cache.get_or_build(&0usize, || value_of(0));
    assert!(!hit, "a panicked build must not be cached");
    assert_eq!(*v, value_of(0));
    assert_eq!(cache.len(), THREADS + 1);
}

/// Hashes route; equality decides. Every key below has the same hash, so
/// all of them share one shard and one hash value; a cache that matched
/// by hash would hand the first key's value to every other key.
#[test]
fn colliding_hashes_get_distinct_entries() {
    let cache = KeyedCache::new(1024);
    let builds = AtomicUsize::new(0);
    let (a, hit_a) = cache.get_or_build(&Colliding(1), || {
        builds.fetch_add(1, Ordering::SeqCst);
        value_of(1)
    });
    let (b, hit_b) = cache.get_or_build(&Colliding(2), || {
        builds.fetch_add(1, Ordering::SeqCst);
        value_of(2)
    });
    assert!(!hit_a);
    assert!(!hit_b, "a colliding hash must not read as a cache hit");
    assert_eq!(builds.load(Ordering::SeqCst), 2, "both keys built");
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(*a, value_of(1), "each key owns its value");
    assert_eq!(*b, value_of(2), "each key owns its value");
    assert_eq!((cache.len(), cache.misses(), cache.hits()), (2, 2, 0));
    // Re-lookups keep resolving to the right entry.
    let (a2, hit) = cache.get_or_build(&Colliding(1), || unreachable!("cached"));
    assert!(hit);
    assert!(Arc::ptr_eq(&a, &a2));
    assert_eq!(cache.hits(), 1);
}

#[test]
fn capacity_bounds_the_cache() {
    let cache = KeyedCache::new(64);
    assert_eq!(cache.capacity(), 64);
    let total = 3 * cache.capacity();
    for key in 0..total {
        let (v, _) = cache.get_or_build(&key, || value_of(key));
        assert_eq!(*v, value_of(key));
        assert!(cache.len() <= cache.capacity());
    }
    assert_eq!(cache.misses(), total as u64, "every distinct key built");
    // An evicted key is simply rebuilt on next use — still correct.
    let (v, _) = cache.get_or_build(&0usize, || value_of(0));
    assert_eq!(*v, value_of(0));
    assert!(cache.len() <= cache.capacity());
}

/// A full shard drops its finished entries, never a slot some caller is
/// still building: otherwise that build's result would land in a slot no
/// one can find, and the next caller of its key would build it again.
#[test]
fn full_shard_clear_keeps_a_slot_being_built() {
    // Two entries per shard; every `Colliding` key lands in the same one.
    let cache = KeyedCache::new(2 * SHARDS);
    let builds = AtomicUsize::new(0);
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let (cache, builds) = (&cache, &builds);
        let builder = s.spawn(move || {
            cache.get_or_build(&Colliding(0), || {
                builds.fetch_add(1, Ordering::SeqCst);
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                value_of(0)
            })
        });
        started_rx.recv().unwrap();
        // Fill the shard several times over while key 0 is mid-build.
        for key in 1..=6 {
            cache.get_or_build(&Colliding(key), || value_of(key));
        }
        release_tx.send(()).unwrap();
        let (_, hit) = builder.join().unwrap();
        assert!(!hit);
    });
    let (v, hit) = cache.get_or_build(&Colliding(0), || {
        builds.fetch_add(1, Ordering::SeqCst);
        value_of(0)
    });
    assert!(hit, "the in-flight build's slot survived the shard clears");
    assert_eq!(*v, value_of(0));
    assert_eq!(builds.load(Ordering::SeqCst), 1, "key 0 built once");
}

/// A full shard spares the entries looked up since its last clear, so a
/// stream of one-off keys never evicts the hot set; when every entry was
/// looked up, the shard still clears and the capacity still holds.
#[test]
fn full_shard_clear_spares_used_entries_but_keeps_the_bound() {
    // Four entries per shard; every `Colliding` key lands in the same one.
    let cache = KeyedCache::new(4 * SHARDS);
    let hot_builds = AtomicUsize::new(0);
    let hot = || {
        cache.get_or_build(&Colliding(0), || {
            hot_builds.fetch_add(1, Ordering::SeqCst);
            value_of(0)
        })
    };
    hot();
    for key in 1..100 {
        cache.get_or_build(&Colliding(key), || value_of(key));
        assert_eq!(*hot().0, value_of(0));
        assert!(cache.len() <= 4);
    }
    assert_eq!(
        hot_builds.load(Ordering::SeqCst),
        1,
        "the hot entry survived"
    );

    // Every entry looked up since the last clear: the next insertion
    // still makes room.
    let cache = KeyedCache::new(4 * SHARDS);
    for key in 0..4 {
        cache.get_or_build(&Colliding(key), || value_of(key));
    }
    for key in 0..4 {
        assert!(cache.get_or_build(&Colliding(key), || value_of(key)).1);
    }
    cache.get_or_build(&Colliding(4), || value_of(4));
    assert_eq!(cache.len(), 1, "the full shard was cleared");
    assert!(!cache.get_or_build(&Colliding(0), || value_of(0)).1);
}

#[test]
fn clear_empties_every_shard() {
    let cache = KeyedCache::new(1024);
    for key in 0..64usize {
        cache.get_or_build(&key, || value_of(key));
    }
    assert_eq!(cache.len(), 64);
    cache.clear();
    assert!(cache.is_empty());
    let (_, hit) = cache.get_or_build(&3usize, || value_of(3));
    assert!(!hit, "a cleared key is rebuilt");
}
