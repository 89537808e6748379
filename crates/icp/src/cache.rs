//! The workspace's bounded memo map: [`crate::PavingCache`] and the
//! analyzer's compiled-tape cache in `qcoral` are both an [`LruCache`].
//!
//! * **Single-flight.** A miss computes its value outside the map lock,
//!   and callers racing on that key wait for the one computation instead
//!   of repeating it. Every caller shares one `Arc`, and how many callers
//!   hit does not depend on the thread schedule.
//! * **Batch-LRU.** Past the cap, the least-recently-used entries are
//!   evicted in batches ([`batch_lru_cutoff`]), so a process-lifetime
//!   cache keeps tracking the current working set instead of freezing
//!   on the first keys it ever saw.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

/// Cutoff tick for one batch-LRU eviction round over a map whose entries
/// carry `last_used` ticks: the caller drops every entry with
/// `last_used <= cutoff`. Evicts the overflow past `cap` plus a ~12%
/// batch margin — amortized batches instead of per-insert scans — always
/// at least one entry and never all of them, so the most recently
/// touched entry survives. Shared by [`LruCache`] and the core crate's
/// `FactorStore` so the bounded caches cannot drift apart.
///
/// Callers must invoke this only when `ticks.len() > cap >= 1`.
pub fn batch_lru_cutoff(mut ticks: Vec<u64>, cap: usize) -> u64 {
    let len = ticks.len();
    debug_assert!(len > cap && cap >= 1);
    let excess = len.saturating_sub(cap);
    let drop_n = (excess + cap / 8).clamp(1, len - 1);
    ticks.sort_unstable();
    ticks[drop_n - 1]
}

/// One key's slot: set once by the caller that computes it.
type Cell<V> = Arc<OnceLock<Arc<V>>>;

#[derive(Debug)]
struct Entries<K, V> {
    map: HashMap<K, (Cell<V>, u64)>,
    tick: u64,
}

/// A bounded, single-flight, batch-LRU `key → Arc<V>` memo map (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct LruCache<K, V> {
    entries: Mutex<Entries<K, V>>,
    cap: usize,
}

impl<K: Hash + Eq, V> LruCache<K, V> {
    /// An empty map retaining at most `cap` keys (at least one).
    pub fn new(cap: usize) -> LruCache<K, V> {
        LruCache {
            entries: Mutex::new(Entries {
                map: HashMap::new(),
                tick: 0,
            }),
            cap: cap.max(1),
        }
    }

    /// Returns the value of `key`, running `make` at most once per live
    /// key, and whether the value was already there or in flight
    /// (`true` = hit). The flag is the only hit/miss count: callers
    /// account their own lookups, so shared caches never mix counts.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> (Arc<V>, bool) {
        let cell = {
            let mut e = self.entries.lock();
            e.tick += 1;
            let tick = e.tick;
            let slot = e.map.entry(key).or_default();
            slot.1 = tick;
            let cell = Arc::clone(&slot.0);
            if e.map.len() > self.cap {
                let ticks: Vec<u64> = e.map.values().map(|&(_, t)| t).collect();
                let cutoff = batch_lru_cutoff(ticks, self.cap);
                e.map.retain(|_, &mut (_, t)| t > cutoff);
            }
            cell
        };
        // Compute outside the map lock: a value can be expensive and must
        // not serialize unrelated lookups. Only callers of this key wait.
        let mut hit = true;
        let value = Arc::clone(cell.get_or_init(|| {
            hit = false;
            Arc::new(make())
        }));
        (value, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn len<K, V>(cache: &LruCache<K, V>) -> usize {
        cache.entries.lock().map.len()
    }

    #[test]
    fn computes_each_key_once() {
        let cache: LruCache<u64, u64> = LruCache::new(8);
        let (a, hit_a) = cache.get_or_insert_with(1, || 10);
        let (b, hit_b) = cache.get_or_insert_with(1, || 99);
        assert!(Arc::ptr_eq(&a, &b), "a hit shares the first value");
        assert_eq!((*b, hit_a, hit_b), (10, false, true));
        let (c, hit_c) = cache.get_or_insert_with(2, || 20);
        assert_eq!((*c, hit_c), (20, false));
        assert_eq!(len(&cache), 2);
    }

    #[test]
    fn racing_callers_share_the_one_computation() {
        // Three callers look the key up while its value is being
        // computed: none computes it again, and all three count as hits.
        let cache: LruCache<u64, u64> = LruCache::new(8);
        std::thread::scope(|s| {
            let (v0, hit0) = cache.get_or_insert_with(7, || {
                for _ in 0..3 {
                    s.spawn(|| {
                        let (v, hit) =
                            cache.get_or_insert_with(7, || unreachable!("computed twice"));
                        assert!(hit && *v == 70);
                    });
                }
                // Each lookup bumps the tick under the map lock before it
                // waits on the key: wait until all three have registered.
                while cache.entries.lock().tick < 4 {
                    std::thread::yield_now();
                }
                70
            });
            assert_eq!((*v0, hit0), (70, false));
        });
    }

    #[test]
    fn evicts_lru_instead_of_freezing() {
        // A process-lifetime cache must keep admitting new keys past its
        // cap (evicting the least-recently-used), and a hot key must
        // survive.
        const CAP: usize = 64;
        let cache: LruCache<u64, u64> = LruCache::new(CAP);
        let hot = u64::MAX;
        cache.get_or_insert_with(hot, || 0);
        for i in 1..=(CAP as u64 + 8) {
            cache.get_or_insert_with(i, || i);
            // Keep the hot key recent so eviction targets the others.
            cache.get_or_insert_with(hot, || 0);
        }
        assert!(len(&cache) <= CAP, "len {}", len(&cache));
        let (fresh, hit) = cache.get_or_insert_with(CAP as u64 + 100, || 1);
        assert!(!hit && *fresh == 1, "new keys are admitted past the cap");
        assert!(cache.get_or_insert_with(hot, || 1).1, "hot key survived");
    }
}
