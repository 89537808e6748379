//! Cross-run factor-estimate store: Algorithm 2's compositional cache
//! lifted beyond a single analysis.
//!
//! The per-analysis partition cache (`PARTCACHE`: each run samples a
//! factor shared by several path conditions once) pays off when factors
//! recur across path conditions of *one* query. A long-lived service sees
//! the same independent factors recur across *queries* — and, with a
//! persisted snapshot, across process restarts. [`FactorStore`] keys
//! estimates by the same canonical factor identity a run deduplicates by
//! (structural fingerprint × sub-box bits × projected profile) plus a
//! fingerprint of every analyzer option that affects the sampled value
//! (budget, seed, stratification, allocation, paver limits).
//!
//! Because every factor's RNG stream is derived from its canonical key
//! (see `Analyzer`), a store hit returns the *bit-identical* estimate a
//! fresh computation would produce — reuse is observationally pure, so a
//! warm service answers recurring factors with zero new pavings and zero
//! new samples without perturbing results.
//!
//! The store is bounded: beyond [`FactorStore::capacity`] entries, the
//! least-recently-used entries are evicted in small batches.
//! [`FactorStore::entries`] / [`FactorStore::absorb`] expose the contents
//! as plain serializable [`FactorStoreEntry`] records for snapshotting;
//! malformed or invalid records are skipped on absorb, never fatal.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use qcoral_obs::{Counter, Registry};
use serde::{Deserialize, Serialize};

use qcoral_mc::Estimate;

/// Canonical identity of one independent factor: the projected
/// conjunction's structural fingerprint, the sub-box's exact interval
/// bits, and the projected usage-profile bits.
pub(crate) type FactorKey = (u128, Vec<(u64, u64)>, Vec<u64>);

/// Full store key: the factor identity plus the options fingerprint.
#[derive(Clone, PartialEq, Eq, Hash)]
struct StoreKey {
    opts_fp: u64,
    factor: FactorKey,
}

struct Slot {
    estimate: Estimate,
    last_used: u64,
}

struct Inner {
    map: HashMap<StoreKey, Slot>,
    tick: u64,
}

/// A bounded, thread-safe, persistable map from canonical factor identity
/// to its estimate. Shared across analyzers via `Arc` (see
/// `Analyzer::with_factor_store`).
pub struct FactorStore {
    cap: usize,
    inner: Mutex<Inner>,
    // Per-instance `qcoral-obs` counters (tests assert per-instance
    // exactness); a server attaches them for exposition via
    // [`FactorStore::register_metrics`].
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    revision: AtomicU64,
    /// Observer invoked once per *fresh* insert (never for re-inserts of
    /// existing keys, never during [`FactorStore::absorb`]), after the
    /// map lock is released. Lets a persister append each new estimate
    /// to a write-ahead log the instant it exists, so a crash between
    /// snapshots loses nothing.
    insert_hook: Mutex<Option<InsertHook>>,
}

/// Callback type of [`FactorStore::set_insert_hook`].
pub type InsertHook = Box<dyn Fn(&FactorStoreEntry) + Send + Sync>;

/// Default entry capacity (each entry is a few hundred bytes).
pub const DEFAULT_STORE_CAP: usize = 65_536;

/// One store entry in wire/snapshot form. Floats are carried as exact
/// bits so a snapshot round-trip cannot perturb estimates; box intervals
/// are flattened `[lo₀, hi₀, lo₁, hi₁, …]`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FactorStoreEntry {
    /// Fingerprint of the analyzer options that shaped the estimate.
    pub opts_fp: u64,
    /// Structural fingerprint of the projected conjunction.
    pub fingerprint: u128,
    /// Sub-box bounds as `f64::to_bits`, lo/hi interleaved (even length).
    pub box_bits: Vec<u64>,
    /// Projected usage-profile encoding (see `Analyzer`'s cache keying).
    pub profile_bits: Vec<u64>,
    /// `estimate.mean.to_bits()`.
    pub mean_bits: u64,
    /// `estimate.variance.to_bits()`.
    pub variance_bits: u64,
}

impl FactorStore {
    /// Creates an empty store holding at most `cap` entries (`cap` is
    /// clamped to at least 1).
    pub fn new(cap: usize) -> FactorStore {
        FactorStore {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: Counter::new(),
            misses: Counter::new(),
            revision: AtomicU64::new(0),
            insert_hook: Mutex::new(None),
        }
    }

    /// Installs (or clears) the fresh-insert observer: called once per
    /// estimate newly inserted by `FactorStore::insert` (never for
    /// `FactorStore::absorb`, so recovery replay cannot echo into a
    /// log). The hook runs on the inserting thread with no store lock
    /// held, so it may call back into the store (though appending to a
    /// log is the intended use).
    pub fn set_insert_hook(&self, hook: Option<InsertHook>) {
        *self.insert_hook.lock() = hook;
    }

    /// The configured entry capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Returns `true` if the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative `(hits, misses)` across all lookups.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Attaches this store's hit/miss counters to `registry` as
    /// `qcoral_factor_store_hits_total` / `qcoral_factor_store_misses_total`
    /// (the service does this once for its long-lived store).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "qcoral_factor_store_hits_total",
            "Cross-run factor-store lookups answered from the store.",
            Arc::clone(&self.hits),
        );
        registry.register_counter(
            "qcoral_factor_store_misses_total",
            "Cross-run factor-store lookups that missed.",
            Arc::clone(&self.misses),
        );
    }

    /// Monotone counter bumped whenever an insert/absorb actually adds a
    /// new entry; lets a persister skip snapshots when nothing changed
    /// (lookups and re-inserts of existing keys do not dirty the store).
    pub fn revision(&self) -> u64 {
        self.revision.load(Ordering::Relaxed)
    }

    pub(crate) fn get(&self, opts_fp: u64, factor: &FactorKey) -> Option<Estimate> {
        // The clone keeps the lookup O(1); factor keys are a fingerprint
        // plus a few machine words per dimension, far below sampling cost.
        let key = StoreKey {
            opts_fp,
            factor: factor.clone(),
        };
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.map.get_mut(&key).map(|slot| {
            slot.last_used = tick;
            slot.estimate
        });
        drop(inner);
        match found {
            Some(e) => {
                self.hits.inc();
                Some(e)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    pub(crate) fn insert(&self, opts_fp: u64, factor: FactorKey, estimate: Estimate) {
        self.insert_impl(opts_fp, factor, estimate, true);
    }

    /// `notify` distinguishes genuinely new estimates (analyzer inserts,
    /// which the hook should log) from re-loaded ones
    /// ([`FactorStore::absorb`], whose entries came *from* persistence
    /// and must not be logged again).
    fn insert_impl(&self, opts_fp: u64, factor: FactorKey, estimate: Estimate, notify: bool) {
        let key = StoreKey { opts_fp, factor };
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let inserted = match inner.map.entry(key) {
            // Re-inserting an existing key keeps the stored estimate
            // (estimates for one key are deterministic, so they agree)
            // and only refreshes recency — the store did not change, so
            // the revision must not move, or every warm hit-path
            // re-insert would dirty the store and trigger a needless
            // O(store-size) snapshot rewrite.
            Entry::Occupied(mut o) => {
                o.get_mut().last_used = tick;
                None
            }
            Entry::Vacant(v) => {
                let entry = (notify && self.insert_hook.lock().is_some()).then(|| {
                    let factor = &v.key().factor;
                    FactorStoreEntry {
                        opts_fp,
                        fingerprint: factor.0,
                        box_bits: factor.1.iter().flat_map(|&(lo, hi)| [lo, hi]).collect(),
                        profile_bits: factor.2.clone(),
                        mean_bits: estimate.mean.to_bits(),
                        variance_bits: estimate.variance.to_bits(),
                    }
                });
                v.insert(Slot {
                    estimate,
                    last_used: tick,
                });
                Some(entry)
            }
        };
        if inner.map.len() > self.cap {
            evict_lru(&mut inner, self.cap);
        }
        drop(inner);
        if let Some(entry) = inserted {
            self.revision.fetch_add(1, Ordering::Relaxed);
            if let Some(entry) = entry {
                if let Some(hook) = &*self.insert_hook.lock() {
                    hook(&entry);
                }
            }
        }
    }

    /// Snapshots the contents as serializable entries, least recently
    /// used first (so absorbing them in order reproduces the LRU order).
    pub fn entries(&self) -> Vec<FactorStoreEntry> {
        let inner = self.inner.lock();
        let mut pairs: Vec<(&StoreKey, &Slot)> = inner.map.iter().collect();
        pairs.sort_by_key(|(_, slot)| slot.last_used);
        pairs
            .into_iter()
            .map(|(key, slot)| FactorStoreEntry {
                opts_fp: key.opts_fp,
                fingerprint: key.factor.0,
                box_bits: key.factor.1.iter().flat_map(|&(lo, hi)| [lo, hi]).collect(),
                profile_bits: key.factor.2.clone(),
                mean_bits: slot.estimate.mean.to_bits(),
                variance_bits: slot.estimate.variance.to_bits(),
            })
            .collect()
    }

    /// Loads entries (e.g. from a snapshot), skipping malformed ones:
    /// odd-length `box_bits`, NaN means, or negative/NaN variances are
    /// dropped silently — a damaged snapshot degrades to a colder cache,
    /// never an invalid estimate. Returns the number of entries absorbed.
    pub fn absorb(&self, entries: impl IntoIterator<Item = FactorStoreEntry>) -> usize {
        let mut accepted = 0;
        for e in entries {
            if e.box_bits.len() % 2 != 0 {
                continue;
            }
            let mean = f64::from_bits(e.mean_bits);
            let variance = f64::from_bits(e.variance_bits);
            if mean.is_nan() || variance.is_nan() || variance < 0.0 {
                continue;
            }
            let factor: FactorKey = (
                e.fingerprint,
                e.box_bits.chunks_exact(2).map(|p| (p[0], p[1])).collect(),
                e.profile_bits,
            );
            self.insert_impl(e.opts_fp, factor, Estimate { mean, variance }, false);
            accepted += 1;
        }
        accepted
    }
}

/// Drops the least-recently-used ~12% of entries (at least one, never
/// all), so a saturated store evicts in amortized batches instead of
/// per insert. The batch policy is shared with `PavingCache`.
fn evict_lru(inner: &mut Inner, cap: usize) {
    let ticks: Vec<u64> = inner.map.values().map(|s| s.last_used).collect();
    let cutoff = qcoral_icp::batch_lru_cutoff(ticks, cap);
    inner.map.retain(|_, slot| slot.last_used > cutoff);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> FactorKey {
        (i as u128, vec![(i, i + 1)], vec![0])
    }

    fn est(i: u64) -> Estimate {
        Estimate {
            mean: i as f64 / 100.0,
            variance: 1e-6,
        }
    }

    #[test]
    fn get_insert_round_trip_and_stats() {
        let s = FactorStore::new(16);
        assert_eq!(s.get(1, &key(0)), None);
        s.insert(1, key(0), est(5));
        assert_eq!(s.get(1, &key(0)), Some(est(5)));
        // Different options fingerprint ⇒ different entry.
        assert_eq!(s.get(2, &key(0)), None);
        assert_eq!(s.stats(), (1, 2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lru_eviction_bounds_size_and_keeps_recent() {
        let cap = 32;
        let s = FactorStore::new(cap);
        for i in 0..cap as u64 {
            s.insert(0, key(i), est(i));
        }
        // Touch the first entries so they become the most recent.
        for i in 0..4 {
            assert!(s.get(0, &key(i)).is_some());
        }
        // Overflow the store; the touched entries must survive.
        for i in cap as u64..(cap as u64 + 8) {
            s.insert(0, key(i), est(i));
        }
        assert!(s.len() <= cap, "len {} over cap {cap}", s.len());
        for i in 0..4 {
            assert!(s.get(0, &key(i)).is_some(), "recently used {i} evicted");
        }
    }

    #[test]
    fn capacity_one_keeps_the_newest_entry() {
        // Regression: the eviction batch must never drop *everything* —
        // with cap = 1 the just-inserted entry has to survive.
        let s = FactorStore::new(1);
        for i in 0..5 {
            s.insert(0, key(i), est(i));
            assert_eq!(s.len(), 1);
            assert_eq!(s.get(0, &key(i)), Some(est(i)), "newest entry evicted");
        }
    }

    #[test]
    fn entries_round_trip_bit_exact() {
        let s = FactorStore::new(8);
        let e = Estimate {
            mean: 0.1 + 0.2, // not exactly 0.3: bit-exactness matters
            variance: f64::MIN_POSITIVE,
        };
        s.insert(7, key(3), e);
        let snapshot = s.entries();
        assert_eq!(snapshot.len(), 1);
        let t = FactorStore::new(8);
        assert_eq!(t.absorb(snapshot), 1);
        let back = t.get(7, &key(3)).unwrap();
        assert_eq!(back.mean.to_bits(), e.mean.to_bits());
        assert_eq!(back.variance.to_bits(), e.variance.to_bits());
    }

    #[test]
    fn absorb_skips_malformed_entries() {
        let t = FactorStore::new(8);
        let good = FactorStoreEntry {
            opts_fp: 0,
            fingerprint: 1,
            box_bits: vec![0, 1],
            profile_bits: vec![],
            mean_bits: 0.5f64.to_bits(),
            variance_bits: 0.0f64.to_bits(),
        };
        let odd_box = FactorStoreEntry {
            box_bits: vec![0, 1, 2],
            ..good.clone()
        };
        let nan_mean = FactorStoreEntry {
            mean_bits: f64::NAN.to_bits(),
            ..good.clone()
        };
        let neg_var = FactorStoreEntry {
            variance_bits: (-1.0f64).to_bits(),
            ..good.clone()
        };
        assert_eq!(t.absorb([odd_box, nan_mean, neg_var, good]), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn revision_tracks_inserts() {
        let s = FactorStore::new(8);
        let r0 = s.revision();
        s.insert(0, key(1), est(1));
        assert!(s.revision() > r0);
        let r1 = s.revision();
        s.get(0, &key(1));
        assert_eq!(s.revision(), r1, "lookups do not dirty the store");
        s.insert(0, key(1), est(2));
        assert_eq!(
            s.revision(),
            r1,
            "re-inserting an existing key does not dirty the store"
        );
        assert_eq!(s.get(0, &key(1)), Some(est(1)), "stored estimate kept");
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let cap = 32;
        let s = FactorStore::new(cap);
        for i in 0..cap as u64 {
            s.insert(0, key(i), est(i));
        }
        // Re-insert (not look up) the oldest entries, then overflow: the
        // re-inserted keys must now be recent enough to survive eviction.
        for i in 0..4 {
            s.insert(0, key(i), est(i));
        }
        for i in cap as u64..(cap as u64 + 8) {
            s.insert(0, key(i), est(i));
        }
        for i in 0..4 {
            assert!(s.get(0, &key(i)).is_some(), "re-inserted {i} evicted");
        }
    }
}
