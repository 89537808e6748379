//! Counters, gauges and log-bucket histograms behind a named registry
//! with Prometheus-style text exposition.
//!
//! Handles are `Arc`-shared atomics: a subsystem either asks a
//! [`Registry`] to mint one by name ([`Registry::counter`]) or keeps its
//! own per-instance handle and *registers* it for exposition
//! ([`Registry::register_counter`]) — the latter is how per-instance
//! exactness survives (the scheduler and factor-store tests assert
//! per-instance counts, so those subsystems own their handles and the
//! server attaches them to its registry at startup).
//!
//! Histograms use a fixed power-of-two bucket layout over `u64` samples
//! (bucket *i* ≥ 1 holds values in `[2^(i-1), 2^i)`, bucket 0 holds the
//! value 0). The exposition renders the cumulative counts, from which a
//! scraper derives any quantile with at most a 2× overestimate (each
//! bucket is labelled with its inclusive upper edge).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter behind an `Arc`.
    pub fn new() -> Arc<Counter> {
        Arc::new(Counter(AtomicU64::new(0)))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (queue depth, in-flight jobs, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh zeroed gauge behind an `Arc`.
    pub fn new() -> Arc<Gauge> {
        Arc::new(Gauge(AtomicI64::new(0)))
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Subtracts from the level (may go negative transiently under races;
    /// reads clamp at callers' discretion).
    #[inline]
    pub fn sub(&self, d: i64) {
        self.0.fetch_sub(d, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one zero bucket plus one per possible
/// leading-bit position of a `u64` sample.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-bucket histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

/// A plain-value copy of a [`Histogram`], for exposition and assertions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see the module docs for the layout).
    pub buckets: Vec<u64>,
    /// Sum of all recorded samples.
    pub sum: u64,
}

/// Bucket index of a sample: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper edge of bucket `i` (saturating at `u64::MAX`).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram behind an `Arc`.
    pub fn new() -> Arc<Histogram> {
        Arc::new(Histogram::default())
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Plain-value copy of the current counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Registered {
    help: String,
    metric: Metric,
}

/// A named collection of metrics with Prometheus-style exposition.
///
/// There is no process-wide registry: each owner makes its own. A
/// server's registry holds its scheduler's and store's handles and the
/// request and analysis families it mints, so concurrent instances in
/// one process — the test suites — never share counts.
#[derive(Default)]
pub struct Registry {
    items: Mutex<BTreeMap<String, Registered>>,
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter named `name`, minting it on first use.
    /// Panics if the name is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        match self.mint(name, help, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Returns the histogram named `name`, minting it on first use.
    /// Panics if the name is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        match self.mint(name, help, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// The metric registered under `name`, minted by `make` on first use.
    fn mint(&self, name: &str, help: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut items = self.items.lock().expect("metrics registry");
        let entry = items.entry(name.to_string()).or_insert_with(|| Registered {
            help: help.to_string(),
            metric: make(),
        });
        entry.metric.clone()
    }

    /// Attaches an existing counter handle under `name` (replacing any
    /// previous registration of that name).
    pub fn register_counter(&self, name: &str, help: &str, c: Arc<Counter>) {
        self.attach(name, help, Metric::Counter(c));
    }

    /// Attaches an existing gauge handle under `name`.
    pub fn register_gauge(&self, name: &str, help: &str, g: Arc<Gauge>) {
        self.attach(name, help, Metric::Gauge(g));
    }

    /// Attaches an existing histogram handle under `name`.
    pub fn register_histogram(&self, name: &str, help: &str, h: Arc<Histogram>) {
        self.attach(name, help, Metric::Histogram(h));
    }

    /// Registers `metric` under `name`, replacing any earlier one.
    fn attach(&self, name: &str, help: &str, metric: Metric) {
        let help = help.to_string();
        let mut items = self.items.lock().expect("metrics registry");
        items.insert(name.to_string(), Registered { help, metric });
    }

    /// Prometheus-style text exposition of every registered metric, in
    /// name order. Histograms render cumulative `_bucket{le="…"}` lines
    /// (empty leading buckets elided), `_sum` and `_count`.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let items = self.items.lock().expect("metrics registry");
        let mut out = String::new();
        for (name, reg) in items.iter() {
            match &reg.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# HELP {name} {}", reg.help);
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# HELP {name} {}", reg.help);
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let _ = writeln!(out, "# HELP {name} {}", reg.help);
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cum = 0u64;
                    for (i, &c) in snap.buckets.iter().enumerate() {
                        cum += c;
                        // Elide the empty prefix, keep every populated
                        // edge and the final +Inf.
                        if c == 0 && i + 1 < snap.buckets.len() {
                            continue;
                        }
                        if i + 1 < snap.buckets.len() {
                            let _ =
                                writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", bucket_upper(i));
                        } else {
                            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", snap.sum);
                    let _ = writeln!(out, "{name}_count {}", snap.count());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        c.add(0);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(3);
        g.sub(4);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0, "empty histogram");
        for v in [0u64, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1_001_106);
        assert_eq!(h.snapshot().count(), 7);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let r = Registry::new();
        r.counter("qcoral_test_events_total", "Events seen.").add(7);
        let g = Gauge::new();
        g.set(-2);
        r.register_gauge("qcoral_test_depth", "Live depth.", g);
        r.histogram("qcoral_test_wait_us", "Wait (µs).").record(100);
        let text = r.render();
        assert!(text.contains("# TYPE qcoral_test_events_total counter"));
        assert!(text.contains("qcoral_test_events_total 7"));
        assert!(text.contains("qcoral_test_depth -2"));
        assert!(text.contains("# TYPE qcoral_test_wait_us histogram"));
        assert!(text.contains("qcoral_test_wait_us_bucket{le=\"127\"} 1"));
        assert!(text.contains("qcoral_test_wait_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("qcoral_test_wait_us_sum 100"));
        assert!(text.contains("qcoral_test_wait_us_count 1"));
    }

    #[test]
    fn registry_minting_is_idempotent_and_registration_attaches() {
        let r = Registry::new();
        let c1 = r.counter("qcoral_test_same", "x");
        let c2 = r.counter("qcoral_test_same", "x");
        c1.inc();
        assert_eq!(c2.get(), 1, "same name, same handle");
        let mine = Counter::new();
        mine.add(41);
        r.register_counter("qcoral_test_mine", "mine", Arc::clone(&mine));
        mine.inc();
        assert!(r.render().contains("qcoral_test_mine 42"));
    }
}
