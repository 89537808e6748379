//! The qCORAL analyzer: Algorithms 1–3 of the paper.
//!
//! [`Analyzer::analyze`] implements Algorithm 1 (iterate over path
//! conditions, sum the estimates per Theorem 1), delegating to
//! `analyzeConjunction` (Algorithm 2: split the conjunction along the
//! dependency partition, multiply the factor estimators per Eq. 7–8, with
//! optional caching) and `stratSampling` (Algorithm 3: pave the factor's
//! sub-domain with ICP, then run stratified hit-or-miss Monte Carlo per
//! Eq. 3).
//!
//! # Parallelism and determinism
//!
//! The pipeline is embarrassingly parallel at three levels, and
//! [`Options::parallel`] fans all three out:
//!
//! 1. **path conditions** (Theorem 1 — disjoint estimators add),
//! 2. **independent factors** of each conjunction (Eq. 7–8 — independent
//!    estimators multiply), and
//! 3. **sample chunks / strata** inside each factor's stratified run.
//!
//! Every random stream is derived from *what* is being sampled — the
//! canonical factor key or the `(pc, factor)` index pair, plus the chunk
//! counter — never from execution order. Combined with fixed reduction
//! orders, a parallel run returns the bit-identical [`Report`] estimate
//! of the serial run (provided the ICP time budget does not bind, the
//! same caveat the serial path already carries).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use qcoral_obs::trace::arg;
use qcoral_obs::{Counter, Histogram, Registry, Trace, TraceData};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use qcoral_constraints::{ConstraintSet, Domain, PathCondition, VarId, VarSet};
use qcoral_icp::{domain_box, tape_cache_stats, PaverConfig, PavingCache};
use qcoral_interval::IntervalBox;
use qcoral_mc::{
    align_strata, hit_or_miss_plan, initial_allocation, mix_seed, neyman_allocation, refine_plan,
    stratified_plan, Allocation, BulkPred, Deadline, Dist, Estimate, IsEstimator, SamplePlan,
    Stratum, StratumAccum, UsageProfile,
};

use crate::bulkpred::CompiledPred;
use crate::depend::dependency_partition;
use crate::factor_store::{FactorKey, FactorStore};

/// Feature configuration for the analyzer. The paper's named
/// configurations map to presets:
///
/// * `qCORAL{}` — [`Options::plain`]: hit-or-miss Monte Carlo per path
///   condition, no stratification, no decomposition.
/// * `qCORAL{STRAT}` — [`Options::strat`]: adds ICP-driven stratified
///   sampling of each path condition.
/// * `qCORAL{STRAT,PARTCACHE}` — [`Options::strat_partcache`]: adds
///   independence partitioning and the partition cache.
///
/// Options serialize (and deserialize) as plain JSON, which is how the
/// `qcoral-service` wire protocol carries per-request configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Options {
    /// Total sample budget per analyzed (sub-)problem.
    pub samples: u64,
    /// Enable ICP-based stratified sampling (the paper's `STRAT`).
    pub stratified: bool,
    /// Decompose conjunctions along the dependency partition (§4.2).
    pub partition: bool,
    /// Cache and reuse partition results across path conditions (the
    /// caching half of the paper's `PARTCACHE`). Requires `partition`.
    pub cache: bool,
    /// Sample allocation across strata (paper: equal per stratum).
    /// [`Allocation::ImportanceAdaptive`] additionally arms the
    /// rare-event escalation below.
    pub allocation: Allocation,
    /// Rare-event escalation threshold, active only under
    /// [`Allocation::ImportanceAdaptive`]: a factor whose stratified
    /// pilot round *estimates* a probability strictly below this (exact
    /// mass plus weighted boundary hit rate — the raw conditional hit
    /// rate is no rarity signal, because boundary strata hug the
    /// constraint surface) switches its boundary-region budget to the
    /// paver-seeded adaptive importance-sampling engine
    /// ([`qcoral_mc::IsEstimator`]); at or above it the factor stays
    /// stratified. `1.0` forces IS on every factor with boundary
    /// strata, `0.0` disables the switch entirely. Folded into the
    /// sampling fingerprints only under `ImportanceAdaptive`, so every
    /// other configuration keeps its historic cache keys (and warm
    /// stores) unchanged.
    pub is_threshold: f64,
    /// ICP paver budget (paper defaults: 10 boxes, 3 digits, 2 s).
    pub paver: PaverConfig,
    /// Fan out path conditions, independent factors and sample chunks
    /// across threads (Theorem 1 explicitly allows it). Results are
    /// deterministic regardless of scheduling.
    pub parallel: bool,
    /// Samples per RNG chunk: the parallel work granule of the sampler.
    /// Affects which stream each sample draws from (so changing it changes
    /// the estimate like reseeding does), never the statistics.
    pub chunk: u64,
    /// RNG seed; same seed ⇒ same report.
    pub seed: u64,
    /// Target standard error for [`Analyzer::analyze_iterative`]: the
    /// refinement loop stops as soon as the composed estimate's
    /// `√variance` is at or below this. `None` makes the pipeline and
    /// service use one-shot [`Analyzer::analyze`]; a direct
    /// `analyze_iterative` call treats `None` as an unreachable target
    /// (refine until `max_rounds` or until no refinable variance
    /// remains). Ignored by `analyze`.
    pub target_stderr: Option<f64>,
    /// Sampling-round ceiling for `analyze_iterative`, counting the
    /// initial round (clamped to at least 1). Ignored by `analyze`.
    pub max_rounds: u64,
    /// Extra-sample budget each refinement round (rounds after the
    /// first) distributes across the highest-variance factors. Ignored
    /// by `analyze`.
    pub round_budget: u64,
    /// Discretization error bound ε for non-uniform usage profiles:
    /// continuous marginals are discretized into adaptive histograms
    /// whose per-bin mass-linearization error is at most ε (see
    /// [`mod@qcoral_mc::discretize`]), and boundary strata are split along
    /// the resulting mass edges so allocation follows probability mass.
    /// Changing ε changes the strata — and therefore the sample streams
    /// — of factors over non-uniform marginals, so ε is folded into
    /// those factors' cache keys; uniform-profile
    /// factors are unaffected and keep their keys.
    pub profile_epsilon: f64,
    /// Soft wall-clock budget in milliseconds. When set, the analyzer
    /// converts it to a [`Deadline`] at the start of the run (unless an
    /// explicit one was attached via [`Analyzer::with_deadline`], which
    /// wins) and cooperatively stops sampling once it expires, returning
    /// a best-effort *partial* report flagged
    /// [`Stats::deadline_exceeded`] instead of an error. `None` (the
    /// default) never interrupts anything. Excluded from the sampling
    /// fingerprints: a deadline changes how much work finishes, never
    /// which streams completed work draws from — and partial results are
    /// never cached (see [`FactorStore`]), so cached estimates stay
    /// reproducible.
    pub deadline_ms: Option<u64>,
    /// Collect a per-request execution trace: span timers over paving,
    /// tape compilation, factor sampling and refinement rounds, drained
    /// into [`Report::trace`] and exportable as Chrome trace-event JSON
    /// (see [`qcoral_obs::TraceData::to_chrome_json`]). Spans read
    /// monotonic clocks only and never touch an RNG, so tracing cannot
    /// perturb estimates: trace-on and trace-off runs are bit-identical.
    /// Excluded from both sampling fingerprints (like `parallel` and
    /// `deadline_ms`) — tracing never changes which streams are drawn,
    /// so warm factor stores stay warm.
    pub trace: bool,
}

impl Options {
    /// `qCORAL{}`: plain per-PC hit-or-miss Monte Carlo.
    pub fn plain() -> Options {
        Options {
            samples: 10_000,
            stratified: false,
            partition: false,
            cache: false,
            allocation: Allocation::EqualPerStratum,
            is_threshold: qcoral_mc::DEFAULT_IS_THRESHOLD,
            paver: PaverConfig::default(),
            parallel: false,
            chunk: SamplePlan::DEFAULT_CHUNK,
            seed: 0xC05A1u64,
            target_stderr: None,
            max_rounds: 8,
            round_budget: 10_000,
            profile_epsilon: 1e-3,
            deadline_ms: None,
            trace: false,
        }
    }

    /// `qCORAL{STRAT}`: ICP-driven stratified sampling per path condition.
    pub fn strat() -> Options {
        Options {
            stratified: true,
            ..Options::plain()
        }
    }

    /// `qCORAL{STRAT,PARTCACHE}`: stratification plus independence
    /// partitioning with caching — the paper's full configuration.
    pub fn strat_partcache() -> Options {
        Options {
            stratified: true,
            partition: true,
            cache: true,
            ..Options::plain()
        }
    }

    /// Sets the per-problem sample budget.
    pub fn with_samples(mut self, samples: u64) -> Options {
        self.samples = samples;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Options {
        self.seed = seed;
        self
    }

    /// Sets the stratum allocation policy.
    /// [`Allocation::ImportanceAdaptive`] arms the rare-event
    /// importance-sampling escalation (see [`Options::is_threshold`]).
    pub fn with_allocation(mut self, allocation: Allocation) -> Options {
        self.allocation = allocation;
        self
    }

    /// Sets the rare-event pilot-estimate threshold (see
    /// [`Options::is_threshold`]).
    pub fn with_is_threshold(mut self, threshold: f64) -> Options {
        self.is_threshold = threshold;
        self
    }

    /// Enables or disables parallel PC analysis.
    pub fn with_parallel(mut self, parallel: bool) -> Options {
        self.parallel = parallel;
        self
    }

    /// Sets the ICP paver configuration.
    pub fn with_paver(mut self, paver: PaverConfig) -> Options {
        self.paver = paver;
        self
    }

    /// Sets the target standard error for
    /// [`Analyzer::analyze_iterative`] (and routes the pipeline/service
    /// through it).
    pub fn with_target_stderr(mut self, target: f64) -> Options {
        self.target_stderr = Some(target);
        self
    }

    /// Sets the sampling-round ceiling for `analyze_iterative`.
    pub fn with_max_rounds(mut self, rounds: u64) -> Options {
        self.max_rounds = rounds;
        self
    }

    /// Sets the per-round refinement budget for `analyze_iterative`.
    pub fn with_round_budget(mut self, budget: u64) -> Options {
        self.round_budget = budget;
        self
    }

    /// Sets the profile-discretization error bound ε (see
    /// [`Options::profile_epsilon`]).
    pub fn with_profile_epsilon(mut self, epsilon: f64) -> Options {
        self.profile_epsilon = epsilon;
        self
    }

    /// Sets the soft wall-clock budget (see [`Options::deadline_ms`]).
    pub fn with_deadline_ms(mut self, ms: u64) -> Options {
        self.deadline_ms = Some(ms);
        self
    }

    /// Enables or disables per-request trace collection (see
    /// [`Options::trace`]).
    pub fn with_trace(mut self, trace: bool) -> Options {
        self.trace = trace;
        self
    }

    /// Fingerprint of every option that shapes a factor's *estimate*:
    /// sample budget, seed, chunking, stratification, allocation and the
    /// paver limits. `parallel` is excluded — fan-out never changes
    /// results — so serial and parallel runs share cross-run cache
    /// entries. Keys the [`FactorStore`].
    ///
    /// The hash is an explicitly pinned FNV-1a fold (not
    /// `DefaultHasher`, whose algorithm may change between Rust
    /// releases): the value is persisted in factor-store snapshots, so
    /// it must match across processes *and* toolchains or every restart
    /// would silently start cold.
    pub fn sampling_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for word in [
            self.samples,
            self.seed,
            self.chunk.max(1),
            self.stratified as u64,
            // EqualPerStratum keeps its historic encoding (its sample
            // streams are unchanged, so old snapshots stay warm);
            // Proportional moved from 1 to 2 when its rounding changed
            // to the budget-clamped largest-remainder split, so stale
            // snapshots go cold instead of resurrecting estimates a
            // fresh run can no longer reproduce.
            match self.allocation {
                Allocation::EqualPerStratum => 0,
                Allocation::Proportional => 2,
                Allocation::VarianceAdaptive => 3,
                // Fresh word: IS estimates share streams with no earlier
                // release, so stale entries must go cold.
                Allocation::ImportanceAdaptive => 4,
            },
            self.paver.max_boxes as u64,
            self.paver.precision_digits as u64,
            self.paver.time_budget.as_nanos() as u64,
            self.paver.max_passes as u64,
        ] {
            h = fnv_fold(h, word);
        }
        // IS-only bits, folded conditionally: every configuration that
        // existed before the rare-event engine keeps its exact historic
        // fingerprint (uniform keys unchanged, warm stores stay warm),
        // while IS runs key on everything that shapes their streams.
        if self.allocation == Allocation::ImportanceAdaptive {
            h = fnv_fold(h, self.is_threshold.to_bits());
        }
        h
    }

    /// Fingerprint keying estimates produced by
    /// [`Analyzer::analyze_iterative`]: the one-shot
    /// [`Options::sampling_fingerprint`] plus every knob that shapes the
    /// refinement trajectory (target, round ceiling, round budget). A
    /// distinct tag word keeps iterative and one-shot estimates for
    /// otherwise-identical options from ever sharing a
    /// [`FactorStore`] entry — their sample streams differ.
    pub fn iterative_fingerprint(&self) -> u64 {
        let mut h = fnv_fold(self.sampling_fingerprint(), ITERATIVE_TAG);
        for word in [
            self.target_stderr.unwrap_or(0.0).to_bits(),
            self.max_rounds.max(1),
            self.round_budget,
        ] {
            h = fnv_fold(h, word);
        }
        h
    }
}

impl Default for Options {
    /// The paper's full configuration, [`Options::strat_partcache`].
    fn default() -> Options {
        Options::strat_partcache()
    }
}

/// Cumulative counters gathered during an analysis.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Partition-cache hits (Algorithm 2).
    pub cache_hits: u64,
    /// Partition-cache misses.
    pub cache_misses: u64,
    /// ICP inner boxes across all pavings.
    pub inner_boxes: u64,
    /// ICP boundary boxes across all pavings.
    pub boundary_boxes: u64,
    /// Number of paving requests (cache hits included).
    pub pavings: u64,
    /// Paving-cache hits during this analysis (a hit skips HC4
    /// compilation and the whole branch-and-prune loop). Counted per
    /// analysis, so the numbers stay exact even when the cache is shared
    /// with concurrent analyses (as in `qcoral-service`).
    pub paving_cache_hits: u64,
    /// Paving-cache misses during this analysis (same accounting).
    pub paving_cache_misses: u64,
    /// Compiled-tape cache hits during this analysis. The tape cache is
    /// process-wide, so this is a delta of global counters: exact unless
    /// other analyses run concurrently in the same process.
    pub tape_cache_hits: u64,
    /// Compiled-tape cache misses during this analysis (same caveat).
    pub tape_cache_misses: u64,
    /// Cross-run factor-store hits: factors answered from a
    /// [`FactorStore`] without paving or sampling anything.
    pub factor_store_hits: u64,
    /// Cross-run factor-store misses (0 when no store is attached).
    pub factor_store_misses: u64,
    /// Monte Carlo sampling budget charged, across all sampled factors.
    /// Zero means every factor came from a cache — no RNG was touched.
    /// (Exact inner strata may draw fewer samples than budgeted.)
    pub samples_drawn: u64,
    /// Sampling rounds executed by [`Analyzer::analyze_iterative`]
    /// (0 for one-shot `analyze`; 1 when every factor was answered from
    /// the cross-run store or the target held after the initial round).
    pub rounds: u64,
    /// Samples drawn by refinement rounds after the first — the extra
    /// budget variance-driven reallocation decided to spend (a subset of
    /// `samples_drawn`; 0 for one-shot `analyze`).
    pub refine_samples: u64,
    /// Whether `analyze_iterative` stopped because the composed standard
    /// error reached [`Options::target_stderr`]. `false` when the round
    /// ceiling or refinement exhaustion stopped the loop first, when no
    /// target was set, and always for one-shot `analyze`.
    pub target_met: bool,
    /// Factors whose boundary-region estimate came from the adaptive
    /// importance-sampling engine (see [`qcoral_mc::IsEstimator`]):
    /// under [`Allocation::ImportanceAdaptive`], the factors whose pilot
    /// estimate (exact inner mass plus `Σ wᵢ·p̂ᵢ` over the boundary
    /// strata) fell below [`Options::is_threshold`] and whose proposal
    /// produced hits. Always 0 under other allocations and for fully
    /// cache-answered runs.
    pub is_factors: u64,
    /// Degenerate-proposal fallbacks: factors that switched to IS but
    /// whose first proposal round found zero hits, deterministically
    /// falling back to stratified sampling for the rest of their budget.
    /// A non-zero count usually means the paver's boundary boxes carry
    /// essentially no satisfiable mass at this precision.
    pub is_fallbacks: u64,
    /// Whether the run's [`Deadline`] expired before the analysis
    /// finished. When `true` the report is a best-effort *partial*
    /// result: factors (or whole path conditions) that never ran
    /// contribute `0 ± 0`, truncated factors contribute the sound
    /// smaller-`n` estimate of the chunks they completed, and
    /// `samples_drawn` still reflects the *budgeted* (not completed)
    /// charge. Nothing computed after expiry is deposited in any cache.
    /// Always `false` without a deadline.
    pub deadline_exceeded: bool,
    /// Predicate-evaluation backend the analysis used for tape-compiled
    /// predicates: always `"bulk"`, the columnar interpreter (kept for
    /// wire compatibility; see [`crate::active_backend`]). Empty on
    /// partial reports synthesized before an analysis ran (e.g.
    /// shed-at-deadline replies).
    pub backend: String,
}

/// The result of a qCORAL analysis.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The combined estimator: mean of the target-event probability and a
    /// variance upper bound (Theorem 1).
    pub estimate: Estimate,
    /// Per-path-condition estimates, in input order.
    pub per_pc: Vec<Estimate>,
    /// Counters.
    pub stats: Stats,
    /// Wall-clock analysis time.
    pub wall: Duration,
    /// The execution trace, when [`Options::trace`] asked for one (or a
    /// collector was injected via [`Analyzer::with_trace`]); `None`
    /// otherwise. `Option` keeps the wire format compatible: absent on
    /// untraced reports.
    pub trace: Option<TraceData>,
}

impl Report {
    /// Standard deviation of the combined estimator.
    pub fn std_dev(&self) -> f64 {
        self.estimate.std_dev()
    }
}

/// The qCORAL solution-space quantifier.
///
/// # Example
///
/// ```
/// use qcoral::{Analyzer, Options};
/// use qcoral_constraints::parse::parse_system;
/// use qcoral_mc::UsageProfile;
///
/// let sys = parse_system(
///     "var altitude in [0, 20000];
///      var headFlap in [-10, 10];
///      var tailFlap in [-10, 10];
///      pc altitude > 9000;
///      pc altitude <= 9000 && sin(headFlap * tailFlap) > 0.25;",
/// ).unwrap();
/// let profile = UsageProfile::uniform(sys.domain.len());
/// let report = Analyzer::new(Options::default().with_samples(20_000))
///     .analyze(&sys.constraint_set, &sys.domain, &profile);
/// // The paper's §4.4 worked example: exact probability ≈ 0.7378.
/// assert!((report.estimate.mean - 0.7378).abs() < 0.01);
/// ```
#[derive(Clone)]
pub struct Analyzer {
    pub(crate) opts: Options,
    /// Shared paving cache: repeated factors compile their HC4 tapes and
    /// pave once, across path conditions, threads and `analyze` calls.
    /// Clones of the analyzer share the cache.
    pub(crate) paving_cache: Arc<PavingCache>,
    /// Optional cross-run factor-estimate store (see [`FactorStore`]):
    /// consulted between the in-run partition cache and fresh sampling,
    /// shared across analyzers, requests and — once persisted — restarts.
    pub(crate) factor_store: Option<Arc<FactorStore>>,
    /// Optional absolute cutoff (see [`Analyzer::with_deadline`]); takes
    /// precedence over [`Options::deadline_ms`].
    pub(crate) deadline: Option<Deadline>,
    /// Optional pre-seeded trace collector (see [`Analyzer::with_trace`]).
    pub(crate) trace: Option<Arc<Trace>>,
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("opts", &self.opts)
            .field("factor_store", &self.factor_store.is_some())
            .finish_non_exhaustive()
    }
}

/// High-bit variant-tag base for non-uniform [`profile_bits`] encodings.
/// The previous encoding's first word for a non-uniform dimension was
/// `1 + edges.len()` — a small integer — so tagged words can never
/// collide with stale snapshot keys: every pre-profile-aware non-uniform
/// entry goes cold (its sample streams changed when stratum alignment
/// landed), while uniform dimensions keep their historic `0` word and
/// stay warm (their streams are untouched).
const PROFILE_TAG: u64 = 0xD157_7000_0000_0000;

/// Stable bit-level encoding of a projected usage profile for cache
/// keying: structurally identical factors over *differently distributed*
/// variables must not share an estimate. `epsilon` is the
/// [`Options::profile_epsilon`] discretization bound; it shapes the
/// aligned strata (and thus the sample streams) of continuous marginals,
/// so it is folded into their encodings — but not into `Uniform` (no
/// alignment) or `Piecewise` (aligned along its own ε-independent
/// edges), whose estimates do not depend on it.
pub(crate) fn profile_bits(profile: &UsageProfile, epsilon: f64) -> Vec<u64> {
    let mut out = Vec::new();
    for i in 0..profile.len() {
        match profile.dist(i) {
            Dist::Uniform => out.push(0),
            Dist::Piecewise { edges, weights } => {
                // Length-prefixed so adjacent dimensions cannot alias.
                out.push(PROFILE_TAG | 1);
                out.push(edges.len() as u64);
                out.extend(edges.iter().map(|v| v.to_bits()));
                out.extend(weights.iter().map(|v| v.to_bits()));
            }
            Dist::Normal { mu, sigma } => {
                out.push(PROFILE_TAG | 2);
                out.push(epsilon.to_bits());
                out.push(mu.to_bits());
                out.push(sigma.to_bits());
            }
            Dist::Exponential { lambda } => {
                out.push(PROFILE_TAG | 3);
                out.push(epsilon.to_bits());
                out.push(lambda.to_bits());
            }
            Dist::TruncatedNormal { mu, sigma, lo, hi } => {
                out.push(PROFILE_TAG | 4);
                out.push(epsilon.to_bits());
                out.extend([mu, sigma, lo, hi].iter().map(|v| v.to_bits()));
            }
        }
    }
    out
}

struct Shared<'a> {
    opts: &'a Options,
    deadline: Option<Deadline>,
    domain_box: IntervalBox,
    profile: &'a UsageProfile,
    partition: Vec<VarSet>,
    pavings_cache: &'a PavingCache,
    store: Option<&'a FactorStore>,
    opts_fp: u64,
    /// Span collector of this run, when tracing (one branch when not).
    trace: Option<&'a Trace>,
    /// In-run partition cache, one cell per factor key: set once by the
    /// PC that computes the key, `None` when a deadline cut that
    /// computation short.
    cache: Mutex<HashMap<FactorKey, Arc<OnceLock<Option<Estimate>>>>>,
    // Per-analysis counters on the `qcoral-obs` primitives (the same
    // type the process-wide registry serves), so `Stats` and the metrics
    // exposition share one counting substrate. Kept per-run — not
    // registry-minted — because tests and callers rely on exact
    // per-analysis numbers even when analyses run concurrently; the
    // totals are folded into the global registry by `publish_report`.
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    store_hits: Arc<Counter>,
    store_misses: Arc<Counter>,
    inner_boxes: Arc<Counter>,
    boundary_boxes: Arc<Counter>,
    pavings: Arc<Counter>,
    paving_hits: Arc<Counter>,
    paving_misses: Arc<Counter>,
    samples_drawn: Arc<Counter>,
    is_factors: Arc<Counter>,
    is_fallbacks: Arc<Counter>,
}

impl Analyzer {
    /// Creates an analyzer with the given options.
    pub fn new(opts: Options) -> Analyzer {
        Analyzer {
            opts,
            paving_cache: Arc::new(PavingCache::new()),
            factor_store: None,
            deadline: None,
            trace: None,
        }
    }

    /// The analyzer's options.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// The analyzer's paving cache (shared across `analyze` calls).
    pub fn paving_cache(&self) -> &PavingCache {
        &self.paving_cache
    }

    /// Replaces the paving cache with a shared one, so independent
    /// analyzers (e.g. service workers answering different requests) pave
    /// each recurring factor once.
    pub fn with_paving_cache(mut self, cache: Arc<PavingCache>) -> Analyzer {
        self.paving_cache = cache;
        self
    }

    /// Attaches a cross-run [`FactorStore`]. With [`Options::cache`]
    /// enabled, factor estimates are looked up there after the in-run
    /// cache and deposited there after sampling. Store hits return
    /// bit-identical estimates (all sampling seeds derive from the
    /// canonical factor key), so attaching a store never changes results.
    pub fn with_factor_store(mut self, store: Arc<FactorStore>) -> Analyzer {
        self.factor_store = Some(store);
        self
    }

    /// The attached cross-run factor store, if any.
    pub fn factor_store(&self) -> Option<&Arc<FactorStore>> {
        self.factor_store.as_ref()
    }

    /// Attaches an absolute cooperative [`Deadline`] for subsequent
    /// `analyze`/`analyze_iterative` calls, overriding
    /// [`Options::deadline_ms`]. An absolute instant (rather than a
    /// per-call budget) lets a server charge queueing time against the
    /// request's budget. `None` removes any cutoff.
    pub fn with_deadline(mut self, deadline: Option<Deadline>) -> Analyzer {
        self.deadline = deadline;
        self
    }

    /// Injects a pre-seeded [`Trace`] collector: spans recorded by the
    /// caller before the analysis (queue wait, parsing, symbolic
    /// execution) share the request's timeline with the analyzer's own
    /// spans. The collector is used — and drained into
    /// [`Report::trace`] — whether or not [`Options::trace`] is set;
    /// without an injected collector, each run creates its own when
    /// `Options::trace` asks for one.
    pub fn with_trace(mut self, trace: Arc<Trace>) -> Analyzer {
        self.trace = Some(trace);
        self
    }

    /// The injected trace collector, if any (see
    /// [`Analyzer::with_trace`]): hosts wrapping an analysis in extra
    /// stages (parsing, symbolic execution) record their spans here so
    /// they land in the same [`Report::trace`] timeline.
    pub fn trace(&self) -> Option<&Arc<Trace>> {
        self.trace.as_ref()
    }

    /// The trace collector a run starting now records into, if any.
    pub(crate) fn run_trace(&self) -> Option<Arc<Trace>> {
        self.trace
            .clone()
            .or_else(|| self.opts.trace.then(Trace::new))
    }

    /// The effective deadline of a run starting now: the explicitly
    /// attached one, else a fresh one [`Options::deadline_ms`] from now.
    pub(crate) fn effective_deadline(&self) -> Option<Deadline> {
        self.deadline.or_else(|| {
            self.opts
                .deadline_ms
                .map(|ms| Deadline::after(Duration::from_millis(ms)))
        })
    }

    /// Quantifies `Pr[input ∼ profile satisfies any PC in cs]` over the
    /// bounded `domain` (Algorithm 1). Returns the combined estimate, the
    /// per-PC breakdown and counters.
    ///
    /// # Panics
    ///
    /// Panics if the constraint set references variables outside `domain`
    /// or if `profile.len() != domain.len()`.
    pub fn analyze(&self, cs: &ConstraintSet, domain: &Domain, profile: &UsageProfile) -> Report {
        assert_eq!(
            profile.len(),
            domain.len(),
            "profile and domain must cover the same variables"
        );
        assert!(
            cs.var_bound() <= domain.len(),
            "constraint set references undeclared variables"
        );
        let start = Instant::now();
        let trace = self.run_trace();
        let trace_t0 = qcoral_obs::trace::span_start(&trace);
        let nvars = domain.len();
        let partition = normalized_partition(&self.opts, cs, nvars);

        let (tape_hits0, tape_misses0) = tape_cache_stats();
        let shared = Shared {
            opts: &self.opts,
            deadline: self.effective_deadline(),
            domain_box: domain_box(domain),
            profile,
            partition,
            pavings_cache: &self.paving_cache,
            store: self.factor_store.as_deref(),
            opts_fp: self.opts.sampling_fingerprint(),
            trace: trace.as_deref(),
            cache: Mutex::new(HashMap::new()),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            store_hits: Counter::new(),
            store_misses: Counter::new(),
            inner_boxes: Counter::new(),
            boundary_boxes: Counter::new(),
            pavings: Counter::new(),
            paving_hits: Counter::new(),
            paving_misses: Counter::new(),
            samples_drawn: Counter::new(),
            is_factors: Counter::new(),
            is_fallbacks: Counter::new(),
        };

        // Algorithm 1, fanned out per Theorem 1: each path condition's
        // estimator is independent of the others, and all seeds are
        // derived from (pc index, factor) — not from execution order — so
        // the parallel collect is bit-identical to the serial map.
        let pcs = cs.pcs();
        let per_pc: Vec<Estimate> = if self.opts.parallel && pcs.len() > 1 {
            (0..pcs.len())
                .into_par_iter()
                .map(|i| analyze_conjunction(&shared, &pcs[i], i))
                .collect()
        } else {
            pcs.iter()
                .enumerate()
                .map(|(i, pc)| analyze_conjunction(&shared, pc, i))
                .collect()
        };

        // Theorem 1: disjoint PCs sum; variance adds as an upper bound.
        // (Fixed input-order reduction — independent of thread schedule.)
        let estimate = per_pc.iter().fold(Estimate::ZERO, |acc, e| acc.sum(*e));

        let (tape_hits1, tape_misses1) = tape_cache_stats();
        let stats = Stats {
            cache_hits: shared.cache_hits.get(),
            cache_misses: shared.cache_misses.get(),
            inner_boxes: shared.inner_boxes.get(),
            boundary_boxes: shared.boundary_boxes.get(),
            pavings: shared.pavings.get(),
            paving_cache_hits: shared.paving_hits.get(),
            paving_cache_misses: shared.paving_misses.get(),
            tape_cache_hits: tape_hits1 - tape_hits0,
            tape_cache_misses: tape_misses1 - tape_misses0,
            factor_store_hits: shared.store_hits.get(),
            factor_store_misses: shared.store_misses.get(),
            samples_drawn: shared.samples_drawn.get(),
            rounds: 0,
            refine_samples: 0,
            target_met: false,
            is_factors: shared.is_factors.get(),
            is_fallbacks: shared.is_fallbacks.get(),
            deadline_exceeded: shared.expired(),
            backend: crate::bulkpred::active_backend().to_string(),
        };
        if let Some(t) = &trace {
            t.record(
                "analyze",
                "core",
                trace_t0,
                vec![
                    arg("pcs", per_pc.len()),
                    arg("samples_drawn", stats.samples_drawn),
                ],
            );
        }
        let report = Report {
            estimate,
            per_pc,
            stats,
            wall: start.elapsed(),
            trace: trace.map(|t| t.take()),
        };
        publish_report(&report);
        report
    }
}

/// Process-wide totals of the per-analysis counters, minted once in the
/// global [`Registry`] and fed by [`publish_report`] after every
/// completed analysis. Per-analysis exactness lives in [`Stats`]; these
/// are the lifetime aggregates the `metrics` exposition serves.
struct GlobalAnalysisMetrics {
    analyses: Arc<Counter>,
    samples_drawn: Arc<Counter>,
    pavings: Arc<Counter>,
    paving_hits: Arc<Counter>,
    paving_misses: Arc<Counter>,
    partition_hits: Arc<Counter>,
    partition_misses: Arc<Counter>,
    inner_boxes: Arc<Counter>,
    boundary_boxes: Arc<Counter>,
    rounds: Arc<Counter>,
    refine_samples: Arc<Counter>,
    is_factors: Arc<Counter>,
    is_fallbacks: Arc<Counter>,
    duration_us: Arc<Histogram>,
}

fn global_metrics() -> &'static GlobalAnalysisMetrics {
    static METRICS: OnceLock<GlobalAnalysisMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        GlobalAnalysisMetrics {
            analyses: r.counter(
                "qcoral_analyses_total",
                "Completed analyses (one-shot and iterative).",
            ),
            samples_drawn: r.counter(
                "qcoral_samples_drawn_total",
                "Monte Carlo sampling budget charged across all analyses.",
            ),
            pavings: r.counter(
                "qcoral_pavings_total",
                "ICP paving requests (paving-cache hits included).",
            ),
            paving_hits: r.counter(
                "qcoral_paving_cache_hits_total",
                "Paving requests answered from the paving cache.",
            ),
            paving_misses: r.counter(
                "qcoral_paving_cache_misses_total",
                "Paving requests that ran branch-and-prune.",
            ),
            partition_hits: r.counter(
                "qcoral_partition_cache_hits_total",
                "Factor estimates answered from the in-run partition cache.",
            ),
            partition_misses: r.counter(
                "qcoral_partition_cache_misses_total",
                "Factor estimates the in-run partition cache could not answer.",
            ),
            inner_boxes: r.counter(
                "qcoral_inner_boxes_total",
                "ICP inner boxes across all pavings.",
            ),
            boundary_boxes: r.counter(
                "qcoral_boundary_boxes_total",
                "ICP boundary boxes across all pavings.",
            ),
            rounds: r.counter(
                "qcoral_rounds_total",
                "Sampling rounds executed by iterative analyses.",
            ),
            refine_samples: r.counter(
                "qcoral_refine_samples_total",
                "Samples drawn by refinement rounds after the first.",
            ),
            is_factors: r.counter(
                "qcoral_is_factors_total",
                "Factors quantified by the adaptive importance-sampling engine.",
            ),
            is_fallbacks: r.counter(
                "qcoral_is_fallbacks_total",
                "IS factors that fell back to stratified after a zero-hit proposal round.",
            ),
            duration_us: r.histogram(
                "qcoral_analysis_duration_us",
                "Wall-clock time per analysis, microseconds.",
            ),
        }
    })
}

/// Folds a finished report's counters into the process-wide registry —
/// the single write path from per-analysis [`Stats`] to the lifetime
/// metric families.
pub(crate) fn publish_report(report: &Report) {
    let m = global_metrics();
    let s = &report.stats;
    m.analyses.inc();
    m.samples_drawn.add(s.samples_drawn);
    m.pavings.add(s.pavings);
    m.paving_hits.add(s.paving_cache_hits);
    m.paving_misses.add(s.paving_cache_misses);
    m.partition_hits.add(s.cache_hits);
    m.partition_misses.add(s.cache_misses);
    m.inner_boxes.add(s.inner_boxes);
    m.boundary_boxes.add(s.boundary_boxes);
    m.rounds.add(s.rounds);
    m.refine_samples.add(s.refine_samples);
    m.is_factors.add(s.is_factors);
    m.is_fallbacks.add(s.is_fallbacks);
    m.duration_us.record(report.wall.as_micros() as u64);
}

impl Shared<'_> {
    /// Whether this run's deadline (if any) has passed.
    fn expired(&self) -> bool {
        self.deadline.is_some_and(Deadline::expired)
    }
}

/// The variable partition Algorithm 2 factors each conjunction along:
/// the dependency partition when [`Options::partition`] is set, one
/// whole-domain class otherwise. Classes are normalized to full-domain
/// capacity (`FromIterator for VarSet` sizes to the max index, which the
/// empty-domain edge case trips over).
pub(crate) fn normalized_partition(
    opts: &Options,
    cs: &ConstraintSet,
    nvars: usize,
) -> Vec<VarSet> {
    let partition = if opts.partition {
        dependency_partition(cs, nvars)
    } else {
        // A single class containing every variable: Algorithm 2
        // degenerates to whole-PC analysis.
        vec![(0..nvars as u32).map(VarId).collect::<VarSet>()]
    };
    partition
        .into_iter()
        .map(|s| {
            let mut full = VarSet::new(nvars);
            for v in s.iter() {
                full.insert(v);
            }
            full
        })
        .collect()
}

/// Algorithm 2: analyze one conjunction by independent factors.
///
/// Factors are independent by construction (disjoint variable classes),
/// so under [`Options::parallel`] they are estimated concurrently; the
/// product (Eq. 7–8) is reduced in partition order either way.
fn analyze_conjunction(shared: &Shared<'_>, pc: &PathCondition, pc_idx: usize) -> Estimate {
    // Graceful degradation: once the deadline has passed, path
    // conditions that have not started contribute the sound (if
    // pessimistic) `0 ± 0` instead of pinning the worker further. The
    // report is flagged `deadline_exceeded`, so the caller knows the sum
    // is a lower bound on the work requested.
    if shared.expired() {
        return Estimate::ZERO;
    }
    let t0 = shared.trace.map_or(0, Trace::now_us);
    // Project each class once; a class no constraint touches contributes
    // exactly 1 and is dropped here.
    let factors: Vec<(usize, &VarSet, PathCondition)> = shared
        .partition
        .iter()
        .enumerate()
        .filter_map(|(i, class)| {
            let part = pc.project(class);
            (!part.is_empty()).then_some((i, class, part))
        })
        .collect();
    let estimate_factor = |(factor_idx, class, part): &(usize, &VarSet, PathCondition)| {
        analyze_factor(shared, part, pc_idx, *factor_idx, class)
    };
    let per_factor: Vec<Estimate> = if shared.opts.parallel && factors.len() > 1 {
        factors.par_iter().map(estimate_factor).collect()
    } else {
        factors.iter().map(estimate_factor).collect()
    };
    // Eq. 7–8: independent factors multiply.
    let product = per_factor
        .into_iter()
        .fold(Estimate::ONE, Estimate::product);
    if let Some(t) = shared.trace {
        t.record(
            "pc",
            "core",
            t0,
            vec![arg("pc", pc_idx), arg("factors", factors.len())],
        );
    }
    product
}

/// One independent factor of Algorithm 2: canonicalize the projected
/// conjunction, consult the estimate cache, and sample on a miss.
/// Records one `factor` span per call, annotated with where the answer
/// came from (`partition_cache`, `factor_store`, or `sampled`).
fn analyze_factor(
    shared: &Shared<'_>,
    part: &PathCondition,
    pc_idx: usize,
    factor_idx: usize,
    class: &VarSet,
) -> Estimate {
    let t0 = shared.trace.map_or(0, Trace::now_us);
    let (estimate, source) = analyze_factor_impl(shared, part, pc_idx, factor_idx, class);
    if let Some(t) = shared.trace {
        t.record(
            "factor",
            "sampling",
            t0,
            vec![
                arg("pc", pc_idx),
                arg("factor", factor_idx),
                arg("source", source),
            ],
        );
    }
    estimate
}

/// The body of [`analyze_factor`], returning the estimate plus the
/// source label for its span.
fn analyze_factor_impl(
    shared: &Shared<'_>,
    part: &PathCondition,
    pc_idx: usize,
    factor_idx: usize,
    class: &VarSet,
) -> (Estimate, &'static str) {
    let indices = class.indices();
    // Re-index onto a dense local variable space aligned with the
    // projected box.
    let mut local_of = HashMap::new();
    for (local, &global) in indices.iter().enumerate() {
        local_of.insert(global as u32, local as u32);
    }
    let local_pc = part.remap_vars(&|v: VarId| VarId(local_of[&v.0]));
    let sub_box = shared.domain_box.project(&indices);

    if shared.opts.cache {
        let key = factor_key(
            &local_pc,
            &sub_box,
            &shared.profile.project(&indices),
            shared.opts.profile_epsilon,
        );
        // Single flight: the first PC to reach the key computes it inside
        // `get_or_init`; a PC sharing the key blocks on the same cell
        // instead of paving and sampling it again, so every counter in
        // `Stats` is independent of the thread schedule.
        let cell = Arc::clone(shared.cache.lock().entry(key.clone()).or_default());
        let mut computed = None;
        let cached = *cell.get_or_init(|| {
            shared.cache_misses.inc();
            let (e, source, reusable) = compute_factor(shared, &key, &local_pc, &sub_box, &indices);
            computed = Some((e, source));
            reusable.then_some(e)
        });
        match (computed, cached) {
            (Some(answer), _) => answer,
            (None, Some(e)) => {
                shared.cache_hits.inc();
                (e, "partition_cache")
            }
            // The computing PC ran out of time and left nothing reusable:
            // answer as a miss, without caching (past the deadline this
            // costs at most a store lookup).
            (None, None) => {
                shared.cache_misses.inc();
                let (e, source, _) = compute_factor(shared, &key, &local_pc, &sub_box, &indices);
                (e, source)
            }
        }
    } else {
        let e = strat_sampling(
            shared,
            &local_pc,
            &sub_box,
            &indices,
            mix_seed(shared.opts.seed, (pc_idx as u64) << 32 | factor_idx as u64),
        );
        (e, "sampled")
    }
}

/// A partition-cache miss: answers the factor from the cross-run store or
/// by fresh sampling. Returns the estimate, its source label, and whether
/// it may be reused for the key (not when a deadline cut it short).
fn compute_factor(
    shared: &Shared<'_>,
    key: &FactorKey,
    local_pc: &PathCondition,
    sub_box: &IntervalBox,
    indices: &[usize],
) -> (Estimate, &'static str, bool) {
    // Cross-run store, between the in-run cache and fresh sampling: a
    // hit skips paving and sampling entirely and is bit-identical to
    // recomputing (the sampling seed below is a pure function of the
    // key).
    if let Some(store) = shared.store {
        if let Some(e) = store.get(shared.opts_fp, key) {
            shared.store_hits.inc();
            return (e, "factor_store", true);
        }
        shared.store_misses.inc();
    }
    // Key-derived seed: identical sub-problems produce identical
    // estimates no matter which PC (or thread) computes them, keeping
    // parallel runs deterministic.
    let e = strat_sampling(
        shared,
        local_pc,
        sub_box,
        indices,
        mix_seed(shared.opts.seed, hash_key(key)),
    );
    // A deadline that expired during sampling means `e` may be a
    // truncated partial estimate: report it (flagged), but never let it
    // into the in-run cache or the cross-run store, where it would
    // masquerade as the full-budget, bit-reproducible estimate for this
    // key.
    if shared.expired() {
        return (e, "sampled", false);
    }
    if let Some(store) = shared.store {
        store.insert(shared.opts_fp, key.clone(), e);
    }
    (e, "sampled", true)
}

/// Canonical cache identity of one independent factor: structural
/// fingerprint of the conjunction (linear in DAG size — never a rendered
/// tree), the exact sub-box bits, and the projected marginals (with the
/// discretization ε, where it shapes the estimate) — the estimate
/// depends on all three.
pub(crate) fn factor_key(
    local_pc: &PathCondition,
    sub_box: &IntervalBox,
    projected: &UsageProfile,
    epsilon: f64,
) -> FactorKey {
    (
        local_pc.fingerprint(),
        sub_box
            .dims()
            .iter()
            .map(|d| (d.lo().to_bits(), d.hi().to_bits()))
            .collect::<Vec<_>>(),
        profile_bits(projected, epsilon),
    )
}

/// Ceiling on profile-aligned sub-strata per paving stratum (see
/// [`qcoral_mc::align_strata`]): bounds stratification fan-out on peaked
/// profiles while leaving plenty of room for mass-resolved allocation.
pub(crate) const ALIGN_CAP: usize = 64;

/// Algorithm 3: stratified sampling of one independent factor. Pavings
/// come from the shared [`PavingCache`]; sampling runs on the
/// deterministic chunked plan (serial and parallel draws are identical).
fn strat_sampling(
    shared: &Shared<'_>,
    local_pc: &PathCondition,
    sub_box: &IntervalBox,
    global_indices: &[usize],
    seed: u64,
) -> Estimate {
    // Checked before paving, not just in the chunk loops: the paver can
    // legally spend its whole time budget, which an expired request no
    // longer has. `0 ± 0` zeroes the factor's conjunction — still a
    // sound lower bound for the flagged partial report.
    if shared.expired() {
        return Estimate::ZERO;
    }
    let local_profile = shared.profile.project(global_indices);
    // Compile the predicate once per factor *process-wide*: the scalar
    // tape evaluates each distinct sub-expression once per sample (where
    // `PathCondition::holds` would recompute a shared sub-term at every
    // occurrence), and its columnar [`CompiledPred`] twin lets the
    // chunked samplers evaluate 128-sample lane slabs per instruction —
    // same samples, same hits, bit-identical estimates.
    let t_compile = shared.trace.map_or(0, Trace::now_us);
    let pred = CompiledPred::compile_cached(local_pc);
    if let Some(t) = shared.trace {
        t.record(
            "compile",
            "tape",
            t_compile,
            vec![arg("vars", sub_box.dims().len())],
        );
    }
    let plan = SamplePlan {
        seed,
        chunk: shared.opts.chunk.max(1),
        parallel: shared.opts.parallel,
        deadline: shared.deadline,
    };
    if !shared.opts.stratified {
        shared.samples_drawn.add(shared.opts.samples);
        let t_sample = shared.trace.map_or(0, Trace::now_us);
        let e = hit_or_miss_plan(&*pred, sub_box, &local_profile, shared.opts.samples, plan);
        if let Some(t) = shared.trace {
            t.record(
                "sample",
                "sampling",
                t_sample,
                vec![arg("strata", 1), arg("budget", shared.opts.samples)],
            );
        }
        return e;
    }
    // The counted variant attributes the hit/miss to *this* analysis:
    // the cache may be shared service-wide, and deltas of its global
    // counters would charge concurrent requests' pavings to each other.
    let t_pave = shared.trace.map_or(0, Trace::now_us);
    let (paving, was_hit) =
        shared
            .pavings_cache
            .pave_cached_counted(local_pc, sub_box, &shared.opts.paver);
    if let Some(t) = shared.trace {
        t.record(
            "paving",
            "icp",
            t_pave,
            vec![
                arg("inner", paving.inner.len()),
                arg("boundary", paving.boundary.len()),
                arg("cache_hit", was_hit),
            ],
        );
    }
    if was_hit {
        shared.paving_hits.inc();
    } else {
        shared.paving_misses.inc();
    }
    shared.pavings.inc();
    shared.inner_boxes.add(paving.inner.len() as u64);
    shared.boundary_boxes.add(paving.boundary.len() as u64);
    if paving.is_unsat() {
        return Estimate::ZERO;
    }
    shared.samples_drawn.add(shared.opts.samples);
    let strata: Vec<Stratum> = paving
        .inner
        .iter()
        .cloned()
        .map(Stratum::inner)
        .chain(paving.boundary.iter().cloned().map(Stratum::boundary))
        .collect();
    // Profile-aligned stratification: slice boundary strata along the
    // discretized profile's mass edges so stratum weights (and therefore
    // proportional/Neyman allocation) follow probability mass. A no-op
    // under uniform profiles.
    let strata = align_strata(
        strata,
        &local_profile,
        sub_box,
        shared.opts.profile_epsilon,
        ALIGN_CAP,
    );
    let t_sample = shared.trace.map_or(0, Trace::now_us);
    let e = if shared.opts.allocation == Allocation::ImportanceAdaptive {
        importance_stratified(shared, &*pred, &strata, sub_box, &local_profile, plan)
    } else {
        stratified_plan(
            &*pred,
            &strata,
            sub_box,
            &local_profile,
            shared.opts.samples,
            shared.opts.allocation,
            plan,
        )
    };
    if let Some(t) = shared.trace {
        t.record(
            "sample",
            "sampling",
            t_sample,
            vec![
                arg("strata", strata.len()),
                arg("budget", shared.opts.samples),
            ],
        );
    }
    e
}

/// Sub-stream tag of a factor's importance-sampling chunk stream: far
/// outside the small stratum indices ([`SamplePlan::substream`] per
/// stratum), so IS draws never collide with stratified ones.
pub(crate) const IS_STREAM: u64 = 0x15AD_AB0C_5EED_0001;

/// Adaptation rounds the one-shot engine gives the IS proposal (the
/// iterative engine adapts once per refinement round instead).
pub(crate) const IS_ROUNDS: u64 = 4;

/// [`Allocation::ImportanceAdaptive`] sampling of one factor: a
/// stratified equal-split pilot over half the budget estimates the
/// factor's probability; factors whose pilot estimate reaches
/// [`Options::is_threshold`] finish with the usual Neyman follow-up
/// (exactly `VarianceAdaptive`'s policy), while rare-event factors
/// hand the remaining budget to the paver-seeded
/// [`IsEstimator`] — seeded from the factor's boundary strata, adapted
/// over [`IS_ROUNDS`] rounds — and compose `exact inner mass + IS
/// boundary estimate`. A proposal whose first round finds zero hits is
/// degenerate: the factor deterministically falls back to the Neyman
/// follow-up (flagged in [`Stats::is_fallbacks`]).
fn importance_stratified<P>(
    shared: &Shared<'_>,
    pred: &P,
    strata: &[Stratum],
    sub_box: &IntervalBox,
    profile: &UsageProfile,
    plan: SamplePlan,
) -> Estimate
where
    P: BulkPred + ?Sized,
{
    let total = shared.opts.samples;
    let expired = || plan.deadline.is_some_and(|d| d.expired());
    let weights: Vec<f64> = strata
        .iter()
        .map(|s| profile.box_probability(&s.boxed, sub_box))
        .collect();
    let mut exact = Estimate::ZERO;
    for (i, s) in strata.iter().enumerate() {
        if s.certain {
            exact = exact.sum(Estimate::ONE.scale(weights[i]));
        }
    }
    let sampled: Vec<usize> = strata
        .iter()
        .enumerate()
        .filter(|(i, s)| !s.certain && weights[*i] > 0.0)
        .map(|(i, _)| i)
        .collect();
    if sampled.is_empty() {
        return exact;
    }
    let sampled_weights: Vec<f64> = sampled.iter().map(|&i| weights[i]).collect();
    let refine_stratum = |j: usize, add: u64, accum: StratumAccum| -> StratumAccum {
        let i = sampled[j];
        refine_plan(
            pred,
            &strata[i].boxed,
            profile,
            add,
            plan.substream(i as u64),
            accum,
        )
    };
    let fan_out = |counts: &[u64], accums: &[StratumAccum]| -> Vec<StratumAccum> {
        if plan.parallel && sampled.len() > 1 {
            (0..sampled.len())
                .into_par_iter()
                .map(|j| refine_stratum(j, counts[j], accums[j]))
                .collect()
        } else {
            (0..sampled.len())
                .map(|j| refine_stratum(j, counts[j], accums[j]))
                .collect()
        }
    };
    // Stratified pilot, equal-split like `VarianceAdaptive`'s opening
    // round but over a *quarter* of the budget: under this policy the
    // pilot only needs to detect rarity (and measure the strata for
    // the non-rare Neyman follow-up), while a rare factor wants the
    // lion's share of the budget in the IS stage.
    let pilot = initial_allocation(Allocation::ImportanceAdaptive, total / 2, &sampled_weights);
    let mut accums = fan_out(&pilot, &vec![StratumAccum::EMPTY; sampled.len()]);
    let mut remaining = total.saturating_sub(pilot.iter().sum());
    let drawn: u64 = accums.iter().map(|a| a.n).sum();
    // The rarity signal is the pilot *estimate*, not the raw conditional
    // hit rate: boundary strata hug the constraint surface, so their
    // conditional rates are O(1) even when the event's probability is
    // 1e-8 — the rarity lives in the stratum weights.
    let pilot_estimate = exact.mean
        + accums
            .iter()
            .zip(&sampled_weights)
            .map(|(a, &w)| w * a.estimate().mean)
            .sum::<f64>();
    let rare = drawn > 0 && pilot_estimate < shared.opts.is_threshold;
    if rare && remaining > 0 && !expired() {
        let boundary: Vec<IntervalBox> = sampled.iter().map(|&i| strata[i].boxed.clone()).collect();
        if let Some(mut is) = IsEstimator::seeded(&boundary, profile, sub_box) {
            // Adaptation schedule: `IS_ROUNDS − 1` equal warm-up rounds
            // refine the proposal, then a final round drawing half the
            // IS budget from the best mixture dominates the
            // accumulator. (Equal splits leave the typical round too
            // small to see the heavy tail's top weights, which reads
            // as a stable underestimate.) Round 1 takes the warm-up
            // remainder so it is never empty while `remaining > 0`.
            let half = remaining / 2;
            let per = half / (IS_ROUNDS - 1);
            let first = remaining - half - (IS_ROUNDS - 2) * per;
            let is_plan = plan.substream(IS_STREAM);
            let r1 = is.round(pred, profile, sub_box, first, is_plan);
            if r1.hits > 0 {
                for _ in 2..IS_ROUNDS {
                    is.round(pred, profile, sub_box, per, is_plan);
                }
                is.round(pred, profile, sub_box, half, is_plan);
                shared.is_factors.inc();
                return exact.sum(is.estimate());
            }
            // Degenerate proposal: zero hits in the IS pilot round. Fall
            // back to the stratified follow-up with what is left.
            remaining -= first;
        }
        shared.is_fallbacks.inc();
    }
    if remaining > 0 && !expired() {
        let stddevs: Vec<f64> = accums.iter().map(StratumAccum::std_dev).collect();
        let follow = neyman_allocation(remaining, &sampled_weights, &stddevs);
        accums = fan_out(&follow, &accums);
    }
    accums
        .iter()
        .zip(&sampled_weights)
        .map(|(a, &w)| a.estimate().scale(w))
        .fold(exact, Estimate::sum)
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Domain-separation word folded into [`Options::iterative_fingerprint`].
const ITERATIVE_TAG: u64 = 0x17E2_A71F_ADA9_71FE;

/// One FNV-1a step over a 64-bit word.
fn fnv_fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Deterministic 64-bit digest of a factor key. Explicitly pinned
/// (FNV-1a with length prefixes) rather than `DefaultHasher`: the digest
/// seeds every factor's RNG stream, and estimates derived from it are
/// persisted in factor-store snapshots — so it must be reproducible
/// across processes and toolchains, or a warm restart would return
/// estimates a fresh run could no longer reproduce.
pub(crate) fn hash_key(key: &FactorKey) -> u64 {
    let (fingerprint, box_bits, profile_bits) = key;
    let mut h = FNV_OFFSET;
    h = fnv_fold(h, *fingerprint as u64);
    h = fnv_fold(h, (*fingerprint >> 64) as u64);
    h = fnv_fold(h, box_bits.len() as u64);
    for &(lo, hi) in box_bits {
        h = fnv_fold(h, lo);
        h = fnv_fold(h, hi);
    }
    h = fnv_fold(h, profile_bits.len() as u64);
    for &word in profile_bits {
        h = fnv_fold(h, word);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;

    fn paper_system() -> (ConstraintSet, Domain, UsageProfile) {
        let sys = parse_system(
            "var altitude in [0, 20000];
             var headFlap in [-10, 10];
             var tailFlap in [-10, 10];
             pc altitude > 9000;
             pc altitude <= 9000 && sin(headFlap * tailFlap) > 0.25;",
        )
        .unwrap();
        let profile = UsageProfile::uniform(sys.domain.len());
        (sys.constraint_set, sys.domain, profile)
    }

    #[test]
    fn paper_example_all_configs_agree() {
        let (cs, dom, prof) = paper_system();
        // Exact probability (paper §4.4): 0.737848.
        for opts in [
            Options::plain().with_samples(40_000),
            Options::strat().with_samples(40_000),
            Options::strat_partcache().with_samples(40_000),
        ] {
            let r = Analyzer::new(opts.clone()).analyze(&cs, &dom, &prof);
            assert!(
                (r.estimate.mean - 0.737848).abs() < 0.02,
                "config {opts:?} estimate {}",
                r.estimate.mean
            );
        }
    }

    #[test]
    fn stratification_reduces_variance_on_paper_example() {
        let (cs, dom, prof) = paper_system();
        let plain = Analyzer::new(Options::plain().with_samples(10_000)).analyze(&cs, &dom, &prof);
        let strat = Analyzer::new(Options::strat().with_samples(10_000)).analyze(&cs, &dom, &prof);
        assert!(
            strat.estimate.variance < plain.estimate.variance,
            "strat {} vs plain {}",
            strat.estimate.variance,
            plain.estimate.variance
        );
    }

    #[test]
    fn partcache_caches_repeated_factors() {
        // The `y`-factor is shared by both PCs; with PARTCACHE it is
        // sampled once and reused.
        let sys = parse_system(
            "var x in [0, 1]; var y in [0, 1];
             pc x < 0.5 && sin(y) > 0.5;
             pc x >= 0.5 && sin(y) > 0.5;",
        )
        .unwrap();
        let prof = UsageProfile::uniform(2);
        let r = Analyzer::new(Options::strat_partcache().with_samples(2_000)).analyze(
            &sys.constraint_set,
            &sys.domain,
            &prof,
        );
        assert_eq!(r.stats.cache_hits, 1, "stats: {:?}", r.stats);
        assert_eq!(r.stats.cache_misses, 3);
        // P = P[x<.5]·P[sin y>.5] + P[x≥.5]·P[sin y>.5] = P[sin y > .5]
        // = 1 − asin(0.5) ≈ 0.4764 over [0,1]... compute exactly:
        // sin(y) > 0.5 for y ∈ (asin(.5), 1] = (0.5236, 1]: length 0.4764.
        assert!(
            (r.estimate.mean - 0.4764).abs() < 0.02,
            "{}",
            r.estimate.mean
        );
    }

    #[test]
    fn cache_distinguishes_profiles_of_identical_factors() {
        // x and y project to the *structurally identical* local factor
        // `v0 < 0.5` over [0, 1], but y is heavily skewed: the estimate
        // cache must not alias them. P = P[x<.5]·P[y<.5] = 0.5 · 0.9.
        let sys = parse_system("var x in [0, 1]; var y in [0, 1]; pc x < 0.5 && y < 0.5;").unwrap();
        let prof = UsageProfile::uniform(2).with_dist(
            1,
            qcoral_mc::Dist::piecewise(vec![0.0, 0.5, 1.0], vec![9.0, 1.0]),
        );
        let r = Analyzer::new(Options::strat_partcache().with_samples(4_000)).analyze(
            &sys.constraint_set,
            &sys.domain,
            &prof,
        );
        assert_eq!(r.stats.cache_misses, 2, "distinct keys per profile");
        assert!(
            (r.estimate.mean - 0.45).abs() < 0.02,
            "got {} (0.25 would mean the cache aliased the factors)",
            r.estimate.mean
        );
    }

    #[test]
    fn paving_cache_dedups_repeated_factors() {
        // Partitioning without the estimate cache: the shared sin(y)
        // factor is re-sampled per PC but paved only once, and a second
        // analysis on the same analyzer hits for every factor.
        let sys = parse_system(
            "var x in [0, 1]; var y in [0, 1];
             pc x < 0.5 && sin(y) > 0.5;
             pc x >= 0.5 && sin(y) > 0.5;",
        )
        .unwrap();
        let prof = UsageProfile::uniform(2);
        let mut opts = Options::strat().with_samples(1_000);
        opts.partition = true;
        let analyzer = Analyzer::new(opts);
        let r = analyzer.analyze(&sys.constraint_set, &sys.domain, &prof);
        assert_eq!(r.stats.pavings, 4, "two factors per PC requested");
        assert_eq!(r.stats.paving_cache_misses, 3, "x<.5, x>=.5, sin(y)");
        assert_eq!(r.stats.paving_cache_hits, 1, "second sin(y) reuses");
        let r2 = analyzer.analyze(&sys.constraint_set, &sys.domain, &prof);
        assert_eq!(r2.stats.paving_cache_hits, 4);
        assert_eq!(r2.stats.paving_cache_misses, 0);
        assert_eq!(r.estimate, r2.estimate);
    }

    #[test]
    fn deterministic_across_runs_and_parallelism() {
        let (cs, dom, prof) = paper_system();
        let opts = Options::strat_partcache().with_samples(5_000).with_seed(7);
        let a = Analyzer::new(opts.clone()).analyze(&cs, &dom, &prof);
        let b = Analyzer::new(opts.clone()).analyze(&cs, &dom, &prof);
        assert_eq!(a.estimate, b.estimate);
        let c = Analyzer::new(opts.with_parallel(true)).analyze(&cs, &dom, &prof);
        assert_eq!(a.estimate, c.estimate, "parallel must match sequential");
    }

    #[test]
    fn seeds_change_estimates() {
        let (cs, dom, prof) = paper_system();
        let a = Analyzer::new(Options::strat().with_samples(1_000).with_seed(1))
            .analyze(&cs, &dom, &prof);
        let b = Analyzer::new(Options::strat().with_samples(1_000).with_seed(2))
            .analyze(&cs, &dom, &prof);
        assert_ne!(a.estimate.mean, b.estimate.mean);
    }

    #[test]
    fn exact_box_constraint_has_zero_variance() {
        // The Cube phenomenon (paper Table 2): ICP identifies the exact
        // box, so the estimate is exact with σ = 0.
        let sys = parse_system(
            "var x in [-2, 2]; var y in [-2, 2];
             pc x >= -1 && x <= 1 && y >= -1 && y <= 1;",
        )
        .unwrap();
        let prof = UsageProfile::uniform(2);
        let r = Analyzer::new(Options::strat().with_samples(100)).analyze(
            &sys.constraint_set,
            &sys.domain,
            &prof,
        );
        assert_eq!(r.estimate.variance, 0.0);
        assert!((r.estimate.mean - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_constraint_set_is_zero() {
        let sys = parse_system("var x in [0, 1];").unwrap();
        let prof = UsageProfile::uniform(1);
        let r = Analyzer::new(Options::default()).analyze(&sys.constraint_set, &sys.domain, &prof);
        assert_eq!(r.estimate, Estimate::ZERO);
        assert!(r.per_pc.is_empty());
    }

    #[test]
    fn unsat_pc_contributes_zero() {
        let sys = parse_system("var x in [0, 1]; pc x > 2; pc x < 0.5;").unwrap();
        let prof = UsageProfile::uniform(1);
        let r = Analyzer::new(Options::strat().with_samples(4_000)).analyze(
            &sys.constraint_set,
            &sys.domain,
            &prof,
        );
        assert_eq!(r.per_pc[0], Estimate::ZERO);
        assert!((r.estimate.mean - 0.5).abs() < 0.03);
    }

    #[test]
    fn variance_upper_bound_holds_empirically() {
        // Theorem 1: reported variance of the sum ≥ true variance of the
        // estimator. Empirically: repeat analyses with different seeds and
        // compare the dispersion of means to the reported variance.
        let (cs, dom, prof) = paper_system();
        let mut means = Vec::new();
        let mut reported = 0.0;
        for seed in 0..30 {
            let r = Analyzer::new(Options::strat().with_samples(2_000).with_seed(seed))
                .analyze(&cs, &dom, &prof);
            means.push(r.estimate.mean);
            reported = r.estimate.variance;
        }
        let m = means.iter().sum::<f64>() / means.len() as f64;
        let emp_var =
            means.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (means.len() - 1) as f64;
        // Allow slack for the empirical variance estimate itself.
        assert!(
            emp_var <= reported * 3.0 + 1e-9,
            "empirical {emp_var} vs reported bound {reported}"
        );
    }

    #[test]
    fn factor_store_warm_analysis_is_bit_identical_with_zero_work() {
        let (cs, dom, prof) = paper_system();
        let store = Arc::new(FactorStore::new(1024));
        let opts = Options::strat_partcache().with_samples(3_000).with_seed(9);

        // Baseline without any store.
        let plain = Analyzer::new(opts.clone()).analyze(&cs, &dom, &prof);

        // Cold analyzer with the store: same results, store populated.
        let cold = Analyzer::new(opts.clone())
            .with_factor_store(Arc::clone(&store))
            .analyze(&cs, &dom, &prof);
        assert_eq!(
            cold.estimate, plain.estimate,
            "store must not change results"
        );
        assert_eq!(cold.per_pc, plain.per_pc);
        assert_eq!(cold.stats.factor_store_hits, 0);
        assert!(cold.stats.factor_store_misses > 0);
        assert!(!store.is_empty());

        // Warm: a *fresh* analyzer sharing the store answers from it —
        // no pavings, no samples, bit-identical estimates.
        let warm = Analyzer::new(opts)
            .with_factor_store(Arc::clone(&store))
            .analyze(&cs, &dom, &prof);
        assert_eq!(warm.estimate, plain.estimate);
        assert_eq!(warm.per_pc, plain.per_pc);
        assert!(warm.stats.factor_store_hits > 0);
        assert_eq!(warm.stats.factor_store_misses, 0);
        assert_eq!(warm.stats.pavings, 0, "warm run must not pave");
        assert_eq!(warm.stats.samples_drawn, 0, "warm run must not sample");
    }

    #[test]
    fn factor_store_distinguishes_option_fingerprints() {
        let (cs, dom, prof) = paper_system();
        let store = Arc::new(FactorStore::new(1024));
        let a = Analyzer::new(Options::strat_partcache().with_samples(2_000).with_seed(1))
            .with_factor_store(Arc::clone(&store))
            .analyze(&cs, &dom, &prof);
        // Different seed ⇒ different fingerprint ⇒ no cross-contamination.
        let b = Analyzer::new(Options::strat_partcache().with_samples(2_000).with_seed(2))
            .with_factor_store(Arc::clone(&store))
            .analyze(&cs, &dom, &prof);
        assert_eq!(b.stats.factor_store_hits, 0);
        assert_ne!(a.estimate.mean, b.estimate.mean);
    }

    #[test]
    fn samples_drawn_counts_budget_per_sampled_factor() {
        let sys = parse_system("var x in [0, 1]; pc x < 0.25;").unwrap();
        let prof = UsageProfile::uniform(1);
        let r = Analyzer::new(Options::plain().with_samples(1_000)).analyze(
            &sys.constraint_set,
            &sys.domain,
            &prof,
        );
        assert_eq!(r.stats.samples_drawn, 1_000);
        // Unsat PCs are proven empty by the paver and charge nothing.
        let sys = parse_system("var x in [0, 1]; pc x > 2;").unwrap();
        let r = Analyzer::new(Options::strat().with_samples(1_000)).analyze(
            &sys.constraint_set,
            &sys.domain,
            &prof,
        );
        assert_eq!(r.stats.samples_drawn, 0);
    }

    #[test]
    fn tape_cache_counters_are_observable() {
        // Unique constants make the factor's expressions fresh, so the
        // first analysis must compile (miss) and a repeat on a fresh
        // analyzer must reuse (hit). Counters are process-global deltas,
        // so only lower bounds are asserted (other tests run in parallel).
        let sys = parse_system(
            "var x in [0, 1]; pc sin(x * 0.123456789) > 0.987654321 && x < 0.3141592;",
        )
        .unwrap();
        let prof = UsageProfile::uniform(1);
        let opts = Options::strat().with_samples(200);
        let r1 = Analyzer::new(opts.clone()).analyze(&sys.constraint_set, &sys.domain, &prof);
        assert!(
            r1.stats.tape_cache_misses >= 1,
            "first compile misses: {:?}",
            r1.stats
        );
        let r2 = Analyzer::new(opts).analyze(&sys.constraint_set, &sys.domain, &prof);
        assert!(
            r2.stats.tape_cache_hits >= 1,
            "recompile hits the cache: {:?}",
            r2.stats
        );
    }

    #[test]
    fn continuous_profiles_quantify_with_exact_masses() {
        // P[x < 0.5] under N(0.5, 0.1) truncated to [0, 1] is exactly
        // 0.5 by symmetry; the x-factor is a pure box, so ICP makes the
        // whole estimate exact regardless of sampling.
        let sys = parse_system("var x in [0, 1]; pc x < 0.5;").unwrap();
        let prof = UsageProfile::uniform(1)
            .with_dist(0, qcoral_mc::Dist::truncated_normal(0.5, 0.1, 0.0, 1.0));
        let r = Analyzer::new(Options::strat().with_samples(2_000)).analyze(
            &sys.constraint_set,
            &sys.domain,
            &prof,
        );
        assert!((r.estimate.mean - 0.5).abs() < 1e-9, "{}", r.estimate.mean);

        // A noisy factor under a peaked profile: P[sin(x) > 0.5] with
        // x ~ N(0.9, 0.05) on [0, 1] — nearly all mass above
        // asin(0.5) ≈ 0.5236, so the probability is close to 1 (and far
        // from the uniform 0.4764 answer).
        let sys = parse_system("var x in [0, 1]; pc sin(x) > 0.5;").unwrap();
        let prof = UsageProfile::uniform(1).with_dist(0, qcoral_mc::Dist::normal(0.9, 0.05));
        let r = Analyzer::new(Options::strat().with_samples(20_000)).analyze(
            &sys.constraint_set,
            &sys.domain,
            &prof,
        );
        let d = qcoral_mc::Dist::normal(0.9, 0.05);
        let truth = d.mass(
            &qcoral_interval::Interval::new(std::f64::consts::FRAC_PI_6, 1.0),
            &qcoral_interval::Interval::new(0.0, 1.0),
        );
        assert!(
            (r.estimate.mean - truth).abs() < 0.01,
            "{} vs {truth}",
            r.estimate.mean
        );
    }

    #[test]
    fn aligned_stratification_beats_unaligned_variance() {
        // A peaked profile over a boundary-heavy constraint: aligning
        // strata with the mass edges must not increase the reported
        // variance at equal budget (it concentrates allocation where the
        // mass is). ALIGN_CAP = 1-equivalent is simulated by a huge ε
        // (discretization collapses to few bins).
        let sys = parse_system("var x in [0, 1]; var y in [0, 1]; pc sin(3*x + y) > 0.6;").unwrap();
        let prof = UsageProfile::uniform(2)
            .with_dist(0, qcoral_mc::Dist::normal(0.7, 0.08))
            .with_dist(1, qcoral_mc::Dist::exponential(5.0));
        let aligned = Analyzer::new(
            Options::strat()
                .with_samples(8_000)
                .with_profile_epsilon(1e-3),
        )
        .analyze(&sys.constraint_set, &sys.domain, &prof);
        let coarse = Analyzer::new(
            Options::strat()
                .with_samples(8_000)
                .with_profile_epsilon(0.5),
        )
        .analyze(&sys.constraint_set, &sys.domain, &prof);
        assert!(
            aligned.estimate.variance <= coarse.estimate.variance * 1.05,
            "aligned {} vs coarse {}",
            aligned.estimate.variance,
            coarse.estimate.variance
        );
        assert!(
            (aligned.estimate.mean - coarse.estimate.mean).abs()
                <= 3.0 * (aligned.estimate.std_dev() + coarse.estimate.std_dev()) + 1e-9,
            "estimates must agree statistically: {} vs {}",
            aligned.estimate.mean,
            coarse.estimate.mean
        );
    }

    #[test]
    fn profile_epsilon_keys_continuous_factors_but_not_uniform_ones() {
        let (cs, dom, prof) = paper_system();
        let store = Arc::new(FactorStore::new(1024));
        // Uniform profile: ε is irrelevant, entries stay warm across ε.
        let a = Analyzer::new(Options::strat_partcache().with_samples(1_000))
            .with_factor_store(Arc::clone(&store))
            .analyze(&cs, &dom, &prof);
        let b = Analyzer::new(
            Options::strat_partcache()
                .with_samples(1_000)
                .with_profile_epsilon(1e-6),
        )
        .with_factor_store(Arc::clone(&store))
        .analyze(&cs, &dom, &prof);
        assert_eq!(a.estimate, b.estimate);
        assert!(b.stats.factor_store_hits > 0, "uniform keys ignore ε");
        // Continuous profile: different ε ⇒ different keys, no cross-hit.
        let np = UsageProfile::uniform(3).with_dist(1, qcoral_mc::Dist::normal(0.0, 3.0));
        let c = Analyzer::new(Options::strat_partcache().with_samples(1_000))
            .with_factor_store(Arc::clone(&store))
            .analyze(&cs, &dom, &np);
        let d = Analyzer::new(
            Options::strat_partcache()
                .with_samples(1_000)
                .with_profile_epsilon(1e-4),
        )
        .with_factor_store(Arc::clone(&store))
        .analyze(&cs, &dom, &np);
        assert_eq!(
            d.stats.factor_store_hits, 2,
            "only the two uniform-variable factors stay ε-independent: {:?}",
            d.stats
        );
        assert!(c.stats.factor_store_misses > 0);
    }

    #[test]
    fn warm_store_is_bit_identical_under_continuous_profiles() {
        let (cs, dom, _) = paper_system();
        let prof = UsageProfile::uniform(3)
            .with_dist(0, qcoral_mc::Dist::exponential(2.0))
            .with_dist(1, qcoral_mc::Dist::normal(0.0, 4.0))
            .with_dist(2, qcoral_mc::Dist::truncated_normal(0.0, 5.0, -8.0, 8.0));
        let store = Arc::new(FactorStore::new(1024));
        let opts = Options::strat_partcache().with_samples(2_000).with_seed(3);
        let cold = Analyzer::new(opts.clone())
            .with_factor_store(Arc::clone(&store))
            .analyze(&cs, &dom, &prof);
        assert!(cold.stats.samples_drawn > 0);
        let warm = Analyzer::new(opts)
            .with_factor_store(Arc::clone(&store))
            .analyze(&cs, &dom, &prof);
        assert_eq!(warm.estimate, cold.estimate, "bit-identical warm hit");
        assert_eq!(warm.per_pc, cold.per_pc);
        assert_eq!(warm.stats.samples_drawn, 0);
        assert_eq!(warm.stats.pavings, 0);
    }

    #[test]
    fn mix_seed_spreads_streams() {
        let a = mix_seed(42, 0);
        let b = mix_seed(42, 1);
        let c = mix_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
