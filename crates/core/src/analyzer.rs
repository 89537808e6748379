//! The qCORAL analyzer: Algorithms 1–3 of the paper.
//!
//! [`Analyzer::analyze`] implements Algorithm 1 (sum the path conditions'
//! estimates per Theorem 1), Algorithm 2 (split each conjunction along
//! the dependency partition and multiply the factor estimators per
//! Eq. 7–8, with optional caching) and Algorithm 3 (pave each factor's
//! sub-domain with ICP, then run stratified hit-or-miss Monte Carlo per
//! Eq. 3). [`Analyzer::analyze_iterative`] runs the same pipeline with a
//! variance-driven sampling schedule.
//!
//! # Threads and determinism
//!
//! Both entry points find every factor occurrence of every path
//! condition and deduplicate them before any sampling, then quantify
//! the distinct factors (independent estimators: Eq. 7–8 multiplies
//! them within a path condition, Theorem 1 adds the path conditions),
//! their strata and their sample chunks in index order, on the thread
//! that calls them. Concurrency lives one level up: a server runs
//! independent analyses on its worker threads, which may share one
//! [`PavingCache`] and one [`FactorStore`].
//!
//! Every random stream is derived from *what* is being sampled — the
//! canonical factor key or the `(pc, factor)` index pair, plus the
//! stratum and chunk counters — never from when it runs. Combined with
//! fixed reduction orders, a repeat of an analysis on a fresh analyzer
//! returns the bit-identical [`Report`], counters included, and a shared
//! cache or store can change which counters say "hit" but never an
//! estimate. No counter depends on what other analyzers in the process
//! ran: each run compiles its own tapes, and the analyzer's paving cache
//! is counted per lookup.

use std::sync::Arc;
use std::time::Duration;

use qcoral_obs::{Trace, TraceData};
use serde::{Deserialize, Serialize};

use qcoral_constraints::{ConstraintSet, Domain};
use qcoral_icp::{PaverConfig, PavingCache};
use qcoral_interval::IntervalBox;
use qcoral_mc::{Allocation, Deadline, Dist, Estimate, SamplePlan, UsageProfile};

use crate::engine::{self, Schedule};
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
    /// Deduplicate factors across path conditions by canonical key and
    /// exchange their estimates with an attached [`FactorStore`] (the
    /// caching half of the paper's `PARTCACHE`): a factor shared by
    /// several path conditions is paved and sampled once per run, on
    /// streams seeded from its key. Off, every `(pc, factor)` occurrence
    /// is sampled on its own streams, seeded from that index pair, and
    /// no store is consulted. Both entry points follow the same rule.
    /// Meant for use with `partition`.
    pub cache: bool,
    /// Sample allocation across strata (paper: equal per stratum).
    /// [`Allocation::ImportanceAdaptive`] additionally arms rare-event
    /// escalation: a factor whose stratified pilot round *estimates* a
    /// probability strictly below [`qcoral_mc::IS_THRESHOLD`] (exact
    /// mass plus weighted boundary hit rate — the raw conditional hit
    /// rate is no rarity signal, because boundary strata hug the
    /// constraint surface) switches its boundary-region budget to the
    /// paver-seeded adaptive importance-sampling engine
    /// ([`qcoral_mc::IsEstimator`]); at or above it the factor stays
    /// stratified.
    pub allocation: Allocation,
    /// ICP paver budget (paper defaults: 10 boxes, 3 digits).
    pub paver: PaverConfig,
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
    /// Excluded from both sampling fingerprints (like `deadline_ms`) —
    /// tracing never changes which streams are drawn, so warm factor
    /// stores stay warm.
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
            paver: PaverConfig::default(),
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
    /// importance-sampling escalation (see [`Options::allocation`]).
    pub fn with_allocation(mut self, allocation: Allocation) -> Options {
        self.allocation = allocation;
        self
    }

    /// Has no effect: an analysis runs on the thread that calls it, and
    /// concurrency comes from running analyses side by side.
    #[deprecated(note = "analyses always run on the calling thread; remove the call")]
    pub fn with_parallel(self, _parallel: bool) -> Options {
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
    /// sample budget, seed, stratification, allocation and the paver
    /// limits. Keys the [`FactorStore`].
    ///
    /// The hash is an explicitly pinned FNV-1a fold (not
    /// `DefaultHasher`, whose algorithm may change between Rust
    /// releases): the value is persisted in factor-store snapshots, so
    /// it must match across processes *and* toolchains or every restart
    /// would silently start cold. Retired knobs keep their word, folded
    /// from the constant that replaced them, so every key stays as it
    /// was.
    pub fn sampling_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for word in [
            self.samples,
            self.seed,
            SamplePlan::DEFAULT_CHUNK,
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
            // The retired paver time budget's default, 2 s in ns.
            2_000_000_000,
            qcoral_icp::MAX_PASSES as u64,
        ] {
            h = fnv_fold(h, word);
        }
        // IS-only bits, folded conditionally: every configuration that
        // existed before the rare-event engine keeps its exact historic
        // fingerprint (uniform keys unchanged, warm stores stay warm),
        // while IS runs key on everything that shapes their streams.
        if self.allocation == Allocation::ImportanceAdaptive {
            h = fnv_fold(h, qcoral_mc::IS_THRESHOLD.to_bits());
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
        // Unstratified factors moved their one stratum onto the factor's
        // own stream (the one-shot hit-or-miss stream), so their stale
        // entries go cold; stratified keys stay as they were.
        if !self.stratified {
            h = fnv_fold(h, WHOLE_BOX_TAG);
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
    /// Partition-cache hits (Algorithm 2): factor occurrences answered by
    /// an earlier occurrence of the same canonical factor in this run
    /// (occurrences minus distinct factors). 0 when [`Options::cache`]
    /// is off.
    pub cache_hits: u64,
    /// Partition-cache misses: the distinct factors of the run, each
    /// prepared and sampled once. 0 when [`Options::cache`] is off.
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
    /// Prepared factors whose conjunction an earlier factor of this
    /// analysis had already compiled. An analysis
    /// compiles each distinct conjunction at most once and keeps no tape
    /// past its end, so the count depends on the analysis alone.
    pub tape_cache_hits: u64,
    /// Conjunctions this analysis compiled: one per distinct conjunction
    /// among its prepared factors.
    pub tape_cache_misses: u64,
    /// Cross-run factor-store hits: factors answered from a
    /// [`FactorStore`] without paving or sampling anything.
    pub factor_store_hits: u64,
    /// Cross-run factor-store misses (0 when no store is attached).
    pub factor_store_misses: u64,
    /// Monte Carlo sampling budget charged, across all sampled factors.
    /// Both entry points charge the sample counts they hand to
    /// stratified refinement and to importance-sampling rounds (the IS
    /// pilot included): what the allocation spends, not
    /// [`Options::samples`] per factor. A factor answered from a cache,
    /// proven unsat, or whose strata are all exact charges nothing, so
    /// zero means no RNG was touched.
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
    /// strata) fell below [`qcoral_mc::IS_THRESHOLD`] and whose proposal
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
    /// consulted before a factor is paved and sampled,
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
    /// enabled, factor estimates are looked up there before paving and
    /// deposited there after sampling. Store hits return
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
    /// bounded `domain` (Algorithm 1), spending [`Options::samples`] on
    /// each distinct factor. Returns the combined estimate, the per-PC
    /// breakdown and counters.
    ///
    /// # Panics
    ///
    /// Panics if the constraint set references variables outside `domain`
    /// or if `profile.len() != domain.len()`.
    pub fn analyze(&self, cs: &ConstraintSet, domain: &Domain, profile: &UsageProfile) -> Report {
        engine::run(self, cs, domain, profile, Schedule::OneShot)
    }

    /// Iterative, variance-driven quantification: round 1 spends
    /// [`Options::samples`] per factor like `analyze`, then each further
    /// round places [`Options::round_budget`] where the variance lives,
    /// until the composed standard error reaches
    /// [`Options::target_stderr`] or [`Options::max_rounds`] is
    /// exhausted. [`Stats::rounds`], [`Stats::refine_samples`] and
    /// [`Stats::target_met`] record the trajectory.
    ///
    /// After a round the analyzer knows where the variance lives, at the
    /// three levels of the paper's composition — disjoint estimators add
    /// (Theorem 1), independent factors multiply (Eq. 7–8) and strata
    /// combine by Eq. 3:
    ///
    /// 1. **Across path conditions**: a round's budget is split across
    ///    PCs proportional to their variance contribution to the sum.
    /// 2. **Across factors**: each PC spends its share on the factor with
    ///    the largest *exact* contribution to the PC product's variance
    ///    (`varⱼ · Π_{i≠j}(meanᵢ² + varᵢ)`). A factor shared by several
    ///    PCs pools their shares and is refined once.
    /// 3. **Across strata**: within that factor the share is placed
    ///    Neyman-style, proportional to `weight × stddev`
    ///    ([`qcoral_mc::neyman_allocation`]); strata that turned out
    ///    exact receive nothing further.
    ///
    /// The loop also stops when no factor can absorb budget (everything
    /// exact or frozen). With [`Options::cache`] set, factors are
    /// deduplicated by canonical key and final estimates are exchanged
    /// with the attached [`FactorStore`] under
    /// [`Options::iterative_fingerprint`], so a warm repeat answers every
    /// factor from the store and recomposes bit-identically with zero
    /// pavings and samples. A *partially* warm store can allocate
    /// refinement differently than the cold run did (frozen factors
    /// expose their final variances, not their round-by-round ones), so
    /// fresh factors may converge to different — equally valid —
    /// estimates; first-write-wins inserts keep whichever landed first.
    ///
    /// # Rare events
    ///
    /// Eq. 2's estimator reports variance `p̂(1−p̂)/n`, which is **zero**
    /// at `p̂ ∈ {0, 1}`: a stratum whose samples all missed (or all hit)
    /// looks exact, gets no further samples and no longer holds the
    /// composed standard error above the target. On a stratum whose true
    /// probability is far below `1/round-1-samples`, the run can report
    /// `target_met` while carrying a bias of up to roughly `3/n` of that
    /// stratum's weight at 95% confidence. Either size
    /// [`Options::samples`] so round 1 can see the event, or select
    /// [`Allocation::ImportanceAdaptive`]: after round 1, a factor whose
    /// estimate fell below [`qcoral_mc::IS_THRESHOLD`] pilots a
    /// paver-seeded [`qcoral_mc::IsEstimator`] with another `samples`,
    /// and each further round adapts that proposal instead of re-running
    /// Neyman. A pilot with zero hits falls back to stratified sampling
    /// deterministically, flagged in [`Stats::is_fallbacks`].
    /// [`Options::iterative_worst_case`] bounds what one factor can draw.
    ///
    /// # Panics
    ///
    /// Panics if the constraint set references variables outside
    /// `domain` or if `profile.len() != domain.len()` (as `analyze`).
    pub fn analyze_iterative(
        &self,
        cs: &ConstraintSet,
        domain: &Domain,
        profile: &UsageProfile,
    ) -> Report {
        engine::run(self, cs, domain, profile, Schedule::Iterative)
    }
}

/// Canonical cache identity of one independent factor: structural
/// fingerprint of the conjunction (linear in DAG size — never a rendered
/// tree), the exact sub-box bits, and the projected marginals (with the
/// discretization ε, where it shapes the estimate) — the estimate
/// depends on all three.
pub(crate) fn factor_key(
    fingerprint: u128,
    sub_box: &IntervalBox,
    projected: &UsageProfile,
    epsilon: f64,
) -> FactorKey {
    (
        fingerprint,
        sub_box
            .dims()
            .iter()
            .map(|d| (d.lo().to_bits(), d.hi().to_bits()))
            .collect::<Vec<_>>(),
        profile_bits(projected, epsilon),
    )
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Domain-separation word folded into [`Options::iterative_fingerprint`].
const ITERATIVE_TAG: u64 = 0x17E2_A71F_ADA9_71FE;

/// Folded into [`Options::iterative_fingerprint`] for unstratified runs.
const WHOLE_BOX_TAG: u64 = 0x0B0C_5EED_0000_0001;

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
    use qcoral_mc::mix_seed;

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

    /// Option fingerprints key every persisted factor-store entry, so a
    /// change here silently cold-starts every warm store. Retired knobs
    /// keep their word (see `sampling_fingerprint`).
    #[test]
    fn option_fingerprints_are_pinned() {
        let default = Options::default();
        assert_eq!(default.sampling_fingerprint(), 0x9e7e_b97b_7991_8ca4);
        assert_eq!(default.iterative_fingerprint(), 0xfd98_9aae_bdb2_b8e2);
        let rare = Options::default().with_allocation(Allocation::ImportanceAdaptive);
        assert_eq!(rare.sampling_fingerprint(), 0x153b_c855_8329_2d69);
        assert_eq!(rare.iterative_fingerprint(), 0x278d_7b90_8010_9e6f);
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
        // analysis on the same analyzer hits for every factor. Both
        // schedules treat `cache = false` alike: no deduplication.
        let sys = parse_system(
            "var x in [0, 1]; var y in [0, 1];
             pc x < 0.5 && sin(y) > 0.5;
             pc x >= 0.5 && sin(y) > 0.5;",
        )
        .unwrap();
        let prof = UsageProfile::uniform(2);
        let mut opts = Options::strat().with_samples(1_000);
        opts.partition = true;
        type Entry = fn(&Analyzer, &ConstraintSet, &Domain, &UsageProfile) -> Report;
        for run in [Analyzer::analyze as Entry, Analyzer::analyze_iterative] {
            let analyzer = Analyzer::new(opts.clone());
            let r = run(&analyzer, &sys.constraint_set, &sys.domain, &prof);
            assert_eq!(r.stats.pavings, 4, "two factors per PC requested");
            assert_eq!(r.stats.paving_cache_misses, 3, "x<.5, x>=.5, sin(y)");
            assert_eq!(r.stats.paving_cache_hits, 1, "second sin(y) reuses");
            assert_eq!(r.stats.cache_hits, 0, "no estimate cache");
            let r2 = run(&analyzer, &sys.constraint_set, &sys.domain, &prof);
            assert_eq!(r2.stats.paving_cache_hits, 4);
            assert_eq!(r2.stats.paving_cache_misses, 0);
            assert_eq!(r.estimate, r2.estimate);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (cs, dom, prof) = paper_system();
        let opts = Options::strat_partcache().with_samples(5_000).with_seed(7);
        let a = Analyzer::new(opts.clone()).analyze(&cs, &dom, &prof);
        let b = Analyzer::new(opts).analyze(&cs, &dom, &prof);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.per_pc, b.per_pc);
        assert_eq!(a.stats, b.stats);
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
        // Each analysis compiles its own tapes, so the first analysis
        // compiles the factor's conjunction (one miss) and a repeat on a
        // fresh analyzer compiles it again, whatever else ran before.
        let sys = parse_system(
            "var x in [0, 1]; pc sin(x * 0.123456789) > 0.987654321 && x < 0.3141592;",
        )
        .unwrap();
        let prof = UsageProfile::uniform(1);
        let opts = Options::strat().with_samples(200);
        let r1 = Analyzer::new(opts.clone()).analyze(&sys.constraint_set, &sys.domain, &prof);
        assert_eq!(
            (r1.stats.tape_cache_hits, r1.stats.tape_cache_misses),
            (0, 1),
            "first compile misses: {:?}",
            r1.stats
        );
        let r2 = Analyzer::new(opts).analyze(&sys.constraint_set, &sys.domain, &prof);
        assert_eq!(r2.stats, r1.stats, "a repeat compiles again");
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
