//! The quantification engine behind [`Analyzer::analyze`] and
//! [`Analyzer::analyze_iterative`]: the paper's Algorithms 1–3 as one
//! pipeline with two sampling schedules.
//!
//! 1. **Discovery.** Each path condition is split along the variable
//!    partition (Algorithm 2); every non-empty projection is a factor
//!    occurrence. Occurrences are deduplicated into *slots* before any
//!    fan-out: with [`Options::cache`] on, by canonical factor key (the
//!    slot's streams are seeded from the key); with it off, one slot per
//!    `(pc, factor)` occurrence (seeded from the index pair). Two path
//!    conditions therefore never race on one factor.
//!    Discovery fingerprints each occurrence's conjunction once; the
//!    fingerprint keys the factor and the paving, and numbers the run's
//!    distinct conjunctions.
//! 2. **Prep**, once per slot, in order: factor-store lookup, deadline
//!    check, the conjunction's tape (compiled by the first of its slots
//!    to get there, reused by the rest), paving over that tape
//!    (Algorithm 3), profile-aligned [`Strata`], and — only
//!    for factors with strata left to sample — the columnar tape. An
//!    unstratified factor is [`Strata::whole`]: one stratum of weight
//!    exactly 1 covering its sub-box, sampled on the factor's own
//!    stream.
//! 3. **Sampling** by one of two schedules, over the same [`Factor`]
//!    state and its two moves, [`Factor::refine`] and
//!    [`Factor::escalate`]:
//!    * one-shot spends [`Options::samples`] per factor by its
//!      [`Allocation`] (see [`Run::sample_once`]). Each slot is prepared,
//!      sampled and deposited in one fan-out step, so only the strata of
//!      the slots in flight are alive at a time;
//!    * iterative prepares every slot, samples round 1, escalates rare
//!      factors to importance sampling, then refines round by round
//!      (see [`Run::iterative`]).
//! 4. **Composition.** Each PC's factor estimates multiply (Eq. 7–8) and
//!    the PCs add (Theorem 1), both in fixed order. Estimates are
//!    deposited in the factor store — one-shot right after the slot
//!    samples, iterative after its last round — never once the deadline
//!    has passed.
//! 5. **Counters.** [`Stats`] is the sum of per-slot counts plus the
//!    iterative schedule's round counts. Both schedules charge
//!    [`Stats::samples_drawn`] with the counts they hand to
//!    [`Factor::refine`] and [`Factor::escalate`].
//!
//! Every stream derives from the slot seed plus stratum and chunk
//! counters, and every decision from deterministic estimates, so a
//! parallel run matches the serial one bit for bit, counters included.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use qcoral_obs::trace::{arg, SpanArg};
use qcoral_obs::Trace;
use rayon::prelude::*;

use qcoral_constraints::{ConstraintSet, Domain, PathCondition, VarId, VarSet};
use qcoral_icp::{domain_box, PavingCache};
use qcoral_interval::IntervalBox;
use qcoral_mc::{
    align_strata, initial_allocation, mix_seed, neyman_allocation, proportional_split, Allocation,
    Deadline, Estimate, IsEstimator, SamplePlan, Strata, Stratum, UsageProfile, IS_THRESHOLD,
};

use crate::analyzer::{factor_key, hash_key, Analyzer, Options, Report, Stats};
use crate::bulkpred::CompiledPred;
use crate::depend::dependency_partition;
use crate::factor_store::{FactorKey, FactorStore};

/// Ceiling on profile-aligned sub-strata per paving stratum (see
/// [`qcoral_mc::align_strata`]): bounds stratification fan-out on peaked
/// profiles while leaving plenty of room for mass-resolved allocation.
const ALIGN_CAP: usize = 64;

/// Sub-stream tag of a factor's importance-sampling chunk stream: far
/// outside the small stratum indices ([`SamplePlan::substream`] per
/// stratum), so IS draws never collide with stratified ones.
const IS_STREAM: u64 = 0x15AD_AB0C_5EED_0001;

/// Adaptation rounds the one-shot schedule gives the IS proposal (the
/// iterative schedule adapts once per refinement round instead).
const IS_ROUNDS: u64 = 4;

/// How the engine spends its sample budget.
#[derive(Clone, Copy)]
pub(crate) enum Schedule {
    /// [`Analyzer::analyze`]: a fixed budget per factor.
    OneShot,
    /// [`Analyzer::analyze_iterative`]: variance-driven rounds.
    Iterative,
}

impl Options {
    /// The most samples [`Analyzer::analyze_iterative`] can spend on one
    /// factor: [`Options::samples`] in round 1, another `samples` on the
    /// importance-sampling pilot under
    /// [`Allocation::ImportanceAdaptive`], and the whole
    /// [`Options::round_budget`] in each further round. Servers bound
    /// iterative requests by it.
    pub fn iterative_worst_case(&self) -> u64 {
        let pilot = match self.allocation {
            Allocation::ImportanceAdaptive => self.samples,
            _ => 0,
        };
        let refinement = self.max_rounds.max(1) - 1;
        self.samples
            .saturating_add(pilot)
            .saturating_add(refinement.saturating_mul(self.round_budget))
    }
}

/// One distinct factor of the run.
struct Slot {
    /// Canonical key, exchanged with the factor store; `None` when
    /// [`Options::cache`] is off and the slot is a single occurrence.
    key: Option<FactorKey>,
    /// The factor's conjunction over dense local variables.
    local_pc: PathCondition,
    /// `local_pc.fingerprint()`.
    fingerprint: u128,
    /// Index of the conjunction among the run's distinct fingerprints.
    tape: usize,
    /// The factor's projected domain box.
    sub_box: IntervalBox,
    /// Global indices of the factor's variables.
    indices: Vec<usize>,
    /// Base seed of the factor's sample streams.
    seed: u64,
}

/// A factor with strata left to sample: the state both schedules refine.
struct Factor {
    pred: Arc<CompiledPred>,
    profile: UsageProfile,
    /// The factor's sub-box, the importance sampler's support universe.
    sub_box: IntervalBox,
    strata: Strata,
    /// Set once the factor escalated to importance sampling; from then on
    /// refinement advances the proposal instead of the strata.
    is: Option<IsEstimator>,
    plan: SamplePlan,
}

impl Factor {
    /// The strata's Eq. 3 estimate, or their exact mass plus the IS
    /// boundary estimate once escalated.
    fn estimate(&self) -> Estimate {
        match &self.is {
            Some(is) => self.strata.exact().sum(is.estimate()),
            None => self.strata.estimate(),
        }
    }

    /// Spends `counts[j]` more samples on stratum `j`; once escalated,
    /// one adaptation round of the IS engine takes the summed budget.
    /// Returns the samples spent.
    fn refine(&mut self, counts: &[u64]) -> u64 {
        let budget = counts.iter().sum();
        match &mut self.is {
            Some(is) => {
                is.round(&*self.pred, budget, self.plan.substream(IS_STREAM));
            }
            None => self.strata.refine(&*self.pred, &self.profile, counts),
        }
        budget
    }

    /// Seeds a paver-based importance sampler from the sampled strata
    /// and pilots it with `budget` samples. Returns the samples spent and
    /// whether the sampler was installed: a proposal the geometry cannot
    /// seed (nothing spent) or whose pilot finds no hits is the
    /// deterministic fallback, and the factor stays stratified.
    fn escalate(&mut self, budget: u64) -> (u64, bool) {
        let boxes = self.strata.boxes();
        let Some(mut is) = IsEstimator::seeded(&boxes, &self.profile, &self.sub_box) else {
            return (0, false);
        };
        let pilot = is.round(&*self.pred, budget, self.plan.substream(IS_STREAM));
        let hit = pilot.hits > 0;
        if hit {
            self.is = Some(is);
        }
        (budget, hit)
    }
}

/// What prep made of a slot.
enum Prepared {
    /// Nothing to sample: a store hit, a slot skipped past the deadline,
    /// an unsat paving, or strata that are all exact.
    Done(Estimate),
    /// Strata left to sample.
    Live(Box<Factor>),
}

impl Prepared {
    fn estimate(&self) -> Estimate {
        match self {
            Prepared::Done(estimate) => *estimate,
            Prepared::Live(f) => f.estimate(),
        }
    }

    /// The `outcome` argument of the slot's `factor` span.
    fn outcome(&self, tally: &Stats) -> &'static str {
        match self {
            Prepared::Live(_) => "sampled",
            Prepared::Done(_) if tally.factor_store_hits > 0 => "factor_store",
            Prepared::Done(_) => "exact",
        }
    }
}

/// One run's fixed inputs.
struct Run<'a> {
    opts: &'a Options,
    profile: &'a UsageProfile,
    paving_cache: &'a PavingCache,
    /// The factor store, when [`Options::cache`] lets the run use one.
    store: Option<&'a FactorStore>,
    /// The schedule's store fingerprint.
    fp: u64,
    deadline: Option<Deadline>,
    trace: Option<&'a Trace>,
    /// One compiled tape per distinct conjunction, set by its first slot.
    tapes: Vec<OnceLock<Arc<CompiledPred>>>,
}

/// Runs both entry points: discovery, the schedule, composition and the
/// report.
pub(crate) fn run(
    analyzer: &Analyzer,
    cs: &ConstraintSet,
    domain: &Domain,
    profile: &UsageProfile,
    schedule: Schedule,
) -> Report {
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
    let trace = analyzer.run_trace();
    let trace_t0 = qcoral_obs::trace::span_start(&trace);
    let opts = &analyzer.opts;
    let (slots, pc_slots, occurrences, conjunctions) =
        discover(opts, cs, &domain_box(domain), profile);
    let run = Run {
        opts,
        profile,
        paving_cache: &analyzer.paving_cache,
        store: analyzer.factor_store.as_deref().filter(|_| opts.cache),
        fp: match schedule {
            Schedule::OneShot => opts.sampling_fingerprint(),
            Schedule::Iterative => opts.iterative_fingerprint(),
        },
        deadline: analyzer.effective_deadline(),
        trace: trace.as_deref(),
        tapes: (0..conjunctions).map(|_| OnceLock::new()).collect(),
    };
    let mut stats = Stats::default();
    let estimates = match schedule {
        Schedule::OneShot => run.one_shot(&slots, &mut stats),
        Schedule::Iterative => run.iterative(&slots, &pc_slots, &mut stats),
    };
    let (per_pc, estimate) = compose(&pc_slots, &estimates);
    if opts.cache {
        stats.cache_misses = slots.len() as u64;
        stats.cache_hits = occurrences - stats.cache_misses;
    }
    stats.deadline_exceeded = run.expired();
    stats.backend = crate::bulkpred::active_backend().to_string();
    if let Some(t) = &trace {
        let name = match schedule {
            Schedule::OneShot => "analyze",
            Schedule::Iterative => "analyze_iterative",
        };
        t.record(
            name,
            "core",
            trace_t0,
            vec![
                arg("pcs", per_pc.len()),
                arg("rounds", stats.rounds),
                arg("samples_drawn", stats.samples_drawn),
            ],
        );
    }
    Report {
        estimate,
        per_pc,
        stats,
        wall: start.elapsed(),
        trace: trace.map(|t| t.take()),
    }
}

/// The variable partition Algorithm 2 factors each conjunction along:
/// the dependency partition when [`Options::partition`] is set, one
/// whole-domain class otherwise. Classes are normalized to full-domain
/// capacity (`FromIterator for VarSet` sizes to the max index, which the
/// empty-domain edge case trips over).
fn normalized_partition(opts: &Options, cs: &ConstraintSet, nvars: usize) -> Vec<VarSet> {
    let partition = if opts.partition {
        dependency_partition(cs, nvars)
    } else {
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

/// Discovery: the run's slots, each PC's slot list in partition order,
/// the number of factor occurrences and the number of distinct
/// conjunctions. A class no constraint of a PC touches contributes
/// exactly 1 and is skipped.
fn discover(
    opts: &Options,
    cs: &ConstraintSet,
    dbox: &IntervalBox,
    profile: &UsageProfile,
) -> (Vec<Slot>, Vec<Vec<usize>>, u64, usize) {
    let partition = normalized_partition(opts, cs, dbox.ndim());
    let mut slots: Vec<Slot> = Vec::new();
    let mut slot_of: HashMap<FactorKey, usize> = HashMap::new();
    let mut tape_of: HashMap<u128, usize> = HashMap::new();
    let mut occurrences = 0u64;
    let mut pc_slots = Vec::with_capacity(cs.len());
    for (pc_idx, pc) in cs.pcs().iter().enumerate() {
        let mut mine = Vec::new();
        for (factor_idx, class) in partition.iter().enumerate() {
            let part = pc.project(class);
            if part.is_empty() {
                continue;
            }
            occurrences += 1;
            // Re-index onto a dense local variable space aligned with the
            // projected box.
            let indices = class.indices();
            let local_of: HashMap<u32, u32> = indices
                .iter()
                .enumerate()
                .map(|(local, &global)| (global as u32, local as u32))
                .collect();
            let local_pc = part.remap_vars(&|v: VarId| VarId(local_of[&v.0]));
            let fingerprint = local_pc.fingerprint();
            let next = tape_of.len();
            let tape = *tape_of.entry(fingerprint).or_insert(next);
            let sub_box = dbox.project(&indices);
            if !opts.cache {
                mine.push(slots.len());
                slots.push(Slot {
                    key: None,
                    local_pc,
                    fingerprint,
                    tape,
                    sub_box,
                    indices,
                    seed: mix_seed(opts.seed, (pc_idx as u64) << 32 | factor_idx as u64),
                });
                continue;
            }
            let key = factor_key(
                fingerprint,
                &sub_box,
                &profile.project(&indices),
                opts.profile_epsilon,
            );
            let j = match slot_of.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    // Key-derived seed: identical sub-problems produce
                    // identical estimates in any PC, run or process.
                    slots.push(Slot {
                        key: Some(e.key().clone()),
                        local_pc,
                        fingerprint,
                        tape,
                        sub_box,
                        indices,
                        seed: mix_seed(opts.seed, hash_key(e.key())),
                    });
                    *e.insert(slots.len() - 1)
                }
            };
            mine.push(j);
        }
        pc_slots.push(mine);
    }
    (slots, pc_slots, occurrences, tape_of.len())
}

/// Eq. 7–8 within each PC, then Theorem 1 across PCs, in fixed order.
fn compose(pc_slots: &[Vec<usize>], estimates: &[Estimate]) -> (Vec<Estimate>, Estimate) {
    let per_pc: Vec<Estimate> = pc_slots
        .iter()
        .map(|mine| {
            mine.iter()
                .fold(Estimate::ONE, |acc, &j| acc.product(estimates[j]))
        })
        .collect();
    let total = per_pc.iter().fold(Estimate::ZERO, |acc, e| acc.sum(*e));
    (per_pc, total)
}

/// Maps `items` through `f` in order, fanned out across threads under
/// `parallel`.
fn fan_out<T: Send, R: Send>(items: Vec<T>, parallel: bool, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if parallel && items.len() > 1 {
        items.into_par_iter().map(f).collect()
    } else {
        items.into_iter().map(f).collect()
    }
}

/// Refines each live factor `counts_of` assigns counts to, fanned out
/// under `parallel`. Returns the samples spent and the factors refined.
fn refine_live(
    states: &mut [Prepared],
    parallel: bool,
    counts_of: impl Fn(usize, &Factor) -> Option<Vec<u64>>,
) -> (u64, usize) {
    let jobs: Vec<(&mut Factor, Vec<u64>)> = states
        .iter_mut()
        .enumerate()
        .filter_map(|(j, state)| match state {
            Prepared::Live(f) => {
                let counts = counts_of(j, f)?;
                Some((&mut **f, counts))
            }
            Prepared::Done(_) => None,
        })
        .collect();
    let factors = jobs.len();
    let spent = fan_out(jobs, parallel, |(f, counts)| f.refine(&counts));
    (spent.iter().sum(), factors)
}

/// Adds one slot's counts to the run's.
fn add(stats: &mut Stats, slot: &Stats) {
    stats.factor_store_hits += slot.factor_store_hits;
    stats.factor_store_misses += slot.factor_store_misses;
    stats.pavings += slot.pavings;
    stats.paving_cache_hits += slot.paving_cache_hits;
    stats.paving_cache_misses += slot.paving_cache_misses;
    stats.inner_boxes += slot.inner_boxes;
    stats.boundary_boxes += slot.boundary_boxes;
    stats.samples_drawn += slot.samples_drawn;
    stats.is_factors += slot.is_factors;
    stats.is_fallbacks += slot.is_fallbacks;
    stats.tape_cache_hits += slot.tape_cache_hits;
    stats.tape_cache_misses += slot.tape_cache_misses;
}

impl Run<'_> {
    /// Whether the run's deadline (if any) has passed. Expiry is
    /// monotonic, so a late check also answers for every earlier point.
    fn expired(&self) -> bool {
        self.deadline.is_some_and(Deadline::expired)
    }

    /// Start time of a span (0 when not tracing).
    fn now(&self) -> u64 {
        self.trace.map_or(0, Trace::now_us)
    }

    /// Records a span when tracing; `args` is only built then.
    fn record(&self, name: &str, cat: &str, start: u64, args: impl FnOnce() -> Vec<SpanArg>) {
        if let Some(t) = self.trace {
            t.record(name, cat, start, args());
        }
    }

    /// Prep of one slot, counting into `tally`: store lookup, deadline
    /// check, the conjunction's tape, paving, strata, then the columnar
    /// tape for factors that sample.
    fn prepare(&self, slot: &Slot, tally: &mut Stats) -> Prepared {
        if let (Some(store), Some(key)) = (self.store, &slot.key) {
            if let Some(e) = store.get(self.fp, key) {
                tally.factor_store_hits = 1;
                return Prepared::Done(e);
            }
            tally.factor_store_misses = 1;
        }
        // Past the deadline, skip the paving (a whole box budget of work)
        // and answer `0 ± 0`: a sound lower bound for the flagged partial
        // report.
        if self.expired() {
            return Prepared::Done(Estimate::ZERO);
        }
        let opts = self.opts;
        let profile = self.profile.project(&slot.indices);
        let plan = SamplePlan {
            seed: slot.seed,
            chunk: SamplePlan::DEFAULT_CHUNK,
            parallel: opts.parallel,
            deadline: self.deadline,
        };
        // The first slot of a conjunction compiles it; under `parallel`,
        // slots that arrive meanwhile wait for that compile and count as
        // hits, so the split does not depend on the thread schedule.
        let t0 = self.now();
        let mut hit = true;
        let pred = Arc::clone(self.tapes[slot.tape].get_or_init(|| {
            hit = false;
            Arc::new(CompiledPred::compile(&slot.local_pc))
        }));
        self.record("compile", "tape", t0, || {
            vec![
                arg("vars", slot.sub_box.dims().len()),
                arg("cache_hit", hit),
            ]
        });
        tally.tape_cache_hits = hit as u64;
        tally.tape_cache_misses = !hit as u64;
        let strata = if opts.stratified {
            // The paving cache is shared by analyzers and requests, so
            // each lookup is counted per call, never as a delta of its
            // totals.
            let t0 = self.now();
            let (paving, hit) = self.paving_cache.pave_cached(
                slot.fingerprint,
                pred.scalar(),
                &slot.sub_box,
                &opts.paver,
            );
            self.record("paving", "icp", t0, || {
                vec![
                    arg("inner", paving.inner.len()),
                    arg("boundary", paving.boundary.len()),
                    arg("cache_hit", hit),
                ]
            });
            tally.pavings = 1;
            tally.paving_cache_hits = hit as u64;
            tally.paving_cache_misses = !hit as u64;
            tally.inner_boxes = paving.inner.len() as u64;
            tally.boundary_boxes = paving.boundary.len() as u64;
            if paving.is_unsat() {
                return Prepared::Done(Estimate::ZERO);
            }
            let paved: Vec<Stratum> = paving
                .inner
                .iter()
                .cloned()
                .map(Stratum::inner)
                .chain(paving.boundary.iter().cloned().map(Stratum::boundary))
                .collect();
            // Profile-aligned stratification: boundary strata are sliced
            // along the discretized profile's mass edges, so weights (and
            // proportional or Neyman allocation) follow probability mass.
            // A no-op under uniform profiles.
            let aligned = align_strata(
                paved,
                &profile,
                &slot.sub_box,
                opts.profile_epsilon,
                ALIGN_CAP,
            );
            Strata::new(aligned, &profile, &slot.sub_box, plan)
        } else {
            // Plain hit-or-miss (Eq. 2) over the whole sub-box.
            Strata::whole(slot.sub_box.clone(), plan)
        };
        if strata.is_empty() {
            return Prepared::Done(strata.exact());
        }
        // The columnar tape evaluates whole sample blocks per instruction,
        // with the same samples, hits and estimates as the scalar tape.
        // The first factor of the conjunction that samples builds it.
        let t0 = self.now();
        pred.bulk();
        self.record("compile", "tape", t0, || {
            vec![arg("vars", slot.sub_box.dims().len()), arg("kind", "bulk")]
        });
        Prepared::Live(Box::new(Factor {
            pred,
            profile,
            sub_box: slot.sub_box.clone(),
            strata,
            is: None,
            plan,
        }))
    }

    /// Deposits a slot's estimate in the factor store — unless the
    /// deadline has passed, since a truncated estimate must never
    /// masquerade as the full-budget, reproducible one for its key.
    fn deposit(&self, slot: &Slot, estimate: Estimate) {
        if let (Some(store), Some(key)) = (self.store, &slot.key) {
            if !self.expired() {
                store.insert(self.fp, key.clone(), estimate);
            }
        }
    }

    /// The one-shot schedule: each slot is prepared, sampled and
    /// deposited in one fan-out step.
    fn one_shot(&self, slots: &[Slot], stats: &mut Stats) -> Vec<Estimate> {
        let step = |(j, slot): (usize, &Slot)| -> (Estimate, Stats) {
            let t0 = self.now();
            let mut tally = Stats::default();
            let prepared = self.prepare(slot, &mut tally);
            let outcome = prepared.outcome(&tally);
            let estimate = match prepared {
                Prepared::Done(estimate) => estimate,
                Prepared::Live(mut f) => {
                    let t = self.now();
                    self.sample_once(&mut f, &mut tally);
                    self.record("sample", "sampling", t, || {
                        vec![
                            arg("strata", f.strata.len()),
                            arg("budget", self.opts.samples),
                        ]
                    });
                    f.estimate()
                }
            };
            if tally.factor_store_hits == 0 {
                self.deposit(slot, estimate);
            }
            self.record("factor", "core", t0, || {
                vec![arg("slot", j), arg("outcome", outcome)]
            });
            (estimate, tally)
        };
        let done = fan_out(slots.iter().enumerate().collect(), self.opts.parallel, step);
        let mut estimates = Vec::with_capacity(done.len());
        for (estimate, tally) in done {
            add(stats, &tally);
            estimates.push(estimate);
        }
        estimates
    }

    /// One-shot sampling of one factor, [`Options::samples`] split by the
    /// allocation:
    ///
    /// * `EqualPerStratum` and `Proportional`: one
    ///   [`initial_allocation`] pass.
    /// * `VarianceAdaptive`: an equal-split pilot over half the budget,
    ///   then the rest by [`neyman_allocation`].
    /// * `ImportanceAdaptive`: an equal-split pilot over a quarter of the
    ///   budget. A factor whose pilot *estimate* falls below
    ///   [`IS_THRESHOLD`] hands the rest to [`IS_ROUNDS`]
    ///   importance-sampling rounds; otherwise — or when the IS pilot
    ///   round finds no hits — the rest follows Neyman.
    ///
    /// Unstratified factors spend the budget in one pass.
    fn sample_once(&self, f: &mut Factor, tally: &mut Stats) {
        let total = self.opts.samples;
        let weights = f.strata.weights();
        let allocation = match self.opts.stratified {
            true => self.opts.allocation,
            false => Allocation::EqualPerStratum,
        };
        if matches!(
            allocation,
            Allocation::EqualPerStratum | Allocation::Proportional
        ) {
            tally.samples_drawn += f.refine(&initial_allocation(allocation, total, &weights));
            return;
        }
        let pilot = match allocation {
            Allocation::ImportanceAdaptive => initial_allocation(allocation, total / 2, &weights),
            _ => initial_allocation(allocation, total, &weights),
        };
        tally.samples_drawn += f.refine(&pilot);
        let mut remaining = total.saturating_sub(pilot.iter().sum());
        if allocation == Allocation::ImportanceAdaptive {
            // The rarity signal is the pilot estimate, not the raw
            // conditional hit rate: boundary strata hug the constraint
            // surface, so their conditional rates are O(1) even for 1e-8
            // events — the rarity lives in the weights.
            let rare = f.strata.drawn() > 0 && f.strata.pilot_mean() < IS_THRESHOLD;
            if rare && remaining > 0 && !self.expired() {
                // `IS_ROUNDS − 1` equal warm-up rounds refine the
                // proposal, then a final round of half the IS budget
                // dominates the accumulator (equal splits leave each round
                // too small to see the heavy tail's top weights). The
                // opening round takes the warm-up remainder, so it is
                // never empty.
                let half = remaining / 2;
                let per = half / (IS_ROUNDS - 1);
                let opening = remaining - half - (IS_ROUNDS - 2) * per;
                let (spent, installed) = f.escalate(opening);
                tally.samples_drawn += spent;
                if installed {
                    for _ in 2..IS_ROUNDS {
                        tally.samples_drawn += f.refine(&[per]);
                    }
                    tally.samples_drawn += f.refine(&[half]);
                    tally.is_factors = 1;
                    return;
                }
                remaining -= spent;
                tally.is_fallbacks = 1;
            }
        }
        if remaining > 0 && !self.expired() {
            let follow = neyman_allocation(remaining, &weights, &f.strata.std_devs());
            tally.samples_drawn += f.refine(&follow);
        }
    }

    /// The iterative schedule. Every slot is prepared first, then:
    ///
    /// 1. round 1 spends [`Options::samples`] per factor, statically
    ///    allocated (`VarianceAdaptive` and `ImportanceAdaptive` pilot
    ///    with the equal split);
    /// 2. under `ImportanceAdaptive`, a factor whose round-1 estimate
    ///    fell below [`IS_THRESHOLD`] escalates, piloting its IS
    ///    proposal with another `samples`;
    /// 3. each further round splits [`Options::round_budget`] across PCs
    ///    by their variance, aims each share at the PC's factor with the
    ///    largest Eq. 7–8 variance contribution, and places it across
    ///    that factor's strata by Neyman allocation (an IS factor takes
    ///    it whole, as one adaptation round);
    ///
    /// until the composed standard error reaches the target, the round
    /// ceiling is reached, the deadline passes, or no factor can absorb
    /// budget. Charges the samples it allocates.
    fn iterative(
        &self,
        slots: &[Slot],
        pc_slots: &[Vec<usize>],
        stats: &mut Stats,
    ) -> Vec<Estimate> {
        let opts = self.opts;
        let prep = |(j, slot): (usize, &Slot)| -> (Prepared, Stats) {
            let t0 = self.now();
            let mut tally = Stats::default();
            let prepared = self.prepare(slot, &mut tally);
            self.record("factor", "core", t0, || {
                vec![arg("slot", j), arg("outcome", prepared.outcome(&tally))]
            });
            (prepared, tally)
        };
        let mut states = Vec::with_capacity(slots.len());
        for (prepared, tally) in fan_out(slots.iter().enumerate().collect(), opts.parallel, prep) {
            add(stats, &tally);
            states.push(prepared);
        }

        let round1 = match opts.allocation {
            Allocation::VarianceAdaptive | Allocation::ImportanceAdaptive => {
                Allocation::EqualPerStratum
            }
            a => a,
        };
        let t0 = self.now();
        let (spent, factors) = refine_live(&mut states, opts.parallel, |_, f| {
            Some(initial_allocation(
                round1,
                opts.samples,
                &f.strata.weights(),
            ))
        });
        stats.rounds = 1;
        stats.samples_drawn += spent;
        self.record("round", "sampling", t0, || {
            vec![
                arg("round", 1),
                arg("budget", spent),
                arg("factors", factors),
            ]
        });

        if opts.allocation == Allocation::ImportanceAdaptive && !self.expired() {
            let t0 = self.now();
            let rare: Vec<&mut Factor> = states
                .iter_mut()
                .filter_map(|state| match state {
                    Prepared::Live(f)
                        if f.strata.drawn() > 0 && f.estimate().mean < IS_THRESHOLD =>
                    {
                        Some(&mut **f)
                    }
                    _ => None,
                })
                .collect();
            let (mut escalated, mut pilot) = (0u64, 0u64);
            for (spent, installed) in fan_out(rare, opts.parallel, |f| f.escalate(opts.samples)) {
                pilot += spent;
                if installed {
                    escalated += 1;
                } else {
                    stats.is_fallbacks += 1;
                }
            }
            stats.samples_drawn += pilot;
            if escalated + stats.is_fallbacks > 0 {
                self.record("is_escalate", "sampling", t0, || {
                    vec![
                        arg("factors", escalated),
                        arg("fallbacks", stats.is_fallbacks),
                        arg("budget", pilot),
                    ]
                });
            }
        }

        let max_rounds = opts.max_rounds.max(1);
        loop {
            let estimates: Vec<Estimate> = states.iter().map(Prepared::estimate).collect();
            let (per_pc, total) = compose(pc_slots, &estimates);
            if opts
                .target_stderr
                .is_some_and(|t| total.variance.sqrt() <= t)
            {
                stats.target_met = true;
                break;
            }
            if stats.rounds >= max_rounds || self.expired() {
                break;
            }
            let pc_vars: Vec<f64> = per_pc.iter().map(|e| e.variance).collect();
            let shares = proportional_split(opts.round_budget, &pc_vars);
            let mut budget_for = vec![0u64; states.len()];
            for (mine, &share) in pc_slots.iter().zip(&shares) {
                if share == 0 {
                    continue;
                }
                let mut best: Option<(f64, usize)> = None;
                for (pos, &j) in mine.iter().enumerate() {
                    if !matches!(states[j], Prepared::Live(_)) || estimates[j].variance <= 0.0 {
                        continue;
                    }
                    // Factor j's exact share of the PC product's variance
                    // under Eq. 7–8: varⱼ · Π_{i≠j}(meanᵢ² + varᵢ).
                    // Occurrences are excluded by *position*: a canonical
                    // factor can appear twice in one PC, and only this
                    // occurrence leaves the product.
                    let others: f64 = mine
                        .iter()
                        .enumerate()
                        .filter(|&(p, _)| p != pos)
                        .map(|(_, &i)| {
                            estimates[i].mean * estimates[i].mean + estimates[i].variance
                        })
                        .product();
                    let score = estimates[j].variance * others;
                    if best.is_none_or(|(s, _)| score > s) {
                        best = Some((score, j));
                    }
                }
                if let Some((_, j)) = best {
                    budget_for[j] += share;
                }
            }
            let t0 = self.now();
            let (spent, factors) = refine_live(&mut states, opts.parallel, |j, f| {
                let b = budget_for[j];
                let counts = match f.is {
                    Some(_) => vec![b],
                    None => neyman_allocation(b, &f.strata.weights(), &f.strata.std_devs()),
                };
                counts.iter().any(|&c| c > 0).then_some(counts)
            });
            if factors == 0 {
                // Every stratum is exact or frozen: more rounds cannot help.
                break;
            }
            stats.rounds += 1;
            stats.samples_drawn += spent;
            stats.refine_samples += spent;
            self.record("round", "sampling", t0, || {
                vec![
                    arg("round", stats.rounds),
                    arg("budget", spent),
                    arg("factors", factors),
                    arg("stderr", total.variance.sqrt()),
                ]
            });
        }

        let estimates: Vec<Estimate> = states.iter().map(Prepared::estimate).collect();
        for (slot, &e) in slots.iter().zip(&estimates) {
            self.deposit(slot, e);
        }
        stats.is_factors = states
            .iter()
            .filter(|s| matches!(s, Prepared::Live(f) if f.is.is_some()))
            .count() as u64;
        estimates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;
    use qcoral_subjects::rare_subjects;

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
    fn converges_to_target_and_flags_it() {
        let (cs, dom, prof) = paper_system();
        let opts = Options::strat_partcache()
            .with_samples(2_000)
            .with_seed(42)
            .with_target_stderr(1e-3)
            .with_round_budget(2_000)
            .with_max_rounds(40);
        let r = Analyzer::new(opts).analyze_iterative(&cs, &dom, &prof);
        assert!(r.stats.target_met, "stats: {:?}", r.stats);
        assert!(r.estimate.std_dev() <= 1e-3);
        assert!((r.estimate.mean - 0.737848).abs() < 0.01, "{}", r.estimate);
        assert!(r.stats.rounds >= 1);
        assert_eq!(
            r.stats.samples_drawn,
            r.stats.refine_samples + sampled_round1(&r),
            "refine_samples is the post-round-1 share"
        );
    }

    fn sampled_round1(r: &Report) -> u64 {
        r.stats.samples_drawn - r.stats.refine_samples
    }

    #[test]
    fn max_rounds_stops_an_unreachable_target() {
        let (cs, dom, prof) = paper_system();
        let opts = Options::strat_partcache()
            .with_samples(500)
            .with_seed(7)
            .with_target_stderr(1e-9)
            .with_round_budget(500)
            .with_max_rounds(3);
        let r = Analyzer::new(opts).analyze_iterative(&cs, &dom, &prof);
        assert!(!r.stats.target_met);
        assert_eq!(r.stats.rounds, 3);
        assert!(r.stats.refine_samples > 0);
    }

    #[test]
    fn refinement_shrinks_stderr_monotonically_in_budget() {
        let (cs, dom, prof) = paper_system();
        let base = Options::strat_partcache()
            .with_samples(1_000)
            .with_seed(3)
            .with_target_stderr(0.0)
            .with_round_budget(4_000);
        let short =
            Analyzer::new(base.clone().with_max_rounds(1)).analyze_iterative(&cs, &dom, &prof);
        let long = Analyzer::new(base.with_max_rounds(10)).analyze_iterative(&cs, &dom, &prof);
        assert!(
            long.estimate.variance < short.estimate.variance,
            "more rounds must not increase variance: {} vs {}",
            long.estimate.variance,
            short.estimate.variance
        );
        assert!((long.estimate.mean - 0.737848).abs() < 0.02);
    }

    #[test]
    fn exact_systems_finish_in_one_round() {
        let sys = parse_system(
            "var x in [-2, 2]; var y in [-2, 2];
             pc x >= -1 && x <= 1 && y >= -1 && y <= 1;",
        )
        .unwrap();
        let prof = UsageProfile::uniform(2);
        let opts = Options::strat()
            .with_samples(100)
            .with_target_stderr(1e-6)
            .with_max_rounds(10);
        let r = Analyzer::new(opts).analyze_iterative(&sys.constraint_set, &sys.domain, &prof);
        assert_eq!(r.estimate.variance, 0.0);
        assert!((r.estimate.mean - 0.25).abs() < 1e-12);
        assert!(r.stats.target_met);
        assert_eq!(r.stats.rounds, 1);
        assert_eq!(r.stats.refine_samples, 0);
    }

    #[test]
    fn parallel_is_bit_identical() {
        let (cs, dom, prof) = paper_system();
        let opts = Options::strat_partcache()
            .with_samples(1_500)
            .with_seed(11)
            .with_target_stderr(5e-4)
            .with_round_budget(1_500)
            .with_max_rounds(12);
        let serial = Analyzer::new(opts.clone()).analyze_iterative(&cs, &dom, &prof);
        let parallel = Analyzer::new(opts.with_parallel(true)).analyze_iterative(&cs, &dom, &prof);
        assert_eq!(serial.estimate, parallel.estimate);
        assert_eq!(serial.per_pc, parallel.per_pc);
        assert_eq!(serial.stats.rounds, parallel.stats.rounds);
        assert_eq!(serial.stats.samples_drawn, parallel.stats.samples_drawn);
    }

    #[test]
    fn warm_store_recomposes_bit_identically_with_zero_work() {
        let (cs, dom, prof) = paper_system();
        let store = Arc::new(FactorStore::new(1024));
        let opts = Options::strat_partcache()
            .with_samples(1_000)
            .with_seed(5)
            .with_target_stderr(2e-3)
            .with_round_budget(1_000)
            .with_max_rounds(20);
        let cold = Analyzer::new(opts.clone())
            .with_factor_store(Arc::clone(&store))
            .analyze_iterative(&cs, &dom, &prof);
        assert!(cold.stats.samples_drawn > 0);
        assert!(!store.is_empty());
        let warm = Analyzer::new(opts)
            .with_factor_store(Arc::clone(&store))
            .analyze_iterative(&cs, &dom, &prof);
        assert_eq!(warm.estimate, cold.estimate, "bit-identical recompose");
        assert_eq!(warm.per_pc, cold.per_pc);
        assert_eq!(warm.stats.samples_drawn, 0, "warm run must not sample");
        assert_eq!(warm.stats.pavings, 0, "warm run must not pave");
        assert!(warm.stats.factor_store_hits > 0);
        assert_eq!(warm.stats.factor_store_misses, 0);
        assert_eq!(warm.stats.target_met, cold.stats.target_met);
    }

    #[test]
    fn iterative_and_one_shot_store_entries_never_collide() {
        let (cs, dom, prof) = paper_system();
        let store = Arc::new(FactorStore::new(1024));
        let opts = Options::strat_partcache().with_samples(1_000).with_seed(9);
        let one_shot = Analyzer::new(opts.clone())
            .with_factor_store(Arc::clone(&store))
            .analyze(&cs, &dom, &prof);
        // Same base options driven iteratively: must not warm-hit the
        // one-shot entries (different fingerprint), and vice versa.
        let iter_opts = opts.with_target_stderr(1e-4).with_round_budget(1_000);
        let it = Analyzer::new(iter_opts)
            .with_factor_store(Arc::clone(&store))
            .analyze_iterative(&cs, &dom, &prof);
        assert_eq!(it.stats.factor_store_hits, 0);
        assert!(it.stats.samples_drawn > 0);
        assert_ne!(one_shot.estimate, it.estimate);
    }

    #[test]
    fn empty_constraint_set_is_zero_and_meets_any_target() {
        let sys = parse_system("var x in [0, 1];").unwrap();
        let prof = UsageProfile::uniform(1);
        let opts = Options::default().with_target_stderr(1e-6);
        let r = Analyzer::new(opts).analyze_iterative(&sys.constraint_set, &sys.domain, &prof);
        assert_eq!(r.estimate, Estimate::ZERO);
        assert!(r.per_pc.is_empty());
        assert!(r.stats.target_met);
    }

    #[test]
    fn shared_factors_are_refined_once_for_all_pcs() {
        // Both PCs share the sin(y) factor; the iterative engine samples
        // it once per round and the x-factors are exact boxes.
        let sys = parse_system(
            "var x in [0, 1]; var y in [0, 1];
             pc x < 0.5 && sin(y) > 0.5;
             pc x >= 0.5 && sin(y) > 0.5;",
        )
        .unwrap();
        let prof = UsageProfile::uniform(2);
        let opts = Options::strat_partcache()
            .with_samples(1_000)
            .with_target_stderr(1e-3)
            .with_round_budget(1_000)
            .with_max_rounds(30);
        let r = Analyzer::new(opts).analyze_iterative(&sys.constraint_set, &sys.domain, &prof);
        assert_eq!(r.stats.cache_hits, 1, "shared factor deduplicated");
        assert_eq!(r.stats.cache_misses, 3, "three distinct factors");
        assert!((r.estimate.mean - 0.4764).abs() < 0.02, "{}", r.estimate);
    }

    #[test]
    fn iterative_worst_case_bounds_importance_sampling() {
        // The escalation pilot spends another `samples` per rare factor,
        // beyond round 1 and the refinement rounds: the bound must count
        // it, and these one-factor subjects do spend it.
        for subj in rare_subjects().into_iter().filter(|s| s.is_reachable) {
            let (cs, domain, profile) = subj.system();
            let mut opts = Options::strat_partcache()
                .with_samples(8_192)
                .with_allocation(Allocation::ImportanceAdaptive)
                .with_target_stderr(0.0)
                .with_round_budget(8_192)
                .with_max_rounds(3);
            opts.paver.max_boxes = 128;
            let r = Analyzer::new(opts.clone()).analyze_iterative(&cs, &domain, &profile);
            assert_eq!(r.stats.cache_misses, 1, "{}: one factor", subj.name);
            let drawn = r.stats.samples_drawn;
            assert!(
                drawn <= opts.iterative_worst_case(),
                "{}: drew {drawn} > {}",
                subj.name,
                opts.iterative_worst_case()
            );
            let without_pilot = opts.samples + (opts.max_rounds - 1) * opts.round_budget;
            assert!(
                drawn > without_pilot,
                "{}: drew {drawn}, within {without_pilot}",
                subj.name
            );
        }
    }
}
