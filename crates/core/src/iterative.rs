//! Iterative, variance-driven quantification:
//! [`Analyzer::analyze_iterative`].
//!
//! One-shot [`Analyzer::analyze`] spends its whole sample budget up
//! front, split statically across strata. The paper's compositional
//! structure makes a better policy possible: after a first round the
//! analyzer *knows* where the variance lives — which path condition,
//! which independent factor of its conjunction, which stratum of that
//! factor's paving — because disjoint estimators add (Theorem 1),
//! independent factors multiply (Eq. 7–8) and strata combine by Eq. 3.
//! `analyze_iterative` exploits all three levels:
//!
//! 1. **Across path conditions** — each refinement round's budget
//!    ([`Options::round_budget`](crate::Options)) is split across PCs proportional to
//!    their variance contribution to the composed sum.
//! 2. **Across factors** — each PC spends its share on the factor with
//!    the largest *exact* contribution to the PC product's variance
//!    (`varⱼ · Π_{i≠j}(meanᵢ² + varᵢ)`, the term Eq. 7–8 attributes to
//!    factor `j`). Factors shared by several PCs — the compositional
//!    payoff — pool their shares and are refined once.
//! 3. **Across strata** — within the chosen factor the share is placed
//!    Neyman-style, proportional to `weight × stddev`
//!    ([`qcoral_mc::neyman_allocation`]); strata that turned out exact
//!    after round one receive nothing further.
//!
//! The loop stops as soon as the composed standard error reaches
//! [`Options::target_stderr`](crate::Options) (recorded as [`Stats::target_met`]), when
//! [`Options::max_rounds`](crate::Options) is exhausted, or when no remaining factor can
//! absorb budget (everything exact or frozen).
//!
//! # Rare-event caveat
//!
//! Eq. 2's estimator reports variance `p̂(1−p̂)/n`, which is **zero** at
//! `p̂ ∈ {0, 1}` — a property shared by every engine in this repo (and
//! the paper's implementation). For the iterative engine it has a
//! sharper consequence: a stratum whose samples all missed (or all
//! hit) is indistinguishable from an exact one, is excluded from
//! follow-up rounds, and no longer holds the composed standard error
//! above the target — so on a stratum whose true probability is far
//! below `1/round-1-samples`, the engine can report `target_met` while
//! carrying a bias of up to roughly `3/n` of that stratum's weight at
//! 95% confidence. Callers hunting rare events should either size
//! [`Options::samples`](crate::Options) so the initial round can see
//! the event at all (the same requirement every hit-or-miss engine
//! here has), or — the purpose-built escape hatch — select
//! [`Allocation::ImportanceAdaptive`]: after round 1, any factor whose
//! pilot estimate fell below
//! [`Options::is_threshold`](crate::Options) swaps its stratified
//! accumulators for a paver-seeded [`IsEstimator`] and each further
//! refinement round adapts the proposal instead of re-running Neyman
//! (see [`qcoral_mc::is`]). A proposal whose pilot round finds zero
//! hits falls back to stratified deterministically and is flagged in
//! [`Stats::is_fallbacks`].
//!
//! # Determinism and the cross-run store
//!
//! Every stratum samples its own counter-seeded chunk stream (seeded
//! from the canonical factor key) and *continues* it across rounds
//! ([`qcoral_mc::refine_plan`]), and every allocation decision is a pure
//! function of deterministic estimates — so for fixed options the
//! report is bit-identical across thread counts. Final factor estimates
//! are deposited in the attached [`FactorStore`](crate::FactorStore)
//! under [`Options::iterative_fingerprint`](crate::Options); a warm run answers every
//! factor from the store (frozen, never refined) and recomposes the
//! bit-identical estimate with zero pavings and zero samples. A
//! *partially* warm store can allocate refinement differently than the
//! original cold run did (frozen factors expose their final variances,
//! not their round-by-round ones), so fresh factors may converge to
//! different — equally valid — estimates; first-write-wins inserts keep
//! whichever landed first stable from then on.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use qcoral_obs::trace::arg;
use qcoral_obs::Trace;
use rayon::prelude::*;

use qcoral_constraints::{ConstraintSet, Domain, PathCondition, VarId};
use qcoral_icp::{domain_box, tape_cache_stats};
use qcoral_interval::IntervalBox;
use qcoral_mc::{
    align_strata, initial_allocation, mix_seed, neyman_allocation, proportional_split, refine_plan,
    Allocation, Deadline, Estimate, IsEstimator, SamplePlan, Stratum, StratumAccum, UsageProfile,
};

use crate::analyzer::{
    factor_key, hash_key, normalized_partition, publish_report, Analyzer, Report, Stats, ALIGN_CAP,
    IS_STREAM,
};
use crate::bulkpred::CompiledPred;
use crate::factor_store::FactorKey;

/// One distinct factor of the analyzed system, deduplicated across path
/// conditions by canonical key.
struct Slot {
    key: FactorKey,
    local_pc: PathCondition,
    sub_box: IntervalBox,
    indices: Vec<usize>,
}

/// Sampling state of one slot.
enum FactorState {
    /// No sampling possible or needed: a cross-run store hit, an unsat
    /// paving, or a paving made entirely of exact strata.
    Frozen(Estimate),
    /// Still refinable.
    Active(Box<ActiveFactor>),
}

impl FactorState {
    fn estimate(&self) -> Estimate {
        match self {
            FactorState::Frozen(e) => *e,
            FactorState::Active(af) => af.estimate(),
        }
    }
}

/// A factor still being sampled: its compiled predicate (scalar +
/// columnar bulk tape), paving strata and per-stratum accumulators.
struct ActiveFactor {
    pred: Arc<CompiledPred>,
    profile: UsageProfile,
    /// The factor's projected domain box (the IS proposal's support
    /// universe; strata live inside it).
    sub_box: IntervalBox,
    strata: Vec<Stratum>,
    /// Exact mass of the certain strata (folded once, never re-sampled).
    exact: Estimate,
    /// Indices into `strata` of the non-certain, positive-weight strata.
    sampled: Vec<usize>,
    sampled_weights: Vec<f64>,
    accums: Vec<StratumAccum>,
    /// Installed after round 1 when [`Allocation::ImportanceAdaptive`]
    /// judged the factor rare; from then on refinement rounds advance
    /// the proposal instead of the stratum accumulators.
    is_engine: Option<IsEstimator>,
    plan: SamplePlan,
}

/// Result of one factor refinement pass, computed purely before being
/// installed by [`refine_states`].
enum Refined {
    /// Stratified path: the new per-stratum accumulators.
    Strata(Vec<StratumAccum>),
    /// Importance path: the advanced (cloned) IS engine.
    Importance(Box<IsEstimator>),
}

impl ActiveFactor {
    /// Current factor estimate: under IS, the exact inner mass plus the
    /// self-normalized boundary estimate; otherwise exact mass plus the
    /// weighted stratum estimates, reduced in stratum order (Eq. 3).
    fn estimate(&self) -> Estimate {
        if let Some(is) = &self.is_engine {
            return self.exact.sum(is.estimate());
        }
        self.accums
            .iter()
            .zip(&self.sampled_weights)
            .map(|(a, &w)| a.estimate().scale(w))
            .fold(self.exact, Estimate::sum)
    }

    fn stddevs(&self) -> Vec<f64> {
        self.accums.iter().map(StratumAccum::std_dev).collect()
    }

    /// The sampled strata's boxes — the IS proposal seed geometry.
    fn boundary_boxes(&self) -> Vec<IntervalBox> {
        self.sampled
            .iter()
            .map(|&i| self.strata[i].boxed.clone())
            .collect()
    }

    /// Spends `counts` further samples on this factor: one adaptation
    /// round of the IS engine (which takes the summed budget whole), or
    /// `counts[j]` samples for sampled stratum `j`, continuing each
    /// stratum's chunk stream. Pure (`&self`), so factors refine
    /// concurrently; the IS path clones the engine and returns the
    /// advanced copy. Rides the columnar bulk evaluator — chunk streams
    /// and hit counts are bit-identical to the scalar path.
    fn refined(&self, counts: &[u64]) -> (Refined, u64) {
        if let Some(engine) = &self.is_engine {
            let budget: u64 = counts.iter().sum();
            let mut engine = engine.clone();
            engine.round(
                &*self.pred,
                &self.profile,
                &self.sub_box,
                budget,
                self.plan.substream(IS_STREAM),
            );
            return (Refined::Importance(Box::new(engine)), budget);
        }
        let mut out = Vec::with_capacity(self.accums.len());
        let mut spent = 0u64;
        for (j, &i) in self.sampled.iter().enumerate() {
            out.push(refine_plan(
                &*self.pred,
                &self.strata[i].boxed,
                &self.profile,
                counts[j],
                self.plan.substream(i as u64),
                self.accums[j],
            ));
            spent += counts[j];
        }
        (Refined::Strata(out), spent)
    }
}

/// Per-slot stat deltas gathered during prep, reduced in slot order.
#[derive(Default)]
struct PrepStats {
    pavings: u64,
    paving_hits: u64,
    paving_misses: u64,
    inner: u64,
    boundary: u64,
    store_hits: u64,
    store_misses: u64,
}

impl PrepStats {
    fn add(&mut self, other: &PrepStats) {
        self.pavings += other.pavings;
        self.paving_hits += other.paving_hits;
        self.paving_misses += other.paving_misses;
        self.inner += other.inner;
        self.boundary += other.boundary;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
    }
}

/// Applies one refinement pass: computes every factor's new accumulators
/// (concurrently under `parallel`) and installs them. Returns the budget
/// spent. Values are independent per factor, so install order is
/// irrelevant to the result.
fn refine_states(states: &mut [FactorState], work: &[(usize, Vec<u64>)], parallel: bool) -> u64 {
    let compute = |(j, counts): &(usize, Vec<u64>)| -> (usize, Refined, u64) {
        let FactorState::Active(af) = &states[*j] else {
            unreachable!("refinement work only targets active factors");
        };
        let (refined, spent) = af.refined(counts);
        (*j, refined, spent)
    };
    let computed: Vec<(usize, Refined, u64)> = if parallel && work.len() > 1 {
        work.par_iter().map(compute).collect()
    } else {
        work.iter().map(compute).collect()
    };
    let mut total = 0u64;
    for (j, refined, spent) in computed {
        if let FactorState::Active(af) = &mut states[j] {
            match refined {
                Refined::Strata(accums) => af.accums = accums,
                Refined::Importance(engine) => af.is_engine = Some(*engine),
            }
        }
        total += spent;
    }
    total
}

impl Analyzer {
    /// Iterative, variance-driven quantification (see the [module
    /// docs](self)): round 1 spends [`Options::samples`](crate::Options)
    /// per factor like `analyze`, then each further round places
    /// [`Options::round_budget`](crate::Options) on the
    /// highest-variance factor of each conjunction, Neyman-allocated
    /// across its strata, until the composed standard error reaches
    /// [`Options::target_stderr`](crate::Options) or
    /// [`Options::max_rounds`](crate::Options) is exhausted.
    /// [`Stats::rounds`], [`Stats::refine_samples`] and
    /// [`Stats::target_met`] record the trajectory.
    ///
    /// Factors are always deduplicated by canonical key (the iterative
    /// engine subsumes `PARTCACHE` within a run); with
    /// [`Options::cache`](crate::Options) set, final factor estimates
    /// are exchanged with the attached
    /// [`FactorStore`](crate::FactorStore) under
    /// [`Options::iterative_fingerprint`](crate::Options), so a warm
    /// repeat recomposes bit-identically with zero pavings and samples.
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
        let tr = trace.as_deref();
        let opts = &self.opts;
        // Deadline expiry is monotonic (an `Instant` cutoff never
        // un-passes), so one check late in the run also answers "did it
        // expire at any earlier point".
        let deadline = self.effective_deadline();
        let expired = || deadline.is_some_and(Deadline::expired);
        let nvars = domain.len();
        let partition = normalized_partition(opts, cs, nvars);
        let dbox = domain_box(domain);
        let iter_fp = opts.iterative_fingerprint();
        let max_rounds = opts.max_rounds.max(1);
        let (tape_hits0, tape_misses0) = tape_cache_stats();

        // Factor discovery: one slot per distinct canonical factor, and
        // per-PC lists of slot indices (a factor recurring across PCs is
        // sampled once and its refinement benefits every PC).
        let pcs = cs.pcs();
        let mut slots: Vec<Slot> = Vec::new();
        let mut slot_of: HashMap<FactorKey, usize> = HashMap::new();
        let mut pc_slots: Vec<Vec<usize>> = Vec::with_capacity(pcs.len());
        let mut factor_refs = 0u64;
        for pc in pcs {
            let mut mine = Vec::new();
            for class in &partition {
                let part = pc.project(class);
                if part.is_empty() {
                    continue;
                }
                let indices = class.indices();
                let mut local_of = HashMap::new();
                for (local, &global) in indices.iter().enumerate() {
                    local_of.insert(global as u32, local as u32);
                }
                let local_pc = part.remap_vars(&|v: VarId| VarId(local_of[&v.0]));
                let sub_box = dbox.project(&indices);
                let key = factor_key(
                    &local_pc,
                    &sub_box,
                    &profile.project(&indices),
                    opts.profile_epsilon,
                );
                factor_refs += 1;
                let idx = *slot_of.entry(key.clone()).or_insert_with(|| {
                    slots.push(Slot {
                        key,
                        local_pc,
                        sub_box,
                        indices,
                    });
                    slots.len() - 1
                });
                mine.push(idx);
            }
            pc_slots.push(mine);
        }

        // Prep each slot: cross-run store lookup, then paving → strata.
        let store = if opts.cache {
            self.factor_store.as_deref()
        } else {
            None
        };
        let prep_body = |slot: &Slot| -> (FactorState, PrepStats) {
            let mut d = PrepStats::default();
            if let Some(store) = store {
                if let Some(e) = store.get(iter_fp, &slot.key) {
                    d.store_hits = 1;
                    return (FactorState::Frozen(e), d);
                }
                d.store_misses = 1;
            }
            // Past the deadline, skip the paving this factor would pay
            // for and freeze it at `0 ± 0` — the flagged partial report
            // composes a sound lower bound, and the deposit loop below
            // never persists anything from an expired run.
            if expired() {
                return (FactorState::Frozen(Estimate::ZERO), d);
            }
            let local_profile = profile.project(&slot.indices);
            let raw_strata: Vec<Stratum> = if opts.stratified {
                let t_pave = tr.map_or(0, Trace::now_us);
                let (paving, was_hit) = self.paving_cache.pave_cached_counted(
                    &slot.local_pc,
                    &slot.sub_box,
                    &opts.paver,
                );
                // Same span taxonomy as the one-shot engine, so a
                // Perfetto timeline reads identically across both.
                if let Some(t) = tr {
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
                    d.paving_hits = 1;
                } else {
                    d.paving_misses = 1;
                }
                d.pavings = 1;
                d.inner = paving.inner.len() as u64;
                d.boundary = paving.boundary.len() as u64;
                if paving.is_unsat() {
                    return (FactorState::Frozen(Estimate::ZERO), d);
                }
                paving
                    .inner
                    .iter()
                    .cloned()
                    .map(Stratum::inner)
                    .chain(paving.boundary.iter().cloned().map(Stratum::boundary))
                    .collect()
            } else {
                vec![Stratum::boundary(slot.sub_box.clone())]
            };
            // Profile-aligned stratification (identical to the one-shot
            // engine's, so shared pavings yield the same strata): only
            // the ICP-stratified path aligns — the unstratified engine
            // stays the paper's naive baseline.
            let strata = if opts.stratified {
                align_strata(
                    raw_strata,
                    &local_profile,
                    &slot.sub_box,
                    opts.profile_epsilon,
                    ALIGN_CAP,
                )
            } else {
                raw_strata
            };
            let weights: Vec<f64> = strata
                .iter()
                .map(|s| local_profile.box_probability(&s.boxed, &slot.sub_box))
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
                return (FactorState::Frozen(exact), d);
            }
            let sampled_weights: Vec<f64> = sampled.iter().map(|&i| weights[i]).collect();
            let t_compile = tr.map_or(0, Trace::now_us);
            let pred = CompiledPred::compile_cached(&slot.local_pc);
            if let Some(t) = tr {
                t.record(
                    "compile",
                    "tape",
                    t_compile,
                    vec![arg("vars", slot.sub_box.dims().len())],
                );
            }
            let accums = vec![StratumAccum::EMPTY; sampled.len()];
            let plan = SamplePlan {
                seed: mix_seed(opts.seed, hash_key(&slot.key)),
                chunk: opts.chunk.max(1),
                parallel: opts.parallel,
                deadline,
            };
            (
                FactorState::Active(Box::new(ActiveFactor {
                    pred,
                    profile: local_profile,
                    sub_box: slot.sub_box.clone(),
                    strata,
                    exact,
                    sampled,
                    sampled_weights,
                    accums,
                    is_engine: None,
                    plan,
                })),
                d,
            )
        };
        // Per-slot `prep` span: paving (box counts) plus where the
        // factor ended up (store hit, frozen exact, or live sampling).
        let prep = |slot: &Slot| -> (FactorState, PrepStats) {
            let t0 = tr.map_or(0, Trace::now_us);
            let (state, d) = prep_body(slot);
            if let Some(t) = tr {
                let outcome = match &state {
                    FactorState::Frozen(_) if d.store_hits == 1 => "factor_store",
                    FactorState::Frozen(_) => "frozen",
                    FactorState::Active(_) => "active",
                };
                t.record(
                    "prep",
                    "core",
                    t0,
                    vec![
                        arg("inner", d.inner),
                        arg("boundary", d.boundary),
                        arg("outcome", outcome),
                    ],
                );
            }
            (state, d)
        };
        let prepped: Vec<(FactorState, PrepStats)> = if opts.parallel && slots.len() > 1 {
            slots.par_iter().map(prep).collect()
        } else {
            slots.iter().map(prep).collect()
        };
        let mut prep_stats = PrepStats::default();
        let mut states: Vec<FactorState> = Vec::with_capacity(prepped.len());
        for (state, d) in prepped {
            prep_stats.add(&d);
            states.push(state);
        }

        // Round 1: the initial budget, statically allocated (for
        // `VarianceAdaptive` the adaptation *is* the later rounds, so
        // round 1 pilots with the equal split; `ImportanceAdaptive`
        // pilots the same way — its estimate decides the escalation
        // below).
        let round1_alloc = match opts.allocation {
            Allocation::VarianceAdaptive | Allocation::ImportanceAdaptive => {
                Allocation::EqualPerStratum
            }
            a => a,
        };
        let round1: Vec<(usize, Vec<u64>)> = states
            .iter()
            .enumerate()
            .filter_map(|(j, st)| match st {
                FactorState::Active(af) => Some((
                    j,
                    initial_allocation(round1_alloc, opts.samples, &af.sampled_weights),
                )),
                FactorState::Frozen(_) => None,
            })
            .collect();
        let t_round1 = tr.map_or(0, Trace::now_us);
        let mut samples_drawn = refine_states(&mut states, &round1, opts.parallel);
        if let Some(t) = tr {
            t.record(
                "round",
                "sampling",
                t_round1,
                vec![
                    arg("round", 1),
                    arg("budget", samples_drawn),
                    arg("factors", round1.len()),
                ],
            );
        }
        let mut rounds = 1u64;
        let mut refine_samples = 0u64;
        let mut target_met = false;
        let mut is_fallbacks = 0u64;

        // IS escalation: under `ImportanceAdaptive`, a factor whose
        // round-1 estimate fell below the threshold seeds a paver-based
        // IS engine from its sampled strata and pilots it with one more
        // factor budget. A proposal that cannot be built (degenerate
        // geometry) or whose pilot finds zero hits falls back to the
        // stratified accumulators deterministically.
        if opts.allocation == Allocation::ImportanceAdaptive && !expired() {
            // Factor index plus its pilot verdict: the seeded engine (or
            // `None` for a fallback) and the samples the pilot spent.
            type Decision = (usize, (Option<IsEstimator>, u64));
            let pilot = |af: &ActiveFactor| -> Option<(Option<IsEstimator>, u64)> {
                let drawn: u64 = af.accums.iter().map(|a| a.n).sum();
                // Rarity is judged on the pilot *estimate* (exact mass
                // plus weighted boundary hit rate), not the raw
                // conditional hit rate — boundary strata hug the
                // constraint surface, so their conditional rates are
                // O(1) even for 1e-8 events.
                let rare = drawn > 0 && af.estimate().mean < opts.is_threshold;
                if !rare {
                    return None;
                }
                let Some(mut is) =
                    IsEstimator::seeded(&af.boundary_boxes(), &af.profile, &af.sub_box)
                else {
                    return Some((None, 0));
                };
                let r = is.round(
                    &*af.pred,
                    &af.profile,
                    &af.sub_box,
                    opts.samples,
                    af.plan.substream(IS_STREAM),
                );
                if r.hits == 0 {
                    return Some((None, opts.samples));
                }
                Some((Some(is), opts.samples))
            };
            let decide = |j: usize| match &states[j] {
                FactorState::Active(af) => pilot(af).map(|d| (j, d)),
                FactorState::Frozen(_) => None,
            };
            let t_esc = tr.map_or(0, Trace::now_us);
            let decided: Vec<Option<Decision>> = if opts.parallel && states.len() > 1 {
                (0..states.len()).into_par_iter().map(decide).collect()
            } else {
                (0..states.len()).map(decide).collect()
            };
            let decisions = decided.into_iter().flatten();
            let mut escalated = 0u64;
            let mut pilot_spent = 0u64;
            for (j, (engine, spent)) in decisions {
                samples_drawn += spent;
                pilot_spent += spent;
                match engine {
                    Some(is) => {
                        escalated += 1;
                        if let FactorState::Active(af) = &mut states[j] {
                            af.is_engine = Some(is);
                        }
                    }
                    None => is_fallbacks += 1,
                }
            }
            if let Some(t) = tr {
                if escalated + is_fallbacks > 0 {
                    t.record(
                        "is_escalate",
                        "sampling",
                        t_esc,
                        vec![
                            arg("factors", escalated),
                            arg("fallbacks", is_fallbacks),
                            arg("budget", pilot_spent),
                        ],
                    );
                }
            }
        }

        // Refinement loop: compose → stop or reallocate → refine.
        let (per_pc, estimate) = loop {
            let factor_estimates: Vec<Estimate> =
                states.iter().map(FactorState::estimate).collect();
            // Eq. 7–8 per PC, Theorem 1 across PCs, fixed reduction order.
            let per_pc: Vec<Estimate> = pc_slots
                .iter()
                .map(|mine| {
                    mine.iter()
                        .fold(Estimate::ONE, |acc, &j| acc.product(factor_estimates[j]))
                })
                .collect();
            let total = per_pc.iter().fold(Estimate::ZERO, |acc, e| acc.sum(*e));
            if let Some(t) = opts.target_stderr {
                if total.variance.sqrt() <= t {
                    target_met = true;
                    break (per_pc, total);
                }
            }
            if rounds >= max_rounds {
                break (per_pc, total);
            }
            // Cooperative cancellation between rounds (the chunk loops
            // inside a round check the same deadline): the composed
            // estimate so far *is* the best-effort answer.
            if expired() {
                break (per_pc, total);
            }
            // Split the round budget across PCs proportional to their
            // variance contribution, then aim each share at the PC's
            // highest-contribution refinable factor.
            let pc_vars: Vec<f64> = per_pc.iter().map(|e| e.variance).collect();
            let shares = proportional_split(opts.round_budget, &pc_vars);
            let mut budget_for: Vec<u64> = vec![0; states.len()];
            for (pc_idx, &share) in shares.iter().enumerate() {
                if share == 0 {
                    continue;
                }
                let mut best: Option<(f64, usize)> = None;
                for (pos, &j) in pc_slots[pc_idx].iter().enumerate() {
                    if !matches!(states[j], FactorState::Active(_))
                        || factor_estimates[j].variance <= 0.0
                    {
                        continue;
                    }
                    // Exact share of the PC product's variance
                    // attributable to factor j under Eq. 7–8:
                    // varⱼ · Π_{i≠j}(meanᵢ² + varᵢ). Occurrences are
                    // excluded by *position*: a canonical factor can
                    // appear twice in one PC (identically distributed
                    // sibling classes), and only this occurrence — not
                    // its twin — leaves the product.
                    let others: f64 = pc_slots[pc_idx]
                        .iter()
                        .enumerate()
                        .filter(|&(p, _)| p != pos)
                        .map(|(_, &i)| {
                            let e = factor_estimates[i];
                            e.mean * e.mean + e.variance
                        })
                        .product();
                    let score = factor_estimates[j].variance * others;
                    if best.is_none_or(|(s, _)| score > s) {
                        best = Some((score, j));
                    }
                }
                if let Some((_, j)) = best {
                    budget_for[j] += share;
                }
            }
            // Neyman placement within each chosen factor; a factor whose
            // strata are all exact absorbs nothing. An IS factor takes
            // its share whole — the engine spends it as one adaptation
            // round.
            let work: Vec<(usize, Vec<u64>)> = budget_for
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b > 0)
                .filter_map(|(j, &b)| {
                    let FactorState::Active(af) = &states[j] else {
                        return None;
                    };
                    let counts = if af.is_engine.is_some() {
                        vec![b]
                    } else {
                        neyman_allocation(b, &af.sampled_weights, &af.stddevs())
                    };
                    counts.iter().any(|&c| c > 0).then_some((j, counts))
                })
                .collect();
            if work.is_empty() {
                // No remaining factor can absorb budget: every stratum
                // is exact or frozen. Further rounds cannot help.
                break (per_pc, total);
            }
            let t_round = tr.map_or(0, Trace::now_us);
            let spent = refine_states(&mut states, &work, opts.parallel);
            rounds += 1;
            samples_drawn += spent;
            refine_samples += spent;
            if let Some(t) = tr {
                // `stderr` is the composed standard error that *drove*
                // this round's Neyman placement (measured before it).
                t.record(
                    "round",
                    "sampling",
                    t_round,
                    vec![
                        arg("round", rounds),
                        arg("budget", spent),
                        arg("factors", work.len()),
                        arg("stderr", total.variance.sqrt()),
                    ],
                );
            }
        };

        // Deposit final factor estimates for warm repeats (store hits
        // re-insert their own value, which neither changes the store nor
        // bumps its revision). An expired run deposits nothing: its
        // estimates may be deadline-truncated partials, which must never
        // masquerade as the full-budget reproducible values.
        let deadline_exceeded = expired();
        if let Some(store) = store {
            if !deadline_exceeded {
                for (slot, state) in slots.iter().zip(&states) {
                    store.insert(iter_fp, slot.key.clone(), state.estimate());
                }
            }
        }

        let (tape_hits1, tape_misses1) = tape_cache_stats();
        let is_factors = states
            .iter()
            .filter(|s| matches!(s, FactorState::Active(af) if af.is_engine.is_some()))
            .count() as u64;
        let stats = Stats {
            cache_hits: factor_refs - slots.len() as u64,
            cache_misses: slots.len() as u64,
            inner_boxes: prep_stats.inner,
            boundary_boxes: prep_stats.boundary,
            pavings: prep_stats.pavings,
            paving_cache_hits: prep_stats.paving_hits,
            paving_cache_misses: prep_stats.paving_misses,
            tape_cache_hits: tape_hits1 - tape_hits0,
            tape_cache_misses: tape_misses1 - tape_misses0,
            factor_store_hits: prep_stats.store_hits,
            factor_store_misses: prep_stats.store_misses,
            samples_drawn,
            rounds,
            refine_samples,
            target_met,
            is_factors,
            is_fallbacks,
            deadline_exceeded,
            backend: crate::bulkpred::active_backend().to_string(),
        };
        if let Some(t) = &trace {
            t.record(
                "analyze_iterative",
                "core",
                trace_t0,
                vec![
                    arg("pcs", per_pc.len()),
                    arg("rounds", rounds),
                    arg("samples_drawn", samples_drawn),
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::factor_store::FactorStore;
    use crate::Options;
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
}
