//! Hit-or-miss Monte Carlo and stratified sampling.
//!
//! One sampler per strategy, each generic over a [`BulkPred`]:
//! [`Strata`] is stratified sampling over an ICP paving (Eq. 3), refined
//! round by round, and [`Strata::whole`] its one-stratum case; one
//! [`refine_plan`] round from [`StratumAccum::EMPTY`] is hit-or-miss
//! Monte Carlo (Eq. 2) on one box. Samples are drawn in fixed-size
//! chunks under a [`SamplePlan`], each chunk seeded from a counter
//! ([`mix_seed`]) instead of a shared RNG stream, by the one chunk
//! executor that [`crate::IsEstimator`] shares. Chunk hit-counts are
//! integers and strata are reduced in index order, so every
//! [`Estimate`] depends only on the seed and the per-round budgets.
//!
//! # Columnar evaluation
//!
//! A chunk draws its samples into per-variable *column* buffers, one
//! [`COLUMN_BLOCK`]-sized block at a time, and hands each block to
//! [`BulkPred::count_hits`] in one call, letting register-allocated
//! slice tapes (`qcoral_constraints::bulk`) amortize interpreter
//! dispatch across whole lane blocks. A plain `Fn(&[f64]) -> bool`
//! closure, wrapped in [`ScalarPred`], counts through the default
//! `count_hits`, which gathers each row: the same draws give the same
//! counts.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use qcoral_interval::IntervalBox;

use crate::{BoxDraw, Estimate, UsageProfile};

/// A cooperative cancellation token: an absolute cutoff instant that
/// long-running sampling loops poll between chunks.
///
/// Expiry never aborts mid-chunk and never perturbs randomness — a run
/// that expires simply stops drawing further chunks, and the
/// accumulated counts remain a statistically sound (smaller-`n`)
/// estimate. A plan with no deadline behaves bit-identically to one
/// that never expires.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// A deadline at an absolute instant (e.g. computed when a request
    /// was received, so queueing time counts against it).
    pub fn at(at: Instant) -> Deadline {
        Deadline { at }
    }

    /// Whether the cutoff has passed.
    pub fn expired(self) -> bool {
        Instant::now() >= self.at
    }
}

/// SplitMix64-style mixing of a base seed with a stream id, used to derive
/// independent per-chunk and per-stratum RNG seeds from counters.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a sampling run draws its randomness and when it stops.
///
/// The plan fixes the seed derivation: chunk `c` of any run always uses
/// `mix_seed(seed, c)`, so how a budget splits into rounds cannot
/// influence the result.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SamplePlan {
    /// Base RNG seed for this run.
    pub seed: u64,
    /// Samples per chunk: the seeding granule, and how often the
    /// deadline is polled.
    pub chunk: u64,
    /// Optional cooperative cutoff, polled between chunks: once expired
    /// no further chunks are drawn and the accumulated counts stand as
    /// a best-effort partial result. `None` reproduces the unbounded
    /// behavior bit for bit.
    pub deadline: Option<Deadline>,
}

impl SamplePlan {
    /// Default chunk size: big enough to amortize reseeding and deadline
    /// polls, small enough that an expired deadline stops a run within a
    /// few thousand samples.
    pub const DEFAULT_CHUNK: u64 = 4_096;

    /// A plan of [`SamplePlan::DEFAULT_CHUNK`]-sample chunks and no
    /// deadline.
    pub fn serial(seed: u64) -> SamplePlan {
        SamplePlan {
            seed,
            chunk: Self::DEFAULT_CHUNK,
            deadline: None,
        }
    }

    /// Derives the plan for an independent sub-stream (e.g. one stratum).
    pub fn substream(self, stream: u64) -> SamplePlan {
        SamplePlan {
            seed: mix_seed(self.seed, stream),
            ..self
        }
    }

    /// The same plan with a cooperative deadline (or none).
    pub fn with_deadline(self, deadline: Option<Deadline>) -> SamplePlan {
        SamplePlan { deadline, ..self }
    }
}

/// A predicate the samplers count hits of, one block of sample columns
/// at a time.
///
/// The contract that keeps every evaluator bit-identical: for any
/// columns `cols` holding `n` samples, [`BulkPred::count_hits`] must
/// return exactly the number of rows `i` on which [`BulkPred::holds`]
/// returns `true` for the gathered point `[cols[0][i], cols[1][i], …]`.
pub trait BulkPred {
    /// Evaluation of one sample point.
    fn holds(&self, point: &[f64]) -> bool;

    /// Counts hits over the first `n` samples stored in per-variable
    /// columns (`cols[v][i]` = variable `v` of sample `i`). The default
    /// gathers each row and defers to [`BulkPred::holds`]; a columnar
    /// evaluator (e.g. a `qcoral_constraints::bulk::BulkTape`) counts
    /// the whole block at once.
    fn count_hits(&self, cols: &[Vec<f64>], n: usize) -> u64 {
        let mut point = vec![0.0; cols.len()];
        let mut hits = 0u64;
        for i in 0..n {
            for (d, col) in cols.iter().enumerate() {
                point[d] = col[i];
            }
            if self.holds(&point) {
                hits += 1;
            }
        }
        hits
    }
}

/// Adapter giving any `Fn(&[f64]) -> bool` closure the [`BulkPred`]
/// default, row-gathering `count_hits`: pass `&ScalarPred(closure)` to
/// any sampler.
#[derive(Clone, Copy, Debug)]
pub struct ScalarPred<F>(pub F);

impl<F: Fn(&[f64]) -> bool> BulkPred for ScalarPred<F> {
    fn holds(&self, point: &[f64]) -> bool {
        (self.0)(point)
    }
}

/// Samples drawn per column block: matches the bulk tapes' lane width
/// (`qcoral_constraints::bulk::LANES`) so each block evaluates as one
/// full slab, while keeping column-buffer memory at
/// `COLUMN_BLOCK × ndim` f64s regardless of the chunk size.
/// Purely an execution granule — [`BulkPred::count_hits`] is exact for
/// any block size, and the RNG draw order never depends on it.
pub const COLUMN_BLOCK: usize = 128;

/// The chunk executor of [`refine_plan`] and
/// [`crate::IsEstimator::round`]: spends `add` samples as the chunks
/// `first, first + 1, …` of `plan`'s stream, in order. Chunk `c` runs
/// `body(rng, len)` on its `len` samples with an RNG seeded from
/// `mix_seed(plan.seed, c)`. Once the plan's deadline has expired no
/// further chunk starts. Returns each completed chunk's `(len, result)`
/// in chunk order, and the number of chunks `add` spans.
pub(crate) fn run_chunks<R>(
    plan: &SamplePlan,
    first: u64,
    add: u64,
    mut body: impl FnMut(&mut SmallRng, u64) -> R,
) -> (Vec<(u64, R)>, u64) {
    let chunk = plan.chunk.max(1);
    let nchunks = add.div_ceil(chunk);
    let done = (0..nchunks)
        .map_while(|j| {
            if plan.deadline.is_some_and(Deadline::expired) {
                return None;
            }
            let len = chunk.min(add - j * chunk);
            let mut rng = SmallRng::seed_from_u64(mix_seed(plan.seed, first + j));
            Some((len, body(&mut rng, len)))
        })
        .collect();
    (done, nchunks)
}

/// Counts hits of `pred` among `n` samples drawn with `rng` from a
/// stratum's compiled `draw`, which has mass. Each point is drawn into
/// `point` and scattered into `cols`, and every [`COLUMN_BLOCK`] of
/// columns is counted in one [`BulkPred::count_hits`] call while still
/// cache-hot.
fn chunk_hits<P: BulkPred + ?Sized>(
    pred: &P,
    draw: &BoxDraw,
    n: u64,
    rng: &mut SmallRng,
    point: &mut [f64],
    cols: &mut [Vec<f64>],
) -> u64 {
    let mut hits = 0u64;
    let mut remaining = n as usize;
    while remaining > 0 {
        let w = COLUMN_BLOCK.min(remaining);
        for col in cols.iter_mut() {
            col.clear();
        }
        for _ in 0..w {
            let drawn = draw.sample(rng, point);
            debug_assert!(drawn, "a box with mass always draws");
            for (col, &x) in cols.iter_mut().zip(point.iter()) {
                col.push(x);
            }
        }
        hits += pred.count_hits(cols, w);
        remaining -= w;
    }
    hits
}

/// Incrementally refinable hit-or-miss state for one stratum.
///
/// The adaptive engines sample a stratum in *rounds*: each call to
/// [`refine_plan`] draws more counter-seeded chunks, starting at
/// [`StratumAccum::next_chunk`], and folds the integer hit counts in.
/// The accumulated estimate therefore depends only on the stratum's
/// sub-stream and the *sequence of per-round budgets* — never on which
/// round drew which chunk — which is what keeps
/// variance-driven reallocation bit-reproducible.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StratumAccum {
    /// Samples that satisfied the predicate.
    pub hits: u64,
    /// Samples drawn so far.
    pub n: u64,
    /// Next chunk index of this stratum's sub-stream (each round starts
    /// a fresh chunk, so a short round never splits a chunk's RNG stream
    /// with the next one).
    pub next_chunk: u64,
    /// The box turned out to carry zero conditional mass under the
    /// profile: the stratum contributes the exact `0 ± 0`.
    pub dead: bool,
}

impl StratumAccum {
    /// The state before any sampling.
    pub const EMPTY: StratumAccum = StratumAccum {
        hits: 0,
        n: 0,
        next_chunk: 0,
        dead: false,
    };

    /// The current hit-or-miss estimate (Eq. 2). Zero-mass strata and
    /// unsampled accumulators report the exact `0 ± 0`.
    pub fn estimate(&self) -> Estimate {
        if self.dead || self.n == 0 {
            Estimate::ZERO
        } else {
            Estimate::from_hits(self.hits, self.n)
        }
    }

    /// Sample standard deviation `√(p̂(1−p̂))` of the underlying Bernoulli
    /// population — the `s_i` of Neyman allocation (0 until sampled).
    pub fn std_dev(&self) -> f64 {
        if self.dead || self.n == 0 {
            0.0
        } else {
            let p = self.hits as f64 / self.n as f64;
            (p * (1.0 - p)).sqrt()
        }
    }
}

/// Hit-or-miss Monte Carlo (Eq. 2) for one stratum: draws `add` further
/// samples from `profile` conditioned on `boxed`, continuing the
/// accumulator's chunk counter, and returns the merged accumulator. One
/// round from [`StratumAccum::EMPTY`] is the plain estimator.
///
/// Drawing `a` then `b` samples visits the same chunk sub-streams as any
/// other split of `a + b` into rounds would visit fresh chunks for — and
/// chunk hit counts are integers reduced by summation — so the result
/// depends only on the budget sequence. `add == 0` (and refining a dead
/// stratum) is a no-op.
///
/// The stratum's draw is compiled once per call
/// ([`UsageProfile::draw_plan`]) and shared by every chunk. A box with
/// zero conditional mass under the profile is known from that draw: the
/// stratum is marked dead, draws nothing and keeps its chunk counter.
pub fn refine_plan<P>(
    pred: &P,
    boxed: &IntervalBox,
    profile: &UsageProfile,
    add: u64,
    plan: SamplePlan,
    acc: StratumAccum,
) -> StratumAccum
where
    P: BulkPred + ?Sized,
{
    if add == 0 || acc.dead {
        return acc;
    }
    let draw = profile.draw_plan(boxed, boxed);
    if !draw.has_mass() {
        return StratumAccum { dead: true, ..acc };
    }
    let ndim = boxed.ndim();
    let mut point = vec![0.0; ndim];
    let mut cols: Vec<Vec<f64>> = (0..ndim)
        .map(|_| Vec::with_capacity(COLUMN_BLOCK))
        .collect();
    let (chunks, nchunks) = run_chunks(&plan, acc.next_chunk, add, |rng, len| {
        chunk_hits(pred, &draw, len, rng, &mut point, &mut cols)
    });
    // Chunks the deadline skipped are absent, so `hits/n` counts only
    // samples actually drawn and a partial accumulator stays sound.
    StratumAccum {
        hits: acc.hits + chunks.iter().map(|&(_, hits)| hits).sum::<u64>(),
        n: acc.n + chunks.iter().map(|&(len, _)| len).sum::<u64>(),
        next_chunk: acc.next_chunk + nchunks,
        dead: false,
    }
}

/// Stratified sampling over an ICP paving (§3.3, Eq. 3), refined round
/// by round.
///
/// Stratum `i` weighs its profile mass `wᵢ = P(Rᵢ)/P(D)`. Certain strata
/// (ICP inner boxes: mean 1, variance 0) fold into [`Strata::exact`] and
/// zero-weight strata are dropped; every other stratum samples its own
/// sub-stream `plan.substream(i)`. [`Strata::estimate`] adds
/// `E[X̂] = Σ wᵢE[X̂ᵢ]` and `Var[X̂] = Σ wᵢ²Var[X̂ᵢ]` onto the exact mass
/// in stratum order.
#[derive(Clone, Debug)]
pub struct Strata {
    exact: Estimate,
    sampled: Vec<Sampled>,
}

/// A sampled stratum: not certain, with positive profile mass.
#[derive(Clone, Debug)]
struct Sampled {
    boxed: IntervalBox,
    weight: f64,
    plan: SamplePlan,
    accum: StratumAccum,
}

impl Strata {
    /// The strata of `strata` over `domain`, none sampled yet. Panics on
    /// dimension mismatches between strata, `domain` and `profile`.
    pub fn new(
        strata: impl IntoIterator<Item = Stratum>,
        profile: &UsageProfile,
        domain: &IntervalBox,
        plan: SamplePlan,
    ) -> Strata {
        let mut exact = Estimate::ZERO;
        let mut sampled = Vec::new();
        for (i, s) in strata.into_iter().enumerate() {
            let weight = profile.box_probability(&s.boxed, domain);
            if s.certain {
                exact = exact.sum(Estimate::ONE.scale(weight));
            } else if weight > 0.0 {
                sampled.push(Sampled {
                    boxed: s.boxed,
                    weight,
                    plan: plan.substream(i as u64),
                    accum: StratumAccum::EMPTY,
                });
            }
        }
        Strata { exact, sampled }
    }

    /// Hit-or-miss Monte Carlo (Eq. 2) as strata: `boxed` is one sampled
    /// stratum of weight exactly `1.0` on `plan`'s own stream.
    pub fn whole(boxed: IntervalBox, plan: SamplePlan) -> Strata {
        Strata {
            exact: Estimate::ZERO,
            sampled: vec![Sampled {
                boxed,
                weight: 1.0,
                plan,
                accum: StratumAccum::EMPTY,
            }],
        }
    }

    /// The number of sampled strata.
    pub fn len(&self) -> usize {
        self.sampled.len()
    }

    /// Whether no stratum is left to sample: the estimate is exact.
    pub fn is_empty(&self) -> bool {
        self.sampled.is_empty()
    }

    /// The exact mass of the certain strata.
    pub fn exact(&self) -> Estimate {
        self.exact
    }

    /// The sampled strata's weights, in stratum order.
    pub fn weights(&self) -> Vec<f64> {
        self.sampled.iter().map(|s| s.weight).collect()
    }

    /// The sampled strata's [`StratumAccum::std_dev`]s, in stratum order.
    pub fn std_devs(&self) -> Vec<f64> {
        self.sampled.iter().map(|s| s.accum.std_dev()).collect()
    }

    /// The sampled strata's boxes, in stratum order.
    pub fn boxes(&self) -> Vec<IntervalBox> {
        self.sampled.iter().map(|s| s.boxed.clone()).collect()
    }

    /// Samples drawn so far, over all strata.
    pub fn drawn(&self) -> u64 {
        self.sampled.iter().map(|s| s.accum.n).sum()
    }

    /// Each sampled stratum's weight and hit-or-miss estimate, in stratum
    /// order.
    pub fn estimates(&self) -> impl Iterator<Item = (f64, Estimate)> + '_ {
        self.sampled.iter().map(|s| (s.weight, s.accum.estimate()))
    }

    /// The Eq. 3 estimate: the exact mass plus the weighted stratum
    /// estimates, reduced in stratum order.
    pub fn estimate(&self) -> Estimate {
        self.estimates()
            .map(|(w, e)| e.scale(w))
            .fold(self.exact, Estimate::sum)
    }

    /// The pilot estimate of [`Allocation::ImportanceAdaptive`]'s rarity
    /// test, `exact + Σ wᵢ·p̂ᵢ`: the weighted means are summed on their
    /// own before the exact mass is added, a different rounding from
    /// [`Strata::estimate`]'s mean.
    pub fn pilot_mean(&self) -> f64 {
        self.exact.mean + self.estimates().map(|(w, e)| w * e.mean).sum::<f64>()
    }

    /// Draws `counts[j]` more samples for sampled stratum `j` with
    /// [`refine_plan`], continuing its chunk stream, in stratum order.
    pub fn refine<P>(&mut self, pred: &P, profile: &UsageProfile, counts: &[u64])
    where
        P: BulkPred + ?Sized,
    {
        for (s, &n) in self.sampled.iter_mut().zip(counts) {
            s.accum = refine_plan(pred, &s.boxed, profile, n, s.plan, s.accum);
        }
    }
}

/// One stratum of a stratified-sampling plan: a box plus whether it is an
/// ICP *inner* box (all points known to satisfy the constraint — sampled
/// as the constant 1 with variance 0, §3.3).
#[derive(Clone, Debug)]
pub struct Stratum {
    /// The stratum's region.
    pub boxed: IntervalBox,
    /// `true` for ICP inner boxes (certainly all-solutions).
    pub certain: bool,
}

impl Stratum {
    /// A stratum that still needs sampling.
    pub fn boundary(boxed: IntervalBox) -> Stratum {
        Stratum {
            boxed,
            certain: false,
        }
    }

    /// A stratum proven to contain only solutions.
    pub fn inner(boxed: IntervalBox) -> Stratum {
        Stratum {
            boxed,
            certain: true,
        }
    }
}

/// How the total sample budget is split across strata.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Allocation {
    /// The paper's choice (§3.3): "we take the same number of samples on
    /// each strata".
    EqualPerStratum,
    /// Proportional to stratum probability mass (a classical alternative;
    /// exercised by the ablation benchmarks).
    Proportional,
    /// Variance-driven (Neyman) allocation: an equal-split pilot round
    /// spends half the budget, then the rest goes to strata proportional
    /// to `weight × stddev` of their pilot estimates — strata that
    /// turned out exact (variance 0) receive no follow-up samples. The
    /// iterative engine (`analyze_iterative`) applies the same rule
    /// across rounds.
    VarianceAdaptive,
    /// [`Allocation::VarianceAdaptive`] plus per-factor rare-event
    /// escalation: when the factor's pilot *estimate* — exact inner mass
    /// plus `Σ wᵢ·p̂ᵢ` over its sampled strata ([`Strata::pilot_mean`])
    /// — falls below the analyzer's threshold, the factor's boundary
    /// budget is handed to the paver-seeded adaptive importance-sampling
    /// engine ([`crate::is::IsEstimator`]) instead of further stratified
    /// rounds. [`initial_allocation`] treats it like `VarianceAdaptive`.
    ImportanceAdaptive,
}

/// Largest-remainder apportionment of `total` samples proportional to
/// non-negative `scores`: floors the exact shares, then hands the
/// remainder out by descending fractional part (ties to the lower
/// index). Zero-score strata receive exactly 0. The counts sum to
/// `total` (to 0 when every score is 0) — never more, which is the
/// budget-clamp the old `round().max(1)` allocation lacked.
pub fn proportional_split(total: u64, scores: &[f64]) -> Vec<u64> {
    let mut counts = vec![0u64; scores.len()];
    let positive = |s: f64| s.is_finite() && s > 0.0;
    let sum: f64 = scores.iter().copied().filter(|&s| positive(s)).sum();
    if sum <= 0.0 || sum.is_nan() || total == 0 {
        return counts;
    }
    let mut fracs: Vec<(f64, usize)> = Vec::new();
    let mut spent = 0u64;
    for (i, &s) in scores.iter().enumerate() {
        if !positive(s) {
            continue;
        }
        let exact = total as f64 * (s / sum);
        let base = (exact.floor() as u64).min(total);
        counts[i] = base;
        spent += base;
        fracs.push((exact - base as f64, i));
    }
    // Floating-point drift guard: trim any overshoot from the richest
    // strata (deterministically), then distribute what remains by
    // largest fractional part, cycling on the off chance drift left more
    // than one sample per positive-score stratum.
    while spent > total {
        let i = richest(&counts, 1);
        counts[i] -= 1;
        spent -= 1;
    }
    fracs.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let mut rem = total - spent;
    while rem > 0 && !fracs.is_empty() {
        for &(_, i) in &fracs {
            if rem == 0 {
                break;
            }
            counts[i] += 1;
            rem -= 1;
        }
    }
    counts
}

/// Index of the largest count strictly above `floor` (ties to the lower
/// index); callers guarantee one exists.
fn richest(counts: &[u64], floor: u64) -> usize {
    let mut best = usize::MAX;
    let mut max = floor;
    for (i, &c) in counts.iter().enumerate() {
        if c > max {
            max = c;
            best = i;
        }
    }
    debug_assert!(best != usize::MAX, "no stratum above the floor");
    best
}

/// Raises every count to at least one sample, paying for the bumps by
/// decrementing the richest strata so the sum never exceeds
/// `max(total, k)`: only a budget smaller than the stratum count can
/// push spending past `total`, and then by at most one sample per
/// stratum (the unavoidable cost of sampling every stratum at all).
fn enforce_floor(counts: &mut [u64], total: u64) {
    let k = counts.len() as u64;
    let mut sum: u64 = counts.iter().sum();
    for c in counts.iter_mut() {
        if *c == 0 {
            *c = 1;
            sum += 1;
        }
    }
    let cap = total.max(k);
    while sum > cap {
        let i = richest(counts, 1);
        counts[i] -= 1;
        sum -= 1;
    }
}

/// Per-stratum sample counts for the *first* (or only) sampling pass.
///
/// * [`Allocation::EqualPerStratum`] — the paper's `⌊total/k⌋` each,
///   floored at one sample (bit-compatible with every earlier release).
/// * [`Allocation::Proportional`] — largest-remainder split by stratum
///   weight with the ≥1 floor; unlike the former `round().max(1)` rule
///   the counts never exceed the budget once `total ≥ k`.
/// * [`Allocation::VarianceAdaptive`] — the equal-split *pilot* over
///   half the budget; the other half is allocated afterwards by
///   [`neyman_allocation`] from the pilot standard deviations.
///
/// Every variant gives each stratum at least one sample and exceeds
/// `total` only when `total < k` forces the floor — by at most one
/// sample per stratum.
pub fn initial_allocation(allocation: Allocation, total: u64, weights: &[f64]) -> Vec<u64> {
    let k = weights.len() as u64;
    if k == 0 {
        return Vec::new();
    }
    match allocation {
        Allocation::EqualPerStratum => vec![(total / k).max(1); weights.len()],
        Allocation::Proportional => {
            let mut counts = proportional_split(total, weights);
            if counts.iter().all(|&c| c == 0) {
                // Degenerate weights: fall back to the equal split.
                counts = vec![(total / k).max(1); weights.len()];
            }
            enforce_floor(&mut counts, total);
            counts
        }
        Allocation::VarianceAdaptive | Allocation::ImportanceAdaptive => {
            let pilot = (total / 2).max(1);
            vec![(pilot / k).max(1); weights.len()]
        }
    }
}

/// Neyman follow-up allocation: splits `total` proportional to
/// `weightᵢ × stddevᵢ` (largest remainder, no floor). Strata whose
/// observed variance is zero — exact so far — receive **zero** follow-up
/// samples; if every stratum is exact the whole budget is withheld and
/// the returned counts are all zero.
///
/// # Panics
///
/// Panics if `weights` and `stddevs` differ in length.
pub fn neyman_allocation(total: u64, weights: &[f64], stddevs: &[f64]) -> Vec<u64> {
    assert_eq!(
        weights.len(),
        stddevs.len(),
        "one standard deviation per stratum"
    );
    let scores: Vec<f64> = weights
        .iter()
        .zip(stddevs)
        .map(|(&w, &s)| (w * s).max(0.0))
        .collect();
    proportional_split(total, &scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_interval::Interval;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn unit_square() -> IntervalBox {
        [Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0)]
            .into_iter()
            .collect()
    }

    /// The paper's Table 1 boxes (b1..b4) over `[−1,1]²`.
    fn figure2_strata() -> Vec<Stratum> {
        let boxed = |x: (f64, f64), y: (f64, f64)| -> IntervalBox {
            [Interval::new(x.0, x.1), Interval::new(y.0, y.1)]
                .into_iter()
                .collect()
        };
        vec![
            Stratum::boundary(boxed((-1.0, -0.5), (-1.0, -0.5))),
            Stratum::inner(boxed((-0.5, 0.5), (-1.0, -0.5))),
            Stratum::boundary(boxed((0.5, 1.0), (-1.0, -0.5))),
            Stratum::boundary(boxed((-0.5, 0.5), (-0.5, 0.0))),
        ]
    }

    /// Hit-or-miss Monte Carlo (Eq. 2): one round from the empty
    /// accumulator.
    fn hit_or_miss(
        pred: &impl BulkPred,
        boxed: &IntervalBox,
        profile: &UsageProfile,
        n: u64,
        plan: SamplePlan,
    ) -> Estimate {
        refine_plan(pred, boxed, profile, n, plan, StratumAccum::EMPTY).estimate()
    }

    /// Stratified sampling (Eq. 3) of `total` samples by `allocation`,
    /// with the Neyman follow-up under `VarianceAdaptive`.
    fn stratified(
        pred: &impl BulkPred,
        strata: &[Stratum],
        domain: &IntervalBox,
        profile: &UsageProfile,
        total: u64,
        allocation: Allocation,
        plan: SamplePlan,
    ) -> Estimate {
        let mut s = Strata::new(strata.to_vec(), profile, domain, plan);
        let counts = initial_allocation(allocation, total, &s.weights());
        s.refine(pred, profile, &counts);
        if allocation == Allocation::VarianceAdaptive {
            let rest = total.saturating_sub(counts.iter().sum());
            s.refine(
                pred,
                profile,
                &neyman_allocation(rest, &s.weights(), &s.std_devs()),
            );
        }
        s.estimate()
    }

    #[test]
    fn unexpired_deadline_is_bit_invisible() {
        let b = unit_square();
        let p = UsageProfile::uniform(2);
        let pred = ScalarPred(|x: &[f64]| x[0] > 0.0);
        let far = Deadline::after(Duration::from_secs(3600));
        let plan = SamplePlan::serial(7);
        let bare = hit_or_miss(&pred, &b, &p, 20_000, plan);
        let with = hit_or_miss(&pred, &b, &p, 20_000, plan.with_deadline(Some(far)));
        assert_eq!(bare, with, "a live deadline must not perturb estimates");
    }

    #[test]
    fn expired_deadline_stops_drawing_but_stays_sound() {
        let b = unit_square();
        let p = UsageProfile::uniform(2);
        let pred = ScalarPred(|x: &[f64]| x[0] > 0.0);
        let past = Deadline::at(Instant::now() - Duration::from_secs(1));
        let plan = SamplePlan::serial(7);
        // Nothing drawn: the zero-sample accumulator reports 0 ± 0
        // (flagging happens at the analyzer layer, not here).
        let acc = refine_plan(
            &pred,
            &b,
            &p,
            50_000,
            plan.with_deadline(Some(past)),
            StratumAccum::EMPTY,
        );
        assert_eq!(acc.n, 0, "expired deadline drew {} samples", acc.n);
        assert_eq!(acc.hits, 0);
        assert!(!acc.dead);
        assert_eq!(acc.estimate(), Estimate::ZERO);
        // A pre-expiry accumulator survives untouched: the partial
        // estimate is exactly the work done so far.
        let pre = refine_plan(&pred, &b, &p, 8_192, plan, StratumAccum::EMPTY);
        let post = refine_plan(&pred, &b, &p, 8_192, plan.with_deadline(Some(past)), pre);
        assert_eq!((post.hits, post.n), (pre.hits, pre.n));
    }

    #[test]
    fn hit_or_miss_half_space() {
        let b = unit_square();
        let p = UsageProfile::uniform(2);
        let pred = ScalarPred(|x: &[f64]| x[0] > 0.0);
        let est = hit_or_miss(&pred, &b, &p, 20_000, SamplePlan::serial(42));
        assert!((est.mean - 0.5).abs() < 0.02, "{}", est.mean);
        assert!(est.variance > 0.0);
    }

    #[test]
    fn hit_or_miss_never_and_always() {
        let b = unit_square();
        let p = UsageProfile::uniform(2);
        let plan = SamplePlan::serial(42);
        let never = hit_or_miss(&ScalarPred(|_: &[f64]| false), &b, &p, 100, plan);
        assert_eq!(never, Estimate::ZERO);
        let always = hit_or_miss(&ScalarPred(|_: &[f64]| true), &b, &p, 100, plan);
        assert_eq!(always.mean, 1.0);
        assert_eq!(always.variance, 0.0);
    }

    /// The paper's Figure 2 / Table 1 example: the triangle
    /// `x ≤ −y ∧ y ≤ x` over `[−1,1]²` has probability exactly 1/4, and
    /// four ICP boxes cut the variance by more than an order of magnitude
    /// at the same total sample count.
    #[test]
    fn figure2_stratification_reduces_variance() {
        let pc = ScalarPred(|x: &[f64]| x[0] <= -x[1] && x[1] <= x[0]);
        let domain = unit_square();
        let profile = UsageProfile::uniform(2);
        let plan = SamplePlan::serial(1234);
        let plain = hit_or_miss(&pc, &domain, &profile, 10_000, plan);
        let strat = stratified(
            &pc,
            &figure2_strata(),
            &domain,
            &profile,
            10_000,
            Allocation::EqualPerStratum,
            plan,
        );
        assert!((plain.mean - 0.25).abs() < 0.02, "plain {}", plain.mean);
        assert!((strat.mean - 0.25).abs() < 0.01, "strat {}", strat.mean);
        assert!(
            strat.variance < plain.variance / 2.0,
            "stratified {} should beat plain {}",
            strat.variance,
            plain.variance
        );
    }

    #[test]
    fn certain_strata_need_no_samples() {
        let domain = unit_square();
        let profile = UsageProfile::uniform(2);
        let strata = vec![Stratum::inner(
            [Interval::new(-1.0, 0.0), Interval::new(-1.0, 1.0)]
                .into_iter()
                .collect(),
        )];
        let calls = AtomicUsize::new(0);
        let est = stratified(
            &ScalarPred(|_: &[f64]| {
                calls.fetch_add(1, Ordering::Relaxed);
                true
            }),
            &strata,
            &domain,
            &profile,
            1000,
            Allocation::EqualPerStratum,
            SamplePlan::serial(5),
        );
        assert_eq!(calls.into_inner(), 0, "inner strata must not be sampled");
        assert!((est.mean - 0.5).abs() < 1e-12);
        assert_eq!(est.variance, 0.0);
    }

    #[test]
    fn empty_strata_list_is_zero() {
        let domain = unit_square();
        let profile = UsageProfile::uniform(2);
        let est = stratified(
            &ScalarPred(|_: &[f64]| true),
            &[],
            &domain,
            &profile,
            1000,
            Allocation::EqualPerStratum,
            SamplePlan::serial(5),
        );
        assert_eq!(est, Estimate::ZERO);
    }

    #[test]
    fn proportional_allocation_matches_mean() {
        let pc = ScalarPred(|x: &[f64]| x[0] <= -x[1] && x[1] <= x[0]);
        let domain = unit_square();
        let profile = UsageProfile::uniform(2);
        let strata = vec![
            Stratum::boundary(
                [Interval::new(-1.0, 1.0), Interval::new(-1.0, 0.0)]
                    .into_iter()
                    .collect(),
            ),
            Stratum::boundary(
                [Interval::new(-1.0, 1.0), Interval::new(0.0, 1.0)]
                    .into_iter()
                    .collect(),
            ),
        ];
        let est = stratified(
            &pc,
            &strata,
            &domain,
            &profile,
            20_000,
            Allocation::Proportional,
            SamplePlan::serial(77),
        );
        assert!((est.mean - 0.25).abs() < 0.02, "{}", est.mean);
    }

    #[test]
    fn nonuniform_profile_changes_probability() {
        use crate::Dist;
        // X biased towards [-1, 0] with 80% of the mass; P[x > 0] = 0.2.
        let domain: IntervalBox = [Interval::new(-1.0, 1.0)].into_iter().collect();
        let profile = UsageProfile::uniform(1)
            .with_dist(0, Dist::piecewise(vec![-1.0, 0.0, 1.0], vec![4.0, 1.0]));
        let est = hit_or_miss(
            &ScalarPred(|x: &[f64]| x[0] > 0.0),
            &domain,
            &profile,
            20_000,
            SamplePlan::serial(9),
        );
        assert!((est.mean - 0.2).abs() < 0.02, "{}", est.mean);
    }

    /// Regression for the Proportional budget overshoot: the former
    /// `round().max(1)` rule could spend more than the budget even when
    /// the budget covered every stratum (e.g. two half-weight strata at
    /// an odd total rounded up on both). The largest-remainder split
    /// never exceeds the budget once `total ≥ k`.
    #[test]
    fn proportional_allocation_never_overshoots_budget() {
        for (total, weights) in [
            (11u64, vec![0.5, 0.5]),
            (101, vec![0.3, 0.3, 0.4]),
            (7, vec![0.9, 0.05, 0.05]),
            (13, vec![1.0, 1e-9, 1e-9]),
        ] {
            let counts = initial_allocation(Allocation::Proportional, total, &weights);
            let spent: u64 = counts.iter().sum();
            assert!(
                spent <= total,
                "proportional spent {spent} of budget {total} over {weights:?}"
            );
            assert!(counts.iter().all(|&c| c >= 1), "floor violated: {counts:?}");
        }
    }

    /// When the budget cannot cover one sample per stratum the floor
    /// forces `k` samples — the only overshoot any variant may commit,
    /// bounded by one sample per stratum.
    #[test]
    fn tiny_budget_floor_spends_at_most_one_per_stratum() {
        for allocation in [
            Allocation::EqualPerStratum,
            Allocation::Proportional,
            Allocation::VarianceAdaptive,
        ] {
            let weights = [0.2; 5];
            let counts = initial_allocation(allocation, 3, &weights);
            let spent: u64 = counts.iter().sum();
            assert!(
                spent <= weights.len() as u64,
                "{allocation:?} spent {spent} on a budget of 3 over 5 strata"
            );
            assert!(counts.iter().all(|&c| c >= 1));
        }
    }

    #[test]
    fn neyman_allocation_excludes_exact_strata() {
        let weights = [0.4, 0.4, 0.2];
        let stddevs = [0.5, 0.0, 0.25];
        let counts = neyman_allocation(1000, &weights, &stddevs);
        assert_eq!(counts[1], 0, "variance-0 stratum must get no follow-up");
        assert_eq!(counts.iter().sum::<u64>(), 1000, "budget fully spent");
        assert!(counts[0] > counts[2], "allocation follows weight × stddev");
        // All-exact strata: the budget is withheld entirely.
        let none = neyman_allocation(1000, &weights, &[0.0; 3]);
        assert_eq!(none, vec![0, 0, 0]);
    }

    #[test]
    fn proportional_split_is_exact_and_deterministic() {
        let counts = proportional_split(10, &[1.0, 1.0, 1.0]);
        assert_eq!(counts.iter().sum::<u64>(), 10);
        // Ties hand the remainder to the lower index first.
        assert_eq!(counts, vec![4, 3, 3]);
        assert_eq!(proportional_split(5, &[0.0, 0.0]), vec![0, 0]);
    }

    /// Refining in rounds visits fresh chunks, so the estimate depends
    /// only on the budget sequence — and a single round reproduces
    /// the unstratified [`Strata::whole`] exactly.
    #[test]
    fn refine_plan_rounds_are_deterministic() {
        let b = unit_square();
        let p = UsageProfile::uniform(2);
        let pred = ScalarPred(|x: &[f64]| x[0] > 0.0);
        let plan = SamplePlan::serial(99);
        let one_shot = refine_plan(&pred, &b, &p, 5_000, plan, StratumAccum::EMPTY);
        let mut whole = Strata::whole(b.clone(), plan);
        whole.refine(&pred, &p, &[5_000]);
        assert_eq!(one_shot.estimate(), whole.estimate());

        // Same budget sequence twice ⇒ bit-identical accumulators.
        let rounds = || {
            [1_000u64, 3_000, 777]
                .iter()
                .fold(StratumAccum::EMPTY, |acc, &add| {
                    refine_plan(&pred, &b, &p, add, plan, acc)
                })
        };
        let first = rounds();
        assert_eq!(first, rounds());
        assert_eq!(first.n, 4_777);
        assert!((first.estimate().mean - 0.5).abs() < 0.05);
        // Each round starts a fresh chunk.
        let chunk = plan.chunk;
        assert_eq!(
            first.next_chunk,
            1_000u64.div_ceil(chunk) + 3_000u64.div_ceil(chunk) + 777u64.div_ceil(chunk)
        );
    }

    /// The adaptive allocation matches the estimate and concentrates the
    /// budget on the noisy strata of the paper's Figure 2 paving.
    #[test]
    fn variance_adaptive_matches_mean_and_beats_plain() {
        let pc = ScalarPred(|x: &[f64]| x[0] <= -x[1] && x[1] <= x[0]);
        let domain = unit_square();
        let profile = UsageProfile::uniform(2);
        let strata = figure2_strata();
        let plan = SamplePlan::serial(1234);
        let adaptive = stratified(
            &pc,
            &strata,
            &domain,
            &profile,
            10_000,
            Allocation::VarianceAdaptive,
            plan,
        );
        assert!((adaptive.mean - 0.25).abs() < 0.01, "{}", adaptive.mean);
        let plain = hit_or_miss(&pc, &domain, &profile, 10_000, plan);
        assert!(
            adaptive.variance < plain.variance / 2.0,
            "adaptive {} should beat plain {}",
            adaptive.variance,
            plain.variance
        );
    }

    #[test]
    fn stratified_weights_under_nonuniform_profile() {
        use crate::Dist;
        let domain: IntervalBox = [Interval::new(-1.0, 1.0)].into_iter().collect();
        let profile = UsageProfile::uniform(1)
            .with_dist(0, Dist::piecewise(vec![-1.0, 0.0, 1.0], vec![4.0, 1.0]));
        // Inner stratum covering [0, 1]: exactly the 0.2 mass.
        let strata = vec![Stratum::inner(
            [Interval::new(0.0, 1.0)].into_iter().collect(),
        )];
        let est = stratified(
            &ScalarPred(|_: &[f64]| -> bool { unreachable!("inner strata are not sampled") }),
            &strata,
            &domain,
            &profile,
            100,
            Allocation::EqualPerStratum,
            SamplePlan::serial(13),
        );
        assert!((est.mean - 0.2).abs() < 1e-12);
        assert_eq!(est.variance, 0.0);
    }

    /// A box without conditional mass is known from its compiled draw:
    /// `refine_plan` marks the stratum dead before drawing, keeps its
    /// chunk counter, and refining it again does nothing.
    #[test]
    fn zero_mass_box_is_dead_before_drawing() {
        use crate::Dist;
        let profile = UsageProfile::uniform(1)
            .with_dist(0, Dist::piecewise(vec![-1.0, 0.0, 1.0], vec![1.0, 0.0]));
        let boxed: IntervalBox = [Interval::new(0.5, 1.0)].into_iter().collect();
        let calls = AtomicUsize::new(0);
        let pred = ScalarPred(|_: &[f64]| {
            calls.fetch_add(1, Ordering::Relaxed);
            true
        });
        let before = StratumAccum {
            hits: 3,
            n: 10,
            next_chunk: 2,
            dead: false,
        };
        let plan = SamplePlan::serial(3);
        let dead = refine_plan(&pred, &boxed, &profile, 10_000, plan, before);
        assert_eq!(
            dead,
            StratumAccum {
                dead: true,
                ..before
            }
        );
        assert_eq!(dead.estimate(), Estimate::ZERO);
        assert_eq!(
            refine_plan(&pred, &boxed, &profile, 5_000, plan, dead),
            dead
        );
        assert_eq!(calls.into_inner(), 0, "a dead stratum draws nothing");
    }
}
