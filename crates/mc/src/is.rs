//! Paver-seeded adaptive importance sampling for rare-event factors.
//!
//! Stratified hit-or-miss sampling (the [`crate::sampler`] engine, §3.3
//! of the paper) collapses when the probability being estimated is tiny:
//! nearly every stratum reports zero hits, the per-stratum variance
//! model degenerates to `0 ± 0`, and variance-driven allocation has
//! nothing to steer by. This module implements the cross-entropy-style
//! adaptive importance-sampling (IS) estimator that the analyzer
//! switches to when a factor's pilot *estimate* (exact inner mass plus
//! `Σ wᵢ·p̂ᵢ` over the boundary strata) falls below a threshold —
//! the approach of Luo et al., *Symbolic Parallel Adaptive Importance
//! Sampling for Probabilistic Program Analysis* (SYMPAIS), grounded in
//! this workspace's ICP paver instead of a general constraint solver.
//!
//! # How the proposal is built
//!
//! The ICP paver already computes where the satisfying set lives: the
//! *inner* boxes are certainly all-solutions (their probability mass is
//! exact) and the *boundary* boxes are the only places where sampling is
//! needed. The proposal distribution `q` is a mixture with one component
//! per boundary box. Each component splits its density between an
//! *adaptive* part — per dimension an independent truncated normal
//! ([`Dist::truncated_normal`]) centered on the box midpoint with scale
//! proportional to the box width — and two fixed *defensive* parts: the
//! usage profile itself truncated to the box (`π(x)/mass_j`), which
//! hard-bounds the importance weights
//! (`w ≤ mass_j/(weight_j·EXPLORE_PROFILE)` inside box `j`) and keeps
//! probing where the profile puts its mass, and a uniform share over
//! the box, which finds first hits on satisfying regions that sit where
//! the profile density is smallest — no matter where the normals drift
//! (the `EXPLORE_PROFILE`/`EXPLORE_UNIFORM` constants). Mixture weights
//! start proportional to each box's exact profile mass
//! ([`UsageProfile::box_probability`]).
//!
//! Each sample drawn from `q` is reweighted by the exact profile density
//! over the exact proposal density, `w(x) = π(x) / q(x)` (both sides
//! supplied by the [`Dist`] machinery). The accumulator ([`IsAccum`])
//! tracks the moments of `t = w·1[hit]` and of `w`, and
//! [`IsEstimator::estimate`] reports the **plain** IS estimate
//!
//! ```text
//! p̂ = t̄        (unbiased: q is exactly normalized)
//! ```
//!
//! Every mixture component integrates to exactly 1 over its box, so
//! `E_q[w·1[hit]]` *is* the boundary probability — no normalizing
//! constant needs estimating. That is precisely the situation where
//! self-normalizing (`p̂ = M_b · t̄/w̄`, with `M_b` the exact π-mass of
//! the boundary boxes) hurts: the ratio's denominator `w̄` estimates
//! `M_b`, which is already known exactly, and its variance explodes once
//! adaptation tilts `q` toward the conditional hit distribution rather
//! than toward `π`. The plain form's variance depends only on the hit
//! terms and *shrinks* to zero as `q` approaches `π·1[hit]/p`. The
//! moments of `w` serve only the coverage correction of
//! [`IsAccum::unbiased`].
//!
//! # Compiled components
//!
//! Everything a sample needs that depends only on a component's box is
//! compiled once, at seeding and again at each refit: the truncated
//! normals' draws and densities ([`crate::DrawPlan`],
//! [`crate::DensityPlan`]), the profile's draw conditioned on the box
//! ([`crate::BoxDraw`]), and the profile's density over the sub-box
//! ([`crate::BoxDensity`]). A sample then costs its uniform variates,
//! its quantiles and its density terms, nothing else.
//!
//! `q(x)` sums `weight_j · q_j(x)` over all components, and `q_j(x)` is
//! an exact `0.0` unless `x` lies in box `j` (closed). A point drawn from
//! component `k` lies in box `k`, so box `j` can contain it only if the
//! two boxes intersect. [`Mixture::density_near`] therefore sums over
//! `k`'s neighbor list — the components whose boxes intersect box `k`,
//! in component order — and, within it, over the boxes that contain the
//! point, so it skips only terms that are `weight_j · 0.0 = +0.0`. Adding `+0.0` changes at most the sign of a zero partial sum,
//! and that difference vanishes at the next kept term (every term is
//! `≥ +0.0`, and `k`'s own term is always kept). The kept terms are the
//! same products added in the same order, so the sum is bit-identical to
//! the full scan. A point that rounding placed outside its own box gets
//! the full scan. The lists are built once per seeding by a
//! sort-and-sweep along the axis with the fewest overlapping pairs, so
//! even the service's 4 096-box pavings never cost all pairs.
//!
//! # Adaptation
//!
//! Between rounds the mixture is refit toward the hit population
//! (cross-entropy style): component weights move toward the share of
//! total hit weight each component produced, and component means/scales
//! move toward the weighted mean/spread of the hits it generated, with
//! exponential smoothing so no component's weight collapses to zero
//! while the estimate is still settling. Every round draws from the
//! mixture frozen at the round's start, so each round is conditionally
//! unbiased and all rounds merge into one sound accumulator.
//!
//! # Determinism
//!
//! Sampling runs on the chunk executor of
//! [`crate::sampler::refine_plan`]: chunk `c` of the estimator's
//! stream always seeds its RNG with `mix_seed(plan.seed, c)`, chunk
//! results are reduced in chunk order, and the cross-entropy refit is a
//! pure function of chunk-ordered sufficient statistics — so any
//! re-partitioning of the same per-round budget sequence produces
//! bit-identical estimates.

use crate::estimate::Estimate;
use crate::profile::{BoxDensity, BoxDraw, DensityPlan, Dist, DrawPlan, UsageProfile};
use crate::sampler::{run_chunks, BulkPred, SamplePlan};
use qcoral_interval::{Interval, IntervalBox};
use rand::{rngs::SmallRng, Rng};
use serde::{Deserialize, Serialize};

/// Rare-event threshold: under `ImportanceAdaptive` allocation, a factor
/// whose stratified pilot *estimates* a probability below this switches
/// from stratified sampling to adaptive IS.
pub const IS_THRESHOLD: f64 = 0.01;

/// Exponential-smoothing factor of the cross-entropy refit: how far the
/// mixture moves toward the hit population each round.
const SMOOTHING: f64 = 0.7;

/// Defensive anchor of the mixture weights: component `j`'s weight
/// never drops below `WEIGHT_ANCHOR` times its initial profile-mass
/// share `mass_j/M_b`. Without it one lucky round can collapse the
/// refit onto the single box that happened to produce hits, leaving
/// every other box's contribution to be recovered by rare, huge-weight
/// draws that a finite run may simply never make (a confidently wrong
/// underestimate). With it every box keeps receiving draws in
/// proportion to its mass, and combined with [`EXPLORE_PROFILE`] the
/// importance weights obey one uniform hard bound across all boxes:
/// `w ≤ M_b / (WEIGHT_ANCHOR · EXPLORE_PROFILE)`.
const WEIGHT_ANCHOR: f64 = 0.3;

/// Component scales never shrink below this fraction of the box width,
/// so a refit toward a tight hit cluster cannot starve the box's tails.
const SIGMA_FLOOR: f64 = 0.05;

/// Fraction of each component's density reserved for the *profile*
/// defensive branch: the usage profile itself truncated to the box,
/// `π(x)/mass_j`. This hard-bounds the importance weights inside box
/// `j` — `q ≥ weight_j·EXPLORE_PROFILE·π/mass_j`, so
/// `w = π/q ≤ mass_j/(weight_j·EXPLORE_PROFILE)` — and it keeps probing
/// the regions of each box where the profile puts its mass, which is
/// where dominant hit contributions (`π·1[hit]`) live when `π` varies
/// by orders of magnitude across a coarse box (deep profile tails).
const EXPLORE_PROFILE: f64 = 0.2;

/// Fraction of each component's density reserved for the *uniform*
/// defensive branch, uniform over the box. This is the geometric
/// complement of [`EXPLORE_PROFILE`]: in a box straddling the
/// constraint surface the satisfying side can sit exactly where the
/// profile density is smallest (the profile branch rarely looks there),
/// but a uniform draw lands on it with probability proportional to its
/// volume — so first hits are found and the refit has data to adapt on.
const EXPLORE_UNIFORM: f64 = 0.2;

/// The adaptive share of each component's density (what the truncated
/// normals carry after both defensive branches take their cut).
const ADAPT: f64 = 1.0 - EXPLORE_PROFILE - EXPLORE_UNIFORM;

/// One mixture component, confined to a boundary box: an `ADAPT` share
/// of per-dimension truncated normals (the adaptive part) plus fixed
/// defensive shares of the box-truncated profile and of the uniform
/// distribution over the box. Its draws and densities are compiled once
/// per seeding or refit.
#[derive(Clone, Debug)]
pub struct Component {
    /// The boundary box this component is truncated to.
    pub boxed: IntervalBox,
    /// Per-dimension location of the adaptive normals.
    pub mu: Vec<f64>,
    /// Per-dimension scale of the adaptive normals.
    pub sigma: Vec<f64>,
    /// The adaptive normals' compiled draws, one per dimension (rebuilt
    /// on refit).
    normal_draws: Vec<DrawPlan>,
    /// The adaptive normals' compiled densities over the box, one per
    /// dimension (rebuilt on refit).
    normal_densities: Vec<DensityPlan>,
    /// The profile's compiled draw conditioned on the box (fixed).
    profile_draw: BoxDraw,
    /// Cached reciprocal of the box's exact profile mass, the
    /// normalizer of the profile defensive share.
    inv_mass: f64,
    /// Cached uniform density over the box (1 / volume), the
    /// normalizer of the uniform defensive share.
    inv_vol: f64,
    /// The box's initial profile-mass share `mass_j / M_b` — the base
    /// of the [`WEIGHT_ANCHOR`] floor, fixed at seeding.
    mass_share: f64,
}

impl Component {
    fn new(boxed: IntervalBox, profile_draw: BoxDraw, inv_mass: f64) -> Component {
        let mu = boxed.center();
        let sigma: Vec<f64> = boxed.dims().iter().map(|iv| 0.5 * iv.width()).collect();
        let (normal_draws, normal_densities) = compile_normals(&boxed, &mu, &sigma);
        Component {
            inv_vol: 1.0 / boxed.volume(),
            boxed,
            mu,
            sigma,
            normal_draws,
            normal_densities,
            profile_draw,
            inv_mass,
            mass_share: 0.0,
        }
    }

    /// Moves the adaptive normals to `mu`/`sigma` and recompiles them;
    /// the defensive shares do not change.
    fn retune(&mut self, mu: Vec<f64>, sigma: Vec<f64>) {
        (self.normal_draws, self.normal_densities) = compile_normals(&self.boxed, &mu, &sigma);
        self.mu = mu;
        self.sigma = sigma;
    }

    /// Proposal density of this component at `point` (zero outside its
    /// box), given the profile's density `pi` at the same point; does
    /// not include the mixture weight.
    fn density(&self, point: &[f64], pi: f64) -> f64 {
        if !self.boxed.contains_point(point) {
            return 0.0;
        }
        let mut d = 1.0;
        for (plan, &x) in self.normal_densities.iter().zip(point) {
            d *= plan.density(x);
        }
        EXPLORE_PROFILE * pi * self.inv_mass + EXPLORE_UNIFORM * self.inv_vol + ADAPT * d
    }

    /// Draws one point from the component into `point`. Returns `false`
    /// when a dimension's conditional mass underflows (the sample is
    /// then counted as a zero-weight miss by the caller).
    pub fn sample(&self, rng: &mut SmallRng, point: &mut [f64]) -> bool {
        let u = rng.gen_range(0.0..1.0);
        if u < EXPLORE_PROFILE {
            return self.profile_draw.sample(rng, point);
        }
        if u < EXPLORE_PROFILE + EXPLORE_UNIFORM {
            for (dim, iv) in self.boxed.dims().iter().enumerate() {
                point[dim] = iv.lo() + rng.gen_range(0.0..1.0) * iv.width();
            }
            return true;
        }
        for (plan, x) in self.normal_draws.iter().zip(point.iter_mut()) {
            match plan.sample(rng) {
                Some(v) => *x = v,
                None => return false,
            }
        }
        true
    }
}

/// The draws and the densities of the adaptive normals `N(mu, sigma²)`
/// truncated to `boxed`, one per dimension.
fn compile_normals(
    boxed: &IntervalBox,
    mu: &[f64],
    sigma: &[f64],
) -> (Vec<DrawPlan>, Vec<DensityPlan>) {
    boxed
        .dims()
        .iter()
        .zip(mu.iter().zip(sigma))
        .map(|(iv, (&m, &s))| {
            let normal = Dist::truncated_normal(m, s, iv.lo(), iv.hi());
            (normal.draw_plan(iv, iv), normal.density_plan(iv))
        })
        .unzip()
}

/// A truncated-normal mixture proposal over the paver's boundary boxes.
#[derive(Clone, Debug)]
pub struct Mixture {
    /// The components, in boundary-box order (fixed for determinism).
    pub components: Vec<Component>,
    /// Normalized mixture weights, one per component.
    weights: Vec<f64>,
    /// For each component, the components whose boxes intersect its box.
    neighbors: Neighbors,
}

impl Mixture {
    /// Seeds a mixture from the paver's boundary boxes: one component
    /// per box with positive profile mass, centered on the box midpoint,
    /// scaled to half the box width, weighted by the box's exact mass.
    ///
    /// Returns `None` when no usable component exists — no boundary
    /// boxes, every box carries zero profile mass, or a box/domain
    /// dimension is degenerate (zero width) — in which case the caller
    /// falls back to stratified sampling.
    pub fn seeded(
        boundary: &[IntervalBox],
        profile: &UsageProfile,
        domain: &IntervalBox,
    ) -> Option<Mixture> {
        if domain.dims().iter().any(|iv| iv.width() <= 0.0) {
            return None;
        }
        let mut components = Vec::new();
        let mut weights = Vec::new();
        for boxed in boundary {
            if boxed.dims().iter().any(|iv| iv.width() <= 0.0) {
                continue;
            }
            let mass = profile.box_probability(boxed, domain);
            if mass <= 0.0 || !mass.is_finite() {
                continue;
            }
            let draw = profile.draw_plan(boxed, domain);
            components.push(Component::new(boxed.clone(), draw, 1.0 / mass));
            weights.push(mass);
        }
        if components.is_empty() {
            return None;
        }
        let total: f64 = weights.iter().sum();
        for (c, w) in components.iter_mut().zip(&mut weights) {
            *w /= total;
            c.mass_share = *w;
        }
        let neighbors = Neighbors::of(&components);
        Some(Mixture {
            components,
            weights,
            neighbors,
        })
    }

    /// Exact proposal density `q(point)`, given the profile's density
    /// `pi` at the same point: the weighted sum over every component
    /// whose box contains the point. Paver boxes are disjoint up to
    /// shared faces, so in practice at most one term is non-zero.
    pub fn density(&self, point: &[f64], pi: f64) -> f64 {
        self.components
            .iter()
            .zip(&self.weights)
            .map(|(c, &w)| w * c.density(point, pi))
            .sum()
    }

    /// [`Mixture::density`] at a point drawn from component `k`, summed
    /// only over the components in `k`'s neighbor list whose boxes
    /// contain the point: bit-identical, because every skipped term is an
    /// exact zero (see the module docs). A point outside `k`'s own box
    /// falls back to the full scan.
    pub fn density_near(&self, k: usize, point: &[f64], pi: f64) -> f64 {
        if !self.neighbors.contains(k, point) {
            return self.density(point, pi);
        }
        self.neighbors
            .of_component(k)
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| self.neighbors.contains(j, point))
            .map(|j| self.weights[j] * self.components[j].density(point, pi))
            .sum()
    }

    /// Picks a component index by mixture weight with one uniform draw.
    fn pick(&self, rng: &mut SmallRng) -> usize {
        let mut u = rng.gen_range(0.0..1.0);
        for (k, &w) in self.weights.iter().enumerate() {
            if u < w {
                return k;
            }
            u -= w;
        }
        self.weights.len() - 1
    }

    /// Cross-entropy refit toward the hit population: a pure function of
    /// the chunk-ordered sufficient statistics, smoothed so weights and
    /// scales never collapse. A round with no hits leaves the mixture
    /// untouched (the caller skips the call).
    fn refit(&mut self, ce: &CeStats) {
        let total_w: f64 = ce.sum_w.iter().sum();
        if total_w.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        let k = self.components.len();
        let mut weights: Vec<f64> = Vec::with_capacity(k);
        for (i, (c, &w)) in self.components.iter_mut().zip(&self.weights).enumerate() {
            let target = ce.sum_w[i] / total_w;
            weights.push(SMOOTHING * target + (1.0 - SMOOTHING) * w);
            if ce.sum_w[i] > 0.0 {
                let mut mu = Vec::with_capacity(c.mu.len());
                let mut sigma = Vec::with_capacity(c.mu.len());
                for d in 0..c.mu.len() {
                    let iv = &c.boxed[d];
                    let m_ce = (ce.sum_wx[i][d] / ce.sum_w[i]).clamp(iv.lo(), iv.hi());
                    let var_ce = (ce.sum_wx2[i][d] / ce.sum_w[i] - m_ce * m_ce).max(0.0);
                    let s_floor = SIGMA_FLOOR * iv.width();
                    let s_ce = var_ce.sqrt().max(s_floor);
                    mu.push(SMOOTHING * m_ce + (1.0 - SMOOTHING) * c.mu[d]);
                    sigma.push((SMOOTHING * s_ce + (1.0 - SMOOTHING) * c.sigma[d]).max(s_floor));
                }
                c.retune(mu, sigma);
            }
        }
        // Defensive mixture of the weights: the adapted shares are
        // blended with the fixed profile-mass shares, so no box's
        // weight can collapse below `WEIGHT_ANCHOR · mass_share` on
        // the evidence of one lucky round.
        let total: f64 = weights.iter().sum();
        for ((c, slot), w) in self.components.iter().zip(&mut self.weights).zip(weights) {
            *slot = WEIGHT_ANCHOR * c.mass_share + (1.0 - WEIGHT_ANCHOR) * w / total;
        }
    }
}

/// Per-component lists of the components whose closed boxes intersect
/// its box (itself included, ascending), in compressed-row form, plus
/// every box's bounds in one flat array for the containment tests of
/// [`Mixture::density_near`].
#[derive(Clone, Debug)]
struct Neighbors {
    /// `lists[starts[k]..starts[k + 1]]` is component `k`'s list.
    starts: Vec<usize>,
    lists: Vec<u32>,
    /// Component `k`'s box is `bounds[2·ndim·k..2·ndim·(k + 1)]`, as
    /// `[lo₀, hi₀, lo₁, hi₁, …]`.
    bounds: Vec<f64>,
    ndim: usize,
}

impl Neighbors {
    /// Builds the lists by sort-and-sweep along the axis with the fewest
    /// overlapping pairs, so the cost is `O(d·n log n)` plus the pairs
    /// that overlap on that axis, never all pairs.
    fn of(components: &[Component]) -> Neighbors {
        let n = components.len();
        let boxes: Vec<&[Interval]> = components.iter().map(|c| c.boxed.dims()).collect();
        let ndim = boxes.first().map_or(0, |b| b.len());
        let mut pairs: Vec<Vec<u32>> = (0..n as u32).map(|k| vec![k]).collect();
        if ndim == 0 {
            // Zero-dimensional boxes are all the same point.
            pairs = vec![(0..n as u32).collect(); n];
        } else if n > 1 {
            let sorted_on = |axis: usize| -> Vec<usize> {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| boxes[a][axis].lo().total_cmp(&boxes[b][axis].lo()));
                order
            };
            // Pairs overlapping on `axis`: for each box, the boxes after
            // it in `lo` order whose `lo` does not pass its `hi`.
            let overlaps_on = |axis: usize, order: &[usize]| -> usize {
                let los: Vec<f64> = order.iter().map(|&k| boxes[k][axis].lo()).collect();
                order
                    .iter()
                    .enumerate()
                    .map(|(p, &k)| {
                        let hi = boxes[k][axis].hi();
                        los.partition_point(|&lo| lo <= hi).saturating_sub(p + 1)
                    })
                    .sum()
            };
            let (axis, order) = (0..ndim)
                .map(|axis| {
                    let order = sorted_on(axis);
                    (overlaps_on(axis, &order), axis, order)
                })
                .min_by_key(|(count, _, _)| *count)
                .map(|(_, axis, order)| (axis, order))
                .expect("at least one axis");
            for (p, &a) in order.iter().enumerate() {
                let hi = boxes[a][axis].hi();
                for &b in order[p + 1..]
                    .iter()
                    .take_while(|&&b| boxes[b][axis].lo() <= hi)
                {
                    let meet = boxes[a]
                        .iter()
                        .zip(boxes[b])
                        .all(|(x, y)| x.lo() <= y.hi() && y.lo() <= x.hi());
                    if meet {
                        pairs[a].push(b as u32);
                        pairs[b].push(a as u32);
                    }
                }
            }
        }
        let mut starts = Vec::with_capacity(n + 1);
        let mut lists = Vec::new();
        starts.push(0);
        for mut list in pairs {
            list.sort_unstable();
            lists.extend_from_slice(&list);
            starts.push(lists.len());
        }
        let bounds = boxes
            .iter()
            .flat_map(|b| b.iter().flat_map(|iv| [iv.lo(), iv.hi()]))
            .collect();
        Neighbors {
            starts,
            lists,
            bounds,
            ndim,
        }
    }

    fn of_component(&self, k: usize) -> &[u32] {
        &self.lists[self.starts[k]..self.starts[k + 1]]
    }

    /// Whether component `k`'s closed box contains `point`: the test of
    /// `IntervalBox::contains_point`, on the flat bounds.
    #[inline]
    fn contains(&self, k: usize, point: &[f64]) -> bool {
        let span = 2 * self.ndim;
        self.bounds[span * k..span * (k + 1)]
            .chunks_exact(2)
            .zip(point)
            .all(|(iv, &x)| x >= iv[0] && x <= iv[1])
    }
}

/// Accumulated moments of the plain IS estimator.
///
/// Per sample it pushes the pair `(t, w)` with `t = w·1[hit]`; the
/// estimate is `t̄` (see [`IsAccum::unbiased`]), and the moments of `w`
/// drive its coverage correction. Accumulation is Welford-style and
/// merging Chan-style — the same discipline as [`crate::Moments`] — so
/// chunk accumulators merged in chunk order reproduce the serial stream
/// bit for bit.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IsAccum {
    n: u64,
    hits: u64,
    mean_t: f64,
    mean_w: f64,
    m2_t: f64,
    m2_w: f64,
}

impl IsAccum {
    /// The state before any sampling.
    pub const EMPTY: IsAccum = IsAccum {
        n: 0,
        hits: 0,
        mean_t: 0.0,
        mean_w: 0.0,
        m2_t: 0.0,
        m2_w: 0.0,
    };

    /// Folds in one sample with importance weight `w` and hit flag.
    pub fn push(&mut self, w: f64, hit: bool) {
        let t = if hit { w } else { 0.0 };
        if hit {
            self.hits += 1;
        }
        self.n += 1;
        let n = self.n as f64;
        let dt = t - self.mean_t;
        let dw = w - self.mean_w;
        self.mean_t += dt / n;
        self.mean_w += dw / n;
        self.m2_t += dt * (t - self.mean_t);
        self.m2_w += dw * (w - self.mean_w);
    }

    /// Merges another accumulator (Chan's parallel update). Order
    /// matters for bit-identity: callers merge in chunk/round order.
    pub fn merge(&mut self, other: &IsAccum) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let (n1, n2) = (self.n as f64, other.n as f64);
        let n = n1 + n2;
        let dt = other.mean_t - self.mean_t;
        let dw = other.mean_w - self.mean_w;
        self.m2_t += other.m2_t + dt * dt * n1 * n2 / n;
        self.m2_w += other.m2_w + dw * dw * n1 * n2 / n;
        self.mean_t += dt * n2 / n;
        self.mean_w += dw * n2 / n;
        self.n += other.n;
        self.hits += other.hits;
    }

    /// Samples accumulated so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Hits accumulated so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// The plain (unbiased) IS estimate: mean `t̄`, variance
    /// `s²_t / n`, clamped to `[0, mass]`. Valid because the proposal
    /// mixture is exactly normalized over its support (see the module
    /// docs); this is the estimator [`IsEstimator::estimate`] reports.
    ///
    /// The reported variance carries a *coverage correction*: the
    /// weights satisfy `E_q[w] = mass` exactly (the profile mass of the
    /// proposal's support), so when the observed `w̄` sits significantly
    /// below `mass` the proposal has demonstrably not yet visited
    /// regions carrying profile mass — regions the sample variance of
    /// `t` is blind to. In that regime the variance is inflated by
    /// `(mass/w̄)²`, which keeps the standard error honest until the
    /// mixture adapts (and collapses back to the plain `s²_t/n` once
    /// `w̄` is statistically consistent with `mass`).
    pub fn unbiased(&self, mass: f64) -> Estimate {
        if self.n == 0 {
            return Estimate::ZERO;
        }
        let mean = self.mean_t.clamp(0.0, mass);
        let var = if self.n < 2 {
            0.0
        } else {
            let nf = self.n as f64;
            let base = (self.m2_t / (nf - 1.0) / nf).max(0.0);
            let se_w = (self.m2_w / (nf - 1.0) / nf).max(0.0).sqrt();
            let covered = self.mean_w + 3.0 * se_w;
            if self.mean_w > 0.0 && covered < mass {
                base * (mass / self.mean_w) * (mass / self.mean_w)
            } else {
                base
            }
        };
        Estimate::new(mean, var)
    }
}

/// Chunk-ordered sufficient statistics of the hit population, per
/// component: total hit weight and weighted first/second coordinate
/// moments. Drives [`Mixture::refit`].
#[derive(Clone, Debug)]
struct CeStats {
    sum_w: Vec<f64>,
    sum_wx: Vec<Vec<f64>>,
    sum_wx2: Vec<Vec<f64>>,
}

impl CeStats {
    fn new(k: usize, ndim: usize) -> CeStats {
        CeStats {
            sum_w: vec![0.0; k],
            sum_wx: vec![vec![0.0; ndim]; k],
            sum_wx2: vec![vec![0.0; ndim]; k],
        }
    }

    fn add(&mut self, k: usize, w: f64, point: &[f64]) {
        self.sum_w[k] += w;
        for (d, &x) in point.iter().enumerate() {
            self.sum_wx[k][d] += w * x;
            self.sum_wx2[k][d] += w * x * x;
        }
    }

    fn merge(&mut self, other: &CeStats) {
        for k in 0..self.sum_w.len() {
            self.sum_w[k] += other.sum_w[k];
            for d in 0..self.sum_wx[k].len() {
                self.sum_wx[k][d] += other.sum_wx[k][d];
                self.sum_wx2[k][d] += other.sum_wx2[k][d];
            }
        }
    }
}

/// What one adaptation round drew and found.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// Samples actually drawn (short of the request only on deadline
    /// expiry).
    pub drawn: u64,
    /// Samples that satisfied the predicate.
    pub hits: u64,
}

/// The per-factor adaptive importance-sampling estimator.
///
/// Seed it from the paver's boundary boxes, then call
/// [`IsEstimator::round`] once per adaptation round; every round draws
/// from the mixture frozen at the round's start, folds the
/// importance-weighted contributions into the running [`IsAccum`], and
/// refits the mixture toward the hits. [`IsEstimator::estimate`] is a
/// plain [`Estimate`], so the analyzer composes IS factors with
/// stratified ones through the unchanged Eq. 7–8 algebra.
///
/// The estimator owns what it needs of the profile and the factor's
/// sub-box from seeding on: the profile's density over the sub-box and
/// each component's draws, all compiled once.
#[derive(Clone, Debug)]
pub struct IsEstimator {
    /// The current proposal mixture.
    pub mixture: Mixture,
    /// The profile's compiled density over the sub-box (`π`).
    profile_density: BoxDensity,
    ndim: usize,
    accum: IsAccum,
    next_chunk: u64,
    mass: f64,
}

impl IsEstimator {
    /// Seeds the estimator from the paver's boundary boxes; `None` means
    /// no usable proposal exists and the caller must stay stratified.
    /// `mass` is computed exactly as the sum of the boxes' profile
    /// masses (paver boxes are disjoint).
    pub fn seeded(
        boundary: &[IntervalBox],
        profile: &UsageProfile,
        domain: &IntervalBox,
    ) -> Option<IsEstimator> {
        let mixture = Mixture::seeded(boundary, profile, domain)?;
        let mass = mixture
            .components
            .iter()
            .map(|c| profile.box_probability(&c.boxed, domain))
            .sum();
        Some(IsEstimator {
            mixture,
            profile_density: profile.density_plan(domain),
            ndim: domain.ndim(),
            accum: IsAccum::EMPTY,
            next_chunk: 0,
            mass,
        })
    }

    /// Runs one adaptation round of `add` samples under `plan`.
    ///
    /// The round's chunks continue the estimator's lifetime chunk stream
    /// on the sampler's chunk executor (chunk `c` seeds
    /// `mix_seed(plan.seed, c)`; the deadline stops further chunks),
    /// chunk accumulators merge in chunk order, and the refit consumes
    /// chunk-ordered statistics — so the outcome depends only on the
    /// sequence of per-round budgets.
    pub fn round<P>(&mut self, pred: &P, add: u64, plan: SamplePlan) -> RoundReport
    where
        P: BulkPred + ?Sized,
    {
        if add == 0 {
            return RoundReport::default();
        }
        let ndim = self.ndim;
        let k = self.mixture.components.len();
        let mixture = &self.mixture;
        let profile_density = &self.profile_density;
        let mut point = vec![0.0; ndim];
        let (chunks, nchunks) = run_chunks(&plan, self.next_chunk, add, |rng, len| {
            let mut acc = IsAccum::EMPTY;
            let mut ce = CeStats::new(k, ndim);
            for _ in 0..len {
                let ki = mixture.pick(rng);
                if !mixture.components[ki].sample(rng, &mut point) {
                    acc.push(0.0, false);
                    continue;
                }
                let pi = profile_density.density(&point);
                let q = mixture.density_near(ki, &point, pi);
                let w = if q > 0.0 && pi.is_finite() {
                    pi / q
                } else {
                    0.0
                };
                let hit = w > 0.0 && pred.holds(&point);
                acc.push(w, hit);
                if hit {
                    ce.add(ki, w, &point);
                }
            }
            (acc, ce)
        });
        // Fixed reduction order: each chunk folds straight into the
        // lifetime accumulator in chunk-index order, exactly like the
        // stratified engine's integer sums. Folding chunks directly
        // (rather than via a per-round intermediate) keeps the merge
        // tree a pure left fold over the chunk stream, so splitting a
        // budget across rounds cannot perturb the float results.
        let mut ce = CeStats::new(k, ndim);
        let mut report = RoundReport::default();
        for (len, (acc, stats)) in &chunks {
            report.drawn += len;
            report.hits += acc.hits();
            self.accum.merge(acc);
            ce.merge(stats);
        }
        self.next_chunk += nchunks;
        if report.hits > 0 {
            self.mixture.refit(&ce);
        }
        report
    }

    /// The current estimate of the *boundary* probability (the caller
    /// adds the exact inner-box mass on top): the plain unbiased IS
    /// form — see the module docs for why it dominates the
    /// self-normalized ratio here.
    pub fn estimate(&self) -> Estimate {
        self.accum.unbiased(self.mass)
    }

    /// Samples drawn over all rounds.
    pub fn samples(&self) -> u64 {
        self.accum.count()
    }

    /// Hits observed over all rounds.
    pub fn hits(&self) -> u64 {
        self.accum.hits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{Deadline, ScalarPred};
    use qcoral_interval::Interval;
    use std::time::{Duration, Instant};

    fn unit_box(n: usize) -> IntervalBox {
        (0..n).map(|_| Interval::new(0.0, 1.0)).collect()
    }

    fn tiny_corner() -> (IntervalBox, Vec<IntervalBox>, f64) {
        // P[x < 1e-4 ∧ y < 1e-4] over U[0,1]²: 1e-8 exactly.
        let domain = unit_box(2);
        let boundary = vec![[Interval::new(0.0, 2e-4), Interval::new(0.0, 2e-4)]
            .into_iter()
            .collect()];
        (domain, boundary, 1e-8)
    }

    #[test]
    fn is_accum_matches_plain_mean_on_constant_weights() {
        // With w ≡ 1 the IS estimate is the plain hit rate.
        let mut acc = IsAccum::EMPTY;
        for i in 0..1000 {
            acc.push(1.0, i % 10 == 0);
        }
        let est = acc.unbiased(1.0);
        assert!((est.mean - 0.1).abs() < 1e-12);
        assert!(est.variance > 0.0);
    }

    #[test]
    fn is_accum_merge_matches_serial_pushes_bitwise() {
        let samples: Vec<(f64, bool)> = (0..500)
            .map(|i| (0.5 + (i % 7) as f64 * 0.1, i % 13 == 0))
            .collect();
        let mut serial = IsAccum::EMPTY;
        for &(w, h) in &samples {
            serial.push(w, h);
        }
        let mut merged = IsAccum::EMPTY;
        for chunk in samples.chunks(64) {
            let mut part = IsAccum::EMPTY;
            for &(w, h) in chunk {
                part.push(w, h);
            }
            merged.merge(&part);
        }
        // Chan-merge is not bit-identical to the serial push stream in
        // general, but the *estimator* contract is: the engine always
        // merges the same chunk partition in the same order. Here we
        // check the merge math agrees to fp tolerance.
        let (a, b) = (serial.unbiased(1.0), merged.unbiased(1.0));
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.variance - b.variance).abs() < 1e-15);
    }

    #[test]
    fn estimator_recovers_rare_corner_probability() {
        let (domain, boundary, truth) = tiny_corner();
        let profile = UsageProfile::uniform(2);
        let mut is = IsEstimator::seeded(&boundary, &profile, &domain).expect("seedable");
        let pred = ScalarPred(|p: &[f64]| p[0] < 1e-4 && p[1] < 1e-4);
        let plan = SamplePlan::serial(42);
        for _ in 0..4 {
            is.round(&pred, 4096, plan);
        }
        let est = is.estimate();
        assert!(is.hits() > 100, "IS must concentrate on the corner");
        assert!(
            (est.mean - truth).abs() < 4.0 * est.std_dev() + 1e-12,
            "mean {} vs truth {truth} (σ {})",
            est.mean,
            est.std_dev()
        );
        assert!(est.mean > 0.0 && est.std_dev() < truth);
    }

    #[test]
    fn round_split_does_not_change_the_stream() {
        // 2 rounds of 1024 vs 1 round of 2048: the chunk streams visited
        // are identical, and with refits disabled by zero hits the
        // accumulators match bitwise.
        let domain = unit_box(1);
        let boundary = vec![unit_box(1)];
        let profile = UsageProfile::uniform(1);
        let pred = ScalarPred(|_: &[f64]| false);
        let plan = SamplePlan {
            chunk: 256,
            ..SamplePlan::serial(3)
        };
        let mut a = IsEstimator::seeded(&boundary, &profile, &domain).unwrap();
        a.round(&pred, 1024, plan);
        a.round(&pred, 1024, plan);
        let mut b = IsEstimator::seeded(&boundary, &profile, &domain).unwrap();
        b.round(&pred, 2048, plan);
        assert_eq!(a.samples(), b.samples());
        assert_eq!(a.accum, b.accum);
    }

    #[test]
    fn zero_mass_boundary_means_no_estimator() {
        let domain = unit_box(1);
        // Zero-width box: measure zero under the profile.
        let boundary = vec![[Interval::new(0.5, 0.5)].into_iter().collect()];
        let profile = UsageProfile::uniform(1);
        assert!(IsEstimator::seeded(&boundary, &profile, &domain).is_none());
        assert!(IsEstimator::seeded(&[], &profile, &domain).is_none());
    }

    #[test]
    fn refit_concentrates_weight_on_the_hitting_component() {
        let domain = unit_box(1);
        let boundary: Vec<IntervalBox> = vec![
            [Interval::new(0.0, 0.1)].into_iter().collect(),
            [Interval::new(0.9, 1.0)].into_iter().collect(),
        ];
        let profile = UsageProfile::uniform(1);
        let pred = ScalarPred(|p: &[f64]| p[0] < 0.05);
        let mut is = IsEstimator::seeded(&boundary, &profile, &domain).unwrap();
        let w0 = is.mixture.weights[0];
        let plan = SamplePlan::serial(11);
        for _ in 0..3 {
            is.round(&pred, 2048, plan);
        }
        assert!(
            is.mixture.weights[0] > w0,
            "hitting component must gain weight: {} -> {}",
            w0,
            is.mixture.weights[0]
        );
        let est = is.estimate();
        assert!((est.mean - 0.05).abs() < 4.0 * est.std_dev() + 1e-9);
    }

    /// The chunk executor's deadline polling, seen from IS: a deadline
    /// that has not passed changes nothing, bit for bit.
    #[test]
    fn unexpired_deadline_is_bit_invisible() {
        let (domain, boundary, _) = tiny_corner();
        let profile = UsageProfile::uniform(2);
        let pred = ScalarPred(|p: &[f64]| p[0] < 1e-4 && p[1] < 1e-4);
        let far = Deadline::after(Duration::from_secs(3600));
        let plan = SamplePlan {
            chunk: 512,
            ..SamplePlan::serial(7)
        };
        let run = |plan: SamplePlan| {
            let mut is = IsEstimator::seeded(&boundary, &profile, &domain).unwrap();
            for _ in 0..3 {
                is.round(&pred, 3000, plan);
            }
            is
        };
        let (bare, with) = (run(plan), run(plan.with_deadline(Some(far))));
        assert_eq!(
            bare.accum, with.accum,
            "a live deadline must not perturb IS"
        );
        assert_eq!(bare.mixture.weights, with.mixture.weights);
    }

    /// An expired deadline stops drawing: the round reports nothing
    /// drawn, and `samples()` counts only the chunks that completed, so
    /// the estimate stands as it was.
    #[test]
    fn expired_deadline_stops_drawing_but_stays_sound() {
        let (domain, boundary, _) = tiny_corner();
        let profile = UsageProfile::uniform(2);
        let pred = ScalarPred(|p: &[f64]| p[0] < 1e-4 && p[1] < 1e-4);
        let past = Deadline::at(Instant::now() - Duration::from_secs(1));
        let plan = SamplePlan {
            chunk: 512,
            ..SamplePlan::serial(7)
        };
        let mut is = IsEstimator::seeded(&boundary, &profile, &domain).unwrap();
        let report = is.round(&pred, 3000, plan.with_deadline(Some(past)));
        assert_eq!(report, RoundReport::default(), "expired deadline drew");
        assert_eq!(is.samples(), 0);
        assert_eq!(is.estimate(), Estimate::ZERO);
        // A round before expiry survives untouched.
        is.round(&pred, 3000, plan);
        let (drawn, accum) = (is.samples(), is.accum);
        assert_eq!(drawn, 3000);
        let late = is.round(&pred, 3000, plan.with_deadline(Some(past)));
        assert_eq!(late.drawn, 0);
        assert_eq!((is.samples(), is.accum), (drawn, accum));
    }
}
