//! Usage profiles: the probabilistic characterization of program inputs.
//!
//! The paper assumes inputs are distributed "according to the usage
//! profile" (§3, Eq. 1) and its implementation "uses uniform profiles
//! only" (§5). [`UsageProfile`] supports that plus the extension the
//! conclusion calls for: non-uniform inputs, both as piecewise-uniform
//! (histogram) distributions — the discretization approach of Filieri et
//! al. \[11\] — and as *continuous* marginals ([`Dist::Normal`],
//! [`Dist::Exponential`], [`Dist::TruncatedNormal`]) with exact CDF
//! masses and inverse-CDF conditional sampling (no rejection loops, so
//! sampling stays deterministic per RNG draw).
//!
//! Every marginal is interpreted *conditioned on the variable's bounded
//! domain interval*: `mass(dom, dom) == 1` for every variant, which is
//! what Eq. 1's bounded-domain problem statement requires.

use rand::Rng;
use serde::{Deserialize, Serialize};

use qcoral_interval::{Interval, IntervalBox};

/// A per-variable marginal distribution over the variable's domain
/// interval.
///
/// All variants are normalized over the domain they are queried against:
/// the distribution is *conditioned* on the variable's bounded domain
/// (and, for [`Dist::TruncatedNormal`], additionally on its own
/// truncation interval).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Uniform over the variable's domain.
    Uniform,
    /// Piecewise-uniform (histogram): `edges` are `k+1` increasing break
    /// points spanning the variable's domain; `weights` are the `k`
    /// segment probabilities (they are normalized on construction).
    Piecewise {
        /// Segment boundaries (increasing, length `k+1`).
        edges: Vec<f64>,
        /// Segment probabilities (length `k`, sums to 1).
        weights: Vec<f64>,
    },
    /// Gaussian `N(mu, sigma²)` conditioned on the variable's domain.
    Normal {
        /// Mean of the underlying (untruncated) Gaussian.
        mu: f64,
        /// Standard deviation of the underlying Gaussian (> 0).
        sigma: f64,
    },
    /// Exponential with rate `lambda`, measured from the domain's lower
    /// bound (`density ∝ λ·exp(−λ·(x − dom.lo))`) and conditioned on the
    /// domain.
    Exponential {
        /// Rate parameter (> 0). Larger ⇒ more mass near `dom.lo`.
        lambda: f64,
    },
    /// Gaussian `N(mu, sigma²)` truncated to `[lo, hi]` (then further
    /// conditioned on the variable's domain, if narrower). Outside
    /// `[lo, hi]` the mass is exactly zero.
    TruncatedNormal {
        /// Mean of the underlying Gaussian.
        mu: f64,
        /// Standard deviation of the underlying Gaussian (> 0).
        sigma: f64,
        /// Truncation lower bound.
        lo: f64,
        /// Truncation upper bound (> `lo`).
        hi: f64,
    },
}

impl Dist {
    /// Builds a histogram distribution, normalizing the weights.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 edges, edges are not strictly increasing,
    /// weights have the wrong length, are negative, or sum to zero.
    pub fn piecewise(edges: Vec<f64>, mut weights: Vec<f64>) -> Dist {
        assert!(edges.len() >= 2, "histogram needs at least one segment");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        assert_eq!(
            weights.len(),
            edges.len() - 1,
            "need one weight per segment"
        );
        assert!(
            weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "weights must be non-negative and finite"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        for w in &mut weights {
            *w /= total;
        }
        Dist::Piecewise { edges, weights }
    }

    /// Builds a domain-conditioned Gaussian.
    ///
    /// # Panics
    ///
    /// Panics unless `mu` is finite and `sigma` is finite and positive.
    pub fn normal(mu: f64, sigma: f64) -> Dist {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma > 0.0,
            "normal needs finite mu and positive finite sigma"
        );
        Dist::Normal { mu, sigma }
    }

    /// Builds a domain-anchored exponential.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda` is finite and positive.
    pub fn exponential(lambda: f64) -> Dist {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "exponential needs a positive finite rate"
        );
        Dist::Exponential { lambda }
    }

    /// Builds a truncated Gaussian over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics unless all parameters are finite, `sigma > 0` and
    /// `lo < hi`.
    pub fn truncated_normal(mu: f64, sigma: f64, lo: f64, hi: f64) -> Dist {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma > 0.0,
            "truncated normal needs finite mu and positive finite sigma"
        );
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "truncated normal needs finite lo < hi"
        );
        Dist::TruncatedNormal { mu, sigma, lo, hi }
    }

    /// Re-validates a (possibly deserialized) distribution and rebuilds
    /// it through its checked constructor, so invariants the wire format
    /// cannot enforce (normalized weights, increasing edges, positive
    /// scale parameters) hold again. Network-facing code must call this
    /// before using an untrusted `Dist`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn validated(&self) -> Result<Dist, String> {
        match self {
            Dist::Uniform => Ok(Dist::Uniform),
            Dist::Piecewise { edges, weights } => {
                if edges.len() < 2
                    || !edges.iter().all(|e| e.is_finite())
                    || !edges.windows(2).all(|w| w[0] < w[1])
                {
                    return Err("edges must be >= 2 finite, strictly increasing values".to_string());
                }
                if weights.len() != edges.len() - 1
                    || !weights.iter().all(|w| w.is_finite() && *w >= 0.0)
                    || weights.iter().sum::<f64>() <= 0.0
                {
                    return Err(
                        "need one finite non-negative weight per segment, with a positive sum"
                            .to_string(),
                    );
                }
                Ok(Dist::piecewise(edges.clone(), weights.clone()))
            }
            Dist::Normal { mu, sigma } => {
                if !(mu.is_finite() && sigma.is_finite() && *sigma > 0.0) {
                    return Err("normal needs finite mu and positive finite sigma".to_string());
                }
                Ok(Dist::normal(*mu, *sigma))
            }
            Dist::Exponential { lambda } => {
                if !(lambda.is_finite() && *lambda > 0.0) {
                    return Err("exponential needs a positive finite rate".to_string());
                }
                Ok(Dist::exponential(*lambda))
            }
            Dist::TruncatedNormal { mu, sigma, lo, hi } => {
                if !(mu.is_finite() && sigma.is_finite() && *sigma > 0.0) {
                    return Err(
                        "truncated normal needs finite mu and positive finite sigma".to_string()
                    );
                }
                if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                    return Err("truncated normal needs finite lo < hi".to_string());
                }
                Ok(Dist::truncated_normal(*mu, *sigma, *lo, *hi))
            }
        }
    }

    /// [`Dist::validated`] plus the checks that need the variable's
    /// domain interval: a [`Dist::TruncatedNormal`] whose truncation
    /// does not overlap the domain would make every mass query return 0
    /// (an exact-looking "probability 0" instead of an error), so it is
    /// rejected here.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn validated_in(&self, dom: &Interval) -> Result<Dist, String> {
        let dist = self.validated()?;
        if let Dist::TruncatedNormal { lo, hi, .. } = &dist {
            let sup = dist.support(dom);
            if sup.is_empty() || (sup.width() == 0.0 && dom.width() > 0.0) {
                return Err(format!(
                    "truncation [{lo}, {hi}] does not overlap the variable's domain [{}, {}]",
                    dom.lo(),
                    dom.hi()
                ));
            }
        }
        Ok(dist)
    }

    /// The sub-interval of `dom` the distribution can place mass on:
    /// `dom` itself for every variant except [`Dist::TruncatedNormal`],
    /// which clips to its truncation interval.
    pub fn support(&self, dom: &Interval) -> Interval {
        match self {
            Dist::TruncatedNormal { lo, hi, .. } => Interval::new(*lo, *hi).intersect(dom),
            _ => *dom,
        }
    }

    /// Raw (unconditioned) CDF of the underlying continuous law at `x`,
    /// for the continuous variants; `None` for `Uniform`/`Piecewise`
    /// (whose mass is computed segment-wise instead).
    fn raw_cdf(&self, x: f64, dom: &Interval) -> Option<f64> {
        match self {
            Dist::Uniform | Dist::Piecewise { .. } => None,
            Dist::Normal { mu, sigma } | Dist::TruncatedNormal { mu, sigma, .. } => {
                Some(std_normal_cdf((x - mu) / sigma))
            }
            Dist::Exponential { lambda } => {
                let t = (x - dom.lo()).max(0.0);
                Some(-(-lambda * t).exp_m1())
            }
        }
    }

    /// Probability mass the distribution assigns to `iv`, relative to the
    /// variable's whole domain `dom`.
    ///
    /// The mass is additive over partitions of the domain and
    /// `mass(dom, dom) == 1` (degenerate cases — empty overlap, a
    /// zero-probability support — fall back to uniform mass so the axiom
    /// holds for every variant).
    pub fn mass(&self, iv: &Interval, dom: &Interval) -> f64 {
        match self {
            Dist::Uniform => {
                let clipped = iv.intersect(dom);
                if clipped.is_empty() {
                    return 0.0;
                }
                let dw = dom.width();
                if dw == 0.0 {
                    1.0
                } else {
                    (clipped.width() / dw).min(1.0)
                }
            }
            Dist::Piecewise { edges, weights } => {
                let clipped = iv.intersect(dom);
                if clipped.is_empty() {
                    return 0.0;
                }
                let mut mass = 0.0;
                for (i, w) in weights.iter().enumerate() {
                    let seg = Interval::new(edges[i], edges[i + 1]);
                    let overlap = seg.intersect(&clipped);
                    if !overlap.is_empty() && seg.width() > 0.0 {
                        mass += w * overlap.width() / seg.width();
                    }
                }
                mass.min(1.0)
            }
            _ => {
                let sup = self.support(dom);
                let clipped = iv.intersect(&sup);
                if clipped.is_empty() {
                    return 0.0;
                }
                let flo = self.raw_cdf(sup.lo(), dom).expect("continuous");
                let fhi = self.raw_cdf(sup.hi(), dom).expect("continuous");
                let denom = fhi - flo;
                if denom <= 0.0 {
                    // The support carries no probability under the raw
                    // law (deep tail, or a point support): fall back to
                    // uniform mass so domain masses still sum to 1.
                    let sw = sup.width();
                    return if sw == 0.0 {
                        1.0
                    } else {
                        (clipped.width() / sw).min(1.0)
                    };
                }
                let fa = self.raw_cdf(clipped.lo(), dom).expect("continuous");
                let fb = self.raw_cdf(clipped.hi(), dom).expect("continuous");
                ((fb - fa) / denom).clamp(0.0, 1.0)
            }
        }
    }

    /// Samples a value from the distribution *conditioned* on lying in
    /// `iv` (which must intersect the domain). Returns `None` — without
    /// drawing from `rng`, looping, or panicking — whenever the
    /// conditional mass of `iv` is zero: an empty or zero-width clipped
    /// interval (inside a wider domain), a region outside a histogram's
    /// or truncation's support, or a tail so deep the CDF mass
    /// underflows.
    ///
    /// Continuous variants sample by inverse CDF — exactly one uniform
    /// draw per sample, never a rejection loop — so the consumed RNG
    /// stream is a deterministic function of the request.
    ///
    /// This compiles a [`DrawPlan`] and draws once from it; callers that
    /// draw many times from one interval compile the plan themselves.
    pub fn sample_in(&self, iv: &Interval, dom: &Interval, rng: &mut impl Rng) -> Option<f64> {
        self.draw_plan(iv, dom).sample(rng)
    }

    /// Compiles the conditional draw of [`Dist::sample_in`] for one
    /// interval: every check and CDF evaluation that depends only on
    /// `iv` and `dom` happens here, once, so a draw from the plan costs
    /// one uniform variate plus (for continuous variants) one quantile.
    pub fn draw_plan(&self, iv: &Interval, dom: &Interval) -> DrawPlan {
        DrawPlan(self.draw(iv, dom))
    }

    fn draw(&self, iv: &Interval, dom: &Interval) -> Draw {
        match self {
            Dist::Uniform => {
                let clipped = iv.intersect(dom);
                if clipped.is_empty() || (clipped.width() == 0.0 && dom.width() > 0.0) {
                    Draw::Empty
                } else {
                    Draw::uniform(clipped)
                }
            }
            Dist::Piecewise { edges, weights } => {
                let clipped = iv.intersect(dom);
                if clipped.is_empty() {
                    return Draw::Empty;
                }
                // Conditional masses of the overlapping segments. A zero
                // mass adds exactly nothing to the total and to the pick
                // walk, so only positive ones are kept.
                let mut segments = Vec::new();
                let mut total = 0.0;
                for (i, w) in weights.iter().enumerate() {
                    let seg = Interval::new(edges[i], edges[i + 1]);
                    let overlap = seg.intersect(&clipped);
                    if overlap.is_empty() || seg.width() == 0.0 || overlap.width() == 0.0 {
                        continue;
                    }
                    let m = w * overlap.width() / seg.width();
                    if m > 0.0 {
                        segments.push((m, overlap));
                        total += m;
                    }
                }
                if total <= 0.0 {
                    return Draw::Empty;
                }
                Draw::Piecewise { segments, total }
            }
            Dist::Normal { .. } | Dist::Exponential { .. } | Dist::TruncatedNormal { .. } => {
                let sup = self.support(dom);
                let clipped = iv.intersect(&sup);
                if clipped.is_empty() {
                    return Draw::Empty;
                }
                if clipped.width() == 0.0 {
                    // A point interval carries mass only when it *is* the
                    // whole (degenerate) support.
                    return if sup.width() == 0.0 {
                        Draw::Point(clipped.lo())
                    } else {
                        Draw::Empty
                    };
                }
                let flo = self.raw_cdf(sup.lo(), dom).expect("continuous");
                let fhi = self.raw_cdf(sup.hi(), dom).expect("continuous");
                if fhi - flo <= 0.0 {
                    // Zero-probability support: mass() falls back to
                    // uniform, so sampling does too.
                    return Draw::uniform(clipped);
                }
                let fa = self.raw_cdf(clipped.lo(), dom).expect("continuous");
                let fb = self.raw_cdf(clipped.hi(), dom).expect("continuous");
                if fb - fa <= 0.0 {
                    // The clipped interval's mass underflows: it can
                    // never be hit by an exact conditional draw.
                    return Draw::Empty;
                }
                let law = match *self {
                    Dist::Exponential { lambda } => Quantile::Exponential {
                        origin: dom.lo(),
                        lambda,
                    },
                    Dist::Normal { mu, sigma } | Dist::TruncatedNormal { mu, sigma, .. } => {
                        Quantile::Normal { mu, sigma }
                    }
                    Dist::Uniform | Dist::Piecewise { .. } => unreachable!("continuous"),
                };
                Draw::Quantile {
                    law,
                    fa,
                    span: fb - fa,
                    clipped,
                }
            }
        }
    }

    /// Probability *density* at `x`, conditioned on the domain (w.r.t.
    /// Lebesgue measure; integrates to 1 over `dom`). Zero outside the
    /// support. Degenerate supports fall back to the uniform density,
    /// matching [`Dist::mass`].
    ///
    /// This compiles a [`DensityPlan`] and evaluates it once.
    pub fn density(&self, x: f64, dom: &Interval) -> f64 {
        self.density_plan(dom).density(x)
    }

    /// Compiles [`Dist::density`] over one domain: the support, the CDF
    /// normalizer and the law's constant factors are computed once.
    pub fn density_plan(&self, dom: &Interval) -> DensityPlan {
        DensityPlan(self.density_kind(dom))
    }

    fn density_kind(&self, dom: &Interval) -> Density {
        match self {
            Dist::Uniform => Density::Flat {
                support: *dom,
                value: flat_density(dom),
            },
            Dist::Piecewise { edges, weights } => Density::Piecewise {
                dom: *dom,
                segments: weights
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (Interval::new(edges[i], edges[i + 1]), *w))
                    .filter(|(seg, _)| seg.width() > 0.0)
                    .map(|(seg, w)| (seg, w / seg.width()))
                    .collect(),
            },
            Dist::Normal { .. } | Dist::Exponential { .. } | Dist::TruncatedNormal { .. } => {
                // The support lies inside `dom`, so one containment test
                // covers both.
                let support = self.support(dom);
                let flo = self.raw_cdf(support.lo(), dom).expect("continuous");
                let fhi = self.raw_cdf(support.hi(), dom).expect("continuous");
                let denom = fhi - flo;
                if denom <= 0.0 {
                    return Density::Flat {
                        support,
                        value: flat_density(&support),
                    };
                }
                match *self {
                    Dist::Exponential { lambda } => Density::Exponential {
                        support,
                        origin: dom.lo(),
                        lambda,
                        denom,
                    },
                    Dist::Normal { mu, sigma } | Dist::TruncatedNormal { mu, sigma, .. } => {
                        Density::Normal {
                            support,
                            mu,
                            sigma,
                            scale: sigma * SQRT_TWO_PI,
                            denom,
                        }
                    }
                    Dist::Uniform | Dist::Piecewise { .. } => unreachable!("continuous"),
                }
            }
        }
    }

    /// Conditional CDF of the distribution within `dom`:
    /// `P[X ≤ x | X ∈ dom]` (clamped to `[0, 1]`). Used by the
    /// discretizer's error bound and handy for tests.
    pub fn cdf(&self, x: f64, dom: &Interval) -> f64 {
        if x <= dom.lo() {
            return 0.0;
        }
        if x >= dom.hi() {
            return 1.0;
        }
        self.mass(&Interval::new(dom.lo(), x), dom)
    }
}

/// A compiled conditional draw of one marginal on one interval, built by
/// [`Dist::draw_plan`]. Drawing from it consumes exactly the RNG values
/// [`Dist::sample_in`] would and returns the same bits.
#[derive(Clone, Debug, PartialEq)]
pub struct DrawPlan(Draw);

#[derive(Clone, Debug, PartialEq)]
enum Draw {
    /// No conditional mass: `None`, without touching the RNG.
    Empty,
    /// All the mass on one point: that point, without touching the RNG.
    Point(f64),
    /// Uniform over a positive-width interval.
    Uniform(Interval),
    /// Histogram: the positive-mass segment overlaps in order, with their
    /// total mass. One draw picks the segment, one places the point.
    Piecewise {
        segments: Vec<(f64, Interval)>,
        total: f64,
    },
    /// Inverse CDF at `fa + u·span` for one uniform `u`, clamped into
    /// `clipped` (the quantile can escape it by an ulp).
    Quantile {
        law: Quantile,
        fa: f64,
        span: f64,
        clipped: Interval,
    },
}

/// The raw quantile of a continuous marginal.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Quantile {
    /// `μ + σ·Φ⁻¹(p)`.
    Normal { mu: f64, sigma: f64 },
    /// `−ln(1−p)/λ`, measured from the domain's lower bound.
    Exponential { origin: f64, lambda: f64 },
}

impl Quantile {
    fn at(self, p: f64) -> f64 {
        match self {
            Quantile::Normal { mu, sigma } => mu + sigma * std_normal_quantile(p),
            Quantile::Exponential { origin, lambda } => origin + (-(-p).ln_1p()) / lambda,
        }
    }
}

impl Draw {
    /// Uniform over `iv`, which is non-empty: a point when it has zero
    /// width.
    fn uniform(iv: Interval) -> Draw {
        if iv.width() == 0.0 {
            Draw::Point(iv.lo())
        } else {
            Draw::Uniform(iv)
        }
    }
}

impl DrawPlan {
    /// Draws one value, or `None` when the interval carries no
    /// conditional mass (then the RNG is not touched).
    #[inline]
    pub fn sample(&self, rng: &mut impl Rng) -> Option<f64> {
        match &self.0 {
            Draw::Empty => None,
            Draw::Point(x) => Some(*x),
            Draw::Uniform(iv) => Some(rng.gen_range(iv.lo()..iv.hi())),
            Draw::Piecewise { segments, total } => {
                let mut pick = rng.gen_range(0.0..*total);
                for (m, overlap) in segments {
                    if pick < *m {
                        return Some(rng.gen_range(overlap.lo()..overlap.hi()));
                    }
                    pick -= m;
                }
                // Floating-point slack: fall back to the last overlap.
                segments.last().map(|(_, o)| rng.gen_range(o.lo()..o.hi()))
            }
            Draw::Quantile {
                law,
                fa,
                span,
                clipped,
            } => {
                let u = rng.gen_range(0.0..1.0);
                let x = law.at(fa + u * span);
                Some(x.clamp(clipped.lo(), clipped.hi()))
            }
        }
    }
}

/// A compiled marginal density over one domain, built by
/// [`Dist::density_plan`]. Evaluating it returns the bits
/// [`Dist::density`] would.
#[derive(Clone, Debug, PartialEq)]
pub struct DensityPlan(Density);

#[derive(Clone, Debug, PartialEq)]
enum Density {
    /// A constant density on `support`, zero elsewhere: the uniform law,
    /// and the uniform fallback of a zero-probability support.
    Flat { support: Interval, value: f64 },
    /// A histogram over `dom`: each positive-width segment with its
    /// density; the first segment containing the point wins.
    Piecewise {
        dom: Interval,
        segments: Vec<(Interval, f64)>,
    },
    /// `exp(−z²/2) / (σ·√(2π)) / denom` on `support`, where `scale` is
    /// `σ·√(2π)` and `denom` the raw CDF mass of the support.
    Normal {
        support: Interval,
        mu: f64,
        sigma: f64,
        scale: f64,
        denom: f64,
    },
    /// `λ·exp(−λ·(x − origin)) / denom` on `support`.
    Exponential {
        support: Interval,
        origin: f64,
        lambda: f64,
        denom: f64,
    },
}

impl DensityPlan {
    /// The density at `x`.
    #[inline]
    pub fn density(&self, x: f64) -> f64 {
        match &self.0 {
            Density::Flat { support, value } => {
                if support.contains(x) {
                    *value
                } else {
                    0.0
                }
            }
            Density::Piecewise { dom, segments } => {
                if !dom.contains(x) {
                    return 0.0;
                }
                segments
                    .iter()
                    .find(|(seg, _)| seg.contains(x))
                    .map_or(0.0, |&(_, d)| d)
            }
            Density::Normal {
                support,
                mu,
                sigma,
                scale,
                denom,
            } => {
                if !support.contains(x) {
                    return 0.0;
                }
                let z = (x - mu) / sigma;
                (-0.5 * z * z).exp() / scale / denom
            }
            Density::Exponential {
                support,
                origin,
                lambda,
                denom,
            } => {
                if !support.contains(x) {
                    return 0.0;
                }
                lambda * (-lambda * (x - origin).max(0.0)).exp() / denom
            }
        }
    }
}

/// The uniform density over `iv`: `1/width`, or `+∞` on a point.
fn flat_density(iv: &Interval) -> f64 {
    let w = iv.width();
    if w > 0.0 {
        1.0 / w
    } else {
        f64::INFINITY
    }
}

/// √(2π), for the normal density.
const SQRT_TWO_PI: f64 = 2.506_628_274_631_000_5;

/// Standard normal CDF Φ(z), double precision (Graeme West's adaptation
/// of Hart's algorithm; absolute error < 1e-15 across the range,
/// including the deep lower tail).
pub fn std_normal_cdf(z: f64) -> f64 {
    let xabs = z.abs();
    let p = if xabs > 37.0 {
        0.0
    } else {
        let ex = (-xabs * xabs / 2.0).exp();
        if xabs < 7.071_067_811_865_475 {
            let num = ((((((3.526_249_659_989_11e-2 * xabs + 0.700_383_064_443_688) * xabs
                + 6.373_962_203_531_65)
                * xabs
                + 33.912_866_078_383)
                * xabs
                + 112.079_291_497_871)
                * xabs
                + 221.213_596_169_931)
                * xabs
                + 220.206_867_912_376)
                * ex;
            let den = ((((((8.838_834_764_831_84e-2 * xabs + 1.755_667_163_182_64) * xabs
                + 16.064_177_579_207)
                * xabs
                + 86.780_732_202_946_1)
                * xabs
                + 296.564_248_779_674)
                * xabs
                + 637.333_633_378_831)
                * xabs
                + 793.826_512_519_948)
                * xabs
                + 440.413_735_824_752;
            num / den
        } else {
            let b = xabs + 0.65;
            let b = xabs + 4.0 / b;
            let b = xabs + 3.0 / b;
            let b = xabs + 2.0 / b;
            let b = xabs + 1.0 / b;
            ex / (b * 2.506_628_274_631)
        }
    };
    if z > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Standard normal quantile Φ⁻¹(p) for `p ∈ (0, 1)`: Acklam's rational
/// approximation refined with one Halley step against
/// [`std_normal_cdf`], giving ~1e-14 relative accuracy. Out-of-range `p`
/// saturates to ∓∞ (callers clamp into their interval).
pub fn std_normal_quantile(p: f64) -> f64 {
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    };
    // One Halley refinement against the high-precision CDF. Deep in the
    // tails `exp(x²/2)` overflows and the step degenerates — Acklam's
    // raw estimate is already sub-ulp there, so keep it.
    let e = std_normal_cdf(x) - p;
    let u = e * SQRT_TWO_PI * (x * x / 2.0).exp();
    let refined = x - u / (1.0 + x * u / 2.0);
    if refined.is_finite() {
        refined
    } else {
        x
    }
}

/// A joint input distribution: independent per-variable marginals over the
/// bounded input domain.
///
/// # Example
///
/// ```
/// use qcoral_mc::{Dist, UsageProfile};
///
/// // Three inputs: uniform, biased towards the lower half, and Gaussian.
/// let profile = UsageProfile::uniform(3)
///     .with_dist(1, Dist::piecewise(vec![0.0, 0.5, 1.0], vec![3.0, 1.0]))
///     .with_dist(2, Dist::normal(0.5, 0.1));
/// assert_eq!(profile.len(), 3);
/// assert!(!profile.is_uniform());
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UsageProfile {
    dists: Vec<Dist>,
}

impl UsageProfile {
    /// The paper's default: all inputs uniform over their domains.
    pub fn uniform(nvars: usize) -> UsageProfile {
        UsageProfile {
            dists: vec![Dist::Uniform; nvars],
        }
    }

    /// Replaces the marginal of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn with_dist(mut self, var: usize, dist: Dist) -> UsageProfile {
        self.dists[var] = dist;
        self
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.dists.len()
    }

    /// Returns `true` if the profile covers no variables.
    pub fn is_empty(&self) -> bool {
        self.dists.is_empty()
    }

    /// Returns `true` when every marginal is [`Dist::Uniform`] — the
    /// paper's baseline profile, for which profile-aware machinery
    /// (stratum alignment, reweighting) is a no-op.
    pub fn is_uniform(&self) -> bool {
        self.dists.iter().all(|d| matches!(d, Dist::Uniform))
    }

    /// The marginal of variable `var`.
    pub fn dist(&self, var: usize) -> &Dist {
        &self.dists[var]
    }

    /// Re-validates every marginal (see [`Dist::validated`]), rebuilding
    /// the profile through the checked constructors.
    ///
    /// # Errors
    ///
    /// Returns `(variable index, description)` of the first invalid
    /// marginal.
    pub fn validated(&self) -> Result<UsageProfile, (usize, String)> {
        let mut out = UsageProfile::uniform(self.len());
        for (i, d) in self.dists.iter().enumerate() {
            out.dists[i] = d.validated().map_err(|e| (i, e))?;
        }
        Ok(out)
    }

    /// [`UsageProfile::validated`] plus the per-variable domain checks
    /// of [`Dist::validated_in`] — the validation every consumer that
    /// knows the input domain should use.
    ///
    /// # Errors
    ///
    /// Returns `(variable index, description)` of the first invalid
    /// marginal.
    ///
    /// # Panics
    ///
    /// Panics on profile/domain dimension mismatch.
    pub fn validated_in(&self, domain: &IntervalBox) -> Result<UsageProfile, (usize, String)> {
        assert_eq!(
            domain.ndim(),
            self.len(),
            "domain/profile dimension mismatch"
        );
        let mut out = UsageProfile::uniform(self.len());
        for (i, d) in self.dists.iter().enumerate() {
            out.dists[i] = d.validated_in(&domain[i]).map_err(|e| (i, e))?;
        }
        Ok(out)
    }

    /// Restricts the profile to the given variables (in that order),
    /// aligning it with a projected box.
    pub fn project(&self, vars: &[usize]) -> UsageProfile {
        UsageProfile {
            dists: vars.iter().map(|&i| self.dists[i].clone()).collect(),
        }
    }

    /// Probability that an input drawn from the profile lands in `boxed`,
    /// where `domain` is the full input box. Both boxes must have the same
    /// dimensionality as the profile.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn box_probability(&self, boxed: &IntervalBox, domain: &IntervalBox) -> f64 {
        assert_eq!(boxed.ndim(), self.len(), "box/profile dimension mismatch");
        assert_eq!(
            domain.ndim(),
            self.len(),
            "domain/profile dimension mismatch"
        );
        self.dists
            .iter()
            .enumerate()
            .map(|(i, d)| d.mass(&boxed[i], &domain[i]))
            .product()
    }

    /// Joint probability density at `point`, conditioned on `domain`
    /// (product of the per-variable [`Dist::density`] values).
    ///
    /// This compiles a [`BoxDensity`] and evaluates it once.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn density(&self, point: &[f64], domain: &IntervalBox) -> f64 {
        assert_eq!(point.len(), self.len(), "point/profile dimension mismatch");
        self.density_plan(domain).density(point)
    }

    /// Compiles [`UsageProfile::density`] over `domain`, one
    /// [`DensityPlan`] per variable.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn density_plan(&self, domain: &IntervalBox) -> BoxDensity {
        assert_eq!(
            domain.ndim(),
            self.len(),
            "domain/profile dimension mismatch"
        );
        BoxDensity {
            dims: self
                .dists
                .iter()
                .zip(domain.dims())
                .map(|(d, dom)| d.density_plan(dom))
                .collect(),
        }
    }

    /// Draws one sample from the profile conditioned on `boxed`, writing
    /// coordinates into `out`. Returns `false` if the conditional mass of
    /// the box is zero.
    ///
    /// This compiles a [`BoxDraw`] and draws once from it.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sample_in(
        &self,
        boxed: &IntervalBox,
        domain: &IntervalBox,
        rng: &mut impl Rng,
        out: &mut [f64],
    ) -> bool {
        assert_eq!(out.len(), self.len(), "output/profile dimension mismatch");
        self.draw_plan(boxed, domain).sample(rng, out)
    }

    /// Compiles [`UsageProfile::sample_in`] for one box, one [`DrawPlan`]
    /// per variable.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn draw_plan(&self, boxed: &IntervalBox, domain: &IntervalBox) -> BoxDraw {
        assert_eq!(boxed.ndim(), self.len(), "box/profile dimension mismatch");
        assert_eq!(
            domain.ndim(),
            self.len(),
            "domain/profile dimension mismatch"
        );
        BoxDraw {
            dims: self
                .dists
                .iter()
                .zip(boxed.dims().iter().zip(domain.dims()))
                .map(|(d, (iv, dom))| d.draw_plan(iv, dom))
                .collect(),
        }
    }
}

/// A profile's conditional draw on one box, compiled once per box by
/// [`UsageProfile::draw_plan`].
#[derive(Clone, Debug, PartialEq)]
pub struct BoxDraw {
    dims: Vec<DrawPlan>,
}

impl BoxDraw {
    /// Whether the box has conditional mass: then every draw succeeds.
    pub fn has_mass(&self) -> bool {
        self.dims.iter().all(|plan| plan.0 != Draw::Empty)
    }

    /// Draws one point into `out`, variable by variable. Returns `false`
    /// if the box has zero conditional mass; the variables before the
    /// first massless one have then been drawn, as in
    /// [`UsageProfile::sample_in`].
    #[inline]
    pub fn sample(&self, rng: &mut impl Rng, out: &mut [f64]) -> bool {
        for (plan, x) in self.dims.iter().zip(out.iter_mut()) {
            match plan.sample(rng) {
                Some(v) => *x = v,
                None => return false,
            }
        }
        true
    }
}

/// A profile's joint density over one domain, compiled once by
/// [`UsageProfile::density_plan`].
#[derive(Clone, Debug, PartialEq)]
pub struct BoxDensity {
    dims: Vec<DensityPlan>,
}

impl BoxDensity {
    /// The joint density at `point`: the product of the marginal
    /// densities, in variable order.
    #[inline]
    pub fn density(&self, point: &[f64]) -> f64 {
        self.dims
            .iter()
            .zip(point)
            .map(|(plan, &x)| plan.density(x))
            .product()
    }
}

/// Parses a textual profile specification into named marginals, e.g.
///
/// ```text
/// x ~ N(0, 1); y ~ Exp(2); z ~ TN(0.5, 0.1, 0, 1); w ~ U; v ~ H(0, 0.5, 1 | 3, 1)
/// ```
///
/// Entries are `name ~ dist` pairs separated by `;`. Distributions:
///
/// * `U` — uniform over the variable's domain,
/// * `N(mu, sigma)` — domain-conditioned Gaussian,
/// * `Exp(lambda)` — exponential anchored at the domain's lower bound,
/// * `TN(mu, sigma, lo, hi)` — Gaussian truncated to `[lo, hi]`,
/// * `H(e0, …, ek | w1, …, wk)` — histogram with `k+1` edges and `k`
///   weights (normalized).
///
/// Names are case-insensitive (`n`, `exp`, `tn`, `u`, `h`). Variables
/// not mentioned stay uniform.
///
/// # Errors
///
/// Returns a human-readable description of the first malformed entry.
pub fn parse_profile_spec(spec: &str) -> Result<Vec<(String, Dist)>, String> {
    let mut out = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, dist_src) = entry
            .split_once('~')
            .ok_or_else(|| format!("`{entry}`: expected `name ~ dist`"))?;
        let name = name.trim();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(format!("`{entry}`: invalid variable name `{name}`"));
        }
        out.push((name.to_string(), parse_dist_spec(dist_src.trim())?));
    }
    if out.is_empty() {
        return Err("empty profile specification".to_string());
    }
    Ok(out)
}

/// Parses one distribution term of the [`parse_profile_spec`] grammar.
///
/// # Errors
///
/// Returns a human-readable description of the syntax error.
pub fn parse_dist_spec(src: &str) -> Result<Dist, String> {
    let src = src.trim();
    let lower = src.to_ascii_lowercase();
    if lower == "u" || lower == "uniform" {
        return Ok(Dist::Uniform);
    }
    let (func, rest) = src
        .split_once('(')
        .ok_or_else(|| format!("`{src}`: expected `U` or `fn(args)`"))?;
    let args = rest
        .strip_suffix(')')
        .ok_or_else(|| format!("`{src}`: missing closing parenthesis"))?;
    let func = func.trim().to_ascii_lowercase();
    let nums = |s: &str| -> Result<Vec<f64>, String> {
        s.split(',')
            .map(|t| {
                t.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("`{src}`: `{}` is not a number", t.trim()))
            })
            .collect()
    };
    let checked = |d: Result<Dist, String>| d.map_err(|e| format!("`{src}`: {e}"));
    match func.as_str() {
        "n" | "normal" => {
            let a = nums(args)?;
            if a.len() != 2 {
                return Err(format!("`{src}`: N takes (mu, sigma)"));
            }
            checked(
                Dist::Normal {
                    mu: a[0],
                    sigma: a[1],
                }
                .validated(),
            )
        }
        "exp" | "exponential" => {
            let a = nums(args)?;
            if a.len() != 1 {
                return Err(format!("`{src}`: Exp takes (lambda)"));
            }
            checked(Dist::Exponential { lambda: a[0] }.validated())
        }
        "tn" | "truncnormal" => {
            let a = nums(args)?;
            if a.len() != 4 {
                return Err(format!("`{src}`: TN takes (mu, sigma, lo, hi)"));
            }
            checked(
                Dist::TruncatedNormal {
                    mu: a[0],
                    sigma: a[1],
                    lo: a[2],
                    hi: a[3],
                }
                .validated(),
            )
        }
        "h" | "hist" | "histogram" => {
            let (edges, weights) = args
                .split_once('|')
                .ok_or_else(|| format!("`{src}`: H takes `edges | weights`"))?;
            checked(
                Dist::Piecewise {
                    edges: nums(edges)?,
                    weights: nums(weights)?,
                }
                .validated(),
            )
        }
        other => Err(format!("`{src}`: unknown distribution `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn uniform_mass_is_width_ratio() {
        let d = Dist::Uniform;
        assert_eq!(d.mass(&iv(0.0, 0.5), &iv(0.0, 1.0)), 0.5);
        assert_eq!(d.mass(&iv(0.0, 2.0), &iv(0.0, 1.0)), 1.0);
        assert_eq!(d.mass(&iv(2.0, 3.0), &iv(0.0, 1.0)), 0.0);
    }

    #[test]
    fn piecewise_mass() {
        // 75% mass on [0, 0.5], 25% on [0.5, 1].
        let d = Dist::piecewise(vec![0.0, 0.5, 1.0], vec![3.0, 1.0]);
        let dom = iv(0.0, 1.0);
        assert!((d.mass(&iv(0.0, 0.5), &dom) - 0.75).abs() < 1e-12);
        assert!((d.mass(&iv(0.5, 1.0), &dom) - 0.25).abs() < 1e-12);
        assert!((d.mass(&iv(0.0, 1.0), &dom) - 1.0).abs() < 1e-12);
        // Half of the first segment: 0.375.
        assert!((d.mass(&iv(0.0, 0.25), &dom) - 0.375).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn piecewise_bad_edges_panics() {
        let _ = Dist::piecewise(vec![0.0, 0.0, 1.0], vec![1.0, 1.0]);
    }

    #[test]
    fn piecewise_weights_normalized() {
        let d = Dist::piecewise(vec![0.0, 1.0, 2.0], vec![2.0, 6.0]);
        if let Dist::Piecewise { weights, .. } = &d {
            assert!((weights[0] - 0.25).abs() < 1e-12);
            assert!((weights[1] - 0.75).abs() < 1e-12);
        } else {
            unreachable!();
        }
    }

    #[test]
    fn std_normal_cdf_reference_values() {
        // Φ(0) = 0.5; Φ(1.96) ≈ 0.975; deep tails.
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((std_normal_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-12);
        assert!((std_normal_cdf(-1.0) - 0.158_655_253_931_457_05).abs() < 1e-14);
        assert!((std_normal_cdf(5.0) - 0.999_999_713_348_428).abs() < 1e-12);
        assert!(std_normal_cdf(-40.0) == 0.0);
        assert!(std_normal_cdf(40.0) == 1.0);
    }

    #[test]
    fn std_normal_quantile_inverts_cdf() {
        for p in [1e-10, 1e-4, 0.01, 0.2, 0.5, 0.7, 0.99, 1.0 - 1e-6] {
            let z = std_normal_quantile(p);
            assert!(
                (std_normal_cdf(z) - p).abs() < 1e-12 * p.max(1e-3),
                "p={p} z={z} cdf={}",
                std_normal_cdf(z)
            );
        }
        assert_eq!(std_normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(std_normal_quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn normal_mass_matches_phi() {
        // N(0, 1) conditioned on [-1, 1]: mass of [0, 1] is exactly 1/2
        // by symmetry; mass of [-1, 0.5] is (Φ(.5)−Φ(−1))/(Φ(1)−Φ(−1)).
        let d = Dist::normal(0.0, 1.0);
        let dom = iv(-1.0, 1.0);
        assert!((d.mass(&iv(0.0, 1.0), &dom) - 0.5).abs() < 1e-14);
        let expect = (std_normal_cdf(0.5) - std_normal_cdf(-1.0))
            / (std_normal_cdf(1.0) - std_normal_cdf(-1.0));
        assert!((d.mass(&iv(-1.0, 0.5), &dom) - expect).abs() < 1e-14);
        assert!((d.mass(&dom, &dom) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn exponential_mass_closed_form() {
        // Exp(2) on [0, 1]: P[x < 0.5 | x < 1] = (1−e⁻¹)/(1−e⁻²).
        let d = Dist::exponential(2.0);
        let dom = iv(0.0, 1.0);
        let expect = (1.0 - (-1.0f64).exp()) / (1.0 - (-2.0f64).exp());
        assert!((d.mass(&iv(0.0, 0.5), &dom) - expect).abs() < 1e-14);
        // Anchored at dom.lo: shifting the domain shifts the law.
        let dom2 = iv(5.0, 6.0);
        assert!((d.mass(&iv(5.0, 5.5), &dom2) - expect).abs() < 1e-14);
        assert!((d.mass(&dom2, &dom2) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn truncated_normal_support_clips() {
        let d = Dist::truncated_normal(0.5, 0.1, 0.2, 0.8);
        let dom = iv(0.0, 1.0);
        // No mass outside the truncation interval.
        assert_eq!(d.mass(&iv(0.0, 0.2), &dom), 0.0);
        assert_eq!(d.mass(&iv(0.8, 1.0), &dom), 0.0);
        assert!((d.mass(&iv(0.2, 0.8), &dom) - 1.0).abs() < 1e-14);
        // Symmetric around the mean.
        assert!((d.mass(&iv(0.2, 0.5), &dom) - 0.5).abs() < 1e-14);
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(d.sample_in(&iv(0.0, 0.2), &dom, &mut rng).is_none());
    }

    #[test]
    fn continuous_sampling_stays_in_interval_and_tracks_mass() {
        let cases: Vec<(Dist, Interval)> = vec![
            (Dist::normal(0.3, 0.2), iv(0.0, 1.0)),
            (Dist::exponential(3.0), iv(0.0, 2.0)),
            (Dist::truncated_normal(0.5, 0.15, 0.1, 0.9), iv(0.0, 1.0)),
        ];
        for (d, dom) in cases {
            let probe = iv(0.25, 0.75);
            let mid = iv(0.25, 0.5);
            let p_low = d.mass(&mid, &dom) / d.mass(&probe, &dom);
            let mut rng = SmallRng::seed_from_u64(17);
            let n = 20_000;
            let mut below = 0;
            for _ in 0..n {
                let v = d.sample_in(&probe, &dom, &mut rng).unwrap();
                assert!((0.25..=0.75).contains(&v), "{d:?} sampled {v}");
                if v < 0.5 {
                    below += 1;
                }
            }
            let frac = below as f64 / n as f64;
            assert!((frac - p_low).abs() < 0.015, "{d:?}: {frac} vs {p_low}");
        }
    }

    #[test]
    fn uniform_sampling_stays_in_box() {
        let d = Dist::Uniform;
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = d
                .sample_in(&iv(0.25, 0.5), &iv(0.0, 1.0), &mut rng)
                .unwrap();
            assert!((0.25..0.5).contains(&v));
        }
    }

    #[test]
    fn piecewise_sampling_honors_conditioning() {
        let d = Dist::piecewise(vec![0.0, 0.5, 1.0], vec![3.0, 1.0]);
        let dom = iv(0.0, 1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        // Condition on [0.25, 0.75]: mass 0.375 below 0.5 vs 0.125 above
        // → 75% of samples should fall below 0.5.
        let n = 20_000;
        let mut below = 0;
        for _ in 0..n {
            let v = d.sample_in(&iv(0.25, 0.75), &dom, &mut rng).unwrap();
            assert!((0.25..0.75).contains(&v));
            if v < 0.5 {
                below += 1;
            }
        }
        let frac = below as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn sample_outside_support_returns_none() {
        let d = Dist::piecewise(vec![0.0, 1.0], vec![1.0]);
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(d
            .sample_in(&iv(2.0, 3.0), &iv(0.0, 1.0), &mut rng)
            .is_none());
    }

    /// The rejection-edge-case contract: zero-width intervals inside a
    /// wider domain, and intervals whose clipped mass underflows, return
    /// `None` deterministically — no looping, no panic, no RNG draw.
    #[test]
    fn zero_mass_sampling_is_deterministically_none() {
        let dom = iv(0.0, 1.0);
        let point = iv(0.5, 0.5);
        let dists = [
            Dist::Uniform,
            Dist::piecewise(vec![0.0, 0.5, 1.0], vec![1.0, 1.0]),
            Dist::normal(0.5, 0.1),
            Dist::exponential(2.0),
            Dist::truncated_normal(0.5, 0.1, 0.0, 1.0),
        ];
        for d in &dists {
            let mut rng = SmallRng::seed_from_u64(9);
            assert!(
                d.sample_in(&point, &dom, &mut rng).is_none(),
                "{d:?}: zero-width interval must sample None"
            );
            // The RNG must not have been consumed: the next draw equals a
            // fresh stream's first draw.
            let mut fresh = SmallRng::seed_from_u64(9);
            assert_eq!(
                rng.gen_range(0.0..1.0),
                fresh.gen_range(0.0..1.0),
                "{d:?}: None must not consume the RNG"
            );
        }
        // A tail so deep its CDF mass underflows: deterministic None.
        let d = Dist::normal(0.0, 1e-3);
        let mut rng = SmallRng::seed_from_u64(11);
        assert!(
            d.sample_in(&iv(0.9, 1.0), &iv(-1.0, 1.0), &mut rng)
                .is_none(),
            "underflowed tail mass must sample None"
        );
        assert_eq!(d.mass(&iv(0.9, 1.0), &iv(-1.0, 1.0)), 0.0);
    }

    /// A zero-probability support falls back to uniform for both mass
    /// and sampling, keeping the domain mass at 1.
    #[test]
    fn degenerate_support_falls_back_to_uniform() {
        // N(0, σ) with the domain 40+σ away: raw mass underflows to 0.
        let d = Dist::normal(0.0, 1e-6);
        let dom = iv(1.0, 2.0);
        assert!((d.mass(&dom, &dom) - 1.0).abs() < 1e-15);
        assert!((d.mass(&iv(1.0, 1.5), &dom) - 0.5).abs() < 1e-12);
        let mut rng = SmallRng::seed_from_u64(5);
        let v = d.sample_in(&iv(1.0, 1.5), &dom, &mut rng).unwrap();
        assert!((1.0..1.5).contains(&v));
    }

    #[test]
    fn density_integrates_consistently_with_mass() {
        // Midpoint-rule integral of the density ≈ mass, per variant.
        let dom = iv(0.0, 1.0);
        for d in [
            Dist::Uniform,
            Dist::piecewise(vec![0.0, 0.25, 1.0], vec![1.0, 3.0]),
            Dist::normal(0.4, 0.2),
            Dist::exponential(1.5),
            Dist::truncated_normal(0.5, 0.2, 0.1, 0.9),
        ] {
            let probe = iv(0.3, 0.7);
            let n = 20_000;
            let h = probe.width() / n as f64;
            let integral: f64 = (0..n)
                .map(|i| d.density(probe.lo() + (i as f64 + 0.5) * h, &dom) * h)
                .sum();
            let mass = d.mass(&probe, &dom);
            assert!(
                (integral - mass).abs() < 1e-5,
                "{d:?}: ∫density {integral} vs mass {mass}"
            );
        }
    }

    #[test]
    fn validated_rejects_bad_parameters() {
        assert!(Dist::Normal {
            mu: 0.0,
            sigma: 0.0
        }
        .validated()
        .is_err());
        assert!(Dist::Normal {
            mu: f64::NAN,
            sigma: 1.0
        }
        .validated()
        .is_err());
        assert!(Dist::Exponential { lambda: -1.0 }.validated().is_err());
        assert!(Dist::TruncatedNormal {
            mu: 0.0,
            sigma: 1.0,
            lo: 1.0,
            hi: 1.0
        }
        .validated()
        .is_err());
        assert!(Dist::Piecewise {
            edges: vec![0.0, 0.0],
            weights: vec![1.0]
        }
        .validated()
        .is_err());
        assert!(Dist::normal(0.0, 1.0).validated().is_ok());
    }

    #[test]
    fn validated_in_rejects_domain_disjoint_truncations() {
        let dom = iv(0.0, 1.0);
        // Well-formed in isolation, but no mass can land in the domain:
        // accepted by validated(), rejected by validated_in().
        let d = Dist::truncated_normal(5.5, 0.5, 5.0, 6.0);
        assert!(d.validated().is_ok());
        let err = d.validated_in(&dom).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
        // Touching at a single point (zero-width support) is just as
        // unusable inside a wider domain.
        let point = Dist::truncated_normal(1.5, 0.5, 1.0, 2.0);
        assert!(point.validated_in(&dom).is_err());
        // Overlapping truncations and every other variant pass through.
        assert!(Dist::truncated_normal(0.5, 0.1, 0.25, 2.0)
            .validated_in(&dom)
            .is_ok());
        assert!(Dist::normal(5.0, 1.0).validated_in(&dom).is_ok());
        let profile =
            UsageProfile::uniform(2).with_dist(1, Dist::truncated_normal(5.5, 0.5, 5.0, 6.0));
        let dbox: IntervalBox = [iv(0.0, 1.0), iv(0.0, 1.0)].into_iter().collect();
        assert_eq!(profile.validated_in(&dbox).unwrap_err().0, 1);
    }

    #[test]
    fn profile_spec_parses_every_variant() {
        let spec = "x ~ N(0, 1); y~Exp(2) ;z ~ TN(0.5, 0.1, 0, 1); u ~ U; h ~ H(0, 0.5, 1 | 3, 1)";
        let named = parse_profile_spec(spec).unwrap();
        assert_eq!(named.len(), 5);
        assert_eq!(named[0], ("x".to_string(), Dist::normal(0.0, 1.0)));
        assert_eq!(named[1], ("y".to_string(), Dist::exponential(2.0)));
        assert_eq!(
            named[2],
            ("z".to_string(), Dist::truncated_normal(0.5, 0.1, 0.0, 1.0))
        );
        assert_eq!(named[3], ("u".to_string(), Dist::Uniform));
        assert_eq!(
            named[4],
            (
                "h".to_string(),
                Dist::piecewise(vec![0.0, 0.5, 1.0], vec![3.0, 1.0])
            )
        );
    }

    #[test]
    fn profile_spec_rejects_malformed_entries() {
        for bad in [
            "",
            "x N(0,1)",
            "x ~ N(0)",
            "x ~ N(0, -1)",
            "x ~ Q(1)",
            "x ~ H(0, 1)",
            "x ~ Exp(two)",
            "x! ~ U",
        ] {
            assert!(parse_profile_spec(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn profile_box_probability_is_product() {
        let p = UsageProfile::uniform(2);
        let dom: IntervalBox = [iv(0.0, 1.0), iv(0.0, 2.0)].into_iter().collect();
        let b: IntervalBox = [iv(0.0, 0.5), iv(0.0, 0.5)].into_iter().collect();
        assert!((p.box_probability(&b, &dom) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn profile_projection() {
        let p = UsageProfile::uniform(3).with_dist(2, Dist::piecewise(vec![0.0, 1.0], vec![1.0]));
        let q = p.project(&[2, 0]);
        assert_eq!(q.len(), 2);
        assert!(matches!(q.dist(0), Dist::Piecewise { .. }));
        assert!(matches!(q.dist(1), Dist::Uniform));
    }

    #[test]
    fn profile_sampling_fills_every_dim() {
        let p = UsageProfile::uniform(3).with_dist(1, Dist::normal(0.0, 0.5));
        let dom: IntervalBox = [iv(0.0, 1.0), iv(-1.0, 1.0), iv(5.0, 6.0)]
            .into_iter()
            .collect();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut out = [0.0; 3];
        assert!(p.sample_in(&dom, &dom, &mut rng, &mut out));
        assert!(dom.contains_point(&out));
    }

    #[test]
    fn degenerate_point_dimension() {
        let p = UsageProfile::uniform(1);
        let dom: IntervalBox = [iv(2.0, 2.0)].into_iter().collect();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut out = [0.0];
        assert!(p.sample_in(&dom, &dom, &mut rng, &mut out));
        assert_eq!(out[0], 2.0);
        assert_eq!(p.box_probability(&dom, &dom), 1.0);
    }

    #[test]
    fn continuous_point_domain_is_exact() {
        // A zero-width domain carries all the mass at its single point,
        // for continuous variants too.
        let p = UsageProfile::uniform(1).with_dist(0, Dist::normal(0.0, 1.0));
        let dom: IntervalBox = [iv(2.0, 2.0)].into_iter().collect();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut out = [0.0];
        assert!(p.sample_in(&dom, &dom, &mut rng, &mut out));
        assert_eq!(out[0], 2.0);
        assert_eq!(p.box_probability(&dom, &dom), 1.0);
    }
}
