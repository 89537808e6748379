//! Statistical estimates and the paper's composition algebra.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A statistical estimator summarized by its expected value and variance.
///
/// Produced by hit-or-miss sampling (Eq. 2) and composed with the rules of
/// §4: [`Estimate::sum`] for disjoint path conditions (Eq. 5–6) and
/// [`Estimate::product`] for independent conjuncts (Eq. 7–8).
///
/// # Example
///
/// ```
/// use qcoral_mc::Estimate;
///
/// let a = Estimate::from_hits(550, 1000);
/// let b = Estimate::from_hits(190, 1000);
/// let both = a.sum(b); // disjoint events
/// assert!((both.mean - 0.74).abs() < 1e-12);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Expected value of the estimator.
    pub mean: f64,
    /// Variance of the estimator (an upper bound after disjoint-sum
    /// composition, per Theorem 1).
    pub variance: f64,
}

impl Estimate {
    /// The zero estimate (probability 0, no uncertainty).
    pub const ZERO: Estimate = Estimate {
        mean: 0.0,
        variance: 0.0,
    };

    /// The unit estimate (probability 1, no uncertainty) — the value of an
    /// ICP *inner* box, where sampling is unnecessary (§3.3).
    pub const ONE: Estimate = Estimate {
        mean: 1.0,
        variance: 0.0,
    };

    /// Creates an estimate with the given mean and variance.
    ///
    /// # Panics
    ///
    /// Panics if the variance is negative or either value is NaN.
    pub fn new(mean: f64, variance: f64) -> Estimate {
        assert!(
            !mean.is_nan() && !variance.is_nan() && variance >= 0.0,
            "invalid estimate (mean {mean}, variance {variance})"
        );
        Estimate { mean, variance }
    }

    /// The hit-or-miss estimator of Eq. 2: mean `hits/n`, variance
    /// `x̄(1−x̄)/n` (binomial).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `hits > n`.
    pub fn from_hits(hits: u64, n: u64) -> Estimate {
        assert!(n > 0, "hit-or-miss needs at least one sample");
        assert!(hits <= n, "more hits than samples");
        let mean = hits as f64 / n as f64;
        Estimate {
            mean,
            variance: mean * (1.0 - mean) / n as f64,
        }
    }

    /// Standard deviation `sqrt(variance)` — the paper reports σ, which is
    /// in the same unit scale as the estimate (§6.2).
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Composition for *disjoint* events (paper Eq. 4–6, Theorem 1): the
    /// means add exactly; the summed variance is a sound *upper bound*
    /// because the covariance of indicator estimators of disjoint events
    /// is non-positive.
    ///
    /// The same formula is exact when the two estimators are independent,
    /// which is how stratified sampling combines strata (Eq. 3, with the
    /// weights already folded in by [`Estimate::scale`]).
    pub fn sum(self, other: Estimate) -> Estimate {
        Estimate {
            mean: self.mean + other.mean,
            variance: self.variance + other.variance,
        }
    }

    /// Composition for *independent* events (paper Eq. 7–8): used for the
    /// conjunction of constraints over disjoint variable sets.
    ///
    /// `E[XY] = E[X]E[Y]`,
    /// `Var[XY] = E[X]²Var[Y] + E[Y]²Var[X] + Var[X]Var[Y]`.
    pub fn product(self, other: Estimate) -> Estimate {
        Estimate {
            mean: self.mean * other.mean,
            variance: self.mean * self.mean * other.variance
                + other.mean * other.mean * self.variance
                + self.variance * other.variance,
        }
    }

    /// Scales the estimator by a constant weight: `E[wX] = w·E[X]`,
    /// `Var[wX] = w²·Var[X]`. Used to weight strata by their relative size
    /// (Eq. 3).
    pub fn scale(self, w: f64) -> Estimate {
        Estimate {
            mean: w * self.mean,
            variance: w * w * self.variance,
        }
    }
}

impl Default for Estimate {
    /// The default estimate is [`Estimate::ZERO`].
    fn default() -> Estimate {
        Estimate::ZERO
    }
}

/// Mergeable running moments: Welford's online algorithm in the
/// parallel-merge form of Chan et al., tracking count, mean and the sum
/// of squared deviations `M2`.
///
/// Partial aggregates built independently — per chunk, per round, per
/// thread — combine with [`Moments::merge`] into the same moments a
/// single sequential pass would produce (up to floating-point rounding;
/// merge in a **fixed order** when bit-reproducibility matters, exactly
/// like the samplers reduce strata in index order).
///
/// This is the general mergeable form for real-valued observations —
/// used by the statistical-soundness harness to aggregate run
/// dispersions, and the shape any future non-Bernoulli estimator slots
/// into. The adaptive sampler itself refines hit-or-miss strata with
/// the *integer* degenerate case of this algebra
/// (`StratumAccum` in the sampler module: for 0/1 data the Welford
/// merge collapses to summing hit counts, [`Moments::from_hits`] being
/// the exact closed form), which is what keeps cross-round refinement
/// bit-exact rather than merely rounding-stable.
///
/// # Example
///
/// ```
/// use qcoral_mc::Moments;
///
/// let mut left = Moments::default();
/// let mut right = Moments::default();
/// for x in [1.0, 2.0] { left.push(x); }
/// for x in [3.0, 4.0] { right.push(x); }
/// let all = left.merge(right);
/// assert_eq!(all.count(), 4);
/// assert!((all.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    /// The empty aggregate (merging it is the identity).
    pub const EMPTY: Moments = Moments {
        n: 0,
        mean: 0.0,
        m2: 0.0,
    };

    /// Folds one observation in (Welford's update).
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Combines two partial aggregates (Chan et al. parallel merge).
    pub fn merge(self, other: Moments) -> Moments {
        if self.n == 0 {
            return other;
        }
        if other.n == 0 {
            return self;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * (other.n as f64 / n as f64);
        let m2 = self.m2 + other.m2 + d * d * (self.n as f64 * other.n as f64 / n as f64);
        Moments { n, mean, m2 }
    }

    /// The exact moments of `hits` ones and `n − hits` zeros:
    /// mean `p = hits/n`, `M2 = n·p(1−p)`.
    ///
    /// # Panics
    ///
    /// Panics if `hits > n`.
    pub fn from_hits(hits: u64, n: u64) -> Moments {
        assert!(hits <= n, "more hits than samples");
        if n == 0 {
            return Moments::EMPTY;
        }
        let p = hits as f64 / n as f64;
        Moments {
            n,
            mean: p,
            m2: n as f64 * p * (1.0 - p),
        }
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance `M2/(n−1)` (0 when `n < 2`).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).max(0.0)
        }
    }

    /// Population variance `M2/n` (0 when empty).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.m2 / self.n as f64).max(0.0)
        }
    }

    /// The estimator of the mean: `mean ± sample_variance/n` — the same
    /// shape hit-or-miss sampling reports (Eq. 2 uses the population
    /// variance; for Bernoulli data at realistic `n` the two agree to
    /// within `1/n`).
    pub fn estimator(&self) -> Estimate {
        if self.n == 0 {
            return Estimate::ZERO;
        }
        Estimate::new(self.mean, self.sample_variance() / self.n as f64)
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} (σ {:.3e})", self.mean, self.std_dev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_hits_matches_eq2() {
        let e = Estimate::from_hits(2577, 10_000);
        assert!((e.mean - 0.2577).abs() < 1e-12);
        let expected_var = 0.2577 * (1.0 - 0.2577) / 10_000.0;
        assert!((e.variance - expected_var).abs() < 1e-15);
    }

    #[test]
    fn from_hits_extremes_have_zero_variance() {
        assert_eq!(Estimate::from_hits(0, 100).variance, 0.0);
        assert_eq!(Estimate::from_hits(100, 100).variance, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn from_hits_zero_samples_panics() {
        let _ = Estimate::from_hits(0, 0);
    }

    #[test]
    #[should_panic(expected = "more hits")]
    fn from_hits_overflow_panics() {
        let _ = Estimate::from_hits(5, 3);
    }

    #[test]
    fn sum_adds_means_and_variances() {
        let a = Estimate::new(0.55, 0.0);
        let b = Estimate::new(0.188089, 1.64094e-6);
        let s = a.sum(b);
        assert!((s.mean - 0.738089).abs() < 1e-9);
        assert!((s.variance - 1.64094e-6).abs() < 1e-12);
    }

    #[test]
    fn product_matches_eq7_eq8() {
        // The paper's §4.4 worked example: X̂2,1 (mean .45, var 0) times
        // X̂2,2 (mean .417975, var 8.103406e-6) = X̂2 with mean .188089,
        // var 1.64094e-6.
        let x21 = Estimate::new(0.45, 0.0);
        let x22 = Estimate::new(0.417975, 8.103406e-6);
        let x2 = x21.product(x22);
        assert!((x2.mean - 0.18808875).abs() < 1e-8, "{}", x2.mean);
        assert!((x2.variance - 0.45 * 0.45 * 8.103406e-6).abs() < 1e-12);
    }

    #[test]
    fn product_full_variance_term() {
        let a = Estimate::new(0.5, 0.01);
        let b = Estimate::new(0.25, 0.04);
        let p = a.product(b);
        let expected = 0.25 * 0.04 + 0.0625 * 0.01 + 0.01 * 0.04;
        assert!((p.variance - expected).abs() < 1e-15);
        assert!((p.mean - 0.125).abs() < 1e-15);
    }

    #[test]
    fn scale_squares_variance() {
        let e = Estimate::new(0.5, 0.25).scale(0.5);
        assert_eq!(e.mean, 0.25);
        assert_eq!(e.variance, 0.0625);
    }

    #[test]
    fn identities() {
        let e = Estimate::new(0.3, 0.01);
        assert_eq!(e.sum(Estimate::ZERO), e);
        assert_eq!(e.product(Estimate::ONE), e);
        assert_eq!(e.product(Estimate::ZERO), Estimate::ZERO);
    }

    #[test]
    fn display_shows_mean_and_sigma() {
        let s = Estimate::new(0.25, 0.0001).to_string();
        assert!(s.contains("0.250000"));
        assert!(s.contains("1.000e-2"));
    }

    #[test]
    fn moments_merge_matches_sequential() {
        let xs = [0.5, -1.25, 3.0, 0.0, 2.5, -0.75, 1.0];
        let mut seq = Moments::default();
        for &x in &xs {
            seq.push(x);
        }
        let (a, b) = xs.split_at(3);
        let mut left = Moments::default();
        let mut right = Moments::default();
        for &x in a {
            left.push(x);
        }
        for &x in b {
            right.push(x);
        }
        let merged = left.merge(right);
        assert_eq!(merged.count(), seq.count());
        assert!((merged.mean() - seq.mean()).abs() < 1e-12);
        assert!((merged.sample_variance() - seq.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn moments_merge_identity_and_empty() {
        let mut m = Moments::default();
        m.push(2.0);
        m.push(4.0);
        assert_eq!(m.merge(Moments::EMPTY), m);
        assert_eq!(Moments::EMPTY.merge(m), m);
        assert_eq!(Moments::EMPTY.estimator(), Estimate::ZERO);
    }

    #[test]
    fn moments_from_hits_is_exact() {
        // 3 ones and 5 zeros, pushed one by one, equals the closed form.
        let mut seq = Moments::default();
        for _ in 0..3 {
            seq.push(1.0);
        }
        for _ in 0..5 {
            seq.push(0.0);
        }
        let closed = Moments::from_hits(3, 8);
        assert_eq!(closed.count(), 8);
        assert!((closed.mean() - seq.mean()).abs() < 1e-12);
        assert!((closed.population_variance() - seq.population_variance()).abs() < 1e-12);
        // And refinement merges exactly: (3/8) ⊕ (2/4) = 5/12.
        let merged = closed.merge(Moments::from_hits(2, 4));
        let direct = Moments::from_hits(5, 12);
        assert_eq!(merged.count(), direct.count());
        assert!((merged.mean() - direct.mean()).abs() < 1e-12);
        assert!((merged.population_variance() - direct.population_variance()).abs() < 1e-12);
    }

    #[test]
    fn moments_estimator_tracks_hit_or_miss_shape() {
        let m = Moments::from_hits(2500, 10_000);
        let e = m.estimator();
        assert!((e.mean - 0.25).abs() < 1e-12);
        // Sample variance /n vs Eq. 2's population variance /n: equal to
        // within the n/(n−1) correction.
        let eq2 = Estimate::from_hits(2500, 10_000);
        assert!((e.variance - eq2.variance).abs() < eq2.variance / 1000.0);
    }
}
