//! Error-bounded discretization of continuous marginals, and
//! profile-aligned stratification.
//!
//! The paper's recipe for non-uniform usage profiles (attributed to
//! Filieri et al. \[11\]) is to *discretize* each continuous marginal
//! into a piecewise-uniform histogram. [`discretize`] does that
//! adaptively: a bin is bisected until the distribution's CDF deviates
//! from the bin's linear (i.e. uniform-within-bin) approximation by at
//! most `epsilon` — so bins are dense where the density curves (peaks,
//! knees) and coarse where it is flat, and the total approximation error
//! of treating the profile as uniform-per-bin is bounded per bin.
//!
//! The same bin edges drive *profile-aligned stratification*
//! ([`align_strata`]): ICP pavings split the domain by constraint
//! geometry only; slicing each boundary stratum along the marginals'
//! mass edges yields strata whose probability weights — which is what
//! proportional/Neyman allocation spends the sample budget by — track
//! the profile instead of box volume. Under a uniform profile both
//! functions are exact no-ops, preserving the paper's baseline behavior
//! bit for bit.

use qcoral_interval::{Interval, IntervalBox};

use crate::profile::{Dist, UsageProfile};
use crate::sampler::Stratum;

/// Hard ceiling on bins per marginal: `epsilon → 0` must not hang.
pub const MAX_BINS: usize = 1 << 10;

/// Relative bin-width floor: bins are never split below
/// `domain width × MIN_REL_WIDTH` (beyond it, f64 midpoints degenerate).
const MIN_REL_WIDTH: f64 = 1e-9;

/// Maximum CDF deviation of `dist` from the linear interpolation between
/// the bin's endpoint CDF values, probed at the quarter points — the
/// discretizer's per-bin mass-linearization error.
fn linearization_error(dist: &Dist, bin: &Interval, dom: &Interval) -> f64 {
    let (a, b) = (bin.lo(), bin.hi());
    let (fa, fb) = (dist.cdf(a, dom), dist.cdf(b, dom));
    let mut worst = 0.0f64;
    for t in [0.25, 0.5, 0.75] {
        let x = a + t * (b - a);
        let lin = fa + t * (fb - fa);
        worst = worst.max((dist.cdf(x, dom) - lin).abs());
    }
    worst
}

/// Discretizes a marginal over the domain interval `dom` into an
/// error-bounded adaptive histogram ([`Dist::Piecewise`]).
///
/// Bins are bisected until the per-bin mass-linearization error (the
/// worst CDF deviation from per-bin uniformity) is at most `epsilon`,
/// subject to the [`MAX_BINS`] ceiling. `Uniform` and `Piecewise`
/// marginals are returned unchanged — they are already exactly piecewise
/// uniform (zero linearization error). A [`Dist::TruncatedNormal`] whose
/// support is narrower than the domain contributes its support bounds as
/// edges, with explicit zero-weight bins outside (so edges still span
/// the domain, as `Piecewise` requires).
///
/// The result is *canonical*: a pure function of `(dist, dom, epsilon)`,
/// independent of evaluation order — which is what lets discretized
/// edges participate in cache keys and deterministic stratification.
pub fn discretize(dist: &Dist, dom: &Interval, epsilon: f64) -> Dist {
    match dist {
        Dist::Uniform | Dist::Piecewise { .. } => dist.clone(),
        _ => {
            let sup = dist.support(dom);
            if sup.is_empty() || sup.width() == 0.0 || dom.width() == 0.0 {
                return Dist::Uniform;
            }
            let epsilon = epsilon.max(1e-12);
            // In-order worklist bisection: bins come out sorted.
            let mut edges: Vec<f64> = vec![sup.lo()];
            let mut stack: Vec<Interval> = vec![sup];
            let min_width = dom.width() * MIN_REL_WIDTH;
            while let Some(bin) = stack.pop() {
                let splittable = edges.len() < MAX_BINS && bin.width() > min_width;
                if splittable && linearization_error(dist, &bin, dom) > epsilon {
                    let mid = bin.midpoint();
                    // Left half first so edges stay sorted; guard the
                    // pathological midpoint == endpoint case.
                    if mid > bin.lo() && mid < bin.hi() {
                        stack.push(Interval::new(mid, bin.hi()));
                        stack.push(Interval::new(bin.lo(), mid));
                        continue;
                    }
                }
                edges.push(bin.hi());
            }
            // Pad to the full domain with zero-weight bins so the
            // histogram spans `dom` (Piecewise requires spanning edges).
            let mut full_edges = Vec::with_capacity(edges.len() + 2);
            if dom.lo() < edges[0] {
                full_edges.push(dom.lo());
            }
            full_edges.extend(edges.iter().copied());
            if dom.hi() > *full_edges.last().expect("at least one edge") {
                full_edges.push(dom.hi());
            }
            let weights: Vec<f64> = full_edges
                .windows(2)
                .map(|w| dist.mass(&Interval::new(w[0], w[1]), dom))
                .collect();
            if weights.iter().sum::<f64>() <= 0.0 {
                return Dist::Uniform;
            }
            Dist::piecewise(full_edges, weights)
        }
    }
}

/// Splits each *boundary* stratum along the profile's discretized mass
/// edges, so strata align with probability mass instead of raw box
/// geometry. Inner (certain) strata are left whole: their contribution
/// is already the exact profile mass with zero variance.
///
/// Splitting is capped at `max_per_stratum` sub-boxes per input stratum
/// (dimensions processed in ascending order, edge lists truncated
/// per-dimension to stay under the cap), making the fan-out deterministic
/// and bounded. Under a uniform profile this returns the input unchanged
/// (no marginal has mass edges), so the paper's baseline sample streams
/// are untouched.
///
/// The output preserves input stratum order (each input stratum maps to
/// a contiguous run of sub-strata), so downstream per-stratum RNG
/// sub-streams remain a pure function of `(profile, epsilon, paving)`.
pub fn align_strata(
    strata: Vec<Stratum>,
    profile: &UsageProfile,
    domain: &IntervalBox,
    epsilon: f64,
    max_per_stratum: usize,
) -> Vec<Stratum> {
    if profile.is_uniform() || max_per_stratum <= 1 {
        return strata;
    }
    // Discretize each marginal once; per-stratum we only filter edges.
    let discretized: Vec<Vec<f64>> = (0..profile.len())
        .map(|d| match discretize(profile.dist(d), &domain[d], epsilon) {
            Dist::Piecewise { edges, .. } => edges,
            _ => Vec::new(),
        })
        .collect();
    if discretized.iter().all(Vec::is_empty) {
        return strata;
    }
    let mut out = Vec::with_capacity(strata.len());
    for stratum in strata {
        if stratum.certain {
            out.push(stratum);
            continue;
        }
        let mut boxes: Vec<IntervalBox> = vec![stratum.boxed.clone()];
        for (d, all_edges) in discretized.iter().enumerate() {
            if boxes.len() >= max_per_stratum {
                break;
            }
            let iv = &stratum.boxed[d];
            let mut edges: Vec<f64> = all_edges
                .iter()
                .copied()
                .filter(|&e| e > iv.lo() && e < iv.hi())
                .collect();
            if edges.is_empty() {
                continue;
            }
            // Budget for this dimension: splitting k times multiplies the
            // box count by k+1. Thin the edge list evenly (keeping every
            // n-th edge) rather than truncating one side.
            let budget = max_per_stratum / boxes.len();
            if budget < 2 {
                continue;
            }
            if edges.len() + 1 > budget {
                let keep = budget - 1;
                let step = edges.len() as f64 / keep as f64;
                edges = (0..keep)
                    .map(|i| edges[((i as f64 + 0.5) * step) as usize])
                    .collect();
                edges.dedup();
            }
            let mut next = Vec::with_capacity(boxes.len() * (edges.len() + 1));
            for b in boxes {
                let mut lo = b[d].lo();
                for &e in &edges {
                    let mut piece = b.clone();
                    *piece.dim_mut(d) = Interval::new(lo, e);
                    next.push(piece);
                    lo = e;
                }
                let mut piece = b;
                *piece.dim_mut(d) = Interval::new(lo, piece[d].hi());
                next.push(piece);
            }
            boxes = next;
        }
        out.extend(boxes.into_iter().map(Stratum::boundary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn uniform_and_piecewise_pass_through() {
        let dom = iv(0.0, 1.0);
        assert_eq!(discretize(&Dist::Uniform, &dom, 1e-3), Dist::Uniform);
        let h = Dist::piecewise(vec![0.0, 0.5, 1.0], vec![3.0, 1.0]);
        assert_eq!(discretize(&h, &dom, 1e-3), h);
    }

    #[test]
    fn discretization_error_is_bounded() {
        let dom = iv(0.0, 1.0);
        for dist in [
            Dist::normal(0.5, 0.1),
            Dist::exponential(4.0),
            Dist::truncated_normal(0.3, 0.05, 0.1, 0.9),
        ] {
            for eps in [1e-2, 1e-3, 1e-4] {
                let Dist::Piecewise { edges, weights } = discretize(&dist, &dom, eps) else {
                    panic!("continuous dist must discretize to a histogram");
                };
                assert!(edges.len() <= MAX_BINS + 2);
                assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                // Every bin inside the support respects the error bound
                // (bins at MAX_BINS/width floors are exempt by design; at
                // these epsilons the caps are far from binding).
                for w in edges.windows(2) {
                    let err = linearization_error(&dist, &iv(w[0], w[1]), &dom);
                    assert!(
                        err <= eps * 1.000_001,
                        "{dist:?} eps={eps}: bin [{}, {}] err {err}",
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }

    #[test]
    fn finer_epsilon_means_more_bins() {
        let dom = iv(0.0, 1.0);
        let dist = Dist::normal(0.5, 0.1);
        let bins = |eps: f64| match discretize(&dist, &dom, eps) {
            Dist::Piecewise { weights, .. } => weights.len(),
            _ => 0,
        };
        assert!(bins(1e-4) > bins(1e-2));
    }

    #[test]
    fn discretized_mass_approximates_continuous_mass() {
        let dom = iv(0.0, 1.0);
        let dist = Dist::normal(0.4, 0.15);
        let hist = discretize(&dist, &dom, 1e-3);
        for (a, b) in [(0.0, 0.3), (0.2, 0.6), (0.55, 1.0)] {
            let exact = dist.mass(&iv(a, b), &dom);
            let approx = hist.mass(&iv(a, b), &dom);
            // Interval endpoints cut at most two bins, each off by ≤ ε.
            assert!(
                (exact - approx).abs() <= 2.5e-3,
                "[{a}, {b}]: {exact} vs {approx}"
            );
        }
    }

    #[test]
    fn truncated_support_pads_zero_weight_bins() {
        let dom = iv(0.0, 1.0);
        let Dist::Piecewise { edges, weights } =
            discretize(&Dist::truncated_normal(0.5, 0.1, 0.25, 0.75), &dom, 1e-2)
        else {
            panic!("expected histogram");
        };
        assert_eq!(edges[0], 0.0);
        assert_eq!(*edges.last().unwrap(), 1.0);
        assert!(edges.contains(&0.25) && edges.contains(&0.75));
        assert_eq!(weights[0], 0.0, "mass below the truncation is zero");
        assert_eq!(*weights.last().unwrap(), 0.0);
    }

    #[test]
    fn align_is_identity_for_uniform_profiles() {
        let domain: IntervalBox = [iv(0.0, 1.0), iv(0.0, 1.0)].into_iter().collect();
        let strata = vec![
            Stratum::boundary(domain.clone()),
            Stratum::inner(domain.clone()),
        ];
        let before: Vec<_> = strata.iter().map(|s| s.boxed.clone()).collect();
        let out = align_strata(strata, &UsageProfile::uniform(2), &domain, 1e-3, 64);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].boxed, before[0]);
        assert_eq!(out[1].boxed, before[1]);
    }

    #[test]
    fn align_splits_boundary_strata_and_preserves_mass() {
        let domain: IntervalBox = [iv(0.0, 1.0), iv(0.0, 1.0)].into_iter().collect();
        let profile = UsageProfile::uniform(2).with_dist(0, Dist::normal(0.5, 0.12));
        let strata = vec![
            Stratum::boundary(domain.clone()),
            Stratum::inner(
                [iv(0.0, 0.5), iv(0.0, 0.5)]
                    .into_iter()
                    .collect::<IntervalBox>(),
            ),
        ];
        let out = align_strata(strata, &profile, &domain, 1e-2, 64);
        assert!(out.len() > 2, "boundary stratum must split");
        assert!(out.len() <= 64 + 1);
        // Inner stratum untouched, in place.
        assert_eq!(out.iter().filter(|s| s.certain).count(), 1);
        // The split is a partition: masses sum to the original stratum's.
        let total: f64 = out
            .iter()
            .filter(|s| !s.certain)
            .map(|s| profile.box_probability(&s.boxed, &domain))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "masses must sum: {total}");
        // Boxes tile without overlap along dim 0: widths sum to 1.
        let width: f64 = out
            .iter()
            .filter(|s| !s.certain && s.boxed[1].lo() == 0.0)
            .map(|s| s.boxed[0].width())
            .sum();
        assert!((width - 1.0).abs() < 1e-9);
    }

    #[test]
    fn align_respects_the_cap() {
        let domain: IntervalBox = [iv(0.0, 1.0), iv(0.0, 1.0), iv(0.0, 1.0)]
            .into_iter()
            .collect();
        let profile = UsageProfile::uniform(3)
            .with_dist(0, Dist::normal(0.5, 0.05))
            .with_dist(1, Dist::normal(0.5, 0.05))
            .with_dist(2, Dist::exponential(6.0));
        let strata = vec![Stratum::boundary(domain.clone())];
        for cap in [1, 2, 8, 32] {
            let out = align_strata(strata.clone(), &profile, &domain, 1e-3, cap);
            assert!(
                out.len() <= cap.max(1),
                "cap {cap} produced {} strata",
                out.len()
            );
            let total: f64 = out
                .iter()
                .map(|s| profile.box_probability(&s.boxed, &domain))
                .sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn align_is_deterministic() {
        let domain: IntervalBox = [iv(0.0, 2.0), iv(-1.0, 1.0)].into_iter().collect();
        let profile = UsageProfile::uniform(2)
            .with_dist(0, Dist::exponential(2.0))
            .with_dist(1, Dist::normal(0.0, 0.4));
        let strata = || {
            vec![
                Stratum::boundary([iv(0.0, 1.0), iv(-1.0, 0.0)].into_iter().collect()),
                Stratum::boundary([iv(1.0, 2.0), iv(0.0, 1.0)].into_iter().collect()),
            ]
        };
        let a = align_strata(strata(), &profile, &domain, 1e-3, 32);
        let b = align_strata(strata(), &profile, &domain, 1e-3, 32);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.boxed, y.boxed);
            assert_eq!(x.certain, y.certain);
        }
    }
}
