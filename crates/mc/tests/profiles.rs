//! Property-based axioms of usage-profile marginals: for *every* `Dist`
//! variant over an arbitrary domain,
//!
//! 1. mass is additive over any partition of the domain and the pieces
//!    sum to the whole domain's mass of exactly 1,
//! 2. conditional sampling always lands inside the requested interval
//!    (clipped to the support), and
//! 3. a `DrawPlan` returns `Some` exactly when the interval carries
//!    positive conditional mass (`None` is deterministic, never a hang).

use proptest::prelude::*;
use qcoral_interval::Interval;
use qcoral_mc::{discretize, Dist};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// An arbitrary domain interval with non-degenerate width.
fn any_domain() -> impl Strategy<Value = Interval> {
    (-50.0f64..50.0, 0.1f64..100.0).prop_map(|(lo, w)| Interval::new(lo, lo + w))
}

/// Any `Dist` variant, parameterized relative to the domain so supports
/// and scales stay interesting (peaked, offset, clipped).
fn any_dist() -> impl Strategy<Value = (Dist, Interval)> {
    (any_domain(), 0u8..5, 0.0f64..1.0, 0.01f64..2.0).prop_map(|(dom, kind, frac, scale)| {
        let (lo, w) = (dom.lo(), dom.width());
        let dist = match kind {
            0 => Dist::Uniform,
            1 => {
                let cut = lo + w * (0.2 + 0.6 * frac);
                Dist::piecewise(vec![lo, cut, lo + w], vec![1.0 + 3.0 * frac, 1.0])
            }
            2 => Dist::normal(lo + w * frac, w * scale * 0.25),
            3 => Dist::exponential(scale * 4.0 / w),
            _ => {
                let t_lo = lo + w * 0.25 * frac;
                let t_hi = lo + w * (1.0 - 0.25 * (1.0 - frac));
                Dist::truncated_normal(lo + w * frac, w * scale * 0.25, t_lo, t_hi)
            }
        };
        (dist, dom)
    })
}

/// Sorted interior cut points partitioning the domain.
fn cuts(dom: &Interval, raw: &[f64]) -> Vec<f64> {
    let mut cuts: Vec<f64> = raw
        .iter()
        .map(|f| dom.lo() + dom.width() * f.clamp(0.001, 0.999))
        .collect();
    cuts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    cuts.dedup();
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Axiom 1: partition additivity and total mass 1.
    #[test]
    fn mass_is_additive_over_partitions(
        (dist, dom) in any_dist(),
        raw in prop::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let cuts = cuts(&dom, &raw);
        let mut edges = vec![dom.lo()];
        edges.extend(&cuts);
        edges.push(dom.hi());
        let total: f64 = edges
            .windows(2)
            .map(|w| dist.mass(&Interval::new(w[0], w[1]), &dom))
            .sum();
        prop_assert!(
            (total - 1.0).abs() < 1e-9,
            "{dist:?} over {dom:?}: partition mass {total}"
        );
        prop_assert!(
            (dist.mass(&dom, &dom) - 1.0).abs() < 1e-12,
            "domain mass must be exactly 1"
        );
        // Additivity on a coarser merge: first two cells equal their union.
        if edges.len() >= 3 {
            let a = dist.mass(&Interval::new(edges[0], edges[1]), &dom);
            let b = dist.mass(&Interval::new(edges[1], edges[2]), &dom);
            let ab = dist.mass(&Interval::new(edges[0], edges[2]), &dom);
            prop_assert!((a + b - ab).abs() < 1e-10, "{dist:?}: {a} + {b} != {ab}");
        }
    }

    /// Axioms 2 + 3: samples stay inside the interval; `Some`/`None`
    /// agrees with the interval's conditional mass.
    #[test]
    fn sampling_stays_in_interval_and_matches_mass(
        (dist, dom) in any_dist(),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let iv = Interval::new(
            dom.lo() + dom.width() * lo,
            dom.lo() + dom.width() * hi,
        );
        let mass = dist.mass(&iv, &dom);
        let plan = dist.draw_plan(&iv, &dom);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..32 {
            match plan.sample(&mut rng) {
                Some(v) => {
                    prop_assert!(
                        iv.contains(v) && dom.contains(v),
                        "{dist:?}: sample {v} outside [{}, {}]",
                        iv.lo(),
                        iv.hi()
                    );
                    prop_assert!(mass > 0.0, "{dist:?}: sampled from a zero-mass interval");
                }
                None => {
                    // None ⇔ (near-)zero conditional mass. Piecewise
                    // boundaries can carry O(ulp) mass slivers; anything
                    // above that must sample.
                    prop_assert!(
                        mass < 1e-12,
                        "{dist:?}: refused interval with mass {mass}"
                    );
                    break; // deterministic: will stay None
                }
            }
        }
    }

    /// The discretized histogram preserves the axioms: it is a valid
    /// piecewise distribution whose masses track the continuous law
    /// within the requested bound.
    #[test]
    fn discretization_preserves_mass_axioms(
        (dist, dom) in any_dist(),
        raw in prop::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let hist = discretize(&dist, &dom, 1e-3);
        prop_assert!((hist.mass(&dom, &dom) - 1.0).abs() < 1e-9);
        for w in cuts(&dom, &raw).windows(2) {
            let iv = Interval::new(w[0], w[1]);
            let exact = dist.mass(&iv, &dom);
            let approx = hist.mass(&iv, &dom);
            // Interval endpoints cut at most two bins, each within ε.
            prop_assert!(
                (exact - approx).abs() <= 2.0 * 1e-3 + 1e-9,
                "{dist:?}: mass {exact} vs discretized {approx} on [{}, {}]",
                w[0],
                w[1]
            );
        }
    }
}
