//! The compiled sampling plans are exact replacements for the per-call
//! code they took over from:
//!
//! 1. a `DrawPlan` draws the same bits as the per-call conditional draw
//!    it replaced, and consumes the same RNG values; an interval without
//!    mass returns `None` and leaves the RNG as it was;
//! 2. a `DensityPlan` returns the same bits as the per-call density it
//!    replaced;
//! 3. on the 128-box pavings of the rare subjects, the importance
//!    sampler's neighbor-list density equals the full scan of
//!    [`Mixture::density`] bit for bit: at points drawn from every
//!    component, on shared faces and corners, and just outside a box.
//!
//! The `reference` module keeps the per-call bodies as they were before
//! the plans existed.

use proptest::prelude::*;
use qcoral_icp::{domain_box, pave, PaverConfig};
use qcoral_interval::{Interval, IntervalBox};
use qcoral_mc::{Dist, Mixture, UsageProfile};
use qcoral_subjects::rare_subjects;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// The per-call draw and density bodies the compiled plans replaced.
mod reference {
    use qcoral_interval::Interval;
    use qcoral_mc::{std_normal_cdf, std_normal_quantile, Dist};
    use rand::Rng;

    const SQRT_TWO_PI: f64 = 2.506_628_274_631_000_5;

    fn raw_cdf(d: &Dist, x: f64, dom: &Interval) -> Option<f64> {
        match d {
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

    fn raw_quantile(d: &Dist, p: f64, dom: &Interval) -> f64 {
        match d {
            Dist::Uniform | Dist::Piecewise { .. } => {
                unreachable!("quantile is only defined for continuous variants")
            }
            Dist::Normal { mu, sigma } | Dist::TruncatedNormal { mu, sigma, .. } => {
                mu + sigma * std_normal_quantile(p)
            }
            Dist::Exponential { lambda } => dom.lo() + (-(-p).ln_1p()) / lambda,
        }
    }

    fn uniform_in(iv: &Interval, rng: &mut impl Rng) -> f64 {
        if iv.width() == 0.0 {
            iv.lo()
        } else {
            rng.gen_range(iv.lo()..iv.hi())
        }
    }

    pub fn sample_in(d: &Dist, iv: &Interval, dom: &Interval, rng: &mut impl Rng) -> Option<f64> {
        match d {
            Dist::Uniform => {
                let clipped = iv.intersect(dom);
                if clipped.is_empty() || (clipped.width() == 0.0 && dom.width() > 0.0) {
                    return None;
                }
                Some(uniform_in(&clipped, rng))
            }
            Dist::Piecewise { edges, weights } => {
                let clipped = iv.intersect(dom);
                if clipped.is_empty() {
                    return None;
                }
                let mut masses = Vec::with_capacity(weights.len());
                let mut total = 0.0;
                for (i, w) in weights.iter().enumerate() {
                    let seg = Interval::new(edges[i], edges[i + 1]);
                    let overlap = seg.intersect(&clipped);
                    let m = if overlap.is_empty() || seg.width() == 0.0 || overlap.width() == 0.0 {
                        0.0
                    } else {
                        w * overlap.width() / seg.width()
                    };
                    masses.push((m, overlap));
                    total += m;
                }
                if total <= 0.0 {
                    return None;
                }
                let mut pick = rng.gen_range(0.0..total);
                for (m, overlap) in &masses {
                    if *m > 0.0 && pick < *m {
                        return Some(uniform_in(overlap, rng));
                    }
                    pick -= m;
                }
                masses
                    .iter()
                    .rev()
                    .find(|(m, _)| *m > 0.0)
                    .map(|(_, o)| uniform_in(o, rng))
            }
            _ => {
                let sup = d.support(dom);
                let clipped = iv.intersect(&sup);
                if clipped.is_empty() {
                    return None;
                }
                if clipped.width() == 0.0 {
                    return (sup.width() == 0.0).then(|| clipped.lo());
                }
                let flo = raw_cdf(d, sup.lo(), dom).expect("continuous");
                let fhi = raw_cdf(d, sup.hi(), dom).expect("continuous");
                if fhi - flo <= 0.0 {
                    return Some(uniform_in(&clipped, rng));
                }
                let fa = raw_cdf(d, clipped.lo(), dom).expect("continuous");
                let fb = raw_cdf(d, clipped.hi(), dom).expect("continuous");
                if fb - fa <= 0.0 {
                    return None;
                }
                let u = rng.gen_range(0.0..1.0);
                let x = raw_quantile(d, fa + u * (fb - fa), dom);
                Some(x.clamp(clipped.lo(), clipped.hi()))
            }
        }
    }

    pub fn density(d: &Dist, x: f64, dom: &Interval) -> f64 {
        if !dom.contains(x) {
            return 0.0;
        }
        match d {
            Dist::Uniform => {
                let dw = dom.width();
                if dw > 0.0 {
                    1.0 / dw
                } else {
                    f64::INFINITY
                }
            }
            Dist::Piecewise { edges, weights } => {
                for (i, w) in weights.iter().enumerate() {
                    let seg = Interval::new(edges[i], edges[i + 1]);
                    if seg.contains(x) && seg.width() > 0.0 {
                        return w / seg.width();
                    }
                }
                0.0
            }
            _ => {
                let sup = d.support(dom);
                if !sup.contains(x) {
                    return 0.0;
                }
                let flo = raw_cdf(d, sup.lo(), dom).expect("continuous");
                let fhi = raw_cdf(d, sup.hi(), dom).expect("continuous");
                let denom = fhi - flo;
                if denom <= 0.0 {
                    let sw = sup.width();
                    return if sw > 0.0 { 1.0 / sw } else { f64::INFINITY };
                }
                let raw = match d {
                    Dist::Normal { mu, sigma } | Dist::TruncatedNormal { mu, sigma, .. } => {
                        let z = (x - mu) / sigma;
                        (-0.5 * z * z).exp() / (sigma * SQRT_TWO_PI)
                    }
                    Dist::Exponential { lambda } => {
                        lambda * (-lambda * (x - dom.lo()).max(0.0)).exp()
                    }
                    _ => unreachable!(),
                };
                raw / denom
            }
        }
    }
}

/// Any marginal, with parameters that reach point supports, deep tails
/// (tiny scales, steep rates) and truncations off the domain.
fn any_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        Just(Dist::Uniform),
        (
            -12.0f64..12.0,
            prop::collection::vec((0.05f64..4.0, 0.0f64..1.0), 1..6)
        )
            .prop_map(|(start, segs)| {
                let mut edges = vec![start];
                let mut weights = Vec::new();
                for (w, p) in segs {
                    edges.push(edges.last().unwrap() + w);
                    weights.push(if p < 0.3 { 0.0 } else { p });
                }
                if weights.iter().all(|&w| w == 0.0) {
                    *weights.last_mut().unwrap() = 1.0;
                }
                Dist::piecewise(edges, weights)
            }),
        (-15.0f64..15.0, 0.0f64..1.0).prop_map(|(mu, s)| Dist::normal(mu, 1e-4 + 10.0 * s * s)),
        (0.0f64..1.0).prop_map(|r| Dist::exponential(0.01 + 40.0 * r * r)),
        (-15.0f64..15.0, 0.0f64..1.0, -15.0f64..15.0, 0.0f64..10.0).prop_map(|(mu, s, lo, w)| {
            Dist::truncated_normal(mu, 1e-4 + 10.0 * s * s, lo, lo + 1e-3 + w)
        }),
    ]
}

/// A domain: usually wide, sometimes a single point.
fn any_domain() -> impl Strategy<Value = Interval> {
    (-10.0f64..10.0, 0.0f64..1.0)
        .prop_map(|(lo, w)| Interval::new(lo, if w < 0.1 { lo } else { lo + 20.0 * w }))
}

/// An interval relative to `dom`: inside, straddling or off it, a point,
/// or the domain itself.
fn any_interval() -> impl Strategy<Value = (u8, f64, f64)> {
    (0u8..5, -0.5f64..1.5, 0.0f64..1.0)
}

fn place(dom: &Interval, (kind, at, len): (u8, f64, f64)) -> Interval {
    let w = dom.width().max(1.0);
    let lo = dom.lo() + at * w;
    match kind {
        0 => *dom,
        1 => Interval::point(lo),
        2 => Interval::point(if at < 0.5 { dom.lo() } else { dom.hi() }),
        _ => Interval::new(lo, lo + len * len * w),
    }
}

/// One draw from each side, then the next raw value of each RNG: equal
/// results and equal next values mean equal bits and equal RNG use.
fn draws_match(d: &Dist, iv: &Interval, dom: &Interval, seed: u64) {
    let plan = d.draw_plan(iv, dom);
    let mut old = SmallRng::seed_from_u64(seed);
    let mut new = SmallRng::seed_from_u64(seed);
    for _ in 0..4 {
        let want = reference::sample_in(d, iv, dom, &mut old);
        let got = plan.sample(&mut new);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "{d:?} on {iv:?} in {dom:?}: {got:?} vs {want:?}"
        );
    }
    assert_eq!(new.next_u64(), old.next_u64(), "{d:?} on {iv:?}: RNG use");
    if reference::sample_in(d, iv, dom, &mut SmallRng::seed_from_u64(seed)).is_none() {
        let mut rng = SmallRng::seed_from_u64(seed);
        assert!(plan.sample(&mut rng).is_none());
        assert_eq!(
            rng.next_u64(),
            SmallRng::seed_from_u64(seed).next_u64(),
            "{d:?} on {iv:?}: None must not touch the RNG"
        );
    }
}

fn densities_match(d: &Dist, dom: &Interval, probes: &[f64]) {
    let plan = d.density_plan(dom);
    let mut xs = vec![dom.lo(), dom.hi(), dom.lo().next_down(), dom.hi().next_up()];
    if let Dist::TruncatedNormal { lo, hi, .. } = d {
        xs.extend([*lo, *hi, lo.next_down(), hi.next_up()]);
    }
    if let Dist::Piecewise { edges, .. } = d {
        xs.extend(edges.iter().copied());
    }
    xs.extend(probes.iter().map(|f| dom.lo() + f * dom.width().max(1.0)));
    for x in xs {
        let want = reference::density(d, x, dom);
        assert_eq!(
            plan.density(x).to_bits(),
            want.to_bits(),
            "{d:?} at {x} in {dom:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn compiled_draws_match_the_per_call_draw(
        d in any_dist(),
        dom in any_domain(),
        ivs in prop::collection::vec(any_interval(), 4),
        seed in 0u64..u64::MAX,
    ) {
        for iv in ivs {
            draws_match(&d, &place(&dom, iv), &dom, seed);
        }
        // The support and its ends, which the truncations clip to.
        let sup = d.support(&dom);
        if !sup.is_empty() {
            draws_match(&d, &sup, &dom, seed);
            draws_match(&d, &Interval::point(sup.hi()), &dom, seed);
        }
    }

    #[test]
    fn compiled_densities_match_the_per_call_density(
        d in any_dist(),
        dom in any_domain(),
        probes in prop::collection::vec(-0.2f64..1.2, 8),
    ) {
        densities_match(&d, &dom, &probes);
    }
}

#[test]
fn named_edge_cases_match_the_per_call_draw() {
    let dom = Interval::new(0.0, 1.0);
    let cases = [
        // Zero-width interval inside a wider domain: no mass.
        (Dist::normal(0.5, 0.1), Interval::point(0.5), dom),
        (Dist::Uniform, Interval::point(0.5), dom),
        // A point domain carries all the mass at its point.
        (
            Dist::normal(0.0, 1.0),
            Interval::point(2.0),
            Interval::point(2.0),
        ),
        (
            Dist::exponential(3.0),
            Interval::point(2.0),
            Interval::point(2.0),
        ),
        // Tails so deep the interval's CDF mass underflows.
        (
            Dist::normal(0.0, 1e-3),
            Interval::new(0.9, 1.0),
            Interval::new(-1.0, 1.0),
        ),
        (
            Dist::exponential(50.0),
            Interval::new(19.0, 20.0),
            Interval::new(0.0, 20.0),
        ),
        // A support with zero raw mass falls back to uniform.
        (
            Dist::normal(0.0, 1e-6),
            Interval::new(1.0, 1.5),
            Interval::new(1.0, 2.0),
        ),
        // Truncations off the domain, and touching it at one point.
        (Dist::truncated_normal(5.5, 0.5, 5.0, 6.0), dom, dom),
        (Dist::truncated_normal(1.5, 0.5, 1.0, 2.0), dom, dom),
        (
            Dist::truncated_normal(0.5, 0.1, 0.2, 0.8),
            Interval::new(0.0, 0.2),
            dom,
        ),
        // Histogram intervals outside and across zero-weight segments.
        (
            Dist::piecewise(vec![0.0, 0.5, 1.0], vec![0.0, 1.0]),
            Interval::new(0.0, 0.5),
            dom,
        ),
        (
            Dist::piecewise(vec![0.0, 0.5, 1.0], vec![0.0, 1.0]),
            Interval::new(0.25, 0.75),
            dom,
        ),
        (
            Dist::piecewise(vec![0.0, 1.0], vec![1.0]),
            Interval::new(2.0, 3.0),
            dom,
        ),
    ];
    for (d, iv, dom) in &cases {
        for seed in 0..16 {
            draws_match(d, iv, dom, seed);
        }
        densities_match(d, dom, &[0.25, 0.5, 0.75]);
    }
}

/// The profile-level plans are the marginal plans in variable order.
#[test]
fn compiled_profile_draws_and_densities_match() {
    let domain: IntervalBox = [
        Interval::new(0.0, 1.0),
        Interval::new(-1.0, 1.0),
        Interval::new(0.0, 20.0),
    ]
    .into_iter()
    .collect();
    let profile = UsageProfile::uniform(3)
        .with_dist(1, Dist::normal(0.0, 0.3))
        .with_dist(2, Dist::exponential(2.0));
    let boxed: IntervalBox = [
        Interval::new(0.25, 0.5),
        Interval::new(0.5, 1.0),
        Interval::new(1.0, 3.0),
    ]
    .into_iter()
    .collect();
    let draw = profile.draw_plan(&boxed, &domain);
    let density = profile.density_plan(&domain);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut old = SmallRng::seed_from_u64(7);
    let (mut got, mut want) = ([0.0; 3], [0.0; 3]);
    for _ in 0..256 {
        assert!(draw.sample(&mut rng, &mut got));
        for (i, w) in want.iter_mut().enumerate() {
            *w = reference::sample_in(profile.dist(i), &boxed[i], &domain[i], &mut old).unwrap();
        }
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        let pi: f64 = (0..3)
            .map(|i| reference::density(profile.dist(i), got[i], &domain[i]))
            .product();
        assert_eq!(density.density(&got).to_bits(), pi.to_bits());
    }
    assert_eq!(rng.next_u64(), old.next_u64());
}

/// Every `x` with `next_up`/`next_down` in each coordinate around `p`.
fn nudges(p: &[f64]) -> Vec<Vec<f64>> {
    let mut out = vec![p.to_vec()];
    for d in 0..p.len() {
        for x in [p[d].next_down(), p[d].next_up()] {
            let mut q = p.to_vec();
            q[d] = x;
            out.push(q);
        }
    }
    out
}

/// The corners of a box and the centers of its faces: the points a box
/// shares with its neighbors.
fn faces_and_corners(b: &IntervalBox) -> Vec<Vec<f64>> {
    let n = b.ndim();
    let mut out = Vec::new();
    for mask in 0..(1u32 << n) {
        out.push(
            (0..n)
                .map(|d| {
                    if mask >> d & 1 == 1 {
                        b[d].hi()
                    } else {
                        b[d].lo()
                    }
                })
                .collect(),
        );
    }
    let center = b.center();
    for d in 0..n {
        for x in [b[d].lo(), b[d].hi()] {
            let mut p = center.clone();
            p[d] = x;
            out.push(p);
        }
    }
    out
}

#[test]
fn neighbor_density_matches_the_full_scan_on_rare_pavings() {
    let config = PaverConfig {
        max_boxes: 128,
        ..PaverConfig::default()
    };
    let mut checked = 0usize;
    // sin-peaks is left out: its paving finds no boxes to seed from.
    for subj in rare_subjects().into_iter().filter(|s| s.is_reachable) {
        let (cs, domain, profile) = subj.system();
        let dbox = domain_box(&domain);
        for pc in cs.pcs() {
            let paving = pave(pc, &dbox, &config);
            let Some(mixture) = Mixture::seeded(&paving.boundary, &profile, &dbox) else {
                continue;
            };
            assert!(
                mixture.components.len() > 16,
                "{}: a fine paving",
                subj.name
            );
            let density = profile.density_plan(&dbox);
            let mut check = |k: usize, point: &[f64]| {
                let pi = density.density(point);
                assert_eq!(
                    mixture.density_near(k, point, pi).to_bits(),
                    mixture.density(point, pi).to_bits(),
                    "{}: component {k} at {point:?}",
                    subj.name
                );
                checked += 1;
            };
            let mut rng = SmallRng::seed_from_u64(0x5EED);
            let mut point = vec![0.0; dbox.ndim()];
            for (k, c) in mixture.components.iter().enumerate() {
                for _ in 0..64 {
                    if c.sample(&mut rng, &mut point) {
                        check(k, &point);
                    }
                }
                for p in faces_and_corners(&c.boxed) {
                    for q in nudges(&p) {
                        check(k, &q);
                    }
                }
                // Just outside its own box, where neighbors may hold it.
                let outside: Vec<f64> = c.boxed.dims().iter().map(|iv| iv.hi().next_up()).collect();
                assert!(!c.boxed.contains_point(&outside));
                check(k, &outside);
            }
        }
    }
    assert!(checked > 10_000, "checked {checked} points");
}
