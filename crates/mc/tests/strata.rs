//! [`Strata`] is the one stratified estimator (Eq. 3). It replaced a
//! second stratified allocator that no analysis called;
//! [`reference::stratified`] keeps that function's body as it was.
//!
//! [`Strata`] refined by [`initial_allocation`] must reproduce the
//! reference bit for bit, and so must the Neyman follow-up under
//! [`Allocation::VarianceAdaptive`]: for every allocation, serial and
//! parallel, under uniform and non-uniform profiles, on strata lists
//! that mix certain strata, zero-weight strata (a degenerate box) and
//! strata without profile mass (boxes in a histogram bin of weight 0).

use qcoral_interval::{Interval, IntervalBox};
use qcoral_mc::{
    initial_allocation, neyman_allocation, refine_plan, Allocation, Dist, Estimate, SamplePlan,
    ScalarPred, Strata, Stratum, StratumAccum, UsageProfile,
};

/// The deleted second stratified allocator, as it was.
mod reference {
    use qcoral_interval::IntervalBox;
    use qcoral_mc::{
        initial_allocation, neyman_allocation, refine_plan, Allocation, BulkPred, Deadline,
        Estimate, SamplePlan, Stratum, StratumAccum, UsageProfile,
    };
    use rayon::prelude::*;

    fn plan_expired(plan: &SamplePlan) -> bool {
        plan.deadline.is_some_and(Deadline::expired)
    }

    pub fn stratified<P>(
        pred: &P,
        strata: &[Stratum],
        domain: &IntervalBox,
        profile: &UsageProfile,
        total_samples: u64,
        allocation: Allocation,
        plan: SamplePlan,
    ) -> Estimate
    where
        P: BulkPred + ?Sized,
    {
        let weights: Vec<f64> = strata
            .iter()
            .map(|s| profile.box_probability(&s.boxed, domain))
            .collect();
        let sampled: Vec<usize> = strata
            .iter()
            .enumerate()
            .filter(|(i, s)| !s.certain && weights[*i] > 0.0)
            .map(|(i, _)| i)
            .collect();

        // Certain strata contribute their exact mass, in stratum order.
        let mut acc = Estimate::ZERO;
        for (i, s) in strata.iter().enumerate() {
            if s.certain {
                acc = acc.sum(Estimate::ONE.scale(weights[i]));
            }
        }
        if sampled.is_empty() {
            return acc;
        }

        let sampled_weights: Vec<f64> = sampled.iter().map(|&i| weights[i]).collect();
        let counts = initial_allocation(allocation, total_samples, &sampled_weights);
        let refine_stratum = |j: usize, add: u64, accum: StratumAccum| -> StratumAccum {
            let i = sampled[j];
            refine_plan(
                pred,
                &strata[i].boxed,
                profile,
                add,
                plan.substream(i as u64),
                accum,
            )
        };
        let fan_out = |counts: &[u64], accums: &[StratumAccum]| -> Vec<StratumAccum> {
            if plan.parallel && sampled.len() > 1 {
                (0..sampled.len())
                    .into_par_iter()
                    .map(|j| refine_stratum(j, counts[j], accums[j]))
                    .collect()
            } else {
                (0..sampled.len())
                    .map(|j| refine_stratum(j, counts[j], accums[j]))
                    .collect()
            }
        };
        let mut accums = fan_out(&counts, &vec![StratumAccum::EMPTY; sampled.len()]);
        if matches!(
            allocation,
            Allocation::VarianceAdaptive | Allocation::ImportanceAdaptive
        ) && !plan_expired(&plan)
        {
            // Follow-up pass: the pilot spent roughly half the budget; the
            // rest goes where `weight × stddev` says the variance lives.
            // Exact strata (stddev 0) are excluded.
            let spent: u64 = counts.iter().sum();
            let stddevs: Vec<f64> = accums.iter().map(StratumAccum::std_dev).collect();
            let follow = neyman_allocation(
                total_samples.saturating_sub(spent),
                &sampled_weights,
                &stddevs,
            );
            accums = fan_out(&follow, &accums);
        }
        // Fixed reduction order keeps the floating-point sum identical across
        // schedules.
        accums
            .iter()
            .zip(&sampled_weights)
            .map(|(a, &w)| a.estimate().scale(w))
            .fold(acc, Estimate::sum)
    }
}

fn boxed(x: (f64, f64), y: (f64, f64)) -> IntervalBox {
    [Interval::new(x.0, x.1), Interval::new(y.0, y.1)]
        .into_iter()
        .collect()
}

/// A paving-like strata list over `[−1, 1]²` for the disc
/// `x² + y² < 0.6`: a 3 × 3 grid whose centre box is certain, plus a
/// certain box and a boundary box of zero width (zero weight). The
/// grid's right column carries no mass under the histogram profile
/// below.
fn strata() -> Vec<Stratum> {
    let cuts = [-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0];
    let mut out = Vec::new();
    for i in 0..3 {
        for j in 0..3 {
            let b = boxed((cuts[i], cuts[i + 1]), (cuts[j], cuts[j + 1]));
            out.push(match (i, j) {
                (1, 1) => Stratum::inner(b),
                _ => Stratum::boundary(b),
            });
        }
        if i == 1 {
            out.push(Stratum::inner(boxed((0.0, 0.0), (-0.2, 0.2))));
            out.push(Stratum::boundary(boxed((0.2, 0.2), (-1.0, 1.0))));
        }
    }
    out
}

fn profiles() -> Vec<(&'static str, UsageProfile)> {
    vec![
        ("uniform", UsageProfile::uniform(2)),
        (
            "histogram x, normal y",
            UsageProfile::uniform(2)
                .with_dist(
                    0,
                    Dist::piecewise(vec![-1.0, 1.0 / 3.0, 1.0], vec![1.0, 0.0]),
                )
                .with_dist(1, Dist::normal(0.0, 0.5)),
        ),
        (
            "truncated normal x, exponential y",
            UsageProfile::uniform(2)
                .with_dist(0, Dist::truncated_normal(0.2, 0.3, -1.0, 1.0))
                .with_dist(1, Dist::exponential(2.0)),
        ),
    ]
}

fn plans(seed: u64) -> Vec<SamplePlan> {
    let small = |plan: SamplePlan| SamplePlan { chunk: 100, ..plan };
    vec![
        SamplePlan::serial(seed),
        SamplePlan::parallel(seed),
        small(SamplePlan::serial(seed)),
        small(SamplePlan::parallel(seed)),
    ]
}

/// Eq. 3 through [`Strata`]: one [`initial_allocation`] pass, plus the
/// Neyman follow-up under [`Allocation::VarianceAdaptive`].
fn through_strata(
    pred: &ScalarPred<impl Fn(&[f64]) -> bool + Sync>,
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

fn assert_same_bits(a: Estimate, b: Estimate, what: &str) {
    assert_eq!(
        a.mean.to_bits(),
        b.mean.to_bits(),
        "{what}: mean {a} vs {b}"
    );
    assert_eq!(
        a.variance.to_bits(),
        b.variance.to_bits(),
        "{what}: variance {a} vs {b}"
    );
}

#[test]
fn strata_reproduce_the_reference_bit_for_bit() {
    let pred = ScalarPred(|p: &[f64]| p[0] * p[0] + p[1] * p[1] < 0.6);
    let domain = boxed((-1.0, 1.0), (-1.0, 1.0));
    let strata = strata();
    for (name, profile) in profiles() {
        for allocation in [
            Allocation::EqualPerStratum,
            Allocation::Proportional,
            Allocation::VarianceAdaptive,
        ] {
            for total in [3u64, 1_000, 9_001] {
                for (p, plan) in plans(total ^ 0x5EED).into_iter().enumerate() {
                    let what = format!("{name}, {allocation:?}, {total} samples, plan {p}");
                    let reference = reference::stratified(
                        &pred, &strata, &domain, &profile, total, allocation, plan,
                    );
                    let ours =
                        through_strata(&pred, &strata, &domain, &profile, total, allocation, plan);
                    assert_same_bits(ours, reference, &what);
                    assert!(ours.mean > 0.0 && ours.mean < 1.0, "{what}: {ours}");
                }
            }
        }
    }
}

/// The strata the reference skips are skipped here too: certain strata
/// fold into the exact mass, zero-weight and massless strata drop out,
/// and an all-certain list is exact without sampling.
#[test]
fn certain_and_massless_strata_are_never_sampled() {
    let domain = boxed((-1.0, 1.0), (-1.0, 1.0));
    let (_, histogram) = profiles().swap_remove(1);
    let strata = strata();
    let s = Strata::new(strata.clone(), &histogram, &domain, SamplePlan::serial(1));
    let positive = strata
        .iter()
        .filter(|st| !st.certain && histogram.box_probability(&st.boxed, &domain) > 0.0)
        .count();
    assert_eq!(s.len(), positive);
    assert!(s.len() < strata.iter().filter(|st| !st.certain).count());

    let certain: Vec<Stratum> = strata.into_iter().filter(|st| st.certain).collect();
    let pred = ScalarPred(|_: &[f64]| -> bool { unreachable!("certain strata are not sampled") });
    for allocation in [Allocation::EqualPerStratum, Allocation::VarianceAdaptive] {
        let plan = SamplePlan::serial(2);
        let reference = reference::stratified(
            &pred, &certain, &domain, &histogram, 1_000, allocation, plan,
        );
        let ours = through_strata(
            &pred, &certain, &domain, &histogram, 1_000, allocation, plan,
        );
        assert_same_bits(ours, reference, &format!("{allocation:?}"));
        let s = Strata::new(certain.clone(), &histogram, &domain, plan);
        assert!(s.is_empty());
        assert_same_bits(s.estimate(), s.exact(), "all certain");
    }
}

/// [`Strata::whole`] is hit-or-miss Monte Carlo (Eq. 2): one stratum of
/// weight exactly 1 on the plan's own stream.
#[test]
fn whole_box_is_plain_hit_or_miss() {
    let pred = ScalarPred(|p: &[f64]| p[0] * p[0] + p[1] * p[1] < 0.6);
    let domain = boxed((-1.0, 1.0), (-1.0, 1.0));
    for (name, profile) in profiles() {
        for plan in plans(11) {
            let plain = refine_plan(&pred, &domain, &profile, 9_001, plan, StratumAccum::EMPTY);
            let mut whole = Strata::whole(domain.clone(), plan);
            assert_eq!(whole.weights(), vec![1.0]);
            whole.refine(&pred, &profile, &[9_001]);
            assert_eq!(whole.drawn(), 9_001);
            assert_same_bits(whole.estimate(), plain.estimate(), name);
        }
    }
}
