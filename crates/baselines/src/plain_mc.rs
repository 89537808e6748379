//! Whole-disjunction hit-or-miss Monte Carlo: the "Monte Carlo
//! (Mathematica)" baseline column of the paper's Table 4.
//!
//! Unlike `qCORAL{}` — which analyzes each path condition separately and
//! composes per Theorem 1 — this baseline samples the full input domain
//! and tests the whole disjunction at once.

use qcoral_constraints::{ConstraintSet, EvalTape};
use qcoral_interval::IntervalBox;
use qcoral_mc::{refine_plan, Estimate, SamplePlan, ScalarPred, StratumAccum, UsageProfile};

/// Estimates `Pr[x ∼ profile satisfies cs]` with a single hit-or-miss run
/// over the whole domain, on the deterministic chunked [`SamplePlan`]:
/// bit-identical across thread schedules. `n == 0` gives `0 ± 0`.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn plain_monte_carlo(
    cs: &ConstraintSet,
    domain: &IntervalBox,
    profile: &UsageProfile,
    n: u64,
    plan: SamplePlan,
) -> Estimate {
    let tapes: Vec<EvalTape> = cs.pcs().iter().map(EvalTape::compile).collect();
    let pred = ScalarPred(|p: &[f64]| tapes.iter().any(|t| t.holds(p)));
    refine_plan(&pred, domain, profile, n, plan, StratumAccum::EMPTY).estimate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;
    use qcoral_icp::domain_box;

    #[test]
    fn matches_known_probability() {
        let sys =
            parse_system("var x in [-1, 1]; var y in [-1, 1]; pc x <= -y && y <= x;").unwrap();
        let dom = domain_box(&sys.domain);
        let profile = UsageProfile::uniform(2);
        let est = plain_monte_carlo(
            &sys.constraint_set,
            &dom,
            &profile,
            20_000,
            SamplePlan::serial(99),
        );
        assert!((est.mean - 0.25).abs() < 0.02, "{}", est.mean);
    }

    #[test]
    fn disjunction_counts_once_per_sample() {
        // Two disjoint PCs covering [0, 0.5): the union probability is 0.5
        // even though membership is tested against both.
        let sys = parse_system("var x in [0, 1]; pc x < 0.25; pc x >= 0.25 && x < 0.5;").unwrap();
        let dom = domain_box(&sys.domain);
        let profile = UsageProfile::uniform(1);
        let est = plain_monte_carlo(
            &sys.constraint_set,
            &dom,
            &profile,
            20_000,
            SamplePlan::serial(3),
        );
        assert!((est.mean - 0.5).abs() < 0.02, "{}", est.mean);
    }

    #[test]
    fn empty_set_is_zero() {
        let sys = parse_system("var x in [0, 1];").unwrap();
        let dom = domain_box(&sys.domain);
        let profile = UsageProfile::uniform(1);
        let est = plain_monte_carlo(
            &sys.constraint_set,
            &dom,
            &profile,
            100,
            SamplePlan::serial(3),
        );
        assert_eq!(est, Estimate::ZERO);
    }

    /// The Table 4 baseline inherits the plan sampler's schedule
    /// independence: on a multi-PC system with a budget spanning several
    /// chunks, serial and parallel plans return the same bits.
    #[test]
    fn serial_and_parallel_plans_are_bit_identical() {
        let sys = parse_system(
            "var x in [-1, 1]; var y in [-1, 1];
             pc x < -0.5;
             pc x >= -0.5 && sin(3 * x + y) > 0.25;
             pc x >= -0.5 && sin(3 * x + y) <= 0.25 && x * x + y * y <= 0.5;",
        )
        .unwrap();
        assert_eq!(sys.constraint_set.len(), 3);
        let dom = domain_box(&sys.domain);
        let profile = UsageProfile::uniform(2);
        let n = 5 * SamplePlan::DEFAULT_CHUNK + 17;
        for seed in [1u64, 2, 0xDEAD_BEEF] {
            let serial = plain_monte_carlo(
                &sys.constraint_set,
                &dom,
                &profile,
                n,
                SamplePlan::serial(seed),
            );
            let parallel = plain_monte_carlo(
                &sys.constraint_set,
                &dom,
                &profile,
                n,
                SamplePlan::parallel(seed),
            );
            assert_eq!(serial, parallel, "seed {seed}");
            assert!(serial.mean > 0.0 && serial.mean < 1.0, "{}", serial.mean);
        }
    }
}
