//! Figure 2 / Table 1: the worked stratification example.
//!
//! The constraint `x ≤ −y ∧ y ≤ x` over `[−1, 1]²` has probability
//! exactly 1/4. Plain hit-or-miss with 10⁴ samples is compared against
//! stratified sampling over the paper's four boxes (b1–b4) and over the
//! boxes our own ICP paver produces.

use serde::Serialize;

use qcoral_constraints::parse::parse_system;
use qcoral_icp::{domain_box, pave, PaverConfig};
use qcoral_interval::{Interval, IntervalBox};
use qcoral_mc::{
    hit_or_miss_plan, stratified_plan, Allocation, Estimate, SamplePlan, ScalarPred, Stratum,
    UsageProfile,
};

/// One row of the comparison.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Method label.
    pub method: String,
    /// Number of strata used (1 = plain).
    pub strata: usize,
    /// Estimated probability.
    pub mean: f64,
    /// Estimator variance.
    pub variance: f64,
}

/// Runs the Figure 2 example with the given total sample budget.
pub fn run(samples: u64, seed: u64) -> Vec<Row> {
    let sys = parse_system(
        "var x in [-1, 1]; var y in [-1, 1];
         pc x <= -y && y <= x;",
    )
    .expect("static source");
    let pc = &sys.constraint_set.pcs()[0];
    let domain = domain_box(&sys.domain);
    let profile = UsageProfile::uniform(2);
    let pred = ScalarPred(|p: &[f64]| pc.holds(p));
    let plan = SamplePlan::serial(seed);

    let mut rows = Vec::new();

    let plain = hit_or_miss_plan(&pred, &domain, &profile, samples, plan);
    rows.push(row("hit-or-miss (plain)", 1, plain));

    // The paper's Table 1 boxes.
    let iv = Interval::new;
    let paper_boxes = vec![
        Stratum::boundary([iv(-1.0, -0.5), iv(-1.0, -0.5)].into_iter().collect()),
        Stratum::inner([iv(-0.5, 0.5), iv(-1.0, -0.5)].into_iter().collect()),
        Stratum::boundary([iv(0.5, 1.0), iv(-1.0, -0.5)].into_iter().collect()),
        Stratum::boundary([iv(-0.5, 0.5), iv(-0.5, 0.0)].into_iter().collect()),
    ];
    let strat_paper = stratified_plan(
        &pred,
        &paper_boxes,
        &domain,
        &profile,
        samples,
        Allocation::EqualPerStratum,
        plan,
    );
    rows.push(row("stratified (paper's 4 boxes)", 4, strat_paper));

    // Boxes from our own paver (RealPaver-substitute defaults).
    let paving = pave(pc, &domain, &PaverConfig::default());
    let strata: Vec<Stratum> = paving
        .inner
        .iter()
        .cloned()
        .map(Stratum::inner)
        .chain(paving.boundary.iter().cloned().map(Stratum::boundary))
        .collect();
    let n = strata.len();
    let strat_icp = stratified_plan(
        &pred,
        &strata,
        &domain,
        &profile,
        samples,
        Allocation::EqualPerStratum,
        plan,
    );
    rows.push(row("stratified (ICP paving)", n, strat_icp));
    rows
}

fn row(method: &str, strata: usize, e: Estimate) -> Row {
    Row {
        method: method.to_owned(),
        strata,
        mean: e.mean,
        variance: e.variance,
    }
}

/// The paper's per-box Table 1 (weights and per-box estimates) for the
/// four-box stratification.
pub fn per_box_table(samples_per_box: u64, seed: u64) -> Vec<(String, f64, f64, f64)> {
    let sys = parse_system(
        "var x in [-1, 1]; var y in [-1, 1];
         pc x <= -y && y <= x;",
    )
    .expect("static source");
    let pc = &sys.constraint_set.pcs()[0];
    let domain = domain_box(&sys.domain);
    let profile = UsageProfile::uniform(2);
    let iv = Interval::new;
    let boxes: Vec<(&str, IntervalBox, bool)> = vec![
        (
            "b1",
            [iv(-1.0, -0.5), iv(-1.0, -0.5)].into_iter().collect(),
            false,
        ),
        (
            "b2",
            [iv(-0.5, 0.5), iv(-1.0, -0.5)].into_iter().collect(),
            true,
        ),
        (
            "b3",
            [iv(0.5, 1.0), iv(-1.0, -0.5)].into_iter().collect(),
            false,
        ),
        (
            "b4",
            [iv(-0.5, 0.5), iv(-0.5, 0.0)].into_iter().collect(),
            false,
        ),
    ];
    let pred = ScalarPred(|p: &[f64]| pc.holds(p));
    let plan = SamplePlan::serial(seed);
    let mut out = Vec::new();
    for (i, (name, boxed, certain)) in boxes.into_iter().enumerate() {
        let w = profile.box_probability(&boxed, &domain);
        let est = if certain {
            Estimate::ONE
        } else {
            hit_or_miss_plan(
                &pred,
                &boxed,
                &profile,
                samples_per_box,
                plan.substream(i as u64),
            )
        };
        out.push((name.to_owned(), w, est.mean, est.variance));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratification_beats_plain() {
        let rows = run(10_000, 42);
        assert_eq!(rows.len(), 3);
        let plain = &rows[0];
        let strat = &rows[1];
        let icp = &rows[2];
        for r in [plain, strat, icp] {
            assert!((r.mean - 0.25).abs() < 0.02, "{}: {}", r.method, r.mean);
        }
        assert!(strat.variance < plain.variance / 2.0);
        assert!(icp.variance < plain.variance);
    }

    #[test]
    fn per_box_matches_paper_structure() {
        let t = per_box_table(2_500, 7);
        assert_eq!(t.len(), 4);
        // Weights: 1/16, 2/16, 1/16, 2/16 of the domain.
        assert!((t[0].1 - 0.0625).abs() < 1e-12);
        assert!((t[1].1 - 0.125).abs() < 1e-12);
        // b2 is the inner box: exact 1 with variance 0.
        assert_eq!(t[1].2, 1.0);
        assert_eq!(t[1].3, 0.0);
    }
}
