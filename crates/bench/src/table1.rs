//! Figure 2 / Table 1: the worked stratification example.
//!
//! The constraint `x ≤ −y ∧ y ≤ x` over `[−1, 1]²` has probability
//! exactly 1/4. Plain hit-or-miss with 10⁴ samples is compared against
//! stratified sampling over the paper's four boxes (b1–b4) and over the
//! boxes our own ICP paver produces.

use serde::Serialize;

use qcoral_constraints::parse::parse_system;
use qcoral_constraints::PathCondition;
use qcoral_icp::{domain_box, pave, PaverConfig};
use qcoral_interval::{Interval, IntervalBox};
use qcoral_mc::{
    initial_allocation, refine_plan, Allocation, BulkPred, Estimate, SamplePlan, ScalarPred,
    Strata, Stratum, StratumAccum, UsageProfile,
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

/// The Figure 2 path condition and its domain box.
fn figure2() -> (PathCondition, IntervalBox) {
    let sys = parse_system(
        "var x in [-1, 1]; var y in [-1, 1];
         pc x <= -y && y <= x;",
    )
    .expect("static source");
    (sys.constraint_set.pcs()[0].clone(), domain_box(&sys.domain))
}

/// The paper's Table 1 boxes b1–b4; b2 is the inner box.
fn paper_boxes() -> Vec<(&'static str, Stratum)> {
    let boxed = |x: (f64, f64), y: (f64, f64)| -> IntervalBox {
        [Interval::new(x.0, x.1), Interval::new(y.0, y.1)]
            .into_iter()
            .collect()
    };
    vec![
        ("b1", Stratum::boundary(boxed((-1.0, -0.5), (-1.0, -0.5)))),
        ("b2", Stratum::inner(boxed((-0.5, 0.5), (-1.0, -0.5)))),
        ("b3", Stratum::boundary(boxed((0.5, 1.0), (-1.0, -0.5)))),
        ("b4", Stratum::boundary(boxed((-0.5, 0.5), (-0.5, 0.0)))),
    ]
}

/// Stratified sampling (Eq. 3) of `samples` split equally over the
/// sampled strata, the paper's allocation.
fn stratified(
    pred: &impl BulkPred,
    strata: Vec<Stratum>,
    domain: &IntervalBox,
    profile: &UsageProfile,
    samples: u64,
    plan: SamplePlan,
) -> Estimate {
    let mut strata = Strata::new(strata, profile, domain, plan);
    let counts = initial_allocation(Allocation::EqualPerStratum, samples, &strata.weights());
    strata.refine(pred, profile, &counts);
    strata.estimate()
}

/// Runs the Figure 2 example with the given total sample budget.
pub fn run(samples: u64, seed: u64) -> Vec<Row> {
    let (pc, domain) = figure2();
    let profile = UsageProfile::uniform(2);
    let pred = ScalarPred(|p: &[f64]| pc.holds(p));
    let plan = SamplePlan::serial(seed);

    let mut rows = Vec::new();

    let plain = refine_plan(&pred, &domain, &profile, samples, plan, StratumAccum::EMPTY);
    rows.push(row("hit-or-miss (plain)", 1, plain.estimate()));

    let paper: Vec<Stratum> = paper_boxes().into_iter().map(|(_, s)| s).collect();
    let strat_paper = stratified(&pred, paper, &domain, &profile, samples, plan);
    rows.push(row("stratified (paper's 4 boxes)", 4, strat_paper));

    // Boxes from our own paver (RealPaver-substitute defaults).
    let paving = pave(&pc, &domain, &PaverConfig::default());
    let strata: Vec<Stratum> = paving
        .inner
        .iter()
        .cloned()
        .map(Stratum::inner)
        .chain(paving.boundary.iter().cloned().map(Stratum::boundary))
        .collect();
    let n = strata.len();
    let strat_icp = stratified(&pred, strata, &domain, &profile, samples, plan);
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
    let (pc, domain) = figure2();
    let profile = UsageProfile::uniform(2);
    let pred = ScalarPred(|p: &[f64]| pc.holds(p));
    let boxes = paper_boxes();
    let paper = boxes.iter().map(|(_, s)| s.clone());
    let mut strata = Strata::new(paper, &profile, &domain, SamplePlan::serial(seed));
    strata.refine(&pred, &profile, &vec![samples_per_box; strata.len()]);
    let mut sampled = strata.estimates();
    boxes
        .into_iter()
        .map(|(name, s)| {
            let w = profile.box_probability(&s.boxed, &domain);
            let est = match s.certain {
                true => Estimate::ONE,
                false => sampled.next().expect("every boundary box is sampled").1,
            };
            (name.to_owned(), w, est.mean, est.variance)
        })
        .collect()
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
