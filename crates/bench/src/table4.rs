//! Table 4: feature ablation on the aerospace subjects.
//!
//! Four configurations per subject and sample budget:
//!
//! 1. `Monte Carlo (baseline)` — whole-disjunction hit-or-miss (the
//!    paper's "Mathematica" Monte Carlo column),
//! 2. `qCORAL{}` — per-PC hit-or-miss with Theorem 1 composition,
//! 3. `qCORAL{STRAT}` — adds ICP stratified sampling,
//! 4. `qCORAL{STRAT,PARTCACHE}` — adds independence partitioning and the
//!    partition cache.

use std::time::Instant;

use serde::Serialize;

use qcoral::{Analyzer, Options};
use qcoral_baselines::plain_monte_carlo;
use qcoral_constraints::{ConstraintSet, Domain};
use qcoral_icp::domain_box;
use qcoral_mc::{SamplePlan, UsageProfile};
use qcoral_subjects::{aerospace_subjects_with, AerospaceSubject};
use qcoral_symexec::SymConfig;

/// Configuration labels in table column order.
pub const CONFIGS: [&str; 4] = [
    "Monte Carlo (baseline)",
    "qCORAL{}",
    "qCORAL{STRAT}",
    "qCORAL{STRAT,PARTCACHE}",
];

/// One cell: a subject × sample budget × configuration measurement.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Subject name.
    pub subject: String,
    /// Number of quantified PCs (70% of complete paths).
    pub pcs: usize,
    /// Sample budget per analyzed sub-problem (the baseline receives
    /// `samples × pcs` in total, matching the per-PC analyses' work).
    pub samples: u64,
    /// Configuration label (one of [`CONFIGS`]).
    pub config: String,
    /// Estimated probability.
    pub estimate: f64,
    /// Reported σ.
    pub sigma: f64,
    /// Wall time (s).
    pub secs: f64,
}

/// Runs the full Table 4 protocol over the three subjects. `apollo_stages`
/// scales the Apollo path count (7 in the shipped tables).
pub fn run(sample_budgets: &[u64], apollo_stages: usize, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for subj in aerospace_subjects_with(apollo_stages) {
        rows.extend(run_subject(&subj, sample_budgets, seed));
    }
    rows
}

/// Runs one subject across all budgets and configurations.
pub fn run_subject(subj: &AerospaceSubject, sample_budgets: &[u64], seed: u64) -> Vec<Row> {
    let (domain, cs) = subj.constraint_set(&SymConfig::default());
    let mut rows = Vec::new();
    for &samples in sample_budgets {
        rows.extend(run_cell(subj.name, &domain, &cs, samples, seed));
    }
    rows
}

/// Runs the four configurations for one subject at one budget.
pub fn run_cell(
    name: &str,
    domain: &Domain,
    cs: &ConstraintSet,
    samples: u64,
    seed: u64,
) -> Vec<Row> {
    let profile = UsageProfile::uniform(domain.len());
    let dbox = domain_box(domain);
    let mut rows = Vec::new();

    // Baseline: whole-disjunction hit-or-miss. The per-PC analyses below
    // get `samples` per sub-problem (the paper's "maximum number of
    // samples allowed for simulation"), so the baseline gets the same
    // total budget — capped, because each whole-disjunction sample costs
    // O(#PCs) membership tests and the product becomes quadratic on
    // many-PC subjects (the blow-up behind the paper's slow Mathematica
    // Monte Carlo column).
    const BASELINE_SAMPLE_CAP: u64 = 2_000_000;
    let t0 = Instant::now();
    let total = samples
        .saturating_mul(cs.len().max(1) as u64)
        .clamp(1, BASELINE_SAMPLE_CAP);
    let base = plain_monte_carlo(cs, &dbox, &profile, total, SamplePlan::serial(seed));
    rows.push(Row {
        subject: name.to_owned(),
        pcs: cs.len(),
        samples,
        config: CONFIGS[0].to_owned(),
        estimate: base.mean,
        sigma: base.std_dev(),
        secs: t0.elapsed().as_secs_f64(),
    });

    let configs = [
        (CONFIGS[1], Options::plain()),
        (CONFIGS[2], Options::strat()),
        (CONFIGS[3], Options::strat_partcache()),
    ];
    for (label, opts) in configs {
        let opts = opts.with_samples(samples).with_seed(seed);
        let report = Analyzer::new(opts).analyze(cs, domain, &profile);
        rows.push(Row {
            subject: name.to_owned(),
            pcs: cs.len(),
            samples,
            config: label.to_owned(),
            estimate: report.estimate.mean,
            sigma: report.estimate.std_dev(),
            secs: report.wall.as_secs_f64(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_subjects::aerospace_subjects_with;

    #[test]
    fn configs_agree_and_strat_reduces_sigma() {
        // Conflict at a modest budget: all four configs estimate the same
        // probability; STRAT variants report smaller σ than qCORAL{}.
        let subj = &aerospace_subjects_with(3)[1];
        let rows = run_subject(subj, &[20_000], 9);
        assert_eq!(rows.len(), 4);
        let means: Vec<f64> = rows.iter().map(|r| r.estimate).collect();
        for w in means.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 0.08,
                "config estimates diverge: {means:?}"
            );
        }
        let plain_sigma = rows[1].sigma;
        let strat_sigma = rows[2].sigma;
        assert!(
            strat_sigma <= plain_sigma * 1.2,
            "STRAT {strat_sigma} should not be much worse than plain {plain_sigma}"
        );
    }

    #[test]
    fn apollo_partcache_runs_and_matches() {
        let subj = &aerospace_subjects_with(3)[0];
        let rows = run_subject(subj, &[4_000], 3);
        let strat = rows.iter().find(|r| r.config == CONFIGS[2]).unwrap();
        let cache = rows.iter().find(|r| r.config == CONFIGS[3]).unwrap();
        assert!(
            (strat.estimate - cache.estimate).abs() < 0.1,
            "{} vs {}",
            strat.estimate,
            cache.estimate
        );
    }
}
