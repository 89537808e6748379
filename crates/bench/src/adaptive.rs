//! Samples-to-target: the iterative, variance-driven engine
//! (`Analyzer::analyze_iterative`) versus static `Proportional`
//! allocation on the VolComp suite, emitted as `BENCH_adaptive.json`.
//!
//! Protocol per subject (assertion 0 of every Table 3 subject with a
//! non-empty target set):
//!
//! 1. A *reference* one-shot run at a fixed budget defines the target
//!    standard error — so every subject chases a goal it can actually
//!    reach, whatever its variance scale.
//! 2. **Static**: the smallest one-shot `Proportional` budget whose
//!    composed standard error meets the target, found by doubling and
//!    then bisecting (5 steps); the row records the samples that budget
//!    draws.
//! 3. **Adaptive**: `analyze_iterative` from a small initial round with
//!    the same target; the row records its actual `samples_drawn` and
//!    round count.
//!
//! A subject is *mixed* when its pavings contain both exact (inner) and
//! noisy (boundary) strata — exactly where variance-driven reallocation
//! should shine, because the static split keeps paying for strata that
//! stopped contributing variance after the first samples. The emitted
//! summary asserts nothing; `tests/statistics.rs` and the acceptance
//! check read the JSON.

use std::sync::Arc;

use serde::Serialize;

use qcoral::{Analyzer, Options, Report};
use qcoral_constraints::{ConstraintSet, Domain};
use qcoral_icp::PavingCache;
use qcoral_mc::{Allocation, UsageProfile};
use qcoral_subjects::table3_subjects;
use qcoral_symexec::SymConfig;

use crate::{geomean, samples_to_target};

/// One subject's samples-to-target measurements.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Subject name.
    pub subject: String,
    /// Target standard error both engines chase.
    pub target_stderr: f64,
    /// Whether the subject's pavings mix exact and noisy strata.
    pub mixed: bool,
    /// Samples the winning static `Proportional` budget drew.
    pub static_samples: u64,
    /// Standard error that static run achieved.
    pub static_stderr: f64,
    /// Samples the adaptive engine drew to meet the same target.
    pub adaptive_samples: u64,
    /// Standard error the adaptive run achieved.
    pub adaptive_stderr: f64,
    /// Rounds the adaptive engine executed.
    pub adaptive_rounds: u64,
    /// Whether the adaptive run reported `target_met`.
    pub adaptive_target_met: bool,
    /// `static_samples / adaptive_samples` (> 1 ⇒ adaptive wins).
    pub samples_saved: f64,
}

/// The whole emitted document.
#[derive(Clone, Debug, Serialize)]
pub struct Summary {
    /// Reference one-shot budget defining each subject's target.
    pub reference_budget: u64,
    /// Initial-round/refinement budget of the adaptive engine.
    pub round_budget: u64,
    /// Per-subject rows.
    pub rows: Vec<Row>,
    /// Geometric mean of `samples_saved` over the mixed subjects.
    pub mixed_samples_saved_geomean: f64,
    /// Adaptive drew no more samples than static on every mixed subject.
    pub adaptive_wins_all_mixed: bool,
}

fn static_opts(samples: u64) -> Options {
    let mut opts = Options::strat_partcache()
        .with_samples(samples)
        .with_seed(1);
    opts.allocation = Allocation::Proportional;
    opts
}

/// One-shot static run at `samples` per factor, re-using the shared
/// paving cache across budgets (pavings are budget-independent).
fn static_run(
    cache: &Arc<PavingCache>,
    cs: &ConstraintSet,
    domain: &Domain,
    samples: u64,
) -> Report {
    Analyzer::new(static_opts(samples))
        .with_paving_cache(Arc::clone(cache))
        .analyze(cs, domain, &UsageProfile::uniform(domain.len()))
}

/// Runs the samples-to-target protocol over the VolComp suite.
pub fn run(reference_budget: u64, round_budget: u64) -> Summary {
    let mut rows = Vec::new();
    for subj in table3_subjects() {
        let (domain, cs) = subj.system_for(0, &SymConfig::default());
        if cs.is_empty() {
            continue;
        }
        let profile = UsageProfile::uniform(domain.len());
        // Shared paving cache: the search re-paves nothing.
        let cache = Arc::new(PavingCache::new());
        let reference = static_run(&cache, &cs, &domain, reference_budget);
        let mixed = reference.stats.inner_boxes > 0 && reference.stats.boundary_boxes > 0;
        if reference.estimate.variance == 0.0 {
            // Fully exact subject: both engines are trivially done after
            // one round; nothing to chase.
            rows.push(Row {
                subject: subj.name.to_owned(),
                target_stderr: 0.0,
                mixed: false,
                static_samples: reference.stats.samples_drawn,
                static_stderr: 0.0,
                adaptive_samples: reference.stats.samples_drawn,
                adaptive_stderr: 0.0,
                adaptive_rounds: 1,
                adaptive_target_met: true,
                samples_saved: 1.0,
            });
            continue;
        }
        let target = reference.estimate.std_dev();

        let static_best = samples_to_target(
            |budget| {
                let r = static_run(&cache, &cs, &domain, budget);
                (r.estimate.std_dev(), r)
            },
            target,
            round_budget,
        );

        let adaptive_opts = static_opts(round_budget)
            .with_target_stderr(target)
            .with_round_budget(round_budget)
            .with_max_rounds(4_096);
        let adaptive = Analyzer::new(adaptive_opts)
            .with_paving_cache(Arc::clone(&cache))
            .analyze_iterative(&cs, &domain, &profile);

        rows.push(Row {
            subject: subj.name.to_owned(),
            target_stderr: target,
            mixed,
            static_samples: static_best.stats.samples_drawn,
            static_stderr: static_best.estimate.std_dev(),
            adaptive_samples: adaptive.stats.samples_drawn,
            adaptive_stderr: adaptive.estimate.std_dev(),
            adaptive_rounds: adaptive.stats.rounds,
            adaptive_target_met: adaptive.stats.target_met,
            samples_saved: static_best.stats.samples_drawn as f64
                / adaptive.stats.samples_drawn.max(1) as f64,
        });
    }
    Summary {
        reference_budget,
        round_budget,
        mixed_samples_saved_geomean: geomean(
            rows.iter().filter(|r| r.mixed).map(|r| r.samples_saved),
        ),
        adaptive_wins_all_mixed: rows
            .iter()
            .filter(|r| r.mixed)
            .all(|r| r.adaptive_samples <= r.static_samples),
        rows,
    }
}

/// Serializes a summary to `path` as pretty JSON.
pub fn write_json(summary: &Summary, path: &str) -> std::io::Result<()> {
    std::fs::write(
        path,
        serde_json::to_string_pretty(summary).expect("serializable summary"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_consistent_rows() {
        let s = run(4_000, 1_000);
        assert!(!s.rows.is_empty());
        assert!(s.rows.iter().any(|r| r.mixed), "suite has mixed subjects");
        for r in &s.rows {
            assert!(
                r.adaptive_target_met,
                "{}: adaptive never reached its target (σ {} vs {})",
                r.subject, r.adaptive_stderr, r.target_stderr
            );
            assert!(
                r.adaptive_stderr <= r.target_stderr + 1e-15,
                "{}",
                r.subject
            );
        }
        assert!(
            s.adaptive_wins_all_mixed,
            "adaptive must not need more samples than static on mixed subjects: {:#?}",
            s.rows
        );
        let json = serde_json::to_string_pretty(&s).unwrap();
        assert!(json.contains("\"samples_saved\""));
    }
}
