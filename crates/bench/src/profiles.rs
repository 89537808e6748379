//! Samples-to-target under non-uniform usage profiles: profile-aligned
//! stratification (exact conditional sampling over mass-aligned strata,
//! the analyzer's native path) versus the classical *uniform-strata +
//! reweighting* baseline, emitted as `BENCH_profiles.json`.
//!
//! The baseline is what a profile-oblivious stratifier has to do: pave
//! by constraint geometry, sample each boundary stratum **uniformly**,
//! and recover the profile by importance-reweighting every sample with
//! the profile density (the mean-preserving form of rejection
//! resampling — same estimator, none of rejection's wasted draws, so the
//! baseline is if anything flattered). Its per-stratum variance picks up
//! the density's dispersion; the aligned engine's does not, because it
//! *samples from* the conditional profile and splits strata along the
//! discretized mass edges so allocation follows probability mass.
//!
//! Protocol per non-uniform subject (see
//! `qcoral_subjects::nonuniform_subjects`):
//!
//! 1. A reference aligned run at `reference_budget` samples/PC defines
//!    the target standard error.
//! 2. **Aligned**: smallest per-PC budget whose one-shot aligned run
//!    meets the target (doubling + bisection); the row records its
//!    `samples_drawn`.
//! 3. **Reweighted**: smallest per-PC budget whose uniform-strata
//!    reweighted run meets the same target (same paving cache, same
//!    doubling + bisection); the row records its samples.
//!
//! The emitted summary asserts nothing; the module tests and the CI
//! perf gate read the JSON.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

use qcoral::{Analyzer, Options, Report};
use qcoral_constraints::{ConstraintSet, Domain, EvalTape};
use qcoral_icp::{domain_box, PaverConfig, PavingCache};
use qcoral_interval::IntervalBox;
use qcoral_mc::{mix_seed, proportional_split, Allocation, Estimate, Moments, UsageProfile};
use qcoral_subjects::nonuniform_subjects;
use qcoral_symexec::SymConfig;

use crate::{geomean, samples_to_target};

/// One subject's samples-to-target measurements.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Profiled subject name.
    pub subject: String,
    /// Target standard error both estimators chase.
    pub target_stderr: f64,
    /// The subject resolved exactly (zero variance) — nothing to chase.
    pub trivial: bool,
    /// Samples the winning aligned budget drew.
    pub aligned_samples: u64,
    /// Standard error the aligned run achieved.
    pub aligned_stderr: f64,
    /// Strata the aligned run sampled over (mass-aligned).
    pub aligned_strata: u64,
    /// Samples the winning reweighted budget drew.
    pub reweighted_samples: u64,
    /// Standard error the reweighted run achieved.
    pub reweighted_stderr: f64,
    /// `reweighted_samples / aligned_samples` (> 1 ⇒ aligned wins).
    pub samples_saved: f64,
}

/// The whole emitted document.
#[derive(Clone, Debug, Serialize)]
pub struct Summary {
    /// Reference per-PC budget defining each subject's target.
    pub reference_budget: u64,
    /// Per-subject rows.
    pub rows: Vec<Row>,
    /// Geometric mean of `samples_saved` over non-trivial subjects.
    pub samples_saved_geomean: f64,
    /// Number of non-trivial subjects where aligned needed fewer samples.
    pub aligned_wins: u64,
    /// Non-trivial subject count.
    pub contested: u64,
}

fn aligned_opts(samples: u64) -> Options {
    // Whole-PC stratification (no independence partitioning) so both
    // estimators see the same pavings; Proportional allocation spends
    // the budget by stratum probability mass.
    let mut opts = Options::strat().with_samples(samples).with_seed(1);
    opts.allocation = Allocation::Proportional;
    opts
}

fn aligned_run(
    cache: &Arc<PavingCache>,
    cs: &ConstraintSet,
    domain: &Domain,
    profile: &UsageProfile,
    samples: u64,
) -> Report {
    Analyzer::new(aligned_opts(samples))
        .with_paving_cache(Arc::clone(cache))
        .analyze(cs, domain, profile)
}

/// One uniform-strata reweighted run at `budget` samples per path
/// condition: inner boxes contribute their exact profile mass; boundary
/// boxes draw uniform samples, allocated by **volume** (all a
/// profile-oblivious stratifier can see), each sample weighted by the
/// profile density. Returns the composed estimate and samples drawn.
pub fn reweighted_run(
    cache: &Arc<PavingCache>,
    cs: &ConstraintSet,
    dbox: &IntervalBox,
    profile: &UsageProfile,
    paver: &PaverConfig,
    budget_per_pc: u64,
    seed: u64,
) -> (Estimate, u64) {
    let uniform = UsageProfile::uniform(dbox.ndim());
    let mut total = Estimate::ZERO;
    let mut samples = 0u64;
    for (pc_idx, pc) in cs.pcs().iter().enumerate() {
        let tape = Arc::new(EvalTape::compile(pc));
        let (paving, _) = cache.pave_cached(pc.fingerprint(), &tape, dbox, paver);
        if paving.is_unsat() {
            continue;
        }
        for b in &paving.inner {
            total = total.sum(Estimate::ONE.scale(profile.box_probability(b, dbox)));
        }
        if paving.boundary.is_empty() {
            continue;
        }
        let tape = EvalTape::compile(pc);
        let vols: Vec<f64> = paving.boundary.iter().map(IntervalBox::volume).collect();
        let counts = proportional_split(budget_per_pc, &vols);
        let mut point = vec![0.0; dbox.ndim()];
        let density = profile.density_plan(dbox);
        for (j, b) in paving.boundary.iter().enumerate() {
            let n = counts[j].max(1);
            let mut rng =
                SmallRng::seed_from_u64(mix_seed(seed, ((pc_idx as u64) << 32) | j as u64));
            let mut moments = Moments::default();
            let draw = uniform.draw_plan(b, b);
            for _ in 0..n {
                if !draw.sample(&mut rng, &mut point) {
                    break;
                }
                let g = if tape.holds(&point) {
                    density.density(&point)
                } else {
                    0.0
                };
                moments.push(g);
            }
            samples += n;
            let vol = b.volume();
            let mean = vol * moments.mean();
            let variance = vol * vol * moments.sample_variance() / n as f64;
            total = total.sum(Estimate::new(mean, variance.max(0.0)));
        }
    }
    (total, samples)
}

/// Runs the aligned-vs-reweighted protocol over the non-uniform suite.
pub fn run(reference_budget: u64) -> Summary {
    let mut rows = Vec::new();
    for subj in nonuniform_subjects() {
        let (domain, cs, profile) = subj.system(&SymConfig::default());
        if cs.is_empty() {
            continue;
        }
        let dbox = domain_box(&domain);
        let cache = Arc::new(PavingCache::new());
        let reference = aligned_run(&cache, &cs, &domain, &profile, reference_budget);
        if reference.estimate.variance == 0.0 {
            rows.push(Row {
                subject: subj.name.to_owned(),
                target_stderr: 0.0,
                trivial: true,
                aligned_samples: reference.stats.samples_drawn,
                aligned_stderr: 0.0,
                aligned_strata: reference.stats.inner_boxes + reference.stats.boundary_boxes,
                reweighted_samples: reference.stats.samples_drawn,
                reweighted_stderr: 0.0,
                samples_saved: 1.0,
            });
            continue;
        }
        let target = reference.estimate.std_dev();
        let start = (reference_budget / 16).max(64);

        let aligned = samples_to_target(
            |budget| {
                let r = aligned_run(&cache, &cs, &domain, &profile, budget);
                (r.estimate.std_dev(), r)
            },
            target,
            start,
        );
        let paver = aligned_opts(0).paver;
        let (reweighted_stderr, reweighted_samples) = samples_to_target(
            |budget| {
                let (est, n) = reweighted_run(&cache, &cs, &dbox, &profile, &paver, budget, 1);
                (est.std_dev(), (est.std_dev(), n))
            },
            target,
            start,
        );

        let aligned_samples = aligned.stats.samples_drawn;
        rows.push(Row {
            subject: subj.name.to_owned(),
            target_stderr: target,
            trivial: false,
            aligned_samples,
            aligned_stderr: aligned.estimate.std_dev(),
            aligned_strata: aligned.stats.inner_boxes + aligned.stats.boundary_boxes,
            reweighted_samples,
            reweighted_stderr,
            samples_saved: reweighted_samples as f64 / aligned_samples.max(1) as f64,
        });
    }
    let contested: Vec<&Row> = rows.iter().filter(|r| !r.trivial).collect();
    Summary {
        reference_budget,
        samples_saved_geomean: geomean(contested.iter().map(|r| r.samples_saved)),
        aligned_wins: contested
            .iter()
            .filter(|r| r.aligned_samples < r.reweighted_samples)
            .count() as u64,
        contested: contested.len() as u64,
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

    /// The reweighted baseline is unbiased: on a closed-form subject its
    /// estimate agrees with the exact probability within its own 3σ.
    #[test]
    fn reweighted_baseline_is_unbiased() {
        use qcoral_constraints::parse::parse_system;
        use qcoral_mc::Dist;
        let sys = parse_system("var x in [0, 1]; pc sin(x) > 0.5;").unwrap();
        let profile = UsageProfile::uniform(1).with_dist(0, Dist::normal(0.7, 0.15));
        let dbox = domain_box(&sys.domain);
        let cache = Arc::new(PavingCache::new());
        let paver = PaverConfig::default();
        let (est, n) = reweighted_run(
            &cache,
            &sys.constraint_set,
            &dbox,
            &profile,
            &paver,
            40_000,
            7,
        );
        assert!(n >= 40_000);
        let d = Dist::normal(0.7, 0.15);
        let truth = d.mass(
            &qcoral_interval::Interval::new(std::f64::consts::FRAC_PI_6, 1.0),
            &qcoral_interval::Interval::new(0.0, 1.0),
        );
        assert!(
            (est.mean - truth).abs() <= 3.0 * est.std_dev() + 0.01,
            "reweighted {} ± {} vs truth {truth}",
            est.mean,
            est.std_dev()
        );
    }

    /// Smoke the full protocol at a small budget: rows come out
    /// consistent and the aligned engine wins on most subjects.
    #[test]
    fn emits_consistent_rows() {
        let s = run(2_000);
        assert!(
            s.contested >= 3,
            "need ≥3 contested subjects: {:#?}",
            s.rows
        );
        for r in &s.rows {
            if r.trivial {
                continue;
            }
            assert!(
                r.aligned_stderr <= r.target_stderr + 1e-15,
                "{}: aligned missed its target",
                r.subject
            );
            assert!(r.aligned_samples > 0 && r.reweighted_samples > 0);
        }
        assert!(
            s.samples_saved_geomean > 1.0,
            "aligned must beat reweighting on average: {:#?}",
            s.rows
        );
        let json = serde_json::to_string_pretty(&s).unwrap();
        assert!(json.contains("\"samples_saved\""));
    }
}
