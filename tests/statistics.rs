//! Statistical soundness of the reported variances: the numbers qCORAL
//! prints must *mean* something.
//!
//! For subjects with known ground truth, every engine — plain
//! hit-or-miss, ICP-stratified, and the iterative variance-driven
//! engine — is run many times under independent seeds, and the reported
//! variance must bracket the truth at (at least) the coverage a sound
//! variance bound implies: we require ≥ 90% of runs within
//! `3σ_reported + 3σ_truth` of the ground truth. Chebyshev alone
//! guarantees ≈ 88.9% for *exact* variances at 3σ; the composed
//! variance is an upper bound (Theorem 1) and the per-stratum
//! estimators are binomial, so real coverage sits near 99% — a run
//! under 90% means the variance accounting is broken, not unlucky.
//!
//! Ground truth is the paper's exact value where known (§4.4) and a
//! large fixed-seed direct Monte Carlo elsewhere, with its own 3σ folded
//! into the tolerance.
//!
//! The rare-event suite (`coverage_importance_sampling_rare_events`)
//! holds the adaptive importance-sampling engine to the same standard
//! on ~1e-8 probabilities with closed-form truth — a regime where the
//! stratified engines report `0 ± 0` — and
//! `degenerate_proposal_falls_back_deterministically` pins down the
//! engine's behavior when the proposal cannot find a single hit.

use std::sync::Arc;

use qcoral::{Analyzer, Options, Report};
use qcoral_constraints::parse::parse_system;
use qcoral_constraints::{ConstraintSet, Domain};
use qcoral_icp::PavingCache;
use qcoral_mc::{Allocation, Moments, UsageProfile};
use qcoral_subjects::{rare_subjects, table3_subjects};
use qcoral_symexec::SymConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const RUNS: u64 = 25;
const SAMPLES: u64 = 1_500;
/// Minimum fraction of runs whose reported 3σ interval covers the truth.
const MIN_COVERAGE: f64 = 0.9;
/// Sample budget of the rare-event (importance-sampling) runs: ~1e-8
/// probabilities need more draws than the percent-scale subjects above,
/// and still about six orders of magnitude fewer than direct sampling
/// would.
const RARE_SAMPLES: u64 = 16_384;
/// Paver budget of the rare-event runs: rare-event work wants a finer
/// paving than the paper's 10-box default, because the boundary boxes
/// both seed the IS proposal and bound the importance weights
/// (`w ≤ M_b/const` — the smaller the boundary mass, the lighter the
/// weight tail).
const RARE_BOXES: usize = 256;

/// Ground truth with its standard error: direct Monte Carlo over the
/// constraint set with a fixed seed, independent of every analyzer
/// path. Predicates run on compiled tapes, which evaluate each distinct
/// sub-term once per sample; `PathCondition::holds` would recompute a
/// shared sub-term at every occurrence (~10⁵ nodes per INVPEND sample).
fn ground_truth(cs: &ConstraintSet, domain: &Domain, n: u64) -> (f64, f64) {
    let tapes: Vec<qcoral_constraints::EvalTape> = cs
        .pcs()
        .iter()
        .map(qcoral_constraints::EvalTape::compile)
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x6706_1713);
    let bounds: Vec<(f64, f64)> = domain.iter().map(|(_, v)| (v.lo, v.hi)).collect();
    let mut p = vec![0.0; bounds.len()];
    let mut hits = 0u64;
    for _ in 0..n {
        for (x, &(lo, hi)) in p.iter_mut().zip(&bounds) {
            *x = rng.gen_range(lo..hi);
        }
        if tapes.iter().any(|t| t.holds(&p)) {
            hits += 1;
        }
    }
    let mean = hits as f64 / n as f64;
    (mean, (mean * (1.0 - mean) / n as f64).sqrt())
}

/// One engine under test: a name plus how to run it for a given seed.
struct Engine {
    name: &'static str,
    run: Box<dyn Fn(u64) -> Report>,
}

fn engines(cs: ConstraintSet, domain: Domain, profile: UsageProfile) -> Vec<Engine> {
    // One paving cache per engine family: seeds never change pavings, so
    // all RUNS runs pave once. (Plain never paves.)
    let strat_cache = Arc::new(PavingCache::new());
    let adaptive_cache = Arc::new(PavingCache::new());
    let mk = move |opts: Options, cache: Option<Arc<PavingCache>>, iterative: bool| {
        let (cs, domain, profile) = (cs.clone(), domain.clone(), profile.clone());
        Box::new(move |seed: u64| {
            let mut analyzer = Analyzer::new(opts.clone().with_seed(seed));
            if let Some(cache) = &cache {
                analyzer = analyzer.with_paving_cache(Arc::clone(cache));
            }
            if iterative {
                analyzer.analyze_iterative(&cs, &domain, &profile)
            } else {
                analyzer.analyze(&cs, &domain, &profile)
            }
        }) as Box<dyn Fn(u64) -> Report>
    };
    // The adaptive run chases an unreachable target for a few rounds, so
    // every run exercises cross-round merging and reallocation before
    // reporting its variance.
    let adaptive_opts = Options::strat_partcache()
        .with_samples(SAMPLES)
        .with_target_stderr(0.0)
        .with_round_budget(SAMPLES)
        .with_max_rounds(3);
    vec![
        Engine {
            name: "plain",
            run: mk(Options::plain().with_samples(SAMPLES), None, false),
        },
        Engine {
            name: "stratified",
            run: mk(
                Options::strat().with_samples(SAMPLES),
                Some(strat_cache),
                false,
            ),
        },
        Engine {
            name: "adaptive",
            run: mk(adaptive_opts, Some(adaptive_cache), true),
        },
    ]
}

/// Runs every engine `RUNS` times under a uniform profile and asserts
/// the coverage bound.
fn assert_coverage(subject: &str, cs: ConstraintSet, domain: Domain, truth: f64, truth_sigma: f64) {
    let profile = UsageProfile::uniform(domain.len());
    assert_coverage_with(subject, cs, domain, profile, truth, truth_sigma);
}

/// Runs every engine `RUNS` times under the given usage profile and
/// asserts the coverage bound.
fn assert_coverage_with(
    subject: &str,
    cs: ConstraintSet,
    domain: Domain,
    profile: UsageProfile,
    truth: f64,
    truth_sigma: f64,
) {
    for engine in engines(cs, domain, profile) {
        let mut covered = 0u64;
        let mut dispersion = Moments::default();
        let mut worst: Option<(f64, f64)> = None;
        for seed in 0..RUNS {
            let r = (engine.run)(seed);
            let err = (r.estimate.mean - truth).abs();
            let tolerance = 3.0 * r.estimate.std_dev() + 3.0 * truth_sigma + 1e-12;
            if err <= tolerance {
                covered += 1;
            } else if worst.is_none_or(|(w, _)| err > w) {
                worst = Some((err, r.estimate.std_dev()));
            }
            dispersion.push(r.estimate.mean);
        }
        let coverage = covered as f64 / RUNS as f64;
        assert!(
            coverage >= MIN_COVERAGE,
            "{subject}/{}: only {covered}/{RUNS} runs within 3σ of truth {truth} \
             (worst miss {worst:?}, run dispersion σ {:.3e})",
            engine.name,
            dispersion.sample_variance().sqrt(),
        );
        // Sanity on the other side: the runs actually scatter around the
        // truth, not somewhere else entirely.
        assert!(
            (dispersion.mean() - truth).abs() <= 5.0 * truth_sigma + 0.02,
            "{subject}/{}: run mean {} far from truth {truth}",
            engine.name,
            dispersion.mean(),
        );
    }
}

/// The paper's §4.4 worked example, with the exact probability the paper
/// reports — no Monte Carlo truth needed.
#[test]
fn coverage_paper_safety_monitor() {
    let sys = parse_system(
        "var altitude in [0, 20000];
         var headFlap in [-10, 10];
         var tailFlap in [-10, 10];
         pc altitude > 9000;
         pc altitude <= 9000 && sin(headFlap * tailFlap) > 0.25;",
    )
    .unwrap();
    assert_coverage(
        "safety-monitor",
        sys.constraint_set,
        sys.domain,
        0.737848,
        0.0,
    );
}

fn volcomp_system(name: &str, idx: usize) -> (Domain, ConstraintSet) {
    let subjects = table3_subjects();
    let subj = subjects
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("subject {name} exists"));
    subj.system_for(idx, &SymConfig::default())
}

#[test]
fn coverage_volcomp_cart() {
    let (domain, cs) = volcomp_system("CART", 1); // count >= 1
    let (truth, sigma) = ground_truth(&cs, &domain, 200_000);
    assert_coverage("CART[count>=1]", cs, domain, truth, sigma);
}

#[test]
fn coverage_volcomp_invpend() {
    let (domain, cs) = volcomp_system("INVPEND", 0);
    let (truth, sigma) = ground_truth(&cs, &domain, 200_000);
    assert_coverage("INVPEND", cs, domain, truth, sigma);
}

#[test]
fn coverage_volcomp_vol() {
    let (domain, cs) = volcomp_system("VOL", 0); // count >= 20
    let (truth, sigma) = ground_truth(&cs, &domain, 200_000);
    assert_coverage("VOL", cs, domain, truth, sigma);
}

/// Non-uniform ground truth, closed form: `P[x < 0.5]` under
/// `N(0.5, 0.1)` truncated to `[0, 1]` is exactly 1/2 by symmetry, and
/// the `y` factor's probability under its uniform marginal is an
/// interval length — so the product truth needs no Monte Carlo at all.
#[test]
fn coverage_nonuniform_truncated_normal() {
    use qcoral_mc::Dist;
    let sys = parse_system(
        "var x in [0, 1]; var y in [0, 1];
         pc x < 0.5 && sin(3 * y) > 0.5;",
    )
    .unwrap();
    let profile = UsageProfile::uniform(2).with_dist(0, Dist::truncated_normal(0.5, 0.1, 0.0, 1.0));
    // sin(3y) > 0.5 ⇔ 3y ∈ (π/6, 5π/6) ⇔ y ∈ (π/18, 5π/18): length 2π/9.
    let truth = 0.5 * (2.0 * std::f64::consts::PI / 9.0);
    assert_coverage_with(
        "TN-safety",
        sys.constraint_set,
        sys.domain,
        profile,
        truth,
        0.0,
    );
}

/// Same harness under an exponential marginal:
/// `P[x < 0.5 | x ∈ [0, 1]] = (1 − e⁻¹)/(1 − e⁻²)` for `x ~ Exp(2)`.
#[test]
fn coverage_nonuniform_exponential() {
    use qcoral_mc::Dist;
    let sys = parse_system(
        "var x in [0, 1]; var y in [0, 1];
         pc x < 0.5 && sin(3 * y) > 0.5;",
    )
    .unwrap();
    let profile = UsageProfile::uniform(2).with_dist(0, Dist::exponential(2.0));
    let px = (1.0 - (-1.0f64).exp()) / (1.0 - (-2.0f64).exp());
    let truth = px * (2.0 * std::f64::consts::PI / 9.0);
    assert_coverage_with(
        "Exp-safety",
        sys.constraint_set,
        sys.domain,
        profile,
        truth,
        0.0,
    );
}

/// Rare-event coverage of the adaptive importance-sampling engine
/// ([`Allocation::ImportanceAdaptive`]): on every closed-form ~1e-8
/// subject, at least 90% of 25 seeded one-shot runs must land within
/// `3σ_reported` of the exact truth, and every run must actually have
/// escalated to IS (no silent fallbacks). The classic stratified
/// engines are structurally unable to do this at any comparable budget
/// — nearly every stratum reports zero hits and `0 ± 0` — which is
/// exactly the failure mode the IS escalation exists to fix.
#[test]
fn coverage_importance_sampling_rare_events() {
    for subj in rare_subjects() {
        let (cs, domain, profile) = subj.system();
        let truth = subj.truth();
        let cache = Arc::new(PavingCache::new());
        let mut covered = 0u64;
        let mut escalated = 0u64;
        let mut dispersion = Moments::default();
        let mut worst: Option<(f64, f64)> = None;
        for seed in 0..RUNS {
            let mut opts = Options::strat()
                .with_samples(RARE_SAMPLES)
                .with_seed(seed)
                .with_allocation(Allocation::ImportanceAdaptive);
            opts.paver.max_boxes = RARE_BOXES;
            let r = Analyzer::new(opts)
                .with_paving_cache(Arc::clone(&cache))
                .analyze(&cs, &domain, &profile);
            if r.stats.is_factors > 0 {
                escalated += 1;
            }
            let err = (r.estimate.mean - truth).abs();
            if err <= 3.0 * r.estimate.std_dev() + 1e-14 {
                covered += 1;
            } else if worst.is_none_or(|(w, _)| err > w) {
                worst = Some((err, r.estimate.std_dev()));
            }
            dispersion.push(r.estimate.mean);
        }
        assert_eq!(
            escalated, RUNS,
            "{}: every run must escalate to IS",
            subj.name
        );
        let coverage = covered as f64 / RUNS as f64;
        assert!(
            coverage >= MIN_COVERAGE,
            "{}: only {covered}/{RUNS} IS runs within 3σ of truth {truth:.4e} \
             (worst miss {worst:?})",
            subj.name,
        );
        // The runs scatter around the truth itself, not around some
        // other value with coincidentally wide error bars.
        assert!(
            (dispersion.mean() - truth).abs() <= 0.5 * truth,
            "{}: run mean {:.4e} far from truth {truth:.4e}",
            subj.name,
            dispersion.mean(),
        );
    }
}

/// A proposal whose pilot round finds zero hits is degenerate, and the
/// analyzer's reaction is *deterministic*: fall back to the stratified
/// Neyman follow-up and flag it in [`qcoral::Stats::is_fallbacks`].
/// The sin-peaks subject at the paper's default 10-box paving is
/// engineered to trigger this: the satisfying needles occupy ~1e-7 of
/// the coarse peak boxes, so no IS pilot at this budget ever hits one.
#[test]
fn degenerate_proposal_falls_back_deterministically() {
    let subj = rare_subjects()
        .into_iter()
        .find(|s| !s.is_reachable)
        .expect("a designed-fallback subject exists");
    let (cs, domain, profile) = subj.system();
    let run = |seed: u64| {
        // Default paver: 10 boxes, too coarse for the needles.
        let opts = Options::strat()
            .with_samples(8_192)
            .with_seed(seed)
            .with_allocation(Allocation::ImportanceAdaptive);
        Analyzer::new(opts).analyze(&cs, &domain, &profile)
    };
    for seed in [1, 7, 42] {
        let r = run(seed);
        assert_eq!(r.stats.is_fallbacks, 1, "seed {seed}: fallback flagged");
        assert_eq!(r.stats.is_factors, 0, "seed {seed}: no IS factor");
        // Same seed, same degenerate pilot, same fallback estimate.
        let again = run(seed);
        assert_eq!(r.estimate.mean.to_bits(), again.estimate.mean.to_bits());
        assert_eq!(
            r.estimate.variance.to_bits(),
            again.estimate.variance.to_bits()
        );
    }
}

/// Exact subjects must be *exactly* right with zero reported variance,
/// under every engine that can see the exactness (the plain engine has
/// no ICP, so it is only required to cover).
#[test]
fn exact_subjects_report_zero_variance_truthfully() {
    let sys = parse_system(
        "var x in [-2, 2]; var y in [-2, 2];
         pc x >= -1 && x <= 1 && y >= -1 && y <= 1;",
    )
    .unwrap();
    let profile = UsageProfile::uniform(2);
    for (name, report) in [
        (
            "stratified",
            Analyzer::new(Options::strat().with_samples(200)).analyze(
                &sys.constraint_set,
                &sys.domain,
                &profile,
            ),
        ),
        (
            "adaptive",
            Analyzer::new(
                Options::strat_partcache()
                    .with_samples(200)
                    .with_target_stderr(0.0)
                    .with_max_rounds(5),
            )
            .analyze_iterative(&sys.constraint_set, &sys.domain, &profile),
        ),
    ] {
        assert_eq!(report.estimate.variance, 0.0, "{name}");
        assert!(
            (report.estimate.mean - 0.25).abs() < 1e-12,
            "{name}: {}",
            report.estimate.mean
        );
    }
}
