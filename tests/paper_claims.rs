//! Tests pinning the paper's headline quantitative claims — the "shape"
//! of every table, at reduced budgets so the suite stays fast.

use qcoral::{Analyzer, Options};
use qcoral_baselines::{adaptive_probability, volcomp_bounds, AdaptiveConfig, VOLCOMP_PAVER};
use qcoral_constraints::parse::parse_system;
use qcoral_icp::{domain_box, PaverConfig};
use qcoral_mc::UsageProfile;
use qcoral_subjects::{aerospace_subjects_with, all_solids, table3_subjects};
use qcoral_symexec::SymConfig;

/// §4.4: the worked example's exact probability is 0.737848; qCORAL's
/// composition (Eq. 5–8) reproduces it.
#[test]
fn section_4_4_worked_example() {
    let sys = parse_system(
        "var altitude in [0, 20000];
         var headFlap in [-10, 10];
         var tailFlap in [-10, 10];
         pc altitude > 9000;
         pc altitude <= 9000 && sin(headFlap * tailFlap) > 0.25;",
    )
    .unwrap();
    let profile = UsageProfile::uniform(3);
    let report = Analyzer::new(Options::strat_partcache().with_samples(60_000).with_seed(1))
        .analyze(&sys.constraint_set, &sys.domain, &profile);
    // PCT1 is a pure box: exact 0.55 with variance 0.
    assert!((report.per_pc[0].mean - 0.55).abs() < 1e-9);
    assert_eq!(report.per_pc[0].variance, 0.0);
    // Combined estimate near the exact value.
    assert!((report.estimate.mean - 0.737848).abs() < 0.01);
    // The reported variance is small (paper: ~1.6e-6 at their budgets).
    assert!(report.estimate.variance < 1e-4);
}

/// Table 1: stratified sampling with the paper's four boxes cuts variance
/// by well over an order of magnitude at 10⁴ samples.
#[test]
fn table1_variance_reduction_factor() {
    let rows = qcoral_bench::table1::run(10_000, 99);
    let plain = rows[0].variance;
    let strat = rows[1].variance;
    // The paper reports .19131 → .00586 (factor ≈ 33) for the *population*
    // variance; our per-estimator variances show the same order-of-
    // magnitude drop.
    assert!(
        strat < plain / 10.0,
        "stratified {strat} vs plain {plain}: expected ≥10x reduction"
    );
}

/// Table 2 shape: the Cube row is exact (σ = 0) at every budget; errors
/// shrink as budgets grow for the non-exact rows.
#[test]
fn table2_shape() {
    let solids = all_solids();
    let cube = solids.iter().find(|s| s.name == "Cube").unwrap();
    let row = qcoral_bench::table2::run_one(cube, 1_000, 5, 3);
    assert_eq!(row.error_sigma, 0.0);
    assert_eq!(row.estimate, 8.0);

    let sphere = solids.iter().find(|s| s.name == "Sphere").unwrap();
    let s1k = qcoral_bench::table2::run_one(sphere, 1_000, 10, 3);
    let s100k = qcoral_bench::table2::run_one(sphere, 100_000, 10, 3);
    assert!(s100k.error_sigma < s1k.error_sigma);
    assert!((s100k.estimate - sphere.analytic_volume).abs() / sphere.analytic_volume < 0.01);
}

/// Table 3 shape: on a linear subject all three methods agree; the
/// qCORAL estimate falls inside the VolComp bounds (the paper's
/// consistency observation).
#[test]
fn table3_methods_consistent_on_linear_subject() {
    let subjects = table3_subjects();
    let egfr = subjects
        .iter()
        .find(|s| s.name == "EGFR EPI (SIMPLE)")
        .unwrap();
    let (domain, cs) = egfr.system_for(0, &SymConfig::default());
    let dbox = domain_box(&domain);
    let profile = UsageProfile::uniform(domain.len());

    let adaptive = adaptive_probability(&cs, &dbox, &AdaptiveConfig::default());
    let bounds = volcomp_bounds(&cs, &dbox, &VOLCOMP_PAVER);
    let report = Analyzer::new(Options::strat_partcache().with_samples(30_000).with_seed(5))
        .analyze(&cs, &domain, &profile);

    let sigma = report.std_dev().max(1e-3);
    assert!(
        report.estimate.mean >= bounds.lo - 3.0 * sigma
            && report.estimate.mean <= bounds.hi + 3.0 * sigma,
        "qCORAL {} outside VolComp {bounds}",
        report.estimate.mean
    );
    assert!(
        (adaptive.value - report.estimate.mean).abs() < 0.02 + 3.0 * sigma,
        "adaptive {} vs qCORAL {}",
        adaptive.value,
        report.estimate.mean
    );
}

/// Table 3 shape: PACK's totalWeight assertions couple all inputs, so
/// the dependency partition is a single class (the paper's explanation
/// for its slow rows), while ATRIAL's folded-score assertions decompose.
#[test]
fn table3_dependence_structure() {
    use qcoral::dependency_partition;
    let subjects = table3_subjects();

    let pack = subjects.iter().find(|s| s.name == "PACK").unwrap();
    let (pdom, pcs) = pack.system_for(4, &SymConfig::default()); // totalWeight >= 6
    let classes = dependency_partition(&pcs, pdom.len());
    let largest = classes.iter().map(|c| c.count()).max().unwrap();
    assert!(largest >= 7, "PACK totalWeight couples (almost) all inputs");

    let atrial = subjects.iter().find(|s| s.name == "ATRIAL").unwrap();
    let (adom, acs) = atrial.system_for(0, &SymConfig::default()); // points >= 10
    let aclasses = dependency_partition(&acs, adom.len());
    assert_eq!(
        aclasses.len(),
        adom.len(),
        "ATRIAL bracket constraints are univariate: every input its own class"
    );
}

/// Table 4 shape: on Apollo, STRAT reduces σ vs plain, and PARTCACHE is
/// not slower than STRAT alone while agreeing on the estimate.
#[test]
fn table4_shape_on_apollo() {
    let subj = &aerospace_subjects_with(3)[0];
    let rows = qcoral_bench::table4::run_subject(subj, &[4_000], 21);
    let by = |label: &str| {
        rows.iter()
            .find(|r| r.config == label)
            .unwrap_or_else(|| panic!("row {label}"))
    };
    let plain = by("qCORAL{}");
    let strat = by("qCORAL{STRAT}");
    let cache = by("qCORAL{STRAT,PARTCACHE}");
    assert!(
        strat.sigma <= plain.sigma,
        "STRAT sigma {} vs plain {}",
        strat.sigma,
        plain.sigma
    );
    assert!(
        (cache.estimate - strat.estimate).abs() < 0.05,
        "PARTCACHE changes the estimate: {} vs {}",
        cache.estimate,
        strat.estimate
    );
    assert!(
        cache.sigma <= strat.sigma * 1.5,
        "PARTCACHE sigma should stay comparable"
    );
}

/// VOL-style failure mode: with a tiny budget VolComp returns near-vacuous
/// bounds while qCORAL still reports a usable estimate (the paper's VOL
/// row).
#[test]
fn volcomp_degenerates_where_qcoral_does_not() {
    let sys = parse_system(
        "var x in [-10, 10]; var y in [-10, 10];
         pc sin(x * y) > 0.25 && cos(x + y) < 0.9;",
    )
    .unwrap();
    let dbox = domain_box(&sys.domain);
    let bounds = volcomp_bounds(
        &sys.constraint_set,
        &dbox,
        &PaverConfig {
            max_boxes: 4,
            ..VOLCOMP_PAVER
        },
    );
    assert!(
        bounds.width() > 0.5,
        "tiny budget keeps bounds wide: {bounds}"
    );

    let profile = UsageProfile::uniform(2);
    let report = Analyzer::new(Options::strat().with_samples(30_000).with_seed(2)).analyze(
        &sys.constraint_set,
        &sys.domain,
        &profile,
    );
    assert!(report.std_dev() < 0.02, "qCORAL sigma {}", report.std_dev());
    assert!(bounds.contains(report.estimate.mean));
}
