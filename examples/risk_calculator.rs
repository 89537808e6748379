//! Probabilistic analysis of a medical risk calculator (the paper's
//! Table 3 EGFR/CORONARY workloads): compare qCORAL against the two
//! baselines, and demonstrate the non-uniform usage-profile extension.
//!
//! Run with: `cargo run --release --example risk_calculator`

use qcoral::{Analyzer, Options};
use qcoral_baselines::{adaptive_probability, volcomp_bounds, AdaptiveConfig, VOLCOMP_PAVER};
use qcoral_icp::domain_box;
use qcoral_mc::{Dist, UsageProfile};
use qcoral_subjects::table3_subjects;
use qcoral_symexec::SymConfig;

fn main() {
    let subjects = table3_subjects();
    let coronary = subjects
        .iter()
        .find(|s| s.name == "CORONARY")
        .expect("CORONARY subject exists");

    // Assertion 0: the high-risk tail `tmp >= 5`.
    let (domain, cs) = coronary.system_for(0, &SymConfig::default());
    let dbox = domain_box(&domain);

    println!(
        "CORONARY, assertion `tmp >= 5` ({} target paths)\n",
        cs.len()
    );

    let adaptive = adaptive_probability(&cs, &dbox, &AdaptiveConfig::default());
    println!(
        "adaptive integration : {:.6} (error est. {:.1e}, converged: {})",
        adaptive.value, adaptive.error_estimate, adaptive.converged
    );

    let bounds = volcomp_bounds(&cs, &dbox, &VOLCOMP_PAVER);
    println!("interval bounding    : {bounds}");

    let uniform = UsageProfile::uniform(domain.len());
    let report = Analyzer::new(Options::strat_partcache().with_samples(50_000).with_seed(3))
        .analyze(&cs, &domain, &uniform);
    println!(
        "qCORAL (uniform)     : {:.6} (sigma {:.1e})",
        report.estimate.mean,
        report.std_dev()
    );

    // Extension: a realistic, non-uniform patient population. Age skewed
    // towards the elderly, cholesterol towards the middle, HDL towards
    // low values — the histogram profiles of Filieri et al. [11].
    let age = domain.index_of("age").expect("age param").index();
    let chol = domain.index_of("chol").expect("chol param").index();
    let hdl = domain.index_of("hdl").expect("hdl param").index();
    let skewed = UsageProfile::uniform(domain.len())
        .with_dist(
            age,
            Dist::piecewise(vec![30.0, 50.0, 65.0, 74.0], vec![1.0, 3.0, 4.0]),
        )
        .with_dist(
            chol,
            Dist::piecewise(vec![150.0, 200.0, 250.0, 300.0], vec![1.0, 3.0, 1.0]),
        )
        .with_dist(
            hdl,
            Dist::piecewise(vec![20.0, 40.0, 70.0, 100.0], vec![3.0, 2.0, 1.0]),
        );
    let report2 = Analyzer::new(Options::strat_partcache().with_samples(50_000).with_seed(3))
        .analyze(&cs, &domain, &skewed);
    println!(
        "qCORAL (elderly pop.): {:.6} (sigma {:.1e})",
        report2.estimate.mean,
        report2.std_dev()
    );
    println!("\nThe high-risk event becomes markedly more likely under the skewed profile.");
    assert!(report2.estimate.mean > report.estimate.mean);
}
