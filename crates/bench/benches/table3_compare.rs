//! Criterion bench for Table 3: the three methods on one representative
//! subject/assertion (EGFR EPI SIMPLE, `f1 <= 4.4 && f >= 4.6`).

use criterion::{criterion_group, criterion_main, Criterion};
use qcoral::{Analyzer, Options};
use qcoral_baselines::{adaptive_probability, volcomp_bounds, AdaptiveConfig, VOLCOMP_PAVER};
use qcoral_icp::domain_box;
use qcoral_mc::UsageProfile;
use qcoral_subjects::table3_subjects;
use qcoral_symexec::SymConfig;

fn bench_methods(c: &mut Criterion) {
    let subjects = table3_subjects();
    let subj = subjects
        .iter()
        .find(|s| s.name == "EGFR EPI (SIMPLE)")
        .expect("subject exists");
    let (domain, cs) = subj.system_for(0, &SymConfig::default());
    let dbox = domain_box(&domain);
    let profile = UsageProfile::uniform(domain.len());

    let mut g = c.benchmark_group("table3");
    g.sample_size(10);
    g.bench_function("adaptive", |b| {
        b.iter(|| adaptive_probability(&cs, &dbox, &AdaptiveConfig::default()))
    });
    g.bench_function("volcomp", |b| {
        b.iter(|| volcomp_bounds(&cs, &dbox, &VOLCOMP_PAVER))
    });
    g.bench_function("qcoral_strat_partcache", |b| {
        b.iter(|| {
            Analyzer::new(Options::strat_partcache().with_samples(30_000).with_seed(1))
                .analyze(&cs, &domain, &profile)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
