//! Criterion bench for Table 4: the four analyzer configurations on the
//! TSAFE Conflict Probe.

use criterion::{criterion_group, criterion_main, Criterion};
use qcoral::{Analyzer, Options};
use qcoral_baselines::plain_monte_carlo;
use qcoral_icp::domain_box;
use qcoral_mc::{SamplePlan, UsageProfile};
use qcoral_subjects::aerospace_subjects;
use qcoral_symexec::SymConfig;

fn bench_configs(c: &mut Criterion) {
    let subj = &aerospace_subjects()[1]; // Conflict
    let (domain, cs) = subj.constraint_set(&SymConfig::default());
    let dbox = domain_box(&domain);
    let profile = UsageProfile::uniform(domain.len());
    let samples = 10_000u64;
    let per_pc = (samples / cs.len().max(1) as u64).max(100);

    let mut g = c.benchmark_group("table4_conflict_10k");
    g.sample_size(10);
    g.bench_function("baseline_mc", |b| {
        b.iter(|| plain_monte_carlo(&cs, &dbox, &profile, samples, SamplePlan::serial(1)))
    });
    for (label, opts) in [
        ("qcoral_plain", Options::plain()),
        ("qcoral_strat", Options::strat()),
        ("qcoral_strat_partcache", Options::strat_partcache()),
    ] {
        let opts = opts.with_samples(per_pc).with_seed(1);
        g.bench_function(label, |b| {
            let analyzer = Analyzer::new(opts.clone());
            b.iter(|| analyzer.analyze(&cs, &domain, &profile))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_configs);
criterion_main!(benches);
