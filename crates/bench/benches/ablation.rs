//! Design-choice ablations beyond the paper's tables:
//!
//! * paver box budget (the paper fixes 10 boxes per query),
//! * stratum sample allocation (equal — the paper's choice — vs
//!   proportional).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcoral::{Allocation, Analyzer, Options, PaverConfig};
use qcoral_mc::UsageProfile;
use qcoral_subjects::all_solids;

fn bench_box_budget(c: &mut Criterion) {
    let solids = all_solids();
    let sphere = solids.iter().find(|s| s.name == "Sphere").expect("sphere");
    let profile = UsageProfile::uniform(3);
    let mut g = c.benchmark_group("ablation_box_budget");
    g.sample_size(10);
    for budget in [4usize, 10, 32, 128] {
        g.bench_with_input(BenchmarkId::new("sphere", budget), &budget, |b, &n| {
            let opts = Options::strat()
                .with_samples(10_000)
                .with_paver(PaverConfig {
                    max_boxes: n,
                    ..PaverConfig::default()
                });
            let analyzer = Analyzer::new(opts);
            b.iter(|| analyzer.analyze(&sphere.constraint_set, &sphere.domain, &profile));
        });
    }
    g.finish();
}

fn bench_allocation(c: &mut Criterion) {
    let solids = all_solids();
    let torus = solids.iter().find(|s| s.name == "Torus").expect("torus");
    let profile = UsageProfile::uniform(3);
    let mut g = c.benchmark_group("ablation_allocation");
    g.sample_size(10);
    for (label, alloc) in [
        ("equal", Allocation::EqualPerStratum),
        ("proportional", Allocation::Proportional),
    ] {
        g.bench_function(label, |b| {
            let mut opts = Options::strat().with_samples(10_000);
            opts.allocation = alloc;
            let analyzer = Analyzer::new(opts);
            b.iter(|| analyzer.analyze(&torus.constraint_set, &torus.domain, &profile));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_box_budget, bench_allocation);
criterion_main!(benches);
