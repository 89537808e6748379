//! Criterion bench for the rare-event importance-sampling engine: wall
//! time of one `ImportanceAdaptive` analysis on a ~1e-8 subject, plus
//! the `BENCH_rare.json` emitter recording samples-to-target for IS
//! versus the best-case analytic stratified budget over the closed-form
//! rare suite.
//!
//! Run with `cargo bench -p qcoral-bench --bench rare`. The JSON lands
//! at the workspace root (override with `BENCH_RARE_OUT`).

use criterion::{criterion_group, criterion_main, Criterion};
use qcoral::{Analyzer, Options};
use qcoral_bench::rare;
use qcoral_mc::Allocation;
use qcoral_subjects::rare_subjects;

fn bench_is(c: &mut Criterion) {
    let subj = rare_subjects()
        .into_iter()
        .find(|s| s.name == "sum-tail-2d")
        .expect("subject exists");
    let (cs, domain, profile) = subj.system();
    let mut opts = Options::strat()
        .with_samples(16_384)
        .with_seed(1)
        .with_allocation(Allocation::ImportanceAdaptive);
    opts.paver.max_boxes = 128;
    // One analyzer across iterations: the paving warms after the first
    // run, so steady-state iterations measure the IS rounds themselves.
    let analyzer = Analyzer::new(opts);
    let mut g = c.benchmark_group("rare_sum_tail_2d_16k");
    g.sample_size(10);
    g.bench_function("importance_adaptive", |b| {
        b.iter(|| {
            let r = analyzer.analyze(&cs, &domain, &profile);
            assert!(r.stats.is_factors > 0, "IS engaged");
            r.estimate
        })
    });
    g.finish();
}

fn emit_json(_c: &mut Criterion) {
    let summary = rare::run(65_536, 128);
    let path = std::env::var("BENCH_RARE_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_rare.json", env!("CARGO_MANIFEST_DIR")));
    rare::write_json(&summary, &path).expect("write BENCH_rare.json");
    println!(
        "rare summary: min samples ratio = {:.0}x, all_escalated = {} -> {path}",
        summary.min_samples_ratio, summary.all_escalated
    );
    for r in &summary.rows {
        println!(
            "  {:14} truth={:9.3e} est={:9.3e} (rel err {:6.1}%) is={:8} strat={:14} ratio={:10.0}x escalated={}",
            r.subject,
            r.truth,
            r.is_estimate,
            100.0 * r.is_rel_error,
            r.is_samples_to_target,
            r.stratified_samples_to_target,
            r.samples_ratio,
            r.escalated
        );
    }
}

criterion_group!(benches, bench_is, emit_json);
criterion_main!(benches);
