//! Criterion bench for the quantification hot path: serial vs parallel
//! analyzer and tree-walk vs compiled-tape predicate evaluation on the
//! biggest multi-PC Table 3 subject, plus the `BENCH_hotpath.json`
//! emitter that records the full per-subject trajectory.
//!
//! Run with `cargo bench -p qcoral-bench --bench hotpath`. The JSON lands
//! at the workspace root (override with `BENCH_HOTPATH_OUT`). On a
//! single-core container `parallel_speedup` is necessarily ≈ 1; the
//! fan-out is validated for correctness by `tests/determinism.rs` and for
//! speed by `pred_tape_speedup` plus multi-core runs.

use criterion::{criterion_group, criterion_main, Criterion};
use qcoral::{Analyzer, Options};
use qcoral_bench::hotpath;
use qcoral_mc::UsageProfile;
use qcoral_subjects::table3_subjects;
use qcoral_symexec::SymConfig;

const SAMPLES: u64 = 100_000;

fn bench_hotpath(c: &mut Criterion) {
    // EGFR EPI is the widest workload: 41 disjoint path conditions.
    let subjects = table3_subjects();
    let subj = subjects
        .iter()
        .find(|s| s.name == "EGFR EPI")
        .expect("subject exists");
    let (domain, cs) = subj.system_for(0, &SymConfig::default());
    let profile = UsageProfile::uniform(domain.len());
    let opts = Options::strat_partcache()
        .with_samples(SAMPLES)
        .with_seed(1);

    let mut g = c.benchmark_group("hotpath_egfr_100k");
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter(|| {
            Analyzer::new(opts.clone())
                .analyze(&cs, &domain, &profile)
                .estimate
        })
    });
    g.bench_function("parallel", |b| {
        b.iter(|| {
            Analyzer::new(opts.clone().with_parallel(true))
                .analyze(&cs, &domain, &profile)
                .estimate
        })
    });
    // Warm paving cache (the steady-state server scenario: the same
    // analyzer answers many queries).
    g.bench_function("parallel_warm_cache", |b| {
        let analyzer = Analyzer::new(opts.clone().with_parallel(true));
        analyzer.analyze(&cs, &domain, &profile);
        b.iter(|| analyzer.analyze(&cs, &domain, &profile).estimate)
    });
    g.finish();
}

fn emit_json(_c: &mut Criterion) {
    let summary = hotpath::run(SAMPLES, 3);
    let path = std::env::var("BENCH_HOTPATH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_hotpath.json", env!("CARGO_MANIFEST_DIR")));
    hotpath::write_json(&summary, &path).expect("write BENCH_hotpath.json");
    println!(
        "hotpath summary: threads={} parallel_speedup(geomean)={:.2} pred_tape_speedup(geomean)={:.2} bulk_eval_speedup(geomean)={:.2} mc_bulk_speedup(geomean)={:.2} -> {path}",
        summary.threads,
        summary.parallel_speedup_geomean,
        summary.pred_tape_speedup_geomean,
        summary.bulk_eval_speedup_geomean,
        summary.mc_bulk_speedup_geomean
    );
    for r in &summary.rows {
        println!(
            "  {:28} pcs={:4} serial={:.3}s parallel={:.3}s (x{:.2}) pred tree={:.4}s tape={:.4}s (x{:.1}) bulk {:.2e}→{:.2e} samples/s (x{:.2}) mc x{:.2} identical={}",
            r.subject,
            r.paths,
            r.serial_secs,
            r.parallel_secs,
            r.parallel_speedup,
            r.pred_tree_secs,
            r.pred_tape_secs,
            r.pred_tape_speedup,
            r.scalar_samples_per_sec,
            r.bulk_samples_per_sec,
            r.bulk_eval_speedup,
            r.mc_bulk_speedup,
            r.estimates_identical
        );
    }
    assert!(
        summary.rows.iter().all(|r| r.bulk_estimates_identical),
        "columnar bulk sampling diverged from the scalar tape"
    );
}

criterion_group!(benches, bench_hotpath, emit_json);
criterion_main!(benches);
