//! CI perf-regression gate: compares freshly generated `BENCH_*.json`
//! smoke runs against the committed baselines and fails on a geomean
//! regression of more than the threshold (default 25%).
//!
//! ```text
//! perf_gate --baseline ci-baselines --fresh . [--fresh DIR ...] [--max-regression 1.25]
//! ```
//!
//! `--fresh` may be given more than once, one directory per repeated
//! smoke run: each (subject, field) is then gated on its median across
//! the fresh copies that have it, so one noisy run cannot trip the gate.
//!
//! Noise tolerance by design: the gate compares *ratios* of matched
//! metrics (per file, per subject, per field), never absolute times —
//! so a uniformly slower CI runner cancels out of nothing, but a single
//! noisy metric is averaged away by the geometric mean over its file.
//! Two metric families are gated:
//!
//! * wall-clock fields (`*_secs`, `*_ms`) from the hot-path and service
//!   benches — machine-relative, hence the geomean-of-ratios;
//! * samples-to-target fields (`adaptive_samples`, `aligned_samples`,
//!   `is_samples_to_target`) from the adaptive, profiles and rare
//!   benches — deterministic efficiency measures where a jump means an
//!   algorithmic regression.
//!
//! Files present only in the baseline fail the gate (no smoke run
//! produced them); files present only fresh are noted and skipped (a
//! newly added bench without a committed baseline yet).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::exit;

use qcoral_bench::geomean;

/// The gated files and their gated numeric fields.
const GATED: &[(&str, &[&str])] = &[
    (
        "BENCH_hotpath.json",
        &[
            "serial_secs",
            "pred_tape_secs",
            "bulk_eval_secs",
            "mc_bulk_secs",
            // Batched HC4 paving through the unified interval tape.
            "pave_bulk_secs",
            // The untraced analyzer path of the obs_overhead row:
            // instrumentation creep with `Options.trace` off is a
            // hot-path regression like any other.
            "trace_off_secs",
        ],
    ),
    (
        "BENCH_service.json",
        &["cold_ms", "warm_ms", "warm_restart_ms"],
    ),
    ("BENCH_adaptive.json", &["adaptive_samples"]),
    ("BENCH_profiles.json", &["aligned_samples"]),
    // Rare-event IS efficiency: more samples to reach the same target
    // stderr means the proposal adaptation regressed.
    ("BENCH_rare.json", &["is_samples_to_target"]),
];

/// Extracts `(subject, field) -> value` pairs from one of the emitted
/// pretty-printed JSON documents. A full JSON parser is unnecessary:
/// every emitter in this workspace pretty-prints one `"key": value`
/// pair per line, with each row's `"subject"` preceding its metrics.
fn extract(text: &str, fields: &[&str]) -> BTreeMap<(String, String), f64> {
    let mut out = BTreeMap::new();
    let mut subject = String::from("<top>");
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, value)) = rest.split_once("\":") else {
            continue;
        };
        let value = value.trim();
        if key == "subject" {
            subject = value.trim_matches('"').to_string();
        } else if fields.contains(&key) {
            if let Ok(v) = value.parse::<f64>() {
                out.insert((subject.clone(), key.to_string()), v);
            }
        }
    }
    out
}

/// Median of a non-empty sample (mean of the middle pair when even).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_gate --baseline DIR --fresh DIR [--fresh DIR ...] [--max-regression RATIO]"
    );
    exit(2)
}

fn main() {
    let mut baseline_dir = None;
    let mut fresh_dirs = Vec::new();
    let mut max_regression = 1.25f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--baseline" => baseline_dir = Some(value()),
            "--fresh" => fresh_dirs.push(value()),
            "--max-regression" => {
                max_regression = value().parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    let Some(baseline_dir) = baseline_dir else {
        usage()
    };
    if fresh_dirs.is_empty() {
        usage()
    }

    let mut failed = false;
    for (file, fields) in GATED {
        let base_path = Path::new(&baseline_dir).join(file);
        let Ok(base_text) = std::fs::read_to_string(&base_path) else {
            println!("perf_gate: {file}: no committed baseline yet, skipping");
            continue;
        };
        let copies: Vec<BTreeMap<(String, String), f64>> = fresh_dirs
            .iter()
            .filter_map(|dir| std::fs::read_to_string(Path::new(dir).join(file)).ok())
            .map(|text| extract(&text, fields))
            .collect();
        if copies.is_empty() {
            println!(
                "perf_gate: FAIL {file}: baseline exists but no smoke run produced a fresh copy"
            );
            failed = true;
            continue;
        }
        let n_runs = copies.len();
        let mut runs: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for (key, v) in copies.into_iter().flatten() {
            runs.entry(key).or_default().push(v);
        }
        let fresh: BTreeMap<(String, String), f64> =
            runs.into_iter().map(|(k, vs)| (k, median(vs))).collect();
        let base = extract(&base_text, fields);
        let mut ratios = Vec::new();
        let mut rated: Vec<(&(String, String), f64)> = Vec::new();
        for (key, &b) in &base {
            let Some(&f) = fresh.get(key) else {
                // A renamed/removed subject is a baseline-refresh matter,
                // not a perf regression.
                println!(
                    "perf_gate: {file}: metric {}/{} missing fresh, skipping",
                    key.0, key.1
                );
                continue;
            };
            if b > 0.0 && f > 0.0 {
                ratios.push(f / b);
                rated.push((key, f / b));
            }
        }
        let g = geomean(ratios.iter().copied());
        let verdict = if ratios.is_empty() {
            "no comparable metrics"
        } else if g > max_regression {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "perf_gate: {verdict} {file}: geomean ratio {g:.3} over {} metrics, medians of {n_runs} fresh run(s) (threshold {max_regression:.2})",
            ratios.len()
        );
        // Per-file worst-regressing row, so a tripped (or near-tripped)
        // gate names the subject and field, not just the geomean.
        rated.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some((k, r)) = rated.first() {
            println!("perf_gate:   worst: {}/{}: {r:.3}x", k.0, k.1);
        }
        if g > max_regression {
            for (k, r) in rated.iter().take(5).skip(1) {
                println!("perf_gate:   {}/{}: {r:.3}x", k.0, k.1);
            }
        }
    }
    if failed {
        eprintln!(
            "perf_gate: performance regression above {:.0}% — investigate, or refresh the \
             committed BENCH_*.json baselines if the change is intentional",
            (max_regression - 1.0) * 100.0
        );
        exit(1);
    }
    println!("perf_gate: all gated benchmarks within the regression budget");
}
