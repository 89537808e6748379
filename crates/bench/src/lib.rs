//! Benchmark harness regenerating every table and figure of the qCORAL
//! paper.
//!
//! Each table has a runner function returning structured rows (so the
//! binaries, the Criterion benches and the integration tests share one
//! implementation) and a binary that prints the table:
//!
//! | Paper artifact | Runner | Binary |
//! |---|---|---|
//! | Figure 2 + Table 1 | [`table1::run`] | `table1` |
//! | Table 2 (micro-benchmarks) | [`table2::run`] | `table2` |
//! | Table 3 (NIntegrate / VolComp / qCORAL) | [`table3::run`] | `table3` |
//! | Table 4 (feature ablation) | [`table4::run`] | `table4` |
//!
//! Run a binary with `cargo run --release -p qcoral-bench --bin table2`.
//! All runners fix RNG seeds per repetition, so output is reproducible.

#![warn(missing_docs)]

pub mod adaptive;
pub mod hotpath;
pub mod profiles;
pub mod rare;
pub mod service;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod text;

/// Geometric mean of the positive values of `xs`; `1.0` when there are
/// none (a neutral ratio).
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for x in xs {
        if x > 0.0 {
            log_sum += x.ln();
            n += 1;
        }
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Smallest budget whose run meets a standard-error `target`: doubles
/// from `start` until a run meets it (or the budget reaches 2²⁴), then
/// bisects five times between the last failing and the first meeting
/// budget. `run` maps a budget to the standard error it achieved and its
/// result; returns the result of the smallest meeting budget tried.
pub fn samples_to_target<R>(mut run: impl FnMut(u64) -> (f64, R), target: f64, start: u64) -> R {
    let mut budget = start;
    let mut best = loop {
        let (stderr, r) = run(budget);
        if stderr <= target || budget >= 1 << 24 {
            break r;
        }
        budget *= 2;
    };
    let (mut lo, mut hi) = (budget / 2, budget);
    for _ in 0..5 {
        if hi <= lo + 1 {
            break;
        }
        let mid = lo + (hi - lo) / 2;
        let (stderr, r) = run(mid);
        if stderr <= target {
            best = r;
            hi = mid;
        } else {
            lo = mid;
        }
    }
    best
}
