//! The quantification server daemon.
//!
//! ```text
//! qcoral-serviced [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!                 [--max-batch N] [--store-cap N] [--snapshot PATH]
//! ```
//!
//! Prints `listening on <addr>` once ready (port 0 in `--addr` binds an
//! ephemeral port and prints the resolved one), then serves until
//! stopped. With `--snapshot`, the cross-run factor cache is recovered
//! at startup (snapshot + write-ahead-log replay; the recovery outcome
//! is logged). Every new factor estimate is appended to the write-ahead
//! log as it is computed, and a timer compacts the log into the
//! snapshot every 2 s.
//!
//! Diagnostics go to stderr as single-line JSON records
//! (`{"ts":…,"level":"info","event":…,…}`), level-filtered by the
//! `QCORAL_LOG` environment variable (`error`/`warn`/`info`/`debug`;
//! default `info`). A metrics digest — the same Prometheus-style text
//! the `metrics` protocol op serves — is logged every 60 s.
//!
//! On SIGTERM/SIGINT the daemon shuts down gracefully: it stops
//! accepting connections, drains the in-flight micro-batch, writes a
//! final snapshot (which also truncates the WAL), and exits. A second
//! signal during the drain is ignored — `kill -9` is the escalation,
//! and crash recovery handles it.

use std::path::PathBuf;
use std::process::exit;

use qcoral_obs::log;
use qcoral_service::{Server, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: qcoral-serviced [--addr HOST:PORT] [--workers N] [--queue-cap N] \
         [--max-batch N] [--store-cap N] [--snapshot PATH]"
    );
    exit(2)
}

#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATE: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Only the async-signal-safe atomic store happens here; the main
        // loop observes it and runs the actual shutdown.
        TERMINATE.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // POSIX `signal(2)`, declared directly (no libc crate in the
        // workspace). The return value (the previous handler) is unused.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

fn main() {
    let mut cfg = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => cfg.addr = value(),
            "--workers" => cfg.workers = parse(&value()),
            "--queue-cap" => cfg.queue_cap = parse(&value()),
            "--max-batch" => cfg.max_batch = parse(&value()),
            "--store-cap" => cfg.store_cap = parse(&value()),
            "--snapshot" => cfg.snapshot = Some(PathBuf::from(value())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    let has_snapshot = cfg.snapshot.is_some();
    match Server::start(cfg) {
        Ok(server) => {
            if has_snapshot {
                let r = server.recovery_report();
                log::info(
                    "factor_store_recovery",
                    &[(
                        "report",
                        serde_json::to_string(r).expect("recovery report serializes"),
                    )],
                );
            }
            // Plain stdout on purpose: harnesses wait for this exact
            // line to learn the resolved address.
            println!("listening on {}", server.addr());
            run(server);
        }
        Err(e) => {
            log::error("startup_failed", &[("error", e.to_string())]);
            exit(1);
        }
    }
}

#[cfg(unix)]
fn run(server: Server) {
    signals::install();
    let mut ticks: u64 = 0;
    while !signals::requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
        ticks += 1;
        // Periodic metrics digest: the full exposition as one log
        // record, so operators without a scraper still get a time
        // series out of plain stderr capture.
        if ticks.is_multiple_of(600) {
            log::info("metrics_snapshot", &[("exposition", server.metrics_text())]);
        }
    }
    log::info(
        "signal_received",
        &[("action", "draining and persisting before exit".to_string())],
    );
    // Stops accepting, drains admitted requests, writes the final
    // snapshot (truncating the WAL), joins the pool.
    server.shutdown();
    log::info("shutdown_complete", &[]);
}

#[cfg(not(unix))]
fn run(server: Server) {
    // No signal story on this platform: block for the process lifetime.
    server.wait();
}

fn parse(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("expected a number, got `{s}`");
        usage()
    })
}
