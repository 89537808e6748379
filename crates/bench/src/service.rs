//! Service throughput/latency trajectory: the VolComp subjects queried
//! through a loopback `qcoral-service`, cold vs warm vs
//! warm-after-restart, emitted as `BENCH_service.json`.
//!
//! The point being measured is the tentpole mechanism: a warm service
//! answers recurring factors from the persistent cross-run store with
//! **zero new pavings and zero new samples**, so warm latency is pure
//! orchestration cost (symbolic execution + wire + cache lookups) and
//! materially below cold latency, which pays for paving and sampling.

use std::time::Instant;

use serde::Serialize;

use qcoral::Options;
use qcoral_service::{Client, ServiceConfig};
use qcoral_subjects::table3_subjects;

use crate::geomean;

/// One subject's loopback measurements.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Subject name (assertion 0 of each Table 3 subject).
    pub subject: String,
    /// First-ever query: pays paving + sampling.
    pub cold_ms: f64,
    /// Same query, same server: answered from the in-memory store.
    pub warm_ms: f64,
    /// Same query after a server restart from the disk snapshot.
    pub warm_restart_ms: f64,
    /// `cold_ms / warm_ms`.
    pub warm_speedup: f64,
    /// Pavings requested by the cold run.
    pub cold_pavings: u64,
    /// Sampling budget charged by the cold run.
    pub cold_samples: u64,
    /// Pavings requested by the warm run (must be 0).
    pub warm_pavings: u64,
    /// Sampling budget charged by the warm run (must be 0).
    pub warm_samples: u64,
    /// Factor-store hits of the warm run.
    pub warm_store_hits: u64,
    /// Pavings requested by the restarted-warm run (must be 0).
    pub warm_restart_pavings: u64,
    /// Sampling budget charged by the restarted-warm run (must be 0).
    pub warm_restart_samples: u64,
    /// Cold/warm/restart estimates all bit-identical.
    pub estimates_identical: bool,
}

/// The whole emitted document.
#[derive(Clone, Debug, Serialize)]
pub struct Summary {
    /// Worker threads of the benchmarked server.
    pub workers: usize,
    /// Sample budget per factor.
    pub samples: u64,
    /// Per-subject rows.
    pub rows: Vec<Row>,
    /// Geometric mean of `warm_speedup`.
    pub warm_speedup_geomean: f64,
    /// Total cold latency (ms).
    pub cold_total_ms: f64,
    /// Total warm latency (ms).
    pub warm_total_ms: f64,
    /// Total warm-after-restart latency (ms).
    pub warm_restart_total_ms: f64,
    /// Wall time of a worst-case crash recovery: every benchmarked
    /// factor estimate replayed from the write-ahead log against an
    /// empty snapshot (no snapshot fast path).
    pub recovery_secs: f64,
    /// WAL entries replayed by that recovery.
    pub wal_replay_entries: u64,
}

struct Measured {
    ms: f64,
    pavings: u64,
    samples: u64,
    store_hits: u64,
    estimate: qcoral::Estimate,
}

fn query(client: &mut Client, source: &str, opts: &Options) -> Measured {
    let t0 = Instant::now();
    let r = client
        .analyze_program(source, opts.clone(), None, None)
        .expect("bench query");
    Measured {
        ms: t0.elapsed().as_secs_f64() * 1e3,
        pavings: r.report.stats.pavings,
        samples: r.report.stats.samples_drawn,
        store_hits: r.report.stats.factor_store_hits,
        estimate: r.report.estimate,
    }
}

/// Runs the cold/warm/restart protocol over the Table 3 subjects.
///
/// # Panics
///
/// Panics if the service misbehaves: estimates not bit-identical across
/// cold/warm/restart, or warm runs that pave or sample.
pub fn run(samples: u64) -> Summary {
    let snapshot =
        std::env::temp_dir().join(format!("qcoral-bench-service-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&snapshot);
    let cfg = ServiceConfig {
        snapshot: Some(snapshot.clone()),
        ..ServiceConfig::default()
    };
    let workers = cfg.workers;
    let opts = Options::default().with_samples(samples).with_seed(1);

    let subjects: Vec<(String, String)> = table3_subjects()
        .iter()
        .map(|s| (s.name.to_string(), s.source_for(0)))
        .collect();

    // Cold + warm against one server.
    let server = qcoral_service::Server::start(cfg.clone()).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let cold: Vec<Measured> = subjects
        .iter()
        .map(|(_, src)| query(&mut client, src, &opts))
        .collect();
    let warm: Vec<Measured> = subjects
        .iter()
        .map(|(_, src)| query(&mut client, src, &opts))
        .collect();
    server.shutdown(); // persists the snapshot

    // Warm-after-restart against a fresh server sharing only the disk
    // snapshot.
    let server = qcoral_service::Server::start(cfg).expect("rebind loopback");
    let mut client = Client::connect(server.addr()).expect("reconnect");
    let restart: Vec<Measured> = subjects
        .iter()
        .map(|(_, src)| query(&mut client, src, &opts))
        .collect();
    server.shutdown();

    // Crash-recovery trajectory: re-encode everything the run persisted
    // as a write-ahead log against an *empty* snapshot path and time a
    // full recovery — the worst case, where nothing comes from the
    // snapshot fast path and every entry is replayed line by line.
    let final_store = qcoral_service::PersistentStore::open(Some(snapshot.clone()), 1 << 20);
    let entries = final_store.factor_store().entries();
    drop(final_store);
    let _ = std::fs::remove_file(&snapshot);
    let probe = std::env::temp_dir().join(format!(
        "qcoral-bench-service-walprobe-{}.json",
        std::process::id()
    ));
    let probe_wal = qcoral_service::store::wal_path(&probe);
    let _ = std::fs::remove_file(&probe);
    let lines: String = entries
        .iter()
        .flat_map(|e| [qcoral_service::store::encode_wal_line(e), "\n".to_string()])
        .collect();
    std::fs::write(&probe_wal, lines).expect("write probe wal");
    let t0 = Instant::now();
    let recovered = qcoral_service::PersistentStore::open(Some(probe.clone()), 1 << 20);
    let recovery_secs = t0.elapsed().as_secs_f64();
    let report = recovered.recovery_report().clone();
    assert_eq!(
        report.wal_replayed_entries as usize,
        entries.len(),
        "every WAL entry must replay"
    );
    assert_eq!(report.wal_corrupt_entries, 0);
    drop(recovered);
    let _ = std::fs::remove_file(&probe);
    let _ = std::fs::remove_file(&probe_wal);

    let rows: Vec<Row> = subjects
        .iter()
        .zip(cold.iter().zip(warm.iter().zip(restart.iter())))
        .map(|((name, _), (c, (w, r)))| {
            let identical = c.estimate == w.estimate && c.estimate == r.estimate;
            assert!(identical, "{name}: estimates diverged across cache tiers");
            assert_eq!(w.pavings, 0, "{name}: warm run paved");
            assert_eq!(w.samples, 0, "{name}: warm run sampled");
            assert_eq!(r.pavings, 0, "{name}: restarted run paved");
            assert_eq!(r.samples, 0, "{name}: restarted run sampled");
            Row {
                subject: name.clone(),
                cold_ms: c.ms,
                warm_ms: w.ms,
                warm_restart_ms: r.ms,
                warm_speedup: c.ms / w.ms,
                cold_pavings: c.pavings,
                cold_samples: c.samples,
                warm_pavings: w.pavings,
                warm_samples: w.samples,
                warm_store_hits: w.store_hits,
                warm_restart_pavings: r.pavings,
                warm_restart_samples: r.samples,
                estimates_identical: identical,
            }
        })
        .collect();

    Summary {
        workers,
        samples,
        warm_speedup_geomean: geomean(rows.iter().map(|r| r.warm_speedup)),
        cold_total_ms: rows.iter().map(|r| r.cold_ms).sum(),
        warm_total_ms: rows.iter().map(|r| r.warm_ms).sum(),
        warm_restart_total_ms: rows.iter().map(|r| r.warm_restart_ms).sum(),
        recovery_secs,
        wal_replay_entries: report.wal_replayed_entries,
        rows,
    }
}

/// Serializes a summary to `path` as pretty JSON.
pub fn write_json(summary: &Summary, path: &str) -> std::io::Result<()> {
    std::fs::write(
        path,
        serde_json::to_string_pretty(summary).expect("serializable summary"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_warm_restart_protocol_holds() {
        let s = run(400);
        assert!(!s.rows.is_empty());
        for r in &s.rows {
            assert!(r.estimates_identical);
            assert_eq!(r.warm_pavings, 0);
            assert_eq!(r.warm_samples, 0);
            assert_eq!(r.warm_restart_samples, 0);
        }
        let json = serde_json::to_string_pretty(&s).unwrap();
        assert!(json.contains("\"warm_speedup\""));
    }
}
