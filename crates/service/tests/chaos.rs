//! Deterministic chaos suite: drives loopback servers (and the bare
//! scheduler/store) through injected faults and asserts the service's
//! core promises hold under every one of them:
//!
//! * no fault sequence yields a torn snapshot that loads;
//! * a recovered warm answer is bit-for-bit identical to recomputation;
//! * deadline-exceeded requests come back as *flagged partial reports*,
//!   not errors or hangs;
//! * the server neither deadlocks nor leaks a worker.
//!
//! Compiled only under `--features failpoints`; the failpoint registry
//! is process-global, so every test serializes through [`lock`] and
//! starts from a clean registry.

#![cfg(feature = "failpoints")]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use qcoral::Options;
use qcoral_failpoints::{configure, reset, stats, Plan};
use qcoral_service::scheduler::Scheduler;
use qcoral_service::store::wal_path;
use qcoral_service::{Client, PersistentStore, RetryPolicy, Server, ServiceConfig};

/// Serializes tests (the failpoint registry and the WAL failure counter
/// are process-global) and guarantees each starts with no planted
/// faults. The guard resets again on drop so a panicking test cannot
/// leak armed failpoints into the next one.
fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match GATE.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    reset();
    guard
}

struct ResetOnDrop;
impl Drop for ResetOnDrop {
    fn drop(&mut self) {
        reset();
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qcoral-chaos-{tag}-{}.json", std::process::id()))
}

fn clean(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal_path(path));
    let _ = std::fs::remove_file(path.with_extension("tmp"));
}

fn start(cfg: ServiceConfig) -> (Server, Client) {
    let server = Server::start(cfg).expect("server starts");
    let client = Client::connect(server.addr()).expect("client connects");
    (server, client)
}

const SOURCE: &str = "var x in [0, 1]; var y in [0, 1]; pc x < 0.5 && sin(y) > 0.25;";

fn opts() -> Options {
    Options::default().with_samples(4_000)
}

/// A crash between the WAL append and the next snapshot: the snapshot
/// rename is made to fail, the process "dies" (server dropped without a
/// graceful save), and a fresh server must recover the estimates from
/// the WAL — bit-identically.
#[test]
fn snapshot_rename_failure_recovers_from_wal_bit_identically() {
    let _gate = lock();
    let _cleanup = ResetOnDrop;
    let snapshot = temp_path("rename-fail");
    clean(&snapshot);

    // Every snapshot attempt fails at the rename; only the WAL persists.
    configure("store.snapshot.rename", Plan::FirstK(u64::MAX));
    let cfg = ServiceConfig {
        snapshot: Some(snapshot.clone()),
        ..ServiceConfig::default()
    };
    let (server, mut client) = start(cfg.clone());
    let cold = client
        .analyze_system(SOURCE, opts(), None)
        .expect("cold query");
    assert!(cold.report.stats.samples_drawn > 0, "cold run samples");
    // Graceful shutdown tries a final save — injected to fail too.
    server.shutdown();
    assert!(
        !snapshot.exists(),
        "no snapshot should have survived the injected rename failures"
    );
    assert!(
        wal_path(&snapshot).exists(),
        "the WAL is the only persisted artifact"
    );

    // Restart without faults: recovery must replay the WAL.
    reset();
    let (server2, mut client2) = start(cfg);
    let health = client2.health().expect("health");
    assert!(
        health.factor_store_recovered,
        "WAL replay counts as recovery"
    );
    assert!(health.recovery.wal_replayed_entries > 0, "entries replayed");
    assert_eq!(health.recovery.wal_corrupt_entries, 0, "clean WAL, no loss");
    assert_eq!(health.recovery.snapshot_entries, 0, "no snapshot existed");
    let warm = client2.analyze_system(SOURCE, opts(), None).expect("warm");
    assert_eq!(warm.report.stats.samples_drawn, 0, "fully warm from WAL");
    assert_eq!(
        warm.report.estimate, cold.report.estimate,
        "recovered answer is bit-identical"
    );
    server2.shutdown();
    clean(&snapshot);
}

/// WAL appends failing must not corrupt anything: the snapshot path
/// still persists every estimate, and the failure count is surfaced.
#[test]
fn wal_append_failures_degrade_to_snapshot_only_durability() {
    let _gate = lock();
    let _cleanup = ResetOnDrop;
    let snapshot = temp_path("wal-fail");
    clean(&snapshot);

    configure("store.wal.append", Plan::FirstK(u64::MAX));
    let cfg = ServiceConfig {
        snapshot: Some(snapshot.clone()),
        ..ServiceConfig::default()
    };
    let (server, mut client) = start(cfg.clone());
    let cold = client
        .analyze_system(SOURCE, opts(), None)
        .expect("cold query");
    let health = client.health().expect("health");
    assert!(health.wal_append_failures > 0, "append failures surfaced");
    server.shutdown();
    assert!(snapshot.exists(), "graceful shutdown snapshot still lands");

    reset();
    let (server2, mut client2) = start(cfg);
    let health = client2.health().expect("health");
    assert!(health.factor_store_recovered);
    assert!(health.recovery.snapshot_entries > 0, "snapshot recovered");
    assert!(!health.recovery.lossy(), "nothing was silently dropped");
    let warm = client2.analyze_system(SOURCE, opts(), None).expect("warm");
    assert_eq!(warm.report.stats.samples_drawn, 0);
    assert_eq!(warm.report.estimate, cold.report.estimate);
    server2.shutdown();
    clean(&snapshot);
}

/// Flipping bytes in a stored snapshot must never yield a loadable torn
/// state: per-entry checksums skip (and count) exactly the damaged
/// entries, and the server keeps working either way.
#[test]
fn corrupted_snapshots_salvage_surviving_entries_never_crash() {
    let _gate = lock();
    let _cleanup = ResetOnDrop;
    let snapshot = temp_path("corrupt");
    clean(&snapshot);
    let cfg = ServiceConfig {
        snapshot: Some(snapshot.clone()),
        ..ServiceConfig::default()
    };
    let (server, mut client) = start(cfg.clone());
    client
        .analyze_system(SOURCE, opts(), None)
        .expect("seed the snapshot");
    server.shutdown();
    let pristine = std::fs::read_to_string(&snapshot).expect("snapshot exists");

    // Damage the document at many byte positions (JSON structure breaks,
    // checksum mismatches, truncations): every variant must either
    // salvage per-entry or start cold — never crash, never load garbage.
    let variants: Vec<String> = vec![
        pristine.replace("\"crc\":", "\"crc\": 1, \"x\":"),
        pristine[..pristine.len() / 2].to_string(),
        pristine.replace(['1', '3'], "2"),
        format!("{pristine}garbage"),
        "{\"version\": 2, \"entries\": [".to_string(),
    ];
    for (i, text) in variants.iter().enumerate() {
        std::fs::write(&snapshot, text).unwrap();
        let store = PersistentStore::open(Some(snapshot.clone()), 4096);
        let report = store.recovery_report();
        let salvaged = report.snapshot_entries;
        let dropped = report.snapshot_corrupt_entries;
        // Whatever was salvaged must be usable; re-attach via a server
        // and confirm it still answers.
        drop(store);
        let (server, mut client) = start(cfg.clone());
        let r = client
            .analyze_system(SOURCE, opts(), None)
            .unwrap_or_else(|e| panic!("variant {i}: server broken after corruption: {e}"));
        assert!(
            r.report.estimate.mean.is_finite(),
            "variant {i}: estimate must stay finite (salvaged {salvaged}, dropped {dropped})"
        );
        server.shutdown();
    }
    clean(&snapshot);
}

/// A torn WAL tail (crash mid-append) is truncated; intact lines before
/// it still replay.
#[test]
fn torn_wal_tail_is_truncated_and_prefix_replays() {
    let _gate = lock();
    let _cleanup = ResetOnDrop;
    let snapshot = temp_path("torn-wal");
    clean(&snapshot);

    // Build a WAL by failing all snapshots, then tear its tail.
    configure("store.snapshot.rename", Plan::FirstK(u64::MAX));
    let cfg = ServiceConfig {
        snapshot: Some(snapshot.clone()),
        ..ServiceConfig::default()
    };
    let (server, mut client) = start(cfg.clone());
    let cold = client.analyze_system(SOURCE, opts(), None).expect("cold");
    server.shutdown();
    reset();

    let wal = wal_path(&snapshot);
    let mut bytes = std::fs::read(&wal).expect("wal exists");
    let intact_lines = bytes.iter().filter(|&&b| b == b'\n').count();
    assert!(intact_lines > 0, "need at least one complete WAL line");
    // Simulate a crash mid-append: half of another record, no newline.
    bytes.extend_from_slice(b"{\"entry\": {\"opts_fp\": 12");
    std::fs::write(&wal, &bytes).unwrap();

    let store = PersistentStore::open(Some(snapshot.clone()), 4096);
    let report = store.recovery_report().clone();
    assert!(report.wal_torn_tail, "torn tail detected");
    assert_eq!(report.wal_replayed_entries as usize, intact_lines);
    assert_eq!(report.wal_corrupt_entries, 0, "prefix fully intact");
    let truncated = std::fs::read(&wal).unwrap();
    assert_eq!(
        truncated.last().copied(),
        Some(b'\n'),
        "tail physically truncated to a record boundary"
    );
    drop(store);

    // The recovered prefix answers warm and bit-identically.
    let (server2, mut client2) = start(cfg);
    let warm = client2.analyze_system(SOURCE, opts(), None).expect("warm");
    assert_eq!(warm.report.stats.samples_drawn, 0);
    assert_eq!(warm.report.estimate, cold.report.estimate);
    server2.shutdown();
    clean(&snapshot);
}

/// Mid-batch worker panics: the pool must survive, count the blow-ups,
/// and keep executing everything else. (Driven at the scheduler level —
/// the injected panic fires before the job body, so a wire request
/// would never get its response written.)
#[test]
fn worker_panics_mid_batch_do_not_stall_or_leak_workers() {
    let _gate = lock();
    let _cleanup = ResetOnDrop;
    // Every 3rd job evaluation panics.
    configure("worker.job", Plan::EveryNth(3));
    let sched = Scheduler::start(4, 64, 8);
    let done = Arc::new(AtomicUsize::new(0));
    for _ in 0..30 {
        let done = Arc::clone(&done);
        sched
            .submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("admitted");
    }
    for _ in 0..400 {
        if sched.metrics().served == 30 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let m = sched.metrics();
    // Shutdown returning proves no worker deadlocked on the batch
    // barrier despite panics landing mid-batch.
    sched.shutdown();
    assert_eq!(m.served, 30, "every job accounted for (no hang)");
    assert_eq!(m.panicked, 10, "every 3rd injection panicked");
    assert_eq!(done.load(Ordering::SeqCst), 20, "surviving jobs ran");
    let fired: u64 = stats()
        .iter()
        .filter(|s| s.name == "worker.job")
        .map(|s| s.fired)
        .sum();
    assert_eq!(fired, 10, "failpoint accounting agrees");
}

/// A stuttering transport: the server's response writes keep failing
/// intermittently, severing the connection. The client's seeded-backoff
/// retry must reconnect, resend, and land a bit-identical answer.
#[test]
fn stuttering_socket_is_healed_by_client_retry_bit_identically() {
    let _gate = lock();
    let _cleanup = ResetOnDrop;
    let (server, mut plain) = start(ServiceConfig::default());
    // Baseline without faults.
    let want = plain
        .analyze_system(SOURCE, opts(), None)
        .expect("baseline");

    // Every 2nd response write is dropped and the connection severed.
    configure("wire.write", Plan::EveryNth(2));
    let policy = RetryPolicy {
        retries: 6,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
        seed: 7,
    };
    let mut retrying = Client::connect_with(server.addr(), policy).expect("connect");
    for i in 0..4 {
        let got = retrying
            .analyze_system(SOURCE, opts(), None)
            .unwrap_or_else(|e| panic!("attempt {i}: retry should heal the wire: {e}"));
        assert_eq!(
            got.report.estimate, want.report.estimate,
            "attempt {i}: resent request must be bit-identical"
        );
    }
    reset();
    server.shutdown();
}

/// An overload flood against a tiny queue: every request is answered
/// (served or rejected-with-error), nothing hangs, and the server still
/// serves afterwards.
#[test]
fn overload_flood_rejects_fast_and_never_hangs() {
    let _gate = lock();
    let _cleanup = ResetOnDrop;
    let cfg = ServiceConfig {
        workers: 1,
        queue_cap: 2,
        max_batch: 1,
        ..ServiceConfig::default()
    };
    let (server, _probe) = start(cfg);
    let addr = server.addr();
    let flood: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                // Heavier than the probe so the queue actually fills.
                c.analyze_system(SOURCE, Options::default().with_samples(60_000), None)
            })
        })
        .collect();
    let mut served = 0usize;
    let mut rejected = 0usize;
    for t in flood {
        match t.join().expect("no client panic") {
            Ok(r) => {
                assert!(r.report.estimate.mean.is_finite());
                served += 1;
            }
            Err(e) => {
                assert!(
                    e.to_string().contains("overloaded"),
                    "only overload rejections expected, got: {e}"
                );
                rejected += 1;
            }
        }
    }
    assert_eq!(served + rejected, 8, "every flooded request was answered");
    assert!(served >= 1, "some requests must get through");
    // The server still works after the flood — no leaked/hung worker.
    let mut after = Client::connect(addr).expect("connect after flood");
    let r = after.analyze_system(SOURCE, opts(), None).expect("healthy");
    assert!(r.report.estimate.mean.is_finite());
    let status = after.status().expect("status");
    assert_eq!(status.requests_rejected, rejected as u64);
    server.shutdown();
}

/// Deadline expiry — both while queued (shed by the dispatcher) and
/// mid-analysis (cooperative cancellation) — returns flagged partial
/// reports, never errors, and partial results never poison the store.
#[test]
fn expired_deadlines_yield_flagged_partial_reports() {
    let _gate = lock();
    let _cleanup = ResetOnDrop;
    let (server, mut client) = start(ServiceConfig::default());
    // A deadline of zero expires before any sampling round starts.
    let expired = client
        .analyze_system(SOURCE, opts().with_deadline_ms(0), None)
        .expect("partial report, not an error");
    assert!(expired.report.stats.deadline_exceeded, "flagged partial");
    assert_eq!(expired.report.stats.samples_drawn, 0, "no budget charged");

    // The partial result must not have been cached: a full-budget rerun
    // computes from scratch and matches a never-deadlined baseline.
    let full = client
        .analyze_system(SOURCE, opts(), None)
        .expect("full run");
    assert!(!full.report.stats.deadline_exceeded);
    assert!(
        full.report.stats.samples_drawn > 0,
        "store was not poisoned"
    );
    let (server2, mut client2) = start(ServiceConfig::default());
    let baseline = client2.analyze_system(SOURCE, opts(), None).expect("ref");
    assert_eq!(full.report.estimate, baseline.report.estimate);
    server2.shutdown();

    // A generous deadline is bit-invisible.
    let relaxed = client
        .analyze_system(SOURCE, opts().with_deadline_ms(600_000), None)
        .expect("relaxed");
    assert!(!relaxed.report.stats.deadline_exceeded);
    assert_eq!(relaxed.report.estimate, baseline.report.estimate);
    server.shutdown();
}

/// Queue-level shedding over the wire: with the single worker pinned,
/// zero-deadline requests behind it must be shed by the dispatcher and
/// answered as flagged partials (not hangs, not errors), while an
/// undeadlined request still completes.
#[test]
fn queued_requests_past_deadline_are_shed_with_partial_reports() {
    let _gate = lock();
    let _cleanup = ResetOnDrop;
    let cfg = ServiceConfig {
        workers: 1,
        queue_cap: 16,
        max_batch: 2,
        ..ServiceConfig::default()
    };
    let (server, _probe) = start(cfg);
    let addr = server.addr();
    // Pin the worker with a slow request: the first job stalls for a
    // fixed time, however fast the build samples.
    configure("worker.stall", Plan::FirstK(1));
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.analyze_system(SOURCE, opts(), None)
    });
    std::thread::sleep(Duration::from_millis(50));
    // These expire in the queue while the worker is busy.
    let shed: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.analyze_system(SOURCE, opts().with_deadline_ms(1), None)
            })
        })
        .collect();
    for t in shed {
        let r = t.join().expect("no panic").expect("partial, not error");
        assert!(r.report.stats.deadline_exceeded, "shed → flagged partial");
        assert_eq!(r.report.stats.samples_drawn, 0, "never touched a worker");
    }
    let slow = slow.join().expect("no panic").expect("slow completes");
    assert!(!slow.report.stats.deadline_exceeded);
    let mut c = Client::connect(addr).expect("connect");
    let status = c.status().expect("status");
    assert_eq!(status.requests_shed, 3, "dispatcher counted the sheds");
    server.shutdown();
}
