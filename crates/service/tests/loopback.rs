//! Loopback integration: a real server on an ephemeral port, a real TCP
//! client, and the contract the ISSUE pins down —
//!
//! 1. service answers are **bit-identical** to direct `Analyzer` /
//!    pipeline calls on the VolComp suite,
//! 2. a warm cache answers with **zero new pavings and zero samples**,
//! 3. the factor store survives a server **restart** via the snapshot,
//! 4. corrupt or version-mismatched snapshots mean a **cold start,
//!    never a crash**, and
//! 5. protocol misuse (malformed frames, bad sources) degrades to error
//!    responses on a still-usable connection.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use qcoral::{Allocation, Analyzer, Options};
use qcoral_mc::{Dist, UsageProfile};
use qcoral_repro::pipeline::analyze_program;
use qcoral_service::{Client, Outcome, Server, ServiceConfig};
use qcoral_subjects::table3_subjects;
use qcoral_symexec::SymConfig;

fn start(cfg: ServiceConfig) -> (Server, Client) {
    let server = Server::start(cfg).expect("bind loopback");
    let client = Client::connect(server.addr()).expect("connect");
    (server, client)
}

/// A unique temp path for snapshot tests.
/// The worker bumps the scheduler's completion bookkeeping (`served`,
/// `inflight`) *after* writing the response, so a scrape issued the
/// moment a reply lands can legitimately read the pre-completion
/// values. Poll briefly for the settled state.
fn eventually(mut cond: impl FnMut() -> bool) {
    for _ in 0..500 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    panic!("condition not reached within the polling budget");
}

fn temp_snapshot(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qcoral-service-test-{}-{tag}.json",
        std::process::id()
    ))
}

#[test]
fn volcomp_suite_is_bit_identical_to_direct_pipeline() {
    let opts = Options::strat_partcache().with_samples(800).with_seed(77);
    let (server, mut client) = start(ServiceConfig::default());
    for subj in table3_subjects() {
        for idx in 0..subj.assertions.len() {
            let source = subj.source_for(idx);
            let direct = analyze_program(&source, &SymConfig::default(), opts.clone())
                .expect("subjects parse");
            let served = client
                .analyze_program(&source, opts.clone(), None, None)
                .expect("service answers");
            assert_eq!(
                served.report.estimate, direct.target.estimate,
                "{}[{idx}]: estimate differs",
                subj.name
            );
            assert_eq!(
                served.report.per_pc, direct.target.per_pc,
                "{}[{idx}]: per-PC breakdown differs",
                subj.name
            );
            assert_eq!(served.bound_mass, Some(direct.bound_mass));
            assert_eq!(served.confidence, Some(direct.confidence()));
        }
    }
    server.shutdown();
}

#[test]
fn system_requests_with_profiles_match_direct_analyzer() {
    let source = "var x in [0, 1]; var y in [0, 1]; pc x < 0.5 && sin(y) > 0.5;";
    let profile =
        UsageProfile::uniform(2).with_dist(1, Dist::piecewise(vec![0.0, 0.5, 1.0], vec![3.0, 1.0]));
    let opts = Options::default().with_samples(2_000).with_seed(5);
    let sys = qcoral_constraints::parse::parse_system(source).unwrap();
    let direct = Analyzer::new(opts.clone()).analyze(&sys.constraint_set, &sys.domain, &profile);

    let (server, mut client) = start(ServiceConfig::default());
    let served = client
        .analyze_system(source, opts, Some(profile))
        .expect("service answers");
    assert_eq!(served.report.estimate, direct.estimate);
    assert_eq!(served.report.per_pc, direct.per_pc);
    server.shutdown();
}

#[test]
fn warm_cache_answers_with_zero_pavings_and_samples() {
    let opts = Options::default().with_samples(3_000).with_seed(3);
    let (server, mut client) = start(ServiceConfig::default());
    let source = "var a in [0, 2]; var b in [-1, 1];
                  pc a * a < 2 && sin(b) > 0.1;
                  pc a * a >= 2 && sin(b) > 0.1;";
    let cold = client
        .analyze_system(source, opts.clone(), None)
        .expect("cold");
    assert!(cold.report.stats.samples_drawn > 0);
    assert!(cold.report.stats.pavings > 0);

    // Same query from a *new connection*: the store is server-wide.
    let mut client2 = Client::connect(server.addr()).expect("connect");
    let warm = client2.analyze_system(source, opts, None).expect("warm");
    assert_eq!(warm.report.estimate, cold.report.estimate, "bit-identical");
    assert_eq!(warm.report.per_pc, cold.report.per_pc);
    assert_eq!(warm.report.stats.pavings, 0, "no new pavings");
    assert_eq!(warm.report.stats.samples_drawn, 0, "no new samples");
    assert!(warm.report.stats.factor_store_hits > 0);

    let status = client.status().expect("status");
    assert!(status.store_entries > 0);
    assert!(status.store_hits >= warm.report.stats.factor_store_hits);
    server.shutdown();
}

/// The acceptance contract for non-uniform profiles: a warm
/// `FactorStore` hit under continuous marginals is bit-identical across
/// a process restart (snapshot round trip included), with zero pavings
/// and zero samples.
#[test]
fn nonuniform_profile_warm_hits_are_bit_identical_across_restart() {
    let snapshot = temp_snapshot("nonuniform-restart");
    let _ = std::fs::remove_file(&snapshot);
    let source = "var x in [0, 1]; var y in [0, 1];
                  pc x < 0.5 && sin(3 * y) > 0.5;
                  pc x >= 0.5 && sin(3 * y) > 0.5;";
    let profile = UsageProfile::uniform(2)
        .with_dist(0, Dist::normal(0.4, 0.2))
        .with_dist(1, Dist::exponential(3.0));
    let opts = Options::default().with_samples(2_500).with_seed(13);

    let cfg = || ServiceConfig {
        snapshot: Some(snapshot.clone()),
        ..ServiceConfig::default()
    };
    let (server, mut client) = start(cfg());
    let cold = client
        .analyze_system(source, opts.clone(), Some(profile.clone()))
        .expect("cold");
    assert!(cold.report.stats.samples_drawn > 0);
    server.shutdown(); // persists the snapshot

    // A fresh process: the snapshot warm-loads, the same profiled query
    // recomposes bit-identically with zero work.
    let (server, mut client) = start(cfg());
    let warm = client
        .analyze_system(source, opts.clone(), Some(profile.clone()))
        .expect("warm");
    assert_eq!(warm.report.estimate, cold.report.estimate, "bit-identical");
    assert_eq!(warm.report.per_pc, cold.report.per_pc);
    assert_eq!(warm.report.stats.samples_drawn, 0, "no new samples");
    assert_eq!(warm.report.stats.pavings, 0, "no new pavings");
    assert!(warm.report.stats.factor_store_hits > 0);

    // A different ε is a different stratification: it must NOT warm-hit
    // the continuous-profile entries.
    let eps_opts = opts.with_profile_epsilon(1e-4);
    let other = client
        .analyze_system(source, eps_opts, Some(profile))
        .expect("other epsilon");
    assert!(other.report.stats.samples_drawn > 0, "ε must cold-start");
    server.shutdown();
    let _ = std::fs::remove_file(&snapshot);
}

/// Program requests accept *named* marginals, resolved against the
/// parameter names server-side; unknown names and invalid parameters are
/// clean errors.
#[test]
fn program_requests_accept_named_profiles() {
    use qcoral_service::NamedDist;
    let (server, mut client) = start(ServiceConfig::default());
    let source = "program p(x in [0, 1]) { if (x > 0.75) { target(); } }";
    let opts = Options::default().with_samples(8_000).with_seed(2);
    let served = client
        .analyze_program(
            source,
            opts.clone(),
            None,
            Some(vec![NamedDist {
                var: "x".to_string(),
                dist: Dist::exponential(4.0),
            }]),
        )
        .expect("profiled program");
    // (e^{-3} − e^{-4})/(1 − e^{-4}): the Exp(4) mass of (0.75, 1].
    let truth = ((-3.0f64).exp() - (-4.0f64).exp()) / (1.0 - (-4.0f64).exp());
    assert!(
        (served.report.estimate.mean - truth).abs() < 0.01,
        "{} vs {truth}",
        served.report.estimate.mean
    );
    // And it matches the direct pipeline bit for bit.
    let direct = qcoral_repro::pipeline::analyze_program_with_profile(
        &qcoral::Analyzer::new(opts.clone()),
        source,
        &SymConfig::default(),
        &[("x".to_string(), Dist::exponential(4.0))],
    )
    .expect("direct");
    assert_eq!(served.report.estimate, direct.target.estimate);

    let err = client
        .analyze_program(
            source,
            opts.clone(),
            None,
            Some(vec![NamedDist {
                var: "nope".to_string(),
                dist: Dist::Uniform,
            }]),
        )
        .unwrap_err();
    assert!(err.to_string().contains("unknown variable"), "{err}");
    let err = client
        .analyze_program(
            source,
            opts,
            None,
            Some(vec![NamedDist {
                var: "x".to_string(),
                dist: Dist::Normal {
                    mu: 0.0,
                    sigma: -1.0,
                },
            }]),
        )
        .unwrap_err();
    assert!(err.to_string().contains("sigma"), "{err}");
    server.shutdown();
}

/// Continuous dists with hostile parameters are validated like
/// piecewise ones: rejected with an error, never a panic.
#[test]
fn hostile_continuous_profiles_are_rejected() {
    let (server, mut client) = start(ServiceConfig::default());
    let source = "var x in [0, 1]; pc x < 0.5;";
    let opts = Options::default().with_samples(500);
    for (dist, needle) in [
        (
            Dist::Normal {
                mu: 0.0,
                sigma: 0.0,
            },
            "sigma",
        ),
        (
            Dist::Normal {
                mu: f64::NAN,
                sigma: 1.0,
            },
            "mu",
        ),
        (Dist::Exponential { lambda: 0.0 }, "rate"),
        (
            Dist::TruncatedNormal {
                mu: 0.5,
                sigma: 0.1,
                lo: 0.9,
                hi: 0.1,
            },
            "lo < hi",
        ),
        // Well-formed truncation that cannot place mass in [0, 1]: must
        // be an error, not an exact-looking probability 0.
        (
            Dist::TruncatedNormal {
                mu: 5.5,
                sigma: 0.5,
                lo: 5.0,
                hi: 6.0,
            },
            "overlap",
        ),
    ] {
        let profile = UsageProfile::uniform(1).with_dist(0, dist.clone());
        let err = client
            .analyze_system(source, opts.clone(), Some(profile))
            .unwrap_err();
        assert!(
            err.to_string().contains(needle),
            "{dist:?}: expected `{needle}` in `{err}`"
        );
    }
    server.shutdown();
}

#[test]
fn factor_store_survives_restart_via_snapshot() {
    let snapshot = temp_snapshot("restart");
    let _ = std::fs::remove_file(&snapshot);
    let cfg = ServiceConfig {
        snapshot: Some(snapshot.clone()),
        ..ServiceConfig::default()
    };
    let opts = Options::default().with_samples(2_500).with_seed(11);
    let source = "var u in [0, 4]; var v in [0, 4];
                  pc u + v < 3 && sin(u * v) > 0.2;";

    let (server, mut client) = start(cfg.clone());
    let first = client
        .analyze_system(source, opts.clone(), None)
        .expect("first run");
    assert!(first.report.stats.samples_drawn > 0);
    server.shutdown(); // persists the final snapshot
    assert!(snapshot.exists(), "snapshot written on shutdown");

    // A brand-new process-equivalent: fresh server, same snapshot path.
    let (server, mut client) = start(cfg);
    let warm = client.analyze_system(source, opts, None).expect("warm run");
    assert_eq!(
        warm.report.estimate, first.report.estimate,
        "bit-identical across restart"
    );
    assert_eq!(warm.report.stats.pavings, 0, "restart run must not pave");
    assert_eq!(
        warm.report.stats.samples_drawn, 0,
        "restart run must not sample"
    );
    assert!(warm.report.stats.factor_store_hits > 0);
    server.shutdown();
    let _ = std::fs::remove_file(&snapshot);
}

/// The iterative engine over the wire: a `target_stderr` request either
/// meets the target or reports `max_rounds` exhaustion via
/// `stats.target_met`, and a warm repeat of the same request recomposes
/// from the factor store without drawing a single sample.
#[test]
fn target_stderr_requests_converge_and_warm_repeats_are_free() {
    let (server, mut client) = start(ServiceConfig::default());
    // Mixed system: exact box factor + noisy trig factor.
    let source = "var x in [0, 1]; var y in [-2, 2]; var z in [-2, 2];
                  pc x < 0.4 && sin(y * z) > 0.25;";
    let opts = Options::default()
        .with_samples(1_000)
        .with_seed(8)
        .with_target_stderr(2e-3)
        .with_round_budget(1_000)
        .with_max_rounds(50);
    let cold = client
        .analyze_system(source, opts.clone(), None)
        .expect("iterative request");
    assert!(cold.report.stats.rounds >= 1);
    assert!(cold.report.stats.target_met, "{:?}", cold.report.stats);
    assert!(cold.report.estimate.std_dev() <= 2e-3);
    assert!(cold.report.stats.samples_drawn > 0);

    // Warm repeat from a new connection: zero samples, zero pavings,
    // bit-identical estimate.
    let mut client2 = Client::connect(server.addr()).expect("connect");
    let warm = client2
        .analyze_system(source, opts, None)
        .expect("warm repeat");
    assert_eq!(warm.report.estimate, cold.report.estimate);
    assert_eq!(warm.report.stats.samples_drawn, 0, "warm repeat sampled");
    assert_eq!(warm.report.stats.pavings, 0, "warm repeat paved");
    assert!(warm.report.stats.factor_store_hits > 0);
    assert!(warm.report.stats.target_met);

    // An unreachable target is flagged, not spun on: max_rounds bounds
    // the work and target_met reports the shortfall.
    let strict = Options::default()
        .with_samples(500)
        .with_seed(9)
        .with_target_stderr(1e-12)
        .with_round_budget(500)
        .with_max_rounds(2);
    let capped = client
        .analyze_system(source, strict, None)
        .expect("capped request");
    assert!(!capped.report.stats.target_met, "{:?}", capped.report.stats);
    assert_eq!(capped.report.stats.rounds, 2);

    // Resource validation: a round plan whose worst case blows the
    // server's sample ceiling is rejected up front.
    let hostile = Options::default()
        .with_samples(1_000)
        .with_target_stderr(1e-12)
        .with_round_budget(u64::MAX / 2)
        .with_max_rounds(u64::MAX / 2);
    let err = client.analyze_system(source, hostile, None);
    match err {
        Err(qcoral_service::ClientError::Remote(m)) => {
            assert!(m.contains("worst case"), "unexpected message: {m}")
        }
        other => panic!("hostile round plan not rejected: {other:?}"),
    }
    server.shutdown();

    // The worst case counts the importance-sampling pilot: one round of
    // 6 000 samples fits a 10 000-sample ceiling, but not with an IS
    // pilot of another 6 000 on top.
    let (server, mut client) = start(ServiceConfig {
        max_samples: 10_000,
        ..ServiceConfig::default()
    });
    let single_round = Options::default()
        .with_samples(6_000)
        .with_target_stderr(1e-3)
        .with_max_rounds(1);
    let importance = single_round
        .clone()
        .with_allocation(Allocation::ImportanceAdaptive);
    match client.analyze_system(source, importance, None) {
        Err(qcoral_service::ClientError::Remote(m)) => {
            assert!(m.contains("worst case"), "unexpected message: {m}")
        }
        other => panic!("IS pilot not counted in the worst case: {other:?}"),
    }
    client
        .analyze_system(source, single_round, None)
        .expect("equal-per-stratum twin fits the ceiling");
    server.shutdown();
}

#[test]
fn corrupt_or_stale_snapshots_cold_start_without_crashing() {
    let opts = Options::default().with_samples(500).with_seed(2);
    let source = "var x in [0, 1]; pc x < 0.5;";
    for (tag, contents) in [
        ("garbage", "not json at all {{{".to_string()),
        (
            "truncated",
            "{\"version\":1,\"entries\":[{\"opts_fp\":1".to_string(),
        ),
        (
            "stale-version",
            "{\"version\":999,\"entries\":[]}".to_string(),
        ),
        (
            "bad-entries",
            "{\"version\":1,\"entries\":[{\"opts_fp\":1,\"fingerprint\":2,\
             \"box_bits\":[1,2,3],\"profile_bits\":[],\"mean_bits\":0,\
             \"variance_bits\":0}]}"
                .to_string(),
        ),
    ] {
        let snapshot = temp_snapshot(tag);
        std::fs::write(&snapshot, contents).unwrap();
        let cfg = ServiceConfig {
            snapshot: Some(snapshot.clone()),
            ..ServiceConfig::default()
        };
        let (server, mut client) = start(cfg);
        // Cold start: the damaged snapshot contributed nothing.
        assert_eq!(server.factor_store().len(), 0, "{tag}: not cold");
        // And the server still works.
        let r = client
            .analyze_system(source, opts.clone(), None)
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert!((r.report.estimate.mean - 0.5).abs() < 0.1);
        server.shutdown();
        let _ = std::fs::remove_file(&snapshot);
    }
}

#[test]
fn snapshot_is_versioned_json() {
    let snapshot = temp_snapshot("format");
    let _ = std::fs::remove_file(&snapshot);
    let cfg = ServiceConfig {
        snapshot: Some(snapshot.clone()),
        ..ServiceConfig::default()
    };
    let (server, mut client) = start(cfg);
    client
        .analyze_system(
            "var x in [0, 1]; pc x < 0.25;",
            Options::default().with_samples(400),
            None,
        )
        .expect("query");
    server.shutdown();
    let text = std::fs::read_to_string(&snapshot).expect("snapshot exists");
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|line| serde_json::Value::parse(line).expect("every line is valid JSON"))
        .collect();
    let (header, rest) = lines.split_first().expect("a header line");
    assert_eq!(
        header.get("version"),
        Some(&serde_json::Value::Number("3".to_string())),
        "snapshot carries its version"
    );
    let (footer, records) = rest.split_last().expect("a footer line");
    assert!(
        !records.is_empty()
            && records
                .iter()
                .all(|e| e.get("entry").is_some() && e.get("crc").is_some()),
        "one checksummed record per line"
    );
    assert!(
        footer.get("footer_crc").is_some(),
        "snapshot carries a footer checksum"
    );
    let _ = std::fs::remove_file(&snapshot);
    let _ = std::fs::remove_file(qcoral_service::store::wal_path(&snapshot));
}

#[test]
fn concurrent_saves_never_tear_the_snapshot() {
    let snapshot = temp_snapshot("concurrent-saves");
    let _ = std::fs::remove_file(&snapshot);
    let store = std::sync::Arc::new(qcoral_service::PersistentStore::open(
        Some(snapshot.clone()),
        4096,
    ));
    // Hammer both save entry points (the dirty-checked save of the
    // persist timer and shutdown, and the unconditional save) while
    // entries stream in: unserialized saves could interleave the shared
    // tmp-write/rename pair and rename a torn file into place.
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..50u64 {
                    store.factor_store().absorb([qcoral::FactorStoreEntry {
                        opts_fp: t,
                        fingerprint: ((t as u128) << 64) | i as u128,
                        box_bits: vec![i, i + 1],
                        profile_bits: vec![],
                        mean_bits: 0.5f64.to_bits(),
                        variance_bits: 0.0f64.to_bits(),
                    }]);
                    if t % 2 == 0 {
                        store.save_if_dirty().expect("save io");
                    } else {
                        store.save().expect("save io");
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    store.save_if_dirty().expect("final save");
    let text = std::fs::read_to_string(&snapshot).expect("snapshot exists");
    assert!(
        text.lines()
            .all(|line| serde_json::Value::parse(line).is_ok()),
        "every line parses — not torn"
    );
    // A reopen warm-loads every entry the racing writers produced, and
    // the footer vouches for the record list.
    let reopened = qcoral_service::PersistentStore::open(Some(snapshot.clone()), 4096);
    let report = reopened.recovery_report();
    assert!(!report.lossy(), "{report:?}");
    assert_eq!(reopened.factor_store().len(), 200);
    let _ = std::fs::remove_file(&snapshot);
    let _ = std::fs::remove_file(qcoral_service::store::wal_path(&snapshot));
}

/// Encodes a `System` request for `source` under `options`, with `key`
/// spliced into the front of its `paver` object.
fn system_frame_with_paver_key(source: &str, options: Options, key: &str) -> String {
    let frame = qcoral_service::wire::encode_request(&qcoral_service::Request {
        id: 1,
        op: qcoral_service::Op::System {
            source: source.to_string(),
            options,
            profile: None,
        },
    });
    let spliced = frame.replacen("\"paver\":{", &format!("\"paver\":{{{key},"), 1);
    assert_ne!(spliced, frame, "the frame carries a paver object");
    spliced
}

/// Sends `frame` on a raw connection and requires a `Report` within 20 s.
fn answers_within_20_s(server: &Server, frame: &str) {
    let stream = TcpStream::connect(server.addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(frame.as_bytes()).unwrap();
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("an answer within 20 s");
    let r = qcoral_service::wire::decode_response(&line).expect("response decodes");
    assert_eq!(r.id, 1);
    assert!(
        matches!(r.outcome, Outcome::Report(_)),
        "expected a report, got {:?}",
        r.outcome
    );
}

/// `PaverConfig::max_passes` is retired: a frame that still carries the
/// key decodes with the key ignored. The two nearly parallel lines below
/// shrink the box by a factor of about 1 + 1e-9 per contraction pass, so
/// a network-supplied limit of 10⁹ passes would pin a worker for minutes
/// inside a single contraction.
#[test]
fn retired_pass_limit_cannot_pin_a_worker() {
    let (server, _client) = start(ServiceConfig::default());
    let frame = system_frame_with_paver_key(
        "var x in [0, 1]; var y in [0, 1]; \
         pc x == 1.000000001 * y && y == 1.000000001 * x;",
        Options::default(),
        "\"max_passes\":1000000000",
    );
    answers_within_20_s(&server, &frame);
    server.shutdown();
}

/// `PaverConfig::time_budget` is retired: a frame that still carries the
/// key decodes with the key ignored, and the paver reads no clock. At 17
/// digits the one-ulp box around 1/3 below bisects into itself and a
/// refuted point box; the paver keeps it as one boundary box instead of
/// bisecting it until a network-supplied 60 s budget runs out.
#[test]
fn retired_time_budget_cannot_pin_a_worker() {
    let (server, _client) = start(ServiceConfig::default());
    let mut options = Options::default();
    options.paver.precision_digits = 17;
    let frame = system_frame_with_paver_key(
        "var x in [0, 1]; pc x * 3 == 1 && x < 0.33333333333333337;",
        options,
        "\"time_budget\":{\"secs\":60,\"nanos\":0}",
    );
    assert!(frame.contains("\"precision_digits\":17"), "{frame}");
    answers_within_20_s(&server, &frame);
    server.shutdown();
}

/// `precision_digits` is any `u32` on the wire. 2³¹ and `u32::MAX` pave
/// at the finest width, 0, instead of panicking on the exponent or
/// paving at a width of 10.
#[test]
fn extreme_precision_digits_get_a_report() {
    let (server, _client) = start(ServiceConfig::default());
    for digits in [1u32 << 31, u32::MAX] {
        let mut options = Options::default();
        options.paver.precision_digits = digits;
        let frame = qcoral_service::wire::encode_request(&qcoral_service::Request {
            id: 1,
            op: qcoral_service::Op::System {
                source: "var x in [0, 1]; var y in [0, 1]; pc x * x + y * y < 0.5;".to_string(),
                options,
                profile: None,
            },
        });
        assert!(frame.contains(&format!("\"precision_digits\":{digits}")));
        answers_within_20_s(&server, &frame);
    }
    server.shutdown();
}

/// Shutdown wakes the persist timer instead of waiting for its next
/// tick, whatever the server's uptime.
#[test]
fn shutdown_does_not_wait_for_the_persist_timer() {
    for uptime_ms in [10, 60, 260] {
        let snapshot = temp_snapshot(&format!("shutdown-{uptime_ms}"));
        let server = Server::start(ServiceConfig {
            snapshot: Some(snapshot.clone()),
            ..ServiceConfig::default()
        })
        .expect("bind loopback");
        std::thread::sleep(Duration::from_millis(uptime_ms));
        let t0 = Instant::now();
        server.shutdown();
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(125),
            "uptime {uptime_ms} ms: shutdown took {took:?}"
        );
        let _ = std::fs::remove_file(&snapshot);
        let _ = std::fs::remove_file(qcoral_service::store::wal_path(&snapshot));
    }
}

#[test]
fn malformed_frames_get_error_responses_and_the_connection_survives() {
    let (server, _client) = start(ServiceConfig::default());
    let stream = TcpStream::connect(server.addr()).expect("connect raw");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    // Unparseable frame with a salvageable id.
    writer
        .write_all(b"{\"id\":9,\"op\":\"Nonsense\"}\n")
        .unwrap();
    reader.read_line(&mut line).unwrap();
    let r = qcoral_service::wire::decode_response(&line).expect("error response decodes");
    assert_eq!(r.id, 9, "id salvaged from the broken frame");
    assert!(matches!(r.outcome, Outcome::Error { .. }));

    // Complete garbage.
    line.clear();
    writer.write_all(b"complete garbage\n").unwrap();
    reader.read_line(&mut line).unwrap();
    let r = qcoral_service::wire::decode_response(&line).expect("error response decodes");
    assert_eq!(r.id, 0);
    assert!(matches!(r.outcome, Outcome::Error { .. }));

    // Invalid UTF-8 inside a JSON string: must be rejected outright,
    // not lossily decoded into a parseable-but-corrupted request.
    line.clear();
    writer
        .write_all(b"{\"id\":11,\"op\":{\"System\":{\"source\":\"\xFF\"}}}\n")
        .unwrap();
    reader.read_line(&mut line).unwrap();
    let r = qcoral_service::wire::decode_response(&line).expect("error response decodes");
    assert!(
        matches!(&r.outcome, Outcome::Error { message } if message.contains("UTF-8")),
        "invalid UTF-8 must be an explicit error, got {:?}",
        r.outcome
    );

    // The same connection still answers real requests.
    line.clear();
    writer
        .write_all(b"{\"id\":10,\"op\":\"Status\"}\n")
        .unwrap();
    reader.read_line(&mut line).unwrap();
    let r = qcoral_service::wire::decode_response(&line).expect("status decodes");
    assert_eq!(r.id, 10);
    assert!(matches!(r.outcome, Outcome::Status(_)));
    server.shutdown();
}

#[test]
fn connection_limit_refusals_surface_as_remote_errors() {
    // With a limit of 0 every connection is refused with an id-0 error
    // line; the client must surface that message, not skip the frame
    // and report a bare EOF.
    let cfg = ServiceConfig {
        max_connections: 0,
        ..ServiceConfig::default()
    };
    let server = Server::start(cfg).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("tcp connect");
    let e = client.status().unwrap_err();
    assert!(
        e.to_string().contains("connection limit"),
        "expected the refusal message, got: {e}"
    );
    server.shutdown();
}

#[test]
fn invalid_inputs_are_errors_not_crashes() {
    let (server, mut client) = start(ServiceConfig::default());
    // Unparseable system source.
    let e = client
        .analyze_system("var x in", Options::default().with_samples(100), None)
        .unwrap_err();
    assert!(e.to_string().contains("parse"), "{e}");
    // Profile arity mismatch.
    let e = client
        .analyze_system(
            "var x in [0, 1]; pc x < 0.5;",
            Options::default().with_samples(100),
            Some(UsageProfile::uniform(3)),
        )
        .unwrap_err();
    assert!(e.to_string().contains("covers"), "{e}");
    // Unparseable program source.
    let e = client
        .analyze_program(
            "program p(",
            Options::default().with_samples(100),
            None,
            None,
        )
        .unwrap_err();
    assert!(e.to_string().contains("parse"), "{e}");
    // The server survived all of it.
    assert!(client.status().is_ok());
    server.shutdown();
}

#[test]
fn hostile_profiles_are_validated_and_normalized() {
    let (server, mut client) = start(ServiceConfig::default());
    let source = "var x in [0, 1]; pc x < 0.5;";
    let opts = Options::default().with_samples(2_000).with_seed(4);
    // Deserialization bypasses Dist::piecewise, so craft invalid dists
    // over the wire via the raw protocol types.
    let bad_arity =
        UsageProfile::uniform(1).with_dist(0, Dist::piecewise(vec![0.0, 0.5, 1.0], vec![1.0, 1.0]));
    // Mutate via JSON to bypass the constructor: wrong weight count.
    let mut line = qcoral_service::wire::encode_request(&qcoral_service::Request {
        id: 1,
        op: qcoral_service::Op::System {
            source: source.to_string(),
            options: opts.clone(),
            profile: Some(bad_arity),
        },
    });
    line = line.replace("\"weights\":[0.5,0.5]", "\"weights\":[0.5,0.5,0.5]");
    let decoded = qcoral_service::wire::decode_request(&line).expect("still well-formed JSON");
    let qcoral_service::Op::System { profile, .. } = &decoded.op else {
        panic!("System op expected");
    };
    assert!(profile.is_some(), "mutation kept the profile");
    let outcome = client.call(decoded.op).expect("transport ok").outcome;
    assert!(
        matches!(&outcome, Outcome::Error { message } if message.contains("weight")),
        "wrong-arity weights must be rejected, got {outcome:?}"
    );

    // Unnormalized weights are accepted but renormalized: identical to
    // the properly constructed profile.
    let normalized =
        UsageProfile::uniform(1).with_dist(0, Dist::piecewise(vec![0.0, 0.5, 1.0], vec![3.0, 1.0]));
    let reference = client
        .analyze_system(source, opts.clone(), Some(normalized))
        .expect("reference");
    let mut raw = qcoral_service::wire::encode_request(&qcoral_service::Request {
        id: 2,
        op: qcoral_service::Op::System {
            source: source.to_string(),
            options: opts,
            profile: None,
        },
    });
    raw = raw.replace(
        "\"profile\":null",
        "\"profile\":{\"dists\":[{\"Piecewise\":{\"edges\":[0.0,0.5,1.0],\"weights\":[30.0,10.0]}}]}",
    );
    let decoded = qcoral_service::wire::decode_request(&raw).expect("well-formed");
    match client.call(decoded.op).expect("transport ok").outcome {
        Outcome::Report(r) => assert_eq!(
            r.report.estimate, reference.report.estimate,
            "renormalized profile must match the constructor-built one"
        ),
        other => panic!("expected a report, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn resource_ceilings_reject_hostile_options() {
    let (server, mut client) = start(ServiceConfig::default());
    let source = "var x in [0, 1]; pc x < 0.5;";
    // A u64::MAX sample budget must be rejected, not pin a worker.
    let e = client
        .analyze_system(source, Options::default().with_samples(u64::MAX), None)
        .unwrap_err();
    assert!(e.to_string().contains("limit"), "{e}");
    // Zero samples would panic the sampler's n > 0 assert.
    let e = client
        .analyze_system(source, Options::default().with_samples(0), None)
        .unwrap_err();
    assert!(e.to_string().contains("at least 1"), "{e}");
    // Absurd symbolic-execution depth.
    let e = client
        .analyze_program(
            "program p(x in [0, 1]) { if (x > 0.5) { target(); } }",
            Options::default().with_samples(100),
            Some(1 << 40),
            None,
        )
        .unwrap_err();
    assert!(e.to_string().contains("limit"), "{e}");
    // A box budget past the ceiling would let one paving take gigabytes;
    // the 128-box rare-event recipe is served.
    let mut boxes = Options::default().with_samples(500);
    boxes.paver.max_boxes = 4_097;
    let e = client
        .analyze_system(source, boxes.clone(), None)
        .unwrap_err();
    assert!(e.to_string().contains("max_boxes"), "{e}");
    boxes.paver.max_boxes = 128;
    let r = client
        .analyze_system(source, boxes, None)
        .expect("128-box request");
    assert!((r.report.estimate.mean - 0.5).abs() < 0.1);
    // Reasonable requests still work afterwards.
    let r = client
        .analyze_system(source, Options::default().with_samples(500), None)
        .expect("sane request");
    assert!((r.report.estimate.mean - 0.5).abs() < 0.1);
    server.shutdown();
}

/// The `metrics` op: a scrape after real traffic must expose the
/// scheduler's, factor store's, and analyzer's metric families in
/// Prometheus-style text exposition — with live values that reflect the
/// requests actually served.
#[test]
fn metrics_op_exposes_required_families() {
    let (server, mut client) = start(ServiceConfig::default());
    let source = "var x in [0, 1]; pc x < 0.5;";
    client
        .analyze_system(source, Options::default().with_samples(500), None)
        .expect("request serves");
    let m = client.metrics().expect("metrics scrape");
    assert_eq!(m.protocol_version, qcoral_service::PROTOCOL_VERSION);
    // Per-instance families (server registry)…
    for family in [
        "qcoral_scheduler_served_total",
        "qcoral_scheduler_rejected_total",
        "qcoral_scheduler_shed_total",
        "qcoral_scheduler_queue_depth",
        "qcoral_scheduler_inflight",
        "qcoral_scheduler_queue_wait_us",
        "qcoral_scheduler_batch_occupancy",
        "qcoral_factor_store_hits_total",
        "qcoral_factor_store_misses_total",
        "qcoral_request_duration_us",
        "qcoral_store_save_duration_us",
        // …and the totals of the analyses this server answered.
        "qcoral_analyses_total",
        "qcoral_samples_drawn_total",
        "qcoral_pavings_total",
        "qcoral_tape_cache_hits_total",
        "qcoral_analysis_duration_us",
    ] {
        assert!(
            m.text.contains(&format!("# TYPE {family} ")),
            "family {family} missing from exposition:\n{}",
            m.text
        );
    }
    // Histograms render cumulative buckets; counters carry real traffic.
    assert!(m.text.contains("qcoral_request_duration_us_bucket{le=\""));
    assert!(m.text.contains("qcoral_request_duration_us_count 1"));
    // `served` increments after the response write — poll for it.
    eventually(|| {
        let m = client.metrics().expect("metrics scrape");
        m.text
            .lines()
            .find_map(|l| l.strip_prefix("qcoral_scheduler_served_total "))
            .expect("served counter has a value line")
            .trim()
            .parse::<u64>()
            .expect("integer value")
            >= 1
    });
    // The same bytes flow through Server::metrics_text (the daemon's
    // periodic log) — same per-instance families, fresher values.
    assert!(server
        .metrics_text()
        .contains("qcoral_scheduler_served_total"));
    server.shutdown();
}

/// Analysis totals are per server: with two servers in one process, a
/// request answered by A leaves B's totals at zero.
#[test]
fn analysis_totals_are_counted_per_server() {
    let (a, mut client_a) = start(ServiceConfig::default());
    let (b, mut client_b) = start(ServiceConfig::default());
    client_a
        .analyze_system(
            "var x in [0, 1]; pc x < 0.5;",
            Options::default().with_samples(500),
            None,
        )
        .expect("request serves");
    let analyses = |client: &mut Client| -> String {
        let m = client.metrics().expect("metrics scrape");
        m.text
            .lines()
            .find_map(|l| l.strip_prefix("qcoral_analyses_total "))
            .expect("analyses counter has a value line")
            .to_string()
    };
    assert_eq!(analyses(&mut client_a), "1");
    assert_eq!(analyses(&mut client_b), "0");
    a.shutdown();
    b.shutdown();
}

/// `status` must surface the *live* queue-depth and batch-occupancy
/// gauges next to the lifetime totals: an idle server reads zero on
/// both, while served totals persist.
#[test]
fn status_surfaces_live_queue_gauges() {
    let (server, mut client) = start(ServiceConfig::default());
    client
        .analyze_system(
            "var x in [0, 1]; pc x < 0.5;",
            Options::default().with_samples(500),
            None,
        )
        .expect("request serves");
    let status = client.status().expect("status");
    assert_eq!(status.protocol_version, qcoral_service::PROTOCOL_VERSION);
    // The reply arrives before the worker's completion bookkeeping
    // (served++, inflight--): poll until the server reads idle, with
    // the lifetime total persisting and both live gauges drained.
    eventually(|| {
        let s = client.status().expect("status");
        s.requests_served >= 1 && s.queue_depth == 0 && s.inflight == 0
    });
    server.shutdown();
}

/// Per-request tracing over the wire: `Options::trace` returns a span
/// list covering the service layer (queue wait) and the analysis
/// (paving, compilation, sampling); the estimate stays bit-identical to
/// the untraced request, and untraced requests carry no trace.
#[test]
fn traced_requests_return_spans_and_identical_estimates() {
    let (server, mut client) = start(ServiceConfig::default());
    let source = "var a in [0, 2]; var b in [-1, 1];
                  pc a * a < 2 && sin(b) > 0.1;";
    let opts = Options::strat_partcache().with_samples(1_000).with_seed(9);
    let untraced = client
        .analyze_system(source, opts.clone(), None)
        .expect("untraced");
    assert!(
        untraced.report.trace.is_none(),
        "untraced request got spans"
    );

    let traced = client
        .analyze_system(source, opts.with_trace(true), None)
        .expect("traced");
    assert_eq!(
        traced.report.estimate, untraced.report.estimate,
        "tracing changed the served estimate"
    );
    assert_eq!(traced.report.per_pc, untraced.report.per_pc);
    let trace = traced.report.trace.as_ref().expect("trace in response");
    assert!(!trace.spans.is_empty());
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    for expected in ["queue_wait", "analyze", "factor"] {
        assert!(
            names.contains(&expected),
            "span {expected} missing: {names:?}"
        );
    }

    // The Chrome export is well-formed trace-event JSON with one
    // complete ("ph":"X") event per span.
    let json = trace.to_chrome_json();
    let doc = serde_json::Value::parse(&json).expect("chrome trace parses");
    let events = match doc.get("traceEvents") {
        Some(serde_json::Value::Array(events)) => events,
        other => panic!("traceEvents array missing: {other:?}"),
    };
    assert_eq!(events.len(), trace.spans.len());
    for ev in events {
        assert_eq!(
            ev.get("ph"),
            Some(&serde_json::Value::String("X".to_string()))
        );
        assert!(ev.get("name").is_some() && ev.get("ts").is_some() && ev.get("dur").is_some());
    }
    server.shutdown();
}

/// Traces ride `Op::Program` too, with the pipeline's parse and symexec
/// stages on the same timeline as the queue wait and the analysis.
#[test]
fn program_traces_cover_the_whole_pipeline() {
    let (server, mut client) = start(ServiceConfig::default());
    let source = "program p(x in [0, 1]) { if (x > 0.75) { target(); } }";
    let opts = Options::default().with_samples(800).with_trace(true);
    let r = client
        .analyze_program(source, opts, None, None)
        .expect("traced program");
    let trace = r.report.trace.as_ref().expect("trace in response");
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    for expected in ["queue_wait", "parse", "symexec", "analyze"] {
        assert!(
            names.contains(&expected),
            "span {expected} missing: {names:?}"
        );
    }
    server.shutdown();
}
