//! Determinism of the analyzer: for a fixed seed, every VolComp-suite
//! subject gets the *bit-identical* report from a fresh analyzer, from
//! a repeat, and from analyses running on two threads at once, the way
//! a server's workers run them.
//!
//! Three properties are pinned down:
//!
//! 1. run(seed) == run(seed) on a fresh analyzer (repeatability),
//! 2. a lone run == each of two concurrent runs (concurrent analyses
//!    never perturb each other, shared caches included),
//! 3. the per-PC breakdown matches, not just the total (no compensating
//!    errors across path conditions).

use std::sync::{Arc, Barrier};

use qcoral::{Analyzer, CompiledPred, FactorStore, Options, Report, Stats};
use qcoral_constraints::parse::parse_system;
use qcoral_icp::{domain_box, PavingCache};
use qcoral_interval::IntervalBox;
use qcoral_mc::{
    initial_allocation, mix_seed, refine_plan, Allocation, BulkPred, Estimate, SamplePlan,
    ScalarPred, Strata, Stratum, StratumAccum, UsageProfile,
};
use qcoral_subjects::{nonuniform_subjects, rare_subjects, table3_subjects};
use qcoral_symexec::SymConfig;

/// Runs `f` on two threads released at once, as two workers of a
/// server would run two requests, and returns both results.
fn on_two_threads<R: Send>(f: impl Fn() -> R + Sync) -> [R; 2] {
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        let (start, f) = (&start, &f);
        [(); 2]
            .map(|()| {
                s.spawn(move || {
                    start.wait();
                    f()
                })
            })
            .map(|h| h.join().unwrap())
    })
}

/// Asserts that two reports carry the same estimate, per-PC breakdown
/// and counters (everything but the wall clock and the trace).
fn assert_same_report(a: &Report, b: &Report, what: &str) {
    assert_eq!(a.estimate, b.estimate, "{what}: estimate");
    assert_eq!(a.per_pc, b.per_pc, "{what}: per-PC breakdown");
    assert_eq!(a.stats, b.stats, "{what}: counters");
}

/// A repeat on a fresh analyzer, and two fresh analyzers running at
/// once, all return the lone run's report: nothing carries over between
/// runs (the tape split included), and nothing leaks between concurrent
/// ones.
fn check_subject(name: &str, samples: u64, seed: u64) {
    let subjects = table3_subjects();
    let subj = subjects
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("subject {name} exists"));
    for idx in 0..subj.assertions.len() {
        let (domain, cs) = subj.system_for(idx, &SymConfig::default());
        if cs.is_empty() {
            continue;
        }
        let profile = UsageProfile::uniform(domain.len());
        let opts = Options::strat_partcache()
            .with_samples(samples)
            .with_seed(seed);
        let run = || Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
        let a = run();
        assert_same_report(&a, &run(), &format!("{name}[{idx}] repeat"));
        for (t, c) in on_two_threads(run).iter().enumerate() {
            assert_same_report(&a, c, &format!("{name}[{idx}] thread {t}"));
        }
    }
}

#[test]
fn atrial_parallel_matches_serial() {
    check_subject("ATRIAL", 4_000, 11);
}

#[test]
fn cart_parallel_matches_serial() {
    check_subject("CART", 4_000, 12);
}

#[test]
fn coronary_parallel_matches_serial() {
    check_subject("CORONARY", 4_000, 13);
}

#[test]
fn egfr_parallel_matches_serial() {
    check_subject("EGFR EPI", 2_000, 14);
}

#[test]
fn invpend_parallel_matches_serial() {
    check_subject("INVPEND", 4_000, 15);
}

#[test]
fn pack_parallel_matches_serial() {
    check_subject("PACK", 2_000, 16);
}

#[test]
fn vol_parallel_matches_serial() {
    check_subject("VOL", 2_000, 17);
}

/// The plain (unstratified, unpartitioned) configuration exercises the
/// chunked hit-or-miss path directly: a repeat and two concurrent runs
/// return the lone run's report.
#[test]
fn plain_config_parallel_matches_serial() {
    let subjects = table3_subjects();
    let subj = subjects.iter().find(|s| s.name == "ATRIAL").unwrap();
    let (domain, cs) = subj.system_for(0, &SymConfig::default());
    let profile = UsageProfile::uniform(domain.len());
    let opts = Options::plain().with_samples(50_000).with_seed(5);
    let run = || Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
    let a = run();
    assert_same_report(&a, &run(), "repeat");
    for (t, c) in on_two_threads(run).iter().enumerate() {
        assert_same_report(&a, c, &format!("thread {t}"));
    }
}

/// The iterative engine's contract over the VolComp suite: for a fixed
/// seed and fixed iterative knobs,
///
/// 1. a repeat on a fresh analyzer is bit-identical, round count and
///    every other counter included, since every reallocation decision
///    is a pure function of deterministic estimates, and
/// 2. a *warm restart* through a snapshotted `FactorStore` recomposes
///    the bit-identical estimate with zero pavings and zero samples
///    (same seeds ⇒ same rounds ⇒ same estimate).
#[test]
fn analyze_iterative_is_deterministic_and_restart_stable() {
    for subj in table3_subjects() {
        let (domain, cs) = subj.system_for(0, &SymConfig::default());
        if cs.is_empty() {
            continue;
        }
        let profile = UsageProfile::uniform(domain.len());
        let opts = Options::strat_partcache()
            .with_samples(800)
            .with_seed(21)
            .with_target_stderr(1e-3)
            .with_round_budget(800)
            .with_max_rounds(4);

        let a = Analyzer::new(opts.clone()).analyze_iterative(&cs, &domain, &profile);
        let b = Analyzer::new(opts.clone()).analyze_iterative(&cs, &domain, &profile);
        assert_same_report(&a, &b, &format!("{}: repeat", subj.name));

        // Warm restart: snapshot the store, absorb it into a fresh one
        // (what the service does across process restarts), re-run.
        let store = Arc::new(FactorStore::new(4096));
        let cold = Analyzer::new(opts.clone())
            .with_factor_store(Arc::clone(&store))
            .analyze_iterative(&cs, &domain, &profile);
        assert_eq!(
            cold.estimate, a.estimate,
            "{}: store changed result",
            subj.name
        );
        let restarted = Arc::new(FactorStore::new(4096));
        restarted.absorb(store.entries());
        let warm = Analyzer::new(opts)
            .with_factor_store(restarted)
            .analyze_iterative(&cs, &domain, &profile);
        assert_eq!(
            warm.estimate, a.estimate,
            "{}: warm restart diverged",
            subj.name
        );
        assert_eq!(warm.per_pc, a.per_pc, "{}: warm per-PC differs", subj.name);
        assert_eq!(
            warm.stats.samples_drawn, 0,
            "{}: warm run sampled",
            subj.name
        );
        assert_eq!(warm.stats.pavings, 0, "{}: warm run paved", subj.name);
        assert_eq!(
            warm.stats.target_met, a.stats.target_met,
            "{}: warm target flag differs",
            subj.name
        );
    }
}

/// The same contract under *non-uniform* usage profiles, over the
/// profiled VolComp suite: for a fixed seed,
///
/// 1. a repeat on a fresh analyzer is bit-identical (the continuous
///    inverse-CDF sampler and the profile-aligned stratifier are
///    deterministic), and
/// 2. a warm restart through a snapshot-absorbed `FactorStore`
///    recomposes the bit-identical estimate with zero pavings and zero
///    samples — non-uniform profile bits key the store exactly.
#[test]
fn nonuniform_profiles_are_deterministic_and_restart_stable() {
    for subj in nonuniform_subjects() {
        let (domain, cs, profile) = subj.system(&SymConfig::default());
        if cs.is_empty() {
            continue;
        }
        let opts = Options::strat_partcache().with_samples(2_000).with_seed(31);

        let a = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
        let b = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
        assert_same_report(&a, &b, &format!("{}: repeat", subj.name));

        // Warm restart through a snapshot-style store round trip.
        let store = Arc::new(FactorStore::new(4096));
        let cold = Analyzer::new(opts.clone())
            .with_factor_store(Arc::clone(&store))
            .analyze(&cs, &domain, &profile);
        assert_eq!(
            cold.estimate, a.estimate,
            "{}: store changed result",
            subj.name
        );
        let restarted = Arc::new(FactorStore::new(4096));
        restarted.absorb(store.entries());
        let warm = Analyzer::new(opts)
            .with_factor_store(restarted)
            .analyze(&cs, &domain, &profile);
        assert_eq!(
            warm.estimate, a.estimate,
            "{}: warm restart diverged",
            subj.name
        );
        assert_eq!(
            warm.stats.samples_drawn, 0,
            "{}: warm run sampled",
            subj.name
        );
        assert_eq!(warm.stats.pavings, 0, "{}: warm run paved", subj.name);
    }
}

/// Hit-or-miss Monte Carlo (Eq. 2): one `refine_plan` round from the
/// empty accumulator.
fn hit_or_miss(
    pred: &impl BulkPred,
    boxed: &IntervalBox,
    profile: &UsageProfile,
    n: u64,
    plan: SamplePlan,
) -> Estimate {
    refine_plan(pred, boxed, profile, n, plan, StratumAccum::EMPTY).estimate()
}

/// The columnar bulk evaluator is pinned **bit-identical to the scalar
/// evaluator** on every VolComp-suite subject: for each path condition,
/// the samplers must return the same `Estimate` whether the predicate is
/// a scalar closure over the row tape (counted row by row through the
/// default `count_hits`) or the compiled columnar `BulkPred` — plain
/// hit-or-miss and stratified composition alike. (The analyzer rides
/// the bulk path unconditionally, so together with the repeat and
/// warm-restart suites above this pins the whole chain: bulk == scalar
/// == repeat == warm restart.)
#[test]
fn bulk_path_matches_scalar_path_bit_for_bit() {
    for subj in table3_subjects() {
        let (domain, cs) = subj.system_for(0, &SymConfig::default());
        if cs.is_empty() {
            continue;
        }
        let profile = UsageProfile::uniform(domain.len());
        let boxed = domain_box(&domain);
        for (i, pc) in cs.pcs().iter().enumerate().take(6) {
            let pred = CompiledPred::compile(pc);
            let scalar_pred = ScalarPred(|x: &[f64]| pred.scalar().holds(x));
            let plan = SamplePlan::serial(mix_seed(97, i as u64));
            let scalar = hit_or_miss(&scalar_pred, &boxed, &profile, 3_000, plan);
            let bulk = hit_or_miss(&pred, &boxed, &profile, 3_000, plan);
            assert_eq!(scalar, bulk, "{}[pc {i}]: bulk diverged", subj.name);

            // Stratified composition over a two-way split of the domain.
            let d0 = boxed.dims()[0];
            let mid = 0.5 * (d0.lo() + d0.hi());
            let mut lo_box: Vec<_> = boxed.dims().to_vec();
            lo_box[0] = qcoral_interval::Interval::new(d0.lo(), mid);
            let mut hi_box: Vec<_> = boxed.dims().to_vec();
            hi_box[0] = qcoral_interval::Interval::new(mid, d0.hi());
            let strata = vec![
                Stratum::boundary(lo_box.into_iter().collect()),
                Stratum::boundary(hi_box.into_iter().collect()),
            ];
            let stratified = |pred: &dyn BulkPred| {
                let mut s = Strata::new(strata.clone(), &profile, &boxed, plan);
                let counts = initial_allocation(Allocation::Proportional, 2_000, &s.weights());
                s.refine(pred, &profile, &counts);
                s.estimate()
            };
            let (s_scalar, s_bulk) = (stratified(&scalar_pred), stratified(&pred));
            assert_eq!(s_scalar, s_bulk, "{}[pc {i}]: stratified bulk", subj.name);
        }
    }
}

/// A warm `FactorStore` restart over the bulk-path analyzer: snapshots
/// written by a bulk-path run recompose bit-identically after a restart
/// (store keys and sample streams are untouched by the columnar
/// rewrite).
#[test]
fn bulk_path_warm_restart_is_bit_identical() {
    let subjects = table3_subjects();
    let subj = subjects.iter().find(|s| s.name == "VOL").unwrap();
    let (domain, cs) = subj.system_for(0, &SymConfig::default());
    let profile = UsageProfile::uniform(domain.len());
    let opts = Options::strat_partcache().with_samples(2_000).with_seed(23);
    let store = Arc::new(FactorStore::new(4096));
    let cold = Analyzer::new(opts.clone())
        .with_factor_store(Arc::clone(&store))
        .analyze(&cs, &domain, &profile);
    assert!(cold.stats.samples_drawn > 0);
    let restarted = Arc::new(FactorStore::new(4096));
    restarted.absorb(store.entries());
    let warm = Analyzer::new(opts)
        .with_factor_store(restarted)
        .analyze(&cs, &domain, &profile);
    assert_eq!(warm.estimate, cold.estimate, "warm restart diverged");
    assert_eq!(warm.per_pc, cold.per_pc);
    assert_eq!(warm.stats.samples_drawn, 0, "warm run must not sample");
    assert_eq!(warm.stats.pavings, 0, "warm run must not pave");
}

/// Every report names the backend that served it: the columnar
/// interpreter, `"bulk"`, the only one there is.
#[test]
fn reported_backend_matches_process_backend() {
    let subjects = table3_subjects();
    let subj = subjects.iter().find(|s| s.name == "VOL").unwrap();
    let (domain, cs) = subj.system_for(0, &SymConfig::default());
    let profile = UsageProfile::uniform(domain.len());
    let opts = Options::strat_partcache().with_samples(1_000).with_seed(41);
    let report = Analyzer::new(opts).analyze(&cs, &domain, &profile);
    assert_eq!(report.stats.backend, "bulk");
}

/// Tracing must be a pure observer: with `Options::trace` on, every
/// estimate (total and per-PC) is bit-identical to the untraced run —
/// span clocks are monotonic timers that never touch an RNG stream, and
/// no instrumented path branches on a span's value. Checked one-shot
/// and iterative; the traced runs must actually produce spans, the
/// untraced ones none.
#[test]
fn tracing_never_perturbs_estimates() {
    for subj in table3_subjects() {
        let (domain, cs) = subj.system_for(0, &SymConfig::default());
        if cs.is_empty() {
            continue;
        }
        let profile = UsageProfile::uniform(domain.len());
        let opts = Options::strat_partcache().with_samples(2_000).with_seed(41);
        let off = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
        let on = Analyzer::new(opts.clone().with_trace(true)).analyze(&cs, &domain, &profile);
        assert_same_report(&off, &on, &format!("{}: tracing", subj.name));
        assert!(off.trace.is_none(), "untraced run returned spans");
        let spans = on.trace.as_ref().expect("traced run returns spans");
        assert!(!spans.spans.is_empty(), "trace must hold spans");

        let iter_opts = opts
            .with_target_stderr(1e-3)
            .with_round_budget(800)
            .with_max_rounds(3);
        let i_off = Analyzer::new(iter_opts.clone()).analyze_iterative(&cs, &domain, &profile);
        let i_on =
            Analyzer::new(iter_opts.with_trace(true)).analyze_iterative(&cs, &domain, &profile);
        assert_same_report(&i_off, &i_on, &format!("{}: iterative tracing", subj.name));
        assert!(i_on.trace.is_some(), "iterative traced run returns spans");
    }
}

/// The shape a server has: two analyzers share one paving cache and
/// one factor store and run the same system on two threads at once,
/// twenty times over a fresh cache and store, on the subjects whose
/// path conditions share factors (ATRIAL, EGFR EPI). Every estimate and
/// per-PC breakdown equals a lone run's bit for bit: a paving is a
/// function of its factor's conjunction and box, and a store hit
/// returns the estimate its key's seeded streams give.
///
/// The hit counters are not compared with the lone run's. Which
/// analyzer reaches a shared factor first decides which one paves,
/// samples and deposits it (misses) and which one finds it in the cache
/// or the store (hits), and when both get there at once both compute
/// it. So only the totals are checked: every lookup is a hit or a miss,
/// and every distinct factor misses the fresh store at least once.
#[test]
fn shared_caches_never_change_concurrent_answers() {
    let subjects = table3_subjects();
    for name in ["ATRIAL", "EGFR EPI"] {
        let subj = subjects.iter().find(|s| s.name == name).unwrap();
        let mut shared_hits = 0;
        for idx in 0..subj.assertions.len() {
            let (domain, cs) = subj.system_for(idx, &SymConfig::default());
            if cs.is_empty() {
                continue;
            }
            let profile = UsageProfile::uniform(domain.len());
            let opts = Options::strat_partcache().with_samples(1_000).with_seed(41);
            let lone = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
            shared_hits += lone.stats.cache_hits;
            let factors = lone.stats.cache_misses;
            for rep in 0..20 {
                let cache = Arc::new(PavingCache::new());
                let store = Arc::new(FactorStore::new(4096));
                let reports = on_two_threads(|| {
                    Analyzer::new(opts.clone())
                        .with_paving_cache(Arc::clone(&cache))
                        .with_factor_store(Arc::clone(&store))
                        .analyze(&cs, &domain, &profile)
                });
                for (t, r) in reports.iter().enumerate() {
                    let what = format!("{name}[{idx}] rep {rep} thread {t}");
                    assert_eq!(r.estimate, lone.estimate, "{what}");
                    assert_eq!(r.per_pc, lone.per_pc, "{what}");
                    let s = &r.stats;
                    assert_eq!(
                        s.factor_store_hits + s.factor_store_misses,
                        factors,
                        "{what}"
                    );
                    assert_eq!(
                        s.paving_cache_hits + s.paving_cache_misses,
                        s.pavings,
                        "{what}"
                    );
                }
                let misses: u64 = reports.iter().map(|r| r.stats.factor_store_misses).sum();
                assert!(
                    misses >= factors,
                    "{name}[{idx}] rep {rep}: {misses} misses"
                );
            }
        }
        assert!(shared_hits > 0, "{name}: no PCs share a factor");
    }
}

/// Two factors over different boxes share one conjunction, so one
/// compile: the run's tape slot charges the first factor a miss and the
/// second a hit.
#[test]
fn factors_sharing_a_conjunction_compile_it_once() {
    let sys = parse_system(
        "var x in [0, 1]; var y in [0, 2]; pc sin(x) < 0.4472135 && sin(y) < 0.4472135;",
    )
    .unwrap();
    let profile = UsageProfile::uniform(2);
    let opts = Options::strat_partcache().with_samples(2_000);
    let r = Analyzer::new(opts).analyze(&sys.constraint_set, &sys.domain, &profile);
    assert_eq!(r.stats.cache_misses, 2, "two slots: {:?}", r.stats);
    assert_eq!(
        (r.stats.tape_cache_hits, r.stats.tape_cache_misses),
        (1, 1),
        "{:?}",
        r.stats
    );
}

/// Tape counters are per run: two analyses of disjoint systems running
/// at once each report exactly their own compiles, and a concurrent
/// repeat compiles them again, since no tape outlives its run.
#[test]
fn concurrent_analyses_report_exact_tape_counters() {
    let systems = [
        "var x in [0, 1]; var y in [0, 1];
         pc sin(x * 1.6180339) > 0.3183098 && cos(y * 2.7182818) > 0.1414213;",
        "var u in [0, 1]; var v in [0, 1]; var w in [0, 1];
         pc u * 1.4142135 < 0.5772156 && exp(v) > 1.2599210 && ln(w + 1) < 0.6931471;",
    ]
    .map(|src| parse_system(src).unwrap());
    let run_both = || -> Vec<(u64, u64)> {
        let start = Barrier::new(systems.len());
        std::thread::scope(|s| {
            let runs: Vec<_> = systems
                .iter()
                .map(|sys| {
                    let start = &start;
                    s.spawn(move || {
                        let profile = UsageProfile::uniform(sys.domain.len());
                        let opts = Options::strat_partcache().with_samples(50_000);
                        start.wait();
                        let r =
                            Analyzer::new(opts).analyze(&sys.constraint_set, &sys.domain, &profile);
                        (r.stats.tape_cache_hits, r.stats.tape_cache_misses)
                    })
                })
                .collect();
            runs.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    assert_eq!(run_both(), [(0, 2), (0, 3)], "cold: one miss per factor");
    assert_eq!(run_both(), [(0, 2), (0, 3)], "repeat: compiled again");
}

/// Crash-recovery bit-identity: a process that dies after depositing
/// factor estimates — write-ahead log appended, but no snapshot ever
/// completed (only a torn `.tmp` from a save that never reached its
/// rename) — must recover warm answers bit-for-bit from the WAL alone.
#[test]
fn recovery_is_bit_identical() {
    let subjects = table3_subjects();
    let subj = subjects.iter().find(|s| s.name == "VOL").unwrap();
    let (domain, cs) = subj.system_for(0, &SymConfig::default());
    let profile = UsageProfile::uniform(domain.len());
    let path = std::env::temp_dir().join(format!("qcoral-recovery-{}.json", std::process::id()));
    let wal = qcoral_service::store::wal_path(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
    let opts = Options::strat_partcache().with_samples(2_000).with_seed(23);

    let store = qcoral_service::PersistentStore::open(Some(path.clone()), 4096);
    let cold = Analyzer::new(opts.clone())
        .with_factor_store(Arc::clone(store.factor_store()))
        .analyze(&cs, &domain, &profile);
    assert!(cold.stats.samples_drawn > 0, "cold run must sample");
    // Crash simulation: the process dies before any save() — all that
    // reached disk is the WAL, plus a torn tmp of a snapshot whose
    // rename never happened.
    std::fs::write(path.with_extension("tmp"), "{\"version\": 2, \"entr").unwrap();
    drop(store);
    assert!(!path.exists(), "no snapshot must exist pre-recovery");
    assert!(wal.exists(), "the WAL is the only durable artifact");

    let store2 = qcoral_service::PersistentStore::open(Some(path.clone()), 4096);
    let report = store2.recovery_report().clone();
    assert!(report.recovered(), "WAL recovery");
    assert!(report.wal_replayed_entries > 0);
    assert_eq!(report.wal_corrupt_entries, 0, "clean WAL, zero loss");
    let warm = Analyzer::new(opts)
        .with_factor_store(Arc::clone(store2.factor_store()))
        .analyze(&cs, &domain, &profile);
    assert_eq!(warm.estimate, cold.estimate, "recovered estimate diverged");
    assert_eq!(warm.per_pc, cold.per_pc);
    assert_eq!(warm.stats.samples_drawn, 0, "recovery must be fully warm");
    assert_eq!(warm.stats.pavings, 0);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(path.with_extension("tmp"));
}

/// Same recovery contract when the crash additionally tears the WAL's
/// final record mid-append: the torn tail is truncated away and every
/// complete record still recomposes bit-identically.
#[test]
fn recovery_with_torn_wal_tail_is_bit_identical() {
    let subjects = table3_subjects();
    let subj = subjects.iter().find(|s| s.name == "CORONARY").unwrap();
    let (domain, cs) = subj.system_for(0, &SymConfig::default());
    let profile = UsageProfile::uniform(domain.len());
    let path =
        std::env::temp_dir().join(format!("qcoral-recovery-torn-{}.json", std::process::id()));
    let wal = qcoral_service::store::wal_path(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
    let opts = Options::strat_partcache().with_samples(2_000).with_seed(7);

    let store = qcoral_service::PersistentStore::open(Some(path.clone()), 4096);
    let cold = Analyzer::new(opts.clone())
        .with_factor_store(Arc::clone(store.factor_store()))
        .analyze(&cs, &domain, &profile);
    drop(store);
    // Crash mid-append: a partial record with no terminating newline.
    let mut bytes = std::fs::read(&wal).expect("wal written");
    let complete_lines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
    assert!(complete_lines > 0);
    bytes.extend_from_slice(b"{\"entry\": {\"opts_fp\": 99, \"finger");
    std::fs::write(&wal, &bytes).unwrap();

    let store2 = qcoral_service::PersistentStore::open(Some(path.clone()), 4096);
    let report = store2.recovery_report().clone();
    assert!(report.wal_torn_tail, "torn tail detected");
    assert_eq!(report.wal_replayed_entries, complete_lines);
    assert_eq!(report.wal_corrupt_entries, 0);
    let warm = Analyzer::new(opts)
        .with_factor_store(Arc::clone(store2.factor_store()))
        .analyze(&cs, &domain, &profile);
    assert_eq!(warm.estimate, cold.estimate, "torn-tail recovery diverged");
    assert_eq!(warm.stats.samples_drawn, 0);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
}

/// The adaptive importance-sampling engine under the full determinism
/// contract, over every closed-form rare-event subject: for a fixed
/// seed,
///
/// 1. a repeat on a fresh analyzer is bit-identical, escalation
///    decisions included (the counter-derived proposal RNG and the
///    fixed chunk-fold reduction order leave nothing to chance), and
/// 2. a warm restart through a snapshot-absorbed `FactorStore`
///    recomposes the bit-identical estimate with zero pavings and zero
///    samples (IS fingerprint bits key the store exactly).
///
/// Subjects whose proposal degenerates (sin-peaks) ride the same loop:
/// the *fallback* decision and the stratified follow-up it triggers are
/// themselves part of the deterministic contract.
#[test]
fn importance_sampling_is_deterministic_and_restart_stable() {
    for subj in rare_subjects() {
        let (cs, domain, profile) = subj.system();
        let cache = Arc::new(PavingCache::new());
        let mut opts = Options::strat_partcache()
            .with_samples(8_192)
            .with_seed(29)
            .with_allocation(Allocation::ImportanceAdaptive);
        opts.paver.max_boxes = 128;

        let a = Analyzer::new(opts.clone())
            .with_paving_cache(Arc::clone(&cache))
            .analyze(&cs, &domain, &profile);
        let b = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
        assert_same_report(&a, &b, &format!("{}: repeat", subj.name));
        // Every subject must at least reach the escalation decision;
        // the reachable ones must come out the IS side of it. (The
        // degenerate-fallback side is pinned in tests/statistics.rs.)
        assert!(
            a.stats.is_factors + a.stats.is_fallbacks > 0,
            "{}: escalation never ran",
            subj.name
        );
        if subj.is_reachable {
            assert!(a.stats.is_factors > 0, "{}: IS must engage", subj.name);
        }

        // Warm restart through a snapshot-style store round trip.
        let store = Arc::new(FactorStore::new(4096));
        let cold = Analyzer::new(opts.clone())
            .with_paving_cache(Arc::clone(&cache))
            .with_factor_store(Arc::clone(&store))
            .analyze(&cs, &domain, &profile);
        assert_eq!(
            cold.estimate, a.estimate,
            "{}: store changed result",
            subj.name
        );
        let restarted = Arc::new(FactorStore::new(4096));
        restarted.absorb(store.entries());
        let warm = Analyzer::new(opts)
            .with_factor_store(restarted)
            .analyze(&cs, &domain, &profile);
        assert_eq!(
            warm.estimate, a.estimate,
            "{}: warm restart diverged",
            subj.name
        );
        assert_eq!(warm.per_pc, a.per_pc, "{}: warm per-PC", subj.name);
        assert_eq!(warm.stats.samples_drawn, 0, "{}: warm sampled", subj.name);
        assert_eq!(warm.stats.pavings, 0, "{}: warm paved", subj.name);
    }
}

/// The iterative engine's escalation pass under the same contract: a
/// round trajectory that hands rare factors to the IS engine must stay
/// bit-identical across a repeat and across two analyses that share a
/// paving cache on two threads at once, whichever of them paves first —
/// every escalation decision is a pure function of deterministic round
/// estimates.
#[test]
fn iterative_importance_sampling_matches_across_schedules() {
    for subj in rare_subjects() {
        if !subj.is_reachable {
            continue;
        }
        let (cs, domain, profile) = subj.system();
        let mut opts = Options::strat_partcache()
            .with_samples(8_192)
            .with_seed(37)
            .with_allocation(Allocation::ImportanceAdaptive)
            .with_target_stderr(0.0)
            .with_round_budget(8_192)
            .with_max_rounds(3);
        opts.paver.max_boxes = 128;

        let run = |analyzer: Analyzer| analyzer.analyze_iterative(&cs, &domain, &profile);
        let a = run(Analyzer::new(opts.clone()));
        let repeat = run(Analyzer::new(opts.clone()));
        assert_same_report(&a, &repeat, &format!("{}: repeat", subj.name));
        assert!(a.stats.is_factors > 0, "{}: IS must engage", subj.name);

        let cache = Arc::new(PavingCache::new());
        let reports = on_two_threads(|| {
            run(Analyzer::new(opts.clone()).with_paving_cache(Arc::clone(&cache)))
        });
        for (t, c) in reports.iter().enumerate() {
            // Only the paving-cache split depends on which thread paved.
            let lone = Stats {
                paving_cache_hits: c.stats.paving_cache_hits,
                paving_cache_misses: c.stats.paving_cache_misses,
                ..a.stats.clone()
            };
            let what = format!("{} thread {t}", subj.name);
            assert_eq!(c.estimate, a.estimate, "{what}: estimate");
            assert_eq!(c.per_pc, a.per_pc, "{what}: per-PC breakdown");
            assert_eq!(c.stats, lone, "{what}: counters");
        }
    }
}
