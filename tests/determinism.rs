//! Determinism of the parallel hot path: for a fixed seed, the parallel
//! analyzer must return the *bit-identical* estimate of the serial
//! analyzer on every VolComp-suite subject — the contract that makes
//! rayon fan-out safe to enable by default.
//!
//! Three properties are pinned down:
//!
//! 1. serial(seed) == serial(seed)   (repeatability)
//! 2. serial(seed) == parallel(seed) (schedule independence)
//! 3. the per-PC breakdown matches, not just the total (no compensating
//!    errors across path conditions).

use std::sync::{Arc, Barrier};

use qcoral::{Analyzer, CompiledPred, FactorStore, Options};
use qcoral_constraints::parse::parse_system;
use qcoral_icp::{domain_box, PavingCache};
use qcoral_interval::IntervalBox;
use qcoral_mc::{
    initial_allocation, mix_seed, refine_plan, Allocation, BulkPred, Estimate, SamplePlan,
    ScalarPred, Strata, Stratum, StratumAccum, UsageProfile,
};
use qcoral_subjects::{nonuniform_subjects, rare_subjects, table3_subjects};
use qcoral_symexec::SymConfig;

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
        let a = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
        let b = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
        assert_eq!(
            a.estimate, b.estimate,
            "{name}[{idx}]: serial runs disagree"
        );
        // Nothing carries over between runs, the tape split included.
        assert_eq!(a.stats, b.stats, "{name}[{idx}]: serial counters disagree");
        let c = Analyzer::new(opts.with_parallel(true)).analyze(&cs, &domain, &profile);
        assert_eq!(
            a.estimate, c.estimate,
            "{name}[{idx}]: parallel vs serial estimate"
        );
        assert_eq!(
            a.per_pc, c.per_pc,
            "{name}[{idx}]: per-PC breakdown differs"
        );
        assert_eq!(
            a.stats, c.stats,
            "{name}[{idx}]: parallel vs serial counters"
        );
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
/// chunked hit-or-miss path directly.
#[test]
fn plain_config_parallel_matches_serial() {
    let subjects = table3_subjects();
    let subj = subjects.iter().find(|s| s.name == "ATRIAL").unwrap();
    let (domain, cs) = subj.system_for(0, &SymConfig::default());
    let profile = UsageProfile::uniform(domain.len());
    let opts = Options::plain().with_samples(50_000).with_seed(5);
    let a = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
    let b = Analyzer::new(opts.with_parallel(true)).analyze(&cs, &domain, &profile);
    assert_eq!(a.estimate, b.estimate);
}

/// The iterative engine's contract over the VolComp suite: for a fixed
/// seed and fixed iterative knobs,
///
/// 1. repeated runs are bit-identical (repeatability),
/// 2. serial and parallel runs agree bit-for-bit — including the round
///    count, since every reallocation decision is a pure function of
///    deterministic estimates (schedule independence), and
/// 3. a *warm restart* through a snapshotted `FactorStore` recomposes
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
        assert_eq!(
            a.estimate, b.estimate,
            "{}: repeat runs disagree",
            subj.name
        );
        assert_eq!(a.per_pc, b.per_pc, "{}: per-PC repeat differs", subj.name);

        let c = Analyzer::new(opts.clone().with_parallel(true))
            .analyze_iterative(&cs, &domain, &profile);
        assert_eq!(a.estimate, c.estimate, "{}: parallel vs serial", subj.name);
        assert_eq!(a.per_pc, c.per_pc, "{}: per-PC parallel differs", subj.name);
        assert_eq!(
            a.stats.rounds, c.stats.rounds,
            "{}: parallel round trajectory differs",
            subj.name
        );
        assert_eq!(
            a.stats.samples_drawn, c.stats.samples_drawn,
            "{}",
            subj.name
        );

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
/// 1. repeated runs are bit-identical (the continuous inverse-CDF
///    sampler and the profile-aligned stratifier are deterministic),
/// 2. serial and parallel runs agree bit-for-bit, and
/// 3. a warm restart through a snapshot-absorbed `FactorStore`
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
        assert_eq!(
            a.estimate, b.estimate,
            "{}: repeat runs disagree",
            subj.name
        );

        let c = Analyzer::new(opts.clone().with_parallel(true)).analyze(&cs, &domain, &profile);
        assert_eq!(a.estimate, c.estimate, "{}: parallel vs serial", subj.name);
        assert_eq!(a.per_pc, c.per_pc, "{}: per-PC breakdown", subj.name);

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
/// default `count_hits`) or the compiled columnar `BulkPred` — serial
/// and parallel, plain hit-or-miss and stratified composition alike. (The analyzer rides the bulk path
/// unconditionally, so together with the serial/parallel and
/// warm-restart suites above — which CI runs under
/// `RAYON_NUM_THREADS=1` and `=4` — this pins the whole chain: bulk ==
/// scalar == parallel == warm restart.)
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
            let par = hit_or_miss(
                &pred,
                &boxed,
                &profile,
                3_000,
                SamplePlan::parallel(mix_seed(97, i as u64)),
            );
            assert_eq!(scalar, par, "{}[pc {i}]: parallel bulk diverged", subj.name);

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
/// no instrumented path branches on a span's value. Checked serial and
/// parallel (the CI matrix reruns this at RAYON_NUM_THREADS=1 and 4),
/// one-shot and iterative; the traced runs must actually produce spans,
/// the untraced ones none.
#[test]
fn tracing_never_perturbs_estimates() {
    for subj in table3_subjects() {
        let (domain, cs) = subj.system_for(0, &SymConfig::default());
        if cs.is_empty() {
            continue;
        }
        let profile = UsageProfile::uniform(domain.len());
        for parallel in [false, true] {
            let opts = Options::strat_partcache()
                .with_samples(2_000)
                .with_seed(41)
                .with_parallel(parallel);
            let off = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
            let on = Analyzer::new(opts.clone().with_trace(true)).analyze(&cs, &domain, &profile);
            assert_eq!(
                off.estimate, on.estimate,
                "{} parallel={parallel}: tracing changed the estimate",
                subj.name
            );
            assert_eq!(
                off.per_pc, on.per_pc,
                "{} parallel={parallel}: tracing changed the per-PC breakdown",
                subj.name
            );
            assert_eq!(
                off.stats, on.stats,
                "{} parallel={parallel}: tracing changed the counters",
                subj.name
            );
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
            assert_eq!(
                i_off.estimate, i_on.estimate,
                "{} parallel={parallel}: tracing changed the iterative estimate",
                subj.name
            );
            assert_eq!(i_off.per_pc, i_on.per_pc, "{}", subj.name);
            assert_eq!(
                i_off.stats, i_on.stats,
                "{} parallel={parallel}: tracing changed the round trajectory",
                subj.name
            );
            assert!(i_on.trace.is_some(), "iterative traced run returns spans");
        }
    }
}

/// Schedule independence of the *counters*, not just the estimates: on
/// the subjects whose path conditions share factors (ATRIAL, EGFR EPI),
/// a factor key is paved and sampled once per run however the PCs race
/// for it, so parallel `Stats` equal serial `Stats` on every repetition.
///
/// The check needs real fan-out, so the test re-runs itself in a child
/// process with `RAYON_NUM_THREADS=4` (writing the variable in this
/// process would race sibling tests reading it).
#[test]
fn shared_factors_are_computed_once_under_parallel() {
    const NAME: &str = "shared_factors_are_computed_once_under_parallel";
    if std::env::var("RAYON_NUM_THREADS").as_deref() != Ok("4") {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([NAME, "--exact", "--test-threads=1"])
            .env("RAYON_NUM_THREADS", "4")
            .output()
            .expect("re-run the test binary");
        assert!(
            out.status.success(),
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
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
            let serial = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
            shared_hits += serial.stats.cache_hits;
            for rep in 0..20 {
                let par =
                    Analyzer::new(opts.clone().with_parallel(true)).analyze(&cs, &domain, &profile);
                assert_eq!(par.estimate, serial.estimate, "{name}[{idx}] rep {rep}");
                assert_eq!(par.per_pc, serial.per_pc, "{name}[{idx}] rep {rep}");
                assert_eq!(
                    par.stats, serial.stats,
                    "{name}[{idx}] rep {rep}: counters depend on the schedule"
                );
            }
        }
        assert!(shared_hits > 0, "{name}: no PCs share a factor");
    }
}

/// Two factors over different boxes share one conjunction, so one
/// compile: under `parallel = true` both slots reach the tape at once,
/// and the run's single-flight tape slot charges exactly one miss and
/// one hit whichever thread gets there first (the CI matrix reruns this
/// at RAYON_NUM_THREADS=1 and 4).
#[test]
fn factors_sharing_a_conjunction_compile_it_once() {
    let sys = parse_system(
        "var x in [0, 1]; var y in [0, 2]; pc sin(x) < 0.4472135 && sin(y) < 0.4472135;",
    )
    .unwrap();
    let profile = UsageProfile::uniform(2);
    let opts = Options::strat_partcache()
        .with_samples(2_000)
        .with_parallel(true);
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
/// rename) — must recover warm answers bit-for-bit from the WAL alone,
/// serial and parallel alike (the CI matrix additionally runs this at
/// RAYON_NUM_THREADS=1 and 4).
#[test]
fn recovery_is_bit_identical() {
    let subjects = table3_subjects();
    let subj = subjects.iter().find(|s| s.name == "VOL").unwrap();
    let (domain, cs) = subj.system_for(0, &SymConfig::default());
    let profile = UsageProfile::uniform(domain.len());
    for parallel in [false, true] {
        let path = std::env::temp_dir().join(format!(
            "qcoral-recovery-{}-{parallel}.json",
            std::process::id()
        ));
        let wal = qcoral_service::store::wal_path(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);
        let opts = Options::strat_partcache()
            .with_samples(2_000)
            .with_seed(23)
            .with_parallel(parallel);

        let store = qcoral_service::PersistentStore::open(Some(path.clone()), 4096);
        let cold = Analyzer::new(opts.clone())
            .with_factor_store(Arc::clone(store.factor_store()))
            .analyze(&cs, &domain, &profile);
        assert!(cold.stats.samples_drawn > 0, "cold run must sample");
        // Crash simulation: the process dies before any save() — all
        // that reached disk is the WAL, plus a torn tmp of a snapshot
        // whose rename never happened.
        std::fs::write(path.with_extension("tmp"), "{\"version\": 2, \"entr").unwrap();
        drop(store);
        assert!(!path.exists(), "no snapshot must exist pre-recovery");
        assert!(wal.exists(), "the WAL is the only durable artifact");

        let store2 = qcoral_service::PersistentStore::open(Some(path.clone()), 4096);
        let report = store2.recovery_report().clone();
        assert!(report.recovered(), "parallel={parallel}: WAL recovery");
        assert!(report.wal_replayed_entries > 0);
        assert_eq!(report.wal_corrupt_entries, 0, "clean WAL, zero loss");
        let warm = Analyzer::new(opts)
            .with_factor_store(Arc::clone(store2.factor_store()))
            .analyze(&cs, &domain, &profile);
        assert_eq!(
            warm.estimate, cold.estimate,
            "parallel={parallel}: recovered estimate diverged"
        );
        assert_eq!(warm.per_pc, cold.per_pc);
        assert_eq!(warm.stats.samples_drawn, 0, "recovery must be fully warm");
        assert_eq!(warm.stats.pavings, 0);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(path.with_extension("tmp"));
    }
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
/// 1. repeated runs are bit-identical (the counter-derived proposal
///    RNG and the fixed chunk-fold reduction order leave nothing to the
///    schedule),
/// 2. serial and parallel runs agree bit-for-bit — the CI matrix
///    reruns this at `RAYON_NUM_THREADS=1` and `=4` — and
/// 3. a warm restart through a snapshot-absorbed `FactorStore`
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
        let b = Analyzer::new(opts.clone())
            .with_paving_cache(Arc::clone(&cache))
            .analyze(&cs, &domain, &profile);
        assert_eq!(a.estimate, b.estimate, "{}: repeat runs", subj.name);
        assert_eq!(a.per_pc, b.per_pc, "{}: per-PC repeat", subj.name);
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

        let c = Analyzer::new(opts.clone().with_parallel(true))
            .with_paving_cache(Arc::clone(&cache))
            .analyze(&cs, &domain, &profile);
        assert_eq!(a.estimate, c.estimate, "{}: parallel vs serial", subj.name);
        assert_eq!(a.per_pc, c.per_pc, "{}: per-PC parallel", subj.name);
        assert_eq!(
            a.stats.is_factors, c.stats.is_factors,
            "{}: escalation decisions must not depend on the schedule",
            subj.name
        );

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
/// bit-identical across repeats and schedules — every escalation
/// decision is a pure function of deterministic round estimates.
#[test]
fn iterative_importance_sampling_matches_across_schedules() {
    for subj in rare_subjects() {
        if !subj.is_reachable {
            continue;
        }
        let (cs, domain, profile) = subj.system();
        let cache = Arc::new(PavingCache::new());
        let mut opts = Options::strat_partcache()
            .with_samples(8_192)
            .with_seed(37)
            .with_allocation(Allocation::ImportanceAdaptive)
            .with_target_stderr(0.0)
            .with_round_budget(8_192)
            .with_max_rounds(3);
        opts.paver.max_boxes = 128;

        let a = Analyzer::new(opts.clone())
            .with_paving_cache(Arc::clone(&cache))
            .analyze_iterative(&cs, &domain, &profile);
        let b = Analyzer::new(opts.clone())
            .with_paving_cache(Arc::clone(&cache))
            .analyze_iterative(&cs, &domain, &profile);
        assert_eq!(a.estimate, b.estimate, "{}: repeat runs", subj.name);
        assert!(a.stats.is_factors > 0, "{}: IS must engage", subj.name);

        let c = Analyzer::new(opts.with_parallel(true))
            .with_paving_cache(Arc::clone(&cache))
            .analyze_iterative(&cs, &domain, &profile);
        assert_eq!(a.estimate, c.estimate, "{}: parallel vs serial", subj.name);
        assert_eq!(a.per_pc, c.per_pc, "{}: per-PC parallel", subj.name);
        assert_eq!(
            a.stats.rounds, c.stats.rounds,
            "{}: round trajectory differs",
            subj.name
        );
        assert_eq!(
            a.stats.samples_drawn, c.stats.samples_drawn,
            "{}",
            subj.name
        );
    }
}
