//! Engine reports, pinned.
//!
//! `tests/golden/engine.txt` records what `Analyzer::analyze` and
//! `Analyzer::analyze_iterative` return over a matrix of subjects and
//! configurations. One line per (subject, config, schedule, phase) holds
//! the bits of the estimate and of every per-PC estimate, plus every
//! `Stats` counter except `backend` and the two `tape_cache_*` fields.
//!
//! The matrix:
//!
//! * subjects: the Table 3 subjects with target PCs at assertion 0 and
//!   the non-uniform profiled subjects, at 1 000 samples;
//! * one-shot configs: `plain`; `strat` under each allocation; `strat`
//!   with partitioning but no cache; `strat_partcache` under each
//!   allocation;
//! * iterative configs: `strat_partcache` under each allocation, with
//!   target 0, three rounds and a round budget of `samples`;
//! * the rare-event subjects, one-shot and iterative under
//!   `ImportanceAdaptive`, at 4 096 samples on 128-box pavings.
//!
//! Every row attaches a fresh `FactorStore`; rows with `Options::cache`
//! on are repeated warm through it (`phase` `cold`, then `warm`). The
//! matrix runs one row at a time, and again with its rows split between
//! two threads that run at once, each row on its own analyzer and store;
//! both must reproduce the golden file line for line.

use std::sync::Arc;

use qcoral::{Analyzer, FactorStore, Options, Report};
use qcoral_constraints::{ConstraintSet, Domain};
use qcoral_mc::{Allocation, UsageProfile};
use qcoral_subjects::{nonuniform_subjects, rare_subjects, table3_subjects};
use qcoral_symexec::SymConfig;

const ALLOCATIONS: [(&str, Allocation); 4] = [
    ("equal", Allocation::EqualPerStratum),
    ("proportional", Allocation::Proportional),
    ("variance", Allocation::VarianceAdaptive),
    ("importance", Allocation::ImportanceAdaptive),
];

struct Subject {
    name: String,
    cs: ConstraintSet,
    domain: Domain,
    profile: UsageProfile,
}

#[derive(Clone, Copy)]
enum Schedule {
    OneShot,
    Iterative,
}

impl Schedule {
    fn label(self) -> &'static str {
        match self {
            Schedule::OneShot => "one_shot",
            Schedule::Iterative => "iterative",
        }
    }

    fn run(self, analyzer: &Analyzer, s: &Subject) -> Report {
        match self {
            Schedule::OneShot => analyzer.analyze(&s.cs, &s.domain, &s.profile),
            Schedule::Iterative => analyzer.analyze_iterative(&s.cs, &s.domain, &s.profile),
        }
    }
}

fn iterative(opts: Options) -> Options {
    let samples = opts.samples;
    opts.with_target_stderr(0.0)
        .with_max_rounds(3)
        .with_round_budget(samples)
}

/// The Table 3 (assertion 0) and non-uniform subjects.
fn profiled_subjects() -> Vec<Subject> {
    let mut out = Vec::new();
    for s in table3_subjects() {
        let (domain, cs) = s.system_for(0, &SymConfig::default());
        if cs.is_empty() {
            continue;
        }
        let profile = UsageProfile::uniform(domain.len());
        out.push(Subject {
            name: s.name.to_string(),
            cs,
            domain,
            profile,
        });
    }
    for s in nonuniform_subjects() {
        let (domain, cs, profile) = s.system(&SymConfig::default());
        out.push(Subject {
            name: s.name.to_string(),
            cs,
            domain,
            profile,
        });
    }
    out
}

/// The configurations run over every profiled subject.
fn configs() -> Vec<(String, Options, Schedule)> {
    let base = |o: Options| o.with_samples(1_000);
    let mut out = vec![(
        "plain".to_string(),
        base(Options::plain()),
        Schedule::OneShot,
    )];
    for (tag, a) in ALLOCATIONS {
        out.push((
            format!("strat/{tag}"),
            base(Options::strat()).with_allocation(a),
            Schedule::OneShot,
        ));
    }
    let mut partitioned = base(Options::strat());
    partitioned.partition = true;
    out.push((
        "strat_partition".to_string(),
        partitioned,
        Schedule::OneShot,
    ));
    for (tag, a) in ALLOCATIONS {
        out.push((
            format!("strat_partcache/{tag}"),
            base(Options::strat_partcache()).with_allocation(a),
            Schedule::OneShot,
        ));
    }
    for (tag, a) in ALLOCATIONS {
        out.push((
            format!("strat_partcache/{tag}"),
            iterative(base(Options::strat_partcache()).with_allocation(a)),
            Schedule::Iterative,
        ));
    }
    out
}

fn bits(e: &qcoral::Estimate) -> String {
    format!("{:016x}/{:016x}", e.mean.to_bits(), e.variance.to_bits())
}

fn line(name: &str, config: &str, schedule: Schedule, phase: &str, r: &Report) -> String {
    let s = &r.stats;
    let per_pc: Vec<String> = r.per_pc.iter().map(bits).collect();
    format!(
        "{name}|{config}|{}|{phase}|est={}|pcs=[{}]|cache={}/{}|boxes={}/{}|pavings={}\
         |paving_cache={}/{}|store={}/{}|samples={}|rounds={}|refine={}|target_met={}\
         |is={}/{}|deadline={}",
        schedule.label(),
        bits(&r.estimate),
        per_pc.join(","),
        s.cache_hits,
        s.cache_misses,
        s.inner_boxes,
        s.boundary_boxes,
        s.pavings,
        s.paving_cache_hits,
        s.paving_cache_misses,
        s.factor_store_hits,
        s.factor_store_misses,
        s.samples_drawn,
        s.rounds,
        s.refine_samples,
        s.target_met,
        s.is_factors,
        s.is_fallbacks,
        s.deadline_exceeded,
    )
}

/// One matrix row: a subject (an index into the subject list) under one
/// configuration and schedule.
struct Row {
    subject: usize,
    config: String,
    opts: Options,
    schedule: Schedule,
}

/// The matrix's subjects and its rows, in golden-file order.
fn matrix() -> (Vec<Subject>, Vec<Row>) {
    let mut subjects = profiled_subjects();
    let mut rows = Vec::new();
    let configs = configs();
    for subject in 0..subjects.len() {
        for (config, opts, schedule) in &configs {
            rows.push(Row {
                subject,
                config: config.clone(),
                opts: opts.clone(),
                schedule: *schedule,
            });
        }
    }
    for r in rare_subjects() {
        let (cs, domain, profile) = r.system();
        subjects.push(Subject {
            name: r.name.to_string(),
            cs,
            domain,
            profile,
        });
        let mut opts = Options::strat_partcache()
            .with_samples(4_096)
            .with_allocation(Allocation::ImportanceAdaptive);
        opts.paver.max_boxes = 128;
        for (opts, schedule) in [
            (opts.clone(), Schedule::OneShot),
            (iterative(opts), Schedule::Iterative),
        ] {
            rows.push(Row {
                subject: subjects.len() - 1,
                config: "rare".to_string(),
                opts,
                schedule,
            });
        }
    }
    (subjects, rows)
}

/// Runs one row cold (and, with the cache on, warm) on its own analyzer
/// and store, and returns its lines.
fn row_lines(subjects: &[Subject], row: &Row) -> Vec<String> {
    let s = &subjects[row.subject];
    let store = Arc::new(FactorStore::new(1 << 16));
    let analyzer = || Analyzer::new(row.opts.clone()).with_factor_store(Arc::clone(&store));
    let cold = row.schedule.run(&analyzer(), s);
    let mut out = vec![line(&s.name, &row.config, row.schedule, "cold", &cold)];
    if row.opts.cache {
        let warm = row.schedule.run(&analyzer(), s);
        out.push(line(&s.name, &row.config, row.schedule, "warm", &warm));
    }
    out
}

fn check(actual: Vec<String>, what: &str) {
    let golden = include_str!("golden/engine.txt");
    let expected: Vec<&str> = golden.lines().collect();
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "{what}: golden line {}", i + 1);
    }
    assert_eq!(actual.len(), expected.len(), "{what}: golden line count");
}

#[test]
fn serial_reports_match_golden() {
    let (subjects, rows) = matrix();
    let lines = rows.iter().flat_map(|row| row_lines(&subjects, row));
    check(lines.collect(), "one row at a time");
}

/// Two threads take alternate rows, so neighbouring rows (the same
/// subject under neighbouring configurations) run at the same time.
#[test]
fn concurrent_reports_match_golden() {
    let (subjects, rows) = matrix();
    let mut per_row = vec![Vec::new(); rows.len()];
    std::thread::scope(|scope| {
        let (subjects, rows) = (&subjects, &rows);
        let workers = [0, 1].map(|t| {
            scope.spawn(move || {
                let mine = (t..rows.len()).step_by(2);
                mine.map(|i| (i, row_lines(subjects, &rows[i])))
                    .collect::<Vec<_>>()
            })
        });
        for worker in workers {
            for (i, lines) in worker.join().unwrap() {
                per_row[i] = lines;
            }
        }
    });
    check(per_row.concat(), "two threads");
}
