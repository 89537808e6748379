//! Hot-path performance trajectory: the analyzer end to end,
//! tree-walk vs compiled-tape vs columnar-bulk predicate evaluation,
//! and scalar vs bulk Monte Carlo sampling on the Table 3 multi-PC
//! workload, emitted as `BENCH_hotpath.json` so successive changes can
//! be compared run over run.

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

use qcoral::{Analyzer, CompiledPred, Options};
use qcoral_constraints::{
    BulkScratch, ConstraintSet, Domain, EvalTape, IvalScratch, PathCondition, Tri,
};
use qcoral_icp::{Paver, PaverConfig, Paving};
use qcoral_interval::{Interval, IntervalBox};
use qcoral_mc::{refine_plan, SamplePlan, ScalarPred, StratumAccum, UsageProfile};
use qcoral_subjects::table3_subjects;
use qcoral_symexec::SymConfig;

use crate::geomean;

/// One subject's hot-path measurements.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Subject name.
    pub subject: String,
    /// Number of path conditions.
    pub paths: usize,
    /// Sample budget per factor.
    pub samples: u64,
    /// Analyzer wall time (s), best of `reps`.
    pub serial_secs: f64,
    /// Whether the scalar-tape and columnar-bulk Monte Carlo estimates
    /// (full draw + evaluate pipeline, per path condition) agreed bit
    /// for bit — the bulk rows' correctness bit.
    pub bulk_estimates_identical: bool,
    /// Tree-walk predicate evaluation time for the probe batch (s).
    pub pred_tree_secs: f64,
    /// Compiled-tape predicate evaluation time for the same batch (s).
    pub pred_tape_secs: f64,
    /// `pred_tree_secs / pred_tape_secs` — the DAG-dedup win, independent
    /// of the machine's speed.
    pub pred_tape_speedup: f64,
    /// Scalar-tape predicate evaluation time over the columnar probe
    /// batch (`samples` points × every PC), row by row (s).
    pub scalar_eval_secs: f64,
    /// Columnar bulk-tape evaluation time over the same batch (s).
    pub bulk_eval_secs: f64,
    /// Scalar predicate throughput over the probe batch (samples/sec).
    pub scalar_samples_per_sec: f64,
    /// Bulk predicate throughput over the same batch (samples/sec).
    pub bulk_samples_per_sec: f64,
    /// `scalar_eval_secs / bulk_eval_secs` — the columnar win of the
    /// register-allocated slice tapes, independent of the machine's speed.
    pub bulk_eval_speedup: f64,
    /// Scalar-tape Monte Carlo wall time: draw + evaluate `samples`
    /// samples per path condition through `refine_plan` (s).
    pub mc_scalar_secs: f64,
    /// The same sampling runs through the columnar bulk path (s).
    pub mc_bulk_secs: f64,
    /// `mc_scalar_secs / mc_bulk_secs` — the end-to-end sampling win,
    /// RNG draws included.
    pub mc_bulk_speedup: f64,
    /// Reference paving wall time over every path condition (s): the
    /// pre-unified-IR architecture — one single-atom contractor per
    /// atom, each with its own tape, boxes contracted one at a time
    /// with the HC4 fixpoint loop driven from outside.
    pub pave_scalar_secs: f64,
    /// The production paver over the same workload (s): one
    /// whole-conjunction tape, work items contracted and classified in
    /// structure-of-arrays batches.
    pub pave_bulk_secs: f64,
    /// `pave_scalar_secs / pave_bulk_secs` — the bulk-paving win.
    pub pave_bulk_speedup: f64,
    /// Total boxes across the production pavings (inner + boundary).
    pub pave_boxes: usize,
}

/// Observability tax on the sampling hot path: the same end-to-end
/// analysis with `Options::trace` off (the default; every span site
/// collapses to one branch) and on (spans recorded at factor/paving/
/// round granularity). The `subject` field comes first so the perf
/// gate's line-oriented extractor scopes these metrics under
/// `obs_overhead`.
#[derive(Clone, Debug, Serialize)]
pub struct ObsOverhead {
    /// Always `"obs_overhead"` (perf-gate row key).
    pub subject: String,
    /// Sample budget per factor.
    pub samples: u64,
    /// Analyzer wall time with tracing off (s), best of `reps` — gated
    /// against the committed baseline, so instrumentation creep on the
    /// untraced path fails CI like any other hot-path regression.
    pub trace_off_secs: f64,
    /// The same analysis with `Options::trace` on (s).
    pub trace_on_secs: f64,
    /// `trace_on_secs / trace_off_secs` — the cost of *collecting* a
    /// trace, paid only by requests that opt in.
    pub trace_on_ratio: f64,
    /// Tracing must be a pure observer: traced and untraced estimates
    /// bit-identical.
    pub estimates_identical: bool,
}

/// The whole emitted document.
#[derive(Clone, Debug, Serialize)]
pub struct Summary {
    /// Sample budget per factor.
    pub samples: u64,
    /// Per-subject rows.
    pub rows: Vec<Row>,
    /// Geometric mean of the predicate-tape speedups.
    pub pred_tape_speedup_geomean: f64,
    /// Geometric mean of the columnar-bulk predicate-throughput speedups
    /// (`bulk_eval_speedup` across subjects).
    pub bulk_eval_speedup_geomean: f64,
    /// Geometric mean of the end-to-end sampling speedups
    /// (`mc_bulk_speedup` across subjects).
    pub mc_bulk_speedup_geomean: f64,
    /// Geometric mean of the bulk-paving speedups (`pave_bulk_speedup`
    /// across subjects).
    pub pave_bulk_speedup_geomean: f64,
    /// Tracing cost on the widest subject, off and on. Declared last so
    /// its `subject` scope cannot leak onto the geomean lines above in
    /// the perf gate's line-oriented extractor.
    pub obs_overhead: ObsOverhead,
}

fn best_of<R>(reps: u32, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        if dt < best {
            best = dt;
        }
        out = Some(r);
    }
    (best, out.expect("at least one rep"))
}

/// Reference paver reproducing the pre-unified-IR architecture for the
/// bulk-paving comparison: every atom gets its *own* single-atom tape,
/// the HC4 fixpoint loop runs in the driver (one pass per atom per
/// sweep), and the branch-and-prune loop pops and contracts one box at
/// a time. The production [`Paver`] runs the same policy through one
/// whole-conjunction tape with batched structure-of-arrays contraction;
/// the time ratio is the paving win.
struct LegacyPaver {
    atoms: Vec<EvalTape>,
    config: PaverConfig,
}

/// Max-heap work item ordered by box volume (largest first), matching
/// the production paver's best-first order.
struct LegacyItem {
    boxed: IntervalBox,
    volume: f64,
}

impl PartialEq for LegacyItem {
    fn eq(&self, other: &Self) -> bool {
        self.volume == other.volume
    }
}
impl Eq for LegacyItem {}
impl PartialOrd for LegacyItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LegacyItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.volume
            .partial_cmp(&other.volume)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl LegacyPaver {
    fn new(pc: &PathCondition, config: PaverConfig) -> LegacyPaver {
        let atoms = pc
            .atoms()
            .iter()
            .map(|a| EvalTape::compile(&PathCondition::from_atoms(vec![a.clone()])))
            .collect();
        LegacyPaver { atoms, config }
    }

    fn contract(
        &self,
        boxed: &mut IntervalBox,
        scratch: &mut IvalScratch,
        widths: &mut Vec<f64>,
    ) -> bool {
        for _ in 0..qcoral_icp::MAX_PASSES {
            widths.clear();
            widths.extend(boxed.dims().iter().map(Interval::width));
            for t in &self.atoms {
                if !t.contract(boxed, 1, scratch) {
                    return false;
                }
            }
            let changed = widths
                .iter()
                .zip(boxed.dims())
                .any(|(&w, d)| w - d.width() > 1e-12 * w.max(1e-300));
            if !changed {
                break;
            }
        }
        true
    }

    fn certainty(&self, boxed: &IntervalBox, scratch: &mut IvalScratch) -> Tri {
        let mut acc = Tri::True;
        for t in &self.atoms {
            acc = acc.and(t.certainty(boxed, scratch));
            if acc == Tri::False {
                return Tri::False;
            }
        }
        acc
    }

    fn pave(&self, domain: &IntervalBox) -> Paving {
        let mut scratch = IvalScratch::new();
        let mut widths = Vec::new();
        let mut paving = Paving::default();
        let mut heap = BinaryHeap::new();
        heap.push(LegacyItem {
            volume: domain.volume(),
            boxed: domain.clone(),
        });
        let min_width = self.config.min_width();
        while let Some(LegacyItem { mut boxed, .. }) = heap.pop() {
            if !self.contract(&mut boxed, &mut scratch, &mut widths) {
                continue;
            }
            match self.certainty(&boxed, &mut scratch) {
                Tri::True => {
                    paving.inner.push(boxed);
                    continue;
                }
                Tri::False => continue,
                Tri::Unknown => {}
            }
            let total = paving.len() + heap.len() + 1;
            let out_of_budget = total >= self.config.max_boxes
                || boxed.max_width() <= min_width
                || boxed.ndim() == 0;
            if !out_of_budget {
                let (l, r) = boxed.bisect();
                if l != boxed && r != boxed {
                    let lv = l.volume();
                    let rv = r.volume();
                    heap.push(LegacyItem {
                        boxed: l,
                        volume: lv,
                    });
                    heap.push(LegacyItem {
                        boxed: r,
                        volume: rv,
                    });
                    continue;
                }
            }
            paving.boundary.push(boxed);
        }
        paving
    }
}

fn measure_subject(
    name: &str,
    domain: &Domain,
    cs: &ConstraintSet,
    samples: u64,
    reps: u32,
) -> Row {
    let profile = UsageProfile::uniform(domain.len());
    let opts = Options::strat_partcache()
        .with_samples(samples)
        .with_seed(1);

    // Fresh analyzers per rep so no paving carries over (tapes never do)
    // and every rep measures the same work.
    let (serial, _) = best_of(reps, || {
        Analyzer::new(opts.clone())
            .analyze(cs, domain, &profile)
            .estimate
    });

    // Predicate probe: evaluate every PC on a fixed grid of points, tree
    // walk vs compiled tape. This is the per-sample inner loop of the
    // quantifier, so its ratio is the machine-independent hot-path win.
    let bounds: Vec<(f64, f64)> = domain.iter().map(|(_, v)| (v.lo, v.hi)).collect();
    let points: Vec<Vec<f64>> = (0..256)
        .map(|i| {
            bounds
                .iter()
                .enumerate()
                .map(|(d, &(lo, hi))| lo + (hi - lo) * ((i * 37 + d * 13) % 97) as f64 / 96.0)
                .collect()
        })
        .collect();
    let (pred_tree, hits_tree) = best_of(reps, || {
        let mut hits = 0usize;
        for pc in cs.pcs() {
            for p in &points {
                if pc.holds(p) {
                    hits += 1;
                }
            }
        }
        hits
    });
    let tapes: Vec<EvalTape> = cs.pcs().iter().map(EvalTape::compile).collect();
    let (pred_tape, hits_tape) = best_of(reps, || {
        let mut hits = 0usize;
        for t in &tapes {
            for p in &points {
                if t.holds(p) {
                    hits += 1;
                }
            }
        }
        hits
    });
    assert_eq!(hits_tree, hits_tape, "tape must agree with the tree walk");

    // Columnar probe: `samples` domain points drawn once with a fixed
    // seed, stored row-major for the scalar tape and column-major for the
    // bulk tape. Throughput is `paths × samples` predicate evaluations
    // over the measured time — the per-sample inner loop with the RNG
    // taken out, so the ratio isolates the columnar evaluation win.
    let ndim = bounds.len();
    let n = samples as usize;
    let boxed: IntervalBox = bounds
        .iter()
        .map(|&(lo, hi)| Interval::new(lo, hi))
        .collect();
    let draw = profile.draw_plan(&boxed, &boxed);
    let mut rng = SmallRng::seed_from_u64(0xB01D);
    let mut point = vec![0.0; ndim];
    let mut rows_flat: Vec<f64> = Vec::with_capacity(n * ndim);
    let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n); ndim];
    for _ in 0..n {
        assert!(draw.sample(&mut rng, &mut point));
        rows_flat.extend_from_slice(&point);
        for (d, col) in cols.iter_mut().enumerate() {
            col.push(point[d]);
        }
    }
    let preds: Vec<CompiledPred> = cs.pcs().iter().map(CompiledPred::compile).collect();
    // The columnar tapes are built on first use: build them untimed.
    for p in &preds {
        p.bulk();
    }
    let (scalar_eval, hits_scalar) = best_of(reps, || {
        let mut hits = 0u64;
        for p in &preds {
            for row in rows_flat.chunks_exact(ndim) {
                if p.scalar().holds(row) {
                    hits += 1;
                }
            }
        }
        hits
    });
    let (bulk_eval, hits_bulk) = best_of(reps, || {
        let mut scratch = BulkScratch::new();
        let mut hits = 0u64;
        for p in &preds {
            hits += p.bulk().count_hits_with(&cols, n, &mut scratch);
        }
        hits
    });
    assert_eq!(
        hits_scalar, hits_bulk,
        "bulk must agree with the scalar tape"
    );
    let evals = (cs.len() * n) as f64;

    // End-to-end sampling probe: the same hit-or-miss `refine_plan`
    // runs the analyzer performs per factor, scalar closure (gathering
    // each row of a column block) vs columnar bulk predicate — RNG
    // draws included, estimates must match bit for bit.
    let plan = SamplePlan::serial(1);
    let (mc_scalar, ests_scalar) = best_of(reps, || {
        preds
            .iter()
            .map(|p| {
                let pred = ScalarPred(|x: &[f64]| p.scalar().holds(x));
                refine_plan(&pred, &boxed, &profile, samples, plan, StratumAccum::EMPTY)
            })
            .collect::<Vec<_>>()
    });
    let (mc_bulk, ests_bulk) = best_of(reps, || {
        preds
            .iter()
            .map(|p| refine_plan(p, &boxed, &profile, samples, plan, StratumAccum::EMPTY))
            .collect::<Vec<_>>()
    });
    let bulk_estimates_identical = ests_scalar == ests_bulk;

    // Paving probe: branch-and-prune every path condition over the full
    // domain box with a budget wide enough to give batching room.
    // Reference architecture (per-atom tapes, one box at a time) vs the
    // production batched whole-conjunction paver.
    let pave_cfg = PaverConfig {
        max_boxes: 128,
        ..PaverConfig::default()
    };
    let legacy: Vec<LegacyPaver> = cs
        .pcs()
        .iter()
        .map(|pc| LegacyPaver::new(pc, pave_cfg.clone()))
        .collect();
    let pavers: Vec<Paver> = cs
        .pcs()
        .iter()
        .map(|pc| Paver::new(pc, ndim, pave_cfg.clone()))
        .collect();
    let (pave_scalar, legacy_unsat) = best_of(reps, || {
        legacy
            .iter()
            .map(|p| p.pave(&boxed).is_unsat())
            .collect::<Vec<_>>()
    });
    let (pave_bulk, bulk_pavings) = best_of(reps, || {
        pavers.iter().map(|p| p.pave(&boxed)).collect::<Vec<_>>()
    });
    // Both pavers must agree on satisfiability — the pavings themselves
    // legitimately differ (the unified tape contracts the conjunction
    // jointly, the reference one atom at a time).
    for (pc_idx, (lu, bp)) in legacy_unsat.iter().zip(&bulk_pavings).enumerate() {
        assert_eq!(
            *lu,
            bp.is_unsat(),
            "{name}: pavers disagree on satisfiability of pc {pc_idx}"
        );
    }
    let pave_boxes = bulk_pavings.iter().map(Paving::len).sum();

    Row {
        subject: name.to_owned(),
        paths: cs.len(),
        samples,
        serial_secs: serial.as_secs_f64(),
        bulk_estimates_identical,
        pred_tree_secs: pred_tree.as_secs_f64(),
        pred_tape_secs: pred_tape.as_secs_f64(),
        pred_tape_speedup: pred_tree.as_secs_f64() / pred_tape.as_secs_f64().max(1e-12),
        scalar_eval_secs: scalar_eval.as_secs_f64(),
        bulk_eval_secs: bulk_eval.as_secs_f64(),
        scalar_samples_per_sec: evals / scalar_eval.as_secs_f64().max(1e-12),
        bulk_samples_per_sec: evals / bulk_eval.as_secs_f64().max(1e-12),
        bulk_eval_speedup: scalar_eval.as_secs_f64() / bulk_eval.as_secs_f64().max(1e-12),
        mc_scalar_secs: mc_scalar.as_secs_f64(),
        mc_bulk_secs: mc_bulk.as_secs_f64(),
        mc_bulk_speedup: mc_scalar.as_secs_f64() / mc_bulk.as_secs_f64().max(1e-12),
        pave_scalar_secs: pave_scalar.as_secs_f64(),
        pave_bulk_secs: pave_bulk.as_secs_f64(),
        pave_bulk_speedup: pave_scalar.as_secs_f64() / pave_bulk.as_secs_f64().max(1e-12),
        pave_boxes,
    }
}

/// Measures the tracing tax on the widest Table 3 subject (EGFR EPI,
/// 41 path conditions — the most span sites per analysis).
fn measure_obs_overhead(samples: u64, reps: u32) -> ObsOverhead {
    let subjects = table3_subjects();
    let subj = subjects
        .iter()
        .find(|s| s.name == "EGFR EPI")
        .expect("subject exists");
    let (domain, cs) = subj.system_for(0, &SymConfig::default());
    let profile = UsageProfile::uniform(domain.len());
    let opts = Options::strat_partcache()
        .with_samples(samples)
        .with_seed(1);
    let (off, est_off) = best_of(reps, || {
        Analyzer::new(opts.clone())
            .analyze(&cs, &domain, &profile)
            .estimate
    });
    let (on, est_on) = best_of(reps, || {
        Analyzer::new(opts.clone().with_trace(true))
            .analyze(&cs, &domain, &profile)
            .estimate
    });
    ObsOverhead {
        subject: "obs_overhead".to_string(),
        samples,
        trace_off_secs: off.as_secs_f64(),
        trace_on_secs: on.as_secs_f64(),
        trace_on_ratio: on.as_secs_f64() / off.as_secs_f64().max(1e-12),
        estimates_identical: est_off == est_on,
    }
}

/// Runs the hot-path protocol over every multi-PC Table 3 subject.
pub fn run(samples: u64, reps: u32) -> Summary {
    let mut rows = Vec::new();
    for subj in table3_subjects() {
        let (domain, cs) = subj.system_for(0, &SymConfig::default());
        if cs.is_empty() {
            continue;
        }
        rows.push(measure_subject(subj.name, &domain, &cs, samples, reps));
    }
    Summary {
        samples,
        pred_tape_speedup_geomean: geomean(rows.iter().map(|r| r.pred_tape_speedup)),
        bulk_eval_speedup_geomean: geomean(rows.iter().map(|r| r.bulk_eval_speedup)),
        mc_bulk_speedup_geomean: geomean(rows.iter().map(|r| r.mc_bulk_speedup)),
        pave_bulk_speedup_geomean: geomean(rows.iter().map(|r| r.pave_bulk_speedup)),
        obs_overhead: measure_obs_overhead(samples, reps),
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
    fn emits_consistent_rows() {
        let s = run(500, 1);
        assert!(!s.rows.is_empty());
        for r in &s.rows {
            assert!(
                r.bulk_estimates_identical,
                "{}: bulk sampling diverged from the scalar tape",
                r.subject
            );
            assert!(r.serial_secs > 0.0 && r.pred_tape_secs > 0.0);
            assert!(r.bulk_eval_secs > 0.0 && r.mc_bulk_secs > 0.0);
            assert!(r.bulk_samples_per_sec > 0.0 && r.scalar_samples_per_sec > 0.0);
            assert!(r.pave_scalar_secs > 0.0 && r.pave_bulk_secs > 0.0);
        }
        // EGFR EPI's whole-conjunction pavings are all unsat over the full
        // domain box, so its row legitimately reports zero boxes; the
        // corpus as a whole must still produce non-empty pavings.
        let total_boxes: usize = s.rows.iter().map(|r| r.pave_boxes).sum();
        assert!(total_boxes > 0, "no subject produced a non-empty paving");
        assert!(s.pred_tape_speedup_geomean > 0.0);
        assert!(s.bulk_eval_speedup_geomean > 0.0);
        assert!(s.pave_bulk_speedup_geomean > 0.0);
        assert!(
            s.obs_overhead.estimates_identical,
            "tracing changed an estimate"
        );
        assert!(s.obs_overhead.trace_off_secs > 0.0 && s.obs_overhead.trace_on_secs > 0.0);
        let json = serde_json::to_string_pretty(&s).unwrap();
        assert!(json.contains("\"pred_tape_speedup\""));
        assert!(json.contains("\"bulk_eval_speedup\""));
        assert!(json.contains("\"bulk_estimates_identical\""));
        assert!(json.contains("\"pave_bulk_speedup\""));
        assert!(json.contains("\"subject\": \"obs_overhead\""));
        assert!(json.contains("\"trace_off_secs\""));
    }
}
