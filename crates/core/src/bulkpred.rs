//! The analyzer's compiled predicate: a scalar [`EvalTape`] paired with
//! its columnar [`BulkTape`], behind the process-wide predicate cache.
//!
//! Every factor the quantifier samples bottoms out in "evaluate the
//! path-condition predicate on a sample". [`CompiledPred`] carries both
//! evaluation forms — the row-oriented scalar tape (used for one-off
//! points and as the semantic reference) and the register-allocated
//! columnar tape (used by the bulk chunk executor in `qcoral-mc`, which
//! amortizes interpreter dispatch across 128-sample lane chunks) — and
//! implements [`BulkPred`] so the plan-layer samplers ride the columnar
//! path automatically.
//!
//! [`CompiledPred::compile_cached`] memoizes compilation process-wide by
//! the condition's structural fingerprint, mirroring the HC4 tape cache
//! in `qcoral-icp`: recurring factors — the workload's defining
//! redundancy, and the steady state of `qcoral-service` — compile their
//! tapes once per process instead of once per request.

use std::sync::{Arc, OnceLock};

use qcoral_constraints::{BulkTape, EvalTape, PathCondition};
use qcoral_icp::CompileCache;
use qcoral_mc::BulkPred;

/// Process-wide compiled-predicate cache, keyed by the path condition's
/// structural fingerprint (see
/// [`PathCondition::fingerprint`](qcoral_constraints::PathCondition::fingerprint)).
/// Shares the bounded [`CompileCache`] machinery with the HC4 tape
/// cache in `qcoral-icp`.
static PRED_CACHE: OnceLock<CompileCache<CompiledPred>> = OnceLock::new();

/// Cap on cached predicates; beyond it compilation still succeeds but
/// results are no longer retained (bounds memory on adversarial
/// workloads), mirroring the HC4 tape cache.
const PRED_CACHE_CAP: usize = 4096;

fn pred_cache() -> &'static CompileCache<CompiledPred> {
    PRED_CACHE.get_or_init(|| CompileCache::new_named(PRED_CACHE_CAP, "pred_cache"))
}

/// Cumulative `(hits, misses)` of the process-wide predicate cache.
/// Counters are monotone; callers wanting per-analysis numbers snapshot
/// before and after (exact when no other analysis runs concurrently in
/// the process).
pub fn pred_cache_stats() -> (u64, u64) {
    pred_cache().stats()
}

/// Name of the predicate-evaluation backend tape-compiled predicates
/// use: always `"bulk"`, the columnar interpreter. Surfaced as
/// `Stats::backend` and by the service's `status` op, whose wire
/// format keeps the field.
pub fn active_backend() -> &'static str {
    "bulk"
}

/// A factor predicate compiled for both evaluation styles: the scalar
/// row tape and the register-allocated columnar bulk tape.
///
/// Both forms are compiled from the same hash-consed node pool, apply the
/// same `f64` operations in the same order per sample, and share the
/// scalar NaN/early-exit semantics — so the [`BulkPred`] contract
/// (columnar hit counts equal row-by-row hit counts, bit for bit) holds
/// by construction and is pinned by the workspace's equivalence suites.
#[derive(Clone, Debug)]
pub struct CompiledPred {
    scalar: EvalTape,
    bulk: BulkTape,
}

impl CompiledPred {
    /// Compiles both evaluation forms for a conjunction. Linear in DAG
    /// size.
    pub fn compile(pc: &PathCondition) -> CompiledPred {
        let scalar = EvalTape::compile(pc);
        let bulk = BulkTape::compile(&scalar);
        CompiledPred { scalar, bulk }
    }

    /// Compiles through the process-wide predicate cache: structurally
    /// equal conditions share one compiled predicate across factors,
    /// path conditions, analyses, threads and service requests.
    pub fn compile_cached(pc: &PathCondition) -> Arc<CompiledPred> {
        // Fingerprinting happens outside the cache lock, like the
        // compilation itself: both can be heavy.
        let key = pc.fingerprint();
        pred_cache().get_or_compile(key, || CompiledPred::compile(pc))
    }

    /// The scalar row tape.
    pub fn scalar(&self) -> &EvalTape {
        &self.scalar
    }

    /// The columnar bulk tape.
    pub fn bulk(&self) -> &BulkTape {
        &self.bulk
    }
}

impl BulkPred for CompiledPred {
    fn holds(&self, point: &[f64]) -> bool {
        self.scalar.holds(point)
    }

    fn columnar(&self) -> bool {
        true
    }

    fn count_hits(&self, cols: &[Vec<f64>], n: usize) -> u64 {
        self.bulk.count_hits(cols, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;
    use qcoral_interval::{Interval, IntervalBox};
    use qcoral_mc::{hit_or_miss_plan, SamplePlan, ScalarPred, UsageProfile};

    fn pc_of(src: &str) -> PathCondition {
        parse_system(src).unwrap().constraint_set.pcs()[0].clone()
    }

    #[test]
    fn bulk_estimates_match_scalar_bit_for_bit() {
        let pc = pc_of(
            "var x in [-1, 1]; var y in [-1, 1];
             pc sin(3 * x + y) > 0.25 && x * x + y * y <= 0.8;",
        );
        let pred = CompiledPred::compile(&pc);
        let boxed: IntervalBox = [Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0)]
            .into_iter()
            .collect();
        let profile = UsageProfile::uniform(2);
        for n in [1u64, 4_095, 4_096, 12_345] {
            let scalar = hit_or_miss_plan(
                &ScalarPred(|p: &[f64]| pred.scalar().holds(p)),
                &boxed,
                &profile,
                n,
                SamplePlan::serial(5),
            );
            let bulk = hit_or_miss_plan(&pred, &boxed, &profile, n, SamplePlan::serial(5));
            assert_eq!(scalar, bulk, "n = {n}");
        }
    }

    #[test]
    fn cache_shares_structurally_equal_predicates() {
        // Unique constants keep this test's keys disjoint from others.
        let a = pc_of("var x in [0, 1]; pc sin(x * 0.5417261) > 0.1234987;");
        let b = pc_of("var x in [0, 1]; pc sin(x * 0.5417261) > 0.1234987;");
        let (h0, m0) = pred_cache_stats();
        let pa = CompiledPred::compile_cached(&a);
        let pb = CompiledPred::compile_cached(&b);
        assert!(Arc::ptr_eq(&pa, &pb), "separate parses share one tape");
        let (h1, m1) = pred_cache_stats();
        assert!(m1 > m0, "first compile misses");
        assert!(h1 > h0, "second compile hits");
    }
}
