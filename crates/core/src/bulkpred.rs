//! The analyzer's compiled conjunction, [`CompiledPred`].
//!
//! Every factor the quantifier paves and samples is one conjunction,
//! compiled once into one artifact: its scalar [`EvalTape`], whose node
//! pool the paver's interval kind also runs over, plus the
//! register-allocated columnar [`BulkTape`], built the first time the
//! factor is sampled (the chunk executor in `qcoral-mc` hands it
//! 128-sample column blocks, amortizing interpreter dispatch).
//! [`CompiledPred`] implements [`BulkPred`] by counting each block on
//! the bulk tape.
//!
//! The engine compiles each distinct conjunction of a run at most once
//! and shares the artifact among the run's factors; nothing outlives the
//! run.

use std::sync::{Arc, OnceLock};

use qcoral_constraints::{BulkTape, EvalTape, PathCondition};
use qcoral_mc::BulkPred;

/// Name of the predicate-evaluation backend tape-compiled predicates
/// use: always `"bulk"`, the columnar interpreter. Surfaced as
/// `Stats::backend` and by the service's `status` op, whose wire
/// format keeps the field.
pub fn active_backend() -> &'static str {
    "bulk"
}

/// A compiled conjunction: the scalar row tape and, once the factor is
/// sampled, the register-allocated columnar bulk tape.
///
/// Both forms come from the same hash-consed node pool, apply the same
/// `f64` operations in the same order per sample, and share the scalar
/// NaN/early-exit semantics — so the [`BulkPred`] contract (columnar hit
/// counts equal row-by-row hit counts, bit for bit) holds by
/// construction and is pinned by the workspace's equivalence suites.
#[derive(Debug)]
pub struct CompiledPred {
    scalar: Arc<EvalTape>,
    bulk: OnceLock<BulkTape>,
}

impl CompiledPred {
    /// Compiles the scalar tape of a conjunction. Linear in DAG size.
    pub fn compile(pc: &PathCondition) -> CompiledPred {
        CompiledPred {
            scalar: Arc::new(EvalTape::compile(pc)),
            bulk: OnceLock::new(),
        }
    }

    /// The scalar row tape, whose node pool the paver shares.
    pub fn scalar(&self) -> &Arc<EvalTape> {
        &self.scalar
    }

    /// The columnar bulk tape, compiled from the scalar tape on the first
    /// call.
    pub fn bulk(&self) -> &BulkTape {
        self.bulk.get_or_init(|| BulkTape::compile(&self.scalar))
    }
}

impl BulkPred for CompiledPred {
    fn holds(&self, point: &[f64]) -> bool {
        self.scalar.holds(point)
    }

    fn count_hits(&self, cols: &[Vec<f64>], n: usize) -> u64 {
        self.bulk().count_hits(cols, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;
    use qcoral_interval::{Interval, IntervalBox};
    use qcoral_mc::{refine_plan, SamplePlan, ScalarPred, StratumAccum, UsageProfile};

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
        let plan = SamplePlan::serial(5);
        for n in [1u64, 4_095, 4_096, 12_345] {
            let scalar = refine_plan(
                &ScalarPred(|p: &[f64]| pred.scalar().holds(p)),
                &boxed,
                &profile,
                n,
                plan,
                StratumAccum::EMPTY,
            );
            let bulk = refine_plan(&pred, &boxed, &profile, n, plan, StratumAccum::EMPTY);
            assert_eq!(scalar, bulk, "n = {n}");
        }
    }
}
