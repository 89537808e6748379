//! Interval constraint propagation (ICP): the reproduction's substitute
//! for RealPaver [Granvilliers & Benhamou, 2006], which the paper uses as
//! an off-the-shelf component (§2.2, §5).
//!
//! Contract (matching the paper's description of RealPaver): given a
//! conjunction of (possibly non-linear) constraints over a bounded box,
//! produce a set of non-overlapping boxes whose union **contains all
//! solutions**. Boxes are classified as
//!
//! * *inner* — every point satisfies the constraints (the paper's "tight"
//!   boxes; sampling them is unnecessary: mean 1, variance 0), or
//! * *boundary* — may contain both solutions and non-solutions (the
//!   paper's "loose" boxes; these are sampled).
//!
//! The solver mirrors RealPaver's knobs (§5): a bound on the number of
//! boxes reported per query (paper: 10), a precision bound in decimal
//! digits (paper: 3), and a time budget per query (paper: 2 s) — see
//! [`PaverConfig`].
//!
//! The algorithm is the classical branch-and-prune loop over an HC4
//! contractor: forward interval evaluation of each constraint's expression
//! DAG, backward projection narrowing, fixpoint iteration over all
//! conjuncts, then bisection of undecided boxes until a stop criterion
//! fires ([`pave`]). Contraction and certainty are methods of the
//! compiled conjunction, [`EvalTape`] (`EvalTape::contract_classify`);
//! [`Paver`] is the one branch-and-prune loop around them.
//!
//! # Example
//!
//! ```
//! use qcoral_constraints::parse::parse_system;
//! use qcoral_icp::{domain_box, pave, PaverConfig};
//!
//! let sys = parse_system("var x in [-1, 1]; var y in [-1, 1];
//!                         pc x <= -y && y <= x;").unwrap();
//! let dom = domain_box(&sys.domain);
//! let paving = pave(&sys.constraint_set.pcs()[0], &dom, &PaverConfig::default());
//! // All solutions of the triangle are covered by the paving.
//! assert!(paving.all_boxes().count() > 0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod paver;

pub use cache::{batch_lru_cutoff, LruCache};
pub use paver::{pave, Paver, PaverConfig, Paving, PavingCache};

use qcoral_constraints::{Domain, EvalTape, IvalScratch, PathCondition};
use qcoral_interval::{Interval, IntervalBox};

/// Converts a [`Domain`] into the corresponding [`IntervalBox`].
pub fn domain_box(domain: &Domain) -> IntervalBox {
    domain
        .iter()
        .map(|(_, v)| Interval::new(v.lo, v.hi))
        .collect()
}

/// Quick satisfiability filter used by the symbolic executor: returns
/// `false` only if interval propagation *proves* the conjunction has no
/// solution inside `boxed`. A `true` answer means "possibly satisfiable".
pub fn maybe_satisfiable(pc: &PathCondition, boxed: &IntervalBox) -> bool {
    let mut b = boxed.clone();
    EvalTape::compile(pc).contract(&mut b, 8, &mut IvalScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;

    #[test]
    fn domain_box_roundtrip() {
        let sys = parse_system("var a in [0, 1]; var b in [-2, 3];").unwrap();
        let b = domain_box(&sys.domain);
        assert_eq!(b.ndim(), 2);
        assert_eq!(b[0], Interval::new(0.0, 1.0));
        assert_eq!(b[1], Interval::new(-2.0, 3.0));
    }

    #[test]
    fn maybe_satisfiable_prunes_contradictions() {
        let sys = parse_system("var x in [0, 1]; pc x > 0.5 && x < 0.2;").unwrap();
        let dom = domain_box(&sys.domain);
        assert!(!maybe_satisfiable(&sys.constraint_set.pcs()[0], &dom));
    }

    #[test]
    fn maybe_satisfiable_keeps_feasible() {
        let sys = parse_system("var x in [0, 1]; pc x > 0.5 && x < 0.7;").unwrap();
        let dom = domain_box(&sys.domain);
        assert!(maybe_satisfiable(&sys.constraint_set.pcs()[0], &dom));
    }
}
