//! qCORAL: compositional statistical quantification of solution spaces for
//! complex mathematical constraints — a from-scratch Rust reproduction of
//! the PLDI 2014 paper *"Compositional Solution Space Quantification for
//! Probabilistic Software Analysis"* (Borges, Filieri, d'Amorim,
//! Păsăreanu, Visser).
//!
//! Given a disjunction of path conditions `PCT` produced by symbolic
//! execution and a usage profile over a bounded floating-point input
//! domain, the analyzer estimates
//!
//! ```text
//! Pr[ input ∼ profile satisfies any PC in PCT ]   (paper Eq. 1)
//! ```
//!
//! returning a mean and a sound variance bound. Three composable
//! techniques drive the estimator variance down:
//!
//! 1. **Disjunction composition** (§4.1): path conditions are pairwise
//!    disjoint, so their estimators add; the summed variance is an upper
//!    bound (Theorem 1).
//! 2. **Conjunction decomposition** (§4.2): the variable dependency
//!    partition splits each PC into independent factors whose estimators
//!    multiply (Eq. 7–8); factors recur across PCs and are cached.
//! 3. **ICP-driven stratified sampling** (§3.3): an interval solver pavés
//!    each factor's sub-domain into boxes guaranteed to contain all
//!    solutions; sampling is stratified over the boxes (Eq. 3), and
//!    regions outside the paving (or inside *inner* boxes) contribute
//!    exact values with zero variance.
//!
//! # Quick start
//!
//! ```
//! use qcoral::{Analyzer, Options};
//! use qcoral_constraints::parse::parse_system;
//! use qcoral_mc::UsageProfile;
//!
//! // The paper's §4.4 safety-monitor example.
//! let sys = parse_system(
//!     "var altitude in [0, 20000];
//!      var headFlap in [-10, 10];
//!      var tailFlap in [-10, 10];
//!      pc altitude > 9000;
//!      pc altitude <= 9000 && sin(headFlap * tailFlap) > 0.25;",
//! ).unwrap();
//! let profile = UsageProfile::uniform(sys.domain.len());
//! let report = Analyzer::new(Options::default())
//!     .analyze(&sys.constraint_set, &sys.domain, &profile);
//! println!("P(supervisor called) = {}", report.estimate);
//! assert!((report.estimate.mean - 0.7378).abs() < 0.02);
//! ```

#![warn(missing_docs)]

pub mod analyzer;
pub mod bulkpred;
pub mod depend;
mod engine;
pub mod factor_store;

pub use analyzer::{Analyzer, Options, Report, Stats};
pub use bulkpred::{active_backend, CompiledPred};
pub use depend::{dependency_partition, UnionFind};
pub use factor_store::{FactorStore, FactorStoreEntry, InsertHook, DEFAULT_STORE_CAP};

// Re-export the pieces users need to drive the API without spelling out
// every substrate crate.
pub use qcoral_constraints::{Atom, ConstraintSet, Domain, Expr, PathCondition, RelOp, VarId};
pub use qcoral_icp::PaverConfig;
pub use qcoral_mc::{Allocation, Deadline, Estimate, UsageProfile};
pub use qcoral_obs::{Trace, TraceData};
