//! Constraint intermediate representation for the qCORAL reproduction.
//!
//! The qCORAL pipeline (paper §3, Figure 1) consumes a *disjunction of path
//! conditions* produced by symbolic execution, where each path condition is
//! a *conjunction of mathematical inequalities* over bounded floating-point
//! input variables. This crate defines that representation:
//!
//! * [`Expr`] — arithmetic expressions over input variables, including the
//!   non-linear and transcendental functions exercised by the paper's
//!   benchmarks (`sin`, `cos`, `tan`, `atan2`, `sqrt`, `pow`, `exp`, `log`).
//! * [`Atom`] — a single relational constraint `lhs ⋈ rhs`.
//! * [`PathCondition`] — a conjunction of atoms.
//! * [`ConstraintSet`] — a disjunction of (pairwise disjoint) path
//!   conditions, the `PCT` set of the paper.
//! * [`Domain`] — the bounded input box plus variable names.
//! * [`VarSet`] — compact variable sets used by the dependency analysis of
//!   paper §4.2 (Definition 1).
//! * [`parse::parse_system`] — a parser for a small textual constraint
//!   language, so benchmarks can be stored as data.
//!
//! # Example
//!
//! ```
//! use qcoral_constraints::parse::parse_system;
//!
//! let sys = parse_system(
//!     "var altitude in [0, 20000];
//!      var headFlap in [-10, 10];
//!      var tailFlap in [-10, 10];
//!      pc altitude > 9000;
//!      pc altitude <= 9000 && sin(headFlap * tailFlap) > 0.25;",
//! ).unwrap();
//! assert_eq!(sys.constraint_set.pcs().len(), 2);
//! assert!(sys.constraint_set.holds(&[9500.0, 0.0, 0.0]));
//! ```

#![warn(missing_docs)]
// The expression-builder methods (`add`, `mul`, `neg`, ...) deliberately
// consume `self` and mirror the surface syntax; implementing the std ops
// traits instead would force reference-heavy call sites everywhere.
#![allow(clippy::should_implement_trait)]

pub mod atom;
pub mod bulk;
pub mod ctape;
pub mod domain;
pub mod expr;
pub mod ival;
pub mod lexer;
pub mod parse;
pub mod varset;

pub use atom::{Atom, ConstraintSet, PathCondition, RelOp};
pub use bulk::{BulkScratch, BulkTape, LANES};
pub use ctape::{expr_fingerprint, EvalTape, Node};
pub use domain::{Domain, VarId};
pub use expr::{BinOp, Expr, UnOp};
pub use ival::{IvalScratch, Tri};
pub use varset::VarSet;
