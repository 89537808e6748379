//! Baseline quantification methods the paper compares against (§6.2,
//! Table 3; §6.3, Table 4).
//!
//! * [`adaptive`] — a deterministic *global adaptive integration* scheme,
//!   standing in for Mathematica's `NIntegrate` (proprietary; the paper
//!   describes its algorithm as recursive region analysis with
//!   error-driven bisection \[21\]). Accurate on low-dimensional, smooth
//!   problems; degrades on many-path, high-dimensional subjects — the
//!   same failure mode the paper reports (PACK: missed interval; VOL:
//!   value > 1).
//! * [`volcomp`] — an interval-bounding method, standing in for the
//!   VolComp tool of Sankaranarayanan et al. \[30\] (research artifact,
//!   no longer distributed). Returns a closed interval guaranteed to
//!   contain the exact probability, read off the ICP paving of each path
//!   condition (inner mass below, inner plus boundary mass above); the
//!   interval stays a vacuous `[0, 1]` when the paver cannot prune (the
//!   paper's VOL row).
//! * [`plain_mc`] — whole-disjunction hit-or-miss Monte Carlo, the
//!   "Mathematica Monte Carlo" column of Table 4.

#![warn(missing_docs)]

pub mod adaptive;
pub mod plain_mc;
pub mod volcomp;

pub use adaptive::{adaptive_probability, AdaptiveConfig, AdaptiveResult};
pub use plain_mc::plain_monte_carlo;
pub use volcomp::{volcomp_bounds, ProbBounds, VOLCOMP_PAVER};
