//! Monte Carlo engine for the qCORAL reproduction.
//!
//! Implements the statistical machinery of the paper:
//!
//! * [`Estimate`] — an estimator summarized by its mean and variance, with
//!   the composition algebra of §4: disjoint-sum (Eq. 5–6, Theorem 1) and
//!   independent-product (Eq. 7–8).
//! * [`UsageProfile`] — the probabilistic characterization of the inputs
//!   (§3). Uniform profiles match the paper's implementation; piecewise-
//!   uniform (histogram) profiles implement the discretization extension
//!   the paper attributes to Filieri et al. \[11\].
//! * [`refine_plan`] — the Hit-or-Miss Monte Carlo estimator (§3.2,
//!   Eq. 2) on one box, round by round.
//! * [`Strata`] — stratified sampling over an ICP paving (§3.3, Eq. 3),
//!   each stratum refined with [`refine_plan`]; [`Strata::whole`] is the
//!   unstratified case.
//! * [`IsEstimator`] — paver-seeded adaptive importance sampling for
//!   rare-event factors (the [`is`] module), following SYMPAIS.
//!
//! All three draw through one counter-seeded chunk executor.
//!
//! # Example
//!
//! ```
//! use qcoral_interval::{Interval, IntervalBox};
//! use qcoral_mc::{initial_allocation, Allocation, SamplePlan, ScalarPred, Strata, Stratum, UsageProfile};
//!
//! let boxed = |lo, hi| -> IntervalBox { [Interval::new(lo, hi)].into_iter().collect() };
//! let profile = UsageProfile::uniform(1);
//! // P[x < 0.25] over U[0, 1]: [0, 0.2] is known to satisfy it, [0.2, 0.4] is sampled.
//! let pred = ScalarPred(|p: &[f64]| p[0] < 0.25);
//! let paving = [Stratum::inner(boxed(0.0, 0.2)), Stratum::boundary(boxed(0.2, 0.4))];
//! let mut strata = Strata::new(paving, &profile, &boxed(0.0, 1.0), SamplePlan::serial(42));
//! let counts = initial_allocation(Allocation::EqualPerStratum, 10_000, &strata.weights());
//! strata.refine(&pred, &profile, &counts);
//! assert!((strata.estimate().mean - 0.25).abs() < 0.005);
//! ```

#![warn(missing_docs)]

pub mod discretize;
pub mod estimate;
pub mod is;
pub mod profile;
pub mod sampler;

pub use discretize::{align_strata, discretize, mass_edges, MAX_BINS};
pub use estimate::{Estimate, Moments};
pub use is::{IsEstimator, Mixture, RoundReport, SnisAccum, DEFAULT_IS_THRESHOLD};
pub use profile::{
    parse_dist_spec, parse_profile_spec, std_normal_cdf, std_normal_quantile, BoxDensity, BoxDraw,
    DensityPlan, Dist, DrawPlan, UsageProfile,
};
pub use sampler::{
    initial_allocation, mix_seed, neyman_allocation, proportional_split, refine_plan, Allocation,
    BulkPred, Deadline, SamplePlan, ScalarPred, Strata, Stratum, StratumAccum, COLUMN_BLOCK,
};
