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
//! * [`hit_or_miss_plan`] — the Hit-or-Miss Monte Carlo estimator
//!   (§3.2, Eq. 2).
//! * [`stratified_plan`] — stratified sampling over an ICP paving (§3.3,
//!   Eq. 3); [`refine_plan`] adds samples to one stratum round by round.
//! * [`IsEstimator`] — paver-seeded adaptive importance sampling for
//!   rare-event factors (the [`is`] module), following SYMPAIS.
//!
//! # Example
//!
//! ```
//! use qcoral_interval::{Interval, IntervalBox};
//! use qcoral_mc::{hit_or_miss_plan, SamplePlan, ScalarPred, UsageProfile};
//!
//! let boxed: IntervalBox = [Interval::new(0.0, 1.0)].into_iter().collect();
//! let profile = UsageProfile::uniform(1);
//! // P[x < 0.25] over U[0, 1]
//! let pred = ScalarPred(|p: &[f64]| p[0] < 0.25);
//! let est = hit_or_miss_plan(&pred, &boxed, &profile, 10_000, SamplePlan::serial(42));
//! assert!((est.mean - 0.25).abs() < 0.02);
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
    hit_or_miss_plan, initial_allocation, mix_seed, neyman_allocation, proportional_split,
    refine_plan, stratified_plan, Allocation, BulkPred, Deadline, SamplePlan, ScalarPred, Stratum,
    StratumAccum, COLUMN_BLOCK,
};
