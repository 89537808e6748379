//! Rare-event subjects with closed-form ground truth.
//!
//! Each subject asks a safety-style question — "what is the probability
//! of this ~1e-8 event?" — whose exact answer is known in closed form,
//! so the adaptive importance-sampling engine
//! ([`Allocation::ImportanceAdaptive`](qcoral_mc::Allocation)) can be
//! validated against truth and raced against plain stratified sampling
//! (`cargo bench -p qcoral-bench --bench rare`).
//!
//! The rarity is *profile-driven*, not geometric: the satisfying region
//! is macroscopic (a half-plane past a ridge, the outside of a disk),
//! but the usage profile's tails place ~1e-8 of the input mass there.
//! That is exactly the regime the ICP paver cannot finish on its own —
//! it certifies and rejects what it can, leaving boundary boxes that
//! straddle the constraint surface, and the conditional hit rate inside
//! them is ~1e-8: stratified sampling is blind, while the paver-seeded
//! proposal of [`qcoral_mc::is`] covers the boundary geometry directly.
//!
//! One subject, [`sin-peaks`](rare_subjects), is deliberately the
//! opposite regime — geometric needles (~4.5e-4-radius disks around the
//! peaks of `sin x + sin y`) that neither stratified sampling nor a
//! cold boundary-seeded proposal can find. Its documented role is to
//! exercise the *deterministic fallback* path (zero hits in the IS
//! pilot round ⇒ revert to stratified, flagged in
//! [`Stats::is_fallbacks`](../../qcoral/struct.Stats.html)).
//!
//! Ground-truth notes: domains are wide enough that conditioning the
//! profiles to them perturbs the stated truths by relative ~1e-10 or
//! less (normal tails beyond ±10σ, exponential tails beyond 40/λ),
//! orders of magnitude below any standard error these subjects are
//! quantified to. `sin-peaks`' truth is a second-order Taylor
//! approximation around the peaks, accurate to relative ~2e-7.

use std::f64::consts::PI;

use qcoral_constraints::parse::parse_system;
use qcoral_constraints::{ConstraintSet, Domain};
use qcoral_mc::{std_normal_cdf, Dist, UsageProfile};

/// One rare-event subject: a constraint system, a usage profile and the
/// closed-form probability of the constrained event.
pub struct RareSubject {
    /// Display name.
    pub name: &'static str,
    /// Constraint-system source (`parse_system` syntax).
    pub source: &'static str,
    /// Closed-form event probability (see the module docs for the
    /// negligible domain-truncation caveat).
    truth: fn() -> f64,
    /// Builds the usage profile for the parsed domain.
    make_profile: fn(&Domain) -> UsageProfile,
    /// Whether a boundary-seeded proposal can see the event at all;
    /// `false` marks the designed-to-fall-back subject.
    pub is_reachable: bool,
}

impl RareSubject {
    /// Parses the subject and attaches its profile.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to parse (a bug in the
    /// subject definitions).
    pub fn system(&self) -> (ConstraintSet, Domain, UsageProfile) {
        let sys = parse_system(self.source)
            .unwrap_or_else(|e| panic!("subject {} must parse: {e:?}", self.name));
        let profile = (self.make_profile)(&sys.domain);
        (sys.constraint_set, sys.domain, profile)
    }

    /// The exact event probability.
    pub fn truth(&self) -> f64 {
        (self.truth)()
    }
}

/// Sets variable `name`'s marginal, by name.
fn with(profile: UsageProfile, domain: &Domain, name: &str, dist: Dist) -> UsageProfile {
    let id = domain
        .index_of(name)
        .unwrap_or_else(|| panic!("subject declares `{name}`"));
    profile.with_dist(id.index(), dist)
}

fn std_normals(d: &Domain) -> UsageProfile {
    let mut p = UsageProfile::uniform(d.len());
    for i in 0..d.len() {
        p = p.with_dist(i, Dist::normal(0.0, 1.0));
    }
    p
}

/// `P[x + y > 7.92]`, `x, y ~ N(0, 1)`: the sum is `N(0, 2)`, so the
/// truth is `Φ(-7.92 / √2)`.
fn sum_tail_2d_truth() -> f64 {
    std_normal_cdf(-7.92 / std::f64::consts::SQRT_2)
}

/// `P[x + y + z > 9.7]`, iid `N(0, 1)`: the sum is `N(0, 3)`.
fn sum_tail_3d_truth() -> f64 {
    std_normal_cdf(-9.7 / 3.0_f64.sqrt())
}

/// `P[x² + y² > 36.8]`, iid `N(0, 1)`: `x² + y²` is chi-squared with
/// two degrees of freedom, i.e. `Exp(1/2)`, so the tail is `e^{-18.4}`.
fn radius_tail_truth() -> f64 {
    (-18.4_f64).exp()
}

/// `P[x + y > 21.42]`, iid `Exp(1)` anchored at 0: the sum is
/// `Gamma(2, 1)`, so the tail is `(1 + t)·e^{-t}`.
fn exp_sum_tail_truth() -> f64 {
    22.42 * (-21.42_f64).exp()
}

/// `P[sin x + sin y > 2 − 1e−7]` under uniforms on `[-10, 10]²`: near a
/// peak pair, `sin x + sin y ≈ 2 − (dx² + dy²)/2`, so the event is a
/// disk of radius `√(2e−7)` around each of the 3×3 peak pairs —
/// `9·π·2e−7` of area over the 400-unit domain.
fn sin_peaks_truth() -> f64 {
    9.0 * PI * 2e-7 / 400.0
}

/// The rare-event suite. All truths are near 1e-8; `sin-peaks` is the
/// designed-fallback subject (see the module docs).
pub fn rare_subjects() -> Vec<RareSubject> {
    vec![
        RareSubject {
            name: "sum-tail-2d",
            source: "var x in [-10, 10]; var y in [-10, 10];
                     pc x + y > 7.92;",
            truth: sum_tail_2d_truth,
            make_profile: std_normals,
            is_reachable: true,
        },
        RareSubject {
            name: "sum-tail-3d",
            source: "var x in [-10, 10]; var y in [-10, 10]; var z in [-10, 10];
                     pc x + y + z > 9.7;",
            truth: sum_tail_3d_truth,
            make_profile: std_normals,
            is_reachable: true,
        },
        RareSubject {
            name: "radius-tail",
            source: "var x in [-10, 10]; var y in [-10, 10];
                     pc x * x + y * y > 36.8;",
            truth: radius_tail_truth,
            make_profile: std_normals,
            is_reachable: true,
        },
        RareSubject {
            name: "exp-sum-tail",
            source: "var x in [0, 40]; var y in [0, 40];
                     pc x + y > 21.42;",
            truth: exp_sum_tail_truth,
            make_profile: |d| {
                let p = UsageProfile::uniform(d.len());
                let p = with(p, d, "x", Dist::exponential(1.0));
                with(p, d, "y", Dist::exponential(1.0))
            },
            is_reachable: true,
        },
        RareSubject {
            name: "sin-peaks",
            source: "var x in [-10, 10]; var y in [-10, 10];
                     pc sin(x) + sin(y) > 1.9999999;",
            truth: sin_peaks_truth,
            make_profile: |d| UsageProfile::uniform(d.len()),
            is_reachable: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_subjects_parse_and_truths_are_rare() {
        for subj in rare_subjects() {
            let (cs, domain, profile) = subj.system();
            assert!(!cs.is_empty(), "{}: no path conditions", subj.name);
            assert_eq!(profile.len(), domain.len(), "{}: arity", subj.name);
            let dbox = qcoral_icp::domain_box(&domain);
            assert!(profile.validated_in(&dbox).is_ok(), "{}", subj.name);
            let t = subj.truth();
            assert!(
                t > 1e-10 && t < 1e-6,
                "{}: truth {t:e} out of the rare band",
                subj.name
            );
        }
    }

    #[test]
    fn closed_forms_match_the_literature_values() {
        // Spot-check against independently computed magnitudes.
        let by_name = |n: &str| {
            rare_subjects()
                .into_iter()
                .find(|s| s.name == n)
                .unwrap()
                .truth()
        };
        assert!((by_name("sum-tail-2d") / 1.072e-8 - 1.0).abs() < 0.01);
        assert!((by_name("radius-tail") / 1.017e-8 - 1.0).abs() < 0.01);
        assert!((by_name("exp-sum-tail") / 1.108e-8 - 1.0).abs() < 0.01);
    }
}
