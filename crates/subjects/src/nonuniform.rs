//! Non-uniform usage-profile variants of the VolComp subjects.
//!
//! The paper evaluates under uniform profiles only; its conclusion (and
//! the ROADMAP's scenario-diversity axis) calls for realistic input
//! distributions. Each subject here pairs a Table 3 program with a
//! plausible operational profile — clinical populations concentrated
//! around typical vitals, control-system states concentrated near
//! equilibrium, arrival-rate-style exponentials — expressed with the
//! continuous [`Dist`] variants so masses are exact and sampling is
//! inverse-CDF conditional.
//!
//! These are the benchmark subjects of `cargo bench -p qcoral-bench
//! --bench profiles` (profile-aligned stratification versus
//! uniform-strata reweighting) and the non-uniform determinism/warm-store
//! test matrix.

use qcoral_constraints::{ConstraintSet, Domain};
use qcoral_mc::{Dist, UsageProfile};
use qcoral_symexec::SymConfig;

use crate::volcomp_suite::{table3_subjects, Table3Subject};

/// One profiled subject: a Table 3 program/assertion plus a non-uniform
/// usage profile over its inputs.
pub struct NonUniformSubject {
    /// Display name (`BASE·profile-tag`).
    pub name: &'static str,
    /// The Table 3 subject the program comes from.
    pub base: &'static str,
    /// Assertion index into the base subject.
    pub assertion: usize,
    /// Builds the profile for the subject's domain (named lookups, so
    /// the profile stays correct if parameter order ever changes).
    make_profile: fn(&Domain) -> UsageProfile,
}

impl NonUniformSubject {
    /// Symbolically executes the base subject and attaches the profile.
    ///
    /// # Panics
    ///
    /// Panics if the base subject is missing or fails to execute (a bug
    /// in the subject definitions).
    pub fn system(&self, cfg: &SymConfig) -> (Domain, ConstraintSet, UsageProfile) {
        let subjects = table3_subjects();
        let subj: &Table3Subject = subjects
            .iter()
            .find(|s| s.name == self.base)
            .unwrap_or_else(|| panic!("base subject {} exists", self.base));
        let (domain, cs) = subj.system_for(self.assertion, cfg);
        let profile = (self.make_profile)(&domain);
        (domain, cs, profile)
    }
}

/// Sets variable `name`'s marginal, by name.
fn with(profile: UsageProfile, domain: &Domain, name: &str, dist: Dist) -> UsageProfile {
    let id = domain
        .index_of(name)
        .unwrap_or_else(|| panic!("subject declares `{name}`"));
    profile.with_dist(id.index(), dist)
}

fn coronary_clinic(d: &Domain) -> UsageProfile {
    // A screening-clinic population: middle-aged, cholesterol and HDL
    // concentrated around typical values instead of spread over the
    // whole physiological range.
    let p = UsageProfile::uniform(d.len());
    let p = with(p, d, "age", Dist::truncated_normal(52.0, 9.0, 30.0, 74.0));
    let p = with(p, d, "chol", Dist::normal(225.0, 28.0));
    with(p, d, "hdl", Dist::normal(55.0, 13.0))
}

fn cart_calm(d: &Domain) -> UsageProfile {
    // The cart usually starts near equilibrium; gusts are small and
    // symmetric.
    let p = UsageProfile::uniform(d.len());
    let p = with(p, d, "pos", Dist::normal(0.0, 0.3));
    let p = with(p, d, "vel", Dist::normal(0.0, 0.3));
    with(p, d, "wind", Dist::truncated_normal(0.0, 0.12, -0.5, 0.5))
}

fn invpend_stable(d: &Domain) -> UsageProfile {
    // Disturbances around the upright equilibrium: small angles, small
    // velocities.
    let p = UsageProfile::uniform(d.len());
    let p = with(p, d, "ang", Dist::normal(0.0, 0.09));
    with(p, d, "vel", Dist::normal(0.0, 0.15))
}

fn vol_trickle(d: &Domain) -> UsageProfile {
    // Inflows are usually small (exponentially distributed rates), which
    // makes the slow-fill deep paths the *common* case instead of a
    // corner.
    let p = UsageProfile::uniform(d.len());
    let p = with(p, d, "f1", Dist::exponential(4.0));
    with(p, d, "f2", Dist::exponential(4.0))
}

fn atrial_elderly(d: &Domain) -> UsageProfile {
    // A cardiology-ward population: older, hypertensive-leaning.
    let p = UsageProfile::uniform(d.len());
    let p = with(p, d, "age", Dist::truncated_normal(68.0, 10.0, 45.0, 95.0));
    let p = with(p, d, "sbp", Dist::normal(138.0, 16.0));
    let p = with(p, d, "bmi", Dist::normal(27.0, 4.0));
    with(p, d, "pr", Dist::normal(168.0, 24.0))
}

fn egfr_renal(d: &Domain) -> UsageProfile {
    // Renal-clinic creatinine skews low-normal with a long high tail
    // (exponential from the domain floor); ages skew old.
    let p = UsageProfile::uniform(d.len());
    let p = with(p, d, "scr", Dist::exponential(1.4));
    with(p, d, "age", Dist::truncated_normal(62.0, 14.0, 18.0, 90.0))
}

/// The non-uniform VolComp suite: Table 3 subjects under realistic
/// operational profiles.
pub fn nonuniform_subjects() -> Vec<NonUniformSubject> {
    vec![
        NonUniformSubject {
            name: "CORONARY·clinic",
            base: "CORONARY",
            assertion: 0,
            make_profile: coronary_clinic,
        },
        NonUniformSubject {
            name: "CART·calm",
            base: "CART",
            assertion: 1,
            make_profile: cart_calm,
        },
        NonUniformSubject {
            name: "INVPEND·stable",
            base: "INVPEND",
            assertion: 0,
            make_profile: invpend_stable,
        },
        NonUniformSubject {
            name: "VOL·trickle",
            base: "VOL",
            assertion: 0,
            make_profile: vol_trickle,
        },
        NonUniformSubject {
            name: "ATRIAL·elderly",
            base: "ATRIAL",
            assertion: 0,
            make_profile: atrial_elderly,
        },
        NonUniformSubject {
            name: "EGFR·renal",
            base: "EGFR EPI",
            assertion: 0,
            make_profile: egfr_renal,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiled_subjects_execute_and_profiles_fit() {
        for subj in nonuniform_subjects() {
            let (domain, cs, profile) = subj.system(&SymConfig::default());
            assert_eq!(profile.len(), domain.len(), "{}: profile arity", subj.name);
            assert!(!cs.is_empty(), "{}: no target paths", subj.name);
            assert!(!profile.is_uniform(), "{}: profile is uniform", subj.name);
            // Every profile re-validates through the checked constructors.
            let dbox = qcoral_icp::domain_box(&domain);
            assert!(profile.validated_in(&dbox).is_ok(), "{}", subj.name);
        }
    }

    #[test]
    fn profiles_shift_probabilities_away_from_uniform() {
        use qcoral::{Analyzer, Options};
        // VOL·trickle: small inflows make the deep (count ≥ 20) paths
        // far more likely than under the uniform profile.
        let subj = nonuniform_subjects()
            .into_iter()
            .find(|s| s.name == "VOL·trickle")
            .unwrap();
        let (domain, cs, profile) = subj.system(&SymConfig::default());
        let analyzer = Analyzer::new(Options::strat().with_samples(4_000));
        let uniform = analyzer
            .analyze(&cs, &domain, &UsageProfile::uniform(domain.len()))
            .estimate
            .mean;
        let skewed = analyzer.analyze(&cs, &domain, &profile).estimate.mean;
        assert!(
            skewed > uniform * 2.0,
            "trickle profile must amplify deep paths: {skewed} vs {uniform}"
        );
    }
}
