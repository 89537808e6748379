//! Property-based tests over the whole pipeline: for randomly generated
//! constraint systems, the three quantification methods must stay
//! mutually consistent and all soundness invariants must hold.

use proptest::prelude::*;
use qcoral::{Analyzer, Options};
use qcoral_baselines::{volcomp_bounds, VOLCOMP_PAVER};
use qcoral_constraints::{Atom, ConstraintSet, Domain, Expr, PathCondition, RelOp, VarId};
use qcoral_icp::{domain_box, pave, PaverConfig};
use qcoral_mc::UsageProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random linear atom over `nvars` variables.
fn linear_atom(nvars: usize) -> impl Strategy<Value = Atom> {
    (
        prop::collection::vec(-2.0f64..2.0, nvars),
        -1.5f64..1.5,
        prop_oneof![
            Just(RelOp::Le),
            Just(RelOp::Lt),
            Just(RelOp::Ge),
            Just(RelOp::Gt)
        ],
    )
        .prop_map(move |(coefs, bias, op)| {
            let mut lhs = Expr::constant(0.0);
            for (i, c) in coefs.iter().enumerate() {
                lhs = lhs.add(Expr::constant(*c).mul(Expr::var(VarId(i as u32))));
            }
            Atom::new(lhs, op, Expr::constant(bias))
        })
}

/// Strategy: a random non-linear atom (quadratic / trig over 2 vars).
fn nonlinear_atom() -> impl Strategy<Value = Atom> {
    (0u8..4, -1.0f64..1.0).prop_map(|(kind, c)| {
        let x = Expr::var(VarId(0));
        let y = Expr::var(VarId(1));
        let lhs = match kind {
            0 => x.clone().mul(x).add(y.clone().mul(y)),
            1 => x.mul(y).sin(),
            2 => x.clone().mul(x).sqrt().sub(y),
            _ => x.add(y.cos()),
        };
        Atom::new(lhs, RelOp::Le, Expr::constant(1.0 + c))
    })
}

fn domain2() -> Domain {
    let mut d = Domain::new();
    d.declare("x", -1.0, 1.0).unwrap();
    d.declare("y", -1.0, 1.0).unwrap();
    d
}

/// Direct Monte Carlo ground truth for a constraint set.
fn ground_truth(cs: &ConstraintSet, domain: &Domain, n: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(424242);
    let bounds: Vec<(f64, f64)> = domain.iter().map(|(_, v)| (v.lo, v.hi)).collect();
    let mut p = vec![0.0; bounds.len()];
    let mut hits = 0u64;
    for _ in 0..n {
        for (x, &(lo, hi)) in p.iter_mut().zip(&bounds) {
            *x = rng.gen_range(lo..hi);
        }
        if cs.holds(&p) {
            hits += 1;
        }
    }
    hits as f64 / n as f64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Pavings never lose solutions: every sampled satisfying point is
    /// covered by some box of the paving.
    #[test]
    fn paving_soundness(atoms in prop::collection::vec(linear_atom(2), 1..4)) {
        let domain = domain2();
        let dbox = domain_box(&domain);
        let pc = PathCondition::from_atoms(atoms);
        let paving = pave(&pc, &dbox, &PaverConfig::default());
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..300 {
            let p = [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
            if pc.holds(&p) {
                prop_assert!(
                    paving.all_boxes().any(|b| b.contains_point(&p)),
                    "paving lost solution {p:?} of {pc}"
                );
            }
        }
    }

    /// Inner boxes only contain solutions.
    #[test]
    fn inner_box_purity(atoms in prop::collection::vec(linear_atom(2), 1..4)) {
        let domain = domain2();
        let dbox = domain_box(&domain);
        let pc = PathCondition::from_atoms(atoms);
        let paving = pave(&pc, &dbox, &PaverConfig { max_boxes: 32, ..PaverConfig::default() });
        let mut rng = SmallRng::seed_from_u64(11);
        for b in &paving.inner {
            for _ in 0..20 {
                let p: Vec<f64> = (0..2)
                    .map(|i| {
                        let iv = b[i];
                        if iv.width() == 0.0 { iv.lo() } else { rng.gen_range(iv.lo()..iv.hi()) }
                    })
                    .collect();
                prop_assert!(pc.holds(&p), "inner box {b} contains non-solution {p:?}");
            }
        }
    }

    /// qCORAL's estimate matches direct Monte Carlo ground truth, and
    /// the VolComp bounds contain (approximately) both.
    #[test]
    fn methods_agree_on_linear_systems(
        pcs in prop::collection::vec(prop::collection::vec(linear_atom(2), 1..3), 1..3)
    ) {
        let domain = domain2();
        // Make the disjuncts disjoint by splitting on x ≤ 0 / x > 0 when
        // there are two of them.
        let mut sets = Vec::new();
        let n = pcs.len();
        for (i, atoms) in pcs.into_iter().enumerate() {
            let mut pc = PathCondition::from_atoms(atoms);
            if n == 2 {
                let split = Atom::new(
                    Expr::var(VarId(0)),
                    if i == 0 { RelOp::Le } else { RelOp::Gt },
                    Expr::constant(0.0),
                );
                pc.push(split);
            }
            sets.push(pc);
        }
        let cs = ConstraintSet::from_pcs(sets);
        let truth = ground_truth(&cs, &domain, 60_000);
        let profile = UsageProfile::uniform(2);
        let report = Analyzer::new(Options::strat_partcache().with_samples(20_000).with_seed(3))
            .analyze(&cs, &domain, &profile);
        prop_assert!(
            (report.estimate.mean - truth).abs() < 0.03,
            "qCORAL {} vs truth {truth} for {cs}",
            report.estimate.mean
        );
        let bounds = volcomp_bounds(&cs, &domain_box(&domain), &PaverConfig {
            max_boxes: 512,
            ..VOLCOMP_PAVER
        });
        prop_assert!(
            truth >= bounds.lo - 0.02 && truth <= bounds.hi + 0.02,
            "truth {truth} outside bounds {bounds} for {cs}"
        );
    }

    /// Non-linear single-PC systems: qCORAL tracks ground truth.
    #[test]
    fn qcoral_matches_truth_nonlinear(atoms in prop::collection::vec(nonlinear_atom(), 1..3)) {
        let domain = domain2();
        let cs = ConstraintSet::from_pcs(vec![PathCondition::from_atoms(atoms)]);
        let truth = ground_truth(&cs, &domain, 60_000);
        let profile = UsageProfile::uniform(2);
        let report = Analyzer::new(Options::strat().with_samples(20_000).with_seed(9))
            .analyze(&cs, &domain, &profile);
        prop_assert!(
            (report.estimate.mean - truth).abs() < 0.03,
            "qCORAL {} vs truth {truth} for {cs}",
            report.estimate.mean
        );
    }

    /// Determinism: same options ⇒ identical reports, including under
    /// parallel analysis.
    #[test]
    fn analysis_is_deterministic(atoms in prop::collection::vec(linear_atom(2), 1..3), seed in 0u64..1000) {
        let domain = domain2();
        let cs = ConstraintSet::from_pcs(vec![PathCondition::from_atoms(atoms)]);
        let profile = UsageProfile::uniform(2);
        let opts = Options::strat_partcache().with_samples(2_000).with_seed(seed);
        let a = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
        let b = Analyzer::new(opts.clone()).analyze(&cs, &domain, &profile);
        prop_assert_eq!(a.estimate, b.estimate);
        let c = Analyzer::new(opts.with_parallel(true)).analyze(&cs, &domain, &profile);
        prop_assert_eq!(a.estimate, c.estimate);
    }
}
