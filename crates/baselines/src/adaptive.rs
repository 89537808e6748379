//! Global adaptive integration of the indicator function — the
//! `NIntegrate` stand-in.
//!
//! Mathematica's default method, as the paper summarizes it (§6.2), is
//! *Global Adaptive Integration* [Malcolm & Simpson, 1975]: maintain a
//! pool of regions with local error estimates, repeatedly bisect the
//! region with the largest error, and stop when the accuracy goal is met
//! or the recursion budget is exhausted. For the probability of a
//! constraint set the integrand is an indicator function, so the local
//! rule evaluates the constraints on a deterministic point pattern; a
//! region whose points all agree is assumed pure (that assumption is
//! exactly what makes the method miss thin features when the default
//! budget is too small — the failure the paper observes on PACK).

use std::collections::BinaryHeap;

use qcoral_constraints::{ConstraintSet, EvalTape, PathCondition};
use qcoral_interval::IntervalBox;

/// Configuration for the adaptive integrator.
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Absolute error goal; refinement stops once the summed local error
    /// estimates drop below it.
    pub accuracy_goal: f64,
    /// Maximum number of regions (the "recursion depth limit" of the
    /// paper's description).
    pub max_regions: usize,
}

impl Default for AdaptiveConfig {
    /// `NIntegrate`-flavoured defaults: 10⁻⁴ absolute accuracy, 20 000
    /// regions.
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            accuracy_goal: 1e-4,
            max_regions: 20_000,
        }
    }
}

/// The integrator's output.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveResult {
    /// Estimated probability.
    pub value: f64,
    /// Remaining summed local error estimate.
    pub error_estimate: f64,
    /// Number of regions examined.
    pub regions: usize,
    /// `false` if the accuracy goal was *not* met within the region
    /// budget (the paper notes Mathematica reports this situation on
    /// PACK).
    pub converged: bool,
}

struct Region {
    boxed: IntervalBox,
    weight: f64,
    frac: f64,
    error: f64,
}

impl PartialEq for Region {
    fn eq(&self, other: &Self) -> bool {
        self.error == other.error
    }
}

impl Eq for Region {}

impl PartialOrd for Region {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Region {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.error
            .partial_cmp(&other.error)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Deterministic point pattern for a region: center, face midpoints and a
/// bounded set of corner points.
fn sample_points(boxed: &IntervalBox) -> Vec<Vec<f64>> {
    let d = boxed.ndim();
    let center = boxed.center();
    let mut pts = vec![center.clone()];
    for i in 0..d {
        for v in [boxed[i].lo(), boxed[i].hi()] {
            let mut p = center.clone();
            // Stay strictly inside to avoid double-counting shared faces.
            p[i] = 0.99 * v + 0.01 * center[i];
            pts.push(p);
        }
    }
    // Corners (up to 2^min(d, 4) diagonal probes).
    let corner_dims = d.min(4);
    for mask in 0..(1u32 << corner_dims) {
        let mut p = center.clone();
        for (i, pi) in p.iter_mut().enumerate().take(corner_dims) {
            let v = if mask & (1 << i) != 0 {
                boxed[i].hi()
            } else {
                boxed[i].lo()
            };
            *pi = 0.98 * v + 0.02 * center[i];
        }
        pts.push(p);
    }
    pts
}

/// The share of a region's probe points where `holds` is true.
fn classify(holds: &impl Fn(&[f64]) -> bool, boxed: &IntervalBox) -> f64 {
    let pts = sample_points(boxed);
    let hits = pts.iter().filter(|p| holds(p)).count();
    hits as f64 / pts.len() as f64
}

fn region_error(weight: f64, frac: f64) -> f64 {
    if frac == 0.0 || frac == 1.0 {
        // Pure by sampling: assumed converged. This optimism is the
        // documented thin-feature failure mode.
        0.0
    } else {
        weight * (frac.min(1.0 - frac) + 0.25)
    }
}

/// Integrates the indicator of one path condition over the box (relative
/// measure, uniform weight), probing it on its compiled tape.
fn integrate_pc(pc: &PathCondition, domain: &IntervalBox, cfg: &AdaptiveConfig) -> AdaptiveResult {
    let tape = EvalTape::compile(pc);
    integrate(&|p: &[f64]| tape.holds(p), domain, cfg)
}

/// Integrates the indicator `holds` over the box.
fn integrate(
    holds: &impl Fn(&[f64]) -> bool,
    domain: &IntervalBox,
    cfg: &AdaptiveConfig,
) -> AdaptiveResult {
    let mut heap = BinaryHeap::new();
    let frac = classify(holds, domain);
    heap.push(Region {
        boxed: domain.clone(),
        weight: 1.0,
        frac,
        error: region_error(1.0, frac),
    });
    let mut regions = 1usize;
    let mut settled_value = 0.0;
    let mut settled_error = 0.0;

    loop {
        let pending_error: f64 = heap.iter().map(|r| r.error).sum();
        if pending_error + settled_error <= cfg.accuracy_goal {
            break;
        }
        if regions >= cfg.max_regions {
            break;
        }
        let Some(region) = heap.pop() else { break };
        if region.error == 0.0 || region.boxed.max_width() < 1e-9 {
            settled_value += region.weight * region.frac;
            settled_error += region.error.min(region.weight);
            continue;
        }
        let (l, r) = region.boxed.bisect();
        for half in [l, r] {
            let w = region.weight / 2.0;
            let f = classify(holds, &half);
            heap.push(Region {
                boxed: half,
                weight: w,
                frac: f,
                error: region_error(w, f),
            });
        }
        regions += 2;
    }

    let mut value = settled_value;
    let mut error = settled_error;
    for r in heap {
        value += r.weight * r.frac;
        error += r.error;
    }
    AdaptiveResult {
        value,
        error_estimate: error,
        regions,
        converged: error <= cfg.accuracy_goal,
    }
}

/// Estimates `Pr[x uniform over domain satisfies cs]` by global adaptive
/// integration. Path conditions are integrated separately (they are
/// disjoint) and the contributions summed.
pub fn adaptive_probability(
    cs: &ConstraintSet,
    domain: &IntervalBox,
    cfg: &AdaptiveConfig,
) -> AdaptiveResult {
    let mut total = AdaptiveResult {
        value: 0.0,
        error_estimate: 0.0,
        regions: 0,
        converged: true,
    };
    // Split the region budget across path conditions.
    let per_pc = AdaptiveConfig {
        accuracy_goal: cfg.accuracy_goal / cs.len().max(1) as f64,
        max_regions: (cfg.max_regions / cs.len().max(1)).max(64),
    };
    for pc in cs.pcs() {
        let r = integrate_pc(pc, domain, &per_pc);
        total.value += r.value;
        total.error_estimate += r.error_estimate;
        total.regions += r.regions;
        total.converged &= r.converged;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;
    use qcoral_icp::domain_box;
    use qcoral_subjects::table3_subjects;
    use qcoral_symexec::SymConfig;

    fn setup(src: &str) -> (ConstraintSet, IntervalBox) {
        let sys = parse_system(src).unwrap();
        let b = domain_box(&sys.domain);
        (sys.constraint_set, b)
    }

    #[test]
    fn half_space_converges_to_half() {
        let (cs, dom) = setup("var x in [0, 1]; pc x < 0.5;");
        let r = adaptive_probability(&cs, &dom, &AdaptiveConfig::default());
        assert!((r.value - 0.5).abs() < 1e-3, "value {}", r.value);
        assert!(r.converged);
    }

    #[test]
    fn triangle_area() {
        let (cs, dom) = setup("var x in [-1, 1]; var y in [-1, 1]; pc x <= -y && y <= x;");
        let r = adaptive_probability(&cs, &dom, &AdaptiveConfig::default());
        assert!((r.value - 0.25).abs() < 5e-3, "value {}", r.value);
    }

    #[test]
    fn circle_area_2d() {
        let (cs, dom) = setup("var x in [-1, 1]; var y in [-1, 1]; pc x*x + y*y <= 1;");
        let r = adaptive_probability(
            &cs,
            &dom,
            &AdaptiveConfig {
                accuracy_goal: 1e-3,
                max_regions: 60_000,
            },
        );
        let exact = std::f64::consts::PI / 4.0;
        assert!(
            (r.value - exact).abs() < 5e-3,
            "value {} vs {exact}",
            r.value
        );
    }

    #[test]
    fn disjoint_pcs_sum() {
        let (cs, dom) = setup("var x in [0, 1]; pc x < 0.25; pc x > 0.75;");
        let r = adaptive_probability(&cs, &dom, &AdaptiveConfig::default());
        assert!((r.value - 0.5).abs() < 2e-3, "value {}", r.value);
    }

    #[test]
    fn thin_feature_may_not_converge() {
        // A sliver of width 1e-5: the default pattern misses it at coarse
        // scales and the method can claim convergence at a wrong value —
        // the documented NIntegrate failure mode (PACK row of Table 3).
        let (cs, dom) = setup("var x in [0, 1]; var y in [0, 1]; pc x > 0.423 && x < 0.42301;");
        let r = adaptive_probability(
            &cs,
            &dom,
            &AdaptiveConfig {
                accuracy_goal: 1e-4,
                max_regions: 256,
            },
        );
        // Either it reports non-convergence or a value far from truth —
        // accept both, but it must not crash and must stay in [0, 1.5].
        assert!(r.value >= 0.0 && r.value < 1.5);
    }

    #[test]
    fn unsatisfiable_is_zero() {
        let (cs, dom) = setup("var x in [0, 1]; pc x > 2;");
        let r = adaptive_probability(&cs, &dom, &AdaptiveConfig::default());
        assert_eq!(r.value, 0.0);
        assert!(r.converged);
    }

    /// The compiled tape answers every probe point as the tree walk
    /// does, so each path condition integrates bit-identically to a
    /// tree-walk reference.
    #[test]
    fn tape_probes_match_the_tree_walk() {
        let subjects = table3_subjects();
        let cfg = AdaptiveConfig {
            accuracy_goal: 1e-4,
            max_regions: 2_000,
        };
        for (name, label) in [
            ("CART", "count >= 3"),
            ("CORONARY", "tmp <= -5"),
            ("PACK", "count >= 8"),
        ] {
            let s = subjects.iter().find(|s| s.name == name).unwrap();
            let idx = s.assertions.iter().position(|&(l, _)| l == label).unwrap();
            let (domain, cs) = s.system_for(idx, &SymConfig::default());
            let dom = domain_box(&domain);
            assert!(!cs.is_empty(), "{name} {label}");
            for pc in cs.pcs() {
                let tree_walk = integrate(&|p: &[f64]| pc.holds(p), &dom, &cfg);
                assert_eq!(integrate_pc(pc, &dom, &cfg), tree_walk, "{name} {label}");
            }
        }
    }

    #[test]
    fn region_budget_respected() {
        let (cs, dom) = setup(
            "var x in [-1,1]; var y in [-1,1]; var z in [-1,1];
             pc x*x + y*y + z*z <= 1;",
        );
        let cfg = AdaptiveConfig {
            accuracy_goal: 1e-12,
            max_regions: 1000,
        };
        let r = adaptive_probability(&cs, &dom, &cfg);
        assert!(!r.converged);
        assert!(r.regions <= 1002);
        // Still in the right ballpark (sphere/cube = π/6 ≈ 0.5236).
        assert!(
            (r.value - std::f64::consts::FRAC_PI_6).abs() < 0.1,
            "value {}",
            r.value
        );
    }
}
