//! Iterative interval bounding — the VolComp stand-in.
//!
//! VolComp [Sankaranarayanan et al., PLDI 2013] produces "a tight closed
//! interval over the real numbers containing the requested solution"
//! (paper §6.2) by iteratively bounding the volume of the solution set
//! from below (regions proven all-solutions) and above (1 minus regions
//! proven solution-free). This reproduction reads both bounds off the
//! ICP paving of each path condition, as Kirkeby's probabilistic output
//! analyses reuse an over-approximating analysis: inner boxes are proven
//! all-solutions and everything outside the paving is proven
//! solution-free. Like the original, it degenerates to the vacuous
//! `[0, 1]` when pruning fails (the paper's VOL subject).

use std::fmt;
use std::time::Duration;

use qcoral_constraints::ConstraintSet;
use qcoral_icp::{pave, PaverConfig};
use qcoral_interval::IntervalBox;

/// A closed probability interval guaranteed to contain the exact value.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ProbBounds {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl ProbBounds {
    /// Interval width (the paper reports tightness of VolComp bounds).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Returns `true` if `p` lies within the bounds.
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lo && p <= self.hi
    }
}

impl fmt::Display for ProbBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.4}, {:.4}]", self.lo, self.hi)
    }
}

/// VolComp's default paving budget per path condition: 2 000 boxes, no
/// bisection below a side of 10⁻⁴, 5 s.
pub const VOLCOMP_PAVER: PaverConfig = PaverConfig {
    max_boxes: 2_000,
    precision_digits: 4,
    time_budget: Duration::from_secs(5),
    max_passes: 8,
};

/// Bounds `Pr[x uniform over domain satisfies cs]` within a guaranteed
/// closed interval, paving each path condition under `cfg`: the lower
/// bound is the relative volume of the inner boxes, the upper bound
/// that of inner and boundary boxes. Disjoint path conditions contribute
/// additively; the final interval is clamped to `[0, 1]`.
pub fn volcomp_bounds(cs: &ConstraintSet, domain: &IntervalBox, cfg: &PaverConfig) -> ProbBounds {
    let mut lo = 0.0;
    let mut hi = 0.0;
    for pc in cs.pcs() {
        let paving = pave(pc, domain, cfg);
        let inner: f64 = paving.inner.iter().map(|b| b.relative_volume(domain)).sum();
        let boundary: f64 = paving
            .boundary
            .iter()
            .map(|b| b.relative_volume(domain))
            .sum();
        lo += inner;
        hi += inner + boundary;
    }
    ProbBounds {
        lo: lo.clamp(0.0, 1.0),
        hi: hi.clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;
    use qcoral_icp::domain_box;

    fn setup(src: &str) -> (ConstraintSet, IntervalBox) {
        let sys = parse_system(src).unwrap();
        let b = domain_box(&sys.domain);
        (sys.constraint_set, b)
    }

    #[test]
    fn box_constraint_is_exact() {
        let (cs, dom) = setup("var x in [0, 1]; pc x >= 0.25 && x <= 0.75;");
        let b = volcomp_bounds(&cs, &dom, &VOLCOMP_PAVER);
        assert!(b.contains(0.5));
        assert!(b.width() < 1e-9, "width {}", b.width());
    }

    #[test]
    fn triangle_bounds_tighten() {
        let (cs, dom) = setup("var x in [-1, 1]; var y in [-1, 1]; pc x <= -y && y <= x;");
        let coarse = volcomp_bounds(
            &cs,
            &dom,
            &PaverConfig {
                max_boxes: 16,
                ..VOLCOMP_PAVER
            },
        );
        let fine = volcomp_bounds(
            &cs,
            &dom,
            &PaverConfig {
                max_boxes: 4_096,
                ..VOLCOMP_PAVER
            },
        );
        assert!(coarse.contains(0.25), "{coarse}");
        assert!(fine.contains(0.25), "{fine}");
        assert!(fine.width() < coarse.width());
        assert!(fine.width() < 0.05, "{fine}");
    }

    #[test]
    fn circle_bounds_contain_truth() {
        let (cs, dom) = setup("var x in [-1, 1]; var y in [-1, 1]; pc x*x + y*y <= 1;");
        let b = volcomp_bounds(&cs, &dom, &VOLCOMP_PAVER);
        let exact = std::f64::consts::PI / 4.0;
        assert!(b.contains(exact), "{b} should contain {exact}");
        assert!(b.width() < 0.1, "{b}");
    }

    #[test]
    fn unsat_is_zero_zero() {
        let (cs, dom) = setup("var x in [0, 1]; pc x > 2;");
        let b = volcomp_bounds(&cs, &dom, &VOLCOMP_PAVER);
        assert_eq!(b, ProbBounds { lo: 0.0, hi: 0.0 });
    }

    #[test]
    fn tautology_is_one_one() {
        let (cs, dom) = setup("var x in [0, 1]; pc x >= 0;");
        let b = volcomp_bounds(&cs, &dom, &VOLCOMP_PAVER);
        assert!((b.lo - 1.0).abs() < 1e-9);
        assert!((b.hi - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hard_transcendental_falls_back_to_wide_bounds() {
        // Highly oscillatory constraint with almost no budget: bounds stay
        // valid but wide (the VOL failure mode).
        let (cs, dom) = setup("var x in [-10, 10]; var y in [-10, 10]; pc sin(x * y) > 0.25;");
        let b = volcomp_bounds(
            &cs,
            &dom,
            &PaverConfig {
                max_boxes: 2,
                ..VOLCOMP_PAVER
            },
        );
        // True probability ≈ 0.42; the interval must contain it.
        assert!(b.contains(0.42), "{b}");
        assert!(b.width() > 0.3, "{b} should be wide under a tiny budget");
    }

    #[test]
    fn disjoint_sum_and_clamp() {
        let (cs, dom) = setup("var x in [0, 1]; pc x < 0.25; pc x > 0.5;");
        let b = volcomp_bounds(&cs, &dom, &VOLCOMP_PAVER);
        assert!(b.contains(0.75), "{b}");
        // Strict inequalities leave min_width-sized undecided slivers at
        // the two boundaries.
        assert!(b.width() < 1e-3, "{b}");
    }
}
