//! HC4 contractors over conjunctions of atoms.
//!
//! A [`Contractor`] holds one compiled conjunction, an [`EvalTape`]: the
//! unified tape IR whose node pool the scalar, columnar and interval
//! evaluators all run over. It offers two operations used by the paver
//! and the analyses:
//!
//! * [`Contractor::contract`] — shrink a box without losing any solution
//!   (HC4-revise per atom, iterated to a fixpoint),
//! * [`Contractor::certainty`] — classify a box as certainly satisfying,
//!   certainly violating, or undecided.
//!
//! Both also come batched: [`Contractor::contract_classify_with`]
//! narrows and classifies many candidate boxes per dispatch through the
//! tape's structure-of-arrays kernels; the branch-and-prune paver feeds
//! whole work batches through one call.

use std::sync::Arc;

use qcoral_constraints::{EvalTape, IvalScratch, PathCondition, RelOp};
use qcoral_interval::{Interval, IntervalBox};

/// Reusable working memory for [`Contractor::contract_with`] and
/// [`Contractor::certainty_with`]. The branch-and-prune loop contracts
/// thousands of boxes per paving; reusing one scratch across calls keeps
/// the hot path allocation-free after warm-up.
#[derive(Debug, Default)]
pub struct ContractScratch {
    ival: IvalScratch,
}

impl ContractScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> ContractScratch {
        ContractScratch::default()
    }
}

/// Three-valued verdict for a box against a constraint.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Tri {
    /// Every point of the box satisfies the constraint.
    True,
    /// No point of the box satisfies the constraint.
    False,
    /// The box may contain both solutions and non-solutions.
    Unknown,
}

impl Tri {
    /// Three-valued conjunction.
    pub fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::False, _) | (_, Tri::False) => Tri::False,
            (Tri::True, Tri::True) => Tri::True,
            _ => Tri::Unknown,
        }
    }
}

/// A compiled conjunction of atoms with HC4 forward/backward machinery.
#[derive(Clone, Debug)]
pub struct Contractor {
    tape: Arc<EvalTape>,
    nvars: usize,
    max_passes: usize,
}

impl Contractor {
    /// Compiles the atoms of `pc` for a domain with `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if the condition references a variable index `≥ nvars`.
    pub fn new(pc: &PathCondition, nvars: usize) -> Contractor {
        Contractor::from_tape(Arc::new(EvalTape::compile(pc)), nvars)
    }

    /// A contractor over an already compiled conjunction, sharing its
    /// node pool.
    ///
    /// # Panics
    ///
    /// Panics if the tape reads a variable index `≥ nvars`.
    pub(crate) fn from_tape(tape: Arc<EvalTape>, nvars: usize) -> Contractor {
        assert!(
            tape.var_bound() <= nvars,
            "path condition references variable beyond domain ({} > {nvars})",
            tape.var_bound()
        );
        Contractor {
            tape,
            nvars,
            max_passes: 8,
        }
    }

    /// Sets the fixpoint pass limit (default 8).
    pub fn with_max_passes(mut self, passes: usize) -> Contractor {
        self.max_passes = passes.max(1);
        self
    }

    /// Number of compiled atoms.
    pub fn len(&self) -> usize {
        self.tape.atom_nodes().len()
    }

    /// Returns `true` if the conjunction has no atoms, so every box
    /// satisfies it.
    pub fn is_empty(&self) -> bool {
        self.tape.is_empty()
    }

    /// Number of domain variables the contractor was compiled for.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Narrows `boxed` in place without losing any solution of the
    /// conjunction. Returns `false` if the box was proven to contain no
    /// solution (the box is left in an empty state).
    ///
    /// Allocates fresh working memory per call; hot loops should hold a
    /// [`ContractScratch`] and use [`Contractor::contract_with`].
    ///
    /// # Panics
    ///
    /// Panics if `boxed.ndim() != self.nvars()`.
    pub fn contract(&self, boxed: &mut IntervalBox) -> bool {
        self.contract_with(boxed, &mut ContractScratch::new())
    }

    /// [`Contractor::contract`] with caller-provided working memory.
    pub fn contract_with(&self, boxed: &mut IntervalBox, scratch: &mut ContractScratch) -> bool {
        assert_eq!(boxed.ndim(), self.nvars, "contract: dimension mismatch");
        self.tape
            .contract(boxed, self.max_passes, &mut scratch.ival)
    }

    /// Classifies the box: [`Tri::True`] if every point satisfies the
    /// whole conjunction, [`Tri::False`] if no point satisfies it,
    /// [`Tri::Unknown`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `boxed.ndim() != self.nvars()`.
    pub fn certainty(&self, boxed: &IntervalBox) -> Tri {
        self.certainty_with(boxed, &mut ContractScratch::new())
    }

    /// [`Contractor::certainty`] with caller-provided working memory.
    pub fn certainty_with(&self, boxed: &IntervalBox, scratch: &mut ContractScratch) -> Tri {
        assert_eq!(boxed.ndim(), self.nvars, "certainty: dimension mismatch");
        self.tape
            .eval_atoms_batch(std::slice::from_ref(boxed), &mut scratch.ival);
        self.classify_lane(0, &scratch.ival)
    }

    /// Contracts a whole batch of boxes and classifies each survivor, in
    /// one structure-of-arrays dispatch per tape node. `verdicts[i]`
    /// reports box `i`: [`Tri::False`] when it was proven solution-free
    /// (its box is emptied in place, exactly like a failing
    /// [`Contractor::contract_with`]), otherwise the certainty of the
    /// *contracted* box. This is the paver's bulk kernel: narrowing and
    /// classifying N boxes costs one pass over the node pool per atom
    /// instead of N.
    ///
    /// # Panics
    ///
    /// Panics if any box's dimension count differs from
    /// [`Contractor::nvars`].
    pub fn contract_classify_with(
        &self,
        boxes: &mut [IntervalBox],
        verdicts: &mut Vec<Tri>,
        scratch: &mut ContractScratch,
    ) {
        verdicts.clear();
        if boxes.is_empty() {
            return;
        }
        for bx in boxes.iter() {
            assert_eq!(bx.ndim(), self.nvars, "contract batch: dimension mismatch");
        }
        self.tape
            .contract_batch(boxes, self.max_passes, &mut scratch.ival);
        // Certainty needs clean (un-narrowed) operand images over the
        // contracted boxes; the batch shapes match, so lane sat-flags
        // survive this second dispatch.
        self.tape.eval_atoms_batch(boxes, &mut scratch.ival);
        for ln in 0..boxes.len() {
            if !scratch.ival.sat(ln) {
                verdicts.push(Tri::False);
            } else {
                verdicts.push(self.classify_lane(ln, &scratch.ival));
            }
        }
    }

    /// Folds per-atom certainties for one lane of the scratch's images.
    fn classify_lane(&self, lane: usize, scratch: &IvalScratch) -> Tri {
        let mut acc = Tri::True;
        for (k, &(_, op, _)) in self.tape.atom_nodes().iter().enumerate() {
            let (l, r) = scratch.image(k, lane);
            acc = acc.and(atom_certainty(l, op, r));
            if acc == Tri::False {
                return Tri::False;
            }
        }
        acc
    }
}

/// Certainty of `l ⋈ r` given the interval images of the two operands
/// over a box. An empty image means the operand is undefined on the
/// whole box, which can never satisfy an atom (NaN semantics). Working
/// on the operand images directly (rather than the sign of `l − r`)
/// avoids the subtraction's outward rounding.
fn atom_certainty(l: Interval, op: RelOp, r: Interval) -> Tri {
    if l.is_empty() || r.is_empty() {
        return Tri::False;
    }
    let disjoint = l.hi() < r.lo() || r.hi() < l.lo();
    let same_point = l.is_point() && r.is_point() && l.lo() == r.lo();
    match op {
        RelOp::Lt => {
            if l.hi() < r.lo() {
                Tri::True
            } else if l.lo() >= r.hi() {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        RelOp::Le => {
            if l.hi() <= r.lo() {
                Tri::True
            } else if l.lo() > r.hi() {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        RelOp::Gt => {
            if l.lo() > r.hi() {
                Tri::True
            } else if l.hi() <= r.lo() {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        RelOp::Ge => {
            if l.lo() >= r.hi() {
                Tri::True
            } else if l.hi() < r.lo() {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        RelOp::Eq => {
            if same_point {
                Tri::True
            } else if disjoint {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        RelOp::Ne => {
            if disjoint {
                Tri::True
            } else if same_point {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;
    use qcoral_constraints::Domain;

    fn pc_and_dom(src: &str) -> (PathCondition, Domain, IntervalBox) {
        let sys = parse_system(src).unwrap();
        let dom_box = crate::domain_box(&sys.domain);
        (sys.constraint_set.pcs()[0].clone(), sys.domain, dom_box)
    }

    #[test]
    fn tri_and_truth_table() {
        assert_eq!(Tri::True.and(Tri::True), Tri::True);
        assert_eq!(Tri::True.and(Tri::Unknown), Tri::Unknown);
        assert_eq!(Tri::Unknown.and(Tri::False), Tri::False);
        assert_eq!(Tri::False.and(Tri::True), Tri::False);
    }

    #[test]
    fn contract_simple_bounds() {
        let (pc, dom, mut b) = pc_and_dom("var x in [0, 20000]; pc x > 9000;");
        let c = Contractor::new(&pc, dom.len());
        assert!(c.contract(&mut b));
        // x narrows to roughly [9000, 20000].
        assert!(b[0].lo() >= 8999.0, "{}", b[0]);
        assert!(b[0].hi() <= 20000.0);
    }

    #[test]
    fn contract_conjunction_to_small_region() {
        let (pc, dom, mut b) =
            pc_and_dom("var x in [0, 10]; var y in [0, 10]; pc x + y <= 2 && x >= 1 && y >= 0.5;");
        let c = Contractor::new(&pc, dom.len());
        assert!(c.contract(&mut b));
        assert!(b[0].lo() >= 0.99 && b[0].hi() <= 1.51, "{}", b[0]);
        assert!(b[1].lo() >= 0.49 && b[1].hi() <= 1.01, "{}", b[1]);
    }

    #[test]
    fn contract_detects_unsat() {
        let (pc, dom, mut b) = pc_and_dom("var x in [0, 1]; pc x > 2;");
        let c = Contractor::new(&pc, dom.len());
        assert!(!c.contract(&mut b));
        assert!(b.is_empty());
    }

    #[test]
    fn contract_nonlinear() {
        let (pc, dom, mut b) = pc_and_dom("var x in [-10, 10]; pc x * x <= 4 && x >= 0;");
        let c = Contractor::new(&pc, dom.len());
        assert!(c.contract(&mut b));
        assert!(b[0].lo() >= -0.001 && b[0].hi() <= 2.3, "{}", b[0]);
    }

    #[test]
    fn contract_undefined_everywhere_is_unsat() {
        let (pc, dom, mut b) = pc_and_dom("var x in [-5, -1]; pc sqrt(x) >= 0;");
        let c = Contractor::new(&pc, dom.len());
        assert!(!c.contract(&mut b));
    }

    #[test]
    fn certainty_true_false_unknown() {
        let (pc, dom, b) = pc_and_dom("var x in [0, 1]; pc x >= 0;");
        let c = Contractor::new(&pc, dom.len());
        assert_eq!(c.certainty(&b), Tri::True);

        let (pc2, dom2, b2) = pc_and_dom("var x in [0, 1]; pc x > 2;");
        let c2 = Contractor::new(&pc2, dom2.len());
        assert_eq!(c2.certainty(&b2), Tri::False);

        let (pc3, dom3, b3) = pc_and_dom("var x in [0, 1]; pc x > 0.5;");
        let c3 = Contractor::new(&pc3, dom3.len());
        assert_eq!(c3.certainty(&b3), Tri::Unknown);
    }

    #[test]
    fn certainty_strict_vs_nonstrict_boundary() {
        // x ∈ [1, 2]: x >= 1 certainly true; x > 1 unknown (boundary).
        let (pc, dom, b) = pc_and_dom("var x in [1, 2]; pc x >= 1;");
        let c = Contractor::new(&pc, dom.len());
        assert_eq!(c.certainty(&b), Tri::True);
        let (pc2, dom2, b2) = pc_and_dom("var x in [1, 2]; pc x > 1;");
        let c2 = Contractor::new(&pc2, dom2.len());
        assert_eq!(c2.certainty(&b2), Tri::Unknown);
    }

    #[test]
    fn certainty_ne() {
        let (pc, dom, b) = pc_and_dom("var x in [1, 2]; pc x != 0;");
        let c = Contractor::new(&pc, dom.len());
        assert_eq!(c.certainty(&b), Tri::True);
        let (pc2, dom2, b2) = pc_and_dom("var x in [-1, 1]; pc x != 0;");
        let c2 = Contractor::new(&pc2, dom2.len());
        assert_eq!(c2.certainty(&b2), Tri::Unknown);
    }

    #[test]
    fn empty_conjunction_is_certainly_true() {
        let c = Contractor::new(&PathCondition::new(), 1);
        let b: IntervalBox = [Interval::new(0.0, 1.0)].into_iter().collect();
        assert_eq!(c.certainty(&b), Tri::True);
        let mut bb = b.clone();
        assert!(c.contract(&mut bb));
        assert_eq!(bb, b);
    }

    #[test]
    fn contract_never_loses_solutions_spot_check() {
        // Triangle constraint from the paper's Figure 2.
        let (pc, dom, mut b) =
            pc_and_dom("var x in [-1, 1]; var y in [-1, 1]; pc x <= -y && y <= x;");
        let c = Contractor::new(&pc, dom.len());
        assert!(c.contract(&mut b));
        // Known solutions must survive contraction. The triangle is
        // y ≤ 0 with |x| ≤ −y (x between y and −y).
        for &(px, py) in &[(0.5, -0.7), (-0.3, -0.5), (0.1, -0.2), (0.0, 0.0)] {
            assert!(pc.holds(&[px, py]));
            assert!(b.contains_point(&[px, py]), "{b} lost ({px}, {py})");
        }
    }

    #[test]
    fn transcendental_contraction() {
        let (pc, dom, mut b) = pc_and_dom("var x in [0, 6.283185307179586]; pc sin(x) > 0.9;");
        let c = Contractor::new(&pc, dom.len());
        assert!(c.contract(&mut b));
        // Solutions are around π/2 (≈ [1.12, 2.02]).
        assert!(b[0].lo() > 0.9 && b[0].hi() < 2.3, "{}", b[0]);
        let mid = std::f64::consts::FRAC_PI_2;
        assert!(b.contains_point(&[mid]));
    }

    #[test]
    fn batch_contract_classify_matches_serial() {
        let (pc, dom, b) = pc_and_dom("var x in [-1, 1]; var y in [-1, 1]; pc x * x + y * y <= 1;");
        let c = Contractor::new(&pc, dom.len());
        // A spread of sub-boxes: inner, outer, straddling, and the domain.
        let quarter = |lo: f64, hi: f64| -> IntervalBox {
            [Interval::new(lo, hi), Interval::new(lo, hi)]
                .into_iter()
                .collect()
        };
        let cases = vec![
            b.clone(),
            quarter(-0.5, 0.5),
            quarter(0.9, 1.0),
            quarter(0.0, 1.0),
            quarter(-0.1, 0.1),
        ];
        let mut scratch = ContractScratch::new();
        // Serial reference: contract + certainty one box at a time.
        let mut serial_boxes = cases.clone();
        let mut serial: Vec<Tri> = Vec::new();
        for bx in &mut serial_boxes {
            if !c.contract_with(bx, &mut scratch) {
                serial.push(Tri::False);
            } else {
                serial.push(c.certainty_with(bx, &mut scratch));
            }
        }
        let mut batch_boxes = cases;
        let mut verdicts = Vec::new();
        c.contract_classify_with(&mut batch_boxes, &mut verdicts, &mut scratch);
        assert_eq!(verdicts, serial);
        for (sb, bb) in serial_boxes.iter().zip(&batch_boxes) {
            assert_eq!(sb, bb, "batched contraction must be bit-identical");
        }
    }

    #[test]
    fn batch_classify_empty_conjunction() {
        let c = Contractor::new(&PathCondition::new(), 1);
        let mut boxes: Vec<IntervalBox> = vec![[Interval::new(0.0, 1.0)].into_iter().collect()];
        let mut verdicts = Vec::new();
        c.contract_classify_with(&mut boxes, &mut verdicts, &mut ContractScratch::new());
        assert_eq!(verdicts, vec![Tri::True]);
    }
}
