//! Relational atoms, path conditions and constraint sets.
//!
//! A [`PathCondition`] is the conjunction of [`Atom`]s collected along one
//! symbolic-execution path; a [`ConstraintSet`] is the disjunction of the
//! path conditions reaching the target event (the paper's `PCT`). Path
//! conditions in a `ConstraintSet` are *pairwise disjoint by construction*
//! (paper §4.1) — this is what licenses the additive composition rule of
//! Theorem 1.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use crate::expr::{for_each_var, tree_count};
use crate::{Domain, Expr, VarId, VarSet};

/// Relational comparison operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl RelOp {
    /// Source syntax for the operator.
    pub fn name(self) -> &'static str {
        match self {
            RelOp::Lt => "<",
            RelOp::Le => "<=",
            RelOp::Gt => ">",
            RelOp::Ge => ">=",
            RelOp::Eq => "==",
            RelOp::Ne => "!=",
        }
    }

    /// The negated operator: `¬(a < b) ⇔ a >= b`, and so on.
    pub fn negate(self) -> RelOp {
        match self {
            RelOp::Lt => RelOp::Ge,
            RelOp::Le => RelOp::Gt,
            RelOp::Gt => RelOp::Le,
            RelOp::Ge => RelOp::Lt,
            RelOp::Eq => RelOp::Ne,
            RelOp::Ne => RelOp::Eq,
        }
    }

    /// Applies the comparison to concrete values. Comparisons involving
    /// NaN are `false` (including `!=`), so undefined computations never
    /// count as hits.
    pub fn apply(self, a: f64, b: f64) -> bool {
        if a.is_nan() || b.is_nan() {
            return false;
        }
        match self {
            RelOp::Lt => a < b,
            RelOp::Le => a <= b,
            RelOp::Gt => a > b,
            RelOp::Ge => a >= b,
            RelOp::Eq => a == b,
            RelOp::Ne => a != b,
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single relational constraint `lhs ⋈ rhs`.
///
/// # Example
///
/// ```
/// use qcoral_constraints::{Atom, Expr, RelOp, VarId};
///
/// let a = Atom::new(Expr::var(VarId(0)).sin(), RelOp::Gt, Expr::constant(0.25));
/// assert!(a.holds(&[1.0]));
/// assert!(!a.holds(&[0.0]));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Atom {
    lhs: Arc<Expr>,
    op: RelOp,
    rhs: Arc<Expr>,
}

impl Atom {
    /// Creates the atom `lhs ⋈ rhs`.
    pub fn new(lhs: impl Into<Arc<Expr>>, op: RelOp, rhs: impl Into<Arc<Expr>>) -> Atom {
        Atom {
            lhs: lhs.into(),
            op,
            rhs: rhs.into(),
        }
    }

    /// Left-hand side.
    pub fn lhs(&self) -> &Arc<Expr> {
        &self.lhs
    }

    /// Relational operator.
    pub fn op(&self) -> RelOp {
        self.op
    }

    /// Right-hand side.
    pub fn rhs(&self) -> &Arc<Expr> {
        &self.rhs
    }

    /// The logically negated atom.
    pub fn negate(&self) -> Atom {
        Atom {
            lhs: Arc::clone(&self.lhs),
            op: self.op.negate(),
            rhs: Arc::clone(&self.rhs),
        }
    }

    /// Evaluates the atom on a concrete environment. NaN on either side
    /// yields `false`.
    pub fn holds(&self, env: &[f64]) -> bool {
        self.op.apply(self.lhs.eval(env), self.rhs.eval(env))
    }

    /// The normalized form `lhs - rhs ⋈ 0`, used by the ICP contractors.
    /// If `rhs` is already the constant `0`, the lhs is returned as-is.
    pub fn normalized(&self) -> (Arc<Expr>, RelOp) {
        if matches!(*self.rhs, Expr::Const(v) if v == 0.0) {
            return (Arc::clone(&self.lhs), self.op);
        }
        (
            Arc::new(Expr::Binary(
                crate::BinOp::Sub,
                Arc::clone(&self.lhs),
                Arc::clone(&self.rhs),
            )),
            self.op,
        )
    }

    /// Adds every variable occurring in the atom to `out`. O(DAG).
    pub fn collect_vars(&self, out: &mut VarSet) {
        self.for_each_var(&mut HashSet::new(), &mut |id| {
            out.insert(id);
        });
    }

    /// Largest variable index referenced plus one. O(DAG).
    pub fn var_bound(&self) -> usize {
        var_bound_of(std::slice::from_ref(self))
    }

    /// Calls `f` on every variable occurrence of both sides, entering
    /// each operator node not yet in `seen` once.
    fn for_each_var(&self, seen: &mut HashSet<*const Expr>, f: &mut impl FnMut(VarId)) {
        for_each_var(&self.lhs, seen, f);
        for_each_var(&self.rhs, seen, f);
    }
}

/// Largest variable index referenced by any of `atoms`, plus one; one
/// walk over the union of their DAGs.
fn var_bound_of<'a>(atoms: impl IntoIterator<Item = &'a Atom>) -> usize {
    let mut bound = 0;
    let mut seen = HashSet::new();
    for atom in atoms {
        atom.for_each_var(&mut seen, &mut |id| bound = bound.max(id.index() + 1));
    }
    bound
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A conjunction of atoms: one symbolic-execution path's constraints.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct PathCondition {
    atoms: Vec<Atom>,
}

impl PathCondition {
    /// The empty (always-true) path condition.
    pub fn new() -> PathCondition {
        PathCondition::default()
    }

    /// Builds a path condition from a list of atoms.
    pub fn from_atoms(atoms: Vec<Atom>) -> PathCondition {
        PathCondition { atoms }
    }

    /// Conjoins one more atom.
    pub fn push(&mut self, atom: Atom) {
        self.atoms.push(atom);
    }

    /// The conjoined atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Returns `true` for the empty (always-true) condition.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Evaluates the conjunction on a concrete environment.
    pub fn holds(&self, env: &[f64]) -> bool {
        self.atoms.iter().all(|a| a.holds(env))
    }

    /// Adds every variable occurring in the condition to `out`. One walk
    /// over the union of the atoms' DAGs.
    pub fn collect_vars(&self, out: &mut VarSet) {
        let mut seen = HashSet::new();
        for a in &self.atoms {
            a.for_each_var(&mut seen, &mut |id| {
                out.insert(id);
            });
        }
    }

    /// Largest variable index referenced plus one. O(DAG).
    pub fn var_bound(&self) -> usize {
        var_bound_of(&self.atoms)
    }

    /// Rewrites every variable reference through `f` (see
    /// [`Expr::remap_vars`]). One memo spans all atoms, so a sub-term
    /// shared between atoms is rewritten once and stays shared.
    pub fn remap_vars(&self, f: &impl Fn(VarId) -> VarId) -> PathCondition {
        let mut memo = HashMap::new();
        PathCondition {
            atoms: self
                .atoms
                .iter()
                .map(|a| {
                    let lhs = a.lhs().remap_vars_memo(f, &mut memo);
                    Atom::new(lhs, a.op(), a.rhs().remap_vars_memo(f, &mut memo))
                })
                .collect(),
        }
    }

    /// The conjuncts that mention at least one variable in `vars` — the
    /// `extractRelatedConstraints` projection of the paper's Algorithm 2.
    /// O(DAG) per atom.
    pub fn project(&self, vars: &VarSet) -> PathCondition {
        let atoms = self
            .atoms
            .iter()
            .filter(|a| {
                let mut hit = false;
                a.for_each_var(&mut HashSet::new(), &mut |id| hit |= vars.contains(id));
                hit
            })
            .cloned()
            .collect();
        PathCondition { atoms }
    }
}

impl fmt::Display for PathCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl FromIterator<Atom> for PathCondition {
    fn from_iter<T: IntoIterator<Item = Atom>>(iter: T) -> PathCondition {
        PathCondition {
            atoms: iter.into_iter().collect(),
        }
    }
}

/// A disjunction of pairwise-disjoint path conditions: the paper's `PCT`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ConstraintSet {
    pcs: Vec<PathCondition>,
}

impl ConstraintSet {
    /// The empty (always-false) constraint set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Builds a set from a list of path conditions.
    ///
    /// The conditions are *assumed* pairwise disjoint, as guaranteed by
    /// symbolic execution; this is not checked (checking is undecidable in
    /// general). The composition rules in `qcoral` rely on it.
    pub fn from_pcs(pcs: Vec<PathCondition>) -> ConstraintSet {
        ConstraintSet { pcs }
    }

    /// Adds a path condition to the disjunction.
    pub fn push(&mut self, pc: PathCondition) {
        self.pcs.push(pc);
    }

    /// The disjuncts.
    pub fn pcs(&self) -> &[PathCondition] {
        &self.pcs
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Returns `true` for the empty (always-false) set.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Evaluates the disjunction on a concrete environment.
    pub fn holds(&self, env: &[f64]) -> bool {
        self.pcs.iter().any(|pc| pc.holds(env))
    }

    /// Total number of atoms across all path conditions (the paper's
    /// "Num. Ands" column in Table 3).
    pub fn atom_count(&self) -> usize {
        self.pcs.iter().map(PathCondition::len).sum()
    }

    /// Total number of arithmetic operation nodes across all expressions,
    /// counting every tree occurrence (the paper's "Num. Ar. Ops" column
    /// in Table 3). One memo spans the set, so the cost is O(DAG).
    pub fn op_count(&self) -> usize {
        let mut memo = HashMap::new();
        self.pcs
            .iter()
            .flat_map(|pc| pc.atoms())
            .map(|a| tree_count(a.lhs(), 0, &mut memo) + tree_count(a.rhs(), 0, &mut memo))
            .sum()
    }

    /// Largest variable index referenced plus one: one walk over the
    /// union of all path conditions' DAGs.
    pub fn var_bound(&self) -> usize {
        var_bound_of(self.pcs.iter().flat_map(|pc| pc.atoms()))
    }

    /// Keeps only the first `n` path conditions (used by the Table 4
    /// protocol, which analyses the first 70% of PCs in bounded-DFS
    /// order).
    pub fn truncate(&mut self, n: usize) {
        self.pcs.truncate(n);
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pc in &self.pcs {
            writeln!(f, "pc {pc};")?;
        }
        Ok(())
    }
}

impl FromIterator<PathCondition> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = PathCondition>>(iter: T) -> ConstraintSet {
        ConstraintSet {
            pcs: iter.into_iter().collect(),
        }
    }
}

/// Wraps an expression for display with source-level variable names taken
/// from a [`Domain`].
pub fn pretty_expr<'a>(e: &'a Expr, domain: &'a Domain) -> PrettyExpr<'a> {
    PrettyExpr { e, domain }
}

/// Display adapter returned by [`pretty_expr`].
#[derive(Debug)]
pub struct PrettyExpr<'a> {
    e: &'a Expr,
    domain: &'a Domain,
}

impl fmt::Display for PrettyExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Reuse the canonical printer, then substitute `v{i}` tokens.
        // Expression variable tokens never collide with user identifiers
        // in canonical output, so a textual pass is safe and keeps the
        // precedence logic in one place.
        let raw = self.e.to_string();
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.char_indices().peekable();
        while let Some((i, ch)) = chars.next() {
            let prev_alnum = i
                .checked_sub(1)
                .and_then(|j| raw.as_bytes().get(j))
                .map(|b| b.is_ascii_alphanumeric() || *b == b'_')
                .unwrap_or(false);
            if ch == 'v' && !prev_alnum {
                let mut digits = String::new();
                while let Some(&(_, d)) = chars.peek() {
                    if d.is_ascii_digit() {
                        digits.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if let Ok(idx) = digits.parse::<u32>() {
                    if !digits.is_empty() && (idx as usize) < self.domain.len() {
                        out.push_str(self.domain.name(crate::VarId(idx)));
                        continue;
                    }
                }
                out.push(ch);
                out.push_str(&digits);
            } else {
                out.push(ch);
            }
        }
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarId;

    fn x() -> Expr {
        Expr::var(VarId(0))
    }

    fn y() -> Expr {
        Expr::var(VarId(1))
    }

    #[test]
    fn relop_negation_is_involutive() {
        for op in [
            RelOp::Lt,
            RelOp::Le,
            RelOp::Gt,
            RelOp::Ge,
            RelOp::Eq,
            RelOp::Ne,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn relop_nan_is_false() {
        for op in [
            RelOp::Lt,
            RelOp::Le,
            RelOp::Gt,
            RelOp::Ge,
            RelOp::Eq,
            RelOp::Ne,
        ] {
            assert!(!op.apply(f64::NAN, 0.0));
            assert!(!op.apply(0.0, f64::NAN));
        }
    }

    #[test]
    fn atom_holds_and_negate() {
        let a = Atom::new(x(), RelOp::Lt, y());
        assert!(a.holds(&[0.0, 1.0]));
        assert!(!a.holds(&[1.0, 0.0]));
        let n = a.negate();
        assert!(n.holds(&[1.0, 0.0]));
        assert!(n.holds(&[1.0, 1.0]));
        // Exactly one of atom/negation holds on non-NaN inputs.
        assert!(a.holds(&[0.5, 0.6]) != n.holds(&[0.5, 0.6]));
    }

    #[test]
    fn atom_nan_semantics() {
        let a = Atom::new(x().sqrt(), RelOp::Ge, Expr::constant(0.0));
        assert!(a.holds(&[4.0]));
        assert!(!a.holds(&[-4.0])); // sqrt(-4) = NaN → false
        assert!(!a.negate().holds(&[-4.0])); // negation is also false
    }

    #[test]
    fn normalization() {
        let a = Atom::new(x(), RelOp::Le, Expr::constant(3.0));
        let (e, op) = a.normalized();
        assert_eq!(op, RelOp::Le);
        assert_eq!(e.eval(&[5.0]), 2.0);
        let already = Atom::new(x(), RelOp::Gt, Expr::constant(0.0));
        let (e2, _) = already.normalized();
        assert_eq!(e2.eval(&[5.0]), 5.0);
    }

    #[test]
    fn pc_holds_and_project() {
        let pc = PathCondition::from_atoms(vec![
            Atom::new(x(), RelOp::Gt, Expr::constant(0.0)),
            Atom::new(y(), RelOp::Lt, Expr::constant(1.0)),
            Atom::new(x().add(y()), RelOp::Le, Expr::constant(1.0)),
        ]);
        assert!(pc.holds(&[0.4, 0.5]));
        assert!(!pc.holds(&[0.4, 2.0]));
        let mut xs = VarSet::new(2);
        xs.insert(VarId(0));
        let proj = pc.project(&xs);
        assert_eq!(proj.len(), 2); // x > 0 and x + y <= 1 both mention x
    }

    #[test]
    fn constraint_set_holds_any() {
        let cs = ConstraintSet::from_pcs(vec![
            PathCondition::from_atoms(vec![Atom::new(x(), RelOp::Gt, Expr::constant(0.5))]),
            PathCondition::from_atoms(vec![
                Atom::new(x(), RelOp::Le, Expr::constant(0.5)),
                Atom::new(y(), RelOp::Gt, Expr::constant(0.0)),
            ]),
        ]);
        assert!(cs.holds(&[0.6, -1.0]));
        assert!(cs.holds(&[0.1, 0.5]));
        assert!(!cs.holds(&[0.1, -0.5]));
        assert_eq!(cs.atom_count(), 3);
    }

    #[test]
    fn op_count_counts_internal_nodes() {
        // sin(x*y) > 0.25 : lhs has sin + mul = 2 operation nodes
        let cs = ConstraintSet::from_pcs(vec![PathCondition::from_atoms(vec![Atom::new(
            x().mul(y()).sin(),
            RelOp::Gt,
            Expr::constant(0.25),
        )])]);
        assert_eq!(cs.op_count(), 2);
    }

    #[test]
    fn display_forms() {
        let a = Atom::new(x(), RelOp::Le, Expr::constant(9000.0));
        assert_eq!(a.to_string(), "v0 <= 9000");
        let pc = PathCondition::from_atoms(vec![a.clone(), Atom::new(y(), RelOp::Gt, x())]);
        assert_eq!(pc.to_string(), "v0 <= 9000 && v1 > v0");
        assert_eq!(PathCondition::new().to_string(), "true");
    }

    #[test]
    fn pretty_expr_substitutes_names() {
        let mut d = Domain::new();
        d.declare("headFlap", -10.0, 10.0).unwrap();
        d.declare("tailFlap", -10.0, 10.0).unwrap();
        let e = x().mul(y()).sin();
        assert_eq!(pretty_expr(&e, &d).to_string(), "sin(headFlap * tailFlap)");
    }
}
