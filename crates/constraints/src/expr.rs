//! Arithmetic expressions over input variables.
//!
//! Expressions are immutable DAGs: operands are [`Arc`]s, and the symbolic
//! executor substitutes state by pointer, so one sub-expression can be
//! shared by many parents. Three rules keep that sharing cheap:
//!
//! * every rewrite ([`Expr::substitute_fold`], [`Expr::fold`],
//!   [`Expr::remap_vars`]) preserves sharing — a shared node is rewritten
//!   once and an unchanged node is returned as the same `Arc`;
//! * every analysis walk ([`Expr::collect_vars`], [`Expr::var_bound`],
//!   [`Expr::size`], [`Expr::op_count`], and the fingerprint and tape
//!   compiler in [`crate::ctape`]) enters each shared node once, so it
//!   costs O(DAG) even where the *tree* is exponentially larger;
//! * [`Expr::eval`], `Hash`, `PartialEq` and `Display` keep tree
//!   semantics: they are the reference meaning, and hot paths use
//!   [`crate::EvalTape`] and [`crate::expr_fingerprint`] instead.
//!
//! `size` and `op_count` report *tree* counts (the paper's "Num. Ar. Ops"
//! counts every occurrence), computed as memoized multiplicities.
//!
//! The function inventory matches what the paper's subjects exercise:
//! the four arithmetic operators plus `sin`, `cos`, `tan`, `asin`,
//! `acos`, `atan`, `atan2`, `sqrt`, `exp`, `ln`, `pow`, `abs`, `min`,
//! `max` (§6.3 lists `cos`, `pow`, `sin`, `sqrt`, `tan`, `atan2` for
//! TSAFE; Apollo uses `sqrt`).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::VarId;

/// Unary operators and functions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Sine (radians).
    Sin,
    /// Cosine (radians).
    Cos,
    /// Tangent (radians).
    Tan,
    /// Arcsine.
    Asin,
    /// Arccosine.
    Acos,
    /// Arctangent.
    Atan,
}

impl UnOp {
    /// The source-syntax function name (`-` for negation).
    pub fn name(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Abs => "abs",
            UnOp::Sqrt => "sqrt",
            UnOp::Exp => "exp",
            UnOp::Ln => "ln",
            UnOp::Sin => "sin",
            UnOp::Cos => "cos",
            UnOp::Tan => "tan",
            UnOp::Asin => "asin",
            UnOp::Acos => "acos",
            UnOp::Atan => "atan",
        }
    }

    /// Applies the operator to a concrete value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnOp::Neg => -x,
            UnOp::Abs => x.abs(),
            UnOp::Sqrt => x.sqrt(),
            UnOp::Exp => x.exp(),
            UnOp::Ln => x.ln(),
            UnOp::Sin => x.sin(),
            UnOp::Cos => x.cos(),
            UnOp::Tan => x.tan(),
            UnOp::Asin => x.asin(),
            UnOp::Acos => x.acos(),
            UnOp::Atan => x.atan(),
        }
    }
}

/// Binary operators and two-argument functions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Power `x^y`.
    Pow,
    /// Two-argument minimum.
    Min,
    /// Two-argument maximum.
    Max,
    /// Two-argument arctangent `atan2(y, x)`.
    Atan2,
}

impl BinOp {
    /// The source-syntax operator symbol or function name.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Atan2 => "atan2",
        }
    }

    /// Applies the operator to concrete values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Pow => a.powf(b),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::Atan2 => a.atan2(b),
        }
    }

    /// Returns `true` for operators printed infix (`+ - * / ^`), `false`
    /// for two-argument functions (`min`, `max`, `atan2`).
    pub fn is_infix(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Pow
        )
    }
}

/// An arithmetic expression: a DAG whose operands are shared [`Arc`]s.
///
/// # Example
///
/// ```
/// use qcoral_constraints::{Expr, VarId};
///
/// // sin(x * y) with x = v0, y = v1
/// let e = Expr::var(VarId(0)).mul(Expr::var(VarId(1))).sin();
/// assert!((e.eval(&[1.0, 2.0]) - 2.0f64.sin()).abs() < 1e-12);
/// assert_eq!(e.to_string(), "sin(v0 * v1)");
/// ```
#[derive(Clone, Debug)]
pub enum Expr {
    /// A floating-point literal.
    Const(f64),
    /// An input variable.
    Var(VarId),
    /// A unary operator application.
    Unary(UnOp, Arc<Expr>),
    /// A binary operator application.
    Binary(BinOp, Arc<Expr>, Arc<Expr>),
}

impl Expr {
    /// Creates a constant expression.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn constant(v: f64) -> Expr {
        assert!(!v.is_nan(), "NaN constant in expression");
        Expr::Const(v)
    }

    /// Creates a variable reference.
    pub fn var(id: VarId) -> Expr {
        Expr::Var(id)
    }

    /// Applies a unary operator.
    pub fn unary(op: UnOp, e: impl Into<Arc<Expr>>) -> Expr {
        Expr::Unary(op, e.into())
    }

    /// Applies a binary operator.
    pub fn binary(op: BinOp, a: impl Into<Arc<Expr>>, b: impl Into<Arc<Expr>>) -> Expr {
        Expr::Binary(op, a.into(), b.into())
    }

    /// Evaluates the expression on a concrete environment indexed by
    /// [`VarId`]. May return NaN or ±∞ (e.g. `sqrt` of a negative value);
    /// relational atoms treat NaN as "does not satisfy".
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range for `env`.
    pub fn eval(&self, env: &[f64]) -> f64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Var(id) => env[id.index()],
            Expr::Unary(op, e) => op.apply(e.eval(env)),
            Expr::Binary(op, a, b) => op.apply(a.eval(env), b.eval(env)),
        }
    }

    /// The operands of an operator node, `[None, None]` for a leaf.
    fn operands(&self) -> [Option<&Arc<Expr>>; 2] {
        match self {
            Expr::Const(_) | Expr::Var(_) => [None, None],
            Expr::Unary(_, e) => [Some(e), None],
            Expr::Binary(_, a, b) => [Some(a), Some(b)],
        }
    }

    /// Adds every variable occurring in the expression to `out`.
    /// O(DAG): each shared sub-term is entered once.
    pub fn collect_vars(&self, out: &mut crate::VarSet) {
        for_each_var(self, &mut HashSet::new(), &mut |id| {
            out.insert(id);
        });
    }

    /// Largest variable index referenced, plus one (the minimum
    /// environment length needed to evaluate). `0` if no variables occur.
    /// O(DAG).
    pub fn var_bound(&self) -> usize {
        let mut bound = 0;
        for_each_var(self, &mut HashSet::new(), &mut |id| {
            bound = bound.max(id.index() + 1);
        });
        bound
    }

    /// Number of nodes in the expression *tree* (a sub-term shared `k`
    /// times counts `k` times), computed in O(DAG).
    pub fn size(&self) -> usize {
        tree_count(self, 1, &mut HashMap::new())
    }

    /// Number of operation (non-leaf) nodes in the expression *tree*
    /// (the paper's "Num. Ar. Ops" counts every occurrence), computed in
    /// O(DAG).
    pub fn op_count(&self) -> usize {
        tree_count(self, 0, &mut HashMap::new())
    }

    /// Replaces every variable occurrence with the expression given by
    /// `store` (indexed by `VarId`) and constant-folds the result — the
    /// symbolic executor's step that keeps program state as folded
    /// expressions over the *input* variables.
    ///
    /// Every `store` value must already be folded (as the executor's
    /// store always is). Then, because [`Expr::fold`] is idempotent, only
    /// the nodes of `self` need folding: a variable becomes the store's
    /// `Arc` itself, so the result shares every store sub-term and costs
    /// O(`self`), however large the store's expressions are.
    pub fn substitute_fold(&self, store: &[Arc<Expr>]) -> Arc<Expr> {
        let node = match self {
            Expr::Const(_) => self.clone(),
            Expr::Var(id) => return Arc::clone(&store[id.index()]),
            Expr::Unary(op, e) => Expr::Unary(*op, e.substitute_fold(store)),
            Expr::Binary(op, a, b) => {
                Expr::Binary(*op, a.substitute_fold(store), b.substitute_fold(store))
            }
        };
        Arc::new(match node.folded_value() {
            Some(v) => Expr::Const(v),
            None => node,
        })
    }

    /// Rewrites every variable reference through `f`. Used to re-index a
    /// projected constraint onto a dense local variable space. O(DAG);
    /// the result keeps the input's sharing.
    pub fn remap_vars(self: &Arc<Self>, f: &impl Fn(VarId) -> VarId) -> Arc<Expr> {
        self.remap_vars_memo(f, &mut HashMap::new())
    }

    /// [`Expr::remap_vars`] with a caller-held memo, so several
    /// expressions (the atoms of one condition) share one rewrite.
    pub(crate) fn remap_vars_memo(
        self: &Arc<Self>,
        f: &impl Fn(VarId) -> VarId,
        memo: &mut RewriteMemo,
    ) -> Arc<Expr> {
        let leaf = |e: &Arc<Expr>| match **e {
            Expr::Var(id) => {
                let to = f(id);
                if to == id {
                    Arc::clone(e)
                } else {
                    Arc::new(Expr::Var(to))
                }
            }
            _ => Arc::clone(e),
        };
        rewrite(self, memo, &leaf, false)
    }

    /// Constant-folds the expression bottom-up. Folding uses ordinary
    /// `f64` arithmetic; sub-expressions that fold to NaN are left intact
    /// so the (NaN ⇒ unsatisfied) evaluation semantics are preserved.
    /// O(DAG); returns `self` itself when nothing folds, and otherwise
    /// shares every sub-term that does not change.
    pub fn fold(self: &Arc<Self>) -> Arc<Expr> {
        rewrite(self, &mut HashMap::new(), &Arc::clone, true)
    }

    /// The constant an operator node over already-folded operands folds
    /// to: `Some` when every operand is a constant and the result is not
    /// NaN.
    fn folded_value(&self) -> Option<f64> {
        let r = match self {
            Expr::Unary(op, e) => match **e {
                Expr::Const(v) => op.apply(v),
                _ => return None,
            },
            Expr::Binary(op, a, b) => match (&**a, &**b) {
                (Expr::Const(x), Expr::Const(y)) => op.apply(*x, *y),
                _ => return None,
            },
            Expr::Const(_) | Expr::Var(_) => return None,
        };
        (!r.is_nan()).then_some(r)
    }

    // -------------------------------------------------------------
    // Builder methods (fluent DSL). These take `self` by value; `Expr`
    // clones are cheap because children are `Arc`-shared.
    // -------------------------------------------------------------

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Add, self, rhs)
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Sub, self, rhs)
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Mul, self, rhs)
    }

    /// `self / rhs`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Div, self, rhs)
    }

    /// `self ^ rhs`.
    pub fn pow(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Pow, self, rhs)
    }

    /// `min(self, rhs)`.
    pub fn min_e(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Min, self, rhs)
    }

    /// `max(self, rhs)`.
    pub fn max_e(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Max, self, rhs)
    }

    /// `atan2(self, rhs)` — `self` is the y-coordinate.
    pub fn atan2(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Atan2, self, rhs)
    }

    /// `-self`.
    pub fn neg(self) -> Expr {
        Expr::unary(UnOp::Neg, self)
    }

    /// `abs(self)`.
    pub fn abs(self) -> Expr {
        Expr::unary(UnOp::Abs, self)
    }

    /// `sqrt(self)`.
    pub fn sqrt(self) -> Expr {
        Expr::unary(UnOp::Sqrt, self)
    }

    /// `exp(self)`.
    pub fn exp(self) -> Expr {
        Expr::unary(UnOp::Exp, self)
    }

    /// `ln(self)`.
    pub fn ln(self) -> Expr {
        Expr::unary(UnOp::Ln, self)
    }

    /// `sin(self)`.
    pub fn sin(self) -> Expr {
        Expr::unary(UnOp::Sin, self)
    }

    /// `cos(self)`.
    pub fn cos(self) -> Expr {
        Expr::unary(UnOp::Cos, self)
    }

    /// `tan(self)`.
    pub fn tan(self) -> Expr {
        Expr::unary(UnOp::Tan, self)
    }

    /// `asin(self)`.
    pub fn asin(self) -> Expr {
        Expr::unary(UnOp::Asin, self)
    }

    /// `acos(self)`.
    pub fn acos(self) -> Expr {
        Expr::unary(UnOp::Acos, self)
    }

    /// `atan(self)`.
    pub fn atan(self) -> Expr {
        Expr::unary(UnOp::Atan, self)
    }

    fn precedence(&self) -> u8 {
        match self {
            Expr::Const(v) if *v < 0.0 => 1,
            Expr::Const(_) | Expr::Var(_) => 4,
            Expr::Unary(UnOp::Neg, _) => 1,
            Expr::Unary(..) => 4,
            Expr::Binary(op, ..) if op.is_infix() => match op {
                BinOp::Add | BinOp::Sub => 1,
                BinOp::Mul | BinOp::Div => 2,
                BinOp::Pow => 3,
                _ => unreachable!(),
            },
            Expr::Binary(..) => 4,
        }
    }
}

/// Pointer memo of a sharing-preserving rewrite: each node entered, by
/// address, maps to its rewritten form. The addresses stay valid because
/// the expressions being rewritten outlive the memo.
pub(crate) type RewriteMemo = HashMap<*const Expr, Arc<Expr>>;

/// Rebuilds `e` bottom-up, entering each shared node once. Leaves go
/// through `leaf`; operator nodes are rebuilt over their rewritten
/// operands and, with `fold`, replaced by the constant they fold to. A
/// node whose operands all come back unchanged (and that does not fold)
/// is returned as the original `Arc`, so the result shares every
/// untouched sub-term with `e`.
fn rewrite(
    e: &Arc<Expr>,
    memo: &mut RewriteMemo,
    leaf: &impl Fn(&Arc<Expr>) -> Arc<Expr>,
    fold: bool,
) -> Arc<Expr> {
    let key = Arc::as_ptr(e);
    if let Some(done) = memo.get(&key) {
        return Arc::clone(done);
    }
    let mut out = match &**e {
        Expr::Const(_) | Expr::Var(_) => leaf(e),
        Expr::Unary(op, c) => {
            let c2 = rewrite(c, memo, leaf, fold);
            if Arc::ptr_eq(&c2, c) {
                Arc::clone(e)
            } else {
                Arc::new(Expr::Unary(*op, c2))
            }
        }
        Expr::Binary(op, a, b) => {
            let a2 = rewrite(a, memo, leaf, fold);
            let b2 = rewrite(b, memo, leaf, fold);
            if Arc::ptr_eq(&a2, a) && Arc::ptr_eq(&b2, b) {
                Arc::clone(e)
            } else {
                Arc::new(Expr::Binary(*op, a2, b2))
            }
        }
    };
    if fold {
        if let Some(v) = out.folded_value() {
            out = Arc::new(Expr::Const(v));
        }
    }
    memo.insert(key, Arc::clone(&out));
    out
}

/// Calls `f` on every variable occurrence of `e`, entering each operator
/// node at most once: `seen` holds the operator nodes already entered
/// (leaves are O(1) and skip it). One `seen` set may span several
/// expressions to walk their union once.
pub(crate) fn for_each_var(e: &Expr, seen: &mut HashSet<*const Expr>, f: &mut impl FnMut(VarId)) {
    match e {
        Expr::Const(_) => {}
        Expr::Var(id) => f(*id),
        Expr::Unary(..) | Expr::Binary(..) => {
            if seen.insert(e) {
                for c in e.operands().into_iter().flatten() {
                    for_each_var(c, seen, f);
                }
            }
        }
    }
}

/// Tree-semantics node count of `e` — `leaf` per leaf occurrence plus
/// one per operator occurrence — memoized per operator node in `memo`,
/// so the walk is O(DAG). Saturates instead of overflowing on DAGs whose
/// tree exceeds `usize`.
pub(crate) fn tree_count(e: &Expr, leaf: usize, memo: &mut HashMap<*const Expr, usize>) -> usize {
    if e.operands()[0].is_none() {
        return leaf;
    }
    let key: *const Expr = e;
    if let Some(&n) = memo.get(&key) {
        return n;
    }
    let n = e
        .operands()
        .into_iter()
        .flatten()
        .fold(1usize, |n, c| n.saturating_add(tree_count(c, leaf, memo)));
    memo.insert(key, n);
    n
}

impl From<f64> for Expr {
    /// Wraps a finite literal as a constant expression.
    ///
    /// # Panics
    ///
    /// Panics if the value is NaN.
    fn from(v: f64) -> Expr {
        Expr::constant(v)
    }
}

impl From<VarId> for Expr {
    fn from(id: VarId) -> Expr {
        Expr::Var(id)
    }
}

impl PartialEq for Expr {
    /// Structural equality; constants compare by bit pattern so that the
    /// relation is a proper equivalence (consistent with the [`Hash`]
    /// impl) and usable as a cache key.
    fn eq(&self, other: &Expr) -> bool {
        match (self, other) {
            (Expr::Const(a), Expr::Const(b)) => a.to_bits() == b.to_bits(),
            (Expr::Var(a), Expr::Var(b)) => a == b,
            (Expr::Unary(o1, e1), Expr::Unary(o2, e2)) => o1 == o2 && e1 == e2,
            (Expr::Binary(o1, a1, b1), Expr::Binary(o2, a2, b2)) => {
                o1 == o2 && a1 == a2 && b1 == b2
            }
            _ => false,
        }
    }
}

impl Eq for Expr {}

impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Expr::Const(v) => v.to_bits().hash(state),
            Expr::Var(id) => id.hash(state),
            Expr::Unary(op, e) => {
                op.hash(state);
                e.hash(state);
            }
            Expr::Binary(op, a, b) => {
                op.hash(state);
                a.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Expr {
    /// Prints in the surface syntax accepted by the parser, with minimal
    /// parenthesisation. Variables print as `v{index}`; use
    /// [`crate::atom::pretty_expr`] for named output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_child(
            f: &mut fmt::Formatter<'_>,
            child: &Expr,
            parent_prec: u8,
            tighten: bool,
        ) -> fmt::Result {
            let child_prec = child.precedence();
            let needs_parens = child_prec < parent_prec || (tighten && child_prec == parent_prec);
            if needs_parens {
                write!(f, "({child})")
            } else {
                write!(f, "{child}")
            }
        }

        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(id) => write!(f, "{id}"),
            Expr::Unary(UnOp::Neg, e) => {
                write!(f, "-")?;
                write_child(f, e, 3, false)
            }
            Expr::Unary(op, e) => write!(f, "{}({e})", op.name()),
            Expr::Binary(op, a, b) if op.is_infix() => {
                let prec = self.precedence();
                write_child(f, a, prec, false)?;
                write!(f, " {} ", op.name())?;
                // Right child needs parens at equal precedence for the
                // left-associative operators (a - (b - c)).
                write_child(f, b, prec, matches!(op, BinOp::Sub | BinOp::Div))
            }
            Expr::Binary(op, a, b) => write!(f, "{}({a}, {b})", op.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarSet;

    fn x() -> Expr {
        Expr::var(VarId(0))
    }

    fn y() -> Expr {
        Expr::var(VarId(1))
    }

    #[test]
    fn eval_arithmetic() {
        let e = x().add(y().mul(Expr::constant(2.0)));
        assert_eq!(e.eval(&[1.0, 3.0]), 7.0);
    }

    #[test]
    fn eval_transcendental() {
        let e = x()
            .sin()
            .pow(Expr::constant(2.0))
            .add(x().cos().pow(Expr::constant(2.0)));
        assert!((e.eval(&[0.7]) - 1.0).abs() < 1e-12);
        let a = y().atan2(x());
        assert!((a.eval(&[1.0, 1.0]) - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn eval_nan_propagates() {
        let e = x().sqrt();
        assert!(e.eval(&[-1.0]).is_nan());
    }

    #[test]
    fn collect_vars_and_bound() {
        let e = x().add(Expr::var(VarId(3)).sin());
        let mut s = VarSet::new(4);
        e.collect_vars(&mut s);
        assert!(s.contains(VarId(0)));
        assert!(s.contains(VarId(3)));
        assert_eq!(s.count(), 2);
        assert_eq!(e.var_bound(), 4);
        assert_eq!(Expr::constant(1.0).var_bound(), 0);
    }

    #[test]
    fn substitution() {
        // state: a := x + 1; then expression a * a over state
        let a_val: Arc<Expr> = x().add(Expr::constant(1.0)).into();
        let e = x().mul(x()); // a * a with a at index 0
        let sub = e.substitute_fold(&[Arc::clone(&a_val)]);
        assert_eq!(sub.eval(&[2.0]), 9.0);
        // Both operands are the store's value itself, not copies.
        let Expr::Binary(BinOp::Mul, l, r) = &*sub else {
            panic!("{sub}")
        };
        assert!(Arc::ptr_eq(l, &a_val) && Arc::ptr_eq(r, &a_val));
    }

    #[test]
    fn substitution_folds_constant_state() {
        // state: c := 2 (folded); then c * 3 + x folds the product.
        let store = [Arc::new(Expr::constant(2.0)), Arc::new(y())];
        let e = x().mul(Expr::constant(3.0)).add(y());
        assert_eq!(*e.substitute_fold(&store), Expr::constant(6.0).add(y()));
    }

    #[test]
    fn folding() {
        let e = Arc::new(Expr::constant(2.0).add(Expr::constant(3.0)).mul(x()));
        let f = e.fold();
        assert_eq!(*f, Expr::constant(5.0).mul(x()));
        // NaN results are not folded away.
        let g = Arc::new(Expr::constant(-1.0).sqrt()).fold();
        assert!(matches!(*g, Expr::Unary(UnOp::Sqrt, _)));
    }

    #[test]
    fn fold_returns_the_input_when_nothing_folds() {
        let e = Arc::new(x().add(Expr::constant(-1.0).sqrt()).sin());
        assert!(Arc::ptr_eq(&e.fold(), &e));
        // A fold below keeps the untouched sibling shared.
        let keep: Arc<Expr> = Arc::new(x().sin());
        let e = Arc::new(Expr::binary(
            BinOp::Add,
            Arc::clone(&keep),
            Expr::constant(1.0).add(Expr::constant(1.0)),
        ));
        let Expr::Binary(_, l, r) = &*e.fold() else {
            panic!()
        };
        assert!(Arc::ptr_eq(l, &keep));
        assert_eq!(**r, Expr::constant(2.0));
    }

    #[test]
    fn remap_keeps_sharing() {
        let shared: Arc<Expr> = Arc::new(y().sin());
        let e = Arc::new(Expr::binary(
            BinOp::Mul,
            Arc::clone(&shared),
            Arc::clone(&shared),
        ));
        let r = e.remap_vars(&|v| VarId(v.0 - 1));
        let Expr::Binary(_, a, b) = &*r else { panic!() };
        assert!(Arc::ptr_eq(a, b), "one rewrite per shared node");
        assert_eq!(r.to_string(), "sin(v0) * sin(v0)");
        // Nothing to rename: the input comes back as is.
        assert!(Arc::ptr_eq(&e.remap_vars(&|v| v), &e));
    }

    #[test]
    fn dag_walks_are_linear_and_count_the_tree() {
        // e_{k+1} = e_k + e_k: 2^60 tree nodes over a 61-node DAG. Every
        // walk below finishes instantly only if it is DAG-memoized.
        let mut e = Expr::var(VarId(2)).sin();
        for _ in 0..60 {
            e = e.clone().add(e);
        }
        assert_eq!(e.op_count(), (1usize << 61) - 1);
        assert_eq!(e.size(), (1usize << 61) + (1usize << 60) - 1);
        assert_eq!(e.var_bound(), 3);
        let mut s = VarSet::new(3);
        e.collect_vars(&mut s);
        assert_eq!(s.count(), 1);
        let e = Arc::new(e);
        assert!(Arc::ptr_eq(&e.fold(), &e));
        assert_eq!(e.remap_vars(&|_| VarId(0)).var_bound(), 1);
    }

    #[test]
    fn display_precedence() {
        let e = x().add(y()).mul(Expr::constant(2.0));
        assert_eq!(e.to_string(), "(v0 + v1) * 2");
        let e2 = x().sub(y().sub(Expr::constant(1.0)));
        assert_eq!(e2.to_string(), "v0 - (v1 - 1)");
        let e3 = x().neg().mul(y());
        assert_eq!(e3.to_string(), "(-v0) * v1");
        let e4 = y().atan2(x());
        assert_eq!(e4.to_string(), "atan2(v1, v0)");
        let e5 = x().pow(Expr::constant(2.0)).neg();
        assert_eq!(e5.to_string(), "-v0 ^ 2");
    }

    #[test]
    fn structural_eq_and_hash() {
        use std::collections::HashSet;
        let a = x().sin().add(Expr::constant(1.0));
        let b = x().sin().add(Expr::constant(1.0));
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert_ne!(x().sin(), x().cos());
        assert_ne!(Expr::constant(0.0), Expr::constant(-0.0));
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(x().size(), 1);
        assert_eq!(x().add(y()).size(), 3);
        assert_eq!(x().add(y()).sin().size(), 4);
    }
}
