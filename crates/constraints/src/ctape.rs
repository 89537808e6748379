//! Compiled scalar evaluation tapes for path conditions.
//!
//! [`PathCondition::holds`](crate::PathCondition::holds) is the reference
//! semantics: a recursive walk that evaluates a shared sub-term once per
//! occurrence and dispatches on every node. The Monte Carlo hot path
//! calls the predicate once per sample, so it evaluates compiled tapes
//! instead.
//!
//! [`EvalTape`] compiles a whole conjunction once into a flat,
//! deduplicated node vector:
//!
//! * compilation memoizes by **pointer** (each shared `Arc` sub-term is
//!   visited once — linear in DAG size, as every expression walk is; see
//!   [`crate::expr`]) and by **structure** (hash-consing on
//!   `(op, child ids)` — structurally equal but separately allocated
//!   sub-terms also collapse);
//! * evaluation fills a flat `f64` scratch in topological order, so every
//!   distinct sub-expression is computed exactly once per sample;
//! * atoms are tested in order as soon as their operands are available,
//!   preserving the early-exit behaviour of the naive conjunction loop.
//!
//! [`EvalTape::holds`] keeps its scratch in thread-local storage, making
//! the per-sample path allocation-free after warm-up on every thread.
//!
//! The same DAG walk also yields [`expr_fingerprint`] /
//! [`PathCondition::fingerprint`]: deterministic 128-bit structural
//! hashes computed in time linear in DAG size. Caches key on these
//! instead of on `Expr` itself (whose `Hash`/`Display` keep tree
//! semantics, one step per occurrence) or on rendered strings.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use crate::{BinOp, Expr, PathCondition, RelOp, UnOp};

/// 128-bit mixing of a tag word and operand words (SplitMix64 applied to
/// each 64-bit lane with lane-distinct constants).
fn mix128(state: u128, word: u64) -> u128 {
    fn mix64(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let lo = state as u64;
    let hi = (state >> 64) as u64;
    let nlo = mix64(lo ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let nhi = mix64(hi ^ word.wrapping_mul(0xC2B2_AE3D_27D4_EB4F).rotate_left(17));
    ((nhi as u128) << 64) | nlo as u128
}

fn fingerprint_node(expr: &Arc<Expr>, memo: &mut HashMap<*const Expr, u128>) -> u128 {
    let ptr = Arc::as_ptr(expr);
    if let Some(&f) = memo.get(&ptr) {
        return f;
    }
    let f = match &**expr {
        Expr::Const(v) => mix128(mix128(1, 0x01), v.to_bits()),
        Expr::Var(id) => mix128(mix128(1, 0x02), id.0 as u64),
        Expr::Unary(op, e) => {
            let c = fingerprint_node(e, memo);
            let s = mix128(mix128(1, 0x03), *op as u64);
            mix128(mix128(s, c as u64), (c >> 64) as u64)
        }
        Expr::Binary(op, a, b) => {
            let ca = fingerprint_node(a, memo);
            let cb = fingerprint_node(b, memo);
            let mut s = mix128(mix128(1, 0x04), *op as u64);
            s = mix128(mix128(s, ca as u64), (ca >> 64) as u64);
            mix128(mix128(s, cb as u64), (cb >> 64) as u64)
        }
    };
    memo.insert(ptr, f);
    f
}

/// Deterministic 128-bit structural fingerprint of an expression,
/// computed in time linear in the DAG size (shared `Arc` sub-terms are
/// visited once). Equal structures fingerprint equally across runs and
/// processes; distinct structures collide with probability ~2⁻¹²⁸.
pub fn expr_fingerprint(expr: &Arc<Expr>) -> u128 {
    fingerprint_node(expr, &mut HashMap::new())
}

impl PathCondition {
    /// Deterministic 128-bit structural fingerprint of the whole
    /// conjunction (atom order matters). See [`expr_fingerprint`].
    pub fn fingerprint(&self) -> u128 {
        let mut memo = HashMap::new();
        let mut s: u128 = mix128(2, 0x05);
        for atom in self.atoms() {
            let l = fingerprint_node(atom.lhs(), &mut memo);
            let r = fingerprint_node(atom.rhs(), &mut memo);
            s = mix128(mix128(s, l as u64), (l >> 64) as u64);
            s = mix128(s, atom.op() as u64);
            s = mix128(mix128(s, r as u64), (r >> 64) as u64);
        }
        s
    }
}

/// One node of a compiled expression, children strictly before parents.
///
/// This is the unified IR's instruction form: [`crate::bulk`] recompiles
/// the node pool into a register-allocated columnar tape, and
/// [`crate::ival`] evaluates the same pool over intervals with HC4
/// backward contraction. Exposed so differential suites can walk the
/// pool and cross-check every evaluation kind node by node.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Node {
    /// A literal constant.
    Const(f64),
    /// An input variable (index into the sample point).
    Var(u32),
    /// Unary operation on an earlier node.
    Unary(UnOp, u32),
    /// Binary operation on two earlier nodes.
    Binary(BinOp, u32, u32),
}

/// Structural identity of a node given its children's ids — the
/// hash-consing key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum NodeKey {
    Const(u64),
    Var(u32),
    Unary(UnOp, u32),
    Binary(BinOp, u32, u32),
}

/// A compiled conjunction of relational atoms over one shared node pool.
#[derive(Clone, Debug)]
pub struct EvalTape {
    nodes: Vec<Node>,
    /// `(lhs node, op, rhs node)` per atom, in conjunction order. All
    /// nodes an atom needs have ids `<= max(lhs, rhs)`.
    atoms: Vec<(u32, RelOp, u32)>,
}

struct Builder {
    nodes: Vec<Node>,
    by_ptr: HashMap<*const Expr, u32>,
    by_key: HashMap<NodeKey, u32>,
}

impl Builder {
    fn intern(&mut self, key: NodeKey, node: Node) -> u32 {
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.by_key.insert(key, id);
        id
    }

    fn emit(&mut self, expr: &Arc<Expr>) -> u32 {
        let ptr = Arc::as_ptr(expr);
        if let Some(&id) = self.by_ptr.get(&ptr) {
            return id;
        }
        let id = self.emit_node(expr);
        self.by_ptr.insert(ptr, id);
        id
    }

    fn emit_node(&mut self, expr: &Expr) -> u32 {
        match expr {
            Expr::Const(v) => self.intern(NodeKey::Const(v.to_bits()), Node::Const(*v)),
            Expr::Var(id) => self.intern(NodeKey::Var(id.0), Node::Var(id.0)),
            Expr::Unary(op, e) => {
                let c = self.emit(e);
                if let Some(id) = self.fold(|v| op.apply(v[0]), &[c]) {
                    return id;
                }
                self.intern(NodeKey::Unary(*op, c), Node::Unary(*op, c))
            }
            Expr::Binary(op, a, b) => {
                let ca = self.emit(a);
                let cb = self.emit(b);
                if let Some(id) = self.fold(|v| op.apply(v[0], v[1]), &[ca, cb]) {
                    return id;
                }
                self.intern(NodeKey::Binary(*op, ca, cb), Node::Binary(*op, ca, cb))
            }
        }
    }

    /// Constant-folding peephole: when every child of an operation is a
    /// [`Node::Const`], evaluate it now — with the *same* `apply` routine
    /// every evaluation kind dispatches to at runtime, so the folded
    /// value is bit-for-bit the one the interpreter would recompute per
    /// sample — and intern the result as a constant. Non-finite results
    /// are left unfolded: the interval evaluator encloses `sqrt(-1)` or
    /// `1/0` through the operation's interval form, and a NaN/±∞ point
    /// "interval" has no such form, so those nodes keep their operator.
    fn fold(&mut self, apply: impl FnOnce(&[f64]) -> f64, children: &[u32]) -> Option<u32> {
        let mut vals = [0.0f64; 2];
        for (v, &c) in vals.iter_mut().zip(children) {
            match self.nodes[c as usize] {
                Node::Const(k) => *v = k,
                _ => return None,
            }
        }
        let folded = apply(&vals[..children.len()]);
        if !folded.is_finite() {
            return None;
        }
        Some(self.intern(NodeKey::Const(folded.to_bits()), Node::Const(folded)))
    }
}

impl EvalTape {
    /// Compiles the conjunction. Linear in the condition's DAG size.
    pub fn compile(pc: &PathCondition) -> EvalTape {
        let mut b = Builder {
            nodes: Vec::new(),
            by_ptr: HashMap::new(),
            by_key: HashMap::new(),
        };
        let mut atoms = Vec::with_capacity(pc.len());
        for atom in pc.atoms() {
            let l = b.emit(atom.lhs());
            let r = b.emit(atom.rhs());
            atoms.push((l, atom.op(), r));
        }

        // Dead-node pruning: constant folding replaces `Const op Const`
        // parents with fresh constants, which can orphan the operand
        // constants it consumed. A reverse liveness sweep (children have
        // strictly smaller ids, so one pass suffices) drops every node no
        // atom reaches, and compaction keeps ids dense and topologically
        // ordered — all three evaluation kinds shrink together.
        let mut live = vec![false; b.nodes.len()];
        for &(l, _, r) in &atoms {
            live[l as usize] = true;
            live[r as usize] = true;
        }
        for id in (0..b.nodes.len()).rev() {
            if live[id] {
                match b.nodes[id] {
                    Node::Unary(_, c) => live[c as usize] = true,
                    Node::Binary(_, ca, cb) => {
                        live[ca as usize] = true;
                        live[cb as usize] = true;
                    }
                    Node::Const(_) | Node::Var(_) => {}
                }
            }
        }
        let mut remap = vec![u32::MAX; b.nodes.len()];
        let mut nodes = Vec::with_capacity(live.iter().filter(|&&l| l).count());
        for (id, node) in b.nodes.into_iter().enumerate() {
            if live[id] {
                remap[id] = nodes.len() as u32;
                nodes.push(match node {
                    Node::Unary(op, c) => Node::Unary(op, remap[c as usize]),
                    Node::Binary(op, ca, cb) => {
                        Node::Binary(op, remap[ca as usize], remap[cb as usize])
                    }
                    n => n,
                });
            }
        }
        for (l, _, r) in &mut atoms {
            *l = remap[*l as usize];
            *r = remap[*r as usize];
        }

        EvalTape { nodes, atoms }
    }

    /// Number of distinct nodes (the DAG size — compare
    /// [`Expr::size`](crate::Expr::size), the tree size).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for the empty (always-true) conjunction.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The deduplicated node pool, children strictly before parents —
    /// the unified IR consumed by [`crate::bulk::BulkTape::compile`] and
    /// walked in place by the interval kind ([`crate::ival`]).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One past the highest variable index the pool reads.
    pub fn var_bound(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Var(v) => Some(*v as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// The `(lhs node, op, rhs node)` triple per atom, in conjunction
    /// order (consumed by the derived evaluation kinds alongside
    /// [`EvalTape::nodes`]).
    pub fn atom_nodes(&self) -> &[(u32, RelOp, u32)] {
        &self.atoms
    }

    /// Evaluates the conjunction with caller-provided scratch. Nodes are
    /// evaluated lazily up to each atom's operands, so a failing early
    /// atom skips the remainder (NaN on either side of an atom yields
    /// `false`, matching `PathCondition::holds`).
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range for `env`.
    pub fn holds_with(&self, env: &[f64], vals: &mut Vec<f64>) -> bool {
        vals.clear();
        for &(l, op, r) in &self.atoms {
            let need = (l.max(r) as usize) + 1;
            while vals.len() < need {
                let v = match self.nodes[vals.len()] {
                    Node::Const(c) => c,
                    Node::Var(i) => env[i as usize],
                    Node::Unary(op, c) => op.apply(vals[c as usize]),
                    Node::Binary(op, a, b) => op.apply(vals[a as usize], vals[b as usize]),
                };
                vals.push(v);
            }
            if !op.apply(vals[l as usize], vals[r as usize]) {
                return false;
            }
        }
        true
    }

    /// Evaluates the conjunction using a thread-local scratch buffer —
    /// allocation-free after the first call on each thread.
    pub fn holds(&self, env: &[f64]) -> bool {
        thread_local! {
            static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|s| self.holds_with(env, &mut s.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_system;
    use crate::{Atom, Expr, VarId};

    fn pc_of(src: &str) -> PathCondition {
        parse_system(src).unwrap().constraint_set.pcs()[0].clone()
    }

    #[test]
    fn matches_tree_walk_on_grid() {
        let pc = pc_of(
            "var x in [-2, 2]; var y in [-2, 2];
             pc sin(x * y) > 0.25 && x + y <= 1.5 && x * x + y * y <= 4;",
        );
        let tape = EvalTape::compile(&pc);
        for i in 0..40 {
            for j in 0..40 {
                let p = [-2.0 + i as f64 * 0.1, -2.0 + j as f64 * 0.1];
                assert_eq!(tape.holds(&p), pc.holds(&p), "at {p:?}");
            }
        }
    }

    #[test]
    fn dedups_shared_subterms() {
        // (x + 1) appears in both atoms; the pool stores it once.
        let shared = Expr::var(VarId(0)).add(Expr::constant(1.0));
        let pc = PathCondition::from_atoms(vec![
            Atom::new(
                shared.clone().mul(shared.clone()),
                crate::RelOp::Le,
                Expr::constant(4.0),
            ),
            Atom::new(shared, crate::RelOp::Ge, Expr::constant(0.0)),
        ]);
        let tape = EvalTape::compile(&pc);
        // Nodes: x, 1, x+1, (x+1)*(x+1), 4, 0 — six, not nine.
        assert_eq!(tape.len(), 6);
        assert!(tape.holds(&[0.5]));
        assert!(!tape.holds(&[2.0]));
    }

    #[test]
    fn dag_compile_is_linear_not_exponential() {
        // e_{k+1} = e_k + e_k doubles the *tree* each step; the DAG grows
        // by one node. 40 doublings would be 2^40 tree nodes.
        let mut e = Expr::var(VarId(0));
        for _ in 0..40 {
            e = e.clone().add(e);
        }
        let pc =
            PathCondition::from_atoms(vec![Atom::new(e, crate::RelOp::Gt, Expr::constant(0.0))]);
        let tape = EvalTape::compile(&pc);
        assert!(tape.len() <= 43, "DAG size {}", tape.len());
        // 2^40 * 1e-9 ≈ 1100 > 0.
        assert!(tape.holds(&[1e-9]));
        assert!(!tape.holds(&[-1e-9]));
    }

    #[test]
    fn const_subtrees_fold_and_prune() {
        // 2 * 3 + 1 folds to the single constant 7; its operand
        // constants are pruned. Pool: x, 7.
        let pc = pc_of("var x in [0, 10]; pc x < 2.0 * 3.0 + 1.0;");
        let tape = EvalTape::compile(&pc);
        assert_eq!(tape.len(), 2, "pool {:?}", tape.nodes());
        assert!(tape.nodes().contains(&Node::Const(7.0)));
        assert!(tape.holds(&[6.5]));
        assert!(!tape.holds(&[7.0]));
        assert_eq!(tape.holds(&[6.5]), pc.holds(&[6.5]));
    }

    #[test]
    fn folding_uses_runtime_apply_bit_exactly() {
        // sin(2.5) has no short decimal form: the folded constant must
        // be the exact runtime value, not an approximation.
        let pc = PathCondition::from_atoms(vec![Atom::new(
            Expr::constant(2.5).sin(),
            crate::RelOp::Lt,
            Expr::var(VarId(0)),
        )]);
        let tape = EvalTape::compile(&pc);
        assert_eq!(tape.len(), 2);
        assert!(tape.nodes().contains(&Node::Const(2.5f64.sin())));
        let probe = 2.5f64.sin(); // boundary: < is strict
        assert!(!tape.holds(&[probe]));
        assert!(tape.holds(&[probe + 1e-15]));
        assert_eq!(tape.holds(&[probe]), pc.holds(&[probe]));
    }

    #[test]
    fn non_finite_folds_are_left_to_the_operators() {
        // sqrt(-1) is NaN and 1/0 is ∞: neither may become a point
        // constant (the interval evaluator has no enclosure for one),
        // so the operator nodes survive.
        let nan_pc = PathCondition::from_atoms(vec![Atom::new(
            Expr::constant(-1.0).sqrt(),
            crate::RelOp::Ne,
            Expr::var(VarId(0)),
        )]);
        let tape = EvalTape::compile(&nan_pc);
        assert!(tape
            .nodes()
            .iter()
            .any(|n| matches!(n, Node::Unary(UnOp::Sqrt, _))));
        // NaN != x is false for every x — matching the tree walk.
        assert!(!tape.holds(&[1.0]));
        assert_eq!(tape.holds(&[1.0]), nan_pc.holds(&[1.0]));

        let inf_pc = pc_of("var x in [0, 10]; pc x < 1.0 / 0.0;");
        let tape = EvalTape::compile(&inf_pc);
        assert!(tape
            .nodes()
            .iter()
            .any(|n| matches!(n, Node::Binary(BinOp::Div, _, _))));
        assert!(tape.holds(&[5.0]));
    }

    #[test]
    fn folded_constant_dedups_with_written_constant() {
        // 1 + 1 folds to 2, which hash-conses with the literal 2: the
        // two atoms share one constant node.
        let pc = pc_of("var x in [0, 10]; pc x < 1.0 + 1.0 && x > 2.0 - 4.0;");
        let tape = EvalTape::compile(&pc);
        // Pool: x, 2, -2 — the folded 2 and any written 2 are one node.
        assert_eq!(tape.len(), 3, "pool {:?}", tape.nodes());
        assert!(tape.holds(&[1.0]));
    }

    #[test]
    fn every_pruned_tape_node_is_reachable_from_an_atom() {
        let pc = pc_of(
            "var x in [-2, 2]; var y in [-2, 2];
             pc sin(x * (2.0 * 0.5)) > 0.25 - 0.25 && x + y <= 3.0 / 2.0;",
        );
        let tape = EvalTape::compile(&pc);
        let mut live = vec![false; tape.len()];
        for &(l, _, r) in tape.atom_nodes() {
            live[l as usize] = true;
            live[r as usize] = true;
        }
        for id in (0..tape.len()).rev() {
            if live[id] {
                match tape.nodes()[id] {
                    Node::Unary(_, c) => live[c as usize] = true,
                    Node::Binary(_, a, b) => {
                        live[a as usize] = true;
                        live[b as usize] = true;
                    }
                    _ => {}
                }
            }
        }
        assert!(live.iter().all(|&l| l), "dead node in {:?}", tape.nodes());
        // And the peephole preserved semantics.
        for i in 0..20 {
            let p = [-2.0 + i as f64 * 0.2, 2.0 - i as f64 * 0.2];
            assert_eq!(tape.holds(&p), pc.holds(&p), "at {p:?}");
        }
    }

    #[test]
    fn fingerprints_are_peephole_independent() {
        // Fingerprints hash the *expression*, not the optimized tape:
        // a foldable form and its folded value stay distinct keys, and
        // compiling neither perturbs them — so every cache keyed by
        // fingerprint (tapes, pavings, predicates, factor store) is
        // oblivious to what the peephole does.
        let foldable = pc_of("var x in [0, 10]; pc x < 2.0 * 3.0 + 1.0;");
        let folded = pc_of("var x in [0, 10]; pc x < 7.0;");
        let before = (foldable.fingerprint(), folded.fingerprint());
        assert_ne!(before.0, before.1);
        let _ = (EvalTape::compile(&foldable), EvalTape::compile(&folded));
        assert_eq!(
            (foldable.fingerprint(), folded.fingerprint()),
            before,
            "compilation must not perturb fingerprints"
        );
    }

    #[test]
    fn early_exit_and_nan_semantics() {
        let pc = pc_of("var x in [-4, 4]; pc x >= 0 && sqrt(x) < 1;");
        let tape = EvalTape::compile(&pc);
        assert!(tape.holds(&[0.25]));
        assert!(!tape.holds(&[2.0]));
        // Negative x: first atom fails; also sqrt would be NaN — false
        // either way, matching the tree walk.
        assert!(!tape.holds(&[-1.0]));
        assert_eq!(tape.holds(&[-1.0]), pc.holds(&[-1.0]));
    }

    #[test]
    fn empty_condition_is_true() {
        let tape = EvalTape::compile(&PathCondition::new());
        assert!(tape.is_empty());
        assert!(tape.holds(&[]));
    }

    #[test]
    fn fingerprints_are_structural_and_discriminating() {
        let a = pc_of("var x in [0, 1]; pc sin(x) > 0.5 && x < 0.9;");
        let b = pc_of("var x in [0, 1]; pc sin(x) > 0.5 && x < 0.9;");
        // Separate allocations, same structure: identical fingerprints.
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = pc_of("var x in [0, 1]; pc sin(x) > 0.5 && x < 0.8;");
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Atom order matters (conjunction identity for caching purposes).
        let d = pc_of("var x in [0, 1]; pc x < 0.9 && sin(x) > 0.5;");
        assert_ne!(a.fingerprint(), d.fingerprint());
        // Operator and operand swaps discriminate.
        let e1 = Arc::new(Expr::var(VarId(0)).add(Expr::var(VarId(1))));
        let e2 = Arc::new(Expr::var(VarId(1)).add(Expr::var(VarId(0))));
        assert_ne!(expr_fingerprint(&e1), expr_fingerprint(&e2));
    }

    #[test]
    fn fingerprint_is_linear_in_dag_size() {
        // 2^60 tree nodes; finishes instantly only if the walk is
        // DAG-memoized.
        let mut e = Expr::var(VarId(0));
        for _ in 0..60 {
            e = e.clone().add(e);
        }
        let shared = Arc::new(e);
        let f1 = expr_fingerprint(&shared);
        let f2 = expr_fingerprint(&shared);
        assert_eq!(f1, f2);
    }
}
