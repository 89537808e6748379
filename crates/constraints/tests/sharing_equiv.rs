//! Differential suite for the sharing-preserving expression walks.
//!
//! `fold`, `substitute_fold`, `remap_vars`, `collect_vars`, `var_bound`,
//! `size` and `op_count` memoize on `Arc` addresses so they cost O(DAG).
//! This suite keeps plain tree-walk reference versions of each and checks,
//! on random DAG-shaped expressions with shared, foldable and NaN-folding
//! sub-terms, that the memoized walks agree with them structurally and on
//! fingerprints — and that rewrites never grow the number of distinct
//! nodes.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qcoral_constraints::{
    expr_fingerprint, Atom, BinOp, ConstraintSet, Expr, PathCondition, RelOp, UnOp, VarId, VarSet,
};

const NVARS: usize = 3;

const UNOPS: [UnOp; 6] = [
    UnOp::Neg,
    UnOp::Sqrt, // NaN on negative constants: must stay unfolded
    UnOp::Ln,   // NaN on negative, -inf at 0 (folds: not NaN)
    UnOp::Sin,
    UnOp::Asin, // NaN outside [-1, 1]
    UnOp::Exp,
];

const BINOPS: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Pow];

// ---------------------------------------------------------------------
// Reference tree walks: every occurrence visited, every result a fresh
// unshared tree.
// ---------------------------------------------------------------------

fn ref_fold(e: &Expr) -> Expr {
    match e {
        Expr::Const(_) | Expr::Var(_) => e.clone(),
        Expr::Unary(op, c) => {
            let c = ref_fold(c);
            if let Expr::Const(v) = c {
                let r = op.apply(v);
                if !r.is_nan() {
                    return Expr::Const(r);
                }
            }
            Expr::Unary(*op, Arc::new(c))
        }
        Expr::Binary(op, a, b) => {
            let (a, b) = (ref_fold(a), ref_fold(b));
            if let (Expr::Const(x), Expr::Const(y)) = (&a, &b) {
                let r = op.apply(*x, *y);
                if !r.is_nan() {
                    return Expr::Const(r);
                }
            }
            Expr::Binary(*op, Arc::new(a), Arc::new(b))
        }
    }
}

fn ref_substitute(e: &Expr, store: &[Arc<Expr>]) -> Expr {
    match e {
        Expr::Const(_) => e.clone(),
        Expr::Var(id) => (*store[id.index()]).clone(),
        Expr::Unary(op, c) => Expr::Unary(*op, Arc::new(ref_substitute(c, store))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Arc::new(ref_substitute(a, store)),
            Arc::new(ref_substitute(b, store)),
        ),
    }
}

fn ref_remap(e: &Expr, f: &impl Fn(VarId) -> VarId) -> Expr {
    match e {
        Expr::Const(_) => e.clone(),
        Expr::Var(id) => Expr::Var(f(*id)),
        Expr::Unary(op, c) => Expr::Unary(*op, Arc::new(ref_remap(c, f))),
        Expr::Binary(op, a, b) => {
            Expr::Binary(*op, Arc::new(ref_remap(a, f)), Arc::new(ref_remap(b, f)))
        }
    }
}

fn ref_collect_vars(e: &Expr, out: &mut VarSet) {
    match e {
        Expr::Const(_) => {}
        Expr::Var(id) => {
            out.insert(*id);
        }
        Expr::Unary(_, c) => ref_collect_vars(c, out),
        Expr::Binary(_, a, b) => {
            ref_collect_vars(a, out);
            ref_collect_vars(b, out);
        }
    }
}

fn ref_var_bound(e: &Expr) -> usize {
    match e {
        Expr::Const(_) => 0,
        Expr::Var(id) => id.index() + 1,
        Expr::Unary(_, c) => ref_var_bound(c),
        Expr::Binary(_, a, b) => ref_var_bound(a).max(ref_var_bound(b)),
    }
}

fn ref_op_count(e: &Expr) -> usize {
    match e {
        Expr::Const(_) | Expr::Var(_) => 0,
        Expr::Unary(_, c) => 1 + ref_op_count(c),
        Expr::Binary(_, a, b) => 1 + ref_op_count(a) + ref_op_count(b),
    }
}

fn ref_size(e: &Expr) -> usize {
    match e {
        Expr::Const(_) | Expr::Var(_) => 1,
        Expr::Unary(_, c) => 1 + ref_size(c),
        Expr::Binary(_, a, b) => 1 + ref_size(a) + ref_size(b),
    }
}

// ---------------------------------------------------------------------
// Generators and helpers.
// ---------------------------------------------------------------------

/// Grows a random DAG of `size` operation nodes over a pool seeded with
/// variables below `nvars` and constants (the NaN workhorses 0 and -1,
/// plus foldable 0.5 and 2). Later nodes pick operands from the whole
/// pool, so sub-terms are shared, and constant-only sub-terms either
/// fold or (NaN) must survive.
fn random_pool(rng: &mut SmallRng, nvars: usize, size: usize) -> Vec<Arc<Expr>> {
    let mut pool: Vec<Arc<Expr>> = (0..nvars)
        .map(|i| Arc::new(Expr::var(VarId(i as u32))))
        .collect();
    for c in [0.0, -1.0, 0.5, 2.0] {
        pool.push(Arc::new(Expr::constant(c)));
    }
    for _ in 0..size {
        let e = if rng.gen_bool(0.4) {
            let op = UNOPS[rng.gen_range(0..UNOPS.len())];
            Expr::Unary(op, Arc::clone(&pool[rng.gen_range(0..pool.len())]))
        } else {
            let op = BINOPS[rng.gen_range(0..BINOPS.len())];
            let a = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
            let b = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
            Expr::Binary(op, a, b)
        };
        pool.push(Arc::new(e));
    }
    pool
}

fn pick(rng: &mut SmallRng, pool: &[Arc<Expr>]) -> Arc<Expr> {
    // Bias toward the newest (deepest, most shared) nodes.
    let lo = pool.len() / 2;
    Arc::clone(&pool[rng.gen_range(lo..pool.len())])
}

fn random_pc(rng: &mut SmallRng, pool: &[Arc<Expr>], natoms: usize) -> PathCondition {
    (0..natoms)
        .map(|_| Atom::new(pick(rng, pool), RelOp::Le, pick(rng, pool)))
        .collect()
}

/// Distinct nodes (by `Arc` address) reachable from `roots`.
fn distinct_nodes<'a>(roots: impl IntoIterator<Item = &'a Arc<Expr>>) -> usize {
    fn walk(e: &Arc<Expr>, seen: &mut HashSet<*const Expr>) {
        if seen.insert(Arc::as_ptr(e)) {
            match &**e {
                Expr::Const(_) | Expr::Var(_) => {}
                Expr::Unary(_, c) => walk(c, seen),
                Expr::Binary(_, a, b) => {
                    walk(a, seen);
                    walk(b, seen);
                }
            }
        }
    }
    let mut seen = HashSet::new();
    for r in roots {
        walk(r, &mut seen);
    }
    seen.len()
}

fn atom_roots(pc: &PathCondition) -> impl Iterator<Item = &Arc<Expr>> {
    pc.atoms().iter().flat_map(|a| [a.lhs(), a.rhs()])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `fold` agrees with the tree fold, returns the input `Arc` when
    /// nothing folds, and never adds distinct nodes.
    #[test]
    fn fold_matches_tree_fold(seed in 0u64..1_000_000, size in 0usize..40) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool = random_pool(&mut rng, NVARS, size);
        let e = pick(&mut rng, &pool);
        let folded = e.fold();
        let reference = ref_fold(&e);
        prop_assert_eq!(&*folded, &reference);
        prop_assert_eq!(expr_fingerprint(&folded), expr_fingerprint(&Arc::new(reference.clone())));
        prop_assert!(distinct_nodes([&folded]) <= distinct_nodes([&e]));
        if reference == *e {
            prop_assert!(Arc::ptr_eq(&folded, &e), "nothing folded, yet a copy came back");
        }
        // Idempotent: a folded expression folds to itself.
        prop_assert!(Arc::ptr_eq(&folded.fold(), &folded));
    }

    /// `substitute_fold` over a folded store equals substitute-then-fold
    /// of the tree walks, and reads the store by pointer.
    #[test]
    fn substitute_fold_matches_tree_walks(seed in 0u64..1_000_000, size in 0usize..24) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Store values: folded DAGs over the inputs (what symexec holds).
        let inputs = random_pool(&mut rng, NVARS, size);
        let store: Vec<Arc<Expr>> = (0..NVARS).map(|_| pick(&mut rng, &inputs).fold()).collect();
        for v in &store {
            prop_assert_eq!(&ref_fold(v), &**v, "store value not folded");
        }
        let sources = random_pool(&mut rng, NVARS, 6);
        let src = pick(&mut rng, &sources);
        let got = src.substitute_fold(&store);
        let reference = ref_fold(&ref_substitute(&src, &store));
        prop_assert_eq!(&*got, &reference);
        prop_assert_eq!(expr_fingerprint(&got), expr_fingerprint(&Arc::new(reference)));
        // No store sub-term was copied: the result's distinct nodes are
        // the store's plus at most one per source node.
        let bound = distinct_nodes(&store) + ref_size(&src);
        prop_assert!(distinct_nodes([&got]) <= bound);
    }

    /// `PathCondition::remap_vars` equals the per-atom tree remap, keeps
    /// the fingerprint of the tree result, and shares across atoms.
    #[test]
    fn remap_matches_tree_remap(
        seed in 0u64..1_000_000,
        size in 0usize..40,
        natoms in 1usize..5,
        shift in 0u32..3,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool = random_pool(&mut rng, NVARS, size);
        let pc = random_pc(&mut rng, &pool, natoms);
        let f = |v: VarId| VarId((v.0 + shift) % NVARS as u32);
        let got = pc.remap_vars(&f);
        let reference: PathCondition = pc
            .atoms()
            .iter()
            .map(|a| Atom::new(ref_remap(a.lhs(), &f), a.op(), ref_remap(a.rhs(), &f)))
            .collect();
        prop_assert_eq!(&got, &reference);
        prop_assert_eq!(got.fingerprint(), reference.fingerprint());
        prop_assert!(distinct_nodes(atom_roots(&got)) <= distinct_nodes(atom_roots(&pc)));
        if shift == 0 {
            for (a, b) in got.atoms().iter().zip(pc.atoms()) {
                prop_assert!(Arc::ptr_eq(a.lhs(), b.lhs()) && Arc::ptr_eq(a.rhs(), b.rhs()));
            }
        }
    }

    /// The memoized analysis walks agree with their tree versions at
    /// every level: expression, atom, condition, constraint set.
    #[test]
    fn analysis_walks_match_tree_walks(
        seed in 0u64..1_000_000,
        size in 0usize..40,
        natoms in 1usize..5,
        nvars in 1usize..=NVARS,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool = random_pool(&mut rng, nvars, size);
        let pcs: Vec<PathCondition> = (0..3).map(|_| random_pc(&mut rng, &pool, natoms)).collect();
        for pc in &pcs {
            let mut got = VarSet::new(NVARS);
            let mut want = VarSet::new(NVARS);
            pc.collect_vars(&mut got);
            for e in atom_roots(pc) {
                ref_collect_vars(e, &mut want);
                let mut one = VarSet::new(NVARS);
                e.collect_vars(&mut one);
                let mut one_ref = VarSet::new(NVARS);
                ref_collect_vars(e, &mut one_ref);
                prop_assert_eq!(one, one_ref);
                prop_assert_eq!(e.var_bound(), ref_var_bound(e));
                prop_assert_eq!(e.op_count(), ref_op_count(e));
                prop_assert_eq!(e.size(), ref_size(e));
            }
            prop_assert_eq!(got, want);
            let bound = atom_roots(pc).map(|e| ref_var_bound(e)).max().unwrap_or(0);
            prop_assert_eq!(pc.var_bound(), bound);
            for a in pc.atoms() {
                prop_assert_eq!(a.var_bound(), ref_var_bound(a.lhs()).max(ref_var_bound(a.rhs())));
            }
            // Projection keeps exactly the atoms a tree walk says mention
            // a variable of the class.
            let mut class = VarSet::new(NVARS);
            class.insert(VarId(0));
            let projected: Vec<&Atom> = pc
                .atoms()
                .iter()
                .filter(|a| {
                    let mut s = VarSet::new(NVARS);
                    ref_collect_vars(a.lhs(), &mut s);
                    ref_collect_vars(a.rhs(), &mut s);
                    s.intersects(&class)
                })
                .collect();
            let got = pc.project(&class);
            prop_assert_eq!(got.atoms().iter().collect::<Vec<_>>(), projected);
        }
        let cs = ConstraintSet::from_pcs(pcs);
        let ops: usize = cs
            .pcs()
            .iter()
            .flat_map(atom_roots)
            .map(|e| ref_op_count(e))
            .sum();
        prop_assert_eq!(cs.op_count(), ops);
        let bound = cs.pcs().iter().flat_map(atom_roots).map(|e| ref_var_bound(e)).max();
        prop_assert_eq!(cs.var_bound(), bound.unwrap_or(0));
    }
}
