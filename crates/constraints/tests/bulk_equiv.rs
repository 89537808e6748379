//! Three-way differential equivalence of the tape IR's evaluation kinds
//! on *random expression DAGs*:
//!
//! * the columnar bulk evaluator must agree with [`EvalTape::holds`]
//!   **hit for hit**, on batch sizes that do not divide the lane width
//!   evenly — including NaN-producing operations (`sqrt` of negatives,
//!   `ln` of non-positives, `asin` outside its domain, negative bases
//!   under `pow`, `0/0`) and every relational operator;
//! * the interval kind (the HC4 methods of [`EvalTape`]) must **enclose** the scalar
//!   results: for random boxes, every node's forward interval contains
//!   the scalar value of that node at every sampled point of the box,
//!   and HC4 contraction never loses a satisfying point.
//!
//! DAGs are grown from a seeded RNG over a pool of shared sub-terms, so
//! generated conditions exercise hash-consing, register reuse and the
//! per-atom early-exit masks, not just expression trees.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qcoral_constraints::bulk::LANES;
use qcoral_constraints::{
    Atom, BinOp, BulkScratch, BulkTape, EvalTape, Expr, IvalScratch, Node, PathCondition, RelOp,
    UnOp, VarId,
};
use qcoral_interval::{Interval, IntervalBox};

const NVARS: usize = 3;

const UNOPS: [UnOp; 11] = [
    UnOp::Neg,
    UnOp::Abs,
    UnOp::Sqrt, // NaN on negative operands
    UnOp::Exp,
    UnOp::Ln, // NaN on negative, -inf at 0
    UnOp::Sin,
    UnOp::Cos,
    UnOp::Tan,
    UnOp::Asin, // NaN outside [-1, 1]
    UnOp::Acos,
    UnOp::Atan,
];

const BINOPS: [BinOp; 8] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div, // 0/0 = NaN, x/0 = ±inf
    BinOp::Pow, // NaN on negative base with fractional exponent
    BinOp::Min,
    BinOp::Max,
    BinOp::Atan2,
];

const RELOPS: [RelOp; 6] = [
    RelOp::Lt,
    RelOp::Le,
    RelOp::Gt,
    RelOp::Ge,
    RelOp::Eq,
    RelOp::Ne,
];

/// Grows a random DAG of `size` operation nodes over a pool seeded with
/// variables and constants (including the NaN workhorses 0 and -1), then
/// assembles `natoms` atoms whose operands are drawn from the pool —
/// shared sub-terms appear in several atoms, like symexec output.
fn random_pc(seed: u64, size: usize, natoms: usize) -> PathCondition {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pool: Vec<Arc<Expr>> = (0..NVARS)
        .map(|i| Arc::new(Expr::var(VarId(i as u32))))
        .collect();
    for c in [0.0, -1.0, 0.5, 2.0] {
        pool.push(Arc::new(Expr::constant(c)));
    }
    for _ in 0..size {
        let e = if rng.gen_bool(0.4) {
            let op = UNOPS[rng.gen_range(0..UNOPS.len())];
            let c = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
            Expr::Unary(op, c)
        } else {
            let op = BINOPS[rng.gen_range(0..BINOPS.len())];
            let a = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
            let b = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
            Expr::Binary(op, a, b)
        };
        pool.push(Arc::new(e));
    }
    let atoms = (0..natoms)
        .map(|_| {
            let l = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
            let r = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
            Atom::new(l, RELOPS[rng.gen_range(0..RELOPS.len())], r)
        })
        .collect();
    PathCondition::from_atoms(atoms)
}

/// Random points over a range wide enough to trip every NaN source.
fn random_points(seed: u64, n: usize) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..NVARS).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect()
}

fn columns(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    (0..NVARS)
        .map(|d| points.iter().map(|p| p[d]).collect())
        .collect()
}

/// A random non-degenerate box inside `[-3, 3]^NVARS`.
fn random_box(seed: u64) -> IntervalBox {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..NVARS)
        .map(|_| {
            let a: f64 = rng.gen_range(-3.0..3.0);
            let b: f64 = rng.gen_range(-3.0..3.0);
            Interval::new(a.min(b), a.max(b).max(a.min(b) + 1e-9))
        })
        .collect()
}

/// Random points strictly inside a box.
fn points_in_box(seed: u64, bx: &IntervalBox, n: usize) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..bx.ndim())
                .map(|d| rng.gen_range(bx[d].lo()..bx[d].hi()))
                .collect()
        })
        .collect()
}

/// Per-node scalar values at a point, mirroring the float evaluators'
/// semantics op for op (the shared pool is in topological order). The
/// second vector flags *real-defined* nodes: the node's value is finite
/// and so is every intermediate below it. A float chain can revive a
/// finite value from an undefined one (`exp(ln(0)) = 0`,
/// `atan(1/0) = π/2`), but interval semantics model real arithmetic,
/// where the whole chain is undefined — enclosure is only claimed for
/// defined nodes.
fn scalar_node_values(nodes: &[Node], p: &[f64]) -> (Vec<f64>, Vec<bool>) {
    let mut vals: Vec<f64> = Vec::with_capacity(nodes.len());
    let mut defined: Vec<bool> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let (v, d) = match node {
            Node::Const(c) => (*c, true),
            Node::Var(i) => (p[*i as usize], true),
            Node::Unary(op, c) => (op.apply(vals[*c as usize]), defined[*c as usize]),
            Node::Binary(op, a, b) => (
                op.apply(vals[*a as usize], vals[*b as usize]),
                defined[*a as usize] && defined[*b as usize],
            ),
        };
        defined.push(d && v.is_finite());
        vals.push(v);
    }
    (vals, defined)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Hit-for-hit equivalence on random DAGs and ragged batch sizes.
    #[test]
    fn bulk_lanes_match_scalar_holds(
        seed in 0u64..1_000_000,
        size in 0usize..48,
        natoms in 1usize..6,
        n in 1usize..400,
    ) {
        let pc = random_pc(seed, size, natoms);
        let tape = EvalTape::compile(&pc);
        let bulk = BulkTape::compile(&tape);
        let points = random_points(seed ^ 0xDEAD_BEEF, n);
        let cols = columns(&points);
        let scalar: Vec<bool> = points.iter().map(|p| tape.holds(p)).collect();

        // Per-lane masks across every slab, including the ragged tail.
        let mut scratch = BulkScratch::new();
        let mut off = 0;
        while off < n {
            let w = LANES.min(n - off);
            let mask = bulk.hit_mask(&cols, off, w, &mut scratch);
            for i in 0..w {
                prop_assert_eq!(
                    (mask >> i) & 1 == 1,
                    scalar[off + i],
                    "seed {} lane {} (sample {}): point {:?}",
                    seed, i, off + i, &points[off + i]
                );
            }
            off += w;
        }

        // Aggregate count through the public thread-local entry point.
        let hits = scalar.iter().filter(|&&h| h).count() as u64;
        prop_assert_eq!(bulk.count_hits(&cols, n), hits);
    }

    /// Forced-NaN DAGs: every atom compares against a NaN-heavy operand
    /// (sqrt of a negated absolute value, and 0/0) — bulk lanes must
    /// treat NaN as a miss for every relational operator, like the
    /// scalar path.
    #[test]
    fn nan_heavy_conjunctions_agree(seed in 0u64..1_000_000, n in 1usize..300) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let zero = Arc::new(Expr::constant(0.0));
        // sqrt(-|x| - 0.5): NaN for every real x.
        let nan_a = Arc::new(Expr::Unary(
            UnOp::Sqrt,
            Arc::new(Expr::Binary(
                BinOp::Sub,
                Arc::new(Expr::Unary(
                    UnOp::Neg,
                    Arc::new(Expr::Unary(UnOp::Abs, Arc::new(Expr::var(VarId(0))))),
                )),
                Arc::new(Expr::constant(0.5)),
            )),
        ));
        // 0 / 0 = NaN.
        let nan_b = Arc::new(Expr::Binary(BinOp::Div, Arc::clone(&zero), zero));
        let y = Arc::new(Expr::var(VarId(1)));
        let atoms = RELOPS
            .iter()
            .map(|&op| {
                let nan = if rng.gen_bool(0.5) { &nan_a } else { &nan_b };
                if rng.gen_bool(0.5) {
                    Atom::new(Arc::clone(nan), op, Arc::clone(&y))
                } else {
                    Atom::new(Arc::clone(&y), op, Arc::clone(nan))
                }
            })
            .collect();
        let pc = PathCondition::from_atoms(atoms);
        let tape = EvalTape::compile(&pc);
        let bulk = BulkTape::compile(&tape);
        let points = random_points(seed ^ 0x5EED, n);
        let cols = columns(&points);
        for p in &points {
            prop_assert!(!tape.holds(p), "NaN atom held at {:?}", p);
        }
        prop_assert_eq!(bulk.count_hits(&cols, n), 0);
    }

    /// The third way: on random boxes and random DAGs, the interval
    /// kind's forward evaluation must *enclose* the scalar kind node for
    /// node — every finite scalar value lies inside the corresponding
    /// forward interval. Scalar NaNs (undefined points) and infinities
    /// (float division by an exactly-zero denominator, overflow) are
    /// outside the real-arithmetic semantics intervals model and are
    /// skipped.
    #[test]
    fn interval_forward_encloses_scalar_on_random_dags(
        seed in 0u64..1_000_000,
        size in 0usize..48,
        natoms in 1usize..6,
        n in 1usize..48,
    ) {
        let pc = random_pc(seed, size, natoms);
        let tape = EvalTape::compile(&pc);
        let bx = random_box(seed ^ 0xB0B0);
        let mut ivals = Vec::new();
        tape.forward_intervals(&bx, &mut ivals);
        let points = points_in_box(seed ^ 0xCAFE, &bx, n);
        for p in &points {
            let (svals, defined) = scalar_node_values(tape.nodes(), p);
            for (i, &v) in svals.iter().enumerate() {
                if !defined[i] {
                    continue;
                }
                prop_assert!(
                    ivals[i].contains(v),
                    "seed {}: node {} ({:?}) = {} escapes {} at {:?} over {}",
                    seed, i, tape.nodes()[i], v, ivals[i], p, bx
                );
            }
        }
    }

    /// HC4 contraction never loses a satisfying point: any sampled point
    /// that satisfies the conjunction (with every intermediate finite,
    /// i.e. real-defined) must survive batch contraction inside its
    /// narrowed box, and the box must not be declared unsat.
    #[test]
    fn interval_contraction_keeps_scalar_hits(
        seed in 0u64..1_000_000,
        size in 0usize..32,
        natoms in 1usize..5,
        n in 1usize..64,
    ) {
        let pc = random_pc(seed, size, natoms);
        let tape = EvalTape::compile(&pc);
        let bx = random_box(seed ^ 0xB0B0);
        let points = points_in_box(seed ^ 0xF00D, &bx, n);
        let hits: Vec<&Vec<f64>> = points
            .iter()
            .filter(|p| {
                let (_, defined) = scalar_node_values(tape.nodes(), p);
                tape.holds(p) && defined.iter().all(|&d| d)
            })
            .collect();
        let mut contracted = bx.clone();
        let mut scratch = IvalScratch::new();
        let sat = tape.contract(&mut contracted, 8, &mut scratch);
        for p in hits {
            prop_assert!(sat, "seed {}: box with solution {:?} declared unsat", seed, p);
            prop_assert!(
                contracted.contains_point(p),
                "seed {}: contraction of {} to {} lost solution {:?}",
                seed, bx, contracted, p
            );
        }
    }
}
