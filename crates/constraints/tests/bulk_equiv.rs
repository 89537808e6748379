//! Differential equivalence and soundness of the tape IR's evaluation
//! kinds on *random expression DAGs*:
//!
//! * the columnar bulk evaluator must agree with [`EvalTape::holds`]
//!   **hit for hit**, on batch sizes that do not divide the lane width
//!   evenly — including NaN-producing operations (`sqrt` of negatives,
//!   `ln` of non-positives, `asin` outside its domain, negative bases
//!   under `pow`, `0/0`) and every relational operator;
//! * the interval kind (the HC4 methods of [`EvalTape`]) must **enclose** the scalar
//!   results: for random batches of boxes, every node row of the batched
//!   forward sweep the paver runs contains the scalar value of that node
//!   at every sampled point of its box, and HC4 contraction never loses
//!   a satisfying point;
//! * the paver's kernel, [`EvalTape::contract_classify`], must give each
//!   lane the verdict and box bits of contracting and classifying that
//!   box alone, and its verdicts must be **sound**: no point of a
//!   [`Tri::True`] box fails the conjunction and no point of a
//!   [`Tri::False`] box satisfies it (points where some node is not
//!   finite are outside the contract).
//!
//! DAGs are grown from a seeded RNG over a pool of shared sub-terms, so
//! generated conditions exercise hash-consing, register reuse and the
//! per-atom early-exit masks, not just expression trees. The unit tests
//! at the end pin contraction and certainty on hand-written conditions.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qcoral_constraints::bulk::LANES;
use qcoral_constraints::parse::parse_system;
use qcoral_constraints::{
    Atom, BinOp, BulkScratch, BulkTape, EvalTape, Expr, IvalScratch, Node, PathCondition, RelOp,
    Tri, UnOp, VarId,
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

/// A batch of `n` random boxes inside `[-3, 3]^NVARS` whose widths span
/// four decades, so batches mix boxes that classify `True`, `False` and
/// `Unknown`.
fn random_boxes(seed: u64, n: usize) -> Vec<IntervalBox> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..NVARS)
                .map(|_| {
                    let c: f64 = rng.gen_range(-3.0..3.0);
                    let h = 10f64.powf(rng.gen_range(-4.0..0.5));
                    Interval::new((c - h).max(-3.0), (c + h).min(3.0))
                })
                .collect()
        })
        .collect()
}

/// Random points in a (possibly degenerate) box, bounds included.
fn points_in_closed_box(rng: &mut SmallRng, bx: &IntervalBox, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            (0..bx.ndim())
                .map(|d| rng.gen_range(bx[d].lo()..=bx[d].hi()))
                .collect()
        })
        .collect()
}

/// Whether every node of the tape is finite at `p` — the points the
/// interval contract speaks about.
fn all_nodes_finite(tape: &EvalTape, p: &[f64]) -> bool {
    scalar_node_values(tape.nodes(), p).1.iter().all(|&d| d)
}

/// A box's exact bit pattern, dimension by dimension.
fn box_bits(bx: &IntervalBox) -> Vec<(u64, u64)> {
    bx.dims()
        .iter()
        .map(|d| (d.lo().to_bits(), d.hi().to_bits()))
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

    /// The third way: on random batches of boxes and random DAGs, the
    /// interval kind's forward sweep (the node rows of
    /// [`EvalTape::eval_atoms_batch`], which the paver classifies from)
    /// must *enclose* the scalar kind node for node — every finite scalar
    /// value lies inside the corresponding node row of its box's lane.
    /// Scalar NaNs (undefined points) and infinities (float division by
    /// an exactly-zero denominator, overflow) are outside the
    /// real-arithmetic semantics intervals model and are skipped.
    #[test]
    fn interval_forward_encloses_scalar_on_random_dags(
        seed in 0u64..1_000_000,
        size in 0usize..48,
        natoms in 1usize..6,
        nboxes in 1usize..5,
        n in 1usize..48,
    ) {
        let pc = random_pc(seed, size, natoms);
        let tape = EvalTape::compile(&pc);
        let boxes: Vec<IntervalBox> = (0..nboxes as u64)
            .map(|k| random_box(seed ^ 0xB0B0 ^ (k << 40)))
            .collect();
        let mut scratch = IvalScratch::new();
        tape.eval_atoms_batch(&boxes, &mut scratch);
        for (lane, bx) in boxes.iter().enumerate() {
            let points = points_in_box(seed ^ 0xCAFE ^ lane as u64, bx, n);
            for p in &points {
                let (svals, defined) = scalar_node_values(tape.nodes(), p);
                for (i, &v) in svals.iter().enumerate() {
                    if !defined[i] {
                        continue;
                    }
                    let iv = scratch.node(i, lane);
                    prop_assert!(
                        iv.contains(v),
                        "seed {}: node {} ({:?}) = {} escapes {} at {:?} over {}",
                        seed, i, tape.nodes()[i], v, iv, p, bx
                    );
                }
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

    /// The paver's batched kernel is lane-independent: on random DAGs and
    /// random batches, `contract_classify` gives every lane the verdict
    /// and the box bits of single-box contraction followed by certainty.
    #[test]
    fn contract_classify_matches_single_box_lanes(
        seed in 0u64..1_000_000,
        size in 0usize..40,
        natoms in 1usize..6,
        nboxes in 1usize..20,
        max_passes in 1usize..9,
    ) {
        let pc = random_pc(seed, size, natoms);
        let tape = EvalTape::compile(&pc);
        let seeds = random_boxes(seed ^ 0xBA7C, nboxes);
        let mut batch = seeds.clone();
        let mut verdicts = Vec::new();
        let mut scratch = IvalScratch::new();
        tape.contract_classify(&mut batch, max_passes, &mut verdicts, &mut scratch);
        prop_assert_eq!(verdicts.len(), seeds.len());
        let mut single_scratch = IvalScratch::new();
        for (lane, seed_box) in seeds.iter().enumerate() {
            let mut single = seed_box.clone();
            let verdict = if tape.contract(&mut single, max_passes, &mut single_scratch) {
                tape.certainty(&single, &mut single_scratch)
            } else {
                Tri::False
            };
            prop_assert_eq!(verdicts[lane], verdict, "seed {} lane {} verdict", seed, lane);
            prop_assert_eq!(
                box_bits(&batch[lane]),
                box_bits(&single),
                "seed {} lane {} box {} vs {}",
                seed, lane, batch[lane], single
            );
        }
    }

    /// Classification is sound on random nonlinear DAGs. Every sampled
    /// point of a `Tri::True` box (after contraction) satisfies the
    /// conjunction, and no sampled point of a `Tri::False` box (before
    /// contraction, which proved the whole seed box solution-free)
    /// satisfies it. Points where some node is not finite are left out:
    /// an interval image keeps only the defined part of a node's range.
    #[test]
    fn classification_is_sound_on_random_dags(
        seed in 0u64..1_000_000,
        size in 0usize..40,
        natoms in 1usize..6,
        nboxes in 1usize..20,
    ) {
        let pc = random_pc(seed, size, natoms);
        let tape = EvalTape::compile(&pc);
        let seeds = random_boxes(seed ^ 0x50DD, nboxes);
        let mut batch = seeds.clone();
        let mut verdicts = Vec::new();
        tape.contract_classify(&mut batch, 8, &mut verdicts, &mut IvalScratch::new());
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7E57);
        for (lane, verdict) in verdicts.iter().enumerate() {
            let (sampled, expect) = match verdict {
                Tri::True => (&batch[lane], true),
                Tri::False => (&seeds[lane], false),
                Tri::Unknown => continue,
            };
            for p in points_in_closed_box(&mut rng, sampled, 32) {
                if !all_nodes_finite(&tape, &p) {
                    continue;
                }
                prop_assert_eq!(
                    tape.holds(&p),
                    expect,
                    "seed {} lane {}: {:?} box {} misclassifies {:?}",
                    seed, lane, verdict, sampled, p
                );
            }
        }
    }
}

/// The first path condition of `src`, its tape and its domain box.
fn tape_and_box(src: &str) -> (PathCondition, EvalTape, IntervalBox) {
    let sys = parse_system(src).unwrap();
    let pc = sys.constraint_set.pcs()[0].clone();
    let dom_box = sys
        .domain
        .iter()
        .map(|(_, v)| Interval::new(v.lo, v.hi))
        .collect();
    (pc.clone(), EvalTape::compile(&pc), dom_box)
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
    let (_, t, mut b) = tape_and_box("var x in [0, 20000]; pc x > 9000;");
    assert!(t.contract(&mut b, 8, &mut IvalScratch::new()));
    // x narrows to roughly [9000, 20000].
    assert!(b[0].lo() >= 8999.0, "{}", b[0]);
    assert!(b[0].hi() <= 20000.0);
}

#[test]
fn contract_conjunction_to_small_region() {
    let (_, t, mut b) =
        tape_and_box("var x in [0, 10]; var y in [0, 10]; pc x + y <= 2 && x >= 1 && y >= 0.5;");
    assert!(t.contract(&mut b, 8, &mut IvalScratch::new()));
    assert!(b[0].lo() >= 0.99 && b[0].hi() <= 1.51, "{}", b[0]);
    assert!(b[1].lo() >= 0.49 && b[1].hi() <= 1.01, "{}", b[1]);
}

#[test]
fn contract_detects_unsat() {
    let (_, t, mut b) = tape_and_box("var x in [0, 1]; pc x > 2;");
    assert!(!t.contract(&mut b, 8, &mut IvalScratch::new()));
    assert!(b.is_empty());
}

#[test]
fn contract_nonlinear() {
    let (_, t, mut b) = tape_and_box("var x in [-10, 10]; pc x * x <= 4 && x >= 0;");
    assert!(t.contract(&mut b, 8, &mut IvalScratch::new()));
    assert!(b[0].lo() >= -0.001 && b[0].hi() <= 2.3, "{}", b[0]);
}

#[test]
fn contract_undefined_everywhere_is_unsat() {
    let (_, t, mut b) = tape_and_box("var x in [-5, -1]; pc sqrt(x) >= 0;");
    assert!(!t.contract(&mut b, 8, &mut IvalScratch::new()));
}

#[test]
fn certainty_true_false_unknown() {
    let mut s = IvalScratch::new();
    let (_, t, b) = tape_and_box("var x in [0, 1]; pc x >= 0;");
    assert_eq!(t.certainty(&b, &mut s), Tri::True);

    let (_, t2, b2) = tape_and_box("var x in [0, 1]; pc x > 2;");
    assert_eq!(t2.certainty(&b2, &mut s), Tri::False);

    let (_, t3, b3) = tape_and_box("var x in [0, 1]; pc x > 0.5;");
    assert_eq!(t3.certainty(&b3, &mut s), Tri::Unknown);
}

#[test]
fn certainty_strict_vs_nonstrict_boundary() {
    // x ∈ [1, 2]: x >= 1 certainly true; x > 1 unknown (boundary).
    let mut s = IvalScratch::new();
    let (_, t, b) = tape_and_box("var x in [1, 2]; pc x >= 1;");
    assert_eq!(t.certainty(&b, &mut s), Tri::True);
    let (_, t2, b2) = tape_and_box("var x in [1, 2]; pc x > 1;");
    assert_eq!(t2.certainty(&b2, &mut s), Tri::Unknown);
}

#[test]
fn certainty_ne() {
    let mut s = IvalScratch::new();
    let (_, t, b) = tape_and_box("var x in [1, 2]; pc x != 0;");
    assert_eq!(t.certainty(&b, &mut s), Tri::True);
    let (_, t2, b2) = tape_and_box("var x in [-1, 1]; pc x != 0;");
    assert_eq!(t2.certainty(&b2, &mut s), Tri::Unknown);
}

#[test]
fn empty_conjunction_is_certain() {
    let t = EvalTape::compile(&PathCondition::new());
    let mut s = IvalScratch::new();
    let b: IntervalBox = [Interval::new(0.0, 1.0)].into_iter().collect();
    assert_eq!(t.certainty(&b, &mut s), Tri::True);
    let mut bb = b.clone();
    assert!(t.contract(&mut bb, 8, &mut s));
    assert_eq!(bb, b);
}

#[test]
fn contract_never_loses_solutions_spot_check() {
    // Triangle constraint from the paper's Figure 2.
    let (pc, t, mut b) = tape_and_box("var x in [-1, 1]; var y in [-1, 1]; pc x <= -y && y <= x;");
    assert!(t.contract(&mut b, 8, &mut IvalScratch::new()));
    // Known solutions must survive contraction. The triangle is
    // y ≤ 0 with |x| ≤ −y (x between y and −y).
    for &(px, py) in &[(0.5, -0.7), (-0.3, -0.5), (0.1, -0.2), (0.0, 0.0)] {
        assert!(pc.holds(&[px, py]));
        assert!(b.contains_point(&[px, py]), "{b} lost ({px}, {py})");
    }
}

#[test]
fn transcendental_contraction() {
    let (_, t, mut b) = tape_and_box("var x in [0, 6.283185307179586]; pc sin(x) > 0.9;");
    assert!(t.contract(&mut b, 8, &mut IvalScratch::new()));
    // Solutions are around π/2 (≈ [1.12, 2.02]).
    assert!(b[0].lo() > 0.9 && b[0].hi() < 2.3, "{}", b[0]);
    let mid = std::f64::consts::FRAC_PI_2;
    assert!(b.contains_point(&[mid]));
}

#[test]
fn batch_contract_classify_matches_serial() {
    let (_, t, b) = tape_and_box("var x in [-1, 1]; var y in [-1, 1]; pc x * x + y * y <= 1;");
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
    let mut scratch = IvalScratch::new();
    // Serial reference: contract + certainty one box at a time.
    let mut serial_boxes = cases.clone();
    let mut serial: Vec<Tri> = Vec::new();
    for bx in &mut serial_boxes {
        if !t.contract(bx, 8, &mut scratch) {
            serial.push(Tri::False);
        } else {
            serial.push(t.certainty(bx, &mut scratch));
        }
    }
    let mut batch_boxes = cases;
    let mut verdicts = Vec::new();
    t.contract_classify(&mut batch_boxes, 8, &mut verdicts, &mut scratch);
    assert_eq!(verdicts, serial);
    for (sb, bb) in serial_boxes.iter().zip(&batch_boxes) {
        assert_eq!(sb, bb, "batched contraction must be bit-identical");
    }
}

#[test]
fn batch_classify_empty_conjunction() {
    let t = EvalTape::compile(&PathCondition::new());
    let mut boxes: Vec<IntervalBox> = vec![[Interval::new(0.0, 1.0)].into_iter().collect()];
    let mut verdicts = Vec::new();
    t.contract_classify(&mut boxes, 8, &mut verdicts, &mut IvalScratch::new());
    assert_eq!(verdicts, vec![Tri::True]);
}
