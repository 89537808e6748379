//! Columnar bulk evaluation: register-allocated slice tapes.
//!
//! [`EvalTape::holds_with`] interprets the
//! compiled DAG one sample at a time: every node pays a `match` dispatch,
//! a bounds check and a `Vec` push *per sample*, and the scratch grows to
//! one slot per node — cache-hostile on the symexec-generated tapes where
//! nodes number in the thousands. Since the Monte Carlo engines call the
//! predicate once per sample and samples come in chunks anyway, the
//! dispatch can be amortized across a whole *lane chunk*:
//!
//! [`BulkTape`] recompiles an [`EvalTape`] into a linear
//! instruction stream that evaluates each operation over [`LANES`]
//! samples at once, in simple indexed loops the compiler auto-vectorizes
//! (the technique of float-slice evaluators in implicit-surface engines
//! such as `fidget`). Two analyses shrink and speed up the scratch:
//!
//! * **last-use liveness + register allocation** — instead of one scratch
//!   slot per node, values live in a small file of reusable lane
//!   registers (a register is released at the last instruction that reads
//!   it), so the working set stays cache-resident no matter how large the
//!   DAG is;
//! * **per-atom masks with all-false early exit** — each relational atom
//!   compares two registers into a 128-bit hit mask; masks AND together,
//!   and when no lane can still satisfy the conjunction the remaining
//!   instructions are skipped (the columnar analogue of the scalar
//!   early-exit, at chunk granularity).
//!
//! Semantics are *exactly* those of the scalar tape, hit for hit: lanes
//! apply the same `f64` operations in the same order as
//! [`EvalTape::holds`] would per sample, NaN on
//! either side of an atom yields a miss (including `!=`), and the empty
//! conjunction is true. The samplers in `qcoral-mc` rely on this
//! equivalence to keep bulk estimates bit-identical to the scalar path;
//! `crates/constraints/tests/bulk_equiv.rs` pins it on random DAGs.

use std::cell::RefCell;

use crate::ctape::Node;
use crate::{BinOp, EvalTape, RelOp, UnOp};

/// Lane width of the bulk evaluator: each instruction processes up to
/// this many samples. 128 f64 lanes = 1 KiB per register — a register
/// file of a few dozen registers stays comfortably inside L1/L2 — and
/// matches the 128-bit hit masks.
pub const LANES: usize = 128;

/// One instruction of a compiled bulk tape. Register indices address the
/// lane-register file; the allocator guarantees `dst` is distinct from
/// the instruction's sources, so evaluation can split the file into one
/// mutable destination and shared sources without aliasing.
#[derive(Copy, Clone, Debug)]
enum Inst {
    /// Broadcast a constant across the destination register.
    Const { dst: u32, value: f64 },
    /// Load a contiguous slice of an input column.
    Var { dst: u32, var: u32 },
    /// Lane-wise unary operation.
    Un { op: UnOp, dst: u32, src: u32 },
    /// Lane-wise binary operation.
    Bin { op: BinOp, dst: u32, a: u32, b: u32 },
    /// Compare two registers lane-wise and AND the result into the
    /// running hit mask (an atom boundary; all-false masks early-exit).
    Cmp { op: RelOp, a: u32, b: u32 },
}

/// Reusable lane-register scratch for [`BulkTape`] evaluation. Grows to
/// the largest register file it has served and is then allocation-free;
/// one scratch may serve tapes of any size.
#[derive(Debug, Default)]
pub struct BulkScratch {
    regs: Vec<Vec<f64>>,
}

impl BulkScratch {
    /// An empty scratch (registers are allocated on first use).
    pub fn new() -> BulkScratch {
        BulkScratch::default()
    }

    fn ensure(&mut self, nregs: usize) {
        while self.regs.len() < nregs {
            self.regs.push(vec![0.0; LANES]);
        }
    }
}

/// A register-allocated columnar tape compiled from an [`EvalTape`].
///
/// Evaluation consumes *columns*: `cols[v][i]` is variable `v` of sample
/// `i` (structure-of-arrays layout). [`BulkTape::count_hits`] processes
/// samples in [`LANES`]-wide slabs and returns how many satisfied the
/// conjunction — bit-for-bit the number of samples on which
/// [`EvalTape::holds`] returns `true`.
///
/// # Example
///
/// ```
/// use qcoral_constraints::bulk::BulkTape;
/// use qcoral_constraints::parse::parse_system;
/// use qcoral_constraints::EvalTape;
///
/// let sys = parse_system("var x in [0, 1]; pc sin(x) > 0.5 && x < 0.9;").unwrap();
/// let pc = &sys.constraint_set.pcs()[0];
/// let tape = EvalTape::compile(pc);
/// let bulk = BulkTape::compile(&tape);
/// let xs: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
/// let scalar = xs.iter().filter(|&&x| tape.holds(&[x])).count() as u64;
/// assert_eq!(bulk.count_hits(&[xs], 1000), scalar);
/// ```
#[derive(Clone, Debug)]
pub struct BulkTape {
    insts: Vec<Inst>,
    nregs: usize,
    natoms: usize,
    /// Minimum number of input columns (largest variable index + 1).
    nvars: usize,
}

impl BulkTape {
    /// Recompiles a scalar tape into register-allocated bulk form.
    ///
    /// The instruction stream interleaves node evaluations with atom
    /// comparisons in the scalar tape's lazy order (nodes are emitted
    /// just before the first atom whose operand ids cover them, so an
    /// early-exiting mask skips exactly the work the scalar path would
    /// skip — at slab granularity) and assigns registers by last-use
    /// liveness. Every pool node is read by a later node or atom:
    /// [`EvalTape::compile`] interns nodes only while emitting atom
    /// operands, so the pool *is* the operand closure — there are no
    /// dead nodes to prune (the allocator debug-asserts this).
    pub fn compile(tape: &EvalTape) -> BulkTape {
        let nodes = tape.nodes();
        let atoms = tape.atom_nodes();

        // Linear schedule: each atom is preceded by the not-yet-emitted
        // nodes with ids below its operands', in id order — children
        // before parents by the tape's topological invariant, and the
        // same node order the scalar evaluator uses.
        enum Sched {
            Node(u32),
            Atom(usize),
        }
        let mut sched = Vec::new();
        let mut emitted = 0usize;
        for (k, &(l, _, r)) in atoms.iter().enumerate() {
            let need = (l.max(r) as usize) + 1;
            while emitted < need {
                sched.push(Sched::Node(emitted as u32));
                emitted += 1;
            }
            sched.push(Sched::Atom(k));
        }

        // Last schedule position reading each node's value.
        let mut last_use = vec![usize::MAX; nodes.len()];
        for (p, s) in sched.iter().enumerate() {
            match *s {
                Sched::Node(id) => match nodes[id as usize] {
                    Node::Unary(_, c) => last_use[c as usize] = p,
                    Node::Binary(_, a, b) => {
                        last_use[a as usize] = p;
                        last_use[b as usize] = p;
                    }
                    Node::Const(_) | Node::Var(_) => {}
                },
                Sched::Atom(k) => {
                    let (l, _, r) = atoms[k];
                    last_use[l as usize] = p;
                    last_use[r as usize] = p;
                }
            }
        }

        // Forward register allocation. A destination register is drawn
        // from the free list *before* the instruction's sources are
        // released, so `dst` never aliases a source (which lets the
        // evaluator split the register file borrow-safely) at the cost
        // of at most one extra register.
        let mut reg_of = vec![u32::MAX; nodes.len()];
        let mut free: Vec<u32> = Vec::new();
        let mut nregs = 0u32;
        let mut insts = Vec::with_capacity(sched.len());
        let mut nvars = 0usize;
        let release = |ids: &[u32], p: usize, free: &mut Vec<u32>, reg_of: &[u32]| {
            for (i, &id) in ids.iter().enumerate() {
                // Dedup `a == b` operands: release a register once.
                if last_use[id as usize] == p && !ids[..i].contains(&id) {
                    free.push(reg_of[id as usize]);
                }
            }
        };
        for (p, s) in sched.iter().enumerate() {
            match *s {
                Sched::Node(id) => {
                    debug_assert!(
                        last_use[id as usize] != usize::MAX,
                        "EvalTape pool contains a node no atom reads"
                    );
                    let node = nodes[id as usize];
                    let dst = free.pop().unwrap_or_else(|| {
                        nregs += 1;
                        nregs - 1
                    });
                    reg_of[id as usize] = dst;
                    match node {
                        Node::Const(value) => insts.push(Inst::Const { dst, value }),
                        Node::Var(v) => {
                            nvars = nvars.max(v as usize + 1);
                            insts.push(Inst::Var { dst, var: v });
                        }
                        Node::Unary(op, c) => {
                            insts.push(Inst::Un {
                                op,
                                dst,
                                src: reg_of[c as usize],
                            });
                            release(&[c], p, &mut free, &reg_of);
                        }
                        Node::Binary(op, a, b) => {
                            insts.push(Inst::Bin {
                                op,
                                dst,
                                a: reg_of[a as usize],
                                b: reg_of[b as usize],
                            });
                            release(&[a, b], p, &mut free, &reg_of);
                        }
                    }
                }
                Sched::Atom(k) => {
                    let (l, op, r) = atoms[k];
                    insts.push(Inst::Cmp {
                        op,
                        a: reg_of[l as usize],
                        b: reg_of[r as usize],
                    });
                    release(&[l, r], p, &mut free, &reg_of);
                }
            }
        }

        BulkTape {
            insts,
            nregs: nregs as usize,
            natoms: atoms.len(),
            nvars,
        }
    }

    /// Size of the lane-register file (typically far smaller than the
    /// node count — liveness lets registers be reused).
    pub fn num_registers(&self) -> usize {
        self.nregs
    }

    /// Instruction count (needed node evaluations plus one comparison
    /// per atom).
    pub fn num_instructions(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` for the empty (always-true) conjunction.
    pub fn is_empty(&self) -> bool {
        self.natoms == 0
    }

    /// Minimum number of input columns evaluation requires.
    pub fn num_vars(&self) -> usize {
        self.nvars
    }

    /// Evaluates one slab of `w <= LANES` samples starting at column
    /// offset `off`, returning the hit mask (bit `i` set ⇔ sample
    /// `off + i` satisfies every atom).
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `w > LANES`, if any column is shorter than
    /// `off + w`, or if fewer than [`BulkTape::num_vars`] columns are
    /// supplied (the columnar analogue of the scalar out-of-range
    /// variable panic).
    pub fn hit_mask(
        &self,
        cols: &[Vec<f64>],
        off: usize,
        w: usize,
        scratch: &mut BulkScratch,
    ) -> u128 {
        assert!(
            (1..=LANES).contains(&w),
            "slab width {w} out of 1..={LANES}"
        );
        assert!(
            cols.len() >= self.nvars,
            "tape reads {} columns, {} supplied",
            self.nvars,
            cols.len()
        );
        scratch.ensure(self.nregs);
        let regs = &mut scratch.regs[..];
        let mut mask: u128 = if w == LANES { !0 } else { (1u128 << w) - 1 };
        for inst in &self.insts {
            match *inst {
                Inst::Const { dst, value } => {
                    regs[dst as usize][..w].fill(value);
                }
                Inst::Var { dst, var } => {
                    regs[dst as usize][..w].copy_from_slice(&cols[var as usize][off..off + w]);
                }
                Inst::Un { op, dst, src } => {
                    let (d, s, _) = dst_srcs(regs, dst, src, src, w);
                    unary_lanes(op, d, s);
                }
                Inst::Bin { op, dst, a, b } => {
                    let (d, a, b) = dst_srcs(regs, dst, a, b, w);
                    binary_lanes(op, d, a, b);
                }
                Inst::Cmp { op, a, b } => {
                    mask &= cmp_mask(op, &regs[a as usize][..w], &regs[b as usize][..w]);
                    if mask == 0 {
                        return 0;
                    }
                }
            }
        }
        mask
    }

    /// Counts the samples among the first `n` (columnar layout) that
    /// satisfy the conjunction, processing [`LANES`]-wide slabs with a
    /// trailing partial slab when `n` is not a multiple of the lane
    /// width. `n == 0` returns 0; the empty conjunction counts every
    /// sample.
    ///
    /// # Panics
    ///
    /// As [`BulkTape::hit_mask`] (short columns, missing columns).
    pub fn count_hits_with(&self, cols: &[Vec<f64>], n: usize, scratch: &mut BulkScratch) -> u64 {
        let mut hits = 0u64;
        let mut off = 0usize;
        while off < n {
            let w = LANES.min(n - off);
            hits += self.hit_mask(cols, off, w, scratch).count_ones() as u64;
            off += w;
        }
        hits
    }

    /// [`BulkTape::count_hits_with`] over a thread-local scratch —
    /// allocation-free after warm-up on each thread (shared by all tapes
    /// on the thread; the scratch grows to the largest register file
    /// seen).
    pub fn count_hits(&self, cols: &[Vec<f64>], n: usize) -> u64 {
        thread_local! {
            static SCRATCH: RefCell<BulkScratch> = RefCell::new(BulkScratch::new());
        }
        SCRATCH.with(|s| self.count_hits_with(cols, n, &mut s.borrow_mut()))
    }
}

/// Splits the register file into the destination register (mutable) and
/// two source registers (shared), all sliced to the active lane width.
/// The compiler guarantees `dst != a` and `dst != b`; `a` may equal `b`.
fn dst_srcs(
    regs: &mut [Vec<f64>],
    dst: u32,
    a: u32,
    b: u32,
    w: usize,
) -> (&mut [f64], &[f64], &[f64]) {
    let d = dst as usize;
    debug_assert!(d != a as usize && d != b as usize, "dst aliases a source");
    let (before, rest) = regs.split_at_mut(d);
    let (dreg, after) = rest.split_first_mut().expect("dst register in range");
    let before = &*before;
    let after = &*after;
    let pick = |i: u32| -> &[f64] {
        let i = i as usize;
        if i < d {
            &before[i][..w]
        } else {
            &after[i - d - 1][..w]
        }
    };
    (&mut dreg[..w], pick(a), pick(b))
}

/// Applies `f` to every lane of `s`, writing `d` (the unary kernels).
#[inline(always)]
fn map1(d: &mut [f64], s: &[f64], f: impl Fn(f64) -> f64) {
    for (d, &x) in d.iter_mut().zip(s) {
        *d = f(x);
    }
}

/// Applies `f` to every lane pair of `a` and `b`, writing `d` (the binary
/// kernels).
#[inline(always)]
fn map2(d: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((d, &x), &y) in d.iter_mut().zip(a).zip(b) {
        *d = f(x, y);
    }
}

/// Applies a unary operation lane-wise. The `match` is hoisted out of
/// the loop so each arm is a tight, auto-vectorizable kernel calling the
/// *same* `f64` operation as [`UnOp::apply`] — lanes stay bit-identical
/// to the scalar path.
fn unary_lanes(op: UnOp, d: &mut [f64], s: &[f64]) {
    macro_rules! lanes {
        (|$x:ident| $e:expr) => {
            map1(d, s, |$x| $e)
        };
    }
    match op {
        UnOp::Neg => lanes!(|x| -x),
        UnOp::Abs => lanes!(|x| x.abs()),
        UnOp::Sqrt => lanes!(|x| x.sqrt()),
        UnOp::Exp => lanes!(|x| x.exp()),
        UnOp::Ln => lanes!(|x| x.ln()),
        UnOp::Sin => lanes!(|x| x.sin()),
        UnOp::Cos => lanes!(|x| x.cos()),
        UnOp::Tan => lanes!(|x| x.tan()),
        UnOp::Asin => lanes!(|x| x.asin()),
        UnOp::Acos => lanes!(|x| x.acos()),
        UnOp::Atan => lanes!(|x| x.atan()),
    }
}

/// Applies a binary operation lane-wise (dispatch hoisted, kernels
/// bit-identical to [`BinOp::apply`]).
fn binary_lanes(op: BinOp, d: &mut [f64], a: &[f64], b: &[f64]) {
    macro_rules! lanes {
        (|$x:ident, $y:ident| $e:expr) => {
            map2(d, a, b, |$x, $y| $e)
        };
    }
    match op {
        BinOp::Add => lanes!(|x, y| x + y),
        BinOp::Sub => lanes!(|x, y| x - y),
        BinOp::Mul => lanes!(|x, y| x * y),
        BinOp::Div => lanes!(|x, y| x / y),
        BinOp::Pow => lanes!(|x, y| x.powf(y)),
        BinOp::Min => lanes!(|x, y| x.min(y)),
        BinOp::Max => lanes!(|x, y| x.max(y)),
        BinOp::Atan2 => lanes!(|x, y| x.atan2(y)),
    }
}

/// Compares two registers lane-wise into a hit mask. NaN on either side
/// is a miss for every operator — *including* `!=` — matching
/// [`RelOp::apply`] exactly. (IEEE comparisons already return `false`
/// for NaN operands on `< <= > >= ==`; only `!=` needs the explicit
/// NaN rejection.)
fn cmp_mask(op: RelOp, a: &[f64], b: &[f64]) -> u128 {
    let mut m = 0u128;
    macro_rules! lanes {
        (|$x:ident, $y:ident| $e:expr) => {
            for (i, (&$x, &$y)) in a.iter().zip(b).enumerate() {
                m |= ($e as u128) << i;
            }
        };
    }
    match op {
        RelOp::Lt => lanes!(|x, y| x < y),
        RelOp::Le => lanes!(|x, y| x <= y),
        RelOp::Gt => lanes!(|x, y| x > y),
        RelOp::Ge => lanes!(|x, y| x >= y),
        RelOp::Eq => lanes!(|x, y| x == y),
        RelOp::Ne => lanes!(|x, y| !x.is_nan() && !y.is_nan() && x != y),
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_system;
    use crate::{Atom, Expr, PathCondition, VarId};

    fn pc_of(src: &str) -> PathCondition {
        parse_system(src).unwrap().constraint_set.pcs()[0].clone()
    }

    /// Column layout of a row-major point list.
    fn columns(points: &[Vec<f64>], nvars: usize) -> Vec<Vec<f64>> {
        (0..nvars)
            .map(|d| points.iter().map(|p| p[d]).collect())
            .collect()
    }

    fn check_equivalence(pc: &PathCondition, points: &[Vec<f64>], nvars: usize) {
        let tape = EvalTape::compile(pc);
        let bulk = BulkTape::compile(&tape);
        let cols = columns(points, nvars);
        let scalar: Vec<bool> = points.iter().map(|p| tape.holds(p)).collect();
        // Hit-for-hit over every slab, including the ragged tail.
        let mut scratch = BulkScratch::new();
        let mut off = 0;
        while off < points.len() {
            let w = LANES.min(points.len() - off);
            let mask = bulk.hit_mask(&cols, off, w, &mut scratch);
            for i in 0..w {
                assert_eq!(
                    (mask >> i) & 1 == 1,
                    scalar[off + i],
                    "lane {} of slab at {off} diverges on {:?}",
                    i,
                    points[off + i]
                );
            }
            off += w;
        }
        let hits = scalar.iter().filter(|&&h| h).count() as u64;
        assert_eq!(bulk.count_hits(&cols, points.len()), hits);
    }

    #[test]
    fn matches_scalar_on_grid() {
        let pc = pc_of(
            "var x in [-2, 2]; var y in [-2, 2];
             pc sin(x * y) > 0.25 && x + y <= 1.5 && x * x + y * y <= 4;",
        );
        let points: Vec<Vec<f64>> = (0..40)
            .flat_map(|i| (0..40).map(move |j| vec![-2.0 + i as f64 * 0.1, -2.0 + j as f64 * 0.1]))
            .collect();
        check_equivalence(&pc, &points, 2);
    }

    #[test]
    fn nan_lanes_are_misses_for_every_relop() {
        // sqrt(x) is NaN for negative x; exercise every operator.
        for op in [
            RelOp::Lt,
            RelOp::Le,
            RelOp::Gt,
            RelOp::Ge,
            RelOp::Eq,
            RelOp::Ne,
        ] {
            let pc = PathCondition::from_atoms(vec![Atom::new(
                Expr::var(VarId(0)).sqrt(),
                op,
                Expr::constant(0.5),
            )]);
            let points: Vec<Vec<f64>> = (-20..20).map(|i| vec![i as f64 / 7.0]).collect();
            check_equivalence(&pc, &points, 1);
        }
    }

    #[test]
    fn register_file_is_smaller_than_node_pool_on_chains() {
        // A long chain uses each value once: liveness collapses the
        // scratch to a couple of registers no matter the chain length.
        let mut e = Expr::var(VarId(0));
        for i in 0..100 {
            e = e.add(Expr::constant(i as f64)).sin();
        }
        let pc = PathCondition::from_atoms(vec![Atom::new(e, RelOp::Gt, Expr::constant(0.0))]);
        let tape = EvalTape::compile(&pc);
        let bulk = BulkTape::compile(&tape);
        assert!(tape.len() > 100, "node pool is large: {}", tape.len());
        assert!(
            bulk.num_registers() <= 4,
            "chain should need a tiny register file, got {}",
            bulk.num_registers()
        );
        let points: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64 / 150.0 - 1.0]).collect();
        check_equivalence(&pc, &points, 1);
    }

    #[test]
    fn early_exit_mask_preserves_results() {
        // First atom false everywhere ⇒ later (NaN-producing) atoms are
        // skipped by the mask early-exit, exactly like the scalar path.
        let pc = pc_of("var x in [-4, -1]; pc x >= 0 && sqrt(x) < 1;");
        let points: Vec<Vec<f64>> = (0..200).map(|i| vec![-4.0 + i as f64 * 0.015]).collect();
        check_equivalence(&pc, &points, 1);
    }

    #[test]
    fn empty_conjunction_counts_everything() {
        let bulk = BulkTape::compile(&EvalTape::compile(&PathCondition::new()));
        assert!(bulk.is_empty());
        assert_eq!(bulk.num_vars(), 0);
        assert_eq!(bulk.count_hits(&[], 513), 513);
        assert_eq!(bulk.count_hits(&[], 0), 0);
    }

    #[test]
    fn ragged_tail_widths_are_exact() {
        let pc = pc_of("var x in [0, 1]; pc x < 0.5;");
        for n in [1usize, 127, 128, 129, 255, 256, 300] {
            let points: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
            check_equivalence(&pc, &points, 1);
        }
    }

    #[test]
    fn shared_subterms_evaluate_once_per_slab() {
        let shared = Expr::var(VarId(0)).add(Expr::constant(1.0));
        let pc = PathCondition::from_atoms(vec![
            Atom::new(
                shared.clone().mul(shared.clone()),
                RelOp::Le,
                Expr::constant(4.0),
            ),
            Atom::new(shared, RelOp::Ge, Expr::constant(0.0)),
        ]);
        let tape = EvalTape::compile(&pc);
        let bulk = BulkTape::compile(&tape);
        // Six distinct nodes → six evals + two compares.
        assert_eq!(bulk.num_instructions(), 8);
        let points: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 * 0.1 - 3.0]).collect();
        check_equivalence(&pc, &points, 1);
    }
}
