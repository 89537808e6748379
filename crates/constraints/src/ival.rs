//! The interval evaluation kind of the unified tape IR: forward interval
//! evaluation, HC4 backward contraction and certainty classification,
//! over one or many boxes per dispatch.
//!
//! [`EvalTape`] is the IR — a hash-consed node pool in topological order
//! plus the `(lhs, op, rhs)` triple per atom. [`crate::bulk::BulkTape`]
//! recompiles that pool into register-allocated float lanes; this module
//! runs the *same* pool over [`Interval`]s as methods of [`EvalTape`],
//! so the interval kind keeps no copy of the nodes or atoms. No register
//! allocation happens here: the backward pass needs every node's forward
//! interval, so the pool is evaluated in place, one row of lane values
//! per node.
//!
//! # Batched contraction
//!
//! [`EvalTape::contract_batch`] narrows many candidate boxes in one
//! call, mirroring `BulkTape`'s structure-of-arrays layout: node `i`'s
//! values for all lanes live in the contiguous row `vals[i·B .. i·B+B]`,
//! and each kernel matches its operator once and then loops over lanes.
//! Atoms are contracted *without* normalizing to `lhs − rhs ⋈ 0`: for an
//! atom `l ⋈ r` the two operand intervals narrow each other directly
//! (e.g. for `l ≤ r`: `l ∩= (−∞, r.hi]` and `r ∩= [l.lo, ∞)`), which
//! yields the same projections as HC4 on the subtraction form but skips
//! the extra node and its outward rounding.
//!
//! Per lane the pass loop is incremental: a lane tracks how many leading
//! pool rows currently hold valid intervals (`valid`), and forward work
//! is skipped for prefixes that are still valid. Narrowing a lane's box
//! invalidates the rows from the narrowed variable's leaf onward; a pass
//! that leaves a lane's box unchanged settles the lane.
//!
//! # Certainty
//!
//! This module is the one owner of what "contracted" and "certain" mean.
//! Narrowed node values enclose the *solution* set, not the whole box,
//! so deciding whether an atom holds over every point of a box needs one
//! clean forward evaluation, [`EvalTape::eval_atoms_batch`], whose node
//! rows are the single forward interval sweep of the crate. The per-atom
//! rule then turns the two operand images into a [`Tri`] verdict: an
//! empty image (an operand undefined on the whole box) never satisfies
//! an atom, and an atom is certain only if its relation holds between
//! every pair of values of the images. [`EvalTape::contract_classify`]
//! — contract, re-evaluate, classify — is the paver's one kernel.

use qcoral_interval::{Interval, IntervalBox};

use crate::atom::RelOp;
use crate::ctape::{EvalTape, Node};
use crate::expr::{BinOp, UnOp};

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

/// Per-lane contraction status.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum LaneState {
    /// Still being narrowed.
    Active,
    /// Reached a fixpoint (a full pass left the box unchanged).
    Settled,
    /// Proven to contain no solution; the box has been emptied.
    Unsat,
}

/// Reusable scratch for the interval batch calls of [`EvalTape`]:
/// node-value rows, atom images, and per-lane bookkeeping.
/// Allocation-free across calls once warm.
#[derive(Default, Debug)]
pub struct IvalScratch {
    lanes: usize,
    /// Node-major rows: `vals[node · lanes + lane]`.
    vals: Vec<Interval>,
    /// Atom-major `(lhs, rhs)` image rows from the last clean forward.
    images: Vec<(Interval, Interval)>,
    state: Vec<LaneState>,
    /// Per lane: number of leading pool rows holding valid intervals.
    valid: Vec<u32>,
    /// Per-pass width snapshot, lane-major: `widths[lane · ndim + dim]`.
    widths: Vec<f64>,
    /// Per-node lane mask reused by the forward kernels.
    mask: Vec<bool>,
}

impl IvalScratch {
    /// Fresh, empty scratch.
    pub fn new() -> IvalScratch {
        IvalScratch::default()
    }

    /// Whether the lane's box survived the last
    /// [`EvalTape::contract_batch`] call (was not proven empty).
    pub fn sat(&self, lane: usize) -> bool {
        self.state[lane] != LaneState::Unsat
    }

    /// The `(lhs, rhs)` interval images of `atom` on `lane`'s box from
    /// the last [`EvalTape::eval_atoms_batch`] call. Both entries
    /// are empty for a lane whose box was empty.
    pub fn image(&self, atom: usize, lane: usize) -> (Interval, Interval) {
        self.images[atom * self.lanes + lane]
    }

    /// Pool node `node`'s forward interval on `lane`'s box from the last
    /// [`EvalTape::eval_atoms_batch`] call: a superset of the node's
    /// image over the box, empty where the sub-expression is undefined
    /// on the whole box (e.g. `sqrt` of a negative range). Not written
    /// for a lane whose box was empty.
    pub fn node(&self, node: usize, lane: usize) -> Interval {
        self.vals[node * self.lanes + lane]
    }

    fn begin(&mut self, tape: &EvalTape, lanes: usize, ndim: usize) {
        self.lanes = lanes;
        self.vals.clear();
        self.vals.resize(tape.len() * lanes, Interval::EMPTY);
        self.images.clear();
        self.images.resize(
            tape.atom_nodes().len() * lanes,
            (Interval::EMPTY, Interval::EMPTY),
        );
        self.state.clear();
        self.state.resize(lanes, LaneState::Active);
        self.valid.clear();
        self.valid.resize(lanes, 0);
        self.widths.clear();
        self.widths.resize(lanes * ndim, 0.0);
        self.mask.clear();
        self.mask.resize(lanes, false);
    }
}

/// Marks a lane contradiction: flags the lane and empties its box.
fn mark_unsat(lane: usize, boxes: &mut [IntervalBox], state: &mut [LaneState]) {
    state[lane] = LaneState::Unsat;
    if boxes[lane].ndim() > 0 {
        *boxes[lane].dim_mut(0) = Interval::EMPTY;
    }
}

impl EvalTape {
    /// Single-box HC4 fixpoint contraction; a batch of one. Returns
    /// `false` if the box was proven empty (it is also emptied in
    /// place).
    pub fn contract(
        &self,
        boxed: &mut IntervalBox,
        max_passes: usize,
        scratch: &mut IvalScratch,
    ) -> bool {
        self.contract_batch(std::slice::from_mut(boxed), max_passes, scratch);
        scratch.sat(0)
    }

    /// HC4 fixpoint contraction over a batch of boxes — the bulk paving
    /// kernel. Every box is narrowed independently (lanes never
    /// interact); a box proven empty is emptied in place and its lane
    /// reports `!scratch.sat(lane)`. All boxes must share one dimension
    /// count covering [`EvalTape::var_bound`].
    pub fn contract_batch(
        &self,
        boxes: &mut [IntervalBox],
        max_passes: usize,
        scratch: &mut IvalScratch,
    ) {
        let b = boxes.len();
        if b == 0 {
            return;
        }
        let ndim = boxes[0].ndim();
        debug_assert!(ndim >= self.var_bound());
        debug_assert!(boxes.iter().all(|bx| bx.ndim() == ndim));
        scratch.begin(self, b, ndim);
        for (ln, bx) in boxes.iter().enumerate() {
            if bx.is_empty() {
                scratch.state[ln] = LaneState::Unsat;
            }
        }
        for _ in 0..max_passes {
            if !scratch.state.contains(&LaneState::Active) {
                break;
            }
            // Snapshot widths to detect per-lane convergence at pass end.
            for (ln, bx) in boxes.iter().enumerate() {
                if scratch.state[ln] == LaneState::Active {
                    for d in 0..ndim {
                        scratch.widths[ln * ndim + d] = bx[d].width();
                    }
                }
            }
            for &atom in self.atom_nodes() {
                self.atom_pass(atom, boxes, scratch);
            }
            for (ln, bx) in boxes.iter().enumerate() {
                if scratch.state[ln] != LaneState::Active {
                    continue;
                }
                let mut changed = false;
                for d in 0..ndim {
                    let before = scratch.widths[ln * ndim + d];
                    let after = bx[d].width();
                    if before - after > 1e-12 * before.max(1e-300) {
                        changed = true;
                        break;
                    }
                }
                if !changed {
                    scratch.state[ln] = LaneState::Settled;
                }
            }
        }
    }

    /// One HC4-revise step for one atom across all active lanes:
    /// forward up to the operand rows, cross-narrow them through the
    /// relation, project backward, and write variable narrowings into
    /// the boxes.
    fn atom_pass(
        &self,
        (l, op, r): (u32, RelOp, u32),
        boxes: &mut [IntervalBox],
        scratch: &mut IvalScratch,
    ) {
        let (l, r) = (l as usize, r as usize);
        let need = l.max(r) + 1;
        let b = scratch.lanes;
        self.forward_upto(boxes, need, scratch);
        {
            let IvalScratch { vals, state, .. } = scratch;
            for ln in 0..b {
                if state[ln] != LaneState::Active {
                    continue;
                }
                let lv = vals[l * b + ln];
                let rv = vals[r * b + ln];
                if lv.is_empty() || rv.is_empty() {
                    // The atom is undefined (or already contradicted) on
                    // the whole box: no point of it can satisfy the
                    // conjunction.
                    mark_unsat(ln, boxes, state);
                    continue;
                }
                let (nl, nr) = narrow_atom(op, lv, rv);
                if nl.is_empty() || nr.is_empty() {
                    mark_unsat(ln, boxes, state);
                    continue;
                }
                if l == r {
                    vals[l * b + ln] = nl.intersect(&nr);
                } else {
                    vals[l * b + ln] = nl;
                    vals[r * b + ln] = nr;
                }
            }
        }
        self.backward_upto(boxes, need, scratch);
        self.writeback(boxes, need, scratch);
    }

    /// Forward-evaluates pool rows `0..need` for every active lane whose
    /// valid prefix is shorter, then extends the prefixes.
    fn forward_upto(&self, boxes: &[IntervalBox], need: usize, scratch: &mut IvalScratch) {
        let b = scratch.lanes;
        let IvalScratch {
            vals,
            state,
            valid,
            mask,
            ..
        } = scratch;
        for i in 0..need {
            let mut any = false;
            for ln in 0..b {
                let g = state[ln] == LaneState::Active && (valid[ln] as usize) <= i;
                mask[ln] = g;
                any |= g;
            }
            if any {
                node_row(self.nodes(), i, boxes, vals, b, mask);
            }
        }
        for ln in 0..b {
            if state[ln] == LaneState::Active {
                valid[ln] = valid[ln].max(need as u32);
            }
        }
    }

    /// Backward projection over rows `need-1..0` for active lanes.
    fn backward_upto(&self, boxes: &mut [IntervalBox], need: usize, scratch: &mut IvalScratch) {
        let b = scratch.lanes;
        let IvalScratch { vals, state, .. } = scratch;
        for i in (0..need).rev() {
            if !state.contains(&LaneState::Active) {
                return;
            }
            match &self.nodes()[i] {
                Node::Const(_) | Node::Var(_) => {}
                Node::Unary(op, c) => {
                    let (pre, rest) = vals.split_at_mut(i * b);
                    let zrow = &rest[..b];
                    let xrow = &mut pre[(*c as usize) * b..][..b];
                    for ln in 0..b {
                        if state[ln] != LaneState::Active {
                            continue;
                        }
                        let z = zrow[ln];
                        if z.is_empty() {
                            mark_unsat(ln, boxes, state);
                            continue;
                        }
                        let nx = unary_project(*op, z, xrow[ln]);
                        xrow[ln] = nx;
                        if nx.is_empty() {
                            mark_unsat(ln, boxes, state);
                        }
                    }
                }
                Node::Binary(BinOp::Mul, a, bb) if a == bb => {
                    let (pre, rest) = vals.split_at_mut(i * b);
                    let zrow = &rest[..b];
                    let xrow = &mut pre[(*a as usize) * b..][..b];
                    for ln in 0..b {
                        if state[ln] != LaneState::Active {
                            continue;
                        }
                        let z = zrow[ln];
                        if z.is_empty() {
                            mark_unsat(ln, boxes, state);
                            continue;
                        }
                        // z = x²: x ∈ ±sqrt(z).
                        let root = z.sqrt();
                        let x = xrow[ln];
                        let cand = root.intersect(&x).hull(&(-root).intersect(&x));
                        xrow[ln] = cand;
                        if cand.is_empty() {
                            mark_unsat(ln, boxes, state);
                        }
                    }
                }
                Node::Binary(op, a, bb) if a == bb => {
                    // Same node as both children: apply both projections
                    // to the one row in turn.
                    let (pre, rest) = vals.split_at_mut(i * b);
                    let zrow = &rest[..b];
                    let xrow = &mut pre[(*a as usize) * b..][..b];
                    for ln in 0..b {
                        if state[ln] != LaneState::Active {
                            continue;
                        }
                        let z = zrow[ln];
                        if z.is_empty() {
                            mark_unsat(ln, boxes, state);
                            continue;
                        }
                        let x = xrow[ln];
                        let (nx, ny) = binary_project(*op, z, x, x);
                        let nv = x.intersect(&nx).intersect(&ny);
                        xrow[ln] = nv;
                        if nv.is_empty() {
                            mark_unsat(ln, boxes, state);
                        }
                    }
                }
                Node::Binary(op, a, bb) => {
                    let (pre, rest) = vals.split_at_mut(i * b);
                    let zrow = &rest[..b];
                    let (xrow, yrow) = two_rows(pre, *a as usize, *bb as usize, b);
                    for ln in 0..b {
                        if state[ln] != LaneState::Active {
                            continue;
                        }
                        let z = zrow[ln];
                        if z.is_empty() {
                            mark_unsat(ln, boxes, state);
                            continue;
                        }
                        let (nx, ny) = binary_project(*op, z, xrow[ln], yrow[ln]);
                        xrow[ln] = xrow[ln].intersect(&nx);
                        yrow[ln] = yrow[ln].intersect(&ny);
                        if xrow[ln].is_empty() || yrow[ln].is_empty() {
                            mark_unsat(ln, boxes, state);
                        }
                    }
                }
            }
        }
    }

    /// Intersects narrowed variable rows into the boxes. A changed
    /// dimension truncates the lane's valid prefix to the variable's
    /// leaf (earlier rows cannot read a later node, so they stay valid).
    /// Hash-consing gives each variable one leaf.
    fn writeback(&self, boxes: &mut [IntervalBox], need: usize, scratch: &mut IvalScratch) {
        let b = scratch.lanes;
        let IvalScratch {
            vals, state, valid, ..
        } = scratch;
        for (nid, node) in self.nodes()[..need].iter().enumerate() {
            let Node::Var(var) = *node else {
                continue;
            };
            let row = &mut vals[nid * b..][..b];
            for ln in 0..b {
                if state[ln] != LaneState::Active {
                    continue;
                }
                let old = boxes[ln][var as usize];
                let d = old.intersect(&row[ln]);
                if d.is_empty() {
                    mark_unsat(ln, boxes, state);
                    continue;
                }
                if d != old {
                    *boxes[ln].dim_mut(var as usize) = d;
                    row[ln] = d;
                    valid[ln] = valid[ln].min(nid as u32 + 1);
                }
            }
        }
    }

    /// Clean forward evaluation over a batch, filling the per-atom
    /// `(lhs, rhs)` images read back through [`IvalScratch::image`].
    /// Unlike contraction this never narrows: the images are enclosures
    /// of the operand values over *every* point of each box, which is
    /// what certainty classification needs. Lanes with empty boxes get
    /// empty images. Leaves [`IvalScratch::sat`] untouched when the
    /// batch shape matches the preceding `contract_batch` call.
    pub fn eval_atoms_batch(&self, boxes: &[IntervalBox], scratch: &mut IvalScratch) {
        let b = boxes.len();
        if b == 0 {
            return;
        }
        if scratch.lanes != b || scratch.vals.len() != self.len() * b {
            scratch.begin(self, b, boxes[0].ndim());
        }
        scratch.images.clear();
        scratch.images.resize(
            self.atom_nodes().len() * b,
            (Interval::EMPTY, Interval::EMPTY),
        );
        let IvalScratch {
            vals, valid, mask, ..
        } = scratch;
        for ln in 0..b {
            mask[ln] = !boxes[ln].is_empty();
            // The rows are about to be overwritten with clean values.
            valid[ln] = 0;
        }
        for i in 0..self.len() {
            node_row(self.nodes(), i, boxes, vals, b, mask);
        }
        for (k, &(l, _, r)) in self.atom_nodes().iter().enumerate() {
            for ln in 0..b {
                scratch.images[k * b + ln] = if scratch.mask[ln] {
                    (
                        scratch.vals[l as usize * b + ln],
                        scratch.vals[r as usize * b + ln],
                    )
                } else {
                    (Interval::EMPTY, Interval::EMPTY)
                };
            }
        }
    }

    /// Classifies one box: [`Tri::True`] if every point satisfies the
    /// whole conjunction, [`Tri::False`] if no point satisfies it,
    /// [`Tri::Unknown`] otherwise. The box is not contracted first.
    pub fn certainty(&self, boxed: &IntervalBox, scratch: &mut IvalScratch) -> Tri {
        self.eval_atoms_batch(std::slice::from_ref(boxed), scratch);
        self.classify_lane(0, scratch)
    }

    /// Contracts a whole batch of boxes and classifies each survivor, in
    /// one structure-of-arrays dispatch per tape node — the paver's bulk
    /// kernel. `verdicts[i]` reports box `i`: [`Tri::False`] when it was
    /// proven solution-free (its box is emptied in place, exactly like a
    /// failing [`EvalTape::contract`]), otherwise the
    /// [`EvalTape::certainty`] of the *contracted* box. Lane for lane,
    /// the verdicts and boxes are those of contracting and classifying
    /// each box alone.
    pub fn contract_classify(
        &self,
        boxes: &mut [IntervalBox],
        max_passes: usize,
        verdicts: &mut Vec<Tri>,
        scratch: &mut IvalScratch,
    ) {
        verdicts.clear();
        if boxes.is_empty() {
            return;
        }
        self.contract_batch(boxes, max_passes, scratch);
        // Certainty needs clean (un-narrowed) operand images over the
        // contracted boxes; the batch shapes match, so lane sat-flags
        // survive this second dispatch.
        self.eval_atoms_batch(boxes, scratch);
        for ln in 0..boxes.len() {
            if !scratch.sat(ln) {
                verdicts.push(Tri::False);
            } else {
                verdicts.push(self.classify_lane(ln, scratch));
            }
        }
    }

    /// Folds per-atom certainties for one lane of the scratch's images.
    fn classify_lane(&self, lane: usize, scratch: &IvalScratch) -> Tri {
        let mut acc = Tri::True;
        for (k, &(_, op, _)) in self.atom_nodes().iter().enumerate() {
            let (l, r) = scratch.image(k, lane);
            acc = acc.and(atom_certainty(l, op, r));
            if acc == Tri::False {
                return Tri::False;
            }
        }
        acc
    }
}

/// Evaluates pool row `i` for every lane set in `mask`.
fn node_row(
    nodes: &[Node],
    i: usize,
    boxes: &[IntervalBox],
    vals: &mut [Interval],
    b: usize,
    mask: &[bool],
) {
    let (pre, rest) = vals.split_at_mut(i * b);
    let row = &mut rest[..b];
    match &nodes[i] {
        Node::Const(c) => {
            let v = Interval::point(*c);
            for (d, &g) in row.iter_mut().zip(mask) {
                if g {
                    *d = v;
                }
            }
        }
        Node::Var(v) => {
            for ln in 0..b {
                if mask[ln] {
                    row[ln] = boxes[ln][*v as usize];
                }
            }
        }
        Node::Unary(op, c) => {
            let src = &pre[(*c as usize) * b..][..b];
            unary_row(*op, row, src, mask);
        }
        Node::Binary(BinOp::Mul, a, bb) if a == bb => {
            let src = &pre[(*a as usize) * b..][..b];
            for ((d, s), &g) in row.iter_mut().zip(src).zip(mask) {
                if g {
                    *d = s.sqr();
                }
            }
        }
        Node::Binary(op, a, bb) => {
            let ra = &pre[(*a as usize) * b..][..b];
            let rb = &pre[(*bb as usize) * b..][..b];
            binary_row(*op, row, ra, rb, mask);
        }
    }
}

/// Two disjoint mutable rows out of the node-value prefix.
fn two_rows(
    pre: &mut [Interval],
    a: usize,
    c: usize,
    b: usize,
) -> (&mut [Interval], &mut [Interval]) {
    debug_assert_ne!(a, c);
    if a < c {
        let (lo, hi) = pre.split_at_mut(c * b);
        (&mut lo[a * b..][..b], &mut hi[..b])
    } else {
        let (lo, hi) = pre.split_at_mut(a * b);
        (&mut hi[..b], &mut lo[c * b..][..b])
    }
}

/// Unary forward kernel: dispatch hoisted out of the lane loop.
fn unary_row(op: UnOp, dst: &mut [Interval], src: &[Interval], mask: &[bool]) {
    macro_rules! lanes {
        (|$x:ident| $e:expr) => {
            for ((d, &$x), &g) in dst.iter_mut().zip(src).zip(mask) {
                if g {
                    *d = $e;
                }
            }
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

/// Binary forward kernel: dispatch hoisted out of the lane loop.
fn binary_row(op: BinOp, dst: &mut [Interval], a: &[Interval], b: &[Interval], mask: &[bool]) {
    macro_rules! lanes {
        (|$x:ident, $y:ident| $e:expr) => {
            for (((d, &$x), &$y), &g) in dst.iter_mut().zip(a).zip(b).zip(mask) {
                if g {
                    *d = $e;
                }
            }
        };
    }
    match op {
        BinOp::Add => lanes!(|x, y| x + y),
        BinOp::Sub => lanes!(|x, y| x - y),
        BinOp::Mul => lanes!(|x, y| x * y),
        BinOp::Div => lanes!(|x, y| x / y),
        BinOp::Pow => lanes!(|x, y| x.pow(&y)),
        BinOp::Min => lanes!(|x, y| x.min_i(&y)),
        BinOp::Max => lanes!(|x, y| x.max_i(&y)),
        BinOp::Atan2 => lanes!(|x, y| x.atan2(&y)),
    }
}

/// Cross-narrows the operand images of `l ⋈ r`. Equivalent to HC4 on
/// the normalized `l − r ⋈ 0` form (the projections through the
/// subtraction node reduce to exactly these endpoint cuts) without the
/// subtraction's outward rounding. Strict relations use closed targets,
/// as contraction over closed intervals must.
fn narrow_atom(op: RelOp, l: Interval, r: Interval) -> (Interval, Interval) {
    match op {
        RelOp::Lt | RelOp::Le => (
            l.intersect(&Interval::new(f64::NEG_INFINITY, r.hi())),
            r.intersect(&Interval::new(l.lo(), f64::INFINITY)),
        ),
        RelOp::Gt | RelOp::Ge => (
            l.intersect(&Interval::new(r.lo(), f64::INFINITY)),
            r.intersect(&Interval::new(f64::NEG_INFINITY, l.hi())),
        ),
        RelOp::Eq => {
            let m = l.intersect(&r);
            (m, m)
        }
        // ≠ removes a measure-zero set: no interval narrowing possible.
        RelOp::Ne => (l, r),
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
    let (certain, impossible) = match op {
        RelOp::Lt => (l.hi() < r.lo(), l.lo() >= r.hi()),
        RelOp::Le => (l.hi() <= r.lo(), l.lo() > r.hi()),
        RelOp::Gt => (l.lo() > r.hi(), l.hi() <= r.lo()),
        RelOp::Ge => (l.lo() >= r.hi(), l.hi() < r.lo()),
        RelOp::Eq => (same_point, disjoint),
        RelOp::Ne => (disjoint, same_point),
    };
    if certain {
        Tri::True
    } else if impossible {
        Tri::False
    } else {
        Tri::Unknown
    }
}

/// Projection of `z = op(x)` onto `x`: returns a superset of
/// `{t ∈ x : op(t) ∈ z}`.
fn unary_project(op: UnOp, z: Interval, x: Interval) -> Interval {
    use std::f64::consts::{FRAC_PI_2, PI};
    match op {
        UnOp::Neg => x.intersect(&-z),
        UnOp::Abs => {
            let pos = z.intersect(&Interval::new(0.0, f64::INFINITY));
            if pos.is_empty() {
                return Interval::EMPTY;
            }
            x.intersect(&pos.hull(&-pos))
        }
        UnOp::Sqrt => {
            let nz = z.intersect(&Interval::new(0.0, f64::INFINITY));
            if nz.is_empty() {
                return Interval::EMPTY;
            }
            x.intersect(&nz.sqr())
        }
        UnOp::Exp => {
            let pz = z.intersect(&Interval::new(0.0, f64::INFINITY));
            if pz.is_empty() {
                return Interval::EMPTY;
            }
            x.intersect(&pz.ln().widen())
        }
        UnOp::Ln => x.intersect(&z.exp()),
        UnOp::Sin => periodic_project(z, x, PeriodicKind::Sin),
        UnOp::Cos => periodic_project(z, x, PeriodicKind::Cos),
        UnOp::Tan => {
            // t ∈ atan(z) + kπ
            if !x.is_bounded() || x.width() > 64.0 * PI {
                return x;
            }
            let base = z.atan().widen();
            let mut acc = Interval::EMPTY;
            let k_lo = ((x.lo() - base.hi()) / PI).floor() as i64;
            let k_hi = ((x.hi() - base.lo()) / PI).ceil() as i64;
            for k in k_lo..=k_hi {
                let cand =
                    Interval::new_or_empty(base.lo() + k as f64 * PI, base.hi() + k as f64 * PI)
                        .widen();
                acc = acc.hull(&cand.intersect(&x));
            }
            acc
        }
        UnOp::Asin => {
            // z = asin(x) has z ⊆ [-π/2, π/2] where sin is monotone.
            let zc = z.intersect(&Interval::new(-FRAC_PI_2, FRAC_PI_2).widen());
            if zc.is_empty() {
                return Interval::EMPTY;
            }
            x.intersect(&zc.sin())
        }
        UnOp::Acos => {
            let zc = z.intersect(&Interval::new(0.0, PI).widen());
            if zc.is_empty() {
                return Interval::EMPTY;
            }
            x.intersect(&zc.cos())
        }
        UnOp::Atan => x.intersect(&z.tan()),
    }
}

enum PeriodicKind {
    Sin,
    Cos,
}

/// Projection of `z = sin(x)` or `z = cos(x)` onto `x`. Enumerates the
/// periods overlapping `x`; returns `x` unchanged if `x` spans too many
/// periods for enumeration to pay off.
fn periodic_project(z: Interval, x: Interval, kind: PeriodicKind) -> Interval {
    use std::f64::consts::PI;
    let two_pi = 2.0 * PI;
    let zc = z.intersect(&Interval::new(-1.0, 1.0));
    if zc.is_empty() {
        return Interval::EMPTY;
    }
    if !x.is_bounded() || x.width() > 32.0 * two_pi {
        return x;
    }
    // Solutions are (A + 2πk) ∪ (B + 2πk) with the two principal branches.
    let (a, b) = match kind {
        PeriodicKind::Sin => {
            let asin = zc.asin().widen(); // ⊆ [-π/2, π/2]
            let mirrored = Interval::new_or_empty(PI - asin.hi(), PI - asin.lo()).widen();
            (asin, mirrored)
        }
        PeriodicKind::Cos => {
            let acos = zc.acos().widen(); // ⊆ [0, π]
            (acos, -acos)
        }
    };
    let mut acc = Interval::EMPTY;
    for branch in [a, b] {
        if branch.is_empty() {
            continue;
        }
        let k_lo = ((x.lo() - branch.hi()) / two_pi).floor() as i64;
        let k_hi = ((x.hi() - branch.lo()) / two_pi).ceil() as i64;
        for k in k_lo..=k_hi {
            let cand = Interval::new_or_empty(
                branch.lo() + k as f64 * two_pi,
                branch.hi() + k as f64 * two_pi,
            )
            .widen();
            acc = acc.hull(&cand.intersect(&x));
        }
    }
    acc
}

/// Projection of `z = op(x, y)` onto `(x, y)`.
fn binary_project(op: BinOp, z: Interval, x: Interval, y: Interval) -> (Interval, Interval) {
    match op {
        BinOp::Add => (x.intersect(&(z - y)), y.intersect(&(z - x))),
        BinOp::Sub => (x.intersect(&(z + y)), y.intersect(&(x - z))),
        BinOp::Mul => {
            // Solve x·y ∈ z. Division by an interval containing zero in
            // its interior yields ENTIRE (no narrowing). A point-zero
            // factor constrains nothing about the other operand.
            let nx = if y == Interval::ZERO {
                x
            } else {
                x.intersect(&(z / y))
            };
            let ny = if x == Interval::ZERO {
                y
            } else {
                y.intersect(&(z / x))
            };
            (nx, ny)
        }
        BinOp::Div => {
            // z = x / y  ⇒  x = z·y ;  y = x / z.
            let nx = x.intersect(&(z * y));
            let ny = if z == Interval::ZERO {
                y
            } else {
                y.intersect(&(x / z))
            };
            (nx, ny)
        }
        BinOp::Pow => pow_project(z, x, y),
        BinOp::Min => {
            // min(x, y) = z: both operands are ≥ z.lo; an operand forced
            // to be the minimum (other's lo above z.hi) must lie in z.
            let ge = Interval::new(z.lo(), f64::INFINITY);
            let mut nx = x.intersect(&ge);
            let mut ny = y.intersect(&ge);
            if y.lo() > z.hi() {
                nx = nx.intersect(&z);
            }
            if x.lo() > z.hi() {
                ny = ny.intersect(&z);
            }
            (nx, ny)
        }
        BinOp::Max => {
            let le = Interval::new(f64::NEG_INFINITY, z.hi());
            let mut nx = x.intersect(&le);
            let mut ny = y.intersect(&le);
            if y.hi() < z.lo() {
                nx = nx.intersect(&z);
            }
            if x.hi() < z.lo() {
                ny = ny.intersect(&z);
            }
            (nx, ny)
        }
        // atan2 narrowing is not implemented (sound: no narrowing).
        BinOp::Atan2 => (x, y),
    }
}

/// Projection for `z = x^y`.
fn pow_project(z: Interval, x: Interval, y: Interval) -> (Interval, Interval) {
    // Only narrow x, and only for a point exponent (the common case in
    // path conditions); anything else keeps the operands unchanged.
    if !y.is_point() {
        return (x, y);
    }
    let n = y.lo();
    if n == 0.0 {
        return (x, y);
    }
    if n.fract() == 0.0 && n.abs() <= 64.0 {
        let n = n as i32;
        if n > 0 && n % 2 == 1 {
            // Odd power: monotone; x = z^(1/n) with sign preserved.
            let root = signed_root(z, n);
            return (x.intersect(&root), y);
        }
        if n > 0 {
            // Even power: |x| ∈ root(z ∩ [0, ∞)).
            let nz = z.intersect(&Interval::new(0.0, f64::INFINITY));
            if nz.is_empty() {
                return (Interval::EMPTY, y);
            }
            let root = signed_root(nz, n);
            let neg = -root;
            let cand = root.intersect(&x).hull(&neg.intersect(&x));
            return (cand, y);
        }
        // Negative exponents: x = (1/z)^(1/|n|); keep conservative.
        return (x, y);
    }
    // Non-integer exponent: defined only for x ≥ 0, where x ↦ x^n is
    // monotone. The interval power of the non-negative `z` slice keeps
    // the zero limit itself (0 ∈ z^(1/n) whenever 0 ∈ z), so no hull
    // with {0} is needed; one `widen` absorbs the `powf`-vs-real
    // rounding of the scalar kinds.
    let nz = z.intersect(&Interval::new(0.0, f64::INFINITY));
    if nz.is_empty() {
        return (Interval::EMPTY, y);
    }
    if n > 0.0 {
        let inv = Interval::point(1.0) / Interval::point(n);
        let cand = nz.pow(&inv).widen();
        return (x.intersect(&cand), y);
    }
    (x, y)
}

/// Sign-preserving n-th root hull for positive integer `n`.
fn signed_root(z: Interval, n: i32) -> Interval {
    if z.is_empty() {
        return Interval::EMPTY;
    }
    let root1 = |v: f64| -> f64 {
        if v.is_infinite() {
            return v;
        }
        v.signum() * v.abs().powf(1.0 / n as f64)
    };
    Interval::new_or_empty(root1(z.lo()), root1(z.hi()))
        .widen()
        .widen()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, PathCondition};
    use crate::domain::VarId;
    use crate::expr::Expr;

    fn x() -> Expr {
        Expr::var(VarId(0))
    }

    fn y() -> Expr {
        Expr::var(VarId(1))
    }

    fn tape_of(atoms: Vec<Atom>) -> EvalTape {
        EvalTape::compile(&PathCondition::from_atoms(atoms))
    }

    fn bx(dims: &[(f64, f64)]) -> IntervalBox {
        dims.iter().map(|&(l, h)| Interval::new(l, h)).collect()
    }

    fn band(e: Expr, lo: f64, hi: f64) -> Vec<Atom> {
        vec![
            Atom::new(e.clone(), RelOp::Ge, Expr::constant(lo)),
            Atom::new(e, RelOp::Le, Expr::constant(hi)),
        ]
    }

    #[test]
    fn forward_matches_point_eval() {
        let e = x().mul(y()).sin().add(x().sqrt());
        let t = tape_of(vec![Atom::new(e, RelOp::Gt, Expr::constant(0.0))]);
        let mut s = IvalScratch::new();
        t.eval_atoms_batch(&[bx(&[(4.0, 4.0), (0.5, 0.5)])], &mut s);
        let (l, _, _) = t.atom_nodes()[0];
        let r = s.node(l as usize, 0);
        let exact = (4.0f64 * 0.5).sin() + 2.0;
        assert!(r.contains(exact), "{r} should contain {exact}");
        assert!(r.width() < 1e-9);
    }

    #[test]
    fn forward_empty_for_undefined() {
        let t = tape_of(vec![Atom::new(x().sqrt(), RelOp::Gt, Expr::constant(0.0))]);
        let mut s = IvalScratch::new();
        t.eval_atoms_batch(&[bx(&[(-3.0, -1.0)])], &mut s);
        let (l, _, _) = t.atom_nodes()[0];
        assert!(s.node(l as usize, 0).is_empty());
    }

    #[test]
    fn contract_narrows_linear() {
        // x + y ≤ 0.5 on x,y ∈ [0,1]: each var narrows to [0, 0.5].
        let t = tape_of(vec![Atom::new(
            x().add(y()),
            RelOp::Le,
            Expr::constant(0.5),
        )]);
        let mut b = bx(&[(0.0, 1.0), (0.0, 1.0)]);
        let mut s = IvalScratch::new();
        assert!(t.contract(&mut b, 8, &mut s));
        assert!(b[0].hi() <= 0.6);
        assert!(b[1].hi() <= 0.6);
    }

    #[test]
    fn contract_sqrt_band() {
        // sqrt(x) ∈ [2, 3] ⇒ x ∈ [4, 9].
        let t = tape_of(band(x().sqrt(), 2.0, 3.0));
        let mut b = bx(&[(0.0, 100.0)]);
        let mut s = IvalScratch::new();
        assert!(t.contract(&mut b, 8, &mut s));
        assert!(b[0].lo() >= 3.9 && b[0].hi() <= 9.1, "{}", b[0]);
    }

    #[test]
    fn contract_sin_enumerates_periods() {
        use std::f64::consts::PI;
        // sin(x) ∈ [0.9, 1] on x ∈ [0, 4π]: solutions near π/2, π/2+2π.
        let t = tape_of(band(x().sin(), 0.9, 1.0));
        let mut b = bx(&[(0.0, 4.0 * PI)]);
        let mut s = IvalScratch::new();
        assert!(t.contract(&mut b, 8, &mut s));
        let lo_expect = 0.9f64.asin();
        let hi_expect = 2.0 * PI + PI - 0.9f64.asin();
        assert!(b[0].lo() >= lo_expect - 0.01, "{}", b[0]);
        assert!(b[0].hi() <= hi_expect + 0.01, "{}", b[0]);
        assert!(b[0].contains(PI / 2.0));
        assert!(b[0].contains(PI / 2.0 + 2.0 * PI));
    }

    #[test]
    fn contract_even_power() {
        // x² ∈ [4, 9] on x ∈ [-10, 10] ⇒ x ∈ [-3, 3] (hull of ±[2,3]).
        let t = tape_of(band(x().pow(Expr::constant(2.0)), 4.0, 9.0));
        let mut b = bx(&[(-10.0, 10.0)]);
        let mut s = IvalScratch::new();
        assert!(t.contract(&mut b, 8, &mut s));
        assert!(b[0].lo() >= -3.1 && b[0].hi() <= 3.1, "{}", b[0]);
        assert!(b[0].contains(2.5) && b[0].contains(-2.5));
    }

    #[test]
    fn contract_noninteger_power_is_tight() {
        // x^2.5 ∈ [4, 9] on x ∈ [0, 100]: the projection is monotone, so
        // the lower bound must rise to ≈4^0.4 — the over-wide hull with
        // {0} the old backward pass applied would leave it at 0.
        let t = tape_of(band(x().pow(Expr::constant(2.5)), 4.0, 9.0));
        let mut b = bx(&[(0.0, 100.0)]);
        let mut s = IvalScratch::new();
        assert!(t.contract(&mut b, 8, &mut s));
        let lo_expect = 4.0f64.powf(0.4);
        let hi_expect = 9.0f64.powf(0.4);
        assert!(b[0].lo() >= lo_expect - 0.01, "{}", b[0]);
        assert!(b[0].hi() <= hi_expect + 0.01, "{}", b[0]);
        assert!(b[0].contains(2.0));
    }

    #[test]
    fn contract_min_forcing() {
        // min(x, y) ∈ [5, 6] with y ∈ [10, 20] forces x ∈ [5, 6].
        let t = tape_of(band(x().min_e(y()), 5.0, 6.0));
        let mut b = bx(&[(0.0, 100.0), (10.0, 20.0)]);
        let mut s = IvalScratch::new();
        assert!(t.contract(&mut b, 8, &mut s));
        assert!(b[0].lo() >= 4.9 && b[0].hi() <= 6.1, "{}", b[0]);
    }

    #[test]
    fn contract_exp_band() {
        // exp(x) ∈ [1, e] ⇒ x ∈ [0, 1].
        let t = tape_of(band(x().exp(), 1.0, std::f64::consts::E));
        let mut b = bx(&[(-10.0, 10.0)]);
        let mut s = IvalScratch::new();
        assert!(t.contract(&mut b, 8, &mut s));
        assert!(b[0].lo() >= -0.001 && b[0].hi() <= 1.001, "{}", b[0]);
    }

    #[test]
    fn contract_proves_empty() {
        // x² ≤ -1 is impossible.
        let t = tape_of(vec![Atom::new(
            x().pow(Expr::constant(2.0)),
            RelOp::Le,
            Expr::constant(-1.0),
        )]);
        let mut b = bx(&[(-1.0, 1.0)]);
        let mut s = IvalScratch::new();
        assert!(!t.contract(&mut b, 8, &mut s));
        assert!(b.is_empty());
    }

    #[test]
    fn contract_mul_zero_factor_does_not_overprune() {
        // x · 0 = 0: x is unconstrained, must stay [0, 1].
        let t = tape_of(vec![Atom::new(
            x().mul(Expr::constant(0.0)),
            RelOp::Eq,
            Expr::constant(0.0),
        )]);
        let mut b = bx(&[(0.0, 1.0)]);
        let mut s = IvalScratch::new();
        assert!(t.contract(&mut b, 8, &mut s));
        assert_eq!(b[0], Interval::new(0.0, 1.0));
    }

    #[test]
    fn contract_dedup_narrows_shared_subterms_together() {
        // (x+1)² ∈ [0, 1] on x ∈ [-3, 1]: both occurrences of (x+1)
        // narrow simultaneously, giving x ∈ [-2, 0].
        let shared = x().add(Expr::constant(1.0));
        let t = tape_of(band(shared.clone().mul(shared), 0.0, 1.0));
        let mut b = bx(&[(-3.0, 1.0)]);
        let mut s = IvalScratch::new();
        assert!(t.contract(&mut b, 8, &mut s));
        assert!(
            b[0].lo() >= -2.01 && b[0].hi() <= 0.01,
            "shared narrowing should give [-2, 0], got {}",
            b[0]
        );
        assert!(b[0].contains(-1.5) && b[0].contains(-0.5));
    }

    #[test]
    fn batch_matches_single_box_contraction() {
        // Lanes are independent: contracting a batch gives bit-identical
        // boxes and verdicts to contracting each box alone.
        let shared = x().add(y().sin());
        let mut atoms = band(shared.clone().mul(shared), 0.1, 0.8);
        atoms.push(Atom::new(x().sub(y()), RelOp::Lt, Expr::constant(0.5)));
        let t = tape_of(atoms);
        let seeds = [
            bx(&[(-2.0, 1.5), (-3.0, 3.0)]),
            bx(&[(0.0, 0.25), (0.5, 2.0)]),
            bx(&[(5.0, 9.0), (5.0, 9.0)]),
            bx(&[(-1.0, -0.5), (0.0, 0.1)]),
            bx(&[(0.0, 4.0), (-1.0, 1.0)]),
        ];
        let mut batch: Vec<IntervalBox> = seeds.to_vec();
        let mut s = IvalScratch::new();
        t.contract_batch(&mut batch, 8, &mut s);
        let batch_sat: Vec<bool> = (0..batch.len()).map(|ln| s.sat(ln)).collect();
        for (i, seed) in seeds.iter().enumerate() {
            let mut single = seed.clone();
            let mut ss = IvalScratch::new();
            let sat = t.contract(&mut single, 8, &mut ss);
            assert_eq!(sat, batch_sat[i], "lane {i} verdict");
            assert_eq!(single.dims(), batch[i].dims(), "lane {i} box");
        }
    }

    #[test]
    fn eval_atoms_images_enclose_whole_box() {
        // After contraction narrows, the certainty images must still
        // cover the atom operands over every point of the final box.
        let t = tape_of(band(x().sqrt(), 2.0, 3.0));
        let mut b = bx(&[(0.0, 100.0)]);
        let mut s = IvalScratch::new();
        assert!(t.contract(&mut b, 8, &mut s));
        let boxes = [b.clone()];
        t.eval_atoms_batch(&boxes, &mut s);
        let (l0, _) = s.image(0, 0);
        // sqrt over the narrowed [≈4, ≈9] box.
        assert!(l0.contains(2.0) && l0.contains(3.0), "{l0}");
        assert!(s.sat(0));
    }

    #[test]
    fn pre_empty_boxes_report_unsat() {
        let t = tape_of(vec![Atom::new(x(), RelOp::Lt, Expr::constant(1.0))]);
        let mut boxes = vec![bx(&[(0.0, 0.5)]), {
            let mut e = bx(&[(0.0, 0.5)]);
            *e.dim_mut(0) = Interval::EMPTY;
            e
        }];
        let mut s = IvalScratch::new();
        t.contract_batch(&mut boxes, 8, &mut s);
        assert!(s.sat(0));
        assert!(!s.sat(1));
    }
}
