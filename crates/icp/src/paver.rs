//! Branch-and-prune paving: RealPaver's box-decomposition service.
//!
//! [`pave`] splits a domain box into *inner* boxes (all points satisfy the
//! conjunction) and *boundary* boxes (undecided), whose union contains all
//! solutions. Regions outside the paving are proven solution-free — the
//! qCORAL stratified sampler never needs to sample them (paper §3.3).

use std::collections::BinaryHeap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use qcoral_constraints::{EvalTape, IvalScratch, PathCondition, Tri};
use qcoral_interval::IntervalBox;

use crate::cache::LruCache;

/// Stop criteria for the paver, after the RealPaver configuration the
/// paper reports in §5: "time budget per query of 2 s, a bound on the
/// number of boxes reported per query of 10, and a lower bound on the size
/// of the computed boxes of 3 decimal digits".
///
/// The 2 s time budget is left out on purpose. A clock makes a paving
/// (and every stratum, estimate and factor-store entry built on it)
/// depend on how fast the host ran, and the two counts already end every
/// paving: each bisection strictly halves a side wider than the
/// precision floor, and a box that bisection cannot shrink stays a
/// boundary box (see [`Paver::pave`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaverConfig {
    /// Maximum number of boxes reported (inner + boundary).
    pub max_boxes: usize,
    /// Boxes whose largest side is below `10^-precision_digits` are not
    /// bisected further.
    pub precision_digits: u32,
}

/// Fixpoint pass limit of every HC4 contraction the paver and
/// [`crate::maybe_satisfiable`] run. One constant rather than a knob: no
/// caller ever used another value, and a network-supplied limit could
/// let one contraction run for minutes.
pub const MAX_PASSES: usize = 8;

impl Default for PaverConfig {
    /// The paper's RealPaver configuration: 10 boxes, 3 decimal digits.
    fn default() -> PaverConfig {
        PaverConfig {
            max_boxes: 10,
            precision_digits: 3,
        }
    }
}

impl PaverConfig {
    /// Side-length threshold below which boxes are not bisected: 0 once
    /// `10^-precision_digits` underflows.
    pub fn min_width(&self) -> f64 {
        // Saturated so that every `u32` is a valid exponent; `10^-d` is
        // already 0 long before 400 digits, so no width changes.
        10f64.powi(-(self.precision_digits.min(400) as i32))
    }
}

/// The result of paving: disjoint boxes covering all solutions.
#[derive(Clone, Debug, Default)]
pub struct Paving {
    /// Boxes where the conjunction certainly holds everywhere.
    pub inner: Vec<IntervalBox>,
    /// Boxes that may contain both solutions and non-solutions.
    pub boundary: Vec<IntervalBox>,
}

impl Paving {
    /// Returns `true` if the constraint was proven unsatisfiable on the
    /// queried box (no box survived).
    pub fn is_unsat(&self) -> bool {
        self.inner.is_empty() && self.boundary.is_empty()
    }

    /// All boxes, inner first. Borrowing iterator — the paving's boxes are
    /// not cloned (the old `Vec`-returning version cloned every box and
    /// dominated the sampler's setup cost).
    pub fn all_boxes(&self) -> impl Iterator<Item = &IntervalBox> + '_ {
        self.inner.iter().chain(self.boundary.iter())
    }

    /// Number of boxes in the paving.
    pub fn len(&self) -> usize {
        self.inner.len() + self.boundary.len()
    }

    /// Returns `true` if the paving has no boxes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Work item ordered by box volume so the largest undecided region is
/// refined first (best-first branch and prune).
struct WorkItem {
    boxed: IntervalBox,
    volume: f64,
}

impl PartialEq for WorkItem {
    fn eq(&self, other: &Self) -> bool {
        self.volume == other.volume
    }
}

impl Eq for WorkItem {}

impl PartialOrd for WorkItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorkItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.volume
            .partial_cmp(&other.volume)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Number of work items popped and contracted per batched dispatch. A
/// batch amortizes the per-atom kernel dispatch over many boxes (the
/// structure-of-arrays layout of
/// `qcoral_constraints::EvalTape::contract_batch`); larger batches
/// also commit the paver to refining more boxes per round, so the size
/// stays modest to keep best-first ordering meaningful.
const PAVE_BATCH: usize = 16;

/// A reusable paver holding one compiled conjunction.
#[derive(Debug)]
pub struct Paver {
    tape: Arc<EvalTape>,
    config: PaverConfig,
}

impl Paver {
    /// Compiles `pc` for paving over boxes with `nvars` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the condition references a variable index `≥ nvars`.
    pub fn new(pc: &PathCondition, nvars: usize, config: PaverConfig) -> Paver {
        Paver::from_tape(Arc::new(EvalTape::compile(pc)), nvars, config)
    }

    /// A paver over an already compiled conjunction, sharing its node
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics if the tape reads a variable index `≥ nvars`.
    fn from_tape(tape: Arc<EvalTape>, nvars: usize, config: PaverConfig) -> Paver {
        assert!(
            tape.var_bound() <= nvars,
            "path condition references variable beyond domain ({} > {nvars})",
            tape.var_bound()
        );
        Paver { tape, config }
    }

    /// The paver's configuration.
    pub fn config(&self) -> &PaverConfig {
        &self.config
    }

    /// Pavés `domain`, returning disjoint boxes covering all solutions of
    /// the compiled conjunction. Work items are popped up to
    /// `PAVE_BATCH` (16) at a time and contracted + classified in one bulk
    /// dispatch ([`EvalTape::contract_classify`]); decisions are then
    /// made in pop (largest-first) order, so the budget accounting
    /// matches the serial loop. One [`IvalScratch`] is reused across the
    /// whole branch-and-prune loop, so the per-box work is free of heap
    /// allocation except for the boxes themselves.
    ///
    /// The paving depends only on the conjunction, `domain` and the
    /// configuration: no clock is read. An undecided box within budget
    /// is bisected unless a half equals the box itself, as when its
    /// widest side is one ulp wide and the midpoint rounds onto an end:
    /// such a box stays a boundary box, since bisecting it again would
    /// neither terminate nor keep the boxes disjoint.
    pub fn pave(&self, domain: &IntervalBox) -> Paving {
        let mut scratch = IvalScratch::new();
        let mut paving = Paving::default();
        let mut heap = BinaryHeap::new();
        heap.push(WorkItem {
            volume: domain.volume(),
            boxed: domain.clone(),
        });
        let min_width = self.config.min_width();
        let mut batch: Vec<IntervalBox> = Vec::with_capacity(PAVE_BATCH);
        let mut verdicts: Vec<Tri> = Vec::with_capacity(PAVE_BATCH);

        while !heap.is_empty() {
            batch.clear();
            while batch.len() < PAVE_BATCH {
                let Some(WorkItem { boxed, .. }) = heap.pop() else {
                    break;
                };
                batch.push(boxed);
            }
            // Contraction never increases the box count, so it is applied
            // even once the box budget is exhausted.
            self.tape
                .contract_classify(&mut batch, MAX_PASSES, &mut verdicts, &mut scratch);
            let n = batch.len();
            for (i, boxed) in batch.drain(..).enumerate() {
                match verdicts[i] {
                    Tri::True => {
                        paving.inner.push(boxed);
                        continue;
                    }
                    Tri::False => continue,
                    Tri::Unknown => {}
                }
                // Undecided batch mates still pending after this box
                // count against the budget exactly as if they were on
                // the heap.
                let remaining = n - i - 1;
                let total = paving.len() + heap.len() + remaining + 1;
                let out_of_budget = total >= self.config.max_boxes
                    || boxed.max_width() <= min_width
                    || boxed.ndim() == 0;
                if !out_of_budget {
                    let (l, r) = boxed.bisect();
                    if l != boxed && r != boxed {
                        let lv = l.volume();
                        let rv = r.volume();
                        heap.push(WorkItem {
                            boxed: l,
                            volume: lv,
                        });
                        heap.push(WorkItem {
                            boxed: r,
                            volume: rv,
                        });
                        continue;
                    }
                }
                paving.boundary.push(boxed);
            }
        }
        paving
    }
}

/// One-shot convenience wrapper around [`Paver`].
pub fn pave(pc: &PathCondition, domain: &IntervalBox, config: &PaverConfig) -> Paving {
    Paver::new(pc, domain.ndim(), config.clone()).pave(domain)
}

/// Cache key: the conjunction's structural fingerprint (linear in DAG
/// size, never a rendered tree), the box's exact bit pattern, and the
/// budget-relevant paver knobs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct PavingKey {
    pc: u128,
    box_bits: Vec<(u64, u64)>,
    max_boxes: usize,
    precision_digits: u32,
}

/// A concurrent cache of pavings keyed by the conjunction's fingerprint,
/// the queried box, and the budget-relevant paver knobs.
///
/// Independent factors recur across path conditions (the empirical core of
/// the paper's PARTCACHE observation), so the analyzer asks for the same
/// `(conjunction, sub-box)` paving over and over — sometimes from several
/// threads at once. The cache pavés once and shares the result as an
/// [`Arc<Paving>`]. It is an [`LruCache`]: lookups are single-flight, so
/// every caller gets the same paving and the hit/miss split does not
/// depend on the thread schedule, and past [`PavingCache::CAP`] distinct
/// keys the least-recently-used pavings are evicted in batches.
#[derive(Debug)]
pub struct PavingCache {
    map: LruCache<PavingKey, Paving>,
}

impl Default for PavingCache {
    fn default() -> PavingCache {
        PavingCache::new()
    }
}

impl PavingCache {
    /// Maximum retained pavings (each holds up to `max_boxes` boxes).
    ///
    /// A paving pays off only while the same factor recurs: within one
    /// analysis, or across the requests of one client. Every
    /// `IntervalBox` is its own heap allocation (a 100-box 2-D paving is
    /// ~7 KB), so a large cap mostly retains pavings that never hit
    /// again and makes a server's memory grow with the requests it
    /// answers. 128 is almost three times the 45 distinct pavings of the
    /// largest analysis in `tests/golden/engine.txt`, so two concurrent
    /// analyses still fit. Worst case: 128 × `MAX_PAVER_BOXES` (the
    /// service's 4 096-box limit on `PaverConfig::max_boxes`) boxes.
    pub const CAP: usize = 128;

    /// Creates an empty cache.
    pub fn new() -> PavingCache {
        PavingCache {
            map: LruCache::new(Self::CAP),
        }
    }

    /// Returns the paving of the conjunction compiled into `tape` over
    /// `domain`, computing it at most once per distinct live key, and
    /// whether it was answered from the cache (`true` = hit).
    /// `fingerprint` must be the [`PathCondition::fingerprint`] of the
    /// conjunction `tape` was compiled from: it names the conjunction in
    /// the key, so the tape is only read on a miss.
    pub fn pave_cached(
        &self,
        fingerprint: u128,
        tape: &Arc<EvalTape>,
        domain: &IntervalBox,
        config: &PaverConfig,
    ) -> (Arc<Paving>, bool) {
        let key = PavingKey {
            pc: fingerprint,
            box_bits: domain
                .dims()
                .iter()
                .map(|d| (d.lo().to_bits(), d.hi().to_bits()))
                .collect(),
            max_boxes: config.max_boxes,
            precision_digits: config.precision_digits,
        };
        self.map.get_or_insert_with(key, || {
            Paver::from_tape(Arc::clone(tape), domain.ndim(), config.clone()).pave(domain)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;
    use qcoral_interval::Interval;

    fn setup(src: &str) -> (PathCondition, IntervalBox) {
        let sys = parse_system(src).unwrap();
        let b = crate::domain_box(&sys.domain);
        (sys.constraint_set.pcs()[0].clone(), b)
    }

    fn paving_covers(paving: &Paving, point: &[f64]) -> bool {
        paving.all_boxes().any(|b| b.contains_point(point))
    }

    #[test]
    fn box_constraint_is_exact() {
        // The paper's Cube case: ICP identifies the exact box, σ = 0.
        let (pc, dom) = setup(
            "var x in [-2, 2]; var y in [-2, 2]; var z in [-2, 2];
             pc x >= -1 && x <= 1 && y >= -1 && y <= 1 && z >= -1 && z <= 1;",
        );
        let paving = pave(&pc, &dom, &PaverConfig::default());
        assert!(paving.boundary.is_empty(), "cube should be exactly inner");
        assert_eq!(paving.inner.len(), 1);
        let vol: f64 = paving.inner.iter().map(IntervalBox::volume).sum();
        assert!((vol - 8.0).abs() < 1e-6, "volume {vol}");
    }

    #[test]
    fn unsat_gives_empty_paving() {
        let (pc, dom) = setup("var x in [0, 1]; pc x > 1.5;");
        let paving = pave(&pc, &dom, &PaverConfig::default());
        assert!(paving.is_unsat());
    }

    #[test]
    fn respects_box_budget() {
        let (pc, dom) = setup("var x in [-1, 1]; var y in [-1, 1]; pc x * x + y * y <= 1;");
        for budget in [4, 10, 32] {
            let cfg = PaverConfig {
                max_boxes: budget,
                ..PaverConfig::default()
            };
            let paving = pave(&pc, &dom, &cfg);
            assert!(paving.len() <= budget, "{} > {budget}", paving.len());
            assert!(!paving.is_unsat());
        }
    }

    #[test]
    fn paving_covers_all_sampled_solutions() {
        let (pc, dom) = setup("var x in [-1, 1]; var y in [-1, 1]; pc x <= -y && y <= x;");
        let paving = pave(&pc, &dom, &PaverConfig::default());
        // Deterministic grid scan: every satisfying point must be covered.
        let n = 50;
        for i in 0..=n {
            for j in 0..=n {
                let px = -1.0 + 2.0 * i as f64 / n as f64;
                let py = -1.0 + 2.0 * j as f64 / n as f64;
                if pc.holds(&[px, py]) {
                    assert!(
                        paving_covers(&paving, &[px, py]),
                        "paving lost solution ({px}, {py})"
                    );
                }
            }
        }
    }

    #[test]
    fn inner_boxes_only_contain_solutions() {
        let (pc, dom) = setup("var x in [-1, 1]; var y in [-1, 1]; pc x * x + y * y <= 1;");
        let cfg = PaverConfig {
            max_boxes: 64,
            ..PaverConfig::default()
        };
        let paving = pave(&pc, &dom, &cfg);
        assert!(!paving.inner.is_empty(), "circle should yield inner boxes");
        for b in &paving.inner {
            // Check the corners and center of each inner box.
            let c = b.center();
            assert!(pc.holds(&c));
            let corners = [
                vec![b[0].lo(), b[1].lo()],
                vec![b[0].lo(), b[1].hi()],
                vec![b[0].hi(), b[1].lo()],
                vec![b[0].hi(), b[1].hi()],
            ];
            for corner in corners {
                assert!(pc.holds(&corner), "inner box {b} has corner outside");
            }
        }
    }

    #[test]
    fn more_boxes_tighter_cover() {
        let (pc, dom) = setup("var x in [-1, 1]; var y in [-1, 1]; pc x * x + y * y <= 1;");
        let small = pave(
            &pc,
            &dom,
            &PaverConfig {
                max_boxes: 4,
                ..PaverConfig::default()
            },
        );
        let large = pave(
            &pc,
            &dom,
            &PaverConfig {
                max_boxes: 128,
                ..PaverConfig::default()
            },
        );
        let cover = |p: &Paving| -> f64 { p.all_boxes().map(IntervalBox::volume).sum() };
        // The true area is π; covers over-approximate it and shrink with
        // more boxes.
        assert!(cover(&large) <= cover(&small) + 1e-9);
        assert!(cover(&large) >= std::f64::consts::PI - 1e-6);
    }

    #[test]
    fn transcendental_paving() {
        let (pc, dom) = setup("var h in [-10, 10]; var t in [-10, 10]; pc sin(h * t) > 0.25;");
        let paving = pave(&pc, &dom, &PaverConfig::default());
        assert!(!paving.is_unsat());
        // A known solution: h·t = π/2.
        assert!(paving_covers(&paving, &[1.0, std::f64::consts::FRAC_PI_2]));
    }

    #[test]
    fn zero_dim_degenerate() {
        // A condition over a single variable whose domain is a point.
        let dom: IntervalBox = [Interval::new(1.0, 1.0)].into_iter().collect();
        let sys = parse_system("var x in [0, 2]; pc x >= 0.5;").unwrap();
        let paving = pave(&sys.constraint_set.pcs()[0], &dom, &PaverConfig::default());
        assert_eq!(paving.inner.len(), 1);
    }

    #[test]
    fn ne_atom_is_never_narrowed_but_classified() {
        // x != 0.5 carves a measure-zero set: the paver cannot narrow on
        // it, but certainty classification still works per box.
        let (pc, dom) = setup("var x in [0, 1]; pc x != 0.5 && x > 0.25;");
        let paving = pave(&pc, &dom, &PaverConfig::default());
        assert!(!paving.is_unsat());
        // Solutions on both sides of the removed point survive.
        assert!(paving_covers(&paving, &[0.3]));
        assert!(paving_covers(&paving, &[0.9]));
    }

    #[test]
    fn equality_atom_collapses_to_thin_boxes() {
        let (pc, dom) = setup("var x in [0, 2]; var y in [0, 2]; pc x + y == 1;");
        let paving = pave(&pc, &dom, &PaverConfig::default());
        assert!(!paving.is_unsat());
        // The line x + y = 1 must stay covered...
        assert!(paving_covers(&paving, &[0.5, 0.5]));
        assert!(paving_covers(&paving, &[0.25, 0.75]));
        // ...while the cover collapses towards zero volume.
        let cover: f64 = paving.all_boxes().map(IntervalBox::volume).sum();
        assert!(cover < 1.0, "cover {cover} should shrink towards the line");
        // Equality constraints can never be certainly true on a fat box.
        assert!(paving.inner.is_empty());
    }

    #[test]
    fn precision_floor_halts_bisection() {
        // A 0-digit precision floor (min side 1.0) must stop refinement
        // long before the generous box budget does; 3 digits refines
        // further under the same budget.
        let (pc, dom) = setup("var x in [-1, 1]; var y in [-1, 1]; pc x * x + y * y <= 1;");
        let coarse = pave(
            &pc,
            &dom,
            &PaverConfig {
                max_boxes: 1024,
                precision_digits: 0,
            },
        );
        let fine = pave(
            &pc,
            &dom,
            &PaverConfig {
                max_boxes: 1024,
                precision_digits: 3,
            },
        );
        assert!(
            coarse.len() < 64,
            "0-digit paving should stay coarse, got {} boxes",
            coarse.len()
        );
        assert!(coarse.len() < fine.len());
        // No box was bisected below the floor: every split parent had
        // max_width > 1, so children have max_width > 0.5.
        for b in coarse.all_boxes() {
            assert!(b.max_width() > 0.5 - 1e-12, "{b}");
        }
    }

    #[test]
    fn noninteger_power_paving_stays_tight() {
        // A band constraint through a non-integer power. The tightened
        // pow forward/backward projections (no [0, ∞) hull) let the
        // contractor collapse the domain to the solution band directly,
        // so the paver must not spend its box budget re-discovering it:
        // solutions are x ∈ [4^0.4, 9^0.4] ≈ [1.741, 2.408].
        let (pc, dom) = setup("var x in [0, 100]; pc pow(x, 2.5) >= 4 && pow(x, 2.5) <= 9;");
        let cfg = PaverConfig::default();
        let paving = pave(&pc, &dom, &cfg);
        assert!(!paving.is_unsat());
        assert!(paving_covers(&paving, &[2.0]));
        // No budget regression: with the over-wide hulls the paver burned
        // its whole budget on boundary boxes scattered across [0, 100]
        // and could never certify an inner box.
        assert!(paving.len() <= cfg.max_boxes, "{}", paving.len());
        assert!(
            !paving.inner.is_empty(),
            "interior of the band must certify as inner"
        );
        for b in paving.all_boxes() {
            assert!(
                b[0].lo() >= 1.7 && b[0].hi() <= 2.45,
                "box {b} strays outside the solution band"
            );
        }
    }

    #[test]
    fn min_width_is_defined_for_every_digit_count() {
        let width = |precision_digits| {
            PaverConfig {
                max_boxes: 10,
                precision_digits,
            }
            .min_width()
        };
        assert_eq!(width(0), 1.0);
        assert_eq!(width(3), 1e-3);
        assert_eq!(width(17), 1e-17);
        for digits in [400, 1 << 31, u32::MAX] {
            assert_eq!(width(digits), 0.0, "{digits} digits");
        }
    }

    #[test]
    fn unshrinkable_box_stays_one_boundary_box() {
        // Near 1/3 a one-ulp box bisects into itself and a point box,
        // since the midpoint rounds onto an end. Under `<` the point box
        // is refuted, so re-bisecting never ends; under `>` it survives,
        // so re-bisecting fills the budget with copies of the point box.
        // Either way the one-ulp box must stay one boundary box, at 17
        // digits and with no precision floor at all.
        for src in [
            "var x in [0, 1]; pc x * 3 == 1 && x < 0.33333333333333337;",
            "var x in [0, 1]; pc x * 3 == 1 && x > 0.3333333333333333;",
        ] {
            let (pc, dom) = setup(src);
            for precision_digits in [17, 400] {
                let cfg = PaverConfig {
                    precision_digits,
                    ..PaverConfig::default()
                };
                let paving = pave(&pc, &dom, &cfg);
                assert!(paving.inner.is_empty(), "{src} at {precision_digits}");
                assert_eq!(paving.boundary.len(), 1, "{src} at {precision_digits}");
                assert!(paving_covers(&paving, &[1.0 / 3.0]), "{src}");
            }
        }
    }

    #[test]
    fn paving_cache_computes_each_key_once() {
        // Single-flight and eviction are the generic map's (tested in
        // `cache`); this checks what the paving key distinguishes.
        let sys =
            parse_system("var x in [-1, 1]; var y in [-1, 1]; pc x * x + y * y <= 1;").unwrap();
        let pc = &sys.constraint_set.pcs()[0];
        let (fp, tape) = (pc.fingerprint(), Arc::new(EvalTape::compile(pc)));
        let dom = crate::domain_box(&sys.domain);
        let cache = PavingCache::new();
        let cfg = PaverConfig::default();
        let (a, hit_a) = cache.pave_cached(fp, &tape, &dom, &cfg);
        let (b, hit_b) = cache.pave_cached(fp, &tape, &dom, &cfg);
        assert!(Arc::ptr_eq(&a, &b), "second request is a hit");
        assert_eq!((hit_a, hit_b), (false, true));
        assert_eq!(a.len(), pave(pc, &dom, &cfg).len());
        // A different box is a different key.
        let half: IntervalBox = [Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]
            .into_iter()
            .collect();
        let (c, hit_c) = cache.pave_cached(fp, &tape, &half, &cfg);
        assert!(!Arc::ptr_eq(&a, &c) && !hit_c);
        // So is a different budget.
        let small = PaverConfig {
            max_boxes: 4,
            ..PaverConfig::default()
        };
        let (d, hit_d) = cache.pave_cached(fp, &tape, &dom, &small);
        assert!(d.len() <= 4 && !hit_d);
    }

    #[test]
    fn paver_reuse() {
        let sys = parse_system("var x in [0, 1]; pc x > 0.5;").unwrap();
        let paver = Paver::new(&sys.constraint_set.pcs()[0], 1, PaverConfig::default());
        let d1: IntervalBox = [Interval::new(0.0, 1.0)].into_iter().collect();
        let d2: IntervalBox = [Interval::new(0.6, 0.9)].into_iter().collect();
        assert!(!paver.pave(&d1).is_unsat());
        let p2 = paver.pave(&d2);
        assert_eq!(p2.inner.len(), 1);
        assert!(p2.boundary.is_empty());
    }
}
