//! The bounded symbolic executor.
//!
//! Depth-first exploration over the flattened program: program state maps
//! frame slots to expressions over the *input* variables; each non-trivial
//! branch decision conjoins atoms onto the path condition. Branching uses
//! Shannon expansion of the condition's boolean structure, which keeps
//! sibling cases pairwise disjoint — the property the disjunction
//! composition rule (paper §4.1) depends on.
//!
//! Mirroring SPF as described in §3.1:
//!
//! * exploration is bounded by a branch-decision budget
//!   ([`SymConfig::max_depth`], paper default 50);
//! * paths cut by the bound are collected separately
//!   ([`SymResult::bound_hit`]) so their probability mass can bound the
//!   confidence of the result;
//! * infeasible branches are pruned — here with the ICP contractor.
//!
//! Branch decisions whose condition folds to a constant (loop counters,
//! etc.) consume no budget and add nothing to the path condition.
//!
//! The store holds only *folded* expressions: it starts as variables and
//! `0` constants, and every update is [`Expr::substitute_fold`] of a
//! source expression against it. That is what lets each `Assign` and each
//! comparison cost O(source expression): a variable read returns the
//! store's `Arc` itself, so path conditions come out as DAGs that share
//! the store's sub-terms instead of trees that copy them.
//!
//! # NaN caveat
//!
//! Path constraints use mathematical semantics: an atom and its negation
//! are both false on inputs where a sub-expression is undefined (NaN). A
//! concrete Java-style run of `if (!(sqrt(x) >= 0))` on `x < 0` takes the
//! then-branch, while no collected PC covers that input. Subjects should
//! guard partial operations explicitly (as the paper's do).

use std::sync::Arc;

use qcoral_constraints::{Atom, ConstraintSet, Domain, Expr, PathCondition};
use qcoral_icp::{domain_box, maybe_satisfiable};
use qcoral_interval::IntervalBox;

use crate::ast::{Cond, Program};
use crate::flat::{flatten, FlatProgram, Instr};

/// Exploration limits and toggles.
#[derive(Clone, Debug)]
pub struct SymConfig {
    /// Maximum non-trivial branch decisions per path (the paper's SPF
    /// search bound; §6.3 uses 50).
    pub max_depth: usize,
    /// Global cap on completed paths; exploration beyond it is recorded as
    /// bound-hit.
    pub max_paths: usize,
    /// Prune branches the ICP contractor proves infeasible.
    pub prune_infeasible: bool,
}

impl Default for SymConfig {
    /// Paper-style defaults: depth 50, pruning on.
    fn default() -> SymConfig {
        SymConfig {
            max_depth: 50,
            max_paths: 100_000,
            prune_infeasible: true,
        }
    }
}

/// The product of symbolic execution: the paper's `PCT`/`PCF` split plus
/// the bound-hit set of §3.1.
#[derive(Clone, Debug)]
pub struct SymResult {
    /// The bounded input domain (from the parameter declarations).
    pub domain: Domain,
    /// Path conditions of complete paths that reached `target();`.
    pub target: ConstraintSet,
    /// Path conditions of complete paths that terminated without the
    /// event.
    pub no_target: ConstraintSet,
    /// Path conditions cut off by the depth or path budget; their
    /// probability mass bounds the result's confidence.
    pub bound_hit: ConstraintSet,
    /// All complete paths in bounded depth-first exploration order, each
    /// tagged with whether it reached the target. Used by protocols that
    /// select "the first N% of PCs in DFS order" (paper §6.3).
    pub complete: Vec<(PathCondition, bool)>,
    /// Number of complete paths explored.
    pub paths: usize,
    /// Number of branches pruned as infeasible.
    pub pruned: usize,
}

struct State {
    ip: usize,
    store: Vec<Arc<Expr>>,
    pc: Vec<Atom>,
    depth: usize,
}

/// Symbolically executes `prog`, collecting the disjoint path conditions
/// that reach the target event.
pub fn symbolic_execute(prog: &Program, cfg: &SymConfig) -> SymResult {
    let flat = flatten(prog);
    let domain = prog.domain();
    let dbox = domain_box(&domain);
    let mut result = SymResult {
        domain,
        target: ConstraintSet::new(),
        no_target: ConstraintSet::new(),
        bound_hit: ConstraintSet::new(),
        complete: Vec::new(),
        paths: 0,
        pruned: 0,
    };

    let mut store: Vec<Arc<Expr>> = Vec::with_capacity(flat.frame_size);
    for i in 0..flat.nparams {
        store.push(Arc::new(Expr::var(qcoral_constraints::VarId(i as u32))));
    }
    for _ in flat.nparams..flat.frame_size {
        store.push(Arc::new(Expr::constant(0.0)));
    }
    let mut stack = vec![State {
        ip: 0,
        store,
        pc: Vec::new(),
        depth: 0,
    }];

    while let Some(state) = stack.pop() {
        if result.paths >= cfg.max_paths {
            // Budget exhausted: everything still queued is unexplored.
            result.bound_hit.push(PathCondition::from_atoms(state.pc));
            continue;
        }
        step(&flat, state, cfg, &dbox, &mut stack, &mut result);
    }
    result
}

/// Runs one state forward until it branches symbolically or terminates.
fn step(
    flat: &FlatProgram,
    mut state: State,
    cfg: &SymConfig,
    dbox: &IntervalBox,
    stack: &mut Vec<State>,
    result: &mut SymResult,
) {
    loop {
        if state.ip >= flat.instrs.len() {
            let pc = PathCondition::from_atoms(state.pc);
            result.no_target.push(pc.clone());
            result.complete.push((pc, false));
            result.paths += 1;
            return;
        }
        match &flat.instrs[state.ip] {
            Instr::Assign { slot, expr } => {
                state.store[*slot] = expr.substitute_fold(&state.store);
                state.ip += 1;
            }
            Instr::Jump(t) => state.ip = *t,
            Instr::Target => {
                let pc = PathCondition::from_atoms(state.pc);
                result.target.push(pc.clone());
                result.complete.push((pc, true));
                result.paths += 1;
                return;
            }
            Instr::Return => {
                let pc = PathCondition::from_atoms(state.pc);
                result.no_target.push(pc.clone());
                result.complete.push((pc, false));
                result.paths += 1;
                return;
            }
            Instr::Branch { cond, otherwise } => {
                let otherwise = *otherwise;
                let cases = split_cond(cond, &state.store);
                // A branch is "trivial" if it folded to a single case with
                // no atoms: it costs no depth budget.
                let symbolic = cases.iter().any(|(atoms, _)| !atoms.is_empty());
                if symbolic && state.depth >= cfg.max_depth {
                    result.bound_hit.push(PathCondition::from_atoms(state.pc));
                    return;
                }
                // Push in reverse so the first case is explored first
                // (bounded depth-first order, like the paper's protocol).
                let mut pushed = 0;
                for (atoms, outcome) in cases.into_iter().rev() {
                    let mut pc = state.pc.clone();
                    pc.extend(atoms.iter().cloned());
                    if cfg.prune_infeasible
                        && !atoms.is_empty()
                        && !maybe_satisfiable(&PathCondition::from_atoms(pc.clone()), dbox)
                    {
                        result.pruned += 1;
                        continue;
                    }
                    stack.push(State {
                        ip: if outcome { state.ip + 1 } else { otherwise },
                        store: state.store.clone(),
                        pc,
                        depth: state.depth + usize::from(!atoms.is_empty()),
                    });
                    pushed += 1;
                }
                if pushed == 0 {
                    // All branches infeasible: the path itself is
                    // infeasible (possible only with NaN-producing
                    // guards); drop it.
                    result.paths += 1;
                }
                return;
            }
        }
    }
}

/// Shannon expansion of a condition against the current symbolic store:
/// returns pairwise-disjoint cases `(atoms over inputs, outcome)`.
/// Conditions that fold to constants yield a single empty-atom case.
fn split_cond(cond: &Cond, store: &[Arc<Expr>]) -> Vec<(Vec<Atom>, bool)> {
    match cond {
        Cond::Cmp(lhs, op, rhs) => {
            let l = lhs.substitute_fold(store);
            let r = rhs.substitute_fold(store);
            if let (Expr::Const(a), Expr::Const(b)) = (&*l, &*r) {
                return vec![(Vec::new(), op.apply(*a, *b))];
            }
            let atom = Atom::new(l, *op, r);
            let neg = atom.negate();
            vec![(vec![atom], true), (vec![neg], false)]
        }
        Cond::Not(c) => split_cond(c, store)
            .into_iter()
            .map(|(atoms, b)| (atoms, !b))
            .collect(),
        Cond::And(a, b) => {
            let mut out = Vec::new();
            for (aa, oa) in split_cond(a, store) {
                if !oa {
                    out.push((aa, false));
                } else {
                    for (bb, ob) in split_cond(b, store) {
                        let mut atoms = aa.clone();
                        atoms.extend(bb);
                        out.push((atoms, ob));
                    }
                }
            }
            out
        }
        Cond::Or(a, b) => {
            let mut out = Vec::new();
            for (aa, oa) in split_cond(a, store) {
                if oa {
                    out.push((aa, true));
                } else {
                    for (bb, ob) in split_cond(b, store) {
                        let mut atoms = aa.clone();
                        atoms.extend(bb);
                        out.push((atoms, ob));
                    }
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn exec(src: &str) -> SymResult {
        symbolic_execute(&parse_program(src).unwrap(), &SymConfig::default())
    }

    #[test]
    fn listing1_produces_paper_pcs() {
        let r = exec(
            "program monitor(altitude in [0, 20000],
                             headFlap in [-10, 10],
                             tailFlap in [-10, 10]) {
               if (altitude <= 9000) {
                 if (sin(headFlap * tailFlap) > 0.25) { target(); }
               } else {
                 target();
               }
             }",
        );
        // PCT1: altitude > 9000 ; PCT2: altitude ≤ 9000 ∧ sin(h·t) > 0.25.
        assert_eq!(r.target.len(), 2);
        assert_eq!(r.no_target.len(), 1);
        assert!(r.bound_hit.is_empty());
        // Disjointness + coverage on sampled points.
        let ok = |alt: f64, h: f64, t: f64| {
            let sat: usize = r
                .target
                .pcs()
                .iter()
                .chain(r.no_target.pcs())
                .filter(|pc| pc.holds(&[alt, h, t]))
                .count();
            sat == 1
        };
        assert!(ok(9500.0, 0.0, 0.0));
        assert!(ok(100.0, 1.0, 1.5));
        assert!(ok(100.0, 0.0, 0.0));
    }

    #[test]
    fn concrete_loops_fold_away() {
        let r = exec(
            "program p(x in [0, 10]) {
               double acc = 0;
               double i = 0;
               while (i < 4) {
                 acc = acc + x;
                 i = i + 1;
               }
               if (acc > 20) { target(); }
             }",
        );
        // The loop condition is concrete: exactly two complete paths, and
        // the loop consumed no depth budget.
        assert_eq!(r.target.len(), 1);
        assert_eq!(r.no_target.len(), 1);
        assert!(r.bound_hit.is_empty());
        // Target PC is 4x > 20, i.e. x > 5.
        assert!(r.target.pcs()[0].holds(&[5.5]));
        assert!(!r.target.pcs()[0].holds(&[4.5]));
    }

    #[test]
    fn symbolic_loop_hits_bound() {
        let cfg = SymConfig {
            max_depth: 5,
            ..SymConfig::default()
        };
        let prog = parse_program(
            "program p(x in [0.01, 1]) {
               double acc = 0;
               while (acc < 1) {
                 acc = acc + x;
               }
               target();
             }",
        )
        .unwrap();
        let r = symbolic_execute(&prog, &cfg);
        // Some paths complete (large x), the deep ones hit the bound.
        assert!(!r.target.is_empty());
        assert!(!r.bound_hit.is_empty());
    }

    #[test]
    fn infeasible_branches_are_pruned() {
        let r = exec(
            "program p(x in [0, 1]) {
               if (x > 0.5) {
                 if (x < 0.2) { target(); }
               }
             }",
        );
        assert!(r.target.is_empty());
        assert!(r.pruned >= 1);
    }

    #[test]
    fn shannon_cases_are_disjoint_for_or() {
        let r = exec(
            "program p(x in [0, 1], y in [0, 1]) {
               if (x < 0.3 || y < 0.3) { target(); }
             }",
        );
        // Shannon expansion of `a || b`: {a}, {¬a ∧ b} — two target PCs.
        assert_eq!(r.target.len(), 2);
        // Exhaustive disjointness check on a grid.
        for i in 0..20 {
            for j in 0..20 {
                let p = [i as f64 / 20.0, j as f64 / 20.0];
                let n: usize = r.target.pcs().iter().filter(|pc| pc.holds(&p)).count();
                assert!(n <= 1, "point {p:?} satisfied {n} PCs");
            }
        }
    }

    #[test]
    fn store_substitution_tracks_dataflow() {
        let r = exec(
            "program p(x in [0, 2]) {
               double y = x * x;
               double z = y + 1;
               if (z > 2) { target(); }
             }",
        );
        assert_eq!(r.target.len(), 1);
        // Target iff x² + 1 > 2 ⇔ x > 1 on [0, 2].
        assert!(r.target.pcs()[0].holds(&[1.5]));
        assert!(!r.target.pcs()[0].holds(&[0.5]));
    }

    #[test]
    fn path_budget_moves_overflow_to_bound_hit() {
        let cfg = SymConfig {
            max_paths: 2,
            ..SymConfig::default()
        };
        let prog = parse_program(
            "program p(a in [0,1], b in [0,1], c in [0,1]) {
               if (a < 0.5) { }
               if (b < 0.5) { }
               if (c < 0.5) { target(); }
             }",
        )
        .unwrap();
        let r = symbolic_execute(&prog, &cfg);
        assert_eq!(r.paths, 2);
        assert!(!r.bound_hit.is_empty());
    }

    #[test]
    fn empty_program_is_one_no_target_path() {
        let r = exec("program p(x in [0, 1]) { }");
        assert_eq!(r.paths, 1);
        assert_eq!(r.no_target.len(), 1);
        assert!(r.no_target.pcs()[0].is_empty());
    }
}
