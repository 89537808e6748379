//! Structure of the symbolic executor's output, pinned.
//!
//! Factor-store snapshots key on `PathCondition::fingerprint`, and Table 3
//! reports `atom_count` / `op_count`, so how expressions are built and
//! shared must never change *what* they are. The golden file
//! `tests/golden/structure.txt` records, for every (subject, assertion)
//! pair of `table3_subjects()` and `nonuniform_subjects()`:
//!
//! * `ROW name|assertion|atom_count|op_count|#pcs`, then
//! * `FP name|assertion|fingerprint` for each target PC in order.
//!
//! The sharing test checks the other half of the contract: the same
//! structure is held as a small DAG, not as a tree.

use std::collections::HashSet;
use std::sync::Arc;

use qcoral_constraints::{ConstraintSet, Expr, VarId};
use qcoral_subjects::{nonuniform_subjects, table3_subjects};
use qcoral_symexec::SymConfig;

fn structure_lines() -> Vec<String> {
    let mut rows: Vec<(String, usize, ConstraintSet)> = Vec::new();
    for s in table3_subjects() {
        for idx in 0..s.assertions.len() {
            rows.push((
                s.name.to_string(),
                idx,
                s.system_for(idx, &SymConfig::default()).1,
            ));
        }
    }
    for s in nonuniform_subjects() {
        rows.push((
            s.name.to_string(),
            s.assertion,
            s.system(&SymConfig::default()).1,
        ));
    }
    let mut lines = Vec::new();
    for (name, idx, cs) in rows {
        lines.push(format!(
            "ROW {name}|{idx}|{}|{}|{}",
            cs.atom_count(),
            cs.op_count(),
            cs.len()
        ));
        for pc in cs.pcs() {
            lines.push(format!("FP {name}|{idx}|{:032x}", pc.fingerprint()));
        }
    }
    lines
}

#[test]
fn symexec_output_matches_golden_structure() {
    let golden = include_str!("golden/structure.txt");
    let expected: Vec<&str> = golden.lines().collect();
    let actual = structure_lines();
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "golden line {}", i + 1);
    }
    assert_eq!(actual.len(), expected.len(), "golden line count");
}

/// Distinct expression nodes (by `Arc` address) reachable from `e`.
fn count_nodes(e: &Arc<Expr>, seen: &mut HashSet<*const Expr>) {
    if !seen.insert(Arc::as_ptr(e)) {
        return;
    }
    match &**e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Unary(_, c) => count_nodes(c, seen),
        Expr::Binary(_, a, b) => {
            count_nodes(a, seen);
            count_nodes(b, seen);
        }
    }
}

#[test]
fn invpend_target_is_a_small_dag_with_tree_counts() {
    let subjects = table3_subjects();
    let subj = subjects.iter().find(|s| s.name == "INVPEND").unwrap();
    let (domain, cs) = subj.system_for(0, &SymConfig::default());
    assert_eq!(cs.len(), 1);
    let pc = &cs.pcs()[0];
    let mut seen = HashSet::new();
    for atom in pc.atoms() {
        count_nodes(atom.lhs(), &mut seen);
        count_nodes(atom.rhs(), &mut seen);
    }
    assert!(
        seen.len() <= 300,
        "INVPEND target PC holds {} distinct nodes; symexec lost sharing",
        seen.len()
    );
    // Tree semantics survive: Table 3's op column counts occurrences.
    assert_eq!(pc.len(), 1);
    assert_eq!(pc.atoms()[0].lhs().size(), 107_611);
    assert_eq!(cs.op_count(), 53_805);

    // The factor key's remap keeps the DAG too (a reversal renames
    // every variable, so every node above one is rewritten).
    let n = domain.len() as u32;
    let reverse = |v: VarId| VarId(n - 1 - v.0);
    let remapped = pc.remap_vars(&reverse);
    let mut seen2 = HashSet::new();
    for atom in remapped.atoms() {
        count_nodes(atom.lhs(), &mut seen2);
        count_nodes(atom.rhs(), &mut seen2);
    }
    assert!(seen2.len() <= seen.len());
    assert_ne!(remapped.fingerprint(), pc.fingerprint());
    assert_eq!(
        remapped.remap_vars(&reverse).fingerprint(),
        pc.fingerprint()
    );
}
