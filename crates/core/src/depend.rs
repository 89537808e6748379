//! The variable dependency relation of paper §4.2 (Definition 1).
//!
//! Two input variables depend on each other if they appear together in at
//! least one constraint of any path condition; the relation is closed
//! transitively, so it is an equivalence and induces a partition of the
//! variables. Constraints over different partition classes are
//! statistically independent and their estimators multiply (Eq. 7–8).
//!
//! The paper computes weakly connected components of a variable
//! co-occurrence graph (via the JUNG library); here the partition is
//! computed with a union-find structure, which is asymptotically better
//! and dependency-free.

use qcoral_constraints::{ConstraintSet, VarId, VarSet};

/// A classic disjoint-set (union-find) structure with path compression
/// and union by rank.
///
/// # Example
///
/// ```
/// use qcoral::depend::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 2);
/// assert_eq!(uf.find(0), uf.find(2));
/// assert_ne!(uf.find(0), uf.find(1));
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the canonical representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`. Returns `true` if they were
    /// previously distinct.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb as u32,
            std::cmp::Ordering::Greater => self.parent[rb] = ra as u32,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra as u32;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Computes the dependency partition of Definition 1: the
/// `computeDependencyRelation` procedure of Algorithm 1.
///
/// Variables co-occurring in any atom of any path condition are unioned;
/// the returned [`VarSet`]s are the equivalence classes, in increasing
/// order of their smallest member. Every variable in `0..nvars` appears in
/// exactly one class (unconstrained variables form singletons).
///
/// Costs O(DAG) per atom: variable collection enters each shared
/// sub-term once, however often the tree repeats it.
pub fn dependency_partition(cs: &ConstraintSet, nvars: usize) -> Vec<VarSet> {
    let mut uf = UnionFind::new(nvars);
    for pc in cs.pcs() {
        for atom in pc.atoms() {
            let mut scratch = VarSet::new(nvars);
            atom.collect_vars(&mut scratch);
            let mut first: Option<usize> = None;
            for v in scratch.iter() {
                match first {
                    None => first = Some(v.index()),
                    Some(f) => {
                        uf.union(f, v.index());
                    }
                }
            }
        }
    }
    // Group variables by representative, preserving smallest-member order.
    let mut class_of_root: Vec<Option<usize>> = vec![None; nvars];
    let mut classes: Vec<VarSet> = Vec::new();
    for v in 0..nvars {
        let root = uf.find(v);
        let class = match class_of_root[root] {
            Some(c) => c,
            None => {
                classes.push(VarSet::new(nvars));
                class_of_root[root] = Some(classes.len() - 1);
                classes.len() - 1
            }
        };
        classes[class].insert(VarId(v as u32));
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;

    fn partition(src: &str) -> Vec<Vec<u32>> {
        let sys = parse_system(src).unwrap();
        dependency_partition(&sys.constraint_set, sys.domain.len())
            .into_iter()
            .map(|s| s.iter().map(|v| v.0).collect())
            .collect()
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(1, 2));
        uf.union(1, 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(4, 5));
    }

    #[test]
    fn paper_example_partition() {
        // §4.4: headFlap and tailFlap depend on each other (they share
        // the sin constraint); altitude is independent.
        let p = partition(
            "var altitude in [0, 20000];
             var headFlap in [-10, 10];
             var tailFlap in [-10, 10];
             pc altitude > 9000;
             pc altitude <= 9000 && sin(headFlap * tailFlap) > 0.25;",
        );
        assert_eq!(p, vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn transitive_closure() {
        // x–y via one atom, y–z via another, in *different* PCs:
        // Definition 1 closes over all path conditions of the program.
        let p = partition(
            "var x in [0,1]; var y in [0,1]; var z in [0,1];
             pc x + y < 1;
             pc y + z < 1;",
        );
        assert_eq!(p, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn unconstrained_vars_are_singletons() {
        let p = partition(
            "var a in [0,1]; var unused in [0,1]; var b in [0,1];
             pc a < 0.5 && b < 0.5;",
        );
        assert_eq!(p, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn fully_dependent_single_class() {
        let p = partition(
            "var a in [0,1]; var b in [0,1]; var c in [0,1];
             pc a * b * c > 0.1;",
        );
        assert_eq!(p, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn empty_constraint_set_gives_singletons() {
        let p = partition("var a in [0,1]; var b in [0,1];");
        assert_eq!(p, vec![vec![0], vec![1]]);
    }
}
