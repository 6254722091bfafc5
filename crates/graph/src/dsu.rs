//! Disjoint-set union (union-find) with path halving and union by size.
//!
//! Used for: grouping every social context, ego component and k-truss
//! community into the one order all engines and baselines report
//! ([`Dsu::groups`]), Kruskal's maximum spanning forests (the TSD- and
//! GCT-index builds of Algorithms 5 and 7, and the TCP-index), and the
//! GCT decoder's acyclic-superedge check.

use crate::types::VertexId;

/// Union-find over `0..len` with near-constant amortized operations.
#[derive(Clone, Debug)]
pub struct Dsu {
    parent: Vec<u32>,
    /// Component size, valid only at roots.
    size: Vec<u32>,
}

impl Dsu {
    /// `len` singleton sets.
    pub fn new(len: usize) -> Self {
        Dsu { parent: (0..len as u32).collect(), size: vec![1; len] }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        true
    }

    /// The vertex ids of each set, given each element passed with the
    /// (non-empty) ids it stands for. Every social context, component and
    /// community in the workspace is listed in this one order:
    ///
    /// - each group ascending, without repeats;
    /// - groups by (size desc, first vertex asc), and groups tied on both
    ///   in the order their first element was passed.
    ///
    /// Sets none of whose elements were passed yield no group.
    pub fn groups<I: AsRef<[VertexId]>>(
        &mut self,
        members: impl IntoIterator<Item = (u32, I)>,
    ) -> Vec<Vec<VertexId>> {
        let mut group_of = vec![u32::MAX; self.len()];
        let mut groups: Vec<Vec<VertexId>> = Vec::new();
        for (x, ids) in members {
            let root = self.find(x) as usize;
            if group_of[root] == u32::MAX {
                group_of[root] = groups.len() as u32;
                groups.push(Vec::new());
            }
            groups[group_of[root] as usize].extend_from_slice(ids.as_ref());
        }
        for group in &mut groups {
            group.sort_unstable();
            group.dedup();
        }
        groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unions_and_finds() {
        let mut d = Dsu::new(5);
        assert!(d.union(0, 1));
        assert!(d.union(1, 2));
        assert!(!d.union(0, 2));
        assert_eq!(d.find(0), d.find(2));
        assert_ne!(d.find(0), d.find(3));
        assert_ne!(d.find(3), d.find(4));
    }

    #[test]
    fn empty() {
        let d = Dsu::new(0);
        assert!(d.is_empty());
    }

    /// Overlapping ids merge ascending without repeats; groups come by
    /// (size desc, first vertex asc), the tie between `[2, 8]` and
    /// `[2, 6]` in first-seen order; element 6, never passed, yields
    /// nothing.
    #[test]
    fn groups_are_ordered_by_size_then_first_vertex_then_first_seen() {
        let mut d = Dsu::new(7);
        d.union(0, 1);
        d.union(2, 3);
        let groups = d.groups([
            (5, vec![8, 2]),
            (1, vec![9, 7]),
            (2, vec![5]),
            (4, vec![6, 2]),
            (0, vec![7, 3]),
            (3, vec![4, 5]),
        ]);
        assert_eq!(groups, vec![vec![3, 7, 9], vec![2, 8], vec![2, 6], vec![4, 5]]);
    }
}
