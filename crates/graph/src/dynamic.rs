//! Mutable adjacency-list graph for dynamic workloads.
//!
//! [`crate::CsrGraph`] is immutable by design (cache-friendly, stable edge
//! ids). Dynamic maintenance — the paper's Section 5.3 remark about
//! supporting node/edge insertions and deletions — needs a mutable
//! counterpart; [`DynamicGraph`] keeps sorted adjacency vectors so the
//! ego-network extraction merge loops work unchanged.
//!
//! Adjacency is **copy-on-write** over an optional shared CSR base: a
//! graph made with [`DynamicGraph::from_base`] starts with every
//! per-vertex slot *inherited* — reads serve the base CSR's slices
//! directly — and only the vertices an edit actually touches materialize
//! an owned sorted vector. A batch of edits over a published snapshot
//! therefore costs `O(n)` slot pointers plus the rows it touches, not a
//! copy of the whole adjacency (~2× graph memory).
//!
//! A snapshot ([`DynamicGraph::to_csr`]) copies each vertex's row, owned
//! or shared, into a rows-only [`crate::CsrGraph`] in `O(n + m)`; the
//! edge ids that peeling reads are derived from those rows on first use,
//! which nothing on a per-vertex path does. The next batch starts over
//! that snapshot with a fresh [`DynamicGraph::from_base`], so owned rows
//! never outlive their batch. This trusts the base: it must hold exactly
//! the adjacency of every row the overlay does not own, which
//! [`DynamicGraph::from_base`] establishes.

use std::sync::Arc;

use crate::csr::CsrGraph;
use crate::types::VertexId;

/// One edge mutation in a dynamic-graph workload: the unit the serving
/// layer's `apply_updates` batches are made of. Endpoints are unordered
/// (`{u, v}`), matching the undirected simple-graph model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphUpdate {
    /// Insert edge `{u, v}` (a no-op if it already exists or `u == v`).
    Insert {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Remove edge `{u, v}` (a no-op if absent).
    Remove {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
}

impl GraphUpdate {
    /// The update's endpoints, as given.
    pub fn endpoints(self) -> (VertexId, VertexId) {
        match self {
            GraphUpdate::Insert { u, v } | GraphUpdate::Remove { u, v } => (u, v),
        }
    }
}

/// Outcome of [`DynamicGraph::apply_batch`]: how many updates mutated the
/// graph and how many were rejected as no-ops (duplicate or self-loop
/// inserts, removals of absent edges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchApplyStats {
    /// Updates that changed the edge set.
    pub applied: usize,
    /// Updates rejected without changing anything.
    pub rejected: usize,
}

/// An undirected simple graph under edge insertions/deletions.
#[derive(Clone, Debug, Default)]
pub struct DynamicGraph {
    /// Shared immutable base; `None` for graphs built from scratch.
    base: Option<Arc<CsrGraph>>,
    /// One slot per vertex. `None` means the neighbor list is inherited
    /// unchanged from `base` (or empty, past the base's range); `Some`
    /// is an owned sorted neighbor vector that shadows the base.
    overlay: Vec<Option<Vec<VertexId>>>,
    m: usize,
}

impl DynamicGraph {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        DynamicGraph { base: None, overlay: vec![None; n], m: 0 }
    }

    /// Copies a static graph into dynamic form. The copy is shallow: the
    /// CSR is cloned once into a private base and every adjacency slot
    /// starts shared (see [`Self::from_base`] for the zero-copy variant).
    pub fn from_csr(g: &CsrGraph) -> Self {
        Self::from_base(Arc::new(g.clone()))
    }

    /// Adopts `base` as shared copy-on-write storage: no adjacency is
    /// copied until an edit touches it, so an updater seeded from a
    /// published snapshot costs `O(n)` slot pointers, not `O(n + m)`.
    pub fn from_base(base: Arc<CsrGraph>) -> Self {
        let (n, m) = (base.n(), base.m());
        DynamicGraph { base: Some(base), overlay: vec![None; n], m }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.overlay.len()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Grows the vertex set so that `v` is a valid vertex.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        if (v as usize) >= self.overlay.len() {
            self.overlay.resize(v as usize + 1, None);
        }
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Sorted neighbors of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match &self.overlay[v as usize] {
            Some(list) => list,
            None => match &self.base {
                Some(base) if (v as usize) < base.n() => base.neighbors(v),
                _ => &[],
            },
        }
    }

    /// Mutable access to `v`'s neighbor list, materializing the owned
    /// copy from the base on first touch (the "write" half of COW).
    fn owned(&mut self, v: VertexId) -> &mut Vec<VertexId> {
        let DynamicGraph { base, overlay, .. } = self;
        overlay[v as usize].get_or_insert_with(|| match base {
            Some(b) if (v as usize) < b.n() => b.neighbors(v).to_vec(),
            _ => Vec::new(),
        })
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Inserts edge `{u, v}`, growing the vertex set if needed.
    /// Returns false (and changes nothing) for self-loops and duplicates.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        self.ensure_vertex(u.max(v));
        let pos_u = match self.neighbors(u).binary_search(&v) {
            Ok(_) => return false,
            Err(p) => p,
        };
        self.owned(u).insert(pos_u, v);
        let pos_v = self.neighbors(v).binary_search(&u).expect_err("u<->v symmetric");
        self.owned(v).insert(pos_v, u);
        self.m += 1;
        true
    }

    /// Removes edge `{u, v}`; returns whether it existed.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || (u.max(v) as usize) >= self.overlay.len() {
            return false;
        }
        let Ok(pos_u) = self.neighbors(u).binary_search(&v) else {
            return false;
        };
        self.owned(u).remove(pos_u);
        // sd-lint: allow(no-panic) the adjacency is kept symmetric and v was found in adj[u]
        let pos_v = self.neighbors(v).binary_search(&u).expect("symmetric edge");
        self.owned(v).remove(pos_v);
        self.m -= 1;
        true
    }

    /// Applies one update; returns whether it changed the edge set.
    /// Duplicate/self-loop inserts and absent removes are rejected (false).
    pub fn apply(&mut self, update: GraphUpdate) -> bool {
        match update {
            GraphUpdate::Insert { u, v } => self.insert_edge(u, v),
            GraphUpdate::Remove { u, v } => self.remove_edge(u, v),
        }
    }

    /// Applies a batch of updates in order, counting applied vs rejected
    /// ops. Later updates see the effects of earlier ones, so e.g. an
    /// insert followed by a remove of the same edge both count as applied.
    pub fn apply_batch(&mut self, batch: &[GraphUpdate]) -> BatchApplyStats {
        let mut stats = BatchApplyStats::default();
        for &update in batch {
            if self.apply(update) {
                stats.applied += 1;
            } else {
                stats.rejected += 1;
            }
        }
        stats
    }

    /// Common neighbors of `u` and `v` (sorted merge).
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
        let (a, b) = (self.neighbors(u), self.neighbors(v));
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Snapshots to an immutable CSR graph: every vertex's row, owned or
    /// served from the base, copied in vertex order in `O(n + m)`. The
    /// snapshot holds rows only; its edge ids, equal to those of
    /// [`CsrGraph::from_canonical_edges`] over the current edge set, are
    /// derived on first use.
    pub fn to_csr(&self) -> CsrGraph {
        let mut offsets = Vec::with_capacity(self.n() + 1);
        let mut neighbors = Vec::with_capacity(2 * self.m);
        offsets.push(0);
        for v in 0..self.n() as VertexId {
            neighbors.extend_from_slice(self.neighbors(v));
            offsets.push(neighbors.len());
        }
        CsrGraph::from_rows(offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = DynamicGraph::new(4);
        assert!(g.insert_edge(0, 1));
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(1, 0), "duplicate rejected");
        assert!(!g.insert_edge(2, 2), "self-loop rejected");
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1), "already removed");
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn adjacency_stays_sorted() {
        let mut g = DynamicGraph::new(5);
        for v in [3, 1, 4, 2] {
            g.insert_edge(0, v);
        }
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn grows_on_demand() {
        let mut g = DynamicGraph::new(0);
        g.insert_edge(5, 9);
        assert_eq!(g.n(), 10);
        assert_eq!(g.degree(9), 1);
        assert!(!g.remove_edge(3, 42), "out-of-range remove is a no-op");
    }

    #[test]
    fn common_neighbors_merge() {
        let mut g = DynamicGraph::new(6);
        for v in [1, 2, 3] {
            g.insert_edge(0, v);
        }
        for v in [2, 3, 4] {
            g.insert_edge(5, v);
        }
        assert_eq!(g.common_neighbors(0, 5), vec![2, 3]);
    }

    #[test]
    fn apply_batch_counts_applied_and_rejected() {
        let mut g = DynamicGraph::new(4);
        let stats = g.apply_batch(&[
            GraphUpdate::Insert { u: 0, v: 1 },
            GraphUpdate::Insert { u: 1, v: 0 }, // duplicate (reversed)
            GraphUpdate::Insert { u: 2, v: 2 }, // self-loop
            GraphUpdate::Insert { u: 1, v: 2 },
            GraphUpdate::Remove { u: 0, v: 1 },
            GraphUpdate::Remove { u: 0, v: 3 }, // absent
        ]);
        assert_eq!(stats, BatchApplyStats { applied: 3, rejected: 3 });
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn update_endpoints_roundtrip() {
        assert_eq!(GraphUpdate::Insert { u: 3, v: 7 }.endpoints(), (3, 7));
        assert_eq!(GraphUpdate::Remove { u: 9, v: 2 }.endpoints(), (9, 2));
    }

    #[test]
    fn cow_slots_share_base_storage_until_edited() {
        let csr = std::sync::Arc::new(
            GraphBuilder::new().extend_edges([(0, 1), (1, 2), (0, 2), (2, 3)]).build(),
        );
        let mut g = DynamicGraph::from_base(csr.clone());
        let shared = |g: &DynamicGraph| g.overlay.iter().map(Option::is_none).collect::<Vec<_>>();
        assert_eq!(shared(&g), [true; 4], "a fresh graph owns no row");
        // Untouched slots serve the base CSR's slices verbatim.
        for v in 0..4 {
            assert_eq!(g.neighbors(v).as_ptr(), csr.neighbors(v).as_ptr(), "v={v}");
        }
        // Removing {2, 3} materializes exactly those two endpoints.
        assert!(g.remove_edge(2, 3));
        assert_eq!(shared(&g), [true, true, false, false], "only the endpoints materialized");
        assert_eq!(g.neighbors(0).as_ptr(), csr.neighbors(0).as_ptr(), "slot 0 still shared");
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn cow_growth_past_base_range_reads_empty_and_materializes() {
        let csr = std::sync::Arc::new(GraphBuilder::new().extend_edges([(0, 1)]).build());
        let mut g = DynamicGraph::from_base(csr);
        g.ensure_vertex(4);
        assert_eq!(g.neighbors(4), &[] as &[VertexId], "past-base slot reads empty");
        assert!(g.insert_edge(4, 0));
        assert_eq!(g.neighbors(4), &[0]);
        assert_eq!(g.neighbors(0), &[1, 4]);
        assert!(g.overlay[1].is_none(), "vertex 1 untouched by the edit");
    }

    #[test]
    fn csr_roundtrip() {
        let csr = GraphBuilder::new().extend_edges([(0, 1), (1, 2), (0, 2), (2, 3)]).build();
        let dynamic = DynamicGraph::from_csr(&csr);
        let back = dynamic.to_csr();
        assert_eq!(csr.edges(), back.edges());
        assert_eq!(csr.n(), back.n());
    }

    #[test]
    fn to_csr_after_edits() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(0, 1);
        g.insert_edge(2, 3);
        g.insert_edge(1, 2);
        g.remove_edge(2, 3);
        let csr = g.to_csr();
        assert_eq!(csr.edges(), &[(0, 1), (1, 2)]);
    }
}
