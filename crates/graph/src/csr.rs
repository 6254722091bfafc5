//! Compressed-sparse-row undirected simple graph.
//!
//! A [`CsrGraph`] is its rows: `offsets` delimit one adjacency list per
//! vertex in `neighbors`, every undirected edge `{u, v}` is stored twice as
//! arcs (`v` in `u`'s row and `u` in `v`'s), and every row is sorted by
//! neighbor id, which gives:
//! * `O(log d)` membership ([`CsrGraph::has_edge`]),
//! * linear-time sorted-merge intersection for triangle listing and
//!   ego-network extraction.
//!
//! Peeling needs more: edge ids, so an adjacency position maps back to
//! per-edge state in O(1). Edge `e` is the `e`-th canonical `(min, max)`
//! pair in lexicographic order, the order in which
//! [`CsrGraph::canonical_pairs`] reads them off the rows, and each arc
//! carries the id of its edge.
//! That view ([`CsrGraph::edges`], [`CsrGraph::arc_edges`] and the
//! accessors built on them) is a function of the rows, derived the first
//! time anything reads it and kept from then on. Everything per vertex
//! reads rows only, so a snapshot of a [`crate::DynamicGraph`]
//! ([`crate::DynamicGraph::to_csr`]), which holds only rows, never pays for
//! ids unless a whole-graph kernel (triangle listing, k-core or k-truss
//! peeling) runs on it. [`CsrGraph::from_canonical_edges`] has the edges at
//! hand and fills the view at once.

use std::sync::OnceLock;

use crate::types::{EdgeId, VertexId};

/// An immutable undirected simple graph in CSR form with stable edge ids.
/// Two graphs are equal when their rows are; the edge ids are a function
/// of the rows, so equal graphs assign every edge the same id.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` is the arc slice of vertex `v`. Length `n+1`.
    offsets: Vec<usize>,
    /// Neighbor of each arc, sorted ascending within each vertex slice. Length `2m`.
    neighbors: Vec<VertexId>,
    /// The edge-id view, derived from the rows on first use.
    ids: OnceLock<EdgeIds>,
}

/// The edge ids of a [`CsrGraph`]'s rows.
#[derive(Clone, Debug)]
struct EdgeIds {
    /// Undirected edge id of each arc. Length `2m`.
    arc_edge: Vec<EdgeId>,
    /// Canonical endpoints `(u, v)` with `u < v`, sorted lexicographically. Length `m`.
    edges: Vec<(VertexId, VertexId)>,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.neighbors == other.neighbors
    }
}

impl Eq for CsrGraph {}

/// The empty graph: no vertices, and the one offset that closes no row.
impl Default for CsrGraph {
    fn default() -> Self {
        CsrGraph::from_canonical_edges(0, Vec::new())
    }
}

/// Hands each of the canonical `edges`' two arcs, in edge order, to
/// `arc(position, neighbor, edge id)`, with positions in the rows
/// `offsets` delimits. Lexicographic edge order fills each row in
/// ascending neighbor order (lower endpoints first, then higher), so no
/// row needs sorting.
fn fill_arcs(
    offsets: &[usize],
    edges: &[(VertexId, VertexId)],
    mut arc: impl FnMut(usize, VertexId, EdgeId),
) {
    let mut cursor = offsets[..offsets.len() - 1].to_vec();
    for (e, &(u, v)) in edges.iter().enumerate() {
        for (from, to) in [(u, v), (v, u)] {
            arc(cursor[from as usize], to, e as EdgeId);
            cursor[from as usize] += 1;
        }
    }
}

impl CsrGraph {
    /// Builds a graph from canonical edges: every pair must satisfy `u < v`,
    /// be sorted lexicographically, and contain no duplicates. `n` must exceed
    /// every vertex id. [`crate::GraphBuilder`] establishes these invariants;
    /// prefer it unless the input is already canonical. The edge ids are
    /// filled at once, from `edges`.
    ///
    /// # Panics
    /// In debug builds, panics if the canonical-form invariants are violated.
    pub fn from_canonical_edges(n: usize, edges: Vec<(VertexId, VertexId)>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be sorted+deduped");
        debug_assert!(edges.iter().all(|&(u, v)| u < v && (v as usize) < n));

        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut neighbors = vec![0 as VertexId; acc];
        let mut arc_edge = vec![0 as EdgeId; acc];
        fill_arcs(&offsets, &edges, |at, w, e| {
            neighbors[at] = w;
            arc_edge[at] = e;
        });
        let ids = OnceLock::from(EdgeIds { arc_edge, edges });
        let g = CsrGraph { offsets, neighbors, ids };
        debug_assert!(g.vertices().all(|v| g.neighbors(v).windows(2).all(|w| w[0] < w[1])));
        g
    }

    /// A graph over the given rows: `offsets` (length `n + 1`, from 0,
    /// non-decreasing) delimits each vertex's neighbors in `neighbors`.
    /// Every row must be strictly ascending, free of its own vertex, and
    /// symmetric with the others. The edge ids are derived on first use.
    ///
    /// # Panics
    /// In debug builds, panics if the rows violate these invariants.
    pub(crate) fn from_rows(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        debug_assert!(offsets.first() == Some(&0) && offsets.last() == Some(&neighbors.len()));
        let g = CsrGraph { offsets, neighbors, ids: OnceLock::new() };
        debug_assert!(g.vertices().all(|v| {
            let row = g.neighbors(v);
            row.windows(2).all(|w| w[0] < w[1])
                && row.iter().all(|&w| w != v && (w as usize) < g.n())
                && row.iter().all(|&w| g.neighbors(w).binary_search(&v).is_ok())
        }));
        g
    }

    /// The edge-id view: built from the rows the first time anything asks
    /// for it, then kept.
    fn ids(&self) -> &EdgeIds {
        self.ids.get_or_init(|| {
            let mut edges = Vec::with_capacity(self.m());
            edges.extend(self.canonical_pairs());
            let mut arc_edge = vec![0 as EdgeId; self.neighbors.len()];
            fill_arcs(&self.offsets, &edges, |at, _, e| arc_edge[at] = e);
            EdgeIds { arc_edge, edges }
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v as VertexId)).max().unwrap_or(0)
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Edge-id slice parallel to [`Self::neighbors`].
    #[inline]
    pub fn arc_edges(&self, v: VertexId) -> &[EdgeId] {
        &self.ids().arc_edge[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterates `(neighbor, edge_id)` pairs of `v` in ascending neighbor order.
    #[inline]
    pub fn neighbor_arcs(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.neighbors(v).iter().copied().zip(self.arc_edges(v).iter().copied())
    }

    /// Canonical endpoints `(u, v)` with `u < v` of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.ids().edges[e as usize]
    }

    /// All canonical edges in lexicographic order.
    #[inline]
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.ids().edges
    }

    /// The same canonical edges as [`Self::edges`], in the same order, read
    /// from the rows without building the edge ids: each row's neighbors
    /// above its vertex, in row order.
    pub fn canonical_pairs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            let row = self.neighbors(u);
            row[row.partition_point(|&w| w < u)..].iter().map(move |&v| (u, v))
        })
    }

    /// The arc of `{u, v}` in the smaller of the two rows, as that row's
    /// vertex and the arc's index in it: `O(log min(d(u), d(v)))`.
    #[inline]
    fn find_arc(&self, u: VertexId, v: VertexId) -> Option<(VertexId, usize)> {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).ok().map(|idx| (a, idx))
    }

    /// Id of the edge between `u` and `v`, searching the smaller adjacency
    /// list: `O(log min(d(u), d(v)))`.
    pub fn edge_id_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.find_arc(u, v).map(|(a, idx)| self.arc_edges(a)[idx])
    }

    /// Whether `{u, v}` is an edge, searching the smaller adjacency list
    /// without reading edge ids.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.find_arc(u, v).is_some()
    }

    /// Iterates all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.n() as VertexId
    }

    /// Total bytes of the in-memory representation (for index-size
    /// reports): the rows, plus the edge-id view once it is built.
    pub fn heap_bytes(&self) -> usize {
        let rows = self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>();
        rows + self.ids.get().map_or(0, |ids| {
            ids.arc_edge.len() * std::mem::size_of::<EdgeId>()
                + ids.edges.len() * std::mem::size_of::<(VertexId, VertexId)>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle_plus_pendant() -> CsrGraph {
        // 0-1, 0-2, 1-2 (triangle), 2-3 (pendant)
        GraphBuilder::new().extend_edges([(0, 1), (0, 2), (1, 2), (2, 3)]).build()
    }

    #[test]
    fn basic_shape() {
        let g = triangle_plus_pendant();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let g = triangle_plus_pendant();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                assert!(g.neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn edge_ids_consistent_between_arcs_and_table() {
        let g = triangle_plus_pendant();
        for v in g.vertices() {
            for (u, e) in g.neighbor_arcs(v) {
                let (a, b) = g.edge(e);
                assert_eq!((a, b), (v.min(u), v.max(u)));
            }
        }
    }

    #[test]
    fn edge_lookup() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(3, 3));
        let e = g.edge_id_between(2, 3).unwrap();
        assert_eq!(g.edge(e), (2, 3));
    }

    /// A graph made from rows equals the builder's graph of the same edges
    /// before its ids are derived and after, derives the builder's ids,
    /// and counts them in `heap_bytes` only once they exist.
    #[test]
    fn a_rows_only_graph_derives_the_builders_ids() {
        let edges = [(0, 1), (0, 2), (1, 2), (2, 3), (1, 4)];
        let built = GraphBuilder::with_min_vertices(6).extend_edges(edges).build();
        let rows = CsrGraph::from_rows(built.offsets.clone(), built.neighbors.clone());
        let row_bytes = rows.heap_bytes();
        assert_eq!(rows, built);
        assert_eq!((rows.n(), rows.m(), rows.max_degree()), (6, 5, 3));
        assert!(rows.has_edge(3, 2) && !rows.has_edge(0, 3) && rows.neighbors(5).is_empty());
        assert!(rows.canonical_pairs().eq(built.edges().iter().copied()));
        assert!(rows.ids.get().is_none(), "rows, degrees, membership and pairs read no ids");

        assert_eq!(rows.edges(), built.edges());
        for v in built.vertices() {
            assert_eq!(rows.arc_edges(v), built.arc_edges(v), "v={v}");
        }
        assert_eq!(rows.edge_id_between(4, 1), built.edge_id_between(1, 4));
        assert_eq!(rows, built);
        assert_eq!(rows.heap_bytes(), built.heap_bytes());
        assert_eq!(row_bytes, 7 * std::mem::size_of::<usize>() + 10 * 4);
        assert!(row_bytes < built.heap_bytes());
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    /// The default graph is the empty one the builder makes: one offset,
    /// no vertices or edges, and an empty edge-id view.
    #[test]
    fn the_default_graph_is_the_empty_graph() {
        let g = CsrGraph::default();
        assert_eq!(g.offsets, [0]);
        assert_eq!((g.n(), g.m(), g.max_degree()), (0, 0, 0));
        assert_eq!(g.vertices().count(), 0);
        assert_eq!(g, GraphBuilder::new().build());
        assert!(g.edges().is_empty() && g.canonical_pairs().next().is_none());
    }

    #[test]
    fn isolated_vertices_via_min_n() {
        let g = GraphBuilder::with_min_vertices(5).extend_edges([(0, 1)]).build();
        assert_eq!(g.n(), 5);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(4).is_empty());
    }
}
