//! Compressed-sparse-row undirected simple graph.
//!
//! [`CsrGraph`] is immutable once built (use [`crate::GraphBuilder`]). Every
//! undirected edge `{u, v}` is stored once in canonical `(min, max)` form in
//! the edge table and twice as arcs in the adjacency array; each arc carries
//! the id of its undirected edge so peeling algorithms can map an adjacency
//! position back to per-edge state in O(1).
//!
//! Adjacency lists are sorted by neighbor id, which gives:
//! * `O(log d)` membership/edge-id lookup ([`CsrGraph::edge_id_between`]),
//! * linear-time sorted-merge intersection for triangle listing.
//!
//! Because edge ids follow the lexicographic order of the canonical pairs,
//! the edges `(a, ·)` of one vertex `a` hold consecutive ids, a block, and
//! the blocks follow vertex order. Splicing a snapshot from a base graph
//! (`CsrGraph::splice_rows`, behind [`crate::DynamicGraph::to_csr`])
//! relies on this.

use std::ops::Range;

use crate::types::{EdgeId, VertexId};

/// An immutable undirected simple graph in CSR form with stable edge ids.
/// Two graphs are equal when all four arrays are, so equal graphs assign
/// every edge the same id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` is the arc slice of vertex `v`. Length `n+1`.
    offsets: Vec<usize>,
    /// Neighbor of each arc, sorted ascending within each vertex slice. Length `2m`.
    neighbors: Vec<VertexId>,
    /// Undirected edge id of each arc. Length `2m`.
    arc_edge: Vec<EdgeId>,
    /// Canonical endpoints `(u, v)` with `u < v`, sorted lexicographically. Length `m`.
    edges: Vec<(VertexId, VertexId)>,
}

impl CsrGraph {
    /// Builds a graph from canonical edges: every pair must satisfy `u < v`,
    /// be sorted lexicographically, and contain no duplicates. `n` must exceed
    /// every vertex id. [`crate::GraphBuilder`] establishes these invariants;
    /// prefer it unless the input is already canonical.
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
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut neighbors = vec![0 as VertexId; acc];
        let mut arc_edge = vec![0 as EdgeId; acc];
        for (eid, &(u, v)) in edges.iter().enumerate() {
            let eid = eid as EdgeId;
            let cu = cursor[u as usize];
            neighbors[cu] = v;
            arc_edge[cu] = eid;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize];
            neighbors[cv] = u;
            arc_edge[cv] = eid;
            cursor[v as usize] += 1;
        }
        // Lexicographic edge order fills each slice in ascending neighbor
        // order (lower endpoints first, then higher), so no per-slice sort is
        // needed; assert it in debug builds.
        debug_assert!((0..n).all(|v| {
            let s = &neighbors[offsets[v]..offsets[v + 1]];
            s.windows(2).all(|w| w[0] < w[1])
        }));
        CsrGraph { offsets, neighbors, arc_edge, edges }
    }

    /// This graph with the adjacency rows in `rows` replaced and the
    /// vertex set grown to `n`: the snapshot of a [`crate::DynamicGraph`]
    /// whose base is this graph.
    ///
    /// `rows` lists `(v, neighbors)` by ascending `v`, each list sorted
    /// and all of them symmetric, and names every vertex whose neighbors
    /// differ from this graph's; an unnamed vertex at or past [`Self::n`]
    /// has none. The result equals [`Self::from_canonical_edges`] over the
    /// new edge set, array for array, and costs contiguous copies plus
    /// work in the named rows and the changed edges:
    ///
    /// * Diffing each named row against its old row finds the removed
    ///   edges (by old id) and the inserted ones (as canonical pairs), each
    ///   once from its lower endpoint.
    /// * The edge table is this one with those edges cut out and spliced
    ///   in. A surviving edge's id moves by a step function of its old id,
    ///   with one step per changed edge.
    /// * Untouched rows are copied in runs. The block of edges `(a, ·)` of
    ///   an untouched `a` holds no change (a change there would be an edge
    ///   of `a`), so the whole block moves by one amount, and an untouched
    ///   row's edge `{v, w}` moves as the block of `min(v, w)` does. The
    ///   few such edges in the block of a named vertex are then moved
    ///   exactly.
    /// * A named row takes its surviving edges' old ids from a merge
    ///   against its old row. Only its inserted edges are looked up in
    ///   the new table.
    pub(crate) fn splice_rows(&self, n: usize, rows: &[(VertexId, &[VertexId])]) -> CsrGraph {
        debug_assert!(n >= self.n(), "a splice never shrinks the vertex set");
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "rows ascend by vertex");

        // Every changed edge as (old position, is a removal, pair). A
        // removed edge sits at its old id, an inserted one before the old
        // edge at its lower bound, so at a tie the insertion comes first.
        let mut changes: Vec<(usize, bool, (VertexId, VertexId))> = Vec::new();
        for &(u, new) in rows {
            let (old, ids) = self.row(u);
            let (mut i, mut j) = (old.partition_point(|&w| w < u), new.partition_point(|&w| w < u));
            while i < old.len() || j < new.len() {
                if j == new.len() || (i < old.len() && old[i] < new[j]) {
                    changes.push((ids[i] as usize, true, (u, old[i])));
                    i += 1;
                } else if i == old.len() || new[j] < old[i] {
                    let pair = (u, new[j]);
                    changes.push((self.edges.partition_point(|&e| e < pair), false, pair));
                    j += 1;
                } else {
                    i += 1;
                    j += 1;
                }
            }
        }
        changes.sort_unstable();

        // The new edge table, and the step function from a surviving
        // edge's old id to its new one: an old id `e` moves by the
        // (wrapping) shift of the last step whose threshold is at most
        // `e`. The first step, `(0, 0)`, covers the ids before any change.
        let mut edges = Vec::with_capacity(self.m() + changes.len());
        let mut steps: Vec<(EdgeId, EdgeId)> = Vec::with_capacity(changes.len() + 1);
        steps.push((0, 0));
        let (mut copied, mut shift) = (0usize, 0 as EdgeId);
        for &(at, removal, pair) in &changes {
            edges.extend_from_slice(&self.edges[copied..at]);
            if removal {
                copied = at + 1;
                shift = shift.wrapping_sub(1);
            } else {
                edges.push(pair);
                copied = at;
                shift = shift.wrapping_add(1);
            }
            steps.push((at as EdgeId, shift));
        }
        edges.extend_from_slice(&self.edges[copied..]);

        // How far each base vertex's block of edges `(a, ·)` moves: a step
        // at old id `t` moves the blocks from that of old edge `t`'s lower
        // endpoint on. Only a named vertex's block can hold a step inside
        // it, and `Splice::fix_named_blocks` moves its edges exactly.
        let mut block: Vec<EdgeId> = Vec::new();
        if steps.len() > 1 {
            block.reserve_exact(self.n());
            for (i, &(_, shift)) in steps.iter().enumerate() {
                let until = steps.get(i + 1).map_or(self.n(), |&(t, _)| {
                    self.edges.get(t as usize).map_or(self.n(), |&(a, _)| a as usize)
                });
                block.resize(until.max(block.len()), shift);
            }
        }

        let arcs = 2 * edges.len();
        let mut splice = Splice {
            base: self,
            out: CsrGraph {
                offsets: Vec::with_capacity(n + 1),
                neighbors: Vec::with_capacity(arcs),
                arc_edge: Vec::with_capacity(arcs),
                edges,
            },
            steps,
            block,
        };
        splice.out.offsets.push(0);
        let mut next = 0usize;
        for &(u, new) in rows {
            splice.copy_rows(next..u as usize);
            splice.push_row(u, new);
            next = u as usize + 1;
        }
        splice.copy_rows(next..n);
        splice.fix_named_blocks(rows);
        splice.out
    }

    /// `v`'s neighbors and edge ids; empty past [`Self::n`].
    fn row(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        if (v as usize) < self.n() {
            (self.neighbors(v), self.arc_edges(v))
        } else {
            (&[], &[])
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
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
        &self.arc_edge[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterates `(neighbor, edge_id)` pairs of `v` in ascending neighbor order.
    #[inline]
    pub fn neighbor_arcs(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.neighbors(v).iter().copied().zip(self.arc_edges(v).iter().copied())
    }

    /// Canonical endpoints `(u, v)` with `u < v` of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e as usize]
    }

    /// All canonical edges in lexicographic order.
    #[inline]
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Id of the edge between `u` and `v`, searching the smaller adjacency
    /// list: `O(log min(d(u), d(v)))`.
    pub fn edge_id_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        let slice = self.neighbors(a);
        let idx = slice.binary_search(&b).ok()?;
        Some(self.arc_edges(a)[idx])
    }

    /// Whether `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_id_between(u, v).is_some()
    }

    /// Iterates all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.n() as VertexId
    }

    /// Total bytes of the in-memory representation (for index-size reports).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
            + self.arc_edge.len() * std::mem::size_of::<EdgeId>()
            + self.edges.len() * std::mem::size_of::<(VertexId, VertexId)>()
    }
}

/// One [`CsrGraph::splice_rows`] in progress: the graph written so far,
/// row by row, and what moves the surviving edge ids.
struct Splice<'a> {
    base: &'a CsrGraph,
    out: CsrGraph,
    /// The step function: `(threshold, shift)` by ascending threshold.
    steps: Vec<(EdgeId, EdgeId)>,
    /// `block[a]`: how far the edges `(a, ·)` of an untouched base
    /// vertex `a` move. Empty when nothing moves.
    block: Vec<EdgeId>,
}

/// How far the surviving edge with old id `e` moves under `steps`.
fn shift(steps: &[(EdgeId, EdgeId)], e: EdgeId) -> EdgeId {
    steps[steps.partition_point(|&(t, _)| t <= e) - 1].1
}

impl Splice<'_> {
    /// Appends the base's rows `rows`, unchanged but for their edge ids.
    /// Rows at or past the base's vertex count are appended empty.
    fn copy_rows(&mut self, rows: Range<usize>) {
        let base = self.base;
        let end = rows.end.min(base.n());
        if rows.start < end {
            let (lo, hi) = (base.offsets[rows.start], base.offsets[end]);
            let start = self.out.neighbors.len();
            self.out.neighbors.extend_from_slice(&base.neighbors[lo..hi]);
            self.out
                .offsets
                .extend(base.offsets[rows.start + 1..=end].iter().map(|&o| o - lo + start));
            self.out.arc_edge.extend_from_slice(&base.arc_edge[lo..hi]);
            if self.steps.len() > 1 {
                // Each edge `{v, w}` moves as the block of `min(v, w)` does.
                let block = &self.block;
                let moved = &mut self.out.arc_edge[start..];
                for v in rows.start..end {
                    let (from, to) = (base.offsets[v] - lo, base.offsets[v + 1] - lo);
                    let v = v as VertexId;
                    for (id, &w) in
                        moved[from..to].iter_mut().zip(&base.neighbors[lo + from..lo + to])
                    {
                        *id = id.wrapping_add(block[v.min(w) as usize]);
                    }
                }
            }
        }
        let len = self.out.neighbors.len();
        self.out.offsets.resize(self.out.offsets.len() + (rows.end - rows.start.max(end)), len);
    }

    /// Moves exactly the edges `(u, x)` of each named base vertex `u` that
    /// [`Self::copy_rows`] wrote in the untouched row `x`: the block of a
    /// named vertex may move by different amounts.
    fn fix_named_blocks(&mut self, rows: &[(VertexId, &[VertexId])]) {
        if self.block.is_empty() {
            return;
        }
        let named = |x: VertexId| rows.binary_search_by_key(&x, |&(v, _)| v).is_ok();
        for &(u, _) in rows {
            let (old, ids) = self.base.row(u);
            let above = old.partition_point(|&x| x < u);
            for (&x, &e) in old[above..].iter().zip(&ids[above..]) {
                if named(x) {
                    continue;
                }
                // `x`'s row was copied unchanged, so `u` sits where it did.
                let at = self.base.neighbors(x).partition_point(|&w| w < u);
                self.out.arc_edge[self.out.offsets[x as usize] + at] =
                    e.wrapping_add(shift(&self.steps, e));
            }
        }
    }

    /// Appends the named row `u` with neighbors `new`. A surviving edge
    /// takes its old id from a merge against the base row and moves by
    /// the step function; an inserted edge is looked up in the new table.
    fn push_row(&mut self, u: VertexId, new: &[VertexId]) {
        let (old, ids) = self.base.row(u);
        let mut i = 0;
        for &w in new {
            while i < old.len() && old[i] < w {
                i += 1;
            }
            let id = if old.get(i) == Some(&w) {
                ids[i].wrapping_add(shift(&self.steps, ids[i]))
            } else {
                let pair = (u.min(w), u.max(w));
                self.out.edges.partition_point(|&e| e < pair) as EdgeId
            };
            self.out.neighbors.push(w);
            self.out.arc_edge.push(id);
        }
        self.out.offsets.push(self.out.neighbors.len());
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

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices_via_min_n() {
        let g = GraphBuilder::with_min_vertices(5).extend_edges([(0, 1)]).build();
        assert_eq!(g.n(), 5);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(4).is_empty());
    }
}
