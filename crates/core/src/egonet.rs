//! Ego-network extraction (Definition 1).
//!
//! Two strategies, matching the paper's ablation (Table 4):
//!
//! * [`EgoNetwork::extract`] — per-vertex extraction via local triangle
//!   listing (intersecting each neighbor's adjacency with `N(v)`); Algorithm
//!   2 and every index write but the sequential GCT build use it, and it
//!   enumerates every triangle six times across all ego-networks.
//! * [`AllEgoNetworks`] — the GCT technique (Algorithm 7, lines 1–4): one
//!   global triangle listing populates all ego-networks simultaneously, so
//!   each triangle is touched only three times (once per corner), but every
//!   ego edge is held at once; [`crate::GctIndex::build`] and the baselines
//!   use it.

use sd_graph::triangles::for_each_triangle;
use sd_graph::{CsrGraph, VertexId};

/// An extracted ego-network: a graph over local ids `0..d(v)` plus the map
/// back to global vertex ids (`vertices[local] = global`, ascending).
#[derive(Clone, Debug)]
pub struct EgoNetwork {
    /// The ego-network as a local graph; vertex `i` is `vertices[i]`.
    pub graph: CsrGraph,
    /// Local-to-global vertex map, sorted ascending (it is `N(v)`).
    pub vertices: Vec<VertexId>,
}

impl EgoNetwork {
    /// Extracts the ego-network of `v` from `g` by listing the triangles
    /// through `v`: for each neighbor `u`, the sorted-merge intersection
    /// `N(u) ∩ N(v)` yields the ego edges at `u`.
    pub fn extract(g: &CsrGraph, v: VertexId) -> Self {
        let nbrs = g.neighbors(v);
        let mut edges = Vec::new();
        for (local_u, &u) in nbrs.iter().enumerate() {
            // Merge N(u) with the suffix of N(v) above u: each common
            // element w > u contributes the canonical local edge (u, w).
            let mut i = 0usize;
            let mut local_w = local_u + 1;
            let n_u = g.neighbors(u);
            while i < n_u.len() && local_w < nbrs.len() {
                let (a, b) = (n_u[i], nbrs[local_w]);
                if a < b {
                    i += 1;
                } else if b < a {
                    local_w += 1;
                } else {
                    edges.push((local_u as VertexId, local_w as VertexId));
                    i += 1;
                    local_w += 1;
                }
            }
        }
        let graph = CsrGraph::from_canonical_edges(nbrs.len(), edges);
        EgoNetwork { graph, vertices: nbrs.to_vec() }
    }

    /// Maps a local component (vertex list) to global ids.
    pub fn to_global(&self, locals: &[VertexId]) -> Vec<VertexId> {
        locals.iter().map(|&l| self.vertices[l as usize]).collect()
    }

    /// Number of edges `m_v` in the ego-network (= triangles through `v`).
    pub fn m(&self) -> usize {
        self.graph.m()
    }
}

/// All ego-networks of a graph, materialized with a single global triangle
/// listing (the GCT fast-extraction technique).
#[derive(Clone, Debug)]
pub struct AllEgoNetworks {
    /// `offsets[v]..offsets[v+1]` slices `edges` for vertex `v`.
    offsets: Vec<usize>,
    /// Ego edges in *global* endpoint ids, canonical `(min, max)`, sorted
    /// lexicographically within each vertex's slice.
    edges: Vec<(VertexId, VertexId)>,
}

impl AllEgoNetworks {
    /// Builds every ego-network at once: each triangle `{a, b, c}` deposits
    /// one edge into each corner's ego list.
    pub fn build(g: &CsrGraph) -> Self {
        let n = g.n();
        // Pass 1: count ego edges per vertex (= triangles per vertex).
        let mut counts = vec![0usize; n];
        for_each_triangle(g, |a, b, c, _, _, _| {
            counts[a as usize] += 1;
            counts[b as usize] += 1;
            counts[c as usize] += 1;
        });
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        // Pass 2: fill.
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut edges = vec![(0 as VertexId, 0 as VertexId); acc];
        for_each_triangle(g, |a, b, c, _, _, _| {
            for (corner, x, y) in [(a, b, c), (b, a, c), (c, a, b)] {
                let e = (x.min(y), x.max(y));
                let pos = cursor[corner as usize];
                edges[pos] = e;
                cursor[corner as usize] += 1;
            }
        });
        // Canonical order within each slice (build local CSRs without sorting
        // again later). No duplicates exist: edge (u,w) appears in ego(v)
        // once, via the unique triangle {u, w, v}.
        for v in 0..n {
            edges[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        AllEgoNetworks { offsets, edges }
    }

    /// `m_v`: number of edges in `v`'s ego-network.
    #[inline]
    pub fn ego_edge_count(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Ego edges of `v` in global ids (canonical, sorted).
    #[inline]
    pub fn ego_edges(&self, v: VertexId) -> &[(VertexId, VertexId)] {
        &self.edges[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Materializes the ego-network of `v` as a local graph. `g` provides
    /// `N(v)` for the local id mapping.
    pub fn ego_graph(&self, g: &CsrGraph, v: VertexId) -> EgoNetwork {
        let nbrs = g.neighbors(v);
        let local = |x: VertexId| {
            // sd-lint: allow(no-panic) ego edges only connect members of N(v)
            nbrs.binary_search(&x).expect("ego edge endpoint in N(v)") as VertexId
        };
        let edges: Vec<(VertexId, VertexId)> =
            self.ego_edges(v).iter().map(|&(u, w)| (local(u), local(w))).collect();
        // Global lexicographic order maps to local lexicographic order
        // because `local` is monotone.
        let graph = CsrGraph::from_canonical_edges(nbrs.len(), edges);
        EgoNetwork { graph, vertices: nbrs.to_vec() }
    }

    /// Heap bytes (for construction-cost reporting).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>() + self.edges.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_graph::GraphBuilder;

    /// K4 on {0,1,2,3} plus pendant 4 attached to 3.
    fn k4_pendant() -> CsrGraph {
        GraphBuilder::new()
            .extend_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
            .build()
    }

    #[test]
    fn extract_ego_of_k4_vertex() {
        let g = k4_pendant();
        let ego = EgoNetwork::extract(&g, 0);
        assert_eq!(ego.vertices, vec![1, 2, 3]);
        // Neighbors 1,2,3 form a triangle among themselves.
        assert_eq!(ego.graph.m(), 3);
    }

    #[test]
    fn extract_ego_includes_isolated_neighbors() {
        let g = k4_pendant();
        let ego = EgoNetwork::extract(&g, 3);
        // N(3) = {0,1,2,4}; 4 is isolated in the ego-network.
        assert_eq!(ego.vertices, vec![0, 1, 2, 4]);
        assert_eq!(ego.graph.m(), 3);
        assert_eq!(ego.graph.degree(3), 0);
    }

    #[test]
    fn pendant_has_singleton_ego() {
        let g = k4_pendant();
        let ego = EgoNetwork::extract(&g, 4);
        assert_eq!(ego.vertices, vec![3]);
        assert_eq!(ego.graph.m(), 0);
    }

    #[test]
    fn global_extraction_matches_per_vertex() {
        let g = k4_pendant();
        let all = AllEgoNetworks::build(&g);
        for v in g.vertices() {
            let a = EgoNetwork::extract(&g, v);
            let b = all.ego_graph(&g, v);
            assert_eq!(a.vertices, b.vertices, "vertex {v}");
            assert_eq!(a.graph.edges(), b.graph.edges(), "vertex {v}");
        }
    }

    #[test]
    fn ego_edge_counts_are_triangle_counts() {
        let g = k4_pendant();
        let all = AllEgoNetworks::build(&g);
        let counts = sd_graph::triangles::vertex_triangle_counts(&g);
        for v in g.vertices() {
            assert_eq!(all.ego_edge_count(v), counts[v as usize] as usize);
        }
    }

    #[test]
    fn to_global_roundtrip() {
        let g = k4_pendant();
        let ego = EgoNetwork::extract(&g, 3);
        assert_eq!(ego.to_global(&[0, 3]), vec![0, 4]);
    }
}
