//! TCP-index [Huang et al., SIGMOD 2014] — the Related Work comparison.
//!
//! Section 8.2 (and Figure 18) of the paper contrasts the TSD-index with the
//! TCP-index used for *k-truss community search*. Both are per-vertex
//! maximum spanning forests, but their weights mean different things:
//!
//! * **TCP**: edge `(y, z)` in the forest of `x` is weighted
//!   `min(τ_G(x,y), τ_G(x,z), τ_G(y,z))` — **global** trussness with
//!   triangle connectivity, answering "which k-truss *community of G*
//!   contains this triangle".
//! * **TSD**: the same edge is weighted `τ_{GN(x)}(y, z)` — trussness
//!   **inside the ego-network**, answering "which social context of `x`'s
//!   neighborhood contains it".
//!
//! This module implements the TCP-index and triangle-connected k-truss
//! community search so the comparison (and Figure 18's witness graph) can be
//! reproduced, and to double as an independent oracle in tests.

use sd_graph::triangles::for_each_triangle;
use sd_graph::{CsrGraph, Dsu, VertexId};
use sd_truss::{truss_decomposition, TrussDecomposition};

/// The TCP-index: per-vertex maximum spanning forest of the
/// triangle-trussness-weighted neighborhood graph.
#[derive(Clone, Debug)]
pub struct TcpIndex {
    offsets: Vec<usize>,
    eu: Vec<VertexId>,
    ew: Vec<VertexId>,
    /// `min` of the three global trussness values of the triangle.
    weight: Vec<u32>,
}

impl TcpIndex {
    /// Builds the TCP-index: one global truss decomposition, one global
    /// triangle listing, then a Kruskal per vertex.
    pub fn build(g: &CsrGraph) -> Self {
        let decomposition = truss_decomposition(g);
        Self::build_with_decomposition(g, &decomposition)
    }

    /// As [`Self::build`] with a precomputed decomposition.
    pub fn build_with_decomposition(g: &CsrGraph, decomposition: &TrussDecomposition) -> Self {
        let n = g.n();
        // Collect the weighted neighborhood edges of every vertex: triangle
        // (a, b, c) contributes (b, c) to a's list, (a, c) to b's, (a, b)
        // to c's — weight = min trussness of the triangle's edges.
        let mut counts = vec![0usize; n];
        for_each_triangle(g, |a, b, c, _, _, _| {
            counts[a as usize] += 1;
            counts[b as usize] += 1;
            counts[c as usize] += 1;
        });
        let mut start = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        start.push(0);
        for &c in &counts {
            acc += c;
            start.push(acc);
        }
        let mut cursor: Vec<usize> = start[..n].to_vec();
        let mut items = vec![(0u32, 0 as VertexId, 0 as VertexId); acc];
        for_each_triangle(g, |a, b, c, e_ab, e_ac, e_bc| {
            let w = decomposition.trussness[e_ab as usize]
                .min(decomposition.trussness[e_ac as usize])
                .min(decomposition.trussness[e_bc as usize]);
            for (corner, x, y) in [(a, b, c), (b, a, c), (c, a, b)] {
                let pos = cursor[corner as usize];
                items[pos] = (w, x.min(y), x.max(y));
                cursor[corner as usize] += 1;
            }
        });

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let (mut eu, mut ew, mut weight) = (Vec::new(), Vec::new(), Vec::new());
        for v in 0..n {
            let slice = &mut items[start[v]..start[v + 1]];
            // Kruskal: descending weight.
            slice.sort_unstable_by_key(|&(w, _, _)| std::cmp::Reverse(w));
            let nbrs = g.neighbors(v as VertexId);
            // sd-lint: allow(no-panic) triangle edges only connect members of N(v)
            let local = |x: VertexId| nbrs.binary_search(&x).expect("triangle edge in N(v)");
            let mut dsu = Dsu::new(nbrs.len());
            for &(w, a, b) in slice.iter() {
                if dsu.union(local(a) as u32, local(b) as u32) {
                    eu.push(a);
                    ew.push(b);
                    weight.push(w);
                }
            }
            offsets.push(weight.len());
        }
        TcpIndex { offsets, eu, ew, weight }
    }

    /// Forest slice of `x`: `(u, w, weight)` triples, weight descending.
    pub fn forest(&self, x: VertexId) -> impl Iterator<Item = (VertexId, VertexId, u32)> + '_ {
        (self.offsets[x as usize]..self.offsets[x as usize + 1])
            .map(move |i| (self.eu[i], self.ew[i], self.weight[i]))
    }

    /// Weight of the forest edge joining `a` and `b` in `x`'s forest, if any.
    pub fn forest_weight(&self, x: VertexId, a: VertexId, b: VertexId) -> Option<u32> {
        self.forest(x).find(|&(u, w, _)| (u, w) == (a.min(b), a.max(b))).map(|(_, _, t)| t)
    }
}

/// Triangle-connected k-truss communities of the whole graph (the structure
/// TCP-index/Equi-Truss answer queries about): edges with `τ ≥ k`, two edges
/// connected when they share a triangle whose third edge also has `τ ≥ k`.
/// Returns each community as its vertex set, in [`Dsu::groups`]' order.
/// Communities can share vertices, so two can tie on size and first
/// vertex; they then come in the order of their lowest edge ids.
pub fn ktruss_communities(
    g: &CsrGraph,
    decomposition: &TrussDecomposition,
    k: u32,
) -> Vec<Vec<VertexId>> {
    let mut dsu = Dsu::new(g.m());
    let qualifies = |e: u32| decomposition.trussness[e as usize] >= k;
    for_each_triangle(g, |_, _, _, e_ab, e_ac, e_bc| {
        if qualifies(e_ab) && qualifies(e_ac) && qualifies(e_bc) {
            dsu.union(e_ab, e_ac);
            dsu.union(e_ab, e_bc);
        }
    });
    // k-truss edges with no qualifying triangle form their own singleton
    // communities only at k = 2 (support can be 0); for k >= 3 every
    // qualifying edge sits in a qualifying triangle.
    let edges = (0..g.m() as u32).filter(|&e| qualifies(e));
    dsu.groups(edges.map(|e| {
        let (u, v) = g.edge(e);
        (e, [u, v])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_figure18_graph;
    use sd_graph::GraphBuilder;

    /// Figure 18: the SAME forest edge (q2, q3) in q1's index carries weight
    /// 4 under TCP (global: {q2,q3,z5,z6} is a 4-truss) but weight 2 under
    /// TSD (inside GN(q1), (q2,q3) closes no triangle).
    #[test]
    fn figure_18_witness() {
        let (g, q1, names) = paper_figure18_graph();
        let q2 = names.iter().position(|&n| n == "q2").unwrap() as u32;
        let q3 = names.iter().position(|&n| n == "q3").unwrap() as u32;

        let tcp = TcpIndex::build(&g);
        assert_eq!(tcp.forest_weight(q1, q2, q3), Some(4), "TCP weight (global trussness)");

        let tsd = crate::tsd::TsdIndex::build(&g);
        let tsd_weight =
            tsd.forest(q1).find(|&(u, w, _)| (u, w) == (q2.min(q3), q2.max(q3))).map(|(_, _, t)| t);
        assert_eq!(tsd_weight, Some(2), "TSD weight (ego-network trussness)");
    }

    #[test]
    fn tcp_forest_weights_descend() {
        let (g, _, _) = crate::paper::paper_figure1_graph();
        let tcp = TcpIndex::build(&g);
        for v in g.vertices() {
            let weights: Vec<u32> = tcp.forest(v).map(|(_, _, w)| w).collect();
            assert!(weights.windows(2).all(|w| w[0] >= w[1]), "v={v}");
        }
    }

    /// K4 + pendant: one triangle-connected 4-truss community {0,1,2,3}.
    #[test]
    fn communities_on_k4() {
        let g = GraphBuilder::new()
            .extend_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
            .build();
        let d = truss_decomposition(&g);
        let communities = ktruss_communities(&g, &d, 4);
        assert_eq!(communities, vec![vec![0, 1, 2, 3]]);
    }

    /// Two triangles sharing only a vertex are DIFFERENT triangle-connected
    /// communities (unlike plain connected k-trusses, which would merge).
    #[test]
    fn triangle_connectivity_separates_bowtie() {
        let g = GraphBuilder::new()
            .extend_edges([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
            .build();
        let d = truss_decomposition(&g);
        let communities = ktruss_communities(&g, &d, 3);
        assert_eq!(communities.len(), 2);
        assert!(communities.iter().all(|c| c.len() == 3));
        // Both contain the shared vertex 2.
        assert!(communities.iter().all(|c| c.contains(&2)));
    }

    /// Figure 18's point, from the community side: globally, everything is
    /// ONE triangle-connected 4-truss community — the triangle (q1,q2,q3)
    /// has all edges at trussness 4 and glues the three cliques together.
    /// That is why the TCP edge (q2,q3) carries weight 4, and why the paper
    /// needs the *local* TSD semantics to separate q1's social contexts.
    #[test]
    fn figure18_communities() {
        let (g, q1, _) = paper_figure18_graph();
        let d = truss_decomposition(&g);
        let communities = ktruss_communities(&g, &d, 4);
        assert_eq!(communities.len(), 1);
        assert_eq!(communities[0].len(), 9);
        // …while the ego-network of q1 decomposes into two 3-truss social
        // contexts under the TSD semantics.
        assert_eq!(crate::score::score(&g, q1, 3), 2);
    }

    /// A windmill of 40 cliques of 3, 4 or 5 vertices sharing hub 0, the
    /// sizes interleaved: every community starts at 0, so communities of
    /// one size tie on (size, first vertex) and come in blade order, which
    /// is the order of their first edges.
    #[test]
    fn tied_communities_keep_their_first_edge_order() {
        let (mut edges, mut blades, mut next) = (Vec::new(), Vec::new(), 1);
        for i in 0..40 {
            let add = [2, 3, 2, 4, 3, 2, 2, 3][(7 * i + i / 3) % 8];
            let blade: Vec<VertexId> = std::iter::once(0).chain(next..next + add).collect();
            next += add;
            for (a, &u) in blade.iter().enumerate() {
                edges.extend(blade[a + 1..].iter().map(|&v| (u, v)));
            }
            blades.push(blade);
        }
        let g = GraphBuilder::new().extend_edges(edges).build();
        let d = truss_decomposition(&g);
        let expected: Vec<Vec<VertexId>> = (3..=5)
            .rev()
            .flat_map(|size| blades.iter().filter(move |b| b.len() == size).cloned())
            .collect();
        assert_eq!(ktruss_communities(&g, &d, 3), expected);
    }
}
