//! k-core decomposition — the substrate of the Core-Div baseline \[20\].
//!
//! A k-core is the maximal subgraph in which every vertex has degree ≥ k;
//! its connected components are the Core-Div model's social contexts.
//! Implemented with the same bin-sort peeling as truss decomposition, but
//! over vertices keyed by degree (Batagelj–Zaversnik).

use sd_graph::{CsrGraph, Dsu, PeelingBuckets, VertexId};

/// Result of core decomposition: per-vertex coreness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `coreness[v]` = largest `k` such that `v` belongs to the k-core.
    pub coreness: Vec<u32>,
    /// Maximum coreness (the graph's degeneracy).
    pub max_coreness: u32,
}

/// Peels vertices in ascending degree to compute coreness in `O(n + m)`.
pub fn core_decomposition(g: &CsrGraph) -> CoreDecomposition {
    let degrees: Vec<u32> = g.vertices().map(|v| g.degree(v) as u32).collect();
    let mut buckets = PeelingBuckets::new(&degrees);
    let mut coreness = vec![0u32; g.n()];
    let mut level = 0u32;
    while let Some((v, key)) = buckets.pop_min() {
        level = level.max(key);
        coreness[v as usize] = level;
        for &u in g.neighbors(v) {
            if !buckets.is_processed(u) {
                buckets.decrease_key_clamped(u, level);
            }
        }
    }
    CoreDecomposition { coreness, max_coreness: level }
}

/// Vertex sets of the maximal connected k-cores of `g` (the Core-Div
/// baseline's social contexts), in [`Dsu::groups`]' order.
pub fn maximal_connected_kcores(g: &CsrGraph, k: u32) -> Vec<Vec<VertexId>> {
    let decomposition = core_decomposition(g);
    let in_core: Vec<bool> = decomposition.coreness.iter().map(|&c| c >= k).collect();
    let mut dsu = Dsu::new(g.n());
    for &(u, v) in g.edges() {
        if in_core[u as usize] && in_core[v as usize] {
            dsu.union(u, v);
        }
    }
    dsu.groups(g.vertices().filter(|&v| in_core[v as usize]).map(|v| (v, [v])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_graph::GraphBuilder;

    #[test]
    fn k4_coreness_is_3() {
        let g = GraphBuilder::new()
            .extend_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .build();
        let d = core_decomposition(&g);
        assert_eq!(d.coreness, vec![3; 4]);
        assert_eq!(d.max_coreness, 3);
    }

    #[test]
    fn path_coreness_is_1() {
        let g = GraphBuilder::new().extend_edges([(0, 1), (1, 2), (2, 3)]).build();
        let d = core_decomposition(&g);
        assert_eq!(d.coreness, vec![1; 4]);
    }

    #[test]
    fn triangle_with_pendant_cores() {
        let g = GraphBuilder::new().extend_edges([(0, 1), (0, 2), (1, 2), (2, 3)]).build();
        let d = core_decomposition(&g);
        assert_eq!(d.coreness, vec![2, 2, 2, 1]);
    }

    /// The paper's H1 (two 4-cliques + two bridges into y1): for k ≤ 3 the
    /// whole of H1 is one connected k-core — the decomposability failure
    /// that motivates the truss model (Section 1).
    #[test]
    fn h1_is_one_3core() {
        let g = GraphBuilder::new()
            .extend_edges([
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (4, 5),
                (4, 6),
                (4, 7),
                (5, 6),
                (5, 7),
                (6, 7),
                (1, 4),
                (3, 4),
            ])
            .build();
        let comps = maximal_connected_kcores(&g, 3);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 8);
        // And for k = 4, H1 yields no social context at all.
        assert!(maximal_connected_kcores(&g, 4).is_empty());
    }

    #[test]
    fn isolated_vertices_and_k_zero() {
        let g = GraphBuilder::with_min_vertices(4).extend_edges([(0, 1)]).build();
        let d = core_decomposition(&g);
        assert_eq!(d.coreness, vec![1, 1, 0, 0]);
        // k = 0 includes isolated vertices as singleton components.
        let comps = maximal_connected_kcores(&g, 0);
        assert_eq!(comps.len(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let d = core_decomposition(&g);
        assert!(d.coreness.is_empty());
        assert_eq!(d.max_coreness, 0);
        assert!(maximal_connected_kcores(&g, 1).is_empty());
    }
}
