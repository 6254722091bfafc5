//! k-truss extraction and maximal connected k-trusses.
//!
//! Given per-edge trussness, the k-truss of `G` is the subgraph of all edges
//! with `τ(e) ≥ k`; its connected components are the paper's *maximal
//! connected k-trusses* — and, inside an ego-network, its *social contexts*
//! (Definition 2).

use sd_graph::{CsrGraph, Dsu, EdgeId, VertexId};

use crate::decompose::TrussDecomposition;

/// Ids of all edges in the k-truss (`τ(e) ≥ k`), ascending.
pub fn ktruss_edges(decomposition: &TrussDecomposition, k: u32) -> Vec<EdgeId> {
    decomposition
        .trussness
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t >= k)
        .map(|(e, _)| e as EdgeId)
        .collect()
}

/// Vertex sets of the maximal connected k-trusses of `g`, in
/// [`Dsu::groups`]' order. Vertices incident to no qualifying edge appear
/// in no component (a k-truss is edge-induced).
pub fn maximal_connected_ktrusses(
    g: &CsrGraph,
    decomposition: &TrussDecomposition,
    k: u32,
) -> Vec<Vec<VertexId>> {
    let mut dsu = Dsu::new(g.n());
    let mut in_truss = vec![false; g.n()];
    for (e, &t) in decomposition.trussness.iter().enumerate() {
        if t >= k {
            let (u, v) = g.edge(e as EdgeId);
            dsu.union(u, v);
            in_truss[u as usize] = true;
            in_truss[v as usize] = true;
        }
    }
    dsu.groups(g.vertices().filter(|&v| in_truss[v as usize]).map(|v| (v, [v])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::truss_decomposition;
    use sd_graph::GraphBuilder;

    /// Figure 2(b) graph: two 4-cliques bridged by two trussness-3 edges.
    fn h1() -> (CsrGraph, TrussDecomposition) {
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
        let d = truss_decomposition(&g);
        (g, d)
    }

    #[test]
    fn four_truss_splits_into_two_cliques() {
        let (g, d) = h1();
        let comps = maximal_connected_ktrusses(&g, &d, 4);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2, 3]);
        assert_eq!(comps[1], vec![4, 5, 6, 7]);
    }

    #[test]
    fn three_truss_is_one_component() {
        let (g, d) = h1();
        let comps = maximal_connected_ktrusses(&g, &d, 3);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn five_truss_is_empty() {
        let (g, d) = h1();
        assert!(maximal_connected_ktrusses(&g, &d, 5).is_empty());
    }

    #[test]
    fn ktruss_edges_filter() {
        let (g, d) = h1();
        assert_eq!(ktruss_edges(&d, 4).len(), 12);
        assert_eq!(ktruss_edges(&d, 3).len(), 14);
        assert_eq!(ktruss_edges(&d, 2).len(), g.m());
    }

    #[test]
    fn isolated_vertices_excluded() {
        let g = GraphBuilder::with_min_vertices(5).extend_edges([(0, 1), (0, 2), (1, 2)]).build();
        let d = truss_decomposition(&g);
        let comps = maximal_connected_ktrusses(&g, &d, 2);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], vec![0, 1, 2]);
    }

    #[test]
    fn components_sorted_by_size_desc() {
        // One triangle and one K4, both 3-trusses at k=3.
        let g = GraphBuilder::new()
            .extend_edges([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
            .build();
        let d = truss_decomposition(&g);
        let comps = maximal_connected_ktrusses(&g, &d, 3);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 4);
        assert_eq!(comps[1].len(), 3);
    }
}
