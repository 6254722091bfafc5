//! Computing `score(v)` and the social contexts (Algorithm 2).

use sd_graph::{CsrGraph, VertexId};
use sd_truss::{maximal_connected_ktrusses, truss_decomposition};

use crate::egonet::EgoNetwork;

/// Algorithm 2 on a pre-extracted ego-network: truss-decomposes it by
/// classic peeling, keeps edges with trussness ≥ k, and returns the
/// connected components as social contexts in **global** vertex ids.
pub fn social_contexts_of_ego(ego: &EgoNetwork, k: u32) -> Vec<Vec<VertexId>> {
    let decomposition = truss_decomposition(&ego.graph);
    maximal_connected_ktrusses(&ego.graph, &decomposition, k)
        .into_iter()
        .map(|component| ego.to_global(&component))
        .collect()
}

/// Algorithm 2: extracts `GN(v)`, truss-decomposes it, and returns `SC(v)`.
pub fn social_contexts(g: &CsrGraph, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
    let ego = EgoNetwork::extract(g, v);
    social_contexts_of_ego(&ego, k)
}

/// `score(v) = |SC(v)|` (Definition 3).
pub fn score(g: &CsrGraph, v: VertexId, k: u32) -> u32 {
    social_contexts(g, v, k).len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_figure1_graph;
    use sd_graph::GraphBuilder;

    /// The paper's running example: `score(v) = 3` at `k = 4` with contexts
    /// {x1..x4}, {y1..y4}, {r1..r6} (Section 2.2).
    #[test]
    fn paper_running_example() {
        let (g, v, names) = paper_figure1_graph();
        let contexts = social_contexts(&g, v, 4);
        assert_eq!(contexts.len(), 3);
        let mut labeled: Vec<Vec<&str>> =
            contexts.iter().map(|ctx| ctx.iter().map(|&u| names[u as usize]).collect()).collect();
        labeled.sort();
        assert_eq!(
            labeled,
            vec![
                vec!["r1", "r2", "r3", "r4", "r5", "r6"],
                vec!["x1", "x2", "x3", "x4"],
                vec!["y1", "y2", "y3", "y4"],
            ]
        );
    }

    /// At k = 3, H3 and H4 fuse through the trussness-3 bridges: 2 contexts.
    #[test]
    fn paper_example_at_k3() {
        let (g, v, _) = paper_figure1_graph();
        assert_eq!(score(&g, v, 3), 2);
    }

    /// At k = 5 nothing survives: the octahedron is exactly a 4-truss.
    #[test]
    fn paper_example_at_k5() {
        let (g, v, _) = paper_figure1_graph();
        assert_eq!(score(&g, v, 5), 0);
    }

    /// At k = 2 the ego-network splits into its two edge-bearing components:
    /// H1 = {x's ∪ y's} and H2 = {r's}.
    #[test]
    fn paper_example_at_k2() {
        let (g, v, _) = paper_figure1_graph();
        assert_eq!(score(&g, v, 2), 2);
    }

    #[test]
    fn score_zero_when_no_truss() {
        // Star: ego of center has no edges.
        let g = GraphBuilder::new().extend_edges([(0, 1), (0, 2), (0, 3)]).build();
        assert_eq!(score(&g, 0, 2), 0);
    }

    #[test]
    fn bitmap_and_classic_agree() {
        let (g, v, _) = paper_figure1_graph();
        let ego = EgoNetwork::extract(&g, v);
        let classic = truss_decomposition(&ego.graph);
        let bitmap = sd_truss::bitmap_truss_decomposition(&ego.graph);
        for k in 2..=6 {
            assert_eq!(
                maximal_connected_ktrusses(&ego.graph, &classic, k),
                maximal_connected_ktrusses(&ego.graph, &bitmap, k),
                "k={k}"
            );
        }
    }
}
