//! The efficient top-r framework (Section 4): graph sparsification
//! (Property 1), the `scorē(v)` upper bound (Lemma 2), and the
//! early-terminating search (Algorithm 4) — the `bound` method of the
//! experiments.

use std::time::Instant;

use sd_graph::triangles::vertex_triangle_counts;
use sd_graph::{CsrGraph, GraphBuilder};
use sd_truss::truss_decomposition;

use crate::config::{DiversityConfig, TopRResult};
use crate::egonet::EgoNetwork;
use crate::score::social_contexts_of_ego;
use crate::topr::TopRCollector;

/// Outcome of graph sparsification, for the pruning-power reports
/// (Section 4.1 quotes ~45% of edges removed at k = 5).
#[derive(Clone, Debug)]
pub struct Sparsified {
    /// The reduced graph `G'`. The vertex set (and ids) are preserved;
    /// vertices that lost all edges simply become isolated.
    pub graph: CsrGraph,
    /// Edges removed (those with `τ_G(e) ≤ k`).
    pub edges_removed: usize,
    /// Vertices isolated by the removal.
    pub vertices_isolated: usize,
}

/// Property 1: an edge with `τ_G(e) < k + 1` belongs to no maximal connected
/// k-truss of any ego-network, so dropping it (and, transitively, neighbors
/// connected only through such edges) never changes any answer.
pub fn sparsify(g: &CsrGraph, k: u32) -> Sparsified {
    let decomposition = truss_decomposition(g);
    let mut builder = GraphBuilder::with_min_vertices(g.n());
    let mut kept = 0usize;
    for (e, &(u, v)) in g.edges().iter().enumerate() {
        if decomposition.trussness[e] > k {
            builder.add_edge(u, v);
            kept += 1;
        }
    }
    let graph = builder.extend_edges([]).build();
    let vertices_isolated =
        g.vertices().filter(|&v| g.degree(v) > 0 && graph.degree(v) == 0).count();
    Sparsified { graph, edges_removed: g.m() - kept, vertices_isolated }
}

/// Lemma 2: `scorē(v) = min(⌊d(v)/k⌋, ⌊2·m_v / (k(k−1))⌋)` where `m_v` is the
/// ego-network edge count — the smallest maximal connected k-truss is the
/// k-clique with `k` vertices and `k(k−1)/2` edges.
pub fn upper_bounds(g: &CsrGraph, k: u32) -> Vec<u32> {
    debug_assert!(k >= 2);
    let m_v = vertex_triangle_counts(g);
    g.vertices()
        .map(|v| {
            let by_vertices = g.degree(v) as u32 / k;
            let by_edges = 2 * m_v[v as usize] / (k * (k - 1));
            by_vertices.min(by_edges)
        })
        .collect()
}

/// Algorithm 4: sparsify, sort by upper bound descending, and stop as soon
/// as the best remaining bound cannot beat the current top-r floor.
/// Crate-internal: reachable through `BoundEngine`. A vertex tied with the
/// r-th score and left unvisited is not returned, so tied members may
/// differ from Online's.
pub(crate) fn bound_top_r(g: &CsrGraph, config: &DiversityConfig) -> TopRResult {
    let start = Instant::now();
    let reduced = sparsify(g, config.k).graph;
    let bounds = upper_bounds(&reduced, config.k);
    let mut order: Vec<u32> = (0..reduced.n() as u32).collect();
    order.sort_unstable_by(|&a, &b| bounds[b as usize].cmp(&bounds[a as usize]));

    let mut collector = TopRCollector::new(config.r);
    let mut computations = 0usize;
    let mut context_cache: Vec<(u32, Vec<Vec<u32>>)> = Vec::new();
    for &v in &order {
        let ub = bounds[v as usize];
        if let Some(min_score) = collector.min_score() {
            if ub <= min_score {
                break; // Early termination (Algorithm 4, lines 8–9).
            }
        }
        // Property 1 guarantees the ego-network in G' yields the same social
        // contexts as in G.
        let ego = EgoNetwork::extract(&reduced, v);
        let contexts = social_contexts_of_ego(&ego, config.k);
        computations += 1;
        if collector.offer(v, contexts.len() as u32) {
            context_cache.push((v, contexts));
        }
    }

    collector.finish(computations, start, |v| {
        context_cache
            .iter()
            .rev()
            .find(|(u, _)| *u == v)
            .map(|(_, c)| c.clone())
            .unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{all_scores, online_top_r};
    use crate::paper::paper_figure1_graph;

    #[test]
    fn bounds_dominate_scores() {
        let (g, _, _) = paper_figure1_graph();
        for k in 2..=6 {
            let ub = upper_bounds(&g, k);
            let scores = all_scores(&g, k);
            for v in g.vertices() {
                assert!(
                    ub[v as usize] >= scores[v as usize],
                    "v={v} k={k}: bound {} < score {}",
                    ub[v as usize],
                    scores[v as usize]
                );
            }
        }
    }

    #[test]
    fn sparsification_preserves_scores() {
        let (g, _, _) = paper_figure1_graph();
        for k in 2..=5 {
            let sp = sparsify(&g, k);
            assert_eq!(sp.graph.n(), g.n());
            assert_eq!(all_scores(&sp.graph, k), all_scores(&g, k), "k={k}");
        }
    }

    #[test]
    fn sparsification_removes_low_truss_edges() {
        let (g, _, _) = paper_figure1_graph();
        let sp = sparsify(&g, 4);
        // s1/s2 pendant edges (trussness 2), the x2-y1/x4-y1 bridges and all
        // their trussness <= 4 company disappear.
        assert!(sp.edges_removed > 0);
        assert!(sp.graph.m() < g.m());
    }

    /// Example 3: on Figure 1 with k=4, r=1, the bound framework computes
    /// the score of exactly one vertex.
    #[test]
    fn paper_example_3_prunes_to_one_computation() {
        let (g, v, _) = paper_figure1_graph();
        let result = bound_top_r(&g, &DiversityConfig { k: 4, r: 1 });
        assert_eq!(result.entries[0].vertex, v);
        assert_eq!(result.entries[0].score, 3);
        assert_eq!(result.metrics.score_computations, 1, "only v itself should be evaluated");
    }

    #[test]
    fn matches_online_scores() {
        let (g, _, _) = paper_figure1_graph();
        for k in 2..=5 {
            for r in [1usize, 3, 17] {
                let cfg = DiversityConfig { k, r };
                let a = online_top_r(&g, &cfg);
                let b = bound_top_r(&g, &cfg);
                assert_eq!(a.scores(), b.scores(), "k={k} r={r}");
            }
        }
    }

    #[test]
    fn bound_contexts_match_online() {
        let (g, _, _) = paper_figure1_graph();
        let cfg = DiversityConfig { k: 4, r: 1 };
        let a = online_top_r(&g, &cfg);
        let b = bound_top_r(&g, &cfg);
        assert_eq!(a.entries[0].contexts, b.entries[0].contexts);
    }
}
