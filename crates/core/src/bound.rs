//! The efficient top-r framework (Section 4): graph sparsification
//! (Property 1), the `scorē(v)` upper bound (Lemma 2), and the
//! early-terminating search (Algorithm 4) — the `bound` method of the
//! experiments.

use std::time::Instant;

use sd_graph::triangles::vertex_triangle_counts;
use sd_graph::{CsrGraph, GraphBuilder};
use sd_truss::truss_decomposition;

use crate::config::{DiversityConfig, SearchMetrics, TopREntry, TopRResult};
use crate::egonet::EgoNetwork;
use crate::score::{social_contexts_of_ego, EgoDecomposition};
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

/// Which of Algorithm 4's two pruning techniques to enable — the ablation
/// handles DESIGN.md §6 calls for. Defaults to both, i.e. the full
/// Algorithm 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundOptions {
    /// Apply Property 1 graph sparsification first.
    pub sparsify: bool,
    /// Order vertices by the Lemma 2 bound and early-terminate.
    pub upper_bound: bool,
}

impl Default for BoundOptions {
    fn default() -> Self {
        BoundOptions { sparsify: true, upper_bound: true }
    }
}

/// Algorithm 4: sparsify, sort by upper bound descending, and stop as soon
/// as the best remaining bound cannot beat the current top-r floor, with
/// the pruning techniques individually toggleable. Crate-internal:
/// reachable through `BoundEngine` (or, for one release, the `compat`
/// wrappers).
pub(crate) fn bound_top_r_with(
    g: &CsrGraph,
    config: &DiversityConfig,
    options: BoundOptions,
) -> TopRResult {
    let start = Instant::now();
    let sparsified;
    let reduced = if options.sparsify {
        sparsified = sparsify(g, config.k);
        &sparsified.graph
    } else {
        g
    };

    let bounds = if options.upper_bound {
        upper_bounds(reduced, config.k)
    } else {
        // Degenerate bound: never prunes, never terminates early.
        vec![u32::MAX; reduced.n()]
    };
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
        let ego = EgoNetwork::extract(reduced, v);
        let contexts = social_contexts_of_ego(&ego, config.k, EgoDecomposition::Classic);
        computations += 1;
        if collector.offer(v, contexts.len() as u32) {
            context_cache.push((v, contexts));
        }
    }

    let entries = finish_entries(collector, |v| {
        context_cache
            .iter()
            .rev()
            .find(|(u, _)| *u == v)
            .map(|(_, c)| c.clone())
            .unwrap_or_default()
    });
    TopRResult {
        entries,
        metrics: SearchMetrics {
            score_computations: computations,
            elapsed: start.elapsed(),
            engine: "",
        },
    }
}

/// Materializes collector output into entries with contexts supplied by `f`.
pub(crate) fn finish_entries(
    collector: TopRCollector,
    mut f: impl FnMut(u32) -> Vec<Vec<u32>>,
) -> Vec<TopREntry> {
    collector
        .into_sorted()
        .into_iter()
        .map(|(vertex, score)| TopREntry { vertex, score, contexts: f(vertex) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{all_scores, online_top_r};
    use crate::paper::paper_figure1_graph;

    fn bound_top_r(g: &CsrGraph, config: &DiversityConfig) -> TopRResult {
        bound_top_r_with(g, config, BoundOptions::default())
    }

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

    /// Every combination of the two pruning techniques yields the same
    /// answer; pruning only changes how much work is done.
    #[test]
    fn ablation_combinations_agree() {
        let (g, _, _) = paper_figure1_graph();
        let cfg = DiversityConfig { k: 4, r: 2 };
        let reference = online_top_r(&g, &cfg);
        let mut search_spaces = Vec::new();
        for sparsify in [false, true] {
            for upper_bound in [false, true] {
                let options = BoundOptions { sparsify, upper_bound };
                let result = bound_top_r_with(&g, &cfg, options);
                assert_eq!(result.scores(), reference.scores(), "{options:?}");
                search_spaces.push((options, result.metrics.score_computations));
            }
        }
        // The no-pruning variant evaluates everything; the full Algorithm 4
        // evaluates strictly less on this fixture.
        assert_eq!(search_spaces[0].1, g.n());
        assert!(search_spaces[3].1 < search_spaces[0].1);
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
