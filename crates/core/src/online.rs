//! Online search (Algorithm 3) — the `baseline` method of the experiments.
//!
//! Computes `score(v)` for *every* vertex with Algorithm 2 and keeps the top
//! `r`. `O(ρ(m + T))` time (Theorem 2), `O(m)` space. Its search space is
//! always `n`, which is exactly what Table 2's `baseline` column reports.

use std::time::Instant;

use sd_graph::CsrGraph;

use crate::config::{DiversityConfig, TopRResult};
use crate::score::{score, social_contexts};
use crate::topr::TopRCollector;

/// Algorithm 3: full scan of all vertices. Crate-internal: reachable
/// through `OnlineEngine`.
pub(crate) fn online_top_r(g: &CsrGraph, config: &DiversityConfig) -> TopRResult {
    let start = Instant::now();
    let mut collector = TopRCollector::new(config.r);
    for v in g.vertices() {
        collector.offer(v, score(g, v, config.k));
    }
    collector.finish(g.n(), start, |v| social_contexts(g, v, config.k))
}

/// Scores of every vertex (the full structural diversity profile); used by
/// the effectiveness experiments (Figure 13's score-interval groups) and as
/// the ground truth in tests.
pub fn all_scores(g: &CsrGraph, k: u32) -> Vec<u32> {
    g.vertices().map(|v| score(g, v, k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_figure1_graph;

    /// Example 2: top-1 at k = 4 is v with score 3, after 17 computations.
    #[test]
    fn paper_example_2() {
        let (g, v, _) = paper_figure1_graph();
        let result = online_top_r(&g, &DiversityConfig { k: 4, r: 1 });
        assert_eq!(result.entries.len(), 1);
        assert_eq!(result.entries[0].vertex, v);
        assert_eq!(result.entries[0].score, 3);
        assert_eq!(result.entries[0].contexts.len(), 3);
        assert_eq!(result.metrics.score_computations, 17);
    }

    #[test]
    fn r_larger_than_n_returns_all() {
        let (g, _, _) = paper_figure1_graph();
        let result = online_top_r(&g, &DiversityConfig { k: 4, r: 100 });
        assert_eq!(result.entries.len(), g.n());
        // Sorted by score desc.
        let scores = result.scores();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn all_scores_matches_entries() {
        let (g, _, _) = paper_figure1_graph();
        let scores = all_scores(&g, 4);
        let result = online_top_r(&g, &DiversityConfig { k: 4, r: g.n() });
        for e in &result.entries {
            assert_eq!(scores[e.vertex as usize], e.score);
        }
    }
}
