//! The Hybrid competitor (Exp-4, Figure 11): answer materialization.
//!
//! Hybrid keeps, for every threshold `k`, the complete vertex ranking by
//! structural diversity: the GCT-index's per-k score order, which it shares
//! with [`GctIndex::top_r`]. A query `(k, r)` reads the first r vertices of
//! that order, through the same function GCT's query does, zero fill
//! included, and then computes each one's *social contexts* online with
//! Algorithm 2, where GCT reads its stored ones. The paper shows this is
//! competitive at `r = 1` but loses to GCT as `r` grows — context
//! recomputation dominates.
//!
//! It is not a serving engine: the Exp-4 reproduction in `sd-bench` calls
//! it directly.

use sd_graph::{CsrGraph, VertexId};

use crate::config::{DiversityConfig, TopRResult};
use crate::gct::{GctIndex, ScoreOrder};
use crate::score::social_contexts;

/// The per-k rankings of positive-score vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HybridIndex {
    /// The GCT-index's score order.
    order: ScoreOrder,
    n: usize,
}

impl HybridIndex {
    /// Builds the GCT-index of `g` and keeps only its score order.
    pub fn build(g: &CsrGraph) -> Self {
        Self::from_gct(&GctIndex::build(g))
    }

    /// The score order of an existing GCT-index (shares its build).
    pub fn from_gct(gct: &GctIndex) -> Self {
        HybridIndex { order: gct.order().clone(), n: gct.n() }
    }

    /// Vertex count of the graph the rankings were materialized from.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `score(v)` at threshold `k` per the materialized rankings (0 when the
    /// vertex is absent).
    pub fn score(&self, v: VertexId, k: u32) -> u32 {
        self.order.score(v, k)
    }

    /// Query: read the precomputed top-r, then compute each winner's social
    /// contexts online (Algorithm 2) — the cost the paper measures in
    /// Figure 11.
    pub fn top_r(&self, g: &CsrGraph, config: &DiversityConfig) -> TopRResult {
        self.order.top_r(self.n, config, |v, k| social_contexts(g, v, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{all_scores, online_top_r};
    use crate::paper::paper_figure1_graph;

    #[test]
    fn rankings_match_online_scores() {
        let (g, _, _) = paper_figure1_graph();
        let hybrid = HybridIndex::build(&g);
        for k in 2..=6 {
            let truth = all_scores(&g, k);
            for v in g.vertices() {
                assert_eq!(hybrid.score(v, k), truth[v as usize], "v={v} k={k}");
            }
        }
    }

    #[test]
    fn top_r_matches_online() {
        let (g, _, _) = paper_figure1_graph();
        let hybrid = HybridIndex::build(&g);
        for k in 2..=5 {
            for r in [1usize, 3, 17] {
                let cfg = DiversityConfig { k, r };
                assert_eq!(
                    hybrid.top_r(&g, &cfg).scores(),
                    online_top_r(&g, &cfg).scores(),
                    "k={k} r={r}"
                );
            }
        }
    }

    #[test]
    fn contexts_match_online_for_top1() {
        let (g, _, _) = paper_figure1_graph();
        let hybrid = HybridIndex::build(&g);
        let cfg = DiversityConfig { k: 4, r: 1 };
        let a = hybrid.top_r(&g, &cfg);
        let b = online_top_r(&g, &cfg);
        assert_eq!(a.entries[0].contexts, b.entries[0].contexts);
    }

    /// Hybrid reads GCT's order: its vertices and scores are GCT's at every
    /// r, zero fill included, and only the contexts are recomputed.
    #[test]
    fn answers_equal_gct_over_a_shared_build() {
        let g = crate::parallel::triangle_strip();
        let gct = GctIndex::build(&g);
        let hybrid = HybridIndex::from_gct(&gct);
        assert_eq!(hybrid, HybridIndex::build(&g));
        for k in 2..=5 {
            for r in [1, 100, g.n()] {
                let cfg = DiversityConfig { k, r };
                let (h, q) = (hybrid.top_r(&g, &cfg), gct.top_r(&cfg));
                assert_eq!(h.entries, q.entries, "k={k} r={r}");
                assert_eq!(h.metrics.score_computations, q.metrics.score_computations);
            }
        }
    }
}
