//! The Hybrid competitor (Exp-4, Figure 11): answer materialization.
//!
//! Hybrid precomputes, for every threshold `k`, the complete vertex ranking
//! by structural diversity. A query `(k, r)` then reads the top-r vertices
//! directly and only pays for *social context* computation, which it performs
//! online with Algorithm 2. The paper shows this is competitive at `r = 1`
//! but loses to GCT as `r` grows — context recomputation dominates.
//!
//! It is not a serving engine: the Exp-4 reproduction in `sd-bench` calls
//! it directly.

use std::time::Instant;

use sd_graph::{CsrGraph, VertexId};

use crate::config::{DiversityConfig, SearchMetrics, TopREntry, TopRResult};
use crate::score::social_contexts;
use crate::tsd::TsdIndex;

/// Precomputed per-k rankings of positive-score vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HybridIndex {
    /// `rankings[k]` = `(score, vertex)` pairs sorted (score desc, vertex asc);
    /// only vertices with positive score are stored. Index 0 and 1 are empty.
    rankings: Vec<Vec<(u32, VertexId)>>,
    n: usize,
}

impl HybridIndex {
    /// Builds the rankings by sweeping every vertex's TSD score profile.
    pub fn build(g: &CsrGraph) -> Self {
        let tsd = TsdIndex::build(g);
        Self::build_from_tsd(&tsd)
    }

    /// Builds from an existing TSD-index (shares the expensive decomposition).
    pub fn build_from_tsd(tsd: &TsdIndex) -> Self {
        let n = tsd.n();
        let mut max_k = 2u32;
        let mut profiles = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let p = tsd.score_profile(v);
            if let Some(&(w, _)) = p.first() {
                max_k = max_k.max(w);
            }
            profiles.push(p);
        }
        let mut rankings: Vec<Vec<(u32, VertexId)>> = vec![Vec::new(); max_k as usize + 1];
        for (v, profile) in profiles.iter().enumerate() {
            // profile = [(w1, s1), (w2, s2), ...] with w descending; the
            // score at threshold k is the entry with the smallest w ≥ k.
            let Some(&(w1, _)) = profile.first() else { continue };
            let mut idx = 0usize;
            for k in (2..=w1).rev() {
                while idx + 1 < profile.len() && profile[idx + 1].0 >= k {
                    idx += 1;
                }
                let score = profile[idx].1;
                if score > 0 {
                    rankings[k as usize].push((score, v as VertexId));
                }
            }
        }
        for ranking in &mut rankings {
            ranking.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        }
        HybridIndex { rankings, n }
    }

    /// Vertex count of the graph the rankings were materialized from.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Size in bytes of the rankings in a compact encoding: a 20-byte
    /// header, then per level an 8-byte length and 8 bytes per `(score,
    /// vertex)` entry (the Hybrid column of the paper's index-size
    /// comparison).
    pub fn index_size_bytes(&self) -> usize {
        20 + self.rankings.iter().map(|r| 8 + r.len() * 8).sum::<usize>()
    }

    /// `score(v)` at threshold `k` per the materialized rankings (0 when the
    /// vertex is absent).
    pub fn score(&self, v: VertexId, k: u32) -> u32 {
        self.rankings
            .get(k as usize)
            .and_then(|r| r.iter().find(|&&(_, u)| u == v))
            .map(|&(s, _)| s)
            .unwrap_or(0)
    }

    /// Query: read the precomputed top-r, then compute each winner's social
    /// contexts online (Algorithm 2) — the cost the paper measures in
    /// Figure 11.
    pub fn top_r(&self, g: &CsrGraph, config: &DiversityConfig) -> TopRResult {
        let start = Instant::now();
        let ranking = self.rankings.get(config.k as usize).map(|r| r.as_slice()).unwrap_or(&[]);
        let mut picks: Vec<(u32, VertexId)> = ranking.iter().take(config.r).copied().collect();
        // Pad with zero-score vertices when r exceeds the positive-score
        // population, matching the online algorithm's output size.
        if picks.len() < config.r.min(self.n) {
            let mut present = vec![false; self.n];
            for &(_, v) in &picks {
                present[v as usize] = true;
            }
            for v in 0..self.n as u32 {
                if picks.len() >= config.r.min(self.n) {
                    break;
                }
                if !present[v as usize] {
                    picks.push((0, v));
                }
            }
        }
        let mut computations = 0usize;
        let entries: Vec<TopREntry> = picks
            .into_iter()
            .map(|(score, vertex)| {
                computations += 1;
                TopREntry { vertex, score, contexts: social_contexts(g, vertex, config.k) }
            })
            .collect();
        TopRResult {
            entries,
            metrics: SearchMetrics {
                score_computations: computations,
                elapsed: start.elapsed(),
                engine: "",
            },
        }
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
}
