//! Core-Div: core-based structural diversity [Huang et al., VLDB J. 2015].
//!
//! A social context is a maximal connected k-core of the ego-network (every
//! member has degree ≥ k within it); the score is the number of such
//! components.

use std::time::Instant;

use sd_graph::{CsrGraph, VertexId};
use sd_truss::maximal_connected_kcores;

use crate::config::{DiversityConfig, TopRResult};
use crate::egonet::{AllEgoNetworks, EgoNetwork};
use crate::topr::TopRCollector;

/// Maximal connected k-cores of `v`'s ego-network, in global ids.
pub fn core_div_contexts(g: &CsrGraph, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
    let ego = EgoNetwork::extract(g, v);
    core_div_contexts_of_ego(&ego, k)
}

fn core_div_contexts_of_ego(ego: &EgoNetwork, k: u32) -> Vec<Vec<VertexId>> {
    maximal_connected_kcores(&ego.graph, k)
        .into_iter()
        .map(|component| ego.to_global(&component))
        .collect()
}

/// Core-based structural diversity of every vertex (shares one global
/// triangle listing for ego extraction).
pub fn core_div_scores(g: &CsrGraph, k: u32) -> Vec<u32> {
    let all = AllEgoNetworks::build(g);
    g.vertices()
        .map(|v| {
            let ego = all.ego_graph(g, v);
            core_div_contexts_of_ego(&ego, k).len() as u32
        })
        .collect()
}

/// Top-r by core-based structural diversity.
pub fn core_div_top_r(g: &CsrGraph, config: &DiversityConfig) -> TopRResult {
    let start = Instant::now();
    let all = AllEgoNetworks::build(g);
    let mut collector = TopRCollector::new(config.r);
    for v in g.vertices() {
        let ego = all.ego_graph(g, v);
        collector.offer(v, core_div_contexts_of_ego(&ego, config.k).len() as u32);
    }
    collector.finish(g.n(), start, |v| core_div_contexts(g, v, config.k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_figure1_graph;

    /// Section 1: "For 1 ≤ k ≤ 3, H1 is one maximal connected k-core …
    /// for k ≥ 4, H1 is no longer counted": so Core-Div gives score(v) = 2
    /// at k = 3 (H1 + the octahedron) and 1 at k = 4 (octahedron only).
    #[test]
    fn core_div_on_running_example() {
        let (g, v, _) = paper_figure1_graph();
        let s3 = core_div_scores(&g, 3);
        assert_eq!(s3[v as usize], 2);
        let s4 = core_div_scores(&g, 4);
        assert_eq!(s4[v as usize], 1, "only the octahedron is a 4-core");
    }

    #[test]
    fn contexts_match_scores() {
        let (g, v, _) = paper_figure1_graph();
        for k in 1..=4 {
            let contexts = core_div_contexts(&g, v, k);
            let scores = core_div_scores(&g, k);
            assert_eq!(contexts.len(), scores[v as usize] as usize, "k={k}");
        }
    }

    #[test]
    fn top_r_returns_v_first() {
        let (g, v, _) = paper_figure1_graph();
        let result = core_div_top_r(&g, &DiversityConfig { k: 3, r: 1 });
        assert_eq!(result.entries[0].vertex, v);
        assert_eq!(result.entries[0].score, 2);
    }
}
