//! Comp-Div: component-based structural diversity [Huang et al. 2013,
//! Chang et al. 2017].
//!
//! A social context is any connected component of the ego-network with at
//! least `k` vertices; the score is the number of such components. Following
//! Chang et al.'s "each triangle enumerated once" optimization, ego edges for
//! *all* vertices come from one global triangle listing
//! ([`AllEgoNetworks`]), then a per-ego union-find counts components.

use std::time::Instant;

use sd_graph::{CsrGraph, Dsu, VertexId};

use crate::bound::finish_entries;
use crate::config::{DiversityConfig, SearchMetrics, TopRResult};
use crate::egonet::AllEgoNetworks;
use crate::topr::TopRCollector;

/// Component-based structural diversity of every vertex.
pub fn comp_div_scores(g: &CsrGraph, k: u32) -> Vec<u32> {
    let all = AllEgoNetworks::build(g);
    g.vertices().map(|v| comp_div_score_of(g, &all, v, k)).collect()
}

fn comp_div_score_of(g: &CsrGraph, all: &AllEgoNetworks, v: VertexId, k: u32) -> u32 {
    components_of_ego(g, all, v)
        .into_iter()
        .filter(|component| component.len() >= k as usize)
        .count() as u32
}

/// Connected components of `v`'s ego-network (including singleton neighbors),
/// in global ids, ordered (size desc, first vertex asc).
pub fn components_of_ego(g: &CsrGraph, all: &AllEgoNetworks, v: VertexId) -> Vec<Vec<VertexId>> {
    let nbrs = g.neighbors(v);
    // sd-lint: allow(no-panic) ego edges only connect members of N(v)
    let local = |x: VertexId| nbrs.binary_search(&x).expect("ego endpoint in N(v)") as u32;
    let mut dsu = Dsu::new(nbrs.len());
    for &(a, b) in all.ego_edges(v) {
        dsu.union(local(a), local(b));
    }
    let mut root_to_group: Vec<i32> = vec![-1; nbrs.len()];
    let mut groups: Vec<Vec<VertexId>> = Vec::new();
    for (l, &global) in nbrs.iter().enumerate() {
        let root = dsu.find(l as u32) as usize;
        let gi = if root_to_group[root] >= 0 {
            root_to_group[root] as usize
        } else {
            root_to_group[root] = groups.len() as i32;
            groups.push(Vec::new());
            groups.len() - 1
        };
        groups[gi].push(global);
    }
    groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
    groups
}

/// Top-r by component-based structural diversity; contexts are the
/// qualifying (size ≥ k) components.
pub fn comp_div_top_r(g: &CsrGraph, config: &DiversityConfig) -> TopRResult {
    let start = Instant::now();
    let all = AllEgoNetworks::build(g);
    let mut collector = TopRCollector::new(config.r);
    let mut computations = 0usize;
    for v in g.vertices() {
        computations += 1;
        collector.offer(v, comp_div_score_of(g, &all, v, config.k));
    }
    let entries = finish_entries(collector, |v| {
        components_of_ego(g, &all, v)
            .into_iter()
            .filter(|component| component.len() >= config.k as usize)
            .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_figure1_graph;

    /// Section 1's motivating failure: Comp-Div sees H1 (x's + y's, loosely
    /// bridged) as ONE context, so score(v) = 2 at k = 4, not 3.
    #[test]
    fn comp_div_cannot_decompose_h1() {
        let (g, v, _) = paper_figure1_graph();
        let scores = comp_div_scores(&g, 4);
        assert_eq!(scores[v as usize], 2);
    }

    /// "The attempt of adjusting parameter k using any value does not help
    /// the decomposition of H1": for every k ≤ 8, H1 counts as one context.
    #[test]
    fn no_k_decomposes_h1() {
        let (g, v, _) = paper_figure1_graph();
        for k in 2..=8 {
            let scores = comp_div_scores(&g, k);
            assert!(scores[v as usize] <= 2, "k={k}");
        }
    }

    #[test]
    fn singleton_components_count_when_small_k() {
        // Star center: neighbors all isolated in ego; k = 1 counts each.
        let g = sd_graph::GraphBuilder::new().extend_edges([(0, 1), (0, 2), (0, 3)]).build();
        let scores = comp_div_scores(&g, 1);
        assert_eq!(scores[0], 3);
        let scores2 = comp_div_scores(&g, 2);
        assert_eq!(scores2[0], 0);
    }

    #[test]
    fn top_r_orders_by_score() {
        let (g, v, _) = paper_figure1_graph();
        let result = comp_div_top_r(&g, &DiversityConfig { k: 4, r: 3 });
        assert_eq!(result.entries[0].vertex, v);
        assert_eq!(result.entries[0].score, 2);
        assert_eq!(result.entries[0].contexts.len(), 2);
        let scores = result.scores();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }
}
