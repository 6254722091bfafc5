//! The TSD-index (Section 5): a maximum spanning forest per ego-network.
//!
//! Observation 2: only the *membership* of vertices in maximal connected
//! k-trusses matters, so a tree-shaped certificate suffices. Observation 3:
//! an arbitrary spanning tree loses information — it must be the **maximum**
//! spanning forest of the trussness-weighted ego-network `WG_v`. Then for
//! every `k`, the connected components of the forest edges with weight ≥ k
//! coincide with the components of the k-truss of `GN(v)` (the classic
//! threshold property of maximum spanning forests), so one index answers all
//! `(k, r)` queries.
//!
//! Because the filtered forest is acyclic, `score(v)` needs no union-find:
//! it is `#(endpoints touched) − #(edges kept)`.

use std::time::Instant;

use sd_graph::{CsrGraph, Dsu, VertexId};
use sd_truss::truss_decomposition;

use crate::config::{DiversityConfig, TopRResult};
use crate::egonet::EgoNetwork;
use crate::topr::TopRCollector;

/// The TSD-index: for every vertex, the maximum spanning forest of its
/// trussness-weighted ego-network, edges sorted by weight descending.
///
/// ```
/// use sd_graph::GraphBuilder;
/// use sd_core::{paper_figure1_edges, DiversityConfig, TsdIndex};
///
/// let g = GraphBuilder::new().extend_edges(paper_figure1_edges()).build();
/// let index = TsdIndex::build(&g);          // index once …
/// for k in 2..=4 {
///     let top = index.top_r(&g, &DiversityConfig::new(k, 1)?); // … query any (k, r)
///     assert_eq!(top.entries[0].vertex, 0);
/// }
/// # Ok::<(), sd_core::SearchError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TsdIndex {
    /// Per-vertex slice boundaries into the parallel edge arrays; length n+1.
    offsets: Vec<usize>,
    /// Forest edge endpoints in global ids.
    eu: Vec<VertexId>,
    ew: Vec<VertexId>,
    /// Edge weights = trussness inside the owner's ego-network, descending
    /// within each slice.
    weight: Vec<u32>,
}

impl TsdIndex {
    /// Algorithm 5: per vertex, extract the ego-network, truss-decompose it,
    /// and run Kruskal over edges in descending trussness.
    pub fn build(g: &CsrGraph) -> Self {
        Self::build_with_stats(g).0
    }

    /// As [`Self::build`], reporting per-phase timings (Table 4 of the
    /// paper: TSD's per-vertex extraction vs. GCT's one-shot extraction).
    pub fn build_with_stats(g: &CsrGraph) -> (Self, crate::gct::BuildPhaseStats) {
        let mut stats = crate::gct::BuildPhaseStats::default();
        let mut builder = TsdBuilder::new(g.n());
        for v in g.vertices() {
            let t0 = Instant::now();
            let ego = EgoNetwork::extract(g, v);
            stats.extraction += t0.elapsed();
            let t1 = Instant::now();
            let decomposition = truss_decomposition(&ego.graph);
            stats.decomposition += t1.elapsed();
            let t2 = Instant::now();
            builder.push_vertex_decomposed(&ego, &decomposition);
            stats.assembly += t2.elapsed();
        }
        (builder.finish(), stats)
    }

    /// Number of indexed vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total forest edges stored.
    pub fn total_edges(&self) -> usize {
        self.weight.len()
    }

    /// Forest slice of `v`: `(u, w, weight)` triples, weight descending.
    pub fn forest(&self, v: VertexId) -> impl Iterator<Item = (VertexId, VertexId, u32)> + '_ {
        let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
        range.map(move |i| (self.eu[i], self.ew[i], self.weight[i]))
    }

    /// Number of forest edges of `v` with weight ≥ k (prefix length).
    fn prefix_len(&self, v: VertexId, k: u32) -> usize {
        let s = self.offsets[v as usize];
        let e = self.offsets[v as usize + 1];
        // Weights descend; find the first index with weight < k.
        self.weight[s..e].partition_point(|&w| w >= k)
    }

    /// The paper's `s̃core(v) = ⌊#{e ∈ TSD_v : w(e) ≥ k} / (k−1)⌋` bound:
    /// a maximal connected k-truss occupies at least k−1 forest edges.
    pub fn score_upper_bound(&self, v: VertexId, k: u32) -> u32 {
        debug_assert!(k >= 2);
        (self.prefix_len(v, k) as u32) / (k - 1)
    }

    /// Algorithm 6 (counting form): `score(v)` = touched endpoints − kept
    /// edges, because every filtered component is a tree.
    pub fn score(&self, v: VertexId, k: u32, scratch: &mut Vec<VertexId>) -> u32 {
        let s = self.offsets[v as usize];
        let len = self.prefix_len(v, k);
        scratch.clear();
        for i in s..s + len {
            scratch.push(self.eu[i]);
            scratch.push(self.ew[i]);
        }
        scratch.sort_unstable();
        scratch.dedup();
        (scratch.len() - len) as u32
    }

    /// Algorithm 6 (retrieval form): the social contexts of `v`, grouped by
    /// union-find over the filtered forest edges, in global vertex ids, in
    /// [`Dsu::groups`]' order.
    pub fn social_contexts(&self, g: &CsrGraph, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
        let nbrs = g.neighbors(v);
        // sd-lint: allow(no-panic) forest edges only connect members of N(v)
        let local = |x: VertexId| nbrs.binary_search(&x).expect("forest endpoint in N(v)") as u32;
        let s = self.offsets[v as usize];
        let edges = s..s + self.prefix_len(v, k);
        let mut dsu = Dsu::new(nbrs.len());
        for i in edges.clone() {
            dsu.union(local(self.eu[i]), local(self.ew[i]));
        }
        let endpoints = edges.flat_map(|i| [self.eu[i], self.ew[i]]);
        dsu.groups(endpoints.map(|x| (local(x), [x])))
    }

    /// TSD-index-based top-r search (Section 5.2): prune by `s̃core`, then
    /// evaluate exact scores straight from the index, in (bound desc, vertex
    /// asc) order until the collector admits no candidate.
    pub fn top_r(&self, g: &CsrGraph, config: &DiversityConfig) -> TopRResult {
        let start = Instant::now();
        // One bucket of candidates per bound, each filled in vertex order.
        let mut buckets: Vec<Vec<u32>> = Vec::new();
        for v in 0..self.n() as u32 {
            let bound = self.score_upper_bound(v, config.k) as usize;
            if bound >= buckets.len() {
                buckets.resize_with(bound + 1, Vec::new);
            }
            buckets[bound].push(v);
        }
        let order = buckets.iter().enumerate().rev();

        let mut collector = TopRCollector::new(config.r);
        let mut computations = 0usize;
        let mut scratch = Vec::new();
        for (v, bound) in order.flat_map(|(bound, vs)| vs.iter().map(move |&v| (v, bound as u32))) {
            if !collector.admits(v, bound) {
                break;
            }
            let score = self.score(v, config.k, &mut scratch);
            computations += 1;
            collector.offer(v, score);
        }
        collector.finish(computations, start, |v| self.social_contexts(g, v, config.k))
    }

    /// The index's size in bytes in a compact layout, the figure Table 3's
    /// "Index Size" column reports: a 20-byte header, one 4-byte forest
    /// length per vertex, and three 4-byte words `(u, w, weight)` per
    /// forest edge. The TSD-index has no serialized form; the GCT-index is
    /// the one persisted index.
    pub fn index_size_bytes(&self) -> usize {
        20 + self.n() * 4 + self.total_edges() * 12
    }
}

/// Core of Algorithm 5: the maximum spanning forest of the
/// trussness-weighted ego-network, as `(u, w, weight)` triples in the ego's
/// local ids, sorted by weight descending. Kruskal with a counting sort over
/// weights, `O(m_v + τ*)`. The GCT-index compresses this same forest (see
/// `GctBuilder::push_forest`).
pub(crate) fn max_spanning_forest(
    local: &CsrGraph,
    decomposition: &sd_truss::TrussDecomposition,
) -> Vec<(VertexId, VertexId, u32)> {
    let max_w = decomposition.max_trussness;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_w as usize + 1];
    for (e, &t) in decomposition.trussness.iter().enumerate() {
        buckets[t as usize].push(e as u32);
    }
    let mut dsu = Dsu::new(local.n());
    let mut forest = Vec::new();
    for w in (2..=max_w).rev() {
        for &e in &buckets[w as usize] {
            let (a, b) = local.edge(e);
            if dsu.union(a, b) {
                forest.push((a, b, w));
            }
        }
    }
    forest
}

/// Incremental TSD-index construction, one vertex at a time in id order.
struct TsdBuilder {
    offsets: Vec<usize>,
    eu: Vec<VertexId>,
    ew: Vec<VertexId>,
    weight: Vec<u32>,
}

impl TsdBuilder {
    /// Builder for a graph of `n` vertices; vertices must be pushed in id order.
    fn new(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        TsdBuilder { offsets, eu: Vec::new(), ew: Vec::new(), weight: Vec::new() }
    }

    /// Appends the maximum spanning forest of the ego-network's
    /// trussness-weighted graph, from its truss decomposition (which the
    /// caller computes, so it can time that phase separately).
    fn push_vertex_decomposed(
        &mut self,
        ego: &EgoNetwork,
        decomposition: &sd_truss::TrussDecomposition,
    ) {
        for (a, b, weight) in max_spanning_forest(&ego.graph, decomposition) {
            self.eu.push(ego.vertices[a as usize]);
            self.ew.push(ego.vertices[b as usize]);
            self.weight.push(weight);
        }
        self.offsets.push(self.weight.len());
    }

    /// Finishes the index, dropping the arrays' spare capacity: an index
    /// lives as long as its engine, so growth slack would stay with it.
    fn finish(mut self) -> TsdIndex {
        self.offsets.shrink_to_fit();
        self.eu.shrink_to_fit();
        self.ew.shrink_to_fit();
        self.weight.shrink_to_fit();
        TsdIndex { offsets: self.offsets, eu: self.eu, ew: self.ew, weight: self.weight }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{all_scores, online_top_r};
    use crate::paper::paper_figure1_graph;
    use crate::score::social_contexts;

    /// The build keeps no growth slack: every array's capacity is its
    /// length.
    #[test]
    fn builds_keep_no_spare_capacity() {
        let index = TsdIndex::build(&crate::parallel::triangle_strip());
        assert_eq!(index.offsets.capacity(), index.offsets.len(), "offsets");
        assert_eq!(index.eu.capacity(), index.eu.len(), "eu");
        assert_eq!(index.ew.capacity(), index.ew.len(), "ew");
        assert_eq!(index.weight.capacity(), index.weight.len(), "weight");
    }

    #[test]
    fn index_scores_match_online_for_all_k() {
        let (g, _, _) = paper_figure1_graph();
        let index = TsdIndex::build(&g);
        let mut scratch = Vec::new();
        for k in 2..=7 {
            let truth = all_scores(&g, k);
            for v in g.vertices() {
                assert_eq!(index.score(v, k, &mut scratch), truth[v as usize], "v={v}, k={k}");
            }
        }
    }

    #[test]
    fn index_contexts_match_algorithm_2() {
        let (g, _, _) = paper_figure1_graph();
        let index = TsdIndex::build(&g);
        for k in 2..=5 {
            for v in g.vertices() {
                assert_eq!(
                    index.social_contexts(&g, v, k),
                    social_contexts(&g, v, k),
                    "v={v}, k={k}"
                );
            }
        }
    }

    #[test]
    fn upper_bound_dominates() {
        let (g, _, _) = paper_figure1_graph();
        let index = TsdIndex::build(&g);
        let mut scratch = Vec::new();
        for k in 2..=6 {
            for v in g.vertices() {
                assert!(index.score_upper_bound(v, k) >= index.score(v, k, &mut scratch));
            }
        }
    }

    #[test]
    fn top_r_matches_online() {
        let (g, _, _) = paper_figure1_graph();
        let index = TsdIndex::build(&g);
        for k in 2..=5 {
            for r in [1usize, 2, 5, 17] {
                let cfg = DiversityConfig { k, r };
                assert_eq!(
                    index.top_r(&g, &cfg).scores(),
                    online_top_r(&g, &cfg).scores(),
                    "k={k} r={r}"
                );
            }
        }
    }

    #[test]
    fn forest_is_smaller_than_ego() {
        let (g, v, _) = paper_figure1_graph();
        let index = TsdIndex::build(&g);
        // Forest of v has at most d(v) - 1 = 13 edges; ego has 25 edges.
        let f: Vec<_> = index.forest(v).collect();
        assert!(f.len() < g.degree(v));
        // Weights descend.
        assert!(f.windows(2).all(|w| w[0].2 >= w[1].2));
    }
}
