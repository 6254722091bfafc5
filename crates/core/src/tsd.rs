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

use std::ops::Range;
use std::time::Instant;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use sd_graph::{CsrGraph, Dsu, VertexId};
use sd_truss::truss_decomposition;

use crate::bound::finish_entries;
use crate::config::{DiversityConfig, SearchMetrics, TopRResult};
use crate::egonet::EgoNetwork;
use crate::error::DecodeError;
use crate::topr::TopRCollector;

/// Serialized-format magic ("TSD1").
const MAGIC: u32 = 0x5453_4431;

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
        let mut builder = TsdBuilder::new(g.n());
        for v in g.vertices() {
            let ego = EgoNetwork::extract(g, v);
            builder.push_vertex(&ego);
        }
        builder.finish()
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
    /// union-find over the filtered forest edges, in global vertex ids,
    /// ordered (size desc, first vertex asc) like Algorithm 2's output.
    pub fn social_contexts(&self, g: &CsrGraph, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
        self.social_contexts_among(g.neighbors(v), v, k)
    }

    /// [`Self::social_contexts`] given `v`'s sorted neighbor list `nbrs`
    /// (which the forest's endpoints index into).
    pub(crate) fn social_contexts_among(
        &self,
        nbrs: &[VertexId],
        v: VertexId,
        k: u32,
    ) -> Vec<Vec<VertexId>> {
        // sd-lint: allow(no-panic) forest edges only connect members of N(v)
        let local = |x: VertexId| nbrs.binary_search(&x).expect("forest endpoint in N(v)");
        let s = self.offsets[v as usize];
        let len = self.prefix_len(v, k);
        let mut dsu = Dsu::new(nbrs.len());
        let mut touched = vec![false; nbrs.len()];
        for i in s..s + len {
            let (a, b) = (local(self.eu[i]), local(self.ew[i]));
            dsu.union(a as u32, b as u32);
            touched[a] = true;
            touched[b] = true;
        }
        let mut root_to_group: Vec<i32> = vec![-1; nbrs.len()];
        let mut groups: Vec<Vec<VertexId>> = Vec::new();
        for (l, &t) in touched.iter().enumerate() {
            if !t {
                continue;
            }
            let root = dsu.find(l as u32) as usize;
            let gi = if root_to_group[root] >= 0 {
                root_to_group[root] as usize
            } else {
                root_to_group[root] = groups.len() as i32;
                groups.push(Vec::new());
                groups.len() - 1
            };
            groups[gi].push(nbrs[l]);
        }
        groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        groups
    }

    /// TSD-index-based top-r search (Section 5.2): prune by `s̃core`, then
    /// evaluate exact scores straight from the index.
    pub fn top_r(&self, g: &CsrGraph, config: &DiversityConfig) -> TopRResult {
        let start = Instant::now();
        let n = self.n();
        let mut bounds: Vec<u32> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            bounds.push(self.score_upper_bound(v, config.k));
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| bounds[b as usize].cmp(&bounds[a as usize]));

        let mut collector = TopRCollector::new(config.r);
        let mut computations = 0usize;
        let mut scratch = Vec::new();
        for &v in &order {
            if let Some(min_score) = collector.min_score() {
                if bounds[v as usize] <= min_score {
                    break;
                }
            }
            let score = self.score(v, config.k, &mut scratch);
            computations += 1;
            collector.offer(v, score);
        }
        let entries = finish_entries(collector, |v| self.social_contexts(g, v, config.k));
        TopRResult {
            entries,
            metrics: SearchMetrics {
                score_computations: computations,
                elapsed: start.elapsed(),
                engine: "",
            },
        }
    }

    /// `score(v, k)` for every distinct threshold at which it changes:
    /// returns descending `(k, score)` pairs; `score(v, q) = score` for the
    /// entry with the smallest `k ≥ q`... i.e. piecewise-constant between
    /// distinct forest weights. Used by the Exp-4 rankings builder.
    pub fn score_profile(&self, v: VertexId) -> Vec<(u32, u32)> {
        let s = self.offsets[v as usize];
        let e = self.offsets[v as usize + 1];
        let mut profile = Vec::new();
        let mut endpoints: Vec<VertexId> = Vec::new();
        let mut i = s;
        while i < e {
            let w = self.weight[i];
            let mut j = i;
            while j < e && self.weight[j] == w {
                endpoints.push(self.eu[j]);
                endpoints.push(self.ew[j]);
                j += 1;
            }
            let mut uniq = endpoints.clone();
            uniq.sort_unstable();
            uniq.dedup();
            let edges = j - s;
            profile.push((w, (uniq.len() - edges) as u32));
            i = j;
        }
        profile
    }

    /// Serializes to a compact binary blob (used for index-size accounting
    /// in Table 3 and for persistence).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.offsets.len() * 4 + self.weight.len() * 12);
        buf.put_u32_le(MAGIC);
        buf.put_u64_le(self.n() as u64);
        buf.put_u64_le(self.total_edges() as u64);
        for v in 0..self.n() {
            let count = self.offsets[v + 1] - self.offsets[v];
            buf.put_u32_le(count as u32);
        }
        for i in 0..self.total_edges() {
            buf.put_u32_le(self.eu[i]);
            buf.put_u32_le(self.ew[i]);
            buf.put_u32_le(self.weight[i]);
        }
        buf.freeze()
    }

    /// Deserializes a blob produced by [`Self::to_bytes`]. A forest whose
    /// weights are not non-increasing fails with
    /// [`DecodeError::InvalidEntry`]; forest endpoints are checked against
    /// the graph when the index is attached to one on import.
    pub fn from_bytes(mut data: Bytes) -> Result<Self, DecodeError> {
        if data.remaining() < 20 {
            return Err(DecodeError::Truncated);
        }
        if data.get_u32_le() != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let n = data.get_u64_le() as usize;
        let total = data.get_u64_le() as usize;
        // Checked arithmetic: a hostile header must not wrap the length
        // checks and trigger a huge allocation.
        let need_counts = n.checked_mul(4).ok_or(DecodeError::Truncated)?;
        if data.remaining() < need_counts {
            return Err(DecodeError::Truncated);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for _ in 0..n {
            acc += data.get_u32_le() as usize;
            offsets.push(acc);
        }
        let need_edges = total.checked_mul(12).ok_or(DecodeError::Truncated)?;
        if acc != total || data.remaining() < need_edges {
            return Err(DecodeError::Truncated);
        }
        let (mut eu, mut ew, mut weight) =
            (Vec::with_capacity(total), Vec::with_capacity(total), Vec::with_capacity(total));
        for _ in 0..total {
            eu.push(data.get_u32_le());
            ew.push(data.get_u32_le());
            weight.push(data.get_u32_le());
        }
        let descending = offsets.windows(2).all(|o| weight[o[0]..o[1]].is_sorted_by(|a, b| a >= b));
        if !descending {
            return Err(DecodeError::InvalidEntry);
        }
        Ok(TsdIndex { offsets, eu, ew, weight })
    }

    /// Whether every vertex's forest is a forest over its neighborhood in
    /// `g`: each edge joins two distinct members of `N(v)` and closes no
    /// cycle (a self-loop or a cycle fails the union). A decoded index is
    /// checked against its graph before it serves, since a query panics on
    /// the first endpoint outside `N(v)`.
    pub(crate) fn forests_fit(&self, g: &CsrGraph) -> bool {
        (0..self.n() as VertexId).all(|v| {
            let nbrs = g.neighbors(v);
            let mut dsu = Dsu::new(nbrs.len());
            self.forest(v).all(|(a, b, _)| match (nbrs.binary_search(&a), nbrs.binary_search(&b)) {
                (Ok(a), Ok(b)) => dsu.union(a as u32, b as u32),
                _ => false,
            })
        })
    }

    /// Serialized size in bytes (Table 3's "Index Size" column).
    pub fn index_size_bytes(&self) -> usize {
        20 + self.n() * 4 + self.total_edges() * 12
    }

    /// This index over `n ≥ self.n()` vertices with the forest of
    /// `repaired[i]` (ascending) replaced by `patch`'s forest `i`. Every
    /// other vertex keeps its forest — runs between repaired vertices are
    /// copied contiguously — and vertices new to this index are empty.
    pub(crate) fn splice(&self, n: usize, repaired: &[VertexId], patch: &TsdIndex) -> TsdIndex {
        let mut out = TsdBuilder::new(n);
        let edges = self.total_edges() + patch.total_edges();
        out.eu.reserve(edges);
        out.ew.reserve(edges);
        out.weight.reserve(edges);
        let mut next = 0usize;
        for (i, &v) in repaired.iter().enumerate() {
            out.extend_from(self, next..v as usize);
            out.extend_from(patch, i..i + 1);
            next = v as usize + 1;
        }
        out.extend_from(self, next..n);
        out.finish()
    }

    /// The parts' forests in order, as one index over all their vertices:
    /// how the pooled build ([`crate::parallel`]) joins its chunks. Each
    /// part is freed as soon as it is copied.
    pub(crate) fn concat(parts: Vec<TsdIndex>) -> TsdIndex {
        let mut out = TsdBuilder::new(parts.iter().map(TsdIndex::n).sum());
        let edges = parts.iter().map(TsdIndex::total_edges).sum();
        out.eu.reserve_exact(edges);
        out.ew.reserve_exact(edges);
        out.weight.reserve_exact(edges);
        for part in parts {
            out.extend_from(&part, 0..part.n());
        }
        out.finish()
    }
}

/// Core of Algorithm 5: the maximum spanning forest of the
/// trussness-weighted ego-network, as `(u, w, weight)` triples in the ego's
/// local ids, sorted by weight descending. Kruskal with a counting sort over
/// weights, `O(m_v + τ*)`. The GCT-index compresses this same forest (see
/// `GctBuilder::push_forest`), so one decomposition feeds both indexes.
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

/// Incremental TSD-index construction; also reused by the GCT builder's
/// benchmarking harness to time the forest phase separately.
pub struct TsdBuilder {
    offsets: Vec<usize>,
    eu: Vec<VertexId>,
    ew: Vec<VertexId>,
    weight: Vec<u32>,
}

impl TsdBuilder {
    /// Builder for a graph of `n` vertices; vertices must be pushed in id order.
    pub fn new(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        TsdBuilder { offsets, eu: Vec::new(), ew: Vec::new(), weight: Vec::new() }
    }

    /// Computes the maximum spanning forest of the ego-network's
    /// trussness-weighted graph and appends it.
    pub fn push_vertex(&mut self, ego: &EgoNetwork) {
        let decomposition = truss_decomposition(&ego.graph);
        self.push_vertex_decomposed(ego, &decomposition);
    }

    /// As [`Self::push_vertex`] with a precomputed decomposition (lets the
    /// caller time or parallelize the decomposition phase separately).
    pub fn push_vertex_decomposed(
        &mut self,
        ego: &EgoNetwork,
        decomposition: &sd_truss::TrussDecomposition,
    ) {
        self.push_local_forest(ego, &max_spanning_forest(&ego.graph, decomposition));
    }

    /// Appends the forest of the vertex whose ego-network is `ego`, given
    /// in the ego's local ids ([`max_spanning_forest`]).
    pub(crate) fn push_local_forest(&mut self, ego: &EgoNetwork, forest: &[(u32, u32, u32)]) {
        for &(a, b, weight) in forest {
            self.eu.push(ego.vertices[a as usize]);
            self.ew.push(ego.vertices[b as usize]);
            self.weight.push(weight);
        }
        self.offsets.push(self.weight.len());
    }

    /// Appends the forests of `vertices` from `index` with one contiguous
    /// copy per array; vertices at or past `index.n()` get empty forests
    /// (new, isolated vertices).
    pub(crate) fn extend_from(&mut self, index: &TsdIndex, vertices: Range<usize>) {
        let kept = vertices.start.min(index.n())..vertices.end.min(index.n());
        let (first, last) = (index.offsets[kept.start], index.offsets[kept.end]);
        let base = self.weight.len();
        self.eu.extend_from_slice(&index.eu[first..last]);
        self.ew.extend_from_slice(&index.ew[first..last]);
        self.weight.extend_from_slice(&index.weight[first..last]);
        self.offsets
            .extend(index.offsets[kept.start + 1..=kept.end].iter().map(|&o| o - first + base));
        let end = self.weight.len();
        self.offsets.resize(self.offsets.len() + vertices.len() - kept.len(), end);
    }

    /// Finishes the index, dropping the arrays' spare capacity: an index
    /// lives as long as its epoch, so growth slack would stay with it.
    pub fn finish(mut self) -> TsdIndex {
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

    /// Neither the sequential nor the pooled build keeps growth slack:
    /// every array's capacity is its length.
    #[test]
    fn builds_keep_no_spare_capacity() {
        let g = crate::parallel::triangle_strip();
        let pooled = crate::parallel::build_tsd_pooled(&crate::pool::WorkerPool::new(2), &g);
        for (index, how) in [(TsdIndex::build(&g), "sequential"), (pooled, "pooled")] {
            assert_eq!(index.offsets.capacity(), index.offsets.len(), "{how} offsets");
            assert_eq!(index.eu.capacity(), index.eu.len(), "{how} eu");
            assert_eq!(index.ew.capacity(), index.ew.len(), "{how} ew");
            assert_eq!(index.weight.capacity(), index.weight.len(), "{how} weight");
        }
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

    #[test]
    fn serialization_roundtrip() {
        let (g, _, _) = paper_figure1_graph();
        let index = TsdIndex::build(&g);
        let blob = index.to_bytes();
        assert_eq!(blob.len(), index.index_size_bytes());
        let back = TsdIndex::from_bytes(blob).unwrap();
        assert_eq!(index, back);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(TsdIndex::from_bytes(Bytes::from_static(b"nope")), Err(DecodeError::Truncated));
        let mut buf = BytesMut::new();
        buf.put_u32_le(0xdead_beef);
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        assert_eq!(TsdIndex::from_bytes(buf.freeze()), Err(DecodeError::BadMagic));
    }

    /// A decoded forest must descend by weight, and fit its owner's
    /// neighborhood: distinct endpoints in `N(v)`, no cycle.
    #[test]
    fn decoded_forests_are_checked() {
        // K4: vertex 0's neighborhood is {1, 2, 3}.
        let g = sd_graph::GraphBuilder::new()
            .extend_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .build();
        let index = |forest: &[(u32, u32, u32)]| {
            let k = forest.len();
            TsdIndex {
                offsets: vec![0, k, k, k, k],
                eu: forest.iter().map(|e| e.0).collect(),
                ew: forest.iter().map(|e| e.1).collect(),
                weight: forest.iter().map(|e| e.2).collect(),
            }
        };
        assert!(index(&[(1, 2, 3), (2, 3, 3)]).forests_fit(&g));
        for (what, forest) in [
            ("a cycle", &[(1, 2, 3), (2, 3, 3), (1, 3, 3)][..]),
            ("a loop", &[(1, 1, 3)][..]),
            ("an endpoint outside N(v)", &[(0, 1, 3)][..]),
        ] {
            assert!(!index(forest).forests_fit(&g), "{what}");
        }
        let rising = index(&[(1, 2, 2), (2, 3, 3)]).to_bytes();
        assert_eq!(TsdIndex::from_bytes(rising), Err(DecodeError::InvalidEntry));
    }

    #[test]
    fn score_profile_consistent_with_score() {
        let (g, _, _) = paper_figure1_graph();
        let index = TsdIndex::build(&g);
        let mut scratch = Vec::new();
        for v in g.vertices() {
            let profile = index.score_profile(v);
            // Profile k values strictly descend.
            assert!(profile.windows(2).all(|w| w[0].0 > w[1].0));
            for &(k, s) in &profile {
                assert_eq!(s, index.score(v, k, &mut scratch), "v={v} k={k}");
            }
        }
    }
}
