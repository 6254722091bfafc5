//! The GCT approach (Section 6): global-triangle-listing ego extraction,
//! bitmap truss decomposition, and the compressed GCT-index.
//!
//! The GCT-index compresses each vertex's TSD forest by collapsing every
//! group of vertices connected through edges of one trussness level into a
//! **supernode** (trussness + member list) and keeping only the
//! **superedges** that bridge different levels. Queries use Lemma 3:
//! `score(v) = N_k − M_k` where `N_k` counts supernodes with trussness ≥ k
//! and `M_k` superedges with weight ≥ k — here O(log) per vertex because
//! both arrays are stored sorted descending.

use std::ops::Range;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use sd_graph::{CsrGraph, Dsu, VertexId};
use sd_truss::{vertex_trussness, TrussDecomposition};

use crate::bound::finish_entries;
use crate::config::{DiversityConfig, SearchMetrics, TopRResult};
use crate::egonet::{AllEgoNetworks, EgoNetwork};
use crate::error::DecodeError;
use crate::score::EgoDecomposition;
use crate::topr::TopRCollector;
use crate::tsd::max_spanning_forest;

/// Serialized-format magic ("GCT1").
const MAGIC: u32 = 0x4743_5431;

/// Ego-networks larger than this fall back from bitmap to classic peeling
/// (the bitmap needs `n²` bits; 8192 vertices ≈ 8 MiB, a sane ceiling).
pub const BITMAP_FALLBACK_THRESHOLD: usize = 8192;

/// One vertex's compressed structure — supernodes and superedges
/// (Figure 7(b) of the paper) — borrowed from its [`GctIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GctEntry<'a> {
    /// Supernode trussness `τ(S)`, sorted descending.
    sn_tau: &'a [u32],
    /// Supernode `i`'s members end at `sn_end[i]` in `members` (and start
    /// where supernode `i − 1`'s end).
    sn_end: &'a [u32],
    /// Concatenated supernode member lists (global vertex ids, each ascending).
    members: &'a [VertexId],
    /// Superedges `(a, b, w)` — supernode indices + weight — weight descending.
    se: &'a [(u32, u32, u32)],
}

impl<'a> GctEntry<'a> {
    /// Number of supernodes.
    pub fn supernodes(&self) -> usize {
        self.sn_tau.len()
    }

    /// Number of superedges.
    pub fn superedges(&self) -> usize {
        self.se.len()
    }

    /// Members of supernode `i`.
    pub fn members(&self, i: usize) -> &'a [VertexId] {
        let start = if i == 0 { 0 } else { self.sn_end[i - 1] as usize };
        &self.members[start..self.sn_end[i] as usize]
    }

    /// Lemma 3: `score = N_k − M_k` (the filtered structure is a forest of
    /// supernodes, every superedge of weight ≥ k joining two qualifying
    /// supernodes).
    pub fn score(&self, k: u32) -> u32 {
        lemma_3(self.sn_tau, self.se, k)
    }

    /// Whether a decoded entry keeps the invariants queries rely on:
    /// supernode trussness and superedge weights non-increasing, member
    /// ends strictly increasing up to the member count (no supernode is
    /// empty), members `< n`, and superedges `a < b <` the supernode
    /// count, weighing at most both endpoints' trussness and forming no
    /// cycle — so Lemma 3's `N_k − M_k` cannot underflow.
    fn is_valid(&self, n: usize) -> bool {
        let mut end = 0;
        let ends = self.sn_end.iter().all(|&next| {
            let grows = next > end;
            end = next;
            grows
        });
        let tau = self.sn_tau;
        let mut dsu = Dsu::new(tau.len());
        let superedges = self.se.iter().all(|&(a, b, w)| {
            a < b
                && (b as usize) < tau.len()
                && w <= tau[a as usize].min(tau[b as usize])
                && dsu.union(a, b)
        });
        tau.windows(2).all(|p| p[0] >= p[1])
            && self.se.windows(2).all(|p| p[0].2 >= p[1].2)
            && ends
            && end as usize == self.members.len()
            && self.members.iter().all(|&m| (m as usize) < n)
            && superedges
    }

    /// Social contexts at threshold `k`: union-find over qualifying
    /// supernodes along qualifying superedges, member lists merged,
    /// ordered (size desc, first vertex asc).
    pub fn social_contexts(&self, k: u32) -> Vec<Vec<VertexId>> {
        let (n_k, m_k) = (n_k(self.sn_tau, k), m_k(self.se, k));
        let mut dsu = Dsu::new(n_k);
        for &(a, b, _) in &self.se[..m_k] {
            debug_assert!((a as usize) < n_k && (b as usize) < n_k);
            dsu.union(a, b);
        }
        let mut root_to_group: Vec<i32> = vec![-1; n_k];
        let mut groups: Vec<Vec<VertexId>> = Vec::new();
        for i in 0..n_k {
            let root = dsu.find(i as u32) as usize;
            let gi = if root_to_group[root] >= 0 {
                root_to_group[root] as usize
            } else {
                root_to_group[root] = groups.len() as i32;
                groups.push(Vec::new());
                groups.len() - 1
            };
            groups[gi].extend_from_slice(self.members(i));
        }
        for group in &mut groups {
            group.sort_unstable();
        }
        groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        groups
    }
}

/// `N_k`: supernodes with trussness ≥ k (prefix, since sorted desc).
fn n_k(sn_tau: &[u32], k: u32) -> usize {
    sn_tau.partition_point(|&t| t >= k)
}

/// `M_k`: superedges with weight ≥ k (prefix, since sorted desc).
fn m_k(se: &[(u32, u32, u32)], k: u32) -> usize {
    se.partition_point(|&(_, _, w)| w >= k)
}

/// Lemma 3 over one entry's supernode trussness and superedges.
fn lemma_3(sn_tau: &[u32], se: &[(u32, u32, u32)], k: u32) -> u32 {
    (n_k(sn_tau, k) - m_k(se, k)) as u32
}

/// Phase timings of GCT/TSD index construction (Table 4 of the paper).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildPhaseStats {
    /// Ego-network extraction time.
    pub extraction: Duration,
    /// Ego-network truss decomposition time.
    pub decomposition: Duration,
    /// Forest/supernode assembly time.
    pub assembly: Duration,
}

/// Where one vertex's entry starts in each of a [`GctIndex`]'s shared
/// arrays.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Start {
    /// First supernode, into `sn_tau` and `sn_end`.
    sn: usize,
    /// First member, into `members`.
    member: usize,
    /// First superedge, into `se`.
    se: usize,
}

/// The GCT-index of a whole graph: every vertex's supernodes, members and
/// superedges in three shared flat arrays (four, counting the member
/// ends), sliced per vertex by offsets — the layout [`crate::TsdIndex`]
/// uses for its forests.
///
/// ```
/// use sd_graph::GraphBuilder;
/// use sd_core::{paper_figure1_edges, GctIndex};
///
/// let g = GraphBuilder::new().extend_edges(paper_figure1_edges()).build();
/// let index = GctIndex::build(&g);
/// // Lemma 3: score(v) = N_k − M_k, answered in O(log) per vertex.
/// assert_eq!(index.score(0, 4), 3);
/// assert_eq!(index.social_contexts(0, 4).len(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GctIndex {
    /// Per-vertex starts into the arrays below; length n + 1, the last
    /// closing vertex n − 1.
    starts: Vec<Start>,
    /// Supernode trussness, descending within each vertex.
    sn_tau: Vec<u32>,
    /// Per supernode, the end of its members relative to its vertex's
    /// first member (the serialized per-entry offsets, verbatim).
    sn_end: Vec<u32>,
    /// Member lists, global ids, each ascending.
    members: Vec<VertexId>,
    /// Superedges `(a, b, w)`, supernode indices local to their vertex,
    /// weight descending within each vertex.
    se: Vec<(u32, u32, u32)>,
}

impl GctIndex {
    /// Algorithm 7: one-shot ego extraction, bitmap truss decomposition,
    /// then Algorithm 8 per vertex.
    pub fn build(g: &CsrGraph) -> Self {
        Self::build_with_stats(g).0
    }

    /// As [`Self::build`], additionally reporting per-phase timings.
    pub fn build_with_stats(g: &CsrGraph) -> (Self, BuildPhaseStats) {
        let mut stats = BuildPhaseStats::default();
        let t0 = Instant::now();
        let all = AllEgoNetworks::build(g);
        stats.extraction += t0.elapsed();

        let mut builder = GctBuilder::new(g.n());
        for v in g.vertices() {
            let t1 = Instant::now();
            let ego = all.ego_graph(g, v);
            stats.extraction += t1.elapsed();

            let t2 = Instant::now();
            let (decomposition, tau_v) = decompose(&ego);
            stats.decomposition += t2.elapsed();

            let t3 = Instant::now();
            builder.push_ego(&ego, &decomposition, &tau_v);
            stats.assembly += t3.elapsed();
        }
        (builder.finish(), stats)
    }

    /// Number of indexed vertices.
    pub fn n(&self) -> usize {
        self.starts.len() - 1
    }

    /// Per-vertex entry, borrowed from the index.
    pub fn entry(&self, v: VertexId) -> GctEntry<'_> {
        let (s, e) = (self.starts[v as usize], self.starts[v as usize + 1]);
        GctEntry {
            sn_tau: &self.sn_tau[s.sn..e.sn],
            sn_end: &self.sn_end[s.sn..e.sn],
            members: &self.members[s.member..e.member],
            se: &self.se[s.se..e.se],
        }
    }

    /// `score(v)` at threshold `k` (Lemma 3; O(log) per call).
    pub fn score(&self, v: VertexId, k: u32) -> u32 {
        // Only the two arrays Lemma 3 reads are sliced: this is the hot
        // loop of `top_r`.
        let (s, e) = (self.starts[v as usize], self.starts[v as usize + 1]);
        lemma_3(&self.sn_tau[s.sn..e.sn], &self.se[s.se..e.se], k)
    }

    /// Social contexts of `v` at threshold `k`.
    pub fn social_contexts(&self, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
        self.entry(v).social_contexts(k)
    }

    /// GCT top-r: exact scores are O(log) per vertex, so evaluate all and
    /// collect (the O(m)-worst-case query of Section 6.3).
    pub fn top_r(&self, config: &DiversityConfig) -> TopRResult {
        let start = Instant::now();
        let mut collector = TopRCollector::new(config.r);
        let mut computations = 0usize;
        for v in 0..self.n() as VertexId {
            computations += 1;
            collector.offer(v, self.score(v, config.k));
        }
        let entries = finish_entries(collector, |v| self.social_contexts(v, config.k));
        TopRResult {
            entries,
            metrics: SearchMetrics {
                score_computations: computations,
                elapsed: start.elapsed(),
                engine: "",
            },
        }
    }

    /// Serializes to a compact blob (Table 3 index-size accounting).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.index_size_bytes());
        buf.put_u32_le(MAGIC);
        buf.put_u64_le(self.n() as u64);
        for v in 0..self.n() as VertexId {
            let e = self.entry(v);
            buf.put_u32_le(e.sn_tau.len() as u32);
            buf.put_u32_le(e.members.len() as u32);
            buf.put_u32_le(e.se.len() as u32);
            for &t in e.sn_tau {
                buf.put_u32_le(t);
            }
            for &o in e.sn_end {
                buf.put_u32_le(o);
            }
            for &m in e.members {
                buf.put_u32_le(m);
            }
            for &(a, b, w) in e.se {
                buf.put_u32_le(a);
                buf.put_u32_le(b);
                buf.put_u32_le(w);
            }
        }
        buf.freeze()
    }

    /// Deserializes a blob produced by [`Self::to_bytes`]. Every entry is
    /// checked as it is read; one that a query could panic on fails with
    /// [`DecodeError::InvalidEntry`].
    pub fn from_bytes(mut data: Bytes) -> Result<Self, DecodeError> {
        if data.remaining() < 12 {
            return Err(DecodeError::Truncated);
        }
        if data.get_u32_le() != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let n = data.get_u64_le() as usize;
        // Every entry consumes at least its 12-byte count header, so a
        // hostile vertex count must not drive a huge allocation (or a
        // capacity overflow) before the per-entry length checks run.
        if n > data.remaining() / 12 {
            return Err(DecodeError::Truncated);
        }
        let mut index = GctBuilder::new(n);
        for v in 0..n {
            if data.remaining() < 12 {
                return Err(DecodeError::Truncated);
            }
            let sn = data.get_u32_le() as usize;
            let members = data.get_u32_le() as usize;
            let ses = data.get_u32_le() as usize;
            // Checked arithmetic: hostile per-entry counts must not wrap
            // the length check on 32-bit targets (same discipline as
            // `TsdIndex::from_bytes`).
            let need = sn
                .checked_mul(8)
                .and_then(|a| a.checked_add(members.checked_mul(4)?))
                .and_then(|a| a.checked_add(ses.checked_mul(12)?))
                .ok_or(DecodeError::Truncated)?;
            if data.remaining() < need {
                return Err(DecodeError::Truncated);
            }
            let out = &mut index.0;
            out.sn_tau.extend((0..sn).map(|_| data.get_u32_le()));
            out.sn_end.extend((0..sn).map(|_| data.get_u32_le()));
            out.members.extend((0..members).map(|_| data.get_u32_le()));
            out.se.extend(
                (0..ses).map(|_| (data.get_u32_le(), data.get_u32_le(), data.get_u32_le())),
            );
            index.close();
            if !index.0.entry(v as VertexId).is_valid(n) {
                return Err(DecodeError::InvalidEntry);
            }
        }
        Ok(index.finish())
    }

    /// Serialized size in bytes.
    pub fn index_size_bytes(&self) -> usize {
        12 + self.n() * 12 + self.sn_tau.len() * 8 + self.members.len() * 4 + self.se.len() * 12
    }

    /// This index over `n ≥ self.n()` vertices with the entry of
    /// `repaired[i]` (ascending) replaced by `patch`'s entry `i`: the
    /// GCT twin of [`crate::TsdIndex`]'s splice, copying the runs between
    /// repaired vertices contiguously.
    pub(crate) fn splice(&self, n: usize, repaired: &[VertexId], patch: &GctIndex) -> GctIndex {
        let mut out = GctBuilder::new(n);
        out.0.sn_tau.reserve(self.sn_tau.len() + patch.sn_tau.len());
        out.0.sn_end.reserve(self.sn_end.len() + patch.sn_end.len());
        out.0.members.reserve(self.members.len() + patch.members.len());
        out.0.se.reserve(self.se.len() + patch.se.len());
        let mut next = 0usize;
        for (i, &v) in repaired.iter().enumerate() {
            out.extend_from(self, next..v as usize);
            out.extend_from(patch, i..i + 1);
            next = v as usize + 1;
        }
        out.extend_from(self, next..n);
        out.finish()
    }

    /// The parts' entries in order, as one index over all their vertices:
    /// how the pooled build ([`crate::parallel`]) joins its chunks. Each
    /// part is freed as soon as it is copied.
    pub(crate) fn concat(parts: Vec<GctIndex>) -> GctIndex {
        let mut out = GctBuilder::new(parts.iter().map(GctIndex::n).sum());
        let sum = |len: fn(&GctIndex) -> usize| parts.iter().map(len).sum::<usize>();
        out.0.sn_tau.reserve_exact(sum(|p| p.sn_tau.len()));
        out.0.sn_end.reserve_exact(sum(|p| p.sn_end.len()));
        out.0.members.reserve_exact(sum(|p| p.members.len()));
        out.0.se.reserve_exact(sum(|p| p.se.len()));
        for part in parts {
            out.extend_from(&part, 0..part.n());
        }
        out.finish()
    }
}

/// Algorithm 7's decomposition of one ego-network — bitmap peeling up to
/// [`BITMAP_FALLBACK_THRESHOLD`] vertices, classic above — plus each local
/// vertex's trussness.
fn decompose(ego: &EgoNetwork) -> (TrussDecomposition, Vec<u32>) {
    let method = if ego.graph.n() <= BITMAP_FALLBACK_THRESHOLD {
        EgoDecomposition::Bitmap
    } else {
        EgoDecomposition::Classic
    };
    let decomposition = method.run(&ego.graph);
    let tau_v = vertex_trussness(&ego.graph, &decomposition);
    (decomposition, tau_v)
}

/// Builds a [`GctIndex`] vertex by vertex, straight into its flat arrays.
pub(crate) struct GctBuilder(GctIndex);

impl GctBuilder {
    /// Builder for `n` vertices; entries must be pushed in id order.
    pub(crate) fn new(n: usize) -> Self {
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(Start::default());
        GctBuilder(GctIndex {
            starts,
            sn_tau: Vec::new(),
            sn_end: Vec::new(),
            members: Vec::new(),
            se: Vec::new(),
        })
    }

    /// Where the next entry starts: the ends of the arrays so far.
    fn end(&self) -> Start {
        let index = &self.0;
        Start { sn: index.sn_tau.len(), member: index.members.len(), se: index.se.len() }
    }

    /// Closes the entry being appended.
    fn close(&mut self) {
        let end = self.end();
        self.0.starts.push(end);
    }

    /// Appends `v`'s entry from its ego-network in `all`: the per-vertex
    /// body of [`GctIndex::build`].
    pub(crate) fn push_vertex(&mut self, g: &CsrGraph, all: &AllEgoNetworks, v: VertexId) {
        let ego = all.ego_graph(g, v);
        let (decomposition, tau_v) = decompose(&ego);
        self.push_ego(&ego, &decomposition, &tau_v);
    }

    /// Appends the entry of the vertex whose ego-network is `ego`, from its
    /// truss decomposition and per-local-vertex trussness.
    pub(crate) fn push_ego(
        &mut self,
        ego: &EgoNetwork,
        decomposition: &TrussDecomposition,
        tau_v: &[u32],
    ) {
        self.push_forest(ego, &max_spanning_forest(&ego.graph, decomposition), tau_v);
    }

    /// Algorithm 8 over the ego's maximum spanning forest (local ids,
    /// weight descending; [`max_spanning_forest`]) and per-local-vertex
    /// trussness `tau_v`.
    ///
    /// Algorithm 8 walks the ego's edges by trussness descending and skips
    /// every edge whose endpoints are already connected — exactly Kruskal,
    /// so the edges it keeps are this forest's, in this order. A kept edge
    /// whose endpoints both have its trussness merges their supernodes
    /// (every member of a supernode shares one trussness); any other kept
    /// edge becomes a superedge.
    pub(crate) fn push_forest(
        &mut self,
        ego: &EgoNetwork,
        forest: &[(u32, u32, u32)],
        tau_v: &[u32],
    ) {
        let n = ego.graph.n();
        let mut snode = Dsu::new(n);
        let mut superedges: Vec<(u32, u32, u32)> = Vec::new();
        for &(u, w, t) in forest {
            if tau_v[u as usize] == t && tau_v[w as usize] == t {
                snode.union(u, w);
            } else {
                superedges.push((u, w, t));
            }
        }

        // Supernodes over vertices with trussness ≥ 2 (isolated ego
        // vertices can never join a k-truss, k ≥ 2), numbered by first
        // member.
        const NONE: u32 = u32::MAX;
        let mut sn_of_root = vec![NONE; n];
        let mut sn_of = vec![NONE; n];
        let (mut tau, mut size): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        for (l, &t) in tau_v.iter().enumerate() {
            if t < 2 {
                continue;
            }
            let root = snode.find(l as u32) as usize;
            if sn_of_root[root] == NONE {
                sn_of_root[root] = tau.len() as u32;
                tau.push(t);
                size.push(0);
            }
            sn_of[l] = sn_of_root[root];
            size[sn_of[l] as usize] += 1;
        }

        // Order supernodes by trussness descending (stable, so ties keep
        // their numbering) and lay their member lists out in that order.
        let mut order: Vec<u32> = (0..tau.len() as u32).collect();
        order.sort_by(|&a, &b| tau[b as usize].cmp(&tau[a as usize]));
        let index = &mut self.0;
        let mut rank = vec![0u32; order.len()];
        let mut fill = vec![0u32; order.len()];
        let mut end = 0u32;
        for (r, &s) in order.iter().enumerate() {
            rank[s as usize] = r as u32;
            fill[r] = end;
            end += size[s as usize];
            index.sn_tau.push(tau[s as usize]);
            index.sn_end.push(end);
        }
        let base = index.members.len();
        index.members.resize(base + end as usize, 0);
        for (l, &s) in sn_of.iter().enumerate() {
            if s != NONE {
                let slot = &mut fill[rank[s as usize] as usize];
                index.members[base + *slot as usize] = ego.vertices[l];
                *slot += 1;
            }
        }

        let first = index.se.len();
        index.se.extend(superedges.into_iter().map(|(u, w, t)| {
            let (a, b) = (rank[sn_of[u as usize] as usize], rank[sn_of[w as usize] as usize]);
            (a.min(b), a.max(b), t)
        }));
        index.se[first..].sort_unstable_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)));
        self.close();
    }

    /// Appends the entries of `vertices` from `index` with one contiguous
    /// copy per array (member ends and superedge endpoints are relative to
    /// their entry, so they copy verbatim); vertices at or past
    /// `index.n()` get empty entries (new, isolated vertices).
    pub(crate) fn extend_from(&mut self, index: &GctIndex, vertices: Range<usize>) {
        let kept = vertices.start.min(index.n())..vertices.end.min(index.n());
        let (first, last) = (index.starts[kept.start], index.starts[kept.end]);
        let base = self.end();
        let out = &mut self.0;
        out.sn_tau.extend_from_slice(&index.sn_tau[first.sn..last.sn]);
        out.sn_end.extend_from_slice(&index.sn_end[first.sn..last.sn]);
        out.members.extend_from_slice(&index.members[first.member..last.member]);
        out.se.extend_from_slice(&index.se[first.se..last.se]);
        out.starts.extend(index.starts[kept.start + 1..=kept.end].iter().map(|s| Start {
            sn: s.sn - first.sn + base.sn,
            member: s.member - first.member + base.member,
            se: s.se - first.se + base.se,
        }));
        for _ in kept.len()..vertices.len() {
            self.close();
        }
    }

    /// Finishes the index, dropping the arrays' spare capacity: an index
    /// lives as long as its epoch, and a pooled build's part lives beside
    /// the others until they are concatenated.
    pub(crate) fn finish(mut self) -> GctIndex {
        let index = &mut self.0;
        index.starts.shrink_to_fit();
        index.sn_tau.shrink_to_fit();
        index.sn_end.shrink_to_fit();
        index.members.shrink_to_fit();
        index.se.shrink_to_fit();
        self.0
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
        let pooled = crate::parallel::build_gct_pooled(&crate::pool::WorkerPool::new(2), &g);
        for (index, how) in [(GctIndex::build(&g), "sequential"), (pooled, "pooled")] {
            assert_eq!(index.starts.capacity(), index.starts.len(), "{how} starts");
            assert_eq!(index.sn_tau.capacity(), index.sn_tau.len(), "{how} sn_tau");
            assert_eq!(index.sn_end.capacity(), index.sn_end.len(), "{how} sn_end");
            assert_eq!(index.members.capacity(), index.members.len(), "{how} members");
            assert_eq!(index.se.capacity(), index.se.len(), "{how} se");
        }
    }

    /// Figure 7(b): GCT_v has three supernodes of trussness 4 (x-clique,
    /// y-clique, r-octahedron) and one superedge of weight 3.
    #[test]
    fn paper_figure_7_structure() {
        let (g, v, _) = paper_figure1_graph();
        let index = GctIndex::build(&g);
        let entry = index.entry(v);
        assert_eq!(entry.supernodes(), 3);
        assert!(entry.sn_tau.iter().all(|&t| t == 4));
        assert_eq!(entry.superedges(), 1);
        assert_eq!(entry.se[0].2, 3);
        let sizes: Vec<usize> = (0..3).map(|i| entry.members(i).len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![4, 4, 6]);
    }

    #[test]
    fn lemma_3_scores_match_online() {
        let (g, _, _) = paper_figure1_graph();
        let index = GctIndex::build(&g);
        for k in 2..=7 {
            let truth = all_scores(&g, k);
            for v in g.vertices() {
                assert_eq!(index.score(v, k), truth[v as usize], "v={v} k={k}");
            }
        }
    }

    /// Splicing rebuilt entries over an index, with the vertex set grown,
    /// equals building the grown graph's index from scratch.
    #[test]
    fn splice_replaces_entries_and_grows() {
        let (g, _, _) = paper_figure1_graph();
        let base = GctIndex::build(&g);
        assert_eq!(base.splice(g.n(), &[], &GctBuilder::new(0).finish()), base);
        let mut edges = g.edges().to_vec();
        edges.extend([(1, 6), (0, 20)]);
        let grown = sd_graph::GraphBuilder::new().extend_edges(edges).build();
        let rebuilt = GctIndex::build(&grown);
        // Repair the vertices whose entries changed, plus the new
        // endpoint; 17..20 are new, isolated, and left to the splice.
        let repaired: Vec<VertexId> = (0..grown.n() as VertexId)
            .filter(|&v| v == 20 || (v as usize) < g.n() && base.entry(v) != rebuilt.entry(v))
            .collect();
        assert_eq!(repaired, vec![1, 6, 20], "the entries the inserts change");
        let mut patch = GctBuilder::new(repaired.len());
        for &v in &repaired {
            patch.extend_from(&rebuilt, v as usize..v as usize + 1);
        }
        assert_eq!(base.splice(grown.n(), &repaired, &patch.finish()), rebuilt);
    }

    #[test]
    fn contexts_match_algorithm_2() {
        let (g, _, _) = paper_figure1_graph();
        let index = GctIndex::build(&g);
        for k in 2..=5 {
            for v in g.vertices() {
                assert_eq!(index.social_contexts(v, k), social_contexts(&g, v, k), "v={v} k={k}");
            }
        }
    }

    #[test]
    fn top_r_matches_online() {
        let (g, _, _) = paper_figure1_graph();
        let index = GctIndex::build(&g);
        for k in 2..=5 {
            for r in [1usize, 3, 17] {
                let cfg = DiversityConfig { k, r };
                assert_eq!(
                    index.top_r(&cfg).scores(),
                    online_top_r(&g, &cfg).scores(),
                    "k={k} r={r}"
                );
            }
        }
    }

    #[test]
    fn gct_smaller_than_tsd() {
        let (g, _, _) = paper_figure1_graph();
        let gct = GctIndex::build(&g);
        let tsd = crate::tsd::TsdIndex::build(&g);
        assert!(
            gct.index_size_bytes() < tsd.index_size_bytes(),
            "gct {} vs tsd {}",
            gct.index_size_bytes(),
            tsd.index_size_bytes()
        );
    }

    #[test]
    fn serialization_roundtrip() {
        let (g, _, _) = paper_figure1_graph();
        let index = GctIndex::build(&g);
        let blob = index.to_bytes();
        assert_eq!(blob.len(), index.index_size_bytes());
        let back = GctIndex::from_bytes(blob).unwrap();
        assert_eq!(index, back);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(GctIndex::from_bytes(Bytes::from_static(b"xx")), Err(DecodeError::Truncated));
        let mut buf = BytesMut::new();
        buf.put_u32_le(123);
        buf.put_u64_le(0);
        assert_eq!(GctIndex::from_bytes(buf.freeze()), Err(DecodeError::BadMagic));
    }

    /// A valid magic followed by a hostile vertex count must fail cleanly,
    /// not overflow `Vec::with_capacity`.
    #[test]
    fn decode_rejects_hostile_entry_count() {
        for n in [u64::MAX, u64::MAX / 8, 1 << 40] {
            let mut buf = BytesMut::new();
            buf.put_u32_le(MAGIC);
            buf.put_u64_le(n);
            assert_eq!(GctIndex::from_bytes(buf.freeze()), Err(DecodeError::Truncated), "n={n}");
        }
    }

    /// Hostile per-entry counts chosen to wrap 32-bit size arithmetic must
    /// be rejected by the checked length computation, not read past the
    /// buffer.
    #[test]
    fn decode_rejects_hostile_per_entry_counts() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u64_le(1);
        buf.put_u32_le(0x2000_0000); // sn * 8 wraps to 0 on 32-bit usize
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        assert_eq!(GctIndex::from_bytes(buf.freeze()), Err(DecodeError::Truncated));
    }

    /// Each entry invariant a query relies on is checked at decode time.
    #[test]
    fn decode_rejects_entries_a_query_would_panic_on() {
        // n = 4; vertex 0 holds supernodes {1, 2} (τ 4) and {3} (τ 3)
        // joined by one superedge, and the other entries are empty.
        let blob = |sn_tau: &[u32], sn_end: &[u32], members: &[u32], se: &[(u32, u32, u32)]| {
            let end = Start { sn: sn_tau.len(), member: members.len(), se: se.len() };
            let index = GctIndex {
                starts: vec![Start::default(), end, end, end, end],
                sn_tau: sn_tau.to_vec(),
                sn_end: sn_end.to_vec(),
                members: members.to_vec(),
                se: se.to_vec(),
            };
            index.to_bytes()
        };
        let (tau, ends, members) = (&[4, 3][..], &[2, 3][..], &[1, 2, 3][..]);
        assert!(GctIndex::from_bytes(blob(tau, ends, members, &[(0, 1, 3)])).is_ok());
        for (what, bad) in [
            ("trussness rises", blob(&[3, 4], ends, members, &[(0, 1, 3)])),
            ("an empty supernode", blob(tau, &[0, 3], members, &[(0, 1, 3)])),
            ("ends short of the members", blob(tau, &[1, 2], members, &[(0, 1, 3)])),
            ("ends past the members", blob(tau, &[2, 4], members, &[(0, 1, 3)])),
            ("a member past n", blob(tau, ends, &[1, 2, 4], &[(0, 1, 3)])),
            ("a superedge loop", blob(tau, ends, members, &[(1, 1, 3)])),
            ("a superedge past the supernodes", blob(tau, ends, members, &[(0, 2, 3)])),
            ("a superedge heavier than τ", blob(tau, ends, members, &[(0, 1, 4)])),
            ("a superedge cycle", blob(tau, ends, members, &[(0, 1, 3), (0, 1, 3)])),
            ("weights rise", blob(&[4, 3, 3], &[1, 2, 3], members, &[(0, 1, 2), (1, 2, 3)])),
        ] {
            assert_eq!(GctIndex::from_bytes(bad), Err(DecodeError::InvalidEntry), "{what}");
        }
    }

    #[test]
    fn build_stats_cover_phases() {
        let (g, _, _) = paper_figure1_graph();
        let (_, stats) = GctIndex::build_with_stats(&g);
        // All phases ran (durations are >= 0 by type; just ensure no panic
        // and extraction includes the one-shot listing).
        let total = stats.extraction + stats.decomposition + stats.assembly;
        assert!(total.as_nanos() > 0);
    }
}
