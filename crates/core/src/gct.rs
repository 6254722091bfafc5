//! The GCT approach (Section 6): global-triangle-listing ego extraction,
//! bitmap truss decomposition, and the compressed GCT-index.
//!
//! The GCT-index compresses each vertex's TSD forest by collapsing every
//! group of vertices connected through edges of one trussness level into a
//! **supernode** (trussness + member list) and keeping only the
//! **superedges** that bridge different levels. Lemma 3 scores a vertex:
//! `score(v) = N_k − M_k` where `N_k` counts supernodes with trussness ≥ k
//! and `M_k` superedges with weight ≥ k — here O(log) per vertex because
//! both arrays are stored sorted descending.
//!
//! Beyond the paper, whose Section 6.3 query scores every vertex this way,
//! the index keeps a per-k score order: for each k, the vertices with a
//! nonzero score, grouped by score, highest first, each group ascending.
//! A top-r query reads its first r vertices, so a warm query costs r, not
//! n. The order is derived once per whole index (build, pooled build,
//! import), and an update's splice carries it forward by moving only the
//! repaired vertices, each from its old score's group to its new one's. It
//! is neither persisted nor counted in [`GctIndex::index_size_bytes`].

use std::ops::Range;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use sd_graph::{CsrGraph, Dsu, VertexId};
use sd_truss::{
    bitmap_truss_decomposition, truss_decomposition, vertex_trussness, TrussDecomposition,
};

use crate::config::{DiversityConfig, TopREntry, TopRResult};
use crate::egonet::{AllEgoNetworks, EgoNetwork};
use crate::error::DecodeError;
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
    /// supernode trussness and superedge weights non-increasing and at
    /// least 2, member ends strictly increasing up to the member count (no
    /// supernode is empty), members `< n`, and superedges `a < b <` the
    /// supernode count, weighing at most both endpoints' trussness and
    /// forming no cycle — so Lemma 3's `N_k − M_k` cannot underflow, and is
    /// nonzero exactly for k up to the top trussness.
    ///
    /// One more bounds the score order derived on import by the blob: at
    /// each k up to the top trussness, k times the score is at most the
    /// members of supernodes with trussness ≥ k. A genuine entry keeps it,
    /// since each of its contexts at k is a k-truss, which has at least k
    /// vertices, each a member of one such supernode. So the top trussness
    /// is at most the member count (the score is at least 1 up to it): a
    /// vertex enters the order, and opens at most one score group, at most
    /// once per member.
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
        // Checked last, on an entry whose score is at least 1 up to the top
        // trussness: it stops by k = members + 1.
        let contexts_fit = || {
            (2..=tau.first().copied().unwrap_or(0)).all(|k| {
                let members = self.sn_end[n_k(tau, k) - 1];
                u64::from(k) * u64::from(self.score(k)) <= u64::from(members)
            })
        };
        tau.windows(2).all(|p| p[0] >= p[1])
            && tau.last().is_none_or(|&t| t >= 2)
            && self.se.windows(2).all(|p| p[0].2 >= p[1].2)
            && self.se.last().is_none_or(|&(_, _, w)| w >= 2)
            && ends
            && end as usize == self.members.len()
            && self.members.iter().all(|&m| (m as usize) < n)
            && superedges
            && contexts_fit()
    }

    /// Social contexts at threshold `k`: union-find over qualifying
    /// supernodes along qualifying superedges, member lists merged, in
    /// [`Dsu::groups`]' order.
    pub fn social_contexts(&self, k: u32) -> Vec<Vec<VertexId>> {
        let (n_k, m_k) = (n_k(self.sn_tau, k), m_k(self.se, k));
        let mut dsu = Dsu::new(n_k);
        for &(a, b, _) in &self.se[..m_k] {
            debug_assert!((a as usize) < n_k && (b as usize) < n_k);
            dsu.union(a, b);
        }
        dsu.groups((0..n_k).map(|i| (i as u32, self.members(i))))
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
/// uses for its forests — plus the per-k score order its top-r queries
/// read.
///
/// ```
/// use sd_graph::GraphBuilder;
/// use sd_core::{paper_figure1_edges, DiversityConfig, GctIndex};
///
/// let g = GraphBuilder::new().extend_edges(paper_figure1_edges()).build();
/// let index = GctIndex::build(&g);
/// // Lemma 3: score(v) = N_k − M_k, answered in O(log) per vertex.
/// assert_eq!(index.score(0, 4), 3);
/// assert_eq!(index.social_contexts(0, 4).len(), 3);
/// // A top-r query reads the first r vertices of the order at k.
/// let top = index.top_r(&DiversityConfig { k: 4, r: 1 });
/// assert_eq!((top.entries[0].vertex, top.entries[0].score), (0, 3));
/// assert_eq!(top.metrics.score_computations, 1);
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
    /// The per-k score order of the entries above (empty while a
    /// [`GctBuilder`] holds them).
    order: ScoreOrder,
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
            let decomposition = decompose(&ego.graph);
            let tau_v = vertex_trussness(&ego.graph, &decomposition);
            stats.decomposition += t2.elapsed();

            let t3 = Instant::now();
            builder.push_forest(&ego, &max_spanning_forest(&ego.graph, &decomposition), &tau_v);
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

    /// The largest supernode trussness of `v`'s entry, 0 if it has none:
    /// `v` scores nonzero exactly at k in `2..=top`.
    fn top(&self, v: VertexId) -> u32 {
        let (s, e) = (self.starts[v as usize].sn, self.starts[v as usize + 1].sn);
        if s < e {
            self.sn_tau[s]
        } else {
            0
        }
    }

    /// `(k, score(v, k))` for each k at which `v` scores nonzero.
    fn scores(&self, v: VertexId) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (s, e) = (self.starts[v as usize], self.starts[v as usize + 1]);
        let (sn_tau, se) = (&self.sn_tau[s.sn..e.sn], &self.se[s.se..e.se]);
        (2..=self.top(v)).map(move |k| (k, lemma_3(sn_tau, se, k))).filter(|&(_, score)| score > 0)
    }

    /// GCT top-r: the first `min(r, n)` vertices of the score order at
    /// `k`, then zero-score vertices in id order, each with its stored
    /// contexts. `score_computations` counts the vertices read, r when r
    /// vertices score nonzero. This goes beyond the paper's Section 6.3
    /// query, which scores all n vertices by Lemma 3 (O(m) worst case).
    /// A `k` below 2 answers as k = 2.
    pub fn top_r(&self, config: &DiversityConfig) -> TopRResult {
        self.order.top_r(self.n(), config, |v, k| self.social_contexts(v, k))
    }

    /// The per-k score order, which the Exp-4 Hybrid index shares.
    pub(crate) fn order(&self) -> &ScoreOrder {
        &self.order
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
            // the length check on 32-bit targets.
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
    /// `repaired[i]` (ascending) replaced by `patch`'s entry `i`. Every
    /// other vertex keeps its entry — runs between repaired vertices are
    /// copied contiguously — and vertices new to this index are empty.
    /// The score order is carried, not derived again: each repaired vertex
    /// whose score changed moves between score groups
    /// ([`ScoreOrder::carry`]).
    pub(crate) fn splice(&self, n: usize, repaired: &[VertexId], patch: &GctBuilder) -> GctIndex {
        let patch = &patch.0;
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
        GctIndex { order: self.order.carry(self, repaired, patch), ..out.shrink_to_fit().0 }
    }
}

/// The per-k score order: for each k from 2 up to the largest supernode
/// trussness, the vertices whose score at k is nonzero, in one ascending
/// vertex list per distinct score, the groups highest score first. Read in
/// order, the groups list the vertices by (score desc, vertex asc) —
/// [`crate::TopRCollector`]'s tie rule. It is canonical: no empty group
/// and no trailing empty k, so an order carried by [`GctIndex::splice`]
/// equals (`==`) a fresh derive. Apart from that, every vector is exactly
/// its length, so an epoch's order costs its size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ScoreOrder {
    /// The groups at k are `per_k[k − 2]`: `(score, vertices)`.
    per_k: Vec<Vec<(u32, Vec<VertexId>)>>,
}

impl ScoreOrder {
    /// The order of a whole index: each vertex, in id order, pushed onto
    /// its score's group at every k it scores at, so each group comes out
    /// ascending with no sort.
    fn derive(index: &GctIndex) -> ScoreOrder {
        let mut order = ScoreOrder::default();
        for v in 0..index.n() as VertexId {
            for (k, s) in index.scores(v) {
                order.group(k, s).push(v);
            }
        }
        order.tidy();
        order
    }

    /// This order, the order of `old`, carried across
    /// [`GctIndex::splice`]: at each k, each repaired vertex whose score
    /// changed leaves its old score's group and enters its new one's.
    /// Vertices new to the index are isolated, score 0 and stay out. The
    /// largest k may grow or shrink.
    fn carry(&self, old: &GctIndex, repaired: &[VertexId], patch: &GctIndex) -> ScoreOrder {
        let mut order = self.clone();
        for (i, &v) in repaired.iter().enumerate() {
            let i = i as VertexId;
            let known = (v as usize) < old.n();
            let was_top = if known { old.top(v) } else { 0 };
            for k in 2..=was_top.max(patch.top(i)) {
                let was = if known { old.score(v, k) } else { 0 };
                let now = patch.score(i, k);
                if was == now {
                    continue;
                }
                if was > 0 {
                    let group = order.group(k, was);
                    let at = group.binary_search(&v);
                    debug_assert!(at.is_ok(), "v={v} k={k}");
                    if let Ok(at) = at {
                        group.remove(at);
                    }
                }
                if now > 0 {
                    let group = order.group(k, now);
                    if let Err(at) = group.binary_search(&v) {
                        // A plain insert would double an exact-length
                        // group, and a publish holds two epochs' orders.
                        group.reserve_exact(1);
                        group.insert(at, v);
                    }
                }
            }
        }
        order.tidy();
        order
    }

    /// The group of the vertices scoring `score` at `k ≥ 2`, inserted
    /// empty in score order (and its k stored) if absent.
    fn group(&mut self, k: u32, score: u32) -> &mut Vec<VertexId> {
        let at = k as usize - 2;
        if self.per_k.len() <= at {
            self.per_k.resize_with(at + 1, Vec::new);
        }
        let groups = &mut self.per_k[at];
        let i = groups.binary_search_by(|&(s, _)| score.cmp(&s)).unwrap_or_else(|i| {
            groups.insert(i, (score, Vec::new()));
            i
        });
        &mut groups[i].1
    }

    /// Makes the order canonical: drops emptied groups, trailing empty k
    /// and every vector's spare capacity.
    fn tidy(&mut self) {
        for groups in &mut self.per_k {
            groups.retain(|(_, ids)| !ids.is_empty());
            for (_, ids) in groups.iter_mut() {
                ids.shrink_to_fit();
            }
            groups.shrink_to_fit();
        }
        while self.per_k.last().is_some_and(Vec::is_empty) {
            self.per_k.pop();
        }
        self.per_k.shrink_to_fit();
    }

    /// The groups at `k`; a `k` below 2 reads k = 2's.
    fn groups(&self, k: u32) -> &[(u32, Vec<VertexId>)] {
        self.per_k.get(k.max(2) as usize - 2).map_or(&[], Vec::as_slice)
    }

    /// `score(v, k)` as the order holds it (0 when `v` is not ranked), by
    /// a binary search per group.
    pub(crate) fn score(&self, v: VertexId, k: u32) -> u32 {
        self.groups(k).iter().find(|(_, ids)| ids.binary_search(&v).is_ok()).map_or(0, |g| g.0)
    }

    /// The top-r query over vertices `0..n` at `k` (below 2, k = 2): the
    /// first `min(r, n)` ranked vertices, then, if fewer are ranked,
    /// unranked ones in id order with score 0, each with `contexts(v, k)`.
    /// `score_computations` counts the vertices read.
    pub(crate) fn top_r(
        &self,
        n: usize,
        config: &DiversityConfig,
        contexts: impl Fn(VertexId, u32) -> Vec<Vec<VertexId>>,
    ) -> TopRResult {
        let start = Instant::now();
        let (k, r) = (config.k.max(2), config.r.min(n));
        let groups = self.groups(k);
        let mut picks: Vec<(VertexId, u32)> = Vec::with_capacity(r);
        for (score, ids) in groups {
            if picks.len() == r {
                break;
            }
            picks.extend(ids.iter().take(r - picks.len()).map(|&v| (v, *score)));
        }
        let mut read = picks.len();
        if picks.len() < r {
            let mut ranked: Vec<VertexId> =
                groups.iter().flat_map(|(_, ids)| ids).copied().collect();
            ranked.sort_unstable();
            let mut ranked = ranked.into_iter().peekable();
            for v in 0..n as VertexId {
                if picks.len() == r {
                    break;
                }
                read += 1;
                if ranked.next_if_eq(&v).is_none() {
                    picks.push((v, 0));
                }
            }
        }
        let entries = picks
            .into_iter()
            .map(|(vertex, score)| TopREntry { vertex, score, contexts: contexts(vertex, k) })
            .collect();
        TopRResult::timed(entries, read, start)
    }
}

/// Algorithm 7's decomposition of one ego-network: bitmap peeling up to
/// [`BITMAP_FALLBACK_THRESHOLD`] vertices, classic above.
pub(crate) fn decompose(ego: &CsrGraph) -> TrussDecomposition {
    if ego.n() <= BITMAP_FALLBACK_THRESHOLD {
        bitmap_truss_decomposition(ego)
    } else {
        truss_decomposition(ego)
    }
}

/// Builds a [`GctIndex`] vertex by vertex, straight into its flat arrays.
///
/// A builder holds entries without a score order: a pooled build's parts
/// and an update's repair patch stay builders, and only [`Self::finish`]
/// (or [`GctIndex::splice`], which carries the order) makes an index, so
/// every index a query can reach is ordered.
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
            order: ScoreOrder::default(),
        })
    }

    /// The parts' entries in order, as one builder over all their
    /// vertices: how the pooled build ([`crate::parallel`]) joins its
    /// chunks. Each part is freed as soon as it is copied.
    pub(crate) fn concat(parts: Vec<GctBuilder>) -> GctBuilder {
        let mut out = GctBuilder::new(parts.iter().map(|p| p.0.n()).sum());
        let sum = |len: fn(&GctIndex) -> usize| parts.iter().map(|p| len(&p.0)).sum::<usize>();
        out.0.sn_tau.reserve_exact(sum(|p| p.sn_tau.len()));
        out.0.sn_end.reserve_exact(sum(|p| p.sn_end.len()));
        out.0.members.reserve_exact(sum(|p| p.members.len()));
        out.0.se.reserve_exact(sum(|p| p.se.len()));
        for part in parts {
            out.extend_from(&part.0, 0..part.0.n());
        }
        out
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

    /// Drops the arrays' spare capacity: an index lives as long as its
    /// epoch, and a pooled build's part lives beside the others until they
    /// are concatenated.
    pub(crate) fn shrink_to_fit(mut self) -> Self {
        let index = &mut self.0;
        index.starts.shrink_to_fit();
        index.sn_tau.shrink_to_fit();
        index.sn_end.shrink_to_fit();
        index.members.shrink_to_fit();
        index.se.shrink_to_fit();
        self
    }

    /// Finishes a whole index: drops spare capacity, then derives the
    /// score order ([`ScoreOrder::derive`]) — once per build or import,
    /// never per part or patch.
    pub(crate) fn finish(self) -> GctIndex {
        let mut index = self.shrink_to_fit().0;
        index.order = ScoreOrder::derive(&index);
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{all_scores, online_top_r};
    use crate::paper::paper_figure1_graph;
    use crate::score::social_contexts;

    /// Neither the sequential build, the pooled build nor a splice keeps
    /// growth slack: every array's capacity is its length, the score
    /// order's included.
    #[test]
    fn builds_keep_no_spare_capacity() {
        let g = crate::parallel::triangle_strip();
        let pooled = crate::parallel::pooled_build(&crate::pool::WorkerPool::new(2), &g);
        let sequential = GctIndex::build(&g);
        let mut patch = GctBuilder::new(2);
        patch.extend_from(&sequential, 3..4);
        patch.extend_from(&sequential, 9..10);
        let spliced = sequential.splice(g.n() + 2, &[3, 9], &patch);
        for (index, how) in [(sequential, "sequential"), (pooled, "pooled"), (spliced, "spliced")] {
            assert_eq!(index.starts.capacity(), index.starts.len(), "{how} starts");
            assert_eq!(index.sn_tau.capacity(), index.sn_tau.len(), "{how} sn_tau");
            assert_eq!(index.sn_end.capacity(), index.sn_end.len(), "{how} sn_end");
            assert_eq!(index.members.capacity(), index.members.len(), "{how} members");
            assert_eq!(index.se.capacity(), index.se.len(), "{how} se");
            let per_k = &index.order.per_k;
            assert_eq!(per_k.capacity(), per_k.len(), "{how} per_k");
            for (i, groups) in per_k.iter().enumerate() {
                assert_eq!(groups.capacity(), groups.len(), "{how} groups at k={}", i + 2);
                for (score, ids) in groups {
                    assert_eq!(ids.capacity(), ids.len(), "{how} score {score} at k={}", i + 2);
                }
            }
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

    /// `base` spliced into the index of `next` (`next.n() ≥ base.n()`) by
    /// repairing every vertex whose entry changed, plus `also`; other new
    /// vertices are left to the splice.
    fn splice_to(base: &GctIndex, next: &CsrGraph, also: &[VertexId]) -> (GctIndex, Vec<VertexId>) {
        let rebuilt = GctIndex::build(next);
        let changed = |v: VertexId| match (v as usize) < base.n() {
            true => base.entry(v) != rebuilt.entry(v),
            false => rebuilt.entry(v).supernodes() > 0,
        };
        let repaired: Vec<VertexId> =
            (0..next.n() as VertexId).filter(|&v| also.contains(&v) || changed(v)).collect();
        let mut patch = GctBuilder::new(repaired.len());
        for &v in &repaired {
            patch.extend_from(&rebuilt, v as usize..v as usize + 1);
        }
        (base.splice(next.n(), &repaired, &patch), repaired)
    }

    /// Splicing rebuilt entries over an index, with the vertex set grown,
    /// equals building the grown graph's index from scratch, its carried
    /// score order included: also when a repair raises the largest stored
    /// k, and when one empties it.
    #[test]
    fn splice_replaces_entries_and_grows() {
        let (g, _, _) = paper_figure1_graph();
        let base = GctIndex::build(&g);
        assert_eq!(base.splice(g.n(), &[], &GctBuilder::new(0)), base);
        let mut edges = g.edges().to_vec();
        edges.extend([(1, 6), (0, 20)]);
        let grown = sd_graph::GraphBuilder::new().extend_edges(edges.clone()).build();
        // Repair the vertices whose entries changed, plus the new
        // endpoint; 17..20 are new, isolated, and left to the splice.
        let (spliced, repaired) = splice_to(&base, &grown, &[20]);
        assert_eq!(repaired, vec![1, 6, 20], "the entries the inserts change");
        assert_eq!(spliced, GctIndex::build(&grown));

        // An 8-clique on new vertices 21..29 raises the largest k to 7.
        let clique: Vec<(VertexId, VertexId)> =
            (21..29).flat_map(|u| (u + 1..29).map(move |w| (u, w))).collect();
        let with_clique = sd_graph::GraphBuilder::new()
            .extend_edges(edges.iter().chain(&clique).copied())
            .build();
        let (raised, _) = splice_to(&spliced, &with_clique, &[]);
        assert_eq!(raised, GctIndex::build(&with_clique));
        assert_eq!(raised.order.per_k.len(), 6, "k = 2..=7");
        assert!(spliced.order.per_k.len() < 6);

        // Removing it again empties k = 5..=7, and the order drops them.
        let without = sd_graph::GraphBuilder::with_min_vertices(with_clique.n())
            .extend_edges(edges.iter().copied())
            .build();
        let (emptied, repaired) = splice_to(&raised, &without, &[]);
        assert_eq!(repaired, (21..29).collect::<Vec<_>>());
        assert_eq!(emptied, GctIndex::build(&without));
        assert_eq!(emptied.order, spliced.order);
    }

    /// The top r at `k` as a [`crate::TopRCollector`] fed every vertex's
    /// Lemma-3 score keeps them: the scan the order replaces.
    fn collector_top_r(index: &GctIndex, k: u32, r: usize) -> Vec<(VertexId, u32)> {
        let mut collector = crate::TopRCollector::new(r.min(index.n()));
        for v in 0..index.n() as VertexId {
            collector.offer(v, index.score(v, k));
        }
        collector.into_sorted()
    }

    /// A fresh order answers as the Lemma-3 scan — on Figure 1, on Figure 1
    /// with its ids reversed (so its top score is seen last) and on the
    /// triangle strip: at every k up to one past the largest stored, a k
    /// below 2 as k = 2, and at r around the count of nonzero scores (ties
    /// at the r-th place and the zero fill included) and above n, with r
    /// vertices read while r vertices score nonzero.
    #[test]
    fn the_order_answers_as_a_scan_of_every_score() {
        let (figure_1, _, _) = paper_figure1_graph();
        let last = figure_1.n() as VertexId - 1;
        let reversed = sd_graph::GraphBuilder::with_min_vertices(figure_1.n())
            .extend_edges(figure_1.edges().iter().map(|&(u, w)| (last - u, last - w)))
            .build();
        let (figure_1, reversed) = (std::sync::Arc::new(figure_1), std::sync::Arc::new(reversed));
        for g in [figure_1, reversed, crate::parallel::triangle_strip()] {
            let index = GctIndex::build(&g);
            let top_k = index.order.per_k.len() as u32 + 1;
            assert!(top_k >= 2);
            for k in 0..=top_k + 1 {
                let at = k.max(2);
                let nonzero = g.vertices().filter(|&v| index.score(v, at) > 0).count();
                for r in [1, nonzero.saturating_sub(1), nonzero, nonzero + 1, g.n(), g.n() + 5] {
                    let r = r.max(1);
                    let got = index.top_r(&DiversityConfig { k, r });
                    let picks: Vec<(VertexId, u32)> =
                        got.entries.iter().map(|e| (e.vertex, e.score)).collect();
                    assert_eq!(picks, collector_top_r(&index, at, r), "k={k} r={r}");
                    for e in &got.entries {
                        assert_eq!(e.contexts, index.social_contexts(e.vertex, at), "k={k} r={r}");
                    }
                    if r <= nonzero {
                        assert_eq!(got.metrics.score_computations, r, "k={k} r={r}");
                    }
                }
            }
        }
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

    /// Each entry invariant a query relies on is checked at decode time,
    /// and so is the bound that keeps the order an import derives within
    /// the blob: 2^16 one-member contexts at every k fail it at once, and
    /// so do two contexts at k = 4 over seven members.
    #[test]
    fn decode_rejects_entries_a_query_would_panic_on() {
        // n = 8; vertex 0 holds supernodes {1, 2, 3, 4} (τ 4) and {5, 6, 7}
        // (τ 3) joined by one superedge, and the other entries are empty.
        // Each bad case breaks one invariant.
        let blob = |sn_tau: &[u32], sn_end: &[u32], members: &[u32], se: &[(u32, u32, u32)]| {
            let end = Start { sn: sn_tau.len(), member: members.len(), se: se.len() };
            let mut starts = vec![Start::default()];
            starts.resize(9, end);
            let index = GctIndex {
                starts,
                sn_tau: sn_tau.to_vec(),
                sn_end: sn_end.to_vec(),
                members: members.to_vec(),
                se: se.to_vec(),
                order: ScoreOrder::default(),
            };
            index.to_bytes()
        };
        let (tau, ends, members) = (&[4, 3][..], &[4, 7][..], &[1, 2, 3, 4, 5, 6, 7][..]);
        assert!(GctIndex::from_bytes(blob(tau, ends, members, &[(0, 1, 3)])).is_ok());
        assert!(GctIndex::from_bytes(blob(&[4, 2], ends, members, &[])).is_ok());
        assert!(GctIndex::from_bytes(blob(tau, ends, members, &[(0, 1, 2)])).is_ok());
        assert!(GctIndex::from_bytes(blob(&[7], &[7], members, &[])).is_ok());
        let many = 1u32 << 16;
        let one_member_each = blob(
            &vec![many; many as usize],
            &(1..=many).collect::<Vec<_>>(),
            &vec![1; many as usize],
            &[],
        );
        for (what, bad) in [
            ("trussness rises", blob(&[3, 4], ends, members, &[(0, 1, 3)])),
            ("trussness past the member count", blob(&[8], &[7], members, &[])),
            ("more contexts than members at k", blob(&[4, 4], ends, members, &[])),
            ("2^16 one-member contexts", one_member_each),
            ("a trussness below 2", blob(&[4, 1], ends, members, &[])),
            ("an empty supernode", blob(tau, &[7, 7], members, &[(0, 1, 3)])),
            ("ends short of the members", blob(tau, &[4, 6], members, &[(0, 1, 3)])),
            ("ends past the members", blob(tau, &[4, 8], members, &[(0, 1, 3)])),
            ("a member past n", blob(tau, ends, &[1, 2, 3, 4, 5, 6, 8], &[(0, 1, 3)])),
            ("a superedge loop", blob(tau, ends, members, &[(1, 1, 3)])),
            ("a superedge past the supernodes", blob(tau, ends, members, &[(0, 2, 3)])),
            ("a superedge heavier than τ", blob(tau, ends, members, &[(0, 1, 4)])),
            ("a superedge weight below 2", blob(tau, ends, members, &[(0, 1, 1)])),
            ("a superedge cycle", blob(tau, ends, members, &[(0, 1, 3), (0, 1, 3)])),
            ("weights rise", blob(&[4, 3, 3], &[4, 6, 7], members, &[(0, 1, 2), (1, 2, 3)])),
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
