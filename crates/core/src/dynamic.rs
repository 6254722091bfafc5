//! Dynamic index maintenance under edge insertions and deletions.
//!
//! The paper's Section 5.3 remarks that "TSD-index can support efficient
//! updates in dynamic graphs … the updating techniques are still promising
//! to be further developed". This module develops them with the *affected
//! ego-network* strategy:
//!
//! Inserting or deleting edge `{u, v}` changes the ego-network of exactly
//! * `u` (gains/loses vertex `v` plus the ego edges `v` closes),
//! * `v` (symmetrically), and
//! * every common neighbor `w ∈ N(u) ∩ N(v)` (gains/loses the ego *edge*
//!   `(u, v)`).
//!
//! No other vertex's ego-network contains the pair, so rebuilding those
//! `2 + |N(u) ∩ N(v)|` forests — each `O(ρ_v · m_v)` local work — restores
//! the exact index. Over a batch, the union of those sets covers every ego
//! the batch changed (a vertex never touched as an endpoint keeps its
//! neighbor set, so it is a common neighbor of every edit inside its ego),
//! so each distinct affected vertex is rebuilt once, against the final
//! graph. Equivalence with a from-scratch rebuild is property-tested under
//! random edit scripts (`tests/dynamic_updates.rs`).
//!
//! One ops loop applies a batch and collects those vertices, and the
//! repair reads the final graph's CSR snapshot through the index builds'
//! own per-vertex pass ([`crate::parallel`]): here for [`DynamicTsd`]'s TSD
//! forests, and in [`crate::SearchService::apply_updates`] for the GCT
//! entries it serves.

use std::sync::Arc;

use sd_graph::{CowStats, CsrGraph, DynamicGraph, GraphUpdate, VertexId};

use crate::parallel::write_tsd;
use crate::pool::{self, WorkerPool};
use crate::tsd::{TsdBuilder, TsdIndex};

/// What one batch of updates did ([`DynamicTsd::apply_batch`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchRepair {
    /// Updates that changed the graph.
    pub applied: usize,
    /// Updates rejected as no-ops (duplicate or self-loop inserts, removes
    /// of absent edges).
    pub rejected: usize,
    /// `2 + |N(u) ∩ N(v)|` per applied update: the ego-networks each update
    /// touched, counted once per update that touched them.
    pub touched: usize,
    /// Distinct ego-networks rebuilt — each once, however many updates
    /// touched it.
    pub repaired: usize,
}

/// Applies `batch` to `graph` in order, and returns what it did with the
/// ego-networks it touched: each applied op's endpoints and their common
/// neighbors in the graph it left, sorted and deduplicated. A rejected op
/// (duplicate or self-loop insert, absent remove) touches nothing.
pub(crate) fn apply_ops(
    graph: &mut DynamicGraph,
    batch: &[GraphUpdate],
) -> (BatchRepair, Arc<[VertexId]>) {
    let mut out = BatchRepair::default();
    let mut affected: Vec<VertexId> = Vec::new();
    for &update in batch {
        if !graph.apply(update) {
            out.rejected += 1;
            continue;
        }
        out.applied += 1;
        let (u, v) = update.endpoints();
        let before = affected.len();
        affected.extend(graph.common_neighbors(u, v));
        affected.extend([u, v]);
        out.touched += affected.len() - before;
    }
    affected.sort_unstable();
    affected.dedup();
    out.repaired = affected.len();
    (out, affected.into())
}

/// A TSD-index kept consistent while the graph mutates (the Section 5.3
/// maintainer).
///
/// Every level is copy-on-write: the graph is a [`DynamicGraph`] over a
/// shared CSR snapshot of itself, and the index is a shared [`Arc`] that
/// no update writes into. [`Self::apply_batch`] rebuilds each distinct
/// affected ego-network once against the batch's final graph and splices
/// the rebuilt forests into a fresh flat index, copying everything else in
/// contiguous runs. An update therefore costs its affected region plus one
/// `O(graph + index)` copy, and leaves behind a snapshot and an index that
/// can be read as they are ([`Self::snapshot`], [`Self::index`]).
///
/// ```
/// use sd_graph::GraphBuilder;
/// use sd_core::dynamic::DynamicTsd;
/// use sd_core::paper_figure1_edges;
///
/// let g = GraphBuilder::new().extend_edges(paper_figure1_edges()).build();
/// let mut index = DynamicTsd::from_csr(&g);
/// assert_eq!(index.score(0, 4), 3);
/// // Deleting one bridge splits nothing at k=4 (contexts were separate) …
/// index.remove_edge(2, 5);
/// assert_eq!(index.score(0, 4), 3);
/// // … but at k=3 the H1 blob now splits: 2 -> 3 contexts.
/// assert_eq!(index.score(0, 3), 3);
/// ```
#[derive(Clone, Debug)]
pub struct DynamicTsd {
    graph: DynamicGraph,
    /// The CSR snapshot of `graph`, and its copy-on-write base.
    snapshot: Arc<CsrGraph>,
    /// The TSD-index of `graph`, exactly.
    tsd: Arc<TsdIndex>,
}

impl Default for DynamicTsd {
    fn default() -> Self {
        Self::from_shared_index(Arc::default(), Arc::new(TsdBuilder::new(0).finish()))
    }
}

impl DynamicTsd {
    /// Builds from a static graph (equivalent to `TsdIndex::build`).
    pub fn from_csr(g: &CsrGraph) -> Self {
        Self::from_shared_index(Arc::new(g.clone()), Arc::new(TsdIndex::build(g)))
    }

    /// An empty dynamic index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopts an already-built static [`TsdIndex`] over `g` without
    /// recomputing anything (one `O(index size)` copy of the index; no ego
    /// extraction or truss decomposition). [`Self::from_shared_index`]
    /// shares the index instead of copying it.
    ///
    /// # Panics
    /// In debug builds, panics if the index covers a different vertex count
    /// than `g` — the caller pairs an index with the graph it was built
    /// from (the fingerprinted bundle layer enforces this upstream).
    pub fn from_index(g: &CsrGraph, index: &TsdIndex) -> Self {
        Self::from_shared_index(Arc::new(g.clone()), Arc::new(index.clone()))
    }

    /// [`Self::from_index`] over a shared graph and a shared index: the
    /// carry costs `O(n)` copy-on-write slots and `Arc` clones — the
    /// adjacency stays shared with `g` until edits touch it, and the index
    /// until an update replaces it.
    pub fn from_shared_index(g: Arc<CsrGraph>, index: Arc<TsdIndex>) -> Self {
        debug_assert_eq!(g.n(), index.n(), "index and graph vertex counts must agree");
        DynamicTsd { graph: DynamicGraph::from_base(g.clone()), snapshot: g, tsd: index }
    }

    /// Shared-vs-owned accounting for the underlying COW adjacency.
    pub fn cow_stats(&self) -> CowStats {
        self.graph.cow_stats()
    }

    /// The maintained graph's CSR snapshot, shared: what the index
    /// describes, copied from the rows by each batch that applies an
    /// update.
    pub fn snapshot(&self) -> &Arc<CsrGraph> {
        &self.snapshot
    }

    /// The maintained TSD-index, shared: equal to
    /// `TsdIndex::build(&self.graph().to_csr())` (property-tested in
    /// `tests/dynamic_updates.rs`) at none of its cost.
    pub fn index(&self) -> &Arc<TsdIndex> {
        &self.tsd
    }

    /// An owned copy of the maintained TSD-index.
    pub fn to_index(&self) -> TsdIndex {
        (*self.tsd).clone()
    }

    /// Applies one [`GraphUpdate`] (a batch of one on [`pool::global`]: see
    /// [`Self::apply_batch`]). Returns the number of ego-networks rebuilt
    /// — 0 iff the update was rejected (duplicate/self-loop insert, absent
    /// remove); an applied update always repairs at least its two
    /// endpoints.
    pub fn apply(&mut self, update: GraphUpdate) -> usize {
        self.apply_batch(&[update], pool::global()).repaired
    }

    /// Applies `batch` in order, copies the final graph's rows into a CSR
    /// snapshot and rebases onto it, then rebuilds the TSD forest of each
    /// distinct affected ego-network once from that snapshot, in chunks on
    /// `pool`, and splices the rebuilt forests into a fresh index. A batch
    /// that applies nothing leaves everything untouched.
    pub fn apply_batch(&mut self, batch: &[GraphUpdate], pool: &WorkerPool) -> BatchRepair {
        let (out, affected) = apply_ops(&mut self.graph, batch);
        if out.applied == 0 {
            return out;
        }
        self.snapshot = Arc::new(self.graph.to_csr());
        self.graph.rebase(self.snapshot.clone());
        let patch = write_tsd(pool, &self.snapshot, affected.clone());
        self.tsd = Arc::new(self.tsd.splice(self.snapshot.n(), &affected, &patch));
        out
    }

    /// Read access to the maintained graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Number of vertices currently indexed.
    pub fn n(&self) -> usize {
        self.tsd.n()
    }

    /// Inserts edge `{u, v}` and repairs the affected forests.
    /// Returns the number of ego-networks rebuilt (0 for no-op inserts).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> usize {
        self.apply(GraphUpdate::Insert { u, v })
    }

    /// Deletes edge `{u, v}` and repairs the affected forests.
    /// Returns the number of ego-networks rebuilt (0 if absent).
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> usize {
        self.apply(GraphUpdate::Remove { u, v })
    }

    /// `score(v)` at threshold `k` (counting form of Algorithm 6).
    pub fn score(&self, v: VertexId, k: u32) -> u32 {
        self.tsd.score(v, k, &mut Vec::new())
    }

    /// Social contexts of `v` at threshold `k` (retrieval form).
    pub fn social_contexts(&self, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
        self.tsd.social_contexts_among(self.graph.neighbors(v), v, k)
    }

    /// Scores of all vertices at threshold `k` (for top-r or comparisons).
    pub fn all_scores(&self, k: u32) -> Vec<u32> {
        let mut scratch = Vec::new();
        (0..self.n() as VertexId).map(|v| self.tsd.score(v, k, &mut scratch)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::all_scores;
    use crate::paper::paper_figure1_graph;

    #[test]
    fn matches_static_index_after_build() {
        let (g, _, _) = paper_figure1_graph();
        let dynamic = DynamicTsd::from_csr(&g);
        for k in 2..=5 {
            assert_eq!(dynamic.all_scores(k), all_scores(&g, k), "k={k}");
        }
    }

    #[test]
    fn insert_then_scores_match_rebuilt() {
        let (g, _, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        // Connect the two 4-cliques' free corners: x1(1) - y2(6).
        let rebuilt = dynamic.insert_edge(1, 6);
        assert!(rebuilt >= 2);
        let now = dynamic.graph().to_csr();
        for k in 2..=5 {
            assert_eq!(dynamic.all_scores(k), all_scores(&now, k), "k={k}");
        }
    }

    #[test]
    fn remove_then_scores_match_rebuilt() {
        let (g, v, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        // Remove a bridge inside the ego of v: (x2=2, y1=5).
        assert!(dynamic.remove_edge(2, 5) >= 2);
        let now = dynamic.graph().to_csr();
        for k in 2..=5 {
            assert_eq!(dynamic.all_scores(k), all_scores(&now, k), "k={k}");
        }
        // v's score at k=3 grows: H1 splits into two 3-truss contexts...
        // (x-clique and y-clique no longer bridged through x2.)
        let _ = v;
    }

    #[test]
    fn noop_operations_rebuild_nothing() {
        let (g, _, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        assert_eq!(dynamic.insert_edge(0, 1), 0, "edge already present");
        assert_eq!(dynamic.insert_edge(3, 3), 0, "self-loop");
        assert_eq!(dynamic.remove_edge(15, 14), 0, "absent edge");
    }

    #[test]
    fn grows_vertex_set_on_insert() {
        let (g, _, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        dynamic.insert_edge(0, 40);
        assert_eq!(dynamic.n(), 41);
        assert_eq!(dynamic.score(40, 2), 0);
    }

    #[test]
    fn index_carry_roundtrips_and_stays_incremental() {
        let (g, _, _) = paper_figure1_graph();
        let built = TsdIndex::build(&g);
        // Adopting a static index is a pure copy …
        let mut dynamic = DynamicTsd::from_index(&g, &built);
        assert_eq!(dynamic.to_index(), built, "carry must reproduce the static index exactly");
        // … and the adopted state maintains correctly under edits.
        assert!(dynamic.apply(GraphUpdate::Insert { u: 1, v: 6 }) >= 2);
        assert_eq!(dynamic.apply(GraphUpdate::Insert { u: 1, v: 6 }), 0, "duplicate rejected");
        assert!(dynamic.apply(GraphUpdate::Remove { u: 2, v: 5 }) >= 2);
        let now = dynamic.graph().to_csr();
        assert_eq!(dynamic.to_index(), TsdIndex::build(&now), "carried index == full rebuild");
    }

    #[test]
    fn apply_batch_repairs_each_affected_ego_once() {
        let (g, _, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        let pool = WorkerPool::new(2);
        let one = dynamic.clone().apply_batch(&[GraphUpdate::Remove { u: 2, v: 5 }], &pool);
        assert_eq!((one.applied, one.rejected), (1, 0));
        assert_eq!(one.touched, one.repaired, "one update touches each ego once");
        // Three updates around vertex 0 and 1: both are touched by every
        // one of them, yet rebuilt once each.
        let batch = [
            GraphUpdate::Insert { u: 1, v: 6 },
            GraphUpdate::Remove { u: 0, v: 1 },
            GraphUpdate::Insert { u: 0, v: 1 },
            GraphUpdate::Insert { u: 0, v: 1 }, // duplicate by now
        ];
        let repair = dynamic.apply_batch(&batch, &pool);
        assert_eq!((repair.applied, repair.rejected), (3, 1));
        assert!(repair.touched >= 2 * repair.applied);
        assert!(repair.repaired < repair.touched, "{repair:?}");
        let now = dynamic.graph().to_csr();
        assert_eq!(dynamic.to_index(), TsdIndex::build(&now), "batch repair == full rebuild");
        // A batch that applies nothing keeps the very same index.
        let before = dynamic.index().clone();
        let noop = dynamic.apply_batch(&[GraphUpdate::Remove { u: 2, v: 40 }], &pool);
        assert_eq!((noop.applied, noop.rejected, noop.repaired), (0, 1, 0));
        assert!(Arc::ptr_eq(&before, dynamic.index()));
    }

    /// Each batch's repaired index equals the full rebuild of its graph,
    /// also when a batch grows the vertex set (`Insert{0,20}` adds
    /// 17..=20, and the splice leaves 17..20 empty).
    #[test]
    fn batch_repairs_match_a_full_rebuild_as_the_graph_grows() {
        let (g, _, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        let batches = [
            vec![GraphUpdate::Insert { u: 1, v: 6 }, GraphUpdate::Remove { u: 2, v: 5 }],
            vec![GraphUpdate::Insert { u: 0, v: 20 }, GraphUpdate::Insert { u: 6, v: 20 }],
            vec![GraphUpdate::Remove { u: 1, v: 6 }],
        ];
        for batch in &batches {
            dynamic.apply_batch(batch, &WorkerPool::new(2));
            let now = dynamic.graph().to_csr();
            assert_eq!(dynamic.n(), now.n());
            assert_eq!(**dynamic.index(), TsdIndex::build(&now), "after {batch:?}");
        }
        assert_eq!(dynamic.n(), 21);
    }

    /// The carry shares the published graph and index. A batch splices its
    /// own snapshot and rebases onto it, so it leaves no owned adjacency
    /// behind, every slot is served from that snapshot's storage, and no
    /// shared index or graph is written.
    #[test]
    fn shared_carry_keeps_adjacency_cow_until_edits() {
        let (g, _, _) = paper_figure1_graph();
        let shared = Arc::new(g);
        let built = Arc::new(TsdIndex::build(&shared));
        let mut dynamic = DynamicTsd::from_shared_index(shared.clone(), built.clone());
        assert!(Arc::ptr_eq(dynamic.index(), &built), "the carry shares the index");
        assert!(Arc::ptr_eq(dynamic.snapshot(), &shared), "and the graph");
        let before = dynamic.cow_stats();
        assert_eq!(before.owned, 0, "carry materializes no adjacency");
        assert_eq!(before.shared, shared.n());
        dynamic.insert_edge(1, 6);
        let snapshot = dynamic.snapshot().clone();
        assert!(snapshot.neighbors(1).contains(&6) && !shared.neighbors(1).contains(&6));
        assert_eq!(*snapshot, dynamic.graph().to_csr(), "the snapshot is the edited graph");
        assert_eq!((dynamic.cow_stats().owned, dynamic.cow_stats().shared), (0, shared.n()));
        let graph = dynamic.graph();
        assert!((0..graph.n() as VertexId)
            .all(|v| graph.neighbors(v).as_ptr() == snapshot.neighbors(v).as_ptr()));
        assert_eq!(*built, TsdIndex::build(&shared), "an update never writes a shared index");
        assert_eq!(dynamic.to_index(), TsdIndex::build(&snapshot), "the index is the snapshot's");
        dynamic.insert_edge(1, 6);
        assert!(Arc::ptr_eq(dynamic.snapshot(), &snapshot), "a no-op keeps the snapshot");
    }

    /// An insert whose endpoints share 300 neighbours affects 302 egos, so
    /// its repair spans two chunks; on any pool, the maintained index
    /// equals the sequential build of the final graph byte for byte.
    #[test]
    fn a_repair_spanning_chunks_equals_the_sequential_builds() {
        let edges = (2..302u32).flat_map(|w| [(0, w), (1, w), (w, w + 1), (w, w + 2)]);
        let g = sd_graph::GraphBuilder::new().extend_edges(edges).build();
        let batch = [GraphUpdate::Insert { u: 0, v: 1 }, GraphUpdate::Remove { u: 2, v: 3 }];
        for threads in [1, 2, 4] {
            let mut dynamic = DynamicTsd::from_csr(&g);
            let repair = dynamic.apply_batch(&batch, &WorkerPool::new(threads));
            assert!(repair.repaired > crate::parallel::SCAN_CHUNK, "{repair:?}");
            let now = dynamic.snapshot().clone();
            assert_eq!(now.m(), g.m(), "one insert, one removal");
            let tsd = dynamic.index().to_bytes();
            assert_eq!(tsd, TsdIndex::build(&now).to_bytes(), "t={threads}");
        }
    }

    #[test]
    fn contexts_match_static_after_edits() {
        let (g, v, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        dynamic.insert_edge(1, 6);
        dynamic.remove_edge(2, 5);
        let now = dynamic.graph().to_csr();
        for k in 2..=5 {
            assert_eq!(
                dynamic.social_contexts(v, k),
                crate::score::social_contexts(&now, v, k),
                "k={k}"
            );
        }
    }
}
