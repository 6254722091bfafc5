//! The uniform engine surface: the four search algorithms behind one
//! object-safe trait.
//!
//! The paper's experimental lineup (Algorithms 3–8) grew up as four
//! differently shaped APIs — two free functions and two index structs
//! whose `top_r` signatures disagreed. [`DiversityEngine`] unifies them:
//! every engine is built from a graph via [`build_engine`] (or revived from
//! a fingerprinted blob via [`crate::SearchService::import_index`] /
//! [`crate::SearchService::import_bundle`]), answers the same
//! [`QuerySpec`], and reports per-query [`crate::SearchMetrics`]. The
//! [`crate::SearchService`] facade sits on top, adding lazy index construction,
//! [`EngineKind::Auto`] selection, and batched queries.
//!
//! ```
//! use std::sync::Arc;
//! use sd_graph::GraphBuilder;
//! use sd_core::{build_engine, paper_figure1_edges, EngineKind, QuerySpec};
//!
//! let g = Arc::new(GraphBuilder::new().extend_edges(paper_figure1_edges()).build());
//! let spec = QuerySpec::new(4, 1)?;
//! for kind in EngineKind::ALL {
//!     let engine = build_engine(kind, g.clone());
//!     let result = engine.top_r(&spec)?;
//!     assert_eq!(result.entries[0].score, 3, "{} disagrees", engine.name());
//! }
//! # Ok::<(), sd_core::SearchError>(())
//! ```

use std::sync::Arc;

use bytes::Bytes;
use serde::Serialize;

use sd_graph::{CsrGraph, VertexId};

use crate::bound::BoundOptions;
use crate::config::{DiversityConfig, TopRResult};
use crate::error::{DecodeError, SearchError};
use crate::gct::GctIndex;
use crate::pool::{self, WorkerPool};
use crate::tsd::TsdIndex;

/// Selects which engine answers a query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize)]
pub enum EngineKind {
    /// The GCT-index, or the TSD-index when a [`crate::SearchService`]
    /// has only that one built — resolved before any engine runs.
    #[default]
    Auto,
    /// Algorithm 3: full online scan.
    Online,
    /// Algorithm 4: sparsification + Lemma-2 upper-bound pruning.
    Bound,
    /// Algorithms 5–6: the maximum-spanning-forest TSD-index.
    Tsd,
    /// Algorithms 7–8 + Lemma 3: the compressed GCT-index.
    Gct,
}

impl EngineKind {
    /// The four concrete engines (everything but [`EngineKind::Auto`]), in
    /// the paper's presentation order.
    pub const ALL: [EngineKind; 4] =
        [EngineKind::Online, EngineKind::Bound, EngineKind::Tsd, EngineKind::Gct];

    /// Stable lowercase name (used in metrics and error messages).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Online => "online",
            EngineKind::Bound => "bound",
            EngineKind::Tsd => "tsd",
            EngineKind::Gct => "gct",
        }
    }

    /// Whether this engine kind has a serialized index form
    /// ([`DiversityEngine::to_bytes`], revivable through
    /// [`crate::SearchService::import_index`] /
    /// [`crate::SearchService::import_bundle`]).
    pub fn serializable(self) -> bool {
        matches!(self, EngineKind::Tsd | EngineKind::Gct)
    }

    /// Whether constructing an engine of this kind is `O(1)` — true for
    /// the index-free kinds, which [`crate::SearchService::warmup`] and
    /// updates therefore construct inline. The index-building kinds (TSD,
    /// GCT) are scheduled onto the [`crate::SearchService`]'s pool
    /// instead.
    pub fn builds_inline(self) -> bool {
        matches!(self, EngineKind::Online | EngineKind::Bound)
    }

    /// Stable on-disk tag used by the [`crate::envelope::IndexEnvelope`]
    /// header. [`EngineKind::Auto`] has no tag (it never names a concrete
    /// index); tags are append-only across format revisions. Tag 5 is
    /// retired and never reused: decoders refuse it as an unknown tag.
    pub fn tag(self) -> u8 {
        match self {
            EngineKind::Auto => 0,
            EngineKind::Online => 1,
            EngineKind::Bound => 2,
            EngineKind::Tsd => 3,
            EngineKind::Gct => 4,
        }
    }

    /// Inverse of [`Self::tag`] for *concrete* kinds; `0` (Auto) and unknown
    /// tags return `None`.
    pub fn from_tag(tag: u8) -> Option<EngineKind> {
        match tag {
            1 => Some(EngineKind::Online),
            2 => Some(EngineKind::Bound),
            3 => Some(EngineKind::Tsd),
            4 => Some(EngineKind::Gct),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A validated top-r query: `(k, r)` plus the engine asked to answer it.
///
/// Construction rejects `k < 2` and `r == 0`; the remaining graph-dependent
/// check (`r ≤ n`) happens when the spec meets an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct QuerySpec {
    config: DiversityConfig,
    engine: EngineKind,
}

impl QuerySpec {
    /// A validated query for threshold `k` and result size `r`, answered by
    /// [`EngineKind::Auto`] unless [`Self::with_engine`] overrides it.
    pub fn new(k: u32, r: usize) -> Result<Self, SearchError> {
        Ok(QuerySpec { config: DiversityConfig::new(k, r)?, engine: EngineKind::Auto })
    }

    /// Routes this query to a specific engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Trussness threshold.
    pub fn k(&self) -> u32 {
        self.config.k
    }

    /// Result size.
    pub fn r(&self) -> usize {
        self.config.r
    }

    /// The engine this query is routed to.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The underlying raw parameter pair.
    pub fn config(&self) -> &DiversityConfig {
        &self.config
    }
}

/// One of the paper's four interchangeable search engines, behind an
/// object-safe interface.
///
/// All engines answering the same [`QuerySpec`] on the same graph return
/// identical score multisets (enforced by `tests/equivalence.rs` through
/// `Box<dyn DiversityEngine>`). They differ only in preprocessing cost and
/// per-query work.
pub trait DiversityEngine: std::fmt::Debug + Send + Sync {
    /// Which engine this is.
    fn kind(&self) -> EngineKind;

    /// Stable engine name (equals `self.kind().name()`).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// The graph this engine answers queries about.
    fn graph(&self) -> &CsrGraph;

    /// `score(v)` at threshold `k` (Definition 3): the number of maximal
    /// connected k-trusses in `v`'s ego-network.
    fn score(&self, v: VertexId, k: u32) -> u32;

    /// The social contexts `SC(v)` at threshold `k`, in global vertex ids,
    /// ordered (size desc, first vertex asc).
    fn social_contexts(&self, v: VertexId, k: u32) -> Vec<Vec<VertexId>>;

    /// Answers a top-r query. Validates `r ≤ n` against the engine's graph,
    /// then delegates to the algorithm; the result's metrics carry this
    /// engine's name.
    fn top_r(&self, spec: &QuerySpec) -> Result<TopRResult, SearchError> {
        spec.config().check_against(self.graph().n())?;
        let mut result = self.top_r_unchecked(spec.config());
        result.metrics.engine = self.name();
        Ok(result)
    }

    /// The raw algorithm behind [`Self::top_r`], with the paper's original
    /// clamping semantics (`r` truncated to `n`). Prefer [`Self::top_r`].
    fn top_r_unchecked(&self, config: &DiversityConfig) -> TopRResult;

    /// Serializes the engine's index, if it has one (TSD and GCT do;
    /// the others return [`SearchError::SerializationUnsupported`]).
    fn to_bytes(&self) -> Result<Bytes, SearchError> {
        Err(SearchError::SerializationUnsupported { engine: self.name() })
    }

    /// The engine's shared [`TsdIndex`], if it is the TSD engine — the
    /// hook that lets [`crate::SearchService::apply_updates`] *carry* an
    /// already-built index into a [`crate::dynamic::DynamicTsd`]
    /// maintenance session (an `Arc` clone) instead of rebuilding from
    /// scratch. Every other engine returns `None`.
    fn tsd_index(&self) -> Option<&Arc<TsdIndex>> {
        None
    }

    /// The engine's shared [`GctIndex`], if it is the GCT engine — the
    /// analogous carry hook: [`crate::SearchService::apply_updates`] hands
    /// it to its [`crate::dynamic::DynamicTsd`], which repairs only the
    /// affected entries instead of re-decomposing the whole graph. Every
    /// other engine returns `None`.
    fn gct_index(&self) -> Option<&Arc<GctIndex>> {
        None
    }
}

/// Algorithm 3 behind the trait: the index-free full scan, single-threaded
/// as in the paper.
#[derive(Clone, Debug)]
pub struct OnlineEngine {
    g: Arc<CsrGraph>,
}

impl OnlineEngine {
    /// An online engine over `g` (no preprocessing).
    pub fn new(g: Arc<CsrGraph>) -> Self {
        OnlineEngine { g }
    }
}

impl DiversityEngine for OnlineEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Online
    }

    fn graph(&self) -> &CsrGraph {
        &self.g
    }

    fn score(&self, v: VertexId, k: u32) -> u32 {
        crate::score::score(&self.g, v, k)
    }

    fn social_contexts(&self, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
        crate::score::social_contexts(&self.g, v, k)
    }

    fn top_r_unchecked(&self, config: &DiversityConfig) -> TopRResult {
        crate::online::online_top_r(&self.g, config)
    }
}

/// Algorithm 4 behind the trait: sparsify + upper-bound pruned search,
/// single-threaded as in the paper, so `score_computations` is its search
/// space.
#[derive(Clone, Debug)]
pub struct BoundEngine {
    g: Arc<CsrGraph>,
    options: BoundOptions,
}

impl BoundEngine {
    /// A bound engine over `g` with both pruning techniques enabled.
    pub fn new(g: Arc<CsrGraph>) -> Self {
        Self::with_options(g, BoundOptions::default())
    }

    /// As [`Self::new`] with the pruning techniques individually toggled
    /// (the DESIGN.md §6 ablation).
    pub fn with_options(g: Arc<CsrGraph>, options: BoundOptions) -> Self {
        BoundEngine { g, options }
    }
}

impl DiversityEngine for BoundEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Bound
    }

    fn graph(&self) -> &CsrGraph {
        &self.g
    }

    fn score(&self, v: VertexId, k: u32) -> u32 {
        crate::score::score(&self.g, v, k)
    }

    fn social_contexts(&self, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
        crate::score::social_contexts(&self.g, v, k)
    }

    fn top_r_unchecked(&self, config: &DiversityConfig) -> TopRResult {
        crate::bound::bound_top_r_with(&self.g, config, self.options)
    }
}

/// Algorithms 5–6 behind the trait: the TSD-index.
///
/// The index is held behind an [`Arc`] so an update carry can share the
/// same `TsdIndex` with the epoch that serves it, without a second copy.
#[derive(Debug)]
pub struct TsdEngine {
    g: Arc<CsrGraph>,
    index: Arc<TsdIndex>,
    /// Reusable endpoint buffer for `TsdIndex::score`, so per-vertex score
    /// sweeps through the trait don't allocate per call.
    scratch: parking_lot::Mutex<Vec<VertexId>>,
}

impl Clone for TsdEngine {
    fn clone(&self) -> Self {
        TsdEngine {
            g: self.g.clone(),
            index: self.index.clone(),
            scratch: crate::lock_order::TSD_SCRATCH.mutex(Vec::new()),
        }
    }
}

impl TsdEngine {
    /// Builds the TSD-index of `g` (Algorithm 5).
    pub fn build(g: Arc<CsrGraph>) -> Self {
        let index = Arc::new(TsdIndex::build(&g));
        TsdEngine { g, index, scratch: crate::lock_order::TSD_SCRATCH.mutex(Vec::new()) }
    }

    /// Attaches a prebuilt index to its graph, verifying vertex counts.
    pub fn from_parts(g: Arc<CsrGraph>, index: TsdIndex) -> Result<Self, SearchError> {
        Self::from_shared(g, Arc::new(index))
    }

    /// As [`Self::from_parts`] for an index that is already shared — the
    /// epoch-publish path hands the update carry's own `Arc` to the engine
    /// without copying the forests.
    pub fn from_shared(g: Arc<CsrGraph>, index: Arc<TsdIndex>) -> Result<Self, SearchError> {
        if index.n() != g.n() {
            return Err(SearchError::GraphMismatch { graph_n: g.n(), index_n: index.n() });
        }
        Ok(TsdEngine { g, index, scratch: crate::lock_order::TSD_SCRATCH.mutex(Vec::new()) })
    }

    /// The underlying index (size accounting, forests, score profiles).
    pub fn index(&self) -> &TsdIndex {
        &self.index
    }

    /// The underlying index, shared (the epoch-carry handle).
    pub fn shared_index(&self) -> Arc<TsdIndex> {
        self.index.clone()
    }
}

impl DiversityEngine for TsdEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Tsd
    }

    fn graph(&self) -> &CsrGraph {
        &self.g
    }

    fn score(&self, v: VertexId, k: u32) -> u32 {
        self.index.score(v, k, &mut self.scratch.lock()) // lock: tsd.scratch
    }

    fn social_contexts(&self, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
        self.index.social_contexts(&self.g, v, k)
    }

    fn top_r_unchecked(&self, config: &DiversityConfig) -> TopRResult {
        self.index.top_r(&self.g, config)
    }

    fn to_bytes(&self) -> Result<Bytes, SearchError> {
        Ok(self.index.to_bytes())
    }

    fn tsd_index(&self) -> Option<&Arc<TsdIndex>> {
        Some(&self.index)
    }
}

/// Algorithms 7–8 behind the trait: the compressed GCT-index, held behind
/// an [`Arc`] like [`TsdEngine`]'s so an update carry can share it.
#[derive(Clone, Debug)]
pub struct GctEngine {
    g: Arc<CsrGraph>,
    index: Arc<GctIndex>,
}

impl GctEngine {
    /// Builds the GCT-index of `g` (Algorithm 7).
    pub fn build(g: Arc<CsrGraph>) -> Self {
        let index = Arc::new(GctIndex::build(&g));
        GctEngine { g, index }
    }

    /// Attaches a prebuilt index to its graph, verifying vertex counts.
    pub fn from_parts(g: Arc<CsrGraph>, index: GctIndex) -> Result<Self, SearchError> {
        Self::from_shared(g, Arc::new(index))
    }

    /// As [`Self::from_parts`] for an index that is already shared — the
    /// epoch-publish path hands the update carry's own `Arc` to the engine.
    pub fn from_shared(g: Arc<CsrGraph>, index: Arc<GctIndex>) -> Result<Self, SearchError> {
        if index.n() != g.n() {
            return Err(SearchError::GraphMismatch { graph_n: g.n(), index_n: index.n() });
        }
        Ok(GctEngine { g, index })
    }

    /// The underlying index (size accounting, per-vertex entries).
    pub fn index(&self) -> &GctIndex {
        &self.index
    }

    /// The underlying index, shared (the epoch-carry handle).
    pub fn shared_index(&self) -> Arc<GctIndex> {
        self.index.clone()
    }
}

impl DiversityEngine for GctEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Gct
    }

    fn graph(&self) -> &CsrGraph {
        &self.g
    }

    fn score(&self, v: VertexId, k: u32) -> u32 {
        self.index.score(v, k)
    }

    fn social_contexts(&self, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
        self.index.social_contexts(v, k)
    }

    fn top_r_unchecked(&self, config: &DiversityConfig) -> TopRResult {
        self.index.top_r(config)
    }

    fn to_bytes(&self) -> Result<Bytes, SearchError> {
        Ok(self.index.to_bytes())
    }

    fn gct_index(&self) -> Option<&Arc<GctIndex>> {
        Some(&self.index)
    }
}

/// The factory: builds the engine of the requested kind over `g`, running
/// an index build on the process-wide [`pool::global`] pool.
///
/// [`EngineKind::Auto`] builds the GCT engine: nothing is built yet, so
/// there is no TSD-index to prefer.
pub fn build_engine(kind: EngineKind, g: Arc<CsrGraph>) -> Box<dyn DiversityEngine> {
    build_engine_in(kind, g, pool::global())
}

/// As [`build_engine`], on an explicit pool — how a
/// [`crate::SearchService`] threads its pool down to the engines it
/// builds. The TSD and GCT indexes are built in fixed vertex chunks on
/// `pool` (inline, one chunk after another, on a 1-thread pool) and are
/// byte-identical to [`TsdIndex::build`] / [`GctIndex::build`] (see
/// [`crate::parallel`]). The Online and Bound engines have no index, and
/// their scans run single-threaded.
pub fn build_engine_in(
    kind: EngineKind,
    g: Arc<CsrGraph>,
    pool: &WorkerPool,
) -> Box<dyn DiversityEngine> {
    match kind {
        EngineKind::Online => Box::new(OnlineEngine::new(g)),
        EngineKind::Bound => Box::new(BoundEngine::new(g)),
        EngineKind::Tsd => {
            let index = Arc::new(crate::parallel::build_tsd_pooled(pool, &g));
            Box::new(TsdEngine {
                g,
                index,
                scratch: crate::lock_order::TSD_SCRATCH.mutex(Vec::new()),
            })
        }
        EngineKind::Auto | EngineKind::Gct => {
            Box::new(GctEngine { index: Arc::new(crate::parallel::build_gct_pooled(pool, &g)), g })
        }
    }
}

/// Revives a *raw* serialized index (produced by
/// [`DiversityEngine::to_bytes`]) as an engine over `g`. Only TSD and GCT
/// have serialized forms. A TSD forest that is not a forest over its
/// owner's neighborhood in `g` fails with [`DecodeError::InvalidEntry`]
/// (GCT entries are checked by [`GctIndex::from_bytes`] itself).
///
/// Crate-private since 0.4.0: the attachment check here is by vertex count
/// only, so a raw blob serialized from a *different* graph with the same
/// `n` (e.g. an older snapshot after edge churn) would be accepted and
/// serve that graph's answers. Every public decode path goes through the
/// fingerprinted envelope/bundle layer — [`crate::SearchService::import_index`]
/// and [`crate::SearchService::import_bundle`] — which rejects wrong-graph
/// blobs with [`SearchError::FingerprintMismatch`] before this function
/// ever runs.
pub(crate) fn decode_engine(
    kind: EngineKind,
    g: Arc<CsrGraph>,
    bytes: Bytes,
) -> Result<Box<dyn DiversityEngine>, SearchError> {
    match kind {
        EngineKind::Tsd => {
            let engine = TsdEngine::from_parts(g, TsdIndex::from_bytes(bytes)?)?;
            if !engine.index.forests_fit(&engine.g) {
                return Err(DecodeError::InvalidEntry.into());
            }
            Ok(Box::new(engine))
        }
        EngineKind::Gct => {
            let index = GctIndex::from_bytes(bytes)?;
            Ok(Box::new(GctEngine::from_parts(g, index)?))
        }
        other => Err(SearchError::SerializationUnsupported { engine: other.name() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DecodeError;
    use crate::paper::paper_figure1_graph;

    fn figure1() -> (Arc<CsrGraph>, VertexId) {
        let (g, v, _) = paper_figure1_graph();
        (Arc::new(g), v)
    }

    #[test]
    fn spec_validation() {
        assert_eq!(QuerySpec::new(1, 5), Err(SearchError::InvalidK { k: 1 }));
        assert_eq!(QuerySpec::new(3, 0), Err(SearchError::InvalidR));
        let spec = QuerySpec::new(3, 5).unwrap();
        assert_eq!((spec.k(), spec.r(), spec.engine()), (3, 5, EngineKind::Auto));
        assert_eq!(spec.with_engine(EngineKind::Tsd).engine(), EngineKind::Tsd);
    }

    #[test]
    fn every_engine_answers_figure1() {
        let (g, v) = figure1();
        let spec = QuerySpec::new(4, 1).unwrap();
        for kind in EngineKind::ALL {
            let engine = build_engine(kind, g.clone());
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.graph().n(), g.n());
            let result = engine.top_r(&spec).unwrap();
            assert_eq!(result.entries[0].vertex, v, "{kind}");
            assert_eq!(result.entries[0].score, 3, "{kind}");
            assert_eq!(result.metrics.engine, kind.name(), "{kind}");
            assert_eq!(engine.score(v, 4), 3, "{kind}");
            assert_eq!(engine.social_contexts(v, 4).len(), 3, "{kind}");
        }
    }

    #[test]
    fn oversized_r_is_an_error_on_the_trait_surface() {
        let (g, _) = figure1();
        let n = g.n();
        let engine = build_engine(EngineKind::Online, g);
        let err = engine.top_r(&QuerySpec::new(4, n + 1).unwrap());
        assert_eq!(err.unwrap_err(), SearchError::ResultSizeExceedsGraph { r: n + 1, n });
    }

    /// Auto builds the GCT engine on a tiny graph and on a 30,000-edge path
    /// alike.
    #[test]
    fn auto_builds_the_gct_engine_at_any_size() {
        let (g, _) = figure1();
        let path = sd_graph::GraphBuilder::new().extend_edges((0..30_000).map(|v| (v, v + 1)));
        for g in [g, Arc::new(path.build())] {
            let engine = build_engine(EngineKind::Auto, g);
            assert_eq!(engine.kind(), EngineKind::Gct);
        }
    }

    #[test]
    fn serialization_capability_split() {
        let (g, _) = figure1();
        for kind in EngineKind::ALL {
            let engine = build_engine(kind, g.clone());
            assert_eq!(engine.to_bytes().is_ok(), kind.serializable(), "{kind}");
        }
    }

    #[test]
    fn trait_level_roundtrip() {
        let (g, v) = figure1();
        for kind in [EngineKind::Tsd, EngineKind::Gct] {
            let engine = build_engine(kind, g.clone());
            let blob = engine.to_bytes().unwrap();
            let back = decode_engine(kind, g.clone(), blob).unwrap();
            for k in 2..=5 {
                assert_eq!(back.score(v, k), engine.score(v, k), "{kind} k={k}");
            }
        }
    }

    #[test]
    fn decode_engine_rejects_garbage_and_wrong_kinds() {
        let (g, _) = figure1();
        assert_eq!(
            decode_engine(EngineKind::Tsd, g.clone(), Bytes::from_static(b"junk")).unwrap_err(),
            SearchError::Decode(DecodeError::Truncated)
        );
        assert_eq!(
            decode_engine(EngineKind::Online, g.clone(), Bytes::from_static(b"")).unwrap_err(),
            SearchError::SerializationUnsupported { engine: "online" }
        );
        // A TSD blob is not a GCT blob.
        let tsd_blob = build_engine(EngineKind::Tsd, g.clone()).to_bytes().unwrap();
        assert_eq!(
            decode_engine(EngineKind::Gct, g, tsd_blob).unwrap_err(),
            SearchError::Decode(DecodeError::BadMagic)
        );
    }

    #[test]
    fn decode_engine_rejects_mismatched_graph() {
        let (g, _) = figure1();
        let blob = build_engine(EngineKind::Gct, g.clone()).to_bytes().unwrap();
        let smaller = Arc::new(
            sd_graph::GraphBuilder::new().extend_edges([(0u32, 1u32), (1, 2), (0, 2)]).build(),
        );
        assert_eq!(
            decode_engine(EngineKind::Gct, smaller, blob).unwrap_err(),
            SearchError::GraphMismatch { graph_n: 3, index_n: g.n() }
        );
    }
}
