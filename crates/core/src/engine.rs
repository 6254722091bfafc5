//! The uniform engine surface: the four search algorithms behind one
//! object-safe trait.
//!
//! The paper's experimental lineup (Algorithms 3–8) grew up as four
//! differently shaped APIs — two free functions and two index structs
//! whose `top_r` signatures disagreed. [`DiversityEngine`] unifies them:
//! every engine is built from a graph via [`build_engine`] (the GCT engine
//! can also be attached to a decoded index with [`GctEngine::from_parts`]),
//! answers the same [`QuerySpec`], and reports per-query
//! [`crate::SearchMetrics`]. The [`crate::SearchService`] facade sits on
//! top of the GCT engine, adding lazy index construction, update repair,
//! and batched queries.
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

use serde::Serialize;

use sd_graph::{CsrGraph, VertexId};

use crate::config::{DiversityConfig, TopRResult};
use crate::error::SearchError;
use crate::gct::GctIndex;
use crate::parallel::write_gct;
use crate::pool::{self, WorkerPool};
use crate::tsd::TsdIndex;

/// Selects which engine answers a query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize)]
pub enum EngineKind {
    /// The GCT-index: [`build_engine`] builds it, and a
    /// [`crate::SearchService`] answers with it.
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

    /// Stable one-byte tag naming a concrete kind on the wire (a query's
    /// engine field in `sd-server`'s protocol). [`EngineKind::Auto`] is 0
    /// (it never names a concrete index); tags are append-only. Tag 5 is
    /// retired and never reused: [`Self::from_tag`] reads it as unknown.
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
/// identical score multisets, and all but Bound identical entries (enforced
/// by `tests/equivalence.rs` through `Box<dyn DiversityEngine>`). They
/// differ only in preprocessing cost and per-query work.
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
    /// in [`sd_graph::Dsu::groups`]' order.
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

    /// The engine's shared [`TsdIndex`], if it is the TSD engine (size
    /// accounting). Every other engine returns `None`.
    fn tsd_index(&self) -> Option<&Arc<TsdIndex>> {
        None
    }

    /// The engine's shared [`GctIndex`], if it is the GCT engine (size
    /// accounting, the persisted bytes of [`GctIndex::to_bytes`], or
    /// Hybrid's [`crate::hybrid::HybridIndex::from_gct`] without a
    /// rebuild). Every other engine returns `None`.
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
}

impl BoundEngine {
    /// A bound engine over `g` with both pruning techniques enabled.
    pub fn new(g: Arc<CsrGraph>) -> Self {
        BoundEngine { g }
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
        crate::bound::bound_top_r(&self.g, config)
    }
}

/// Algorithms 5–6 behind the trait: the TSD-index, held behind the [`Arc`]
/// that [`DiversityEngine::tsd_index`] hands out.
#[derive(Clone, Debug)]
pub struct TsdEngine {
    g: Arc<CsrGraph>,
    index: Arc<TsdIndex>,
}

impl TsdEngine {
    /// Builds the TSD-index of `g` (Algorithm 5).
    pub fn build(g: Arc<CsrGraph>) -> Self {
        let index = Arc::new(TsdIndex::build(&g));
        TsdEngine { g, index }
    }

    /// The underlying index (size accounting, forests, score profiles).
    pub fn index(&self) -> &TsdIndex {
        &self.index
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
        self.index.score(v, k, &mut Vec::new())
    }

    fn social_contexts(&self, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
        self.index.social_contexts(&self.g, v, k)
    }

    fn top_r_unchecked(&self, config: &DiversityConfig) -> TopRResult {
        self.index.top_r(&self.g, config)
    }

    fn tsd_index(&self) -> Option<&Arc<TsdIndex>> {
        Some(&self.index)
    }
}

/// Algorithms 7–8 behind the trait: the compressed GCT-index, held behind
/// the [`Arc`] that [`DiversityEngine::gct_index`] hands out.
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

    /// As [`Self::build`], in fixed vertex chunks on `pool`, byte-identical
    /// to the sequential build (see [`crate::parallel`]).
    pub(crate) fn build_in(g: Arc<CsrGraph>, pool: &WorkerPool) -> Self {
        let index = Arc::new(write_gct(pool, &g, g.vertices().collect()).finish());
        GctEngine { g, index }
    }

    /// Attaches a prebuilt index to its graph, verifying vertex counts
    /// ([`GctIndex::from_bytes`] checks a decoded index's entries itself).
    pub fn from_parts(g: Arc<CsrGraph>, index: GctIndex) -> Result<Self, SearchError> {
        if index.n() != g.n() {
            return Err(SearchError::GraphMismatch { graph_n: g.n(), index_n: index.n() });
        }
        Ok(GctEngine { g, index: Arc::new(index) })
    }

    /// The underlying index (size accounting, per-vertex entries).
    pub fn index(&self) -> &GctIndex {
        &self.index
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

    fn gct_index(&self) -> Option<&Arc<GctIndex>> {
        Some(&self.index)
    }
}

/// The factory: builds the engine of the requested kind over `g`, running
/// an index build on the process-wide [`pool::global`] pool.
///
/// [`EngineKind::Auto`] builds the GCT engine, the one a
/// [`crate::SearchService`] answers Auto with.
pub fn build_engine(kind: EngineKind, g: Arc<CsrGraph>) -> Box<dyn DiversityEngine> {
    build_engine_in(kind, g, pool::global())
}

/// As [`build_engine`], on an explicit pool. Only the GCT-index is built
/// on `pool`, in fixed vertex chunks (inline, one chunk after another, on
/// a 1-thread pool), byte-identical to [`GctIndex::build`] (see
/// [`crate::parallel`]). The TSD-index is
/// built by [`TsdEngine::build`], the paper's single-threaded Algorithm 5,
/// and the Online and Bound engines have no index; their scans run
/// single-threaded.
pub fn build_engine_in(
    kind: EngineKind,
    g: Arc<CsrGraph>,
    pool: &WorkerPool,
) -> Box<dyn DiversityEngine> {
    match kind {
        EngineKind::Online => Box::new(OnlineEngine::new(g)),
        EngineKind::Bound => Box::new(BoundEngine::new(g)),
        EngineKind::Tsd => Box::new(TsdEngine::build(g)),
        EngineKind::Auto | EngineKind::Gct => Box::new(GctEngine::build_in(g, pool)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn from_parts_rejects_a_mismatched_graph() {
        let (g, _) = figure1();
        let smaller = Arc::new(
            sd_graph::GraphBuilder::new().extend_edges([(0u32, 1u32), (1, 2), (0, 2)]).build(),
        );
        let gct = GctEngine::from_parts(smaller, GctIndex::build(&g));
        assert_eq!(gct.unwrap_err(), SearchError::GraphMismatch { graph_n: 3, index_n: g.n() });
    }
}
