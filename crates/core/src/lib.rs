//! # sd-core — truss-based structural diversity search
//!
//! The paper's primary contribution: given an undirected graph `G`, a
//! trussness threshold `k`, and a result size `r`, find the `r` vertices
//! whose ego-networks decompose into the most maximal connected k-trusses
//! (*social contexts*), and return those contexts.
//!
//! ## The engine surface
//!
//! Four interchangeable engines, matching the paper's experimental lineup,
//! all behind the object-safe [`DiversityEngine`] trait:
//!
//! | engine | paper | [`EngineKind`] | preprocessing |
//! |---|---|---|---|
//! | online baseline | Algorithm 3 | `Online` | none |
//! | bound-pruned | Algorithm 4 (sparsify + Lemma 2) | `Bound` | none |
//! | TSD-index | Algorithms 5–6 | `Tsd` | max spanning forests |
//! | GCT-index | Algorithms 7–8 + Lemma 3 | `Gct` | compressed forests + per-k score order |
//!
//! The GCT-index is the one index with a serialized form
//! ([`GctIndex::to_bytes`]). Beyond the paper, whose GCT query scores every
//! vertex by Lemma 3, it keeps a per-k score order, so a top-r query reads
//! r vertices; the order is derived state, rebuilt on import, not persisted.
//!
//! The paper's Exp-4 competitor (per-k rankings) is a plain index in
//! [`hybrid`] for that experiment, not an engine: the GCT-index's score
//! order with Algorithm 2's contexts.
//!
//! Build any engine with [`build_engine`], or let a [`SearchService`] own
//! the graph and serve the GCT-index ([`SearchService::SERVED`], which
//! [`EngineKind::Auto`] names; a query for Online, Bound or TSD is refused
//! with [`SearchError::EngineNotServed`]), build it once behind a lock (a
//! query that finds the index unbuilt joins the build, which runs in
//! vertex chunks on the shared worker pool, and the index answers it), and
//! mutate the graph *under traffic* through epoch-swapped snapshots
//! ([`SearchService::apply_updates`], which repairs the GCT-index from the
//! epoch it replaces) — all through `&self`, so one service shared via
//! `Arc` serves any number of threads:
//!
//! ```
//! use sd_core::{paper_figure1_edges, QuerySpec, SearchService};
//! use sd_graph::GraphBuilder;
//!
//! let g = GraphBuilder::new().extend_edges(paper_figure1_edges()).build();
//! let service = SearchService::new(g);
//! let result = service.top_r(&QuerySpec::new(4, 1)?)?;
//! assert_eq!(result.entries[0].score, 3);
//! # Ok::<(), sd_core::SearchError>(())
//! ```
//!
//! Queries are validated ([`QuerySpec::new`] rejects `k < 2` / `r == 0`;
//! the engine rejects `r > n`) and every failure is a [`SearchError`].
//! Index persistence goes through one fingerprinted frame, the
//! [`IndexBundle`]: [`SearchService::export_bundle`] writes the GCT-index
//! behind the graph's fingerprint and a checksum of its bytes, and
//! [`SearchService::import_bundle`] refuses blobs
//! built from a different graph or corrupted on the way; there is no
//! fingerprint-less public decode path. (The 0.2 single-threaded
//! `Searcher` facade, deprecated in 0.3.0, is removed as of 0.4.0 — see
//! the "Upgrade notes" section of the repository's CHANGES.md.)
//!
//! All engines return [`TopRResult`]s with the same scores, and all but
//! Bound the same entries; this is enforced by cross-engine tests and
//! property tests driving the engines through `Box<dyn DiversityEngine>`
//! (see `tests/`). The competitor
//! diversity models live under [`baselines`].

pub mod baselines;
pub mod bound;
pub mod cancel;
pub mod config;
pub mod egonet;
pub mod engine;
pub mod envelope;
pub mod error;
pub mod gct;
pub mod hybrid;
pub mod lock_order;
pub mod online;
pub mod paper;
pub mod parallel;
pub mod pool;
pub mod score;
pub mod service;
pub mod tcp;
pub mod topr;
pub mod tsd;

pub use bound::{sparsify, upper_bounds, Sparsified};
pub use cancel::CancelToken;
pub use config::{DiversityConfig, SearchMetrics, TopREntry, TopRResult};
pub use egonet::{AllEgoNetworks, EgoNetwork};
pub use engine::{
    build_engine, build_engine_in, BoundEngine, DiversityEngine, EngineKind, GctEngine,
    OnlineEngine, QuerySpec, TsdEngine,
};
pub use envelope::{
    GraphFingerprint, IndexBundle, BUNDLE_HEADER_BYTES, BUNDLE_MAGIC, BUNDLE_VERSION,
};
pub use error::{DecodeError, SearchError};
pub use gct::{GctIndex, BITMAP_FALLBACK_THRESHOLD};
pub use online::all_scores;
pub use paper::{paper_figure18_graph, paper_figure1_edges, paper_figure1_graph};
pub use pool::{default_threads as default_pool_threads, Job, WorkerPool, MAX_POOL_THREADS};
pub use score::{score, social_contexts};
pub use sd_graph::GraphUpdate;
pub use service::{SearchService, ServiceStats, UpdateStats};
pub use tcp::{ktruss_communities, TcpIndex};
pub use topr::TopRCollector;
pub use tsd::TsdIndex;
