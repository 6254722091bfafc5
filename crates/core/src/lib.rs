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
//! | engine | paper | [`EngineKind`] | preprocessing | serializable |
//! |---|---|---|---|---|
//! | online baseline | Algorithm 3 | `Online` | none | no |
//! | bound-pruned | Algorithm 4 (sparsify + Lemma 2) | `Bound` | none | no |
//! | TSD-index | Algorithms 5–6 | `Tsd` | max spanning forests | yes |
//! | GCT-index | Algorithms 7–8 + Lemma 3 | `Gct` | compressed forests | yes |
//!
//! The paper's Exp-4 competitor (per-k rankings) is a plain index in
//! [`hybrid`] for that experiment, not an engine.
//!
//! Build one engine with [`build_engine`], or let a [`SearchService`] own
//! the graph, build each engine once behind a per-kind lock (a query that
//! finds its index unbuilt joins the build, which runs in vertex chunks on
//! the shared worker pool, and the index answers it), mutate the graph
//! *under traffic* through epoch-swapped snapshots
//! ([`SearchService::apply_updates`], which carries the TSD-index across
//! epochs incrementally via [`dynamic::DynamicTsd`]), and resolve
//! [`EngineKind::Auto`] to the GCT-index (or to TSD while only TSD is
//! built) — all through `&self`, so one service shared via `Arc` serves
//! any number of threads:
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
//! Index persistence goes through fingerprinted frames — one index per
//! [`IndexEnvelope`] ([`SearchService::export_index`] /
//! [`SearchService::import_index`]), or every serializable index behind a
//! single fingerprint in an [`IndexBundle`]
//! ([`SearchService::export_bundle`] / [`SearchService::import_bundle`]) —
//! and every import refuses blobs built from a different graph; there is
//! no fingerprint-less public decode path. (The 0.2 single-threaded
//! `Searcher` facade, deprecated in 0.3.0, is removed as of 0.4.0 — see
//! the "Upgrade notes" section of the repository's CHANGES.md.)
//!
//! All engines return [`TopRResult`]s whose score multisets agree; this is
//! enforced by cross-engine tests and property tests driving the engines
//! through `Box<dyn DiversityEngine>` (see `tests/`). The competitor
//! diversity models live under [`baselines`].

pub mod baselines;
pub mod bound;
pub mod cancel;
pub mod config;
pub mod dynamic;
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

pub use bound::{sparsify, upper_bounds, BoundOptions, Sparsified};
pub use cancel::CancelToken;
pub use config::{DiversityConfig, SearchMetrics, TopREntry, TopRResult};
pub use dynamic::DynamicTsd;
pub use egonet::{AllEgoNetworks, EgoNetwork};
pub use engine::{
    build_engine, build_engine_in, BoundEngine, DiversityEngine, EngineKind, GctEngine,
    OnlineEngine, QuerySpec, TsdEngine,
};
pub use envelope::{
    GraphFingerprint, IndexBundle, IndexEnvelope, BUNDLE_ENTRY_HEADER_BYTES, BUNDLE_HEADER_BYTES,
    BUNDLE_MAGIC, BUNDLE_VERSION, ENVELOPE_HEADER_BYTES, ENVELOPE_MAGIC, ENVELOPE_VERSION,
};
pub use error::{DecodeError, SearchError};
pub use gct::{GctIndex, BITMAP_FALLBACK_THRESHOLD};
pub use online::all_scores;
pub use paper::{paper_figure18_graph, paper_figure1_edges, paper_figure1_graph};
pub use pool::{default_threads as default_pool_threads, Job, WorkerPool, MAX_POOL_THREADS};
pub use score::{score, social_contexts, EgoDecomposition};
pub use sd_graph::GraphUpdate;
pub use service::{SearchService, ServiceStats, UpdateStats, UpdaterCow};
pub use tcp::{ktruss_communities, TcpIndex};
pub use topr::TopRCollector;
pub use tsd::{TsdBuilder, TsdIndex};
