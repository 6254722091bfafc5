//! # structural-diversity — truss-based structural diversity search
//!
//! Umbrella crate re-exporting the whole system: a faithful Rust
//! reproduction of *"Truss-based Structural Diversity Search in Large
//! Graphs"* (Huang, Huang & Xu — TKDE / ICDE'21 extended abstract).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use structural_diversity::graph::GraphBuilder;
//! use structural_diversity::search::{EngineKind, QuerySpec, SearchService};
//!
//! // The paper's running example (Figure 1): vertex v's neighborhood
//! // decomposes into three social contexts at k = 4.
//! let g = GraphBuilder::new()
//!     .extend_edges(structural_diversity::search::paper_figure1_edges())
//!     .build();
//! // Share one service across threads: every query method takes `&self`.
//! // `warmup` starts index builds on the worker pool and `wait_ready`
//! // joins them; a query that finds its index unbuilt joins the build too.
//! let service = Arc::new(SearchService::new(g));
//! service.warmup([EngineKind::Gct]);
//! service.wait_ready([EngineKind::Gct]);
//! // The service serves the GCT-index, which `EngineKind::Auto` (the
//! // default) and `.with_engine(EngineKind::Gct)` both name. The TSD-index
//! // and the index-free Online and Bound scans are built with
//! // `search::build_engine`.
//! let result = service.top_r(&QuerySpec::new(4, 1)?)?;
//! assert_eq!(result.entries[0].score, 3);
//! assert_eq!(result.metrics.engine, EngineKind::Gct.name());
//! # Ok::<(), structural_diversity::search::SearchError>(())
//! ```
//!
//! See the crate-level docs of the members for details:
//! * [`graph`] — CSR graphs, triangle listing, union-find.
//! * [`truss`] — truss/core decomposition.
//! * [`search`] — the paper's algorithms (online, bound, TSD, GCT, the
//!   Exp-4 competitor, baselines).
//! * [`influence`] — independent-cascade contagion simulation.
//! * [`datasets`] — synthetic dataset generators and registry.

/// Runs the README's quickstart code block under `cargo test --doc` so the
/// front-page example can never drift from the real API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctest;

pub use sd_core as search;
pub use sd_datasets as datasets;
pub use sd_graph as graph;
pub use sd_influence as influence;
pub use sd_truss as truss;
