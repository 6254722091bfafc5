//! # sd-graph — graph substrate
//!
//! Foundation crate for the truss-based structural diversity system. It
//! provides the data structures every layer above builds on:
//!
//! * [`CsrGraph`] — an immutable, compressed-sparse-row, undirected simple
//!   graph with sorted adjacency (binary-searchable) and stable edge ids,
//!   derived from the rows on first use.
//! * [`GraphBuilder`] — the only way to construct a [`CsrGraph`] from raw
//!   pairs; it canonicalizes, deduplicates, and drops self-loops.
//! * [`triangles`] — triangle listing/counting via the forward (oriented)
//!   algorithm, per-edge support, and per-vertex triangle counts.
//! * [`Dsu`] — union-find with path halving and union by size;
//!   [`Dsu::groups`] lists its sets in the one order every social context
//!   is reported in.
//! * [`PeelingBuckets`] — the bin-sort bucket queue used by both k-core and
//!   k-truss peeling (O(1) pop-min and decrease-key).
//! * [`edgelist`] — SNAP-style edge-list text I/O.
//! * [`connectivity`] — BFS connected components.
//! * [`stats`] — graph statistics (n, m, d_max, triangle count, arboricity
//!   bound) matching Table 1 of the paper.
//!
//! ## Example
//!
//! ```
//! use sd_graph::triangles::triangle_count;
//! use sd_graph::GraphBuilder;
//!
//! // Duplicate edges, reversed pairs, and self-loops are canonicalized away.
//! let g = GraphBuilder::new().extend_edges([(0, 1), (1, 0), (1, 2), (0, 2), (2, 2), (2, 3)]).build();
//! assert_eq!((g.n(), g.m()), (4, 4));
//! assert_eq!(triangle_count(&g), 1);
//! assert!(g.has_edge(2, 3) && !g.has_edge(0, 3));
//! ```

pub mod buckets;
pub mod builder;
pub mod connectivity;
pub mod csr;
pub mod dsu;
pub mod dynamic;
pub mod edgelist;
pub mod stats;
pub mod triangles;
pub mod types;

pub use buckets::PeelingBuckets;
pub use builder::GraphBuilder;
pub use connectivity::{connected_components, is_connected};
pub use csr::CsrGraph;
pub use dsu::Dsu;
pub use dynamic::{BatchApplyStats, DynamicGraph, GraphUpdate};
pub use stats::GraphStats;
pub use types::{EdgeId, VertexId, INVALID_EDGE, INVALID_VERTEX};
