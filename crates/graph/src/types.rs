//! Fundamental id types.
//!
//! Vertices and edges are addressed by dense `u32` indices. The paper's
//! largest dataset (socfb-konect) has 59M vertices and 92.5M edges, both well
//! inside `u32`. Using raw integers (rather than newtypes) keeps the hot
//! peeling loops free of wrapper noise and halves index memory versus
//! `usize`; this is the "smaller integers" guidance from the Rust perf book.
//! The price is a ceiling of `u32::MAX - 1` vertices and edges, since each
//! type's maximum is reserved as its sentinel.

/// Dense vertex identifier: `0..n`.
pub type VertexId = u32;

/// Dense undirected edge identifier: `0..m`, assigned in lexicographic order
/// of the canonical `(min, max)` endpoint pairs.
pub type EdgeId = u32;

/// Sentinel for "no vertex".
pub const INVALID_VERTEX: VertexId = VertexId::MAX;

/// Sentinel for "no edge".
pub const INVALID_EDGE: EdgeId = EdgeId::MAX;
