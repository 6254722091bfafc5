//! Query configuration and search metrics.

use std::time::{Duration, Instant};

use serde::Serialize;

use sd_graph::VertexId;

use crate::error::SearchError;

/// Parameters of a top-r truss-based structural diversity query
/// (Section 2.3): trussness threshold `k ≥ 2` and result size `r ≥ 1`.
///
/// This is the *raw* parameter pair consumed by the low-level algorithm
/// functions, which clamp `r` to the vertex count. The engine surface wraps
/// it in a [`crate::QuerySpec`], which additionally rejects `r > n` at query
/// time. Constructing via a struct literal bypasses validation; prefer
/// [`DiversityConfig::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct DiversityConfig {
    /// Trussness threshold; the paper requires `k ≥ 2`.
    pub k: u32,
    /// Number of top vertices to return; clamped to `n` by the algorithms.
    pub r: usize,
}

impl DiversityConfig {
    /// Creates a validated configuration, rejecting parameters outside the
    /// problem definition (`k < 2` or `r == 0`) instead of producing
    /// silently meaningless results.
    pub fn new(k: u32, r: usize) -> Result<Self, SearchError> {
        if k < 2 {
            return Err(SearchError::InvalidK { k });
        }
        if r == 0 {
            return Err(SearchError::InvalidR);
        }
        Ok(DiversityConfig { k, r })
    }

    /// Validates this configuration against a concrete graph size: the
    /// engine surface treats `r > n` as an error rather than clamping.
    pub fn check_against(&self, n: usize) -> Result<(), SearchError> {
        if self.r > n {
            return Err(SearchError::ResultSizeExceedsGraph { r: self.r, n });
        }
        Ok(())
    }
}

/// One result entry: a vertex, its diversity score, and its social contexts
/// (vertex sets of the maximal connected k-trusses in its ego-network,
/// in global vertex ids).
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct TopREntry {
    /// The vertex.
    pub vertex: VertexId,
    /// Its truss-based structural diversity `score(v) = |SC(v)|`.
    pub score: u32,
    /// Its social contexts `SC(v)`, in [`sd_graph::Dsu::groups`]' order.
    pub contexts: Vec<Vec<VertexId>>,
}

/// Instrumentation shared by every search algorithm, powering Table 2 and
/// Figures 8–11.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct SearchMetrics {
    /// Number of vertices whose structural diversity was *computed* — the
    /// paper's "search space" column.
    pub score_computations: usize,
    /// Wall-clock time of the whole query.
    #[serde(skip)]
    pub elapsed: Duration,
    /// Name of the engine that answered (stamped by the
    /// [`crate::DiversityEngine`] surface; empty for direct algorithm
    /// calls).
    pub engine: &'static str,
}

/// Result of a top-r query: entries sorted by (score desc, vertex asc) plus
/// search metrics.
///
/// When several vertices tie at the boundary score, the lowest vertex ids
/// are returned — except by the Bound engine, whose early stop (Algorithm
/// 4) may keep other tied vertices; its scores are the same.
#[derive(Clone, Debug, Serialize)]
pub struct TopRResult {
    /// The top-r entries.
    pub entries: Vec<TopREntry>,
    /// Search-space and timing metrics.
    pub metrics: SearchMetrics,
}

impl TopRResult {
    /// A result whose metrics count `score_computations` and the time since
    /// `start`, with the engine name left for [`crate::DiversityEngine`] to
    /// stamp.
    pub(crate) fn timed(
        entries: Vec<TopREntry>,
        score_computations: usize,
        start: Instant,
    ) -> Self {
        let metrics = SearchMetrics { score_computations, elapsed: start.elapsed(), engine: "" };
        TopRResult { entries, metrics }
    }

    /// Scores of the entries, descending (for cross-method equivalence checks).
    pub fn scores(&self) -> Vec<u32> {
        self.entries.iter().map(|e| e.score).collect()
    }

    /// Vertices of the entries.
    pub fn vertices(&self) -> Vec<VertexId> {
        self.entries.iter().map(|e| e.vertex).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_k_below_2() {
        assert_eq!(DiversityConfig::new(1, 5), Err(SearchError::InvalidK { k: 1 }));
        assert_eq!(DiversityConfig::new(0, 5), Err(SearchError::InvalidK { k: 0 }));
    }

    #[test]
    fn rejects_zero_r() {
        assert_eq!(DiversityConfig::new(3, 0), Err(SearchError::InvalidR));
    }

    #[test]
    fn valid_config() {
        let c = DiversityConfig::new(4, 10).unwrap();
        assert_eq!((c.k, c.r), (4, 10));
    }

    #[test]
    fn check_against_rejects_oversized_r() {
        let c = DiversityConfig::new(3, 10).unwrap();
        assert_eq!(c.check_against(9), Err(SearchError::ResultSizeExceedsGraph { r: 10, n: 9 }));
        assert_eq!(c.check_against(10), Ok(()));
    }
}
