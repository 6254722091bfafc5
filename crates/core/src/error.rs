//! The unified error hierarchy of the search surface: every failure of a
//! query, an update or an import is a [`SearchError`], and a
//! persisted blob that fails to decode — the GCT-index, or the bundle
//! frame around it — is a [`DecodeError`], which folds into it.

use std::fmt;

use crate::engine::EngineKind;
use crate::envelope::GraphFingerprint;
use crate::service::SearchService;

/// Decode failures of the persisted formats: the GCT blob and the
/// [`crate::envelope::IndexBundle`] around it use the same framing
/// discipline (magic word, length-checked body).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic number — the blob is not this index format.
    BadMagic,
    /// Input shorter than its own header promises, or longer.
    Truncated,
    /// A bundle written by another format revision: a retired one (1 and
    /// 2 are no longer read), a future one, or a corrupted version field.
    UnsupportedVersion {
        /// The version the blob claims.
        version: u16,
    },
    /// A structurally valid frame whose contents violate the format's
    /// invariants (e.g. a vertex id at or beyond the declared vertex
    /// count) — decoding it would produce an index that panics at query
    /// time.
    InvalidEntry,
    /// A bundle whose payload bytes hash to a different FNV-1a checksum
    /// than its header records: the payload was corrupted (or forged)
    /// after encoding. Caught at the frame layer, before the index
    /// decoder's structural checks, which cannot notice corruption that
    /// still parses.
    PayloadChecksum,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a recognized index blob (bad magic)"),
            DecodeError::Truncated => write!(f, "truncated index blob"),
            DecodeError::UnsupportedVersion { version } => {
                write!(f, "unsupported index bundle format version {version}")
            }
            DecodeError::InvalidEntry => {
                write!(f, "index blob carries an entry violating the format's invariants")
            }
            DecodeError::PayloadChecksum => {
                write!(f, "index bundle payload fails its checksum")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Everything that can go wrong answering a structural diversity query
/// through the [`crate::engine::DiversityEngine`] / [`crate::SearchService`]
/// surface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchError {
    /// Trussness threshold below the problem definition's minimum of 2.
    InvalidK {
        /// The offending threshold.
        k: u32,
    },
    /// Result size of zero — the problem requires `r ≥ 1`.
    InvalidR,
    /// Result size exceeds the graph's vertex count. (The low-level
    /// algorithm functions clamp instead; the engine surface reports it so
    /// callers notice a mis-sized query before serving truncated answers.)
    ResultSizeExceedsGraph {
        /// Requested result size.
        r: usize,
        /// Vertices in the queried graph.
        n: usize,
    },
    /// A serialized index failed to decode.
    Decode(DecodeError),
    /// A decoded index covers a different vertex count than the graph it
    /// was attached to.
    GraphMismatch {
        /// Vertices in the attached graph.
        graph_n: usize,
        /// Vertices covered by the index.
        index_n: usize,
    },
    /// An index bundle was serialized from a different graph than the one
    /// it is being attached to (the fingerprints — vertex count, edge count,
    /// edge checksum — disagree). Unlike [`SearchError::GraphMismatch`],
    /// this catches same-`n` graphs that differ in their edges.
    FingerprintMismatch {
        /// Fingerprint of the graph the service serves.
        expected: GraphFingerprint,
        /// Fingerprint recorded in the bundle.
        found: GraphFingerprint,
    },
    /// A [`crate::SearchService`] was asked for an engine it does not
    /// serve: it serves the GCT-index ([`crate::SearchService::SERVED`]),
    /// not the TSD-index or the index-free Online and Bound scans, which
    /// [`crate::build_engine`] still builds. A query naming one is refused
    /// before anything is built or scanned.
    EngineNotServed {
        /// The kind the query asked for.
        engine: EngineKind,
    },
    /// [`crate::SearchService::apply_updates`] was handed an empty batch.
    /// Publishing an epoch costs a graph snapshot and engine invalidation,
    /// so an empty batch is a caller bug, not a no-op.
    EmptyUpdateBatch,
    /// An internal invariant of the serving stack did not hold. Serving
    /// paths report this instead of panicking (`sd-lint` rule `no-panic`),
    /// so one broken invariant degrades a single response rather than the
    /// whole process.
    Internal {
        /// The invariant that was violated, stated as the fact that was
        /// expected to be true.
        invariant: &'static str,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::InvalidK { k } => {
                write!(f, "trussness threshold k must be >= 2 (got {k})")
            }
            SearchError::InvalidR => write!(f, "result size r must be >= 1"),
            SearchError::ResultSizeExceedsGraph { r, n } => {
                write!(f, "result size r = {r} exceeds the graph's {n} vertices")
            }
            SearchError::Decode(e) => write!(f, "index decode failed: {e}"),
            SearchError::GraphMismatch { graph_n, index_n } => {
                write!(f, "index covers {index_n} vertices but the graph has {graph_n}")
            }
            SearchError::FingerprintMismatch { expected, found } => {
                write!(
                    f,
                    "index bundle was built from a different graph: \
                     expected {expected}, bundle carries {found}"
                )
            }
            SearchError::EngineNotServed { engine } => {
                let served = SearchService::SERVED.map(EngineKind::name).join(", ");
                write!(f, "the service does not serve the `{engine}` engine; it serves {served}")
            }
            SearchError::EmptyUpdateBatch => {
                write!(f, "asked to apply an empty update batch")
            }
            SearchError::Internal { invariant } => {
                write!(f, "internal invariant violated: {invariant}")
            }
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for SearchError {
    fn from(e: DecodeError) -> Self {
        SearchError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SearchError::InvalidK { k: 1 }.to_string().contains("k must be >= 2"));
        assert!(SearchError::ResultSizeExceedsGraph { r: 10, n: 3 }.to_string().contains("10"));
        assert!(SearchError::from(DecodeError::BadMagic).to_string().contains("bad magic"));
        let refused = SearchError::EngineNotServed { engine: EngineKind::Online };
        assert!(refused.to_string().contains("`online`"), "{refused}");
        assert_eq!(
            SearchError::EngineNotServed { engine: EngineKind::Tsd }.to_string(),
            "the service does not serve the `tsd` engine; it serves gct"
        );
    }

    #[test]
    fn decode_error_folds_in() {
        let e: SearchError = DecodeError::Truncated.into();
        assert_eq!(e, SearchError::Decode(DecodeError::Truncated));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
