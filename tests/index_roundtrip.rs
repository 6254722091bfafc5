//! Index serialization: round-trips must be lossless on arbitrary graphs,
//! and decoding must reject corrupted blobs instead of panicking — at both
//! the index layer (`TsdIndex`/`GctIndex`) and the engine
//! surface (`DiversityEngine::to_bytes` revived through the service's
//! fingerprinted `import_bundle`), whose failures unify into
//! `SearchError`/`DecodeError`. Since 0.4.0 the fingerprint-less
//! `decode_engine` factory is crate-private, so the *only* public way to
//! revive serialized bytes as an engine is the bundle path.

mod common;

use std::sync::Arc;

use common::arb_graph;
use proptest::prelude::*;

use structural_diversity::search::{
    build_engine, DecodeError, EngineKind, GctIndex, GraphFingerprint, IndexBundle, QuerySpec,
    SearchError, SearchService, TsdIndex,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tsd_roundtrip(g in arb_graph(20, 80)) {
        let index = TsdIndex::build(&g);
        let blob = index.to_bytes();
        prop_assert_eq!(blob.len(), index.index_size_bytes());
        let back = TsdIndex::from_bytes(blob).unwrap();
        prop_assert_eq!(index, back);
    }

    #[test]
    fn gct_roundtrip(g in arb_graph(20, 80)) {
        let index = GctIndex::build(&g);
        let blob = index.to_bytes();
        prop_assert_eq!(blob.len(), index.index_size_bytes());
        let back = GctIndex::from_bytes(blob).unwrap();
        prop_assert_eq!(index, back);
    }

    /// Truncating a valid blob anywhere must produce an error, not a panic
    /// or a silently wrong index.
    #[test]
    fn tsd_truncation_detected(g in arb_graph(12, 40), cut in 0usize..64) {
        let index = TsdIndex::build(&g);
        let blob = index.to_bytes();
        prop_assume!(cut < blob.len());
        let truncated = blob.slice(0..blob.len() - cut - 1);
        if let Ok(decoded) = TsdIndex::from_bytes(truncated) {
            // Decoding can only succeed if the cut removed no needed bytes.
            prop_assert_eq!(decoded, index);
        }
    }

    #[test]
    fn gct_truncation_detected(g in arb_graph(12, 40), cut in 0usize..64) {
        let index = GctIndex::build(&g);
        let blob = index.to_bytes();
        prop_assume!(cut < blob.len());
        let truncated = blob.slice(0..blob.len() - cut - 1);
        if let Ok(decoded) = GctIndex::from_bytes(truncated) {
            prop_assert_eq!(decoded, index);
        }
    }

    /// Random bytes must never decode into a panicking state.
    #[test]
    fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = TsdIndex::from_bytes(bytes::Bytes::from(data.clone()));
        let _ = GctIndex::from_bytes(bytes::Bytes::from(data));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The trait-level capability path: serialize through
    /// `DiversityEngine::to_bytes`, revive through the service's
    /// fingerprinted import, and the revived engine answers queries
    /// identically.
    #[test]
    fn engine_roundtrip_preserves_answers(g in arb_graph(16, 60), k in 2u32..5) {
        let g = Arc::new(g);
        let spec = QuerySpec::new(k, 3.min(g.n())).expect("valid spec");
        let fingerprint = GraphFingerprint::of(&g);
        for kind in [EngineKind::Tsd, EngineKind::Gct] {
            let engine = build_engine(kind, g.clone());
            let payload = engine.to_bytes().expect("index engines serialize");
            // The only public revival path: frame the raw bytes as a
            // fingerprinted one-entry bundle and import them into a service.
            let blob = IndexBundle::new(fingerprint, vec![(kind, payload)]).encode();
            let revived = SearchService::from_arc(g.clone());
            prop_assert_eq!(revived.import_bundle(blob).expect("import"), vec![kind]);
            prop_assert_eq!(
                engine.top_r(&spec).expect("query").scores(),
                revived.top_r(&spec.with_engine(kind)).expect("query").scores(),
                "{} roundtrip changed answers", kind
            );
        }
    }
}

/// Non-index engines report the missing capability as a typed error.
#[test]
fn index_free_engines_refuse_serialization() {
    let g = Arc::new(
        structural_diversity::graph::GraphBuilder::new()
            .extend_edges([(0, 1), (1, 2), (0, 2)])
            .build(),
    );
    for kind in [EngineKind::Online, EngineKind::Bound] {
        let engine = build_engine(kind, g.clone());
        assert_eq!(
            engine.to_bytes().unwrap_err(),
            SearchError::SerializationUnsupported { engine: kind.name() },
            "{kind}"
        );
        assert!(!kind.serializable(), "{kind}");
    }
    for kind in [EngineKind::Tsd, EngineKind::Gct] {
        assert!(kind.serializable(), "{kind} gained a serialized form in 0.4.0");
    }
}

/// Both index formats fail with the same unified error type, which folds
/// into `SearchError` at the service surface.
#[test]
fn decode_errors_are_unified() {
    assert_eq!(TsdIndex::from_bytes(bytes::Bytes::from_static(b"xx")), Err(DecodeError::Truncated));
    assert_eq!(GctIndex::from_bytes(bytes::Bytes::from_static(b"xx")), Err(DecodeError::Truncated));
    let g = structural_diversity::graph::GraphBuilder::new().extend_edges([(0, 1)]).build();
    let service = SearchService::new(g);
    let err = service.import_bundle(bytes::Bytes::from_static(b"xx")).unwrap_err();
    assert_eq!(err, SearchError::Decode(DecodeError::Truncated));
}
