//! Index serialization: round-trips must be lossless on arbitrary graphs,
//! and decoding must reject corrupted blobs instead of panicking — at both
//! the index layer (`TsdIndex`/`GctIndex`) and the engine surface
//! (`DiversityEngine::to_bytes`, revived through the service's
//! fingerprinted `import_bundle` for GCT and `TsdEngine::from_parts` for
//! TSD), whose failures unify into `SearchError`/`DecodeError`. The bundle
//! path is the only way to attach serialized bytes to a *service*.

mod common;

use std::sync::Arc;

use common::{arb_graph, move_first_forest_edge_to_its_owner};
use proptest::prelude::*;

use structural_diversity::search::{
    build_engine, paper_figure1_graph, DecodeError, DiversityEngine, EngineKind, GctIndex,
    GraphFingerprint, IndexBundle, QuerySpec, SearchError, SearchService, TsdEngine, TsdIndex,
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
    /// `DiversityEngine::to_bytes`, revive — the GCT index through the
    /// service's fingerprinted import, the TSD index through
    /// `TsdEngine::from_parts`, which checks it against the graph — and
    /// the revived engine answers queries identically.
    #[test]
    fn engine_roundtrip_preserves_answers(g in arb_graph(16, 60), k in 2u32..5) {
        let g = Arc::new(g);
        let spec = QuerySpec::new(k, 3.min(g.n())).expect("valid spec");
        let fingerprint = GraphFingerprint::of(&g);
        for kind in [EngineKind::Tsd, EngineKind::Gct] {
            let engine = build_engine(kind, g.clone());
            let payload = engine.to_bytes().expect("index engines serialize");
            let revived: Arc<dyn DiversityEngine> = if kind == EngineKind::Tsd {
                let index = TsdIndex::from_bytes(payload).expect("decode");
                Arc::new(TsdEngine::from_parts(g.clone(), index).expect("the index fits"))
            } else {
                // The one way onto a service: frame the raw bytes as a
                // fingerprinted one-entry bundle and import them.
                let blob = IndexBundle::new(fingerprint, vec![(kind, payload)]).encode();
                let service = SearchService::from_arc(g.clone());
                prop_assert_eq!(service.import_bundle(blob).expect("import"), vec![kind]);
                service.engine(kind)
            };
            prop_assert_eq!(revived.kind(), kind);
            prop_assert_eq!(
                engine.top_r(&spec).expect("query").scores(),
                revived.top_r(&spec).expect("query").scores(),
                "{} roundtrip changed answers", kind
            );
        }
    }
}

/// A TSD blob whose forest edge leaves its owner's neighborhood still
/// decodes, but `from_parts` refuses to attach it, since a query on it
/// would panic.
#[test]
fn from_parts_refuses_a_tsd_forest_edge_outside_its_owners_neighborhood() {
    let (g, _, _) = paper_figure1_graph();
    let g = Arc::new(g);
    let mut payload = TsdIndex::build(&g).to_bytes().as_ref().to_vec();
    move_first_forest_edge_to_its_owner(&mut payload, g.n());
    let index = TsdIndex::from_bytes(payload.into()).expect("the blob still decodes");
    assert_eq!(
        TsdEngine::from_parts(g, index).unwrap_err(),
        SearchError::Decode(DecodeError::InvalidEntry)
    );
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
