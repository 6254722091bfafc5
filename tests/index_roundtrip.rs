//! GCT-index serialization, the one persisted index: round-trips must be
//! lossless on arbitrary graphs, and decoding must reject corrupted blobs
//! instead of panicking — at the index layer (`GctIndex`) and through the
//! service's fingerprinted `import_bundle`, whose failures unify into
//! `SearchError`/`DecodeError`. The bundle path is the only way to attach
//! serialized bytes to a *service*.

mod common;

use std::sync::Arc;

use common::arb_graph;
use proptest::prelude::*;

use structural_diversity::search::{
    build_engine, DecodeError, EngineKind, GctIndex, GraphFingerprint, IndexBundle, QuerySpec,
    SearchError, SearchService,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
        let _ = GctIndex::from_bytes(bytes::Bytes::from(data));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A built engine's index bytes, framed as a fingerprinted bundle and
    /// imported (the one way onto a service), answer queries as the engine
    /// did.
    #[test]
    fn engine_roundtrip_preserves_answers(g in arb_graph(16, 60), k in 2u32..5) {
        let g = Arc::new(g);
        let spec = QuerySpec::new(k, 3.min(g.n())).expect("valid spec");
        let kind = EngineKind::Gct;
        let engine = build_engine(kind, g.clone());
        let payload = engine.gct_index().expect("the GCT engine's index").to_bytes();
        let blob = IndexBundle { fingerprint: GraphFingerprint::of(&g), payload }.encode();
        let service = SearchService::from_arc(g.clone());
        service.import_bundle(blob).expect("import");
        let revived = service.engine(kind);
        prop_assert_eq!(revived.kind(), kind);
        prop_assert_eq!(
            engine.top_r(&spec).expect("query").scores(),
            revived.top_r(&spec).expect("query").scores(),
            "{} roundtrip changed answers", kind
        );
    }
}

/// The index format and the bundle frame fail with the same unified error
/// type, which folds into `SearchError` at the service surface.
#[test]
fn decode_errors_are_unified() {
    assert_eq!(GctIndex::from_bytes(bytes::Bytes::from_static(b"xx")), Err(DecodeError::Truncated));
    let g = structural_diversity::graph::GraphBuilder::new().extend_edges([(0, 1)]).build();
    let service = SearchService::new(g);
    let err = service.import_bundle(bytes::Bytes::from_static(b"xx")).unwrap_err();
    assert_eq!(err, SearchError::Decode(DecodeError::Truncated));
}
