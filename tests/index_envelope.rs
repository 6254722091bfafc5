//! Fingerprinted index bundles, the one frame the persisted GCT-index is
//! written in ("envelope" in the names here means that frame): the frame
//! carries the index behind one fingerprint and one payload checksum, and
//! `export_bundle`/`import_bundle` must round-trip the served GCT index,
//! while the import must reject — with typed errors, never a panic or a
//! silently wrong engine — blobs from a different graph, truncation at
//! every layer, retired and unknown format versions, raw (unframed) index
//! blobs, any flipped payload bit, and payloads the index decoder refuses.

mod common;

use std::sync::Arc;

use bytes::Bytes;
use common::arb_graph;
use proptest::prelude::*;

use structural_diversity::graph::GraphBuilder;
use structural_diversity::search::{
    build_engine, DecodeError, EngineKind, GraphFingerprint, IndexBundle, QuerySpec, SearchError,
    SearchService, BUNDLE_HEADER_BYTES, BUNDLE_VERSION,
};

fn fig1_service() -> SearchService {
    let g = GraphBuilder::new()
        .extend_edges(structural_diversity::search::paper_figure1_edges())
        .build();
    SearchService::new(g)
}

/// The GCT-index of `donor`'s graph, serialized as a bundle's payload,
/// built with `build_engine` rather than the service's own export.
fn gct_payload(donor: &SearchService) -> Vec<u8> {
    let engine = build_engine(EngineKind::Gct, donor.graph());
    engine.gct_index().expect("the GCT engine's index").to_bytes().as_ref().to_vec()
}

/// `payload` framed as a bundle over `donor`'s graph.
fn frame(donor: &SearchService, payload: Vec<u8>) -> Bytes {
    IndexBundle { fingerprint: donor.fingerprint(), payload: payload.into() }.encode()
}

/// The served GCT index round-trips into an equivalent engine; after the
/// import, every kind either answers as on the donor (GCT and Auto) or is
/// refused as not served, as it is on the donor.
#[test]
fn every_kind_roundtrips_or_reports_the_missing_capability() {
    let donor = fig1_service();
    let spec = QuerySpec::new(4, 3).unwrap();
    let fresh = SearchService::from_arc(donor.graph());
    fresh.import_bundle(donor.export_bundle()).expect("import");
    assert_eq!(fresh.built_engines(), vec![EngineKind::Gct]);
    for kind in [EngineKind::Auto].into_iter().chain(EngineKind::ALL) {
        let (revived, original) =
            (fresh.top_r(&spec.with_engine(kind)), donor.top_r(&spec.with_engine(kind)));
        match kind {
            EngineKind::Auto | EngineKind::Gct => {
                let (revived, original) = (revived.expect("query"), original.expect("query"));
                assert_eq!(revived.metrics.engine, "gct", "{kind}");
                assert_eq!(revived.scores(), original.scores(), "{kind} roundtrip changed answers");
            }
            _ => {
                let refused = SearchError::EngineNotServed { engine: kind };
                assert_eq!(revived.unwrap_err(), refused, "{kind}");
                assert_eq!(original.unwrap_err(), refused, "{kind}");
            }
        }
    }
    assert_eq!(fresh.stats().engines_built, 1, "the import built nothing else");
}

/// A raw index blob (no bundle frame) must be refused up front — its
/// magic is the index format's, not the bundle's.
#[test]
fn import_rejects_a_raw_gct_blob_as_bad_magic() {
    let service = fig1_service();
    let raw = service.engine(EngineKind::Gct).gct_index().expect("the served index").to_bytes();
    assert_eq!(service.import_bundle(raw).unwrap_err(), SearchError::Decode(DecodeError::BadMagic));
}

/// A fig1-shaped graph with the same n and m but one different edge — the
/// adversary a vertex-count (or even `(n, m)`) check cannot see.
fn churned_same_shape(donor: &SearchService) -> SearchService {
    let n = donor.graph().n();
    let mut churned: Vec<(u32, u32)> = donor.graph().edges().to_vec();
    let (u, v) = churned.pop().expect("donor has edges");
    let replacement = (0..n as u32)
        .flat_map(|a| ((a + 1)..n as u32).map(move |b| (a, b)))
        .find(|&(a, b)| (a, b) != (u, v) && !donor.graph().has_edge(a, b))
        .expect("a non-edge exists");
    churned.push(replacement);
    let service =
        SearchService::new(GraphBuilder::with_min_vertices(n).extend_edges(churned).build());
    assert_eq!(service.graph().n(), n);
    assert_eq!(service.graph().m(), donor.graph().m());
    service
}

#[test]
fn bundle_import_rejects_truncation_at_every_layer() {
    let service = fig1_service();
    let blob = service.export_bundle();
    // Every prefix of the blob is rejected — a cut in the header and a cut
    // in the payload both count as truncation, and none may panic.
    for cut in 0..blob.len() {
        assert_eq!(
            service.import_bundle(blob.slice(0..cut)).unwrap_err(),
            SearchError::Decode(DecodeError::Truncated),
            "cut at {cut} of {}",
            blob.len()
        );
    }
    // And a surplus byte is also a framing error, not an accepted blob.
    let mut extra = blob.as_ref().to_vec();
    extra.push(0);
    assert_eq!(
        service.import_bundle(extra.into()).unwrap_err(),
        SearchError::Decode(DecodeError::Truncated)
    );
}

#[test]
fn bundle_import_rejects_wrong_fingerprint() {
    let donor = fig1_service();
    let blob = donor.export_bundle();

    // Different vertex count.
    let smaller =
        SearchService::new(GraphBuilder::new().extend_edges([(0, 1), (1, 2), (0, 2)]).build());
    match smaller.import_bundle(blob.clone()) {
        Err(SearchError::FingerprintMismatch { expected, found }) => {
            assert_eq!(expected, smaller.fingerprint());
            assert_eq!(found, donor.fingerprint());
        }
        other => panic!("wrong-n bundle import must fail with FingerprintMismatch: {other:?}"),
    }
    assert!(smaller.built_engines().is_empty(), "a refused bundle must install nothing");

    // Same n, same m, different edges — the edge-checksum case.
    let churned = churned_same_shape(&donor);
    assert!(
        matches!(churned.import_bundle(blob), Err(SearchError::FingerprintMismatch { .. })),
        "same-(n, m) churned graph must be caught by the bundle's edge checksum"
    );
    assert!(churned.built_engines().is_empty());
}

/// The payload checksum: corruption *inside* the payload — which leaves
/// the length field intact — is caught at the frame layer as
/// `PayloadChecksum`, before the index decoder sees the bytes and before
/// anything installs, and so is a tampered checksum field.
#[test]
fn bundle_import_rejects_payload_bitflips_via_the_payload_checksum() {
    let donor = fig1_service();
    let good = donor.export_bundle();
    let fresh = SearchService::from_arc(donor.graph());
    let refused = SearchError::Decode(DecodeError::PayloadChecksum);

    // Flip a byte in the middle of the payload.
    let mut corrupt = good.as_ref().to_vec();
    corrupt[(BUNDLE_HEADER_BYTES + good.len()) / 2] ^= 0x40;
    assert_eq!(fresh.import_bundle(corrupt.into()).unwrap_err(), refused);

    // A tampered checksum *field* over an intact payload is equally fatal.
    let mut forged = good.as_ref().to_vec();
    forged[32] ^= 0xFF; // the header's payload checksum
    assert_eq!(fresh.import_bundle(forged.into()).unwrap_err(), refused);
    assert!(fresh.built_engines().is_empty(), "a corrupt bundle must install nothing");
}

/// Flipping either of the two low bits of any payload byte of Figure 1's
/// GCT index is refused as `PayloadChecksum` and installs nothing. (Many
/// such flips still parse as an index, so the index decoder alone cannot
/// catch them.)
#[test]
fn every_low_bit_flip_of_a_one_index_payload_is_refused() {
    let donor = fig1_service();
    let fresh = SearchService::from_arc(donor.graph());
    let good = donor.export_bundle();
    assert!(good.len() > BUNDLE_HEADER_BYTES, "the payload is not empty");
    for at in BUNDLE_HEADER_BYTES..good.len() {
        for bit in [0x01, 0x02] {
            let mut flipped = good.as_ref().to_vec();
            flipped[at] ^= bit;
            assert_eq!(
                fresh.import_bundle(flipped.into()).unwrap_err(),
                SearchError::Decode(DecodeError::PayloadChecksum),
                "bit {bit:#04x} of payload byte {}",
                at - BUNDLE_HEADER_BYTES
            );
        }
    }
    assert!(fresh.built_engines().is_empty(), "a refused blob installs nothing");
}

/// The retired formats are no longer read: version 1 lacked the payload
/// checksum, and version 2 framed a table of engine-tagged entries. A blob
/// claiming either is refused before anything else is read, and installs
/// nothing.
#[test]
fn bundle_import_rejects_the_checksumless_version_1_format() {
    assert_eq!(BUNDLE_VERSION, 3, "this test pins the one-payload format revision");
    let service = fig1_service();
    let good = service.export_bundle();
    let fresh = SearchService::from_arc(service.graph());
    for version in [1u16, 2] {
        let mut old = good.as_ref().to_vec();
        old[4..6].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            fresh.import_bundle(old.into()).unwrap_err(),
            SearchError::Decode(DecodeError::UnsupportedVersion { version })
        );
    }
    assert!(fresh.built_engines().is_empty(), "a retired format installs nothing");
}

/// A bundle with one corrupt payload installs *nothing* — import is
/// all-or-nothing, so a service is never left half-revived, and one
/// already serving an imported index keeps serving that very engine.
#[test]
fn bundle_with_one_corrupt_payload_installs_nothing() {
    let donor = fig1_service();
    let corrupt = frame(&donor, b"not a gct index".to_vec());
    let fresh = SearchService::from_arc(donor.graph());
    let bad_magic = SearchError::Decode(DecodeError::BadMagic);
    assert_eq!(fresh.import_bundle(corrupt.clone()).unwrap_err(), bad_magic);
    assert!(fresh.built_engines().is_empty(), "the corrupt entry must not have been installed");

    fresh.import_bundle(donor.export_bundle()).expect("import");
    let serving = fresh.engine(EngineKind::Gct);
    assert_eq!(fresh.import_bundle(corrupt).unwrap_err(), bad_magic);
    assert!(Arc::ptr_eq(&serving, &fresh.engine(EngineKind::Gct)), "the engine was replaced");
}

/// Re-frames the GCT payload after `mutate` edits it: the bundle's
/// payload checksum is recomputed over the edited bytes, so only the index
/// decoder can refuse it.
fn reframed(donor: &SearchService, mutate: impl FnOnce(&mut [u8])) -> Bytes {
    let mut payload = gct_payload(donor);
    mutate(&mut payload);
    frame(donor, payload)
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"))
}

fn assert_refused_as_invalid(donor: &SearchService, blob: Bytes) {
    let fresh = SearchService::from_arc(donor.graph());
    assert_eq!(
        fresh.import_bundle(blob).unwrap_err(),
        SearchError::Decode(DecodeError::InvalidEntry)
    );
    assert!(fresh.built_engines().is_empty(), "a refused blob installs nothing");
}

/// A GCT entry whose first member end points past its members would make
/// the next query slice out of bounds; the import refuses it.
#[test]
fn import_refuses_a_gct_entry_whose_members_end_past_the_list() {
    let donor = fig1_service();
    let blob = reframed(&donor, |payload| {
        // Entry 0's counts sit at 12..24, then `sn` trussness words, then
        // the member ends.
        let (sn, members) = (u32_at(payload, 12), u32_at(payload, 16));
        assert!(sn > 0, "vertex 0 has supernodes");
        let first_end = 24 + 4 * sn as usize;
        payload[first_end..first_end + 4].copy_from_slice(&(members + 1).to_le_bytes());
    });
    assert_refused_as_invalid(&donor, blob);
}

/// The gap closed in 0.4.0: the one public path that turns serialized
/// bytes into a *serving* engine — `import_bundle` — checks the graph
/// fingerprint (`GctEngine::from_parts` attaches an index to a standalone
/// engine, by vertex count). A stale blob from a same-shape graph
/// (identical n and m, one different edge) must be impossible to attach
/// through any public surface.
#[test]
fn no_fingerprintless_public_decode_path_remains() {
    let donor = fig1_service();
    let churned = churned_same_shape(&donor);
    let bundle = donor.export_bundle();
    assert!(
        matches!(churned.import_bundle(bundle), Err(SearchError::FingerprintMismatch { .. })),
        "import_bundle accepted a stale same-shape bundle"
    );
    assert!(churned.built_engines().is_empty(), "no stale engine may have been installed");
    assert_eq!(churned.stats().engines_built, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bundle round-trips preserve answers on arbitrary graphs, the
    /// recorded fingerprint always matches the source graph's, and the
    /// payload is the served index's bytes.
    #[test]
    fn envelope_roundtrip_preserves_answers(g in arb_graph(16, 60), k in 2u32..5) {
        let g = Arc::new(g);
        let spec = QuerySpec::new(k, 3.min(g.n())).expect("valid spec");
        let donor = SearchService::from_arc(g.clone());
        prop_assert_eq!(donor.fingerprint(), GraphFingerprint::of(&g));
        let blob = donor.export_bundle();
        let bundle = IndexBundle::decode(blob.clone()).expect("decode");
        prop_assert_eq!(bundle.fingerprint, donor.fingerprint());
        prop_assert_eq!(bundle.payload.as_ref(), &gct_payload(&donor)[..]);
        let fresh = SearchService::from_arc(g.clone());
        fresh.import_bundle(blob).expect("import");
        prop_assert_eq!(
            fresh.top_r(&spec).expect("query").scores(),
            donor.top_r(&spec).expect("query").scores(),
            "the roundtrip changed answers"
        );
    }

    /// Mutated GCT payloads, re-wrapped in a fresh bundle so every
    /// checksum matches and imported, are either refused, or every query
    /// at k in 2..=8 and r in {1, n} answers without panicking (debug
    /// builds check every arithmetic step on the way).
    #[test]
    fn mutated_payloads_are_refused_or_answer_without_panicking(
        g in arb_graph(14, 48),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..5),
    ) {
        let g = Arc::new(g);
        let donor = SearchService::from_arc(g.clone());
        let blob = reframed(&donor, |payload| {
            for &(at, byte) in &mutations {
                let len = payload.len();
                payload[at % len] = byte;
            }
        });
        let fresh = SearchService::from_arc(g.clone());
        if fresh.import_bundle(blob).is_ok() {
            let engine = fresh.engine(EngineKind::Gct);
            for k in 2..=8 {
                for r in [1, g.n()] {
                    let spec = QuerySpec::new(k, r).expect("valid spec");
                    prop_assert!(engine.top_r(&spec).is_ok(), "k={} r={}", k, r);
                }
            }
        }
    }

    /// Arbitrary bytes never panic the bundle decoder.
    #[test]
    fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let service = fig1_service();
        let _ = service.import_bundle(bytes::Bytes::from(data));
    }
}
