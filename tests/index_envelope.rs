//! Fingerprinted index bundles, the one frame every persisted index is
//! written in ("envelope" in the names here means that frame):
//! `export_bundle`/`import_bundle` must round-trip every serializable
//! engine kind alone and any set of them behind one fingerprint, and the
//! import must reject — with typed errors, never a panic or a silently
//! wrong engine — blobs from a different graph, truncation at every layer,
//! unknown format versions, unknown and duplicate engine tags, zero-entry
//! bundles, raw (unframed) index blobs, and any flipped payload bit.

mod common;

use std::sync::Arc;

use bytes::Bytes;
use common::arb_graph;
use proptest::prelude::*;

use structural_diversity::graph::GraphBuilder;
use structural_diversity::search::{
    DecodeError, EngineKind, GraphFingerprint, IndexBundle, QuerySpec, SearchError, SearchService,
    BUNDLE_ENTRY_HEADER_BYTES, BUNDLE_HEADER_BYTES, BUNDLE_VERSION,
};

fn fig1_service() -> SearchService {
    let g = GraphBuilder::new()
        .extend_edges(structural_diversity::search::paper_figure1_edges())
        .build();
    SearchService::new(g)
}

/// Every engine kind goes through export as a one-entry bundle: the
/// serializable ones round-trip into an equivalent engine, the index-free
/// ones fail with the typed capability error on both directions.
#[test]
fn every_kind_roundtrips_or_reports_the_missing_capability() {
    let donor = fig1_service();
    let spec = QuerySpec::new(4, 3).unwrap();
    for kind in EngineKind::ALL {
        if kind.serializable() {
            let blob = donor.export_bundle([kind]).expect("export");
            let fresh = SearchService::from_arc(donor.graph());
            assert_eq!(fresh.import_bundle(blob).expect("import"), [kind]);
            assert_eq!(fresh.built_engines(), vec![kind]);
            let revived = fresh.top_r(&spec.with_engine(kind)).expect("query");
            let original = donor.top_r(&spec.with_engine(kind)).expect("query");
            assert_eq!(revived.scores(), original.scores(), "{kind} roundtrip changed answers");
        } else {
            assert_eq!(
                donor.export_bundle([kind]).unwrap_err(),
                SearchError::SerializationUnsupported { engine: kind.name() },
                "{kind}"
            );
        }
    }
}

#[test]
fn import_rejects_unknown_engine_tag_and_bad_magic() {
    let service = fig1_service();
    let blob = service.export_bundle([EngineKind::Tsd]).expect("export");

    let mut tagged = blob.as_ref().to_vec();
    tagged[BUNDLE_HEADER_BYTES] = 0x7F; // the entry's engine tag
    assert_eq!(
        service.import_bundle(tagged.into()).unwrap_err(),
        SearchError::Decode(DecodeError::UnknownEngine { tag: 0x7F })
    );

    // A raw index blob (no bundle frame) must be refused up front — its
    // magic is the index format's, not the bundle's.
    let raw = service.engine(EngineKind::Tsd).to_bytes().expect("raw index bytes");
    assert_eq!(service.import_bundle(raw).unwrap_err(), SearchError::Decode(DecodeError::BadMagic));
}

#[test]
fn envelope_for_an_index_free_kind_is_refused_at_decode_time() {
    // Hand-craft a bundle entry claiming to carry an `online` index: the
    // frame parses, but reviving the engine reports the missing capability.
    let service = fig1_service();
    let forged = IndexBundle::new(
        service.fingerprint(),
        vec![(EngineKind::Online, bytes::Bytes::from_static(b""))],
    );
    assert_eq!(
        service.import_bundle(forged.encode()).unwrap_err(),
        SearchError::SerializationUnsupported { engine: "online" }
    );
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

// ---------------------------------------------------------------------------
// Multi-index bundles ("SDIB").

/// The headline bundle property: TSD + GCT persist as one blob and a fresh
/// service over the same graph revives both, answering exactly like the
/// donor.
#[test]
fn bundle_roundtrips_tsd_and_gct_as_one_artifact() {
    let donor = fig1_service();
    let kinds = [EngineKind::Tsd, EngineKind::Gct];
    let blob = donor.export_bundle(kinds).expect("export bundle");

    // The blob is a decodable bundle carrying the donor's fingerprint.
    let bundle = IndexBundle::decode(blob.clone()).expect("decode");
    assert_eq!(bundle.fingerprint, donor.fingerprint());
    assert_eq!(bundle.kinds(), kinds.to_vec());

    let fresh = SearchService::from_arc(donor.graph());
    assert_eq!(fresh.import_bundle(blob).expect("import bundle"), kinds.to_vec());
    assert_eq!(fresh.built_engines(), kinds.to_vec());
    let spec = QuerySpec::new(4, 3).unwrap();
    for kind in kinds {
        let revived = fresh.top_r(&spec.with_engine(kind)).expect("revived query");
        let original = donor.top_r(&spec.with_engine(kind)).expect("donor query");
        assert_eq!(revived.metrics.engine, kind.name(), "bundled engines serve directly");
        assert_eq!(revived.scores(), original.scores(), "{kind} bundle roundtrip changed answers");
    }
}

#[test]
fn bundle_import_rejects_truncation_at_every_layer() {
    let service = fig1_service();
    let blob = service.export_bundle([EngineKind::Tsd, EngineKind::Gct]).expect("export bundle");
    // Every prefix of the blob is rejected — the bundle header, each entry
    // header, each payload, and the loss of trailing entries all count as
    // truncation, and none may panic.
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
fn bundle_import_rejects_duplicate_engine_tags() {
    let service = fig1_service();
    let payload = IndexBundle::decode(service.export_bundle([EngineKind::Gct]).unwrap())
        .unwrap()
        .entries
        .remove(0)
        .1;
    // Hand-craft a bundle carrying the same engine twice (the constructor
    // debug-asserts against this, so forge it on the wire).
    let good = IndexBundle::new(
        service.fingerprint(),
        vec![(EngineKind::Tsd, payload.clone()), (EngineKind::Gct, payload.clone())],
    )
    .encode();
    let mut forged = good.as_ref().to_vec();
    let second_tag_offset =
        BUNDLE_HEADER_BYTES + BUNDLE_ENTRY_HEADER_BYTES + payload.as_ref().len();
    forged[second_tag_offset] = EngineKind::Tsd.tag();
    assert_eq!(
        service.import_bundle(forged.into()).unwrap_err(),
        SearchError::Decode(DecodeError::DuplicateEngine { tag: EngineKind::Tsd.tag() })
    );
}

/// A bundle with any entry tagged 5 — the retired tag — is refused whole:
/// its other, valid entries are not installed either.
#[test]
fn bundle_import_refuses_the_retired_engine_tag() {
    let donor = fig1_service();
    let good = donor.export_bundle([EngineKind::Tsd, EngineKind::Gct]).expect("export bundle");
    let tsd_payload_len = IndexBundle::decode(good.clone()).unwrap().entries[0].1.as_ref().len();
    let tag_offsets =
        [BUNDLE_HEADER_BYTES, BUNDLE_HEADER_BYTES + BUNDLE_ENTRY_HEADER_BYTES + tsd_payload_len];
    for offset in tag_offsets {
        let mut retired = good.as_ref().to_vec();
        retired[offset] = 5;
        let fresh = SearchService::from_arc(donor.graph());
        assert_eq!(
            fresh.import_bundle(retired.into()).unwrap_err(),
            SearchError::Decode(DecodeError::UnknownEngine { tag: 5 }),
            "tag at offset {offset}"
        );
        assert!(fresh.built_engines().is_empty(), "a refused bundle installs nothing");
    }
}

#[test]
fn bundle_import_rejects_zero_entries() {
    let service = fig1_service();
    let good = service.export_bundle([EngineKind::Gct]).unwrap();
    let mut forged = good.as_ref().to_vec();
    forged[6] = 0; // entry count
    assert_eq!(
        service.import_bundle(forged.into()).unwrap_err(),
        SearchError::Decode(DecodeError::EmptyBundle)
    );
}

#[test]
fn bundle_import_rejects_wrong_fingerprint() {
    let donor = fig1_service();
    let blob = donor.export_bundle([EngineKind::Tsd, EngineKind::Gct]).unwrap();

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

/// Bundle format 2's per-entry checksum: corruption *inside* a payload —
/// which leaves every structural length field intact — is caught at the
/// frame layer as `PayloadChecksum`, naming the corrupted entry, before any
/// index decoder sees the bytes and before anything installs.
#[test]
fn bundle_import_rejects_payload_bitflips_via_the_entry_checksum() {
    let donor = fig1_service();
    let kinds = [EngineKind::Tsd, EngineKind::Gct];
    let good = donor.export_bundle(kinds).expect("export bundle");
    let first_payload_len = IndexBundle::decode(good.clone()).unwrap().entries[0].1.as_ref().len();

    // Flip a byte in the middle of the first (TSD) payload.
    let mut corrupt = good.as_ref().to_vec();
    corrupt[BUNDLE_HEADER_BYTES + BUNDLE_ENTRY_HEADER_BYTES + first_payload_len / 2] ^= 0x40;
    let fresh = SearchService::from_arc(donor.graph());
    assert_eq!(
        fresh.import_bundle(corrupt.into()).unwrap_err(),
        SearchError::Decode(DecodeError::PayloadChecksum { tag: EngineKind::Tsd.tag() })
    );
    assert!(fresh.built_engines().is_empty(), "a corrupt bundle must install nothing");

    // A bitflip in a *later* entry's payload names that entry.
    let second_entry = BUNDLE_HEADER_BYTES
        + BUNDLE_ENTRY_HEADER_BYTES
        + first_payload_len
        + BUNDLE_ENTRY_HEADER_BYTES;
    let mut late = good.as_ref().to_vec();
    late[second_entry + 4] ^= 0x01;
    assert_eq!(
        fresh.import_bundle(late.into()).unwrap_err(),
        SearchError::Decode(DecodeError::PayloadChecksum { tag: EngineKind::Gct.tag() })
    );

    // A tampered checksum *field* over an intact payload is equally fatal.
    let mut forged = good.as_ref().to_vec();
    forged[BUNDLE_HEADER_BYTES + 4] ^= 0xFF; // first entry's checksum bytes
    assert_eq!(
        fresh.import_bundle(forged.into()).unwrap_err(),
        SearchError::Decode(DecodeError::PayloadChecksum { tag: EngineKind::Tsd.tag() })
    );
    assert!(fresh.built_engines().is_empty());
}

/// Every index is persisted with a payload checksum, the one-index case
/// included: flipping either of the two low bits of any payload byte of
/// Figure 1's TSD or GCT index, exported alone, is refused as
/// `PayloadChecksum` and installs nothing. (Many such flips still parse
/// as an index, so the index decoders alone cannot catch them.)
#[test]
fn every_low_bit_flip_of_a_one_index_payload_is_refused() {
    let donor = fig1_service();
    let fresh = SearchService::from_arc(donor.graph());
    for kind in [EngineKind::Tsd, EngineKind::Gct] {
        let good = donor.export_bundle([kind]).expect("export");
        let payload_at = BUNDLE_HEADER_BYTES + BUNDLE_ENTRY_HEADER_BYTES;
        assert!(good.len() > payload_at, "{kind}: the payload is not empty");
        for at in payload_at..good.len() {
            for bit in [0x01, 0x02] {
                let mut flipped = good.as_ref().to_vec();
                flipped[at] ^= bit;
                assert_eq!(
                    fresh.import_bundle(flipped.into()).unwrap_err(),
                    SearchError::Decode(DecodeError::PayloadChecksum { tag: kind.tag() }),
                    "{kind}: bit {bit:#04x} of payload byte {}",
                    at - payload_at
                );
            }
        }
    }
    assert!(fresh.built_engines().is_empty(), "a refused blob installs nothing");
}

/// Checksum-less version-1 bundles are no longer read: the version bump is
/// what makes "every accepted entry was checksummed" an invariant.
#[test]
fn bundle_import_rejects_the_checksumless_version_1_format() {
    assert_eq!(BUNDLE_VERSION, 2, "this test pins the checksummed format revision");
    let service = fig1_service();
    let good = service.export_bundle([EngineKind::Gct]).unwrap();
    let mut old = good.as_ref().to_vec();
    old[4..6].copy_from_slice(&1u16.to_le_bytes());
    assert_eq!(
        service.import_bundle(old.into()).unwrap_err(),
        SearchError::Decode(DecodeError::UnsupportedVersion { version: 1 })
    );
}

/// A bundle with one corrupt payload installs *nothing* — import is
/// all-or-nothing, so a service is never left half-revived.
#[test]
fn bundle_with_one_corrupt_payload_installs_nothing() {
    let donor = fig1_service();
    let good =
        IndexBundle::decode(donor.export_bundle([EngineKind::Tsd, EngineKind::Gct]).unwrap())
            .unwrap();
    let corrupt = IndexBundle::new(
        good.fingerprint,
        vec![
            good.entries[0].clone(),
            (EngineKind::Gct, bytes::Bytes::from_static(b"not a gct index")),
        ],
    );
    let fresh = SearchService::from_arc(donor.graph());
    assert_eq!(
        fresh.import_bundle(corrupt.encode()).unwrap_err(),
        SearchError::Decode(DecodeError::BadMagic),
        "the corrupt GCT payload must fail its own magic check"
    );
    assert!(fresh.built_engines().is_empty(), "the valid TSD entry must not have been installed");
}

/// The payload of `kind`'s index, exported alone.
fn exported_payload(donor: &SearchService, kind: EngineKind) -> Vec<u8> {
    let mut bundle = IndexBundle::decode(donor.export_bundle([kind]).expect("export")).unwrap();
    bundle.entries.remove(0).1.as_ref().to_vec()
}

/// Re-frames `kind`'s exported payload after `mutate` edits it: the
/// bundle's entry checksum is recomputed over the edited bytes, so only
/// the index decoder can refuse it.
fn reframed(donor: &SearchService, kind: EngineKind, mutate: impl FnOnce(&mut [u8])) -> Bytes {
    let mut payload = exported_payload(donor, kind);
    mutate(&mut payload);
    IndexBundle::new(donor.fingerprint(), vec![(kind, payload.into())]).encode()
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
    let blob = reframed(&donor, EngineKind::Gct, |payload| {
        // Entry 0's counts sit at 12..24, then `sn` trussness words, then
        // the member ends.
        let (sn, members) = (u32_at(payload, 12), u32_at(payload, 16));
        assert!(sn > 0, "vertex 0 has supernodes");
        let first_end = 24 + 4 * sn as usize;
        payload[first_end..first_end + 4].copy_from_slice(&(members + 1).to_le_bytes());
    });
    assert_refused_as_invalid(&donor, blob);
}

/// A TSD forest edge outside its owner's neighborhood would make the next
/// query's context lookup panic; the import refuses it.
#[test]
fn import_refuses_a_tsd_forest_edge_outside_its_owners_neighborhood() {
    let donor = fig1_service();
    let blob = reframed(&donor, EngineKind::Tsd, |payload| {
        // A 20-byte header, one edge count per vertex, then 12-byte edges:
        // the first edge is the first non-empty forest's.
        let n = donor.graph().n();
        let owner = (0..n).find(|&v| u32_at(payload, 20 + 4 * v) > 0).expect("a forest");
        let first_edge = 20 + 4 * n;
        payload[first_edge..first_edge + 4].copy_from_slice(&(owner as u32).to_le_bytes());
    });
    assert_refused_as_invalid(&donor, blob);
}

/// PR-3's known gap, closed in 0.4.0: `decode_engine` (vertex-count-only
/// attachment) is crate-private, so the one public path that turns
/// serialized bytes into a serving engine — `import_bundle` — checks the
/// graph fingerprint. A stale blob from a same-shape graph (identical n
/// and m, one different edge) must be impossible to attach through any
/// public surface.
#[test]
fn no_fingerprintless_public_decode_path_remains() {
    let donor = fig1_service();
    let churned = churned_same_shape(&donor);
    let bundle = donor.export_bundle([EngineKind::Tsd, EngineKind::Gct]).unwrap();
    assert!(
        matches!(churned.import_bundle(bundle), Err(SearchError::FingerprintMismatch { .. })),
        "import_bundle accepted a stale same-shape bundle"
    );
    assert!(churned.built_engines().is_empty(), "no stale engine may have been installed");
    assert_eq!(churned.stats().engines_built, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-index bundle round-trips preserve answers on arbitrary graphs,
    /// and the recorded fingerprint always matches the source graph's.
    #[test]
    fn envelope_roundtrip_preserves_answers(g in arb_graph(16, 60), k in 2u32..5) {
        let g = Arc::new(g);
        let spec = QuerySpec::new(k, 3.min(g.n())).expect("valid spec");
        let donor = SearchService::from_arc(g.clone());
        prop_assert_eq!(donor.fingerprint(), GraphFingerprint::of(&g));
        for kind in [EngineKind::Tsd, EngineKind::Gct] {
            let blob = donor.export_bundle([kind]).expect("export");
            let bundle = IndexBundle::decode(blob.clone()).expect("decode");
            prop_assert_eq!(bundle.kinds(), vec![kind]);
            prop_assert_eq!(bundle.fingerprint, donor.fingerprint());
            let fresh = SearchService::from_arc(g.clone());
            fresh.import_bundle(blob).expect("import");
            prop_assert_eq!(
                fresh.top_r(&spec.with_engine(kind)).expect("query").scores(),
                donor.top_r(&spec.with_engine(kind)).expect("query").scores(),
                "{} roundtrip changed answers", kind
            );
        }
    }

    /// Mutated TSD and GCT payloads, re-wrapped in a fresh bundle so
    /// every checksum matches: the import either refuses the blob, or
    /// every query at k in 2..=8 and r in {1, n} answers without panicking
    /// (debug builds check every arithmetic step on the way).
    #[test]
    fn mutated_payloads_are_refused_or_answer_without_panicking(
        g in arb_graph(14, 48),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..5),
    ) {
        let g = Arc::new(g);
        let donor = SearchService::from_arc(g.clone());
        for kind in [EngineKind::Tsd, EngineKind::Gct] {
            let mut payload = exported_payload(&donor, kind);
            for &(at, byte) in &mutations {
                let len = payload.len();
                payload[at % len] = byte;
            }
            let blob = IndexBundle::new(donor.fingerprint(), vec![(kind, Bytes::from(payload))]);
            let fresh = SearchService::from_arc(g.clone());
            if fresh.import_bundle(blob.encode()).is_err() {
                continue;
            }
            for k in 2..=8 {
                for r in [1, g.n()] {
                    let spec = QuerySpec::new(k, r).expect("valid spec").with_engine(kind);
                    prop_assert!(fresh.top_r(&spec).is_ok(), "{} k={} r={}", kind, k, r);
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
