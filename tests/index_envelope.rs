//! Fingerprinted index bundles, the one frame every persisted index is
//! written in ("envelope" in the names here means that frame): the frame
//! carries any set of index kinds behind one fingerprint, and
//! `export_bundle`/`import_bundle` must round-trip the served GCT index,
//! while the import must reject — with typed errors, never a panic or a
//! silently wrong engine — entries for the kinds the service does not
//! serve, blobs from a different graph, truncation at every layer, unknown
//! format versions, unknown and duplicate engine tags, zero-entry bundles,
//! raw (unframed) index blobs, and any flipped payload bit.

mod common;

use std::sync::Arc;

use bytes::Bytes;
use common::arb_graph;
use proptest::prelude::*;

use structural_diversity::graph::GraphBuilder;
use structural_diversity::search::{
    build_engine, DecodeError, EngineKind, GraphFingerprint, IndexBundle, QuerySpec, SearchError,
    SearchService, BUNDLE_ENTRY_HEADER_BYTES, BUNDLE_HEADER_BYTES, BUNDLE_VERSION,
};

fn fig1_service() -> SearchService {
    let g = GraphBuilder::new()
        .extend_edges(structural_diversity::search::paper_figure1_edges())
        .build();
    SearchService::new(g)
}

/// The payload of `kind`'s entry in a bundle over `donor`'s graph: the
/// GCT-index's bytes, built with `build_engine`, and a stand-in for any
/// other kind. The bundle layer never decodes a payload, and the service
/// refuses an entry for a kind it does not serve before decoding it, so
/// no stand-in is ever read as an index.
fn payload_of(donor: &SearchService, kind: EngineKind) -> Vec<u8> {
    match kind {
        EngineKind::Gct => {
            let engine = build_engine(kind, donor.graph());
            engine.gct_index().expect("the GCT engine's index").to_bytes().as_ref().to_vec()
        }
        _ => format!("a stand-in {kind} payload").into_bytes(),
    }
}

/// A bundle over `donor`'s graph with one entry per kind of `kinds`
/// ([`payload_of`]): the service itself exports GCT alone.
fn bundle_of(donor: &SearchService, kinds: &[EngineKind]) -> Bytes {
    let entries = kinds.iter().map(|&kind| (kind, payload_of(donor, kind).into())).collect();
    IndexBundle::new(donor.fingerprint(), entries).encode()
}

/// Every engine kind goes through export as a one-entry bundle: the
/// served GCT index round-trips into an equivalent engine, and every other
/// kind is refused as not served, as a query for it is.
#[test]
fn every_kind_roundtrips_or_reports_the_missing_capability() {
    let donor = fig1_service();
    let spec = QuerySpec::new(4, 3).unwrap();
    for kind in EngineKind::ALL {
        let refused = match kind {
            EngineKind::Gct => {
                let blob = donor.export_bundle([kind]).expect("export");
                let fresh = SearchService::from_arc(donor.graph());
                assert_eq!(fresh.import_bundle(blob).expect("import"), [kind]);
                assert_eq!(fresh.built_engines(), vec![kind]);
                let revived = fresh.top_r(&spec.with_engine(kind)).expect("query");
                let original = donor.top_r(&spec.with_engine(kind)).expect("query");
                assert_eq!(revived.scores(), original.scores(), "{kind} roundtrip changed answers");
                continue;
            }
            _ => SearchError::EngineNotServed { engine: kind },
        };
        assert_eq!(donor.export_bundle([kind]).unwrap_err(), refused, "{kind}");
    }
    assert_eq!(donor.built_engines(), [EngineKind::Gct], "a refused export builds nothing");
}

#[test]
fn import_rejects_unknown_engine_tag_and_bad_magic() {
    let service = fig1_service();
    let blob = service.export_bundle([EngineKind::Gct]).expect("export");

    let mut tagged = blob.as_ref().to_vec();
    tagged[BUNDLE_HEADER_BYTES] = 0x7F; // the entry's engine tag
    assert_eq!(
        service.import_bundle(tagged.into()).unwrap_err(),
        SearchError::Decode(DecodeError::UnknownEngine { tag: 0x7F })
    );

    // A raw index blob (no bundle frame) must be refused up front — its
    // magic is the index format's, not the bundle's.
    let raw = service.engine(EngineKind::Gct).gct_index().expect("the served index").to_bytes();
    assert_eq!(service.import_bundle(raw).unwrap_err(), SearchError::Decode(DecodeError::BadMagic));
}

#[test]
fn envelope_for_an_index_free_kind_is_refused_at_decode_time() {
    // Hand-craft a bundle entry claiming to carry an `online` index: the
    // frame parses, but the service refuses a kind it does not serve.
    let service = fig1_service();
    let forged = IndexBundle::new(
        service.fingerprint(),
        vec![(EngineKind::Online, bytes::Bytes::from_static(b""))],
    );
    assert_eq!(
        service.import_bundle(forged.encode()).unwrap_err(),
        SearchError::EngineNotServed { engine: EngineKind::Online }
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

/// A TSD entry and the GCT entry still frame as one blob — the frame
/// carries any set of index kinds — but the service serves GCT alone, so
/// it refuses the bundle whole, before decoding any entry, and installs
/// nothing; the GCT entry framed on its own imports and answers like the
/// donor.
#[test]
fn bundle_roundtrips_tsd_and_gct_as_one_artifact() {
    let donor = fig1_service();
    let kinds = [EngineKind::Tsd, EngineKind::Gct];
    let blob = bundle_of(&donor, &kinds);

    // The blob is a decodable bundle carrying the donor's fingerprint.
    let bundle = IndexBundle::decode(blob.clone()).expect("decode");
    assert_eq!(bundle.fingerprint, donor.fingerprint());
    assert_eq!(bundle.kinds(), kinds.to_vec());

    let fresh = SearchService::from_arc(donor.graph());
    assert_eq!(
        fresh.import_bundle(blob).unwrap_err(),
        SearchError::EngineNotServed { engine: EngineKind::Tsd }
    );
    assert!(fresh.built_engines().is_empty(), "a refused bundle installs nothing");
    assert_eq!(fresh.stats().engines_built, 0);

    let gct = IndexBundle::new(bundle.fingerprint, vec![bundle.entries[1].clone()]);
    assert_eq!(fresh.import_bundle(gct.encode()).expect("import"), [EngineKind::Gct]);
    let spec = QuerySpec::new(4, 3).unwrap();
    let revived = fresh.top_r(&spec).expect("revived query");
    assert_eq!(revived.metrics.engine, "gct", "the bundled engine serves directly");
    assert_eq!(revived.scores(), donor.top_r(&spec).expect("donor query").scores());
}

#[test]
fn bundle_import_rejects_truncation_at_every_layer() {
    let service = fig1_service();
    let blob = bundle_of(&service, &[EngineKind::Tsd, EngineKind::Gct]);
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
    let good = bundle_of(&donor, &[EngineKind::Tsd, EngineKind::Gct]);
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
    let blob = donor.export_bundle([EngineKind::Gct]).unwrap();

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
    let good = bundle_of(&donor, &[EngineKind::Tsd, EngineKind::Gct]);
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

/// Every entry is framed with a payload checksum, the one-entry case
/// included: flipping either of the two low bits of any payload byte of a
/// TSD entry or of Figure 1's GCT index, framed alone, is refused as
/// `PayloadChecksum` and installs nothing. (Many such flips still parse
/// as an index, so the index decoder alone cannot catch them.)
#[test]
fn every_low_bit_flip_of_a_one_index_payload_is_refused() {
    let donor = fig1_service();
    let fresh = SearchService::from_arc(donor.graph());
    for kind in [EngineKind::Tsd, EngineKind::Gct] {
        let good = bundle_of(&donor, &[kind]);
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
/// all-or-nothing, so a service is never left half-revived, and one
/// already serving an imported index keeps serving that very engine.
#[test]
fn bundle_with_one_corrupt_payload_installs_nothing() {
    let donor = fig1_service();
    let corrupt = IndexBundle::new(
        donor.fingerprint(),
        vec![(EngineKind::Gct, bytes::Bytes::from_static(b"not a gct index"))],
    )
    .encode();
    let fresh = SearchService::from_arc(donor.graph());
    let bad_magic = SearchError::Decode(DecodeError::BadMagic);
    assert_eq!(fresh.import_bundle(corrupt.clone()).unwrap_err(), bad_magic);
    assert!(fresh.built_engines().is_empty(), "the corrupt entry must not have been installed");

    fresh.import_bundle(donor.export_bundle([EngineKind::Gct]).unwrap()).expect("import");
    let serving = fresh.engine(EngineKind::Gct);
    assert_eq!(fresh.import_bundle(corrupt).unwrap_err(), bad_magic);
    assert!(Arc::ptr_eq(&serving, &fresh.engine(EngineKind::Gct)), "the engine was replaced");
}

/// Re-frames the GCT payload after `mutate` edits it: the
/// bundle's entry checksum is recomputed over the edited bytes, so only
/// the index decoder can refuse it.
fn reframed(donor: &SearchService, mutate: impl FnOnce(&mut [u8])) -> Bytes {
    let mut payload = payload_of(donor, EngineKind::Gct);
    mutate(&mut payload);
    IndexBundle::new(donor.fingerprint(), vec![(EngineKind::Gct, payload.into())]).encode()
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

/// A one-entry TSD bundle is refused as not served before its payload is
/// decoded: its stand-in payload is no index at all, yet the import fails
/// with `EngineNotServed`, not a decode error, and installs nothing.
#[test]
fn import_refuses_a_one_entry_tsd_bundle_before_decoding_it() {
    let donor = fig1_service();
    let blob = bundle_of(&donor, &[EngineKind::Tsd]);
    let fresh = SearchService::from_arc(donor.graph());
    assert_eq!(
        fresh.import_bundle(blob).unwrap_err(),
        SearchError::EngineNotServed { engine: EngineKind::Tsd }
    );
    assert!(fresh.built_engines().is_empty(), "a refused blob installs nothing");
    assert_eq!(fresh.stats().engines_built, 0);
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
    let bundle = donor.export_bundle([EngineKind::Gct]).unwrap();
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
        for kind in SearchService::SERVED {
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
