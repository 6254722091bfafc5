//! Fingerprinted index bundles: durable index blobs that can prove which
//! graph they belong to.
//!
//! The raw `GctIndex` format carries no information about the graph it
//! was built from, so attaching a persisted blob used to be validated by
//! vertex count only — a snapshot taken before edge churn (same `n`,
//! different edges) was accepted and silently served the *old* graph's
//! answers. [`IndexBundle`] closes that hole: every persisted index is
//! framed with a magic word, a format version, and the source graph's
//! [`GraphFingerprint`] (`n`, `m`, and a checksum of the canonical edge
//! list — edge order is deterministic, so equal edge sets hash equal), and
//! each entry carries its engine kind and a checksum of its payload.
//! [`crate::SearchService::export_bundle`] writes one (`export_bundle([kind])`
//! for a single index) and [`crate::SearchService::import_bundle`] refuses a
//! blob whose fingerprint disagrees with the graph it serves, as
//! [`crate::SearchError::FingerprintMismatch`].
//!
//! Bundle wire layout — a 32-byte header followed by `count` entries, each
//! a 20-byte entry header plus its payload (all integers little-endian):
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 4 | magic `"SDIB"` ([`BUNDLE_MAGIC`]) |
//! | 4 | 2 | format version ([`BUNDLE_VERSION`]) |
//! | 6 | 1 | entry count (≥ 1; zero-entry bundles are rejected) |
//! | 7 | 1 | reserved (zero) |
//! | 8 | 8 | fingerprint: vertex count `n` |
//! | 16 | 8 | fingerprint: edge count `m` |
//! | 24 | 8 | fingerprint: FNV-1a edge checksum |
//! | 32 | … | `count` × entry |
//!
//! | entry offset | size | field |
//! |---|---|---|
//! | 0 | 1 | engine tag ([`crate::EngineKind::tag`], unique per bundle) |
//! | 1 | 3 | reserved (zero) |
//! | 4 | 8 | FNV-1a checksum of the payload bytes |
//! | 12 | 8 | payload length |
//! | 20 | … | payload (the engine's own serialized form) |
//!
//! Decoding validates every length field before slicing, so truncation at
//! any layer — header, entry header, payload — fails with a typed
//! [`DecodeError`], never a panic; a blob that is not a bundle (a raw index
//! blob, say) is refused as [`DecodeError::BadMagic`].
//! Since bundle format version 2 every entry additionally carries an FNV-1a
//! checksum of its payload, so a bit flipped *inside* a payload is caught
//! here as [`DecodeError::PayloadChecksum`] instead of relying on the index
//! decoders' structural checks downstream (which cannot notice, say, a
//! corrupted forest weight that still parses).

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::Serialize;

use sd_graph::CsrGraph;

use crate::engine::EngineKind;
use crate::error::DecodeError;

/// Bundle magic ("SDIB" — Structural Diversity Index Bundle).
pub const BUNDLE_MAGIC: u32 = 0x5344_4942;

/// Current bundle format version. Decoding rejects any other value with
/// [`DecodeError::UnsupportedVersion`]. Version 2 added the per-entry
/// payload checksum; version-1 blobs (which lack it) are no longer read.
pub const BUNDLE_VERSION: u16 = 2;

/// Fixed size of the bundle header preceding the first entry.
pub const BUNDLE_HEADER_BYTES: usize = 32;

/// Fixed size of each bundle entry's header preceding its payload.
pub const BUNDLE_ENTRY_HEADER_BYTES: usize = 20;

/// The FNV-1a hash shared by [`GraphFingerprint`]'s edge checksum and the
/// bundle entries' payload checksums. It folds rather than loops, so a
/// nested iterator (the fingerprint's rows) is walked by its own inner
/// loops instead of one `next` call through every layer per byte.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.into_iter().fold(FNV_OFFSET, |h, byte| (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME))
}

/// Identity of a graph for index-attachment purposes: vertex count, edge
/// count, and an FNV-1a checksum over the canonical (sorted, deduplicated)
/// edge list. Two [`CsrGraph`]s compare equal under this fingerprint iff
/// they have identical edge sets over identical vertex ranges — exactly the
/// condition under which an index answers for both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub struct GraphFingerprint {
    /// Vertex count of the fingerprinted graph.
    pub n: u64,
    /// Undirected edge count.
    pub m: u64,
    /// FNV-1a hash of the canonical edge list, little-endian endpoint pairs.
    pub edge_checksum: u64,
}

impl GraphFingerprint {
    /// Computes the fingerprint of `g` in one `O(n + m)` pass over its
    /// canonical edges, read from its rows
    /// ([`CsrGraph::canonical_pairs`]), so the hash needs no edge ids.
    pub fn of(g: &CsrGraph) -> Self {
        let pairs = g.canonical_pairs();
        let h = fnv1a(pairs.flat_map(|(u, v)| u.to_le_bytes().into_iter().chain(v.to_le_bytes())));
        GraphFingerprint { n: g.n() as u64, m: g.m() as u64, edge_checksum: h }
    }
}

impl fmt::Display for GraphFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(n={}, m={}, checksum={:#018x})", self.n, self.m, self.edge_checksum)
    }
}

/// A versioned frame around one or more engines' serialized indexes, all
/// guarded by one [`GraphFingerprint`] and each checksummed — the one
/// persistence unit, for a single index or several (the paper's TSD- and
/// GCT-indexes can ship as one artifact). A service writes and installs
/// its GCT-index alone, and refuses a bundle that holds a TSD entry.
///
/// Produced by [`crate::SearchService::export_bundle`] and consumed by
/// [`crate::SearchService::import_bundle`]; [`Self::encode`]/[`Self::decode`]
/// are public so bundles can be inspected (or produced) without a service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexBundle {
    /// Fingerprint of the graph every bundled index was built from.
    pub fingerprint: GraphFingerprint,
    /// The bundled `(engine, serialized index)` pairs, in encoding order.
    /// Engine kinds are concrete and unique within a bundle, and the list
    /// is never empty (both enforced by [`Self::decode`]).
    pub entries: Vec<(EngineKind, Bytes)>,
}

impl IndexBundle {
    /// Frames `entries` as a bundle over the graph identified by
    /// `fingerprint`. Entries must be non-empty, concrete, and unique per
    /// engine — the same invariants [`Self::decode`] enforces on the wire.
    ///
    /// # Panics
    /// In debug builds, panics on an empty entry list, an
    /// [`EngineKind::Auto`] entry, a duplicated engine kind, or more than
    /// 255 entries (the count field is one byte).
    pub fn new(fingerprint: GraphFingerprint, entries: Vec<(EngineKind, Bytes)>) -> Self {
        debug_assert!(!entries.is_empty(), "a bundle carries at least one index");
        debug_assert!(entries.len() <= u8::MAX as usize, "bundle entry count field is one byte");
        debug_assert!(
            entries.iter().all(|&(kind, _)| kind != EngineKind::Auto),
            "Auto names no concrete index to bundle"
        );
        debug_assert!(
            entries
                .iter()
                .enumerate()
                .all(|(i, &(kind, _))| entries[..i].iter().all(|&(prior, _)| prior != kind)),
            "bundle entries must be unique per engine"
        );
        IndexBundle { fingerprint, entries }
    }

    /// The engine kinds bundled, in entry order.
    pub fn kinds(&self) -> Vec<EngineKind> {
        self.entries.iter().map(|&(kind, _)| kind).collect()
    }

    /// Serializes the bundle (header + entries) to one blob.
    pub fn encode(&self) -> Bytes {
        let total: usize = self
            .entries
            .iter()
            .map(|(_, payload)| BUNDLE_ENTRY_HEADER_BYTES + payload.as_ref().len())
            .sum();
        let mut buf = BytesMut::with_capacity(BUNDLE_HEADER_BYTES + total);
        buf.put_u32_le(BUNDLE_MAGIC);
        buf.put_u16_le(BUNDLE_VERSION);
        buf.put_u8(self.entries.len() as u8);
        buf.put_u8(0); // reserved
        buf.put_u64_le(self.fingerprint.n);
        buf.put_u64_le(self.fingerprint.m);
        buf.put_u64_le(self.fingerprint.edge_checksum);
        for (kind, payload) in &self.entries {
            let payload = payload.as_ref();
            buf.put_u8(kind.tag());
            buf.put_u8(0); // reserved
            buf.put_u8(0);
            buf.put_u8(0);
            buf.put_u64_le(fnv1a(payload.iter().copied()));
            buf.put_u64_le(payload.len() as u64);
            buf.extend_from_slice(payload);
        }
        buf.freeze()
    }

    /// Parses a blob produced by [`Self::encode`], validating the magic,
    /// version, entry count (zero entries are rejected), every entry's
    /// engine tag (unknown and duplicated tags are rejected), every
    /// length field (truncation at any layer, or trailing bytes after the
    /// last entry, are rejected), and every entry's payload checksum
    /// (corruption inside a payload is rejected as
    /// [`DecodeError::PayloadChecksum`] before the index decoder ever sees
    /// the bytes). Graph-identity validation is the
    /// *caller's* job — [`crate::SearchService::import_bundle`] compares
    /// [`Self::fingerprint`] against the target graph.
    pub fn decode(mut data: Bytes) -> Result<Self, DecodeError> {
        if data.remaining() < BUNDLE_HEADER_BYTES {
            return Err(DecodeError::Truncated);
        }
        if data.get_u32_le() != BUNDLE_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = data.get_u16_le();
        if version != BUNDLE_VERSION {
            return Err(DecodeError::UnsupportedVersion { version });
        }
        let count = data.get_u8();
        if count == 0 {
            return Err(DecodeError::EmptyBundle);
        }
        let _reserved = data.get_u8();
        let fingerprint = GraphFingerprint {
            n: data.get_u64_le(),
            m: data.get_u64_le(),
            edge_checksum: data.get_u64_le(),
        };
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            if data.remaining() < BUNDLE_ENTRY_HEADER_BYTES {
                return Err(DecodeError::Truncated);
            }
            let tag = data.get_u8();
            let kind = EngineKind::from_tag(tag).ok_or(DecodeError::UnknownEngine { tag })?;
            if entries.iter().any(|&(prior, _)| prior == kind) {
                return Err(DecodeError::DuplicateEngine { tag });
            }
            let _reserved = (data.get_u8(), data.get_u8(), data.get_u8());
            let payload_checksum = data.get_u64_le();
            let payload_len = data.get_u64_le();
            if payload_len > data.remaining() as u64 {
                return Err(DecodeError::Truncated);
            }
            let payload = data.slice(0..payload_len as usize);
            if fnv1a(payload.as_ref().iter().copied()) != payload_checksum {
                return Err(DecodeError::PayloadChecksum { tag });
            }
            entries.push((kind, payload));
            data.advance(payload_len as usize);
        }
        if data.remaining() != 0 {
            return Err(DecodeError::Truncated);
        }
        Ok(IndexBundle { fingerprint, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_figure1_graph;
    use sd_graph::GraphBuilder;

    fn fig1_fingerprint() -> GraphFingerprint {
        let (g, _, _) = paper_figure1_graph();
        GraphFingerprint::of(&g)
    }

    #[test]
    fn fingerprint_is_deterministic_and_edge_sensitive() {
        let (g, _, _) = paper_figure1_graph();
        let a = GraphFingerprint::of(&g);
        assert_eq!(a, GraphFingerprint::of(&g.clone()));
        assert_eq!((a.n, a.m), (g.n() as u64, g.m() as u64));

        // Same n and m, one edge swapped: checksum must differ.
        let g1 = GraphBuilder::new().extend_edges([(0, 1), (1, 2), (2, 3)]).build();
        let g2 = GraphBuilder::new().extend_edges([(0, 1), (1, 2), (1, 3)]).build();
        let (f1, f2) = (GraphFingerprint::of(&g1), GraphFingerprint::of(&g2));
        assert_eq!((f1.n, f1.m), (f2.n, f2.m));
        assert_ne!(f1.edge_checksum, f2.edge_checksum);
        assert_ne!(f1, f2);
    }

    /// The fingerprint's values are part of the bundle format: a bundle
    /// written by an earlier build must still match the graph it indexes.
    #[test]
    fn figure_1_fingerprint_values_are_pinned() {
        let expected = GraphFingerprint { n: 17, m: 44, edge_checksum: 0xc37b_e151_0921_c6e2 };
        assert_eq!(fig1_fingerprint(), expected);
    }

    /// Every concrete kind's tag survives a bundle entry header.
    #[test]
    fn every_concrete_kind_tags_roundtrip_through_the_header() {
        for kind in EngineKind::ALL {
            let bundle = IndexBundle::new(fig1_fingerprint(), vec![(kind, Bytes::new())]);
            assert_eq!(IndexBundle::decode(bundle.encode()).unwrap().kinds(), vec![kind]);
        }
    }

    fn sample_bundle() -> IndexBundle {
        IndexBundle::new(
            fig1_fingerprint(),
            vec![
                (EngineKind::Tsd, Bytes::from_static(b"tsd-payload")),
                (EngineKind::Gct, Bytes::from_static(b"gct")),
            ],
        )
    }

    #[test]
    fn bundle_roundtrip() {
        let bundle = sample_bundle();
        let blob = bundle.encode();
        assert_eq!(
            blob.len(),
            BUNDLE_HEADER_BYTES + 2 * BUNDLE_ENTRY_HEADER_BYTES + b"tsd-payload".len() + 3
        );
        let back = IndexBundle::decode(blob).unwrap();
        assert_eq!(back, bundle);
        assert_eq!(back.kinds(), vec![EngineKind::Tsd, EngineKind::Gct]);
    }

    #[test]
    fn bundle_decode_rejects_bad_frames() {
        let good = sample_bundle().encode();

        // Truncation at every layer: header, entry header, payload, and
        // the loss of a whole trailing entry.
        for cut in [0, 3, BUNDLE_HEADER_BYTES - 1, BUNDLE_HEADER_BYTES + 4, good.len() - 1] {
            assert_eq!(
                IndexBundle::decode(good.slice(0..cut)),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
        // Dropping the final (GCT) entry leaves a frame whose count field
        // promises one more entry than the body holds.
        let missing_entry = good.slice(0..good.len() - BUNDLE_ENTRY_HEADER_BYTES - 3);
        assert_eq!(IndexBundle::decode(missing_entry), Err(DecodeError::Truncated));

        // Trailing bytes after the last entry.
        let mut extra = good.as_ref().to_vec();
        extra.push(0);
        assert_eq!(IndexBundle::decode(extra.into()), Err(DecodeError::Truncated));

        // Bad magic.
        let mut wrong = good.as_ref().to_vec();
        wrong[0] ^= 0xFF;
        assert_eq!(IndexBundle::decode(wrong.into()), Err(DecodeError::BadMagic));

        // Unknown future version.
        let mut vers = good.as_ref().to_vec();
        vers[4] = 9;
        assert_eq!(
            IndexBundle::decode(vers.into()),
            Err(DecodeError::UnsupportedVersion { version: 9 })
        );

        // Zero entries.
        let mut empty = good.as_ref().to_vec();
        empty[6] = 0;
        assert_eq!(IndexBundle::decode(empty.into()), Err(DecodeError::EmptyBundle));

        // Unknown engine tag in the first entry.
        let mut tagged = good.as_ref().to_vec();
        tagged[BUNDLE_HEADER_BYTES] = 0xEE;
        assert_eq!(
            IndexBundle::decode(tagged.into()),
            Err(DecodeError::UnknownEngine { tag: 0xEE })
        );
    }

    #[test]
    fn bundle_decode_rejects_corrupted_payloads() {
        let good = sample_bundle().encode();

        // Flip one byte inside the first entry's payload: the structural
        // frame is intact, so only the checksum can catch it.
        let mut corrupt = good.as_ref().to_vec();
        corrupt[BUNDLE_HEADER_BYTES + BUNDLE_ENTRY_HEADER_BYTES] ^= 0x01;
        assert_eq!(
            IndexBundle::decode(corrupt.into()),
            Err(DecodeError::PayloadChecksum { tag: EngineKind::Tsd.tag() })
        );

        // A tampered checksum field is equally fatal, even over an intact
        // payload.
        let mut forged = good.as_ref().to_vec();
        forged[BUNDLE_HEADER_BYTES + 4] ^= 0xFF;
        assert_eq!(
            IndexBundle::decode(forged.into()),
            Err(DecodeError::PayloadChecksum { tag: EngineKind::Tsd.tag() })
        );

        // Corruption in a *later* entry names that entry's tag.
        let second = BUNDLE_HEADER_BYTES
            + BUNDLE_ENTRY_HEADER_BYTES
            + b"tsd-payload".len()
            + BUNDLE_ENTRY_HEADER_BYTES;
        let mut late = good.as_ref().to_vec();
        late[second] ^= 0x02; // first payload byte of the GCT entry
        assert_eq!(
            IndexBundle::decode(late.into()),
            Err(DecodeError::PayloadChecksum { tag: EngineKind::Gct.tag() })
        );
    }

    #[test]
    fn bundle_decode_rejects_duplicate_engines() {
        let bundle = IndexBundle::new(
            fig1_fingerprint(),
            vec![(EngineKind::Tsd, Bytes::from_static(b"a")), (EngineKind::Gct, Bytes::new())],
        );
        let mut forged = bundle.encode().as_ref().to_vec();
        // Rewrite the second entry's tag to repeat the first's.
        let second_entry = BUNDLE_HEADER_BYTES + BUNDLE_ENTRY_HEADER_BYTES + 1;
        forged[second_entry] = EngineKind::Tsd.tag();
        assert_eq!(
            IndexBundle::decode(forged.into()),
            Err(DecodeError::DuplicateEngine { tag: EngineKind::Tsd.tag() })
        );
    }
}
