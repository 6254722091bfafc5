//! Fingerprinted index bundles: the durable form of the GCT-index, which
//! proves which graph it belongs to.
//!
//! The raw `GctIndex` format carries no information about the graph it
//! was built from, so attaching a persisted blob used to be validated by
//! vertex count only — a snapshot taken before edge churn (same `n`,
//! different edges) was accepted and silently served the *old* graph's
//! answers. [`IndexBundle`] closes that hole: the persisted index is
//! framed with a magic word, a format version, the source graph's
//! [`GraphFingerprint`] (`n`, `m`, and a checksum of the canonical edge
//! list — edge order is deterministic, so equal edge sets hash equal), and
//! a checksum of the payload. [`crate::SearchService::export_bundle`]
//! writes one and [`crate::SearchService::import_bundle`] refuses a blob
//! whose fingerprint disagrees with the graph it serves, as
//! [`crate::SearchError::FingerprintMismatch`].
//!
//! Bundle wire layout (format 3) — a 48-byte header followed by the
//! payload, all integers little-endian:
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 4 | magic `"SDIB"` ([`BUNDLE_MAGIC`]) |
//! | 4 | 2 | format version ([`BUNDLE_VERSION`]) |
//! | 6 | 2 | reserved (zero) |
//! | 8 | 8 | fingerprint: vertex count `n` |
//! | 16 | 8 | fingerprint: edge count `m` |
//! | 24 | 8 | fingerprint: FNV-1a edge checksum |
//! | 32 | 8 | FNV-1a checksum of the payload bytes |
//! | 40 | 8 | payload length |
//! | 48 | … | payload: the GCT-index ([`crate::GctIndex::to_bytes`]) |
//!
//! Decoding validates the length field before slicing, so a short blob or
//! a surplus byte fails with [`DecodeError::Truncated`], never a panic; a
//! blob that is not a bundle (a raw index blob, say) is refused as
//! [`DecodeError::BadMagic`], and the retired formats 1 and 2 as
//! [`DecodeError::UnsupportedVersion`]. A bit flipped *inside* the payload
//! is caught here as [`DecodeError::PayloadChecksum`] instead of relying on
//! the index decoder's structural checks downstream, which cannot notice,
//! say, a corrupted superedge weight that still parses.

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::Serialize;

use sd_graph::CsrGraph;

use crate::error::DecodeError;

/// Bundle magic ("SDIB" — Structural Diversity Index Bundle).
pub const BUNDLE_MAGIC: u32 = 0x5344_4942;

/// Current bundle format version. Decoding rejects any other value with
/// [`DecodeError::UnsupportedVersion`]: version 1 lacked the payload
/// checksum, and version 2 framed a table of engine-tagged entries.
pub const BUNDLE_VERSION: u16 = 3;

/// Fixed size of the bundle header preceding the payload.
pub const BUNDLE_HEADER_BYTES: usize = 48;

/// The FNV-1a hash shared by [`GraphFingerprint`]'s edge checksum and the
/// bundle's payload checksum. It folds rather than loops, so a
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

/// The versioned frame around a serialized GCT-index, guarded by the
/// [`GraphFingerprint`] of the graph it indexes and by a checksum of its
/// bytes — the one persistence unit.
///
/// Produced by [`crate::SearchService::export_bundle`] and consumed by
/// [`crate::SearchService::import_bundle`]; [`Self::encode`]/[`Self::decode`]
/// are public so bundles can be inspected (or produced) without a service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexBundle {
    /// Fingerprint of the graph the bundled index was built from.
    pub fingerprint: GraphFingerprint,
    /// The serialized GCT-index ([`crate::GctIndex::to_bytes`]).
    pub payload: Bytes,
}

impl IndexBundle {
    /// Serializes the bundle (header + payload) to one blob.
    pub fn encode(&self) -> Bytes {
        let payload = self.payload.as_ref();
        let mut buf = BytesMut::with_capacity(BUNDLE_HEADER_BYTES + payload.len());
        buf.put_u32_le(BUNDLE_MAGIC);
        buf.put_u16_le(BUNDLE_VERSION);
        buf.put_u16_le(0); // reserved
        buf.put_u64_le(self.fingerprint.n);
        buf.put_u64_le(self.fingerprint.m);
        buf.put_u64_le(self.fingerprint.edge_checksum);
        buf.put_u64_le(fnv1a(payload.iter().copied()));
        buf.put_u64_le(payload.len() as u64);
        buf.extend_from_slice(payload);
        buf.freeze()
    }

    /// Parses a blob produced by [`Self::encode`], validating the magic,
    /// the version, the payload length (a short blob, or bytes past the
    /// payload, are rejected as [`DecodeError::Truncated`]) and the payload
    /// checksum (corruption inside the payload is rejected as
    /// [`DecodeError::PayloadChecksum`] before the index decoder ever sees
    /// the bytes). Graph-identity validation is the *caller's* job —
    /// [`crate::SearchService::import_bundle`] compares
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
        let _reserved = data.get_u16_le();
        let fingerprint = GraphFingerprint {
            n: data.get_u64_le(),
            m: data.get_u64_le(),
            edge_checksum: data.get_u64_le(),
        };
        let payload_checksum = data.get_u64_le();
        let payload_len = data.get_u64_le();
        if payload_len != data.remaining() as u64 {
            return Err(DecodeError::Truncated);
        }
        let payload = data.slice(0..data.remaining());
        if fnv1a(payload.as_ref().iter().copied()) != payload_checksum {
            return Err(DecodeError::PayloadChecksum);
        }
        Ok(IndexBundle { fingerprint, payload })
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

    fn sample_bundle() -> IndexBundle {
        IndexBundle { fingerprint: fig1_fingerprint(), payload: Bytes::from_static(b"gct-payload") }
    }

    #[test]
    fn bundle_roundtrip() {
        let bundle = sample_bundle();
        let blob = bundle.encode();
        assert_eq!(blob.len(), BUNDLE_HEADER_BYTES + b"gct-payload".len());
        assert_eq!(IndexBundle::decode(blob).unwrap(), bundle);
    }

    #[test]
    fn bundle_decode_rejects_bad_frames() {
        let good = sample_bundle().encode();

        // Truncation in the header, at its end, and inside the payload.
        for cut in [0, 3, BUNDLE_HEADER_BYTES - 1, BUNDLE_HEADER_BYTES, good.len() - 1] {
            assert_eq!(
                IndexBundle::decode(good.slice(0..cut)),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }

        // Trailing bytes after the payload.
        let mut extra = good.as_ref().to_vec();
        extra.push(0);
        assert_eq!(IndexBundle::decode(extra.into()), Err(DecodeError::Truncated));

        // Bad magic.
        let mut wrong = good.as_ref().to_vec();
        wrong[0] ^= 0xFF;
        assert_eq!(IndexBundle::decode(wrong.into()), Err(DecodeError::BadMagic));

        // The retired formats and an unknown future one.
        for version in [1, 2, 9] {
            let mut vers = good.as_ref().to_vec();
            vers[4..6].copy_from_slice(&u16::to_le_bytes(version));
            assert_eq!(
                IndexBundle::decode(vers.into()),
                Err(DecodeError::UnsupportedVersion { version })
            );
        }
    }

    #[test]
    fn bundle_decode_rejects_corrupted_payloads() {
        let good = sample_bundle().encode();

        // Flip one byte inside the payload: the structural frame is
        // intact, so only the checksum can catch it.
        let mut corrupt = good.as_ref().to_vec();
        corrupt[BUNDLE_HEADER_BYTES] ^= 0x01;
        assert_eq!(IndexBundle::decode(corrupt.into()), Err(DecodeError::PayloadChecksum));

        // A tampered checksum field is equally fatal, even over an intact
        // payload.
        let mut forged = good.as_ref().to_vec();
        forged[32] ^= 0xFF;
        assert_eq!(IndexBundle::decode(forged.into()), Err(DecodeError::PayloadChecksum));
    }
}
