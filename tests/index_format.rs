//! Golden pins on the paper's Figure-1 graph. The serialized GCT-index is
//! pinned word for word, and so is the bundle `export_bundle` persists: a
//! 48-byte header, then exactly these bytes as its payload. A change to
//! the index's in-memory layout must leave `to_bytes` unchanged, and the
//! test fails on the first word that moves. The TSD-index, which has no
//! serialized form, is pinned forest by forest.

use structural_diversity::graph::{CsrGraph, GraphBuilder};
use structural_diversity::search::{
    paper_figure1_edges, GctIndex, SearchService, TsdIndex, BUNDLE_HEADER_BYTES,
};

/// The TSD-index of Figure 1 as `u32` words: a 5-word header (the tag
/// "TSD1", then `n` and the forest-edge total as `u64`s, low word first),
/// one forest length per vertex, then `(u, w, weight)` per forest edge.
#[rustfmt::skip]
const FIGURE1_TSD_WORDS: [u32; 223] = [
    0x5453_4431, 17, 0, 67, 0, 12, 4, 4, 4, 4, 5, 3, 3, 3, 4, 4,
    4, 4, 4, 4, 1, 0, 1, 2, 4, 1, 3, 4, 1, 4, 4, 5,
    6, 4, 5, 7, 4, 5, 8, 4, 9, 10, 4, 9, 11, 4, 9, 13,
    4, 9, 14, 4, 10, 12, 4, 2, 5, 3, 0, 2, 4, 0, 3, 4,
    0, 4, 4, 3, 15, 2, 0, 1, 4, 0, 3, 4, 0, 4, 4, 0,
    5, 3, 0, 1, 4, 0, 2, 4, 0, 4, 4, 1, 15, 2, 0, 1,
    4, 0, 2, 4, 0, 3, 4, 0, 5, 3, 0, 6, 4, 0, 7, 4,
    0, 8, 4, 0, 2, 3, 0, 4, 3, 0, 5, 4, 0, 7, 4, 0,
    8, 4, 0, 5, 4, 0, 6, 4, 0, 8, 4, 0, 5, 4, 0, 6,
    4, 0, 7, 4, 0, 10, 3, 0, 11, 3, 0, 13, 3, 0, 14, 3,
    0, 9, 3, 0, 11, 3, 0, 12, 3, 0, 14, 3, 0, 9, 3, 0,
    10, 3, 0, 12, 3, 0, 13, 3, 0, 10, 3, 0, 11, 3, 0, 13,
    3, 0, 14, 3, 0, 9, 3, 0, 11, 3, 0, 12, 3, 0, 14, 3,
    0, 9, 3, 0, 10, 3, 0, 12, 3, 0, 13, 3, 1, 3, 2,
];

/// `GctIndex::to_bytes` of Figure 1, as little-endian `u32` words: magic
/// "GCT1", `n` (`u64`, low word first), then per vertex its supernode,
/// member and superedge counts, the supernode trussness values, the
/// per-supernode member end offsets, the members, and `(a, b, weight)`
/// per superedge.
#[rustfmt::skip]
const FIGURE1_GCT_WORDS: [u32; 207] = [
    0x4743_5431, 17, 0, 3, 14, 1, 4, 4, 4, 4, 8, 14, 1, 2, 3, 4,
    5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0, 1, 3, 2, 5, 1,
    4, 2, 4, 5, 0, 2, 3, 4, 15, 0, 1, 2, 2, 5, 1, 4,
    3, 4, 5, 0, 1, 3, 4, 5, 0, 1, 3, 2, 5, 1, 4, 2,
    4, 5, 0, 1, 2, 4, 15, 0, 1, 2, 2, 5, 1, 4, 3, 4,
    5, 0, 1, 2, 3, 5, 0, 1, 3, 3, 6, 2, 4, 3, 3, 4,
    5, 6, 0, 6, 7, 8, 2, 4, 0, 1, 3, 0, 2, 3, 1, 4,
    0, 4, 4, 0, 5, 7, 8, 1, 4, 0, 4, 4, 0, 5, 6, 8,
    1, 4, 0, 4, 4, 0, 5, 6, 7, 1, 5, 0, 3, 5, 0, 10,
    11, 13, 14, 1, 5, 0, 3, 5, 0, 9, 11, 12, 14, 1, 5, 0,
    3, 5, 0, 9, 10, 12, 13, 1, 5, 0, 3, 5, 0, 10, 11, 13,
    14, 1, 5, 0, 3, 5, 0, 9, 11, 12, 14, 1, 5, 0, 3, 5,
    0, 9, 10, 12, 13, 1, 2, 0, 2, 2, 1, 3, 0, 0, 0,
];

/// The header of Figure 1's bundle (format 3) as little-endian `u32`
/// words: magic "SDIB", version 3 and its reserved zero half-word, the
/// graph's fingerprint (`n`, `m` and the edge checksum), then the
/// payload's FNV-1a checksum and its length, 828 bytes — each `u64` low
/// word first.
#[rustfmt::skip]
const FIGURE1_BUNDLE_HEADER_WORDS: [u32; 12] = [
    0x5344_4942, 3,
    17, 0, 44, 0, 0x0921_c6e2, 0xc37b_e151,
    0xf40b_c569, 0x53e2_20d2, 828, 0,
];

fn figure1() -> CsrGraph {
    GraphBuilder::new().extend_edges(paper_figure1_edges()).build()
}

/// The blob as little-endian `u32` words (every GCT field is a `u32` or a
/// `u64`, and the bundle header's two `u16`s share a word, so a blob is
/// whole words).
fn words(blob: &[u8]) -> Vec<u32> {
    assert_eq!(blob.len() % 4, 0, "blob is not a whole number of words");
    blob.chunks_exact(4).map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])).collect()
}

#[test]
fn tsd_forests_of_figure_1_are_pinned() {
    let index = TsdIndex::build(&figure1());
    let (lengths, triples) = FIGURE1_TSD_WORDS[5..].split_at(index.n());
    let mut edges = triples.chunks_exact(3).map(|t| (t[0], t[1], t[2]));
    for (v, &len) in lengths.iter().enumerate() {
        let want: Vec<_> = edges.by_ref().take(len as usize).collect();
        assert_eq!(index.forest(v as u32).collect::<Vec<_>>(), want, "forest of vertex {v}");
    }
    assert_eq!(edges.next(), None, "a pinned forest edge is missing from the index");
}

#[test]
fn gct_blob_of_figure_1_is_pinned() {
    let index = GctIndex::build(&figure1());
    let blob = index.to_bytes();
    assert_eq!(words(blob.as_ref()), FIGURE1_GCT_WORDS);
    assert_eq!(GctIndex::from_bytes(blob).unwrap(), index);
}

#[test]
fn bundle_of_figure_1_is_pinned() {
    let blob = SearchService::new(figure1()).export_bundle();
    let words = words(blob.as_ref());
    let (header, payload) = words.split_at(BUNDLE_HEADER_BYTES / 4);
    assert_eq!(header, FIGURE1_BUNDLE_HEADER_WORDS);
    assert_eq!(payload, FIGURE1_GCT_WORDS);
}
