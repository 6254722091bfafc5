//! Bitmap-based truss decomposition (Section 6.2 of the paper).
//!
//! Designed for ego-networks: every vertex's adjacency row becomes a bitmap
//! of `n` bits, edge support is `popcount(row(u) AND row(v))`, and the
//! peeling loop enumerates surviving triangles through the same word-level
//! AND — dead edges disappear from all future intersections the moment their
//! bits are cleared. This replaces the hash probing of the classic algorithm
//! with straight-line word operations, the speed-up reported in Table 4.
//!
//! The `n` rows of `⌈n/64⌉` words each sit in one flat buffer, one
//! allocation per decomposition. Memory is `n²` bits, so this is intended
//! for graphs of at most a few tens of thousands of vertices
//! (ego-networks); use [`crate::decompose::truss_decomposition`] for whole
//! graphs.

use sd_graph::{CsrGraph, PeelingBuckets, VertexId};

use crate::decompose::TrussDecomposition;

/// Runs truss decomposition on `g` using adjacency bitmaps.
/// Produces exactly the same trussness as the peeling algorithm of
/// [`crate::decompose::truss_decomposition`] (property-tested).
pub fn bitmap_truss_decomposition(g: &CsrGraph) -> TrussDecomposition {
    let n = g.n();
    let m = g.m();
    if m == 0 {
        return TrussDecomposition { trussness: Vec::new(), max_trussness: 0 };
    }

    // Row `u` is `bits[row(u)]`; bit `v` of it is word `at(u, v).0`,
    // under mask `at(u, v).1`.
    let words = n.div_ceil(64);
    let mut bits = vec![0u64; n * words];
    let row = move |u: VertexId| u as usize * words..(u as usize + 1) * words;
    let at =
        move |u: VertexId, v: VertexId| (u as usize * words + (v as usize >> 6), 1 << (v & 63));
    for &(u, v) in g.edges() {
        for (a, b) in [(u, v), (v, u)] {
            let (word, mask) = at(a, b);
            bits[word] |= mask;
        }
    }

    // Support = popcount of the AND of the two endpoint rows.
    let support: Vec<u32> = g
        .edges()
        .iter()
        .map(|&(u, v)| {
            bits[row(u)].iter().zip(&bits[row(v)]).map(|(a, b)| (a & b).count_ones()).sum()
        })
        .collect();

    let mut buckets = PeelingBuckets::new(&support);
    let mut trussness = vec![2u32; m];
    let mut level = 0u32;
    let mut common = Vec::new();
    while let Some((e, key)) = buckets.pop_min() {
        level = level.max(key);
        trussness[e as usize] = level + 2;
        let (u, v) = g.edge(e);
        for (a, b) in [(u, v), (v, u)] {
            let (word, mask) = at(a, b);
            bits[word] &= !mask;
        }
        common.clear();
        for (i, (a, b)) in bits[row(u)].iter().zip(&bits[row(v)]).enumerate() {
            let mut live = a & b;
            while live != 0 {
                common.push((i << 6) as VertexId + live.trailing_zeros());
                live &= live - 1;
            }
        }
        for &w in &common {
            // Both edges exist and are alive: their bits are still set.
            let e_uw = g.edge_id_between(u, w).expect("bit implies edge"); // sd-lint: allow(no-panic) a set bit in both bitmaps means the edge is live
            let e_vw = g.edge_id_between(v, w).expect("bit implies edge"); // sd-lint: allow(no-panic) a set bit in both bitmaps means the edge is live
            buckets.decrease_key_clamped(e_uw, level);
            buckets.decrease_key_clamped(e_vw, level);
        }
    }

    TrussDecomposition { trussness, max_trussness: level + 2 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::truss_decomposition;
    use sd_graph::GraphBuilder;

    fn graph(edges: &[(u32, u32)]) -> CsrGraph {
        GraphBuilder::new().extend_edges(edges.iter().copied()).build()
    }

    #[test]
    fn matches_peeling_on_k4() {
        let g = graph(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(bitmap_truss_decomposition(&g), truss_decomposition(&g));
    }

    #[test]
    fn matches_peeling_on_figure2_h1() {
        let g = graph(&[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7),
            (1, 4),
            (3, 4),
        ]);
        assert_eq!(bitmap_truss_decomposition(&g), truss_decomposition(&g));
    }

    #[test]
    fn matches_peeling_on_trees_and_cycles() {
        for edges in [
            vec![(0u32, 1u32), (1, 2), (2, 3)],
            vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            vec![(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)],
        ] {
            let g = graph(&edges);
            assert_eq!(bitmap_truss_decomposition(&g), truss_decomposition(&g));
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let d = bitmap_truss_decomposition(&g);
        assert!(d.trussness.is_empty());
        assert_eq!(d.max_trussness, 0);
    }
}
