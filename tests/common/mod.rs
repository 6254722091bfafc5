#![allow(dead_code)] // each test binary uses a different subset

//! Shared helpers and reference (naive) implementations for the
//! integration/property tests. The naive implementations are deliberately
//! simple — quadratic or worse — so they can serve as ground truth.

use proptest::prelude::*;

use structural_diversity::graph::{CsrGraph, GraphBuilder};

/// Strategy: arbitrary small simple graph (possibly disconnected, with
/// isolated vertices).
pub fn arb_graph(max_n: u32, max_edges: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |edges| {
            GraphBuilder::with_min_vertices(n as usize).extend_edges(edges).build()
        })
    })
}

/// Naive O(n^3) triangle count.
pub fn naive_triangle_count(g: &CsrGraph) -> u64 {
    let n = g.n() as u32;
    let mut count = 0u64;
    for a in 0..n {
        for b in a + 1..n {
            if !g.has_edge(a, b) {
                continue;
            }
            for c in b + 1..n {
                if g.has_edge(a, c) && g.has_edge(b, c) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Naive k-truss: repeatedly drop edges with support < k−2 until fixpoint;
/// returns the surviving edge ids (sorted).
pub fn naive_ktruss_edges(g: &CsrGraph, k: u32) -> Vec<u32> {
    let mut alive: Vec<bool> = vec![true; g.m()];
    loop {
        let mut changed = false;
        for e in 0..g.m() {
            if !alive[e] {
                continue;
            }
            let (u, v) = g.edge(e as u32);
            let mut support = 0u32;
            for (w, e_uw) in g.neighbor_arcs(u) {
                if !alive[e_uw as usize] || w == v {
                    continue;
                }
                if let Some(e_vw) = g.edge_id_between(v, w) {
                    if alive[e_vw as usize] {
                        support += 1;
                    }
                }
            }
            if support + 2 < k {
                alive[e] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (0..g.m() as u32).filter(|&e| alive[e as usize]).collect()
}

/// Naive coreness: repeatedly drop vertices with degree < k.
pub fn naive_kcore_vertices(g: &CsrGraph, k: u32) -> Vec<u32> {
    let mut alive = vec![true; g.n()];
    loop {
        let mut changed = false;
        for v in 0..g.n() as u32 {
            if !alive[v as usize] {
                continue;
            }
            let deg = g.neighbors(v).iter().filter(|&&u| alive[u as usize]).count() as u32;
            if deg < k {
                alive[v as usize] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (0..g.n() as u32).filter(|&v| alive[v as usize]).collect()
}
