//! Influence-maximization seed selection.
//!
//! The paper seeds its contagion experiments with 50 vertices chosen by an
//! influence-maximization algorithm \[37\] (IMM). We provide two substitutes:
//!
//! * [`ris_seeds`] — reverse influence sampling: sample random
//!   reverse-reachable (RR) sets under the IC model, then greedily pick the
//!   seeds covering the most sets. This is the same estimator family IMM
//!   belongs to, without its adaptive sample-size machinery.
//! * [`degree_discount_seeds`] — the classic fast heuristic (Chen et al.),
//!   used as a cheap cross-check.

use rand::Rng;

use sd_graph::{CsrGraph, VertexId};

use crate::ic::IcModel;

/// Samples one reverse-reachable set: start from a uniform vertex and walk
/// *incoming* arcs, keeping each with probability `p` (on an undirected
/// graph, incoming = all incident edges).
fn sample_rr_set(
    g: &CsrGraph,
    model: IcModel,
    rng: &mut impl Rng,
    visited_stamp: &mut [u32],
    stamp: u32,
    scratch: &mut Vec<VertexId>,
) -> Vec<VertexId> {
    let root = rng.gen_range(0..g.n() as VertexId);
    scratch.clear();
    scratch.push(root);
    visited_stamp[root as usize] = stamp;
    let mut set = vec![root];
    while let Some(u) = scratch.pop() {
        for &v in g.neighbors(u) {
            if visited_stamp[v as usize] != stamp && rng.gen_bool(model.p) {
                visited_stamp[v as usize] = stamp;
                scratch.push(v);
                set.push(v);
            }
        }
    }
    set
}

/// RIS seed selection: `count` seeds maximizing greedy coverage of up to
/// `theta` RR sets.
///
/// When the cascade is supercritical (`p · avg_degree > 1`) individual RR
/// sets approach component size, so — like IMM's sampling bound — the total
/// sampled volume is capped (at `64 · n` vertices across all sets) to keep
/// time and memory linear in the graph.
pub fn ris_seeds(
    g: &CsrGraph,
    model: IcModel,
    count: usize,
    theta: usize,
    rng: &mut impl Rng,
) -> Vec<VertexId> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let mut visited = vec![0u32; n];
    let mut scratch = Vec::new();
    let mut rr_sets: Vec<Vec<VertexId>> = Vec::with_capacity(theta.min(1024));
    // Membership lists: vertex -> indices of RR sets containing it.
    let mut member_of: Vec<Vec<u32>> = vec![Vec::new(); n];
    let volume_budget = n.saturating_mul(64);
    let mut volume = 0usize;
    for i in 0..theta {
        let set = sample_rr_set(g, model, rng, &mut visited, i as u32 + 1, &mut scratch);
        volume += set.len();
        for &v in &set {
            member_of[v as usize].push(i as u32);
        }
        rr_sets.push(set);
        if volume >= volume_budget && rr_sets.len() >= count.max(32) {
            break;
        }
    }
    let theta = rr_sets.len();

    let mut covered = vec![false; theta];
    let mut gain: Vec<usize> = member_of.iter().map(Vec::len).collect();
    let mut seeds = Vec::with_capacity(count);
    let mut picked = vec![false; n];
    for _ in 0..count.min(n) {
        // Lazy-greedy would be faster; a linear scan is fine at our scale.
        let best = (0..n)
            .filter(|&v| !picked[v])
            .max_by_key(|&v| (gain[v], std::cmp::Reverse(v)))
            // sd-lint: allow(no-panic) fewer than n vertices are picked before each draw
            .expect("n > 0");
        picked[best] = true;
        seeds.push(best as VertexId);
        for &set_idx in &member_of[best] {
            let si = set_idx as usize;
            if !covered[si] {
                covered[si] = true;
                for &u in &rr_sets[si] {
                    gain[u as usize] = gain[u as usize].saturating_sub(1);
                }
            }
        }
    }
    seeds
}

/// Degree-discount heuristic: repeatedly pick the vertex of maximum
/// discounted degree `d_v − 2t_v − (d_v − t_v) t_v p` where `t_v` counts
/// already-selected neighbors.
pub fn degree_discount_seeds(g: &CsrGraph, p: f64, count: usize) -> Vec<VertexId> {
    let n = g.n();
    let mut t = vec![0u32; n];
    let mut picked = vec![false; n];
    let mut dd: Vec<f64> = g.vertices().map(|v| g.degree(v) as f64).collect();
    let mut seeds = Vec::with_capacity(count.min(n));
    for _ in 0..count.min(n) {
        let best = (0..n)
            .filter(|&v| !picked[v])
            .max_by(|&a, &b| dd[a].total_cmp(&dd[b]).then(b.cmp(&a)))
            // sd-lint: allow(no-panic) fewer than n vertices are picked before each draw
            .expect("n > 0");
        picked[best] = true;
        seeds.push(best as VertexId);
        for &u in g.neighbors(best as VertexId) {
            if picked[u as usize] {
                continue;
            }
            t[u as usize] += 1;
            let d = g.degree(u) as f64;
            let tv = t[u as usize] as f64;
            dd[u as usize] = d - 2.0 * tv - (d - tv) * tv * p;
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_graph::GraphBuilder;

    /// Two stars: the big-star center must be chosen first by both methods.
    fn two_stars() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for leaf in 1..=20 {
            b.add_edge(0, leaf);
        }
        for leaf in 31..=35 {
            b.add_edge(30, leaf);
        }
        b.extend_edges([]).build()
    }

    #[test]
    fn degree_discount_prefers_hubs() {
        let g = two_stars();
        let seeds = degree_discount_seeds(&g, 0.01, 2);
        assert_eq!(seeds[0], 0);
        assert_eq!(seeds[1], 30);
    }

    #[test]
    fn ris_prefers_hubs() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(42);
        let seeds = ris_seeds(&g, IcModel { p: 0.2 }, 2, 2000, &mut rng);
        assert!(seeds.contains(&0), "seeds {seeds:?} should contain the hub");
    }

    #[test]
    fn seed_count_clamped_to_n() {
        let g = GraphBuilder::with_min_vertices(3).extend_edges([(0, 1)]).build();
        assert_eq!(degree_discount_seeds(&g, 0.01, 10).len(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(ris_seeds(&g, IcModel { p: 0.1 }, 10, 100, &mut rng).len(), 3);
    }

    #[test]
    fn seeds_are_distinct() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(7);
        let mut seeds = ris_seeds(&g, IcModel { p: 0.3 }, 5, 500, &mut rng);
        seeds.sort_unstable();
        let len = seeds.len();
        seeds.dedup();
        assert_eq!(seeds.len(), len);
    }
}
