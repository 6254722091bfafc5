//! Parallel index construction and scoring with **deterministic static
//! chunking**: results are byte-identical to the sequential path at any
//! thread count.
//!
//! The per-vertex work (ego extraction + truss decomposition + forest or
//! context assembly) is embarrassingly parallel. Two generations of the
//! same design live here:
//!
//! * the original scoped-thread build helpers ([`all_scores_parallel`],
//!   [`build_gct_parallel`]), which borrow the graph via
//!   `crossbeam::scope`;
//! * the 0.6 **query-path** scans ([`pool_all_scores`] and the pooled
//!   Online/Bound `top_r` used by [`crate::OnlineEngine`] /
//!   [`crate::BoundEngine`]), which run on the shared
//!   [`crate::pool::WorkerPool`] so concurrent queries, batch fan-out, and
//!   background builds all draw from one set of threads.
//!
//! ## The determinism contract
//!
//! Chunk boundaries are fixed constants, *not* derived from the thread
//! count, and every reduction happens in chunk order on the calling
//! thread. Consequences:
//!
//! * [`pool_all_scores`] returns exactly [`crate::online::all_scores`];
//! * the pooled Online `top_r` feeds the [`crate::TopRCollector`] in
//!   vertex order — the identical offer sequence to the sequential scan —
//!   so entries (vertices, scores, contexts) are byte-identical;
//! * the pooled Bound `top_r` processes the upper-bound-sorted order in
//!   fixed windows of [`BOUND_SCAN_WINDOW`] vertices: each window's scores
//!   are computed in parallel, then *replayed* sequentially with the exact
//!   per-vertex early-termination check of Algorithm 4, so the break point
//!   and entries match the sequential search exactly. The only observable
//!   difference is [`crate::SearchMetrics::score_computations`], which
//!   becomes window-rounded (the scan may compute up to one window beyond
//!   the sequential stop) — still deterministic for a given graph and
//!   query, at any thread count.
//!
//! This is a beyond-the-paper extension (the paper's implementation is
//! single-threaded) and is benchmarked in `sd-bench` (`scalability.rs`).

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use sd_graph::CsrGraph;
use sd_truss::{truss_decomposition, vertex_trussness};

use crate::bound::{finish_entries, sparsify, upper_bounds, BoundOptions};
use crate::config::{DiversityConfig, SearchMetrics, TopRResult};
use crate::egonet::EgoNetwork;
use crate::gct::{GctBuilder, GctIndex};
use crate::pool::{Job, WorkerPool};
use crate::score::{social_contexts, social_contexts_of_ego, EgoDecomposition};
use crate::topr::TopRCollector;

/// Number of worker threads to use: `available_parallelism`, capped.
fn worker_count(cap: usize) -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(cap).max(1)
}

/// Computes `score(v)` for every vertex in parallel; result identical to
/// [`crate::online::all_scores`].
pub fn all_scores_parallel(g: &CsrGraph, k: u32) -> Vec<u32> {
    let n = g.n();
    let threads = worker_count(16);
    let mut scores = vec![0u32; n];
    let next = std::sync::atomic::AtomicUsize::new(0);
    const CHUNK: usize = 256;
    let slots = crate::lock_order::SCAN_CHUNK.mutex(scores.chunks_mut(CHUNK).collect::<Vec<_>>());

    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let chunk_idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let start = chunk_idx * CHUNK;
                if start >= n {
                    break;
                }
                // Detach this chunk's slot; chunks are claimed exactly once.
                let slot = {
                    let mut guard = slots.lock(); // lock: scan.chunk
                    std::mem::take(&mut guard[chunk_idx])
                };
                for (offset, out) in slot.iter_mut().enumerate() {
                    let v = (start + offset) as u32;
                    let ego = EgoNetwork::extract(g, v);
                    *out = social_contexts_of_ego(&ego, k, EgoDecomposition::Classic).len() as u32;
                }
            });
        }
    })
    .expect("worker panicked"); // sd-lint: allow(no-panic) re-raises a scoped worker's panic on the caller
    drop(slots);
    scores
}

/// Builds the GCT-index in parallel (identical output to
/// [`GctIndex::build`], which is deterministic per vertex): each chunk of
/// vertices is built into its own flat index, and the chunks are then
/// concatenated in vertex order.
pub fn build_gct_parallel(g: &CsrGraph) -> GctIndex {
    let n = g.n();
    let threads = worker_count(16);
    let all = crate::egonet::AllEgoNetworks::build(g);
    let next = std::sync::atomic::AtomicUsize::new(0);
    const CHUNK: usize = 128;
    let parts = crate::lock_order::SCAN_CHUNK.mutex(vec![None::<GctIndex>; n.div_ceil(CHUNK)]);

    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let chunk_idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let start = chunk_idx * CHUNK;
                if start >= n {
                    break;
                }
                let end = (start + CHUNK).min(n);
                let mut part = GctBuilder::new(end - start);
                for v in start as u32..end as u32 {
                    let ego = all.ego_graph(g, v);
                    let decomposition = truss_decomposition(&ego.graph);
                    let tau_v = vertex_trussness(&ego.graph, &decomposition);
                    part.push_ego(&ego, &decomposition, &tau_v);
                }
                parts.lock()[chunk_idx] = Some(part.finish()); // lock: scan.chunk
            });
        }
    })
    .expect("worker panicked"); // sd-lint: allow(no-panic) re-raises a scoped worker's panic on the caller
    let mut index = GctBuilder::new(n);
    for part in parts.into_inner().into_iter().flatten() {
        index.extend_from(&part, 0..part.n());
    }
    index.finish()
}

/// Vertices per job in the pooled full scan ([`pool_all_scores`] and the
/// pooled Online `top_r`). Fixed so chunk boundaries — and therefore
/// results — never depend on the thread count.
pub const SCAN_CHUNK: usize = 256;

/// Vertices per parallel window in the pooled Bound scan: scores for one
/// window are computed in parallel, then replayed through Algorithm 4's
/// sequential early-termination check. Fixed for the same reason as
/// [`SCAN_CHUNK`]; the window is also the granularity of the
/// `score_computations` rounding documented in the [module docs](self).
pub const BOUND_SCAN_WINDOW: usize = 1024;

/// Vertices per job within one Bound window.
const BOUND_SCAN_CHUNK: usize = 128;

/// Computes `score(v)` for a list of vertices, one chunk of `chunk_size`
/// vertices per pool job, reducing in chunk order. Deterministic: output
/// `i` is the score of `vertices[i]` regardless of thread count.
fn pool_scores_of(
    pool: &WorkerPool,
    g: &Arc<CsrGraph>,
    k: u32,
    vertices: &[u32],
    chunk_size: usize,
) -> Vec<u32> {
    let total = vertices.len();
    if total == 0 {
        return Vec::new();
    }
    let chunks = total.div_ceil(chunk_size);
    let slots: Arc<Vec<Mutex<Vec<u32>>>> =
        Arc::new((0..chunks).map(|_| crate::lock_order::SCAN_CHUNK.mutex(Vec::new())).collect());
    let mut jobs: Vec<Job> = Vec::with_capacity(chunks);
    for c in 0..chunks {
        let lo = c * chunk_size;
        let hi = (lo + chunk_size).min(total);
        let mine: Vec<u32> = vertices[lo..hi].to_vec();
        let g = g.clone();
        let slots = slots.clone();
        jobs.push(Box::new(move || {
            let mut out = Vec::with_capacity(mine.len());
            for &v in &mine {
                let ego = EgoNetwork::extract(&g, v);
                out.push(social_contexts_of_ego(&ego, k, EgoDecomposition::Classic).len() as u32);
            }
            *slots[c].lock() = out; // lock: scan.chunk
        }));
    }
    pool.run_all(jobs);
    let mut scores = Vec::with_capacity(total);
    for slot in slots.iter() {
        scores.append(&mut slot.lock()); // lock: scan.chunk
    }
    scores
}

/// Computes `score(v)` for every vertex on the shared worker pool; result
/// identical to [`crate::online::all_scores`] at any thread count.
pub fn pool_all_scores(pool: &WorkerPool, g: &Arc<CsrGraph>, k: u32) -> Vec<u32> {
    let vertices: Vec<u32> = (0..g.n() as u32).collect();
    pool_scores_of(pool, g, k, &vertices, SCAN_CHUNK)
}

/// Algorithm 3 with the per-vertex score loop data-parallel on `pool`.
/// Byte-identical to [`crate::online::online_top_r`]: the collector is fed
/// in vertex order with the same scores, and `score_computations` is `n`
/// either way (the full scan computes everything regardless).
pub(crate) fn online_top_r_pooled(
    pool: &WorkerPool,
    g: &Arc<CsrGraph>,
    config: &DiversityConfig,
) -> TopRResult {
    let start = Instant::now();
    let scores = pool_all_scores(pool, g, config.k);
    let mut collector = TopRCollector::new(config.r);
    for (v, &score) in scores.iter().enumerate() {
        collector.offer(v as u32, score);
    }
    let entries = finish_entries(collector, |v| social_contexts(g, v, config.k));
    TopRResult {
        entries,
        metrics: SearchMetrics {
            score_computations: g.n(),
            elapsed: start.elapsed(),
            engine: "",
            parallel: true,
        },
    }
}

/// Algorithm 4 with the score loop data-parallel on `pool`, preserving the
/// sequential early-termination *point* exactly (see the [module
/// docs](self) for the window-replay scheme and the `score_computations`
/// rounding).
pub(crate) fn bound_top_r_pooled(
    pool: &WorkerPool,
    g: &Arc<CsrGraph>,
    config: &DiversityConfig,
    options: BoundOptions,
) -> TopRResult {
    let start = Instant::now();
    let reduced: Arc<CsrGraph> =
        if options.sparsify { Arc::new(sparsify(g, config.k).graph) } else { g.clone() };

    let bounds = if options.upper_bound {
        upper_bounds(&reduced, config.k)
    } else {
        vec![u32::MAX; reduced.n()]
    };
    let mut order: Vec<u32> = (0..reduced.n() as u32).collect();
    order.sort_unstable_by(|&a, &b| bounds[b as usize].cmp(&bounds[a as usize]));

    let mut collector = TopRCollector::new(config.r);
    let mut computations = 0usize;
    let mut pos = 0usize;
    'windows: while pos < order.len() {
        let end = (pos + BOUND_SCAN_WINDOW).min(order.len());
        // The window head has the best remaining bound; if even it cannot
        // beat the floor, the sequential scan would break here without
        // computing anything — so neither do we.
        if let Some(min_score) = collector.min_score() {
            if bounds[order[pos] as usize] <= min_score {
                break;
            }
        }
        let window = &order[pos..end];
        let scores = pool_scores_of(pool, &reduced, config.k, window, BOUND_SCAN_CHUNK);
        computations += window.len();
        // Replay Algorithm 4's sequential loop over the precomputed window:
        // identical offers, identical break point.
        for (i, &v) in window.iter().enumerate() {
            if let Some(min_score) = collector.min_score() {
                if bounds[v as usize] <= min_score {
                    break 'windows;
                }
            }
            collector.offer(v, scores[i]);
        }
        pos = end;
    }

    let entries = finish_entries(collector, |v| social_contexts(&reduced, v, config.k));
    TopRResult {
        entries,
        metrics: SearchMetrics {
            score_computations: computations,
            elapsed: start.elapsed(),
            engine: "",
            parallel: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::all_scores;
    use crate::paper::paper_figure1_graph;

    #[test]
    fn parallel_scores_match_serial() {
        let (g, _, _) = paper_figure1_graph();
        for k in [2, 4] {
            assert_eq!(all_scores_parallel(&g, k), all_scores(&g, k), "k={k}");
        }
    }

    #[test]
    fn pooled_scores_match_serial_at_any_thread_count() {
        let (g, _, _) = paper_figure1_graph();
        let g = Arc::new(g);
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            for k in [2, 4] {
                assert_eq!(pool_all_scores(&pool, &g, k), all_scores(&g, k), "t={threads} k={k}");
            }
        }
    }

    #[test]
    fn pooled_online_top_r_is_byte_identical() {
        let (g, _, _) = paper_figure1_graph();
        let g = Arc::new(g);
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            for (k, r) in [(2, 3), (4, 1), (4, 17), (5, 5)] {
                let cfg = DiversityConfig { k, r };
                let seq = crate::online::online_top_r(&g, &cfg);
                let par = online_top_r_pooled(&pool, &g, &cfg);
                assert_eq!(par.entries, seq.entries, "t={threads} k={k} r={r}");
                assert_eq!(
                    par.metrics.score_computations, seq.metrics.score_computations,
                    "the full scan computes n either way"
                );
                assert!(par.metrics.parallel && !seq.metrics.parallel);
            }
        }
    }

    #[test]
    fn pooled_bound_top_r_is_byte_identical() {
        let (g, _, _) = paper_figure1_graph();
        let g = Arc::new(g);
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            for sparsify in [false, true] {
                for upper_bound in [false, true] {
                    let options = BoundOptions { sparsify, upper_bound };
                    for (k, r) in [(2, 3), (4, 1), (4, 17)] {
                        let cfg = DiversityConfig { k, r };
                        let seq = crate::bound::bound_top_r_with(&g, &cfg, options);
                        let par = bound_top_r_pooled(&pool, &g, &cfg, options);
                        assert_eq!(par.entries, seq.entries, "t={threads} k={k} r={r} {options:?}");
                    }
                }
            }
        }
    }

    /// Figure 1 fits in one window, so the parallel Bound scan computes the
    /// whole window where the sequential one stops after a single vertex —
    /// the documented window rounding, deterministic per query.
    #[test]
    fn pooled_bound_metrics_are_window_rounded() {
        let (g, _, _) = paper_figure1_graph();
        let g = Arc::new(g);
        let cfg = DiversityConfig { k: 4, r: 1 };
        let a = bound_top_r_pooled(&WorkerPool::new(2), &g, &cfg, BoundOptions::default());
        let b = bound_top_r_pooled(&WorkerPool::new(4), &g, &cfg, BoundOptions::default());
        assert_eq!(a.metrics.score_computations, b.metrics.score_computations);
        assert_eq!(a.metrics.score_computations, g.n().min(BOUND_SCAN_WINDOW));
    }

    #[test]
    fn parallel_gct_matches_serial() {
        let (g, _, _) = paper_figure1_graph();
        let a = build_gct_parallel(&g);
        let b = GctIndex::build(&g);
        for v in g.vertices() {
            for k in 2..=5 {
                assert_eq!(a.score(v, k), b.score(v, k), "v={v} k={k}");
            }
        }
    }
}
