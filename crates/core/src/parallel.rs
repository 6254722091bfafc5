//! Parallel index construction and scoring on the shared
//! [`crate::pool::WorkerPool`], with **deterministic static chunking**:
//! results are byte-identical to the sequential path at any thread count.
//!
//! The per-vertex work (ego extraction + truss decomposition + forest or
//! context assembly) is embarrassingly parallel. Every parallel task in
//! this crate runs on the one pool, through [`WorkerPool::run_all`] with
//! the calling thread taking part:
//!
//! * the TSD and GCT index builds, which a [`crate::SearchService`] runs
//!   whenever a cold query, a warmup job, `wait_ready` or an export needs
//!   an index (placed by its [`crate::ScanPolicy`]);
//! * the query-path scans ([`pool_all_scores`] and the pooled Online/Bound
//!   `top_r` used by [`crate::OnlineEngine`] / [`crate::BoundEngine`]), so
//!   concurrent queries, batch fan-out and index builds all draw from one
//!   set of threads.
//!
//! ## The determinism contract
//!
//! Chunk boundaries are fixed constants, *not* derived from the thread
//! count, and every reduction happens in chunk order on the calling
//! thread. Consequences:
//!
//! * the pooled builds assemble each [`SCAN_CHUNK`] of vertices into its
//!   own flat index and concatenate the parts in vertex order, so the
//!   index equals [`TsdIndex::build`] / [`GctIndex::build`] byte for byte.
//!   The GCT build keeps Algorithm 7's one-shot
//!   [`crate::AllEgoNetworks`] extraction on the building thread and
//!   chunks only decomposition and assembly;
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
//! single-threaded) and is benchmarked in `sd-bench` (`index_build.rs`,
//! `scalability.rs`).

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use sd_graph::CsrGraph;

use crate::bound::{finish_entries, sparsify, upper_bounds, BoundOptions};
use crate::config::{DiversityConfig, SearchMetrics, TopRResult};
use crate::egonet::{AllEgoNetworks, EgoNetwork};
use crate::gct::{GctBuilder, GctIndex};
use crate::pool::{Job, WorkerPool};
use crate::score::{social_contexts, social_contexts_of_ego, EgoDecomposition};
use crate::topr::TopRCollector;
use crate::tsd::{TsdBuilder, TsdIndex};

/// Vertices per job in the pooled index builds and the pooled full scan
/// ([`pool_all_scores`] and the pooled Online `top_r`). Fixed so chunk
/// boundaries — and therefore results — never depend on the thread count.
pub const SCAN_CHUNK: usize = 256;

/// Vertices per parallel window in the pooled Bound scan: scores for one
/// window are computed in parallel, then replayed through Algorithm 4's
/// sequential early-termination check. Fixed for the same reason as
/// [`SCAN_CHUNK`]; the window is also the granularity of the
/// `score_computations` rounding documented in the [module docs](self).
pub const BOUND_SCAN_WINDOW: usize = 1024;

/// Vertices per job within one Bound window.
const BOUND_SCAN_CHUNK: usize = 128;

/// Runs `work` over `0..total` in fixed chunks of `chunk` items, one pool
/// job per chunk with the caller taking part, and returns the chunks'
/// outputs in chunk order, whatever order they finished in.
fn map_chunks<T, F>(pool: &WorkerPool, total: usize, chunk: usize, work: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Range<usize>) -> T + Send + Sync + 'static,
{
    let work = Arc::new(work);
    let chunks = total.div_ceil(chunk);
    let slots: Arc<Vec<Mutex<Option<T>>>> =
        Arc::new((0..chunks).map(|_| crate::lock_order::SCAN_CHUNK.mutex(None)).collect());
    let jobs: Vec<Job> = (0..chunks)
        .map(|c| {
            let (work, slots) = (work.clone(), slots.clone());
            Box::new(move || {
                let out = work(c * chunk..(c * chunk + chunk).min(total));
                *slots[c].lock() = Some(out); // lock: scan.chunk
            }) as Job
        })
        .collect();
    pool.run_all(jobs);
    // `run_all` re-raises a panicked job, so every slot is filled here.
    slots.iter().filter_map(|slot| slot.lock().take()).collect() // lock: scan.chunk
}

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
    let (g, vertices) = (g.clone(), Arc::<[u32]>::from(vertices));
    let total = vertices.len();
    let parts = map_chunks(pool, total, chunk_size, move |range| {
        let score = |&v: &u32| {
            let ego = EgoNetwork::extract(&g, v);
            social_contexts_of_ego(&ego, k, EgoDecomposition::Classic).len() as u32
        };
        vertices[range].iter().map(score).collect::<Vec<u32>>()
    });
    parts.concat()
}

/// Algorithm 5 in [`SCAN_CHUNK`] vertex chunks on `pool`; byte-identical
/// to [`TsdIndex::build`] at any thread count.
pub(crate) fn build_tsd_pooled(pool: &WorkerPool, g: &Arc<CsrGraph>) -> TsdIndex {
    let graph = g.clone();
    let parts = map_chunks(pool, g.n(), SCAN_CHUNK, move |range| {
        let mut part = TsdBuilder::new(range.len());
        for v in range {
            part.push_vertex(&EgoNetwork::extract(&graph, v as u32));
        }
        part.finish()
    });
    let mut index = TsdBuilder::new(g.n());
    for part in parts {
        index.extend_from(&part, 0..part.n());
    }
    index.finish()
}

/// Algorithm 7 with its one-shot ego extraction on the calling thread and
/// decomposition and assembly in [`SCAN_CHUNK`] vertex chunks on `pool`;
/// byte-identical to [`GctIndex::build`] at any thread count. The parts
/// keep no spare capacity: the last of them lands while all of them and
/// the extracted ego networks are alive, which is the build's heap peak.
pub(crate) fn build_gct_pooled(pool: &WorkerPool, g: &Arc<CsrGraph>) -> GctIndex {
    let (graph, all) = (g.clone(), AllEgoNetworks::build(g));
    let parts = map_chunks(pool, g.n(), SCAN_CHUNK, move |range| {
        let mut part = GctBuilder::new(range.len());
        for v in range {
            part.push_vertex(&graph, &all, v as u32);
        }
        part.finish_exact()
    });
    let mut index = GctBuilder::new(g.n());
    for part in parts {
        index.extend_from(&part, 0..part.n());
    }
    index.finish()
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

    /// Figure 1 is one chunk; a strip of triangles spans three chunks and
    /// ends mid-chunk, so the concatenation sees full and ragged parts.
    #[test]
    fn pooled_builds_are_byte_identical() {
        let (g, _, _) = paper_figure1_graph();
        let strip = sd_graph::GraphBuilder::new()
            .extend_edges((0..2 * SCAN_CHUNK as u32 + 7).flat_map(|v| [(v, v + 1), (v, v + 2)]))
            .build();
        for g in [g, strip].map(Arc::new) {
            for threads in [1, 2, 4] {
                let pool = WorkerPool::new(threads);
                let tsd = build_tsd_pooled(&pool, &g).to_bytes();
                assert_eq!(tsd, TsdIndex::build(&g).to_bytes(), "tsd t={threads}");
                let gct = build_gct_pooled(&pool, &g).to_bytes();
                assert_eq!(gct, GctIndex::build(&g).to_bytes(), "gct t={threads}");
            }
        }
    }
}
