//! Parallel index construction on the shared [`crate::pool::WorkerPool`],
//! with **deterministic static chunking**: every index is byte-identical
//! to the paper's sequential build at any thread count.
//!
//! The per-vertex work of an index build (ego extraction + truss
//! decomposition + forest or entry assembly) is embarrassingly parallel.
//! [`crate::build_engine_in`] runs every TSD and GCT build here, on the
//! pool it is given, through [`WorkerPool::run_all`] with the calling
//! thread taking part; a [`crate::SearchService`] does so whenever a cold
//! query, a warmup job, `wait_ready` or an export needs an index. A
//! 1-thread pool runs the chunks inline, one after another.
//!
//! The Online and Bound engines are not here: they run the paper's
//! single-threaded Algorithms 3 and 4, so their search spaces are the
//! paper's. The pool reaches them only through
//! [`crate::SearchService::top_r_many`], which fans a batch out one query
//! per task.
//!
//! ## The determinism contract
//!
//! Chunk boundaries are fixed ([`SCAN_CHUNK`] vertices), *not* derived
//! from the thread count. Each chunk assembles its own flat index, and the
//! parts are concatenated in vertex order on the calling thread, so the
//! index equals [`TsdIndex::build`] / [`GctIndex::build`] byte for byte.
//! The GCT build keeps Algorithm 7's one-shot [`crate::AllEgoNetworks`]
//! extraction on the building thread and chunks only decomposition and
//! assembly.
//!
//! This is a beyond-the-paper extension (the paper's implementation is
//! single-threaded) and is benchmarked in `sd-bench` (`index_build.rs`).

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use sd_graph::CsrGraph;

use crate::egonet::{AllEgoNetworks, EgoNetwork};
use crate::gct::{GctBuilder, GctIndex};
use crate::pool::{Job, WorkerPool};
use crate::tsd::{TsdBuilder, TsdIndex};

/// Vertices per job in the pooled index builds. Fixed so chunk
/// boundaries — and therefore indexes — never depend on the thread count.
pub const SCAN_CHUNK: usize = 256;

/// Runs `work` over `0..total` in [`SCAN_CHUNK`]s, one pool job per chunk
/// with the caller taking part, and returns the chunks' outputs in chunk
/// order, whatever order they finished in.
fn map_chunks<T, F>(pool: &WorkerPool, total: usize, work: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Range<usize>) -> T + Send + Sync + 'static,
{
    let work = Arc::new(work);
    let chunks = total.div_ceil(SCAN_CHUNK);
    let slots: Arc<Vec<Mutex<Option<T>>>> =
        Arc::new((0..chunks).map(|_| crate::lock_order::SCAN_CHUNK.mutex(None)).collect());
    let jobs: Vec<Job> = (0..chunks)
        .map(|c| {
            let (work, slots) = (work.clone(), slots.clone());
            Box::new(move || {
                let out = work(c * SCAN_CHUNK..((c + 1) * SCAN_CHUNK).min(total));
                *slots[c].lock() = Some(out); // lock: scan.chunk
            }) as Job
        })
        .collect();
    pool.run_all(jobs);
    // `run_all` re-raises a panicked job, so every slot is filled here.
    slots.iter().filter_map(|slot| slot.lock().take()).collect() // lock: scan.chunk
}

/// Algorithm 5 in [`SCAN_CHUNK`] vertex chunks on `pool`; byte-identical
/// to [`TsdIndex::build`] at any thread count.
pub(crate) fn build_tsd_pooled(pool: &WorkerPool, g: &Arc<CsrGraph>) -> TsdIndex {
    let graph = g.clone();
    let parts = map_chunks(pool, g.n(), move |range| {
        let mut part = TsdBuilder::new(range.len());
        for v in range {
            part.push_vertex(&EgoNetwork::extract(&graph, v as u32));
        }
        part.finish()
    });
    TsdIndex::concat(parts)
}

/// Algorithm 7 with its one-shot ego extraction on the calling thread and
/// decomposition and assembly in [`SCAN_CHUNK`] vertex chunks on `pool`;
/// byte-identical to [`GctIndex::build`] at any thread count.
pub(crate) fn build_gct_pooled(pool: &WorkerPool, g: &Arc<CsrGraph>) -> GctIndex {
    let (graph, all) = (g.clone(), AllEgoNetworks::build(g));
    let parts = map_chunks(pool, g.n(), move |range| {
        let mut part = GctBuilder::new(range.len());
        for v in range {
            part.push_vertex(&graph, &all, v as u32);
        }
        part.finish()
    });
    GctIndex::concat(parts)
}

/// A strip of triangles spanning three [`SCAN_CHUNK`]s and ending
/// mid-chunk, so a pooled build's concatenation sees full and ragged
/// parts.
#[cfg(test)]
pub(crate) fn triangle_strip() -> Arc<CsrGraph> {
    let edges = (0..2 * SCAN_CHUNK as u32 + 7).flat_map(|v| [(v, v + 1), (v, v + 2)]);
    Arc::new(sd_graph::GraphBuilder::new().extend_edges(edges).build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_figure1_graph;

    /// Figure 1 is one chunk; the strip is three.
    #[test]
    fn pooled_builds_are_byte_identical() {
        let (g, _, _) = paper_figure1_graph();
        for g in [Arc::new(g), triangle_strip()] {
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
