//! Every GCT entry the serving path writes, on the shared
//! [`crate::pool::WorkerPool`], with **deterministic static chunking**:
//! the index is byte-identical to the paper's sequential build at any
//! thread count.
//!
//! One writer, `write_gct`, writes the entries of an ascending vertex
//! list: per vertex it extracts the ego-network from a [`CsrGraph`],
//! decomposes it (bitmap peeling up to
//! [`crate::gct::BITMAP_FALLBACK_THRESHOLD`] ego vertices, classic above),
//! takes its maximum spanning forest, and compresses it (Algorithm 8). It
//! runs over every vertex for [`crate::build_engine_in`]'s GCT build, and
//! over the affected egos for the repairs of
//! [`crate::SearchService::apply_updates`]. The chunks run through
//! [`WorkerPool::run_all`], the calling thread taking part; a 1-thread
//! pool runs them inline, one after another.
//!
//! The other engines are not here. Online and Bound run the paper's
//! single-threaded Algorithms 3 and 4, so their search spaces are the
//! paper's, and the TSD-index is built by the sequential Algorithm 5
//! ([`crate::TsdIndex::build`]), as every experiment times it.
//!
//! ## The determinism contract
//!
//! Chunk boundaries are fixed ([`SCAN_CHUNK`] listed vertices), *not*
//! derived from the thread count. Each chunk assembles its own flat index,
//! and the parts are concatenated in list order on the calling thread, so
//! a build equals [`crate::GctIndex::build`] byte for byte (trussness does not
//! depend on the peeling method). That sequential build stays as the
//! reference, and lists triangles globally (Algorithm 7's one-shot
//! extraction).
//!
//! This is a beyond-the-paper extension (the paper's implementation is
//! single-threaded) and is benchmarked in `sd-bench` (`index_build.rs`).

use std::sync::Arc;

use sd_graph::{CsrGraph, VertexId};
use sd_truss::vertex_trussness;

use crate::egonet::EgoNetwork;
use crate::gct::{decompose, GctBuilder};
use crate::pool::{Job, WorkerPool};
use crate::tsd::max_spanning_forest;

/// Vertices per job in the pooled index writes. Fixed so chunk boundaries
/// — and therefore indexes — never depend on the thread count.
pub const SCAN_CHUNK: usize = 256;

/// The GCT entries of `vertices` (ascending) in `g`, in list order, over
/// `vertices.len()` vertices: a whole index once [`GctBuilder::finish`]
/// derives its score order, or an update's repair patch for
/// `GctIndex::splice`, which carries the order instead. One pool job per
/// [`SCAN_CHUNK`] listed vertices writes each vertex's entry (Algorithm 8):
/// its ego-network in `g`, the ego's truss decomposition, and the maximum
/// spanning forest the entry compresses. The parts come back in chunk
/// order, whatever order they finished in.
pub(crate) fn write_gct(
    pool: &WorkerPool,
    g: &Arc<CsrGraph>,
    vertices: Arc<[VertexId]>,
) -> GctBuilder {
    let total = vertices.len();
    let jobs: Vec<Job<GctBuilder>> = (0..total.div_ceil(SCAN_CHUNK))
        .map(|c| {
            let (g, vertices) = (g.clone(), vertices.clone());
            Box::new(move || {
                let chunk = &vertices[c * SCAN_CHUNK..((c + 1) * SCAN_CHUNK).min(total)];
                let mut out = GctBuilder::new(chunk.len());
                for &v in chunk {
                    let ego = EgoNetwork::extract(&g, v);
                    let decomposition = decompose(&ego.graph);
                    let forest = max_spanning_forest(&ego.graph, &decomposition);
                    out.push_forest(&ego, &forest, &vertex_trussness(&ego.graph, &decomposition));
                }
                out.shrink_to_fit()
            }) as Job<GctBuilder>
        })
        .collect();
    let parts = pool.run_all(jobs);
    // Free the list before the concatenation allocates the whole index
    // beside its parts: for a build, n ids at the build's peak.
    drop(vertices);
    GctBuilder::concat(parts)
}

/// A strip of triangles spanning three [`SCAN_CHUNK`]s and ending
/// mid-chunk, so a pooled build's concatenation sees full and ragged
/// parts.
#[cfg(test)]
pub(crate) fn triangle_strip() -> Arc<CsrGraph> {
    let edges = (0..2 * SCAN_CHUNK as u32 + 7).flat_map(|v| [(v, v + 1), (v, v + 2)]);
    Arc::new(sd_graph::GraphBuilder::new().extend_edges(edges).build())
}

/// The GCT-index of `g`, written over every vertex, as a build writes it.
#[cfg(test)]
pub(crate) fn pooled_build(pool: &WorkerPool, g: &Arc<CsrGraph>) -> crate::GctIndex {
    write_gct(pool, g, g.vertices().collect()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gct::GctIndex;
    use crate::paper::paper_figure1_graph;

    /// Figure 1 is one chunk; the strip is three. The pooled index equals
    /// the sequential one, its score order included.
    #[test]
    fn pooled_builds_are_byte_identical() {
        let (g, _, _) = paper_figure1_graph();
        for g in [Arc::new(g), triangle_strip()] {
            let gct = GctIndex::build(&g);
            for threads in [1, 2, 4] {
                let pooled = pooled_build(&WorkerPool::new(threads), &g);
                assert_eq!(pooled.to_bytes(), gct.to_bytes(), "t={threads}");
                assert_eq!(pooled, gct, "t={threads}");
            }
        }
    }

    /// A pass over a vertex list writes exactly those vertices' entries,
    /// in list order.
    #[test]
    fn a_listed_pass_writes_the_listed_entries_in_order() {
        let g = triangle_strip();
        let gct = GctIndex::build(&g);
        let listed: Vec<VertexId> = (0..g.n() as VertexId).step_by(3).collect();
        for threads in [1, 2] {
            let part = write_gct(&WorkerPool::new(threads), &g, listed.clone().into()).finish();
            assert_eq!(part.n(), listed.len());
            for (i, &v) in listed.iter().enumerate() {
                assert_eq!(part.entry(i as VertexId), gct.entry(v), "{v} t={threads}");
            }
        }
    }
}
