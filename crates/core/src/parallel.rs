//! Every index entry the serving path writes, on the shared
//! [`crate::pool::WorkerPool`], with **deterministic static chunking**:
//! every index is byte-identical to the paper's sequential build at any
//! thread count.
//!
//! One per-vertex body writes every entry: it extracts `v`'s ego-network
//! from a [`CsrGraph`], decomposes it (bitmap peeling up to
//! [`crate::gct::BITMAP_FALLBACK_THRESHOLD`] ego vertices, classic above),
//! takes its maximum spanning forest once, and appends `v`'s TSD forest,
//! GCT entry, or both. One runner maps it over an ascending vertex list
//! through [`WorkerPool::run_all`], the calling thread taking part: every
//! vertex for [`crate::build_engine_in`]'s builds, the affected egos for
//! [`crate::dynamic::DynamicTsd::apply_batch`]'s repair. A 1-thread pool
//! runs the chunks inline, one after another.
//!
//! The Online and Bound engines are not here: they run the paper's
//! single-threaded Algorithms 3 and 4, so their search spaces are the
//! paper's, and a [`crate::SearchService`] does not serve them.
//!
//! ## The determinism contract
//!
//! Chunk boundaries are fixed ([`SCAN_CHUNK`] listed vertices), *not*
//! derived from the thread count. Each chunk assembles its own flat index,
//! and the parts are concatenated in list order on the calling thread, so
//! a build equals [`TsdIndex::build`] / [`GctIndex::build`] byte for byte
//! (trussness does not depend on the peeling method). Those sequential
//! builds stay as the references; only [`GctIndex::build`] lists triangles
//! globally (Algorithm 7's one-shot extraction).
//!
//! This is a beyond-the-paper extension (the paper's implementation is
//! single-threaded) and is benchmarked in `sd-bench` (`index_build.rs`).

use std::sync::Arc;

use sd_graph::{CsrGraph, VertexId};
use sd_truss::vertex_trussness;

use crate::egonet::EgoNetwork;
use crate::gct::{decompose, GctBuilder, GctIndex};
use crate::pool::{Job, WorkerPool};
use crate::tsd::{max_spanning_forest, TsdBuilder, TsdIndex};

/// Vertices per job in the pooled index writes. Fixed so chunk boundaries
/// — and therefore indexes — never depend on the thread count.
pub const SCAN_CHUNK: usize = 256;

/// Which indexes a pass of [`write_entries`] writes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Writes {
    /// A TSD forest per listed vertex.
    pub(crate) tsd: bool,
    /// A GCT entry per listed vertex.
    pub(crate) gct: bool,
}

impl Writes {
    /// A TSD-index build.
    pub(crate) const TSD: Writes = Writes { tsd: true, gct: false };
    /// A GCT-index build.
    pub(crate) const GCT: Writes = Writes { tsd: false, gct: true };
}

/// The one body that writes index entries (Algorithms 5 and 8): appends
/// `v`'s entry in `g` to each builder given.
fn write_entry(
    g: &CsrGraph,
    v: VertexId,
    tsd: Option<&mut TsdBuilder>,
    gct: Option<&mut GctBuilder>,
) {
    let ego = EgoNetwork::extract(g, v);
    let decomposition = decompose(&ego.graph);
    let forest = max_spanning_forest(&ego.graph, &decomposition);
    if let Some(tsd) = tsd {
        tsd.push_local_forest(&ego, &forest);
    }
    if let Some(gct) = gct {
        gct.push_forest(&ego, &forest, &vertex_trussness(&ego.graph, &decomposition));
    }
}

/// The entries of `vertices` (ascending) in `g`, in list order, as a
/// TSD-index and a GCT-index over `vertices.len()` vertices; an index
/// `writes` leaves out comes back empty. One pool job per [`SCAN_CHUNK`],
/// the parts concatenated in chunk order whatever order they finished in.
pub(crate) fn write_entries(
    pool: &WorkerPool,
    g: &Arc<CsrGraph>,
    vertices: Arc<[VertexId]>,
    writes: Writes,
) -> (TsdIndex, GctIndex) {
    let total = vertices.len();
    let jobs: Vec<Job<(Option<TsdIndex>, Option<GctIndex>)>> = (0..total.div_ceil(SCAN_CHUNK))
        .map(|c| {
            let (graph, vertices) = (g.clone(), vertices.clone());
            Box::new(move || {
                let chunk = &vertices[c * SCAN_CHUNK..((c + 1) * SCAN_CHUNK).min(total)];
                let mut tsd = writes.tsd.then(|| TsdBuilder::new(chunk.len()));
                let mut gct = writes.gct.then(|| GctBuilder::new(chunk.len()));
                for &v in chunk {
                    write_entry(&graph, v, tsd.as_mut(), gct.as_mut());
                }
                (tsd.map(TsdBuilder::finish), gct.map(GctBuilder::finish))
            }) as Job<_>
        })
        .collect();
    let (tsd, gct): (Vec<_>, Vec<_>) = pool.run_all(jobs).into_iter().unzip();
    (
        TsdIndex::concat(tsd.into_iter().flatten().collect()),
        GctIndex::concat(gct.into_iter().flatten().collect()),
    )
}

/// A strip of triangles spanning three [`SCAN_CHUNK`]s and ending
/// mid-chunk, so a pooled build's concatenation sees full and ragged
/// parts.
#[cfg(test)]
pub(crate) fn triangle_strip() -> Arc<CsrGraph> {
    let edges = (0..2 * SCAN_CHUNK as u32 + 7).flat_map(|v| [(v, v + 1), (v, v + 2)]);
    Arc::new(sd_graph::GraphBuilder::new().extend_edges(edges).build())
}

/// The TSD-index and the GCT-index of `g`, each written by its own pass of
/// [`write_entries`] over every vertex, as a build writes them.
#[cfg(test)]
pub(crate) fn pooled_builds(pool: &WorkerPool, g: &Arc<CsrGraph>) -> (TsdIndex, GctIndex) {
    let tsd = write_entries(pool, g, g.vertices().collect(), Writes::TSD).0;
    (tsd, write_entries(pool, g, g.vertices().collect(), Writes::GCT).1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_figure1_graph;

    /// Figure 1 is one chunk; the strip is three. A build writes one
    /// index; a pass that writes both writes the same two.
    #[test]
    fn pooled_builds_are_byte_identical() {
        let (g, _, _) = paper_figure1_graph();
        for g in [Arc::new(g), triangle_strip()] {
            let (tsd, gct) = (TsdIndex::build(&g).to_bytes(), GctIndex::build(&g).to_bytes());
            for threads in [1, 2, 4] {
                let pool = WorkerPool::new(threads);
                let (one, other) = pooled_builds(&pool, &g);
                assert_eq!(one.to_bytes(), tsd, "tsd t={threads}");
                assert_eq!(other.to_bytes(), gct, "gct t={threads}");
                let both = Writes { tsd: true, gct: true };
                let (one, other) = write_entries(&pool, &g, g.vertices().collect(), both);
                assert_eq!((one.to_bytes(), other.to_bytes()), (tsd.clone(), gct.clone()));
            }
        }
    }

    /// A pass over a vertex list writes exactly those vertices' entries,
    /// in list order; the index it leaves out is empty.
    #[test]
    fn a_listed_pass_writes_the_listed_entries_in_order() {
        let g = triangle_strip();
        let (tsd, gct) = (TsdIndex::build(&g), GctIndex::build(&g));
        let listed: Vec<VertexId> = (0..g.n() as VertexId).step_by(3).collect();
        for threads in [1, 2] {
            let pool = WorkerPool::new(threads);
            let (part, none) = write_entries(&pool, &g, listed.clone().into(), Writes::TSD);
            assert_eq!((part.n(), none.n()), (listed.len(), 0));
            for (i, &v) in listed.iter().enumerate() {
                assert!(part.forest(i as VertexId).eq(tsd.forest(v)), "tsd {v} t={threads}");
            }
            let (none, part) = write_entries(&pool, &g, listed.clone().into(), Writes::GCT);
            assert_eq!((none.n(), part.n()), (0, listed.len()));
            for (i, &v) in listed.iter().enumerate() {
                assert_eq!(part.entry(i as VertexId), gct.entry(v), "gct {v} t={threads}");
            }
        }
    }
}
