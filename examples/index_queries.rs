//! Index lifecycle: build the TSD and GCT indexes once, export the GCT
//! index as a fingerprinted bundle to disk, import it into a
//! fresh `SearchService`, and answer many (k, r) queries — the "index once,
//! query forever" workflow the paper designs Section 5/6 around, made safe
//! for persistence: a bundle exported from one graph cannot be attached to
//! another.
//!
//! ```sh
//! cargo run --release --example index_queries
//! ```

use std::time::Instant;

use structural_diversity::datasets;
use structural_diversity::graph::GraphBuilder;
use structural_diversity::search::{
    build_engine, EngineKind, QuerySpec, SearchError, SearchService,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = datasets::dataset("email-enron-syn").expect("registry dataset");
    let g = dataset.generate(0.2);
    println!("graph: {} (n={} m={})", dataset.name, g.n(), g.m());

    // The service serves the GCT-index; the TSD-index, its uncompressed
    // form, is built directly for the comparison below.
    let service = SearchService::new(g);
    let t0 = Instant::now();
    let tsd = build_engine(EngineKind::Tsd, service.graph());
    println!("TSD-index: built in {:?}", t0.elapsed());
    let t1 = Instant::now();
    let gct_blob = service.export_bundle();
    println!(
        "GCT-index: built and exported in {:?}, {} bytes, fingerprint {}",
        t1.elapsed(),
        gct_blob.len(),
        service.fingerprint()
    );

    // Export / import round-trip (e.g. to ship the index next to the
    // data): a fresh service revives the engine from the bundle instead
    // of rebuilding it, after checking the blob really belongs to its graph
    // and that its payload is intact.
    let dir = std::env::temp_dir().join("sd_index_example");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("graph-gct.sdib");
    std::fs::write(&path, &gct_blob)?;
    let blob = std::fs::read(&path)?;
    let reloaded = SearchService::from_arc(service.graph());
    reloaded.import_bundle(blob.into())?;
    println!("imported {:?} from {}", reloaded.built_engines(), path.display());

    // The fingerprint guards the attachment: the same bundle is refused
    // by a service over any other graph.
    let other = SearchService::new(GraphBuilder::new().extend_edges([(0, 1), (1, 2)]).build());
    match other.import_bundle(std::fs::read(&path)?.into()) {
        Err(SearchError::FingerprintMismatch { expected, found }) => {
            println!("wrong graph correctly refused: expected {expected}, blob has {found}");
        }
        other => panic!("wrong-graph import must fail with FingerprintMismatch, got {other:?}"),
    }

    // The file only demonstrates the round trip: leave nothing behind.
    std::fs::remove_dir_all(&dir)?;

    // One index, many queries: the same structures answer every (k, r).
    println!("\n{:<6} {:<4} {:>14} {:>14}", "k", "r", "TSD query", "GCT query");
    for k in [3u32, 4, 5, 6] {
        for r in [10usize, 100] {
            let spec = QuerySpec::new(k, r)?;
            let a = tsd.top_r(&spec)?;
            let b = reloaded.top_r(&spec.with_engine(EngineKind::Gct))?;
            assert_eq!(a.scores(), b.scores(), "engines must agree");
            let top = a.entries.first().map(|e| e.score).unwrap_or(0);
            println!(
                "k={k:<4} r={r:<4} {:>12.2?} {:>12.2?}   (top score {top})",
                a.metrics.elapsed, b.metrics.elapsed
            );
        }
    }
    Ok(())
}
