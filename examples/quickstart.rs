//! Quickstart: build a graph, run a top-r truss-based structural diversity
//! query through the GCT-index behind the `SearchService`, the TSD-index
//! and the index-free Online and Bound scans, and inspect the social
//! contexts —
//! including serving queries from several threads at once, the shape a
//! production deployment has.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use structural_diversity::graph::GraphBuilder;
use structural_diversity::search::{
    build_engine, paper::PAPER_FIGURE1_NAMES, paper_figure1_edges, EngineKind, QuerySpec,
    SearchError, SearchService,
};

fn main() -> Result<(), SearchError> {
    // The paper's running example (Figure 1): vertex v with three social
    // contexts at k = 4.
    let g = GraphBuilder::new().extend_edges(paper_figure1_edges()).build();
    println!("graph: n={} m={}", g.n(), g.m());

    // One service owns the graph and serves its GCT-index, which builds in
    // chunks on the shared worker pool (a cold query joins the build, and
    // the index answers it). `warmup` enqueues, `wait_ready` joins, so the
    // per-engine comparison below times the index's warm query.
    let service = Arc::new(SearchService::new(g));
    service.warmup(SearchService::SERVED);
    service.wait_ready(SearchService::SERVED);
    let spec = QuerySpec::new(4, 3)?;

    // The four engines answer the same validated spec; only preprocessing
    // and per-query work differ (metrics carry the search-space column).
    // The service refuses the other three, the paper's baselines, so
    // those are built directly.
    let mut last: Option<Vec<u32>> = None;
    for kind in EngineKind::ALL {
        let result = if SearchService::SERVED.contains(&kind) {
            service.top_r(&spec.with_engine(kind))?
        } else {
            build_engine(kind, service.graph()).top_r(&spec)?
        };
        println!(
            "[{:>6}] evaluated {:>2} vertices in {:?}",
            result.metrics.engine, result.metrics.score_computations, result.metrics.elapsed
        );
        if let Some(previous) = &last {
            assert_eq!(previous, &result.scores(), "engines must agree");
        }
        last = Some(result.scores());
    }

    // `Auto` names the GCT-index, so here it reuses the index built above.
    let auto = service.top_r(&spec)?;
    println!("[  auto] routed to `{}`", auto.metrics.engine);

    // Concurrent serving: clone the Arc into worker threads; the engine
    // cache is shared, no locks in caller code.
    let answers: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let service = service.clone();
                scope.spawn(move || service.top_r(&spec).map(|r| r.scores()))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker")).collect::<Result<_, _>>()
    })?;
    assert!(answers.iter().all(|scores| Some(scores) == last.as_ref()));
    println!("[worker] {} threads agree; {} queries served", 4, service.stats().queries_served);

    // Batches fan out across the process-wide worker pool (results stay
    // byte-identical to the sequential loop, in spec order).
    let batch = [spec, spec.with_engine(EngineKind::Gct)];
    let (_, results) = service.top_r_many_pinned(&batch)?;
    assert!(results.iter().all(|r| Some(r.scores()) == last));
    let stats = service.stats();
    println!(
        "[  pool] {} worker threads; {} pool-assisted queries",
        stats.pool_threads, stats.parallel_queries
    );

    println!("\ntop-{} vertices at k = {}:", spec.r(), spec.k());
    for entry in &auto.entries {
        let name = PAPER_FIGURE1_NAMES[entry.vertex as usize];
        println!("  {name}: score {}", entry.score);
        for (i, context) in entry.contexts.iter().enumerate() {
            let members: Vec<&str> =
                context.iter().map(|&u| PAPER_FIGURE1_NAMES[u as usize]).collect();
            println!("    context {}: {{{}}}", i + 1, members.join(", "));
        }
    }
    Ok(())
}
