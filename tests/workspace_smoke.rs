//! Workspace smoke test: the umbrella crate's re-exports resolve and the
//! paper's Figure-1 running example yields a top-1 diversity score of 3
//! (vertex v's ego-network splits into three social contexts at k = 4)
//! through every engine: the GCT index behind the `SearchService` facade,
//! and the other three built directly.

use std::sync::Arc;

use structural_diversity::graph::GraphBuilder;
use structural_diversity::search::{
    build_engine, paper_figure1_edges, EngineKind, QuerySpec, SearchError, SearchService,
};
use structural_diversity::{datasets, influence, truss};

#[test]
fn umbrella_reexports_resolve() {
    // Touch one item behind each re-exported member so the paths are
    // exercised end to end, not just name-resolved.
    let g = GraphBuilder::new().extend_edges([(0, 1), (1, 2), (0, 2)]).build();
    assert_eq!((g.n(), g.m()), (3, 3));

    let decomposition = truss::truss_decomposition(&g);
    assert_eq!(decomposition.max_trussness, 3, "a triangle is a 3-truss");

    assert!(!datasets::registry().is_empty(), "Table-1 registry is populated");

    let seeds = influence::degree_discount_seeds(&g, 0.1, 1);
    assert_eq!(seeds.len(), 1);
}

#[test]
fn figure1_top1_score_is_3_via_every_engine() {
    let g = Arc::new(GraphBuilder::new().extend_edges(paper_figure1_edges()).build());
    let service = SearchService::from_arc(g.clone());
    // Join the (non-blocking) builds so no query below has to join one:
    // each is answered by a ready engine.
    assert_eq!(service.wait_ready(EngineKind::ALL), SearchService::SERVED.to_vec());
    let spec = QuerySpec::new(4, 1).expect("valid query");

    for kind in EngineKind::ALL {
        let spec = spec.with_engine(kind);
        let result = if SearchService::SERVED.contains(&kind) {
            service.top_r(&spec).expect("query")
        } else {
            let refused = service.top_r(&spec).expect_err("the service serves the indexes");
            assert_eq!(refused, SearchError::EngineNotServed { engine: kind });
            build_engine(kind, g.clone()).top_r(&spec).expect("query")
        };
        assert_eq!(result.entries[0].score, 3, "engine {kind} disagrees with Figure 1");
        assert_eq!(result.metrics.engine, kind.name());
    }

    // And `Auto` (the spec's default routing) agrees too.
    let auto = service.top_r(&spec).expect("auto query");
    assert_eq!(auto.entries[0].score, 3, "Auto routing disagrees with Figure 1");
}
