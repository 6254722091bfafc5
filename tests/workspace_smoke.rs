//! Workspace smoke test: the umbrella crate's re-exports resolve and the
//! paper's Figure-1 running example yields a top-1 diversity score of 3
//! (vertex v's ego-network splits into three social contexts at k = 4)
//! through every one of the engines behind the `SearchService` facade.

use structural_diversity::graph::GraphBuilder;
use structural_diversity::search::{paper_figure1_edges, EngineKind, QuerySpec, SearchService};
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
    let g = GraphBuilder::new().extend_edges(paper_figure1_edges()).build();
    let service = SearchService::new(g);
    // Join the (non-blocking) builds so no query below has to join one:
    // each is answered by a ready engine.
    service.wait_ready(EngineKind::ALL);
    let spec = QuerySpec::new(4, 1).expect("valid query");

    for kind in EngineKind::ALL {
        let result = service.top_r(&spec.with_engine(kind)).expect("query");
        assert_eq!(result.entries[0].score, 3, "engine {kind} disagrees with Figure 1");
        assert_eq!(result.metrics.engine, kind.name());
    }

    // And `Auto` (the spec's default routing) agrees too.
    let auto = service.top_r(&spec).expect("auto query");
    assert_eq!(auto.entries[0].score, 3, "Auto routing disagrees with Figure 1");
}
