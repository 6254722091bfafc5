//! Concurrent serving: one `SearchService` shared via `Arc` across many
//! threads must serve every engine kind it serves through `&self` with
//! answers identical to the single-threaded path, and to the index-free
//! scans built directly — the acceptance bar for the 0.3 serving-layer
//! redesign. The fixtures mirror `tests/equivalence.rs`: the Figure-1
//! graph and a mid-sized registry dataset.

use std::sync::Arc;

use structural_diversity::datasets;
use structural_diversity::graph::{CsrGraph, GraphBuilder};
use structural_diversity::search::{
    build_engine, paper_figure1_edges, EngineKind, QuerySpec, SearchError, SearchService,
    ServiceStats,
};

const THREADS: usize = 8;

fn figure1() -> CsrGraph {
    GraphBuilder::new().extend_edges(paper_figure1_edges()).build()
}

fn registry_sample() -> CsrGraph {
    datasets::dataset("email-enron-syn").expect("registry").generate(0.05)
}

/// Every (thread, served kind, k) combination must match the
/// single-threaded reference exactly — scores and vertices — and the
/// reference's scores are the Online and Bound scans'. Both services are
/// warmed and joined first, so no query joins an index build (a cold
/// query joining one is `tests/background_builds.rs`'s subject).
#[test]
fn eight_threads_serve_every_kind_identically() {
    let g = registry_sample();
    let specs: Vec<QuerySpec> = [3u32, 5]
        .into_iter()
        .flat_map(|k| {
            SearchService::SERVED.map(move |kind| QuerySpec::new(k, 25).unwrap().with_engine(kind))
        })
        .collect();

    // Single-threaded reference answers on a private service, checked
    // against the index-free scans.
    let reference_service = SearchService::new(g.clone());
    reference_service.wait_ready(EngineKind::ALL);
    let scans = [EngineKind::Online, EngineKind::Bound]
        .map(|kind| build_engine(kind, reference_service.graph()));
    let reference: Vec<_> = specs
        .iter()
        .map(|spec| {
            let r = reference_service.top_r(spec).expect("reference query");
            for scan in &scans {
                let scanned = scan.top_r(spec).expect("scan").scores();
                assert_eq!(r.scores(), scanned, "{} vs {}", spec.engine(), scan.name());
            }
            (r.scores(), r.vertices())
        })
        .collect();

    let service = Arc::new(SearchService::new(g));
    service.warmup(EngineKind::ALL);
    service.wait_ready(EngineKind::ALL);
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let service = service.clone();
            let specs = &specs;
            let reference = &reference;
            scope.spawn(move || {
                // Stagger the spec order per worker so threads hit
                // different cold engines simultaneously.
                for i in 0..specs.len() {
                    let idx = (i + worker) % specs.len();
                    let result = service.top_r(&specs[idx]).expect("concurrent query");
                    assert_eq!(result.metrics.engine, specs[idx].engine().name());
                    assert_eq!(
                        (result.scores(), result.vertices()),
                        reference[idx].clone(),
                        "worker {worker} spec {idx} diverged from single-threaded answer"
                    );
                }
            });
        }
    });

    let stats: ServiceStats = service.stats();
    assert_eq!(stats.queries_served, THREADS * specs.len());
    assert_eq!(
        stats.engines_built,
        SearchService::SERVED.len(),
        "each engine must be built exactly once"
    );
    assert_eq!(stats.foreground_fallbacks, 0, "a warmed service never joins a build");
}

/// Auto routing under concurrency: racing the cold build, every answer
/// must carry the reference score multiset.
#[test]
fn concurrent_auto_queries_agree_with_reference() {
    let g = figure1();
    let reference = SearchService::new(g.clone()).top_r(&QuerySpec::new(4, 3).unwrap()).unwrap();
    let service = Arc::new(SearchService::new(g));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let service = service.clone();
            let reference = &reference;
            scope.spawn(move || {
                for _ in 0..20 {
                    let result = service.top_r(&QuerySpec::new(4, 3).unwrap()).unwrap();
                    assert_eq!(result.scores(), reference.scores());
                }
            });
        }
    });
    assert_eq!(service.queries_served(), THREADS * 20);
}

/// Warmup from one thread while others already query: no duplicate builds,
/// no torn state, and the kinds the service does not serve are refused
/// throughout. Warmup only *schedules* since 0.4.0, so the builds are
/// joined with `wait_ready` before counting them.
#[test]
fn warmup_races_with_queries() {
    let service = Arc::new(SearchService::new(registry_sample()));
    let spec = QuerySpec::new(4, 10).unwrap();
    std::thread::scope(|scope| {
        {
            let service = service.clone();
            scope.spawn(move || service.warmup(EngineKind::ALL));
        }
        for _ in 0..(THREADS - 1) {
            let service = service.clone();
            scope.spawn(move || {
                for kind in EngineKind::ALL {
                    let answer = service.top_r(&spec.with_engine(kind));
                    if SearchService::SERVED.contains(&kind) {
                        answer.expect("query during warmup");
                    } else {
                        assert_eq!(
                            answer.unwrap_err(),
                            SearchError::EngineNotServed { engine: kind }
                        );
                    }
                }
            });
        }
    });
    service.wait_ready(EngineKind::ALL);
    assert_eq!(service.built_engines(), SearchService::SERVED.to_vec());
    assert_eq!(
        service.stats().engines_built,
        SearchService::SERVED.len(),
        "warmup raced queries into duplicate builds"
    );
}

/// Batches from multiple threads: all-or-nothing validation and agreement
/// with singles hold under contention.
#[test]
fn concurrent_batches_agree_with_singles() {
    let g = figure1();
    let service = Arc::new(SearchService::new(g.clone()));
    let specs: Vec<QuerySpec> = (2..=5).map(|k| QuerySpec::new(k, 2).unwrap()).collect();
    let single_service = SearchService::new(g);
    let singles: Vec<Vec<u32>> =
        specs.iter().map(|s| single_service.top_r(s).unwrap().scores()).collect();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let service = service.clone();
            let specs = &specs;
            let singles = &singles;
            scope.spawn(move || {
                let (_, batch) = service.top_r_many_pinned(specs).expect("batch");
                for (result, single) in batch.iter().zip(singles) {
                    assert_eq!(&result.scores(), single);
                }
            });
        }
    });
}

/// Import on one thread while others query: late-arriving index bundles
/// swap in without disturbing in-flight answers, which stay the online
/// scan's.
#[test]
fn import_races_with_queries() {
    let g = figure1();
    let donor = SearchService::new(g.clone());
    let blob = donor.export_bundle();
    let online = build_engine(EngineKind::Online, donor.graph());
    let reference = online.top_r(&QuerySpec::new(4, 3).unwrap()).unwrap();

    let service = Arc::new(SearchService::new(g));
    std::thread::scope(|scope| {
        {
            let service = service.clone();
            let blob = blob.clone();
            scope.spawn(move || {
                service.import_bundle(blob).expect("import");
            });
        }
        for _ in 0..(THREADS - 1) {
            let service = service.clone();
            let reference = &reference;
            scope.spawn(move || {
                for kind in [EngineKind::Gct, EngineKind::Auto] {
                    let spec = QuerySpec::new(4, 3).unwrap().with_engine(kind);
                    let result = service.top_r(&spec).expect("query during import");
                    assert_eq!(result.scores(), reference.scores());
                }
            });
        }
    });
    assert!(service.built_engines().contains(&EngineKind::Gct));
}
