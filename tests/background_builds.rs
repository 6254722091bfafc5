//! Cold index builds: a query that finds its GCT index unbuilt joins that
//! index's build — running it on its own thread if nobody has started it,
//! in vertex chunks on the worker pool — and the index answers it. A
//! first-query spike from many threads builds the cold index exactly
//! once; `warmup` is non-blocking and `wait_ready` is its join.
//! Answers in the cold window equal a fully warmed service's, and no
//! index-free engine is built along the way.

use std::sync::Arc;

use structural_diversity::datasets;
use structural_diversity::graph::CsrGraph;
use structural_diversity::search::{build_engine, EngineKind, QuerySpec, SearchService};

const THREADS: usize = 12;

/// The engine kinds a service builds an index for.
const INDEX_KINDS: [EngineKind; 1] = SearchService::SERVED;

fn sample_graph() -> CsrGraph {
    datasets::dataset("email-enron-syn").expect("registry").generate(0.05)
}

/// Single-threaded for determinism: the very first query against each cold
/// index engine joins its build and is answered by the index, with the
/// online scan's answer; the online engine itself is never built.
#[test]
fn cold_first_query_joins_the_index_build() {
    let g = Arc::new(sample_graph());
    let service = SearchService::from_arc(g.clone());
    let spec = QuerySpec::new(4, 10).unwrap();
    let online = build_engine(EngineKind::Online, g).top_r(&spec).expect("online").scores();

    for (i, kind) in INDEX_KINDS.into_iter().enumerate() {
        let result = service.top_r(&spec.with_engine(kind)).expect("cold query");
        assert_eq!(result.metrics.engine, kind.name(), "the cold {kind} index answers");
        assert_eq!(result.scores(), online, "cold {kind} answer differs from the online scan");
        assert_eq!(service.stats().foreground_fallbacks, i + 1);
    }
    assert_eq!(service.built_engines(), INDEX_KINDS.to_vec(), "no index-free engine was built");

    for kind in INDEX_KINDS {
        let result = service.top_r(&spec.with_engine(kind)).expect("warm query");
        assert_eq!(result.metrics.engine, kind.name());
    }
    // Built indexes are not counted again.
    let stats = service.stats();
    let index_count = INDEX_KINDS.len();
    assert_eq!((stats.foreground_fallbacks, stats.engines_built), (index_count, index_count));
}

/// The concurrent first-query spike: many threads hit a cold service at
/// once. Exactly one build per index kind happens, every
/// query is answered by the index it named, and every answer equals the
/// warmed service's.
#[test]
fn concurrent_first_query_spike_builds_each_kind_once() {
    let g = sample_graph();

    // Reference answers from a fully warmed service.
    let warmed = SearchService::new(g.clone());
    warmed.wait_ready(EngineKind::ALL);
    let specs: Vec<QuerySpec> = [3u32, 4, 5]
        .into_iter()
        .flat_map(|k| INDEX_KINDS.map(|kind| QuerySpec::new(k, 15).unwrap().with_engine(kind)))
        .collect();
    let reference: Vec<Vec<u32>> =
        specs.iter().map(|s| warmed.top_r(s).expect("reference").scores()).collect();

    let service = Arc::new(SearchService::new(g));
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let service = service.clone();
            let specs = &specs;
            let reference = &reference;
            scope.spawn(move || {
                for i in 0..specs.len() {
                    let idx = (i + worker) % specs.len();
                    let result = service.top_r(&specs[idx]).expect("spike query");
                    assert_eq!(result.metrics.engine, specs[idx].engine().name());
                    assert_eq!(
                        result.scores(),
                        reference[idx],
                        "worker {worker} spec {idx}: cold-window answer diverged from warmed"
                    );
                }
            });
        }
    });

    // The first query of each kind found its index unbuilt; the build
    // ledger shows one build per index kind and nothing else, no matter
    // how the spike raced.
    let stats = service.stats();
    assert!(stats.foreground_fallbacks >= INDEX_KINDS.len(), "{stats:?}");
    assert_eq!(stats.queries_served, THREADS * specs.len());
    assert_eq!(service.built_engines(), INDEX_KINDS.to_vec());
    assert_eq!(stats.engines_built, INDEX_KINDS.len(), "one build per index kind: {stats:?}");
}

/// `warmup` returns before the builds land; `wait_ready` actually joins
/// them — after it returns the engines exist, no matter which of the
/// worker pool or the waiting thread performed each build.
#[test]
fn warmup_is_nonblocking_and_wait_ready_joins() {
    let service = SearchService::new(sample_graph());
    let scheduled = service.warmup(INDEX_KINDS);
    assert_eq!(scheduled, INDEX_KINDS.to_vec());

    let ready = service.wait_ready(INDEX_KINDS);
    assert_eq!(ready, INDEX_KINDS.to_vec());
    let built = service.built_engines();
    for kind in INDEX_KINDS {
        assert!(built.contains(&kind), "wait_ready returned before {kind} was built");
    }
    // Exactly one build per kind even though warmup's background jobs raced
    // the wait_ready join.
    assert_eq!(service.stats().engines_built, INDEX_KINDS.len());
    assert_eq!(service.stats().foreground_fallbacks, 0, "warmup path serves no queries");

    // And the joined service serves its index engines directly.
    let spec = QuerySpec::new(4, 5).unwrap();
    for kind in INDEX_KINDS {
        assert_eq!(service.top_r(&spec.with_engine(kind)).unwrap().metrics.engine, kind.name());
    }
}

/// `wait_ready` on a never-warmed service must not hang: a kind nobody
/// scheduled is built by the waiting thread itself.
#[test]
fn wait_ready_without_warmup_builds_on_the_calling_thread() {
    let service = SearchService::new(sample_graph());
    let ready = service.wait_ready([EngineKind::Gct]);
    assert_eq!(ready, vec![EngineKind::Gct]);
    assert_eq!(service.built_engines(), vec![EngineKind::Gct]);
    let stats = service.stats();
    assert_eq!(stats.engines_built, 1);
    assert_eq!(stats.background_builds, 0, "nothing was scheduled, so the caller built it");
}

/// A service hands out a Bound engine but never caches it, so no Bound
/// engine can answer cold index queries: each index kind's cold query
/// joins its build and the index answers, with the same scores the bound
/// search gives.
#[test]
fn a_cached_bound_engine_does_not_answer_cold_index_queries() {
    let service = SearchService::new(sample_graph());
    let spec = QuerySpec::new(4, 10).unwrap();
    assert_eq!(service.warmup([EngineKind::Bound]), vec![], "Bound is not served");
    let bound = service.engine(EngineKind::Bound).top_r(&spec).expect("bound").scores();
    assert!(service.built_engines().is_empty(), "the Bound engine was not cached");

    for kind in INDEX_KINDS {
        let result = service.top_r(&spec.with_engine(kind)).expect("cold query");
        assert_eq!(result.metrics.engine, kind.name());
        assert_eq!(result.scores(), bound, "cold {kind} answer differs from the bound search");
    }
    let stats = service.stats();
    assert_eq!(stats.foreground_fallbacks, INDEX_KINDS.len());
    assert_eq!(stats.queries_served, INDEX_KINDS.len(), "only the indexes answered: {stats:?}");
}

/// A build that `warmup` schedules lands on the pool even if nobody joins
/// it: `background_builds` accounts for it, and the index then serves
/// queries without any of them finding it unbuilt.
#[test]
fn background_builds_land_without_an_explicit_join() {
    let service = SearchService::new(sample_graph());
    assert_eq!(service.warmup([EngineKind::Gct]), vec![EngineKind::Gct]);

    // Poll (bounded) until the pool lands the build; nothing here joins it.
    let mut landed = false;
    for _ in 0..2000 {
        if service.built_engines() == [EngineKind::Gct] {
            landed = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(landed, "the background GCT build never landed");
    let stats = service.stats();
    assert_eq!(stats.background_builds, 1, "the worker pool performed the build: {stats:?}");
    assert_eq!(stats.engines_built, 1);

    let spec = QuerySpec::new(4, 10).unwrap().with_engine(EngineKind::Gct);
    assert_eq!(service.top_r(&spec).unwrap().metrics.engine, "gct");
    assert_eq!(service.stats().foreground_fallbacks, 0, "the index was built before the query");
}
