//! The 0.4 background build queue: a cold `SearchService` must never make
//! a query wait for a TSD/GCT construction. A first-query spike from
//! many threads is absorbed by the online fallback while the worker pool
//! builds each cold engine exactly once; `warmup` is non-blocking and
//! `wait_ready` is its join. Answers served during the cold window must be
//! identical to a fully warmed service's (the engines agree by
//! `tests/differential.rs`, which is what makes the fallback sound).

use std::sync::Arc;

use structural_diversity::datasets;
use structural_diversity::graph::CsrGraph;
use structural_diversity::search::{EngineKind, QuerySpec, SearchService};

const THREADS: usize = 12;

/// The two engine kinds whose construction is expensive enough to be
/// backgrounded (the index builders).
const INDEX_KINDS: [EngineKind; 2] = [EngineKind::Tsd, EngineKind::Gct];

fn sample_graph() -> CsrGraph {
    datasets::dataset("email-enron-syn").expect("registry").generate(0.05)
}

/// The headline property, single-threaded for determinism: the very first
/// query against each cold index engine is answered by the online engine —
/// not by waiting out the build — and `wait_ready` later hands the query
/// stream over to the real engine.
#[test]
fn cold_first_query_never_waits_for_an_index_build() {
    let service = SearchService::new(sample_graph());
    let spec = QuerySpec::new(4, 10).unwrap();

    for (i, kind) in INDEX_KINDS.into_iter().enumerate() {
        let result = service.top_r(&spec.with_engine(kind)).expect("cold query");
        assert_eq!(
            result.metrics.engine, "online",
            "cold {kind} query must be served by the online fallback"
        );
        assert_eq!(service.stats().foreground_fallbacks, i + 1);
    }

    service.wait_ready(INDEX_KINDS);
    for kind in INDEX_KINDS {
        let result = service.top_r(&spec.with_engine(kind)).expect("warm query");
        assert_eq!(result.metrics.engine, kind.name(), "ready {kind} engine must serve directly");
    }
    // No further fallbacks once the engines are ready.
    assert_eq!(service.stats().foreground_fallbacks, INDEX_KINDS.len());
}

/// The concurrent first-query spike: many threads hit a cold service at
/// once, across all the index kinds. Exactly one build per kind may happen,
/// some queries must have been served by the fallback (none ever waits),
/// and every answer must equal the warmed service's.
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
                    assert_eq!(
                        result.scores(),
                        reference[idx],
                        "worker {worker} spec {idx}: cold-window answer diverged from warmed"
                    );
                }
            });
        }
    });

    // The spike's very first cold query per kind cannot have waited, so at
    // least one fallback must have been recorded.
    let mid_stats = service.stats();
    assert!(
        mid_stats.foreground_fallbacks > 0,
        "a cold spike must record online fallbacks: {mid_stats:?}"
    );
    assert_eq!(mid_stats.queries_served, THREADS * specs.len());

    // Join everything, then audit the build ledger: one build per index
    // kind (plus the online engine the fallback used), no duplicates no
    // matter how the spike raced the worker pool.
    service.wait_ready(INDEX_KINDS);
    let stats = service.stats();
    let built = service.built_engines();
    for kind in INDEX_KINDS {
        assert!(built.contains(&kind), "{kind} must be built after wait_ready");
    }
    assert_eq!(
        stats.engines_built,
        INDEX_KINDS.len() + 1,
        "exactly one build per index kind plus the online fallback: {stats:?}"
    );
    // Every fallback was served by the online engine, and the ledger
    // agrees.
    assert_eq!(stats.queries_for(EngineKind::Online), stats.foreground_fallbacks);
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

/// The 0.5 fallback tiering: during a cold index engine's build window, a
/// service that already has a Bound engine serves the fallback through it —
/// the sparsify-and-prune search — instead of the always-slowest online
/// scan. With no Bound cached, the online scan remains the floor.
#[test]
fn cold_fallback_prefers_cached_bound_over_online() {
    let g = sample_graph();
    let spec = QuerySpec::new(4, 10).unwrap();

    // Reference: without a cached Bound engine the fallback is online.
    let bare = SearchService::new(g.clone());
    let cold = bare.top_r(&spec.with_engine(EngineKind::Tsd)).expect("cold query");
    assert_eq!(cold.metrics.engine, "online", "no Bound cached → online fallback");

    // With Bound warmed (inline, O(1) construction), every cold index
    // query rides the bound tier — same answers, faster scan.
    let tiered = SearchService::new(g);
    tiered.warmup([EngineKind::Bound]);
    for kind in INDEX_KINDS {
        let result = tiered.top_r(&spec.with_engine(kind)).expect("tiered cold query");
        assert!(
            result.metrics.engine == "bound" || result.metrics.engine == kind.name(),
            "cold {kind} query must serve via the bound tier (or the landed index), \
             got {}",
            result.metrics.engine
        );
        assert_eq!(result.scores(), cold.scores(), "fallback tiers must agree on answers");
    }
    // The very first of those queries found every index kind cold, so at
    // least one fallback went through Bound and none through Online.
    let stats = tiered.stats();
    assert!(stats.foreground_fallbacks > 0);
    assert_eq!(stats.queries_for(EngineKind::Online), 0, "online scan must not run: {stats:?}");
}

/// Builds scheduled by a spike eventually land in the background even if
/// nobody joins: `background_builds` accounts for them, and the query
/// stream switches from the fallback to the index on its own.
#[test]
fn background_builds_land_without_an_explicit_join() {
    let service = SearchService::new(sample_graph());
    let spec = QuerySpec::new(4, 10).unwrap().with_engine(EngineKind::Gct);
    assert_eq!(service.top_r(&spec).unwrap().metrics.engine, "online");

    // Poll (bounded) until the background worker lands the build; no query
    // in this loop ever blocks on it.
    let mut served_by_index = false;
    for _ in 0..2000 {
        let result = service.top_r(&spec).unwrap();
        if result.metrics.engine == "gct" {
            served_by_index = true;
            break;
        }
        assert_eq!(result.metrics.engine, "online");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(served_by_index, "the background GCT build never landed");
    let stats = service.stats();
    assert_eq!(stats.background_builds, 1, "the worker pool performed the build: {stats:?}");
    assert_eq!(stats.engines_built, 2, "one online fallback engine + one background GCT");
}
