//! Parallel-vs-sequential differential harness: building the indexes and
//! fanning query batches out on a [`WorkerPool`] — at *any* thread count —
//! must not change a single answer, search-space count or index byte.
//! The pool promises more than equal score multisets: build chunks are
//! fixed and joined in chunk order, so pooled indexes are
//! **byte-identical** to the paper's sequential builds, and a fanned-out
//! query runs the same single-threaded algorithm it runs alone. The
//! reference is always the paper's sequential constructors
//! ([`OnlineEngine::new`], [`BoundEngine::new`], [`TsdEngine::build`],
//! [`GctEngine::build`]). This harness pins that promise across every
//! engine, thread counts {1, 2, max}, two generator families, the
//! `top_r_many` fan-out, and epoch swaps from live updates.
//!
//! Every pooled run uses an explicit pool ([`build_engine_in`],
//! [`SearchService::with_pool`]), so the parallel code paths execute even
//! on a single-core CI runner.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use structural_diversity::datasets::{gnm_graph, rmat_graph, RmatConfig};
use structural_diversity::graph::{CsrGraph, GraphUpdate};
use structural_diversity::search::parallel::SCAN_CHUNK;
use structural_diversity::search::{
    build_engine_in, default_pool_threads, BoundEngine, DiversityEngine, EngineKind, GctEngine,
    GctIndex, OnlineEngine, QuerySpec, SearchService, TopRResult, TsdEngine, TsdIndex, WorkerPool,
};

/// One graph from the chosen generator family, reproducible from the
/// printed proptest inputs alone.
fn generate(family: usize, n: usize, edge_factor: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        0 => gnm_graph(n, (n * edge_factor).min(n * (n - 1) / 2), &mut rng),
        _ => rmat_graph(&RmatConfig::social(n, n * edge_factor), &mut rng),
    }
}

/// The thread counts under test: 1 (inline execution on the calling
/// thread), 2 (smallest genuinely concurrent pool), and whatever this
/// machine would give the process-wide pool.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, default_pool_threads()];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The paper's sequential engine of a concrete `kind`: the
/// single-threaded Online and Bound scans, and the TSD and GCT indexes
/// built by `TsdIndex::build` / `GctIndex::build`.
fn sequential_engine(kind: EngineKind, g: &Arc<CsrGraph>) -> Box<dyn DiversityEngine> {
    match kind {
        EngineKind::Online => Box::new(OnlineEngine::new(g.clone())),
        EngineKind::Bound => Box::new(BoundEngine::new(g.clone())),
        EngineKind::Tsd => Box::new(TsdEngine::build(g.clone())),
        EngineKind::Gct | EngineKind::Auto => Box::new(GctEngine::build(g.clone())),
    }
}

/// Byte-level equality: entries (vertex, score, contexts), the search
/// space and the engine name must match; only timing may differ.
fn assert_identical(reference: &TopRResult, parallel: &TopRResult, context: &str) {
    assert_eq!(reference.entries, parallel.entries, "{context}: entries diverge");
    assert_eq!(
        reference.metrics.score_computations, parallel.metrics.score_computations,
        "{context}: search space diverges"
    );
    assert_eq!(
        reference.metrics.engine, parallel.metrics.engine,
        "{context}: engine name diverges"
    );
}

/// The pooled index builds — what a service runs for a cold query, a
/// warmup job, `wait_ready` or an export — serialize byte for byte like the
/// paper's sequential `TsdIndex::build` / `GctIndex::build`, on pools of 1,
/// 2 and 4 threads, over graphs spanning many vertex chunks.
#[test]
fn pooled_index_builds_are_byte_identical_to_the_sequential_reference() {
    for family in 0..2 {
        let g = Arc::new(generate(family, 6 * SCAN_CHUNK + 37, 5, 0x5eed + family as u64));
        let tsd = TsdIndex::build(&g).to_bytes();
        let gct = GctIndex::build(&g).to_bytes();
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            for (kind, want) in [(EngineKind::Tsd, &tsd), (EngineKind::Gct, &gct)] {
                let engine = build_engine_in(kind, g.clone(), &pool);
                let got = engine.to_bytes().expect("index engines serialize");
                assert!(got == *want, "family {family}: {kind} at {threads} threads differs");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: every engine built by `build_engine_in` on
    /// a pool of every thread count returns byte-identical entries and
    /// search spaces to the paper's sequential engine — the TSD/GCT
    /// indexes are built on the pool, the Online/Bound scans run
    /// single-threaded either way.
    #[test]
    fn pooled_engines_are_byte_identical_to_sequential(
        family in 0usize..2,
        n in 8usize..48,
        edge_factor in 1usize..5,
        seed in 0u64..1_000_000,
        k in 2u32..6,
        r in 1usize..10,
    ) {
        let g = Arc::new(generate(family, n, edge_factor, seed));
        let spec = QuerySpec::new(k, r.min(g.n())).expect("valid spec");

        for kind in EngineKind::ALL {
            let reference = sequential_engine(kind, &g).top_r(&spec).expect("sequential reference");
            prop_assert_eq!(reference.metrics.engine, kind.name());
            for threads in thread_counts() {
                let pool = WorkerPool::new(threads);
                let result =
                    build_engine_in(kind, g.clone(), &pool).top_r(&spec).expect("pooled query");
                assert_identical(
                    &reference,
                    &result,
                    &format!(
                        "family {family} n {n} seed {seed} k={k} r={r}: \
                         {kind} at {threads} threads"
                    ),
                );
            }
        }
    }

    /// The batch fan-out: `top_r_many` on a pooled service returns, in
    /// order, byte-identical results to the paper's sequential engines
    /// answering the same specs one by one — for every engine kind and
    /// thread count.
    #[test]
    fn fanned_out_batches_match_the_sequential_service(
        family in 0usize..2,
        n in 8usize..40,
        edge_factor in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let g = Arc::new(generate(family, n, edge_factor, seed));
        let r = 3.min(g.n());
        let specs: Vec<QuerySpec> = EngineKind::ALL
            .into_iter()
            .flat_map(|kind| {
                (2..=4).map(move |k| QuerySpec::new(k, r).expect("valid spec").with_engine(kind))
            })
            .collect();

        let reference: Vec<TopRResult> = specs
            .iter()
            .map(|s| sequential_engine(s.engine(), &g).top_r(s).expect("sequential query"))
            .collect();

        for threads in thread_counts() {
            let pool = Arc::new(WorkerPool::new(threads));
            let service = SearchService::from_arc_with_pool(g.clone(), pool);
            // Warm every engine first: the fan-out then counts every query
            // as parallel, with no cold build in between.
            service.wait_ready(EngineKind::ALL);
            let (_, batch) = service.top_r_many_pinned(&specs).expect("fanned batch");
            prop_assert_eq!(batch.len(), reference.len());
            for (i, (want, got)) in reference.iter().zip(&batch).enumerate() {
                assert_identical(
                    want,
                    got,
                    &format!(
                        "family {family} n {n} seed {seed}: batch slot {i} at {threads} threads"
                    ),
                );
            }
            if threads > 1 {
                let stats = service.stats();
                prop_assert_eq!(
                    stats.parallel_queries, specs.len(),
                    "every fanned query must be counted: {:?}", stats
                );
            }
        }
    }

    /// Equivalence survives epoch swaps: after the same update batch, a
    /// pooled service at every thread count answers byte-identically to the
    /// paper's sequential engines built over the *new* graph.
    #[test]
    fn pooled_queries_match_sequential_across_update_epochs(
        family in 0usize..2,
        n in 8usize..32,
        edge_factor in 1usize..4,
        seed in 0u64..1_000_000,
        k in 2u32..5,
    ) {
        let g = Arc::new(generate(family, n, edge_factor, seed));
        let u = (seed % g.n() as u64) as u32;
        let v = ((seed / 7) % g.n() as u64) as u32;
        let updates = [
            GraphUpdate::Insert { u, v },
            GraphUpdate::Insert { u: u + 1, v: v + 2 },
            GraphUpdate::Remove { u, v },
        ];
        let spec = QuerySpec::new(k, 3.min(g.n())).expect("valid spec");

        let sequential = SearchService::from_arc_with_pool(g.clone(), Arc::new(WorkerPool::new(1)));
        let mut applied_reference = 0;
        for update in updates {
            if let Ok(stats) = sequential.apply_updates(&[update]) {
                applied_reference += stats.applied;
            }
        }
        let updated = sequential.graph();
        let reference = EngineKind::ALL.map(|kind| {
            sequential_engine(kind, &updated).top_r(&spec).expect("sequential query")
        });

        for threads in thread_counts() {
            let pool = Arc::new(WorkerPool::new(threads));
            let service = SearchService::from_arc_with_pool(g.clone(), pool);
            let mut applied = 0;
            for update in updates {
                if let Ok(stats) = service.apply_updates(&[update]) {
                    applied += stats.applied;
                }
            }
            prop_assert_eq!(applied, applied_reference, "update outcomes must not depend on the pool");
            service.wait_ready(EngineKind::ALL);
            for (kind, want) in EngineKind::ALL.into_iter().zip(&reference) {
                let got = service.top_r(&spec.with_engine(kind)).expect("pooled query");
                assert_identical(
                    want,
                    &got,
                    &format!(
                        "family {family} n {n} seed {seed} k={k}: \
                         {kind} after updates at {threads} threads"
                    ),
                );
            }
        }
    }
}
