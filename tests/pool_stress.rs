//! Stress layer for the process-wide worker pool: many cold services
//! spiking at once must share **one** pool's worth of threads (the 0.5
//! design parked two private builder threads per service — 2·M for M
//! services), every `(service, kind)` pair must build its engine exactly
//! once no matter how many threads race it, dropping a service with builds
//! in flight must not block, and the shared pool must keep serving the
//! surviving services afterwards.
//!
//! Thread accounting is asserted two ways: the pool's own spawn counter,
//! and — on Linux — the actual `sd-pool-worker` threads visible in
//! `/proc/self/task`, so a regression that spawns outside the counter's
//! view still fails the test.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use structural_diversity::datasets::gnm_graph;
use structural_diversity::search::{EngineKind, QuerySpec, SearchService, WorkerPool};

/// Services sharing the pool in the spike test — far more than the pool's
/// thread budget, so the old per-service design (2·M threads) and the
/// shared design (≤ POOL_THREADS) are unambiguously distinguishable.
const SERVICES: usize = 12;
const POOL_THREADS: usize = 3;

/// Live threads named by the pool, per procfs. Returns 0 where
/// `/proc/self/task` is unavailable (non-Linux), which vacuously satisfies
/// the upper-bound assertions.
fn live_pool_workers() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|task| {
            let comm = std::fs::read_to_string(task.ok()?.path().join("comm")).ok()?;
            (comm.trim() == "sd-pool-worker").then_some(())
        })
        .count()
}

fn spike_service(pool: &Arc<WorkerPool>, seed: u64) -> Arc<SearchService> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gnm_graph(64, 256, &mut rng);
    Arc::new(SearchService::with_pool(g, pool.clone()))
}

/// The headline stress property: M cold services, hammered concurrently
/// with queries for every index engine, build each engine exactly once —
/// and the whole spike runs on at most one shared pool's worth of threads,
/// not 2·M.
#[test]
fn cold_spike_shares_one_pool_and_builds_exactly_once() {
    let pool = Arc::new(WorkerPool::new(POOL_THREADS));
    let services: Vec<Arc<SearchService>> =
        (0..SERVICES).map(|i| spike_service(&pool, 0xC0FFEE + i as u64)).collect();

    // Ground truth per service, from a throwaway engine outside the pool.
    let references: Vec<Vec<u32>> = services
        .iter()
        .map(|s| s.engine(EngineKind::Online).top_r(&QuerySpec::new(3, 4).unwrap()).unwrap())
        .map(|r| r.scores())
        .collect();

    std::thread::scope(|scope| {
        for spike in 0..6 {
            let services = &services;
            let references = &references;
            scope.spawn(move || {
                for (service, reference) in services.iter().zip(references) {
                    for kind in [EngineKind::Gct, EngineKind::Tsd, EngineKind::Auto] {
                        let spec = QuerySpec::new(3, 4).unwrap().with_engine(kind);
                        let result = service.top_r(&spec).unwrap_or_else(|e| {
                            panic!("spike {spike} on {kind}: query failed: {e}")
                        });
                        // A cold query joins its index build and the
                        // index answers, cold or warm alike.
                        assert_eq!(&result.scores(), reference, "spike {spike} on {kind}");
                    }
                }
            });
        }
    });

    for (i, service) in services.iter().enumerate() {
        service.wait_ready(EngineKind::ALL);
        let stats = service.stats();
        assert_eq!(
            stats.engines_built,
            EngineKind::ALL.len(),
            "service {i}: every (service, kind) pair must build exactly once: {stats:?}"
        );
        assert!(
            stats.pool_threads <= POOL_THREADS,
            "service {i}: reported pool threads exceed the shared pool: {stats:?}"
        );
    }

    assert!(pool.spawned_threads() <= POOL_THREADS, "pool overshot its own budget");
    // 2·M would be 24 threads under the old per-service design; the shared
    // pool keeps the process at its budget (small slack for workers of
    // sibling tests' pools that have not finished retiring).
    let live = live_pool_workers();
    assert!(
        live <= POOL_THREADS + 4,
        "{live} live sd-pool-worker threads for {SERVICES} services (pool budget {POOL_THREADS})"
    );
}

/// Dropping a service while its warmup builds are still queued or running
/// must return promptly (the pool is shared — nothing joins), and the pool
/// must keep serving every other service afterwards.
#[test]
fn dropping_a_service_mid_build_is_non_blocking_and_leaves_the_pool_usable() {
    let pool = Arc::new(WorkerPool::new(2));
    let doomed = spike_service(&pool, 0xDEAD);
    let survivor = spike_service(&pool, 0xBEEF);

    // Queue index builds, then drop the service with them in flight.
    doomed.warmup([EngineKind::Tsd, EngineKind::Gct]);
    let dropped_at = Instant::now();
    drop(doomed);
    assert!(
        dropped_at.elapsed() < Duration::from_secs(2),
        "drop must not join in-flight builds (took {:?})",
        dropped_at.elapsed()
    );

    // The shared pool is unaffected: the survivor warms and serves.
    survivor.warmup([EngineKind::Gct]);
    survivor.wait_ready([EngineKind::Gct]);
    let result = survivor
        .top_r(&QuerySpec::new(3, 2).unwrap().with_engine(EngineKind::Gct))
        .expect("survivor query");
    assert_eq!(result.metrics.engine, "gct");
    assert!(pool.spawned_threads() <= 2);

    // And the raw pool still executes fresh work.
    let ran = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let jobs: Vec<structural_diversity::search::Job> = (0..8)
        .map(|_| {
            let ran = ran.clone();
            Box::new(move || {
                ran.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }) as structural_diversity::search::Job
        })
        .collect();
    pool.run_all(jobs);
    assert_eq!(ran.load(std::sync::atomic::Ordering::SeqCst), 8);
}

/// Re-warming the same kinds over and over from many threads never
/// duplicates a build: the per-epoch latch plus the slot double-check keep
/// `engines_built` at one per kind however the schedule interleaves.
#[test]
fn repeated_concurrent_warmups_never_duplicate_builds() {
    let pool = Arc::new(WorkerPool::new(POOL_THREADS));
    let service = spike_service(&pool, 0xFACADE);

    std::thread::scope(|scope| {
        for _ in 0..6 {
            let service = &service;
            scope.spawn(move || {
                for _ in 0..20 {
                    service.warmup(EngineKind::ALL);
                }
                service.wait_ready(EngineKind::ALL);
            });
        }
    });

    let stats = service.stats();
    assert_eq!(
        stats.engines_built,
        EngineKind::ALL.len(),
        "warmup storm duplicated builds: {stats:?}"
    );
    assert_eq!(service.built_engines(), EngineKind::ALL.to_vec());
}
