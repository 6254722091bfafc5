//! Figure 12 micro-bench: TSD-index build and query on growing power-law
//! graphs with |E| = 5|V| — plus a speedup-vs-cores series, which runs
//! one batch of Online scans as `run_all` jobs on worker pools of 1, 2,
//! and 4 threads (and whatever the machine offers, when that is more) so
//! the fan-out's scaling is measurable on real hardware. Every pooled run
//! is checked against the single-threaded answers before it is timed.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sd_core::{
    default_pool_threads, DiversityEngine, Job, OnlineEngine, QuerySpec, TopRResult, TsdEngine,
    WorkerPool,
};
use sd_datasets::{powerlaw_graph, PowerLawConfig};

fn bench_scalability(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalability");
    group.sample_size(10);
    for n in [2_000usize, 4_000, 8_000] {
        let mut rng = StdRng::seed_from_u64(0xF12 + n as u64);
        let g = Arc::new(powerlaw_graph(&PowerLawConfig::paper_scalability(n), &mut rng));
        group.bench_with_input(BenchmarkId::new("index_build", n), &g, |b, g| {
            b.iter(|| TsdEngine::build(g.clone()))
        });
        let index = TsdEngine::build(g.clone());
        let spec = QuerySpec::new(3, 100).expect("valid query");
        group.bench_with_input(BenchmarkId::new("tsd_query", n), &spec, |b, spec| {
            b.iter(|| index.top_r(spec).expect("tsd"))
        });
    }
    group.finish();
}

/// The thread counts to sweep: {1, 2, 4} plus the machine's own
/// parallelism when it exceeds 4, so a many-core runner shows its full
/// curve while a small container still produces the comparable prefix.
fn sweep_threads() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4, default_pool_threads()];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Speedup-vs-cores for a batch of Online scans fanned out as
/// `WorkerPool::run_all` jobs. The 1-thread series is the sequential
/// baseline the speedup is read against.
fn bench_parallel_speedup(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xF12AA);
    let g = Arc::new(powerlaw_graph(&PowerLawConfig::paper_scalability(4_000), &mut rng));

    // A batch of independent Online scans: each job is a full per-vertex
    // scan, the kind of work the shared pool fans out.
    let online = Arc::new(OnlineEngine::new(g));
    let specs: Vec<QuerySpec> =
        (0..8).map(|i| QuerySpec::new(3 + (i % 2) as u32, 100).expect("valid query")).collect();
    let scans = |pool: &WorkerPool| {
        let jobs: Vec<Job<TopRResult>> = specs
            .iter()
            .map(|&spec| {
                let online = online.clone();
                Box::new(move || online.top_r(&spec).expect("online scan")) as Job<_>
            })
            .collect();
        pool.run_all(jobs)
    };
    let scores = |results: Vec<TopRResult>| -> Vec<Vec<u32>> {
        results.iter().map(|r| r.scores()).collect()
    };

    // Sequential ground truth, asserted against every pooled configuration
    // before its timing is recorded.
    let reference = scores(scans(&WorkerPool::new(1)));

    let mut group = c.benchmark_group("parallel_speedup");
    group.sample_size(10);
    for threads in sweep_threads() {
        let pool = WorkerPool::new(threads);
        assert_eq!(scores(scans(&pool)), reference, "pooled batch diverged at {threads} threads");
        group.bench_with_input(BenchmarkId::new("online_scans", threads), &pool, |b, pool| {
            b.iter(|| scans(pool))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scalability, bench_parallel_speedup);
criterion_main!(benches);
