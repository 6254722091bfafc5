//! Table 3 micro-bench: TSD vs GCT index construction — the paper's
//! sequential builds, plus the parallel-construction ablation (a
//! beyond-the-paper extension): the chunked GCT build `build_engine_in`
//! runs for a `SearchService`, on pools of 1, 2 and the process-wide
//! pool's thread count.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sd_core::{
    build_engine_in, default_pool_threads, EngineKind, GctEngine, TsdEngine, WorkerPool,
};

fn bench_index_build(c: &mut Criterion) {
    let dataset = sd_datasets::dataset("wiki-vote-syn").expect("registry");
    let g = Arc::new(dataset.generate(0.08));

    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("tsd", g.m()), &g, |b, g| {
        b.iter(|| TsdEngine::build(g.clone()))
    });
    group.bench_with_input(BenchmarkId::new("gct", g.m()), &g, |b, g| {
        b.iter(|| GctEngine::build(g.clone()))
    });
    let mut threads = vec![1, 2, default_pool_threads()];
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        let pool = WorkerPool::new(t);
        let id = BenchmarkId::new(format!("gct_pooled_t{t}"), g.m());
        group.bench_with_input(id, &g, |b, g| {
            b.iter(|| build_engine_in(EngineKind::Gct, g.clone(), &pool))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index_build);
criterion_main!(benches);
