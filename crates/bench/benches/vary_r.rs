//! Figures 10–11 micro-bench: TSD / GCT / Hybrid query time as r varies.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sd_core::hybrid::HybridIndex;
use sd_core::{DiversityEngine, GctEngine, QuerySpec, TsdEngine};

fn bench_vary_r(c: &mut Criterion) {
    let dataset = sd_datasets::dataset("gowalla-syn").expect("registry");
    let g = Arc::new(dataset.generate(0.03));
    let tsd = TsdEngine::build(g.clone());
    let gct = GctEngine::build(g.clone());
    let hybrid = HybridIndex::from_gct(gct.index());

    let mut group = c.benchmark_group("vary_r");
    group.sample_size(10);
    for r in [1usize, 100, 300] {
        let spec = QuerySpec::new(3, r.min(g.n())).expect("valid query");
        group.bench_with_input(BenchmarkId::new("tsd", r), &spec, |b, spec| {
            b.iter(|| tsd.top_r(spec).expect("tsd"))
        });
        group.bench_with_input(BenchmarkId::new("gct", r), &spec, |b, spec| {
            b.iter(|| gct.top_r(spec).expect("gct"))
        });
        group.bench_with_input(BenchmarkId::new("hybrid", r), &spec, |b, spec| {
            b.iter(|| hybrid.top_r(&g, spec.config()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vary_r);
criterion_main!(benches);
