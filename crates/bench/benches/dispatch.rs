//! Dispatch-overhead micro-bench: the cost of querying through a
//! `Box<dyn DiversityEngine>` trait object — and through the shared
//! `SearchService` (slot read-lock + atomic counters on top of the trait
//! object) — versus calling the index structures directly, on the paper's
//! Figure-1 graph (small enough that per-query fixed costs — virtual
//! dispatch, spec validation, metric stamping — are visible against the
//! algorithmic work).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use sd_core::{
    build_engine, paper_figure1_graph, DiversityConfig, DiversityEngine, EngineKind, GctIndex,
    QuerySpec, SearchService, TsdIndex,
};

fn bench_dispatch(c: &mut Criterion) {
    let (g, _, _) = paper_figure1_graph();
    let g = Arc::new(g);
    let cfg = DiversityConfig { k: 4, r: 3 };
    let spec = QuerySpec::new(4, 3).expect("valid query");

    let tsd_index = TsdIndex::build(&g);
    let gct_index = GctIndex::build(&g);
    let tsd_obj: Box<dyn DiversityEngine> = build_engine(EngineKind::Tsd, g.clone());
    let gct_obj: Box<dyn DiversityEngine> = build_engine(EngineKind::Gct, g.clone());
    let service = SearchService::from_arc(g.clone());
    // `warmup` is non-blocking since 0.4; join so the benchmark measures
    // the warm serving path, never a query that joins the cold build.
    service.warmup([EngineKind::Gct]);
    service.wait_ready([EngineKind::Gct]);
    let gct_spec = spec.with_engine(EngineKind::Gct);

    let mut group = c.benchmark_group("dispatch");
    group.bench_with_input(BenchmarkId::new("tsd_direct", "fig1"), &cfg, |b, cfg| {
        b.iter(|| black_box(tsd_index.top_r(&g, cfg)))
    });
    group.bench_with_input(BenchmarkId::new("tsd_trait_object", "fig1"), &spec, |b, spec| {
        b.iter(|| black_box(tsd_obj.top_r(spec).expect("tsd")))
    });
    group.bench_with_input(BenchmarkId::new("gct_direct", "fig1"), &cfg, |b, cfg| {
        b.iter(|| black_box(gct_index.top_r(cfg)))
    });
    group.bench_with_input(BenchmarkId::new("gct_trait_object", "fig1"), &spec, |b, spec| {
        b.iter(|| black_box(gct_obj.top_r(spec).expect("gct")))
    });
    // The full serving path: slot read-lock, Arc clone, atomic metric
    // bumps — what a warm `SearchService` adds over the bare trait object.
    group.bench_with_input(BenchmarkId::new("gct_service", "fig1"), &gct_spec, |b, spec| {
        b.iter(|| black_box(service.top_r(spec).expect("gct")))
    });

    // Per-vertex score calls, where fixed costs dominate most.
    group.bench_with_input(BenchmarkId::new("gct_score_direct", "fig1"), &gct_index, |b, index| {
        b.iter(|| {
            let mut acc = 0u32;
            for v in 0..g.n() as u32 {
                acc += index.score(v, 4);
            }
            black_box(acc)
        })
    });
    group.bench_with_input(
        BenchmarkId::new("gct_score_trait_object", "fig1"),
        &gct_obj,
        |b, engine| {
            b.iter(|| {
                let mut acc = 0u32;
                for v in 0..g.n() as u32 {
                    acc += engine.score(v, 4);
                }
                black_box(acc)
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
