//! Table 4 micro-bench + Section 6.2 ablation:
//! per-vertex vs one-shot ego extraction, and classic vs bitmap
//! truss decomposition inside ego-networks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sd_core::{AllEgoNetworks, EgoNetwork};
use sd_truss::{bitmap_truss_decomposition, truss_decomposition};

fn bench_ego_phase(c: &mut Criterion) {
    let dataset = sd_datasets::dataset("wiki-vote-syn").expect("registry");
    let g = dataset.generate(0.08);

    let mut group = c.benchmark_group("ego_phase");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("extract_per_vertex", g.m()), &g, |b, g| {
        b.iter(|| {
            let mut total = 0usize;
            for v in g.vertices() {
                total += EgoNetwork::extract(g, v).m();
            }
            total
        })
    });
    group.bench_with_input(BenchmarkId::new("extract_one_shot", g.m()), &g, |b, g| {
        b.iter(|| AllEgoNetworks::build(g).heap_bytes())
    });

    // Decomposition ablation on pre-extracted ego-networks.
    let egos: Vec<EgoNetwork> = g.vertices().map(|v| EgoNetwork::extract(&g, v)).collect();
    group.bench_with_input(BenchmarkId::new("decomp_classic", g.m()), &egos, |b, egos| {
        b.iter(|| {
            egos.iter().map(|ego| truss_decomposition(&ego.graph).max_trussness as u64).sum::<u64>()
        })
    });
    group.bench_with_input(BenchmarkId::new("decomp_bitmap", g.m()), &egos, |b, egos| {
        b.iter(|| {
            egos.iter()
                .map(|ego| bitmap_truss_decomposition(&ego.graph).max_trussness as u64)
                .sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ego_phase);
criterion_main!(benches);
