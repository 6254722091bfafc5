//! Generator-driven differential harness: the four engines must return
//! identical top-r score multisets on graphs drawn from every `sd-datasets`
//! family — G(n, m), R-MAT, and Holme–Kim power-law — across varied sizes,
//! trussness thresholds, result budgets, and generator seeds. This is the
//! paper's cross-algorithm correctness claim (Algorithms 3–8 all solve
//! Problem 1) checked on workload-shaped inputs rather than the uniform
//! random graphs of `tests/equivalence.rs`: heavy-tailed degrees and high
//! clustering exercise deep truss hierarchies the uniform generator rarely
//! produces.
//!
//! The same harness also pins down the serving layer: engines revived from
//! a persisted `IndexBundle` must answer exactly like freshly built ones.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use structural_diversity::datasets::{
    gnm_graph, powerlaw_graph, rmat_graph, PowerLawConfig, RmatConfig,
};
use structural_diversity::graph::CsrGraph;
use structural_diversity::search::{build_engine, EngineKind, QuerySpec, SearchService};

/// One graph from the chosen generator family. `seed` feeds the shim
/// `StdRng`, so every failure reproduces from the printed inputs alone.
fn generate(family: usize, n: usize, edge_factor: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        // G(n, m) refuses m beyond the simple-graph maximum; clamp so small
        // n with a high edge factor stays a valid request.
        0 => gnm_graph(n, (n * edge_factor).min(n * (n - 1) / 2), &mut rng),
        1 => rmat_graph(&RmatConfig::social(n, n * edge_factor), &mut rng),
        _ => {
            // Holme–Kim: `edges_per_vertex` must stay below n.
            let config =
                PowerLawConfig { n, edges_per_vertex: edge_factor.min(n - 1), p_triad: 0.35 };
            powerlaw_graph(&config, &mut rng)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline differential property: on a generated graph, every
    /// engine agrees with the online reference — identical rank-ordered
    /// score vectors (hence identical score multisets) for the same
    /// `(k, r)`.
    #[test]
    fn all_engines_agree_on_generated_graphs(
        family in 0usize..3,
        n in 8usize..48,
        edge_factor in 1usize..5,
        seed in 0u64..1_000_000,
        k in 2u32..6,
        r in 1usize..10,
    ) {
        let g = Arc::new(generate(family, n, edge_factor, seed));
        let r = r.min(g.n());
        let spec = QuerySpec::new(k, r).expect("valid spec");

        let reference = build_engine(EngineKind::Online, g.clone())
            .top_r(&spec)
            .expect("online reference");
        for kind in EngineKind::ALL {
            let engine = build_engine(kind, g.clone());
            let result = engine.top_r(&spec).expect("engine query");
            prop_assert_eq!(
                &reference.scores(),
                &result.scores(),
                "family {} n {} seed {}: {} disagrees with online at k={} r={}",
                family, n, seed, kind, k, r
            );
            prop_assert_eq!(result.metrics.engine, kind.name());
        }
    }

    /// Persistence differential: a GCT bundle exported from
    /// one service and imported into a fresh one answers every probed
    /// `(k, r)` exactly like engines built from scratch — and the revived
    /// index answers under its own engine name.
    #[test]
    fn bundle_revived_engines_match_fresh_builds(
        family in 0usize..3,
        n in 8usize..40,
        edge_factor in 1usize..4,
        seed in 0u64..1_000_000,
        k in 2u32..5,
    ) {
        let g = Arc::new(generate(family, n, edge_factor, seed));
        let kinds = SearchService::SERVED;

        let donor = SearchService::from_arc(g.clone());
        let revived = SearchService::from_arc(g.clone());
        revived.import_bundle(donor.export_bundle()).expect("import bundle");
        prop_assert_eq!(revived.built_engines(), kinds.to_vec());

        for r in [1usize, 3, 7] {
            let spec = QuerySpec::new(k, r.min(g.n())).expect("valid spec");
            for kind in kinds {
                let fresh = build_engine(kind, g.clone()).top_r(&spec).expect("fresh query");
                let imported =
                    revived.top_r(&spec.with_engine(kind)).expect("revived query");
                prop_assert_eq!(
                    imported.metrics.engine,
                    kind.name(),
                    "the revived {} index must answer", kind
                );
                prop_assert_eq!(
                    &fresh.scores(),
                    &imported.scores(),
                    "family {} n {} seed {}: revived {} diverges at k={} r={}",
                    family, n, seed, kind, k, r
                );
            }
        }
    }
}
