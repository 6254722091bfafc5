//! Cross-engine equivalence: the four search engines (online, bound, TSD,
//! GCT) and the Exp-4 Hybrid index must produce identical score multisets,
//! and the engines identical social context partitions, on arbitrary
//! graphs — the paper's correctness claims for Algorithm 4 (Property 1 +
//! Lemma 2), the TSD-index (Observations 2–3), and the GCT-index
//! (Lemma 3), all at once. Online, TSD, GCT, Hybrid and the service also
//! return identical entries: one tie rule (score desc, vertex asc) picks
//! the tied vertices at the r-th score. Bound's early stop may keep other
//! tied vertices, so only its scores are compared.
//!
//! The engines are driven exclusively through the unified surface:
//! `Box<dyn DiversityEngine>` trait objects from the `build_engine` factory
//! and the `SearchService` facade (including `EngineKind::Auto` routing).
//! Hybrid is not an engine, so its index is queried directly.

mod common;

use std::sync::Arc;

use common::arb_graph;
use proptest::prelude::*;

use structural_diversity::search::hybrid::HybridIndex;
use structural_diversity::search::{
    all_scores, build_engine, social_contexts, sparsify, upper_bounds, DiversityEngine, EngineKind,
    QuerySpec, SearchService,
};

/// Every engine over the same shared graph, as trait objects.
fn all_engines(g: &Arc<structural_diversity::graph::CsrGraph>) -> Vec<Box<dyn DiversityEngine>> {
    EngineKind::ALL.iter().map(|&kind| build_engine(kind, g.clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: identical entries through trait objects
    /// (identical score multisets for Bound), with `EngineKind::Auto` (via
    /// the `SearchService`) agreeing too.
    #[test]
    fn all_engines_agree_on_scores(g in arb_graph(18, 70), k in 2u32..6, r in 1usize..8) {
        let g = Arc::new(g);
        let r = r.min(g.n()); // the trait surface rejects r > n by design
        let spec = QuerySpec::new(k, r).expect("valid spec");

        let engines = all_engines(&g);
        let reference = engines[0].top_r(&spec).expect("online query");
        prop_assert_eq!(reference.metrics.engine, "online");
        for engine in &engines[1..] {
            let result = engine.top_r(&spec).expect("engine query");
            prop_assert_eq!(
                &reference.scores(),
                &result.scores(),
                "{} disagrees with online",
                engine.name()
            );
            if engine.kind() != EngineKind::Bound {
                prop_assert_eq!(&reference.entries, &result.entries, "{} entries", engine.name());
            }
            prop_assert_eq!(result.metrics.engine, engine.name());
        }
        let hybrid = HybridIndex::build(&g).top_r(&g, spec.config());
        prop_assert_eq!(&reference.entries, &hybrid.entries, "hybrid disagrees with online");

        // Auto routing through the facade returns the same entries.
        let service = SearchService::from_arc(g);
        let auto = service.top_r(&spec).expect("auto query");
        prop_assert_eq!(reference.entries, auto.entries);
    }

    /// Per-vertex scores through the trait's `score` accessor.
    #[test]
    fn engine_scores_equal_online_for_every_vertex(g in arb_graph(18, 70), k in 2u32..7) {
        let truth = all_scores(&g, k);
        let g = Arc::new(g);
        for kind in [EngineKind::Tsd, EngineKind::Gct] {
            let engine = build_engine(kind, g.clone());
            for v in g.vertices() {
                prop_assert_eq!(engine.score(v, k), truth[v as usize], "{} v={}", engine.name(), v);
            }
        }
        let hybrid = HybridIndex::build(&g);
        for v in g.vertices() {
            prop_assert_eq!(hybrid.score(v, k), truth[v as usize], "hybrid v={}", v);
        }
    }

    /// Context partitions through the trait's `social_contexts` accessor.
    #[test]
    fn contexts_identical_across_engines(g in arb_graph(14, 50), k in 2u32..5) {
        let g = Arc::new(g);
        let engines = all_engines(&g);
        for v in g.vertices() {
            let reference = social_contexts(&g, v, k);
            for engine in &engines {
                prop_assert_eq!(
                    &engine.social_contexts(v, k),
                    &reference,
                    "{} v={}",
                    engine.name(),
                    v
                );
            }
        }
    }

    #[test]
    fn bounds_dominate_scores(g in arb_graph(18, 70), k in 2u32..6) {
        let truth = all_scores(&g, k);
        let lemma2 = upper_bounds(&g, k);
        let tsd = structural_diversity::search::TsdIndex::build(&g);
        for v in g.vertices() {
            prop_assert!(lemma2[v as usize] >= truth[v as usize], "lemma2 v={}", v);
            prop_assert!(tsd.score_upper_bound(v, k) >= truth[v as usize], "tsd-bound v={}", v);
        }
    }

    #[test]
    fn sparsification_preserves_all_scores(g in arb_graph(16, 60), k in 2u32..5) {
        let sp = sparsify(&g, k);
        prop_assert_eq!(all_scores(&sp.graph, k), all_scores(&g, k));
    }

    /// Paper Def. 2/3 sanity: contexts partition a subset of N(v), each with
    /// at least k vertices... at least max(2, ...) — a k-truss component has
    /// at least k vertices for k >= 2 (smallest is the k-clique).
    #[test]
    fn contexts_are_disjoint_and_large_enough(g in arb_graph(16, 60), k in 2u32..5) {
        for v in g.vertices() {
            let contexts = social_contexts(&g, v, k);
            let mut seen = std::collections::HashSet::new();
            for context in &contexts {
                prop_assert!(context.len() >= k as usize, "context smaller than k");
                for &u in context {
                    prop_assert!(seen.insert(u), "vertex {} in two contexts", u);
                    prop_assert!(g.neighbors(v).contains(&u), "context member not a neighbor");
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_registry_sample() {
    // One mid-sized generated dataset as a deterministic smoke test: the
    // facade's answers (Auto plus every served engine) against the
    // index-free scans, built directly, and the Hybrid index. Entries must
    // be identical, except Bound's, whose tied members may differ.
    let g = structural_diversity::datasets::dataset("email-enron-syn")
        .expect("registry")
        .generate(0.05);
    let service = SearchService::new(g);
    let hybrid = HybridIndex::build(&service.graph());
    for k in [3u32, 5] {
        let spec = QuerySpec::new(k, 25).expect("valid spec");
        let reference = service.top_r(&spec).expect("auto query");
        for kind in EngineKind::ALL {
            let result = if SearchService::SERVED.contains(&kind) {
                service.top_r(&spec.with_engine(kind))
            } else {
                build_engine(kind, service.graph()).top_r(&spec)
            };
            let result = result.expect("query");
            assert_eq!(reference.scores(), result.scores(), "{kind} k={k}");
            if kind != EngineKind::Bound {
                assert_eq!(reference.entries, result.entries, "{kind} k={k}");
            }
        }
        let hybrid = hybrid.top_r(&service.graph(), spec.config());
        assert_eq!(reference.entries, hybrid.entries, "hybrid k={k}");
    }
}
