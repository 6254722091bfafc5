//! Property tests for update maintenance: after an arbitrary script of edge
//! insertions and deletions, each applied as its own
//! `SearchService::apply_updates` batch, the repaired GCT-index must agree
//! exactly with a from-scratch computation on the published graph — scores,
//! the whole top-r ranking its carried score order answers, AND social
//! contexts, for every k.

mod common;

use common::arb_graph;
use proptest::prelude::*;

use structural_diversity::graph::{CsrGraph, GraphUpdate};
use structural_diversity::search::{
    all_scores, build_engine, social_contexts, EngineKind, QuerySpec, SearchService,
};

fn arb_edits(n: u32, len: usize) -> impl Strategy<Value = Vec<GraphUpdate>> {
    proptest::collection::vec(
        (any::<bool>(), 0..n, 0..n).prop_map(|(ins, u, v)| {
            if ins {
                GraphUpdate::Insert { u, v }
            } else {
                GraphUpdate::Remove { u, v }
            }
        }),
        0..len,
    )
}

/// A service over `g` with its GCT-index built, so every applied batch
/// repairs it.
fn warm_service(g: CsrGraph) -> SearchService {
    let service = SearchService::new(g);
    service.wait_ready([EngineKind::Gct]);
    service
}

/// Applies `edit` as a batch of its own. An edit that applies must publish
/// a repaired GCT-index, not leave it to a rebuild.
fn apply(service: &SearchService, edit: GraphUpdate) -> Result<(), TestCaseError> {
    let stats = service.apply_updates(&[edit]).expect("a one-op batch");
    prop_assert!(stats.applied == 0 || stats.gct_carried, "{:?}: {:?}", edit, stats);
    Ok(())
}

/// The served GCT engine's scores at `k`, over every vertex of the
/// published graph.
fn served_scores(service: &SearchService, k: u32) -> Vec<u32> {
    let engine = service.engine(EngineKind::Gct);
    service.graph().vertices().map(|v| engine.score(v, k)).collect()
}

/// The served top-r at `k` with r = n — the whole ranking the carried
/// score order answers, zero fill included — against the Online scan's
/// (Algorithm 3) on the published graph.
fn served_ranking_is_online(service: &SearchService, k: u32) -> Result<(), TestCaseError> {
    let graph = service.graph();
    let spec = QuerySpec::new(k, graph.n()).expect("a valid spec");
    let served = service.top_r(&spec).expect("the served query");
    let online = build_engine(EngineKind::Online, graph).top_r(&spec).expect("the online scan");
    prop_assert_eq!(served.entries, online.entries);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn incremental_equals_rebuild(
        g in arb_graph(14, 40),
        edits in arb_edits(14, 12),
        k in 2u32..5,
    ) {
        let service = warm_service(g);
        for edit in edits {
            apply(&service, edit)?;
            prop_assert_eq!(
                served_scores(&service, k),
                all_scores(&service.graph(), k),
                "after {:?}",
                edit
            );
            served_ranking_is_online(&service, k)?;
        }
    }

    #[test]
    fn contexts_equal_rebuild_at_end(
        g in arb_graph(12, 30),
        edits in arb_edits(12, 8),
        k in 2u32..5,
    ) {
        let service = warm_service(g);
        for edit in edits {
            apply(&service, edit)?;
        }
        let (graph, engine) = (service.graph(), service.engine(EngineKind::Gct));
        for v in graph.vertices() {
            prop_assert_eq!(
                engine.social_contexts(v, k),
                social_contexts(&graph, v, k),
                "v={}", v
            );
        }
    }

    /// Insert-then-remove of the same edge restores all scores exactly,
    /// and the index served in between is the inserted graph's, so a
    /// repair that published a stale index cannot pass.
    #[test]
    fn insert_remove_is_identity(g in arb_graph(14, 40), u in 0u32..14, v in 0u32..14, k in 2u32..5) {
        prop_assume!(u != v);
        prop_assume!(u < g.n() as u32 && v < g.n() as u32);
        prop_assume!(!g.has_edge(u, v));
        let before = all_scores(&g, k);
        let service = warm_service(g);
        apply(&service, GraphUpdate::Insert { u, v })?;
        prop_assert_eq!(
            served_scores(&service, k),
            all_scores(&service.graph(), k),
            "after the insert"
        );
        apply(&service, GraphUpdate::Remove { u, v })?;
        prop_assert_eq!(served_scores(&service, k), before);
    }
}
