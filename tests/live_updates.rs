//! Live graph updates through the serving layer: after *any* sequence of
//! update batches, answers served by the epoch-swapped `SearchService`
//! must equal a service built fresh on the final graph, with the Online
//! and Bound scans' scores, and the GCT-index must have been *repaired*
//! into each epoch (`gct_carried`), never rebuilt. Under update/query
//! races, every answer must be internally consistent with some published
//! epoch: never a blend of two graphs.

mod common;

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use common::arb_graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use structural_diversity::datasets;
use structural_diversity::graph::{CsrGraph, GraphBuilder, GraphUpdate};
use structural_diversity::search::{
    all_scores, build_engine, EngineKind, GctIndex, GraphFingerprint, QuerySpec, SearchError,
    SearchService,
};

/// The graph an update script should produce, replayed over a plain
/// edge-set model and built from scratch: the oracle for the served
/// graph, independent of the snapshot the service publishes.
struct EdgeSetModel {
    n: usize,
    edges: BTreeSet<(u32, u32)>,
}

impl EdgeSetModel {
    fn of(g: &CsrGraph) -> EdgeSetModel {
        EdgeSetModel { n: g.n(), edges: g.edges().iter().copied().collect() }
    }

    fn apply(&mut self, op: GraphUpdate) {
        match op {
            GraphUpdate::Insert { u, v } => {
                if u != v && self.edges.insert((u.min(v), u.max(v))) {
                    self.n = self.n.max(u.max(v) as usize + 1);
                }
            }
            GraphUpdate::Remove { u, v } => {
                self.edges.remove(&(u.min(v), u.max(v)));
            }
        }
    }

    fn replay(&self) -> CsrGraph {
        GraphBuilder::with_min_vertices(self.n).extend_edges(self.edges.iter().copied()).build()
    }
}

/// Strategy: a sequence of update batches over vertex ids `0..n` (ids at or
/// beyond the current vertex count grow the graph; self-loops and
/// duplicates exercise the rejection path).
fn arb_batches(
    n: u32,
    max_batches: usize,
    max_ops: usize,
) -> impl Strategy<Value = Vec<Vec<GraphUpdate>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (any::<bool>(), 0..n, 0..n).prop_map(|(insert, u, v)| {
                if insert {
                    GraphUpdate::Insert { u, v }
                } else {
                    GraphUpdate::Remove { u, v }
                }
            }),
            1..max_ops,
        ),
        1..max_batches,
    )
}

/// Strategy: batches whose ops all touch one hub vertex (drawn per batch),
/// so several ops in a batch invalidate the same ego-networks.
fn arb_hub_batches(
    n: u32,
    max_batches: usize,
    max_ops: usize,
) -> impl Strategy<Value = Vec<Vec<GraphUpdate>>> {
    proptest::collection::vec(
        (0..n, proptest::collection::vec((any::<bool>(), 0..n), 2..max_ops)).prop_map(
            |(hub, ops)| {
                ops.into_iter()
                    .map(|(insert, v)| {
                        if insert {
                            GraphUpdate::Insert { u: hub, v }
                        } else {
                            GraphUpdate::Remove { u: hub, v }
                        }
                    })
                    .collect()
            },
        ),
        1..max_batches,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The carried index is the rebuilt one, byte for byte: with GCT warm,
    /// after random batches, hub batches (several ops on one vertex) and a
    /// batch growing the vertex set, the exported GCT index equals a fresh
    /// service's on the final graph, and every publishing batch carried
    /// GCT. The exported bytes hold no score order, so the served index
    /// must also equal (`==`) a fresh build of the replay, its carried
    /// order included. After every publishing batch the served edge table
    /// and fingerprint equal those of a from-scratch replay of the ops over
    /// an edge-set model, and the fresh service is built from that replay,
    /// not from the served graph.
    #[test]
    fn carried_indexes_equal_a_fresh_rebuild_byte_for_byte(
        g in arb_graph(14, 40),
        batches in arb_batches(18, 4, 9),
        hubs in arb_hub_batches(18, 4, 7),
    ) {
        let mut model = EdgeSetModel::of(&g);
        let live = SearchService::new(g);
        live.wait_ready([EngineKind::Gct]);
        let fresh_vertex = live.graph().n() as u32;
        let grow = vec![
            GraphUpdate::Insert { u: 0, v: fresh_vertex },
            GraphUpdate::Insert { u: 1, v: fresh_vertex },
            GraphUpdate::Insert { u: fresh_vertex, v: fresh_vertex + 2 },
            GraphUpdate::Remove { u: 0, v: fresh_vertex },
        ];
        let mut script: Vec<&Vec<GraphUpdate>> = vec![&grow];
        for (batch, hub) in batches.iter().zip(hubs.iter().chain(std::iter::repeat(&grow))) {
            script.push(batch);
            script.push(hub);
        }
        for batch in script {
            let stats = live.apply_updates(batch).unwrap();
            prop_assert_eq!(stats.applied + stats.rejected, batch.len());
            for &op in batch {
                model.apply(op);
            }
            if stats.applied > 0 {
                prop_assert!(stats.gct_carried, "warm GCT must carry, batch {:?}", batch);
                prop_assert!(stats.gct_repairs <= stats.tsd_repairs);
                let (served, replay) = (live.graph(), model.replay());
                prop_assert_eq!(served.edges(), replay.edges(), "after {:?}", batch);
                prop_assert_eq!(live.fingerprint(), GraphFingerprint::of(&replay), "after {:?}", batch);
            }
        }
        let fresh = SearchService::new(model.replay());
        prop_assert_eq!(
            live.export_bundle(),
            fresh.export_bundle(),
            "the GCT index diverged from the rebuild"
        );
        let served = live.engine(EngineKind::Gct);
        prop_assert!(
            served.gct_index().is_some_and(|index| **index == GctIndex::build(&model.replay())),
            "the served GCT index, its score order included, diverged from the rebuild"
        );
    }

    /// The acceptance property: drive a live service through an arbitrary
    /// edit script (batched), then check that `top_r` through every served
    /// engine kind agrees exactly with a service built fresh on the final
    /// graph and with the Online and Bound scans of that graph, and that
    /// the GCT-index was maintained incrementally.
    #[test]
    fn served_answers_equal_a_fresh_rebuild_after_any_batch_sequence(
        g in arb_graph(14, 40),
        batches in arb_batches(14, 5, 9),
        k in 2u32..5,
    ) {
        let live = SearchService::new(g);
        // Warm GCT up front: every batch then repairs the built index.
        live.wait_ready([EngineKind::Gct]);

        let mut applied_total = 0usize;
        let mut epochs_published = 0usize;
        for batch in &batches {
            let stats = live.apply_updates(batch).unwrap();
            prop_assert_eq!(stats.applied + stats.rejected, batch.len());
            applied_total += stats.applied;
            if stats.applied > 0 {
                epochs_published += 1;
                prop_assert!(stats.gct_carried, "warmed GCT must carry, batch {:?}", batch);
                prop_assert!(stats.tsd_repairs >= 2 * stats.applied);
            }
        }

        live.wait_ready(EngineKind::ALL);
        let fresh = SearchService::new((*live.graph()).clone());
        fresh.wait_ready(EngineKind::ALL);

        let spec = QuerySpec::new(k, 5.min(live.graph().n())).unwrap();
        let scans = [EngineKind::Online, EngineKind::Bound]
            .map(|kind| build_engine(kind, fresh.graph()).top_r(&spec).unwrap().scores());
        for kind in SearchService::SERVED {
            let served = live.top_r(&spec.with_engine(kind)).unwrap();
            prop_assert_eq!(
                served.metrics.engine, kind.name(),
                "post-wait_ready, {} must serve through its own engine", kind
            );
            prop_assert_eq!(
                served.scores(),
                fresh.top_r(&spec.with_engine(kind)).unwrap().scores(),
                "{} diverged from the fresh rebuild", kind
            );
            prop_assert!(scans.iter().all(|scan| *scan == served.scores()), "{} vs the scans", kind);
        }

        let stats = live.stats();
        prop_assert_eq!(stats.updates_applied, applied_total);
        prop_assert_eq!(stats.epochs, 1 + epochs_published);
        prop_assert!(
            stats.gct_repairs >= 2 * epochs_published,
            "GCT must have been maintained incrementally, not rebuilt: {:?}", stats
        );
        prop_assert_eq!(stats.background_builds, 0, "no publish re-queued a build");
    }

    /// Social contexts (not just scores) survive the carry: the served
    /// GCT engine's contexts equal the fresh service's after any script.
    #[test]
    fn served_contexts_equal_a_fresh_rebuild(
        g in arb_graph(12, 30),
        batches in arb_batches(12, 4, 6),
        k in 2u32..5,
    ) {
        let live = SearchService::new(g);
        live.wait_ready([EngineKind::Gct]);
        for batch in &batches {
            live.apply_updates(batch).unwrap();
        }
        let final_graph = live.graph();
        let fresh = SearchService::new((*final_graph).clone());
        let live_engine = live.engine(EngineKind::Gct);
        let fresh_engine = fresh.engine(EngineKind::Gct);
        for v in final_graph.vertices() {
            prop_assert_eq!(
                live_engine.social_contexts(v, k),
                fresh_engine.social_contexts(v, k),
                "contexts of v={} diverged", v
            );
        }
    }
}

fn sample_graph() -> CsrGraph {
    datasets::dataset("email-enron-syn").expect("registry").generate(0.05)
}

/// Deterministic pseudo-random update batches confined to `0..n`, biased
/// toward inserts so the graph stays interesting.
fn random_batches(n: u32, batches: usize, ops: usize, seed: u64) -> Vec<Vec<GraphUpdate>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batches)
        .map(|_| {
            (0..ops)
                .map(|_| {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if rng.gen_range(0..3) < 2 {
                        GraphUpdate::Insert { u, v }
                    } else {
                        GraphUpdate::Remove { u, v }
                    }
                })
                .collect()
        })
        .collect()
}

/// The top-r score multiset of `g` — the tie-break-free reference every
/// engine must reproduce, whether its index was carried, rebuilt, or
/// built by the cold query that joined it.
fn reference_scores(g: &CsrGraph, k: u32, r: usize) -> Vec<u32> {
    let mut scores = all_scores(g, k);
    scores.sort_unstable_by(|a, b| b.cmp(a));
    scores.truncate(r);
    scores
}

/// The race suite: query threads hammer the service's index while the
/// test's own thread applies batches. Every answer must equal
/// the reference on *some* published epoch — a query that blended two
/// epochs would produce a score multiset no single graph yields (with
/// overwhelming probability), and any disagreement between engines, or
/// between a carried index and a rebuilt one, shows up the same way. Afterwards, the settled service must match a fresh
/// single-threaded rebuild of the final graph and its Online and Bound
/// scans. Before each batch the updater waits until some query has
/// answered since its last publish, so the queries race every batch
/// however fast the batches apply.
#[test]
fn racing_queries_are_consistent_with_some_published_epoch() {
    const QUERY_THREADS: usize = 6;
    const K: u32 = 4;
    const R: usize = 10;

    let g = sample_graph();
    let n = g.n() as u32;
    let live = Arc::new(SearchService::new(g));
    live.wait_ready([EngineKind::Gct]);

    let batches = random_batches(n, 8, 40, 0x5EED_2026);
    // Every epoch's graph, recorded by the (single) updater right after
    // each publish; index 0 is the construction epoch.
    let mut published: Vec<Arc<CsrGraph>> = vec![live.graph()];
    let answers: Mutex<Vec<Vec<u32>>> = Mutex::new(Vec::new());
    let answered = AtomicUsize::new(0);
    let mut between = Vec::new();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let queries: Vec<_> = (0..QUERY_THREADS)
            .map(|worker| {
                let live = live.clone();
                let (answers, answered, done) = (&answers, &answered, &done);
                scope.spawn(move || {
                    let kinds = SearchService::SERVED;
                    let mut i = worker; // stagger the kind rotation per thread
                    let mut local = Vec::new();
                    while !done.load(Ordering::SeqCst) {
                        let kind = kinds[i % kinds.len()];
                        i += 1;
                        let spec = QuerySpec::new(K, R).unwrap().with_engine(kind);
                        local.push(live.top_r(&spec).expect("raced query").scores());
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                    answers.lock().unwrap().append(&mut local);
                })
            })
            .collect();
        // The updater runs on this thread. `seen` counts the answers up to
        // its last publish, and `between[i]` those that landed after it and
        // before batch `i` started.
        let mut seen = 0;
        for batch in &batches {
            while answered.load(Ordering::SeqCst) == seen {
                assert!(!queries.iter().all(|q| q.is_finished()), "every query thread stopped");
                std::thread::yield_now();
            }
            between.push(answered.load(Ordering::SeqCst) - seen);
            let stats = live.apply_updates(batch).expect("apply");
            assert!(stats.applied > 0, "random batches this size always apply something");
            published.push(live.graph());
            seen = answered.load(Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
    });

    assert_eq!(published.len(), batches.len() + 1, "one epoch per applied batch");
    let references: Vec<Vec<u32>> = published.iter().map(|g| reference_scores(g, K, R)).collect();
    let answers = answers.into_inner().unwrap();
    assert!(
        between.iter().all(|&landed| landed > 0),
        "a query must have answered between every two batches: {between:?}"
    );
    for (i, scores) in answers.iter().enumerate() {
        assert!(
            references.iter().any(|reference| reference == scores),
            "answer {i} ({scores:?}) matches no published epoch"
        );
    }

    // Settled state == fresh single-threaded rebuild, for every served
    // kind, and == the Online and Bound scans of the final graph.
    live.wait_ready(EngineKind::ALL);
    let fresh = SearchService::new((*live.graph()).clone());
    fresh.wait_ready(EngineKind::ALL);
    let spec = QuerySpec::new(K, R).unwrap();
    let scans = [EngineKind::Online, EngineKind::Bound]
        .map(|kind| build_engine(kind, fresh.graph()).top_r(&spec).expect("scan").scores());
    for kind in SearchService::SERVED {
        let spec = spec.with_engine(kind);
        let settled = live.top_r(&spec).expect("settled query");
        assert_eq!(settled.metrics.engine, kind.name());
        assert_eq!(
            settled.scores(),
            fresh.top_r(&spec).expect("fresh query").scores(),
            "{kind} settled answer diverged from the fresh rebuild"
        );
        assert!(scans.iter().all(|scan| *scan == settled.scores()), "{kind} vs the scans");
    }
    let stats = live.stats();
    assert_eq!(stats.epochs, batches.len() + 1);
    assert_eq!(stats.foreground_fallbacks, 0, "every publish carried GCT warm");
}

/// Concurrent `apply_updates` calls from many threads serialize cleanly:
/// every applied update lands, the final graph equals a single-threaded
/// replay-equivalent state, and epoch accounting stays exact.
#[test]
fn concurrent_updaters_serialize_without_losing_updates() {
    const UPDATERS: usize = 4;

    let g = sample_graph();
    let n = g.n() as u32;
    let live = Arc::new(SearchService::new(g.clone()));
    live.wait_ready([EngineKind::Gct]);

    // Disjoint insert sets per thread (edges chosen from disjoint vertex
    // strides), so the union is order-independent.
    let mut per_thread: Vec<Vec<GraphUpdate>> = Vec::new();
    for t in 0..UPDATERS as u32 {
        let mut rng = StdRng::seed_from_u64(0xABCD + u64::from(t));
        let batch = (0..30)
            .map(|_| {
                let u = rng.gen_range(0..n / 2) * 2 + (t % 2);
                let v = rng.gen_range(0..n / 2) * 2 + (t % 2);
                GraphUpdate::Insert { u, v }
            })
            .collect();
        per_thread.push(batch);
    }

    std::thread::scope(|scope| {
        for batch in &per_thread {
            let live = live.clone();
            scope.spawn(move || live.apply_updates(batch).expect("apply"));
        }
    });

    // Replay the same updates single-threaded on a control service: the
    // final edge sets must be identical (insert-only batches commute).
    let control = SearchService::new(g);
    for batch in &per_thread {
        control.apply_updates(batch).expect("control apply");
    }
    assert_eq!(live.graph().edges(), control.graph().edges());
    assert_eq!(live.fingerprint(), control.fingerprint());

    let spec = QuerySpec::new(3, 10).unwrap().with_engine(EngineKind::Gct);
    live.wait_ready([EngineKind::Gct]);
    control.wait_ready([EngineKind::Gct]);
    assert_eq!(live.top_r(&spec).unwrap().scores(), control.top_r(&spec).unwrap().scores());
}

/// The carry path, end to end: after a *warm* update (the index built
/// before the batch), the publish repairs GCT in place and enqueues **no**
/// background rebuild, and the repaired engine serves.
#[test]
fn warm_updates_carry_every_engine_without_background_rebuilds() {
    let live = SearchService::new(sample_graph());
    live.wait_ready(SearchService::SERVED);
    let before = live.stats();
    let grown = live.graph().n() as u32; // fresh vertex: the insert always applies

    let stats = live.apply_updates(&[GraphUpdate::Insert { u: 0, v: grown }]).expect("apply");
    assert_eq!(stats.applied, 1);
    assert!(stats.gct_carried, "warm GCT must repair in place");
    assert!(stats.gct_repairs > 0, "the touched egos were re-decomposed");

    let after = live.stats();
    assert!(after.gct_repairs > before.gct_repairs, "repair counter must tick");
    assert_eq!(
        after.background_builds, before.background_builds,
        "a fully-warm publish must not enqueue any background rebuild"
    );

    // The carried engine actually serves, with no build window.
    for kind in [EngineKind::Gct, EngineKind::Auto] {
        let spec = QuerySpec::new(3, 5).unwrap().with_engine(kind);
        let served = live.top_r(&spec).expect("carried engine answers");
        assert_eq!(served.metrics.engine, "gct", "{kind} must serve through the GCT engine");
    }
    assert_eq!(live.stats().foreground_fallbacks, before.foreground_fallbacks);
}

/// A batch must not be empty, and stale-epoch index blobs must be refused
/// once any update publishes — the cross-epoch fingerprint discipline.
#[test]
fn empty_batches_error_and_stale_blobs_are_refused() {
    let live = SearchService::new(sample_graph());
    assert_eq!(live.apply_updates(&[]).unwrap_err(), SearchError::EmptyUpdateBatch);

    let stale = live.export_bundle();
    let old_fingerprint = live.fingerprint();
    let stats = live.apply_updates(&[GraphUpdate::Insert { u: 0, v: 1 }]).unwrap();
    // email-enron-syn has edge (0,1)? Either way: force an applied update.
    let stats = if stats.applied == 0 {
        live.apply_updates(&[GraphUpdate::Remove { u: 0, v: 1 }]).unwrap()
    } else {
        stats
    };
    assert_eq!(stats.applied, 1);
    assert_ne!(live.fingerprint(), old_fingerprint);
    assert_eq!(
        live.import_bundle(stale).unwrap_err(),
        SearchError::FingerprintMismatch { expected: live.fingerprint(), found: old_fingerprint }
    );
}

/// Auto-routed traffic keeps flowing across epochs, whether or not the
/// epoch's index was built yet, and answers stay correct.
#[test]
fn auto_traffic_survives_epoch_swaps() {
    let live = SearchService::new(sample_graph());
    let n = live.graph().n() as u32;
    let spec = QuerySpec::new(3, 5).unwrap(); // Auto
    let mut seen: HashMap<&'static str, usize> = HashMap::new();
    for (i, batch) in random_batches(n, 4, 25, 77).iter().enumerate() {
        let before = reference_scores(&live.graph(), 3, 5);
        let result = live.top_r(&spec).expect("auto query");
        assert_eq!(result.scores(), before, "auto answer diverged at round {i}");
        *seen.entry(result.metrics.engine).or_default() += 1;
        live.apply_updates(batch).expect("apply");
    }
    // Every round's query was answered, by the GCT index.
    assert_eq!(seen.get("gct"), Some(&4), "{seen:?}");
}

/// Regression (0.6): `wait_ready` racing an `apply_updates` must leave the
/// *published* epoch warm, not the snapshot it pinned at entry. The 0.5
/// implementation built against its entry epoch and returned — a mid-join
/// update left the new epoch cold for the joined kinds (and, when the join
/// was mid-build at publish time, the kind was neither built nor latched
/// on the old epoch, so the update did not even re-enqueue it). The fix
/// re-resolves the serving epoch after the joins and loops until the
/// builds landed where traffic actually goes.
///
/// Timing makes the race probabilistic per round (each round either hits
/// the window or degenerates to the no-race case, which both code paths
/// handle); the assertion holds deterministically for the fixed code in
/// every round, while the 0.5 code fails within a few rounds.
#[test]
fn wait_ready_covers_epochs_published_mid_join() {
    let g = sample_graph();
    for round in 0..6u64 {
        let service = SearchService::new(g.clone());
        let mut kinds = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Land the update inside the join's build window.
                std::thread::sleep(std::time::Duration::from_millis(round));
                service
                    .apply_updates(&[GraphUpdate::Insert { u: 1, v: 7000 + round as u32 }])
                    .expect("update");
            });
            kinds = service.wait_ready([EngineKind::Gct, EngineKind::Tsd]);
        });
        assert_eq!(kinds, [EngineKind::Gct], "the one served kind was joined");
        // No queries here — polling `built_engines` alone must show the
        // joined kinds warm on whatever epoch is now serving.
        let built = service.built_engines();
        for kind in kinds {
            assert!(
                built.contains(&kind),
                "round {round}: {kind} cold on epoch {} after wait_ready returned (built: {built:?})",
                service.epoch(),
            );
        }
    }
}
