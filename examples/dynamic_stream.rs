//! Dynamic maintenance, served: an edge stream mutates a social network
//! *while the `SearchService` answers queries* — the Section 5.3 remark
//! opened end to end. Each batch goes through `apply_updates`, which
//! repairs the GCT-index incrementally (only the affected ego-networks),
//! publishes a new epoch atomically, and leaves concurrent queries
//! untouched on their pinned snapshots.
//!
//! ```sh
//! cargo run --release --example dynamic_stream
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use structural_diversity::datasets;
use structural_diversity::graph::GraphUpdate;
use structural_diversity::search::{build_engine, EngineKind, QuerySpec, SearchService};

fn main() {
    let g = datasets::dataset("email-enron-syn").expect("registry").generate(0.1);
    let n = g.n() as u32;
    println!("initial graph: n={} m={}", g.n(), g.m());

    let service = SearchService::new(g);
    // Build the GCT-index first, so every batch repairs it rather than
    // leaving the next query to build it again.
    service.wait_ready([EngineKind::Gct]);

    let mut rng = StdRng::seed_from_u64(2026);
    let spec = QuerySpec::new(4, 1).expect("valid query").with_engine(EngineKind::Gct);

    let mut inserted: Vec<(u32, u32)> = Vec::new();
    let mut repairs_total = 0usize;
    for round in 1..=5 {
        // A batch of 200 random insertions and 100 deletions, applied
        // through the serving layer as one epoch.
        let mut batch: Vec<GraphUpdate> = Vec::with_capacity(300);
        for _ in 0..200 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                batch.push(GraphUpdate::Insert { u, v });
                inserted.push((u, v));
            }
        }
        for _ in 0..100 {
            if let Some(i) = (!inserted.is_empty()).then(|| rng.gen_range(0..inserted.len())) {
                let (u, v) = inserted.swap_remove(i);
                batch.push(GraphUpdate::Remove { u, v });
            }
        }
        let update = service.apply_updates(&batch).expect("apply batch");
        assert!(update.gct_carried, "every batch repairs the built index");
        repairs_total += update.gct_repairs;

        // Queries keep flowing — served by the repaired index, no rebuild.
        let result = service.top_r(&spec).expect("query");
        assert_eq!(result.metrics.engine, "gct", "the repaired GCT engine serves directly");
        let best = &result.entries[0];
        println!(
            "epoch {}: m={}, applied {} / rejected {} ops, {} ego-networks repaired, \
             top vertex {} with score {} (k=4)",
            update.epoch,
            update.m,
            update.applied,
            update.rejected,
            update.gct_repairs,
            best.vertex,
            best.score,
        );
        let _ = round;
    }

    // Prove the served answers equal a from-scratch service on the final
    // graph, and the Online and Bound scans of that graph, built directly.
    let fresh = SearchService::new((*service.graph()).clone());
    fresh.wait_ready(SearchService::SERVED);
    service.wait_ready(SearchService::SERVED);
    let check = QuerySpec::new(4, 10.min(service.graph().n())).expect("valid query");
    let scans = [EngineKind::Online, EngineKind::Bound]
        .map(|kind| build_engine(kind, fresh.graph()).top_r(&check).expect("scan").scores());
    for kind in SearchService::SERVED {
        let live = service.top_r(&check.with_engine(kind)).expect("live").scores();
        let rebuilt = fresh.top_r(&check.with_engine(kind)).expect("rebuilt");
        assert_eq!(live, rebuilt.scores(), "{kind} diverged");
        assert!(scans.iter().all(|scan| *scan == live), "{kind} diverged from the scans");
    }
    let stats = service.stats();
    println!(
        "\nverified: live service == full rebuild for GCT == the Online and Bound \
         scans ({} epochs, {} updates applied, {} GCT entries repaired)",
        stats.epochs, stats.updates_applied, stats.gct_repairs,
    );
    assert_eq!(stats.engines_built, stats.epochs, "one build, then one repair per publish");
    println!(
        "(each batch repaired only the ego-networks of its endpoints and their \
         common neighbors — {:.2} per applied update on average)",
        repairs_total as f64 / stats.updates_applied as f64
    );
}
