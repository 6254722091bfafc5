//! The copy-on-write snapshot against an independent oracle. After any
//! edit script on a graph with a base, `DynamicGraph::to_csr` must equal
//! the graph `GraphBuilder` builds from scratch out of a plain edge-set
//! model of the same script: row for row in neighbors and in arc edge ids,
//! and in the edge table. The model never reads the graph under test.
//!
//! The scripts cover vertex growth, an insert and a remove of one edge in
//! the same batch, removing every edge of a vertex, chains of snapshot →
//! a fresh graph over it (`DynamicGraph::from_base`, as each served update
//! batch starts) → edit, and a long run of frames on one graph that is
//! never rebased onto its snapshot.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use sd_graph::{CsrGraph, DynamicGraph, GraphBuilder, GraphUpdate, VertexId};

/// Vertex ids the base graphs draw from; scripts reach a few past it.
const N: u32 = 24;

/// What an edit script means, kept apart from the code under test: the
/// vertex count and the set of canonical edges.
struct Model {
    n: usize,
    edges: BTreeSet<(VertexId, VertexId)>,
}

impl Model {
    fn new(n: usize, pairs: &[(VertexId, VertexId)]) -> Model {
        let edges = pairs.iter().filter(|(u, v)| u != v).map(|&(u, v)| (u.min(v), u.max(v)));
        Model { n, edges: edges.collect() }
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

    fn build(&self) -> CsrGraph {
        GraphBuilder::with_min_vertices(self.n).extend_edges(self.edges.iter().copied()).build()
    }

    /// A batch removing every edge of `v`.
    fn clear(&self, v: VertexId) -> Vec<GraphUpdate> {
        let incident = self.edges.iter().filter(|&&(a, b)| a == v || b == v);
        incident.map(|&(u, v)| GraphUpdate::Remove { u, v }).collect()
    }
}

/// Applies `batch` to both sides and checks the snapshot against the
/// model's from-scratch build; returns the snapshot.
fn apply_and_check(
    g: &mut DynamicGraph,
    model: &mut Model,
    batch: &[GraphUpdate],
) -> Result<CsrGraph, TestCaseError> {
    g.apply_batch(batch);
    for &op in batch {
        model.apply(op);
    }
    let snapshot = g.to_csr();
    let oracle = model.build();
    prop_assert_eq!(snapshot.n(), oracle.n(), "vertex count after {:?}", batch);
    for v in oracle.vertices() {
        prop_assert_eq!(
            snapshot.neighbors(v),
            oracle.neighbors(v),
            "neighbors of {} after {:?}",
            v,
            batch
        );
        prop_assert_eq!(
            snapshot.arc_edges(v),
            oracle.arc_edges(v),
            "arc edge ids of {} after {:?}",
            v,
            batch
        );
    }
    prop_assert_eq!(snapshot.edges(), oracle.edges(), "edge table after {:?}", batch);
    Ok(snapshot)
}

fn insert(u: VertexId, v: VertexId) -> GraphUpdate {
    GraphUpdate::Insert { u, v }
}

fn remove(u: VertexId, v: VertexId) -> GraphUpdate {
    GraphUpdate::Remove { u, v }
}

/// One batch of a script: its kind, two vertices it may use, random ops,
/// and whether to rebase afterwards: go on with a fresh graph over the
/// snapshot.
type ScriptBatch = (u8, u32, u32, Vec<(bool, u32, u32)>, bool);

fn arb_script() -> impl Strategy<Value = Vec<ScriptBatch>> {
    proptest::collection::vec(
        (
            0u8..5,
            0..N,
            0..N + 6,
            proptest::collection::vec((any::<bool>(), 0..N + 6, 0..N + 6), 1..10),
            any::<bool>(),
        ),
        1..14,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshots_equal_a_builder_replay_of_the_script(
        pairs in proptest::collection::vec((0..N, 0..N), 0..80),
        script in arb_script(),
    ) {
        let mut model = Model::new(N as usize, &pairs);
        let base = Arc::new(GraphBuilder::with_min_vertices(N as usize).extend_edges(pairs).build());
        let mut g = DynamicGraph::from_base(base);
        for (kind, a, b, ops, rebase) in script {
            let batch: Vec<GraphUpdate> = match kind {
                // Random inserts and removes, some past the vertex range.
                0 | 1 => ops.iter().map(|&(ins, u, v)| if ins { insert(u, v) } else { remove(u, v) }).collect(),
                // One edge in and out again within the batch (out, in and
                // out again, when it exists).
                2 => vec![insert(a, b), remove(b, a), insert(a, b), remove(a, b)],
                // Every edge of one vertex.
                3 => model.clear(a),
                // Growth: a vertex up to two past the range, joined to
                // two old ones.
                _ => {
                    let fresh = model.n as VertexId + (b % 3);
                    vec![insert(a, fresh), insert(fresh, b % N), remove(a, fresh), insert(fresh, a)]
                }
            };
            let snapshot = apply_and_check(&mut g, &mut model, &batch)?;
            if rebase {
                g = DynamicGraph::from_base(Arc::new(snapshot));
            }
        }
    }
}

/// The update path's traced shape: 100 frames of 10 ops, each an edit and
/// then its undo, on one graph that is never rebased, so owned rows pile
/// up while the edge set keeps returning to the base's.
#[test]
fn a_hundred_frames_on_a_never_rebased_graph() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x5111_CE00);
    let n = 300u32;
    let pairs: Vec<(VertexId, VertexId)> =
        (0..1500).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
    let mut model = Model::new(n as usize, &pairs);
    let base = Arc::new(GraphBuilder::with_min_vertices(n as usize).extend_edges(pairs).build());
    let mut g = DynamicGraph::from_base(base.clone());
    for frame in 0..50 {
        let edit: Vec<GraphUpdate> = (0..10)
            .map(|_| {
                let (u, v) = (rng.gen_range(0..n + 2), rng.gen_range(0..n));
                if model.edges.contains(&(u.min(v), u.max(v))) {
                    remove(u, v)
                } else {
                    insert(u, v)
                }
            })
            .collect();
        let undo: Vec<GraphUpdate> = edit
            .iter()
            .rev()
            .map(|&op| match op {
                GraphUpdate::Insert { u, v } => remove(u, v),
                GraphUpdate::Remove { u, v } => insert(u, v),
            })
            .collect();
        for batch in [&edit, &undo] {
            if let Err(e) = apply_and_check(&mut g, &mut model, batch) {
                panic!("frame {frame}: {e:?}");
            }
        }
    }
    let owned = base.vertices().filter(|&v| g.neighbors(v).as_ptr() != base.neighbors(v).as_ptr());
    assert!(owned.count() > 0, "never rebased: the edited rows stay owned");
}
