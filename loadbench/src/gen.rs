//! Seeded inputs: the graph, each connection's request stream, and the
//! update frames. The serving stack sees only what these produce; the
//! same seed yields the same inputs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_core::EngineKind;
use sd_graph::{CsrGraph, DynamicGraph, GraphUpdate, VertexId};
use sd_server::WireQuery;

use crate::run::{COLD_KS, CONNECTIONS, FRESH_EVERY};

/// The traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeBurst,
    ColdDeploy,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeBurst, Workload::ColdDeploy];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeBurst => "serve-burst",
            Workload::ColdDeploy => "cold-deploy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry dataset the workload runs on.
    pub fn dataset(self) -> &'static str {
        match self {
            Workload::ColdDeploy => "wiki-vote-syn",
            _ => "epinions-syn",
        }
    }

    /// Sizes for a run measuring `seconds`.
    pub fn config(self, seconds: f64) -> Config {
        Config {
            scale: match self {
                // Scale 1.0 cycles in ~210 ms, too slow for enough cycles
                // in one run; 0.5 keeps Bound slower than Online.
                Workload::ColdDeploy => 0.5,
                _ => 0.25,
            },
            seconds,
            setups: 5,
        }
    }
}

/// Distinct update frames: each is sent, then undone, again and again,
/// so 2 · 50 distinct update requests give `update_p90_ms` 10 samples
/// beyond its rank.
const UPDATE_FRAMES: usize = 50;

/// Ops per update frame: few, so a frame mostly pays the per-frame
/// snapshot, fingerprint and publish.
const UPDATE_OPS: usize = 10;

/// Everything that sizes a run. The command line fixes it through
/// [`Workload::config`]; tests shrink it.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Dataset scale in `(0, 1]`.
    pub scale: f64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// One query frame: the queries a request carries.
pub type QueryFrame = Vec<WireQuery>;

/// All of a run's inputs.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub graph: Arc<CsrGraph>,
    /// One closed-loop stream of frames per connection, cycled until the
    /// measured phase ends; `cold-deploy` has one stream of single-query
    /// frames, one per cycle.
    pub streams: Vec<Vec<QueryFrame>>,
    /// Per stream, the frames it sends on fresh connections, cycled
    /// apart; none for `cold-deploy`.
    pub fresh: Vec<Vec<QueryFrame>>,
    /// The update requests, in send order: each frame, then its undo.
    /// Sent cycled; after every undo the graph is the original again.
    pub updates: Vec<Vec<GraphUpdate>>,
}

impl Inputs {
    /// The graph after the first `frames` requests of `updates`, sent
    /// cycled, replayed on a [`DynamicGraph`] apart from the service.
    pub fn graph_after(&self, frames: usize) -> CsrGraph {
        let mut g = DynamicGraph::from_base(self.graph.clone());
        // A whole cycle of frames and undos leaves the graph as it was.
        for frame in &self.updates[..frames % self.updates.len()] {
            g.apply_batch(frame);
        }
        g.to_csr()
    }

    /// What stream `stream` sends as its `seq`-th frame: every
    /// [`FRESH_EVERY`]-th comes from its fresh-connection list, the rest
    /// from its standing list, each list cycled. Returns the frame,
    /// whether it goes on a fresh connection, and its place in its list.
    pub fn frame(&self, stream: usize, seq: usize) -> (&QueryFrame, bool, usize) {
        let fresh = &self.fresh[stream];
        if !fresh.is_empty() && seq % FRESH_EVERY == FRESH_EVERY - 1 {
            let i = (seq / FRESH_EVERY) % fresh.len();
            return (&fresh[i], true, i);
        }
        let standing = &self.streams[stream];
        let skipped = if fresh.is_empty() { 0 } else { seq / FRESH_EVERY };
        let i = (seq - skipped) % standing.len();
        (&standing[i], false, i)
    }

    /// Every distinct query `(k, r, engine)` the streams carry, sorted.
    pub fn distinct_queries(&self) -> Vec<WireQuery> {
        let frames = self.streams.iter().chain(&self.fresh).flatten();
        let mut all: Vec<WireQuery> = frames.flatten().copied().collect();
        all.sort_by_key(|q| (q.k, q.r, q.engine.tag()));
        all.dedup();
        all
    }
}

/// Distinct frames each serving stream sends on its standing connection:
/// 2 · 56 give `query_p90_ms` 10 samples beyond its rank, and few enough
/// that each is sent [`STANDING_REPEATS`](crate::run::STANDING_REPEATS)
/// times even in a slow run.
const STANDING_FRAMES: usize = 56;

/// The same for the frames each stream sends on fresh connections, for
/// `cold_query_p90_ms`.
const FRESH_FRAMES: usize = 50;

/// Generates the inputs of `workload` at `config` from `seed`.
pub fn generate(workload: Workload, config: &Config, seed: u64) -> Inputs {
    // The graph is the named dataset at a fixed scale; the seed varies
    // the traffic only.
    let dataset = sd_datasets::dataset(workload.dataset()).expect("registry dataset");
    let graph = Arc::new(dataset.generate(config.scale));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_10ad_be9c_0000);
    let mut frames = |count: usize| -> Vec<QueryFrame> {
        (0..count)
            .map(|_| (0..4).map(|_| WireQuery::new(rng.gen_range(3..=6), 100)).collect())
            .collect()
    };
    let (streams, fresh) = match workload {
        Workload::ServeBurst => {
            (0..CONNECTIONS).map(|_| (frames(STANDING_FRAMES), frames(FRESH_FRAMES))).unzip()
        }
        Workload::ColdDeploy => {
            // `k` cycles from a seeded start, so every run has the same mix
            // of thresholds; a scan's cost depends on `k`.
            let ks: Vec<u32> = COLD_KS.collect();
            let first = rng.gen_range(0..ks.len());
            let query =
                |i: usize| WireQuery { k: ks[i % ks.len()], r: 100, engine: EngineKind::Gct };
            (vec![(first..first + ks.len()).map(|i| vec![query(i)]).collect()], vec![Vec::new()])
        }
    };
    let updates = update_frames(&mut rng, &graph);
    Inputs { graph, streams, fresh, updates }
}

/// [`UPDATE_FRAMES`] update frames of [`UPDATE_OPS`] alternating inserts
/// and removes, each followed by its undo (the inverse ops in reverse
/// order). Each frame is built against the original graph, simulated
/// apart, so that every op applies in order and the edge count stays
/// level. An insert closes a triangle (joins two neighbors of a random
/// vertex); a remove drops an existing edge.
fn update_frames(rng: &mut StdRng, graph: &Arc<CsrGraph>) -> Vec<Vec<GraphUpdate>> {
    let mut sim = DynamicGraph::from_base(graph.clone());
    let n = sim.n() as VertexId;
    let mut out = Vec::with_capacity(2 * UPDATE_FRAMES);
    for _ in 0..UPDATE_FRAMES {
        let mut frame = Vec::with_capacity(UPDATE_OPS);
        while frame.len() < UPDATE_OPS {
            let u = rng.gen_range(0..n);
            let nbrs = sim.neighbors(u);
            let update = if frame.len() % 2 == 0 {
                if nbrs.len() < 2 {
                    continue;
                }
                let (a, b) = (rng.gen_range(0..nbrs.len()), rng.gen_range(0..nbrs.len()));
                let (v, w) = (nbrs[a], nbrs[b]);
                if v == w || sim.has_edge(v, w) {
                    continue;
                }
                GraphUpdate::Insert { u: v, v: w }
            } else {
                if nbrs.is_empty() {
                    continue;
                }
                GraphUpdate::Remove { u, v: nbrs[rng.gen_range(0..nbrs.len())] }
            };
            let applied = sim.apply(update);
            debug_assert!(applied, "generated ops always apply");
            frame.push(update);
        }
        let undo: Vec<GraphUpdate> = frame.iter().rev().map(|&op| inverse(op)).collect();
        sim.apply_batch(&undo);
        out.push(frame);
        out.push(undo);
    }
    out
}

fn inverse(op: GraphUpdate) -> GraphUpdate {
    match op {
        GraphUpdate::Insert { u, v } => GraphUpdate::Remove { u, v },
        GraphUpdate::Remove { u, v } => GraphUpdate::Insert { u, v },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config { scale: 0.02, seconds: 0.5, setups: 1 }
    }

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            let (a, b) = (generate(w, &tiny(), 7), generate(w, &tiny(), 7));
            assert_eq!((&a.streams, &a.fresh), (&b.streams, &b.fresh), "{}", w.name());
            assert_eq!(a.updates, b.updates, "{}", w.name());
            assert_eq!(a.graph.edges(), b.graph.edges(), "{}", w.name());
            let c = generate(w, &tiny(), 8);
            assert_ne!((a.streams, a.updates), (c.streams, c.updates), "{}", w.name());
        }
    }

    #[test]
    fn every_fresh_every_th_frame_comes_from_the_fresh_list_and_each_list_cycles() {
        let inputs = generate(Workload::ServeBurst, &tiny(), 5);
        let (mut standing, mut fresh) = (0, 0);
        for seq in 0..3 * STANDING_FRAMES * FRESH_EVERY {
            let (frame, is_fresh, place) = inputs.frame(1, seq);
            assert_eq!(is_fresh, seq % FRESH_EVERY == FRESH_EVERY - 1);
            let (list, count) = if is_fresh {
                (&inputs.fresh[1], &mut fresh)
            } else {
                (&inputs.streams[1], &mut standing)
            };
            assert_eq!((place, frame), (*count % list.len(), &list[*count % list.len()]));
            *count += 1;
        }
        let cold = generate(Workload::ColdDeploy, &tiny(), 5);
        let cycle = cold.streams[0].len();
        assert!((0..8)
            .all(|seq| cold.frame(0, seq) == (&cold.streams[0][seq % cycle], false, seq % cycle)));
    }

    #[test]
    fn every_generated_update_applies_and_each_undo_restores_the_graph() {
        let inputs = generate(Workload::ServeBurst, &tiny(), 3);
        assert_eq!(inputs.updates.len(), 2 * UPDATE_FRAMES);
        let mut g = DynamicGraph::from_base(inputs.graph.clone());
        for (j, frame) in inputs.updates.iter().enumerate() {
            assert_eq!(g.apply_batch(frame).applied, frame.len());
            if j % 2 == 1 {
                assert_eq!(g.to_csr().edges(), inputs.graph.edges(), "after undo {j}");
            }
        }
        let once = inputs.graph_after(1);
        assert_ne!(once.edges(), inputs.graph.edges());
        assert_eq!(inputs.graph_after(inputs.updates.len() + 1).edges(), once.edges());
    }
}
