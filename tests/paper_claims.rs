//! End-to-end assertions of the paper's *worked examples* — every concrete
//! number the paper states about its running figures must come out of our
//! implementation identically.

use std::sync::Arc;
use structural_diversity::graph::triangles::edge_support;

use structural_diversity::search::{
    build_engine, paper_figure1_graph, social_contexts, EgoNetwork, EngineKind, GctIndex,
    QuerySpec, SearchService, TsdIndex,
};
use structural_diversity::truss::truss_decomposition;

/// Section 2.2: "There exists only one triangle △x2x4y1 containing (x2,y1),
/// and sup_H1(x2,y1) = 1" — measured inside the ego-network of v.
#[test]
fn figure_2a_support_of_bridge() {
    let (g, v, names) = paper_figure1_graph();
    let ego = EgoNetwork::extract(&g, v);
    let x2 = names.iter().position(|&n| n == "x2").unwrap() as u32;
    let y1 = names.iter().position(|&n| n == "y1").unwrap() as u32;
    let lx2 = ego.vertices.binary_search(&x2).unwrap() as u32;
    let ly1 = ego.vertices.binary_search(&y1).unwrap() as u32;
    let support = edge_support(&ego.graph);
    let e = ego.graph.edge_id_between(lx2, ly1).unwrap();
    assert_eq!(support[e as usize], 1);
}

/// Example 1: "the trussness of subgraph H1 is 3 … τ_H1(x2,y1) = 3".
#[test]
fn example_1_trussness_of_bridge() {
    let (g, v, names) = paper_figure1_graph();
    let ego = EgoNetwork::extract(&g, v);
    let decomposition = truss_decomposition(&ego.graph);
    let x2 = names.iter().position(|&n| n == "x2").unwrap() as u32;
    let y1 = names.iter().position(|&n| n == "y1").unwrap() as u32;
    let lx2 = ego.vertices.binary_search(&x2).unwrap() as u32;
    let ly1 = ego.vertices.binary_search(&y1).unwrap() as u32;
    let e = ego.graph.edge_id_between(lx2, ly1).unwrap();
    assert_eq!(decomposition.edge(e), 3);
}

/// Section 2.2 / 2.3: SC(v) = {{x1..x4}, {y1..y4}, {r1..r6}} and the top-1
/// answer of the whole problem is v with score 3.
#[test]
fn problem_statement_answer() {
    let (g, v, names) = paper_figure1_graph();
    let engine = build_engine(EngineKind::Online, Arc::new(g));
    let result = engine.top_r(&QuerySpec::new(4, 1).expect("valid spec")).expect("query");
    assert_eq!(result.entries[0].vertex, v);
    assert_eq!(result.entries[0].score, 3);

    let labeled: Vec<Vec<&str>> = result.entries[0]
        .contexts
        .iter()
        .map(|c| c.iter().map(|&u| names[u as usize]).collect())
        .collect();
    assert!(labeled.contains(&vec!["x1", "x2", "x3", "x4"]));
    assert!(labeled.contains(&vec!["y1", "y2", "y3", "y4"]));
    assert!(labeled.contains(&vec!["r1", "r2", "r3", "r4", "r5", "r6"]));
}

/// Section 1 model comparison on the motivating example: at k = 4 the three
/// models disagree exactly as the bullet list describes.
#[test]
fn intro_model_comparison() {
    use structural_diversity::search::baselines::{comp_div_scores, core_div_scores};
    let (g, v, _) = paper_figure1_graph();
    // Truss: 3 contexts. Comp: H1 is one k-sized component + octahedron = 2.
    // Core: for k=4, H1 is no longer a feasible context; octahedron is = 1.
    assert_eq!(social_contexts(&g, v, 4).len(), 3);
    assert_eq!(comp_div_scores(&g, 4)[v as usize], 2);
    assert_eq!(core_div_scores(&g, 4)[v as usize], 1);
}

/// Observation 2/3 consequence: the TSD forest of v stores at most
/// d(v) − 1 edges yet reproduces every k's contexts (checked against
/// Algorithm 2 for the full k range).
#[test]
fn tsd_certificate_is_small_and_complete() {
    let (g, v, _) = paper_figure1_graph();
    let index = TsdIndex::build(&g);
    let forest: Vec<_> = index.forest(v).collect();
    assert!(forest.len() < g.degree(v));
    for k in 2..=6 {
        assert_eq!(index.social_contexts(&g, v, k), social_contexts(&g, v, k), "k={k}");
    }
}

/// Figure 7: the GCT entry of v is strictly smaller than its TSD forest
/// (3 supernodes + 1 superedge vs 12 forest edges).
#[test]
fn figure_7_compression() {
    let (g, v, _) = paper_figure1_graph();
    let gct = GctIndex::build(&g);
    let entry = gct.entry(v);
    assert_eq!(entry.supernodes(), 3);
    assert_eq!(entry.superedges(), 1);
    let tsd = TsdIndex::build(&g);
    assert!(entry.supernodes() + entry.superedges() < tsd.forest(v).count());
}

/// Section 4.1's claim that sparsification removes a large edge fraction:
/// on a community-structured graph at k = 5, a sizable share of edges has
/// trussness ≤ 5 and disappears without changing any answer.
#[test]
fn sparsification_bites_on_community_graphs() {
    use structural_diversity::search::sparsify;
    let g = structural_diversity::datasets::dataset("email-enron-syn")
        .expect("registry")
        .generate(0.05);
    let sp = sparsify(&g, 5);
    let removed_frac = sp.edges_removed as f64 / g.m() as f64;
    assert!(removed_frac > 0.3, "only {removed_frac:.2} of edges removed");
    // And the answers survive (spot check): the service's GCT answer on
    // the full graph is the online scan's on the sparsified one.
    let spec = QuerySpec::new(5, 10).expect("valid spec");
    let full = SearchService::new(g);
    let sparse = build_engine(EngineKind::Online, Arc::new(sp.graph));
    assert_eq!(
        full.top_r(&spec.with_engine(EngineKind::Gct)).expect("query").scores(),
        sparse.top_r(&spec).expect("query").scores()
    );
}
