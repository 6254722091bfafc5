//! One function per table/figure of the paper's evaluation (Section 7).
//!
//! Every function prints the same rows/series the paper reports, on the
//! synthetic stand-in datasets (see `sd-datasets`, whose registry lists
//! each stand-in's target beside the paper's Table 1 statistics).

pub mod effectiveness;
pub mod efficiency;

use sd_datasets::Dataset;
use sd_graph::CsrGraph;

/// Shared experiment context.
#[derive(Clone, Debug)]
pub struct ExpContext {
    /// Dataset scale in `(0, 1]`; 1.0 = the registry targets.
    pub scale: f64,
    /// Monte-Carlo cascade samples (paper: 10,000; default 2,000).
    pub mc_samples: usize,
    /// IC arc probability for the contagion experiments. The paper uses
    /// 0.01 on multi-million-vertex graphs; on our scaled-down stand-ins the
    /// default 0.03 preserves the *reach* of a 50-seed cascade.
    pub ic_p: f64,
    /// Seed for the effectiveness experiments' randomness.
    pub seed: u64,
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext { scale: 0.25, mc_samples: 2_000, ic_p: 0.03, seed: 0xD1CE }
    }
}

impl ExpContext {
    /// Generates a dataset at this context's scale, logging its real size.
    pub fn load(&self, dataset: &Dataset) -> CsrGraph {
        let g = dataset.generate(self.scale);
        eprintln!("[gen] {} @ scale {}: n={} m={}", dataset.name, self.scale, g.n(), g.m());
        g
    }

    /// The three datasets the paper uses for its per-k/per-r figures
    /// (Gowalla, LiveJournal, Orkut).
    pub fn figure_datasets(&self) -> Vec<Dataset> {
        ["gowalla-syn", "livejournal-syn", "orkut-syn"]
            .iter()
            .map(|n| sd_datasets::dataset(n).expect("registry dataset"))
            .collect()
    }
}

/// All experiment names accepted by the `experiments` binary.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig3",
    "table2",
    "fig8",
    "fig9",
    "fig10",
    "table3",
    "table4",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "table5",
    "case-study",
    "fig18",
];

/// Dispatches one experiment by name. Returns false for unknown names.
pub fn run(name: &str, ctx: &ExpContext) -> bool {
    match name {
        "table1" => efficiency::table1(ctx),
        "fig3" => efficiency::fig3(ctx),
        "table2" => efficiency::table2(ctx),
        "fig8" => efficiency::fig8(ctx),
        "fig9" => efficiency::fig9(ctx),
        "fig10" => efficiency::fig10(ctx),
        "table3" => efficiency::table3(ctx),
        "table4" => efficiency::table4(ctx),
        "fig11" => efficiency::fig11(ctx),
        "fig12" => efficiency::fig12(ctx),
        "fig13" => effectiveness::fig13(ctx),
        "fig14" => effectiveness::fig14(ctx),
        "fig15" => effectiveness::fig15(ctx),
        "table5" => effectiveness::table5(ctx),
        "case-study" => effectiveness::case_study(ctx),
        "fig18" => efficiency::fig18(ctx),
        // Not part of EXPERIMENTS (so `all` skips them): the CI perf-smoke
        // datapoint (writes the committed baseline as a side effect) and the
        // trend gate comparing a fresh measurement against the committed
        // one. CI runs `bench-compare` first — `bench-json` overwrites the
        // baseline it compares against.
        "bench-json" => efficiency::bench_json(ctx),
        "bench-compare" => efficiency::bench_compare(ctx),
        "all" => {
            for e in EXPERIMENTS {
                println!("\n################ {e} ################");
                run(e, ctx);
            }
        }
        _ => return false,
    }
    true
}
