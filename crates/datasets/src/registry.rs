//! Named synthetic datasets mirroring the paper's Table 1.
//!
//! Each entry records the *paper's* statistics (`experiments table1` prints
//! them beside the generated graph's) next to our scaled generation
//! targets. Graphs small enough for a laptop (Wiki-Vote … Gowalla) keep
//! their original `(n, m)`; NotreDame, LiveJournal, socfb-konect and Orkut
//! are scaled down 4–100× while preserving their density ratio `m/n`, which
//! keeps the average degree, and with it the typical ego-network size, of
//! the original.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use sd_graph::CsrGraph;

use crate::collab::{collab_graph, CollabConfig};
use crate::community::{community_graph, CommunityConfig};

/// Statistics the paper reports in Table 1 (for side-by-side comparison).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PaperStats {
    /// `|V|` in the paper.
    pub n: u64,
    /// `|E|` in the paper.
    pub m: u64,
    /// `d_max` in the paper.
    pub d_max: u32,
    /// `τ*_G` in the paper.
    pub tau_g: u32,
    /// `τ*_ego` in the paper.
    pub tau_ego: u32,
    /// Triangle count `T` in the paper.
    pub triangles: u64,
}

/// Generator family of a dataset.
#[derive(Clone, Copy, Debug)]
enum Family {
    /// Affiliation graph with overlapping communities — the default
    /// social-network stand-in (gives the paper's diversity-score spread).
    Community {
        /// Mean community memberships per vertex.
        membership_mean: f64,
        /// Mean community size.
        community_size: usize,
    },
    /// Planted collaboration network (DBLP stand-in).
    Collab,
}

/// A named synthetic dataset.
#[derive(Clone, Copy, Debug)]
pub struct Dataset {
    /// Registry name (paper dataset it stands in for, suffixed `-syn`).
    pub name: &'static str,
    /// The paper's Table 1 row.
    pub paper: PaperStats,
    /// Our scale-1.0 vertex target.
    pub base_n: usize,
    /// Our scale-1.0 edge target.
    pub base_m: usize,
    /// Fixed seed: datasets are reproducible bit-for-bit.
    pub seed: u64,
    family: Family,
}

impl Dataset {
    /// Generates the graph at `scale` (1.0 = the registry targets; smaller
    /// values shrink `n` and `m` proportionally for quick runs).
    pub fn generate(&self, scale: f64) -> CsrGraph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((self.base_n as f64 * scale) as usize).max(64);
        let m = ((self.base_m as f64 * scale) as usize).max(128);
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.family {
            Family::Community { membership_mean, community_size } => {
                let cfg = CommunityConfig {
                    membership_mean,
                    community_size,
                    ..CommunityConfig::social(n, m)
                };
                community_graph(&cfg, &mut rng)
            }
            Family::Collab => {
                // Scale the number of hubs and background proportionally.
                let base = CollabConfig::default();
                let factor = (n as f64 / base.total_vertices() as f64).max(0.05);
                let cfg = CollabConfig {
                    hubs: ((base.hubs as f64 * factor) as usize).max(3),
                    background_authors: ((base.background_authors as f64 * factor) as usize)
                        .max(50),
                    background_edges: ((base.background_edges as f64 * factor) as usize).max(100),
                    ..base
                };
                collab_graph(&cfg, &mut rng)
            }
        }
    }
}

/// The eight Table 1 stand-ins, in the paper's order.
pub fn registry() -> Vec<Dataset> {
    vec![
        Dataset {
            name: "wiki-vote-syn",
            paper: stats(7_000, 103_000, 1_065, 23, 22, 608_389),
            base_n: 7_000,
            base_m: 103_000,
            seed: 0x5731,
            family: Family::Community { membership_mean: 2.0, community_size: 25 },
        },
        Dataset {
            name: "email-enron-syn",
            paper: stats(36_000, 183_000, 1_383, 22, 21, 727_044),
            base_n: 36_000,
            base_m: 183_000,
            seed: 0x454e,
            family: Family::Community { membership_mean: 1.5, community_size: 12 },
        },
        Dataset {
            name: "epinions-syn",
            paper: stats(75_000, 508_000, 3_044, 33, 32, 1_624_481),
            base_n: 75_000,
            base_m: 508_000,
            seed: 0x4550,
            family: Family::Community { membership_mean: 1.6, community_size: 14 },
        },
        Dataset {
            name: "gowalla-syn",
            paper: stats(196_000, 950_000, 14_730, 29, 28, 2_273_138),
            base_n: 196_000,
            base_m: 950_000,
            seed: 0x474f,
            family: Family::Community { membership_mean: 1.5, community_size: 12 },
        },
        Dataset {
            name: "notredame-syn",
            paper: stats(325_000, 1_400_000, 10_721, 155, 154, 8_910_005),
            // 4x scale-down.
            base_n: 81_000,
            base_m: 350_000,
            seed: 0x4e44,
            family: Family::Community { membership_mean: 1.4, community_size: 20 },
        },
        Dataset {
            name: "livejournal-syn",
            paper: stats(4_000_000, 34_700_000, 14_815, 352, 351, 177_820_130),
            // 20x scale-down.
            base_n: 200_000,
            base_m: 1_735_000,
            seed: 0x4c4a,
            family: Family::Community { membership_mean: 1.7, community_size: 16 },
        },
        Dataset {
            name: "socfb-konect-syn",
            paper: stats(59_000_000, 92_500_000, 4_960, 7, 6, 6_378_280),
            // 100x scale-down; very sparse, tiny trussness like the original.
            base_n: 590_000,
            base_m: 925_000,
            seed: 0x464b,
            family: Family::Community { membership_mean: 1.2, community_size: 8 },
        },
        Dataset {
            name: "orkut-syn",
            paper: stats(3_100_000, 117_000_000, 33_313, 73, 72, 412_002_900),
            // 40x scale-down, density preserved (m/n ≈ 38).
            base_n: 77_000,
            base_m: 2_900_000,
            seed: 0x4f52,
            family: Family::Community { membership_mean: 2.5, community_size: 45 },
        },
    ]
}

/// The DBLP collaboration-network stand-in (Section 7.3 case study).
pub fn dblp_like() -> Dataset {
    Dataset {
        name: "dblp-syn",
        paper: stats(234_879, 542_814, 0, 0, 0, 0),
        base_n: 25_000,
        base_m: 85_000,
        seed: 0x4442,
        family: Family::Collab,
    }
}

/// Looks a dataset up by name (including `dblp-syn`).
pub fn dataset(name: &str) -> Option<Dataset> {
    registry().into_iter().chain([dblp_like()]).find(|d| d.name == name)
}

fn stats(n: u64, m: u64, d_max: u32, tau_g: u32, tau_ego: u32, triangles: u64) -> PaperStats {
    PaperStats { n, m, d_max, tau_g, tau_ego, triangles }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_eight_table1_rows() {
        assert_eq!(registry().len(), 8);
    }

    #[test]
    fn lookup_by_name() {
        assert!(dataset("wiki-vote-syn").is_some());
        assert!(dataset("dblp-syn").is_some());
        assert!(dataset("nope").is_none());
    }

    #[test]
    fn tiny_scale_generates_quickly_and_reproducibly() {
        for d in registry() {
            let g1 = d.generate(0.01);
            let g2 = d.generate(0.01);
            assert!(g1.m() >= 128, "{}: m = {}", d.name, g1.m());
            assert_eq!(g1.edges(), g2.edges(), "{} must be reproducible", d.name);
        }
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn rejects_zero_scale() {
        registry()[0].generate(0.0);
    }
}
