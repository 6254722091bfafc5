//! # sd-datasets — synthetic dataset generators and registry
//!
//! The paper evaluates on eight SNAP / network-repository graphs plus a DBLP
//! collaboration network and PythonWeb power-law graphs. None of those can be
//! downloaded here, so this crate generates synthetic stand-ins whose shape
//! (heavy-tailed degrees, triangle density, size ratios) matches the paper's
//! Table 1 — scaled to laptop size where the originals are huge, keeping
//! their density `m/n` ([`mod@registry`] lists each target beside the
//! paper's statistics).
//!
//! * [`powerlaw`] — Holme–Kim preferential attachment with triad formation
//!   (power-law degrees *and* high clustering; the Figure 12 scalability
//!   series uses it with `|E| = 5|V|`, exactly like the paper).
//! * [`rmat`] — R-MAT recursive-quadrant generator (the SNAP stand-ins).
//! * [`gnm`] — uniform G(n, m) (a low-clustering control).
//! * [`collab`] — planted research-group collaboration network (the DBLP
//!   case-study stand-in: overlapping near-cliques glued by hub authors).
//! * [`mod@registry`] — named datasets mirroring Table 1.

pub mod collab;
pub mod community;
pub mod gnm;
pub mod powerlaw;
pub mod registry;
pub mod rmat;

pub use collab::{collab_graph, CollabConfig};
pub use community::{community_graph, CommunityConfig};
pub use gnm::gnm_graph;
pub use powerlaw::{powerlaw_graph, PowerLawConfig};
pub use registry::{dataset, dblp_like, registry, Dataset, PaperStats};
pub use rmat::{rmat_graph, RmatConfig};
