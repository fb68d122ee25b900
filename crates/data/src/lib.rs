//! # fedda-data
//!
//! Synthetic heterograph datasets and federated partitioners for the FedDA
//! reproduction.
//!
//! The paper evaluates on the Amazon (GATNE electronics subset) and DBLP
//! (HNE ICDE subgraph) heterographs, which are not available offline. This
//! crate substitutes latent-factor synthetic graphs with the *same schemas*
//! and scalable sizes (see `DESIGN.md` §1 for the substitution argument):
//!
//! * [`latent`] — the generator: community-structured latents, per-edge-type
//!   affinity modulation, noisy projected features; link prediction on the
//!   result is learnable, which is what the FedDA-vs-FedAvg comparisons
//!   need;
//! * [`datasets`] — [`datasets::amazon_like`] and [`datasets::dblp_like`]
//!   presets (Table 1 schemas, paper-proportioned edge mixes);
//! * [`partition`] — the paper's §6.1 system synthesis: non-IID clients
//!   specialised in random edge-type subsets (`r_a = 0.3`, `r_b = 0.05`),
//!   plus IID and disjoint variants and a non-IIDness measure;
//! * [`stats`] — Table 1 statistics.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Determinism & safety invariants D3 / D4 (DESIGN.md §6), run by `cargo lint`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod datasets;
pub mod latent;
pub mod partition;
pub mod stats;

pub use datasets::{amazon_like, dblp_like, PresetOptions};
pub use latent::{generate, GeneratedGraph, LatentGraphConfig};
pub use partition::{
    client_seeds, non_iidness, partition_disjoint, partition_iid, partition_non_iid, ClientData,
    PartitionConfig,
};
pub use stats::DatasetStats;
