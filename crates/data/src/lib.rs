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
//! * [`amazon_like`] and [`dblp_like`] — dataset
//!   presets (Table 1 schemas, paper-proportioned edge mixes);
//! * [`partition_non_iid`] — the paper's §6.1 system synthesis: non-IID clients
//!   specialised in random edge-type subsets (`r_a = 0.3`, `r_b = 0.05`),
//!   plus an IID variant and a non-IIDness measure;
//! * [`DatasetStats`] — Table 1 statistics.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]
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

mod datasets;
pub mod latent;
mod partition;
mod stats;

pub use datasets::{amazon_like, dblp_like, PresetOptions};
pub use latent::{generate, GeneratedGraph, LatentGraphConfig};
pub use partition::{
    client_seeds, non_iidness, partition_iid, partition_non_iid, ClientData, PartitionConfig,
    CLIENT_SEEDS_STREAM_TWEAK,
};
pub use stats::DatasetStats;
