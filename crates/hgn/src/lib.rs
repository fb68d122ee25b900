//! # fedda-hgn
//!
//! Simple-HGN (Lv et al., KDD 2021) and its GAT ablation, implemented from
//! scratch on the `fedda-tensor` autodiff tape — the heterogeneous graph
//! neural network the FedDA paper federates.
//!
//! * [`HgnConfig`] / [`Decoder`] — architecture hyper-parameters, including
//!   the paper's 3-layer / 3-head default and a GAT ablation switch;
//! * [`GraphView`] — precomputed, tape-ready message-passing arrays for one
//!   heterograph;
//! * [`SimpleHgn`] — the encoder (edge-type-aware attention, pre-activation
//!   residuals, L2-normalised outputs) and decoders (dot product /
//!   DistMult), with edge-type embeddings and relation vectors registered
//!   as *disentangled* parameter units for FedDA's masking;
//! * [`train_local`] / [`evaluate`] — the `ClientUpdate` loop of
//!   Algorithm 1 and the ROC-AUC / MRR evaluation protocol, both in a
//!   [`Workspace`]: one worker's tape, gradients and optimiser moments,
//!   kept from call to call.

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

mod config;
mod model;
mod predictor;
mod trainer;
mod view;

pub use config::{Decoder, HgnConfig};
pub use model::SimpleHgn;
pub use predictor::LinkPredictor;
pub use trainer::{
    auc_by_edge_type, evaluate, train_local, EvalResult, Penalty, TrainConfig, TrainStats,
    Workspace,
};
pub use view::GraphView;
