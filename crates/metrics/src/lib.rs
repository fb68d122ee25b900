//! # fedda-metrics
//!
//! Evaluation metrics for federated link prediction on heterographs:
//!
//! * [`roc_auc`] — exact, tie-aware ROC-AUC (Mann–Whitney formulation);
//! * [`mrr`] / [`RankQuery`] — Mean Reciprocal Rank against sampled
//!   negatives;
//! * [`hits_at_k`] / [`average_precision`] — additional ranking metrics;
//! * [`GroupedMetric`] — per-edge-type breakdowns with fairness gaps;
//! * [`MeanStd`] — mean ± std aggregation over repeated runs (Table 2);
//! * [`CurveRecorder`] — per-round curves with best/worst envelopes
//!   (Figures 2 and 5) and rounds-to-threshold queries (RQ3).

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

mod auc;
mod mrr;
mod ranking;
mod stats;

pub use auc::roc_auc;
pub use mrr::{mrr, RankQuery};
pub use ranking::{average_precision, hits_at_k, GroupedMetric};
pub use stats::{CurveRecorder, MeanStd};
