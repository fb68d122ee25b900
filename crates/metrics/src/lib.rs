//! # fedda-metrics
//!
//! Evaluation metrics for federated link prediction on heterographs:
//!
//! * [`roc_auc`] — exact, tie-aware ROC-AUC (Mann–Whitney formulation);
//! * [`mrr`] / [`RankQuery`] — Mean Reciprocal Rank against sampled
//!   negatives;
//! * [`GroupedMetric`] — per-edge-type breakdowns with fairness gaps;
//! * [`MeanStd`] — mean ± std aggregation over repeated runs (Table 2).

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

mod auc;
mod mrr;
mod ranking;
mod stats;

pub use auc::roc_auc;
pub use mrr::{mrr, mrr_of_groups, RankQuery};
pub use ranking::GroupedMetric;
pub use stats::MeanStd;
