//! # fedda
//!
//! A from-scratch Rust reproduction of **"Dynamic Activation of Clients and
//! Parameters for Federated Learning over Heterogeneous Graphs"** (FedDA).
//!
//! The paper federates Simple-HGN link prediction across clients holding
//! non-IID sub-heterographs and shows that *dynamically* activating clients
//! and parameter subsets — rather than averaging everything everywhere —
//! improves both the final global model and the communication bill. This
//! crate is the facade over the whole reproduction:
//!
//! | piece | crate |
//! |---|---|
//! | dense tensors + autodiff | [`tensor`] (`fedda-tensor`) |
//! | heterograph storage & sampling | [`hetgraph`] (`fedda-hetgraph`) |
//! | synthetic datasets + partitioners | [`data`] (`fedda-data`) |
//! | Simple-HGN encoder/decoders | [`hgn`] (`fedda-hgn`) |
//! | ROC-AUC / MRR / run aggregation | [`metrics`] (`fedda-metrics`) |
//! | FedAvg, FedDA, baselines, comm model | [`fl`] (`fedda-fl`) |
//!
//! plus the [`experiment`] drivers and [`table`]/[`report`] rendering used
//! by the benchmark binaries that regenerate every table and figure (see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for measured
//! results).
//!
//! ## Quickstart
//!
//! ```
//! use fedda::experiment::{Dataset, Experiment, ExperimentConfig, Framework};
//! use fedda::fl::{FedAvg, FedDa};
//!
//! let cfg = ExperimentConfig {
//!     dataset: Dataset::AmazonLike,
//!     scale: 0.002,           // tiny graph so the doctest is fast
//!     num_clients: 4,
//!     rounds: 2,
//!     runs: 1,
//!     ..Default::default()
//! };
//! let exp = Experiment::new(cfg);
//! // `None`: no event sink. An invalid configuration comes back as `Err`.
//! let fedavg = exp.run_framework(&Framework::FedAvg(FedAvg::vanilla()), None)?;
//! let fedda = exp.run_framework(&Framework::FedDa(FedDa::explore()), None)?;
//! // FedDA never uploads more than FedAvg:
//! assert!(fedda.uplink_units.mean <= fedavg.uplink_units.mean);
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiment;
pub mod plot;
pub mod report;
pub mod table;

/// Re-export of `fedda-tensor`.
pub use fedda_tensor as tensor;

/// Re-export of `fedda-hetgraph`.
pub use fedda_hetgraph as hetgraph;

/// Re-export of `fedda-data`.
pub use fedda_data as data;

/// Re-export of `fedda-hgn`.
pub use fedda_hgn as hgn;

/// Re-export of `fedda-metrics`.
pub use fedda_metrics as metrics;

/// Re-export of `fedda-fl`.
pub use fedda_fl as fl;
