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
//! plus the [`experiment`] drivers behind every table and figure: an
//! experiment cell hands back one framework's runs
//! ([`experiment::FrameworkResult`]) and every summary is a fold over them.
//! The `fedda` command (`crates/bench`) renders them as tables, charts and
//! JSON (see `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! measured results).
//!
//! ## Quickstart
//!
//! ```
//! use fedda::experiment::{Dataset, Experiment, ExperimentConfig, Framework};
//! use fedda::fl::{run, FedAvg, FedDa, RuntimeMode};
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
//! assert!(fedda.uplink_units().mean <= fedavg.uplink_units().mean);
//! // One protocol value on one federation, through the engine's one entry:
//! let mut system = exp.system_for_run(0);
//! let result = run(&RuntimeMode::Sync, &mut FedDa::explore(), &mut system, None)?;
//! assert_eq!(result.curve.len(), 2);
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod experiment;

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
