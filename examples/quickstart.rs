//! Quickstart: build a tiny federation over a synthetic heterograph and
//! compare FedAvg against both FedDA strategies in under a minute.
//!
//! Run with: `cargo run -p fedda --release --example quickstart`

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::float_cmp
)]

use fedda::experiment::{Dataset, Experiment, ExperimentConfig, Framework};
use fedda::fl::{FedAvg, FedDa};

fn main() -> Result<(), String> {
    // A small Amazon-like heterograph (one node type, co-view +
    // co-purchase links), split 8 ways with the paper's non-IID protocol.
    let cfg = ExperimentConfig {
        dataset: Dataset::AmazonLike,
        scale: 0.006,
        num_clients: 8,
        rounds: 10,
        runs: 1,
        ..Default::default()
    };
    println!(
        "Federating Simple-HGN link prediction over an {}-like heterograph",
        cfg.dataset.name()
    );
    let exp = Experiment::new(cfg);
    println!(
        "global graph: {} nodes, {} train edges / {} test edges\n",
        exp.split().train.num_nodes(),
        exp.split().train.num_edges(),
        exp.split().test.num_edges()
    );

    for fw in [
        Framework::FedAvg(FedAvg::vanilla()),
        Framework::FedDa(FedDa::restart()),
        Framework::FedDa(FedDa::explore()),
    ] {
        let res = exp.run_framework(&fw, None)?;
        println!(
            "{:<20} final AUC {:.4}  best AUC {:.4}  MRR {:.4}  uplink units {:>7.0}",
            res.name,
            res.final_auc().mean,
            res.best_auc().mean,
            res.final_mrr().mean,
            res.uplink_units().mean
        );
    }
    println!("\nFedDA matches (or beats) FedAvg accuracy while uploading fewer parameters.");
    Ok(())
}
