//! Citation-network federation — the paper's DBLP scenario: regional
//! research communities each hold a biased slice of a bibliographic
//! heterograph (authors / phrases / years, five link types) and jointly
//! train a link predictor for tasks like collaborator or topic
//! recommendation.
//!
//! This example drills into FedDA's *dynamic activation* behaviour: it
//! prints the per-round active-client counts and per-client uplink so you
//! can watch deactivation and the Explore reactivation at work.
//!
//! Run with: `cargo run -p fedda --release --example citation_fl`

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::float_cmp
)]

use fedda::data::{dblp_like, partition_non_iid, PartitionConfig, PresetOptions};
use fedda::fl::{run, FedAvg, FedDa, FlConfig, FlSystem, RuntimeMode};
use fedda::hetgraph::split::split_edges;
use fedda::hgn::{HgnConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), String> {
    let generated = dblp_like(&PresetOptions {
        scale: 0.002,
        seed: 5,
    });
    let graph = generated.graph;
    println!(
        "bibliographic heterograph: {} nodes ({} types), {} links ({} types)",
        graph.num_nodes(),
        graph.schema().num_node_types(),
        graph.num_edges(),
        graph.schema().num_edge_types()
    );

    let mut rng = StdRng::seed_from_u64(0);
    let split = split_edges(&graph, 0.15, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(8, graph.schema().num_edge_types(), 3);
    let communities = partition_non_iid(&split.train, &pcfg);

    let fl_cfg = FlConfig {
        rounds: 12,
        model: HgnConfig {
            hidden_dim: 8,
            num_layers: 2,
            num_heads: 2,
            ..Default::default()
        },
        train: TrainConfig {
            local_epochs: 2,
            lr: 5e-3,
            ..Default::default()
        },
        eval_negatives: 5,
        seed: 9,
        parallel: true,
        ..Default::default()
    };

    // Vanilla FedAvg as the reference bill.
    let mut system = FlSystem::new(
        &split.train,
        &split.test,
        communities.clone(),
        fl_cfg.clone(),
    );
    let n_units = system.num_units();
    let fedavg = run(
        &RuntimeMode::Sync,
        &mut FedAvg::vanilla(),
        &mut system,
        None,
    )?;
    println!(
        "\nFedAvg:       final AUC {:.4}, uplink {} units ({} clients x {} rounds x {} units)",
        fedavg.final_eval.roc_auc,
        fedavg.comm.total_uplink_units(),
        8,
        fl_cfg.rounds,
        n_units
    );

    // FedDA (Explore): watch the activation dynamics round by round.
    let mut system = FlSystem::new(&split.train, &split.test, communities, fl_cfg.clone());
    let fedda = run(&RuntimeMode::Sync, &mut FedDa::explore(), &mut system, None)?;
    println!(
        "FedDA-Explore: final AUC {:.4}, uplink {} units\n",
        fedda.final_eval.roc_auc,
        fedda.comm.total_uplink_units()
    );

    println!("round  active  uplink-units  units/client  test-AUC");
    for (rc, eval) in fedda.comm.rounds().iter().zip(&fedda.curve) {
        println!(
            "{:>5}  {:>6}  {:>12}  {:>12.1}  {:.4}",
            eval.round,
            rc.active_clients,
            rc.uplink_units,
            rc.uplink_units as f64 / rc.active_clients.max(1) as f64,
            eval.roc_auc
        );
    }
    let saved = 1.0
        - fedda.comm.total_uplink_units() as f64 / fedavg.comm.total_uplink_units().max(1) as f64;
    println!(
        "\nFedDA transmitted {:.0}% fewer parameter units than FedAvg.",
        saved * 100.0
    );
    Ok(())
}
