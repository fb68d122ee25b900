//! End-to-end pipeline integration: dataset generation → splitting →
//! partitioning → federated training → evaluation, across crate
//! boundaries.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use fedda::data::{
    dblp_like, non_iidness, partition_iid, partition_non_iid, PartitionConfig, PresetOptions,
};
use fedda::fl::{AggWeighting, FedAvg, FlConfig, FlSystem};
use fedda::hetgraph::split::split_edges;
use fedda::hgn::{HgnConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_model() -> HgnConfig {
    HgnConfig {
        hidden_dim: 4,
        num_layers: 1,
        num_heads: 2,
        edge_emb_dim: 4,
        ..Default::default()
    }
}

fn quick_train() -> TrainConfig {
    TrainConfig {
        local_epochs: 1,
        lr: 5e-3,
        ..Default::default()
    }
}

#[test]
fn full_pipeline_runs_and_improves_over_initialization() {
    let generated = dblp_like(&PresetOptions {
        scale: 0.002,
        seed: 1,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(2);
    let split = split_edges(&generated.graph, 0.15, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(4, 5, 3);
    let clients = partition_non_iid(&split.train, &pcfg);
    assert!(non_iidness(&clients) > 0.0);

    let cfg = FlConfig {
        rounds: 6,
        model: small_model(),
        train: quick_train(),
        eval_negatives: 5,
        eval_every: 1,
        seed: 4,
        parallel: true,
        workers: None,
        compression: None,
        privacy: None,
        weighting: AggWeighting::Uniform,
        faults: None,
    };
    let mut system = FlSystem::new(&split.train, &split.test, clients, cfg);
    let initial = system.evaluate_global(999);
    let result = FedAvg::vanilla().run(&mut system);
    assert_eq!(result.curve.len(), 6);
    assert!(
        result.best_auc() > initial.roc_auc,
        "federated training must beat the random initialisation ({:.3} vs {:.3})",
        result.best_auc(),
        initial.roc_auc
    );
    // Comm accounting is exact for vanilla FedAvg.
    assert_eq!(result.comm.total_uplink_units(), 6 * 4 * system.num_units());
}

#[test]
fn iid_and_non_iid_partitions_flow_through_the_system() {
    let generated = dblp_like(&PresetOptions {
        scale: 0.002,
        seed: 5,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(6);
    let split = split_edges(&generated.graph, 0.15, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(4, 5, 7);
    let biased = partition_non_iid(&split.train, &pcfg);
    let uniform = partition_iid(&split.train, &pcfg);
    assert!(non_iidness(&biased) > non_iidness(&uniform));

    // Both partitions must train without issue.
    for clients in [biased, uniform] {
        let cfg = FlConfig {
            rounds: 2,
            model: small_model(),
            train: quick_train(),
            eval_negatives: 3,
            eval_every: 1,
            seed: 8,
            parallel: false,
            workers: None,
            compression: None,
            privacy: None,
            weighting: AggWeighting::Uniform,
            faults: None,
        };
        let mut system = FlSystem::new(&split.train, &split.test, clients, cfg);
        let result = FedAvg::vanilla().run(&mut system);
        assert!(result.final_eval.roc_auc.is_finite());
        assert!(result.final_eval.roc_auc > 0.0);
    }
}

#[test]
fn global_model_parameters_stay_finite_across_rounds() {
    let generated = dblp_like(&PresetOptions {
        scale: 0.002,
        seed: 9,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(10);
    let split = split_edges(&generated.graph, 0.15, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(3, 5, 11);
    let clients = partition_non_iid(&split.train, &pcfg);
    let cfg = FlConfig {
        rounds: 4,
        model: small_model(),
        train: quick_train(),
        eval_negatives: 3,
        eval_every: 1,
        seed: 12,
        parallel: true,
        workers: None,
        compression: None,
        privacy: None,
        weighting: AggWeighting::Uniform,
        faults: None,
    };
    let mut system = FlSystem::new(&split.train, &split.test, clients, cfg);
    let _ = FedAvg::vanilla().run(&mut system);
    assert!(
        !system.global.has_non_finite(),
        "NaN/inf leaked into the global model"
    );
}
