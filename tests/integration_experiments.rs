//! Integration tests of the experiment drivers that power the table/figure
//! binaries — the harness itself must be trustworthy before its outputs
//! are.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use fedda::experiment::{Dataset, Experiment, ExperimentConfig, Framework};
use fedda::fl::{analysis, run, FedAvg, FedDa, RuntimeMode};
use fedda::hgn::{HgnConfig, TrainConfig};

fn quick(dataset: Dataset, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        dataset,
        scale: 0.002,
        num_clients: 4,
        rounds: 3,
        runs: 2,
        model: HgnConfig {
            hidden_dim: 4,
            num_layers: 1,
            num_heads: 1,
            edge_emb_dim: 4,
            ..Default::default()
        },
        train: TrainConfig {
            local_epochs: 1,
            lr: 5e-3,
            ..Default::default()
        },
        eval_negatives: 3,
        eval_every: 1,
        seed,
        workers: None,
        compression: None,
        runtime: Default::default(),
        iid: false,
        weighting: Default::default(),
        privacy: None,
        faults: None,
    }
}

#[test]
fn table2_style_grid_produces_complete_rows() {
    let exp = Experiment::new(quick(Dataset::AmazonLike, 1));
    let frameworks = [
        Framework::Global,
        Framework::Local,
        Framework::FedAvg(FedAvg::vanilla()),
        Framework::FedDa(FedDa::restart()),
        Framework::FedDa(FedDa::explore()),
    ];
    let mut names = Vec::new();
    for fw in &frameworks {
        let res = exp.run_framework(fw, None).unwrap();
        assert_eq!(
            res.final_auc().n,
            2,
            "{} did not aggregate 2 runs",
            res.name
        );
        assert!(res.final_auc().mean.is_finite());
        assert!(res.final_mrr().mean > 0.0);
        names.push(res.name);
    }
    assert_eq!(
        names,
        [
            "Global",
            "Local",
            "FedAvg",
            "FedDA 1 (Restart)",
            "FedDA 2 (Explore)"
        ]
    );
}

#[test]
fn fig5_style_curves_are_complete_and_bounded() {
    let exp = Experiment::new(quick(Dataset::DblpLike, 2));
    let res = exp
        .run_framework(&Framework::FedDa(FedDa::explore()), None)
        .unwrap();
    assert_eq!(res.runs.len(), 2);
    let mean = res.auc_mean_curve();
    let max = res.auc_max_curve();
    let min = res.auc_min_curve();
    assert_eq!((mean.len(), max.len(), min.len()), (3, 3, 3));
    for t in 0..3 {
        assert!(min[t] <= mean[t] + 1e-12 && mean[t] <= max[t] + 1e-12);
        assert!((0.0..=1.0).contains(&mean[t]));
    }
}

#[test]
fn efficiency_model_is_consistent_with_a_simulated_run() {
    let exp = Experiment::new(quick(Dataset::DblpLike, 3));
    let system = exp.system_for_run(0);
    let (m, n, n_d) = (
        system.num_clients(),
        system.num_units(),
        system.num_disentangled_units(),
    );
    assert!(n_d > 0 && n_d < n);
    let inputs = analysis::EfficiencyInputs {
        m,
        n,
        n_d,
        r_c: 0.9,
        r_p: 0.3,
    };
    // The analytic FedAvg-relative ratios must be proper savings.
    assert!(analysis::restart_ratio(&inputs, 0.4) <= 1.0 + 1e-9);
    assert!(analysis::explore_ratio_bound(&inputs, 0.667) < 1.0);
}

#[test]
fn detailed_global_evaluation_covers_every_edge_type() {
    let exp = Experiment::new(quick(Dataset::DblpLike, 6));
    let mut system = exp.system_for_run(0);
    let _ = run(&RuntimeMode::Sync, &mut FedDa::explore(), &mut system, None).unwrap();
    let by_type = system.auc_by_edge_type(99);
    assert_eq!(by_type.groups.len(), 5, "DBLP has 5 edge types");
    let test = &exp.split().test;
    let supports: Vec<usize> = by_type.groups.iter().map(|&(_, _, n)| n).collect();
    assert_eq!(supports, test.edge_counts());
    assert_eq!(supports.iter().sum::<usize>(), test.num_edges());
    assert!(by_type.gap() >= 0.0);
}

#[test]
fn same_experiment_seed_reproduces_entire_framework_result() {
    let r1 = Experiment::new(quick(Dataset::DblpLike, 5))
        .run_framework(&Framework::FedDa(FedDa::explore()), None)
        .unwrap();
    let r2 = Experiment::new(quick(Dataset::DblpLike, 5))
        .run_framework(&Framework::FedDa(FedDa::explore()), None)
        .unwrap();
    assert_eq!(r1.final_auc().mean, r2.final_auc().mean);
    assert_eq!(r1.uplink_units().mean, r2.uplink_units().mean);
    assert_eq!(r1.auc_mean_curve(), r2.auc_mean_curve());
}
