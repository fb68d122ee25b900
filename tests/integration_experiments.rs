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
use fedda::fl::{analysis, FedAvg, FedDa};
use fedda::hgn::{HgnConfig, TrainConfig};
use fedda::report;
use fedda::table::TextTable;
use serde_json::json;

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
        parallel: true,
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
    let mut table = TextTable::new(&["Framework", "ROC-AUC", "MRR"]);
    for fw in &frameworks {
        let res = exp.run_framework(fw, None).unwrap();
        assert_eq!(res.final_auc.n, 2, "{} did not aggregate 2 runs", res.name);
        assert!(res.final_auc.mean.is_finite());
        assert!(res.final_mrr.mean > 0.0);
        table.row(&[
            res.name.clone(),
            res.final_auc.fmt_pm(),
            res.final_mrr.fmt_pm(),
        ]);
    }
    let rendered = table.render();
    assert!(rendered.contains("FedDA 1 (Restart)"));
    assert!(rendered.contains("FedDA 2 (Explore)"));
    assert_eq!(rendered.lines().count(), 2 + 5);
}

#[test]
fn fig5_style_curves_are_complete_and_bounded() {
    let exp = Experiment::new(quick(Dataset::DblpLike, 2));
    let res = exp
        .run_framework(&Framework::FedDa(FedDa::explore()), None)
        .unwrap();
    assert_eq!(res.auc_curves.num_runs(), 2);
    assert_eq!(res.auc_curves.num_rounds(), 3);
    let mean = res.auc_curves.mean_curve();
    let max = res.auc_curves.max_curve();
    let min = res.auc_curves.min_curve();
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
fn reports_serialize_experiment_results() {
    let exp = Experiment::new(quick(Dataset::AmazonLike, 4));
    let res = exp
        .run_framework(&Framework::FedAvg(FedAvg::vanilla()), None)
        .unwrap();
    let value = report::experiment_to_json("itest", json!({"seed": 4}), &[res]);
    assert_eq!(value["experiment"], "itest");
    let curve = value["results"][0]["auc_mean_curve"].as_array().unwrap();
    assert_eq!(curve.len(), 3);
    // write + re-read round trip
    let dir = std::env::temp_dir().join("fedda_itest");
    let path = dir.join("report.json");
    report::write_json(&path, &value).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(parsed["experiment"], "itest");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn detailed_global_evaluation_covers_every_edge_type() {
    let exp = Experiment::new(quick(Dataset::DblpLike, 6));
    let mut system = exp.system_for_run(0);
    let _ = FedDa::explore().run(&mut system);
    let detail = system.evaluate_global_detailed(99);
    assert_eq!(
        detail.auc_by_edge_type.groups.len(),
        5,
        "DBLP has 5 edge types"
    );
    let support: usize = detail
        .auc_by_edge_type
        .groups
        .iter()
        .map(|(_, _, n)| n)
        .sum();
    assert_eq!(support, detail.overall.num_positives);
    assert!(detail.auc_by_edge_type.gap() >= 0.0);
    assert!(detail.hits_at_1 <= detail.hits_at_3 + 1e-12);
    assert!((0.0..=1.0).contains(&detail.average_precision));
}

#[test]
fn same_experiment_seed_reproduces_entire_framework_result() {
    let r1 = Experiment::new(quick(Dataset::DblpLike, 5))
        .run_framework(&Framework::FedDa(FedDa::explore()), None)
        .unwrap();
    let r2 = Experiment::new(quick(Dataset::DblpLike, 5))
        .run_framework(&Framework::FedDa(FedDa::explore()), None)
        .unwrap();
    assert_eq!(r1.final_auc.mean, r2.final_auc.mean);
    assert_eq!(r1.uplink_units.mean, r2.uplink_units.mean);
    assert_eq!(r1.auc_curves.mean_curve(), r2.auc_curves.mean_curve());
}
