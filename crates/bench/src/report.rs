//! Machine-readable experiment reports (JSON), so EXPERIMENTS.md numbers
//! are regenerable and diffable.

use fedda::experiment::FrameworkResult;
use serde_json::{json, Value};
use std::io::Write;
use std::path::Path;

/// One framework's runs, summarised.
pub(crate) fn framework_to_json(result: &FrameworkResult) -> Value {
    let (final_auc, final_mrr) = (result.final_auc(), result.final_mrr());
    let (best_auc, uplink_units) = (result.best_auc(), result.uplink_units());
    json!({
        "name": result.name,
        "final_auc": { "mean": final_auc.mean, "std": final_auc.std, "n": final_auc.n },
        "final_mrr": { "mean": final_mrr.mean, "std": final_mrr.std },
        "best_auc": { "mean": best_auc.mean, "std": best_auc.std },
        "uplink_units": { "mean": uplink_units.mean, "std": uplink_units.std },
        "auc_mean_curve": result.auc_mean_curve(),
        "auc_max_curve": result.auc_max_curve(),
        "auc_min_curve": result.auc_min_curve(),
        "eval_rounds": result.eval_rounds(),
    })
}

/// Bundle several results under named experiment metadata.
pub(crate) fn experiment_to_json(
    experiment_id: &str,
    meta: Value,
    results: &[FrameworkResult],
) -> Value {
    json!({
        "experiment": experiment_id,
        "meta": meta,
        "results": results.iter().map(framework_to_json).collect::<Vec<_>>(),
    })
}

/// Write a JSON value to a file (pretty-printed).
pub(crate) fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(
        serde_json::to_string_pretty(value)
            .expect("json serialise")
            .as_bytes(),
    )?;
    f.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedda::experiment::{Dataset, Experiment, ExperimentConfig, Framework};
    use fedda::fl::{FedAvg, RoundEval, RunResult};
    use fedda::hgn::{EvalResult, HgnConfig, TrainConfig};

    fn dummy_result() -> FrameworkResult {
        let curve = [(0, 0.5), (1, 0.6)].map(|(round, roc_auc)| RoundEval {
            round,
            roc_auc,
            mrr: 0.8,
        });
        let final_eval = EvalResult {
            roc_auc: 0.6,
            mrr: 0.8,
        };
        FrameworkResult {
            name: "FedAvg".into(),
            runs: vec![RunResult {
                curve: curve.to_vec(),
                final_eval,
                ..Default::default()
            }],
        }
    }

    #[test]
    fn json_roundtrip_contains_fields() {
        let v = framework_to_json(&dummy_result());
        assert_eq!(v["name"], "FedAvg");
        assert_eq!(v["final_auc"]["mean"], 0.6);
        assert_eq!(v["auc_mean_curve"].as_array().unwrap().len(), 2);
        assert_eq!(v["eval_rounds"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn experiment_json_bundles_results() {
        let v = experiment_to_json(
            "table2",
            json!({"dataset": "DBLP", "clients": 8}),
            &[dummy_result(), dummy_result()],
        );
        assert_eq!(v["experiment"], "table2");
        assert_eq!(v["results"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn write_json_creates_file() {
        let dir = std::env::temp_dir().join("fedda_report_test");
        let path = dir.join("out.json");
        write_json(&path, &json!({"ok": true})).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ok\": true"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reports_serialize_experiment_results() {
        let exp = Experiment::new(ExperimentConfig {
            dataset: Dataset::AmazonLike,
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
            seed: 4,
            ..Default::default()
        });
        let res = exp
            .run_framework(&Framework::FedAvg(FedAvg::vanilla()), None)
            .unwrap();
        let value = experiment_to_json("itest", json!({"seed": 4}), &[res]);
        assert_eq!(value["experiment"], "itest");
        let curve = value["results"][0]["auc_mean_curve"].as_array().unwrap();
        assert_eq!(curve.len(), 3);
        // write + re-read round trip
        let dir = std::env::temp_dir().join("fedda_itest");
        let path = dir.join("report.json");
        write_json(&path, &value).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["experiment"], "itest");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
