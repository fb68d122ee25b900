//! Machine-readable experiment reports (JSON), so EXPERIMENTS.md numbers
//! are regenerable and diffable. Only the harness uses this — the core
//! library never does I/O.

use crate::experiment::FrameworkResult;
use serde_json::{json, Value};
use std::io::Write;
use std::path::Path;

/// Convert one framework's aggregated result to JSON.
pub fn framework_to_json(result: &FrameworkResult) -> Value {
    json!({
        "name": result.name,
        "final_auc": { "mean": result.final_auc.mean, "std": result.final_auc.std, "n": result.final_auc.n },
        "final_mrr": { "mean": result.final_mrr.mean, "std": result.final_mrr.std },
        "best_auc": { "mean": result.best_auc.mean, "std": result.best_auc.std },
        "uplink_units": { "mean": result.uplink_units.mean, "std": result.uplink_units.std },
        "auc_mean_curve": result.auc_curves.mean_curve(),
        "auc_max_curve": result.auc_curves.max_curve(),
        "auc_min_curve": result.auc_curves.min_curve(),
        "eval_rounds": result.eval_rounds,
    })
}

/// Bundle several results under named experiment metadata.
pub fn experiment_to_json(experiment_id: &str, meta: Value, results: &[FrameworkResult]) -> Value {
    json!({
        "experiment": experiment_id,
        "meta": meta,
        "results": results.iter().map(framework_to_json).collect::<Vec<_>>(),
    })
}

/// Write a JSON value to a file (pretty-printed).
pub fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
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
    use fedda_metrics::{CurveRecorder, MeanStd};

    fn dummy_result() -> FrameworkResult {
        let mut curves = CurveRecorder::new();
        curves.record(0, 0, 0.5);
        curves.record(0, 1, 0.6);
        FrameworkResult {
            name: "FedAvg".into(),
            final_auc: MeanStd::of(&[0.6]),
            final_mrr: MeanStd::of(&[0.8]),
            best_auc: MeanStd::of(&[0.6]),
            uplink_units: MeanStd::of(&[100.0]),
            uplink_scalars: MeanStd::of(&[400.0]),
            uplink_bytes: MeanStd::of(&[1600.0]),
            auc_curves: curves,
            mrr_curves: CurveRecorder::new(),
            eval_rounds: vec![0, 1],
            runs: Vec::new(),
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
}
