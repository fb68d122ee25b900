//! Runs the `--smoke` profile through the built binary and holds the
//! emitted names and units, the declared surface and the repository's
//! `BENCHMARK.json` to one another, so that none of them can drift.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fedda-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_is_what_the_binary_declares() {
    let described: Value = serde_json::from_str(&bench(&["describe"])).expect("describe parses");
    assert_eq!(described, declared());
}

#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    let declared = declared();
    let out_dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let out_dir = out_dir.to_str().expect("utf-8 path");
    let workloads = declared["workloads"].as_array().expect("workloads");
    assert_eq!(workloads.len(), 4);
    for workload in workloads {
        let name = workload["name"].as_str().expect("workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let stdout = bench(&[
                "--workload",
                name,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
                "--out",
                out_dir,
            ]);
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("the result line parses");
            assert_eq!(result["correct"], true, "{name} --trace {trace}: {stdout}");
            assert_eq!(result["failed"], 0.0);
            assert!(result["attempted"].as_f64().expect("attempted") >= 1.0);
            let want: Vec<(&str, &str)> = declared[list]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| (m["name"].as_str().unwrap(), m["unit"].as_str().unwrap()))
                .collect();
            let got: Vec<(&str, &str)> = result["metrics"]
                .as_object()
                .expect("metrics object")
                .iter()
                .map(|(k, v)| (k.as_str(), v["unit"].as_str().unwrap()))
                .collect();
            assert_eq!(got, want, "{name} --trace {trace}");
            for (metric, value) in result["metrics"].as_object().unwrap() {
                assert!(
                    value["value"].as_f64().is_some_and(f64::is_finite),
                    "{name}: {metric} is not a finite number"
                );
            }
        }
        let trace_file = Path::new(out_dir).join(format!("trace-{name}.json"));
        let spans: Value =
            serde_json::from_str(&std::fs::read_to_string(trace_file).expect("trace file"))
                .expect("trace parses");
        assert!(!spans["spans"].as_array().expect("spans").is_empty());
    }
}
