//! Every experiment subcommand documents a `--json <path>` flag; this
//! contract test runs each one at the smallest viable configuration and
//! asserts that the file actually appears and parses as a non-empty JSON
//! array. Before this suite existed, five of the eleven silently ignored
//! the flag.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `fedda <sub>` with `args` plus `--json <tmp>`; return the parsed dump.
/// Each call writes its own file, so tests running side by side never share
/// one.
fn run_with_json(sub: &str, args: &[&str]) -> serde_json::Value {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let out_path: PathBuf = std::env::temp_dir().join(format!(
        "fedda_json_contract_{sub}_{}_{}.json",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&out_path);
    let status = Command::new(env!("CARGO_BIN_EXE_fedda"))
        .arg(sub)
        .args(args)
        .arg("--json")
        .arg(&out_path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("spawn {sub}: {e}"));
    assert!(status.success(), "{sub} exited with {status}");
    let text = std::fs::read_to_string(&out_path)
        .unwrap_or_else(|e| panic!("{sub} did not write its --json file: {e}"));
    let _ = std::fs::remove_file(&out_path);
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{sub} wrote invalid JSON: {e}"))
}

fn assert_nonempty_array(bin: &str, v: &serde_json::Value) {
    let arr = v
        .as_array()
        .unwrap_or_else(|| panic!("{bin} --json dump is not an array"));
    assert!(!arr.is_empty(), "{bin} --json dump is empty");
}

// The tiniest configuration each experiment subcommand accepts; explicit flags
// must win over --quick (the regression this PR fixes), so these runs also
// exercise that path.
const TINY: &[&str] = &[
    "--scale", "0.001", "--rounds", "1", "--runs", "1", "--quick",
];

#[test]
fn table1_emits_json() {
    let v = run_with_json("table1", &["--scale", "0.001"]);
    assert_nonempty_array("table1", &v);
    assert!(v[0]["stats"]["num_nodes"].as_u64().unwrap_or(0) > 0);
}

#[test]
fn table2_emits_json() {
    let mut args = TINY.to_vec();
    args.extend(["--dataset", "dblp"]);
    let v = run_with_json("table2", &args);
    assert_nonempty_array("table2", &v);
    assert!(v[0]["results"].as_array().is_some_and(|r| !r.is_empty()));
    // eval_rounds ride along so curve positions map to true rounds.
    assert!(v[0]["results"][0]["eval_rounds"].as_array().is_some());
}

#[test]
fn table3_emits_json() {
    let v = run_with_json("table3", TINY);
    assert_nonempty_array("table3", &v);
    assert!(v[0]["fedavg"].as_f64().is_some());
}

#[test]
fn fig2_emits_json() {
    let mut args = TINY.to_vec();
    args.extend(["--clients", "2"]);
    // fig2 predates the array convention: it wraps its rows in a single
    // {"experiment": "fig2", "results": [...]} object.
    let v = run_with_json("fig2", &args);
    assert_eq!(v["experiment"].as_str(), Some("fig2"));
    assert_nonempty_array("fig2", &v["results"]);
}

#[test]
fn fig5_emits_json() {
    let mut args = TINY.to_vec();
    args.extend(["--clients", "2"]);
    let v = run_with_json("fig5", &args);
    assert_nonempty_array("fig5", &v);
}

#[test]
fn fig6_emits_json() {
    let mut args = TINY.to_vec();
    args.extend(["--clients", "2"]);
    let v = run_with_json("fig6", &args);
    assert_nonempty_array("fig6", &v);
    assert!(v[0]["panel"].as_str().is_some());
}

#[test]
fn ablations_emits_json() {
    let mut args = TINY.to_vec();
    args.extend(["--clients", "2"]);
    let v = run_with_json("ablations", &args);
    assert_nonempty_array("ablations", &v);
    assert!(v[0]["ablation"].as_str().is_some());
    assert!(v[0]["final_auc"].as_f64().is_some());
}

#[test]
fn efficiency_model_emits_json() {
    let mut args = TINY.to_vec();
    args.extend(["--clients", "2"]);
    let v = run_with_json("efficiency_model", &args);
    assert_nonempty_array("efficiency_model", &v);
    assert!(v[0]["measured_uplink"].as_f64().is_some());
    assert!(v[0]["predicted_uplink"].as_f64().is_some());
}

#[test]
fn fairness_emits_json() {
    let mut args = TINY.to_vec();
    args.extend(["--clients", "2"]);
    let v = run_with_json("fairness", &args);
    assert_nonempty_array("fairness", &v);
    assert!(v[0]["auc_by_edge_type"].as_array().is_some());
    assert!(v[0]["gap"].as_f64().is_some());
}

#[test]
fn noniid_sweep_emits_json() {
    let mut args = TINY.to_vec();
    args.extend(["--clients", "2"]);
    let v = run_with_json("noniid_sweep", &args);
    assert_nonempty_array("noniid_sweep", &v);
    assert!(v[0]["uplink_ratio"].as_f64().is_some());
}

#[test]
fn faults_emits_json() {
    let mut args = TINY.to_vec();
    args.extend(["--rate-steps", "2"]);
    let v = run_with_json("faults", &args);
    assert_nonempty_array("faults", &v);
    assert!(v[0]["rate"].as_f64().is_some());
}

/// The analytic model reads the configured round count, not the number of
/// evaluated rounds: a sparser evaluation cadence predicts the same uplink
/// and compares against the same FedAvg total.
#[test]
fn efficiency_model_ignores_the_eval_cadence() {
    let run = |every| {
        let args = [
            "--scale",
            "0.001",
            "--runs",
            "1",
            "--quick",
            "--clients",
            "2",
        ];
        run_with_json(
            "efficiency_model",
            &[&args[..], &["--rounds", "4", "--eval-every", every]].concat(),
        )
    };
    let (dense, sparse) = (run("1"), run("2"));
    assert_nonempty_array("efficiency_model", &dense);
    for (d, s) in dense
        .as_array()
        .unwrap()
        .iter()
        .zip(sparse.as_array().unwrap())
    {
        for key in ["predicted_uplink", "fedavg_uplink"] {
            assert!(d[key].as_f64().is_some(), "{key} missing");
            assert_eq!(d[key], s[key], "{key} moved with --eval-every");
        }
    }
}
