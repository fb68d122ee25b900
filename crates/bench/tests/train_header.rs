//! `fedda train` names the values its run uses, not only its grid: the
//! second line of its output is Algorithm 1's local update, the model's
//! shape and, for FedDA, the activation thresholds.

use fedda::hgn::TrainConfig;
use std::process::Command;

/// The first two stdout lines of a one-round, one-run `fedda train`.
fn header(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fedda"))
        .args([
            "train", "--quick", "--rounds", "1", "--runs", "1", "--scale", "0.001",
        ])
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn fedda train: {e}"));
    assert!(out.status.success(), "{args:?}: exited with {}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let mut lines = stdout.lines().map(str::to_owned);
    (
        lines.next().unwrap_or_default(),
        lines.next().unwrap_or_default(),
    )
}

#[test]
fn train_prints_the_values_its_run_uses() {
    let TrainConfig {
        batch_size,
        negatives_per_positive,
        ..
    } = TrainConfig::default();
    let local = format!("B={batch_size} neg/pos={negatives_per_positive}");
    let (grid, values) = header(&["--paper"]);
    assert!(
        grid.starts_with("training FedDA 2 (Explore) on DBLP (M=8, 1 runs x 1 rounds"),
        "{grid}"
    );
    assert_eq!(
        values,
        format!("  E=3 lr=0.005 {local} | layers=3 heads=3 hidden=16 edge-emb=8 | alpha=0.5 beta_e=0.667")
    );
    let (_, values) = header(&["--framework", "fedda-restart"]);
    assert_eq!(
        values,
        format!(
            "  E=2 lr=0.005 {local} | layers=2 heads=2 hidden=8 edge-emb=8 | alpha=0.5 beta_r=0.4"
        )
    );
    let (_, values) = header(&["--framework", "fedavg"]);
    assert_eq!(
        values,
        format!("  E=2 lr=0.005 {local} | layers=2 heads=2 hidden=8 edge-emb=8")
    );
}
