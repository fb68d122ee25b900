//! End-to-end contract for `fedda perf`: `--out` writes a schema-v2
//! snapshot of the 20 fixed cases, schema-v1 files are refused by name,
//! and `--ab` runs ten alternating pairs and prints one row per case.
//! Structure only — no assertion here depends on a measured time.

use fedda_bench::snapshot::Snapshot;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The suite, literally: coverage cannot shrink silently, and the names
/// stay joinable with the v1 history in `BENCH_2026-09-30{,b,c,d}.json`.
const CASE_NAMES: [&str; 20] = [
    "gemm/nn/2525x48x16",
    "gemm/nn/2525x48x48",
    "gemm/tn/48x2525x16",
    "gemm/nt/2525x16x48",
    "gemm/nn/2525x16x1",
    "gemm/tn/16x2525x1",
    "gemm/nt/2525x1x16",
    "gemm/nn/101x128x32",
    "gemm/nn/101x128x128",
    "gemm/tn/128x101x32",
    "gemm/nt/101x32x128",
    "edge/softmax/E12467xN694",
    "edge/aggregate/E12467xN694xd8",
    "edge/softmax/E17019xN2525",
    "edge/aggregate/E17019xN2525xd16",
    "codec/q8/encode/n87554",
    "codec/f16/encode/n87554",
    "codec/topk/encode/n87554",
    "codec/q8/decode/n87554",
    "optim/adam_step/n87554",
];

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fedda"))
        .arg("perf")
        .args(args)
        .output()
        .expect("spawn fedda perf")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedda_perf_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A stand-in `fedda` binary for `--ab`: answers `perf --out <path>` with a copy
/// of `snapshot` and logs that it ran. One real suite run takes ~12 s in
/// the debug profile `cargo test` builds, and an A/B is twenty of them;
/// what is under test here is the pairing, not the kernels.
#[cfg(unix)]
fn stand_in(dir: &Path, side: &str, snapshot: &Path) -> String {
    use std::os::unix::fs::PermissionsExt;
    let script = dir.join(side);
    let body = format!(
        "#!/bin/sh\necho {side} >> '{}'\ncp '{}' \"$3\"\n",
        dir.join("order.log").display(),
        snapshot.display()
    );
    std::fs::write(&script, body).expect("write stand-in");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    script.to_str().expect("utf-8 temp path").to_string()
}

/// One real run of the suite, then `--ab` over stand-ins that replay it
/// (and doctored copies of it).
#[test]
#[cfg(unix)]
fn out_writes_schema_v2_and_ab_pairs_every_case() {
    let dir = scratch("ab");
    let base = dir.join("base.json");
    let out = perf(&["--out", base.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "perf --out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The file is a v2 snapshot of exactly the pinned cases, in order,
    // each with at least ten samples and ordered quartiles.
    let text = std::fs::read_to_string(&base).expect("snapshot written");
    let json: serde_json::Value = serde_json::from_str(&text).expect("snapshot parses");
    assert_eq!(json["schema_version"].as_u64(), Some(2));
    assert!(json.get("label").is_none() && json.get("seed").is_none());
    let snap = Snapshot::load(&base).expect("v2 snapshot loads");
    assert!(snap.env.cpus >= 1);
    let names: Vec<&str> = snap.cases.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, CASE_NAMES);
    for c in &snap.cases {
        assert!(c.samples >= 10, "{}: {} samples", c.name, c.samples);
        assert!(
            c.min_ns <= c.q1_ns && c.q1_ns <= c.median_ns && c.median_ns <= c.q3_ns,
            "{c:?}"
        );
    }
    assert!(json["cases"][0].get("mean_ns").is_none());

    // Same snapshot on both sides: ten pairs, the sides taking turns to
    // go first, one row per case, every pair a tie, nothing resolved.
    let old = stand_in(&dir, "old", &base);
    let same = stand_in(&dir, "new", &base);
    let ab = perf(&["--ab", &old, &same]);
    let stdout = String::from_utf8_lossy(&ab.stdout).into_owned();
    assert!(ab.status.success(), "self A/B must pass:\n{stdout}");
    let order = std::fs::read_to_string(dir.join("order.log")).expect("order log");
    let expected: Vec<&str> = (0..10)
        .flat_map(|pair| {
            if pair % 2 == 0 {
                ["old", "new"]
            } else {
                ["new", "old"]
            }
        })
        .collect();
    assert_eq!(order.lines().collect::<Vec<_>>(), expected);
    for name in CASE_NAMES {
        let row = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no row for {name}:\n{stdout}"));
        let cells: Vec<&str> = row.split_whitespace().collect();
        // Case, old median, old IQR, new median, ratio, pairs, wins ×2, verdict.
        assert_eq!(cells.len(), 9, "{row}");
        assert_eq!(&cells[5..], ["10", "0", "0", "unresolved"], "{row}");
    }
    assert!(
        stdout.contains("20 cases over 10 pairs: 20 unresolved, 0 improved, 0 regressed"),
        "{stdout}"
    );

    // A new side that is 2x slower on one case in all ten pairs regresses
    // it (exit 1); one that lost a case fails as MISSING.
    let mut slow = json.clone();
    let median = slow["cases"][0]["median_ns"].as_u64().unwrap().max(1);
    slow["cases"][0]["median_ns"] = serde_json::json!(median * 2);
    slow["cases"][0]["q3_ns"] = serde_json::json!(median * 2);
    let slow_path = dir.join("slow.json");
    std::fs::write(&slow_path, slow.to_string()).unwrap();
    let reg = perf(&["--ab", &old, &stand_in(&dir, "slow", &slow_path)]);
    assert_eq!(reg.status.code(), Some(1), "2x slower in 10/10 pairs");
    let stdout = String::from_utf8_lossy(&reg.stdout).into_owned();
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("19 unresolved, 0 improved, 1 regressed"));

    let mut shrunk = json.clone();
    shrunk["cases"].as_array_mut().unwrap().pop();
    let shrunk_path = dir.join("shrunk.json");
    std::fs::write(&shrunk_path, shrunk.to_string()).unwrap();
    let missing = perf(&["--ab", &old, &stand_in(&dir, "shrunk", &shrunk_path)]);
    assert_eq!(missing.status.code(), Some(1), "a lost case must fail");
    assert!(String::from_utf8_lossy(&missing.stdout).contains("MISSING"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed v1 history is refused with both schema versions named —
/// by the loader, and so by `--ab` when a side writes it.
#[test]
fn schema_v1_files_are_refused_by_name() {
    let v1 = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_2026-09-30d.json");
    let err = Snapshot::load(&v1).unwrap_err();
    assert!(err.contains("BENCH_2026-09-30d.json"), "{err}");
    assert!(
        err.contains("schema v1") && err.contains("schema v2"),
        "{err}"
    );
}

#[test]
fn only_out_and_ab_are_accepted() {
    for args in [
        &["--smoke"][..],
        &["--compare", "a.json", "b.json"],
        &["--samples", "3"],
        &["--seed", "1"],
        &["--out"],
        &["--ab", "only-one"],
        &["--out", "a.json", "--threshold", "0.1"],
    ] {
        let out = perf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: perf [--out <path>]"), "{stderr}");
    }
    // A side that cannot be run is an error, not a verdict.
    let out = perf(&["--ab", "/nonexistent/old", "/nonexistent/new"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot run /nonexistent/old"));
}
