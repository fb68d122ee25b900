//! Tier-1 gate: the live workspace must carry ZERO unsuppressed findings,
//! and every exemption in force must state its reason. Adding a HashMap to
//! a deterministic crate, a bare unwrap to library code, or a reasonless
//! allow-directive anywhere fails this test.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn live_workspace_has_zero_unsuppressed_findings() {
    let report = fedda_analyzer::analyze_workspace(&workspace_root()).expect("scan failed");
    assert!(
        report.files_scanned > 30,
        "suspiciously few files scanned ({}) — did the crate layout move?",
        report.files_scanned
    );
    let offenders: Vec<String> = report
        .unsuppressed()
        .map(|f| format!("{}:{}:{} [{}] {}", f.file, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(
        offenders.is_empty(),
        "fedda-lint found {} unsuppressed finding(s):\n{}",
        offenders.len(),
        offenders.join("\n")
    );
}

#[test]
fn every_exemption_in_force_carries_a_reason() {
    let report = fedda_analyzer::analyze_workspace(&workspace_root()).expect("scan failed");
    let suppressed: Vec<_> = report.findings.iter().filter(|f| f.suppressed).collect();
    assert!(
        !suppressed.is_empty(),
        "expected at least one reasoned exemption (engine.rs wall-clock telemetry)"
    );
    for f in &suppressed {
        assert!(
            f.reason.as_deref().is_some_and(|r| r.len() >= 10),
            "exemption at {}:{} has no substantive reason",
            f.file,
            f.line
        );
    }
    // The one legitimate wall-clock site must be the round-timing telemetry.
    assert!(
        suppressed
            .iter()
            .any(|f| f.rule == "wall-clock" && f.file.ends_with("fl/src/engine.rs")),
        "engine.rs round-timing exemption disappeared — did the telemetry move?"
    );
}

#[test]
fn cross_file_rules_run_on_the_live_workspace() {
    // The cross-file families must actually execute against the real tree
    // (a broken index would silently pass the zero-findings gate): the
    // Global baseline's two documented drift exemptions are the sentinel.
    let report = fedda_analyzer::analyze_workspace(&workspace_root()).expect("scan failed");
    let global_exemptions: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.suppressed && f.file.ends_with("fl/src/baselines.rs"))
        .map(|f| f.rule)
        .collect();
    assert!(
        global_exemptions.contains(&"protocol-pins") && global_exemptions.contains(&"protocol-zoo"),
        "GlobalProtocol's reasoned async-pin/chaos exemptions disappeared — \
         either the cross-file index broke or Global grew real coverage \
         (then delete this sentinel and the directives): {global_exemptions:?}"
    );
    // And no unsuppressed cross-family finding may exist (subset of the
    // zero-findings gate, but phrased per family for a sharper message).
    for rule in [
        "rng-stream",
        "protocol-factory",
        "protocol-pins",
        "protocol-zoo",
    ] {
        let hits: Vec<String> = report
            .unsuppressed()
            .filter(|f| f.rule == rule)
            .map(|f| format!("{}:{}", f.file, f.line))
            .collect();
        assert!(hits.is_empty(), "live {rule} findings: {hits:?}");
    }
}
