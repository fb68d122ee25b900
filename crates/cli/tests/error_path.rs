//! Nothing a user can type at `fedda-cli` ends in a panic: a malformed
//! command line is `error: <message>` plus the usage line on stderr and
//! exit status 2 (the twelve table/figure binaries have the same check in
//! `crates/bench/tests/error_path.rs`); a value or an archive the data
//! subcommands cannot work from is `error: <message>` and exit status 1.

use std::process::Command;

#[test]
fn malformed_train_flags_are_usage_errors_not_panics() {
    for (args, message) in [
        (&["--scale", "abc"][..], "bad value for --scale: abc"),
        (&["--rounds", "abc"], "bad value for --rounds: abc"),
        (&["--runtime", "bogus"], "bad value for --runtime: bogus"),
        (&["--compress", "zz"], "bad value for --compress: zz"),
        (&["--async-k", "3"], "--async-k requires --runtime async"),
        (&["--faults", "drop=2"], "bad value for --faults: drop=2"),
        (&["--scale"], "missing value for --scale"),
        (&["oops"], "unexpected argument: oops"),
    ] {
        // Backtraces on, so a panic would also print `stack backtrace`.
        let out = Command::new(env!("CARGO_BIN_EXE_fedda-cli"))
            .arg("train")
            .args(args)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("spawn fedda-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {message}")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?} omits the usage line");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("stack backtrace"),
            "{args:?} panicked: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed before parsing");
    }
}

/// The data subcommands validate before they work: a grid no partition can
/// be built from, or an archive that claims more than it holds, is
/// `error: <message>` and exit status 1, not a panic or an abort.
#[test]
fn bad_data_subcommand_input_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("fedda_cli_error_path_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let at = |name: &str| dir.join(name).display().to_string();
    let cli = |line: &str| {
        Command::new(env!("CARGO_BIN_EXE_fedda-cli"))
            .args(line.split_whitespace())
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("spawn fedda-cli")
    };
    for (name, node_type) in [
        ("huge.json", r#""feat_dim":0,"count":4000000000000"#),
        ("wraps.json", r#""feat_dim":4611686018427387904,"count":4"#),
        ("edgeless.json", r#""feat_dim":0,"count":4"#),
    ] {
        let doc = format!(
            r#"{{"version":1,"node_types":[{{"name":"a",{node_type},"features":[]}}],"edge_types":[]}}"#
        );
        std::fs::write(dir.join(name), doc).expect("write archive");
    }
    let (graph, parts) = (at("g.json"), at("parts"));
    let generated = cli(&format!("generate --scale 0.002 --out {graph}"));
    assert!(generated.status.success(), "generate failed: {generated:?}");

    let partition =
        |graph: &str, flags: &str| format!("partition --graph {graph} --out-dir {parts} {flags}");
    let test_fraction = "test-fraction must be in [0, 1), got";
    let scale = "scale must be finite and positive, got";
    for (line, message) in [
        (
            partition(&graph, "--clients 0"),
            "clients must be at least 1, got 0".to_string(),
        ),
        (
            partition(&graph, "--test-fraction 2"),
            format!("{test_fraction} 2"),
        ),
        (
            partition(&graph, "--test-fraction -0.5"),
            format!("{test_fraction} -0.5"),
        ),
        (
            partition(&graph, "--test-fraction nan"),
            format!("{test_fraction} NaN"),
        ),
        (
            partition(&graph, "--mode weird"),
            "unknown mode 'weird' (expected iid|biased)".to_string(),
        ),
        (
            partition(&at("edgeless.json"), ""),
            "has no edge types to partition".to_string(),
        ),
        (
            format!("generate --scale 0 --out {graph}"),
            format!("{scale} 0"),
        ),
        (
            format!("generate --scale -1 --out {graph}"),
            format!("{scale} -1"),
        ),
        (
            format!("generate --scale nan --out {graph}"),
            format!("{scale} NaN"),
        ),
        (
            format!("stats --graph {}", at("huge.json")),
            "4000000000000 nodes".to_string(),
        ),
        (
            format!("stats --graph {}", at("wraps.json")),
            "0 feature values for 4x4611686018427387904".to_string(),
        ),
    ] {
        let out = cli(&line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(&message),
            "{line}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked") && !stderr.contains("stack backtrace"),
            "{line} panicked: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{line} printed before failing");
    }
    assert!(
        !dir.join("parts").exists(),
        "a refused partition wrote files"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 200 KB archive of nothing but open brackets used to overflow the
/// parser's stack (SIGABRT, no message); the JSON parser's depth limit makes
/// it one more refused archive.
#[test]
fn a_deeply_nested_archive_is_an_error_not_a_stack_overflow() {
    let path = std::env::temp_dir().join(format!("fedda_cli_deep_{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000)).expect("write archive");
    let out = Command::new(env!("CARGO_BIN_EXE_fedda-cli"))
        .args(["stats", "--graph"])
        .arg(&path)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn fedda-cli");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains("recursion limit exceeded at byte 128"),
        "{stderr}"
    );
    assert!(
        !stderr.contains("overflowed") && !stderr.contains("panicked"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "printed before failing");
}
