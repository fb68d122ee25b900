//! Nothing a user can type ends in a panic, and every subcommand trains
//! through the one shared path: a malformed flag is `error: <message>` plus
//! the usage line on stderr and exit status 2 in `train` and all twelve
//! table/figure subcommands, and so is a flag the subcommand does not read;
//! the subcommands that used to step around `Experiment` (`fairness`,
//! `faults`) honour `--runtime` / `--events` and train each cell exactly
//! once; a value or an archive the data subcommands cannot work from is
//! `error: <message>` and exit status 1.

use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 12] = [
    "ablations",
    "auc_vs_bytes",
    "efficiency_model",
    "fairness",
    "faults",
    "fig2",
    "fig5",
    "fig6",
    "noniid_sweep",
    "table1",
    "table2",
    "table3",
];

/// Run `fedda <sub> <args>` with backtraces on, so a panic would also
/// print `stack backtrace`.
fn run(sub: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fedda"))
        .arg(sub)
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap_or_else(|e| panic!("spawn fedda {sub}: {e}"))
}

/// The stderr of a run that must have ended in a clean error.
fn clean_error(what: &str, out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "{what}: expected a non-zero exit");
    assert!(stderr.starts_with("error:"), "{what}: stderr is {stderr:?}");
    assert!(
        !stderr.contains("panicked") && !stderr.contains("stack backtrace"),
        "{what} panicked: {stderr}"
    );
    stderr
}

/// The `[<protocol>] <n> rounds` headers `--events` writes, one per run.
fn event_headers(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with('['))
        .map(str::to_string)
        .collect()
}

#[test]
fn a_malformed_flag_value_is_a_usage_error_in_every_binary() {
    for name in SUBCOMMANDS {
        let out = run(name, &["--scale", "abc"]);
        let stderr = clean_error(name, &out);
        assert_eq!(out.status.code(), Some(2), "{name}");
        assert!(stderr.contains("bad value for --scale: abc"), "{stderr}");
        assert!(stderr.contains("usage:"), "{name} omits the usage line");
        assert!(out.stdout.is_empty(), "{name} printed before parsing");
    }
}

#[test]
fn table2_rejects_invalid_hyper_parameters_before_generating_data() {
    for (flag, value, name) in [
        ("--mu", "-1", "fedprox"),
        ("--alpha", "0", "feddyn"),
        ("--beta1", "2", "fedadam"),
    ] {
        let out = run("table2", &["--quick", flag, value]);
        let stderr = clean_error("table2", &out);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let want = format!("error: invalid --framework {name} configuration: ");
        assert!(stderr.starts_with(&want), "{stderr}");
        assert!(out.stdout.is_empty(), "table2 started before validating");
    }
}

#[test]
fn sweeping_binaries_reject_the_flag_they_sweep() {
    for (sub, flag, value) in [
        ("auc_vs_bytes", "--compress", "q8"),
        ("faults", "--faults", "drop=0.1"),
    ] {
        let out = run(sub, &["--quick", flag, value]);
        let stderr = clean_error(sub, &out);
        assert!(stderr.contains(&format!("drop {flag}")), "{stderr}");
    }
}

const TINY: [&str; 5] = ["--quick", "--scale", "0.001", "--clients", "2"];

#[test]
fn fairness_runs_every_framework_on_the_configured_runtime() {
    let mut args = TINY.to_vec();
    args.extend(["--rounds", "2", "--runtime", "async", "--events"]);
    let out = run("fairness", &args);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        event_headers(&out),
        [
            "[FedAvg] 2 rounds",
            "[FedDA 1 (Restart)] 2 rounds",
            "[FedDA 2 (Explore)] 2 rounds"
        ]
    );
    // Under K = 1 of 2 clients the second report of each wave arrives a
    // version late: the table is not the lockstep one.
    args.truncate(TINY.len() + 2);
    args.extend(["--runtime", "async", "--async-k", "1"]);
    let buffered = run("fairness", &args);
    args.truncate(TINY.len() + 2);
    let lockstep = run("fairness", &args);
    assert!(buffered.status.success() && lockstep.status.success());
    assert_ne!(buffered.stdout, lockstep.stdout);
}

#[test]
fn faults_trains_each_cell_exactly_once() {
    let mut args = TINY.to_vec();
    args.extend(["--rounds", "1", "--rate-steps", "2", "--events"]);
    let out = run("faults", &args);
    assert!(out.status.success(), "{out:?}");
    // 2 rates × 3 frameworks × 2 runs (`--quick`), and not one more for a
    // second "representative" training of run 0.
    assert_eq!(event_headers(&out).len(), 2 * 3 * 2);
}

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
        let out = Command::new(env!("CARGO_BIN_EXE_fedda"))
            .arg("train")
            .args(args)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("spawn fedda");
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
        Command::new(env!("CARGO_BIN_EXE_fedda"))
            .args(line.split_whitespace())
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("spawn fedda")
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
    // 1e999 overflows to ±inf: a feature no layer can compute with.
    let nonfinite = r#"{"version":1,"node_types":[{"name":"a","feat_dim":2,"count":1,"features":[1e999,-1e999]}],"edge_types":[]}"#;
    std::fs::write(dir.join("nonfinite.json"), nonfinite).expect("write archive");
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
        (
            format!("stats --graph {}", at("nonfinite.json")),
            "node type 'a': feature 0 is inf".to_string(),
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
    let out = Command::new(env!("CARGO_BIN_EXE_fedda"))
        .args(["stats", "--graph"])
        .arg(&path)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn fedda");
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

/// A flag the subcommand does not read is refused by name before anything
/// runs — it used to be ignored, so a typo ran the defaults and exited 0.
#[test]
fn a_flag_the_subcommand_does_not_read_is_a_usage_error() {
    for (sub, args) in [
        ("train", &["--quick", "--runs", "1", "--rouds", "1"][..]),
        ("efficiency", &["--nn", "3"]),
        ("table1", &["--rounds", "3"]),
        ("fig5", &["--dataset", "dblp"]),
    ] {
        let out = run(sub, args);
        let stderr = clean_error(sub, &out);
        assert_eq!(out.status.code(), Some(2), "{sub} {args:?}");
        let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        let want = format!("error: {sub} does not read {flag}\nusage: fedda {sub} ");
        assert!(stderr.starts_with(&want), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "{sub} {args:?} printed before refusing"
        );
    }
}

/// `help` and `--help` / `-h` print usage on stdout and succeed; no
/// subcommand, or one the table does not list, is a usage error on stderr.
#[test]
fn help_goes_to_stdout_and_a_missing_subcommand_is_a_usage_error() {
    let fedda = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_fedda"))
            .args(args)
            .output()
            .expect("spawn fedda")
    };
    for args in [&[][..], &["bogus"], &["help", "bogus"], &["--rounds", "3"]] {
        let out = fedda(args);
        let stderr = clean_error(&format!("{args:?}"), &out);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr.contains("usage: fedda <subcommand>"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let overview = fedda(&["help"]);
    assert!(overview.status.success() && overview.stderr.is_empty());
    let overview = String::from_utf8_lossy(&overview.stdout).into_owned();
    assert!(overview.contains("usage: fedda <subcommand>"), "{overview}");
    for sub in SUBCOMMANDS {
        assert!(
            overview.contains(&format!("\n  {sub} ")),
            "{sub}: {overview}"
        );
    }
    for args in [
        &["help", "train"][..],
        &["train", "--help"],
        &["train", "-h"],
        &["train", "--rounds", "3", "--help"],
    ] {
        let out = fedda(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: fedda train "), "{stdout}");
        for flag in ["--json", "--quick", "--paper"] {
            assert_eq!(stdout.contains(flag), flag != "--json", "{flag}: {stdout}");
        }
    }
}
