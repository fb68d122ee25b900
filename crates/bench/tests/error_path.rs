//! Nothing a user can type ends in a panic, and every binary trains through
//! the one shared path: a malformed flag is `error: <message>` on stderr
//! plus a non-zero exit status in all twelve table/figure binaries, and the
//! binaries that used to step around `Experiment` (`fairness`, `faults`)
//! honour `--runtime` / `--events` and train each cell exactly once.
//! (`fedda-cli train` has the same checks in `crates/cli/tests`.)

use std::process::{Command, Output};

const BINARIES: [(&str, &str); 12] = [
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("auc_vs_bytes", env!("CARGO_BIN_EXE_auc_vs_bytes")),
    ("efficiency_model", env!("CARGO_BIN_EXE_efficiency_model")),
    ("fairness", env!("CARGO_BIN_EXE_fairness")),
    ("faults", env!("CARGO_BIN_EXE_faults")),
    ("fig2", env!("CARGO_BIN_EXE_fig2")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("noniid_sweep", env!("CARGO_BIN_EXE_noniid_sweep")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
];

/// Run with backtraces on, so a panic would also print `stack backtrace`.
fn run(path: &str, args: &[&str]) -> Output {
    Command::new(path)
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap_or_else(|e| panic!("spawn {path}: {e}"))
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
    for (name, path) in BINARIES {
        let out = run(path, &["--scale", "abc"]);
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
        let out = run(env!("CARGO_BIN_EXE_table2"), &["--quick", flag, value]);
        let stderr = clean_error("table2", &out);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let want = format!("error: invalid --framework {name} configuration: ");
        assert!(stderr.starts_with(&want), "{stderr}");
        assert!(out.stdout.is_empty(), "table2 started before validating");
    }
}

#[test]
fn sweeping_binaries_reject_the_flag_they_sweep() {
    for (path, flag, value) in [
        (env!("CARGO_BIN_EXE_auc_vs_bytes"), "--compress", "q8"),
        (env!("CARGO_BIN_EXE_faults"), "--faults", "drop=0.1"),
    ] {
        let out = run(path, &["--quick", flag, value]);
        let stderr = clean_error(path, &out);
        assert!(stderr.contains(&format!("drop {flag}")), "{stderr}");
    }
}

const TINY: [&str; 5] = ["--quick", "--scale", "0.001", "--clients", "2"];

#[test]
fn fairness_runs_every_framework_on_the_configured_runtime() {
    let mut args = TINY.to_vec();
    args.extend(["--rounds", "2", "--runtime", "async", "--events"]);
    let out = run(env!("CARGO_BIN_EXE_fairness"), &args);
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
    let buffered = run(env!("CARGO_BIN_EXE_fairness"), &args);
    args.truncate(TINY.len() + 2);
    let lockstep = run(env!("CARGO_BIN_EXE_fairness"), &args);
    assert!(buffered.status.success() && lockstep.status.success());
    assert_ne!(buffered.stdout, lockstep.stdout);
}

#[test]
fn faults_trains_each_cell_exactly_once() {
    let mut args = TINY.to_vec();
    args.extend(["--rounds", "1", "--rate-steps", "2", "--events"]);
    let out = run(env!("CARGO_BIN_EXE_faults"), &args);
    assert!(out.status.success(), "{out:?}");
    // 2 rates × 3 frameworks × 2 runs (`--quick`), and not one more for a
    // second "representative" training of run 0.
    assert_eq!(event_headers(&out).len(), 2 * 3 * 2);
}
