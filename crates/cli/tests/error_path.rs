//! Nothing a user can type at `fedda-cli train` ends in a panic: a
//! malformed command line is `error: <message>` plus the usage line on
//! stderr and exit status 2 (the twelve table/figure binaries have the same
//! check in `crates/bench/tests/error_path.rs`).

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
