//! `perf` — the kernel probe: how fast is one kernel at a workload's real
//! shape. (How fast a federated run is, and where its time goes, is the
//! repo benchmark's question: `benchmark/`, `BENCHMARK.json`.)
//!
//! **Snapshot mode** runs the fixed, seeded [suite](crate::suite)
//! (`gemm/`, `edge/`, `codec/`, `optim/`; ten samples per case) and writes
//! a schema-v2 `BENCH_<date>.json` in the current directory, or at
//! `--out <path>`:
//!
//! ```text
//! fedda perf [--out <path>]
//! ```
//!
//! **A/B mode** is the only way to compare two builds. It runs the two
//! `fedda` binaries' `perf --out` as ten alternating pairs and prints one
//! row per case; a case is an improvement or a regression only when one side wins at
//! least 9 of the 10 pairs *and* the medians differ by more than the old
//! side's inter-quartile range, and *unresolved* otherwise
//! ([`crate::compare`]). Exit status 1 when a case regressed or went
//! missing, 2 when a side could not be run or read:
//!
//! ```text
//! fedda perf --ab <old-binary> <new-binary>
//! ```
//!
//! See `DESIGN.md` §10 for the schema and the measurement behind the rule.

use crate::compare::{compare, PAIRS};
use crate::snapshot::{utc_today, EnvFingerprint, Snapshot};
use crate::suite::run_suite;
use std::path::Path;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perf [--out <path>] | perf --ab <old-binary> <new-binary>";

/// Run the suite once and write its snapshot to `out`.
fn snapshot(out: Option<&str>) -> Result<(), String> {
    let created = utc_today();
    let out = out.map_or_else(|| Snapshot::default_path(&created), str::to_string);
    let snapshot = Snapshot {
        created,
        env: EnvFingerprint::capture(),
        cases: run_suite(),
    };
    snapshot
        .save(Path::new(&out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out} ({} cases)", snapshot.cases.len());
    Ok(())
}

/// One suite run of `binary`, through its `perf --out`.
fn run_side(binary: &str, out: &Path) -> Result<Snapshot, String> {
    let run = Command::new(binary)
        .args(["perf", "--out"])
        .arg(out)
        .output()
        .map_err(|e| format!("cannot run {binary}: {e}"))?;
    if !run.status.success() {
        return Err(format!(
            "{binary} perf --out failed ({}): {}",
            run.status,
            String::from_utf8_lossy(&run.stderr).trim()
        ));
    }
    let snapshot = Snapshot::load(out);
    let _ = std::fs::remove_file(out);
    snapshot
}

/// [`PAIRS`] alternating pairs of the two binaries; `Ok(passes)`.
fn ab(old: &str, new: &str) -> Result<bool, String> {
    let out = std::env::temp_dir().join(format!("perf_ab_{}.json", std::process::id()));
    let binaries = [old, new];
    let mut runs = [Vec::new(), Vec::new()];
    for pair in 0..PAIRS {
        eprintln!("pair {}/{PAIRS}", pair + 1);
        // The sides take turns to go first, so a slow minute of the box
        // falls on both.
        for side in [pair % 2, 1 - pair % 2] {
            runs[side].push(run_side(binaries[side], &out)?);
        }
    }
    let cmp = compare(&runs[0], &runs[1]);
    println!("A/B {old} -> {new}\n\n{}", cmp.render());
    Ok(cmp.passes())
}

pub fn run(args: &[String]) -> ExitCode {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args[..] {
        [] => snapshot(None).map(|()| true),
        ["--out", path] => snapshot(Some(path)).map(|()| true),
        ["--ab", old, new] => ab(old, new),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
