//! `perf` — the perf-trajectory harness (ROADMAP item 5).
//!
//! **Snapshot mode** (default) runs the fixed, seeded suite ([GEMM
//! shapes, HGN forward/backward, full FL rounds](fedda_bench::suite)) and
//! writes a schema-versioned `BENCH_<date>.json` at the current directory
//! (the repo root, by convention):
//!
//! ```text
//! cargo run --release -p fedda-bench --bin perf -- --smoke
//! cargo run --release -p fedda-bench --bin perf            # full profile
//! ```
//!
//! Flags: `--smoke` (CI-sized profile), `--out <path>` (override the
//! `BENCH_<date>.json` default), `--seed <n>`, `--samples <n>`.
//!
//! **Compare mode** diffs two snapshots, prints the per-case delta table
//! and exits nonzero when any case regresses beyond the threshold
//! (default 10%) or disappeared:
//!
//! ```text
//! cargo run --release -p fedda-bench --bin perf -- \
//!     --compare BENCH_old.json BENCH_new.json [--threshold 0.10]
//! ```
//!
//! Every perf-focused PR must commit an updated snapshot; see
//! `DESIGN.md` §10 for the schema and policy.

use fedda_bench::compare::{compare, DEFAULT_THRESHOLD};
use fedda_bench::snapshot::{utc_today, EnvFingerprint, Snapshot, SCHEMA_VERSION};
use fedda_bench::suite::{run_suite, SuiteConfig};
use fedda_bench::Options;
use std::path::Path;

/// `Some((old, new))` when `--compare` was given.
type ComparePaths = Option<(String, String)>;

/// Pull `--compare <old> <new>` (two values) out of the raw argument
/// list, leaving the rest for the shared [`Options`] parser.
fn split_compare_args(mut args: Vec<String>) -> Result<(ComparePaths, Vec<String>), String> {
    match args.iter().position(|a| a == "--compare") {
        None => Ok((None, args)),
        Some(at) => {
            if args.len() < at + 3 {
                return Err("--compare needs two snapshot paths: --compare <old> <new>".into());
            }
            let new = args.remove(at + 2);
            let old = args.remove(at + 1);
            args.remove(at);
            if args.iter().any(|a| a == "--compare") {
                return Err("duplicate flag --compare".into());
            }
            Ok((Some((old, new)), args))
        }
    }
}

fn main() {
    fedda_bench::require_isa_level();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (compare_paths, rest) = split_compare_args(raw).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // `--smoke` is perf-specific, so strip it before the shared parser.
    let smoke = rest.iter().any(|a| a == "--smoke");
    let rest: Vec<String> = rest.into_iter().filter(|a| a != "--smoke").collect();
    let opts = match Options::try_from_args(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perf [--smoke] [--out <path>] [--seed <n>] [--samples <n>] \
                 | perf --compare <old> <new> [--threshold <f>]"
            );
            std::process::exit(2);
        }
    };

    match compare_paths {
        Some((old_path, new_path)) => {
            let threshold: f64 = opts.get("threshold").unwrap_or(DEFAULT_THRESHOLD);
            let old = Snapshot::load(Path::new(&old_path)).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            let new = Snapshot::load(Path::new(&new_path)).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            if old.label != new.label {
                eprintln!(
                    "warning: comparing a '{}' snapshot against a '{}' snapshot — \
                     case sets differ by design",
                    old.label, new.label
                );
            }
            if old.env != new.env {
                eprintln!(
                    "note: environment fingerprints differ (old: {}/{} {} threads; \
                     new: {}/{} {} threads) — wall-times are only comparable on one machine",
                    old.env.os,
                    old.env.arch,
                    old.env.kernel_threads,
                    new.env.os,
                    new.env.arch,
                    new.env.kernel_threads
                );
            }
            let cmp = compare(&old, &new, threshold).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            println!(
                "Comparing {old_path} ({}, {}) -> {new_path} ({}, {})\n",
                old.created, old.label, new.created, new.label
            );
            println!("{}", cmp.render());
            if !cmp.passes() {
                std::process::exit(1);
            }
        }
        None => {
            let cfg = SuiteConfig {
                smoke,
                seed: opts.get("seed").unwrap_or(0),
                samples: opts.get("samples"),
                progress: true,
            };
            let created = utc_today();
            let out_path = opts
                .get_str("out")
                .map(str::to_string)
                .unwrap_or_else(|| Snapshot::default_path(&created));
            eprintln!(
                "running perf suite (profile {}, seed {}, {} kernel threads)...",
                cfg.label(),
                cfg.seed,
                fedda::tensor::gemm::configured_threads()
            );
            let cases = run_suite(&cfg);
            let snapshot = Snapshot {
                schema_version: SCHEMA_VERSION,
                created,
                label: cfg.label().to_string(),
                seed: cfg.seed,
                env: EnvFingerprint::capture(),
                cases,
            };
            snapshot.save(Path::new(&out_path)).unwrap_or_else(|e| {
                eprintln!("error: cannot write {out_path}: {e}");
                std::process::exit(2);
            });
            println!(
                "wrote {out_path} ({} cases, schema v{})",
                snapshot.cases.len(),
                snapshot.schema_version
            );
        }
    }
}
