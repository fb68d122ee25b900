//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! fedda-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fedda-benchmark run [--seed N] [--seconds S] [--smoke]
//! fedda-benchmark selfcompare [--seconds S] [--smoke]
//! fedda-benchmark describe
//! ```
//!
//! The first form is one run of one workload: it prints what it measured
//! and, as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod metrics;
mod pass;
mod probes;
mod replay;
mod trace;
mod traced;
mod workloads;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use probes::median;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Spec, WORKERS};

/// Set-ups per pass: `setup_s` is the median over every set-up of a run,
/// so that one cold allocation does not decide it.
const SETUPS_PER_PASS: usize = 3;

/// Runs per workload and side of `selfcompare`, run seeds 1 to this: the
/// ten the driver's own steadiness check makes, and `NOISE.md` records.
const SELFCOMPARE_SEEDS: u64 = 10;

/// What one run of one workload reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Why the outputs are wrong; empty when they are right.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The contract's result line: every declared metric, by name and unit.
    fn result_line(&self, trace: bool) -> Result<String, String> {
        let declared: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut out = Vec::new();
        for (name, unit) in declared {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            out.push((name.to_string(), json!({"value": value, "unit": unit})));
        }
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(out),
        });
        serde_json::to_string(&line).map_err(|e| e.to_string())
    }
}

#[derive(Clone)]
struct Options {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().is_some_and(|a| !a.starts_with("--")) {
        opts.command = args.next();
    }
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {value}");
        match flag.as_str() {
            "--workload" => opts.workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn spec_for(opts: &Options) -> Result<Spec, String> {
    let name = opts
        .workload
        .as_deref()
        .ok_or("missing --workload <name>")?;
    workloads::spec(name, opts.smoke).ok_or_else(|| {
        format!(
            "unknown workload {name}; the workloads are {:?}",
            workloads::names()
        )
    })
}

/// Run one pass in a process of its own, so that its peak memory is the
/// pass's and nothing a previous pass left warm carries over.
fn spawn_pass(spec: &Spec, opts: &Options) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["pass", "--workload", spec.name])
        .args(["--seed", &opts.seed.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!(
            "pass ended with {}: {}",
            output.status,
            stderr.trim()
        ));
    }
    let line = stdout.lines().last().unwrap_or("");
    serde_json::from_str(line).map_err(|e| format!("unreadable pass report: {e}"))
}

/// The untraced run: passes in sequence until `--seconds` are used, at
/// least two so that their outputs can be compared (one under `--smoke`).
fn untraced(spec: &Spec, opts: &Options) -> Outcome {
    let started = Instant::now();
    let mut passes: Vec<Value> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    loop {
        let pass_started = Instant::now();
        match spawn_pass(spec, opts) {
            Ok(report) => passes.push(report),
            Err(e) => {
                problems.push(e);
                break;
            }
        }
        // Stop at the pass count whose total is nearest to the budget.
        let next_ends =
            started.elapsed().as_secs_f64() + pass_started.elapsed().as_secs_f64() / 2.0;
        if opts.smoke || (passes.len() >= 2 && next_ends >= opts.seconds) {
            break;
        }
    }
    let num = |p: &Value, key: &str| p[key].as_f64().unwrap_or(f64::NAN);
    let column = |key: &str| -> Vec<f64> { passes.iter().map(|p| num(p, key)).collect() };
    let mut metrics = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    if let Some(first) = passes.first() {
        for key in [
            "fingerprint",
            "uplink_bytes_total",
            "tail_auc",
            "updates",
            "attempted",
            "failed",
        ] {
            if passes.iter().any(|p| p[key] != first[key]) {
                problems.push(format!("{key} differs between passes of one run"));
            }
        }
        if let Some(list) = first["problems"].as_array() {
            problems.extend(list.iter().filter_map(|p| p.as_str().map(String::from)));
        }
        attempted = column("attempted").iter().sum::<f64>() as usize;
        failed = column("failed").iter().sum::<f64>() as usize;
        let rates = |count: &str| -> Vec<f64> {
            passes
                .iter()
                .map(|p| num(p, count) / num(p, "wall_s"))
                .collect()
        };
        let setups: Vec<f64> = passes
            .iter()
            .filter_map(|p| p["setup_s"].as_array())
            .flatten()
            .filter_map(Value::as_f64)
            .collect();
        metrics.insert("setup_s", median(&setups));
        metrics.insert("rounds_per_s", median(&rates("rounds")));
        metrics.insert("client_updates_per_s", median(&rates("updates")));
        metrics.insert("cpu_s", median(&column("cpu_s")));
        metrics.insert("uplink_bytes_total", num(first, "uplink_bytes_total"));
        metrics.insert("tail_auc", num(first, "tail_auc"));
        // The lowest peak: higher ones are the two workers' largest tapes
        // happening to be alive at once, which differs pass to pass.
        let lowest_peak = column("peak_rss_mb")
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        metrics.insert("peak_rss_mb", lowest_peak);
    }
    println!(
        "{}: {} passes in {:.1} s (seed {}, {WORKERS} workers, FEDDA_THREADS={WORKERS})",
        spec.name,
        passes.len(),
        started.elapsed().as_secs_f64(),
        opts.seed
    );
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
    }
}

fn print_outcome(spec: &Spec, outcome: &Outcome, trace: bool) {
    let units: BTreeMap<&str, &str> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .collect();
    let kind = if trace { "per-layer" } else { "end-to-end" };
    println!("{} — {kind} metrics", spec.name);
    for (name, value) in &outcome.metrics {
        println!(
            "  {name:<34} {value:>16.4} {}",
            units.get(name).unwrap_or(&"")
        );
    }
    println!(
        "  ops attempted {} failed {} (share {:.4})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for p in &outcome.problems {
        println!("  CHECK FAILED: {p}");
    }
}

/// One run of one workload, as the contract's command line asks for it.
fn one_run(opts: &Options) -> Result<bool, String> {
    let spec = spec_for(opts)?;
    let outcome = if opts.trace {
        traced::traced(&spec, opts.seed, opts.seconds, opts.smoke, &opts.out)
    } else {
        untraced(&spec, opts)
    };
    print_outcome(&spec, &outcome, opts.trace);
    println!("{}", outcome.result_line(opts.trace)?);
    Ok(true)
}

/// Every workload untraced, then traced; fails if any check fails.
fn run_suite(opts: &Options) -> Result<bool, String> {
    let mut all_correct = true;
    let specs = workloads::all(opts.smoke);
    for spec in &specs {
        let outcome = untraced(spec, opts);
        print_outcome(spec, &outcome, false);
        all_correct &= outcome.correct();
    }
    for spec in &specs {
        let outcome = traced::traced(spec, opts.seed, opts.seconds, opts.smoke, &opts.out);
        print_outcome(spec, &outcome, true);
        all_correct &= outcome.correct();
    }
    Ok(all_correct)
}

/// Where the numbers were taken: cores, CPU model, compiler, thread budget.
fn machine_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown CPU", |l| l.trim_start_matches([' ', '\t', ':']));
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown rustc".into(), |v| v.trim().to_string());
    format!("{cores} cores, {cpu}, {rustc}, FEDDA_THREADS={WORKERS}, workers={WORKERS}")
}

/// Quartile spread as a share of the median, as the contract takes it.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The exclusive method of Python's `statistics.quantiles(v, n=4)`.
    let quantile = |q: f64| {
        let pos = q * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    (quantile(0.75) - quantile(0.25)) / median(&v)
}

/// The whole suite twice on one build: the two sides' medians must lie
/// within each metric's bound of each other, in either direction, and the
/// exact metrics must agree exactly. The sides run pair by pair, taking
/// turns to go first, so that a slow minute of the box falls on both.
fn selfcompare(opts: &Options) -> Result<bool, String> {
    const EXACT: [&str; 2] = ["uplink_bytes_total", "tail_auc"];
    let mut sides: [BTreeMap<(&str, &str), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut agree = true;
    for spec in workloads::all(opts.smoke) {
        let name = spec.name;
        for seed in 1..=SELFCOMPARE_SEEDS {
            let run = Options {
                seed,
                ..opts.clone()
            };
            let first = (seed % 2) as usize;
            for side in [first, 1 - first] {
                let outcome = untraced(&spec, &run);
                agree &= outcome.correct();
                for p in &outcome.problems {
                    println!("CHECK FAILED ({name}, seed {seed}): {p}");
                }
                for (metric, value) in outcome.metrics {
                    sides[side].entry((name, metric)).or_default().push(value);
                }
            }
        }
    }
    println!();
    println!(
        "Two sides of {SELFCOMPARE_SEEDS} runs per workload (run seeds 1..={SELFCOMPARE_SEEDS}), {}, on: {}",
        if opts.smoke {
            "one smoke pass each".to_string()
        } else {
            format!("{} s each", opts.seconds)
        },
        machine_fingerprint()
    );
    println!();
    println!(
        "| workload | metric | median A | median B | gap | bound | spread A | spread B | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for name in workloads::names() {
        for m in &END_TO_END {
            let key = (name, m.name);
            let (Some(a), Some(b)) = (sides[0].get(&key), sides[1].get(&key)) else {
                // A run that failed measured nothing.
                agree = false;
                println!(
                    "| {name} | {} | | | | | | | DISAGREE (not measured) |",
                    m.name
                );
                continue;
            };
            let (ma, mb) = (median(a), median(b));
            // Positive when side B reads worse than side A.
            let gap = if m.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let exact = EXACT.contains(&m.name);
            let ok = if exact { a == b } else { gap.abs() <= m.bound };
            agree &= ok;
            println!(
                "| {name} | {} | {ma:.4} | {mb:.4} | {:+.2}% | {:.0}% | {:.2}% | {:.2}% | {} |",
                m.name,
                gap * 100.0,
                m.bound * 100.0,
                spread(a) * 100.0,
                spread(b) * 100.0,
                match (ok, exact) {
                    (true, true) => "identical",
                    (true, false) => "within bound",
                    (false, _) => "DISAGREE",
                }
            );
        }
    }
    Ok(agree)
}

/// The hidden `pass` command: one pass, reported as one JSON line.
fn pass_command(opts: &Options) -> Result<bool, String> {
    let spec = spec_for(opts)?;
    let executed = pass::execute(&spec, opts.seed, WORKERS, SETUPS_PER_PASS)?;
    let report = pass::report(&spec, &executed);
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(true)
}

fn main() -> ExitCode {
    // Never more kernel threads than the reference box has cores. Set
    // before any thread exists; pass processes inherit it.
    std::env::set_var("FEDDA_THREADS", WORKERS.to_string());
    let outcome = parse_args().and_then(|opts| match opts.command.as_deref() {
        None => one_run(&opts),
        Some("run") => run_suite(&opts),
        Some("selfcompare") => selfcompare(&opts),
        Some("pass") => pass_command(&opts),
        Some("describe") => {
            let text = serde_json::to_string_pretty(&metrics::describe());
            println!("{}", text.map_err(|e| e.to_string())?);
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fedda-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> | run | selfcompare | describe"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_pythons_exclusive_quartile_distance_over_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // Unsorted input, and quartiles that interpolate between neighbours.
        assert!((spread(&[8.0, 1.0, 4.0, 2.0]) - (7.0 - 1.25) / 3.0).abs() < 1e-12);
        // Two values: Python extrapolates beyond both.
        assert!((spread(&[3.0, 1.0]) - (3.5 - 0.5) / 2.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut outcome = Outcome {
            attempted: 0,
            failed: 0,
            problems: vec![],
            metrics: END_TO_END.iter().map(|m| (m.name, 1.5)).collect(),
        };
        let line: Value = serde_json::from_str(&outcome.result_line(false).unwrap()).unwrap();
        assert_eq!(line["correct"], true);
        assert_eq!(line["attempted"], 1.0, "attempted is at least 1");
        let names: Vec<&str> = line["metrics"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        outcome.metrics.remove("cpu_s");
        assert!(
            outcome.result_line(false).is_err(),
            "a missing metric is an error"
        );
    }
}
