//! Schema-versioned kernel snapshots (`BENCH_<date>.json`).
//!
//! A [`Snapshot`] is the machine-readable record of one run of the fixed
//! kernel suite ([`crate::suite`]): per-case wall-time quartiles plus an
//! environment fingerprint. The format is versioned by [`SCHEMA_VERSION`];
//! `perf --ab` collects one snapshot per run of each binary and
//! [`crate::compare`] turns the paired runs into verdicts.
//!
//! Wall-clock reads for timing live in this bench crate — `clippy.toml`'s
//! `disallowed-methods` (invariant D2, DESIGN.md §6) keeps them out of every
//! other crate, so the harness observes timing without ever perturbing the
//! deterministic RNG streams.

#![expect(
    clippy::disallowed_methods,
    reason = "the perf harness is the workspace's wall-clock instrument"
)]

use serde_json::{json, Value};
use std::path::Path;
use std::time::Instant;

/// Version of the `BENCH_*.json` schema. Version 2 replaced version 1's
/// `mean_ns` with quartiles over at least [`MIN_SAMPLES`] samples and
/// dropped the profile label and seed (the suite has one profile and one
/// seed); version 1 files are history, not input.
pub const SCHEMA_VERSION: u64 = 2;

/// Fewest samples a schema v2 case may carry: below this the quartiles
/// say nothing.
pub const MIN_SAMPLES: u64 = 10;

/// First quartile, median and third quartile of `samples`, by the
/// exclusive method of Python's `statistics.quantiles(v, n=4)` — the
/// estimator the repo benchmark's `spread` uses — with ranks clamped to
/// the sample range, so nothing extrapolates past the extremes.
///
/// # Panics
///
/// On an empty slice.
pub fn quartiles(samples: &[u64]) -> [f64; 3] {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len();
    let at = |rank: usize| v[rank.min(n) - 1] as f64;
    [0.25, 0.5, 0.75].map(|q| {
        let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        at(lo) + (pos - lo as f64) * (at(lo + 1) - at(lo))
    })
}

/// Wall-time statistics of one benchmark case, in nanoseconds per
/// iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseResult {
    /// Stable case identifier, e.g. `gemm/nn/2525x48x48`.
    pub name: String,
    /// Timed iterations per sample.
    pub iters: u64,
    /// Number of samples taken (each sample times `iters` iterations).
    pub samples: u64,
    /// First quartile over samples of per-iteration wall time (ns).
    pub q1_ns: u64,
    /// Median over samples (ns/iter) — the number `perf --ab` pairs.
    pub median_ns: u64,
    /// Third quartile over samples (ns/iter).
    pub q3_ns: u64,
    /// Fastest sample (ns/iter) — the low-noise floor.
    pub min_ns: u64,
}

impl CaseResult {
    fn to_value(&self) -> Value {
        json!({
            "name": self.name,
            "iters": self.iters,
            "samples": self.samples,
            "q1_ns": self.q1_ns,
            "median_ns": self.median_ns,
            "q3_ns": self.q3_ns,
            "min_ns": self.min_ns,
        })
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let field = |k: &str| -> Result<u64, String> {
            v[k].as_u64()
                .ok_or_else(|| format!("case field {k:?} missing or not a non-negative integer"))
        };
        let case = Self {
            name: v["name"]
                .as_str()
                .ok_or("case field \"name\" missing or not a string")?
                .to_string(),
            iters: field("iters")?,
            samples: field("samples")?,
            q1_ns: field("q1_ns")?,
            median_ns: field("median_ns")?,
            q3_ns: field("q3_ns")?,
            min_ns: field("min_ns")?,
        };
        if case.samples < MIN_SAMPLES {
            return Err(format!(
                "case {:?} has {} samples; schema v{SCHEMA_VERSION} needs at least {MIN_SAMPLES}",
                case.name, case.samples
            ));
        }
        Ok(case)
    }
}

/// Fingerprint of the environment a snapshot was taken in. Cross-machine
/// comparisons are only order-of-magnitude meaningful; the fingerprint
/// makes the provenance explicit.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvFingerprint {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Logical CPUs visible to the process.
    pub cpus: u64,
    /// The kernel thread budget (`fedda_tensor::gemm::configured_threads`).
    pub kernel_threads: u64,
    /// Raw `FEDDA_THREADS` env var, if set.
    pub fedda_threads_env: Option<String>,
    /// `release` or `debug`.
    pub profile: String,
}

impl EnvFingerprint {
    /// Capture the current process environment.
    pub fn capture() -> Self {
        Self {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            kernel_threads: fedda_tensor::gemm::configured_threads() as u64,
            fedda_threads_env: std::env::var("FEDDA_THREADS").ok(),
            profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
        }
    }

    fn to_value(&self) -> Value {
        json!({
            "os": self.os,
            "arch": self.arch,
            "cpus": self.cpus,
            "kernel_threads": self.kernel_threads,
            "fedda_threads_env": match &self.fedda_threads_env {
                Some(v) => json!(v.as_str()),
                None => Value::Null,
            },
            "profile": self.profile,
        })
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let s = |k: &str| -> Result<String, String> {
            v[k].as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("env field {k:?} missing or not a string"))
        };
        let n = |k: &str| -> Result<u64, String> {
            v[k].as_u64()
                .ok_or_else(|| format!("env field {k:?} missing or not an integer"))
        };
        Ok(Self {
            os: s("os")?,
            arch: s("arch")?,
            cpus: n("cpus")?,
            kernel_threads: n("kernel_threads")?,
            fedda_threads_env: v["fedda_threads_env"].as_str().map(str::to_string),
            profile: s("profile")?,
        })
    }
}

/// One full suite run: capture date, environment fingerprint and per-case
/// results. Written and read as schema [`SCHEMA_VERSION`] only.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// UTC capture date, `YYYY-MM-DD`.
    pub created: String,
    /// Environment fingerprint.
    pub env: EnvFingerprint,
    /// Per-case timing results, in suite order.
    pub cases: Vec<CaseResult>,
}

impl Snapshot {
    /// The repo-root naming convention: `BENCH_<date>.json`.
    pub fn default_path(created: &str) -> String {
        format!("BENCH_{created}.json")
    }

    /// Look up a case by name.
    pub fn case(&self, name: &str) -> Option<&CaseResult> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// Serialize to the JSON tree written to `BENCH_*.json`.
    pub fn to_value(&self) -> Value {
        json!({
            "schema_version": SCHEMA_VERSION,
            "created": self.created,
            "env": self.env.to_value(),
            "cases": self.cases.iter().map(CaseResult::to_value).collect::<Vec<_>>(),
        })
    }

    /// Rebuild from a parsed JSON tree. Any schema version but
    /// [`SCHEMA_VERSION`] is refused, version 1 by name.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        match v["schema_version"].as_u64() {
            Some(SCHEMA_VERSION) => {}
            Some(1) => {
                return Err(format!(
                    "schema v1 snapshot (3–5 samples, no quartiles: read-only history); \
                     this binary reads schema v{SCHEMA_VERSION} only"
                ))
            }
            Some(other) => {
                return Err(format!(
                    "unsupported schema_version {other} (this binary reads {SCHEMA_VERSION})"
                ))
            }
            None => return Err("missing schema_version".into()),
        }
        let cases = match &v["cases"] {
            Value::Array(items) => items
                .iter()
                .map(CaseResult::from_value)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing cases array".into()),
        };
        Ok(Self {
            created: v["created"]
                .as_str()
                .ok_or("missing created date")?
                .to_string(),
            env: EnvFingerprint::from_value(&v["env"])?,
            cases,
        })
    }

    /// Parse a snapshot file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value = serde_json::from_str::<Value>(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        Self::from_value(&value).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write the snapshot (pretty-printed, trailing newline).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        fedda::report::write_json(path, &self.to_value())
    }
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (civil-date
/// conversion per Howard Hinnant's `days_from_civil` inverse — no calendar
/// dependency).
pub fn utc_today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Convert days since 1970-01-01 to a (year, month, day) civil date.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Time one case: `samples` timed samples of `iters` iterations each,
/// after one untimed warm-up iteration. Returns per-iteration statistics.
pub fn time_case<F: FnMut()>(name: &str, samples: u64, iters: u64, mut f: F) -> CaseResult {
    let samples = samples.max(1);
    let iters = iters.max(1);
    f(); // warm-up: fault in code paths and caches before the first sample
    let mut per_iter_ns: Vec<u64> = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let total = start.elapsed().as_nanos();
        per_iter_ns.push((total / u128::from(iters)).min(u128::from(u64::MAX)) as u64);
    }
    let [q1, median, q3] = quartiles(&per_iter_ns);
    CaseResult {
        name: name.to_string(),
        iters,
        samples,
        q1_ns: q1.round() as u64,
        median_ns: median.round() as u64,
        q3_ns: q3.round() as u64,
        min_ns: per_iter_ns.into_iter().min().unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let case = |name: &str, iters, median_ns| CaseResult {
            name: name.into(),
            iters,
            samples: MIN_SAMPLES,
            q1_ns: median_ns - median_ns / 20,
            median_ns,
            q3_ns: median_ns + median_ns / 10,
            min_ns: median_ns - median_ns / 10,
        };
        Snapshot {
            created: "2026-10-01".into(),
            env: EnvFingerprint {
                os: "linux".into(),
                arch: "x86_64".into(),
                cpus: 8,
                kernel_threads: 4,
                fedda_threads_env: Some("4".into()),
                profile: "release".into(),
            },
            cases: vec![
                case("gemm/nn/2525x48x16", 3, 1_000),
                case("codec/q8/encode/n87554", 8, 2_000_000),
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample_snapshot();
        let text = serde_json::to_string_pretty(&snap.to_value()).unwrap();
        let back = Snapshot::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_round_trips_through_file() {
        let dir = std::env::temp_dir().join("fedda_snapshot_test");
        let path = dir.join("BENCH_2026-10-01.json");
        let snap = sample_snapshot();
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back, snap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn none_env_var_round_trips_as_null() {
        let mut snap = sample_snapshot();
        snap.env.fedda_threads_env = None;
        let back = Snapshot::from_value(&snap.to_value()).unwrap();
        assert_eq!(back.env.fedda_threads_env, None);
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let mut v = sample_snapshot().to_value();
        v["schema_version"] = json!(SCHEMA_VERSION + 1);
        let err = Snapshot::from_value(&v).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "{err}");
        // The previous schema is refused by name, with both versions.
        v["schema_version"] = json!(1);
        let err = Snapshot::from_value(&v).unwrap_err();
        assert!(
            err.contains("schema v1") && err.contains("schema v2"),
            "{err}"
        );
    }

    #[test]
    fn malformed_cases_are_rejected_with_field_names() {
        let mut v = sample_snapshot().to_value();
        v["cases"] = json!([{ "name": "x", "iters": 1 }]);
        let err = Snapshot::from_value(&v).unwrap_err();
        assert!(err.contains("samples"), "{err}");
        // Too few samples for quartiles is malformed too.
        let mut v = sample_snapshot().to_value();
        v["cases"][0]["samples"] = json!(MIN_SAMPLES - 1);
        let err = Snapshot::from_value(&v).unwrap_err();
        assert!(err.contains("needs at least 10"), "{err}");
    }

    #[test]
    fn default_path_follows_convention() {
        assert_eq!(
            Snapshot::default_path("2026-08-08"),
            "BENCH_2026-08-08.json"
        );
    }

    #[test]
    fn civil_date_conversion_hits_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(19_782), (2024, 2, 29)); // leap day
        assert_eq!(civil_from_days(20_663), (2026, 7, 29));
        let today = utc_today();
        assert_eq!(today.len(), 10);
        assert_eq!(today.as_bytes()[4], b'-');
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // Python: statistics.quantiles([10, ..., 100], n=4) = [27.5, 55, 82.5].
        let ten: Vec<u64> = (1..=10).rev().map(|i| i * 10).collect();
        assert_eq!(quartiles(&ten), [27.5, 55.0, 82.5]);
        // Ranks clamp to the sample range instead of extrapolating.
        assert_eq!(quartiles(&[7]), [7.0, 7.0, 7.0]);
        assert_eq!(quartiles(&[4, 2]), [2.0, 3.0, 4.0]);
    }

    #[test]
    fn time_case_produces_ordered_stats() {
        let mut x = 0u64;
        let res = time_case("busy", 5, 10, || {
            for i in 0..100 {
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
        });
        assert_eq!(res.samples, 5);
        assert_eq!(res.iters, 10);
        assert!(res.min_ns <= res.q1_ns);
        assert!(res.q1_ns <= res.median_ns && res.median_ns <= res.q3_ns);
        assert!(res.median_ns > 0 || res.min_ns == 0);
    }

    #[test]
    fn zero_samples_and_iters_are_clamped() {
        let res = time_case("noop", 0, 0, || {});
        assert_eq!(res.samples, 1);
        assert_eq!(res.iters, 1);
    }
}
