//! Schema-versioned performance snapshots (`BENCH_<date>.json`).
//!
//! A [`Snapshot`] is the machine-readable record of one run of the fixed
//! perf suite ([`crate::suite`]): per-case wall-time statistics plus an
//! environment fingerprint, written to the repo root so perf claims stay
//! verifiable across PRs. The format is versioned by [`SCHEMA_VERSION`];
//! [`crate::compare`] diffs two snapshots and flags regressions.
//!
//! Wall-clock reads live in this bench crate only — the `fl` protocol code
//! is kept wall-clock-free by fedda-lint's D2 rule, so the harness observes
//! timing without ever perturbing the deterministic RNG streams.

use serde_json::{json, Value};
use std::path::Path;
use std::time::Instant;

/// Version of the `BENCH_*.json` schema. Bump on any incompatible change
/// (renamed fields, changed units); `--compare` refuses to diff snapshots
/// with mismatched versions.
pub const SCHEMA_VERSION: u64 = 1;

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
    /// Median over samples of per-iteration wall time (ns) — the number
    /// `--compare` verdicts use.
    pub median_ns: u64,
    /// Fastest sample (ns/iter) — the low-noise floor.
    pub min_ns: u64,
    /// Mean over samples (ns/iter).
    pub mean_ns: u64,
    /// Derived throughput for FL cases: dispatched clients per second at
    /// the median. Additive optional field — absent for non-FL cases and
    /// in snapshots written before it existed, so the schema version is
    /// unchanged.
    pub clients_per_sec: Option<f64>,
    /// Derived throughput for FL cases: rounds per second at the median
    /// (additive optional field, same compatibility rules).
    pub rounds_per_sec: Option<f64>,
}

impl CaseResult {
    fn to_value(&self) -> Value {
        let mut v = json!({
            "name": self.name,
            "iters": self.iters,
            "samples": self.samples,
            "median_ns": self.median_ns,
            "min_ns": self.min_ns,
            "mean_ns": self.mean_ns,
        });
        if let Some(cps) = self.clients_per_sec {
            v["clients_per_sec"] = json!(cps);
        }
        if let Some(rps) = self.rounds_per_sec {
            v["rounds_per_sec"] = json!(rps);
        }
        v
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let field = |k: &str| -> Result<u64, String> {
            v[k].as_u64()
                .ok_or_else(|| format!("case field {k:?} missing or not a non-negative integer"))
        };
        Ok(Self {
            name: v["name"]
                .as_str()
                .ok_or("case field \"name\" missing or not a string")?
                .to_string(),
            iters: field("iters")?,
            samples: field("samples")?,
            median_ns: field("median_ns")?,
            min_ns: field("min_ns")?,
            mean_ns: field("mean_ns")?,
            // Lenient on purpose: older snapshots predate these fields.
            clients_per_sec: v["clients_per_sec"].as_f64(),
            rounds_per_sec: v["rounds_per_sec"].as_f64(),
        })
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

/// One full perf-suite run: schema version, capture date, profile label,
/// environment fingerprint and per-case results.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// [`SCHEMA_VERSION`] at capture time.
    pub schema_version: u64,
    /// UTC capture date, `YYYY-MM-DD`.
    pub created: String,
    /// Suite profile: `smoke` or `full`.
    pub label: String,
    /// Base seed the suite inputs were generated from.
    pub seed: u64,
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
            "schema_version": self.schema_version,
            "created": self.created,
            "label": self.label,
            "seed": self.seed,
            "env": self.env.to_value(),
            "cases": self.cases.iter().map(CaseResult::to_value).collect::<Vec<_>>(),
        })
    }

    /// Rebuild from a parsed JSON tree, validating the schema version.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let version = v["schema_version"]
            .as_u64()
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this binary reads {SCHEMA_VERSION})"
            ));
        }
        let cases = match &v["cases"] {
            Value::Array(items) => items
                .iter()
                .map(CaseResult::from_value)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing cases array".into()),
        };
        Ok(Self {
            schema_version: version,
            created: v["created"]
                .as_str()
                .ok_or("missing created date")?
                .to_string(),
            label: v["label"].as_str().ok_or("missing label")?.to_string(),
            seed: v["seed"].as_u64().ok_or("missing seed")?,
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
    per_iter_ns.sort_unstable();
    let median_ns = per_iter_ns[per_iter_ns.len() / 2];
    let min_ns = per_iter_ns[0];
    let mean_ns = (per_iter_ns.iter().map(|&n| u128::from(n)).sum::<u128>()
        / per_iter_ns.len() as u128) as u64;
    CaseResult {
        name: name.to_string(),
        iters,
        samples,
        median_ns,
        min_ns,
        mean_ns,
        clients_per_sec: None,
        rounds_per_sec: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_snapshot() -> Snapshot {
        Snapshot {
            schema_version: SCHEMA_VERSION,
            created: "2026-08-08".into(),
            label: "smoke".into(),
            seed: 0,
            env: EnvFingerprint {
                os: "linux".into(),
                arch: "x86_64".into(),
                cpus: 8,
                kernel_threads: 4,
                fedda_threads_env: Some("4".into()),
                profile: "release".into(),
            },
            cases: vec![
                CaseResult {
                    name: "gemm/nn/2525x48x16".into(),
                    iters: 3,
                    samples: 5,
                    median_ns: 1_000,
                    min_ns: 900,
                    mean_ns: 1_050,
                    clients_per_sec: None,
                    rounds_per_sec: None,
                },
                CaseResult {
                    name: "fl_round/fedavg/s0.0015".into(),
                    iters: 1,
                    samples: 3,
                    median_ns: 2_000_000,
                    min_ns: 1_900_000,
                    mean_ns: 2_100_000,
                    clients_per_sec: Some(16_000.0),
                    rounds_per_sec: Some(500.0),
                },
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
        let path = dir.join("BENCH_2026-08-08.json");
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
    fn throughput_fields_are_additive_and_lenient() {
        let v = sample_snapshot().to_value();
        // Written only where set…
        assert!(v["cases"][0].get("clients_per_sec").is_none());
        assert_eq!(v["cases"][1]["clients_per_sec"].as_f64(), Some(16_000.0));
        assert_eq!(v["cases"][1]["rounds_per_sec"].as_f64(), Some(500.0));
        // …and snapshots from before the fields existed read back as None,
        // without a schema bump.
        let mut old = v.clone();
        let case = old["cases"][1].as_object_mut().unwrap();
        case.retain(|(k, _)| k != "clients_per_sec" && k != "rounds_per_sec");
        let back = Snapshot::from_value(&old).unwrap();
        assert_eq!(back.cases[1].clients_per_sec, None);
        assert_eq!(back.cases[1].rounds_per_sec, None);
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let mut v = sample_snapshot().to_value();
        v["schema_version"] = json!(SCHEMA_VERSION + 1);
        let err = Snapshot::from_value(&v).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "{err}");
    }

    #[test]
    fn malformed_cases_are_rejected_with_field_names() {
        let mut v = sample_snapshot().to_value();
        v["cases"] = json!([{ "name": "x", "iters": 1 }]);
        let err = Snapshot::from_value(&v).unwrap_err();
        assert!(err.contains("samples"), "{err}");
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
        assert!(res.min_ns <= res.median_ns);
        assert!(res.median_ns > 0 || res.min_ns == 0);
    }

    #[test]
    fn zero_samples_and_iters_are_clamped() {
        let res = time_case("noop", 0, 0, || {});
        assert_eq!(res.samples, 1);
        assert_eq!(res.iters, 1);
    }
}
