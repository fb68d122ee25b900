//! Regression diff between two [`Snapshot`]s (`perf --compare old new`).
//!
//! The verdict is driven by per-case `median_ns` ratios against a
//! configurable threshold (default [`DEFAULT_THRESHOLD`] = 10%): a case
//! whose median slowed down by more than the threshold is a regression, as
//! is a case that disappeared from the new snapshot (coverage must never
//! silently shrink). New cases are reported but pass.

use crate::snapshot::Snapshot;
use fedda::table::TextTable;

/// Default regression threshold: 10% median slowdown.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// Per-case outcome of a snapshot diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Median slowed down beyond the threshold.
    Regression,
    /// Median sped up beyond the threshold.
    Improvement,
    /// Within the threshold either way.
    Unchanged,
    /// Present in the old snapshot, missing from the new — treated as a
    /// failure so suite coverage cannot silently shrink.
    MissingInNew,
    /// Only present in the new snapshot (fresh coverage; passes).
    NewCase,
}

impl Verdict {
    /// Short display form for the delta table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improvement => "improvement",
            Verdict::Unchanged => "unchanged",
            Verdict::MissingInNew => "MISSING",
            Verdict::NewCase => "new",
        }
    }
}

/// One case's delta between two snapshots.
#[derive(Clone, Debug)]
pub struct CaseDelta {
    /// Case name.
    pub name: String,
    /// Old median (ns/iter), when the case exists in the old snapshot.
    pub old_median_ns: Option<u64>,
    /// New median (ns/iter), when the case exists in the new snapshot.
    pub new_median_ns: Option<u64>,
    /// `new / old` median ratio, when both sides exist.
    pub ratio: Option<f64>,
    /// The verdict under the comparison's threshold.
    pub verdict: Verdict,
}

/// The result of diffing two snapshots.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Per-case deltas: old-snapshot suite order, then any new cases.
    pub deltas: Vec<CaseDelta>,
    /// The threshold the verdicts were computed under.
    pub threshold: f64,
}

impl Comparison {
    /// Cases that fail the gate ([`Verdict::Regression`] or
    /// [`Verdict::MissingInNew`]).
    pub fn failures(&self) -> Vec<&CaseDelta> {
        self.deltas
            .iter()
            .filter(|d| matches!(d.verdict, Verdict::Regression | Verdict::MissingInNew))
            .collect()
    }

    /// Whether the new snapshot passes the regression gate.
    pub fn passes(&self) -> bool {
        self.failures().is_empty()
    }

    /// Render the per-case delta table plus a one-line summary.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(&["Case", "Old (ns)", "New (ns)", "New/Old", "Verdict"]);
        for d in &self.deltas {
            table.row(&[
                d.name.clone(),
                d.old_median_ns.map_or("-".into(), |n| n.to_string()),
                d.new_median_ns.map_or("-".into(), |n| n.to_string()),
                d.ratio.map_or("-".into(), |r| format!("{r:.3}")),
                d.verdict.label().into(),
            ]);
        }
        let failures = self.failures();
        let summary = if failures.is_empty() {
            format!(
                "OK: {} cases within the {:.0}% regression threshold",
                self.deltas.len(),
                self.threshold * 100.0
            )
        } else {
            format!(
                "FAIL: {}/{} cases regress beyond the {:.0}% threshold: {}",
                failures.len(),
                self.deltas.len(),
                self.threshold * 100.0,
                failures
                    .iter()
                    .map(|d| d.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        format!("{}\n{summary}", table.render())
    }
}

/// Diff two snapshots under `threshold`. Returns an error when the schema
/// versions differ (load already pins each file to [`crate::snapshot::SCHEMA_VERSION`],
/// so this only trips on hand-built values).
pub fn compare(old: &Snapshot, new: &Snapshot, threshold: f64) -> Result<Comparison, String> {
    if old.schema_version != new.schema_version {
        return Err(format!(
            "schema_version mismatch: old {} vs new {}",
            old.schema_version, new.schema_version
        ));
    }
    let mut deltas = Vec::with_capacity(old.cases.len());
    for oc in &old.cases {
        match new.case(&oc.name) {
            Some(nc) => {
                let ratio = nc.median_ns as f64 / (oc.median_ns as f64).max(1.0);
                let verdict = if ratio > 1.0 + threshold {
                    Verdict::Regression
                } else if ratio < 1.0 - threshold {
                    Verdict::Improvement
                } else {
                    Verdict::Unchanged
                };
                deltas.push(CaseDelta {
                    name: oc.name.clone(),
                    old_median_ns: Some(oc.median_ns),
                    new_median_ns: Some(nc.median_ns),
                    ratio: Some(ratio),
                    verdict,
                });
            }
            None => deltas.push(CaseDelta {
                name: oc.name.clone(),
                old_median_ns: Some(oc.median_ns),
                new_median_ns: None,
                ratio: None,
                verdict: Verdict::MissingInNew,
            }),
        }
    }
    for nc in &new.cases {
        if old.case(&nc.name).is_none() {
            deltas.push(CaseDelta {
                name: nc.name.clone(),
                old_median_ns: None,
                new_median_ns: Some(nc.median_ns),
                ratio: None,
                verdict: Verdict::NewCase,
            });
        }
    }
    Ok(Comparison { deltas, threshold })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CaseResult, EnvFingerprint, Snapshot, SCHEMA_VERSION};

    fn snap(cases: &[(&str, u64)]) -> Snapshot {
        Snapshot {
            schema_version: SCHEMA_VERSION,
            created: "2026-08-08".into(),
            label: "smoke".into(),
            seed: 0,
            env: EnvFingerprint::capture(),
            cases: cases
                .iter()
                .map(|(name, median)| CaseResult {
                    name: name.to_string(),
                    iters: 1,
                    samples: 3,
                    median_ns: *median,
                    min_ns: *median,
                    mean_ns: *median,
                    clients_per_sec: None,
                    rounds_per_sec: None,
                })
                .collect(),
        }
    }

    #[test]
    fn identical_snapshots_pass() {
        let a = snap(&[("gemm/nn/2525x48x16", 1000), ("hgn/forward", 5000)]);
        let cmp = compare(&a, &a.clone(), DEFAULT_THRESHOLD).unwrap();
        assert!(cmp.passes());
        assert_eq!(cmp.deltas.len(), 2);
        assert!(cmp.deltas.iter().all(|d| d.verdict == Verdict::Unchanged));
        assert!(cmp.render().contains("OK: 2 cases"));
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let old = snap(&[("a", 1000), ("b", 1000)]);
        let new = snap(&[("a", 1111), ("b", 1000)]); // a: +11.1% > 10%
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD).unwrap();
        assert!(!cmp.passes());
        assert_eq!(cmp.failures().len(), 1);
        assert_eq!(cmp.deltas[0].verdict, Verdict::Regression);
        assert_eq!(cmp.deltas[1].verdict, Verdict::Unchanged);
        assert!(cmp.render().contains("FAIL: 1/2"));
        // A looser threshold turns the same delta into a pass.
        assert!(compare(&old, &new, 0.20).unwrap().passes());
    }

    #[test]
    fn improvement_is_reported_but_passes() {
        let old = snap(&[("a", 1000)]);
        let new = snap(&[("a", 500)]);
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD).unwrap();
        assert!(cmp.passes());
        assert_eq!(cmp.deltas[0].verdict, Verdict::Improvement);
        let ratio = cmp.deltas[0].ratio.unwrap();
        assert!((ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn missing_case_fails_and_new_case_passes() {
        let old = snap(&[("a", 1000), ("dropped", 1000)]);
        let new = snap(&[("a", 1000), ("added", 1000)]);
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD).unwrap();
        assert!(!cmp.passes());
        let by_name = |n: &str| {
            cmp.deltas
                .iter()
                .find(|d| d.name == n)
                .map(|d| d.verdict)
                .unwrap()
        };
        assert_eq!(by_name("dropped"), Verdict::MissingInNew);
        assert_eq!(by_name("added"), Verdict::NewCase);
        assert_eq!(by_name("a"), Verdict::Unchanged);
        assert!(cmp.render().contains("MISSING"));
    }

    #[test]
    fn exact_threshold_boundary_is_not_a_regression() {
        let old = snap(&[("a", 1000)]);
        let new = snap(&[("a", 1100)]); // exactly +10%
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD).unwrap();
        assert!(cmp.passes());
        assert_eq!(cmp.deltas[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn schema_version_mismatch_is_an_error() {
        let old = snap(&[("a", 1000)]);
        let mut new = snap(&[("a", 1000)]);
        new.schema_version += 1;
        assert!(compare(&old, &new, DEFAULT_THRESHOLD).is_err());
    }
}
