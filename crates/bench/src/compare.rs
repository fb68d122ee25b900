//! The paired verdict behind `perf --ab <old-binary> <new-binary>`.
//!
//! Two snapshots taken one after the other cannot be told apart from a
//! regression on a shared box: two back-to-back runs of one binary put
//! the same GEMM case 1.5–2× apart (DESIGN.md §10). So the two sides run
//! as [`PAIRS`] alternating pairs, and a case is called faster or slower
//! only when one side wins at least nine tenths of the pairs, ties
//! counting for neither, *and* the medians differ by more than the old
//! side's own inter-quartile range. Everything else is *unresolved* —
//! which is a result, not a pass or a failure of the change.
//!
//! A case the old side has and the new side lacks fails (coverage must
//! never silently shrink); a case only the new side has is reported and
//! passes.

use crate::snapshot::{quartiles, Snapshot};
use fedda::table::TextTable;

/// Pairs of runs `perf --ab` takes, each side going first in half of them.
pub const PAIRS: usize = 10;

/// Per-case outcome of an A/B comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The new side lost the pairs and the gap exceeds the old side's IQR.
    Regression,
    /// The new side won the pairs and the gap exceeds the old side's IQR.
    Improvement,
    /// Too few wins either way, or a gap inside the old side's spread.
    Unresolved,
    /// Present on the old side, missing from the new — treated as a
    /// failure so suite coverage cannot silently shrink.
    MissingInNew,
    /// Only present on the new side (fresh coverage; passes).
    NewCase,
}

impl Verdict {
    /// Short display form for the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improvement => "improvement",
            Verdict::Unresolved => "unresolved",
            Verdict::MissingInNew => "MISSING",
            Verdict::NewCase => "new",
        }
    }
}

/// What the pairing rule sees in one case's two sample vectors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Paired {
    /// Pairs the old side won (strictly lower time).
    pub old_wins: usize,
    /// Pairs the new side won.
    pub new_wins: usize,
    /// Quartiles of the old side's samples.
    pub old: [f64; 3],
    /// Quartiles of the new side's samples.
    pub new: [f64; 3],
    /// [`Verdict::Regression`], [`Verdict::Improvement`] or
    /// [`Verdict::Unresolved`].
    pub verdict: Verdict,
}

/// The pairing rule: `old[i]` and `new[i]` are the two sides of pair `i`
/// (lower is better).
///
/// # Panics
///
/// When the vectors are empty or differ in length.
pub fn paired(old: &[u64], new: &[u64]) -> Paired {
    assert_eq!(old.len(), new.len(), "each pair has two sides");
    let wins = |a: &[u64], b: &[u64]| a.iter().zip(b).filter(|(a, b)| a < b).count();
    let (old_wins, new_wins) = (wins(old, new), wins(new, old));
    let (old_q, new_q) = (quartiles(old), quartiles(new));
    let needed = (9 * old.len()).div_ceil(10);
    let iqr = old_q[2] - old_q[0];
    let gap = new_q[1] - old_q[1];
    let verdict = if new_wins >= needed && -gap > iqr {
        Verdict::Improvement
    } else if old_wins >= needed && gap > iqr {
        Verdict::Regression
    } else {
        Verdict::Unresolved
    };
    Paired {
        old_wins,
        new_wins,
        old: old_q,
        new: new_q,
        verdict,
    }
}

/// One case's row of the comparison.
#[derive(Clone, Debug)]
pub struct CaseDelta {
    /// Case name.
    pub name: String,
    /// The pairing rule's view, when both sides ran the case.
    pub paired: Option<Paired>,
    /// The verdict.
    pub verdict: Verdict,
}

/// The result of one A/B comparison.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Per-case rows: old-side suite order, then any new cases.
    pub deltas: Vec<CaseDelta>,
    /// Pairs run.
    pub pairs: usize,
}

impl Comparison {
    /// How many cases came out with `verdict`.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.deltas.iter().filter(|d| d.verdict == verdict).count()
    }

    /// Whether the new side passes: no case regressed or went missing.
    pub fn passes(&self) -> bool {
        self.count(Verdict::Regression) + self.count(Verdict::MissingInNew) == 0
    }

    /// Render the per-case table plus a one-line summary.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(&[
            "Case",
            "Old median (ns)",
            "Old IQR (ns)",
            "New median (ns)",
            "New/Old",
            "Pairs",
            "Old wins",
            "New wins",
            "Verdict",
        ]);
        for d in &self.deltas {
            let mut row = vec![d.name.clone()];
            match &d.paired {
                Some(p) => row.extend([
                    format!("{:.0}", p.old[1]),
                    format!("{:.0}", p.old[2] - p.old[0]),
                    format!("{:.0}", p.new[1]),
                    format!("{:.3}", p.new[1] / p.old[1].max(1.0)),
                    self.pairs.to_string(),
                    p.old_wins.to_string(),
                    p.new_wins.to_string(),
                ]),
                None => row.extend(std::iter::repeat("-".to_string()).take(7)),
            }
            row.push(d.verdict.label().into());
            table.row(&row);
        }
        format!(
            "{}\n{} cases over {} pairs: {} unresolved, {} improved, {} regressed, {} missing, {} new",
            table.render(),
            self.deltas.len(),
            self.pairs,
            self.count(Verdict::Unresolved),
            self.count(Verdict::Improvement),
            self.count(Verdict::Regression),
            self.count(Verdict::MissingInNew),
            self.count(Verdict::NewCase),
        )
    }
}

/// Compare the two sides of an A/B run: `old[i]` and `new[i]` are the
/// snapshots of pair `i`, and a case's sample in a run is its `median_ns`.
/// A side has a case only when every one of its runs does.
pub fn compare(old: &[Snapshot], new: &[Snapshot]) -> Comparison {
    assert_eq!(old.len(), new.len(), "each pair has two sides");
    let samples = |runs: &[Snapshot], name: &str| -> Option<Vec<u64>> {
        runs.iter()
            .map(|s| s.case(name).map(|c| c.median_ns))
            .collect()
    };
    let names = |runs: &[Snapshot]| -> Vec<String> {
        let first = runs.first().into_iter().flat_map(|s| &s.cases);
        first.map(|c| c.name.clone()).collect()
    };
    let mut deltas = Vec::new();
    for name in names(old) {
        let paired = samples(old, &name)
            .zip(samples(new, &name))
            .map(|(o, n)| paired(&o, &n));
        let verdict = paired.map_or(Verdict::MissingInNew, |p| p.verdict);
        deltas.push(CaseDelta {
            name,
            paired,
            verdict,
        });
    }
    for name in names(new) {
        if deltas.iter().all(|d| d.name != name) {
            deltas.push(CaseDelta {
                name,
                paired: None,
                verdict: Verdict::NewCase,
            });
        }
    }
    Comparison {
        deltas,
        pairs: old.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CaseResult, EnvFingerprint, MIN_SAMPLES};

    /// Ten old-side samples with quartiles 1 000 / 1 020 / 1 040 (IQR 40).
    const OLD: [u64; 10] = [990, 1000, 1000, 1010, 1020, 1020, 1030, 1040, 1040, 1050];

    fn shifted(by: i64) -> Vec<u64> {
        OLD.iter().map(|&o| (o as i64 + by) as u64).collect()
    }

    /// One snapshot per pair; `cases` maps a name to its per-pair medians.
    fn runs(cases: &[(&str, &[u64])]) -> Vec<Snapshot> {
        (0..PAIRS)
            .map(|pair| Snapshot {
                created: "2026-10-01".into(),
                env: EnvFingerprint::capture(),
                cases: cases
                    .iter()
                    .map(|(name, medians)| CaseResult {
                        name: name.to_string(),
                        iters: 1,
                        samples: MIN_SAMPLES,
                        q1_ns: medians[pair],
                        median_ns: medians[pair],
                        q3_ns: medians[pair],
                        min_ns: medians[pair],
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn identical_snapshots_pass() {
        // Every pair ties: no side wins anything, nothing resolves.
        let p = paired(&OLD, &OLD);
        assert_eq!((p.old_wins, p.new_wins), (0, 0));
        assert_eq!(p.verdict, Verdict::Unresolved);
        let side = runs(&[
            ("gemm/nn/2525x48x16", &OLD),
            ("optim/adam_step/n87554", &OLD),
        ]);
        let cmp = compare(&side, &side);
        assert!(cmp.passes());
        assert_eq!(cmp.count(Verdict::Unresolved), 2);
        assert!(cmp.render().contains("2 cases over 10 pairs: 2 unresolved"));
    }

    #[test]
    fn improvement_is_reported_but_passes() {
        // 10/10 wins, medians 50 apart against an IQR of 40.
        let p = paired(&OLD, &shifted(-50));
        assert_eq!((p.old_wins, p.new_wins), (0, 10));
        assert_eq!(p.old, [1000.0, 1020.0, 1040.0]);
        assert_eq!(p.verdict, Verdict::Improvement);
        let cmp = compare(&runs(&[("a", &OLD)]), &runs(&[("a", &shifted(-50))]));
        assert!(cmp.passes());
        assert_eq!(cmp.deltas[0].verdict, Verdict::Improvement);
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        // Both thresholds crossed: 10/10 losses, medians 50 apart.
        let p = paired(&OLD, &shifted(50));
        assert_eq!((p.old_wins, p.new_wins), (10, 0));
        assert_eq!(p.verdict, Verdict::Regression);
        let cmp = compare(&runs(&[("a", &OLD)]), &runs(&[("a", &shifted(50))]));
        assert!(!cmp.passes());
        assert!(cmp.render().contains("REGRESSION"));
        // Nine of ten is still enough…
        let mut nine = shifted(50);
        nine[0] = OLD[0] - 1;
        assert_eq!(paired(&OLD, &nine).verdict, Verdict::Regression);
    }

    #[test]
    fn eight_wins_of_ten_is_unresolved() {
        // …eight is not, however wide the gap, in either direction.
        for by in [-500, 500] {
            let mut new = shifted(by);
            new[0] = (OLD[0] as i64 - by.signum()) as u64;
            new[1] = (OLD[1] as i64 - by.signum()) as u64;
            let p = paired(&OLD, &new);
            assert_eq!(p.old_wins.max(p.new_wins), 8);
            assert_eq!(p.verdict, Verdict::Unresolved);
        }
    }

    #[test]
    fn a_gap_inside_the_iqr_is_unresolved() {
        // 10/10 wins either way, but the medians sit within the old side's
        // own spread of each other.
        for by in [-10, 10] {
            let p = paired(&OLD, &shifted(by));
            assert_eq!(p.old_wins + p.new_wins, 10);
            assert_eq!(p.verdict, Verdict::Unresolved, "shift {by}");
        }
    }

    #[test]
    fn exact_threshold_boundary_is_not_a_regression() {
        // A gap equal to the IQR has reached the old side's spread, not
        // exceeded it; one nanosecond more has.
        assert_eq!(paired(&OLD, &shifted(40)).verdict, Verdict::Unresolved);
        assert_eq!(paired(&OLD, &shifted(41)).verdict, Verdict::Regression);
        assert_eq!(paired(&OLD, &shifted(-40)).verdict, Verdict::Unresolved);
        assert_eq!(paired(&OLD, &shifted(-41)).verdict, Verdict::Improvement);
    }

    #[test]
    fn ties_count_for_neither_side() {
        // Two ties leave the faster side with 8 wins of 10 pairs: short of
        // nine tenths of all pairs run, though it lost none.
        let mut new = shifted(-500);
        new[3] = OLD[3];
        new[7] = OLD[7];
        let p = paired(&OLD, &new);
        assert_eq!((p.old_wins, p.new_wins), (0, 8));
        assert_eq!(p.verdict, Verdict::Unresolved);
    }

    #[test]
    fn missing_case_fails_and_new_case_passes() {
        let old = runs(&[("a", &OLD), ("dropped", &OLD)]);
        let new = runs(&[("a", &OLD), ("added", &OLD)]);
        let cmp = compare(&old, &new);
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
        assert_eq!(by_name("a"), Verdict::Unresolved);
        assert!(cmp.render().contains("MISSING"));
        // Without the dropped case the same new side passes.
        assert!(compare(&runs(&[("a", &OLD)]), &new).passes());
    }
}
