//! Aggregation of repeated runs: mean ± std summaries (Table 2's format)
//! and per-round curve recording with best/worst envelopes (Figures 2 & 5).

/// Mean and sample standard deviation of a set of run results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 when fewer than two samples).
    pub std: f64,
    /// Number of samples aggregated.
    pub n: usize,
}

impl MeanStd {
    /// Aggregate a slice of values.
    pub fn of(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return Self {
                mean: 0.0,
                std: 0.0,
                n: 0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let std = if n < 2 {
            0.0
        } else {
            (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        Self { mean, std, n }
    }

    /// Render as the paper's `0.5480 ± 0.0081` format.
    pub fn fmt_pm(&self) -> String {
        format!("{:.4} ± {:.4}", self.mean, self.std)
    }
}

/// Per-round metric curves across repeated runs.
///
/// `record(run, round, value)` accepts rounds in order within each run;
/// the accessors produce the curves the paper plots: the per-round mean
/// (Fig. 5a/5b) and the per-round max/min envelope over runs (Fig. 2,
/// Fig. 5c/5d).
#[derive(Clone, Debug, Default)]
pub struct CurveRecorder {
    /// `runs[r][t]` = metric of run `r` at round `t`.
    runs: Vec<Vec<f64>>,
}

impl CurveRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a value for `(run, round)`. Runs and rounds must arrive in
    /// order (round `t` appended after `t-1`).
    pub fn record(&mut self, run: usize, round: usize, value: f64) {
        while self.runs.len() <= run {
            self.runs.push(Vec::new());
        }
        assert_eq!(
            self.runs[run].len(),
            round,
            "rounds must be recorded in order"
        );
        self.runs[run].push(value);
    }

    /// Number of complete rounds (minimum across runs; 0 when empty).
    pub fn num_rounds(&self) -> usize {
        self.runs.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Per-round mean across runs.
    pub fn mean_curve(&self) -> Vec<f64> {
        let t = self.num_rounds();
        (0..t)
            .map(|i| self.runs.iter().map(|r| r[i]).sum::<f64>() / self.runs.len() as f64)
            .collect()
    }

    /// Per-round max across runs ("best model" solid lines).
    pub fn max_curve(&self) -> Vec<f64> {
        let t = self.num_rounds();
        (0..t)
            .map(|i| {
                self.runs
                    .iter()
                    .map(|r| r[i])
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }

    /// Per-round min across runs ("worst model" dotted lines).
    pub fn min_curve(&self) -> Vec<f64> {
        let t = self.num_rounds();
        (0..t)
            .map(|i| self.runs.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .collect()
    }

    /// First round at which the mean curve reaches `threshold`, if any —
    /// used by the convergence analysis (RQ3: "FedDA reaches 0.537 within
    /// 20 rounds where FedAvg needs 40").
    pub fn rounds_to_reach(&self, threshold: f64) -> Option<usize> {
        self.mean_curve().iter().position(|&v| v >= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basic() {
        let s = MeanStd::of(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert_eq!(s.n, 3);
        assert_eq!(s.fmt_pm(), "2.0000 ± 1.0000");
    }

    #[test]
    fn mean_std_degenerate_cases() {
        assert_eq!(MeanStd::of(&[]).n, 0);
        let one = MeanStd::of(&[5.0]);
        assert_eq!(one.std, 0.0);
        assert_eq!(one.mean, 5.0);
    }

    #[test]
    fn curves_and_envelopes() {
        let mut rec = CurveRecorder::new();
        for (run, curve) in [[0.1, 0.5, 0.7], [0.3, 0.4, 0.9]].iter().enumerate() {
            for (round, &v) in curve.iter().enumerate() {
                rec.record(run, round, v);
            }
        }
        assert_eq!(rec.runs.len(), 2);
        assert_eq!(rec.num_rounds(), 3);
        assert_eq!(rec.mean_curve(), vec![0.2, 0.45, 0.8]);
        assert_eq!(rec.max_curve(), vec![0.3, 0.5, 0.9]);
        assert_eq!(rec.min_curve(), vec![0.1, 0.4, 0.7]);
        assert_eq!(rec.rounds_to_reach(0.45), Some(1));
        assert_eq!(rec.rounds_to_reach(0.95), None);
    }

    #[test]
    #[should_panic(expected = "rounds must be recorded in order")]
    fn out_of_order_rounds_rejected() {
        let mut rec = CurveRecorder::new();
        rec.record(0, 1, 0.5);
    }
}
