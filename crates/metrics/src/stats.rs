//! Aggregation of repeated runs: mean ± std summaries (Table 2's format).

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
}
