//! Per-group (e.g. per-edge-type) breakdowns of a metric, used by the
//! fairness analysis.

/// A metric value broken down by group (e.g. edge type), with the overall
/// dispersion used as a fairness measure: a federation that only serves the
/// majority edge types has a high gap.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupedMetric {
    /// `(group label, value, support)` triples.
    pub groups: Vec<(String, f64, usize)>,
}

impl GroupedMetric {
    /// Build from labelled values.
    pub fn new(groups: Vec<(String, f64, usize)>) -> Self {
        Self { groups }
    }

    /// Support-weighted mean over groups.
    pub fn weighted_mean(&self) -> f64 {
        let total: usize = self.groups.iter().map(|(_, _, n)| n).sum();
        if total == 0 {
            return 0.0;
        }
        self.groups
            .iter()
            .map(|(_, v, n)| v * *n as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Unweighted (macro) mean over non-empty groups.
    pub fn macro_mean(&self) -> f64 {
        let non_empty: Vec<f64> = self
            .groups
            .iter()
            .filter(|(_, _, n)| *n > 0)
            .map(|(_, v, _)| *v)
            .collect();
        if non_empty.is_empty() {
            return 0.0;
        }
        non_empty.iter().sum::<f64>() / non_empty.len() as f64
    }

    /// Max − min across non-empty groups — the fairness gap.
    pub fn gap(&self) -> f64 {
        let vals: Vec<f64> = self
            .groups
            .iter()
            .filter(|(_, _, n)| *n > 0)
            .map(|(_, v, _)| *v)
            .collect();
        match (
            vals.iter().cloned().reduce(f64::max),
            vals.iter().cloned().reduce(f64::min),
        ) {
            (Some(max), Some(min)) => max - min,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_metric_means_and_gap() {
        let g = GroupedMetric::new(vec![
            ("co-view".into(), 0.9, 90),
            ("co-purchase".into(), 0.5, 10),
            ("empty".into(), 0.0, 0),
        ]);
        assert!((g.weighted_mean() - 0.86).abs() < 1e-12);
        assert!((g.macro_mean() - 0.7).abs() < 1e-12);
        assert!((g.gap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn grouped_metric_empty_is_zero() {
        let g = GroupedMetric::default();
        assert_eq!(g.weighted_mean(), 0.0);
        assert_eq!(g.macro_mean(), 0.0);
        assert_eq!(g.gap(), 0.0);
    }
}
