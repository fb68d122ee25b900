//! Additional ranking metrics beyond the paper's ROC-AUC / MRR: Hits@K and
//! average precision, plus per-group (e.g. per-edge-type) breakdowns used
//! by the fairness analysis.

use crate::mrr::RankQuery;

/// Fraction of queries whose positive ranks within the top `k`
/// (ties counted optimistically at the midrank, consistent with
/// [`RankQuery::reciprocal_rank`]).
pub fn hits_at_k(queries: &[RankQuery], k: usize) -> f64 {
    assert!(k > 0, "hits_at_k: k must be positive");
    if queries.is_empty() {
        return 0.0;
    }
    let hits = queries
        .iter()
        .filter(|q| {
            let above = q.negatives.iter().filter(|&&n| n > q.positive).count() as f64;
            #[expect(
                clippy::float_cmp,
                reason = "a tie is a negative scored exactly as the positive; the midrank convention counts exact ties only"
            )]
            let ties = q.negatives.iter().filter(|&&n| n == q.positive).count() as f64;
            (1.0 + above + ties / 2.0) <= k as f64
        })
        .count();
    hits as f64 / queries.len() as f64
}

/// Average precision of a scored binary ranking (area under the
/// precision–recall curve by the step-wise convention).
///
/// Returns 0 when there are no positives.
pub fn average_precision(scores: &[f32], labels: &[bool]) -> f64 {
    assert_eq!(
        scores.len(),
        labels.len(),
        "average_precision: length mismatch"
    );
    let n_pos = labels.iter().filter(|&&l| l).count();
    if n_pos == 0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    // Descending by score; stable so equal scores keep input order.
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let mut hits = 0usize;
    let mut sum_prec = 0.0f64;
    for (rank0, &i) in order.iter().enumerate() {
        if labels[i] {
            hits += 1;
            sum_prec += hits as f64 / (rank0 + 1) as f64;
        }
    }
    sum_prec / n_pos as f64
}

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

    /// The worst-performing non-empty group.
    pub fn worst(&self) -> Option<&(String, f64, usize)> {
        self.groups
            .iter()
            .filter(|(_, _, n)| *n > 0)
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_at_k_counts_top_ranks() {
        let queries = vec![
            RankQuery {
                positive: 0.9,
                negatives: vec![0.1, 0.2],
            }, // rank 1
            RankQuery {
                positive: 0.15,
                negatives: vec![0.3, 0.2],
            }, // rank 3
        ];
        assert!((hits_at_k(&queries, 1) - 0.5).abs() < 1e-12);
        assert!((hits_at_k(&queries, 3) - 1.0).abs() < 1e-12);
        assert_eq!(hits_at_k(&[], 5), 0.0);
    }

    #[test]
    fn hits_at_k_midrank_ties() {
        // positive ties with both negatives: rank = 1 + 0 + 1 = 2
        let q = vec![RankQuery {
            positive: 0.5,
            negatives: vec![0.5, 0.5],
        }];
        assert_eq!(hits_at_k(&q, 1), 0.0);
        assert_eq!(hits_at_k(&q, 2), 1.0);
    }

    #[test]
    fn average_precision_perfect_and_worst() {
        let perfect = average_precision(&[0.9, 0.8, 0.2, 0.1], &[true, true, false, false]);
        assert!((perfect - 1.0).abs() < 1e-12);
        let worst = average_precision(&[0.9, 0.8, 0.2, 0.1], &[false, false, true, true]);
        // positives at ranks 3 and 4: (1/3 + 2/4) / 2
        assert!((worst - (1.0 / 3.0 + 0.5) / 2.0).abs() < 1e-12);
        assert_eq!(average_precision(&[0.5], &[false]), 0.0);
    }

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
        assert_eq!(g.worst().unwrap().0, "co-purchase");
    }

    #[test]
    fn grouped_metric_empty_is_zero() {
        let g = GroupedMetric::default();
        assert_eq!(g.weighted_mean(), 0.0);
        assert_eq!(g.macro_mean(), 0.0);
        assert_eq!(g.gap(), 0.0);
        assert!(g.worst().is_none());
    }
}
