//! Mean Reciprocal Rank for link prediction.
//!
//! Each query consists of one positive score and a list of negative scores
//! (the corrupted candidates for the same source node and edge type). The
//! positive's rank is `1 + #negatives strictly above it + half the ties`
//! (the optimistic/pessimistic midpoint convention).

/// One ranking query: a positive example scored against its negatives.
#[derive(Clone, Debug)]
pub struct RankQuery {
    /// Score of the true edge.
    pub positive: f32,
    /// Scores of the corrupted candidates.
    pub negatives: Vec<f32>,
}

impl RankQuery {
    /// Reciprocal rank of the positive within this query.
    pub fn reciprocal_rank(&self) -> f64 {
        let above = self
            .negatives
            .iter()
            .filter(|&&n| n > self.positive)
            .count() as f64;
        #[expect(
            clippy::float_cmp,
            reason = "a tie is a negative scored exactly as the positive; the midrank convention counts exact ties only"
        )]
        let ties = self
            .negatives
            .iter()
            .filter(|&&n| n == self.positive)
            .count() as f64;
        1.0 / (1.0 + above + ties / 2.0)
    }
}

/// Mean reciprocal rank over a set of queries. Returns 0 for an empty set.
///
/// ```
/// use fedda_metrics::{mrr, RankQuery};
/// let queries = [
///     RankQuery { positive: 2.0, negatives: vec![1.0, 0.0] }, // rank 1
///     RankQuery { positive: 0.5, negatives: vec![1.0, 0.0] }, // rank 2
/// ];
/// assert!((mrr(&queries) - 0.75).abs() < 1e-12);
/// ```
pub fn mrr(queries: &[RankQuery]) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    queries.iter().map(RankQuery::reciprocal_rank).sum::<f64>() / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_ranked_positive_scores_one() {
        let q = RankQuery {
            positive: 0.9,
            negatives: vec![0.1, 0.2, 0.3],
        };
        assert!((q.reciprocal_rank() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn positive_below_k_negatives() {
        let q = RankQuery {
            positive: 0.5,
            negatives: vec![0.9, 0.8, 0.1],
        };
        assert!((q.reciprocal_rank() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ties_use_midrank() {
        let q = RankQuery {
            positive: 0.5,
            negatives: vec![0.5, 0.5],
        };
        // rank = 1 + 0 + 1 = 2
        assert!((q.reciprocal_rank() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_negatives_is_rank_one() {
        let q = RankQuery {
            positive: 0.0,
            negatives: vec![],
        };
        assert!((q.reciprocal_rank() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mrr_averages_queries() {
        let qs = vec![
            RankQuery {
                positive: 1.0,
                negatives: vec![0.0],
            }, // rr 1
            RankQuery {
                positive: 0.0,
                negatives: vec![1.0],
            }, // rr 1/2
        ];
        assert!((mrr(&qs) - 0.75).abs() < 1e-12);
        assert_eq!(mrr(&[]), 0.0);
    }
}
