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
    pub(crate) fn reciprocal_rank(&self) -> f64 {
        reciprocal_rank(self.positive, &self.negatives)
    }
}

/// Reciprocal rank of `positive` among `negatives`.
fn reciprocal_rank(positive: f32, negatives: &[f32]) -> f64 {
    1.0 / midrank(positive, negatives)
}

/// Rank of `positive` among `negatives` by the midrank convention:
/// `1 + #negatives strictly above it + half the exact ties`.
fn midrank(positive: f32, negatives: &[f32]) -> f64 {
    let above = negatives.iter().filter(|&&n| n > positive).count() as f64;
    #[expect(
        clippy::float_cmp,
        reason = "a tie is a negative scored exactly as the positive; the midrank convention counts exact ties only"
    )]
    let ties = negatives.iter().filter(|&&n| n == positive).count() as f64;
    1.0 + above + ties / 2.0
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

/// [`mrr`] over queries laid out back to back: every `group` scores (the
/// last run may be shorter) are one query, its positive first. The same
/// value as building the [`RankQuery`]s, without allocating them.
///
/// ```
/// use fedda_metrics::{mrr, mrr_of_groups, RankQuery};
/// let scores = [2.0, 1.0, 0.0, 0.5, 1.0, 0.0];
/// let queries: Vec<RankQuery> = (scores.chunks(3))
///     .map(|c| RankQuery { positive: c[0], negatives: c[1..].to_vec() })
///     .collect();
/// assert_eq!(mrr_of_groups(&scores, 3), mrr(&queries));
/// ```
///
/// # Panics
/// Panics if `group` is 0.
pub fn mrr_of_groups(scores: &[f32], group: usize) -> f64 {
    if scores.is_empty() {
        return 0.0;
    }
    let chunks = scores.chunks(group);
    let queries = chunks.len();
    chunks.map(|q| reciprocal_rank(q[0], &q[1..])).sum::<f64>() / queries as f64
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
