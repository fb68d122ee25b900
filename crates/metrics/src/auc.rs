//! ROC-AUC for binary link prediction.
//!
//! Exact computation via the rank-sum (Mann–Whitney U) formulation with
//! midrank tie handling: `AUC = (R_pos - n_pos(n_pos+1)/2) / (n_pos * n_neg)`
//! where `R_pos` is the sum of the positive examples' midranks.

/// Exact ROC-AUC of scores against boolean labels.
///
/// Returns 0.5 when either class is empty (no ranking information), which
/// keeps round-level metric curves well-defined on degenerate batches.
///
/// ```
/// use fedda_metrics::roc_auc;
/// let auc = roc_auc(&[0.1, 0.9, 0.8, 0.3], &[false, true, true, false]);
/// assert_eq!(auc, 1.0);
/// ```
pub fn roc_auc(scores: &[f32], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "roc_auc: length mismatch");
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Sort indices by score ascending; assign midranks to tie groups. The
    // sort need not be stable: indices that compare equal under `total_cmp`
    // hold bit-identical scores, so any order among them adds the same
    // midranks in the same sequence — and an unstable sort allocates no
    // scratch beside `order`, whose `u32` indices halve it again.
    let mut order: Vec<u32> = (0..=u32::MAX).take(scores.len()).collect();
    assert_eq!(order.len(), scores.len(), "roc_auc: more than 2^32 scores");
    let score = |k: u32| scores[k as usize];
    order.sort_unstable_by(|&a, &b| score(a).total_cmp(&score(b)));
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0usize;
    while i < order.len() {
        let mut j = i;
        #[expect(
            clippy::float_cmp,
            reason = "a tie group is a run of equal scores in the sorted order; a margin would merge distinct scores and move the midranks"
        )]
        while j + 1 < order.len() && score(order[j + 1]) == score(order[i]) {
            j += 1;
        }
        // ranks are 1-based: group spans ranks i+1 ..= j+1
        let midrank = (i + 1 + j + 1) as f64 / 2.0;
        for &idx in &order[i..=j] {
            if labels[idx as usize] {
                rank_sum_pos += midrank;
            }
        }
        i = j + 1;
    }
    let auc = (rank_sum_pos - (n_pos as f64) * (n_pos as f64 + 1.0) / 2.0)
        / ((n_pos as f64) * (n_neg as f64));
    auc.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking_is_one() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [false, false, true, true];
        assert!((roc_auc(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_ranking_is_zero() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [false, false, true, true];
        assert!(roc_auc(&scores, &labels).abs() < 1e-12);
    }

    #[test]
    fn interleaved_ranking_counts_pairs() {
        let scores = [0.1, 0.2, 0.3, 0.4];
        let labels = [true, false, true, false];
        // positive-negative pairs won: only (0.3, 0.2) of the four
        assert!((roc_auc(&scores, &labels) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn all_tied_scores_give_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        assert!((roc_auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_class_returns_half() {
        assert_eq!(roc_auc(&[0.3, 0.4], &[true, true]), 0.5);
        assert_eq!(roc_auc(&[0.3, 0.4], &[false, false]), 0.5);
        assert_eq!(roc_auc(&[], &[]), 0.5);
    }

    #[test]
    fn matches_brute_force_pair_counting() {
        let scores = [0.3f32, 0.7, 0.5, 0.5, 0.9, 0.1, 0.6];
        let labels = [false, true, true, false, true, false, false];
        // brute force: P(score_pos > score_neg) + 0.5 P(tie)
        let mut wins = 0.0f64;
        let mut total = 0.0f64;
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if labels[i] && !labels[j] {
                    total += 1.0;
                    if scores[i] > scores[j] {
                        wins += 1.0;
                    } else if scores[i] == scores[j] {
                        wins += 0.5;
                    }
                }
            }
        }
        let expected = wins / total;
        assert!((roc_auc(&scores, &labels) - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        roc_auc(&[0.1], &[true, false]);
    }
}
