//! Property-based tests for metric invariants.

use fedda_metrics::{mrr, mrr_of_groups, roc_auc, MeanStd, RankQuery};
use proptest::prelude::*;

proptest! {
    #[test]
    fn auc_is_in_unit_interval(
        scores in prop::collection::vec(-100.0f32..100.0, 1..64),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let labels: Vec<bool> = scores.iter().map(|_| rng.gen()).collect();
        let auc = roc_auc(&scores, &labels);
        prop_assert!((0.0..=1.0).contains(&auc));
    }

    #[test]
    fn auc_is_invariant_to_monotone_transform(
        scores in prop::collection::vec(-10.0f32..10.0, 2..40),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let labels: Vec<bool> = scores.iter().map(|_| rng.gen()).collect();
        let transformed: Vec<f32> = scores.iter().map(|&s| (s / 5.0).tanh() * 3.0 + 7.0).collect();
        let a = roc_auc(&scores, &labels);
        let b = roc_auc(&transformed, &labels);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn auc_of_flipped_labels_is_complement(
        scores in prop::collection::vec(-10.0f32..10.0, 2..40),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let labels: Vec<bool> = scores.iter().map(|_| rng.gen()).collect();
        let n_pos = labels.iter().filter(|&&l| l).count();
        prop_assume!(n_pos > 0 && n_pos < labels.len());
        let flipped: Vec<bool> = labels.iter().map(|&l| !l).collect();
        let a = roc_auc(&scores, &labels);
        let b = roc_auc(&scores, &flipped);
        prop_assert!((a + b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reciprocal_rank_bounds(
        positive in -10.0f32..10.0,
        negatives in prop::collection::vec(-10.0f32..10.0, 0..32),
    ) {
        let k = negatives.len();
        let q = RankQuery { positive, negatives };
        let rr = mrr(&[q]);
        prop_assert!(rr <= 1.0 + 1e-12);
        prop_assert!(rr >= 1.0 / (1.0 + k as f64) - 1e-12);
    }

    #[test]
    fn mrr_monotone_in_positive_score(
        negatives in prop::collection::vec(-10.0f32..10.0, 1..16),
    ) {
        let weak = mrr(&[RankQuery { positive: -20.0, negatives: negatives.clone() }]);
        let strong = mrr(&[RankQuery { positive: 20.0, negatives }]);
        prop_assert!(strong >= weak);
        prop_assert!((strong - 1.0).abs() < 1e-12);
    }

    /// Queries read in place give the bits built `RankQuery`s give, ties
    /// and a short last group included.
    #[test]
    fn grouped_mrr_matches_built_queries(
        scores in prop::collection::vec((0u8..5).prop_map(|s| f32::from(s) * 0.5), 0..40),
        group in 1usize..7,
    ) {
        let queries: Vec<RankQuery> = (scores.chunks(group))
            .map(|c| RankQuery { positive: c[0], negatives: c[1..].to_vec() })
            .collect();
        prop_assert_eq!(mrr_of_groups(&scores, group).to_bits(), mrr(&queries).to_bits());
    }

    /// The AUC's unstable sort gives the bits a stable one gives: heavy
    /// ties, and `-0.0` beside `0.0`.
    #[test]
    fn auc_matches_a_stable_sort(
        scores in prop::collection::vec((0u8..6).prop_map(|s| [-0.0f32, 0.0, 1.0, -1.0, 0.5, 2.0][usize::from(s)]), 2..48),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let labels: Vec<bool> = scores.iter().map(|_| rng.gen()).collect();
        let n_pos = labels.iter().filter(|&&l| l).count();
        prop_assume!(n_pos > 0 && n_pos < labels.len());
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        let (mut rank_sum_pos, mut i) = (0.0f64, 0);
        while i < order.len() {
            let mut j = i;
            while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
                j += 1;
            }
            let midrank = (i + 1 + j + 1) as f64 / 2.0;
            for &k in &order[i..=j] {
                if labels[k] {
                    rank_sum_pos += midrank;
                }
            }
            i = j + 1;
        }
        let (p, n) = (n_pos as f64, (labels.len() - n_pos) as f64);
        let reference = ((rank_sum_pos - p * (p + 1.0) / 2.0) / (p * n)).clamp(0.0, 1.0);
        prop_assert_eq!(roc_auc(&scores, &labels).to_bits(), reference.to_bits());
    }

    #[test]
    fn mean_std_of_constant_vector_has_zero_std(x in -100.0f64..100.0, n in 1usize..20) {
        let s = MeanStd::of(&vec![x; n]);
        prop_assert!((s.mean - x).abs() < 1e-9);
        prop_assert!(s.std.abs() < 1e-9);
    }
}
