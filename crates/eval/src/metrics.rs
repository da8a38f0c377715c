//! Scalar evaluation metrics.

/// Root mean squared error between predictions and targets.
///
/// # Panics
/// Panics on length mismatch or empty inputs.
pub fn rmse(preds: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(preds.len(), targets.len(), "rmse: length mismatch");
    assert!(!preds.is_empty(), "rmse: empty inputs");
    let mse: f64 =
        preds.iter().zip(targets).map(|(p, t)| (p - t) * (p - t)).sum::<f64>() / preds.len() as f64;
    mse.sqrt()
}

/// Mean absolute error.
pub fn mae(preds: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(preds.len(), targets.len(), "mae: length mismatch");
    assert!(!preds.is_empty(), "mae: empty inputs");
    preds.iter().zip(targets).map(|(p, t)| (p - t).abs()).sum::<f64>() / preds.len() as f64
}

/// Hit Ratio@k for a single ranking case: 1 when the positive item's
/// score ranks within the top `k` of `scores` (index 0 is the positive
/// item; ties are broken against the positive, the conservative choice).
pub fn hit_ratio_at(scores: &[f64], k: usize) -> f64 {
    case_metrics(rank_of_first(scores), k).0
}

/// NDCG@k for a single ranking case with one relevant item at index 0:
/// `1 / log2(rank + 2)` when ranked within the top `k`, else 0.
pub fn ndcg_at(scores: &[f64], k: usize) -> f64 {
    case_metrics(rank_of_first(scores), k).1
}

/// `(HR@k, NDCG@k)` of one case whose positive has the 0-based
/// conservative `rank` (negatives scoring `>=` it): a hit with
/// `1 / log2(rank + 2)` below `k`, a miss at `k` or above — so a rank
/// capped at `k` ([`gmlfm_service::ScoringBackend::case_rank`]) maps
/// exactly as the full count does. The one mapping behind
/// [`hit_ratio_at`], [`ndcg_at`] and the leave-one-out protocol.
pub fn case_metrics(rank: usize, k: usize) -> (f64, f64) {
    if rank < k {
        (1.0, 1.0 / ((rank + 2) as f64).log2())
    } else {
        (0.0, 0.0)
    }
}

/// Reciprocal rank of the positive item (index 0): `1 / (rank + 1)`.
/// The mean over users is MRR.
pub fn reciprocal_rank(scores: &[f64]) -> f64 {
    1.0 / rank_of_first(scores).saturating_add(1) as f64
}

/// AUC for a single ranking case with one positive at index 0: the
/// fraction of negatives ranked strictly below the positive (ties count
/// half).
pub fn auc(scores: &[f64]) -> f64 {
    assert!(scores.len() >= 2, "auc: need at least one negative");
    let pos = scores[0];
    let mut wins = 0.0;
    for &s in &scores[1..] {
        if s < pos {
            wins += 1.0;
        } else if s == pos {
            wins += 0.5;
        }
    }
    wins / (scores.len() - 1) as f64
}

/// 0-based rank of the item at index 0 among all scores (number of other
/// items with a score `>=` the positive's — conservative tie handling).
/// A NaN positive compares `>=` to nothing, so it would rank first; it
/// ranks last (`usize::MAX`) instead, a miss at every cutoff.
fn rank_of_first(scores: &[f64]) -> usize {
    assert!(!scores.is_empty(), "rank_of_first: empty scores");
    let pos = scores[0];
    if pos.is_nan() {
        return usize::MAX;
    }
    scores[1..].iter().filter(|&&s| s >= pos).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_and_mae_of_known_values() {
        let preds = [1.0, 2.0, 3.0];
        let targets = [1.0, 0.0, 7.0];
        assert!((rmse(&preds, &targets) - (20.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((mae(&preds, &targets) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_predictions_have_zero_error() {
        let xs = [0.5, -1.0, 2.0];
        assert_eq!(rmse(&xs, &xs), 0.0);
        assert_eq!(mae(&xs, &xs), 0.0);
    }

    #[test]
    fn hit_ratio_depends_on_rank() {
        // Positive at index 0 with score 5; two better, one worse.
        let scores = [5.0, 7.0, 6.0, 1.0];
        assert_eq!(hit_ratio_at(&scores, 2), 0.0);
        assert_eq!(hit_ratio_at(&scores, 3), 1.0);
    }

    #[test]
    fn ndcg_matches_rank_formula() {
        // Rank 0 → 1/log2(2) = 1.
        assert!((ndcg_at(&[9.0, 1.0, 2.0], 10) - 1.0).abs() < 1e-12);
        // Rank 2 → 1/log2(4) = 0.5.
        assert!((ndcg_at(&[3.0, 5.0, 4.0, 1.0], 10) - 0.5).abs() < 1e-12);
        // Outside the cut-off → 0.
        assert_eq!(ndcg_at(&[0.0, 1.0, 2.0], 1), 0.0);
    }

    #[test]
    fn ties_count_against_the_positive() {
        // Positive tied with one negative: conservative rank 1.
        let scores = [5.0, 5.0, 1.0];
        assert_eq!(hit_ratio_at(&scores, 1), 0.0);
        assert_eq!(hit_ratio_at(&scores, 2), 1.0);
    }

    #[test]
    fn reciprocal_rank_follows_position() {
        assert_eq!(reciprocal_rank(&[9.0, 1.0, 2.0]), 1.0);
        assert_eq!(reciprocal_rank(&[3.0, 5.0, 4.0, 1.0]), 1.0 / 3.0);
    }

    #[test]
    fn auc_counts_beaten_negatives() {
        // Positive 5 beats 2 of 4 negatives, ties one.
        let scores = [5.0, 7.0, 5.0, 1.0, 2.0];
        assert!((auc(&scores) - (2.0 + 0.5) / 4.0).abs() < 1e-12);
        assert_eq!(auc(&[9.0, 1.0, 2.0]), 1.0);
        assert_eq!(auc(&[0.0, 1.0, 2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "auc")]
    fn auc_needs_a_negative() {
        let _ = auc(&[1.0]);
    }

    /// A case's capped rank maps to the full-scan metrics on every
    /// case — ties and NaNs included — whichever backend ranks it: the
    /// default `case_rank` (one batch, then a count), the frozen ranker
    /// loop (which stops scoring once `k` negatives reached the positive)
    /// and the indexed model that delegates to it. The frozen model
    /// scores item `i` as `scores[i]`, to the bit: every weight but the
    /// item's own is zero. The NaN-negative cases guard the count itself:
    /// positive-sign NaNs rank above every number under `rank_cmp`, so
    /// counting among the `k` best negatives by that order would call
    /// `[1, NaN×3, 2×10]` at k = 10 and `[1, NaN, 2]` at k = 1 hits.
    #[test]
    fn capped_rank_metrics_match_full_scan_including_ties_and_nans() {
        use gmlfm_data::LooTestCase;
        use gmlfm_serve::{FrozenModel, SecondOrder};
        use gmlfm_service::{exec, Catalog, IndexedModel, ScoringBackend};
        use gmlfm_tensor::Matrix;

        /// Scores item `i` as `.0[i]` through the default `case_rank`.
        struct Fixed<'a>(&'a [f64]);
        impl ScoringBackend for Fixed<'_> {
            fn score_feats(&self, _: &[u32]) -> f64 {
                unreachable!("the protocol scores candidates only")
            }
            fn candidate_scores(&self, _: &Catalog, _: &[u32], candidates: &[u32]) -> Vec<f64> {
                candidates.iter().map(|&i| self.0[i as usize]).collect()
            }
        }

        let nan = f64::NAN;
        let nan_crowd: Vec<f64> = [1.0].into_iter().chain([nan; 3]).chain([2.0; 10]).collect();
        // Four blocks of negatives, NaNs and ties scattered through them.
        // 19 of them reach the positive (3.0): k <= 6 stops in the first
        // block, k = 10 in the second, k = 100 scores all four.
        let wide: Vec<f64> = (0..100u32)
            .map(|i| match (i, i % 7) {
                (0, _) => 3.0,
                (_, 3) => nan,
                _ => f64::from(i.wrapping_mul(2_654_435_761) % 13) - 6.5,
            })
            .collect();
        let cases: &[&[f64]] = &[
            &[5.0, 7.0, 6.0, 1.0],
            &[5.0, 5.0, 1.0],           // tie counts against the positive
            &[5.0, 5.0, 5.0, 5.0],      // all tied
            &[9.0, 1.0, 2.0],           // clean hit at rank 0
            &[0.0, 1.0, 2.0, 3.0, 4.0], // clean miss
            &[1.0],                     // no negatives at all
            &[f64::NAN, 1.0, 2.0],      // a NaN positive is a miss
            &[f64::NAN, f64::NAN],      // ... also against NaN negatives
            &[f64::NAN],                // ... and against none
            &[1.0, nan, 2.0],           // a NaN negative outranks nothing
            &nan_crowd,
            &wide,
        ];
        for scores in cases {
            let n = scores.len() as u32;
            // User feature 0, item `i` is feature `1 + i`.
            let catalog = Catalog::new(vec![1], vec![vec![0, 1]], (0..n).map(|i| vec![1 + i]).collect());
            let w = std::iter::once(0.0).chain(scores.iter().copied()).collect();
            let frozen = FrozenModel::from_parts(0.0, w, Matrix::zeros(n as usize + 1, 2), SecondOrder::Dot);
            let indexed = IndexedModel { frozen: &frozen, index: None };
            let case = LooTestCase { user: 0, pos_item: 0, negatives: (1..n).collect() };
            let backends: [&dyn ScoringBackend; 3] = [&Fixed(scores), &frozen, &indexed];
            for k in (0..=6usize).chain([10, 100]) {
                let want = (hit_ratio_at(scores, k), ndcg_at(scores, k));
                for (b, backend) in backends.iter().enumerate() {
                    let rank =
                        exec::execute_case_rank(*backend, Some(&catalog), &case, k).expect("valid case");
                    assert!(rank <= k, "backend {b} {scores:?} k={k}: rank {rank}");
                    let (hr, ndcg) = case_metrics(rank, k);
                    assert_eq!(hr.to_bits(), want.0.to_bits(), "hr backend {b} {scores:?} k={k}");
                    assert_eq!(ndcg.to_bits(), want.1.to_bits(), "ndcg backend {b} {scores:?} k={k}");
                }
                if scores[0].is_nan() {
                    assert_eq!(want, (0.0, 0.0), "{scores:?} k={k}");
                }
            }
        }
        assert_eq!((hit_ratio_at(&nan_crowd, 10), hit_ratio_at(&[1.0, nan, 2.0], 1)), (0.0, 0.0));
    }
}
