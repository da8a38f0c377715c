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
    let rank = rank_of_first(scores);
    if rank < k {
        1.0
    } else {
        0.0
    }
}

/// NDCG@k for a single ranking case with one relevant item at index 0:
/// `1 / log2(rank + 2)` when ranked within the top `k`, else 0.
pub fn ndcg_at(scores: &[f64], k: usize) -> f64 {
    let rank = rank_of_first(scores);
    if rank < k {
        1.0 / ((rank + 2) as f64).log2()
    } else {
        0.0
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

/// `(HR@k, NDCG@k)` for one leave-one-out case from a **bounded top-`k`
/// selection over the negatives** — the same
/// [`gmlfm_serve::TopNHeap`] machinery the serving retrieval path runs —
/// instead of the full score vector.
///
/// `topk_negatives` must be the `k` best-retained negatives under the
/// retrieval order (or all of them when fewer than `k` exist), e.g.
/// [`gmlfm_serve::TopNHeap::retained`]. The positive's conservative rank
/// is the number of retained negatives scoring `>= pos_score`: every
/// negative scoring `>=` the positive outranks every negative scoring
/// below it, so whenever that count is below `k` the bounded selection
/// provably retained *all* such negatives — making the result identical,
/// tie handling included, to [`hit_ratio_at`]/[`ndcg_at`] over the full
/// vector. A count of `k` means the positive fell off the cut, which is
/// exactly the full-scan miss case. A NaN positive is a miss, as in
/// [`hit_ratio_at`].
pub fn topk_case_metrics(pos_score: f64, topk_negatives: &[(u32, f64)], k: usize) -> (f64, f64) {
    let rank = topk_negatives.iter().filter(|&&(_, s)| s >= pos_score).count();
    if rank < k && !pos_score.is_nan() {
        (1.0, 1.0 / ((rank + 2) as f64).log2())
    } else {
        (0.0, 0.0)
    }
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

    /// The bounded-selection metrics must equal the full-scan metrics on
    /// every case — tie handling included — for any negative ordering.
    #[test]
    fn topk_case_metrics_match_full_scan_including_ties() {
        use gmlfm_serve::TopNHeap;
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
        ];
        for scores in cases {
            for k in 0..=6usize {
                let mut heap = TopNHeap::new(k);
                for (i, &s) in scores[1..].iter().enumerate() {
                    heap.push(i as u32, s);
                }
                let (hr, ndcg) = topk_case_metrics(scores[0], heap.retained(), k);
                assert_eq!(hr, hit_ratio_at(scores, k), "hr {scores:?} k={k}");
                assert_eq!(ndcg, ndcg_at(scores, k), "ndcg {scores:?} k={k}");
                if scores[0].is_nan() {
                    assert_eq!((hr, ndcg), (0.0, 0.0), "{scores:?} k={k}");
                }
            }
        }
    }
}
