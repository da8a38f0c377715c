//! The eval gate between a retrained candidate and the serving slot.

use crate::error::OnlineError;
use gmlfm_data::LooTestCase;
use gmlfm_eval::evaluate_topn_backend;
use gmlfm_par::Parallelism;
use gmlfm_service::{Catalog, RequestError, ScoringBackend};

/// The ranking quality of one model on the gate's pinned holdout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateMetrics {
    /// Hit Ratio@k.
    pub hr: f64,
    /// NDCG@k.
    pub ndcg: f64,
}

/// The typed verdict of one gate comparison: both sides' metrics, the
/// knobs that judged them, and the decision. Returned on rejections so
/// an operator can see *by how much* the candidate regressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateReport {
    /// Metrics of the serving snapshot the candidate challenged.
    pub baseline: GateMetrics,
    /// Metrics of the retrained candidate.
    pub candidate: GateMetrics,
    /// Ranking cutoff the metrics were computed at.
    pub k: usize,
    /// Allowed absolute regression per metric.
    pub tolerance: f64,
    /// Whether the candidate may be published.
    pub passed: bool,
}

/// Gatekeeper of [`gmlfm_service::ModelServer::swap`]: scores candidates
/// on a **pinned holdout** (leave-one-out cases fixed at launch, so
/// every round is judged on the same ground truth) and only passes
/// candidates whose HR@k *and* NDCG@k stay within `tolerance` of the
/// serving baseline.
///
/// Evaluation goes through the snapshot-pinned eval core
/// ([`evaluate_topn_backend`]); each case ranks exactly its own
/// candidates, with no seen filtering, so neither the seen sets nor the
/// live overlay can skew the comparison. A case is scored only until
/// `k` negatives reach its positive: a miss costs no more than the
/// verdict needs.
#[derive(Debug, Clone)]
pub struct EvalGate {
    cases: Vec<LooTestCase>,
    k: usize,
    tolerance: f64,
}

impl EvalGate {
    /// A gate over `cases` at cutoff `k`, allowing an absolute per-metric
    /// regression of `tolerance`. Fails typed on an empty holdout or a
    /// zero cutoff — a gate that can judge nothing must not exist.
    pub fn new(cases: Vec<LooTestCase>, k: usize, tolerance: f64) -> Result<Self, OnlineError> {
        if cases.is_empty() {
            return Err(OnlineError::Launch("eval gate needs a non-empty holdout".into()));
        }
        if k == 0 {
            return Err(OnlineError::Launch("eval gate needs a cutoff k >= 1".into()));
        }
        Ok(Self { cases, k, tolerance: tolerance.max(0.0) })
    }

    /// The gate's ranking cutoff.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Scores one model on the pinned holdout.
    pub fn score<B: ScoringBackend + Sync + ?Sized>(
        &self,
        backend: &B,
        catalog: Option<&Catalog>,
        par: Parallelism,
    ) -> Result<GateMetrics, RequestError> {
        let metrics = evaluate_topn_backend(backend, catalog, &self.cases, self.k, par)?;
        Ok(GateMetrics { hr: metrics.hr, ndcg: metrics.ndcg })
    }

    /// Judges a candidate against the baseline: passes iff **both**
    /// metrics stay within the tolerance.
    pub fn judge(&self, baseline: GateMetrics, candidate: GateMetrics) -> GateReport {
        let passed =
            candidate.hr + self.tolerance >= baseline.hr && candidate.ndcg + self.tolerance >= baseline.ndcg;
        GateReport { baseline, candidate, k: self.k, tolerance: self.tolerance, passed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> EvalGate {
        let case = LooTestCase { user: 0, pos_item: 1, negatives: vec![2, 3] };
        EvalGate::new(vec![case], 5, 0.01).expect("valid gate")
    }

    #[test]
    fn judge_passes_within_tolerance_and_rejects_regressions() {
        let g = gate();
        let base = GateMetrics { hr: 0.50, ndcg: 0.30 };
        assert!(g.judge(base, GateMetrics { hr: 0.495, ndcg: 0.295 }).passed);
        assert!(g.judge(base, GateMetrics { hr: 0.60, ndcg: 0.40 }).passed);
        // Either metric regressing past the tolerance rejects.
        assert!(!g.judge(base, GateMetrics { hr: 0.40, ndcg: 0.30 }).passed);
        assert!(!g.judge(base, GateMetrics { hr: 0.50, ndcg: 0.20 }).passed);
    }

    /// A NaN positive compares `>=` to no negative; it must score as a
    /// miss, or a diverged retrain would read HR = NDCG = 1 and publish.
    #[test]
    fn an_all_nan_candidate_is_rejected() {
        use gmlfm_serve::{FrozenModel, SecondOrder};
        use gmlfm_tensor::Matrix;
        // User feature 0, items 1..=4; item 3 scores highest.
        let catalog = Catalog::new(vec![1], vec![vec![0, 1]], (0..4u32).map(|i| vec![1 + i]).collect());
        let model = |w0: f64| {
            FrozenModel::from_parts(
                w0,
                (0..5).map(f64::from).collect(),
                Matrix::zeros(5, 2),
                SecondOrder::Dot,
            )
        };
        let case = LooTestCase { user: 0, pos_item: 3, negatives: vec![0, 1, 2] };
        let g = EvalGate::new(vec![case], 1, 0.01).expect("valid gate");
        let score =
            |w0: f64| g.score(&model(w0), Some(&catalog), Parallelism::serial()).expect("valid cases");
        let report = g.judge(score(0.0), score(f64::NAN));
        assert_eq!(report.baseline, GateMetrics { hr: 1.0, ndcg: 1.0 });
        assert_eq!(report.candidate, GateMetrics { hr: 0.0, ndcg: 0.0 });
        assert!(!report.passed);
    }

    /// `f64::NAN` is a positive-sign NaN, which the retrieval order
    /// ranks above every number. Two negatives that score it must not
    /// hide the real negative that outranks the positive: at k = 1 the
    /// candidate misses, and is rejected against a baseline that hits.
    #[test]
    fn positive_nan_negatives_do_not_hide_a_miss() {
        use gmlfm_serve::{FrozenModel, SecondOrder};
        use gmlfm_tensor::Matrix;
        // User feature 0, items 0..4 are features 1..=4.
        let catalog = Catalog::new(vec![1], vec![vec![0, 1]], (0..4u32).map(|i| vec![1 + i]).collect());
        let model = |w: Vec<f64>| FrozenModel::from_parts(0.0, w, Matrix::zeros(5, 2), SecondOrder::Dot);
        let baseline = model(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        // Items 0 and 1 score NaN, item 2 (5.0) beats the positive (4.0).
        let candidate = model(vec![0.0, f64::NAN, f64::NAN, 5.0, 4.0]);
        let case = LooTestCase { user: 0, pos_item: 3, negatives: vec![0, 1, 2] };
        let g = EvalGate::new(vec![case], 1, 0.01).expect("valid gate");
        let score = |m: &FrozenModel| g.score(m, Some(&catalog), Parallelism::serial()).expect("valid cases");
        let report = g.judge(score(&baseline), score(&candidate));
        assert_eq!(report.baseline, GateMetrics { hr: 1.0, ndcg: 1.0 });
        assert_eq!(report.candidate, GateMetrics { hr: 0.0, ndcg: 0.0 });
        assert!(!report.passed);
    }

    #[test]
    fn empty_holdout_and_zero_k_are_typed_launch_errors() {
        assert!(matches!(EvalGate::new(vec![], 5, 0.0), Err(OnlineError::Launch(_))));
        let case = LooTestCase { user: 0, pos_item: 1, negatives: vec![2] };
        assert!(matches!(EvalGate::new(vec![case], 0, 0.0), Err(OnlineError::Launch(_))));
    }
}
