//! Spec-driven experiment runner: constructs, trains and evaluates any
//! [`ModelSpec`] on either task with one call, so each table/figure
//! module stays declarative.
//!
//! There is no per-model dispatch here: the paper's model roster lives
//! in [`crate::paper`] as a [`ModelKind`] → [`ModelSpec`] table, and
//! everything trains through the engine's unified
//! [`Estimator`](gmlfm_engine::Estimator) interface — autograd
//! regression, hand-derived SGD and pairwise BPR included.

use gmlfm_core::GmlFmConfig;
use gmlfm_data::{Dataset, FieldMask, LooSplit, RatingSplit};
use gmlfm_engine::{FitData, ModelSpec};
use gmlfm_eval::{evaluate_rating, evaluate_topn, evaluate_topn_frozen_with, RatingMetrics, TopnMetrics};
use gmlfm_par::Parallelism;
use gmlfm_train::{Scorer, TrainConfig};

pub use crate::paper::ModelKind;

/// Global experiment knobs, shared by every table/figure.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Dataset scale factor (1.0 = the ≈ ÷10 sizes of
    /// [`gmlfm_data::DatasetSpec`]; "Substitutions" in the
    /// [`gmlfm_models`] crate docs).
    pub scale: f64,
    /// Embedding size.
    pub k: usize,
    /// Training epochs for every model.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV artifacts.
    pub out_dir: std::path::PathBuf,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self { scale: 1.0, k: 16, epochs: 12, seed: 2023, out_dir: "results".into() }
    }
}

impl ExpConfig {
    /// The shared autograd training configuration every experiment
    /// derives from (figure modules override `patience`/`seed` via
    /// struct-update syntax instead of re-assembling the whole struct).
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            lr: 0.01,
            epochs: self.epochs,
            batch_size: 256,
            weight_decay: 1e-5,
            patience: 3,
            seed: self.seed ^ 0x5f5f,
        }
    }
}

/// Trains `kind` on a rating split and returns the test metrics, plus the
/// per-instance squared errors for significance testing.
///
/// # Panics
/// Panics when `kind` is a top-n-only baseline (NCF, BPR-MF, NGCF).
pub fn run_rating(
    kind: ModelKind,
    dataset: &Dataset,
    mask: &FieldMask,
    split: &RatingSplit,
    cfg: &ExpConfig,
) -> (RatingMetrics, Vec<f64>) {
    let spec = kind.spec(cfg);
    assert!(spec.supports_rating(), "{} is a top-n-only baseline in the paper", kind.name());
    run_rating_spec(&spec, dataset, mask, split, cfg)
}

/// Trains `kind` for top-n and evaluates leave-one-out HR/NDCG at 10.
///
/// # Panics
/// Panics when `kind` is a rating-only baseline (MF, PMF).
pub fn run_topn(
    kind: ModelKind,
    dataset: &Dataset,
    mask: &FieldMask,
    split: &LooSplit,
    cfg: &ExpConfig,
) -> TopnMetrics {
    let spec = kind.spec(cfg);
    assert!(spec.supports_topn(), "{} is a rating-only baseline in the paper", kind.name());
    run_topn_spec(&spec, dataset, mask, split, cfg)
}

/// Trains any spec on a rating split and returns the test metrics plus
/// per-instance squared errors. Freezable models are served frozen.
pub fn run_rating_spec(
    spec: &ModelSpec,
    dataset: &Dataset,
    mask: &FieldMask,
    split: &RatingSplit,
    cfg: &ExpConfig,
) -> (RatingMetrics, Vec<f64>) {
    let mut estimator = spec.build(&dataset.schema, mask);
    estimator
        .fit(&FitData::rating(split), &cfg.train_config())
        .unwrap_or_else(|e| panic!("{}: {e}", spec.display_name()));
    let frozen = estimator.freeze_if_supported();
    let scorer: &dyn Scorer = match &frozen {
        Some(frozen) => frozen,
        None => estimator.scorer(),
    };
    let metrics = evaluate_rating(scorer, &split.test);
    let preds = scorer.scores(&split.test);
    let sq_errors: Vec<f64> = preds
        .iter()
        .zip(&split.test)
        .map(|(p, t)| (p - t.label) * (p - t.label))
        .collect();
    (metrics, sq_errors)
}

/// Trains any spec for top-n and evaluates leave-one-out HR/NDCG at 10
/// through the one protocol ([`gmlfm_eval::evaluate_topn_backend`]):
/// freezable models rank frozen (context partials once per case, item
/// delta per candidate, no tape, cases fanned out across threads); the
/// rest score candidates through their own scorer.
pub fn run_topn_spec(
    spec: &ModelSpec,
    dataset: &Dataset,
    mask: &FieldMask,
    split: &LooSplit,
    cfg: &ExpConfig,
) -> TopnMetrics {
    let mut estimator = spec.build(&dataset.schema, mask);
    estimator
        .fit(&FitData::topn(split), &cfg.train_config())
        .unwrap_or_else(|e| panic!("{}: {e}", spec.display_name()));
    match estimator.freeze_if_supported() {
        Some(frozen) => {
            evaluate_topn_frozen_with(&frozen, dataset, mask, &split.test, 10, Parallelism::auto())
        }
        None => evaluate_topn(estimator.scorer(), dataset, mask, &split.test, 10),
    }
}

/// GML-FM with a custom configuration on the top-n task (ablations,
/// sweeps).
pub fn run_topn_gmlfm(
    gml_cfg: &GmlFmConfig,
    dataset: &Dataset,
    mask: &FieldMask,
    split: &LooSplit,
    cfg: &ExpConfig,
) -> TopnMetrics {
    run_topn_spec(&ModelSpec::gml_fm(gml_cfg.clone()), dataset, mask, split, cfg)
}

/// GML-FM with a custom configuration on the rating task.
pub fn run_rating_gmlfm(
    gml_cfg: &GmlFmConfig,
    dataset: &Dataset,
    split: &RatingSplit,
    cfg: &ExpConfig,
) -> RatingMetrics {
    let mask = FieldMask::all(&dataset.schema);
    run_rating_spec(&ModelSpec::gml_fm(gml_cfg.clone()), dataset, &mask, split, cfg).0
}

/// The default GML-FM_dnn configuration used across experiments.
pub fn default_dnn_cfg(k: usize, seed: u64) -> GmlFmConfig {
    GmlFmConfig::dnn(k, 1).with_seed(seed)
}

/// The default GML-FM_md configuration.
pub fn default_md_cfg(k: usize, seed: u64) -> GmlFmConfig {
    GmlFmConfig::mahalanobis(k).with_seed(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_data::{generate, loo_split, rating_split, DatasetSpec};

    /// Every rating-task model trains and produces finite metrics on a
    /// tiny fixture — the regression net for the Table 3 grid.
    #[test]
    fn every_rating_model_runs_on_a_tiny_fixture() {
        let cfg = ExpConfig { scale: 0.15, k: 8, epochs: 2, seed: 7, out_dir: std::env::temp_dir() };
        let dataset = generate(&DatasetSpec::AmazonAuto.config(cfg.seed).scaled(cfg.scale));
        let mask = FieldMask::all(&dataset.schema);
        let split = rating_split(&dataset, &mask, 2, 3);
        for kind in ModelKind::RATING {
            let (metrics, errors) = run_rating(kind, &dataset, &mask, &split, &cfg);
            assert!(metrics.rmse.is_finite() && metrics.rmse > 0.0, "{}: rmse {}", kind.name(), metrics.rmse);
            assert_eq!(errors.len(), split.test.len(), "{}", kind.name());
        }
    }

    /// Every top-n model trains and ranks on a tiny fixture — the
    /// regression net for the Table 4 grid.
    #[test]
    fn every_topn_model_runs_on_a_tiny_fixture() {
        let cfg = ExpConfig { scale: 0.15, k: 8, epochs: 2, seed: 7, out_dir: std::env::temp_dir() };
        let dataset = generate(&DatasetSpec::AmazonAuto.config(cfg.seed).scaled(cfg.scale));
        let mask = FieldMask::all(&dataset.schema);
        let split = loo_split(&dataset, &mask, 2, 20, 4);
        for kind in ModelKind::TOPN {
            let m = run_topn(kind, &dataset, &mask, &split, &cfg);
            assert!((0.0..=1.0).contains(&m.hr), "{}: hr {}", kind.name(), m.hr);
            assert!((0.0..=1.0).contains(&m.ndcg), "{}: ndcg {}", kind.name(), m.ndcg);
            assert_eq!(m.per_user_hr.len(), split.test.len(), "{}", kind.name());
        }
    }

    #[test]
    #[should_panic(expected = "top-n-only")]
    fn rating_task_rejects_topn_only_models() {
        let cfg = ExpConfig { scale: 0.15, k: 8, epochs: 1, seed: 7, out_dir: std::env::temp_dir() };
        let dataset = generate(&DatasetSpec::AmazonAuto.config(cfg.seed).scaled(cfg.scale));
        let mask = FieldMask::all(&dataset.schema);
        let split = rating_split(&dataset, &mask, 2, 3);
        let _ = run_rating(ModelKind::Ncf, &dataset, &mask, &split, &cfg);
    }

    /// Every paper-grid spec serialises and round-trips — the property
    /// the saved-artifact provenance rests on.
    #[test]
    fn paper_grid_specs_round_trip_through_json() {
        let cfg = ExpConfig::default();
        for kind in ModelKind::TOPN.iter().chain(&ModelKind::RATING) {
            let spec = kind.spec(&cfg);
            let json = serde::json::to_string(&spec);
            let back: ModelSpec = serde::json::from_str(&json).unwrap();
            assert_eq!(json, serde::json::to_string(&back), "{}", kind.name());
        }
    }
}
