//! The object-safe [`Estimator`] interface: one `fit` call for autograd
//! trainers, hand-derived SGD and pairwise BPR alike.
//!
//! Each model keeps its native training loop (the engine does not
//! re-implement any of them); the private per-model adapters only
//! translate between the unified [`FitData`] view of a split and
//! whatever the model's own `fit` wants — `fit_regression` over the autograd tape,
//! per-instance SGD over labelled instances, or `(user, item)` pairs plus
//! per-user item sets for the pairwise rankers.

use crate::error::EngineError;
use crate::spec::ModelSpec;
use gmlfm_core::GmlFm;
use gmlfm_data::{Instance, LooSplit, RatingSplit};
use gmlfm_models::{
    Afm, BprMf, DeepFm, FactorizationMachine, MatrixFactorization, Ncf, Nfm, Ngcf, PairCodec, Pmf, TransFm,
    XDeepFm,
};
use gmlfm_serve::{Freeze, FrozenModel};
use gmlfm_tensor::Matrix;
use gmlfm_train::{fit_regression, GraphModel, Scorer, TrainConfig, TrainReport};
use std::collections::HashSet;

/// A unified, borrow-only view of training data, constructible from
/// either of the paper's split types.
///
/// Point-wise models consume `train` (and optionally `val` for early
/// stopping); pairwise models (BPR-MF, NGCF) consume `pairs` +
/// `user_items` and return a typed error when those are absent.
#[derive(Debug, Clone, Copy)]
pub struct FitData<'a> {
    /// Labelled training instances (positives and sampled negatives).
    pub train: &'a [Instance],
    /// Validation instances for early stopping, if any.
    pub val: Option<&'a [Instance]>,
    /// Positive `(user, item)` pairs for pairwise models.
    pub pairs: Option<&'a [(u32, u32)]>,
    /// Items each user interacted with in training (negative-sampling
    /// support for pairwise models).
    pub user_items: Option<&'a [HashSet<u32>]>,
}

impl<'a> FitData<'a> {
    /// Training data from a rating split: train + validation instances.
    pub fn rating(split: &'a RatingSplit) -> Self {
        Self { train: &split.train, val: Some(&split.val), pairs: None, user_items: None }
    }

    /// Training data from a leave-one-out split: labelled instances for
    /// point-wise models, pairs + per-user item sets for pairwise ones.
    pub fn topn(split: &'a LooSplit) -> Self {
        Self {
            train: &split.train,
            val: None,
            pairs: Some(&split.train_pairs),
            user_items: Some(&split.train_user_items),
        }
    }

    /// Training data from bare labelled instances (custom protocols).
    pub fn instances(train: &'a [Instance]) -> Self {
        Self { train, val: None, pairs: None, user_items: None }
    }

    /// Replaces the validation set.
    pub fn with_val(mut self, val: &'a [Instance]) -> Self {
        self.val = Some(val);
        self
    }
}

/// An untrained-or-trained model behind the unified engine interface.
///
/// Object-safe by design: [`ModelSpec::build`] returns `Box<dyn
/// Estimator>` and the whole experiment grid dispatches through it. The
/// `Send + Sync` bound keeps every estimator (and therefore every
/// [`crate::Recommender`]) shareable across serving threads.
pub trait Estimator: Send + Sync {
    /// Trains the model in place. `cfg` drives the autograd trainers;
    /// hand-derived SGD models carry their own optimisation
    /// hyper-parameters in their spec and ignore it.
    fn fit(&mut self, data: &FitData<'_>, cfg: &TrainConfig) -> Result<TrainReport, EngineError>;

    /// The trained model as a scorer (the autograd path for graph
    /// models). Prefer [`Estimator::freeze_if_supported`] for serving.
    fn scorer(&self) -> &dyn Scorer;

    /// Extracts the tape-free frozen serving form, for the models that
    /// have one (GML-FM, FM, TransFM). `None` for models whose
    /// interactions live inside a neural forward.
    fn freeze_if_supported(&self) -> Option<FrozenModel>;

    /// Borrow of the one-hot factor table `V`, for the models that have
    /// one (embedding case studies, t-SNE).
    fn factors(&self) -> Option<&Matrix> {
        None
    }
}

fn fit_graph<M: GraphModel>(
    model: &mut M,
    data: &FitData<'_>,
    cfg: &TrainConfig,
) -> Result<TrainReport, EngineError> {
    if data.train.is_empty() {
        return Err(EngineError::EmptyTrainingSet);
    }
    Ok(fit_regression(model, data.train, data.val, cfg))
}

/// Wraps a hand-derived SGD loss curve in the trainer's report type.
fn sgd_report(losses: Vec<f64>) -> TrainReport {
    TrainReport {
        epochs_run: losses.len(),
        train_losses: losses,
        val_rmses: Vec::new(),
        best_val_rmse: f64::INFINITY,
    }
}

/// Pairwise training inputs: positive pairs plus per-user item sets.
type PairData<'x> = (&'x [(u32, u32)], &'x [HashSet<u32>]);

fn pair_data<'x>(data: &FitData<'x>, model: &str) -> Result<PairData<'x>, EngineError> {
    match (data.pairs, data.user_items) {
        (Some([]), Some(_)) => Err(EngineError::EmptyTrainingSet),
        (Some(pairs), Some(user_items)) => Ok((pairs, user_items)),
        _ => Err(EngineError::MissingPairData { model: model.to_string() }),
    }
}

/// The per-model [`Estimator`] adapters and the spec-driven constructor.
pub(crate) mod adapters {
    use super::*;
    use gmlfm_data::{FieldMask, Schema};

    /// Instantiates the untrained model named by `spec` behind the
    /// [`Estimator`] interface — the single constructor the whole
    /// workspace dispatches through.
    pub(crate) fn build(spec: &ModelSpec, schema: &Schema, mask: &FieldMask) -> Box<dyn Estimator> {
        let n = schema.total_dim();
        let m = mask.n_active();
        match spec {
            ModelSpec::GmlFm { config } => Box::new(GmlFmEstimator { model: GmlFm::new(n, config) }),
            ModelSpec::Fm { config } => {
                Box::new(FmEstimator { model: FactorizationMachine::new(n, config.clone()) })
            }
            ModelSpec::TransFm { config } => Box::new(TransFmEstimator { model: TransFm::new(n, config) }),
            ModelSpec::Mf { config } => Box::new(MfEstimator {
                model: MatrixFactorization::new(PairCodec::from_schema(schema), config.clone()),
            }),
            ModelSpec::Pmf { config } => {
                Box::new(PmfEstimator { model: Pmf::new(PairCodec::from_schema(schema), config.clone()) })
            }
            ModelSpec::BprMf { config } => {
                Box::new(BprMfEstimator { model: BprMf::new(PairCodec::from_schema(schema), config.clone()) })
            }
            ModelSpec::Ngcf { config } => {
                Box::new(NgcfEstimator { model: Ngcf::new(PairCodec::from_schema(schema), config.clone()) })
            }
            ModelSpec::Ncf { config } => {
                Box::new(NcfEstimator { model: Ncf::new(PairCodec::from_schema(schema), config) })
            }
            ModelSpec::Nfm { config } => Box::new(NfmEstimator { model: Nfm::new(n, config) }),
            ModelSpec::Afm { config } => Box::new(AfmEstimator { model: Afm::new(n, config) }),
            ModelSpec::DeepFm { config } => Box::new(DeepFmEstimator { model: DeepFm::new(n, m, config) }),
            ModelSpec::XDeepFm { config } => Box::new(XDeepFmEstimator { model: XDeepFm::new(n, m, config) }),
        }
    }

    struct GmlFmEstimator {
        model: GmlFm,
    }

    impl Estimator for GmlFmEstimator {
        fn fit(&mut self, data: &FitData<'_>, cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            fit_graph(&mut self.model, data, cfg)
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            Some(self.model.freeze())
        }
        fn factors(&self) -> Option<&Matrix> {
            Some(self.model.factors())
        }
    }

    struct FmEstimator {
        model: FactorizationMachine,
    }

    impl Estimator for FmEstimator {
        fn fit(&mut self, data: &FitData<'_>, _cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            if data.train.is_empty() {
                return Err(EngineError::EmptyTrainingSet);
            }
            Ok(sgd_report(self.model.fit(data.train)))
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            Some(self.model.freeze())
        }
        fn factors(&self) -> Option<&Matrix> {
            Some(self.model.factors())
        }
    }

    struct TransFmEstimator {
        model: TransFm,
    }

    impl Estimator for TransFmEstimator {
        fn fit(&mut self, data: &FitData<'_>, cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            fit_graph(&mut self.model, data, cfg)
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            Some(self.model.freeze())
        }
        fn factors(&self) -> Option<&Matrix> {
            Some(self.model.factors())
        }
    }

    struct MfEstimator {
        model: MatrixFactorization,
    }

    impl Estimator for MfEstimator {
        fn fit(&mut self, data: &FitData<'_>, _cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            if data.train.is_empty() {
                return Err(EngineError::EmptyTrainingSet);
            }
            Ok(sgd_report(self.model.fit(data.train)))
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            None
        }
    }

    struct PmfEstimator {
        model: Pmf,
    }

    impl Estimator for PmfEstimator {
        fn fit(&mut self, data: &FitData<'_>, _cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            if data.train.is_empty() {
                return Err(EngineError::EmptyTrainingSet);
            }
            Ok(sgd_report(self.model.fit(data.train)))
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            None
        }
    }

    struct BprMfEstimator {
        model: BprMf,
    }

    impl Estimator for BprMfEstimator {
        fn fit(&mut self, data: &FitData<'_>, _cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            let (pairs, user_items) = pair_data(data, "BPR-MF")?;
            Ok(sgd_report(self.model.fit(pairs, user_items)))
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            None
        }
    }

    struct NgcfEstimator {
        model: Ngcf,
    }

    impl Estimator for NgcfEstimator {
        fn fit(&mut self, data: &FitData<'_>, _cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            let (pairs, user_items) = pair_data(data, "NGCF")?;
            Ok(sgd_report(self.model.fit(pairs, user_items)))
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            None
        }
    }

    struct NcfEstimator {
        model: Ncf,
    }

    impl Estimator for NcfEstimator {
        fn fit(&mut self, data: &FitData<'_>, cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            fit_graph(&mut self.model, data, cfg)
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            None
        }
    }

    struct NfmEstimator {
        model: Nfm,
    }

    impl Estimator for NfmEstimator {
        fn fit(&mut self, data: &FitData<'_>, cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            fit_graph(&mut self.model, data, cfg)
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            None
        }
        fn factors(&self) -> Option<&Matrix> {
            Some(self.model.factors())
        }
    }

    struct AfmEstimator {
        model: Afm,
    }

    impl Estimator for AfmEstimator {
        fn fit(&mut self, data: &FitData<'_>, cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            fit_graph(&mut self.model, data, cfg)
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            None
        }
    }

    struct DeepFmEstimator {
        model: DeepFm,
    }

    impl Estimator for DeepFmEstimator {
        fn fit(&mut self, data: &FitData<'_>, cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            fit_graph(&mut self.model, data, cfg)
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            None
        }
    }

    struct XDeepFmEstimator {
        model: XDeepFm,
    }

    impl Estimator for XDeepFmEstimator {
        fn fit(&mut self, data: &FitData<'_>, cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
            fit_graph(&mut self.model, data, cfg)
        }
        fn scorer(&self) -> &dyn Scorer {
            &self.model
        }
        fn freeze_if_supported(&self) -> Option<FrozenModel> {
            None
        }
    }
}
