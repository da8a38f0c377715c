//! The object-safe [`Estimator`] interface: one `fit` call for autograd
//! trainers, hand-derived SGD and pairwise BPR alike.
//!
//! Each model keeps its native training loop (the engine does not
//! re-implement any of them); the one private adapter only translates
//! between the unified [`FitData`] view of a split and whatever the
//! model's own `fit` wants — `fit_regression` over the autograd tape,
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
use gmlfm_train::{fit_regression, Scorer, TrainConfig, TrainReport};
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
    fn scorer(&self) -> &(dyn Scorer + Sync);

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

/// `xs`, or the typed error every protocol answers an empty fit with.
fn non_empty<T>(xs: &[T]) -> Result<&[T], EngineError> {
    if xs.is_empty() {
        return Err(EngineError::EmptyTrainingSet);
    }
    Ok(xs)
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

/// `fit_regression` over the autograd tape.
type GraphFit<M> = fn(&mut M, &[Instance], Option<&[Instance]>, &TrainConfig) -> TrainReport;
/// Hand-derived per-instance SGD over labelled instances.
type PointwiseFit<M> = fn(&mut M, &[Instance]) -> Vec<f64>;
/// Pairwise SGD over positive `(user, item)` pairs plus per-user item
/// sets.
type PairwiseFit<M> = fn(&mut M, &[(u32, u32)], &[HashSet<u32>]) -> Vec<f64>;

/// The workspace's three training protocols, each holding the model's
/// own `fit`.
enum Protocol<M> {
    Graph(GraphFit<M>),
    Pointwise(PointwiseFit<M>),
    Pairwise(PairwiseFit<M>),
}

/// The one [`Estimator`] adapter: a model, its training protocol, and
/// the capabilities only some models have.
struct Adapter<M> {
    /// The paper's display name, for [`EngineError::MissingPairData`].
    name: &'static str,
    model: M,
    train: Protocol<M>,
    freeze: Option<fn(&M) -> FrozenModel>,
    factors: Option<fn(&M) -> &Matrix>,
}

impl<M: Scorer + Send + Sync> Estimator for Adapter<M> {
    fn fit(&mut self, data: &FitData<'_>, cfg: &TrainConfig) -> Result<TrainReport, EngineError> {
        let model = &mut self.model;
        match self.train {
            Protocol::Graph(fit) => Ok(fit(model, non_empty(data.train)?, data.val, cfg)),
            Protocol::Pointwise(fit) => Ok(sgd_report(fit(model, non_empty(data.train)?))),
            Protocol::Pairwise(fit) => match (data.pairs, data.user_items) {
                (Some(pairs), Some(user_items)) => Ok(sgd_report(fit(model, non_empty(pairs)?, user_items))),
                _ => Err(EngineError::MissingPairData { model: self.name.to_string() }),
            },
        }
    }
    fn scorer(&self) -> &(dyn Scorer + Sync) {
        &self.model
    }
    fn freeze_if_supported(&self) -> Option<FrozenModel> {
        self.freeze.map(|freeze| freeze(&self.model))
    }
    fn factors(&self) -> Option<&Matrix> {
        self.factors.map(|factors| factors(&self.model))
    }
}

/// The spec-driven constructor.
pub(crate) mod adapters {
    use super::*;
    use gmlfm_data::{FieldMask, Schema};
    use Protocol::{Graph, Pairwise, Pointwise};

    fn adapter<M: Scorer + Send + Sync + 'static>(
        name: &'static str,
        model: M,
        train: Protocol<M>,
        freeze: Option<fn(&M) -> FrozenModel>,
        factors: Option<fn(&M) -> &Matrix>,
    ) -> Box<dyn Estimator> {
        Box::new(Adapter { name, model, train, freeze, factors })
    }

    /// Instantiates the untrained model named by `spec` behind the
    /// [`Estimator`] interface — the single constructor the whole
    /// workspace dispatches through, and the only per-model table:
    /// model, training protocol, frozen form, factor table.
    pub(crate) fn build(spec: &ModelSpec, schema: &Schema, mask: &FieldMask) -> Box<dyn Estimator> {
        let name = spec.display_name();
        let n = schema.total_dim();
        let m = mask.n_active();
        let codec = || PairCodec::from_schema(schema);
        match spec {
            ModelSpec::GmlFm { config } => adapter(
                name,
                GmlFm::new(n, config),
                Graph(fit_regression),
                Some(Freeze::freeze),
                Some(GmlFm::factors),
            ),
            ModelSpec::Fm { config } => adapter(
                name,
                FactorizationMachine::new(n, config.clone()),
                Pointwise(FactorizationMachine::fit),
                Some(Freeze::freeze),
                Some(FactorizationMachine::factors),
            ),
            ModelSpec::TransFm { config } => adapter(
                name,
                TransFm::new(n, config),
                Graph(fit_regression),
                Some(Freeze::freeze),
                Some(TransFm::factors),
            ),
            ModelSpec::Mf { config } => adapter(
                name,
                MatrixFactorization::new(codec(), config.clone()),
                Pointwise(MatrixFactorization::fit),
                None,
                None,
            ),
            ModelSpec::Pmf { config } => {
                adapter(name, Pmf::new(codec(), config.clone()), Pointwise(Pmf::fit), None, None)
            }
            ModelSpec::BprMf { config } => {
                adapter(name, BprMf::new(codec(), config.clone()), Pairwise(BprMf::fit), None, None)
            }
            ModelSpec::Ngcf { config } => {
                adapter(name, Ngcf::new(codec(), config.clone()), Pairwise(Ngcf::fit), None, None)
            }
            ModelSpec::Ncf { config } => {
                adapter(name, Ncf::new(codec(), config), Graph(fit_regression), None, None)
            }
            ModelSpec::Nfm { config } => {
                adapter(name, Nfm::new(n, config), Graph(fit_regression), None, Some(Nfm::factors))
            }
            ModelSpec::Afm { config } => {
                adapter(name, Afm::new(n, config), Graph(fit_regression), None, None)
            }
            ModelSpec::DeepFm { config } => {
                adapter(name, DeepFm::new(n, m, config), Graph(fit_regression), None, None)
            }
            ModelSpec::XDeepFm { config } => {
                adapter(name, XDeepFm::new(n, m, config), Graph(fit_regression), None, None)
            }
        }
    }
}
