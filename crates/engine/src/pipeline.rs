//! The fluent engine pipeline: dataset → split → spec → train config →
//! [`Recommender`], and artifact load on the serving side.
//!
//! A fitted (or loaded) freezable recommender is backed by a
//! [`gmlfm_service::ModelServer`]: every `score*`/`top_n`/holdout-
//! evaluation call routes through the typed request path, and
//! [`Recommender::serve`] hands out the underlying hot-swappable handle
//! for a serving process to share across threads.
//!
//! ```
//! use gmlfm_engine::{Engine, ModelSpec, SplitPlan};
//! use gmlfm_data::{generate, DatasetSpec};
//!
//! let dataset = generate(&DatasetSpec::AmazonAuto.config(42).scaled(0.15));
//! let rec = Engine::builder()
//!     .dataset(dataset)
//!     .split(SplitPlan::rating(7))
//!     .spec(ModelSpec::gml_fm_dnn(8, 1))
//!     .fit()
//!     .expect("pipeline");
//! let metrics = rec.evaluate_rating().expect("rating holdout");
//! assert!(metrics.rmse.is_finite());
//! ```

use crate::artifact::{Artifact, Catalog};
use crate::error::EngineError;
use crate::estimator::{Estimator, FitData};
use crate::spec::ModelSpec;
use gmlfm_data::{loo_split, rating_split, Dataset, FieldKind, FieldMask, Instance, LooTestCase, Schema};
use gmlfm_eval::{evaluate_rating, evaluate_topn_backend, RatingMetrics, ScorerBackend, TopnMetrics};
use gmlfm_net::{NetServer, ServerConfig as NetServerConfig};
use gmlfm_online::{OnlineConfig, OnlineError, OnlineModel, OnlineServing};
use gmlfm_par::Parallelism;
use gmlfm_serve::{FrozenModel, IvfBuildOptions, IvfIndex, Precision, RetrievalStrategy};
use gmlfm_service::{
    exec, BatchRequest, ModelServer, ModelSnapshot, Reply, RequestError, Response, ScoreRequest, SeenItems,
    TopNRequest,
};
use gmlfm_train::{Scorer, TrainConfig, TrainReport};
use std::path::Path;

/// The generation stamped on responses from live (non-freezable,
/// non-swappable) recommenders: they serve exactly one model, forever.
const LIVE_GENERATION: u64 = 1;

/// How the engine splits a dataset before training.
#[derive(Debug, Clone, Copy)]
pub enum SplitPlan {
    /// The paper's rating protocol: ±1 implicit targets, sampled
    /// negatives, 70/20/10 split (Section 4.3.1).
    Rating {
        /// Sampled negatives per positive (2 in the paper).
        neg_per_pos: usize,
        /// Split seed.
        seed: u64,
    },
    /// The paper's leave-one-out top-n protocol (Section 4.3.2).
    TopN {
        /// Sampled training negatives per positive (2 in the paper).
        neg_per_pos: usize,
        /// Candidate negatives per test case (99 in the paper).
        n_candidates: usize,
        /// Split seed.
        seed: u64,
    },
}

impl SplitPlan {
    /// Rating protocol with the paper's defaults (2 negatives per
    /// positive).
    pub fn rating(seed: u64) -> Self {
        SplitPlan::Rating { neg_per_pos: 2, seed }
    }

    /// Leave-one-out protocol with the paper's defaults (2 training
    /// negatives per positive, 99 candidates).
    pub fn topn(seed: u64) -> Self {
        SplitPlan::TopN { neg_per_pos: 2, n_candidates: 99, seed }
    }
}

impl Default for SplitPlan {
    fn default() -> Self {
        SplitPlan::rating(7)
    }
}

/// Entry points of the unified pipeline.
pub struct Engine;

impl Engine {
    /// Starts the fluent config → train → freeze pipeline.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            dataset: None,
            mask: None,
            split: SplitPlan::default(),
            spec: None,
            train: TrainConfig::default(),
            par: Parallelism::auto(),
            retrieval: RetrievalStrategy::Exact,
            precision: Precision::F64,
            online: false,
        }
    }

    /// Restores a servable [`Recommender`] from an [`Artifact`] file.
    /// Only the frozen matrices are touched — no autograd, no trainers.
    pub fn load(path: impl AsRef<Path>) -> Result<Recommender, EngineError> {
        Recommender::from_artifact(Artifact::load(path)?)
    }

    /// [`Engine::load`] from an in-memory JSON string.
    pub fn load_json(text: &str) -> Result<Recommender, EngineError> {
        Recommender::from_artifact(Artifact::from_json(text)?)
    }
}

/// Fluent builder returned by [`Engine::builder`].
pub struct EngineBuilder {
    dataset: Option<Dataset>,
    mask: Option<FieldMask>,
    split: SplitPlan,
    spec: Option<ModelSpec>,
    train: TrainConfig,
    par: Parallelism,
    retrieval: RetrievalStrategy,
    precision: Precision,
    online: bool,
}

impl EngineBuilder {
    /// The dataset to split, train and build the serving catalog from.
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Restricts training and serving to an attribute subset (defaults
    /// to every field).
    pub fn mask(mut self, mask: FieldMask) -> Self {
        self.mask = Some(mask);
        self
    }

    /// The split protocol (defaults to [`SplitPlan::rating`] with seed 7).
    pub fn split(mut self, split: SplitPlan) -> Self {
        self.split = split;
        self
    }

    /// Which model to construct and train.
    pub fn spec(mut self, spec: ModelSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Training-loop hyper-parameters for the autograd trainers
    /// (hand-derived SGD models carry their own in the spec).
    pub fn train_config(mut self, train: TrainConfig) -> Self {
        self.train = train;
        self
    }

    /// Serving/eval parallelism for the resulting [`Recommender`]:
    /// batch scoring, `top_n` and holdout evaluation partition their
    /// work across this many threads. Defaults to
    /// [`Parallelism::auto`] (`GMLFM_THREADS` or the machine's core
    /// count); `threads(1)` is the deterministic serial escape hatch —
    /// though parallel results are bit-identical to serial anyway,
    /// pinned by the `parallel_parity` tests.
    pub fn threads(mut self, n: usize) -> Self {
        self.par = Parallelism::threads(n);
        self
    }

    /// Candidate-selection strategy for whole-catalogue top-n requests
    /// (defaults to [`RetrievalStrategy::Exact`]).
    /// [`RetrievalStrategy::Ivf`] builds a [`gmlfm_serve::IvfIndex`]
    /// over the serving catalog after freezing — scores stay exact, the
    /// candidate set becomes approximate (see [`RetrievalStrategy`]) —
    /// and persists it in the artifact (format v3) so load → serve
    /// needs no rebuild. Models without the metric linearisation, or
    /// catalogs too small to profit, skip the build and serve exactly.
    pub fn retrieval(mut self, strategy: RetrievalStrategy) -> Self {
        self.retrieval = strategy;
        self
    }

    /// Default scoring-table precision of the frozen snapshot (defaults
    /// to [`Precision::F64`]: exact scores, no extra tables). Lower
    /// precisions build the `f32`/quantized `i8` tables at freeze time
    /// and persist them with the model (artifact format v4 records the
    /// setting; the tables themselves are rebuilt on load from the
    /// exact matrices, so artifacts don't grow). Per-request
    /// `TopNRequest::precision` overrides this default either way; see
    /// [`Precision`] for the accuracy contract of each level. Models
    /// without the metric linearisation have no low-precision form and
    /// serve exactly regardless.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Opts the fitted [`Recommender`] into online learning: the trained
    /// estimator and the base training instances are retained so
    /// [`Recommender::serve_online`] can warm-start retraining rounds
    /// from the published weights. Off by default — retention costs one
    /// copy of the training set.
    pub fn online(mut self, online: bool) -> Self {
        self.online = online;
        self
    }

    /// Runs the pipeline: split, construct, train, freeze (when
    /// supported), and wrap into a [`Recommender`] with its serving
    /// catalog, seen sets and evaluation holdout.
    pub fn fit(self) -> Result<Recommender, EngineError> {
        let dataset = self.dataset.ok_or(EngineError::BuilderIncomplete { field: "dataset" })?;
        let spec = self.spec.ok_or(EngineError::BuilderIncomplete { field: "spec" })?;
        let mask = self.mask.unwrap_or_else(|| FieldMask::all(&dataset.schema));
        let mut estimator = spec.build(&dataset.schema, &mask);
        let (report, holdout, seen, base) = match self.split {
            SplitPlan::Rating { neg_per_pos, seed } => {
                if !spec.supports_rating() {
                    return Err(EngineError::UnsupportedTask {
                        model: spec.display_name().to_string(),
                        task: "rating",
                    });
                }
                let split = rating_split(&dataset, &mask, neg_per_pos, seed);
                let report = estimator.fit(&FitData::rating(&split), &self.train)?;
                let seen = rating_seen(&dataset.schema, &mask, &split.train, dataset.n_users);
                let base = self.online.then_some(split.train);
                (report, Holdout::Rating(split.test), seen, base)
            }
            SplitPlan::TopN { neg_per_pos, n_candidates, seed } => {
                if !spec.supports_topn() {
                    return Err(EngineError::UnsupportedTask {
                        model: spec.display_name().to_string(),
                        task: "top-n",
                    });
                }
                let split = loo_split(&dataset, &mask, neg_per_pos, n_candidates, seed);
                let report = estimator.fit(&FitData::topn(&split), &self.train)?;
                let seen = SeenItems::new(
                    split.train_user_items.iter().map(|s| s.iter().copied().collect()).collect(),
                );
                let base = self.online.then_some(split.train);
                (report, Holdout::TopN(split.test), Some(seen), base)
            }
        };
        let catalog = Catalog::from_dataset(&dataset, &mask);
        let schema = dataset.schema;
        let (serving, online) = match estimator.freeze_if_supported() {
            Some(frozen) => {
                let frozen = frozen.with_precision(self.precision);
                let index = match self.retrieval {
                    RetrievalStrategy::Exact => None,
                    RetrievalStrategy::Ivf { nprobe } => {
                        let opts = IvfBuildOptions { nprobe, ..IvfBuildOptions::default() };
                        IvfIndex::build(&frozen, &catalog, &opts, self.par)
                    }
                };
                let server = ModelServer::new(ModelSnapshot {
                    schema: schema.clone(),
                    frozen,
                    catalog: Some(catalog),
                    seen,
                    index,
                })?;
                // Online retraining needs the estimator's still-trainable
                // parameters (the warm-start state); without the opt-in
                // the estimator drops here as before.
                let online = base.map(|base| OnlineSeed { est: estimator, base });
                (Serving::Service(server), online)
            }
            None => (Serving::Live { est: estimator, catalog: Some(catalog), seen }, None),
        };
        Ok(Recommender {
            spec,
            schema,
            serving,
            holdout: Some(holdout),
            report: Some(report),
            par: self.par,
            online,
        })
    }
}

/// How a recommender answers scoring requests.
enum Serving {
    /// The hot-swappable serving handle over the frozen snapshot
    /// (GML-FM, FM, TransFM).
    Service(ModelServer),
    /// The trained estimator itself (models without a frozen form),
    /// answering the same request protocol through its own scorer.
    Live {
        /// The trained estimator.
        est: Box<dyn Estimator>,
        /// Serving catalog, when fit from a dataset.
        catalog: Option<Catalog>,
        /// Training-time seen sets, when fit from a dataset.
        seen: Option<SeenItems>,
    },
}

/// The held-out test portion of the fitted split.
enum Holdout {
    Rating(Vec<Instance>),
    TopN(Vec<LooTestCase>),
}

/// What [`EngineBuilder::online`] retains for warm-start retraining: the
/// trained estimator (its parameters *are* the published weights) and
/// the base training instances new interactions accumulate onto.
struct OnlineSeed {
    est: Box<dyn Estimator>,
    base: Vec<Instance>,
}

/// Adapts a trained [`Estimator`] onto the online loop's
/// [`OnlineModel`]: warm-starting is just calling `fit` again — every
/// estimator trains in place from its current parameters.
struct EstimatorModel {
    est: Box<dyn Estimator>,
}

impl OnlineModel for EstimatorModel {
    fn warm_fit(&mut self, train: &[Instance], cfg: &TrainConfig) -> Result<(), OnlineError> {
        if train.is_empty() {
            return Err(OnlineError::Train("empty training set".into()));
        }
        self.est
            .fit(&FitData::instances(train), cfg)
            .map(drop)
            .map_err(|e| OnlineError::Train(e.to_string()))
    }

    fn freeze(&self) -> Result<FrozenModel, OnlineError> {
        self.est
            .freeze_if_supported()
            .ok_or_else(|| OnlineError::Train("model has no frozen serving form".into()))
    }
}

/// A trained, servable model: typed request handling, catalog-wide top-n
/// ranking, holdout evaluation and artifact persistence behind one
/// handle. Freezable models are backed by a hot-swappable
/// [`ModelServer`] ([`Recommender::serve`] shares it).
pub struct Recommender {
    spec: ModelSpec,
    schema: Schema,
    serving: Serving,
    holdout: Option<Holdout>,
    report: Option<TrainReport>,
    /// Worker count for batch scoring, `top_n` and holdout evaluation.
    par: Parallelism,
    /// Warm-start state retained by [`EngineBuilder::online`]; taken by
    /// [`Recommender::serve_online`].
    online: Option<OnlineSeed>,
}

impl Recommender {
    pub(crate) fn from_artifact(artifact: Artifact) -> Result<Self, EngineError> {
        let spec = artifact.spec.clone();
        let snapshot = artifact.into_snapshot()?;
        let schema = snapshot.schema.clone();
        Ok(Self {
            spec,
            schema,
            serving: Serving::Service(ModelServer::new(snapshot)?),
            holdout: None,
            report: None,
            par: Parallelism::auto(),
            online: None,
        })
    }

    /// Overrides the serving/eval parallelism (loaded artifacts start at
    /// [`Parallelism::auto`]); `1` forces the serial path.
    pub fn set_threads(&mut self, n: usize) {
        self.par = Parallelism::threads(n);
    }

    /// The serving/eval worker count this recommender uses.
    pub fn threads(&self) -> usize {
        self.par.get()
    }

    /// The spec this recommender was built from (or restored with).
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The one-hot feature schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The serving catalog, when present.
    pub fn catalog(&self) -> Option<&Catalog> {
        match &self.serving {
            Serving::Service(server) => server.catalog(),
            Serving::Live { catalog, .. } => catalog.as_ref(),
        }
    }

    /// The per-user training-time seen sets, when present.
    pub fn seen(&self) -> Option<&SeenItems> {
        match &self.serving {
            Serving::Service(server) => server.seen(),
            Serving::Live { seen, .. } => seen.as_ref(),
        }
    }

    /// The training report, when this handle came out of a fit.
    pub fn report(&self) -> Option<&TrainReport> {
        self.report.as_ref()
    }

    /// The frozen serving model, when the spec supports freezing.
    pub fn frozen(&self) -> Option<&FrozenModel> {
        match &self.serving {
            Serving::Service(server) => Some(server.frozen()),
            Serving::Live { .. } => None,
        }
    }

    /// The IVF retrieval index of the current snapshot, when the
    /// pipeline built one ([`EngineBuilder::retrieval`]) or the loaded
    /// artifact carried one.
    pub fn index(&self) -> Option<&IvfIndex> {
        match &self.serving {
            Serving::Service(server) => server.snapshot().1.index.as_ref(),
            Serving::Live { .. } => None,
        }
    }

    /// The shared, hot-swappable serving handle backing this recommender
    /// (freezable models only).
    ///
    /// The returned [`ModelServer`] is `Clone + Send + Sync`: hand
    /// clones to every request thread. It is the *same* handle this
    /// recommender scores through, so a
    /// [`swap`](ModelServer::swap) through it also hot-reloads what
    /// `self.score*`/`top_n` answer — that is the zero-downtime refresh
    /// path, not a side effect.
    pub fn serve(&self) -> Result<ModelServer, EngineError> {
        match &self.serving {
            Serving::Service(server) => Ok(server.clone()),
            Serving::Live { .. } => {
                Err(EngineError::NotFreezable { model: self.spec.display_name().to_string() })
            }
        }
    }

    /// Serves this recommender over TCP: binds `addr` (port 0 for an
    /// ephemeral port) and answers the typed Score/TopN/Batch protocol
    /// with `gmlfm-net`'s robustness contract — length-prefixed JSON
    /// frames, per-connection deadlines, bounded connection budget with
    /// typed `overloaded` shedding, and graceful drain on
    /// [`NetServer::shutdown`].
    ///
    /// The network server shares the same hot-swappable handle as
    /// [`Recommender::serve`]: a [`ModelServer::swap`] through either
    /// handle hot-reloads what the network answers, generation-stamped
    /// and without mixing generations inside any in-flight reply.
    pub fn serve_net(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: NetServerConfig,
    ) -> Result<NetServer, EngineError> {
        let server = std::sync::Arc::new(self.serve()?);
        NetServer::bind(server, addr, config).map_err(EngineError::Io)
    }

    /// Starts the online learning loop over this recommender's serving
    /// handle: streamed interactions (fed through the returned
    /// [`OnlineServing::handle`]) fold into the live seen overlay
    /// immediately, a background thread warm-starts retraining from the
    /// published weights on the configured cadence, and candidates
    /// publish through an [`gmlfm_online::EvalGate`] pinned to this
    /// recommender's top-n holdout — so the in-process `score*`/`top_n`
    /// wrappers, [`Recommender::serve`] clones and
    /// [`Recommender::serve_net`] transports all hot-reload together.
    ///
    /// Requires a freezable model fit with
    /// [`EngineBuilder::online`]`(true)` and a top-n holdout
    /// ([`SplitPlan::topn`]). Consumes the retained warm-start state:
    /// a second call is [`EngineError::OnlineUnavailable`].
    pub fn serve_online(&mut self, cfg: OnlineConfig) -> Result<OnlineServing, EngineError> {
        let server = self.serve()?;
        let holdout = match &self.holdout {
            Some(Holdout::TopN(cases)) => cases.clone(),
            _ => {
                return Err(EngineError::OnlineUnavailable {
                    reason: "no top-n holdout to gate on (fit with SplitPlan::topn)",
                })
            }
        };
        let seed = self.online.take().ok_or(EngineError::OnlineUnavailable {
            reason: "warm-start state not retained (build with .online(true)) or already launched",
        })?;
        let model = Box::new(EstimatorModel { est: seed.est });
        Ok(OnlineServing::launch(server, model, seed.base, holdout, cfg)?)
    }

    /// Answers a typed [`ScoreRequest`] (the path every `score*`
    /// convenience wrapper routes through).
    pub fn handle_score(&self, req: &ScoreRequest) -> Result<Response<f64>, EngineError> {
        match &self.serving {
            Serving::Service(server) => Ok(server.score(req)?),
            Serving::Live { est, catalog, .. } => {
                let backend = ScorerBackend(est.scorer());
                let value = exec::execute_score(&backend, &self.schema, catalog.as_ref(), req)?;
                Ok(Response { generation: LIVE_GENERATION, value })
            }
        }
    }

    /// Answers a typed [`TopNRequest`]: `(item, score)` pairs, best
    /// first, ties broken by ascending item id. Unlike the
    /// [`Recommender::top_n`] convenience wrapper, the request's own
    /// seen-item exclusion default (exclude) applies.
    pub fn handle_top_n(&self, req: &TopNRequest) -> Result<Response<Vec<(u32, f64)>>, EngineError> {
        match &self.serving {
            Serving::Service(server) => Ok(server.top_n(&self.with_par(req))?),
            Serving::Live { est, catalog, seen } => {
                let backend = ScorerBackend(est.scorer());
                let value =
                    exec::execute_topn(&backend, catalog.as_ref(), seen.as_ref(), &[], req, self.par)?;
                Ok(Response { generation: LIVE_GENERATION, value })
            }
        }
    }

    /// Answers a [`BatchRequest`] against one model snapshot; each
    /// sub-request validates and fails independently. Like the other
    /// wrappers, a batch without its own [`BatchRequest::parallelism`]
    /// fans out across this recommender's configured worker count.
    pub fn handle_batch(&self, req: &BatchRequest) -> Response<Vec<Result<Reply, RequestError>>> {
        let mut req = req.clone();
        req.par = Some(req.par.unwrap_or(self.par));
        match &self.serving {
            Serving::Service(server) => server.batch(&req),
            Serving::Live { est, catalog, seen } => {
                let backend = ScorerBackend(est.scorer());
                let value =
                    exec::execute_batch(&backend, &self.schema, catalog.as_ref(), seen.as_ref(), None, &req);
                Response { generation: LIVE_GENERATION, value }
            }
        }
    }

    /// Scores one instance. Out-of-range feature indices are a typed
    /// [`EngineError::Request`], never a panic.
    pub fn score(&self, instance: &Instance) -> Result<f64, EngineError> {
        self.score_feats(&instance.feats)
    }

    /// Scores raw active feature indices (validated against the schema).
    pub fn score_feats(&self, feats: &[u32]) -> Result<f64, EngineError> {
        Ok(self.handle_score(&ScoreRequest::Feats(feats.to_vec()))?.value)
    }

    /// Scores a `(user, item)` pair through the catalog.
    pub fn score_pair(&self, user: u32, item: u32) -> Result<f64, EngineError> {
        Ok(self.handle_score(&ScoreRequest::Pair { user, item })?.value)
    }

    /// Ranks the entire item catalogue for `user` and returns the top
    /// `n` `(item, score)` pairs, best first — a thin wrapper over
    /// [`Recommender::handle_top_n`] that ranks every item (no seen-item
    /// exclusion, matching the evaluation protocols). Build a
    /// [`TopNRequest`] for the production default of excluding the
    /// user's training-time items, candidate subsets or explicit
    /// exclusions.
    ///
    /// Retrieval is the sharded bounded-heap path — never a full
    /// catalogue sort — under the deterministic total order documented
    /// on [`TopNRequest`]: score descending, equal scores broken by
    /// ascending item id.
    pub fn top_n(&self, user: u32, n: usize) -> Result<Vec<(u32, f64)>, EngineError> {
        let req = TopNRequest::new(user, n).include_seen().parallelism(self.par);
        Ok(self.handle_top_n(&req)?.value)
    }

    /// Fills a request's parallelism with this recommender's configured
    /// worker count when the request does not pin its own.
    fn with_par(&self, req: &TopNRequest) -> TopNRequest {
        let mut req = req.clone();
        req.par = Some(req.par.unwrap_or(self.par));
        req
    }

    /// RMSE/MAE on the rating holdout this recommender was fit with.
    pub fn evaluate_rating(&self) -> Result<RatingMetrics, EngineError> {
        match &self.holdout {
            Some(Holdout::Rating(test)) => Ok(evaluate_rating(self, test)),
            _ => Err(EngineError::MissingHoldout { expected: "rating" }),
        }
    }

    /// HR@k / NDCG@k on the leave-one-out holdout this recommender was
    /// fit with.
    pub fn evaluate_topn(&self, k: usize) -> Result<TopnMetrics, EngineError> {
        match &self.holdout {
            Some(Holdout::TopN(cases)) => self.topn_metrics(cases, k),
            _ => Err(EngineError::MissingHoldout { expected: "top-n" }),
        }
    }

    /// Leave-one-out metrics through [`evaluate_topn_backend`], the one
    /// protocol: each case is a candidate-restricted
    /// ranking request against **one** pinned snapshot, fanned out one
    /// contiguous block of cases per thread and merged in case order.
    fn topn_metrics(&self, cases: &[LooTestCase], k: usize) -> Result<TopnMetrics, EngineError> {
        if cases.is_empty() {
            // Align with gmlfm_eval's protocols, which reject empty test
            // sets — but as a typed error instead of a panic.
            return Err(EngineError::MissingHoldout { expected: "top-n" });
        }
        let metrics = match &self.serving {
            Serving::Service(server) => {
                let (_, snap) = server.snapshot();
                evaluate_topn_backend(
                    &snap.frozen,
                    snap.catalog.as_ref(),
                    snap.seen.as_ref(),
                    cases,
                    k,
                    self.par,
                )
            }
            Serving::Live { est, catalog, seen } => evaluate_topn_backend(
                &ScorerBackend(est.scorer()),
                catalog.as_ref(),
                seen.as_ref(),
                cases,
                k,
                self.par,
            ),
        };
        metrics.map_err(EngineError::from)
    }

    /// Captures the current frozen state as a versioned [`Artifact`]
    /// (after a hot swap, that is the *swapped-in* snapshot — online
    /// retrains publish straight into what `save` persists). Seen sets
    /// are the snapshot's folded with the server's live overlay, so
    /// interactions fed since the last retrain survive a save → load
    /// round trip instead of silently reappearing in top-n results.
    /// Fails with [`EngineError::NotFreezable`] for models without a
    /// frozen serving form.
    pub fn artifact(&self) -> Result<Artifact, EngineError> {
        match &self.serving {
            Serving::Service(server) => {
                let (_, snap) = server.snapshot();
                let overlay = server.overlay_seen();
                let seen = if overlay.total() == 0 {
                    snap.seen.clone()
                } else {
                    let mut merged = snap.seen.clone().unwrap_or_else(|| SeenItems::new(Vec::new()));
                    merged.merge(&overlay);
                    Some(merged)
                };
                Ok(Artifact::new(
                    self.spec.clone(),
                    &snap.schema,
                    &snap.frozen,
                    snap.catalog.clone(),
                    seen,
                    snap.index.as_ref(),
                ))
            }
            Serving::Live { .. } => {
                Err(EngineError::NotFreezable { model: self.spec.display_name().to_string() })
            }
        }
    }

    /// Saves the artifact as JSON (see [`Recommender::artifact`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        self.artifact()?.save(path)
    }
}

/// Reconstructs per-user seen sets from a rating split's training
/// instances by decoding the user/item one-hot indices through the
/// schema. `None` when the mask hides either id field (no way to
/// attribute interactions).
fn rating_seen(schema: &Schema, mask: &FieldMask, train: &[Instance], n_users: usize) -> Option<SeenItems> {
    let user_field = schema.field_of_kind(FieldKind::User)?;
    let item_field = schema.field_of_kind(FieldKind::Item)?;
    if !mask.is_active(user_field) || !mask.is_active(item_field) {
        return None;
    }
    let active = mask.active_fields();
    let user_slot = active.iter().position(|&f| f == user_field)?;
    let item_slot = active.iter().position(|&f| f == item_field)?;
    let user_off = schema.offset(user_field) as u32;
    let item_off = schema.offset(item_field) as u32;
    let mut per_user = vec![Vec::new(); n_users];
    for inst in train.iter().filter(|i| i.label > 0.0) {
        let (Some(&uf), Some(&itf)) = (inst.feats.get(user_slot), inst.feats.get(item_slot)) else {
            continue;
        };
        if let Some(items) = per_user.get_mut((uf - user_off) as usize) {
            items.push(itf - item_off);
        }
    }
    Some(SeenItems::new(per_user))
}

impl std::fmt::Debug for Recommender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recommender")
            .field("spec", &self.spec)
            .field("frozen", &matches!(self.serving, Serving::Service(_)))
            .field("has_catalog", &self.catalog().is_some())
            .field("has_holdout", &self.holdout.is_some())
            .finish_non_exhaustive()
    }
}

impl Scorer for Recommender {
    /// Batch scoring over trusted, pre-validated instances (the holdout
    /// evaluation path): frozen recommenders fan the batch across
    /// threads against the server's *current* snapshot; public
    /// per-request entry points go through [`Recommender::handle_score`]
    /// instead, which validates.
    fn scores(&self, instances: &[Instance]) -> Vec<f64> {
        match &self.serving {
            Serving::Service(server) => {
                let (_, snap) = server.snapshot();
                snap.frozen.scores_with(instances, self.par)
            }
            Serving::Live { est, .. } => est.scorer().scores(instances),
        }
    }
}
