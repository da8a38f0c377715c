//! # gmlfm-engine
//!
//! One spec-driven pipeline from configuration to servable artifact,
//! unifying the workspace's four training worlds (autograd regression,
//! hand-derived SGD, pairwise BPR, propagation-based BPR) behind three
//! layers:
//!
//! 1. **[`ModelSpec`]** — a serialisable tagged enum naming every model
//!    in the paper's tables, with an object-safe [`Estimator`] trait
//!    (`fit`, `scorer`, `freeze_if_supported`) implemented for each, so
//!    "construct and train model X" is one call regardless of how X
//!    trains.
//! 2. **[`Engine::builder`]** — the fluent pipeline
//!    `.dataset(..).split(..).spec(..).train_config(..).fit()?`,
//!    returning a [`Recommender`] that scores, ranks the whole item
//!    catalogue (`top_n`), evaluates its holdout, and saves itself.
//! 3. **[`Artifact`]** — a versioned JSON format (spec + schema + frozen
//!    matrices + serving catalog) that [`Engine::load`] restores into a
//!    servable [`Recommender`] without touching the autograd or training
//!    crates, generalising `gmlfm_core`'s GML-FM-only persistence to
//!    every freezable model.
//!
//! ```
//! use gmlfm_engine::{Engine, ModelSpec, SplitPlan};
//! use gmlfm_data::{generate, DatasetSpec};
//!
//! // config → train → freeze → artifact …
//! let dataset = generate(&DatasetSpec::AmazonAuto.config(42).scaled(0.15));
//! let rec = Engine::builder()
//!     .dataset(dataset)
//!     .split(SplitPlan::topn(11))
//!     .spec(ModelSpec::gml_fm_dnn(8, 1))
//!     .fit()
//!     .expect("pipeline");
//! let json = rec.artifact().expect("freezable").to_json();
//!
//! // … and the serving side restores it without the training crates.
//! let served = Engine::load_json(&json).expect("load");
//! let top = served.top_n(0, 5).expect("rank");
//! assert_eq!(top.len(), 5);
//! ```
#![forbid(unsafe_code)]
// The estimator passes the split's per-user item sets through, unread.
#![allow(clippy::disallowed_types)]

pub mod artifact;
pub mod error;
pub mod estimator;
pub mod pipeline;
pub mod spec;

pub use artifact::{Artifact, Catalog, ARTIFACT_VERSION, MIN_ARTIFACT_VERSION};
pub use error::EngineError;
pub use estimator::{Estimator, FitData};
pub use pipeline::{Engine, EngineBuilder, Recommender, SplitPlan};
pub use spec::ModelSpec;

// The scoring-precision knob `EngineBuilder::precision` takes, so engine
// users pick a table precision without a separate `gmlfm_serve` import.
pub use gmlfm_serve::Precision;

// The serving protocol the `Recommender` wrappers route through, so
// engine users build requests without a separate `gmlfm_service` import.
pub use gmlfm_service::{
    BatchRequest, FeedAck, FeedSink, Interaction, ModelServer, ModelSnapshot, Reply, Request, RequestError,
    Response, ScoreRequest, SeenItems, TopNRequest,
};

// The online loop `Recommender::serve_online` launches, so engine users
// configure and drive it without a separate `gmlfm_online` import.
pub use gmlfm_online::{
    EvalGate, GateMetrics, GateReport, OnlineConfig, OnlineError, OnlineHandle, OnlineServing, OnlineStatus,
    OnlineTrainer, RoundOutcome,
};
