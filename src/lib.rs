//! # gml-fm
//!
//! Facade crate for the GML-FM workspace: a from-scratch Rust
//! reproduction of *Enhancing Factorization Machines with Generalized
//! Metric Learning* (ICDE'23 / TKDE; arXiv:2006.11600).
//!
//! Each subsystem lives in its own crate and is re-exported here under a
//! short name:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `gmlfm-tensor` | dense `f64` matrices, seeded init, Cholesky |
//! | [`autograd`] | `gmlfm-autograd` | tape-based reverse-mode AD, gradient checks |
//! | [`data`] | `gmlfm-data` | schemas, synthetic Table-2 datasets, splits, sampling |
//! | [`train`] | `gmlfm-train` | SGD/Adam, squared + BPR losses, trainers |
//! | [`models`] | `gmlfm-models` | the twelve baselines the paper compares against |
//! | [`par`] | `gmlfm-par` | `Parallelism`, the order-preserving `par_blocks` fan-out and its `par_map` wrapper, for offline work (eval, batch scoring, index build) |
//! | [`core`] | `gmlfm-core` | **GML-FM** itself: distances, transforms, efficient evaluation |
//! | [`serve`] | `gmlfm-serve` | autograd-free serving: `Freeze`, `FrozenModel`, Eq. 10/11 ranking, bounded-heap top-N on the calling thread |
//! | [`service`] | `gmlfm-service` | **online serving API**: typed requests/responses, hot-swappable `ModelServer` |
//! | [`net`] | `gmlfm-net` | **fault-tolerant TCP serving**: length-prefixed JSON frames, deadlines, backpressure, graceful drain |
//! | [`online`] | `gmlfm-online` | **online learning loop**: streaming ingest, warm-start retraining, eval-gated hot swap |
//! | [`engine`] | `gmlfm-engine` | **unified pipeline**: `ModelSpec` → `Engine::builder()` → `Recommender` → versioned `Artifact` |
//! | [`eval`] | `gmlfm-eval` | RMSE/HR/NDCG/MRR/AUC, protocols, significance tests |
//! | [`tsne`] | `gmlfm-tsne` | exact t-SNE for the embedding case study |
//!
//! ## Minimal end-to-end example
//!
//! The engine is the front door: declare a model as a [`engine::ModelSpec`],
//! run the fluent pipeline, and get back a servable
//! [`engine::Recommender`] that scores, ranks, evaluates and persists
//! itself as a versioned artifact.
//!
//! ```
//! use gml_fm::data::{generate, DatasetSpec};
//! use gml_fm::engine::{Engine, ModelSpec, SplitPlan};
//!
//! // A tiny seeded dataset, the paper's rating protocol, and GML-FM
//! // with the deep (1-layer) distance — one declarative pipeline.
//! let dataset = generate(&DatasetSpec::AmazonAuto.config(42).scaled(0.15));
//! let rec = Engine::builder()
//!     .dataset(dataset)
//!     .split(SplitPlan::rating(7))
//!     .spec(ModelSpec::gml_fm_dnn(8, 1))
//!     .fit()
//!     .expect("pipeline");
//!
//! // Evaluation runs tape-free through the frozen serving path.
//! let metrics = rec.evaluate_rating().expect("rating holdout");
//! assert!(metrics.rmse.is_finite());
//!
//! // The same handle persists as a versioned, servable artifact.
//! let artifact = rec.artifact().expect("GML-FM freezes").to_json();
//! let served = Engine::load_json(&artifact).expect("restore");
//! assert_eq!(served.top_n(0, 5).expect("rank").len(), 5);
//! ```
//!
//! The crate-level APIs (`core::GmlFm`, `train::fit_regression`,
//! `serve::Freeze`, ...) remain available as the engine's internals for
//! custom protocols. See `examples/` for complete scenarios and the
//! `repro` binary (`gmlfm-experiments`) for regenerating every table and
//! figure of the paper.
#![forbid(unsafe_code)]

pub use gmlfm_autograd as autograd;
pub use gmlfm_core as core;
pub use gmlfm_data as data;
pub use gmlfm_engine as engine;
pub use gmlfm_eval as eval;
pub use gmlfm_models as models;
pub use gmlfm_net as net;
pub use gmlfm_online as online;
pub use gmlfm_par as par;
pub use gmlfm_serve as serve;
pub use gmlfm_service as service;
pub use gmlfm_tensor as tensor;
pub use gmlfm_train as train;
pub use gmlfm_tsne as tsne;
