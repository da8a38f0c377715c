//! The engine's typed error: every failure mode of the spec → train →
//! freeze → artifact pipeline, none of them a panic.

use gmlfm_service::RequestError;
use std::fmt;

/// Errors from the unified engine pipeline.
#[derive(Debug)]
pub enum EngineError {
    /// Filesystem failure while saving or loading an artifact.
    Io(std::io::Error),
    /// Malformed artifact JSON (syntax, missing fields, bad tags).
    Json(serde::json::Error),
    /// The artifact's `format_version` is not one this build reads.
    UnsupportedVersion {
        /// Version recorded in the artifact.
        found: u32,
        /// The version this build writes and reads.
        supported: u32,
    },
    /// Structurally valid JSON whose contents are inconsistent (matrix
    /// dimension mismatches, weight-vector length != feature count, ...).
    BadArtifact(String),
    /// The spec'd model does not support the requested task (e.g. BPR-MF
    /// on rating prediction, MF on top-n).
    UnsupportedTask {
        /// Display name of the offending model.
        model: String,
        /// `"rating"` or `"top-n"`.
        task: &'static str,
    },
    /// A pairwise model (BPR-MF, NGCF) was fit without `(user, item)`
    /// training pairs — build the [`crate::FitData`] from a leave-one-out
    /// split.
    MissingPairData {
        /// Display name of the offending model.
        model: String,
    },
    /// `fit` was called with zero training instances.
    EmptyTrainingSet,
    /// `save` on a model with no frozen serving form (deep models keep
    /// their interactions inside an autograd forward).
    NotFreezable {
        /// Display name of the offending model.
        model: String,
    },
    /// `top_n`/`score_pair` on a recommender without a catalog (an
    /// artifact saved without one).
    MissingCatalog,
    /// `evaluate_*` on a recommender whose holdout does not match (or
    /// one restored from an artifact, which has no holdout at all).
    MissingHoldout {
        /// Which holdout the call needed: `"rating"` or `"top-n"`.
        expected: &'static str,
    },
    /// The fluent builder was finalised without a required component.
    BuilderIncomplete {
        /// The missing builder field, e.g. `"dataset"`.
        field: &'static str,
    },
    /// A malformed serving request (out-of-range features, unknown
    /// user/item/field ids, ...) — the typed validation error of the
    /// request path every `score*`/`top_n` call routes through.
    Request(RequestError),
    /// [`crate::Recommender::serve_online`] on a recommender that cannot
    /// start the online loop: not built with
    /// [`crate::EngineBuilder::online`], no top-n holdout to gate on, or
    /// the loop was already launched.
    OnlineUnavailable {
        /// What is missing.
        reason: &'static str,
    },
    /// A failure inside the online learning loop
    /// ([`gmlfm_online::OnlineError`]).
    Online(gmlfm_online::OnlineError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "I/O error: {e}"),
            EngineError::Json(e) => write!(f, "artifact parse error: {e}"),
            EngineError::UnsupportedVersion { found, supported } => {
                write!(f, "artifact format version {found} (this build supports up to {supported})")
            }
            EngineError::BadArtifact(msg) => write!(f, "inconsistent artifact: {msg}"),
            EngineError::UnsupportedTask { model, task } => {
                write!(f, "{model} does not support the {task} task")
            }
            EngineError::MissingPairData { model } => {
                write!(f, "{model} trains on (user, item) pairs; fit it with FitData::topn")
            }
            EngineError::EmptyTrainingSet => write!(f, "empty training set"),
            EngineError::NotFreezable { model } => {
                write!(f, "{model} has no frozen serving form and cannot be saved")
            }
            EngineError::MissingCatalog => {
                write!(f, "recommender has no catalog (artifact saved without one)")
            }
            EngineError::MissingHoldout { expected } => {
                write!(f, "recommender has no {expected} holdout to evaluate on")
            }
            EngineError::BuilderIncomplete { field } => {
                write!(f, "Engine::builder(): missing required component '{field}'")
            }
            EngineError::Request(e) => write!(f, "invalid request: {e}"),
            EngineError::OnlineUnavailable { reason } => {
                write!(f, "online loop unavailable: {reason}")
            }
            EngineError::Online(e) => write!(f, "online loop failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<serde::json::Error> for EngineError {
    fn from(e: serde::json::Error) -> Self {
        EngineError::Json(e)
    }
}

impl From<RequestError> for EngineError {
    fn from(e: RequestError) -> Self {
        EngineError::Request(e)
    }
}

impl From<gmlfm_online::OnlineError> for EngineError {
    fn from(e: gmlfm_online::OnlineError) -> Self {
        EngineError::Online(e)
    }
}
