//! Online learning loop for GML-FM serving: streaming ingest,
//! warm-start retraining, eval-gated hot swap.
//!
//! This crate closes the loop from an interaction stream back to the
//! published model, in three stages that never block readers:
//!
//! 1. **Ingest** ([`OnlineHandle`], [`InteractionLog`]) — validated
//!    events fold into the serving seen overlay *immediately* (the item
//!    leaves the user's top-n before any retrain) and queue in a
//!    bounded, idempotent log;
//! 2. **Retrain** ([`OnlineTrainer`]) — on cadence or event count, a
//!    background thread warm-starts SGD from the serving snapshot's
//!    weights over base + accumulated interactions;
//! 3. **Gate + publish** ([`EvalGate`]) — the candidate is scored on a
//!    pinned holdout and only a non-regressing candidate reaches
//!    [`ModelServer::swap`](gmlfm_service::ModelServer::swap); rejected
//!    candidates come back as a typed [`GateReport`].
//!
//! Everything is std-only, mirroring the rest of the workspace.
#![forbid(unsafe_code)]

mod error;
mod gate;
mod handle;
mod log;
mod trainer;

pub use error::OnlineError;
pub use gate::{EvalGate, GateMetrics, GateReport};
pub use handle::OnlineHandle;
pub use log::{InteractionLog, LogStats, PushOutcome};
pub use trainer::{OnlineConfig, OnlineModel, OnlineServing, OnlineStatus, OnlineTrainer, RoundOutcome};
