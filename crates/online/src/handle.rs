//! The in-process ingest endpoint of the online loop.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

use crate::log::{InteractionLog, PushOutcome};
use gmlfm_service::{exec, FeedAck, FeedSink, Interaction, ModelServer, RequestError, Response};
use std::sync::Arc;

/// The ingest half of the online loop: validates streamed
/// [`Interaction`]s against the *current* snapshot, folds them into the
/// server's live seen overlay **immediately** (so the item leaves the
/// user's top-n before any retrain), and enqueues them for the next
/// warm-start round.
///
/// Cheap to clone; implements [`FeedSink`] so `gmlfm-net` can serve the
/// wire `Feed` request through it without depending on this crate's
/// trainer.
#[derive(Clone)]
pub struct OnlineHandle {
    server: ModelServer,
    log: Arc<InteractionLog>,
}

impl OnlineHandle {
    /// A handle feeding `log` and folding exclusions into `server`.
    pub(crate) fn new(server: ModelServer, log: Arc<InteractionLog>) -> Self {
        Self { server, log }
    }

    /// The shared interaction log.
    pub fn log(&self) -> &Arc<InteractionLog> {
        &self.log
    }

    /// Validates and ingests one interaction:
    ///
    /// 1. full validation against the current snapshot's schema and
    ///    catalog (ids, named fields) — any failure is a typed
    ///    [`RequestError`] and nothing is recorded;
    /// 2. the `(user, item)` pair is folded into the serving seen
    ///    overlay, so `exclude_seen` top-n requests stop recommending
    ///    the item immediately;
    /// 3. the event is enqueued for the next retrain. A full log is the
    ///    retryable [`RequestError::Backpressure`] (the overlay fold
    ///    from step 2 is retained); a repeated [`Interaction::id`] is
    ///    acknowledged with `accepted: false` and not enqueued twice.
    pub fn feed(&self, event: &Interaction) -> Result<Response<FeedAck>, RequestError> {
        let (generation, snap) = self.server.snapshot();
        // Resolving the full training feature vector *is* the
        // validation: ids and named fields all checked, typed errors.
        let _feats = exec::resolve_interaction(&snap.schema, snap.catalog.as_ref(), event)?;
        self.server.record_seen(event.user, event.item)?;
        let ack = match self.log.push(event.clone())? {
            PushOutcome::Accepted { pending } => FeedAck { accepted: true, pending },
            PushOutcome::Duplicate => FeedAck { accepted: false, pending: self.log.pending() },
        };
        Ok(Response { generation, value: ack })
    }
}

impl FeedSink for OnlineHandle {
    fn feed(&self, event: &Interaction) -> Result<Response<FeedAck>, RequestError> {
        OnlineHandle::feed(self, event)
    }
}
