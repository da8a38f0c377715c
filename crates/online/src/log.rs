//! The bounded, typed interaction log between ingest and retraining.
//!
//! [`InteractionLog`] is the hand-off buffer of the online loop: feeds
//! push validated [`Interaction`]s in, the [`crate::OnlineTrainer`]
//! drains them at the start of each warm-start round. It is **bounded**
//! — a full log rejects with the typed, retryable
//! [`RequestError::Backpressure`] instead of growing without limit — and
//! **idempotent** for retries: an event carrying an [`Interaction::id`]
//! already accepted is acknowledged as a duplicate, not enqueued twice
//! (the retrying `gmlfm-net` client may deliver an ambiguous-failure
//! feed more than once).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

use gmlfm_service::{Interaction, RequestError};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// What one [`InteractionLog::push`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Newly enqueued; `pending` events now await the next retrain.
    Accepted {
        /// Events in the log after this push.
        pending: usize,
    },
    /// The event's `id` was already accepted — an idempotent retry.
    Duplicate,
}

/// Counters describing a log's lifetime traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Events accepted (including already-drained ones).
    pub accepted: u64,
    /// Idempotent duplicates acknowledged without enqueueing.
    pub duplicates: u64,
    /// Events rejected with [`RequestError::Backpressure`].
    pub rejected: u64,
}

struct LogInner {
    events: Vec<Interaction>,
    /// Every `Interaction::id` ever accepted — the deduplication window
    /// for idempotent retries. Grows 8 bytes per distinct id; events
    /// without ids cost nothing here.
    ids: BTreeSet<u64>,
    stats: LogStats,
}

/// A bounded FIFO of validated interactions shared between feeders and
/// the trainer. All operations are short critical sections (a push, a
/// membership check, a buffer swap) — never a scan or a retrain.
pub struct InteractionLog {
    inner: Mutex<LogInner>,
    capacity: usize,
}

impl InteractionLog {
    /// An empty log holding at most `capacity` undrained events.
    /// `capacity` is clamped to at least 1.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(LogInner {
                events: Vec::new(),
                ids: BTreeSet::new(),
                stats: LogStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// The log's event capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues one validated event. A full log is the typed, retryable
    /// [`RequestError::Backpressure`]; a repeated [`Interaction::id`] is
    /// acknowledged as [`PushOutcome::Duplicate`] without enqueueing.
    pub fn push(&self, event: Interaction) -> Result<PushOutcome, RequestError> {
        let mut inner = self.lock();
        if let Some(id) = event.id {
            if inner.ids.contains(&id) {
                inner.stats.duplicates += 1;
                return Ok(PushOutcome::Duplicate);
            }
        }
        if inner.events.len() >= self.capacity {
            inner.stats.rejected += 1;
            return Err(RequestError::Backpressure { capacity: self.capacity });
        }
        if let Some(id) = event.id {
            inner.ids.insert(id);
        }
        inner.events.push(event);
        inner.stats.accepted += 1;
        Ok(PushOutcome::Accepted { pending: inner.events.len() })
    }

    /// Events currently awaiting the next retrain.
    pub fn pending(&self) -> usize {
        self.lock().events.len()
    }

    /// Takes every pending event (in arrival order), leaving the log
    /// empty — what a retrain round calls. Accepted ids stay in the
    /// deduplication window, so a late retry of a drained event is
    /// still a duplicate, not a double-count.
    pub fn drain(&self) -> Vec<Interaction> {
        std::mem::take(&mut self.lock().events)
    }

    /// Lifetime accept/duplicate/reject counters.
    pub fn stats(&self) -> LogStats {
        self.lock().stats
    }

    /// Locks the log, recovering from poisoning: every mutation under
    /// this lock is a single push/swap, so a panicking holder cannot
    /// leave the buffer torn.
    fn lock(&self) -> MutexGuard<'_, LogInner> {
        self.inner.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_log_accepts_dedups_and_backpressures() {
        let log = InteractionLog::new(2);
        assert_eq!(log.push(Interaction::new(0, 1).id(7)), Ok(PushOutcome::Accepted { pending: 1 }));
        // Same id again: idempotent duplicate, not a second entry.
        assert_eq!(log.push(Interaction::new(0, 1).id(7)), Ok(PushOutcome::Duplicate));
        assert_eq!(log.push(Interaction::new(1, 2)), Ok(PushOutcome::Accepted { pending: 2 }));
        // Full: typed backpressure carrying the capacity.
        assert_eq!(log.push(Interaction::new(2, 3)), Err(RequestError::Backpressure { capacity: 2 }));
        assert_eq!(log.pending(), 2);

        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(log.pending(), 0);
        // Ids survive the drain: a late retry is still a duplicate.
        assert_eq!(log.push(Interaction::new(0, 1).id(7)), Ok(PushOutcome::Duplicate));
        let stats = log.stats();
        assert_eq!((stats.accepted, stats.duplicates, stats.rejected), (2, 2, 1));
    }
}
