//! # gmlfm-service
//!
//! The online serving API: a typed request/response protocol answered by
//! a shared, hot-swappable model handle.
//!
//! The paper's point (Section 3.3) is that a trained GML-FM collapses to
//! plain matrices cheap enough to serve interactively; `gmlfm-serve`
//! provides those matrices as a [`gmlfm_serve::FrozenModel`]. This crate
//! provides what a *serving process* needs on top:
//!
//! * **[`protocol`]** — [`ScoreRequest`] (by instance, by raw feature
//!   indices, by catalog `(user, item)` pair, or cold-start by item +
//!   named side features), [`TopNRequest`] (candidate subsets, explicit
//!   exclusions, default seen-item filtering), and [`BatchRequest`]
//!   answering many requests against one snapshot. Every request is
//!   validated against the snapshot's [`gmlfm_data::Schema`] and
//!   [`Catalog`] into a typed [`RequestError`] — out-of-range indices
//!   and unknown ids are rejected, never scored as garbage and never a
//!   panic. A request runs on the thread that received it. Ranking
//!   requests run the **bounded-heap retrieval** path: candidate
//!   filtering (exclusions, seen items) happens before selection, and
//!   one size-`n` [`gmlfm_serve::TopNHeap`] selects under the
//!   deterministic total order (score desc, item id asc) —
//!   `O(C·k + C·log n)` per request instead of a full `O(C·log C)`
//!   catalogue sort, with an item-for-item identical ranking.
//! * **[`ModelServer`]** — a `Clone + Send + Sync` handle over a
//!   [`ModelSnapshot`] (schema + frozen model + catalog + [`SeenItems`])
//!   in an append-only table of write-once cells: readers pin the current
//!   snapshot with one atomic index load (wait-free, never blocked by
//!   writers, no `unsafe`), and
//!   [`ModelServer::swap`] hot-reloads a newly trained snapshot
//!   mid-traffic after a schema-compatibility check, bumping the
//!   generation stamped into every [`Response`].
//! * **[`exec`]** — the shared validation/execution path, generic over a
//!   [`ScoringBackend`] so the leave-one-out protocol ranks the
//!   candidates of models without a frozen form with the same semantics.
//!
//! The engine's `Recommender` is a thin wrapper over this crate:
//! `Recommender::serve()` hands out the underlying [`ModelServer`], and
//! its `score*`/`top_n`/`handle_*` methods all go through it.
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod catalog;
pub mod error;
pub mod exec;
pub mod protocol;
pub mod server;

pub use catalog::{Catalog, SeenItems};
pub use error::RequestError;
pub use exec::{IndexedModel, ScoringBackend};
pub use gmlfm_serve::RetrievalStrategy;
pub use protocol::{
    BatchRequest, FeedAck, FeedSink, Interaction, Reply, Request, Response, ScoreRequest, TopNRequest,
};
pub use server::{ModelServer, ModelSnapshot};
