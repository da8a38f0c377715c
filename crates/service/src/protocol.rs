//! The typed request/response protocol of the online serving API.
//!
//! Requests are plain data: they name *what* to score (an instance, raw
//! feature indices, a catalog pair, or a cold-start item + side
//! features), and the server validates them against the current model
//! snapshot's schema and catalog before any number is computed. Every
//! reply travels in a [`Response`] stamped with the generation of the
//! model snapshot that produced it, so a frontend can correlate answers
//! with hot-swaps.

use gmlfm_data::Instance;
use gmlfm_par::Parallelism;
use gmlfm_serve::{Precision, RetrievalStrategy};

use crate::error::RequestError;

/// What to score, in one of four addressing modes.
///
/// `Instance` and `Feats` address the model directly by one-hot feature
/// indices (validated against the schema's dimension); `Pair` resolves a
/// `(user, item)` through the serving catalog; `Cold` scores an item for
/// a user *never seen in training* — no user id exists, so the context is
/// given as named user-side field values instead (the paper's
/// side-feature design is exactly what makes this well-defined).
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreRequest {
    /// Score a prebuilt instance (its label is ignored).
    Instance(Instance),
    /// Score raw active feature indices.
    Feats(Vec<u32>),
    /// Score a catalog `(user, item)` pair: the user's stored template
    /// (id + side attributes) with the item's feature group spliced in.
    Pair {
        /// Catalog user id.
        user: u32,
        /// Catalog item id.
        item: u32,
    },
    /// Cold-start: score `item` for an out-of-catalog user described
    /// only by `(field name, value)` side features. Fields must be
    /// user-side (`User` / `UserAttr` kinds); item-side values come from
    /// the catalog via `item`.
    Cold {
        /// Catalog item id.
        item: u32,
        /// Named user-side field values, e.g. `("gender", 1)`.
        fields: Vec<(String, usize)>,
    },
}

impl ScoreRequest {
    /// Request from raw feature indices.
    pub fn feats(feats: impl Into<Vec<u32>>) -> Self {
        ScoreRequest::Feats(feats.into())
    }

    /// Request for a catalog `(user, item)` pair.
    pub fn pair(user: u32, item: u32) -> Self {
        ScoreRequest::Pair { user, item }
    }

    /// Cold-start request for an unseen user described by named
    /// user-side field values.
    pub fn cold(item: u32, fields: &[(&str, usize)]) -> Self {
        ScoreRequest::Cold {
            item,
            fields: fields.iter().map(|&(name, value)| (name.to_string(), value)).collect(),
        }
    }
}

/// Rank items for a catalog user and return the best `n`.
///
/// Defaults rank the whole catalogue and **exclude items the user
/// already interacted with in training** (when the served snapshot
/// carries seen sets) — the production recommendation default. Opt out
/// with [`TopNRequest::include_seen`]; restrict to a candidate subset
/// with [`TopNRequest::candidates`]; drop specific items with
/// [`TopNRequest::exclude`].
///
/// ## Ordering and size contract
///
/// Results are ranked under a **deterministic total order**: score
/// descending, equal scores broken by **ascending item id**
/// ([`gmlfm_serve::rank_cmp`]). The same order applies on every
/// execution path — the sharded bounded-heap retrieval of frozen
/// snapshots, the single-heap selection of live estimators, and the
/// full-sort references the parity tests pin against — so equal-score
/// ordering is a contract, not a sort-implementation accident.
///
/// `n = 0` yields an empty ranking; `n` larger than the surviving
/// candidate count (after exclusions and seen-item filtering, which run
/// *before* selection) yields every survivor. Duplicate ids in an
/// explicit candidate list are ranked as duplicates, exactly as a full
/// sort would keep them.
#[derive(Debug, Clone, PartialEq)]
pub struct TopNRequest {
    /// Catalog user id to rank for.
    pub user: u32,
    /// How many `(item, score)` pairs to return (best first).
    pub n: usize,
    /// Candidate items to rank; `None` ranks the whole catalogue.
    pub candidates: Option<Vec<u32>>,
    /// Items excluded regardless of the seen sets (already-shown items,
    /// out-of-stock, ...).
    pub exclude: Vec<u32>,
    /// Whether to exclude the user's training-time seen items
    /// (default `true`; a snapshot without seen sets excludes nothing).
    pub exclude_seen: bool,
    /// Per-request worker count; `None` uses the server's default
    /// ([`Parallelism::auto`] standalone, serial inside a batch).
    pub par: Option<Parallelism>,
    /// Candidate-selection strategy; `None` lets the snapshot decide
    /// (IVF when it carries an index and the request is eligible,
    /// exact otherwise). Scores are exact either way — see
    /// [`RetrievalStrategy`] for the approximation contract and the
    /// automatic exact-fallback conditions.
    pub strategy: Option<RetrievalStrategy>,
    /// Scoring-table precision; `None` uses the snapshot's configured
    /// default ([`Precision::F64`] unless the model was frozen with a
    /// lower-precision table). [`Precision::F32`] scans an `f32` table
    /// and returns approximate scores (~1e-6 relative); [`Precision::I8`]
    /// probes a quantized table and re-ranks the survivors exactly, so
    /// returned scores stay bitwise the `f64` model's. Requests that ask
    /// for a precision the snapshot has no table for are served exactly.
    pub precision: Option<Precision>,
}

impl TopNRequest {
    /// A whole-catalogue, exclude-seen request for `user`'s top `n`.
    pub fn new(user: u32, n: usize) -> Self {
        Self {
            user,
            n,
            candidates: None,
            exclude: Vec::new(),
            exclude_seen: true,
            par: None,
            strategy: None,
            precision: None,
        }
    }

    /// Restricts ranking to this candidate set (kept in the given order
    /// until the final sort).
    pub fn candidates(mut self, items: Vec<u32>) -> Self {
        self.candidates = Some(items);
        self
    }

    /// Excludes these items explicitly.
    pub fn exclude(mut self, items: Vec<u32>) -> Self {
        self.exclude = items;
        self
    }

    /// Opts out of the default seen-item exclusion.
    pub fn include_seen(mut self) -> Self {
        self.exclude_seen = false;
        self
    }

    /// Sets an explicit per-request worker count.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.par = Some(par);
        self
    }

    /// Pins the candidate-selection strategy instead of letting the
    /// snapshot decide ([`RetrievalStrategy::Exact`] forces the full
    /// sharded-heap scan even when an index is installed).
    pub fn strategy(mut self, strategy: RetrievalStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Pins the scoring-table precision instead of using the snapshot's
    /// default (see [`TopNRequest::precision`] for the accuracy
    /// contract of each level).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }
}

/// One request of either kind, for batching.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A scoring request.
    Score(ScoreRequest),
    /// A ranking request.
    TopN(TopNRequest),
}

/// The successful payload matching a [`Request`] variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Payload of a [`Request::Score`].
    Score(f64),
    /// Payload of a [`Request::TopN`]: `(item, score)` pairs, best first.
    TopN(Vec<(u32, f64)>),
}

/// Many requests answered against **one** model snapshot.
///
/// The batch is fanned out with `gmlfm-par` and every sub-request
/// is validated independently: one malformed request yields its own
/// [`crate::RequestError`] slot without failing the batch. All replies
/// share the single generation stamped on the enclosing [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// The sub-requests, answered in order.
    pub requests: Vec<Request>,
    /// Worker count for the fan-out; `None` uses [`Parallelism::auto`].
    /// Top-n sub-requests run serially inside the batch unless they set
    /// their own [`TopNRequest::parallelism`].
    pub par: Option<Parallelism>,
}

impl BatchRequest {
    /// A batch over the given requests with the default fan-out.
    pub fn new(requests: Vec<Request>) -> Self {
        Self { requests, par: None }
    }

    /// Sets an explicit fan-out worker count.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.par = Some(par);
        self
    }
}

/// One observed interaction streamed into the online learning loop:
/// `user` interacted with `item`, optionally with an explicit rating and
/// extra user-side context fields (same shape as [`ScoreRequest::Cold`]
/// fields).
///
/// Interactions are validated against the *current* snapshot's schema
/// and catalog before anything is recorded — an out-of-catalog id or a
/// malformed field is a typed [`crate::RequestError`], never a panic.
/// The optional `id` makes ingestion **idempotent**: a retried feed
/// carrying the same id is acknowledged without being enqueued twice.
#[derive(Debug, Clone, PartialEq)]
pub struct Interaction {
    /// Catalog user id.
    pub user: u32,
    /// Catalog item id.
    pub item: u32,
    /// Explicit rating; `None` means an implicit positive (label 1.0).
    pub rating: Option<f64>,
    /// Extra named user-side field values, e.g. `("age", 3)`.
    pub fields: Vec<(String, usize)>,
    /// Client-chosen deduplication id for idempotent retries.
    pub id: Option<u64>,
}

impl Interaction {
    /// An implicit-positive interaction.
    pub fn new(user: u32, item: u32) -> Self {
        Self { user, item, rating: None, fields: Vec::new(), id: None }
    }

    /// Attaches an explicit rating label.
    pub fn rating(mut self, rating: f64) -> Self {
        self.rating = Some(rating);
        self
    }

    /// Attaches named user-side context fields.
    pub fn fields(mut self, fields: &[(&str, usize)]) -> Self {
        self.fields = fields.iter().map(|&(name, value)| (name.to_string(), value)).collect();
        self
    }

    /// Attaches a deduplication id for idempotent retries.
    pub fn id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// The training label this interaction contributes: the explicit
    /// rating, or 1.0 for an implicit positive.
    pub fn label(&self) -> f64 {
        self.rating.unwrap_or(1.0)
    }
}

/// Acknowledgement of one fed [`Interaction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedAck {
    /// Whether the event was newly enqueued for retraining (`false` for
    /// an idempotent duplicate — same `id` already logged).
    pub accepted: bool,
    /// Events currently pending in the interaction log after this feed.
    pub pending: usize,
}

/// A sink for streamed interactions — the ingest half of the online
/// learning loop, kept as a trait in `gmlfm-service` so transports
/// (`gmlfm-net`) can forward feeds without depending on the trainer.
///
/// Implementations must validate, fold the event into the serving
/// seen-sets *immediately* (freshness before any retrain), and enqueue
/// it for the next warm-start round. The returned [`Response`] carries
/// the generation the event was validated against.
pub trait FeedSink: Send + Sync {
    /// Validates and ingests one interaction.
    fn feed(&self, event: &Interaction) -> Result<Response<FeedAck>, RequestError>;
}

/// A reply stamped with the generation of the model snapshot that
/// produced it.
///
/// Generations start at 1 and increase by exactly 1 per successful
/// [`crate::ModelServer::swap`]; a single response is always computed
/// against a single snapshot (no torn reads across a swap), so `value`
/// is fully explained by `generation`.
#[derive(Debug, Clone, PartialEq)]
pub struct Response<T> {
    /// Generation of the snapshot that answered this request.
    pub generation: u64,
    /// The reply payload.
    pub value: T,
}
