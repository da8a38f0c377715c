//! The shared, hot-swappable model handle.
//!
//! [`ModelServer`] is the serving process's front door: a cheap-to-clone
//! (`Clone + Send + Sync`) handle that any number of request threads
//! share, answering the typed protocol of [`crate::protocol`] against a
//! single *model snapshot* — schema + frozen matrices + catalog + seen
//! sets — held in an append-only, write-once generation table.
//!
//! ## Hot swap, without blocking readers
//!
//! [`ModelServer::swap`] installs a newly trained (or newly loaded)
//! snapshot mid-traffic: writers serialise on a mutex, readers never
//! block — a request pins the current snapshot with **one atomic index
//! load** and two [`OnceLock::get`]s, and computes its whole response
//! against it, so every [`Response`] is consistent with exactly one
//! generation even while swaps race it. The vendored dependency set has
//! no `arc-swap`, so the slot is built from `std` in safe Rust:
//! installed snapshots live in doubling buckets of [`OnceLock`] cells
//! (bucket `b` holds `2^b` cells, allocated on first use), a cell is
//! written once and never moved or freed until the last handle drops,
//! and a `&ModelSnapshot` lent from `&self` therefore stays valid across
//! any number of later swaps — the compiler checks the lifetime, no
//! reference counting or epoch scheme. A model refresh is a rare,
//! heavyweight event (retraining cadence, not request cadence), so
//! retaining superseded generations — observable via
//! [`ModelServer::retained`] — trades a few megabytes for wait-free
//! reads on the hot path.
//!
//! Swaps are validated: the incoming snapshot must carry a schema
//! **identical** to the serving one (field names, cardinalities and
//! kinds), so every in-flight and future request keeps meaning the same
//! thing; a mismatch is a typed [`RequestError::SchemaMismatch`] and the
//! current generation keeps serving.

use crate::catalog::{Catalog, SeenItems};
use crate::error::RequestError;
use crate::exec::{self, IndexedModel};
use crate::protocol::{BatchRequest, Reply, Response, ScoreRequest, TopNRequest};
use gmlfm_data::Schema;
use gmlfm_par::Parallelism;
use gmlfm_serve::{FrozenModel, IvfIndex};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything one model generation serves: the one-hot schema requests
/// are validated against, the frozen matrices that score, and the
/// optional catalog/seen tables behind `(user, item)` and top-n
/// requests.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// The one-hot feature schema (validation + cold-start resolution).
    pub schema: Schema,
    /// The frozen serving model.
    pub frozen: FrozenModel,
    /// Serving catalog; `None` limits the server to feature-index
    /// requests.
    pub catalog: Option<Catalog>,
    /// Training-time seen sets backing default seen-item exclusion;
    /// `None` (e.g. a pre-seen-sets artifact) excludes nothing.
    pub seen: Option<SeenItems>,
    /// IVF retrieval index over the catalog
    /// ([`gmlfm_serve::IvfIndex`]); `None` serves every top-n request
    /// through the exact sharded-heap path. Validated against the
    /// frozen model and catalog at install time.
    pub index: Option<IvfIndex>,
}

/// One installed generation.
struct State {
    generation: u64,
    snap: ModelSnapshot,
}

/// One doubling bucket of write-once cells; bucket `b` holds `2^b`.
type Bucket = Box<[OnceLock<State>]>;

/// Where the `n`-th swapped-in generation (generation `n + 1`) lives:
/// bucket `⌊log2 n⌋`, offset `n − 2^bucket`. There is no swap 0 —
/// generation 1 is [`Slot::first`], not a table cell — and the argument
/// type says so.
fn locate(n: NonZeroUsize) -> (usize, usize) {
    let bucket = n.ilog2() as usize;
    (bucket, n.get() - (1 << bucket))
}

/// The shared slot: generation 1 as a plain field, every later
/// generation in an append-only table of write-once cells, and the
/// index of the one currently serving.
///
/// The table never moves or frees a written cell while the slot lives —
/// growing it allocates a *new* bucket and leaves the old ones where
/// they are — which is what lets [`ModelServer::snapshot`] lend a
/// `&ModelSnapshot` for as long as the handle is borrowed.
struct Slot {
    /// Generation 1. A plain value, so the reader's lookup always has
    /// something to fall back on without a panic path.
    first: State,
    /// Generations 2.., at [`locate`]`(generation − 1)`. A bucket is
    /// allocated by the swap that first needs it.
    buckets: [OnceLock<Bucket>; usize::BITS as usize],
    /// How many swaps have been published (`generation − 1` of the
    /// serving state): 0 serves `first`, `n` serves the cell at
    /// `locate(n)`.
    current: AtomicUsize,
    /// The writer lock, holding the number of installed generations
    /// (including the first) — [`ModelServer::retained`], and the number
    /// the next swap takes.
    installed: Mutex<NonZeroUsize>,
    /// The **live seen overlay**: per-user sorted, deduplicated items
    /// recorded via [`ModelServer::record_seen`] since the server was
    /// created. Snapshots are immutable (that is what makes the
    /// wait-free read path sound), so freshly fed interactions land
    /// here instead; the read paths union this table with the pinned
    /// snapshot's seen sets under the same `exclude_seen` semantics.
    /// Lock holds are a few comparisons — never a retrain, never a
    /// scan — so readers are delayed by at most one tiny critical
    /// section, not blocked behind training.
    overlay: Mutex<SeenItems>,
}

impl Slot {
    /// The `n`-th swapped-in generation, when it has been written.
    fn swapped(&self, n: usize) -> Option<&State> {
        let (bucket, offset) = locate(NonZeroUsize::new(n)?);
        self.buckets.get(bucket)?.get()?.get(offset)?.get()
    }

    /// Locks the installed count, recovering from poisoning: the only
    /// mutation under this lock is one increment after the cell is
    /// written, so a panicking writer cannot leave the table
    /// half-updated and the poison flag carries no information worth
    /// propagating as a panic on the request path.
    fn lock_installed(&self) -> std::sync::MutexGuard<'_, NonZeroUsize> {
        self.installed.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Locks the live seen overlay, recovering from poisoning for the
    /// same reason as [`Slot::lock_installed`]: every mutation is a
    /// single sorted insert, so no invariant can be torn mid-update.
    fn lock_overlay(&self) -> std::sync::MutexGuard<'_, SeenItems> {
        self.overlay.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}

/// A cloneable, thread-safe serving handle over a hot-swappable
/// [`ModelSnapshot`]. See the [module docs](self) for the swap
/// semantics.
#[derive(Clone)]
pub struct ModelServer {
    slot: Arc<Slot>,
}

impl ModelServer {
    /// Starts serving `snap` as generation 1. Fails with
    /// [`RequestError::SchemaMismatch`] when the snapshot is internally
    /// inconsistent (frozen dimension vs schema, catalog indices vs
    /// frozen dimension) — the same checks every later [`swap`] runs.
    ///
    /// [`swap`]: ModelServer::swap
    pub fn new(snap: ModelSnapshot) -> Result<Self, RequestError> {
        check_snapshot(&snap)?;
        let snap = with_group_memo(snap);
        Ok(Self {
            slot: Arc::new(Slot {
                first: State { generation: 1, snap },
                buckets: std::array::from_fn(|_| OnceLock::new()),
                current: AtomicUsize::new(0),
                installed: Mutex::new(NonZeroUsize::MIN),
                overlay: Mutex::new(SeenItems::new(Vec::new())),
            }),
        })
    }

    /// The current snapshot and its generation, pinned by one atomic
    /// load — the pair is always mutually consistent, even mid-swap, and
    /// the borrow outlives any later swap.
    pub fn snapshot(&self) -> (u64, &ModelSnapshot) {
        let state = self.state();
        (state.generation, &state.snap)
    }

    /// The generation currently serving (starts at 1, +1 per swap).
    pub fn generation(&self) -> u64 {
        self.state().generation
    }

    /// The schema of the current snapshot.
    pub fn schema(&self) -> &Schema {
        &self.state().snap.schema
    }

    /// The frozen model of the current snapshot.
    pub fn frozen(&self) -> &FrozenModel {
        &self.state().snap.frozen
    }

    /// The catalog of the current snapshot, when it carries one.
    pub fn catalog(&self) -> Option<&Catalog> {
        self.state().snap.catalog.as_ref()
    }

    /// The seen sets of the current snapshot, when it carries them.
    pub fn seen(&self) -> Option<&SeenItems> {
        self.state().snap.seen.as_ref()
    }

    /// How many generations the slot retains (== the number of
    /// successful installs, including the first).
    pub fn retained(&self) -> usize {
        self.slot.lock_installed().get()
    }

    /// Records a `(user, item)` interaction in the **live seen overlay**,
    /// so the item leaves the user's top-n recommendations *immediately*
    /// — before any retrain folds it into a published snapshot. The ids
    /// are validated against the current catalog (typed errors, never a
    /// panic); returns whether the entry was newly recorded, stamped
    /// with the generation it was validated against.
    ///
    /// The overlay survives swaps: a retrained snapshot is expected to
    /// carry the folded seen sets ([`SeenItems::merge`]), and the union
    /// applied on the read paths makes double-recording harmless.
    pub fn record_seen(&self, user: u32, item: u32) -> Result<Response<bool>, RequestError> {
        let state = self.state();
        let catalog = state.snap.catalog.as_ref().ok_or(RequestError::MissingCatalog)?;
        if user as usize >= catalog.n_users() {
            return Err(RequestError::UnknownUser { user, n_users: catalog.n_users() });
        }
        if item as usize >= catalog.n_items() {
            return Err(RequestError::UnknownItem { item, n_items: catalog.n_items() });
        }
        let value = self.slot.lock_overlay().insert(user, item);
        Ok(Response { generation: state.generation, value })
    }

    /// The user's live overlay items (sorted ascending; empty when none
    /// were recorded) — a clone, so the lock is released before scoring.
    fn live_seen(&self, user: u32) -> Vec<u32> {
        self.slot.lock_overlay().items(user).to_vec()
    }

    /// A point-in-time copy of the whole live seen overlay as a
    /// [`SeenItems`] table — what a retrain merges into the candidate
    /// snapshot's seen sets, and what checkpointing persists.
    pub fn overlay_seen(&self) -> SeenItems {
        self.slot.lock_overlay().clone()
    }

    /// Installs a new snapshot mid-traffic and returns its generation.
    ///
    /// Readers are never blocked: in-flight requests finish against the
    /// generation they pinned; requests that start after the swap's
    /// atomic store see the new one. The snapshot must be schema-
    /// identical to the serving one and internally consistent, otherwise
    /// a typed [`RequestError`] is returned and nothing changes.
    pub fn swap(&self, snap: ModelSnapshot) -> Result<u64, RequestError> {
        check_snapshot(&snap)?;
        // Every installed generation passed this same check, so they
        // all carry one schema and whichever serves now stands for it —
        // no need to hold the writer lock to compare.
        check_schema_compatible(&self.state().snap.schema, &snap.schema)?;
        // One pass over the catalogue, still outside the lock: readers
        // and other writers are not delayed by it.
        let snap = with_group_memo(snap);
        let mut installed = self.slot.lock_installed();
        // Writers are serialised by the lock, so `current` cannot move
        // under us here; readers may still load it concurrently.
        let generation = self.state().generation + 1;
        // `n` generations are installed, so this is swap number `n`.
        let n = *installed;
        let (bucket, offset) = locate(n);
        let cells = self.slot.buckets[bucket]
            .get_or_init(|| (0..1usize << bucket).map(|_| OnceLock::new()).collect());
        // Swap numbers are handed out under the lock and never reused,
        // so the cell is empty and this writes it.
        let state = cells[offset].get_or_init(|| State { generation, snap });
        *installed = n.saturating_add(1);
        // ORDERING: Release publishes the written cell (and its bucket)
        // to readers; pairs with the Acquire load in `state()`.
        self.slot.current.store(n.get(), Ordering::Release);
        Ok(state.generation)
    }

    /// Answers a [`ScoreRequest`] against the current snapshot.
    pub fn score(&self, req: &ScoreRequest) -> Result<Response<f64>, RequestError> {
        let state = self.state();
        let value =
            exec::execute_score(&state.snap.frozen, &state.snap.schema, state.snap.catalog.as_ref(), req)?;
        Ok(Response { generation: state.generation, value })
    }

    /// Answers a [`TopNRequest`] against the current snapshot: `(item,
    /// score)` pairs, best first, ties broken by ascending item id.
    /// Retrieval is [`exec::execute_topn`] over the snapshot's
    /// [`IndexedModel`]: the IVF probe when the snapshot carries an
    /// index that can serve the request, the candidate-list scan
    /// otherwise — either way one scanner and one bounded
    /// [`gmlfm_serve::TopNHeap`] per worker shard, merged
    /// deterministically, so a request over a million-item catalogue
    /// never sorts (or even materialises) the full score vector.
    pub fn top_n(&self, req: &TopNRequest) -> Result<Response<Vec<(u32, f64)>>, RequestError> {
        let state = self.state();
        let backend = IndexedModel { frozen: &state.snap.frozen, index: state.snap.index.as_ref() };
        let live = if req.exclude_seen { self.live_seen(req.user) } else { Vec::new() };
        let value = exec::execute_topn(
            &backend,
            state.snap.catalog.as_ref(),
            state.snap.seen.as_ref(),
            &live,
            req,
            Parallelism::auto(),
        )?;
        Ok(Response { generation: state.generation, value })
    }

    /// [`ModelServer::top_n`] without the final sort/truncation: `(item,
    /// score)` pairs in candidate order (`req.n` is ignored). This is
    /// the shape the leave-one-out evaluation protocols consume.
    pub fn candidate_scores(&self, req: &TopNRequest) -> Result<Response<Vec<(u32, f64)>>, RequestError> {
        let state = self.state();
        let live = if req.exclude_seen { self.live_seen(req.user) } else { Vec::new() };
        let value = exec::execute_candidate_scores(
            &state.snap.frozen,
            state.snap.catalog.as_ref(),
            state.snap.seen.as_ref(),
            &live,
            req,
            Parallelism::auto(),
        )?;
        Ok(Response { generation: state.generation, value })
    }

    /// Answers every sub-request of a [`BatchRequest`] against **one**
    /// snapshot, fanned across threads. Malformed sub-requests fail
    /// individually; the batch itself always succeeds.
    pub fn batch(&self, req: &BatchRequest) -> Response<Vec<Result<Reply, RequestError>>> {
        let state = self.state();
        let backend = IndexedModel { frozen: &state.snap.frozen, index: state.snap.index.as_ref() };
        // One point-in-time overlay copy for the whole batch, so every
        // sub-request filters against the same live state.
        let live = if self.slot.lock_overlay().n_users() == 0 { None } else { Some(self.overlay_seen()) };
        let value = exec::execute_batch(
            &backend,
            &state.snap.schema,
            state.snap.catalog.as_ref(),
            state.snap.seen.as_ref(),
            live.as_ref(),
            req,
        );
        Response { generation: state.generation, value }
    }

    /// The current state: one `Acquire` index load, then two
    /// `OnceLock::get`s — O(1) however many generations were installed.
    fn state(&self) -> &State {
        // ORDERING: Acquire pairs with the Release store in `swap`, so
        // the cell `current` names is written and visible; generation 1
        // needs no pairing (it is a field, published with the `Arc`).
        let n = self.slot.current.load(Ordering::Acquire);
        self.slot.swapped(n).unwrap_or(&self.slot.first)
    }
}

impl std::fmt::Debug for ModelServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (generation, snap) = self.snapshot();
        f.debug_struct("ModelServer")
            .field("generation", &generation)
            .field("n_features", &snap.frozen.n_features())
            .field("has_catalog", &snap.catalog.is_some())
            .field("has_seen", &snap.seen.is_some())
            .field("has_index", &snap.index.is_some())
            .finish_non_exhaustive()
    }
}

/// Attaches the generation's within-group pair memo
/// ([`FrozenModel::with_group_memo`]) to a checked snapshot that carries
/// a catalog — eagerly, at install, so no request waits on it.
fn with_group_memo(mut snap: ModelSnapshot) -> ModelSnapshot {
    if let Some(catalog) = &snap.catalog {
        snap.frozen = snap.frozen.with_group_memo(catalog);
    }
    snap
}

/// Internal-consistency checks every installed snapshot must pass, so
/// request execution can index the frozen tables without bounds panics.
fn check_snapshot(snap: &ModelSnapshot) -> Result<(), RequestError> {
    let n = snap.frozen.n_features();
    if snap.schema.total_dim() != n {
        return Err(RequestError::SchemaMismatch {
            reason: format!("schema dimension {} != frozen model's {n} features", snap.schema.total_dim()),
        });
    }
    if let Some(catalog) = &snap.catalog {
        if let Some(max) = catalog.max_feature() {
            if max as usize >= n {
                return Err(RequestError::SchemaMismatch {
                    reason: format!("catalog feature index {max} outside the model's {n} features"),
                });
            }
        }
    }
    if let (Some(catalog), Some(seen)) = (&snap.catalog, &snap.seen) {
        if let Some(item) = seen.max_item().filter(|&item| item as usize >= catalog.n_items()) {
            return Err(RequestError::SchemaMismatch {
                reason: format!(
                    "seen set names item {item} outside the catalog's {} items",
                    catalog.n_items()
                ),
            });
        }
    }
    if let Some(index) = &snap.index {
        let Some(catalog) = &snap.catalog else {
            return Err(RequestError::SchemaMismatch {
                reason: "snapshot carries a retrieval index but no catalog".into(),
            });
        };
        if let Err(reason) = index.compatible_with(&snap.frozen, catalog.n_items()) {
            return Err(RequestError::SchemaMismatch {
                reason: format!("retrieval index incompatible with the snapshot: {reason}"),
            });
        }
    }
    Ok(())
}

/// Schema-compatibility check for hot swaps: the new snapshot must mean
/// exactly what the old one meant, field for field.
fn check_schema_compatible(current: &Schema, incoming: &Schema) -> Result<(), RequestError> {
    if current.n_fields() != incoming.n_fields() {
        return Err(RequestError::SchemaMismatch {
            reason: format!("{} fields incoming vs {} serving", incoming.n_fields(), current.n_fields()),
        });
    }
    for (a, b) in current.fields().iter().zip(incoming.fields()) {
        if a.name != b.name || a.cardinality != b.cardinality || a.kind != b.kind {
            return Err(RequestError::SchemaMismatch {
                reason: format!(
                    "field '{}' ({:?}, cardinality {}) incoming as '{}' ({:?}, cardinality {})",
                    a.name, a.kind, a.cardinality, b.name, b.kind, b.cardinality
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_numbers_fill_the_doubling_buckets_in_order() {
        // Walk the table the way it is laid out — bucket 0 (1 cell),
        // bucket 1 (2 cells), bucket 2 (4 cells)… — and require swap
        // numbers 1, 2, 3… to land on exactly those cells in that order:
        // no cell is shared by two generations and none is skipped.
        let mut cells =
            (0usize..).flat_map(|bucket| (0..1usize << bucket).map(move |offset| (bucket, offset)));
        for n in 1..=10_000 {
            let (bucket, offset) = locate(NonZeroUsize::new(n).unwrap());
            assert!(offset < 1 << bucket, "swap {n}: offset {offset} outside bucket {bucket}");
            assert_eq!(Some((bucket, offset)), cells.next(), "swap {n}");
        }
        // The last addressable swap still lands inside the bucket array.
        let (bucket, offset) = locate(NonZeroUsize::MAX);
        assert_eq!((bucket, offset), (usize::BITS as usize - 1, usize::MAX >> 1));
    }
}
