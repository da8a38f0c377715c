//! The shared, hot-swappable model handle.
//!
//! [`ModelServer`] is the serving process's front door: a cheap-to-clone
//! (`Clone + Send + Sync`) handle that any number of request threads
//! share, answering the typed protocol of [`crate::protocol`] against a
//! single *model snapshot* — schema + frozen matrices + catalog + seen
//! sets — held behind an atomic pointer.
//!
//! ## Hot swap, without blocking readers
//!
//! [`ModelServer::swap`] installs a newly trained (or newly loaded)
//! snapshot mid-traffic: writers serialise on a mutex, readers never
//! block — a request pins the current snapshot with **one atomic load**
//! and computes its whole response against it, so every [`Response`] is
//! consistent with exactly one generation even while swaps race it. The
//! vendored dependency set has no `arc-swap`, so the slot is built from
//! `std` atomics in the same spirit as `gmlfm-par`'s pool internals:
//! installed snapshots are retained (append-only) until the last handle
//! drops, which is what makes the readers' raw-pointer loads sound
//! without reference counting or epoch schemes. A model refresh is a
//! rare, heavyweight event (retraining cadence, not request cadence), so
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
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

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

/// The shared slot: the current state pointer plus the append-only store
/// that keeps every installed state alive for the readers.
///
/// States are heap-allocated with [`Box::into_raw`] and held as raw
/// pointers *only* — never as `Box` values — because moving a `Box`
/// (into the vector, or when the vector reallocates) retags its unique
/// ownership and would invalidate every pointer previously derived from
/// it under the aliasing rules. Raw pointers carry no such tag: they
/// stay valid until the matching [`Box::from_raw`] in [`Slot::drop`].
struct Slot {
    /// Always points at a `State` allocation recorded in `states`.
    current: AtomicPtr<State>,
    /// Every state ever installed, in generation order. Append-only:
    /// entries are never freed while the slot lives, which is what
    /// keeps `current`'s target valid for lock-free readers.
    states: Mutex<Vec<*mut State>>,
    /// The **live seen overlay**: per-user sorted, deduplicated items
    /// recorded via [`ModelServer::record_seen`] since the server was
    /// created. Snapshots are immutable (that is what makes the
    /// wait-free read path sound), so freshly fed interactions land
    /// here instead; the read paths union this table with the pinned
    /// snapshot's seen sets under the same `exclude_seen` semantics.
    /// Lock holds are a few comparisons — never a retrain, never a
    /// scan — so readers are delayed by at most one tiny critical
    /// section, not blocked behind training.
    overlay: Mutex<Vec<Vec<u32>>>,
}

impl Slot {
    /// Locks the append-only state table, recovering from poisoning:
    /// every mutation under this lock is a single `Vec::push`, so a
    /// panicking writer cannot leave the table half-updated and the
    /// poison flag carries no information worth propagating as a panic
    /// on the request path.
    fn lock_states(&self) -> std::sync::MutexGuard<'_, Vec<*mut State>> {
        self.states.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Locks the live seen overlay, recovering from poisoning for the
    /// same reason as [`Slot::lock_states`]: every mutation is a single
    /// sorted insert, so no invariant can be torn mid-update.
    fn lock_overlay(&self) -> std::sync::MutexGuard<'_, Vec<Vec<u32>>> {
        self.overlay.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}

// SAFETY: the raw pointers are uniquely owned by the slot (created by
// `Box::into_raw`, freed only in `Drop`), and `State` itself is
// `Send + Sync`; the pointers are just the slot's way of not holding a
// movable `Box`.
unsafe impl Send for Slot {}
// SAFETY: same ownership argument as `Send` above — concurrent readers
// only ever turn the pointers back into shared `&State` borrows (the
// pointees are immutable after publication and `State: Sync`), and the
// pointer tables themselves are guarded by the atomic slot and mutex.
unsafe impl Sync for Slot {}

impl Drop for Slot {
    fn drop(&mut self) {
        let states = self.states.get_mut().unwrap_or_else(|poison| poison.into_inner());
        for &ptr in states.iter() {
            // SAFETY: each pointer came from `Box::into_raw`, is freed
            // exactly once (here), and no reader can exist any more —
            // readers borrow a `ModelServer`, and the last one is gone
            // or this `Drop` would not run.
            drop(unsafe { Box::from_raw(ptr) });
        }
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
        let ptr = Box::into_raw(Box::new(State { generation: 1, snap }));
        Ok(Self {
            slot: Arc::new(Slot {
                current: AtomicPtr::new(ptr),
                states: Mutex::new(vec![ptr]),
                overlay: Mutex::new(Vec::new()),
            }),
        })
    }

    /// The current snapshot and its generation, pinned by one atomic
    /// load — the pair is always mutually consistent, even mid-swap.
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
        self.slot.lock_states().len()
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
        let mut overlay = self.slot.lock_overlay();
        let idx = user as usize;
        if idx >= overlay.len() {
            overlay.resize_with(idx + 1, Vec::new);
        }
        let value = match overlay[idx].binary_search(&item) {
            Ok(_) => false,
            Err(pos) => {
                overlay[idx].insert(pos, item);
                true
            }
        };
        Ok(Response { generation: state.generation, value })
    }

    /// The user's live overlay items (sorted ascending; empty when none
    /// were recorded) — a clone, so the lock is released before scoring.
    fn live_seen(&self, user: u32) -> Vec<u32> {
        let overlay = self.slot.lock_overlay();
        overlay.get(user as usize).cloned().unwrap_or_default()
    }

    /// A point-in-time copy of the whole live seen overlay as a
    /// [`SeenItems`] table — what a retrain merges into the candidate
    /// snapshot's seen sets, and what checkpointing persists.
    pub fn overlay_seen(&self) -> SeenItems {
        let rows = self.slot.lock_overlay().clone();
        // Rows are maintained sorted/deduplicated, so this is a plain
        // move into the table (`SeenItems::new` re-sorting is a no-op).
        SeenItems::new(rows)
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
        let mut states = self.slot.lock_states();
        // Writers are serialised by the lock, so `current` cannot move
        // under us here; readers may still load it concurrently.
        let current = self.state();
        check_schema_compatible(&current.snap.schema, &snap.schema)?;
        let generation = current.generation + 1;
        let ptr = Box::into_raw(Box::new(State { generation, snap }));
        states.push(ptr);
        // ORDERING: Release publishes the fully initialised `State` (and
        // its `states` record) to readers; pairs with the Acquire load
        // in `Slot`-dereferencing `state()`.
        self.slot.current.store(ptr, Ordering::Release);
        Ok(generation)
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
    /// snapshot, fanned across the pool. Malformed sub-requests fail
    /// individually; the batch itself always succeeds.
    pub fn batch(&self, req: &BatchRequest) -> Response<Vec<Result<Reply, RequestError>>> {
        let state = self.state();
        let backend = IndexedModel { frozen: &state.snap.frozen, index: state.snap.index.as_ref() };
        // One point-in-time overlay copy for the whole batch, so every
        // sub-request filters against the same live state.
        let live = if self.slot.lock_overlay().is_empty() { None } else { Some(self.overlay_seen()) };
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

    /// The current state, by one `Acquire` load.
    fn state(&self) -> &State {
        // SAFETY: `current` always holds a pointer from `Box::into_raw`,
        // recorded in the append-only `states` vector *before* being
        // published with `Release` ordering (the `Acquire` load here
        // pairs with it). No `Box` value exists after `into_raw`, so
        // nothing ever moves or retags the allocation; it is freed only
        // in `Slot::drop`. The returned borrow is tied to `&self`,
        // which keeps the `Arc<Slot>` — and therefore
        // every retained state — alive.
        // ORDERING: Acquire pairs with the Release store in `swap` /
        // `new`, so the dereferenced `State` is fully initialised.
        unsafe { &*self.slot.current.load(Ordering::Acquire) }
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
