//! Request validation and execution: the one code path every serving
//! entry point shares.
//!
//! Validation is pure over the snapshot's [`Schema`] and [`Catalog`];
//! scoring goes through the [`ScoringBackend`] trait so the frozen
//! serving path and the engine's live (non-freezable) estimators answer
//! the same requests with identical semantics. [`crate::ModelServer`]
//! wires these functions to its current snapshot; `gmlfm-engine`'s
//! `Recommender` wires them to whichever serving form it holds.

use crate::catalog::{Catalog, SeenItems};
use crate::error::RequestError;
use crate::protocol::{BatchRequest, Interaction, Reply, Request, ScoreRequest, TopNRequest};
use gmlfm_data::{FieldKind, Schema};
use gmlfm_par::Parallelism;
use gmlfm_serve::{
    scan_top_n, FrozenModel, ItemFeatureSource, IvfIndex, Precision, RetrievalStrategy, TopNHeap,
};
use std::borrow::Cow;
use std::cell::RefCell;

/// What executes a validated request: one score per feature vector,
/// catalogue candidate scoring for the evaluation protocols, and
/// bounded-heap top-N selection for ranking requests.
///
/// Implementations may ignore `par` (the engine's live estimators score
/// through their own batch path); the frozen implementation partitions
/// candidates into `gmlfm-par` blocks with one
/// [`gmlfm_serve::TopNRanker`] per block, merged in candidate
/// order — bit-identical to serial at every thread count.
pub trait ScoringBackend {
    /// Scores one validated feature vector.
    fn score_feats(&self, feats: &[u32]) -> f64;

    /// Scores `candidates` for the user whose resolved feature
    /// `template` is given ([`Catalog::template`]), returning one score
    /// per candidate **in candidate order**.
    ///
    /// The template is the validation evidence: it only exists for an
    /// in-range user, so implementations never re-check the user id.
    /// Candidates come out of the request validation against the same
    /// catalog, so their item-table rows are in range by construction.
    fn candidate_scores(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        par: Parallelism,
    ) -> Vec<f64>;

    /// Selects the top `n` of resolved `candidates` for the user with
    /// feature `template` under the retrieval total order
    /// ([`gmlfm_serve::rank_cmp`]: score descending, ties by ascending
    /// item id), best first. Every served request passes
    /// [`Precision::F64`]; a narrower one reaches the frozen model's
    /// low-precision tables only through a direct call.
    ///
    /// The default implementation scores everything
    /// through [`candidate_scores`] and selects with one bounded
    /// [`TopNHeap`]: `O(C·log n)` selection, never a full sort. The
    /// frozen implementation is the sharded scan driver
    /// ([`gmlfm_serve::scan_top_n`]), which also skips materialising the
    /// `O(C)` score vector. At [`Precision::F64`] both produce
    /// item-for-item identical rankings.
    ///
    /// [`candidate_scores`]: ScoringBackend::candidate_scores
    fn select_top_n_prec(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        n: usize,
        _precision: Precision,
        par: Parallelism,
    ) -> Vec<(u32, f64)> {
        let scores = self.candidate_scores(catalog, template, candidates, par);
        let mut heap = TopNHeap::new(n);
        for (&item, score) in candidates.iter().zip(scores) {
            heap.push(item, score);
        }
        heap.into_sorted()
    }

    /// Index-backed whole-catalogue retrieval, when this backend can
    /// serve it: the top `n` non-excluded items via an IVF probe
    /// ([`gmlfm_serve::IvfIndex::search`]), scores bitwise the exact
    /// ranker's. `excluded` is the **sorted, deduplicated** union of the
    /// request's explicit exclusions and the user's seen items.
    /// `_precision` and `_par` are unused: the probe scans exact f64 on
    /// the calling thread (see [`gmlfm_serve::IvfIndex::search`]).
    ///
    /// Returns `None` when the backend holds no usable index for this
    /// request (no index, candidate pool below the index's
    /// `min_candidates`, `n` too large a fraction of the pool, catalogue
    /// size mismatch) — the caller then falls back to
    /// [`ScoringBackend::select_top_n_prec`]. The default implementation
    /// always falls back.
    #[allow(clippy::too_many_arguments)]
    fn select_top_n_indexed(
        &self,
        _catalog: &Catalog,
        _template: &[u32],
        _n: usize,
        _nprobe: Option<usize>,
        _excluded: &[u32],
        _precision: Precision,
        _par: Parallelism,
    ) -> Option<Vec<(u32, f64)>> {
        None
    }
}

/// A frozen model paired with its (optional) IVF index: the backend a
/// [`crate::ModelServer`] snapshot actually serves through. Scoring and
/// exact retrieval delegate to the model; whole-catalogue top-n
/// requests additionally get the indexed path when the index can serve
/// them (see [`ScoringBackend::select_top_n_indexed`]).
#[derive(Debug, Clone, Copy)]
pub struct IndexedModel<'a> {
    /// The frozen scoring model.
    pub frozen: &'a FrozenModel,
    /// The catalogue index, when the snapshot carries one.
    pub index: Option<&'a IvfIndex>,
}

impl ScoringBackend for IndexedModel<'_> {
    fn score_feats(&self, feats: &[u32]) -> f64 {
        self.frozen.score_feats(feats)
    }

    fn candidate_scores(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        par: Parallelism,
    ) -> Vec<f64> {
        self.frozen.candidate_scores(catalog, template, candidates, par)
    }

    fn select_top_n_prec(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        n: usize,
        precision: Precision,
        par: Parallelism,
    ) -> Vec<(u32, f64)> {
        self.frozen.select_top_n_prec(catalog, template, candidates, n, precision, par)
    }

    #[allow(clippy::too_many_arguments)]
    fn select_top_n_indexed(
        &self,
        catalog: &Catalog,
        template: &[u32],
        n: usize,
        nprobe: Option<usize>,
        excluded: &[u32],
        _precision: Precision,
        _par: Parallelism,
    ) -> Option<Vec<(u32, f64)>> {
        let index = self.index?;
        if index.n_items() != catalog.n_items() {
            return None;
        }
        // Below these sizes the probe bookkeeping costs more than the
        // scan it saves — serve exactly.
        // Saturating: `excluded` is the caller's and may name ids the
        // catalogue does not have.
        let surviving = catalog.n_items().saturating_sub(excluded.len());
        if surviving < index.min_candidates() || n.saturating_mul(4) > surviving {
            return None;
        }
        let nprobe = nprobe.unwrap_or_else(|| index.default_nprobe()).clamp(1, index.n_clusters());
        Some(index.search(self.frozen, catalog, template, catalog.item_slots(), n, nprobe, &|item| {
            excluded.binary_search(&item).is_ok()
        }))
    }
}

impl ScoringBackend for FrozenModel {
    fn score_feats(&self, feats: &[u32]) -> f64 {
        self.predict_feats(feats)
    }

    fn candidate_scores(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        par: Parallelism,
    ) -> Vec<f64> {
        let item_slots = catalog.item_slots();
        gmlfm_par::par_blocks(par, candidates.len(), |range| {
            // One ranker per worker block: the context side is staged
            // once and reused for every candidate in the block.
            let mut ranker = self.ranker(template, item_slots);
            candidates[range]
                .iter()
                .map(|&item| ranker.score(catalog.features_of(item)))
                .collect()
        })
    }

    /// The sharded scan driver over the candidate list
    /// ([`gmlfm_serve::scan_top_n`]): one contiguous candidate shard per
    /// requested worker, each with its own scanner (context partials
    /// computed once per shard) and bounded [`TopNHeap`], merged in
    /// shard order under [`gmlfm_serve::rank_cmp`]. No full score vector
    /// and no full sort — `O(C·k + C·log n)` per request.
    fn select_top_n_prec(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        n: usize,
        precision: Precision,
        par: Parallelism,
    ) -> Vec<(u32, f64)> {
        scan_top_n(self, catalog, template, catalog.item_slots(), candidates, n, precision, par)
    }
}

/// Validates a [`ScoreRequest`] and resolves it into the feature vector
/// to score. Borrows the request's own indices where possible.
pub fn resolve_feats<'r>(
    schema: &Schema,
    catalog: Option<&Catalog>,
    req: &'r ScoreRequest,
) -> Result<Cow<'r, [u32]>, RequestError> {
    let n = schema.total_dim();
    let check = |feats: &[u32]| -> Result<(), RequestError> {
        match feats.iter().find(|&&f| f as usize >= n) {
            Some(&feature) => Err(RequestError::FeatureOutOfRange { feature, n_features: n }),
            None => Ok(()),
        }
    };
    match req {
        ScoreRequest::Instance(inst) => {
            check(&inst.feats)?;
            Ok(Cow::Borrowed(inst.feats.as_slice()))
        }
        ScoreRequest::Feats(feats) => {
            check(feats)?;
            Ok(Cow::Borrowed(feats.as_slice()))
        }
        ScoreRequest::Pair { user, item } => {
            let catalog = catalog.ok_or(RequestError::MissingCatalog)?;
            let template = user_template(catalog, *user)?;
            let group = item_group(catalog, *item)?;
            Ok(Cow::Owned(catalog.splice(template, group)))
        }
        ScoreRequest::Cold { item, fields } => {
            let catalog = catalog.ok_or(RequestError::MissingCatalog)?;
            let mut feats: Vec<u32> = item_group(catalog, *item)?.to_vec();
            push_user_fields(schema, fields, &mut feats)?;
            // Global indices ascend with field order, so sorting restores
            // the field order a schema-built instance would have (which
            // the order-dependent TransFM mode cares about).
            feats.sort_unstable();
            Ok(Cow::Owned(feats))
        }
    }
}

/// Validates named user-side `(field, value)` pairs against the schema
/// and appends their global feature indices to `feats` — the shared
/// validation of [`ScoreRequest::Cold`] requests and fed
/// [`Interaction`]s: unknown, duplicated, item-side, and out-of-range
/// fields are all typed errors.
fn push_user_fields(
    schema: &Schema,
    fields: &[(String, usize)],
    feats: &mut Vec<u32>,
) -> Result<(), RequestError> {
    for (i, (name, value)) in fields.iter().enumerate() {
        if fields[..i].iter().any(|(prev, _)| prev == name) {
            return Err(RequestError::DuplicateField { field: name.clone() });
        }
        let field_idx = schema
            .fields()
            .iter()
            .position(|f| &f.name == name)
            .ok_or_else(|| RequestError::UnknownField { field: name.clone() })?;
        let field = &schema.fields()[field_idx];
        if !matches!(field.kind, FieldKind::User | FieldKind::UserAttr) {
            return Err(RequestError::ItemSideField { field: name.clone() });
        }
        if *value >= field.cardinality {
            return Err(RequestError::ValueOutOfRange {
                field: name.clone(),
                value: *value,
                cardinality: field.cardinality,
            });
        }
        feats.push(schema.feature_index(field_idx, *value));
    }
    Ok(())
}

/// Validates a streamed [`Interaction`] against the snapshot's schema
/// and catalog, and its rating as finite, and resolves the full training
/// feature vector it contributes: the catalog's `(user, item)` splice
/// plus any validated extra user-side fields, sorted into schema field
/// order.
pub fn resolve_interaction(
    schema: &Schema,
    catalog: Option<&Catalog>,
    event: &Interaction,
) -> Result<Vec<u32>, RequestError> {
    if event.rating.is_some_and(|r| !r.is_finite()) {
        return Err(RequestError::NonFiniteRating);
    }
    let catalog = catalog.ok_or(RequestError::MissingCatalog)?;
    let template = user_template(catalog, event.user)?;
    let group = item_group(catalog, event.item)?;
    let mut feats = catalog.splice(template, group);
    push_user_fields(schema, &event.fields, &mut feats)?;
    feats.sort_unstable();
    feats.dedup();
    Ok(feats)
}

/// Validates and runs a [`ScoreRequest`] through `backend`.
pub fn execute_score<B: ScoringBackend + ?Sized>(
    backend: &B,
    schema: &Schema,
    catalog: Option<&Catalog>,
    req: &ScoreRequest,
) -> Result<f64, RequestError> {
    let feats = resolve_feats(schema, catalog, req)?;
    Ok(backend.score_feats(&feats))
}

/// Validates a [`TopNRequest`] against the catalog: user id, explicit
/// exclusions, and any explicit candidate list. Returns the user's
/// resolved feature template — the evidence of validity the scoring
/// backends consume instead of re-checking the user id.
fn validate_topn<'c>(catalog: &'c Catalog, req: &TopNRequest) -> Result<&'c [u32], RequestError> {
    let template = user_template(catalog, req.user)?;
    for &item in &req.exclude {
        check_item(catalog, item)?;
    }
    if let Some(candidates) = &req.candidates {
        for &item in candidates {
            check_item(catalog, item)?;
        }
    }
    Ok(template)
}

/// Fills `out` with the request's exclusion set: the sorted,
/// deduplicated union of its explicit exclusions and — unless opted out
/// — the user's training-time seen items plus the `live` overlay items
/// (interactions fed since the snapshot was published; sorted ascending
/// like a seen list). Built once per request, it is the one
/// representation of "what is excluded" both retrieval paths filter
/// against by binary search — `req.exclude` is outside input bounded
/// only by the frame size, so membership must never be a linear scan
/// per catalogue item.
fn fill_excluded(seen: Option<&SeenItems>, live: &[u32], req: &TopNRequest, out: &mut Vec<u32>) {
    out.clear();
    if req.exclude_seen {
        if let Some(seen) = seen {
            out.extend_from_slice(seen.items(req.user));
        }
        out.extend_from_slice(live);
    }
    out.extend_from_slice(&req.exclude);
    out.sort_unstable();
    out.dedup();
}

/// Fills `out` with the surviving candidates of a *validated* request:
/// the requested set (or the whole catalogue) minus `excluded`
/// ([`fill_excluded`]: sorted ascending, deduplicated). Order of the
/// surviving candidates is preserved.
///
/// The whole catalogue minus a handful of exclusions is a handful of id
/// runs: one walk over `excluded` emits the run below each exclusion
/// and the tail after the last — no per-item membership test.
fn fill_candidates(catalog: &Catalog, excluded: &[u32], req: &TopNRequest, out: &mut Vec<u32>) {
    out.clear();
    if let Some(candidates) = &req.candidates {
        out.extend(candidates.iter().copied().filter(|item| excluded.binary_search(item).is_err()));
        return;
    }
    let n_items = u32::try_from(catalog.n_items()).unwrap_or(u32::MAX);
    let mut next = 0u32;
    for &e in excluded {
        // Ascending, so nothing after an id outside the catalogue is
        // inside it.
        if e >= n_items {
            break;
        }
        out.extend(next..e);
        next = e + 1;
    }
    out.extend(next..n_items);
}

/// Validates and runs a [`TopNRequest`] through `backend`, returning
/// `(item, score)` pairs **in candidate order** (no sort, `n` ignored) —
/// the shape the leave-one-out evaluation protocols consume.
///
/// `live` is the user's sorted live seen overlay (interactions fed since
/// the snapshot was published; empty for callers without one), excluded
/// under the same `exclude_seen` semantics as the snapshot seen sets.
pub fn execute_candidate_scores<B: ScoringBackend + ?Sized>(
    backend: &B,
    catalog: Option<&Catalog>,
    seen: Option<&SeenItems>,
    live: &[u32],
    req: &TopNRequest,
    default_par: Parallelism,
) -> Result<Vec<(u32, f64)>, RequestError> {
    let catalog = catalog.ok_or(RequestError::MissingCatalog)?;
    let template = validate_topn(catalog, req)?;
    let (mut excluded, mut candidates) = (Vec::new(), Vec::new());
    fill_excluded(seen, live, req, &mut excluded);
    fill_candidates(catalog, &excluded, req, &mut candidates);
    let par = req.par.unwrap_or(default_par);
    let scores = backend.candidate_scores(catalog, template, &candidates, par);
    Ok(candidates.into_iter().zip(scores).collect())
}

/// Request-scoped scratch reused across the top-n hot path: the
/// resolved candidate list is `O(catalogue)` and rebuilding its backing
/// allocation on every request dominated steady-state serving's
/// allocator traffic. One scratch per thread; `mem::take` keeps a
/// re-entrant caller (a backend that itself executes requests) safe —
/// the inner call simply allocates fresh buffers.
#[derive(Default)]
struct TopNScratch {
    candidates: Vec<u32>,
    excluded: Vec<u32>,
}

thread_local! {
    static TOPN_SCRATCH: RefCell<TopNScratch> = RefCell::new(TopNScratch::default());
}

/// Validates and runs a [`TopNRequest`] through `backend`: the top
/// `req.n` candidates, best first, under the deterministic retrieval
/// order ([`gmlfm_serve::rank_cmp`]: score descending, ties broken by ascending item
/// id).
///
/// Whole-catalogue requests that don't pin
/// [`RetrievalStrategy::Exact`] are first offered to
/// [`ScoringBackend::select_top_n_indexed`] (the IVF path of indexed
/// snapshots — approximate candidate set, exact scores); everything
/// else, and any request the index declines, goes through
/// [`ScoringBackend::select_top_n_prec`] — the sharded scan driver for
/// frozen snapshots — never a full sort. Exclusion filtering (explicit
/// lists and seen items) runs **before** selection on both paths, so
/// excluded items never occupy result slots. `req.n = 0` yields an
/// empty ranking; `req.n` beyond the surviving candidate count yields
/// every survivor.
///
/// `live` is the user's sorted live seen overlay (interactions fed since
/// the snapshot was published; empty for callers without one), excluded
/// — on both the indexed and the exact path — under the same
/// `exclude_seen` semantics as the snapshot seen sets. This is how a fed
/// event leaves a user's recommendations *before* any retrain publishes.
pub fn execute_topn<B: ScoringBackend + ?Sized>(
    backend: &B,
    catalog: Option<&Catalog>,
    seen: Option<&SeenItems>,
    live: &[u32],
    req: &TopNRequest,
    default_par: Parallelism,
) -> Result<Vec<(u32, f64)>, RequestError> {
    let catalog = catalog.ok_or(RequestError::MissingCatalog)?;
    let template = validate_topn(catalog, req)?;
    let par = req.par.unwrap_or(default_par);
    let mut scratch = TOPN_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    fill_excluded(seen, live, req, &mut scratch.excluded);

    // Indexed retrieval: only whole-catalogue requests are eligible —
    // an explicit candidate list already *is* a (usually small)
    // candidate set, and scanning it exactly is both cheaper and what
    // the request's order-sensitive semantics require.
    let indexed = if req.candidates.is_none() && req.strategy != Some(RetrievalStrategy::Exact) {
        let nprobe = match req.strategy {
            Some(RetrievalStrategy::Ivf { nprobe }) => nprobe,
            _ => None,
        };
        backend.select_top_n_indexed(catalog, template, req.n, nprobe, &scratch.excluded, Precision::F64, par)
    } else {
        None
    };
    let value = match indexed {
        Some(value) => value,
        None => {
            fill_candidates(catalog, &scratch.excluded, req, &mut scratch.candidates);
            backend.select_top_n_prec(catalog, template, &scratch.candidates, req.n, Precision::F64, par)
        }
    };

    TOPN_SCRATCH.with(|s| *s.borrow_mut() = scratch);
    Ok(value)
}

/// Fans a [`BatchRequest`] across threads. Each sub-request validates
/// and fails independently; top-n sub-requests default to serial inside
/// the batch (the batch itself is the fan-out) unless they carry an
/// explicit [`TopNRequest::parallelism`].
///
/// `live` holds the live seen overlay rows of the batch's users as
/// `(user, sorted items)`, sorted by user — one point-in-time copy, so
/// every sub-request filters against the same live state (empty for
/// callers without an overlay). A user without a row has no live items;
/// rows are consulted under the same `exclude_seen` semantics as the
/// snapshot seen sets.
pub fn execute_batch<B: ScoringBackend + Sync + ?Sized>(
    backend: &B,
    schema: &Schema,
    catalog: Option<&Catalog>,
    seen: Option<&SeenItems>,
    live: &[(u32, Vec<u32>)],
    req: &BatchRequest,
) -> Vec<Result<Reply, RequestError>> {
    let par = req.par.unwrap_or_else(Parallelism::auto);
    gmlfm_par::par_map(par, &req.requests, |request| match request {
        Request::Score(score) => execute_score(backend, schema, catalog, score).map(Reply::Score),
        Request::TopN(topn) => {
            let row = live.binary_search_by_key(&topn.user, |(user, _)| *user);
            let user_live = row.map_or(&[][..], |i| &live[i].1);
            execute_topn(backend, catalog, seen, user_live, topn, Parallelism::serial()).map(Reply::TopN)
        }
    })
}

/// Resolves a user id to its feature template, or the typed error. The
/// returned slice is the *evidence* that the user is in range — passing
/// it (rather than the raw id) downstream means the scoring paths never
/// need a second, panicking lookup.
fn user_template(catalog: &Catalog, user: u32) -> Result<&[u32], RequestError> {
    catalog
        .template(user)
        .ok_or(RequestError::UnknownUser { user, n_users: catalog.n_users() })
}

/// Resolves an item id to its feature group, or the typed error — the
/// item-side counterpart of [`user_template`].
fn item_group(catalog: &Catalog, item: u32) -> Result<&[u32], RequestError> {
    catalog
        .item_features(item)
        .ok_or(RequestError::UnknownItem { item, n_items: catalog.n_items() })
}

fn check_item(catalog: &Catalog, item: u32) -> Result<(), RequestError> {
    if (item as usize) < catalog.n_items() {
        Ok(())
    } else {
        Err(RequestError::UnknownItem { item, n_items: catalog.n_items() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const N_ITEMS: u32 = 40;

    fn catalog() -> Catalog {
        Catalog::new(vec![1], vec![vec![0, 1]], (0..N_ITEMS).map(|i| vec![1 + i]).collect())
    }

    /// The candidates [`execute_topn`] would scan for `req`, next to the
    /// per-item membership filter the run emission replaced.
    fn candidates_and_reference(seen: &SeenItems, live: &[u32], req: &TopNRequest) -> (Vec<u32>, Vec<u32>) {
        let catalog = catalog();
        let (mut excluded, mut got) = (Vec::new(), Vec::new());
        fill_excluded(Some(seen), live, req, &mut excluded);
        fill_candidates(&catalog, &excluded, req, &mut got);
        let keep = |item: &u32| excluded.binary_search(item).is_err();
        let want = match &req.candidates {
            Some(candidates) => candidates.iter().copied().filter(keep).collect(),
            None => (0..N_ITEMS).filter(keep).collect(),
        };
        (got, want)
    }

    #[test]
    fn run_emission_handles_the_named_exclusion_shapes() {
        let nothing_seen = SeenItems::new(vec![]);
        let survivors = |exclude: Vec<u32>| {
            let req = TopNRequest::new(0, 5).exclude(exclude);
            let (got, want) = candidates_and_reference(&nothing_seen, &[], &req);
            assert_eq!(got, want);
            got
        };
        assert_eq!(survivors(vec![]), (0..N_ITEMS).collect::<Vec<_>>());
        assert_eq!(survivors(vec![N_ITEMS - 1, 0]), (1..N_ITEMS - 1).collect::<Vec<_>>());
        assert_eq!(survivors(vec![3, 4, 5, 4]), (0..3).chain(6..N_ITEMS).collect::<Vec<_>>());
        assert!(survivors((0..N_ITEMS).rev().collect()).is_empty());
        // Ids the catalogue does not have — `u32::MAX` among them — end
        // the walk; they neither overflow nor swallow the tail.
        assert_eq!(survivors(vec![u32::MAX, N_ITEMS, 7, N_ITEMS + 1]), {
            let mut all: Vec<u32> = (0..N_ITEMS).collect();
            all.remove(7);
            all
        });
        assert!(survivors((0..=N_ITEMS).chain([u32::MAX]).collect()).is_empty());

        // The same item through all three sources is excluded once.
        let seen = SeenItems::new(vec![vec![2, 9, 9]]);
        let req = TopNRequest::new(0, 5).exclude(vec![9, 2, 30]);
        let (got, want) = candidates_and_reference(&seen, &[2, 9, 11], &req);
        assert_eq!(got, want);
        assert_eq!(got.len(), N_ITEMS as usize - 4);
        let (got, want) = candidates_and_reference(&seen, &[2, 9, 11], &req.candidates(vec![11, 12, 9, 12]));
        assert_eq!((got, want), (vec![12, 12], vec![12, 12]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn run_emission_equals_the_membership_filter(
            seen in proptest::collection::vec(0u32..N_ITEMS, 0..20),
            live in proptest::collection::vec(0u32..N_ITEMS, 0..6),
            exclude in proptest::collection::vec(
                prop_oneof![0u32..N_ITEMS, N_ITEMS..N_ITEMS + 4, Just(u32::MAX)], 0..50,
            ),
            candidates in proptest::option::of(proptest::collection::vec(0u32..N_ITEMS, 0..30)),
            exclude_seen in any::<bool>(),
        ) {
            let mut live = live;
            live.sort_unstable();
            live.dedup();
            let mut req = TopNRequest::new(0, 5).exclude(exclude);
            req.candidates = candidates;
            req.exclude_seen = exclude_seen;
            let (got, want) = candidates_and_reference(&SeenItems::new(vec![seen]), &live, &req);
            prop_assert_eq!(got, want);
        }
    }
}
