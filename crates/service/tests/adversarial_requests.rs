//! Adversarial request fuzzing: arbitrary — including deliberately
//! malformed — [`ScoreRequest`]/[`TopNRequest`]/[`BatchRequest`]
//! payloads against a live [`ModelServer`].
//!
//! The contract under test: the validator **never panics** and **never
//! returns a partial result**. Every payload resolves to exactly one of
//!
//! * a typed [`RequestError`] naming the offending input (out-of-range
//!   ids, duplicate or unknown fields, item-side fields in cold-start
//!   requests, values beyond a field's cardinality), or
//! * a complete, internally consistent reply — where "complete" for a
//!   ranking request means exactly `min(n, surviving candidates)`
//!   entries, sorted under the deterministic retrieval order, bit-equal
//!   to the full-sort reference over the same candidates. Structural
//!   edge values that name only in-range ids — `n = 0`, `n` beyond the
//!   catalogue, empty or huge or duplicate-laden candidate lists — are
//!   well-formed and answer completely, as documented on
//!   [`TopNRequest`].
//!
//! `exclude` is outside input bounded only by the frame size, so the
//! last section feeds the exclusion filter unsorted, duplicate-laden
//! and whole-catalogue-sized lists: the exact and the indexed path
//! filter against one exclusion set and must answer identically.

use gmlfm_data::{FieldKind, Schema};
use gmlfm_par::Parallelism;
use gmlfm_serve::{rank_cmp, FrozenModel, IvfBuildOptions, IvfIndex, Precision, RetrievalStrategy};
use gmlfm_service::{
    BatchRequest, Catalog, IndexedModel, ModelServer, ModelSnapshot, Reply, Request, RequestError,
    ScoreRequest, ScoringBackend, SeenItems, TopNRequest,
};
use proptest::prelude::*;
use top_n_reference::full_sort_top_n;

#[path = "../../serve/tests/common/top_n_reference.rs"]
mod top_n_reference;

const N_USERS: usize = 6;
const N_ITEMS: usize = 9;
const N_GENDER: usize = 2;
const N_CATEGORY: usize = 4;
const DIM: usize = N_USERS + N_ITEMS + N_GENDER + N_CATEGORY;

const ITEM_OFF: u32 = N_USERS as u32;
const GENDER_OFF: u32 = (N_USERS + N_ITEMS) as u32;
const CATEGORY_OFF: u32 = (N_USERS + N_ITEMS + N_GENDER) as u32;

fn schema() -> Schema {
    Schema::from_specs(&[
        ("user", N_USERS, FieldKind::User),
        ("item", N_ITEMS, FieldKind::Item),
        ("gender", N_GENDER, FieldKind::UserAttr),
        ("category", N_CATEGORY, FieldKind::Category),
    ])
}

fn catalog() -> Catalog {
    let category = |i: u32| CATEGORY_OFF + i % N_CATEGORY as u32;
    Catalog::new(
        vec![1, 3],
        (0..N_USERS as u32)
            .map(|u| vec![u, ITEM_OFF, GENDER_OFF + u % 2, category(0)])
            .collect(),
        (0..N_ITEMS as u32).map(|i| vec![ITEM_OFF + i, category(i)]).collect(),
    )
}

/// User 0 has seen the whole catalogue (the all-seen corner); the others
/// a deterministic few items.
fn seen() -> SeenItems {
    let mut per_user = vec![(0..N_ITEMS as u32).collect::<Vec<_>>()];
    for u in 1..N_USERS as u32 {
        per_user.push(vec![u % N_ITEMS as u32, (u * 3) % N_ITEMS as u32]);
    }
    SeenItems::new(per_user)
}

fn server() -> ModelServer {
    // Weighted squared-Euclidean metric — the decoupled hot path the
    // serving deployments run.
    let frozen = FrozenModel::synthetic_metric(DIM, 5, 23);
    ModelServer::new(ModelSnapshot {
        schema: schema(),
        frozen,
        catalog: Some(catalog()),
        seen: Some(seen()),
        index: None,
    })
    .expect("consistent snapshot")
}

/// Arbitrary (often malformed) score requests.
fn score_request() -> impl Strategy<Value = ScoreRequest> {
    let feats = proptest::collection::vec(0u32..(2 * DIM as u32), 0..8);
    let field_name = prop_oneof![
        Just("gender".to_string()),
        Just("category".to_string()),
        Just("user".to_string()),
        Just("no_such_field".to_string()),
    ];
    let fields = proptest::collection::vec((field_name, 0usize..6), 0..4);
    prop_oneof![
        feats.clone().prop_map(ScoreRequest::Feats),
        feats.prop_map(|f| ScoreRequest::Instance(gmlfm_data::Instance::new(f, 1.0))),
        (0u32..12, 0u32..20).prop_map(|(user, item)| ScoreRequest::Pair { user, item }),
        (0u32..20, fields).prop_map(|(item, fields)| ScoreRequest::Cold { item, fields }),
    ]
}

/// Arbitrary (often malformed) top-n requests: out-of-range users and
/// ids, empty/huge/duplicate candidate lists, n = 0 and n far beyond the
/// catalogue.
fn topn_request() -> impl Strategy<Value = TopNRequest> {
    let n = prop_oneof![Just(0usize), 1usize..6, Just(N_ITEMS), Just(10_000usize)];
    let candidates = proptest::option::of(proptest::collection::vec(0u32..14, 0..40));
    let exclude = proptest::collection::vec(0u32..14, 0..6);
    (0u32..9, n, candidates, exclude, any::<bool>()).prop_map(
        |(user, n, candidates, exclude, exclude_seen)| TopNRequest {
            user,
            n,
            candidates,
            exclude,
            exclude_seen,
            strategy: None,
        },
    )
}

/// Whether a score request is malformed under the documented validation
/// rules (mirrored independently of the implementation).
fn score_should_fail(req: &ScoreRequest) -> bool {
    match req {
        ScoreRequest::Feats(feats) => feats.iter().any(|&f| f as usize >= DIM),
        ScoreRequest::Instance(inst) => inst.feats.iter().any(|&f| f as usize >= DIM),
        ScoreRequest::Pair { user, item } => *user as usize >= N_USERS || *item as usize >= N_ITEMS,
        ScoreRequest::Cold { item, fields } => {
            *item as usize >= N_ITEMS
                || fields.iter().enumerate().any(|(i, (name, value))| {
                    fields[..i].iter().any(|(prev, _)| prev == name)
                        || name == "no_such_field"
                        || name == "category" // item-side field
                        || name == "item"
                        || (name == "gender" && *value >= N_GENDER)
                        || (name == "user" && *value >= N_USERS)
                })
        }
    }
}

/// Whether a top-n request is malformed: only genuinely out-of-range ids
/// are; every structural edge (empty/duplicate candidates, n = 0, huge
/// n) is well-formed.
fn topn_should_fail(req: &TopNRequest) -> bool {
    req.user as usize >= N_USERS
        || req.exclude.iter().any(|&i| i as usize >= N_ITEMS)
        || req
            .candidates
            .as_ref()
            .is_some_and(|c| c.iter().any(|&i| i as usize >= N_ITEMS))
}

/// The candidates that survive exclusion filtering, mirroring the
/// documented pre-heap semantics (order preserved, duplicates kept).
fn surviving(req: &TopNRequest, seen: &SeenItems) -> Vec<u32> {
    let keep = |i: u32| !req.exclude.contains(&i) && (!req.exclude_seen || !seen.contains(req.user, i));
    match &req.candidates {
        Some(c) => c.iter().copied().filter(|&i| keep(i)).collect(),
        None => (0..N_ITEMS as u32).filter(|&i| keep(i)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every score payload is either a typed error or a complete score —
    /// and which of the two is decided exactly by the validation rules.
    #[test]
    fn arbitrary_score_requests_never_panic_and_fail_typed(req in score_request()) {
        let server = fixture();
        match server.score(&req) {
            Ok(resp) => {
                prop_assert!(!score_should_fail(&req), "malformed request answered: {req:?}");
                prop_assert!(resp.value.is_finite());
                prop_assert_eq!(resp.generation, 1);
            }
            Err(err) => {
                prop_assert!(score_should_fail(&req), "well-formed request rejected: {req:?} -> {err}");
                // The error is typed and displayable, never a panic.
                prop_assert!(!format!("{err}").is_empty());
            }
        }
    }

    /// Every top-n payload is either a typed error or a complete,
    /// reference-identical ranking — never partial, never panicking.
    #[test]
    fn arbitrary_topn_requests_never_panic_and_never_return_partial_results(req in topn_request()) {
        let server = fixture();
        let result = server.top_n(&req);
        if topn_should_fail(&req) {
            let err = result.expect_err("out-of-range ids must be rejected");
            prop_assert!(
                matches!(err, RequestError::UnknownUser { .. } | RequestError::UnknownItem { .. }),
                "unexpected error kind: {err}"
            );
            return Ok(());
        }
        let got = result.expect("well-formed request").value;
        let survivors = surviving(&req, &seen());
        prop_assert_eq!(got.len(), req.n.min(survivors.len()), "partial or padded result for {:?}", &req);
        // Sorted under the deterministic retrieval order.
        for pair in got.windows(2) {
            prop_assert!(rank_cmp(&pair[0], &pair[1]) != std::cmp::Ordering::Greater);
        }
        // Excluded and seen items never occupy slots.
        for &(item, _) in &got {
            prop_assert!(survivors.contains(&item), "item {} not among surviving candidates", item);
        }
        // Bit-equal to the full-sort reference over the same survivors.
        let (_, snap) = server.snapshot();
        let catalog = snap.catalog.as_ref().expect("catalog");
        let template = catalog.template(req.user).expect("user in range");
        let reference = full_sort_top_n(&snap.frozen, catalog, template, catalog.item_slots(), survivors, req.n);
        prop_assert_eq!(got, reference, "heap path drifted from the full-sort reference");
    }

    /// A batch never fails as a whole: each sub-request succeeds or
    /// fails exactly as it would standalone, and malformed slots do not
    /// disturb their neighbours.
    #[test]
    fn arbitrary_batches_fail_slotwise_not_wholesale(
        scores in proptest::collection::vec(score_request(), 0..4),
        topns in proptest::collection::vec(topn_request(), 0..3),
    ) {
        let server = fixture();
        let mut requests: Vec<Request> = scores.iter().cloned().map(Request::Score).collect();
        requests.extend(topns.iter().cloned().map(Request::TopN));
        let batch = BatchRequest::new(requests.clone());
        let resp = server.batch(&batch);
        prop_assert_eq!(resp.value.len(), requests.len(), "batch reply is complete");
        for (request, reply) in requests.iter().zip(&resp.value) {
            match request {
                Request::Score(req) => match (server.score(req), reply) {
                    (Ok(standalone), Ok(Reply::Score(batched))) => {
                        prop_assert_eq!(standalone.value.to_bits(), batched.to_bits());
                    }
                    (Err(standalone), Err(batched)) => prop_assert_eq!(&standalone, batched),
                    (standalone, batched) => {
                        return Err(TestCaseError::fail(format!(
                            "score slot diverged: standalone {standalone:?} vs batched {batched:?}"
                        )));
                    }
                },
                Request::TopN(req) => match (server.top_n(req), reply) {
                    (Ok(standalone), Ok(Reply::TopN(batched))) => {
                        prop_assert_eq!(&standalone.value, batched);
                    }
                    (Err(standalone), Err(batched)) => prop_assert_eq!(&standalone, batched),
                    (standalone, batched) => {
                        return Err(TestCaseError::fail(format!(
                            "top-n slot diverged: standalone {standalone:?} vs batched {batched:?}"
                        )));
                    }
                },
            }
        }
    }
}

/// The fixture server, built once — proptest closures run many cases.
fn fixture() -> &'static ModelServer {
    static SERVER: std::sync::OnceLock<ModelServer> = std::sync::OnceLock::new();
    SERVER.get_or_init(server)
}

const WIDE_USERS: usize = 4;
const WIDE_ITEMS: usize = 240;
const WIDE_CATEGORIES: usize = 6;

/// A catalogue wide enough for the indexed path to engage, served from a
/// snapshot that carries an index (`min_candidates` lowered to 1, so
/// only the "`n` is too large a share of the survivors" rule can decline
/// a request).
fn wide_fixture() -> &'static ModelServer {
    static SERVER: std::sync::OnceLock<ModelServer> = std::sync::OnceLock::new();
    SERVER.get_or_init(|| {
        let item_off = WIDE_USERS as u32;
        let category_off = (WIDE_USERS + WIDE_ITEMS) as u32;
        let category = |i: u32| category_off + i % WIDE_CATEGORIES as u32;
        let catalog = Catalog::new(
            vec![1, 2],
            (0..WIDE_USERS as u32).map(|u| vec![u, item_off, category(0)]).collect(),
            (0..WIDE_ITEMS as u32).map(|i| vec![item_off + i, category(i)]).collect(),
        );
        let schema = Schema::from_specs(&[
            ("user", WIDE_USERS, FieldKind::User),
            ("item", WIDE_ITEMS, FieldKind::Item),
            ("category", WIDE_CATEGORIES, FieldKind::Category),
        ]);
        let frozen = FrozenModel::synthetic_metric(schema.total_dim(), 5, 29);
        let opts = IvfBuildOptions { clusters: Some(8), min_candidates: 1, ..IvfBuildOptions::default() };
        let index = IvfIndex::build(&frozen, &catalog, &opts, Parallelism::serial());
        assert!(index.is_some(), "metric models build an index");
        let seen = SeenItems::new((0..WIDE_USERS as u32).map(|u| vec![u, 7 * u + 3, 100 + u]).collect());
        ModelServer::new(ModelSnapshot { schema, frozen, catalog: Some(catalog), seen: Some(seen), index })
            .expect("consistent snapshot")
    })
}

/// Exclusion lists as a hostile client would send them: unsorted,
/// duplicate-laden, and — the second arm — as long as the catalogue or
/// several times longer.
fn exclude_list() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        proptest::collection::vec(0u32..WIDE_ITEMS as u32, 0..12),
        proptest::collection::vec(0u32..WIDE_ITEMS as u32, WIDE_ITEMS..3 * WIDE_ITEMS),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One exclusion set, two retrieval paths: whatever shape the
    /// `exclude` list arrives in, pinning `Exact` and probing every
    /// cluster answer identically, equal the full sort over the
    /// survivors, and equal the reply to the list's canonical (sorted,
    /// deduplicated) form.
    #[test]
    fn exclude_lists_filter_identically_on_the_exact_and_indexed_paths(
        user in 0u32..WIDE_USERS as u32,
        n in 1usize..12,
        exclude in exclude_list(),
        exclude_seen in any::<bool>(),
    ) {
        let server = wide_fixture();
        let (_, snap) = server.snapshot();
        let (catalog, seen) = (snap.catalog.as_ref().expect("catalog"), snap.seen.as_ref().expect("seen"));
        let index = snap.index.as_ref().expect("index");
        let base = TopNRequest::new(user, n).exclude(exclude.clone());
        let base = if exclude_seen { base } else { base.include_seen() };
        let full_probe = RetrievalStrategy::Ivf { nprobe: Some(index.n_clusters()) };

        let excluded = |i: u32| exclude.contains(&i) || (exclude_seen && seen.contains(user, i));
        let survivors: Vec<u32> = (0..WIDE_ITEMS as u32).filter(|&i| !excluded(i)).collect();
        let template = catalog.template(user).expect("user in range");
        let want = full_sort_top_n(&snap.frozen, catalog, template, catalog.item_slots(), survivors.iter().copied(), n);

        let exact = server.top_n(&base.clone().strategy(RetrievalStrategy::Exact)).expect("well-formed").value;
        let probed = server.top_n(&base.clone().strategy(full_probe)).expect("well-formed").value;
        prop_assert_eq!(&exact, &want, "exact path vs the full sort over the survivors");
        prop_assert_eq!(&probed, &want, "full probe vs the full sort over the survivors");

        // The indexed reply really came off the index whenever the
        // request is eligible for it (not from a silent exact fallback).
        let mut canonical: Vec<u32> = (0..WIDE_ITEMS as u32).filter(|&i| excluded(i)).collect();
        let backend = IndexedModel { frozen: &snap.frozen, index: Some(index) };
        let via_index = backend.select_top_n_indexed(
            catalog, template, n, Some(index.n_clusters()), &canonical, Precision::F64, Parallelism::serial(),
        );
        prop_assert_eq!(via_index.is_some(), 4 * n <= survivors.len());
        if let Some(via_index) = via_index {
            prop_assert_eq!(&via_index, &want);
        }

        // The canonical form of the same list is the same request.
        canonical.retain(|i| exclude.contains(i));
        let tidy = server.top_n(&base.clone().exclude(canonical).strategy(full_probe)).expect("well-formed").value;
        prop_assert_eq!(&tidy, &want);

        // Explicit candidates pass the same filter: asked for all of
        // them, the scan ranks exactly the listed survivors.
        let listed: Vec<u32> = (0..WIDE_ITEMS as u32).rev().step_by(3).collect();
        let mut listed_req = base.clone().candidates(listed.clone());
        listed_req.n = listed.len();
        let kept: Vec<u32> = listed.into_iter().filter(|&i| !excluded(i)).collect();
        let want = full_sort_top_n(&snap.frozen, catalog, template, catalog.item_slots(), kept.iter().copied(), kept.len());
        prop_assert_eq!(server.top_n(&listed_req).expect("well-formed").value, want);
    }
}

/// Excluding the whole catalogue — here twice over and back to front —
/// is a well-formed request with an empty answer on every path.
#[test]
fn excluding_everything_yields_the_empty_ranking() {
    let server = wide_fixture();
    let everything: Vec<u32> = (0..WIDE_ITEMS as u32).rev().chain(0..WIDE_ITEMS as u32).collect();
    let base = TopNRequest::new(1, 10).exclude(everything);
    for strategy in [RetrievalStrategy::Exact, RetrievalStrategy::Ivf { nprobe: None }] {
        let got = server.top_n(&base.clone().strategy(strategy)).expect("well-formed").value;
        assert!(got.is_empty(), "{strategy:?}: {got:?}");
    }
    // Nothing survives to be scored, however many items are asked for.
    let mut all = base.clone().strategy(RetrievalStrategy::Exact);
    all.n = WIDE_ITEMS;
    assert!(server.top_n(&all).expect("well-formed").value.is_empty());
    let listed = base.candidates(vec![5, 5, 200, 0]);
    assert!(server.top_n(&listed).expect("well-formed").value.is_empty());
}

/// Regression: a snapshot's seen sets are outside input too (an artifact
/// on disk, an online fold). A row naming every item *plus one id the
/// catalogue does not have* made the exclusion list longer than the
/// catalogue, and the index gate's `n_items − excluded.len()`
/// underflowed — a panic in overflow-checked builds, a wrapped count
/// that waved the request into the index in release. Install refuses
/// such a snapshot with the typed error, and the gate itself — public,
/// and handed any `excluded` — saturates.
#[test]
fn a_seen_set_longer_than_the_catalogue_neither_installs_nor_underflows_the_index_gate() {
    let (_, snap) = wide_fixture().snapshot();
    let mut hostile = snap.clone();
    hostile.seen = Some(SeenItems::new(vec![(0..=WIDE_ITEMS as u32).collect()]));
    let server = ModelServer::new(snap.clone()).expect("consistent snapshot");
    for refused in [ModelServer::new(hostile.clone()).map(|s| s.generation()), server.swap(hostile)] {
        match refused {
            Err(RequestError::SchemaMismatch { reason }) => {
                assert!(reason.contains(&format!("item {WIDE_ITEMS}")), "{reason}")
            }
            other => panic!("expected a schema mismatch, got {other:?}"),
        }
    }
    assert_eq!(server.generation(), 1, "a refused swap changes nothing");

    let catalog = snap.catalog.as_ref().expect("catalog");
    let template = catalog.template(0).expect("user in range");
    let backend = IndexedModel { frozen: &snap.frozen, index: snap.index.as_ref() };
    let indexed = |excluded: &[u32]| {
        backend.select_top_n_indexed(
            catalog,
            template,
            10,
            None,
            excluded,
            Precision::F64,
            Parallelism::serial(),
        )
    };
    let over_long: Vec<u32> = (0..=WIDE_ITEMS as u32).chain([u32::MAX]).collect();
    assert_eq!(indexed(&over_long), None, "nothing survives: the exact path answers");
    let outside_only = [WIDE_ITEMS as u32, WIDE_ITEMS as u32 + 1, u32::MAX];
    assert_eq!(indexed(&outside_only), indexed(&[]), "ids the catalogue lacks exclude nothing");
    assert_eq!(indexed(&[]).map(|ranked| ranked.len()), Some(10));
}
