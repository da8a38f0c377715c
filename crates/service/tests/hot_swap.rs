//! Concurrency and protocol tests for the hot-swappable [`ModelServer`]:
//! reader threads hammer the handle while a writer performs repeated
//! swaps, and every response must be consistent with exactly one model
//! generation — no torn reads, no blocking, no panics.
//!
//! The fixture model makes torn reads *detectable*: generation `g`
//! serves a frozen model whose every score is exactly `g * 1000.0` (bias
//! `w0 = g * 1000`, all other parameters zero), so a response whose
//! value disagrees with `marker(response.generation)` can only come from
//! mixing two generations.

use gmlfm_data::{FieldKind, Schema};
use gmlfm_serve::{FrozenModel, SecondOrder};
use gmlfm_service::{
    BatchRequest, Catalog, ModelServer, ModelSnapshot, Reply, Request, RequestError, ScoreRequest, SeenItems,
    TopNRequest,
};
use gmlfm_tensor::Matrix;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

const N_USERS: usize = 8;
const N_ITEMS: usize = 12;

fn schema() -> Schema {
    Schema::from_specs(&[("user", N_USERS, FieldKind::User), ("item", N_ITEMS, FieldKind::Item)])
}

fn catalog() -> Catalog {
    Catalog::new(
        vec![1],
        (0..N_USERS as u32).map(|u| vec![u, N_USERS as u32]).collect(),
        (0..N_ITEMS as u32).map(|i| vec![N_USERS as u32 + i]).collect(),
    )
}

/// The score every request against this snapshot must return.
fn marker(generation: u64) -> f64 {
    generation as f64 * 1000.0
}

/// A snapshot whose every score is exactly `marker(generation)`.
fn snapshot(generation: u64) -> ModelSnapshot {
    let n = N_USERS + N_ITEMS;
    let frozen =
        FrozenModel::from_parts(marker(generation), vec![0.0; n], Matrix::zeros(n, 3), SecondOrder::Dot);
    ModelSnapshot { schema: schema(), frozen, catalog: Some(catalog()), seen: None, index: None }
}

#[test]
fn swaps_under_concurrent_readers_never_tear_a_response() {
    const SWAPS: u64 = 60;
    let server = ModelServer::new(snapshot(1)).expect("consistent snapshot");
    assert_eq!(server.generation(), 1);

    let done = AtomicBool::new(false);
    // Nothing is ever sent: each reader drops its sender after its first
    // full iteration (or when it panics), and the writer's `recv` before
    // its first swap returns once every sender is gone — so every live
    // reader is inside its loop while the swaps happen, however late the
    // scheduler started it.
    let (warmed_up, all_warmed_up) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let mut readers = Vec::new();
        for reader in 0..4 {
            let server = server.clone(); // the handle under test is Clone + Send + Sync
            let done = &done;
            let mut warmed_up = Some(warmed_up.clone());
            readers.push(s.spawn(move || {
                let mut last_gen = 0u64;
                let mut iterations = 0u64;
                while !done.load(Ordering::Relaxed) {
                    // Score: value fully explained by the stamped generation.
                    let resp = server.score(&ScoreRequest::pair(reader, 3)).expect("valid pair");
                    assert_eq!(resp.value, marker(resp.generation), "torn score response");
                    assert!(resp.generation >= last_gen, "generation went backwards");
                    last_gen = resp.generation;

                    // Top-n: every candidate scored by the same generation,
                    // ties broken by ascending item id.
                    let resp = server.top_n(&TopNRequest::new(reader, 5)).expect("valid top-n request");
                    assert_eq!(resp.value.len(), 5);
                    for (rank, &(item, score)) in resp.value.iter().enumerate() {
                        assert_eq!(item, rank as u32, "equal scores must sort by item id");
                        assert_eq!(score, marker(resp.generation), "torn top-n response");
                    }
                    assert!(resp.generation >= last_gen);
                    last_gen = resp.generation;

                    // Batch: one generation for every sub-reply.
                    let batch = BatchRequest::new(vec![
                        Request::Score(ScoreRequest::pair(reader, 0)),
                        Request::Score(ScoreRequest::feats(vec![reader, N_USERS as u32 + 1])),
                        Request::TopN(TopNRequest::new(reader, 2)),
                    ]);
                    let resp = server.batch(&batch);
                    let expected = marker(resp.generation);
                    for reply in &resp.value {
                        match reply.as_ref().expect("all batch sub-requests are valid") {
                            Reply::Score(score) => assert_eq!(*score, expected, "torn batch score"),
                            Reply::TopN(ranked) => {
                                assert!(ranked.iter().all(|&(_, s)| s == expected), "torn batch top-n")
                            }
                        }
                    }
                    iterations += 1;
                    drop(warmed_up.take());
                }
                iterations
            }));
        }

        // Writer: swap through SWAPS generations while the readers run.
        drop(warmed_up);
        all_warmed_up.recv().expect_err("no reader sends");
        for generation in 2..=SWAPS {
            let installed = server.swap(snapshot(generation)).expect("schema-compatible swap");
            assert_eq!(installed, generation, "generations must bump by exactly 1");
            std::thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);

        for reader in readers {
            let iterations = reader.join().expect("reader must not panic");
            assert!(iterations > 0, "reader never got to run");
        }
    });

    assert_eq!(server.generation(), SWAPS);
    // Superseded generations are retained (that is what keeps lock-free
    // readers sound), one per install.
    assert_eq!(server.retained(), SWAPS as usize);
    // A fresh clone sees the final generation immediately.
    assert_eq!(server.clone().score(&ScoreRequest::pair(0, 0)).unwrap().value, marker(SWAPS));
}

#[test]
fn borrows_lent_at_old_generations_outlive_seventy_installs() {
    // 70 installs fill table buckets of 1, 2, 4, 8, 16 and 32 cells and
    // start the 64-cell one; the borrows are taken from `first`, the
    // 1-cell bucket, the end of the 2-cell bucket and the start of the
    // 32-cell bucket, and must not move when later buckets appear.
    const INSTALLS: u64 = 70;
    let server = ModelServer::new(snapshot(1)).expect("consistent snapshot");
    let mut held: Vec<(u64, &ModelSnapshot)> = Vec::new();
    for generation in 2..=INSTALLS {
        if [1, 2, 4, 33].contains(&(generation - 1)) {
            held.push(server.snapshot());
        }
        if generation == 40 {
            let mut renamed = snapshot(generation);
            renamed.schema = Schema::from_specs(&[
                ("member", N_USERS, FieldKind::User),
                ("item", N_ITEMS, FieldKind::Item),
            ]);
            assert!(matches!(server.swap(renamed), Err(RequestError::SchemaMismatch { .. })));
            assert_eq!(
                (server.generation(), server.retained()),
                (39, 39),
                "a rejected swap installs nothing"
            );
        }
        assert_eq!(server.swap(snapshot(generation)).expect("schema-compatible swap"), generation);
    }
    assert_eq!(server.generation(), INSTALLS);
    assert_eq!(server.retained(), INSTALLS as usize);
    assert_eq!(held.iter().map(|&(generation, _)| generation).collect::<Vec<_>>(), [1, 2, 4, 33]);
    for (generation, snap) in held {
        assert_eq!(snap.frozen.bias(), marker(generation), "borrow of generation {generation} moved");
    }
    let (generation, snap) = server.snapshot();
    assert_eq!((generation, snap.frozen.bias()), (INSTALLS, marker(INSTALLS)));
}

#[test]
fn incompatible_swaps_are_rejected_and_change_nothing() {
    let server = ModelServer::new(snapshot(1)).expect("consistent snapshot");

    // Different cardinality.
    let mut other = snapshot(2);
    other.schema =
        Schema::from_specs(&[("user", N_USERS + 1, FieldKind::User), ("item", N_ITEMS, FieldKind::Item)]);
    let n = N_USERS + 1 + N_ITEMS;
    other.frozen = FrozenModel::from_parts(0.0, vec![0.0; n], Matrix::zeros(n, 3), SecondOrder::Dot);
    other.catalog = None;
    let err = server.swap(other).unwrap_err();
    assert!(matches!(err, RequestError::SchemaMismatch { .. }), "{err}");

    // Different field name.
    let mut other = snapshot(2);
    other.schema =
        Schema::from_specs(&[("member", N_USERS, FieldKind::User), ("item", N_ITEMS, FieldKind::Item)]);
    assert!(matches!(server.swap(other), Err(RequestError::SchemaMismatch { .. })));

    // Internally inconsistent snapshot: frozen dimension != schema.
    let mut other = snapshot(2);
    other.frozen = FrozenModel::from_parts(0.0, vec![0.0; 3], Matrix::zeros(3, 2), SecondOrder::Dot);
    assert!(matches!(server.swap(other), Err(RequestError::SchemaMismatch { .. })));

    // Catalog indices outside the frozen dimension are rejected up front
    // (construction and swap alike), so requests can never panic on them.
    let mut other = snapshot(2);
    other.catalog = Some(Catalog::new(vec![1], vec![vec![0, 10_000]], vec![vec![10_000]]));
    assert!(matches!(ModelServer::new(other.clone()), Err(RequestError::SchemaMismatch { .. })));
    assert!(matches!(server.swap(other), Err(RequestError::SchemaMismatch { .. })));

    // Nothing changed: still generation 1, still serving.
    assert_eq!(server.generation(), 1);
    assert_eq!(server.retained(), 1);
    assert_eq!(server.score(&ScoreRequest::pair(0, 0)).unwrap().value, marker(1));
}

#[test]
fn malformed_requests_are_typed_errors_never_panics() {
    let server = ModelServer::new(snapshot(1)).expect("consistent snapshot");

    let err = server
        .score(&ScoreRequest::feats(vec![0, (N_USERS + N_ITEMS) as u32]))
        .unwrap_err();
    assert!(matches!(err, RequestError::FeatureOutOfRange { feature: 20, n_features: 20 }), "{err}");

    let err = server.score(&ScoreRequest::pair(N_USERS as u32, 0)).unwrap_err();
    assert!(matches!(err, RequestError::UnknownUser { user: 8, n_users: N_USERS }), "{err}");

    let err = server.score(&ScoreRequest::pair(0, N_ITEMS as u32)).unwrap_err();
    assert!(matches!(err, RequestError::UnknownItem { item: 12, n_items: N_ITEMS }), "{err}");

    let err = server.top_n(&TopNRequest::new(99, 3)).unwrap_err();
    assert!(matches!(err, RequestError::UnknownUser { user: 99, .. }), "{err}");

    let err = server.top_n(&TopNRequest::new(0, 3).candidates(vec![0, 77])).unwrap_err();
    assert!(matches!(err, RequestError::UnknownItem { item: 77, .. }), "{err}");

    let err = server.top_n(&TopNRequest::new(0, 3).exclude(vec![400])).unwrap_err();
    assert!(matches!(err, RequestError::UnknownItem { item: 400, .. }), "{err}");

    // A snapshot without a catalog answers feature requests only.
    let mut no_catalog = snapshot(1);
    no_catalog.catalog = None;
    let server = ModelServer::new(no_catalog).expect("catalog is optional");
    assert!(server.score(&ScoreRequest::feats(vec![1])).is_ok());
    assert!(matches!(server.score(&ScoreRequest::pair(0, 0)), Err(RequestError::MissingCatalog)));
    assert!(matches!(server.top_n(&TopNRequest::new(0, 3)), Err(RequestError::MissingCatalog)));

    // Malformed sub-requests fail individually inside a batch.
    let resp = server.batch(&BatchRequest::new(vec![
        Request::Score(ScoreRequest::feats(vec![0])),
        Request::Score(ScoreRequest::pair(0, 0)),
    ]));
    assert!(resp.value[0].is_ok());
    assert!(matches!(resp.value[1], Err(RequestError::MissingCatalog)));
}

#[test]
fn cold_start_requests_resolve_named_side_features() {
    // user (8), gender (2, user attr), item (12).
    let schema = Schema::from_specs(&[
        ("user", N_USERS, FieldKind::User),
        ("gender", 2, FieldKind::UserAttr),
        ("item", N_ITEMS, FieldKind::Item),
    ]);
    let n = schema.total_dim();
    // Linear weights = feature index, so scores decode which features
    // were active: score = Σ active feature indices.
    let w: Vec<f64> = (0..n).map(|f| f as f64).collect();
    let frozen = FrozenModel::from_parts(0.0, w, Matrix::zeros(n, 3), SecondOrder::Dot);
    let item_off = (N_USERS + 2) as u32;
    let catalog = Catalog::new(
        vec![2],
        (0..N_USERS as u32).map(|u| vec![u, N_USERS as u32, item_off]).collect(),
        (0..N_ITEMS as u32).map(|i| vec![item_off + i]).collect(),
    );
    let server =
        ModelServer::new(ModelSnapshot { schema, frozen, catalog: Some(catalog), seen: None, index: None })
            .expect("consistent snapshot");

    // Cold user with gender=1 scoring item 4: active features are the
    // item one-hot and gender one-hot — no user id at all.
    let resp = server
        .score(&ScoreRequest::cold(4, &[("gender", 1)]))
        .expect("valid cold request");
    assert_eq!(resp.value, (item_off + 4) as f64 + (N_USERS + 1) as f64);

    // Validation catches every malformed shape as a typed error.
    let err = server.score(&ScoreRequest::cold(4, &[("age", 1)])).unwrap_err();
    assert!(matches!(err, RequestError::UnknownField { .. }), "{err}");
    let err = server.score(&ScoreRequest::cold(4, &[("gender", 2)])).unwrap_err();
    assert!(matches!(err, RequestError::ValueOutOfRange { value: 2, cardinality: 2, .. }), "{err}");
    let err = server
        .score(&ScoreRequest::cold(4, &[("gender", 0), ("gender", 1)]))
        .unwrap_err();
    assert!(matches!(err, RequestError::DuplicateField { .. }), "{err}");
    let err = server.score(&ScoreRequest::cold(4, &[("item", 0)])).unwrap_err();
    assert!(matches!(err, RequestError::ItemSideField { .. }), "{err}");
    let err = server.score(&ScoreRequest::cold(N_ITEMS as u32, &[("gender", 0)])).unwrap_err();
    assert!(matches!(err, RequestError::UnknownItem { .. }), "{err}");
}

#[test]
fn topn_excludes_seen_items_by_default_with_an_opt_out() {
    let mut snap = snapshot(1);
    // User 2 saw items 1, 3, 5 during training.
    let mut per_user = vec![Vec::new(); N_USERS];
    per_user[2] = vec![5, 1, 3];
    snap.seen = Some(SeenItems::new(per_user));
    let server = ModelServer::new(snap).expect("consistent snapshot");

    let ranked = server.top_n(&TopNRequest::new(2, N_ITEMS)).expect("valid request").value;
    let items: Vec<u32> = ranked.iter().map(|&(i, _)| i).collect();
    assert_eq!(ranked.len(), N_ITEMS - 3);
    assert!(items.iter().all(|i| ![1, 3, 5].contains(i)), "seen items must be excluded: {items:?}");

    // Opt out: the full catalogue again.
    let all = server.top_n(&TopNRequest::new(2, N_ITEMS).include_seen()).unwrap().value;
    assert_eq!(all.len(), N_ITEMS);

    // Explicit exclusions compose with the seen set.
    let ranked = server
        .top_n(&TopNRequest::new(2, N_ITEMS).exclude(vec![0, 7]))
        .expect("valid request")
        .value;
    let items: Vec<u32> = ranked.iter().map(|&(i, _)| i).collect();
    assert_eq!(ranked.len(), N_ITEMS - 5);
    assert!(items.iter().all(|i| ![0, 1, 3, 5, 7].contains(i)), "{items:?}");

    // Candidate subsets are filtered the same way, preserving request
    // order before the sort.
    let ranked = server
        .candidate_scores(&TopNRequest::new(2, N_ITEMS).candidates(vec![9, 3, 0]))
        .expect("valid request")
        .value;
    assert_eq!(ranked.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![9, 0], "3 is seen");

    // Other users have no seen items: nothing is excluded for them.
    let other = server.top_n(&TopNRequest::new(0, N_ITEMS)).unwrap().value;
    assert_eq!(other.len(), N_ITEMS);
}
