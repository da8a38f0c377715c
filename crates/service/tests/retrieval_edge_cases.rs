//! Edge cases of the exclusion ↔ retrieval interaction: every scenario
//! runs through the sharded bounded-heap path (`ModelServer::top_n` /
//! `exec::execute_topn`) and must agree item-for-item, scores bitwise,
//! with the shared full sort over the survivors this file computes from
//! the request itself.
//!
//! Filtering runs **pre-heap** (the exclusion set is applied before
//! selection), so excluded and seen items never occupy heap slots —
//! which is what makes "all candidates excluded" an empty result rather
//! than a padded or partial one.

use gmlfm_data::{FieldKind, Schema};
use gmlfm_par::Parallelism;
use gmlfm_serve::FrozenModel;
use gmlfm_service::{Catalog, ModelServer, ModelSnapshot, SeenItems, TopNRequest};
use top_n_reference::full_sort_top_n;

#[path = "../../serve/tests/common/top_n_reference.rs"]
mod top_n_reference;

const N_USERS: usize = 5;
const N_ITEMS: usize = 20;
const DIM: usize = N_USERS + N_ITEMS;

fn server_with_seen(seen: SeenItems) -> ModelServer {
    // Weighted squared-Euclidean metric — the decoupled serving hot path.
    let frozen = FrozenModel::synthetic_metric(DIM, 4, 41);
    let schema =
        Schema::from_specs(&[("user", N_USERS, FieldKind::User), ("item", N_ITEMS, FieldKind::Item)]);
    let catalog = Catalog::new(
        vec![1],
        (0..N_USERS as u32).map(|u| vec![u, N_USERS as u32]).collect(),
        (0..N_ITEMS as u32).map(|i| vec![N_USERS as u32 + i]).collect(),
    );
    ModelServer::new(ModelSnapshot { schema, frozen, catalog: Some(catalog), seen: Some(seen), index: None })
        .expect("consistent snapshot")
}

/// User 0 has seen everything; user 1 half the catalogue; the rest
/// nothing.
fn seen_fixture() -> SeenItems {
    let mut per_user = vec![(0..N_ITEMS as u32).collect::<Vec<_>>()];
    per_user.push((0..N_ITEMS as u32 / 2).collect());
    per_user.resize(N_USERS, Vec::new());
    SeenItems::new(per_user)
}

/// The shared full sort over the request's survivors: its candidates
/// (or the whole catalogue) minus its exclusions and, unless opted out,
/// the user's seen items.
fn full_sort_reference(server: &ModelServer, req: &TopNRequest) -> Vec<(u32, f64)> {
    let (_, snap) = server.snapshot();
    let (catalog, seen) = (snap.catalog.as_ref().expect("catalog"), snap.seen.as_ref().expect("seen"));
    let keep = |i: &u32| !req.exclude.contains(i) && (!req.exclude_seen || !seen.contains(req.user, *i));
    let all: Vec<u32> = (0..N_ITEMS as u32).collect();
    let survivors = req.candidates.as_ref().unwrap_or(&all).iter().copied().filter(keep);
    let template = catalog.template(req.user).expect("user in catalog");
    full_sort_top_n(&snap.frozen, catalog, template, catalog.item_slots(), survivors, req.n)
}

fn assert_paths_agree(server: &ModelServer, req: &TopNRequest) -> Vec<(u32, f64)> {
    let reference = full_sort_reference(server, req);
    for threads in [1usize, 2, 5] {
        let mut req = req.clone();
        req.par = Some(Parallelism::threads(threads));
        let heap = server.top_n(&req).expect("well-formed request").value;
        assert_eq!(heap.len(), reference.len(), "threads={threads}");
        for (h, r) in heap.iter().zip(&reference) {
            assert_eq!(h.0, r.0, "item order drifted at threads={threads}");
            assert_eq!(h.1.to_bits(), r.1.to_bits(), "score drifted at threads={threads}");
        }
    }
    reference
}

#[test]
fn all_seen_user_gets_an_empty_ranking_not_a_panic() {
    let server = server_with_seen(seen_fixture());
    let got = assert_paths_agree(&server, &TopNRequest::new(0, 10));
    assert!(got.is_empty(), "user 0 has seen the whole catalogue");
    // The opt-out restores the full catalogue for the same user.
    let got = assert_paths_agree(&server, &TopNRequest::new(0, 10).include_seen());
    assert_eq!(got.len(), 10);
}

#[test]
fn exclusions_covering_all_candidates_yield_empty() {
    let server = server_with_seen(seen_fixture());
    let candidates: Vec<u32> = vec![3, 7, 11];
    let req = TopNRequest::new(2, 5).candidates(candidates.clone()).exclude(candidates);
    let got = assert_paths_agree(&server, &req);
    assert!(got.is_empty(), "exclusions ∩ candidates = candidates");
}

#[test]
fn duplicate_candidates_rank_as_duplicates_on_both_paths() {
    let server = server_with_seen(seen_fixture());
    let req = TopNRequest::new(3, 6).candidates(vec![4, 4, 9, 4, 1, 9, 15]);
    let got = assert_paths_agree(&server, &req);
    assert_eq!(got.len(), 6);
    // Duplicates of the best item occupy adjacent slots on both paths.
    let best = got[0].0;
    let copies = got.iter().filter(|&&(i, _)| i == best).count();
    assert_eq!(copies, [4u32, 4, 9, 4, 1, 9, 15].iter().filter(|&&i| i == best).count());
}

#[test]
fn include_seen_opt_out_and_partial_seen_interact_correctly() {
    let server = server_with_seen(seen_fixture());
    // User 1 has seen the lower half of the catalogue.
    let excluded = assert_paths_agree(&server, &TopNRequest::new(1, N_ITEMS));
    assert_eq!(excluded.len(), N_ITEMS / 2);
    assert!(excluded.iter().all(|&(i, _)| i >= N_ITEMS as u32 / 2), "seen items filtered pre-heap");
    let all = assert_paths_agree(&server, &TopNRequest::new(1, N_ITEMS).include_seen());
    assert_eq!(all.len(), N_ITEMS);
    // Explicit exclusions compose with seen-item filtering.
    let req = TopNRequest::new(1, N_ITEMS).exclude(vec![12, 17]);
    let got = assert_paths_agree(&server, &req);
    assert_eq!(got.len(), N_ITEMS / 2 - 2);
    assert!(got.iter().all(|&(i, _)| i != 12 && i != 17));
}

#[test]
fn snapshot_without_seen_sets_excludes_nothing() {
    let server = server_with_seen(SeenItems::new(Vec::new()));
    let got = assert_paths_agree(&server, &TopNRequest::new(0, N_ITEMS));
    assert_eq!(got.len(), N_ITEMS, "no seen sets -> nothing excluded");
}

#[test]
fn n_zero_and_n_beyond_catalog_are_complete_not_partial() {
    let server = server_with_seen(seen_fixture());
    let empty = assert_paths_agree(&server, &TopNRequest::new(2, 0));
    assert!(empty.is_empty(), "n = 0 is a well-formed empty ranking");
    let all = assert_paths_agree(&server, &TopNRequest::new(2, N_ITEMS + 100));
    assert_eq!(all.len(), N_ITEMS, "n beyond the catalogue returns every candidate");
}
