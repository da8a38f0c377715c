//! The per-generation group-term memo as the server installs it:
//! [`ModelServer::new`] and [`ModelServer::swap`] attach
//! [`FrozenModel::with_group_memo`] to every snapshot that carries a
//! catalog, and a reply computed through it is, bit for bit, the scan
//! of the model the caller handed in.

use gmlfm_data::{generate_scale, FieldMask, ScaleConfig};
use gmlfm_serve::{scan_top_n, FrozenModel};
use gmlfm_service::{Catalog, ModelServer, ModelSnapshot, SeenItems, TopNRequest};

const N_USERS: usize = 6;
const N_ITEMS: usize = 300;

/// A `generate_scale` world (three-feature item groups) under a
/// synthetic metric model drawn from `model_seed`; the caller keeps the
/// un-memoised model the snapshot was built from.
fn world(model_seed: u64) -> (ModelSnapshot, FrozenModel) {
    let dataset = generate_scale(&ScaleConfig::new(N_USERS, N_ITEMS, 5));
    let catalog = Catalog::from_dataset(&dataset, &FieldMask::all(&dataset.schema));
    let mut per_user = vec![Vec::new(); N_USERS];
    for it in &dataset.interactions {
        per_user[it.user as usize].push(it.item);
    }
    let frozen = FrozenModel::synthetic_metric(dataset.schema.total_dim(), 8, model_seed);
    let snap = ModelSnapshot {
        schema: dataset.schema.clone(),
        frozen: frozen.clone(),
        catalog: Some(catalog),
        seen: Some(SeenItems::new(per_user)),
        index: None,
    };
    (snap, frozen)
}

/// The memo has no accessor — it is not surface — so its presence is
/// read off the model's `Debug` summary.
fn carries_memo(frozen: &FrozenModel) -> bool {
    format!("{frozen:?}").contains("group_memo: Some(GroupMemo {")
}

/// Every user's reply from the serving generation equals the list scan
/// of `plain` — the model as it was before install — over the same
/// survivors: item ids and `f64::to_bits`.
fn assert_served_bits_are_the_plain_scan(server: &ModelServer, plain: &FrozenModel) {
    assert!(!carries_memo(plain));
    let (_, snap) = server.snapshot();
    assert!(carries_memo(&snap.frozen), "a snapshot with a catalog is memoised at install");
    let (catalog, seen) = (snap.catalog.as_ref().expect("catalog"), snap.seen.as_ref().expect("seen"));
    for user in 0..N_USERS as u32 {
        let survivors: Vec<u32> = (0..N_ITEMS as u32).filter(|&i| !seen.contains(user, i)).collect();
        let template = catalog.template(user).expect("user in range");
        let want = scan_top_n(plain, catalog, template, catalog.item_slots(), &survivors, 10);
        let got = server.top_n(&TopNRequest::new(user, 10)).expect("well-formed").value;
        let bits = |ranked: &[(u32, f64)]| ranked.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "user {user}");
    }
}

#[test]
fn served_rankings_after_new_and_after_swap_are_bitwise_the_unmemoised_scan() {
    let (first, first_plain) = world(17);
    let server = ModelServer::new(first).expect("consistent snapshot");
    assert_served_bits_are_the_plain_scan(&server, &first_plain);

    let (second, second_plain) = world(18);
    assert_eq!(server.swap(second).expect("same schema"), 2);
    assert_served_bits_are_the_plain_scan(&server, &second_plain);
}

#[test]
fn only_a_snapshot_with_a_catalog_carries_the_memo() {
    let (snap, _) = world(17);
    let bare = ModelSnapshot { catalog: None, seen: None, ..snap.clone() };
    let server = ModelServer::new(bare.clone()).expect("consistent snapshot");
    assert!(!carries_memo(&server.snapshot().1.frozen));
    server.swap(snap).expect("same schema");
    assert!(carries_memo(&server.snapshot().1.frozen));
    server.swap(bare).expect("same schema");
    assert!(!carries_memo(&server.snapshot().1.frozen));
}
