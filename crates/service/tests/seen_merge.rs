//! Property tests pinning the determinism contract of [`SeenItems`]'
//! in-place mutation API: the resulting table depends only on the *set*
//! of recorded entries — never on insertion order, duplication, or
//! whether entries arrived via `insert`, `merge_user`, `merge`, or an
//! up-front `SeenItems::new` rebuild. The online loop leans on this: the
//! serving overlay folds events one at a time while retrains merge whole
//! tables, and both must converge on bitwise-identical seen sets.

use gmlfm_data::{FieldKind, Schema};
use gmlfm_serve::FrozenModel;
use gmlfm_service::{Catalog, ModelServer, ModelSnapshot, SeenItems};
use proptest::collection::vec;
use proptest::prelude::*;

/// Arbitrary entry stream: small user/item ranges so collisions (the
/// interesting case) are common.
fn arb_entries() -> impl Strategy<Value = Vec<(u32, u32)>> {
    vec((0u32..24, 0u32..48), 0..200)
}

/// Arbitrary per-user table rows.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<u32>>> {
    vec(vec(0u32..48, 0..16), 0..24)
}

/// The ground-truth rebuild: one row per user up to the largest user id
/// in `entries`, built in one shot by `SeenItems::new`.
fn rebuild(entries: &[(u32, u32)]) -> SeenItems {
    let len = entries.iter().map(|&(u, _)| u as usize + 1).max().unwrap_or(0);
    let mut rows = vec![Vec::new(); len];
    for &(user, item) in entries {
        rows[user as usize].push(item);
    }
    SeenItems::new(rows)
}

proptest! {
    /// `insert`ing incrementally — in any order, duplicates and all —
    /// lands on the exact table `SeenItems::new` builds from scratch.
    #[test]
    fn incremental_insert_is_bitwise_equal_to_rebuild(entries in arb_entries()) {
        let mut forward = SeenItems::new(Vec::new());
        let mut tracked = std::collections::BTreeSet::new();
        for &(user, item) in &entries {
            let fresh = forward.insert(user, item);
            prop_assert_eq!(fresh, tracked.insert((user, item)), "insert reports freshness");
        }
        let mut reversed = SeenItems::new(Vec::new());
        for &(user, item) in entries.iter().rev() {
            reversed.insert(user, item);
        }
        let scratch = rebuild(&entries);
        prop_assert_eq!(&forward, &scratch);
        prop_assert_eq!(&reversed, &scratch);
    }

    /// `merge` is exactly the entry-by-entry `insert` of the other
    /// table — whole-table folding (retrain publish) and event-by-event
    /// folding (the live overlay) cannot drift apart.
    #[test]
    fn merge_equals_inserting_every_entry(left in arb_rows(), right in arb_rows()) {
        let mut merged = SeenItems::new(left.clone());
        let other = SeenItems::new(right);
        merged.merge(&other);

        let mut inserted = SeenItems::new(left);
        for user in 0..other.n_users() as u32 {
            for &item in other.items(user) {
                inserted.insert(user, item);
            }
        }
        prop_assert_eq!(&merged, &inserted);
    }

    /// `merge` is idempotent and commutes up to the recorded-range
    /// padding: merging A into B and B into A agree on every user's
    /// items, and re-merging changes nothing.
    #[test]
    fn merge_is_idempotent_and_item_commutative(left in arb_rows(), right in arb_rows()) {
        let a = SeenItems::new(left);
        let b = SeenItems::new(right);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let users = ab.n_users().max(ba.n_users()) as u32;
        for user in 0..users {
            prop_assert_eq!(ab.items(user), ba.items(user), "user {}", user);
        }

        let mut again = ab.clone();
        again.merge(&b);
        again.merge(&a);
        prop_assert_eq!(&again, &ab);
    }

    /// `merge_user` accepts any order and duplication and always lands
    /// on the sorted, deduplicated row — equal to inserting one by one.
    #[test]
    fn merge_user_normalises_any_input(user in 0u32..24, items in vec(0u32..48, 0..64)) {
        let mut via_merge = SeenItems::new(Vec::new());
        via_merge.merge_user(user, &items);

        let mut via_insert = SeenItems::new(Vec::new());
        for &item in &items {
            via_insert.insert(user, item);
        }
        prop_assert_eq!(&via_merge, &via_insert);

        // The row invariant holds: strictly increasing.
        let row = via_merge.items(user);
        prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row not sorted/deduped: {:?}", row);
    }
}

/// A server over four users and three items, with `seen` as its
/// snapshot's seen sets.
fn server(seen: Option<SeenItems>) -> ModelServer {
    let schema = Schema::from_specs(&[("user", 4, FieldKind::User), ("item", 3, FieldKind::Item)]);
    let catalog =
        Catalog::new(vec![1], (0..4).map(|u| vec![u, 4]).collect(), (0..3).map(|i| vec![4 + i]).collect());
    let frozen = FrozenModel::synthetic_metric(7, 2, 3);
    ModelServer::new(ModelSnapshot { schema, frozen, catalog: Some(catalog), seen, index: None })
        .expect("consistent snapshot")
}

/// The one merge of a snapshot's seen sets with the live overlay, which
/// both a saved artifact and an online round publish: the union, and
/// `None` only when neither side holds an entry.
#[test]
fn seen_with_overlay_is_the_union_and_none_only_when_both_are_empty() {
    let fold = |seen: Option<SeenItems>, fed: &[(u32, u32)]| {
        let server = server(seen);
        for &(user, item) in fed {
            server.record_seen(user, item).expect("in range");
        }
        server.seen_with_overlay(server.snapshot().1)
    };
    assert_eq!(fold(None, &[]), None);
    let snap_seen = SeenItems::new(vec![vec![2], vec![], vec![0, 1]]);
    assert_eq!(fold(Some(snap_seen.clone()), &[]), Some(snap_seen.clone()));
    assert_eq!(fold(None, &[(3, 1), (0, 2)]), Some(SeenItems::new(vec![vec![2], vec![], vec![], vec![1]])));
    assert_eq!(
        fold(Some(snap_seen), &[(2, 2), (0, 2), (1, 0)]),
        Some(SeenItems::new(vec![vec![2], vec![0], vec![0, 1, 2]]))
    );
}
