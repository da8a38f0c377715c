//! Serving-side feature tables: the [`Catalog`] that turns `(user,
//! item)` ids into one-hot feature vectors, and the [`SeenItems`] sets
//! behind default seen-item exclusion in top-n requests.

use gmlfm_data::{Dataset, FieldMask};
use serde::json::{self, first, required, Reader, Typed};
use serde::{Deserialize, Serialize};

/// The item/user feature tables a ranking request needs: per-user context
/// templates and per-item candidate feature groups, mask-resolved into
/// global one-hot indices.
///
/// A catalog is what turns a frozen model into a *servable* recommender:
/// `top_n(user)` needs to enumerate every item's feature group (item id +
/// item attributes) and splice it into the user's template — exactly the
/// [`gmlfm_serve::TopNRanker`] workflow — without the training-side
/// [`Dataset`] in memory.
///
/// The item table is stored as one flat row-major `u32` array
/// (`n_items × item_slots.len()`): the block scan reads one item group
/// per candidate, and a flat table makes that a sequential slice read
/// instead of a pointer chase through a `Vec<Vec<u32>>`. The JSON wire
/// format keeps the original array-of-arrays shape (hand-written impls
/// below, which read it straight into the flat table), so artifacts are
/// unaffected by the layout.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Template positions that carry item-side values.
    item_slots: Vec<usize>,
    /// Per-user full feature template (item slots hold item 0's values
    /// until spliced).
    user_templates: Vec<Vec<u32>>,
    /// Per-item values for the item slots, in `item_slots` order; flat
    /// row-major, `item_slots.len()` values per item.
    item_feats: Vec<u32>,
    /// Item count — not derivable from `item_feats` when there are no
    /// item slots (rows are zero-width).
    n_items: usize,
    /// Per-slot `(min, max)` feature id over `item_feats`, computed once
    /// at assembly: the block scan asks on every ranking request.
    slot_ranges: Option<Vec<(u32, u32)>>,
}

impl Catalog {
    /// Assembles a catalog from raw tables (custom pipelines, tests).
    /// `user_templates` must all share one width, `item_slots` must index
    /// into that width, and every `item_feats` group must have one value
    /// per item slot.
    ///
    /// # Panics
    /// Panics when the tables are inconsistent with each other.
    pub fn new(item_slots: Vec<usize>, user_templates: Vec<Vec<u32>>, item_feats: Vec<Vec<u32>>) -> Self {
        if let Some(first) = user_templates.first() {
            let width = first.len();
            assert!(
                user_templates.iter().all(|t| t.len() == width),
                "Catalog: user templates differ in width"
            );
            assert!(item_slots.iter().all(|&s| s < width), "Catalog: item slot outside the template");
        }
        assert!(
            item_feats.iter().all(|g| g.len() == item_slots.len()),
            "Catalog: item group width != item slot count"
        );
        let n_items = item_feats.len();
        let item_feats = item_feats.into_iter().flatten().collect();
        Self::assemble(item_slots, user_templates, item_feats, n_items)
    }

    /// The one place a catalog is put together: `item_feats` is the flat
    /// row-major table, `item_slots.len()` values per item.
    fn assemble(
        item_slots: Vec<usize>,
        user_templates: Vec<Vec<u32>>,
        item_feats: Vec<u32>,
        n_items: usize,
    ) -> Self {
        let slot_ranges = scan_slot_ranges(&item_feats, item_slots.len(), n_items);
        Self { item_slots, user_templates, item_feats, n_items, slot_ranges }
    }

    /// Extracts the serving catalog from a dataset under an attribute
    /// mask.
    pub fn from_dataset(dataset: &Dataset, mask: &FieldMask) -> Self {
        let item_slots = dataset.item_side_slots(mask);
        let user_templates: Vec<Vec<u32>> =
            (0..dataset.n_users).map(|u| dataset.feats(u as u32, 0, mask)).collect();
        let mut item_feats = Vec::with_capacity(dataset.n_items * item_slots.len());
        for i in 0..dataset.n_items {
            let full = dataset.feats(0, i as u32, mask);
            item_feats.extend(item_slots.iter().map(|&s| full[s]));
        }
        Self::assemble(item_slots, user_templates, item_feats, dataset.n_items)
    }

    /// Number of users in the catalog.
    pub fn n_users(&self) -> usize {
        self.user_templates.len()
    }

    /// Number of items in the catalog.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Template positions that vary per candidate item.
    pub fn item_slots(&self) -> &[usize] {
        &self.item_slots
    }

    /// The user's full feature template (item slots filled with item 0).
    pub fn template(&self, user: u32) -> Option<&[u32]> {
        self.user_templates.get(user as usize).map(Vec::as_slice)
    }

    /// The item's feature-group values, in [`Catalog::item_slots`] order.
    pub fn item_features(&self, item: u32) -> Option<&[u32]> {
        let (i, w) = (item as usize, self.item_slots.len());
        (i < self.n_items).then(|| &self.item_feats[i * w..(i + 1) * w])
    }

    /// The full feature vector for a `(user, item)` pair — the user's
    /// template with the item group spliced in.
    pub fn feats(&self, user: u32, item: u32) -> Option<Vec<u32>> {
        Some(self.splice(self.template(user)?, self.item_features(item)?))
    }

    /// Splices an item feature group (in [`Catalog::item_slots`] order)
    /// into a resolved user template. Infallible by construction: both
    /// slices came out of this catalog's own tables, so the slot indices
    /// are in range for the template width.
    pub fn splice(&self, template: &[u32], item_feats: &[u32]) -> Vec<u32> {
        let mut out = template.to_vec();
        for (&slot, &f) in self.item_slots.iter().zip(item_feats) {
            out[slot] = f;
        }
        out
    }

    /// The largest feature index any template or item group carries
    /// (`None` for an empty catalog) — what server construction checks
    /// against the model's one-hot dimension.
    pub fn max_feature(&self) -> Option<u32> {
        self.user_templates
            .iter()
            .flat_map(|row| row.iter())
            .chain(&self.item_feats)
            .copied()
            .max()
    }
}

/// The item-table view the IVF index builds from and scans with
/// ([`gmlfm_serve::IvfIndex`]).
impl gmlfm_serve::ItemFeatureSource for Catalog {
    fn item_count(&self) -> usize {
        self.n_items()
    }

    fn features_of(&self, item: u32) -> &[u32] {
        let (i, w) = (item as usize, self.item_slots.len());
        &self.item_feats[i * w..(i + 1) * w]
    }

    /// The ranges stored when the catalog was assembled — no scan.
    fn slot_ranges(&self) -> Option<Vec<(u32, u32)>> {
        self.slot_ranges.clone()
    }
}

/// Per-slot `(min, max)` over a flat `n_items × w` item table: one pass,
/// rectangular by construction so no ragged check is needed. `None` for
/// an empty catalogue, no ranges for zero-width groups.
fn scan_slot_ranges(item_feats: &[u32], w: usize, n_items: usize) -> Option<Vec<(u32, u32)>> {
    if n_items == 0 {
        return None;
    }
    if w == 0 {
        return Some(Vec::new());
    }
    let mut groups = item_feats.chunks_exact(w);
    let mut ranges: Vec<(u32, u32)> = groups.next()?.iter().map(|&f| (f, f)).collect();
    for group in groups {
        for (r, &f) in ranges.iter_mut().zip(group) {
            r.0 = r.0.min(f);
            r.1 = r.1.max(f);
        }
    }
    Some(ranges)
}

/// Wire-compatible with the former derived impl over nested
/// `Vec<Vec<u32>>` item groups: the flat table is written as an array of
/// per-item arrays, so artifacts written before and after the
/// flat-layout change are byte-identical.
impl Serialize for Catalog {
    fn serialize_json(&self, out: &mut String) {
        let w = self.item_slots.len();
        let groups: Vec<&[u32]> = (0..self.n_items).map(|i| &self.item_feats[i * w..(i + 1) * w]).collect();
        json::write_object(
            out,
            &[
                ("item_slots", &self.item_slots),
                ("user_templates", &self.user_templates),
                ("item_feats", &groups),
            ],
        );
    }
}

impl Deserialize<'_> for Catalog {
    fn deserialize(r: &mut Reader<'_>) -> Result<Typed<Self>, json::Error> {
        let (mut item_slots, mut user_templates, mut item_feats) = (None, None, None);
        let read = json::object(r, "item_slots", |key, r| match key {
            "item_slots" => first(&mut item_slots, r),
            "user_templates" => first(&mut user_templates, r),
            "item_feats" => first(&mut item_feats, r),
            _ => r.skip(),
        })?;
        Ok(read.and_then(|()| {
            let item_slots: Vec<usize> = required(&mut item_slots, "item_slots")?;
            let user_templates = required(&mut user_templates, "user_templates")?;
            let ItemGroups { flat, n_items, width } = required(&mut item_feats, "item_feats")?;
            let w = item_slots.len();
            if n_items > 0 && width != Some(w) {
                return Err(json::Error::new(format!(
                    "catalog item groups do not all have {w} values (one per item slot)"
                )));
            }
            Ok(Self::assemble(item_slots, user_templates, flat, n_items))
        }))
    }
}

/// `item_feats` as it arrives: every per-item array appended to one flat
/// table, so a catalogue costs no allocation per item.
struct ItemGroups {
    flat: Vec<u32>,
    n_items: usize,
    /// The values per item, `None` once two groups disagree.
    width: Option<usize>,
}

impl Deserialize<'_> for ItemGroups {
    fn deserialize(r: &mut Reader<'_>) -> Result<Typed<Self>, json::Error> {
        let mut groups = ItemGroups { flat: Vec::new(), n_items: 0, width: None };
        let read = json::elements(r, |r| {
            let start = groups.flat.len();
            let group = json::elements(r, |r| Ok(u32::deserialize(r)?.map(|f| groups.flat.push(f))))?;
            let width = groups.flat.len() - start;
            groups.width = (groups.n_items == 0 || groups.width == Some(width)).then_some(width);
            groups.n_items += 1;
            Ok(group)
        })?;
        Ok(read.map(|()| groups))
    }
}

/// Per-user sets of items interacted with during training, backing the
/// seen-item exclusion that [`crate::TopNRequest`] applies by default.
///
/// Stored as one sorted, deduplicated item list per user; membership is a
/// binary search. Users outside the recorded range simply have an empty
/// seen set, so a catalog larger than the training population degrades
/// gracefully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeenItems {
    /// Sorted, deduplicated seen items per user id.
    per_user: Vec<Vec<u32>>,
}

impl Serialize for SeenItems {
    fn serialize_json(&self, out: &mut String) {
        json::write_object(out, &[("per_user", &self.per_user)]);
    }
}

/// Built through [`SeenItems::new`]: membership binary-searches each
/// list, so a hand-edited or corrupted artifact's lists are sorted and
/// deduplicated on the way in, like a trained one's.
impl Deserialize<'_> for SeenItems {
    fn deserialize(r: &mut Reader<'_>) -> Result<Typed<Self>, json::Error> {
        let mut per_user = None;
        let read = json::object(r, "per_user", |key, r| match key {
            "per_user" => first(&mut per_user, r),
            _ => r.skip(),
        })?;
        Ok(read.and_then(|()| required(&mut per_user, "per_user")).map(SeenItems::new))
    }
}

impl SeenItems {
    /// Builds the seen sets, sorting and deduplicating each user's list.
    pub fn new(mut per_user: Vec<Vec<u32>>) -> Self {
        for items in &mut per_user {
            items.sort_unstable();
            items.dedup();
        }
        Self { per_user }
    }

    /// Number of users with a recorded (possibly empty) seen set.
    pub fn n_users(&self) -> usize {
        self.per_user.len()
    }

    /// Total number of `(user, item)` seen entries.
    pub fn total(&self) -> usize {
        self.per_user.iter().map(Vec::len).sum()
    }

    /// The user's seen items, sorted ascending (empty when the user is
    /// outside the recorded range).
    pub fn items(&self, user: u32) -> &[u32] {
        self.per_user.get(user as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The largest item id any user's seen set names (`None` when all
    /// are empty) — what server construction checks against the
    /// catalog's item count.
    pub(crate) fn max_item(&self) -> Option<u32> {
        self.per_user.iter().flatten().copied().max()
    }

    /// Whether `user` interacted with `item` during training.
    pub fn contains(&self, user: u32, item: u32) -> bool {
        self.items(user).binary_search(&item).is_ok()
    }

    /// Records one `(user, item)` interaction in place, growing the
    /// per-user table as needed and keeping the user's list sorted and
    /// deduplicated. Returns whether the entry was newly inserted.
    ///
    /// Deterministic: the resulting table depends only on the *set* of
    /// recorded entries, never on insertion order — `insert`ing
    /// incrementally is bitwise-equal to rebuilding via
    /// [`SeenItems::new`] from the union (proptest-pinned).
    pub fn insert(&mut self, user: u32, item: u32) -> bool {
        let idx = user as usize;
        if idx >= self.per_user.len() {
            self.per_user.resize_with(idx + 1, Vec::new);
        }
        let items = &mut self.per_user[idx];
        match items.binary_search(&item) {
            Ok(_) => false,
            Err(pos) => {
                items.insert(pos, item);
                true
            }
        }
    }

    /// Merges `items` (any order, duplicates allowed) into one user's
    /// seen set in place, preserving the sorted/deduplicated invariant.
    pub fn merge_user(&mut self, user: u32, items: &[u32]) {
        if items.is_empty() {
            return;
        }
        let idx = user as usize;
        if idx >= self.per_user.len() {
            self.per_user.resize_with(idx + 1, Vec::new);
        }
        let row = &mut self.per_user[idx];
        row.extend_from_slice(items);
        row.sort_unstable();
        row.dedup();
    }

    /// Merges every entry of `other` into `self` in place — the
    /// set-union of the two tables, sorted and deduplicated per user.
    pub fn merge(&mut self, other: &SeenItems) {
        for (user, items) in other.per_user.iter().enumerate() {
            self.merge_user(user as u32, items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seen_items_sorts_dedups_and_answers_membership() {
        let seen = SeenItems::new(vec![vec![5, 1, 5, 3], vec![]]);
        assert_eq!(seen.n_users(), 2);
        assert_eq!(seen.items(0), &[1, 3, 5]);
        assert_eq!(seen.total(), 3);
        assert!(seen.contains(0, 3));
        assert!(!seen.contains(0, 2));
        assert!(!seen.contains(1, 3));
        // Out-of-range users have an empty seen set, not a panic.
        assert_eq!(seen.items(9), &[] as &[u32]);
        assert!(!seen.contains(9, 0));
    }

    #[test]
    fn insert_and_merge_keep_the_sorted_dedup_invariant() {
        let mut seen = SeenItems::new(vec![vec![2]]);
        // New entry past the recorded range grows the table.
        assert!(seen.insert(2, 7));
        assert_eq!(seen.n_users(), 3);
        assert_eq!(seen.items(1), &[] as &[u32]);
        // Re-inserting is a no-op, not a duplicate.
        assert!(!seen.insert(2, 7));
        assert!(seen.insert(0, 1));
        assert_eq!(seen.items(0), &[1, 2]);

        let mut incremental = seen.clone();
        incremental.merge_user(0, &[9, 1, 9, 0]);
        assert_eq!(incremental.items(0), &[0, 1, 2, 9]);

        let other = SeenItems::new(vec![vec![9, 0, 9], vec![4]]);
        seen.merge(&other);
        assert_eq!(seen.items(0), &[0, 1, 2, 9]);
        assert_eq!(seen.items(1), &[4]);
        assert_eq!(seen.items(2), &[7]);
    }

    #[test]
    fn hand_built_catalog_splices_like_the_dataset_one() {
        // user field (3 users, offset 0), item field (4 items, offset 3).
        let catalog = Catalog::new(
            vec![1],
            (0..3u32).map(|u| vec![u, 3]).collect(),
            (0..4u32).map(|i| vec![3 + i]).collect(),
        );
        assert_eq!(catalog.n_users(), 3);
        assert_eq!(catalog.n_items(), 4);
        assert_eq!(catalog.feats(2, 3), Some(vec![2, 6]));
        assert_eq!(catalog.feats(3, 0), None);
        assert_eq!(catalog.feats(0, 4), None);
        assert_eq!(catalog.max_feature(), Some(6));
    }

    /// The stored slot ranges are the trait's default full scan, however
    /// the catalog was assembled.
    #[test]
    fn stored_slot_ranges_equal_the_full_scan_for_every_constructor() {
        use gmlfm_serve::ItemFeatureSource;

        /// The same item table without the override.
        struct Scanned<'a>(&'a Catalog);
        impl ItemFeatureSource for Scanned<'_> {
            fn item_count(&self) -> usize {
                self.0.n_items()
            }
            fn features_of(&self, item: u32) -> &[u32] {
                self.0.features_of(item)
            }
        }

        let dataset = gmlfm_data::generate_scale(&gmlfm_data::ScaleConfig::new(5, 40, 11));
        let from_dataset = Catalog::from_dataset(&dataset, &FieldMask::all(&dataset.schema));
        let mut wire = String::new();
        from_dataset.serialize_json(&mut wire);
        let round_trip: Catalog = json::from_str(&wire).expect("a catalog");
        let hand_built = Catalog::new(
            vec![2, 0],
            vec![vec![0, 50, 0]; 2],
            vec![vec![9, 30], vec![7, 31], vec![9, 12], vec![8, 44]],
        );
        let empty = Catalog::new(vec![1], vec![vec![0, 0]], vec![]);
        let no_slots = Catalog::new(vec![], vec![vec![0, 1]], vec![vec![], vec![]]);
        for catalog in [&from_dataset, &round_trip, &hand_built, &empty, &no_slots] {
            assert_eq!(catalog.slot_ranges(), Scanned(catalog).slot_ranges());
        }
        assert_eq!(from_dataset.slot_ranges().map(|r| r.len()), Some(3));
        assert_eq!(round_trip.slot_ranges(), from_dataset.slot_ranges());
        assert_eq!(hand_built.slot_ranges(), Some(vec![(7, 9), (12, 44)]));
        assert_eq!(empty.slot_ranges(), None);
        assert_eq!(no_slots.slot_ranges(), Some(vec![]));
    }

    #[test]
    #[should_panic(expected = "item slot outside")]
    fn catalog_rejects_out_of_template_slots() {
        let _ = Catalog::new(vec![2], vec![vec![0, 1]], vec![vec![1]]);
    }
}
