//! In-memory recommendation dataset: interactions plus attribute tables.

use crate::instance::Instance;
use crate::schema::{FieldKind, FieldMask, Schema};
use std::collections::HashSet;

/// One user-item interaction. `ts` is the position of the interaction in
/// the user's history (0 = oldest); the leave-one-out protocol holds out
/// each user's latest (`max ts`) interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interaction {
    /// User index in `0..n_users`.
    pub user: u32,
    /// Item index in `0..n_items`.
    pub item: u32,
    /// Per-user sequence position.
    pub ts: u32,
}

/// A fully materialised dataset: schema, interactions, and the attribute
/// value of every user-side and item-side field.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (matches the paper's Table 2 rows).
    pub name: String,
    /// The one-hot feature space.
    pub schema: Schema,
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// All positive interactions.
    pub interactions: Vec<Interaction>,
    /// `user_attrs[u][j]` = value of the `j`-th user-attribute field.
    pub user_attrs: Vec<Vec<usize>>,
    /// `item_attrs[i][j]` = value of the `j`-th item-side field.
    pub item_attrs: Vec<Vec<usize>>,
    /// Schema field indices of the user-attribute columns.
    pub user_attr_fields: Vec<usize>,
    /// Schema field indices of the item-side columns.
    pub item_attr_fields: Vec<usize>,
}

/// The statistics reported in the paper's Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// #users.
    pub n_users: usize,
    /// #items.
    pub n_items: usize,
    /// Total one-hot dimensionality (#attribute-dim).
    pub attribute_dim: usize,
    /// #instances (positive interactions).
    pub n_instances: usize,
    /// `1 - instances / (users * items)`.
    pub sparsity: f64,
}

impl Dataset {
    /// Builds the feature indices for a `(user, item)` pair over the
    /// active fields of `mask`, in schema field order.
    pub fn feats(&self, user: u32, item: u32, mask: &FieldMask) -> Vec<u32> {
        let mut out = Vec::with_capacity(mask.n_active());
        self.feats_into(user, item, mask, &mut out);
        out
    }

    /// [`Dataset::feats`] into a caller-owned buffer (cleared first), so
    /// candidate-scoring loops — the frozen top-n protocol scores
    /// hundreds of items per user — reuse one allocation.
    pub fn feats_into(&self, user: u32, item: u32, mask: &FieldMask, out: &mut Vec<u32>) {
        out.clear();
        for (field, f) in self.schema.fields().iter().enumerate() {
            if !mask.is_active(field) {
                continue;
            }
            let value = match f.kind {
                FieldKind::User => user as usize,
                FieldKind::Item => item as usize,
                FieldKind::UserAttr => {
                    let col = self
                        .user_attr_fields
                        .iter()
                        .position(|&x| x == field)
                        .expect("user attr column");
                    self.user_attrs[user as usize][col]
                }
                _ => {
                    let col = self
                        .item_attr_fields
                        .iter()
                        .position(|&x| x == field)
                        .expect("item attr column");
                    self.item_attrs[item as usize][col]
                }
            };
            out.push(self.schema.feature_index(field, value));
        }
    }

    /// Positions (within the active fields of `mask`) that carry
    /// item-side values and therefore change between ranking candidates:
    /// the `item_slots` of a template built by [`Dataset::feats`] under
    /// the same mask.
    pub fn item_side_slots(&self, mask: &FieldMask) -> Vec<usize> {
        self.schema
            .fields()
            .iter()
            .enumerate()
            .filter(|(field, _)| mask.is_active(*field))
            .map(|(_, f)| f.kind)
            .enumerate()
            .filter(|(_, kind)| !matches!(kind, FieldKind::User | FieldKind::UserAttr))
            .map(|(slot, _)| slot)
            .collect()
    }

    /// Instance for `(user, item)` with a label, over all fields.
    pub fn instance(&self, user: u32, item: u32, label: f64) -> Instance {
        self.instance_masked(user, item, label, &FieldMask::all(&self.schema))
    }

    /// Instance restricted to an attribute subset (Table 6).
    pub fn instance_masked(&self, user: u32, item: u32, label: f64, mask: &FieldMask) -> Instance {
        Instance::new(self.feats(user, item, mask), label)
    }

    /// Set of items each user interacted with.
    pub fn user_item_sets(&self) -> Vec<HashSet<u32>> {
        let mut sets = vec![HashSet::new(); self.n_users];
        for it in &self.interactions {
            sets[it.user as usize].insert(it.item);
        }
        sets
    }

    /// Number of interactions per user.
    pub fn user_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_users];
        for it in &self.interactions {
            counts[it.user as usize] += 1;
        }
        counts
    }

    /// Number of interactions per item.
    pub fn item_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_items];
        for it in &self.interactions {
            counts[it.item as usize] += 1;
        }
        counts
    }

    /// Table 2 statistics.
    pub fn stats(&self) -> DatasetStats {
        let possible = (self.n_users * self.n_items) as f64;
        DatasetStats {
            name: self.name.clone(),
            n_users: self.n_users,
            n_items: self.n_items,
            attribute_dim: self.schema.total_dim(),
            n_instances: self.interactions.len(),
            sparsity: 1.0 - self.interactions.len() as f64 / possible,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldKind;

    fn tiny() -> Dataset {
        let schema = Schema::from_specs(&[
            ("user", 3, FieldKind::User),
            ("item", 4, FieldKind::Item),
            ("gender", 2, FieldKind::UserAttr),
            ("category", 5, FieldKind::Category),
        ]);
        Dataset {
            name: "tiny".into(),
            schema,
            n_users: 3,
            n_items: 4,
            interactions: vec![
                Interaction { user: 0, item: 1, ts: 0 },
                Interaction { user: 0, item: 2, ts: 1 },
                Interaction { user: 1, item: 1, ts: 0 },
            ],
            user_attrs: vec![vec![0], vec![1], vec![0]],
            item_attrs: vec![vec![0], vec![3], vec![2], vec![4]],
            user_attr_fields: vec![2],
            item_attr_fields: vec![3],
        }
    }

    #[test]
    fn instance_encodes_all_fields() {
        let d = tiny();
        let inst = d.instance(1, 2, 1.0);
        // user 1 -> 1; item 2 -> 3 + 2 = 5; gender of user 1 = 1 -> 7 + 1 = 8;
        // category of item 2 = 2 -> 9 + 2 = 11.
        assert_eq!(inst.feats, vec![1, 5, 8, 11]);
        assert_eq!(inst.label, 1.0);
    }

    #[test]
    fn masked_instance_keeps_base_fields_only() {
        let d = tiny();
        let mask = FieldMask::base(&d.schema);
        let inst = d.instance_masked(2, 0, -1.0, &mask);
        assert_eq!(inst.feats, vec![2, 3]);
    }

    #[test]
    fn stats_match_hand_computation() {
        let d = tiny();
        let s = d.stats();
        assert_eq!(s.n_instances, 3);
        assert_eq!(s.attribute_dim, 14);
        assert!((s.sparsity - (1.0 - 3.0 / 12.0)).abs() < 1e-12);
    }

    #[test]
    fn per_user_and_item_counts() {
        let d = tiny();
        assert_eq!(d.user_counts(), vec![2, 1, 0]);
        assert_eq!(d.item_counts(), vec![0, 2, 1, 0]);
        let sets = d.user_item_sets();
        assert!(sets[0].contains(&1) && sets[0].contains(&2));
        assert!(sets[2].is_empty());
    }
}
