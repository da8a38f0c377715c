//! Property tests on the data substrate: encoding round-trips, split
//! invariants and generator guarantees across random configurations.
// The one hash set checks distinctness; nothing iterates it.
#![allow(clippy::disallowed_types)]

use gmlfm_data::{generate, loo_split, rating_split, DatasetSpec, FieldKind, FieldMask, Schema};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn schema_feature_indices_round_trip(
        cards in proptest::collection::vec(1usize..40, 2..6),
    ) {
        let specs: Vec<(String, usize, FieldKind)> = cards
            .iter()
            .enumerate()
            .map(|(i, &c)| (format!("f{i}"), c, if i == 0 { FieldKind::User } else { FieldKind::ItemAttr }))
            .collect();
        let schema = Schema::from_specs(
            &specs.iter().map(|(n, c, k)| (n.as_str(), *c, *k)).collect::<Vec<_>>(),
        );
        prop_assert_eq!(schema.total_dim(), cards.iter().sum::<usize>());
        for (field, &card) in cards.iter().enumerate() {
            for value in [0, card / 2, card - 1] {
                let idx = schema.feature_index(field, value);
                prop_assert_eq!(schema.decode(idx), (field, value));
            }
        }
    }

    #[test]
    fn generated_datasets_have_consistent_internals(seed in 0u64..40, scale in 0.15f64..0.4) {
        let d = generate(&DatasetSpec::AmazonOffice.config(seed).scaled(scale));
        // Attribute tables cover every entity with in-range values.
        prop_assert_eq!(d.user_attrs.len(), d.n_users);
        prop_assert_eq!(d.item_attrs.len(), d.n_items);
        for attrs in &d.item_attrs {
            for (col, &value) in attrs.iter().enumerate() {
                let field = d.item_attr_fields[col];
                prop_assert!(value < d.schema.fields()[field].cardinality);
            }
        }
        // Every instance's features decode back to consistent fields.
        let inst = d.instance(0, 0, 1.0);
        for (pos, &feat) in inst.feats.iter().enumerate() {
            let (field, _) = d.schema.decode(feat);
            prop_assert_eq!(field, pos);
        }
    }

    #[test]
    fn rating_split_partitions_without_loss(seed in 0u64..40) {
        let d = generate(&DatasetSpec::AmazonAuto.config(seed).scaled(0.25));
        let mask = FieldMask::all(&d.schema);
        let s = rating_split(&d, &mask, 2, seed ^ 99);
        let total = s.train.len() + s.val.len() + s.test.len();
        prop_assert_eq!(total, d.interactions.len() * 3);
        // Positives appear exactly as often as interactions.
        let pos: usize = [&s.train, &s.val, &s.test]
            .iter()
            .map(|part| part.iter().filter(|i| i.label > 0.0).count())
            .sum();
        prop_assert_eq!(pos, d.interactions.len());
    }

    #[test]
    fn loo_split_never_leaks_test_items_into_training(seed in 0u64..40) {
        let d = generate(&DatasetSpec::AmazonAuto.config(seed).scaled(0.25));
        let mask = FieldMask::all(&d.schema);
        let s = loo_split(&d, &mask, 2, 50, seed ^ 7);
        for case in &s.test {
            prop_assert!(!s.train_user_items[case.user as usize].contains(&case.pos_item));
            let negs: HashSet<u32> = case.negatives.iter().copied().collect();
            prop_assert_eq!(negs.len(), case.negatives.len(), "negatives must be distinct");
        }
    }

    #[test]
    fn masked_instances_contain_exactly_the_active_fields(seed in 0u64..20) {
        let d = generate(&DatasetSpec::MercariTicket.config(seed).scaled(0.2));
        let base = FieldMask::base(&d.schema);
        let with_cat = base.with_kind(&d.schema, FieldKind::Category);
        let inst_base = d.instance_masked(0, 0, 1.0, &base);
        let inst_cat = d.instance_masked(0, 0, 1.0, &with_cat);
        prop_assert_eq!(inst_base.n_fields(), 2);
        prop_assert_eq!(inst_cat.n_fields(), 3);
        // The base features are a prefix of the extended ones.
        prop_assert_eq!(&inst_cat.feats[..2], &inst_base.feats[..]);
    }
}
