//! Property tests for the artifact round trip: `save → load → score`
//! must be bit-identical (well under the 1e-12 budget) to the in-memory
//! recommender for every freezable [`ModelSpec`] variant, and version
//! mismatches must fail with a typed error, not a panic. The reloaded
//! recommender is held to the full-sort reference in `parity.rs`.

mod common;

use common::{fit_topn, freezable_specs};
use gmlfm_data::{generate, DatasetSpec, Instance};
use gmlfm_engine::{Engine, EngineError, ModelSpec, Recommender, SplitPlan, ARTIFACT_VERSION};
use gmlfm_models::mf::MfConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

struct Fixture {
    name: &'static str,
    n_features: usize,
    trained: Recommender,
    reloaded: Recommender,
}

/// Trains each freezable spec once on a tiny dataset and round-trips it
/// through the JSON artifact; the property tests then probe the pair.
fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let dataset = generate(&DatasetSpec::AmazonAuto.config(77).scaled(0.15));
        let n_features = dataset.schema.total_dim();
        freezable_specs()
            .into_iter()
            .map(|spec| {
                let name = spec.display_name();
                let trained = fit_topn(&dataset, spec);
                let json = trained.artifact().expect("freezable").to_json();
                let reloaded = Engine::load_json(&json).expect("round trip");
                Fixture { name, n_features, trained, reloaded }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `save → load → score` is bit-identical for random instances over
    /// every freezable variant.
    #[test]
    fn reloaded_scores_are_bit_identical(
        variant in 0usize..10,
        raw_feats in proptest::collection::vec(0u32..100_000, 1..6),
    ) {
        let fixture = &fixtures()[variant];
        let mut feats: Vec<u32> =
            raw_feats.iter().map(|f| f % fixture.n_features as u32).collect();
        feats.sort_unstable();
        feats.dedup();
        let a = fixture.trained.score_feats(&feats).expect("in-range feats");
        let b = fixture.reloaded.score_feats(&feats).expect("in-range feats");
        prop_assert_eq!(
            a.to_bits(), b.to_bits(),
            "{}: in-memory {} vs reloaded {} on {:?}", fixture.name, a, b, &feats
        );
        prop_assert!((a - b).abs() <= 1e-12);
    }

    /// Full-catalogue rankings survive the round trip exactly.
    #[test]
    fn reloaded_top_n_matches(variant in 0usize..10, user in 0u32..40) {
        let fixture = &fixtures()[variant];
        let n_users = fixture.trained.catalog().expect("fit keeps a catalog").n_users() as u32;
        let user = user % n_users;
        let a = fixture.trained.top_n(user, 10).expect("rank");
        let b = fixture.reloaded.top_n(user, 10).expect("rank");
        prop_assert_eq!(a, b, "{} user {}", fixture.name, user);
    }
}

#[test]
fn reloaded_recommender_scores_instances_like_the_frozen_model() {
    for fixture in fixtures() {
        let inst = Instance::new(vec![1, (fixture.n_features / 2) as u32], 0.0);
        let frozen = fixture.trained.frozen().expect("freezable spec");
        assert_eq!(
            frozen.predict(&inst).to_bits(),
            fixture.reloaded.score(&inst).expect("in-range instance").to_bits(),
            "{}",
            fixture.name
        );
    }
}

#[test]
fn bumped_artifact_version_fails_with_a_typed_error() {
    let json = fixtures()[0].trained.artifact().expect("freezable").to_json();
    let bumped = json.replacen(
        &format!("\"format_version\":{ARTIFACT_VERSION}"),
        &format!("\"format_version\":{}", ARTIFACT_VERSION + 1),
        1,
    );
    assert_ne!(json, bumped, "version field must appear in the artifact");
    match Engine::load_json(&bumped) {
        Err(EngineError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, ARTIFACT_VERSION + 1);
            assert_eq!(supported, ARTIFACT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}", other = other.err()),
    }
}

#[test]
fn loaded_recommender_has_no_holdout_but_keeps_the_catalog() {
    let fixture = &fixtures()[0];
    assert!(matches!(fixture.reloaded.evaluate_topn(10), Err(EngineError::MissingHoldout { .. })));
    assert!(matches!(fixture.reloaded.evaluate_rating(), Err(EngineError::MissingHoldout { .. })));
    assert_eq!(
        fixture.reloaded.catalog().expect("catalog travels with the artifact").n_items(),
        fixture.trained.catalog().expect("catalog").n_items()
    );
}

#[test]
fn out_of_range_item_is_reported_as_unknown_item_not_user() {
    use gmlfm_engine::RequestError;
    let fixture = &fixtures()[0];
    let n_items = fixture.trained.catalog().expect("catalog").n_items() as u32;
    let err = fixture.trained.score_pair(0, n_items + 5).unwrap_err();
    assert!(matches!(err, EngineError::Request(RequestError::UnknownItem { .. })), "{err}");
    let n_users = fixture.trained.catalog().expect("catalog").n_users() as u32;
    let err = fixture.trained.score_pair(n_users + 5, 0).unwrap_err();
    assert!(matches!(err, EngineError::Request(RequestError::UnknownUser { .. })), "{err}");
}

#[test]
fn non_freezable_models_refuse_to_save() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(78).scaled(0.15));
    let rec = Engine::builder()
        .dataset(dataset)
        .split(SplitPlan::topn(5))
        .spec(ModelSpec::BprMf { config: MfConfig { epochs: 2, ..MfConfig::default() } })
        .fit()
        .expect("BPR-MF fits the top-n task");
    assert!(matches!(rec.artifact(), Err(EngineError::NotFreezable { .. })));
}

#[test]
fn task_mismatch_is_a_typed_error() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(79).scaled(0.15));
    let err = Engine::builder()
        .dataset(dataset)
        .split(SplitPlan::rating(3))
        .spec(ModelSpec::BprMf { config: MfConfig::default() })
        .fit()
        .unwrap_err();
    assert!(matches!(err, EngineError::UnsupportedTask { task: "rating", .. }));
}

#[test]
fn builder_without_dataset_is_a_typed_error() {
    let err = Engine::builder().spec(ModelSpec::gml_fm_dnn(4, 1)).fit().unwrap_err();
    assert!(matches!(err, EngineError::BuilderIncomplete { field: "dataset" }));
}
