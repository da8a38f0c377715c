//! Property tests pinning the redesigned request path **bit-identical**
//! to the pre-redesign `Recommender` behaviour across every freezable
//! [`ModelSpec`] variant:
//!
//! * `score_feats` / `ScoreRequest::Feats` ≡ `FrozenModel::predict_feats`
//!   (which is exactly what the pre-redesign `score_feats` computed);
//! * `top_n` / `TopNRequest` (seen-exclusion off) ≡ the pre-redesign
//!   whole-catalogue ranking loop, re-implemented here as the reference;
//! * malformed requests are typed [`RequestError`]s, never panics.
//!
//! Plus the engine-level serving lifecycle: seen sets built by `fit` and
//! persisted in v2 artifacts (with the v1 decode fallback), and hot
//! swaps through `Recommender::serve()`.

mod common;

use common::{freezable_specs, reference_top_n};
use gmlfm_core::GmlFmConfig;
use gmlfm_data::{generate, DatasetSpec};
use gmlfm_engine::{
    Engine, EngineError, ModelSpec, Recommender, RequestError, ScoreRequest, SplitPlan, TopNRequest,
};
use gmlfm_train::TrainConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

struct Fixture {
    name: &'static str,
    n_features: usize,
    rec: Recommender,
}

fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let dataset = generate(&DatasetSpec::AmazonAuto.config(83).scaled(0.15));
        let n_features = dataset.schema.total_dim();
        freezable_specs()
            .into_iter()
            .map(|spec| {
                let name = spec.display_name();
                let rec = Engine::builder()
                    .dataset(dataset.clone())
                    .split(SplitPlan::topn(5))
                    .spec(spec)
                    .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
                    .fit()
                    .expect("freezable specs support the top-n task");
                Fixture { name, n_features, rec }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The request path scores raw feature indices bit-identically to the
    /// pre-redesign direct frozen evaluation, through both the
    /// `Recommender` wrapper and the shared `ModelServer` handle.
    #[test]
    fn request_path_score_is_bit_identical_to_pre_redesign(
        variant in 0usize..10,
        raw_feats in proptest::collection::vec(0u32..100_000, 1..6),
    ) {
        let fixture = &fixtures()[variant];
        let mut feats: Vec<u32> =
            raw_feats.iter().map(|f| f % fixture.n_features as u32).collect();
        feats.sort_unstable();
        feats.dedup();
        // Pre-redesign `score_feats` evaluated the frozen model directly.
        let reference = fixture.rec.frozen().expect("freezable").predict_feats(&feats);
        let wrapper = fixture.rec.score_feats(&feats).expect("in-range feats");
        prop_assert_eq!(wrapper.to_bits(), reference.to_bits(), "{} wrapper drifted", fixture.name);
        let served = fixture.rec.serve().expect("freezable").score(&ScoreRequest::feats(feats.clone()))
            .expect("in-range feats");
        prop_assert_eq!(served.value.to_bits(), reference.to_bits(), "{} server drifted", fixture.name);
        prop_assert_eq!(served.generation, 1, "fresh fits serve generation 1");
    }

    /// The request path ranks the catalogue bit-identically to the
    /// pre-redesign `top_n` loop at several thread counts.
    #[test]
    fn request_path_top_n_is_bit_identical_to_pre_redesign(
        variant in 0usize..10,
        user in 0u32..40,
        threads in 1usize..5,
    ) {
        let fixture = &fixtures()[variant];
        let n_users = fixture.rec.catalog().expect("catalog").n_users() as u32;
        let user = user % n_users;
        let reference = reference_top_n(
            fixture.rec.frozen().expect("freezable spec"),
            fixture.rec.catalog().expect("fit keeps a catalog"),
            user,
            10,
        );
        let wrapper = fixture.rec.top_n(user, 10).expect("user in catalog");
        prop_assert_eq!(&wrapper, &reference, "{} wrapper drifted for user {}", fixture.name, user);
        let req = TopNRequest::new(user, 10)
            .include_seen()
            .parallelism(gmlfm_par::Parallelism::threads(threads));
        let served = fixture.rec.serve().expect("freezable").top_n(&req).expect("user in catalog");
        prop_assert_eq!(&served.value, &reference, "{} server drifted for user {}", fixture.name, user);
    }
}

#[test]
fn malformed_requests_through_the_recommender_are_typed_errors() {
    let fixture = &fixtures()[0];
    let n = fixture.n_features as u32;

    let err = fixture.rec.score_feats(&[0, n + 7]).unwrap_err();
    assert!(
        matches!(err, EngineError::Request(RequestError::FeatureOutOfRange { feature, .. }) if feature == n + 7),
        "{err}"
    );
    let err = fixture.rec.score(&gmlfm_data::Instance::new(vec![n], 0.0)).unwrap_err();
    assert!(matches!(err, EngineError::Request(RequestError::FeatureOutOfRange { .. })), "{err}");

    let n_users = fixture.rec.catalog().expect("catalog").n_users() as u32;
    let err = fixture.rec.top_n(n_users, 5).unwrap_err();
    assert!(matches!(err, EngineError::Request(RequestError::UnknownUser { .. })), "{err}");

    let err = fixture
        .rec
        .handle_score(&ScoreRequest::cold(0, &[("no_such_field", 0)]))
        .unwrap_err();
    assert!(matches!(err, EngineError::Request(RequestError::UnknownField { .. })), "{err}");
}

#[test]
fn fit_builds_seen_sets_and_serving_excludes_them_by_default() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(85).scaled(0.15));
    let rec = Engine::builder()
        .dataset(dataset.clone())
        .split(SplitPlan::topn(9))
        .spec(ModelSpec::gml_fm_md(6))
        .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
        .fit()
        .expect("pipeline");
    let seen = rec.seen().expect("top-n fits build seen sets");
    assert!(seen.total() > 0, "synthetic dataset has training interactions");
    let user = (0..dataset.n_users as u32)
        .find(|&u| !seen.items(u).is_empty())
        .expect("some user has history");
    let seen_items = seen.items(user).to_vec();

    let server = rec.serve().expect("freezable");
    let n_items = rec.catalog().expect("catalog").n_items();
    let recommended = server.top_n(&TopNRequest::new(user, n_items)).expect("valid request").value;
    assert_eq!(recommended.len(), n_items - seen_items.len());
    assert!(
        recommended.iter().all(|(item, _)| !seen_items.contains(item)),
        "default requests must not recommend items the user already interacted with"
    );
    // The opt-out restores the evaluation-protocol view.
    let all = server.top_n(&TopNRequest::new(user, n_items).include_seen()).unwrap().value;
    assert_eq!(all.len(), n_items);

    // Rating fits reconstruct seen sets from the training instances.
    let rating_rec = Engine::builder()
        .dataset(dataset)
        .split(SplitPlan::rating(9))
        .spec(ModelSpec::gml_fm_md(6))
        .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
        .fit()
        .expect("pipeline");
    assert!(rating_rec.seen().expect("rating fits build seen sets too").total() > 0);
}

#[test]
fn seen_sets_persist_in_current_artifacts_and_v1_artifacts_still_load() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(87).scaled(0.15));
    let rec = Engine::builder()
        .dataset(dataset)
        .split(SplitPlan::topn(3))
        .spec(ModelSpec::gml_fm_md(6))
        .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
        .fit()
        .expect("pipeline");
    let json = rec.artifact().expect("freezable").to_json();
    assert!(json.contains("\"format_version\":4"), "this build writes v4");

    // v2 round trip: the seen sets travel with the artifact.
    let reloaded = Engine::load_json(&json).expect("round trip");
    let (a, b) = (rec.seen().expect("seen"), reloaded.seen().expect("seen survives"));
    assert_eq!(a.n_users(), b.n_users());
    for user in 0..a.n_users() as u32 {
        assert_eq!(a.items(user), b.items(user), "user {user}");
    }

    // v1 fallback: strip the seen field and downgrade the version — the
    // artifact still loads, with no seen sets and no exclusion.
    let seen_json = {
        let mut out = String::from(",\"seen\":");
        serde::Serialize::serialize_json(a, &mut out);
        out
    };
    let v1 = json
        .replacen("\"format_version\":4", "\"format_version\":1", 1)
        .replacen(&seen_json, "", 1)
        .replacen(",\"precision\":null", "", 1);
    assert!(!v1.contains("\"seen\""), "seen field must be gone from the v1 fixture");
    let legacy = Engine::load_json(&v1).expect("v1 artifacts still load");
    assert!(legacy.seen().is_none());
    let n_items = legacy.catalog().expect("catalog").n_items();
    let server = legacy.serve().expect("freezable");
    let ranked = server.top_n(&TopNRequest::new(0, n_items)).expect("valid request").value;
    assert_eq!(ranked.len(), n_items, "no seen sets -> nothing excluded");
}

#[test]
fn hot_swap_through_the_served_handle_reloads_the_recommender() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(89).scaled(0.15));
    let make = |seed: u64| {
        Engine::builder()
            .dataset(dataset.clone())
            .split(SplitPlan::topn(5))
            .spec(ModelSpec::gml_fm(GmlFmConfig::mahalanobis(6).with_seed(seed)))
            .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
            .fit()
            .expect("pipeline")
    };
    let serving = make(1);
    let retrained = make(2);

    let probe: Vec<u32> = vec![0, 40];
    let before = serving.score_feats(&probe).expect("in-range");
    let retrained_score = retrained.score_feats(&probe).expect("in-range");
    assert_ne!(before.to_bits(), retrained_score.to_bits(), "different seeds, different models");

    // The artifact → snapshot → swap path a serving process runs on a
    // model refresh.
    let server = serving.serve().expect("freezable");
    let snapshot = retrained.artifact().expect("freezable").into_snapshot().expect("decodes");
    let generation = server.swap(snapshot).expect("schema-identical retrain");
    assert_eq!(generation, 2);

    // The swap is visible through every route: the served handle and the
    // recommender it came from now answer with the retrained model.
    let resp = server.score(&ScoreRequest::feats(probe.clone())).expect("in-range");
    assert_eq!(resp.generation, 2);
    assert_eq!(resp.value.to_bits(), retrained_score.to_bits());
    assert_eq!(serving.score_feats(&probe).expect("in-range").to_bits(), retrained_score.to_bits());
    // And the captured artifact now reflects the swapped-in snapshot.
    let reloaded = Engine::load_json(&serving.artifact().expect("freezable").to_json()).expect("load");
    assert_eq!(reloaded.score_feats(&probe).expect("in-range").to_bits(), retrained_score.to_bits());
}
