//! Engine-level tests of the online loop wiring: `serve_online` gates on
//! the builder opt-in and the top-n holdout, fed interactions are
//! excluded from the recommender's own read path before any retrain, a
//! published round hot-reloads every handle, and — the checkpointing
//! contract — `artifact`/`save` persist the *current* snapshot including
//! the live overlay, so fed interactions survive a save → load round
//! trip instead of silently reappearing in top-n results. A published
//! round rebuilds the IVF index with the serving index's settings.

use gmlfm_data::{generate, DatasetSpec};
use gmlfm_engine::{
    Engine, EngineError, Interaction, ModelSpec, OnlineConfig, Recommender, RoundOutcome, SplitPlan,
    TopNRequest,
};
use gmlfm_models::fm::FmConfig;
use gmlfm_serve::RetrievalStrategy;
use gmlfm_train::TrainConfig;

fn spec() -> ModelSpec {
    ModelSpec::fm(FmConfig { k: 4, epochs: 2, ..FmConfig::default() })
}

/// Top-n item ids under the production default: seen items excluded.
fn topn_items(rec: &Recommender, user: u32, n: usize) -> Vec<u32> {
    rec.handle_top_n(&TopNRequest::new(user, n))
        .expect("ranks")
        .value
        .into_iter()
        .map(|(item, _)| item)
        .collect()
}

fn online_cfg() -> OnlineConfig {
    OnlineConfig {
        background: false,
        min_events: 1,
        gate_tolerance: 1.0,
        negatives_per_event: 1,
        train: TrainConfig { epochs: 1, ..TrainConfig::default() },
        ..OnlineConfig::default()
    }
}

#[test]
fn serve_online_requires_the_builder_opt_in_and_a_topn_holdout() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(81).scaled(0.15));

    // Without `.online(true)` the warm-start state was not retained.
    let mut rec = Engine::builder()
        .dataset(dataset.clone())
        .split(SplitPlan::topn(5))
        .spec(spec())
        .fit()
        .expect("fits");
    match rec.serve_online(online_cfg()) {
        Err(EngineError::OnlineUnavailable { reason }) => {
            assert!(reason.contains("online(true)"), "reason names the fix: {reason}")
        }
        other => panic!("expected OnlineUnavailable, got {:?}", other.map(|_| ())),
    }

    // With the opt-in but a rating split there is no holdout to gate on.
    let mut rec = Engine::builder()
        .dataset(dataset)
        .split(SplitPlan::rating(5))
        .spec(spec())
        .online(true)
        .fit()
        .expect("fits");
    match rec.serve_online(online_cfg()) {
        Err(EngineError::OnlineUnavailable { reason }) => {
            assert!(reason.contains("top-n holdout"), "reason names the fix: {reason}")
        }
        other => panic!("expected OnlineUnavailable, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn online_loop_publishes_and_checkpoints_persist_the_overlay() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(82).scaled(0.15));
    let mut rec = Engine::builder()
        .dataset(dataset)
        .split(SplitPlan::topn(5))
        .spec(spec())
        .online(true)
        .fit()
        .expect("fits");
    let serving = rec.serve_online(online_cfg()).expect("opt-in + top-n holdout");

    // Launching consumed the warm-start state: a second loop would race
    // the first for the same serving handle.
    assert!(matches!(rec.serve_online(online_cfg()), Err(EngineError::OnlineUnavailable { .. })));

    // Feed the user's current top recommendation back as an interaction
    // (ranked with the production default of excluding seen items, so
    // the item is genuinely recommendable right now).
    let user = 0u32;
    let item = topn_items(&rec, user, 1)[0];
    let ack = serving.handle().feed(&Interaction::new(user, item)).expect("feed validates");
    assert!(ack.value.accepted);

    // The recommender's own read path shares the serving handle: the fed
    // item is excluded immediately, before any retrain.
    assert!(
        !topn_items(&rec, user, 10).contains(&item),
        "fed item must leave the recommender's own top-n immediately"
    );

    // Checkpointing BEFORE the retrain: the artifact folds the live
    // overlay into its seen sets, so the exclusion survives load.
    let reloaded = Engine::load_json(&rec.artifact().expect("freezable").to_json()).expect("round trip");
    assert!(
        reloaded.seen().expect("artifact keeps seen sets").contains(user, item),
        "overlay interaction must be persisted by save"
    );
    assert!(
        !topn_items(&reloaded, user, 10).contains(&item),
        "exclusion survives the save → load round trip"
    );

    // One synchronous round: warm-fit over base + the event, gate, swap.
    match serving.trainer().run_once() {
        RoundOutcome::Published { generation, report } => {
            assert_eq!(generation, 2);
            assert!(report.passed);
        }
        other => panic!("expected a published round, got {other:?}"),
    }

    // The hot swap reloads the recommender in place...
    assert!(!topn_items(&rec, user, 10).contains(&item), "exclusion survives the published swap");
    // ...and `artifact` now captures the *swapped-in* snapshot, whose
    // own seen sets carry the folded interaction.
    let reloaded =
        Engine::load_json(&rec.artifact().expect("freezable").to_json()).expect("round trip after publish");
    assert!(reloaded.seen().expect("seen sets").contains(user, item));

    let status = serving.shutdown();
    assert_eq!(status.published, 1);
    assert_eq!(status.rejected, 0);
}

#[test]
fn a_published_round_keeps_the_index_settings() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(83).scaled(0.15));
    let mut rec = Engine::builder()
        .dataset(dataset)
        .split(SplitPlan::topn(5))
        .spec(ModelSpec::gml_fm_md(4))
        .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
        .retrieval(RetrievalStrategy::Ivf { nprobe: Some(2) })
        .online(true)
        .fit()
        .expect("fits");
    let settings = |rec: &Recommender| {
        let index = rec.index().expect("a metric model over the catalog is indexed");
        (index.default_nprobe(), index.min_candidates())
    };
    let before = settings(&rec);
    assert_eq!(before.0, 2);
    let serving = rec.serve_online(online_cfg()).expect("opt-in + top-n holdout");
    serving.handle().feed(&Interaction::new(0, 0)).expect("feed validates");
    match serving.trainer().run_once() {
        RoundOutcome::Published { generation, .. } => assert_eq!(generation, 2),
        other => panic!("expected a published round, got {other:?}"),
    }
    assert_eq!(settings(&rec), before, "the republished index keeps nprobe and min_candidates");
    serving.shutdown();
}
