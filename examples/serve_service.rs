//! Online serving walkthrough: the typed request/response protocol over
//! the shared, hot-swappable [`gml_fm::service::ModelServer`] handle.
//!
//! The scenario is a serving process's whole lifecycle:
//!
//! 1. train once, `serve()` the recommender, and share the handle;
//! 2. answer catalog requests — including the production default of
//!    *not* recommending items the user already interacted with, and
//!    candidate slates with explicit exclusions;
//! 3. score a **cold-start user the model never saw in training**, by
//!    side features alone (the paper's side-feature design is what makes
//!    this well-defined: an instance is just active one-hot fields, so a
//!    missing user id is simply one fewer field);
//! 4. hot-swap a retrained model, shipped as a serialised artifact,
//!    mid-traffic — generation bumps, no request is ever torn between
//!    the two models.
//!
//! ```sh
//! cargo run --release --example serve_service
//! ```

use gml_fm::data::{generate, DatasetSpec};
use gml_fm::engine::{
    Artifact, BatchRequest, Engine, ModelSpec, Reply, Request, ScoreRequest, SplitPlan, TopNRequest,
};
use gml_fm::train::TrainConfig;

fn main() {
    // MovieLens-like data: user-side attributes (gender, age bucket,
    // occupation) exist, which is what cold-start requests lean on.
    let dataset = generate(&DatasetSpec::MovieLens.config(42).scaled(0.3));
    let train = |seed: u64| {
        Engine::builder()
            .dataset(dataset.clone())
            .split(SplitPlan::topn(11))
            .spec(ModelSpec::gml_fm(gml_fm::core::GmlFmConfig::dnn(16, 1).with_seed(seed)))
            .train_config(TrainConfig { epochs: 8, ..TrainConfig::default() })
            .fit()
            .expect("pipeline")
    };
    let rec = train(1);
    println!("trained {} on {}", rec.spec().display_name(), dataset.name);

    // The serving handle: Clone + Send + Sync, one per request thread.
    let server = rec.serve().expect("GML-FM freezes");
    println!("serving generation {}", server.generation());

    // -- typed requests ----------------------------------------------------
    let user = 3u32;
    let resp = server.score(&ScoreRequest::pair(user, 5)).expect("user and item in catalog");
    println!("\nscore(user {user}, item 5) = {:.4}   [generation {}]", resp.value, resp.generation);

    // Default top-n excludes the user's training-time items; opting out
    // restores the raw catalogue ranking used by the offline protocols.
    let seen = rec.seen().expect("fit builds seen sets").items(user).len();
    let top = server.top_n(&TopNRequest::new(user, 5)).expect("valid request");
    println!("top-5 for user {user} (excluding their {seen} seen items):");
    for (rank, (item, score)) in top.value.iter().enumerate() {
        println!("  #{:<2} item {:<5} score {score:.4}", rank + 1, item);
    }

    // A request can narrow the catalogue to a candidate slate and exclude
    // items on top of the seen set: both are filtered before selection,
    // so an excluded item never takes a top-n slot.
    let slate: Vec<u32> = (0..dataset.n_items as u32).step_by(2).collect();
    let banned = slate[..5].to_vec();
    let req = TopNRequest::new(user, 5).candidates(slate.clone()).exclude(banned.clone());
    let resp = server.top_n(&req).expect("valid request");
    assert!(resp
        .value
        .iter()
        .all(|(item, _)| slate.contains(item) && !banned.contains(item)));
    println!(
        "slate of {} candidates, {} excluded -> top-{} served",
        slate.len(),
        banned.len(),
        resp.value.len()
    );

    // Malformed requests are typed errors, never panics or garbage.
    let err = server.score(&ScoreRequest::pair(user, 999_999)).unwrap_err();
    println!("\nout-of-catalog request rejected: {err}");

    // -- cold start --------------------------------------------------------
    // A brand-new user: no id in the catalog, only side features. Rank a
    // candidate slate for them with one batch against one snapshot.
    let profile: &[(&str, usize)] = &[("gender", 1), ("age", 3), ("occupation", 7)];
    let slate: Vec<u32> = (0..20).collect();
    let batch = BatchRequest::new(
        slate
            .iter()
            .map(|&item| Request::Score(ScoreRequest::cold(item, profile)))
            .collect(),
    );
    let resp = server.batch(&batch);
    let mut scored: Vec<(u32, f64)> = slate
        .iter()
        .zip(&resp.value)
        .map(|(&item, reply)| match reply.as_ref().expect("valid cold requests") {
            Reply::Score(score) => (item, *score),
            Reply::TopN(_) => unreachable!("batch only carries score requests"),
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ncold-start slate for an unseen user {profile:?} [generation {}]:", resp.generation);
    for (item, score) in scored.iter().take(5) {
        println!("  item {item:<5} score {score:.4}");
    }

    // -- hot swap ----------------------------------------------------------
    // A retrained model ships as an artifact; the serving process decodes
    // it into a snapshot and swaps it in. Readers never block: in-flight
    // requests finish on the old generation, new ones see the new model.
    let retrained = train(2);
    let shipped = retrained.artifact().expect("freezable").to_json();
    let snapshot = Artifact::from_json(&shipped).expect("parses").into_snapshot().expect("decodes");
    let generation = server.swap(snapshot).expect("schema-identical retrain");
    let resp = server.score(&ScoreRequest::pair(user, 5)).expect("same catalog");
    println!("\nhot-swapped retrained model: generation {generation}");
    println!("score(user {user}, item 5) = {:.4}   [generation {}]", resp.value, resp.generation);
    assert_eq!(resp.generation, generation);
    // Whole-catalogue ranking now comes from the reloaded artifact.
    let top = server.top_n(&TopNRequest::new(user, 5)).expect("valid request");
    assert_eq!(top.generation, generation);
    println!("top item for user {user} from the reloaded artifact: {}", top.value[0].0);

    // The recommender that handed out the handle serves the new model
    // too — `serve()` shares state, it does not copy it.
    let direct = rec.score_pair(user, 5).expect("catalog");
    assert_eq!(direct.to_bits(), resp.value.to_bits());
    println!("recommender handle agrees with the served response: {direct:.4}");
}
