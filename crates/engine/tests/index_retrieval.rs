//! The IVF retrieval index's pinned properties beyond the route
//! parity that `parity.rs` holds (every freezable spec's indexed
//! snapshot, pinned to `Exact` and probing every cluster, returns the
//! full-sort reference at threads {1, 2, 5}, and an index-less backend
//! declines the indexed path):
//!
//! 1. Measured recall@10 at the default `nprobe` knob is ≥ 0.95 on a
//!    seeded 10k-item catalogue, and every returned score is bitwise
//!    the true model score.
//! 2. Artifacts: the index round-trips through the current format (cluster
//!    means, radii, assignments and knobs all bit-preserved), and v2
//!    artifacts — which predate the `index` field — still load, with
//!    no index and exact serving.

mod common;

use common::reference_top_n;
use gmlfm_data::{generate, generate_scale, DatasetSpec, FieldKind, FieldMask, ScaleConfig};
use gmlfm_engine::{Engine, ModelSpec, SplitPlan, TopNRequest};
use gmlfm_par::Parallelism;
use gmlfm_serve::{FrozenModel, IvfBuildOptions, IvfIndex, RetrievalStrategy};
use gmlfm_service::Catalog;
use gmlfm_train::TrainConfig;

/// Property 1: at the default knob, recall@10 on a seeded 10k-item
/// catalogue is ≥ 0.95 — and every score the index returns is bitwise
/// the true model score (the approximation lives only in the candidate
/// set).
#[test]
fn default_nprobe_recall_at_10_is_at_least_095_on_10k_items() {
    let dataset = generate_scale(&ScaleConfig::new(128, 10_000, 4242));
    let mask = FieldMask::all(&dataset.schema);
    let catalog = Catalog::from_dataset(&dataset, &mask);
    // The trained-model shape: item-id embeddings damped against the
    // shared attribute structure (see `synthetic_metric_damped`) — on
    // fully iid parameters most of every score is per-item noise no
    // candidate index could predict.
    let item_field = dataset.schema.field_of_kind(FieldKind::Item).expect("item field");
    let item_off = dataset.schema.offset(item_field);
    let frozen = FrozenModel::synthetic_metric_damped(
        dataset.schema.total_dim(),
        8,
        17,
        item_off..item_off + 10_000,
        0.5,
    );
    let index = IvfIndex::build(&frozen, &catalog, &IvfBuildOptions::default(), Parallelism::auto())
        .expect("metric models build an index");

    let n = 10;
    let users = 64u32;
    let mut hits = 0usize;
    for user in 0..users {
        let exact = reference_top_n(&frozen, &catalog, user, n);
        let got = index.search(
            &frozen,
            &catalog,
            catalog.template(user).expect("user in catalog"),
            catalog.item_slots(),
            n,
            index.default_nprobe(),
            &|_| false,
        );
        assert_eq!(got.len(), n, "complete result for user {user}");
        for (item, score) in &got {
            if let Some((_, s)) = exact.iter().find(|(i, _)| i == item) {
                assert_eq!(score.to_bits(), s.to_bits(), "approximate candidates, exact scores");
            }
        }
        hits += got.iter().filter(|(i, _)| exact.iter().any(|(e, _)| e == i)).count();
    }
    let recall = hits as f64 / (users as usize * n) as f64;
    assert!(recall >= 0.95, "recall@10 = {recall:.3} at nprobe = {}", index.default_nprobe());
}

/// Property 2a: the index round-trips through the current artifact — every
/// cluster mean, radius, assignment and knob bit-preserved, and the
/// reloaded index searches identically.
#[test]
fn index_round_trips_through_current_artifacts() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(91).scaled(0.15));
    let rec = Engine::builder()
        .dataset(dataset)
        .split(SplitPlan::topn(3))
        .spec(ModelSpec::gml_fm_md(6))
        .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
        .retrieval(RetrievalStrategy::Ivf { nprobe: None })
        .fit()
        .expect("pipeline");
    let index = rec.index().expect("metric specs build an index through the pipeline");

    let json = rec.artifact().expect("freezable").to_json();
    assert!(json.contains("\"format_version\":4"), "this build writes v4");
    assert!(json.contains("\"index\":{"), "the index travels in v3+ artifacts");

    let reloaded = Engine::load_json(&json).expect("round trip");
    let loaded = reloaded.index().expect("the index survives the round trip");
    assert_eq!(loaded.kind(), index.kind());
    assert_eq!(loaded.k(), index.k());
    assert_eq!(loaded.n_items(), index.n_items());
    assert_eq!(loaded.n_clusters(), index.n_clusters());
    assert_eq!(loaded.default_nprobe(), index.default_nprobe());
    assert_eq!(loaded.min_candidates(), index.min_candidates());
    assert_eq!(loaded.assignments(), index.assignments());
    for c in 0..index.n_clusters() {
        assert_eq!(loaded.radius()[c].to_bits(), index.radius()[c].to_bits(), "cluster {c} radius");
        for (a, b) in loaded.phi_mean().row(c).iter().zip(index.phi_mean().row(c)) {
            assert_eq!(a.to_bits(), b.to_bits(), "cluster {c} mean");
        }
    }

    // The reloaded index answers searches identically to the original.
    let catalog = rec.catalog().expect("catalog");
    let frozen = rec.frozen().expect("freezable");
    for user in 0..4u32 {
        let template = catalog.template(user).expect("user in catalog");
        let search = |idx: &IvfIndex| {
            idx.search(frozen, catalog, template, catalog.item_slots(), 10, idx.default_nprobe(), &|_| false)
        };
        assert_eq!(search(index), search(loaded), "user {user}");
    }
}

/// Property 2b: v2 artifacts predate the `index` field — they still
/// load, with no index and fully exact serving.
#[test]
fn v2_artifacts_without_an_index_field_still_load() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(93).scaled(0.15));
    let rec = Engine::builder()
        .dataset(dataset)
        .split(SplitPlan::topn(3))
        .spec(ModelSpec::gml_fm_md(6))
        .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
        .fit()
        .expect("pipeline");
    let json = rec.artifact().expect("freezable").to_json();
    assert!(json.contains(",\"index\":null"), "Exact pipelines persist no index");

    let v2 =
        json.replacen("\"format_version\":4", "\"format_version\":2", 1)
            .replacen(",\"index\":null", "", 1);
    assert!(!v2.contains("\"index\""), "index field must be gone from the v2 fixture");
    let legacy = Engine::load_json(&v2).expect("v2 artifacts still load");
    assert!(legacy.index().is_none(), "v2 artifacts carry no index");

    // And the loaded recommender serves — exactly — without one.
    let reference =
        reference_top_n(legacy.frozen().expect("freezable"), legacy.catalog().expect("catalog"), 0, 5);
    let served = legacy
        .handle_top_n(&TopNRequest::new(0, 5).include_seen())
        .expect("valid request")
        .value;
    assert_eq!(served, reference);
}
