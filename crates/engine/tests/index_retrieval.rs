//! The IVF retrieval index's four pinned properties:
//!
//! 1. [`RetrievalStrategy::Exact`] stays **bitwise identical** to the
//!    sharded bounded-heap path of the pre-index design, across every
//!    freezable [`ModelSpec`] variant and thread counts {1, 2, 5} —
//!    with an index installed in the snapshot, pinning `Exact` must
//!    change nothing.
//! 2. IVF with `nprobe = n_clusters` is **item-for-item** (scores
//!    bitwise, tie order included) the exact result: the index only
//!    narrows the candidate set, never rescores, so probing everything
//!    is the exhaustive scan.
//! 3. Measured recall@10 at the default `nprobe` knob is ≥ 0.95 on a
//!    seeded 10k-item catalogue, and every returned score is bitwise
//!    the true model score.
//! 4. Artifacts: the index round-trips through format v3 (cluster
//!    means, radii, assignments and knobs all bit-preserved), and v2
//!    artifacts — which predate the `index` field — still load, with
//!    no index and exact serving.

mod common;

use common::{freezable_specs, reference_top_n};
use gmlfm_data::{generate, generate_scale, DatasetSpec, FieldKind, FieldMask, ScaleConfig};
use gmlfm_engine::{Engine, ModelSpec, SplitPlan, TopNRequest};
use gmlfm_par::Parallelism;
use gmlfm_serve::{FrozenModel, IvfBuildOptions, IvfIndex, Precision, RetrievalStrategy};
use gmlfm_service::{Catalog, IndexedModel, ModelServer, ModelSnapshot, ScoringBackend};
use gmlfm_train::TrainConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

const THREAD_COUNTS: [usize; 3] = [1, 2, 5];

struct Variant {
    name: &'static str,
    frozen: FrozenModel,
    /// Index over the fixture catalogue, `None` for models without the
    /// metric linearisation. `min_candidates` is lowered so the indexed
    /// path engages on the small fixture.
    index: Option<IvfIndex>,
    /// Server whose snapshot carries the index (when one exists) — the
    /// post-index serving configuration.
    indexed: ModelServer,
    /// Index-less server — exactly the pre-index (PR 5) serving path.
    plain: ModelServer,
}

struct Fixture {
    catalog: Catalog,
    variants: Vec<Variant>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = generate(&DatasetSpec::AmazonAuto.config(61).scaled(0.15));
        let mask = FieldMask::all(&dataset.schema);
        let catalog = Catalog::from_dataset(&dataset, &mask);
        // Untrained estimators are enough: retrieval parity is
        // independent of the parameter values.
        let variants = freezable_specs()
            .into_iter()
            .map(|spec| {
                let name = spec.display_name();
                let estimator = spec.build(&dataset.schema, &mask);
                let frozen = estimator.freeze_if_supported().expect("freezable spec");
                let opts = IvfBuildOptions { min_candidates: 1, ..IvfBuildOptions::default() };
                let index = IvfIndex::build(&frozen, &catalog, &opts, Parallelism::auto());
                let snapshot = |index: Option<IvfIndex>| ModelSnapshot {
                    schema: dataset.schema.clone(),
                    frozen: frozen.clone(),
                    catalog: Some(catalog.clone()),
                    seen: None,
                    index,
                };
                let indexed = ModelServer::new(snapshot(index.clone())).expect("consistent snapshot");
                let plain = ModelServer::new(snapshot(None)).expect("consistent snapshot");
                Variant { name, frozen, index, indexed, plain }
            })
            .collect();
        Fixture { catalog, variants }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: pinning `Exact` — even on a snapshot that carries an
    /// index — answers bitwise identically to the index-less sharded
    /// heap path, at every thread count.
    #[test]
    fn exact_strategy_is_bit_identical_to_sharded_heap_path(
        variant in 0usize..10,
        user in 0u32..200,
        n_kind in 0usize..3,
    ) {
        let f = fixture();
        let v = &f.variants[variant];
        let user = user % f.catalog.n_users() as u32;
        let n = [1, 10, f.catalog.n_items()][n_kind];
        let reference = reference_top_n(&v.frozen, &f.catalog, user, n);
        for threads in THREAD_COUNTS {
            let base = TopNRequest::new(user, n)
                .include_seen()
                .parallelism(Parallelism::threads(threads));
            // The pre-index serving path, unchanged.
            let plain = v.plain.top_n(&base.clone()).expect("valid request").value;
            prop_assert_eq!(&plain, &reference, "{} plain path drifted (threads={})", v.name, threads);
            // Exact pinned on the indexed snapshot: same bits.
            let exact = v.indexed
                .top_n(&base.strategy(RetrievalStrategy::Exact))
                .expect("valid request")
                .value;
            prop_assert_eq!(&exact, &reference, "{} Exact on indexed snapshot drifted (threads={})", v.name, threads);
        }
    }

    /// Property 2: probing every cluster is the exhaustive scan —
    /// item-for-item, scores bitwise, through both the backend and the
    /// request path.
    #[test]
    fn full_probe_ivf_equals_exact(variant in 0usize..10, user in 0u32..200) {
        let f = fixture();
        let v = &f.variants[variant];
        let Some(index) = &v.index else {
            // Non-metric models never build an index; the indexed
            // backend must report ineligibility, not guess.
            let backend = IndexedModel { frozen: &v.frozen, index: None };
            let template = f.catalog.template(0).expect("fixture has user 0");
            prop_assert!(backend
                .select_top_n_indexed(&f.catalog, template, 10, None, &[], Precision::F64, Parallelism::serial())
                .is_none());
            return Ok(());
        };
        let user = user % f.catalog.n_users() as u32;
        let n = 10;
        prop_assert!(f.catalog.n_items() >= 4 * n, "fixture large enough for the indexed path");
        let reference = reference_top_n(&v.frozen, &f.catalog, user, n);
        let backend = IndexedModel { frozen: &v.frozen, index: Some(index) };
        for threads in THREAD_COUNTS {
            let got = backend
                .select_top_n_indexed(
                    &f.catalog,
                    f.catalog.template(user).expect("fixture user in range"),
                    n,
                    Some(index.n_clusters()),
                    &[],
                    Precision::F64,
                    Parallelism::threads(threads),
                )
                .expect("eligible whole-catalogue request takes the indexed path");
            prop_assert_eq!(got.len(), reference.len(), "{}", v.name);
            for (g, r) in got.iter().zip(&reference) {
                prop_assert_eq!(g.0, r.0, "{} item order drifted (threads={})", v.name, threads);
                prop_assert_eq!(g.1.to_bits(), r.1.to_bits(), "{} score drifted (threads={})", v.name, threads);
            }
            // Same through the typed request path.
            let req = TopNRequest::new(user, n)
                .include_seen()
                .parallelism(Parallelism::threads(threads))
                .strategy(RetrievalStrategy::Ivf { nprobe: Some(index.n_clusters()) });
            let served = v.indexed.top_n(&req).expect("valid request").value;
            prop_assert_eq!(&served, &reference, "{} request path drifted (threads={})", v.name, threads);
        }
    }
}

/// Property 3: at the default knob, recall@10 on a seeded 10k-item
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
            Precision::F64,
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

/// Property 4a: the index round-trips through the v3 artifact — every
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
            idx.search(
                frozen,
                catalog,
                template,
                catalog.item_slots(),
                10,
                idx.default_nprobe(),
                &|_| false,
                Precision::F64,
            )
        };
        assert_eq!(search(index), search(loaded), "user {user}");
    }
}

/// Property 4b: v2 artifacts predate the `index` field — they still
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

    let v2 = json
        .replacen("\"format_version\":4", "\"format_version\":2", 1)
        .replacen(",\"index\":null", "", 1)
        .replacen(",\"precision\":null", "", 1);
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
