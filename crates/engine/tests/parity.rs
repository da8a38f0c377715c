//! The engine's parity suite: every serving route of a trained model is
//! held to the one slow reference, over one fitted fixture.
//!
//! The fixture fits each of the 10 freezable [`ModelSpec`] variants once
//! and keeps, per variant, the trained [`Recommender`], the same model
//! after `artifact → JSON → Engine::load_json`, a [`ModelServer`] whose
//! snapshot carries an [`IvfIndex`] when the model is indexable, and a
//! loopback [`NetServer`] over the trained recommender's own server.
//!
//! * **Top-N.** For every user drawn and `n ∈ {1, 10, C, C + 10}`, the
//!   wrapper, the reloaded recommender, the indexed snapshot pinned to
//!   `Exact`, the same snapshot probing every cluster, and a wire
//!   request return the full-sort reference's ids and score bits
//!   ([`common::reference_top_n`]: score descending, ties by ascending
//!   item id). A request runs on the thread that received it, so there
//!   is no request-side thread count to vary.
//! * **Score.** The same routes, plus the shared server, return the bits
//!   of [`FrozenModel::predict_feats`].
//! * **Threads.** Batch scoring and the evaluation protocols give the
//!   serial bits at every thread count: the `gmlfm-par` helpers split
//!   work into contiguous blocks and merge them in input order, and every
//!   per-item computation is pure.

mod common;

use common::{fit_topn, freezable_specs, reference_top_n};
use gmlfm_data::{generate, loo_split, Dataset, DatasetSpec, FieldMask, Instance, LooSplit};
use gmlfm_engine::{Engine, ModelServer, ModelSpec, Recommender, ScoreRequest, SplitPlan, TopNRequest};
use gmlfm_eval::{evaluate_rating, evaluate_topn_frozen_with};
use gmlfm_net::{NetClient, NetReply, NetRequest, NetServer, ServerConfig};
use gmlfm_par::Parallelism;
use gmlfm_serve::{scan_top_n, FrozenModel, IvfBuildOptions, IvfIndex, Precision, RetrievalStrategy};
use gmlfm_service::{Catalog, IndexedModel, ScoringBackend};
use gmlfm_train::{Scorer, TrainConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

const THREAD_COUNTS: [usize; 3] = [1, 2, 5];

struct Variant {
    name: &'static str,
    rec: Recommender,
    reloaded: Recommender,
    /// The trained snapshot with an index built at `min_candidates: 1`
    /// (none for models without the metric linearisation).
    indexed: ModelServer,
    /// Probing this many clusters is the exhaustive scan.
    n_clusters: Option<usize>,
    net: NetServer,
}

struct Fixture {
    dataset: Dataset,
    mask: FieldMask,
    split: LooSplit,
    variants: Vec<Variant>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = generate(&DatasetSpec::AmazonAuto.config(97).scaled(0.15));
        let mask = FieldMask::all(&dataset.schema);
        let split = loo_split(&dataset, &mask, 2, 20, 6);
        let variants = freezable_specs()
            .into_iter()
            .map(|spec| {
                let name = spec.display_name();
                let rec = fit_topn(&dataset, spec);
                let reloaded =
                    Engine::load_json(&rec.artifact().expect("freezable").to_json()).expect("round trip");
                let mut snapshot = rec.serve().expect("freezable").snapshot().1.clone();
                let (frozen, catalog) =
                    (&snapshot.frozen, snapshot.catalog.as_ref().expect("fit keeps a catalog"));
                let opts = IvfBuildOptions { min_candidates: 1, ..IvfBuildOptions::default() };
                let index = IvfIndex::build(frozen, catalog, &opts, Parallelism::auto());
                // The full-probe route below is the index's only when the
                // index takes whole-catalogue requests at n = 10.
                let backend = IndexedModel { frozen, index: index.as_ref() };
                let (template, serial) = (catalog.template(0).expect("user 0"), Parallelism::serial());
                let probed =
                    backend.select_top_n_indexed(catalog, template, 10, None, &[], Precision::F64, serial);
                assert_eq!(probed.is_some(), index.is_some(), "{name}: probed exactly when indexed");
                let n_clusters = index.as_ref().map(IvfIndex::n_clusters);
                snapshot.index = index;
                let indexed = ModelServer::new(snapshot).expect("consistent snapshot");
                let net = rec.serve_net("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
                Variant { name, rec, reloaded, indexed, n_clusters, net }
            })
            .collect();
        Fixture { dataset, mask, split, variants }
    })
}

/// One request over loopback TCP.
fn over_the_wire(net: &NetServer, req: NetRequest) -> NetReply {
    NetClient::connect(net.local_addr())
        .expect("resolve loopback")
        .request(&req)
        .expect("served")
        .reply
}

fn bits(ranking: &[(u32, f64)]) -> Vec<(u32, u64)> {
    ranking.iter().map(|&(item, score)| (item, score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every top-N route of every variant returns the reference's ids
    /// and score bits.
    #[test]
    fn every_top_n_route_returns_the_reference(user in 0u32..200) {
        for v in &fixture().variants {
            let (frozen, catalog) = (v.rec.frozen().expect("freezable"), v.rec.catalog().expect("catalog"));
            let user = user % catalog.n_users() as u32;
            let c = catalog.n_items();
            for n in [1, 10, c, c + 10] {
                let want = bits(&reference_top_n(frozen, catalog, user, n));
                let req = TopNRequest::new(user, n).include_seen();
                let on_index = |how| v.indexed.top_n(&req.clone().strategy(how)).expect("valid");
                let wire = match over_the_wire(&v.net, NetRequest::TopN(req.clone())) {
                    NetReply::TopN(ranking) => ranking,
                    other => panic!("{}: not a top-n reply: {other:?}", v.name),
                };
                let routes = [
                    ("wrapper", v.rec.handle_top_n(&req).expect("valid").value),
                    ("reloaded", v.reloaded.handle_top_n(&req).expect("valid").value),
                    ("exact", on_index(RetrievalStrategy::Exact).value),
                    ("full probe", on_index(RetrievalStrategy::Ivf { nprobe: v.n_clusters }).value),
                    ("wire", wire),
                ];
                for (route, got) in routes {
                    let at = format!("{} {route}: user={user} n={n}", v.name);
                    prop_assert_eq!(bits(&got), want.clone(), "{}", at);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every score route of every variant returns `predict_feats`' bits.
    #[test]
    fn every_score_route_returns_predict_feats(raw_feats in proptest::collection::vec(0u32..100_000, 1..6)) {
        for v in &fixture().variants {
            let n_features = v.rec.schema().total_dim() as u32;
            let mut feats: Vec<u32> = raw_feats.iter().map(|f| f % n_features).collect();
            feats.sort_unstable();
            feats.dedup();
            let want = v.rec.frozen().expect("freezable").predict_feats(&feats).to_bits();
            let req = ScoreRequest::feats(feats.clone());
            let served = v.rec.serve().expect("freezable").score(&req).expect("in-range feats");
            prop_assert_eq!(served.generation, 1, "fresh fits serve generation 1");
            let wire = match over_the_wire(&v.net, NetRequest::Score(req.clone())) {
                NetReply::Score(score) => score,
                other => panic!("{}: not a score reply: {other:?}", v.name),
            };
            let routes = [
                ("wrapper", v.rec.score_feats(&feats).expect("in-range feats")),
                ("reloaded", v.reloaded.score_feats(&feats).expect("in-range feats")),
                ("server", served.value),
                ("indexed", v.indexed.score(&req).expect("in-range feats").value),
                ("wire", wire),
            ];
            for (route, got) in routes {
                prop_assert_eq!(got.to_bits(), want, "{} {} on {:?}", v.name, route, &feats);
            }
        }
    }
}

/// A scorer that forces a fixed parallelism through the frozen batch
/// path, so `evaluate_rating` can be compared across thread counts.
struct ParScorer<'m>(&'m FrozenModel, Parallelism);

impl Scorer for ParScorer<'_> {
    fn scores(&self, instances: &[Instance]) -> Vec<f64> {
        self.0.scores_with(instances, self.1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel batch scoring is bit-identical to per-instance `predict`
    /// for random instance batches and thread counts.
    #[test]
    fn scores_with_parallel_is_bit_identical(
        variant in 0usize..10,
        raw in proptest::collection::vec(proptest::collection::vec(0u32..100_000, 1..5), 1..60),
    ) {
        let v = &fixture().variants[variant];
        let (name, model) = (v.name, v.rec.frozen().expect("freezable"));
        let n = model.n_features() as u32;
        let instances: Vec<Instance> = raw
            .into_iter()
            .map(|feats| {
                let mut feats: Vec<u32> = feats.into_iter().map(|x| x % n).collect();
                feats.sort_unstable();
                feats.dedup();
                Instance::new(feats, 1.0)
            })
            .collect();
        let serial: Vec<f64> = instances.iter().map(|inst| model.predict(inst)).collect();
        for t in THREAD_COUNTS {
            let par = model.scores_with(&instances, Parallelism::threads(t));
            prop_assert_eq!(
                par.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                serial.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "{} at {} threads", name, t
            );
        }
    }

    /// The frozen leave-one-out protocol produces bit-identical per-user
    /// metric vectors at every thread count.
    #[test]
    fn evaluate_topn_frozen_parallel_is_bit_identical(variant in 0usize..10) {
        let f = fixture();
        let v = &f.variants[variant];
        let (name, model) = (v.name, v.rec.frozen().expect("freezable"));
        let serial = evaluate_topn_frozen_with(
            model, &f.dataset, &f.mask, &f.split.test, 10, Parallelism::serial(),
        );
        for t in THREAD_COUNTS {
            let par = evaluate_topn_frozen_with(
                model, &f.dataset, &f.mask, &f.split.test, 10, Parallelism::threads(t),
            );
            prop_assert_eq!(&par.per_user_hr, &serial.per_user_hr, "{} HR at {} threads", name, t);
            prop_assert_eq!(
                par.per_user_ndcg.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                serial.per_user_ndcg.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "{} NDCG at {} threads", name, t
            );
            prop_assert_eq!(par.hr.to_bits(), serial.hr.to_bits());
            prop_assert_eq!(par.ndcg.to_bits(), serial.ndcg.to_bits());
        }
    }

    /// Rating evaluation through the parallel batch scorer matches the
    /// serial scorer bit-for-bit at every thread count.
    #[test]
    fn evaluate_rating_parallel_is_bit_identical(variant in 0usize..10) {
        let f = fixture();
        let v = &f.variants[variant];
        let (name, model) = (v.name, v.rec.frozen().expect("freezable"));
        let test: Vec<Instance> = f.split.train.iter().take(300).cloned().collect();
        let serial = evaluate_rating(&ParScorer(model, Parallelism::serial()), &test);
        for t in THREAD_COUNTS {
            let par = evaluate_rating(&ParScorer(model, Parallelism::threads(t)), &test);
            prop_assert_eq!(par.rmse.to_bits(), serial.rmse.to_bits(), "{} RMSE at {} threads", name, t);
            prop_assert_eq!(par.mae.to_bits(), serial.mae.to_bits(), "{} MAE at {} threads", name, t);
            prop_assert_eq!(par.n, serial.n);
        }
    }
}

/// Equal-score candidates must rank by ascending item id on both paths:
/// a model with zero interaction weights scores every item identically,
/// so the whole ranking is decided by the tie contract.
#[test]
fn exact_ties_rank_by_item_id_on_both_paths() {
    use gmlfm_serve::SecondOrder;
    use gmlfm_tensor::Matrix;
    let n_items = 57usize;
    let dim = 1 + n_items;
    let frozen = FrozenModel::from_parts(0.5, vec![0.0; dim], Matrix::zeros(dim, 4), SecondOrder::Dot);
    let catalog =
        Catalog::new(vec![1], vec![vec![0u32, 1]], (0..n_items as u32).map(|i| vec![1 + i]).collect());
    let reference = reference_top_n(&frozen, &catalog, 0, 10);
    let expected: Vec<(u32, f64)> = (0..10u32).map(|i| (i, 0.5)).collect();
    assert_eq!(reference, expected, "full sort ranks ties by ascending item id");
    let candidates: Vec<u32> = (0..n_items as u32).collect();
    let template = catalog.template(0).expect("user");
    let got = scan_top_n(&frozen, &catalog, template, catalog.item_slots(), &candidates, 10);
    assert_eq!(got, expected);
}

/// The engine's builder-level `threads(..)` knob must not change
/// rankings or holdout metrics either.
#[test]
fn engine_threads_knob_is_output_invariant() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(93).scaled(0.15));
    let build = |threads: usize| {
        Engine::builder()
            .dataset(dataset.clone())
            .split(SplitPlan::topn(5))
            .spec(ModelSpec::gml_fm_md(6))
            .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
            .threads(threads)
            .fit()
            .expect("pipeline")
    };
    let serial = build(1);
    let parallel = build(5);
    assert_eq!(parallel.threads(), 5);
    for user in 0..8u32 {
        assert_eq!(serial.top_n(user, 10).unwrap(), parallel.top_n(user, 10).unwrap(), "user {user}");
    }
    let a = serial.evaluate_topn(10).unwrap();
    let b = parallel.evaluate_topn(10).unwrap();
    assert_eq!(a.per_user_hr, b.per_user_hr);
    assert_eq!(a.per_user_ndcg, b.per_user_ndcg);
}
