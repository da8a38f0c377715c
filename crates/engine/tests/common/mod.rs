//! Shared scaffolding for the engine's integration suites: the list of
//! freezable specs the parity suites sweep, the one-epoch fit their
//! fixtures train with, the full-sort top-N reference every serving
//! route is held to, a hand-built artifact, and the tree-based artifact
//! loader the byte-level one is checked against.
#![allow(dead_code)]

#[path = "../../../serve/tests/common/top_n_reference.rs"]
mod top_n_reference;
pub mod tree_artifact;

use gmlfm_core::{Distance, GmlFmConfig};
use gmlfm_data::{Dataset, FieldKind, Schema};
use gmlfm_engine::{Artifact, Engine, ModelSpec, Recommender, SeenItems, SplitPlan};
use gmlfm_models::fm::FmConfig;
use gmlfm_models::transfm::TransFmConfig;
use gmlfm_par::Parallelism;
use gmlfm_serve::{FrozenModel, IvfBuildOptions, IvfIndex, SecondOrder};
use gmlfm_service::Catalog;
use gmlfm_tensor::Matrix;
use gmlfm_train::TrainConfig;
use top_n_reference::full_sort_top_n;

/// Every spec whose estimator has a frozen serving form, covering all
/// transform/distance/weight corners of GML-FM plus FM and TransFM.
pub fn freezable_specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::gml_fm_md(6),
        ModelSpec::gml_fm(GmlFmConfig::mahalanobis(6).without_weight()),
        ModelSpec::gml_fm(GmlFmConfig::euclidean_plain(6)),
        ModelSpec::gml_fm_dnn(6, 0),
        ModelSpec::gml_fm_dnn(6, 2),
        ModelSpec::gml_fm(GmlFmConfig::dnn(6, 1).with_distance(Distance::Manhattan)),
        ModelSpec::gml_fm(GmlFmConfig::dnn(6, 1).with_distance(Distance::Chebyshev)),
        ModelSpec::gml_fm(GmlFmConfig::dnn(6, 1).with_distance(Distance::Cosine)),
        ModelSpec::fm(FmConfig { k: 6, epochs: 1, ..FmConfig::default() }),
        ModelSpec::trans_fm(TransFmConfig { k: 6, seed: 29 }),
    ]
}

/// `spec` trained for one epoch on `dataset` under the top-n split.
pub fn fit_topn(dataset: &Dataset, spec: ModelSpec) -> Recommender {
    Engine::builder()
        .dataset(dataset.clone())
        .split(SplitPlan::topn(5))
        .spec(spec)
        .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
        .fit()
        .expect("freezable specs support the top-n task")
}

/// The exact reference over the whole catalogue: the shared full sort.
pub fn reference_top_n(model: &FrozenModel, catalog: &Catalog, user: u32, n: usize) -> Vec<(u32, f64)> {
    let template = catalog.template(user).expect("user in catalog");
    full_sort_top_n(model, catalog, template, catalog.item_slots(), 0..catalog.n_items() as u32, n)
}

/// A GML-FM_md artifact assembled by hand, no training: `n_users` users,
/// `n_items` items in three categories, `k = 3`, with a catalogue, seen
/// sets and an IVF index — every optional member present.
/// `hand_built_artifact(4, 6)` is what `fixtures/gml_fm_md_i8.json` holds,
/// less the retired `precision` member the fixture still carries.
pub fn hand_built_artifact(n_users: usize, n_items: usize) -> Artifact {
    let (n_cats, k) = (3usize, 3usize);
    let schema = Schema::from_specs(&[
        ("user", n_users, FieldKind::User),
        ("item", n_items, FieldKind::Item),
        ("category", n_cats, FieldKind::Category),
    ]);
    let n = n_users + n_items + n_cats;
    let value = |i: usize, salt: usize| ((i * 7 + salt * 3) % 11) as f64 / 9.0 - 0.5;
    let v = Matrix::from_vec(n, k, (0..n * k).map(|i| value(i, 1)).collect());
    let v_hat = Matrix::from_vec(n, k, (0..n * k).map(|i| value(i, 2) * 1.5).collect());
    let q = (0..n).map(|f| v_hat.row(f).iter().map(|x| x * x).sum()).collect();
    let h = Some((0..k).map(|j| 1.0 / (j as f64 + 3.0)).collect());
    let w = (0..n).map(|f| value(f, 5) / 3.0).collect();
    let second = SecondOrder::metric(v_hat, q, h, Distance::SquaredEuclidean);
    let frozen = FrozenModel::from_parts(0.25, w, v, second);
    let (item0, cat0) = (n_users as u32, (n_users + n_items) as u32);
    let catalog = Catalog::new(
        vec![1, 2],
        (0..n_users as u32).map(|u| vec![u, item0, cat0]).collect(),
        (0..n_items as u32).map(|i| vec![item0 + i, cat0 + i % n_cats as u32]).collect(),
    );
    let seen = SeenItems::new(vec![vec![5, 1], vec![], vec![3, 0, 2]]);
    let index = IvfIndex::build(&frozen, &catalog, &IvfBuildOptions::default(), Parallelism::serial())
        .expect("a metric model indexes");
    Artifact::new(ModelSpec::gml_fm_md(k), &schema, &frozen, Some(catalog), Some(seen), Some(&index))
}
