//! Shared scaffolding for the engine's integration suites: the list of
//! freezable specs every parity suite sweeps, and the full-sort top-N
//! reference the retrieval suites are held to.
#![allow(dead_code)]

use gmlfm_core::{Distance, GmlFmConfig};
use gmlfm_engine::ModelSpec;
use gmlfm_models::fm::FmConfig;
use gmlfm_models::transfm::TransFmConfig;
use gmlfm_serve::{rank_cmp, FrozenModel};
use gmlfm_service::Catalog;

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

/// The exact reference: one ranker over the whole catalogue, stable
/// sort under the shared total order, truncate.
pub fn reference_top_n(model: &FrozenModel, catalog: &Catalog, user: u32, n: usize) -> Vec<(u32, f64)> {
    let template = catalog.template(user).expect("user in catalog");
    let mut ranker = model.ranker(template, catalog.item_slots());
    let mut scored: Vec<(u32, f64)> = (0..catalog.n_items() as u32)
        .map(|item| (item, ranker.score(catalog.item_features(item).expect("item in catalog"))))
        .collect();
    scored.sort_by(rank_cmp);
    scored.truncate(n);
    scored
}
