//! The one full-sort top-N reference of the integration suites, included
//! by `#[path]` from the serve, service and engine tests.
//!
//! Every fast top-N path — the list scan, the block scan, the
//! group memo, the IVF probe — must return this function's ids and score
//! bits. It scores with the per-item `TopNRanker::score`, which
//! `rank.rs`'s unit tests hold to `gmlfm_core::reference` (Eq. 3), so
//! top-N reference → per-item ranker → Eq. 3 reference is one chain of
//! trust. Callers compute `survivors` themselves, never through the
//! exclusion code under test.

use gmlfm_serve::{rank_cmp, FrozenModel, ItemFeatureSource};

/// The top `n` of `survivors`: one ranker over `template`, each
/// survivor's group from `items` scored per item, stable-sorted under
/// `rank_cmp` (score descending, item id ascending), truncated.
pub fn full_sort_top_n<S: ItemFeatureSource + ?Sized>(
    model: &FrozenModel,
    items: &S,
    template: &[u32],
    item_slots: &[usize],
    survivors: impl IntoIterator<Item = u32>,
    n: usize,
) -> Vec<(u32, f64)> {
    let mut ranker = model.ranker(template, item_slots);
    let mut scored: Vec<(u32, f64)> = survivors
        .into_iter()
        .map(|item| (item, ranker.score(items.features_of(item))))
        .collect();
    scored.sort_by(rank_cmp);
    scored.truncate(n);
    scored
}
