//! Deterministic fixtures: the program under test sees only what is
//! built here.
//!
//! Each workload's **world** — catalogue, model, index, training data —
//! is generated from the fixed [`WORLD_SEED`]; `--seed` draws the
//! **traffic** replayed against it: which users are on the panel and in
//! what order, which scores a batch asks for, which events are fed,
//! every shuffle and every model initialisation. Random worlds differ
//! from each other far more than any code change could (IVF probe cost
//! 2–10 ms and recall 0.86–1.0, HR@10 0.40–0.48 across ten world seeds),
//! so a seed-drawn world would make every metric a measure of the seed.

use crate::stats;
use crate::trace::Tracer;
use gmlfm_data::{generate_scale, FieldKind, FieldMask, ScaleConfig};
use gmlfm_par::Parallelism;
use gmlfm_serve::{FrozenModel, IvfBuildOptions, IvfIndex};
use gmlfm_service::{Catalog, ModelServer, ModelSnapshot, SeenItems};
use rand::seq::SliceRandom;

/// How big the fixtures are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The gated benchmark.
    Full,
    /// `--smoke`: every workload on shrunken fixtures (≤ 10k items, two
    /// passes), full verification, seconds not minutes.
    Smoke,
}

impl Scale {
    /// `full` at benchmark scale, `smoke` under `--smoke`.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Derives the seed of one part of the world or the traffic from its
/// seed: parts must not share a stream, and the same seed must give the
/// same parts.
pub fn subseed(seed: u64, part: u64) -> u64 {
    // SplitMix64 finaliser over a part-dependent offset.
    let mut z = seed.wrapping_add(part.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of every workload's world (see the module docs).
pub const WORLD_SEED: u64 = 2024;

/// Embedding size of the synthetic serving model (k = 8 keeps the
/// million-item tables laptop-sized, as in `BENCH_ann.json`).
pub const SERVING_K: usize = 8;

/// Users in every serving catalogue; panels draw from them.
/// `req_topn_ivf` replays all of them, in an order drawn from the seed:
/// probe cost differs several-fold between users, and a panel sampled
/// from a larger population moved that workload's median 10 % by seed.
pub const SERVING_USERS: usize = 256;

/// A catalogue-scale serving stack: `generate_scale` data (head-skewed
/// seen sets, three-feature item groups, a user side feature for
/// cold-start requests) under the trained-shape synthetic GML-FM_md
/// model, behind a [`ModelServer`].
pub struct Serving {
    /// The serving handle over generation 1.
    pub server: ModelServer,
    /// Resident memory the index build added, in MB (0 without one).
    pub index_rss_mb: f64,
}

/// Builds the serving stack. Each phase is a set-up span, so the traced
/// run can say where set-up time went.
pub fn serving(tracer: &mut Tracer, n_items: usize, with_index: bool) -> Serving {
    let dataset = tracer.span("data.generate", |_| {
        generate_scale(&ScaleConfig::new(SERVING_USERS, n_items, subseed(WORLD_SEED, 1)))
    });
    let (catalog, seen) = tracer.span("service.catalog_build", |_| {
        let catalog = Catalog::from_dataset(&dataset, &FieldMask::all(&dataset.schema));
        let mut per_user = vec![Vec::new(); dataset.n_users];
        for it in &dataset.interactions {
            per_user[it.user as usize].push(it.item);
        }
        (catalog, SeenItems::new(per_user))
    });
    let frozen = tracer.span("serve.synthetic_model", |_| {
        let item_field = dataset
            .schema
            .field_of_kind(FieldKind::Item)
            .expect("scale schema has an item field");
        let item_off = dataset.schema.offset(item_field);
        // Item-id embeddings at half scale: the trained shape (see
        // `FrozenModel::synthetic_metric_damped`).
        FrozenModel::synthetic_metric_damped(
            dataset.schema.total_dim(),
            SERVING_K,
            subseed(WORLD_SEED, 2),
            item_off..item_off + n_items,
            0.5,
        )
    });
    let rss_before = stats::rss_now_mb();
    let index = with_index.then(|| {
        tracer.span("serve.index.build", |_| {
            IvfIndex::build(&frozen, &catalog, &IvfBuildOptions::default(), Parallelism::auto())
                .expect("weighted squared-Euclidean metric model is indexable")
        })
    });
    let index_rss_mb = if with_index { stats::rss_now_mb() - rss_before } else { 0.0 };
    let server = tracer.span("service.server_new", |_| {
        ModelServer::new(ModelSnapshot {
            schema: dataset.schema.clone(),
            frozen,
            catalog: Some(catalog),
            seen: Some(seen),
            index,
        })
        .expect("fixture snapshot is consistent")
    });
    Serving { server, index_rss_mb }
}

/// `count` distinct users of the serving catalogue, drawn from the seed.
pub fn panel_users(seed: u64, count: usize) -> Vec<u32> {
    let mut users: Vec<u32> = (0..SERVING_USERS as u32).collect();
    users.shuffle(&mut gmlfm_tensor::seeded_rng(subseed(seed, 3)));
    users.truncate(count);
    users
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subseeds_differ_by_part_and_repeat_by_seed() {
        assert_eq!(subseed(2024, 1), subseed(2024, 1));
        assert_ne!(subseed(2024, 1), subseed(2024, 2));
        assert_ne!(subseed(2024, 1), subseed(7, 1));
    }

    #[test]
    fn panel_users_are_distinct_and_seeded() {
        let a = panel_users(5, 64);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
        assert_eq!(a, panel_users(5, 64));
        assert_ne!(a, panel_users(6, 64));
    }
}
