//! Seeded synthetic dataset generators calibrated to the paper's Table 2.
//!
//! ## Ground-truth preference model
//!
//! The generator plants exactly the structure the paper argues GML-FM
//! captures and prior FMs miss:
//!
//! 1. every entity (user, item, attribute value) gets a latent vector
//!    `z ∈ R^d`;
//! 2. item latents are a mix of their attribute latents plus item noise,
//!    so side information is genuinely predictive (the cold-start
//!    mechanism);
//! 3. the *true* affinity is **metric**, not inner-product:
//!    `s(u, i) = −‖ψ(z_u) − ψ(z_i)‖²` where `ψ` is a ground-truth feature
//!    transform — identity/linear `Gz` (linear intra-attribute feature
//!    correlations, Fig. 1a) or `tanh(G₂ tanh(G₁ z))` (non-linear
//!    correlations, Fig. 1b);
//! 4. item popularity follows a Zipf law and per-user activity is
//!    long-tailed with a 5-core floor, matching the e-commerce datasets.
//!
//! Because the true score obeys the triangle inequality in a *transformed*
//! space, a model that can learn that transform (GML-FM) is favoured over
//! one restricted to the identity transform (TransFM's plain Euclidean) or
//! to inner products (FM/NFM/DeepFM) — which is precisely the paper's
//! hypothesis, now testable end-to-end.

use crate::dataset::{Dataset, Interaction};
use crate::sampling::ZipfSampler;
use crate::schema::{FieldKind, Schema};
use gmlfm_tensor::init::{normal, standard_normal};
use gmlfm_tensor::{seeded_rng, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// How the planted intra-attribute feature correlations mix the latent
/// space (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correlation {
    /// `ψ(z) = z`: no feature correlations (plain Euclidean world).
    None,
    /// `ψ(z) = G z`: linear correlations (Fig. 1a), learnable by the
    /// Mahalanobis distance.
    Linear,
    /// `ψ(z) = tanh(G₂ tanh(G₁ z))`: non-linear correlations (Fig. 1b),
    /// requiring the DNN distance.
    Nonlinear,
}

/// Configuration of one synthetic dataset.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Dataset name (Table 2 row).
    pub name: String,
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Inclusive range of interactions per user (min ≥ 1; the paper's
    /// public datasets are 5-core, so specs use min = 5).
    pub interactions_per_user: (usize, usize),
    /// User-side attribute fields as `(name, cardinality)`.
    pub user_attrs: Vec<(String, usize)>,
    /// Item-side attribute fields as `(name, cardinality, kind)`.
    pub item_attrs: Vec<(String, usize, FieldKind)>,
    /// Ground-truth feature-correlation structure.
    pub correlation: Correlation,
    /// Zipf exponent for item popularity.
    pub zipf_s: f64,
    /// Std-dev of observation noise added to true scores.
    pub noise: f64,
    /// Latent dimensionality of the ground-truth model.
    pub latent_dim: usize,
    /// Master seed; every derived RNG is deterministic in it.
    pub seed: u64,
}

/// The six evaluation datasets of Table 2, scaled for laptop runs.
///
/// Users/items are scaled roughly ÷10 from the paper. Sparsity *ordering*
/// is preserved exactly (MovieLens densest → Mercari-Books sparsest);
/// absolute sparsity is necessarily lower because the 5-core floor cannot
/// be kept while scaling both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetSpec {
    /// Amazon-Auto (paper: 2,928 users / 1,835 items / 99.62%).
    AmazonAuto,
    /// Amazon-Office (paper: 4,905 / 2,420 / 99.55%).
    AmazonOffice,
    /// Amazon-Clothing (paper: 39,387 / 23,033 / 99.96%).
    AmazonClothing,
    /// Mercari-Ticket (paper: 3,855 / 45,998 / 99.97%).
    MercariTicket,
    /// Mercari-Books (paper: 26,080 / 367,968 / 99.99%).
    MercariBooks,
    /// MovieLens-1M (paper: 6,040 / 3,706 / 95.53%).
    MovieLens,
}

impl DatasetSpec {
    /// All six specs in Table 2 order.
    pub const ALL: [DatasetSpec; 6] = [
        DatasetSpec::AmazonAuto,
        DatasetSpec::AmazonOffice,
        DatasetSpec::AmazonClothing,
        DatasetSpec::MercariTicket,
        DatasetSpec::MercariBooks,
        DatasetSpec::MovieLens,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetSpec::AmazonAuto => "Amazon-Auto",
            DatasetSpec::AmazonOffice => "Amazon-Office",
            DatasetSpec::AmazonClothing => "Amazon-Clothing",
            DatasetSpec::MercariTicket => "Mercari-Ticket",
            DatasetSpec::MercariBooks => "Mercari-Books",
            DatasetSpec::MovieLens => "MovieLens",
        }
    }

    /// Full-scale configuration for this dataset.
    pub fn config(&self, seed: u64) -> SynthConfig {
        let s = |v: &str| v.to_string();
        match self {
            DatasetSpec::AmazonAuto => SynthConfig {
                name: s("Amazon-Auto"),
                n_users: 300,
                n_items: 1500,
                interactions_per_user: (5, 10),
                user_attrs: vec![],
                item_attrs: vec![(s("subcategory"), 18, FieldKind::ItemAttr)],
                correlation: Correlation::Linear,
                zipf_s: 1.0,
                noise: 0.25,
                latent_dim: 8,
                seed,
            },
            DatasetSpec::AmazonOffice => SynthConfig {
                name: s("Amazon-Office"),
                n_users: 500,
                n_items: 1400,
                interactions_per_user: (5, 14),
                user_attrs: vec![],
                item_attrs: vec![(s("subcategory"), 24, FieldKind::ItemAttr)],
                correlation: Correlation::Linear,
                zipf_s: 1.0,
                noise: 0.25,
                latent_dim: 8,
                seed,
            },
            DatasetSpec::AmazonClothing => SynthConfig {
                name: s("Amazon-Clothing"),
                n_users: 1200,
                n_items: 3000,
                interactions_per_user: (5, 10),
                user_attrs: vec![],
                item_attrs: vec![(s("subcategory"), 30, FieldKind::ItemAttr)],
                correlation: Correlation::Nonlinear,
                zipf_s: 1.05,
                noise: 0.25,
                latent_dim: 8,
                seed,
            },
            DatasetSpec::MercariTicket => SynthConfig {
                name: s("Mercari-Ticket"),
                n_users: 400,
                n_items: 4600,
                interactions_per_user: (5, 12),
                user_attrs: vec![],
                item_attrs: mercari_attrs(30),
                correlation: Correlation::Nonlinear,
                zipf_s: 1.15,
                noise: 0.2,
                latent_dim: 8,
                seed,
            },
            DatasetSpec::MercariBooks => SynthConfig {
                name: s("Mercari-Books"),
                n_users: 1000,
                n_items: 9000,
                interactions_per_user: (5, 12),
                user_attrs: vec![],
                item_attrs: mercari_attrs(40),
                correlation: Correlation::Nonlinear,
                zipf_s: 1.2,
                noise: 0.2,
                latent_dim: 8,
                seed,
            },
            DatasetSpec::MovieLens => SynthConfig {
                name: s("MovieLens"),
                n_users: 600,
                n_items: 360,
                interactions_per_user: (5, 30),
                user_attrs: vec![(s("gender"), 2), (s("age"), 7), (s("occupation"), 21)],
                item_attrs: vec![(s("genre"), 18, FieldKind::ItemAttr)],
                correlation: Correlation::Nonlinear,
                zipf_s: 0.9,
                noise: 0.3,
                latent_dim: 8,
                seed,
            },
        }
    }
}

fn mercari_attrs(categories: usize) -> Vec<(String, usize, FieldKind)> {
    let s = |v: &str| v.to_string();
    vec![
        (s("category"), categories, FieldKind::Category),
        (s("condition"), 5, FieldKind::Condition),
        (s("ship_method"), 5, FieldKind::Shipping),
        (s("ship_origin"), 10, FieldKind::Shipping),
        (s("ship_duration"), 7, FieldKind::Shipping),
    ]
}

impl SynthConfig {
    /// Scales user/item counts and the per-user interaction cap by
    /// `factor` (≥ 1 keeps the 5-core floor). Used by benches and tests to
    /// shrink datasets further.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let scale = |v: usize| ((v as f64 * factor).round() as usize).max(8);
        self.n_users = scale(self.n_users);
        self.n_items = scale(self.n_items);
        let (lo, hi) = self.interactions_per_user;
        self.interactions_per_user = (lo.min(self.n_items / 2).max(1), hi.clamp(2, self.n_items / 2));
        self
    }

    /// Overrides the per-user interaction range (the cold-start study of
    /// Fig. 4 needs users with as few as one training interaction).
    pub fn with_interactions(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1 && max >= min, "invalid interaction range [{min}, {max}]");
        self.interactions_per_user = (min, max);
        self
    }
}

/// Ground-truth transform `ψ` with its mixing matrices.
struct TruthTransform {
    correlation: Correlation,
    g1: Matrix,
    g2: Matrix,
}

impl TruthTransform {
    fn new(correlation: Correlation, d: usize, rng: &mut StdRng) -> Self {
        // Scale 1.6/sqrt(d) gives a strongly non-linear ψ (tanh works in
        // its curved-to-saturated range). Calibration runs showed milder
        // scales (0.6/sqrt(d)) reduce every model's headroom on the sparse
        // Mercari configs, so the stronger mixing is kept.
        let scale = 1.6 / (d as f64).sqrt();
        Self {
            correlation,
            g1: normal(rng, d, d, 0.0, 1.0).scale(scale),
            g2: normal(rng, d, d, 0.0, 1.0).scale(scale),
        }
    }

    fn apply(&self, z: &Matrix) -> Matrix {
        match self.correlation {
            Correlation::None => z.clone(),
            Correlation::Linear => z.matmul(&self.g1),
            Correlation::Nonlinear => {
                let h = z.matmul(&self.g1).map(f64::tanh);
                h.matmul(&self.g2).map(f64::tanh)
            }
        }
    }
}

/// The generator's ground-truth preference model, exposed so tests,
/// examples and calibration probes can compute oracle scores and Bayes
/// bounds for the synthetic tasks.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// `ψ(z_u)` per user, each `1×d`.
    pub user_latents: Vec<Matrix>,
    /// `ψ(z_i)` per item, each `1×d`.
    pub item_latents: Vec<Matrix>,
}

impl GroundTruth {
    /// Noise-free true affinity `s(u,i) = −‖ψ(z_u) − ψ(z_i)‖²`.
    pub fn score(&self, user: usize, item: usize) -> f64 {
        let diff = &self.user_latents[user] - &self.item_latents[item];
        -diff.norm_sq()
    }
}

/// Generates a dataset from a config. Deterministic in `config.seed`.
pub fn generate(config: &SynthConfig) -> Dataset {
    generate_with_truth(config).0
}

/// Generates a dataset plus its ground-truth preference model.
pub fn generate_with_truth(config: &SynthConfig) -> (Dataset, GroundTruth) {
    let mut rng = seeded_rng(config.seed);
    let d = config.latent_dim;

    // --- Schema -----------------------------------------------------------
    let mut fields = vec![
        ("user".to_string(), config.n_users, FieldKind::User),
        ("item".to_string(), config.n_items, FieldKind::Item),
    ];
    for (name, card) in &config.user_attrs {
        fields.push((name.clone(), *card, FieldKind::UserAttr));
    }
    for (name, card, kind) in &config.item_attrs {
        fields.push((name.clone(), *card, *kind));
    }
    let schema = Schema::new(
        fields
            .iter()
            .map(|(name, cardinality, kind)| crate::schema::Field {
                name: name.clone(),
                cardinality: *cardinality,
                kind: *kind,
            })
            .collect(),
    );
    let user_attr_fields = (2..2 + config.user_attrs.len()).collect::<Vec<_>>();
    let item_attr_fields = (2 + config.user_attrs.len()
        ..2 + config.user_attrs.len() + config.item_attrs.len())
        .collect::<Vec<_>>();

    // --- Attribute assignments and latents --------------------------------
    let truth = TruthTransform::new(config.correlation, d, &mut rng);

    // Attribute-value latents: one d-vector per (field, value).
    let user_attr_latents: Vec<Matrix> = config
        .user_attrs
        .iter()
        .map(|(_, card)| normal(&mut rng, *card, d, 0.0, 1.0))
        .collect();
    let item_attr_latents: Vec<Matrix> = config
        .item_attrs
        .iter()
        .map(|(_, card, _)| normal(&mut rng, *card, d, 0.0, 1.0))
        .collect();

    // Users: attribute values uniform; latent mixes attribute latents with
    // personal noise so user attributes carry signal too.
    let mut user_attrs = Vec::with_capacity(config.n_users);
    let mut user_latents = Vec::with_capacity(config.n_users);
    for _ in 0..config.n_users {
        let mut attrs = Vec::with_capacity(config.user_attrs.len());
        let mut z = Matrix::zeros(1, d);
        for (j, (_, card)) in config.user_attrs.iter().enumerate() {
            let v = rng.gen_range(0..*card);
            attrs.push(v);
            z.axpy(0.5, &user_attr_latents[j].row_matrix(v));
        }
        let noise = normal(&mut rng, 1, d, 0.0, 1.0);
        z.axpy(0.9, &noise);
        user_attrs.push(attrs);
        user_latents.push(truth.apply(&z));
    }

    // Items: category drawn Zipf-like (head categories dominate), other
    // attributes uniform. Item latent = mix of attribute latents + noise.
    let mut item_attrs = Vec::with_capacity(config.n_items);
    let mut item_latents = Vec::with_capacity(config.n_items);
    let category_samplers: Vec<Option<ZipfSampler>> = config
        .item_attrs
        .iter()
        .map(|(_, card, kind)| {
            if *kind == FieldKind::Category || *kind == FieldKind::ItemAttr {
                Some(ZipfSampler::new(*card, 1.0))
            } else {
                None
            }
        })
        .collect();
    for _ in 0..config.n_items {
        let mut attrs = Vec::with_capacity(config.item_attrs.len());
        let mut z = Matrix::zeros(1, d);
        for (j, (_, card, kind)) in config.item_attrs.iter().enumerate() {
            let v = match &category_samplers[j] {
                Some(sampler) => sampler.sample(&mut rng),
                None => rng.gen_range(0..*card),
            };
            attrs.push(v);
            // Category-like fields carry strong signal; shipping fields
            // carry moderate signal; condition carries almost none — this
            // plants the attribute-importance ordering of Table 6. The
            // attribute share dominates the idiosyncratic noise so that
            // side information genuinely generalises to unseen items (the
            // mechanism behind the paper's sparse-data wins).
            let weight = match kind {
                FieldKind::Category | FieldKind::ItemAttr => 1.2,
                FieldKind::Shipping => 0.45,
                FieldKind::Condition => 0.05,
                _ => 0.0,
            };
            z.axpy(weight, &item_attr_latents[j].row_matrix(v));
        }
        let noise = normal(&mut rng, 1, d, 0.0, 1.0);
        z.axpy(0.35, &noise);
        item_attrs.push(attrs);
        item_latents.push(truth.apply(&z));
    }

    // --- Interactions -------------------------------------------------------
    // Item popularity: Zipf over item ids (id 0 = most popular head item).
    let popularity = ZipfSampler::new(config.n_items, config.zipf_s);
    let (min_n, max_n) = config.interactions_per_user;
    let mut interactions = Vec::new();
    #[allow(clippy::needless_range_loop)] // user indexes latents, attrs and ids together
    for user in 0..config.n_users {
        // Long-tailed activity: u^3 pushes most users toward the 5-core floor.
        let u: f64 = rng.gen();
        let n_u = min_n + ((max_n - min_n) as f64 * u.powi(3)).round() as usize;
        let n_u = n_u.min(config.n_items);

        // Candidate pool: popularity-sampled plus uniform exploration.
        // Half the pool is popularity-driven (long-tail realism), half is
        // uniform so preference — not popularity — decides the picks.
        let pool_size = (n_u * 6 + 40).min(config.n_items);
        let mut pool: HashSet<u32> = HashSet::with_capacity(pool_size);
        while pool.len() < pool_size {
            let item = if rng.gen::<f64>() < 0.5 {
                popularity.sample(&mut rng) as u32
            } else {
                rng.gen_range(0..config.n_items) as u32
            };
            pool.insert(item);
        }

        // Score candidates with the metric ground truth + noise; keep the
        // top n_u (soft selection via noisy scores). The pool is sorted
        // first: HashSet iteration order is not deterministic, and the
        // per-candidate noise draws must line up run-to-run.
        let mut pool: Vec<u32> = pool.into_iter().collect();
        pool.sort_unstable();
        let zu = &user_latents[user];
        let mut scored: Vec<(f64, u32)> = pool
            .into_iter()
            .map(|item| {
                let zi = &item_latents[item as usize];
                let diff = zu - zi;
                let s = -diff.norm_sq() + config.noise * standard_normal(&mut rng);
                (s, item)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("scores are finite"));
        for (ts, (_, item)) in scored.into_iter().take(n_u).enumerate() {
            interactions.push(Interaction { user: user as u32, item, ts: ts as u32 });
        }
    }

    let dataset = Dataset {
        name: config.name.clone(),
        schema,
        n_users: config.n_users,
        n_items: config.n_items,
        interactions,
        user_attrs,
        item_attrs,
        user_attr_fields,
        item_attr_fields,
    };
    (dataset, GroundTruth { user_latents, item_latents })
}

/// Configuration of a catalog-scale retrieval scenario: a deterministic
/// schema + attribute tables + a light interaction set for item counts
/// up to the millions.
///
/// This is the substrate of the sharded top-N retrieval workload
/// (`bench_e2e`'s `req_topn_*` fixtures): it
/// needs a big catalogue *with side features* — so ranking exercises
/// real multi-feature candidate groups — but none of [`generate`]'s
/// ground-truth latent machinery, whose per-item latent vectors and
/// per-user candidate-pool scoring would dominate generation time long
/// before a million items. Generation here is `O(n_users + n_items)`
/// with a handful of RNG draws per entity.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Dataset name.
    pub name: String,
    /// Number of users.
    pub n_users: usize,
    /// Number of catalogue items.
    pub n_items: usize,
    /// Cardinality of the item-side `category` field.
    pub n_categories: usize,
    /// Items sampled per user for the seen sets (deduplicated, so the
    /// realised count can be slightly lower).
    pub interactions_per_user: usize,
    /// Master seed; the output is deterministic in it.
    pub seed: u64,
}

impl ScaleConfig {
    /// A scenario with `n_users` users, `n_items` items, 64 categories
    /// and 8 seen items per user.
    pub fn new(n_users: usize, n_items: usize, seed: u64) -> Self {
        Self {
            name: format!("scale-{n_items}"),
            n_users,
            n_items,
            n_categories: 64,
            interactions_per_user: 8,
            seed,
        }
    }

    /// Overrides the `category` field's cardinality. More categories
    /// give the catalogue finer attribute structure — what coarse
    /// retrieval indexes cluster on — at the cost of a wider one-hot
    /// dimension.
    pub fn categories(mut self, n: usize) -> Self {
        self.n_categories = n;
        self
    }

    /// Overrides the seen-set size sampled per user (deduplicated, so
    /// the realised count can be slightly lower).
    pub fn interactions(mut self, n: usize) -> Self {
        self.interactions_per_user = n;
        self
    }
}

/// Generates a catalog-scale dataset from a [`ScaleConfig`]:
///
/// * schema `user | item | segment (user attr) | category | condition`,
///   so candidates are three-feature groups (item id + category +
///   condition) and users carry a side feature for cold-start requests;
/// * head-heavy category assignment (squared-uniform, so a few
///   categories dominate like real catalogues) and uniform conditions;
/// * a small head-skewed interaction set per user — enough to build
///   meaningful seen sets for exclusion filtering, cheap enough for a
///   million items.
///
/// Deterministic in `config.seed`; usable everywhere a [`Dataset`] is
/// (in particular `Catalog::from_dataset` in `gmlfm-service`).
pub fn generate_scale(config: &ScaleConfig) -> Dataset {
    assert!(config.n_users > 0 && config.n_items > 0, "generate_scale: empty catalog");
    let mut rng = seeded_rng(config.seed);
    let schema = Schema::new(vec![
        crate::schema::Field { name: "user".into(), cardinality: config.n_users, kind: FieldKind::User },
        crate::schema::Field { name: "item".into(), cardinality: config.n_items, kind: FieldKind::Item },
        crate::schema::Field { name: "segment".into(), cardinality: 8, kind: FieldKind::UserAttr },
        crate::schema::Field {
            name: "category".into(),
            cardinality: config.n_categories,
            kind: FieldKind::Category,
        },
        crate::schema::Field { name: "condition".into(), cardinality: 5, kind: FieldKind::Condition },
    ]);

    let user_attrs: Vec<Vec<usize>> = (0..config.n_users).map(|_| vec![rng.gen_range(0..8)]).collect();
    let item_attrs: Vec<Vec<usize>> = (0..config.n_items)
        .map(|_| {
            // u² skews mass toward category 0 — the head-heavy shape of
            // real catalogues — without a Zipf table over the item axis.
            let u: f64 = rng.gen();
            let category = ((u * u) * config.n_categories as f64) as usize;
            vec![category.min(config.n_categories - 1), rng.gen_range(0..5)]
        })
        .collect();

    let mut interactions = Vec::with_capacity(config.n_users * config.interactions_per_user);
    let mut picked: Vec<u32> = Vec::with_capacity(config.interactions_per_user);
    for user in 0..config.n_users {
        picked.clear();
        for _ in 0..config.interactions_per_user {
            // Cubed-uniform item draw: head items dominate the seen
            // sets, mirroring the Zipf popularity of [`generate`].
            let u: f64 = rng.gen();
            let item = ((u * u * u) * config.n_items as f64) as u32;
            let item = item.min(config.n_items as u32 - 1);
            if !picked.contains(&item) {
                picked.push(item);
            }
        }
        for (ts, &item) in picked.iter().enumerate() {
            interactions.push(Interaction { user: user as u32, item, ts: ts as u32 });
        }
    }

    Dataset {
        name: config.name.clone(),
        schema,
        n_users: config.n_users,
        n_items: config.n_items,
        interactions,
        user_attrs,
        item_attrs,
        user_attr_fields: vec![2],
        item_attr_fields: vec![3, 4],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SynthConfig {
        DatasetSpec::AmazonAuto.config(42).scaled(0.3)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.item_attrs, b.item_attrs);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_config());
        let mut cfg = small_config();
        cfg.seed = 43;
        let b = generate(&cfg);
        assert_ne!(a.interactions, b.interactions);
    }

    #[test]
    fn five_core_floor_holds() {
        let d = generate(&DatasetSpec::AmazonAuto.config(1).scaled(0.5));
        for (u, c) in d.user_counts().iter().enumerate() {
            assert!(*c >= 5, "user {u} has only {c} interactions");
        }
    }

    #[test]
    fn interactions_reference_valid_ids_and_are_distinct_per_user() {
        let d = generate(&small_config());
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        for it in &d.interactions {
            assert!((it.user as usize) < d.n_users);
            assert!((it.item as usize) < d.n_items);
            assert!(seen.insert((it.user, it.item)), "duplicate pair {:?}", (it.user, it.item));
        }
    }

    #[test]
    fn popularity_is_head_heavy() {
        let d = generate(&DatasetSpec::MercariTicket.config(3).scaled(0.4));
        let counts = d.item_counts();
        let head: usize = counts.iter().take(counts.len() / 10).sum();
        let tail: usize = counts.iter().skip(9 * counts.len() / 10).sum();
        assert!(head > tail * 2, "head {head} vs tail {tail}");
    }

    #[test]
    fn sparsity_ordering_matches_table2() {
        // Scaled-down generation preserves the Table 2 sparsity ordering.
        let sparsity = |spec: DatasetSpec| generate(&spec.config(7).scaled(0.25)).stats().sparsity;
        let ml = sparsity(DatasetSpec::MovieLens);
        let office = sparsity(DatasetSpec::AmazonOffice);
        let auto = sparsity(DatasetSpec::AmazonAuto);
        let books = sparsity(DatasetSpec::MercariBooks);
        assert!(ml < office, "MovieLens {ml} should be densest (Office {office})");
        assert!(office < books, "Office {office} < Books {books}");
        assert!(auto < books, "Auto {auto} < Books {books}");
    }

    #[test]
    fn cold_start_range_allows_single_interaction_users() {
        let cfg = DatasetSpec::MovieLens.config(5).scaled(0.3).with_interactions(1, 20);
        let d = generate(&cfg);
        let counts = d.user_counts();
        assert!(counts.iter().any(|&c| c <= 3), "expected some cold users");
    }

    #[test]
    fn scale_generation_is_deterministic_and_well_formed() {
        let cfg = ScaleConfig::new(50, 20_000, 11);
        let a = generate_scale(&cfg);
        let b = generate_scale(&cfg);
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.item_attrs, b.item_attrs);
        assert_eq!(a.user_attrs, b.user_attrs);

        assert_eq!(a.n_users, 50);
        assert_eq!(a.n_items, 20_000);
        assert_eq!(a.schema.n_fields(), 5);
        assert_eq!(a.item_attrs.len(), a.n_items);
        assert_eq!(a.user_attrs.len(), a.n_users);
        for attrs in &a.item_attrs {
            assert!(attrs[0] < cfg.n_categories && attrs[1] < 5);
        }
        for it in &a.interactions {
            assert!((it.user as usize) < a.n_users && (it.item as usize) < a.n_items);
        }
        // The full feature-vector machinery works on the scale shape.
        let inst = a.instance(7, 19_999, 1.0);
        assert_eq!(inst.n_fields(), 5);
        assert!(inst.feats.iter().all(|&f| (f as usize) < a.schema.total_dim()));
    }

    #[test]
    fn scale_seen_sets_are_head_heavy_and_per_user_distinct() {
        let d = generate_scale(&ScaleConfig::new(200, 5_000, 3));
        let sets = d.user_item_sets();
        assert!(sets.iter().all(|s| !s.is_empty()), "every user has seen items");
        let mut seen_pairs = HashSet::new();
        for it in &d.interactions {
            assert!(seen_pairs.insert((it.user, it.item)), "duplicate pair");
        }
        // Cubed-uniform sampling concentrates interactions on low ids:
        // the first quarter of the id space draws ~63% of interactions.
        let head = d.interactions.iter().filter(|it| (it.item as usize) < d.n_items / 4).count();
        assert!(head * 2 > d.interactions.len(), "head items dominate: {head}/{}", d.interactions.len());
    }

    #[test]
    fn attribute_tables_cover_every_entity() {
        let d = generate(&DatasetSpec::MovieLens.config(9).scaled(0.2));
        assert_eq!(d.user_attrs.len(), d.n_users);
        assert_eq!(d.item_attrs.len(), d.n_items);
        assert_eq!(d.user_attr_fields.len(), 3);
        assert_eq!(d.item_attr_fields.len(), 1);
        // Every instance uses every field.
        let inst = d.instance(0, 0, 1.0);
        assert_eq!(inst.n_fields(), d.schema.n_fields());
    }
}
