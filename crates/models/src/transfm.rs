//! TransFM (Pasricha & McAuley, RecSys'18), adapted from sequential to
//! general recommendation exactly as the paper does (Section 4.2):
//!
//! `ŷ(x) = w₀ + Σᵢwᵢxᵢ + Σᵢ Σ_{j>i} d(vᵢ + v'ᵢ, vⱼ) xᵢxⱼ`
//!
//! with `d` the **squared Euclidean** distance and `v'` a per-feature
//! translation vector.

use crate::graphfm::FmBase;
use gmlfm_autograd::{Graph, ParamId, ParamSet, Var};
use gmlfm_data::Instance;
use gmlfm_tensor::init::normal;
use gmlfm_tensor::seeded_rng;
use gmlfm_train::GraphModel;
use rand::rngs::StdRng;

/// TransFM hyper-parameters.
#[derive(Debug, Clone)]
pub struct TransFmConfig {
    /// Embedding size `k`.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransFmConfig {
    fn default() -> Self {
        Self { k: 16, seed: 37 }
    }
}

/// Translation-based Factorization Machine.
#[derive(Debug, Clone)]
pub struct TransFm {
    params: ParamSet,
    base: FmBase,
    /// Translation table `V' ∈ R^{n×k}`.
    v_trans: ParamId,
}

impl TransFm {
    /// Creates an untrained TransFM over `n_features` one-hot features.
    pub fn new(n_features: usize, cfg: &TransFmConfig) -> Self {
        let mut rng = seeded_rng(cfg.seed);
        let mut params = ParamSet::new();
        let base = FmBase::new(&mut params, n_features, cfg.k, &mut rng);
        let v_trans = params.add("v_trans", normal(&mut rng, n_features, cfg.k, 0.0, 0.01));
        Self { params, base, v_trans }
    }

    /// Borrow of the embedding table `V` (t-SNE case study).
    pub fn factors(&self) -> &gmlfm_tensor::Matrix {
        self.params.get(self.base.v)
    }

    /// Global bias `w₀` (freeze path).
    pub fn bias(&self) -> f64 {
        self.params.get(self.base.w0)[(0, 0)]
    }

    /// Borrow of the first-order weights `w ∈ R^{n×1}` (freeze path).
    pub fn linear_weights(&self) -> &gmlfm_tensor::Matrix {
        self.params.get(self.base.w)
    }

    /// Borrow of the translation table `V' ∈ R^{n×k}` (freeze path).
    pub fn translations(&self) -> &gmlfm_tensor::Matrix {
        self.params.get(self.v_trans)
    }
}

impl GraphModel for TransFm {
    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    fn forward_batch(
        &self,
        g: &mut Graph,
        params: &ParamSet,
        batch: &[&Instance],
        _training: bool,
        _rng: &mut StdRng,
    ) -> Var {
        let cols = FmBase::columns(batch);
        let linear = self.base.linear(g, params, &cols);
        let embeds = self.base.field_embeddings(g, params, &cols);
        let translations: Vec<Var> =
            cols.iter().map(|col| g.gather_param(params, self.v_trans, col)).collect();

        let m = embeds.len();
        let mut acc: Option<Var> = None;
        for i in 0..m {
            // v_i + v'_i is shared across all j for this i.
            let vi_t = g.add(embeds[i], translations[i]);
            for &embed_j in embeds.iter().skip(i + 1) {
                let diff = g.sub(vi_t, embed_j);
                let sq = g.square(diff);
                let dist = g.sum_rows(sq); // B x 1 squared Euclidean
                acc = Some(match acc {
                    Some(a) => g.add(a, dist),
                    None => dist,
                });
            }
        }
        let pair = acc.expect("at least two fields");
        g.add(linear, pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_data::{generate, rating_split, DatasetSpec, FieldMask};
    use gmlfm_train::{fit_regression, Scorer, TrainConfig};

    #[test]
    fn transfm_matches_hand_computed_distance_sum() {
        let model = TransFm::new(9, &TransFmConfig { k: 3, seed: 2 });
        let inst = Instance::new(vec![0, 4, 8], 1.0);
        let pred = model.score_one(&inst);
        let v = model.params.get(model.base.v);
        let vt = model.params.get(model.v_trans);
        let rows = [0usize, 4, 8];
        let mut expected = 0.0; // w0 and w start at zero
        for a in 0..3 {
            for b in a + 1..3 {
                for d in 0..3 {
                    let diff = v[(rows[a], d)] + vt[(rows[a], d)] - v[(rows[b], d)];
                    expected += diff * diff;
                }
            }
        }
        assert!((pred - expected).abs() < 1e-10, "{pred} vs {expected}");
    }

    #[test]
    fn transfm_trains_and_reduces_loss() {
        let d = generate(&DatasetSpec::AmazonAuto.config(81).scaled(0.25));
        let mask = FieldMask::all(&d.schema);
        let s = rating_split(&d, &mask, 2, 15);
        let mut model = TransFm::new(d.schema.total_dim(), &TransFmConfig::default());
        let cfg = TrainConfig { epochs: 8, lr: 0.02, ..TrainConfig::default() };
        let report = fit_regression(&mut model, &s.train, Some(&s.val), &cfg);
        assert!(
            report.train_losses.last().unwrap() < &(report.train_losses[0] * 0.9),
            "losses {:?}",
            report.train_losses
        );
    }

    #[test]
    fn distances_without_translation_are_symmetric_contributions() {
        // With v' = 0 the pairwise term is a plain squared Euclidean
        // distance, which is non-negative.
        let mut model = TransFm::new(9, &TransFmConfig { k: 3, seed: 4 });
        model.params.get_mut(model.v_trans).fill_zero();
        let inst = Instance::new(vec![0, 4, 8], 1.0);
        let pred = model.score_one(&inst);
        assert!(pred >= 0.0, "squared distances must be non-negative, got {pred}");
    }
}
