//! The vanilla Factorization Machine (Rendle, ICDM'10), trained the
//! LibFM way: per-instance SGD with the O(k·m) sum-of-squares trick.
//!
//! `ŷ(x) = w₀ + Σᵢ wᵢ xᵢ + Σᵢ Σ_{j>i} ⟨vᵢ, vⱼ⟩ xᵢ xⱼ`
//!
//! For one-hot instances with `m` active fields the second-order term is
//! `½ Σ_d [(Σ_f v_{f,d})² − Σ_f v_{f,d}²]`, evaluated in O(k·m).

use crate::common::Scorer;
use gmlfm_data::Instance;
use gmlfm_tensor::init::normal;
use gmlfm_tensor::{seeded_rng, Matrix};
use gmlfm_train::loss::squared;
use rand::seq::SliceRandom;

/// FM hyper-parameters.
#[derive(Debug, Clone)]
pub struct FmConfig {
    /// Embedding size `k`.
    pub k: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// L2 regularisation on weights and factors.
    pub reg: f64,
    /// Number of epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FmConfig {
    fn default() -> Self {
        Self { k: 16, lr: 0.01, reg: 0.01, epochs: 30, seed: 13 }
    }
}

/// Second-order factorization machine over one-hot instances.
#[derive(Debug, Clone)]
pub struct FactorizationMachine {
    w0: f64,
    w: Vec<f64>,
    v: Matrix,
    cfg: FmConfig,
    /// Workhorse buffer for the per-dimension sums.
    sum_buf: Vec<f64>,
}

impl FactorizationMachine {
    /// Creates an untrained FM over `n_features` one-hot features.
    pub fn new(n_features: usize, cfg: FmConfig) -> Self {
        let mut rng = seeded_rng(cfg.seed);
        let v = normal(&mut rng, n_features, cfg.k, 0.0, 0.01);
        Self { w0: 0.0, w: vec![0.0; n_features], v, sum_buf: vec![0.0; cfg.k], cfg }
    }

    /// Number of one-hot features `n`.
    pub fn n_features(&self) -> usize {
        self.w.len()
    }

    /// Borrow of the factor matrix `V` (used by the t-SNE case study).
    pub fn factors(&self) -> &Matrix {
        &self.v
    }

    /// Global bias `w₀` (freeze path).
    pub fn bias(&self) -> f64 {
        self.w0
    }

    /// First-order weights `w`, one per feature (freeze path).
    pub fn linear_weights(&self) -> &[f64] {
        &self.w
    }

    /// Predicts one instance in O(k·m).
    pub fn predict_one(&self, inst: &Instance) -> f64 {
        let mut linear = self.w0;
        for &f in &inst.feats {
            linear += self.w[f as usize];
        }
        let mut pair = 0.0;
        for d in 0..self.cfg.k {
            let mut s = 0.0;
            let mut s2 = 0.0;
            for &f in &inst.feats {
                let vfd = self.v[(f as usize, d)];
                s += vfd;
                s2 += vfd * vfd;
            }
            pair += s * s - s2;
        }
        linear + 0.5 * pair
    }

    /// Reference O(k·m²) prediction via the explicit double loop; used by
    /// tests to pin the sum-of-squares trick.
    pub fn predict_one_naive(&self, inst: &Instance) -> f64 {
        let mut out = self.w0;
        for &f in &inst.feats {
            out += self.w[f as usize];
        }
        for (a, &fi) in inst.feats.iter().enumerate() {
            for &fj in inst.feats.iter().skip(a + 1) {
                let mut dot = 0.0;
                for d in 0..self.cfg.k {
                    dot += self.v[(fi as usize, d)] * self.v[(fj as usize, d)];
                }
                out += dot;
            }
        }
        out
    }

    /// Trains with per-instance SGD; returns mean loss per epoch.
    pub fn fit(&mut self, train: &[Instance]) -> Vec<f64> {
        assert!(!train.is_empty(), "FactorizationMachine::fit: empty training set");
        let mut rng = seeded_rng(self.cfg.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..train.len()).collect();
        let (lr, reg, k) = (self.cfg.lr, self.cfg.reg, self.cfg.k);
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &idx in &order {
                let inst = &train[idx];
                // Forward, caching the per-dimension sums for the backward.
                let mut linear = self.w0;
                for &f in &inst.feats {
                    linear += self.w[f as usize];
                }
                let mut pair = 0.0;
                for (d, s_slot) in self.sum_buf.iter_mut().enumerate() {
                    let mut s = 0.0;
                    let mut s2 = 0.0;
                    for &f in &inst.feats {
                        let vfd = self.v[(f as usize, d)];
                        s += vfd;
                        s2 += vfd * vfd;
                    }
                    *s_slot = s;
                    pair += s * s - s2;
                }
                let pred = linear + 0.5 * pair;
                let (loss, g) = squared(pred, inst.label);
                total += loss;

                self.w0 -= lr * g;
                for &f in &inst.feats {
                    let f = f as usize;
                    self.w[f] -= lr * (g + reg * self.w[f]);
                    for d in 0..k {
                        let vfd = self.v[(f, d)];
                        // d pair / d v_{f,d} = sum_d - v_{f,d}
                        let grad = g * (self.sum_buf[d] - vfd) + reg * vfd;
                        self.v[(f, d)] -= lr * grad;
                    }
                }
            }
            losses.push(total / train.len() as f64);
        }
        losses
    }
}

impl Scorer for FactorizationMachine {
    fn scores(&self, instances: &[Instance]) -> Vec<f64> {
        instances.iter().map(|i| self.predict_one(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_data::{generate, rating_split, DatasetSpec, FieldMask};
    use proptest::prelude::*;

    #[test]
    fn fast_and_naive_predictions_agree() {
        let fm = FactorizationMachine::new(50, FmConfig { k: 8, seed: 3, ..FmConfig::default() });
        let inst = Instance::new(vec![0, 17, 44, 9], 1.0);
        let fast = fm.predict_one(&inst);
        let naive = fm.predict_one_naive(&inst);
        assert!((fast - naive).abs() < 1e-10, "{fast} vs {naive}");
    }

    proptest! {
        #[test]
        fn sum_square_trick_matches_double_loop(feats in proptest::collection::vec(0u32..40, 2..6), seed in 0u64..50) {
            let mut fm = FactorizationMachine::new(40, FmConfig { k: 6, seed, ..FmConfig::default() });
            // Give V non-trivial values.
            let mut rng = seeded_rng(seed + 1);
            fm.v = normal(&mut rng, 40, 6, 0.0, 0.5);
            let inst = Instance::new(feats, 1.0);
            let fast = fm.predict_one(&inst);
            let naive = fm.predict_one_naive(&inst);
            prop_assert!((fast - naive).abs() < 1e-9);
        }
    }

    #[test]
    fn fm_with_side_information_learns() {
        let d = generate(&DatasetSpec::AmazonAuto.config(41).scaled(0.25));
        let mask = FieldMask::all(&d.schema);
        let s = rating_split(&d, &mask, 2, 7);
        let mut fm =
            FactorizationMachine::new(d.schema.total_dim(), FmConfig { epochs: 20, ..FmConfig::default() });
        let losses = fm.fit(&s.train);
        assert!(losses.last().unwrap() < &(losses[0] * 0.85), "losses {losses:?}");
        let preds = fm.scores(&s.test);
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn fit_is_deterministic() {
        let d = generate(&DatasetSpec::AmazonAuto.config(43).scaled(0.2));
        let mask = FieldMask::all(&d.schema);
        let s = rating_split(&d, &mask, 2, 7);
        let cfg = FmConfig { epochs: 3, ..FmConfig::default() };
        let mut a = FactorizationMachine::new(d.schema.total_dim(), cfg.clone());
        let mut b = FactorizationMachine::new(d.schema.total_dim(), cfg);
        assert_eq!(a.fit(&s.train), b.fit(&s.train));
    }
}
