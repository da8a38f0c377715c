//! Matrix factorization baselines for rating prediction: MF and PMF.

use crate::common::{PairCodec, Scorer};
use gmlfm_data::Instance;
use gmlfm_tensor::init::normal;
use gmlfm_tensor::{seeded_rng, Matrix};
use gmlfm_train::loss::squared;
use rand::seq::SliceRandom;

/// Training hyper-parameters shared by the hand-derived factorization
/// models in this module.
#[derive(Debug, Clone)]
pub struct MfConfig {
    /// Embedding size `k`.
    pub k: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// L2 regularisation strength (the Gaussian-prior precision in PMF).
    pub reg: f64,
    /// Number of epochs.
    pub epochs: usize,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for MfConfig {
    fn default() -> Self {
        Self { k: 16, lr: 0.02, reg: 0.02, epochs: 30, seed: 7 }
    }
}

/// Biased matrix factorization (Koren-style):
/// `ŷ(u,i) = μ + b_u + b_i + p_uᵀ q_i`, trained with per-instance SGD on
/// the squared loss.
#[derive(Debug, Clone)]
pub struct MatrixFactorization {
    codec: PairCodec,
    mu: f64,
    bu: Vec<f64>,
    bi: Vec<f64>,
    p: Matrix,
    q: Matrix,
    cfg: MfConfig,
}

impl MatrixFactorization {
    /// Creates an untrained model.
    pub fn new(codec: PairCodec, cfg: MfConfig) -> Self {
        let mut rng = seeded_rng(cfg.seed);
        let p = normal(&mut rng, codec.n_users(), cfg.k, 0.0, 0.01);
        let q = normal(&mut rng, codec.n_items(), cfg.k, 0.0, 0.01);
        Self { codec, mu: 0.0, bu: vec![0.0; codec.n_users()], bi: vec![0.0; codec.n_items()], p, q, cfg }
    }

    /// Trains on labelled instances; returns the mean training loss per
    /// epoch.
    pub fn fit(&mut self, train: &[Instance]) -> Vec<f64> {
        let mut rng = seeded_rng(self.cfg.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..train.len()).collect();
        let (lr, reg) = (self.cfg.lr, self.cfg.reg);
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &idx in &order {
                let inst = &train[idx];
                let (u, i) = self.codec.decode(inst);
                let pred = self.predict_pair(u, i);
                let (loss, g) = squared(pred, inst.label);
                total += loss;
                self.mu -= lr * g;
                self.bu[u] -= lr * (g + reg * self.bu[u]);
                self.bi[i] -= lr * (g + reg * self.bi[i]);
                for d in 0..self.cfg.k {
                    let pu = self.p[(u, d)];
                    let qi = self.q[(i, d)];
                    self.p[(u, d)] -= lr * (g * qi + reg * pu);
                    self.q[(i, d)] -= lr * (g * pu + reg * qi);
                }
            }
            losses.push(total / train.len().max(1) as f64);
        }
        losses
    }

    /// Raw prediction for a `(user, item)` pair.
    pub fn predict_pair(&self, u: usize, i: usize) -> f64 {
        let mut dot = 0.0;
        for d in 0..self.cfg.k {
            dot += self.p[(u, d)] * self.q[(i, d)];
        }
        self.mu + self.bu[u] + self.bi[i] + dot
    }
}

impl Scorer for MatrixFactorization {
    fn scores(&self, instances: &[Instance]) -> Vec<f64> {
        instances
            .iter()
            .map(|inst| {
                let (u, i) = self.codec.decode(inst);
                self.predict_pair(u, i)
            })
            .collect()
    }
}

/// Probabilistic matrix factorization (Mnih & Salakhutdinov, NIPS'08):
/// `ŷ(u,i) = p_uᵀ q_i` with zero-mean Gaussian priors on both factor
/// matrices, equivalent to L2-regularised SGD on the squared loss.
#[derive(Debug, Clone)]
pub struct Pmf {
    codec: PairCodec,
    p: Matrix,
    q: Matrix,
    cfg: MfConfig,
}

impl Pmf {
    /// Creates an untrained model.
    pub fn new(codec: PairCodec, cfg: MfConfig) -> Self {
        let mut rng = seeded_rng(cfg.seed);
        let p = normal(&mut rng, codec.n_users(), cfg.k, 0.0, 0.01);
        let q = normal(&mut rng, codec.n_items(), cfg.k, 0.0, 0.01);
        Self { codec, p, q, cfg }
    }

    /// Trains on labelled instances; returns mean loss per epoch.
    pub fn fit(&mut self, train: &[Instance]) -> Vec<f64> {
        let mut rng = seeded_rng(self.cfg.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..train.len()).collect();
        let (lr, reg) = (self.cfg.lr, self.cfg.reg);
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &idx in &order {
                let inst = &train[idx];
                let (u, i) = self.codec.decode(inst);
                let pred = self.predict_pair(u, i);
                let (loss, g) = squared(pred, inst.label);
                total += loss;
                for d in 0..self.cfg.k {
                    let pu = self.p[(u, d)];
                    let qi = self.q[(i, d)];
                    self.p[(u, d)] -= lr * (g * qi + reg * pu);
                    self.q[(i, d)] -= lr * (g * pu + reg * qi);
                }
            }
            losses.push(total / train.len().max(1) as f64);
        }
        losses
    }

    /// Raw prediction for a `(user, item)` pair.
    pub fn predict_pair(&self, u: usize, i: usize) -> f64 {
        let mut dot = 0.0;
        for d in 0..self.cfg.k {
            dot += self.p[(u, d)] * self.q[(i, d)];
        }
        dot
    }
}

impl Scorer for Pmf {
    fn scores(&self, instances: &[Instance]) -> Vec<f64> {
        instances
            .iter()
            .map(|inst| {
                let (u, i) = self.codec.decode(inst);
                self.predict_pair(u, i)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_data::{generate, rating_split, DatasetSpec, FieldMask};

    fn tiny_split() -> (PairCodec, Vec<Instance>, Vec<Instance>) {
        let d = generate(&DatasetSpec::AmazonAuto.config(21).scaled(0.25));
        let mask = FieldMask::base(&d.schema);
        let s = rating_split(&d, &mask, 2, 3);
        (PairCodec::from_schema(&d.schema), s.train, s.test)
    }

    #[test]
    fn mf_loss_decreases_and_beats_constant_predictor() {
        let (codec, train, test) = tiny_split();
        let mut mf = MatrixFactorization::new(codec, MfConfig { epochs: 25, ..MfConfig::default() });
        let losses = mf.fit(&train);
        assert!(losses.last().unwrap() < &(losses[0] * 0.8), "losses {losses:?}");
        // The model separates held-out positives from negatives: the mean
        // score of positive test instances must exceed that of negatives
        // (a constant predictor scores them identically).
        let preds = mf.scores(&test);
        let mut pos = (0.0, 0usize);
        let mut neg = (0.0, 0usize);
        for (p, i) in preds.iter().zip(&test) {
            if i.label > 0.0 {
                pos = (pos.0 + p, pos.1 + 1);
            } else {
                neg = (neg.0 + p, neg.1 + 1);
            }
        }
        let (pos_mean, neg_mean) = (pos.0 / pos.1 as f64, neg.0 / neg.1 as f64);
        assert!(pos_mean > neg_mean, "pos mean {pos_mean} vs neg mean {neg_mean}");
    }

    #[test]
    fn pmf_trains_and_scores_finitely() {
        let (codec, train, test) = tiny_split();
        let mut pmf = Pmf::new(codec, MfConfig { epochs: 15, ..MfConfig::default() });
        let losses = pmf.fit(&train);
        assert!(losses.iter().all(|l| l.is_finite()));
        assert!(pmf.scores(&test).iter().all(|s| s.is_finite()));
    }

    #[test]
    fn training_is_deterministic() {
        let (codec, train, _) = tiny_split();
        let cfg = MfConfig { epochs: 5, ..MfConfig::default() };
        let mut a = MatrixFactorization::new(codec, cfg.clone());
        let mut b = MatrixFactorization::new(codec, cfg);
        let la = a.fit(&train);
        let lb = b.fit(&train);
        assert_eq!(la, lb);
    }
}
