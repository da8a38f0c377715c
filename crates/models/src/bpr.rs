//! BPR-MF: Bayesian Personalized Ranking with a matrix-factorization
//! scorer (Rendle et al., UAI'09) — the paper's pairwise learning-to-rank
//! baseline for top-n recommendation.

use crate::common::{PairCodec, Scorer};
use crate::mf::MfConfig;
use gmlfm_data::Instance;
use gmlfm_tensor::init::normal;
use gmlfm_tensor::{seeded_rng, Matrix};
use gmlfm_train::loss::bpr;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// BPR-optimised matrix factorization: `ŷ(u,i) = b_i + p_uᵀ q_i`, trained
/// on sampled `(u, i⁺, j⁻)` triples.
#[derive(Debug, Clone)]
pub struct BprMf {
    codec: PairCodec,
    bi: Vec<f64>,
    p: Matrix,
    q: Matrix,
    cfg: MfConfig,
}

impl BprMf {
    /// Creates an untrained model.
    pub fn new(codec: PairCodec, cfg: MfConfig) -> Self {
        let mut rng = seeded_rng(cfg.seed);
        let p = normal(&mut rng, codec.n_users(), cfg.k, 0.0, 0.01);
        let q = normal(&mut rng, codec.n_items(), cfg.k, 0.0, 0.01);
        Self { codec, bi: vec![0.0; codec.n_items()], p, q, cfg }
    }

    /// Trains on positive `(user, item)` pairs; negatives are resampled
    /// uniformly each epoch from items absent in `user_items`.
    /// Returns mean BPR loss per epoch.
    pub fn fit(&mut self, train_pairs: &[(u32, u32)], user_items: &[HashSet<u32>]) -> Vec<f64> {
        assert!(!train_pairs.is_empty(), "BprMf::fit: no training pairs");
        let n_items = self.codec.n_items();
        let mut rng = seeded_rng(self.cfg.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..train_pairs.len()).collect();
        let (lr, reg, k) = (self.cfg.lr, self.cfg.reg, self.cfg.k);
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &idx in &order {
                let (u, i) = train_pairs[idx];
                let (u, i) = (u as usize, i as usize);
                // Rejection-sample one negative.
                let j = loop {
                    let cand = rng.gen_range(0..n_items) as u32;
                    if !user_items[u].contains(&cand) {
                        break cand as usize;
                    }
                };
                let x_uij = self.predict_pair(u, i) - self.predict_pair(u, j);
                let (loss, g) = bpr(x_uij);
                total += loss;
                self.bi[i] -= lr * (g + reg * self.bi[i]);
                self.bi[j] -= lr * (-g + reg * self.bi[j]);
                for d in 0..k {
                    let pu = self.p[(u, d)];
                    let qi = self.q[(i, d)];
                    let qj = self.q[(j, d)];
                    self.p[(u, d)] -= lr * (g * (qi - qj) + reg * pu);
                    self.q[(i, d)] -= lr * (g * pu + reg * qi);
                    self.q[(j, d)] -= lr * (-g * pu + reg * qj);
                }
            }
            losses.push(total / train_pairs.len() as f64);
        }
        losses
    }

    /// Raw score for a `(user, item)` pair.
    pub fn predict_pair(&self, u: usize, i: usize) -> f64 {
        let mut dot = 0.0;
        for d in 0..self.cfg.k {
            dot += self.p[(u, d)] * self.q[(i, d)];
        }
        self.bi[i] + dot
    }
}

impl Scorer for BprMf {
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
    use gmlfm_data::{generate, loo_split, DatasetSpec, FieldMask};

    #[test]
    fn bpr_ranks_positives_above_random_negatives() {
        let d = generate(&DatasetSpec::AmazonAuto.config(31).scaled(0.25));
        let mask = FieldMask::base(&d.schema);
        let split = loo_split(&d, &mask, 2, 20, 5);
        let codec = PairCodec::from_schema(&d.schema);
        let mut model = BprMf::new(codec, MfConfig { epochs: 40, lr: 0.05, ..MfConfig::default() });
        let losses = model.fit(&split.train_pairs, &split.train_user_items);
        assert!(losses.last().unwrap() < &losses[0], "losses {losses:?}");

        // The trained model should rank seen positives above unseen items
        // clearly better than chance.
        let mut wins = 0usize;
        let mut total = 0usize;
        for &(u, i) in split.train_pairs.iter().take(300) {
            let pos = model.predict_pair(u as usize, i as usize);
            for j in 0..5 {
                let neg_item = (i as usize + 37 * (j + 1)) % d.n_items;
                if split.train_user_items[u as usize].contains(&(neg_item as u32)) {
                    continue;
                }
                total += 1;
                if pos > model.predict_pair(u as usize, neg_item) {
                    wins += 1;
                }
            }
        }
        let auc = wins as f64 / total as f64;
        assert!(auc > 0.75, "training AUC {auc}");
    }

    #[test]
    fn fit_is_deterministic() {
        let d = generate(&DatasetSpec::AmazonAuto.config(33).scaled(0.2));
        let mask = FieldMask::base(&d.schema);
        let split = loo_split(&d, &mask, 2, 10, 5);
        let codec = PairCodec::from_schema(&d.schema);
        let cfg = MfConfig { epochs: 3, ..MfConfig::default() };
        let mut a = BprMf::new(codec, cfg.clone());
        let mut b = BprMf::new(codec, cfg);
        assert_eq!(
            a.fit(&split.train_pairs, &split.train_user_items),
            b.fit(&split.train_pairs, &split.train_user_items)
        );
    }
}
