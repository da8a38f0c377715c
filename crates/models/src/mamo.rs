//! MAMO-lite: a memory-augmented meta-learning cold-start baseline in the
//! spirit of MAMO (Dong et al., KDD'20), used for the paper's Figure 4.
//!
//! The full MAMO couples two memory matrices to a MeLU-style base model.
//! This implementation keeps the two properties that matter for its role
//! as a cold-start comparator and is listed under "Substitutions" in the
//! [crate docs](crate):
//!
//! 1. **personalised initialisation** — a user's embedding is initialised
//!    from a global vector plus attribute-conditioned memory rows
//!    (profile-based memory `M_u` in MAMO), so a brand-new user starts
//!    from the experience of similar users rather than from zero;
//! 2. **local adaptation + meta-update** — each user task adapts its
//!    embedding with a few SGD steps on its support set; the initialiser
//!    is then moved toward the adapted solution (first-order/Reptile
//!    meta-gradient), while item parameters accumulate task gradients.

use gmlfm_tensor::init::normal;
use gmlfm_tensor::{seeded_rng, Matrix};
use gmlfm_train::loss::squared;
use rand::seq::SliceRandom;

/// One meta-learning task: a user described by attribute values with a
/// support set of `(item, label)` interactions.
#[derive(Debug, Clone)]
pub struct MamoTask {
    /// Attribute value per user-attribute field (may be empty).
    pub profile: Vec<usize>,
    /// Support interactions `(item, target)`.
    pub support: Vec<(usize, f64)>,
}

/// MAMO-lite hyper-parameters.
#[derive(Debug, Clone)]
pub struct MamoConfig {
    /// Embedding size `k`.
    pub k: usize,
    /// Local-adaptation learning rate.
    pub local_lr: f64,
    /// Meta learning rate (Reptile interpolation and item updates).
    pub meta_lr: f64,
    /// Local adaptation steps per task.
    pub local_steps: usize,
    /// Meta-training epochs over all tasks.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MamoConfig {
    fn default() -> Self {
        Self { k: 16, local_lr: 0.05, meta_lr: 0.05, local_steps: 5, epochs: 10, seed: 47 }
    }
}

/// Memory-augmented meta-optimisation baseline.
#[derive(Debug, Clone)]
pub struct MamoLite {
    /// Item embeddings.
    q: Matrix,
    /// Item biases.
    bi: Vec<f64>,
    /// Global user-embedding initialiser.
    theta0: Vec<f64>,
    /// Attribute memories: one `cardinality × k` matrix per profile field.
    memories: Vec<Matrix>,
    cfg: MamoConfig,
}

impl MamoLite {
    /// Creates an untrained model. `profile_cards` gives the cardinality
    /// of each user-attribute field (empty slice for datasets without
    /// user attributes).
    pub fn new(n_items: usize, profile_cards: &[usize], cfg: MamoConfig) -> Self {
        let mut rng = seeded_rng(cfg.seed);
        let q = normal(&mut rng, n_items, cfg.k, 0.0, 0.01);
        let memories = profile_cards
            .iter()
            .map(|&card| normal(&mut rng, card, cfg.k, 0.0, 0.01))
            .collect();
        Self { q, bi: vec![0.0; n_items], theta0: vec![0.0; cfg.k], memories, cfg }
    }

    /// Personalised initialisation: `θ_u = θ₀ + Σ_f M_f[profile_f]`.
    fn init_user(&self, profile: &[usize]) -> Vec<f64> {
        let mut theta = self.theta0.clone();
        for (f, &value) in profile.iter().enumerate() {
            for (t, m) in theta.iter_mut().zip(self.memories[f].row(value)) {
                *t += m;
            }
        }
        theta
    }

    /// Local adaptation: a few SGD steps on the support set, optionally
    /// accumulating item gradients into `item_grads`.
    fn adapt(&self, theta: &mut [f64], support: &[(usize, f64)], mut item_grads: Option<&mut Matrix>) {
        for _ in 0..self.cfg.local_steps {
            for &(item, target) in support {
                let pred = self.score_with(theta, item);
                let (_, g) = squared(pred, target);
                for d in 0..self.cfg.k {
                    let qd = self.q[(item, d)];
                    theta[d] -= self.cfg.local_lr * g * qd;
                    if let Some(grads) = item_grads.as_deref_mut() {
                        grads[(item, d)] += g * theta[d];
                    }
                }
            }
        }
    }

    fn score_with(&self, theta: &[f64], item: usize) -> f64 {
        let mut dot = self.bi[item];
        for (d, &t) in theta.iter().enumerate() {
            dot += t * self.q[(item, d)];
        }
        dot
    }

    /// Meta-trains over the task distribution; returns the mean support
    /// loss (after adaptation) per epoch.
    pub fn fit(&mut self, tasks: &[MamoTask]) -> Vec<f64> {
        assert!(!tasks.is_empty(), "MamoLite::fit: no tasks");
        let mut rng = seeded_rng(self.cfg.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        let mut item_grads = Matrix::zeros(self.q.rows(), self.q.cols());
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            let mut count = 0usize;
            for &t in &order {
                let task = &tasks[t];
                if task.support.is_empty() {
                    continue;
                }
                let init = self.init_user(&task.profile);
                let mut theta = init.clone();
                item_grads.fill_zero();
                self.adapt(&mut theta, &task.support, Some(&mut item_grads));

                // Post-adaptation support loss (for reporting).
                for &(item, target) in &task.support {
                    let (l, _) = squared(self.score_with(&theta, item), target);
                    total += l;
                    count += 1;
                }

                // Reptile meta-update of the initialiser and memories.
                let beta = self.cfg.meta_lr;
                for d in 0..self.cfg.k {
                    let delta = theta[d] - init[d];
                    self.theta0[d] += beta * delta;
                    for (f, &value) in task.profile.iter().enumerate() {
                        self.memories[f][(value, d)] += beta * delta / task.profile.len().max(1) as f64;
                    }
                }
                // Item update from accumulated task gradients.
                self.q.axpy(-beta * self.cfg.local_lr, &item_grads);
                for &(item, target) in &task.support {
                    let (_, g) = squared(self.score_with(&theta, item), target);
                    self.bi[item] -= beta * self.cfg.local_lr * g;
                }
            }
            losses.push(total / count.max(1) as f64);
        }
        losses
    }

    /// Adapts to a (possibly new) user's support set and scores the query
    /// items.
    pub fn predict(&self, profile: &[usize], support: &[(usize, f64)], query_items: &[usize]) -> Vec<f64> {
        let mut theta = self.init_user(profile);
        if !support.is_empty() {
            self.adapt(&mut theta, support, None);
        }
        query_items.iter().map(|&i| self.score_with(&theta, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_tensor::seeded_rng;
    use rand::Rng;

    /// Synthetic meta-dataset: users in two attribute groups with
    /// opposite preferences over two item clusters.
    fn make_tasks(n_tasks: usize, support_size: usize, seed: u64) -> Vec<MamoTask> {
        let mut rng = seeded_rng(seed);
        (0..n_tasks)
            .map(|_| {
                let group = rng.gen_range(0..2usize);
                let support = (0..support_size)
                    .map(|_| {
                        let item = rng.gen_range(0..20usize);
                        let cluster = usize::from(item >= 10);
                        let label = if cluster == group { 1.0 } else { -1.0 };
                        (item, label)
                    })
                    .collect();
                MamoTask { profile: vec![group], support }
            })
            .collect()
    }

    #[test]
    fn meta_training_reduces_post_adaptation_loss() {
        let tasks = make_tasks(60, 6, 1);
        let mut model = MamoLite::new(20, &[2], MamoConfig { epochs: 8, ..MamoConfig::default() });
        let losses = model.fit(&tasks);
        assert!(losses.last().unwrap() < &losses[0], "losses {losses:?}");
    }

    #[test]
    fn personalised_init_helps_zero_support_users() {
        // After meta-training, a user with NO support interactions should
        // still be scored in the direction of its attribute group.
        let tasks = make_tasks(120, 8, 2);
        let mut model = MamoLite::new(20, &[2], MamoConfig { epochs: 12, ..MamoConfig::default() });
        model.fit(&tasks);
        let group0 = model.predict(&[0], &[], &[3, 15]);
        // Group 0 prefers items < 10.
        assert!(group0[0] > group0[1], "cold group-0 user should prefer cluster 0: {group0:?}");
        let group1 = model.predict(&[1], &[], &[3, 15]);
        assert!(group1[1] > group1[0], "cold group-1 user should prefer cluster 1: {group1:?}");
    }

    #[test]
    fn adaptation_moves_predictions_toward_support_labels() {
        let tasks = make_tasks(60, 6, 3);
        // Stronger local adaptation so a contrarian support set can
        // override the attribute prior within one prediction call.
        let cfg = MamoConfig { epochs: 6, local_steps: 25, local_lr: 0.1, ..MamoConfig::default() };
        let mut model = MamoLite::new(20, &[2], cfg);
        model.fit(&tasks);
        // A contrarian user: group 0 profile but group-1 preferences.
        let support: Vec<(usize, f64)> = vec![(12, 1.0), (14, 1.0), (17, 1.0), (2, -1.0), (5, -1.0)];
        let adapted = model.predict(&[0], &support, &[15, 3]);
        assert!(adapted[0] > adapted[1], "adaptation should override the prior: {adapted:?}");
    }

    #[test]
    fn empty_profile_is_supported() {
        let model = MamoLite::new(10, &[], MamoConfig::default());
        let scores = model.predict(&[], &[(1, 1.0)], &[0, 1]);
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}
