//! Mini-batch regression trainer for autograd-based models.

use crate::batch::labels_column;
use crate::optim::{Adam, Optimizer};
use gmlfm_autograd::{Graph, ParamSet, Var};
use gmlfm_data::Instance;
use gmlfm_tensor::seeded_rng;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Number of instances scored per evaluation graph in
/// [`GraphModel::predict`]: chunking keeps each eval tape small
/// (bounded peak memory) without paying per-instance graph setup.
const EVAL_CHUNK_SIZE: usize = 512;

/// A model trainable by [`fit_regression`]: it owns a [`ParamSet`] and can
/// build the prediction column for a batch of instances as an autograd
/// graph.
pub trait GraphModel {
    /// The model's trainable parameters.
    fn params(&self) -> &ParamSet;

    /// Mutable access for the optimizer and early-stopping snapshots.
    fn params_mut(&mut self) -> &mut ParamSet;

    /// Builds the `B x 1` prediction column for `batch`. `training`
    /// enables dropout; `rng` drives dropout masks.
    fn forward_batch(
        &self,
        g: &mut Graph,
        params: &ParamSet,
        batch: &[&Instance],
        training: bool,
        rng: &mut StdRng,
    ) -> Var;

    /// Predicts scores in evaluation mode (dropout disabled), building one
    /// graph per fixed-size chunk of instances.
    fn predict(&self, instances: &[Instance]) -> Vec<f64> {
        let mut rng = seeded_rng(0);
        let mut out = Vec::with_capacity(instances.len());
        let mut refs: Vec<&Instance> = Vec::with_capacity(EVAL_CHUNK_SIZE.min(instances.len()));
        for chunk in instances.chunks(EVAL_CHUNK_SIZE) {
            refs.clear();
            refs.extend(chunk.iter());
            let mut g = Graph::new();
            let pred = self.forward_batch(&mut g, self.params(), &refs, false, &mut rng);
            out.extend_from_slice(g.value(pred).as_slice());
        }
        out
    }
}

/// Anything that can score instances; both evaluation tasks (RMSE on
/// held-out instances, leave-one-out ranking) consume this interface.
///
/// `scores` takes the instances by value slice (not `&[&Instance]`), so
/// evaluation protocols hand their owned test vectors straight through
/// without allocating a reference vector per call.
pub trait Scorer {
    /// Predicted scores, one per instance, in order.
    fn scores(&self, instances: &[Instance]) -> Vec<f64>;

    /// Convenience for a single instance.
    fn score_one(&self, instance: &Instance) -> f64 {
        self.scores(std::slice::from_ref(instance))[0]
    }
}

impl<T: GraphModel> Scorer for T {
    fn scores(&self, instances: &[Instance]) -> Vec<f64> {
        self.predict(instances)
    }
}

/// Hyper-parameters of the regression training loop.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Adam learning rate (paper tunes in {1e-4, 1e-3, 1e-2, 1e-1}).
    pub lr: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (256 in the paper).
    pub batch_size: usize,
    /// Decoupled L2 weight decay.
    pub weight_decay: f64,
    /// Early-stopping patience in epochs (0 disables early stopping).
    pub patience: usize,
    /// Seed for batch shuffling and dropout masks.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { lr: 0.01, epochs: 20, batch_size: 256, weight_decay: 1e-5, patience: 3, seed: 17 }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_losses: Vec<f64>,
    /// Validation RMSE per epoch (empty when no validation set given).
    pub val_rmses: Vec<f64>,
    /// Best validation RMSE seen (infinity when no validation set).
    pub best_val_rmse: f64,
    /// Epochs actually run (may stop early).
    pub epochs_run: usize,
}

/// Trains a [`GraphModel`] on the squared loss (paper Eq. 13) with Adam,
/// restoring the best-validation parameters when a validation set is
/// provided.
pub fn fit_regression<M: GraphModel>(
    model: &mut M,
    train: &[Instance],
    val: Option<&[Instance]>,
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!train.is_empty(), "fit_regression: empty training set");
    assert!(cfg.batch_size > 0, "fit_regression: batch_size must be at least 1");
    let mut rng = seeded_rng(cfg.seed);
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut order: Vec<usize> = (0..train.len()).collect();

    let mut report = TrainReport {
        train_losses: Vec::with_capacity(cfg.epochs),
        val_rmses: Vec::new(),
        best_val_rmse: f64::INFINITY,
        epochs_run: 0,
    };
    let mut best_params: Option<ParamSet> = None;
    let mut stall = 0usize;

    for _epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut n_batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let batch: Vec<&Instance> = chunk.iter().map(|&i| &train[i]).collect();
            let mut g = Graph::new();
            let pred = model.forward_batch(&mut g, model.params(), &batch, true, &mut rng);
            let target = g.constant(labels_column(&batch));
            let loss = g.mse(pred, target);
            epoch_loss += g.scalar(loss);
            n_batches += 1;
            let grads = g.backward(loss);
            opt.step(model.params_mut(), &grads);
        }
        report.train_losses.push(epoch_loss / n_batches.max(1) as f64);
        report.epochs_run += 1;

        if let Some(val) = val {
            let preds = model.predict(val);
            let rmse = rmse(&preds, val);
            report.val_rmses.push(rmse);
            if rmse < report.best_val_rmse - 1e-6 {
                report.best_val_rmse = rmse;
                best_params = Some(model.params().clone());
                stall = 0;
            } else {
                stall += 1;
                if cfg.patience > 0 && stall >= cfg.patience {
                    break;
                }
            }
        }
    }

    if let Some(best) = best_params {
        *model.params_mut() = best;
    }
    report
}

/// Trains a [`GraphModel`] with the Bayesian Personalized Ranking loss
/// over `(positive, negative)` instance pairs:
/// `L = −mean ln σ(ŷ(x⁺) − ŷ(x⁻))`.
///
/// This implements the extension the paper names as future work
/// (Section 7: "enhancing GML-FM with the Bayesian Personalized Ranking
/// approach") for *any* graph model, GML-FM included. `sample_negative`
/// is called once per positive per epoch, so negatives are resampled
/// every pass as in BPR-MF.
pub fn fit_bpr<M: GraphModel>(
    model: &mut M,
    positives: &[Instance],
    mut sample_negative: impl FnMut(&Instance, &mut StdRng) -> Instance,
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!positives.is_empty(), "fit_bpr: empty positive set");
    assert!(cfg.batch_size > 0, "fit_bpr: batch_size must be at least 1");
    let mut rng = seeded_rng(cfg.seed);
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut order: Vec<usize> = (0..positives.len()).collect();
    let mut report = TrainReport {
        train_losses: Vec::with_capacity(cfg.epochs),
        val_rmses: Vec::new(),
        best_val_rmse: f64::INFINITY,
        epochs_run: 0,
    };
    for _epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut n_batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let pos_batch: Vec<&Instance> = chunk.iter().map(|&i| &positives[i]).collect();
            let neg_owned: Vec<Instance> = pos_batch.iter().map(|p| sample_negative(p, &mut rng)).collect();
            let neg_batch: Vec<&Instance> = neg_owned.iter().collect();
            let mut g = Graph::new();
            let pos_scores = model.forward_batch(&mut g, model.params(), &pos_batch, true, &mut rng);
            let neg_scores = model.forward_batch(&mut g, model.params(), &neg_batch, true, &mut rng);
            let diff = g.sub(pos_scores, neg_scores);
            let log_lik = g.ln_sigmoid(diff);
            let mean = g.mean_all(log_lik);
            let loss = g.neg(mean);
            epoch_loss += g.scalar(loss);
            n_batches += 1;
            let grads = g.backward(loss);
            opt.step(model.params_mut(), &grads);
        }
        report.train_losses.push(epoch_loss / n_batches.max(1) as f64);
        report.epochs_run += 1;
    }
    report
}

fn rmse(preds: &[f64], instances: &[Instance]) -> f64 {
    let mse: f64 = preds.iter().zip(instances).map(|(p, i)| (p - i.label).powi(2)).sum::<f64>()
        / preds.len().max(1) as f64;
    mse.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_autograd::ParamId;
    use gmlfm_tensor::init::normal;

    /// A linear model over one-hot features: ŷ = Σ w[feat].
    struct LinearToy {
        params: ParamSet,
        w: ParamId,
    }

    impl LinearToy {
        fn new(n_features: usize, seed: u64) -> Self {
            let mut rng = seeded_rng(seed);
            let mut params = ParamSet::new();
            let w = params.add("w", normal(&mut rng, n_features, 1, 0.0, 0.01));
            Self { params, w }
        }
    }

    impl GraphModel for LinearToy {
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
            let cols = crate::batch::field_index_columns(batch);
            let mut acc: Option<Var> = None;
            for col in &cols {
                let gathered = g.gather_param(params, self.w, col); // B x 1
                acc = Some(match acc {
                    Some(a) => g.add(a, gathered),
                    None => gathered,
                });
            }
            acc.expect("non-empty batch")
        }
    }

    fn toy_data(n: usize, seed: u64) -> Vec<Instance> {
        // Ground truth: feature 0..4 are worth +1, features 5..9 worth -1.
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        (0..n)
            .map(|_| {
                let a = rng.gen_range(0..5u32);
                let b = rng.gen_range(5..10u32);
                let keep_a = rng.gen_bool(0.5);
                if keep_a {
                    Instance::new(vec![a, a], 2.0) // two positive features
                } else {
                    Instance::new(vec![a, b], 0.0) // one of each
                }
            })
            .collect()
    }

    #[test]
    fn trainer_fits_linear_toy() {
        let train = toy_data(400, 1);
        let val = toy_data(100, 2);
        let mut model = LinearToy::new(10, 3);
        let cfg =
            TrainConfig { lr: 0.05, epochs: 60, batch_size: 32, weight_decay: 0.0, patience: 0, seed: 4 };
        let report = fit_regression(&mut model, &train, Some(&val), &cfg);
        assert!(report.best_val_rmse < 0.3, "val rmse {}", report.best_val_rmse);
        // Training loss decreased substantially.
        assert!(report.train_losses.last().unwrap() < &(report.train_losses[0] * 0.5));
    }

    #[test]
    fn early_stopping_halts_before_max_epochs() {
        let train = toy_data(200, 5);
        let val = toy_data(50, 6);
        let mut model = LinearToy::new(10, 7);
        let cfg =
            TrainConfig { lr: 0.2, epochs: 200, batch_size: 64, weight_decay: 0.0, patience: 3, seed: 8 };
        let report = fit_regression(&mut model, &train, Some(&val), &cfg);
        assert!(report.epochs_run < 200, "expected early stop, ran {}", report.epochs_run);
    }

    #[test]
    fn predict_is_deterministic_in_eval_mode() {
        let train = toy_data(100, 9);
        let mut model = LinearToy::new(10, 10);
        let cfg = TrainConfig { epochs: 3, ..TrainConfig::default() };
        let _ = fit_regression(&mut model, &train, None, &cfg);
        let a = model.predict(&train);
        let b = model.predict(&train);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_is_rejected() {
        let mut model = LinearToy::new(4, 1);
        let _ = fit_regression(&mut model, &[], None, &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_size_is_rejected_by_name() {
        let mut model = LinearToy::new(10, 1);
        let cfg = TrainConfig { batch_size: 0, ..TrainConfig::default() };
        let _ = fit_regression(&mut model, &toy_data(8, 1), None, &cfg);
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn bpr_rejects_zero_batch_size_by_name() {
        let mut model = LinearToy::new(10, 1);
        let cfg = TrainConfig { batch_size: 0, ..TrainConfig::default() };
        let _ = fit_bpr(&mut model, &toy_data(8, 1), |p, _| p.clone(), &cfg);
    }

    #[test]
    fn bpr_training_learns_to_rank_good_features_higher() {
        use rand::Rng;
        // Positives contain features 0..5, negatives 5..10; BPR should
        // push w[0..5] above w[5..10].
        let positives: Vec<Instance> = {
            let mut rng = seeded_rng(1);
            (0..200)
                .map(|_| Instance::new(vec![rng.gen_range(0..5u32), rng.gen_range(0..5u32)], 1.0))
                .collect()
        };
        let mut model = LinearToy::new(10, 2);
        let cfg =
            TrainConfig { lr: 0.05, epochs: 30, batch_size: 32, weight_decay: 0.0, patience: 0, seed: 3 };
        let report = fit_bpr(
            &mut model,
            &positives,
            |_pos, rng| Instance::new(vec![rng.gen_range(5..10u32), rng.gen_range(5..10u32)], -1.0),
            &cfg,
        );
        assert!(
            report.train_losses.last().unwrap() < &report.train_losses[0],
            "losses {:?}",
            report.train_losses
        );
        // Rank check: any positive-feature instance scores above any
        // negative-feature instance.
        let good = Instance::new(vec![1, 3], 1.0);
        let bad = Instance::new(vec![6, 8], -1.0);
        let scores = model.predict(&[good, bad]);
        assert!(scores[0] > scores[1], "scores {scores:?}");
    }

    #[test]
    #[should_panic(expected = "empty positive set")]
    fn bpr_rejects_empty_positives() {
        let mut model = LinearToy::new(4, 1);
        let _ = fit_bpr(&mut model, &[], |p, _| p.clone(), &TrainConfig::default());
    }
}
