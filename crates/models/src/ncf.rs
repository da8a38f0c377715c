//! NCF / NeuMF (He et al., WWW'17): a GMF branch (element-wise product of
//! user and item embeddings) fused with an MLP branch over separate
//! embeddings, trained point-wise.

use crate::common::PairCodec;
use crate::graphfm::Mlp;
use gmlfm_autograd::{Graph, ParamId, ParamSet, Var};
use gmlfm_data::Instance;
use gmlfm_tensor::init::normal;
use gmlfm_tensor::seeded_rng;
use gmlfm_train::GraphModel;
use rand::rngs::StdRng;

/// NCF hyper-parameters.
#[derive(Debug, Clone)]
pub struct NcfConfig {
    /// Embedding size `k` for both branches.
    pub k: usize,
    /// MLP depth.
    pub layers: usize,
    /// MLP dropout.
    pub dropout: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NcfConfig {
    fn default() -> Self {
        Self { k: 16, layers: 2, dropout: 0.2, seed: 43 }
    }
}

/// Neural Collaborative Filtering (NeuMF fusion of GMF + MLP).
#[derive(Debug, Clone)]
pub struct Ncf {
    params: ParamSet,
    codec: PairCodec,
    p_gmf: ParamId,
    q_gmf: ParamId,
    p_mlp: ParamId,
    q_mlp: ParamId,
    mlp: Mlp,
    /// Fusion weights over `[gmf ⊙ | mlp]`, `2k × 1`.
    fuse: ParamId,
}

impl Ncf {
    /// Creates an untrained NCF.
    pub fn new(codec: PairCodec, cfg: &NcfConfig) -> Self {
        let mut rng = seeded_rng(cfg.seed);
        let mut params = ParamSet::new();
        let p_gmf = params.add("p_gmf", normal(&mut rng, codec.n_users(), cfg.k, 0.0, 0.01));
        let q_gmf = params.add("q_gmf", normal(&mut rng, codec.n_items(), cfg.k, 0.0, 0.01));
        let p_mlp = params.add("p_mlp", normal(&mut rng, codec.n_users(), cfg.k, 0.0, 0.01));
        let q_mlp = params.add("q_mlp", normal(&mut rng, codec.n_items(), cfg.k, 0.0, 0.01));
        let mlp = Mlp::new(&mut params, "ncf", 2 * cfg.k, cfg.k, cfg.layers, cfg.dropout, true, &mut rng);
        let fuse = params.add("fuse", normal(&mut rng, 2 * cfg.k, 1, 0.0, 0.1));
        Self { params, codec, p_gmf, q_gmf, p_mlp, q_mlp, mlp, fuse }
    }
}

impl GraphModel for Ncf {
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
        training: bool,
        rng: &mut StdRng,
    ) -> Var {
        let mut users = Vec::with_capacity(batch.len());
        let mut items = Vec::with_capacity(batch.len());
        for inst in batch {
            let (u, i) = self.codec.decode(inst);
            users.push(u);
            items.push(i);
        }
        let pu = g.gather_param(params, self.p_gmf, &users);
        let qi = g.gather_param(params, self.q_gmf, &items);
        let gmf = g.mul(pu, qi); // B x k

        let pu_m = g.gather_param(params, self.p_mlp, &users);
        let qi_m = g.gather_param(params, self.q_mlp, &items);
        let cat = g.concat_cols(pu_m, qi_m); // B x 2k
        let mlp_out = self.mlp.forward(g, params, cat, training, rng); // B x k

        let fused = g.concat_cols(gmf, mlp_out); // B x 2k
        let w = g.param(params, self.fuse);
        g.matmul(fused, w) // B x 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_data::{generate, loo_split, DatasetSpec, FieldMask};
    use gmlfm_train::{fit_regression, Scorer, TrainConfig};

    #[test]
    fn ncf_trains_on_loo_instances() {
        let d = generate(&DatasetSpec::AmazonAuto.config(101).scaled(0.25));
        let mask = FieldMask::base(&d.schema);
        let split = loo_split(&d, &mask, 2, 20, 19);
        let codec = PairCodec::from_schema(&d.schema);
        let mut model = Ncf::new(codec, &NcfConfig::default());
        let cfg = TrainConfig { epochs: 8, lr: 0.02, ..TrainConfig::default() };
        let report = fit_regression(&mut model, &split.train, None, &cfg);
        assert!(
            report.train_losses.last().unwrap() < &(report.train_losses[0] * 0.9),
            "losses {:?}",
            report.train_losses
        );
        // Scoring a ranking case produces finite values.
        let case = &split.test[0];
        let pos = d.instance_masked(case.user, case.pos_item, 1.0, &mask);
        let neg = d.instance_masked(case.user, case.negatives[0], -1.0, &mask);
        let scores = model.scores(&[pos, neg]);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn gmf_branch_is_sensitive_to_item_identity() {
        let codec = PairCodec::from_sizes(5, 6);
        let model = Ncf::new(codec, &NcfConfig { k: 4, layers: 1, dropout: 0.0, seed: 3 });
        let a = Instance::new(vec![2, 5 + 1], 1.0);
        let b = Instance::new(vec![2, 5 + 4], 1.0);
        let scores = model.scores(&[a, b]);
        assert_ne!(scores[0], scores[1]);
    }
}
