//! xDeepFM (Lian et al., KDD'18): replaces DeepFM's FM component with a
//! Compressed Interaction Network (CIN) that builds explicit vector-wise
//! higher-order interactions.
//!
//! CIN layer `l` with `H_l` feature maps over base fields `X⁰ ∈ R^{m×k}`:
//!
//! `x^l_h = Σ_{i≤H_{l-1}} Σ_{j≤m} W^{l}_{h,i,j} · (x^{l-1}_i ⊙ x⁰_j)`
//!
//! Each map is sum-pooled over the embedding dimension and the pooled
//! scalars from all layers feed a final linear unit, alongside the linear
//! term and a deep tower.

use crate::graphfm::{FmBase, Mlp};
use gmlfm_autograd::{Graph, ParamId, ParamSet, Var};
use gmlfm_data::Instance;
use gmlfm_tensor::init::normal;
use gmlfm_tensor::{seeded_rng, Matrix};
use gmlfm_train::GraphModel;
use rand::rngs::StdRng;

/// xDeepFM hyper-parameters.
#[derive(Debug, Clone)]
pub struct XDeepFmConfig {
    /// Embedding size `k`.
    pub k: usize,
    /// Feature maps per CIN layer.
    pub cin_maps: usize,
    /// Number of CIN layers.
    pub cin_depth: usize,
    /// Deep-tower depth.
    pub layers: usize,
    /// Deep-tower dropout.
    pub dropout: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for XDeepFmConfig {
    fn default() -> Self {
        Self { k: 16, cin_maps: 4, cin_depth: 2, layers: 2, dropout: 0.2, seed: 41 }
    }
}

/// xDeepFM model.
#[derive(Debug, Clone)]
pub struct XDeepFm {
    params: ParamSet,
    base: FmBase,
    deep: Mlp,
    deep_out: ParamId,
    /// One weight matrix per CIN layer, flattened to
    /// `(H_l · H_{l-1} · m) × 1` for scalar gathers.
    cin_weights: Vec<ParamId>,
    /// Final linear unit over the pooled CIN maps.
    cin_out: ParamId,
    cin_maps: usize,
    n_fields: usize,
}

impl XDeepFm {
    /// Creates an untrained xDeepFM for instances with `n_fields` fields.
    pub fn new(n_features: usize, n_fields: usize, cfg: &XDeepFmConfig) -> Self {
        let mut rng = seeded_rng(cfg.seed);
        let mut params = ParamSet::new();
        let base = FmBase::new(&mut params, n_features, cfg.k, &mut rng);
        let deep =
            Mlp::new(&mut params, "deep", n_fields * cfg.k, cfg.k, cfg.layers, cfg.dropout, true, &mut rng);
        let deep_out = params.add("deep.out", normal(&mut rng, cfg.k, 1, 0.0, 0.1));

        let mut cin_weights = Vec::with_capacity(cfg.cin_depth);
        let mut h_prev = n_fields;
        for l in 0..cfg.cin_depth {
            let len = cfg.cin_maps * h_prev * n_fields;
            let w = normal(&mut rng, len, 1, 0.0, (2.0 / (h_prev * n_fields) as f64).sqrt());
            cin_weights.push(params.add(format!("cin.w{l}"), w));
            h_prev = cfg.cin_maps;
        }
        let cin_out = params.add("cin.out", normal(&mut rng, cfg.cin_depth * cfg.cin_maps, 1, 0.0, 0.1));
        Self { params, base, deep, deep_out, cin_weights, cin_out, cin_maps: cfg.cin_maps, n_fields }
    }

    /// One CIN pass; returns the `B × (depth·maps)` pooled features.
    fn cin(&self, g: &mut Graph, params: &ParamSet, base_fields: &[Var], batch_size: usize) -> Var {
        let ones = g.constant(Matrix::filled(batch_size, 1, 1.0));
        let m = base_fields.len();
        let mut pooled: Option<Var> = None;
        let mut prev: Vec<Var> = base_fields.to_vec();
        for w_id in &self.cin_weights {
            let h_prev = prev.len();
            let mut next = Vec::with_capacity(self.cin_maps);
            for h in 0..self.cin_maps {
                let mut acc: Option<Var> = None;
                for (i, &prev_i) in prev.iter().enumerate() {
                    for (j, &base_j) in base_fields.iter().enumerate() {
                        let prod = g.mul(prev_i, base_j); // B x k
                        let flat = h * (h_prev * m) + i * m + j;
                        let scalar = g.gather_param(params, *w_id, &[flat]); // 1 x 1
                        let col = g.matmul(ones, scalar); // B x 1
                        let term = g.mul_col_broadcast(prod, col);
                        acc = Some(match acc {
                            Some(a) => g.add(a, term),
                            None => term,
                        });
                    }
                }
                next.push(acc.expect("non-empty CIN layer"));
            }
            // Sum-pool each map over the embedding dimension.
            for &map in &next {
                let p = g.sum_rows(map); // B x 1
                pooled = Some(match pooled {
                    Some(acc) => g.concat_cols(acc, p),
                    None => p,
                });
            }
            prev = next;
        }
        pooled.expect("at least one CIN layer")
    }
}

impl GraphModel for XDeepFm {
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
        let cols = FmBase::columns(batch);
        assert_eq!(
            cols.len(),
            self.n_fields,
            "XDeepFm built for {} fields, got {}",
            self.n_fields,
            cols.len()
        );
        let linear = self.base.linear(g, params, &cols);
        let embeds = self.base.field_embeddings(g, params, &cols);

        // CIN component.
        let pooled = self.cin(g, params, &embeds, batch.len());
        let cin_w = g.param(params, self.cin_out);
        let cin_score = g.matmul(pooled, cin_w); // B x 1

        // Deep component.
        let mut cat = embeds[0];
        for &e in &embeds[1..] {
            cat = g.concat_cols(cat, e);
        }
        let z = self.deep.forward(g, params, cat, training, rng);
        let deep_w = g.param(params, self.deep_out);
        let deep_score = g.matmul(z, deep_w); // B x 1

        let partial = g.add(linear, cin_score);
        g.add(partial, deep_score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_data::{generate, rating_split, DatasetSpec, FieldMask};
    use gmlfm_train::{fit_regression, Scorer, TrainConfig};

    #[test]
    fn cin_output_width_is_depth_times_maps() {
        let cfg = XDeepFmConfig { k: 4, cin_maps: 3, cin_depth: 2, layers: 1, dropout: 0.0, seed: 1 };
        let model = XDeepFm::new(20, 3, &cfg);
        let a = Instance::new(vec![0, 8, 16], 1.0);
        let b = Instance::new(vec![1, 9, 17], -1.0);
        let batch = [&a, &b];
        let cols = FmBase::columns(&batch);
        let mut g = Graph::new();
        let embeds = model.base.field_embeddings(&mut g, &model.params, &cols);
        let pooled = model.cin(&mut g, &model.params, &embeds, 2);
        assert_eq!(g.value(pooled).shape(), (2, 6));
    }

    #[test]
    fn xdeepfm_trains_and_reduces_loss() {
        let d = generate(&DatasetSpec::AmazonAuto.config(91).scaled(0.25));
        let mask = FieldMask::all(&d.schema);
        let s = rating_split(&d, &mask, 2, 17);
        let cfg = XDeepFmConfig { k: 8, ..XDeepFmConfig::default() };
        let mut model = XDeepFm::new(d.schema.total_dim(), d.schema.n_fields(), &cfg);
        let tcfg = TrainConfig { epochs: 6, lr: 0.02, ..TrainConfig::default() };
        let report = fit_regression(&mut model, &s.train, Some(&s.val), &tcfg);
        assert!(
            report.train_losses.last().unwrap() < &(report.train_losses[0] * 0.9),
            "losses {:?}",
            report.train_losses
        );
        assert!(model.scores(&s.test).iter().all(|p| p.is_finite()));
    }
}
