//! The GML-FM model (paper Eq. 3) as a trainable [`GraphModel`].

use crate::distance::{Distance, Transform};
use gmlfm_autograd::{Graph, ParamId, ParamSet, Var};
use gmlfm_data::Instance;
use gmlfm_tensor::init::normal;
use gmlfm_tensor::{seeded_rng, Matrix};
use gmlfm_train::{field_index_columns, unique_with_inverse, GraphModel};
use rand::rngs::StdRng;

/// Which transform family to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformKind {
    /// No transform: plain squared Euclidean (the TransFM world).
    Identity,
    /// Learnable linear transform (GML-FM_md).
    Mahalanobis,
    /// Deep non-linear transform with this many layers (GML-FM_dnn);
    /// 0 layers degrade to [`TransformKind::Identity`].
    Dnn(usize),
}

/// GML-FM hyper-parameters.
#[derive(Debug, Clone)]
pub struct GmlFmConfig {
    /// Embedding size `k`.
    pub k: usize,
    /// Embedding transform `ψ` (Section 3.2).
    pub transform: TransformKind,
    /// Distance applied to transformed embeddings (Section 3.5).
    pub distance: Distance,
    /// Whether the transformation weight `w_ij = hᵀ(vᵢ⊙vⱼ)` is used
    /// (Eq. 2; `false` fixes `w_ij = 1` as in the Table 5 ablation).
    pub use_weight: bool,
    /// Dropout between DNN layers.
    pub dropout: f64,
    /// Standard deviation of the factor-table init. The paper states
    /// `N(0, 0.01²)`; with squared distances the pair terms then start at
    /// ~1e-4 and the metric structure trains very slowly, so the default
    /// here is 0.05 (the released PyTorch code similarly relies on larger
    /// framework defaults for the embedding layers).
    pub init_std: f64,
    /// RNG seed.
    pub seed: u64,
}

impl GmlFmConfig {
    /// GML-FM_md: Mahalanobis distance with the transformation weight.
    pub fn mahalanobis(k: usize) -> Self {
        Self {
            k,
            transform: TransformKind::Mahalanobis,
            distance: Distance::SquaredEuclidean,
            use_weight: true,
            dropout: 0.0,
            init_std: 0.05,
            seed: 53,
        }
    }

    /// GML-FM_dnn: deep non-linear distance with the transformation
    /// weight. The paper finds 1–2 layers optimal (Table 5).
    pub fn dnn(k: usize, layers: usize) -> Self {
        Self {
            k,
            transform: TransformKind::Dnn(layers),
            distance: Distance::SquaredEuclidean,
            use_weight: true,
            dropout: 0.2,
            init_std: 0.05,
            seed: 53,
        }
    }

    /// The Table 5 "w/o weight & M" ablation: plain Euclidean distance,
    /// no transformation weight.
    pub fn euclidean_plain(k: usize) -> Self {
        Self {
            k,
            transform: TransformKind::Identity,
            distance: Distance::SquaredEuclidean,
            use_weight: false,
            dropout: 0.0,
            init_std: 0.05,
            seed: 53,
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the factor-table init scale.
    pub fn with_init_std(mut self, init_std: f64) -> Self {
        self.init_std = init_std;
        self
    }

    /// Overrides the distance function (Table 5's distance block).
    pub fn with_distance(mut self, distance: Distance) -> Self {
        self.distance = distance;
        self
    }

    /// Disables the transformation weight (Table 5's weight ablation).
    pub fn without_weight(mut self) -> Self {
        self.use_weight = false;
        self
    }
}

/// Factorization machine with generalized metric learning.
#[derive(Debug, Clone)]
pub struct GmlFm {
    params: ParamSet,
    config: GmlFmConfig,
    n_features: usize,
    k: usize,
    w0: ParamId,
    w: ParamId,
    v: ParamId,
    /// Transformation-weight vector `h` (present iff `use_weight`).
    h: Option<ParamId>,
    transform: Transform,
    distance: Distance,
}

impl GmlFm {
    /// Creates an untrained GML-FM over `n_features` one-hot features.
    pub fn new(n_features: usize, cfg: &GmlFmConfig) -> Self {
        let mut rng = seeded_rng(cfg.seed);
        let mut params = ParamSet::new();
        let w0 = params.add("w0", Matrix::zeros(1, 1));
        let w = params.add("w", Matrix::zeros(n_features, 1));
        let v = params.add("v", normal(&mut rng, n_features, cfg.k, 0.0, cfg.init_std));
        let h = cfg.use_weight.then(|| params.add("h", normal(&mut rng, cfg.k, 1, 0.0, 0.1)));
        let transform = match cfg.transform {
            TransformKind::Identity | TransformKind::Dnn(0) => Transform::identity(),
            TransformKind::Mahalanobis => Transform::mahalanobis(&mut params, cfg.k),
            TransformKind::Dnn(layers) => Transform::dnn(&mut params, cfg.k, layers, cfg.dropout, &mut rng),
        };
        Self {
            params,
            config: cfg.clone(),
            n_features,
            k: cfg.k,
            w0,
            w,
            v,
            h,
            transform,
            distance: cfg.distance,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &GmlFmConfig {
        &self.config
    }

    /// Number of one-hot features `n`.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Embedding size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Borrow of the factor table `V` (t-SNE case study, Figures 5/6).
    pub fn factors(&self) -> &Matrix {
        self.params.get(self.v)
    }

    /// Global bias `w₀` (used by the freeze path in `gmlfm-serve`).
    pub fn bias(&self) -> f64 {
        self.params.get(self.w0)[(0, 0)]
    }

    /// Borrow of the first-order weights `w ∈ R^{n×1}`.
    pub fn linear_weights(&self) -> &Matrix {
        self.params.get(self.w)
    }

    /// Borrow of the transformation-weight vector `h ∈ R^{k×1}` (Eq. 2),
    /// `None` when the model was built `without_weight` (`w_ij = 1`).
    pub fn transform_weight(&self) -> Option<&Matrix> {
        self.h.map(|id| self.params.get(id))
    }

    /// The transform in use (for the dense/efficient evaluation paths).
    pub fn transform(&self) -> &Transform {
        &self.transform
    }

    /// The distance in use.
    pub fn distance(&self) -> Distance {
        self.distance
    }

    /// Scalar reference prediction: Eq. 3 for one instance through
    /// [`crate::reference`], with `ψ` applied by [`Transform::eval`]. This
    /// is the ground truth the batched graph forward is tested against.
    pub fn predict_reference(&self, inst: &Instance) -> f64 {
        let v = self.params.get(self.v);
        let rows: Vec<&[f64]> = inst.feats.iter().map(|&f| v.row(f as usize)).collect();
        let hat: Vec<Vec<f64>> = rows.iter().map(|r| self.transform.eval(&self.params, r)).collect();
        let h = self.transform_weight().map(Matrix::as_slice);
        let w = self.linear_weights().as_slice();
        crate::reference::score(self.bias(), w, &inst.feats, |p, q| {
            crate::reference::gml(rows[p], rows[q], h, self.distance, &hat[p], &hat[q])
        })
    }
}

impl GraphModel for GmlFm {
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
        let cols = field_index_columns(batch);
        // Linear term w0 + Σ_f w[x_f].
        let w = g.param(params, self.w);
        let mut linear: Option<Var> = None;
        for col in &cols {
            let gathered = g.gather_rows(w, col);
            linear = Some(match linear {
                Some(acc) => g.add(acc, gathered),
                None => gathered,
            });
        }
        let linear = linear.expect("at least one field");
        let w0 = g.param(params, self.w0);
        let linear = g.add_row_broadcast(linear, w0);

        // Field embeddings and their transforms: one gather of `V` per
        // field, at its distinct features, so ψ runs once per feature.
        let v = g.param(params, self.v);
        let h = self.h.map(|h_id| g.param(params, h_id));
        let mut embeds = Vec::with_capacity(cols.len());
        let mut transformed = Vec::with_capacity(cols.len());
        for col in &cols {
            let (uniq, inv) = unique_with_inverse(col);
            let u = g.gather_rows(v, &uniq);
            if h.is_some() {
                embeds.push(g.gather_rows(u, &inv));
            }
            transformed.push(self.transform.build(g, params, u, &inv, training, rng));
        }

        // Σ_{i<j} w_ij · D(v̂_i, v̂_j).
        let m = transformed.len();
        let mut acc: Option<Var> = None;
        for i in 0..m {
            for j in i + 1..m {
                let dist = self.distance.build(g, transformed[i], transformed[j]); // B x 1
                let term = match h {
                    Some(h) => {
                        let prod = g.mul(embeds[i], embeds[j]); // B x k
                        let w_ij = g.matmul(prod, h); // B x 1
                        g.mul(w_ij, dist)
                    }
                    None => dist,
                };
                acc = Some(match acc {
                    Some(a) => g.add(a, term),
                    None => term,
                });
            }
        }
        match acc {
            Some(pair) => g.add(linear, pair),
            None => linear, // single-field degenerate case
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_data::{generate, rating_split, DatasetSpec, FieldMask};
    use gmlfm_train::{fit_regression, Scorer, TrainConfig};
    use proptest::prelude::*;

    fn variants() -> Vec<(&'static str, GmlFmConfig)> {
        vec![
            ("euclidean_plain", GmlFmConfig::euclidean_plain(6)),
            ("mahalanobis", GmlFmConfig::mahalanobis(6)),
            ("dnn1", GmlFmConfig::dnn(6, 1)),
            ("dnn2", GmlFmConfig::dnn(6, 2)),
            ("manhattan", GmlFmConfig::dnn(6, 1).with_distance(Distance::Manhattan)),
            ("chebyshev", GmlFmConfig::dnn(6, 1).with_distance(Distance::Chebyshev)),
            ("cosine", GmlFmConfig::dnn(6, 1).with_distance(Distance::Cosine)),
            ("md_no_weight", GmlFmConfig::mahalanobis(6).without_weight()),
        ]
    }

    /// The per-row graph `forward_batch` replaced: every field gathers
    /// `V` at all `B` rows and runs ψ on each of them. Kept as the oracle
    /// for the distinct-row body.
    fn forward_batch_per_row(
        model: &GmlFm,
        g: &mut Graph,
        params: &ParamSet,
        batch: &[&Instance],
        training: bool,
        rng: &mut StdRng,
    ) -> Var {
        let cols = field_index_columns(batch);
        let w = g.param(params, model.w);
        let mut linear: Option<Var> = None;
        for col in &cols {
            let gathered = g.gather_rows(w, col);
            linear = Some(match linear {
                Some(acc) => g.add(acc, gathered),
                None => gathered,
            });
        }
        let w0 = g.param(params, model.w0);
        let linear = g.add_row_broadcast(linear.expect("at least one field"), w0);
        let v = g.param(params, model.v);
        let embeds: Vec<Var> = cols.iter().map(|col| g.gather_rows(v, col)).collect();
        let transformed: Vec<Var> = embeds
            .iter()
            .map(|&e| match &model.transform {
                Transform::Identity => e,
                Transform::Mahalanobis { l } => {
                    let lm = g.param(params, *l);
                    g.matmul(e, lm)
                }
                Transform::Dnn { weights, biases, dropout } => {
                    let mut x = e;
                    for (w_id, b_id) in weights.iter().zip(biases) {
                        let w = g.param(params, *w_id);
                        let b = g.param(params, *b_id);
                        let h = g.matmul(x, w);
                        let h = g.add_row_broadcast(h, b);
                        let h = g.tanh(h);
                        x = if training && *dropout > 0.0 { g.dropout(h, *dropout, rng) } else { h };
                    }
                    x
                }
            })
            .collect();
        let h = model.h.map(|h_id| g.param(params, h_id));
        let mut acc: Option<Var> = None;
        for i in 0..embeds.len() {
            for j in i + 1..embeds.len() {
                let dist = model.distance.build(g, transformed[i], transformed[j]);
                let term = match h {
                    Some(h) => {
                        let prod = g.mul(embeds[i], embeds[j]);
                        let w_ij = g.matmul(prod, h);
                        g.mul(w_ij, dist)
                    }
                    None => dist,
                };
                acc = Some(match acc {
                    Some(a) => g.add(a, term),
                    None => term,
                });
            }
        }
        match acc {
            Some(pair) => g.add(linear, pair),
            None => linear,
        }
    }

    /// Field sizes of the `train_fit` fixture's six fields.
    const MIX_FIELDS: [usize; 6] = [227, 220, 2, 7, 21, 17];

    /// Three batch shapes over [`MIX_FIELDS`]' `n` features, by name: every
    /// field value distinct, one instance 256 times, and 256 rows drawn
    /// skewed towards low values (duplicates in every field).
    fn batch_shapes() -> Vec<(&'static str, Vec<Instance>)> {
        use rand::Rng;
        let offsets: Vec<usize> =
            MIX_FIELDS.iter().scan(0, |o, &n| Some(std::mem::replace(o, *o + n))).collect();
        let inst = |vals: &[usize], label| {
            Instance::new(vals.iter().zip(&offsets).map(|(v, o)| (o + v) as u32).collect(), label)
        };
        let distinct = (0..2).map(|b| inst(&[b; 6], b as f64)).collect();
        let copies = vec![inst(&[3, 1, 1, 4, 9, 16], 0.5); 256];
        let mut rng = seeded_rng(29);
        let mix = (0..256)
            .map(|_| {
                let vals: Vec<usize> = MIX_FIELDS
                    .iter()
                    .map(|&n| {
                        let x: f64 = rng.gen();
                        ((x * x * n as f64) as usize).min(n - 1)
                    })
                    .collect();
                inst(&vals, rng.gen_range(-1.0..1.0))
            })
            .collect();
        vec![("distinct", distinct), ("copies", copies), ("mix", mix)]
    }

    /// Prediction values and every parameter's gradient of the MSE loss.
    fn values_and_gradients(
        model: &GmlFm,
        batch: &[&Instance],
        training: bool,
        forward: impl Fn(&GmlFm, &mut Graph, &ParamSet, &[&Instance], bool, &mut StdRng) -> Var,
    ) -> (Vec<f64>, Vec<Option<Matrix>>) {
        let mut g = Graph::new();
        let mut rng = seeded_rng(71);
        let pred = forward(model, &mut g, model.params(), batch, training, &mut rng);
        let values = g.value(pred).as_slice().to_vec();
        let target = g.constant(gmlfm_train::labels_column(batch));
        let loss = g.mse(pred, target);
        let grads = g.backward(loss);
        let per_param = model.params().iter().map(|(id, _)| grads.get(id).cloned()).collect();
        (values, per_param)
    }

    #[test]
    fn distinct_row_forward_is_bitwise_the_per_row_graph_and_gradients_agree() {
        let n: usize = MIX_FIELDS.iter().sum();
        for (name, cfg) in variants() {
            let model = GmlFm::new(n, &cfg.with_seed(13));
            for (shape, instances) in batch_shapes() {
                let batch: Vec<&Instance> = instances.iter().collect();
                for training in [false, true] {
                    let at = format!("{name}/{shape}/training={training}");
                    let (got, got_grads) =
                        values_and_gradients(&model, &batch, training, GmlFm::forward_batch);
                    let (want, want_grads) =
                        values_and_gradients(&model, &batch, training, forward_batch_per_row);
                    assert!(got == want, "{at}: forward differs");
                    for ((id, _), (gg, wg)) in model.params().iter().zip(got_grads.iter().zip(&want_grads)) {
                        let pname = model.params().name(id);
                        let (gg, wg) = (gg.as_ref().expect(pname), wg.as_ref().expect(pname));
                        let scale = wg.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
                        let err = gg
                            .as_slice()
                            .iter()
                            .zip(wg.as_slice())
                            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                        assert!(
                            err <= 1e-12 * scale,
                            "{at}: {pname} gradient off by {err:e} at scale {scale:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gmlfm_loss_gradients_pass_finite_differences_on_repeated_rows() {
        use gmlfm_autograd::gradient_check;
        let mut dnn = GmlFmConfig::dnn(3, 2);
        dnn.dropout = 0.0;
        for (name, cfg) in [
            ("md", GmlFmConfig::mahalanobis(3)),
            ("dnn2", dnn),
            ("euclidean_plain", GmlFmConfig::euclidean_plain(3)),
        ] {
            let model = GmlFm::new(9, &cfg.with_seed(17).with_init_std(0.5));
            let instances = [
                Instance::new(vec![0, 4, 7], 0.5),
                Instance::new(vec![1, 4, 8], -1.0),
                Instance::new(vec![0, 4, 7], 0.5),
                Instance::new(vec![0, 5, 7], 1.5),
            ];
            let batch: Vec<&Instance> = instances.iter().collect();
            let mut params = model.params().clone();
            let report = gradient_check(&mut params, 1e-6, |g, p| {
                let pred = model.forward_batch(g, p, &batch, true, &mut seeded_rng(3));
                let target = g.constant(gmlfm_train::labels_column(&batch));
                g.mse(pred, target)
            });
            assert!(report.passes(1e-7), "{name}: {report:?}");
        }
    }

    #[test]
    fn graph_forward_matches_scalar_reference_for_all_variants() {
        for (name, cfg) in variants() {
            let model = GmlFm::new(30, &cfg.with_seed(11));
            let a = Instance::new(vec![0, 11, 23], 1.0);
            let b = Instance::new(vec![5, 17, 29], -1.0);
            let batch = [a, b];
            let batch_pred = model.scores(&batch);
            for (inst, got) in batch.iter().zip(&batch_pred) {
                let want = model.predict_reference(inst);
                assert!((got - want).abs() < 1e-9, "{name}: graph {got} vs reference {want}");
            }
        }
    }

    proptest! {
        #[test]
        fn graph_forward_matches_reference_random_instances(
            feats in proptest::collection::vec(0u32..30, 2..5),
            seed in 0u64..20,
        ) {
            // Distinct features per instance (datasets never repeat a field value).
            let mut feats = feats;
            feats.sort_unstable();
            feats.dedup();
            prop_assume!(feats.len() >= 2);
            let model = GmlFm::new(30, &GmlFmConfig::dnn(4, 2).with_seed(seed));
            let inst = Instance::new(feats, 1.0);
            let got = model.score_one(&inst);
            let want = model.predict_reference(&inst);
            prop_assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn identity_without_weight_is_pure_distance_sum() {
        // All second-order contributions are squared distances >= 0 and w
        // starts at zero, so predictions are non-negative.
        let model = GmlFm::new(20, &GmlFmConfig::euclidean_plain(4).with_seed(3));
        let inst = Instance::new(vec![1, 8, 15], 1.0);
        assert!(model.score_one(&inst) >= 0.0);
    }

    #[test]
    fn transformation_weight_extends_range_to_negative_values() {
        // With the weight, second-order terms can be negative: find a seed
        // where at least one prediction is negative at init.
        let mut saw_negative = false;
        for seed in 0..20 {
            let model = GmlFm::new(20, &GmlFmConfig::mahalanobis(4).with_seed(seed));
            let inst = Instance::new(vec![1, 8, 15], 1.0);
            if model.score_one(&inst) < 0.0 {
                saw_negative = true;
                break;
            }
        }
        assert!(saw_negative, "weighted GML-FM should reach negative values");
    }

    #[test]
    fn gmlfm_trains_and_reduces_loss() {
        let d = generate(&DatasetSpec::AmazonAuto.config(121).scaled(0.25));
        let mask = FieldMask::all(&d.schema);
        let s = rating_split(&d, &mask, 2, 25);
        let mut model = GmlFm::new(d.schema.total_dim(), &GmlFmConfig::dnn(16, 1));
        let cfg = TrainConfig { epochs: 10, lr: 0.02, ..TrainConfig::default() };
        let report = fit_regression(&mut model, &s.train, Some(&s.val), &cfg);
        assert!(
            report.train_losses.last().unwrap() < &(report.train_losses[0] * 0.85),
            "losses {:?}",
            report.train_losses
        );
    }

    #[test]
    fn dnn_zero_layers_equals_identity_transform() {
        let a = GmlFm::new(20, &GmlFmConfig::dnn(4, 0).with_seed(7));
        let inst = Instance::new(vec![2, 9, 16], 1.0);
        let b = GmlFm::new(
            20,
            &GmlFmConfig {
                k: 4,
                transform: TransformKind::Identity,
                distance: Distance::SquaredEuclidean,
                use_weight: true,
                dropout: 0.2,
                init_std: 0.05,
                seed: 7,
            },
        );
        assert!((a.score_one(&inst) - b.score_one(&inst)).abs() < 1e-12);
    }

    #[test]
    fn mahalanobis_at_init_equals_identity_distance() {
        // L starts as the identity, so at initialisation GML-FM_md and the
        // plain Euclidean variant coincide (given the same seed/weights).
        let md = GmlFm::new(20, &GmlFmConfig::mahalanobis(4).with_seed(5));
        let id = GmlFm::new(
            20,
            &GmlFmConfig {
                k: 4,
                transform: TransformKind::Identity,
                distance: Distance::SquaredEuclidean,
                use_weight: true,
                dropout: 0.0,
                init_std: 0.05,
                seed: 5,
            },
        );
        let inst = Instance::new(vec![0, 7, 13], 1.0);
        assert!((md.score_one(&inst) - id.score_one(&inst)).abs() < 1e-12);
    }
}
