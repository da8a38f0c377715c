//! Shared plumbing for the autograd-based FM-family models: the linear
//! term, the embedding table, and the Bi-Interaction pooling all of them
//! build on.

use gmlfm_autograd::{Graph, ParamId, ParamSet, Var};
use gmlfm_data::Instance;
use gmlfm_tensor::init::normal;
use gmlfm_tensor::Matrix;
use gmlfm_train::field_index_columns;
use rand::rngs::StdRng;

/// The parameters every FM-family model shares: global bias `w₀`,
/// first-order weights `w ∈ R^{n×1}`, and the factor table `V ∈ R^{n×k}`.
#[derive(Debug, Clone)]
pub struct FmBase {
    /// Number of one-hot features `n`.
    pub n_features: usize,
    /// Embedding size `k`.
    pub k: usize,
    /// Global bias handle (`1×1`).
    pub w0: ParamId,
    /// First-order weights handle (`n×1`).
    pub w: ParamId,
    /// Factor table handle (`n×k`).
    pub v: ParamId,
}

impl FmBase {
    /// Registers the three shared parameters, initialised `N(0, 0.01²)`
    /// per the paper's Section 4.4.
    pub fn new(params: &mut ParamSet, n_features: usize, k: usize, rng: &mut StdRng) -> Self {
        let w0 = params.add("w0", Matrix::zeros(1, 1));
        let w = params.add("w", Matrix::zeros(n_features, 1));
        let v = params.add("v", normal(rng, n_features, k, 0.0, 0.01));
        Self { n_features, k, w0, w, v }
    }

    /// Per-field index columns for a batch.
    pub fn columns(batch: &[&Instance]) -> Vec<Vec<usize>> {
        field_index_columns(batch)
    }

    /// The linear term `w₀ + Σ_f w[x_f]` as a `B×1` node.
    pub fn linear(&self, g: &mut Graph, params: &ParamSet, cols: &[Vec<usize>]) -> Var {
        let mut acc: Option<Var> = None;
        for col in cols {
            let gathered = g.gather_param(params, self.w, col); // B x 1
            acc = Some(match acc {
                Some(a) => g.add(a, gathered),
                None => gathered,
            });
        }
        let acc = acc.expect("at least one field");
        let w0 = g.param(params, self.w0);
        g.add_row_broadcast(acc, w0)
    }

    /// The `m` field embedding matrices, each `B×k`.
    pub fn field_embeddings(&self, g: &mut Graph, params: &ParamSet, cols: &[Vec<usize>]) -> Vec<Var> {
        cols.iter().map(|col| g.gather_param(params, self.v, col)).collect()
    }

    /// Bi-Interaction pooling (NFM Eq. in Section 2.2):
    /// `½[(Σ_f e_f)² − Σ_f e_f²]`, a `B×k` node equal to
    /// `Σ_{i<j} e_i ⊙ e_j`.
    pub fn bi_interaction(&self, g: &mut Graph, embeds: &[Var]) -> Var {
        let mut sum: Option<Var> = None;
        let mut sum_sq: Option<Var> = None;
        for &e in embeds {
            sum = Some(match sum {
                Some(s) => g.add(s, e),
                None => e,
            });
            let e2 = g.square(e);
            sum_sq = Some(match sum_sq {
                Some(s) => g.add(s, e2),
                None => e2,
            });
        }
        let sum = sum.expect("at least one field");
        let sum_sq = sum_sq.expect("at least one field");
        let sq_of_sum = g.square(sum);
        let diff = g.sub(sq_of_sum, sum_sq);
        g.scale(diff, 0.5)
    }
}

/// A stack of `depth` fully connected `in→hidden→…→hidden` layers used by
/// the deep baselines, with per-layer activation and dropout.
#[derive(Debug, Clone)]
pub struct Mlp {
    weights: Vec<ParamId>,
    biases: Vec<ParamId>,
    /// Dropout probability applied after each activation while training.
    pub dropout: f64,
    /// Which activation to apply (`true` = ReLU, `false` = tanh).
    pub relu: bool,
}

impl Mlp {
    /// Registers `depth` layers; the first maps `input_dim → hidden`, the
    /// rest `hidden → hidden`. Xavier-uniform initialised.
    // One argument per hyper-parameter keeps call sites self-documenting;
    // a builder would be ceremony for an internal helper.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        input_dim: usize,
        hidden: usize,
        depth: usize,
        dropout: f64,
        relu: bool,
        rng: &mut StdRng,
    ) -> Self {
        let mut weights = Vec::with_capacity(depth);
        let mut biases = Vec::with_capacity(depth);
        for l in 0..depth {
            let fan_in = if l == 0 { input_dim } else { hidden };
            let w = gmlfm_tensor::init::xavier(rng, fan_in, hidden);
            weights.push(params.add(format!("{name}.w{l}"), w));
            biases.push(params.add(format!("{name}.b{l}"), Matrix::zeros(1, hidden)));
        }
        Self { weights, biases, dropout, relu }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.weights.len()
    }

    /// Applies the stack to a `B×input_dim` node.
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &ParamSet,
        mut x: Var,
        training: bool,
        rng: &mut StdRng,
    ) -> Var {
        for (w_id, b_id) in self.weights.iter().zip(&self.biases) {
            let w = g.param(params, *w_id);
            let b = g.param(params, *b_id);
            let h = g.matmul(x, w);
            let h = g.add_row_broadcast(h, b);
            let h = if self.relu { g.relu(h) } else { g.tanh(h) };
            x = if training && self.dropout > 0.0 { g.dropout(h, self.dropout, rng) } else { h };
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_tensor::seeded_rng;

    #[test]
    fn bi_interaction_equals_explicit_pair_sum() {
        let mut rng = seeded_rng(1);
        let mut params = ParamSet::new();
        let base = FmBase::new(&mut params, 20, 4, &mut rng);
        // Give V non-trivial values.
        *params.get_mut(base.v) = normal(&mut rng, 20, 4, 0.0, 1.0);

        let a = Instance::new(vec![1, 7, 15], 1.0);
        let batch = [&a];
        let cols = FmBase::columns(&batch);

        let mut g = Graph::new();
        let embeds = base.field_embeddings(&mut g, &params, &cols);
        let bi = base.bi_interaction(&mut g, &embeds);
        let got = g.value(bi).clone();

        // Explicit sum over pairs.
        let v = params.get(base.v);
        let rows = [1usize, 7, 15];
        let mut expected = Matrix::zeros(1, 4);
        for i in 0..3 {
            for j in i + 1..3 {
                for d in 0..4 {
                    expected[(0, d)] += v[(rows[i], d)] * v[(rows[j], d)];
                }
            }
        }
        assert!(gmlfm_tensor::approx_eq(&got, &expected, 1e-10));
    }

    #[test]
    fn linear_term_sums_first_order_weights() {
        let mut rng = seeded_rng(2);
        let mut params = ParamSet::new();
        let base = FmBase::new(&mut params, 10, 4, &mut rng);
        params.get_mut(base.w0).as_mut_slice()[0] = 0.5;
        for (i, w) in params.get_mut(base.w).as_mut_slice().iter_mut().enumerate() {
            *w = i as f64;
        }
        let a = Instance::new(vec![2, 5], 1.0);
        let b = Instance::new(vec![0, 9], -1.0);
        let batch = [&a, &b];
        let cols = FmBase::columns(&batch);
        let mut g = Graph::new();
        let lin = base.linear(&mut g, &params, &cols);
        assert_eq!(g.value(lin).as_slice(), &[7.5, 9.5]);
    }

    #[test]
    fn mlp_shapes_and_determinism() {
        let mut rng = seeded_rng(3);
        let mut params = ParamSet::new();
        let mlp = Mlp::new(&mut params, "mlp", 6, 4, 3, 0.0, true, &mut rng);
        assert_eq!(mlp.depth(), 3);
        let x = Matrix::filled(5, 6, 0.3);
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let mut drng = seeded_rng(4);
        let out = mlp.forward(&mut g, &params, xv, false, &mut drng);
        assert_eq!(g.value(out).shape(), (5, 4));
        // Eval mode is deterministic.
        let mut g2 = Graph::new();
        let xv2 = g2.constant(x);
        let mut drng2 = seeded_rng(99);
        let out2 = mlp.forward(&mut g2, &params, xv2, false, &mut drng2);
        assert!(gmlfm_tensor::approx_eq(g.value(out), g2.value(out2), 0.0));
    }
}
