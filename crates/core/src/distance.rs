//! Distance functions and embedding transforms (paper Sections 3.2 and
//! 3.5): scalar references, the distances' row rules for
//! [`Graph::pair_sum`], and the transform's graph builder.

use gmlfm_autograd::graph::sign;
use gmlfm_autograd::{store_or_add, Graph, PairDistance, ParamId, ParamSet, Var};
use gmlfm_tensor::init::xavier;
use gmlfm_tensor::Matrix;
use rand::rngs::StdRng;

/// Which distance is applied to the transformed embeddings (Section 3.5).
///
/// The paper's headline models use the squared Euclidean distance (its
/// tables label this "Euclidean"); the Minkowski family and cosine are the
/// generalisations of Table 5's "distance functions" block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// `‖v̂ᵢ − v̂ⱼ‖²` — the default in Eq. 4/8.
    SquaredEuclidean,
    /// Minkowski `p = 1`: `Σ|v̂ᵢ − v̂ⱼ|`.
    Manhattan,
    /// Minkowski `p → ∞`: `max |v̂ᵢ − v̂ⱼ|`.
    Chebyshev,
    /// `v̂ᵢᵀv̂ⱼ / (‖v̂ᵢ‖‖v̂ⱼ‖)` — inner-product-fashioned, included to show
    /// it underperforms true metrics (Table 5).
    Cosine,
}

impl Distance {
    /// All variants in Table 5 order.
    pub const ALL: [Distance; 4] =
        [Distance::Manhattan, Distance::SquaredEuclidean, Distance::Chebyshev, Distance::Cosine];

    /// Name used in experiment tables (the paper calls the squared
    /// Euclidean variant "Euclidean").
    pub fn name(&self) -> &'static str {
        match self {
            Distance::SquaredEuclidean => "Euclidean",
            Distance::Manhattan => "Manhattan",
            Distance::Chebyshev => "Chebyshev",
            Distance::Cosine => "Cosine",
        }
    }

    /// Scalar reference implementation used by tests and the dense
    /// (non-autograd) evaluation paths.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "Distance::eval: dimension mismatch");
        match self {
            Distance::SquaredEuclidean => a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum(),
            Distance::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            Distance::Chebyshev => a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max),
            Distance::Cosine => {
                let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
                let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
                dot / (na * nb + 1e-8)
            }
        }
    }

    /// General Minkowski distance `(Σ|Δ|^p)^{1/p}` (Section 3.5); the enum
    /// variants are its `p = 1 / 2 / ∞` special cases (squared Euclidean
    /// being the square of `p = 2`).
    pub fn minkowski(a: &[f64], b: &[f64], p: f64) -> f64 {
        assert!(p >= 1.0, "Minkowski distance requires p >= 1, got {p}");
        let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs().powf(p)).sum();
        sum.powf(1.0 / p)
    }
}

/// The row rule of [`Graph::pair_sum`]: [`Distance::eval`], the bits of
/// the composed graph for finite input, and that graph's backward ops.
impl PairDistance for Distance {
    fn values(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        let k = a.len() / out.len().max(1);
        for ((o, a), b) in out.iter_mut().zip(a.chunks_exact(k)).zip(b.chunks_exact(k)) {
            *o = self.eval(a, b);
        }
    }

    fn backward(&self, a: &[f64], b: &[f64], g: &[f64], da: &mut [f64], db: &mut [f64], [fa, fb]: [bool; 2]) {
        let k = a.len() / g.len().max(1);
        for (r, &g) in g.iter().enumerate() {
            let s = r * k..(r + 1) * k;
            let (a, b, da, db) = (&a[s.clone()], &b[s.clone()], &mut da[s.clone()], &mut db[s]);
            // `sub`'s rule: `x` to `a`, `-1 · x` to `b`.
            let mut sub = |c: usize, x: f64| {
                store_or_add(&mut da[c], x, fa);
                store_or_add(&mut db[c], -x, fb);
            };
            match self {
                Distance::SquaredEuclidean => (0..k).for_each(|c| sub(c, 2.0 * (a[c] - b[c]) * g)),
                Distance::Manhattan => (0..k).for_each(|c| sub(c, g * sign(a[c] - b[c]))),
                Distance::Chebyshev => {
                    let (mut arg, mut best) = (0, f64::NEG_INFINITY);
                    for c in 0..k {
                        let x = (a[c] - b[c]).abs();
                        if x > best {
                            (arg, best) = (c, x);
                        }
                    }
                    (0..k).for_each(|c| sub(c, if c == arg { g } else { 0.0 } * sign(a[c] - b[c])));
                }
                Distance::Cosine => {
                    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                    let na = a.iter().map(|x| x * x).sum::<f64>().max(0.0).sqrt();
                    let nb = b.iter().map(|x| x * x).sum::<f64>().max(0.0).sqrt();
                    let denom = na * nb + 1e-8;
                    let (d_dot, d_denom) = (g / denom, -g * dot / (denom * denom));
                    let sqrt_rule = |d: f64, y: f64| if y > 0.0 { d * 0.5 / y } else { 0.0 };
                    let (d_na2, d_nb2) = (sqrt_rule(d_denom * nb, na), sqrt_rule(d_denom * na, nb));
                    // Per entry: `square`'s contribution, then `mul`'s.
                    for c in 0..k {
                        store_or_add(&mut db[c], 2.0 * b[c] * d_nb2, fb);
                        store_or_add(&mut da[c], 2.0 * a[c] * d_na2, fa);
                        da[c] += d_dot * b[c];
                        db[c] += d_dot * a[c];
                    }
                }
            }
        }
    }
}

/// The embedding transform `ψ` applied before the distance (Section 3.2).
#[derive(Debug, Clone)]
pub enum Transform {
    /// `ψ(v) = v`: recovers the plain (squared) Euclidean distance.
    Identity,
    /// `ψ(v) = v L` with learnable `L ∈ R^{k×k}`; the induced metric
    /// matrix `M = LLᵀ` is PSD by construction (paper's proof in 3.2.1).
    Mahalanobis {
        /// Handle of `L`.
        l: ParamId,
    },
    /// `ψ(v) = tanh(W_L(… tanh(W₁ v + b₁)) + b_L)` with dropout between
    /// layers (paper Eq. 7).
    Dnn {
        /// Layer weight handles (`k×k` each).
        weights: Vec<ParamId>,
        /// Layer bias handles (`1×k` each).
        biases: Vec<ParamId>,
        /// Dropout probability between layers.
        dropout: f64,
    },
}

impl Transform {
    /// Registers an identity transform (no parameters).
    pub fn identity() -> Self {
        Transform::Identity
    }

    /// Registers a Mahalanobis transform; `L` starts at the identity so
    /// training begins exactly at the Euclidean special case the paper
    /// generalises (Section 3.2.1).
    pub fn mahalanobis(params: &mut ParamSet, k: usize) -> Self {
        Transform::Mahalanobis { l: params.add("gml.L", Matrix::eye(k)) }
    }

    /// Registers an `n_layers`-deep DNN transform with tanh activations.
    ///
    /// Weights are Xavier-initialised: the paper's global `N(0, 0.01²)`
    /// init collapses a multi-layer tanh stack to near-zero outputs; its
    /// released implementation relies on the framework's default (Xavier)
    /// init for these layers, and we follow that.
    pub fn dnn(params: &mut ParamSet, k: usize, n_layers: usize, dropout: f64, rng: &mut StdRng) -> Self {
        let mut weights = Vec::with_capacity(n_layers);
        let mut biases = Vec::with_capacity(n_layers);
        for l in 0..n_layers {
            weights.push(params.add(format!("gml.W{l}"), xavier(rng, k, k)));
            biases.push(params.add(format!("gml.b{l}"), Matrix::zeros(1, k)));
        }
        Transform::Dnn { weights, biases, dropout }
    }

    /// Number of DNN layers (0 for identity/Mahalanobis).
    pub fn depth(&self) -> usize {
        match self {
            Transform::Dnn { weights, .. } => weights.len(),
            _ => 0,
        }
    }

    /// Applies the transform to each field's `U×k` node `u` of distinct
    /// embeddings and returns its `B×k` batch, row `b` being `ψ(u[inv[b]])`.
    /// `L`, or each layer's `W` and `b`, is recorded once for all fields.
    ///
    /// `ψ` reads one row at a time, so it runs on the `U ≤ B` distinct rows
    /// and is gathered to the batch afterwards — training's counterpart of
    /// freezing `V̂ = ψ(V)` once per feature. Dropout masks are drawn per
    /// batch row, so a DNN gathers before its first dropout and finishes
    /// its layers on `B` rows. Each row's arithmetic is that of running
    /// `ψ` on the gathered batch; the backward sums duplicate rows before
    /// the layer products, so gradients agree with it to rounding only.
    pub fn build(
        &self,
        g: &mut Graph,
        params: &ParamSet,
        fields: &[(Var, Vec<usize>)],
        training: bool,
        rng: &mut StdRng,
    ) -> Vec<Var> {
        let leaves: Vec<Var> = match self {
            Transform::Identity => Vec::new(),
            Transform::Mahalanobis { l } => vec![g.param(params, *l)],
            Transform::Dnn { weights, biases, .. } => weights
                .iter()
                .zip(biases)
                .flat_map(|(w, b)| [g.param(params, *w), g.param(params, *b)])
                .collect(),
        };
        let mut out = Vec::with_capacity(fields.len());
        for (u, inv) in fields {
            out.push(match self {
                Transform::Identity => g.gather_rows(*u, inv),
                Transform::Mahalanobis { .. } => {
                    let ul = g.matmul(*u, leaves[0]);
                    g.gather_rows(ul, inv)
                }
                Transform::Dnn { dropout, .. } => {
                    let drop = training && *dropout > 0.0;
                    let mut x = *u;
                    // `Some` while `x` still has the distinct rows.
                    let mut pending = Some(inv);
                    for layer in leaves.chunks_exact(2) {
                        let h = g.matmul(x, layer[0]);
                        let h = g.add_row_broadcast(h, layer[1]);
                        x = g.tanh(h);
                        if drop {
                            if let Some(inv) = pending.take() {
                                x = g.gather_rows(x, inv);
                            }
                            x = g.dropout(x, *dropout, rng);
                        }
                    }
                    match pending {
                        Some(inv) => g.gather_rows(x, inv),
                        None => x,
                    }
                }
            });
        }
        out
    }

    /// Scalar reference: applies the transform to one embedding row using
    /// the current parameter values (no dropout — evaluation semantics).
    pub fn eval(&self, params: &ParamSet, v: &[f64]) -> Vec<f64> {
        match self {
            Transform::Identity => v.to_vec(),
            Transform::Mahalanobis { l } => {
                let lm = params.get(*l);
                let k = lm.cols();
                let mut out = vec![0.0; k];
                for (i, &vi) in v.iter().enumerate() {
                    for c in 0..k {
                        out[c] += vi * lm[(i, c)];
                    }
                }
                out
            }
            Transform::Dnn { weights, biases, .. } => {
                let mut x = v.to_vec();
                for (w_id, b_id) in weights.iter().zip(biases) {
                    let w = params.get(*w_id);
                    let b = params.get(*b_id);
                    let k_out = w.cols();
                    let mut next = vec![0.0; k_out];
                    for (i, &xi) in x.iter().enumerate() {
                        for c in 0..k_out {
                            next[c] += xi * w[(i, c)];
                        }
                    }
                    for (n, bv) in next.iter_mut().zip(b.row(0)) {
                        *n = (*n + bv).tanh();
                    }
                    x = next;
                }
                x
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_tensor::seeded_rng;
    use proptest::prelude::*;

    fn vecs() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
        let v = proptest::collection::vec(-3.0f64..3.0, 4);
        (v.clone(), v.clone(), v)
    }

    proptest! {
        #[test]
        fn squared_euclidean_axioms((a, b, _c) in vecs()) {
            let d = Distance::SquaredEuclidean;
            prop_assert!(d.eval(&a, &b) >= 0.0);
            prop_assert!(d.eval(&a, &a).abs() < 1e-12);
            prop_assert!((d.eval(&a, &b) - d.eval(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn true_metrics_satisfy_triangle_inequality((a, b, c) in vecs()) {
            // Manhattan, Euclidean (sqrt of squared), Chebyshev are metrics.
            for p in [1.0, 2.0, 5.0] {
                let ab = Distance::minkowski(&a, &b, p);
                let ac = Distance::minkowski(&a, &c, p);
                let cb = Distance::minkowski(&c, &b, p);
                prop_assert!(ab <= ac + cb + 1e-9, "p={p}: {ab} > {ac} + {cb}");
            }
            let ab = Distance::Chebyshev.eval(&a, &b);
            let ac = Distance::Chebyshev.eval(&a, &c);
            let cb = Distance::Chebyshev.eval(&c, &b);
            prop_assert!(ab <= ac + cb + 1e-9);
        }

        #[test]
        fn minkowski_special_cases((a, b, _c) in vecs()) {
            let m1 = Distance::minkowski(&a, &b, 1.0);
            prop_assert!((m1 - Distance::Manhattan.eval(&a, &b)).abs() < 1e-9);
            let m2 = Distance::minkowski(&a, &b, 2.0);
            prop_assert!((m2 * m2 - Distance::SquaredEuclidean.eval(&a, &b)).abs() < 1e-9);
            // p → ∞ approaches Chebyshev from above.
            let m64 = Distance::minkowski(&a, &b, 64.0);
            let cheb = Distance::Chebyshev.eval(&a, &b);
            prop_assert!(m64 >= cheb - 1e-9);
            prop_assert!((m64 - cheb).abs() < 0.2 * cheb.max(0.1), "p=64 {m64} vs cheb {cheb}");
        }

        #[test]
        fn graph_and_scalar_distances_agree((a, b, _c) in vecs()) {
            for dist in Distance::ALL {
                let mut g = Graph::new();
                let av = g.constant(Matrix::row_vector(&a));
                let bv = g.constant(Matrix::row_vector(&b));
                let d = g.pair_sum(&[av, bv], None, dist);
                let got = g.value(d)[(0, 0)];
                let want = dist.eval(&a, &b);
                prop_assert!((got - want).abs() < 1e-9, "{dist:?}: {got} vs {want}");
            }
        }
    }

    /// The fused pair node's backward rule against central differences,
    /// for every distance with and without the weight: three fields of
    /// four rows, `k = 3`, every input a parameter of its own.
    #[test]
    fn pair_sum_passes_gradient_check_for_every_distance() {
        use gmlfm_autograd::gradient_check;
        use gmlfm_tensor::init::normal;
        for dist in Distance::ALL {
            for weighted in [false, true] {
                let mut rng = seeded_rng(23);
                let mut params = ParamSet::new();
                let t: Vec<ParamId> = (0..3)
                    .map(|f| params.add(format!("t{f}"), normal(&mut rng, 4, 3, 0.0, 1.0)))
                    .collect();
                let e: Vec<ParamId> = (0..3)
                    .map(|f| params.add(format!("e{f}"), normal(&mut rng, 4, 3, 0.0, 1.0)))
                    .collect();
                let h = params.add("h", normal(&mut rng, 3, 1, 0.0, 1.0));
                let target = Matrix::from_fn(4, 1, |r, _| r as f64 - 1.5);
                let report = gradient_check(&mut params, 1e-6, |g, p| {
                    let tv: Vec<Var> = t.iter().map(|&id| g.param(p, id)).collect();
                    let ev: Vec<Var> = e.iter().map(|&id| g.param(p, id)).collect();
                    let hv = g.param(p, h);
                    let pair = g.pair_sum(&tv, weighted.then_some((&ev[..], hv)), dist);
                    let target = g.constant(target.clone());
                    g.mse(pair, target)
                });
                assert!(report.passes(1e-7), "{dist:?} weighted={weighted}: {report:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "pair_sum: every field must be B×k")]
    fn pair_sum_rejects_a_weight_input_of_another_width() {
        let mut g = Graph::new();
        let t: Vec<Var> = (0..2).map(|_| g.constant(Matrix::zeros(4, 3))).collect();
        let e: Vec<Var> = (0..2).map(|_| g.constant(Matrix::zeros(4, 2))).collect();
        let h = g.constant(Matrix::zeros(3, 1));
        g.pair_sum(&t, Some((&e[..], h)), Distance::SquaredEuclidean);
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let v = [1.0, 2.0, -1.5];
        assert!((Distance::Cosine.eval(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mahalanobis_transform_starts_at_identity() {
        let mut params = ParamSet::new();
        let t = Transform::mahalanobis(&mut params, 3);
        let v = [0.5, -1.0, 2.0];
        let out = t.eval(&params, &v);
        assert_eq!(out, v.to_vec());
    }

    #[test]
    fn dnn_transform_graph_and_scalar_agree() {
        let mut rng = seeded_rng(5);
        let mut params = ParamSet::new();
        let t = Transform::dnn(&mut params, 4, 2, 0.3, &mut rng);
        assert_eq!(t.depth(), 2);
        let v = [0.4, -0.2, 1.1, 0.0];
        let scalar = t.eval(&params, &v);
        let mut g = Graph::new();
        let vv = g.constant(Matrix::row_vector(&v));
        let mut drng = seeded_rng(6);
        // Evaluation mode: dropout off.
        let out = t.build(&mut g, &params, &[(vv, vec![0])], false, &mut drng)[0];
        for (got, want) in g.value(out).row(0).iter().zip(&scalar) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn dnn_outputs_are_bounded_by_tanh() {
        let mut rng = seeded_rng(9);
        let mut params = ParamSet::new();
        let t = Transform::dnn(&mut params, 4, 1, 0.0, &mut rng);
        let v = [100.0, -100.0, 50.0, 0.0];
        let out = t.eval(&params, &v);
        assert!(out.iter().all(|x| x.abs() <= 1.0));
    }
}
