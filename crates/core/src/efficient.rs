//! The paper's efficient evaluation of the second-order term
//! (Section 3.3, Eq. 9–11 and Appendix A).
//!
//! For a **dense real-valued** input `x ∈ Rⁿ` the second-order term
//!
//! `f(x) = Σᵢ Σ_{j>i} hᵀ(vᵢ⊙vⱼ) · D(vᵢ,vⱼ) · xᵢxⱼ`
//!
//! costs `O(k²n²)` if evaluated pairwise. The paper's algebraic
//! simplification decouples the two sums:
//!
//! * **Mahalanobis** (Eq. 10): with `a = Σⱼ xⱼvⱼ`, `b = Σᵢ xᵢ(vᵢᵀMvᵢ)vᵢ`
//!   and `S = Σᵢ xᵢvᵢvᵢᵀ`,
//!   `f(x) = aᵀ diag(h) b − Σⱼ xⱼ vⱼᵀ diag(h) S M vⱼ` — `O(k²n + k³)`.
//! * **DNN** (Eq. 11): with `v̂ = ψ(v)` precomputed, `b = Σᵢ xᵢ‖v̂ᵢ‖²vᵢ`
//!   and `C = Σᵢ xᵢ vᵢ v̂ᵢᵀ`,
//!   `f(x) = aᵀ diag(h) b − Σⱼ xⱼ vⱼᵀ diag(h) C v̂ⱼ` — `O(k²n)`.
//!
//! Exact equality between the pairwise and simplified forms is pinned by
//! property tests; `repro efficiency` shows the linear-vs-quadratic
//! wall-clock separation the paper claims.

use gmlfm_tensor::{linalg::quadratic_form, Matrix};

/// Dense transform for the efficient paths.
#[derive(Debug, Clone)]
pub enum DenseTransform {
    /// `D(vᵢ,vⱼ) = ‖vᵢ−vⱼ‖²` (M = I).
    Identity,
    /// `D(vᵢ,vⱼ) = (vᵢ−vⱼ)ᵀ M (vᵢ−vⱼ)` with `M ⪰ 0`.
    Mahalanobis(Matrix),
    /// `D(vᵢ,vⱼ) = ‖ψ(vᵢ)−ψ(vⱼ)‖²` with a tanh MLP `ψ`.
    Dnn(DnnTransform),
}

/// A tanh MLP `ψ` with square layers, matching paper Eq. 7.
#[derive(Debug, Clone)]
pub struct DnnTransform {
    /// Layer weights (`k×k`).
    pub weights: Vec<Matrix>,
    /// Layer biases (`1×k`).
    pub biases: Vec<Matrix>,
}

impl DnnTransform {
    /// Applies the MLP to every row of `v`.
    pub fn apply_rows(&self, v: &Matrix) -> Matrix {
        let mut x = v.clone();
        for (w, b) in self.weights.iter().zip(&self.biases) {
            let mut h = x.matmul(w);
            for r in 0..h.rows() {
                for (hv, bv) in h.row_mut(r).iter_mut().zip(b.row(0)) {
                    *hv = (*hv + bv).tanh();
                }
            }
            x = h;
        }
        x
    }
}

/// Dense GML-FM second-order evaluator over `n` features with factors
/// `V ∈ R^{n×k}` and transformation-weight vector `h ∈ R^k`.
#[derive(Debug, Clone)]
pub struct DenseGmlFm {
    /// Factor table.
    pub v: Matrix,
    /// Transformation-weight vector (`w_ij = hᵀ(vᵢ⊙vⱼ)`).
    pub h: Vec<f64>,
    /// Distance specification.
    pub transform: DenseTransform,
}

impl DenseGmlFm {
    /// Number of features `n`.
    pub fn n(&self) -> usize {
        self.v.rows()
    }

    /// Embedding size `k`.
    pub fn k(&self) -> usize {
        self.v.cols()
    }

    fn weight(&self, vi: &[f64], vj: &[f64]) -> f64 {
        vi.iter().zip(vj).zip(&self.h).map(|((a, b), h)| a * b * h).sum()
    }

    fn distance(&self, i: usize, j: usize, transformed: &Matrix) -> f64 {
        match &self.transform {
            DenseTransform::Identity | DenseTransform::Dnn(_) => {
                let (a, b) = (transformed.row(i), transformed.row(j));
                a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
            }
            DenseTransform::Mahalanobis(m) => {
                let (a, b) = (self.v.row(i), self.v.row(j));
                let diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
                quadratic_form(m, &diff)
            }
        }
    }

    /// Rows after `ψ` (equal to `V` for Identity/Mahalanobis).
    pub fn transformed_rows(&self) -> Matrix {
        match &self.transform {
            DenseTransform::Dnn(dnn) => dnn.apply_rows(&self.v),
            _ => self.v.clone(),
        }
    }

    /// Naive `O(k²n²)` pairwise evaluation of Eq. 9 over a dense input.
    pub fn second_order_naive(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n(), "second_order_naive: |x| != n");
        let transformed = self.transformed_rows();
        let mut out = 0.0;
        for i in 0..self.n() {
            if x[i] == 0.0 {
                continue;
            }
            for j in i + 1..self.n() {
                if x[j] == 0.0 {
                    continue;
                }
                let w_ij = self.weight(self.v.row(i), self.v.row(j));
                out += w_ij * self.distance(i, j, &transformed) * x[i] * x[j];
            }
        }
        out
    }

    /// The paper's `O(k²n)` simplified evaluation (Eq. 10 / Eq. 11).
    pub fn second_order_efficient(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n(), "second_order_efficient: |x| != n");
        match &self.transform {
            DenseTransform::Mahalanobis(m) => self.efficient_mahalanobis(x, m),
            DenseTransform::Identity => {
                let eye = Matrix::eye(self.k());
                self.efficient_mahalanobis(x, &eye)
            }
            DenseTransform::Dnn(dnn) => {
                let v_hat = dnn.apply_rows(&self.v);
                self.efficient_transformed(x, &v_hat)
            }
        }
    }

    /// Eq. 10: `f = aᵀ diag(h) b − Σⱼ xⱼ vⱼᵀ diag(h) S M vⱼ`.
    // Index loops traverse x, V and the k-vectors in lockstep; iterators
    // would obscure the Eq. 10 correspondence.
    #[allow(clippy::needless_range_loop)]
    fn efficient_mahalanobis(&self, x: &[f64], m: &Matrix) -> f64 {
        let (n, k) = (self.n(), self.k());
        let mut a = vec![0.0; k];
        let mut b = vec![0.0; k];
        let mut s = Matrix::zeros(k, k);
        for i in 0..n {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            let vi = self.v.row(i);
            let quad = quadratic_form(m, vi); // vᵢᵀ M vᵢ
            for d in 0..k {
                a[d] += xi * vi[d];
                b[d] += xi * quad * vi[d];
            }
            for r in 0..k {
                let vir = vi[r] * xi;
                if vir == 0.0 {
                    continue;
                }
                for c in 0..k {
                    s[(r, c)] += vir * vi[c];
                }
            }
        }
        // First term: aᵀ diag(h) b.
        let first: f64 = a.iter().zip(&b).zip(&self.h).map(|((av, bv), hv)| av * bv * hv).sum();
        // Precompute T = S M once (O(k³)); second term is Σⱼ xⱼ vⱼᵀ diag(h) T vⱼ.
        let t = s.matmul(m);
        let mut second = 0.0;
        let mut tv = vec![0.0; k];
        for j in 0..n {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            let vj = self.v.row(j);
            for (r, slot) in tv.iter_mut().enumerate() {
                let mut acc = 0.0;
                for c in 0..k {
                    acc += t[(r, c)] * vj[c];
                }
                *slot = acc;
            }
            let mut dot = 0.0;
            for d in 0..k {
                dot += vj[d] * self.h[d] * tv[d];
            }
            second += xj * dot;
        }
        first - second
    }

    /// Eq. 11: `f = aᵀ diag(h) b − Σⱼ xⱼ vⱼᵀ diag(h) C v̂ⱼ` with
    /// `b = Σᵢ xᵢ‖v̂ᵢ‖²vᵢ` and `C = Σᵢ xᵢ vᵢ v̂ᵢᵀ`.
    #[allow(clippy::needless_range_loop)]
    fn efficient_transformed(&self, x: &[f64], v_hat: &Matrix) -> f64 {
        let (n, k) = (self.n(), self.k());
        let mut a = vec![0.0; k];
        let mut b = vec![0.0; k];
        let mut c = Matrix::zeros(k, k);
        for i in 0..n {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            let vi = self.v.row(i);
            let vhi = v_hat.row(i);
            let norm_sq: f64 = vhi.iter().map(|z| z * z).sum();
            for d in 0..k {
                a[d] += xi * vi[d];
                b[d] += xi * norm_sq * vi[d];
            }
            for r in 0..k {
                let vir = vi[r] * xi;
                if vir == 0.0 {
                    continue;
                }
                for col in 0..k {
                    c[(r, col)] += vir * vhi[col];
                }
            }
        }
        let first: f64 = a.iter().zip(&b).zip(&self.h).map(|((av, bv), hv)| av * bv * hv).sum();
        let mut second = 0.0;
        let mut cv = vec![0.0; k];
        for j in 0..n {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            let vj = self.v.row(j);
            let vhj = v_hat.row(j);
            for (r, slot) in cv.iter_mut().enumerate() {
                let mut acc = 0.0;
                for col in 0..k {
                    acc += c[(r, col)] * vhj[col];
                }
                *slot = acc;
            }
            let mut dot = 0.0;
            for d in 0..k {
                dot += vj[d] * self.h[d] * cv[d];
            }
            second += xj * dot;
        }
        first - second
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Distance;
    use gmlfm_tensor::init::normal;
    use gmlfm_tensor::seeded_rng;
    use proptest::prelude::*;

    /// A random dense model and its `v̂` rows: `V`, `V·Lᵀ` with `M = LᵀL`,
    /// or the MLP image of `V`.
    fn random_model(n: usize, k: usize, transform: u8, seed: u64) -> (DenseGmlFm, Matrix) {
        let mut rng = seeded_rng(seed);
        let v = normal(&mut rng, n, k, 0.0, 0.7);
        let h: Vec<f64> = normal(&mut rng, 1, k, 0.0, 0.7).into_vec();
        let (transform, v_hat) = match transform % 3 {
            0 => (DenseTransform::Identity, v.clone()),
            1 => {
                let l = normal(&mut rng, k, k, 0.0, 0.5);
                (DenseTransform::Mahalanobis(l.matmul_tn(&l)), v.matmul_nt(&l)) // M = LᵀL ⪰ 0
            }
            _ => {
                let dnn = DnnTransform {
                    weights: vec![normal(&mut rng, k, k, 0.0, 0.5), normal(&mut rng, k, k, 0.0, 0.5)],
                    biases: vec![normal(&mut rng, 1, k, 0.0, 0.1), normal(&mut rng, 1, k, 0.0, 0.1)],
                };
                let v_hat = dnn.apply_rows(&v);
                (DenseTransform::Dnn(dnn), v_hat)
            }
        };
        (DenseGmlFm { v, h, transform }, v_hat)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn efficient_equals_naive(
            transform in 0u8..3,
            seed in 0u64..1000,
            n in 3usize..12,
        ) {
            let (model, _) = random_model(n, 4, transform, seed);
            let mut rng = seeded_rng(seed + 1);
            let x: Vec<f64> = normal(&mut rng, 1, n, 0.0, 1.0).into_vec();
            let naive = model.second_order_naive(&x);
            let efficient = model.second_order_efficient(&x);
            let scale = naive.abs().max(1.0);
            prop_assert!(
                (naive - efficient).abs() / scale < 1e-9,
                "transform {transform}: naive {naive} vs efficient {efficient}"
            );
        }

        #[test]
        fn efficient_equals_naive_on_sparse_inputs(
            transform in 0u8..3,
            seed in 0u64..500,
            active in proptest::collection::btree_set(0usize..20, 2..6),
        ) {
            let (model, v_hat) = random_model(20, 4, transform, seed);
            let mut x = vec![0.0; 20];
            for &i in &active {
                x[i] = 1.0;
            }
            let naive = model.second_order_naive(&x);
            let efficient = model.second_order_efficient(&x);
            prop_assert!((naive - efficient).abs() < 1e-9 * naive.abs().max(1.0));
            // The dense form over 0/1 inputs is the one reference's pair
            // sum over the active rows.
            let active: Vec<usize> = active.into_iter().collect();
            let (v, hat) = (|p: usize| model.v.row(active[p]), |p: usize| v_hat.row(active[p]));
            let want = crate::reference::pair_sum(active.len(), |p, q| {
                crate::reference::gml(v(p), v(q), Some(&model.h), Distance::SquaredEuclidean, hat(p), hat(q))
            });
            prop_assert!((naive - want).abs() < 1e-9 * want.abs().max(1.0), "naive {} vs reference {}", naive, want);
        }
    }

    #[test]
    fn identity_equals_mahalanobis_with_identity_matrix() {
        let (model_id, _) = random_model(8, 4, 0, 9);
        let model_m = DenseGmlFm {
            v: model_id.v.clone(),
            h: model_id.h.clone(),
            transform: DenseTransform::Mahalanobis(Matrix::eye(4)),
        };
        let x: Vec<f64> = (0..8).map(|i| (i as f64 * 0.37).sin()).collect();
        let a = model_id.second_order_efficient(&x);
        let b = model_m.second_order_efficient(&x);
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }

    #[test]
    fn zero_input_gives_zero() {
        let (model, _) = random_model(10, 4, 1, 3);
        let x = vec![0.0; 10];
        assert_eq!(model.second_order_naive(&x), 0.0);
        assert_eq!(model.second_order_efficient(&x), 0.0);
    }

    #[test]
    fn single_active_feature_gives_zero() {
        // D(v, v) = 0, so one active feature produces no pair term.
        let (model, _) = random_model(10, 4, 2, 4);
        let mut x = vec![0.0; 10];
        x[3] = 2.5;
        assert_eq!(model.second_order_naive(&x), 0.0);
        assert!(model.second_order_efficient(&x).abs() < 1e-9);
    }

    #[test]
    fn dnn_transform_rows_match_per_row_application() {
        let (model, _) = random_model(6, 4, 2, 5);
        let DenseTransform::Dnn(dnn) = &model.transform else { panic!("dnn expected") };
        let all = dnn.apply_rows(&model.v);
        for r in 0..model.n() {
            let single = dnn.apply_rows(&model.v.row_matrix(r));
            for (a, b) in all.row(r).iter().zip(single.row(0)) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
