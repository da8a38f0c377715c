//! Finite-difference certification of backward rules.
//!
//! Every operator in [`crate::graph`] is validated by comparing its
//! analytic gradient against a central difference of the loss. This is the
//! safety net that lets the rest of the workspace trust the substrate the
//! way it would trust PyTorch.

use crate::{Gradients, Graph, ParamSet, Var};

/// Result of a [`gradient_check`]: the largest absolute and relative error
/// observed across all checked parameter entries.
#[derive(Debug, Clone, Copy)]
pub struct CheckReport {
    /// Largest `|analytic - numeric|`.
    pub max_abs_err: f64,
    /// Largest `|analytic - numeric| / max(1, |analytic|, |numeric|)`.
    pub max_rel_err: f64,
    /// Number of scalar entries compared.
    pub entries: usize,
}

impl CheckReport {
    /// True when both error measures are below `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_abs_err <= tol || self.max_rel_err <= tol
    }
}

/// Compares the analytic gradient of `build` against central finite
/// differences.
///
/// `build` must be deterministic: called repeatedly with the same
/// parameters it must produce the same scalar loss (use dropout `p = 0` or
/// a freshly seeded RNG inside the closure).
///
/// Central differences use step `eps`; with `f64` and smooth operators,
/// `eps = 1e-6` typically yields agreement to ~1e-8.
pub fn gradient_check(
    params: &mut ParamSet,
    eps: f64,
    build: impl Fn(&mut Graph, &ParamSet) -> Var,
) -> CheckReport {
    let analytic: Gradients = {
        let mut g = Graph::new();
        let loss = build(&mut g, params);
        g.backward(loss)
    };

    let mut report = CheckReport { max_abs_err: 0.0, max_rel_err: 0.0, entries: 0 };
    let ids: Vec<_> = params.iter().map(|(id, _)| id).collect();
    for id in ids {
        let n = params.get(id).len();
        for i in 0..n {
            let original = params.get(id).as_slice()[i];

            params.get_mut(id).as_mut_slice()[i] = original + eps;
            let up = eval_loss(params, &build);
            params.get_mut(id).as_mut_slice()[i] = original - eps;
            let down = eval_loss(params, &build);
            params.get_mut(id).as_mut_slice()[i] = original;

            let numeric = (up - down) / (2.0 * eps);
            let a = analytic.get(id).map_or(0.0, |m| m.as_slice()[i]);
            let abs_err = (a - numeric).abs();
            let rel_err = abs_err / a.abs().max(numeric.abs()).max(1.0);
            report.max_abs_err = report.max_abs_err.max(abs_err);
            report.max_rel_err = report.max_rel_err.max(rel_err);
            report.entries += 1;
        }
    }
    report
}

fn eval_loss(params: &ParamSet, build: &impl Fn(&mut Graph, &ParamSet) -> Var) -> f64 {
    let mut g = Graph::new();
    let loss = build(&mut g, params);
    g.scalar(loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_tensor::init::normal;
    use gmlfm_tensor::{seeded_rng, Matrix};

    const EPS: f64 = 1e-6;
    const TOL: f64 = 1e-7;

    fn rand_params(shapes: &[(&str, usize, usize)], seed: u64) -> ParamSet {
        let mut rng = seeded_rng(seed);
        let mut ps = ParamSet::new();
        for &(name, r, c) in shapes {
            ps.add(name, normal(&mut rng, r, c, 0.0, 0.8));
        }
        ps
    }

    fn id_of(params: &ParamSet, idx: usize) -> crate::ParamId {
        params.iter().nth(idx).unwrap().0
    }

    #[test]
    fn check_add_sub_mul_div() {
        let mut ps = rand_params(&[("a", 3, 4), ("b", 3, 4)], 1);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let a = g.param(p, id_of(p, 0));
            let b = g.param(p, id_of(p, 1));
            let sum = g.add(a, b);
            let diff = g.sub(sum, b);
            let prod = g.mul(diff, b);
            let b_off = g.add_scalar(b, 3.0); // keep denominators away from 0
            let q = g.div(prod, b_off);
            g.sum_all(q)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_matmul_chain() {
        let mut ps = rand_params(&[("a", 2, 3), ("b", 3, 4), ("c", 4, 2)], 2);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let a = g.param(p, id_of(p, 0));
            let b = g.param(p, id_of(p, 1));
            let c = g.param(p, id_of(p, 2));
            let ab = g.matmul(a, b);
            let abc = g.matmul(ab, c);
            let sq = g.square(abc);
            g.mean_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_broadcasts() {
        let mut ps = rand_params(&[("x", 4, 3), ("bias", 1, 3), ("col", 4, 1)], 3);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let x = g.param(p, id_of(p, 0));
            let bias = g.param(p, id_of(p, 1));
            let col = g.param(p, id_of(p, 2));
            let xb = g.add_row_broadcast(x, bias);
            let scaled = g.mul_col_broadcast(xb, col);
            let t = g.tanh(scaled);
            g.sum_all(t)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_activations() {
        let mut ps = rand_params(&[("a", 3, 5)], 4);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let a = g.param(p, id_of(p, 0));
            let t = g.tanh(a);
            let s = g.sigmoid(t);
            let e = g.exp(s);
            let l = g.ln(e);
            let sq = g.square(l);
            g.mean_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_relu_and_abs_away_from_kinks() {
        // Offset inputs so no entry sits near the non-differentiable point.
        let mut ps = ParamSet::new();
        ps.add("a", Matrix::from_rows(&[&[0.5, -0.7, 1.2], &[-2.0, 0.9, -0.4]]));
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let a = g.param(p, id_of(p, 0));
            let r = g.relu(a);
            let ab = g.abs(a);
            let sum = g.add(r, ab);
            g.sum_all(sum)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_sqrt() {
        let mut ps = ParamSet::new();
        ps.add("a", Matrix::from_rows(&[&[0.5, 0.7, 1.2], &[2.0, 0.9, 0.4]]));
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let a = g.param(p, id_of(p, 0));
            let a2 = g.mul(a, a);
            let a3 = g.mul(a2, a);
            let s = g.sqrt(a3);
            g.sum_all(s)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_reductions() {
        let mut ps = rand_params(&[("a", 4, 3)], 6);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let a = g.param(p, id_of(p, 0));
            let rows = g.sum_rows(a); // 4x1
            let sq = g.square(rows);
            let cols = g.sum_cols(a); // 1x3
            let sc = g.square(cols);
            let s1 = g.sum_all(sq);
            let s2 = g.sum_all(sc);
            let m = g.mean_all(a);
            let t = g.add(s1, s2);
            g.add(t, m)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_gather_and_concat() {
        let mut ps = rand_params(&[("emb", 5, 3), ("w", 6, 1)], 7);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let emb = g.param(p, id_of(p, 0));
            let w = g.param(p, id_of(p, 1));
            let left = g.gather_rows(emb, &[0, 2, 4]);
            let right = g.gather_rows(emb, &[1, 1, 3]);
            let cat = g.concat_cols(left, right); // 3x6
            let out = g.matmul(cat, w); // 3x1
            let sq = g.square(out);
            g.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_gather_param() {
        // In-place gathers of one table, overlapping, beside a dense use
        // of the same parameter.
        let mut ps = rand_params(&[("emb", 5, 3), ("w", 3, 1)], 13);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let left = g.gather_param(p, id_of(p, 0), &[0, 2, 4, 2]);
            let right = g.gather_param(p, id_of(p, 0), &[1, 2, 3, 3]);
            let prod = g.mul(left, right);
            let w = g.param(p, id_of(p, 1));
            let out = g.matmul(prod, w);
            let emb = g.param(p, id_of(p, 0));
            let sq = g.square(emb);
            let s1 = g.sum_all(out);
            let s2 = g.sum_all(sq);
            g.add(s1, s2)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_slice_cols() {
        let mut ps = rand_params(&[("a", 3, 6)], 12);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let a = g.param(p, id_of(p, 0));
            let left = g.slice_cols(a, 0, 2);
            let mid = g.slice_cols(a, 2, 5);
            let l2 = g.square(left);
            let m2 = g.square(mid);
            let s1 = g.sum_all(l2);
            let s2 = g.sum_all(m2);
            g.add(s1, s2)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_softmax() {
        let mut ps = rand_params(&[("a", 3, 4), ("v", 4, 1)], 8);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let a = g.param(p, id_of(p, 0));
            let v = g.param(p, id_of(p, 1));
            let sm = g.softmax_rows(a);
            let out = g.matmul(sm, v);
            let sq = g.square(out);
            g.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_max_rows_away_from_ties() {
        let mut ps = ParamSet::new();
        ps.add("a", Matrix::from_rows(&[&[1.0, 5.0, 3.0], &[9.0, 2.0, 4.0]]));
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let a = g.param(p, id_of(p, 0));
            let m = g.max_rows(a);
            let sq = g.square(m);
            g.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_transpose_and_neg() {
        let mut ps = rand_params(&[("a", 2, 4)], 9);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let a = g.param(p, id_of(p, 0));
            let at = g.transpose(a); // 4x2
            let prod = g.matmul(a, at); // 2x2
            let n = g.neg(prod);
            let sc = g.scale(n, 0.7);
            g.sum_all(sc)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_mlp_like_composition() {
        // The exact shape used by the DNN distance function: two k x k
        // layers with tanh and bias.
        let k = 4;
        let mut ps = rand_params(&[("w1", k, k), ("b1", 1, k), ("w2", k, k), ("b2", 1, k), ("x", 3, k)], 10);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let w1 = g.param(p, id_of(p, 0));
            let b1 = g.param(p, id_of(p, 1));
            let w2 = g.param(p, id_of(p, 2));
            let b2 = g.param(p, id_of(p, 3));
            let x = g.param(p, id_of(p, 4));
            let h1 = g.matmul(x, w1);
            let h1 = g.add_row_broadcast(h1, b1);
            let h1 = g.tanh(h1);
            let h2 = g.matmul(h1, w2);
            let h2 = g.add_row_broadcast(h2, b2);
            let h2 = g.tanh(h2);
            let sq = g.square(h2);
            g.mean_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_param_reused_twice_accumulates() {
        let mut ps = rand_params(&[("a", 3, 3)], 11);
        let report = gradient_check(&mut ps, EPS, |g, p| {
            let a1 = g.param(p, id_of(p, 0));
            let a2 = g.param(p, id_of(p, 0));
            let prod = g.matmul(a1, a2); // a @ a
            g.sum_all(prod)
        });
        assert!(report.passes(TOL), "{report:?}");
    }
}
