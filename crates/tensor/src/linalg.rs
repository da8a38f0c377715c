//! Small dense linear-algebra routines used by the metric-learning core
//! and its tests: Cholesky factorisation (to certify positive
//! semi-definiteness of the learned Mahalanobis matrix `M = LᵀL`) and a
//! quadratic-form helper.

use crate::Matrix;

/// Attempts the Cholesky factorisation `A = R Rᵀ` of a symmetric matrix.
///
/// Returns `None` when `A` is not positive definite within `tol`. A
/// successful factorisation is a constructive proof of positive
/// definiteness, which the property tests use to certify that any
/// `M = LᵀL + eps·I` built by the Mahalanobis distance is valid.
pub fn cholesky(a: &Matrix, tol: f64) -> Option<Matrix> {
    assert_eq!(a.rows(), a.cols(), "cholesky: matrix must be square");
    let n = a.rows();
    let mut r = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= r[(i, k)] * r[(j, k)];
            }
            if i == j {
                if sum < -tol {
                    return None;
                }
                r[(i, i)] = sum.max(0.0).sqrt();
            } else if r[(j, j)].abs() > tol {
                r[(i, j)] = sum / r[(j, j)];
            } else if sum.abs() > tol {
                // Zero pivot but non-zero coupling: not PSD.
                return None;
            }
        }
    }
    Some(r)
}

/// `true` when the symmetric matrix `a` is positive semi-definite within
/// `tol`, verified constructively via [`cholesky`].
pub fn is_positive_semi_definite(a: &Matrix, tol: f64) -> bool {
    cholesky(a, tol).is_some()
}

/// Quadratic form `xᵀ A x` for a column or row vector `x` of length
/// `a.rows()`.
pub fn quadratic_form(a: &Matrix, x: &[f64]) -> f64 {
    assert_eq!(a.rows(), a.cols(), "quadratic_form: matrix must be square");
    assert_eq!(a.rows(), x.len(), "quadratic_form: vector length mismatch");
    let mut total = 0.0;
    for i in 0..a.rows() {
        let mut row_acc = 0.0;
        for (j, &xj) in x.iter().enumerate() {
            row_acc += a[(i, j)] * xj;
        }
        total += x[i] * row_acc;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_recovers_known_factor() {
        // A = R Rᵀ with R lower-triangular.
        let r = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        let a = r.matmul_nt(&r);
        let got = cholesky(&a, 1e-12).expect("PSD");
        assert!(crate::approx_eq(&got, &r, 1e-9));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(cholesky(&a, 1e-12).is_none());
    }

    #[test]
    fn gram_matrices_are_psd() {
        let l = Matrix::from_rows(&[&[0.3, -1.2, 0.7], &[2.0, 0.0, -0.5], &[0.1, 0.1, 0.1]]);
        let m = l.matmul_tn(&l); // LᵀL
        assert!(is_positive_semi_definite(&m, 1e-9));
    }

    #[test]
    fn quadratic_form_matches_matmul() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = [0.5, -2.0];
        let xm = Matrix::row_vector(&x);
        let expected = xm.matmul(&a).matmul(&xm.transpose())[(0, 0)];
        assert!((quadratic_form(&a, &x) - expected).abs() < 1e-12);
    }
}
