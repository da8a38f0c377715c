//! # gmlfm-tensor
//!
//! Dense `f64` matrix substrate for the GML-FM reproduction.
//!
//! Every model in this workspace (factorization machines, metric-learning
//! FMs, MLP baselines) is small dense math: embeddings of width `k` (tens to
//! hundreds), square `k x k` layer weights, and batches of a few hundred
//! rows.  A row-major [`Matrix`] over `f64` with explicit, allocation-aware
//! operations is all the substrate those models need, and keeping it
//! dependency-free makes the numerical behaviour of the whole reproduction
//! auditable.
//!
//! Vectors are represented as `1 x n` (row) or `n x 1` (column) matrices;
//! helpers such as [`Matrix::row_vector`] construct them.
//!
//! Shape mismatches are programming errors, not runtime conditions, so the
//! arithmetic here panics with a descriptive message instead of returning
//! `Result` (the same contract as `ndarray` and friends).
#![forbid(unsafe_code)]

pub mod init;
pub mod linalg;
pub mod matrix;
pub mod stats;

pub use init::{seeded_rng, xavier_limit};
pub use matrix::Matrix;

/// Absolute tolerance used by the test-support comparisons in this crate.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Returns `true` when `a` and `b` differ by at most `tol` in every entry
/// and share the same shape.
pub fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_accepts_within_tolerance() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0 + 1e-12, 2.0 - 1e-12]]);
        assert!(approx_eq(&a, &b, 1e-9));
    }

    #[test]
    fn approx_eq_rejects_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(!approx_eq(&a, &b, 1.0));
    }
}
