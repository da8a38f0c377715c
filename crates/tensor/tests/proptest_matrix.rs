//! Property tests for the algebraic laws the matrix substrate must obey,
//! and for the summation-order rule of the three product kernels: every
//! shape-specific path returns the bits of a naive triple loop.

use gmlfm_tensor::{approx_eq, seeded_rng, Matrix};
use proptest::prelude::*;
use rand::Rng;

const DIM: usize = 4;
const TOL: f64 = 1e-9;

fn matrix() -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, DIM * DIM).prop_map(|data| Matrix::from_vec(DIM, DIM, data))
}

/// A `rows x cols` matrix of draws from `[-10, 10)`, about a quarter of
/// them exact zeros (the kernels' skip-on-zero rule must see some).
fn sparse_matrix(rng: &mut impl Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(
        rows,
        cols,
        |_, _| if rng.gen_range(0..4) == 0 { 0.0 } else { rng.gen_range(-10.0..10.0) },
    )
}

/// The kernels' contract, written the slow way: entry `(i, j)` is the sum
/// over ascending `t` of `lhs(i, t) * rhs(t, j)`, starting from `0.0`,
/// leaving out the terms whose left factor is exactly zero when
/// `skip_zero`.
fn naive_product(
    (rows, inner, cols): (usize, usize, usize),
    lhs: impl Fn(usize, usize) -> f64,
    rhs: impl Fn(usize, usize) -> f64,
    skip_zero: bool,
) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let mut acc = 0.0;
        for t in 0..inner {
            if !(skip_zero && lhs(i, t) == 0.0) {
                acc += lhs(i, t) * rhs(t, j);
            }
        }
        acc
    })
}

fn same_bits(got: &Matrix, want: &Matrix) -> bool {
    got.shape() == want.shape()
        && got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn only_matmul_nt_keeps_the_terms_with_a_zero_left_factor() {
    let (zero, inf) = (Matrix::filled(1, 1, 0.0), Matrix::filled(1, 1, f64::INFINITY));
    assert_eq!(zero.matmul(&inf)[(0, 0)], 0.0);
    assert_eq!(zero.matmul_tn(&inf)[(0, 0)], 0.0);
    assert!(zero.matmul_nt(&inf)[(0, 0)].is_nan());
}

proptest! {
    /// Shapes on every side of the kernels' fast paths: a single column
    /// on the right, an inner dimension of one, no rows at all.
    #[test]
    fn product_kernels_are_bitwise_the_naive_triple_loop(
        seed in 0u64..10_000,
        rows in 0usize..40,
        inner in 1usize..20,
        cols in 1usize..20,
        force in 0u8..6,
    ) {
        let rows = if force == 1 { 0 } else { rows };
        let inner = if force == 2 || force == 3 { 1 } else { inner };
        let cols = if force == 3 || force == 4 { 1 } else { cols };
        let mut rng = seeded_rng(seed);

        let (a, b) = (sparse_matrix(&mut rng, rows, inner), sparse_matrix(&mut rng, inner, cols));
        let want = naive_product((rows, inner, cols), |i, t| a[(i, t)], |t, j| b[(t, j)], true);
        prop_assert!(same_bits(&a.matmul(&b), &want), "matmul {rows}x{inner} * {inner}x{cols}");

        // selfᵀ * rhs: the shared (summed-over) dimension is the row count.
        let (a, b) = (sparse_matrix(&mut rng, inner, rows), sparse_matrix(&mut rng, inner, cols));
        let want = naive_product((rows, inner, cols), |i, t| a[(t, i)], |t, j| b[(t, j)], true);
        prop_assert!(same_bits(&a.matmul_tn(&b), &want), "matmul_tn {inner}x{rows} ᵀ* {inner}x{cols}");

        let (a, b) = (sparse_matrix(&mut rng, rows, inner), sparse_matrix(&mut rng, cols, inner));
        let want = naive_product((rows, inner, cols), |i, t| a[(i, t)], |t, j| b[(j, t)], false);
        prop_assert!(same_bits(&a.matmul_nt(&b), &want), "matmul_nt {rows}x{inner} *ᵀ {cols}x{inner}");
    }

    #[test]
    fn addition_is_commutative(a in matrix(), b in matrix()) {
        prop_assert!(approx_eq(&(&a + &b), &(&b + &a), TOL));
    }

    #[test]
    fn addition_is_associative(a in matrix(), b in matrix(), c in matrix()) {
        let left = &(&a + &b) + &c;
        let right = &a + &(&b + &c);
        prop_assert!(approx_eq(&left, &right, TOL));
    }

    #[test]
    fn matmul_is_associative(a in matrix(), b in matrix(), c in matrix()) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        // Magnitudes reach ~DIM^2 * 1000, so compare with scaled tolerance.
        let scale = left.max_abs().max(1.0);
        prop_assert!(approx_eq(&left, &right, 1e-9 * scale));
    }

    #[test]
    fn matmul_distributes_over_addition(a in matrix(), b in matrix(), c in matrix()) {
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        let scale = left.max_abs().max(1.0);
        prop_assert!(approx_eq(&left, &right, 1e-9 * scale));
    }

    #[test]
    fn transpose_of_product_reverses_order(a in matrix(), b in matrix()) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        let scale = left.max_abs().max(1.0);
        prop_assert!(approx_eq(&left, &right, 1e-9 * scale));
    }

    #[test]
    fn identity_is_neutral(a in matrix()) {
        let eye = Matrix::eye(DIM);
        prop_assert!(approx_eq(&a.matmul(&eye), &a, TOL));
        prop_assert!(approx_eq(&eye.matmul(&a), &a, TOL));
    }

    #[test]
    fn frobenius_norm_is_subadditive(a in matrix(), b in matrix()) {
        prop_assert!((&a + &b).norm() <= a.norm() + b.norm() + TOL);
    }

    #[test]
    fn dot_is_bilinear(a in matrix(), b in matrix(), alpha in -5.0f64..5.0) {
        let scaled = a.scale(alpha);
        prop_assert!((scaled.dot(&b) - alpha * a.dot(&b)).abs() < 1e-7);
    }

    #[test]
    fn gram_matrices_are_psd(a in matrix()) {
        let gram = a.matmul_tn(&a);
        prop_assert!(gmlfm_tensor::linalg::is_positive_semi_definite(&gram, 1e-7));
    }

    #[test]
    fn axpy_matches_operator_form(a in matrix(), b in matrix(), alpha in -5.0f64..5.0) {
        let mut via_axpy = a.clone();
        via_axpy.axpy(alpha, &b);
        let via_ops = &a + &b.scale(alpha);
        prop_assert!(approx_eq(&via_axpy, &via_ops, TOL));
    }
}
