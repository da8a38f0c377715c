//! Row-major dense matrix and its arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A dense, row-major `f64` matrix.
///
/// This is the single numeric container used throughout the workspace.
/// Cheap to clone for the small shapes used by FM-family models, and all
/// hot-path operations offer in-place variants so training loops can reuse
/// workhorse buffers.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8usize;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:>10.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(12) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 12 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: buffer of {} entries cannot fill a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices. All rows must share a length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "from_rows: row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at each position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A `1 x n` row vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// An `n x 1` column vector.
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the entries.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view of the entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Copies row `r` into a fresh `1 x cols` matrix.
    pub fn row_matrix(&self, r: usize) -> Matrix {
        Matrix::from_vec(1, self.cols, self.row(r).to_vec())
    }

    /// Extracts column `c` as a plain vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {c} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// **Summation order**, the rule every path through the three product
    /// kernels keeps: each output entry is the sum of its `lhs · rhs` terms
    /// in ascending inner index, starting from `0.0`, one rounding per
    /// multiply and per add. `matmul` and [`Matrix::matmul_tn`] leave out
    /// the terms whose *left* factor is exactly `0.0`;
    /// [`Matrix::matmul_nt`] leaves out none. A shape-specific path that
    /// keeps the rule returns the same bits, so it moves no trained weight
    /// and nothing computed from one — `Freeze`'s `FrozenModel` tables and
    /// the Eq. 10/11 evaluators, which call these kernels, are unchanged.
    ///
    /// # Panics
    /// Panics when `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{} mismatched inner dimension",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.mul_ikj(rhs, true)
    }

    /// The product kernel behind [`Matrix::matmul`] (`skip_zero`) and
    /// [`Matrix::matmul_nt`] (every term kept).
    fn mul_ikj(&self, rhs: &Matrix, skip_zero: bool) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if rhs.cols == 1 {
            // A column on the right (the `B×k · k×1` weight products): one
            // dot per row against the contiguous column, instead of an
            // inner loop of length one per term.
            for (i, o) in out.data.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (&a, &b) in self.row(i).iter().zip(&rhs.data) {
                    if skip_zero && a == 0.0 {
                        continue;
                    }
                    acc += a * b;
                }
                *o = acc;
            }
            return out;
        }
        // i-k-j loop order keeps the inner traversal contiguous for both
        // `rhs` and `out`, and makes a row's outputs `rhs.cols` independent
        // accumulators, which matters for the k x k layer products in the
        // DNN distance function.
        for i in 0..self.rows {
            let o_row = out.row_mut(i);
            for (kk, &a) in self.row(i).iter().enumerate() {
                if skip_zero && a == 0.0 {
                    continue;
                }
                for (o, &b) in o_row.iter_mut().zip(rhs.row(kk)) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ * rhs` without materialising the transpose. Same summation
    /// order and skip-on-zero rule as [`Matrix::matmul`].
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: {}x{} ᵀ* {}x{} mismatched rows",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        if rhs.cols == 1 {
            // A column on the right: `out` is one contiguous vector of
            // `self.cols` accumulators, each row of `self` one update of it.
            for (r, &b) in rhs.data.iter().enumerate() {
                for (o, &a) in out.data.iter_mut().zip(self.row(r)) {
                    *o = if a == 0.0 { *o } else { *o + a * b };
                }
            }
            return out;
        }
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = rhs.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let o_row = out.row_mut(i);
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * rhsᵀ`: transposes `rhs` (the small operand wherever the
    /// tape calls this — a weight matrix against a `B`-row adjoint) and
    /// runs the i-k-j kernel, so a row's outputs are independent
    /// accumulators rather than one serial dot chain each. Summation order
    /// as in [`Matrix::matmul`], with no term left out.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} *ᵀ {}x{} mismatched cols",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.mul_ikj(&rhs.transpose(), false)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Applies `f` entry-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Applies `f` entry-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shape matrices entry-wise.
    pub fn zip_with(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        self.assert_same_shape(rhs, "zip_with");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// `self += alpha * rhs` (BLAS axpy), in place.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        self.assert_same_shape(rhs, "axpy");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every entry by `alpha`, in place.
    pub fn scale_inplace(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Returns `alpha * self`.
    pub fn scale(&self, alpha: f64) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Dot product of two same-shape matrices viewed as flat vectors.
    pub fn dot(&self, rhs: &Matrix) -> f64 {
        self.assert_same_shape(rhs, "dot");
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Largest absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Row-wise sums as an `rows x 1` column vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out[(r, 0)] = self.row(r).iter().sum();
        }
        out
    }

    /// Column-wise sums as a `1 x cols` row vector.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn hcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "hcat: row mismatch {} vs {}", self.rows, rhs.rows);
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Vertical concatenation `[self ; rhs]`.
    pub fn vcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "vcat: col mismatch {} vs {}", self.cols, rhs.cols);
        let mut data = Vec::with_capacity((self.rows + rhs.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Matrix::from_vec(self.rows + rhs.rows, self.cols, data)
    }

    /// Gathers the given rows into a new matrix (embedding lookup).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (r, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "gather_rows: index {idx} out of {} rows", self.rows);
            out.row_mut(r).copy_from_slice(self.row(idx));
        }
        out
    }

    /// True when no entry is NaN or infinite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    fn assert_same_shape(&self, rhs: &Matrix, op: &str) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "{op}: shape {}x{} vs {}x{}",
            self.rows,
            self.cols,
            rhs.rows,
            rhs.cols
        );
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {}x{}", self.rows, self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {}x{}", self.rows, self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        self.axpy(-1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn constructors_produce_expected_shapes() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::eye(3)[(1, 1)], 1.0);
        assert_eq!(Matrix::eye(3)[(0, 1)], 0.0);
        assert_eq!(Matrix::row_vector(&[1.0, 2.0]).shape(), (1, 2));
        assert_eq!(Matrix::col_vector(&[1.0, 2.0]).shape(), (2, 1));
        assert_eq!(Matrix::filled(2, 2, 7.0).sum(), 28.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_wrong_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample(); // 2x3
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]); // 3x2
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn matmul_tn_and_nt_match_explicit_transpose() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, -0.25, 3.0]]);
        let tn = a.matmul_tn(&b);
        let tn_explicit = a.transpose().matmul(&b);
        assert!(crate::approx_eq(&tn, &tn_explicit, 1e-12));
        let nt = a.matmul_nt(&b);
        let nt_explicit = a.matmul(&b.transpose());
        assert!(crate::approx_eq(&nt, &nt_explicit, 1e-12));
    }

    #[test]
    fn transpose_is_involutive() {
        let a = sample();
        assert!(crate::approx_eq(&a.transpose().transpose(), &a, 0.0));
    }

    #[test]
    fn hadamard_and_dot_agree() {
        let a = sample();
        let b = Matrix::filled(2, 3, 2.0);
        assert_eq!(a.hadamard(&b).sum(), a.dot(&b));
        assert_eq!(a.dot(&b), 42.0);
    }

    #[test]
    fn row_and_col_accessors() {
        let a = sample();
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
        assert_eq!(a.row_matrix(0).shape(), (1, 3));
    }

    #[test]
    fn reductions() {
        let a = sample();
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.sum_rows().as_slice(), &[6.0, 15.0]);
        assert_eq!(a.sum_cols().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.max_abs(), 6.0);
        assert!((a.norm_sq() - 91.0).abs() < 1e-12);
    }

    #[test]
    fn concat_and_gather() {
        let a = sample();
        let h = a.hcat(&a);
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let v = a.vcat(&a);
        assert_eq!(v.shape(), (4, 3));
        let g = a.gather_rows(&[1, 1, 0]);
        assert_eq!(g.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(g.row(2), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn inplace_ops() {
        let mut a = sample();
        let b = Matrix::filled(2, 3, 1.0);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 0)], 3.0);
        a.scale_inplace(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        a.fill_zero();
        assert_eq!(a.sum(), 0.0);
    }

    #[test]
    fn operator_overloads() {
        let a = sample();
        let b = Matrix::filled(2, 3, 1.0);
        let sum = &a + &b;
        assert_eq!(sum[(1, 2)], 7.0);
        let diff = &sum - &b;
        assert!(crate::approx_eq(&diff, &a, 0.0));
        let scaled = &a * 3.0;
        assert_eq!(scaled[(0, 1)], 6.0);
        let neg = -&a;
        assert_eq!(neg[(0, 0)], -1.0);
        let mut c = a.clone();
        c += &b;
        c -= &b;
        assert!(crate::approx_eq(&c, &a, 0.0));
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_rejects_mismatch() {
        let a = sample();
        let _ = a.matmul(&sample());
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = sample();
        assert!(a.is_finite());
        a[(0, 0)] = f64::NAN;
        assert!(!a.is_finite());
    }
}
