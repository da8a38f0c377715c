//! The tape: eager forward evaluation, reverse-mode backward pass.

use crate::params::{scatter_add_rows, Gradients, ParamId, ParamSet};
use gmlfm_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Recorded operation. Each variant stores the indices of its inputs plus
/// whatever forward-pass data its backward rule needs.
#[derive(Debug, Clone)]
enum Op {
    /// Leaf holding a constant (no gradient flows out).
    Constant,
    /// Leaf holding a copy of a trainable parameter.
    Param(ParamId),
    Add(usize, usize),
    Sub(usize, usize),
    /// Element-wise (Hadamard) product.
    Mul(usize, usize),
    /// Element-wise quotient `a / b`.
    Div(usize, usize),
    MatMul(usize, usize),
    /// `[B,k] + [1,k]`: add a row vector to every row (bias add).
    AddRowBroadcast(usize, usize),
    /// `[B,k] * [B,1]`: scale each row by a per-row scalar.
    MulColBroadcast(usize, usize),
    Scale(usize, f64),
    /// The constant is kept for tape readability in Debug output even
    /// though the backward rule (identity) never reads it.
    AddScalar(usize, #[allow(dead_code)] f64),
    Neg(usize),
    Square(usize),
    Abs(usize),
    /// `x^p` for `x >= 0` (used after [`Op::Abs`] for Minkowski distances).
    PowNonNeg(usize, f64),
    Sqrt(usize),
    Tanh(usize),
    Sigmoid(usize),
    Relu(usize),
    Exp(usize),
    Ln(usize),
    /// Sum of all entries, producing a `1x1` matrix.
    SumAll(usize),
    /// Mean of all entries, producing a `1x1` matrix.
    MeanAll(usize),
    /// Row-wise sum: `[B,k] -> [B,1]`.
    SumRows(usize),
    /// Column-wise sum: `[B,k] -> [1,k]`.
    SumCols(usize),
    /// Row-wise max with stored argmax columns: `[B,k] -> [B,1]`.
    MaxRows(usize, Vec<usize>),
    /// Row gather (embedding lookup): input `[N,k]`, output `[B,k]`.
    GatherRows(usize, Vec<usize>),
    /// Horizontal concatenation `[A | B]`.
    ConcatCols(usize, usize),
    /// Column slice `[start, end)`.
    SliceCols(usize, usize, usize),
    /// Inverted dropout with the stored keep-mask already scaled by
    /// `1/(1-p)`.
    Dropout(usize, Matrix),
    /// Row-wise softmax.
    SoftmaxRows(usize),
    Transpose(usize),
}

struct Node {
    op: Op,
    value: Matrix,
}

/// A dynamically built computation graph.
///
/// Values are computed eagerly as operations are recorded, so a `Graph` is
/// also usable for pure inference; [`Graph::backward`] replays the tape in
/// reverse to produce exact gradients for every [`ParamSet`] leaf.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    n_params_seen: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Forward value of a `1x1` node as a scalar.
    ///
    /// # Panics
    /// Panics when the node is not `1x1`.
    pub fn scalar(&self, v: Var) -> f64 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar: node is {}x{}", m.rows(), m.cols());
        m.as_slice()[0]
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Records a constant leaf. No gradient is produced for it.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(Op::Constant, value)
    }

    /// Records a parameter leaf by copying the current parameter value.
    pub fn param(&mut self, params: &ParamSet, id: ParamId) -> Var {
        self.n_params_seen = self.n_params_seen.max(id.index() + 1);
        self.push(Op::Param(id), params.get(id).clone())
    }

    /// Element-wise sum of two same-shape nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = &self.nodes[a.0].value + &self.nodes[b.0].value;
        self.push(Op::Add(a.0, b.0), v)
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = &self.nodes[a.0].value - &self.nodes[b.0].value;
        self.push(Op::Sub(a.0, b.0), v)
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(Op::Mul(a.0, b.0), v)
    }

    /// Element-wise quotient `a / b`. The caller must keep `b` bounded away
    /// from zero (used for cosine-distance normalisation).
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.zip_with(&self.nodes[b.0].value, |x, y| x / y);
        self.push(Op::Div(a.0, b.0), v)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(Op::MatMul(a.0, b.0), v)
    }

    /// Adds a `1 x k` row vector to every row of a `B x k` node.
    pub fn add_row_broadcast(&mut self, a: Var, row: Var) -> Var {
        let (am, rm) = (&self.nodes[a.0].value, &self.nodes[row.0].value);
        assert_eq!(rm.rows(), 1, "add_row_broadcast: rhs must be 1 x k");
        assert_eq!(am.cols(), rm.cols(), "add_row_broadcast: col mismatch");
        let mut v = am.clone();
        for r in 0..v.rows() {
            for (o, &b) in v.row_mut(r).iter_mut().zip(rm.row(0)) {
                *o += b;
            }
        }
        self.push(Op::AddRowBroadcast(a.0, row.0), v)
    }

    /// Multiplies each row of a `B x k` node by the matching entry of a
    /// `B x 1` node.
    pub fn mul_col_broadcast(&mut self, a: Var, col: Var) -> Var {
        let (am, cm) = (&self.nodes[a.0].value, &self.nodes[col.0].value);
        assert_eq!(cm.cols(), 1, "mul_col_broadcast: rhs must be B x 1");
        assert_eq!(am.rows(), cm.rows(), "mul_col_broadcast: row mismatch");
        let mut v = am.clone();
        for r in 0..v.rows() {
            let s = cm[(r, 0)];
            for o in v.row_mut(r) {
                *o *= s;
            }
        }
        self.push(Op::MulColBroadcast(a.0, col.0), v)
    }

    /// Multiplies every entry by a constant.
    pub fn scale(&mut self, a: Var, alpha: f64) -> Var {
        let v = self.nodes[a.0].value.scale(alpha);
        self.push(Op::Scale(a.0, alpha), v)
    }

    /// Adds a constant to every entry.
    pub fn add_scalar(&mut self, a: Var, c: f64) -> Var {
        let v = self.nodes[a.0].value.map(|x| x + c);
        self.push(Op::AddScalar(a.0, c), v)
    }

    /// Negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = -&self.nodes[a.0].value;
        self.push(Op::Neg(a.0), v)
    }

    /// Element-wise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x * x);
        self.push(Op::Square(a.0), v)
    }

    /// Element-wise absolute value (subgradient 0 at 0).
    pub fn abs(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f64::abs);
        self.push(Op::Abs(a.0), v)
    }

    /// Element-wise `x^p` for non-negative inputs.
    pub fn pow_non_neg(&mut self, a: Var, p: f64) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0).powf(p));
        self.push(Op::PowNonNeg(a.0, p), v)
    }

    /// Element-wise square root of non-negative inputs.
    pub fn sqrt(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0).sqrt());
        self.push(Op::Sqrt(a.0), v)
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f64::tanh);
        self.push(Op::Tanh(a.0), v)
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(sigmoid_scalar);
        self.push(Op::Sigmoid(a.0), v)
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(Op::Relu(a.0), v)
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f64::exp);
        self.push(Op::Exp(a.0), v)
    }

    /// Element-wise natural logarithm (caller keeps inputs positive).
    pub fn ln(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f64::ln);
        self.push(Op::Ln(a.0), v)
    }

    /// Numerically stable `ln(sigmoid(x))`, used by the BPR loss.
    pub fn ln_sigmoid(&mut self, a: Var) -> Var {
        // ln σ(x) = -softplus(-x); composed from primitives so the backward
        // pass needs no dedicated rule: σ(x) then ln would overflow for very
        // negative x, so clamp through sigmoid which is already stable.
        let s = self.sigmoid(a);
        let s = self.add_scalar(s, 1e-12);
        self.ln(s)
    }

    /// Sum of all entries as a `1x1` node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::filled(1, 1, self.nodes[a.0].value.sum());
        self.push(Op::SumAll(a.0), v)
    }

    /// Mean of all entries as a `1x1` node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Matrix::filled(1, 1, self.nodes[a.0].value.mean());
        self.push(Op::MeanAll(a.0), v)
    }

    /// Row-wise sums: `[B,k] -> [B,1]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sum_rows();
        self.push(Op::SumRows(a.0), v)
    }

    /// Column-wise sums: `[B,k] -> [1,k]`.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sum_cols();
        self.push(Op::SumCols(a.0), v)
    }

    /// Row-wise max (Chebyshev distance): `[B,k] -> [B,1]`.
    ///
    /// Gradient flows only to the arg-max entry of each row, the standard
    /// subgradient choice.
    pub fn max_rows(&mut self, a: Var) -> Var {
        let m = &self.nodes[a.0].value;
        let mut argmax = Vec::with_capacity(m.rows());
        let mut v = Matrix::zeros(m.rows(), 1);
        for r in 0..m.rows() {
            let row = m.row(r);
            let (mut best_c, mut best) = (0usize, f64::NEG_INFINITY);
            for (c, &x) in row.iter().enumerate() {
                if x > best {
                    best = x;
                    best_c = c;
                }
            }
            argmax.push(best_c);
            v[(r, 0)] = best;
        }
        self.push(Op::MaxRows(a.0, argmax), v)
    }

    /// Embedding lookup: gathers `indices` rows of a `[N,k]` node into a
    /// `[B,k]` node; the backward pass scatter-adds into the source rows.
    ///
    /// Gather straight from a [`Graph::param`] leaf when the table is a
    /// parameter: [`Graph::backward`] then adds the `B` adjoint rows
    /// directly into the parameter's gradient. From any other node the
    /// rows go through a zero-filled `[N,k]` adjoint first. Both give the
    /// same bits when the gathers of a table read disjoint index sets
    /// (duplicates inside one gather are fine); where gathers share rows
    /// the two associate the shared rows' sums differently and agree to
    /// rounding only.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let v = self.nodes[a.0].value.gather_rows(indices);
        self.push(Op::GatherRows(a.0, indices.to_vec()), v)
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.hcat(&self.nodes[b.0].value);
        self.push(Op::ConcatCols(a.0, b.0), v)
    }

    /// Column slice `a[:, start..end]`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let src = &self.nodes[a.0].value;
        assert!(start < end && end <= src.cols(), "slice_cols: [{start},{end}) out of {} cols", src.cols());
        let mut v = Matrix::zeros(src.rows(), end - start);
        for r in 0..src.rows() {
            v.row_mut(r).copy_from_slice(&src.row(r)[start..end]);
        }
        self.push(Op::SliceCols(a.0, start, end), v)
    }

    /// Inverted dropout: keeps each entry with probability `1-p`, scaling
    /// kept entries by `1/(1-p)` so the expectation is unchanged. With
    /// `p == 0` this is the identity (used at evaluation time).
    pub fn dropout(&mut self, a: Var, p: f64, rng: &mut StdRng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout: p must be in [0,1), got {p}");
        if p == 0.0 {
            // Identity via a kept-everything mask keeps the tape uniform.
            let shape = self.nodes[a.0].value.shape();
            let mask = Matrix::filled(shape.0, shape.1, 1.0);
            let v = self.nodes[a.0].value.clone();
            return self.push(Op::Dropout(a.0, mask), v);
        }
        let keep = 1.0 - p;
        let src = &self.nodes[a.0].value;
        let mask =
            Matrix::from_fn(
                src.rows(),
                src.cols(),
                |_, _| {
                    if rng.gen::<f64>() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    }
                },
            );
        let v = src.hadamard(&mask);
        self.push(Op::Dropout(a.0, mask), v)
    }

    /// Row-wise softmax (used by the AFM attention network).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let src = &self.nodes[a.0].value;
        let mut v = src.clone();
        for r in 0..v.rows() {
            let row = v.row_mut(r);
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut z = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                z += *x;
            }
            for x in row.iter_mut() {
                *x /= z;
            }
        }
        self.push(Op::SoftmaxRows(a.0), v)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.transpose();
        self.push(Op::Transpose(a.0), v)
    }

    /// Convenience: mean squared error between a prediction column and a
    /// target column, as a `1x1` node.
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.square(d);
        self.mean_all(sq)
    }

    /// Runs the backward pass from a `1x1` loss node, returning gradients
    /// for every [`ParamSet`] leaf that participated.
    ///
    /// Every node's adjoint is the sum of its consumers' contributions in
    /// descending consumer order, each computed by the product kernels'
    /// fixed summation order, so the pass is deterministic to the bit. A
    /// node's first contribution is moved into its slot, later ones are
    /// added in place. A [`Graph::gather_rows`] from a parameter leaf
    /// skips the slot and scatter-adds into [`Gradients`] (see there for
    /// when that is bit-identical to the dense rule), so no adjoint the
    /// pass stores has the height of an embedding table: a training
    /// step's only table-height work is one zero-fill per gathered
    /// parameter and the optimizer's pass over it.
    ///
    /// # Panics
    /// Panics when `loss` is not `1x1`.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.nodes[loss.0].value.shape(), (1, 1), "backward: loss must be a 1x1 node");
        let mut adj: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        adj[loss.0] = Some(Matrix::filled(1, 1, 1.0));
        let mut grads = Gradients::new(self.n_params_seen);

        for idx in (0..=loss.0).rev() {
            let Some(g) = adj[idx].take() else { continue };
            match &self.nodes[idx].op {
                Op::Constant => {}
                Op::Param(id) => grads.accumulate(*id, &g),
                Op::Add(a, b) => {
                    accumulate(&mut adj, *a, g.clone());
                    accumulate(&mut adj, *b, g);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut adj, *a, g.clone());
                    accumulate_scaled(&mut adj, *b, g, -1.0);
                }
                Op::Mul(a, b) => {
                    let da = g.hadamard(&self.nodes[*b].value);
                    let db = g.hadamard(&self.nodes[*a].value);
                    accumulate(&mut adj, *a, da);
                    accumulate(&mut adj, *b, db);
                }
                Op::Div(a, b) => {
                    let bv = &self.nodes[*b].value;
                    let da = g.zip_with(bv, |gi, bi| gi / bi);
                    let av = &self.nodes[*a].value;
                    let db = Matrix::from_fn(bv.rows(), bv.cols(), |r, c| {
                        -g[(r, c)] * av[(r, c)] / (bv[(r, c)] * bv[(r, c)])
                    });
                    accumulate(&mut adj, *a, da);
                    accumulate(&mut adj, *b, db);
                }
                Op::MatMul(a, b) => {
                    let da = g.matmul_nt(&self.nodes[*b].value);
                    let db = self.nodes[*a].value.matmul_tn(&g);
                    accumulate(&mut adj, *a, da);
                    accumulate(&mut adj, *b, db);
                }
                Op::AddRowBroadcast(a, row) => {
                    let drow = g.sum_cols();
                    accumulate(&mut adj, *a, g);
                    accumulate(&mut adj, *row, drow);
                }
                Op::MulColBroadcast(a, col) => {
                    let cv = &self.nodes[*col].value;
                    let av = &self.nodes[*a].value;
                    let mut da = g;
                    let mut dcol = Matrix::zeros(cv.rows(), 1);
                    for r in 0..da.rows() {
                        let s = cv[(r, 0)];
                        let mut acc = 0.0;
                        for (o, &aval) in da.row_mut(r).iter_mut().zip(av.row(r)) {
                            acc += *o * aval;
                            *o *= s;
                        }
                        dcol[(r, 0)] = acc;
                    }
                    accumulate(&mut adj, *a, da);
                    accumulate(&mut adj, *col, dcol);
                }
                Op::Scale(a, alpha) => accumulate_scaled(&mut adj, *a, g, *alpha),
                Op::AddScalar(a, _) => accumulate(&mut adj, *a, g),
                Op::Neg(a) => accumulate_scaled(&mut adj, *a, g, -1.0),
                Op::Square(a) => {
                    let da = g.zip_with(&self.nodes[*a].value, |gi, ai| 2.0 * ai * gi);
                    accumulate(&mut adj, *a, da);
                }
                Op::Abs(a) => {
                    let da = g.zip_with(&self.nodes[*a].value, |gi, ai| gi * sign(ai));
                    accumulate(&mut adj, *a, da);
                }
                Op::PowNonNeg(a, p) => {
                    let da = g.zip_with(&self.nodes[*a].value, |gi, ai| {
                        if ai > 0.0 {
                            gi * p * ai.powf(p - 1.0)
                        } else {
                            0.0
                        }
                    });
                    accumulate(&mut adj, *a, da);
                }
                Op::Sqrt(a) => {
                    let y = &self.nodes[idx].value;
                    let da = g.zip_with(y, |gi, yi| if yi > 0.0 { gi * 0.5 / yi } else { 0.0 });
                    accumulate(&mut adj, *a, da);
                }
                Op::Tanh(a) => {
                    let da = g.zip_with(&self.nodes[idx].value, |gi, yi| gi * (1.0 - yi * yi));
                    accumulate(&mut adj, *a, da);
                }
                Op::Sigmoid(a) => {
                    let da = g.zip_with(&self.nodes[idx].value, |gi, yi| gi * yi * (1.0 - yi));
                    accumulate(&mut adj, *a, da);
                }
                Op::Relu(a) => {
                    let da = g.zip_with(&self.nodes[*a].value, |gi, ai| if ai > 0.0 { gi } else { 0.0 });
                    accumulate(&mut adj, *a, da);
                }
                Op::Exp(a) => {
                    let da = g.hadamard(&self.nodes[idx].value);
                    accumulate(&mut adj, *a, da);
                }
                Op::Ln(a) => {
                    let da = g.zip_with(&self.nodes[*a].value, |gi, ai| gi / ai);
                    accumulate(&mut adj, *a, da);
                }
                Op::SumAll(a) => {
                    let s = g.as_slice()[0];
                    let src = &self.nodes[*a].value;
                    let da = Matrix::filled(src.rows(), src.cols(), s);
                    accumulate(&mut adj, *a, da);
                }
                Op::MeanAll(a) => {
                    let src = &self.nodes[*a].value;
                    let s = g.as_slice()[0] / src.len() as f64;
                    let da = Matrix::filled(src.rows(), src.cols(), s);
                    accumulate(&mut adj, *a, da);
                }
                Op::SumRows(a) => {
                    let src = &self.nodes[*a].value;
                    let mut da = Matrix::zeros(src.rows(), src.cols());
                    for r in 0..src.rows() {
                        da.row_mut(r).fill(g[(r, 0)]);
                    }
                    accumulate(&mut adj, *a, da);
                }
                Op::SumCols(a) => {
                    let src = &self.nodes[*a].value;
                    let da = Matrix::from_fn(src.rows(), src.cols(), |_, c| g[(0, c)]);
                    accumulate(&mut adj, *a, da);
                }
                Op::MaxRows(a, argmax) => {
                    let src = &self.nodes[*a].value;
                    let mut da = Matrix::zeros(src.rows(), src.cols());
                    for (r, &c) in argmax.iter().enumerate() {
                        da[(r, c)] = g[(r, 0)];
                    }
                    accumulate(&mut adj, *a, da);
                }
                Op::GatherRows(a, indices) => {
                    let src = &self.nodes[*a];
                    if let Op::Param(id) = src.op {
                        grads.scatter_add_rows(id, src.value.shape(), indices, &g);
                    } else {
                        let mut da = Matrix::zeros(src.value.rows(), src.value.cols());
                        scatter_add_rows(&mut da, indices, &g);
                        accumulate(&mut adj, *a, da);
                    }
                }
                Op::ConcatCols(a, b) => {
                    let ac = self.nodes[*a].value.cols();
                    let bc = self.nodes[*b].value.cols();
                    let rows = g.rows();
                    let mut da = Matrix::zeros(rows, ac);
                    let mut db = Matrix::zeros(rows, bc);
                    for r in 0..rows {
                        da.row_mut(r).copy_from_slice(&g.row(r)[..ac]);
                        db.row_mut(r).copy_from_slice(&g.row(r)[ac..]);
                    }
                    accumulate(&mut adj, *a, da);
                    accumulate(&mut adj, *b, db);
                }
                Op::SliceCols(a, start, _end) => {
                    let src = &self.nodes[*a].value;
                    let mut da = Matrix::zeros(src.rows(), src.cols());
                    for r in 0..g.rows() {
                        da.row_mut(r)[*start..*start + g.cols()].copy_from_slice(g.row(r));
                    }
                    accumulate(&mut adj, *a, da);
                }
                Op::Dropout(a, mask) => {
                    let da = g.hadamard(mask);
                    accumulate(&mut adj, *a, da);
                }
                Op::SoftmaxRows(a) => {
                    let y = &self.nodes[idx].value;
                    let mut da = Matrix::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let gy: f64 = g.row(r).iter().zip(y.row(r)).map(|(gi, yi)| gi * yi).sum();
                        for ((o, &gi), &yi) in da.row_mut(r).iter_mut().zip(g.row(r)).zip(y.row(r)) {
                            *o = yi * (gi - gy);
                        }
                    }
                    accumulate(&mut adj, *a, da);
                }
                Op::Transpose(a) => {
                    let da = g.transpose();
                    accumulate(&mut adj, *a, da);
                }
            }
        }
        grads
    }
}

#[inline]
fn sign(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

#[inline]
fn sigmoid_scalar(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Adds `g` to node `idx`'s adjoint. `g` is the caller's backward
/// temporary, taken by value so a node's first contribution is moved in.
fn accumulate(adj: &mut [Option<Matrix>], idx: usize, g: Matrix) {
    accumulate_scaled(adj, idx, g, 1.0);
}

/// Adds `alpha * g` to node `idx`'s adjoint — the one place adjoints are
/// stored.
fn accumulate_scaled(adj: &mut [Option<Matrix>], idx: usize, mut g: Matrix, alpha: f64) {
    #[cfg(test)]
    ADJOINT_ELEMS.with(|n| n.set(n.get() + g.len()));
    match &mut adj[idx] {
        Some(existing) => existing.axpy(alpha, &g),
        slot @ None => {
            if alpha != 1.0 {
                g.scale_inplace(alpha);
            }
            *slot = Some(g);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// `f64` elements handed to [`accumulate_scaled`] on this thread: the
    /// work the table-height test counts.
    static ADJOINT_ELEMS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_tensor::{approx_eq, seeded_rng};

    #[test]
    fn forward_values_are_eager() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::row_vector(&[1.0, 2.0]));
        let b = g.constant(Matrix::row_vector(&[3.0, 4.0]));
        let c = g.add(a, b);
        assert_eq!(g.value(c).as_slice(), &[4.0, 6.0]);
        let d = g.mul(a, b);
        assert_eq!(g.value(d).as_slice(), &[3.0, 8.0]);
        let s = g.sum_all(d);
        assert_eq!(g.scalar(s), 11.0);
    }

    #[test]
    fn backward_through_linear_layer() {
        // loss = mean((x W + b - t)^2) with hand-checked gradient.
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::from_rows(&[&[1.0], &[1.0]]));
        let b = params.add("b", Matrix::from_rows(&[&[0.0]]));
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let bv = g.param(&params, b);
        let x = g.constant(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let t = g.constant(Matrix::from_rows(&[&[2.0], &[8.0]]));
        let xw = g.matmul(x, wv);
        let pred = g.add_row_broadcast(xw, bv);
        let loss = g.mse(pred, t);
        // residuals: (3-2)=1, (7-8)=-1; loss = (1+1)/2 = 1
        assert!((g.scalar(loss) - 1.0).abs() < 1e-12);
        let grads = g.backward(loss);
        // dL/dpred = [2r/2] = [1, -1] scaled by 1/B... mean over 2 entries:
        // dL/dpred_i = 2 * r_i / 2 = r_i => [1, -1]
        // dW = xᵀ dpred = [1*1 + 3*(-1); 2*1 + 4*(-1)] = [-2; -2]
        let gw = grads.get(w).unwrap();
        assert!(approx_eq(gw, &Matrix::from_rows(&[&[-2.0], &[-2.0]]), 1e-12));
        // db = sum dpred = 0
        let gb = grads.get(b).unwrap();
        assert!(approx_eq(gb, &Matrix::from_rows(&[&[0.0]]), 1e-12));
    }

    #[test]
    fn gather_rows_scatter_adds() {
        let mut params = ParamSet::new();
        let e = params.add("emb", Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let mut g = Graph::new();
        let ev = g.param(&params, e);
        let got = g.gather_rows(ev, &[2, 0, 2]);
        assert_eq!(g.value(got).row(0), &[5.0, 6.0]);
        let s = g.sum_all(got);
        let grads = g.backward(s);
        let ge = grads.get(e).unwrap();
        // Row 2 gathered twice => grad 2, row 0 once => 1, row 1 never => 0.
        assert!(approx_eq(ge, &Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0], &[2.0, 2.0]]), 1e-12));
    }

    /// `f64` elements stored into adjoint slots by one backward pass of a
    /// GML-FM-shaped step (6 fields, B = 256, k = 16: six gathers of an
    /// `n x k` factor leaf and six of an `n x 1` weight leaf, the fifteen
    /// weighted pair terms, `mse`) over an `n`-row table.
    fn adjoint_elems_of_a_gmlfm_shaped_step(n: usize) -> usize {
        const FIELDS: usize = 6;
        const B: usize = 256;
        const K: usize = 16;
        let mut params = ParamSet::new();
        let v = params.add("v", Matrix::from_fn(n, K, |r, c| ((r * 31 + c) % 17) as f64 * 0.01));
        let w = params.add("w", Matrix::filled(n, 1, 0.01));
        let h = params.add("h", Matrix::filled(K, 1, 1.0));
        let width = n / FIELDS;
        let cols: Vec<Vec<usize>> = (0..FIELDS)
            .map(|f| (0..B).map(|b| f * width + (b * 7) % width).collect())
            .collect();

        let mut g = Graph::new();
        let (vv, wv, hv) = (g.param(&params, v), g.param(&params, w), g.param(&params, h));
        let embeds: Vec<Var> = cols.iter().map(|col| g.gather_rows(vv, col)).collect();
        let mut pred = g.constant(Matrix::zeros(B, 1));
        for col in &cols {
            let linear = g.gather_rows(wv, col);
            pred = g.add(pred, linear);
        }
        for i in 0..FIELDS {
            for j in i + 1..FIELDS {
                let prod = g.mul(embeds[i], embeds[j]);
                let weight = g.matmul(prod, hv);
                let diff = g.sub(embeds[i], embeds[j]);
                let sq = g.square(diff);
                let dist = g.sum_rows(sq);
                let term = g.mul(weight, dist);
                pred = g.add(pred, term);
            }
        }
        let target = g.constant(Matrix::filled(B, 1, 1.0));
        let loss = g.mse(pred, target);

        ADJOINT_ELEMS.with(|c| c.set(0));
        let grads = g.backward(loss);
        assert_eq!(grads.get(v).unwrap().shape(), (n, K));
        assert_eq!(grads.get(w).unwrap().shape(), (n, 1));
        ADJOINT_ELEMS.with(|c| c.get())
    }

    #[test]
    fn adjoint_traffic_does_not_grow_with_the_table_height() {
        // A count where a clock would flake. With the dense gather rule
        // each of the twelve gathers stored an `n`-row temporary, so the
        // count grew by 12 * 17 * 99 000 elements between these two.
        let (small, tall) =
            (adjoint_elems_of_a_gmlfm_shaped_step(1_000), adjoint_elems_of_a_gmlfm_shaped_step(100_000));
        assert!(small > 0);
        assert_eq!(small, tall, "adjoint elements stored: 1 000-row table vs 100 000-row table");
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        let mut g = Graph::new();
        let mut rng = seeded_rng(3);
        let a = g.constant(Matrix::filled(2, 3, 2.0));
        let d = g.dropout(a, 0.0, &mut rng);
        assert!(approx_eq(g.value(d), &Matrix::filled(2, 3, 2.0), 0.0));
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut g = Graph::new();
        let mut rng = seeded_rng(11);
        let a = g.constant(Matrix::filled(100, 100, 1.0));
        let d = g.dropout(a, 0.4, &mut rng);
        let mean = g.value(d).mean();
        assert!((mean - 1.0).abs() < 0.05, "dropout mean {mean}");
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]));
        let s = g.softmax_rows(a);
        let v = g.value(s);
        for r in 0..2 {
            let sum: f64 = v.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(v.row(r).iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn max_rows_routes_gradient_to_argmax() {
        let mut params = ParamSet::new();
        let p = params.add("p", Matrix::from_rows(&[&[1.0, 5.0, 3.0]]));
        let mut g = Graph::new();
        let pv = g.param(&params, p);
        let m = g.max_rows(pv);
        assert_eq!(g.value(m)[(0, 0)], 5.0);
        let s = g.sum_all(m);
        let grads = g.backward(s);
        assert_eq!(grads.get(p).unwrap().as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn scalar_panics_on_non_scalar() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::zeros(2, 2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.scalar(a)));
        assert!(result.is_err());
    }

    #[test]
    fn ln_sigmoid_is_stable_for_large_negative_inputs() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::row_vector(&[-100.0, 0.0, 100.0]));
        let l = g.ln_sigmoid(a);
        let v = g.value(l);
        assert!(v.is_finite());
        assert!((v.as_slice()[1] - (0.5f64.ln())).abs() < 1e-9);
        assert!(v.as_slice()[2].abs() < 1e-9);
    }
}
