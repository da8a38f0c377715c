//! The fused pair term of [`crate::Graph::pair_sum`]. Its backward runs
//! the composed graph's operations in that graph's order: each pair term
//! gets the node's adjoint unchanged; a field's adjoint takes its pairs
//! descending, the first stored and the rest added; `h`'s is one vector
//! per pair summed over rows ascending (skipping zero products, as
//! `matmul_tn`), folded descending; `w_ij` adds `+0.0` where `matmul`
//! skips, the same bits as its sum starts at `+0.0` and is never `-0.0`.

use gmlfm_tensor::Matrix;
use std::fmt::Debug;

/// The distance of a [`crate::Graph::pair_sum`] over row-major blocks of
/// rows, implemented beside the distance so the tape does not know them.
pub trait PairDistance: Debug {
    /// `out[r] = D(a_r, b_r)`, with the bits of the composed graph.
    fn values(&self, a: &[f64], b: &[f64], out: &mut [f64]);

    /// Adds `a`'s and `b`'s adjoints for row adjoints `g` into `da`/`db`,
    /// one contribution per composed op in that graph's backward order,
    /// the first stored instead where `first[0]`/`first[1]` is set.
    fn backward(&self, a: &[f64], b: &[f64], g: &[f64], da: &mut [f64], db: &mut [f64], first: [bool; 2]);
}

/// Stores `x` in an adjoint entry on its first contribution, adds it after.
#[inline(always)]
pub fn store_or_add(slot: &mut f64, x: f64, first: bool) {
    *slot = if first { x } else { *slot + x };
}

/// Forward data of one [`crate::Graph::pair_sum`] node.
#[derive(Debug)]
pub(crate) struct PairSum {
    /// Input nodes: `m` distance inputs, then any `m` weight inputs and `h`.
    pub(crate) inputs: Vec<usize>,
    fields: usize,
    distance: Box<dyn PairDistance>,
    /// `D_ij` of the `p`-th pair at `p·B..(p+1)·B`; `w_ij` likewise, or empty.
    d: Vec<f64>,
    w: Vec<f64>,
}

/// The pairs `(i, j)`, `i < j`, in the composed graph's order.
fn pairs(m: usize) -> Vec<(usize, usize)> {
    (0..m).flat_map(|i| (i + 1..m).map(move |j| (i, j))).collect()
}

impl PairSum {
    /// Evaluates the node over its inputs' `values`; returns it and its
    /// `B×1` value.
    pub(crate) fn forward(
        distance: Box<dyn PairDistance>,
        inputs: Vec<usize>,
        fields: usize,
        values: &[&Matrix],
    ) -> (Self, Matrix) {
        assert!(fields >= 2, "pair_sum: needs two fields, got {fields}");
        let (t, e, h) = (&values[..fields], &values[fields..], values.get(2 * fields));
        let ((rows, k), pairs) = (t[0].shape(), pairs(fields));
        let same = |v: &&Matrix| v.shape() == (rows, k);
        let ok = e[..fields.min(e.len())].iter().chain(t).all(same) && h.is_none_or(|h| h.shape() == (k, 1));
        assert!(ok, "pair_sum: every field must be B×k and h k×1");
        let (mut d, mut w) = (vec![0.0; pairs.len() * rows], Vec::new());
        for (&(i, j), d) in pairs.iter().zip(d.chunks_exact_mut(rows.max(1))) {
            distance.values(t[i].as_slice(), t[j].as_slice(), d);
            if let Some(h) = h {
                for (ei, ej) in e[i].as_slice().chunks_exact(k).zip(e[j].as_slice().chunks_exact(k)) {
                    w.push(ei.iter().zip(ej).zip(h.as_slice()).fold(0.0, |acc, ((x, y), hc)| {
                        let prod = x * y;
                        acc + if prod == 0.0 { 0.0 } else { prod * hc }
                    }));
                }
            }
        }
        // `w_ij · D_ij`, or `D_ij` times an exact `1.0` without a weight.
        let term = |p: usize, r: usize| w.get(p * rows + r).unwrap_or(&1.0) * d[p * rows + r];
        let value =
            Matrix::from_fn(rows, 1, |r, _| (1..pairs.len()).fold(term(0, r), |acc, p| acc + term(p, r)));
        (Self { inputs, fields, distance, d, w }, value)
    }

    /// The adjoints of the inputs, in [`PairSum::inputs`]' order, for the
    /// node adjoint `g`.
    pub(crate) fn backward(&self, values: &[&Matrix], g: &Matrix) -> Vec<Matrix> {
        let m = self.fields;
        let (t, e, h) = (&values[..m], &values[m..], values.get(2 * m).map(|h| h.as_slice()));
        let ((rows, k), pairs) = (t[0].shape(), pairs(m));
        let mut adj: Vec<Matrix> = (0..values.len() / m * m).map(|_| Matrix::zeros(rows, k)).collect();
        let (dt, de) = adj.split_at_mut(m);
        let mut dh = vec![0.0; pairs.len() * k];
        let mut gd = vec![0.0; rows];
        for (p, &(i, j)) in pairs.iter().enumerate().rev() {
            // A field's first contribution comes from its last pair, `(f, m - 1)`
            // or, for `m - 1` itself, `(m - 2, m - 1)`.
            let first = [j == m - 1, i == m - 2];
            gd.copy_from_slice(g.as_slice());
            if let Some(h) = h {
                // `mul(w_ij, D)`, `matmul(e_i ⊙ e_j, h)` and `mul(e_i, e_j)`.
                let (de_i, de_j) = two_mut(de, i, j);
                let (h, dh) = (&h[..k], &mut dh[p * k..(p + 1) * k]);
                for (r, gd) in gd.iter_mut().enumerate() {
                    let gw = *gd * self.d[p * rows + r];
                    *gd *= self.w[p * rows + r];
                    let (ei, ej) = (&e[i].row(r)[..k], &e[j].row(r)[..k]);
                    let (dei, dej) = (&mut de_i.row_mut(r)[..k], &mut de_j.row_mut(r)[..k]);
                    for c in 0..k {
                        let dprod = 0.0 + gw * h[c];
                        store_or_add(&mut dei[c], dprod * ej[c], first[0]);
                        store_or_add(&mut dej[c], dprod * ei[c], first[1]);
                        let prod = ei[c] * ej[c];
                        dh[c] = if prod == 0.0 { dh[c] } else { dh[c] + prod * gw };
                    }
                }
            }
            let (dt_i, dt_j) = two_mut(dt, i, j);
            let (ti, tj) = (t[i].as_slice(), t[j].as_slice());
            self.distance
                .backward(ti, tj, &gd, dt_i.as_mut_slice(), dt_j.as_mut_slice(), first);
        }
        if h.is_some() {
            // The last pair's vector, plus each earlier one (`a + b == b + a`).
            for p in (0..pairs.len() * k - k).rev() {
                dh[p] += dh[p + k];
            }
            adj.push(Matrix::from_vec(k, 1, dh[..k].to_vec()));
        }
        adj
    }
}

/// Mutable borrows of entries `i < j`.
fn two_mut(v: &mut [Matrix], i: usize, j: usize) -> (&mut Matrix, &mut Matrix) {
    let (lo, hi) = v.split_at_mut(j);
    (&mut lo[i], &mut hi[0])
}
