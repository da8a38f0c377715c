//! Low-precision candidate tables: the opt-in `f32` and `i8` copies of
//! the packed [`HatQ`] scoring state.
//!
//! The serving hot loop is memory-bound: at 1M items and `k = 8` the
//! f64 `[v̂ᵢ | qᵢ]` table alone is 72 MB, and every top-N request
//! streams all of it. Narrower tables trade per-candidate precision for
//! bandwidth:
//!
//! * [`HatQ32`] — an f32 copy of the packed table (plus an f32 copy of
//!   `V` for the weighted pair-weight dot), halving bytes scanned.
//!   Scores computed from it carry ~1e-6 relative error, enough to
//!   reorder near-ties; see the README "Vectorized kernels & scan
//!   precision" section for the tie-order caveat.
//! * [`QuantHatQ`] — an i8 affine quantization of `v̂` (and `V`) with
//!   per-row scale and zero point: `real ≈ lo + scale·(code + 128)`,
//!   `scale = (hi − lo)/255`, so reconstruction error is at most
//!   `scale/2` per coordinate. At `k = 8` this is ~7x smaller than the
//!   f64 table. i8 scans are used as a *probe* pass only — survivors
//!   are re-scored by the exact f64 ranker, so returned scores stay
//!   bitwise the model's (the same contract the IVF index keeps).
//!
//! Which table a request uses is the [`Precision`] knob, settable at
//! freeze time (`Engine::builder().precision(..)`) and per request
//! (`TopNRequest`). Tables are built once by
//! [`FrozenModel::with_precision`](crate::FrozenModel::with_precision)
//! and shared behind an `Arc`, so cloning a model (snapshot hot-swap,
//! per-shard workers) never copies them.

use std::sync::Arc;

use gmlfm_core::Distance;

use crate::frozen::{HatQ, SecondOrder};
use crate::kernel;

/// Numeric width of the candidate-scan tables used by top-N retrieval.
///
/// This is a *scan* precision, not a model precision: first-order
/// weights, context partials, and every non-top-N scoring path stay
/// f64. See the variants for the exactness contract of each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Exact f64 scan (the default). Returned scores are bitwise the
    /// model's.
    #[default]
    F64,
    /// f32 candidate tables. Returned scores carry ~1e-6 relative
    /// error and near-ties may reorder; no re-rank.
    F32,
    /// i8-quantized probe scan with exact f64 re-rank of the
    /// survivors. Returned scores are bitwise the model's; items whose
    /// quantized score falls outside the re-rank pool may be missed
    /// (measured as `bench_e2e`'s `serve.lowp.i8_recall_at_10`).
    I8,
}

impl Precision {
    /// Stable wire/artifact name.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::I8 => "i8",
        }
    }

    /// Inverse of [`Precision::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "f64" => Some(Precision::F64),
            "f32" => Some(Precision::F32),
            "i8" => Some(Precision::I8),
            _ => None,
        }
    }
}

/// f32 copy of the packed `[v̂ᵢ | qᵢ]` table, same row layout as
/// [`HatQ`].
#[derive(Debug, Clone)]
pub struct HatQ32 {
    data: Vec<f32>,
    n: usize,
    k: usize,
}

impl HatQ32 {
    /// Narrows a packed f64 table to f32.
    pub fn from_hat(hat: &HatQ) -> Self {
        let (n, k) = (hat.n(), hat.k());
        let mut data = Vec::with_capacity(n * (k + 1));
        for i in 0..n {
            let (vh, q) = hat.row(i);
            data.extend(vh.iter().map(|&x| x as f32));
            data.push(q as f32);
        }
        Self { data, n, k }
    }

    /// Number of rows `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Embedding size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row `i` as `(v̂ᵢ, qᵢ)`, one contiguous read.
    #[inline]
    pub fn row(&self, i: usize) -> (&[f32], f32) {
        let w = self.k + 1;
        let row = &self.data[i * w..(i + 1) * w];
        (&row[..self.k], row[self.k])
    }
}

/// i8 affine quantization of an `n × w` row-major table with per-row
/// scale and zero point.
///
/// Row `i` reconstructs as `lo[i] + scale[i]·(code + 128)` with codes
/// in `[-128, 127]`, so each coordinate is off by at most `scale[i]/2`
/// (`scale = (rowmax − rowmin)/255`). Constant rows get `scale = 0`
/// and reconstruct exactly.
#[derive(Debug, Clone)]
pub struct QuantRows {
    codes: Vec<i8>,
    lo: Vec<f32>,
    scale: Vec<f32>,
    n: usize,
    w: usize,
}

impl QuantRows {
    /// Quantizes `n` rows of width `w`; `fill(i, row)` writes row `i`
    /// into the provided `w`-length scratch.
    pub(crate) fn from_rows(n: usize, w: usize, mut fill: impl FnMut(usize, &mut [f64])) -> Self {
        let mut codes = Vec::with_capacity(n * w);
        let mut lo = Vec::with_capacity(n);
        let mut scale = Vec::with_capacity(n);
        let mut row = vec![0.0f64; w];
        for i in 0..n {
            fill(i, &mut row);
            let (mut rlo, mut rhi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &x in &row {
                rlo = rlo.min(x);
                rhi = rhi.max(x);
            }
            if !rlo.is_finite() {
                (rlo, rhi) = (0.0, 0.0);
            }
            let s = (rhi - rlo) / 255.0;
            lo.push(rlo as f32);
            scale.push(s as f32);
            if s == 0.0 {
                codes.extend(std::iter::repeat_n(-128i8, row.len()));
            } else {
                codes.extend(
                    row.iter()
                        .map(|&x| ((((x - rlo) / s).round() as i32) - 128).clamp(-128, 127) as i8),
                );
            }
        }
        Self { codes, lo, scale, n, w }
    }

    /// Number of rows `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row width `w`.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Reconstructs row `i` into `out[..w]`.
    #[inline]
    pub fn dequant_into(&self, i: usize, out: &mut [f32]) {
        kernel::dequant_into(&self.codes[i * self.w..(i + 1) * self.w], self.lo[i], self.scale[i], out);
    }

    /// The largest per-row quantization step (bound on coordinate
    /// error: `max_step()/2`).
    pub fn max_step(&self) -> f32 {
        self.scale.iter().fold(0.0f32, |m, &s| m.max(s))
    }

    /// Table footprint in bytes (codes + per-row parameters).
    pub fn bytes(&self) -> usize {
        self.codes.len() + (self.lo.len() + self.scale.len()) * std::mem::size_of::<f32>()
    }
}

/// i8 quantization of the candidate scoring state: one quantized row
/// per feature holding `v̂ᵢ` — and, for weighted models, `vᵢ` packed
/// into the *same* row sharing one scale/zero pair (halving the
/// per-row parameter overhead; that shared pair is what keeps the k=8
/// weighted table 4x+ under the f64 tables it replaces) — plus per-row
/// f32 norms `qᵢ` (4 bytes/row, not worth quantizing).
#[derive(Debug, Clone)]
pub struct QuantHatQ {
    rows: QuantRows,
    q: Vec<f32>,
    k: usize,
    /// Whether each row is `[v̂ᵢ | vᵢ]` (width `2k`) or just `v̂ᵢ`.
    paired: bool,
}

impl QuantHatQ {
    /// Quantizes a packed f64 table, packing `v` rows alongside when
    /// given (weighted models need them for the pair-weight dot).
    pub fn from_tables(hat: &HatQ, v: Option<&gmlfm_tensor::Matrix>) -> Self {
        let (n, k) = (hat.n(), hat.k());
        let paired = v.is_some();
        let w = if paired { 2 * k } else { k };
        let rows = QuantRows::from_rows(n, w, |i, row| {
            row[..k].copy_from_slice(hat.v_hat(i));
            if let Some(v) = v {
                row[k..].copy_from_slice(v.row(i));
            }
        });
        let q = (0..n).map(|i| hat.q(i) as f32).collect();
        Self { rows, q, k, paired }
    }

    /// Number of rows `n`.
    pub fn n(&self) -> usize {
        self.rows.n()
    }

    /// Embedding size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether rows also carry the quantized `vᵢ` half.
    pub fn paired(&self) -> bool {
        self.paired
    }

    /// Width of the scratch row [`QuantHatQ::dequant_into`] fills
    /// (`k`, or `2k` when [`QuantHatQ::paired`]).
    pub fn row_width(&self) -> usize {
        self.rows.w()
    }

    /// Reconstructs row `i` into `out[..row_width()]`: `v̂ᵢ` in
    /// `out[..k]`, then `vᵢ` in `out[k..]` when paired.
    #[inline]
    pub fn dequant_into(&self, i: usize, out: &mut [f32]) {
        self.rows.dequant_into(i, out);
    }

    /// The f32 norm `qᵢ`.
    #[inline]
    pub fn q(&self, i: usize) -> f32 {
        self.q[i]
    }

    /// Largest per-row quantization step.
    pub fn max_step(&self) -> f32 {
        self.rows.max_step()
    }

    /// Table footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.rows.bytes() + self.q.len() * std::mem::size_of::<f32>()
    }
}

/// Every low-precision table a frozen model carries, built once by
/// [`FrozenModel::with_precision`](crate::FrozenModel::with_precision)
/// and shared behind an [`Arc`].
///
/// `v32` (the narrowed `V` used by the weighted pair-weight dot) is only
/// built for weighted models.
#[derive(Debug, Clone)]
pub struct LowPrec {
    pub(crate) hat32: HatQ32,
    pub(crate) qhat: QuantHatQ,
    pub(crate) v32: Option<Vec<f32>>,
}

impl LowPrec {
    /// Builds the full table set for a metric model. Returns `None`
    /// when the model has no decoupled squared-Euclidean form (plain
    /// dot-product FMs, pairwise-only distances, TransFM) — those paths
    /// always scan in f64.
    pub(crate) fn build(v: &gmlfm_tensor::Matrix, second: &SecondOrder) -> Option<Arc<Self>> {
        let SecondOrder::Metric { hat, h, distance } = second else { return None };
        if *distance != Distance::SquaredEuclidean {
            return None;
        }
        let weighted = h.is_some();
        Some(Arc::new(Self {
            hat32: HatQ32::from_hat(hat),
            qhat: QuantHatQ::from_tables(hat, weighted.then_some(v)),
            v32: weighted.then(|| v.as_slice().iter().map(|&x| x as f32).collect()),
        }))
    }

    /// Row `j` of the narrowed `V` table (weighted models only).
    #[inline]
    pub(crate) fn v32_row(&self, j: usize) -> Option<&[f32]> {
        let k = self.hat32.k();
        self.v32.as_ref().map(|v| &v[j * k..(j + 1) * k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::random_metric_model;

    #[test]
    fn precision_names_round_trip() {
        for p in [Precision::F64, Precision::F32, Precision::I8] {
            assert_eq!(Precision::from_name(p.name()), Some(p));
        }
        assert_eq!(Precision::from_name("f16"), None);
        assert_eq!(Precision::default(), Precision::F64);
    }

    #[test]
    fn hatq32_narrows_rows_exactly() {
        let model = random_metric_model(12, 5, true, Distance::SquaredEuclidean, 9);
        let SecondOrder::Metric { hat, .. } = model.second_order_kind() else { panic!("not a metric model") };
        let t32 = HatQ32::from_hat(hat);
        assert_eq!((t32.n(), t32.k()), (hat.n(), hat.k()));
        for i in 0..hat.n() {
            let (vh, q) = hat.row(i);
            let (vh32, q32) = t32.row(i);
            assert_eq!(q32, q as f32);
            for (a, b) in vh.iter().zip(vh32) {
                assert_eq!(*b, *a as f32);
            }
        }
    }

    #[test]
    fn quantized_rows_reconstruct_within_half_a_step() {
        // Weighted: rows pack [v̂ | v] under one shared scale.
        let model = random_metric_model(20, 7, true, Distance::SquaredEuclidean, 11);
        let SecondOrder::Metric { hat, .. } = model.second_order_kind() else { panic!("not a metric model") };
        let qt = QuantHatQ::from_tables(hat, Some(model.factors()));
        assert!(qt.paired());
        assert_eq!(qt.row_width(), 14);
        let mut out = vec![0.0f32; qt.row_width()];
        for i in 0..qt.n() {
            qt.dequant_into(i, &mut out);
            let originals = hat.v_hat(i).iter().chain(model.factors().row(i));
            for (orig, deq) in originals.zip(&out) {
                assert!(
                    (orig - *deq as f64).abs() <= 0.5 * qt.max_step() as f64 + 1e-6,
                    "row {i}: {orig} vs {deq}"
                );
            }
        }
    }

    #[test]
    fn constant_rows_quantize_exactly() {
        let rows = QuantRows::from_rows(3, 4, |i, row| {
            row.fill(match i {
                0 => 0.25,
                1 => -1.5,
                _ => 0.0,
            })
        });
        let mut out = vec![0.0f32; 4];
        for (i, want) in [(0usize, 0.25f32), (1, -1.5), (2, 0.0)] {
            rows.dequant_into(i, &mut out);
            assert!(out.iter().all(|&x| x == want), "row {i}: {out:?}");
        }
        assert_eq!(rows.max_step(), 0.0);
    }

    #[test]
    fn build_gates_on_decoupled_metric_form() {
        let se = random_metric_model(8, 3, true, Distance::SquaredEuclidean, 1);
        assert!(LowPrec::build(se.factors(), se.second_order_kind()).is_some());
        let man = random_metric_model(8, 3, true, Distance::Manhattan, 1);
        assert!(LowPrec::build(man.factors(), man.second_order_kind()).is_none());
        let unweighted = random_metric_model(8, 3, false, Distance::SquaredEuclidean, 1);
        let lp = LowPrec::build(unweighted.factors(), unweighted.second_order_kind()).unwrap();
        assert!(lp.v32.is_none() && !lp.qhat.paired());
    }

    #[test]
    fn i8_tables_are_at_least_4x_smaller_than_f64() {
        let model = random_metric_model(512, 8, true, Distance::SquaredEuclidean, 3);
        let lp = LowPrec::build(model.factors(), model.second_order_kind()).unwrap();
        // The f64 state the i8 probe replaces: the packed n×(k+1) HatQ
        // table plus the n×k V table the weighted delta reads.
        let f64_bytes = (512 * 9 + 512 * 8) * std::mem::size_of::<f64>();
        let i8_bytes = lp.qhat.bytes();
        assert!(i8_bytes * 4 <= f64_bytes, "i8 {i8_bytes} vs f64 {f64_bytes}");
    }
}
