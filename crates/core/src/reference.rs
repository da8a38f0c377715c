//! The one slow evaluator of the model's score, written from the paper's
//! definitions with serial loops and nothing staged: Eq. 3's
//! `w₀ + Σ_f w_f + Σ_{p<q} pair(p, q)` with FM's inner product ([`fm`],
//! Eq. 1), GML-FM's weighted distance ([`gml`]) or TransFM's translated
//! distance ([`trans`]) as the pair term. Every slow evaluation in the
//! workspace calls it, and every fast path is tested against it.
//!
//! [`pair_sum`] adds the pair terms from zero in position order and
//! [`score`] adds that sum to the linear part, so below the serving
//! kernels' lane width a served score has this module's bits.

use crate::distance::Distance;

/// Eq. 3 over one feature set: `w₀ + Σ_f w[f]` in position order, plus
/// [`pair_sum`] of `pair` over the positions of `feats`.
pub fn score(w0: f64, w: &[f64], feats: &[u32], pair: impl FnMut(usize, usize) -> f64) -> f64 {
    feats.iter().fold(w0, |s, &f| s + w[f as usize]) + pair_sum(feats.len(), pair)
}

/// `Σ_{p<q} pair(p, q)` over positions `0..m`, added from zero in
/// position order.
pub fn pair_sum(m: usize, mut pair: impl FnMut(usize, usize) -> f64) -> f64 {
    let mut out = 0.0;
    for p in 0..m {
        for q in p + 1..m {
            out += pair(p, q);
        }
    }
    out
}

/// FM's pair term (Eq. 1): `⟨v_a, v_b⟩`.
pub fn fm(va: &[f64], vb: &[f64]) -> f64 {
    va.iter().zip(vb).fold(0.0, |s, (a, b)| s + a * b)
}

/// GML-FM's pair term: `w_ab·D(v̂_a, v̂_b)` with the transformation weight
/// `w_ab = hᵀ(v_a⊙v_b)` (Eq. 2), or `D` alone without `h`.
pub fn gml(va: &[f64], vb: &[f64], h: Option<&[f64]>, dist: Distance, va_hat: &[f64], vb_hat: &[f64]) -> f64 {
    let d = dist.eval(va_hat, vb_hat);
    h.map_or(d, |h| va.iter().zip(vb).zip(h).fold(0.0, |s, ((a, b), h)| s + a * b * h) * d)
}

/// TransFM's pair term `‖v_a + t_a − v_b‖²`, oriented from the earlier
/// position `a` to the later `b`.
pub fn trans(va: &[f64], ta: &[f64], vb: &[f64]) -> f64 {
    va.iter()
        .zip(ta)
        .zip(vb)
        .fold(0.0, |s, ((a, t), b)| s + (a + t - b) * (a + t - b))
}
