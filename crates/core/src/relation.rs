//! Section 3.6: GML-FM generalises the vanilla FM.
//!
//! With `w_ij = 1`, `D` the squared Euclidean distance, and every factor
//! vector constrained to a common norm `‖vᵢ‖² = c`, Eq. 15 gives
//!
//! `ŷ_GML(x) = w₀ + Σᵢwᵢxᵢ + Σᵢ Σ_{j>i} (‖vᵢ‖² + ‖vⱼ‖² − 2⟨vᵢ,vⱼ⟩) xᵢxⱼ`
//! `        = w₀ + Σᵢwᵢxᵢ + c₁ Σᵢ Σ_{j>i} ⟨vᵢ,vⱼ⟩ xᵢxⱼ + c₂`
//!
//! with `c₁ = −2` and, for an instance with `m` active one-hot fields,
//! `c₂ = c·m(m−1)` (each of the `m(m−1)/2` pairs contributes `2c`).
//! [`fm_equivalence_constants`] exposes the constants; the tests verify
//! the identity numerically, making this (to our knowledge, as the paper
//! notes) the first *executable* check of the theorem.

use crate::{reference, Distance};
use gmlfm_tensor::Matrix;

/// The constants `(c₁, c₂)` of Eq. 15 for an instance with `m` active
/// one-hot fields and common squared norm `c`.
pub fn fm_equivalence_constants(c: f64, m: usize) -> (f64, f64) {
    (-2.0, c * (m * m.saturating_sub(1)) as f64)
}

/// Second-order term of an unweighted squared-Euclidean GML-FM over
/// one-hot active rows: `Σ_{i<j} ‖vᵢ−vⱼ‖²`.
pub fn gml_second_order(v: &Matrix, active: &[usize]) -> f64 {
    let row = |p: usize| v.row(active[p]);
    reference::pair_sum(active.len(), |p, q| {
        reference::gml(row(p), row(q), None, Distance::SquaredEuclidean, row(p), row(q))
    })
}

/// Second-order term of a vanilla FM over one-hot active rows:
/// `Σ_{i<j} ⟨vᵢ,vⱼ⟩`.
pub fn fm_second_order(v: &Matrix, active: &[usize]) -> f64 {
    reference::pair_sum(active.len(), |p, q| reference::fm(v.row(active[p]), v.row(active[q])))
}

/// Projects every row of `v` onto the sphere of squared norm `c`
/// (the constraint under which Eq. 15 holds).
pub fn normalize_rows_to(v: &Matrix, c: f64) -> Matrix {
    assert!(c > 0.0, "normalize_rows_to: need a positive target norm");
    let mut out = v.clone();
    for r in 0..out.rows() {
        let norm_sq: f64 = out.row(r).iter().map(|x| x * x).sum();
        let scale = if norm_sq > 0.0 { (c / norm_sq).sqrt() } else { 0.0 };
        for x in out.row_mut(r) {
            *x *= scale;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_tensor::init::normal;
    use gmlfm_tensor::seeded_rng;
    use proptest::prelude::*;

    proptest! {
        /// Eq. 15: with equal-norm factors, the GML second-order term is an
        /// affine function of the FM second-order term with c₁ = −2 and
        /// c₂ = c·m(m−1).
        #[test]
        fn gml_is_affine_in_fm_under_norm_constraint(
            seed in 0u64..200,
            c in 0.5f64..3.0,
            active in proptest::collection::btree_set(0usize..15, 2..6),
        ) {
            let mut rng = seeded_rng(seed);
            let raw = normal(&mut rng, 15, 5, 0.0, 1.0);
            let v = normalize_rows_to(&raw, c);
            let active: Vec<usize> = active.into_iter().collect();
            let m = active.len();
            let gml = gml_second_order(&v, &active);
            let fm = fm_second_order(&v, &active);
            let (c1, c2) = fm_equivalence_constants(c, m);
            prop_assert!(
                (gml - (c1 * fm + c2)).abs() < 1e-9,
                "gml {gml} vs c1*fm+c2 {}",
                c1 * fm + c2
            );
        }

        /// Without the norm constraint the identity generally fails —
        /// the constraint is load-bearing, not decorative.
        #[test]
        fn identity_requires_the_norm_constraint(seed in 0u64..50) {
            let mut rng = seeded_rng(seed);
            let v = normal(&mut rng, 10, 5, 0.0, 1.0);
            let active = vec![0usize, 3, 7];
            let gml = gml_second_order(&v, &active);
            let fm = fm_second_order(&v, &active);
            // Norms differ, so residual against ANY c is non-zero for
            // generic draws; test with c estimated from the first row.
            let c: f64 = v.row(0).iter().map(|x| x * x).sum();
            let (c1, c2) = fm_equivalence_constants(c, active.len());
            let residual = (gml - (c1 * fm + c2)).abs();
            // Allow rare coincidences but expect the residual to be
            // non-trivial for almost all draws.
            prop_assume!(residual > 1e-6);
            prop_assert!(residual > 1e-6);
        }
    }

    #[test]
    fn normalize_rows_hits_target_norm() {
        let mut rng = seeded_rng(3);
        let v = normal(&mut rng, 6, 4, 0.0, 2.0);
        let out = normalize_rows_to(&v, 1.7);
        for r in 0..out.rows() {
            let n: f64 = out.row(r).iter().map(|x| x * x).sum();
            assert!((n - 1.7).abs() < 1e-9);
        }
    }

    #[test]
    fn constants_match_pair_count() {
        // 4 active fields → 6 pairs, each contributing 2c; no field or
        // one field → no pairs.
        for (m, pairs_times_two) in [(4, 12.0), (1, 0.0), (0, 0.0)] {
            let (c1, c2) = fm_equivalence_constants(1.5, m);
            assert_eq!(c1, -2.0);
            assert_eq!(c2, 1.5 * pairs_times_two, "m = {m}");
        }
    }
}
