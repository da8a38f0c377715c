//! Freezing trained models into [`FrozenModel`]s.

use crate::frozen::{dot, FrozenModel, SecondOrder};
use gmlfm_core::GmlFm;
use gmlfm_models::{FactorizationMachine, TransFm};
use gmlfm_tensor::Matrix;
use gmlfm_train::GraphModel;

/// Extraction of a serving-ready [`FrozenModel`] from a trained model.
///
/// Freezing copies the current parameter values (training afterwards does
/// not affect the frozen copy) and precomputes the transformed embedding
/// table and per-feature norms, so all serving-time evaluation is
/// tape-free.
pub trait Freeze {
    /// Copies the trained parameters into a frozen serving model.
    fn freeze(&self) -> FrozenModel;
}

impl Freeze for GmlFm {
    fn freeze(&self) -> FrozenModel {
        let params = self.params();
        let v = self.factors().clone();
        let (n, k) = v.shape();
        // ψ applied row-by-row with the exact evaluation-mode semantics of
        // the graph forward (no dropout).
        let mut v_hat = Matrix::zeros(n, k);
        for r in 0..n {
            let row = self.transform().eval(params, v.row(r));
            v_hat.row_mut(r).copy_from_slice(&row);
        }
        let q: Vec<f64> = (0..n).map(|r| dot(v_hat.row(r), v_hat.row(r))).collect();
        let h = self.transform_weight().map(|m| m.col(0));
        FrozenModel::from_parts(
            self.bias(),
            self.linear_weights().col(0),
            v,
            SecondOrder::metric(v_hat, q, h, self.distance()),
        )
    }
}

impl Freeze for FactorizationMachine {
    fn freeze(&self) -> FrozenModel {
        FrozenModel::from_parts(
            self.bias(),
            self.linear_weights().to_vec(),
            self.factors().clone(),
            SecondOrder::Dot,
        )
    }
}

impl Freeze for TransFm {
    fn freeze(&self) -> FrozenModel {
        FrozenModel::from_parts(
            self.bias(),
            self.linear_weights().col(0),
            self.factors().clone(),
            SecondOrder::Translated { v_trans: self.translations().clone() },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_core::GmlFmConfig;
    use gmlfm_data::Instance;
    use gmlfm_models::fm::FmConfig;
    use gmlfm_models::transfm::TransFmConfig;
    use gmlfm_train::Scorer;

    #[test]
    fn frozen_gmlfm_matches_graph_predictions_at_init() {
        for cfg in [
            GmlFmConfig::mahalanobis(6),
            GmlFmConfig::dnn(6, 2),
            GmlFmConfig::euclidean_plain(6),
            GmlFmConfig::mahalanobis(6).without_weight(),
        ] {
            let model = GmlFm::new(30, &cfg.with_seed(13));
            let frozen = model.freeze();
            let inst = Instance::new(vec![2, 11, 27], 1.0);
            let graph = model.score_one(&inst);
            let served = frozen.predict(&inst);
            assert!(
                (graph - served).abs() <= 1e-9 * graph.abs().max(1.0),
                "{:?}: graph {graph} vs frozen {served}",
                model.config().transform
            );
        }
    }

    /// Freezing applies `ψ` with the reference's own `Transform::eval`, and
    /// both slow evaluations go through `gmlfm_core::reference`, so a
    /// frozen model keeps its source model's reference score bit for bit.
    #[test]
    fn freezing_preserves_the_reference_score_bitwise() {
        for cfg in [
            GmlFmConfig::mahalanobis(6),
            GmlFmConfig::dnn(6, 2),
            GmlFmConfig::euclidean_plain(6),
            GmlFmConfig::mahalanobis(6).without_weight(),
        ] {
            for seed in 0..5 {
                let mut model = GmlFm::new(30, &cfg.clone().with_seed(seed));
                let ids: Vec<_> = model.params().iter().map(|(id, _)| id).collect();
                for id in ids {
                    model.params_mut().get_mut(id).map_inplace(|x| x + 0.1);
                }
                let frozen = model.freeze();
                for feats in [vec![2, 11, 27], vec![0, 4, 7, 12, 16, 21, 25, 29]] {
                    let inst = Instance::new(feats, 1.0);
                    let (got, want) = (frozen.predict_pairwise(&inst), model.predict_reference(&inst));
                    assert_eq!(got.to_bits(), want.to_bits(), "{cfg:?} seed {seed}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn frozen_fm_matches_predict_one() {
        let fm = FactorizationMachine::new(25, FmConfig { k: 5, ..FmConfig::default() });
        let frozen = fm.freeze();
        let inst = Instance::new(vec![1, 9, 20], 1.0);
        assert!((frozen.predict(&inst) - fm.predict_one(&inst)).abs() < 1e-12);
    }

    #[test]
    fn frozen_transfm_matches_graph_predictions() {
        let model = TransFm::new(24, &TransFmConfig { k: 5, seed: 21 });
        let frozen = model.freeze();
        let inst = Instance::new(vec![0, 9, 19], 1.0);
        let graph = model.score_one(&inst);
        let served = frozen.predict(&inst);
        assert!((graph - served).abs() <= 1e-9 * graph.abs().max(1.0), "{graph} vs {served}");
    }

    #[test]
    fn freezing_is_a_snapshot_not_a_view() {
        let mut model = GmlFm::new(20, &GmlFmConfig::mahalanobis(4).with_seed(2));
        let frozen = model.freeze();
        let inst = Instance::new(vec![1, 8, 15], 1.0);
        let before = frozen.predict(&inst);
        // Perturb the live model; the frozen copy must not move.
        let ids: Vec<_> = model.params().iter().map(|(id, _)| id).collect();
        for id in ids {
            model.params_mut().get_mut(id).map_inplace(|x| x + 1.0);
        }
        assert_eq!(frozen.predict(&inst), before);
        assert!((model.score_one(&inst) - before).abs() > 1e-6);
    }
}
