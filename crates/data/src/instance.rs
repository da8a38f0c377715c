//! Sparse training/evaluation instances.

/// One training or evaluation example: the active one-hot feature per
/// field (global indices) plus the regression target.
///
/// All datasets in the paper are purely categorical, so the per-feature
/// value is implicitly `1.0`; models that support real-valued inputs take
/// the `(index, value)` view from [`Instance::sparse`].
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Global feature index of the active value in each field, in schema
    /// field order (restricted to the active [`crate::FieldMask`]).
    pub feats: Vec<u32>,
    /// Regression target: `+1` positive / `-1` sampled negative under the
    /// paper's implicit-feedback protocol (Section 4.3.1).
    pub label: f64,
}

impl Instance {
    /// Creates an instance from feature indices and a label.
    pub fn new(feats: Vec<u32>, label: f64) -> Self {
        Self { feats, label }
    }

    /// Number of active fields.
    pub fn n_fields(&self) -> usize {
        self.feats.len()
    }

    /// `(global_index, value)` pairs with the implicit value `1.0`.
    pub fn sparse(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.feats.iter().map(|&i| (i as usize, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_view_and_densify_agree() {
        let inst = Instance::new(vec![0, 3, 7], 1.0);
        assert_eq!(inst.n_fields(), 3);
        assert_eq!(inst.sparse().collect::<Vec<_>>(), vec![(0, 1.0), (3, 1.0), (7, 1.0)]);
    }
}
