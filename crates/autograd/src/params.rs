//! Registry of trainable parameters and the gradients produced for them.

use gmlfm_tensor::Matrix;

/// Opaque handle into a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Positional index of the parameter inside its [`ParamSet`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Named collection of trainable matrices.
///
/// Models register their parameters once at construction time; the
/// optimizer in `gmlfm-train` keeps per-parameter state (Adam moments)
/// aligned by [`ParamId::index`].
#[derive(Debug, Clone, Default)]
pub struct ParamSet {
    mats: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.mats.push(value);
        self.names.push(name.into());
        ParamId(self.mats.len() - 1)
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.mats[id.0]
    }

    /// Mutable value of a parameter (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.mats[id.0]
    }

    /// The name a parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// Iterates over `(id, matrix)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.mats.iter().enumerate().map(|(i, m)| (ParamId(i), m))
    }

    /// Sum of squared entries over all parameters (for L2 reporting).
    pub fn norm_sq(&self) -> f64 {
        self.mats.iter().map(Matrix::norm_sq).sum()
    }
}

/// Gradients for a [`ParamSet`], indexed by [`ParamId`].
///
/// Parameters that did not participate in the graph have no entry; the
/// optimizer treats a missing entry as a zero gradient.
#[derive(Debug, Clone)]
pub struct Gradients {
    by_param: Vec<Option<Matrix>>,
}

impl Gradients {
    pub(crate) fn new(n_params: usize) -> Self {
        Self { by_param: vec![None; n_params] }
    }

    pub(crate) fn accumulate(&mut self, id: ParamId, grad: &Matrix) {
        if id.0 >= self.by_param.len() {
            self.by_param.resize(id.0 + 1, None);
        }
        match &mut self.by_param[id.0] {
            Some(existing) => existing.axpy(1.0, grad),
            slot @ None => *slot = Some(grad.clone()),
        }
    }

    /// Scatter-adds the `B` rows of `rows` into rows `indices` of the
    /// parameter's gradient, which is zero-filled at `shape` on first
    /// touch: the backward rule of an in-place table gather
    /// (`Graph::gather_param`).
    pub(crate) fn scatter_add_rows(
        &mut self,
        id: ParamId,
        shape: (usize, usize),
        indices: &[usize],
        rows: &Matrix,
    ) {
        let grad = self.by_param[id.0].get_or_insert_with(|| Matrix::zeros(shape.0, shape.1));
        scatter_add_rows(grad, indices, rows);
    }

    /// Gradient of a parameter, when it participated in the graph.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.by_param.get(id.0).and_then(Option::as_ref)
    }

    /// Iterates over the parameters that received gradients.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.by_param
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|m| (ParamId(i), m)))
    }

    /// Largest absolute gradient entry across all parameters.
    pub fn max_abs(&self) -> f64 {
        self.iter().map(|(_, g)| g.max_abs()).fold(0.0, f64::max)
    }

    /// Scales every gradient in place (used for gradient clipping).
    pub fn scale(&mut self, alpha: f64) {
        for g in self.by_param.iter_mut().flatten() {
            g.scale_inplace(alpha);
        }
    }
}

/// `dst[indices[r]] += rows[r]` for every `r`, in ascending `r`.
pub(crate) fn scatter_add_rows(dst: &mut Matrix, indices: &[usize], rows: &Matrix) {
    for (r, &idx) in indices.iter().enumerate() {
        for (o, &g) in dst.row_mut(idx).iter_mut().zip(rows.row(r)) {
            *o += g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut ps = ParamSet::new();
        let a = ps.add("a", Matrix::zeros(2, 3));
        let b = ps.add("b", Matrix::eye(2));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.name(a), "a");
        assert_eq!(ps.name(b), "b");
        assert_eq!(ps.get(a).shape(), (2, 3));
        ps.get_mut(a).as_mut_slice()[0] = 5.0;
        assert_eq!(ps.get(a).as_slice()[0], 5.0);
    }

    #[test]
    fn gradients_accumulate() {
        let mut g = Gradients::new(2);
        let id = ParamId(1);
        g.accumulate(id, &Matrix::filled(1, 2, 1.5));
        g.accumulate(id, &Matrix::filled(1, 2, 0.5));
        assert_eq!(g.get(id).unwrap().as_slice(), &[2.0, 2.0]);
        assert!(g.get(ParamId(0)).is_none());
        assert_eq!(g.max_abs(), 2.0);
        g.scale(0.5);
        assert_eq!(g.get(id).unwrap().as_slice(), &[1.0, 1.0]);
    }
}
