//! Gradient-descent optimizers over a [`ParamSet`].

use gmlfm_autograd::{Gradients, ParamSet};
use gmlfm_tensor::Matrix;

/// A first-order optimizer: applies one update from accumulated gradients.
pub trait Optimizer {
    /// Applies one step. Parameters without a gradient entry are left
    /// untouched.
    fn step(&mut self, params: &mut ParamSet, grads: &Gradients);

    /// The current learning rate.
    fn learning_rate(&self) -> f64;

    /// Replaces the learning rate (for schedules and sweeps).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Plain stochastic gradient descent (paper Eq. 14) with optional L2
/// weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    /// Decoupled L2 penalty coefficient applied as `p -= lr * wd * p`.
    pub weight_decay: f64,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Self { lr, weight_decay: 0.0 }
    }

    /// Adds decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f64) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamSet, grads: &Gradients) {
        for (id, g) in grads.iter() {
            if self.weight_decay > 0.0 {
                let decay = 1.0 - self.lr * self.weight_decay;
                params.get_mut(id).scale_inplace(decay);
            }
            params.get_mut(id).axpy(-self.lr, g);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, ICLR'15), the optimizer the paper uses for all
/// experiments. Moment buffers are allocated lazily per parameter on the
/// first step that touches it.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical floor inside the square root.
    pub eps: f64,
    /// Decoupled weight decay (AdamW-style).
    pub weight_decay: f64,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and the
    /// standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adds decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f64) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    fn slot(buf: &mut Vec<Option<Matrix>>, idx: usize, shape: (usize, usize)) -> &mut Matrix {
        if buf.len() <= idx {
            buf.resize(idx + 1, None);
        }
        buf[idx].get_or_insert_with(|| Matrix::zeros(shape.0, shape.1))
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet, grads: &Gradients) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        // `x * 1.0` is exact, so "no decay" needs no second loop body.
        let decay = if self.weight_decay > 0.0 { 1.0 - lr * self.weight_decay } else { 1.0 };
        for (id, g) in grads.iter() {
            let shape = params.get(id).shape();
            let m = Self::slot(&mut self.m, id.index(), shape).as_mut_slice();
            let v = Self::slot(&mut self.v, id.index(), shape).as_mut_slice();
            let p = params.get_mut(id).as_mut_slice();
            // One pass over the four slices. Elements are independent, so
            // running moments, decay and update per element instead of per
            // sweep changes no bit.
            for (((pi, mi), vi), &gi) in p.iter_mut().zip(m).zip(v).zip(g.as_slice()) {
                *mi = beta1 * *mi + (1.0 - beta1) * gi;
                *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                *pi *= decay;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *pi -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_autograd::{Graph, ParamSet};

    /// Minimises `(w - 3)^2` and checks convergence.
    fn quadratic_descent(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::filled(1, 1, 0.0));
        for _ in 0..steps {
            let mut g = Graph::new();
            let wv = g.param(&params, w);
            let target = g.constant(Matrix::filled(1, 1, 3.0));
            let diff = g.sub(wv, target);
            let loss = g.square(diff);
            let loss = g.sum_all(loss);
            let grads = g.backward(loss);
            opt.step(&mut params, &grads);
        }
        params.get(w).as_slice()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let w = quadratic_descent(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-6, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let w = quadratic_descent(&mut opt, 800);
        assert!((w - 3.0).abs() < 1e-4, "w = {w}");
        assert_eq!(opt.steps(), 800);
    }

    #[test]
    fn weight_decay_shrinks_parameters_with_zero_gradient() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::filled(1, 1, 10.0));
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        // Zero gradient that still touches the parameter: loss = 0 * w.
        let mut graph = Graph::new();
        let wv = graph.param(&params, w);
        let zero = graph.scale(wv, 0.0);
        let loss = graph.sum_all(zero);
        let grads = graph.backward(loss);
        opt.step(&mut params, &grads);
        let expected = 10.0 * (1.0 - 0.1 * 0.5);
        assert!((params.get(w).as_slice()[0] - expected).abs() < 1e-12);
    }

    /// The three-pass body `Adam::step` replaced (first moment, second
    /// moment, decay, update: four sweeps over each parameter), kept as
    /// the oracle for the one-pass body.
    struct ThreePassAdam {
        hyper: Adam,
        t: u64,
        m: Vec<Matrix>,
        v: Vec<Matrix>,
    }

    impl ThreePassAdam {
        fn step(&mut self, params: &mut ParamSet, grads: &Gradients) {
            let Adam { lr, beta1, beta2, eps, weight_decay, .. } = self.hyper;
            self.t += 1;
            let bc1 = 1.0 - beta1.powi(self.t as i32);
            let bc2 = 1.0 - beta2.powi(self.t as i32);
            for (id, g) in grads.iter() {
                let (m, v) = (&mut self.m[id.index()], &mut self.v[id.index()]);
                for (mi, &gi) in m.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *mi = beta1 * *mi + (1.0 - beta1) * gi;
                }
                for (vi, &gi) in v.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                }
                if weight_decay > 0.0 {
                    params.get_mut(id).scale_inplace(1.0 - lr * weight_decay);
                }
                let p = params.get_mut(id);
                for ((pi, mi), vi) in p.as_mut_slice().iter_mut().zip(m.as_slice()).zip(v.as_slice()) {
                    let m_hat = mi / bc1;
                    let v_hat = vi / bc2;
                    *pi -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }

    #[test]
    fn one_pass_adam_is_bitwise_the_three_pass_body() {
        use gmlfm_tensor::{init::normal, seeded_rng};
        for weight_decay in [0.0, 1e-2] {
            let mut rng = seeded_rng(41);
            let mut fast_params = ParamSet::new();
            let a = fast_params.add("a", normal(&mut rng, 7, 3, 0.0, 1.0));
            let b = fast_params.add("b", normal(&mut rng, 1, 5, 0.0, 1.0));
            let mut slow_params = fast_params.clone();
            let mut fast = Adam::new(0.05).with_weight_decay(weight_decay);
            let mut slow = ThreePassAdam {
                hyper: fast.clone(),
                t: 0,
                m: vec![Matrix::zeros(7, 3), Matrix::zeros(1, 5)],
                v: vec![Matrix::zeros(7, 3), Matrix::zeros(1, 5)],
            };
            for step in 0..50 {
                // loss = mean (a ⊙ ca − 1)² + mean (b ⊙ cb − 1)², fresh ca, cb
                // per step; `b` sits out every seventh step (no gradient entry).
                let mut g = Graph::new();
                let mut term = |g: &mut Graph, id, rows, cols| {
                    let p = g.param(&fast_params, id);
                    let c = g.constant(normal(&mut rng, rows, cols, 0.0, 1.0));
                    let scaled = g.mul(p, c);
                    let ones = g.constant(Matrix::filled(rows, cols, 1.0));
                    g.mse(scaled, ones)
                };
                let mut loss = term(&mut g, a, 7, 3);
                if step % 7 != 3 {
                    let loss_b = term(&mut g, b, 1, 5);
                    loss = g.add(loss, loss_b);
                }
                let grads = g.backward(loss);
                fast.step(&mut fast_params, &grads);
                slow.step(&mut slow_params, &grads);
                for id in [a, b] {
                    let (got, want) = (fast_params.get(id), slow_params.get(id));
                    let same = got
                        .as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "wd {weight_decay}, step {step}: {got:?} vs {want:?}");
                }
            }
        }
    }

    #[test]
    fn learning_rate_accessors() {
        let mut s = Sgd::new(0.1);
        s.set_learning_rate(0.2);
        assert_eq!(s.learning_rate(), 0.2);
        let mut a = Adam::new(0.01);
        a.set_learning_rate(0.002);
        assert_eq!(a.learning_rate(), 0.002);
    }

    #[test]
    fn adam_outpaces_sgd_on_ill_conditioned_problem() {
        // loss = (10 w1 - 5)^2 + (0.1 w2 - 5)^2: curvature differs 100x.
        let run = |opt: &mut dyn Optimizer| {
            let mut params = ParamSet::new();
            let w = params.add("w", Matrix::zeros(1, 2));
            for _ in 0..300 {
                let mut g = Graph::new();
                let wv = g.param(&params, w);
                let scale = g.constant(Matrix::row_vector(&[10.0, 0.1]));
                let scaled = g.mul(wv, scale);
                let target = g.constant(Matrix::row_vector(&[5.0, 5.0]));
                let diff = g.sub(scaled, target);
                let sq = g.square(diff);
                let loss = g.sum_all(sq);
                let grads = g.backward(loss);
                opt.step(&mut params, &grads);
            }
            // Final loss:
            let w = params.get(w);
            (10.0 * w.as_slice()[0] - 5.0).powi(2) + (0.1 * w.as_slice()[1] - 5.0).powi(2)
        };
        let sgd_loss = run(&mut Sgd::new(0.004));
        let adam_loss = run(&mut Adam::new(0.25));
        assert!(adam_loss < sgd_loss, "adam {adam_loss} vs sgd {sgd_loss}");
    }
}
