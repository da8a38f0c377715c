//! Property tests: randomly composed graphs still backpropagate exactly
//! (finite-difference certified), gradients obey linearity, and the
//! row-sparse backward rule of a gather taken from a parameter leaf
//! returns the bits of the dense rule it short-cuts.

use gmlfm_autograd::{gradient_check, Graph, ParamSet, Var};
use gmlfm_tensor::init::normal;
use gmlfm_tensor::{seeded_rng, Matrix};
use proptest::prelude::*;
use rand::Rng;

/// Gradient of an `n x k` table that `index_sets.len()` gathers read,
/// each gathered block weighted by its own random constant so every
/// adjoint row is distinct. `through_leaf` gathers straight from the
/// parameter leaf (the row-sparse rule); otherwise from `scale(leaf, 1.0)`
/// — `x * 1.0` is exact, so the forward values are the same bits and the
/// backward pass takes the dense rule (a zero-filled `n x k` temporary per
/// gather, summed into the leaf's adjoint). With `dense_consumer` the leaf
/// also feeds `Σ leaf²` directly, so a dense adjoint and the scattered
/// rows meet in one `Gradients` entry.
fn table_gradient(
    seed: u64,
    (n, k): (usize, usize),
    index_sets: &[Vec<usize>],
    through_leaf: bool,
    dense_consumer: bool,
) -> Matrix {
    let mut rng = seeded_rng(seed);
    let mut params = ParamSet::new();
    let table = params.add("table", normal(&mut rng, n, k, 0.0, 1.0));
    let mut g = Graph::new();
    let leaf = g.param(&params, table);
    let source = if through_leaf { leaf } else { g.scale(leaf, 1.0) };
    let mut loss = g.constant(Matrix::zeros(1, 1));
    for indices in index_sets {
        let rows = g.gather_rows(source, indices);
        let weights = g.constant(normal(&mut rng, indices.len(), k, 0.0, 1.0));
        let weighted = g.mul(rows, weights);
        let term = g.sum_all(weighted);
        loss = g.add(loss, term);
    }
    if dense_consumer {
        let sq = g.square(leaf);
        let term = g.sum_all(sq);
        loss = g.add(loss, term);
    }
    g.backward(loss).get(table).expect("the table took part").clone()
}

/// A random sequence of unary/binary smooth ops applied to two parameter
/// leaves, ending in a scalar reduction.
fn build_random(ops: &[u8]) -> impl Fn(&mut Graph, &ParamSet) -> Var + '_ {
    move |g, p| {
        let ids: Vec<_> = p.iter().map(|(id, _)| id).collect();
        let mut cur = g.param(p, ids[0]);
        let other = g.param(p, ids[1]);
        for &op in ops {
            cur = match op % 7 {
                0 => g.add(cur, other),
                1 => g.mul(cur, other),
                2 => g.tanh(cur),
                3 => g.sigmoid(cur),
                4 => g.square(cur),
                5 => g.scale(cur, 0.7),
                _ => {
                    let t = g.transpose(cur);
                    g.transpose(t)
                }
            };
        }
        g.mean_all(cur)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn random_smooth_graphs_pass_gradient_check(
        ops in proptest::collection::vec(0u8..7, 1..8),
        seed in 0u64..500,
    ) {
        let mut rng = seeded_rng(seed);
        let mut params = ParamSet::new();
        params.add("a", normal(&mut rng, 3, 3, 0.0, 0.5));
        params.add("b", normal(&mut rng, 3, 3, 0.0, 0.5));
        let report = gradient_check(&mut params, 1e-6, build_random(&ops));
        prop_assert!(report.passes(1e-6), "{report:?} for ops {ops:?}");
    }

    #[test]
    fn gradient_of_scaled_loss_scales(seed in 0u64..200, alpha in 0.1f64..5.0) {
        let mut rng = seeded_rng(seed);
        let mut params = ParamSet::new();
        let a = params.add("a", normal(&mut rng, 2, 3, 0.0, 1.0));

        let grad_for = |scale: f64, params: &ParamSet| {
            let mut g = Graph::new();
            let av = g.param(params, a);
            let sq = g.square(av);
            let s = g.sum_all(sq);
            let loss = g.scale(s, scale);
            g.backward(loss).get(a).unwrap().clone()
        };
        let g1 = grad_for(1.0, &params);
        let ga = grad_for(alpha, &params);
        for (x, y) in g1.as_slice().iter().zip(ga.as_slice()) {
            prop_assert!((x * alpha - y).abs() < 1e-9);
        }
    }

    #[test]
    fn gradient_of_sum_is_sum_of_gradients(seed in 0u64..200) {
        // d(f+g)/dp == df/dp + dg/dp with f = sum(a^2), g = sum(tanh(a)).
        let mut rng = seeded_rng(seed);
        let mut params = ParamSet::new();
        let a = params.add("a", normal(&mut rng, 2, 2, 0.0, 1.0));

        let grad_f = {
            let mut g = Graph::new();
            let av = g.param(&params, a);
            let sq = g.square(av);
            let loss = g.sum_all(sq);
            g.backward(loss).get(a).unwrap().clone()
        };
        let grad_g = {
            let mut g = Graph::new();
            let av = g.param(&params, a);
            let t = g.tanh(av);
            let loss = g.sum_all(t);
            g.backward(loss).get(a).unwrap().clone()
        };
        let grad_sum = {
            let mut g = Graph::new();
            let av = g.param(&params, a);
            let sq = g.square(av);
            let f = g.sum_all(sq);
            let t = g.tanh(av);
            let gg = g.sum_all(t);
            let loss = g.add(f, gg);
            g.backward(loss).get(a).unwrap().clone()
        };
        for ((f, gg), s) in grad_f.as_slice().iter().zip(grad_g.as_slice()).zip(grad_sum.as_slice()) {
            prop_assert!((f + gg - s).abs() < 1e-9);
        }
    }

    #[test]
    fn constants_receive_no_gradients(seed in 0u64..100) {
        let mut rng = seeded_rng(seed);
        let mut params = ParamSet::new();
        let a = params.add("a", normal(&mut rng, 2, 2, 0.0, 1.0));
        let mut g = Graph::new();
        let av = g.param(&params, a);
        let c = g.constant(normal(&mut rng, 2, 2, 0.0, 1.0));
        let prod = g.mul(av, c);
        let loss = g.sum_all(prod);
        let grads = g.backward(loss);
        // Exactly one parameter entry, no spurious ones.
        prop_assert_eq!(grads.iter().count(), 1);
        prop_assert!(grads.get(a).is_some());
    }

    /// Field-structured lookups: every gather owns its own index range
    /// (as every field of a one-hot schema does), with duplicates inside
    /// a gather. Each table row is then summed in the same order by both
    /// rules, so the gradients are the same bits.
    #[test]
    fn leaf_gather_gradient_is_bitwise_the_dense_rule_on_disjoint_fields(
        seed in 0u64..1000,
        n_gathers in 1usize..7,
        width in 1usize..6,
        batch in 1usize..24,
        k in 1usize..5,
        dense_consumer in 0u8..2,
    ) {
        let mut rng = seeded_rng(seed ^ 0x5eed);
        let index_sets: Vec<Vec<usize>> = (0..n_gathers)
            .map(|f| (0..batch).map(|_| f * width + rng.gen_range(0..width)).collect())
            .collect();
        let shape = (n_gathers * width + 1, k); // one row no gather reads
        let sparse = table_gradient(seed, shape, &index_sets, true, dense_consumer == 1);
        let dense = table_gradient(seed, shape, &index_sets, false, dense_consumer == 1);
        prop_assert_eq!(sparse.shape(), dense.shape());
        for (i, (x, y)) in sparse.as_slice().iter().zip(dense.as_slice()).enumerate() {
            prop_assert!(x.to_bits() == y.to_bits(), "entry {i}: sparse {x:e} vs dense {y:e}");
        }
    }

    /// Gathers that share rows: the sparse rule adds a shared row's
    /// contributions one by one, the dense rule sums each gather first and
    /// then the gathers — a different association of the same terms, so
    /// the results agree to rounding, not to the bit.
    #[test]
    fn leaf_gather_gradient_agrees_with_the_dense_rule_when_gathers_overlap(
        seed in 0u64..1000,
        n_gathers in 2usize..7,
        n in 1usize..8,
        batch in 1usize..24,
        k in 1usize..5,
    ) {
        let mut rng = seeded_rng(seed ^ 0x5eed);
        let index_sets: Vec<Vec<usize>> =
            (0..n_gathers).map(|_| (0..batch).map(|_| rng.gen_range(0..n)).collect()).collect();
        let sparse = table_gradient(seed, (n, k), &index_sets, true, true);
        let dense = table_gradient(seed, (n, k), &index_sets, false, true);
        let scale = dense.max_abs().max(1.0);
        for (x, y) in sparse.as_slice().iter().zip(dense.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-12 * scale, "sparse {x:e} vs dense {y:e}");
        }
    }
}
