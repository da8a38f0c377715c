//! # gmlfm-tsne
//!
//! Exact t-SNE (van der Maaten & Hinton, JMLR'08) for the paper's case
//! study (Figures 5 and 6): projecting the item-ID embeddings of FM, NFM,
//! TransFM and GML-FM to 2-D to compare how well positive items cluster.
//!
//! The point counts in the case study are small (a user's positive items
//! plus equally many sampled negatives, ≈ tens to low hundreds), so the
//! exact `O(N²)` formulation is used — no Barnes-Hut tree needed.
//! Perplexity calibration is the standard per-point binary search over
//! the Gaussian bandwidth; the embedding is optimised with momentum
//! gradient descent and early exaggeration.
#![forbid(unsafe_code)]

use gmlfm_tensor::init::normal;
use gmlfm_tensor::{seeded_rng, Matrix};

/// t-SNE hyper-parameters.
#[derive(Debug, Clone)]
pub struct TsneConfig {
    /// Target perplexity (effective number of neighbours).
    pub perplexity: f64,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Momentum after the early-exaggeration phase.
    pub momentum: f64,
    /// Multiplier on P during the first quarter of iterations.
    pub early_exaggeration: f64,
    /// RNG seed for the initial layout.
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        Self {
            perplexity: 15.0,
            iterations: 400,
            learning_rate: 100.0,
            momentum: 0.8,
            early_exaggeration: 4.0,
            seed: 59,
        }
    }
}

/// Embeds `data` (`N×d`) into 2-D. Deterministic in `config.seed`.
///
/// # Panics
/// Panics when fewer than 4 points are given (perplexity calibration is
/// meaningless below that).
pub fn tsne(data: &Matrix, config: &TsneConfig) -> Matrix {
    let n = data.rows();
    assert!(n >= 4, "tsne: need at least 4 points, got {n}");
    let p = joint_probabilities(data, config.perplexity.min((n - 1) as f64 / 3.0));

    let mut rng = seeded_rng(config.seed);
    let mut y = normal(&mut rng, n, 2, 0.0, 1e-4);
    let mut velocity = Matrix::zeros(n, 2);
    let exaggeration_end = config.iterations / 4;

    for iter in 0..config.iterations {
        let exaggeration = if iter < exaggeration_end { config.early_exaggeration } else { 1.0 };
        let momentum = if iter < exaggeration_end { 0.5 } else { config.momentum };
        let grad = gradient(&p, &y, exaggeration);
        for i in 0..n {
            for d in 0..2 {
                velocity[(i, d)] = momentum * velocity[(i, d)] - config.learning_rate * grad[(i, d)];
                y[(i, d)] += velocity[(i, d)];
            }
        }
        center(&mut y);
    }
    y
}

/// Symmetrised, normalised joint probabilities `P` with per-point
/// bandwidths calibrated to the target perplexity.
fn joint_probabilities(data: &Matrix, perplexity: f64) -> Matrix {
    let n = data.rows();
    let d2 = pairwise_sq_distances(data);
    let target_entropy = perplexity.ln();
    let mut p = Matrix::zeros(n, n);
    for i in 0..n {
        // Binary search the precision beta = 1/(2σ²) for row i.
        let (mut beta, mut beta_min, mut beta_max) = (1.0f64, f64::NEG_INFINITY, f64::INFINITY);
        let mut row = vec![0.0; n];
        for _ in 0..64 {
            let mut sum = 0.0;
            for j in 0..n {
                row[j] = if j == i { 0.0 } else { (-beta * d2[(i, j)]).exp() };
                sum += row[j];
            }
            let sum = sum.max(1e-300);
            // Shannon entropy of the conditional distribution.
            let mut entropy = 0.0;
            for (j, rv) in row.iter().enumerate() {
                if j != i && *rv > 0.0 {
                    let pj = rv / sum;
                    entropy -= pj * pj.ln();
                }
            }
            let diff = entropy - target_entropy;
            if diff.abs() < 1e-5 {
                break;
            }
            if diff > 0.0 {
                beta_min = beta;
                beta = if beta_max.is_infinite() { beta * 2.0 } else { 0.5 * (beta + beta_max) };
            } else {
                beta_max = beta;
                beta = if beta_min.is_infinite() { beta / 2.0 } else { 0.5 * (beta + beta_min) };
            }
        }
        let sum: f64 = row.iter().sum::<f64>().max(1e-300);
        for j in 0..n {
            p[(i, j)] = row[j] / sum;
        }
    }
    // Symmetrise and normalise: P = (P + Pᵀ) / 2N, floored for stability.
    let mut joint = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            joint[(i, j)] = ((p[(i, j)] + p[(j, i)]) / (2.0 * n as f64)).max(1e-12);
        }
    }
    joint
}

/// KL-divergence gradient with Student-t low-dimensional affinities.
fn gradient(p: &Matrix, y: &Matrix, exaggeration: f64) -> Matrix {
    let n = y.rows();
    // q_ij ∝ (1 + ||y_i − y_j||²)^-1.
    let mut num = Matrix::zeros(n, n);
    let mut z = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let dx = y[(i, 0)] - y[(j, 0)];
            let dy = y[(i, 1)] - y[(j, 1)];
            let t = 1.0 / (1.0 + dx * dx + dy * dy);
            num[(i, j)] = t;
            z += t;
        }
    }
    let z = z.max(1e-300);
    let mut grad = Matrix::zeros(n, 2);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let q = (num[(i, j)] / z).max(1e-12);
            let coeff = 4.0 * (exaggeration * p[(i, j)] - q) * num[(i, j)];
            grad[(i, 0)] += coeff * (y[(i, 0)] - y[(j, 0)]);
            grad[(i, 1)] += coeff * (y[(i, 1)] - y[(j, 1)]);
        }
    }
    grad
}

fn pairwise_sq_distances(data: &Matrix) -> Matrix {
    let n = data.rows();
    let mut d2 = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i + 1..n {
            let dist: f64 = data.row(i).iter().zip(data.row(j)).map(|(a, b)| (a - b) * (a - b)).sum();
            d2[(i, j)] = dist;
            d2[(j, i)] = dist;
        }
    }
    d2
}

fn center(y: &mut Matrix) {
    let n = y.rows() as f64;
    for d in 0..2 {
        let mean: f64 = (0..y.rows()).map(|i| y[(i, d)]).sum::<f64>() / n;
        for i in 0..y.rows() {
            y[(i, d)] -= mean;
        }
    }
}

/// Mean silhouette-style separation score of a 2-D embedding with binary
/// labels: mean inter-group distance divided by mean intra-group
/// distance. Greater than 1 means the groups separate — the quantitative
/// proxy this reproduction uses for "positive items cluster together" in
/// Figures 5/6.
pub fn separation_score(y: &Matrix, labels: &[bool]) -> f64 {
    assert_eq!(y.rows(), labels.len(), "separation_score: label count mismatch");
    let mut intra = (0.0, 0usize);
    let mut inter = (0.0, 0usize);
    for i in 0..y.rows() {
        for j in i + 1..y.rows() {
            let dx = y[(i, 0)] - y[(j, 0)];
            let dy = y[(i, 1)] - y[(j, 1)];
            let d = (dx * dx + dy * dy).sqrt();
            if labels[i] == labels[j] {
                intra = (intra.0 + d, intra.1 + 1);
            } else {
                inter = (inter.0 + d, inter.1 + 1);
            }
        }
    }
    let intra_mean = intra.0 / intra.1.max(1) as f64;
    let inter_mean = inter.0 / inter.1.max(1) as f64;
    if intra_mean > 0.0 {
        inter_mean / intra_mean
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_tensor::seeded_rng;

    /// Two well-separated Gaussian blobs in 8-D.
    fn blobs(n_per: usize, separation: f64, seed: u64) -> (Matrix, Vec<bool>) {
        let mut rng = seeded_rng(seed);
        let mut data = Matrix::zeros(2 * n_per, 8);
        let mut labels = Vec::with_capacity(2 * n_per);
        for i in 0..2 * n_per {
            let offset = if i < n_per { 0.0 } else { separation };
            let noise = normal(&mut rng, 1, 8, 0.0, 0.5);
            for d in 0..8 {
                data[(i, d)] = offset + noise[(0, d)];
            }
            labels.push(i >= n_per);
        }
        (data, labels)
    }

    #[test]
    fn tsne_separates_well_separated_blobs() {
        let (data, labels) = blobs(20, 8.0, 1);
        let cfg = TsneConfig { iterations: 300, ..TsneConfig::default() };
        let y = tsne(&data, &cfg);
        assert_eq!(y.shape(), (40, 2));
        assert!(y.is_finite());
        let score = separation_score(&y, &labels);
        assert!(score > 1.5, "separation {score}");
    }

    #[test]
    fn tsne_is_deterministic() {
        let (data, _) = blobs(10, 5.0, 2);
        let cfg = TsneConfig { iterations: 100, ..TsneConfig::default() };
        let a = tsne(&data, &cfg);
        let b = tsne(&data, &cfg);
        assert!(gmlfm_tensor::approx_eq(&a, &b, 0.0));
    }

    #[test]
    fn overlapping_blobs_have_lower_separation_than_distant_ones() {
        let cfg = TsneConfig { iterations: 250, ..TsneConfig::default() };
        let (near_data, near_labels) = blobs(15, 0.2, 3);
        let (far_data, far_labels) = blobs(15, 10.0, 3);
        let near = separation_score(&tsne(&near_data, &cfg), &near_labels);
        let far = separation_score(&tsne(&far_data, &cfg), &far_labels);
        assert!(far > near, "far {far} should exceed near {near}");
    }

    #[test]
    fn embedding_is_centered() {
        let (data, _) = blobs(8, 4.0, 4);
        let y = tsne(&data, &TsneConfig { iterations: 50, ..TsneConfig::default() });
        let mean_x: f64 = (0..y.rows()).map(|i| y[(i, 0)]).sum::<f64>() / y.rows() as f64;
        assert!(mean_x.abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 4 points")]
    fn too_few_points_are_rejected() {
        let data = Matrix::zeros(3, 2);
        let _ = tsne(&data, &TsneConfig::default());
    }

    #[test]
    fn separation_score_of_identical_groups_is_about_one() {
        let mut rng = seeded_rng(5);
        let y = normal(&mut rng, 60, 2, 0.0, 1.0);
        let labels: Vec<bool> = (0..60).map(|i| i % 2 == 0).collect();
        let s = separation_score(&y, &labels);
        assert!((s - 1.0).abs() < 0.15, "score {s}");
    }
}
