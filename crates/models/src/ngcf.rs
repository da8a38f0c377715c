//! NGCF (Wang et al., SIGIR'19): embeddings propagated over the user-item
//! bipartite graph, BPR-trained.
//!
//! Implemented in the *simplified linear propagation* form validated by
//! LightGCN (He et al., SIGIR'20): the per-layer feature transforms
//! `W₁/W₂` and non-linearities are dropped, leaving
//!
//! `Ê = (E + ÂE + Â²E) / 3`, `ŷ(u,i) = ê_uᵀ ê_i`
//!
//! with `Â` the symmetrically normalised adjacency. The propagation is
//! linear, so backpropagation through it is exact: `∂L/∂E = (I + Â + Â²)ᵀ
//! ∂L/∂Ê / 3 = (I + Â + Â²) ∂L/∂Ê / 3` (`Â` is symmetric). This
//! substitution is listed under "Substitutions" in the [crate docs](crate).

use crate::common::{PairCodec, Scorer};
use crate::mf::MfConfig;
use gmlfm_data::Instance;
use gmlfm_tensor::init::normal;
use gmlfm_tensor::{seeded_rng, Matrix};
use gmlfm_train::loss::bpr;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Symmetrically normalised sparse bipartite adjacency in CSR-like form.
#[derive(Debug, Clone)]
struct NormAdjacency {
    /// Flattened neighbour lists: `(neighbour, weight)`.
    edges: Vec<(u32, f64)>,
    /// Row offsets into `edges` (one per node, +1 sentinel).
    offsets: Vec<usize>,
}

impl NormAdjacency {
    /// Builds `Â` over `n_users + n_items` nodes (users first).
    fn build(pairs: &[(u32, u32)], n_users: usize, n_items: usize) -> Self {
        let n = n_users + n_items;
        let mut degree = vec![0usize; n];
        for &(u, i) in pairs {
            degree[u as usize] += 1;
            degree[n_users + i as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut edges = vec![(0u32, 0.0); offsets[n]];
        let mut cursor = offsets.clone();
        for &(u, i) in pairs {
            let (un, inode) = (u as usize, n_users + i as usize);
            let w = 1.0 / ((degree[un] as f64).sqrt() * (degree[inode] as f64).sqrt());
            edges[cursor[un]] = (inode as u32, w);
            cursor[un] += 1;
            edges[cursor[inode]] = (un as u32, w);
            cursor[inode] += 1;
        }
        Self { edges, offsets }
    }

    /// `out = Â x` (dense columns).
    fn propagate(&self, x: &Matrix, out: &mut Matrix) {
        out.fill_zero();
        let k = x.cols();
        for node in 0..self.offsets.len() - 1 {
            for &(nbr, w) in &self.edges[self.offsets[node]..self.offsets[node + 1]] {
                let src = x.row(nbr as usize);
                let dst = out.row_mut(node);
                for d in 0..k {
                    dst[d] += w * src[d];
                }
            }
        }
    }
}

/// NGCF model (simplified propagation).
#[derive(Debug, Clone)]
pub struct Ngcf {
    codec: PairCodec,
    /// Raw embeddings `E` over users-then-items nodes.
    e: Matrix,
    /// Propagated embeddings `Ê`, refreshed each training step and after
    /// training for scoring.
    e_hat: Matrix,
    adj: Option<NormAdjacency>,
    cfg: MfConfig,
    hops: usize,
}

impl Ngcf {
    /// Creates an untrained NGCF with 2-hop propagation.
    pub fn new(codec: PairCodec, cfg: MfConfig) -> Self {
        let mut rng = seeded_rng(cfg.seed);
        let n = codec.n_users() + codec.n_items();
        // 0.1 std rather than the FM-family 0.01: the propagated inner
        // product needs larger magnitudes to break symmetry under BPR.
        let e = normal(&mut rng, n, cfg.k, 0.0, 0.1);
        let e_hat = e.clone();
        Self { codec, e, e_hat, adj: None, cfg, hops: 2 }
    }

    /// `Ê = (E + ÂE + Â²E) / (hops+1)`.
    fn refresh_propagation(&mut self) {
        let Some(adj) = &self.adj else {
            self.e_hat = self.e.clone();
            return;
        };
        let mut acc = self.e.clone();
        let mut layer = self.e.clone();
        let mut buf = Matrix::zeros(self.e.rows(), self.e.cols());
        for _ in 0..self.hops {
            adj.propagate(&layer, &mut buf);
            std::mem::swap(&mut layer, &mut buf);
            acc += &layer;
        }
        acc.scale_inplace(1.0 / (self.hops + 1) as f64);
        self.e_hat = acc;
    }

    /// Backpropagates `∂L/∂Ê` to `∂L/∂E` through the linear propagation.
    fn backprop_propagation(&self, d_hat: &Matrix) -> Matrix {
        let Some(adj) = &self.adj else { return d_hat.clone() };
        let mut acc = d_hat.clone();
        let mut layer = d_hat.clone();
        let mut buf = Matrix::zeros(d_hat.rows(), d_hat.cols());
        for _ in 0..self.hops {
            adj.propagate(&layer, &mut buf);
            std::mem::swap(&mut layer, &mut buf);
            acc += &layer;
        }
        acc.scale_inplace(1.0 / (self.hops + 1) as f64);
        acc
    }

    /// Trains with BPR over sampled triples; returns mean loss per epoch.
    pub fn fit(&mut self, train_pairs: &[(u32, u32)], user_items: &[HashSet<u32>]) -> Vec<f64> {
        assert!(!train_pairs.is_empty(), "Ngcf::fit: no training pairs");
        self.adj = Some(NormAdjacency::build(train_pairs, self.codec.n_users(), self.codec.n_items()));
        let n_items = self.codec.n_items();
        let n_users = self.codec.n_users();
        let mut rng = seeded_rng(self.cfg.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..train_pairs.len()).collect();
        let (lr, reg, k) = (self.cfg.lr, self.cfg.reg, self.cfg.k);
        let batch = 512usize;
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        let mut d_hat = Matrix::zeros(self.e.rows(), self.e.cols());

        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for chunk in order.chunks(batch) {
                self.refresh_propagation();
                d_hat.fill_zero();
                for &idx in chunk {
                    let (u, i) = train_pairs[idx];
                    let (u, i) = (u as usize, i as usize);
                    let j = loop {
                        let cand = rng.gen_range(0..n_items) as u32;
                        if !user_items[u].contains(&cand) {
                            break cand as usize;
                        }
                    };
                    let (ui, ii, ji) = (u, n_users + i, n_users + j);
                    let mut x_uij = 0.0;
                    for d in 0..k {
                        x_uij += self.e_hat[(ui, d)] * (self.e_hat[(ii, d)] - self.e_hat[(ji, d)]);
                    }
                    let (loss, gq) = bpr(x_uij);
                    total += loss;
                    for d in 0..k {
                        let eu = self.e_hat[(ui, d)];
                        let ei = self.e_hat[(ii, d)];
                        let ej = self.e_hat[(ji, d)];
                        d_hat[(ui, d)] += gq * (ei - ej);
                        d_hat[(ii, d)] += gq * eu;
                        d_hat[(ji, d)] -= gq * eu;
                    }
                }
                // Summed (not averaged) batch gradient: matches the update
                // magnitude of the per-instance SGD used by BPR-MF.
                let mut d_e = self.backprop_propagation(&d_hat);
                d_e.axpy(reg, &self.e);
                self.e.axpy(-lr, &d_e);
            }
            losses.push(total / train_pairs.len() as f64);
        }
        self.refresh_propagation();
        losses
    }

    /// Score from the propagated embeddings.
    pub fn predict_pair(&self, u: usize, i: usize) -> f64 {
        let item_node = self.codec.n_users() + i;
        let mut dot = 0.0;
        for d in 0..self.cfg.k {
            dot += self.e_hat[(u, d)] * self.e_hat[(item_node, d)];
        }
        dot
    }
}

impl Scorer for Ngcf {
    fn scores(&self, instances: &[Instance]) -> Vec<f64> {
        instances
            .iter()
            .map(|inst| {
                let (u, i) = self.codec.decode(inst);
                self.predict_pair(u, i)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_data::{generate, loo_split, DatasetSpec, FieldMask};

    #[test]
    fn adjacency_rows_are_symmetric() {
        let pairs = vec![(0u32, 0u32), (0, 1), (1, 1)];
        let adj = NormAdjacency::build(&pairs, 2, 2);
        // Â is symmetric: propagate a one-hot and check transposed entry.
        let n = 4;
        for a in 0..n {
            let mut x = Matrix::zeros(n, 1);
            x[(a, 0)] = 1.0;
            let mut out = Matrix::zeros(n, 1);
            adj.propagate(&x, &mut out);
            for b in 0..n {
                let mut y = Matrix::zeros(n, 1);
                y[(b, 0)] = 1.0;
                let mut out_b = Matrix::zeros(n, 1);
                adj.propagate(&y, &mut out_b);
                assert!((out[(b, 0)] - out_b[(a, 0)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn propagation_averages_with_identity() {
        // With no edges Ê must equal E.
        let codec = PairCodec::from_sizes(3, 3);
        let mut model = Ngcf::new(codec, MfConfig { k: 4, ..MfConfig::default() });
        model.refresh_propagation();
        assert!(gmlfm_tensor::approx_eq(&model.e_hat, &model.e, 0.0));
    }

    #[test]
    fn ngcf_learns_to_rank_training_pairs() {
        let d = generate(&DatasetSpec::AmazonAuto.config(111).scaled(0.25));
        let mask = FieldMask::base(&d.schema);
        let split = loo_split(&d, &mask, 2, 10, 23);
        let codec = PairCodec::from_schema(&d.schema);
        let mut model = Ngcf::new(codec, MfConfig { epochs: 30, lr: 0.02, ..MfConfig::default() });
        let losses = model.fit(&split.train_pairs, &split.train_user_items);
        assert!(losses.last().unwrap() < &losses[0], "losses {losses:?}");

        let mut wins = 0usize;
        let mut total = 0usize;
        for &(u, i) in split.train_pairs.iter().take(200) {
            let pos = model.predict_pair(u as usize, i as usize);
            for j in 0..3 {
                let cand = (i as usize + 101 * (j + 1)) % d.n_items;
                if split.train_user_items[u as usize].contains(&(cand as u32)) {
                    continue;
                }
                total += 1;
                if pos > model.predict_pair(u as usize, cand) {
                    wins += 1;
                }
            }
        }
        let auc = wins as f64 / total as f64;
        assert!(auc > 0.7, "training AUC {auc}");
    }
}
