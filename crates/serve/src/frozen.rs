//! The frozen model: plain matrices, no graph, no tape.
//!
//! [`FrozenModel`] is the serving-side representation of any trained
//! second-order model in this workspace. Freezing precomputes everything
//! the paper's efficient evaluation (Section 3.3, Eq. 10/11) needs:
//!
//! * the transformed embedding table `V̂ = ψ(V)` (identity for plain
//!   FMs, `V L` for GML-FM_md, the tanh MLP image for GML-FM_dnn) — so
//!   the Mahalanobis and DNN cases collapse into one code path, because
//!   `(vᵢ−vⱼ)ᵀLLᵀ(vᵢ−vⱼ) = ‖v̂ᵢ−v̂ⱼ‖²` with `v̂ = vL`;
//! * the per-feature squared norms `qᵢ = ‖v̂ᵢ‖²`.
//!
//! Both live in one packed [`HatQ`] table whose row `i` is `[v̂ᵢ | qᵢ]`:
//! a candidate's transformed embedding and its norm sit on the same
//! cache lines, so every per-candidate delta in the scoring hot loops is
//! a single linear scan of contiguous memory. (Parallel serving workers
//! stream these rows concurrently; the layout is what keeps them
//! memory-bound instead of latency-bound.)
//!
//! Prediction over a sparse [`Instance`] with `m` active fields then
//! evaluates the second-order term directly on the active features,
//! instead of replaying the pair loop through an autograd graph as
//! [`gmlfm_train::GraphModel::predict`] does: one per-pair term per mode
//! (`FrozenModel::pair_term`), summed over the set's pairs by one
//! tape-free, allocation-free loop that every serving path shares —
//! Score replies, the ranker's context score and within-group term, the
//! group memo and the IVF linearisation. No mode takes an expanded
//! `m·u − ‖s‖²`-style sum: it cancels catastrophically on near-duplicate
//! embeddings. Served instances carry a few fields
//! against a `k` of 8–16, where the `O(m²·k)` pair loop is cheaper than
//! the paper's `O(m·k²)` weighted Eq. 10/11 form, which lives in
//! `gmlfm_core::efficient`.

use gmlfm_core::{reference, Distance};
use gmlfm_data::Instance;
use gmlfm_par::Parallelism;
use gmlfm_tensor::Matrix;
use gmlfm_train::Scorer;

use crate::index::ItemFeatureSource;
use crate::kernel;
use crate::rank::{GroupMemo, TopNRanker};

/// The packed `V̂`/`q` table: row `i` holds the transformed embedding
/// `v̂ᵢ` immediately followed by its squared norm `qᵢ = ‖v̂ᵢ‖²`, as one
/// contiguous `n × (k+1)` row-major matrix.
///
/// Keeping the norm adjacent to its row means the scoring loops read
/// each candidate's entire second-order state in one linear scan — no
/// second indexed load into a separate `q` vector.
#[derive(Debug, Clone, PartialEq)]
pub struct HatQ {
    table: Matrix,
}

impl HatQ {
    /// Packs a transformed embedding table and its per-row squared norms.
    ///
    /// # Panics
    /// Panics when `q.len() != v_hat.rows()`.
    pub fn new(v_hat: Matrix, q: Vec<f64>) -> Self {
        assert_eq!(q.len(), v_hat.rows(), "HatQ: |q| != rows of V̂");
        let (n, k) = v_hat.shape();
        let mut table = Matrix::zeros(n, k + 1);
        for (r, &qr) in q.iter().enumerate() {
            let row = table.row_mut(r);
            row[..k].copy_from_slice(v_hat.row(r));
            row[k] = qr;
        }
        Self { table }
    }

    /// Number of features `n`.
    pub fn n(&self) -> usize {
        self.table.rows()
    }

    /// Embedding size `k` (the packed rows are `k + 1` wide).
    pub fn k(&self) -> usize {
        self.table.cols() - 1
    }

    /// The transformed embedding `v̂ᵢ` and its norm `qᵢ`, read from one
    /// contiguous row.
    #[inline]
    pub fn row(&self, i: usize) -> (&[f64], f64) {
        let row = self.table.row(i);
        let (v_hat, q) = row.split_at(row.len() - 1);
        (v_hat, q[0])
    }

    /// The transformed embedding `v̂ᵢ`.
    #[inline]
    pub fn v_hat(&self, i: usize) -> &[f64] {
        self.row(i).0
    }

    /// The squared norm `qᵢ = ‖v̂ᵢ‖²`.
    #[inline]
    pub fn q(&self, i: usize) -> f64 {
        self.row(i).1
    }

    /// Unpacks the `V̂` matrix (artifact serialisation).
    pub fn v_hat_matrix(&self) -> Matrix {
        let (n, k) = (self.n(), self.k());
        let mut out = Matrix::zeros(n, k);
        for r in 0..n {
            out.row_mut(r).copy_from_slice(self.v_hat(r));
        }
        out
    }

    /// Unpacks the norm vector `q` (artifact serialisation).
    pub fn q_vec(&self) -> Vec<f64> {
        (0..self.n()).map(|r| self.q(r)).collect()
    }
}

/// How the second-order interaction term is evaluated.
#[derive(Debug, Clone)]
pub enum SecondOrder {
    /// Vanilla FM: `Σ_{i<j} ⟨vᵢ, vⱼ⟩`.
    Dot,
    /// GML-FM family: `Σ_{i<j} w_ij · D(v̂ᵢ, v̂ⱼ)` with frozen transformed
    /// embeddings.
    Metric {
        /// Packed `[v̂ᵢ | qᵢ]` table (see [`HatQ`]).
        hat: HatQ,
        /// Transformation weight vector `h` (Eq. 2); `None` fixes
        /// `w_ij = 1`.
        h: Option<Vec<f64>>,
        /// Distance over transformed embeddings (Section 3.5).
        distance: Distance,
    },
    /// TransFM: `Σ_{i<j} ‖(vᵢ + v'ᵢ) − vⱼ‖²` — order-dependent in the
    /// field positions.
    Translated {
        /// Translation table `V' ∈ R^{n×k}`.
        v_trans: Matrix,
    },
}

impl SecondOrder {
    /// Builds the metric strategy from an unpacked `V̂` table and norm
    /// vector, packing them into the adjacent [`HatQ`] layout.
    pub fn metric(v_hat: Matrix, q: Vec<f64>, h: Option<Vec<f64>>, distance: Distance) -> Self {
        SecondOrder::Metric { hat: HatQ::new(v_hat, q), h, distance }
    }
}

/// Selects nothing; deleted in the next benchmark window (ROADMAP item
/// 2). Every scan is exact f64 whichever variant is passed.
#[derive(Debug, Clone, Copy)]
pub enum Precision {
    /// Exact f64.
    F64,
    /// Exact f64 too.
    F32,
    /// Exact f64 too.
    I8,
}

/// A trained model frozen for serving: plain parameters, direct sparse
/// evaluation, no autograd machinery.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    /// Global bias `w₀`.
    pub(crate) w0: f64,
    /// First-order weights, one per feature.
    pub(crate) w: Vec<f64>,
    /// Factor table `V ∈ R^{n×k}`, contiguous row-major.
    pub(crate) v: Matrix,
    /// Second-order evaluation strategy.
    pub(crate) second: SecondOrder,
    /// The within-group pair term of every item of one catalogue, built
    /// by [`FrozenModel::with_group_memo`]; clones share its table.
    /// Never serialised: whoever installs the model rebuilds it.
    pub(crate) group_memo: Option<GroupMemo>,
}

impl FrozenModel {
    /// Assembles a frozen model from raw parts. `w.len()` must equal
    /// `v.rows()`; the [`SecondOrder`] tables must share `v`'s shape.
    pub fn from_parts(w0: f64, w: Vec<f64>, v: Matrix, second: SecondOrder) -> Self {
        assert_eq!(w.len(), v.rows(), "FrozenModel: |w| != n");
        match &second {
            SecondOrder::Metric { hat, h, .. } => {
                assert_eq!((hat.n(), hat.k()), v.shape(), "FrozenModel: V̂ shape mismatch");
                if let Some(h) = h {
                    assert_eq!(h.len(), v.cols(), "FrozenModel: |h| != k");
                }
            }
            SecondOrder::Translated { v_trans } => {
                assert_eq!(v_trans.shape(), v.shape(), "FrozenModel: V' shape mismatch");
            }
            SecondOrder::Dot => {}
        }
        Self { w0, w, v, second, group_memo: None }
    }

    /// Selects nothing; deleted in the next benchmark window (ROADMAP
    /// item 2).
    pub fn with_precision(self, _precision: Precision) -> Self {
        self
    }

    /// Precomputes, for every item of `items`, the second-order pairs
    /// *within* its feature group (item id × its attributes) — the part
    /// of a top-N score that depends on the model and the item but not
    /// on the user — so [`TopNRanker::score`] and
    /// [`TopNRanker::score_block`] read it instead of re-evaluating it
    /// per candidate per request. One pass over the catalogue (≈ 60 ns
    /// per item), 8 B plus 4 B per attribute slot per item.
    ///
    /// Scores do not change by a bit: an entry is the value the scan
    /// would compute, and it is used only for a candidate whose whole
    /// feature group equals the one it was computed for — ranking a
    /// different catalogue with this model is correct, just unmemoised.
    /// Models and catalogues the memo cannot serve (TransFM, single-slot
    /// items, sparse id ranges) are returned unchanged, and so is a model
    /// that already carries a memo: whoever memoised it did the pass.
    pub fn with_group_memo<S: ItemFeatureSource + ?Sized>(mut self, items: &S) -> Self {
        if self.group_memo.is_none() {
            self.group_memo = GroupMemo::build(&self, items);
        }
        self
    }

    /// Number of one-hot features `n`.
    pub fn n_features(&self) -> usize {
        self.v.rows()
    }

    /// Embedding size `k`.
    pub fn k(&self) -> usize {
        self.v.cols()
    }

    /// The second-order strategy in use.
    pub fn second_order_kind(&self) -> &SecondOrder {
        &self.second
    }

    /// Global bias `w₀` (artifact serialisation).
    pub fn bias(&self) -> f64 {
        self.w0
    }

    /// First-order weights, one per feature (artifact serialisation).
    pub fn linear_weights(&self) -> &[f64] {
        &self.w
    }

    /// The factor table `V ∈ R^{n×k}` (artifact serialisation).
    pub fn factors(&self) -> &Matrix {
        &self.v
    }

    /// Scores one instance: `w₀ + Σ_f w[x_f] + second-order`.
    pub fn predict(&self, inst: &Instance) -> f64 {
        self.predict_feats(&inst.feats)
    }

    /// [`FrozenModel::predict`] over a batch, fanned across `par`
    /// threads and merged in input order: prediction is a pure
    /// per-instance map, so the output is bit-identical to the serial
    /// loop at every thread count.
    pub fn scores_with(&self, instances: &[Instance], par: Parallelism) -> Vec<f64> {
        gmlfm_par::par_map(par, instances, |inst| self.predict(inst))
    }

    /// [`FrozenModel::predict`] over raw feature indices.
    pub fn predict_feats(&self, feats: &[u32]) -> f64 {
        let mut out = self.w0;
        for &f in feats {
            out += self.w[f as usize];
        }
        out + self.second_order(feats)
    }

    /// Scores one instance through [`gmlfm_core::reference`], the one
    /// slow evaluator of Eq. 3 (serial loops, no chunked kernels): an
    /// evaluation independent of the served one that tests pin
    /// [`FrozenModel::predict`] against.
    pub fn predict_pairwise(&self, inst: &Instance) -> f64 {
        let feats = &inst.feats;
        reference::score(self.w0, &self.w, feats, |p, q| {
            let (a, b) = (feats[p] as usize, feats[q] as usize);
            let (va, vb) = (self.v.row(a), self.v.row(b));
            match &self.second {
                SecondOrder::Dot => reference::fm(va, vb),
                SecondOrder::Metric { hat, h, distance } => {
                    reference::gml(va, vb, h.as_deref(), *distance, hat.v_hat(a), hat.v_hat(b))
                }
                SecondOrder::Translated { v_trans } => reference::trans(va, v_trans.row(a), vb),
            }
        })
    }

    /// Builds a top-N ranker over a template instance whose `item_slots`
    /// positions vary per candidate (see [`TopNRanker`]).
    pub fn ranker<'m>(&'m self, template: &[u32], item_slots: &[usize]) -> TopNRanker<'m> {
        TopNRanker::new(self, template, item_slots)
    }

    /// A serving-shaped synthetic model: weighted squared-Euclidean
    /// metric (the GML-FM_md form after freezing) over `n` one-hot
    /// features with embedding size `k`, all parameters drawn from
    /// seeded normals. Deterministic in `seed`.
    ///
    /// This is the shared fixture for benches, examples and cross-crate
    /// tests that need catalogue-scale scoring without paying for
    /// training — retrieval and serving costs are independent of the
    /// parameter values.
    pub fn synthetic_metric(n: usize, k: usize, seed: u64) -> Self {
        Self::synthetic_metric_damped(n, k, seed, 0..0, 1.0)
    }

    /// [`FrozenModel::synthetic_metric`] with the parameter rows of the
    /// `damped` feature range scaled by `factor` — the ANN-benchmark
    /// shape of a *trained* model.
    ///
    /// With fully iid random parameters every item's private id
    /// embedding carries as much score variance as the shared attribute
    /// embeddings, i.e. most of each score is per-item noise that no
    /// coarse structure (and no recommender) could predict. Training
    /// does the opposite: the score mass concentrates on generalising
    /// structure shared across items. Damping the item-id block (factor
    /// `0.5` quarters its variance share) reproduces that shape without
    /// paying for training, which is what retrieval-recall measurements
    /// should be run against.
    pub fn synthetic_metric_damped(
        n: usize,
        k: usize,
        seed: u64,
        damped: std::ops::Range<usize>,
        factor: f64,
    ) -> Self {
        let mut rng = gmlfm_tensor::seeded_rng(seed);
        let mut v = gmlfm_tensor::init::normal(&mut rng, n, k, 0.0, 0.3);
        let mut v_hat = gmlfm_tensor::init::normal(&mut rng, n, k, 0.0, 0.3);
        let h = Some(gmlfm_tensor::init::normal(&mut rng, 1, k, 0.0, 0.3).into_vec());
        let mut w = gmlfm_tensor::init::normal(&mut rng, 1, n, 0.0, 0.1).into_vec();
        for r in damped {
            for x in v.row_mut(r) {
                *x *= factor;
            }
            for x in v_hat.row_mut(r) {
                *x *= factor;
            }
            w[r] *= factor;
        }
        let q: Vec<f64> = (0..n).map(|r| dot(v_hat.row(r), v_hat.row(r))).collect();
        Self::from_parts(0.1, w, v, SecondOrder::metric(v_hat, q, h, Distance::SquaredEuclidean))
    }

    /// The second-order term of a feature set: [`FrozenModel::pair_term`]
    /// over its pairs `a < b` in position order, allocation-free and
    /// `O(m²·k)`. The one sum every served score takes.
    pub(crate) fn second_order(&self, feats: &[u32]) -> f64 {
        let mut out = 0.0;
        for (p, &a) in feats.iter().enumerate() {
            for &b in &feats[p + 1..] {
                out += self.pair_term(a, b);
            }
        }
        out
    }

    /// The second-order term of one ordered pair through the chunked
    /// kernels: `⟨v_a, v_b⟩` for vanilla FM; `w_ab · D(v̂_a, v̂_b)` for
    /// the metric family, with the weight `(v_a ⊙ v_b)·h` (1 without `h`)
    /// and [`kernel::sq_dist`] as the squared-Euclidean `D` — subtract
    /// before squaring, so near-duplicate embeddings keep their digits;
    /// [`FrozenModel::translated_pair`] for TransFM. Below
    /// [`kernel::LANES`] the kernels are the serial loops, so the term has
    /// [`gmlfm_core::reference`]'s bits there.
    #[inline]
    pub(crate) fn pair_term(&self, a: u32, b: u32) -> f64 {
        let (va, vb) = (self.v.row(a as usize), self.v.row(b as usize));
        match &self.second {
            SecondOrder::Dot => dot(va, vb),
            SecondOrder::Metric { hat, h, distance } => {
                let (vha, vhb) = (hat.v_hat(a as usize), hat.v_hat(b as usize));
                let d = match distance {
                    Distance::SquaredEuclidean => kernel::sq_dist(vha, vhb),
                    _ => distance.eval(vha, vhb),
                };
                match h {
                    Some(h) => kernel::dot3(va, vb, h) * d,
                    None => d,
                }
            }
            SecondOrder::Translated { v_trans } => self.translated_pair(v_trans, a, b),
        }
    }

    /// One ordered TransFM pair: `‖(vᵢ + v'ᵢ) − vⱼ‖²`.
    pub(crate) fn translated_pair(&self, v_trans: &Matrix, fi: u32, fj: u32) -> f64 {
        let vi = self.v.row(fi as usize);
        let ti = v_trans.row(fi as usize);
        let vj = self.v.row(fj as usize);
        vi.iter()
            .zip(ti)
            .zip(vj)
            .map(|((a, t), b)| {
                let diff = a + t - b;
                diff * diff
            })
            .sum::<f64>()
    }
}

impl Scorer for FrozenModel {
    fn scores(&self, instances: &[Instance]) -> Vec<f64> {
        self.scores_with(instances, Parallelism::auto())
    }
}

/// Workspace-wide dot product for the serving paths: the chunked
/// [`kernel::dot`]. Every scoring route (pair terms, cross deltas,
/// probe geometry, stored `q` norms) shares this one definition, so
/// precomputed norms and live scans always agree bit-for-bit.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    kernel::dot(a, b)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gmlfm_tensor::init::normal;
    use gmlfm_tensor::seeded_rng;

    pub(crate) fn random_metric_model(
        n: usize,
        k: usize,
        weighted: bool,
        distance: Distance,
        seed: u64,
    ) -> FrozenModel {
        let mut rng = seeded_rng(seed);
        let v = normal(&mut rng, n, k, 0.0, 0.5);
        let v_hat = normal(&mut rng, n, k, 0.0, 0.5);
        let q: Vec<f64> = (0..n).map(|r| dot(v_hat.row(r), v_hat.row(r))).collect();
        let h = weighted.then(|| normal(&mut rng, 1, k, 0.0, 0.5).into_vec());
        let w = normal(&mut rng, 1, n, 0.0, 0.1).into_vec();
        FrozenModel::from_parts(0.37, w, v, SecondOrder::metric(v_hat, q, h, distance))
    }

    #[test]
    fn packed_table_round_trips_v_hat_and_q() {
        let mut rng = seeded_rng(4);
        let v_hat = normal(&mut rng, 9, 5, 0.0, 0.7);
        let q: Vec<f64> = (0..9).map(|r| dot(v_hat.row(r), v_hat.row(r))).collect();
        let hat = HatQ::new(v_hat.clone(), q.clone());
        assert_eq!(hat.n(), 9);
        assert_eq!(hat.k(), 5);
        for (r, &qr) in q.iter().enumerate() {
            assert_eq!(hat.v_hat(r), v_hat.row(r));
            assert_eq!(hat.q(r), qr);
            let (row_v, row_q) = hat.row(r);
            assert_eq!(row_v, v_hat.row(r));
            assert_eq!(row_q, qr);
        }
        assert_eq!(hat.v_hat_matrix(), v_hat);
        assert_eq!(hat.q_vec(), q);
    }

    /// The served pair sum against the one reference in every mode, with
    /// fewer active features than `k` and more: `to_bits()` equal below
    /// [`kernel::LANES`], where every kernel is the serial loop, and
    /// within 1e-12 relative at and above it.
    #[test]
    fn pair_sum_matches_pairwise_reference_in_every_mode() {
        use Distance::{Chebyshev, Cosine, Manhattan, SquaredEuclidean};
        let small = Instance::new(vec![1, 7, 19, 33], 1.0);
        let large = Instance::new(vec![0, 3, 5, 8, 13, 17, 21, 26, 31, 38], 1.0);
        for k in [3, 4, 5, 6, 7, 8, 16, 17] {
            for seed in 0..10 {
                let mut models = vec![];
                for distance in [SquaredEuclidean, Manhattan, Chebyshev, Cosine] {
                    for weighted in [true, false] {
                        let name = format!("{distance:?} weighted={weighted}");
                        models.push((name, random_metric_model(40, k, weighted, distance, seed)));
                    }
                }
                let mut rng = seeded_rng(100 + seed);
                let v = normal(&mut rng, 40, k, 0.0, 0.4);
                let v_trans = normal(&mut rng, 40, k, 0.0, 0.3);
                let w = normal(&mut rng, 1, 40, 0.0, 0.1).into_vec();
                let dot_fm = FrozenModel::from_parts(-0.2, w.clone(), v.clone(), SecondOrder::Dot);
                let trans_fm = FrozenModel::from_parts(0.3, w, v, SecondOrder::Translated { v_trans });
                models.extend([("dot".into(), dot_fm), ("translated".into(), trans_fm)]);
                for (name, model) in &models {
                    for inst in [&small, &large] {
                        let (got, want) = (model.predict(inst), model.predict_pairwise(inst));
                        let m = inst.feats.len();
                        if k < kernel::LANES {
                            assert_eq!(got.to_bits(), want.to_bits(), "{name} k={k} seed={seed} m={m}");
                        } else {
                            let ok = (got - want).abs() <= 1e-12 * want.abs();
                            assert!(ok, "{name} k={k} seed={seed} m={m}: {got} vs {want}");
                        }
                    }
                }
            }
        }
    }

    /// Near-duplicate embeddings keep their digits in a Score reply: an
    /// unweighted squared-Euclidean model whose `v̂` rows have norm ≈ 10³
    /// and sit `10⁻⁶` and `2·10⁻⁶` (per coordinate) from the context
    /// row. The pair terms are `8·10⁻¹²` and `3.2·10⁻¹¹`; an expanded
    /// `m·u − ‖s‖²` rounds at `ε·10⁶` and can return a negative distance.
    #[test]
    fn near_duplicate_pairs_keep_their_order_and_digits() {
        let k = 8;
        let mut rng = seeded_rng(21);
        let mut v_hat = normal(&mut rng, 3, k, 0.0, 1e3 / (k as f64).sqrt());
        for (r, offset) in [(1, 1e-6), (2, 2e-6)] {
            let shifted: Vec<f64> = v_hat.row(0).iter().map(|x| x + offset).collect();
            v_hat.row_mut(r).copy_from_slice(&shifted);
        }
        let q: Vec<f64> = (0..3).map(|r| dot(v_hat.row(r), v_hat.row(r))).collect();
        let second = SecondOrder::metric(v_hat, q, None, Distance::SquaredEuclidean);
        let model = FrozenModel::from_parts(0.0, vec![0.0; 3], Matrix::zeros(3, k), second);
        let pairs = [Instance::new(vec![0, 1], 1.0), Instance::new(vec![0, 2], 1.0)];
        let served = pairs.each_ref().map(|inst| model.predict(inst));
        let reference = pairs.each_ref().map(|inst| model.predict_pairwise(inst));
        assert!(reference[0] > 0.0 && reference[0] < reference[1], "reference {reference:?}");
        assert!(served[0] < served[1], "served {served:?} against reference {reference:?}");
        for (got, want) in served.iter().zip(&reference) {
            assert!((got - want).abs() <= 1e-9 * want.abs(), "served {got} vs reference {want}");
        }
    }

    #[test]
    fn single_field_has_no_pair_term() {
        let model = random_metric_model(10, 4, true, Distance::SquaredEuclidean, 3);
        let inst = Instance::new(vec![4], 1.0);
        let expected = model.w0 + model.w[4];
        assert!((model.predict(&inst) - expected).abs() < 1e-9);
    }

    #[test]
    fn scorer_matches_predict_across_chunks() {
        let model = random_metric_model(30, 4, true, Distance::SquaredEuclidean, 7);
        let insts: Vec<Instance> = (0..1100)
            .map(|i| Instance::new(vec![i % 30, (i + 7) % 30, (i + 19) % 30], 1.0))
            .collect();
        let batched = model.scores(&insts);
        for (inst, got) in insts.iter().zip(&batched) {
            assert_eq!(*got, model.predict(inst));
        }
    }

    #[test]
    #[should_panic(expected = "|w| != n")]
    fn mismatched_parts_are_rejected() {
        let v = Matrix::zeros(4, 2);
        let _ = FrozenModel::from_parts(0.0, vec![0.0; 3], v, SecondOrder::Dot);
    }
}
