//! Metric-space IVF index: sublinear top-N candidate generation over
//! the packed [`HatQ`] table, with exact re-ranking.
//!
//! The paper's serving-side claim is that a trained GML-FM collapses to
//! decoupled sums over frozen matrices. This module pushes that one
//! step further: for the squared-Euclidean metric modes, a candidate's
//! score against a *fixed context* is an **affine function of a
//! per-item vector** `φ(item)` that does not depend on the context at
//! all:
//!
//! ```text
//! score(item) = ctx_score + ⟨g(ctx), φ(item)⟩
//! ```
//!
//! * weighted metric (Eq. 10/11, transformation weight `h` present) —
//!   `φ = [t₀ | t₁ | t₂ | vec(t₃)]` of dimension `1 + 2k + k²`, with
//!   `t₀ = Σ_f w_f + second-order(item feats)`, `t₁ = Σ_f h⊙v_f`,
//!   `t₂ = Σ_f q_f·(h⊙v_f)`, `t₃ = Σ_f (h⊙v_f) v̂_fᵀ`, and
//!   `g = [1 | b | a | −2·vec(C)]` from the context partial sums
//!   `a = Σ v_i`, `b = Σ q_i v_i`, `C = Σ v_i v̂_iᵀ`;
//! * unweighted metric — `φ = [t₀ | m | Σ q_f | Σ v̂_f]` of dimension
//!   `3 + k` and `g = [1 | u | |ctx| | −2s]` with `s = Σ v̂_i`,
//!   `u = Σ q_i`.
//!
//! That linearisation is what makes an inverted-file (IVF) index sound:
//! cluster the items by a compact clustering embedding, store each
//! cluster's **mean `φ̄_c`**, every member's **deviation norm
//! `‖φ(item) − φ̄_c‖`** and the cluster radius `r_c` (the members' max
//! norm), and both a cluster's and a member's best possible score are
//! bounded by Cauchy–Schwarz:
//!
//! ```text
//! score(item ∈ c) ≤ ctx_score + ⟨g, φ̄_c⟩ + ‖g‖·‖φ(item) − φ̄_c‖
//!                 ≤ ctx_score + ⟨g, φ̄_c⟩ + ‖g‖·r_c
//! ```
//!
//! A query ranks clusters by their centroid score `⟨g, φ̄_c⟩`, visits at
//! most `nprobe` of them best-centroid-first, skips any cluster whose
//! (numerically slackened) bound cannot strictly beat the current heap
//! threshold, skips any *member* whose tighter per-item norm bound
//! cannot either — one multiply against the stored norm, an order of
//! magnitude cheaper than scoring — and re-ranks every surviving member
//! **exactly** through the same [`TopNRanker`] the exhaustive path
//! uses. Returned scores are therefore bitwise the true model scores —
//! only the *candidate set* is approximate, and only through the
//! `nprobe` cap (with `nprobe ≥ n_clusters` the result is item-for-item
//! identical to the exhaustive scan: bound skips are sound, they never
//! drop an item that could have ranked).
//!
//! Modes without the decoupled squared-Euclidean form — vanilla-FM dot,
//! TransFM's translated distance, Manhattan/Chebyshev/cosine — have no
//! affine linearisation here; [`IvfIndex::build`] returns `None` for
//! them and callers fall back to the exact sharded-heap path.

use crate::frozen::{dot, FrozenModel, HatQ, SecondOrder};
use crate::lowp::Precision;
#[allow(unused_imports)] // rustdoc links
use crate::rank::TopNRanker;
use crate::topn::Scan;
use gmlfm_core::Distance;
use gmlfm_par::Parallelism;
use gmlfm_tensor::Matrix;

/// How a top-N request selects its candidates.
///
/// ## Approximation contract
///
/// Whatever the strategy, **returned scores are exact**: every returned
/// `(item, score)` pair comes out of the same delta-scan
/// [`TopNRanker`], bitwise identical to the exhaustive path's scores.
/// The strategies differ only in *which candidates are considered*:
///
/// * [`Exact`](RetrievalStrategy::Exact) scores every surviving
///   candidate — the list scan of [`crate::scan_top_n`], item-for-item
///   identical to a full sort at every thread count.
/// * [`Ivf`](RetrievalStrategy::Ivf) visits at most `nprobe` item
///   clusters (best upper bound first) and scores only their members,
///   so items whose cluster was not probed can be missed — the
///   *candidate set* is approximate, with recall measured as
///   `bench_e2e`'s `serve.index.recall_at_10`. `nprobe = None` uses the
///   index's built-in default; `nprobe ≥ n_clusters` makes the result
///   exactly equal to [`Exact`](RetrievalStrategy::Exact). Requests an
///   index cannot serve (candidate-restricted requests, catalogs below
///   the index's `min_candidates`, models without the metric
///   linearisation) fall back to [`Exact`](RetrievalStrategy::Exact)
///   automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetrievalStrategy {
    /// Score every candidate (sharded bounded heaps) — exact candidate
    /// set, exact scores.
    #[default]
    Exact,
    /// IVF index retrieval: probe the best-bounded item clusters and
    /// re-rank their members exactly.
    Ivf {
        /// Maximum clusters to visit; `None` uses the index default.
        nprobe: Option<usize>,
    },
}

/// Per-item feature access the index builds from and scans with —
/// implemented by `gmlfm_service::Catalog` and, for tests and custom
/// pipelines, by `Vec<Vec<u32>>`.
pub trait ItemFeatureSource: Sync {
    /// Number of items (ids `0..item_count`).
    fn item_count(&self) -> usize;

    /// The item's feature group, in item-slot order.
    ///
    /// # Panics
    /// May panic when `item >= item_count()`.
    fn features_of(&self, item: u32) -> &[u32];

    /// Per-slot `(min, max)` feature id over the whole catalogue, or
    /// `None` when unknown (empty catalogue, ragged groups). The block
    /// scan uses this to decide which slots are compact attribute
    /// fields worth materialising dense delta tables for
    /// ([`TopNRanker::score_block`]); `None` only costs that
    /// optimisation. The default implementation scans every group —
    /// `O(items · slots)` — on every call, and the block scan calls once
    /// per ranking request: a source that serves requests should compute
    /// the ranges once and hand back the stored value (as
    /// `gmlfm_service::Catalog` does, where it is assembled).
    fn slot_ranges(&self) -> Option<Vec<(u32, u32)>> {
        let n = self.item_count();
        if n == 0 {
            return None;
        }
        let mut ranges: Vec<(u32, u32)> = self.features_of(0).iter().map(|&f| (f, f)).collect();
        for item in 1..n as u32 {
            let feats = self.features_of(item);
            if feats.len() != ranges.len() {
                return None;
            }
            for (r, &f) in ranges.iter_mut().zip(feats) {
                r.0 = r.0.min(f);
                r.1 = r.1.max(f);
            }
        }
        Some(ranges)
    }
}

impl ItemFeatureSource for Vec<Vec<u32>> {
    fn item_count(&self) -> usize {
        self.len()
    }

    fn features_of(&self, item: u32) -> &[u32] {
        &self[item as usize]
    }
}

/// Build-time knobs of [`IvfIndex::build`]. `Default` is the serving
/// configuration the benches and the engine use.
#[derive(Debug, Clone)]
pub struct IvfBuildOptions {
    /// Number of clusters; `None` picks `4·√n` clamped to `[4, 2048]`.
    /// Denser than the classic `√n` because φ clusters on a handful of
    /// shared attribute fields: with fewer clusters than attribute
    /// combinations, combinations merge and the centroid ordering
    /// degrades measurably (recall at a fixed scan budget drops).
    pub clusters: Option<usize>,
    /// Default `nprobe` stored in the index; `None` sizes it from an
    /// item-scan budget of `max(2048, n/12)` items — roughly 8% of a
    /// large catalogue, proportionally deeper on small ones where the
    /// top-N tail is relatively fatter.
    pub nprobe: Option<usize>,
    /// Whole-catalogue requests over fewer surviving candidates than
    /// this serve exactly — below it the index bookkeeping costs more
    /// than it saves.
    pub min_candidates: usize,
}

impl Default for IvfBuildOptions {
    fn default() -> Self {
        Self { clusters: None, nprobe: None, min_candidates: 4096 }
    }
}

/// Lloyd iterations of the sample k-means.
const KMEANS_ITERS: usize = 4;
/// Sample size per cluster for the k-means training sample.
const SAMPLE_PER_CLUSTER: usize = 8;

/// Which affine linearisation the index was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Unweighted squared-Euclidean metric (`w_ij = 1`): `φ` of
    /// dimension `3 + k`.
    Unweighted,
    /// Weighted squared-Euclidean metric (Eq. 10/11): `φ` of dimension
    /// `1 + 2k + k²`.
    Weighted,
}

impl IndexKind {
    /// Stable name (artifact serialisation).
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Unweighted => "unweighted",
            IndexKind::Weighted => "weighted",
        }
    }

    /// Parses [`IndexKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "unweighted" => Some(IndexKind::Unweighted),
            "weighted" => Some(IndexKind::Weighted),
            _ => None,
        }
    }

    /// `φ` dimension for embedding size `k`.
    pub fn phi_dim(self, k: usize) -> usize {
        match self {
            IndexKind::Unweighted => 3 + k,
            IndexKind::Weighted => 1 + 2 * k + k * k,
        }
    }

    /// Clustering-embedding dimension for embedding size `k` (compact —
    /// the `k²` block of the weighted `φ` is summarised by its
    /// marginals, so the k-means passes stay cheap).
    fn psi_dim(self, k: usize) -> usize {
        match self {
            IndexKind::Unweighted => 3 + k,
            IndexKind::Weighted => 2 * k + 2,
        }
    }

    /// The linearisation a model supports, when it has one.
    pub fn of_model(model: &FrozenModel) -> Option<Self> {
        MetricTables::of(model).map(|tables| tables.kind())
    }
}

/// The model tables behind a supported linearisation, resolved once per
/// index entry point. Holding the resolved variant (rather than an
/// [`IndexKind`] tag looked up against the model again) makes the φ/ψ/g
/// kernels exhaustive matches: the weighted arms carry `h` by
/// construction, with no "weighted kind implies h" re-assertion.
#[derive(Clone, Copy)]
enum MetricTables<'m> {
    /// Unweighted squared-Euclidean metric (`w_ij = 1`).
    Unweighted { hat: &'m HatQ },
    /// Weighted squared-Euclidean metric (Eq. 10/11).
    Weighted { hat: &'m HatQ, h: &'m [f64] },
}

impl<'m> MetricTables<'m> {
    /// The metric tables of a model the index supports, or `None` when
    /// the model has no squared-Euclidean linearisation (callers then
    /// serve exactly).
    fn of(model: &'m FrozenModel) -> Option<Self> {
        match model.second_order_kind() {
            SecondOrder::Metric { distance: Distance::SquaredEuclidean, hat, h } => {
                Some(match h.as_deref() {
                    Some(h) => MetricTables::Weighted { hat, h },
                    None => MetricTables::Unweighted { hat },
                })
            }
            _ => None,
        }
    }

    /// The serialisable kind tag of these tables.
    fn kind(&self) -> IndexKind {
        match self {
            MetricTables::Unweighted { .. } => IndexKind::Unweighted,
            MetricTables::Weighted { .. } => IndexKind::Weighted,
        }
    }
}

/// The coarse item index: per-cluster member lists plus the `φ`-space
/// mean and radius that bound every member's possible score. See the
/// [module docs](self) for the math and [`IvfIndex::search`] for the
/// query path.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    kind: IndexKind,
    k: usize,
    n_items: usize,
    /// Member item ids per cluster, ascending. Every item appears in
    /// exactly one cluster; clusters are non-empty by construction
    /// (empty ones are dropped at build).
    members: Vec<Vec<u32>>,
    /// Per-member deviation norms `‖φ(item) − φ̄_c‖`, parallel to
    /// `members` — the per-item Cauchy–Schwarz bound the scan skips by.
    member_norms: Vec<Vec<f64>>,
    /// Per-cluster mean `φ̄_c`, one row per cluster.
    phi_mean: Matrix,
    /// Per-cluster radius `r_c = max_{item ∈ c} ‖φ(item) − φ̄_c‖` (the
    /// members' max deviation norm, kept denormalised for the
    /// cluster-level prune).
    radius: Vec<f64>,
    default_nprobe: usize,
    min_candidates: usize,
}

impl IvfIndex {
    /// Whether a model has the affine linearisation this index needs
    /// (squared-Euclidean metric second order, weighted or not).
    pub fn supports(model: &FrozenModel) -> bool {
        IndexKind::of_model(model).is_some()
    }

    /// Builds the index over every item of `items`, or `None` when the
    /// model has no metric linearisation (callers then serve exactly).
    ///
    /// The build is deterministic — sampling is strided, k-means
    /// initialisation is spread over the sample, and the parallel
    /// assignment pass is a pure per-item function — so the same model
    /// + items + options produce the same index at every thread count.
    pub fn build<S: ItemFeatureSource + ?Sized>(
        model: &FrozenModel,
        items: &S,
        opts: &IvfBuildOptions,
        par: Parallelism,
    ) -> Option<IvfIndex> {
        Self::build_with(model, items, opts, par, sample_kmeans)
    }

    /// [`IvfIndex::build`] over a given sample k-means (`sample`,
    /// cluster count) → centroids; the tests pass the exhaustive Lloyd
    /// loop the pruned one must reproduce.
    fn build_with<S: ItemFeatureSource + ?Sized>(
        model: &FrozenModel,
        items: &S,
        opts: &IvfBuildOptions,
        par: Parallelism,
        kmeans: fn(&Matrix, usize) -> Matrix,
    ) -> Option<IvfIndex> {
        let tables = MetricTables::of(model)?;
        let kind = tables.kind();
        let n = items.item_count();
        if n == 0 {
            return None;
        }
        let k = model.k();
        let psi_dim = kind.psi_dim(k);
        let phi_dim = kind.phi_dim(k);
        let n_clusters = opts
            .clusters
            .unwrap_or_else(|| ((4.0 * (n as f64).sqrt()).round() as usize).clamp(4, 2048))
            .clamp(1, n);
        // Default probe depth from an item-scan budget: the per-item
        // noise component of a score is unclusterable, so small
        // catalogues need a proportionally deeper probe than large ones
        // (the top-N tail thins as n grows while cluster structure
        // stays put).
        let default_nprobe = opts
            .nprobe
            .unwrap_or_else(|| {
                let budget_items = (n / 12).max(2048);
                (budget_items * n_clusters).div_ceil(n)
            })
            .clamp(1, n_clusters);

        // 1. Strided ψ sample (deterministic, no RNG: item ids carry no
        //    order of their own, so a stride is as representative as a
        //    draw).
        let sample_n = (SAMPLE_PER_CLUSTER * n_clusters).max(1024).min(n);
        let mut sample = Matrix::zeros(sample_n, psi_dim);
        for i in 0..sample_n {
            let item = (i as u64 * n as u64 / sample_n as u64) as u32;
            psi_into(model, &tables, items.features_of(item), sample.row_mut(i));
        }

        // 2. Sample k-means (see `sample_kmeans`).
        let centroids = kmeans(&sample, n_clusters);

        // 3. Group the final centroids so the full assignment pass is
        //    two-level: nearest-of-G groups, then nearest centroid
        //    within the best two groups — `O(√K)` per item instead of
        //    `O(K)`.
        let groups = CentroidGroups::new(&centroids);

        // 4. Full assignment pass, fanned across `par` threads. Pure per
        //    item, so the result is identical at every thread count.
        let assignments: Vec<u32> = gmlfm_par::par_blocks(par, n, |range| {
            let mut psi = vec![0.0f64; psi_dim];
            range
                .map(|item| {
                    psi_into(model, &tables, items.features_of(item as u32), &mut psi);
                    groups.two_level_nearest(&psi, &centroids) as u32
                })
                .collect()
        });

        // 5. φ statistics: one pass for the per-cluster mean, one for
        //    the radius. Serial (cheap next to assignment) and in item
        //    order, so they are trivially deterministic.
        let mut counts = vec![0usize; n_clusters];
        let mut mean = Matrix::zeros(n_clusters, phi_dim);
        let mut phi = vec![0.0f64; phi_dim];
        for (item, &a) in assignments.iter().enumerate() {
            let c = a as usize;
            counts[c] += 1;
            phi_into(model, &tables, items.features_of(item as u32), &mut phi);
            axpy_row(mean.row_mut(c), &phi);
        }
        for (c, &count) in counts.iter().enumerate() {
            if count > 0 {
                let inv = 1.0 / count as f64;
                for slot in mean.row_mut(c) {
                    *slot *= inv;
                }
            }
        }
        // Member lists sized from the counts: grown by doubling, their
        // transient blocks left the heap too fragmented for the next
        // snapshot's tables, which then grew it by a table's size.
        let mut radius = vec![0.0f64; n_clusters];
        let mut members: Vec<Vec<u32>> = counts.iter().map(|&count| Vec::with_capacity(count)).collect();
        let mut member_norms: Vec<Vec<f64>> = counts.iter().map(|&count| Vec::with_capacity(count)).collect();
        for (item, &a) in assignments.iter().enumerate() {
            let c = a as usize;
            phi_into(model, &tables, items.features_of(item as u32), &mut phi);
            let r = sqdist(&phi, mean.row(c)).sqrt();
            if r > radius[c] {
                radius[c] = r;
            }
            members[c].push(item as u32);
            member_norms[c].push(r);
        }

        // 6. Drop empty clusters (their bounds would be meaningless and
        //    they would waste nprobe slots).
        let keep: Vec<usize> = (0..n_clusters).filter(|&c| counts[c] > 0).collect();
        let mut phi_mean = Matrix::zeros(keep.len(), phi_dim);
        let mut kept_radius = Vec::with_capacity(keep.len());
        let mut kept_members = Vec::with_capacity(keep.len());
        let mut kept_norms = Vec::with_capacity(keep.len());
        for (slot, &c) in keep.iter().enumerate() {
            phi_mean.row_mut(slot).copy_from_slice(mean.row(c));
            kept_radius.push(radius[c]);
            kept_members.push(std::mem::take(&mut members[c]));
            kept_norms.push(std::mem::take(&mut member_norms[c]));
        }

        Some(IvfIndex {
            kind,
            k,
            n_items: n,
            members: kept_members,
            member_norms: kept_norms,
            phi_mean,
            radius: kept_radius,
            default_nprobe: default_nprobe.min(keep.len().max(1)),
            min_candidates: opts.min_candidates,
        })
    }

    /// Reassembles an index from its serialised parts (artifact load).
    /// `assignments[item]` is the item's cluster and `item_norms[item]`
    /// its deviation norm `‖φ(item) − φ̄_c‖`; member lists are rebuilt
    /// in ascending item order and each cluster's radius is re-derived
    /// as its members' max norm (so the two bound tables cannot drift
    /// apart through serialisation).
    pub fn from_parts(
        kind: &str,
        k: usize,
        phi_mean: Matrix,
        item_norms: Vec<f64>,
        assignments: Vec<u32>,
        default_nprobe: usize,
        min_candidates: usize,
    ) -> Result<IvfIndex, String> {
        let kind = IndexKind::from_name(kind).ok_or_else(|| format!("unknown index kind '{kind}'"))?;
        let n_clusters = phi_mean.rows();
        if phi_mean.cols() != kind.phi_dim(k) {
            return Err(format!(
                "index mean width {} != {} for kind '{}' at k={k}",
                phi_mean.cols(),
                kind.phi_dim(k),
                kind.name()
            ));
        }
        if item_norms.len() != assignments.len() {
            return Err(format!("{} item norms for {} assignments", item_norms.len(), assignments.len()));
        }
        if item_norms.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return Err("index item norm is not a finite non-negative number".into());
        }
        if default_nprobe == 0 {
            return Err("index default_nprobe must be >= 1".into());
        }
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_clusters];
        let mut member_norms: Vec<Vec<f64>> = vec![Vec::new(); n_clusters];
        let mut radius = vec![0.0f64; n_clusters];
        for (item, (&c, &norm)) in assignments.iter().zip(&item_norms).enumerate() {
            if c as usize >= n_clusters {
                return Err(format!("item {item} assigned to cluster {c} of {n_clusters}"));
            }
            members[c as usize].push(item as u32);
            member_norms[c as usize].push(norm);
            if norm > radius[c as usize] {
                radius[c as usize] = norm;
            }
        }
        Ok(IvfIndex {
            kind,
            k,
            n_items: assignments.len(),
            members,
            member_norms,
            phi_mean,
            radius,
            default_nprobe,
            min_candidates,
        })
    }

    /// The linearisation this index was built for.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Embedding size `k` of the model this index was built from.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of indexed items.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of (non-empty) clusters.
    pub fn n_clusters(&self) -> usize {
        self.members.len()
    }

    /// Clusters visited by default when a request does not pin `nprobe`.
    pub fn default_nprobe(&self) -> usize {
        self.default_nprobe
    }

    /// Whole-catalogue requests over fewer surviving candidates than
    /// this fall back to the exact path.
    pub fn min_candidates(&self) -> usize {
        self.min_candidates
    }

    /// Per-cluster `φ` means (artifact serialisation).
    pub fn phi_mean(&self) -> &Matrix {
        &self.phi_mean
    }

    /// Per-cluster radii (artifact serialisation).
    pub fn radius(&self) -> &[f64] {
        &self.radius
    }

    /// `assignments[item] = cluster`, the serialisable inverse of the
    /// member lists.
    pub fn assignments(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.n_items];
        for (c, members) in self.members.iter().enumerate() {
            for &item in members {
                out[item as usize] = c as u32;
            }
        }
        out
    }

    /// `item_norms[item] = ‖φ(item) − φ̄_c‖`, the per-item deviation
    /// norms in item order (artifact serialisation, parallel to
    /// [`IvfIndex::assignments`]).
    pub fn item_norms(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.n_items];
        for (members, norms) in self.members.iter().zip(&self.member_norms) {
            for (&item, &norm) in members.iter().zip(norms) {
                out[item as usize] = norm;
            }
        }
        out
    }

    /// Checks the index matches a serving model and catalogue size —
    /// what snapshot installation validates, so [`IvfIndex::search`]
    /// can assume compatibility.
    pub fn compatible_with(&self, model: &FrozenModel, n_items: usize) -> Result<(), String> {
        match IndexKind::of_model(model) {
            Some(kind) if kind == self.kind => {}
            Some(kind) => {
                return Err(format!("index kind '{}' vs model kind '{}'", self.kind.name(), kind.name()))
            }
            None => return Err("model has no metric linearisation for the index".into()),
        }
        if model.k() != self.k {
            return Err(format!("index k={} vs model k={}", self.k, model.k()));
        }
        if n_items != self.n_items {
            return Err(format!("index over {} items vs catalog of {n_items}", self.n_items));
        }
        Ok(())
    }

    /// Top-`n` retrieval through the index — the probe-list source of
    /// the scan driver ([`crate::topn`]): rank clusters by their
    /// centroid score, visit at most `nprobe` of them (best first),
    /// prune clusters and members whose slackened Cauchy–Schwarz bound
    /// cannot strictly beat the heap threshold read at the cluster's
    /// start, and score each cluster's survivors as one block
    /// ([`TopNRanker::score_block`], the list scan's entry and its
    /// attribute tables) — skipping items for which `skip` returns
    /// `true` (exclusions, seen items).
    ///
    /// The probe list is scanned as one shard on the calling thread:
    /// it is ordered best-centroid first, so a contiguous split would
    /// hand the last shard the worst clusters and an empty heap, which
    /// barely prunes — slower than serial, not faster.
    ///
    /// Results follow the retrieval total order ([`crate::rank_cmp`]):
    /// pruning is sound (a pruned cluster or member cannot enter the
    /// final top `n`, whenever the threshold rose), and scores are
    /// bitwise [`TopNRanker::score`]'s. With `nprobe >= n_clusters()`
    /// the result is item-for-item the exhaustive scan over the
    /// non-skipped items.
    #[allow(clippy::too_many_arguments)]
    pub fn search<S: ItemFeatureSource + ?Sized>(
        &self,
        model: &FrozenModel,
        items: &S,
        template: &[u32],
        item_slots: &[usize],
        n: usize,
        nprobe: usize,
        skip: &(impl Fn(u32) -> bool + Sync),
    ) -> Vec<(u32, f64)> {
        debug_assert!(self.compatible_with(model, items.item_count()).is_ok());
        if n == 0 || self.members.is_empty() {
            return Vec::new();
        }
        // Unreachable through `ModelServer` (snapshot installation
        // checks `compatible_with`, covered by the debug assertion
        // above); a direct caller pairing the index with a non-metric
        // model gets the empty ranking, not a panic.
        let Some(tables) = MetricTables::of(model) else {
            return Vec::new();
        };
        let probe = self.probe_order(model, &tables, template, item_slots, nprobe);
        let ctx_score = probe.ctx_score;
        let (precision, par) = (Precision::F64, Parallelism::serial());
        let scan = Scan { model, items, template, item_slots, n, precision, par };
        scan.run(&probe.clusters, |scanner, clusters, heap| {
            let (mut ids, mut scores) = (Vec::new(), Vec::new());
            for &(c, mean_score, ub) in clusters {
                let threshold = heap.threshold().map(|(_, threshold)| threshold);
                if let Some(threshold) = threshold {
                    // Slackened Cauchy–Schwarz prune: only a *strict*
                    // miss is safe — at equality a member tying the
                    // threshold score could still win on item id.
                    if ctx_score + ub + bound_slack(ctx_score, ub) < threshold {
                        continue;
                    }
                }
                ids.clear();
                for (&item, &norm) in self.members[c].iter().zip(&self.member_norms[c]) {
                    if let Some(threshold) = threshold {
                        // The member's own norm bound — one multiply
                        // against the stored deviation norm, far
                        // cheaper than the delta-scan score it saves.
                        // Strict for the same reason as the cluster's.
                        let item_ub = mean_score + probe.norm_g * norm;
                        if ctx_score + item_ub + bound_slack(ctx_score, item_ub) < threshold {
                            continue;
                        }
                    }
                    if !skip(item) {
                        ids.push(item);
                    }
                }
                scores.clear();
                scanner.score_block(items, &ids, &mut scores);
                for (&item, &score) in ids.iter().zip(&scores) {
                    heap.push(item, score);
                }
            }
        })
    }

    /// The probe list for a query context: the `nprobe` clusters with
    /// the best **centroid score** `⟨g, φ̄_c⟩` (ties by cluster index),
    /// selected in linear time and only then sorted, best first — the
    /// classic IVF visiting order. The comparator is a total order, so
    /// the list is exactly the first `nprobe` of a full sort.
    /// Each entry also carries the Cauchy–Schwarz upper bound
    /// `⟨g, φ̄_c⟩ + ‖g‖·r_c` for threshold pruning during the scan (the
    /// bound is too radius-dominated to *rank* by, but sound to *prune*
    /// by).
    fn probe_order(
        &self,
        model: &FrozenModel,
        tables: &MetricTables<'_>,
        template: &[u32],
        item_slots: &[usize],
        nprobe: usize,
    ) -> ProbeList {
        let ranker = model.ranker(template, item_slots);
        let ctx_score = ranker.context_score();
        let g = query_vector(model, tables, ranker.context_features());
        let norm_g = dot(&g, &g).sqrt();
        let mut clusters: Vec<(usize, f64, f64)> = (0..self.members.len())
            .map(|c| {
                let mean_score = dot(&g, self.phi_mean.row(c));
                (c, mean_score, mean_score + norm_g * self.radius[c])
            })
            .collect();
        let by_centroid =
            |a: &(usize, f64, f64), b: &(usize, f64, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        // `search` never probes an index without clusters.
        let keep = nprobe.clamp(1, clusters.len());
        clusters.select_nth_unstable_by(keep - 1, by_centroid);
        clusters.truncate(keep);
        clusters.sort_unstable_by(by_centroid);
        ProbeList { ctx_score, norm_g, clusters }
    }
}

/// A query's cluster visiting plan.
struct ProbeList {
    ctx_score: f64,
    /// `‖g‖`, scaling the stored deviation norms into score bounds.
    norm_g: f64,
    /// `(cluster, centroid score ⟨g, φ̄_c⟩, upper bound on ⟨g, φ⟩)`,
    /// best centroid score first.
    clusters: Vec<(usize, f64, f64)>,
}

/// Numerical slack added to a cluster's score bound before the
/// threshold comparison: the bound is computed through a different
/// float expression than the ranker's exact scores, so a razor-thin
/// margin must not prune. `1e-9` relative is orders of magnitude above
/// the re-association error of these sums and orders of magnitude below
/// any score gap that matters.
///
/// Sign-soundness: the slack is built from *absolute values*, so it is
/// strictly positive whatever the signs of `ctx_score` and `ub` — and
/// it is always *added to the prune side* of the strict `<` test
/// (`bound + slack < threshold` prunes). Adding a positive quantity to
/// the candidate's upper bound can only make pruning rarer, never
/// admit a wrong prune; in particular an all-negative score landscape
/// (`ctx_score`, `ub`, and `threshold` all `< 0`) widens the bound
/// toward zero exactly as the all-positive case widens it away from
/// it. Pinned by `all_negative_scores_probe_matches_exhaustive_scan`.
fn bound_slack(ctx_score: f64, ub: f64) -> f64 {
    1e-9 * (1.0 + ctx_score.abs() + ub.abs())
}

/// The item-side linearisation `φ(item)` (see the [module docs](self)),
/// written into `out` (length `tables.kind().phi_dim(k)`).
fn phi_into(model: &FrozenModel, tables: &MetricTables<'_>, item_feats: &[u32], out: &mut [f64]) {
    out.fill(0.0);
    let mut t0 = model.second_order(item_feats);
    for &f in item_feats {
        t0 += model.w[f as usize];
    }
    out[0] = t0;
    let k = model.k();
    match tables {
        MetricTables::Unweighted { hat } => {
            out[1] = item_feats.len() as f64;
            for &f in item_feats {
                let (vhf, qf) = hat.row(f as usize);
                out[2] += qf;
                for (slot, &vh) in out[3..].iter_mut().zip(vhf) {
                    *slot += vh;
                }
            }
        }
        MetricTables::Weighted { hat, h } => {
            let (t1, rest) = out[1..].split_at_mut(k);
            let (t2, t3) = rest.split_at_mut(k);
            for &f in item_feats {
                let vf = model.v.row(f as usize);
                let (vhf, qf) = hat.row(f as usize);
                for r in 0..k {
                    let hv = h[r] * vf[r];
                    t1[r] += hv;
                    t2[r] += qf * hv;
                    for (slot, &vh) in t3[r * k..(r + 1) * k].iter_mut().zip(vhf) {
                        *slot += hv * vh;
                    }
                }
            }
        }
    }
}

/// The compact clustering embedding `ψ(item)`: the weighted kind keeps
/// the `k²` outer-product block only through its marginals
/// (`Σ h⊙v_f`, `Σ v̂_f`), which preserves the shared-attribute
/// structure clustering feeds on at a fraction of the k-means cost.
fn psi_into(model: &FrozenModel, tables: &MetricTables<'_>, item_feats: &[u32], out: &mut [f64]) {
    match tables {
        MetricTables::Unweighted { .. } => phi_into(model, tables, item_feats, out),
        MetricTables::Weighted { hat, h } => {
            out.fill(0.0);
            let k = model.k();
            let mut t0 = model.second_order(item_feats);
            for &f in item_feats {
                t0 += model.w[f as usize];
                let vf = model.v.row(f as usize);
                let (vhf, qf) = hat.row(f as usize);
                for r in 0..k {
                    out[r] += h[r] * vf[r];
                    out[k + r] += vhf[r];
                }
                out[2 * k] += qf;
            }
            out[2 * k + 1] = t0;
        }
    }
}

/// The context-side query vector `g(ctx)` pairing with `φ` (see the
/// [module docs](self)).
fn query_vector(model: &FrozenModel, tables: &MetricTables<'_>, ctx: &[u32]) -> Vec<f64> {
    let k = model.k();
    let mut g = vec![0.0f64; tables.kind().phi_dim(k)];
    g[0] = 1.0;
    match tables {
        MetricTables::Unweighted { hat } => {
            let mut u = 0.0;
            for &f in ctx {
                let (vhf, qf) = hat.row(f as usize);
                u += qf;
                for (slot, &vh) in g[3..].iter_mut().zip(vhf) {
                    *slot += -2.0 * vh;
                }
            }
            g[1] = u;
            g[2] = ctx.len() as f64;
        }
        MetricTables::Weighted { hat, .. } => {
            let (a, b, c) = metric_partials(model, ctx, hat);
            g[1..1 + k].copy_from_slice(&b);
            g[1 + k..1 + 2 * k].copy_from_slice(&a);
            for r in 0..k {
                for (slot, &cv) in g[1 + 2 * k + r * k..1 + 2 * k + (r + 1) * k].iter_mut().zip(c.row(r)) {
                    *slot = -2.0 * cv;
                }
            }
        }
    }
    g
}

/// The Eq. 10/11 partial sums over the context features: `a = Σ v_f`,
/// `b = Σ q_f v_f`, `C = Σ v_f v̂_fᵀ`.
fn metric_partials(model: &FrozenModel, ctx: &[u32], hat: &HatQ) -> (Vec<f64>, Vec<f64>, Matrix) {
    let k = model.k();
    let mut a = vec![0.0; k];
    let mut b = vec![0.0; k];
    let mut c = Matrix::zeros(k, k);
    for &f in ctx {
        let f = f as usize;
        let vf = model.v.row(f);
        let (vhf, qf) = hat.row(f);
        for d in 0..k {
            a[d] += vf[d];
            b[d] += qf * vf[d];
        }
        for (r, &vfr) in vf.iter().enumerate() {
            if vfr == 0.0 {
                continue;
            }
            let c_row = c.row_mut(r);
            for (slot, &vh) in c_row.iter_mut().zip(vhf) {
                *slot += vfr * vh;
            }
        }
    }
    (a, b, c)
}

fn sqdist(a: &[f64], b: &[f64]) -> f64 {
    crate::kernel::sq_dist(a, b)
}

fn axpy_row(acc: &mut [f64], row: &[f64]) {
    crate::kernel::axpy(1.0, row, acc);
}

/// Nearest centroid among `candidates` by squared distance; ties keep
/// the first (lowest) candidate in iteration order, a NaN distance
/// never wins, and `(0, +∞)` comes back when nothing is below `+∞`.
/// Over all centroids it is the oracle [`CentroidGroups::nearest`]
/// reproduces.
fn nearest(point: &[f64], centroids: &Matrix, candidates: impl IntoIterator<Item = usize>) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for c in candidates {
        let d = sqdist(point, centroids.row(c));
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Sample indices ordered farthest-from-their-centroid first (reseed
/// order for empty clusters); ties by ascending index.
fn farthest_order(dist: &[f64]) -> impl Iterator<Item = usize> {
    let mut order: Vec<usize> = (0..dist.len()).collect();
    order.sort_by(|&a, &b| dist[b].total_cmp(&dist[a]).then(a.cmp(&b)));
    order.into_iter()
}

/// Lloyd k-means over the ψ sample: centroids spread over the sample,
/// [`KMEANS_ITERS`] steps, empty clusters reseeded to the farthest
/// sample point. Each step searches its [`CentroidGroups`] from the
/// point's previous assignment ([`CentroidGroups::nearest`]): the
/// exhaustive scan's assignments and distances, bit for bit, at a
/// fraction of its distance evaluations.
fn sample_kmeans(sample: &Matrix, n_clusters: usize) -> Matrix {
    let (sample_n, psi_dim) = sample.shape();
    let mut centroids = Matrix::zeros(n_clusters, psi_dim);
    for c in 0..n_clusters {
        centroids.row_mut(c).copy_from_slice(sample.row(c * sample_n / n_clusters));
    }
    let mut assign = vec![0usize; sample_n];
    let mut dist = vec![0.0f64; sample_n];
    let mut counts = vec![0usize; n_clusters];
    let mut sums = Matrix::zeros(n_clusters, psi_dim);
    let mut visit = Vec::new();
    for _ in 0..KMEANS_ITERS {
        let groups = CentroidGroups::new(&centroids);
        for (i, (a, d)) in assign.iter_mut().zip(&mut dist).enumerate() {
            (*a, *d) = groups.nearest(sample.row(i), &centroids, *a, &mut visit);
        }
        counts.fill(0);
        sums.fill_zero();
        for (i, &a) in assign.iter().enumerate() {
            counts[a] += 1;
            axpy_row(sums.row_mut(a), sample.row(i));
        }
        // Farthest-point reseed for empty clusters: deterministic
        // (max distance, ties to the lowest sample index), ordered at
        // the first empty cluster only.
        let mut reseed_from = None;
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                if let Some(i) = reseed_from.get_or_insert_with(|| farthest_order(&dist)).next() {
                    centroids.row_mut(c).copy_from_slice(sample.row(i));
                }
                continue;
            }
            let inv = 1.0 / count as f64;
            let row = centroids.row_mut(c);
            for (slot, &s) in row.iter_mut().zip(sums.row(c)) {
                *slot = s * inv;
            }
        }
    }
    centroids
}

/// Mini k-means over the centroid vectors themselves: `n_groups` group
/// centroids plus each group's member-centroid list, ascending.
fn group_centroids(centroids: &Matrix, n_groups: usize) -> (Matrix, Vec<Vec<usize>>) {
    let (n, dim) = centroids.shape();
    let mut group_c = Matrix::zeros(n_groups, dim);
    for gx in 0..n_groups {
        group_c.row_mut(gx).copy_from_slice(centroids.row(gx * n / n_groups));
    }
    let mut assign = vec![0usize; n];
    for _ in 0..4 {
        for (i, slot) in assign.iter_mut().enumerate() {
            *slot = nearest(centroids.row(i), &group_c, 0..n_groups).0;
        }
        let mut counts = vec![0usize; n_groups];
        let mut sums = Matrix::zeros(n_groups, dim);
        for i in 0..n {
            counts[assign[i]] += 1;
            axpy_row(sums.row_mut(assign[i]), centroids.row(i));
        }
        for (gx, &count) in counts.iter().enumerate() {
            if count > 0 {
                let inv = 1.0 / count as f64;
                let row = group_c.row_mut(gx);
                for (slot, &s) in row.iter_mut().zip(sums.row(gx)) {
                    *slot = s * inv;
                }
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
    for (i, &gx) in assign.iter().enumerate() {
        groups[gx].push(i);
    }
    (group_c, groups)
}

/// The centroids in `⌈√K⌉` groups ([`group_centroids`]), with each
/// centroid's distance to its group's centre: the coarse level of the
/// assignment pass ([`CentroidGroups::two_level_nearest`]) and the
/// triangle-inequality bounds of the Lloyd step
/// ([`CentroidGroups::nearest`]).
struct CentroidGroups {
    /// Group centres `m_g`, one row per group.
    centres: Matrix,
    /// Each group's centroid ids, ascending.
    members: Vec<Vec<usize>>,
    /// `‖c − m_g‖`, parallel to `members`.
    spread: Vec<Vec<f64>>,
    /// Per group, its members' largest `spread` — `+∞` when one is
    /// not finite, which turns the group's prune off.
    radius: Vec<f64>,
}

impl CentroidGroups {
    fn new(centroids: &Matrix) -> Self {
        let n = centroids.rows();
        let n_groups = ((n as f64).sqrt().ceil() as usize).clamp(1, n);
        let (centres, members) = group_centroids(centroids, n_groups);
        Self::around(centroids, centres, members)
    }

    /// `members[g]`, ascending centroid ids, around the given centres —
    /// any centres: the bounds do not need them to be the groups'
    /// means.
    fn around(centroids: &Matrix, centres: Matrix, members: Vec<Vec<usize>>) -> Self {
        let spread: Vec<Vec<f64>> = members
            .iter()
            .enumerate()
            .map(|(g, group)| {
                group.iter().map(|&c| sqdist(centroids.row(c), centres.row(g)).sqrt()).collect()
            })
            .collect();
        let radius = spread
            .iter()
            .map(|group| {
                group
                    .iter()
                    .fold(0.0f64, |r, &s| if s.is_finite() { r.max(s) } else { f64::INFINITY })
            })
            .collect();
        CentroidGroups { centres, members, spread, radius }
    }

    /// Two-level nearest-centroid lookup: nearest of the group centres
    /// first, then an exact search within the two best groups' members.
    /// Approximate at group boundaries — harmless here, because the
    /// cluster bounds are computed from the *actual* assignment. Its
    /// member scans stay unpruned: from no near-best start (the Lloyd
    /// step has its hint), the annulus bound `|‖x − m_g‖ − ‖c − m_g‖|`
    /// still left ≈ 95 distances per item on a 300k-item catalogue and
    /// saved no measurable time.
    fn two_level_nearest(&self, point: &[f64], centroids: &Matrix) -> usize {
        let n_groups = self.centres.rows();
        if n_groups <= 2 {
            return nearest(point, centroids, 0..centroids.rows()).0;
        }
        let (mut g1, mut d1) = (0usize, f64::INFINITY);
        let (mut g2, mut d2) = (0usize, f64::INFINITY);
        for gx in 0..n_groups {
            let d = sqdist(point, self.centres.row(gx));
            if d < d1 {
                (g2, d2) = (g1, d1);
                (g1, d1) = (gx, d);
            } else if d < d2 {
                (g2, d2) = (gx, d);
            }
        }
        let (best1, d_best1) = nearest(point, centroids, self.members[g1].iter().copied());
        let (best2, d_best2) = nearest(point, centroids, self.members[g2].iter().copied());
        // Strict <: ties resolve to the first group's winner, and when a
        // group is empty its INFINITY distance loses automatically.
        if d_best2 < d_best1 {
            best2
        } else {
            best1
        }
    }

    /// `nearest(point, centroids, 0..K)` — the same `(index, distance)`,
    /// bit for bit — searched from the centroid `hint` and pruned by
    /// the triangle inequality: with `m_g` a group's centre,
    /// `‖x − c‖ ≥ |‖x − m_g‖ − ‖c − m_g‖| ≥ ‖x − m_g‖ − r_g`, so a
    /// member, or a whole group, whose bound is strictly above the best
    /// distance so far cannot win. Groups are visited lowest bound
    /// first; `visit` is scratch.
    ///
    /// Exact because the winner is the lexicographic (distance, index)
    /// minimum of what was evaluated — the scan's first strict minimum
    /// — and a prune ([`prunes`]) implies the skipped centroid's
    /// computed distance is strictly above the best one, so no winner
    /// and no tie is ever skipped.
    fn nearest(
        &self,
        point: &[f64],
        centroids: &Matrix,
        hint: usize,
        visit: &mut Vec<(f64, f64, usize)>,
    ) -> (usize, f64) {
        let (mut best, mut best_d) = (0usize, f64::INFINITY);
        let d = lloyd_dist(point, centroids.row(hint));
        if d < best_d {
            (best, best_d) = (hint, d);
        }
        let mut best_norm = best_d.sqrt();
        visit.clear();
        for g in 0..self.centres.rows() {
            if !self.members[g].is_empty() {
                let to_centre = lloyd_dist(point, self.centres.row(g)).sqrt();
                visit.push((to_centre - self.radius[g], to_centre, g));
            }
        }
        visit.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        for &(bound, to_centre, g) in visit.iter() {
            if prunes(bound, to_centre, self.radius[g], best_norm) {
                continue;
            }
            for (&c, &spread) in self.members[g].iter().zip(&self.spread[g]) {
                if c == hint || prunes((to_centre - spread).abs(), to_centre, spread, best_norm) {
                    continue;
                }
                let d = lloyd_dist(point, centroids.row(c));
                if d < best_d || (d == best_d && c < best) {
                    (best, best_d) = (c, d);
                    best_norm = d.sqrt();
                }
            }
        }
        (best, best_d)
    }
}

/// Whether `bound`, a lower bound on `‖x − c‖` made of the norms `a`
/// and `b`, puts `c` strictly farther than `best_norm`, past a
/// [`bound_slack`] on `a` and `b`: the bound subtracts them, so its
/// rounding error is relative to them, not to itself — and so is
/// `best_norm`'s, which is below the bound whenever it prunes. An
/// overflowed or NaN norm proves nothing, and prunes nothing: its slack
/// is `+∞` or NaN, so `bound − slack` is NaN or `−∞`.
fn prunes(bound: f64, a: f64, b: f64, best_norm: f64) -> bool {
    bound - bound_slack(a, b) > best_norm
}

/// One squared distance of the Lloyd step's search (counted in tests).
fn lloyd_dist(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(test)]
    LLOYD_DISTS.with(|n| n.set(n.get() + 1));
    sqdist(a, b)
}

#[cfg(test)]
thread_local! {
    /// Distances [`CentroidGroups::nearest`] evaluated on this thread:
    /// the pruning the tests count (the exhaustive scan makes `K` per
    /// point).
    static LLOYD_DISTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topn::rank_cmp;

    /// Items `[item-id feature, attribute feature]` over a feature
    /// space shared with a small context: the shape every catalogue
    /// request has.
    struct Fixture {
        model: FrozenModel,
        items: Vec<Vec<u32>>,
        template: Vec<u32>,
        item_slots: Vec<usize>,
    }

    fn fixture(n_items: usize, n_attrs: usize, weighted: bool, seed: u64) -> Fixture {
        let n_users = 4;
        let dim = n_users + n_items + n_attrs;
        let model = if weighted {
            FrozenModel::synthetic_metric(dim, 6, seed)
        } else {
            // Rebuild the synthetic model without `h` for the
            // unweighted linearisation.
            let m = FrozenModel::synthetic_metric(dim, 6, seed);
            let SecondOrder::Metric { hat, .. } = m.second_order_kind().clone() else {
                panic!("not a metric model")
            };
            FrozenModel::from_parts(
                m.bias(),
                m.linear_weights().to_vec(),
                m.factors().clone(),
                SecondOrder::metric(hat.v_hat_matrix(), hat.q_vec(), None, Distance::SquaredEuclidean),
            )
        };
        let items: Vec<Vec<u32>> = (0..n_items)
            .map(|i| vec![(n_users + i) as u32, (n_users + n_items + (i * 7 + 3) % n_attrs) as u32])
            .collect();
        Fixture { model, items, template: vec![1, 4, (n_users + n_items) as u32], item_slots: vec![1, 2] }
    }

    /// Exhaustive reference over the same ranker.
    fn reference_top_n(fx: &Fixture, n: usize, skip: impl Fn(u32) -> bool) -> Vec<(u32, f64)> {
        let mut ranker = fx.model.ranker(&fx.template, &fx.item_slots);
        let mut scored: Vec<(u32, f64)> = (0..fx.items.len() as u32)
            .filter(|&i| !skip(i))
            .map(|i| (i, ranker.score(&fx.items[i as usize])))
            .collect();
        scored.sort_by(rank_cmp);
        scored.truncate(n);
        scored
    }

    /// `index.search` over the fixture's own request, exact scan.
    fn search(
        fx: &Fixture,
        index: &IvfIndex,
        n: usize,
        nprobe: usize,
        skip: impl Fn(u32) -> bool + Sync,
    ) -> Vec<(u32, f64)> {
        index.search(&fx.model, &fx.items, &fx.template, &fx.item_slots, n, nprobe, &skip)
    }

    #[test]
    fn linearisation_matches_ranker_scores() {
        for weighted in [true, false] {
            let fx = fixture(60, 7, weighted, 11);
            let tables = MetricTables::of(&fx.model).expect("metric model");
            let mut ranker = fx.model.ranker(&fx.template, &fx.item_slots);
            let g = query_vector(&fx.model, &tables, ranker.context_features());
            let ctx_score = ranker.context_score();
            let mut phi = vec![0.0; tables.kind().phi_dim(fx.model.k())];
            for (i, feats) in fx.items.iter().enumerate() {
                let exact = ranker.score(feats);
                phi_into(&fx.model, &tables, feats, &mut phi);
                let linear = ctx_score + dot(&g, &phi);
                assert!(
                    (exact - linear).abs() <= 1e-9 * exact.abs().max(1.0),
                    "weighted={weighted} item {i}: ranker {exact} vs affine {linear}"
                );
            }
        }
    }

    #[test]
    fn full_probe_matches_exhaustive_scan_bitwise() {
        for weighted in [true, false] {
            let fx = fixture(300, 11, weighted, 5);
            let opts = IvfBuildOptions { clusters: Some(12), ..IvfBuildOptions::default() };
            let index =
                IvfIndex::build(&fx.model, &fx.items, &opts, Parallelism::serial()).expect("metric model");
            assert_eq!(index.n_items(), 300);
            for n in [1usize, 10, 300] {
                let got = search(&fx, &index, n, index.n_clusters(), |_| false);
                let want = reference_top_n(&fx, n, |_| false);
                assert_eq!(got.len(), want.len(), "weighted={weighted} n={n}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0, w.0, "weighted={weighted} n={n}");
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "weighted={weighted} n={n}");
                }
            }
        }
    }

    /// A partial probe returns exactly the top `n` of the members of the
    /// clusters it probed: ids and score bits of a full sort of
    /// per-item [`TopNRanker::score`] over those members, and the probe
    /// list is the first `nprobe` of a full centroid-score sort. The
    /// attribute slot (11 ids over 300 items) is dense enough for the
    /// block re-rank to read tables. The second model's infinite bias
    /// ties every score at +∞, where no slack separates a bound from
    /// the threshold: only the prunes' strict `<` keeps a tying member
    /// that wins on item id.
    #[test]
    fn partial_probe_returns_top_n_of_probed_members() {
        let base = fixture(300, 11, true, 7);
        let tied = Fixture {
            model: FrozenModel::from_parts(
                f64::INFINITY,
                base.model.linear_weights().to_vec(),
                base.model.factors().clone(),
                base.model.second_order_kind().clone(),
            ),
            items: base.items.clone(),
            template: base.template.clone(),
            item_slots: base.item_slots.clone(),
        };
        let skip = |item: u32| item % 5 == 2;
        let bits = |ranked: &[(u32, f64)]| ranked.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>();
        for fx in [base, tied] {
            let opts = IvfBuildOptions { clusters: Some(12), ..IvfBuildOptions::default() };
            let index =
                IvfIndex::build(&fx.model, &fx.items, &opts, Parallelism::serial()).expect("metric model");
            let tables = MetricTables::of(&fx.model).expect("metric model");
            let mut ranker = fx.model.ranker(&fx.template, &fx.item_slots);
            let g = query_vector(&fx.model, &tables, ranker.context_features());
            let centroid = |c: usize| dot(&g, index.phi_mean.row(c));
            let mut by_centroid: Vec<usize> = (0..index.n_clusters()).collect();
            by_centroid.sort_by(|&a, &b| centroid(b).total_cmp(&centroid(a)).then(a.cmp(&b)));
            for nprobe in [1, 2, index.n_clusters() / 2, index.n_clusters()] {
                let probe = index.probe_order(&fx.model, &tables, &fx.template, &fx.item_slots, nprobe);
                let probed: Vec<usize> = probe.clusters.iter().map(|&(c, ..)| c).collect();
                assert_eq!(probed, by_centroid[..nprobe], "nprobe {nprobe}");
                let mut want: Vec<(u32, f64)> = probed
                    .iter()
                    .flat_map(|&c| index.members[c].iter().copied())
                    .filter(|&item| !skip(item))
                    .map(|item| (item, ranker.score(&fx.items[item as usize])))
                    .collect();
                want.sort_by(rank_cmp);
                for n in [1, 10, fx.items.len() + 5] {
                    let got = search(&fx, &index, n, nprobe, skip);
                    let bias = fx.model.bias();
                    assert_eq!(
                        bits(&got),
                        bits(&want[..n.min(want.len())]),
                        "bias {bias} nprobe {nprobe} n {n}"
                    );
                }
            }
        }
    }

    /// The [`bound_slack`] soundness fixture its doc comment names:
    /// with a large negative bias every context score, member upper
    /// bound and heap threshold is `< 0`, so a slack built from (or
    /// scaled by) *signed* values would shrink instead of widen and
    /// silently prune true members. The slack is built from absolute
    /// values and always **added** to the prune side of a strict `<`,
    /// so a full probe must still reproduce the exhaustive scan
    /// bitwise.
    #[test]
    fn all_negative_scores_probe_matches_exhaustive_scan() {
        for weighted in [true, false] {
            let base = fixture(300, 11, weighted, 21);
            let model = FrozenModel::from_parts(
                base.model.bias() - 1000.0,
                base.model.linear_weights().to_vec(),
                base.model.factors().clone(),
                base.model.second_order_kind().clone(),
            );
            let fx = Fixture { model, ..base };
            let mut ranker = fx.model.ranker(&fx.template, &fx.item_slots);
            assert!(
                (0..fx.items.len()).all(|i| ranker.score(&fx.items[i]) < 0.0),
                "fixture must put every candidate score below zero"
            );
            let opts = IvfBuildOptions { clusters: Some(12), ..IvfBuildOptions::default() };
            let index =
                IvfIndex::build(&fx.model, &fx.items, &opts, Parallelism::serial()).expect("metric model");
            for n in [1usize, 10, 50] {
                let got = search(&fx, &index, n, index.n_clusters(), |_| false);
                let want = reference_top_n(&fx, n, |_| false);
                assert_eq!(got.len(), want.len(), "weighted={weighted} n={n}");
                for (g, w) in got.iter().zip(&want) {
                    assert!(g.1 < 0.0, "weighted={weighted} n={n}: fixture scores stay negative");
                    assert_eq!(g.0, w.0, "weighted={weighted} n={n}");
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "weighted={weighted} n={n}");
                }
            }
        }
    }

    #[test]
    fn skip_predicate_excludes_items() {
        let fx = fixture(200, 5, true, 9);
        let index = IvfIndex::build(
            &fx.model,
            &fx.items,
            &IvfBuildOptions { clusters: Some(8), ..IvfBuildOptions::default() },
            Parallelism::serial(),
        )
        .expect("metric model");
        let skip = |item: u32| item.is_multiple_of(3);
        let got = search(&fx, &index, 15, index.n_clusters(), skip);
        assert!(got.iter().all(|(i, _)| i % 3 != 0));
        assert_eq!(got, reference_top_n(&fx, 15, skip));
    }

    #[test]
    fn default_probe_hits_high_recall_on_clustered_items() {
        // Items share attribute features (2 of 3 features are
        // attribute-side), so the φ space has genuine cluster
        // structure; the default nprobe must find nearly all of the
        // true top-10.
        let n_items = 4000;
        let n_attr_a = 32;
        let n_attr_b = 6;
        let n_users = 4;
        let dim = n_users + n_items + n_attr_a + n_attr_b;
        let model = FrozenModel::synthetic_metric(dim, 6, 31);
        let items: Vec<Vec<u32>> = (0..n_items)
            .map(|i| {
                vec![
                    (n_users + i) as u32,
                    (n_users + n_items + (i * 13 + 1) % n_attr_a) as u32,
                    (n_users + n_items + n_attr_a + (i * 5) % n_attr_b) as u32,
                ]
            })
            .collect();
        let template = vec![2, 4, (n_users + n_items) as u32, (n_users + n_items + n_attr_a) as u32];
        let item_slots = vec![1, 2, 3];
        let index = IvfIndex::build(&model, &items, &IvfBuildOptions::default(), Parallelism::serial())
            .expect("metric model");
        let mut ranker = model.ranker(&template, &item_slots);
        let mut scored: Vec<(u32, f64)> =
            (0..n_items as u32).map(|i| (i, ranker.score(&items[i as usize]))).collect();
        scored.sort_by(rank_cmp);
        let truth: Vec<u32> = scored[..10].iter().map(|p| p.0).collect();
        let got =
            index.search(&model, &items, &template, &item_slots, 10, index.default_nprobe(), &|_| false);
        let hits = got.iter().filter(|(i, _)| truth.contains(i)).count();
        assert!(hits >= 9, "recall@10 {}/10 at default nprobe {}", hits, index.default_nprobe());
    }

    #[test]
    fn parts_round_trip_preserves_search_results() {
        let fx = fixture(250, 9, true, 21);
        let index = IvfIndex::build(
            &fx.model,
            &fx.items,
            &IvfBuildOptions { clusters: Some(10), ..IvfBuildOptions::default() },
            Parallelism::serial(),
        )
        .expect("metric model");
        let rebuilt = IvfIndex::from_parts(
            index.kind().name(),
            index.k(),
            index.phi_mean().clone(),
            index.item_norms(),
            index.assignments(),
            index.default_nprobe(),
            index.min_candidates(),
        )
        .expect("valid parts");
        assert_eq!(rebuilt.n_clusters(), index.n_clusters());
        assert_eq!(rebuilt.members, index.members);
        assert_eq!(rebuilt.member_norms, index.member_norms);
        assert_eq!(rebuilt.radius, index.radius, "radius re-derives from the member norms");
        assert_eq!(search(&fx, &index, 7, 3, |_| false), search(&fx, &rebuilt, 7, 3, |_| false));
    }

    #[test]
    fn from_parts_rejects_inconsistent_tables() {
        let fx = fixture(50, 5, true, 2);
        let index = IvfIndex::build(
            &fx.model,
            &fx.items,
            &IvfBuildOptions { clusters: Some(4), ..IvfBuildOptions::default() },
            Parallelism::serial(),
        )
        .expect("metric model");
        let err = IvfIndex::from_parts(
            "no-such-kind",
            index.k(),
            index.phi_mean().clone(),
            index.item_norms(),
            index.assignments(),
            1,
            0,
        );
        assert!(err.is_err());
        let err = IvfIndex::from_parts(
            index.kind().name(),
            index.k() + 1,
            index.phi_mean().clone(),
            index.item_norms(),
            index.assignments(),
            1,
            0,
        );
        assert!(err.is_err(), "phi width must match kind/k");
        let mut bad = index.assignments();
        bad[0] = index.n_clusters() as u32;
        let err = IvfIndex::from_parts(
            index.kind().name(),
            index.k(),
            index.phi_mean().clone(),
            index.item_norms(),
            bad,
            1,
            0,
        );
        assert!(err.is_err(), "out-of-range assignment must be rejected");
    }

    #[test]
    fn unsupported_models_build_nothing() {
        let mut rng = gmlfm_tensor::seeded_rng(3);
        let v = gmlfm_tensor::init::normal(&mut rng, 20, 4, 0.0, 0.4);
        let dot_model = FrozenModel::from_parts(0.0, vec![0.0; 20], v.clone(), SecondOrder::Dot);
        let items: Vec<Vec<u32>> = (0..10).map(|i| vec![i as u32]).collect();
        assert!(
            IvfIndex::build(&dot_model, &items, &IvfBuildOptions::default(), Parallelism::serial()).is_none()
        );
        assert!(!IvfIndex::supports(&dot_model));
        let manhattan = {
            let v_hat = gmlfm_tensor::init::normal(&mut rng, 20, 4, 0.0, 0.4);
            let q: Vec<f64> = (0..20).map(|r| dot(v_hat.row(r), v_hat.row(r))).collect();
            FrozenModel::from_parts(
                0.0,
                vec![0.0; 20],
                v,
                SecondOrder::metric(v_hat, q, None, Distance::Manhattan),
            )
        };
        assert!(
            IvfIndex::build(&manhattan, &items, &IvfBuildOptions::default(), Parallelism::serial()).is_none()
        );
    }

    #[test]
    fn build_is_thread_count_independent() {
        let fx = fixture(500, 8, true, 13);
        let opts = IvfBuildOptions { clusters: Some(16), ..IvfBuildOptions::default() };
        let serial = IvfIndex::build(&fx.model, &fx.items, &opts, Parallelism::serial()).expect("build");
        let par = IvfIndex::build(&fx.model, &fx.items, &opts, Parallelism::threads(5)).expect("build");
        assert_eq!(serial.members, par.members);
        assert_eq!(serial.member_norms, par.member_norms);
        assert_eq!(serial.radius, par.radius);
        assert_eq!(serial.phi_mean().as_slice(), par.phi_mean().as_slice());
    }

    /// The Lloyd loop as it was before pruning — every step scans all
    /// `K` centroids for every point, and the reseed order is sorted
    /// every step. `sample_kmeans` must reproduce it bit for bit.
    fn exhaustive_kmeans(sample: &Matrix, n_clusters: usize) -> Matrix {
        let (sample_n, psi_dim) = sample.shape();
        let mut centroids = Matrix::zeros(n_clusters, psi_dim);
        for c in 0..n_clusters {
            centroids.row_mut(c).copy_from_slice(sample.row(c * sample_n / n_clusters));
        }
        let mut assign = vec![0usize; sample_n];
        let mut dist = vec![0.0f64; sample_n];
        for _ in 0..KMEANS_ITERS {
            for i in 0..sample_n {
                (assign[i], dist[i]) = nearest(sample.row(i), &centroids, 0..n_clusters);
            }
            let mut counts = vec![0usize; n_clusters];
            let mut sums = Matrix::zeros(n_clusters, psi_dim);
            for i in 0..sample_n {
                counts[assign[i]] += 1;
                axpy_row(sums.row_mut(assign[i]), sample.row(i));
            }
            let mut reseed_from = farthest_order(&dist);
            for (c, &count) in counts.iter().enumerate() {
                if count == 0 {
                    if let Some(i) = reseed_from.next() {
                        centroids.row_mut(c).copy_from_slice(sample.row(i));
                    }
                    continue;
                }
                let inv = 1.0 / count as f64;
                for (slot, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                    *slot = s * inv;
                }
            }
        }
        centroids
    }

    /// One coordinate of a `mode` case: 0 draws from a small palette,
    /// so distances tie exactly, with ±0 among it; 1 mixes in ±∞, NaN
    /// and tiny values; 2 draws around `√f64::MAX`, where one squared
    /// distance overflows and its neighbour does not.
    fn palette_value(rng: &mut impl rand::Rng, mode: usize) -> f64 {
        const TAME: [f64; 8] = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0];
        const HOSTILE: [f64; 4] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e-160];
        const EDGE: [f64; 7] = [0.0, 1.2e154, -1.2e154, 1.3e154, 1.34e154, 1.35e154, -1.35e154];
        match mode {
            1 if rng.gen_bool(0.05) => HOSTILE[rng.gen_range(0..HOSTILE.len())],
            2 if rng.gen_bool(0.5) => EDGE[rng.gen_range(0..EDGE.len())],
            2 => rng.gen_range(-1.4e154..1.4e154),
            _ if rng.gen_bool(0.3) => rng.gen_range(-3.0..3.0),
            _ => TAME[rng.gen_range(0..TAME.len())],
        }
    }

    #[test]
    fn pruned_nearest_matches_the_exhaustive_scan_bitwise() {
        use rand::Rng;
        let mut rng = gmlfm_tensor::seeded_rng(42);
        let mut visit = Vec::new();
        // `‖x − m‖²` overflows while the winner sits 5e152 from `x`: an
        // infinite bound must not prune its group.
        let centroids = Matrix::from_vec(3, 1, vec![-1.35e154, 1.3e154, 0.5e154]);
        let groups = CentroidGroups::around(
            &centroids,
            Matrix::from_vec(2, 1, vec![-0.025e154, 0.5e154]),
            vec![vec![0, 1], vec![2]],
        );
        let (got, want) =
            (groups.nearest(&[1.35e154], &centroids, 2, &mut visit), nearest(&[1.35e154], &centroids, 0..3));
        assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
        assert_eq!(want.0, 1);
        for case in 0..3000 {
            let mode = case % 3;
            let (k, dim) = (rng.gen_range(1..48usize), rng.gen_range(1..7usize));
            let mut centroids = Matrix::zeros(k, dim);
            for c in 0..k {
                match rng.gen_range(0..6u32) {
                    // Duplicate an earlier centroid.
                    0 if c > 0 => {
                        let src = centroids.row(rng.gen_range(0..c)).to_vec();
                        centroids.row_mut(c).copy_from_slice(&src);
                    }
                    // All-zero row (−0 or +0 throughout).
                    1 => centroids.row_mut(c).fill(if rng.gen_bool(0.5) { -0.0 } else { 0.0 }),
                    _ => centroids.row_mut(c).iter_mut().for_each(|x| *x = palette_value(&mut rng, mode)),
                }
            }
            // Half the cases group by the build's mini k-means, half
            // arbitrarily around arbitrary centres.
            let groups = if case % 2 == 0 {
                CentroidGroups::new(&centroids)
            } else {
                let n_groups = rng.gen_range(1..k + 1);
                let centres = Matrix::from_fn(n_groups, dim, |_, _| palette_value(&mut rng, mode));
                let mut members = vec![Vec::new(); n_groups];
                for c in 0..k {
                    members[rng.gen_range(0..n_groups)].push(c);
                }
                CentroidGroups::around(&centroids, centres, members)
            };
            for _ in 0..8 {
                let point: Vec<f64> = if rng.gen_bool(0.2) {
                    centroids.row(rng.gen_range(0..k)).to_vec()
                } else {
                    (0..dim).map(|_| palette_value(&mut rng, mode)).collect()
                };
                let want = nearest(&point, &centroids, 0..k);
                for hint in [0, k - 1, rng.gen_range(0..k), want.0] {
                    let got = groups.nearest(&point, &centroids, hint, &mut visit);
                    assert_eq!(
                        (got.0, got.1.to_bits()),
                        (want.0, want.1.to_bits()),
                        "case {case}: k={k} hint={hint} point={point:?}"
                    );
                }
            }
        }
    }

    /// Every table the build derives from the k-means, at its bits.
    fn index_bits(index: &IvfIndex) -> (Vec<u32>, Vec<u64>, Vec<u64>, Vec<u64>) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        (
            index.assignments(),
            bits(&index.item_norms()),
            bits(index.radius()),
            bits(index.phi_mean().as_slice()),
        )
    }

    #[test]
    fn pruned_lloyd_builds_the_exhaustive_lloyd_index() {
        let duplicated = {
            // Every item's features repeated by three to seven others:
            // duplicate sample points, so duplicate centroids.
            let mut fx = fixture(600, 9, true, 17);
            fx.items = (0..600).map(|i| fx.items[i / 5 * 5 % 600 + i % 2].clone()).collect();
            fx
        };
        for (name, fx) in [
            ("weighted", fixture(900, 13, true, 3)),
            ("unweighted", fixture(900, 13, false, 3)),
            ("duplicated", duplicated),
        ] {
            for clusters in [None, Some(7), Some(300)] {
                let opts = IvfBuildOptions { clusters, ..IvfBuildOptions::default() };
                let pruned = IvfIndex::build(&fx.model, &fx.items, &opts, Parallelism::serial())
                    .expect("metric model");
                let exhaustive = IvfIndex::build_with(
                    &fx.model,
                    &fx.items,
                    &opts,
                    Parallelism::serial(),
                    exhaustive_kmeans,
                )
                .expect("metric model");
                assert!(index_bits(&pruned) == index_bits(&exhaustive), "{name} clusters={clusters:?}");
            }
        }
    }

    /// A count where a clock would flake: on a clustered catalogue's ψ
    /// sample the Lloyd step must evaluate at most a quarter of the exhaustive
    /// scan's `iters × sample × K` distances, so a change that turns
    /// the pruning off fails here.
    #[test]
    fn lloyd_step_prunes_most_distance_evaluations() {
        // Two attribute fields (32 × 6 combinations) under damped
        // item-id embeddings: the trained shape, with cluster structure.
        let (n_items, n_attr_a, n_attr_b, n_users) = (10_000, 32, 6, 4);
        let model = FrozenModel::synthetic_metric_damped(
            n_users + n_items + n_attr_a + n_attr_b,
            6,
            29,
            n_users..n_users + n_items,
            0.5,
        );
        let items: Vec<Vec<u32>> = (0..n_items)
            .map(|i| {
                vec![
                    (n_users + i) as u32,
                    (n_users + n_items + (i * 13 + 1) % n_attr_a) as u32,
                    (n_users + n_items + n_attr_a + (i * 5) % n_attr_b) as u32,
                ]
            })
            .collect();
        let k = 1024;
        let sample_n = SAMPLE_PER_CLUSTER * k;
        let tables = MetricTables::of(&model).expect("metric model");
        let mut sample = Matrix::zeros(sample_n, tables.kind().psi_dim(model.k()));
        for i in 0..sample_n {
            psi_into(&model, &tables, &items[i * n_items / sample_n], sample.row_mut(i));
        }
        LLOYD_DISTS.with(|n| n.set(0));
        sample_kmeans(&sample, k);
        let evaluated = LLOYD_DISTS.with(|n| n.get());
        let exhaustive = KMEANS_ITERS * sample_n * k;
        assert!(evaluated > 0);
        assert!(
            evaluated * 4 <= exhaustive,
            "Lloyd distances {evaluated} of {exhaustive} ({:.1} %)",
            100.0 * evaluated as f64 / exhaustive as f64
        );
    }
}
