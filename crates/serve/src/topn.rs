//! Top-N retrieval: one sharded bounded-heap scan driver with a
//! deterministic merge.
//!
//! The serving workload the paper optimises for (Eq. 10/11 decoupled
//! scoring) ranks a whole catalogue per request but returns only the
//! best `n` — and `n` is tiny next to the catalogue. Scoring every
//! candidate is unavoidable without an index, but *sorting* every
//! candidate is not: this module selects the top `n` with one bounded
//! heap per contiguous shard of the work, so a request over `C`
//! candidates costs `O(C·k + C·log n)` time and `O(shards·n)` selection
//! memory instead of the full sort's `O(C·k + C·log C)` time and `O(C)`
//! score buffer. At a million items and `n = 10` the difference is the
//! sort and the 16 MB score vector, every request.
//!
//! Every retrieval mode is the same loop — cut the work into shards,
//! give each shard one scanner and one [`TopNHeap`], merge under
//! [`rank_cmp`], re-score the pool exactly when the scan was a
//! low-precision probe — so it exists once, as the private `Scan::run`
//! driver. The two candidate sources are expressed over it: an explicit
//! candidate list scored in [`kernel::CAND_BLOCK`] runs
//! ([`scan_top_n`]), and an IVF probe list, one shard, whose clusters'
//! Cauchy–Schwarz survivors are scored one block per cluster
//! ([`crate::IvfIndex::search`]).
//!
//! Three guarantees make the fast path a drop-in replacement for the
//! full sort, not an approximation of it:
//!
//! 1. **Total order.** Ranking uses [`rank_cmp`] — score descending,
//!    ties broken by ascending item id — everywhere: inside the heaps,
//!    in the shard merge, and in the full-sort reference the tests pin
//!    against. Equal-score candidates order identically on every path.
//! 2. **Threshold rejection.** Once a shard's heap is full, a candidate
//!    scoring below the shard's current worst retained entry (the
//!    [`TopNHeap::threshold`]) is rejected in one comparison without
//!    entering the heap.
//! 3. **Deterministic merge.** Shard results are concatenated in shard
//!    order and resolved by the same total order, so the final ranking
//!    is independent of shard count and thread count — pinned by the
//!    `kernel_parity` and `retrieval_parity` proptests across threads
//!    {1, 2, 5}.

use crate::frozen::FrozenModel;
use crate::index::ItemFeatureSource;
use crate::kernel;
use crate::lowp::Precision;
use crate::rank::{ScanMode, Scanner};
use gmlfm_par::Parallelism;
use std::cmp::Ordering;

/// The retrieval total order over `(item, score)` pairs, best first:
/// score descending ([`f64::total_cmp`], so not even NaN breaks
/// totality), then item id ascending.
///
/// Every ranking surface — [`TopNHeap`], the shard merge, the
/// request-path sort in `gmlfm-service`, the full-sort references in
/// tests — uses this one comparator, which is what makes equal-score
/// ordering an explicit contract instead of a sort-implementation
/// accident.
#[inline]
pub fn rank_cmp(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// A bounded selection heap holding the `n` best `(item, score)` entries
/// seen so far under [`rank_cmp`].
///
/// Internally a binary max-heap keyed by *badness* (the root is the
/// worst retained entry), so a full heap accepts a new candidate only
/// when it beats the root — one comparison per rejected candidate, one
/// `O(log n)` sift per accepted one.
#[derive(Debug, Clone)]
pub struct TopNHeap {
    n: usize,
    /// Max-heap by [`rank_cmp`] (`Greater` = worse = closer to the root).
    heap: Vec<(u32, f64)>,
}

impl TopNHeap {
    /// An empty heap retaining at most `n` entries (`n = 0` retains
    /// nothing and rejects every push).
    pub fn new(n: usize) -> Self {
        // A request's n is usually tiny relative to the candidate count;
        // reserving it up front keeps the fill phase allocation-free.
        Self { n, heap: Vec::with_capacity(n.min(1024)) }
    }

    /// Number of retained entries (`<= n`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current worst retained entry once the heap is full — the
    /// score/id cutoff a new candidate must beat to enter. `None` while
    /// the heap still has free slots (everything is accepted).
    pub fn threshold(&self) -> Option<(u32, f64)> {
        if self.n > 0 && self.heap.len() == self.n {
            Some(self.heap[0])
        } else {
            None
        }
    }

    /// Offers one candidate; returns whether it was retained. A
    /// candidate not beating a full heap's [`threshold`] under
    /// [`rank_cmp`] is rejected without entering the heap.
    ///
    /// [`threshold`]: TopNHeap::threshold
    pub fn push(&mut self, item: u32, score: f64) -> bool {
        if self.n == 0 {
            return false;
        }
        let entry = (item, score);
        if self.heap.len() < self.n {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
            return true;
        }
        // Full: reject unless strictly better than the worst retained.
        // The plain `<` settles most rejections in one compare and is
        // exact: it is false on NaN and between ±0, which fall through
        // to `rank_cmp`'s `total_cmp`.
        let root = self.heap[0];
        if score < root.1 || rank_cmp(&entry, &root) != Ordering::Less {
            return false;
        }
        self.heap[0] = entry;
        self.sift_down(0);
        true
    }

    /// The retained entries in heap order (no particular ranking) — the
    /// shape the leave-one-out metrics consume, where only membership
    /// and the `score >= positive` count matter.
    pub fn retained(&self) -> &[(u32, f64)] {
        &self.heap
    }

    /// Consumes the heap into its entries ranked best-first under
    /// [`rank_cmp`].
    pub fn into_sorted(self) -> Vec<(u32, f64)> {
        let mut out = self.heap;
        out.sort_by(rank_cmp);
        out
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if rank_cmp(&self.heap[i], &self.heap[parent]) != Ordering::Greater {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            if l < self.heap.len() && rank_cmp(&self.heap[l], &self.heap[worst]) == Ordering::Greater {
                worst = l;
            }
            if r < self.heap.len() && rank_cmp(&self.heap[r], &self.heap[worst]) == Ordering::Greater {
                worst = r;
            }
            if worst == i {
                return;
            }
            self.heap.swap(i, worst);
            i = worst;
        }
    }
}

/// Merges per-shard top-`n` rankings into the global top `n`:
/// concatenate in shard order, resolve with [`rank_cmp`], truncate.
///
/// Because [`rank_cmp`] is total, the result is the unique global top
/// `n` — independent of shard boundaries and of the order shards
/// finished in. (Duplicate candidates are legal and retained: two copies
/// of one item compare `Equal` and are indistinguishable, so any
/// interleaving of them is the same ranking.)
fn merge_sharded(n: usize, shards: impl IntoIterator<Item = Vec<(u32, f64)>>) -> Vec<(u32, f64)> {
    let mut all: Vec<(u32, f64)> = shards.into_iter().flatten().collect();
    all.sort_by(rank_cmp);
    all.truncate(n);
    all
}

/// How many candidates a low-precision probe keeps for the exact f64
/// re-rank: an 8x (and at least `n + 64`) pool absorbs
/// quantization-induced reordering near the cutoff — including the
/// compounding with IVF pruning, whose skip threshold tracks the
/// approximate probe heap — so recall stays at the exact scan's level
/// while returned scores stay bitwise the model's. The re-rank itself is
/// a few dozen exact scores per request, noise next to the catalogue
/// scan. Saturating: `n` is the request's, and the wire decodes any
/// `usize`.
fn rerank_pool(n: usize) -> usize {
    n.saturating_mul(8).max(n.saturating_add(64))
}

/// One top-`n` request against a frozen model: what a candidate source
/// hands the scan driver ([`Scan::run`]). `template` is the user's
/// feature template, `item_slots` the positions a candidate's features
/// fill (the [`FrozenModel::ranker`] contract).
pub(crate) struct Scan<'a, S: ItemFeatureSource + ?Sized> {
    pub(crate) model: &'a FrozenModel,
    pub(crate) items: &'a S,
    pub(crate) template: &'a [u32],
    pub(crate) item_slots: &'a [usize],
    pub(crate) n: usize,
    pub(crate) precision: Precision,
    pub(crate) par: Parallelism,
}

impl<S: ItemFeatureSource + ?Sized> Scan<'_, S> {
    /// The scan driver: `work` is cut into one contiguous shard per
    /// requested worker, each shard builds its own [`Scanner`] (context
    /// partials computed once per shard, not once per candidate) and
    /// lets `scan_shard` push its share of the work into a
    /// [`TopNHeap`], and the shard heaps are merged under [`rank_cmp`].
    /// With `scan_shard` pushing pure per-candidate scores the result
    /// is item-for-item `sort_by(rank_cmp) + truncate(n)` over those
    /// scores at every thread count.
    ///
    /// The scan reads the tables [`ScanMode::choose`] picks for
    /// `self.precision`. When that mode re-ranks — `exact_scores` is
    /// the caller's contract that returned scores are the f64 model's
    /// — the heaps keep a [`rerank_pool`]-sized pool and the merged
    /// pool is re-scored by the exact ranker, which is what makes every
    /// approximate probe's returned scores bitwise the model's.
    pub(crate) fn run<W: Sync>(
        &self,
        exact_scores: bool,
        work: &[W],
        scan_shard: impl Fn(&mut Scanner<'_>, &[W], &mut TopNHeap) + Sync,
    ) -> Vec<(u32, f64)> {
        let mode = ScanMode::choose(self.model, self.precision);
        let rerank = mode.reranks(exact_scores);
        let pool_n = if rerank { rerank_pool(self.n) } else { self.n };
        let ranges = gmlfm_par::block_ranges(work.len(), self.par.get());
        let shard_tops = gmlfm_par::par_map(self.par, &ranges, |range| {
            let mut scanner = Scanner::new(self.model, self.template, self.item_slots, mode);
            let mut heap = TopNHeap::new(pool_n);
            scan_shard(&mut scanner, &work[range.clone()], &mut heap);
            heap.into_sorted()
        });
        let mut pool = merge_sharded(pool_n, shard_tops);
        if rerank {
            let mut ranker = self.model.ranker(self.template, self.item_slots);
            for (item, score) in &mut pool {
                *score = ranker.score(self.items.features_of(*item));
            }
            pool.sort_by(rank_cmp);
            pool.truncate(self.n);
        }
        pool
    }
}

/// Top `n` of an explicit candidate list, best first under
/// [`rank_cmp`] — the list source of the scan driver: each shard's
/// candidates are scored in [`kernel::CAND_BLOCK`]-sized runs
/// ([`crate::TopNRanker::score_block`], bitwise the per-item score) and
/// pushed into the shard heap in candidate order. `template` and
/// `item_slots` follow the [`FrozenModel::ranker`] contract; candidate
/// ids must be in range for `items`.
///
/// * [`Precision::F64`] — and any precision the model carries no table
///   for ([`FrozenModel::with_precision`]) — is the exact scan:
///   item-for-item the full sort of the per-item scores.
/// * [`Precision::F32`] returns the approximate table scores directly
///   (error bound and tie-order caveat: README "Vectorized kernels &
///   scan precision").
/// * [`Precision::I8`] scans the quantized tables into an over-fetched
///   pool, then re-scores the pool exactly — returned scores are
///   bitwise the model's.
#[allow(clippy::too_many_arguments)]
pub fn scan_top_n<S: ItemFeatureSource + ?Sized>(
    model: &FrozenModel,
    items: &S,
    template: &[u32],
    item_slots: &[usize],
    candidates: &[u32],
    n: usize,
    precision: Precision,
    par: Parallelism,
) -> Vec<(u32, f64)> {
    let scan = Scan { model, items, template, item_slots, n, precision, par };
    scan.run(false, candidates, |scanner, ids, heap| {
        let mut scores = Vec::with_capacity(kernel::CAND_BLOCK);
        for block in ids.chunks(kernel::CAND_BLOCK) {
            scores.clear();
            scanner.score_block(items, block, &mut scores);
            for (&item, &score) in block.iter().zip(&scores) {
                heap.push(item, score);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Full-sort reference: stable sort of all scored candidates by the
    /// shared total order, truncated.
    fn full_sort(scored: &[(u32, f64)], n: usize) -> Vec<(u32, f64)> {
        let mut all = scored.to_vec();
        all.sort_by(rank_cmp);
        all.truncate(n);
        all
    }

    /// A deterministic, collision-rich scoring function: many candidates
    /// share a score, so tie ordering is actually exercised.
    fn chunky_score(item: u32) -> f64 {
        ((item.wrapping_mul(2_654_435_761)) % 17) as f64 * 0.5 - 4.0
    }

    #[test]
    fn heap_matches_full_sort_with_heavy_ties() {
        for n in [0usize, 1, 3, 10, 50, 200] {
            let scored: Vec<(u32, f64)> = (0..150u32).map(|i| (i, chunky_score(i))).collect();
            let mut heap = TopNHeap::new(n);
            for &(i, s) in &scored {
                heap.push(i, s);
            }
            assert_eq!(heap.into_sorted(), full_sort(&scored, n), "n={n}");
        }
    }

    /// Scores where IEEE `<` and `total_cmp` part ways or tie: NaNs of
    /// both signs, both zeros, both infinities, and three ordinary
    /// values drawn often enough to tie at the threshold.
    const HARD_SCORES: [f64; 9] =
        [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.0, 1.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The heap — its `<` pre-check included — ranks like the full
        /// sort, ids and score bits, on hard scores (index
        /// `HARD_SCORES.len()` draws an ordinary one instead) under ids
        /// that repeat and arrive out of order.
        #[test]
        fn heap_matches_full_sort_on_nan_signed_zero_and_ties(
            n_idx in 0usize..3,
            picks in proptest::collection::vec((0usize..HARD_SCORES.len() + 1, 0u32..24, -3.0f64..3.0), 1..60),
        ) {
            let n = [1usize, 3, 10][n_idx];
            let scored: Vec<(u32, f64)> =
                picks.iter().map(|&(s, id, plain)| (id, HARD_SCORES.get(s).copied().unwrap_or(plain))).collect();
            let mut heap = TopNHeap::new(n);
            for &(i, s) in &scored {
                heap.push(i, s);
            }
            let bits = |ranked: Vec<(u32, f64)>| ranked.into_iter().map(|(i, s)| (i, s.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(bits(heap.into_sorted()), bits(full_sort(&scored, n)), "n {}: {:?}", n, scored);
        }
    }

    #[test]
    fn threshold_rejects_without_entering() {
        let mut heap = TopNHeap::new(2);
        assert!(heap.threshold().is_none(), "not full yet");
        assert!(heap.push(4, 1.0));
        assert!(heap.push(9, 3.0));
        assert_eq!(heap.threshold(), Some((4, 1.0)), "worst retained is the cutoff");
        assert!(!heap.push(5, 0.5), "below the threshold");
        assert!(!heap.push(5, 1.0), "tied score, higher id than the cutoff");
        assert!(heap.push(3, 1.0), "tied score, lower id beats the cutoff");
        assert_eq!(heap.threshold(), Some((3, 1.0)));
        assert_eq!(heap.into_sorted(), vec![(9, 3.0), (3, 1.0)]);
    }

    #[test]
    fn zero_n_retains_nothing() {
        let mut heap = TopNHeap::new(0);
        assert!(!heap.push(0, f64::INFINITY));
        assert!(heap.is_empty());
        assert!(heap.threshold().is_none());
        assert!(heap.into_sorted().is_empty());
    }

    #[test]
    fn duplicate_candidates_are_retained_like_the_sort() {
        // The same item offered three times with the same score: the
        // full sort keeps duplicates, so the heap must too.
        let scored = vec![(7u32, 2.0), (7, 2.0), (1, 1.0), (7, 2.0)];
        let mut heap = TopNHeap::new(3);
        for &(i, s) in &scored {
            heap.push(i, s);
        }
        assert_eq!(heap.into_sorted(), full_sort(&scored, 3));
    }

    #[test]
    fn merge_is_shard_count_independent() {
        let scored: Vec<(u32, f64)> = (0..97u32).map(|i| (i, chunky_score(i))).collect();
        let reference = full_sort(&scored, 10);
        for shards in [1usize, 2, 3, 8, 97, 200] {
            let ranges = gmlfm_par::block_ranges(scored.len(), shards);
            let tops: Vec<Vec<(u32, f64)>> = ranges
                .into_iter()
                .map(|r| {
                    let mut heap = TopNHeap::new(10);
                    for &(i, s) in &scored[r] {
                        heap.push(i, s);
                    }
                    heap.into_sorted()
                })
                .collect();
            assert_eq!(merge_sharded(10, tops), reference, "shards={shards}");
        }
    }

    /// A model whose score for item `i` is exactly `score(i)`: zero
    /// factors, the score in the item feature's first-order weight.
    fn scripted(n_items: u32, score: impl Fn(u32) -> f64) -> (FrozenModel, Vec<Vec<u32>>) {
        let mut w = vec![0.0];
        w.extend((0..n_items).map(score));
        let v = gmlfm_tensor::Matrix::zeros(w.len(), 2);
        let model = FrozenModel::from_parts(0.0, w, v, crate::SecondOrder::Dot);
        (model, (0..n_items).map(|i| vec![1 + i]).collect())
    }

    #[test]
    fn scan_matches_full_sort_across_threads() {
        let (model, items) = scripted(211, chunky_score);
        let candidates: Vec<u32> = (0..211u32).collect();
        let scored: Vec<(u32, f64)> = candidates.iter().map(|&i| (i, chunky_score(i))).collect();
        for n in [1usize, 5, 211, 221] {
            let reference = full_sort(&scored, n);
            for threads in [1usize, 2, 5] {
                let par = Parallelism::threads(threads);
                let got = scan_top_n(&model, &items, &[0, 0], &[1], &candidates, n, Precision::F64, par);
                assert_eq!(got, reference, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn all_equal_scores_rank_by_item_id() {
        let (model, items) = scripted(40, |_| 0.25);
        let candidates: Vec<u32> = (0..40u32).rev().collect();
        let par = Parallelism::threads(4);
        let got = scan_top_n(&model, &items, &[0, 0], &[1], &candidates, 5, Precision::F64, par);
        assert_eq!(got, vec![(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)]);
    }
}
