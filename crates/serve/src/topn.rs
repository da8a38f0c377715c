//! Top-N retrieval: one bounded-heap scan with a deterministic total
//! order.
//!
//! The serving workload the paper optimises for (Eq. 10/11 decoupled
//! scoring) ranks a whole catalogue per request but returns only the
//! best `n` — and `n` is tiny next to the catalogue. Scoring every
//! candidate is unavoidable without an index, but *sorting* every
//! candidate is not: this module selects the top `n` with one bounded
//! heap, so a request over `C` candidates costs `O(C·k + C·log n)` time
//! and `O(n)` selection memory instead of the full sort's
//! `O(C·k + C·log C)` time and `O(C)` score buffer. At a million items
//! and `n = 10` the difference is the sort and the 16 MB score vector,
//! every request.
//!
//! A request runs on the thread that received it: one [`TopNRanker`]
//! and one [`TopNHeap`] per request, whatever the candidate source — an
//! explicit candidate list scored in [`kernel::CAND_BLOCK`] runs
//! ([`scan_top_n`]), or an IVF probe list whose clusters' Cauchy–Schwarz
//! survivors are scored one block per cluster
//! ([`crate::IvfIndex::search`]).
//!
//! Two guarantees make the fast path a drop-in replacement for the
//! full sort, not an approximation of it:
//!
//! 1. **Total order.** Ranking uses [`rank_cmp`] — score descending,
//!    ties broken by ascending item id — everywhere: inside the heap
//!    and in the full-sort reference the tests pin against. Equal-score
//!    candidates order identically on every path, and the result does
//!    not depend on the order candidates were pushed in.
//! 2. **Threshold rejection.** Once the heap is full, a candidate
//!    scoring below its current worst retained entry (the
//!    [`TopNHeap::threshold`]) is rejected in one comparison without
//!    entering the heap.

use crate::frozen::FrozenModel;
use crate::index::ItemFeatureSource;
use crate::kernel;
#[allow(unused_imports)] // rustdoc links
use crate::rank::TopNRanker;
use std::cmp::Ordering;

/// The retrieval total order over `(item, score)` pairs, best first:
/// score descending ([`f64::total_cmp`], so not even NaN breaks
/// totality), then item id ascending.
///
/// Every ranking surface — [`TopNHeap`], the request-path sort in
/// `gmlfm-service`, the full-sort references in tests — uses this one
/// comparator, which is what makes equal-score ordering an explicit
/// contract instead of a sort-implementation accident.
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

/// Top `n` of an explicit candidate list, best first under
/// [`rank_cmp`]: one ranker scores the candidates in
/// [`kernel::CAND_BLOCK`]-sized runs ([`TopNRanker::score_block`],
/// bitwise the per-item score) and pushes them into one heap in
/// candidate order, so the result is item-for-item the full sort of the
/// per-item scores. `template` and `item_slots` follow the
/// [`FrozenModel::ranker`] contract; candidate ids must be in range for
/// `items`.
pub fn scan_top_n<S: ItemFeatureSource + ?Sized>(
    model: &FrozenModel,
    items: &S,
    template: &[u32],
    item_slots: &[usize],
    candidates: &[u32],
    n: usize,
) -> Vec<(u32, f64)> {
    let mut ranker = model.ranker(template, item_slots);
    let mut heap = TopNHeap::new(n);
    let mut scores = Vec::with_capacity(kernel::CAND_BLOCK);
    for block in candidates.chunks(kernel::CAND_BLOCK) {
        scores.clear();
        ranker.score_block(items, block, &mut scores);
        for (&item, &score) in block.iter().zip(&scores) {
            heap.push(item, score);
        }
    }
    heap.into_sorted()
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
    fn scan_matches_full_sort() {
        let (model, items) = scripted(211, chunky_score);
        let candidates: Vec<u32> = (0..211u32).collect();
        let scored: Vec<(u32, f64)> = candidates.iter().map(|&i| (i, chunky_score(i))).collect();
        for n in [1usize, 5, 211, 221] {
            let got = scan_top_n(&model, &items, &[0, 0], &[1], &candidates, n);
            assert_eq!(got, full_sort(&scored, n), "n={n}");
        }
    }

    #[test]
    fn all_equal_scores_rank_by_item_id() {
        let (model, items) = scripted(40, |_| 0.25);
        let candidates: Vec<u32> = (0..40u32).rev().collect();
        let got = scan_top_n(&model, &items, &[0, 0], &[1], &candidates, 5);
        assert_eq!(got, vec![(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)]);
    }
}
