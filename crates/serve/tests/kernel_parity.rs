//! Kernel-parity sweep for the chunked scoring hot path and the top-N
//! scan driver over it.
//!
//! Four layers of pinning (the ≤1e-12 layer that holds the per-item
//! ranker to `gmlfm_core::reference` lives in `rank.rs`'s unit tests):
//!
//! 1. **Block scan ≡ per-item scan, bitwise** — `score_block` (the
//!    `CAND_BLOCK`-wide entry the list scan uses) must reproduce the
//!    per-item `score` loop bit for bit across every metric mode, factor
//!    widths around the kernel lane width, context widths from one
//!    feature to past `k`, and candidate counts straddling the block width
//!    (remainder-loop coverage on every axis).
//! 2. **Scan driver ≡ full sort, bitwise** — both candidate sources of
//!    the one driver (`scan_top_n` over a candidate list, a full-probe
//!    `IvfIndex::search`) at `F64` and `I8`, threads {1, 2, 5}, equal
//!    the shared full sort (`tests/common/top_n_reference.rs`): ids and
//!    score bits.
//! 3. **Low-precision tables** — the `f32` scan stays inside its
//!    documented error bound against the exact scores; the `i8` probe +
//!    exact re-rank returns scores **bitwise** the `f64` model's.
//! 4. **Group memo ≡ no memo, bitwise** — a model carrying
//!    `with_group_memo` returns the memo-less model's ids and score bits
//!    through every entry (per-item `score`, list scan, full probe),
//!    and a memo built over one catalogue never answers for another.

use gmlfm_core::Distance;
use gmlfm_par::Parallelism;
use gmlfm_serve::{scan_top_n, FrozenModel, IvfBuildOptions, IvfIndex, Precision, SecondOrder};
use gmlfm_tensor::init::normal;
use gmlfm_tensor::seeded_rng;
use proptest::prelude::*;
use top_n_reference::full_sort_top_n;

#[path = "common/top_n_reference.rs"]
mod top_n_reference;

const N_USERS: usize = 4;
const N_ATTRS: usize = 9;

/// One candidate count per interesting remainder class of the 32-wide
/// candidate block — below, at, one past, and two-blocks-plus-remainder
/// — plus 1 and 4, fewer candidates than a 5-thread scan has shards.
const CAND_COUNTS: [usize; 6] = [1, 4, 31, 32, 33, 65];

/// Factor widths around the 8-lane kernel chunk: below one chunk, one
/// chunk (the serving fixture's k), one past it, two and three chunks.
const KS: [usize; 7] = [1, 2, 7, 8, 9, 16, 24];

/// Context widths of the fixtures that are not wide, by index: one
/// feature, two (the serving fixture's), three (odd, so the transposed
/// weighted kernel's last block has an empty half), and `k`.
fn ctx_width(idx: usize, k: usize) -> usize {
    [1, 2, 3, k][idx]
}

struct Fixture {
    model: FrozenModel,
    items: Vec<Vec<u32>>,
    template: Vec<u32>,
    item_slots: Vec<usize>,
}

/// A model + catalogue in every second-order mode the ranker serves.
/// `mode` also selects the context width: modes 1 and 3 run the weighted
/// and unweighted SquaredEuclidean direct delta forms at 25 context
/// features, wider than any `k` in `KS`; every other mode has a
/// context of `ctx` features.
fn fixture(mode: usize, k: usize, n_items: usize, seed: u64, ctx: usize) -> Fixture {
    let dim = N_USERS + n_items + N_ATTRS;
    let mut rng = seeded_rng(seed);
    let v = normal(&mut rng, dim, k, 0.0, 0.4);
    let v_hat = normal(&mut rng, dim, k, 0.0, 0.4);
    let h = normal(&mut rng, 1, k, 0.0, 0.4).into_vec();
    let w = normal(&mut rng, 1, dim, 0.0, 0.1).into_vec();
    let q: Vec<f64> = (0..dim).map(|r| v_hat.row(r).iter().map(|x| x * x).sum()).collect();
    let metric = |h: Option<Vec<f64>>, d: Distance| SecondOrder::metric(v_hat.clone(), q.clone(), h, d);
    let (second, wide_ctx) = match mode {
        0 => (metric(Some(h), Distance::SquaredEuclidean), false),
        1 => (metric(Some(h), Distance::SquaredEuclidean), true),
        2 => (metric(None, Distance::SquaredEuclidean), false),
        3 => (metric(None, Distance::SquaredEuclidean), true),
        4 => (metric(Some(h), Distance::Manhattan), false),
        5 => (metric(None, Distance::Chebyshev), false),
        6 => (metric(Some(h), Distance::Cosine), false),
        7 => (SecondOrder::Translated { v_trans: normal(&mut rng, dim, k, 0.0, 0.3) }, false),
        _ => (SecondOrder::Dot, false),
    };
    let model = FrozenModel::from_parts(0.1, w, v, second);
    let items: Vec<Vec<u32>> = (0..n_items)
        .map(|i| vec![(N_USERS + i) as u32, (N_USERS + n_items + (i * 7 + 3) % N_ATTRS) as u32])
        .collect();
    // The template: the user, user-side attributes up to the context
    // width (indices repeat, which is legal), then the two item slots,
    // filled per candidate.
    let width = if wide_ctx { 25 } else { ctx };
    let mut template = vec![1u32];
    template.extend((1..width).map(|a| (N_USERS + n_items + a % N_ATTRS) as u32));
    template.extend([0, 0]);
    let item_slots = vec![width, width + 1];
    Fixture { model, items, template, item_slots }
}

impl Fixture {
    /// The slow, obviously-right oracle every fast path is held to: the
    /// shared full sort over the whole catalogue.
    fn full_sort(&self, n: usize) -> Vec<(u32, f64)> {
        let all = 0..self.items.len() as u32;
        full_sort_top_n(&self.model, &self.items, &self.template, &self.item_slots, all, n)
    }

    fn scan(&self, n: usize, precision: Precision, threads: usize) -> Vec<(u32, f64)> {
        let candidates: Vec<u32> = (0..self.items.len() as u32).collect();
        let par = Parallelism::threads(threads);
        scan_top_n(&self.model, &self.items, &self.template, &self.item_slots, &candidates, n, precision, par)
    }
}

/// Ids and score bits.
fn assert_same_ranking(got: &[(u32, f64)], want: &[(u32, f64)], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}", what);
    for (g, w) in got.iter().zip(want) {
        prop_assert_eq!(g.0, w.0, "{}", what);
        prop_assert_eq!(g.1.to_bits(), w.1.to_bits(), "{}: {} vs {}", what, g.1, w.1);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Layer 1: the block entry is the per-item loop, bit for bit.
    #[test]
    fn block_scan_is_bitwise_the_per_item_scan(
        mode in 0usize..9,
        k_idx in 0usize..KS.len(),
        count_idx in 0usize..CAND_COUNTS.len(),
        ctx_idx in 0usize..4,
        seed in 0u64..50,
    ) {
        let count = CAND_COUNTS[count_idx];
        let fx = fixture(mode, KS[k_idx], count, seed, ctx_width(ctx_idx, KS[k_idx]));
        let candidates: Vec<u32> = (0..count as u32).collect();
        let mut per_item = fx.model.ranker(&fx.template, &fx.item_slots);
        let mut blocked = fx.model.ranker(&fx.template, &fx.item_slots);
        let mut scores = Vec::new();
        for block in candidates.chunks(gmlfm_serve::kernel::CAND_BLOCK) {
            blocked.score_block(&fx.items, block, &mut scores);
        }
        prop_assert_eq!(scores.len(), count);
        for (&item, b) in candidates.iter().zip(&scores) {
            let p = per_item.score(&fx.items[item as usize]);
            prop_assert_eq!(
                p.to_bits(), b.to_bits(),
                "mode {} k {} |ctx| {} count {} item {}: per-item {} vs blocked {}",
                mode, KS[k_idx], fx.template.len() - 2, count, item, p, b
            );
        }
    }

    /// Layer 2: the one scan driver, through both of its candidate
    /// sources, equals the full sort of per-item scores — at every
    /// thread count, and at `I8` as at `F64` (every count here fits the
    /// i8 probe's over-fetched pool, so the probe drops nothing and the
    /// exact re-rank must reproduce the oracle; modes without the
    /// low-precision tables fall back to the exact scan).
    #[test]
    fn scan_driver_matches_the_full_sort(
        mode in 0usize..9,
        k_idx in 0usize..KS.len(),
        count_idx in 0usize..CAND_COUNTS.len(),
        n_kind in 0usize..5,
        ctx_idx in 0usize..4,
        seed in 0u64..50,
    ) {
        let count = CAND_COUNTS[count_idx];
        let mut fx = fixture(mode, KS[k_idx], count, seed, ctx_width(ctx_idx, KS[k_idx]));
        fx.model = fx.model.with_precision(Precision::I8);
        // `usize::MAX` is what the wire decodes a hostile `n` to.
        let n = [1, 10, count, count + 10, usize::MAX][n_kind];
        let want = fx.full_sort(n);
        let opts = IvfBuildOptions { clusters: Some(3), ..IvfBuildOptions::default() };
        let index = IvfIndex::build(&fx.model, &fx.items, &opts, Parallelism::serial());
        // Only the squared-Euclidean metric modes have the index's
        // linearisation.
        prop_assert_eq!(index.is_some(), mode < 4);
        for precision in [Precision::F64, Precision::I8] {
            for threads in [1usize, 2, 5] {
                let what = format!(
                    "mode {mode} k {} |ctx| {} count {count} n {n} {precision:?} threads {threads}",
                    KS[k_idx], fx.template.len() - 2
                );
                assert_same_ranking(&fx.scan(n, precision, threads), &want, &format!("list, {what}"))?;
                let Some(index) = &index else { continue };
                let probed = index.search(
                    &fx.model,
                    &fx.items,
                    &fx.template,
                    &fx.item_slots,
                    n,
                    index.n_clusters(),
                    &|_| false,
                    precision,
                );
                assert_same_ranking(&probed, &want, &format!("full probe, {what}"))?;
            }
        }
    }
}

/// Layer 3a: the `f32` scan stays inside its documented error bound
/// against the exact scores of the same items.
#[test]
fn f32_scan_is_error_bounded_against_f64() {
    for seed in [3u64, 17, 40] {
        let mut fx = fixture(0, 8, 200, seed, 1);
        fx.model = fx.model.with_precision(Precision::F32);
        assert_eq!(fx.model.precision(), Precision::F32);
        let got = fx.scan(200, Precision::F32, 2);
        assert_eq!(got.len(), 200);
        let mut exact = fx.model.ranker(&fx.template, &fx.item_slots);
        let mut approximated = false;
        for (item, approx) in &got {
            let want = exact.score(&fx.items[*item as usize]);
            approximated |= approx.to_bits() != want.to_bits();
            assert!(
                (approx - want).abs() <= 1e-5 * want.abs().max(1.0),
                "seed {seed} item {item}: f32 {approx} vs f64 {want}"
            );
        }
        assert!(approximated, "seed {seed}: an f32 list scan returns the table scores, not a re-rank");
    }
}

/// Layer 3b: the `i8` scan over-fetches and re-ranks exactly, so its
/// returned scores are **bitwise** the exact ranker's — and with the
/// 8x pool on a smooth synthetic model, the returned ranking is the
/// exact top-n itself.
#[test]
fn i8_scan_returns_bitwise_exact_scores() {
    for seed in [5u64, 23, 41] {
        let mut fx = fixture(0, 8, 300, seed, 1);
        fx.model = fx.model.with_precision(Precision::I8);
        let n = 10;
        let got = fx.scan(n, Precision::I8, 3);
        assert_eq!(got.len(), n);
        let mut exact = fx.model.ranker(&fx.template, &fx.item_slots);
        for (item, score) in &got {
            let want = exact.score(&fx.items[*item as usize]);
            assert_eq!(
                score.to_bits(),
                want.to_bits(),
                "seed {seed} item {item}: i8 re-rank must return the exact score"
            );
        }
        assert_eq!(got, fx.full_sort(n), "seed {seed}: 8x pool covers the exact top-{n} here");
    }
}

/// Layer 3c: the IVF probe at `i8` keeps the index contract — returned
/// scores bitwise the model's — and a full probe with the quantized
/// scan still reproduces the exact retrieval on this fixture.
#[test]
fn i8_ivf_probe_keeps_scores_bitwise_exact() {
    let mut fx = fixture(0, 8, 300, 13, 1);
    fx.model = fx.model.with_precision(Precision::I8);
    let opts = IvfBuildOptions { clusters: Some(12), ..IvfBuildOptions::default() };
    let index = IvfIndex::build(&fx.model, &fx.items, &opts, Parallelism::serial()).expect("metric model");
    let n = 10;
    for threads in [1usize, 3] {
        let search = |precision| {
            index.search(
                &fx.model,
                &fx.items,
                &fx.template,
                &fx.item_slots,
                n,
                index.n_clusters(),
                &|_| false,
                precision,
            )
        };
        let got = search(Precision::I8);
        let mut ranker = fx.model.ranker(&fx.template, &fx.item_slots);
        for (item, score) in &got {
            let want = ranker.score(&fx.items[*item as usize]);
            assert_eq!(score.to_bits(), want.to_bits(), "threads {threads} item {item}");
        }
        assert_eq!(
            got,
            search(Precision::F64),
            "threads {threads}: full i8 probe matches the exact search here"
        );
    }
}

/// Ids and score bits of every entry the memo can reach — per-item
/// `score`, the list scan and a full-probe index search at threads
/// {1, 2, 5} — for `model` over `fx`'s catalogue and request.
fn every_entry(fx: &Fixture, model: &FrozenModel) -> Vec<(u32, u64)> {
    let mut ranker = model.ranker(&fx.template, &fx.item_slots);
    let mut out: Vec<(u32, f64)> = fx
        .items
        .iter()
        .enumerate()
        .map(|(i, feats)| (i as u32, ranker.score(feats)))
        .collect();
    let candidates: Vec<u32> = (0..fx.items.len() as u32).collect();
    let n = fx.items.len().min(10);
    let opts = IvfBuildOptions { clusters: Some(3), ..IvfBuildOptions::default() };
    let index = IvfIndex::build(model, &fx.items, &opts, Parallelism::serial());
    for threads in [1usize, 2, 5] {
        let par = Parallelism::threads(threads);
        out.extend(scan_top_n(
            model,
            &fx.items,
            &fx.template,
            &fx.item_slots,
            &candidates,
            n,
            Precision::F64,
            par,
        ));
        if let Some(index) = &index {
            out.extend(index.search(
                model,
                &fx.items,
                &fx.template,
                &fx.item_slots,
                n,
                index.n_clusters(),
                &|_| false,
                Precision::F64,
            ));
        }
    }
    out.into_iter().map(|(item, score)| (item, score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Layer 4: the memo changes no bit, in any mode (TransFM declines
    /// it and must still agree), through any entry.
    #[test]
    fn group_memo_is_bitwise_the_direct_evaluation(
        mode in 0usize..9,
        k_idx in 0usize..KS.len(),
        count_idx in 0usize..CAND_COUNTS.len(),
        ctx_idx in 0usize..4,
        seed in 0u64..50,
    ) {
        let fx = fixture(mode, KS[k_idx], CAND_COUNTS[count_idx], seed, ctx_width(ctx_idx, KS[k_idx]));
        let memoised = fx.model.clone().with_group_memo(&fx.items);
        prop_assert_eq!(
            every_entry(&fx, &memoised), every_entry(&fx, &fx.model),
            "mode {} k {} count {}", mode, KS[k_idx], CAND_COUNTS[count_idx]
        );
    }

    /// Layer 4: a memo built over catalogue A, met by catalogue B — same
    /// size and item ids, attributes permuted, and two items sharing one
    /// id feature — returns B's own bits: entries whose whole group does
    /// not match are not used. A memo built over B itself (where the
    /// shared id keeps one of the two groups) agrees as well.
    #[test]
    fn group_memo_cannot_answer_for_another_catalogue(
        mode in 0usize..9,
        k_idx in 0usize..KS.len(),
        ctx_idx in 0usize..4,
        seed in 0u64..50,
    ) {
        let mut fx = fixture(mode, KS[k_idx], 65, seed, ctx_width(ctx_idx, KS[k_idx]));
        let over_a = fx.model.clone().with_group_memo(&fx.items);
        let attr_lo = (N_USERS + fx.items.len()) as u32;
        for (i, feats) in fx.items.iter_mut().enumerate() {
            feats[1] = attr_lo + ((i * 5 + 1) % N_ATTRS) as u32;
        }
        fx.items[40][0] = fx.items[12][0];
        let want = every_entry(&fx, &fx.model);
        prop_assert_eq!(every_entry(&fx, &over_a), want.clone(), "memo over A, mode {}", mode);
        let over_b = fx.model.clone().with_group_memo(&fx.items);
        prop_assert_eq!(every_entry(&fx, &over_b), want, "memo over B, mode {}", mode);
    }
}
