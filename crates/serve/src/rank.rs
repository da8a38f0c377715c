//! Top-N ranking over a frozen model.
//!
//! Leave-one-out ranking scores one context (user + side attributes)
//! against hundreds of candidate items. The autograd path rebuilds the
//! full forward for every candidate — `O(items × full-forward)`. The
//! ranker here folds the context-side pairs into a cached context score
//! once, then scores each candidate with only the item-side delta: its
//! cross pairs against the fixed context — `O(|ctx|·k)` per candidate
//! feature (`O(k)` for vanilla FM, through `a = Σ_ctx v_f`) — plus its
//! within-group pairs. Each mode has one delta form, chosen by the model
//! alone and never by how many features a request carries: a serving
//! context holds a few features against a `k` of 8–16, where the
//! paper's Eq. 10/11 partial sums (`O(k²)` per candidate feature; see
//! `gmlfm_core::efficient`) cost more than the pairs they replace. No
//! mode re-evaluates the full spliced template, and no mode allocates
//! per score.
//!
//! There is one pair form: outside the two staged cross deltas (vanilla
//! FM's `a`, the weighted squared-Euclidean transposed pass), every pair
//! the ranker evaluates is the model's `FrozenModel::pair_term` — the
//! context score and the within-group term are
//! `FrozenModel::second_order` of the context and of the candidate
//! group, and every other metric's cross pairs are summed over the
//! context. The within-group pairs depend on the model and the item
//! only, so a model memoised for the catalogue
//! ([`FrozenModel::with_group_memo`]) reads them instead (every mode but
//! TransFM, whose pairs are oriented by the request's slot positions).
//!
//! A candidate is a *group* of features (the item id plus its attribute
//! values), declared as slot positions in a template instance, so
//! datasets with item-side attributes rank exactly like plain
//! user × item ones.

use crate::frozen::{dot, FrozenModel, HatQ, SecondOrder};
use crate::index::ItemFeatureSource;
use crate::kernel;
use crate::lowp::{LowPrec, Precision};
use gmlfm_core::Distance;
use gmlfm_tensor::Matrix;
use std::sync::Arc;

/// Context-side scoring state, by second-order mode. Each variant
/// carries the model tables its delta formula reads, attached when the
/// state is built — so the per-candidate dispatch is a single exhaustive
/// match with no "mode disagrees with state" arm to fall into.
enum State<'m> {
    /// Modes whose cross pairs decouple per candidate feature; scored
    /// through [`Cross`].
    Decoupled(Cross<'m>),
    /// TransFM: cross pairs against the fixed context, oriented by
    /// template position (the translated distance is order-dependent) —
    /// `O(|ctx|·k)` per candidate feature, allocation-free.
    Translated { v_trans: &'m Matrix },
}

/// Context-side state for the modes whose cross pairs decouple per
/// candidate feature.
enum Cross<'m> {
    /// Vanilla FM: `a = Σ_ctx v_f` — `O(k)` per candidate feature.
    Dot { a: Vec<f64> },
    /// Weighted metric: cross pairs iterated directly over the context
    /// features — `O(|ctx|·k)` per candidate feature, allocation-free.
    /// The context side is staged once, transposed: context
    /// features `2b` and `2b + 1` share block `b` of `lanes` (`k` lane
    /// rows), whose lane `d` holds `[hw₂ᵦ[d], hw₂ᵦ₊₁[d], vh₂ᵦ[d],
    /// vh₂ᵦ₊₁[d]]` with `hwᵢ = h ⊙ vᵢ` and `vhᵢ = v̂ᵢ` (zero columns past an
    /// odd context's last feature), and `q` holds the norms. One
    /// [`kernel::dot_columns`] pass over the candidate's `vⱼ`/`v̂ⱼ` rows
    /// yields a block's four dots `wᵢⱼ = hwᵢ·vⱼ` and `vhᵢ·v̂ⱼ`, each with
    /// [`kernel::dot`]'s bits.
    MetricWeightedDirect { hat: &'m HatQ, lanes: Vec<[f64; kernel::COLS]>, q: Vec<f64> },
    /// Every other metric (unweighted squared Euclidean, Manhattan,
    /// Chebyshev, cosine): [`FrozenModel::pair_term`] against each
    /// context feature, read from the model's rows — `O(|ctx|·k)` per
    /// candidate feature, allocation-free. The unweighted
    /// squared-Euclidean term is a difference-form [`kernel::sq_dist`],
    /// never the expanded `u + m·qⱼ − 2⟨s, v̂ⱼ⟩`: that form rounds at
    /// `O(ε·‖v̂‖²)` where the true distance is `O(δ²)`, and loses the order
    /// of near-identical items.
    MetricPairwise,
}

/// Scores candidate items against a fixed context in `O(item-delta)` per
/// candidate. Build one with [`FrozenModel::ranker`].
pub struct TopNRanker<'m> {
    model: &'m FrozenModel,
    item_slots: Vec<usize>,
    /// Fixed context features (template minus item slots), in template
    /// order.
    ctx: Vec<u32>,
    /// Template positions of the context features (drives the pair
    /// orientation in the order-dependent TransFM mode).
    ctx_pos: Vec<usize>,
    /// `w₀ + Σ_ctx w[f] + second-order(ctx)`.
    ctx_score: f64,
    state: State<'m>,
    /// Per-request cross-delta tables, one per item slot: empty until the
    /// first [`TopNRanker::score_block`] call materialises them.
    tables: ScanTables,
}

/// Widest slot range materialised as a dense cross-delta table.
const DENSE_SLOT_CAP: u32 = 512;

/// A slot must repeat at least this many times on average across the
/// catalogue before its table pays for itself — below that, eager
/// materialisation does more delta evaluations than the scan it serves.
const DENSE_MIN_REPEAT: u64 = 4;

/// Dense per-request cross-delta tables, one [`SlotTable`] per item slot
/// in slot order, materialised from the item source's
/// [`ItemFeatureSource::slot_ranges`] by the first
/// [`TopNRanker::score_block`] call — the list scan's first run, or the
/// IVF re-rank's first probed cluster.
///
/// Candidate *attribute* features (category, condition, …) draw from a
/// few dozen ids repeated across the whole catalogue, so their
/// context × candidate cross deltas are request constants.
/// Materialising them once turns the per-candidate cost into one array
/// read per attribute slot plus the item-id work that is genuinely
/// unique per candidate. High-cardinality slots (the item id),
/// out-of-range lookups and TransFM (whose pairs are oriented by slot
/// position) fall back to direct evaluation, so a table is never
/// required for correctness. Every table entry holds the exact bits the
/// direct evaluation produces, so a score reads the same bits with the
/// tables as without them.
struct ScanTables {
    slots: Vec<SlotTable>,
    /// Whether `slots` were materialised from an item source (before,
    /// every table is empty).
    built: bool,
}

/// Cross deltas for one item slot: `vals[f - lo] = cross_delta(f)` over
/// the slot's whole id range, or no values where the slot is too wide to
/// table (every lookup then misses and evaluates directly).
struct SlotTable {
    lo: u32,
    vals: Vec<f64>,
}

impl ScanTables {
    /// `n_slots` empty tables: every lookup evaluates directly.
    fn empty(n_slots: usize) -> ScanTables {
        let slots = (0..n_slots).map(|_| SlotTable { lo: 0, vals: Vec::new() }).collect();
        ScanTables { slots, built: false }
    }

    /// Materialises the tables for one ranking request: all empty
    /// without a decoupled cross form or known slot ranges.
    fn build<S: ItemFeatureSource + ?Sized>(
        model: &FrozenModel,
        ctx: &[u32],
        state: &State<'_>,
        n_slots: usize,
        items: &S,
    ) -> ScanTables {
        let ranges = items.slot_ranges().filter(|ranges| ranges.len() == n_slots);
        let (State::Decoupled(cross), Some(ranges)) = (state, ranges) else {
            return ScanTables { built: true, ..ScanTables::empty(n_slots) };
        };
        let n_items = items.item_count() as u64;
        let dim = model.w.len() as u32;
        let slots = ranges
            .iter()
            .map(|&(lo, hi)| {
                let width = (lo <= hi && hi < dim).then(|| (hi - lo) as u64 + 1);
                let vals = match width {
                    Some(w) if w <= DENSE_SLOT_CAP as u64 && w * DENSE_MIN_REPEAT <= n_items => {
                        (lo..=hi).map(|f| cross_delta(model, ctx, cross, f)).collect()
                    }
                    _ => Vec::new(),
                };
                SlotTable { lo, vals }
            })
            .collect();
        ScanTables { slots, built: true }
    }
}

impl<'m> TopNRanker<'m> {
    pub(crate) fn new(model: &'m FrozenModel, template: &[u32], item_slots: &[usize]) -> Self {
        assert!(
            item_slots.iter().all(|&s| s < template.len()),
            "TopNRanker: item slot out of bounds for template of {} fields",
            template.len()
        );
        let mut ctx = Vec::with_capacity(template.len() - item_slots.len());
        let mut ctx_pos = Vec::with_capacity(ctx.capacity());
        for (p, &f) in template.iter().enumerate() {
            if !item_slots.contains(&p) {
                ctx.push(f);
                ctx_pos.push(p);
            }
        }
        let mut ctx_score = model.w0;
        for &f in &ctx {
            ctx_score += model.w[f as usize];
        }
        ctx_score += model.second_order(&ctx);
        let state = Self::build_state(model, &ctx);
        let tables = ScanTables::empty(item_slots.len());
        Self { model, item_slots: item_slots.to_vec(), ctx, ctx_pos, ctx_score, state, tables }
    }

    fn build_state(model: &'m FrozenModel, ctx: &[u32]) -> State<'m> {
        let k = model.k();
        match &model.second {
            SecondOrder::Dot => {
                let mut a = vec![0.0; k];
                for &f in ctx {
                    for (slot, &vv) in a.iter_mut().zip(model.v.row(f as usize)) {
                        *slot += vv;
                    }
                }
                State::Decoupled(Cross::Dot { a })
            }
            SecondOrder::Metric { distance: Distance::SquaredEuclidean, hat, h: Some(h) } => {
                let mut lanes = vec![[0.0; kernel::COLS]; ctx.len().div_ceil(2) * k];
                let mut q = Vec::with_capacity(ctx.len());
                for (p, &i) in ctx.iter().enumerate() {
                    let block = &mut lanes[p / 2 * k..(p / 2 + 1) * k];
                    let vi = model.v.row(i as usize);
                    let (vhi, qi) = hat.row(i as usize);
                    for (d, lane) in block.iter_mut().enumerate() {
                        lane[p % 2] = h[d] * vi[d];
                        lane[2 + p % 2] = vhi[d];
                    }
                    q.push(qi);
                }
                State::Decoupled(Cross::MetricWeightedDirect { hat, lanes, q })
            }
            SecondOrder::Metric { .. } => State::Decoupled(Cross::MetricPairwise),
            SecondOrder::Translated { v_trans } => State::Translated { v_trans },
        }
    }

    /// Number of fixed context features.
    pub fn context_len(&self) -> usize {
        self.ctx.len()
    }

    /// The fixed context features (template minus item slots), in
    /// template order — what the IVF index derives its query-side
    /// linearisation from.
    pub(crate) fn context_features(&self) -> &[u32] {
        &self.ctx
    }

    /// `w₀ + Σ_ctx w[f] + second-order(ctx)` — the context-only part of
    /// every candidate's score.
    pub(crate) fn context_score(&self) -> f64 {
        self.ctx_score
    }

    /// Scores one candidate: `item_feats` fills the template's item slots
    /// (same order). Equal to [`FrozenModel::predict`] on the substituted
    /// instance, up to float re-association in the delta paths.
    pub fn score(&mut self, item_feats: &[u32]) -> f64 {
        match &self.state {
            State::Decoupled(cross) => {
                candidate_score(self.model, &self.ctx, self.ctx_score, cross, &self.tables.slots, item_feats)
            }
            State::Translated { v_trans } => {
                let mut out = first_order(self.model, self.ctx_score, item_feats, self.item_slots.len());
                for (&slot, &f) in self.item_slots.iter().zip(item_feats) {
                    out += self.translated_cross_delta(v_trans, slot, f);
                }
                // Pairs within the candidate group, oriented by slot
                // position.
                out + self.translated_candidate_pairs(v_trans, item_feats)
            }
        }
    }

    /// TransFM cross pairs for one candidate feature `j` sitting at
    /// template position `slot`: the pair points from the feature that
    /// comes first in the template, exactly as the pairwise reference
    /// iterates the spliced instance.
    fn translated_cross_delta(&self, v_trans: &Matrix, slot: usize, j: u32) -> f64 {
        let model = self.model;
        let mut out = 0.0;
        for (&pos, &i) in self.ctx_pos.iter().zip(&self.ctx) {
            out += if pos < slot {
                model.translated_pair(v_trans, i, j)
            } else {
                model.translated_pair(v_trans, j, i)
            };
        }
        out
    }

    /// TransFM pairs within the candidate group, oriented by the slot
    /// positions (item slots need not be sorted).
    fn translated_candidate_pairs(&self, v_trans: &Matrix, item_feats: &[u32]) -> f64 {
        let model = self.model;
        let mut out = 0.0;
        for a in 0..item_feats.len() {
            for b in a + 1..item_feats.len() {
                let (fa, fb) = (item_feats[a], item_feats[b]);
                out += if self.item_slots[a] < self.item_slots[b] {
                    model.translated_pair(v_trans, fa, fb)
                } else {
                    model.translated_pair(v_trans, fb, fa)
                };
            }
        }
        out
    }

    /// Scores a block of candidate items, appending one score per id to
    /// `out` — bitwise identical to calling [`TopNRanker::score`] on
    /// each id in order. This is the batched entry of both scan sources:
    /// the list scan drives it in [`kernel::CAND_BLOCK`]-sized runs and
    /// the IVF re-rank once per probed cluster's survivors. The state
    /// dispatch is hoisted out of the per-candidate loop, and the first
    /// block materialises the dense slot tables from `items`, which every
    /// later score reads (table entries hold the bits the direct
    /// evaluation produces, so the tables cannot change a score).
    pub fn score_block<S: ItemFeatureSource + ?Sized>(&mut self, items: &S, ids: &[u32], out: &mut Vec<f64>) {
        if !self.tables.built {
            self.tables = ScanTables::build(self.model, &self.ctx, &self.state, self.item_slots.len(), items);
        }
        let State::Decoupled(cross) = &self.state else {
            return out.extend(ids.iter().map(|&id| self.score(items.features_of(id))));
        };
        let (model, ctx, ctx_score, slots) =
            (self.model, self.ctx.as_slice(), self.ctx_score, &self.tables.slots);
        out.extend(
            ids.iter()
                .map(|&id| candidate_score(model, ctx, ctx_score, cross, slots, items.features_of(id))),
        );
    }
}

/// `ctx_score + Σ w[f]` over a candidate's features, after checking it
/// fills the template's `n_slots` item slots.
#[inline]
fn first_order(model: &FrozenModel, ctx_score: f64, item_feats: &[u32], n_slots: usize) -> f64 {
    assert_eq!(
        item_feats.len(),
        n_slots,
        "TopNRanker::score: candidate has {} features, template has {} item slots",
        item_feats.len(),
        n_slots
    );
    let mut out = ctx_score;
    for &f in item_feats {
        out += model.w[f as usize];
    }
    out
}

/// The one per-candidate body of the decoupled modes, behind both
/// [`TopNRanker::score`] and [`TopNRanker::score_block`]: a candidate
/// feature whose slot table holds it reads its cross delta from there
/// (the bits [`cross_delta`] returns), every other feature evaluates it.
#[inline(always)]
fn candidate_score(
    model: &FrozenModel,
    ctx: &[u32],
    ctx_score: f64,
    cross: &Cross<'_>,
    slots: &[SlotTable],
    item_feats: &[u32],
) -> f64 {
    let mut out = first_order(model, ctx_score, item_feats, slots.len());
    for (table, &f) in slots.iter().zip(item_feats) {
        out += match table.vals.get(f.wrapping_sub(table.lo) as usize) {
            Some(&v) => v,
            None => cross_delta(model, ctx, cross, f),
        };
    }
    // Pairs within the candidate group (item id × its attributes): a
    // model-and-item constant, read from the generation's memo when it
    // holds this exact group.
    out + match model.group_memo.as_ref().and_then(|memo| memo.get(item_feats)) {
        Some(pairs) => pairs,
        None => model.second_order(item_feats),
    }
}

/// `Σ_{i ∈ ctx} w_ij · D(v̂ᵢ, v̂ⱼ)` for one candidate feature `j`, from
/// the staged context — free-standing so the table build can call it
/// without a ranker.
#[inline]
fn cross_delta(model: &FrozenModel, ctx: &[u32], cross: &Cross<'_>, j: u32) -> f64 {
    let k = model.k();
    let vj = model.v.row(j as usize);
    match cross {
        Cross::Dot { a } => dot(a, vj),
        Cross::MetricWeightedDirect { hat, lanes, q } => {
            let (vhj, qj) = hat.row(j as usize);
            let mut out = 0.0;
            let mut rest = lanes.as_slice();
            for qs in q.chunks(2) {
                let (block, next) = rest.split_at(k);
                rest = next;
                let [w0, w1, d0, d1] = kernel::dot_columns(block, vj, vhj);
                out += w0 * (qs[0] + qj - 2.0 * d0);
                if let Some(&q1) = qs.get(1) {
                    out += w1 * (q1 + qj - 2.0 * d1);
                }
            }
            out
        }
        Cross::MetricPairwise => ctx.iter().fold(0.0, |out, &i| out + model.pair_term(i, j)),
    }
}

/// The within-group pair term of every catalogue item, computed once per
/// model generation ([`FrozenModel::with_group_memo`]): `Σ_{a<b} w_ab ·
/// D(v̂_a, v̂_b)` over an item's own feature group depends on the model
/// and the item only — never on the user — so the scan need not
/// re-evaluate it per request.
///
/// A dense table keyed by the feature id of the widest item slot (the
/// item id, in every catalogue this workspace builds). Each entry holds
/// the *other* slots' feature ids and [`FrozenModel::second_order`] of
/// the whole group, the pair sum a memo-less scan evaluates. A lookup
/// compares the stored ids with the candidate's and answers only on a
/// full match, so the memo is a verified cache of a pure function of
/// the model: scanned against another catalogue, a colliding key or an
/// out-of-range id it misses — and the caller evaluates directly — but
/// it cannot return another group's bits.
///
/// Cloning shares the table. The three scalars sit in the model itself
/// and the table is the memo's one heap allocation — see
/// [`GroupMemo::build`] for why it makes no other.
#[derive(Clone)]
pub(crate) struct GroupMemo {
    /// Features per group (`≥ 2`).
    n_slots: usize,
    /// The item slot whose feature id keys the table (`< n_slots`).
    key_slot: usize,
    /// Smallest key-slot feature id: entry `f − lo` belongs to key `f`.
    lo: u32,
    /// `n_slots + 1` words per entry: the group's features outside the
    /// key slot, in slot order ([`GroupMemo::EMPTY`] where no item
    /// carries the key), then the low and high halves of the group
    /// term's bits — ids and value side by side, so a lookup
    /// from the index's scattered re-rank touches one cache line.
    table: Arc<[u32]>,
}

impl GroupMemo {
    /// Marks an entry no item filled. Never a feature id of the model
    /// the memo was built over ([`GroupMemo::build`] declines a model
    /// that wide), so a filled entry never starts with it.
    const EMPTY: u32 = u32::MAX;

    /// Builds the memo over `items`, or `None` where it cannot pay or
    /// cannot be keyed: TransFM (its pairs depend on the slot
    /// *positions*, which belong to the request's template), fewer than
    /// two item slots (no pairs), unknown or ragged slot ranges, a key
    /// range sparser than one item per two keys, or a feature outside
    /// the model.
    ///
    /// The table is allocated once, at its final size, and filled in
    /// place, and the pair sum allocates nothing: the build puts one
    /// block on the heap and nothing beside it. That is on purpose.
    /// It runs at install, after a process has freed the model's and
    /// the index's construction temporaries, so the heap is a few large
    /// holes; a small block of a size nothing has freed before is carved
    /// out of the middle of one and, freed, stays parked in the
    /// allocator's per-thread cache, splitting it. A process that
    /// rebuilds its snapshot then no longer fits the next generation's
    /// tables into the holes of the last (`bench_e2e` sets up three
    /// times: with a boxed header and a heap scratch here, the peak RSS
    /// of `req_topn_ivf` read 87 or 103 MB by the length of the
    /// executable's path).
    pub(crate) fn build<S: ItemFeatureSource + ?Sized>(model: &FrozenModel, items: &S) -> Option<Self> {
        if matches!(model.second, SecondOrder::Translated { .. }) {
            return None;
        }
        let dim = model.w.len();
        let ranges = items.slot_ranges()?;
        let n_slots = ranges.len();
        if n_slots < 2 || dim > Self::EMPTY as usize {
            return None;
        }
        let (key_slot, &(lo, hi)) =
            ranges.iter().enumerate().max_by_key(|&(_, &(lo, hi))| hi.saturating_sub(lo))?;
        let keys = hi.checked_sub(lo)? as usize + 1;
        if keys > items.item_count().saturating_mul(2) {
            return None;
        }
        let width = n_slots + 1;
        let mut table: Arc<[u32]> = std::iter::repeat_n(Self::EMPTY, keys * width).collect();
        let cells = Arc::get_mut(&mut table)?;
        for item in 0..items.item_count() as u32 {
            let feats = items.features_of(item);
            if feats.len() != n_slots || feats.iter().any(|&f| f as usize >= dim) {
                return None;
            }
            let key = feats[key_slot].wrapping_sub(lo) as usize;
            let entry = cells.get_mut(key * width..(key + 1) * width)?;
            let (before, after) = feats.split_at(key_slot);
            entry[..key_slot].copy_from_slice(before);
            entry[key_slot..n_slots - 1].copy_from_slice(&after[1..]);
            let bits = model.second_order(feats).to_bits();
            entry[n_slots - 1] = bits as u32;
            entry[n_slots] = (bits >> 32) as u32;
        }
        Some(Self { n_slots, key_slot, lo, table })
    }

    /// [`FrozenModel::second_order`] of `feats` when the memo holds
    /// exactly this group — bitwise what the direct evaluation returns —
    /// and `None` on any mismatch.
    #[inline]
    fn get(&self, feats: &[u32]) -> Option<f64> {
        if feats.len() != self.n_slots {
            return None;
        }
        let key = feats.get(self.key_slot)?.wrapping_sub(self.lo) as usize;
        let width = self.n_slots + 1;
        let entry = self.table.get(key.checked_mul(width)?..)?.get(..width)?;
        let (stored, bits) = entry.split_at(self.n_slots - 1);
        let (stored_before, stored_after) = stored.split_at(self.key_slot);
        let (before, after) = feats.split_at(self.key_slot);
        // Element by element: a group is a few ids, and slice `==` on
        // `u32` is a `bcmp` call.
        let same = |a: &[u32], b: &[u32]| a.iter().zip(b).all(|(x, y)| x == y);
        (stored.first() != Some(&Self::EMPTY)
            && same(stored_before, before)
            && same(stored_after, &after[1..]))
        .then(|| f64::from_bits(u64::from(bits[1]) << 32 | u64::from(bits[0])))
    }

    /// How many of `items`' groups the memo answers.
    #[cfg(test)]
    pub(crate) fn hits<S: ItemFeatureSource + ?Sized>(&self, items: &S) -> usize {
        (0..items.item_count() as u32)
            .filter(|&i| self.get(items.features_of(i)).is_some())
            .count()
    }
}

/// A summary: the tables are as long as the catalogue.
impl std::fmt::Debug for GroupMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupMemo")
            .field("key_slot", &self.key_slot)
            .field("lo", &self.lo)
            .field("keys", &(self.table.len() / (self.n_slots + 1)))
            .finish_non_exhaustive()
    }
}

/// Which table a request's candidate scan reads. [`ScanMode::choose`] is
/// the one place that decides between a low-precision scan and the exact
/// f64 fall-back, [`ScanMode::reranks`] the one place that decides
/// whether the scanned pool is re-scored exactly; `Low` carries the
/// resolved tables, so a [`Scanner`] built from it cannot disagree.
#[derive(Clone, Copy)]
pub(crate) enum ScanMode<'m> {
    /// Exact f64 scan through [`TopNRanker`].
    Exact,
    /// f32 (or dequantized-i8, when `quantized`) cross deltas over the
    /// model's low-precision tables.
    Low { lp: &'m LowPrec, hat: &'m HatQ, h: Option<&'m [f64]>, quantized: bool },
}

impl<'m> ScanMode<'m> {
    /// The scan a model serves `precision` with: low precision only when
    /// it was requested, the model carries the tables
    /// ([`FrozenModel::with_precision`]) and its second-order form has
    /// the decoupled squared-Euclidean delta they narrow — exact f64
    /// otherwise.
    pub(crate) fn choose(model: &'m FrozenModel, precision: Precision) -> Self {
        match (precision, model.lowp.as_deref(), &model.second) {
            (
                Precision::F32 | Precision::I8,
                Some(lp),
                SecondOrder::Metric { distance: Distance::SquaredEuclidean, hat, h },
            ) => ScanMode::Low { lp, hat, h: h.as_deref(), quantized: precision == Precision::I8 },
            _ => ScanMode::Exact,
        }
    }

    /// Whether the scanned pool must be re-scored by the exact f64
    /// ranker before it is returned: always after an i8 scan (the
    /// quantized tables are probe-only), after an f32 scan when the
    /// caller's contract is `exact_scores` (index probes), never after
    /// an exact scan.
    pub(crate) fn reranks(self, exact_scores: bool) -> bool {
        match self {
            ScanMode::Exact => false,
            ScanMode::Low { quantized, .. } => quantized || exact_scores,
        }
    }
}

/// Context-side partial sums for the low-precision scan, all narrowed
/// to f32 once at construction.
enum LowCross {
    /// Unweighted decoupled form: `u + m·qⱼ − 2⟨s, v̂ⱼ⟩` in f32.
    Unweighted { s: Vec<f32>, u: f32, m: f32 },
    /// Weighted form: per context feature `i`, the precomputed `h ⊙ vᵢ`
    /// row, the `v̂ᵢ` row, and `qᵢ` — flattened `|ctx| × k` row-major.
    WeightedDirect { hv: Vec<f32>, vh: Vec<f32>, q: Vec<f32>, k: usize },
}

impl LowCross {
    fn new(base: &TopNRanker<'_>, hat: &HatQ, h: Option<&[f64]>) -> Self {
        let model = base.model;
        let k = model.k();
        let Some(h) = h else {
            let mut s = vec![0.0f64; k];
            let mut u = 0.0f64;
            for &i in &base.ctx {
                let (vhi, qi) = hat.row(i as usize);
                u += qi;
                for (slot, &x) in s.iter_mut().zip(vhi) {
                    *slot += x;
                }
            }
            return LowCross::Unweighted {
                s: s.iter().map(|&x| x as f32).collect(),
                u: u as f32,
                m: base.ctx.len() as f32,
            };
        };
        let mut hv = Vec::with_capacity(base.ctx.len() * k);
        let mut vh = Vec::with_capacity(base.ctx.len() * k);
        let mut q = Vec::with_capacity(base.ctx.len());
        for &i in &base.ctx {
            let vi = model.v.row(i as usize);
            hv.extend(h.iter().zip(vi).map(|(&hr, &vr)| (hr * vr) as f32));
            let (vhi, qi) = hat.row(i as usize);
            vh.extend(vhi.iter().map(|&x| x as f32));
            q.push(qi as f32);
        }
        LowCross::WeightedDirect { hv, vh, q, k }
    }
}

/// The one candidate scanner of the top-N scan driver
/// ([`crate::topn`]): a [`TopNRanker`] scoring exactly, or — under
/// [`ScanMode::Low`] — the same context state with f32 (or
/// dequantized-i8) candidate deltas.
///
/// The low-precision score keeps the context score, first-order weights
/// and within-group second-order term in f64 — only the context ×
/// candidate cross delta (the part that streams the big tables) is low
/// precision.
pub(crate) struct Scanner<'m> {
    base: TopNRanker<'m>,
    low: Option<Low<'m>>,
}

/// The low-precision half of a [`Scanner`]: the narrowed context
/// partials and where the candidate-side f32 rows come from — straight
/// reads of the f32 tables, or (when `dequant` is set) per-candidate
/// dequantization of the i8 table into that scratch row (`[v̂ⱼ | vⱼ]`
/// when the table is paired).
struct Low<'m> {
    cross: LowCross,
    lp: &'m LowPrec,
    dequant: Option<Vec<f32>>,
}

impl<'m> Scanner<'m> {
    pub(crate) fn new(
        model: &'m FrozenModel,
        template: &[u32],
        item_slots: &[usize],
        mode: ScanMode<'m>,
    ) -> Self {
        let base = model.ranker(template, item_slots);
        let low = match mode {
            ScanMode::Exact => None,
            ScanMode::Low { lp, hat, h, quantized } => Some(Low {
                cross: LowCross::new(&base, hat, h),
                lp,
                dequant: quantized.then(|| vec![0.0f32; lp.qhat.row_width()]),
            }),
        };
        Self { base, low }
    }

    /// Scores one candidate: [`TopNRanker::score`], or its
    /// low-precision approximation.
    pub(crate) fn score(&mut self, item_feats: &[u32]) -> f64 {
        let Some(low) = &mut self.low else { return self.base.score(item_feats) };
        assert_eq!(
            item_feats.len(),
            self.base.item_slots.len(),
            "Scanner::score: candidate has {} features, template has {} item slots",
            item_feats.len(),
            self.base.item_slots.len()
        );
        let model = self.base.model;
        let mut out = self.base.ctx_score;
        for &f in item_feats {
            out += model.w[f as usize];
        }
        for &f in item_feats {
            out += low.cross_delta(f) as f64;
        }
        out + model.second_order(item_feats)
    }

    /// Scores a block of candidate items, appending one score per id to
    /// `out`: [`TopNRanker::score_block`], or [`Scanner::score`] per id
    /// in order.
    pub(crate) fn score_block<S: ItemFeatureSource + ?Sized>(
        &mut self,
        items: &S,
        ids: &[u32],
        out: &mut Vec<f64>,
    ) {
        if self.low.is_none() {
            return self.base.score_block(items, ids, out);
        }
        out.extend(ids.iter().map(|&id| self.score(items.features_of(id))));
    }
}

impl Low<'_> {
    /// The f32 cross delta for one candidate feature `j`.
    fn cross_delta(&mut self, j: u32) -> f32 {
        let (j, lp) = (j as usize, self.lp);
        let (vhj, qj, vj): (&[f32], f32, Option<&[f32]>) = match &mut self.dequant {
            None => {
                let (vh, q) = lp.hat32.row(j);
                (vh, q, lp.v32_row(j))
            }
            Some(scratch) => {
                lp.qhat.dequant_into(j, scratch);
                let (vh, v) = scratch.split_at(lp.qhat.k());
                (vh, lp.qhat.q(j), lp.qhat.paired().then_some(v))
            }
        };
        match &self.cross {
            LowCross::Unweighted { s, u, m } => u + m * qj - 2.0 * kernel::dot_f32(s, vhj),
            LowCross::WeightedDirect { hv, vh, q, k } => {
                // `vj` is always present here: the weighted cross is only
                // built when `LowPrec` carries the narrowed `V` tables.
                let Some(vj) = vj else { return 0.0 };
                let mut out = 0.0f32;
                for ((hvi, vhi), &qi) in hv.chunks_exact(*k).zip(vh.chunks_exact(*k)).zip(q) {
                    let w_ij = kernel::dot_f32(hvi, vj);
                    let d = qi + qj - 2.0 * kernel::dot_f32(vhi, vhj);
                    out += w_ij * d;
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_data::Instance;
    use gmlfm_tensor::init::normal;
    use gmlfm_tensor::seeded_rng;
    use proptest::prelude::*;

    /// The per-row form of the weighted cross delta that
    /// [`Cross::MetricWeightedDirect`]'s transposed pass replaced: per
    /// context feature `i`, `wᵢⱼ = kernel::dot(h ⊙ vᵢ, vⱼ)` and
    /// `qᵢ + qⱼ − 2·kernel::dot(v̂ᵢ, v̂ⱼ)`, summed in context order.
    fn weighted_direct_per_row(model: &FrozenModel, ctx: &[u32], j: u32) -> f64 {
        let SecondOrder::Metric { hat, h: Some(h), .. } = &model.second else {
            panic!("not a weighted metric model")
        };
        let (vhj, qj) = hat.row(j as usize);
        let mut out = 0.0;
        for &i in ctx {
            let hw: Vec<f64> = h.iter().zip(model.v.row(i as usize)).map(|(&hx, &vx)| hx * vx).collect();
            let (vhi, qi) = hat.row(i as usize);
            let w_ij = kernel::dot(&hw, model.v.row(j as usize));
            let d = qi + qj - 2.0 * kernel::dot(vhi, vhj);
            out += w_ij * d;
        }
        out
    }

    /// The transposed cross delta is the per-row one, `to_bits()` for
    /// `to_bits()`: at `k` below, at, one past and several chunks of the
    /// kernel width, contexts of one feature up to `k + 3`, odd and even
    /// (an odd one leaves a zero column in its last block), wider than
    /// `k` included — one form serves every width. `h` and the
    /// candidates' `v`/`v̂` rows carry zeros of both signs, so every
    /// candidate's dots include `−0.0` products and one candidate's are
    /// all `±0`.
    #[test]
    fn transposed_cross_delta_is_bitwise_the_per_row_dots() {
        for k in [1usize, 2, 7, 8, 9, 16, 17, 24, 64, 65, 72] {
            let (n_ctx, n_cand) = (k + 3, 12usize);
            let n = n_ctx + n_cand;
            let mut rng = seeded_rng(k as u64);
            let mut v = normal(&mut rng, n, k, 0.0, 0.5);
            let mut v_hat = normal(&mut rng, n, k, 0.0, 0.5);
            let mut h = normal(&mut rng, 1, k, 0.0, 0.5).into_vec();
            h[k / 2] = -0.0;
            for (c, r) in (n_ctx..n).enumerate() {
                for d in (c % 3..k).step_by(3) {
                    v.row_mut(r)[d] = if d % 2 == 0 { 0.0 } else { -0.0 };
                    v_hat.row_mut(r)[d] = if d % 2 == 0 { -0.0 } else { 0.0 };
                }
            }
            v.row_mut(n - 1).fill(-0.0);
            v_hat.row_mut(n - 1).fill(0.0);
            let q: Vec<f64> = (0..n).map(|r| dot(v_hat.row(r), v_hat.row(r))).collect();
            let w = vec![0.0; n];
            let model = FrozenModel::from_parts(
                0.0,
                w,
                v,
                SecondOrder::metric(v_hat, q, Some(h), Distance::SquaredEuclidean),
            );
            for m in [1, 2, 3, 4, 5].into_iter().filter(|&m| m < k).chain([k, k + 1, k + 3]) {
                let mut template: Vec<u32> = (0..m as u32).collect();
                template.push(0);
                let ranker = model.ranker(&template, &[m]);
                let State::Decoupled(cross @ Cross::MetricWeightedDirect { .. }) = &ranker.state else {
                    panic!("k {k}, |ctx| {m}: a weighted context stages the direct form")
                };
                for j in n_ctx as u32..n as u32 {
                    let got = cross_delta(&model, &ranker.ctx, cross, j);
                    let want = weighted_direct_per_row(&model, &ranker.ctx, j);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "k {k}, |ctx| {m}, candidate {j}: {got} vs {want}"
                    );
                }
            }
        }
    }

    fn metric_model(weighted: bool, distance: Distance, seed: u64) -> FrozenModel {
        let n = 40;
        let k = 5;
        let mut rng = seeded_rng(seed);
        let v = normal(&mut rng, n, k, 0.0, 0.5);
        let v_hat = normal(&mut rng, n, k, 0.0, 0.5);
        let q: Vec<f64> = (0..n).map(|r| dot(v_hat.row(r), v_hat.row(r))).collect();
        let h = weighted.then(|| normal(&mut rng, 1, k, 0.0, 0.5).into_vec());
        let w = normal(&mut rng, 1, n, 0.0, 0.1).into_vec();
        FrozenModel::from_parts(0.1, w, v, SecondOrder::metric(v_hat, q, h, distance))
    }

    fn translated_model(seed: u64) -> FrozenModel {
        let n = 40;
        let k = 5;
        let mut rng = seeded_rng(seed);
        let v = normal(&mut rng, n, k, 0.0, 0.5);
        let v_trans = normal(&mut rng, n, k, 0.0, 0.3);
        let w = normal(&mut rng, 1, n, 0.0, 0.1).into_vec();
        FrozenModel::from_parts(-0.3, w, v, SecondOrder::Translated { v_trans })
    }

    /// Template [user, item, user-attr, item-attr] with slots 1 and 3
    /// varying: the ranker must equal a fresh full prediction per
    /// candidate for every mode.
    #[test]
    fn ranker_matches_full_prediction_for_all_modes() {
        let models = [
            ("weighted-euclidean", metric_model(true, Distance::SquaredEuclidean, 1)),
            ("unweighted-euclidean", metric_model(false, Distance::SquaredEuclidean, 2)),
            ("manhattan", metric_model(true, Distance::Manhattan, 3)),
            ("chebyshev", metric_model(false, Distance::Chebyshev, 7)),
            ("cosine", metric_model(true, Distance::Cosine, 4)),
            ("translated", translated_model(5)),
        ];
        for (name, model) in &models {
            let template = vec![0u32, 10, 30, 20];
            let mut ranker = model.ranker(&template, &[1, 3]);
            assert_eq!(ranker.context_len(), 2);
            for cand in 0u32..8 {
                let item_feats = [10 + cand, 20 + cand];
                let got = ranker.score(&item_feats);
                let inst = Instance::new(vec![0, 10 + cand, 30, 20 + cand], 1.0);
                let want = model.predict(&inst);
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "{name} candidate {cand}: ranker {got} vs predict {want}"
                );
            }
        }
    }

    /// The translated mode is order-dependent, so it must stay exact for
    /// single-slot candidates anywhere in the template — including the
    /// first position, where every cross pair flips direction.
    #[test]
    fn translated_ranker_respects_pair_orientation() {
        let model = translated_model(9);
        for item_slot in [0usize, 1, 2, 3] {
            let template = vec![4u32, 12, 25, 33];
            let mut ranker = model.ranker(&template, &[item_slot]);
            for cand in 10u32..18 {
                let mut feats = template.clone();
                feats[item_slot] = cand;
                let got = ranker.score(&[cand]);
                let want = model.predict(&Instance::new(feats, 1.0));
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "slot {item_slot} cand {cand}: {got} vs {want}"
                );
            }
        }
    }

    /// Contexts wider than `k` score through the same delta forms as
    /// narrow ones; the scores must still match full predictions.
    #[test]
    fn wide_context_matches_full_prediction() {
        let n = 40;
        let k = 3; // narrower than the 5-field context below
        let mut rng = seeded_rng(8);
        let v = normal(&mut rng, n, k, 0.0, 0.5);
        let v_hat = normal(&mut rng, n, k, 0.0, 0.5);
        let q: Vec<f64> = (0..n).map(|r| dot(v_hat.row(r), v_hat.row(r))).collect();
        let h = Some(normal(&mut rng, 1, k, 0.0, 0.5).into_vec());
        let w = normal(&mut rng, 1, n, 0.0, 0.1).into_vec();
        let model =
            FrozenModel::from_parts(0.2, w, v, SecondOrder::metric(v_hat, q, h, Distance::SquaredEuclidean));
        let template = vec![0u32, 5, 11, 17, 23, 30];
        let mut ranker = model.ranker(&template, &[5]);
        assert_eq!(ranker.context_len(), 5);
        for cand in 30u32..38 {
            let got = ranker.score(&[cand]);
            let want = model.predict(&Instance::new(vec![0, 5, 11, 17, 23, cand], 1.0));
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0), "{got} vs {want}");
        }
    }

    #[test]
    fn ranker_handles_single_item_slot_and_dot_models() {
        let mut rng = seeded_rng(9);
        let v = normal(&mut rng, 30, 4, 0.0, 0.4);
        let w = normal(&mut rng, 1, 30, 0.0, 0.1).into_vec();
        let model = FrozenModel::from_parts(0.0, w, v, SecondOrder::Dot);
        let template = vec![3u32, 12, 25];
        let mut ranker = model.ranker(&template, &[1]);
        for cand in 10u32..20 {
            let got = ranker.score(&[cand]);
            let want = model.predict(&Instance::new(vec![3, cand, 25], 1.0));
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0), "{got} vs {want}");
        }
    }

    /// Regression (catastrophic cancellation): two items whose V̂ rows
    /// differ in ONE low-order mantissa bit must keep their true order.
    /// The expanded `u + m·q_j − 2⟨s, v̂_j⟩` form loses the distinction
    /// — its three O(‖v̂‖²) terms round independently, burying a
    /// one-ulp item difference under rounding noise — so contexts of
    /// every width take the direct `Σᵢ ‖v̂ᵢ − v̂ⱼ‖²` path, which
    /// subtracts before squaring: the duplicate's distance is exactly 0
    /// and the perturbed item's exactly δ² per context copy, matching the
    /// pairwise reference bitwise. A context of `k + 1` copies of the
    /// row is as exact as a context of one.
    #[test]
    fn near_duplicate_items_keep_their_true_order() {
        let n = 8;
        let k = 4;
        let mut rng = seeded_rng(11);
        let v = normal(&mut rng, n, k, 0.0, 0.5);
        let mut v_hat = normal(&mut rng, n, k, 0.0, 0.5);
        // Item 2 duplicates the single context row 0 exactly; item 3
        // additionally flips the lowest mantissa bit of coordinate 0.
        for c in 0..k {
            let x = v_hat.row(0)[c];
            v_hat.row_mut(2)[c] = x;
            v_hat.row_mut(3)[c] = x;
        }
        let perturbed = f64::from_bits(v_hat.row(3)[0].to_bits() + 1);
        v_hat.row_mut(3)[0] = perturbed;
        let delta = v_hat.row(0)[0] - perturbed;
        let q: Vec<f64> = (0..n).map(|r| dot(v_hat.row(r), v_hat.row(r))).collect();
        // Zero bias and linear weights: the whole score is the cross
        // distances (the context's own pairs join copies of one row and
        // sum to 0 here), so nothing can absorb the δ² the direct form
        // preserves.
        let model = FrozenModel::from_parts(
            0.0,
            vec![0.0; n],
            v,
            SecondOrder::metric(v_hat, q, None, Distance::SquaredEuclidean),
        );
        for copies in [1, k + 1] {
            let mut template = vec![0u32; copies];
            template.push(2);
            let mut ranker = model.ranker(&template, &[copies]);
            let dup = ranker.score(&[2]);
            let near = ranker.score(&[3]);
            assert_ne!(dup.to_bits(), near.to_bits(), "{copies} copies: a one-ulp difference must survive");
            // Subtract-before-square is exact here, not merely close: the
            // duplicate's distance is 0 and the perturbed item's exactly δ²
            // per copy.
            assert_eq!(dup, 0.0, "{copies} copies: an exact duplicate of the context row scores zero");
            let want = (0..copies).fold(0.0, |sum, _| sum + delta * delta);
            assert_eq!(near.to_bits(), want.to_bits(), "{copies} copies: the perturbed item scores {near}");
        }
    }

    #[test]
    #[should_panic(expected = "item slot out of bounds")]
    fn out_of_bounds_slots_are_rejected() {
        let model = metric_model(true, Distance::SquaredEuclidean, 5);
        let _ = model.ranker(&[0, 1], &[5]);
    }

    #[test]
    #[should_panic(expected = "item slots")]
    fn wrong_candidate_arity_is_rejected() {
        let model = metric_model(true, Distance::SquaredEuclidean, 6);
        let mut ranker = model.ranker(&[0, 10, 20], &[1]);
        let _ = ranker.score(&[1, 2]);
    }

    /// A 33-item catalogue (one candidate block plus a remainder) of
    /// `[item id, attribute]` groups under every second-order mode the
    /// ranker serves; modes 1 and 3 put 17 features in the context, wider
    /// than every `k` swept below.
    fn mode_fixture(mode: usize, k: usize, seed: u64) -> (FrozenModel, Vec<Vec<u32>>, Vec<u32>, Vec<usize>) {
        let (n_users, n_items, n_attrs) = (4usize, 33usize, 9usize);
        let dim = n_users + n_items + n_attrs;
        let mut rng = seeded_rng(seed);
        let v = normal(&mut rng, dim, k, 0.0, 0.4);
        let v_hat = normal(&mut rng, dim, k, 0.0, 0.4);
        let h = normal(&mut rng, 1, k, 0.0, 0.4).into_vec();
        let w = normal(&mut rng, 1, dim, 0.0, 0.1).into_vec();
        let q: Vec<f64> = (0..dim).map(|r| v_hat.row(r).iter().map(|x| x * x).sum()).collect();
        let metric = |h: Option<Vec<f64>>, d: Distance| SecondOrder::metric(v_hat.clone(), q.clone(), h, d);
        let second = match mode {
            0 | 1 => metric(Some(h), Distance::SquaredEuclidean),
            2 | 3 => metric(None, Distance::SquaredEuclidean),
            4 => metric(Some(h), Distance::Manhattan),
            5 => metric(None, Distance::Chebyshev),
            6 => metric(Some(h), Distance::Cosine),
            7 => SecondOrder::Translated { v_trans: normal(&mut rng, dim, k, 0.0, 0.3) },
            _ => SecondOrder::Dot,
        };
        let attr = |a: usize| (n_users + n_items + a % n_attrs) as u32;
        let items = (0..n_items).map(|i| vec![(n_users + i) as u32, attr(i * 7 + 3)]).collect();
        let (template, item_slots) = if mode == 1 || mode == 3 {
            let mut t = vec![1u32];
            t.extend((0..16).map(attr));
            t.extend([0, 0]);
            (t, vec![17, 18])
        } else {
            (vec![1, 0, 0], vec![1, 2])
        };
        (FrozenModel::from_parts(0.1, w, v, second), items, template, item_slots)
    }

    /// Every item of a `generate_scale` catalogue (the three-slot
    /// `[item id, category, condition]` groups the benchmark serves) is
    /// answered from the memo — a count, so it repeats exactly.
    #[test]
    fn group_memo_answers_every_item_of_a_scale_catalogue() {
        use gmlfm_data::{generate_scale, FieldMask, ScaleConfig};
        let dataset = generate_scale(&ScaleConfig::new(8, 500, 7));
        let mask = FieldMask::all(&dataset.schema);
        let items: Vec<Vec<u32>> = (0..dataset.n_items as u32)
            .map(|i| {
                let full = dataset.feats(0, i, &mask);
                vec![full[1], full[3], full[4]]
            })
            .collect();
        let model = FrozenModel::synthetic_metric(dataset.schema.total_dim(), 8, 3).with_group_memo(&items);
        let memo = model.group_memo.as_ref().expect("a three-slot dense-id catalogue is memoised");
        assert_eq!(memo.hits(&items), items.len());
        assert_eq!(format!("{memo:?}"), "GroupMemo { key_slot: 0, lo: 8, keys: 500, .. }");
    }

    /// The lookup answers only for the exact group an entry was built
    /// from: a changed attribute, a key the table has no entry for, a
    /// key below the range, another slot count — all miss.
    #[test]
    fn group_memo_misses_whatever_it_cannot_verify() {
        let (model, mut items, ..) = mode_fixture(0, 7, 3);
        // A key hole: nothing carries item feature 4 + 20.
        items.remove(20);
        let memo = GroupMemo::build(&model, &items).expect("dense ids, two slots");
        for feats in &items {
            let want = model.second_order(feats);
            assert_eq!(memo.get(feats).map(f64::to_bits), Some(want.to_bits()));
        }
        let [id, attr] = items[5][..] else { panic!("two-slot fixture") };
        assert_eq!(memo.get(&[id, attr + 1]), None, "same key, another attribute");
        assert_eq!(memo.get(&[4 + 20, attr]), None, "a key no item carries");
        assert_eq!(memo.get(&[4 + 20, GroupMemo::EMPTY]), None, "the empty marker is not a group");
        assert_eq!(memo.get(&[0, attr]), None, "a key below the range");
        assert_eq!(memo.get(&[u32::MAX, attr]), None, "a key above the range");
        assert_eq!(memo.get(&[id]), None, "fewer slots");
        assert_eq!(memo.get(&[id, attr, attr]), None, "more slots");
        assert_eq!(memo.get(&[]), None);
        assert_eq!(memo.hits(&items), items.len());
    }

    /// The key need not be slot 0: three-slot groups whose widest id
    /// range (the item id) sits in the middle slot, then in the last.
    /// Every group is answered with [`FrozenModel::second_order`]'s
    /// bits, and a changed id in any non-key slot — before the key or
    /// after it — misses.
    #[test]
    fn group_memo_keys_on_a_middle_or_last_slot() {
        let (model, two_slot, ..) = mode_fixture(0, 7, 5);
        let attr_lo = two_slot.iter().map(|g| g[1]).min().expect("non-empty");
        let other_attr = |a: u32| attr_lo + (a - attr_lo + 4) % 9;
        for key_slot in [1usize, 2] {
            let items: Vec<Vec<u32>> = two_slot
                .iter()
                .map(|g| {
                    let mut group = vec![g[1], other_attr(g[1])];
                    group.insert(key_slot, g[0]);
                    group
                })
                .collect();
            let memo = GroupMemo::build(&model, &items).expect("dense ids, three slots");
            assert_eq!(memo.key_slot, key_slot);
            for feats in &items {
                let want = model.second_order(feats);
                assert_eq!(memo.get(feats).map(f64::to_bits), Some(want.to_bits()), "key slot {key_slot}");
                for slot in (0..3).filter(|&s| s != key_slot) {
                    let mut changed = feats.clone();
                    changed[slot] = other_attr(changed[slot]);
                    assert_eq!(memo.get(&changed), None, "key slot {key_slot}, slot {slot} changed");
                }
            }
            assert_eq!(memo.hits(&items), items.len());
        }
    }

    /// What the memo declines to build: it is an optimisation, so every
    /// refusal just leaves the model scoring directly.
    #[test]
    fn group_memo_is_declined_where_it_cannot_pay_or_cannot_be_keyed() {
        let (metric, items, ..) = mode_fixture(0, 4, 1);
        assert!(GroupMemo::build(&metric, &items).is_some());
        let (translated, ..) = mode_fixture(7, 4, 1);
        assert!(GroupMemo::build(&translated, &items).is_none(), "TransFM pairs depend on slot position");
        // No width cap: the pair sum stages nothing.
        let (wide, ..) = mode_fixture(0, 1025, 1);
        assert_eq!(GroupMemo::build(&wide, &items).map(|memo| memo.hits(&items)), Some(items.len()));
        let single: Vec<Vec<u32>> = items.iter().map(|g| vec![g[0]]).collect();
        assert!(GroupMemo::build(&metric, &single).is_none(), "no pairs in a one-feature group");
        assert!(GroupMemo::build(&metric, &Vec::<Vec<u32>>::new()).is_none(), "empty catalogue");
        let sparse: Vec<Vec<u32>> = [4u32, 30].iter().map(|&id| vec![id, 40]).collect();
        assert!(GroupMemo::build(&metric, &sparse).is_none(), "27 keys for 2 items");
        let mut outside = items.clone();
        outside[3][1] = metric.n_features() as u32;
        assert!(GroupMemo::build(&metric, &outside).is_none(), "a feature the model does not have");
        let mut ragged = items.clone();
        ragged[3].push(40);
        assert!(GroupMemo::build(&metric, &ragged).is_none(), "ragged groups have no slot ranges");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ranker's chunked deltas vs the one reference, Eq. 3 over
        /// the spliced instance — at most reassociation rounding apart, in
        /// every mode and at factor widths straddling the 8-lane kernel
        /// chunk.
        #[test]
        fn chunked_scores_match_the_scalar_loop(mode in 0usize..9, k_idx in 0usize..4, seed in 0u64..50) {
            let k = [1usize, 2, 7, 16][k_idx];
            let (model, items, template, item_slots) = mode_fixture(mode, k, seed);
            let mut ranker = model.ranker(&template, &item_slots);
            for (item, feats) in items.iter().enumerate() {
                let mut spliced = template.clone();
                for (&slot, &f) in item_slots.iter().zip(feats) {
                    spliced[slot] = f;
                }
                let a = ranker.score(feats);
                let b = model.predict_pairwise(&Instance::new(spliced, 1.0));
                prop_assert!(
                    (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                    "mode {} k {} item {}: ranker {} vs reference {}", mode, k, item, a, b
                );
            }
        }
    }
}
