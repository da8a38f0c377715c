//! Fixed-width chunked scoring kernels for the serving hot loops.
//!
//! Every dot product, squared distance, and scaled accumulation on the
//! candidate-scan path (`rank.rs` cross deltas, `frozen.rs` pair terms,
//! `index.rs` probe geometry) funnels through this module. The
//! kernels are plain safe Rust — no intrinsics, no `unsafe` — but they
//! are *shaped* so LLVM auto-vectorizes them: the inner loop runs over
//! [`LANES`]-wide `chunks_exact` windows into [`LANES`] independent
//! accumulators (breaking the serial floating-point dependency chain),
//! and the accumulators collapse through a fixed pairwise tree. A
//! scalar remainder loop handles the tail, so slices shorter than one
//! chunk (the common small-`k` case) reduce in exactly the same order
//! as the historical serial loop.
//!
//! Determinism contract: for a given slice length the reduction order
//! is fixed, so every kernel is bit-reproducible across calls, thread
//! counts, and machines with the same FP semantics. `mul_add` is
//! deliberately avoided — baseline x86-64 has no FMA, so `mul_add`
//! lowers to a libm call and changes results besides being slow.
//!
//! The transposed multi-dot [`dot_columns`] keeps the same contract
//! across its columns: it vectorizes across four dots instead of along
//! one, but each column reduces in [`dot`]'s order — lane sums chunk by
//! chunk, the same pairwise tree, the serial tail added last — so each
//! column has the bits [`dot`] gives that column.
//!
//! The tests hold each kernel to a naive single-accumulator loop
//! (`naive_*`): bitwise below [`LANES`], within 1e-12 above.

/// Accumulator width of the chunked kernels.
///
/// Eight f64 lanes = two 256-bit AVX registers (or four 128-bit SSE2
/// registers), enough independent chains to hide FP-add latency without
/// spilling on baseline x86-64 or aarch64.
pub const LANES: usize = 8;

/// Candidate-block width used by the batched top-N delta scan
/// ([`crate::TopNRanker::score_block`]): candidates are scored in
/// fixed-size runs with the per-request invariants hoisted out of the
/// per-candidate loop, plus a remainder run for the tail.
pub const CAND_BLOCK: usize = 32;

/// Collapses the lane accumulators through a fixed pairwise tree.
#[inline(always)]
fn reduce(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

#[inline(always)]
fn reduce_f32(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Chunked dot product `Σ aᵢ·bᵢ` over the common prefix of `a` and `b`.
///
/// For `len < LANES` this degenerates to the plain serial loop, so
/// small-`k` scores are bit-identical to the historical scalar path.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce(acc) + tail
}

/// Chunked three-operand dot `Σ (aᵢ·bᵢ)·cᵢ` — the metric pair weight
/// `(vₐ ⊙ v_b)·h` — in [`dot`]'s lane order and tree, so below [`LANES`]
/// it is the serial loop.
#[inline]
pub fn dot3(a: &[f64], b: &[f64], c: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let (mut ca, mut cb, mut cc) = (a.chunks_exact(LANES), b.chunks_exact(LANES), c.chunks_exact(LANES));
    for ((xa, xb), xc) in (&mut ca).zip(&mut cb).zip(&mut cc) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l] * xc[l];
        }
    }
    let mut tail = 0.0;
    for ((x, y), z) in ca.remainder().iter().zip(cb.remainder()).zip(cc.remainder()) {
        tail += x * y * z;
    }
    reduce(acc) + tail
}

/// Columns of one transposed lane row of [`dot_columns`].
pub const COLS: usize = 4;

/// Four dot products in one pass over a transposed block: lane row `d`
/// of `rows` is `[a₀[d], a₁[d], b₀[d], b₁[d]]`, and the result is
/// `[a₀·x, a₁·x, b₀·y, b₁·y]`, each column bitwise [`dot`] of that
/// column with its operand (`rows`, `x` and `y` all `k` long).
///
/// The SIMD direction runs across the four dots, so [`dot`]'s lane
/// accumulators and its pairwise tree become vertical adds — no
/// horizontal reduction per dot. For `k` a multiple of [`LANES`] up to
/// 64 the chunk count is a literal (each arm inlines the body with its
/// own constant, so the chunk loop unrolls fully and the tail loop
/// vanishes); any other `k` runs the same body with runtime counts.
#[inline]
pub fn dot_columns(rows: &[[f64; COLS]], x: &[f64], y: &[f64]) -> [f64; COLS] {
    match rows.len() {
        8 => dot_columns_body::<false>(1, rows, x, y),
        16 => dot_columns_body::<false>(2, rows, x, y),
        24 => dot_columns_body::<false>(3, rows, x, y),
        32 => dot_columns_body::<false>(4, rows, x, y),
        40 => dot_columns_body::<false>(5, rows, x, y),
        48 => dot_columns_body::<false>(6, rows, x, y),
        56 => dot_columns_body::<false>(7, rows, x, y),
        64 => dot_columns_body::<false>(8, rows, x, y),
        k => dot_columns_body::<true>(k / LANES, rows, x, y),
    }
}

/// [`dot_columns`] over `chunks` full [`LANES`] windows, plus the tail
/// rows past them when `TAIL` (the arms whose `k` is a multiple of
/// [`LANES`] leave it out, so no loop keeps their lanes live).
///
/// Each column follows [`dot`]'s order: lane `l` sums chunk by chunk,
/// the lanes collapse through [`reduce`]'s tree, the tail sums serially
/// from `0.0` and is added last. One difference is free: the lanes
/// start at the first chunk's products instead of at `0.0 + product`.
/// That changes a lane only where a product is `−0.0`, and then only
/// the sign of a zero; a zero's sign survives an add only into another
/// zero, and the final `+ tail` — never `−0.0`, since it starts at
/// `+0.0` and a sum is `−0.0` only when both addends are — turns a
/// `−0.0` tree into `+0.0` exactly as it turns [`dot`]'s `+0.0` tree.
#[inline(always)]
fn dot_columns_body<const TAIL: bool>(
    chunks: usize,
    rows: &[[f64; COLS]],
    x: &[f64],
    y: &[f64],
) -> [f64; COLS] {
    let split = chunks * LANES;
    let (rh, rt) = rows.split_at(split);
    let (xh, xt) = x.split_at(split);
    let (yh, yt) = y.split_at(split);
    let (rw, xw, yw) = (rh.as_chunks::<LANES>().0, xh.as_chunks::<LANES>().0, yh.as_chunks::<LANES>().0);
    let mut acc = [[0.0f64; COLS]; LANES];
    for (n, ((r, x), y)) in rw.iter().zip(xw).zip(yw).enumerate() {
        for l in 0..LANES {
            let m = [x[l], x[l], y[l], y[l]];
            for c in 0..COLS {
                let p = r[l][c] * m[c];
                acc[l][c] = if n == 0 { p } else { acc[l][c] + p };
            }
        }
    }
    let mut tail = [0.0f64; COLS];
    if TAIL {
        for ((r, &x), &y) in rt.iter().zip(xt).zip(yt) {
            let m = [x, x, y, y];
            for c in 0..COLS {
                tail[c] += r[c] * m[c];
            }
        }
    }
    std::array::from_fn(|c| reduce(std::array::from_fn(|l| acc[l][c])) + tail[c])
}

/// Chunked squared Euclidean distance `Σ (aᵢ−bᵢ)²`.
///
/// Differences are formed before squaring (never expanded into
/// `‖a‖²+‖b‖²−2⟨a,b⟩`), so the result is accurate even when `a ≈ b` —
/// this is the cancellation-free primitive the near-duplicate paths in
/// `rank.rs` lean on.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    reduce(acc) + tail
}

/// Chunked scaled accumulation `y ← y + alpha·x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len().min(y.len());
    let (xh, xt) = x[..n].split_at(n - n % LANES);
    let (yh, yt) = y[..n].split_at_mut(n - n % LANES);
    for (xc, yc) in xh.chunks_exact(LANES).zip(yh.chunks_exact_mut(LANES)) {
        for l in 0..LANES {
            yc[l] += alpha * xc[l];
        }
    }
    for (x, y) in xt.iter().zip(yt) {
        *y += alpha * x;
    }
}

/// f32 twin of [`dot`], used by the low-precision scan tables.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce_f32(acc) + tail
}

/// f32 twin of [`sq_dist`].
#[inline]
pub fn sq_dist_f32(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    reduce_f32(acc) + tail
}

/// Dequantizes one i8 row with per-row affine parameters into `out`:
/// `out[d] = lo + scale·(code[d] + 128)`.
///
/// Codes span `[-128, 127]`, mapped onto `[lo, lo + 255·scale]`; the
/// straight-line loop auto-vectorizes without manual chunking.
#[inline]
pub fn dequant_into(codes: &[i8], lo: f32, scale: f32, out: &mut [f32]) {
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = lo + scale * (c as i32 + 128) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlfm_tensor::init::standard_normal;
    use gmlfm_tensor::seeded_rng;

    /// Single-accumulator reference for [`dot`]: the historical serial loop.
    fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Single-accumulator reference for [`dot3`].
    fn naive_dot3(a: &[f64], b: &[f64], c: &[f64]) -> f64 {
        a.iter().zip(b).zip(c).map(|((x, y), z)| x * y * z).sum()
    }

    /// Single-accumulator reference for [`sq_dist`].
    fn naive_sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Single-accumulator reference for [`axpy`].
    fn naive_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (y, x) in y.iter_mut().zip(x) {
            *y += alpha * x;
        }
    }

    fn random_vec(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..len).map(|_| standard_normal(&mut rng) * 2.0 - 0.3).collect()
    }

    #[test]
    fn chunked_dot_matches_naive_within_1e12() {
        for len in [0, 1, 2, 5, 7, 8, 9, 15, 16, 17, 31, 64, 257] {
            for seed in 0..4 {
                let a = random_vec(len, seed * 2 + 1);
                let b = random_vec(len, seed * 2 + 2);
                let got = dot(&a, &b);
                let want = naive_dot(&a, &b);
                let tol = 1e-12 * want.abs().max(1.0);
                assert!((got - want).abs() <= tol, "len={len} seed={seed}: chunked {got} vs naive {want}");
                let c = random_vec(len, seed * 2 + 50);
                let (got, want) = (dot3(&a, &b, &c), naive_dot3(&a, &b, &c));
                let tol = 1e-12 * want.abs().max(1.0);
                assert!(
                    (got - want).abs() <= tol,
                    "len={len} seed={seed}: chunked dot3 {got} vs naive {want}"
                );
            }
        }
    }

    #[test]
    fn chunked_sq_dist_matches_naive_within_1e12() {
        for len in [0, 1, 3, 7, 8, 9, 16, 23, 64, 130] {
            for seed in 0..4 {
                let a = random_vec(len, 100 + seed * 2);
                let b = random_vec(len, 101 + seed * 2);
                let got = sq_dist(&a, &b);
                let want = naive_sq_dist(&a, &b);
                let tol = 1e-12 * want.abs().max(1.0);
                assert!((got - want).abs() <= tol, "len={len} seed={seed}: chunked {got} vs naive {want}");
            }
        }
    }

    #[test]
    fn sub_chunk_inputs_reduce_bitwise_like_the_serial_loop() {
        // Below one LANES window the kernels must be *bit-identical* to
        // the serial reference, so small-k scores don't move at all.
        // (len = 0 is excluded: `Iterator::sum` folds from `-0.0`, so
        // the naive empty reduction is `-0.0` where the kernels return
        // `+0.0` — no scoring path dots a zero-length slice, k >= 1.)
        for len in 1..LANES {
            let a = random_vec(len, 7);
            let b = random_vec(len, 8);
            let c = random_vec(len, 9);
            assert_eq!(dot(&a, &b).to_bits(), naive_dot(&a, &b).to_bits(), "dot len={len}");
            assert_eq!(dot3(&a, &b, &c).to_bits(), naive_dot3(&a, &b, &c).to_bits(), "dot3 len={len}");
            assert_eq!(sq_dist(&a, &b).to_bits(), naive_sq_dist(&a, &b).to_bits(), "sq_dist len={len}");
        }
    }

    /// [`dot_columns`] is [`dot`] per column, bit for bit, at every `k`
    /// from empty to one past the last literal arm — including a column
    /// whose every product is `−0.0` (its lanes start at `−0.0` where
    /// [`dot`]'s start at `0.0 + −0.0 = +0.0`) and one that mixes zeros
    /// of both signs with ordinary values.
    #[test]
    fn dot_columns_is_dot_per_column_bitwise() {
        for k in 0..=73 {
            for seed in 0..3 {
                let x = random_vec(k, 200 + seed);
                let y = random_vec(k, 300 + seed);
                let mut cols: [Vec<f64>; COLS] =
                    std::array::from_fn(|c| random_vec(k, 400 + 8 * seed + c as u64));
                cols[1] = x.iter().map(|&v| if v >= 0.0 { -0.0 } else { 0.0 }).collect();
                for (d, v) in cols[3].iter_mut().enumerate().filter(|(d, _)| d % 3 != 1) {
                    *v = if d % 2 == 0 { 0.0 } else { -0.0 };
                }
                let rows: Vec<[f64; COLS]> = (0..k).map(|d| std::array::from_fn(|c| cols[c][d])).collect();
                let got = dot_columns(&rows, &x, &y);
                let want = [dot(&cols[0], &x), dot(&cols[1], &x), dot(&cols[2], &y), dot(&cols[3], &y)];
                for c in 0..COLS {
                    assert_eq!(got[c].to_bits(), want[c].to_bits(), "k={k} seed={seed} column {c}");
                }
            }
        }
    }

    #[test]
    fn axpy_matches_naive_within_1e12() {
        for len in [0, 1, 7, 8, 9, 40, 129] {
            let x = random_vec(len, 21);
            let mut y = random_vec(len, 22);
            let mut y_ref = y.clone();
            axpy(0.37, &x, &mut y);
            naive_axpy(0.37, &x, &mut y_ref);
            for (got, want) in y.iter().zip(&y_ref) {
                assert!((got - want).abs() <= 1e-12 * want.abs().max(1.0), "len={len}");
            }
        }
    }

    #[test]
    fn sq_dist_is_cancellation_free_on_near_duplicates() {
        // a and b differ by one ulp in one coordinate: the expanded
        // q-form loses everything, the difference form keeps it exact.
        let a = random_vec(12, 33);
        let mut b = a.clone();
        b[5] = f64::from_bits(b[5].to_bits() + 1);
        let d = sq_dist(&a, &b);
        let exact = (a[5] - b[5]) * (a[5] - b[5]);
        assert!(d > 0.0 && (d - exact).abs() <= 1e-12 * exact, "d={d} exact={exact}");
    }

    #[test]
    fn f32_kernels_match_f64_within_single_precision() {
        for len in [1, 5, 8, 9, 40] {
            let a = random_vec(len, 51);
            let b = random_vec(len, 52);
            let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
            let scale = dot(&a, &a).abs().max(dot(&b, &b).abs()).max(1.0);
            assert!((dot_f32(&a32, &b32) as f64 - dot(&a, &b)).abs() <= 1e-5 * scale);
            assert!((sq_dist_f32(&a32, &b32) as f64 - sq_dist(&a, &b)).abs() <= 1e-5 * scale);
        }
    }

    #[test]
    fn dequant_reconstruction_error_is_at_most_half_a_step() {
        let vals = random_vec(37, 61);
        let (lo, hi) = vals.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let scale = ((hi - lo) / 255.0).max(f64::MIN_POSITIVE);
        let codes: Vec<i8> = vals
            .iter()
            .map(|&v| (((v - lo) / scale).round() as i32 - 128).clamp(-128, 127) as i8)
            .collect();
        let mut out = vec![0.0f32; vals.len()];
        dequant_into(&codes, lo as f32, scale as f32, &mut out);
        for (orig, deq) in vals.iter().zip(&out) {
            assert!((orig - *deq as f64).abs() <= 0.5 * scale + 1e-6, "orig={orig} deq={deq} scale={scale}");
        }
    }
}
