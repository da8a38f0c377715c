//! What one GML-FM training step allocates, counted rather than timed.
//! The tape reads parameter tables in place, so a step's only
//! table-height allocations are the gradient buffers of the tables it
//! gathers from; everything else it holds is `B` rows high.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. Counts are per thread, and a step runs on the calling
//! thread, so the harness's other threads do not leak into them.

use gmlfm_autograd::Graph;
use gmlfm_core::{GmlFm, GmlFmConfig};
use gmlfm_data::Instance;
use gmlfm_tensor::seeded_rng;
use gmlfm_train::{labels_column, GraphModel};
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s implementation of the `GlobalAlloc` contract
// is this one's; the counter is a const-initialised thread-local `Cell`
// without a destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `alloc`'s contract, passed on as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The `train_fit` workload's shape: six fields, `B = 256`, `k = 16`.
const FIELD_SIZES: [usize; 6] = [227, 220, 2, 7, 21, 17];
const B: usize = 256;
const K: usize = 16;

/// One batch over the first `Σ FIELD_SIZES` features, duplicates in
/// every field.
fn batch() -> Vec<Instance> {
    let mut rng = seeded_rng(5);
    (0..B)
        .map(|_| {
            let mut offset = 0;
            let feats = FIELD_SIZES
                .iter()
                .map(|&n| {
                    let feat = offset + rng.gen_range(0..n);
                    offset += n;
                    feat as u32
                })
                .collect();
            Instance::new(feats, rng.gen_range(-1.0..1.0))
        })
        .collect()
}

/// Bytes one GML-FM_md `forward_batch` + `backward` allocates over an
/// `n`-row table, the model built beforehand.
fn step_bytes(n: usize, instances: &[Instance]) -> usize {
    let model = GmlFm::new(n, &GmlFmConfig::mahalanobis(K).with_seed(3));
    let batch: Vec<&Instance> = instances.iter().collect();
    let before = BYTES.with(Cell::get);
    let mut g = Graph::new();
    let pred = model.forward_batch(&mut g, model.params(), &batch, true, &mut seeded_rng(7));
    let target = g.constant(labels_column(&batch));
    let loss = g.mse(pred, target);
    let grads = g.backward(loss);
    let bytes = BYTES.with(Cell::get) - before;
    drop((g, grads));
    bytes
}

#[test]
fn a_step_allocates_one_gradient_buffer_per_gathered_table_row() {
    let instances = batch();
    let (short, tall) = (step_bytes(1_000, &instances), step_bytes(100_000, &instances));
    // `V` (`k` wide) and `w` (one wide) are the gathered tables; a tape
    // that copied them per step would grow by twice this.
    assert_eq!(tall - short, 99_000 * (K + 1) * 8, "bytes: {short} at 1 000 rows, {tall} at 100 000");
    // 1 403 353 bytes, of which 136 000 are the two gradient buffers; a
    // tape of seven nodes per pair that copied `V` and `w` took 5 766 408.
    assert!(short <= 1_500_000, "{short} bytes at 1 000 rows");
}
