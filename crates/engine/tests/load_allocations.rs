//! What decoding an artifact allocates, counted rather than timed. An
//! artifact is mostly long number arrays — V, V̂, q, the catalogue's item
//! groups, the index's assignments — so a decoder that reads them
//! straight into their vectors allocates per array, however many items
//! the catalogue holds. The tree it replaced allocated per container
//! and per string before a single field was read.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. Counts are per thread, so the harness's other threads do
//! not leak into them.

mod common;

use common::hand_built_artifact;
use common::tree_artifact::TreeArtifact;
use gmlfm_engine::Artifact;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s implementation of the `GlobalAlloc` contract
// is this one's; the counter is a const-initialised thread-local `Cell`
// without a destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `alloc`'s contract, passed on as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread (a `realloc` counts as one).
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

#[test]
fn decoding_allocates_per_array_not_per_item() {
    const USERS: usize = 4;
    let items = [5_000, 10_000];
    let texts = items.map(|n| hand_built_artifact(USERS, n).to_json());
    let decoded = texts
        .each_ref()
        .map(|text| allocations(|| Artifact::from_json(text).expect("loads")));
    let tree = allocations(|| TreeArtifact::from_json(&texts[0]).expect("the oracle loads it"));
    println!(
        "{} items: {} allocations ({} through the tree); {} items: {}",
        items[0], decoded[0], tree, items[1], decoded[1]
    );
    assert!(decoded[0] < tree, "{} allocations against the tree's {tree}", decoded[0]);
    // Doubling the catalogue grows each long vector once more.
    let added = decoded[1] - decoded[0];
    assert!(
        added * 100 < items[1] - items[0],
        "{} more items cost {added} more allocations",
        items[1] - items[0]
    );
}
