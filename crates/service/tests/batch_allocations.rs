//! What a batch allocates, counted rather than timed. A batch filters
//! its top-n members against the live seen overlay through one
//! point-in-time copy of the rows they name, so its cost must not grow
//! with the number of users an online loop has fed.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. Counts are per thread, and a batch runs on the calling
//! thread, so the harness's other threads do not leak into them.

use gmlfm_data::{FieldKind, Schema};
use gmlfm_serve::FrozenModel;
use gmlfm_service::{BatchRequest, Catalog, ModelServer, ModelSnapshot, Reply, Request, TopNRequest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s implementation of the `GlobalAlloc` contract
// is this one's; the counters are const-initialised thread-local `Cell`s
// without a destructor, which never allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `alloc`'s contract, passed on as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
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

/// Blocks and bytes `f` allocates on this thread (a `realloc` counts as
/// one block of its new size).
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, usize) {
    let before = (BLOCKS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (BLOCKS.with(Cell::get), BYTES.with(Cell::get));
    drop(out);
    (after.0 - before.0, after.1 - before.1)
}

const N_USERS: usize = 10_000;
const N_ITEMS: usize = 64;

/// A server over `N_USERS` users and `N_ITEMS` items of one feature each.
fn server() -> ModelServer {
    let schema =
        Schema::from_specs(&[("user", N_USERS, FieldKind::User), ("item", N_ITEMS, FieldKind::Item)]);
    let item0 = N_USERS as u32;
    let catalog = Catalog::new(
        vec![1],
        (0..N_USERS as u32).map(|u| vec![u, item0]).collect(),
        (0..N_ITEMS as u32).map(|i| vec![item0 + i]).collect(),
    );
    let frozen = FrozenModel::synthetic_metric(N_USERS + N_ITEMS, 4, 11);
    let snapshot = ModelSnapshot { schema, frozen, catalog: Some(catalog), seen: None, index: None };
    ModelServer::new(snapshot).expect("consistent snapshot")
}

#[test]
fn a_batch_allocates_the_same_over_10_and_10_000_recorded_users() {
    let user = 3u32;
    let batch = BatchRequest::new(vec![Request::TopN(TopNRequest::new(user, 5))]);
    let mut costs = Vec::new();
    for recorded in [10u32, N_USERS as u32] {
        let server = server();
        for u in 0..recorded {
            server.record_seen(u, u % N_ITEMS as u32).expect("a catalogue pair");
        }
        // The first batch sizes the thread's request scratch.
        let Ok(Reply::TopN(top)) = &server.batch(&batch).value[0] else { panic!("a valid top-n") };
        assert_eq!(top.len(), 5);
        assert!(top.iter().all(|&(item, _)| item != user), "the overlay excludes the fed item: {top:?}");
        costs.push(allocations(|| server.batch(&batch)));
    }
    println!("10 recorded users: {:?} (blocks, bytes); {N_USERS}: {:?}", costs[0], costs[1]);
    assert_eq!(costs[0], costs[1], "a batch's cost grew with the overlay");
}
