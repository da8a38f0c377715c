//! What the wire decoders allocate, counted rather than timed: the
//! payload's own containers and strings, and nothing per member beyond
//! them. The tree decoder made ≈ 10 allocations per batch member — one
//! `String` per key and string, one `Vec` per object — before a single
//! field was read.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. Counts are per thread, so the harness's other threads do
//! not leak into them.

use gmlfm_net::wire::{self, NetReply, NetRequest, NetResponse};
use gmlfm_service::{BatchRequest, Request, ScoreRequest};
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

fn batch(members: impl Iterator<Item = ScoreRequest>) -> String {
    wire::encode_request(&NetRequest::Batch(BatchRequest::new(members.map(Request::Score).collect())))
}

#[test]
fn a_pair_score_batch_allocates_its_request_list_only() {
    let payload = batch((0..128).map(|i| ScoreRequest::pair(i, 90_000 + i)));
    let n = allocations(|| wire::decode_request(payload.as_bytes()).expect("a well-formed batch"));
    // The `Vec<Request>` growing to 128: a handful of reallocations.
    assert!(n <= 16, "decoding 128 pair scores allocated {n} times");
}

#[test]
fn a_score_batch_reply_allocates_its_slot_list_only() {
    let slots = (0..128).map(|i| Ok(NetReply::Score(1.0 / (f64::from(i) + 3.7)))).collect();
    let payload = wire::encode_response(&NetResponse { generation: 7, reply: NetReply::Batch(slots) });
    let n = allocations(|| wire::decode_response(payload.as_bytes()).expect("a well-formed reply"));
    assert!(n <= 16, "decoding a 128-slot score reply allocated {n} times");
}

#[test]
fn a_cold_member_allocates_its_fields_and_their_names() {
    let fields = [("segment", 3), ("age", 2), ("🎬", 1)];
    let single = wire::encode_request(&NetRequest::Score(ScoreRequest::cold(5, &fields)));
    let n = allocations(|| wire::decode_request(single.as_bytes()).expect("a cold request"));
    assert_eq!(n, 1 + fields.len(), "one fields vector and one string per name");

    // In a batch, on top of the request list a pair batch allocates too.
    let members = 32;
    let cold = batch((0..members).map(|i| ScoreRequest::cold(i, &fields)));
    let pair = batch((0..members).map(|i| ScoreRequest::pair(i, i)));
    let cold_n = allocations(|| wire::decode_request(cold.as_bytes()).expect("a cold batch"));
    let pair_n = allocations(|| wire::decode_request(pair.as_bytes()).expect("a pair batch"));
    assert_eq!(cold_n - pair_n, members as usize * (1 + fields.len()));
}
