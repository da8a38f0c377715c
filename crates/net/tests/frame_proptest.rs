//! Property tests for the frame codec and wire format: arbitrary
//! protocol values round-trip exactly, arbitrary byte streams are
//! decoded totally (typed errors, never panics), and oversized declared
//! lengths are rejected from the header alone — before any allocation
//! could happen.

use gmlfm_net::frame::{self, FrameError, HEADER_BYTES};
use gmlfm_net::wire::{self, NetError, NetReply, NetRequest, NetResponse};
use gmlfm_serve::RetrievalStrategy;
use gmlfm_service::{BatchRequest, Request, ScoreRequest, TopNRequest};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use std::io::Cursor;

fn arb_score() -> impl Strategy<Value = ScoreRequest> {
    prop_oneof![
        vec(any::<u32>(), 0..6).prop_map(ScoreRequest::Feats),
        (any::<u32>(), any::<u32>()).prop_map(|(user, item)| ScoreRequest::Pair { user, item }),
        (any::<u32>(), vec((0usize..4, 0usize..100), 0..4)).prop_map(|(item, raw)| ScoreRequest::Cold {
            item,
            fields: raw.into_iter().map(|(f, v)| (format!("field{f}"), v)).collect(),
        }),
    ]
}

fn arb_strategy() -> impl Strategy<Value = Option<RetrievalStrategy>> {
    prop_oneof![
        Just(None),
        Just(Some(RetrievalStrategy::Exact)),
        option::of(1usize..64).prop_map(|nprobe| Some(RetrievalStrategy::Ivf { nprobe })),
    ]
}

fn arb_topn() -> impl Strategy<Value = TopNRequest> {
    (
        (any::<u32>(), 0usize..1000, option::of(vec(any::<u32>(), 0..5))),
        (vec(any::<u32>(), 0..4), any::<bool>(), arb_strategy()),
    )
        .prop_map(|((user, n, candidates), (exclude, exclude_seen, strategy))| TopNRequest {
            user,
            n,
            candidates,
            exclude,
            exclude_seen,
            strategy,
        })
}

fn arb_request() -> impl Strategy<Value = NetRequest> {
    let sub = prop_oneof![arb_score().prop_map(Request::Score), arb_topn().prop_map(Request::TopN),];
    prop_oneof![
        arb_score().prop_map(NetRequest::Score),
        arb_topn().prop_map(NetRequest::TopN),
        vec(sub, 0..4).prop_map(|requests| NetRequest::Batch(BatchRequest { requests })),
    ]
}

fn arb_reply() -> impl Strategy<Value = NetReply> {
    let scalar = prop_oneof![
        (any::<u64>()).prop_map(|bits| NetReply::Score(sanitise(f64::from_bits(bits)))),
        vec((any::<u32>(), any::<u64>()), 0..5).prop_map(|items| {
            NetReply::TopN(items.into_iter().map(|(i, bits)| (i, sanitise(f64::from_bits(bits)))).collect())
        }),
    ];
    let error = (0u8..4, 0u8..4).prop_map(|(c, m)| {
        NetError::new(format!("code_{c}"), format!("message {m} with \"quotes\" and \n newlines"))
    });
    prop_oneof![
        (any::<u64>()).prop_map(|bits| NetReply::Score(sanitise(f64::from_bits(bits)))),
        vec((scalar, error), 0..4).prop_map(|slots| {
            NetReply::Batch(
                slots
                    .into_iter()
                    .enumerate()
                    .map(|(i, (r, e))| if i % 2 == 0 { Ok(r) } else { Err(e) })
                    .collect(),
            )
        }),
    ]
}

/// JSON (and the vendored writer) collapse every NaN to `null` → NaN,
/// so NaN payloads round-trip by policy, not bit-exactly; `PartialEq`
/// on `NetReply` would still reject them. Map NaN to a fixed finite
/// value and keep infinities out the same way — their lossy encoding is
/// the serialiser's documented contract, not the codec's.
fn sanitise(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        -0.5
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_round_trip_exactly(req in arb_request()) {
        let text = wire::encode_request(&req);
        let back = wire::decode_request(text.as_bytes()).map_err(|e| e.message);
        prop_assert_eq!(back, Ok(req), "wire text: {}", text);
    }

    #[test]
    // Generations ride a JSON number, exact up to 2^53 (the documented
    // wire precision; they increment by 1 per swap, so the bound is
    // unreachable in practice).
    fn responses_round_trip_exactly(generation in 0u64..(1 << 53), reply in arb_reply()) {
        let resp = NetResponse { generation, reply };
        let text = wire::encode_response(&resp);
        let back = wire::decode_response(text.as_bytes());
        match back {
            Ok(Ok(b)) => prop_assert_eq!(b, resp, "wire text: {}", text),
            other => prop_assert!(false, "decode failed: {:?} for {}", other, text),
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(bytes in vec(any::<u8>(), 0..200)) {
        // Totality is the property: any result is fine, panics are not.
        let _ = wire::decode_request(&bytes);
        let _ = wire::decode_response(&bytes);
        let _ = frame::read_frame(&mut Cursor::new(&bytes), 64);
    }

    #[test]
    fn frames_round_trip_through_the_codec(payload in vec(any::<u8>(), 0..300), extra in vec(any::<u8>(), 0..10)) {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, &payload, 1024).unwrap();
        let boundary = buf.len();
        buf.extend_from_slice(&extra); // trailing bytes of the next frame
        let mut cursor = Cursor::new(&buf);
        let back = frame::read_frame(&mut cursor, 1024).unwrap();
        prop_assert_eq!(back, payload);
        prop_assert_eq!(cursor.position() as usize, boundary, "reader stops on the frame boundary");
    }

    #[test]
    fn truncated_frames_are_typed(payload in vec(any::<u8>(), 1..100), cut in 0usize..100) {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, &payload, 1024).unwrap();
        let cut = cut % buf.len(); // strictly shorter than the frame
        let result = frame::read_frame(&mut Cursor::new(&buf[..cut]), 1024);
        match result {
            Err(FrameError::Closed) => prop_assert_eq!(cut, 0, "Closed only on the frame boundary"),
            Err(FrameError::Truncated { got, wanted }) => {
                prop_assert!(got < wanted, "got {} of {}", got, wanted);
                prop_assert!(cut > 0);
            }
            other => prop_assert!(false, "expected typed truncation, got {:?}", other),
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation(len in any::<u32>(), max in 0usize..4096) {
        let header = len.to_be_bytes();
        let result = frame::frame_len(header, max);
        if len as usize <= max {
            prop_assert_eq!(result.ok(), Some(len as usize));
        } else {
            // The typed rejection comes from the 4 header bytes alone:
            // no payload exists, so no allocation can have happened.
            match result {
                Err(FrameError::Oversized { len: l, max: m }) => {
                    prop_assert_eq!(l, len as usize);
                    prop_assert_eq!(m, max);
                }
                other => prop_assert!(false, "expected Oversized, got {:?}", other),
            }
            // And the streaming reader agrees, with only the header on
            // the wire.
            let read = frame::read_frame(&mut Cursor::new(&header[..]), max);
            prop_assert!(matches!(read, Err(FrameError::Oversized { .. })));
        }
    }

    #[test]
    fn header_encoding_is_the_readers_inverse(len in 0usize..4096) {
        let header = frame::encode_header(len, 4096).unwrap();
        prop_assert_eq!(header.len(), HEADER_BYTES);
        prop_assert_eq!(frame::frame_len(header, 4096).unwrap(), len);
    }
}
