//! The byte-level wire decoders against the tree-based ones they
//! replaced (`common::tree_decode`), on everything a peer could send:
//! encoded protocol values; the same payloads with members shuffled,
//! duplicated, padded with junk of every JSON type, or joined by known
//! members of the wrong type that the shape does not read; single-byte
//! mutations and truncations; arbitrary bytes. Both must accept the
//! same payloads and decode them to the same values, f64s equal by
//! bits, or both refuse.

mod common;

use common::json_tree::{self as json, Value};
use common::tree_decode::{tree_decode_request, tree_decode_response};
use gmlfm_net::wire::{self, NetError, NetReply, NetRequest, NetResponse};
use gmlfm_par::Parallelism;
use gmlfm_serve::RetrievalStrategy;
use gmlfm_service::{BatchRequest, FeedAck, Interaction, Request, ScoreRequest, TopNRequest};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use serde::Serialize;

fn arb_f64() -> impl Strategy<Value = f64> {
    // Non-finite values encode as `null`, which decodes as NaN: the
    // oracle comparison covers that too.
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_fields() -> impl Strategy<Value = Vec<(String, usize)>> {
    vec((0usize..4, any::<usize>()), 0..4).prop_map(|raw| {
        raw.into_iter()
            .map(|(f, v)| (["gender", "age", "a\"b\\c\n", "🎬"][f].to_string(), v))
            .collect()
    })
}

fn arb_score() -> impl Strategy<Value = ScoreRequest> {
    prop_oneof![
        vec(any::<u32>(), 0..6).prop_map(ScoreRequest::Feats),
        (any::<u32>(), any::<u32>()).prop_map(|(user, item)| ScoreRequest::Pair { user, item }),
        (any::<u32>(), arb_fields()).prop_map(|(item, fields)| ScoreRequest::Cold { item, fields }),
    ]
}

fn arb_topn() -> impl Strategy<Value = TopNRequest> {
    let strategy = prop_oneof![
        Just(None),
        Just(Some(RetrievalStrategy::Exact)),
        option::of(any::<usize>()).prop_map(|nprobe| Some(RetrievalStrategy::Ivf { nprobe })),
    ];
    (
        (any::<u32>(), any::<usize>(), option::of(vec(any::<u32>(), 0..5))),
        (vec(any::<u32>(), 0..4), any::<bool>(), option::of(any::<usize>()), strategy),
    )
        .prop_map(|((user, n, candidates), (exclude, exclude_seen, par, strategy))| TopNRequest {
            user,
            n,
            candidates,
            exclude,
            exclude_seen,
            par: par.map(Parallelism::threads),
            strategy,
        })
}

fn arb_feed() -> impl Strategy<Value = Interaction> {
    (any::<u32>(), any::<u32>(), option::of(arb_f64()), arb_fields(), option::of(any::<u64>()))
        .prop_map(|(user, item, rating, fields, id)| Interaction { user, item, rating, fields, id })
}

fn arb_request() -> impl Strategy<Value = NetRequest> {
    let sub = prop_oneof![arb_score().prop_map(Request::Score), arb_topn().prop_map(Request::TopN)];
    prop_oneof![
        arb_score().prop_map(NetRequest::Score),
        arb_topn().prop_map(NetRequest::TopN),
        (vec(sub, 0..4), option::of(any::<usize>())).prop_map(|(requests, par)| {
            NetRequest::Batch(BatchRequest { requests, par: par.map(Parallelism::threads) })
        }),
        arb_feed().prop_map(NetRequest::Feed),
    ]
}

fn arb_error() -> impl Strategy<Value = NetError> {
    (0u8..4, 0u8..4).prop_map(|(c, m)| {
        NetError::new(format!("code_{c}"), format!("message {m} with \"quotes\", \n newlines, é and 🎬"))
    })
}

/// An encoded reply envelope: a success of every kind, or an error.
fn arb_reply_payload() -> impl Strategy<Value = String> {
    let scalar = prop_oneof![
        arb_f64().prop_map(NetReply::Score),
        vec((any::<u32>(), arb_f64()), 0..5).prop_map(NetReply::TopN),
        (any::<bool>(), any::<usize>())
            .prop_map(|(accepted, pending)| NetReply::Feed(FeedAck { accepted, pending })),
    ];
    let slot = prop_oneof![scalar.prop_map(Ok), arb_error().prop_map(Err)];
    let reply = prop_oneof![
        arb_f64().prop_map(NetReply::Score),
        vec((any::<u32>(), arb_f64()), 0..5).prop_map(NetReply::TopN),
        vec(slot, 0..4).prop_map(NetReply::Batch),
        (any::<bool>(), any::<usize>())
            .prop_map(|(accepted, pending)| NetReply::Feed(FeedAck { accepted, pending })),
    ];
    prop_oneof![
        (any::<u64>(), reply)
            .prop_map(|(generation, reply)| wire::encode_response(&NetResponse { generation, reply })),
        arb_error().prop_map(|e| wire::encode_error(&e.code, &e.message)),
    ]
}

/// `Ok` when both decoders agree: the same value (by `Debug`, which
/// prints every f64 as the shortest text that parses back to its bits),
/// or an error from both.
fn agree<T: std::fmt::Debug, E: std::fmt::Debug>(
    payload: &[u8],
    oracle: Result<T, E>,
    decoded: Result<T, E>,
) -> Result<(), TestCaseError> {
    let same = match (&oracle, &decoded) {
        (Ok(a), Ok(b)) => format!("{a:?}") == format!("{b:?}"),
        (Err(_), Err(_)) => true,
        _ => false,
    };
    prop_assert!(
        same,
        "payload {:?}\n  tree: {:?}\n bytes: {:?}",
        String::from_utf8_lossy(payload),
        oracle,
        decoded
    );
    Ok(())
}

fn requests_agree(payload: &[u8]) -> Result<(), TestCaseError> {
    agree(payload, tree_decode_request(payload), wire::decode_request(payload))
}

fn replies_agree(payload: &[u8]) -> Result<(), TestCaseError> {
    agree(payload, tree_decode_response(payload), wire::decode_response(payload))
}

/// splitmix64: the mutations' randomness, from one drawn seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

/// Every member name some wire shape reads.
const KNOWN: &str = "op mode feats user item fields n candidates exclude exclude_seen par strategy \
                     precision rating id requests ok generation kind value items accepted pending code \
                     message results nprobe";

/// A value of some JSON type, mostly of the wrong type for any member.
fn junk(mix: &mut Mix) -> Value {
    let text = [
        "null",
        "true",
        "-1.5",
        "2.55e2",
        "18446744073709551616",
        "7",
        "\"junk\"",
        "\"score\"",
        r#""e\n\"""#,
        "[1,[2,{}]]",
        r#"[["segment",1,2]]"#,
        r#"{"kind":"ivf","nprobe":"x"}"#,
        r#"{"a":[null]}"#,
        "[]",
        "{}",
    ][mix.below(15)];
    json::parse(text).expect("junk is well-formed")
}

/// Shuffles, duplicates and pads the members of every object in `v`.
fn mutate_members(v: &mut Value, mix: &mut Mix) {
    match v {
        Value::Arr(items) => items.iter_mut().for_each(|item| mutate_members(item, mix)),
        Value::Obj(members) => {
            members.iter_mut().for_each(|(_, value)| mutate_members(value, mix));
            if mix.chance(2) {
                for i in (1..members.len()).rev() {
                    members.swap(i, mix.below(i + 1));
                }
            }
            if !members.is_empty() && mix.chance(3) {
                // A later duplicate is ignored; an earlier one wins.
                let at = mix.below(members.len());
                let (key, value) = members[at].clone();
                let value = if mix.chance(2) { value } else { junk(mix) };
                let to =
                    if mix.chance(2) { at + 1 + mix.below(members.len() - at) } else { mix.below(at + 1) };
                members.insert(to, (key, value));
            }
            for _ in 0..mix.below(3) {
                let key = if mix.chance(2) {
                    let known: Vec<&str> = KNOWN.split_whitespace().collect();
                    known[mix.below(known.len())].to_string()
                } else {
                    format!("junk_{}", mix.below(4))
                };
                let to = mix.below(members.len() + 1);
                members.insert(to, (key, junk(mix)));
            }
        }
        _ => {}
    }
}

fn write(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => b.serialize_json(out),
        Value::Num(x) => x.serialize_json(out),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Str(s) => json::write_escaped(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_escaped(key, out);
                out.push(':');
                write(value, out);
            }
            out.push('}');
        }
    }
}

/// `payload` with its objects' members mutated.
fn with_mutated_members(payload: &str, mix: &mut Mix) -> String {
    let mut v = json::parse(payload).expect("the encoder writes JSON");
    mutate_members(&mut v, mix);
    let mut out = String::new();
    write(&v, &mut out);
    out
}

/// One byte replaced, inserted or deleted, or the payload cut short.
fn with_byte_mutation(payload: &[u8], mix: &mut Mix) -> Vec<u8> {
    const SIGNIFICANT: &[u8] = b"{}[]\",:.-+eE0123456789 \\nutrfals\xff";
    let mut out = payload.to_vec();
    let at = mix.below(out.len() + 1);
    let byte = if mix.chance(2) { SIGNIFICANT[mix.below(SIGNIFICANT.len())] } else { mix.next() as u8 };
    match mix.below(4) {
        0 if at < out.len() => out[at] = byte,
        1 => out.insert(at, byte),
        2 if at < out.len() => {
            out.remove(at);
        }
        _ => out.truncate(at),
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_decode_as_the_tree_decoder_does(req in arb_request(), seed in any::<u64>()) {
        let text = wire::encode_request(&req);
        requests_agree(text.as_bytes())?;
        let mut mix = Mix(seed);
        for _ in 0..4 {
            requests_agree(with_mutated_members(&text, &mut mix).as_bytes())?;
            requests_agree(&with_byte_mutation(text.as_bytes(), &mut mix))?;
        }
    }

    #[test]
    fn replies_decode_as_the_tree_decoder_does(text in arb_reply_payload(), seed in any::<u64>()) {
        replies_agree(text.as_bytes())?;
        let mut mix = Mix(seed);
        for _ in 0..4 {
            replies_agree(with_mutated_members(&text, &mut mix).as_bytes())?;
            replies_agree(&with_byte_mutation(text.as_bytes(), &mut mix))?;
        }
    }

    #[test]
    fn arbitrary_bytes_decode_as_the_tree_decoder_does(bytes in vec(any::<u8>(), 0..200)) {
        requests_agree(&bytes)?;
        replies_agree(&bytes)?;
    }
}

fn request(text: &str) -> NetRequest {
    let decoded = wire::decode_request(text.as_bytes());
    requests_agree(text.as_bytes()).expect("both decoders agree");
    decoded.unwrap_or_else(|e| panic!("{text}: {e}"))
}

#[test]
fn of_duplicated_keys_the_first_wins() {
    let pair = NetRequest::Score(ScoreRequest::pair(1, 3));
    assert_eq!(request(r#"{"op":"score","mode":"pair","user":1,"user":2,"item":3}"#), pair);
    // Only the first is type-checked; a later one is only validated.
    assert_eq!(request(r#"{"op":"score","mode":"pair","user":1,"item":3,"item":"x"}"#), pair);
    assert_eq!(request(r#"{"op":"score","op":"topn","mode":"pair","user":1,"item":3}"#), pair);
    let refused = [
        r#"{"op":"score","mode":"pair","user":"x","user":1,"item":3}"#,
        r#"{"op":"score","mode":"pair","user":1,"item":3,"item":tru}"#,
    ];
    for text in refused {
        assert!(wire::decode_request(text.as_bytes()).is_err(), "{text}");
        requests_agree(text.as_bytes()).expect("both refuse");
    }
    let reply = r#"{"ok":true,"ok":false,"generation":4,"kind":"score","value":0.5,"value":null}"#;
    let decoded = wire::decode_response(reply.as_bytes()).unwrap().unwrap();
    assert_eq!(decoded, NetResponse { generation: 4, reply: NetReply::Score(0.5) });
    replies_agree(reply.as_bytes()).expect("both decoders agree");
}

#[test]
fn a_member_the_shape_does_not_read_is_validated_but_not_type_checked() {
    let pair = NetRequest::Score(ScoreRequest::pair(1, 2));
    assert_eq!(request(r#"{"op":"score","mode":"pair","user":1,"item":2,"fields":"junk"}"#), pair);
    assert_eq!(request(r#"{"op":"score","mode":"pair","user":1,"item":2,"requests":7,"n":-1}"#), pair);
    // Members come in any order, the discriminant included.
    assert_eq!(request(r#"{"item":2,"user":1,"mode":"pair","op":"score"}"#), pair);
    // Syntax is checked everywhere, trailing bytes and UTF-8 included.
    for bad in [
        &br#"{"op":"score","mode":"pair","user":1,"item":2,"fields":[1,]}"#[..],
        br#"{"op":"score","mode":"pair","user":1,"item":2,"x":"\q"}"#,
        b"{\"op\":\"score\",\"mode\":\"pair\",\"user\":1,\"item\":2,\"x\":\"\xff\"}",
        br#"{"op":"score","mode":"pair","user":1,"item":2} {}"#,
    ] {
        assert!(wire::decode_request(bad).is_err(), "{}", String::from_utf8_lossy(bad));
        requests_agree(bad).expect("both refuse");
    }
}

#[test]
fn cold_field_names_outside_the_bmp_arrive_as_python_sends_them() {
    // `json.dumps({"fields": [["🎬", 1]]})`, as Python writes it.
    let hex = |code: &str| format!(r"\u{code}");
    let name = format!("{}{}", hex("d83c"), hex("dfac"));
    let text = format!(r#"{{"op":"score","mode":"cold","item":5,"fields":[["{name}",1]]}}"#);
    assert_eq!(request(&text), NetRequest::Score(ScoreRequest::cold(5, &[("🎬", 1)])));
}

#[test]
fn errors_name_the_member() {
    let message = |text: &str| wire::decode_request(text.as_bytes()).unwrap_err().message;
    assert_eq!(message(r#"{"op":"topn","user":1}"#), "missing field 'n' in object");
    assert!(message(r#"{"op":"topn","user":1,"n":-1}"#).starts_with("field 'n': "));
    assert!(message(r#"{"op":"topn","user":1,"n":2,"exclude":[1.5]}"#).starts_with("field 'exclude': "));
    assert!(
        message(r#"{"op":"topn","user":1,"n":2,"strategy":{"kind":7}}"#).starts_with("field 'strategy': ")
    );
}
