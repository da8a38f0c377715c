//! The JSON wire format: typed protocol values ⇄ frame payloads.
//!
//! Every frame payload is one JSON object. Requests carry an `"op"`
//! discriminant (`"score"` / `"topn"` / `"batch"`); replies are an
//! envelope with `"ok"` — `true` plus a generation-stamped payload, or
//! `false` plus a stable machine-readable `"code"` and a human `"message"`.
//! The full grammar is documented in the README's "Network serving"
//! section; the shapes here are the reference implementation.
//!
//! Decoding is **total**: any byte payload — non-UTF-8, malformed JSON,
//! wrong shapes, absurd numbers — yields a typed [`WireError`], never a
//! panic (this module and the JSON reader and decoders under it deny
//! clippy's panicking lints — see the `deny` line below — and
//! `tests/frame_proptest.rs` drives arbitrary bytes through it).
//!
//! Decoding reads the payload's bytes once with `serde::json::Reader`,
//! through `serde::Deserialize` and `serde::json`'s member protocol; no
//! `Value` tree is built. Scalars and discriminants cost no allocation
//! (strings are borrowed unless escaped), so a batch of pair scores
//! allocates its request list and nothing per member. What it accepts
//! is fixed by the tree-based decoder it replaced, which
//! `tests/wire_oracle.rs` keeps as a differential oracle:
//!
//! * members may come in any order, the discriminant included;
//! * of a duplicated key the first wins;
//! * the whole payload is validated — syntax, UTF-8, nesting depth,
//!   trailing bytes — including members no shape reads;
//! * a member the discriminant does not read is not type-checked
//!   (`"fields": "junk"` on a pair score is accepted);
//! * errors name the member: `field 'n': …`, `missing field 'n' …`.
//!
//! One deliberate lossy corner: [`ScoreRequest::Instance`] encodes as a
//! `"feats"` request, because scoring ignores the instance label — the
//! two are indistinguishable to the server, and the wire keeps the
//! smaller shape. Integers — ids, counts, generation stamps — decode
//! from the literal's text, exactly, over each type's full range.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

use gmlfm_par::Parallelism;
use gmlfm_serve::{Precision, RetrievalStrategy};
use gmlfm_service::{
    BatchRequest, FeedAck, Interaction, Reply, Request, RequestError, ScoreRequest, TopNRequest,
};
use serde::json::{self, first, optional, required, Reader, Typed};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Stable error codes owned by the transport itself (request-validation
/// codes come from [`RequestError::code`]).
pub mod code {
    /// The payload was not a well-formed request object.
    pub const BAD_REQUEST: &str = "bad_request";
    /// A frame declared a length above the server's cap.
    pub const OVERSIZED_FRAME: &str = "oversized_frame";
    /// The connection budget is exhausted; retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// The server is draining; retry against another instance.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// A `feed` request reached a server bound without a feed sink
    /// (no online loop behind it). Not retryable against this instance.
    pub const FEED_UNAVAILABLE: &str = "feed_unavailable";
}

/// A payload that could not be decoded into a protocol value.
#[derive(Debug)]
pub struct WireError {
    /// What was wrong with the payload.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire payload: {}", self.message)
    }
}

impl std::error::Error for WireError {}

impl From<json::Error> for WireError {
    fn from(e: json::Error) -> Self {
        WireError::new(e.to_string())
    }
}

/// An error reply as it travels on the wire: a stable `code` (from
/// [`RequestError::code`] or [`code`]) plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetError {
    /// Machine-readable error code.
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl NetError {
    /// An error reply with the given code and message.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> Self {
        Self { code: code.into(), message: message.into() }
    }

    /// The wire form of a request-validation error.
    pub fn from_request_error(e: &RequestError) -> Self {
        Self::new(e.code(), e.to_string())
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for NetError {}

/// One request as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum NetRequest {
    /// A single scoring request.
    Score(ScoreRequest),
    /// A single ranking request.
    TopN(TopNRequest),
    /// Many requests answered against one snapshot.
    Batch(BatchRequest),
    /// One streamed interaction for the server's online loop. Carrying
    /// an [`Interaction::id`] makes client retries idempotent.
    Feed(Interaction),
}

/// The successful payload of a [`NetResponse`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetReply {
    /// Payload of a score request.
    Score(f64),
    /// Payload of a top-n request: `(item, score)` pairs, best first.
    TopN(Vec<(u32, f64)>),
    /// Payload of a batch: one slot per sub-request, each independently
    /// a reply or a typed error (slots are never `Batch` themselves).
    Batch(Vec<Result<NetReply, NetError>>),
    /// Acknowledgement of a feed request.
    Feed(FeedAck),
}

impl NetReply {
    /// The wire form of an in-process [`Reply`].
    pub fn from_reply(reply: &Reply) -> Self {
        match reply {
            Reply::Score(x) => NetReply::Score(*x),
            Reply::TopN(items) => NetReply::TopN(items.clone()),
        }
    }
}

/// A successful reply stamped with the generation of the snapshot that
/// produced it — the same contract as [`gmlfm_service::Response`],
/// carried across the network boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct NetResponse {
    /// Generation of the snapshot that answered this request.
    pub generation: u64,
    /// The reply payload.
    pub reply: NetReply,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn push_score_fields(req: &ScoreRequest, out: &mut String) {
    match req {
        // An instance scores identically to its bare feature list (the
        // label is ignored), so both share the "feats" wire shape.
        ScoreRequest::Instance(inst) => {
            out.push_str("\"mode\":\"feats\",\"feats\":");
            inst.feats.serialize_json(out);
        }
        ScoreRequest::Feats(feats) => {
            out.push_str("\"mode\":\"feats\",\"feats\":");
            feats.serialize_json(out);
        }
        ScoreRequest::Pair { user, item } => {
            out.push_str("\"mode\":\"pair\",\"user\":");
            user.serialize_json(out);
            out.push_str(",\"item\":");
            item.serialize_json(out);
        }
        ScoreRequest::Cold { item, fields } => {
            out.push_str("\"mode\":\"cold\",\"item\":");
            item.serialize_json(out);
            out.push_str(",\"fields\":");
            fields.serialize_json(out);
        }
    }
}

fn push_strategy(strategy: &Option<RetrievalStrategy>, out: &mut String) {
    match strategy {
        None => out.push_str("null"),
        Some(RetrievalStrategy::Exact) => out.push_str("{\"kind\":\"exact\"}"),
        Some(RetrievalStrategy::Ivf { nprobe }) => {
            out.push_str("{\"kind\":\"ivf\",\"nprobe\":");
            nprobe.serialize_json(out);
            out.push('}');
        }
    }
}

fn push_topn_fields(req: &TopNRequest, out: &mut String) {
    out.push_str("\"user\":");
    req.user.serialize_json(out);
    out.push_str(",\"n\":");
    req.n.serialize_json(out);
    out.push_str(",\"candidates\":");
    req.candidates.serialize_json(out);
    out.push_str(",\"exclude\":");
    req.exclude.serialize_json(out);
    out.push_str(",\"exclude_seen\":");
    req.exclude_seen.serialize_json(out);
    out.push_str(",\"par\":");
    req.par.map(|p| p.get()).serialize_json(out);
    out.push_str(",\"strategy\":");
    push_strategy(&req.strategy, out);
    out.push_str(",\"precision\":");
    match req.precision {
        None => out.push_str("null"),
        // Precision names contain no JSON-escapable characters.
        Some(p) => {
            out.push('"');
            out.push_str(p.name());
            out.push('"');
        }
    }
}

fn push_request(req: &Request, out: &mut String) {
    match req {
        Request::Score(s) => {
            out.push_str("{\"op\":\"score\",");
            push_score_fields(s, out);
            out.push('}');
        }
        Request::TopN(t) => {
            out.push_str("{\"op\":\"topn\",");
            push_topn_fields(t, out);
            out.push('}');
        }
    }
}

/// Encodes a request as a frame payload.
pub fn encode_request(req: &NetRequest) -> String {
    let mut out = String::new();
    match req {
        NetRequest::Score(s) => {
            out.push_str("{\"op\":\"score\",");
            push_score_fields(s, &mut out);
            out.push('}');
        }
        NetRequest::TopN(t) => {
            out.push_str("{\"op\":\"topn\",");
            push_topn_fields(t, &mut out);
            out.push('}');
        }
        NetRequest::Batch(b) => {
            out.push_str("{\"op\":\"batch\",\"par\":");
            b.par.map(|p| p.get()).serialize_json(&mut out);
            out.push_str(",\"requests\":[");
            for (i, sub) in b.requests.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_request(sub, &mut out);
            }
            out.push_str("]}");
        }
        NetRequest::Feed(event) => {
            out.push_str("{\"op\":\"feed\",\"user\":");
            event.user.serialize_json(&mut out);
            out.push_str(",\"item\":");
            event.item.serialize_json(&mut out);
            out.push_str(",\"rating\":");
            event.rating.serialize_json(&mut out);
            out.push_str(",\"fields\":");
            event.fields.serialize_json(&mut out);
            out.push_str(",\"id\":");
            event.id.serialize_json(&mut out);
            out.push('}');
        }
    }
    out
}

fn push_reply_fields(reply: &NetReply, out: &mut String) {
    match reply {
        NetReply::Score(x) => {
            out.push_str("\"kind\":\"score\",\"value\":");
            x.serialize_json(out);
        }
        NetReply::TopN(items) => {
            out.push_str("\"kind\":\"topn\",\"items\":");
            items.serialize_json(out);
        }
        NetReply::Batch(slots) => {
            out.push_str("\"kind\":\"batch\",\"results\":[");
            for (i, slot) in slots.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match slot {
                    Ok(r) => {
                        out.push_str("{\"ok\":true,");
                        push_reply_fields(r, out);
                        out.push('}');
                    }
                    Err(e) => push_error_object(&e.code, &e.message, out),
                }
            }
            out.push(']');
        }
        NetReply::Feed(ack) => {
            out.push_str("\"kind\":\"feed\",\"accepted\":");
            ack.accepted.serialize_json(out);
            out.push_str(",\"pending\":");
            ack.pending.serialize_json(out);
        }
    }
}

fn push_error_object(code: &str, message: &str, out: &mut String) {
    out.push_str("{\"ok\":false,\"code\":");
    json::write_escaped(code, out);
    out.push_str(",\"message\":");
    json::write_escaped(message, out);
    out.push('}');
}

/// Encodes a successful reply envelope.
pub fn encode_response(resp: &NetResponse) -> String {
    let mut out = String::from("{\"ok\":true,\"generation\":");
    resp.generation.serialize_json(&mut out);
    out.push(',');
    push_reply_fields(&resp.reply, &mut out);
    out.push('}');
    out
}

/// Encodes an error reply envelope.
pub fn encode_error(code: &str, message: &str) -> String {
    let mut out = String::new();
    push_error_object(code, message, &mut out);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

// One pass over the payload with `json::Reader`, no `Value` tree, under
// `serde::json`'s member protocol: the members of each object are
// collected before any is interpreted, since the discriminant may come
// last. The discriminant then takes the members its shape reads.

/// `strategy` on a topn request.
struct Strategy(RetrievalStrategy);

impl Deserialize<'_> for Strategy {
    fn deserialize(r: &mut Reader<'_>) -> Result<Typed<Self>, json::Error> {
        let (mut kind, mut nprobe) = (None, None);
        let read = json::object(r, "kind", |key, r| match key {
            "kind" => first::<Cow<str>>(&mut kind, r),
            "nprobe" => first::<Option<usize>>(&mut nprobe, r),
            _ => r.skip(),
        })?;
        Ok(read.and_then(|()| match &*required(&mut kind, "kind")? {
            "exact" => Ok(Strategy(RetrievalStrategy::Exact)),
            "ivf" => {
                Ok(Strategy(RetrievalStrategy::Ivf { nprobe: optional(&mut nprobe, "nprobe")?.flatten() }))
            }
            other => Err(json::Error::new(format!("unknown retrieval strategy '{other}'"))),
        }))
    }
}

fn reader(payload: &[u8]) -> Result<Reader<'_>, WireError> {
    let text =
        std::str::from_utf8(payload).map_err(|e| WireError::new(format!("payload is not UTF-8: {e}")))?;
    Ok(Reader::new(text))
}

/// The members of one request object that some request shape reads.
#[derive(Default)]
struct RequestMembers<'a> {
    op: Option<Typed<Cow<'a, str>>>,
    mode: Option<Typed<Cow<'a, str>>>,
    feats: Option<Typed<Vec<u32>>>,
    user: Option<Typed<u32>>,
    item: Option<Typed<u32>>,
    fields: Option<Typed<Vec<(String, usize)>>>,
    n: Option<Typed<usize>>,
    candidates: Option<Typed<Option<Vec<u32>>>>,
    exclude: Option<Typed<Vec<u32>>>,
    exclude_seen: Option<Typed<bool>>,
    par: Option<Typed<Option<usize>>>,
    strategy: Option<Typed<Option<Strategy>>>,
    precision: Option<Typed<Option<Cow<'a, str>>>>,
    rating: Option<Typed<Option<f64>>>,
    id: Option<Typed<Option<u64>>>,
    /// Read on a payload's own object only: nothing reads a batch
    /// member's `requests`.
    requests: Option<Typed<Vec<BatchMember>>>,
}

impl<'a> RequestMembers<'a> {
    /// Collects the object at the cursor; `top` for the payload's own.
    fn read(&mut self, r: &mut Reader<'a>, top: bool) -> Result<Typed<()>, json::Error> {
        json::object(r, "op", |key, r| match key {
            "op" => first(&mut self.op, r),
            "mode" => first(&mut self.mode, r),
            "feats" => first(&mut self.feats, r),
            "user" => first(&mut self.user, r),
            "item" => first(&mut self.item, r),
            "fields" => first(&mut self.fields, r),
            "n" => first(&mut self.n, r),
            "candidates" => first(&mut self.candidates, r),
            "exclude" => first(&mut self.exclude, r),
            "exclude_seen" => first(&mut self.exclude_seen, r),
            "par" => first(&mut self.par, r),
            "strategy" => first(&mut self.strategy, r),
            "precision" => first(&mut self.precision, r),
            "rating" => first(&mut self.rating, r),
            "id" => first(&mut self.id, r),
            "requests" if top => first(&mut self.requests, r),
            _ => r.skip(),
        })
    }

    /// A request as a batch member.
    fn member(&mut self) -> Typed<Request> {
        match &*required(&mut self.op, "op")? {
            "score" => Ok(Request::Score(self.score()?)),
            "topn" => Ok(Request::TopN(self.topn()?)),
            "batch" => Err(json::Error::new("batch requests cannot nest")),
            "feed" => Err(json::Error::new("feed requests cannot ride in a batch")),
            other => Err(json::Error::new(format!("unknown op '{other}'"))),
        }
    }

    fn score(&mut self) -> Typed<ScoreRequest> {
        match &*required(&mut self.mode, "mode")? {
            "feats" => Ok(ScoreRequest::Feats(required(&mut self.feats, "feats")?)),
            "pair" => Ok(ScoreRequest::Pair {
                user: required(&mut self.user, "user")?,
                item: required(&mut self.item, "item")?,
            }),
            "cold" => Ok(ScoreRequest::Cold {
                item: required(&mut self.item, "item")?,
                fields: required(&mut self.fields, "fields")?,
            }),
            other => Err(json::Error::new(format!("unknown score mode '{other}'"))),
        }
    }

    fn topn(&mut self) -> Typed<TopNRequest> {
        let candidates = optional(&mut self.candidates, "candidates")?.flatten();
        let exclude = optional(&mut self.exclude, "exclude")?.unwrap_or_default();
        let exclude_seen = optional(&mut self.exclude_seen, "exclude_seen")?.unwrap_or(true);
        Ok(TopNRequest {
            user: required(&mut self.user, "user")?,
            n: required(&mut self.n, "n")?,
            candidates,
            exclude,
            exclude_seen,
            par: self.par()?,
            strategy: optional(&mut self.strategy, "strategy")?.flatten().map(|Strategy(s)| s),
            precision: match optional(&mut self.precision, "precision")?.flatten() {
                None => None,
                Some(name) => Some(
                    Precision::from_name(&name)
                        .ok_or_else(|| json::Error::new(format!("unknown precision '{name}'")))?,
                ),
            },
        })
    }

    /// `par` on a topn or a batch. threads(0) clamps to 1 by the
    /// Parallelism contract, so any wire integer maps to a valid worker
    /// count; the server caps it at `Parallelism::auto` before
    /// executing (`server::bound_par`).
    fn par(&mut self) -> Typed<Option<Parallelism>> {
        Ok(optional(&mut self.par, "par")?.flatten().map(Parallelism::threads))
    }

    fn feed(&mut self) -> Typed<Interaction> {
        let rating = optional(&mut self.rating, "rating")?.flatten();
        let fields = optional(&mut self.fields, "fields")?.unwrap_or_default();
        let id = optional(&mut self.id, "id")?.flatten();
        Ok(Interaction {
            user: required(&mut self.user, "user")?,
            item: required(&mut self.item, "item")?,
            rating,
            fields,
            id,
        })
    }
}

/// A `requests` member of a batch.
struct BatchMember(Request);

impl<'a> Deserialize<'a> for BatchMember {
    fn deserialize(r: &mut Reader<'a>) -> Result<Typed<Self>, json::Error> {
        let mut m = RequestMembers::default();
        Ok(m.read(r, false)?.and_then(|()| m.member()).map(BatchMember))
    }
}

/// Decodes a frame payload into a request. Any malformed payload is a
/// typed [`WireError`] — non-UTF-8 bytes, JSON syntax errors, missing
/// fields, unknown discriminants, numbers out of range.
pub fn decode_request(payload: &[u8]) -> Result<NetRequest, WireError> {
    let mut r = reader(payload)?;
    let mut m = RequestMembers::default();
    let read = m.read(&mut r, true)?;
    r.finish()?;
    read?;
    match &*required(&mut m.op, "op")? {
        "score" => Ok(NetRequest::Score(m.score()?)),
        "topn" => Ok(NetRequest::TopN(m.topn()?)),
        "batch" => {
            let requests = required(&mut m.requests, "requests")?
                .into_iter()
                .map(|BatchMember(r)| r)
                .collect();
            Ok(NetRequest::Batch(BatchRequest { requests, par: m.par()? }))
        }
        "feed" => Ok(NetRequest::Feed(m.feed()?)),
        other => Err(WireError::new(format!("unknown op '{other}'"))),
    }
}

/// The members of one reply object that some reply shape reads.
#[derive(Default)]
struct ReplyMembers<'a> {
    ok: Option<Typed<bool>>,
    generation: Option<Typed<u64>>,
    kind: Option<Typed<Cow<'a, str>>>,
    value: Option<Typed<f64>>,
    items: Option<Typed<Vec<(u32, f64)>>>,
    accepted: Option<Typed<bool>>,
    pending: Option<Typed<usize>>,
    code: Option<Typed<Cow<'a, str>>>,
    message: Option<Typed<Cow<'a, str>>>,
    /// Read on a payload's own object only: a batch slot cannot hold a
    /// batch.
    results: Option<Typed<Vec<BatchSlot>>>,
}

impl<'a> ReplyMembers<'a> {
    /// Collects the object at the cursor; `top` for the payload's own.
    fn read(&mut self, r: &mut Reader<'a>, top: bool) -> Result<Typed<()>, json::Error> {
        json::object(r, "ok", |key, r| match key {
            "ok" => first(&mut self.ok, r),
            "generation" => first(&mut self.generation, r),
            "kind" => first(&mut self.kind, r),
            "value" => first(&mut self.value, r),
            "items" => first(&mut self.items, r),
            "accepted" => first(&mut self.accepted, r),
            "pending" => first(&mut self.pending, r),
            "code" => first(&mut self.code, r),
            "message" => first(&mut self.message, r),
            "results" if top => first(&mut self.results, r),
            _ => r.skip(),
        })
    }

    /// The payload of an `"ok": true` object; `top` for the payload's own.
    fn reply(&mut self, top: bool) -> Typed<NetReply> {
        match &*required(&mut self.kind, "kind")? {
            "score" => Ok(NetReply::Score(required(&mut self.value, "value")?)),
            "topn" => Ok(NetReply::TopN(required(&mut self.items, "items")?)),
            "batch" if top => Ok(NetReply::Batch(
                required(&mut self.results, "results")?
                    .into_iter()
                    .map(|BatchSlot(s)| s)
                    .collect(),
            )),
            "batch" => Err(json::Error::new("batch replies cannot nest")),
            "feed" => Ok(NetReply::Feed(FeedAck {
                accepted: required(&mut self.accepted, "accepted")?,
                pending: required(&mut self.pending, "pending")?,
            })),
            other => Err(json::Error::new(format!("unknown reply kind '{other}'"))),
        }
    }

    /// The error of an `"ok": false` object.
    fn error(&mut self) -> Typed<NetError> {
        Ok(NetError {
            code: required(&mut self.code, "code")?.into_owned(),
            message: required(&mut self.message, "message")?.into_owned(),
        })
    }
}

/// A `results` slot of a batch reply.
struct BatchSlot(Result<NetReply, NetError>);

impl<'a> Deserialize<'a> for BatchSlot {
    fn deserialize(r: &mut Reader<'a>) -> Result<Typed<Self>, json::Error> {
        let mut m = ReplyMembers::default();
        Ok(m.read(r, false)?.and_then(|()| match required(&mut m.ok, "ok")? {
            true => Ok(BatchSlot(Ok(m.reply(false)?))),
            false => Ok(BatchSlot(Err(m.error()?))),
        }))
    }
}

/// Decodes a reply envelope: `Ok(Ok(..))` is a successful response,
/// `Ok(Err(..))` a typed server-side error reply, `Err(..)` a payload
/// that is not a well-formed envelope at all.
pub fn decode_response(payload: &[u8]) -> Result<Result<NetResponse, NetError>, WireError> {
    let mut r = reader(payload)?;
    let mut m = ReplyMembers::default();
    let read = m.read(&mut r, true)?;
    r.finish()?;
    read?;
    Ok(match required(&mut m.ok, "ok")? {
        true => {
            let generation = required(&mut m.generation, "generation")?;
            Ok(NetResponse { generation, reply: m.reply(true)? })
        }
        false => Err(m.error()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            NetRequest::Score(ScoreRequest::feats(vec![0u32, 7, 99])),
            NetRequest::Score(ScoreRequest::pair(3, 14)),
            NetRequest::Score(ScoreRequest::cold(2, &[("gender", 1), ("age", 30)])),
            NetRequest::TopN(TopNRequest::new(5, 10)),
            NetRequest::TopN(
                TopNRequest::new(1, 3)
                    .candidates(vec![9, 8, 7])
                    .exclude(vec![8])
                    .include_seen()
                    .parallelism(Parallelism::threads(2))
                    .strategy(RetrievalStrategy::Ivf { nprobe: Some(4) }),
            ),
            NetRequest::TopN(TopNRequest::new(2, 5).precision(Precision::I8)),
            NetRequest::TopN(TopNRequest::new(2, 5).precision(Precision::F32)),
            NetRequest::Batch(
                BatchRequest::new(vec![
                    Request::Score(ScoreRequest::pair(0, 1)),
                    Request::TopN(TopNRequest::new(0, 2)),
                ])
                .parallelism(Parallelism::serial()),
            ),
        ];
        for req in &reqs {
            let text = encode_request(req);
            let back = decode_request(text.as_bytes()).unwrap();
            assert_eq!(&back, req, "wire text: {text}");
        }
    }

    #[test]
    fn unknown_precision_is_a_typed_error() {
        let err = decode_request(br#"{"op":"topn","user":1,"n":2,"precision":"f16"}"#)
            .expect_err("unknown precision name must not decode");
        assert!(err.message.contains("precision"), "message: {}", err.message);
        // Absent and null both mean "snapshot default".
        let absent = decode_request(br#"{"op":"topn","user":1,"n":2}"#).unwrap();
        let null = decode_request(br#"{"op":"topn","user":1,"n":2,"precision":null}"#).unwrap();
        assert_eq!(absent, null);
    }

    #[test]
    fn feed_requests_and_acks_round_trip() {
        let reqs = [
            NetRequest::Feed(Interaction::new(3, 14)),
            NetRequest::Feed(Interaction::new(0, 1).rating(-1.0).fields(&[("age", 2)]).id(42)),
        ];
        for req in &reqs {
            let text = encode_request(req);
            let back = decode_request(text.as_bytes()).unwrap();
            assert_eq!(&back, req, "wire text: {text}");
        }
        let resp =
            NetResponse { generation: 4, reply: NetReply::Feed(FeedAck { accepted: true, pending: 9 }) };
        let text = encode_response(&resp);
        assert_eq!(decode_response(text.as_bytes()).unwrap().unwrap(), resp, "wire text: {text}");
        // A duplicate ack is accepted:false, still an ok envelope.
        let dup =
            NetResponse { generation: 4, reply: NetReply::Feed(FeedAck { accepted: false, pending: 0 }) };
        assert_eq!(decode_response(encode_response(&dup).as_bytes()).unwrap().unwrap(), dup);
    }

    #[test]
    fn instance_requests_normalise_to_feats() {
        let req = NetRequest::Score(ScoreRequest::Instance(gmlfm_data::Instance::new(vec![1, 2], 1.0)));
        let back = decode_request(encode_request(&req).as_bytes()).unwrap();
        assert_eq!(back, NetRequest::Score(ScoreRequest::feats(vec![1u32, 2])));
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            NetResponse { generation: 1, reply: NetReply::Score(-2.5) },
            NetResponse { generation: 7, reply: NetReply::TopN(vec![(3, 1.5), (1, 0.25)]) },
            NetResponse {
                generation: 2,
                reply: NetReply::Batch(vec![
                    Ok(NetReply::Score(0.5)),
                    Err(NetError::new("unknown_user", "user 9 outside the catalog's 4 users")),
                    Ok(NetReply::TopN(vec![])),
                ]),
            },
        ];
        for resp in &resps {
            let text = encode_response(resp);
            let back = decode_response(text.as_bytes()).unwrap().unwrap();
            assert_eq!(&back, resp, "wire text: {text}");
        }
    }

    #[test]
    fn error_envelopes_round_trip() {
        let text = encode_error(code::OVERLOADED, "124 connections active");
        let err = decode_response(text.as_bytes()).unwrap().unwrap_err();
        assert_eq!(err, NetError::new("overloaded", "124 connections active"));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        for bad in [
            &b"\xff\xfe"[..],                                                             // not UTF-8
            b"{",                                                                         // JSON syntax
            b"[1,2,3]",                                                                   // not an object
            b"{\"op\":\"noop\"}",                                                         // unknown op
            b"{\"op\":\"score\",\"mode\":\"x\"}",                                         // unknown mode
            b"{\"op\":\"topn\",\"user\":1}",                                              // missing n
            b"{\"op\":\"topn\",\"user\":-1,\"n\":1}",                                     // u32 out of range
            b"{\"op\":\"batch\",\"requests\":[{\"op\":\"batch\",\"requests\":[]}]}",      // nesting
            b"{\"op\":\"feed\",\"user\":1}",                                              // missing item
            b"{\"op\":\"feed\",\"user\":1,\"item\":2,\"rating\":\"five\"}",               // bad rating
            b"{\"op\":\"batch\",\"requests\":[{\"op\":\"feed\",\"user\":1,\"item\":2}]}", // feed in batch
        ] {
            assert!(decode_request(bad).is_err(), "{:?} should fail", String::from_utf8_lossy(bad));
        }
        assert!(decode_response(b"{\"ok\":true}").is_err());
        assert!(decode_response(b"{\"ok\":false}").is_err());
    }

    #[test]
    fn wire_integers_are_exact_over_their_whole_range() {
        // Neighbouring feed ids above 2^53 are two ids, not one f64.
        let id_of = |id: &str| {
            let text = format!(r#"{{"op":"feed","user":1,"item":2,"id":{id}}}"#);
            match decode_request(text.as_bytes()) {
                Ok(NetRequest::Feed(event)) => event.id,
                other => panic!("a feed frame decoded to {other:?}"),
            }
        };
        assert_eq!(id_of("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(id_of("9007199254740992"), Some(9_007_199_254_740_992));
        assert_eq!(id_of("18446744073709551615"), Some(u64::MAX));

        // 2^64 fits no field: a typed error, never a saturating cast.
        for hostile in [
            r#"{"op":"topn","user":1,"n":18446744073709551616}"#,
            r#"{"op":"topn","user":18446744073709551616,"n":1}"#,
            r#"{"op":"feed","user":1,"item":2,"id":18446744073709551616}"#,
        ] {
            let err = decode_request(hostile.as_bytes()).expect_err(hostile);
            assert!(err.message.contains("does not fit"), "{hostile}: {}", err.message);
        }

        // The extremes round-trip through the codec.
        for req in [
            NetRequest::TopN(TopNRequest::new(u32::MAX, usize::MAX)),
            NetRequest::Feed(Interaction::new(u32::MAX, u32::MAX).id(u64::MAX)),
        ] {
            let text = encode_request(&req);
            assert_eq!(decode_request(text.as_bytes()).unwrap(), req, "wire text: {text}");
        }
        let resp = NetResponse { generation: u64::MAX, reply: NetReply::Score(1.0) };
        assert_eq!(decode_response(encode_response(&resp).as_bytes()).unwrap().unwrap(), resp);
    }
}
