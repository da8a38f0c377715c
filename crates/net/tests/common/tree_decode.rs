//! The wire decoders as they were before `wire` read bytes directly:
//! parse the payload into a `json::Value` tree, then look each member up
//! with `json::field` / `Value::get`. Kept verbatim — only renamed, with
//! `WireError::new` spelled as a struct literal and the tree taken from
//! `json_tree.rs` — as the oracle the byte-level decoders are
//! differential-tested against.

use super::json_tree::{self as json, Deserialize, Value};
use gmlfm_net::wire::{NetError, NetReply, NetRequest, NetResponse, WireError};
use gmlfm_par::Parallelism;
use gmlfm_serve::{Precision, RetrievalStrategy};
use gmlfm_service::{BatchRequest, FeedAck, Interaction, Request, ScoreRequest, TopNRequest};

fn wire_error(message: impl Into<String>) -> WireError {
    WireError { message: message.into() }
}

fn parse_payload(payload: &[u8]) -> Result<Value, WireError> {
    let text = std::str::from_utf8(payload).map_err(|e| wire_error(format!("payload is not UTF-8: {e}")))?;
    Ok(json::parse(text)?)
}

fn decode_score(v: &Value) -> Result<ScoreRequest, WireError> {
    let mode: String = json::field(v, "mode")?;
    match mode.as_str() {
        "feats" => Ok(ScoreRequest::Feats(json::field(v, "feats")?)),
        "pair" => Ok(ScoreRequest::Pair { user: json::field(v, "user")?, item: json::field(v, "item")? }),
        "cold" => Ok(ScoreRequest::Cold { item: json::field(v, "item")?, fields: json::field(v, "fields")? }),
        other => Err(wire_error(format!("unknown score mode '{other}'"))),
    }
}

fn decode_strategy(v: &Value) -> Result<Option<RetrievalStrategy>, WireError> {
    let Some(s) = v.get("strategy") else { return Ok(None) };
    if s.is_null() {
        return Ok(None);
    }
    let kind: String = json::field(s, "kind")?;
    match kind.as_str() {
        "exact" => Ok(Some(RetrievalStrategy::Exact)),
        "ivf" => {
            let nprobe = match s.get("nprobe") {
                None => None,
                Some(n) => Option::<usize>::deserialize_json_helper(n)?,
            };
            Ok(Some(RetrievalStrategy::Ivf { nprobe }))
        }
        other => Err(wire_error(format!("unknown retrieval strategy '{other}'"))),
    }
}

fn decode_precision(v: &Value) -> Result<Option<Precision>, WireError> {
    let Some(p) = v.get("precision") else { return Ok(None) };
    if p.is_null() {
        return Ok(None);
    }
    let name = String::deserialize_json(p).map_err(WireError::from)?;
    Precision::from_name(&name)
        .map(Some)
        .ok_or_else(|| wire_error(format!("unknown precision '{name}'")))
}

/// `Option<T>` deserialisation on a borrowed member (the derive-less
/// equivalent of `json::field` for members that may be absent).
trait OptionalMember: Sized {
    fn deserialize_json_helper(v: &Value) -> Result<Self, WireError>;
}

impl<T: Deserialize> OptionalMember for Option<T> {
    fn deserialize_json_helper(v: &Value) -> Result<Self, WireError> {
        if v.is_null() {
            Ok(None)
        } else {
            Ok(Some(T::deserialize_json(v).map_err(WireError::from)?))
        }
    }
}

fn decode_par(v: &Value) -> Result<Option<Parallelism>, WireError> {
    let Some(p) = v.get("par") else { return Ok(None) };
    let n = Option::<usize>::deserialize_json_helper(p)?;
    // threads(0) clamps to 1 by the Parallelism contract, so any wire
    // integer maps to a valid worker count; the server caps it at
    // `Parallelism::auto` before executing (`server::bound_par`).
    Ok(n.map(Parallelism::threads))
}

fn decode_topn(v: &Value) -> Result<TopNRequest, WireError> {
    let candidates = match v.get("candidates") {
        None => None,
        Some(c) => Option::<Vec<u32>>::deserialize_json_helper(c)?,
    };
    let exclude = match v.get("exclude") {
        None => Vec::new(),
        Some(e) => Vec::<u32>::deserialize_json(e).map_err(WireError::from)?,
    };
    let exclude_seen = match v.get("exclude_seen") {
        None => true,
        Some(b) => bool::deserialize_json(b).map_err(WireError::from)?,
    };
    Ok(TopNRequest {
        user: json::field(v, "user")?,
        n: json::field(v, "n")?,
        candidates,
        exclude,
        exclude_seen,
        par: decode_par(v)?,
        strategy: decode_strategy(v)?,
        precision: decode_precision(v)?,
    })
}

fn decode_feed(v: &Value) -> Result<Interaction, WireError> {
    let rating = match v.get("rating") {
        None => None,
        Some(r) => Option::<f64>::deserialize_json_helper(r)?,
    };
    let fields = match v.get("fields") {
        None => Vec::new(),
        Some(fs) => Vec::<(String, usize)>::deserialize_json(fs).map_err(WireError::from)?,
    };
    let id = match v.get("id") {
        None => None,
        Some(i) => Option::<u64>::deserialize_json_helper(i)?,
    };
    Ok(Interaction { user: json::field(v, "user")?, item: json::field(v, "item")?, rating, fields, id })
}

fn decode_one(v: &Value) -> Result<Request, WireError> {
    let op: String = json::field(v, "op")?;
    match op.as_str() {
        "score" => Ok(Request::Score(decode_score(v)?)),
        "topn" => Ok(Request::TopN(decode_topn(v)?)),
        "batch" => Err(wire_error("batch requests cannot nest")),
        "feed" => Err(wire_error("feed requests cannot ride in a batch")),
        other => Err(wire_error(format!("unknown op '{other}'"))),
    }
}

/// Decodes a frame payload into a request. Any malformed payload is a
/// typed [`WireError`] — non-UTF-8 bytes, JSON syntax errors, missing
/// fields, unknown discriminants, numbers out of range.
pub fn tree_decode_request(payload: &[u8]) -> Result<NetRequest, WireError> {
    let v = parse_payload(payload)?;
    let op: String = json::field(&v, "op")?;
    match op.as_str() {
        "score" => Ok(NetRequest::Score(decode_score(&v)?)),
        "topn" => Ok(NetRequest::TopN(decode_topn(&v)?)),
        "batch" => {
            let members = v
                .get("requests")
                .and_then(Value::as_array)
                .ok_or_else(|| wire_error("batch without a 'requests' array"))?;
            let requests = members.iter().map(decode_one).collect::<Result<Vec<_>, _>>()?;
            Ok(NetRequest::Batch(BatchRequest { requests, par: decode_par(&v)? }))
        }
        "feed" => Ok(NetRequest::Feed(decode_feed(&v)?)),
        other => Err(wire_error(format!("unknown op '{other}'"))),
    }
}

fn decode_reply_fields(v: &Value, allow_batch: bool) -> Result<NetReply, WireError> {
    let kind: String = json::field(v, "kind")?;
    match kind.as_str() {
        "score" => Ok(NetReply::Score(json::field(v, "value")?)),
        "topn" => Ok(NetReply::TopN(json::field(v, "items")?)),
        "batch" if allow_batch => {
            let members = v
                .get("results")
                .and_then(Value::as_array)
                .ok_or_else(|| wire_error("batch reply without a 'results' array"))?;
            let slots = members
                .iter()
                .map(|m| {
                    Ok(match json::field::<bool>(m, "ok")? {
                        true => Ok(decode_reply_fields(m, false)?),
                        false => Err(decode_error_fields(m)?),
                    })
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(NetReply::Batch(slots))
        }
        "batch" => Err(wire_error("batch replies cannot nest")),
        "feed" => Ok(NetReply::Feed(FeedAck {
            accepted: json::field(v, "accepted")?,
            pending: json::field(v, "pending")?,
        })),
        other => Err(wire_error(format!("unknown reply kind '{other}'"))),
    }
}

fn decode_error_fields(v: &Value) -> Result<NetError, WireError> {
    Ok(NetError { code: json::field(v, "code")?, message: json::field(v, "message")? })
}

/// Decodes a reply envelope: `Ok(Ok(..))` is a successful response,
/// `Ok(Err(..))` a typed server-side error reply, `Err(..)` a payload
/// that is not a well-formed envelope at all.
pub fn tree_decode_response(payload: &[u8]) -> Result<Result<NetResponse, NetError>, WireError> {
    let v = parse_payload(payload)?;
    match json::field::<bool>(&v, "ok")? {
        true => {
            let generation: u64 = json::field(&v, "generation")?;
            Ok(Ok(NetResponse { generation, reply: decode_reply_fields(&v, true)? }))
        }
        false => Ok(Err(decode_error_fields(&v)?)),
    }
}
