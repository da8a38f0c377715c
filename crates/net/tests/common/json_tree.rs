//! The JSON tree every decoder went through before they read straight
//! off `serde::json::Reader`: parse the document into a [`Value`], then
//! look each member up with [`field`] / [`Value::get`] and convert it
//! with this file's [`Deserialize`]. Kept as the oracle the byte-level
//! decoders are differential-tested against — the wire's
//! (`tree_decode.rs`) and the engine's artifact loader
//! (`crates/engine/tests/common/tree_artifact.rs`, which includes this
//! file by path). The builder is the reader's public API, so both sides
//! share one tokenizer and differ only in how they decode.

use serde::json::{self, Kind, Reader};

pub use serde::json::{write_escaped, Error};

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written with a fraction or an exponent — or an integer
    /// literal beyond `i128` — as the correctly-rounded `f64`.
    Num(f64),
    /// An integer literal, exactly.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Human-readable kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) | Value::Int(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Member lookup on an object: the first of a duplicated key.
    pub fn get(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A tree prints as the document it was parsed from, up to whitespace
/// and the spelling of numbers and escapes.
impl serde::Serialize for Value {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.serialize_json(out),
            Value::Num(x) => x.serialize_json(out),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => items.serialize_json(out),
            Value::Obj(members) => {
                let members: Vec<(&str, &dyn serde::Serialize)> =
                    members.iter().map(|(k, v)| (k.as_str(), v as &dyn serde::Serialize)).collect();
                json::write_object(out, &members);
            }
        }
    }
}

/// Parses a JSON document into a tree.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut r = Reader::new(input);
    let v = value(&mut r)?;
    r.finish()?;
    Ok(v)
}

fn value(r: &mut Reader<'_>) -> Result<Value, Error> {
    match r.next_kind()? {
        Kind::String => Ok(Value::Str(r.string()?.into_owned())),
        Kind::Array => {
            r.begin_array()?;
            let mut items = Vec::new();
            while r.next_element()? {
                items.push(value(r)?);
            }
            Ok(Value::Arr(items))
        }
        Kind::Object => {
            r.begin_object()?;
            let mut members = Vec::new();
            while let Some(key) = r.next_key()? {
                members.push((key.into_owned(), value(r)?));
            }
            Ok(Value::Obj(members))
        }
        _ => Ok(match r.shallow()? {
            json::Value::Bool(b) => Value::Bool(b),
            json::Value::Num(n) => Value::Num(n),
            json::Value::Int(i) => Value::Int(i),
            _ => Value::Null,
        }),
    }
}

/// Looks up and deserialises an object member (what the derive
/// generated for every field).
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
    let member = v
        .get(name)
        .ok_or_else(|| Error::new(format!("missing field '{name}' in {}", v.kind())))?;
    T::deserialize_json(member).map_err(|e| Error::new(format!("field '{name}': {e}")))
}

/// Deserialisation from a parsed tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a JSON value.
    fn deserialize_json(v: &Value) -> Result<Self, Error>;
}

/// The integer a JSON number denotes, exactly.
fn integer(v: &Value) -> Result<i128, Error> {
    match v {
        Value::Int(i) => Ok(*i),
        Value::Num(n) if n.fract() == 0.0 => Ok(*n as i128),
        Value::Num(n) => Err(Error::new(format!("number {n} is not an integer"))),
        _ => Err(Error::new(format!("expected number, found {}", v.kind()))),
    }
}

macro_rules! impl_tree_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize_json(v: &Value) -> Result<Self, Error> {
                let i = integer(v)?;
                <$t>::try_from(i).map_err(|_| Error::new(format!(
                    "number {i} does not fit {}", stringify!($t)
                )))
            }
        }
    )*};
}

impl_tree_int!(u32, u64, usize);

impl Deserialize for f64 {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            return Ok(f64::NAN);
        }
        v.as_f64()
            .ok_or_else(|| Error::new(format!("expected number, found {}", v.kind())))
    }
}

impl Deserialize for bool {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::new(format!("expected bool, found {}", v.kind())))
    }
}

impl Deserialize for String {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::new(format!("expected string, found {}", v.kind())))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::new(format!("expected array, found {}", v.kind())))?;
        arr.iter().map(T::deserialize_json).collect()
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            T::deserialize_json(v).map(Some)
        }
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::new(format!("expected 2-tuple array, found {}", v.kind())))?;
        if arr.len() != 2 {
            return Err(Error::new(format!("expected 2 elements, found {}", arr.len())));
        }
        Ok((A::deserialize_json(&arr[0])?, B::deserialize_json(&arr[1])?))
    }
}
