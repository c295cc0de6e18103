//! Property values.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A property value stored on a node or relationship.
///
/// The variants mirror what the IYP datasets actually contain (the paper's
/// datasets are CSV/JSON): null, booleans, 64-bit integers, floats,
/// strings, and homogeneous-or-not lists.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Absent / null.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// List of values.
    List(Vec<Value>),
}

/// The deepest list nesting a stored value may have. Snapshot and
/// journal decoding recurse once per level, so they refuse anything
/// deeper (as `value nesting too deep`), and writers refuse to store
/// it. 128 matches the JSON parser's nesting limit.
pub const MAX_VALUE_DEPTH: usize = 128;

impl Value {
    /// List nesting depth: 0 for a scalar, 1 for a flat list, one more
    /// per nested level.
    pub fn depth(&self) -> usize {
        match self {
            Value::List(items) => 1 + items.iter().map(Value::depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float; integers are widened.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a list, if it is one.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Truthiness used by `WHERE` evaluation: `Null` and `false` are
    /// falsy, everything else (including `0` and `""`, following Cypher
    /// which only allows booleans here but we are permissive) is truthy.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Value::Null | Value::Bool(false))
    }

    /// Cypher-style equality: `Null` compared to anything is "unknown",
    /// which we surface as `None`. Ints and floats compare numerically.
    pub fn cypher_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (a, b) => Some(loose_eq(a, b)),
        }
    }

    /// Total ordering used by `ORDER BY` and `DISTINCT`: Null < Bool <
    /// number < Str < List. Numbers compare numerically across Int/Float.
    pub fn order(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::List(_) => 4,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let x = a.as_float().unwrap();
                let y = b.as_float().unwrap();
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.order(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// Structural equality with Int/Float numeric coercion.
fn loose_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x == y,
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => *x as f64 == *y,
        (Value::List(x), Value::List(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| loose_eq(a, b))
        }
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        loose_eq(self, other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

/// A property map. BTreeMap keeps iteration deterministic, which matters
/// for reproducible snapshots and test output.
pub type Props = BTreeMap<String, Value>;

/// Builds a [`Props`] map from `(key, value)` pairs.
///
/// ```
/// use iyp_graph::{props, Value};
/// let p = props([("asn", Value::Int(2497)), ("name", "IIJ".into())]);
/// assert_eq!(p.get("asn"), Some(&Value::Int(2497)));
/// ```
pub fn props<const N: usize>(pairs: [(&str, Value); N]) -> Props {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// A hashable, totally-ordered subset of [`Value`] used for node-identity
/// keys in the unique index (`asn`, `ip`, `prefix`, names…). IYP node
/// keys are always strings or integers.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum KeyValue {
    /// Integer key (e.g. `asn`).
    Int(i64),
    /// String key (e.g. `prefix`, `name`).
    Str(String),
}

impl KeyValue {
    /// Converts a general value into a key, if it has a key-able type.
    pub fn from_value(v: &Value) -> Option<KeyValue> {
        match v {
            Value::Int(i) => Some(KeyValue::Int(*i)),
            Value::Str(s) => Some(KeyValue::Str(s.clone())),
            _ => None,
        }
    }

    /// Converts back to a general [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            KeyValue::Int(i) => Value::Int(*i),
            KeyValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

impl From<i64> for KeyValue {
    fn from(i: i64) -> Self {
        KeyValue::Int(i)
    }
}
impl From<u32> for KeyValue {
    fn from(i: u32) -> Self {
        KeyValue::Int(i as i64)
    }
}
impl From<&str> for KeyValue {
    fn from(s: &str) -> Self {
        KeyValue::Str(s.to_string())
    }
}
impl From<String> for KeyValue {
    fn from(s: String) -> Self {
        KeyValue::Str(s)
    }
}

impl fmt::Display for KeyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyValue::Int(i) => write!(f, "{i}"),
            KeyValue::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_equality_across_types() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn cypher_eq_null_is_unknown() {
        assert_eq!(Value::Null.cypher_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).cypher_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).cypher_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).cypher_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = [
            Value::Str("b".into()),
            Value::Null,
            Value::Int(5),
            Value::Bool(true),
            Value::Float(2.5),
            Value::List(vec![Value::Int(1)]),
            Value::Str("a".into()),
        ];
        vals.sort_by(|a, b| a.order(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(2.5));
        assert_eq!(vals[3], Value::Int(5));
        assert_eq!(vals[4], Value::Str("a".into()));
        assert_eq!(vals[5], Value::Str("b".into()));
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(Value::Int(0).is_truthy());
    }

    #[test]
    fn list_ordering_is_lexicographic() {
        let a = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::List(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::List(vec![Value::Int(1)]);
        assert_eq!(a.order(&b), Ordering::Less);
        assert_eq!(c.order(&a), Ordering::Less);
    }

    #[test]
    fn key_value_roundtrip() {
        let v = Value::Str("2001:db8::/32".into());
        let k = KeyValue::from_value(&v).unwrap();
        assert_eq!(k.to_value(), v);
        assert!(KeyValue::from_value(&Value::Float(1.0)).is_none());
        assert!(KeyValue::from_value(&Value::Null).is_none());
    }

    #[test]
    fn props_builder() {
        let p = props([("a", 1i64.into()), ("b", "x".into())]);
        assert_eq!(p.len(), 2);
        assert_eq!(p["b"].as_str(), Some("x"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Str("a".into())]).to_string(),
            "[1, a]"
        );
        assert_eq!(Value::Null.to_string(), "null");
    }
}
