//! The little-endian binary encoding shared by snapshots, graph ops
//! and the write-ahead log.
//!
//! Writers append to a plain `Vec<u8>`. [`Reader`] decodes in place
//! from a borrowed slice; every read is bounds-checked and reports a
//! short input as `GraphError::Snapshot("truncated <what>")`, so no
//! input can make decoding panic.

use crate::error::GraphError;
use crate::value::{Props, Value, MAX_VALUE_DEPTH};

/// A bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `len` bytes, borrowed from the input.
    pub fn bytes(&mut self, len: usize, what: &str) -> Result<&'a [u8], GraphError> {
        if self.buf.len() < len {
            return Err(GraphError::Snapshot(format!("truncated {what}")));
        }
        let (head, tail) = self.buf.split_at(len);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], GraphError> {
        Ok(self
            .bytes(N, what)?
            .try_into()
            .expect("bytes() returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, GraphError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16, GraphError> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, GraphError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, GraphError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64, GraphError> {
        self.array(what).map(i64::from_le_bytes)
    }

    /// A little-endian `f64`.
    pub fn f64(&mut self, what: &str) -> Result<f64, GraphError> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, GraphError> {
        let len = self.u32(what)? as usize;
        let body = self.bytes(len, what)?;
        std::str::from_utf8(body)
            .map(str::to_owned)
            .map_err(|e| GraphError::Snapshot(format!("{what}: {e}")))
    }

    /// A tagged [`Value`] (see [`put_value`]). Lists nested deeper than
    /// [`MAX_VALUE_DEPTH`] are refused, so crafted input cannot recurse
    /// the decoder off the stack.
    pub fn value(&mut self) -> Result<Value, GraphError> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, GraphError> {
        match self.u8("value tag")? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.u8("bool")? != 0)),
            2 => Ok(Value::Int(self.i64("int")?)),
            3 => Ok(Value::Float(self.f64("float")?)),
            4 => Ok(Value::Str(self.str("string")?)),
            5 => {
                if depth == MAX_VALUE_DEPTH {
                    return Err(GraphError::Snapshot("value nesting too deep".into()));
                }
                let n = self.u32("list length")? as usize;
                // Every element takes at least one byte: a corrupt
                // length cannot reserve more than the input could hold.
                let mut l = Vec::with_capacity(n.min(self.remaining()));
                for _ in 0..n {
                    l.push(self.value_at(depth + 1)?);
                }
                Ok(Value::List(l))
            }
            t => Err(GraphError::Snapshot(format!("unknown value tag {t}"))),
        }
    }

    /// A property map (see [`put_props`]).
    pub fn props(&mut self) -> Result<Props, GraphError> {
        let n = self.u32("props length")?;
        let mut props = Props::new();
        for _ in 0..n {
            let k = self.str("property key")?;
            let v = self.value()?;
            props.insert(k, v);
        }
        Ok(props)
    }
}

/// Appends a `u32`-length-prefixed string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a tagged value: `0` null, `1` bool, `2` int, `3` float,
/// `4` string, `5` list.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => buf.extend_from_slice(&[1, *b as u8]),
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(3);
            buf.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
        Value::List(l) => {
            buf.push(5);
            buf.extend_from_slice(&(l.len() as u32).to_le_bytes());
            for x in l {
                put_value(buf, x);
            }
        }
    }
}

/// Appends a property map: `u32` count, then key/value pairs.
pub fn put_props(buf: &mut Vec<u8>, props: &Props) {
    buf.extend_from_slice(&(props.len() as u32).to_le_bytes());
    for (k, v) in props {
        put_str(buf, k);
        put_value(buf, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_and_short_reads_fail() {
        let mut w = vec![7u8];
        w.extend_from_slice(&300u16.to_le_bytes());
        w.extend_from_slice(&70_000u32.to_le_bytes());
        w.extend_from_slice(&(1u64 << 40).to_le_bytes());
        w.extend_from_slice(&(-9i64).to_le_bytes());
        w.extend_from_slice(&0.25f64.to_le_bytes());
        put_str(&mut w, "abc");
        let mut r = Reader::new(&w);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert_eq!(r.i64("e").unwrap(), -9);
        assert_eq!(r.f64("f").unwrap(), 0.25);
        assert_eq!(r.str("g").unwrap(), "abc");
        assert_eq!(r.remaining(), 0);
        assert_eq!(
            r.u32("op count"),
            Err(GraphError::Snapshot("truncated op count".into()))
        );
    }

    #[test]
    fn str_rejects_bad_utf8_and_short_bodies() {
        let mut w = Vec::new();
        w.extend_from_slice(&2u32.to_le_bytes());
        w.extend_from_slice(&[0xff, 0xfe]);
        assert!(Reader::new(&w).str("name").is_err());
        assert!(Reader::new(&w[..5]).str("name").is_err());
    }
}
