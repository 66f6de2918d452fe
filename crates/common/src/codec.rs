//! A compact, stable binary encoding for checkpoint and wire data.
//!
//! Checkpoint chunks must be encoded the same way regardless of process,
//! platform or run, because recovery hash-partitions entries by their
//! encoded keys (§5 of the paper). The format is deliberately simple:
//! LEB128 varints, zig-zag signed integers, little-endian float bits and
//! length-prefixed strings, each value prefixed by a one-byte tag.

use bytes::{BufMut, BytesMut};

use crate::error::{SdgError, SdgResult};
use crate::ids::EdgeId;
use crate::time::VectorTs;
use crate::value::{Key, Record, Value};

/// Types that can be written to and read back from the SDG binary format.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decodes one value from the front of `r`.
    fn decode(r: &mut Reader<'_>) -> SdgResult<Self>;
}

/// Encodes `value` into a fresh byte vector.
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    buf.to_vec()
}

/// Decodes a value from `bytes`, requiring that all input is consumed.
pub fn decode_from_slice<T: Codec>(bytes: &[u8]) -> SdgResult<T> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(SdgError::Codec(format!(
            "{} trailing bytes after value",
            r.remaining()
        )));
    }
    Ok(v)
}

/// A cursor over a byte slice with bounds-checked primitive readers.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Returns the number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Returns `true` when all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> SdgResult<u8> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| SdgError::Codec("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> SdgResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| SdgError::Codec(format!("short read: wanted {n} bytes")))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads an unsigned LEB128 varint.
    pub fn read_varint(&mut self) -> SdgResult<u64> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.read_u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(SdgError::Codec("varint overflows u64".into()));
            }
            out |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Reads a zig-zag encoded signed integer.
    pub fn read_zigzag(&mut self) -> SdgResult<i64> {
        let raw = self.read_varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Reads a little-endian f64.
    pub fn read_f64(&mut self) -> SdgResult<f64> {
        let bytes = self.read_bytes(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(f64::from_le_bytes(arr))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> SdgResult<&'a str> {
        let len = self.read_varint()? as usize;
        let bytes = self.read_bytes(len)?;
        std::str::from_utf8(bytes).map_err(|e| SdgError::Codec(format!("invalid utf-8: {e}")))
    }
}

/// Appends an unsigned LEB128 varint to `buf`.
pub fn write_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Appends a zig-zag encoded signed integer to `buf`.
pub fn write_zigzag(buf: &mut BytesMut, v: i64) {
    write_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends a length-prefixed UTF-8 string to `buf`.
pub fn write_str(buf: &mut BytesMut, s: &str) {
    write_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_LIST: u8 = 6;
const TAG_COMPOSITE: u8 = 7;

impl Codec for Value {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Value::Null => buf.put_u8(TAG_NULL),
            Value::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
            Value::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
            Value::Int(i) => {
                buf.put_u8(TAG_INT);
                write_zigzag(buf, *i);
            }
            Value::Float(x) => {
                buf.put_u8(TAG_FLOAT);
                buf.put_slice(&x.to_le_bytes());
            }
            Value::Str(s) => {
                buf.put_u8(TAG_STR);
                write_str(buf, s);
            }
            Value::List(items) => {
                buf.put_u8(TAG_LIST);
                write_varint(buf, items.len() as u64);
                for item in items {
                    item.encode(buf);
                }
            }
            // The bytes of the list form; it decodes as that list.
            Value::Pairs(pairs) => {
                buf.put_u8(TAG_LIST);
                write_varint(buf, pairs.len() as u64);
                for &(i, v) in pairs.iter() {
                    buf.put_u8(TAG_LIST);
                    write_varint(buf, 2);
                    buf.put_u8(TAG_INT);
                    write_zigzag(buf, i);
                    buf.put_u8(TAG_FLOAT);
                    buf.put_slice(&v.to_le_bytes());
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> SdgResult<Self> {
        match r.read_u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL_FALSE => Ok(Value::Bool(false)),
            TAG_BOOL_TRUE => Ok(Value::Bool(true)),
            TAG_INT => Ok(Value::Int(r.read_zigzag()?)),
            TAG_FLOAT => Ok(Value::Float(r.read_f64()?)),
            TAG_STR => Ok(Value::str(r.read_str()?)),
            TAG_LIST => {
                let len = r.read_varint()? as usize;
                if len > r.remaining() {
                    // Each element takes at least one byte; reject absurd
                    // lengths before allocating.
                    return Err(SdgError::Codec(format!("list length {len} exceeds input")));
                }
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(Value::decode(r)?);
                }
                Ok(Value::List(items))
            }
            tag => Err(SdgError::Codec(format!("unknown value tag {tag}"))),
        }
    }
}

impl Codec for Key {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Key::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
            Key::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
            Key::Int(i) => {
                buf.put_u8(TAG_INT);
                write_zigzag(buf, *i);
            }
            Key::Str(s) => {
                buf.put_u8(TAG_STR);
                write_str(buf, s);
            }
            Key::Composite(items) => {
                buf.put_u8(TAG_COMPOSITE);
                write_varint(buf, items.len() as u64);
                for item in items {
                    item.encode(buf);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> SdgResult<Self> {
        match r.read_u8()? {
            TAG_BOOL_FALSE => Ok(Key::Bool(false)),
            TAG_BOOL_TRUE => Ok(Key::Bool(true)),
            TAG_INT => Ok(Key::Int(r.read_zigzag()?)),
            TAG_STR => Ok(Key::str(r.read_str()?)),
            TAG_COMPOSITE => {
                let len = r.read_varint()? as usize;
                if len > r.remaining() {
                    return Err(SdgError::Codec(format!("key length {len} exceeds input")));
                }
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(Key::decode(r)?);
                }
                Ok(Key::Composite(items))
            }
            tag => Err(SdgError::Codec(format!("unknown key tag {tag}"))),
        }
    }
}

impl Codec for Record {
    fn encode(&self, buf: &mut BytesMut) {
        write_varint(buf, self.len() as u64);
        for (name, value) in self.iter() {
            write_str(buf, name);
            value.encode(buf);
        }
    }

    fn decode(r: &mut Reader<'_>) -> SdgResult<Self> {
        let len = r.read_varint()? as usize;
        if len > r.remaining() {
            return Err(SdgError::Codec(format!(
                "record length {len} exceeds input"
            )));
        }
        let mut rec = Record::with_capacity(len);
        for _ in 0..len {
            let name = r.read_str()?.to_owned();
            let value = Value::decode(r)?;
            rec.set(name, value);
        }
        Ok(rec)
    }
}

impl Codec for VectorTs {
    fn encode(&self, buf: &mut BytesMut) {
        let entries: Vec<_> = self.iter().collect();
        write_varint(buf, entries.len() as u64);
        for (edge, ts) in entries {
            write_varint(buf, u64::from(edge.raw()));
            write_varint(buf, ts);
        }
    }

    fn decode(r: &mut Reader<'_>) -> SdgResult<Self> {
        let len = r.read_varint()? as usize;
        if len > r.remaining() {
            return Err(SdgError::Codec(format!(
                "vector length {len} exceeds input"
            )));
        }
        let mut v = VectorTs::new();
        for _ in 0..len {
            let edge = r.read_varint()?;
            let edge = u32::try_from(edge)
                .map_err(|_| SdgError::Codec(format!("edge id {edge} out of range")))?;
            let ts = r.read_varint()?;
            v.observe(EdgeId(edge), ts);
        }
        Ok(v)
    }
}

impl Codec for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        write_varint(buf, *self);
    }

    fn decode(r: &mut Reader<'_>) -> SdgResult<Self> {
        r.read_varint()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        write_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }

    fn decode(r: &mut Reader<'_>) -> SdgResult<Self> {
        let len = r.read_varint()? as usize;
        if len > r.remaining() {
            return Err(SdgError::Codec(format!("vec length {len} exceeds input")));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> SdgResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = encode_to_vec(v);
        let back: T = decode_from_slice(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            write_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn zigzag_boundaries_roundtrip() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            let mut buf = BytesMut::new();
            write_zigzag(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_zigzag().unwrap(), v);
        }
    }

    #[test]
    fn values_roundtrip() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Int(-42));
        roundtrip(&Value::Float(3.5));
        roundtrip(&Value::str("hello κόσμε"));
        roundtrip(&Value::List(vec![
            Value::Int(1),
            Value::List(vec![Value::str("nested")]),
            Value::Null,
        ]));
    }

    #[test]
    fn pairs_encode_as_their_list_form() {
        for cells in [&[][..], &[(0, -0.0)][..], &[(-3, 1.5), (9, f64::MAX)][..]] {
            let pairs = Value::Pairs(cells.into());
            let list = Value::List(
                cells
                    .iter()
                    .map(|&(i, v)| Value::List(vec![Value::Int(i), Value::Float(v)]))
                    .collect(),
            );
            let bytes = encode_to_vec(&pairs);
            assert_eq!(bytes, encode_to_vec(&list));
            let back: Value = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, pairs);
        }
    }

    #[test]
    fn keys_roundtrip() {
        roundtrip(&Key::Int(7));
        roundtrip(&Key::str("user:1"));
        roundtrip(&Key::Composite(vec![Key::Int(1), Key::Bool(false)]));
    }

    #[test]
    fn records_roundtrip_preserving_order() {
        let rec = record! {
            "user" => Value::Int(12),
            "row" => Value::List(vec![Value::Float(0.5); 3]),
        };
        let bytes = encode_to_vec(&rec);
        let back: Record = decode_from_slice(&bytes).unwrap();
        let names: Vec<_> = back.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, ["user", "row"]);
        assert_eq!(back, rec);
    }

    #[test]
    fn vector_ts_roundtrips() {
        let mut v = VectorTs::new();
        v.observe(EdgeId(4), 99);
        v.observe(EdgeId(1), 3);
        roundtrip(&v);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = encode_to_vec(&Value::str("hello"));
        for cut in 0..bytes.len() {
            let r: SdgResult<Value> = decode_from_slice(&bytes[..cut]);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&Value::Int(1));
        bytes.push(0);
        let r: SdgResult<Value> = decode_from_slice(&bytes);
        assert!(r.is_err());
    }

    #[test]
    fn absurd_list_length_is_rejected_without_allocating() {
        // Tag LIST + varint length of u32::MAX with no payload.
        let mut buf = BytesMut::new();
        buf.put_u8(6);
        write_varint(&mut buf, u64::from(u32::MAX));
        let r: SdgResult<Value> = decode_from_slice(&buf);
        assert!(r.is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let r: SdgResult<Value> = decode_from_slice(&[250]);
        assert!(matches!(r, Err(SdgError::Codec(_))));
    }

    #[test]
    fn vec_and_tuple_roundtrip() {
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&(7u64, Value::str("x")));
    }
}
