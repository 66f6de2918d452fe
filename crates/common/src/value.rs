//! The dynamic data model carried by dataflows and stored in state elements.
//!
//! Translated StateLang programs are dynamically typed at TE boundaries, so
//! dataflow items carry [`Value`]s grouped into named [`Record`]s (the live
//! variables crossing a TE boundary, §4.2 step 5 of the paper). State
//! structures that need hashable, totally ordered keys use the [`Key`]
//! subset, which excludes floats.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{SdgError, SdgResult};

/// A dynamically typed value.
///
/// A sparse vector has two layouts with one meaning, a `List` of
/// `[Int, Float]` lists and the flat `Pairs`: equality, keys, `Display`
/// and the codec cannot tell them apart.
#[derive(Debug, Clone)]
pub enum Value {
    /// The absence of a value.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// An immutable, cheaply clonable string.
    Str(Arc<str>),
    /// A list of values (used for `@Collection` arrays, vectors, rows).
    List(Vec<Value>),
    /// A sparse vector as one shared slice: the list of `[index, value]`
    /// lists it stands for, without a heap block per pair. Clones share it.
    Pairs(Arc<[(i64, f64)]>),
}

/// The list form of one sparse-vector element.
fn pair_value((i, v): (i64, f64)) -> Value {
    Value::List(vec![Value::Int(i), Value::Float(v)])
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Returns a static name for the runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Bool(_) => "Bool",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
            Value::List(_) | Value::Pairs(_) => "List",
        }
    }

    /// Extracts an integer, or reports a type error.
    pub fn as_int(&self) -> SdgResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(SdgError::type_mismatch("Int", other.type_name())),
        }
    }

    /// Extracts a float; integers are widened.
    pub fn as_float(&self) -> SdgResult<f64> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(SdgError::type_mismatch("Float", other.type_name())),
        }
    }

    /// Extracts a boolean, or reports a type error.
    pub fn as_bool(&self) -> SdgResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(SdgError::type_mismatch("Bool", other.type_name())),
        }
    }

    /// Extracts a string slice, or reports a type error.
    pub fn as_str(&self) -> SdgResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(SdgError::type_mismatch("Str", other.type_name())),
        }
    }

    /// Extracts a list, or reports a type error. A `Pairs` is spelled out
    /// as its list form.
    pub fn as_list(&self) -> SdgResult<Cow<'_, [Value]>> {
        match self {
            Value::List(v) => Ok(Cow::Borrowed(v)),
            Value::Pairs(p) => Ok(Cow::Owned(p.iter().copied().map(pair_value).collect())),
            other => Err(SdgError::type_mismatch("List", other.type_name())),
        }
    }

    /// The items of a list by value: a `List` gives up its own, a `Pairs`
    /// spells out one `[index, value]` list per step.
    pub fn into_items(self) -> SdgResult<impl Iterator<Item = Value>> {
        let (items, pairs) = match self {
            Value::List(items) => (items, None),
            Value::Pairs(p) => (Vec::new(), Some(p)),
            other => return Err(SdgError::type_mismatch("List", other.type_name())),
        };
        let spelled = pairs
            .into_iter()
            .flat_map(|p| (0..p.len()).map(move |i| pair_value(p[i])));
        Ok(items.into_iter().chain(spelled))
    }

    /// The length of a list, or a type error.
    pub fn list_len(&self) -> SdgResult<usize> {
        match self {
            Value::List(v) => Ok(v.len()),
            Value::Pairs(p) => Ok(p.len()),
            other => Err(SdgError::type_mismatch("List", other.type_name())),
        }
    }

    /// Item `i` of a list (`None` out of bounds), or a type error.
    pub fn list_get(&self, i: usize) -> SdgResult<Option<Value>> {
        match self {
            Value::List(v) => Ok(v.get(i).cloned()),
            Value::Pairs(p) => Ok(p.get(i).copied().map(pair_value)),
            other => Err(SdgError::type_mismatch("List", other.type_name())),
        }
    }

    /// Reads a sparse vector as `(index, value)` pairs: borrowed from a
    /// `Pairs`, parsed from a list of `[index, value]` lists (a value may
    /// be an `Int`). A cell that is not a pair is an [`SdgError::Eval`].
    pub fn pairs(&self) -> SdgResult<Cow<'_, [(i64, f64)]>> {
        if let Value::Pairs(p) = self {
            return Ok(Cow::Borrowed(p));
        }
        self.as_list()?
            .iter()
            .map(|cell| {
                let pair = cell.as_list()?;
                if pair.len() != 2 {
                    return Err(SdgError::Eval("expected [index, value] pair".into()));
                }
                Ok((pair[0].as_int()?, pair[1].as_float()?))
            })
            .collect::<SdgResult<Vec<_>>>()
            .map(Cow::Owned)
    }

    /// Returns `true` if the value is considered truthy.
    ///
    /// Only `Bool` carries truthiness; every other type is a type error, so
    /// interpreter conditions stay strict.
    pub fn truthy(&self) -> SdgResult<bool> {
        self.as_bool()
    }

    /// Converts this value to a hashable [`Key`].
    ///
    /// Floats and nulls are rejected because their equality semantics make
    /// them unsuitable as partitioning keys.
    pub fn to_key(&self) -> SdgResult<Key> {
        match self {
            Value::Bool(b) => Ok(Key::Bool(*b)),
            Value::Int(i) => Ok(Key::Int(*i)),
            Value::Str(s) => Ok(Key::Str(s.clone())),
            Value::List(_) | Value::Pairs(_) => {
                let keys = self
                    .as_list()?
                    .iter()
                    .map(Value::to_key)
                    .collect::<SdgResult<_>>()?;
                Ok(Key::Composite(keys))
            }
            other => Err(SdgError::type_mismatch(
                "key (Bool|Int|Str|List)",
                other.type_name(),
            )),
        }
    }

    /// Approximates the in-memory footprint in bytes.
    ///
    /// Used for state-size accounting in checkpoints and benchmarks; it does
    /// not need to be exact, only monotone in the real size.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() + 8,
            Value::List(v) => 8 + v.iter().map(Value::approx_size).sum::<usize>(),
            // As the list form: 8 per list, 8 per number.
            Value::Pairs(p) => 8 + 24 * p.len(),
        }
    }
}

impl PartialEq for Value {
    /// Structural equality in which a `Pairs` equals the list form it
    /// stands for.
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            (Value::Pairs(a), Value::Pairs(b)) => a == b,
            (Value::Pairs(p), Value::List(l)) | (Value::List(l), Value::Pairs(p)) => {
                p.len() == l.len()
                    && p.iter().zip(l).all(|(&(i, v), cell)| {
                        matches!(cell, Value::List(pair) if *pair == [Value::Int(i), Value::Float(v)])
                    })
            }
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(v) => {
                write!(f, "[")?;
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Pairs(p) => {
                let list = p.iter().copied().map(pair_value).collect();
                write!(f, "{}", Value::List(list))
            }
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
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

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

impl From<Key> for Value {
    fn from(k: Key) -> Self {
        match k {
            Key::Bool(b) => Value::Bool(b),
            Key::Int(i) => Value::Int(i),
            Key::Str(s) => Value::Str(s),
            Key::Composite(items) => Value::List(items.into_iter().map(Value::from).collect()),
        }
    }
}

/// The hashable, totally ordered subset of [`Value`] usable as a state or
/// partitioning key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    /// A boolean key.
    Bool(bool),
    /// An integer key.
    Int(i64),
    /// A string key.
    Str(Arc<str>),
    /// A composite key (tuple of keys).
    Composite(Vec<Key>),
}

impl Key {
    /// Builds a string key.
    pub fn str(s: impl AsRef<str>) -> Self {
        Key::Str(Arc::from(s.as_ref()))
    }

    /// Builds an integer key.
    pub const fn int(i: i64) -> Self {
        Key::Int(i)
    }

    /// Returns a stable 64-bit hash of the key.
    ///
    /// The hash is FNV-1a over a canonical byte rendering, so it is identical
    /// across processes and runs — a requirement for deterministic
    /// repartitioning during recovery and scale-out.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.feed(&mut h);
        h.finish()
    }

    fn feed(&self, h: &mut Fnv1a) {
        match self {
            Key::Bool(b) => {
                h.write_u8(0);
                h.write_u8(*b as u8);
            }
            Key::Int(i) => {
                h.write_u8(1);
                h.write_bytes(&i.to_le_bytes());
            }
            Key::Str(s) => {
                h.write_u8(2);
                h.write_bytes(s.as_bytes());
            }
            Key::Composite(items) => {
                h.write_u8(3);
                h.write_bytes(&(items.len() as u64).to_le_bytes());
                for item in items {
                    item.feed(h);
                }
            }
        }
    }

    /// Approximates the in-memory footprint in bytes.
    pub fn approx_size(&self) -> usize {
        match self {
            Key::Bool(_) => 1,
            Key::Int(_) => 8,
            Key::Str(s) => s.len() + 8,
            Key::Composite(items) => 8 + items.iter().map(Key::approx_size).sum::<usize>(),
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Value::from(self.clone()))
    }
}

/// Incremental FNV-1a hasher with a fixed, process-independent seed.
#[derive(Debug)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of named values: the payload of a dataflow item.
///
/// Records hold the live variables that cross a TE boundary. Field order is
/// insertion order; lookups are linear, which is faster than hashing for the
/// small arity (≤ ~8) of real dataflow edges.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: Vec<(Arc<str>, Value)>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Record { fields: Vec::new() }
    }

    /// Creates a record with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Record {
            fields: Vec::with_capacity(cap),
        }
    }

    /// Appends `name = value` **without** scanning for an existing binding.
    ///
    /// Callers must guarantee `name` is not already present (e.g. when
    /// building a record from a sorted, deduplicated live-variable set).
    /// Taking an `Arc<str>` lets hot paths reuse interned names instead of
    /// re-allocating them per item.
    pub fn push_unchecked(&mut self, name: Arc<str>, value: Value) {
        debug_assert!(self.get(&name).is_none(), "duplicate field `{name}`");
        self.fields.push((name, value));
    }

    /// Sets `name` to `value`, replacing any existing binding.
    pub fn set(&mut self, name: impl AsRef<str>, value: Value) {
        let name = name.as_ref();
        if let Some(slot) = self.fields.iter_mut().find(|(n, _)| &**n == name) {
            slot.1 = value;
        } else {
            self.fields.push((Arc::from(name), value));
        }
    }

    /// Returns the value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, v)| v)
    }

    /// Returns the value bound to `name`, or a [`SdgError::NotFound`].
    pub fn require(&self, name: &str) -> SdgResult<&Value> {
        self.get(name)
            .ok_or_else(|| SdgError::NotFound(format!("record field `{name}`")))
    }

    /// Removes the binding for `name`, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let idx = self.fields.iter().position(|(n, _)| &**n == name)?;
        Some(self.fields.remove(idx).1)
    }

    /// Returns the number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` if the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (&**n, v))
    }

    /// Returns the field at `idx` (insertion order), if in bounds.
    ///
    /// The name comes back as the interned `Arc<str>` so callers can clone
    /// it without re-allocating the string.
    pub fn at(&self, idx: usize) -> Option<(&Arc<str>, &Value)> {
        self.fields.get(idx).map(|(n, v)| (n, v))
    }

    /// Returns the insertion-order index of `name`, if present.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(n, _)| &**n == name)
    }

    /// Returns `true` if the record's fields are exactly `names`, in order.
    ///
    /// Used to skip projection when an edge's live set already equals the
    /// payload's field set (the common case for compiled TEs, whose output
    /// records are built from the sorted live-variable list).
    pub fn fields_match(&self, names: &[impl AsRef<str>]) -> bool {
        self.fields.len() == names.len()
            && self
                .fields
                .iter()
                .zip(names)
                .all(|((n, _), want)| &**n == want.as_ref())
    }

    /// Keeps only the fields whose names appear in `names` (the live set).
    pub fn project(&self, names: &[impl AsRef<str>]) -> Record {
        let mut out = Record::with_capacity(names.len());
        for name in names {
            if let Some(v) = self.get(name.as_ref()) {
                out.set(name.as_ref(), v.clone());
            }
        }
        out
    }

    /// Approximates the in-memory footprint in bytes.
    pub fn approx_size(&self) -> usize {
        self.fields
            .iter()
            .map(|(n, v)| n.len() + v.approx_size() + 16)
            .sum()
    }
}

impl FromIterator<(Arc<str>, Value)> for Record {
    fn from_iter<T: IntoIterator<Item = (Arc<str>, Value)>>(iter: T) -> Self {
        let mut r = Record::new();
        for (n, v) in iter {
            r.set(&*n, v);
        }
        r
    }
}

/// Convenience constructor macro for records: `record!{"a" => Value::Int(1)}`.
#[macro_export]
macro_rules! record {
    ($($name:expr => $value:expr),* $(,)?) => {{
        let mut r = $crate::value::Record::new();
        $( r.set($name, $value); )*
        r
    }};
}

/// Compares two values with numeric widening, for interpreter comparisons.
///
/// Returns `None` when the types are incomparable (e.g. `Int` vs `Str`).
pub fn compare_values(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert!(Value::str("x").as_int().is_err());
        assert_eq!(Value::Int(7).as_float().unwrap(), 7.0);
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::str("hi").as_str().unwrap(), "hi");
        assert!(Value::Null.truthy().is_err());
    }

    #[test]
    fn keys_reject_floats_and_nulls() {
        assert!(Value::Float(1.0).to_key().is_err());
        assert!(Value::Null.to_key().is_err());
        assert_eq!(Value::Int(3).to_key().unwrap(), Key::Int(3));
        let composite = Value::List(vec![Value::Int(1), Value::str("a")]);
        assert_eq!(
            composite.to_key().unwrap(),
            Key::Composite(vec![Key::Int(1), Key::str("a")])
        );
    }

    #[test]
    fn stable_hash_is_deterministic_and_spreads() {
        let h1 = Key::Int(42).stable_hash();
        let h2 = Key::Int(42).stable_hash();
        assert_eq!(h1, h2);
        assert_ne!(Key::Int(42).stable_hash(), Key::Int(43).stable_hash());
        assert_ne!(Key::Int(42).stable_hash(), Key::str("42").stable_hash());
        // Composite keys hash differently from their flattened parts.
        assert_ne!(
            Key::Composite(vec![Key::Int(1), Key::Int(2)]).stable_hash(),
            Key::Composite(vec![Key::Int(12)]).stable_hash()
        );
    }

    #[test]
    fn stable_hash_goldens() {
        // Every route, stripe and checkpoint chunk id is a function of these
        // exact values: a change here moves keys and orphans stored chunks.
        let goldens = [
            (Key::Bool(false), 0x0832_8807_b4eb_6fed),
            (Key::Bool(true), 0x0832_8707_b4eb_6e3a),
            (Key::Int(0), 0x529a_2cdc_8ff5_33ac),
            (Key::Int(42), 0xb960_a184_f070_32c6),
            (Key::Int(-1), 0x685c_d83a_d34b_3424),
            (Key::str(""), 0xaf63_bf4c_8601_bb45),
            (Key::str("hello"), 0xa465_011c_2cfb_ddab),
            (Key::Composite(vec![]), 0x796e_d797_b92b_1fd2),
            (
                Key::Composite(vec![Key::Int(1), Key::str("a")]),
                0x434a_1ed8_d3b8_d733,
            ),
        ];
        for (key, hash) in goldens {
            assert_eq!(key.stable_hash(), hash, "{key:?}");
        }
    }

    #[test]
    fn record_set_get_replace() {
        let mut r = Record::new();
        r.set("user", Value::Int(1));
        r.set("item", Value::Int(2));
        assert_eq!(r.get("user"), Some(&Value::Int(1)));
        r.set("user", Value::Int(9));
        assert_eq!(r.get("user"), Some(&Value::Int(9)));
        assert_eq!(r.len(), 2);
        assert!(r.require("missing").is_err());
    }

    #[test]
    fn record_projection_keeps_only_live_variables() {
        let r = record! {
            "a" => Value::Int(1),
            "b" => Value::Int(2),
            "c" => Value::Int(3),
        };
        let p = r.project(&["a", "c", "zzz"]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get("a"), Some(&Value::Int(1)));
        assert_eq!(p.get("c"), Some(&Value::Int(3)));
        assert_eq!(p.get("b"), None);
    }

    #[test]
    fn record_remove() {
        let mut r = record! {"a" => Value::Int(1), "b" => Value::Int(2)};
        assert_eq!(r.remove("a"), Some(Value::Int(1)));
        assert_eq!(r.remove("a"), None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn compare_widens_numerics() {
        use std::cmp::Ordering::*;
        assert_eq!(
            compare_values(&Value::Int(1), &Value::Float(1.5)),
            Some(Less)
        );
        assert_eq!(
            compare_values(&Value::Float(2.0), &Value::Int(2)),
            Some(Equal)
        );
        assert_eq!(
            compare_values(&Value::str("b"), &Value::str("a")),
            Some(Greater)
        );
        assert_eq!(compare_values(&Value::Int(1), &Value::str("1")), None);
    }

    #[test]
    fn display_renders_nested_values() {
        let v = Value::List(vec![Value::Int(1), Value::str("a"), Value::Null]);
        assert_eq!(v.to_string(), "[1, \"a\", null]");
    }

    /// The list form of `pairs`.
    fn pair_list(pairs: &[(i64, f64)]) -> Value {
        Value::List(pairs.iter().copied().map(pair_value).collect())
    }

    #[test]
    fn pairs_equal_their_list_form_in_both_directions() {
        let cells = [(0, 1.5), (3, -0.0), (7, 2.0)];
        let pairs = Value::Pairs(cells.as_slice().into());
        let list = pair_list(&cells);
        assert_eq!(pairs, list);
        assert_eq!(list, pairs);
        assert_eq!(pairs, pairs.clone());
        assert_eq!(Value::Pairs(Arc::from([])), Value::List(vec![]));

        let other_value = pair_list(&[(0, 1.5), (3, 0.5), (7, 2.0)]);
        let other_index = pair_list(&[(0, 1.5), (4, -0.0), (7, 2.0)]);
        let shorter = pair_list(&cells[..2]);
        for differs in [other_value, other_index, shorter] {
            assert_ne!(pairs, differs);
            assert_ne!(differs, pairs);
        }
        // The index must be an `Int` and the value a `Float`, as in the
        // list form's own equality.
        let int_value = Value::List(vec![Value::List(vec![Value::Int(0), Value::Int(1)])]);
        assert_ne!(Value::Pairs([(0, 1.0)].as_slice().into()), int_value);
        let triple = Value::List(vec![Value::List(vec![
            Value::Int(0),
            Value::Float(1.0),
            Value::Null,
        ])]);
        assert_ne!(Value::Pairs([(0, 1.0)].as_slice().into()), triple);
        assert_ne!(Value::Pairs([(0, 1.0)].as_slice().into()), Value::Null);
        assert_eq!(pairs.type_name(), "List");
    }

    #[test]
    fn pairs_key_and_display_match_their_list_form() {
        for cells in [
            &[][..],
            &[(2, 0.5)][..],
            &[(-1, 3.0), (4, f64::INFINITY)][..],
        ] {
            let pairs = Value::Pairs(cells.into());
            let list = pair_list(cells);
            assert_eq!(pairs.to_string(), list.to_string());
            match (pairs.to_key(), list.to_key()) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("{cells:?}: {a:?} vs {b:?}"),
            }
            assert_eq!(pairs.approx_size(), list.approx_size());
            assert_eq!(pairs.as_list().unwrap(), list.as_list().unwrap());
            assert_eq!(pairs.pairs().unwrap(), list.pairs().unwrap().as_ref());
            assert_eq!(
                pairs.clone().into_items().unwrap().collect::<Vec<_>>(),
                list.as_list().unwrap().as_ref()
            );
        }
        assert_eq!(
            Value::Pairs([(1, 2.5), (3, 0.0)].as_slice().into()).to_string(),
            "[[1, 2.5], [3, 0]]"
        );
    }

    #[test]
    fn pairs_reads_the_list_form_and_rejects_what_is_not_a_pair() {
        let ints = Value::List(vec![Value::List(vec![Value::Int(1), Value::Int(2)])]);
        assert_eq!(ints.pairs().unwrap().as_ref(), &[(1, 2.0)]);
        let triple = Value::List(vec![Value::List(vec![Value::Int(1); 3])]);
        assert!(matches!(triple.pairs(), Err(SdgError::Eval(_))));
        let float_index = Value::List(vec![Value::List(vec![Value::Float(1.0); 2])]);
        assert!(matches!(float_index.pairs(), Err(SdgError::Type { .. })));
        assert!(Value::Int(1).pairs().is_err());
    }

    #[test]
    fn approx_size_is_monotone() {
        let small = Value::str("ab");
        let big = Value::str("abcdefgh");
        assert!(big.approx_size() > small.approx_size());
        let list = Value::List(vec![small.clone(), big.clone()]);
        assert!(list.approx_size() > big.approx_size());
    }
}
