//! Tuples: the unit of data flowing through a topology.
//!
//! A [`Tuple`] is an ordered list of dynamically typed [`Value`]s together
//! with the schema ([`Fields`]) of the stream it was emitted on.  This
//! mirrors Storm's `backtype.storm.tuple.Tuple`.
//!
//! The empty schema, which [`Tuple::of`] attaches to every tuple, is
//! `Fields { names: None }`: cloning or dropping it touches no shared
//! memory.  A declared schema is one shared `Arc` per declaration.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A dynamically typed value carried inside a [`Tuple`].
///
/// Values are cheap to clone: strings are reference counted and byte blobs
/// use [`bytes::Bytes`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed 64-bit integer.
    I64(i64),
    /// 64-bit float.  `NaN` compares equal to `NaN` for grouping purposes.
    F64(f64),
    /// Immutable shared string.
    Str(Arc<str>),
    /// Raw bytes payload.
    Bytes(bytes::Bytes),
    /// Nested list of values.
    List(Vec<Value>),
}

impl Value {
    /// Returns the integer if this is an `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float if this is an `F64` (or a lossless widening of `I64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string slice if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte slice if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b.as_ref()),
            _ => None,
        }
    }

    /// Approximate in-memory size of the value payload in bytes, used by the
    /// simulator's network-transfer model.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::I64(_) | Value::F64(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::List(l) => l.iter().map(Value::size_bytes).sum::<usize>() + 8,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::I64(a), Value::I64(b)) => a == b,
            // Bitwise comparison: NaN == NaN, and +0.0 != -0.0.  This gives a
            // total equivalence relation so F64 keys behave deterministically
            // in fields groupings.
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Discriminant first so e.g. I64(0) and Bool(false) hash differently.
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::I64(v) => v.hash(state),
            Value::F64(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::List(l) => l.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
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

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::I64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}
impl From<bytes::Bytes> for Value {
    fn from(v: bytes::Bytes) -> Self {
        Value::Bytes(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

/// The ordered field names (schema) of a stream.
///
/// `Fields` is cheap to clone (`Arc` internally) because every tuple on a
/// stream shares the stream's schema; the empty schema holds no `Arc`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fields {
    /// `None` is the empty schema: `Some` never holds an empty slice.
    names: Option<Arc<[String]>>,
}

impl Fields {
    /// Builds a schema from field names.  Order is significant.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Arc<[String]> = names.into_iter().map(Into::into).collect();
        Fields {
            names: (!names.is_empty()).then_some(names),
        }
    }

    /// An empty schema (for tuples addressed positionally only).
    /// `Tuple::of` attaches this per tuple on the runtime's hot path, so it
    /// holds no `Arc`: no refcount to bump, and all empty schemas are
    /// [`ptr_eq`](Self::ptr_eq), which lets the router skip rekeying
    /// schema-less streams entirely.
    pub const fn none() -> Self {
        Fields { names: None }
    }

    fn names(&self) -> &[String] {
        self.names.as_deref().unwrap_or_default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.names().len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.names.is_none()
    }

    /// Index of `field`, if present.
    pub fn index_of(&self, field: &str) -> Option<usize> {
        self.names().iter().position(|n| n == field)
    }

    /// True if the schema contains `field`.
    pub fn contains(&self, field: &str) -> bool {
        self.index_of(field).is_some()
    }

    /// Iterates field names in schema order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.names().iter().map(String::as_str)
    }

    /// True when both schemas share one allocation or both are empty.
    /// O(1), so the runtime can skip re-attaching a schema a tuple already
    /// carries; `false` for equal-content schemas from different
    /// declarations is fine (callers fall back to the by-value path).
    pub fn ptr_eq(&self, other: &Fields) -> bool {
        match (&self.names, &other.names) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// An immutable data record: a list of [`Value`]s plus the stream schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    values: Arc<[Value]>,
    fields: Fields,
}

impl Tuple {
    /// Builds a tuple from values with an empty schema.
    pub fn of<I>(values: I) -> Self
    where
        I: IntoIterator<Item = Value>,
    {
        Tuple {
            values: values.into_iter().collect(),
            fields: Fields::none(),
        }
    }

    /// Builds a tuple with an explicit schema.  The number of values must
    /// match the number of fields (checked in debug builds).
    pub fn with_fields<I>(values: I, fields: Fields) -> Self
    where
        I: IntoIterator<Item = Value>,
    {
        let values: Arc<[Value]> = values.into_iter().collect();
        debug_assert!(
            fields.is_empty() || values.len() == fields.len(),
            "tuple arity {} != schema arity {}",
            values.len(),
            fields.len()
        );
        Tuple { values, fields }
    }

    /// Re-attaches a schema (used by the runtime when routing a tuple: it
    /// travels with its producer's declared schema).
    pub fn rekeyed(&self, fields: Fields) -> Self {
        Tuple {
            values: Arc::clone(&self.values),
            fields,
        }
    }

    /// Like [`rekeyed`](Self::rekeyed) but consumes the tuple, moving the
    /// shared values instead of bumping their refcount.  Use when routing
    /// the last (or only) copy of a tuple instance.
    pub fn into_rekeyed(self, fields: Fields) -> Self {
        Tuple {
            values: self.values,
            fields,
        }
    }

    /// The values as an owned vector: moved out when this is the only
    /// handle on them, cloned when they are shared.  Use when the last (or
    /// only) copy of a tuple instance leaves for the wire.
    pub fn into_values(mut self) -> Vec<Value> {
        match Arc::get_mut(&mut self.values) {
            Some(values) => values.iter_mut().map(std::mem::take).collect(),
            None => self.values.to_vec(),
        }
    }

    /// The tuple's values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The schema of the stream this tuple was emitted on.
    pub fn fields(&self) -> &Fields {
        &self.fields
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at position `idx`.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Value of the named field, if the schema declares it.
    pub fn get_by_field(&self, field: &str) -> Option<&Value> {
        self.fields.index_of(field).and_then(|i| self.values.get(i))
    }

    /// Approximate serialized size of the tuple, used by the simulator's
    /// transfer-cost model.
    pub fn size_bytes(&self) -> usize {
        self.values.iter().map(Value::size_bytes).sum::<usize>() + 16
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match self.fields.names().get(i) {
                Some(name) => write!(f, "{name}={v}")?,
                None => write!(f, "{v}")?,
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn value_conversions_round_trip() {
        assert_eq!(Value::from(5i64).as_i64(), Some(5));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("abc").as_str(), Some("abc"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(7i64).as_f64(), Some(7.0), "i64 widens to f64");
        assert_eq!(Value::from("abc").as_i64(), None);
    }

    #[test]
    fn nan_equals_nan_for_grouping() {
        let a = Value::F64(f64::NAN);
        let b = Value::F64(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn same_numeric_value_different_type_not_equal() {
        assert_ne!(Value::I64(0), Value::Bool(false));
        assert_ne!(Value::I64(1), Value::F64(1.0));
        assert_ne!(hash_of(&Value::I64(0)), hash_of(&Value::Bool(false)));
    }

    #[test]
    fn equal_values_hash_equal() {
        let pairs = [
            (Value::from(42i64), Value::from(42i64)),
            (Value::from("url"), Value::from(String::from("url"))),
            (
                Value::List(vec![Value::from(1i64), Value::from("x")]),
                Value::List(vec![Value::from(1i64), Value::from("x")]),
            ),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn fields_index_and_contains() {
        let f = Fields::new(["url", "ts", "user"]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.index_of("ts"), Some(1));
        assert!(f.contains("user"));
        assert!(!f.contains("missing"));
        assert_eq!(f.iter().collect::<Vec<_>>(), vec!["url", "ts", "user"]);
    }

    #[test]
    fn empty_schemas_are_one_value() {
        let empty = Fields::new(Vec::<String>::new());
        assert!(empty.ptr_eq(&Fields::none()));
        assert_eq!(empty, Fields::none());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert!(!Fields::new(["a"]).ptr_eq(&Fields::none()));
        assert!(!Fields::new(["a"]).ptr_eq(&Fields::new(["a"])));
        let declared = Fields::new(["a"]);
        assert!(declared.ptr_eq(&declared.clone()));
    }

    #[test]
    fn tuple_field_access() {
        let t = Tuple::with_fields(
            [Value::from("http://a"), Value::from(100i64)],
            Fields::new(["url", "ts"]),
        );
        assert_eq!(t.get_by_field("url").unwrap().as_str(), Some("http://a"));
        assert_eq!(t.get_by_field("ts").unwrap().as_i64(), Some(100));
        assert!(t.get_by_field("nope").is_none());
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(1).unwrap().as_i64(), Some(100));
        assert!(t.get(2).is_none());
    }

    #[test]
    fn tuple_as_map_and_display() {
        let t = Tuple::with_fields(
            [Value::from("a"), Value::from(1i64)],
            Fields::new(["k", "v"]),
        );
        assert_eq!(format!("{t}"), "(k=a, v=1)");
        let bare = Tuple::of([Value::from(3i64)]);
        assert_eq!(format!("{bare}"), "(3)");
    }

    #[test]
    fn size_bytes_reflects_payload() {
        let small = Tuple::of([Value::from(1i64)]);
        let big = Tuple::of([Value::Bytes(bytes::Bytes::from(vec![0u8; 1000]))]);
        assert!(big.size_bytes() > small.size_bytes() + 900);
    }

    #[test]
    fn rekeyed_shares_values() {
        let t = Tuple::of([Value::from("x")]);
        let r = t.rekeyed(Fields::new(["url"]));
        assert_eq!(r.get_by_field("url").unwrap().as_str(), Some("x"));
        assert_eq!(t.values(), r.values());
    }

    #[test]
    fn into_values_moves_a_unique_tuple_and_copies_a_shared_one() {
        let t = Tuple::of([Value::from("x"), Value::from(2i64)]);
        let shared = t.clone();
        let copied = t.into_values();
        assert_eq!(copied.as_slice(), shared.values());
        assert_eq!(shared.into_values(), copied);
    }

    #[test]
    fn display_list_and_bytes() {
        let v = Value::List(vec![Value::from(1i64), Value::from("a")]);
        assert_eq!(format!("{v}"), "[1, a]");
        let b = Value::Bytes(bytes::Bytes::from_static(b"xyz"));
        assert_eq!(format!("{b}"), "<3 bytes>");
    }
}
