//! Stream identifiers and per-stream declarations.
//!
//! The default stream is `StreamId(None)`: cloning or dropping it touches
//! no shared memory, so the id every `emit` stamps costs no atomic
//! read-modify-write on a cache line all threads share.  Named streams are
//! one shared `Arc<str>` per declaration.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::tuple::Fields;

/// Name of Storm's implicit default stream.
pub const DEFAULT_STREAM: &str = "default";

/// Identifier of a named output stream of a component.
///
/// Cheap to clone and compare; the default stream is [`StreamId::default`]
/// (equal to `StreamId::new("default")`).  Equality, hashing and order are
/// those of [`as_str`](Self::as_str).
#[derive(Clone, Default)]
pub struct StreamId(Option<Arc<str>>);

impl PartialEq for StreamId {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            // Ids cloned from one declaration (a router's wiring-time
            // copies) share the allocation: two pointer words, no string walk.
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl Eq for StreamId {}

impl Hash for StreamId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialOrd for StreamId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StreamId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl StreamId {
    /// Creates a stream id from a name; `"default"` is the default stream.
    pub fn new(name: &str) -> Self {
        StreamId((name != DEFAULT_STREAM).then(|| Arc::from(name)))
    }

    /// The stream's name.
    pub fn as_str(&self) -> &str {
        self.0.as_deref().unwrap_or(DEFAULT_STREAM)
    }

    /// True if this is the implicit default stream.
    pub fn is_default(&self) -> bool {
        self.0.is_none()
    }
}

impl fmt::Debug for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("StreamId").field(&self.as_str()).finish()
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for StreamId {
    fn from(s: &str) -> Self {
        StreamId::new(s)
    }
}

/// Declaration of one output stream: its id and schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDecl {
    /// The stream id.
    pub id: StreamId,
    /// Schema of tuples on the stream.
    pub fields: Fields,
}

impl StreamDecl {
    /// Declares the default stream with the given schema.
    pub fn default_stream(fields: Fields) -> Self {
        StreamDecl {
            id: StreamId::default(),
            fields,
        }
    }

    /// Declares a named stream with the given schema.
    pub fn named(id: &str, fields: Fields) -> Self {
        StreamDecl {
            id: StreamId::new(id),
            fields,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(id: &StreamId) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut h = DefaultHasher::new();
        id.hash(&mut h);
        h.finish()
    }

    #[test]
    fn default_stream_identity() {
        assert!(StreamId::default().is_default());
        assert!(StreamId::new(DEFAULT_STREAM).is_default());
        assert!(!StreamId::new("metrics").is_default());
        assert_eq!(StreamId::default(), StreamId::new(DEFAULT_STREAM));
        assert_eq!(
            hash_of(&StreamId::default()),
            hash_of(&StreamId::new(DEFAULT_STREAM))
        );
        assert_ne!(StreamId::default(), StreamId::new("metrics"));
        assert_eq!(StreamId::default().as_str(), DEFAULT_STREAM);
        assert_eq!(format!("{}", StreamId::default()), DEFAULT_STREAM);
        assert_eq!(
            format!("{:?}", StreamId::default()),
            "StreamId(\"default\")"
        );
    }

    #[test]
    fn stream_ids_sort_like_their_names() {
        let names = ["z", "default", "a"];
        let mut ids: Vec<StreamId> = names.iter().map(|n| StreamId::new(n)).collect();
        ids.sort();
        let mut sorted = names;
        sorted.sort();
        assert_eq!(ids.iter().map(StreamId::as_str).collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn stream_ids_hash_and_order() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(StreamId::new("a"));
        set.insert(StreamId::new("a"));
        set.insert(StreamId::new("b"));
        set.insert(StreamId::default());
        set.insert(StreamId::new(DEFAULT_STREAM));
        assert_eq!(set.len(), 3);
        assert!(StreamId::new("a") < StreamId::new("b"));
    }

    #[test]
    fn decl_constructors() {
        let d = StreamDecl::default_stream(Fields::new(["x"]));
        assert!(d.id.is_default());
        let n = StreamDecl::named("side", Fields::new(["y"]));
        assert_eq!(n.id.as_str(), "side");
        assert_eq!(format!("{}", n.id), "side");
    }
}
