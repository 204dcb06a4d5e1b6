//! Minimal vendored stand-in for `bytes`: an immutable, cheaply-cloneable
//! byte buffer backed by `Arc<[u8]>`.
//!
//! Unlike the real crate this always owns (or shares) its storage — no
//! zero-copy slicing — which is all the tuple payloads in this workspace
//! need.  Serde support is built in (the real crate gates it behind a
//! feature): a buffer serializes as a JSON array of numbers.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes(Arc::from(&[][..]))
    }

    /// Wraps a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes(Arc::from(bytes))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes(Arc::from(v))
    }
}

impl serde::Serialize for Bytes {
    fn serialize_value(&self) -> serde::JsonValue {
        serde::JsonValue::Array(
            self.0
                .iter()
                .map(|&b| serde::JsonValue::I64(b as i64))
                .collect(),
        )
    }
}

impl serde::Deserialize for Bytes {
    fn deserialize_value(v: &serde::JsonValue) -> Result<Self, serde::Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| serde::Error::expected("byte array", "Bytes"))?;
        let bytes: Result<Vec<u8>, serde::Error> = arr
            .iter()
            .map(|e| {
                e.as_u64()
                    .and_then(|u| u8::try_from(u).ok())
                    .ok_or_else(|| serde::Error::expected("byte", "Bytes"))
            })
            .collect();
        Ok(Bytes::from(bytes?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.as_ref(), &[1, 2, 3]);
        assert_eq!(&b[..2], &[1, 2]);
        let s = Bytes::from_static(b"xyz");
        assert_eq!(s.to_vec(), b"xyz");
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![9u8; 1000]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_ref(), b.as_ref()));
    }

    #[test]
    fn serde_round_trip() {
        use serde::{Deserialize, Serialize};
        let b = Bytes::from(vec![0u8, 127, 255]);
        let back = Bytes::deserialize_value(&b.serialize_value()).unwrap();
        assert_eq!(b, back);
    }
}
