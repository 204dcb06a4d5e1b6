//! Error types for topology construction and runtime operation.

use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while building or running a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A component name was declared twice in the same topology.
    DuplicateComponent(String),
    /// A grouping referenced a component that does not exist.
    UnknownComponent(String),
    /// A fields grouping referenced a field absent from the producer's schema.
    UnknownField {
        /// Upstream component name.
        component: String,
        /// Field name that was not found.
        field: String,
    },
    /// Parallelism must be at least 1.
    InvalidParallelism(String),
    /// The topology has no spout, or a bolt has no inbound subscription.
    InvalidTopology(String),
    /// A spout subscribed to a stream (only bolts may subscribe).
    SpoutCannotSubscribe(String),
    /// Split ratio vector was invalid (wrong length, negative entries, all-zero).
    InvalidSplitRatio(String),
    /// Scheduling failed (e.g. more workers requested than slots available).
    Scheduling(String),
    /// Runtime failure (a component panicked or a channel closed unexpectedly).
    Runtime(String),
    /// Configuration value out of range.
    Config(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DuplicateComponent(name) => {
                write!(f, "component `{name}` declared more than once")
            }
            Error::UnknownComponent(name) => write!(f, "unknown component `{name}`"),
            Error::UnknownField { component, field } => {
                write!(
                    f,
                    "output of component `{component}` has no field `{field}`"
                )
            }
            Error::InvalidParallelism(name) => {
                write!(f, "component `{name}` must have parallelism >= 1")
            }
            Error::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            Error::SpoutCannotSubscribe(name) => {
                write!(f, "spout `{name}` cannot subscribe to a stream")
            }
            Error::InvalidSplitRatio(msg) => write!(f, "invalid split ratio: {msg}"),
            Error::Scheduling(msg) => write!(f, "scheduling error: {msg}"),
            Error::Runtime(msg) => write!(f, "runtime error: {msg}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offender() {
        let e = Error::DuplicateComponent("split".into());
        assert!(e.to_string().contains("split"));
        let e = Error::UnknownField {
            component: "spout".into(),
            field: "url".into(),
        };
        assert!(e.to_string().contains("spout"));
        assert!(e.to_string().contains("url"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            Error::InvalidParallelism("x".into()),
            Error::InvalidParallelism("x".into())
        );
        assert_ne!(
            Error::InvalidParallelism("x".into()),
            Error::InvalidParallelism("y".into())
        );
    }
}
