//! The distributed runtime: worker *processes* connected over Unix domain
//! sockets.
//!
//! This is the third backend next to the simulator ([`crate::sim`]) and
//! the threaded runtime ([`crate::rt`]).  The spout/bolt/grouping API and
//! the [`RtConfig`](crate::rt::RtConfig) knobs are identical — the same
//! topology runs unmodified on all three, through the same route table and
//! the same spout tree lifecycle (DESIGN.md §4.1).  What changes is
//! placement and transport:
//!
//! * the **coordinator** (this process) runs the spouts and is the control
//!   plane: the sharded acker, the checkpoint store and the process
//!   supervisor.  The only tuples it routes are spout emissions;
//! * **workers** are separate OS processes that execute bolts, route their
//!   emissions to each other directly (over [`transport`]) and
//!   send the coordinator one XOR ack record per executed tuple, all in
//!   the compact binary wire protocol of [`codec`].
//!
//! Workers are spawned from a command line ([`DistConfig::worker_cmd`])
//! that must start a binary hosting the same [`TopologyRegistry`] — the
//! worker rebuilds the topology from its registered name, which is how
//! both sides derive identical routing and schema tables.  A
//! killed worker is respawned, reconnected and restored from the latest
//! checkpoint; see `DESIGN.md` §9 for the protocol walk-through.
//!
//! ```no_run
//! # use dsdps::dist::{self, TopologyRegistry, DistConfig};
//! # use dsdps::config::EngineConfig;
//! # use dsdps::rt::RtConfig;
//! let mut registry = TopologyRegistry::new();
//! registry.register("wordcount", |_args| {
//!     # let build: fn() -> dsdps::error::Result<dsdps::topology::Topology> =
//!     #     || unreachable!();
//!     build()
//! });
//! // In the worker binary's main(): if dist::maybe_worker_from_env(&registry) { return; }
//! let running = dist::submit(
//!     &registry,
//!     "wordcount",
//!     "",
//!     EngineConfig::default(),
//!     RtConfig::default().with_batch_size(64),
//!     DistConfig::new(2, dist::self_worker_cmd()),
//! ).unwrap();
//! let report = running.shutdown();
//! assert!(report.conservation_holds());
//! ```

#[cfg(not(unix))]
compile_error!("dsdps::dist connects its processes over Unix domain sockets only");

pub mod codec;
pub mod coordinator;
pub(crate) mod router;
pub mod transport;
pub mod worker;

pub use coordinator::{submit, DistReport, RunningDist};
pub use worker::{maybe_worker_from_env, worker_main, TopologyRegistry};

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::checkpoint::RecoveryMode;
use crate::telemetry::SpanKind;

/// Deployment knobs of the distributed backend.  Everything about *what*
/// runs (batching, credit windows, checkpoints, recovery guarantee) stays
/// in [`RtConfig`](crate::rt::RtConfig); this only describes the worker
/// fleet.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of worker processes (at least 1).  Bolt tasks are assigned
    /// round-robin across them; spouts stay on the coordinator.
    pub workers: usize,
    /// Command line (argv) that starts one worker process.  The
    /// coordinator adds `DSDPS_DIST_ADDR` / `DSDPS_DIST_WORKER` to its
    /// environment; the binary must call
    /// [`maybe_worker_from_env`] with a registry containing the topology.
    pub worker_cmd: Vec<String>,
}

/// How long spawning, connecting and the hello may take: the coordinator's
/// wait for the whole fleet, and a worker's dial of the coordinator.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

impl DistConfig {
    /// A fleet of `workers` processes started by `worker_cmd`.
    pub fn new(workers: usize, worker_cmd: Vec<String>) -> Self {
        DistConfig {
            workers,
            worker_cmd,
        }
    }
}

/// The worker command that re-runs the current executable (the common
/// case: one binary hosts both coordinator and workers and dispatches on
/// [`maybe_worker_from_env`] at the top of `main`).
pub fn self_worker_cmd() -> Vec<String> {
    vec![std::env::current_exe()
        .expect("current_exe")
        .to_string_lossy()
        .into_owned()]
}

/// Wire discriminant of a [`RecoveryMode`] (the `recovery` byte of the
/// `Assign` frame).
pub(crate) fn recovery_to_byte(mode: RecoveryMode) -> u8 {
    match mode {
        RecoveryMode::ExactlyOnceEffect => 0,
        RecoveryMode::AtLeastOnce => 1,
        RecoveryMode::Approximate => 2,
    }
}

/// Inverse of [`recovery_to_byte`].
pub(crate) fn recovery_from_byte(b: u8) -> Option<RecoveryMode> {
    match b {
        0 => Some(RecoveryMode::ExactlyOnceEffect),
        1 => Some(RecoveryMode::AtLeastOnce),
        2 => Some(RecoveryMode::Approximate),
        _ => None,
    }
}

/// Wire discriminant of a [`SpanKind`] (the `kind` byte of a
/// [`codec::WireSpan`]).
pub(crate) fn span_kind_to_byte(kind: SpanKind) -> u8 {
    match kind {
        SpanKind::SpoutEmit => 0,
        SpanKind::Hop => 1,
        SpanKind::Ack => 2,
        SpanKind::Fail => 3,
        SpanKind::Timeout => 4,
    }
}

/// Inverse of [`span_kind_to_byte`].
pub(crate) fn span_kind_from_byte(b: u8) -> Option<SpanKind> {
    match b {
        0 => Some(SpanKind::SpoutEmit),
        1 => Some(SpanKind::Hop),
        2 => Some(SpanKind::Ack),
        3 => Some(SpanKind::Fail),
        4 => Some(SpanKind::Timeout),
        _ => None,
    }
}

/// Structured "last words" a dying worker prints to stderr as one JSONL
/// line, mirroring the best-effort [`codec::Frame::LastWords`] it also
/// attempts over the socket.  The coordinator's stderr pump parses these
/// and the supervisor attaches the cause to the `worker_died` journal
/// event on respawn; ordinary stderr lines never carry the marker field
/// and are forwarded verbatim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct LastWordsLine {
    /// Marker so ordinary stderr output can never parse as last words.
    pub dsdps_last_words: bool,
    /// Worker slot index.
    pub worker: u32,
    /// Short machine-readable cause (`panic`, `decode_error`, `io_error`).
    pub cause: String,
    /// Human-readable detail (panic payload, error text).
    pub detail: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_bytes_round_trip() {
        for mode in [
            RecoveryMode::ExactlyOnceEffect,
            RecoveryMode::AtLeastOnce,
            RecoveryMode::Approximate,
        ] {
            assert_eq!(recovery_from_byte(recovery_to_byte(mode)), Some(mode));
        }
        assert_eq!(recovery_from_byte(9), None);
    }

    #[test]
    fn span_kind_bytes_round_trip() {
        for kind in [
            SpanKind::SpoutEmit,
            SpanKind::Hop,
            SpanKind::Ack,
            SpanKind::Fail,
            SpanKind::Timeout,
        ] {
            assert_eq!(span_kind_from_byte(span_kind_to_byte(kind)), Some(kind));
        }
        assert_eq!(span_kind_from_byte(5), None);
    }
}
