//! Append-only control-plane event journal.
//!
//! Every decision the control plane makes — routing-ratio updates from the
//! controller, supervisor restarts, replay/backoff scheduling, fault
//! injections — appends one timestamped [`JournalEvent`].  Events carry the
//! ids needed to cross-reference the other telemetry pillars: replay
//! events carry the fresh tree's root and trace id, restart events the
//! task and generation.  The journal serializes to JSONL (one event per
//! line) so a run's decisions can be read back next to its span log.
//!
//! Appends take one uncontended mutex at control-plane rate (a handful of
//! events per second); nothing here touches the tuple hot path.

use std::io::Write;
use std::path::Path;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// One timestamped control-plane decision.
///
/// All timestamps are seconds on the runtime clock (`time_s`), matching
/// `MetricsSnapshot::time_s`; trace ids match the span log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// The controller applied a new split ratio to a dynamic-grouping edge.
    RatioApplied {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Edge label, `"upstream->downstream"`.
        edge: String,
        /// Normalized per-task weights that were applied.
        ratio: Vec<f64>,
    },
    /// The detector flagged a worker as misbehaving.
    WorkerFlagged {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Flagged worker id.
        worker: usize,
        /// Observed / predicted per-tuple latency that tripped the detector, µs.
        latency_us: f64,
    },
    /// The detector cleared a previously flagged worker.
    WorkerRecovered {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Recovered worker id.
        worker: usize,
    },
    /// The supervisor restarted a dead task or superseded a hung one.
    TaskRestart {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Restarted task id.
        task: usize,
        /// Generation the task was restarted into.
        generation: u64,
        /// Why: `"dead"` (panicked/exited) or `"hung"` (heartbeat stale).
        reason: String,
    },
    /// A failed or timed-out message was scheduled for replay.
    ReplayScheduled {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Spout message id.
        message_id: u64,
        /// Attempt number this schedule will become (1 = first replay).
        attempt: u32,
        /// Backoff delay before re-emission, milliseconds.
        delay_ms: f64,
    },
    /// A scheduled replay was re-emitted under a fresh tuple tree.
    ReplayEmitted {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Spout message id.
        message_id: u64,
        /// Attempt number of this re-emission (1 = first replay).
        attempt: u32,
        /// Root id of the fresh tree.
        root: u64,
        /// Trace id of the fresh tree (`splitmix64(root)`).
        trace_id: u64,
    },
    /// The replay budget was exhausted; the message permanently failed.
    ReplayExhausted {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Spout message id.
        message_id: u64,
        /// Replay attempts consumed before giving up.
        attempts: u32,
    },
    /// A fault from the injection plan was armed at submit time.
    FaultPlanned {
        /// Runtime clock, seconds (0 at submit).
        time_s: f64,
        /// Debug rendering of the planned fault.
        description: String,
    },
    /// A one-shot fault (panic/hang) actually fired in a task.
    FaultInjected {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Task the fault fired in.
        task: usize,
        /// Fault kind, `"panic"` or `"hang"`.
        kind: String,
    },
    /// The spout rate cap changed (controller actuation or a manual handle
    /// call).
    ThrottleChanged {
        /// Runtime clock, seconds.
        time_s: f64,
        /// New cap in tuples/s across all spouts; `None` means uncapped.
        rate_cap: Option<f64>,
        /// What changed it: `"controller"` or `"manual"`.
        reason: String,
    },
    /// The runtime was submitted with checkpoints enabled under the given
    /// recovery guarantee.
    RecoveryMode {
        /// Runtime clock, seconds (0 at submit).
        time_s: f64,
        /// Guarantee name: `"exactly_once_effect"`, `"at_least_once"` or
        /// `"approximate"`.
        mode: String,
    },
    /// A stateful task deposited a checkpoint.
    CheckpointTaken {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Checkpointing task id.
        task: usize,
        /// Supervisor generation of the depositing incarnation.
        generation: u64,
        /// `"full"` or `"delta"`.
        kind: String,
        /// Snapshot payload size, bytes.
        bytes: u64,
        /// Time spent snapshotting and depositing, microseconds.
        duration_us: u64,
    },
    /// A restarted task restored state from its latest checkpoint.
    StateRestored {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Restored task id.
        task: usize,
        /// Generation the task was restarted into.
        generation: u64,
        /// Age of the restored snapshot at restore time, seconds; `None`
        /// when only the input log existed (no snapshot yet).
        snapshot_age_s: Option<f64>,
        /// Restore latency (load + decode + re-execution), microseconds.
        latency_us: u64,
    },
    /// A restarted task had no state to restore: it was stateless,
    /// checkpoints were off, or nothing had been deposited yet.  Also
    /// covers hang supersession — the superseded thread's in-memory state
    /// is abandoned either way.
    StateLost {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Restarted task id.
        task: usize,
        /// Generation the task was restarted into.
        generation: u64,
        /// Age of the newest (unrestorable or absent) snapshot, seconds;
        /// `None` when no snapshot existed.
        snapshot_age_s: Option<f64>,
    },
    /// The metrics-history window hit its retention cap
    /// ([`MetricsHistory::CAPACITY`](crate::metrics::MetricsHistory::CAPACITY))
    /// and began evicting its oldest snapshots.  Journaled once per run, the
    /// first time it trips.
    HistoryTruncated {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Snapshots retained from that point on.
        retained: usize,
    },
    /// The distributed coordinator spawned (or respawned) a worker
    /// process.
    WorkerSpawned {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Worker slot index.
        worker: usize,
        /// OS process id of the spawned worker.
        pid: u32,
        /// Connection generation the spawn begins (0 = first launch).
        generation: u64,
    },
    /// A worker process connected and completed its hello/assign
    /// handshake.
    WorkerConnected {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Worker slot index.
        worker: usize,
        /// OS process id the worker reported in its hello.
        pid: u32,
    },
    /// A worker connection died (process exit, kill, or socket error);
    /// its in-flight deliveries were failed into replay.
    WorkerDisconnected {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Worker slot index.
        worker: usize,
        /// Human-readable cause.
        reason: String,
        /// Trace ids of sampled tuple trees whose in-flight deliveries
        /// were lost with the connection (capped; cross-references the
        /// span log so a broken trace points at its disconnect).
        lost_trace_ids: Vec<u64>,
    },
    /// A worker completed its hello/assign/restore handshake and is
    /// serving tuples.  Decomposes the bring-up so respawn cost is
    /// attributable: handshake (hello → assign sent) vs restore (state
    /// replayed into the fresh process).
    WorkerAssigned {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Worker slot index.
        worker: usize,
        /// OS process id of the assigned worker.
        pid: u32,
        /// Connection generation the assignment begins.
        generation: u64,
        /// Number of tasks assigned.
        tasks: usize,
        /// Estimated worker-clock offset (`coordinator_now_us −
        /// worker_clock_us` at hello receipt) used to normalize the
        /// worker's span timestamps.
        clock_offset_us: i64,
        /// Hello-read → assign-sent duration, microseconds.
        handshake_us: u64,
        /// State-restore duration (all tasks), microseconds; 0 on a first
        /// launch with nothing to restore.
        restore_us: u64,
    },
    /// The supervisor reaped a dead worker process.  `cause` carries the
    /// worker's structured last words when it managed to emit them
    /// (panic payload, decode error) — otherwise the exit status.
    WorkerDied {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Worker slot index.
        worker: usize,
        /// OS process id of the dead worker.
        pid: u32,
        /// Connection generation that died.
        generation: u64,
        /// Best known cause of death.
        cause: String,
    },
    /// A connected worker went quiet: no frame received for longer than
    /// the heartbeat-lag threshold (twice the metrics push interval).
    /// Journaled once per silence; a fresh frame re-arms the detector.
    WorkerHeartbeatLag {
        /// Runtime clock, seconds.
        time_s: f64,
        /// Worker slot index.
        worker: usize,
        /// Observed silence, seconds.
        lag_s: f64,
    },
}

impl JournalEvent {
    /// The event's timestamp on the runtime clock, seconds.
    pub fn time_s(&self) -> f64 {
        match self {
            JournalEvent::RatioApplied { time_s, .. }
            | JournalEvent::WorkerFlagged { time_s, .. }
            | JournalEvent::WorkerRecovered { time_s, .. }
            | JournalEvent::TaskRestart { time_s, .. }
            | JournalEvent::ReplayScheduled { time_s, .. }
            | JournalEvent::ReplayEmitted { time_s, .. }
            | JournalEvent::ReplayExhausted { time_s, .. }
            | JournalEvent::FaultPlanned { time_s, .. }
            | JournalEvent::FaultInjected { time_s, .. }
            | JournalEvent::ThrottleChanged { time_s, .. }
            | JournalEvent::RecoveryMode { time_s, .. }
            | JournalEvent::CheckpointTaken { time_s, .. }
            | JournalEvent::StateRestored { time_s, .. }
            | JournalEvent::StateLost { time_s, .. }
            | JournalEvent::HistoryTruncated { time_s, .. }
            | JournalEvent::WorkerSpawned { time_s, .. }
            | JournalEvent::WorkerConnected { time_s, .. }
            | JournalEvent::WorkerDisconnected { time_s, .. }
            | JournalEvent::WorkerAssigned { time_s, .. }
            | JournalEvent::WorkerDied { time_s, .. }
            | JournalEvent::WorkerHeartbeatLag { time_s, .. } => *time_s,
        }
    }

    /// Short kind tag, handy for filtering and assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::RatioApplied { .. } => "ratio_applied",
            JournalEvent::WorkerFlagged { .. } => "worker_flagged",
            JournalEvent::WorkerRecovered { .. } => "worker_recovered",
            JournalEvent::TaskRestart { .. } => "task_restart",
            JournalEvent::ReplayScheduled { .. } => "replay_scheduled",
            JournalEvent::ReplayEmitted { .. } => "replay_emitted",
            JournalEvent::ReplayExhausted { .. } => "replay_exhausted",
            JournalEvent::FaultPlanned { .. } => "fault_planned",
            JournalEvent::FaultInjected { .. } => "fault_injected",
            JournalEvent::ThrottleChanged { .. } => "throttle_changed",
            JournalEvent::RecoveryMode { .. } => "recovery_mode",
            JournalEvent::CheckpointTaken { .. } => "checkpoint_taken",
            JournalEvent::StateRestored { .. } => "state_restored",
            JournalEvent::StateLost { .. } => "state_lost",
            JournalEvent::HistoryTruncated { .. } => "history_truncated",
            JournalEvent::WorkerSpawned { .. } => "worker_spawned",
            JournalEvent::WorkerConnected { .. } => "worker_connected",
            JournalEvent::WorkerDisconnected { .. } => "worker_disconnected",
            JournalEvent::WorkerAssigned { .. } => "worker_assigned",
            JournalEvent::WorkerDied { .. } => "worker_died",
            JournalEvent::WorkerHeartbeatLag { .. } => "worker_heartbeat_lag",
        }
    }
}

/// Thread-safe append-only event log.
#[derive(Default)]
pub struct Journal {
    events: Mutex<Vec<JournalEvent>>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends one event.
    pub fn append(&self, event: JournalEvent) {
        self.events.lock().push(event);
    }

    /// Snapshot of all events in append order.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.events.lock().clone()
    }

    /// Number of events appended so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("len", &self.len()).finish()
    }
}

/// Renders a slice of events as JSONL (one event per line).
pub fn events_jsonl(events: &[JournalEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("journal serialization cannot fail"));
        out.push('\n');
    }
    out
}

/// Writes a slice of events as JSONL to `path` (e.g. a run's
/// [`Report::journal`](crate::report::Report::journal)).
pub fn write_events_jsonl(path: &Path, events: &[JournalEvent]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(events_jsonl(events).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::FaultPlanned {
                time_s: 0.0,
                description: "WorkerSlowdown { worker: 2, factor: 10.0 }".into(),
            },
            JournalEvent::WorkerFlagged {
                time_s: 1.25,
                worker: 2,
                latency_us: 312.5,
            },
            JournalEvent::RatioApplied {
                time_s: 1.25,
                edge: "src->work".into(),
                ratio: vec![0.5, 0.0, 0.5],
            },
            JournalEvent::TaskRestart {
                time_s: 2.0,
                task: 3,
                generation: 1,
                reason: "dead".into(),
            },
            JournalEvent::ReplayScheduled {
                time_s: 2.1,
                message_id: 17,
                attempt: 1,
                delay_ms: 100.0,
            },
            JournalEvent::ReplayEmitted {
                time_s: 2.2,
                message_id: 17,
                attempt: 1,
                root: 99,
                trace_id: crate::acker::splitmix64(99),
            },
            JournalEvent::ThrottleChanged {
                time_s: 2.75,
                rate_cap: Some(1500.0),
                reason: "controller".into(),
            },
            JournalEvent::RecoveryMode {
                time_s: 2.8,
                mode: "exactly_once_effect".into(),
            },
            JournalEvent::CheckpointTaken {
                time_s: 3.0,
                task: 3,
                generation: 1,
                kind: "full".into(),
                bytes: 4096,
                duration_us: 180,
            },
            JournalEvent::StateRestored {
                time_s: 3.5,
                task: 3,
                generation: 2,
                snapshot_age_s: Some(0.5),
                latency_us: 240,
            },
            JournalEvent::StateLost {
                time_s: 3.6,
                task: 4,
                generation: 1,
                snapshot_age_s: None,
            },
            JournalEvent::HistoryTruncated {
                time_s: 4.0,
                retained: 4096,
            },
            JournalEvent::WorkerAssigned {
                time_s: 4.2,
                worker: 1,
                pid: 4711,
                generation: 1,
                tasks: 3,
                clock_offset_us: -1_250,
                handshake_us: 800,
                restore_us: 2_400,
            },
            JournalEvent::WorkerHeartbeatLag {
                time_s: 4.5,
                worker: 1,
                lag_s: 2.5,
            },
            JournalEvent::WorkerDisconnected {
                time_s: 4.8,
                worker: 1,
                reason: "connection closed".into(),
                lost_trace_ids: vec![crate::acker::splitmix64(99)],
            },
            JournalEvent::WorkerDied {
                time_s: 4.9,
                worker: 1,
                pid: 4711,
                generation: 1,
                cause: "panic: bolt exploded".into(),
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let journal = Journal::new();
        for e in sample_events() {
            journal.append(e);
        }
        assert_eq!(journal.len(), 16);
        let back: Vec<JournalEvent> = events_jsonl(&journal.events())
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back, journal.events());
    }

    #[test]
    fn kinds_and_timestamps() {
        let events = sample_events();
        assert_eq!(events[0].kind(), "fault_planned");
        assert_eq!(events[2].kind(), "ratio_applied");
        assert!((events[1].time_s() - 1.25).abs() < 1e-12);
        // Append order is chronological for a well-behaved writer.
        let times: Vec<f64> = events.iter().map(|e| e.time_s()).collect();
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(times, sorted);
    }
}
