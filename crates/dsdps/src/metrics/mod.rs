//! Multilevel runtime statistics — the observation surface of the paper's
//! control framework.
//!
//! Per metrics interval the runtime produces a [`MetricsSnapshot`] holding
//! statistics at three levels, matching the paper's "multilevel runtime
//! statistics":
//!
//! * **task level** ([`TaskStats`]): executed/emitted counts, execute
//!   latency, input-queue length, capacity (busy fraction);
//! * **worker level** ([`WorkerStats`]): CPU utilization, memory footprint,
//!   aggregate tuple rates of the worker's tasks;
//! * **machine level** ([`MachineStats`]): total load, externally injected
//!   load (faults / co-located foreign processes), worker count.
//!
//! [`MetricsHistory`] keeps a bounded run of snapshots so the predictor can
//! assemble input sequences.

pub mod window;

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::scheduler::{MachineId, Placement, WorkerId};
use crate::telemetry::{Journal, JournalEvent};
use crate::topology::TaskId;

pub use window::{LatencyHistogram, OnlineStats};

/// Per-task statistics for one metrics interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskStats {
    /// Global task id.
    pub task: TaskId,
    /// Component name the task belongs to.
    pub component: String,
    /// Worker hosting the task.
    pub worker: WorkerId,
    /// Tuples executed (bolts) or `next_tuple` calls producing output (spouts).
    pub executed: u64,
    /// Tuples emitted downstream.
    pub emitted: u64,
    /// Tuples acked by this task.
    pub acked: u64,
    /// Tuples failed by this task.
    pub failed: u64,
    /// Mean execute latency over the interval, µs.
    pub avg_execute_latency_us: f64,
    /// Input queue length sampled at the interval boundary.
    pub queue_len: usize,
    /// Fraction of the interval the task was busy executing (Storm's
    /// "capacity" metric).
    pub capacity: f64,
    /// Output batches flushed downstream (threaded runtime; 0 in the
    /// simulator, which delivers per tuple).
    pub batches_flushed: u64,
    /// Of those, batches flushed by the linger deadline rather than by
    /// reaching the configured batch size.
    pub linger_flushes: u64,
    /// Cumulative panics caught in the task's thread (threaded runtime; 0 in
    /// the simulator).
    pub panics: u64,
    /// Cumulative supervisor restarts of the task (threaded runtime; 0 in
    /// the simulator).
    pub restarts: u64,
    /// Message of the most recent caught panic, if any.
    pub last_panic: Option<String>,
    /// Cumulative checkpoints deposited by the task (threaded runtime with
    /// checkpointing on; 0 otherwise).
    pub checkpoints_taken: u64,
    /// Cumulative snapshot restores performed by restarted generations of
    /// the task.
    pub restores: u64,
    /// Cumulative serialized snapshot bytes deposited by the task.
    pub snapshot_bytes: u64,
}

/// Per-worker statistics for one metrics interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker id.
    pub worker: WorkerId,
    /// Machine hosting the worker.
    pub machine: MachineId,
    /// CPU utilization of the worker process in cores (sum of its tasks'
    /// busy fractions).
    pub cpu_cores_used: f64,
    /// Synthetic memory footprint in MB (base + queued tuples).
    pub memory_mb: f64,
    /// Tuples executed by the worker's tasks.
    pub executed: u64,
    /// Tuples entering the worker from upstream.
    pub tuples_in: u64,
    /// Tuples leaving the worker downstream.
    pub tuples_out: u64,
    /// Mean execute latency across the worker's tasks, µs (execution-count
    /// weighted).
    pub avg_execute_latency_us: f64,
    /// Number of tasks hosted.
    pub num_tasks: usize,
}

/// What a backend measured for one task over an interval beyond its
/// [`TaskStats`] row: the remaining inputs of [`fold_workers`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TaskFlow {
    /// Sum of the task's execute latencies, µs.
    pub(crate) latency_sum_us: f64,
    /// Tuples delivered to the task by tasks of other workers.
    pub(crate) tuples_in: u64,
    /// Tuples the task delivered to tasks of other workers.
    pub(crate) tuples_out: u64,
}

/// Rolls task rows up into one [`WorkerStats`] row per worker of
/// `placement` — the same fold on every backend, so a worker-level feature
/// means the same thing wherever the controller reads it.  Only
/// cross-worker deliveries count as entering or leaving a worker.
pub(crate) fn fold_workers(
    tasks: &[TaskStats],
    flows: &[TaskFlow],
    placement: &Placement,
) -> Vec<WorkerStats> {
    let mut workers: Vec<WorkerStats> = (0..placement.num_workers())
        .map(|w| WorkerStats {
            worker: WorkerId(w),
            machine: placement.machine_of(WorkerId(w)),
            cpu_cores_used: 0.0,
            memory_mb: 100.0,
            executed: 0,
            tuples_in: 0,
            tuples_out: 0,
            avg_execute_latency_us: 0.0,
            num_tasks: 0,
        })
        .collect();
    for (task, flow) in tasks.iter().zip(flows) {
        let w = &mut workers[task.worker.0];
        w.cpu_cores_used += task.capacity;
        w.memory_mb += task.queue_len as f64 * 0.004;
        w.executed += task.executed;
        w.tuples_in += flow.tuples_in;
        w.tuples_out += flow.tuples_out;
        // Holds the latency sum until the division below.
        w.avg_execute_latency_us += flow.latency_sum_us;
        w.num_tasks += 1;
    }
    for w in workers.iter_mut().filter(|w| w.executed > 0) {
        w.avg_execute_latency_us /= w.executed as f64;
    }
    workers
}

/// Per-machine statistics for one metrics interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineStats {
    /// Machine id.
    pub machine: MachineId,
    /// CPU cores in use by stream workers.
    pub cpu_cores_used: f64,
    /// CPU cores consumed by external (injected / foreign) load.
    pub external_load_cores: f64,
    /// Core count of the machine.
    pub cores: usize,
    /// Number of co-located workers.
    pub num_workers: usize,
}

impl MachineStats {
    /// Total utilization in `[0, ∞)` relative to capacity (can exceed 1
    /// when oversubscribed).
    pub fn utilization(&self) -> f64 {
        (self.cpu_cores_used + self.external_load_cores) / self.cores as f64
    }
}

/// Topology-level statistics for one metrics interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyStats {
    /// Spout tuples emitted during the interval.
    pub spout_emitted: u64,
    /// Tuple trees fully acked during the interval.
    pub acked: u64,
    /// Tuple trees failed during the interval.
    pub failed: u64,
    /// Tuple trees timed out during the interval.
    pub timed_out: u64,
    /// Mean complete latency (spout emit → tree acked) in ms.
    pub avg_complete_latency_ms: f64,
    /// 99th-percentile complete latency in ms.
    pub p99_complete_latency_ms: f64,
    /// Acked tuples per second.
    pub throughput: f64,
}

/// One metrics interval across all levels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Interval index (0-based).
    pub interval: u64,
    /// End time of the interval on the runtime clock, seconds.
    pub time_s: f64,
    /// Length of the interval, seconds.
    pub interval_s: f64,
    /// Task-level rows.
    pub tasks: Vec<TaskStats>,
    /// Worker-level rows.
    pub workers: Vec<WorkerStats>,
    /// Machine-level rows.
    pub machines: Vec<MachineStats>,
    /// Topology-level row.
    pub topology: TopologyStats,
}

/// Callback a backend invokes with every snapshot it produces — the
/// control framework's entry point.
pub type SnapshotHook = Box<dyn FnMut(&MetricsSnapshot) + Send>;

impl MetricsSnapshot {
    /// Worker row by id.
    pub fn worker(&self, id: WorkerId) -> Option<&WorkerStats> {
        self.workers.iter().find(|w| w.worker == id)
    }

    /// Machine row by id.
    pub fn machine(&self, id: MachineId) -> Option<&MachineStats> {
        self.machines.iter().find(|m| m.machine == id)
    }

    /// Task rows of one worker.
    pub fn tasks_of_worker(&self, id: WorkerId) -> impl Iterator<Item = &TaskStats> {
        self.tasks.iter().filter(move |t| t.worker == id)
    }

    /// Mean per-tuple processing time of a worker over the interval, µs —
    /// the quantity the paper's DRNN predicts.  `None` if the worker
    /// executed nothing.
    pub fn worker_avg_latency_us(&self, id: WorkerId) -> Option<f64> {
        let w = self.worker(id)?;
        (w.executed > 0).then_some(w.avg_execute_latency_us)
    }
}

/// Bounded history of snapshots.
#[derive(Debug, Clone, Default)]
pub struct MetricsHistory {
    snapshots: VecDeque<MetricsSnapshot>,
    /// The first eviction has been journaled.
    truncated: bool,
}

impl MetricsHistory {
    /// Snapshots retained.  Generous enough for every long-horizon
    /// experiment in the repo (tens of minutes at 1 s intervals) while still
    /// bounding multi-hour scenario sweeps.
    pub const CAPACITY: usize = 4096;

    /// Appends a snapshot, evicting the oldest when over capacity.
    pub fn push(&mut self, snapshot: MetricsSnapshot) {
        self.snapshots.push_back(snapshot);
        if self.snapshots.len() > Self::CAPACITY {
            self.snapshots.pop_front();
        }
    }

    /// [`push`](Self::push) as the backends do it: the first eviction is
    /// journaled as `history_truncated`.
    pub(crate) fn push_journaled(&mut self, snapshot: MetricsSnapshot, journal: &Journal) {
        if self.snapshots.len() >= Self::CAPACITY && !self.truncated {
            self.truncated = true;
            journal.append(JournalEvent::HistoryTruncated {
                time_s: snapshot.time_s,
                retained: Self::CAPACITY,
            });
        }
        self.push(snapshot);
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True when no snapshots are retained.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Most recent snapshot.
    pub fn latest(&self) -> Option<&MetricsSnapshot> {
        self.snapshots.back()
    }

    /// Iterates snapshots oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &MetricsSnapshot> {
        self.snapshots.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(interval: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            interval,
            time_s: interval as f64,
            interval_s: 1.0,
            tasks: vec![TaskStats {
                task: TaskId(0),
                component: "b".into(),
                worker: WorkerId(0),
                executed: 100,
                emitted: 100,
                acked: 100,
                failed: 0,
                avg_execute_latency_us: 120.0,
                queue_len: 3,
                capacity: 0.4,
                batches_flushed: 0,
                linger_flushes: 0,
                panics: 0,
                restarts: 0,
                last_panic: None,
                checkpoints_taken: 0,
                restores: 0,
                snapshot_bytes: 0,
            }],
            workers: vec![WorkerStats {
                worker: WorkerId(0),
                machine: MachineId(0),
                cpu_cores_used: 0.4,
                memory_mb: 128.0,
                executed: 100,
                tuples_in: 100,
                tuples_out: 100,
                avg_execute_latency_us: 120.0,
                num_tasks: 1,
            }],
            machines: vec![MachineStats {
                machine: MachineId(0),
                cpu_cores_used: 0.4,
                external_load_cores: 1.0,
                cores: 4,
                num_workers: 1,
            }],
            topology: TopologyStats {
                spout_emitted: 100,
                acked: 100,
                failed: 0,
                timed_out: 0,
                avg_complete_latency_ms: 5.0,
                p99_complete_latency_ms: 12.0,
                throughput: 100.0,
            },
        }
    }

    #[test]
    fn snapshot_lookups() {
        let s = snap(0);
        assert!(s.worker(WorkerId(0)).is_some());
        assert!(s.worker(WorkerId(9)).is_none());
        assert!(s.machine(MachineId(0)).is_some());
        assert_eq!(s.tasks_of_worker(WorkerId(0)).count(), 1);
        assert_eq!(s.worker_avg_latency_us(WorkerId(0)), Some(120.0));
        assert_eq!(s.worker_avg_latency_us(WorkerId(9)), None);
    }

    #[test]
    fn machine_utilization_includes_external_load() {
        let s = snap(0);
        let m = s.machine(MachineId(0)).unwrap();
        assert!((m.utilization() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn history_bounded_eviction() {
        let mut h = MetricsHistory::default();
        assert!(h.is_empty());
        let n = MetricsHistory::CAPACITY as u64;
        for i in 0..n + 2 {
            h.push(snap(i));
        }
        assert_eq!(h.len(), MetricsHistory::CAPACITY);
        assert_eq!(h.latest().unwrap().interval, n + 1);
        let intervals: Vec<u64> = h.iter().map(|s| s.interval).collect();
        assert_eq!(intervals, (2..n + 2).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let s = snap(7);
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
