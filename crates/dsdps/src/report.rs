//! The run report of the live backends: what one run of `rt` or `dist` did,
//! read at shutdown.  Both return the one [`Report`] (`rt::ThreadedReport`
//! and `dist::DistReport` are aliases); the fields both fill come from the
//! same cells through one function, and each backend adds its own, documented
//! "`rt` only" or "`dist` only", which stay zero or empty on the other.
//! `sim` keeps its own `RunReport`, the progress of one `run_until` call in
//! virtual time (DESIGN.md §4.1).

use parking_lot::Mutex;

use crate::checkpoint::{CheckpointStore, StateSnapshot, StoreCounters};
use crate::lifecycle::{self, TreeCounters, TreeLifecycle};
use crate::rt::CreditTotals;
use crate::telemetry::{chrome_trace_json_named, Counter, Journal, JournalEvent, Registry, Span};

/// Final accounting of a run on `rt` or `dist`.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Wall-clock seconds from submit to shutdown.
    pub uptime_s: f64,
    /// Fresh spout emissions (replays not counted).
    pub spout_emitted: u64,
    /// Distinct message ids tracked by the acker.
    pub tracked: u64,
    /// Messages whose tree was fully acked.
    pub acked: u64,
    /// Tree-failure events, per tree (a message recovered by replay counts
    /// once per failed tree).
    pub failed: u64,
    /// Tree-timeout events, per tree.
    pub timed_out: u64,
    /// Messages given up on: replay budget exhausted, doomed by an
    /// approximate restore, or — with replay off — every failed tree.
    pub permanently_failed: u64,
    /// Replays scheduled (backoff timers armed).
    pub replays_scheduled: u64,
    /// Replays re-emitted by the spouts under fresh trees.
    pub replays_emitted: u64,
    /// Equal to [`replays_emitted`](Self::replays_emitted), under the name
    /// `rt`'s report used; kept because a field cannot be aliased and code
    /// outside this crate reads it.
    #[doc(hidden)]
    pub replays: u64,
    /// Messages still unresolved at shutdown: a tree in flight or a replay
    /// awaited.
    pub in_flight: u64,
    /// Mean complete latency of acked trees, ms.
    pub avg_complete_latency_ms: f64,
    /// p99 complete latency of acked trees, ms (histogram estimate).
    pub p99_complete_latency_ms: f64,
    /// Checkpoints deposited in the store, over all stateful tasks.
    pub checkpoints_taken: u64,
    /// State restores of restarted stateful tasks.
    pub restores: u64,
    /// Serialized snapshot bytes deposited in the store.
    pub snapshot_bytes: u64,
    /// Messages an approximate-mode restore skipped replaying — the bound on
    /// what the results lack (each is also `permanently_failed`).
    pub approx_skipped: u64,
    /// Control-plane event journal, in append order: the runtime's events
    /// and an attached controller's decisions.  Assert on this instead of
    /// scraping stdout.
    pub journal: Vec<JournalEvent>,
    /// The sampled trace
    /// ([`RtConfig::trace_sample_rate`](crate::rt::RtConfig::trace_sample_rate)),
    /// ordered by `(trace_id, start_us)`, a terminal event last among spans
    /// that start together.  On `dist` the coordinator's emit and terminal
    /// spans merged with the workers' clock-normalized hops, stamped with
    /// real pids and connection generations; on `rt` every `pid` is 0.
    pub spans: Vec<Span>,
    /// Spans rejected because a trace buffer overflowed (on `dist`, the
    /// coordinator's and the workers').
    pub spans_dropped: u64,
    /// Latest *full* snapshot per global task id (`None` for stateless,
    /// spout and never-checkpointed tasks, and on an `rt` run without
    /// checkpoints); deltas deposited after it are not folded in.
    pub final_snapshots: Vec<Option<StateSnapshot>>,

    /// `rt` only: panics caught in task threads (user code or faults).
    pub task_panics: u64,
    /// `rt` only: supervisor restarts of dead or hung tasks.
    pub task_restarts: u64,
    /// `rt` only: last panic message per affected task, `"task N: message"`.
    pub panic_messages: Vec<String>,
    /// `rt` only: tuples discarded by injected drop faults.
    pub dropped: u64,
    /// `rt` only: batch queue-wait median over the run, µs.
    pub queue_wait_p50_us: f64,
    /// `rt` only: batch queue-wait p99 over the run, µs.
    pub queue_wait_p99_us: f64,
    /// `rt` only: batch queue-wait p99 over the last completed metrics
    /// interval, µs — the steady-state figure.
    pub queue_wait_last_p99_us: f64,
    /// `rt` only: spout rate cap at shutdown, tuples/s (`None` = uncapped).
    pub rate_cap: Option<f64>,

    /// `dist` only: credit-ledger totals, the coordinator's ledger plus each
    /// worker's last drain report.
    pub credits: CreditTotals,
    /// `dist` only: last known OS pid per worker slot.
    pub worker_pids: Vec<u32>,
    /// `dist` only: worker processes respawned by the supervisor.
    pub worker_restarts: u64,
    /// `dist` only: worker connections lost (kill, crash, socket error).
    pub worker_disconnects: u64,
    /// `dist` only: payload bytes the coordinator wrote to workers.
    pub bytes_sent: u64,
    /// `dist` only: payload bytes the coordinator read from workers.
    pub bytes_received: u64,
    /// `dist` only: frames the coordinator wrote to workers.
    pub frames_sent: u64,
    /// `dist` only: frames the coordinator read from workers.
    pub frames_received: u64,
    /// `dist` only: the coordinator's OS pid, stamped on its spans.
    pub coordinator_pid: u32,
    /// `dist` only: whether the shutdown drain quiesced within its budget.
    pub drained_clean: bool,
}

impl Report {
    /// The message-conservation identity: every tracked message is acked,
    /// permanently failed, or still in flight — nothing is silently lost.
    /// (A restarted `rt` spout that re-emits message ids it already used
    /// makes the accounting per attempt.)
    pub fn conservation_holds(&self) -> bool {
        self.tracked == self.acked + self.permanently_failed + self.in_flight
    }

    /// The credit-conservation identity, exact at shutdown: `granted ==
    /// consumed + revoked + outstanding` (trivially true on `rt`).
    pub fn credit_conservation_holds(&self) -> bool {
        self.credits.conservation_holds()
    }

    /// Journal events of the given [`JournalEvent::kind`] tag.
    pub fn journal_of_kind(&self, kind: &str) -> Vec<&JournalEvent> {
        self.journal.iter().filter(|e| e.kind() == kind).collect()
    }

    /// Distinct trace ids in the span log, sorted.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Chrome `trace_event` JSON of the span log.  On `dist`, process-name
    /// records give the coordinator and each worker process a named track
    /// in `chrome://tracing` / Perfetto; on `rt`, where no span has a pid,
    /// it equals [`chrome_trace_json`](crate::telemetry::chrome_trace_json).
    pub fn chrome_trace_json(&self) -> String {
        let mut names: Vec<(u64, String)> = Vec::new();
        for s in &self.spans {
            let pid = u64::from(s.pid);
            if pid == 0 || names.iter().any(|(p, _)| *p == pid) {
                continue;
            }
            let name = if s.pid == self.coordinator_pid {
                "coordinator".to_owned()
            } else {
                format!("worker {} (gen {})", s.worker, s.generation)
            };
            names.push((pid, name));
        }
        chrome_trace_json_named(&self.spans, &names)
    }
}

/// The cells every run counts into, registered once as
/// `dsdps_<report field>_total`: the data plane writes them, the report and
/// the Prometheus endpoint read them.
pub(crate) struct RunCounters {
    /// Fresh spout emissions (replays excluded).
    pub(crate) spout_emitted: Counter,
    /// What the spouts' tree lifecycles count.
    pub(crate) trees: TreeCounters,
    /// What the checkpoint store counts, over all tasks.
    pub(crate) store: StoreCounters,
}

impl RunCounters {
    pub(crate) fn new(registry: &Registry) -> Self {
        let c = |field: &str| registry.counter(&format!("dsdps_{field}_total"), &[]);
        RunCounters {
            spout_emitted: c("spout_emitted"),
            trees: TreeCounters {
                tracked: c("tracked"),
                acked: c("acked"),
                failed: c("failed"),
                timed_out: c("timed_out"),
                permanently_failed: c("permanently_failed"),
                replays_scheduled: c("replays_scheduled"),
                replays_emitted: c("replays_emitted"),
                approx_skipped: c("approx_skipped"),
            },
            store: StoreCounters {
                checkpoints_taken: c("checkpoints_taken"),
                snapshot_bytes: c("snapshot_bytes"),
                restores: c("restores"),
            },
        }
    }
}

/// The fields both live backends fill, read from the run's cells; each adds
/// its own with `..shared_fields(…)`.  `spans` is the merged span log (sorted
/// here, once) and the count its buffers rejected; `store` is `None` on an
/// `rt` run without checkpoints.
pub(crate) fn shared_fields(
    counters: &RunCounters,
    spouts: &[Mutex<TreeLifecycle>],
    journal: &Journal,
    (mut spans, spans_dropped): (Vec<Span>, u64),
    store: Option<&CheckpointStore>,
    n_tasks: usize,
    uptime_s: f64,
) -> Report {
    let (latency, latency_hist) = lifecycle::merged_latency(spouts);
    spans.sort_by_key(|s| (s.trace_id, s.start_us, s.kind.is_terminal()));
    let (trees, stored) = (&counters.trees, &counters.store);
    let replays_emitted = trees.replays_emitted.get();
    Report {
        uptime_s,
        spout_emitted: counters.spout_emitted.get(),
        tracked: trees.tracked.get(),
        acked: trees.acked.get(),
        failed: trees.failed.get(),
        timed_out: trees.timed_out.get(),
        permanently_failed: trees.permanently_failed.get(),
        replays_scheduled: trees.replays_scheduled.get(),
        replays_emitted,
        replays: replays_emitted,
        in_flight: lifecycle::unresolved(spouts) as u64,
        avg_complete_latency_ms: latency.mean() / 1e3,
        p99_complete_latency_ms: latency_hist.quantile(0.99).unwrap_or(0.0) / 1e3,
        checkpoints_taken: stored.checkpoints_taken.get(),
        restores: stored.restores.get(),
        snapshot_bytes: stored.snapshot_bytes.get(),
        approx_skipped: trees.approx_skipped.get(),
        journal: journal.events(),
        spans,
        spans_dropped,
        final_snapshots: (0..n_tasks)
            .map(|task| store.and_then(|store| store.latest_full(task)))
            .collect(),
        ..Report::default()
    }
}
