//! Coordinator side of the distributed runtime.
//!
//! The coordinator runs the spouts and is the control plane for everything
//! else: the sharded acker, the per-spout replay buffers, the checkpoint
//! store, the worker supervisor and the cluster's telemetry.  The only
//! tuples it touches are spout emissions, which it routes to the worker
//! owning the destination task; bolt and tick emissions travel worker →
//! worker and reach the coordinator only as XOR ack records.  One reader
//! thread per worker connection applies those records (handing completed
//! trees straight to the owning spout thread) and the control frames; a
//! supervisor thread respawns dead workers, expires timed-out trees,
//! flushes lingering batches and pushes dynamic-grouping ratio changes.
//!
//! The spout threads step the crate's shared `spout_task::SpoutTask` (the
//! one `next_tuple` site, pending gate, replay and `Track`-before-release of
//! `rt` and `dist`) against a `TreeLifecycle` per spout kept in `Shared`, so
//! delivery accounting is the threaded runtime's by construction —
//! `tracked == acked + permanently_failed + in_flight` holds at shutdown
//! ([`Report::conservation_holds`]) — with one extra failure source: the
//! coordinator no longer knows which worker holds which edge of a tree, so
//! a dying connection fails every tree in flight into replay.  The report is
//! the threaded runtime's too: one [`Report`], built from the same registry
//! cells on both, to which `shutdown` adds the fleet's own fields.
//!
//! The control plane waits on events, not timers.  The listener blocks in
//! `accept` and is woken at terminate by a connection of the coordinator's
//! own.  The supervisor's tick and the spouts' idle naps park on the crate's
//! `stop::Stop`, so terminate wakes them at once; the tick ends early at
//! the linger deadline of a partial spout batch.  `submit`'s wait for the
//! fleet, each shutdown flush round and shutdown's wait for every worker to
//! exit park on one change counter, bumped by handshakes, `Flushed`
//! reports, reader threads ending and worker stderr closing.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::codec::{FlushReport, Frame, WirePeer, WireTuple};
use super::router::{dynamic_handles, wire_tuple, Outbox};
use super::transport::{BatchWriter, Conn, ConnStats, Endpoint, FrameReader, Listener};
use super::worker::TopologyRegistry;
use super::{recovery_to_byte, span_kind_from_byte, DistConfig, LastWordsLine, CONNECT_TIMEOUT};
use crate::acker::{AckOps, ShardedAcker, TreeOutcome, ACKER_SHARDS, EXPIRE_SWEEP};
use crate::bolt_task::Policy;
use crate::checkpoint::CheckpointStore;
use crate::component::TopologyContext;
use crate::config::EngineConfig;
use crate::error::{Error, Result};
use crate::grouping::dynamic::DynamicGroupingHandle;
use crate::lifecycle::{self, deliver_outcomes, TreeLifecycle};
use crate::report::{self, Report, RunCounters};
use crate::route::FanOut;
use crate::rt::{CreditLedger, RtConfig};
use crate::spawn_thread;
use crate::spout_task::{Next, Released, SpoutTask};
use crate::stop::Stop;
use crate::telemetry::journal::{Journal, JournalEvent};
use crate::telemetry::{
    normalize_start_us, trace::trace_id, Counter, Gauge, MetricsServer, Registry, Span, Tracer,
};
use crate::topology::{ComponentId, ComponentKind, Topology};

/// How often the supervisor refreshes the cluster-view gauges (outstanding
/// windows, overflow depth, connection counters).  Off the tuple path.
const GAUGE_SYNC_INTERVAL: Duration = Duration::from_millis(250);

/// The supervisor's longest nap between rounds of its periodic work; it
/// wakes sooner for a lingering batch's deadline, and at once on terminate.
const SUPERVISOR_TICK: Duration = Duration::from_millis(5);

/// Respawn budget per worker slot; beyond it the slot stays down and its
/// in-flight trees fail into replay/`permanently_failed`.  Every respawn
/// fails all trees in flight, so a worker that keeps dying is a fault to
/// surface, not to absorb: three covers a kill plus a respawn that dies too.
const MAX_WORKER_RESTARTS: u32 = 3;

/// How long shutdown waits for the fleet to quiesce before it reports
/// `drained_clean = false`: the default connect budget, since a drain may
/// have to sit out one respawn, and well under the default message timeout.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// `Assign::task_slots` entry of a spout task (it lives on the coordinator).
pub(crate) const COORDINATOR_SLOT: u32 = u32::MAX;

/// Mutable per-worker-slot state, all under one lock.
#[derive(Default)]
struct SlotState {
    /// Send side of the coordinator → worker link.
    out: Outbox,
    child: Option<Child>,
    /// Set by the stderr pump of `child` when its stderr closes, i.e. when
    /// the process has exited (a fresh flag per spawn).
    exited: Arc<AtomicBool>,
    pid: u32,
    generation: u64,
    respawns: u32,
    /// The worker's data listener, from its `Hello`; handed to every worker
    /// assigned after it.
    endpoint: String,
    /// Latest `Flushed` report of the live connection.
    flushed: Option<FlushReport>,
    /// `coordinator_now_us − worker_clock_us`, estimated at the `Hello`
    /// handshake; re-bases every span this connection ships.
    clock_offset_us: i64,
    /// Transport counters of the live connection (reader + writer share
    /// one instance).
    conn_stats: Option<Arc<ConnStats>>,
    /// Structured cause of death captured from the worker's `LastWords`
    /// frame or its stderr JSONL line; consumed by the supervisor when it
    /// reaps the child.
    last_words: Option<(String, String)>,
    /// A heartbeat-lag journal event was already emitted for the current
    /// silence episode.
    hb_lagged: bool,
}

struct WorkerSlot {
    state: Mutex<SlotState>,
    /// Bolt tasks owned by this slot.
    tasks: Vec<u32>,
}

/// The run's counters, cells of the cluster registry so the report and the
/// Prometheus endpoint read the same values: the report counters every run
/// registers, and this backend's own as `dsdps_coord_<name>_total`.
struct Counters {
    run: RunCounters,
    worker_restarts: Counter,
    worker_disconnects: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    frames_in: Counter,
    frames_out: Counter,
    pending_trees: Gauge,
}

impl Counters {
    fn new(reg: &Registry) -> Self {
        let c = |name: &str| reg.counter(&format!("dsdps_coord_{name}_total"), &[]);
        Counters {
            run: RunCounters::new(reg),
            worker_restarts: c("worker_restarts"),
            worker_disconnects: c("worker_disconnects"),
            bytes_in: c("bytes_in"),
            bytes_out: c("bytes_out"),
            frames_in: c("frames_in"),
            frames_out: c("frames_out"),
            pending_trees: reg.gauge("dsdps_coord_pending_trees", &[]),
        }
    }

    /// Folds a closed connection's writer totals into the run's.
    fn add_writer(&self, writer: &BatchWriter) {
        self.bytes_out.add(writer.bytes_out);
        self.frames_out.add(writer.frames_out);
    }
}

/// A count of control-plane events: a handshake completing, a `Flushed`
/// report filed, a reader thread ending, a worker's stderr closing.  Never
/// bumped on the tuple, ack or grant path.  A wait re-checks its condition
/// after each bump instead of polling it.
#[derive(Default)]
struct Changes {
    count: Mutex<u64>,
    bumped: Condvar,
}

impl Changes {
    fn bump(&self) {
        *self.count.lock().unwrap() += 1;
        self.bumped.notify_all();
    }

    /// Runs `check` now and again after every bump until it yields a value;
    /// `None` once `deadline` passes with no bump since the last check.
    fn wait_for<T>(&self, deadline: Instant, mut check: impl FnMut() -> Option<T>) -> Option<T> {
        loop {
            // Read before checking, so a bump that lands after the check
            // moves the count and is not slept through.
            let seen = *self.count.lock().unwrap();
            if let Some(done) = check() {
                return Some(done);
            }
            let mut count = self.count.lock().unwrap();
            while *count == seen {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return None;
                }
                count = self.bumped.wait_timeout(count, left).unwrap().0;
            }
        }
    }
}

struct Shared {
    topology: Topology,
    /// The registry key the topology was submitted under (what workers
    /// rebuild from; not necessarily the topology's display name).
    topology_key: String,
    args: String,
    engine: EngineConfig,
    rt: RtConfig,
    cfg: DistConfig,
    endpoint: Endpoint,
    ackers: ShardedAcker,
    /// Credits of the coordinator → worker links (spout emissions only);
    /// every worker keeps its own ledger toward its peers.
    ledger: CreditLedger,
    /// Tuples per destination task each sender may have outstanding.
    window: u64,
    store: CheckpointStore,
    journal: Arc<Journal>,
    counters: Counters,
    /// Coordinator-side tracer: spout-emit + terminal spans, sampled by
    /// `RtConfig::trace_sample_rate`.  Workers get the rate in `Assign` and
    /// re-derive the same decision from the root each delivery carries.
    tracer: Tracer,
    /// Worker hop spans, already clock-normalized and stamped with
    /// pid/generation at receipt.
    worker_spans: Mutex<Vec<Span>>,
    /// Spans rejected by worker-side ring buffers (shipped in `SpanBatch`).
    worker_spans_dropped: AtomicU64,
    /// One registry for the whole cluster: coordinator families plus every
    /// worker push re-registered under `worker`/`generation` labels; served
    /// at `RtConfig::metrics_addr`.
    metrics: Arc<Registry>,
    /// Coordinator OS pid, stamped into coordinator-side spans at merge.
    coord_pid: u32,
    start: Instant,
    /// Set at shutdown: spouts stop emitting fresh tuples.
    stop: AtomicBool,
    /// Set after the drain: every background thread exits.
    terminate: Stop,
    /// Bumped on every control-plane event the waits below watch for.
    changes: Changes,
    /// Tree roots are small sequential ids (short varints on the wire);
    /// edge ids are the random ones.
    next_root: AtomicU64,
    /// Owning worker slot per global task (`None` for spout tasks).
    task_owner: Vec<Option<usize>>,
    /// Component id per global task.
    task_component: Vec<usize>,
    slots: Vec<WorkerSlot>,
    /// Dynamic-grouping handles in route order (the `SetRatio` edge index).
    dynamic: Vec<DynamicGroupingHandle>,
    /// Outcome channel of each spout task (`None` for bolt tasks).
    feedback: Vec<Option<Sender<Vec<TreeOutcome>>>>,
    /// Tree lifecycle per spout, in spout order: stepped by the spout's
    /// thread, read by the drain check, a restore's doom and the report.
    spouts: Vec<parking_lot::Mutex<TreeLifecycle>>,
    /// What the recovery mode means where the store is a process away from
    /// the tasks (`Assign` carries the mode; workers derive the same).
    policy: Policy,
    reader_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Sets `terminate` and wakes the listener's blocking accept with a
    /// connection of its own.
    fn terminate_threads(&self) {
        self.terminate.set();
        let _ = Conn::connect(&self.endpoint, Duration::ZERO);
    }

    /// Hands one spout delivery to the link of its owner; a dead link
    /// fails the tree (into replay).
    fn enqueue(&self, item: WireTuple) {
        let root = item.trace_root;
        let sent = match self.task_owner[item.dest_task as usize] {
            Some(slot) => {
                let mut state = self.slots[slot].state.lock().unwrap();
                state.out.enqueue(&self.ledger, item)
            }
            None => false,
        };
        if let (false, Some(root)) = (sent, root) {
            self.ackers.on_fail(root, self.now_s());
        }
    }

    /// Deliveries to `tasks` that no worker has credited back yet.
    fn in_use(&self, tasks: &[u32]) -> u64 {
        tasks.iter().map(|&t| self.ledger.in_use(t as usize)).sum()
    }

    /// Records terminal spans of sampled trees and hands each outcome to
    /// the spout thread that owns it.
    fn deliver(&self, outcomes: Vec<TreeOutcome>) {
        // The trailing tracer slot is shared by every completing thread
        // (readers, supervisor); it is locked per span.
        let slot = self.topology.task_count();
        deliver_outcomes(&self.tracer, slot, outcomes, |spout, mine| {
            if let Some(tx) = self.feedback.get(spout).and_then(Option::as_ref) {
                let _ = tx.send(mine);
            }
        });
    }

    /// Closes the link of a dead connection, returns its credits and fails
    /// every tree in flight into replay: the dead worker may have held an
    /// edge of any of them, and ack records that still arrive for a failed
    /// tree hit an unknown root and are ignored.  Idempotent per
    /// connection.
    fn cleanup_slot(&self, slot_idx: usize, reason: &str) {
        let slot = &self.slots[slot_idx];
        {
            let mut state = slot.state.lock().unwrap();
            let tasks = slot.tasks.iter().map(|&t| t as usize);
            let Some((writer, _parked)) = state.out.close(&self.ledger, tasks) else {
                return;
            };
            self.counters.add_writer(&writer);
            state.conn_stats = None;
            state.flushed = None;
            state.hb_lagged = false;
            if let Some(child) = state.child.as_mut() {
                // A dead socket with a live process is a zombie worker:
                // take it down so the supervisor can respawn cleanly.
                let _ = child.kill();
            }
            unlink(&state.endpoint);
        }
        let now = self.now_s();
        self.counters.worker_disconnects.inc();
        let lost = self.ackers.fail_all(now);
        // Sampled trees that die with the connection, capped so a flooded
        // window cannot bloat the journal; cross-references the span log.
        const LOST_TRACE_CAP: usize = 32;
        let lost_trace_ids: Vec<u64> = lost
            .into_iter()
            .filter(|&root| self.tracer.enabled() && self.tracer.sampled(root))
            .map(trace_id)
            .take(LOST_TRACE_CAP)
            .collect();
        self.journal.append(JournalEvent::WorkerDisconnected {
            time_s: now,
            worker: slot_idx,
            reason: reason.to_owned(),
            lost_trace_ids,
        });
        self.deliver(self.ackers.drain_outcomes_blocking());
    }

    /// Sends `frame` to every connected worker; returns the slots reached.
    fn broadcast(&self, frame: &Frame) -> Vec<usize> {
        let mut reached = Vec::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let mut state = slot.state.lock().unwrap();
            if state.out.send(frame) {
                reached.push(idx);
            }
        }
        reached
    }

    fn spawn_worker(self: &Arc<Self>, slot_idx: usize) -> Result<()> {
        let mut state = self.slots[slot_idx].state.lock().unwrap();
        let mut cmd = Command::new(&self.cfg.worker_cmd[0]);
        cmd.args(&self.cfg.worker_cmd[1..])
            .env("DSDPS_DIST_ADDR", self.endpoint.to_env())
            .env("DSDPS_DIST_WORKER", slot_idx.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| Error::Runtime(format!("spawn worker: {e}")))?;
        // Stderr pump: structured last-words JSONL lines are captured for
        // the supervisor's `worker_died` cause; everything else is
        // forwarded verbatim.  The thread exits at stderr EOF (process
        // death), which it reports as `exited`, so it never needs joining.
        if let Some(stderr) = child.stderr.take() {
            let shared = Arc::clone(self);
            let exited = Arc::new(AtomicBool::new(false));
            state.exited = Arc::clone(&exited);
            let _ = std::thread::Builder::new()
                .name(format!("dist-stderr-{slot_idx}"))
                .spawn(move || {
                    for line in std::io::BufReader::new(stderr).lines() {
                        let Ok(line) = line else { break };
                        if let Ok(lw) = serde_json::from_str::<LastWordsLine>(&line) {
                            if lw.dsdps_last_words {
                                let mut state = shared.slots[slot_idx].state.lock().unwrap();
                                state.last_words = Some((lw.cause, lw.detail));
                                continue;
                            }
                        }
                        eprintln!("dsdps worker {slot_idx}: {line}");
                    }
                    exited.store(true, Ordering::Release);
                    shared.changes.bump();
                });
        }
        self.journal.append(JournalEvent::WorkerSpawned {
            time_s: self.now_s(),
            worker: slot_idx,
            pid: child.id(),
            generation: state.generation,
        });
        state.pid = child.id();
        state.child = Some(child);
        Ok(())
    }

    /// Workers whose link is up (their handshake completed).
    fn connected(&self) -> usize {
        let up = |slot: &&WorkerSlot| slot.state.lock().unwrap().out.is_up();
        self.slots.iter().filter(up).count()
    }

    /// `submit`'s wait condition: `Ok` once every worker is connected, an
    /// error naming the first worker whose process exited before its
    /// handshake — nothing respawns a slot that never connected — with the
    /// exit status it reaps.
    fn fleet_up(&self) -> Option<Result<()>> {
        for (idx, slot) in self.slots.iter().enumerate() {
            let mut state = slot.state.lock().unwrap();
            if state.generation > 0 || !state.exited.load(Ordering::Acquire) {
                continue;
            }
            let status = match state.child.take().map(|mut child| child.wait()) {
                Some(Ok(status)) => status.to_string(),
                other => format!("{other:?}"),
            };
            return Some(Err(Error::Runtime(format!(
                "worker {idx} exited before its handshake ({status})"
            ))));
        }
        (self.connected() == self.slots.len()).then_some(Ok(()))
    }

    /// The coordinator's own part of quiescence: no tree pending, no spout
    /// holding a message, nothing parked and every delivery it sent
    /// credited back (i.e. executed).
    fn idle(&self) -> bool {
        self.ackers.pending_count() == 0
            && lifecycle::unresolved(&self.spouts) == 0
            && self.slots.iter().all(|slot| {
                slot.state.lock().unwrap().out.parked() == 0 && self.in_use(&slot.tasks) == 0
            })
    }
}

// --- reader thread ------------------------------------------------------

fn reader_loop(
    shared: Arc<Shared>,
    slot_idx: usize,
    generation: u64,
    pid: u32,
    mut reader: FrameReader,
) {
    // Ack records are applied the way the threaded runtime's tasks apply
    // theirs: partitioned by acker shard, one lock per dirty shard per
    // frame, completed trees drained under the same lock.
    let mut ops = AckOps::new(shared.ackers.num_shards());
    let reason = loop {
        let frame = match reader.read_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                if shared.terminate.is_set() {
                    break "shutdown".to_owned();
                }
                continue;
            }
            Err(e) => break e.to_string(),
        };
        match frame {
            Frame::AckBatch { items } => {
                let now_s = shared.now_s();
                for item in items {
                    ops.record(item, now_s);
                }
                ops.apply(&shared.ackers);
                shared.deliver(ops.take_outcomes());
            }
            Frame::CreditGrant { task, amount } => {
                shared.ledger.grant(task as usize, amount);
                let mut state = shared.slots[slot_idx].state.lock().unwrap();
                state.out.drain(&shared.ledger);
            }
            Frame::CheckpointDeposit {
                task,
                snapshot,
                dedup,
            } => {
                // What taking it cost the worker does not travel (0).
                let (task, now) = (task as usize, shared.now_s());
                let store = &shared.store;
                let _ = store.deposit(task, generation, now, snapshot, dedup, 0);
            }
            Frame::StateRestored {
                task,
                ok,
                latency_us,
            } => {
                let (task, now) = (task as usize, shared.now_s());
                let store = &shared.store;
                store.restored(task, generation, now, ok.then_some(latency_us));
            }
            Frame::Flushed(report) => {
                shared.slots[slot_idx].state.lock().unwrap().flushed = Some(report);
                shared.changes.bump();
            }
            Frame::SpanBatch {
                worker: _,
                dropped,
                spans,
            } => {
                // Stamp what the worker could not know (component names,
                // slot, pid, generation), re-base the worker-clock
                // timestamps with the handshake offset, then merge.
                let offset = {
                    let state = shared.slots[slot_idx].state.lock().unwrap();
                    state.clock_offset_us
                };
                let mut converted: Vec<Span> = spans
                    .into_iter()
                    .filter_map(|ws| {
                        let kind = span_kind_from_byte(ws.kind)?;
                        let task = ws.task as usize;
                        let component = shared
                            .task_component
                            .get(task)
                            .map(|&c| shared.topology.component(ComponentId(c)).name.clone())
                            .unwrap_or_default();
                        Some(Span {
                            trace_id: trace_id(ws.root),
                            root: ws.root,
                            kind,
                            component,
                            task,
                            worker: slot_idx,
                            start_us: ws.start_us,
                            queue_wait_us: ws.queue_wait_us,
                            exec_us: ws.exec_us,
                            batch_id: ws.batch_id,
                            replay_attempt: 0,
                            message_id: None,
                            pid,
                            generation,
                        })
                    })
                    .collect();
                normalize_start_us(&mut converted, offset);
                shared
                    .worker_spans_dropped
                    .fetch_add(dropped, Ordering::Relaxed);
                shared.worker_spans.lock().unwrap().extend(converted);
            }
            Frame::MetricsPush { worker: _, samples } => {
                let w = slot_idx.to_string();
                let g = generation.to_string();
                for sample in samples {
                    let peer = sample.peer.map(|p| p.to_string());
                    let mut labels = vec![("worker", w.as_str()), ("generation", g.as_str())];
                    labels.extend(peer.as_deref().map(|p| ("peer", p)));
                    match sample.kind {
                        0 => shared
                            .metrics
                            .counter(&sample.name, &labels)
                            .add(sample.value),
                        1 => shared
                            .metrics
                            .gauge(&sample.name, &labels)
                            .set(f64::from_bits(sample.value)),
                        _ => {}
                    }
                }
            }
            Frame::LastWords {
                worker: _,
                cause,
                detail,
            } => {
                let mut state = shared.slots[slot_idx].state.lock().unwrap();
                state.last_words = Some((cause, detail));
            }
            // Worker→coordinator direction only carries the frames above.
            _ => {}
        }
    };
    shared.counters.bytes_in.add(reader.bytes_in);
    shared.counters.frames_in.add(reader.frames_in);
    shared.cleanup_slot(slot_idx, &reason);
    shared.changes.bump();
}

// --- listener / handshake thread ----------------------------------------

fn listener_loop(shared: Arc<Shared>, listener: Listener) {
    while let Ok(conn) = listener.accept() {
        // `terminate_threads` wakes the accept with a connection that sends
        // no `Hello`: check before the handshake waits 5 s for one.
        if shared.terminate.is_set() {
            break;
        }
        let Some(conn) = conn else { continue };
        if let Err(e) = handshake(&shared, conn) {
            shared.journal.append(JournalEvent::WorkerDisconnected {
                time_s: shared.now_s(),
                worker: usize::MAX,
                reason: format!("handshake failed: {e}"),
                lost_trace_ids: Vec::new(),
            });
        }
    }
}

fn handshake(shared: &Arc<Shared>, conn: Conn) -> Result<()> {
    let handshake_start = Instant::now();
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| Error::Runtime(format!("set timeout: {e}")))?;
    let writer_conn = conn
        .try_clone()
        .map_err(|e| Error::Runtime(format!("clone socket: {e}")))?;
    let stats = ConnStats::new();
    let mut reader = FrameReader::new(conn);
    reader.set_stats(Arc::clone(&stats));
    let hello = reader
        .read_frame()?
        .ok_or_else(|| Error::Runtime("timed out waiting for hello".into()))?;
    let Frame::Hello {
        worker,
        pid,
        clock_us,
        endpoint,
    } = hello
    else {
        return Err(Error::Runtime(format!(
            "expected hello, got {}",
            hello.kind()
        )));
    };
    // Clock-offset estimation: the worker's span clock read `clock_us` at
    // send time, which is "now" minus (uncorrected) one-way latency on
    // loopback — good to well under a millisecond, enough to merge span
    // timelines.  Workers re-send `Hello` after a respawn, so the offset
    // is re-estimated per generation.
    let clock_offset_us = shared.start.elapsed().as_micros() as i64 - clock_us as i64;
    let slot_idx = worker as usize;
    if slot_idx >= shared.slots.len() {
        return Err(Error::Runtime(format!("unknown worker slot {worker}")));
    }
    // Handshakes run one at a time on the listener thread, so of any two
    // workers exactly one — the later — sees the other in this list and
    // dials it.
    let peers: Vec<WirePeer> = (shared.slots.iter().enumerate())
        .filter(|(i, _)| *i != slot_idx)
        .filter_map(|(i, s)| {
            let state = s.state.lock().unwrap();
            state.out.is_up().then(|| WirePeer {
                slot: i as u32,
                generation: state.generation,
                endpoint: state.endpoint.clone(),
            })
        })
        .collect();
    let mut writer = BatchWriter::new(writer_conn, shared.rt.batch_size, shared.rt.linger);
    writer.set_stats(Arc::clone(&stats));
    let slot = &shared.slots[slot_idx];
    let mut state = slot.state.lock().unwrap();
    state.generation += 1;
    let generation = state.generation;
    let now = shared.now_s();
    let restore_start = Instant::now();
    // Stateful tasks restart from the store.  `Assign` says how many
    // restores follow it, and the worker applies them before it dials a
    // peer or takes a tuple off any link; on this link the writer is only
    // published below, after the last of them.
    let mut restores = Vec::new();
    for &task in &slot.tasks {
        let Some(restored) = shared.store.load(task as usize, generation) else {
            continue;
        };
        // An approximate restore skips the replay of what was tracked
        // before its snapshot.
        if let Some(cut) = shared.policy.doom_cut(restored.taken_at_s) {
            for trees in &shared.spouts {
                trees.lock().doom_tracked_before(cut);
            }
        }
        restores.push(Frame::RestoreState {
            task,
            snapshots: restored.base.into_iter().chain(restored.deltas).collect(),
            dedup: restored.dedup,
        });
    }
    writer.send(&Frame::Assign {
        worker,
        generation,
        topology: shared.topology_key.clone(),
        args: shared.args.clone(),
        task_slots: (shared.task_owner.iter())
            .map(|o| o.map_or(COORDINATOR_SLOT, |s| s as u32))
            .collect(),
        peers,
        recovery: recovery_to_byte(shared.rt.recovery_mode),
        ckpt_interval_us: shared.rt.checkpoint_interval.as_micros() as u64,
        tick_interval_us: (shared.engine.tick_interval_s.max(0.0) * 1e6) as u64,
        metrics_interval_us: (shared.engine.metrics_interval_s.max(0.0) * 1e6) as u64,
        stream_count: shared.topology.components().count() as u32,
        batch_size: shared.rt.batch_size as u32,
        credit_window: shared.window,
        trace_sample_bits: shared.rt.trace_sample_rate.to_bits(),
        restores: restores.len() as u32,
    })?;
    for restore in &restores {
        writer.send(restore)?;
    }
    let restore_us = restore_start.elapsed().as_micros() as u64;
    // The worker built its dynamic groupings at their initial ratios.
    for (edge, handle) in shared.dynamic.iter().enumerate() {
        writer.send(&set_ratio_frame(edge, handle))?;
    }
    state.pid = pid;
    state.endpoint = endpoint;
    state.clock_offset_us = clock_offset_us;
    state.conn_stats = Some(Arc::clone(&stats));
    state.last_words = None;
    state.hb_lagged = false;
    // New connection, fresh capacity: anything parked for this slot's
    // tasks moves now.
    state.out.open(writer, &shared.ledger);
    let task_count = slot.tasks.len();
    drop(state);

    shared.journal.append(JournalEvent::WorkerConnected {
        time_s: now,
        worker: slot_idx,
        pid,
    });
    // The restore-timing decomposition: `handshake_us` covers
    // accept→hello→assign→restores end to end, `restore_us` just the
    // restore-frame leg.
    shared.journal.append(JournalEvent::WorkerAssigned {
        time_s: now,
        worker: slot_idx,
        pid,
        generation,
        tasks: task_count,
        clock_offset_us,
        handshake_us: handshake_start.elapsed().as_micros() as u64,
        restore_us,
    });
    let shared2 = Arc::clone(shared);
    let handle = spawn_thread(format!("dist-reader-{slot_idx}"), move || {
        reader_loop(shared2, slot_idx, generation, pid, reader)
    })?;
    shared.reader_threads.lock().unwrap().push(handle);
    shared.changes.bump();
    Ok(())
}

/// Removes the socket file behind a worker's data endpoint (the worker is
/// dead or stopped; a killed one cannot clean up after itself).
fn unlink(endpoint: &str) {
    if let Ok(endpoint) = Endpoint::from_env(endpoint) {
        endpoint.unlink();
    }
}

fn set_ratio_frame(edge: usize, handle: &DynamicGroupingHandle) -> Frame {
    Frame::SetRatio {
        edge: edge as u32,
        weights: handle.ratio().as_slice().to_vec(),
    }
}

// --- supervisor thread --------------------------------------------------

fn supervisor_loop(shared: Arc<Shared>) {
    let mut last_expire = Instant::now();
    let mut last_gauge_sync = Instant::now();
    // Ratio versions already pushed to the fleet (a worker that connects
    // later gets the current ratios in its handshake).
    let mut pushed: Vec<u64> = shared.dynamic.iter().map(|h| h.version()).collect();
    // Heartbeat-lag threshold: a live worker touches the connection at
    // least every metrics interval, so 2× the interval of rx silence is a
    // worker that is wedged (or a connection the OS has not failed yet).
    let hb_threshold_s = if shared.engine.metrics_interval_s > 0.0 {
        Some(2.0 * shared.engine.metrics_interval_s)
    } else {
        None
    };
    let mut nap = SUPERVISOR_TICK;
    while !shared.terminate.wait(nap) {
        let now = shared.now_s();
        if last_expire.elapsed() >= EXPIRE_SWEEP {
            last_expire = Instant::now();
            shared.ackers.expire(now, shared.engine.message_timeout_s);
        }
        // Trees completed outside a reader's apply (timeouts, failed
        // sends) sit in the shard buffers until someone takes them home.
        shared.deliver(shared.ackers.drain_outcomes());
        for (edge, handle) in shared.dynamic.iter().enumerate() {
            let version = handle.version();
            if version != pushed[edge] {
                pushed[edge] = version;
                shared.broadcast(&set_ratio_frame(edge, handle));
            }
        }
        let sync_gauges = last_gauge_sync.elapsed() >= GAUGE_SYNC_INTERVAL;
        if sync_gauges {
            last_gauge_sync = Instant::now();
            let pending = shared.ackers.pending_count();
            shared.counters.pending_trees.set(pending as f64);
        }
        let mut wake = Instant::now() + SUPERVISOR_TICK;
        for (idx, slot) in shared.slots.iter().enumerate() {
            let mut state = slot.state.lock().unwrap();
            // Reap exited children, attaching the captured cause of death
            // (last-words frame / stderr line, else the raw exit status).
            // A slot that never connected is `submit`'s to reap.
            let connected_once = state.generation > 0;
            let exit_status = match state.child.as_mut() {
                Some(child) if connected_once => child.try_wait().ok().flatten(),
                _ => None,
            };
            if let Some(status) = exit_status {
                state.child = None;
                let cause = match state.last_words.take() {
                    Some((cause, detail)) => format!("{cause}: {detail}"),
                    None => format!("exit: {status}"),
                };
                shared.journal.append(JournalEvent::WorkerDied {
                    time_s: now,
                    worker: idx,
                    pid: state.pid,
                    generation: state.generation,
                    cause,
                });
            }
            if sync_gauges {
                // The per-slot flow and transport families.  The first two
                // are §15.4's failure class live, off the ledger and the link:
                // deliveries not yet credited back, deliveries parked.
                let slot_label = idx.to_string();
                let labels = [("worker", slot_label.as_str())];
                let gauge = |name: &str, v: f64| shared.metrics.gauge(name, &labels).set(v);
                gauge(
                    "dsdps_dist_outstanding_window",
                    shared.in_use(&slot.tasks) as f64,
                );
                gauge("dsdps_dist_overflow_parked", state.out.parked() as f64);
                if let Some(stats) = state.conn_stats.as_ref() {
                    for (what, value) in stats.counters() {
                        let family = format!("dsdps_dist_conn_{what}_total");
                        shared.metrics.counter(&family, &labels).set(value);
                    }
                    let silence = stats.rx_silence_s().unwrap_or(0.0);
                    gauge("dsdps_dist_conn_rx_silence_seconds", silence);
                }
            }
            // Heartbeat lag: journaled once per silence episode.
            if let (Some(threshold), true) = (hb_threshold_s, state.out.is_up()) {
                let silence = state
                    .conn_stats
                    .as_ref()
                    .and_then(|s| s.rx_silence_s())
                    .unwrap_or(0.0);
                if silence > threshold {
                    if !state.hb_lagged {
                        state.hb_lagged = true;
                        shared.journal.append(JournalEvent::WorkerHeartbeatLag {
                            time_s: now,
                            worker: idx,
                            lag_s: silence,
                        });
                    }
                } else {
                    state.hb_lagged = false;
                }
            }
            // Respawn a dead, disconnected slot within budget.
            if state.child.is_none()
                && !state.out.is_up()
                && state.generation > 0
                && state.respawns < MAX_WORKER_RESTARTS
                && !shared.terminate.is_set()
            {
                state.respawns += 1;
                shared.counters.worker_restarts.inc();
                drop(state);
                let _ = shared.spawn_worker(idx);
                continue;
            }
            // Move what credit allows, flush a partial tuple batch past its
            // linger deadline and wake in time for one still lingering.
            state.out.drain(&shared.ledger);
            if let Some(due) = state.out.poll_linger() {
                wake = wake.min(due);
            }
        }
        nap = wake.saturating_duration_since(Instant::now());
    }
}

// --- spout thread -------------------------------------------------------

/// Body of a spout thread: steps the shared [`SpoutTask`] and keeps what is
/// the coordinator's — the stop and terminate flags, the wire form and the
/// links, applying its acker ops and taking their outcomes home, the emit
/// span and the sleeping.
fn spout_loop(
    shared: Arc<Shared>,
    task: usize,
    spout_index: usize,
    feedback: Receiver<Vec<TreeOutcome>>,
) {
    let component = (shared.topology).component(ComponentId(shared.task_component[task]));
    let ComponentKind::Spout(factory) = &component.kind else {
        unreachable!("spout thread for a bolt component");
    };
    let ctx = TopologyContext {
        component: component.name.clone(),
        task_index: task - component.base_task.0,
        parallelism: component.parallelism,
    };
    let edge_seed = u64::from(std::process::id()) << 32 | task as u64;
    let fan = FanOut::new(&shared.topology, component, 0, edge_seed);
    let (pending, dedup) = (shared.engine.max_spout_pending, shared.policy.dedup);
    let mut spout = SpoutTask::new(factory(), &ctx, fan, pending, dedup, shared.now_s());
    let producer = component.id.0 as u32;
    let trees = &shared.spouts[spout_index];
    let mut ops = AckOps::new(shared.ackers.num_shards());
    let mut idle_spins = 0u32;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            spout.finish();
        }
        let now = shared.now_s();
        let feedback = feedback.try_iter().flatten();
        // No rate cap on this backend yet.
        let cap = f64::INFINITY;
        let stepped = spout.step(now, cap, &shared.next_root, trees, feedback, |released| {
            match released {
                Released::Track(t) => t.register(task, now, &mut ops, &shared.tracer),
                Released::Delivery(dest, delivery) => {
                    // The step's trees are registered *before* the first
                    // delivery leaves: an ack record that beat the
                    // registration would hit an unknown root and be lost.
                    ops.apply(&shared.ackers);
                    shared.enqueue(wire_tuple(producer, dest, delivery));
                }
            }
        });
        // A tree that reached nothing had no delivery to be applied for, and
        // is complete as registered.
        ops.apply(&shared.ackers);
        shared.deliver(ops.take_outcomes());
        shared.counters.run.spout_emitted.add(stepped.emitted);
        if shared.terminate.is_set() {
            break;
        }
        if stepped.next == Next::Ran {
            idle_spins = 0;
        } else {
            idle_spins = (idle_spins + 1).min(20);
            let nap = Duration::from_micros(50 * u64::from(idle_spins));
            shared.terminate.wait(nap);
        }
    }
    spout.close();
}

// --- submit / running handle --------------------------------------------

/// Submits `topology_name` (resolved through `registry`, exactly as each
/// worker will resolve it) to a fleet of worker processes.
///
/// Blocks until every worker has connected and been assigned, or 10 s
/// have passed.
pub fn submit(
    registry: &TopologyRegistry,
    topology_name: &str,
    args: &str,
    engine: EngineConfig,
    rt: RtConfig,
    cfg: DistConfig,
) -> Result<RunningDist> {
    engine.validate()?;
    rt.validate()?;
    if cfg.workers == 0 {
        return Err(Error::Config("dist workers must be at least 1".into()));
    }
    if cfg.worker_cmd.is_empty() {
        return Err(Error::Config("worker_cmd must not be empty".into()));
    }
    let topology = registry.build(topology_name, args)?;
    let n_tasks = topology.task_count();

    // Placement: spouts on the coordinator, bolt tasks round-robin over
    // worker slots.
    let mut task_owner = vec![None; n_tasks];
    let mut task_component = vec![0usize; n_tasks];
    let mut slot_tasks: Vec<Vec<u32>> = vec![Vec::new(); cfg.workers];
    let mut next_slot = 0usize;
    let mut spout_tasks: Vec<usize> = Vec::new();
    for component in topology.components() {
        for task in component.tasks() {
            task_component[task.0] = component.id.0;
            match &component.kind {
                ComponentKind::Spout(_) => spout_tasks.push(task.0),
                ComponentKind::Bolt(_) => {
                    task_owner[task.0] = Some(next_slot);
                    slot_tasks[next_slot].push(task.0 as u32);
                    next_slot = (next_slot + 1) % cfg.workers;
                }
            }
        }
    }
    if spout_tasks.is_empty() {
        return Err(Error::Config("topology has no spout".into()));
    }

    let ledger = CreditLedger::new(n_tasks);
    // Every data link needs a bound: a write into a finite socket buffer is
    // sure to complete only because the receiver's reader thread never
    // blocks, which holds only while the queue it fills is bounded — by
    // these windows (DESIGN.md §9).
    let window = (rt.credit_window * rt.batch_size) as u64;
    for (task, owner) in task_owner.iter().enumerate() {
        if owner.is_some() {
            ledger.set_window(task, window);
        }
    }

    let (listener, endpoint) = Listener::unix_temp()?;

    let journal = Arc::new(Journal::default());
    if rt.checkpoints {
        journal.append(JournalEvent::RecoveryMode {
            time_s: 0.0,
            mode: rt.recovery_mode.as_str().to_owned(),
        });
    }

    // Coordinator-side tracer meta: component name per task, worker = the
    // owning slot (spout tasks live on the coordinator and get the
    // one-past-the-fleet pseudo-slot).
    let span_meta: Vec<(String, usize)> = (0..n_tasks)
        .map(|t| {
            let comp = topology.component(ComponentId(task_component[t]));
            (comp.name.clone(), task_owner[t].unwrap_or(cfg.workers))
        })
        .collect();
    let tracer = Tracer::new(rt.trace_sample_rate, n_tasks + 1, span_meta);
    let metrics = Arc::new(Registry::new());
    let metrics_server = match rt.metrics_addr {
        Some(addr) => Some(
            MetricsServer::bind(addr, Arc::clone(&metrics))
                .map_err(|e| Error::Config(format!("metrics_addr {addr} bind failed: {e}")))?,
        ),
        None => None,
    };

    let counters = Counters::new(&metrics);
    let mut feedback = vec![None; n_tasks];
    let (mut spout_inputs, mut spouts) = (Vec::new(), Vec::new());
    for &task in &spout_tasks {
        let (tx, rx) = mpsc::channel();
        feedback[task] = Some(tx);
        spout_inputs.push((task, rx));
        let trees = TreeLifecycle::new(&rt, counters.run.trees.clone(), Arc::clone(&journal));
        spouts.push(parking_lot::Mutex::new(trees));
    }

    let shared = Arc::new(Shared {
        topology_key: topology_name.to_owned(),
        args: args.to_owned(),
        dynamic: dynamic_handles(&topology),
        ackers: ShardedAcker::new(ACKER_SHARDS),
        ledger,
        window,
        store: CheckpointStore::new(n_tasks, Arc::clone(&journal), counters.run.store.clone()),
        journal,
        counters,
        tracer,
        worker_spans: Mutex::new(Vec::new()),
        worker_spans_dropped: AtomicU64::new(0),
        metrics,
        coord_pid: std::process::id(),
        start: Instant::now(),
        stop: AtomicBool::new(false),
        terminate: Stop::default(),
        changes: Changes::default(),
        next_root: AtomicU64::new(0),
        task_owner,
        task_component,
        slots: slot_tasks
            .into_iter()
            .map(|tasks| WorkerSlot {
                state: Mutex::new(SlotState::default()),
                tasks,
            })
            .collect(),
        feedback,
        spouts,
        policy: Policy::of(rt.recovery_mode, false),
        reader_threads: Mutex::new(Vec::new()),
        topology,
        engine,
        rt,
        cfg,
        endpoint,
    });

    let (s1, s2) = (Arc::clone(&shared), Arc::clone(&shared));
    let listener_handle =
        spawn_thread("dist-listener".into(), move || listener_loop(s1, listener))?;
    let supervisor_handle = spawn_thread("dist-supervisor".into(), move || supervisor_loop(s2))?;

    // Launch the fleet.
    for slot_idx in 0..shared.slots.len() {
        shared.spawn_worker(slot_idx)?;
    }
    // Wait for every worker to finish its handshake.
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let fleet = shared.changes.wait_for(deadline, || shared.fleet_up());
    let fleet = fleet.unwrap_or_else(|| {
        Err(Error::Runtime(format!(
            "only {}/{} workers connected within {CONNECT_TIMEOUT:?}",
            shared.connected(),
            shared.slots.len(),
        )))
    });
    if let Err(e) = fleet {
        shared.terminate_threads();
        for slot in &shared.slots {
            let mut state = slot.state.lock().unwrap();
            if let Some(child) = state.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        let _ = listener_handle.join();
        let _ = supervisor_handle.join();
        shared.endpoint.unlink();
        return Err(e);
    }

    let mut spout_handles = Vec::new();
    for (spout_index, (task, rx)) in spout_inputs.into_iter().enumerate() {
        let shared2 = Arc::clone(&shared);
        spout_handles.push(spawn_thread(format!("dist-spout-{task}"), move || {
            spout_loop(shared2, task, spout_index, rx)
        })?);
    }

    Ok(RunningDist {
        shared,
        listener_handle: Some(listener_handle),
        supervisor_handle: Some(supervisor_handle),
        spout_handles,
        metrics_server,
    })
}

/// Handle on a running distributed topology.
pub struct RunningDist {
    shared: Arc<Shared>,
    listener_handle: Option<JoinHandle<()>>,
    supervisor_handle: Option<JoinHandle<()>>,
    spout_handles: Vec<JoinHandle<()>>,
    metrics_server: Option<MetricsServer>,
}

impl RunningDist {
    /// OS process ids of the current worker fleet (0 = not connected).
    pub fn worker_pids(&self) -> Vec<u32> {
        self.shared
            .slots
            .iter()
            .map(|s| s.state.lock().unwrap().pid)
            .collect()
    }

    /// The coordinator's OS process id (spout-emit and terminal spans are
    /// stamped with it in the merged trace).
    pub fn coordinator_pid(&self) -> u32 {
        self.shared.coord_pid
    }

    /// Address of the unified Prometheus endpoint, when
    /// [`RtConfig::metrics_addr`] was set (resolves port 0).  It serves
    /// the coordinator's families plus every worker's pushed metrics under
    /// `worker`/`generation` labels.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_server.as_ref().map(|s| s.local_addr())
    }

    /// The handle of the dynamic grouping on the edge `producer ->
    /// subscriber`.  Ratios set through it reach the workers that route
    /// the edge within a supervisor tick.
    pub fn dynamic_handle(
        &self,
        producer: &str,
        subscriber: &str,
    ) -> Option<DynamicGroupingHandle> {
        self.shared.topology.dynamic_handle(producer, subscriber)
    }

    /// Kills worker `idx`'s OS process (SIGKILL), as a fault-injection
    /// hook.  The supervisor respawns it within the restart budget.
    pub fn kill_worker(&self, idx: usize) -> Result<()> {
        let slot = self
            .shared
            .slots
            .get(idx)
            .ok_or_else(|| Error::Config(format!("no worker slot {idx}")))?;
        let mut state = slot.state.lock().unwrap();
        match state.child.as_mut() {
            Some(child) => {
                child
                    .kill()
                    .map_err(|e| Error::Runtime(format!("kill worker {idx}: {e}")))?;
                Ok(())
            }
            None => Err(Error::Runtime(format!("worker {idx} has no process"))),
        }
    }

    /// Messages fully acked so far.
    pub fn acked(&self) -> u64 {
        self.shared.counters.run.trees.acked.get()
    }

    /// Distinct messages tracked so far.
    pub fn tracked(&self) -> u64 {
        self.shared.counters.run.trees.tracked.get()
    }

    /// Spout emissions so far (fresh, not counting replays).
    pub fn spout_emitted(&self) -> u64 {
        self.shared.counters.run.spout_emitted.get()
    }

    /// Messages the spouts have yet to resolve: a tree in flight or a replay
    /// awaited.
    pub fn pending_trees(&self) -> usize {
        lifecycle::unresolved(&self.shared.spouts)
    }

    /// Ack records received from the workers so far (one per executed
    /// anchored tuple, plus the failures of undeliverable ones); for tests.
    #[doc(hidden)]
    pub fn ack_records_applied(&self) -> u64 {
        self.shared.ackers.records_applied()
    }

    /// One round of the shutdown drain: every connected worker checkpoints,
    /// releases its withheld ack records and reports its send-side
    /// accounting.  Returns each worker's activity counter when the round
    /// was *clean* — the coordinator idle at the instant the round started
    /// and no worker with a delivery in flight — and `None` otherwise (or
    /// when `deadline` passed before every worker answered).
    fn flush_round(&self, seq: u64, deadline: Instant) -> Option<Vec<u64>> {
        let shared = &self.shared;
        let idle = shared.idle();
        let asked = shared.broadcast(&Frame::Flush { seq });
        let reports = shared.changes.wait_for(deadline, || {
            let mut reports = Vec::with_capacity(asked.len());
            for &idx in &asked {
                let state = shared.slots[idx].state.lock().unwrap();
                // A worker that disconnected mid-round holds nothing any more.
                if state.out.is_up() {
                    reports.push(state.flushed.filter(|r| r.seq == seq)?);
                }
            }
            Some(reports)
        })?;
        let clean = idle && reports.iter().all(|r| r.in_flight == 0);
        clean.then(|| reports.iter().map(|r| r.activity).collect())
    }

    /// Stops the spouts, drains in-flight work (forcing checkpoints so
    /// withheld ack records are released), tears the fleet down and reports.
    pub fn shutdown(mut self) -> Report {
        let shared = Arc::clone(&self.shared);
        shared.stop.store(true, Ordering::Release);
        // Drain.  Unanchored deliveries are invisible to the acker, so
        // "nothing left to execute" is decided by termination detection
        // over the workers' reports: two consecutive clean rounds between
        // which no worker executed or sent anything.  A delivery alive at
        // the instant between the rounds would be in flight at its sender
        // in the first round, or have been sent (activity) since.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut previous: Option<Vec<u64>> = None;
        let mut seq = 0;
        let drained_clean = loop {
            seq += 1;
            let round = self.flush_round(seq, deadline);
            if round.is_some() && round == previous {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            // Work is still in flight: pause before the next round rather
            // than wait for an event.  Only acks mark that progress, and a
            // bump per ack would start a round, i.e. force a checkpoint on
            // every worker, per ack batch.
            if round.is_none() {
                std::thread::sleep(Duration::from_millis(20));
            }
            previous = round;
        };
        shared.terminate_threads();
        // Spouts exit first (they drain their feedback channels on the
        // way out).
        for handle in self.spout_handles.drain(..) {
            let _ = handle.join();
        }
        // Stop the fleet.  Every link is closed before its worker is told
        // to exit, so the readers' EOF is not mistaken for a worker death.
        let mut credits = shared.ledger.totals();
        let mut closed = Vec::new();
        for slot in &shared.slots {
            let mut state = slot.state.lock().unwrap();
            // The fleet's ledgers as of the workers' last drain reports.
            if let Some(report) = state.flushed.take() {
                credits.granted += report.credits.granted;
                credits.consumed += report.credits.consumed;
                credits.revoked += report.credits.revoked;
                credits.outstanding += report.credits.outstanding;
            }
            if let Some((mut writer, _)) = state.out.close(&shared.ledger, std::iter::empty()) {
                let _ = writer.send(&Frame::Shutdown);
                closed.push(writer);
            }
        }
        for slot in &shared.slots {
            let (child, exited) = {
                let mut state = slot.state.lock().unwrap();
                (state.child.take(), Arc::clone(&state.exited))
            };
            let Some(mut child) = child else { continue };
            // Give the worker a moment to exit cleanly, then force it.
            let deadline = Instant::now() + Duration::from_secs(2);
            let gone = || exited.load(Ordering::Acquire).then_some(());
            if shared.changes.wait_for(deadline, gone).is_none() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        for writer in closed {
            shared.counters.add_writer(&writer);
            writer.shutdown();
        }
        shared.endpoint.unlink();
        for slot in &shared.slots {
            unlink(&slot.state.lock().unwrap().endpoint);
        }
        if let Some(h) = self.listener_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor_handle.take() {
            let _ = h.join();
        }
        let readers = std::mem::take(&mut *shared.reader_threads.lock().unwrap());
        for h in readers {
            let _ = h.join();
        }
        if let Some(server) = self.metrics_server.take() {
            server.shutdown();
        }

        // One merged trace: the coordinator's spout-emit/terminal spans
        // (stamped with its own pid; worker spans arrived pre-stamped and
        // clock-normalized in the reader threads).
        let (mut spans, own_dropped) = shared.tracer.drain();
        for s in &mut spans {
            s.pid = shared.coord_pid;
        }
        spans.extend(shared.worker_spans.lock().unwrap().drain(..));
        let spans_dropped = own_dropped + shared.worker_spans_dropped.load(Ordering::Relaxed);

        let c = &shared.counters;
        Report {
            worker_pids: self.worker_pids(),
            worker_restarts: c.worker_restarts.get(),
            worker_disconnects: c.worker_disconnects.get(),
            bytes_sent: c.bytes_out.get(),
            bytes_received: c.bytes_in.get(),
            frames_sent: c.frames_out.get(),
            frames_received: c.frames_in.get(),
            coordinator_pid: shared.coord_pid,
            drained_clean,
            credits,
            ..report::shared_fields(
                &c.run,
                &shared.spouts,
                &shared.journal,
                (spans, spans_dropped),
                Some(&shared.store),
                shared.topology.task_count(),
                shared.now_s(),
            )
        }
    }
}

/// The report of a distributed run: the one [`Report`] both live backends
/// return.
pub type DistReport = Report;

#[cfg(test)]
mod tests {
    use super::*;

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn changes_return_at_once_when_the_condition_holds() {
        let started = Instant::now();
        assert_eq!(
            Changes::default().wait_for(started + LONG, || Some(7)),
            Some(7)
        );
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn changes_wake_on_a_bump_from_another_thread() {
        let (changes, done) = (
            Arc::new(Changes::default()),
            Arc::new(AtomicBool::new(false)),
        );
        let (c, d) = (Arc::clone(&changes), Arc::clone(&done));
        let bumper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            d.store(true, Ordering::SeqCst);
            c.bump();
        });
        let started = Instant::now();
        let woke = changes.wait_for(started + LONG, || done.load(Ordering::SeqCst).then_some(()));
        assert_eq!(woke, Some(()));
        assert!(started.elapsed() < Duration::from_secs(5));
        bumper.join().unwrap();
    }

    #[test]
    fn changes_give_up_at_the_deadline() {
        let started = Instant::now();
        let deadline = started + Duration::from_millis(30);
        assert_eq!(Changes::default().wait_for(deadline, || None::<()>), None);
        assert!(started.elapsed() >= Duration::from_millis(30));
    }

    /// The first check fails and bumps before `wait_for` parks, as a change
    /// on another thread landing right after the check would.
    #[test]
    fn a_bump_between_the_check_and_the_wait_is_not_lost() {
        let changes = Changes::default();
        let mut checks = 0;
        let started = Instant::now();
        let got = changes.wait_for(started + LONG, || {
            checks += 1;
            if checks == 1 {
                changes.bump();
                return None;
            }
            Some(checks)
        });
        assert_eq!(got, Some(2));
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
