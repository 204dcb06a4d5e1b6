//! Worker-process side of the distributed runtime.
//!
//! A worker binds its own data listener, introduces itself to the
//! coordinator with `Hello` (which carries that listener's endpoint),
//! receives an `Assign` naming a topology from its [`TopologyRegistry`],
//! the task → worker map and the peers already up, applies the
//! `RestoreState` frames `Assign` announces, dials those peers, and then
//! runs **one executor thread** fed by **one reader thread per
//! inbound connection**.  The executor runs the bolts and routes their
//! emissions itself — a destination on this worker is queued locally, a
//! remote one goes into that peer's batching writer under this worker's
//! own credit ledger — checkpoints stateful tasks, ticks bolts and obeys
//! `Flush`/`RestoreState`/`SetRatio`/`Shutdown`.  The coordinator sees
//! only one XOR ack record per executed anchored tuple.
//!
//! Each hosted bolt is a `BoltTask`: the crate's one bolt step (which
//! fans its emissions out and produces that record) and checkpoint cycle,
//! under the recovery policy of a platform whose store is a process away.
//! Every mode therefore **withholds** a stateful task's ack records until a
//! `CheckpointDeposit` covering their inputs has been sent (frames are
//! processed in order on both sides, so deposit-then-acks guarantees the
//! coordinator never completes a tree whose effect could be lost with the
//! worker).

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::codec::{FlushReport, Frame, InternTable, WireMetric, WirePeer, WireSpan, WireTuple};
use super::coordinator::COORDINATOR_SLOT;
use super::router::{dynamic_handles, wire_tuple, Outbox};
use super::transport::{BatchWriter, Conn, ConnStats, Endpoint, FrameReader, Listener};
use super::{recovery_from_byte, span_kind_to_byte, DistConfig, LastWordsLine};
use crate::acker::{AckRecord, RootId};
use crate::bolt_task::{BoltTask, Policy};
use crate::checkpoint::Restored;
use crate::component::{MessageId, TopologyContext};
use crate::error::{Error, Result};
use crate::grouping::dynamic::{DynamicGroupingHandle, SplitRatio};
use crate::route::{Delivery, FanOut};
use crate::rt::CreditLedger;
use crate::spawn_thread;
use crate::telemetry::{Counter, Registry, SampleValue, Tracer};
use crate::topology::{ComponentKind, TaskId, Topology};
use crate::tuple::Tuple;

/// Builds a topology from a registered name plus an opaque argument
/// string.  Coordinator and workers run the same builder, which is what
/// makes their routing and stream-intern tables identical.
pub type TopologyBuilderFn = Arc<dyn Fn(&str) -> Result<Topology> + Send + Sync>;

/// Name → topology builder map shared by the coordinator and the worker
/// binary.
#[derive(Default, Clone)]
pub struct TopologyRegistry {
    builders: HashMap<String, TopologyBuilderFn>,
}

impl TopologyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `name`; the builder receives the `args` string passed to
    /// [`submit`](super::submit) verbatim.
    pub fn register<F>(&mut self, name: &str, builder: F)
    where
        F: Fn(&str) -> Result<Topology> + Send + Sync + 'static,
    {
        self.builders.insert(name.to_owned(), Arc::new(builder));
    }

    /// Builds the named topology.
    pub fn build(&self, name: &str, args: &str) -> Result<Topology> {
        match self.builders.get(name) {
            Some(f) => f(args),
            None => Err(Error::Config(format!("topology `{name}` not registered"))),
        }
    }

    /// Registered topology names, unordered.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.builders.keys().map(String::as_str)
    }
}

/// What a reader thread hands the executor.  `link` identifies the
/// connection (0 = the coordinator's); a peer's link id changes when it
/// respawns, so input from a replaced connection is recognizably stale.
enum Input {
    /// A decoded frame and when it came off the socket.
    Frame {
        link: u64,
        frame: Frame,
        at: Instant,
    },
    /// Worker `slot` dialed in: `conn` is the write half of the new link.
    PeerUp {
        link: u64,
        slot: u32,
        conn: Conn,
        stats: Arc<ConnStats>,
    },
    /// The connection ended (EOF, socket error or undecodable frame).
    Closed { link: u64, reason: String },
}

/// The coordinator's link id.
const COORDINATOR_LINK: u64 = 0;

/// Body of every reader thread: decode frames off one connection and queue
/// them for the executor.  Never blocks on anything but the socket — the
/// channel is unbounded, bounded in practice by the senders' credit
/// windows — which is what keeps every socket drained (DESIGN.md §9).
fn read_link(mut reader: FrameReader, link: u64, tx: &Sender<Input>) {
    loop {
        let input = match reader.read_frame() {
            Ok(Some(frame)) => Input::Frame {
                link,
                frame,
                at: Instant::now(),
            },
            Ok(None) => continue,
            Err(e) => Input::Closed {
                link,
                reason: e.to_string(),
            },
        };
        let closed = matches!(input, Input::Closed { .. });
        if tx.send(input).is_err() || closed {
            return;
        }
    }
}

/// Spawns the (detached) reader thread of a connection; it ends with its
/// socket.
fn spawn_reader(reader: FrameReader, link: u64, tx: &Sender<Input>) -> Result<()> {
    let tx = tx.clone();
    spawn_thread(format!("dist-link-{link}"), move || {
        read_link(reader, link, &tx)
    })
    .map(drop)
}

/// Accepts peer connections for the life of the process: reads the
/// dialer's `Hello`, announces the link to the executor and hands the
/// connection to a reader thread.  A dialer that does not introduce itself
/// in time is dropped.
fn accept_loop(listener: Listener, next_link: Arc<AtomicU64>, tx: Sender<Input>) {
    while let Ok(conn) = listener.accept() {
        let (Some(conn), stats) = (conn, ConnStats::new()) else {
            continue;
        };
        let Ok(write_half) = conn.try_clone() else {
            continue;
        };
        let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
        let mut reader = FrameReader::new(conn);
        reader.set_stats(Arc::clone(&stats));
        let Ok(Some(Frame::Hello { worker: slot, .. })) = reader.read_frame() else {
            continue;
        };
        let _ = reader.set_read_timeout(None);
        let link = next_link.fetch_add(1, Ordering::Relaxed);
        let up = Input::PeerUp {
            link,
            slot,
            conn: write_half,
            stats,
        };
        if tx.send(up).is_err() || spawn_reader(reader, link, &tx).is_err() {
            return;
        }
    }
}

/// One bolt task hosted by this worker.
struct TaskState {
    /// Interned wire id of the first stream its component declares.
    stream_base: u32,
    task: BoltTask,
}

/// The link to one peer worker.
#[derive(Default)]
struct Peer {
    out: Outbox,
    /// Id of the connection currently backing the link.
    link: u64,
    stats: Option<Arc<ConnStats>>,
    /// Tasks hosted by the peer (whose credit pools the link draws on).
    tasks: Vec<usize>,
}

/// The executor: the one thread that runs bolts, routes their emissions
/// and owns every writer.
struct Worker {
    idx: u32,
    /// Span-clock epoch: every worker-side timestamp is µs since this
    /// instant.  Its reading travels in `Hello` so the coordinator can
    /// estimate the offset to its own span clock and re-base shipped spans.
    t0: Instant,
    endpoint: String,
    // Knobs from `Assign`.
    tick_interval: Option<Duration>,
    push_interval: Option<Duration>,
    batch_size: usize,
    intern: InternTable,
    /// The dynamic-grouping handles by `SetRatio` edge.
    dynamic: Vec<DynamicGroupingHandle>,
    /// Owning slot per global task ([`COORDINATOR_SLOT`] for spout tasks).
    task_slot: Vec<u32>,
    /// Hosted tasks by global task id (`None` for tasks hosted elsewhere;
    /// boxed so a step can take its task out while the sink borrows the
    /// worker).
    tasks: Vec<Option<Box<TaskState>>>,
    /// Credits of this worker's links toward its peers.
    ledger: CreditLedger,
    coord: BatchWriter,
    coord_stats: Arc<ConnStats>,
    peers: Vec<Peer>,
    next_link: Arc<AtomicU64>,
    tx: Sender<Input>,
    /// Deliveries for tasks of this worker: no codec, no socket, no credit.
    local: VecDeque<(usize, Delivery)>,
    /// Ack records not yet sent to the coordinator.
    acks: Vec<AckRecord>,
    grants: Vec<(u32, u64)>,
    /// Span-clock seconds of the batch or tick in hand (the bolts' `now`).
    now_s: f64,
    /// Tuples executed / handed to a peer link — the activity the shutdown
    /// drain's termination detection watches.
    executed: u64,
    sent: u64,
    batch_seq: u64,
    tracer: Tracer,
    registry: Registry,
    metrics: WorkerMetrics,
    last_pushed: HashMap<(String, Option<u32>), u64>,
}

impl Worker {
    /// Executes one delivery for hosted task `dest`; what it emits goes
    /// through [`deliver`](Self::deliver).
    fn execute(
        &mut self,
        dest: usize,
        tuple: &Tuple,
        anchor: Option<(RootId, u64)>,
        dedup: Option<MessageId>,
        recv_at: Instant,
    ) {
        self.executed += 1;
        let root = anchor.map(|(root, _)| root);
        let Some(mut ts) = self.tasks.get_mut(dest).and_then(Option::take) else {
            self.acks.extend(root.map(AckRecord::failed));
            return;
        };
        let traced = root.filter(|&r| self.tracer.enabled() && self.tracer.sampled(r));
        let started = traced.map(|_| Instant::now());
        let base = ts.stream_base;
        let step = ts
            .task
            .step(tuple, anchor, dedup, self.now_s, |to, delivery| {
                self.deliver(base, to, delivery)
            });
        self.tasks[dest] = Some(ts);
        // A replay of an applied input is acknowledged like any other, but
        // was not run again.
        if step.executed {
            if let (Some(root), Some(started)) = (traced, started) {
                self.tracer.record_hop(
                    dest,
                    root,
                    dest,
                    started.duration_since(self.t0).as_micros() as u64,
                    started.saturating_duration_since(recv_at).as_micros() as u64,
                    started.elapsed().as_micros() as u64,
                    self.batch_seq,
                );
            }
            self.metrics.executed.inc();
        }
        // A stateful task's record waits for the checkpoint that makes the
        // effect durable.
        self.acks.extend(step.record);
    }

    /// Where a delivery of a hosted task goes (`stream_base`: the wire id
    /// of its producer's first stream): one for a task of this worker is
    /// queued locally, a remote one goes to its peer's outbox.
    fn deliver(&mut self, stream_base: u32, dest: usize, delivery: Delivery) {
        self.metrics.emitted.inc();
        let slot = self.task_slot[dest];
        if slot == self.idx {
            self.local.push_back((dest, delivery));
            return;
        }
        self.sent += 1;
        let item = wire_tuple(stream_base, dest, delivery);
        let root = item.trace_root;
        let delivered = (self.peers.get_mut(slot as usize))
            .is_some_and(|peer| peer.out.enqueue(&self.ledger, item));
        if let (false, Some(root)) = (delivered, root) {
            // Bound for a dead peer: fail the tree rather than die with it.
            self.acks.push(AckRecord::failed(root));
        }
    }
}

impl Worker {
    /// Executes a batch off a data link and everything it set in motion
    /// locally, then returns the batch's credits to its sender.
    fn on_tuples(&mut self, link: u64, items: Vec<WireTuple>, at: Instant) -> Result<()> {
        self.batch_seq += 1;
        self.metrics.batches.inc();
        self.grants.clear();
        self.now_s = self.t0.elapsed().as_secs_f64();
        for item in items {
            match self.grants.iter_mut().find(|(t, _)| *t == item.dest_task) {
                Some((_, n)) => *n += 1,
                None => self.grants.push((item.dest_task, 1)),
            }
            let anchor = item.trace_root.map(|root| (root, item.token));
            match self.intern.tuple(item.stream, item.values) {
                Ok(tuple) => self.execute(item.dest_task as usize, &tuple, anchor, item.dedup, at),
                Err(_) => self.acks.extend(item.trace_root.map(AckRecord::failed)),
            }
            self.run_local(at);
        }
        for i in 0..self.grants.len() {
            let (task, amount) = self.grants[i];
            let grant = Frame::CreditGrant { task, amount };
            if link == COORDINATOR_LINK {
                self.coord.send(&grant)?;
            } else if let Some(peer) = self.peers.iter_mut().find(|p| p.link == link) {
                peer.out.send(&grant);
            }
        }
        if self.acks.len() >= 2 * self.batch_size {
            self.flush_acks()?;
        }
        Ok(())
    }

    /// Runs the local queue dry (executions may keep refilling it).
    fn run_local(&mut self, at: Instant) {
        while let Some((dest, d)) = self.local.pop_front() {
            self.execute(dest, &d.tuple, d.anchor, d.dedup, at);
        }
    }

    fn flush_acks(&mut self) -> Result<()> {
        if self.acks.is_empty() {
            return Ok(());
        }
        let frame = Frame::AckBatch {
            items: std::mem::take(&mut self.acks),
        };
        self.coord.send(&frame)?;
        // Keep the buffer's capacity for the next batch.
        if let Frame::AckBatch { mut items } = frame {
            items.clear();
            self.acks = items;
        }
        Ok(())
    }

    /// The input ran dry: nothing else will fill the partial batches, so
    /// they leave now (this is the only linger the mesh has).
    fn flush_all(&mut self) -> Result<()> {
        for peer in &mut self.peers {
            peer.out.flush();
        }
        self.flush_acks()
    }

    /// A connection to `slot` is up (dialed by either side): it replaces
    /// whatever backed the link before.
    fn peer_up(
        &mut self,
        slot: u32,
        link: u64,
        conn: Conn,
        stats: Arc<ConnStats>,
        dialed: bool,
    ) -> bool {
        self.peer_down(slot as usize);
        let Some(peer) = self.peers.get_mut(slot as usize) else {
            return false;
        };
        let mut writer = BatchWriter::new(conn, self.batch_size, Duration::ZERO);
        writer.set_stats(Arc::clone(&stats));
        // On a link this worker dialed the first frame introduces it.
        let hello = Frame::Hello {
            worker: self.idx,
            pid: std::process::id(),
            clock_us: self.t0.elapsed().as_micros() as u64,
            endpoint: self.endpoint.clone(),
        };
        if dialed && writer.send(&hello).is_err() {
            return false;
        }
        peer.link = link;
        peer.stats = Some(stats);
        peer.out.open(writer, &self.ledger);
        true
    }

    /// The link to `slot` died: its credits come home and the tuples
    /// parked for it fail their trees.
    fn peer_down(&mut self, slot: usize) {
        let Some(peer) = self.peers.get_mut(slot) else {
            return;
        };
        let tasks = peer.tasks.iter().copied();
        if let Some((writer, parked)) = peer.out.close(&self.ledger, tasks) {
            writer.shutdown();
            let roots = parked.iter().filter_map(|item| item.trace_root);
            self.acks.extend(roots.map(AckRecord::failed));
        }
    }

    /// Dials a peer listed in `Assign` and introduces this worker.
    fn dial(&mut self, peer: &WirePeer) {
        let link = self.next_link.fetch_add(1, Ordering::Relaxed);
        let stats = ConnStats::new();
        // The peer bound its listener before the coordinator learned its
        // endpoint, so one attempt either connects or finds it dead.
        let dialed = Endpoint::from_env(&peer.endpoint)
            .and_then(|ep| Conn::connect(&ep, Duration::ZERO))
            .and_then(|conn| {
                let read_half = conn
                    .try_clone()
                    .map_err(|e| Error::Runtime(format!("clone socket: {e}")))?;
                let mut reader = FrameReader::new(read_half);
                reader.set_stats(Arc::clone(&stats));
                spawn_reader(reader, link, &self.tx)?;
                Ok(conn)
            });
        if !dialed.is_ok_and(|conn| self.peer_up(peer.slot, link, conn, stats, true)) {
            // Dead until it respawns and dials us: refuse, do not park.
            self.peer_down(peer.slot as usize);
        }
    }

    /// Checkpoints the stateful tasks whose cycle says one is due: send the
    /// deposit, then release the ack records it covers.  In-order frame
    /// processing on the coordinator is what aligns the two.
    fn checkpoint_all(&mut self, force: bool) -> Result<()> {
        let now_s = self.t0.elapsed().as_secs_f64();
        for task in 0..self.tasks.len() {
            let ts = self.tasks[task].as_mut();
            let Some(deposit) = ts.and_then(|ts| ts.task.take(now_s, force)) else {
                continue;
            };
            self.coord.send(&Frame::CheckpointDeposit {
                task: task as u32,
                snapshot: deposit.snapshot,
                dedup: deposit.dedup,
            })?;
            self.metrics.checkpoints.inc();
            self.acks.extend(deposit.released);
            self.flush_acks()?;
        }
        Ok(())
    }

    /// Bolt ticks, then whatever they set in motion locally.
    fn tick(&mut self) {
        self.now_s = self.t0.elapsed().as_secs_f64();
        for task in 0..self.tasks.len() {
            let Some(mut ts) = self.tasks[task].take() else {
                continue;
            };
            let base = ts.stream_base;
            ts.task
                .tick(self.now_s, |to, delivery| self.deliver(base, to, delivery));
            self.tasks[task] = Some(ts);
        }
        self.run_local(Instant::now());
    }

    /// Deliveries this worker sent or parked that no peer credited back.
    fn in_flight(&self) -> u64 {
        let in_use = |p: &Peer| p.tasks.iter().map(|&t| self.ledger.in_use(t)).sum::<u64>();
        let count = |p: &Peer| in_use(p) + p.out.parked() as u64;
        self.peers.iter().map(count).sum()
    }

    /// Handles one input; `Ok(false)` ends the serve loop (`Shutdown`).
    fn handle(&mut self, input: Input) -> Result<bool> {
        let (link, frame, at) = match input {
            Input::Frame { link, frame, at } => (link, frame, at),
            Input::PeerUp {
                link,
                slot,
                conn,
                stats,
            } => {
                self.peer_up(slot, link, conn, stats, false);
                return Ok(true);
            }
            Input::Closed { link, reason } => {
                if link == COORDINATOR_LINK {
                    return Err(Error::Runtime(format!("coordinator link: {reason}")));
                }
                if let Some(slot) = self.peers.iter().position(|p| p.link == link) {
                    self.peer_down(slot);
                }
                return Ok(true);
            }
        };
        // A frame of a connection that has since been replaced: its sender
        // is gone, and so is anyone who could use the answer.
        let peer = match self.peers.iter().position(|p| p.link == link) {
            _ if link == COORDINATOR_LINK => None,
            Some(slot) => Some(slot),
            None => return Ok(true),
        };
        match (frame, peer) {
            (Frame::TupleBatch { items }, _) => self.on_tuples(link, items, at)?,
            (Frame::CreditGrant { task, amount }, Some(slot)) => {
                self.ledger.grant(task as usize, amount);
                self.peers[slot].out.drain(&self.ledger);
            }
            (Frame::SetRatio { edge, weights }, None) => {
                if let (Some(handle), Ok(ratio)) =
                    (self.dynamic.get(edge as usize), SplitRatio::new(weights))
                {
                    let _ = handle.set_ratio(ratio);
                }
            }
            (
                Frame::RestoreState {
                    task,
                    snapshots,
                    dedup,
                },
                None,
            ) => {
                let start = Instant::now();
                let mut snapshots = snapshots.into_iter();
                let from = Restored {
                    base: snapshots.next(),
                    deltas: snapshots.collect(),
                    input_log: Vec::new(),
                    dedup,
                    taken_at_s: None,
                };
                let ts = self.tasks.get_mut(task as usize).and_then(Option::as_mut);
                let ok = ts.is_some_and(|ts| ts.task.restore(from));
                self.coord.send(&Frame::StateRestored {
                    task,
                    ok,
                    latency_us: start.elapsed().as_micros() as u64,
                })?;
            }
            (Frame::Flush { seq }, None) => {
                self.checkpoint_all(true)?;
                self.flush_all()?;
                self.coord.send(&Frame::Flushed(FlushReport {
                    seq,
                    in_flight: self.in_flight(),
                    activity: self.executed + self.sent,
                    credits: self.ledger.totals(),
                }))?;
            }
            (Frame::Shutdown, None) => {
                // Final push so spans and deltas recorded since the last
                // interval still reach the coordinator's merged view.
                if self.push_interval.is_some() {
                    self.push_telemetry()?;
                }
                return Ok(false);
            }
            _ => {} // Unexpected kind or direction: ignore.
        }
        Ok(true)
    }

    /// The serve loop: drain the input queue; when it runs dry flush every
    /// partial batch, then wait (bounded, for the periodic work).
    fn serve(&mut self, rx: &Receiver<Input>) -> Result<()> {
        let mut last_tick = Instant::now();
        let mut last_push = Instant::now();
        loop {
            let input = match rx.try_recv() {
                Ok(input) => Some(input),
                Err(_) => {
                    self.flush_all()?;
                    // `self.tx` keeps the channel open, so an error here
                    // is the timeout.
                    rx.recv_timeout(Duration::from_millis(10)).ok()
                }
            };
            if let Some(input) = input {
                if !self.handle(input)? {
                    return Ok(());
                }
            }
            self.checkpoint_all(false)?;
            if self.tick_interval.is_some_and(|i| last_tick.elapsed() >= i) {
                last_tick = Instant::now();
                self.tick();
            }
            if self.push_interval.is_some_and(|i| last_push.elapsed() >= i) {
                last_push = Instant::now();
                self.push_telemetry()?;
            }
        }
    }
}

/// Runs the worker loop if `DSDPS_DIST_ADDR` is set, i.e. if this process
/// was launched as a distributed worker.  Call this at the top of the
/// worker binary's `main` (or inside a dedicated test entry point) and
/// return immediately when it yields `true`.  Exits the process with a
/// nonzero status on a worker-side error.
pub fn maybe_worker_from_env(registry: &TopologyRegistry) -> bool {
    let Ok(addr) = std::env::var("DSDPS_DIST_ADDR") else {
        return false;
    };
    let worker: u32 = std::env::var("DSDPS_DIST_WORKER")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let endpoint = match Endpoint::from_env(&addr) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("dsdps worker: bad DSDPS_DIST_ADDR: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = worker_main(registry, &endpoint, worker) {
        eprintln!("dsdps worker {worker}: {e}");
        std::process::exit(1);
    }
    true
}

/// Binds this worker's data listener, connects to the coordinator at
/// `endpoint` and serves bolt tasks until `Shutdown` (or the connection
/// drops).
pub fn worker_main(registry: &TopologyRegistry, endpoint: &Endpoint, idx: u32) -> Result<()> {
    let t0 = Instant::now();
    // Listen *before* saying hello: once the coordinator knows the
    // endpoint, a peer may dial it at any moment.  (The coordinator also
    // removes the socket file once this process is gone.)
    let (listener, my_endpoint) = Listener::unix_temp()?;
    let conn = Conn::connect(endpoint, DistConfig::new(1, vec![]).connect_timeout)?;
    let read_half = conn
        .try_clone()
        .map_err(|e| Error::Runtime(format!("clone socket: {e}")))?;
    let coord_stats = ConnStats::new();
    let mut reader = FrameReader::new(read_half);
    reader.set_stats(Arc::clone(&coord_stats));
    // Only control frames travel worker → coordinator, so this writer's
    // tuple-batching path is idle.
    let mut coord = BatchWriter::new(conn, 1, Duration::ZERO);
    coord.set_stats(Arc::clone(&coord_stats));
    coord.send(&Frame::Hello {
        worker: idx,
        pid: std::process::id(),
        clock_us: t0.elapsed().as_micros() as u64,
        endpoint: my_endpoint.to_env(),
    })?;

    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| Error::Runtime(format!("set timeout: {e}")))?;
    let Some(assign) = reader.read_frame()? else {
        return Err(Error::Runtime("timed out waiting for assignment".into()));
    };
    let Frame::Assign {
        worker: assigned_to,
        generation,
        topology: topo_name,
        args,
        task_slots,
        peers,
        recovery,
        ckpt_interval_us,
        tick_interval_us,
        metrics_interval_us,
        stream_count,
        batch_size,
        credit_window,
        trace_sample_bits,
        restores,
    } = assign
    else {
        return Err(Error::Runtime(format!(
            "expected assign, got {}",
            assign.kind()
        )));
    };
    if assigned_to != idx {
        return Err(Error::Runtime(format!(
            "assignment for worker {assigned_to} delivered to worker {idx}"
        )));
    }
    // The checkpoint store is a process away: inputs are not logged.
    let policy = recovery_from_byte(recovery)
        .map(|mode| Policy::of(mode, false))
        .ok_or_else(|| Error::Runtime("unknown recovery mode".into()))?;
    let ckpt_interval_s = ckpt_interval_us.max(1) as f64 / 1e6;
    let topology = registry.build(&topo_name, &args)?;
    let intern = InternTable::new(&topology);
    let n_tasks = topology.task_count();
    if n_tasks != task_slots.len() || intern.len() != stream_count as usize {
        return Err(Error::Runtime(format!(
            "topology fingerprint mismatch for `{topo_name}`: worker built \
             {n_tasks} tasks / {} streams, coordinator has {} / {stream_count}",
            intern.len(),
            task_slots.len()
        )));
    }

    let mut tasks: Vec<Option<Box<TaskState>>> = (0..n_tasks).map(|_| None).collect();
    let n_slots = (task_slots.iter().filter(|&&s| s != COORDINATOR_SLOT))
        .chain(peers.iter().map(|p| &p.slot))
        .fold(idx, |max, &s| max.max(s)) as usize
        + 1;
    let mut peer_links: Vec<Peer> = (0..n_slots).map(|_| Peer::default()).collect();
    let ledger = CreditLedger::new(n_tasks);
    for (task, &slot) in task_slots.iter().enumerate() {
        if slot == COORDINATOR_SLOT {
            continue;
        }
        if slot != idx {
            peer_links[slot as usize].tasks.push(task);
            ledger.set_window(task, credit_window);
            continue;
        }
        let comp_id = topology.component_of_task(TaskId(task));
        let comp = topology.component(comp_id);
        let ComponentKind::Bolt(factory) = &comp.kind else {
            return Err(Error::Runtime(format!(
                "spout task t{task} assigned to a worker"
            )));
        };
        let ctx = TopologyContext {
            component: comp.name.clone(),
            task_index: task - comp.base_task.0,
            parallelism: comp.parallelism,
        };
        // Edge ids distinct per task and process incarnation.
        let edge_seed =
            u64::from(std::process::id()) << 32 | (generation & 0xffff) << 16 | task as u64;
        let fan = FanOut::new(&topology, comp, ctx.task_index, edge_seed);
        let checkpoints = Some((policy, ckpt_interval_s));
        let now_s = t0.elapsed().as_secs_f64();
        tasks[task] = Some(Box::new(TaskState {
            stream_base: intern.base_of(comp_id.0),
            task: BoltTask::new(factory(), &ctx, fan, checkpoints, now_s),
        }));
    }

    // Local telemetry: hop spans are recorded for the trees the sample
    // rate selects — the same per-root decision the coordinator makes —
    // into per-task ring buffers drained by every `SpanBatch` push; the
    // local registry ships counter deltas on the same cadence.
    let span_meta: Vec<(String, usize)> = (0..n_tasks)
        .map(|t| {
            let comp = topology.component(topology.component_of_task(TaskId(t)));
            (comp.name.clone(), idx as usize)
        })
        .collect();
    let registry = Registry::new();
    let (tx, rx) = mpsc::channel();
    let next_link = Arc::new(AtomicU64::new(COORDINATOR_LINK + 1));
    let (accept_tx, links) = (tx.clone(), Arc::clone(&next_link));
    let micros = |us: u64| (us > 0).then(|| Duration::from_micros(us));
    let mut w = Worker {
        idx,
        t0,
        endpoint: my_endpoint.to_env(),
        tick_interval: micros(tick_interval_us),
        push_interval: micros(metrics_interval_us),
        batch_size: batch_size.max(1) as usize,
        intern,
        dynamic: dynamic_handles(&topology),
        task_slot: task_slots,
        tasks,
        ledger,
        coord,
        coord_stats,
        peers: peer_links,
        next_link,
        tx,
        local: VecDeque::new(),
        acks: Vec::new(),
        grants: Vec::new(),
        now_s: 0.0,
        executed: 0,
        sent: 0,
        batch_seq: 0,
        tracer: Tracer::new(f64::from_bits(trace_sample_bits), n_tasks + 1, span_meta),
        metrics: WorkerMetrics::new(&registry),
        registry,
        last_pushed: HashMap::new(),
    };
    // State first: the announced restores are applied here, off the socket,
    // before any other link exists.  A survivor's first batch on a freshly
    // dialed link could otherwise overtake a snapshot still in transit, be
    // applied to fresh state and then be overwritten by the restore.
    for _ in 0..restores {
        let Some(frame) = reader.read_frame()? else {
            return Err(Error::Runtime("timed out waiting for state".into()));
        };
        let at = Instant::now();
        w.handle(Input::Frame {
            link: COORDINATOR_LINK,
            frame,
            at,
        })?;
    }
    let _ = reader.set_read_timeout(None);
    spawn_reader(reader, COORDINATOR_LINK, &w.tx)?;
    spawn_thread("dist-accept".into(), move || {
        accept_loop(listener, links, accept_tx)
    })?;
    for peer in &peers {
        w.dial(peer);
    }

    let served = std::panic::catch_unwind(AssertUnwindSafe(|| w.serve(&rx)));
    match served {
        Ok(Ok(())) => {
            for ts in w.tasks.iter_mut().flatten() {
                ts.task.cleanup();
            }
            Ok(())
        }
        Ok(Err(e)) => {
            emit_last_words(&mut w.coord, idx, classify_error(&e), &e.to_string());
            Err(e)
        }
        Err(payload) => {
            let detail = panic_detail(payload.as_ref());
            emit_last_words(&mut w.coord, idx, "panic", &detail);
            Err(Error::Runtime(format!("worker panicked: {detail}")))
        }
    }
}

/// Cached handles of the hot-path counters in the worker's label-free
/// local registry.  The coordinator re-registers everything pushed from it
/// under `worker`/`generation` labels, so names stay collision-free with
/// the coordinator's own families.
struct WorkerMetrics {
    executed: Counter,
    emitted: Counter,
    batches: Counter,
    checkpoints: Counter,
}

impl WorkerMetrics {
    fn new(reg: &Registry) -> Self {
        WorkerMetrics {
            executed: reg.counter("dsdps_worker_executed_total", &[]),
            emitted: reg.counter("dsdps_worker_emitted_total", &[]),
            batches: reg.counter("dsdps_worker_batches_total", &[]),
            checkpoints: reg.counter("dsdps_worker_checkpoints_total", &[]),
        }
    }
}

impl Worker {
    /// Drains the local tracer into a `SpanBatch` and the local registry
    /// plus every link's transport counters into a `MetricsPush` (counters
    /// as deltas since the last push, gauges as current values).  Skips
    /// empty frames entirely.
    fn push_telemetry(&mut self) -> Result<()> {
        let (spans, dropped) = self.tracer.drain();
        if !spans.is_empty() || dropped > 0 {
            let spans = spans
                .into_iter()
                .map(|s| WireSpan {
                    kind: span_kind_to_byte(s.kind),
                    root: s.root,
                    task: s.task as u32,
                    start_us: s.start_us,
                    queue_wait_us: s.queue_wait_us,
                    exec_us: s.exec_us,
                    batch_id: s.batch_id,
                })
                .collect();
            self.coord.send(&Frame::SpanBatch {
                worker: self.idx,
                dropped,
                spans,
            })?;
        }
        // This worker's own ledger, under the family names the coordinator
        // exports for its links.
        let parked: usize = self.peers.iter().map(|p| p.out.parked()).sum();
        let gauge = |name: &str, v: f64| self.registry.gauge(name, &[]).set(v);
        gauge(
            "dsdps_worker_uptime_seconds",
            self.t0.elapsed().as_secs_f64(),
        );
        gauge("dsdps_dist_overflow_parked", parked as f64);
        let outstanding = self.in_flight() - parked as u64;
        gauge("dsdps_dist_outstanding_window", outstanding as f64);

        // Counters: the registry's, the coordinator link's (`worker_conn`
        // families) and each peer link's (the coordinator's own
        // `dist_conn` families, under a `peer` label).
        let mut counters: Vec<(String, Option<u32>, u64)> = Vec::new();
        let mut samples = Vec::new();
        for (family, _, value) in self.registry.export_samples() {
            match value {
                SampleValue::Counter(v) => counters.push((family, None, v)),
                SampleValue::Gauge(g) => samples.push(WireMetric {
                    kind: 1,
                    name: family,
                    peer: None,
                    value: g.to_bits(),
                }),
            }
        }
        for (what, v) in self.coord_stats.counters() {
            counters.push((format!("dsdps_worker_conn_{what}_total"), None, v));
        }
        for (slot, peer) in self.peers.iter().enumerate() {
            for (what, v) in peer.stats.iter().flat_map(|s| s.counters()) {
                let name = format!("dsdps_dist_conn_{what}_total");
                counters.push((name, Some(slot as u32), v));
            }
        }
        for (name, peer, v) in counters {
            let prev = self.last_pushed.insert((name.clone(), peer), v);
            // A respawned peer's link restarts from zero.
            let delta = v.checked_sub(prev.unwrap_or(0)).unwrap_or(v);
            // First push includes zero deltas so the coordinator's
            // endpoint exposes the full family set immediately.
            if delta > 0 || prev.is_none() {
                samples.push(WireMetric {
                    kind: 0,
                    name,
                    peer,
                    value: delta,
                });
            }
        }
        if !samples.is_empty() {
            self.coord.send(&Frame::MetricsPush {
                worker: self.idx,
                samples,
            })?;
        }
        Ok(())
    }
}

/// Maps a serve-loop error to the machine-readable last-words cause.
fn classify_error(e: &Error) -> &'static str {
    let text = e.to_string();
    if text.contains("decode frame") || text.contains("frame length") || text.contains("oversized")
    {
        "decode_error"
    } else {
        "io_error"
    }
}

/// Extracts a printable panic payload (`&str` / `String`, else a stub).
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Structured last words while dying: one JSONL line on stderr (the
/// supervisor's stderr pump parses it even when the socket is gone) plus a
/// best-effort [`Frame::LastWords`] over the connection.
fn emit_last_words(writer: &mut BatchWriter, worker: u32, cause: &str, detail: &str) {
    let line = LastWordsLine {
        dsdps_last_words: true,
        worker,
        cause: cause.to_owned(),
        detail: detail.to_owned(),
    };
    if let Ok(json) = serde_json::to_string(&line) {
        eprintln!("{json}");
    }
    let _ = writer.send(&Frame::LastWords {
        worker,
        cause: cause.to_owned(),
        detail: detail.to_owned(),
    });
}
