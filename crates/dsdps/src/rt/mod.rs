//! Threaded runtime: executes a topology on real OS threads.
//!
//! Every task runs on its own thread; tuples move through bounded crossbeam
//! channels (bounded capacity = natural backpressure).  The runtime exposes
//! the same observation surface as the simulator — periodic multilevel
//! [`MetricsSnapshot`]s — and the same actuation surface (the topology's
//! dynamic-grouping handles keep working because every backend's route
//! table shares the same
//! [`DynamicGroupingHandle`](crate::grouping::dynamic::DynamicGroupingHandle)s).
//!
//! Which task gets a tuple, what a completed tree means for its spout and
//! how task rows roll up into worker rows are the crate's shared values;
//! what lives here is what this runtime's loops own — threads, channels,
//! batching, clocks, supervision, faults (DESIGN.md §4.1).
//!
//! Tuples travel in **batches**: each task buffers output per destination and
//! flushes when a buffer reaches [`RtConfig::batch_size`] or its oldest entry
//! has waited [`RtConfig::linger`].  Channel capacity counts batches, so a
//! full downstream queue still blocks the producer (flush-on-full with the
//! usual shutdown-checked timeout).  With the default `batch_size = 1` every
//! tuple flushes inline and the runtime behaves exactly as if batching did
//! not exist; a thread's queued acker ops are applied before any batch
//! leaves it, so a spout's `Track` always precedes its deliveries — the one
//! order the XOR acker needs (a tree's records commute; DESIGN.md §5).
//!
//! Overload meets the bounded channels: a task's queue holds at most
//! `EngineConfig::queue_capacity` batches, and a producer facing a full
//! queue blocks, heartbeating.  The [`BackpressureHandle`] exposes a spout
//! rate cap to the controller so the planner can trade throughput against
//! tail latency; every cap change is journaled.  The [`credit`] ledger
//! lives here but is `dist`'s: it bounds the data links between processes.
//!
//! The runtime is also a first-class **fault target**.  Task threads run
//! under panic isolation and supervision — a dead or hung task
//! is restarted from its component factory on the same input channel — and
//! [`submit_faulty`] injects scheduled [`RtFault`]s (worker slowdowns,
//! external load, task panics/hangs/drops) mirroring the simulator's fault
//! vocabulary on wall-clock time.  The final [`Report`] — the one run report
//! of `rt` and `dist`, built from the same registry cells on both — accounts
//! for every tracked tuple: `tracked == acked + permanently_failed +
//! in_flight` ([`Report::conservation_holds`]).
//!
//! The simulator is the substrate for the paper's experiments (deterministic
//! virtual time); this runtime exists so the same application code can run
//! for real, and is exercised by the examples and integration tests.

mod batch;
mod config;
pub mod credit;
mod fault;
mod router;
mod supervisor;
mod task;

pub use crate::checkpoint::{RecoveryMode, SnapshotKind, StateSnapshot, StatefulComponent};
pub use config::RtConfig;
pub use credit::{CreditLedger, CreditTotals};
pub use fault::{RtFault, RtFaultPlan};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, SendTimeoutError, Sender};
use parking_lot::Mutex;

use crate::acker::{ShardedAcker, TreeOutcome, ACKER_SHARDS, EXPIRE_SWEEP};
use crate::bolt_task::Policy;
use crate::checkpoint::CheckpointStore;
use crate::config::EngineConfig;
use crate::error::{Error, Result};
use crate::lifecycle::{self, TreeLifecycle};
use crate::metrics::{
    fold_workers, LatencyHistogram, MachineStats, MetricsHistory, MetricsSnapshot, SnapshotHook,
    TaskFlow, TaskStats, TopologyStats,
};
use crate::report::{self, Report, RunCounters};
use crate::scheduler::{even_placement, MachineId, Placement, WorkerId};
use crate::spawn_thread;
use crate::stop::Stop;
use crate::telemetry::{
    Counter, Gauge, Journal, JournalEvent, MetricsServer, Registry, Summary, Tracer,
};
use crate::topology::{TaskId, Topology};

use batch::Batch;
use fault::FaultInjector;
use supervisor::{Slot, Supervision, TaskSpec};
use task::{deliver_outcomes, TaskAtomics};

/// The run's counters and last-value gauges, as cells of the live
/// [`Registry`]: the data plane writes them, the report and the Prometheus
/// endpoint read them.
pub(crate) struct Counters {
    /// What the report reads of every run: spout emissions, tree
    /// lifecycles, the checkpoint store.
    pub(crate) run: RunCounters,
    /// Tuples discarded by an injected drop fault.
    pub(crate) dropped: Counter,
    /// Panics caught in task threads / supervisor restarts, over all tasks.
    pub(crate) task_panics: Counter,
    pub(crate) task_restarts: Counter,
    /// Duration of the most recent checkpoint / latency of the most recent
    /// state restore, µs.
    pub(crate) checkpoint_last_us: Gauge,
    pub(crate) restore_last_us: Gauge,
}

impl Counters {
    fn new(registry: &Registry) -> Self {
        let c = |name: &str| registry.counter(&format!("dsdps_{name}_total"), &[]);
        Counters {
            run: RunCounters::new(registry),
            dropped: c("dropped"),
            task_panics: c("task_panics"),
            task_restarts: c("task_restarts"),
            checkpoint_last_us: registry.gauge("dsdps_checkpoint_last_duration_us", &[]),
            restore_last_us: registry.gauge("dsdps_restore_last_latency_us", &[]),
        }
    }
}

/// Shared state between task threads, the supervisor and the metrics thread.
pub(crate) struct Shared {
    /// The lock-striped acker ([`ACKER_SHARDS`] stripes, keyed by
    /// `root % N`).
    pub(crate) ackers: ShardedAcker,
    /// Set once, by shutdown; every timed wait of the run parks on it.
    pub(crate) stop: Stop,
    pub(crate) task_stats: Vec<TaskAtomics>,
    /// Batched tuple input of each task; capacity counts batches.
    inputs: Vec<Sender<Batch>>,
    /// Feedback input of each spout task (`None` for bolt tasks): completed
    /// trees, batched per drain so completions amortize like data tuples.
    pub(crate) feedback: Vec<Option<Sender<Vec<TreeOutcome>>>>,
    /// Which worker (and machine) hosts each task.
    pub(crate) placement: Placement,
    pub(crate) counters: Counters,
    /// Tree lifecycle per task (only spout slots are used); here, not in
    /// the spout thread, so it survives supervisor restarts.
    pub(crate) spouts: Vec<Mutex<TreeLifecycle>>,
    pub(crate) start: Instant,
    pub(crate) next_root: AtomicU64,
    /// Scheduled faults, if any.
    pub(crate) fault: Option<FaultInjector>,
    /// Engine and runtime tuning.
    pub(crate) engine: EngineConfig,
    pub(crate) rt: RtConfig,
    /// Sampled tuple-tree tracer ([`RtConfig::trace_sample_rate`]); holds
    /// the per-task span buffers (one per task plus a trailing one for the
    /// metrics/timeout thread).  Disabled tracers cost one branch per batch
    /// on the data plane.
    pub(crate) tracer: Tracer,
    /// Control-plane event journal (restarts, replays, fault injections;
    /// the controller appends routing decisions through
    /// [`RunningTopology::journal`]).
    pub(crate) journal: Arc<Journal>,
    /// Global spout rate cap in tuples/s, stored as `f64` bits
    /// (`INFINITY` = uncapped).  Written by a [`BackpressureHandle`] (the
    /// controller's rate actuator); read by every spout's token bucket.
    pub(crate) rate_cap_bits: AtomicU64,
    /// Per-task batch queue-wait accumulators: `(cumulative, interval)`
    /// histograms in µs.  The consumer records one sample per received
    /// batch; the metrics thread swaps out the interval histogram each tick
    /// to compute the steady-state p99.
    pub(crate) queue_wait: Vec<Mutex<(LatencyHistogram, LatencyHistogram)>>,
    /// Queue-wait p99 (µs, `f64` bits) over the last *completed* metrics
    /// interval — the steady-state readout, free of startup transients.
    pub(crate) queue_wait_last_p99_bits: AtomicU64,
    /// Checkpoint store keyed by `(task, generation)`; `None` when
    /// [`RtConfig::checkpoints`] is off.  Lives here (not in task threads)
    /// so snapshots survive supervisor restarts.
    pub(crate) checkpoints: Option<CheckpointStore>,
}

impl Shared {
    /// The recovery policy and snapshot interval (seconds) of this run's
    /// stateful bolts, `None` with checkpoints off.  The store shares their
    /// address space, so applied inputs can be logged.
    pub(crate) fn recovery(&self) -> Option<(Policy, f64)> {
        let interval_s = self.rt.checkpoint_interval.as_secs_f64();
        (self.rt.checkpoints).then(|| (Policy::of(self.rt.recovery_mode, true), interval_s))
    }

    pub(crate) fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Runtime clock in µs, the span timestamp base.
    pub(crate) fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Records a liveness heartbeat for `task`.
    pub(crate) fn beat(&self, task: usize) {
        self.task_stats[task]
            .heartbeat_ns
            .store(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// True when the thread of `generation` no longer owns the task slot.
    pub(crate) fn superseded(&self, task: usize, generation: u64) -> bool {
        self.task_stats[task].generation.load(Ordering::SeqCst) != generation
    }

    /// Current spout rate cap, tuples/s (`INFINITY` = uncapped).
    pub(crate) fn rate_cap(&self) -> f64 {
        f64::from_bits(self.rate_cap_bits.load(Ordering::Relaxed))
    }

    /// Records one batch queue-wait sample for `task` (µs).  One uncontended
    /// lock per *batch* — the consumer writes, the metrics thread drains.
    pub(crate) fn record_queue_wait(&self, task: usize, wait_us: u64) {
        let mut slot = self.queue_wait[task].lock();
        slot.0.record(wait_us as f64);
        slot.1.record(wait_us as f64);
    }

    /// Queue-wait p99 over the last completed metrics interval, µs.
    pub(crate) fn queue_wait_last_p99_us(&self) -> f64 {
        f64::from_bits(self.queue_wait_last_p99_bits.load(Ordering::Relaxed))
    }

    /// Merges every task's cumulative queue-wait histogram (read path only).
    pub(crate) fn merged_queue_wait(&self) -> LatencyHistogram {
        let mut hist = LatencyHistogram::new();
        for slot in &self.queue_wait {
            hist.merge(&slot.lock().0);
        }
        hist
    }
}

/// Live backpressure/throttle surface of a [`RunningTopology`] — the
/// actuation handle the controller (or a test) uses to trade throughput
/// against tail latency while the topology runs.
///
/// Cheap to clone; all methods are lock-free reads or a journaled atomic
/// write, safe to call from any thread.
#[derive(Clone)]
pub struct BackpressureHandle {
    shared: Arc<Shared>,
}

impl BackpressureHandle {
    /// Current spout rate cap, tuples/s (`None` = uncapped).
    pub fn rate_cap(&self) -> Option<f64> {
        let cap = self.shared.rate_cap();
        cap.is_finite().then_some(cap)
    }

    /// Sets (or clears, with `None`) the global spout rate cap.  The change
    /// is journaled as a [`JournalEvent::ThrottleChanged`] with the given
    /// reason (`"controller"` for planner actuation, `"manual"` otherwise).
    pub fn set_rate_cap(&self, cap: Option<f64>, reason: &str) {
        let bits = cap.unwrap_or(f64::INFINITY).to_bits();
        self.shared.rate_cap_bits.store(bits, Ordering::Relaxed);
        self.shared.journal.append(JournalEvent::ThrottleChanged {
            time_s: self.shared.now_s(),
            rate_cap: cap.filter(|c| c.is_finite()),
            reason: reason.to_string(),
        });
    }

    /// Batch queue-wait p99 over the last completed metrics interval, µs.
    pub fn queue_wait_last_p99_us(&self) -> f64 {
        self.shared.queue_wait_last_p99_us()
    }
}

/// A topology running on threads.  Dropping without calling
/// [`shutdown`](Self::shutdown) also stops it.
pub struct RunningTopology {
    shared: Arc<Shared>,
    supervision: Arc<Supervision>,
    supervisor_thread: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<MetricsHistory>>,
    metrics_server: Option<MetricsServer>,
}

impl RunningTopology {
    /// Total tuple trees acked so far.
    pub fn acked(&self) -> u64 {
        self.shared.counters.run.trees.acked.get()
    }

    /// Messages permanently failed so far (replay budget exhausted, or every
    /// failure when replay is off).
    pub fn permanently_failed(&self) -> u64 {
        self.shared.counters.run.trees.permanently_failed.get()
    }

    /// Ack records the acker has been handed so far (one per executed
    /// anchored tuple); for tests.
    #[doc(hidden)]
    pub fn ack_records_applied(&self) -> u64 {
        self.shared.ackers.records_applied()
    }

    /// The run's control-plane event journal.  The runtime appends restart,
    /// replay and fault-injection events; attach this to a controller to
    /// journal its routing decisions too.
    pub fn journal(&self) -> Arc<Journal> {
        Arc::clone(&self.shared.journal)
    }

    /// Address the Prometheus endpoint is actually serving on, when
    /// [`RtConfig::metrics_addr`] was set (resolves port 0).
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_server.as_ref().map(|s| s.local_addr())
    }

    /// The run's backpressure/throttle actuation handle (rate caps,
    /// steady-state queue wait).
    pub fn backpressure(&self) -> BackpressureHandle {
        BackpressureHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Signals stop, joins every thread in drain order (see
    /// [`shutdown`](Self::shutdown)), and collects any panics that escaped
    /// the per-thread guard.
    fn join_all(&mut self) {
        self.shared.stop.set();
        if let Some(server) = self.metrics_server.take() {
            server.shutdown();
        }
        if let Some(t) = self.supervisor_thread.take() {
            let _ = t.join();
        }
        let mut slots = self.supervision.slots.lock();
        let (spouts, bolts): (Vec<_>, Vec<_>) =
            slots.iter_mut().partition(|slot| slot.spec.input.is_none());
        for slot in spouts.into_iter().chain(bolts) {
            if let (Some(h), Some(_)) = (&slot.handle, &slot.spec.input) {
                let tid = slot.spec.tid;
                self.shared.task_stats[tid]
                    .inputs_closed
                    .store(true, Ordering::SeqCst);
                send_end_of_input(&self.shared.inputs[tid], h);
            }
            if let Some(h) = slot.handle.take() {
                if let Err(payload) = h.join() {
                    // A panic escaped the catch_unwind guard (e.g. in the
                    // guard itself).  Record it rather than swallowing it.
                    let s = &self.shared.task_stats[slot.spec.tid];
                    s.panics.fetch_add(1, Ordering::SeqCst);
                    self.shared.counters.task_panics.inc();
                    *s.last_panic.lock() = Some(supervisor::panic_message(payload.as_ref()));
                }
            }
            // Superseded (hung) threads exit on `stop` when they can;
            // dropping the handles detaches any that are truly wedged so
            // shutdown cannot block forever.
            slot.abandoned.clear();
        }
    }

    /// Resolves the feedback still queued at stop (the spouts no longer read
    /// it) through the tree lifecycles, so the final counts include trees
    /// that completed after their spout's last iteration.  Runs once every
    /// thread that could deliver an outcome has been joined.
    fn reconcile(&self) {
        let now_s = self.shared.now_s();
        for slot in self.supervision.slots.lock().iter() {
            let Some(rx) = slot.spec.ack_input.as_ref() else {
                continue;
            };
            let mut trees = self.shared.spouts[slot.spec.tid].lock();
            while let Ok(batch) = rx.try_recv() {
                for outcome in &batch {
                    trees.on_outcome(outcome, now_s);
                }
            }
        }
    }

    fn report(&self) -> Report {
        let shared = &self.shared;
        let panic_messages = shared
            .task_stats
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.last_panic
                    .lock()
                    .clone()
                    .map(|m| format!("task {i}: {m}"))
            })
            .collect();
        let queue_wait_hist = shared.merged_queue_wait();
        let final_cap = shared.rate_cap();
        let c = &shared.counters;
        Report {
            task_panics: c.task_panics.get(),
            task_restarts: c.task_restarts.get(),
            panic_messages,
            dropped: c.dropped.get(),
            queue_wait_p50_us: queue_wait_hist.quantile(0.50).unwrap_or(0.0),
            queue_wait_p99_us: queue_wait_hist.quantile(0.99).unwrap_or(0.0),
            queue_wait_last_p99_us: shared.queue_wait_last_p99_us(),
            rate_cap: final_cap.is_finite().then_some(final_cap),
            ..report::shared_fields(
                &c.run,
                &shared.spouts,
                &shared.journal,
                shared.tracer.drain(),
                shared.checkpoints.as_ref(),
                shared.task_stats.len(),
                shared.now_s(),
            )
        }
    }

    /// Stops all threads and returns the collected metrics history plus a
    /// final summary.
    ///
    /// Setting the run's stop signal wakes every waiting thread at once.
    /// Spouts are joined first, then bolts in declaration order, which is a
    /// topological order: a bolt subscribes only to components declared
    /// before it.  Before its join each bolt task is sent an end-of-input
    /// marker, queued behind everything its already-exited producers
    /// flushed, so the task exits as soon as it has consumed their output.
    /// A bolt never exits while a producer may still send to it; one whose
    /// marker went astray (a superseded thread took it) exits on its next
    /// quiet receive timeout.
    pub fn shutdown(mut self) -> (MetricsHistory, Report) {
        self.join_all();
        let history = self
            .metrics_thread
            .take()
            .map(|t| t.join().unwrap_or_default())
            .unwrap_or_default();
        self.reconcile();
        let report = self.report();
        (history, report)
    }

    /// Convenience: run for `duration` then shut down.
    pub fn run_for(self, duration: Duration) -> (MetricsHistory, Report) {
        std::thread::sleep(duration);
        self.shutdown()
    }
}

impl Drop for RunningTopology {
    fn drop(&mut self) {
        self.join_all();
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
    }
}

/// Queues the end-of-input marker on a bolt task's input.  A full queue
/// drains while the task runs; once the task has finished the marker is
/// given up.
fn send_end_of_input(input: &Sender<Batch>, task: &JoinHandle<()>) {
    let mut marker = Batch {
        items: Vec::new(),
        sent_at_us: 0,
        remote: false,
    };
    while let Err(SendTimeoutError::Timeout(back)) =
        input.send_timeout(marker, Duration::from_millis(1))
    {
        if task.is_finished() {
            return;
        }
        marker = back;
    }
}

/// The report of a threaded run: the one [`Report`] both live backends
/// return.
pub type ThreadedReport = Report;

/// Starts `topology` on OS threads with the given runtime tuning
/// (`RtConfig::default()` is unbatched).
pub fn submit_with(
    topology: Topology,
    config: EngineConfig,
    rt_config: RtConfig,
) -> Result<RunningTopology> {
    submit_faulty(topology, config, rt_config, RtFaultPlan::new(), None)
}

#[doc(hidden)]
pub use crate::metrics::SnapshotHook as MetricsHook;

/// The registry cells derived from a metrics snapshot (the data plane's own
/// counters are [`Counters`], written where the work happens).  Every handle
/// is registered once at submit; the metrics thread pushes fresh values each
/// interval, so a Prometheus scrape reads registry cells only and never
/// touches the data plane.
struct RegistryMirror {
    in_flight: Gauge,
    uptime: Gauge,
    throughput: Gauge,
    throttle_rate_cap: Gauge,
    queue_wait_p99: Gauge,
    complete_latency: Summary,
    task_executed: Vec<Counter>,
    task_queue_len: Vec<Gauge>,
    task_capacity: Vec<Gauge>,
    worker_cpu: Vec<Gauge>,
    worker_lat: Vec<Gauge>,
}

impl RegistryMirror {
    fn new(registry: &Registry, task_names: &[(String, WorkerId)], num_workers: usize) -> Self {
        let per_task = |family: &str| -> Vec<Counter> {
            task_names
                .iter()
                .enumerate()
                .map(|(i, (name, _))| {
                    registry.counter(family, &[("task", &i.to_string()), ("component", name)])
                })
                .collect()
        };
        let per_task_gauge = |family: &str| -> Vec<Gauge> {
            task_names
                .iter()
                .enumerate()
                .map(|(i, (name, _))| {
                    registry.gauge(family, &[("task", &i.to_string()), ("component", name)])
                })
                .collect()
        };
        let per_worker_gauge = |family: &str| -> Vec<Gauge> {
            (0..num_workers)
                .map(|w| registry.gauge(family, &[("worker", &w.to_string())]))
                .collect()
        };
        RegistryMirror {
            in_flight: registry.gauge("dsdps_in_flight", &[]),
            uptime: registry.gauge("dsdps_uptime_seconds", &[]),
            throughput: registry.gauge("dsdps_throughput_tuples_per_s", &[]),
            // 0 = uncapped (Prometheus text can't carry +Inf cleanly).
            throttle_rate_cap: registry.gauge("dsdps_throttle_rate_cap_tuples_per_s", &[]),
            queue_wait_p99: registry.gauge("dsdps_queue_wait_p99_us", &[]),
            complete_latency: registry.summary("dsdps_complete_latency_us", &[]),
            task_executed: per_task("dsdps_task_executed_total"),
            task_queue_len: per_task_gauge("dsdps_task_queue_len"),
            task_capacity: per_task_gauge("dsdps_task_capacity"),
            worker_cpu: per_worker_gauge("dsdps_worker_cpu_cores"),
            worker_lat: per_worker_gauge("dsdps_worker_avg_latency_us"),
        }
    }

    fn update(&self, shared: &Shared, snap: &MetricsSnapshot, hist: &LatencyHistogram) {
        let trees = &shared.counters.run.trees;
        let resolved = trees.acked.get() + trees.permanently_failed.get();
        self.in_flight
            .set(trees.tracked.get().saturating_sub(resolved) as f64);
        self.uptime.set(snap.time_s);
        self.throughput.set(snap.topology.throughput);
        let cap = shared.rate_cap();
        self.throttle_rate_cap
            .set(if cap.is_finite() { cap } else { 0.0 });
        self.queue_wait_p99.set(shared.queue_wait_last_p99_us());
        self.complete_latency.replace(hist.clone());
        for (i, t) in snap.tasks.iter().enumerate() {
            self.task_executed[i].set(shared.task_stats[i].executed.load(Ordering::Relaxed));
            self.task_queue_len[i].set(t.queue_len as f64);
            self.task_capacity[i].set(t.capacity);
        }
        for w in &snap.workers {
            self.worker_cpu[w.worker.0].set(w.cpu_cores_used);
            self.worker_lat[w.worker.0].set(w.avg_execute_latency_us);
        }
    }
}

/// [`submit_with`] with a scheduled fault plan injected into the run (an
/// empty plan injects nothing) and a control hook invoked on every metrics
/// snapshot.
pub fn submit_faulty(
    topology: Topology,
    config: EngineConfig,
    rt_config: RtConfig,
    plan: RtFaultPlan,
    mut hook: Option<SnapshotHook>,
) -> Result<RunningTopology> {
    config.validate()?;
    rt_config.validate()?;
    let placement: Placement = even_placement(&topology, &config)?;
    let n_tasks = topology.task_count();
    let journal = Arc::new(Journal::new());
    if rt_config.checkpoints {
        journal.append(JournalEvent::RecoveryMode {
            time_s: 0.0,
            mode: rt_config.recovery_mode.as_str().to_string(),
        });
    }
    let injector = if plan.is_empty() {
        None
    } else {
        plan.validate(n_tasks, placement.num_workers(), config.num_machines)?;
        for fault in &plan.faults {
            journal.append(JournalEvent::FaultPlanned {
                time_s: 0.0,
                description: format!("{fault:?}"),
            });
        }
        Some(FaultInjector::new(plan, &placement, n_tasks))
    };
    let topology = Arc::new(topology);

    let task_names: Vec<(String, WorkerId)> = {
        let mut v = Vec::with_capacity(n_tasks);
        for component in topology.components() {
            for task in component.tasks() {
                v.push((component.name.clone(), placement.worker_of(task)));
            }
        }
        v
    };
    let tracer = Tracer::new(
        rt_config.trace_sample_rate,
        n_tasks + 1,
        task_names
            .iter()
            .map(|(name, worker)| (name.clone(), worker.0))
            .collect(),
    );

    // Channels: batched tuple input per task, batched ack feedback per spout
    // task.  Bounded capacity counts batches.  The receivers stay clonable
    // so the supervisor can re-wire a restarted task to its existing queue.
    let (inputs, receivers): (Vec<Sender<Batch>>, Vec<Receiver<Batch>>) = (0..n_tasks)
        .map(|_| bounded::<Batch>(config.queue_capacity))
        .unzip();
    let mut ack_senders: Vec<Option<Sender<Vec<TreeOutcome>>>> = vec![None; n_tasks];
    let mut ack_receivers: Vec<Option<Receiver<Vec<TreeOutcome>>>> =
        (0..n_tasks).map(|_| None).collect();
    for component in topology.components() {
        if component.is_spout() {
            for task in component.tasks() {
                let (tx, rx) = unbounded();
                ack_senders[task.0] = Some(tx);
                ack_receivers[task.0] = Some(rx);
            }
        }
    }

    // Live metrics registry: the data plane's counters are its cells.
    let registry = Arc::new(Registry::new());
    let counters = Counters::new(&registry);
    let checkpoints = (rt_config.checkpoints)
        .then(|| CheckpointStore::new(n_tasks, Arc::clone(&journal), counters.run.store.clone()));
    let shared = Arc::new(Shared {
        ackers: ShardedAcker::new(ACKER_SHARDS),
        stop: Stop::default(),
        task_stats: (0..n_tasks).map(|_| TaskAtomics::default()).collect(),
        inputs,
        feedback: ack_senders,
        placement,
        spouts: (0..n_tasks)
            .map(|_| {
                let trees = counters.run.trees.clone();
                Mutex::new(TreeLifecycle::new(&rt_config, trees, Arc::clone(&journal)))
            })
            .collect(),
        counters,
        start: Instant::now(),
        next_root: AtomicU64::new(0),
        fault: injector,
        engine: config.clone(),
        rt: rt_config.clone(),
        tracer,
        journal: Arc::clone(&journal),
        // Uncapped until a caller sets one, so stock runs never see the
        // token bucket.
        rate_cap_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        queue_wait: (0..n_tasks)
            .map(|_| Mutex::new((LatencyHistogram::new(), LatencyHistogram::new())))
            .collect(),
        queue_wait_last_p99_bits: AtomicU64::new(0f64.to_bits()),
        checkpoints,
    });

    // Optional Prometheus endpoint.  Bound before any task thread spawns so
    // a bind failure aborts the submit cleanly.
    let mirror = RegistryMirror::new(&registry, &task_names, shared.placement.num_workers());
    let metrics_server = match rt_config.metrics_addr {
        Some(addr) => Some(
            MetricsServer::bind(addr, Arc::clone(&registry))
                .map_err(|e| Error::Config(format!("metrics_addr {addr} bind failed: {e}")))?,
        ),
        None => None,
    };

    // One supervised slot per task; the spec re-spawns the task on restart.
    let supervision = Arc::new(Supervision::default());
    {
        let mut slots = supervision.slots.lock();
        for component in topology.components() {
            for (task_index, task) in component.tasks().enumerate() {
                let tid = task.0;
                let spec = TaskSpec {
                    topology: topology.clone(),
                    component_id: component.id,
                    task_index,
                    tid,
                    input: if component.is_spout() {
                        None
                    } else {
                        Some(receivers[tid].clone())
                    },
                    ack_input: ack_receivers[tid].clone(),
                };
                shared.task_stats[tid].alive.store(true, Ordering::SeqCst);
                shared.beat(tid);
                let handle = spec.spawn(&shared, 0);
                slots.push(Slot {
                    spec,
                    handle: Some(handle),
                    generation: 0,
                    abandoned: Vec::new(),
                });
            }
        }
    }

    let supervisor_thread = {
        let shared = shared.clone();
        let sup = supervision.clone();
        Some(
            spawn_thread("rt-supervisor".into(), move || {
                supervisor::run_supervisor(shared, sup)
            })
            .expect("spawn supervisor thread"),
        )
    };

    // Metrics/timeout thread.
    #[derive(Default, Clone, Copy)]
    struct Prev {
        executed: u64,
        emitted: u64,
        failed: u64,
        busy: u64,
        batches: u64,
        lingers: u64,
        received: u64,
        sent_remote: u64,
    }
    let metrics_thread = {
        let shared = shared.clone();
        let handle = spawn_thread("rt-metrics".into(), move || {
            let (cfg, placement) = (&shared.engine, &shared.placement);
            let mut history = MetricsHistory::default();
            let mut prev: Vec<Prev> = vec![Prev::default(); shared.task_stats.len()];
            let mut prev_totals = (0u64, 0u64, 0u64, 0u64);
            let mut interval: u64 = 0;
            let tick = Duration::from_secs_f64(cfg.metrics_interval_s);
            while !shared.stop.wait(tick.min(EXPIRE_SWEEP)) {
                let due = shared.now_s() >= (interval + 1) as f64 * cfg.metrics_interval_s;
                // Message timeouts, on every wake.  Expiry walks every
                // shard.  Between intervals the drain skips busy shards (a
                // blocking one on every wake cost `rt_misbehave` p50): their
                // holder takes its completions home.  The interval's blocking
                // drain also scavenges completions from shards whose last
                // op-applier has already exited.
                shared.ackers.expire(shared.now_s(), cfg.message_timeout_s);
                let outcomes = if due {
                    shared.ackers.drain_outcomes_blocking()
                } else {
                    shared.ackers.drain_outcomes()
                };
                // The tracer's trailing slot belongs to this thread.
                deliver_outcomes(&shared, outcomes, shared.task_stats.len());
                if !due {
                    continue;
                }

                let interval_s = cfg.metrics_interval_s;
                let mut flows = vec![TaskFlow::default(); shared.task_stats.len()];
                let tasks: Vec<TaskStats> = shared
                    .task_stats
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let cur = Prev {
                            executed: s.executed.load(Ordering::Relaxed),
                            emitted: s.emitted.load(Ordering::Relaxed),
                            failed: s.failed.load(Ordering::Relaxed),
                            busy: s.busy_nanos.load(Ordering::Relaxed),
                            batches: s.batches_flushed.load(Ordering::Relaxed),
                            lingers: s.linger_flushes.load(Ordering::Relaxed),
                            received: s.received.load(Ordering::Relaxed),
                            sent_remote: s.sent_remote.load(Ordering::Relaxed),
                        };
                        let p = prev[i];
                        prev[i] = cur;
                        let d_exec = cur.executed - p.executed;
                        let d_busy = cur.busy - p.busy;
                        flows[i] = TaskFlow {
                            latency_sum_us: d_busy as f64 / 1000.0,
                            tuples_in: cur.received - p.received,
                            tuples_out: cur.sent_remote - p.sent_remote,
                        };
                        TaskStats {
                            task: TaskId(i),
                            component: task_names[i].0.clone(),
                            worker: task_names[i].1,
                            executed: d_exec,
                            emitted: cur.emitted - p.emitted,
                            acked: d_exec - (cur.failed - p.failed),
                            failed: cur.failed - p.failed,
                            avg_execute_latency_us: if d_exec > 0 {
                                d_busy as f64 / 1000.0 / d_exec as f64
                            } else {
                                0.0
                            },
                            queue_len: s.queue_len.load(Ordering::Relaxed),
                            capacity: d_busy as f64 / 1e9 / interval_s,
                            batches_flushed: cur.batches - p.batches,
                            linger_flushes: cur.lingers - p.lingers,
                            panics: s.panics.load(Ordering::SeqCst),
                            restarts: s.restarts.load(Ordering::SeqCst),
                            last_panic: s.last_panic.lock().clone(),
                            checkpoints_taken: s.checkpoints_taken.load(Ordering::Relaxed),
                            restores: s.restores.load(Ordering::Relaxed),
                            snapshot_bytes: s.snapshot_bytes.load(Ordering::Relaxed),
                        }
                    })
                    .collect();

                let workers = fold_workers(&tasks, &flows, placement);

                let now_s = shared.now_s();
                let ext_injector = shared.fault.as_ref().filter(|inj| inj.has_external_load());
                let machines: Vec<MachineStats> = (0..cfg.num_machines)
                    .map(|m| {
                        let mid = MachineId(m);
                        let used: f64 = workers
                            .iter()
                            .filter(|w| w.machine == mid)
                            .map(|w| w.cpu_cores_used)
                            .sum();
                        MachineStats {
                            machine: mid,
                            cpu_cores_used: used,
                            external_load_cores: ext_injector
                                .map(|inj| inj.external_load(m, now_s))
                                .unwrap_or(0.0),
                            cores: cfg.machine_cores,
                            num_workers: placement.workers_of_machine(mid).len(),
                        }
                    })
                    .collect();

                let acked = shared.counters.run.trees.acked.get();
                let failed = shared.counters.run.trees.failed.get();
                let timed_out = shared.counters.run.trees.timed_out.get();
                let emitted = shared.counters.run.spout_emitted.get();
                let (pa, pf2, pt, pe2) = prev_totals;
                prev_totals = (acked, failed, timed_out, emitted);
                let (lat_stats, lat_hist) = lifecycle::merged_latency(&shared.spouts);
                let topo_stats = TopologyStats {
                    spout_emitted: emitted - pe2,
                    acked: acked - pa,
                    failed: failed - pf2,
                    timed_out: timed_out - pt,
                    avg_complete_latency_ms: lat_stats.mean() / 1000.0,
                    p99_complete_latency_ms: lat_hist.quantile(0.99).unwrap_or(0.0) / 1000.0,
                    throughput: (acked - pa) as f64 / interval_s,
                };

                // Steady-state queue wait: swap out every task's interval
                // histogram and fold them into this tick's distribution.
                let mut qw_interval = LatencyHistogram::new();
                for slot in &shared.queue_wait {
                    let taken = std::mem::take(&mut slot.lock().1);
                    qw_interval.merge(&taken);
                }
                let qw_p99_us = qw_interval.quantile(0.99).unwrap_or(0.0);
                shared
                    .queue_wait_last_p99_bits
                    .store(qw_p99_us.to_bits(), Ordering::Relaxed);

                let snapshot = MetricsSnapshot {
                    interval,
                    time_s: shared.now_s(),
                    interval_s,
                    tasks,
                    workers,
                    machines,
                    topology: topo_stats,
                };
                mirror.update(&shared, &snapshot, &lat_hist);
                if let Some(hook) = hook.as_mut() {
                    hook(&snapshot);
                }
                history.push_journaled(snapshot, &shared.journal);
                interval += 1;
            }
            history
        });
        Some(handle.expect("spawn metrics thread"))
    };

    Ok(RunningTopology {
        shared,
        supervision,
        supervisor_thread,
        metrics_thread,
        metrics_server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Bolt, BoltOutput, Spout, SpoutOutput, TopologyContext};
    use crate::topology::TopologyBuilder;
    use crate::tuple::{Tuple, Value};
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

    struct FiniteSpout {
        left: u64,
        next_id: u64,
    }

    impl Spout for FiniteSpout {
        fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
            if self.left == 0 {
                return false;
            }
            self.left -= 1;
            self.next_id += 1;
            out.emit_with_id(Tuple::of([Value::from(self.next_id as i64)]), self.next_id);
            true
        }
    }

    struct Accumulator {
        sum: Arc<StdAtomicU64>,
    }

    impl Bolt for Accumulator {
        fn execute(&mut self, t: &Tuple, _o: &mut BoltOutput) {
            let v = t.get(0).unwrap().as_i64().unwrap() as u64;
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    fn accumulator_run(n: u64, rt_cfg: RtConfig) -> (Arc<StdAtomicU64>, Report) {
        let sum = Arc::new(StdAtomicU64::new(0));
        let s2 = sum.clone();
        let mut b = TopologyBuilder::new("threaded");
        b.set_spout("s", 1, move || FiniteSpout {
            left: n,
            next_id: 0,
        })
        .unwrap();
        b.set_bolt("acc", 4, move || Accumulator { sum: s2.clone() })
            .unwrap()
            .shuffle_grouping("s")
            .unwrap();
        let topo = b.build().unwrap();
        let mut cfg = EngineConfig::default().with_cluster(2, 2, 4);
        cfg.metrics_interval_s = 0.2;
        let running = submit_with(topo, cfg, rt_cfg).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while running.acked() < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let (_, report) = running.shutdown();
        (sum, report)
    }

    #[test]
    fn threaded_runtime_processes_all_tuples() {
        let sum = Arc::new(StdAtomicU64::new(0));
        let s2 = sum.clone();
        let n: u64 = 2000;
        let mut b = TopologyBuilder::new("threaded");
        b.set_spout("s", 1, move || FiniteSpout {
            left: n,
            next_id: 0,
        })
        .unwrap();
        b.set_bolt("acc", 4, move || Accumulator { sum: s2.clone() })
            .unwrap()
            .shuffle_grouping("s")
            .unwrap();
        let topo = b.build().unwrap();
        let mut cfg = EngineConfig::default().with_cluster(2, 2, 4);
        cfg.metrics_interval_s = 0.2;
        let placement = even_placement(&topo, &cfg).unwrap();
        let running = submit_with(topo, cfg, RtConfig::default()).unwrap();
        // Wait for completion.
        let deadline = Instant::now() + Duration::from_secs(20);
        while running.acked() < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        // Let at least one metrics interval elapse before shutting down.
        std::thread::sleep(Duration::from_millis(300));
        let (history, report) = running.shutdown();
        assert_eq!(report.acked, n, "all tuple trees acked");
        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        assert_eq!(report.failed, 0);
        assert_eq!(report.task_panics, 0);
        assert_eq!(report.task_restarts, 0);
        assert_eq!(report.tracked, n);
        assert!(report.conservation_holds(), "healthy run conserves tuples");
        assert!(report.avg_complete_latency_ms >= 0.0);
        assert!(!history.is_empty(), "metrics snapshots collected");
        // Worker tuple counters mean what `WorkerStats` documents (and the
        // simulator reports): tuples entering / leaving the *worker*, i.e.
        // the shuffle's share for `acc` tasks placed away from the spout.
        let spout_worker = placement.worker_of(TaskId(0));
        let remote_tasks = (1..=4).filter(|&t| placement.worker_of(TaskId(t)) != spout_worker);
        let crossing = remote_tasks.count() as u64 * (n / 4);
        let workers = || history.iter().flat_map(|s| s.workers.iter());
        let total_in: u64 = workers().map(|w| w.tuples_in).sum();
        let total_out: u64 = workers().map(|w| w.tuples_out).sum();
        assert!(crossing > 0 && crossing < n, "the test needs both kinds");
        assert_eq!(total_in, crossing, "tuples_in counts cross-worker only");
        assert_eq!(total_out, crossing, "tuples_out counts cross-worker only");
    }

    #[test]
    fn batched_runtime_processes_all_tuples() {
        let n: u64 = 2000;
        for batch_size in [8usize, 64] {
            let rt_cfg = RtConfig::default()
                .with_batch_size(batch_size)
                .with_linger(Duration::from_millis(2));
            let (sum, report) = accumulator_run(n, rt_cfg);
            assert_eq!(report.acked, n, "batch_size {batch_size}: all trees acked");
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
            assert_eq!(report.failed, 0);
            assert_eq!(report.timed_out, 0, "batching must not orphan trees");
        }
    }

    #[test]
    fn batch_size_one_matches_unbatched_results() {
        let n: u64 = 1000;
        let (sum, report) = accumulator_run(n, RtConfig::default());
        assert_eq!(report.acked, n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        assert_eq!(report.failed, 0);
        assert_eq!(report.timed_out, 0);
    }

    #[test]
    fn linger_flushes_partial_batches() {
        // Batch size far above the tuple count: only the linger deadline can
        // push tuples out.
        let n: u64 = 50;
        let rt_cfg = RtConfig::default()
            .with_batch_size(4096)
            .with_linger(Duration::from_millis(1));
        let (sum, report) = accumulator_run(n, rt_cfg);
        assert_eq!(report.acked, n, "linger must flush partial batches");
        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        assert_eq!(report.timed_out, 0);
    }

    #[test]
    fn threaded_dynamic_reroute() {
        // Each task learns its index in `prepare` and counts its tuples.
        struct PerTask2 {
            hits: Arc<Vec<StdAtomicU64>>,
            my_index: usize,
        }
        impl Bolt for PerTask2 {
            fn prepare(&mut self, ctx: &TopologyContext) {
                self.my_index = ctx.task_index;
            }
            fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {
                self.hits[self.my_index].fetch_add(1, Ordering::Relaxed);
            }
        }

        let hits: Arc<Vec<StdAtomicU64>> = Arc::new((0..3).map(|_| StdAtomicU64::new(0)).collect());
        let h2 = hits.clone();
        let mut b = TopologyBuilder::new("dyn-threaded");
        b.set_spout("s", 1, || FiniteSpout {
            left: 6000,
            next_id: 0,
        })
        .unwrap();
        b.set_bolt("sink", 3, move || PerTask2 {
            hits: h2.clone(),
            my_index: 0,
        })
        .unwrap()
        .dynamic_grouping("s")
        .unwrap();
        let topo = b.build().unwrap();
        let handle = topo.dynamic_handle("s", "sink").unwrap();
        // Immediately bypass task 1 before starting.
        handle
            .set_ratio(crate::grouping::dynamic::SplitRatio::new(vec![1.0, 0.0, 1.0]).unwrap())
            .unwrap();
        let cfg = EngineConfig::default().with_cluster(1, 2, 4);
        let running = submit_with(topo, cfg, RtConfig::default()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while running.acked() < 6000 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let (_, report) = running.shutdown();
        assert_eq!(report.acked, 6000);
        assert_eq!(
            hits[1].load(Ordering::Relaxed),
            0,
            "bypassed task got tuples"
        );
        assert_eq!(
            hits[0].load(Ordering::Relaxed) + hits[2].load(Ordering::Relaxed),
            6000
        );
    }

    /// Forwards every tuple, after a pause.
    struct Relay(Duration);

    impl Bolt for Relay {
        fn execute(&mut self, t: &Tuple, out: &mut BoltOutput) {
            std::thread::sleep(self.0);
            out.emit(t.clone());
        }
    }

    /// `s → relays… → sink`, one task each, so task ids follow declaration
    /// order; a relay pauses as long as given, the sink sums what it sees.
    fn chain(n: u64, relays: &[(&'static str, Duration)]) -> (Topology, Arc<StdAtomicU64>) {
        let sum = Arc::new(StdAtomicU64::new(0));
        let s2 = sum.clone();
        let mut b = TopologyBuilder::new("chain");
        b.set_spout("s", 1, move || FiniteSpout {
            left: n,
            next_id: 0,
        })
        .unwrap();
        let mut from = "s";
        for &(name, pause) in relays {
            b.set_bolt(name, 1, move || Relay(pause))
                .unwrap()
                .shuffle_grouping(from)
                .unwrap();
            from = name;
        }
        b.set_bolt("sink", 1, move || Accumulator { sum: s2.clone() })
            .unwrap()
            .shuffle_grouping(from)
            .unwrap();
        (b.build().unwrap(), sum)
    }

    fn wait_until(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// At stop every tuple still sits in the spout's output buffer (the
    /// batch never fills and the linger never expires), so it reaches the
    /// sink only if each stage drains what its producer flushed on exit —
    /// even when `a` takes 100 ms over it, five of `b`'s receive timeouts.
    #[test]
    fn shutdown_drains_buffered_output_through_every_stage() {
        let n = 100;
        let pause = Duration::from_millis(1);
        let (topo, sum) = chain(n, &[("a", pause), ("b", Duration::ZERO)]);
        let rt_cfg = RtConfig::default()
            .with_batch_size(4096)
            .with_linger(Duration::from_secs(10));
        let cfg = EngineConfig::default().with_cluster(2, 2, 4);
        let running = submit_with(topo, cfg, rt_cfg).unwrap();
        wait_until(|| running.shared.counters.run.spout_emitted.get() == n);
        let (_, report) = running.shutdown();
        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2, "sink saw all");
        assert_eq!(report.spout_emitted, n);
        assert_eq!(report.acked, report.spout_emitted, "{report:?}");
        assert_eq!(report.in_flight, 0);
        assert!(report.conservation_holds());
    }

    /// A producer blocked on a full queue at stop keeps sending while its
    /// consumer runs: shutdown joins the consumer only after the producer,
    /// so giving the batch up would lose it without a trace.
    #[test]
    fn a_full_queue_at_stop_loses_no_batch() {
        let (topo, sum) = chain(20, &[("a", Duration::from_millis(80))]);
        let mut cfg = EngineConfig::default().with_cluster(2, 2, 4);
        cfg.queue_capacity = 1;
        let running = submit_with(topo, cfg, RtConfig::default()).unwrap();
        // `a` holds tuple 1, its queue tuple 2 or 3: the spout is blocked
        // sending the next one for the better part of 80 ms.
        wait_until(|| running.shared.counters.run.spout_emitted.get() >= 3);
        std::thread::sleep(Duration::from_millis(10));
        let (_, report) = running.shutdown();
        let emitted = report.spout_emitted;
        assert!(emitted >= 4, "the spout was blocked at stop: {report:?}");
        assert_eq!(report.acked, emitted, "{report:?}");
        assert_eq!((report.in_flight, report.dropped), (0, 0));
        assert_eq!(sum.load(Ordering::Relaxed), emitted * (emitted + 1) / 2);
    }

    /// Every thread wakes on stop: no bolt waits out its receive timeout,
    /// no spout its nap, no supervisor or metrics thread its poll.
    #[test]
    fn shutdown_of_an_idle_topology_does_not_wait_out_a_poll() {
        struct Quiet;
        impl Spout for Quiet {
            fn next_tuple(&mut self, _out: &mut SpoutOutput) -> bool {
                true
            }
        }
        let mut took: Vec<Duration> = (0..5)
            .map(|_| {
                let mut b = TopologyBuilder::new("idle");
                b.set_spout("s", 1, || Quiet).unwrap();
                b.set_bolt("a", 2, || Relay(Duration::ZERO))
                    .unwrap()
                    .shuffle_grouping("s")
                    .unwrap();
                b.set_bolt("sink", 1, || Relay(Duration::ZERO))
                    .unwrap()
                    .shuffle_grouping("a")
                    .unwrap();
                let cfg = EngineConfig::default().with_cluster(2, 2, 4);
                let running = submit_with(b.build().unwrap(), cfg, RtConfig::default()).unwrap();
                // Let every thread reach its wait.
                std::thread::sleep(Duration::from_millis(30));
                let t0 = Instant::now();
                running.shutdown();
                t0.elapsed()
            })
            .collect();
        took.sort();
        assert!(
            took[2] < Duration::from_millis(5),
            "shutdowns took {took:?}"
        );
    }

    /// The end-of-input marker is not a batch: it records no queue-wait
    /// sample.
    #[test]
    fn end_of_input_marker_records_no_queue_wait_sample() {
        let (n, batch) = (203u64, 8u64);
        let (topo, sum) = chain(n, &[("a", Duration::ZERO)]);
        let rt_cfg = RtConfig::default()
            .with_batch_size(batch as usize)
            .with_linger(Duration::from_secs(10));
        let cfg = EngineConfig::default().with_cluster(2, 2, 4);
        let running = submit_with(topo, cfg, rt_cfg).unwrap();
        let shared = Arc::clone(&running.shared);
        // Full batches flow while running; the last `n % batch` tuples wait
        // in the spout's buffer for shutdown.
        wait_until(|| {
            shared.counters.run.spout_emitted.get() == n && running.acked() == n - n % batch
        });
        let (_, report) = running.shutdown();
        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2, "sink saw all");
        assert_eq!(report.acked, n, "{report:?}");
        // Task ids: s = 0, a = 1, sink = 2.
        let flushed = |t: usize| shared.task_stats[t].batches_flushed.load(Ordering::Relaxed);
        let samples = |t: usize| shared.queue_wait[t].lock().0.count();
        assert_eq!(flushed(0), n.div_ceil(batch), "the tail left at shutdown");
        assert_eq!(samples(1), flushed(0), "a: one sample per data batch");
        assert_eq!(samples(2), flushed(1), "sink: one sample per data batch");
    }

    fn scrape(addr: std::net::SocketAddr) -> String {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(addr).expect("connect metrics endpoint");
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    /// The live endpoint serves every family README's Observability section
    /// names for a single-process run, and the run's report counters under
    /// `dsdps_<report field>_total` — the names `dist` serves them under.
    #[test]
    fn metrics_endpoint_serves_every_family_the_readme_names() {
        let readme = include_str!("../../../../README.md");
        let section = readme
            .split("## Observability")
            .nth(1)
            .and_then(|s| s.split("**Distributed runs.**").next())
            .expect("README has an Observability section");
        let mut families: Vec<&str> = section
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| w.starts_with("dsdps_") && w.len() > "dsdps_".len())
            .collect();
        assert!(
            families.len() >= 8,
            "README names its families: {families:?}"
        );
        let fields = [
            "spout_emitted",
            "tracked",
            "acked",
            "failed",
            "timed_out",
            "permanently_failed",
            "replays_scheduled",
            "replays_emitted",
            "approx_skipped",
            "checkpoints_taken",
            "snapshot_bytes",
            "restores",
        ];
        let counters: Vec<String> = fields.iter().map(|f| format!("dsdps_{f}_total")).collect();
        families.extend(counters.iter().map(String::as_str));

        let n = 500;
        let mut b = TopologyBuilder::new("scraped");
        b.set_spout("s", 1, move || FiniteSpout {
            left: n,
            next_id: 0,
        })
        .unwrap();
        let sum = Arc::new(StdAtomicU64::new(0));
        b.set_bolt("acc", 2, move || Accumulator { sum: sum.clone() })
            .unwrap()
            .shuffle_grouping("s")
            .unwrap();
        let mut cfg = EngineConfig::default().with_cluster(2, 2, 4);
        cfg.metrics_interval_s = 0.1;
        let rt_cfg = RtConfig::default().with_metrics_addr("127.0.0.1:0".parse().unwrap());
        let running = submit_with(b.build().unwrap(), cfg, rt_cfg).unwrap();
        let addr = running.metrics_addr().expect("metrics endpoint bound");
        // Until the mirror has run since the last tree was acked.
        let deadline = Instant::now() + Duration::from_secs(20);
        let settled = format!("dsdps_complete_latency_us_count {n}");
        let mut text = scrape(addr);
        while !text.contains(&settled) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            text = scrape(addr);
        }
        let (_, report) = running.shutdown();
        assert_eq!(report.acked, n, "{report:?}");
        let missing: Vec<&&str> = families.iter().filter(|f| !text.contains(**f)).collect();
        assert!(missing.is_empty(), "scrape lacks {missing:?}:\n{text}");
    }
}
