//! The discrete-event simulated runtime.
//!
//! [`SimRuntime`] executes a [`Topology`] under a virtual clock.  Every task
//! is a simulated executor placed on a worker process on a machine
//! ([`crate::scheduler`]); processing one tuple takes
//! `base_service_time × interference × worker_slowdown × (1 ± jitter)`
//! where the interference multiplier comes from the hosting machine's
//! current CPU pressure ([`super::machine`]).  Runs are deterministic for a
//! given seed.
//!
//! # Event executor
//!
//! The engine is built for scenario sweeps that advance tens of millions of
//! tuples per second of wall time:
//!
//! * **Lean heap events.**  Events are small copyable records on a binary
//!   heap ([`super::event::EventQueue`]), strictly time-ordered with a
//!   deterministic FIFO tie-break on sequence number.  Handlers yield
//!   successor events; no event carries a tuple payload.
//! * **Slab-indexed tuple instances.**  In-flight tuple instances live in an
//!   indexed slab with a free-list; queues and transit buffers hold compact
//!   `u32` indices, and forwarding a tuple between tasks moves an index, not
//!   a [`Tuple`] clone.
//! * **Batch-granular coalescing.**  One service event advances up to
//!   [`RtConfig::batch_size`] queued tuples at a task, mirroring the
//!   threaded runtime's batching.  The default batch size of 1 reproduces
//!   per-tuple semantics exactly.
//! * **Wake events instead of polling.**  A spout throttled by
//!   `max_spout_pending` or backpressure parks until a completed tuple tree
//!   or a backpressure-clear wakes it, instead of re-polling on a timer.
//!   (Only a *voluntarily idle* spout — one that returned no tuple while
//!   alive, e.g. a rate-paced source — is re-polled after a short delay,
//!   because the [`Spout`] trait has no next-emission-time hint.)
//! * **Shared data plane.**  Bolt execution (the crate's one `BoltTask`
//!   step), destination selection and fan-out (one `FanOut` per task), the
//!   ack record each executed tuple hands the acker ([`Acker`],
//!   single-shard), the task→worker roll-up and latency statistics
//!   ([`OnlineStats`]/[`LatencyHistogram`]) are the same values `rt` and
//!   `dist` step, driven from the same [`EngineConfig`] and [`RtConfig`]
//!   knobs, so the backends stay behaviorally comparable by construction.
//!   The spout's wake machine and its `next_tuple` loop are the simulator's
//!   own.
//!
//! The engine exposes the two surfaces the paper's control framework needs:
//! a [`crate::metrics::MetricsSnapshot`] stream via the
//! control hook (observation), and the topology's
//! [`DynamicGroupingHandle`](crate::grouping::dynamic::DynamicGroupingHandle)s
//! (actuation).

use std::collections::VecDeque;

use crate::acker::{splitmix64, Acker, Completion, RootId, TreeOutcome};
use crate::bolt_task::BoltTask;
use crate::component::{Emission, Spout, SpoutOutput, TopologyContext};
use crate::config::EngineConfig;
use crate::error::{Error, Result};
use crate::metrics::{
    fold_workers, LatencyHistogram, MachineStats, MetricsHistory, MetricsSnapshot, OnlineStats,
    SnapshotHook, TaskFlow, TaskStats, TopologyStats,
};
use crate::route::{Delivery, FanOut};
use crate::rt::RtConfig;
use crate::scheduler::{even_placement, MachineId, Placement, WorkerId};
use crate::telemetry::journal::Journal;
use crate::topology::{ComponentKind, TaskId, Topology};
use crate::tuple::Tuple;

use super::event::EventQueue;
use super::machine::{Fault, InterferenceModel, MachineState};

/// Delay before re-polling a spout that volunteered no tuple while alive
/// (seconds).  This is the only timer-based poll left: the [`Spout`] trait
/// cannot tell the engine when the next tuple becomes due, so a rate-paced
/// source is re-asked on this cadence.  Throttled spouts do **not** use it —
/// they park and are woken by tree completions or backpressure clears.
const IDLE_REPOLL_S: f64 = 0.001;

/// One-way tuple transfer latency between tasks in the same worker (µs).
const LOCAL_TRANSFER_US: f64 = 20.0;
/// One-way tuple transfer latency between workers (µs).
const REMOTE_TRANSFER_US: f64 = 300.0;

// Bolts outnumber spouts: boxing the bolt task would add a pointer chase to
// every step to save a few hundred bytes per spout.
#[allow(clippy::large_enum_variant)]
enum TaskKind {
    /// The spout and the fan-out its emissions leave through.
    Spout(Box<dyn Spout>, FanOut),
    Bolt(BoltTask),
}

#[derive(Debug, Default, Clone)]
struct TaskCounters {
    executed: u64,
    emitted: u64,
    acked: u64,
    failed: u64,
    latency_sum_us: f64,
    busy_s: f64,
    /// Tuples received from / sent to tasks on other workers.
    tuples_in: u64,
    tuples_out: u64,
}

#[derive(Debug, Default)]
struct TopoCounters {
    spout_emitted: u64,
    acked: u64,
    failed: u64,
    timed_out: u64,
    complete_us: OnlineStats,
    complete_hist_us: LatencyHistogram,
}

/// One in-flight tuple instance.
struct Instance {
    tuple: Tuple,
    /// The tree it extends and its edge id in it (`None`: untracked).
    anchor: Option<(RootId, u64)>,
}

/// Indexed storage for in-flight tuple instances.  Freed slots keep their
/// last instance until reuse (the overwrite on the next alloc drops it), so
/// the steady-state path never allocates.
#[derive(Default)]
struct Slab {
    slots: Vec<Instance>,
    free: Vec<u32>,
}

impl Slab {
    fn alloc(&mut self, delivery: Delivery) -> u32 {
        let instance = Instance {
            tuple: delivery.tuple,
            anchor: delivery.anchor,
        };
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = instance;
            i
        } else {
            self.slots.push(instance);
            (self.slots.len() - 1) as u32
        }
    }
}

struct TaskRuntime {
    component_name: String,
    kind: TaskKind,
    /// Queued tuple instances (slab indices) awaiting service (bolts).
    queue: VecDeque<u32>,
    /// Instances popped for the batch currently in service (bolts).
    in_flight: Vec<u32>,
    /// Emissions staged between a spout's wake and its `SpoutFinish`.
    staged: Vec<Emission>,
    /// In-transit instances from same-worker producers, `(ready, idx)`.
    /// Ready times are non-decreasing by construction: producers push in
    /// virtual-time order and the per-class transfer latency is constant.
    transit_local: VecDeque<(f64, u32)>,
    /// In-transit instances from remote-worker producers, `(ready, idx)`.
    transit_remote: VecDeque<(f64, u32)>,
    /// Generation of the currently scheduled `DeliveryWake`; stale wakes
    /// (scheduled before an earlier arrival superseded them) are dropped.
    wake_gen: u32,
    /// Time of the scheduled delivery wake; `INFINITY` when none is pending.
    wake_time: f64,
    busy: bool,
    /// Spouts: parked until a tree completion or backpressure clear.
    blocked: bool,
    /// Spouts: true once `next_tuple` returned `false`.
    exhausted: bool,
    /// Spouts: tracked tuple trees in flight.
    pending_roots: usize,
    /// Service duration of the batch currently in service.
    in_service_s: f64,
    /// Tuples the scheduled `Finish` will advance.
    in_service_k: u32,
    base_cost_us: f64,
    jitter: f64,
    ctr: TaskCounters,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    SpoutWake { task: u32 },
    SpoutFinish { task: u32 },
    DeliveryWake { dest: u32, gen: u32 },
    Finish { task: u32 },
    MetricsTick,
    BoltTick,
    ApplyFault { index: u32, starting: bool },
}

/// Summary of a completed simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Final virtual time (seconds).
    pub end_time_s: f64,
    /// Events processed.
    pub events: u64,
    /// Total tuples emitted by spouts.
    pub spout_emitted: u64,
    /// Tuple trees fully acked.
    pub acked: u64,
    /// Tuple trees explicitly failed.
    pub failed: u64,
    /// Tuple trees timed out.
    pub timed_out: u64,
    /// Mean complete latency over the whole run (ms).
    pub avg_complete_latency_ms: f64,
    /// p99 complete latency over the whole run (ms).
    pub p99_complete_latency_ms: f64,
    /// Mean acked throughput (trees/s).
    pub avg_throughput: f64,
    /// Metrics snapshots produced.
    pub snapshots: usize,
}

/// Discrete-event simulated runtime for a topology.
pub struct SimRuntime {
    topology: Topology,
    config: EngineConfig,
    rt_config: RtConfig,
    placement: Placement,
    tasks: Vec<TaskRuntime>,
    task_worker: Vec<WorkerId>,
    task_machine: Vec<MachineId>,
    spout_tasks: Vec<u32>,
    machines: Vec<MachineState>,
    worker_slowdown: Vec<f64>,
    events: EventQueue<Event>,
    now: f64,
    acker: Acker,
    next_root: RootId,
    /// Counter state for the splitmix64 jitter stream.
    rng_state: u64,
    slab: Slab,
    /// Tuples advanced per service event (`RtConfig::batch_size`, min 1).
    batch: usize,
    /// Per-task queue bound in tuples (`RtConfig::effective_queue_bound`).
    bound: usize,
    half_bound: usize,
    /// Tasks whose queue currently exceeds `half_bound`; backpressure
    /// clears when this count returns to zero.
    over_half: usize,
    backpressure: bool,
    interval_ctr: TopoCounters,
    total_ctr: TopoCounters,
    history: MetricsHistory,
    journal: Journal,
    hooks: Vec<SnapshotHook>,
    faults: Vec<Fault>,
    events_processed: u64,
    interval_index: u64,
    spout_out: SpoutOutput,
    /// What the step in hand fanned out to, `(dest, delivery)`, staged
    /// once the step's borrow of its task ends.
    delivered: Vec<(usize, Delivery)>,
    outcome_buf: Vec<TreeOutcome>,
}

impl SimRuntime {
    /// Builds a runtime with the even scheduler and default runtime knobs.
    pub fn new(topology: Topology, config: EngineConfig) -> Result<Self> {
        Self::with_rt_config(topology, config, RtConfig::default())
    }

    /// Builds a runtime with the even scheduler, driving the simulator from
    /// the same [`RtConfig`] knobs the threaded runtime uses (batch size,
    /// which with the engine's queue capacity bounds a task's queue).
    pub fn with_rt_config(
        topology: Topology,
        config: EngineConfig,
        rt_config: RtConfig,
    ) -> Result<Self> {
        let placement = even_placement(&topology, &config)?;
        Self::with_placement_and_rt(topology, config, rt_config, placement)
    }

    /// Builds a runtime with an explicit placement and [`RtConfig`] knobs.
    pub fn with_placement_and_rt(
        topology: Topology,
        config: EngineConfig,
        rt_config: RtConfig,
        placement: Placement,
    ) -> Result<Self> {
        config.validate()?;
        rt_config.validate()?;
        if placement.num_tasks() != topology.task_count() {
            return Err(Error::Scheduling(format!(
                "placement covers {} tasks, topology has {}",
                placement.num_tasks(),
                topology.task_count()
            )));
        }

        let interference = InterferenceModel::default();
        let machines = (0..config.num_machines)
            .map(|_| MachineState::new(config.machine_cores, interference))
            .collect();

        let batch = rt_config.batch_size.max(1);
        let bound = rt_config.effective_queue_bound(&config);

        let mut tasks = Vec::with_capacity(topology.task_count());
        let mut task_worker = Vec::with_capacity(topology.task_count());
        let mut task_machine = Vec::with_capacity(topology.task_count());
        let mut spout_tasks = Vec::new();

        for component in topology.components() {
            for (task_index, task) in component.tasks().enumerate() {
                let ctx = TopologyContext {
                    component: component.name.clone(),
                    task_index,
                    parallelism: component.parallelism,
                };
                // The global task id seeds the task's edge ids.
                let fan = FanOut::new(&topology, component, task_index, task.0 as u64);
                let kind = match &component.kind {
                    ComponentKind::Spout(f) => {
                        let mut s = f();
                        s.open(&ctx);
                        spout_tasks.push(tasks.len() as u32);
                        TaskKind::Spout(s, fan)
                    }
                    ComponentKind::Bolt(f) => {
                        TaskKind::Bolt(BoltTask::new(f(), &ctx, fan, None, 0.0))
                    }
                };

                task_worker.push(placement.worker_of(task));
                task_machine.push(placement.machine_of_task(task));
                tasks.push(TaskRuntime {
                    component_name: component.name.clone(),
                    kind,
                    queue: VecDeque::new(),
                    in_flight: Vec::with_capacity(batch),
                    staged: Vec::with_capacity(batch),
                    transit_local: VecDeque::new(),
                    transit_remote: VecDeque::new(),
                    wake_gen: 0,
                    wake_time: f64::INFINITY,
                    busy: false,
                    blocked: false,
                    exhausted: false,
                    pending_roots: 0,
                    in_service_s: 0.0,
                    in_service_k: 0,
                    base_cost_us: component.cost.base_service_time_us,
                    jitter: component.cost.jitter,
                    ctr: TaskCounters::default(),
                });
            }
        }

        let mut engine = SimRuntime {
            rng_state: config.seed,
            worker_slowdown: vec![1.0; placement.num_workers()],
            machines,
            tasks,
            task_worker,
            task_machine,
            spout_tasks,
            topology,
            placement,
            events: EventQueue::new(),
            now: 0.0,
            acker: Acker::new(),
            next_root: 0,
            slab: Slab::default(),
            batch,
            bound,
            half_bound: bound / 2,
            over_half: 0,
            backpressure: false,
            interval_ctr: TopoCounters::default(),
            total_ctr: TopoCounters::default(),
            history: MetricsHistory::default(),
            journal: Journal::new(),
            hooks: Vec::new(),
            faults: Vec::new(),
            events_processed: 0,
            interval_index: 0,
            spout_out: SpoutOutput::new(),
            delivered: Vec::new(),
            outcome_buf: Vec::new(),
            config,
            rt_config,
        };

        // Prime the event queue.
        for i in 0..engine.spout_tasks.len() {
            let task = engine.spout_tasks[i];
            engine.events.schedule(0.0, Event::SpoutWake { task });
        }
        engine
            .events
            .schedule(engine.config.metrics_interval_s, Event::MetricsTick);
        if engine.config.tick_interval_s > 0.0 {
            engine
                .events
                .schedule(engine.config.tick_interval_s, Event::BoltTick);
        }
        Ok(engine)
    }

    /// The topology under execution (e.g. to fetch dynamic-grouping handles).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The runtime knobs the simulator mirrors (batch size).
    pub fn rt_config(&self) -> &RtConfig {
        &self.rt_config
    }

    /// The task placement in effect.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Metrics history collected so far, bounded by
    /// [`MetricsHistory::CAPACITY`].
    pub fn history(&self) -> &MetricsHistory {
        &self.history
    }

    /// Control-plane journal (currently `history_truncated` notices).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Current virtual time (seconds).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Registers a control hook called after every metrics snapshot.
    pub fn add_control_hook(&mut self, hook: SnapshotHook) {
        self.hooks.push(hook);
    }

    /// Snapshot of the cumulative complete-latency histogram (µs).  Diff two
    /// snapshots (see [`LatencyHistogram::diff`]) to get the distribution of
    /// a time window.
    pub fn complete_latency_histogram(&self) -> LatencyHistogram {
        self.total_ctr.complete_hist_us.clone()
    }

    /// Schedules a fault.  Must be called before [`run_until`](Self::run_until).
    pub fn inject_fault(&mut self, fault: Fault) -> Result<()> {
        if !fault.is_valid() {
            return Err(Error::Config(format!("invalid fault window: {fault:?}")));
        }
        match &fault {
            Fault::ExternalLoad { machine, .. } => {
                if *machine >= self.machines.len() {
                    return Err(Error::Config(format!("no machine {machine}")));
                }
            }
            Fault::WorkerSlowdown { worker, factor, .. } => {
                if *worker >= self.worker_slowdown.len() {
                    return Err(Error::Config(format!("no worker {worker}")));
                }
                if *factor <= 0.0 {
                    return Err(Error::Config("slowdown factor must be positive".into()));
                }
            }
        }
        let index = self.faults.len() as u32;
        self.events.schedule(
            fault.from_s(),
            Event::ApplyFault {
                index,
                starting: true,
            },
        );
        self.events.schedule(
            fault.until_s(),
            Event::ApplyFault {
                index,
                starting: false,
            },
        );
        self.faults.push(fault);
        Ok(())
    }

    /// Runs the simulation until virtual time `t_end` (seconds) and returns
    /// a summary.  Can be called repeatedly to continue the same run.
    pub fn run_until(&mut self, t_end: f64) -> RunReport {
        while let Some(time) = self.events.peek_time() {
            if time > t_end {
                break;
            }
            let scheduled = self.events.pop().expect("peeked event exists");
            self.now = scheduled.time;
            self.events_processed += 1;
            self.dispatch(scheduled.event);
        }
        self.now = self.now.max(t_end);
        self.report()
    }

    /// Builds the run summary so far.
    pub fn report(&self) -> RunReport {
        let t = &self.total_ctr;
        RunReport {
            end_time_s: self.now,
            events: self.events_processed,
            spout_emitted: t.spout_emitted,
            acked: t.acked,
            failed: t.failed,
            timed_out: t.timed_out,
            avg_complete_latency_ms: t.complete_us.mean() / 1000.0,
            p99_complete_latency_ms: t.complete_hist_us.quantile(0.99).unwrap_or(0.0) / 1000.0,
            avg_throughput: if self.now > 0.0 {
                t.acked as f64 / self.now
            } else {
                0.0
            },
            snapshots: self.history.len(),
        }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::SpoutWake { task } => self.on_spout_wake(task as usize),
            Event::SpoutFinish { task } => self.on_spout_finish(task as usize),
            Event::DeliveryWake { dest, gen } => self.on_delivery_wake(dest as usize, gen),
            Event::Finish { task } => self.on_finish(task as usize),
            Event::MetricsTick => self.on_metrics_tick(),
            Event::BoltTick => self.on_bolt_tick(),
            Event::ApplyFault { index, starting } => self.on_fault(index as usize, starting),
        }
    }

    /// Service time in seconds for one tuple at `task`, sampled now.
    ///
    /// Jitter draws come from the splitmix64 counter stream (the acker's
    /// fast path), not a heavyweight RNG: one add and four shift-multiply
    /// rounds per draw, deterministic per seed.
    fn sample_service_s(&mut self, task: usize) -> f64 {
        let machine = self.task_machine[task].0;
        let worker = self.task_worker[task].0;
        let t = &self.tasks[task];
        let mult = self.machines[machine].interference_multiplier() * self.worker_slowdown[worker];
        let jitter = if t.jitter > 0.0 {
            self.rng_state = self.rng_state.wrapping_add(1);
            let u = (splitmix64(self.rng_state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            1.0 + (2.0 * u - 1.0) * t.jitter
        } else {
            1.0
        };
        (t.base_cost_us * mult * jitter).max(0.01) * 1e-6
    }

    fn machine_busy_start(&mut self, task: usize) {
        self.machines[self.task_machine[task].0].busy_executors += 1;
    }

    fn machine_busy_end(&mut self, task: usize, duration_s: f64) {
        let m = &mut self.machines[self.task_machine[task].0];
        m.busy_executors = m.busy_executors.saturating_sub(1);
        m.busy_core_seconds += duration_s;
    }

    fn on_spout_wake(&mut self, task: usize) {
        if self.tasks[task].exhausted || self.tasks[task].busy {
            return;
        }
        let throttled =
            self.tasks[task].pending_roots >= self.config.max_spout_pending || self.backpressure;
        if throttled {
            // Park: a tree completion (ack/fail/timeout) or a backpressure
            // clear schedules the next wake.
            self.tasks[task].blocked = true;
            return;
        }
        self.tasks[task].blocked = false;

        self.spout_out.set_now(self.now);
        let mut staged = std::mem::take(&mut self.tasks[task].staged);
        staged.clear();
        loop {
            let keep_going = match &mut self.tasks[task].kind {
                TaskKind::Spout(s, _) => s.next_tuple(&mut self.spout_out),
                TaskKind::Bolt(_) => unreachable!("wake on bolt task"),
            };
            let before = staged.len();
            self.spout_out.drain_into(&mut staged);
            let produced = staged.len() - before;
            if !keep_going {
                self.tasks[task].exhausted = true;
                break;
            }
            if produced == 0 || staged.len() >= self.batch {
                break;
            }
        }
        let n = staged.len();
        self.tasks[task].staged = staged;
        if n == 0 {
            if !self.tasks[task].exhausted {
                // Alive but voluntarily idle (e.g. rate-paced): short re-poll.
                self.events.schedule(
                    self.now + IDLE_REPOLL_S,
                    Event::SpoutWake { task: task as u32 },
                );
            }
            return;
        }
        let per_tuple = self.sample_service_s(task);
        let service = per_tuple * n as f64;
        self.tasks[task].busy = true;
        self.tasks[task].in_service_s = service;
        self.machine_busy_start(task);
        self.events
            .schedule(self.now + service, Event::SpoutFinish { task: task as u32 });
    }

    fn on_spout_finish(&mut self, task: usize) {
        let service = self.tasks[task].in_service_s;
        self.machine_busy_end(task, service);
        let mut staged = std::mem::take(&mut self.tasks[task].staged);
        let n = staged.len() as u64;
        {
            let c = &mut self.tasks[task].ctr;
            c.executed += n;
            c.busy_s += service;
            c.latency_sum_us += service * 1e6;
        }
        self.interval_ctr.spout_emitted += n;
        self.total_ctr.spout_emitted += n;

        for emission in staged.drain(..) {
            let tracked = emission.message_id.map(|message_id| {
                self.next_root += 1;
                (self.next_root, message_id)
            });
            let TaskKind::Spout(_, fan) = &mut self.tasks[task].kind else {
                unreachable!("spout finish on a bolt task");
            };
            let out = &mut self.delivered;
            let root = tracked.map(|(root, _)| root);
            let xor = fan.route(emission, root, None, |dest, d| out.push((dest, d)));
            if let Some((root, message_id)) = tracked {
                // Registered once with the XOR of its first-hop edges; one
                // that reached nothing completes at once.
                self.acker
                    .track(root, xor, TaskId(task), message_id, self.now);
                self.tasks[task].pending_roots += 1;
                if xor == 0 {
                    self.acker.on_ack(root, 0, self.now);
                }
            }
        }
        self.stage_delivered(task);
        self.tasks[task].staged = staged;
        self.drain_outcomes();
        self.tasks[task].busy = false;
        if !self.tasks[task].exhausted {
            self.events
                .schedule(self.now, Event::SpoutWake { task: task as u32 });
        }
    }

    /// Stages a delivery into `dest`'s transit buffer and (re)schedules its
    /// delivery wake if this arrival is due before the pending one.
    fn stage_delivery(&mut self, dest: usize, ready: f64, idx: u32, remote: bool) {
        let t = &mut self.tasks[dest];
        if remote {
            t.transit_remote.push_back((ready, idx));
        } else {
            t.transit_local.push_back((ready, idx));
        }
        if ready < t.wake_time {
            t.wake_gen = t.wake_gen.wrapping_add(1);
            t.wake_time = ready;
            let gen = t.wake_gen;
            self.events.schedule(
                ready,
                Event::DeliveryWake {
                    dest: dest as u32,
                    gen,
                },
            );
        }
    }

    fn on_delivery_wake(&mut self, dest: usize, gen: u32) {
        if self.tasks[dest].wake_gen != gen {
            return; // Superseded by an earlier arrival's wake.
        }
        self.tasks[dest].wake_time = f64::INFINITY;
        // Move every due transit entry into the task queue, merging the two
        // classes by ready time (each class is sorted by construction).
        loop {
            let t = &self.tasks[dest];
            let lf = t.transit_local.front().map(|&(r, _)| r);
            let rf = t.transit_remote.front().map(|&(r, _)| r);
            let (ready, remote) = match (lf, rf) {
                (None, None) => break,
                (Some(l), None) => (l, false),
                (None, Some(r)) => (r, true),
                (Some(l), Some(r)) => {
                    if l <= r {
                        (l, false)
                    } else {
                        (r, true)
                    }
                }
            };
            if ready > self.now {
                // Chain the wake for the next pending arrival.
                let t = &mut self.tasks[dest];
                if ready < t.wake_time {
                    t.wake_gen = t.wake_gen.wrapping_add(1);
                    t.wake_time = ready;
                    let gen = t.wake_gen;
                    self.events.schedule(
                        ready,
                        Event::DeliveryWake {
                            dest: dest as u32,
                            gen,
                        },
                    );
                }
                break;
            }
            let t = &mut self.tasks[dest];
            let (_, idx) = if remote {
                t.transit_remote.pop_front().expect("checked front")
            } else {
                t.transit_local.pop_front().expect("checked front")
            };
            t.ctr.tuples_in += u64::from(remote);
            t.queue.push_back(idx);
            let len = t.queue.len();
            if len == self.half_bound + 1 {
                self.over_half += 1;
            }
            if len > self.bound {
                self.backpressure = true;
            }
        }
        if !self.tasks[dest].busy && !self.tasks[dest].queue.is_empty() {
            self.start_service(dest);
        }
    }

    fn start_service(&mut self, task: usize) {
        let before = self.tasks[task].queue.len();
        let k = before.min(self.batch);
        if k == 0 {
            return;
        }
        {
            let t = &mut self.tasks[task];
            for _ in 0..k {
                let idx = t.queue.pop_front().expect("len checked");
                t.in_flight.push(idx);
            }
        }
        let after = before - k;
        if before > self.half_bound && after <= self.half_bound {
            self.over_half -= 1;
            if self.over_half == 0 && self.backpressure {
                self.backpressure = false;
                self.wake_blocked_spouts();
            }
        }
        let per_tuple = self.sample_service_s(task);
        let service = per_tuple * k as f64;
        let t = &mut self.tasks[task];
        t.busy = true;
        t.in_service_s = service;
        t.in_service_k = k as u32;
        self.machine_busy_start(task);
        self.events
            .schedule(self.now + service, Event::Finish { task: task as u32 });
    }

    fn on_finish(&mut self, task: usize) {
        let service = self.tasks[task].in_service_s;
        let k = self.tasks[task].in_service_k as usize;
        self.machine_busy_end(task, service);
        let per_tuple = service / k as f64;

        for j in 0..k {
            let idx = self.tasks[task].in_flight[j];
            let TaskKind::Bolt(bolt) = &mut self.tasks[task].kind else {
                unreachable!("finish on spout task");
            };
            let inst = &self.slab.slots[idx as usize];
            let out = &mut self.delivered;
            let step = bolt.step(&inst.tuple, inst.anchor, None, self.now, |dest, d| {
                out.push((dest, d))
            });

            let c = &mut self.tasks[task].ctr;
            c.executed += 1;
            c.busy_s += per_tuple;
            c.latency_sum_us += per_tuple * 1e6;
            if step.failed {
                c.failed += 1;
            } else {
                c.acked += 1;
            }

            self.stage_delivered(task);
            if let Some(record) = step.record {
                self.acker.on_record(record, self.now);
            }
            self.slab.free.push(idx);
        }
        self.tasks[task].in_flight.clear();
        self.drain_outcomes();

        self.tasks[task].busy = false;
        if !self.tasks[task].queue.is_empty() {
            self.start_service(task);
        }
    }

    /// Turns what `src`'s step fanned out to into slab instances and stages
    /// each into its destination's transit buffer.
    fn stage_delivered(&mut self, src: usize) {
        let src_worker = self.task_worker[src];
        let mut delivered = std::mem::take(&mut self.delivered);
        self.tasks[src].ctr.emitted += delivered.len() as u64;
        for (dest, delivery) in delivered.drain(..) {
            let remote = self.task_worker[dest] != src_worker;
            let transfer_us = if remote {
                REMOTE_TRANSFER_US
            } else {
                LOCAL_TRANSFER_US
            };
            self.tasks[src].ctr.tuples_out += u64::from(remote);
            let idx = self.slab.alloc(delivery);
            self.stage_delivery(dest, self.now + transfer_us * 1e-6, idx, remote);
        }
        self.delivered = delivered;
    }

    fn drain_outcomes(&mut self) {
        let mut buf = std::mem::take(&mut self.outcome_buf);
        self.acker.drain_outcomes_into(&mut buf);
        for outcome in buf.drain(..) {
            let spout = outcome.spout_task.0;
            self.tasks[spout].pending_roots = self.tasks[spout].pending_roots.saturating_sub(1);
            let latency_us = outcome.complete_latency() * 1e6;
            match outcome.completion {
                Completion::Acked => {
                    self.interval_ctr.acked += 1;
                    self.total_ctr.acked += 1;
                    self.interval_ctr.complete_us.update(latency_us);
                    self.interval_ctr.complete_hist_us.record(latency_us);
                    self.total_ctr.complete_us.update(latency_us);
                    self.total_ctr.complete_hist_us.record(latency_us);
                    self.tasks[spout].ctr.acked += 1;
                    if let TaskKind::Spout(s, _) = &mut self.tasks[spout].kind {
                        s.ack(outcome.message_id);
                    }
                }
                Completion::Failed | Completion::TimedOut => {
                    if outcome.completion == Completion::Failed {
                        self.interval_ctr.failed += 1;
                        self.total_ctr.failed += 1;
                    } else {
                        self.interval_ctr.timed_out += 1;
                        self.total_ctr.timed_out += 1;
                    }
                    self.tasks[spout].ctr.failed += 1;
                    if let TaskKind::Spout(s, _) = &mut self.tasks[spout].kind {
                        s.fail(outcome.message_id);
                    }
                }
            }
            // A spout parked on max_spout_pending can resume now that a tree
            // left flight (unless backpressure still holds it).
            if self.tasks[spout].blocked
                && !self.backpressure
                && self.tasks[spout].pending_roots < self.config.max_spout_pending
            {
                self.tasks[spout].blocked = false;
                self.events
                    .schedule(self.now, Event::SpoutWake { task: spout as u32 });
            }
        }
        self.outcome_buf = buf;
    }

    /// Wakes every spout parked on throttle/backpressure; each wake
    /// re-evaluates its own throttle condition and may re-park.
    fn wake_blocked_spouts(&mut self) {
        for si in 0..self.spout_tasks.len() {
            let s = self.spout_tasks[si] as usize;
            if self.tasks[s].blocked && !self.tasks[s].exhausted && !self.tasks[s].busy {
                self.tasks[s].blocked = false;
                self.events
                    .schedule(self.now, Event::SpoutWake { task: s as u32 });
            }
        }
    }

    fn on_bolt_tick(&mut self) {
        for task in 0..self.tasks.len() {
            let TaskKind::Bolt(bolt) = &mut self.tasks[task].kind else {
                continue;
            };
            let out = &mut self.delivered;
            bolt.tick(self.now, |dest, d| out.push((dest, d)));
            self.stage_delivered(task);
        }
        self.events
            .schedule(self.now + self.config.tick_interval_s, Event::BoltTick);
    }

    fn on_fault(&mut self, index: usize, starting: bool) {
        match self.faults[index].clone() {
            Fault::ExternalLoad { machine, cores, .. } => {
                let m = &mut self.machines[machine];
                if starting {
                    m.external_load_cores += cores;
                } else {
                    m.external_load_cores = (m.external_load_cores - cores).max(0.0);
                }
            }
            // Overlapping slowdowns on one worker compose by product, as on
            // `rt`: recompute from every window open at `now`.
            Fault::WorkerSlowdown { worker, .. } => {
                let now = self.now;
                self.worker_slowdown[worker] = self
                    .faults
                    .iter()
                    .filter_map(|f| match *f {
                        Fault::WorkerSlowdown {
                            worker: w,
                            factor,
                            from_s,
                            until_s,
                        } if w == worker && from_s <= now && now < until_s => Some(factor),
                        _ => None,
                    })
                    .product();
            }
        }
    }

    fn on_metrics_tick(&mut self) {
        self.acker.expire(self.now, self.config.message_timeout_s);
        self.drain_outcomes();
        let snapshot = self.build_snapshot();
        for hook in &mut self.hooks {
            hook(&snapshot);
        }
        self.history.push_journaled(snapshot, &self.journal);
        self.reset_interval();
        self.interval_index += 1;
        self.events.schedule(
            self.now + self.config.metrics_interval_s,
            Event::MetricsTick,
        );
    }

    fn build_snapshot(&self) -> MetricsSnapshot {
        let interval_s = self.config.metrics_interval_s;
        let tasks: Vec<TaskStats> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TaskStats {
                task: TaskId(i),
                component: t.component_name.clone(),
                worker: self.task_worker[i],
                executed: t.ctr.executed,
                emitted: t.ctr.emitted,
                acked: t.ctr.acked,
                failed: t.ctr.failed,
                avg_execute_latency_us: if t.ctr.executed > 0 {
                    t.ctr.latency_sum_us / t.ctr.executed as f64
                } else {
                    0.0
                },
                queue_len: t.queue.len(),
                capacity: t.ctr.busy_s / interval_s,
                // The simulator models batching via service coalescing and
                // runs no threads; flush accounting, panics and restarts are
                // threaded-runtime concerns.
                batches_flushed: 0,
                linger_flushes: 0,
                panics: 0,
                restarts: 0,
                last_panic: None,
                // Checkpointing is a threaded-runtime concern; the
                // deterministic simulator never snapshots.
                checkpoints_taken: 0,
                restores: 0,
                snapshot_bytes: 0,
            })
            .collect();

        let flows: Vec<TaskFlow> = self
            .tasks
            .iter()
            .map(|t| TaskFlow {
                latency_sum_us: t.ctr.latency_sum_us,
                tuples_in: t.ctr.tuples_in,
                tuples_out: t.ctr.tuples_out,
            })
            .collect();
        let workers = fold_workers(&tasks, &flows, &self.placement);

        let machines: Vec<MachineStats> = self
            .machines
            .iter()
            .enumerate()
            .map(|(m, state)| MachineStats {
                machine: MachineId(m),
                cpu_cores_used: state.busy_core_seconds / interval_s,
                external_load_cores: state.external_load_cores,
                cores: state.cores,
                num_workers: self.placement.workers_of_machine(MachineId(m)).len(),
            })
            .collect();

        let c = &self.interval_ctr;
        let topology = TopologyStats {
            spout_emitted: c.spout_emitted,
            acked: c.acked,
            failed: c.failed,
            timed_out: c.timed_out,
            avg_complete_latency_ms: c.complete_us.mean() / 1000.0,
            p99_complete_latency_ms: c.complete_hist_us.quantile(0.99).unwrap_or(0.0) / 1000.0,
            throughput: c.acked as f64 / interval_s,
        };

        MetricsSnapshot {
            interval: self.interval_index,
            time_s: self.now,
            interval_s,
            tasks,
            workers,
            machines,
            topology,
        }
    }

    fn reset_interval(&mut self) {
        for t in &mut self.tasks {
            t.ctr = TaskCounters::default();
        }
        for m in &mut self.machines {
            m.busy_core_seconds = 0.0;
        }
        self.interval_ctr = TopoCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Bolt, BoltOutput};
    use crate::topology::{CostModel, TopologyBuilder};
    use crate::tuple::{Fields, Value};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Spout emitting `rate` tuples/s with reliability ids.
    struct RateSpout {
        rate: f64,
        emitted: u64,
        next_id: u64,
        failed_replays: u64,
    }

    impl RateSpout {
        fn new(rate: f64) -> Self {
            RateSpout {
                rate,
                emitted: 0,
                next_id: 0,
                failed_replays: 0,
            }
        }
    }

    impl Spout for RateSpout {
        fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
            let due = (out.now_s() * self.rate) as u64;
            if self.emitted < due {
                self.emitted += 1;
                self.next_id += 1;
                out.emit_with_id(Tuple::of([Value::from(self.next_id as i64)]), self.next_id);
            }
            true
        }

        fn fail(&mut self, _id: u64) {
            self.failed_replays += 1;
        }
    }

    struct CountBolt {
        seen: Arc<AtomicU64>,
    }

    impl Bolt for CountBolt {
        fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {
            self.seen.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn linear_topology(
        rate: f64,
        bolt_cost_us: f64,
        bolt_par: usize,
        seen: Arc<AtomicU64>,
    ) -> Topology {
        let mut b = TopologyBuilder::new("test");
        b.set_spout("spout", 1, move || RateSpout::new(rate))
            .unwrap()
            .output_fields(Fields::new(["v"]))
            .cost(CostModel {
                base_service_time_us: 10.0,
                jitter: 0.0,
            });
        b.set_bolt("sink", bolt_par, move || CountBolt { seen: seen.clone() })
            .unwrap()
            .shuffle_grouping("spout")
            .unwrap()
            .cost(CostModel {
                base_service_time_us: bolt_cost_us,
                jitter: 0.0,
            });
        b.build().unwrap()
    }

    fn small_config() -> EngineConfig {
        EngineConfig::default().with_cluster(2, 2, 4)
    }

    #[test]
    fn tuples_flow_and_ack() {
        let seen = Arc::new(AtomicU64::new(0));
        let topo = linear_topology(1000.0, 50.0, 2, seen.clone());
        let mut engine = SimRuntime::new(topo, small_config()).unwrap();
        let report = engine.run_until(10.0);
        let processed = seen.load(Ordering::Relaxed);
        // ~1000 t/s for 10 s = ~10k tuples; allow slack for startup.
        assert!(processed > 9_000, "processed {processed}");
        assert!(report.acked > 9_000, "acked {}", report.acked);
        assert_eq!(report.failed, 0);
        assert_eq!(report.timed_out, 0);
        assert!(report.avg_complete_latency_ms > 0.0);
        assert!(report.spout_emitted >= report.acked);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = |seed| {
            let seen = Arc::new(AtomicU64::new(0));
            let topo = linear_topology(500.0, 80.0, 2, seen.clone());
            let mut engine = SimRuntime::new(topo, small_config().with_seed(seed)).unwrap();
            let r = engine.run_until(5.0);
            (
                r.acked,
                r.spout_emitted,
                r.avg_complete_latency_ms,
                seen.load(Ordering::Relaxed),
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        let c = run(8);
        // Different seed changes jitterless run only via placement/rng use;
        // with zero jitter results may coincide, so just sanity-check totals.
        assert!(c.0 > 0);
    }

    #[test]
    fn metrics_snapshots_produced_each_interval() {
        let seen = Arc::new(AtomicU64::new(0));
        let topo = linear_topology(200.0, 100.0, 1, seen);
        let mut engine = SimRuntime::new(topo, small_config()).unwrap();
        engine.run_until(5.0);
        assert_eq!(engine.history().len(), 5);
        let snap = engine.history().latest().unwrap();
        assert_eq!(snap.tasks.len(), 2);
        assert_eq!(snap.workers.len(), 4);
        assert_eq!(snap.machines.len(), 2);
        assert!(snap.topology.throughput > 150.0);
        // Executing task has positive latency and capacity.
        let sink = snap.tasks.iter().find(|t| t.component == "sink").unwrap();
        assert!(sink.avg_execute_latency_us >= 99.0);
        assert!(sink.capacity > 0.0 && sink.capacity <= 1.0);
    }

    #[test]
    fn control_hook_called_per_interval() {
        let seen = Arc::new(AtomicU64::new(0));
        let topo = linear_topology(100.0, 50.0, 1, seen);
        let mut engine = SimRuntime::new(topo, small_config()).unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        let c2 = calls.clone();
        engine.add_control_hook(Box::new(move |_snap| {
            c2.fetch_add(1, Ordering::Relaxed);
        }));
        engine.run_until(8.0);
        assert_eq!(calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn worker_slowdown_inflates_latency() {
        let baseline = {
            let seen = Arc::new(AtomicU64::new(0));
            let topo = linear_topology(500.0, 100.0, 1, seen);
            let mut e = SimRuntime::new(topo, small_config()).unwrap();
            e.run_until(10.0);
            e.history().latest().unwrap().tasks[1].avg_execute_latency_us
        };
        let degraded = {
            let seen = Arc::new(AtomicU64::new(0));
            let topo = linear_topology(500.0, 100.0, 1, seen);
            let mut e = SimRuntime::new(topo, small_config()).unwrap();
            // Bolt is task 1; find its worker and slow it 5x.
            let w = e.placement().worker_of(TaskId(1)).0;
            e.inject_fault(Fault::WorkerSlowdown {
                worker: w,
                factor: 5.0,
                from_s: 1.0,
                until_s: 10.0,
            })
            .unwrap();
            e.run_until(10.0);
            e.history().latest().unwrap().tasks[1].avg_execute_latency_us
        };
        assert!(
            degraded > baseline * 3.0,
            "slowdown should inflate latency: {baseline} -> {degraded}"
        );
    }

    #[test]
    fn overlapping_slowdowns_compose_by_product() {
        let topo = linear_topology(500.0, 100.0, 1, Arc::new(AtomicU64::new(0)));
        let mut e = SimRuntime::new(topo, small_config()).unwrap();
        let w = e.placement().worker_of(TaskId(1)).0;
        for (factor, from_s, until_s) in [(2.0, 0.0, 10.0), (3.0, 5.0, 8.0)] {
            e.inject_fault(Fault::WorkerSlowdown {
                worker: w,
                factor,
                from_s,
                until_s,
            })
            .unwrap();
        }
        e.run_until(6.0);
        assert_eq!(e.worker_slowdown[w], 6.0, "both windows open");
        e.run_until(9.0);
        assert_eq!(e.worker_slowdown[w], 2.0, "the ×3 window closed");
        e.run_until(11.0);
        assert_eq!(e.worker_slowdown[w], 1.0, "both windows closed");
    }

    #[test]
    fn external_load_inflates_service_time() {
        let run = |load: f64| {
            let seen = Arc::new(AtomicU64::new(0));
            let topo = linear_topology(500.0, 100.0, 1, seen);
            let mut e = SimRuntime::new(topo, small_config()).unwrap();
            let m = e.placement().machine_of_task(TaskId(1)).0;
            if load > 0.0 {
                e.inject_fault(Fault::ExternalLoad {
                    machine: m,
                    cores: load,
                    from_s: 0.0,
                    until_s: 10.0,
                })
                .unwrap();
            }
            e.run_until(10.0);
            e.history().latest().unwrap().tasks[1].avg_execute_latency_us
        };
        let idle = run(0.0);
        let loaded = run(8.0); // 2x oversubscription on 4 cores
        assert!(
            loaded > idle * 1.5,
            "external load must slow tasks: {idle} -> {loaded}"
        );
    }

    #[test]
    fn external_load_visible_in_machine_stats() {
        let seen = Arc::new(AtomicU64::new(0));
        let topo = linear_topology(100.0, 50.0, 1, seen);
        let mut e = SimRuntime::new(topo, small_config()).unwrap();
        e.inject_fault(Fault::ExternalLoad {
            machine: 0,
            cores: 3.0,
            from_s: 2.0,
            until_s: 4.0,
        })
        .unwrap();
        e.run_until(6.0);
        let history: Vec<_> = e.history().iter().collect();
        assert_eq!(history[0].machines[0].external_load_cores, 0.0);
        assert_eq!(history[2].machines[0].external_load_cores, 3.0);
        assert_eq!(history[5].machines[0].external_load_cores, 0.0);
    }

    #[test]
    fn overload_triggers_backpressure_not_unbounded_queues() {
        let seen = Arc::new(AtomicU64::new(0));
        // Offered load 10k t/s, bolt can do 1k t/s: queue must be bounded by
        // backpressure + max_spout_pending.
        let topo = linear_topology(10_000.0, 1000.0, 1, seen);
        let mut cfg = small_config();
        cfg.queue_capacity = 100;
        cfg.max_spout_pending = 200;
        let mut e = SimRuntime::new(topo, cfg).unwrap();
        e.run_until(10.0);
        let max_queue = e
            .history()
            .iter()
            .flat_map(|s| s.tasks.iter().map(|t| t.queue_len))
            .max()
            .unwrap();
        assert!(max_queue <= 250, "queue grew to {max_queue}");
    }

    #[test]
    fn fields_grouping_routes_by_key_in_engine() {
        struct KeySpout {
            i: u64,
        }
        impl Spout for KeySpout {
            fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
                self.i += 1;
                let key = format!("k{}", self.i % 4);
                out.emit(Tuple::of([Value::from(key.as_str())]));
                self.i < 200
            }
        }
        #[derive(Default)]
        struct KeyCollector {
            keys: std::collections::HashSet<String>,
            log: Arc<parking_lot::Mutex<Vec<std::collections::HashSet<String>>>>,
            registered: bool,
        }
        impl Bolt for KeyCollector {
            fn execute(&mut self, t: &Tuple, _o: &mut BoltOutput) {
                self.keys
                    .insert(t.get_by_field("url").unwrap().as_str().unwrap().to_owned());
                if !self.registered {
                    self.registered = true;
                }
                let mut log = self.log.lock();
                log.push(self.keys.clone());
            }
        }
        let log: Arc<parking_lot::Mutex<Vec<std::collections::HashSet<String>>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let log2 = log.clone();
        let mut b = TopologyBuilder::new("fields");
        b.set_spout("s", 1, || KeySpout { i: 0 })
            .unwrap()
            .output_fields(Fields::new(["url"]));
        b.set_bolt("c", 2, move || KeyCollector {
            log: log2.clone(),
            ..Default::default()
        })
        .unwrap()
        .fields_grouping("s", &["url"])
        .unwrap();
        let topo = b.build().unwrap();
        let mut e = SimRuntime::new(topo, small_config()).unwrap();
        e.run_until(5.0);
        // Each key must appear in exactly one task's key set.
        let final_sets = log.lock();
        let last_by_size: Vec<_> = final_sets.iter().rev().take(2).collect();
        if last_by_size.len() == 2 {
            let intersection: Vec<_> = last_by_size[0].intersection(last_by_size[1]).collect();
            assert!(
                intersection.is_empty() || last_by_size[0] == last_by_size[1],
                "a key reached two different tasks: {intersection:?}"
            );
        }
    }

    #[test]
    fn dynamic_grouping_reroute_during_run() {
        struct TaskCounterBolt {
            counts: Arc<AtomicU64>,
        }
        impl Bolt for TaskCounterBolt {
            fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {
                self.counts.fetch_add(1, Ordering::Relaxed);
            }
        }
        // 4 sink tasks; count arrivals per *component* then verify via task
        // stats which tasks got traffic after the reroute.
        let counts = Arc::new(AtomicU64::new(0));
        let c = counts.clone();
        let mut b = TopologyBuilder::new("dyn");
        b.set_spout("s", 1, || RateSpout::new(2000.0))
            .unwrap()
            .output_fields(Fields::new(["v"]))
            .cost(CostModel {
                base_service_time_us: 5.0,
                jitter: 0.0,
            });
        b.set_bolt("sink", 4, move || TaskCounterBolt { counts: c.clone() })
            .unwrap()
            .dynamic_grouping("s")
            .unwrap()
            .cost(CostModel {
                base_service_time_us: 20.0,
                jitter: 0.0,
            });
        let topo = b.build().unwrap();
        let handle = topo.dynamic_handle("s", "sink").unwrap();
        let mut e = SimRuntime::new(topo, small_config()).unwrap();
        e.run_until(3.0);
        let before: Vec<u64> = e.history().latest().unwrap().tasks[1..]
            .iter()
            .map(|t| t.executed)
            .collect();
        assert!(
            before.iter().all(|&n| n > 0),
            "uniform split feeds all: {before:?}"
        );

        // Zero-out task 2 (bypass a misbehaving worker) and keep running.
        handle
            .set_ratio(crate::grouping::dynamic::SplitRatio::new(vec![1.0, 1.0, 0.0, 1.0]).unwrap())
            .unwrap();
        e.run_until(6.0);
        let after: Vec<u64> = e.history().latest().unwrap().tasks[1..]
            .iter()
            .map(|t| t.executed)
            .collect();
        assert_eq!(after[2], 0, "bypassed task got traffic: {after:?}");
        assert!(after[0] > 0 && after[1] > 0 && after[3] > 0);
    }

    #[test]
    fn rejects_invalid_faults() {
        let seen = Arc::new(AtomicU64::new(0));
        let topo = linear_topology(100.0, 50.0, 1, seen);
        let mut e = SimRuntime::new(topo, small_config()).unwrap();
        assert!(e
            .inject_fault(Fault::ExternalLoad {
                machine: 99,
                cores: 1.0,
                from_s: 0.0,
                until_s: 1.0
            })
            .is_err());
        assert!(e
            .inject_fault(Fault::WorkerSlowdown {
                worker: 99,
                factor: 2.0,
                from_s: 0.0,
                until_s: 1.0
            })
            .is_err());
        assert!(e
            .inject_fault(Fault::WorkerSlowdown {
                worker: 0,
                factor: 0.0,
                from_s: 0.0,
                until_s: 1.0
            })
            .is_err());
        assert!(e
            .inject_fault(Fault::WorkerSlowdown {
                worker: 0,
                factor: 2.0,
                from_s: 5.0,
                until_s: 1.0
            })
            .is_err());
    }

    #[test]
    fn finite_spout_drains_and_stops() {
        struct FiniteSpout {
            left: u64,
        }
        impl Spout for FiniteSpout {
            fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
                if self.left == 0 {
                    return false;
                }
                self.left -= 1;
                out.emit_with_id(Tuple::of([Value::from(self.left as i64)]), self.left);
                true
            }
        }
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        let mut b = TopologyBuilder::new("finite");
        b.set_spout("s", 1, || FiniteSpout { left: 100 }).unwrap();
        b.set_bolt("c", 1, move || CountBolt { seen: s2.clone() })
            .unwrap()
            .shuffle_grouping("s")
            .unwrap();
        let topo = b.build().unwrap();
        let mut e = SimRuntime::new(topo, small_config()).unwrap();
        let report = e.run_until(30.0);
        assert_eq!(seen.load(Ordering::Relaxed), 100);
        assert_eq!(report.acked, 100);
        assert_eq!(report.spout_emitted, 100);
    }

    #[test]
    fn run_until_can_be_resumed() {
        let seen = Arc::new(AtomicU64::new(0));
        let topo = linear_topology(1000.0, 50.0, 2, seen);
        let mut e = SimRuntime::new(topo, small_config()).unwrap();
        let r1 = e.run_until(2.0);
        let r2 = e.run_until(4.0);
        assert!(r2.acked > r1.acked);
        assert_eq!(e.history().len(), 4);
        assert!((e.now() - 4.0).abs() < 1e-9);
    }

    /// Jittered service times come from the splitmix64 counter stream, so a
    /// repeated run with the same seed is bit-identical and a different seed
    /// diverges.
    #[test]
    fn jitter_runs_are_seed_stable() {
        fn run(seed: u64) -> (u64, f64) {
            let seen = Arc::new(AtomicU64::new(0));
            let mut b = TopologyBuilder::new("jitter");
            let s2 = seen.clone();
            b.set_spout("spout", 1, || RateSpout::new(2000.0))
                .unwrap()
                .output_fields(Fields::new(["v"]))
                .cost(CostModel {
                    base_service_time_us: 10.0,
                    jitter: 0.3,
                });
            b.set_bolt("sink", 2, move || CountBolt { seen: s2.clone() })
                .unwrap()
                .shuffle_grouping("spout")
                .unwrap()
                .cost(CostModel {
                    base_service_time_us: 120.0,
                    jitter: 0.3,
                });
            let topo = b.build().unwrap();
            let mut e = SimRuntime::new(topo, small_config().with_seed(seed)).unwrap();
            let r = e.run_until(5.0);
            (r.acked, r.avg_complete_latency_ms)
        }
        let (acked_a, lat_a) = run(7);
        let (acked_b, lat_b) = run(7);
        let (acked_c, lat_c) = run(8);
        assert_eq!(acked_a, acked_b);
        assert_eq!(lat_a.to_bits(), lat_b.to_bits());
        // Different seed, different jitter draws: latency must move.
        assert!(acked_c > 0);
        assert_ne!(lat_a.to_bits(), lat_c.to_bits());
    }

    /// Raising `RtConfig::batch_size` coalesces service events without
    /// changing what was processed, and strictly reduces event count.
    #[test]
    fn batch_coalescing_preserves_counts() {
        fn run(batch: usize) -> RunReport {
            let seen = Arc::new(AtomicU64::new(0));
            let topo = linear_topology(2000.0, 50.0, 2, seen);
            let rt = RtConfig::default().with_batch_size(batch);
            let mut e = SimRuntime::with_rt_config(topo, small_config(), rt).unwrap();
            e.run_until(5.0)
        }
        let per_tuple = run(1);
        let coalesced = run(8);
        assert_eq!(coalesced.spout_emitted, per_tuple.spout_emitted);
        assert_eq!(coalesced.acked, per_tuple.acked);
        assert_eq!(coalesced.failed, per_tuple.failed);
        assert!(
            coalesced.events < per_tuple.events,
            "batched run should coalesce events: {} !< {}",
            coalesced.events,
            per_tuple.events
        );
    }

    /// `MetricsHistory::CAPACITY` bounds the in-memory snapshot window and
    /// the first eviction is journaled as `history_truncated`.
    #[test]
    fn history_is_bounded_and_journaled() {
        let seen = Arc::new(AtomicU64::new(0));
        let topo = linear_topology(500.0, 50.0, 2, seen);
        let mut cfg = small_config();
        cfg.metrics_interval_s = 0.001;
        let mut e = SimRuntime::new(topo, cfg).unwrap();
        e.run_until(4.5);
        assert_eq!(e.history().len(), MetricsHistory::CAPACITY);
        let truncations: Vec<_> = e
            .journal()
            .events()
            .iter()
            .filter(|ev| ev.kind() == "history_truncated")
            .cloned()
            .collect();
        assert_eq!(truncations.len(), 1, "journaled once, on first eviction");
    }

    /// A spout parked on `max_spout_pending` is woken by tree completions,
    /// not timer polls: a long idle horizon must not accumulate poll events.
    #[test]
    fn blocked_spout_wakes_on_ack_without_polling() {
        struct BurstSpout {
            left: u64,
        }
        impl Spout for BurstSpout {
            fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
                if self.left == 0 {
                    return false;
                }
                self.left -= 1;
                out.emit_with_id(Tuple::of([Value::from(self.left as i64)]), self.left);
                true
            }
        }
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        let mut b = TopologyBuilder::new("parked");
        b.set_spout("s", 1, || BurstSpout { left: 10 })
            .unwrap()
            .output_fields(Fields::new(["v"]))
            .cost(CostModel {
                base_service_time_us: 10.0,
                jitter: 0.0,
            });
        b.set_bolt("c", 1, move || CountBolt { seen: s2.clone() })
            .unwrap()
            .shuffle_grouping("s")
            .unwrap()
            .cost(CostModel {
                base_service_time_us: 5000.0,
                jitter: 0.0,
            });
        let topo = b.build().unwrap();
        let mut cfg = small_config();
        cfg.max_spout_pending = 1;
        let mut e = SimRuntime::new(topo, cfg).unwrap();
        let report = e.run_until(30.0);
        assert_eq!(report.acked, 10);
        assert_eq!(seen.load(Ordering::Relaxed), 10);
        // A 1 ms poll loop over a 30 s horizon would be ~30k events; the
        // wake-driven engine needs only a few per tuple plus timer ticks.
        assert!(
            report.events < 500,
            "blocked spout should not poll: {} events",
            report.events
        );
    }
}

#[cfg(test)]
mod timeout_tests {
    use super::*;
    use crate::component::{Bolt, BoltOutput};
    use crate::topology::{CostModel, TopologyBuilder};
    use crate::tuple::Value;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Spout that records ack/fail callbacks.
    struct TrackingSpout {
        emitted: u64,
        acked: Arc<AtomicU64>,
        failed: Arc<AtomicU64>,
        limit: u64,
    }

    impl Spout for TrackingSpout {
        fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
            let due = (out.now_s() * 2000.0) as u64;
            let batch = due
                .saturating_sub(self.emitted)
                .min(16)
                .min(self.limit.saturating_sub(self.emitted));
            for _ in 0..batch {
                self.emitted += 1;
                out.emit_with_id(Tuple::of([Value::from(self.emitted as i64)]), self.emitted);
            }
            self.emitted < self.limit
        }
        fn ack(&mut self, _id: u64) {
            self.acked.fetch_add(1, Ordering::Relaxed);
        }
        fn fail(&mut self, _id: u64) {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bolt that is far too slow for the offered load.
    struct SlowBolt;
    impl Bolt for SlowBolt {
        fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
    }

    #[test]
    fn overload_with_short_timeout_fails_trees_and_notifies_spout() {
        let acked = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));
        let (a2, f2) = (acked.clone(), failed.clone());
        let mut b = TopologyBuilder::new("timeout");
        b.set_spout("s", 1, move || TrackingSpout {
            emitted: 0,
            acked: a2.clone(),
            failed: f2.clone(),
            limit: u64::MAX,
        })
        .unwrap()
        .cost(CostModel {
            base_service_time_us: 5.0,
            jitter: 0.0,
        });
        // 2000 t/s offered, capacity 1/5ms = 200 t/s: queue grows without
        // bound until timeouts fire.
        b.set_bolt("slow", 1, || SlowBolt)
            .unwrap()
            .shuffle_grouping("s")
            .unwrap()
            .cost(CostModel {
                base_service_time_us: 5_000.0,
                jitter: 0.0,
            });
        let topo = b.build().unwrap();
        let mut cfg = EngineConfig::default().with_cluster(1, 1, 4);
        cfg.message_timeout_s = 2.0;
        cfg.max_spout_pending = 10_000;
        cfg.queue_capacity = 100_000; // disable backpressure: force timeouts
        let mut e = SimRuntime::new(topo, cfg).unwrap();
        let report = e.run_until(20.0);
        assert!(
            report.timed_out > 100,
            "timeouts fired: {}",
            report.timed_out
        );
        assert_eq!(
            failed.load(Ordering::Relaxed),
            report.timed_out,
            "every timeout reached the spout's fail callback"
        );
        assert!(
            acked.load(Ordering::Relaxed) > 0,
            "some trees still complete"
        );
        assert_eq!(report.failed, 0, "no explicit bolt failures");
    }

    #[test]
    fn explicit_bolt_failure_reaches_spout() {
        struct FailEveryOther {
            n: u64,
        }
        impl Bolt for FailEveryOther {
            fn execute(&mut self, _t: &Tuple, out: &mut BoltOutput) {
                self.n += 1;
                if self.n.is_multiple_of(2) {
                    out.fail();
                }
            }
        }
        let acked = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));
        let (a2, f2) = (acked.clone(), failed.clone());
        let mut b = TopologyBuilder::new("failures");
        b.set_spout("s", 1, move || TrackingSpout {
            emitted: 0,
            acked: a2.clone(),
            failed: f2.clone(),
            limit: 200,
        })
        .unwrap();
        b.set_bolt("flaky", 1, || FailEveryOther { n: 0 })
            .unwrap()
            .shuffle_grouping("s")
            .unwrap();
        let topo = b.build().unwrap();
        let mut e = SimRuntime::new(topo, EngineConfig::default().with_cluster(1, 1, 4)).unwrap();
        let report = e.run_until(30.0);
        assert_eq!(report.acked + report.failed, 200);
        assert_eq!(report.failed, 100);
        assert_eq!(failed.load(Ordering::Relaxed), 100);
        assert_eq!(acked.load(Ordering::Relaxed), 100);
    }
}
