//! Panic isolation and supervision of task threads.
//!
//! Every task thread runs inside [`catch_unwind`]: a panic (from user code
//! or an injected fault) is recorded in the task's counters instead of
//! silently killing the thread.  A supervisor thread polls each task slot
//! and restarts tasks that
//!
//! * **died** — the thread exited without marking itself finished (i.e. it
//!   panicked), or
//! * **hung** — the thread is nominally alive but its heartbeat is older
//!   than [`RtConfig::hang_timeout`].
//!
//! A restart builds a *fresh* component instance from the topology's
//! factory and re-wires it to the task's existing channel receiver (the
//! crossbeam receivers are clonable), so tuples queued while the task was
//! down are processed by the replacement.  Hung threads cannot be killed;
//! they are *superseded* — the slot's generation is bumped, and the old
//! thread retires itself at its next generation check.  Trees lost in the
//! crash time out at the acker and come back through the spout's tree
//! lifecycle, which is owned by [`Shared`], not the thread.
//!
//! [`catch_unwind`]: std::panic::catch_unwind
//! [`RtConfig::hang_timeout`]: super::RtConfig::hang_timeout
//! [`Shared`]: super::Shared

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use crate::acker::TreeOutcome;
use crate::component::TopologyContext;
use crate::telemetry::JournalEvent;
use crate::topology::{ComponentId, ComponentKind, Topology};

use super::batch::Batch;
use super::task;
use super::Shared;
use crate::route::FanOut;
use crate::spawn_thread;

/// Everything needed to (re)spawn one task on a fresh thread.
pub(super) struct TaskSpec {
    pub(super) topology: Arc<Topology>,
    pub(super) component_id: ComponentId,
    pub(super) task_index: usize,
    pub(super) tid: usize,
    /// Input receiver (bolts).  Cloned per spawn; clones share the queue.
    pub(super) input: Option<Receiver<Batch>>,
    /// Ack-feedback receiver (spouts).
    pub(super) ack_input: Option<Receiver<Vec<TreeOutcome>>>,
}

impl TaskSpec {
    /// Spawns the task thread for `generation`, wrapped in panic isolation.
    /// The caller must have already published `generation` and `alive` in
    /// the task's atomics.
    pub(super) fn spawn(&self, shared: &Arc<Shared>, generation: u64) -> JoinHandle<()> {
        let component = self.topology.component(self.component_id);
        let ctx = TopologyContext {
            component: component.name.clone(),
            task_index: self.task_index,
            parallelism: component.parallelism,
        };
        // Edge ids differ per task and incarnation: a superseded thread may
        // still be routing when its successor starts.
        let edge_seed = (self.tid as u64) << 32 | generation;
        let fan = FanOut::new(&self.topology, component, self.task_index, edge_seed);
        let shared = shared.clone();
        let tid = self.tid;
        let name = format!("rt-{}-{}", component.name, self.task_index);
        let spawned = match &component.kind {
            ComponentKind::Spout(factory) => {
                let spout = factory();
                let ack_rx = self.ack_input.clone().expect("spout ack receiver");
                spawn_thread(name, move || {
                    guard(&shared, tid, generation, move |shared| {
                        task::run_spout(spout, ctx, tid, generation, fan, shared, ack_rx)
                    });
                })
            }
            ComponentKind::Bolt(factory) => {
                let bolt = factory();
                let rx = self.input.clone().expect("bolt input receiver");
                spawn_thread(name, move || {
                    guard(&shared, tid, generation, move |shared| {
                        task::run_bolt(bolt, ctx, tid, generation, fan, shared, rx)
                    });
                })
            }
        };
        spawned.expect("spawn task thread")
    }
}

/// Runs a task body under `catch_unwind`, recording panics and maintaining
/// the slot's liveness flags — but only while this thread still owns the
/// slot (a superseded thread must not clobber its replacement's state).
fn guard(shared: &Arc<Shared>, tid: usize, generation: u64, body: impl FnOnce(Arc<Shared>)) {
    let result = catch_unwind(AssertUnwindSafe(|| body(shared.clone())));
    let s = &shared.task_stats[tid];
    match result {
        Ok(()) => {
            if s.generation.load(Ordering::SeqCst) == generation {
                s.finished.store(true, Ordering::SeqCst);
            }
        }
        Err(payload) => {
            s.panics.fetch_add(1, Ordering::SeqCst);
            shared.counters.task_panics.inc();
            *s.last_panic.lock() = Some(panic_message(payload.as_ref()));
        }
    }
    if s.generation.load(Ordering::SeqCst) == generation {
        s.alive.store(false, Ordering::SeqCst);
    }
}

/// Best-effort text of a panic payload.
pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".into()
    }
}

/// One supervised task slot.
pub(super) struct Slot {
    pub(super) spec: TaskSpec,
    /// Handle of the current-generation thread.
    pub(super) handle: Option<JoinHandle<()>>,
    pub(super) generation: u64,
    /// Superseded (hung) threads.  They retire on their own once they notice
    /// the generation bump or shutdown; their handles are dropped unjoined
    /// at shutdown so a truly wedged thread cannot block it.
    pub(super) abandoned: Vec<JoinHandle<()>>,
}

/// Shared task-slot table: the submit path fills it, the supervisor thread
/// restarts through it, shutdown joins through it.
#[derive(Default)]
pub(crate) struct Supervision {
    pub(super) slots: Mutex<Vec<Slot>>,
}

/// Supervisor loop: polls task liveness and restarts dead/hung tasks until
/// shutdown.
pub(super) fn run_supervisor(shared: Arc<Shared>, sup: Arc<Supervision>) {
    let rt_cfg = &shared.rt;
    let poll = Duration::from_millis(10).min(rt_cfg.hang_timeout / 2);
    let hang_ns = rt_cfg.hang_timeout.as_nanos() as u64;
    while !shared.stop.wait(poll) {
        let mut slots = sup.slots.lock();
        let now_ns = shared.start.elapsed().as_nanos() as u64;
        for slot in slots.iter_mut() {
            if shared.stop.is_set() {
                break;
            }
            let tid = slot.spec.tid;
            let s = &shared.task_stats[tid];
            if s.finished.load(Ordering::SeqCst) {
                continue;
            }
            let alive = s.alive.load(Ordering::SeqCst);
            let dead = !alive;
            let hung =
                alive && now_ns.saturating_sub(s.heartbeat_ns.load(Ordering::Relaxed)) > hang_ns;
            if !(dead || hung) {
                continue;
            }
            if s.restarts.load(Ordering::SeqCst) >= rt_cfg.max_restarts as u64 {
                continue;
            }
            // Supersede the old thread and restart from the factory.
            slot.generation += 1;
            shared.journal.append(JournalEvent::TaskRestart {
                time_s: shared.now_s(),
                task: tid,
                generation: slot.generation,
                reason: if dead { "dead" } else { "hung" }.to_string(),
            });
            s.generation.store(slot.generation, Ordering::SeqCst);
            s.restarts.fetch_add(1, Ordering::SeqCst);
            shared.counters.task_restarts.inc();
            s.alive.store(true, Ordering::SeqCst);
            s.heartbeat_ns.store(now_ns, Ordering::Relaxed);
            match slot.handle.take() {
                Some(h) if dead => {
                    // Thread already exited; reap it (its panic is recorded).
                    let _ = h.join();
                }
                Some(h) => slot.abandoned.push(h),
                None => {}
            }
            slot.handle = Some(slot.spec.spawn(&shared, slot.generation));
        }
    }
}
