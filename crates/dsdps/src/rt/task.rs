//! Spout and bolt thread loops: the thread around the crate's shared
//! [`SpoutTask`] and [`BoltTask`] — clock reads, output buffers, the
//! thread's acker ops, spans, per-task counters and sleeping.
//!
//! Every loop iteration stores a heartbeat and checks its generation
//! against the task slot's current one: the supervisor bumps the generation
//! when it supersedes a hung thread, and the superseded thread exits
//! silently at the next check without touching the slot's liveness flags.
//! Scheduled faults (panic / hang / drop / slowdown) are consulted from
//! [`Shared::fault`] so both loops misbehave on cue; see
//! [`fault`](super::fault) for the exact semantics.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use parking_lot::Mutex;

use crate::acker::{AckOps, TreeOutcome};
use crate::bolt_task::BoltTask;
use crate::checkpoint::CheckpointStore;
use crate::component::{Bolt, Spout, TopologyContext};
use crate::lifecycle;
use crate::route::FanOut;
use crate::spout_task::{Next, Released, SpoutTask};
use crate::telemetry::JournalEvent;

use super::batch::Batch;
use super::fault::SLOWDOWN_FLOOR_NANOS;
use super::router::Router;
use super::Shared;

/// Cumulative per-task counters (written by the task thread, read by the
/// metrics and supervisor threads).
#[derive(Default)]
pub(crate) struct TaskAtomics {
    pub(super) executed: AtomicU64,
    pub(super) emitted: AtomicU64,
    pub(super) failed: AtomicU64,
    pub(super) busy_nanos: AtomicU64,
    pub(super) queue_len: AtomicUsize,
    /// Output batches flushed downstream.
    pub(super) batches_flushed: AtomicU64,
    /// Of those, flushes triggered by the linger deadline rather than a full
    /// buffer.
    pub(super) linger_flushes: AtomicU64,
    /// Tuples delivered into the task by tasks of other workers.
    pub(super) received: AtomicU64,
    /// Tuples this task delivered to tasks of other workers.
    pub(super) sent_remote: AtomicU64,
    /// Panics caught in this task slot (any generation).
    pub(super) panics: AtomicU64,
    /// Supervisor restarts of this task slot.
    pub(super) restarts: AtomicU64,
    /// Nanoseconds since runtime start at the last loop iteration — the
    /// liveness heartbeat.
    pub(super) heartbeat_ns: AtomicU64,
    /// Generation of the thread currently owning the slot; stale threads
    /// observe a mismatch and retire.
    pub(super) generation: AtomicU64,
    /// Thread running (set by the spawner, cleared on exit by the current
    /// generation only).
    pub(super) alive: AtomicBool,
    /// Task body returned normally (spout exhausted / shutdown) — not a
    /// crash, so the supervisor must not restart it.
    pub(super) finished: AtomicBool,
    /// Every producer of this task has exited (set by shutdown's drain):
    /// what is in the input queue now is all the task will get.
    pub(super) inputs_closed: AtomicBool,
    /// Message of the most recent caught panic.
    pub(super) last_panic: Mutex<Option<String>>,
    /// Checkpoints deposited by this task slot (any generation).
    pub(super) checkpoints_taken: AtomicU64,
    /// Snapshot restores performed by restarted generations of this slot.
    pub(super) restores: AtomicU64,
    /// Serialized snapshot bytes deposited by this slot.
    pub(super) snapshot_bytes: AtomicU64,
}

/// Applies queued acker ops and delivers whatever outcomes they completed.
/// `slot` is the caller's private tracer slot (its task id, or the metrics
/// slot).
pub(super) fn apply_and_deliver(shared: &Shared, ops: &mut AckOps, slot: usize) {
    ops.apply(&shared.ackers);
    if ops.has_outcomes() {
        deliver_outcomes(shared, ops.take_outcomes(), slot);
    }
}

/// Hands completed trees to the spouts that own them, one batched message
/// per spout per drain; the spout's tree lifecycle does the accounting.
pub(super) fn deliver_outcomes(shared: &Shared, outcomes: Vec<TreeOutcome>, slot: usize) {
    lifecycle::deliver_outcomes(&shared.tracer, slot, outcomes, |spout, mine| {
        if let Some(tx) = &shared.feedback[spout] {
            let _ = tx.send(mine);
        }
    });
}

/// Fires scheduled panic/hang faults for this task.  Returns `false` when
/// the thread was superseded while hanging and must exit.
fn inject_control_faults(shared: &Shared, tid: usize, my_gen: u64) -> bool {
    let Some(inj) = shared.fault.as_ref() else {
        return true;
    };
    let now = shared.now_s();
    if inj.take_panic(tid, now) {
        // Journal before unwinding; parking_lot mutexes do not poison, so
        // the journal stays usable after the panic is caught.
        shared.journal.append(JournalEvent::FaultInjected {
            time_s: now,
            task: tid,
            kind: "panic".to_string(),
        });
        panic!("injected fault: panic in task {tid} at {now:.3}s");
    }
    if let Some(until_s) = inj.take_hang(tid, now) {
        shared.journal.append(JournalEvent::FaultInjected {
            time_s: now,
            task: tid,
            kind: "hang".to_string(),
        });
        // Hang: no heartbeats, no progress — until the window closes, the
        // supervisor supersedes this thread, or shutdown.
        while !shared.stop.is_set() && !shared.superseded(tid, my_gen) && shared.now_s() < until_s {
            shared.stop.wait(Duration::from_millis(2));
        }
        return !shared.superseded(tid, my_gen);
    }
    true
}

/// Busy-spins out the extra service time of an active worker slowdown, so
/// the injected degradation burns CPU and is visible in execute latency.
fn inject_service_slowdown(shared: &Shared, tid: usize, t0: Instant) {
    let Some(inj) = shared.fault.as_ref() else {
        return;
    };
    let factor = inj.slowdown_factor(tid, shared.now_s());
    if factor <= 1.0 {
        return;
    }
    let base = t0.elapsed().max(Duration::from_nanos(SLOWDOWN_FLOOR_NANOS));
    let spin_until = Instant::now() + base.mul_f64(factor - 1.0);
    while Instant::now() < spin_until && !shared.stop.is_set() {
        std::hint::spin_loop();
    }
}

/// Takes a checkpoint of `task` when its cycle says one is due: deposit the
/// snapshot, then queue the ack records it covers into `ops`.
fn checkpoint(
    task: &mut BoltTask,
    store: &CheckpointStore,
    shared: &Shared,
    tid: usize,
    my_gen: u64,
    ops: &mut AckOps,
    force: bool,
) {
    let taken_at_s = shared.now_s();
    let Some(deposit) = task.take(taken_at_s, force) else {
        return;
    };
    let duration_us = ((shared.now_s() - taken_at_s) * 1e6) as u64;
    let (snapshot, dedup) = (deposit.snapshot, deposit.dedup);
    let stored = store.deposit(tid, my_gen, taken_at_s, snapshot, dedup, duration_us);
    // Refused means superseded mid-checkpoint: a newer generation owns the
    // entry.  The withheld acks die with this thread; the unacked trees time
    // out and replay against the successor, which is the withholding
    // contract.
    let Some(bytes) = stored else {
        return;
    };
    let s = &shared.task_stats[tid];
    s.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
    s.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
    shared.counters.checkpoint_last_us.set(duration_us as f64);
    let now_s = shared.now_s();
    for record in deposit.released {
        ops.record(record, now_s);
    }
}

/// Restores a restarted bolt from the checkpoint store and journals how it
/// went: `state_restored`, or `state_lost` when the bolt keeps no state, the
/// store has nothing for it, or the snapshot does not decode (as good as no
/// snapshot: the task runs factory-fresh).
fn restore(task: &mut BoltTask, shared: &Shared, tid: usize, my_gen: u64) {
    let (Some(store), Some((policy, _))) = (shared.checkpoints.as_ref(), shared.recovery()) else {
        return;
    };
    let t0 = Instant::now();
    let loaded = if task.is_checkpointed() {
        store.load(tid, my_gen)
    } else {
        None
    };
    let Some(from) = loaded else {
        store.restored(tid, my_gen, shared.now_s(), None);
        return;
    };
    if let Some(cut) = policy.doom_cut(from.taken_at_s) {
        for trees in shared.spouts.iter() {
            trees.lock().doom_tracked_before(cut);
        }
    }
    let latency_us = task.restore(from).then(|| {
        let latency_us = t0.elapsed().as_micros() as u64;
        shared.counters.restore_last_us.set(latency_us as f64);
        shared.task_stats[tid]
            .restores
            .fetch_add(1, Ordering::Relaxed);
        latency_us
    });
    store.restored(tid, my_gen, shared.now_s(), latency_us);
}

/// Body of a spout thread: steps the shared [`SpoutTask`] and keeps what is
/// this runtime's — heartbeat, supersession, faults, the output buffers, the
/// thread's acker ops, the emit span, the task's counters and the sleeping.
pub(super) fn run_spout(
    spout: Box<dyn Spout>,
    ctx: TopologyContext,
    tid: usize,
    my_gen: u64,
    fan: FanOut,
    shared: Arc<Shared>,
    ack_rx: Receiver<Vec<TreeOutcome>>,
) {
    let dedup = shared.recovery().is_some_and(|(policy, _)| policy.dedup);
    let mut task = SpoutTask::new(spout, &ctx, fan, &shared.engine, dedup, shared.now_s());
    let mut ops = AckOps::new(shared.ackers.num_shards());
    let mut router = Router::new(tid, &shared);
    if let (true, Some(store)) = (my_gen > 0, shared.checkpoints.as_ref()) {
        // Spouts are rebuilt from their factory on every restart — only the
        // tree lifecycle (which lives in `Shared`) survives.  Report the
        // instance-state loss so recovery audits see every restart path,
        // including hang supersession.
        store.restored(tid, my_gen, shared.now_s(), None);
    }
    while !shared.stop.is_set() {
        shared.beat(tid);
        if shared.superseded(tid, my_gen) {
            return;
        }
        if !inject_control_faults(&shared, tid, my_gen) {
            return;
        }
        let now_s = shared.now_s();
        let t0 = Instant::now();
        let feedback = std::iter::from_fn(|| ack_rx.try_recv().ok()).flatten();
        let trees = &shared.spouts[tid];
        let cap = shared.rate_cap();
        let stepped = task.step(now_s, cap, &shared.next_root, trees, feedback, |released| {
            match released {
                // Queued, not applied: every send out of `router` applies the
                // queued ops first.
                Released::Track(t) => t.register(tid, now_s, &mut ops, &shared.tracer),
                Released::Delivery(dest, d) => router.push(dest, d, &shared, &mut ops),
            }
        });
        if stepped.emitted > 0 {
            inject_service_slowdown(&shared, tid, t0);
            shared.counters.run.spout_emitted.add(stepped.emitted);
            let s = &shared.task_stats[tid];
            s.executed.fetch_add(stepped.emitted, Ordering::Relaxed);
            s.busy_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        // Keep buffered output moving whatever the verdict: while the spout
        // waits, the in-flight count drains only if its tuples leave.
        router.flush_expired(Instant::now(), &shared, &mut ops);
        apply_and_deliver(&shared, &mut ops, tid);
        // A spout that exhausted its input stays alive (draining acks and
        // replaying lost trees) until every message is resolved or shutdown.
        let nap = match stepped.next {
            Next::Ran => continue,
            Next::Done => break,
            Next::Gated => Duration::from_micros(200),
            Next::Idle => Duration::from_micros(500),
            // Bounded so timeouts and cap changes are still noticed
            // promptly; shutdown ends the nap at once.
            Next::Wait(s) => Duration::from_secs_f64(s.max(0.0))
                .clamp(Duration::from_micros(50), Duration::from_millis(5)),
        };
        shared.stop.wait(nap);
    }
    router.flush_all(&shared, &mut ops);
    apply_and_deliver(&shared, &mut ops, tid);
    task.close();
}

/// Body of a bolt thread.
pub(super) fn run_bolt(
    bolt: Box<dyn Bolt>,
    ctx: TopologyContext,
    tid: usize,
    my_gen: u64,
    fan: FanOut,
    shared: Arc<Shared>,
    rx: Receiver<Batch>,
) {
    let cfg = &shared.engine;
    // The task gets a checkpoint cycle only when this bolt is stateful *and*
    // checkpointing is configured, so stock runs never touch the store.
    let mut task = BoltTask::new(bolt, &ctx, fan, shared.recovery(), shared.now_s());
    let ckpt_on = task.is_checkpointed();
    let mut ops = AckOps::new(shared.ackers.num_shards());
    let mut router = Router::new(tid, &shared);
    if my_gen > 0 {
        restore(&mut task, &shared, tid, my_gen);
    }
    let tick = if cfg.tick_interval_s > 0.0 {
        Duration::from_secs_f64(cfg.tick_interval_s)
    } else {
        Duration::from_millis(100)
    };
    let ticks_enabled = cfg.tick_interval_s > 0.0;
    let mut last_tick = Instant::now();
    let base_timeout = Duration::from_millis(20);
    let trace_on = shared.tracer.enabled();
    // Sequence number of delivered batches within this task, stamped into
    // hop spans so a trace shows which tuples shared a batch.
    let mut batch_seq: u64 = 0;
    loop {
        shared.beat(tid);
        if shared.superseded(tid, my_gen) {
            return;
        }
        if !inject_control_faults(&shared, tid, my_gen) {
            return;
        }
        // Wake in time to honor pending linger deadlines.
        let timeout = match router.next_deadline() {
            Some(d) => base_timeout.min(d.saturating_duration_since(Instant::now())),
            None => base_timeout,
        };
        match rx.recv_timeout(timeout) {
            // Shutdown's end-of-input marker, queued behind the last batch
            // of this task's producers.  Not data: no queue-wait sample.
            Ok(marker) if marker.items.is_empty() => break,
            Ok(Batch {
                items: batch,
                sent_at_us: batch_sent_us,
                remote,
            }) => {
                let s = &shared.task_stats[tid];
                s.queue_len.store(rx.len(), Ordering::Relaxed);
                if remote {
                    s.received.fetch_add(batch.len() as u64, Ordering::Relaxed);
                }
                // Without an injector, heartbeat / clock / busy timing happen
                // once per batch: the loop head already beat for this
                // iteration, and batch size bounds how long a batch can run.
                // With faults injected, drops, slowdowns and hang detection
                // need per-tuple clock reads, so the original per-tuple
                // bookkeeping is kept on that path.
                let faults_on = shared.fault.is_some();
                let mut now_s = shared.now_s();
                let batch_t0 = Instant::now();
                // One clock read per batch covers the batch queue-wait sample
                // (always on, even with tracing off) and the queue-wait math
                // of any traced tuples.
                let batch_recv_us = shared.now_us();
                shared.record_queue_wait(tid, batch_recv_us.saturating_sub(batch_sent_us));
                batch_seq += 1;
                let mut executed = 0u64;
                let mut failed_n = 0u64;
                let mut slow_busy = 0u64;
                for delivered in batch {
                    let input = delivered.delivery;
                    // Sampled tuples take the per-tuple clock path (like
                    // faults) so their spans get real execute times.
                    let traced_root = if trace_on {
                        input
                            .anchor
                            .map(|(r, _)| r)
                            .filter(|&r| shared.tracer.sampled(r))
                    } else {
                        None
                    };
                    let t0 = if faults_on {
                        shared.beat(tid);
                        now_s = shared.now_s();
                        if shared
                            .fault
                            .as_ref()
                            .is_some_and(|inj| inj.should_drop(tid, now_s))
                        {
                            // Dropped on the floor: neither acked nor failed,
                            // so the tree times out and the spout replays it.
                            shared.counters.dropped.inc();
                            continue;
                        }
                        Some(Instant::now())
                    } else if traced_root.is_some() {
                        Some(Instant::now())
                    } else {
                        None
                    };
                    let hop_start_us = if traced_root.is_some() {
                        shared.now_us()
                    } else {
                        0
                    };
                    // A delivery may leave before the step's record is even
                    // queued: the records of a tree commute.
                    let (anchor, dedup) = (input.anchor, input.dedup);
                    let step = task.step(&input.tuple, anchor, dedup, now_s, |dest, delivery| {
                        router.push(dest, delivery, &shared, &mut ops)
                    });
                    // A replay of an applied input was not run again, but its
                    // edge still acks so the replayed tree completes.
                    if step.executed {
                        if let Some(t0) = t0 {
                            inject_service_slowdown(&shared, tid, t0);
                            if faults_on {
                                slow_busy += t0.elapsed().as_nanos() as u64;
                            }
                        }
                        if let Some(root) = traced_root {
                            let queue_wait_us = if delivered.sent_at_us == 0 {
                                0
                            } else {
                                batch_recv_us.saturating_sub(delivered.sent_at_us)
                            };
                            let exec_us = t0.map_or(0, |t| t.elapsed().as_micros() as u64);
                            shared.tracer.record_hop(
                                tid,
                                root,
                                tid,
                                hop_start_us,
                                queue_wait_us,
                                exec_us,
                                batch_seq,
                            );
                        }
                        executed += 1;
                        failed_n += step.failed as u64;
                    }
                    // A stateful task's record may have to wait until the
                    // effect is durable: the next checkpoint releases it.
                    if let Some(record) = step.record {
                        ops.record(record, now_s);
                    }
                }
                let busy = if faults_on {
                    slow_busy
                } else {
                    batch_t0.elapsed().as_nanos() as u64
                };
                s.executed.fetch_add(executed, Ordering::Relaxed);
                s.busy_nanos.fetch_add(busy, Ordering::Relaxed);
                if failed_n > 0 {
                    s.failed.fetch_add(failed_n, Ordering::Relaxed);
                }
                router.flush_expired(Instant::now(), &shared, &mut ops);
                apply_and_deliver(&shared, &mut ops, tid);
            }
            Err(RecvTimeoutError::Timeout) => {
                // Input closed and drained, yet no marker: a superseded
                // thread took it.
                if shared.task_stats[tid].inputs_closed.load(Ordering::Relaxed) {
                    break;
                }
                if router.has_pending() || !ops.is_empty() {
                    router.flush_expired(Instant::now(), &shared, &mut ops);
                    apply_and_deliver(&shared, &mut ops, tid);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if let Some(store) = shared.checkpoints.as_ref().filter(|_| ckpt_on) {
            // The input log is appended only after the batch's acks applied:
            // a crash between batches finds log and acked frontier aligned.
            for input in task.drain_log() {
                store.append_input(tid, my_gen, input);
            }
            // The interval is checked while idle too, so acks withheld by
            // the last partial batch still drain.
            checkpoint(&mut task, store, &shared, tid, my_gen, &mut ops, false);
            apply_and_deliver(&shared, &mut ops, tid);
        }
        if ticks_enabled && last_tick.elapsed() >= tick {
            last_tick = Instant::now();
            task.tick(shared.now_s(), |dest, delivery| {
                router.push(dest, delivery, &shared, &mut ops)
            });
        }
    }
    if let Some(store) = shared.checkpoints.as_ref() {
        // Final snapshot on clean shutdown: captures state mutated since the
        // last one and releases any still-withheld acks (the spout-side
        // reconciliation in `join_all` picks them up).
        checkpoint(&mut task, store, &shared, tid, my_gen, &mut ops, true);
    }
    router.flush_all(&shared, &mut ops);
    apply_and_deliver(&shared, &mut ops, tid);
    task.cleanup();
}
