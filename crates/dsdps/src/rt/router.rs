//! The per-destination output buffers of one task thread: the task's
//! [`FanOut`](crate::route::FanOut) picks the tasks and makes the
//! deliveries, these batch what each destination gets.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crossbeam::channel::SendTimeoutError;

use crate::acker::AckOps;
use crate::route::Delivery;
use crate::topology::TaskId;

use super::batch::{Batch, Delivered};
use super::Shared;

/// What triggered a batch flush (recorded in the task's flush counters).
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    /// The buffer reached `batch_size`.
    Full,
    /// The oldest buffered tuple hit the linger deadline.
    Linger,
    /// Task drain: idle spout, shutdown, or end of input.
    Final,
}

#[derive(Default)]
struct Buf {
    items: Vec<Delivered>,
    /// When the oldest currently-buffered entry arrived.
    since: Option<Instant>,
}

/// Buffers the deliveries of one task thread per destination.  Every send
/// goes through [`flush_dest`](Self::flush_dest), which first applies the
/// thread's queued acker ops — so a spout's `Track` is applied before its
/// batch leaves, in one place.
pub(super) struct Router {
    batch_size: usize,
    linger: Duration,
    bufs: Vec<Buf>,
    /// Count of non-empty buffers, for cheap idle checks.
    nonempty: usize,
    /// Global id of the owning task.
    task: usize,
    /// Cached `shared.tracer.enabled()`: one branch per delivery decides
    /// whether to stamp send timestamps for queue-wait measurement.
    trace_on: bool,
}

impl Router {
    /// Builds the output buffers of global task `tid`.
    pub(super) fn new(tid: usize, shared: &Shared) -> Self {
        Self {
            batch_size: shared.rt.batch_size.max(1),
            linger: shared.rt.linger,
            bufs: (0..shared.inputs.len()).map(|_| Buf::default()).collect(),
            nonempty: 0,
            task: tid,
            trace_on: shared.tracer.enabled(),
        }
    }

    /// Buffers one delivery for `dest`, flushing inline if the buffer fills
    /// (with `batch_size == 1` this degenerates to one blocking send per
    /// instance, exactly the unbatched behavior).  A spout queues the
    /// `Track` of a delivery's tree before it pushes the delivery.
    pub(super) fn push(
        &mut self,
        dest: usize,
        delivery: Delivery,
        shared: &Shared,
        ops: &mut AckOps,
    ) {
        // Stamped only for traced trees; untraced tuples carry 0 and the
        // consumer skips queue-wait math entirely.
        let sent_at_us = match delivery.anchor {
            Some((root, _)) if self.trace_on && shared.tracer.sampled(root) => shared.now_us(),
            _ => 0,
        };
        let emitted = &shared.task_stats[self.task].emitted;
        emitted.fetch_add(1, Ordering::Relaxed);
        let buf = &mut self.bufs[dest];
        if buf.items.is_empty() {
            buf.since = Some(Instant::now());
            self.nonempty += 1;
        }
        buf.items.push(Delivered {
            delivery,
            sent_at_us,
        });
        if buf.items.len() >= self.batch_size {
            self.flush_dest(dest, shared, ops, FlushReason::Full);
        }
    }

    /// Sends `dest`'s buffered batch downstream, blocking (heartbeating)
    /// while `dest`'s bounded queue is full; its capacity counts batches.
    /// The batch is given up only once `dest`'s thread has exited: after
    /// stop, a live consumer still drains its queue, since shutdown joins
    /// it only after this producer.
    fn flush_dest(&mut self, dest: usize, shared: &Shared, ops: &mut AckOps, reason: FlushReason) {
        let buf = &mut self.bufs[dest];
        if buf.items.is_empty() {
            return;
        }
        // The acker must know every tree rooted in this batch before
        // downstream can react.
        ops.apply(&shared.ackers);
        let batch = std::mem::take(&mut buf.items);
        buf.since = None;
        self.nonempty -= 1;
        let stats = &shared.task_stats[self.task];
        stats.batches_flushed.fetch_add(1, Ordering::Relaxed);
        if reason == FlushReason::Linger {
            stats.linger_flushes.fetch_add(1, Ordering::Relaxed);
        }
        let worker_of = |task| shared.placement.worker_of(TaskId(task));
        let remote = worker_of(dest) != worker_of(self.task);
        if remote {
            stats
                .sent_remote
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        let mut msg = Batch {
            items: batch,
            sent_at_us: shared.now_us(),
            remote,
        };
        loop {
            match shared.inputs[dest].send_timeout(msg, Duration::from_millis(50)) {
                Ok(()) => break,
                Err(SendTimeoutError::Timeout(back)) => {
                    if shared.stop.is_set() && !shared.task_stats[dest].alive.load(Ordering::SeqCst)
                    {
                        break;
                    }
                    // Blocked on backpressure is not hung: keep heartbeating
                    // so the supervisor does not supersede this task.
                    shared.beat(self.task);
                    msg = back;
                }
                Err(SendTimeoutError::Disconnected(_)) => break,
            }
        }
    }

    /// Flushes every buffer whose oldest entry has lingered past the
    /// deadline.
    pub(super) fn flush_expired(&mut self, now: Instant, shared: &Shared, ops: &mut AckOps) {
        if self.nonempty == 0 {
            return;
        }
        for dest in 0..self.bufs.len() {
            if let Some(since) = self.bufs[dest].since {
                if now.duration_since(since) >= self.linger {
                    self.flush_dest(dest, shared, ops, FlushReason::Linger);
                }
            }
        }
    }

    /// Flushes everything (task drain / shutdown).
    pub(super) fn flush_all(&mut self, shared: &Shared, ops: &mut AckOps) {
        if self.nonempty == 0 {
            return;
        }
        for dest in 0..self.bufs.len() {
            self.flush_dest(dest, shared, ops, FlushReason::Final);
        }
    }

    /// Earliest linger deadline across non-empty buffers, if any.
    pub(super) fn next_deadline(&self) -> Option<Instant> {
        if self.nonempty == 0 {
            return None;
        }
        self.bufs
            .iter()
            .filter_map(|b| b.since)
            .min()
            .map(|since| since + self.linger)
    }

    pub(super) fn has_pending(&self) -> bool {
        self.nonempty > 0
    }
}
