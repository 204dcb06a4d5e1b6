//! Tuple batching: per-destination output buffers and amortized acker ops.
//!
//! Two invariants keep batching exactly as reliable as per-tuple delivery:
//!
//! 1. **Apply-before-send.**  Acker bookkeeping ops (`track`/`on_emit`/
//!    `on_ack`/`on_fail`) queue up in an [`AckOps`] list in program order and
//!    are applied under the acker shard locks before any batch leaves the
//!    thread.  A downstream task can therefore never ack an edge the acker
//!    has not yet seen, which would orphan the tree until timeout.
//! 2. **Apply-at-iteration-end.**  Whatever ops remain after routing (acks
//!    for tuples still sitting in buffers, self-acks for unroutable
//!    emissions) are applied once per spout/bolt iteration, so the relative
//!    order of a task's own ops is preserved while each shard lock is taken
//!    O(1) times per batch instead of O(n) times per tuple.
//!
//! With the acker striped over `N` shards ([`ShardedAcker`]), `AckOps`
//! partitions queued ops by `root % N` and applies each partition under its
//! own shard lock.  All ops on one root stay in one partition in queue
//! order, so per-root ordering is preserved; ops on different roots commute
//! (independent XOR accumulators), so interleaving across partitions is
//! harmless.  Completed-tree outcomes are drained *while the shard lock is
//! still held*, which is what lets other threads skip busy shards when they
//! scavenge outcomes: the op-applier takes its own completions home.
//!
//! [`ShardedAcker`]: crate::acker::ShardedAcker

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crossbeam::channel::{SendTimeoutError, Sender};

use crate::acker::{RootId, ShardedAcker, TreeOutcome};
use crate::component::MessageId;
use crate::topology::TaskId;
use crate::tuple::Tuple;

use super::Shared;

/// A tuple instance delivered to a task, with its acker anchor.
pub(super) struct Delivered {
    pub(super) tuple: Tuple,
    pub(super) anchor: Option<(RootId, u64)>,
    /// Runtime clock (µs) when the producer routed this instance; `0` unless
    /// the tuple's tree is being traced.  The consumer subtracts this from
    /// its batch-receive time to get the span's queue wait.
    pub(super) sent_at_us: u64,
    /// Spout message id the consumer dedups on.  Only set for
    /// spout-emitted tuples under the exactly-once-effect recovery mode;
    /// `None` everywhere else (including all bolt-to-bolt hops).
    pub(super) dedup: Option<MessageId>,
}

/// What travels on a task's input channel: one flushed batch of tuples plus
/// a send timestamp.  Unlike the per-tuple [`Delivered::sent_at_us`] (traced
/// trees only), the batch stamp is always set — one clock read per flush and
/// one per receive give every batch a queue-wait sample, which is the
/// always-on signal the adaptive spout throttle steers on.
pub(super) struct Batch {
    pub(super) items: Vec<Delivered>,
    /// Runtime clock (µs) when the producer handed this batch to the channel.
    pub(super) sent_at_us: u64,
}

/// Message to a spout thread about one of its tuple trees.  Travels in
/// batches (`Vec<AckMsg>`) so completions amortize like data tuples.
pub(super) enum AckMsg {
    Ack(MessageId),
    Fail(MessageId),
}

/// One deferred acker operation.  Timestamps are captured when the op is
/// queued, so deferring application does not skew latency accounting.
pub(crate) enum AckOp {
    Track {
        root: RootId,
        spout_task: TaskId,
        message_id: MessageId,
        now_s: f64,
    },
    Emit {
        root: RootId,
        edge: u64,
    },
    Ack {
        root: RootId,
        edge: u64,
        now_s: f64,
    },
    Fail {
        root: RootId,
        now_s: f64,
    },
}

impl AckOp {
    /// Root of the tree this op belongs to (the shard key).
    #[inline]
    fn root(&self) -> RootId {
        match self {
            AckOp::Track { root, .. }
            | AckOp::Emit { root, .. }
            | AckOp::Ack { root, .. }
            | AckOp::Fail { root, .. } => *root,
        }
    }
}

/// Deferred acker ops owned by one task thread, partitioned by acker shard.
///
/// Ops on the same root land in the same partition in push order, so the
/// emit-before-ack ordering the XOR accounting needs survives partitioning.
pub(crate) struct AckOps {
    per_shard: Vec<Vec<AckOp>>,
    len: usize,
    /// Completed-tree outcomes drained while applying (delivered by the
    /// owning task at iteration end).
    outcomes: Vec<TreeOutcome>,
}

impl AckOps {
    /// An op queue partitioned over `num_shards` acker stripes.
    pub(crate) fn new(num_shards: usize) -> Self {
        Self {
            per_shard: (0..num_shards.max(1)).map(|_| Vec::new()).collect(),
            len: 0,
            outcomes: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, op: AckOp) {
        let shard = (op.root() % self.per_shard.len() as u64) as usize;
        self.per_shard[shard].push(op);
        self.len += 1;
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Applies all queued ops, taking each dirty shard's lock exactly once
    /// and applying that shard's ops in queue order.  Outcomes completed by
    /// these ops are drained under the same lock acquisition and held in
    /// this queue until [`take_outcomes`](Self::take_outcomes).
    pub(crate) fn apply(&mut self, ackers: &ShardedAcker) {
        if self.len == 0 {
            return;
        }
        for (idx, ops) in self.per_shard.iter_mut().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let mut acker = ackers.shard(idx).lock();
            for op in ops.drain(..) {
                match op {
                    AckOp::Track {
                        root,
                        spout_task,
                        message_id,
                        now_s,
                    } => acker.track(root, 0, spout_task, message_id, now_s),
                    AckOp::Emit { root, edge } => acker.on_emit(root, edge),
                    AckOp::Ack { root, edge, now_s } => acker.on_ack(root, edge, now_s),
                    AckOp::Fail { root, now_s } => acker.on_fail(root, now_s),
                }
            }
            acker.drain_outcomes_into(&mut self.outcomes);
        }
        self.len = 0;
    }

    /// True when applied ops completed trees whose outcomes still await
    /// delivery.
    pub(super) fn has_outcomes(&self) -> bool {
        !self.outcomes.is_empty()
    }

    /// Takes the outcomes drained by [`apply`](Self::apply).
    pub(crate) fn take_outcomes(&mut self) -> Vec<TreeOutcome> {
        std::mem::take(&mut self.outcomes)
    }
}

/// What triggered a batch flush (recorded in the task's flush counters).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum FlushReason {
    /// The buffer reached `batch_size`.
    Full,
    /// The oldest buffered tuple hit the linger deadline.
    Linger,
    /// Task drain: idle spout, shutdown, or end of input.
    Final,
}

struct Buf {
    items: Vec<Delivered>,
    /// When the oldest currently-buffered entry arrived.
    since: Option<Instant>,
}

/// Per-destination output buffers for one task thread.  Owns the channel
/// senders; every send goes through [`flush_dest`](Self::flush_dest) so the
/// apply-before-send invariant holds in one place.
pub(super) struct OutputBuffers {
    batch_size: usize,
    linger: Duration,
    senders: Vec<Sender<Batch>>,
    bufs: Vec<Buf>,
    /// Count of non-empty buffers, for cheap idle checks.
    nonempty: usize,
    /// Global id of the owning task (for flush counters).
    task: usize,
}

impl OutputBuffers {
    pub(super) fn new(
        batch_size: usize,
        linger: Duration,
        senders: Vec<Sender<Batch>>,
        task: usize,
    ) -> Self {
        let n = senders.len();
        Self {
            batch_size: batch_size.max(1),
            linger,
            senders,
            bufs: (0..n)
                .map(|_| Buf {
                    items: Vec::new(),
                    since: None,
                })
                .collect(),
            nonempty: 0,
            task,
        }
    }

    /// Buffers one tuple for `dest`, flushing inline if the buffer fills.
    pub(super) fn push(&mut self, dest: usize, item: Delivered, shared: &Shared, ops: &mut AckOps) {
        let buf = &mut self.bufs[dest];
        if buf.items.is_empty() {
            buf.since = Some(Instant::now());
            self.nonempty += 1;
        }
        buf.items.push(item);
        if buf.items.len() >= self.batch_size {
            self.flush_dest(dest, shared, ops, FlushReason::Full);
        }
    }

    /// Sends `dest`'s buffered batch downstream.  With credit flow on, one
    /// credit must be acquired from `dest`'s pool first — an empty pool
    /// blocks (heartbeating) or sheds the batch, per
    /// [`RtConfig::shed_on_overload`](super::RtConfig::shed_on_overload).
    /// The channel send itself still uses the blocking-with-shutdown-check
    /// loop; bounded channel capacity counts batches.
    pub(super) fn flush_dest(
        &mut self,
        dest: usize,
        shared: &Shared,
        ops: &mut AckOps,
        reason: FlushReason,
    ) {
        let buf = &mut self.bufs[dest];
        if buf.items.is_empty() {
            return;
        }
        // Apply-before-send: the acker must know every edge in this batch
        // (and the tracks/acks queued alongside) before downstream can react.
        ops.apply(&shared.ackers);
        let batch = std::mem::take(&mut buf.items);
        buf.since = None;
        self.nonempty -= 1;
        let stats = &shared.task_stats[self.task];
        stats.batches_flushed.fetch_add(1, Ordering::Relaxed);
        if reason == FlushReason::Linger {
            stats.linger_flushes.fetch_add(1, Ordering::Relaxed);
        }
        // Credit gate: one credit per batch toward `dest`.  `dest` is the
        // consumer's global task id, which indexes both senders and pools.
        if let Some(credits) = shared.credits.as_ref() {
            if !credits.try_acquire(dest) {
                if shared.rt.shed_on_overload {
                    // Shed: fail every anchored tree in the batch so the
                    // acker (and replay, when on) accounts for each tuple —
                    // shedding loses work, never accounting.
                    shared.shed_batches_total.fetch_add(1, Ordering::Relaxed);
                    shared
                        .shed_tuples_total
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    let now_s = shared.now_s();
                    for item in &batch {
                        if let Some((root, _)) = item.anchor {
                            ops.push(AckOp::Fail { root, now_s });
                        }
                    }
                    ops.apply(&shared.ackers);
                    return;
                }
                // Block: poll for a credit with heartbeats so the supervisor
                // does not supersede a merely-backpressured task.  On stop
                // the batch is dropped, exactly like the send loop below.
                loop {
                    if shared.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    shared.beat(self.task);
                    std::thread::sleep(Duration::from_micros(200));
                    if credits.try_acquire(dest) {
                        break;
                    }
                }
            }
        }
        let mut msg = Batch {
            items: batch,
            sent_at_us: shared.now_us(),
        };
        loop {
            match self.senders[dest].send_timeout(msg, Duration::from_millis(50)) {
                Ok(()) => break,
                Err(SendTimeoutError::Timeout(back)) => {
                    if shared.stop.load(Ordering::Relaxed) {
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
