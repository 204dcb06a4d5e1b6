//! Tuple batching: what travels between tasks, and amortized acker ops (the
//! per-destination output buffers are the [`Router`](super::router::Router)'s).
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

use crate::acker::{RootId, ShardedAcker, TreeOutcome};
use crate::component::MessageId;
use crate::topology::TaskId;
use crate::tuple::Tuple;

/// A tuple instance delivered to a task, with its acker anchor.
pub(super) struct Delivered {
    pub(super) tuple: Tuple,
    pub(super) anchor: Option<(RootId, u64)>,
    /// Runtime clock (µs) when the producer routed this instance; `0` unless
    /// the tuple's tree is being traced.  The consumer subtracts this from
    /// its batch-receive time to get the span's queue wait.
    pub(super) sent_at_us: u64,
    /// Replay-dedup id a stateful consumer dedups on: the spout message id
    /// on the first hop, derived hop by hop after it.  Only set when the
    /// recovery policy dedups; `None` otherwise.
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
    /// Whether the producer runs on another worker than the consumer (the
    /// batch then counts toward both workers' `tuples_in`/`tuples_out`).
    pub(super) remote: bool,
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
