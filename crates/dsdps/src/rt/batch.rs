//! Tuple batching: what travels between tasks (the per-destination output
//! buffers are the [`Router`](super::router::Router)'s, the deferred acker
//! ops [`AckOps`](crate::acker::AckOps)).
//!
//! Two invariants keep batching exactly as reliable as per-tuple delivery:
//!
//! 1. **A spout's `Track` is applied before its batch leaves.**  A spout
//!    holds an emission's deliveries until the tree's `Track` is queued, and
//!    a thread's queued ops are applied under the acker shard locks before
//!    any batch leaves it, so a downstream task can never send a record for
//!    a tree the acker has not registered yet — it would find no tree and be
//!    lost, orphaning the tree until timeout.  Bolts need no such order: the records of one tree
//!    commute (each edge id is XORed in by the record of the tuple that
//!    emitted it and out by the record of the tuple that executed it), so a
//!    child's record may overtake its parent's.
//! 2. **Apply-at-iteration-end.**  Whatever ops remain after routing are
//!    applied once per spout/bolt iteration, so each shard lock is taken
//!    O(1) times per batch instead of O(n) times per tuple.

use crate::route::Delivery;

/// A tuple instance delivered to a task.
pub(super) struct Delivered {
    pub(super) delivery: Delivery,
    /// Runtime clock (µs) when the producer routed this instance; `0` unless
    /// the tuple's tree is being traced.  The consumer subtracts this from
    /// its batch-receive time to get the span's queue wait.
    pub(super) sent_at_us: u64,
}

/// What travels on a task's input channel: one flushed batch of tuples plus
/// a send timestamp.  Unlike the per-tuple [`Delivered::sent_at_us`] (traced
/// trees only), the batch stamp is always set — one clock read per flush and
/// one per receive give every batch a queue-wait sample, the always-on
/// signal behind the report's and the registry's queue-wait figures.
///
/// An empty batch is shutdown's end-of-input marker: a flush never sends
/// one, so it cannot be mistaken for data.
pub(super) struct Batch {
    pub(super) items: Vec<Delivered>,
    /// Runtime clock (µs) when the producer handed this batch to the channel.
    pub(super) sent_at_us: u64,
    /// Whether the producer runs on another worker than the consumer (the
    /// batch then counts toward both workers' `tuples_in`/`tuples_out`).
    pub(super) remote: bool,
}
