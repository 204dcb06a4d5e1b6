//! Storm's tuple-tree acking algorithm.
//!
//! Each spout tuple roots a *tuple tree*.  Every tuple instance flowing in
//! the tree carries a 64-bit edge id; the acker keeps one 64-bit XOR
//! accumulator per root.  Emitting a child XORs its edge id in, acking a
//! received tuple XORs its edge id out — so the accumulator reaches zero
//! exactly when every emitted tuple has been acked, using O(1) memory per
//! root regardless of tree size.
//!
//! Edge ids must behave like independent random 64-bit values for the
//! zero-test to be sound (a structured sequence like 1,2,3 XORs to zero
//! spuriously: `1 ^ 2 ^ 3 == 0`).  We generate them deterministically with a
//! SplitMix64 scramble of a counter, which is reproducible across runs yet
//! statistically indistinguishable from random for this purpose.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::component::MessageId;
use crate::hash::FxHashMap;
use crate::topology::TaskId;

/// Identifier of one spout-tuple tree.
pub type RootId = u64;

/// Why a tree left the pending table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Every tuple in the tree was acked.
    Acked,
    /// A bolt explicitly failed a tuple of the tree.
    Failed,
    /// The tree outlived the message timeout.
    TimedOut,
}

/// Record of a completed (acked/failed/timed-out) tree, returned to the
/// runtime so it can notify the spout.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeOutcome {
    /// The root id.
    pub root: RootId,
    /// Task id of the originating spout.
    pub spout_task: TaskId,
    /// Spout-assigned message id.
    pub message_id: MessageId,
    /// How the tree completed.
    pub completion: Completion,
    /// Time the root was emitted (runtime clock, seconds).
    pub spawned_at: f64,
    /// Time the tree completed.
    pub completed_at: f64,
}

impl TreeOutcome {
    /// End-to-end *complete latency* of the tree in seconds.
    pub fn complete_latency(&self) -> f64 {
        self.completed_at - self.spawned_at
    }
}

/// Storm's ack record: what one executed tuple did to its tree.  Records
/// of one tree commute — each edge id is XORed in by the record of the
/// tuple that emitted it and out by the record of the tuple that executed
/// it — so they may reach the acker in any order once the tree is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRecord {
    /// Root id of the tree.
    pub root: RootId,
    /// The executed delivery's edge id XOR the fresh edge id of every
    /// anchored tuple it emitted; zero in the acker means complete.
    pub xor: u64,
    /// The bolt failed the tuple, or an anchored emission was bound for a
    /// dead peer: the whole tree fails.
    pub failed: bool,
}

impl AckRecord {
    /// The record that fails `root`'s tree.
    pub fn failed(root: RootId) -> Self {
        AckRecord {
            root,
            xor: 0,
            failed: true,
        }
    }
}

#[derive(Debug)]
struct Pending {
    ack_val: u64,
    spout_task: TaskId,
    message_id: MessageId,
    spawned_at: f64,
}

/// SplitMix64 — the standard 64-bit finalizer used to scramble counters
/// into high-quality pseudo-random ids.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fresh edge ids for one routing thread: a SplitMix64-scrambled counter,
/// so ids drawn from differently seeded sources (other threads, other
/// processes) behave like independent random 64-bit values — what the XOR
/// zero-test needs — without shared state.
#[derive(Debug, Default)]
pub(crate) struct EdgeIds(u64);

impl EdgeIds {
    /// `seed` must differ between any two threads routing in the same run.
    pub(crate) fn new(seed: u64) -> Self {
        EdgeIds(splitmix64(seed))
    }

    /// A fresh nonzero edge id (zero is reserved: XORing it would be a
    /// no-op and break accounting).
    pub(crate) fn next(&mut self) -> u64 {
        loop {
            self.0 = self.0.wrapping_add(1);
            let id = splitmix64(self.0);
            if id != 0 {
                return id;
            }
        }
    }
}

/// The acker: pending tuple trees and their XOR accumulators.
#[derive(Debug, Default)]
pub struct Acker {
    pending: FxHashMap<RootId, Pending>,
    /// Completed-tree outcomes not yet drained by the runtime.
    outcomes: Vec<TreeOutcome>,
}

impl Acker {
    /// Creates an empty acker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new tree rooted at a spout emission whose root tuple got
    /// `root_edge` as its edge id.
    pub fn track(
        &mut self,
        root: RootId,
        root_edge: u64,
        spout_task: TaskId,
        message_id: MessageId,
        now: f64,
    ) {
        self.pending.insert(
            root,
            Pending {
                ack_val: root_edge,
                spout_task,
                message_id,
                spawned_at: now,
            },
        );
    }

    /// A bolt emitted a child tuple with `edge` anchored to `root`.
    pub fn on_emit(&mut self, root: RootId, edge: u64) {
        if let Some(p) = self.pending.get_mut(&root) {
            p.ack_val ^= edge;
        }
    }

    /// A tuple with `edge` anchored to `root` was acked.  If the
    /// accumulator reaches zero the tree completes.
    pub fn on_ack(&mut self, root: RootId, edge: u64, now: f64) {
        let done = match self.pending.get_mut(&root) {
            Some(p) => {
                p.ack_val ^= edge;
                p.ack_val == 0
            }
            None => false,
        };
        if done {
            self.finish(root, Completion::Acked, now);
        }
    }

    /// A bolt failed a tuple of `root`: the whole tree fails immediately.
    pub fn on_fail(&mut self, root: RootId, now: f64) {
        if self.pending.contains_key(&root) {
            self.finish(root, Completion::Failed, now);
        }
    }

    /// Applies one executed tuple's record.  A record for an unknown root
    /// (never tracked, already failed or timed out) is ignored.
    pub fn on_record(&mut self, record: AckRecord, now: f64) {
        if record.failed {
            self.on_fail(record.root, now);
        } else {
            self.on_ack(record.root, record.xor, now);
        }
    }

    fn finish(&mut self, root: RootId, completion: Completion, now: f64) {
        if let Some(p) = self.pending.remove(&root) {
            self.outcomes.push(TreeOutcome {
                root,
                spout_task: p.spout_task,
                message_id: p.message_id,
                completion,
                spawned_at: p.spawned_at,
                completed_at: now,
            });
        }
    }

    /// Fails every pending tree (a worker process died and nobody knows
    /// which trees had an edge on it); returns their roots.
    pub fn fail_all(&mut self, now: f64) -> Vec<RootId> {
        let roots: Vec<RootId> = self.pending.keys().copied().collect();
        for &root in &roots {
            self.finish(root, Completion::Failed, now);
        }
        roots
    }

    /// Expires every tree older than `timeout` seconds.
    pub fn expire(&mut self, now: f64, timeout: f64) {
        let expired: Vec<RootId> = self
            .pending
            .iter()
            .filter(|(_, p)| now - p.spawned_at > timeout)
            .map(|(r, _)| *r)
            .collect();
        for root in expired {
            self.finish(root, Completion::TimedOut, now);
        }
    }

    /// Drains completed-tree outcomes accumulated since the last drain.
    pub fn drain_outcomes(&mut self) -> Vec<TreeOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Moves queued outcomes into `out`, keeping this acker's buffer
    /// capacity (the allocation-free variant of
    /// [`drain_outcomes`](Self::drain_outcomes)).
    pub fn drain_outcomes_into(&mut self, out: &mut Vec<TreeOutcome>) {
        out.append(&mut self.outcomes);
    }

    /// Number of trees still in flight.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Completed-tree outcomes waiting to be drained.
    pub fn outcome_count(&self) -> usize {
        self.outcomes.len()
    }
}

/// Lock stripes of the acker `rt` and `dist` build (`root % ACKER_SHARDS`
/// picks the stripe).  Acks of different trees only contend when their
/// roots share a stripe, so this should be at least the number of
/// concurrently acking threads.
pub const ACKER_SHARDS: usize = 8;

/// How often `rt` and `dist` sweep their ackers for trees past the message
/// timeout: a tree times out at most this long after its deadline.
pub(crate) const EXPIRE_SWEEP: Duration = Duration::from_millis(50);

/// Lock-striped acker: `N` independent [`Acker`] shards, each behind its own
/// mutex, keyed by `root % N`.
///
/// Every operation on one tuple tree touches exactly one shard, so trees
/// whose roots land in different shards never contend — this is what lets
/// the threaded runtime's ack traffic scale with cores instead of
/// serializing on a single global lock (the same striping Storm applies by
/// running several acker executors and Flink by partitioning channel state).
/// The per-root ordering that the XOR accounting relies on is preserved
/// because a root always maps to the same shard; operations on *different*
/// roots commute.
///
/// The backends draw edge ids from each producer's own `EdgeIds`;
/// [`new_edge_id`](Self::new_edge_id) serves callers that drive the acker
/// directly, from one shared lock-free counter.
#[derive(Debug)]
pub struct ShardedAcker {
    shards: Vec<Mutex<Acker>>,
    next_edge: AtomicU64,
    /// Ack records applied through `AckOps` (a statistic).
    records: AtomicU64,
}

impl ShardedAcker {
    /// Creates an acker striped over `num_shards` locks (at least one).
    pub fn new(num_shards: usize) -> Self {
        ShardedAcker {
            shards: (0..num_shards.max(1))
                .map(|_| Mutex::new(Acker::new()))
                .collect(),
            next_edge: AtomicU64::new(0),
            records: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard index owning `root`.
    #[inline]
    pub fn shard_of(&self, root: RootId) -> usize {
        (root % self.shards.len() as u64) as usize
    }

    /// Direct access to one shard's lock, for callers that batch several
    /// operations under a single acquisition (the runtime's per-shard ack
    /// batches).  The caller must route each root to
    /// [`shard_of`](Self::shard_of)`(root)` or trees will be split across
    /// accumulators and never complete.
    pub fn shard(&self, idx: usize) -> &Mutex<Acker> {
        &self.shards[idx]
    }

    /// Allocates a fresh nonzero edge id without taking any shard lock.
    pub fn new_edge_id(&self) -> u64 {
        loop {
            let raw = self
                .next_edge
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_add(1);
            let id = splitmix64(raw);
            if id != 0 {
                return id;
            }
        }
    }

    /// Registers a new tree.  See [`Acker::track`].
    pub fn track(
        &self,
        root: RootId,
        root_edge: u64,
        spout_task: TaskId,
        message_id: MessageId,
        now: f64,
    ) {
        self.shards[self.shard_of(root)]
            .lock()
            .track(root, root_edge, spout_task, message_id, now);
    }

    /// A child tuple was emitted anchored to `root`.  See [`Acker::on_emit`].
    pub fn on_emit(&self, root: RootId, edge: u64) {
        self.shards[self.shard_of(root)].lock().on_emit(root, edge);
    }

    /// A tuple anchored to `root` was acked.  See [`Acker::on_ack`].
    pub fn on_ack(&self, root: RootId, edge: u64, now: f64) {
        self.shards[self.shard_of(root)]
            .lock()
            .on_ack(root, edge, now);
    }

    /// A tuple of `root`'s tree was failed.  See [`Acker::on_fail`].
    pub fn on_fail(&self, root: RootId, now: f64) {
        self.shards[self.shard_of(root)].lock().on_fail(root, now);
    }

    /// Applies one executed tuple's record.  See [`Acker::on_record`].
    pub fn on_record(&self, record: AckRecord, now: f64) {
        self.shards[self.shard_of(record.root)]
            .lock()
            .on_record(record, now);
    }

    /// Fails every pending tree in every shard.  See [`Acker::fail_all`].
    pub fn fail_all(&self, now: f64) -> Vec<RootId> {
        let mut roots = Vec::new();
        for shard in &self.shards {
            roots.append(&mut shard.lock().fail_all(now));
        }
        roots
    }

    /// Expires trees older than `timeout` in every shard.
    pub fn expire(&self, now: f64, timeout: f64) {
        for shard in &self.shards {
            shard.lock().expire(now, timeout);
        }
    }

    /// Drains completed-tree outcomes from every shard.  Shards with nothing
    /// queued are skipped without blocking on their lock.
    pub fn drain_outcomes(&self) -> Vec<TreeOutcome> {
        let mut out = Vec::new();
        for shard in &self.shards {
            // Opportunistic: if another thread holds the shard it is either
            // applying ops (and will drain its own completions) or draining
            // already, so skipping cannot strand an outcome forever.
            if let Some(mut acker) = shard.try_lock() {
                if acker.outcome_count() > 0 {
                    out.append(&mut acker.drain_outcomes());
                }
            }
        }
        out
    }

    /// Drains every shard unconditionally (shutdown/reporting path).
    pub fn drain_outcomes_blocking(&self) -> Vec<TreeOutcome> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.append(&mut shard.lock().drain_outcomes());
        }
        out
    }

    /// Trees still in flight, summed over shards.
    pub fn pending_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().pending_count()).sum()
    }

    /// Ack records the runtime's task threads (or, on `dist`, the
    /// coordinator's readers) have applied so far.
    pub fn records_applied(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }
}

/// One deferred acker operation.  Timestamps are captured when the op is
/// queued, so deferring application does not skew latency accounting.
enum AckOp {
    /// Registers a tree with the XOR of its first-hop edge ids.
    Track {
        root: RootId,
        xor: u64,
        spout_task: TaskId,
        message_id: MessageId,
        now_s: f64,
    },
    Record {
        record: AckRecord,
        now_s: f64,
    },
}

/// Deferred acker ops owned by one thread, partitioned by acker shard and
/// applied one lock acquisition per dirty shard.
///
/// Ops on the same root land in the same partition in push order, so a
/// spout's `Track` stays ahead of whatever it queues for the same tree;
/// ops on different roots commute (independent XOR accumulators).
/// Completed-tree outcomes are drained *while the shard lock is still
/// held*, which is what lets other threads skip busy shards when they
/// scavenge outcomes: the op-applier takes its own completions home.
pub(crate) struct AckOps {
    per_shard: Vec<Vec<AckOp>>,
    len: usize,
    /// Completed-tree outcomes drained while applying (delivered by the
    /// owning thread).
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

    fn push(&mut self, root: RootId, op: AckOp) {
        let shard = (root % self.per_shard.len() as u64) as usize;
        self.per_shard[shard].push(op);
        self.len += 1;
    }

    /// Queues the registration of a tree whose first-hop edge ids XOR to
    /// `xor`.  It must be applied before any of those deliveries can be
    /// executed: a record that beat it would find no tree and be lost.
    pub(crate) fn track(
        &mut self,
        root: RootId,
        xor: u64,
        spout_task: TaskId,
        message_id: MessageId,
        now_s: f64,
    ) {
        let op = AckOp::Track {
            root,
            xor,
            spout_task,
            message_id,
            now_s,
        };
        self.push(root, op);
    }

    /// Queues one executed tuple's record.
    pub(crate) fn record(&mut self, record: AckRecord, now_s: f64) {
        self.push(record.root, AckOp::Record { record, now_s });
    }

    pub(crate) fn is_empty(&self) -> bool {
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
        let mut records = 0;
        for (idx, ops) in self.per_shard.iter_mut().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let mut acker = ackers.shard(idx).lock();
            for op in ops.drain(..) {
                match op {
                    AckOp::Track {
                        root,
                        xor,
                        spout_task,
                        message_id,
                        now_s,
                    } => {
                        acker.track(root, xor, spout_task, message_id, now_s);
                        if xor == 0 {
                            // Reached nothing: complete with zero deliveries.
                            acker.on_ack(root, 0, now_s);
                        }
                    }
                    AckOp::Record { record, now_s } => {
                        acker.on_record(record, now_s);
                        records += 1;
                    }
                }
            }
            acker.drain_outcomes_into(&mut self.outcomes);
        }
        if records > 0 {
            ackers.records.fetch_add(records, Ordering::Relaxed);
        }
        self.len = 0;
    }

    /// True when applied ops completed trees whose outcomes still await
    /// delivery.
    pub(crate) fn has_outcomes(&self) -> bool {
        !self.outcomes.is_empty()
    }

    /// Takes the outcomes drained by [`apply`](Self::apply).
    pub(crate) fn take_outcomes(&mut self) -> Vec<TreeOutcome> {
        std::mem::take(&mut self.outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_of(acker: &mut Acker) -> TreeOutcome {
        let mut o = acker.drain_outcomes();
        assert_eq!(o.len(), 1);
        o.pop().unwrap()
    }

    #[test]
    fn linear_chain_completes_when_all_acked() {
        // spout -> b1 -> b2 (b2 emits nothing)
        let mut a = Acker::new();
        let mut ids = EdgeIds::default();
        let root = 1;
        let e_root = ids.next();
        a.track(root, e_root, TaskId(0), 7, 0.0);

        // b1 receives root tuple, emits one child, acks input.
        let e_child = ids.next();
        a.on_emit(root, e_child);
        a.on_ack(root, e_root, 1.0);
        assert_eq!(a.pending_count(), 1, "child still outstanding");

        // b2 receives child, emits nothing, acks.
        a.on_ack(root, e_child, 2.0);
        assert_eq!(a.pending_count(), 0);
        let o = outcome_of(&mut a);
        assert_eq!(o.completion, Completion::Acked);
        assert_eq!(o.message_id, 7);
        assert!((o.complete_latency() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fan_out_tree_completes_only_after_every_branch() {
        let mut a = Acker::new();
        let mut ids = EdgeIds::default();
        let root = 9;
        let e_root = ids.next();
        a.track(root, e_root, TaskId(2), 1, 0.0);

        // One bolt emits 3 children then acks its input.
        let children: Vec<u64> = (0..3).map(|_| ids.next()).collect();
        for &c in &children {
            a.on_emit(root, c);
        }
        a.on_ack(root, e_root, 0.5);

        for (i, &c) in children.iter().enumerate() {
            assert_eq!(a.pending_count(), 1, "branch {i} outstanding");
            a.on_ack(root, c, 1.0 + i as f64);
        }
        assert_eq!(a.pending_count(), 0);
        assert_eq!(outcome_of(&mut a).completion, Completion::Acked);
    }

    #[test]
    fn explicit_fail_completes_tree_as_failed() {
        let mut a = Acker::new();
        let mut ids = EdgeIds::default();
        let e = ids.next();
        a.track(5, e, TaskId(0), 42, 0.0);
        a.on_fail(5, 3.0);
        let o = outcome_of(&mut a);
        assert_eq!(o.completion, Completion::Failed);
        assert_eq!(o.message_id, 42);
        // Late acks for the failed tree are ignored.
        a.on_ack(5, e, 4.0);
        assert!(a.drain_outcomes().is_empty());
    }

    #[test]
    fn timeout_expires_only_old_trees() {
        let mut a = Acker::new();
        let mut ids = EdgeIds::default();
        let e1 = ids.next();
        let e2 = ids.next();
        a.track(1, e1, TaskId(0), 1, 0.0);
        a.track(2, e2, TaskId(0), 2, 8.0);
        a.expire(10.0, 5.0);
        let outcomes = a.drain_outcomes();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].root, 1);
        assert_eq!(outcomes[0].completion, Completion::TimedOut);
        assert_eq!(a.pending_count(), 1);
    }

    #[test]
    fn edge_ids_do_not_xor_to_zero_spuriously() {
        // The failure mode of naive counter ids: 1 ^ 2 ^ 3 == 0.  Verify the
        // scrambled sequence has no small-prefix zero XOR.
        let mut ids = EdgeIds::default();
        let mut acc = 0u64;
        for _ in 0..10_000 {
            acc ^= ids.next();
            assert_ne!(acc, 0);
        }
    }

    #[test]
    fn edge_ids_unique_over_long_runs() {
        let mut ids = EdgeIds::default();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100_000 {
            assert!(seen.insert(ids.next()));
        }
    }

    #[test]
    fn ack_for_unknown_root_is_ignored() {
        let mut a = Acker::new();
        a.on_ack(99, 123, 0.0);
        a.on_emit(99, 123);
        a.on_fail(99, 0.0);
        assert!(a.drain_outcomes().is_empty());
        assert_eq!(a.pending_count(), 0);
    }

    #[test]
    fn diamond_topology_double_delivery() {
        // spout tuple goes to two bolts (all-grouping style): the runtime
        // assigns each delivered instance its own edge id by re-emitting.
        let mut a = Acker::new();
        let mut ids = EdgeIds::default();
        let root = 3;
        let e_a = ids.next();
        let e_b = ids.next();
        a.track(root, e_a, TaskId(0), 0, 0.0);
        a.on_emit(root, e_b); // second delivery instance
        a.on_ack(root, e_a, 1.0);
        assert_eq!(a.pending_count(), 1);
        a.on_ack(root, e_b, 1.5);
        assert_eq!(outcome_of(&mut a).completion, Completion::Acked);
    }

    /// Counts outcomes per root over a sequence of acker operations — the
    /// invariant the spout relies on: exactly one ack *or* fail notification
    /// per tracked root, never zero, never two.
    fn outcomes_per_root(acker: &mut Acker) -> std::collections::HashMap<RootId, Vec<Completion>> {
        let mut per_root: std::collections::HashMap<RootId, Vec<Completion>> =
            std::collections::HashMap::new();
        for o in acker.drain_outcomes() {
            per_root.entry(o.root).or_default().push(o.completion);
        }
        per_root
    }

    #[test]
    fn full_tree_ack_spout_sees_exactly_one_ack() {
        // Three-level tree: root -> 2 children -> 2 grandchildren each.
        let mut a = Acker::new();
        let mut ids = EdgeIds::default();
        let root = 11;
        let e_root = ids.next();
        a.track(root, e_root, TaskId(0), 77, 0.0);
        let children: Vec<u64> = (0..2).map(|_| ids.next()).collect();
        for &c in &children {
            a.on_emit(root, c);
        }
        a.on_ack(root, e_root, 0.1);
        let mut grandchildren = Vec::new();
        for &c in &children {
            for _ in 0..2 {
                let g = ids.next();
                a.on_emit(root, g);
                grandchildren.push(g);
            }
            a.on_ack(root, c, 0.2);
        }
        for &g in &grandchildren {
            a.on_ack(root, g, 0.3);
        }
        let per_root = outcomes_per_root(&mut a);
        assert_eq!(per_root.len(), 1);
        assert_eq!(per_root[&root], vec![Completion::Acked]);
        // Replayed late acks must not produce a second notification.
        a.on_ack(root, e_root, 0.4);
        assert!(a.drain_outcomes().is_empty());
    }

    #[test]
    fn explicit_fail_spout_sees_exactly_one_fail() {
        let mut a = Acker::new();
        let mut ids = EdgeIds::default();
        let root = 21;
        let e_root = ids.next();
        a.track(root, e_root, TaskId(1), 5, 0.0);
        let child = ids.next();
        a.on_emit(root, child);
        a.on_fail(root, 0.5);
        // Everything after the fail is noise: acks of in-flight tuples of
        // the dead tree, even a second explicit fail.
        a.on_ack(root, e_root, 0.6);
        a.on_ack(root, child, 0.7);
        a.on_fail(root, 0.8);
        let per_root = outcomes_per_root(&mut a);
        assert_eq!(per_root.len(), 1);
        assert_eq!(per_root[&root], vec![Completion::Failed]);
    }

    #[test]
    fn timeout_then_replay_one_outcome_per_root() {
        let mut a = Acker::new();
        let mut ids = EdgeIds::default();
        // Root 1 times out; the spout replays the message under a fresh
        // root id (root 2), which then completes.
        let e1 = ids.next();
        a.track(1, e1, TaskId(0), 99, 0.0);
        a.expire(10.0, 5.0);
        // Straggler ack for the expired tree arrives after the timeout.
        a.on_ack(1, e1, 10.5);
        let e2 = ids.next();
        a.track(2, e2, TaskId(0), 99, 11.0);
        a.on_ack(2, e2, 11.5);
        let per_root = outcomes_per_root(&mut a);
        assert_eq!(per_root.len(), 2);
        assert_eq!(per_root[&1], vec![Completion::TimedOut]);
        assert_eq!(per_root[&2], vec![Completion::Acked]);
        // Both outcomes carry the same message id: the spout keys replay
        // state off the message id, not the root.
        assert_eq!(a.pending_count(), 0);
    }

    #[test]
    fn anchored_fan_out_one_outcome_per_root() {
        // Two roots in flight at once; each fans out to 3 anchored copies
        // (e.g. all-grouping), interleaved acks.  Each root completes
        // exactly once, independently.
        let mut a = Acker::new();
        let mut ids = EdgeIds::default();
        let mut edges: Vec<Vec<u64>> = Vec::new();
        for root in [31u64, 32] {
            let e_root = ids.next();
            a.track(root, e_root, TaskId(0), root, 0.0);
            let mut es = vec![e_root];
            for _ in 0..3 {
                let e = ids.next();
                a.on_emit(root, e);
                es.push(e);
            }
            edges.push(es);
        }
        // Interleave acks across the two trees.
        for i in 0..4 {
            a.on_ack(31, edges[0][i], 1.0 + i as f64);
            a.on_ack(32, edges[1][3 - i], 1.0 + i as f64);
        }
        let per_root = outcomes_per_root(&mut a);
        assert_eq!(per_root.len(), 2);
        assert_eq!(per_root[&31], vec![Completion::Acked]);
        assert_eq!(per_root[&32], vec![Completion::Acked]);
    }

    /// `AckOps` applies a thread's ops shard by shard: a tree registered
    /// with no edge outstanding completes at once, one with edges when its
    /// records have come in, and the applier takes the outcomes home.
    #[test]
    fn ack_ops_register_apply_and_count() {
        let ackers = ShardedAcker::new(4);
        let mut ops = AckOps::new(ackers.num_shards());
        ops.track(1, 0, TaskId(0), 10, 0.5);
        ops.track(2, 0xa ^ 0xb, TaskId(0), 20, 0.5);
        ops.track(3, 0xc, TaskId(0), 30, 0.5);
        let record = |root, xor| AckRecord {
            root,
            xor,
            failed: false,
        };
        // The child's record (edge `d`) overtakes its parent's (`a ^ d`).
        ops.record(record(2, 0xd), 1.0);
        ops.record(record(2, 0xb), 1.0);
        assert!(!ops.is_empty());
        ops.apply(&ackers);
        assert!(ops.is_empty() && ops.has_outcomes());
        let done = ops.take_outcomes();
        assert_eq!(done.len(), 1, "only the tree that reached nothing");
        assert_eq!(
            (done[0].message_id, done[0].completion),
            (10, Completion::Acked)
        );
        ops.record(record(2, 0xa ^ 0xd), 2.0);
        ops.record(AckRecord::failed(3), 2.0);
        ops.record(record(9, 0x1), 2.0);
        ops.apply(&ackers);
        let mut done = ops.take_outcomes();
        done.sort_by_key(|o| o.message_id);
        let done: Vec<_> = done.iter().map(|o| (o.message_id, o.completion)).collect();
        assert_eq!(done, [(20, Completion::Acked), (30, Completion::Failed)]);
        assert_eq!(ackers.pending_count(), 0);
        assert_eq!(ackers.records_applied(), 5);
    }
}
