//! One bolt step, one checkpoint cycle.
//!
//! A [`BoltTask`] is one bolt instance, the [`FanOut`] its emissions leave
//! through and — only when the bolt is stateful and the run checkpoints —
//! the [`CheckpointCycle`] that decides what a recovery guarantee means for
//! that task: whether a replayed input is applied again, when the ack record
//! of an applied input may leave, when a snapshot is due and of which kind,
//! what a restore rebuilds.  It holds no clock, thread, socket or store:
//! `sim`'s event handlers, `rt`'s task thread and `dist`'s worker executor
//! step it from their own loops, take each delivery it produces into their
//! sink, and ship what it hands back — the input's [`AckRecord`], snapshots,
//! logged inputs.  What a
//! [`RecoveryMode`] makes a task do is the one table in [`Policy::of`]
//! (`DESIGN.md` §6.2).

use crate::acker::{splitmix64, AckRecord, RootId};
use crate::checkpoint::{DedupWindow, LoggedInput, RecoveryMode, Restored, StateSnapshot};
use crate::component::{Bolt, BoltOutput, Emission, MessageId, TopologyContext};
use crate::route::{Delivery, FanOut};
use crate::tuple::Tuple;

/// Every Nth snapshot of an incarnation is full, starting with the first;
/// the ones between are deltas when the component offers them.
const FULL_EVERY: u64 = 4;

/// A snapshot is taken early at this many changes, which bounds the input
/// log (and what a restore re-executes) between intervals.
const LOG_HIGH_WATER: usize = 8192;

/// What a restore does beyond rebuilding the state from its snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnRestore {
    /// Re-execute the inputs logged since the snapshot.
    ReexecuteLog,
    /// Doom every tree tracked before the snapshot was taken: it is not
    /// replayed, and counted (`approx_skipped`).
    DoomBeforeCut,
    /// Nothing: the spouts replay whatever the snapshot lacks.
    Nothing,
}

/// What a [`RecoveryMode`] makes a stateful task do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Policy {
    /// An applied input's ack waits for the snapshot that covers it.
    pub(crate) withhold_acks: bool,
    /// Tracked tuples carry replay-dedup ids; tasks remember those applied.
    pub(crate) dedup: bool,
    pub(crate) on_restore: OnRestore,
}

impl Policy {
    /// The policy table.  `inputs_logged` is a fact of the platform, not an
    /// option: where the store shares the task's address space (`rt`) an
    /// applied input can be logged before its ack leaves, so exactly-once
    /// needs no withholding; a process away (`dist`) it cannot.
    pub(crate) fn of(mode: RecoveryMode, inputs_logged: bool) -> Policy {
        let row = |withhold_acks, dedup, on_restore| Policy {
            withhold_acks,
            dedup,
            on_restore,
        };
        match (mode, inputs_logged) {
            (RecoveryMode::ExactlyOnceEffect, true) => row(false, true, OnRestore::ReexecuteLog),
            (RecoveryMode::ExactlyOnceEffect, false) => row(true, true, OnRestore::Nothing),
            (RecoveryMode::AtLeastOnce, _) => row(true, false, OnRestore::Nothing),
            (RecoveryMode::Approximate, _) => row(true, false, OnRestore::DoomBeforeCut),
        }
    }

    /// The cut before which a restore from a snapshot taken at `taken_at_s`
    /// dooms tracked trees, if this policy dooms any.
    pub(crate) fn doom_cut(self, taken_at_s: Option<f64>) -> Option<f64> {
        taken_at_s.filter(|_| self.on_restore == OnRestore::DoomBeforeCut)
    }
}

/// The replay-dedup id of a tuple's `idx`-th emission, derived from the
/// tuple's own: a replayed tree re-executes the same bolts on the same
/// inputs, re-derives the same ids hop by hop, and a stateful bolt any
/// number of hops downstream recognizes the replay.
fn child_dedup(parent: MessageId, idx: usize) -> MessageId {
    splitmix64(parent ^ splitmix64(idx as u64 + 1))
}

/// What the `idx`-th emission of a step inherits from the step's input:
/// the tree it extends (anchored emissions only) and, with it, its dedup id.
fn inherit(
    emission: &Emission,
    idx: usize,
    root: Option<RootId>,
    dedup: Option<MessageId>,
) -> (Option<RootId>, Option<MessageId>) {
    let root = root.filter(|_| emission.anchored);
    let dedup = dedup.filter(|_| root.is_some());
    (root, dedup.map(|id| child_dedup(id, idx)))
}

/// What [`BoltTask::step`] did with an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stepped {
    /// The bolt ran; `false` for a replay of an input already applied,
    /// which is acknowledged but not run again.
    pub(crate) executed: bool,
    /// The bolt failed the input.
    pub(crate) failed: bool,
    /// The input's ack record — its edge XOR the edges of the anchored
    /// tuples it emitted — when it may leave now.  `None` for an unanchored
    /// input, and for one whose record the cycle withholds until the next
    /// [`take`](BoltTask::take) hands it back.
    pub(crate) record: Option<AckRecord>,
}

/// One snapshot on its way to the store, and what it covers.
pub(crate) struct Deposit {
    pub(crate) snapshot: StateSnapshot,
    /// The replay-dedup ids as of the snapshot.
    pub(crate) dedup: Vec<MessageId>,
    /// The ack records withheld for it: free to leave behind the snapshot.
    pub(crate) released: Vec<AckRecord>,
}

/// The recovery bookkeeping of one incarnation of a stateful task.
pub(crate) struct CheckpointCycle {
    policy: Policy,
    interval_s: f64,
    /// Snapshots taken this incarnation (0 ⇒ the next one is full).
    taken: u64,
    /// When the last one was taken (or the incarnation started).
    last_s: f64,
    /// Inputs applied and ticks run since then: what the store lacks.
    changes: usize,
    dedup: DedupWindow,
    withheld: Vec<AckRecord>,
    /// Applied inputs not yet handed to the store's log.
    log: Vec<LoggedInput>,
}

impl CheckpointCycle {
    /// Whether a snapshot is due: never while the store already holds this
    /// state and owes nobody an ack.
    fn due(&self, now_s: f64, force: bool) -> bool {
        (self.changes > 0 || !self.withheld.is_empty())
            && (force || now_s - self.last_s >= self.interval_s || self.changes >= LOG_HIGH_WATER)
    }
}

/// One bolt task: the bolt, where its emissions go and, when it is
/// checkpointed, its cycle.
pub(crate) struct BoltTask {
    bolt: Box<dyn Bolt>,
    cycle: Option<CheckpointCycle>,
    fan: FanOut,
    /// Reused across steps.
    out: BoltOutput,
    emissions: Vec<Emission>,
}

impl BoltTask {
    /// Prepares `bolt`; it gets a cycle when it reports state and the run
    /// checkpoints (`checkpoints`: the policy and the snapshot interval).
    pub(crate) fn new(
        mut bolt: Box<dyn Bolt>,
        ctx: &TopologyContext,
        fan: FanOut,
        checkpoints: Option<(Policy, f64)>,
        now_s: f64,
    ) -> Self {
        bolt.prepare(ctx);
        let stateful = bolt.stateful().is_some();
        let cycle = checkpoints
            .filter(|_| stateful)
            .map(|(policy, interval_s)| CheckpointCycle {
                policy,
                interval_s,
                taken: 0,
                last_s: now_s,
                changes: 0,
                dedup: DedupWindow::default(),
                withheld: Vec::new(),
                log: Vec::new(),
            });
        BoltTask {
            bolt,
            cycle,
            fan,
            out: BoltOutput::new(),
            emissions: Vec::new(),
        }
    }

    /// Whether this task snapshots and restores its state.
    pub(crate) fn is_checkpointed(&self) -> bool {
        self.cycle.is_some()
    }

    /// Runs one delivery — its tuple, its `(root, edge)` anchor and its
    /// replay-dedup id — through the bolt, unless it is a replay of an input
    /// already applied; hands `sink` every delivery its emissions fan out
    /// to, and produces its ack record.
    pub(crate) fn step(
        &mut self,
        tuple: &Tuple,
        anchor: Option<(RootId, u64)>,
        dedup: Option<MessageId>,
        now_s: f64,
        sink: impl FnMut(usize, Delivery),
    ) -> Stepped {
        let replay = match (&self.cycle, dedup) {
            (Some(cycle), Some(id)) => cycle.dedup.contains(id),
            _ => false,
        };
        self.out.set_now(now_s);
        let failed = !replay && self.apply(tuple, dedup, true);
        let children = self.fan_out(anchor.map(|(root, _)| root), dedup, sink);
        let record = anchor.and_then(|(root, edge)| {
            let xor = edge ^ children;
            self.settle(AckRecord { root, xor, failed })
        });
        Stepped {
            executed: !replay,
            failed,
            record,
        }
    }

    /// The one place a bolt executes.  An input counts as applied — id
    /// remembered, input logged — even if the bolt then failed it: the
    /// state mutation happened.
    fn apply(&mut self, tuple: &Tuple, dedup: Option<MessageId>, log: bool) -> bool {
        self.bolt.execute(tuple, &mut self.out);
        let failed = self.out.drain_into(&mut self.emissions);
        if let Some(cycle) = &mut self.cycle {
            cycle.changes += 1;
            if let Some(id) = dedup.filter(|_| cycle.policy.dedup) {
                cycle.dedup.insert(id);
            }
            if log && cycle.policy.on_restore == OnRestore::ReexecuteLog {
                cycle.log.push(LoggedInput {
                    tuple: tuple.clone(),
                    now_s: self.out.now_s(),
                    dedup,
                });
            }
        }
        failed
    }

    /// Fans out what the bolt left in `emissions`: the anchored ones extend
    /// `root`'s tree under dedup ids derived from `dedup`.  Returns the XOR
    /// of the edge ids drawn.
    fn fan_out(
        &mut self,
        root: Option<RootId>,
        dedup: Option<MessageId>,
        mut sink: impl FnMut(usize, Delivery),
    ) -> u64 {
        let mut xor = 0;
        for (i, emission) in self.emissions.drain(..).enumerate() {
            let (root, dedup) = inherit(&emission, i, root, dedup);
            xor ^= self.fan.route(emission, root, dedup, &mut sink);
        }
        xor
    }

    /// When the ack record of the input just stepped may leave: `Some` =
    /// now, `None` = withheld until the next [`take`](Self::take) hands it
    /// back.  A failure never waits.
    fn settle(&mut self, record: AckRecord) -> Option<AckRecord> {
        match &mut self.cycle {
            Some(cycle) if cycle.policy.withhold_acks && !record.failed => {
                cycle.withheld.push(record);
                None
            }
            _ => Some(record),
        }
    }

    /// The inputs applied since the last call, for the store's log (none
    /// unless the policy re-executes a log).
    pub(crate) fn drain_log(&mut self) -> impl Iterator<Item = LoggedInput> + '_ {
        self.cycle.iter_mut().flat_map(|cycle| cycle.log.drain(..))
    }

    /// Takes a snapshot if one is due (`force`: whatever the interval).
    /// The first of an incarnation is full, so a delta always finds a base
    /// of its own generation in the store.
    pub(crate) fn take(&mut self, now_s: f64, force: bool) -> Option<Deposit> {
        let cycle = self.cycle.as_mut().filter(|c| c.due(now_s, force))?;
        let state = self.bolt.stateful()?;
        let delta = if cycle.taken.is_multiple_of(FULL_EVERY) {
            None
        } else {
            state.delta()
        };
        let snapshot = delta.unwrap_or_else(|| state.snapshot());
        cycle.taken += 1;
        cycle.last_s = now_s;
        cycle.changes = 0;
        Some(Deposit {
            snapshot,
            dedup: cycle.dedup.ids(),
            released: std::mem::take(&mut cycle.withheld),
        })
    }

    /// Rebuilds a restarted task from what the store kept of its
    /// predecessor: snapshot, dedup ids, then the logged inputs re-executed
    /// — emissions discarded (the originals were routed before the crash)
    /// and not logged again (the store keeps them until the next snapshot).
    /// `false` when the snapshot does not restore: the task runs fresh.
    pub(crate) fn restore(&mut self, from: Restored) -> bool {
        if let Some(base) = &from.base {
            let state = self.bolt.stateful();
            if state.is_none_or(|s| s.restore(base, &from.deltas).is_err()) {
                return false;
            }
        }
        if let Some(cycle) = &mut self.cycle {
            cycle.dedup = DedupWindow::from_ids(from.dedup);
        }
        for input in &from.input_log {
            self.out.set_now(input.now_s);
            self.apply(&input.tuple, input.dedup, false);
            self.emissions.clear();
        }
        true
    }

    /// Ticks the bolt and fans out what it emits (no input tuple, so never
    /// anchored); a tick may change state (a window closing), so it counts
    /// as a change the store lacks.
    pub(crate) fn tick(&mut self, now_s: f64, sink: impl FnMut(usize, Delivery)) {
        self.out.set_now(now_s);
        self.bolt.tick(&mut self.out);
        self.out.drain_into(&mut self.emissions);
        if let Some(cycle) = &mut self.cycle {
            cycle.changes += 1;
        }
        self.fan_out(None, None, sink);
    }

    /// Clean shutdown of the bolt.
    pub(crate) fn cleanup(&mut self) {
        self.bolt.cleanup();
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::checkpoint::{CheckpointStore, SnapshotKind, StatefulComponent};
    use crate::tuple::Value;

    /// Counts how often each id was applied; fails an input on request.
    /// Offers deltas (the ids touched since the last snapshot or delta).
    #[derive(Default)]
    struct Tally {
        applied: BTreeMap<u64, u64>,
        touched: BTreeSet<u64>,
    }

    impl Bolt for Tally {
        fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
            let id = tuple.get(0).unwrap().as_i64().unwrap() as u64;
            *self.applied.entry(id).or_default() += 1;
            self.touched.insert(id);
            if tuple.get(1).unwrap().as_i64() == Some(1) {
                out.fail();
            }
        }

        fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
            Some(self)
        }
    }

    impl StatefulComponent for Tally {
        fn snapshot(&mut self) -> StateSnapshot {
            self.touched.clear();
            let all: Vec<(u64, u64)> = self.applied.iter().map(|(&k, &v)| (k, v)).collect();
            StateSnapshot::encode(SnapshotKind::Full, &all)
        }

        fn delta(&mut self) -> Option<StateSnapshot> {
            let touched = std::mem::take(&mut self.touched);
            let part: Vec<(u64, u64)> = touched.iter().map(|&k| (k, self.applied[&k])).collect();
            Some(StateSnapshot::encode(SnapshotKind::Delta, &part))
        }

        fn restore(
            &mut self,
            base: &StateSnapshot,
            deltas: &[StateSnapshot],
        ) -> Result<(), String> {
            assert_eq!(base.kind, SnapshotKind::Full, "the base is a full image");
            self.applied.clear();
            for snap in std::iter::once(base).chain(deltas) {
                self.applied.extend(snap.decode::<Vec<(u64, u64)>>()?);
            }
            Ok(())
        }
    }

    /// What a snapshot of `task` would hold right now (without taking one).
    fn tally_of(task: &mut BoltTask) -> BTreeMap<u64, u64> {
        let snap = task.bolt.stateful().unwrap().snapshot();
        snap.decode::<Vec<(u64, u64)>>()
            .unwrap()
            .into_iter()
            .collect()
    }

    /// Steps input `id` — edge 7 of the tree rooted at `id` — through `task`.
    fn step(task: &mut BoltTask, id: u64, fail: bool, now_s: f64) -> Stepped {
        let tuple = Tuple::of([Value::from(id as i64), Value::from(fail as i64)]);
        let sink = |_, _| unreachable!("nobody subscribes to the tally");
        task.step(&tuple, Some((id, 7)), Some(id), now_s, sink)
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A fresh input; the bolt fails it after applying it when `fail`.
        Deliver {
            fail: bool,
        },
        /// The spout re-sends an unacknowledged id (picked by index).
        Replay(usize),
        /// A spurious duplicate of any id ever sent.
        Duplicate(usize),
        Take {
            force: bool,
        },
        Tick,
        Crash,
    }

    /// Each op with the time that passes before it; deliveries dominate.
    fn ops() -> impl Strategy<Value = Vec<(Op, f64)>> {
        let op = (0u32..11, any::<u64>()).prop_map(|(kind, pick)| match kind {
            0..=3 => Op::Deliver {
                fail: pick % 4 == 0,
            },
            4 | 5 => Op::Replay(pick as usize),
            6 => Op::Duplicate(pick as usize),
            7 | 8 => Op::Take {
                force: pick % 2 == 0,
            },
            9 => Op::Tick,
            _ => Op::Crash,
        });
        prop::collection::vec((op, 0.0f64..0.7), 1..80)
    }

    /// The driver every backend is, minus threads and clocks: a store, the
    /// ids the spout still owes an ack, and the task's current incarnation.
    struct World {
        policy: Policy,
        store: CheckpointStore,
        generation: u64,
        task: BoltTask,
        now_s: f64,
        /// Every id ever sent, with when the spout tracked it.
        sent: Vec<(u64, f64)>,
        /// Ids whose ack (not failure) record left the task.
        acked: BTreeSet<u64>,
        /// Ids an approximate restore doomed.
        skipped: BTreeSet<u64>,
    }

    const INTERVAL_S: f64 = 1.0;

    impl World {
        fn new(policy: Policy) -> World {
            World {
                policy,
                store: CheckpointStore::detached(1),
                generation: 0,
                task: Self::incarnation(policy, 0.0),
                now_s: 0.0,
                sent: Vec::new(),
                acked: BTreeSet::new(),
                skipped: BTreeSet::new(),
            }
        }

        /// Nobody subscribes to the tally, so its fan-out reaches nothing.
        fn incarnation(policy: Policy, now_s: f64) -> BoltTask {
            let ctx = TopologyContext::solo("tally");
            let fan = FanOut::default();
            let checkpoints = Some((policy, INTERVAL_S));
            BoltTask::new(Box::new(Tally::default()), &ctx, fan, checkpoints, now_s)
        }

        fn owed(&self) -> Vec<u64> {
            let open = |id: &u64| !self.acked.contains(id) && !self.skipped.contains(id);
            self.sent.iter().map(|&(id, _)| id).filter(open).collect()
        }

        /// One input (its tree's root is its id), then what a driver does
        /// at the end of a batch: log first, then let the record go.
        fn deliver(&mut self, id: u64, fail: bool) {
            let step = step(&mut self.task, id, fail, self.now_s);
            assert_eq!(step.failed, fail && step.executed);
            for input in self.task.drain_log() {
                self.store.append_input(0, self.generation, input);
            }
            if let Some(record) = step.record.filter(|r| !r.failed) {
                self.acked.insert(record.root);
            }
        }

        fn take(&mut self, force: bool) {
            let first = self.task.cycle.as_ref().unwrap().taken == 0;
            let Some(deposit) = self.task.take(self.now_s, force) else {
                return;
            };
            if first {
                assert_eq!(deposit.snapshot.kind, SnapshotKind::Full);
            }
            let stored = self.store.deposit(
                0,
                self.generation,
                self.now_s,
                deposit.snapshot,
                deposit.dedup,
                0,
            );
            assert!(stored.is_some(), "a delta always finds its base");
            self.acked.extend(deposit.released.iter().map(|r| r.root));
        }

        /// The task dies with everything it held; its successor restores.
        fn crash(&mut self) {
            self.generation += 1;
            self.task = Self::incarnation(self.policy, self.now_s);
            let Some(from) = self.store.load(0, self.generation) else {
                return;
            };
            if let Some(cut) = self.policy.doom_cut(from.taken_at_s) {
                let owed = self.owed();
                let doomed = self
                    .sent
                    .iter()
                    .filter(|(id, at)| *at < cut && owed.contains(id));
                self.skipped.extend(doomed.map(|&(id, _)| id));
            }
            assert!(self.task.restore(from));
        }

        /// The withhold invariant: were the task to die now, every
        /// acknowledged effect would come back from the store.
        fn check_acked_effects_are_durable(&mut self) {
            let mut heir = Self::incarnation(self.policy, self.now_s);
            if let Some(from) = self.store.load(0, self.generation) {
                assert!(heir.restore(from));
            }
            let durable = tally_of(&mut heir);
            for id in &self.acked {
                assert!(durable.contains_key(id), "acked {id} would be lost");
            }
            if self.policy.dedup {
                let twice: Vec<_> = durable.iter().filter(|(_, &n)| n > 1).collect();
                assert!(twice.is_empty(), "applied twice: {twice:?}");
            }
        }
    }

    fn run(mode: RecoveryMode, inputs_logged: bool, ops: Vec<(Op, f64)>) {
        let mut w = World::new(Policy::of(mode, inputs_logged));
        for (op, dt) in ops {
            w.now_s += dt;
            match op {
                Op::Deliver { fail } => {
                    let id = w.sent.len() as u64 + 1;
                    w.sent.push((id, w.now_s));
                    w.deliver(id, fail);
                }
                Op::Replay(pick) => {
                    let owed = w.owed();
                    if let Some(&id) = owed.get(pick % owed.len().max(1)) {
                        w.deliver(id, false);
                    }
                }
                Op::Duplicate(pick) => {
                    if let Some(&(id, _)) = w.sent.get(pick % w.sent.len().max(1)) {
                        w.deliver(id, false);
                    }
                }
                Op::Take { force } => w.take(force),
                Op::Tick => w.task.tick(w.now_s, |_, _| {}),
                Op::Crash => w.crash(),
            }
            w.check_acked_effects_are_durable();
        }
        // The spout replays until it is owed nothing.
        for id in w.owed() {
            w.deliver(id, false);
        }
        w.take(true);
        assert_eq!(w.owed(), Vec::<u64>::new());
        let live = tally_of(&mut w.task);
        for &(id, _) in &w.sent {
            let n = live.get(&id).copied().unwrap_or(0);
            match mode {
                RecoveryMode::ExactlyOnceEffect => assert_eq!(n, 1, "id {id}"),
                RecoveryMode::AtLeastOnce => assert!(n >= 1, "id {id} lost"),
                RecoveryMode::Approximate => {
                    assert!(n >= 1 || w.skipped.contains(&id), "id {id} lost, uncounted")
                }
            }
        }
    }

    proptest! {
        /// Random interleavings of deliveries, failures, replays,
        /// duplicates, snapshots, ticks and crashes under every row of the
        /// policy table: an ack never outruns the durability of its effect,
        /// a delta never lacks its base, and after the spout has replayed
        /// what it was owed the result is what the mode promises.
        #[test]
        fn every_policy_row_keeps_its_promise(ops in ops(), row in 0usize..6) {
            let modes = [
                RecoveryMode::ExactlyOnceEffect,
                RecoveryMode::AtLeastOnce,
                RecoveryMode::Approximate,
            ];
            run(modes[row % 3], row < 3, ops);
        }
    }

    #[test]
    fn the_policy_table() {
        use OnRestore::*;
        let of = |mode, logged| {
            let p = Policy::of(mode, logged);
            (p.withhold_acks, p.dedup, p.on_restore)
        };
        let eoe = RecoveryMode::ExactlyOnceEffect;
        assert_eq!(of(eoe, true), (false, true, ReexecuteLog));
        assert_eq!(of(eoe, false), (true, true, Nothing));
        for logged in [true, false] {
            assert_eq!(
                of(RecoveryMode::AtLeastOnce, logged),
                (true, false, Nothing)
            );
            assert_eq!(
                of(RecoveryMode::Approximate, logged),
                (true, false, DoomBeforeCut)
            );
        }
        let approx = Policy::of(RecoveryMode::Approximate, false);
        assert_eq!(approx.doom_cut(Some(2.5)), Some(2.5));
        assert_eq!(approx.doom_cut(None), None);
        assert_eq!(Policy::of(eoe, false).doom_cut(Some(2.5)), None);
    }

    /// An idle task stops snapshotting once the store has its state and it
    /// owes no ack; a withheld record alone — the ack of a replay that
    /// changed nothing — keeps the cycle going.
    #[test]
    fn nothing_is_due_while_nothing_changed() {
        let policy = Policy::of(RecoveryMode::ExactlyOnceEffect, false);
        let mut task = World::incarnation(policy, 0.0);
        assert!(task.take(5.0, true).is_none(), "never applied anything");
        let first = step(&mut task, 1, false, 0.0);
        assert!(first.executed && !first.failed);
        assert_eq!(first.record, None, "withheld");
        assert!(task.take(0.5, false).is_none(), "interval not over");
        let deposit = task.take(1.0, false).expect("due");
        // The tally emits nothing, so its record is its input's edge.
        let record = AckRecord {
            root: 1,
            xor: 7,
            failed: false,
        };
        assert_eq!((deposit.released, deposit.dedup), (vec![record], vec![1]));
        assert!(task.take(9.0, true).is_none(), "store is current");
        let again = step(&mut task, 1, false, 9.0);
        assert!(!again.executed, "a replay");
        assert_eq!(again.record, None, "a replay's ack waits too");
        assert_eq!(
            task.take(9.0, false).expect("owes an ack").released,
            vec![record]
        );
        // A failure never waits, and neither does a stateless task, which
        // has no cycle at all.
        assert!(step(&mut task, 2, true, 9.0)
            .record
            .is_some_and(|r| r.failed));
        struct Plain;
        impl Bolt for Plain {
            fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
        }
        let ctx = TopologyContext::solo("plain");
        let fan = FanOut::default();
        let mut plain = BoltTask::new(Box::new(Plain), &ctx, fan, Some((policy, 1.0)), 0.0);
        assert!(!plain.is_checkpointed());
        assert_eq!(step(&mut plain, 1, false, 0.0).record, Some(record));
    }

    /// The record a step produces covers its input edge and every edge the
    /// fan-out drew for an anchored delivery — nothing for an unanchored
    /// one — so the acker's accumulator returns to zero exactly when every
    /// delivery has been executed.
    #[test]
    fn a_steps_record_covers_its_input_and_every_anchored_child() {
        use crate::component::{Spout, SpoutOutput};
        use crate::topology::TopologyBuilder;

        struct Src;
        impl Spout for Src {
            fn next_tuple(&mut self, _out: &mut SpoutOutput) -> bool {
                false
            }
        }
        /// Two anchored emissions and an unanchored one per input.
        struct Fan;
        impl Bolt for Fan {
            fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
                out.emit(tuple.clone());
                out.emit_unanchored(tuple.clone());
                out.emit(tuple.clone());
            }
        }
        struct Sink;
        impl Bolt for Sink {
            fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
        }
        let mut b = TopologyBuilder::new("fan");
        b.set_spout("src", 1, || Src).unwrap();
        b.set_bolt("fan", 1, || Fan)
            .unwrap()
            .shuffle_grouping("src")
            .unwrap();
        for sink in ["one", "two", "three"] {
            b.set_bolt(sink, 1, || Sink)
                .unwrap()
                .shuffle_grouping("fan")
                .unwrap();
        }
        let topology = b.build().unwrap();
        let fan = topology.component_by_name("fan").unwrap();
        let ctx = TopologyContext::solo("fan");
        let fan_out = FanOut::new(&topology, fan, 0, 11);
        let mut task = BoltTask::new(Box::new(Fan), &ctx, fan_out, None, 0.0);

        let tuple = Tuple::of([Value::from(1i64)]);
        let (mut anchored, mut unanchored) = (Vec::new(), 0);
        let step = task.step(&tuple, Some((9, 0xabc)), Some(5), 0.0, |_, d| {
            match d.anchor {
                Some((root, edge)) => {
                    assert_eq!((root, d.dedup.is_some()), (9, true));
                    anchored.push(edge);
                }
                None => {
                    assert_eq!(d.dedup, None);
                    unanchored += 1;
                }
            }
        });
        // Each emission reaches the three sinks.
        assert_eq!((anchored.len(), unanchored), (6, 3));
        let children = anchored.iter().fold(0, |acc, e| acc ^ e);
        let record = step.record.expect("stateless: leaves at once");
        assert_eq!((record.root, record.failed), (9, false));
        assert_eq!(record.xor, 0xabc ^ children);
        anchored.sort_unstable();
        anchored.dedup();
        assert_eq!(anchored.len(), 6, "edge ids are fresh");

        // An unanchored input has no tree: no record, no edges drawn.
        let step = task.step(&tuple, None, None, 0.0, |_, d| assert!(d.anchor.is_none()));
        assert_eq!(step.record, None);
    }

    #[test]
    fn children_inherit_anchor_and_dedup_together() {
        let mut out = BoltOutput::new();
        out.emit(Tuple::of([Value::from(1i64)]));
        out.emit_unanchored(Tuple::of([Value::from(2i64)]));
        let (emissions, _) = out.drain();
        assert_eq!(
            inherit(&emissions[0], 0, Some(9), Some(5)),
            (Some(9), Some(child_dedup(5, 0)))
        );
        assert_eq!(inherit(&emissions[0], 0, Some(9), None), (Some(9), None));
        assert_eq!(inherit(&emissions[1], 1, Some(9), Some(5)), (None, None));
        assert_eq!(inherit(&emissions[0], 0, None, Some(5)), (None, None));
        assert_ne!(child_dedup(5, 0), child_dedup(5, 1));
    }
}
