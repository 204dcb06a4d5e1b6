//! One bolt step, one checkpoint cycle.
//!
//! A [`BoltTask`] is one bolt instance plus — only when the bolt is
//! stateful and the run checkpoints — the [`CheckpointCycle`] that decides
//! what a recovery guarantee means for that task: whether a replayed input
//! is applied again, when the ack record of an applied input may leave,
//! when a snapshot is due and of which kind, what a restore rebuilds.  It
//! holds no clock, thread, socket or store: `rt`'s task thread and `dist`'s
//! worker executor step it from their own loops and ship what it hands
//! back — ack records of their own type `R` (an acker op on `rt`, a wire
//! ack item on `dist`), snapshots, logged inputs.  What a [`RecoveryMode`]
//! makes a task do is the one table in [`Policy::of`] (`DESIGN.md` §6.2).

use crate::acker::{splitmix64, RootId};
use crate::checkpoint::{DedupWindow, LoggedInput, RecoveryMode, Restored, StateSnapshot};
use crate::component::{Bolt, BoltOutput, Emission, MessageId, TopologyContext};
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
pub(crate) fn child_dedup(parent: MessageId, idx: usize) -> MessageId {
    splitmix64(parent ^ splitmix64(idx as u64 + 1))
}

/// What the `idx`-th emission of a step inherits from the step's input:
/// the tree it extends (anchored emissions only) and, with it, its dedup id.
pub(crate) fn inherit(
    emission: &Emission,
    idx: usize,
    root: Option<RootId>,
    dedup: Option<MessageId>,
) -> (Option<RootId>, Option<MessageId>) {
    let root = root.filter(|_| emission.anchored);
    let dedup = dedup.filter(|_| root.is_some());
    (root, dedup.map(|id| child_dedup(id, idx)))
}

/// How [`BoltTask::step`] disposed of an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// The bolt ran; `failed` is whether it failed the input.
    Executed { failed: bool },
    /// A replay of an input already applied: not run again, but its ack
    /// record is still owed (through [`BoltTask::settle`]).
    Replayed,
}

/// One snapshot on its way to the store, and what it covers.
pub(crate) struct Deposit<R> {
    pub(crate) snapshot: StateSnapshot,
    /// The replay-dedup ids as of the snapshot.
    pub(crate) dedup: Vec<MessageId>,
    /// The ack records withheld for it: free to leave behind the snapshot.
    pub(crate) released: Vec<R>,
}

/// The recovery bookkeeping of one incarnation of a stateful task.
pub(crate) struct CheckpointCycle<R> {
    policy: Policy,
    interval_s: f64,
    /// Snapshots taken this incarnation (0 ⇒ the next one is full).
    taken: u64,
    /// When the last one was taken (or the incarnation started).
    last_s: f64,
    /// Inputs applied and ticks run since then: what the store lacks.
    changes: usize,
    dedup: DedupWindow,
    withheld: Vec<R>,
    /// Applied inputs not yet handed to the store's log.
    log: Vec<LoggedInput>,
}

impl<R> CheckpointCycle<R> {
    /// Whether a snapshot is due: never while the store already holds this
    /// state and owes nobody an ack.
    fn due(&self, now_s: f64, force: bool) -> bool {
        (self.changes > 0 || !self.withheld.is_empty())
            && (force || now_s - self.last_s >= self.interval_s || self.changes >= LOG_HIGH_WATER)
    }
}

/// One bolt task: the bolt and, when it is checkpointed, its cycle.
pub(crate) struct BoltTask<R> {
    bolt: Box<dyn Bolt>,
    cycle: Option<CheckpointCycle<R>>,
}

impl<R> BoltTask<R> {
    /// Prepares `bolt`; it gets a cycle when it reports state and the run
    /// checkpoints (`checkpoints`: the policy and the snapshot interval).
    pub(crate) fn new(
        mut bolt: Box<dyn Bolt>,
        ctx: &TopologyContext,
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
        BoltTask { bolt, cycle }
    }

    /// Whether this task snapshots and restores its state.
    pub(crate) fn is_checkpointed(&self) -> bool {
        self.cycle.is_some()
    }

    /// Runs one input through the bolt, unless it is a replay of one
    /// already applied.  Emissions land in `emissions`.
    pub(crate) fn step(
        &mut self,
        tuple: &Tuple,
        dedup: Option<MessageId>,
        out: &mut BoltOutput,
        emissions: &mut Vec<Emission>,
    ) -> Step {
        if let (Some(cycle), Some(id)) = (&self.cycle, dedup) {
            if cycle.dedup.contains(id) {
                return Step::Replayed;
            }
        }
        let failed = self.apply(tuple, dedup, true, out, emissions);
        Step::Executed { failed }
    }

    /// The one place a bolt executes.  An input counts as applied — id
    /// remembered, input logged — even if the bolt then failed it: the
    /// state mutation happened.
    fn apply(
        &mut self,
        tuple: &Tuple,
        dedup: Option<MessageId>,
        log: bool,
        out: &mut BoltOutput,
        emissions: &mut Vec<Emission>,
    ) -> bool {
        self.bolt.execute(tuple, out);
        let failed = out.drain_into(emissions);
        if let Some(cycle) = &mut self.cycle {
            cycle.changes += 1;
            if let Some(id) = dedup.filter(|_| cycle.policy.dedup) {
                cycle.dedup.insert(id);
            }
            if log && cycle.policy.on_restore == OnRestore::ReexecuteLog {
                cycle.log.push(LoggedInput {
                    tuple: tuple.clone(),
                    now_s: out.now_s(),
                    dedup,
                });
            }
        }
        failed
    }

    /// When the ack record of the input just stepped may leave: `Some` =
    /// now, `None` = withheld until the next [`take`](Self::take) hands it
    /// back.  A failure never waits.
    pub(crate) fn settle(&mut self, record: R, failed: bool) -> Option<R> {
        match &mut self.cycle {
            Some(cycle) if cycle.policy.withhold_acks && !failed => {
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
    pub(crate) fn take(&mut self, now_s: f64, force: bool) -> Option<Deposit<R>> {
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
    pub(crate) fn restore(
        &mut self,
        from: Restored,
        out: &mut BoltOutput,
        emissions: &mut Vec<Emission>,
    ) -> bool {
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
            out.set_now(input.now_s);
            self.apply(&input.tuple, input.dedup, false, out, emissions);
            emissions.clear();
        }
        true
    }

    /// Ticks the bolt; a tick may change state (a window closing), so it
    /// counts as a change the store lacks.
    pub(crate) fn tick(&mut self, out: &mut BoltOutput, emissions: &mut Vec<Emission>) {
        self.bolt.tick(out);
        out.drain_into(emissions);
        if let Some(cycle) = &mut self.cycle {
            cycle.changes += 1;
        }
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
    fn tally_of(task: &mut BoltTask<u64>) -> BTreeMap<u64, u64> {
        let snap = task.bolt.stateful().unwrap().snapshot();
        snap.decode::<Vec<(u64, u64)>>()
            .unwrap()
            .into_iter()
            .collect()
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
        task: BoltTask<u64>,
        now_s: f64,
        out: BoltOutput,
        emissions: Vec<Emission>,
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
                out: BoltOutput::new(),
                emissions: Vec::new(),
                sent: Vec::new(),
                acked: BTreeSet::new(),
                skipped: BTreeSet::new(),
            }
        }

        fn incarnation(policy: Policy, now_s: f64) -> BoltTask<u64> {
            let ctx = TopologyContext::solo("tally");
            BoltTask::new(
                Box::new(Tally::default()),
                &ctx,
                Some((policy, INTERVAL_S)),
                now_s,
            )
        }

        fn owed(&self) -> Vec<u64> {
            let open = |id: &u64| !self.acked.contains(id) && !self.skipped.contains(id);
            self.sent.iter().map(|&(id, _)| id).filter(open).collect()
        }

        /// One input, then what a driver does at the end of a batch: log
        /// first, then let the record go.
        fn deliver(&mut self, id: u64, fail: bool) {
            let tuple = Tuple::of([Value::from(id as i64), Value::from(fail as i64)]);
            self.out.set_now(self.now_s);
            let step = self
                .task
                .step(&tuple, Some(id), &mut self.out, &mut self.emissions);
            let failed = step == Step::Executed { failed: true };
            assert_eq!(failed, fail && step != Step::Replayed);
            let record = self.task.settle(id, failed);
            for input in self.task.drain_log() {
                self.store.append_input(0, self.generation, input);
            }
            if let (Some(id), false) = (record, failed) {
                self.acked.insert(id);
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
            self.acked.extend(deposit.released);
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
            assert!(self.task.restore(from, &mut self.out, &mut self.emissions));
        }

        /// The withhold invariant: were the task to die now, every
        /// acknowledged effect would come back from the store.
        fn check_acked_effects_are_durable(&mut self) {
            let mut heir = Self::incarnation(self.policy, self.now_s);
            if let Some(from) = self.store.load(0, self.generation) {
                assert!(heir.restore(from, &mut self.out, &mut self.emissions));
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
                Op::Tick => {
                    w.task.tick(&mut w.out, &mut w.emissions);
                }
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
        let mut task: BoltTask<u64> = World::incarnation(policy, 0.0);
        let (mut out, mut emissions) = (BoltOutput::new(), Vec::new());
        assert!(task.take(5.0, true).is_none(), "never applied anything");
        let tuple = Tuple::of([Value::from(1i64), Value::from(0i64)]);
        let step = task.step(&tuple, Some(1), &mut out, &mut emissions);
        assert_eq!(step, Step::Executed { failed: false });
        assert_eq!(task.settle(7, false), None, "withheld");
        assert!(task.take(0.5, false).is_none(), "interval not over");
        let deposit = task.take(1.0, false).expect("due");
        assert_eq!((deposit.released, deposit.dedup), (vec![7], vec![1]));
        assert!(task.take(9.0, true).is_none(), "store is current");
        let step = task.step(&tuple, Some(1), &mut out, &mut emissions);
        assert_eq!(step, Step::Replayed);
        assert_eq!(task.settle(8, false), None, "a replay's ack waits too");
        assert_eq!(
            task.take(9.0, false).expect("owes an ack").released,
            vec![8]
        );
        // A stateless task has no cycle at all: every record leaves at once.
        struct Plain;
        impl Bolt for Plain {
            fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
        }
        let ctx = TopologyContext::solo("plain");
        let mut plain: BoltTask<u64> =
            BoltTask::new(Box::new(Plain), &ctx, Some((policy, 1.0)), 0.0);
        assert!(!plain.is_checkpointed());
        assert_eq!(plain.settle(7, false), Some(7));
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
