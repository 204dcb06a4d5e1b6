//! Checkpointed operator state with pluggable recovery guarantees.
//!
//! A supervisor restart used to rebuild a task from its component factory,
//! so windowed counts and any other accumulated bolt state silently died
//! and recomputed from nothing — replay only covers in-flight tuples.
//! This module closes that gap:
//!
//! * [`StatefulComponent`] is the snapshot surface a bolt exposes through
//!   [`Bolt::stateful`](crate::component::Bolt::stateful): encode the
//!   current state into a [`StateSnapshot`] (periodic **full** snapshots
//!   plus optional incremental **deltas**) and rebuild it from one.
//! * `CheckpointStore` (crate-internal) keeps the latest checkpoint per
//!   task — base snapshot, ordered deltas, the exactly-once input log and
//!   replay-dedup ids — in memory, and is the one place a deposit or a
//!   restore is counted and journaled.  Entries are guarded by the
//!   depositing task's generation so a superseded-but-still-running thread
//!   (or a dead worker's late frame) can never clobber its replacement's
//!   checkpoints.
//! * `DedupWindow` (crate-internal) is the FIFO-bounded set of applied ids
//!   a stateful task keeps under exactly-once effect, on every backend.
//! * [`RecoveryMode`] selects what a restart *means*: exactly-once effect,
//!   at-least-once (restore the latest snapshot, accept duplicates), or
//!   approximate (skip replay of pre-snapshot tuples and report the skip
//!   count as the error bound).
//!
//! *When* a snapshot is taken, what it releases and what a restore
//! rebuilds is decided by the crate-internal `bolt_task` module's
//! `CheckpointCycle`, stepped by `rt`'s task threads and `dist`'s workers;
//! the store sits in the task's address space on `rt` and in the
//! coordinator process on `dist`.  See `DESIGN.md` §6.2.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::component::MessageId;
use crate::dist::codec;
use crate::hash::FxHashSet;
use crate::telemetry::{Counter, Journal, JournalEvent};
use crate::tuple::Tuple;

/// Whether a [`StateSnapshot`] captures the whole state or a delta since
/// the previous snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A complete, self-contained image of the component's state.
    Full,
    /// An incremental delta; applying the base full snapshot and every
    /// delta in deposit order reproduces the full state.
    Delta,
}

/// An encoded image of one component's state.
///
/// The payload is an opaque byte string; [`StateSnapshot::encode`] and
/// [`StateSnapshot::decode`] wrap the workspace serde conventions so
/// components only deal in plain serializable values.  The payload is the
/// wire codec's compact binary value encoding behind a leading
/// [`SNAPSHOT_MAGIC`](crate::dist::codec::SNAPSHOT_MAGIC) byte.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSnapshot {
    /// Full image or incremental delta.
    pub kind: SnapshotKind,
    /// Encoded state payload.
    pub bytes: Vec<u8>,
}

impl StateSnapshot {
    /// Encodes a serializable value as a snapshot of the given kind.
    pub fn encode<T: Serialize>(kind: SnapshotKind, state: &T) -> StateSnapshot {
        let mut bytes = vec![codec::SNAPSHOT_MAGIC];
        codec::write_json_value(&mut bytes, &state.serialize_value());
        StateSnapshot { kind, bytes }
    }

    /// Decodes the snapshot payload back into a value.
    pub fn decode<T: Deserialize>(&self) -> Result<T, String> {
        let Some((&codec::SNAPSHOT_MAGIC, body)) = self.bytes.split_first() else {
            return Err("snapshot decode failed: missing magic byte".into());
        };
        let mut d = codec::Dec::new(body);
        let value =
            codec::read_json_value(&mut d).map_err(|e| format!("snapshot decode failed: {e}"))?;
        if !d.is_done() {
            return Err("snapshot decode failed: trailing bytes".into());
        }
        T::deserialize_value(&value).map_err(|e| format!("snapshot decode failed: {e}"))
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// The snapshot/restore surface of a checkpointable component.
///
/// Implementors encode their state with [`StateSnapshot::encode`]; the
/// checkpoint coordinator decides *when* to snapshot and what guarantee a
/// restore provides (see [`RecoveryMode`]).
pub trait StatefulComponent {
    /// Captures a full snapshot of the current state.
    ///
    /// Takes `&mut self` so implementations maintaining incremental
    /// dirty-tracking can reset it when a full image is cut.
    fn snapshot(&mut self) -> StateSnapshot;

    /// Captures an incremental delta since the last `snapshot`/`delta`
    /// call, or `None` when the component only supports full snapshots
    /// (the coordinator then always takes full images).
    fn delta(&mut self) -> Option<StateSnapshot> {
        None
    }

    /// Rebuilds the state from a base full snapshot plus the deltas taken
    /// after it, in order.
    fn restore(&mut self, base: &StateSnapshot, deltas: &[StateSnapshot]) -> Result<(), String>;
}

/// The recovery guarantee a restart of a stateful task provides, selected
/// via [`RtConfig::with_recovery_mode`](crate::rt::RtConfig::with_recovery_mode).
/// What each mode makes a task *do* is one table, `DESIGN.md` §6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// A replay-dedup set travels with every snapshot and replay-dedup ids
    /// are derived hop by hop, so a replayed input is acknowledged but not
    /// applied twice, any number of hops from the spout, and the task's
    /// observable effects match a fault-free run.  Where the store shares
    /// the task's address space (`rt`) acks stay immediate and the inputs
    /// applied since the last snapshot are logged and re-executed on
    /// restore; across a process boundary (`dist`) acks wait for the
    /// snapshot that covers them.
    ExactlyOnceEffect,
    /// Acks wait for the snapshot that covers them; a restart restores the
    /// latest snapshot and the normal timeout/replay path re-sends what it
    /// lacks.  An input applied after the last snapshot is applied again
    /// by its replay.
    #[default]
    AtLeastOnce,
    /// Restore the latest snapshot but *skip* replaying tuples tracked
    /// before it was taken, trading result accuracy for recovery speed.
    /// Every skip is counted, so `approx_skipped` bounds the number of
    /// tuples missing from aggregation results.
    Approximate,
}

impl RecoveryMode {
    /// Stable lower-snake name used in the journal and bench output.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryMode::ExactlyOnceEffect => "exactly_once_effect",
            RecoveryMode::AtLeastOnce => "at_least_once",
            RecoveryMode::Approximate => "approximate",
        }
    }
}

/// One input tuple recorded in the exactly-once log: everything needed to
/// re-execute it against the restored snapshot.
#[derive(Debug, Clone)]
pub(crate) struct LoggedInput {
    /// The tuple as delivered to the bolt.
    pub tuple: Tuple,
    /// Runtime clock (seconds since submit) when it was applied.
    pub now_s: f64,
    /// Spout message id when the tuple is dedupable (tracked emissions).
    pub dedup: Option<MessageId>,
}

/// Replay-dedup ids remembered per stateful task; FIFO-evicted above this
/// bound so the window cannot grow without limit.
const DEDUP_CAP: usize = 16_384;

/// The ids a stateful task has already applied under exactly-once effect,
/// so a replayed input is acknowledged but not applied twice.  A set
/// bounded by evicting the oldest id; the ids travel with every checkpoint
/// deposit ([`DedupWindow::ids`]) and come back on restore
/// ([`DedupWindow::from_ids`]).
#[derive(Debug, Default)]
pub(crate) struct DedupWindow {
    /// Insertion order; the set mirrors it for O(1) membership.
    fifo: VecDeque<MessageId>,
    set: FxHashSet<MessageId>,
}

impl DedupWindow {
    /// The window a checkpoint deposit's `dedup` ids describe.
    pub(crate) fn from_ids(ids: Vec<MessageId>) -> Self {
        DedupWindow {
            set: ids.iter().copied().collect(),
            fifo: ids.into(),
        }
    }

    /// The remembered ids, oldest first — what a checkpoint deposit carries.
    pub(crate) fn ids(&self) -> Vec<MessageId> {
        self.fifo.iter().copied().collect()
    }

    /// True when `id` was already applied.
    pub(crate) fn contains(&self, id: MessageId) -> bool {
        self.set.contains(&id)
    }

    /// Remembers an applied id, evicting the oldest at [`DEDUP_CAP`] — before
    /// the queue takes the new one, so it never allocates beyond the cap.
    pub(crate) fn insert(&mut self, id: MessageId) {
        if !self.set.insert(id) {
            return;
        }
        if self.fifo.len() == DEDUP_CAP {
            if let Some(old) = self.fifo.pop_front() {
                self.set.remove(&old);
            }
        }
        self.fifo.push_back(id);
    }
}

/// What the store keeps of a task, and hands its restarting successor
/// ([`CheckpointStore::load`]).
#[derive(Clone, Default)]
pub(crate) struct Restored {
    /// Base full snapshot, when one was taken.
    pub base: Option<StateSnapshot>,
    /// Deltas deposited after the base, in order.
    pub deltas: Vec<StateSnapshot>,
    /// Exactly-once input log since the newest snapshot (or since task
    /// start when there is none yet), to re-execute after restoring it.
    pub input_log: Vec<LoggedInput>,
    /// Replay-dedup ids captured with the newest snapshot.
    pub dedup: Vec<MessageId>,
    /// Runtime clock when the newest snapshot (base or delta) was taken.
    pub taken_at_s: Option<f64>,
}

/// The per-task checkpoint record inside the store.
#[derive(Default)]
struct TaskEntry {
    /// Generation of the last writer; writes from older ones are refused.
    generation: u64,
    kept: Restored,
}

/// The registry cells a store counts into (registered with the run's other
/// report counters, `report::RunCounters`).
#[derive(Clone)]
pub(crate) struct StoreCounters {
    pub(crate) checkpoints_taken: Counter,
    pub(crate) snapshot_bytes: Counter,
    pub(crate) restores: Counter,
}

/// In-memory store of the latest checkpoint per task.
///
/// One entry per global task id; every access locks only that task's
/// entry, so checkpointing tasks never contend with each other.
pub(crate) struct CheckpointStore {
    entries: Vec<Mutex<TaskEntry>>,
    journal: Arc<Journal>,
    counters: StoreCounters,
}

impl CheckpointStore {
    /// A store for `n_tasks` tasks.
    pub(crate) fn new(n_tasks: usize, journal: Arc<Journal>, counters: StoreCounters) -> Self {
        CheckpointStore {
            entries: (0..n_tasks).map(|_| Mutex::default()).collect(),
            journal,
            counters,
        }
    }

    /// Deposits `snap` as what its kind says it is — a full image replaces
    /// the base and clears the deltas, a delta joins them — truncates the
    /// input log, installs the new dedup set, and counts and journals the
    /// checkpoint (`duration_us`: what taking it cost the task, where the
    /// depositor could measure that).  Returns the bytes written, or `None`
    /// when the deposit is refused: a superseded generation, or a delta
    /// with no base of its own generation to sit on.
    pub(crate) fn deposit(
        &self,
        task: usize,
        generation: u64,
        taken_at_s: f64,
        snap: StateSnapshot,
        dedup: Vec<MessageId>,
        duration_us: u64,
    ) -> Option<u64> {
        let bytes = snap.bytes.len() as u64;
        let kind = {
            let mut entry = self.entries[task].lock().unwrap();
            let kind = match snap.kind {
                SnapshotKind::Full if generation >= entry.generation => {
                    entry.generation = generation;
                    entry.kept.base = Some(snap);
                    entry.kept.deltas.clear();
                    "full"
                }
                SnapshotKind::Delta
                    if generation == entry.generation && entry.kept.base.is_some() =>
                {
                    entry.kept.deltas.push(snap);
                    "delta"
                }
                _ => return None,
            };
            entry.kept.input_log.clear();
            entry.kept.dedup = dedup;
            entry.kept.taken_at_s = Some(taken_at_s);
            kind
        };
        self.counters.checkpoints_taken.inc();
        self.counters.snapshot_bytes.add(bytes);
        self.journal.append(JournalEvent::CheckpointTaken {
            time_s: taken_at_s,
            task,
            generation,
            kind: kind.to_string(),
            bytes,
            duration_us,
        });
        Some(bytes)
    }

    /// Appends one applied input to the task's exactly-once log, unless the
    /// append is stale.
    pub(crate) fn append_input(&self, task: usize, generation: u64, input: LoggedInput) {
        let mut entry = self.entries[task].lock().unwrap();
        if generation >= entry.generation {
            entry.generation = generation;
            entry.kept.input_log.push(input);
        }
    }

    /// Loads the task's latest checkpoint for a restarting incarnation,
    /// claiming the entry for `claim_generation` so writes from the
    /// superseded generation are refused from now on.  Returns `None` when
    /// the task never checkpointed *and* never logged an input.
    pub(crate) fn load(&self, task: usize, claim_generation: u64) -> Option<Restored> {
        let mut entry = self.entries[task].lock().unwrap();
        entry.generation = entry.generation.max(claim_generation);
        let kept = &entry.kept;
        (kept.base.is_some() || !kept.input_log.is_empty()).then(|| kept.clone())
    }

    /// The task's latest *full* snapshot, read without claiming the entry:
    /// the generation stays, and only the base is cloned — no deltas, input
    /// log or dedup ids.
    pub(crate) fn latest_full(&self, task: usize) -> Option<StateSnapshot> {
        self.entries[task].lock().unwrap().kept.base.clone()
    }

    /// Counts and journals how the restart of `task` ended: restored in
    /// `latency_us` from the snapshot the store holds, or — `None` —
    /// running on factory-fresh state.  Call before the new incarnation's
    /// first deposit: the snapshot's age is read off the entry.
    pub(crate) fn restored(
        &self,
        task: usize,
        generation: u64,
        time_s: f64,
        latency_us: Option<u64>,
    ) {
        let taken_at_s = self.entries[task].lock().unwrap().kept.taken_at_s;
        let snapshot_age_s = taken_at_s.map(|t| (time_s - t).max(0.0));
        self.journal.append(match latency_us {
            Some(latency_us) => {
                self.counters.restores.inc();
                JournalEvent::StateRestored {
                    time_s,
                    task,
                    generation,
                    snapshot_age_s,
                    latency_us,
                }
            }
            None => JournalEvent::StateLost {
                time_s,
                task,
                generation,
                snapshot_age_s,
            },
        });
    }
}

#[cfg(test)]
impl CheckpointStore {
    /// A store for `n_tasks` tasks on a journal and registry of its own.
    pub(crate) fn detached(n_tasks: usize) -> Self {
        let counters = crate::report::RunCounters::new(&crate::telemetry::Registry::new());
        CheckpointStore::new(n_tasks, Arc::new(Journal::new()), counters.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Tuple, Value};

    fn snap_of(kind: SnapshotKind, v: &Vec<(i64, i64)>) -> StateSnapshot {
        StateSnapshot::encode(kind, v)
    }

    #[test]
    fn encode_decode_round_trips() {
        let state = (Some(7u64), vec![("a".to_string(), 3u64)], 11u64);
        let snap = StateSnapshot::encode(SnapshotKind::Full, &state);
        assert_eq!(snap.kind, SnapshotKind::Full);
        assert!(!snap.is_empty());
        let back: (Option<u64>, Vec<(String, u64)>, u64) = snap.decode().unwrap();
        assert_eq!(back, state);
    }

    /// A payload that is truncated, carries trailing bytes, or does not
    /// start with the magic byte is an error, never a panic.
    #[test]
    fn corrupt_snapshots_are_decode_errors() {
        type State = Vec<(String, u64)>;
        let state: State = (0..64).map(|i| (format!("key-{i}"), i * 37)).collect();
        let snap = StateSnapshot::encode(SnapshotKind::Full, &state);
        assert_eq!(snap.bytes[0], codec::SNAPSHOT_MAGIC);

        let mut truncated = snap.clone();
        truncated.bytes.truncate(truncated.bytes.len() / 2);
        assert!(truncated.decode::<State>().is_err());
        let mut trailing = snap.clone();
        trailing.bytes.push(0);
        assert!(trailing.decode::<State>().is_err());
        let text = StateSnapshot {
            kind: SnapshotKind::Full,
            bytes: b"[[\"key-0\",0]]".to_vec(),
        };
        assert!(text.decode::<State>().is_err(), "no magic byte");
    }

    #[test]
    fn dedup_window_is_a_fifo_bounded_set() {
        let mut w = DedupWindow::default();
        assert!(!w.contains(7));
        w.insert(7);
        w.insert(8);
        w.insert(7); // already present: order and size unchanged
        assert!(w.contains(7) && w.contains(8));
        assert_eq!(w.ids(), vec![7, 8]);

        // What a checkpoint deposit carries rebuilds the same window.
        let back = DedupWindow::from_ids(w.ids());
        assert_eq!(back.ids(), vec![7, 8]);
        assert!(back.contains(7) && back.contains(8) && !back.contains(9));

        // Filling to the cap evicts nothing; one more evicts the oldest.
        let mut w = DedupWindow::default();
        for id in 0..DEDUP_CAP as u64 {
            w.insert(id);
        }
        assert!(w.contains(0));
        assert_eq!(w.ids().len(), DEDUP_CAP);
        w.insert(0); // present: no eviction
        assert_eq!(w.ids().len(), DEDUP_CAP);
        w.insert(DEDUP_CAP as u64);
        assert!(!w.contains(0) && w.contains(1) && w.contains(DEDUP_CAP as u64));
        assert_eq!(w.ids().len(), DEDUP_CAP);
        assert_eq!(w.ids()[0], 1);
    }

    #[test]
    fn deposit_load_full_plus_deltas() {
        let store = CheckpointStore::detached(2);
        let base = vec![(1i64, 10i64)];
        let delta = vec![(2i64, 20i64)];
        assert!(store
            .deposit(0, 0, 1.0, snap_of(SnapshotKind::Full, &base), vec![7], 0)
            .is_some());
        assert!(store
            .deposit(
                0,
                0,
                1.5,
                snap_of(SnapshotKind::Delta, &delta),
                vec![7, 8],
                0
            )
            .is_some());
        let r = store.load(0, 1).expect("checkpoint present");
        assert_eq!(r.taken_at_s, Some(1.5));
        assert_eq!(r.dedup, vec![7, 8]);
        assert_eq!(r.base.unwrap().decode::<Vec<(i64, i64)>>().unwrap(), base);
        assert_eq!(r.deltas.len(), 1);
        assert_eq!(r.deltas[0].decode::<Vec<(i64, i64)>>().unwrap(), delta);
        assert!(store.load(1, 1).is_none(), "other task untouched");
    }

    /// `deposit` files a snapshot under the kind it carries, and only what
    /// the store accepted is counted and journaled — under that same kind.
    #[test]
    fn deposits_and_restores_are_counted_and_journaled_once() {
        let store = CheckpointStore::detached(1);
        let v = vec![(1i64, 1i64)];
        let delta = || snap_of(SnapshotKind::Delta, &v);
        assert!(store.deposit(0, 0, 1.0, delta(), vec![], 0).is_none());
        assert_eq!(store.counters.checkpoints_taken.get(), 0, "no base yet");
        let full = snap_of(SnapshotKind::Full, &v);
        let bytes = store.deposit(0, 0, 2.0, full.clone(), vec![], 7);
        assert_eq!(bytes, Some(full.len() as u64));
        assert!(store.deposit(0, 0, 3.0, delta(), vec![], 0).is_some());
        let r = store.load(0, 0).unwrap();
        assert_eq!((r.base, r.deltas), (Some(full.clone()), vec![delta()]));
        store.restored(0, 1, 4.5, Some(9));
        store.restored(0, 2, 5.0, None);
        let kinds: Vec<String> = (store.journal.events().iter())
            .map(|e| match e {
                JournalEvent::CheckpointTaken { kind, .. } => kind.clone(),
                JournalEvent::StateRestored { snapshot_age_s, .. } => {
                    format!("restored, snapshot {}s old", snapshot_age_s.unwrap())
                }
                other => other.kind().to_string(),
            })
            .collect();
        let expected = ["full", "delta", "restored, snapshot 1.5s old", "state_lost"];
        assert_eq!(kinds, expected);
        let c = &store.counters;
        assert_eq!(c.checkpoints_taken.get(), 2);
        assert_eq!(c.snapshot_bytes.get(), (full.len() + delta().len()) as u64);
        assert_eq!(c.restores.get(), 1);
    }

    #[test]
    fn stale_generation_deposits_rejected() {
        let store = CheckpointStore::detached(1);
        let v = vec![(1i64, 1i64)];
        assert!(store
            .deposit(0, 0, 1.0, snap_of(SnapshotKind::Full, &v), vec![], 0)
            .is_some());
        // The replacement claims the entry at generation 1 …
        assert!(store.load(0, 1).is_some());
        // … so the superseded generation-0 thread can no longer write.
        assert!(store
            .deposit(0, 0, 2.0, snap_of(SnapshotKind::Full, &v), vec![], 0)
            .is_none());
        assert!(store
            .deposit(0, 0, 2.0, snap_of(SnapshotKind::Delta, &v), vec![], 0)
            .is_none());
        let late = LoggedInput {
            tuple: Tuple::of([Value::from(1i64)]),
            now_s: 2.0,
            dedup: None,
        };
        store.append_input(0, 0, late);
        assert!(store.load(0, 1).unwrap().input_log.is_empty());
        // Generation 1 itself writes fine.
        assert!(store
            .deposit(0, 1, 3.0, snap_of(SnapshotKind::Full, &v), vec![], 0)
            .is_some());
    }

    /// Reading a task's final state does not claim its entry — the writer's
    /// generation still deposits afterwards, which a `load` would have
    /// refused — and what it reads is the base, not a later delta.
    #[test]
    fn latest_full_reads_the_base_without_claiming_the_entry() {
        let store = CheckpointStore::detached(2);
        let (base, delta) = (vec![(1i64, 10i64)], vec![(2i64, 20i64)]);
        assert_eq!(store.latest_full(0), None, "nothing deposited yet");
        let full = snap_of(SnapshotKind::Full, &base);
        assert!(store.deposit(0, 3, 1.0, full.clone(), vec![7], 0).is_some());
        let d = || snap_of(SnapshotKind::Delta, &delta);
        assert!(store.deposit(0, 3, 1.5, d(), vec![7, 8], 0).is_some());
        assert_eq!(store.latest_full(0), Some(full));
        assert!(
            store.deposit(0, 3, 2.0, d(), vec![7, 8, 9], 0).is_some(),
            "generation 3 still owns the entry"
        );
        assert_eq!(store.latest_full(1), None, "other task untouched");
    }

    #[test]
    fn delta_without_base_rejected() {
        let store = CheckpointStore::detached(1);
        let v = vec![(1i64, 1i64)];
        assert!(store
            .deposit(0, 0, 1.0, snap_of(SnapshotKind::Delta, &v), vec![], 0)
            .is_none());
    }

    #[test]
    fn input_log_truncated_by_checkpoint_and_survives_load() {
        let store = CheckpointStore::detached(1);
        let input = |i: i64| LoggedInput {
            tuple: Tuple::of([Value::from(i)]),
            now_s: i as f64,
            dedup: Some(i as u64),
        };
        // Logged inputs are restorable even before any snapshot exists.
        store.append_input(0, 0, input(1));
        store.append_input(0, 0, input(2));
        let r = store.load(0, 1).expect("log alone is restorable");
        assert!(r.base.is_none());
        assert_eq!(r.input_log.len(), 2);
        assert_eq!(r.input_log[1].dedup, Some(2));
        // A full deposit truncates the log (its effects are in the image);
        // the load above claimed generation 1, so deposit as generation 1.
        let v = vec![(1i64, 1i64)];
        assert!(store
            .deposit(0, 1, 3.0, snap_of(SnapshotKind::Full, &v), vec![1, 2], 0)
            .is_some());
        let r = store.load(0, 2).unwrap();
        assert!(r.input_log.is_empty());
        assert_eq!(r.dedup, vec![1, 2]);
    }

    #[test]
    fn recovery_mode_names_are_stable() {
        assert_eq!(
            RecoveryMode::ExactlyOnceEffect.as_str(),
            "exactly_once_effect"
        );
        assert_eq!(RecoveryMode::AtLeastOnce.as_str(), "at_least_once");
        assert_eq!(RecoveryMode::Approximate.as_str(), "approximate");
        assert_eq!(RecoveryMode::default(), RecoveryMode::AtLeastOnce);
    }
}
