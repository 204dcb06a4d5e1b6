//! The spout side of a tuple tree's life, shared by the threaded and the
//! distributed backend: track → outcome → replay → give up.
//!
//! A [`TreeLifecycle`] is a plain value — no thread, socket or clock inside
//! — stepped by [`SpoutTask::step`](crate::spout_task::SpoutTask::step),
//! which borrows it from a mutex in the backend's shared state (a restore's
//! doom, the drain check and the report read it there).  It decides what a
//! completed tree means for its message (`ack`, `fail`, or a silent replay),
//! counts the unresolved messages the `max_spout_pending` throttle and the
//! report read, and owns the run's delivery counters as registry cells.
//! After every step `tracked == acked + permanently_failed + pending`.
//!
//! With [`RtConfig::max_replays`] > 0 a [`ReplayBuffer`] caches each tracked
//! emission so a failed or timed-out tree is re-emitted — up to
//! `max_replays` times, `replay_backoff × 2^attempt` apart — and only the
//! first resolution of an id counts.  With replay off nothing is cached:
//! every tree is its message's only attempt and the lifecycle is a counter.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::acker::{Completion, TreeOutcome};
use crate::component::{Emission, MessageId, Spout};
use crate::hash::FxHashMap;
use crate::metrics::{LatencyHistogram, OnlineStats};
use crate::rt::RtConfig;
use crate::telemetry::{trace::trace_id, Counter, Journal, JournalEvent, Tracer};

/// The delivery counters of a run, as cells of the backend's registry
/// (each backend registers them under its own family names).
#[derive(Clone)]
pub(crate) struct TreeCounters {
    /// Distinct tracked message ids.
    pub(crate) tracked: Counter,
    /// Messages whose tree was fully acked.
    pub(crate) acked: Counter,
    /// Tree-failure events (per tree, so replayed messages count again).
    pub(crate) failed: Counter,
    /// Tree-timeout events (per tree).
    pub(crate) timed_out: Counter,
    /// Messages given up on: replay budget exhausted, doomed by an
    /// approximate restore, or — with replay off — every failure.
    pub(crate) permanently_failed: Counter,
    /// Replays scheduled (backoff timers armed).
    pub(crate) replays_scheduled: Counter,
    /// Replays re-emitted under fresh trees.
    pub(crate) replays_emitted: Counter,
    /// Messages skipped (not replayed) by approximate-mode restores.
    pub(crate) approx_skipped: Counter,
}

/// What user code hears about a message after one of its trees completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Notify {
    /// Call [`Spout::ack`].
    Ack,
    /// Call [`Spout::fail`].
    Fail,
    /// Nothing: a replay is pending, the skip is an approximate restore's
    /// reported error, or the message was already resolved.
    Nothing,
}

impl Notify {
    /// Makes the call on `spout`.
    pub(crate) fn tell(self, spout: &mut dyn Spout, id: MessageId) {
        match self {
            Notify::Ack => spout.ack(id),
            Notify::Fail => spout.fail(id),
            Notify::Nothing => {}
        }
    }
}

/// Tree lifecycle of one spout task.
pub(crate) struct TreeLifecycle {
    max_replays: u32,
    backoff: Duration,
    /// Unresolved messages when replay is on.
    replay: ReplayBuffer,
    /// Unresolved messages when replay is off (nothing is cached).
    in_flight: usize,
    counters: TreeCounters,
    journal: Arc<Journal>,
    /// Complete latency (µs) of this spout's acked trees.
    latency: (OnlineStats, LatencyHistogram),
}

impl TreeLifecycle {
    pub(crate) fn new(rt: &RtConfig, counters: TreeCounters, journal: Arc<Journal>) -> Self {
        TreeLifecycle {
            max_replays: rt.max_replays,
            backoff: rt.replay_backoff,
            replay: ReplayBuffer::default(),
            in_flight: 0,
            counters,
            journal,
            latency: (OnlineStats::new(), LatencyHistogram::new()),
        }
    }

    /// A fresh emission went out as a tracked tree.  Called after routing,
    /// so the emission moves into the replay cache instead of being cloned
    /// (the owning loop handles `id`'s feedback on a later step: no race).
    pub(crate) fn on_track(&mut self, id: MessageId, emission: Emission, now_s: f64) {
        if self.max_replays == 0 {
            self.in_flight += 1;
        } else if !self.replay.on_track(id, Arc::new(emission), now_s) {
            // A restarted spout re-emitted a known id: same message.
            return;
        }
        self.counters.tracked.inc();
    }

    /// One of this spout's trees completed.
    pub(crate) fn on_outcome(&mut self, outcome: &TreeOutcome, now_s: f64) -> Notify {
        let id = outcome.message_id;
        let acked = outcome.completion == Completion::Acked;
        match outcome.completion {
            Completion::Acked => {}
            Completion::Failed => self.counters.failed.inc(),
            Completion::TimedOut => self.counters.timed_out.inc(),
        }
        if self.max_replays > 0 {
            if !acked {
                return self.on_fail(id, now_s);
            }
            if !self.replay.on_ack(id) {
                // Already resolved through another tree of the same id.
                return Notify::Nothing;
            }
        } else {
            self.in_flight = self.in_flight.saturating_sub(1);
            if !acked {
                self.counters.permanently_failed.inc();
                return Notify::Fail;
            }
        }
        self.counters.acked.inc();
        let latency_us = outcome.complete_latency() * 1e6;
        self.latency.0.update(latency_us);
        self.latency.1.record(latency_us);
        Notify::Ack
    }

    /// A tree of tracked message `id` failed or timed out with replay on.
    fn on_fail(&mut self, id: MessageId, now_s: f64) -> Notify {
        match self
            .replay
            .on_fail(id, self.max_replays, self.backoff, now_s)
        {
            FailDecision::Scheduled { attempt, delay } => {
                self.counters.replays_scheduled.inc();
                self.journal.append(JournalEvent::ReplayScheduled {
                    time_s: now_s,
                    message_id: id,
                    attempt,
                    delay_ms: delay.as_secs_f64() * 1e3,
                });
                Notify::Nothing
            }
            FailDecision::Exhausted { attempts } => {
                self.counters.permanently_failed.inc();
                self.journal.append(JournalEvent::ReplayExhausted {
                    time_s: now_s,
                    message_id: id,
                    attempts,
                });
                Notify::Fail
            }
            FailDecision::Doomed => {
                self.counters.permanently_failed.inc();
                self.counters.approx_skipped.inc();
                Notify::Nothing
            }
            FailDecision::Untracked => Notify::Nothing,
        }
    }

    /// Takes every replay whose backoff has elapsed, with its attempt
    /// number; the owner re-emits each under a fresh tree and reports it
    /// with [`on_replayed`](Self::on_replayed).
    pub(crate) fn take_due(&mut self, now_s: f64) -> Vec<(MessageId, Arc<Emission>, u32)> {
        self.replay.take_due(now_s)
    }

    /// A due replay of `id` went out as tree `root`.
    pub(crate) fn on_replayed(&mut self, id: MessageId, attempt: u32, root: u64, now_s: f64) {
        self.counters.replays_emitted.inc();
        self.journal.append(JournalEvent::ReplayEmitted {
            time_s: now_s,
            message_id: id,
            attempt,
            root,
            trace_id: trace_id(root),
        });
    }

    /// An approximate-mode restore skips the replay of every message
    /// tracked before its snapshot (`cutoff_s`): those awaiting a replay
    /// are given up now, those in flight when their tree next fails.
    pub(crate) fn doom_tracked_before(&mut self, cutoff_s: f64) {
        let dropped = self.replay.doom_tracked_before(cutoff_s) as u64;
        self.counters.permanently_failed.add(dropped);
        self.counters.approx_skipped.add(dropped);
    }

    /// Messages still unresolved: in flight or awaiting a replay.
    pub(crate) fn pending(&self) -> usize {
        self.in_flight + self.replay.len()
    }

    /// Runtime-clock time of the earliest scheduled replay, if any (lets an
    /// idle owner sleep exactly long enough).
    pub(crate) fn next_due(&self) -> Option<f64> {
        self.replay.next_due()
    }

    /// Complete latency (µs) of this spout's acked trees.
    pub(crate) fn latency(&self) -> &(OnlineStats, LatencyHistogram) {
        &self.latency
    }
}

/// Messages a run's spouts have yet to resolve: a tree in flight or a
/// replay awaited.
pub(crate) fn unresolved(spouts: &[Mutex<TreeLifecycle>]) -> usize {
    spouts.iter().map(|trees| trees.lock().pending()).sum()
}

/// Complete latency (µs) of a run's acked trees, over all its spouts.
pub(crate) fn merged_latency(spouts: &[Mutex<TreeLifecycle>]) -> (OnlineStats, LatencyHistogram) {
    let mut merged = (OnlineStats::new(), LatencyHistogram::new());
    for trees in spouts {
        let trees = trees.lock();
        merged.0.merge(&trees.latency().0);
        merged.1.merge(&trees.latency().1);
    }
    merged
}

/// Hands completed trees to the spout tasks that own them — one `send`
/// per spout — after recording the terminal span of every sampled tree in
/// `tracer` slot `slot`.
pub(crate) fn deliver_outcomes(
    tracer: &Tracer,
    slot: usize,
    mut outcomes: Vec<TreeOutcome>,
    mut send: impl FnMut(usize, Vec<TreeOutcome>),
) {
    if tracer.enabled() {
        for o in outcomes.iter().filter(|o| tracer.sampled(o.root)) {
            tracer.record_outcome(slot, o);
        }
    }
    while let Some(spout) = outcomes.first().map(|o| o.spout_task.0) {
        let (mine, rest) = outcomes
            .into_iter()
            .partition(|o: &TreeOutcome| o.spout_task.0 == spout);
        outcomes = rest;
        send(spout, mine);
    }
}

/// What to do with a message whose tree just failed or timed out.
#[derive(Debug, PartialEq, Eq)]
enum FailDecision {
    /// A replay is scheduled; do not surface the failure to user code yet.
    Scheduled {
        /// Attempt number this schedule will become (1 = first replay).
        attempt: u32,
        /// Backoff delay before the re-emission fires.
        delay: Duration,
    },
    /// Retries exhausted: the message is permanently failed.
    Exhausted {
        /// Replay attempts consumed before giving up.
        attempts: u32,
    },
    /// The message was never tracked here (e.g. replay enabled mid-stream);
    /// surface the failure as-is.
    Untracked,
    /// The message was doomed by an approximate-mode restore
    /// ([`ReplayBuffer::doom_tracked_before`]): drop it without replaying
    /// and count it as permanently failed, but do not surface the failure
    /// to user code — the skip is the reported approximation error.
    Doomed,
}

struct Entry {
    /// The cached emission, shared with the spout loop (never deep-cloned:
    /// caching and replaying both bump the refcount).
    emission: Arc<Emission>,
    /// Replays already attempted (0 = original emission only).
    attempts: u32,
    /// Runtime clock (s) from which the next replay may fire; `None` while a
    /// tree is in flight.
    retry_at: Option<f64>,
    /// Runtime clock when the message was (re-)tracked; the approximate
    /// recovery mode dooms entries tracked before its snapshot cutoff.
    tracked_at_s: f64,
    /// Marked by [`ReplayBuffer::doom_tracked_before`]: the next failure of
    /// this in-flight tree is skipped instead of replayed.
    doomed: bool,
}

/// Replay state of one spout task: every tracked message id stays here
/// until it is acked or its retries are exhausted.
#[derive(Default)]
struct ReplayBuffer {
    entries: FxHashMap<MessageId, Entry>,
    /// Entries whose `retry_at` is set.  Zero in the common case (nothing
    /// failed), which lets [`take_due`](Self::take_due) and
    /// [`next_due`](Self::next_due) skip walking every tracked entry.
    scheduled: usize,
}

impl ReplayBuffer {
    /// Records a freshly tracked emission.  Returns `true` when the message
    /// id is new (first attempt), `false` when an existing entry was
    /// refreshed (a restarted spout re-emitting the same id).
    fn on_track(&mut self, id: MessageId, emission: Arc<Emission>, now_s: f64) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.emission = emission;
                self.scheduled -= usize::from(e.retry_at.take().is_some());
                e.tracked_at_s = now_s;
                e.doomed = false;
                false
            }
            None => {
                self.entries.insert(
                    id,
                    Entry {
                        emission,
                        attempts: 0,
                        retry_at: None,
                        tracked_at_s: now_s,
                        doomed: false,
                    },
                );
                true
            }
        }
    }

    /// The message's tree completed: forget it.  Returns `true` when it was
    /// tracked.
    fn on_ack(&mut self, id: MessageId) -> bool {
        match self.entries.remove(&id) {
            Some(e) => {
                self.scheduled -= usize::from(e.retry_at.is_some());
                true
            }
            None => false,
        }
    }

    /// The message's tree failed or timed out: schedule a replay or give up.
    fn on_fail(
        &mut self,
        id: MessageId,
        max_replays: u32,
        backoff: Duration,
        now_s: f64,
    ) -> FailDecision {
        match self.entries.get_mut(&id) {
            None => FailDecision::Untracked,
            Some(e) if e.doomed || e.attempts >= max_replays => {
                let (doomed, attempts) = (e.doomed, e.attempts);
                self.on_ack(id);
                if doomed {
                    FailDecision::Doomed
                } else {
                    FailDecision::Exhausted { attempts }
                }
            }
            Some(e) => {
                let delay = backoff * 2u32.saturating_pow(e.attempts).min(1 << 16);
                e.attempts += 1;
                self.scheduled +=
                    usize::from(e.retry_at.replace(now_s + delay.as_secs_f64()).is_none());
                FailDecision::Scheduled {
                    attempt: e.attempts,
                    delay,
                }
            }
        }
    }

    /// Takes every message whose backoff has elapsed (with its attempt
    /// number); the entries stay tracked (marked in flight) until acked or
    /// failed again.
    fn take_due(&mut self, now_s: f64) -> Vec<(MessageId, Arc<Emission>, u32)> {
        let mut due = Vec::new();
        if self.scheduled == 0 {
            return due;
        }
        for (id, e) in self.entries.iter_mut() {
            if matches!(e.retry_at, Some(at) if at <= now_s) {
                e.retry_at = None;
                due.push((*id, Arc::clone(&e.emission), e.attempts));
            }
        }
        self.scheduled -= due.len();
        due
    }

    /// Earliest scheduled replay, if any (lets an idle spout sleep exactly
    /// long enough).
    fn next_due(&self) -> Option<f64> {
        if self.scheduled == 0 {
            return None;
        }
        self.entries
            .values()
            .filter_map(|e| e.retry_at)
            .reduce(f64::min)
    }

    /// Dooms every message tracked before `cutoff_s` (an approximate-mode
    /// restore skipping pre-snapshot replays).  Entries already awaiting a
    /// scheduled replay are dropped immediately and counted in the returned
    /// total; in-flight entries are marked so their eventual failure or
    /// timeout yields [`FailDecision::Doomed`] instead of a replay.  Acks of
    /// doomed in-flight trees still complete normally.
    fn doom_tracked_before(&mut self, cutoff_s: f64) -> usize {
        let mut dropped = 0;
        self.entries.retain(|_, e| {
            if e.tracked_at_s >= cutoff_s {
                return true;
            }
            if e.retry_at.is_some() {
                dropped += 1;
                self.scheduled -= 1;
                false
            } else {
                e.doomed = true;
                true
            }
        });
        dropped
    }

    /// Messages still tracked: in flight or awaiting a replay.
    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
impl TreeCounters {
    /// Counters of no registry, for tests that step a lifecycle by hand.
    pub(crate) fn detached() -> Self {
        crate::report::RunCounters::new(&crate::telemetry::Registry::new()).trees
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::topology::TaskId;
    use crate::tuple::{Tuple, Value};

    fn emission(id: MessageId) -> Arc<Emission> {
        Arc::new(Emission {
            tuple: Tuple::of([Value::from(id as i64)]),
            message_id: Some(id),
            anchored: true,
        })
    }

    /// User code as the property test sees it: what it was told, per id.
    #[derive(Default)]
    struct Heard(FxHashMap<MessageId, (u32, u32)>);

    impl Spout for Heard {
        fn next_tuple(&mut self, _out: &mut crate::component::SpoutOutput) -> bool {
            false
        }
        fn ack(&mut self, id: MessageId) {
            self.0.entry(id).or_default().0 += 1;
        }
        fn fail(&mut self, id: MessageId) {
            self.0.entry(id).or_default().1 += 1;
        }
    }

    /// Drives one lifecycle the way a spout loop does, standing in for the
    /// acker: `live` holds the trees in flight, `done` every outcome
    /// already delivered (the source of duplicates).
    struct Driver {
        trees: TreeLifecycle,
        counters: TreeCounters,
        heard: Heard,
        live: Vec<(u64, MessageId)>,
        done: Vec<TreeOutcome>,
        next_root: u64,
        now_s: f64,
    }

    impl Driver {
        fn new(max_replays: u32) -> Self {
            let counters = TreeCounters::detached();
            let rt = RtConfig::default()
                .with_max_replays(max_replays)
                .with_replay_backoff(Duration::from_millis(10));
            Driver {
                trees: TreeLifecycle::new(&rt, counters.clone(), Arc::new(Journal::new())),
                counters,
                heard: Heard::default(),
                live: Vec::new(),
                done: Vec::new(),
                next_root: 0,
                now_s: 0.0,
            }
        }

        fn root(&mut self, id: MessageId) -> u64 {
            self.next_root += 1;
            self.live.push((self.next_root, id));
            self.next_root
        }

        fn deliver(&mut self, outcome: &TreeOutcome) {
            let heard = self.trees.on_outcome(outcome, self.now_s);
            heard.tell(&mut self.heard, outcome.message_id);
        }

        fn complete(&mut self, pick: usize, completion: Completion) {
            if self.live.is_empty() {
                return;
            }
            let (root, message_id) = self.live.swap_remove(pick % self.live.len());
            let outcome = TreeOutcome {
                root,
                spout_task: TaskId(0),
                message_id,
                completion,
                spawned_at: 0.0,
                completed_at: self.now_s,
            };
            self.deliver(&outcome);
            self.done.push(outcome);
        }

        fn replay_due(&mut self) {
            for (id, _emission, attempt) in self.trees.take_due(self.now_s) {
                let root = self.root(id);
                self.trees.on_replayed(id, attempt, root, self.now_s);
            }
        }

        /// The identity every step must preserve, and the at-most-once
        /// contract toward user code.
        fn check(&self) {
            let c = &self.counters;
            assert_eq!(
                c.tracked.get(),
                c.acked.get() + c.permanently_failed.get() + self.trees.pending() as u64,
                "tracked == acked + permanently_failed + pending"
            );
            for (id, &(acks, fails)) in &self.heard.0 {
                assert!(
                    acks + fails <= 1,
                    "id {id} heard {acks} acks, {fails} fails"
                );
            }
        }
    }

    proptest! {
        /// Random interleavings of fresh emissions, acks, fails, timeouts,
        /// clock advances with due replays, approximate-mode dooms and
        /// duplicate outcomes conserve messages after every step.  Without
        /// a replay buffer the lifecycle keeps no per-id memory (the acker
        /// completes every root exactly once, and every tree is its
        /// message's only attempt), so duplicates and dooms are only
        /// generated with replay on.
        #[test]
        fn every_step_conserves_messages(
            max_replays in 0u32..4,
            steps in prop::collection::vec((0usize..8, 0usize..64), 1..200),
        ) {
            let mut d = Driver::new(max_replays);
            let mut next_id = 0;
            for (step, pick) in steps {
                match step {
                    0 | 1 => {
                        next_id += 1;
                        d.root(next_id);
                        let emission = Arc::unwrap_or_clone(emission(next_id));
                        d.trees.on_track(next_id, emission, d.now_s);
                    }
                    2 => d.complete(pick, Completion::Acked),
                    3 => d.complete(pick, Completion::Failed),
                    4 => d.complete(pick, Completion::TimedOut),
                    5 => {
                        d.now_s += pick as f64 * 0.005;
                        d.replay_due();
                    }
                    6 if max_replays > 0 => d.trees.doom_tracked_before(pick as f64 * 0.01),
                    7 if max_replays > 0 && !d.done.is_empty() => {
                        let again = d.done[pick % d.done.len()].clone();
                        d.deliver(&again);
                    }
                    _ => {}
                }
                d.check();
            }
            // Drain: ack whatever is (or comes back) in flight.
            for _ in 0..1000 {
                if d.trees.pending() == 0 {
                    break;
                }
                d.now_s += 1.0;
                d.replay_due();
                while !d.live.is_empty() {
                    d.complete(0, Completion::Acked);
                    d.check();
                }
            }
            prop_assert_eq!(d.trees.pending(), 0);
            let resolved = d.counters.acked.get() + d.counters.permanently_failed.get();
            prop_assert_eq!(d.counters.tracked.get(), resolved);
            prop_assert_eq!(d.trees.latency().0.count(), d.counters.acked.get());
        }
    }

    #[test]
    fn ack_forgets_and_fail_schedules() {
        let mut b = ReplayBuffer::default();
        let t0 = 0.0;
        assert!(b.on_track(1, emission(1), 0.0));
        assert!(b.on_track(2, emission(2), 0.0));
        assert!(b.on_ack(1));
        assert!(!b.on_ack(1), "double ack is a no-op");
        assert_eq!(b.len(), 1);

        let d = b.on_fail(2, 3, Duration::from_millis(10), t0);
        assert_eq!(
            d,
            FailDecision::Scheduled {
                attempt: 1,
                delay: Duration::from_millis(10)
            }
        );
        assert!(b.take_due(t0).is_empty(), "backoff not elapsed");
        let due = b.take_due(t0 + 0.011);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0, 2);
        assert!(
            b.take_due(t0 + 10.0).is_empty(),
            "taken entries are in flight, not due"
        );
        assert_eq!(b.len(), 1, "still tracked until acked");
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let mut b = ReplayBuffer::default();
        let t0 = 0.0;
        let base = Duration::from_millis(10);
        let base_s = base.as_secs_f64();
        b.on_track(7, emission(7), 0.0);
        b.on_fail(7, 10, base, t0);
        assert_eq!(b.next_due(), Some(t0 + base_s));
        b.take_due(t0 + base_s);
        b.on_fail(7, 10, base, t0);
        assert_eq!(
            b.next_due(),
            Some(t0 + base_s * 2.0),
            "second attempt waits 2x"
        );
        b.take_due(t0 + base_s * 2.0);
        b.on_fail(7, 10, base, t0);
        assert_eq!(b.next_due(), Some(t0 + base_s * 4.0));
    }

    #[test]
    fn retries_exhaust() {
        let mut b = ReplayBuffer::default();
        let t0 = 0.0;
        b.on_track(9, emission(9), 0.0);
        assert_eq!(
            b.on_fail(9, 2, Duration::ZERO, t0),
            FailDecision::Scheduled {
                attempt: 1,
                delay: Duration::ZERO
            },
            "replay 1"
        );
        let due = b.take_due(t0);
        assert_eq!(due[0].2, 1, "take_due reports the attempt number");
        assert_eq!(
            b.on_fail(9, 2, Duration::ZERO, t0),
            FailDecision::Scheduled {
                attempt: 2,
                delay: Duration::ZERO
            },
            "replay 2"
        );
        b.take_due(t0);
        assert_eq!(
            b.on_fail(9, 2, Duration::ZERO, t0),
            FailDecision::Exhausted { attempts: 2 }
        );
        assert_eq!(b.len(), 0, "exhausted entries are dropped");
        assert_eq!(
            b.on_fail(9, 2, Duration::ZERO, t0),
            FailDecision::Untracked,
            "unknown ids are the caller's problem"
        );
    }

    #[test]
    fn doom_drops_scheduled_and_marks_in_flight() {
        let mut b = ReplayBuffer::default();
        let t0 = 0.0;
        b.on_track(1, emission(1), 0.5); // in flight, pre-cutoff
        b.on_track(2, emission(2), 0.6); // will be awaiting a replay
        b.on_track(3, emission(3), 2.0); // post-cutoff, untouched
        b.on_fail(2, 5, Duration::from_millis(1), t0);

        assert_eq!(b.doom_tracked_before(1.0), 1, "scheduled replay dropped");
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.on_fail(1, 5, Duration::ZERO, t0),
            FailDecision::Doomed,
            "in-flight pre-cutoff failure is skipped"
        );
        assert!(matches!(
            b.on_fail(3, 5, Duration::ZERO, t0),
            FailDecision::Scheduled { .. }
        ));
        assert!(
            b.take_due(t0 + 1.0).iter().all(|d| d.0 == 3),
            "only the post-cutoff entry replays"
        );

        // Acks of doomed in-flight trees still complete normally.
        let mut b2 = ReplayBuffer::default();
        b2.on_track(9, emission(9), 0.0);
        b2.doom_tracked_before(1.0);
        assert!(b2.on_ack(9));
        assert_eq!(b2.len(), 0);
    }

    /// The scheduled count is what lets the spout loop skip the scan: it
    /// must equal the number of entries with a pending retry after every
    /// kind of transition.
    #[test]
    fn scheduled_count_tracks_pending_retries() {
        let mut b = ReplayBuffer::default();
        let t0 = 0.0;
        let check = |b: &ReplayBuffer| {
            let pending = b.entries.values().filter(|e| e.retry_at.is_some()).count();
            assert_eq!(b.scheduled, pending);
        };
        for id in 1..=5 {
            b.on_track(id, emission(id), 0.0);
        }
        check(&b);
        assert!(b.next_due().is_none() && b.take_due(t0).is_empty());
        for id in 1..=4 {
            b.on_fail(id, 1, Duration::from_millis(5), t0);
        }
        b.on_fail(1, 1, Duration::from_millis(5), t0); // second failure while scheduled
        check(&b);
        b.on_ack(2); // acked while awaiting its replay
        b.on_track(3, emission(3), 1.0); // re-tracked while awaiting its replay
        check(&b);
        assert_eq!(b.take_due(t0 + 1.0).len(), 1);
        check(&b);
        assert_eq!(b.scheduled, 0);
        b.on_fail(5, 1, Duration::ZERO, t0);
        assert_eq!(b.doom_tracked_before(10.0), 1);
        check(&b);
    }

    #[test]
    fn retrack_refreshes_entry() {
        let mut b = ReplayBuffer::default();
        let t0 = 0.0;
        b.on_track(3, emission(3), 0.0);
        b.on_fail(3, 5, Duration::from_millis(1), t0);
        assert!(!b.on_track(3, emission(3), 1.0), "same id is not new");
        assert!(
            b.take_due(t0 + 1.0).is_empty(),
            "retrack clears the pending replay"
        );
    }
}
