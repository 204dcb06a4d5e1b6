//! One spout step.
//!
//! A [`SpoutTask`] is one spout instance, the [`FanOut`] its emissions leave
//! through, the deliveries it holds back until their tree is registered and
//! the token bucket of the run's rate cap.  It holds no clock, thread, socket
//! or acker: `rt`'s spout thread and the `dist` coordinator's step it from
//! their own loops with the time, the cap, the feedback that arrived and the
//! spout's [`TreeLifecycle`], take what it [`Released`] into their sink and
//! sleep as its verdict ([`Next`]) and their own policy say.
//!
//! The lifecycle is borrowed, not owned (on `rt` it must outlive a restart
//! of the spout), behind the mutex its other readers share, and locked
//! around its own steps only — never across `next_tuple`, `ack`/`fail`, the
//! fan-out, the sink or a sleep — and per step, not per emission.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::acker::{AckOps, RootId, TreeOutcome};
use crate::component::{Emission, MessageId, Spout, SpoutOutput, TopologyContext};
use crate::config::EngineConfig;
use crate::lifecycle::{Notify, TreeLifecycle};
use crate::route::{Delivery, FanOut};
use crate::telemetry::Tracer;
use crate::topology::TaskId;

/// The registration of one tracked emission's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Track {
    pub(crate) root: RootId,
    /// XOR of the tree's first-hop edge ids: zero — complete as registered —
    /// when the emission reached nothing.
    pub(crate) xor: u64,
    pub(crate) message_id: MessageId,
    /// 0 = the original emission, `n` = its `n`-th replay.
    pub(crate) attempt: u32,
}

impl Track {
    /// Queues the registration into the driver's `ops` and records the emit
    /// span of a sampled tree, both stamped with the step's `now_s`.
    pub(crate) fn register(self, task: usize, now_s: f64, ops: &mut AckOps, tracer: &Tracer) {
        ops.track(self.root, self.xor, TaskId(task), self.message_id, now_s);
        if tracer.sampled(self.root) {
            let now_us = (now_s * 1e6) as u64;
            tracer.record_emit(task, self.root, task, now_us, self.attempt, self.message_id);
        }
    }
}

/// What a step hands its driver's sink.  The `Track` of every tree comes
/// before the first delivery that extends it: the driver must have queued
/// (`rt`) or applied (`dist`) it by the time that delivery can be executed,
/// or the delivery's ack record would find no tree and be lost.
pub(crate) enum Released {
    Track(Track),
    /// One tuple instance bound for global task `.0`.
    Delivery(usize, Delivery),
}

/// What the driver should do before it steps again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Next {
    /// The spout was polled and may have more: step again at once.
    Ran,
    /// `max_spout_pending` messages are unresolved: only feedback reopens
    /// the gate.
    Gated,
    /// The spout had nothing to emit.
    Idle,
    /// Nothing can happen for this many seconds: the next token accrues, or
    /// (input exhausted) the next replay falls due, then.
    Wait(f64),
    /// The input is exhausted and every message resolved.
    Done,
}

/// What one [`SpoutTask::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Stepped {
    /// Fresh emissions (tracked or not), replays excluded.
    pub(crate) emitted: u64,
    /// Due replays re-emitted under fresh roots.
    pub(crate) replayed: u64,
    pub(crate) next: Next,
}

/// One spout task: the spout, where its emissions go, and what decides
/// whether it is asked for a tuple.
pub(crate) struct SpoutTask {
    spout: Box<dyn Spout>,
    fan: FanOut,
    engine: EngineConfig,
    /// Tracked emissions carry their message id as the replay-dedup id of
    /// the first hop (the recovery policy's `dedup`).
    dedup: bool,
    /// `next_tuple` returned `false`, or the driver called
    /// [`finish`](Self::finish): the task only resolves what it tracked.
    exhausted: bool,
    /// Token bucket of the rate cap.  Tokens may go negative (debt), so a
    /// multi-tuple `next_tuple` is charged in full.
    tokens: f64,
    last_refill_s: f64,
    /// Reused across steps.
    out: SpoutOutput,
    emissions: Vec<Emission>,
    heard: Vec<(Notify, MessageId)>,
    /// Deliveries of the emissions in hand, until [`release`](Self::release).
    held: Vec<(usize, Delivery)>,
}

impl SpoutTask {
    /// Opens `spout`.  `dedup`: whether the run's recovery policy dedups.
    pub(crate) fn new(
        mut spout: Box<dyn Spout>,
        ctx: &TopologyContext,
        fan: FanOut,
        engine: &EngineConfig,
        dedup: bool,
        now_s: f64,
    ) -> Self {
        spout.open(ctx);
        SpoutTask {
            spout,
            fan,
            engine: engine.clone(),
            dedup,
            exhausted: false,
            tokens: 0.0,
            last_refill_s: now_s,
            out: SpoutOutput::new(),
            emissions: Vec::new(),
            heard: Vec::new(),
            held: Vec::new(),
        }
    }

    /// No fresh tuple from here on (the run is stopping): as if the spout
    /// had exhausted its input.
    pub(crate) fn finish(&mut self) {
        self.exhausted = true;
    }

    /// Clean shutdown of the spout.
    pub(crate) fn close(&mut self) {
        self.spout.close();
    }

    /// One step, in this order: resolve `feedback` through `trees` and tell
    /// the spout; re-emit every due replay under a fresh root; then — unless
    /// the input is exhausted, `max_spout_pending` messages are unresolved
    /// or the bucket of `cap` (tuples/s, `INFINITY` = uncapped) is empty —
    /// poll the spout once and fan out what it emitted.  Roots are drawn
    /// from `roots`, the run's shared counter.
    pub(crate) fn step(
        &mut self,
        now_s: f64,
        cap: f64,
        roots: &AtomicU64,
        trees: &Mutex<TreeLifecycle>,
        feedback: impl Iterator<Item = TreeOutcome>,
        mut sink: impl FnMut(Released),
    ) -> Stepped {
        let (due, pending, next_due) = {
            let mut trees = trees.lock();
            for outcome in feedback {
                let notify = trees.on_outcome(&outcome, now_s);
                self.heard.push((notify, outcome.message_id));
            }
            let due = trees.take_due(now_s);
            // Only an exhausted task sleeps until the next replay.
            let next_due = self.exhausted.then(|| trees.next_due()).flatten();
            (due, trees.pending(), next_due)
        };
        for (notify, message_id) in self.heard.drain(..) {
            notify.tell(&mut *self.spout, message_id);
        }
        let mut stepped = Stepped {
            emitted: 0,
            replayed: due.len() as u64,
            next: Next::Ran,
        };
        for (message_id, emission, attempt) in due {
            let root = self.fan_out(&emission, Some((message_id, attempt)), roots, &mut sink);
            let root = root.expect("a replay roots a tree");
            trees.lock().on_replayed(message_id, attempt, root, now_s);
        }
        self.release(&mut sink);
        if self.exhausted {
            // Replays leave `pending` as it was: their messages stay tracked.
            stepped.next = match (pending, next_due) {
                (0, _) => Next::Done,
                (_, Some(due_s)) => Next::Wait(due_s - now_s),
                (_, None) => Next::Idle,
            };
            return stepped;
        }
        if pending >= self.engine.max_spout_pending {
            stepped.next = Next::Gated;
            return stepped;
        }
        if let Some(wait_s) = self.refill(now_s, cap) {
            stepped.next = Next::Wait(wait_s);
            return stepped;
        }
        self.out.set_now(now_s);
        self.exhausted = !self.spout.next_tuple(&mut self.out);
        self.out.drain_into(&mut self.emissions);
        if self.emissions.is_empty() {
            if !self.exhausted {
                stepped.next = Next::Idle;
            }
            return stepped;
        }
        stepped.emitted = self.emissions.len() as u64;
        if cap.is_finite() {
            self.tokens -= stepped.emitted as f64;
        }
        let emissions = std::mem::take(&mut self.emissions);
        let mut tracked = false;
        for emission in &emissions {
            let tracked_as = emission.message_id.map(|id| (id, 0));
            tracked |= tracked_as.is_some();
            self.fan_out(emission, tracked_as, roots, &mut sink);
        }
        self.emissions = emissions;
        self.release(&mut sink);
        if tracked {
            // After the release, so the emission moves into the replay cache
            // instead of being cloned for it; its feedback is read by a
            // later step of this same task, so the order cannot race.
            let mut trees = trees.lock();
            for emission in self.emissions.drain(..) {
                if let Some(message_id) = emission.message_id {
                    trees.on_track(message_id, emission, now_s);
                }
            }
        }
        self.emissions.clear();
        stepped
    }

    /// Refills the bucket to `now_s` at `cap` tuples/s, at most one burst
    /// (20 ms of the cap, 8 tuples at least) deep.  `Some(seconds until the
    /// next token)` when it holds less than one.  Uncapped, the bucket is
    /// kept neutral so a later cap inherits neither stale debt nor a long
    /// refill window.
    fn refill(&mut self, now_s: f64, cap: f64) -> Option<f64> {
        let dt = now_s - self.last_refill_s;
        self.last_refill_s = now_s;
        if !cap.is_finite() {
            self.tokens = 0.0;
            return None;
        }
        let burst = (cap * 0.02).max(8.0);
        self.tokens = (self.tokens + cap * dt).min(burst);
        (self.tokens < 1.0).then(|| (1.0 - self.tokens) / cap)
    }

    /// Fans one emission out into `held`.  A tracked one (`tracked_as`: its
    /// message id and replay attempt) roots a fresh tree, whose `Track` —
    /// carrying the XOR of the first-hop edges just drawn — goes to `sink`
    /// at once.  Returns the root.
    fn fan_out(
        &mut self,
        emission: &Emission,
        tracked_as: Option<(MessageId, u32)>,
        roots: &AtomicU64,
        sink: &mut impl FnMut(Released),
    ) -> Option<RootId> {
        let root = tracked_as.map(|_| roots.fetch_add(1, Ordering::Relaxed) + 1);
        let dedup = tracked_as.map(|(id, _)| id).filter(|_| self.dedup);
        let held = &mut self.held;
        let xor = (self.fan).route(emission, root, dedup, |dest, d| held.push((dest, d)));
        if let (Some(root), Some((message_id, attempt))) = (root, tracked_as) {
            sink(Released::Track(Track {
                root,
                xor,
                message_id,
                attempt,
            }));
        }
        root
    }

    /// Lets the held deliveries go: the `Track` of each is with the driver.
    fn release(&mut self, sink: &mut impl FnMut(Released)) {
        for (dest, delivery) in self.held.drain(..) {
            sink(Released::Delivery(dest, delivery));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use std::time::Duration;

    use proptest::prelude::*;

    use super::*;
    use crate::acker::Completion;
    use crate::component::{Bolt, BoltOutput};
    use crate::lifecycle::TreeCounters;
    use crate::rt::RtConfig;
    use crate::telemetry::Journal;
    use crate::topology::{TaskId, TopologyBuilder};
    use crate::tuple::{Fields, Tuple, Value};

    /// What user code saw, shared with the test through an `Arc`.
    #[derive(Default)]
    struct Seen {
        polls: u64,
        /// `(acks, fails)` per message id.
        told: BTreeMap<MessageId, (u32, u32)>,
    }

    /// Emits `per_poll` tuples a poll under ids 1, 2, … until `limit` ids
    /// are out (the poll that emits the last one returns `false`).  Every
    /// `untracked_every`-th carries no message id.
    struct Scripted {
        per_poll: u64,
        limit: u64,
        untracked_every: u64,
        next_id: u64,
        seen: Arc<Mutex<Seen>>,
    }

    impl Spout for Scripted {
        fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
            self.seen.lock().polls += 1;
            for _ in 0..self.per_poll {
                if self.next_id >= self.limit {
                    return false;
                }
                self.next_id += 1;
                let id = self.next_id;
                let tuple = Tuple::of([Value::from(id as i64)]);
                if self.untracked_every > 0 && id.is_multiple_of(self.untracked_every) {
                    out.emit(tuple);
                } else {
                    out.emit_with_id(tuple, id);
                }
            }
            self.next_id < self.limit
        }

        fn ack(&mut self, id: MessageId) {
            self.seen.lock().told.entry(id).or_default().0 += 1;
        }

        fn fail(&mut self, id: MessageId) {
            self.seen.lock().told.entry(id).or_default().1 += 1;
        }
    }

    struct NullBolt;
    impl Bolt for NullBolt {
        fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
    }

    /// The driver both backends are, minus threads, clocks and the acker:
    /// `live` stands in for the trees the acker holds, `inbox` for the
    /// feedback channel.
    struct World {
        task: SpoutTask,
        trees: Mutex<TreeLifecycle>,
        counters: TreeCounters,
        seen: Arc<Mutex<Seen>>,
        roots: AtomicU64,
        now_s: f64,
        cap: f64,
        live: Vec<Track>,
        inbox: Vec<TreeOutcome>,
        /// Everything the last step released, in order.
        released: Vec<Released>,
        emitted: u64,
    }

    impl World {
        /// The scripted spout as `src`, which feeds two sinks, so an
        /// emission has two first-hop edges.
        fn new(spout: Scripted, max_spout_pending: usize, max_replays: u32) -> World {
            World::on("src", spout, max_spout_pending, max_replays)
        }

        /// The scripted spout as `producer`: `src`, or `void`, to which
        /// nobody subscribes, so its emissions reach nothing.  Global task
        /// ids: src 0, void 1, sink 2, also 3.
        fn on(
            producer: &str,
            spout: Scripted,
            max_spout_pending: usize,
            max_replays: u32,
        ) -> World {
            let seen = Arc::clone(&spout.seen);
            let mut b = TopologyBuilder::new("spout-task");
            for name in ["src", "void"] {
                b.set_spout(name, 1, || World::spout(0, 0))
                    .unwrap()
                    .output_fields(Fields::new(["id"]));
            }
            for sink in ["sink", "also"] {
                b.set_bolt(sink, 1, || NullBolt)
                    .unwrap()
                    .shuffle_grouping("src")
                    .unwrap();
            }
            let topology = b.build().unwrap();
            let src = topology.component_by_name(producer).unwrap();
            let fan = FanOut::new(&topology, src, 0, 7);
            let engine = EngineConfig {
                max_spout_pending,
                ..EngineConfig::default()
            };
            let rt = RtConfig::default()
                .with_max_replays(max_replays)
                .with_replay_backoff(Duration::from_millis(10));
            let counters = TreeCounters::detached();
            let trees = TreeLifecycle::new(&rt, counters.clone(), Arc::new(Journal::new()));
            let ctx = TopologyContext::solo(producer);
            World {
                task: SpoutTask::new(Box::new(spout), &ctx, fan, &engine, true, 0.0),
                trees: Mutex::new(trees),
                counters,
                seen,
                roots: AtomicU64::new(0),
                now_s: 0.0,
                cap: f64::INFINITY,
                live: Vec::new(),
                inbox: Vec::new(),
                released: Vec::new(),
                emitted: 0,
            }
        }

        fn spout(per_poll: u64, limit: u64) -> Scripted {
            Scripted {
                per_poll,
                limit,
                untracked_every: 0,
                next_id: 0,
                seen: Arc::default(),
            }
        }

        /// One step; checks what must hold after every step of any script:
        /// a tree's `Track` precedes its first delivery and carries the XOR
        /// of the tree's first-hop edges, and messages are conserved.
        fn step(&mut self) -> Stepped {
            self.released.clear();
            let (released, feedback) = (&mut self.released, self.inbox.drain(..));
            let stepped = (self.task).step(
                self.now_s,
                self.cap,
                &self.roots,
                &self.trees,
                feedback,
                |r| released.push(r),
            );
            let mut tracked: BTreeMap<RootId, (u64, u64)> = BTreeMap::new();
            for r in &self.released {
                match r {
                    Released::Track(t) => {
                        assert!(tracked.insert(t.root, (t.xor, 0)).is_none(), "fresh root");
                        self.live.push(*t);
                    }
                    Released::Delivery(_, d) => {
                        if let Some((root, edge)) = d.anchor {
                            let tree = tracked.get_mut(&root).expect("Track before delivery");
                            tree.1 ^= edge;
                        }
                    }
                }
            }
            for (root, (xor, delivered)) in tracked {
                assert_eq!(xor, delivered, "tree {root}: Track XOR == delivered edges");
            }
            self.emitted += stepped.emitted;
            let c = &self.counters;
            assert_eq!(
                c.tracked.get(),
                c.acked.get() + c.permanently_failed.get() + self.pending() as u64,
                "tracked == acked + permanently_failed + pending"
            );
            for (id, &(acks, fails)) in &self.seen.lock().told {
                assert!(acks + fails <= 1, "id {id} told {acks} acks, {fails} fails");
            }
            stepped
        }

        fn pending(&self) -> usize {
            self.trees.lock().pending()
        }

        fn polls(&self) -> u64 {
            self.seen.lock().polls
        }

        /// Completes the `pick`-th live tree; the next step hears of it.
        fn resolve(&mut self, pick: usize, completion: Completion) {
            if self.live.is_empty() {
                return;
            }
            let t = self.live.swap_remove(pick % self.live.len());
            self.inbox.push(TreeOutcome {
                root: t.root,
                spout_task: TaskId(0),
                message_id: t.message_id,
                completion,
                spawned_at: 0.0,
                completed_at: self.now_s,
            });
        }

        fn tracks(&self) -> Vec<Track> {
            let track = |r: &Released| match r {
                Released::Track(t) => Some(*t),
                Released::Delivery(..) => None,
            };
            self.released.iter().filter_map(track).collect()
        }
    }

    /// Fails if `step`'s `pending >= max_spout_pending` check is removed
    /// (the fourth step polls), or if feedback were resolved after the gate
    /// (the ack would reopen it one step late).
    #[test]
    fn the_pending_gate_closes_at_max_spout_pending_and_reopens_on_an_ack() {
        let mut w = World::new(World::spout(1, u64::MAX), 3, 0);
        for _ in 0..3 {
            assert_eq!(w.step().next, Next::Ran);
        }
        for _ in 0..2 {
            let stepped = w.step();
            assert_eq!((stepped.emitted, stepped.next), (0, Next::Gated));
        }
        assert_eq!((w.polls(), w.pending()), (3, 3));
        w.resolve(0, Completion::Acked);
        let stepped = w.step();
        assert_eq!((stepped.emitted, stepped.next), (1, Next::Ran));
        assert_eq!((w.polls(), w.pending()), (4, 3));
        assert_eq!(w.step().next, Next::Gated);
    }

    /// Each assertion names the line of `refill`/`step` it pins: the charge
    /// (`tokens -= emitted`), the refill rate, `.min(burst)`, and the
    /// uncapped reset of both `tokens` and `last_refill_s`.
    #[test]
    fn the_bucket_charges_in_full_refills_at_the_cap_and_holds_one_burst() {
        let mut w = World::new(World::spout(3, u64::MAX), usize::MAX, 0);
        w.cap = 100.0; // burst = max(100 × 0.02, 8) = 8
        let wait = |w: &mut World| match w.step() {
            Stepped {
                emitted: 0,
                next: Next::Wait(s),
                ..
            } => s,
            other => panic!("expected a wait, got {other:?}"),
        };
        // Empty at the start: one token is 10 ms away.
        assert!((wait(&mut w) - 0.010).abs() < 1e-9);
        w.now_s += 0.010;
        // One token admits one poll, which is charged all three tuples…
        assert_eq!(w.step().emitted, 3);
        // …so the bucket is two in debt and the next token 30 ms away.
        assert!(
            (wait(&mut w) - 0.030).abs() < 1e-9,
            "debt is charged in full"
        );
        w.now_s += 0.029;
        assert!(wait(&mut w) < 0.0011, "refills at the cap, no faster");
        w.now_s += 0.001;
        assert_eq!(w.step().emitted, 3);
        // A long silence fills one burst, not `cap × silence`: 8 → 5 → 2 → −1.
        w.now_s += 10.0;
        let polls = w.polls();
        assert_eq!(
            (w.step().emitted, w.step().emitted, w.step().emitted),
            (3, 3, 3)
        );
        assert!((wait(&mut w) - 0.020).abs() < 1e-9, "capped at the burst");
        assert_eq!(w.polls(), polls + 3);
        // Uncapped, the bucket is bypassed and kept neutral…
        w.cap = f64::INFINITY;
        w.now_s += 5.0;
        assert_eq!(w.step().emitted, 3);
        // …so a new cap starts from zero at that instant: neither the old
        // debt nor the uncapped five seconds count.
        w.cap = 100.0;
        assert!((wait(&mut w) - 0.010).abs() < 1e-9, "neutral after ∞");
    }

    /// Three emissions that reach two tasks each, the third untracked, from
    /// one poll; then two from a spout nobody subscribes to.  `World::step`
    /// asserts each tree's order and XOR (fails if a `Track` carried
    /// anything but its own fan-out's return); the `released[..2]` match
    /// fails if `fan_out` gave the sink a delivery instead of holding it
    /// until every `Track` of the step was out.
    #[test]
    fn every_tree_is_tracked_before_its_first_delivery_with_the_xor_of_its_edges() {
        let spout = Scripted {
            untracked_every: 3,
            ..World::spout(3, u64::MAX)
        };
        let mut w = World::new(spout, usize::MAX, 0);
        assert_eq!(w.step().emitted, 3);
        let tracks = w.tracks();
        assert_eq!(tracks.len(), 2, "ids 1 and 2 are tracked, 3 is not");
        for (t, id) in tracks.iter().zip(1..) {
            assert_eq!((t.message_id, t.attempt), (id, 0));
            assert_ne!(t.xor, 0);
        }
        assert!(
            matches!(w.released[..2], [Released::Track(_), Released::Track(_)]),
            "a step's Tracks lead its deliveries"
        );
        let deliveries: Vec<_> = (w.released.iter())
            .filter_map(|r| match r {
                Released::Delivery(dest, d) => Some((*dest, d.anchor.map(|a| a.0), d.dedup)),
                Released::Track(_) => None,
            })
            .collect();
        let (r1, r2) = (Some(tracks[0].root), Some(tracks[1].root));
        assert_eq!(
            deliveries,
            [
                (2, r1, Some(1)),
                (3, r1, Some(1)),
                (2, r2, Some(2)),
                (3, r2, Some(2)),
                (2, None, None),
                (3, None, None)
            ],
            "a tracked emission carries its root and its id as dedup id, the untracked neither"
        );
        assert_eq!((w.counters.tracked.get(), w.pending()), (2, 2));

        let mut w = World::on("void", World::spout(2, u64::MAX), usize::MAX, 0);
        assert_eq!(w.step().emitted, 2);
        let tracks: Vec<_> = w.tracks().iter().map(|t| (t.message_id, t.xor)).collect();
        assert_eq!(tracks, [(1, 0), (2, 0)], "reached nothing");
        assert_eq!(w.released.len(), 2, "and delivered nothing");
        assert_eq!((w.counters.tracked.get(), w.pending()), (2, 2));
    }

    /// Fails if the `due` loop of `step` is removed (no replay is ever
    /// emitted and the message stays pending), or if a replay reused its
    /// message's root or attempt.
    #[test]
    fn a_failed_message_replays_under_a_fresh_root_after_its_backoff_until_max_replays() {
        let mut w = World::new(World::spout(1, 1), usize::MAX, 2);
        assert_eq!(w.step().emitted, 1);
        let mut roots = vec![w.tracks()[0].root];
        for attempt in 1..=2u32 {
            w.resolve(0, Completion::Failed);
            let backoff_s = 0.010 * f64::from(1 << (attempt - 1));
            // Heard, scheduled, not yet due: the exhausted task waits it out.
            match w.step() {
                Stepped {
                    replayed: 0,
                    next: Next::Wait(s),
                    ..
                } => assert!((s - backoff_s).abs() < 1e-9),
                other => panic!("expected a wait, got {other:?}"),
            }
            w.now_s += backoff_s;
            let stepped = w.step();
            assert_eq!((stepped.emitted, stepped.replayed), (0, 1));
            let tracks = w.tracks();
            assert_eq!((tracks[0].message_id, tracks[0].attempt), (1, attempt));
            assert!(!roots.contains(&tracks[0].root), "a fresh root");
            assert_ne!(tracks[0].xor, 0, "and the same two destinations");
            roots.push(tracks[0].root);
            assert_eq!(w.counters.replays_emitted.get(), u64::from(attempt));
            assert!(w.seen.lock().told.is_empty(), "user code hears nothing yet");
        }
        w.resolve(0, Completion::TimedOut);
        assert_eq!(w.step().next, Next::Done);
        assert_eq!(w.seen.lock().told[&1], (0, 1), "told once, at the end");
        assert_eq!(w.counters.permanently_failed.get(), 1);
        assert_eq!(
            (w.polls(), w.emitted),
            (1, 1),
            "replays are not fresh emissions"
        );
    }

    /// Fails if the exhausted verdict read `Done` without `pending == 0`
    /// (both drivers would stop stepping with acks still owed), or if an
    /// exhausted or finished task were polled again.
    #[test]
    fn an_exhausted_spout_is_done_only_once_nothing_is_pending() {
        let mut w = World::new(World::spout(1, 2), usize::MAX, 0);
        assert_eq!((w.step().emitted, w.step().emitted), (1, 1));
        assert_eq!(w.step().next, Next::Idle, "two messages owed");
        w.resolve(0, Completion::Acked);
        assert_eq!(w.step().next, Next::Idle, "one message owed");
        w.resolve(0, Completion::Failed);
        assert_eq!(w.step().next, Next::Done);
        assert_eq!(w.step().next, Next::Done);
        assert_eq!(w.polls(), 2);
        assert_eq!(w.seen.lock().told.len(), 2);

        // A driver that stops the input gets the same verdicts.
        let mut w = World::new(World::spout(1, u64::MAX), usize::MAX, 0);
        assert_eq!(w.step().emitted, 1);
        w.task.finish();
        assert_eq!(w.step().next, Next::Idle);
        w.resolve(0, Completion::Acked);
        assert_eq!(w.step().next, Next::Done);
        assert_eq!(w.polls(), 1);
    }

    proptest! {
        /// Over any schedule of steps a finite cap admits at most
        /// `cap × T + burst` tuples.  Fails if the charge or the `tokens < 1`
        /// gate of `refill` is removed.
        #[test]
        fn a_finite_cap_bounds_emissions_over_any_schedule(
            cap in 50.0f64..5000.0,
            per_poll in 1u64..8,
            gaps in prop::collection::vec(0.0f64..0.05, 1..200),
        ) {
            let mut w = World::new(World::spout(per_poll, u64::MAX), usize::MAX, 0);
            w.cap = cap;
            for gap in gaps {
                w.now_s += gap;
                w.step();
                let bound = cap * w.now_s + (cap * 0.02).max(8.0);
                prop_assert!(w.emitted as f64 <= bound, "{} > {bound}", w.emitted);
            }
        }

        /// Random scripts of outcomes, time advances, cap changes and steps:
        /// `World::step` asserts after every step that messages are
        /// conserved, every `Track` leads its deliveries with the right XOR
        /// and user code is told at most once per id.  Fails if `step`'s
        /// `on_track` is removed (acked outruns tracked) or its due replays
        /// are dropped (their messages never resolve).
        #[test]
        fn every_step_conserves_messages(
            void in any::<bool>(),
            max_replays in 0u32..3,
            max_pending in 1usize..40,
            ops in prop::collection::vec((0u32..10, 0usize..64), 1..300),
        ) {
            let spout = Scripted {
                untracked_every: 7,
                ..World::spout(3, 400)
            };
            let producer = if void { "void" } else { "src" };
            let mut w = World::on(producer, spout, max_pending, max_replays);
            for (op, pick) in ops {
                match op {
                    0 | 1 => w.resolve(pick, Completion::Acked),
                    2 => w.resolve(pick, Completion::Failed),
                    3 => w.resolve(pick, Completion::TimedOut),
                    4 => w.now_s += pick as f64 * 0.004,
                    5 => w.cap = if pick.is_multiple_of(2) { f64::INFINITY } else { 200.0 * pick as f64 },
                    _ => {
                        w.step();
                    }
                }
            }
            // Drain: stop the input, ack whatever is (or comes back) in flight.
            w.task.finish();
            for _ in 0..1000 {
                if w.step().next == Next::Done {
                    break;
                }
                w.now_s += 1.0;
                while !w.live.is_empty() {
                    w.resolve(0, Completion::Acked);
                }
            }
            prop_assert_eq!(w.pending(), 0);
            let resolved = w.counters.acked.get() + w.counters.permanently_failed.get();
            prop_assert_eq!(w.counters.tracked.get(), resolved);
        }
    }
}
