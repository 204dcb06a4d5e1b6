//! Fault-tolerance integration tests for the threaded runtime: injected
//! chaos (panics, slowdowns, tuple drops), task supervision and restart,
//! end-to-end replay, and the tuple-conservation invariant
//! `tracked == acked + permanently_failed + in_flight`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dsdps::component::{Bolt, BoltOutput, MessageId, Spout, SpoutOutput, TopologyContext};
use dsdps::config::EngineConfig;
use dsdps::rt::{
    self, RecoveryMode, RtConfig, RtFault, RtFaultPlan, SnapshotKind, StateSnapshot,
    StatefulComponent,
};
use dsdps::topology::{Topology, TopologyBuilder};
use dsdps::tuple::{Tuple, Value};
use dsdps::window::{WindowAggregate, WindowAssigner, WindowedBolt};

/// Emits `1..=n` once, each tuple tracked under its own message id.
struct FiniteSpout {
    left: u64,
    next_id: u64,
}

impl Spout for FiniteSpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        self.next_id += 1;
        out.emit_with_id(Tuple::of([Value::from(self.next_id as i64)]), self.next_id);
        true
    }
}

/// Like [`FiniteSpout`], but paced at `rate` tuples/s so the stream is still
/// flowing when wall-clock-scheduled faults fire.
struct PacedSpout {
    left: u64,
    next_id: u64,
    rate: f64,
    started: Option<Instant>,
}

impl PacedSpout {
    fn new(n: u64, rate: f64) -> Self {
        PacedSpout {
            left: n,
            next_id: 0,
            rate,
            started: None,
        }
    }
}

impl Spout for PacedSpout {
    fn open(&mut self, _ctx: &TopologyContext) {
        self.started = Some(Instant::now());
    }

    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        if self.left == 0 {
            return false;
        }
        let elapsed = self
            .started
            .map(|s| s.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        if self.next_id as f64 >= elapsed * self.rate {
            // Ahead of schedule; emit nothing and let the runtime nap.
            return true;
        }
        self.left -= 1;
        self.next_id += 1;
        out.emit_with_id(Tuple::of([Value::from(self.next_id as i64)]), self.next_id);
        true
    }
}

/// Sums the values it sees (so delivery is checkable end to end).
struct Accumulator {
    sum: Arc<AtomicU64>,
}

impl Bolt for Accumulator {
    fn execute(&mut self, t: &Tuple, _o: &mut BoltOutput) {
        let v = t.get(0).unwrap().as_i64().unwrap() as u64;
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
}

fn cluster() -> EngineConfig {
    let mut cfg = EngineConfig::default().with_cluster(2, 2, 4);
    cfg.metrics_interval_s = 0.25;
    cfg
}

fn wait_until(deadline_s: u64, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(deadline_s);
    while !done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The acceptance scenario: a scheduled bolt panic plus a 10× slowdown of a
/// worker mid-run.  The supervised runtime restarts the dead task, replays
/// the trees lost in the crash, and still delivers every message exactly
/// once by the conservation accounting.
#[test]
fn supervised_runtime_recovers_from_panic_and_slowdown() {
    const N: u64 = 2000;
    let sum = Arc::new(AtomicU64::new(0));
    let s2 = sum.clone();
    let mut b = TopologyBuilder::new("chaos");
    // Paced so the stream (2 s long) spans the panic at 0.4 s and most of
    // the slowdown window.
    b.set_spout("s", 1, move || PacedSpout::new(N, 1000.0))
        .unwrap();
    b.set_bolt("acc", 2, move || Accumulator { sum: s2.clone() })
        .unwrap()
        .shuffle_grouping("s")
        .unwrap();
    let topo = b.build().unwrap();

    let mut cfg = cluster();
    cfg.message_timeout_s = 2.0;
    // Tasks: 0 = spout, 1..=2 = bolts.  Panic bolt task 1 early; slow the
    // whole cluster's second bolt down 10× shortly after.
    let plan = RtFaultPlan::new()
        .with(RtFault::TaskPanic { task: 1, at_s: 0.4 })
        .with(RtFault::WorkerSlowdown {
            worker: 2,
            factor: 10.0,
            from_s: 0.8,
            until_s: 2.5,
        });
    let rt_cfg = RtConfig::default()
        .with_max_replays(5)
        .with_replay_backoff(Duration::from_millis(50))
        .with_hang_timeout(Duration::from_secs(2));
    let running = rt::submit_faulty(topo, cfg, rt_cfg, plan, None).unwrap();

    wait_until(30, || running.acked() >= N);
    let (_, report) = running.shutdown();

    assert_eq!(
        report.acked, N,
        "replay must recover every tree: {report:?}"
    );
    assert_eq!(sum.load(Ordering::Relaxed), N * (N + 1) / 2, "payload sums");
    assert_eq!(report.task_panics, 1, "the injected panic was caught");
    assert!(
        report.task_restarts >= 1,
        "supervisor restarted the dead task: {report:?}"
    );
    assert!(
        report
            .panic_messages
            .iter()
            .any(|m| m.contains("injected fault")),
        "panic message recorded: {:?}",
        report.panic_messages
    );
    assert_eq!(report.tracked, N);
    assert_eq!(report.permanently_failed, 0);
    assert_eq!(report.in_flight, 0);
    assert!(report.conservation_holds(), "conservation: {report:?}");
}

/// Records every terminal callback per message id, to prove none fires
/// twice and none is missed.
#[derive(Default)]
struct OutcomeLog {
    acked: HashMap<MessageId, u32>,
    failed: HashMap<MessageId, u32>,
}

struct RecordingSpout {
    left: u64,
    next_id: u64,
    log: Arc<Mutex<OutcomeLog>>,
}

impl Spout for RecordingSpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        self.next_id += 1;
        out.emit_with_id(Tuple::of([Value::from(self.next_id as i64)]), self.next_id);
        true
    }

    fn ack(&mut self, id: MessageId) {
        *self.log.lock().acked.entry(id).or_insert(0) += 1;
    }

    fn fail(&mut self, id: MessageId) {
        *self.log.lock().failed.entry(id).or_insert(0) += 1;
    }
}

/// Fails every `nth` tuple via `BoltOutput::fail` (explicit user rejection).
struct RejectingBolt {
    seen: u64,
    nth: u64,
}

impl Bolt for RejectingBolt {
    fn execute(&mut self, _t: &Tuple, out: &mut BoltOutput) {
        self.seen += 1;
        if self.seen.is_multiple_of(self.nth) {
            out.fail();
        }
    }
}

fn every_nth_topology(n: u64, nth: u64, log: Arc<Mutex<OutcomeLog>>) -> Topology {
    let mut b = TopologyBuilder::new("every-nth");
    b.set_spout("s", 1, move || RecordingSpout {
        left: n,
        next_id: 0,
        log: log.clone(),
    })
    .unwrap();
    b.set_bolt("reject", 2, move || RejectingBolt { seen: 0, nth })
        .unwrap()
        .shuffle_grouping("s")
        .unwrap();
    b.build().unwrap()
}

/// A bolt failing every Nth tuple: each root reaches exactly one terminal
/// outcome (no drops, no double callbacks), at batch sizes 1 and 64.
#[test]
fn every_root_reaches_exactly_one_outcome() {
    const N: u64 = 1400;
    const NTH: u64 = 7;
    for batch_size in [1usize, 64] {
        let log: Arc<Mutex<OutcomeLog>> = Arc::default();
        let topo = every_nth_topology(N, NTH, log.clone());
        let rt_cfg = RtConfig::default()
            .with_batch_size(batch_size)
            .with_linger(Duration::from_millis(1));
        let running = rt::submit_with(topo, cluster(), rt_cfg).unwrap();
        wait_until(25, || {
            let l = log.lock();
            (l.acked.len() + l.failed.len()) as u64 >= N
        });
        let (_, report) = running.shutdown();

        let l = log.lock();
        assert_eq!(
            l.acked.len() as u64 + l.failed.len() as u64,
            N,
            "batch {batch_size}: every root has an outcome: {report:?}"
        );
        for (id, count) in l.acked.iter().chain(l.failed.iter()) {
            assert_eq!(
                *count, 1,
                "batch {batch_size}: id {id} got {count} callbacks"
            );
        }
        assert!(
            l.acked.keys().all(|id| !l.failed.contains_key(id)),
            "batch {batch_size}: no id may both ack and fail"
        );
        // Each bolt task fails its own every-7th, so the failure count is
        // within one per task of N/7.
        let failures = l.failed.len() as u64;
        assert!(
            (failures as i64 - (N / NTH) as i64).unsigned_abs() <= 2,
            "batch {batch_size}: ~N/{NTH} rejected, got {failures}"
        );
        assert_eq!(report.acked + report.failed, N);
        assert_eq!(report.tracked, N);
        assert_eq!(report.permanently_failed, failures);
        assert!(
            report.conservation_holds(),
            "batch {batch_size}: {report:?}"
        );
    }
}

/// An injected drop window silently discards deliveries; the trees time out
/// and the spout's replay buffer re-emits them until everything is acked.
#[test]
fn drop_fault_is_recovered_by_replay() {
    const N: u64 = 500;
    let sum = Arc::new(AtomicU64::new(0));
    let s2 = sum.clone();
    let mut b = TopologyBuilder::new("drops");
    // 500 tuples at 400/s: emission (1.25 s) covers the whole drop window.
    b.set_spout("s", 1, move || PacedSpout::new(N, 400.0))
        .unwrap();
    b.set_bolt("acc", 1, move || Accumulator { sum: s2.clone() })
        .unwrap()
        .shuffle_grouping("s")
        .unwrap();
    let topo = b.build().unwrap();

    let mut cfg = cluster();
    cfg.message_timeout_s = 1.0;
    let plan = RtFaultPlan::new().with(RtFault::DropTuples {
        task: 1,
        from_s: 0.2,
        until_s: 1.2,
    });
    let rt_cfg = RtConfig::default()
        .with_max_replays(8)
        .with_replay_backoff(Duration::from_millis(100));
    let running = rt::submit_faulty(topo, cfg, rt_cfg, plan, None).unwrap();

    wait_until(30, || running.acked() >= N);
    let (_, report) = running.shutdown();

    assert_eq!(report.acked, N, "replay recovers dropped trees: {report:?}");
    assert!(report.dropped > 0, "the drop window must have fired");
    assert!(report.replays_emitted > 0, "recovery went through replay");
    assert_eq!(report.permanently_failed, 0);
    assert_eq!(report.tracked, N);
    assert!(report.conservation_holds(), "conservation: {report:?}");
    // Replayed trees deliver the same payload; the sum counts each value at
    // least once (duplicates possible when a delivery raced the timeout).
    assert!(sum.load(Ordering::Relaxed) >= N * (N + 1) / 2);
}

/// Trees time out one acker sweep after their deadline, not at the next
/// metrics interval: with a 5 s interval, a 0.2 s timeout and every
/// delivery dropped, trees fail for good well inside 1.5 s.
#[test]
fn trees_expire_between_metrics_intervals() {
    let mut b = TopologyBuilder::new("sweep");
    b.set_spout("s", 1, || FiniteSpout {
        left: 50,
        next_id: 0,
    })
    .unwrap();
    b.set_bolt("sink", 1, || Accumulator {
        sum: Arc::default(),
    })
    .unwrap()
    .shuffle_grouping("s")
    .unwrap();
    let topo = b.build().unwrap();

    let mut cfg = cluster();
    cfg.metrics_interval_s = 5.0;
    cfg.message_timeout_s = 0.2;
    let plan = RtFaultPlan::new().with(RtFault::DropTuples {
        task: 1,
        from_s: 0.0,
        until_s: 60.0,
    });
    let rt_cfg = RtConfig::default().with_max_replays(0);
    let started = Instant::now();
    let running = rt::submit_faulty(topo, cfg, rt_cfg, plan, None).unwrap();
    while running.permanently_failed() == 0 && started.elapsed() < Duration::from_millis(1500) {
        std::thread::sleep(Duration::from_millis(10));
    }
    let expired_in = started.elapsed();
    assert!(
        running.permanently_failed() > 0,
        "no tree expired within {expired_in:?}"
    );
    let (_, report) = running.shutdown();
    assert!(report.dropped > 0, "the drop window must have fired");
    assert!(report.conservation_holds(), "conservation: {report:?}");
}

/// A hung task (no heartbeats) is superseded by the supervisor and the
/// stream keeps flowing through the replacement: supersession replays trees
/// whose acks are stranded in the hung generation.
#[test]
fn hung_task_is_superseded() {
    const N: u64 = 800;
    let sum = Arc::new(AtomicU64::new(0));
    let s2 = sum.clone();
    let mut b = TopologyBuilder::new("hang");
    // 800 tuples at 1000/s: the hang at 0.3 s lands mid-stream.
    b.set_spout("s", 1, move || PacedSpout::new(N, 1000.0))
        .unwrap();
    b.set_bolt("acc", 1, move || Accumulator { sum: s2.clone() })
        .unwrap()
        .shuffle_grouping("s")
        .unwrap();
    let topo = b.build().unwrap();

    let mut cfg = cluster();
    cfg.message_timeout_s = 2.0;
    // Hang the only bolt from 0.3 s for far longer than the run; only the
    // supervisor can get the stream moving again.
    let plan = RtFaultPlan::new().with(RtFault::TaskHang {
        task: 1,
        from_s: 0.3,
        until_s: 60.0,
    });
    let rt_cfg = RtConfig::default()
        .with_hang_timeout(Duration::from_millis(500))
        .with_max_replays(5)
        .with_replay_backoff(Duration::from_millis(50));
    let running = rt::submit_faulty(topo, cfg, rt_cfg, plan, None).unwrap();

    wait_until(30, || running.acked() >= N);
    let (_, report) = running.shutdown();

    assert_eq!(report.acked, N, "stream recovered after hang: {report:?}");
    assert!(
        report.task_restarts >= 1,
        "hung task must be superseded: {report:?}"
    );
    assert_eq!(report.task_panics, 0, "a hang is not a panic");
    assert!(report.conservation_holds(), "conservation: {report:?}");
}

/// The observability acceptance scenario: the panic + slowdown chaos run
/// with every tree traced (sample rate 1.0).  The span log, the
/// control-plane journal and the report counters must tell one consistent
/// story — asserted on [`Report`](dsdps::report::Report) fields, not
/// scraped from stdout.
#[test]
fn chaos_run_telemetry_is_consistent() {
    use dsdps::telemetry::{chrome_trace_json, trace::trace_id, validate_spans, JournalEvent};

    const N: u64 = 2000;
    let sum = Arc::new(AtomicU64::new(0));
    let s2 = sum.clone();
    let mut b = TopologyBuilder::new("chaos-telemetry");
    b.set_spout("s", 1, move || PacedSpout::new(N, 1000.0))
        .unwrap();
    b.set_bolt("acc", 2, move || Accumulator { sum: s2.clone() })
        .unwrap()
        .shuffle_grouping("s")
        .unwrap();
    let topo = b.build().unwrap();

    let mut cfg = cluster();
    cfg.message_timeout_s = 2.0;
    // Panic one bolt early, slow a worker mid-run, and silently drop a
    // window of deliveries — the drops guarantee timed-out trees and thus a
    // replayed-tree population for the trace assertions below.
    let plan = RtFaultPlan::new()
        .with(RtFault::TaskPanic { task: 1, at_s: 0.4 })
        .with(RtFault::WorkerSlowdown {
            worker: 2,
            factor: 10.0,
            from_s: 0.8,
            until_s: 2.5,
        })
        .with(RtFault::DropTuples {
            task: 2,
            from_s: 0.6,
            until_s: 1.2,
        });
    let rt_cfg = RtConfig::default()
        .with_max_replays(5)
        .with_replay_backoff(Duration::from_millis(50))
        .with_hang_timeout(Duration::from_secs(2))
        .with_trace_sample_rate(1.0);
    let running = rt::submit_faulty(topo, cfg, rt_cfg, plan, None).unwrap();

    wait_until(30, || running.acked() >= N);
    let (_, report) = running.shutdown();

    assert_eq!(report.acked, N, "replay recovers every tree: {report:?}");
    assert!(report.conservation_holds(), "conservation: {report:?}");
    assert!(
        report.replays_emitted > 0,
        "the drop window must have cost (and replayed) some trees: {report:?}"
    );

    // -- Span log: structurally consistent and complete at sample rate 1.0,
    // in the one order both backends' reports use.
    assert_eq!(
        report.spans_dropped, 0,
        "trace rings must not overflow here"
    );
    assert!(report
        .spans
        .is_sorted_by_key(|s| (s.trace_id, s.start_us, s.kind.is_terminal())));
    let summary = validate_spans(&report.spans).expect("span log is consistent");
    assert_eq!(
        summary.open_trees, 0,
        "every sampled tree reached a terminal: {summary:?}"
    );
    assert_eq!(
        summary.trees,
        (N + report.replays_emitted) as usize,
        "one tree per original root plus one per replay emission: {summary:?}"
    );
    assert_eq!(
        summary.replayed_trees, report.replays_emitted as usize,
        "replayed trees carry replay_attempt > 0 on their emit span"
    );
    assert!(summary.hop_spans > 0, "bolt hops were recorded");

    // -- Journal: control-plane events match the report counters exactly.
    assert_eq!(
        report.journal_of_kind("task_restart").len() as u64,
        report.task_restarts,
        "journal: {:?}",
        report.journal
    );
    assert_eq!(
        report.journal_of_kind("fault_injected").len() as u64,
        report.task_panics,
        "each caught injected panic was journaled first"
    );
    assert_eq!(
        report.journal_of_kind("fault_planned").len(),
        3,
        "every planned fault was journaled at submit"
    );
    assert_eq!(
        report.journal_of_kind("replay_emitted").len() as u64,
        report.replays_emitted
    );

    // -- Cross-reference: every journaled replay emission points at a
    // sampled trace whose emit span records the same attempt.
    let sampled = report.trace_ids();
    for e in report.journal_of_kind("replay_emitted") {
        let JournalEvent::ReplayEmitted {
            root,
            trace_id: tid,
            attempt,
            ..
        } = e
        else {
            panic!("kind filter returned {e:?}");
        };
        assert_eq!(*tid, trace_id(*root), "journal trace id derivation");
        assert!(
            sampled.binary_search(tid).is_ok(),
            "replayed tree {root} must appear in the span log"
        );
        assert!(*attempt > 0, "replay attempts are 1-based");
    }

    // -- Chrome trace export: valid JSON with one event per span, and no
    // process tracks to name in a single-process run.
    let chrome = report.chrome_trace_json();
    assert_eq!(chrome, chrome_trace_json(&report.spans));
    let parsed = serde_json::parse(&chrome).expect("chrome trace is valid JSON");
    let events = parsed
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents"))
        .and_then(|(_, v)| v.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), report.spans.len());
}

/// A checkpointable counting bolt: its state is the number and sum of
/// tuples applied.  Every mutation publishes the current state to `live`,
/// so the test can read the surviving incarnation's final counts.
struct StatefulCounter {
    count: u64,
    sum: u64,
    live: Arc<Mutex<(u64, u64)>>,
}

impl Bolt for StatefulCounter {
    fn execute(&mut self, t: &Tuple, _o: &mut BoltOutput) {
        self.count += 1;
        self.sum += t.get(0).unwrap().as_i64().unwrap() as u64;
        *self.live.lock() = (self.count, self.sum);
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
        Some(self)
    }
}

impl StatefulComponent for StatefulCounter {
    fn snapshot(&mut self) -> StateSnapshot {
        StateSnapshot::encode(SnapshotKind::Full, &(self.count, self.sum))
    }

    fn restore(&mut self, base: &StateSnapshot, deltas: &[StateSnapshot]) -> Result<(), String> {
        assert!(deltas.is_empty(), "full-only component");
        let (count, sum): (u64, u64) = base.decode()?;
        self.count = count;
        self.sum = sum;
        *self.live.lock() = (count, sum);
        Ok(())
    }
}

/// Passes its input on, anchored.
struct Relay;

impl Bolt for Relay {
    fn execute(&mut self, t: &Tuple, out: &mut BoltOutput) {
        out.emit(t.clone());
    }
}

/// The checkpointed-recovery acceptance scenario: an injected panic kills a
/// stateful counting bolt mid-stream under each recovery guarantee.  In
/// every mode the restarted task resumes from its snapshot (not from
/// factory state), both conservation invariants close at shutdown, and the
/// journal agrees with the report's checkpoint counters.  Mode-specific
/// result guarantees:
///
/// * exactly-once-effect — final counts identical to a fault-free run, with
///   the counter *two hops* from the spout and trees replayed through the
///   stateless relay between them (see [`checkpointed_recovery_under`]);
/// * at-least-once — no tuple's effect lost, duplicates allowed;
/// * approximate — missing effects bounded by the reported skip count.
#[test]
fn killed_stateful_bolt_resumes_from_snapshot_in_all_modes() {
    for mode in [
        RecoveryMode::ExactlyOnceEffect,
        RecoveryMode::AtLeastOnce,
        RecoveryMode::Approximate,
    ] {
        checkpointed_recovery_under(mode);
    }
}

fn checkpointed_recovery_under(mode: RecoveryMode) {
    const N: u64 = 1500;
    const EXPECT_SUM: u64 = N * (N + 1) / 2;
    let live: Arc<Mutex<(u64, u64)>> = Arc::default();
    let l2 = live.clone();
    let mut b = TopologyBuilder::new("ckpt-recovery");
    // 1.5 s of stream; the panic at 0.4 s lands mid-flight.
    b.set_spout("s", 1, move || PacedSpout::new(N, 1000.0))
        .unwrap();
    // Under exactly-once the counter sits behind a stateless relay that
    // also feeds a bolt rejecting every 7th tuple: each rejection fails a
    // tree the counter has already applied its part of, so the replay
    // reaches the counter a second time *through the relay* and must be
    // recognized by the dedup id the relay derived for it — before the
    // kill, across it (ids restored from the snapshot and the input log)
    // and after it.
    let multi_hop = mode == RecoveryMode::ExactlyOnceEffect;
    let (feeder, counter_task) = if multi_hop { ("relay", 2) } else { ("s", 1) };
    if multi_hop {
        b.set_bolt("relay", 1, || Relay)
            .unwrap()
            .shuffle_grouping("s")
            .unwrap();
    }
    b.set_bolt("counter", 1, move || StatefulCounter {
        count: 0,
        sum: 0,
        live: l2.clone(),
    })
    .unwrap()
    .shuffle_grouping(feeder)
    .unwrap();
    if multi_hop {
        b.set_bolt("reject", 1, || RejectingBolt { seen: 0, nth: 7 })
            .unwrap()
            .shuffle_grouping("relay")
            .unwrap();
    }
    let topo = b.build().unwrap();

    let mut cfg = cluster();
    cfg.message_timeout_s = 1.0;
    cfg.queue_capacity = 64;
    let plan = RtFaultPlan::new().with(RtFault::TaskPanic {
        task: counter_task,
        at_s: 0.4,
    });
    let rt_cfg = RtConfig::default()
        .with_checkpoints(Duration::from_millis(100))
        .with_recovery_mode(mode)
        .with_max_replays(8)
        .with_replay_backoff(Duration::from_millis(50))
        .with_hang_timeout(Duration::from_secs(2));
    let running = rt::submit_faulty(topo, cfg, rt_cfg, plan, None).unwrap();

    wait_until(30, || running.acked() + running.permanently_failed() >= N);
    let (_, report) = running.shutdown();

    let mode_s = mode.as_str();
    assert_eq!(report.task_panics, 1, "{mode_s}: injected panic caught");
    assert!(
        report.task_restarts >= 1,
        "{mode_s}: supervisor restarted the bolt: {report:?}"
    );
    assert!(
        report.checkpoints_taken > 0,
        "{mode_s}: snapshots were deposited: {report:?}"
    );
    assert!(report.snapshot_bytes > 0, "{mode_s}: snapshots have bytes");
    assert!(
        report.restores >= 1,
        "{mode_s}: the restarted bolt restored from its snapshot: {report:?}"
    );
    assert_eq!(report.tracked, N, "{mode_s}: every emission tracked");
    assert!(report.conservation_holds(), "{mode_s}: acks: {report:?}");

    // Report counters and journal tell one story.
    assert_eq!(
        report.journal_of_kind("checkpoint_taken").len() as u64,
        report.checkpoints_taken,
        "{mode_s}: each deposit journaled once"
    );
    assert_eq!(
        report.journal_of_kind("state_restored").len() as u64,
        report.restores,
        "{mode_s}: each restore journaled once"
    );
    assert_eq!(
        report.journal_of_kind("recovery_mode").len(),
        1,
        "{mode_s}: the active guarantee is journaled at submit"
    );

    let (count, sum) = *live.lock();
    match mode {
        RecoveryMode::ExactlyOnceEffect => {
            assert_eq!(report.acked, N, "{mode_s}: all trees acked: {report:?}");
            assert_eq!(report.permanently_failed, 0, "{mode_s}: {report:?}");
            assert_eq!(report.approx_skipped, 0, "{mode_s}: nothing skipped");
            assert_eq!(
                (count, sum),
                (N, EXPECT_SUM),
                "{mode_s}: counts identical to a fault-free run: {report:?}"
            );
        }
        RecoveryMode::AtLeastOnce => {
            assert_eq!(report.acked, N, "{mode_s}: all trees acked: {report:?}");
            assert_eq!(report.permanently_failed, 0, "{mode_s}: {report:?}");
            assert!(
                count >= N && sum >= EXPECT_SUM,
                "{mode_s}: no effect lost (duplicates allowed): \
                 count {count} sum {sum}: {report:?}"
            );
        }
        RecoveryMode::Approximate => {
            assert_eq!(
                report.acked + report.permanently_failed,
                N,
                "{mode_s}: every tree terminal: {report:?}"
            );
            assert_eq!(
                report.permanently_failed, report.approx_skipped,
                "{mode_s}: the only losses are the reported skips: {report:?}"
            );
            assert!(
                count + report.approx_skipped >= N,
                "{mode_s}: result error within the reported bound: \
                 count {count} + skipped {} < {N}: {report:?}",
                report.approx_skipped
            );
        }
    }
}

/// A stateful bolt that goes idle stops checkpointing once the store holds
/// its state: the acks withheld for a partial batch still drain (a withheld
/// ack alone keeps the cycle due), and after that nothing is deposited —
/// not every interval, and not at shutdown.
#[test]
fn idle_stateful_bolt_stops_checkpointing_once_its_acks_are_out() {
    const N: u64 = 40;
    let live: Arc<Mutex<(u64, u64)>> = Arc::default();
    let l2 = live.clone();
    let mut b = TopologyBuilder::new("ckpt-idle");
    b.set_spout("s", 1, || FiniteSpout {
        left: N,
        next_id: 0,
    })
    .unwrap();
    b.set_bolt("counter", 1, move || StatefulCounter {
        count: 0,
        sum: 0,
        live: l2.clone(),
    })
    .unwrap()
    .shuffle_grouping("s")
    .unwrap();
    let mut cfg = cluster();
    // A tick may change a bolt's state (a window closing), so each one counts
    // as a change the store lacks; off, so that this bolt is truly idle.
    cfg.tick_interval_s = 0.0;
    let interval = Duration::from_millis(40);
    // At-least-once (the default): acks wait for the deposit covering them.
    let rt_cfg = RtConfig::default().with_checkpoints(interval);
    let running = rt::submit_with(b.build().unwrap(), cfg, rt_cfg).unwrap();

    wait_until(10, || running.acked() == N);
    assert_eq!(running.acked(), N, "the withheld acks drained");
    let journal = running.journal();
    let taken = || {
        let events = journal.events();
        events
            .iter()
            .filter(|e| e.kind() == "checkpoint_taken")
            .count() as u64
    };
    let before = taken();
    assert!(before >= 1, "the acks left with a deposit");
    std::thread::sleep(interval * 8);
    assert_eq!(taken(), before, "no deposit while idle");
    let (_, report) = running.shutdown();
    assert_eq!(report.checkpoints_taken, before, "the store was current");
    assert_eq!(*live.lock(), (N, N * (N + 1) / 2));
    assert!(report.conservation_holds(), "{report:?}");
}

/// Counts tuples per tumbling window; closed windows flush their count into
/// a shared total, which is the externally observable result the guarantee
/// modes are judged on.
struct WindowCount {
    flushed: Arc<AtomicU64>,
}

impl WindowAggregate for WindowCount {
    type Acc = u64;

    fn add(&mut self, acc: &mut Self::Acc, _tuple: &Tuple) {
        *acc += 1;
    }

    fn emit(&mut self, _window_start_s: f64, acc: Self::Acc, _out: &mut BoltOutput) {
        self.flushed.fetch_add(acc, Ordering::SeqCst);
    }
}

/// The satellite scenario verbatim: panic a stateful *windowed* bolt under
/// each guarantee.  The window geometry (0.5 s tumbling + 0.5 s lateness,
/// panic at 0.4 s) guarantees no window closes before the crash, so every
/// flush happens from post-restore state and the flushed totals are judged
/// exactly:
///
/// * exactly-once-effect — flushed total identical to a fault-free run;
/// * at-least-once — nothing lost, duplicates allowed;
/// * approximate — shortfall bounded by the reported skip count.
#[test]
fn killed_windowed_bolt_keeps_its_guarantee_in_all_modes() {
    let fault_free = windowed_recovery_under(None);
    assert_eq!(
        fault_free.0, WINDOWED_N,
        "fault-free baseline flushes the whole stream"
    );
    for mode in [
        RecoveryMode::ExactlyOnceEffect,
        RecoveryMode::AtLeastOnce,
        RecoveryMode::Approximate,
    ] {
        let (flushed, report) = windowed_recovery_under(Some(mode));
        let mode_s = mode.as_str();
        assert_eq!(report.task_panics, 1, "{mode_s}: injected panic caught");
        assert!(
            report.restores >= 1,
            "{mode_s}: windowed state restored from its snapshot: {report:?}"
        );
        assert!(
            report.checkpoints_taken > 0 && report.snapshot_bytes > 0,
            "{mode_s}: window snapshots were deposited: {report:?}"
        );
        assert_eq!(report.tracked, WINDOWED_N, "{mode_s}: every tree tracked");
        assert!(report.conservation_holds(), "{mode_s}: acks: {report:?}");
        match mode {
            RecoveryMode::ExactlyOnceEffect => assert_eq!(
                flushed, fault_free.0,
                "{mode_s}: windowed counts identical to the fault-free run: {report:?}"
            ),
            RecoveryMode::AtLeastOnce => assert!(
                flushed >= fault_free.0,
                "{mode_s}: no windowed effect lost (duplicates allowed): \
                 flushed {flushed}: {report:?}"
            ),
            RecoveryMode::Approximate => assert!(
                flushed + report.approx_skipped >= fault_free.0,
                "{mode_s}: windowed shortfall within the reported bound: \
                 flushed {flushed} + skipped {} < {}: {report:?}",
                report.approx_skipped,
                fault_free.0
            ),
        }
    }
}

const WINDOWED_N: u64 = 1500;

/// Runs the windowed topology, optionally panicking the bolt at 0.4 s under
/// the given guarantee; returns the flushed-window total and the report.
fn windowed_recovery_under(mode: Option<RecoveryMode>) -> (u64, rt::ThreadedReport) {
    let flushed = Arc::new(AtomicU64::new(0));
    let f2 = flushed.clone();
    let mut b = TopologyBuilder::new("ckpt-windowed");
    b.set_spout("s", 1, move || PacedSpout::new(WINDOWED_N, 1000.0))
        .unwrap();
    b.set_bolt("win", 1, move || {
        WindowedBolt::new(
            WindowAssigner::Tumbling { size_s: 0.5 },
            WindowCount {
                flushed: f2.clone(),
            },
            0.5,
        )
    })
    .unwrap()
    .shuffle_grouping("s")
    .unwrap();
    let topo = b.build().unwrap();

    let mut cfg = cluster();
    cfg.message_timeout_s = 1.0;
    // Tick often enough that trailing windows flush promptly after the
    // stream ends.
    cfg.tick_interval_s = 0.25;
    cfg.queue_capacity = 64;
    let mut plan = RtFaultPlan::new();
    let mut rt_cfg = RtConfig::default()
        .with_checkpoints(Duration::from_millis(100))
        .with_max_replays(8)
        .with_replay_backoff(Duration::from_millis(50))
        .with_hang_timeout(Duration::from_secs(2));
    if let Some(mode) = mode {
        plan = plan.with(RtFault::TaskPanic { task: 1, at_s: 0.4 });
        rt_cfg = rt_cfg.with_recovery_mode(mode);
    }
    let running = rt::submit_faulty(topo, cfg, rt_cfg, plan, None).unwrap();

    wait_until(30, || {
        running.acked() + running.permanently_failed() >= WINDOWED_N
    });
    // Every arrival is accounted for; now let the trailing windows close
    // (window end + lateness + a tick) — the flushed total is settled once
    // it stops moving for a full second.
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut last = flushed.load(Ordering::SeqCst);
    let mut stable_since = Instant::now();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
        let now_v = flushed.load(Ordering::SeqCst);
        if now_v != last {
            last = now_v;
            stable_since = Instant::now();
        } else if stable_since.elapsed() >= Duration::from_secs(1) && now_v > 0 {
            break;
        }
    }
    let (_, report) = running.shutdown();
    (flushed.load(Ordering::SeqCst), report)
}

// --- distributed worker-kill chaos --------------------------------------

/// Checkpointable counter for the multi-process kill test.  Unlike
/// [`StatefulCounter`] it carries no shared handle: the bolt runs in a
/// worker *process*, so the only observable result channel is the snapshot
/// it deposits with the coordinator — its flushed `(count, sum)` effects.
struct DistCounter {
    count: u64,
    sum: u64,
}

impl Bolt for DistCounter {
    fn execute(&mut self, t: &Tuple, _o: &mut BoltOutput) {
        self.count += 1;
        self.sum += t.get(0).unwrap().as_i64().unwrap() as u64;
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
        Some(self)
    }
}

impl StatefulComponent for DistCounter {
    fn snapshot(&mut self) -> StateSnapshot {
        StateSnapshot::encode(SnapshotKind::Full, &(self.count, self.sum))
    }

    fn restore(&mut self, base: &StateSnapshot, deltas: &[StateSnapshot]) -> Result<(), String> {
        assert!(deltas.is_empty(), "full-only component");
        let (count, sum): (u64, u64) = base.decode()?;
        self.count = count;
        self.sum = sum;
        Ok(())
    }
}

/// `args` is `"n:rate"` — a paced spout into one checkpointed counter.
fn build_dist_chaos(args: &str) -> dsdps::error::Result<Topology> {
    let mut it = args.split(':');
    let n: u64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(500);
    let rate: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(1000.0);
    let mut b = TopologyBuilder::new("dist-chaos");
    b.set_spout("s", 1, move || PacedSpout::new(n, rate))?;
    b.set_bolt("counter", 1, || DistCounter { count: 0, sum: 0 })?
        .global_grouping("s")?;
    b.build()
}

fn dist_registry() -> dsdps::dist::TopologyRegistry {
    let mut r = dsdps::dist::TopologyRegistry::new();
    r.register("chaos", build_dist_chaos);
    r
}

/// The re-exec target that turns this test binary into a worker process.
/// A no-op unless the coordinator's env vars are present, so it is safe
/// under `cargo test -- --ignored` soaks.
#[test]
#[ignore = "worker-process entry point, spawned by the dist chaos test"]
fn dist_worker_entry() {
    if std::env::var("DSDPS_DIST_ADDR").is_err() {
        return;
    }
    dsdps::dist::maybe_worker_from_env(&dist_registry());
}

/// Runs the dist chaos topology to completion (optionally SIGKILLing the
/// counter's worker mid-stream) and returns the counter's final flushed
/// state plus the report.
fn dist_chaos_run(
    n: u64,
    rate: f64,
    kill_worker: bool,
) -> ((u64, u64), dsdps::dist::coordinator::DistReport) {
    let worker_cmd = vec![
        std::env::current_exe()
            .expect("current_exe")
            .to_string_lossy()
            .into_owned(),
        "--exact".into(),
        "dist_worker_entry".into(),
        "--ignored".into(),
        "--nocapture".into(),
    ];
    let cfg = EngineConfig {
        message_timeout_s: 2.0,
        ..EngineConfig::default()
    };
    let rt_cfg = RtConfig::default()
        .with_batch_size(8)
        .with_max_replays(10)
        .with_replay_backoff(Duration::from_millis(20))
        .with_checkpoints(Duration::from_millis(50))
        .with_recovery_mode(RecoveryMode::ExactlyOnceEffect);
    let running = dsdps::dist::submit(
        &dist_registry(),
        "chaos",
        &format!("{n}:{rate}"),
        cfg,
        rt_cfg,
        dsdps::dist::DistConfig::new(2, worker_cmd),
    )
    .unwrap();

    if kill_worker {
        wait_until(20, || running.acked() >= n / 4);
        assert!(
            running.acked() >= n / 4,
            "stream never got going: acked {}",
            running.acked()
        );
        running.kill_worker(0).expect("kill worker 0");
    }
    wait_until(30, || running.acked() == n);
    let report = running.shutdown();
    let snap = report.final_snapshots[1]
        .as_ref()
        .expect("counter task checkpointed");
    let state: (u64, u64) = snap.decode().expect("snapshot decodes");
    (state, report)
}

/// The distributed satellite of the chaos suite: a worker *process* is
/// SIGKILLed mid-run under exactly-once-effect.  The supervisor respawns
/// it, the replacement restores from its checkpoint, lost trees replay,
/// and the counter's flushed `(count, sum)` — read back from the
/// coordinator's checkpoint store — matches a fault-free run of the same
/// topology exactly.
#[test]
fn dist_worker_kill_matches_fault_free_flushed_counts() {
    const N: u64 = 500;
    const RATE: f64 = 1500.0;

    let (fault_free, baseline) = dist_chaos_run(N, RATE, false);
    assert_eq!(baseline.acked, N, "fault-free run acks everything");
    assert_eq!(
        fault_free,
        (N, N * (N + 1) / 2),
        "fault-free flushed counts: {baseline:?}"
    );

    let (flushed, report) = dist_chaos_run(N, RATE, true);
    assert!(report.worker_disconnects >= 1, "{report:?}");
    assert!(report.worker_restarts >= 1, "{report:?}");
    assert!(
        report.restores >= 1,
        "replacement restored from checkpoint: {report:?}"
    );
    assert_eq!(report.acked, N, "every message recovered: {report:?}");
    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(
        flushed, fault_free,
        "exactly-once effect: flushed counts match the fault-free run: {report:?}"
    );
}

/// 30-second soak: rolling chaos (panics, a hang, slowdowns, drop windows)
/// against a continuously emitting spout.  Run with `--ignored`.
#[test]
#[ignore = "30s soak; run explicitly (cargo test -- --ignored)"]
fn soak_rolling_chaos() {
    struct EndlessSpout {
        next_id: u64,
    }
    impl Spout for EndlessSpout {
        fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
            self.next_id += 1;
            out.emit_with_id(Tuple::of([Value::from(self.next_id as i64)]), self.next_id);
            true
        }
    }

    let sum = Arc::new(AtomicU64::new(0));
    let s2 = sum.clone();
    let mut b = TopologyBuilder::new("soak");
    b.set_spout("s", 1, || EndlessSpout { next_id: 0 }).unwrap();
    b.set_bolt("acc", 3, move || Accumulator { sum: s2.clone() })
        .unwrap()
        .shuffle_grouping("s")
        .unwrap();
    let topo = b.build().unwrap();

    let mut cfg = cluster();
    cfg.message_timeout_s = 3.0;
    // Tasks: 0 spout, 1..=3 bolts on workers 1..=3.
    let plan = RtFaultPlan::new()
        .with(RtFault::TaskPanic { task: 1, at_s: 3.0 })
        .with(RtFault::TaskPanic { task: 2, at_s: 9.0 })
        .with(RtFault::TaskHang {
            task: 3,
            from_s: 12.0,
            until_s: 60.0,
        })
        .with(RtFault::WorkerSlowdown {
            worker: 1,
            factor: 8.0,
            from_s: 6.0,
            until_s: 16.0,
        })
        .with(RtFault::DropTuples {
            task: 2,
            from_s: 18.0,
            until_s: 20.0,
        })
        .with(RtFault::TaskPanic {
            task: 1,
            at_s: 22.0,
        });
    let rt_cfg = RtConfig::default()
        .with_hang_timeout(Duration::from_secs(1))
        .with_max_restarts(16)
        .with_max_replays(8)
        .with_replay_backoff(Duration::from_millis(100));
    let running = rt::submit_faulty(topo, cfg, rt_cfg, plan, None).unwrap();

    std::thread::sleep(Duration::from_secs(30));
    let mid_acked = running.acked();
    assert!(mid_acked > 0, "stream made progress under chaos");
    // Quiesce: give in-flight replays a moment to land before shutdown so
    // the conservation check is exact rather than racing the chaos.
    std::thread::sleep(Duration::from_secs(5));
    let (_, report) = running.shutdown();

    assert!(
        report.task_panics >= 3,
        "all scheduled panics fired: {report:?}"
    );
    assert!(
        report.task_restarts >= 4,
        "panics + hang recovered: {report:?}"
    );
    assert!(
        report.acked > mid_acked / 2,
        "throughput survived: {report:?}"
    );
    assert!(
        report.conservation_holds(),
        "soak must conserve tuples: {report:?}"
    );
}

/// Combined chaos for backpressure: a flash-crowd spout (input queues of
/// 64 batches) hit by a worker slowdown AND a delivery-drop window
/// mid-spike.  Replay recovers every dropped tree, and tuple-tree
/// conservation (`tracked == acked + permanently_failed + in_flight`) must
/// close at shutdown.
#[test]
fn slowdown_plus_flash_crowd_conserves_tuples() {
    use stream_apps::prelude::*;

    let mut cfg = cluster();
    cfg.max_spout_pending = 1_000_000;
    cfg.message_timeout_s = 1.0;
    cfg.queue_capacity = 64;
    let overload = OverloadConfig {
        pattern: RatePattern::FlashCrowd {
            base: 500.0,
            peak: 3000.0,
            at_s: 0.5,
            len_s: 30.0,
        },
        workers: 2,
        work_us: 150.0,
        spin_service: true,
        ..OverloadConfig::default()
    };
    let (topo, _stats) = build_flash_crowd(&overload).unwrap();
    // Tasks: 0 = spout, 1..=2 = work.  Drop deliveries to task 1 early in
    // the spike (forcing timeouts + replays), and slow one worker across it.
    let plan = RtFaultPlan::new()
        .with(RtFault::DropTuples {
            task: 1,
            from_s: 0.3,
            until_s: 0.8,
        })
        .with(RtFault::WorkerSlowdown {
            worker: 1,
            factor: 2.0,
            from_s: 0.5,
            until_s: 2.0,
        });
    let rt_cfg = RtConfig::default()
        .with_max_replays(5)
        .with_replay_backoff(Duration::from_millis(50));
    let running = rt::submit_faulty(topo, cfg, rt_cfg, plan, None).unwrap();

    // Bounded run: a backpressure/replay deadlock must fail the test, not
    // hang it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (_, report) = running.run_for(Duration::from_secs(4));
        let _ = tx.send(report);
    });
    let report = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("combined chaos run deadlocked");

    assert!(
        report.replays_emitted > 0,
        "the drop window forces replays: {report:?}"
    );
    assert_eq!(
        report.permanently_failed, 0,
        "replay recovers every dropped tree: {report:?}"
    );
    assert!(report.acked > 1000, "spike made progress: {report:?}");
    assert!(
        report.conservation_holds(),
        "tuple conservation under combined chaos: {report:?}"
    );
}
