//! One topology, three backends: `sim`, `rt` and `dist` step the same route
//! table and the same spout tree lifecycle, so the same emissions must
//! reach the same tasks and the same `EngineConfig` must mean the same
//! thing on each.
//!
//! Worker processes are this same test binary re-executed with
//! `--exact dist_worker_entry --ignored`, as in `dist.rs`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput, TopologyContext};
use dsdps::config::EngineConfig;
use dsdps::dist::{self, DistConfig, TopologyRegistry};
use dsdps::error::Result;
use dsdps::grouping::dynamic::SplitRatio;
use dsdps::grouping::{FieldsGrouping, Grouping};
use dsdps::metrics::MetricsSnapshot;
use dsdps::report::Report;
use dsdps::rt::{self, RecoveryMode, RtConfig, SnapshotKind, StateSnapshot, StatefulComponent};
use dsdps::sim::SimRuntime;
use dsdps::topology::{Topology, TopologyBuilder};
use dsdps::tuple::{Fields, Tuple, Value};

const N: u64 = 400;
/// Global tasks of the largest topology, [`build`]'s.
const TASKS: usize = 11;

/// `ack` + `fail` calls heard by the spouts of each test (spouts run in the
/// test process on every backend, and the tests run concurrently).
static HEARD_ROUTING: AtomicU64 = AtomicU64::new(0);
static HEARD_UNTRACKED: AtomicU64 = AtomicU64::new(0);
static HEARD_FLAKY: AtomicU64 = AtomicU64::new(0);
static HEARD_FORK: AtomicU64 = AtomicU64::new(0);
static HEARD_FAIL_ONCE: AtomicU64 = AtomicU64::new(0);

/// Emits `1..=N`, each tuple tracked under message id `ids + i` unless
/// `tracked` is off.  Every topology here has two: `src` (`ids` 0) and
/// `void` (`ids` N), to which nobody subscribes, so each of its trees has
/// zero deliveries and must complete on its own.
struct Src {
    next: u64,
    ids: u64,
    tracked: bool,
    heard: &'static AtomicU64,
}

impl Src {
    /// Declares `src` and `void`, both counted into `heard`.
    fn declare(b: &mut TopologyBuilder, heard: &'static AtomicU64, tracked: bool) -> Result<()> {
        for (name, ids) in [("src", 0), ("void", N)] {
            b.set_spout(name, 1, move || Src {
                next: 0,
                ids,
                tracked,
                heard,
            })?;
        }
        Ok(())
    }
}

impl Spout for Src {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        if self.next == N {
            return false;
        }
        self.next += 1;
        let tuple = Tuple::of([Value::from(self.next as i64)]);
        if self.tracked {
            out.emit_with_id(tuple, self.ids + self.next);
        } else {
            out.emit(tuple);
        }
        true
    }

    fn ack(&mut self, _id: u64) {
        self.heard.fetch_add(1, Ordering::Relaxed);
    }

    fn fail(&mut self, _id: u64) {
        self.heard.fetch_add(1, Ordering::Relaxed);
    }
}

/// Passes each tuple on to its four subscribers.
struct Fan;

impl Bolt for Fan {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        out.emit(tuple.clone());
    }
}

/// Counts what it executes: into `counts[global task id]` (read by the
/// in-process backends) and into its checkpointed state (read from
/// [`Report::final_snapshots`], the cross-process channel).
struct Count {
    counts: Arc<Vec<AtomicU64>>,
    task: usize,
    seen: u64,
    /// Fails the first sighting of every id divisible by this — *after*
    /// counting it (0 = never fails).
    fail_every: u64,
    failed_once: HashSet<u64>,
}

impl Bolt for Count {
    fn prepare(&mut self, ctx: &TopologyContext) {
        self.task += ctx.task_index;
    }

    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        self.seen += 1;
        self.counts[self.task].fetch_add(1, Ordering::Relaxed);
        let id = tuple.get(0).unwrap().as_i64().unwrap() as u64;
        if self.fail_every > 0 && id.is_multiple_of(self.fail_every) && self.failed_once.insert(id)
        {
            out.fail();
        }
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
        Some(self)
    }
}

impl StatefulComponent for Count {
    fn snapshot(&mut self) -> StateSnapshot {
        StateSnapshot {
            kind: SnapshotKind::Full,
            bytes: self.seen.to_le_bytes().to_vec(),
        }
    }

    fn restore(
        &mut self,
        base: &StateSnapshot,
        _deltas: &[StateSnapshot],
    ) -> std::result::Result<(), String> {
        self.seen = decode(base);
        Ok(())
    }
}

fn decode(snap: &StateSnapshot) -> u64 {
    u64::from_le_bytes(snap.bytes[..8].try_into().expect("8-byte counter"))
}

/// `src ×1 → fan ×1`, then every grouping on `fan`'s stream `[i]`:
/// `global ×2`, `dynamic ×2` (ratio 1 : 3), `side ×2` (shuffle) and
/// `keyed ×2` (fields on `i`).  Global task ids: src 0, void 1, fan 2,
/// global 3‥4, dynamic 5‥6, side 7‥8, keyed 9‥10.
fn build(
    counts: &Arc<Vec<AtomicU64>>,
    heard: &'static AtomicU64,
    tracked: bool,
) -> Result<Topology> {
    let count = |base: usize| {
        let counts = Arc::clone(counts);
        move || Count {
            counts: Arc::clone(&counts),
            task: base,
            seen: 0,
            fail_every: 0,
            failed_once: HashSet::new(),
        }
    };
    let mut b = TopologyBuilder::new("parity");
    Src::declare(&mut b, heard, tracked)?;
    b.set_bolt("fan", 1, || Fan)?
        .shuffle_grouping("src")?
        .output_fields(Fields::new(["i"]));
    b.set_bolt("global", 2, count(3))?.global_grouping("fan")?;
    b.set_bolt("dynamic", 2, count(5))?
        .dynamic_grouping("fan")?;
    b.set_bolt("side", 2, count(7))?.shuffle_grouping("fan")?;
    b.set_bolt("keyed", 2, count(9))?
        .fields_grouping("fan", &["i"])?;
    let topology = b.build()?;
    let dynamic = topology
        .dynamic_handle("fan", "dynamic")
        .expect("dynamic edge");
    dynamic.set_ratio(SplitRatio::new(vec![1.0, 3.0])?)?;
    Ok(topology)
}

/// `src ×1 → flaky ×1`: a counter (global task 2) that counts every input
/// and then fails the first sighting of every `fail_every`-th id.
fn build_flaky(
    counts: &Arc<Vec<AtomicU64>>,
    fail_every: u64,
    heard: &'static AtomicU64,
) -> Result<Topology> {
    let counts = Arc::clone(counts);
    let mut b = TopologyBuilder::new("parity-flaky");
    Src::declare(&mut b, heard, true)?;
    b.set_bolt("flaky", 1, move || Count {
        counts: Arc::clone(&counts),
        task: 2,
        seen: 0,
        fail_every,
        failed_once: HashSet::new(),
    })?
    .shuffle_grouping("src")?;
    b.build()
}

/// `src ×1 → {pass ×1, reject ×1}`: every tuple of `src` goes to both
/// bolts (global tasks 2 and 3); `pass` acks it, `reject` fails the first
/// sighting of every fourth id.  With `void`'s trees that is three kinds of
/// tracked tree: one that fans out and completes, one that fans out and is
/// failed by one branch, and one that reaches nothing.
fn build_fork(counts: &Arc<Vec<AtomicU64>>) -> Result<Topology> {
    let branch = |task: usize, fail_every: u64| {
        let counts = Arc::clone(counts);
        move || Count {
            counts: Arc::clone(&counts),
            task,
            seen: 0,
            fail_every,
            failed_once: HashSet::new(),
        }
    };
    let mut b = TopologyBuilder::new("parity-fork");
    Src::declare(&mut b, &HEARD_FORK, true)?;
    b.set_bolt("pass", 1, branch(2, 0))?
        .shuffle_grouping("src")?;
    b.set_bolt("reject", 1, branch(3, 4))?
        .shuffle_grouping("src")?;
    b.build()
}

fn fresh_counts() -> Arc<Vec<AtomicU64>> {
    Arc::new((0..TASKS).map(|_| AtomicU64::new(0)).collect())
}

fn read(counts: &[AtomicU64]) -> Vec<u64> {
    counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

fn registry() -> TopologyRegistry {
    let mut r = TopologyRegistry::new();
    r.register("routing", |_args| {
        build(&fresh_counts(), &HEARD_ROUTING, true)
    });
    r.register("untracked", |_args| {
        build(&fresh_counts(), &HEARD_UNTRACKED, false)
    });
    r.register("flaky", |_args| {
        build_flaky(&fresh_counts(), 5, &HEARD_FLAKY)
    });
    r.register("fail-once", |_args| {
        build_flaky(&fresh_counts(), 1, &HEARD_FAIL_ONCE)
    });
    r.register("fork", |_args| build_fork(&fresh_counts()));
    r
}

#[test]
#[ignore = "worker-process entry point, spawned by the dist runs"]
fn dist_worker_entry() {
    if std::env::var("DSDPS_DIST_ADDR").is_err() {
        return;
    }
    dist::maybe_worker_from_env(&registry());
}

fn self_worker_cmd() -> Vec<String> {
    vec![
        std::env::current_exe()
            .expect("current_exe")
            .to_string_lossy()
            .into_owned(),
        "--exact".into(),
        "dist_worker_entry".into(),
        "--ignored".into(),
        "--nocapture".into(),
    ]
}

fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline && !done() {
        std::thread::sleep(Duration::from_millis(10));
    }
    done()
}

/// Per-task executed counts of a checkpointed run, from the final
/// checkpoints (a task that never executed never checkpointed).
fn final_counts(report: &Report) -> Vec<u64> {
    let snaps = report.final_snapshots.iter();
    snaps.map(|s| s.as_ref().map_or(0, decode)).collect()
}

/// What a run resolved its messages to: `(tracked, acked, failed,
/// timed_out, permanently_failed, replays_scheduled, replays_emitted,
/// in_flight)` — the same fields, read under the same names, on every
/// backend.
fn outcome(r: &Report) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.tracked,
        r.acked,
        r.failed,
        r.timed_out,
        r.permanently_failed,
        r.replays_scheduled,
        r.replays_emitted,
        r.in_flight,
    )
}

/// Cross-worker tuples in / out of each worker, summed over a whole run.
fn worker_flows<'a>(history: impl Iterator<Item = &'a MetricsSnapshot>) -> Vec<(u64, u64)> {
    let mut flows = Vec::new();
    for snapshot in history {
        flows.resize(snapshot.workers.len(), (0, 0));
        for w in &snapshot.workers {
            flows[w.worker.0].0 += w.tuples_in;
            flows[w.worker.0].1 += w.tuples_out;
        }
    }
    flows
}

/// Global, dynamic, shuffle and fields grouping, as four subscribers of one
/// stream, deliver the same per-task counts on all three backends, a tree
/// that reaches nothing still completes, and `sim` and `rt` agree on what
/// enters and leaves each worker.
#[test]
fn three_backends_route_identically() {
    let keyed = {
        let fields = Fields::new(["i"]);
        let mut grouping = FieldsGrouping::new(2, &["i".into()], &fields).unwrap();
        let mut split = [0u64; 2];
        let mut out = Vec::new();
        for i in 1..=N {
            out.clear();
            let tuple = Tuple::with_fields([Value::from(i as i64)], fields.clone());
            grouping.select(&tuple, &mut out);
            split[out[0]] += 1;
        }
        split
    };
    // `src`, `void` and `fan` are not counting bolts.
    let expected = vec![
        0,
        0,
        0,
        N,
        0,
        N / 4,
        3 * N / 4,
        N.div_ceil(2),
        N / 2,
        keyed[0],
        keyed[1],
    ];
    let mut engine = EngineConfig::default().with_cluster(2, 2, 4);
    engine.metrics_interval_s = 0.2;

    let counts = fresh_counts();
    let topology = build(&counts, &HEARD_ROUTING, true).unwrap();
    let mut sim = SimRuntime::new(topology, engine.clone()).unwrap();
    let sim_report = sim.run_until(10.0);
    assert_eq!(sim_report.acked, 2 * N, "{sim_report:?}");
    assert_eq!(read(&counts), expected, "sim per-task counts");
    let sim_flows = worker_flows(sim.history().iter());

    let counts = fresh_counts();
    let topology = build(&counts, &HEARD_ROUTING, true).unwrap();
    let running = rt::submit_with(topology, engine.clone(), RtConfig::default()).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == 2 * N),
        "rt acked {}/{N}+{N}",
        running.acked()
    );
    // Two more metrics intervals, so the last deliveries are in a snapshot.
    std::thread::sleep(Duration::from_millis(500));
    let (history, rt_report) = running.shutdown();
    assert_eq!(rt_report.task_panics, 0, "{:?}", rt_report.panic_messages);
    assert!(rt_report.conservation_holds(), "{rt_report:?}");
    assert_eq!(read(&counts), expected, "rt per-task counts");
    let rt_flows = worker_flows(history.iter());
    assert_eq!(rt_flows, sim_flows, "(tuples_in, tuples_out) per worker");
    let (into, out_of): (Vec<u64>, Vec<u64>) = rt_flows.into_iter().unzip();
    assert_eq!(into.iter().sum::<u64>(), out_of.iter().sum::<u64>());
    assert!(
        into.iter().sum::<u64>() > 0,
        "some deliveries cross workers"
    );

    let running = dist::submit(
        &registry(),
        "routing",
        "",
        engine,
        RtConfig::default().with_batch_size(8),
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == 2 * N),
        "dist acked {}/{N}+{N}",
        running.acked()
    );
    let dist_report = running.shutdown();
    assert!(dist_report.conservation_holds(), "{dist_report:?}");
    assert!(dist_report.drained_clean);
    assert_eq!(final_counts(&dist_report), expected, "dist per-task counts");
    // Every backend told user code about every message exactly once.
    assert_eq!(HEARD_ROUTING.load(Ordering::Relaxed), 3 * 2 * N);
}

/// Emissions without a message id mean the same on `dist` as on `rt`:
/// nothing is tracked or replayed, user code never hears `ack`/`fail`, and
/// the run still delivers everything (and on `dist` drains clean).
#[test]
fn dist_honours_ack_disabled() {
    let rt_config = RtConfig::default().with_max_replays(3);
    let untracked = |report: &Report| {
        assert_eq!(report.tracked, 0);
        assert_eq!(report.acked + report.failed + report.timed_out, 0);
        assert_eq!(report.replays_scheduled + report.replays_emitted, 0);
        assert_eq!(report.in_flight, 0);
        assert!(report.conservation_holds(), "{report:?}");
    };

    let counts = fresh_counts();
    let topology = build(&counts, &HEARD_UNTRACKED, false).unwrap();
    let running = rt::submit_with(topology, EngineConfig::default(), rt_config.clone()).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || read(&counts)[3] == N),
        "rt delivered {}/{N}",
        read(&counts)[3]
    );
    let (_, report) = running.shutdown();
    assert_eq!(report.spout_emitted, 2 * N, "{report:?}");
    untracked(&report);
    assert_eq!(read(&counts)[3..5], [N, 0], "rt: everything arrived");

    let running = dist::submit(
        &registry(),
        "untracked",
        "",
        EngineConfig::default(),
        rt_config,
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.spout_emitted() == 2 * N),
        "emitted {}/{N}+{N}",
        running.spout_emitted()
    );
    assert_eq!(running.pending_trees(), 0);
    let report = running.shutdown();
    assert!(report.drained_clean, "{report:?}");
    untracked(&report);
    assert_eq!(final_counts(&report)[3..5], [N, 0], "everything arrived");
    assert_eq!(HEARD_UNTRACKED.load(Ordering::Relaxed), 0);
}

/// Exactly-once effect means the same on `rt` and `dist` for an input the
/// bolt applies and *then* fails: the mutation happened, so the id counts as
/// applied, and the replay the failure sets off is acknowledged without
/// being applied a second time.  The final count is `N` on both, live and
/// in the final checkpoint, and the two resolve every message alike.
#[test]
fn a_failed_input_that_mutated_state_is_not_reapplied_on_replay() {
    let rt_config = RtConfig::default()
        .with_checkpoints(Duration::from_millis(50))
        .with_recovery_mode(RecoveryMode::ExactlyOnceEffect)
        .with_max_replays(3)
        .with_replay_backoff(Duration::from_millis(10));
    // Every fifth message fails once and is replayed once.
    let expected = (2 * N, 2 * N, N / 5, 0, 0, N / 5, N / 5, 0);

    let counts = fresh_counts();
    let topology = build_flaky(&counts, 5, &HEARD_FLAKY).unwrap();
    let running = rt::submit_with(topology, EngineConfig::default(), rt_config.clone()).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == 2 * N),
        "rt acked {}/{N}+{N}",
        running.acked()
    );
    let (_, rt_report) = running.shutdown();
    assert_eq!(outcome(&rt_report), expected, "{rt_report:?}");
    assert_eq!(read(&counts)[2], N, "rt: each id applied exactly once");
    assert_eq!(final_counts(&rt_report)[2], N, "rt: and so checkpointed");

    let running = dist::submit(
        &registry(),
        "flaky",
        "",
        EngineConfig::default(),
        rt_config,
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == 2 * N),
        "dist acked {}/{N}+{N}",
        running.acked()
    );
    let dist_report = running.shutdown();
    let rt_outcome = outcome(&rt_report);
    assert_eq!(outcome(&dist_report), rt_outcome, "{dist_report:?}");
    assert_eq!(
        final_counts(&dist_report)[2],
        N,
        "dist: each id applied exactly once"
    );
    assert_eq!(HEARD_FLAKY.load(Ordering::Relaxed), 2 * 2 * N);
}

/// A tree means the same on `sim`, `rt` and `dist` whether it fans out to
/// two bolts and completes, is failed by one of its branches, or reaches
/// nothing: the same [`outcome`] on the live backends, the same acked /
/// failed split on `sim` — and on `rt` and `dist` the acker is handed
/// exactly one record per executed tuple, none for the emissions in
/// between.
#[test]
fn a_forked_tree_resolves_alike_from_one_record_per_executed_tuple() {
    // No replay: a failed tree is permanently failed, and nothing executes
    // twice.  Each of the `N` forked trees executes once on either branch.
    let (failed, executed) = (N / 4, 2 * N);
    let expected = (2 * N, 2 * N - failed, failed, 0, failed, 0, 0, 0);
    let resolved = |acked: u64, perm_failed: u64| acked + perm_failed == 2 * N;

    // `sim` has no replay either: a failed tree is failed for good.  Run
    // past the message timeout, so a tree some executed tuple's record
    // never reached shows up as timed out.
    let counts = fresh_counts();
    let topology = build_fork(&counts).unwrap();
    let engine = EngineConfig::default();
    let horizon = 2.0 * engine.message_timeout_s;
    let mut sim = SimRuntime::new(topology, engine).unwrap();
    let r = sim.run_until(horizon);
    assert_eq!(
        (r.acked, r.failed, r.timed_out),
        (2 * N - failed, failed, 0)
    );
    assert_eq!(read(&counts)[2..4], [N, N], "sim: both branches saw all");

    let counts = fresh_counts();
    let topology = build_fork(&counts).unwrap();
    let running = rt::submit_with(topology, EngineConfig::default(), RtConfig::default()).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || {
            resolved(running.acked(), running.permanently_failed())
                && running.ack_records_applied() == executed
        }),
        "rt: acked {} failed {} records {}",
        running.acked(),
        running.permanently_failed(),
        running.ack_records_applied()
    );
    let rt_records = running.ack_records_applied();
    let (_, r) = running.shutdown();
    assert_eq!(read(&counts)[2..4], [N, N], "rt: both branches saw all");
    let rt_outcome = outcome(&r);
    assert_eq!(rt_outcome, expected, "{r:?}");

    let running = dist::submit(
        &registry(),
        "fork",
        "",
        EngineConfig::default(),
        RtConfig::default().with_batch_size(8),
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || {
            running.tracked() == 2 * N
                && running.pending_trees() == 0
                && running.ack_records_applied() == executed
        }),
        "dist: tracked {} pending {} records {}",
        running.tracked(),
        running.pending_trees(),
        running.ack_records_applied()
    );
    let dist_records = running.ack_records_applied();
    let r = running.shutdown();
    assert!(r.drained_clean, "{r:?}");
    assert_eq!(
        final_counts(&r)[2..4],
        [N, N],
        "dist: both branches saw all"
    );
    assert_eq!(outcome(&r), rt_outcome, "{r:?}");
    // The workers' forced shutdown checkpoints released nothing more.
    assert_eq!((rt_records, dist_records), (executed, executed));
    assert_eq!(HEARD_FORK.load(Ordering::Relaxed), 3 * 2 * N);
}

/// A finite spout whose sink fails every message exactly once: the shared
/// spout step replays each after its backoff under a fresh tree, which the
/// sink then acks, so `rt` and `dist` resolve to the same [`outcome`] and
/// tell user code the same — `2 N` calls each, all of them `ack`s since
/// nothing failed for good — with the spout exhausted from its `N`-th poll
/// on.
#[test]
fn a_spout_whose_every_message_fails_once_resolves_alike() {
    let rt_config = RtConfig::default()
        .with_max_replays(3)
        .with_replay_backoff(Duration::from_millis(10));
    // The `void` half of the messages reaches nothing and acks at once.
    let expected = (2 * N, 2 * N, N, 0, 0, N, N, 0);

    let counts = fresh_counts();
    let topology = build_flaky(&counts, 1, &HEARD_FAIL_ONCE).unwrap();
    let running = rt::submit_with(topology, EngineConfig::default(), rt_config.clone()).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == 2 * N),
        "rt acked {}/{N}+{N}",
        running.acked()
    );
    let (_, r) = running.shutdown();
    let rt_outcome = outcome(&r);
    assert_eq!(rt_outcome, expected, "{r:?}");
    assert_eq!(read(&counts)[2], 2 * N, "rt: every message ran twice");
    assert_eq!(HEARD_FAIL_ONCE.load(Ordering::Relaxed), 2 * N);

    let running = dist::submit(
        &registry(),
        "fail-once",
        "",
        EngineConfig::default(),
        rt_config.with_batch_size(8),
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == 2 * N),
        "dist acked {}/{N}+{N}",
        running.acked()
    );
    assert_eq!(running.pending_trees(), 0);
    let r = running.shutdown();
    assert!(r.drained_clean, "{r:?}");
    assert_eq!(outcome(&r), rt_outcome, "{r:?}");
    assert_eq!(HEARD_FAIL_ONCE.load(Ordering::Relaxed), 2 * 2 * N);
}
