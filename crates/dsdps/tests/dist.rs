//! End-to-end tests of the distributed (multi-process) runtime: API
//! calibration against the threaded backend, tuple/credit conservation
//! across the process boundary, and checkpointed recovery of a killed
//! worker process.
//!
//! Worker processes are this same test binary re-executed with
//! `--exact dist_worker_entry --ignored`: the [`dist_worker_entry`] test
//! reads `DSDPS_DIST_ADDR` / `DSDPS_DIST_WORKER` from the environment and
//! turns into a worker. Without those variables (e.g. the CI `--ignored`
//! soak) it returns immediately.

use std::time::{Duration, Instant};

use dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput, TopologyContext};
use dsdps::config::EngineConfig;
use dsdps::dist::{self, DistConfig, TopologyRegistry};
use dsdps::error::Result;
use dsdps::rt::{self, RecoveryMode, RtConfig, SnapshotKind, StateSnapshot, StatefulComponent};
use dsdps::topology::{Topology, TopologyBuilder};
use dsdps::tuple::{Tuple, Value};

// --- shared topologies (coordinator and workers build the same ones) ----

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

/// Like [`FiniteSpout`] but paced, so the stream is still flowing when the
/// test kills a worker mid-run.
struct PacedSpout {
    left: u64,
    next_id: u64,
    rate: f64,
    started: Option<Instant>,
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
            return true;
        }
        self.left -= 1;
        self.next_id += 1;
        out.emit_with_id(Tuple::of([Value::from(self.next_id as i64)]), self.next_id);
        true
    }
}

struct Doubler;

impl Bolt for Doubler {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        let v = tuple.get(0).unwrap().as_i64().unwrap();
        out.emit(Tuple::of([Value::from(v * 2)]));
    }
}

struct Sink;

impl Bolt for Sink {
    fn execute(&mut self, _tuple: &Tuple, _out: &mut BoltOutput) {}
}

/// A checkpointable counting bolt: state is `(count, sum)` of applied
/// tuples. The dist tests read its final state from the coordinator's
/// checkpoint store ([`dsdps::report::Report::final_snapshots`]), which is
/// the only cross-process observation channel.
#[derive(Default)]
struct StatefulCounter {
    count: u64,
    sum: u64,
    /// Service time per tuple (zero except where a test needs a backlog).
    delay: Duration,
    /// Zero bytes carried in every snapshot (zero except where a test
    /// needs a snapshot far larger than a socket buffer).
    ballast: usize,
}

impl Bolt for StatefulCounter {
    fn execute(&mut self, t: &Tuple, _o: &mut BoltOutput) {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.count += 1;
        self.sum += t.get(0).unwrap().as_i64().unwrap() as u64;
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
        Some(self)
    }
}

impl StatefulComponent for StatefulCounter {
    fn snapshot(&mut self) -> StateSnapshot {
        let mut bytes = vec![0; 16 + self.ballast];
        bytes[..8].copy_from_slice(&self.count.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.sum.to_le_bytes());
        StateSnapshot {
            kind: SnapshotKind::Full,
            bytes,
        }
    }

    fn restore(
        &mut self,
        base: &StateSnapshot,
        deltas: &[StateSnapshot],
    ) -> std::result::Result<(), String> {
        assert!(deltas.is_empty(), "full-only component");
        (self.count, self.sum) = decode_counter(base).ok_or("short counter snapshot")?;
        Ok(())
    }
}

fn decode_counter(snap: &StateSnapshot) -> Option<(u64, u64)> {
    let word = |at: usize| {
        Some(u64::from_le_bytes(
            snap.bytes.get(at..at + 8)?.try_into().ok()?,
        ))
    };
    Some((word(0)?, word(8)?))
}

fn build_calib(args: &str) -> Result<Topology> {
    let n: u64 = args.parse().unwrap_or(1000);
    let mut b = TopologyBuilder::new("dist-calib");
    b.set_spout("src", 1, move || FiniteSpout {
        left: n,
        next_id: 0,
    })?;
    b.set_bolt("double", 2, || Doubler)?
        .shuffle_grouping("src")?;
    b.set_bolt("sink", 2, || Sink)?.shuffle_grouping("double")?;
    b.build()
}

/// `src (paced) → count ×1`, `args` = `"n:rate[:delay_us]"` (the counter's
/// service time per tuple, default none).
fn build_stateful(args: &str) -> Result<Topology> {
    let mut it = args.split(':');
    let n: u64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(500);
    let rate: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(1000.0);
    let delay = Duration::from_micros(it.next().and_then(|s| s.parse().ok()).unwrap_or(0));
    let mut b = TopologyBuilder::new("dist-stateful");
    b.set_spout("src", 1, move || PacedSpout {
        left: n,
        next_id: 0,
        rate,
        started: None,
    })?;
    b.set_bolt("count", 1, move || StatefulCounter {
        delay,
        ..StatefulCounter::default()
    })?
    .global_grouping("src")?;
    b.build()
}

/// Passes its input on, anchored.
struct Relay;

impl Bolt for Relay {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        out.emit(tuple.clone());
    }
}

/// Passes its input on *unanchored*: the tree completes here, and what
/// travels on is invisible to the acker.
struct Detach;

impl Bolt for Detach {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        out.emit_unanchored(tuple.clone());
    }
}

/// The payload every `mesh` tuple carries next to its id: large enough that
/// a tuple's values crossing the coordinator again could not hide among
/// the ack records.
const MESH_PAYLOAD: &str = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef\
                            0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";

struct FatSpout {
    left: u64,
    next_id: u64,
}

impl Spout for FatSpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        self.next_id += 1;
        let values = [Value::from(self.next_id as i64), Value::from(MESH_PAYLOAD)];
        out.emit_with_id(Tuple::of(values), self.next_id);
        true
    }
}

/// `src → relay ×1 → sink ×1`: on three workers the relay lands on worker
/// 0 and the sink on worker 1, so the relay → sink hop is a peer link.
fn build_mesh(args: &str) -> Result<Topology> {
    let n: u64 = args.parse().unwrap_or(1000);
    let mut b = TopologyBuilder::new("dist-mesh");
    b.set_spout("src", 1, move || FatSpout {
        left: n,
        next_id: 0,
    })?;
    b.set_bolt("relay", 1, || Relay)?.shuffle_grouping("src")?;
    b.set_bolt("sink", 1, || Sink)?.shuffle_grouping("relay")?;
    b.build()
}

/// A sink that takes its time, so the trees through it stay pending.
struct SlowSink;

impl Bolt for SlowSink {
    fn execute(&mut self, _tuple: &Tuple, _out: &mut BoltOutput) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `src (paced) → relay ×1 → count ×1`, `args` = `"n:rate:kind"`: the
/// stateless relay lands on worker 0 and the checkpointed counter on
/// worker 1.  `kind` picks the variant:
///
/// * `detach` — the relay emits *unanchored* and the counter is slow, so
///   trees complete long before the tuples they set off are counted;
/// * `audit` — a slow second subscriber of the relay (on worker 2) keeps
///   every tree pending long after the counter has applied, checkpointed
///   and acked its part;
/// * `fat` — the counter's snapshot carries 4 MiB of ballast, many times
///   what a socket buffers.
fn build_chain(args: &str) -> Result<Topology> {
    let mut it = args.split(':');
    let n: u64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(500);
    let rate: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(1000.0);
    let kind = it.next().unwrap_or("");
    let mut b = TopologyBuilder::new("dist-chain");
    b.set_spout("src", 1, move || PacedSpout {
        left: n,
        next_id: 0,
        rate,
        started: None,
    })?;
    if kind == "detach" {
        b.set_bolt("relay", 1, || Detach)?.shuffle_grouping("src")?;
    } else {
        b.set_bolt("relay", 1, || Relay)?.shuffle_grouping("src")?;
    }
    let delay = Duration::from_micros(if kind == "detach" { 100 } else { 0 });
    let ballast = if kind == "fat" { 4 << 20 } else { 0 };
    b.set_bolt("count", 1, move || StatefulCounter {
        delay,
        ballast,
        ..StatefulCounter::default()
    })?
    .global_grouping("relay")?;
    if kind == "audit" {
        b.set_bolt("audit", 1, || SlowSink)?
            .shuffle_grouping("relay")?;
    }
    b.build()
}

/// `src (paced) → relay ×1 → count ×2` with a *dynamic* grouping on the
/// relay → count edge — an edge only a worker routes.
fn build_dynamic(args: &str) -> Result<Topology> {
    let mut it = args.split(':');
    let n: u64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(500);
    let rate: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(1000.0);
    let mut b = TopologyBuilder::new("dist-dynamic");
    b.set_spout("src", 1, move || PacedSpout {
        left: n,
        next_id: 0,
        rate,
        started: None,
    })?;
    b.set_bolt("relay", 1, || Relay)?.shuffle_grouping("src")?;
    b.set_bolt("count", 2, StatefulCounter::default)?
        .dynamic_grouping("relay")?;
    b.build()
}

fn registry() -> TopologyRegistry {
    let mut r = TopologyRegistry::new();
    r.register("calib", build_calib);
    r.register("stateful", build_stateful);
    r.register("mesh", build_mesh);
    r.register("chain", build_chain);
    r.register("dynamic", build_dynamic);
    r
}

/// `(count, sum)` of a [`StatefulCounter`] task's last checkpoint.
fn counter_state(report: &dist::DistReport, task: usize) -> (u64, u64) {
    let snap = report.final_snapshots[task]
        .as_ref()
        .expect("counter task checkpointed");
    decode_counter(snap).expect("snapshot decodes")
}

/// The re-exec target that turns this test binary into a worker process.
/// A no-op unless the coordinator's env vars are present, so it is safe
/// under `cargo test -- --ignored` soaks.
#[test]
#[ignore = "worker-process entry point, spawned by the dist tests"]
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

/// Polls until `done` or the timeout expires; returns whether it finished.
fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    done()
}

/// `dist::submit` validates its configs like the other backends do: each
/// bad value is an `Error::Config` naming it, returned before any worker
/// process is spawned (the worker command would leave a marker file).
#[test]
fn dist_submit_rejects_bad_configs_before_spawning() {
    let marker = std::env::temp_dir().join(format!("dsdps_dist_spawned_{}", std::process::id()));
    let _ = std::fs::remove_file(&marker);
    let fleet = |workers: usize| DistConfig {
        workers,
        ..DistConfig::new(
            2,
            vec![
                "/bin/sh".into(),
                "-c".into(),
                format!("echo spawned > {}", marker.display()),
            ],
        )
    };
    let (engine, rt_config) = (EngineConfig::default(), RtConfig::default());
    let bad_engine = EngineConfig {
        queue_capacity: 0,
        ..engine.clone()
    };
    let cases = [
        (
            "batch_size",
            &engine,
            rt_config.clone().with_batch_size(0),
            2,
        ),
        (
            "trace_sample_rate",
            &engine,
            rt_config.clone().with_trace_sample_rate(2.0),
            2,
        ),
        ("workers", &engine, rt_config.clone(), 0),
        ("queue_capacity", &bad_engine, rt_config.clone(), 2),
    ];
    for (what, engine, rt_config, workers) in cases {
        let submitted = dist::submit(
            &registry(),
            "calib",
            "10",
            engine.clone(),
            rt_config,
            fleet(workers),
        );
        match submitted {
            Err(dsdps::error::Error::Config(msg)) => {
                assert!(msg.contains(what), "{what}: unexpected message {msg:?}")
            }
            Err(other) => panic!("{what}: expected Error::Config, got {other:?}"),
            Ok(running) => {
                running.shutdown();
                panic!("{what}: bad config accepted");
            }
        }
    }
    std::thread::sleep(Duration::from_millis(200));
    assert!(!marker.exists(), "a worker process was spawned");
}

/// A worker that exits before its handshake fails `submit` at once, naming
/// the slot's exit status, instead of after the 10 s connect timeout.
#[test]
fn dist_submit_fails_fast_when_a_worker_exits_before_its_handshake() {
    let exits = vec!["/bin/sh".into(), "-c".into(), "exit 3".into()];
    let started = Instant::now();
    let submitted = dist::submit(
        &registry(),
        "calib",
        "10",
        EngineConfig::default(),
        RtConfig::default(),
        DistConfig::new(2, exits),
    );
    let took = started.elapsed();
    match submitted {
        Err(e) => assert!(e.to_string().contains("exit status: 3"), "{e}"),
        Ok(running) => {
            running.shutdown();
            panic!("submit succeeded with workers that exit");
        }
    }
    assert!(took < Duration::from_secs(2), "submit took {took:?}");
}

/// The calibration acceptance test: the identical topology, run on the
/// threaded backend and on worker processes, acks every tracked message
/// with zero loss — `acked == tracked == n` on both.
#[test]
fn dist_calibration_matches_threaded_runtime() {
    let n = 2_000u64;
    let rt_config = RtConfig::default().with_batch_size(64);

    // Threaded reference run.
    let topo = build_calib(&n.to_string()).unwrap();
    let running = rt::submit_with(topo, EngineConfig::default(), rt_config.clone()).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == n),
        "threaded run acked {}/{n}",
        running.acked()
    );
    let (_, threaded) = running.shutdown();

    // Distributed run, two worker processes.
    let running = dist::submit(
        &registry(),
        "calib",
        &n.to_string(),
        EngineConfig::default(),
        rt_config,
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == n),
        "dist run acked {}/{n}",
        running.acked()
    );
    let dist_report = running.shutdown();

    assert_eq!(threaded.spout_emitted, n);
    assert_eq!(dist_report.spout_emitted, n, "{dist_report:?}");
    assert_eq!(threaded.tracked, dist_report.tracked, "tracked parity");
    assert_eq!(threaded.acked, dist_report.acked, "acked parity");
    assert_eq!(dist_report.acked, n, "zero loss");
    assert_eq!(dist_report.permanently_failed, 0);
    assert!(threaded.conservation_holds());
    assert!(dist_report.conservation_holds(), "{dist_report:?}");
    assert!(dist_report.drained_clean);
}

/// Conservation and credit invariants hold across the process boundary,
/// and the journal records the worker fleet's lifecycle.
#[test]
fn dist_conservation_credit_and_journal_invariants() {
    let n = 1_000u64;
    let running = dist::submit(
        &registry(),
        "calib",
        &n.to_string(),
        EngineConfig::default(),
        RtConfig::default().with_batch_size(16).with_credit_flow(32),
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == n),
        "acked {}/{n}",
        running.acked()
    );
    let pids = running.worker_pids();
    let report = running.shutdown();

    assert!(report.conservation_holds(), "{report:?}");
    assert!(report.credit_conservation_holds(), "{:?}", report.credits);
    assert!(pids.iter().all(|&p| p != 0), "workers have pids: {pids:?}");
    assert_eq!(report.journal_of_kind("worker_spawned").len(), 2);
    assert_eq!(report.journal_of_kind("worker_connected").len(), 2);
    assert!(report.frames_sent > 0 && report.frames_received > 0);
    assert!(report.bytes_sent > 0 && report.bytes_received > 0);
}

/// Every window of a run is `credit_window × batch_size` tuples.  After a
/// drained shutdown every credit is back, so the fleet's balance is one
/// window per pool: on two workers, `calib`'s four bolt tasks each have a
/// pool at the coordinator and at the worker that does not host them.
#[test]
fn dist_windows_are_credit_window_times_batch_size() {
    let n = 1_000u64;
    for (rt_config, window) in [
        (RtConfig::default().with_batch_size(16), 16_384),
        (
            RtConfig::default().with_batch_size(32).with_credit_flow(8),
            256,
        ),
    ] {
        let running = dist::submit(
            &registry(),
            "calib",
            &n.to_string(),
            EngineConfig::default(),
            rt_config,
            DistConfig::new(2, self_worker_cmd()),
        )
        .unwrap();
        assert!(
            wait_until(Duration::from_secs(30), || running.acked() == n),
            "acked {}/{n}",
            running.acked()
        );
        let report = running.shutdown();
        assert!(report.drained_clean, "{report:?}");
        let c = report.credits;
        assert_eq!((c.outstanding, c.revoked), (8 * window, 0), "{c:?}");
        assert!(report.credit_conservation_holds(), "{c:?}");
    }
}

/// The recovery acceptance test: a worker process is SIGKILLed mid-run
/// under exactly-once-effect. The supervisor respawns it, the replacement
/// restores from its latest checkpoint (`state_restored`), lost trees
/// replay, and the final counter state matches a fault-free run exactly.
#[test]
fn dist_killed_worker_restores_from_checkpoint() {
    let n = 600u64;
    let rate = 1_500.0;
    let engine = EngineConfig {
        message_timeout_s: 2.0,
        ..EngineConfig::default()
    };
    let rt_config = RtConfig::default()
        .with_batch_size(8)
        .with_max_replays(10)
        .with_replay_backoff(Duration::from_millis(20))
        .with_checkpoints(Duration::from_millis(50))
        .with_recovery_mode(RecoveryMode::ExactlyOnceEffect);
    let running = dist::submit(
        &registry(),
        "stateful",
        &format!("{n}:{rate}"),
        engine,
        rt_config,
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();

    // Wait until the stream is flowing and at least one checkpoint has
    // plausibly landed, then kill the worker owning the counter task.
    assert!(
        wait_until(Duration::from_secs(20), || running.acked() >= n / 4),
        "stream never got going: acked {}",
        running.acked()
    );
    running.kill_worker(0).expect("kill worker 0");

    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == n),
        "recovery stalled: acked {}/{n}",
        running.acked()
    );
    let report = running.shutdown();

    assert!(report.worker_disconnects >= 1, "{report:?}");
    assert!(report.worker_restarts >= 1, "{report:?}");
    assert!(report.restores >= 1, "restored from checkpoint: {report:?}");
    assert!(
        !report.journal_of_kind("state_restored").is_empty(),
        "state_restored journaled"
    );
    assert!(report.checkpoints_taken > 0 && report.snapshot_bytes > 0);
    assert_eq!(report.acked, n, "every message recovered: {report:?}");
    assert!(report.conservation_holds(), "{report:?}");

    // Exactly-once effect: the counter's final snapshot equals the
    // fault-free outcome, despite replays crossing the kill.
    assert_eq!(
        counter_state(&report, 1),
        (n, n * (n + 1) / 2),
        "no lost or duplicated effects"
    );
}

/// Approximate recovery means on `dist` what it means on `rt`: acks wait
/// for the deposit that covers them, a restore dooms the trees tracked
/// before its snapshot, and the skip count bounds what the result lacks.
/// The counter is slow and the spout fast, so at any snapshot hundreds of
/// trees are tracked but not yet applied — the kill must skip some.
#[test]
fn dist_approximate_restore_skips_and_counts_pre_snapshot_trees() {
    let n = 1_500u64;
    let engine = EngineConfig {
        message_timeout_s: 5.0,
        ..EngineConfig::default()
    };
    let rt_config = RtConfig::default()
        .with_batch_size(8)
        .with_max_replays(10)
        .with_replay_backoff(Duration::from_millis(20))
        .with_checkpoints(Duration::from_millis(50))
        .with_recovery_mode(RecoveryMode::Approximate);
    let running = dist::submit(
        &registry(),
        "stateful",
        &format!("{n}:4000:1000"),
        engine,
        rt_config,
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();

    assert!(
        wait_until(Duration::from_secs(20), || running.acked() >= n / 5),
        "stream never got going: acked {}",
        running.acked()
    );
    assert!(running.pending_trees() > 100, "the counter lags behind");
    running.kill_worker(0).expect("kill the counter's worker");
    assert!(
        wait_until(Duration::from_secs(30), || running.spout_emitted() == n),
        "emitted {}/{n}",
        running.spout_emitted()
    );
    // The drain waits for every tree still owed a verdict.
    let report = running.shutdown();

    assert!(report.drained_clean, "{report:?}");
    assert!(report.worker_restarts >= 1, "{report:?}");
    assert!(report.restores >= 1, "restored from checkpoint: {report:?}");
    assert!(report.approx_skipped > 0, "nothing was skipped: {report:?}");
    assert_eq!(
        report.permanently_failed, report.approx_skipped,
        "the only losses are the reported skips: {report:?}"
    );
    assert_eq!(
        report.acked + report.permanently_failed,
        n,
        "every tree terminal: {report:?}"
    );
    assert!(report.conservation_holds(), "{report:?}");
    let (count, _) = counter_state(&report, 1);
    assert!(
        count + report.approx_skipped >= n,
        "result error within the reported bound: count {count} + skipped {} < {n}",
        report.approx_skipped
    );
    assert!(count < n, "what was skipped is missing from the result");
}

/// The point of the mesh: bolt → bolt tuples travel worker → worker and
/// the coordinator hears only XOR ack records about them.  With the relay
/// and the sink on different workers, what the coordinator *receives* per
/// acked tree must stay below the wire size of a single tuple — no values
/// cross it on the way back — and the workers' own ledgers must show up in
/// the report, or the credit identity would be vacuous.
#[test]
fn dist_mesh_keeps_tuple_values_off_the_coordinator() {
    use dsdps::dist::codec::{encode_frame_body, Frame, WireTuple};

    let n = 4_000u64;
    let running = dist::submit(
        &registry(),
        "mesh",
        &n.to_string(),
        EngineConfig::default(),
        RtConfig::default().with_batch_size(32).with_credit_flow(8),
        DistConfig::new(3, self_worker_cmd()),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == n),
        "acked {}/{n}",
        running.acked()
    );
    let report = running.shutdown();
    assert_eq!(report.acked, n, "{report:?}");
    assert!(report.conservation_holds() && report.drained_clean);
    assert_eq!(
        report.worker_disconnects, 0,
        "clean shutdown is no disconnect"
    );

    let mut one_tuple = Vec::new();
    encode_frame_body(
        &Frame::TupleBatch {
            items: vec![WireTuple {
                token: u64::MAX,
                dest_task: 2,
                stream: 1,
                dedup: None,
                trace_root: Some(n),
                values: vec![Value::from(n as i64), Value::from(MESH_PAYLOAD)],
            }],
        },
        &mut one_tuple,
    );
    let received_per_tree = report.bytes_received as f64 / n as f64;
    assert!(
        received_per_tree < one_tuple.len() as f64,
        "coordinator received {received_per_tree:.1} B per tree, one tuple is {} B",
        one_tuple.len()
    );
    // Sent: each tree leaves the coordinator exactly once (to the relay).
    let sent_per_tree = report.bytes_sent as f64 / n as f64;
    assert!(
        sent_per_tree < 1.5 * one_tuple.len() as f64,
        "coordinator sent {sent_per_tree:.1} B per tree, one tuple is {} B",
        one_tuple.len()
    );

    // The fleet's ledgers: the coordinator consumed one credit per tree
    // (spout → relay) and worker 0 another (relay → sink).
    assert!(report.credit_conservation_holds(), "{:?}", report.credits);
    assert_eq!(report.credits.consumed, 2 * n, "{:?}", report.credits);
}

/// SIGKILL of the *downstream* peer under exactly-once-effect.  The relay's
/// worker survives (same pid, its slot never restarts), fails what it
/// cannot deliver instead of dying with its peer, and reconnects when the
/// replacement dials in.  Because the coordinator cannot know which trees
/// had an edge on the dead worker it replays *all* pending ones — here,
/// thanks to the slow audit sink, hundreds whose effect on the counter was
/// already checkpointed and acked.  The counter's flushed state must still
/// equal the fault-free outcome: replayed trees re-derive the same dedup
/// ids hop by hop, so a stateful bolt two hops from the spout recognizes
/// them.
#[test]
fn dist_killed_downstream_peer_keeps_exactly_once_effect() {
    let n = 800u64;
    let engine = EngineConfig {
        message_timeout_s: 5.0,
        ..EngineConfig::default()
    };
    let rt_config = RtConfig::default()
        .with_batch_size(8)
        .with_max_replays(20)
        .with_replay_backoff(Duration::from_millis(20))
        .with_checkpoints(Duration::from_millis(50))
        .with_recovery_mode(RecoveryMode::ExactlyOnceEffect);
    let running = dist::submit(
        &registry(),
        "chain",
        &format!("{n}:2000:audit"),
        engine,
        rt_config,
        DistConfig::new(3, self_worker_cmd()),
    )
    .unwrap();
    let pids_before = running.worker_pids();

    assert!(
        wait_until(Duration::from_secs(20), || running.acked() >= n / 4),
        "stream never got going: acked {}",
        running.acked()
    );
    assert!(running.pending_trees() > 50, "the audit sink lags behind");
    running.kill_worker(1).expect("kill the counter's worker");
    assert!(
        wait_until(Duration::from_secs(40), || running.acked() == n),
        "recovery stalled: acked {}/{n}",
        running.acked()
    );
    let pids_after = running.worker_pids();
    assert_eq!(
        (pids_after[0], pids_after[2]),
        (pids_before[0], pids_before[2]),
        "the sender and the bystander survived"
    );
    let report = running.shutdown();

    assert_eq!(report.worker_restarts, 1, "only the killed slot respawned");
    assert!(report.restores >= 1, "restored from checkpoint: {report:?}");
    assert!(
        report.replays_emitted > 50,
        "pending trees replayed: {report:?}"
    );
    assert_eq!(report.acked, n, "every message recovered: {report:?}");
    assert!(report.conservation_holds(), "{report:?}");
    assert!(report.credit_conservation_holds(), "{:?}", report.credits);
    assert!(report.drained_clean, "{report:?}");
    assert_eq!(
        counter_state(&report, 2),
        (n, n * (n + 1) / 2),
        "no lost or duplicated effects two hops from the spout"
    );
}

/// A respawned worker applies its restores before it takes a tuple off
/// any link.  The counter's snapshot is 4 MiB, so it is still crossing the
/// coordinator link long after the respawned worker could have dialed the
/// relay's worker, which is forwarding at full rate: a batch overtaking
/// the snapshot would be counted on fresh state, overwritten by the
/// restore and acked all the same — a lost effect.
#[test]
fn dist_respawned_worker_restores_before_peer_tuples() {
    let n = 3_000u64;
    let engine = EngineConfig {
        message_timeout_s: 5.0,
        ..EngineConfig::default()
    };
    let rt_config = RtConfig::default()
        .with_batch_size(8)
        .with_max_replays(20)
        .with_replay_backoff(Duration::from_millis(5))
        .with_checkpoints(Duration::from_millis(100))
        .with_recovery_mode(RecoveryMode::ExactlyOnceEffect);
    let running = dist::submit(
        &registry(),
        "chain",
        &format!("{n}:4000:fat"),
        engine,
        rt_config,
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();
    let pids_before = running.worker_pids();

    assert!(
        wait_until(Duration::from_secs(20), || running.acked() >= n / 4),
        "stream never got going: acked {}",
        running.acked()
    );
    running.kill_worker(1).expect("kill the counter's worker");
    assert!(
        wait_until(Duration::from_secs(40), || running.acked() == n),
        "recovery stalled: acked {}/{n}",
        running.acked()
    );
    assert_eq!(running.worker_pids()[0], pids_before[0], "relay survived");
    let report = running.shutdown();

    assert_eq!(report.worker_restarts, 1, "{report:?}");
    assert!(report.restores >= 1, "restored from checkpoint: {report:?}");
    assert_eq!(report.acked, n, "every message recovered: {report:?}");
    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(
        counter_state(&report, 2),
        (n, n * (n + 1) / 2),
        "no effect applied before the restore and then overwritten"
    );
}

/// A ratio set on the coordinator's handle steers an edge that only a
/// worker routes: the supervisor pushes the new weights to the fleet in a
/// `SetRatio` frame.
#[test]
fn dist_set_ratio_steers_a_worker_routed_edge() {
    use dsdps::grouping::dynamic::SplitRatio;

    let n = 1_600u64;
    let running = dist::submit(
        &registry(),
        "dynamic",
        &format!("{n}:2000"),
        EngineConfig::default(),
        RtConfig::default()
            .with_batch_size(8)
            .with_checkpoints(Duration::from_millis(50)),
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();
    let handle = running
        .dynamic_handle("relay", "count")
        .expect("the relay → count edge is dynamic");

    // Uniform split for the first stretch, then everything to task 0.
    assert!(wait_until(Duration::from_secs(20), || running.acked() >= 200));
    handle
        .set_ratio(SplitRatio::new(vec![1.0, 0.0]).unwrap())
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == n),
        "acked {}/{n}",
        running.acked()
    );
    let report = running.shutdown();
    assert!(report.drained_clean, "{report:?}");

    let (first, _) = counter_state(&report, 2);
    let (second, _) = counter_state(&report, 3);
    assert_eq!(first + second, n, "every tuple counted once");
    assert!(
        second > 0 && second < n / 4,
        "count[1] got {second} of {n}: half of the first stretch, nothing after"
    );
}

/// Unanchored emissions are invisible to the acker: when the last tree is
/// acked, tuples may still be travelling between workers.  Shutdown's
/// drain must wait for them — `drained_clean` means every delivery was
/// executed, not just every tree resolved.
#[test]
fn dist_unanchored_emissions_are_not_lost_at_shutdown() {
    let n = 3_000u64;
    let running = dist::submit(
        &registry(),
        "chain",
        &format!("{n}:1000000:detach"),
        EngineConfig::default(),
        RtConfig::default()
            .with_batch_size(64)
            .with_checkpoints(Duration::from_secs(3600)),
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == n),
        "acked {}/{n}",
        running.acked()
    );
    // No grace period: whatever is still between the workers is in flight.
    let report = running.shutdown();
    assert!(report.drained_clean, "{report:?}");
    assert_eq!(
        counter_state(&report, 2),
        (n, n * (n + 1) / 2),
        "every unanchored delivery was executed before the fleet stopped"
    );
}

/// Scrapes the coordinator's Prometheus endpoint, returning the response
/// body text.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect metrics endpoint");
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

/// The distributed observability acceptance scenario: a kill-restore run
/// with every tree traced (sample 1.0), worker metrics pushed on a short
/// interval and one live Prometheus endpoint on the coordinator.  The
/// merged span log, the worker-labelled metrics, the journal's worker
/// lifecycle and the report counters must tell one consistent story
/// across three OS processes and a respawn.
#[test]
fn dist_observability_spans_metrics_and_journal_agree() {
    use dsdps::telemetry::{trace::trace_id as derive_trace_id, validate_spans, JournalEvent};

    let n = 600u64;
    let rate = 1_500.0;
    let engine = EngineConfig {
        message_timeout_s: 2.0,
        metrics_interval_s: 0.1, // worker push cadence
        ..EngineConfig::default()
    };
    let rt_config = RtConfig::default()
        .with_batch_size(8)
        .with_max_replays(10)
        .with_replay_backoff(Duration::from_millis(20))
        .with_checkpoints(Duration::from_millis(50))
        .with_recovery_mode(RecoveryMode::ExactlyOnceEffect)
        .with_trace_sample_rate(1.0)
        .with_metrics_addr("127.0.0.1:0".parse().unwrap());
    let running = dist::submit(
        &registry(),
        "stateful",
        &format!("{n}:{rate}"),
        engine,
        rt_config,
        DistConfig::new(2, self_worker_cmd()),
    )
    .unwrap();
    let addr = running.metrics_addr().expect("metrics endpoint bound");
    let coord_pid = running.coordinator_pid();
    assert_eq!(coord_pid, std::process::id());

    // Let the stream flow, then kill the worker owning the counter task.
    assert!(
        wait_until(Duration::from_secs(20), || running.acked() >= n / 4),
        "stream never got going: acked {}",
        running.acked()
    );
    running.kill_worker(0).expect("kill worker 0");
    assert!(
        wait_until(Duration::from_secs(30), || running.acked() == n),
        "recovery stalled: acked {}/{n}",
        running.acked()
    );

    // -- Prometheus endpoint: one scrape unifies coordinator counters,
    // per-connection transport gauges and the workers' pushed families,
    // the latter labelled by worker slot and generation.  The respawned
    // worker's generation-2 families appear once its first push lands.
    assert!(
        wait_until(Duration::from_secs(10), || {
            scrape_metrics(addr).contains("generation=\"2\"")
        }),
        "respawned worker's metrics never reached the endpoint"
    );
    let scrape = scrape_metrics(addr);
    for family in [
        "dsdps_tracked_total",
        "dsdps_acked_total",
        "dsdps_coord_worker_restarts_total",
        "dsdps_dist_outstanding_window",
        "dsdps_dist_conn_frames_in_total",
        "dsdps_worker_executed_total",
        "dsdps_worker_batches_total",
        "dsdps_worker_uptime_seconds",
    ] {
        assert!(
            scrape.contains(family),
            "scrape is missing {family}:\n{scrape}"
        );
    }
    assert!(
        scrape.contains("worker=\"0\"") && scrape.contains("generation=\"1\""),
        "worker families carry slot and generation labels:\n{scrape}"
    );

    let report = running.shutdown();
    assert_eq!(report.acked, n, "every message recovered: {report:?}");
    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(report.coordinator_pid, coord_pid);

    // -- Span log: one merged, clock-normalized, structurally consistent
    // trace across processes, in the one order both backends' reports use.
    // Emits and terminals come from the coordinator, hops from worker
    // processes, so consistency here proves wire propagation, push-back and
    // clock normalization end to end.
    assert_eq!(report.spans_dropped, 0, "trace rings must not overflow");
    assert!(report
        .spans
        .is_sorted_by_key(|s| (s.trace_id, s.start_us, s.kind.is_terminal())));
    let summary = validate_spans(&report.spans).expect("merged span log is consistent");
    assert!(
        summary.hop_spans > 0,
        "worker hop spans came back: {summary:?}"
    );
    assert_eq!(
        summary.trees,
        (n + report.replays_emitted) as usize,
        "one tree per root plus one per replay emission: {summary:?}"
    );
    let worker_pids: std::collections::BTreeSet<u32> = report
        .spans
        .iter()
        .filter(|s| s.kind == dsdps::telemetry::SpanKind::Hop)
        .map(|s| s.pid)
        .collect();
    assert!(
        !worker_pids.is_empty() && !worker_pids.contains(&coord_pid) && !worker_pids.contains(&0),
        "hop spans carry real worker pids distinct from the coordinator: {worker_pids:?}"
    );
    assert!(
        report
            .spans
            .iter()
            .any(|s| s.kind == dsdps::telemetry::SpanKind::SpoutEmit && s.pid == coord_pid),
        "emit spans are stamped with the coordinator pid"
    );
    assert!(
        report.spans.iter().any(|s| s.generation >= 2),
        "the respawned worker's spans carry its new generation"
    );

    // -- Chrome trace: per-process metadata names the coordinator and each
    // worker process, so the merged view separates by pid.
    let chrome = report.chrome_trace_json();
    assert!(chrome.contains("process_name"), "{chrome}");
    assert!(chrome.contains("coordinator"), "{chrome}");
    assert!(chrome.contains("worker 0 (gen "), "{chrome}");

    // -- Journal: the worker lifecycle is fully attributed.  Assignments
    // decompose bring-up cost and record the clock offset the span
    // normalization used; the death carries a cause; the disconnect's lost
    // trace ids cross-reference the span log.
    let assigned = report.journal_of_kind("worker_assigned");
    assert!(assigned.len() >= 3, "2 initial + >=1 respawn: {assigned:?}");
    let mut saw_respawn = false;
    let mut assigned_tasks = 0usize;
    for e in &assigned {
        let JournalEvent::WorkerAssigned {
            pid,
            generation,
            tasks,
            ..
        } = e
        else {
            panic!("kind filter returned {e:?}");
        };
        assert!(*pid != 0, "assignment records the worker pid: {e:?}");
        assigned_tasks += *tasks;
        saw_respawn |= *generation >= 2;
    }
    assert!(assigned_tasks > 0, "bolt tasks were assigned: {assigned:?}");
    assert!(saw_respawn, "the respawned worker was re-assigned");
    let died = report.journal_of_kind("worker_died");
    assert!(!died.is_empty(), "the SIGKILL was reaped and journaled");
    for e in &died {
        let JournalEvent::WorkerDied { cause, pid, .. } = e else {
            panic!("kind filter returned {e:?}");
        };
        assert!(!cause.is_empty() && *pid != 0, "death has a cause: {e:?}");
    }
    let trace_ids = report.trace_ids();
    for e in report.journal_of_kind("worker_disconnected") {
        let JournalEvent::WorkerDisconnected { lost_trace_ids, .. } = e else {
            panic!("kind filter returned {e:?}");
        };
        for tid in lost_trace_ids {
            assert!(
                trace_ids.binary_search(tid).is_ok(),
                "lost trace id {tid:#x} cross-references the span log"
            );
        }
    }
    // Spans and journal agree on identity: every span's trace id is the
    // canonical derivation of its root.
    assert!(report
        .spans
        .iter()
        .all(|s| s.trace_id == derive_trace_id(s.root)));
}
