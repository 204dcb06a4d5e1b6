//! Backpressure integration tests for the threaded runtime: the overload
//! workloads (flash crowd, key-skew storm, slow-sink cascade) driven on
//! real threads, asserting
//!
//! * **no deadlock** — every run completes within a hard wall-clock budget
//!   even when input queues sit full for most of the run;
//! * **conservation** — `tracked == acked + permanently_failed +
//!   in_flight` at shutdown;
//! * **bounded queue-wait** — a small queue capacity holds the
//!   steady-state queue-wait p99 far below the default channel's plateau,
//!   losing nothing.
//!
//! Service times in these workloads are real (the bolts sleep/spin per
//! tuple — `OverloadConfig::spin_service`), so offered load genuinely
//! exceeds stage capacity on the wall clock.

use std::sync::mpsc;
use std::time::Duration;

use dsdps::config::EngineConfig;
use dsdps::rt::{self, RtConfig, ThreadedReport};

use stream_apps::prelude::*;

/// Engine config for the overload runs: frequent metric ticks, input
/// queues of `queue_capacity` batches, and a spout-pending gate high
/// enough that the full queues, not the `max_spout_pending` in-flight
/// gate, push back on the spout.
fn overload_engine(queue_capacity: usize) -> EngineConfig {
    let mut cfg = EngineConfig::default().with_cluster(2, 2, 4);
    cfg.metrics_interval_s = 0.25;
    cfg.max_spout_pending = 1_000_000;
    cfg.message_timeout_s = 60.0;
    cfg.queue_capacity = queue_capacity;
    cfg
}

/// Runs the topology for `run_s`, but fails the test if the run (including
/// shutdown/drain) has not completed within `budget_s` — the no-deadlock
/// assertion every scenario shares.
fn run_bounded(running: rt::RunningTopology, run_s: f64, budget_s: u64) -> ThreadedReport {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (_, report) = running.run_for(Duration::from_secs_f64(run_s));
        let _ = tx.send(report);
    });
    rx.recv_timeout(Duration::from_secs(budget_s))
        .expect("runtime deadlocked: run_for did not complete within budget")
}

/// Key-skew storm against blocking sends: the hot key's task saturates and
/// its queue stays full, yet the run makes progress and nothing is lost.
#[test]
fn key_skew_storm_blocks_hot_edge_without_deadlock() {
    let engine = overload_engine(32);
    let cfg = OverloadConfig {
        pattern: RatePattern::Constant { rate: 4000.0 },
        n_keys: 64,
        zipf_s: 2.0,
        workers: 4,
        work_us: 300.0,
        spin_service: true,
        ..OverloadConfig::default()
    };
    let (topo, stats) = build_key_skew_storm(&cfg).unwrap();
    let running = rt::submit_with(topo, engine, RtConfig::default()).unwrap();
    let report = run_bounded(running, 3.0, 30);

    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(report.failed, 0, "blocking fails no tree");

    let sunk = stats.sunk.load(std::sync::atomic::Ordering::Relaxed);
    let hot = stats.hot_hits.load(std::sync::atomic::Ordering::Relaxed);
    assert!(sunk > 1000, "storm made no progress: sunk {sunk}");
    assert!(
        hot as f64 > sunk as f64 * 0.4,
        "not a skew storm: hot {hot} of {sunk}"
    );
}

/// Slow-sink cascade: only the terminal stage is under-provisioned, so
/// backpressure must propagate two hops (the sink's queue fills, the relay
/// blocks, the relay's queue fills, the spout stalls) without deadlocking
/// spout → relay → sink.
#[test]
fn slow_sink_cascade_propagates_backpressure_two_hops() {
    let engine = overload_engine(16);
    let cfg = OverloadConfig {
        pattern: RatePattern::Constant { rate: 2500.0 },
        workers: 2,
        work_us: 50.0,
        sink_us: 700.0,
        spin_service: true,
        ..OverloadConfig::default()
    };
    let (topo, stats) = build_slow_sink_cascade(&cfg).unwrap();
    let running = rt::submit_with(topo, engine, RtConfig::default()).unwrap();
    let report = run_bounded(running, 3.0, 30);

    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(report.failed, 0);

    let ord = std::sync::atomic::Ordering::Relaxed;
    let emitted = stats.emitted.load(ord);
    let processed = stats.processed.load(ord);
    let sunk = stats.sunk.load(ord);
    assert!(sunk > 1000, "cascade made no progress: sunk {sunk}");
    assert!(
        processed >= sunk,
        "relay feeds the sink: {processed}/{sunk}"
    );
    // The spout was actually held back: with the sink ~2× under-provisioned
    // and only 16 + 16 queued batches of slack, emissions track sink capacity, not
    // the 2500/s offered rate (which would be ~7500 over the run).
    assert!(
        emitted < 7000,
        "spout was never backpressured: emitted {emitted}"
    );
}

/// A small queue capacity bounds queue-wait on its own — no rate cap, no
/// loss: blocking sends hold each task's queue to its capacity, so waits
/// are `capacity / service-rate`, far below the default channel's plateau.
#[test]
fn small_queue_capacity_bounds_queue_wait_without_loss() {
    let engine = overload_engine(64);
    let cfg = OverloadConfig {
        pattern: RatePattern::Constant { rate: 8000.0 },
        workers: 2,
        work_us: 400.0,
        spin_service: true,
        ..OverloadConfig::default()
    };
    let (topo, _stats) = build_flash_crowd(&cfg).unwrap();
    let running = rt::submit_with(topo, engine, RtConfig::default()).unwrap();
    let bp = running.backpressure();
    let report = run_bounded(running, 3.0, 30);

    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(report.failed, 0, "blocking loses nothing");
    // 8 000/s offered to 2 × 2 500/s of service: 64 queued tuples per task
    // are ~26 ms of wait.  A 2048-batch queue fills to a wait of seconds at
    // that rate, so the 200 ms ceiling holds only while the bound does.
    assert!(
        report.queue_wait_last_p99_us < 200_000.0,
        "queue capacity failed to bound queue-wait: {} µs",
        report.queue_wait_last_p99_us
    );
    // The handle stays usable after shutdown.
    assert_eq!(bp.queue_wait_last_p99_us(), report.queue_wait_last_p99_us);
}
