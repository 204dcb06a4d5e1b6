//! Workspace integration tests: the full pipeline across crates —
//! applications on the simulated engine, the control loop closing over
//! dynamic groupings, predictor training on engine metrics, and the
//! threaded runtime running the same topologies.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use streampc::apps::continuous_queries::{build_continuous_queries, CqConfig};
use streampc::apps::faults::FaultScenario;
use streampc::apps::url_count::{build_url_count, UrlCountConfig};
use streampc::apps::workload::RatePattern;
use streampc::control::controller::{
    control_hook, ControlEvent, ControlMode, Controller, ControllerConfig,
};
use streampc::control::detector::DetectorConfig;
use streampc::control::predictor::{ArimaPredictor, PerformancePredictor, SvrPredictor};
use streampc::dsdps::config::EngineConfig;
use streampc::dsdps::metrics::MetricsSnapshot;
use streampc::dsdps::scheduler::even_placement;
use streampc::dsdps::sim::SimRuntime;
use streampc::forecast::svr::SvrParams;

/// Held by every test that runs the threaded runtime on the wall clock, so
/// they run one at a time: two of them burn CPU on purpose, and beside them
/// a healthy run's latencies can look degraded to the reactive detector.
/// The simulator tests stay parallel.
fn wall_clock_exclusive() -> MutexGuard<'static, ()> {
    static WALL_CLOCK: Mutex<()> = Mutex::new(());
    WALL_CLOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cluster(seed: u64) -> EngineConfig {
    EngineConfig::default()
        .with_cluster(4, 2, 4)
        .with_seed(seed)
}

fn wuc_config() -> UrlCountConfig {
    UrlCountConfig {
        pattern: RatePattern::Constant { rate: 800.0 },
        count_cost_us: 600.0,
        window_s: 2.0,
        ..UrlCountConfig::default()
    }
}

fn cq_config() -> CqConfig {
    CqConfig {
        pattern: RatePattern::Constant { rate: 700.0 },
        query_cost_us: 600.0,
        ..CqConfig::default()
    }
}

#[test]
fn url_count_full_pipeline_on_simulator() {
    let (topology, stats) = build_url_count(&wuc_config()).unwrap();
    let mut engine = SimRuntime::new(topology, cluster(1)).unwrap();
    let report = engine.run_until(30.0);
    let emitted = stats.emitted.load(Ordering::Relaxed);
    let counted = stats.counted.load(Ordering::Relaxed);
    assert!(emitted > 20_000, "emitted {emitted}");
    assert!(counted as f64 > emitted as f64 * 0.98);
    assert_eq!(report.failed, 0);
    assert_eq!(report.timed_out, 0);
    assert!(report.avg_complete_latency_ms > 0.0);
    // Window totals across finalized reports add up to the portion of the
    // stream those windows cover (the last couple of windows are still
    // open at shutdown).
    let reports = stats.reports.lock();
    let reported_total: u64 = reports.iter().map(|r| r.total).sum();
    let covered = reports.len() as f64 * 2.0 * 800.0; // windows x window_s x rate
    assert!(
        (reported_total as f64 - covered).abs() < covered * 0.15,
        "window reports cover their windows: {reported_total} vs ~{covered}"
    );
    assert!(
        reports.len() >= 10,
        "most windows finalized: {}",
        reports.len()
    );
}

#[test]
fn continuous_queries_full_pipeline_on_simulator() {
    let (topology, stats) = build_continuous_queries(&cq_config()).unwrap();
    let mut engine = SimRuntime::new(topology, cluster(2)).unwrap();
    engine.run_until(25.0);
    let results = stats.results.lock();
    assert!(results.len() > 20);
    // Results arrive for several distinct standing queries and windows.
    let queries: std::collections::HashSet<u32> = results.iter().map(|r| r.query).collect();
    let windows: std::collections::HashSet<u64> = results.iter().map(|r| r.window).collect();
    assert!(queries.len() >= 5, "queries {}", queries.len());
    assert!(windows.len() >= 3, "windows {}", windows.len());
}

#[test]
fn reactive_control_bypasses_misbehaving_worker_end_to_end() {
    let (topology, _) = build_url_count(&wuc_config()).unwrap();
    let placement = even_placement(&topology, &cluster(3)).unwrap();
    let count_workers: Vec<_> = topology
        .component_by_name("count")
        .unwrap()
        .tasks()
        .map(|t| placement.worker_of(t))
        .collect();
    let fault_worker = count_workers[1];

    let controller = Controller::for_topology(
        &topology,
        &placement,
        ControllerConfig {
            warmup_intervals: 10,
            detector: DetectorConfig {
                trigger_factor: 2.5,
                ..DetectorConfig::default()
            },
            ..ControllerConfig::default()
        },
        ControlMode::Reactive,
    )
    .unwrap();
    let shared = Arc::new(parking_lot::Mutex::new(controller));

    let mut engine = SimRuntime::new(topology, cluster(3)).unwrap();
    FaultScenario::single_misbehaving_worker(fault_worker.0, 10.0, 20.0, 60.0)
        .apply(&mut engine)
        .unwrap();
    engine.add_control_hook(control_hook(shared.clone()));
    engine.run_until(60.0);

    let c = shared.lock();
    let flagged: Vec<_> = c
        .events()
        .iter()
        .filter_map(|e| match e {
            ControlEvent::Flagged {
                worker, interval, ..
            } => Some((*worker, *interval)),
            _ => None,
        })
        .collect();
    assert!(
        flagged.iter().any(|(w, _)| *w == fault_worker),
        "faulted worker must be flagged; events: {:?}",
        c.events()
    );
    let (_, t_flag) = flagged.iter().find(|(w, _)| *w == fault_worker).unwrap();
    assert!(
        *t_flag >= 20 && *t_flag <= 26,
        "detection within a few intervals of fault onset, got t={t_flag}"
    );
    // The ratio must have been re-planned at least once.
    assert!(c
        .events()
        .iter()
        .any(|e| matches!(e, ControlEvent::RatioApplied { .. })));
}

#[test]
fn control_preserves_throughput_under_fault() {
    // Compare fault-window throughput with and without reactive control.
    let run = |with_control: bool| -> f64 {
        let (topology, _) = build_url_count(&wuc_config()).unwrap();
        let placement = even_placement(&topology, &cluster(4)).unwrap();
        let fault_worker = {
            let ws: Vec<_> = topology
                .component_by_name("count")
                .unwrap()
                .tasks()
                .map(|t| placement.worker_of(t))
                .collect();
            ws[1]
        };
        let mut engine = SimRuntime::new(topology, cluster(4)).unwrap();
        FaultScenario::single_misbehaving_worker(fault_worker.0, 12.0, 20.0, 70.0)
            .apply(&mut engine)
            .unwrap();
        if with_control {
            let controller = Controller::for_topology(
                engine.topology(),
                &placement,
                ControllerConfig {
                    warmup_intervals: 10,
                    ..ControllerConfig::default()
                },
                ControlMode::Reactive,
            )
            .unwrap();
            engine.add_control_hook(control_hook(Arc::new(parking_lot::Mutex::new(controller))));
        }
        engine.run_until(70.0);
        let snaps: Vec<&MetricsSnapshot> = engine.history().iter().collect();
        let window: Vec<&&MetricsSnapshot> = snaps
            .iter()
            .filter(|s| s.time_s > 30.0 && s.time_s <= 70.0)
            .collect();
        window.iter().map(|s| s.topology.throughput).sum::<f64>() / window.len() as f64
    };
    let uncontrolled = run(false);
    let controlled = run(true);
    assert!(
        controlled > uncontrolled * 1.1,
        "control must preserve throughput: {controlled:.0} vs {uncontrolled:.0} t/s"
    );
}

#[test]
fn baseline_predictors_fit_on_real_engine_metrics() {
    // ARIMA and SVR train directly on simulator-produced metric histories.
    let (topology, _) = build_continuous_queries(&cq_config()).unwrap();
    let placement = even_placement(&topology, &cluster(5)).unwrap();
    let workers: Vec<_> = topology
        .component_by_name("query")
        .unwrap()
        .tasks()
        .map(|t| placement.worker_of(t))
        .collect();
    let mut engine = SimRuntime::new(topology, cluster(5)).unwrap();
    engine
        .inject_fault(streampc::dsdps::sim::Fault::ExternalLoad {
            machine: 0,
            cores: 6.0,
            from_s: 20.0,
            until_s: 40.0,
        })
        .unwrap();
    engine.run_until(80.0);
    let history: Vec<MetricsSnapshot> = engine.history().iter().cloned().collect();
    let refs: Vec<&MetricsSnapshot> = history.iter().collect();

    let mut arima = ArimaPredictor::new(1, 2, 1, 1);
    arima.fit(&refs[..60], &workers).unwrap();
    let mut svr = SvrPredictor::new(1, 8, SvrParams::default());
    svr.fit(&refs[..60], &workers).unwrap();
    for w in &workers {
        let a = arima.predict(&refs, *w).expect("arima predicts");
        let s = svr.predict(&refs, *w).expect("svr predicts");
        assert!(a.is_finite() && a >= 0.0);
        assert!(s.is_finite() && s >= 0.0);
        // Sanity: predictions in the same order of magnitude as reality.
        let actual = history
            .last()
            .unwrap()
            .worker_avg_latency_us(*w)
            .unwrap_or(600.0);
        assert!(a < actual * 20.0 + 5_000.0, "arima {a} vs actual {actual}");
        assert!(s < actual * 20.0 + 5_000.0, "svr {s} vs actual {actual}");
    }
}

#[test]
fn threaded_runtime_runs_url_count_for_real() {
    let _wall_clock = wall_clock_exclusive();
    let cfg = UrlCountConfig {
        pattern: RatePattern::Constant { rate: 1500.0 },
        n_urls: 500,
        window_s: 0.5,
        ..UrlCountConfig::default()
    };
    let (topology, stats) = build_url_count(&cfg).unwrap();
    let mut engine_cfg = cluster(6);
    engine_cfg.metrics_interval_s = 0.25;
    engine_cfg.tick_interval_s = 0.25;
    let rt_cfg = streampc::dsdps::rt::RtConfig::default();
    let running = streampc::dsdps::rt::submit_with(topology, engine_cfg, rt_cfg).unwrap();
    std::thread::sleep(Duration::from_millis(1500));
    let (history, report) = running.run_for(Duration::from_millis(500));
    assert!(
        report.acked > 1000,
        "threaded runtime acked {}",
        report.acked
    );
    assert_eq!(report.failed, 0);
    assert!(history.len() >= 2);
    assert!(stats.counted.load(Ordering::Relaxed) > 1000);
    assert!(
        !stats.reports.lock().is_empty(),
        "windows closed on wall clock"
    );
}

#[test]
fn simulator_is_deterministic_across_full_apps() {
    let run = || {
        let (topology, stats) = build_url_count(&wuc_config()).unwrap();
        let mut engine = SimRuntime::new(topology, cluster(7)).unwrap();
        let report = engine.run_until(15.0);
        (
            report.acked,
            report.spout_emitted,
            stats.counted.load(Ordering::Relaxed),
            engine
                .history()
                .latest()
                .unwrap()
                .topology
                .throughput
                .to_bits(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn facade_reexports_are_usable() {
    assert!(!streampc::VERSION.is_empty());
    let _cfg = streampc::dsdps::config::EngineConfig::default();
    let _loss = streampc::drnn::loss::mse;
    let _order = streampc::forecast::arima::ArimaOrder::new(1, 0, 0);
    let _spec = streampc::control::features::FeatureSpec::full();
    let _pattern = streampc::apps::workload::RatePattern::Constant { rate: 1.0 };
}

#[test]
fn controller_restores_ratio_after_fault_ends() {
    let (topology, _) = build_url_count(&wuc_config()).unwrap();
    let placement = even_placement(&topology, &cluster(8)).unwrap();
    let handle = topology.dynamic_handle("parse", "count").unwrap();
    let fault_worker = {
        let ws: Vec<_> = topology
            .component_by_name("count")
            .unwrap()
            .tasks()
            .map(|t| placement.worker_of(t))
            .collect();
        ws[1]
    };
    let controller = Controller::for_topology(
        &topology,
        &placement,
        ControllerConfig {
            warmup_intervals: 10,
            ..ControllerConfig::default()
        },
        ControlMode::Reactive,
    )
    .unwrap();
    let shared = Arc::new(parking_lot::Mutex::new(controller));

    let mut engine = SimRuntime::new(topology, cluster(8)).unwrap();
    FaultScenario::single_misbehaving_worker(fault_worker.0, 10.0, 20.0, 50.0)
        .apply(&mut engine)
        .unwrap();
    engine.add_control_hook(control_hook(shared.clone()));

    // During the fault: the flagged task holds only the probe share.
    engine.run_until(45.0);
    let during = handle.ratio();
    let min_during = during
        .as_slice()
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_during < 0.05,
        "one task should be reduced to probe traffic: {during:?}"
    );

    // Well after the fault: probe observations confirm recovery and the
    // ratio returns to (near) uniform.
    engine.run_until(90.0);
    let after = handle.ratio();
    let c = shared.lock();
    assert!(
        c.events().iter().any(
            |e| matches!(e, ControlEvent::Recovered { worker, .. } if *worker == fault_worker)
        ),
        "recovery must be detected: {:?}",
        c.events()
    );
    let min_after = after
        .as_slice()
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_after > 0.15,
        "ratio should be restored after recovery: {after:?}"
    );
}

#[test]
fn sim_and_rt_agree_on_url_counts_at_any_batch_size() {
    let _wall_clock = wall_clock_exclusive();
    // Parity check: the same deterministic URL-count topology (spout ->
    // parse x2 shuffle -> count x3 fields-grouped) produces identical
    // per-URL totals on the simulator, the threaded runtime at batch_size 1
    // (unbatched semantics), and the threaded runtime at batch_size 64.
    use std::collections::HashMap;
    use streampc::dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
    use streampc::dsdps::rt::{self, RtConfig};
    use streampc::dsdps::topology::{Topology, TopologyBuilder};
    use streampc::dsdps::tuple::{Fields, Tuple, Value};

    const N: u64 = 3000;

    fn url_for(i: u64) -> String {
        // Deterministic, skewed over 12 distinct URLs.
        format!("url{}", (i.wrapping_mul(2654435761)) % 97 % 12)
    }

    struct SeqUrlSpout {
        next_id: u64,
    }
    impl Spout for SeqUrlSpout {
        fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
            if self.next_id >= N {
                return false;
            }
            self.next_id += 1;
            let t = Tuple::with_fields(
                [Value::from(url_for(self.next_id).as_str())],
                Fields::new(["url"]),
            );
            out.emit_with_id(t, self.next_id);
            true
        }
    }

    struct PassBolt;
    impl Bolt for PassBolt {
        fn execute(&mut self, t: &Tuple, out: &mut BoltOutput) {
            out.emit(t.clone());
        }
    }

    type Counts = Arc<parking_lot::Mutex<HashMap<String, u64>>>;
    struct CountSink {
        counts: Counts,
    }
    impl Bolt for CountSink {
        fn execute(&mut self, t: &Tuple, _o: &mut BoltOutput) {
            let url = t.get(0).unwrap().as_str().unwrap().to_string();
            *self.counts.lock().entry(url).or_insert(0) += 1;
        }
    }

    fn build(counts: Counts) -> Topology {
        let mut b = TopologyBuilder::new("parity-url-count");
        b.set_spout("src", 1, || SeqUrlSpout { next_id: 0 })
            .unwrap()
            .output_fields(Fields::new(["url"]));
        b.set_bolt("parse", 2, || PassBolt)
            .unwrap()
            .output_fields(Fields::new(["url"]))
            .shuffle_grouping("src")
            .unwrap();
        b.set_bolt("count", 3, move || CountSink {
            counts: counts.clone(),
        })
        .unwrap()
        .fields_grouping("parse", &["url"])
        .unwrap();
        b.build().unwrap()
    }

    let expected: HashMap<String, u64> = {
        let mut m = HashMap::new();
        for i in 1..=N {
            *m.entry(url_for(i)).or_insert(0) += 1;
        }
        m
    };

    // Simulator.
    let sim_counts: Counts = Arc::default();
    let mut engine = SimRuntime::new(build(sim_counts.clone()), cluster(11)).unwrap();
    let sim_report = engine.run_until(30.0);
    assert_eq!(sim_report.acked, N, "simulator acks the whole stream");
    assert_eq!(*sim_counts.lock(), expected, "simulator totals");

    // Threaded runtime at both batch sizes.
    for batch_size in [1usize, 64] {
        let rt_counts: Counts = Arc::default();
        let rt_cfg = RtConfig::default().with_batch_size(batch_size);
        let running = rt::submit_with(build(rt_counts.clone()), cluster(12), rt_cfg).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while running.acked() < N && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let (_, report) = running.shutdown();
        assert_eq!(report.acked, N, "batch_size {batch_size}: all trees acked");
        assert_eq!(report.failed, 0, "batch_size {batch_size}");
        assert_eq!(report.timed_out, 0, "batch_size {batch_size}");
        assert_eq!(
            *rt_counts.lock(),
            expected,
            "threaded runtime totals at batch_size {batch_size} match the simulator"
        );
    }
}

#[test]
fn reactive_control_routes_around_slowed_worker_on_threaded_runtime() {
    let _wall_clock = wall_clock_exclusive();
    // Closed loop on the real runtime: a CPU-bound dynamically-grouped stage
    // runs on OS threads while an injected fault slows one worker's tasks
    // 10x mid-run.  The reactive controller, fed by the runtime's metrics
    // hook, must flag the degraded worker and shift the split ratio away
    // from its task.
    use streampc::dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
    use streampc::dsdps::rt::{self, RtConfig, RtFault, RtFaultPlan};
    use streampc::dsdps::topology::{TaskId, TopologyBuilder};
    use streampc::dsdps::tuple::{Tuple, Value};

    struct LoadSpout {
        next_id: u64,
    }
    impl Spout for LoadSpout {
        fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
            self.next_id += 1;
            out.emit_with_id(Tuple::of([Value::from(self.next_id as i64)]), self.next_id);
            true
        }
    }
    struct SpinBolt;
    impl Bolt for SpinBolt {
        fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {
            let until = std::time::Instant::now() + Duration::from_micros(30);
            while std::time::Instant::now() < until {
                std::hint::spin_loop();
            }
        }
    }
    fn build() -> streampc::dsdps::topology::Topology {
        let mut b = TopologyBuilder::new("rt-closed-loop");
        b.set_spout("src", 1, || LoadSpout { next_id: 0 }).unwrap();
        b.set_bolt("work", 3, || SpinBolt)
            .unwrap()
            .dynamic_grouping("src")
            .unwrap();
        b.build().unwrap()
    }

    let mut engine_cfg = EngineConfig::default().with_cluster(2, 2, 4);
    engine_cfg.metrics_interval_s = 0.25;
    engine_cfg.message_timeout_s = 5.0;

    // Placement is deterministic: pick the worker hosting the stage's
    // second task as the fault target before submitting.
    let probe = build();
    let placement = even_placement(&probe, &engine_cfg).unwrap();
    let work_tasks: Vec<TaskId> = probe.component_by_name("work").unwrap().tasks().collect();
    let faulty_idx = 1usize;
    let fault_worker = placement.worker_of(work_tasks[faulty_idx]);
    let plan = RtFaultPlan::new().with(RtFault::WorkerSlowdown {
        worker: fault_worker.0,
        factor: 10.0,
        from_s: 2.0,
        until_s: 30.0,
    });

    let topology = build();
    let handle = topology
        .dynamic_handle("src", "work")
        .expect("dynamic edge");
    let controller = Controller::for_topology(
        &topology,
        &placement,
        ControllerConfig {
            warmup_intervals: 4,
            detector: DetectorConfig {
                trigger_factor: 2.5,
                trigger_consecutive: 2,
                ..DetectorConfig::default()
            },
            ..ControllerConfig::default()
        },
        ControlMode::Reactive,
    )
    .unwrap();
    let shared = Arc::new(parking_lot::Mutex::new(controller));
    let hook = control_hook(shared.clone());

    let running =
        rt::submit_faulty(topology, engine_cfg, RtConfig::default(), plan, Some(hook)).unwrap();
    // Controller decisions land in the run's control-plane journal, so the
    // reroute below is asserted from the report, not from scraped events.
    shared.lock().attach_journal(running.journal());
    std::thread::sleep(Duration::from_secs(7));
    let (_, report) = running.shutdown();

    assert!(
        report.acked > 1000,
        "stream flowed under the fault: {report:?}"
    );
    assert!(report.conservation_holds(), "conservation: {report:?}");
    let c = shared.lock();
    assert!(
        c.events().iter().any(|e| matches!(
            e,
            ControlEvent::Flagged { worker, .. } if *worker == fault_worker
        )),
        "slowed worker must be flagged; events: {:?}",
        c.events()
    );
    assert!(
        c.events()
            .iter()
            .any(|e| matches!(e, ControlEvent::RatioApplied { .. })),
        "controller must re-plan the split"
    );
    let weights = handle.ratio();
    let faulty_weight = weights.as_slice()[faulty_idx];
    assert!(
        faulty_weight < 0.15,
        "traffic routed around the slowed task: ratio {:?}",
        weights.as_slice()
    );

    // The control-plane journal records the same story: the degraded worker
    // was flagged and a routing update dodged its task.
    use streampc::dsdps::telemetry::JournalEvent;
    assert!(
        report.journal.iter().any(|e| matches!(
            e,
            JournalEvent::WorkerFlagged { worker, .. } if *worker == fault_worker.0
        )),
        "journal must record the flagged worker; journal: {:?}",
        report.journal
    );
    assert!(
        report.journal.iter().any(|e| matches!(
            e,
            JournalEvent::RatioApplied { ratio, .. } if ratio[faulty_idx] < 0.15
        )),
        "journal must record the routing update that dodged the slowed task; journal: {:?}",
        report.journal
    );
}

#[test]
fn threaded_runtime_drives_controller_hook() {
    let _wall_clock = wall_clock_exclusive();
    // The controller runs against the threaded runtime's metrics hook too:
    // healthy run, so it observes without flagging anything.
    let cfg = CqConfig {
        pattern: RatePattern::Constant { rate: 1000.0 },
        n_devices: 100,
        n_queries: 10,
        ..CqConfig::default()
    };
    let (topology, _) = build_continuous_queries(&cfg).unwrap();
    let placement = even_placement(&topology, &cluster(9)).unwrap();
    let controller = Controller::for_topology(
        &topology,
        &placement,
        ControllerConfig {
            warmup_intervals: 3,
            ..ControllerConfig::default()
        },
        ControlMode::Reactive,
    )
    .unwrap();
    let shared = Arc::new(parking_lot::Mutex::new(controller));
    let hook = control_hook(shared.clone());

    let mut engine_cfg = cluster(9);
    engine_cfg.metrics_interval_s = 0.25;
    let running = streampc::dsdps::rt::submit_faulty(
        topology,
        engine_cfg,
        streampc::dsdps::rt::RtConfig::default(),
        streampc::dsdps::rt::RtFaultPlan::new(),
        Some(hook),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(1800));
    let (_, report) = running.shutdown();
    assert!(report.acked > 500);
    let c = shared.lock();
    assert!(
        c.history().len() >= 4,
        "controller saw snapshots: {}",
        c.history().len()
    );
    assert!(
        !c.events()
            .iter()
            .any(|e| matches!(e, ControlEvent::Flagged { .. })),
        "healthy run must not flag: {:?}",
        c.events()
    );
}

#[test]
fn sim_calibrates_to_threaded_runtime_under_fault_plan() {
    let _wall_clock = wall_clock_exclusive();
    // Calibration: one `EngineConfig` + one `RtConfig` drive both runtimes
    // over the same finite workload and the same worker-slowdown fault plan
    // (each runtime's fault vocabulary, same parameters).  The simulator
    // must agree exactly on delivered counts and land within a generous
    // band of the threaded runtime's measured complete latency — the
    // agreement that makes controller policies transferable from simulated
    // sweeps to the real engine (DESIGN.md §4).
    use streampc::dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
    use streampc::dsdps::rt::{self, RtConfig, RtFault, RtFaultPlan};
    use streampc::dsdps::sim::Fault;
    use streampc::dsdps::topology::{CostModel, Topology, TopologyBuilder};
    use streampc::dsdps::tuple::{Fields, Tuple, Value};

    const N: u64 = 1500;
    const SPIN_US: f64 = 400.0;

    struct FiniteSpout {
        next_id: u64,
    }
    impl Spout for FiniteSpout {
        fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
            if self.next_id >= N {
                return false;
            }
            self.next_id += 1;
            let t = Tuple::with_fields([Value::from(self.next_id as i64)], Fields::new(["v"]));
            out.emit_with_id(t, self.next_id);
            true
        }
    }

    /// Burns `SPIN_US` of real CPU per tuple — the physical counterpart of
    /// the simulator's `CostModel` for the same component.
    struct SpinBolt;
    impl Bolt for SpinBolt {
        fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {
            let until = std::time::Instant::now() + Duration::from_micros(SPIN_US as u64);
            while std::time::Instant::now() < until {
                std::hint::spin_loop();
            }
        }
    }

    fn build() -> Topology {
        let mut b = TopologyBuilder::new("calibration");
        b.set_spout("src", 1, || FiniteSpout { next_id: 0 })
            .unwrap()
            .output_fields(Fields::new(["v"]))
            .cost(CostModel {
                base_service_time_us: 5.0,
                jitter: 0.0,
            });
        b.set_bolt("work", 2, || SpinBolt)
            .unwrap()
            .shuffle_grouping("src")
            .unwrap()
            .cost(CostModel {
                base_service_time_us: SPIN_US,
                jitter: 0.0,
            });
        b.build().unwrap()
    }

    let mut cfg = EngineConfig::default().with_cluster(2, 1, 4).with_seed(77);
    cfg.max_spout_pending = 16;
    let rt_cfg = RtConfig::default().with_batch_size(4);
    // The shared fault plan: 3x slowdown of worker 0 across most of the run.
    let (worker, factor, from_s, until_s) = (0usize, 3.0, 0.1, 20.0);

    // Simulated runtime.
    let mut engine = SimRuntime::with_rt_config(build(), cfg.clone(), rt_cfg.clone()).unwrap();
    engine
        .inject_fault(Fault::WorkerSlowdown {
            worker,
            factor,
            from_s,
            until_s,
        })
        .unwrap();
    let sim_report = engine.run_until(60.0);
    assert_eq!(sim_report.acked, N, "simulator acks the whole stream");
    assert_eq!(sim_report.failed, 0);
    assert_eq!(sim_report.timed_out, 0);

    // Threaded runtime, same configs, same plan.
    let plan = RtFaultPlan::new().with(RtFault::WorkerSlowdown {
        worker,
        factor,
        from_s,
        until_s,
    });
    let running = rt::submit_faulty(build(), cfg, rt_cfg, plan, None).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while running.acked() < N && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let (_, rt_report) = running.shutdown();
    assert_eq!(rt_report.acked, N, "threaded runtime acks the whole stream");
    assert_eq!(rt_report.failed, 0);
    assert_eq!(rt_report.timed_out, 0);

    // Exact count equality between the runtimes.
    assert_eq!(sim_report.acked, rt_report.acked);
    assert_eq!(sim_report.spout_emitted, rt_report.spout_emitted);

    // Latency-band agreement.  The threaded runtime pays real scheduling,
    // channel and batching overheads the simulator abstracts away (and this
    // CI container has a single core), so the band is wide — the simulator
    // must land within an order of magnitude, not to the millisecond.
    let sim_ms = sim_report.avg_complete_latency_ms.max(1e-6);
    let rt_ms = rt_report.avg_complete_latency_ms.max(1e-6);
    let ratio = rt_ms / sim_ms;
    assert!(
        (1.0 / 12.0..=12.0).contains(&ratio),
        "complete latency disagrees beyond the calibration band: sim {sim_ms:.3} ms, rt {rt_ms:.3} ms, ratio {ratio:.2}"
    );
}
