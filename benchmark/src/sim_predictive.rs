//! `sim_predictive`: the paper's evaluation pipeline as one batch job on
//! the simulator.  Continuous Queries under staggered co-location
//! interference is run monitored → DRNN, ARIMA and SVR are fitted on the
//! first 70 % of its history → one-step walk-forward on the rest → the app
//! runs again with a ×10 misbehaving worker, once uncontrolled and once
//! under `ControlMode::Predictive(drnn)`.  `drnn`, `forecast`, `features`,
//! `predictor` and `controller` do the work; the rt/dist data plane none.
//!
//! A run is the pipeline once at its reference size — the quality figures,
//! the output checks and the per-stage times come from it — and then the
//! same pipeline at its smallest size, with the same seed, back to back
//! until the measured time is used up.  Speed is taken over those units
//! stage by stage (see `live::undisturbed`): one pipeline of several seconds
//! is a single sample, and on a shared host a single sample moves by a
//! third between runs.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use drnn::metrics::mape;
use drnn::optim::OptimizerKind;
use drnn::train::TrainConfig;
use dsdps::config::EngineConfig;
use dsdps::metrics::{LatencyHistogram, MetricsSnapshot};
use dsdps::scheduler::{even_placement, WorkerId};
use dsdps::sim::{Fault, SimRuntime};
use dsdps::topology::Topology;
use forecast::svr::{Kernel, SvrParams};
use stream_apps::continuous_queries::{build_continuous_queries, CqConfig};
use stream_apps::workload::RatePattern;
use stream_control::controller::{ControlEvent, ControlMode, Controller, ControllerConfig};
use stream_control::detector::DetectorConfig;
use stream_control::features::FeatureSpec;
use stream_control::predictor::{
    ArimaPredictor, DrnnPredictor, DrnnPredictorConfig, PerformancePredictor, SvrPredictor,
};

use crate::live::{self, Pass};
use crate::plan::RunCtx;
use crate::proc;
use crate::stats::{cdf_quantile, median};
use crate::trace::Tracer;

const STAGE: &str = "query";
const MACHINES: usize = 4;
const SLOWDOWN: f64 = 10.0;
/// How much of the pipeline one call runs.
#[derive(Clone, Copy)]
struct Size {
    /// Virtual seconds the monitored run collects history for.
    collect_s: f64,
    /// Virtual seconds of each closed-loop arm.
    arm_s: f64,
    /// DRNN training epochs.
    epochs: usize,
}

/// The reference pipeline: the DRNN fit is most of its four to five
/// seconds, and every output check is made on it.
const REFERENCE: Size = Size {
    collect_s: 300.0,
    arm_s: 100.0,
    epochs: 40,
};
/// One unit: the smallest history the predictors accept and arms just long
/// enough for the controller to warm up, flag and recover; about 0.6 s, the
/// DRNN fit being half of it.
const UNIT: Size = Size {
    collect_s: 120.0,
    arm_s: 60.0,
    epochs: 10,
};
/// At least this many units, however short the run.
const MIN_UNITS: usize = 3;
const TRAIN_SHARE: f64 = 0.7;
/// Set-up is rehearsed in this many timed batches…
const SETUP_SAMPLES: usize = 200;
/// …of this many engine constructions each (one takes ~10 µs).
const SETUP_BATCH: usize = 100;
/// The fault covers this part of a closed-loop arm.
const FAULT_FROM: f64 = 0.3;
const FAULT_UNTIL: f64 = 0.7;

pub fn cq_topology(seed: u64) -> Topology {
    let cfg = CqConfig {
        pattern: RatePattern::paper_default(800.0),
        seed,
        query_cost_us: 600.0,
        ..CqConfig::default()
    };
    build_continuous_queries(&cfg).expect("CQ topology").0
}

pub fn cluster(seed: u64) -> EngineConfig {
    EngineConfig::default()
        .with_cluster(MACHINES, 2, 4)
        .with_seed(seed)
}

/// Staggered CPU-hog pulses on every machine: the co-location signal the
/// multilevel features are there to pick up.
fn interference(until_s: f64) -> Vec<Fault> {
    let mut faults = Vec::new();
    for m in 0..MACHINES {
        let period = 40.0 + 7.0 * m as f64;
        let on = 14.0 + 2.0 * m as f64;
        let mut t = 10.0 + 9.0 * m as f64;
        while t + on < until_s {
            faults.push(Fault::ExternalLoad {
                machine: m,
                cores: 6.0 + m as f64,
                from_s: t,
                until_s: t + on,
            });
            t += period;
        }
    }
    faults
}

/// Workers hosting the controlled stage's tasks, sorted.
fn stage_workers(topology: &Topology, config: &EngineConfig) -> Vec<WorkerId> {
    let placement = even_placement(topology, config).expect("placement");
    let stage = topology.component_by_name(STAGE).expect("query stage");
    let mut workers: Vec<WorkerId> = stage.tasks().map(|t| placement.worker_of(t)).collect();
    workers.sort();
    workers.dedup();
    workers
}

/// Runs the app monitored for `seconds` of virtual time under interference.
pub fn collect(seed: u64, seconds: f64) -> (Vec<MetricsSnapshot>, Vec<WorkerId>, u64) {
    let topology = cq_topology(seed);
    let config = cluster(seed);
    let workers = stage_workers(&topology, &config);
    let mut engine = SimRuntime::new(topology, config).expect("engine");
    for fault in interference(seconds) {
        engine.inject_fault(fault).expect("valid fault");
    }
    let report = engine.run_until(seconds);
    (
        engine.history().iter().cloned().collect(),
        workers,
        report.acked,
    )
}

pub fn drnn_config(epochs: usize) -> DrnnPredictorConfig {
    DrnnPredictorConfig {
        features: FeatureSpec::full(),
        lookback: 16,
        horizon: 1,
        hidden: vec![32, 32],
        train: TrainConfig {
            epochs,
            batch_size: 32,
            optimizer: OptimizerKind::adam(3e-3),
            validation_fraction: 0.1,
            // Off, so that the work done does not depend on the seed: with
            // early stopping one seed trains 46 epochs and the next 60, and
            // every time-based metric of this workload moves by a quarter.
            early_stopping: None,
            ..TrainConfig::default()
        },
        ..DrnnPredictorConfig::default()
    }
}

pub fn arima() -> ArimaPredictor {
    ArimaPredictor::new(1, 3, 1, 2)
}

pub fn svr() -> SvrPredictor {
    SvrPredictor::new(
        1,
        12,
        SvrParams {
            c: 10.0,
            epsilon: 0.01,
            kernel: Kernel::Rbf { gamma: 0.25 },
            max_sweeps: 200,
            tol: 1e-5,
        },
    )
}

/// One-step walk-forward MAPE (%) of `model` on `history[test_start..]`,
/// pooled over `workers`.
fn walk_forward_mape(
    model: &dyn PerformancePredictor,
    history: &[MetricsSnapshot],
    workers: &[WorkerId],
    test_start: usize,
) -> f64 {
    let horizon = model.horizon();
    let (mut actuals, mut preds) = (Vec::new(), Vec::new());
    for &worker in workers {
        for t in test_start..history.len().saturating_sub(horizon) {
            let refs: Vec<&MetricsSnapshot> = history[..=t].iter().collect();
            let (Some(pred), Some(actual)) = (
                model.predict(&refs, worker),
                history[t + horizon].worker_avg_latency_us(worker),
            ) else {
                continue;
            };
            actuals.push(actual);
            preds.push(pred);
        }
    }
    mape(&actuals, &preds)
}

/// What one closed-loop arm produced.
struct Arm {
    acked: u64,
    /// Acked/s inside the fault window ÷ acked/s before it.
    goodput_ratio: f64,
    /// Complete latency of trees acked inside the fault window, µs.
    fault_latency: LatencyHistogram,
    events: Vec<ControlEvent>,
    epoch_us: Vec<f64>,
}

fn run_arm(
    seed: u64,
    total_s: f64,
    fault: (f64, f64),
    victim: WorkerId,
    mode: ControlMode,
    tracer: &Option<Arc<Tracer>>,
) -> Arm {
    let topology = cq_topology(seed);
    let config = cluster(seed);
    let placement = even_placement(&topology, &config).expect("placement");
    let warmup = ((0.25 * total_s) as usize).clamp(5, 30);
    let controller_config = ControllerConfig {
        detector: DetectorConfig {
            trigger_factor: 2.5,
            trigger_consecutive: 2,
            recover_factor: 1.4,
            recover_consecutive: 4,
        },
        warmup_intervals: warmup,
        ..ControllerConfig::default()
    };
    let controller = Controller::for_topology(&topology, &placement, controller_config, mode)
        .expect("controller");
    let controller = Arc::new(Mutex::new(controller));
    let epoch_us = Arc::new(Mutex::new(Vec::new()));

    let mut engine = SimRuntime::new(topology, config).expect("engine");
    engine
        .inject_fault(Fault::WorkerSlowdown {
            worker: victim.0,
            factor: SLOWDOWN,
            from_s: fault.0,
            until_s: fault.1,
        })
        .expect("valid fault");
    let (c, e, tr) = (controller.clone(), epoch_us.clone(), tracer.clone());
    engine.add_control_hook(Box::new(move |snapshot| {
        let t0 = Instant::now();
        c.lock().expect("controller poisoned").on_snapshot(snapshot);
        let t1 = Instant::now();
        e.lock()
            .expect("epoch times poisoned")
            .push((t1 - t0).as_secs_f64() * 1e6);
        if let Some(tracer) = &tr {
            tracer.span(
                "controller.epoch",
                "pipeline.arm",
                snapshot.interval,
                t0,
                t1,
                1,
            );
        }
    }));

    engine.run_until(fault.0);
    let before = engine.complete_latency_histogram();
    engine.run_until(fault.1);
    let fault_latency = engine.complete_latency_histogram().diff(&before);
    let report = engine.run_until(total_s);

    let throughput = |from: f64, until: f64| {
        let rows: Vec<f64> = engine
            .history()
            .iter()
            .filter(|s| s.time_s > from && s.time_s <= until)
            .map(|s| s.topology.throughput)
            .collect();
        rows.iter().sum::<f64>() / rows.len().max(1) as f64
    };
    let goodput_ratio = throughput(fault.0, fault.1) / throughput(warmup as f64, fault.0).max(1e-9);
    let events = controller
        .lock()
        .expect("controller poisoned")
        .events()
        .to_vec();
    let epoch_us = epoch_us.lock().expect("epoch times poisoned").clone();
    Arm {
        acked: report.acked,
        goodput_ratio,
        fault_latency,
        events,
        epoch_us,
    }
}

/// What one call of the pipeline produced and how long its stages took.
struct Pipeline {
    /// Wall seconds per stage, in pipeline order.
    stage_s: Vec<(&'static str, f64)>,
    cpu_s: f64,
    /// Trees acked by the three simulations together.
    acked: u64,
    mape: [f64; 3],
    epochs_run: usize,
    victim: WorkerId,
    fault_from_s: f64,
    nocontrol: Arm,
    predictive: Arm,
}

impl Pipeline {
    fn wall_s(&self) -> f64 {
        self.stage_s.iter().map(|s| s.1).sum()
    }

    fn secs(&self, stage: &str) -> f64 {
        self.stage_s
            .iter()
            .find(|s| s.0 == stage)
            .map_or(0.0, |s| s.1)
    }

    /// What must repeat exactly when the seed and the size repeat.
    fn fingerprint(&self) -> (u64, [u64; 3], u64, u64) {
        (
            self.acked,
            self.mape.map(f64::to_bits),
            self.nocontrol.goodput_ratio.to_bits(),
            self.predictive.goodput_ratio.to_bits(),
        )
    }
}

/// Collect, fit the three models, walk forward, run both closed-loop arms.
/// Spans are named `<root>.<stage>` under one `<root>` span.
fn pipeline(
    seed: u64,
    size: Size,
    tracer: &Option<Arc<Tracer>>,
    root: &'static str,
    trace_id: u64,
) -> Pipeline {
    let fault = (
        (size.arm_s * FAULT_FROM).round(),
        (size.arm_s * FAULT_UNTIL).round(),
    );
    let me = std::process::id();
    let mut stage_s: Vec<(&'static str, f64)> = Vec::new();
    let cpu0 = proc::cpu_seconds(me);
    let t_pipeline = Instant::now();
    macro_rules! stage {
        ($name:literal, $body:expr) => {{
            let t0 = Instant::now();
            let out = $body;
            let t1 = Instant::now();
            stage_s.push(($name, (t1 - t0).as_secs_f64()));
            if let Some(tracer) = tracer {
                tracer.span(&format!("{root}.{}", $name), root, trace_id, t0, t1, 0);
            }
            out
        }};
    }

    let (history, workers, collect_acked) = stage!("collect", collect(seed, size.collect_s));
    let train_len = (history.len() as f64 * TRAIN_SHARE) as usize;
    let train: Vec<&MetricsSnapshot> = history[..train_len].iter().collect();

    let mut drnn = DrnnPredictor::new(drnn_config(size.epochs));
    let mut arima = arima();
    let mut svr = svr();
    stage!("fit_drnn", drnn.fit(&train, &workers).expect("DRNN fit"));
    stage!("fit_arima", arima.fit(&train, &workers).expect("ARIMA fit"));
    stage!("fit_svr", svr.fit(&train, &workers).expect("SVR fit"));
    let epochs_run = drnn.last_report().map_or(0, |r| r.epochs_run);

    let mape = stage!("walk_forward", {
        [
            walk_forward_mape(&drnn, &history, &workers, train_len),
            walk_forward_mape(&arima, &history, &workers, train_len),
            walk_forward_mape(&svr, &history, &workers, train_len),
        ]
    });

    // Fault the worker of the stage's second task: with the even scheduler
    // it hosts only that one task, so the signal is clean.
    let victim = workers[1.min(workers.len() - 1)];
    let arm = |mode| run_arm(seed, size.arm_s, fault, victim, mode, tracer);
    let nocontrol = stage!("arm_nocontrol", arm(ControlMode::Monitor));
    let predictive = stage!(
        "arm_predictive",
        arm(ControlMode::Predictive(Box::new(drnn)))
    );
    if let Some(tracer) = tracer {
        tracer.span(root, "", trace_id, t_pipeline, Instant::now(), 0);
    }
    Pipeline {
        stage_s,
        cpu_s: proc::cpu_seconds(me) - cpu0,
        acked: collect_acked + nocontrol.acked + predictive.acked,
        mape,
        epochs_run,
        victim,
        fault_from_s: fault.0,
        nocontrol,
        predictive,
    }
}

pub fn run(ctx: &RunCtx) -> Pass {
    let me = std::process::id();

    let mut setups = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            let engine = SimRuntime::new(cq_topology(ctx.seed), cluster(ctx.seed));
            std::hint::black_box(engine.expect("engine"));
        }
        setups.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }

    // `--quick` has no time for the reference size.
    let reference_size = if ctx.long_enough() { REFERENCE } else { UNIT };
    let t_run = Instant::now();
    let reference = pipeline(ctx.seed, reference_size, &ctx.tracer, "pipeline", ctx.seed);
    let mut units = Vec::new();
    while units.len() < MIN_UNITS || t_run.elapsed().as_secs_f64() < ctx.seconds {
        let id = 1_000_000 + units.len() as u64;
        units.push(pipeline(ctx.seed, UNIT, &ctx.tracer, "unit", id));
    }

    // A unit's undisturbed time is the sum of its stages' undisturbed
    // times: the stages are short (1 to 300 ms) where the unit is not.
    let unit_wall_s: f64 = (0..units[0].stage_s.len())
        .map(|k| {
            let times: Vec<f64> = units.iter().map(|u| u.stage_s[k].1).collect();
            live::undisturbed(&times, false)
        })
        .sum();
    let unit_cpu_s = {
        // CPU seconds are read per unit; scale them to the undisturbed time.
        let per_wall: Vec<f64> = units.iter().map(|u| u.cpu_s / u.wall_s()).collect();
        live::undisturbed(&per_wall, false) * unit_wall_s
    };
    let unit_acked = units[0].acked;

    let predictive = &reference.predictive;
    let nocontrol = &reference.nocontrol;
    let cdf = predictive.fault_latency.cdf_points();
    let mut pass = Pass {
        // One construction, on the fast side of the batches: the rehearsal
        // block as a whole is a single sample of computation, which moves
        // by 15 % between runs.
        setup_s: live::undisturbed(&setups, false),
        setup_once_s: live::undisturbed(&setups, false),
        acked_per_s: unit_acked as f64 / unit_wall_s,
        cpu_us_per_acked: unit_cpu_s * 1e6 / unit_acked.max(1) as f64,
        // Virtual time: simulated complete latency inside the fault window
        // with the predictive controller in the loop.
        latency_p50_ms: cdf_quantile(&cdf, 0.50) / 1e3,
        latency_p95_ms: cdf_quantile(&cdf, 0.95) / 1e3,
        peak_rss_mb: proc::peak_rss_mb(me),
        attempted: reference.acked + unit_acked * units.len() as u64,
        failed: 0,
        ..Pass::default()
    };

    let [drnn_mape, arima_mape, svr_mape] = reference.mape;
    pass.check(
        "sim_predictive: every model produced predictions",
        drnn_mape > 0.0 && arima_mape > 0.0 && svr_mape > 0.0,
    );
    pass.check(
        "sim_predictive: every unit of the same seed gives identical results",
        units
            .iter()
            .all(|u| u.fingerprint() == units[0].fingerprint()),
    );
    if ctx.long_enough() {
        pass.check(
            format!("sim_predictive: DRNN MAPE {drnn_mape:.2} < ARIMA {arima_mape:.2} and SVR {svr_mape:.2}"),
            drnn_mape < arima_mape && drnn_mape < svr_mape,
        );
        pass.check(
            format!(
                "sim_predictive: predictive goodput {:.3} >= no-control {:.3}",
                predictive.goodput_ratio, nocontrol.goodput_ratio
            ),
            predictive.goodput_ratio >= nocontrol.goodput_ratio,
        );
    }

    let victim = reference.victim;
    let flags = |arm: &Arm| {
        arm.events
            .iter()
            .filter(|e| matches!(e, ControlEvent::Flagged { .. }))
            .count()
    };
    let false_flags = predictive
        .events
        .iter()
        .filter(|e| matches!(e, ControlEvent::Flagged { worker, .. } if *worker != victim))
        .count();
    let ratio_updates: Vec<u64> = predictive
        .events
        .iter()
        .filter_map(|e| match e {
            ControlEvent::RatioApplied { interval, .. } => Some(*interval),
            _ => None,
        })
        .collect();
    // Interval k ends at virtual second k + 1; that is when its epoch runs.
    let reroute_ms = ratio_updates
        .iter()
        .map(|i| (*i + 1) as f64)
        .find(|t| *t >= reference.fault_from_s)
        .map_or(0.0, |t| (t - reference.fault_from_s) * 1e3);

    // Per-layer figures are the reference pipeline's.
    let secs = |stage| reference.secs(stage);
    pass.put("pipeline_wall_s", reference.wall_s());
    pass.put("drnn_mape_pct", drnn_mape);
    pass.put("forecast.arima_mape_pct", arima_mape);
    pass.put("forecast.svr_mape_pct", svr_mape);
    pass.put("fault_goodput_ratio", predictive.goodput_ratio);
    pass.put("nocontrol_goodput_ratio", nocontrol.goodput_ratio);
    pass.put("drnn.fit_s", secs("fit_drnn"));
    pass.put("drnn.epochs_run", reference.epochs_run as f64);
    pass.put(
        "drnn.epoch_ms",
        secs("fit_drnn") * 1e3 / reference.epochs_run.max(1) as f64,
    );
    pass.put("forecast.arima_fit_ms", secs("fit_arima") * 1e3);
    pass.put("forecast.svr_fit_ms", secs("fit_svr") * 1e3);
    pass.put("sim.collect_wall_s", secs("collect"));
    let sim_wall = secs("collect") + secs("arm_nocontrol") + secs("arm_predictive");
    pass.put("sim.wall_s", sim_wall);
    pass.put(
        "sim.virtual_s_per_wall_s",
        (reference_size.collect_s + 2.0 * reference_size.arm_s) / sim_wall,
    );
    pass.put("sim.acked", reference.acked as f64);
    pass.put("controller.epoch_us", median(&predictive.epoch_us));
    pass.put("controller.reroute_delay_ms", reroute_ms);
    pass.put("controller.ratio_updates", ratio_updates.len() as f64);
    pass.put("controller.flag_events", flags(predictive) as f64);
    pass.put("controller.false_flags", false_flags as f64);
    pass.put(
        "controller.fault_latency_p99_ms",
        cdf_quantile(&cdf, 0.99) / 1e3,
    );
    pass
}
