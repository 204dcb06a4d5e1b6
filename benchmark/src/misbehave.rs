//! `rt_misbehave`: the paper's headline on real threads.
//! `gen → work×3 (dynamic grouping, 30 µs spin) → sink×1` on a 2×2×4
//! cluster, open loop at a fixed rate, with a ×10 slowdown of the worker
//! hosting one `work` task during the middle of the window.  A reactive
//! `stream_control::Controller` on the metrics hook (0.25 s epochs) must
//! detect the worker, plan a new split and push it to the live dynamic
//! grouping.  Control loop and grouping do the work; raw data-plane speed
//! barely matters at this rate.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsdps::config::EngineConfig;
use dsdps::rt::{self, MetricsHook, RtConfig, RtFault, RtFaultPlan, RunningTopology};
use dsdps::scheduler::{even_placement, WorkerId};
use dsdps::telemetry::JournalEvent;
use dsdps::topology::{Topology, TopologyBuilder};
use stream_control::controller::{ControlMode, Controller, ControllerConfig};
use stream_control::detector::DetectorConfig;

use crate::gen::{GenConfig, GenShared, GenSpout, Keys, Pace, IDLE, WARMUP};
use crate::live::{self, Pass, WARMUP_S};
use crate::plan::{RunCtx, RT_MISBEHAVE_RATE};
use crate::stats::median;
use crate::trace::Tracer;
use crate::wrap::{Probes, Sink, Spin, Timed};

const SPIN: Duration = Duration::from_micros(30);
const SLOWDOWN: f64 = 10.0;
const METRICS_INTERVAL_S: f64 = 0.25;
/// The fault covers this part of the measured window; what precedes it is
/// the pre-fault reference for goodput.
const FAULT_FROM: f64 = 0.3;
const FAULT_UNTIL: f64 = 0.8;
/// End-to-end latency is taken from the fault window minus this head (at
/// most a fifth of it): while the controller is still detecting, the
/// spinning victim disturbs about a tenth of the window's tuples, which
/// would put p95 on the edge of that tail and make it flip between runs.
/// The head is still reported, as `controller.fault_latency_p99_ms` over
/// the whole fault window and `controller.reroute_delay_ms`.
const REROUTE_GRACE_S: f64 = 1.0;

fn build(
    gen: Arc<GenShared>,
    probes: Arc<Probes>,
    seed: u64,
    fault: (f64, f64),
    tracer: Option<Arc<Tracer>>,
) -> Topology {
    let mut b = TopologyBuilder::new("misbehave");
    b.set_spout("gen", 1, move || {
        GenSpout::new(
            gen.clone(),
            GenConfig {
                pace: Pace::Open {
                    rate: RT_MISBEHAVE_RATE,
                },
                keys: Keys::sensors(seed),
                fields: None,
                fault: Some(fault),
                tracer: tracer.clone(),
            },
        )
    })
    .expect("gen");
    let p = probes.clone();
    b.set_bolt("work", 3, move || Timed::new(Spin(SPIN), p.clone()))
        .expect("work")
        .dynamic_grouping("gen")
        .expect("work grouping");
    b.set_bolt("sink", 1, move || Timed::new(Sink, probes.clone()))
        .expect("sink")
        .shuffle_grouping("work")
        .expect("sink grouping");
    b.build().expect("misbehave topology")
}

fn engine() -> EngineConfig {
    let mut cfg = live::engine();
    cfg.metrics_interval_s = METRICS_INTERVAL_S;
    cfg
}

fn controller_config() -> ControllerConfig {
    ControllerConfig {
        warmup_intervals: 6,
        detector: DetectorConfig {
            trigger_factor: 2.5,
            trigger_consecutive: 2,
            ..DetectorConfig::default()
        },
        ..ControllerConfig::default()
    }
}

/// Wall time of every control epoch, µs.
type EpochTimes = Arc<Mutex<Vec<f64>>>;

/// The metrics hook: one `Controller::on_snapshot` per epoch, timed from
/// outside (and recorded as a `controller.epoch` span in the traced pass).
fn timed_hook(
    controller: Arc<Mutex<Controller>>,
    epochs: EpochTimes,
    tracer: Option<Arc<Tracer>>,
) -> MetricsHook {
    Box::new(move |snapshot| {
        let t0 = Instant::now();
        controller
            .lock()
            .expect("controller poisoned")
            .on_snapshot(snapshot);
        let t1 = Instant::now();
        epochs
            .lock()
            .expect("epoch times poisoned")
            .push((t1 - t0).as_secs_f64() * 1e6);
        if let Some(tracer) = &tracer {
            tracer.span("controller.epoch", "", snapshot.interval, t0, t1, 100);
        }
    })
}

/// Index, within `work`, of the task whose worker is slowed.
const VICTIM_INDEX: usize = 1;

/// A started run: the topology with its fault plan and controller attached.
struct Launched {
    running: RunningTopology,
    epochs: EpochTimes,
    /// The slowed worker.
    victim: WorkerId,
    /// Start of the fault on the runtime clock (seconds since submit).
    fault_from_s: f64,
}

/// Everything between "nothing" and "the topology runs under control":
/// build, placement, fault plan, controller, submit.  This is what
/// `setup_s` times.
fn launch(
    ctx: &RunCtx,
    gen: Arc<GenShared>,
    probes: Arc<Probes>,
    tracer: Option<Arc<Tracer>>,
) -> Launched {
    let fault = fault_window(ctx);
    let topo = build(gen, probes, ctx.seed, fault, tracer.clone());
    // Placement is deterministic, so the victim is known before submit: the
    // worker hosting the second `work` task, which hosts nothing else.
    let placement = even_placement(&topo, &engine()).expect("placement");
    let work = topo.component_by_name("work").expect("work stage");
    let victim_task = work.tasks().nth(VICTIM_INDEX).expect("three work tasks");
    let victim = placement.worker_of(victim_task);
    // Fault times are on the runtime clock, which starts at submit; the
    // measured window starts WARMUP_S after it.
    let (from_s, until_s) = (WARMUP_S + fault.0, WARMUP_S + fault.1);
    let plan = RtFaultPlan::new().with(RtFault::WorkerSlowdown {
        worker: victim.0,
        factor: SLOWDOWN,
        from_s,
        until_s,
    });
    let controller = Controller::for_topology(
        &topo,
        &placement,
        controller_config(),
        ControlMode::Reactive,
    )
    .expect("controller");
    let controller = Arc::new(Mutex::new(controller));
    let epochs: EpochTimes = Arc::default();
    let hook = timed_hook(controller.clone(), epochs.clone(), tracer);
    let running =
        rt::submit_faulty(topo, engine(), RtConfig::default(), plan, Some(hook)).expect("submit");
    controller
        .lock()
        .expect("controller poisoned")
        .attach_journal(running.journal());
    Launched {
        running,
        epochs,
        victim,
        fault_from_s: from_s,
    }
}

/// The fault's offsets inside the measured window, seconds.
fn fault_window(ctx: &RunCtx) -> (f64, f64) {
    (ctx.seconds * FAULT_FROM, ctx.seconds * FAULT_UNTIL)
}

pub fn run(ctx: &RunCtx) -> Pass {
    let mut setups = live::rehearse_setup(
        ctx.setup_reps,
        || launch(ctx, GenShared::new(IDLE), Probes::for_run(None), None),
        |launched| drop(launched.running.shutdown()),
    );

    let gen = GenShared::new(WARMUP);
    let probes = Probes::for_run(ctx.tracer.clone());
    let t_submit = Instant::now();
    let Launched {
        running,
        epochs,
        victim,
        fault_from_s: from_s,
    } = launch(ctx, gen.clone(), probes.clone(), ctx.tracer.clone());
    setups.push(t_submit.elapsed().as_secs_f64());
    let fault = fault_window(ctx);

    let me = std::process::id();
    let driven = live::drive(
        &gen,
        &probes,
        t_submit,
        ctx.seconds,
        (0.0, ctx.seconds),
        &|| vec![me],
        &|| true,
    );
    let (history, report) = running.shutdown();
    let res = gen.take_result();

    let mut pass = Pass {
        attempted: report.tracked,
        failed: report.permanently_failed + report.in_flight,
        ..Pass::default()
    };
    live::fill_setup(&mut pass, ctx.started, &setups, &driven);
    // Latency is the rerouted fault window's: where the controller earns it.
    let grace = REROUTE_GRACE_S.min(0.2 * (fault.1 - fault.0));
    live::fill_end_to_end(&mut pass, &res, &driven, (fault.0 + grace, fault.1), None);

    // What the control plane did, from the run's journal.
    let mut flagged_victim = false;
    let mut false_flags = 0u64;
    let mut flag_events = 0u64;
    let mut ratio_updates = 0u64;
    let mut reroute_at: Option<f64> = None;
    let uniform_share = 1.0 / 3.0;
    for event in &report.journal {
        match event {
            JournalEvent::WorkerFlagged { worker, .. } => {
                flag_events += 1;
                if *worker == victim.0 {
                    flagged_victim = true;
                } else {
                    false_flags += 1;
                }
            }
            JournalEvent::RatioApplied { time_s, ratio, .. } => {
                ratio_updates += 1;
                let cut = ratio
                    .get(VICTIM_INDEX)
                    .is_some_and(|r| *r < 0.5 * uniform_share);
                if cut && *time_s >= from_s && reroute_at.is_none() {
                    reroute_at = Some(*time_s);
                }
            }
            _ => {}
        }
    }
    let goodput =
        live::ack_rate(&res, fault.0, fault.1) / live::ack_rate(&res, 0.0, fault.0).max(1e-9);

    pass.check("rt_misbehave: drained before shutdown", driven.drained);
    pass.check(
        "rt_misbehave: ack conservation",
        report.conservation_holds(),
    );
    pass.check(
        "rt_misbehave: credit conservation",
        report.credit_conservation_holds(),
    );
    pass.check(
        "rt_misbehave: acked == emitted after drain",
        report.acked == report.spout_emitted,
    );
    if ctx.long_enough() {
        pass.check(
            "rt_misbehave: the slowed worker was flagged",
            flagged_victim,
        );
        pass.check(
            "rt_misbehave: the slowed worker's ratio was cut",
            reroute_at.is_some(),
        );
    }

    pass.put("fault_goodput_ratio", goodput);
    pass.put(
        "controller.epoch_us",
        median(&epochs.lock().expect("epoch times poisoned")),
    );
    pass.put(
        "controller.reroute_delay_ms",
        reroute_at.map_or(0.0, |t| (t - from_s) * 1e3),
    );
    pass.put("controller.ratio_updates", ratio_updates as f64);
    pass.put("controller.flag_events", flag_events as f64);
    pass.put("controller.false_flags", false_flags as f64);
    pass.put(
        "controller.fault_latency_p99_ms",
        res.latency_fault.quantile_ms(0.99),
    );
    live::put_gen_layers(&mut pass, &res, &driven);
    live::put_rt_report_layers(&mut pass, &report, &history);
    if ctx.traced() {
        live::put_stage_layers(&mut pass, &driven.stages, &res, &driven);
    }
    pass
}
