//! `rt-reliability`: closed-loop reliability on the *threaded* runtime.
//!
//! The other reliability experiments run on the simulator; this one drives
//! the real thing.  A CPU-bound dynamically-grouped stage runs on OS threads
//! under an injected chaos plan — a scheduled bolt panic plus a 10× slowdown
//! of one worker mid-run (the paper's misbehaving-worker disturbance, via
//! [`FaultScenario::rt_plan_with`]) — with task supervision and end-to-end
//! replay enabled.  Two regimes are compared: no control, and the reactive
//! controller closing the loop over the runtime's metrics hook.  The output
//! table records delivery, fault-tolerance counters (panics, restarts,
//! replays, permanent failures), whether the tuple-conservation invariant
//! held, and whether the controller flagged and routed around the degraded
//! worker.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
use dsdps::config::EngineConfig;
use dsdps::rt::{self, RtConfig, RtFault};
use dsdps::scheduler::even_placement;
use dsdps::telemetry;
use dsdps::topology::{TaskId, Topology, TopologyBuilder};
use dsdps::tuple::{Tuple, Value};
use parking_lot::Mutex;
use stream_apps::faults::FaultScenario;
use stream_control::controller::{
    control_hook, ControlEvent, ControlMode, Controller, ControllerConfig,
};
use stream_control::detector::DetectorConfig;

use super::{Ctx, ExpResult};
use crate::table::{f2, Table};

/// Busy-work per tuple in the worker stage, µs.
const SPIN_US: u64 = 30;

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
        let until = Instant::now() + Duration::from_micros(SPIN_US);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }
}

fn build() -> Topology {
    let mut b = TopologyBuilder::new("rt-reliability");
    b.set_spout("src", 1, || LoadSpout { next_id: 0 }).unwrap();
    b.set_bolt("work", 3, || SpinBolt)
        .unwrap()
        .dynamic_grouping("src")
        .unwrap();
    b.build().unwrap()
}

struct Timing {
    total_s: f64,
    fault: (f64, f64),
    panic_at_s: f64,
}

fn timing(ctx: &Ctx) -> Timing {
    if ctx.quick {
        Timing {
            total_s: 10.0,
            fault: (3.0, 8.0),
            panic_at_s: 1.5,
        }
    } else {
        Timing {
            total_s: 20.0,
            fault: (5.0, 15.0),
            panic_at_s: 2.0,
        }
    }
}

fn engine_config() -> EngineConfig {
    let mut cfg = EngineConfig::default().with_cluster(2, 2, 4);
    cfg.metrics_interval_s = 0.25;
    cfg.message_timeout_s = 3.0;
    cfg
}

fn rt_config() -> RtConfig {
    RtConfig::default()
        .with_max_restarts(4)
        .with_hang_timeout(Duration::from_secs(2))
        .with_max_replays(3)
        .with_replay_backoff(Duration::from_millis(50))
        .with_trace_sample_rate(0.05)
}

/// `rt-reliability`.
pub fn rt_reliability(ctx: &Ctx) -> ExpResult {
    let t = timing(ctx);
    let cfg = engine_config();

    // Placement is deterministic, so target selection can happen up front:
    // slow down the worker hosting the stage's second task, panic the first.
    let probe = build();
    let placement = even_placement(&probe, &cfg)?;
    let work_tasks: Vec<TaskId> = probe
        .component_by_name("work")
        .expect("work stage")
        .tasks()
        .collect();
    let fault_worker = placement.worker_of(work_tasks[1]);
    let panic_task = work_tasks[0].0;

    let scenario =
        FaultScenario::single_misbehaving_worker(fault_worker.0, 10.0, t.fault.0, t.fault.1);
    let plan = scenario.rt_plan_with([RtFault::TaskPanic {
        task: panic_task,
        at_s: t.panic_at_s,
    }]);

    let mut table = Table::new(
        &format!(
            "rt-reliability: threaded runtime under chaos ({}; panic task {} at {}s, 10x slowdown of {} in [{}, {}) s)",
            scenario.name, panic_task, t.panic_at_s, fault_worker, t.fault.0, t.fault.1
        ),
        &[
            "regime",
            "acked",
            "thr_t/s",
            "avg_lat_ms",
            "p99_lat_ms",
            "panics",
            "restarts",
            "replays",
            "perm_failed",
            "conserved",
            "flagged",
        ],
    );

    for reactive in [false, true] {
        let topology = build();
        let controller = Controller::for_topology(
            &topology,
            &placement,
            ControllerConfig {
                warmup_intervals: 6,
                detector: DetectorConfig {
                    trigger_factor: 2.5,
                    trigger_consecutive: 2,
                    ..DetectorConfig::default()
                },
                ..ControllerConfig::default()
            },
            if reactive {
                ControlMode::Reactive
            } else {
                ControlMode::Monitor
            },
        )?;
        let shared = Arc::new(Mutex::new(controller));
        let hook = control_hook(shared.clone());
        let running =
            rt::submit_faulty(topology, cfg.clone(), rt_config(), plan.clone(), Some(hook))?;
        // The controller appends its flag/recover/reroute decisions to the
        // run's control-plane journal, cross-referencable with the sampled
        // trace via shared trace ids.
        shared.lock().attach_journal(running.journal());
        std::thread::sleep(Duration::from_secs_f64(t.total_s));
        let (_, report) = running.shutdown();

        if reactive {
            std::fs::create_dir_all(&ctx.out_dir)?;
            telemetry::journal::write_events_jsonl(
                &ctx.out_dir.join("rt-reliability-journal.jsonl"),
                &report.journal,
            )?;
            std::fs::write(
                ctx.out_dir.join("rt-reliability-trace.json"),
                report.chrome_trace_json(),
            )?;
            telemetry::write_spans_jsonl(
                &ctx.out_dir.join("rt-reliability-spans.jsonl"),
                &report.spans,
            )?;
        }

        let flagged = shared
            .lock()
            .events()
            .iter()
            .filter(|e| matches!(e, ControlEvent::Flagged { .. }))
            .count();
        table.row(&[
            if reactive { "reactive" } else { "no-control" }.into(),
            report.acked.to_string(),
            f2(report.acked as f64 / report.uptime_s.max(1e-9)),
            f2(report.avg_complete_latency_ms),
            f2(report.p99_complete_latency_ms),
            report.task_panics.to_string(),
            report.task_restarts.to_string(),
            report.replays_emitted.to_string(),
            report.permanently_failed.to_string(),
            if report.conservation_holds() {
                "yes"
            } else {
                "NO"
            }
            .into(),
            flagged.to_string(),
        ]);
    }
    table.save_and_print(&ctx.out_dir, "rt-reliability")?;
    Ok(())
}
