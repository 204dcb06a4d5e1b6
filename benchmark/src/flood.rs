//! `rt_flood` and `dist_flood`: the same
//! `gen×1 → relay×2 (shuffle) → sink×2 (shuffle)` topology with the mixed
//! 4-value payload at batch 64, on threads and on two worker processes.
//! The generator probes it open-loop at a fixed rate for the first part of
//! the window (latency, CPU cost) and then floods it closed-loop
//! (throughput).  A codec or transport change must move the second workload
//! and not the first.

use std::sync::Arc;
use std::time::Instant;

use dsdps::config::EngineConfig;
use dsdps::dist::{self, DistConfig, TopologyRegistry};
use dsdps::error::Result;
use dsdps::rt::{self, RtConfig};
use dsdps::telemetry::{Span, SpanKind};
use dsdps::topology::{Topology, TopologyBuilder};

use crate::gen::{GenConfig, GenShared, GenSpout, Keys, Pace, IDLE, WARMUP};
use crate::live::{self, Pass};
use crate::plan::{
    RunCtx, DIST_FLOOD_PROBE_RATE, FLOOD_OPEN_SHARE, FLOOD_SETTLE_S, RT_FLOOD_PROBE_RATE,
};
use crate::trace::{SpanRec, Tracer, SAMPLE_EVERY};
use crate::wrap::{collect_dumps, Probes, Relay, Sink, StageRow, Timed};

const BATCH: usize = 64;
/// In-flight cap of `rt_flood`.  `dist_flood` runs at the common 4096: deep
/// enough that batching, not the gate, limits its flood (throughput is the
/// same at 16384), shallow enough that peak memory does not follow how far
/// the queues happened to fill (at 16384 its peak moves by 14 % between
/// runs, at 4096 by 3 %).  At 4096 `rt_flood` settles at 1.1 or at 1.3 M
/// tuples/s from run to run; at 16384 it stays within 6–9 %.
const RT_MAX_PENDING: usize = 16 * 1024;
const DIST_WORKERS: usize = 2;
const DIST_CREDIT_WINDOW: usize = 32;

/// What the generator of one flood run needs to know.
#[derive(Clone)]
pub struct FloodGen {
    pub shared: Arc<GenShared>,
    pub seed: u64,
    pub seconds: f64,
    pub probe_rate: f64,
    pub tracer: Option<Arc<Tracer>>,
}

impl FloodGen {
    fn new(
        ctx: &RunCtx,
        shared: Arc<GenShared>,
        probe_rate: f64,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        FloodGen {
            shared,
            seed: ctx.seed,
            seconds: ctx.seconds,
            probe_rate,
            tracer,
        }
    }

    /// Seconds of open loop at the head of the window.
    fn open_s(&self) -> f64 {
        self.seconds * FLOOD_OPEN_SHARE
    }
}

fn rt_engine() -> EngineConfig {
    let mut cfg = live::engine();
    cfg.max_spout_pending = RT_MAX_PENDING;
    cfg
}

fn build(g: FloodGen, probes: Arc<Probes>) -> Result<Topology> {
    let mut b = TopologyBuilder::new("flood");
    b.set_spout("gen", 1, move || {
        GenSpout::new(
            g.shared.clone(),
            GenConfig {
                pace: Pace::OpenThenClosed {
                    open_s: g.open_s(),
                    rate: g.probe_rate,
                },
                keys: Keys::sensors(g.seed),
                fields: None,
                fault: None,
                tracer: g.tracer.clone(),
            },
        )
    })?;
    let p = probes.clone();
    b.set_bolt("relay", 2, move || Timed::new(Relay, p.clone()))?
        .shuffle_grouping("gen")?;
    b.set_bolt("sink", 2, move || Timed::new(Sink, probes.clone()))?
        .shuffle_grouping("relay")?;
    b.build()
}

/// The registry both the coordinator and the re-exec'd workers resolve
/// `"flood"` through.  `args` is empty on end-to-end runs and the dump
/// directory on the traced pass, which switches the workers' wrappers to
/// timing mode.
pub fn registry(g: FloodGen) -> TopologyRegistry {
    let mut r = TopologyRegistry::new();
    r.register("flood", move |args| {
        let probes = Arc::new(Probes {
            timing: !args.is_empty(),
            dump_dir: (!args.is_empty()).then(|| args.into()),
            ..Probes::default()
        });
        build(g.clone(), probes)
    });
    r
}

/// The open-loop probe phase (latency, CPU cost) and the part of the
/// closed-loop phase throughput is taken from.
fn phases(ctx: &RunCtx) -> ((f64, f64), (f64, f64)) {
    let open_s = ctx.seconds * FLOOD_OPEN_SHARE;
    let settle = FLOOD_SETTLE_S.min(0.2 * (ctx.seconds - open_s));
    ((0.0, open_s), (open_s + settle, ctx.seconds))
}

pub fn run_rt(ctx: &RunCtx) -> Pass {
    let rt_cfg = RtConfig::default().with_batch_size(BATCH);
    let flood_gen = |shared, tracer| FloodGen::new(ctx, shared, RT_FLOOD_PROBE_RATE, tracer);
    let mut setups = live::rehearse_setup(
        ctx.setup_reps,
        || {
            let idle = flood_gen(GenShared::new(IDLE), None);
            let topo = build(idle, Probes::for_run(None)).expect("topology");
            rt::submit_with(topo, rt_engine(), rt_cfg.clone()).expect("submit")
        },
        |running| drop(running.shutdown()),
    );

    let gen = GenShared::new(WARMUP);
    let probes = Probes::for_run(ctx.tracer.clone());
    let t_submit = Instant::now();
    let g = flood_gen(gen.clone(), ctx.tracer.clone());
    let topo = build(g, probes.clone()).expect("topology");
    let running = rt::submit_with(topo, rt_engine(), rt_cfg).expect("submit");
    setups.push(t_submit.elapsed().as_secs_f64());

    // CPU is accounted over the flood: with every thread busy its cost per
    // tuple does not depend on which threads share a core, which at the
    // probe rate moves it by a quarter between runs.
    let (probe, flood) = phases(ctx);
    let me = std::process::id();
    let pids = || vec![me];
    let driven = live::drive(&gen, &probes, t_submit, ctx.seconds, flood, &pids, &|| {
        true
    });
    let (history, report) = running.shutdown();
    let res = gen.take_result();

    let mut pass = Pass {
        attempted: report.tracked,
        failed: report.permanently_failed + report.in_flight,
        ..Pass::default()
    };
    live::fill_setup(&mut pass, ctx.started, &setups, &driven);
    live::fill_end_to_end(&mut pass, &res, &driven, probe, Some(flood));
    pass.check("rt_flood: drained before shutdown", driven.drained);
    pass.check("rt_flood: ack conservation", report.conservation_holds());
    pass.check(
        "rt_flood: credit conservation",
        report.credit_conservation_holds(),
    );
    pass.check(
        "rt_flood: acked == emitted",
        report.acked == report.spout_emitted,
    );
    pass.check(
        "rt_flood: generator saw every ack",
        report.acked == gen.acked.load(std::sync::atomic::Ordering::SeqCst),
    );
    live::put_gen_layers(&mut pass, &res, &driven);
    live::put_rt_report_layers(&mut pass, &report, &history);
    if ctx.traced() {
        let user_us = live::put_stage_layers(&mut pass, &driven.stages, &res, &driven);
        pass.put("budget.user_us", user_us);
    }
    pass
}

pub fn run_dist(ctx: &RunCtx) -> Pass {
    let rt_cfg = || {
        let cfg = RtConfig::default()
            .with_batch_size(BATCH)
            .with_credit_flow(DIST_CREDIT_WINDOW);
        if ctx.traced() {
            cfg.with_trace_sample_rate(1.0 / SAMPLE_EVERY as f64)
        } else {
            cfg
        }
    };
    let fleet = || DistConfig::new(DIST_WORKERS, dist::self_worker_cmd());
    let dump_dir = ctx.out_dir.join("dumps");
    let args = if ctx.traced() {
        dump_dir.to_string_lossy().into_owned()
    } else {
        String::new()
    };

    let flood_gen = |shared, tracer| FloodGen::new(ctx, shared, DIST_FLOOD_PROBE_RATE, tracer);
    let mut setups = live::rehearse_setup(
        ctx.setup_reps,
        || {
            let reg = registry(flood_gen(GenShared::new(IDLE), None));
            dist::submit(&reg, "flood", "", live::engine(), rt_cfg(), fleet()).expect("submit")
        },
        |running| drop(running.shutdown()),
    );

    let gen = GenShared::new(WARMUP);
    let t_submit = Instant::now();
    let reg = registry(flood_gen(gen.clone(), ctx.tracer.clone()));
    let running = dist::submit(&reg, "flood", &args, live::engine(), rt_cfg(), fleet()).expect("submit");
    setups.push(t_submit.elapsed().as_secs_f64());

    let me = std::process::id();
    let pids = || {
        let mut p = vec![me];
        p.extend(running.worker_pids());
        p
    };
    // CPU is accounted over the probe phase: flooded, three processes on
    // two cores settle into one of two regimes whose costs differ twofold.
    let (probe, flood) = phases(ctx);
    let no_probes = Probes::default();
    let settled = || running.pending_trees() == 0;
    let driven = live::drive(
        &gen,
        &no_probes,
        t_submit,
        ctx.seconds,
        probe,
        &pids,
        &settled,
    );
    let report = running.shutdown();
    let res = gen.take_result();

    let mut pass = Pass {
        attempted: report.tracked,
        failed: report.permanently_failed + report.in_flight,
        ..Pass::default()
    };
    live::fill_setup(&mut pass, ctx.started, &setups, &driven);
    live::fill_end_to_end(&mut pass, &res, &driven, probe, Some(flood));
    pass.check("dist_flood: drained before shutdown", driven.drained);
    pass.check("dist_flood: clean drain at shutdown", report.drained_clean);
    pass.check("dist_flood: ack conservation", report.conservation_holds());
    pass.check(
        "dist_flood: credit conservation",
        report.credit_conservation_holds(),
    );
    pass.check(
        "dist_flood: acked == emitted",
        report.acked == report.spout_emitted,
    );
    pass.check(
        "dist_flood: no worker restarts",
        report.worker_restarts == 0,
    );

    live::put_gen_layers(&mut pass, &res, &driven);
    let acked = report.acked.max(1) as f64;
    pass.put("rt.complete_latency_avg_ms", report.avg_complete_latency_ms);
    pass.put("rt.replays", report.replays_emitted as f64);
    pass.put("rt.timed_out", report.timed_out as f64);
    pass.put(
        "credit.outstanding_at_end",
        report.credits.outstanding as f64,
    );
    pass.put(
        "dist.bytes_per_acked",
        (report.bytes_sent + report.bytes_received) as f64 / acked,
    );
    pass.put(
        "dist.frames_per_acked",
        (report.frames_sent + report.frames_received) as f64 / acked,
    );
    // Each tree crosses coordinator → worker twice (to relay, to sink).
    pass.put(
        "dist.tuples_per_frame",
        2.0 * acked / report.frames_sent.max(1) as f64,
    );
    let total_cpu: f64 = driven.cpu_by_pid.iter().map(|p| p.1).sum::<f64>().max(1e-9);
    let coord_cpu = driven.cpu_by_pid.first().map_or(0.0, |p| p.1);
    pass.put("dist.coord_cpu_share", coord_cpu / total_cpu);
    pass.put("dist.worker_cpu_share", 1.0 - coord_cpu / total_cpu);
    pass.put("dist.worker_spawn_ms", pass.setup_once_s * 1e3);

    if let Some(tracer) = &ctx.tracer {
        // Worker-side wrapper totals cover the whole run; scale them to the
        // share of trees acked inside the window.
        let accounted: u64 = driven.samples.iter().map(|s| s.acked).sum();
        let share = accounted as f64 / acked;
        let stages: Vec<StageRow> = collect_dumps(&dump_dir)
            .into_iter()
            .map(|(c, t, execs, busy)| {
                (
                    c,
                    t,
                    (execs as f64 * share) as u64,
                    (busy as f64 * share) as u64,
                )
            })
            .collect();
        let _ = std::fs::remove_dir(&dump_dir);
        pass.check("dist_flood: worker wrapper dumps found", stages.len() == 4);
        let user_us = live::put_stage_layers(&mut pass, &stages, &res, &driven);
        pass.put("budget.user_us", user_us);
        ingest_runtime_spans(tracer, &report.spans, t_submit);
    }
    pass
}

/// Adds the runtime's own sampled span log (the only view into hops that
/// ran in worker processes) to the harness trace: one `dist.tree` root per
/// sampled tree with its hops as children, split into queue wait and
/// execute.
fn ingest_runtime_spans(tracer: &Tracer, spans: &[Span], t_submit: Instant) {
    let base_us = tracer.us(t_submit);
    // Runtime trace ids are hashes of the tree root; key them apart from
    // the generator's tuple ids.
    let tid_of = |s: &Span| s.trace_id | (1 << 63);
    let emit_us: std::collections::HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::SpoutEmit)
        .map(|s| (s.trace_id, s.start_us))
        .collect();
    for s in spans {
        let start = base_us + s.start_us as f64;
        match s.kind {
            SpanKind::Hop => {
                let name = format!("dist.{}.hop", s.component);
                tracer.record(SpanRec {
                    name: format!("dist.{}.queue_wait", s.component),
                    parent: name.clone(),
                    trace_id: tid_of(s),
                    start_us: start - s.queue_wait_us as f64,
                    dur_us: s.queue_wait_us as f64,
                    pid: s.pid,
                    tid: s.task as u32,
                });
                tracer.record(SpanRec {
                    name,
                    parent: "dist.tree".into(),
                    trace_id: tid_of(s),
                    start_us: start - s.queue_wait_us as f64,
                    dur_us: (s.queue_wait_us + s.exec_us) as f64,
                    pid: s.pid,
                    tid: s.task as u32,
                });
            }
            SpanKind::Ack => {
                // The terminal span closes the tree that the emit opened.
                if let Some(&emit) = emit_us.get(&s.trace_id) {
                    tracer.record(SpanRec {
                        name: "dist.tree".into(),
                        parent: String::new(),
                        trace_id: tid_of(s),
                        start_us: base_us + emit as f64,
                        dur_us: s.start_us.saturating_sub(emit) as f64,
                        pid: s.pid,
                        tid: 0,
                    });
                }
            }
            _ => {}
        }
    }
}
