//! `sim_flood`: raw event-executor speed of the discrete-event simulator.
//! `spout → relay → sink` over shuffle groupings on 100 simulated workers
//! at batch 64, run as back-to-back jobs of 200 000 tuple trees until
//! the measured time is used up, after one such job as warm-up.  Each job is built, run until every tree
//! is acked in slices of half a virtual millisecond (a few ms of wall
//! time), and checked; speed is taken over the slices of all jobs (see
//! `live::undisturbed`).

use std::sync::Arc;
use std::time::Instant;

use dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
use dsdps::config::EngineConfig;
use dsdps::metrics::LatencyHistogram;
use dsdps::rt::RtConfig;
use dsdps::sim::SimRuntime;
use dsdps::topology::{CostModel, TopologyBuilder};
use dsdps::tuple::{Tuple, Value};

use crate::live::{undisturbed, Pass};
use crate::plan::RunCtx;
use crate::proc;
use crate::stats::cdf_quantile;
use crate::trace::Tracer;

const WORKERS: usize = 100;
const SPOUTS: usize = 10;
const BATCH: usize = 64;
/// Tuple trees per job; a job takes about 130 ms of wall time, short
/// enough that many of a run's jobs fall between two disturbances.
const JOB_TUPLES: u64 = 200_000;
/// Virtual seconds per timed slice of a job.
const SLICE_VS: f64 = 0.0005;
/// Slices with fewer events than this (a job's tail) are not timed.
const MIN_SLICE_EVENTS: u64 = 2_000;
/// Service-time jitter, so the seed reaches the virtual timeline.
const JITTER: f64 = 0.1;

struct Firehose {
    remaining: u64,
    next_id: u64,
    proto: Tuple,
}

impl Spout for Firehose {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        self.next_id += 1;
        out.emit_with_id(self.proto.clone(), self.next_id);
        true
    }
}

struct Relay;
impl Bolt for Relay {
    fn execute(&mut self, t: &Tuple, out: &mut BoltOutput) {
        out.emit(t.clone());
    }
}

struct Sink;
impl Bolt for Sink {
    fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
}

struct Job {
    wall_s: f64,
    cpu_s: f64,
    setup_s: f64,
    acked: u64,
    processed: u64,
    events: u64,
    virtual_s: f64,
    latency: LatencyHistogram,
    /// Events per wall second of every timed slice.
    slice_rates: Vec<f64>,
}

fn run_job(seed: u64, tuples: u64, tracer: &Option<Arc<Tracer>>) -> Job {
    let t_setup = Instant::now();
    let share = tuples / SPOUTS as u64;
    let proto = Tuple::of([
        Value::from(seed as i64),
        Value::from(format!("sensor-{:04}", seed % 10_000)),
        Value::from(0.5),
        Value::from(true),
    ]);
    let cost = |us: f64| CostModel {
        base_service_time_us: us,
        jitter: JITTER,
    };
    let mut b = TopologyBuilder::new("sim-flood");
    b.set_spout("src", SPOUTS, move || Firehose {
        remaining: share,
        next_id: 0,
        proto: proto.clone(),
    })
    .expect("src")
    .cost(cost(1.0));
    b.set_bolt("relay", WORKERS, || Relay)
        .expect("relay")
        .shuffle_grouping("src")
        .expect("relay grouping")
        .cost(cost(4.0));
    b.set_bolt("sink", WORKERS, || Sink)
        .expect("sink")
        .shuffle_grouping("relay")
        .expect("sink grouping")
        .cost(cost(4.0));
    let topo = b.build().expect("sim-flood topology");
    let mut cfg = EngineConfig::default()
        .with_cluster(WORKERS, 1, 4)
        .with_seed(seed);
    cfg.max_spout_pending = 4096;
    cfg.queue_capacity = 8192;
    let rt_cfg = RtConfig::default().with_batch_size(BATCH);
    let mut engine = SimRuntime::with_rt_config(topo, cfg, rt_cfg).expect("engine");
    let setup_s = t_setup.elapsed().as_secs_f64();

    let total = share * SPOUTS as u64;
    let me = std::process::id();
    let cpu0 = proc::cpu_seconds(me);
    let start = Instant::now();
    let mut horizon = 0.0;
    let mut report = engine.report();
    let mut slice_rates = Vec::new();
    while report.acked < total && horizon < 100.0 {
        horizon += SLICE_VS;
        let (t, before) = (Instant::now(), report.events);
        report = engine.run_until(horizon);
        let events = report.events - before;
        if events >= MIN_SLICE_EVENTS {
            slice_rates.push(events as f64 / t.elapsed().as_secs_f64());
        }
    }
    let end = Instant::now();
    if let Some(tracer) = tracer {
        tracer.span("sim.job", "", seed, start, end, 0);
    }
    Job {
        wall_s: (end - start).as_secs_f64(),
        cpu_s: proc::cpu_seconds(me) - cpu0,
        setup_s,
        acked: report.acked,
        // One spout emission and two bolt executions per tree.
        processed: report.spout_emitted + 2 * report.acked,
        events: report.events,
        virtual_s: engine.now(),
        latency: engine.complete_latency_histogram(),
        slice_rates,
    }
}

pub fn run(ctx: &RunCtx) -> Pass {
    let me = std::process::id();
    let tuples = if ctx.seconds < 2.0 {
        JOB_TUPLES / 10
    } else {
        JOB_TUPLES
    };
    // Warm-up: one job that is not timed (it runs in a cold process and
    // takes a quarter longer).  The first timed job shares its seed: same
    // inputs must give same counts.
    let warmup = run_job(ctx.seed, tuples, &None);
    let mut jobs = Vec::new();
    let mut latency = LatencyHistogram::new();
    let t0 = Instant::now();
    while jobs.is_empty() || t0.elapsed().as_secs_f64() < ctx.seconds {
        let seed = ctx.seed.wrapping_add(jobs.len() as u64);
        let job = run_job(seed, tuples, &ctx.tracer);
        latency.merge(&job.latency);
        jobs.push(job);
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let acked: u64 = jobs.iter().map(|j| j.acked).sum();
    let events: u64 = jobs.iter().map(|j| j.events).sum();
    // Undisturbed events per wall second over all slices; the events a tree
    // takes are a property of the job, so trees/s follows from it.
    let slice_rates: Vec<f64> = jobs.iter().flat_map(|j| j.slice_rates.clone()).collect();
    let events_per_s = undisturbed(&slice_rates, true);
    let acked_per_s = events_per_s * acked as f64 / events.max(1) as f64;
    // CPU is read per job; one thread, so it is the on-CPU share of wall.
    let on_cpu: Vec<f64> = jobs.iter().map(|j| j.cpu_s / j.wall_s).collect();
    let setups: Vec<f64> = jobs.iter().map(|j| j.setup_s).collect();
    let cdf = latency.cdf_points();
    let mut pass = Pass {
        // One build, on the fast side of all the jobs' builds: the time up
        // to the first timed job is a single sample of computation, which
        // moves by 15 % between runs.
        setup_s: undisturbed(&setups, false),
        setup_once_s: undisturbed(&setups, false),
        acked_per_s,
        cpu_us_per_acked: undisturbed(&on_cpu, false) * 1e6 / acked_per_s.max(1e-9),
        // Virtual time: the simulated complete latency, not wall clock.
        latency_p50_ms: cdf_quantile(&cdf, 0.50) / 1e3,
        latency_p95_ms: cdf_quantile(&cdf, 0.95) / 1e3,
        peak_rss_mb: proc::peak_rss_mb(me),
        attempted: tuples * jobs.len() as u64,
        failed: tuples * jobs.len() as u64 - acked,
        ..Pass::default()
    };
    pass.check(
        "sim_flood: every job acked every tree",
        jobs.iter().all(|j| j.acked == tuples),
    );
    let (a, b) = (&warmup, &jobs[0]);
    pass.check(
        "sim_flood: two same-seed jobs give identical counts",
        (a.acked, a.events, a.virtual_s.to_bits()) == (b.acked, b.events, b.virtual_s.to_bits()),
    );

    let run_wall: f64 = jobs.iter().map(|j| j.wall_s).sum();
    let processed: u64 = jobs.iter().map(|j| j.processed).sum();
    pass.put(
        "sim_processed_per_wall_s",
        events_per_s * processed as f64 / events.max(1) as f64,
    );
    pass.put("sim.wall_s", wall_s);
    pass.put(
        "sim.virtual_s_per_wall_s",
        jobs.iter().map(|j| j.virtual_s).sum::<f64>() / run_wall,
    );
    pass.put("sim.acked", acked as f64);
    pass
}
