//! The benchmark's constants in one place: workloads with their rates and
//! run plan, and every metric with its unit, direction and bound.
//! `BENCHMARK.json` is printed from these tables (`--manifest`), never the
//! other way round, and nothing here is derived at run time.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::trace::Tracer;

/// One run's inputs, as the driver or the plan runner passes them.
pub struct RunCtx {
    /// When this pass began: set-up time is counted from here.
    pub started: Instant,
    /// Feeds only the generators (keys, sim seeds).
    pub seed: u64,
    /// Length of the measured part.
    pub seconds: f64,
    /// How many times set-up is carried out before the window opens.
    pub setup_reps: usize,
    /// `Some` in the traced pass.
    pub tracer: Option<Arc<Tracer>>,
    /// Where trace files and worker dumps go.
    pub out_dir: PathBuf,
}

impl RunCtx {
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Output checks that need the control loop to have had time to act are
    /// only enforced on runs long enough for it (`--quick` is a smoke run).
    pub fn long_enough(&self) -> bool {
        self.seconds >= 5.0
    }
}

pub struct Workload {
    pub name: &'static str,
    /// `open+closed`, `open` or `batch`.
    pub load: &'static str,
    /// Offered rate of the open loop, tuples/s (0 for batch jobs).
    pub rate: f64,
    /// Runs per set in plan mode.
    pub runs: usize,
    pub why: &'static str,
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 18;

/// The flood workloads run open-loop at their probe rate, well below
/// saturation, for this share of the window (latency and CPU cost at a
/// fixed rate), then closed-loop to its end (throughput; the first
/// `FLOOD_SETTLE_S` of that are left out while the pipeline fills).
pub const FLOOD_OPEN_SHARE: f64 = 0.6;
pub const FLOOD_SETTLE_S: f64 = 0.5;
pub const RT_FLOOD_PROBE_RATE: f64 = 200_000.0;
pub const DIST_FLOOD_PROBE_RATE: f64 = 100_000.0;
pub const RT_PACED_RATE: f64 = 100_000.0;
pub const RT_MISBEHAVE_RATE: f64 = 20_000.0;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "rt_flood",
        load: "open+closed",
        rate: RT_FLOOD_PROBE_RATE,
        runs: 5,
        why: "the threaded data plane (route, batch, channel, execute, ack) probed at 200000 tuples/s for latency, then flooded closed-loop for throughput; codec, control loop and DRNN do no work",
    },
    Workload {
        name: "rt_paced",
        load: "open",
        rate: RT_PACED_RATE,
        runs: 5,
        why: "open loop at 100000 tuples/s far below saturation: linger, wake-ups, fields hashing, window state and checkpoints set latency, so a batching win that holds tuples longer loses here",
    },
    Workload {
        name: "dist_flood",
        load: "open+closed",
        rate: DIST_FLOOD_PROBE_RATE,
        runs: 5,
        why: "the rt_flood topology on two worker processes over Unix sockets (probe at 100000 tuples/s): codec, transport, credit windows and the coordinator hops do most of the work; rt_flood is its bypass",
    },
    Workload {
        name: "rt_misbehave",
        load: "open",
        rate: RT_MISBEHAVE_RATE,
        runs: 3,
        why: "open loop at 20000 tuples/s with one worker slowed 10x mid-run under the reactive controller: detection, planning and dynamic grouping do the work, raw data-plane speed barely matters",
    },
    Workload {
        name: "sim_predictive",
        load: "batch",
        rate: 0.0,
        runs: 3,
        why: "the paper's pipeline as batch jobs on the simulator: collect, fit DRNN/ARIMA/SVR, walk-forward, closed-loop fault run; drnn, forecast and controller do the work, the rt/dist data plane none",
    },
    Workload {
        name: "sim_flood",
        load: "batch",
        rate: 0.0,
        runs: 5,
        why: "spout-relay-sink on 100 simulated workers: raw event-executor speed, invisible inside sim_predictive where training dominates",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// Reported by every workload on every run; see the README for what each
/// means on the two simulator workloads.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("acked_per_s", "1/s", true, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// Reported by the traced pass; a metric a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // The cost metric.  Not end-to-end: on the flood workloads it follows
    // which threads the scheduler happens to pair on a core and moves by a
    // quarter to a half between runs of one build (see README).
    layer("cpu_us_per_acked", "us", false),
    // The tail.  Not end-to-end: wake-ups and system calls are what a busy
    // host slows most, and for minutes at a time, so it reads up to a half
    // higher for whole sets of runs of one build (see README).
    layer("latency_p95_ms", "ms", false),
    // One set-up (build + submit) on its own; `setup_s` is the benchmark's
    // whole set-up, rehearsals and warm-up included.
    layer("setup.once_ms", "ms", false),
    // Quality figures that are workload-specific or may be exactly 0, so
    // they cannot carry a bound of their own (see README, "deviations").
    layer("failed_ratio", "share", false),
    layer("fault_goodput_ratio", "ratio", true),
    layer("nocontrol_goodput_ratio", "ratio", true),
    layer("pipeline_wall_s", "s", false),
    layer("drnn_mape_pct", "%", false),
    layer("sim_processed_per_wall_s", "1/s", true),
    // gen (harness): validity of every latency number.
    layer("gen.emitted", "count", true),
    layer("gen.latency_samples", "count", true),
    layer("gen.invalid_runs", "count", false),
    layer("gen.lag_p99_ms", "ms", false),
    layer("gen.blocked_share", "share", false),
    layer("gen.latency_p99_ms", "ms", false),
    layer("gen.latency_max_ms", "ms", false),
    // rt
    layer("rt.hop_overhead_ns", "ns", false),
    layer("rt.stage_busy_share_max", "share", false),
    layer("rt.stage_idle_share_min", "share", true),
    layer("rt.queue_wait_p50_us", "us", false),
    layer("rt.queue_wait_p99_us", "us", false),
    layer("rt.mean_batch_fill", "count", true),
    layer("rt.linger_flush_share", "share", false),
    layer("rt.complete_latency_avg_ms", "ms", false),
    layer("rt.replays", "count", false),
    layer("rt.timed_out", "count", false),
    // direct calls into single layers
    layer("acker.cycle_ns", "ns", false),
    layer("tuple.build_clone_ns", "ns", false),
    layer("grouping.shuffle_ns", "ns", false),
    layer("grouping.fields_ns", "ns", false),
    layer("grouping.dynamic_ns", "ns", false),
    layer("grouping.dynamic_set_ratio_ns", "ns", false),
    layer("window.add_ns", "ns", false),
    layer("window.roll_us", "us", false),
    layer("checkpoint.snapshot_encode_us", "us", false),
    layer("checkpoint.restore_decode_us", "us", false),
    layer("checkpoint.bytes_per_key", "B", false),
    layer("checkpoint.taken", "count", true),
    layer("checkpoint.snapshot_bytes", "B", false),
    layer("credit.acquire_grant_ns", "ns", false),
    layer("credit.outstanding_at_end", "count", false),
    layer("codec.encode_ns_per_tuple", "ns", false),
    layer("codec.decode_ns_per_tuple", "ns", false),
    layer("codec.bytes_per_tuple", "B", false),
    layer("transport.roundtrip_us_per_frame", "us", false),
    layer("transport.write_block_share", "share", false),
    // dist
    layer("dist.bytes_per_acked", "B", false),
    layer("dist.frames_per_acked", "count", false),
    layer("dist.tuples_per_frame", "count", true),
    layer("dist.coord_cpu_share", "share", false),
    layer("dist.worker_cpu_share", "share", true),
    layer("dist.worker_spawn_ms", "ms", false),
    // sim
    layer("sim.wall_s", "s", false),
    layer("sim.virtual_s_per_wall_s", "ratio", true),
    layer("sim.acked", "count", true),
    layer("sim.collect_wall_s", "s", false),
    // telemetry
    layer("telemetry.trace_overhead_pct", "%", false),
    layer("telemetry.spans_recorded", "count", true),
    layer("telemetry.spans_dropped", "count", false),
    layer("telemetry.journal_append_ns", "ns", false),
    layer("telemetry.counter_inc_ns", "ns", false),
    layer("metrics.histogram_record_ns", "ns", false),
    // control loop
    layer("features.extract_us", "us", false),
    layer("predictor.drnn_predict_us", "us", false),
    layer("predictor.arima_predict_us", "us", false),
    layer("predictor.svr_predict_us", "us", false),
    layer("detector.observe_ns", "ns", false),
    layer("planner.plan_ratio_ns", "ns", false),
    layer("controller.epoch_us", "us", false),
    layer("controller.reroute_delay_ms", "ms", false),
    layer("controller.ratio_updates", "count", false),
    layer("controller.flag_events", "count", false),
    layer("controller.false_flags", "count", false),
    layer("controller.fault_latency_p99_ms", "ms", false),
    // drnn / forecast
    layer("drnn.fit_s", "s", false),
    layer("drnn.epochs_run", "count", false),
    layer("drnn.epoch_ms", "ms", false),
    layer("drnn.forward_us", "us", false),
    layer("drnn.gemm_64_ns", "ns", false),
    layer("forecast.arima_fit_ms", "ms", false),
    layer("forecast.svr_fit_ms", "ms", false),
    layer("forecast.arima_mape_pct", "%", false),
    layer("forecast.svr_mape_pct", "%", false),
    // apps::workload
    layer("workload.zipf_sample_ns", "ns", false),
    layer("workload.rate_driver_due_ns", "ns", false),
    // per-tuple CPU budget of the flood workloads, µs per acked tuple:
    // user + engine = cpu_us_per_acked of the traced pass by construction.
    layer("budget.user_us", "us", false),
    layer("budget.engine_us", "us", false),
    layer("budget.acker_us", "us", false),
    layer("budget.grouping_us", "us", false),
    layer("budget.tuple_us", "us", false),
    layer("budget.codec_us", "us", false),
    layer("budget.credit_us", "us", false),
    layer("budget.unattributed_us", "us", false),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let better = |m: &Metric| if m.higher { "higher" } else { "lower" };
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            better(m),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            better(m)
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
