//! What every wall-clock (rt/dist) pass shares: the warm-up → measured
//! window → drain schedule, CPU and memory accounting from `/proc`, and
//! turning the generator's record into metrics.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsdps::config::EngineConfig;
use dsdps::metrics::MetricsHistory;
use dsdps::rt::ThreadedReport;

use crate::gen::{GenResult, GenShared, SEGMENT_S, SLOT_S};
use crate::proc;
use crate::stats::quantile;
use crate::wrap::{Probes, StageRow};

/// Discarded lead-in of every wall-clock run, seconds from submit.
pub const WARMUP_S: f64 = 1.0;
/// In-flight cap of every topology but `rt_flood`'s (Storm's
/// `max.spout.pending`).  The paced workloads keep a few hundred trees in
/// flight and reach it only when the host stalls them; it then bounds the
/// backlog, so that `peak_rss_mb` does not record the longest stall of the
/// run (at 16384 a busy host moved `rt_paced`'s peak from 14.6 to 21 MB).
/// Tuples held back at the gate are still timed from when they were due.
pub const MAX_SPOUT_PENDING: usize = 4096;
/// The harness samples acks and CPU this often across the accounted part
/// of the window.
const SAMPLE_S: f64 = 0.1;
/// How long the drain after the window may take before the run is failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(8);

/// The cluster and in-flight cap every wall-clock workload starts from.
pub fn engine() -> EngineConfig {
    let mut cfg = EngineConfig::default().with_cluster(2, 2, 4);
    cfg.max_spout_pending = MAX_SPOUT_PENDING;
    cfg
}

/// Set-up times of the `reps - 1` rehearsals that precede the real one.
pub fn rehearse_setup<R>(
    reps: usize,
    mut setup: impl FnMut() -> R,
    mut teardown: impl FnMut(R),
) -> Vec<f64> {
    (1..reps)
        .map(|_| {
            let t = Instant::now();
            let running = setup();
            let seconds = t.elapsed().as_secs_f64();
            teardown(running);
            seconds
        })
        .collect()
}

/// One pass of one workload, reduced to what the harness reports.
#[derive(Default)]
pub struct Pass {
    /// From the start of the pass to the opening of the measured window:
    /// rehearsed set-ups, the real one and warm-up.
    pub setup_s: f64,
    /// One set-up on its own, on the fast side of the rehearsals.
    pub setup_once_s: f64,
    pub acked_per_s: f64,
    pub cpu_us_per_acked: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub peak_rss_mb: f64,
    /// Operations attempted / failed, for the result line.
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values this pass could observe.
    pub layer: Vec<(&'static str, f64)>,
    /// Output checks: `(what, held)`.
    pub checks: Vec<(String, bool)>,
    /// A paced run that broke an open-loop validity guard.
    pub invalid: Option<String>,
}

impl Pass {
    pub fn check(&mut self, what: impl Into<String>, held: bool) {
        self.checks.push((what.into(), held));
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }
}

/// One sampling interval of the accounted window.
pub struct Sample {
    pub seconds: f64,
    pub acked: u64,
    pub cpu_s: f64,
}

/// Interference from other tenants of the host only ever slows a run, and
/// it comes in bursts of tens of milliseconds as well as in stretches of
/// ten seconds and more.  Every figure is therefore taken over many short
/// units of the run (100 ms samples, quarter-second latency segments, jobs
/// and pipeline stages, set-up repetitions) and reported as what those
/// units reach on the fast side of their distribution — the 90th
/// percentile of a rate, the 10th of a cost or a time — not their middle:
/// a tenth of the run left undisturbed is enough for the figure to repeat.
/// On the reference host a spin loop timed in 6 ms units repeats within
/// 2 % from run to run this way, where its mean and its median move by 8 %.
pub fn undisturbed(values: &[f64], higher_is_better: bool) -> f64 {
    quantile(values, if higher_is_better { 0.9 } else { 0.1 })
}

/// What the harness saw around the measured window.
pub struct Driven {
    /// When the measured window opened.
    pub opened: Instant,
    /// Length of the accounted part of the window, as slept.
    pub window_s: f64,
    /// Samples every [`SAMPLE_S`] across the accounted part.
    pub samples: Vec<Sample>,
    /// CPU seconds of all processes over the accounted part.
    pub cpu_s: f64,
    /// The same CPU seconds per process, in `pids()` order.
    pub cpu_by_pid: Vec<(u32, f64)>,
    pub peak_rss_mb: f64,
    pub drained: bool,
    /// Wrapper totals accumulated inside the window (in-process tasks).
    pub stages: Vec<StageRow>,
}

/// Sleeps through warm-up, opens the generator's window for `seconds`,
/// samples acks and CPU of `pids()` every [`SAMPLE_S`] across the
/// `accounted` part of it (offsets in seconds, moved onto the sampling
/// grid; wrapper totals are taken over the same part), then waits for
/// `settled()` (all trees resolved, results flushed).
pub fn drive(
    gen: &Arc<GenShared>,
    probes: &Probes,
    t_submit: Instant,
    seconds: f64,
    accounted: (f64, f64),
    pids: &dyn Fn() -> Vec<u32>,
    settled: &dyn Fn() -> bool,
) -> Driven {
    let start = t_submit + Duration::from_secs_f64(WARMUP_S);
    sleep_until(start);
    let pids = pids();
    let cpu_now = || -> Vec<f64> { pids.iter().map(|&p| proc::cpu_seconds(p)).collect() };
    let first = (accounted.0 / SAMPLE_S).round() as usize;
    let last = ((accounted.1 / SAMPLE_S).round() as usize).max(first + 1);
    let tick = |k: usize| Duration::from_secs_f64(SAMPLE_S * k as f64);
    let t0 = Instant::now();
    gen.begin_measure(
        t0,
        seconds,
        (tick(first).as_secs_f64(), tick(last).as_secs_f64()),
    );

    sleep_until(t0 + tick(first));
    let t_first = Instant::now();
    let cpu0 = cpu_now();
    let stages0 = probes.snapshot();
    let mut samples = Vec::with_capacity(last - first);
    let mut before = (
        t_first,
        gen.acked.load(Ordering::Relaxed),
        cpu0.iter().sum::<f64>(),
    );
    let mut cpu1 = cpu0.clone();
    for k in first + 1..=last {
        sleep_until(t0 + tick(k));
        cpu1 = cpu_now();
        let now = (
            Instant::now(),
            gen.acked.load(Ordering::Relaxed),
            cpu1.iter().sum::<f64>(),
        );
        samples.push(Sample {
            seconds: (now.0 - before.0).as_secs_f64(),
            acked: now.1 - before.1,
            cpu_s: now.2 - before.2,
        });
        before = now;
    }
    let window_s = t_first.elapsed().as_secs_f64();
    let cpu_by_pid: Vec<(u32, f64)> = pids
        .iter()
        .zip(cpu1.iter().zip(&cpu0))
        .map(|(&p, (c1, c0))| (p, c1 - c0))
        .collect();
    let cpu_s = cpu_by_pid.iter().map(|p| p.1).sum();
    let stages = probes
        .snapshot()
        .into_iter()
        .map(|(c, t, execs, busy)| {
            let before = stages0.iter().find(|s| s.0 == c && s.1 == t);
            let (e0, b0) = before.map_or((0, 0), |s| (s.2, s.3));
            (c, t, execs - e0, busy - b0)
        })
        .collect();
    sleep_until(t0 + Duration::from_secs_f64(seconds));
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    let mut drained = false;
    while Instant::now() < deadline {
        if gen.drained() && settled() {
            drained = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Workers exit at shutdown, so their peak is read while they still run.
    let peak_rss_mb = pids.iter().map(|&p| proc::peak_rss_mb(p)).sum();
    Driven {
        opened: t0,
        window_s,
        samples,
        cpu_s,
        cpu_by_pid,
        peak_rss_mb,
        drained,
        stages,
    }
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Acks per second over `[from, until)` seconds of the window, from the
/// generator's per-slot counts.
pub fn ack_rate(gen: &GenResult, from: f64, until: f64) -> f64 {
    let a = (from / SLOT_S).round() as usize;
    let b = ((until / SLOT_S).round() as usize).min(gen.ack_slots.len());
    if b <= a {
        return 0.0;
    }
    gen.ack_slots[a..b].iter().sum::<u64>() as f64 / ((b - a) as f64 * SLOT_S)
}

/// Fills the end-to-end fields every wall-clock workload reports the same
/// way.  CPU cost comes from the samples of the accounted part of the
/// window; throughput from the same samples, or from the generator's ack
/// slots inside `flood` when the workload floods for a part of the window;
/// latency from the segments that lie wholly inside `focus`.  All ranges
/// are offsets in seconds into the window; see [`undisturbed`].
pub fn fill_end_to_end(
    pass: &mut Pass,
    gen: &GenResult,
    driven: &Driven,
    focus: (f64, f64),
    flood: Option<(f64, f64)>,
) {
    let rates: Vec<f64> = match flood {
        Some((from, until)) => {
            let first = (from / SLOT_S).ceil() as usize;
            let end = ((until / SLOT_S).floor() as usize).min(gen.ack_slots.len());
            let slots = gen.ack_slots.get(first..end).unwrap_or_default();
            slots.iter().map(|&n| n as f64 / SLOT_S).collect()
        }
        None => driven
            .samples
            .iter()
            .map(|s| s.acked as f64 / s.seconds)
            .collect(),
    };
    let costs: Vec<f64> = driven
        .samples
        .iter()
        .filter(|s| s.acked > 0)
        .map(|s| s.cpu_s * 1e6 / s.acked as f64)
        .collect();
    pass.acked_per_s = undisturbed(&rates, true);
    pass.cpu_us_per_acked = undisturbed(&costs, false);
    let first = (focus.0 / SEGMENT_S).ceil() as usize;
    let end = ((focus.1 / SEGMENT_S).floor() as usize).min(gen.latency_segments.len());
    let segments = gen.latency_segments.get(first..end).unwrap_or_default();
    let across = |q: f64| {
        let per_segment: Vec<f64> = segments
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile_ms(q))
            .collect();
        if per_segment.is_empty() {
            // A window shorter than a segment (`--quick`).
            return gen.latency.quantile_ms(q);
        }
        undisturbed(&per_segment, false)
    };
    pass.latency_p50_ms = across(0.50);
    pass.latency_p95_ms = across(0.95);
    pass.peak_rss_mb = driven.peak_rss_mb;
}

/// Fills the two set-up figures of a wall-clock workload: `setups` are the
/// times of its rehearsals and of the real set-up.
pub fn fill_setup(pass: &mut Pass, started: Instant, setups: &[f64], driven: &Driven) {
    pass.setup_s = (driven.opened - started).as_secs_f64();
    pass.setup_once_s = undisturbed(setups, false);
}

/// The `gen.*` per-layer metrics.
pub fn put_gen_layers(pass: &mut Pass, gen: &GenResult, driven: &Driven) {
    let window_ns = driven.window_s * 1e9;
    pass.put("gen.emitted", gen.measured_emitted as f64);
    pass.put("gen.latency_samples", gen.latency.count() as f64);
    pass.put("gen.lag_p99_ms", gen.lag.quantile_ms(0.99));
    pass.put("gen.blocked_share", gen.blocked_ns as f64 / window_ns);
    pass.put("gen.latency_p99_ms", gen.latency.quantile_ms(0.99));
    pass.put("gen.latency_max_ms", gen.latency.max_ns() as f64 / 1e6);
}

/// Per-stage shares and the engine's per-hop overhead from wrapper totals:
/// `(process CPU − time inside benchmark-owned callbacks) ÷ tuple-hops`.
/// Returns the time inside those callbacks per acked tree, µs.
pub fn put_stage_layers(
    pass: &mut Pass,
    stages: &[StageRow],
    gen: &GenResult,
    driven: &Driven,
) -> f64 {
    let window_ns = driven.window_s * 1e9;
    let busiest = stages
        .iter()
        .map(|s| s.3 as f64 / window_ns)
        .fold(0.0, f64::max);
    let hops: u64 = stages.iter().map(|s| s.2).sum();
    let user_ns = gen.next_tuple_ns + gen.ack_ns + stages.iter().map(|s| s.3).sum::<u64>();
    pass.put("rt.stage_busy_share_max", busiest);
    pass.put("rt.stage_idle_share_min", 1.0 - busiest);
    pass.put(
        "rt.hop_overhead_ns",
        (driven.cpu_s * 1e9 - user_ns as f64).max(0.0) / hops.max(1) as f64,
    );
    let accounted: u64 = driven.samples.iter().map(|s| s.acked).sum();
    // Not a reported metric: what the flood budget splits into user + engine.
    pass.put("budget.cpu_us", driven.cpu_s * 1e6 / accounted.max(1) as f64);
    user_ns as f64 / 1e3 / accounted.max(1) as f64
}

/// Per-layer figures the threaded runtime reports about itself.
pub fn put_rt_report_layers(pass: &mut Pass, report: &ThreadedReport, history: &MetricsHistory) {
    pass.put("rt.queue_wait_p50_us", report.queue_wait_p50_us);
    pass.put("rt.queue_wait_p99_us", report.queue_wait_p99_us);
    pass.put("rt.complete_latency_avg_ms", report.avg_complete_latency_ms);
    pass.put("rt.replays", report.replays as f64);
    pass.put("rt.timed_out", report.timed_out as f64);
    pass.put("checkpoint.taken", report.checkpoints_taken as f64);
    pass.put("checkpoint.snapshot_bytes", report.snapshot_bytes as f64);
    pass.put(
        "credit.outstanding_at_end",
        report.credits.outstanding as f64,
    );
    let (mut batches, mut lingers, mut emitted) = (0u64, 0u64, 0u64);
    for snap in history.iter() {
        for t in &snap.tasks {
            batches += t.batches_flushed;
            lingers += t.linger_flushes;
            emitted += t.emitted;
        }
    }
    pass.put("rt.mean_batch_fill", emitted as f64 / batches.max(1) as f64);
    pass.put(
        "rt.linger_flush_share",
        lingers as f64 / batches.max(1) as f64,
    );
}
