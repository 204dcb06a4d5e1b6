//! Kernel microbenchmarks with machine-readable output.
//!
//! A small self-contained adaptive timing harness (no external bench
//! framework) measures the performance-critical kernels:
//!
//! * `gemm`           — the drnn blocked matrix-multiply at 32/64/128
//! * `gemm_at_b` etc. — the transpose-free BPTT kernels (`AᵀB`, `ABᵀ`)
//!   and the tiled transpose
//! * `lstm`           — LSTM forward and forward+backward over a
//!   batch-32 / seq-16 sequence at hidden 64 and 128 (the paper-scale
//!   predictor shapes), using the reusable-workspace API
//! * `grouping`       — per-tuple routing decision for every grouping type
//! * `acker`          — tuple-tree track/emit/ack cycle
//! * `engine`         — simulated-runtime event throughput
//! * `forecast_fit`   — ARIMA and SVR fit time
//! * `control_epoch`  — one controller epoch (snapshot → plan → actuate)
//! * `rt_batching`    — threaded-runtime tuple throughput on a 3-stage
//!   shuffle-grouped topology at several batch sizes
//! * `rt_overload`    — queue-wait quantiles at a 4×-overload point
//!   (spout offered rate four times the sink's service capacity) with and
//!   without the adaptive spout throttle, feeding the CI backpressure gate
//!
//! Every measurement is recorded in a [`MicroResults`] and can be written
//! as `BENCH_kernels.json` at the repository root, so CI and the results
//! tables consume the same numbers that are printed.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drnn::layer::lstm::{LstmCache, LstmLayer};
use drnn::matrix::Matrix;
use dsdps::acker::Acker;
use dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
use dsdps::config::EngineConfig;
use dsdps::grouping::dynamic::{DynamicGrouping, DynamicGroupingHandle, SplitRatio};
use dsdps::grouping::{AllGrouping, FieldsGrouping, GlobalGrouping, Grouping, ShuffleGrouping};
use dsdps::rt::{self, RtConfig};
use dsdps::sim::SimRuntime;
use dsdps::topology::{CostModel, TaskId, TopologyBuilder};
use dsdps::tuple::{Fields, Tuple, Value};
use forecast::arima::{Arima, ArimaOrder};
use forecast::forecaster::Forecaster;
use forecast::svr::{Svr, SvrParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Collected measurements of one microbench run.
pub struct MicroResults {
    /// `"smoke"` or `"full"`.
    pub mode: &'static str,
    /// `std::thread::available_parallelism()` of the bench host, stamped
    /// into `BENCH_rt.json` so scaling numbers can be read against the
    /// cores that produced them.
    pub host_parallelism: usize,
    /// `"w{W}_b{B}"` keys of scaling points whose thread demand exceeded
    /// the host's parallelism — measured anyway, but flagged because the
    /// point reflects oversubscription, not the runtime's scaling.
    pub oversubscribed: Vec<String>,
    /// `(benchmark name, ns/iter)` in execution order.
    pub ns_per_iter: Vec<(String, f64)>,
    /// `(batch_size, acked tuples/s)` of the threaded-runtime throughput
    /// sweep.
    pub rt_acked_tuples_per_s: Vec<(usize, f64)>,
    /// `(workers, batch_size, acked tuples/s)` of the threaded-runtime
    /// worker-scaling sweep (written to `BENCH_rt.json`).
    pub rt_scaling: Vec<(usize, usize, f64)>,
    /// Queue-wait quantiles at the 4×-overload point, with and without the
    /// adaptive spout throttle (also written to `BENCH_rt.json`).
    pub rt_overload: Option<RtOverload>,
}

/// Queue-wait measurements of one overloaded run pair (µs).
pub struct RtOverload {
    /// Steady-state (last metrics interval) queue-wait p99 with the AIMD
    /// throttle enabled.
    pub throttled_p99_us: f64,
    /// Steady-state queue-wait p99 with the throttle off — the queues sit
    /// full, so this is the channel-capacity-sized plateau.
    pub unthrottled_p99_us: f64,
    /// Whole-run queue-wait median of the unthrottled run; the CI gate's
    /// reference point.
    pub unthrottled_p50_us: f64,
}

impl MicroResults {
    fn new(mode: &'static str) -> Self {
        MicroResults {
            mode,
            host_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            oversubscribed: Vec::new(),
            ns_per_iter: Vec::new(),
            rt_acked_tuples_per_s: Vec::new(),
            rt_scaling: Vec::new(),
            rt_overload: None,
        }
    }

    /// Times `f` adaptively: doubles the iteration count until the measured
    /// run exceeds `target`, then records and prints ns/iter over the final
    /// run.
    fn bench<R, F: FnMut() -> R>(&mut self, name: &str, target: Duration, mut f: F) {
        // Warm-up.
        std::hint::black_box(f());
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t0.elapsed();
            if elapsed >= target || iters >= 1 << 30 {
                let ns = elapsed.as_nanos() as f64 / iters as f64;
                println!("{name:<44} {:>14} ns/iter   ({iters} iters)", fmt_num(ns));
                self.ns_per_iter.push((name.to_owned(), ns));
                return;
            }
            iters = if elapsed.is_zero() {
                iters * 8
            } else {
                // Aim straight for the target with 20% headroom.
                let scale = target.as_secs_f64() / elapsed.as_secs_f64() * 1.2;
                (iters as f64 * scale).ceil() as u64
            };
        }
    }

    /// Serializes the results as a stable, machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"schema\": \"bench_kernels/v1\",\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str("  \"ns_per_iter\": {\n");
        for (i, (name, ns)) in self.ns_per_iter.iter().enumerate() {
            let sep = if i + 1 == self.ns_per_iter.len() {
                ""
            } else {
                ","
            };
            s.push_str(&format!("    \"{name}\": {ns:.1}{sep}\n"));
        }
        s.push_str("  },\n  \"rt_acked_tuples_per_s\": {\n");
        for (i, (bs, tput)) in self.rt_acked_tuples_per_s.iter().enumerate() {
            let sep = if i + 1 == self.rt_acked_tuples_per_s.len() {
                ""
            } else {
                ","
            };
            s.push_str(&format!("    \"{bs}\": {tput:.1}{sep}\n"));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Writes [`to_json`](Self::to_json) to `BENCH_kernels.json` at the
    /// repository root and returns the path.
    pub fn write_json_at_repo_root(&self) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_kernels.json"
        ));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Serializes the worker-scaling sweep as a stable JSON document keyed
    /// `"w{workers}_b{batch}"`, the format CI's regression gate consumes.
    /// When the overload point ran, an `overload_queue_wait_us` section is
    /// appended; the throughput-gate parser only reads
    /// `acked_tuples_per_s`, so the extra section is backward compatible.
    pub fn rt_scaling_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\n  \"schema\": \"bench_rt/v1\",\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        if !self.oversubscribed.is_empty() {
            s.push_str("  \"oversubscribed\": [");
            for (i, key) in self.oversubscribed.iter().enumerate() {
                let sep = if i + 1 == self.oversubscribed.len() {
                    ""
                } else {
                    ", "
                };
                s.push_str(&format!("\"{key}\"{sep}"));
            }
            s.push_str("],\n");
        }
        s.push_str("  \"acked_tuples_per_s\": {\n");
        for (i, (workers, batch, tput)) in self.rt_scaling.iter().enumerate() {
            let sep = if i + 1 == self.rt_scaling.len() {
                ""
            } else {
                ","
            };
            s.push_str(&format!("    \"w{workers}_b{batch}\": {tput:.1}{sep}\n"));
        }
        s.push_str("  }");
        if let Some(o) = &self.rt_overload {
            s.push_str(",\n  \"overload_queue_wait_us\": {\n");
            s.push_str(&format!(
                "    \"throttled_p99\": {:.1},\n",
                o.throttled_p99_us
            ));
            s.push_str(&format!(
                "    \"unthrottled_p99\": {:.1},\n",
                o.unthrottled_p99_us
            ));
            s.push_str(&format!(
                "    \"unthrottled_p50\": {:.1}\n  }}",
                o.unthrottled_p50_us
            ));
        }
        s.push_str("\n}\n");
        s
    }

    /// Writes [`rt_scaling_json`](Self::rt_scaling_json) to `BENCH_rt.json`
    /// at the repository root and returns the path.
    pub fn write_rt_json_at_repo_root(&self) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rt.json"));
        std::fs::write(&path, self.rt_scaling_json())?;
        Ok(path)
    }
}

fn fmt_num(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}e9", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

fn square(n: usize, seed: usize) -> Matrix {
    Matrix::from_vec(
        n,
        n,
        (0..n * n)
            .map(|i| ((i + seed) % 17) as f64 / 17.0 - 0.4)
            .collect(),
    )
}

fn bench_gemm(res: &mut MicroResults, target: Duration) {
    for &n in &[32usize, 64, 128] {
        let a = square(n, 1);
        let b = square(n, 5);
        res.bench(&format!("gemm/{n}x{n}"), target, || a.matmul(&b));
    }
    // Transpose-free BPTT kernels at the gradient-accumulation shape.
    let n = 128;
    let a = square(n, 1);
    let b = square(n, 5);
    let mut out = Matrix::zeros(n, n);
    res.bench(&format!("gemm_at_b/{n}x{n}"), target, || {
        out.zero_in_place();
        a.matmul_at_b_into(&b, &mut out);
        out.get(0, 0)
    });
    let mut out2 = Matrix::zeros(n, n);
    res.bench(&format!("gemm_a_bt/{n}x{n}"), target, || {
        a.matmul_a_bt_into(&b, &mut out2);
        out2.get(0, 0)
    });
    res.bench(&format!("transpose/{n}x{n}"), target, || a.transpose());
}

fn bench_lstm(res: &mut MicroResults, target: Duration) {
    let mut rng = StdRng::seed_from_u64(1);
    let xs: Vec<Matrix> = (0..16)
        .map(|t| {
            Matrix::from_vec(
                32,
                16,
                (0..32 * 16).map(|i| ((t + i) % 7) as f64 / 7.0).collect(),
            )
        })
        .collect();
    for &hidden in &[64usize, 128] {
        let mut layer = LstmLayer::new(16, hidden, &mut rng);
        let suffix = if hidden == 64 {
            String::new()
        } else {
            format!("_h{hidden}")
        };
        let mut hs: Vec<Matrix> = Vec::new();
        let mut cache = LstmCache::default();
        res.bench(
            &format!("lstm/forward_seq16_batch32{suffix}"),
            target,
            || {
                layer.forward_into(&xs, &mut hs, &mut cache);
                hs.last().unwrap().get(0, 0)
            },
        );
        let dhs: Vec<Matrix> = (0..16).map(|_| Matrix::full(32, hidden, 1.0)).collect();
        let mut dxs: Vec<Matrix> = Vec::new();
        res.bench(
            &format!("lstm/forward_backward_seq16_batch32{suffix}"),
            target,
            || {
                layer.forward_into(&xs, &mut hs, &mut cache);
                layer.zero_grads();
                layer.backward_into(&xs, &hs, &cache, &dhs, Some(&mut dxs));
                dxs.last().unwrap().get(0, 0)
            },
        );
    }
}

fn bench_grouping(res: &mut MicroResults, target: Duration) {
    let schema = Fields::new(["key", "seq"]);
    let tuple = Tuple::with_fields([Value::from("k42"), Value::from(42i64)], schema.clone());
    let mut out = Vec::with_capacity(8);
    let mut run = |res: &mut MicroResults, name: &str, g: &mut dyn Grouping| {
        res.bench(name, target, || {
            out.clear();
            g.select(&tuple, &mut out);
            out.first().copied()
        });
    };
    run(res, "grouping/shuffle", &mut ShuffleGrouping::new(8, 0));
    run(
        res,
        "grouping/fields",
        &mut FieldsGrouping::new(8, &["key".into()], &schema).unwrap(),
    );
    run(res, "grouping/global", &mut GlobalGrouping::new(8));
    run(res, "grouping/all", &mut AllGrouping::new(8));
    let handle = DynamicGroupingHandle::new(SplitRatio::uniform(8));
    run(res, "grouping/dynamic", &mut DynamicGrouping::new(handle));
}

fn bench_acker(res: &mut MicroResults, target: Duration) {
    let mut acker = Acker::new();
    let mut root = 0u64;
    res.bench("acker/track_emit_ack_cycle", target, || {
        root += 1;
        let e0 = acker.new_edge_id();
        acker.track(root, e0, TaskId(0), root, 0.0);
        let e1 = acker.new_edge_id();
        acker.on_emit(root, e1);
        acker.on_ack(root, e0, 0.1);
        acker.on_ack(root, e1, 0.2);
        acker.drain_outcomes().len()
    });
}

fn bench_engine(res: &mut MicroResults, target: Duration, sim_horizon_s: f64) {
    struct Src(u64);
    impl Spout for Src {
        fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
            let due = (out.now_s() * 5000.0) as u64;
            for _ in 0..(due.saturating_sub(self.0)).min(32) {
                self.0 += 1;
                out.emit_with_id(Tuple::of([Value::from(self.0 as i64)]), self.0);
            }
            true
        }
    }
    struct Sink;
    impl Bolt for Sink {
        fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
    }

    res.bench("engine/sim_5000tps_pipeline", target, || {
        let mut builder = TopologyBuilder::new("bench");
        builder
            .set_spout("src", 1, || Src(0))
            .unwrap()
            .cost(CostModel {
                base_service_time_us: 5.0,
                jitter: 0.0,
            });
        builder
            .set_bolt("sink", 4, || Sink)
            .unwrap()
            .shuffle_grouping("src")
            .unwrap()
            .cost(CostModel {
                base_service_time_us: 50.0,
                jitter: 0.0,
            });
        let topo = builder.build().unwrap();
        let mut engine =
            SimRuntime::new(topo, EngineConfig::default().with_cluster(2, 2, 4)).unwrap();
        engine.run_until(sim_horizon_s).acked
    });
}

fn bench_forecast_fit(res: &mut MicroResults, target: Duration) {
    let series: Vec<f64> = {
        let mut state = 9u64;
        let mut prev = 0.0;
        (0..400)
            .map(|t| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let e = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                prev = 0.7 * prev + e + (t as f64 / 20.0).sin();
                prev
            })
            .collect()
    };
    res.bench("forecast/arima_2_0_1_fit_400", target, || {
        let mut m = Arima::new(ArimaOrder::new(2, 0, 1));
        m.fit(&series).unwrap();
        m.aic()
    });
    let x: Vec<Vec<f64>> = series.windows(8).map(|w| w[..7].to_vec()).collect();
    let y: Vec<f64> = series.windows(8).map(|w| w[7]).collect();
    res.bench("forecast/svr_rbf_fit_400", target, || {
        let mut svr = Svr::new(SvrParams::default()).unwrap();
        svr.fit(&x, &y).unwrap();
        svr.support_count()
    });
}

fn bench_control_epoch(res: &mut MicroResults, target: Duration) {
    use stream_control::planner::{plan_ratio, PlanPolicy};
    let tasks: Vec<TaskId> = (0..8).map(TaskId).collect();
    let placement: HashMap<TaskId, dsdps::scheduler::WorkerId> = tasks
        .iter()
        .map(|&t| (t, dsdps::scheduler::WorkerId(t.0)))
        .collect();
    let mut rng = StdRng::seed_from_u64(3);
    let lat: HashMap<dsdps::scheduler::WorkerId, f64> = (0..8)
        .map(|i| (dsdps::scheduler::WorkerId(i), rng.gen_range(100.0..1000.0)))
        .collect();
    res.bench("control/plan_ratio_8tasks", target, || {
        plan_ratio(
            PlanPolicy::CapacityProportional { alpha: 1.0 },
            &tasks,
            &placement,
            &[dsdps::scheduler::WorkerId(3)],
            &lat,
            0.02,
        )
        .unwrap()
    });
}

// --- Threaded-runtime batching throughput ------------------------------

/// Spout that emits tracked tuples as fast as backpressure allows until
/// `stop` is raised.
struct FloodSpout {
    next_id: u64,
    stop: Arc<AtomicBool>,
}

impl Spout for FloodSpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        if self.stop.load(Ordering::Relaxed) {
            return false;
        }
        for _ in 0..32 {
            self.next_id += 1;
            out.emit_with_id(Tuple::of([Value::from(self.next_id as i64)]), self.next_id);
        }
        true
    }
}

/// Middle stage: re-emits each tuple anchored (keeps the tree alive one hop).
struct Relay;
impl Bolt for Relay {
    fn execute(&mut self, t: &Tuple, out: &mut BoltOutput) {
        out.emit(t.clone());
    }
}

struct Blackhole;
impl Bolt for Blackhole {
    fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
}

/// Runs the 3-stage shuffle topology (spout → relay ×2 → sink ×2) for
/// `run_s` seconds and returns acked tuple trees per second.
fn rt_throughput(batch_size: usize, run_s: f64) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let mut b = TopologyBuilder::new("rt-batch-bench");
    b.set_spout("src", 1, move || FloodSpout {
        next_id: 0,
        stop: s2.clone(),
    })
    .unwrap();
    b.set_bolt("relay", 2, || Relay)
        .unwrap()
        .shuffle_grouping("src")
        .unwrap();
    b.set_bolt("sink", 2, || Blackhole)
        .unwrap()
        .shuffle_grouping("relay")
        .unwrap();
    let topo = b.build().unwrap();
    let mut cfg = EngineConfig::default().with_cluster(2, 2, 4);
    // Batching raises per-tree completion latency (tuples wait for a full
    // batch at each hop), so the in-flight window must grow with the batch
    // size or the spout throttles on max_spout_pending instead of measuring
    // channel throughput — the same tuning rule as Storm's
    // topology.max.spout.pending.
    cfg.max_spout_pending = 16 * 1024;
    let rt_cfg = RtConfig::default().with_batch_size(batch_size);
    let running = rt::submit_with(topo, cfg, rt_cfg).unwrap();
    std::thread::sleep(Duration::from_secs_f64(run_s));
    stop.store(true, Ordering::Relaxed);
    let (_, report) = running.shutdown();
    report.acked as f64 / report.uptime_s
}

/// Runs a `spout → relay ×w → sink ×w` shuffle pipeline on a `w`-worker
/// cluster for `run_s` seconds and returns acked tuple trees per second.
fn rt_scaling_throughput(workers: usize, batch_size: usize, run_s: f64) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let mut b = TopologyBuilder::new("rt-scaling-bench");
    b.set_spout("src", 1, move || FloodSpout {
        next_id: 0,
        stop: s2.clone(),
    })
    .unwrap();
    b.set_bolt("relay", workers, || Relay)
        .unwrap()
        .shuffle_grouping("src")
        .unwrap();
    b.set_bolt("sink", workers, || Blackhole)
        .unwrap()
        .shuffle_grouping("relay")
        .unwrap();
    let topo = b.build().unwrap();
    let mut cfg = EngineConfig::default().with_cluster(1, workers, 4);
    cfg.max_spout_pending = 16 * 1024;
    let rt_cfg = RtConfig::default().with_batch_size(batch_size);
    let running = rt::submit_with(topo, cfg, rt_cfg).unwrap();
    std::thread::sleep(Duration::from_secs_f64(run_s));
    stop.store(true, Ordering::Relaxed);
    let (_, report) = running.shutdown();
    report.acked as f64 / report.uptime_s
}

/// The data-plane scaling sweep: worker counts {1, 2, 4, 8} × batch sizes
/// {1, 64}, recorded into [`MicroResults::rt_scaling`] / `BENCH_rt.json`.
fn bench_rt_scaling(res: &mut MicroResults, run_s: f64) {
    println!(
        "\nrt_scaling: spout -> relay xW -> sink xW shuffle pipeline, {run_s:.1}s per point \
         (host parallelism {})",
        res.host_parallelism
    );
    for &workers in &[1usize, 2, 4, 8] {
        for &batch in &[1usize, 64] {
            // The point runs spout + relay xW + sink xW task threads; when
            // that exceeds the host's cores the measurement reflects
            // oversubscription, so it is stamped as such in the JSON and
            // never used as a scaling claim.
            let oversubscribed = 2 * workers + 1 > res.host_parallelism;
            let tput = rt_scaling_throughput(workers, batch, run_s);
            res.rt_scaling.push((workers, batch, tput));
            if oversubscribed {
                res.oversubscribed.push(format!("w{workers}_b{batch}"));
            }
            println!(
                "  workers {workers}  batch {batch:>3}: {:>12} acked tuples/s{}",
                fmt_num(tput),
                if oversubscribed {
                    "   (oversubscribed)"
                } else {
                    ""
                }
            );
        }
    }
}

// --- Threaded-runtime overload point -----------------------------------

/// Spout paced at a fixed offered rate (tuples/s), independent of
/// backpressure: when the downstream queues push back it falls behind and
/// catches up in bounded bursts, which is exactly how an external source
/// behaves during a flash crowd.
struct PacedSpout {
    next_id: u64,
    rate: f64,
    stop: Arc<AtomicBool>,
}

impl Spout for PacedSpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        if self.stop.load(Ordering::Relaxed) {
            return false;
        }
        let due = (out.now_s() * self.rate) as u64;
        for _ in 0..due.saturating_sub(self.next_id).min(256) {
            self.next_id += 1;
            out.emit_with_id(Tuple::of([Value::from(self.next_id as i64)]), self.next_id);
        }
        true
    }
}

/// Sink whose service time is a real sleep, so the overload is genuine
/// occupancy rather than a simulated cost (and a single-core bench host is
/// not starved by busy-spinning).
struct SleepySink {
    service: Duration,
}

impl Bolt for SleepySink {
    fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {
        std::thread::sleep(self.service);
    }
}

/// Runs the overload point — spout offered rate 4× the sink stage's nominal
/// service capacity — for `run_s` seconds and returns the report.  Credit
/// flow is on in both variants (window = channel capacity, so credits never
/// bind tighter than the queues); `throttle` additionally arms the AIMD
/// spout throttle with its default 5 ms queue-wait target.
fn rt_overload_report(throttle: bool, run_s: f64) -> rt::ThreadedReport {
    const SINK_WORKERS: usize = 2;
    const SERVICE_US: u64 = 400;
    // Nominal capacity = workers / service_time; offer four times that.
    let offered = 4.0 * SINK_WORKERS as f64 * 1e6 / SERVICE_US as f64;
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let mut b = TopologyBuilder::new("rt-overload-bench");
    b.set_spout("src", 1, move || PacedSpout {
        next_id: 0,
        rate: offered,
        stop: s2.clone(),
    })
    .unwrap();
    b.set_bolt("sink", SINK_WORKERS, || SleepySink {
        service: Duration::from_micros(SERVICE_US),
    })
    .unwrap()
    .shuffle_grouping("src")
    .unwrap();
    let topo = b.build().unwrap();
    let mut cfg = EngineConfig::default().with_cluster(1, SINK_WORKERS, 4);
    // Let the queue-level machinery (credits + throttle) do the work: the
    // in-flight tree gate must not engage first.
    cfg.max_spout_pending = 1_000_000;
    cfg.metrics_interval_s = 0.25;
    let mut rt_cfg = RtConfig::default().with_credit_flow(cfg.queue_capacity);
    if throttle {
        rt_cfg = rt_cfg.with_adaptive_throttle(Duration::from_millis(5));
    }
    let running = rt::submit_with(topo, cfg, rt_cfg).unwrap();
    std::thread::sleep(Duration::from_secs_f64(run_s));
    stop.store(true, Ordering::Relaxed);
    let (_, report) = running.shutdown();
    report
}

/// Measures the overload pair (throttled, then unthrottled) and records the
/// queue-wait quantiles into [`MicroResults::rt_overload`] / `BENCH_rt.json`.
fn bench_rt_overload(res: &mut MicroResults, run_s: f64) {
    println!(
        "\nrt_overload: paced spout at 4x sink capacity, {run_s:.1}s per variant, \
         steady-state queue-wait p99"
    );
    let throttled = rt_overload_report(true, run_s);
    let unthrottled = rt_overload_report(false, run_s);
    let point = RtOverload {
        throttled_p99_us: throttled.queue_wait_last_p99_us,
        unthrottled_p99_us: unthrottled.queue_wait_last_p99_us,
        unthrottled_p50_us: unthrottled.queue_wait_p50_us,
    };
    println!(
        "  throttled   p99 {:>10} us (final rate cap {})",
        fmt_num(point.throttled_p99_us),
        throttled
            .rate_cap
            .map_or("none".to_string(), |c| format!("{} tuples/s", fmt_num(c)))
    );
    println!(
        "  unthrottled p99 {:>10} us, median {:>10} us",
        fmt_num(point.unthrottled_p99_us),
        fmt_num(point.unthrottled_p50_us)
    );
    res.rt_overload = Some(point);
}

/// CI backpressure gate: at the 4×-overload point, the throttled run's
/// steady-state queue-wait p99 must stay within 5× the unthrottled run's
/// median.  Also fails when the unthrottled run never actually queued
/// (median below the 5 ms throttle target) — that means the bench lost its
/// overload and the comparison is meaningless.
fn check_overload_gate(res: &MicroResults) -> Result<(), String> {
    const RATIO: f64 = 5.0;
    const MIN_UNTHROTTLED_P50_US: f64 = 5_000.0;
    let o = res
        .rt_overload
        .as_ref()
        .ok_or("overload gate: the rt_overload point was not measured")?;
    println!(
        "\nrt overload gate: throttled p99 {} us vs {RATIO:.0}x unthrottled median {} us",
        fmt_num(o.throttled_p99_us),
        fmt_num(o.unthrottled_p50_us)
    );
    if o.unthrottled_p50_us < MIN_UNTHROTTLED_P50_US {
        return Err(format!(
            "overload gate: unthrottled median queue-wait {:.0} us is below {:.0} us — \
             the 4x overload point no longer overloads, so the throttle comparison is void",
            o.unthrottled_p50_us, MIN_UNTHROTTLED_P50_US
        ));
    }
    if o.throttled_p99_us > RATIO * o.unthrottled_p50_us {
        return Err(format!(
            "overload gate: throttled steady-state queue-wait p99 {:.0} us exceeds \
             {RATIO:.0}x the unthrottled median {:.0} us — the adaptive throttle is \
             no longer holding the tail down",
            o.throttled_p99_us, o.unthrottled_p50_us
        ));
    }
    Ok(())
}

fn bench_rt_batching(res: &mut MicroResults, run_s: f64) {
    println!("\nrt_batching: 3-stage shuffle topology (src -> relay x2 -> sink x2), {run_s:.1}s per point");
    let base = rt_throughput(1, run_s);
    res.rt_acked_tuples_per_s.push((1, base));
    println!(
        "  batch_size   1: {:>12} acked tuples/s   (baseline)",
        fmt_num(base)
    );
    for &bs in &[8usize, 64] {
        let tput = rt_throughput(bs, run_s);
        res.rt_acked_tuples_per_s.push((bs, tput));
        println!(
            "  batch_size {bs:>3}: {:>12} acked tuples/s   ({:.2}x vs batch 1)",
            fmt_num(tput),
            tput / base
        );
    }
}

/// Runs the full microbenchmark suite.  Smoke mode (used under
/// `cargo test`, which passes `--test` to harness-less bench targets)
/// shrinks every budget so the suite just proves it still runs end to end.
pub fn run(smoke: bool) -> MicroResults {
    let target = if smoke {
        Duration::from_millis(1)
    } else {
        Duration::from_millis(300)
    };
    let mut res = MicroResults::new(if smoke { "smoke" } else { "full" });
    println!("microbench ({} mode)\n", res.mode);
    bench_gemm(&mut res, target);
    bench_lstm(&mut res, target);
    bench_grouping(&mut res, target);
    bench_acker(&mut res, target);
    bench_engine(&mut res, target, if smoke { 0.5 } else { 5.0 });
    bench_forecast_fit(&mut res, target);
    bench_control_epoch(&mut res, target);
    bench_rt_batching(&mut res, if smoke { 0.3 } else { 3.0 });
    bench_rt_scaling(&mut res, if smoke { 0.5 } else { 2.5 });
    // The AIMD throttle needs several 0.25 s metrics intervals to converge,
    // so even smoke mode runs the overload pair for a few seconds.
    bench_rt_overload(&mut res, if smoke { 2.5 } else { 5.0 });
    res
}

/// Reads the `w1_b64` throughput out of a `bench_rt/v1` JSON document.
fn rt_baseline_w1_b64(json: &str) -> Option<f64> {
    use serde::JsonValue;
    let root = serde_json::parse(json).ok()?;
    let JsonValue::Object(fields) = root else {
        return None;
    };
    let tputs = fields.iter().find(|(k, _)| k == "acked_tuples_per_s")?;
    let JsonValue::Object(points) = &tputs.1 else {
        return None;
    };
    match points.iter().find(|(k, _)| k == "w1_b64")?.1 {
        JsonValue::F64(v) => Some(v),
        JsonValue::I64(v) => Some(v as f64),
        JsonValue::U64(v) => Some(v as f64),
        _ => None,
    }
}

/// CI regression gate: compares the fresh `w1_b64` (single-worker, batch-64)
/// throughput against the checked-in baseline and fails on a >20% drop.
fn check_rt_baseline(res: &MicroResults, baseline_path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = rt_baseline_w1_b64(&json)
        .ok_or_else(|| format!("no acked_tuples_per_s.w1_b64 in {baseline_path}"))?;
    let fresh = res
        .rt_scaling
        .iter()
        .find(|(w, b, _)| *w == 1 && *b == 64)
        .map(|(_, _, t)| *t)
        .ok_or_else(|| "rt_scaling sweep did not produce a w1_b64 point".to_string())?;
    println!(
        "\nrt baseline check: w1_b64 fresh {} vs baseline {} ({:+.1}%)",
        fmt_num(fresh),
        fmt_num(baseline),
        (fresh / baseline - 1.0) * 100.0
    );
    if fresh < baseline * 0.8 {
        return Err(format!(
            "rt throughput regression: w1_b64 {fresh:.0} tuples/s is more than 20% below \
             the baseline {baseline:.0} tuples/s"
        ));
    }
    Ok(())
}

/// Runs the `strip-telemetry` reference binary for one `w1_b64` sample via
/// its `--rt-point` mode and parses the machine-readable result, verifying
/// the binary really was built without hot-path telemetry.
fn stripped_point(bin: &str, secs: f64) -> Result<f64, String> {
    let out = std::process::Command::new(bin)
        .args(["--rt-point", "1", "64"])
        .arg(format!("{secs}"))
        .arg("1")
        .output()
        .map_err(|e| format!("cannot run stripped reference {bin}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if text.contains("telemetry_compiled: true") {
        return Err(format!(
            "{bin} was built WITH telemetry compiled in; rebuild it with --features strip-telemetry"
        ));
    }
    text.lines()
        .find_map(|l| l.strip_prefix("rt_point_sample: ")?.trim().parse().ok())
        .ok_or_else(|| format!("no rt_point_sample line in output of {bin}:\n{text}"))
}

/// CI telemetry-overhead gate: with telemetry compiled in but *disabled*
/// (`trace_sample_rate = 0`, no metrics address — the default [`RtConfig`]),
/// `w1_b64` throughput must stay within 3% of a `strip-telemetry` build's.
///
/// Takes the *path of a stripped reference binary* and interleaves its
/// samples with this build's, pair by pair.  Interleaving matters: the
/// machine's throughput ceiling drifts over minutes, so two builds measured
/// in separate CI steps can differ ±10% with zero real overhead, swamping
/// the 3% tolerance.  Even adjacent samples swing ±15% on a shared
/// machine, so no aggregate of a few samples separates a real 3% cost from
/// noise — but a *real* hot-path cost depresses every pair, while noise
/// flips sign between pairs.  The gate therefore fails only when the
/// instrumented build lost by more than the tolerance in **all** pairs:
/// that never happens under noise alone (each pair passes with ~60%
/// probability, all-fail is <1% over six pairs) and always happens for the
/// gross regressions the gate exists to catch, like tracing accidentally
/// running with sampling disabled.  Writes the comparison to
/// `BENCH_telemetry.json` at the repository root regardless of the verdict,
/// so the artifact survives a failing gate.
fn check_telemetry_overhead(mode: &str, smoke: bool, stripped_bin: &str) -> Result<(), String> {
    const TOLERANCE: f64 = 0.03;
    if !dsdps::telemetry::HOT_PATH_TELEMETRY {
        return Err(
            "--check-telemetry-overhead must run on a build WITHOUT strip-telemetry \
             (this build has the feature enabled, so there is nothing to measure)"
                .to_string(),
        );
    }
    let (reps, secs) = if smoke { (6, 1.0) } else { (5, 2.0) };
    println!("\ntelemetry overhead gate: {reps} interleaved w1_b64 pairs, {secs}s each");
    let (mut stripped, mut fresh) = (0.0f64, 0.0f64);
    let mut min_pair_overhead = f64::INFINITY;
    for r in 0..reps {
        let s = stripped_point(stripped_bin, secs)?;
        let f = rt_scaling_throughput(1, 64, secs);
        let pair_overhead = (1.0 - f / s) * 100.0;
        println!(
            "  pair {r}: stripped {:>10}  instrumented-disabled {:>10} acked tuples/s \
             ({pair_overhead:+.1}%)",
            fmt_num(s),
            fmt_num(f)
        );
        stripped = stripped.max(s);
        fresh = fresh.max(f);
        min_pair_overhead = min_pair_overhead.min(pair_overhead);
    }
    let overhead_pct = (1.0 - fresh / stripped) * 100.0;
    println!(
        "telemetry overhead check: best w1_b64 instrumented-disabled {} vs stripped {} \
         ({overhead_pct:+.1}% best-of, {min_pair_overhead:+.1}% min pair, tolerance {:.0}%)",
        fmt_num(fresh),
        fmt_num(stripped),
        TOLERANCE * 100.0
    );
    let mut doc = format!(
        "{{\n  \"schema\": \"bench_telemetry/v1\",\n  \"mode\": \"{mode}\",\n  \
         \"acked_tuples_per_s\": {{\n    \"w1_b64_stripped\": {stripped:.1},\n    \
         \"w1_b64_instrumented_disabled\": {fresh:.1}\n  }},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \
         \"min_pair_overhead_pct\": {min_pair_overhead:.2},\n  \
         \"tolerance_pct\": {:.1}\n}}\n",
        TOLERANCE * 100.0
    );
    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_telemetry.json"
    ));
    // Rewriting the rt half must not drop the dist gate's section.
    if let Some(dist) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| crate::dist_bench::dist_section_body(&t))
    {
        doc = crate::dist_bench::merge_dist_section(&doc, &dist);
    }
    match std::fs::write(&path, doc) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_telemetry.json: {e}"),
    }
    if min_pair_overhead > TOLERANCE * 100.0 {
        return Err(format!(
            "telemetry overhead regression: disabled-telemetry throughput lost to the \
             stripped build by more than {:.0}% in every one of {reps} interleaved pairs \
             (min pair overhead {min_pair_overhead:+.1}%)",
            TOLERANCE * 100.0
        ));
    }
    Ok(())
}

/// Shared entry point for the `microbench` bin and bench targets: runs the
/// suite and writes `BENCH_kernels.json` + `BENCH_rt.json` at the repository
/// root.  `--check-rt-baseline <path>` additionally enforces the CI
/// throughput-regression gate; `--check-telemetry-overhead <stripped-bin>`
/// enforces the telemetry-overhead gate against a `strip-telemetry` build
/// of this same binary via interleaved best-of-N sampling (3% tolerance,
/// writing `BENCH_telemetry.json`).  `--check-overload-gate` enforces the
/// backpressure gate at the 4×-overload point: throttled steady-state
/// queue-wait p99 must stay within 5× the unthrottled run's median.
/// `--check-recovery-gate` enforces the fault-recovery gate over the
/// `rt_recovery` results (every guarantee checkpoints, restores and keeps
/// its promise; the exactly-once restore beats a factory-fresh recompute).
/// `--rt-point W B SECS REPS` repeats one scaling point for manual A/B runs
/// (and serves the gate's reference samples).  `--dist-only` runs only the
/// multi-process suite (codec + dist_scaling + recovery, writing
/// `BENCH_dist.json`); `--check-dist-baseline <path>` enforces the
/// distributed gate (≥5× codec speedup at batch 64, full recovery after a
/// worker kill, and ≤20% `w2_b64` throughput regression).
/// `--dist-point W B SECS REPS` repeats one multi-process scaling point
/// (the dist analogue of `--rt-point`, serving the dist telemetry gate's
/// stripped reference samples); `--check-dist-telemetry-overhead
/// <stripped-bin>` enforces the distributed telemetry-overhead gate (3%
/// tolerance, interleaved min-pair, merging a `dist` section into
/// `BENCH_telemetry.json`).
pub fn main_entry() {
    // A re-exec of this binary with `DSDPS_DIST_ADDR` set is a distributed
    // worker for the dist_scaling bench, not a fresh suite run.
    if crate::dist_bench::maybe_worker() {
        return;
    }
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");
    let flag_path = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| panic!("{flag} requires a path argument"))
        })
    };
    let baseline = flag_path("--check-rt-baseline");
    let telemetry_check = flag_path("--check-telemetry-overhead");
    let sim_baseline = flag_path("--check-sim-baseline");
    let dist_baseline = flag_path("--check-dist-baseline");
    let dist_telemetry_check = flag_path("--check-dist-telemetry-overhead");
    let overload_gate = args.iter().any(|a| a == "--check-overload-gate");
    let recovery_gate = args.iter().any(|a| a == "--check-recovery-gate");
    if let Some(i) = args.iter().position(|a| a == "--dist-point") {
        // Diagnostic mode: repeat one multi-process scaling point, for
        // A/B-ing the distributed backend without the whole suite.
        let n = |k: usize| -> f64 { args[i + k].parse().expect("--dist-point W B SECS REPS") };
        let (w, b, secs, reps) = (n(1) as usize, n(2) as usize, n(3), n(4) as usize);
        println!(
            "dist-point w{w} b{b} {secs}s x{reps} (telemetry_compiled: {})",
            dsdps::telemetry::HOT_PATH_TELEMETRY
        );
        for r in 0..reps {
            let tput = crate::dist_bench::run_point(w, b, secs);
            // Machine-readable line, parsed by the dist telemetry-overhead
            // gate when it drives the stripped reference binary.
            println!("dist_point_sample: {tput:.1}");
            println!("  rep {r}: {:>12} acked tuples/s", fmt_num(tput));
        }
        return;
    }
    if args.iter().any(|a| a == "--dist-only") {
        // Run only the distributed suite (plus its gates, if requested) —
        // what the CI dist-smoke job executes.
        let dist = crate::dist_bench::run(smoke);
        match dist.write_json_at_repo_root() {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("failed to write BENCH_dist.json: {e}"),
        }
        if let Some(path) = dist_baseline {
            if let Err(msg) = crate::dist_bench::check_dist_baseline(&dist, &path) {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
        if let Some(path) = dist_telemetry_check {
            if let Err(msg) = crate::dist_bench::check_dist_telemetry_overhead(smoke, &path) {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--sim-point") {
        // Diagnostic mode: run one simulator scaling point, for A/B-ing the
        // engine without paying for the whole suite.
        let n = |k: usize| -> f64 { args[i + k].parse().expect("--sim-point WORKERS TUPLES") };
        let (w, t) = (n(1) as usize, n(2) as u64);
        let p = crate::sim_scaling::run_point(w, t);
        println!(
            "sim-point {}: {:.2}M processed/s (wall {:.3}s, virtual {:.3}s, acked {})",
            p.key,
            p.processed_per_wall_s / 1e6,
            p.wall_s,
            p.virtual_s,
            p.acked
        );
        return;
    }
    if args.iter().any(|a| a == "--sim-only") {
        // Run only the simulator sweep (plus its gate, if requested).
        let sim = crate::sim_scaling::run(smoke);
        match crate::sim_scaling::write_sim_json(&sim) {
            Ok(p) => println!("wrote {p}"),
            Err(e) => eprintln!("failed to write BENCH_sim.json: {e}"),
        }
        if let Some(path) = sim_baseline {
            let baseline_json = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read sim baseline {path}: {e}"));
            if let Err(msg) = crate::sim_scaling::check_sim_baseline(&sim.to_json(), &baseline_json)
            {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--rt-point") {
        // Diagnostic mode: repeat one rt_scaling point and print each sample,
        // for A/B-ing builds without paying for the whole suite.
        let n = |k: usize| -> f64 { args[i + k].parse().expect("--rt-point W B SECS REPS") };
        let (w, b, secs, reps) = (n(1) as usize, n(2) as usize, n(3), n(4) as usize);
        println!(
            "rt-point w{w} b{b} {secs}s x{reps} (telemetry_compiled: {})",
            dsdps::telemetry::HOT_PATH_TELEMETRY
        );
        for r in 0..reps {
            let tput = rt_scaling_throughput(w, b, secs);
            // Machine-readable line, parsed by the telemetry-overhead gate
            // when it drives the stripped reference binary.
            println!("rt_point_sample: {tput:.1}");
            println!("  rep {r}: {:>12} acked tuples/s", fmt_num(tput));
        }
        return;
    }
    let res = run(smoke);
    match res.write_json_at_repo_root() {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("\nfailed to write BENCH_kernels.json: {e}"),
    }
    match res.write_rt_json_at_repo_root() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("failed to write BENCH_rt.json: {e}"),
    }
    let recovery = crate::recovery::run(smoke);
    match recovery.write_json_at_repo_root() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("failed to write BENCH_recovery.json: {e}"),
    }
    let sim = crate::sim_scaling::run(smoke);
    match crate::sim_scaling::write_sim_json(&sim) {
        Ok(p) => println!("wrote {p}"),
        Err(e) => eprintln!("failed to write BENCH_sim.json: {e}"),
    }
    let dist = crate::dist_bench::run(smoke);
    match dist.write_json_at_repo_root() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("failed to write BENCH_dist.json: {e}"),
    }
    if let Some(path) = baseline {
        if let Err(msg) = check_rt_baseline(&res, &path) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
    if overload_gate {
        if let Err(msg) = check_overload_gate(&res) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
    if recovery_gate {
        if let Err(msg) = crate::recovery::check_recovery_gate(&recovery) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
    if let Some(path) = sim_baseline {
        let baseline_json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read sim baseline {path}: {e}"));
        if let Err(msg) = crate::sim_scaling::check_sim_baseline(&sim.to_json(), &baseline_json) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
    if let Some(path) = dist_baseline {
        if let Err(msg) = crate::dist_bench::check_dist_baseline(&dist, &path) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
    if let Some(path) = telemetry_check {
        if let Err(msg) = check_telemetry_overhead(res.mode, smoke, &path) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
    if let Some(path) = dist_telemetry_check {
        if let Err(msg) = crate::dist_bench::check_dist_telemetry_overhead(smoke, &path) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results_with_overload(thr_p99: f64, unthr_p99: f64, unthr_p50: f64) -> MicroResults {
        let mut res = MicroResults::new("smoke");
        res.rt_scaling.push((1, 64, 120_000.0));
        res.rt_overload = Some(RtOverload {
            throttled_p99_us: thr_p99,
            unthrottled_p99_us: unthr_p99,
            unthrottled_p50_us: unthr_p50,
        });
        res
    }

    #[test]
    fn overload_gate_passes_when_throttle_holds_the_tail() {
        let res = results_with_overload(20_000.0, 900_000.0, 400_000.0);
        check_overload_gate(&res).unwrap();
    }

    #[test]
    fn overload_gate_fails_when_throttled_tail_blows_past_five_x_median() {
        let res = results_with_overload(2_500_000.0, 900_000.0, 400_000.0);
        let err = check_overload_gate(&res).unwrap_err();
        assert!(err.contains("exceeds"), "unexpected message: {err}");
    }

    #[test]
    fn overload_gate_fails_when_the_bench_never_overloaded() {
        let res = results_with_overload(1_000.0, 2_000.0, 1_500.0);
        let err = check_overload_gate(&res).unwrap_err();
        assert!(
            err.contains("no longer overloads"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn overload_gate_fails_without_a_measurement() {
        let res = MicroResults::new("smoke");
        assert!(check_overload_gate(&res).is_err());
    }

    #[test]
    fn rt_json_with_overload_block_still_parses_for_the_baseline_gate() {
        let res = results_with_overload(20_000.0, 900_000.0, 400_000.0);
        let json = res.rt_scaling_json();
        assert!(json.contains("\"overload_queue_wait_us\""));
        assert!(json.contains("\"throttled_p99\": 20000.0"));
        // The throughput-regression parser must keep reading the document.
        assert_eq!(rt_baseline_w1_b64(&json), Some(120_000.0));
    }

    #[test]
    fn rt_json_without_overload_block_matches_the_legacy_shape() {
        let mut res = MicroResults::new("smoke");
        res.rt_scaling.push((1, 64, 120_000.0));
        let json = res.rt_scaling_json();
        assert!(!json.contains("overload_queue_wait_us"));
        assert_eq!(rt_baseline_w1_b64(&json), Some(120_000.0));
    }
}
