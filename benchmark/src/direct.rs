//! Direct-call costs of single layers: a fixed iteration count of one
//! public function per metric, median of five batches.  They are the floor
//! the in-run numbers are read against, and the unit costs of the flood
//! workloads' per-tuple CPU budget.  Every traced pass reports them, so
//! they read the same whichever workload carried them.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use drnn::matrix::Matrix;
use drnn::model::{Drnn, DrnnConfig};
use dsdps::acker::ShardedAcker;
use dsdps::component::{Bolt, BoltOutput};
use dsdps::dist::codec::{self, Frame, WireTuple};
use dsdps::dist::transport::{BatchWriter, Conn, ConnStats, FrameReader, Listener};
use dsdps::grouping::dynamic::{DynamicGrouping, DynamicGroupingHandle, SplitRatio};
use dsdps::grouping::{FieldsGrouping, Grouping, ShuffleGrouping};
use dsdps::metrics::{LatencyHistogram, MetricsSnapshot};
use dsdps::rt::{CreditLedger, SnapshotKind, StateSnapshot};
use dsdps::scheduler::WorkerId;
use dsdps::telemetry::{Journal, JournalEvent, Registry};
use dsdps::topology::TaskId;
use dsdps::tuple::{Fields, Tuple, Value};
use dsdps::window::{WindowAssigner, WindowedBolt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stream_apps::workload::{RateDriver, RatePattern, ZipfSampler};
use stream_control::detector::{Detector, DetectorConfig};
use stream_control::features::{extract, FeatureSpec};
use stream_control::planner::{plan_ratio, PlanPolicy};
use stream_control::predictor::{DrnnPredictor, PerformancePredictor};

use crate::sim_predictive;
use crate::stats::median;
use crate::wrap::UrlCount;

const BATCHES: usize = 5;
const KEYS: usize = 5000;
const FRAME_TUPLES: usize = 64;

/// Nanoseconds per call of `f`: median over [`BATCHES`] batches of `iters`.
fn per_call_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut batches = [0.0; BATCHES];
    for b in &mut batches {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        *b = t.elapsed().as_nanos() as f64 / iters as f64;
    }
    median(&batches)
}

/// The flood workloads' payload.
fn payload(i: u64) -> [Value; 4] {
    [
        Value::from(i as i64),
        Value::from(format!("sensor-{:04}", i % 50)),
        Value::from(0.5 + i as f64 * 0.25),
        Value::from(i.is_multiple_of(2)),
    ]
}

type Out = Vec<(&'static str, f64)>;

fn data_plane(out: &mut Out) {
    // One tree of the flood topology: track, one anchored emit, two acks.
    let acker = ShardedAcker::new(8);
    let mut root = 0u64;
    out.push((
        "acker.cycle_ns",
        per_call_ns(200_000, || {
            root += 1;
            let e0 = acker.new_edge_id();
            acker.track(root, e0, TaskId(0), root, 0.0);
            let e1 = acker.new_edge_id();
            acker.on_emit(root, e1);
            acker.on_ack(root, e0, 0.1);
            acker.on_ack(root, e1, 0.2);
            black_box(acker.drain_outcomes().len());
        }),
    ));

    let key = Value::from("sensor-0042");
    let mut i = 0i64;
    out.push((
        "tuple.build_clone_ns",
        per_call_ns(500_000, || {
            i += 1;
            let t = Tuple::of([
                Value::from(i),
                key.clone(),
                Value::from(0.5),
                Value::from(true),
            ]);
            black_box(t.clone());
        }),
    ));

    let schema = Fields::new(["url", "id"]);
    let tuple = Tuple::with_fields(
        [
            Value::from("http://site7.example.com/page42"),
            Value::from(42i64),
        ],
        schema.clone(),
    );
    let mut picks = Vec::with_capacity(8);
    let mut select = |g: &mut dyn Grouping| {
        per_call_ns(1_000_000, || {
            picks.clear();
            g.select(&tuple, &mut picks);
            black_box(picks.first().copied());
        })
    };
    out.push((
        "grouping.shuffle_ns",
        select(&mut ShuffleGrouping::new(2, 0)),
    ));
    out.push((
        "grouping.fields_ns",
        select(&mut FieldsGrouping::new(2, &["url".into()], &schema).expect("fields grouping")),
    ));
    let handle = DynamicGroupingHandle::new(SplitRatio::uniform(3));
    out.push((
        "grouping.dynamic_ns",
        select(&mut DynamicGrouping::new(handle.clone())),
    ));
    let ratios = [
        SplitRatio::new(vec![0.49, 0.02, 0.49]).expect("ratio"),
        SplitRatio::uniform(3),
    ];
    let mut flip = 0;
    out.push((
        "grouping.dynamic_set_ratio_ns",
        per_call_ns(200_000, || {
            flip ^= 1;
            handle.set_ratio(ratios[flip].clone()).expect("set_ratio");
        }),
    ));

    let ledger = CreditLedger::new(4);
    out.push((
        "credit.acquire_grant_ns",
        per_call_ns(1_000_000, || {
            ledger.grant(1, 1);
            black_box(ledger.try_acquire(1));
        }),
    ));
}

fn state(out: &mut Out) {
    let urls: Vec<Tuple> = (0..KEYS)
        .map(|i| {
            Tuple::with_fields(
                [
                    Value::from(format!("http://site{}.example.com/page{i}", i % 251)),
                    Value::from(i as i64),
                ],
                Fields::new(["url", "id"]),
            )
        })
        .collect();
    let mut bolt = WindowedBolt::new(WindowAssigner::Tumbling { size_s: 1.0 }, UrlCount, 0.0);
    let mut sink = BoltOutput::new();
    sink.set_now(0.5);
    let mut i = 0;
    out.push((
        "window.add_ns",
        per_call_ns(500_000, || {
            i = (i + 1) % KEYS;
            bolt.execute(&urls[i], &mut sink);
        }),
    ));
    // Closing a window of KEYS distinct URLs: fill it, then let the clock
    // pass its end.  Only the closing call is timed.
    let mut window = 10.0;
    let mut rolls = [0.0; BATCHES];
    for r in &mut rolls {
        sink.set_now(window + 0.5);
        for t in &urls {
            bolt.execute(t, &mut sink);
        }
        sink.drain();
        window += 1.0;
        sink.set_now(window);
        let t0 = Instant::now();
        bolt.tick(&mut sink);
        *r = t0.elapsed().as_secs_f64() * 1e6;
        black_box(sink.drain().0.len());
    }
    out.push(("window.roll_us", median(&rolls)));

    let counts: HashMap<String, u64> = (0..KEYS)
        .map(|i| {
            (
                format!("http://site{}.example.com/page{i}", i % 251),
                i as u64,
            )
        })
        .collect();
    let mut snap = StateSnapshot::encode(SnapshotKind::Full, &counts);
    out.push((
        "checkpoint.snapshot_encode_us",
        per_call_ns(50, || {
            snap = StateSnapshot::encode(SnapshotKind::Full, black_box(&counts));
        }) / 1e3,
    ));
    out.push((
        "checkpoint.restore_decode_us",
        per_call_ns(50, || {
            let back: HashMap<String, u64> = snap.decode().expect("decode");
            black_box(back.len());
        }) / 1e3,
    ));
    out.push(("checkpoint.bytes_per_key", snap.len() as f64 / KEYS as f64));
}

fn wire_batch() -> Vec<WireTuple> {
    (0..FRAME_TUPLES as u64)
        .map(|i| WireTuple {
            token: 1_000 + i * 17,
            dest_task: (i % 4) as u32,
            stream: 0,
            dedup: Some(i + 1),
            trace_root: None,
            values: payload(i).to_vec(),
        })
        .collect()
}

fn wire(out: &mut Out) {
    let frame = Frame::TupleBatch {
        items: wire_batch(),
    };
    let mut buf = Vec::new();
    codec::encode_frame_body(&frame, &mut buf);
    let n = FRAME_TUPLES as f64;
    out.push(("codec.bytes_per_tuple", buf.len() as f64 / n));
    let mut scratch = Vec::with_capacity(buf.len());
    out.push((
        "codec.encode_ns_per_tuple",
        per_call_ns(20_000, || {
            scratch.clear();
            codec::encode_frame_body(black_box(&frame), &mut scratch);
        }) / n,
    ));
    out.push((
        "codec.decode_ns_per_tuple",
        per_call_ns(20_000, || {
            black_box(codec::decode_frame(black_box(&buf)).expect("decode"));
        }) / n,
    ));

    // One frame of 64 tuples through BatchWriter → Unix socket → an echo
    // thread's FrameReader and back.
    let Ok((listener, endpoint)) = Listener::unix_temp() else {
        return;
    };
    let echo = std::thread::spawn(move || {
        let conn = loop {
            match listener.accept() {
                Ok(Some(c)) => break c,
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(_) => return,
            }
        };
        let Ok(read_half) = conn.try_clone() else {
            return;
        };
        let mut reader = FrameReader::new(read_half);
        let mut writer = BatchWriter::new(conn, FRAME_TUPLES, Duration::from_millis(1));
        loop {
            match reader.read_frame() {
                Ok(Some(Frame::TupleBatch { items })) => {
                    for item in items {
                        if writer.push_tuple(item).is_err() {
                            return;
                        }
                    }
                }
                Ok(Some(_)) | Err(_) => return,
                Ok(None) => {}
            }
        }
    });
    if let Ok(conn) = Conn::connect(&endpoint, Duration::from_secs(2)) {
        if let Ok(read_half) = conn.try_clone() {
            let stats = ConnStats::new();
            let mut reader = FrameReader::new(read_half);
            let mut writer = BatchWriter::new(conn, FRAME_TUPLES, Duration::from_millis(1));
            writer.set_stats(stats.clone());
            let items = wire_batch();
            let t0 = Instant::now();
            let ns = per_call_ns(2_000, || {
                for item in &items {
                    writer.push_tuple(item.clone()).expect("push");
                }
                while !matches!(reader.read_frame(), Ok(Some(_))) {}
            });
            let elapsed_us = t0.elapsed().as_secs_f64() * 1e6;
            out.push(("transport.roundtrip_us_per_frame", ns / 1e3));
            out.push((
                "transport.write_block_share",
                stats.write_block_us.load(Ordering::Relaxed) as f64 / elapsed_us,
            ));
            let _ = writer.send(&Frame::Shutdown);
        }
    }
    let _ = echo.join();
}

fn telemetry(out: &mut Out) {
    let journal = Journal::new();
    out.push((
        "telemetry.journal_append_ns",
        per_call_ns(100_000, || {
            journal.append(JournalEvent::WorkerRecovered {
                time_s: 1.0,
                worker: 1,
            });
        }),
    ));
    let registry = Registry::new();
    let counter = registry.counter("bench_direct_total", &[("layer", "telemetry")]);
    out.push((
        "telemetry.counter_inc_ns",
        per_call_ns(5_000_000, || counter.inc()),
    ));
    let mut hist = LatencyHistogram::new();
    let mut v = 1.0;
    out.push((
        "metrics.histogram_record_ns",
        per_call_ns(2_000_000, || {
            v = v * 1.0001 + 1.0;
            hist.record(black_box(v));
        }),
    ));
    black_box(hist.count());
}

fn control(out: &mut Out) {
    // A short monitored run of the CQ app is the history the control-loop
    // layers are replayed on.
    let (history, workers, _) = sim_predictive::collect(7, 60.0);
    let refs: Vec<&MetricsSnapshot> = history.iter().collect();
    let worker = workers[0];
    let spec = FeatureSpec::full();
    let last = refs[refs.len() - 1];
    out.push((
        "features.extract_us",
        per_call_ns(200_000, || {
            black_box(extract(&spec, last, worker));
        }) / 1e3,
    ));

    let mut drnn = DrnnPredictor::new(sim_predictive::drnn_config(2));
    let mut arima = sim_predictive::arima();
    let mut svr = sim_predictive::svr();
    let fitted = drnn.fit(&refs, &workers).is_ok()
        && arima.fit(&refs, &workers).is_ok()
        && svr.fit(&refs, &workers).is_ok();
    if fitted {
        let predict = |m: &dyn PerformancePredictor, iters| {
            per_call_ns(iters, || {
                black_box(m.predict(&refs, worker));
            }) / 1e3
        };
        out.push(("predictor.drnn_predict_us", predict(&drnn, 500)));
        out.push(("predictor.arima_predict_us", predict(&arima, 500)));
        out.push(("predictor.svr_predict_us", predict(&svr, 500)));
    }

    let mut detector = Detector::new(DetectorConfig::default());
    detector.set_baseline(WorkerId(0), 100.0);
    let mut lat = 100.0;
    out.push((
        "detector.observe_ns",
        per_call_ns(2_000_000, || {
            lat = if lat > 400.0 { 100.0 } else { lat * 1.01 };
            black_box(detector.observe(WorkerId(0), lat));
        }),
    ));

    let tasks: Vec<TaskId> = (0..8).map(TaskId).collect();
    let placement: HashMap<TaskId, WorkerId> = tasks.iter().map(|&t| (t, WorkerId(t.0))).collect();
    let latencies: HashMap<WorkerId, f64> = (0..8)
        .map(|i| (WorkerId(i), 100.0 + 37.0 * i as f64))
        .collect();
    out.push((
        "planner.plan_ratio_ns",
        per_call_ns(100_000, || {
            black_box(
                plan_ratio(
                    PlanPolicy::CapacityProportional { alpha: 1.0 },
                    &tasks,
                    &placement,
                    &[WorkerId(3)],
                    &latencies,
                    0.02,
                )
                .expect("plan"),
            );
        }),
    ));
}

fn kernels(out: &mut Out) {
    let square = |n: usize, seed: usize| {
        Matrix::from_vec(
            n,
            n,
            (0..n * n)
                .map(|i| ((i + seed) % 17) as f64 / 17.0 - 0.4)
                .collect(),
        )
    };
    let (a, b) = (square(64, 1), square(64, 5));
    out.push((
        "drnn.gemm_64_ns",
        per_call_ns(2_000, || {
            black_box(a.matmul(&b));
        }),
    ));
    // The predictor's shape: sequence 16, batch 1, two LSTM layers of 32.
    let features = FeatureSpec::full().dim();
    let model = Drnn::new(DrnnConfig {
        hidden: vec![32, 32],
        ..DrnnConfig::paper_default(features, 1)
    });
    let xs: Vec<Matrix> = (0..16)
        .map(|t| {
            Matrix::from_vec(
                1,
                features,
                (0..features).map(|i| ((t + i) % 7) as f64 / 7.0).collect(),
            )
        })
        .collect();
    out.push((
        "drnn.forward_us",
        per_call_ns(2_000, || {
            black_box(model.predict(&xs));
        }) / 1e3,
    ));
}

fn generators(out: &mut Out) {
    let zipf = ZipfSampler::new(KEYS, 1.1);
    let mut rng = StdRng::seed_from_u64(11);
    out.push((
        "workload.zipf_sample_ns",
        per_call_ns(2_000_000, || {
            black_box(zipf.sample(&mut rng));
        }),
    ));
    let mut driver = RateDriver::new(RatePattern::paper_default(800.0));
    let mut t = 0.0;
    out.push((
        "workload.rate_driver_due_ns",
        per_call_ns(2_000_000, || {
            t += 1e-4;
            let due = driver.due(t);
            driver.emitted(due);
        }),
    ));
}

/// Every direct-call metric, measured now.
pub fn measure() -> Out {
    let mut out = Vec::new();
    data_plane(&mut out);
    state(&mut out);
    wire(&mut out);
    telemetry(&mut out);
    control(&mut out);
    kernels(&mut out);
    generators(&mut out);
    out
}

/// The flood workloads' per-tuple CPU budget, µs per acked tuple.
/// `user + engine` is the traced pass's CPU per acked tree (mean over the
/// accounted part of the window) by construction;
/// the engine part is explained as direct-call cost × calls per tuple tree
/// as far as that goes, and the rest is reported as unattributed.
pub fn put_budget(name: &str, direct: &[(&'static str, f64)], layer: &mut Out) {
    let on_dist = match name {
        "rt_flood" => false,
        "dist_flood" => true,
        _ => return,
    };
    let get = |from: &[(&'static str, f64)], key: &str| {
        from.iter().rev().find(|e| e.0 == key).map_or(0.0, |e| e.1)
    };
    let us = |key: &str, calls: f64| get(direct, key) * calls / 1e3;
    let user = get(layer, "budget.user_us");
    let engine = (get(layer, "budget.cpu_us") - user).max(0.0);
    // Per tree: one acker cycle, two shuffle decisions, one build + one
    // clone; on `dist` three tuple crossings (coordinator → relay worker →
    // coordinator → sink worker), each one encode and one decode, and one
    // credit per 64-tuple batch on each of the two deliveries.
    let acker = us("acker.cycle_ns", 1.0);
    let grouping = us("grouping.shuffle_ns", 2.0);
    let tuple = us("tuple.build_clone_ns", 1.0);
    let (codec, credit) = if on_dist {
        (
            us("codec.encode_ns_per_tuple", 3.0) + us("codec.decode_ns_per_tuple", 3.0),
            us("credit.acquire_grant_ns", 2.0 / FRAME_TUPLES as f64),
        )
    } else {
        (0.0, 0.0)
    };
    layer.push(("budget.engine_us", engine));
    layer.push(("budget.acker_us", acker));
    layer.push(("budget.grouping_us", grouping));
    layer.push(("budget.tuple_us", tuple));
    layer.push(("budget.codec_us", codec));
    layer.push(("budget.credit_us", credit));
    layer.push((
        "budget.unattributed_us",
        engine - acker - grouping - tuple - codec - credit,
    ));
}
