//! Dynamic-grouping experiments: the paper's claim 2 — "dynamic grouping
//! works as expected" — split-ratio tracking and overhead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
use dsdps::config::EngineConfig;
use dsdps::grouping::dynamic::{DynamicGrouping, DynamicGroupingHandle, SplitRatio};
use dsdps::grouping::{FieldsGrouping, Grouping, ShuffleGrouping};
use dsdps::sim::SimRuntime;
use dsdps::topology::{CostModel, Topology, TopologyBuilder};
use dsdps::tuple::{Fields, Tuple, Value};

use crate::table::{f2, f4, Table};

use super::{Ctx, ExpResult};

/// Steady spout emitting `rate` tuples/s with sequential keys.
struct SteadySpout {
    rate: f64,
    emitted: u64,
    next_id: u64,
}

impl Spout for SteadySpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        let due = (out.now_s() * self.rate) as u64;
        let batch = (due.saturating_sub(self.emitted)).min(32);
        for _ in 0..batch {
            self.emitted += 1;
            self.next_id += 1;
            out.emit_with_id(
                Tuple::with_fields(
                    [
                        Value::from(format!("k{}", self.next_id % 64)),
                        Value::from(self.next_id as i64),
                    ],
                    Fields::new(["key", "seq"]),
                ),
                self.next_id,
            );
        }
        true
    }
}

/// Sink that counts per-task arrivals.
struct CountingSink {
    hits: Arc<Vec<AtomicU64>>,
    my_index: usize,
}

impl Bolt for CountingSink {
    fn prepare(&mut self, ctx: &dsdps::component::TopologyContext) {
        self.my_index = ctx.task_index;
    }
    fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {
        self.hits[self.my_index].fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeGrouping {
    Shuffle,
    Fields,
    Dynamic,
}

fn micro_topology(
    grouping: EdgeGrouping,
    rate: f64,
    fan_out: usize,
) -> (Topology, Arc<Vec<AtomicU64>>) {
    let hits: Arc<Vec<AtomicU64>> = Arc::new((0..fan_out).map(|_| AtomicU64::new(0)).collect());
    let h = hits.clone();
    let mut b = TopologyBuilder::new("micro");
    b.set_spout("src", 1, move || SteadySpout {
        rate,
        emitted: 0,
        next_id: 0,
    })
    .unwrap()
    .output_fields(Fields::new(["key", "seq"]))
    .cost(CostModel {
        base_service_time_us: 5.0,
        jitter: 0.0,
    });
    {
        let mut sink = b
            .set_bolt("sink", fan_out, move || CountingSink {
                hits: h.clone(),
                my_index: 0,
            })
            .unwrap();
        sink.cost(CostModel {
            base_service_time_us: 30.0,
            jitter: 0.0,
        });
        match grouping {
            EdgeGrouping::Shuffle => sink.shuffle_grouping("src").unwrap(),
            EdgeGrouping::Fields => sink.fields_grouping("src", &["key"]).unwrap(),
            EdgeGrouping::Dynamic => sink.dynamic_grouping("src").unwrap(),
        };
    }
    (b.build().unwrap(), hits)
}

/// `fig-dg-track`: command a sequence of split ratios mid-run and measure
/// the fraction each task actually receives per interval.
pub fn fig_dg_track(ctx: &Ctx) -> ExpResult {
    let fan_out = 4;
    let phase_s = if ctx.quick { 5.0 } else { 10.0 };
    let (topology, _hits) = micro_topology(EdgeGrouping::Dynamic, 2000.0, fan_out);
    let handle: DynamicGroupingHandle = topology
        .dynamic_handle("src", "sink")
        .expect("dynamic edge");
    let mut engine = SimRuntime::new(topology, EngineConfig::default().with_cluster(2, 2, 4))?;

    // Phase schedule: uniform → skewed → bypass task 2 → back to uniform.
    let phases: Vec<(String, SplitRatio)> = vec![
        ("uniform".into(), SplitRatio::uniform(fan_out)),
        (
            "skewed 40/30/20/10".into(),
            SplitRatio::new(vec![0.4, 0.3, 0.2, 0.1])?,
        ),
        (
            "bypass task2".into(),
            SplitRatio::new(vec![1.0, 1.0, 0.0, 1.0])?,
        ),
        ("uniform again".into(), SplitRatio::uniform(fan_out)),
    ];

    let mut table = Table::new(
        "fig-dg-track: commanded vs observed per-task tuple share",
        &["t_s", "phase", "task", "commanded", "observed", "abs_err"],
    );
    let mut max_err_after_settle: f64 = 0.0;
    for (p, (label, ratio)) in phases.iter().enumerate() {
        handle.set_ratio(ratio.clone())?;
        let t_end = (p + 1) as f64 * phase_s;
        engine.run_until(t_end);
        // Per-interval observed shares from the task stats (sink tasks are
        // tasks 1..=fan_out).
        let snaps: Vec<_> = engine.history().iter().cloned().collect();
        let start_interval = (p as f64 * phase_s) as usize;
        for snap in snaps.iter().skip(start_interval) {
            let sink: Vec<u64> = snap.tasks[1..=fan_out].iter().map(|t| t.executed).collect();
            let total: u64 = sink.iter().sum();
            if total == 0 {
                continue;
            }
            for (task, &n) in sink.iter().enumerate() {
                let observed = n as f64 / total as f64;
                let commanded = ratio.get(task);
                let err = (observed - commanded).abs();
                // Skip the settling interval right after the switch.
                if snap.time_s > p as f64 * phase_s + 1.5 {
                    max_err_after_settle = max_err_after_settle.max(err);
                }
                table.row(&[
                    f2(snap.time_s),
                    label.clone(),
                    task.to_string(),
                    f4(commanded),
                    f4(observed),
                    f4(err),
                ]);
            }
        }
    }
    table.save_and_print(&ctx.out_dir, "fig-dg-track")?;
    println!(
        "max |observed - commanded| after settling: {:.4} (expected < 0.03)\n",
        max_err_after_settle
    );
    Ok(())
}

/// Measures nanoseconds per routing decision for one grouping router.
fn ns_per_decision(g: &mut dyn Grouping, iters: u64) -> f64 {
    let tuple = Tuple::with_fields(
        [Value::from("k17"), Value::from(17i64)],
        Fields::new(["key", "seq"]),
    );
    let mut out = Vec::with_capacity(4);
    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..iters {
        out.clear();
        g.select(&tuple, &mut out);
        sink = sink.wrapping_add(out.first().copied().unwrap_or(0));
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    std::hint::black_box(sink);
    elapsed / iters as f64
}

/// `fig-dg-overhead`: end-to-end throughput/latency parity plus per-decision
/// routing cost of dynamic grouping vs shuffle and fields.
pub fn fig_dg_overhead(ctx: &Ctx) -> ExpResult {
    let run_s = if ctx.quick { 10.0 } else { 30.0 };
    let mut table = Table::new(
        "fig-dg-overhead: end-to-end cost of each grouping (identical pipeline)",
        &[
            "grouping",
            "throughput_t/s",
            "avg_latency_ms",
            "p99_latency_ms",
        ],
    );
    for (label, grouping) in [
        ("shuffle", EdgeGrouping::Shuffle),
        ("fields", EdgeGrouping::Fields),
        ("dynamic(uniform)", EdgeGrouping::Dynamic),
    ] {
        let (topology, _) = micro_topology(grouping, 2000.0, 4);
        let mut engine = SimRuntime::new(topology, EngineConfig::default().with_cluster(2, 2, 4))?;
        let report = engine.run_until(run_s);
        table.row(&[
            label.to_owned(),
            f2(report.avg_throughput),
            f2(report.avg_complete_latency_ms),
            f2(report.p99_complete_latency_ms),
        ]);
    }
    table.save_and_print(&ctx.out_dir, "fig-dg-overhead")?;

    // Per-decision routing cost (real CPU time, not simulated).
    let iters = if ctx.quick { 200_000 } else { 2_000_000 };
    let schema = Fields::new(["key", "seq"]);
    let mut decision = Table::new(
        "fig-dg-overhead: per-tuple routing decision cost",
        &["grouping", "ns_per_decision"],
    );
    let mut shuffle = ShuffleGrouping::new(4, 0);
    decision.row(&["shuffle".into(), f2(ns_per_decision(&mut shuffle, iters))]);
    let mut fields = FieldsGrouping::new(4, &["key".into()], &schema).expect("field exists");
    decision.row(&["fields".into(), f2(ns_per_decision(&mut fields, iters))]);
    let handle = DynamicGroupingHandle::new(SplitRatio::uniform(4));
    let mut dynamic = DynamicGrouping::new(handle);
    decision.row(&["dynamic".into(), f2(ns_per_decision(&mut dynamic, iters))]);
    decision.save_and_print(&ctx.out_dir, "fig-dg-overhead-decision")?;
    Ok(())
}
