//! Quickstart: build a topology, run it on the simulated runtime, steer a
//! dynamic grouping while it runs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use streampc::dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
use streampc::dsdps::config::EngineConfig;
use streampc::dsdps::grouping::dynamic::SplitRatio;
use streampc::dsdps::sim::SimRuntime;
use streampc::dsdps::topology::{CostModel, TopologyBuilder};
use streampc::dsdps::tuple::{Fields, Tuple, Value};

/// Emits 1000 sentences per second.
struct SentenceSpout {
    emitted: u64,
    next_id: u64,
}

const SENTENCES: [&str; 4] = [
    "the quick brown fox",
    "jumps over the lazy dog",
    "streams all the way down",
    "predictive control keeps it flowing",
];

impl Spout for SentenceSpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        let due = (out.now_s() * 1000.0) as u64;
        for _ in 0..due.saturating_sub(self.emitted).min(32) {
            self.emitted += 1;
            self.next_id += 1;
            let s = SENTENCES[(self.next_id % 4) as usize];
            out.emit_with_id(
                Tuple::with_fields([Value::from(s)], Fields::new(["sentence"])),
                self.next_id,
            );
        }
        true
    }
}

/// Splits sentences into words.
struct SplitBolt;

impl Bolt for SplitBolt {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        let Some(sentence) = tuple.get_by_field("sentence").and_then(Value::as_str) else {
            out.fail();
            return;
        };
        for word in sentence.split_whitespace() {
            out.emit(Tuple::with_fields(
                [Value::from(word)],
                Fields::new(["word"]),
            ));
        }
    }
}

/// Counts words (partial counts per task; merged downstream in real apps).
struct CountBolt {
    seen: u64,
}

impl Bolt for CountBolt {
    fn execute(&mut self, _tuple: &Tuple, _out: &mut BoltOutput) {
        self.seen += 1;
    }
}

fn main() {
    // 1. Declare the topology: spout -> split (shuffle) -> count (dynamic).
    let mut builder = TopologyBuilder::new("word-count");
    builder
        .set_spout("sentences", 1, || SentenceSpout {
            emitted: 0,
            next_id: 0,
        })
        .unwrap()
        .output_fields(Fields::new(["sentence"]))
        .cost(CostModel {
            base_service_time_us: 10.0,
            jitter: 0.05,
        });
    builder
        .set_bolt("split", 2, || SplitBolt)
        .unwrap()
        .output_fields(Fields::new(["word"]))
        .shuffle_grouping("sentences")
        .unwrap();
    builder
        .set_bolt("count", 4, || CountBolt { seen: 0 })
        .unwrap()
        .dynamic_grouping("split")
        .unwrap();
    let topology = builder.build().unwrap();

    // Grab the live handle of the dynamic edge before starting.
    let handle = topology
        .dynamic_handle("split", "count")
        .expect("dynamic edge declared above");

    // 2. Run on the simulated cluster: 2 machines x 2 workers x 4 cores.
    let config = EngineConfig::default().with_cluster(2, 2, 4);
    let mut engine = SimRuntime::new(topology, config).unwrap();

    println!("running 5 s with a uniform split...");
    let report = engine.run_until(5.0);
    println!(
        "  acked {} tuple trees, avg complete latency {:.2} ms",
        report.acked, report.avg_complete_latency_ms
    );

    // 3. Steer the dynamic grouping while the topology runs: bypass task 2.
    println!("bypassing count task 2 on the fly...");
    handle
        .set_ratio(SplitRatio::new(vec![1.0, 1.0, 0.0, 1.0]).unwrap())
        .unwrap();
    let report = engine.run_until(10.0);
    println!(
        "  acked {} tuple trees total, avg complete latency {:.2} ms",
        report.acked, report.avg_complete_latency_ms
    );

    // 4. Inspect the per-task distribution from the metrics.
    let last = engine.history().latest().unwrap();
    println!("per-task executed counts in the final interval:");
    for task in &last.tasks {
        if task.component == "count" {
            println!(
                "  {} executed {:>5} tuples (queue {})",
                task.task, task.executed, task.queue_len
            );
        }
    }
}
