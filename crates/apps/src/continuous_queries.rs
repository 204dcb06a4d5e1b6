//! **Continuous Queries** — the paper's second evaluation application.
//!
//! Topology:
//!
//! ```text
//! sensor-spout ──dynamic──► query ──global──► alert
//! ```
//!
//! A fleet of simulated devices streams readings; the `query` stage
//! evaluates a set of *standing queries* (predicate + windowed aggregate)
//! against every reading and emits one result row per query per window;
//! `alert` collects the results.  The `spout → query` edge uses dynamic
//! grouping: any query task can evaluate any reading because the standing
//! queries are replicated state, so redirecting tuples is always safe.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use dsdps::component::{Bolt, BoltOutput, MessageId, Spout, SpoutOutput};
use dsdps::error::Result;
use dsdps::rt::{SnapshotKind, StateSnapshot, StatefulComponent};
use dsdps::topology::{CostModel, Topology, TopologyBuilder};
use dsdps::tuple::{Fields, Tuple, Value};

use crate::workload::{RateDriver, RatePattern};

/// Metrics a device reports.
pub const METRICS: [&str; 3] = ["temperature", "load", "rate"];

/// Comparison operator of a query predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryOp {
    /// Value strictly greater than the threshold.
    Gt,
    /// Value strictly less than the threshold.
    Lt,
}

/// Windowed aggregate of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryAgg {
    /// Number of matching readings.
    Count,
    /// Mean of matching values.
    Avg,
    /// Maximum matching value.
    Max,
}

/// A standing query: `SELECT agg(value) FROM stream WHERE metric = m AND
/// value op threshold GROUP BY window`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Query id.
    pub id: u32,
    /// Metric filter.
    pub metric: String,
    /// Predicate operator.
    pub op: QueryOp,
    /// Predicate threshold.
    pub threshold: f64,
    /// Aggregate.
    pub agg: QueryAgg,
}

impl Query {
    /// Whether a reading satisfies the predicate.
    pub fn matches(&self, metric: &str, value: f64) -> bool {
        if metric != self.metric {
            return false;
        }
        match self.op {
            QueryOp::Gt => value > self.threshold,
            QueryOp::Lt => value < self.threshold,
        }
    }
}

/// Generates `n` deterministic standing queries.
pub fn generate_queries(n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u32)
        .map(|id| {
            let metric = METRICS[rng.gen_range(0..METRICS.len())].to_owned();
            let op = if rng.gen_bool(0.5) {
                QueryOp::Gt
            } else {
                QueryOp::Lt
            };
            let threshold = rng.gen_range(20.0..80.0);
            let agg = match rng.gen_range(0..3) {
                0 => QueryAgg::Count,
                1 => QueryAgg::Avg,
                _ => QueryAgg::Max,
            };
            Query {
                id,
                metric,
                op,
                threshold,
                agg,
            }
        })
        .collect()
}

/// One emitted query result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Query id.
    pub query: u32,
    /// Window index.
    pub window: u64,
    /// Aggregate value.
    pub value: f64,
    /// Matching readings in the window (for Avg/Max provenance).
    pub matched: u64,
}

/// Shared observability of a running CQ topology.
#[derive(Debug, Default)]
pub struct CqStats {
    /// Readings emitted by the spout.
    pub emitted: AtomicU64,
    /// Predicate evaluations performed.
    pub evaluated: AtomicU64,
    /// Readings that matched at least one query.
    pub matched: AtomicU64,
    /// Collected query results.
    pub results: Mutex<Vec<QueryResult>>,
}

/// Configuration of the Continuous Queries topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CqConfig {
    /// Arrival-rate curve of the readings stream.
    pub pattern: RatePattern,
    /// Number of simulated devices.
    pub n_devices: usize,
    /// Number of standing queries.
    pub n_queries: usize,
    /// Parallelism of the query stage (the controlled stage).
    pub query_parallelism: usize,
    /// Window length, seconds.
    pub window_s: f64,
    /// Use dynamic grouping on `spout → query` (shuffle otherwise).
    pub dynamic_grouping: bool,
    /// Workload seed.
    pub seed: u64,
    /// Simulator cost of one spout emission (µs).
    pub spout_cost_us: f64,
    /// Simulator cost of one query-stage execution (µs).
    pub query_cost_us: f64,
}

impl Default for CqConfig {
    fn default() -> Self {
        CqConfig {
            pattern: RatePattern::paper_default(1000.0),
            n_devices: 500,
            n_queries: 40,
            query_parallelism: 4,
            window_s: 5.0,
            dynamic_grouping: true,
            seed: 42,
            spout_cost_us: 15.0,
            query_cost_us: 120.0,
        }
    }
}

/// Sensor-reading spout: per-device random-walk values.
struct SensorSpout {
    driver: RateDriver,
    values: Vec<f64>,
    next_id: MessageId,
    pending: HashMap<MessageId, Tuple>,
    replay_queue: Vec<MessageId>,
    stats: Arc<CqStats>,
    rng: StdRng,
    batch_cap: u64,
}

impl SensorSpout {
    fn new(cfg: &CqConfig, stats: Arc<CqStats>) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let values = (0..cfg.n_devices)
            .map(|_| rng.gen_range(20.0..80.0))
            .collect();
        SensorSpout {
            driver: RateDriver::new(cfg.pattern.clone()),
            values,
            next_id: 0,
            pending: HashMap::new(),
            replay_queue: Vec::new(),
            stats,
            rng,
            batch_cap: 64,
        }
    }
}

impl Spout for SensorSpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        let now = out.now_s();
        if let Some(id) = self.replay_queue.pop() {
            if let Some(tuple) = self.pending.get(&id) {
                out.emit_with_id(tuple.clone(), id);
                return true;
            }
        }
        let due = self.driver.due(now).min(self.batch_cap);
        for _ in 0..due {
            let device = self.rng.gen_range(0..self.values.len());
            let metric = METRICS[device % METRICS.len()];
            let v = &mut self.values[device];
            *v = (*v + self.rng.gen_range(-2.0..2.0)).clamp(0.0, 100.0);
            let tuple = Tuple::of([
                Value::from(device),
                Value::from(metric),
                Value::from(*v),
                Value::from(now),
            ]);
            self.next_id += 1;
            self.pending.insert(self.next_id, tuple.clone());
            out.emit_with_id(tuple, self.next_id);
        }
        if due > 0 {
            self.driver.emitted(due);
            self.stats.emitted.fetch_add(due, Ordering::Relaxed);
        }
        true
    }

    fn ack(&mut self, id: MessageId) {
        self.pending.remove(&id);
    }

    fn fail(&mut self, id: MessageId) {
        if self.pending.contains_key(&id) {
            self.replay_queue.push(id);
        }
    }
}

#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
struct WindowAcc {
    count: u64,
    sum: f64,
    max: f64,
}

/// Evaluates all standing queries against each reading; emits one result
/// row per query per window.
struct QueryBolt {
    queries: Vec<Query>,
    window_s: f64,
    current_window: Option<u64>,
    acc: Vec<WindowAcc>,
    stats: Arc<CqStats>,
}

impl QueryBolt {
    fn new(queries: Vec<Query>, window_s: f64, stats: Arc<CqStats>) -> Self {
        let acc = vec![WindowAcc::default(); queries.len()];
        QueryBolt {
            queries,
            window_s,
            current_window: None,
            acc,
            stats,
        }
    }

    fn flush(&mut self, window: u64, out: &mut BoltOutput) {
        for (q, a) in self.queries.iter().zip(&mut self.acc) {
            if a.count == 0 {
                continue;
            }
            let value = match q.agg {
                QueryAgg::Count => a.count as f64,
                QueryAgg::Avg => a.sum / a.count as f64,
                QueryAgg::Max => a.max,
            };
            out.emit_unanchored(Tuple::of([
                Value::from(q.id as i64),
                Value::from(window as i64),
                Value::from(value),
                Value::from(a.count as i64),
            ]));
            *a = WindowAcc::default();
        }
    }

    fn roll_to(&mut self, window: u64, out: &mut BoltOutput) {
        match self.current_window {
            None => self.current_window = Some(window),
            Some(w) if window > w => {
                self.flush(w, out);
                self.current_window = Some(window);
            }
            _ => {}
        }
    }
}

impl Bolt for QueryBolt {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        let window = (out.now_s() / self.window_s) as u64;
        self.roll_to(window, out);
        let (Some(metric), Some(value)) = (
            tuple.get(1).and_then(Value::as_str),
            tuple.get(2).and_then(Value::as_f64),
        ) else {
            out.fail();
            return;
        };
        let mut any = false;
        for (q, a) in self.queries.iter().zip(&mut self.acc) {
            self.stats.evaluated.fetch_add(1, Ordering::Relaxed);
            if q.matches(metric, value) {
                a.count += 1;
                a.sum += value;
                a.max = if a.count == 1 {
                    value
                } else {
                    a.max.max(value)
                };
                any = true;
            }
        }
        if any {
            self.stats.matched.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn tick(&mut self, out: &mut BoltOutput) {
        let window = (out.now_s() / self.window_s) as u64;
        self.roll_to(window, out);
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
        Some(self)
    }
}

/// Snapshot image of a [`QueryBolt`]: current window plus one accumulator
/// per standing query (the queries themselves are replicated config, not
/// state).
type QueryState = (Option<u64>, Vec<WindowAcc>);

impl StatefulComponent for QueryBolt {
    fn snapshot(&mut self) -> StateSnapshot {
        let state: QueryState = (self.current_window, self.acc.clone());
        StateSnapshot::encode(SnapshotKind::Full, &state)
    }

    fn restore(
        &mut self,
        base: &StateSnapshot,
        deltas: &[StateSnapshot],
    ) -> std::result::Result<(), String> {
        if !deltas.is_empty() {
            return Err("QueryBolt snapshots are full-only".into());
        }
        let (window, acc): QueryState = base.decode()?;
        if acc.len() != self.queries.len() {
            return Err(format!(
                "snapshot has {} accumulators but {} standing queries",
                acc.len(),
                self.queries.len()
            ));
        }
        self.current_window = window;
        self.acc = acc;
        Ok(())
    }
}

/// Collects query results from all query tasks.
struct AlertBolt {
    stats: Arc<CqStats>,
}

impl Bolt for AlertBolt {
    fn execute(&mut self, tuple: &Tuple, _out: &mut BoltOutput) {
        let (Some(query), Some(window), Some(value), Some(matched)) = (
            tuple.get(0).and_then(Value::as_i64),
            tuple.get(1).and_then(Value::as_i64),
            tuple.get(2).and_then(Value::as_f64),
            tuple.get(3).and_then(Value::as_i64),
        ) else {
            return;
        };
        self.stats.results.lock().push(QueryResult {
            query: query as u32,
            window: window as u64,
            value,
            matched: matched as u64,
        });
    }
}

/// Builds the Continuous Queries topology.
pub fn build_continuous_queries(cfg: &CqConfig) -> Result<(Topology, Arc<CqStats>)> {
    let stats = Arc::new(CqStats::default());
    let queries = generate_queries(cfg.n_queries, cfg.seed);
    let mut b = TopologyBuilder::new("continuous-queries");

    let spout_cfg = cfg.clone();
    let spout_stats = stats.clone();
    b.set_spout("sensor-spout", 1, move || {
        SensorSpout::new(&spout_cfg, spout_stats.clone())
    })?
    .output_fields(Fields::new(["device", "metric", "value", "ts"]))
    .cost(CostModel {
        base_service_time_us: cfg.spout_cost_us,
        jitter: 0.05,
    });

    let q_stats = stats.clone();
    let window_s = cfg.window_s;
    {
        let mut query = b.set_bolt("query", cfg.query_parallelism, move || {
            QueryBolt::new(queries.clone(), window_s, q_stats.clone())
        })?;
        query
            .output_fields(Fields::new(["query", "window", "value", "matched"]))
            .cost(CostModel {
                base_service_time_us: cfg.query_cost_us,
                jitter: 0.1,
            });
        if cfg.dynamic_grouping {
            query.dynamic_grouping("sensor-spout")?;
        } else {
            query.shuffle_grouping("sensor-spout")?;
        }
    }

    let a_stats = stats.clone();
    b.set_bolt("alert", 1, move || AlertBolt {
        stats: a_stats.clone(),
    })?
    .cost(CostModel {
        base_service_time_us: 20.0,
        jitter: 0.05,
    })
    .global_grouping("query")?;

    Ok((b.build()?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsdps::config::EngineConfig;
    use dsdps::sim::SimRuntime;

    fn small_cfg() -> CqConfig {
        CqConfig {
            pattern: RatePattern::Constant { rate: 400.0 },
            n_devices: 60,
            n_queries: 12,
            query_parallelism: 3,
            window_s: 2.0,
            ..CqConfig::default()
        }
    }

    #[test]
    fn query_generation_is_deterministic() {
        let a = generate_queries(20, 7);
        let b = generate_queries(20, 7);
        assert_eq!(a, b);
        let c = generate_queries(20, 8);
        assert_ne!(a, c);
        assert!(a.iter().all(|q| METRICS.contains(&q.metric.as_str())));
    }

    #[test]
    fn query_matching_semantics() {
        let q = Query {
            id: 0,
            metric: "load".into(),
            op: QueryOp::Gt,
            threshold: 50.0,
            agg: QueryAgg::Count,
        };
        assert!(q.matches("load", 60.0));
        assert!(!q.matches("load", 50.0));
        assert!(!q.matches("load", 40.0));
        assert!(!q.matches("temperature", 60.0));
        let lt = Query {
            op: QueryOp::Lt,
            ..q
        };
        assert!(lt.matches("load", 40.0));
        assert!(!lt.matches("load", 60.0));
    }

    #[test]
    fn query_bolt_aggregates_per_window() {
        let queries = vec![
            Query {
                id: 0,
                metric: "load".into(),
                op: QueryOp::Gt,
                threshold: 0.0,
                agg: QueryAgg::Avg,
            },
            Query {
                id: 1,
                metric: "load".into(),
                op: QueryOp::Gt,
                threshold: 0.0,
                agg: QueryAgg::Max,
            },
        ];
        let stats = Arc::new(CqStats::default());
        let mut bolt = QueryBolt::new(queries, 1.0, stats);
        let mut out = BoltOutput::new();
        let reading = |v: f64| {
            Tuple::of([
                Value::from(1i64),
                Value::from("load"),
                Value::from(v),
                Value::from(0.0),
            ])
        };
        out.set_now(0.1);
        bolt.execute(&reading(10.0), &mut out);
        out.set_now(0.5);
        bolt.execute(&reading(30.0), &mut out);
        assert!(out.drain().0.is_empty(), "window still open");
        // Crossing into window 1 flushes window 0.
        out.set_now(1.2);
        bolt.tick(&mut out);
        let (emissions, _) = out.drain();
        assert_eq!(emissions.len(), 2);
        let avg = emissions[0].tuple.get(2).unwrap().as_f64().unwrap();
        let max = emissions[1].tuple.get(2).unwrap().as_f64().unwrap();
        assert_eq!(avg, 20.0);
        assert_eq!(max, 30.0);
        assert_eq!(emissions[0].tuple.get(3).unwrap().as_i64(), Some(2));
    }

    #[test]
    fn query_bolt_snapshot_restore_round_trips() {
        let queries = generate_queries(5, 3);
        let stats = Arc::new(CqStats::default());
        let mut bolt = QueryBolt::new(queries.clone(), 1.0, stats.clone());
        let mut out = BoltOutput::new();
        out.set_now(0.2);
        for v in [25.0, 45.0, 65.0] {
            bolt.execute(
                &Tuple::of([
                    Value::from(1i64),
                    Value::from("load"),
                    Value::from(v),
                    Value::from(0.2),
                ]),
                &mut out,
            );
        }
        let snap = bolt.snapshot();

        let mut fresh = QueryBolt::new(queries, 1.0, stats.clone());
        fresh.restore(&snap, &[]).unwrap();
        assert_eq!(fresh.current_window, bolt.current_window);
        assert_eq!(fresh.acc, bolt.acc);
        // Restoring into a bolt with a different query set is rejected.
        let mut other = QueryBolt::new(generate_queries(2, 3), 1.0, stats);
        assert!(other.restore(&snap, &[]).is_err());
    }

    #[test]
    fn topology_runs_and_produces_results() {
        let (topo, stats) = build_continuous_queries(&small_cfg()).unwrap();
        assert!(topo.dynamic_handle("sensor-spout", "query").is_some());
        let mut engine = SimRuntime::new(topo, EngineConfig::default()).unwrap();
        let report = engine.run_until(12.0);
        assert!(stats.emitted.load(Ordering::Relaxed) > 3000);
        assert!(stats.evaluated.load(Ordering::Relaxed) > 30_000);
        let results = stats.results.lock();
        assert!(results.len() > 10, "only {} results", results.len());
        assert!(results.iter().all(|r| r.matched > 0));
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn count_aggregate_counts_matches() {
        let (topo, stats) = build_continuous_queries(&CqConfig {
            n_queries: 6,
            ..small_cfg()
        })
        .unwrap();
        let mut engine = SimRuntime::new(topo, EngineConfig::default()).unwrap();
        engine.run_until(9.0);
        let results = stats.results.lock();
        // Count-agg results must be integral.
        let queries = generate_queries(6, small_cfg().seed);
        for r in results.iter() {
            let q = &queries[r.query as usize];
            if q.agg == QueryAgg::Count {
                assert_eq!(r.value, r.matched as f64, "count == matched for {r:?}");
            }
        }
    }
}
