//! Overload workloads for the backpressure experiments: **flash crowd**,
//! **key-skew storm**, and **slow-sink cascade**.
//!
//! Each builder returns a small topology whose offered load deliberately
//! exceeds what some stage can absorb, in a different way:
//!
//! * [`build_flash_crowd`] — a one-shot arrival spike
//!   ([`RatePattern::FlashCrowd`]) several times the work stage's capacity:
//!   the queue-wait transient a small queue capacity (or a controller's
//!   spout rate cap) must bound;
//! * [`build_key_skew_storm`] — Zipf-skewed keys under fields grouping, so
//!   one task absorbs a large share of the stream while its siblings idle:
//!   the hot task's full queue must hold without stalling the cold ones;
//! * [`build_slow_sink_cascade`] — spout → relay → slow sink, where only
//!   the *last* stage is under-provisioned: backpressure must propagate
//!   hop by hop (the sink's queue fills first, then the relay's) instead of
//!   letting the relay's output queue grow without bound.
//!
//! The same topologies run on both runtimes.  The simulator charges service
//! time through each component's [`CostModel`]; the threaded runtime
//! executes real code on real threads, so overload there requires
//! [`OverloadConfig::spin_service`] — bolts then busy-wait their configured
//! service time per tuple.  Leave it off for simulator runs (the spin would
//! burn host CPU without advancing virtual time).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use dsdps::component::{Bolt, BoltOutput, MessageId, Spout, SpoutOutput};
use dsdps::error::Result;
use dsdps::topology::{CostModel, Topology, TopologyBuilder};
use dsdps::tuple::{Fields, Tuple, Value};

use crate::workload::{RateDriver, RatePattern, ZipfSampler};

/// Configuration shared by the three overload topologies.  Each builder
/// reads the subset of fields it needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Arrival-rate curve of the overload spout.
    pub pattern: RatePattern,
    /// Key-space size (key-skew storm).
    pub n_keys: usize,
    /// Zipf skew of key popularity (key-skew storm; 0 = uniform).
    pub zipf_s: f64,
    /// Parallelism of the work / relay stage.
    pub workers: usize,
    /// Per-tuple service time of the work / relay stage, µs.
    pub work_us: f64,
    /// Per-tuple service time of the cascade's terminal sink, µs.
    pub sink_us: f64,
    /// Busy-wait the configured service times on real threads.  Required
    /// for the threaded runtime (where only real execute time counts);
    /// leave off under the simulator (service time comes from the cost
    /// model there).
    pub spin_service: bool,
    /// Workload seed.
    pub seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            pattern: RatePattern::FlashCrowd {
                base: 400.0,
                peak: 4000.0,
                at_s: 1.0,
                len_s: 3.0,
            },
            n_keys: 64,
            zipf_s: 1.4,
            workers: 2,
            work_us: 150.0,
            sink_us: 600.0,
            spin_service: false,
            seed: 42,
        }
    }
}

/// Shared observability of a running overload topology.
#[derive(Debug, Default)]
pub struct OverloadStats {
    /// Fresh tuples emitted by the spout (replays not included).
    pub emitted: AtomicU64,
    /// Spout replays triggered by fails/timeouts.
    pub replays: AtomicU64,
    /// Tuples processed by the work / relay stage.
    pub processed: AtomicU64,
    /// Tuples absorbed by the terminal stage.
    pub sunk: AtomicU64,
    /// Terminal-stage tuples carrying the hottest key (key 0).
    pub hot_hits: AtomicU64,
}

/// Consumes `us` microseconds of real service time.  Times below reliable
/// sleep granularity are busy-spun; longer ones sleep, so a heavily
/// over-subscribed host (or a single-core CI box) is not starved by
/// spinning worker threads — sleep overshoot only strengthens the overload.
fn spin_for(us: f64) {
    if us <= 0.0 {
        return;
    }
    let dur = Duration::from_secs_f64(us * 1e-6);
    if us >= 100.0 {
        std::thread::sleep(dur);
        return;
    }
    let end = Instant::now() + dur;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Reliable overload spout: keyed tuples at the configured rate, with
/// failed tuples replayed before fresh load (same discipline as the
/// URL-count spout).
struct OverloadSpout {
    driver: RateDriver,
    sampler: ZipfSampler,
    rng: StdRng,
    next_id: MessageId,
    pending: HashMap<MessageId, Tuple>,
    replay_queue: Vec<MessageId>,
    stats: Arc<OverloadStats>,
    /// Max emissions per poll, to bound per-poll bursts.
    batch_cap: u64,
}

impl OverloadSpout {
    fn new(cfg: &OverloadConfig, stats: Arc<OverloadStats>) -> Self {
        OverloadSpout {
            driver: RateDriver::new(cfg.pattern.clone()),
            sampler: ZipfSampler::new(cfg.n_keys, cfg.zipf_s),
            rng: StdRng::seed_from_u64(cfg.seed),
            next_id: 0,
            pending: HashMap::new(),
            replay_queue: Vec::new(),
            stats,
            batch_cap: 256,
        }
    }
}

impl Spout for OverloadSpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        let now = out.now_s();
        if let Some(id) = self.replay_queue.pop() {
            if let Some(tuple) = self.pending.get(&id) {
                out.emit_with_id(tuple.clone(), id);
                self.stats.replays.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        let due = self.driver.due(now).min(self.batch_cap);
        for _ in 0..due {
            let key = self.sampler.sample(&mut self.rng) as i64;
            self.next_id += 1;
            let tuple = Tuple::of([Value::from(key), Value::from(self.next_id as i64)]);
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

/// Mid-stage bolt: optionally burns service time, then forwards the tuple
/// anchored (cascade relay).
struct RelayBolt {
    service_us: f64,
    spin: bool,
    stats: Arc<OverloadStats>,
}

impl Bolt for RelayBolt {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        if self.spin {
            spin_for(self.service_us);
        }
        self.stats.processed.fetch_add(1, Ordering::Relaxed);
        out.emit(Tuple::of([
            tuple.get(0).cloned().unwrap_or(Value::Null),
            tuple.get(1).cloned().unwrap_or(Value::Null),
        ]));
    }
}

/// Terminal bolt: optionally burns service time, then counts the tuple.
struct SinkBolt {
    service_us: f64,
    spin: bool,
    stats: Arc<OverloadStats>,
}

impl Bolt for SinkBolt {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        let _ = out;
        if self.spin {
            spin_for(self.service_us);
        }
        self.stats.sunk.fetch_add(1, Ordering::Relaxed);
        if tuple.get(0).and_then(Value::as_i64) == Some(0) {
            self.stats.hot_hits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

const KEYED: [&str; 2] = ["key", "seq"];

fn spout_stage(
    b: &mut TopologyBuilder,
    cfg: &OverloadConfig,
    stats: &Arc<OverloadStats>,
) -> Result<()> {
    let spout_cfg = cfg.clone();
    let spout_stats = stats.clone();
    b.set_spout("overload-spout", 1, move || {
        OverloadSpout::new(&spout_cfg, spout_stats.clone())
    })?
    .output_fields(Fields::new(KEYED))
    .cost(CostModel {
        base_service_time_us: 10.0,
        jitter: 0.05,
    });
    Ok(())
}

/// **Flash crowd**: spout → shuffle → work sink.  The spike rate exceeds
/// `workers / work_us` capacity; queues (and queue-wait) grow until the
/// spike ends — or until full queues or a spout rate cap hold the spout
/// back.
pub fn build_flash_crowd(cfg: &OverloadConfig) -> Result<(Topology, Arc<OverloadStats>)> {
    let stats = Arc::new(OverloadStats::default());
    let mut b = TopologyBuilder::new("flash-crowd");
    spout_stage(&mut b, cfg, &stats)?;
    let (service_us, spin, sink_stats) = (cfg.work_us, cfg.spin_service, stats.clone());
    b.set_bolt("work", cfg.workers, move || SinkBolt {
        service_us,
        spin,
        stats: sink_stats.clone(),
    })?
    .cost(CostModel {
        base_service_time_us: cfg.work_us,
        jitter: 0.1,
    })
    .shuffle_grouping("overload-spout")?;
    Ok((b.build()?, stats))
}

/// **Key-skew storm**: spout → fields(key) → count sink.  With Zipf skew
/// the hottest key's task saturates while its siblings stay idle; only the
/// hot edge's queue should fill.
pub fn build_key_skew_storm(cfg: &OverloadConfig) -> Result<(Topology, Arc<OverloadStats>)> {
    let stats = Arc::new(OverloadStats::default());
    let mut b = TopologyBuilder::new("key-skew-storm");
    spout_stage(&mut b, cfg, &stats)?;
    let (service_us, spin, sink_stats) = (cfg.work_us, cfg.spin_service, stats.clone());
    b.set_bolt("count", cfg.workers, move || SinkBolt {
        service_us,
        spin,
        stats: sink_stats.clone(),
    })?
    .cost(CostModel {
        base_service_time_us: cfg.work_us,
        jitter: 0.1,
    })
    .fields_grouping("overload-spout", &["key"])?;
    Ok((b.build()?, stats))
}

/// **Slow-sink cascade**: spout → shuffle → relay → global → slow sink.
/// The relay keeps up; the single sink does not.  Backpressure must travel
/// two hops: the sink's queue fills first, the relay blocks on it, the
/// relay's own queue fills, and finally the spout throttles.
pub fn build_slow_sink_cascade(cfg: &OverloadConfig) -> Result<(Topology, Arc<OverloadStats>)> {
    let stats = Arc::new(OverloadStats::default());
    let mut b = TopologyBuilder::new("slow-sink-cascade");
    spout_stage(&mut b, cfg, &stats)?;

    let (service_us, spin, relay_stats) = (cfg.work_us, cfg.spin_service, stats.clone());
    b.set_bolt("relay", cfg.workers, move || RelayBolt {
        service_us,
        spin,
        stats: relay_stats.clone(),
    })?
    .output_fields(Fields::new(KEYED))
    .cost(CostModel {
        base_service_time_us: cfg.work_us,
        jitter: 0.1,
    })
    .shuffle_grouping("overload-spout")?;

    let (service_us, spin, sink_stats) = (cfg.sink_us, cfg.spin_service, stats.clone());
    b.set_bolt("sink", 1, move || SinkBolt {
        service_us,
        spin,
        stats: sink_stats.clone(),
    })?
    .cost(CostModel {
        base_service_time_us: cfg.sink_us,
        jitter: 0.1,
    })
    .global_grouping("relay")?;
    Ok((b.build()?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsdps::config::EngineConfig;
    use dsdps::sim::SimRuntime;

    fn quick_cfg() -> OverloadConfig {
        OverloadConfig {
            pattern: RatePattern::Constant { rate: 400.0 },
            work_us: 50.0,
            sink_us: 80.0,
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn topology_shapes() {
        let cfg = quick_cfg();
        let (flash, _) = build_flash_crowd(&cfg).unwrap();
        assert_eq!(flash.components().count(), 2);
        assert_eq!(flash.task_count(), 1 + cfg.workers);
        let (skew, _) = build_key_skew_storm(&cfg).unwrap();
        assert_eq!(skew.task_count(), 1 + cfg.workers);
        let (cascade, _) = build_slow_sink_cascade(&cfg).unwrap();
        assert_eq!(cascade.components().count(), 3);
        assert_eq!(cascade.task_count(), 1 + cfg.workers + 1);
    }

    #[test]
    fn flash_crowd_runs_and_sinks_everything() {
        let (topo, stats) = build_flash_crowd(&quick_cfg()).unwrap();
        let mut engine = SimRuntime::new(topo, EngineConfig::default()).unwrap();
        let report = engine.run_until(5.0);
        let emitted = stats.emitted.load(Ordering::Relaxed);
        let sunk = stats.sunk.load(Ordering::Relaxed);
        assert!(emitted > 1000, "emitted {emitted}");
        assert!(sunk as f64 > emitted as f64 * 0.95, "{sunk}/{emitted}");
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn key_skew_concentrates_on_hot_key() {
        let (topo, stats) = build_key_skew_storm(&quick_cfg()).unwrap();
        let mut engine = SimRuntime::new(topo, EngineConfig::default()).unwrap();
        engine.run_until(5.0);
        let sunk = stats.sunk.load(Ordering::Relaxed);
        let hot = stats.hot_hits.load(Ordering::Relaxed);
        assert!(sunk > 1000, "sunk {sunk}");
        // Zipf s = 1.4 over 64 keys puts ≳25 % of mass on the head key.
        assert!(
            hot as f64 > sunk as f64 * 0.15,
            "hot share {hot}/{sunk} too small for a storm"
        );
    }

    #[test]
    fn cascade_relays_then_sinks() {
        let (topo, stats) = build_slow_sink_cascade(&quick_cfg()).unwrap();
        let mut engine = SimRuntime::new(topo, EngineConfig::default()).unwrap();
        engine.run_until(5.0);
        let emitted = stats.emitted.load(Ordering::Relaxed);
        let processed = stats.processed.load(Ordering::Relaxed);
        let sunk = stats.sunk.load(Ordering::Relaxed);
        assert!(emitted > 1000, "emitted {emitted}");
        assert!(
            processed as f64 > emitted as f64 * 0.9,
            "{processed}/{emitted}"
        );
        assert!(sunk as f64 > processed as f64 * 0.9, "{sunk}/{processed}");
    }

    #[test]
    fn spout_replays_failed_tuples_first() {
        let stats = Arc::new(OverloadStats::default());
        let mut spout = OverloadSpout::new(&quick_cfg(), stats.clone());
        let mut out = SpoutOutput::new();
        out.set_now(0.05);
        spout.next_tuple(&mut out);
        let emissions = out.drain();
        assert!(!emissions.is_empty());
        let id = emissions[0].message_id.unwrap();
        spout.fail(id);
        out.set_now(0.0501);
        spout.next_tuple(&mut out);
        let replayed = out.drain();
        assert_eq!(replayed[0].message_id, Some(id));
        assert_eq!(stats.replays.load(Ordering::Relaxed), 1);
        // Acked ids are forgotten: a late fail cannot replay them.
        spout.ack(id);
        spout.fail(id);
        out.set_now(0.0502);
        spout.next_tuple(&mut out);
        assert!(out.drain().iter().all(|e| e.message_id != Some(id)));
    }

    #[test]
    fn spin_service_burns_real_time() {
        let t0 = Instant::now();
        spin_for(300.0);
        assert!(t0.elapsed() >= Duration::from_micros(250));
        // And a no-spin sink executes essentially instantly.
        let stats = Arc::new(OverloadStats::default());
        let mut sink = SinkBolt {
            service_us: 50_000.0,
            spin: false,
            stats: stats.clone(),
        };
        let t0 = Instant::now();
        let mut out = BoltOutput::new();
        sink.execute(&Tuple::of([Value::from(0i64), Value::from(1i64)]), &mut out);
        assert!(t0.elapsed() < Duration::from_millis(40));
        assert_eq!(stats.sunk.load(Ordering::Relaxed), 1);
        assert_eq!(stats.hot_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = OverloadConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: OverloadConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
