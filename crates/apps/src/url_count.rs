//! **Windowed URL Count** — the paper's first evaluation application.
//!
//! Topology:
//!
//! ```text
//! url-spout ──shuffle──► parse ──dynamic──► count ──global──► report
//! ```
//!
//! The spout replays a Zipf-skewed URL click stream at a time-varying rate;
//! `parse` extracts the domain; `count` keeps tumbling-window per-URL
//! counts; `report` merges the per-task partial counts into one window
//! report.  The `parse → count` edge uses **dynamic grouping** so the
//! control framework can steer tuples away from a misbehaving worker —
//! counts are kept *partial per task* and merged downstream precisely so
//! that re-steering never loses correctness, only locality.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use dsdps::component::{Bolt, BoltOutput, MessageId, Spout, SpoutOutput};
use dsdps::error::Result;
use dsdps::rt::{SnapshotKind, StateSnapshot, StatefulComponent};
use dsdps::topology::{CostModel, Topology, TopologyBuilder};
use dsdps::tuple::{Fields, Tuple, Value};

use crate::workload::{RateDriver, RatePattern, UrlCatalog};

/// Configuration of the Windowed URL Count topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UrlCountConfig {
    /// Arrival-rate curve of the click stream.
    pub pattern: RatePattern,
    /// URL catalog size.
    pub n_urls: usize,
    /// Zipf skew of URL popularity.
    pub zipf_s: f64,
    /// Parallelism of the parse bolt.
    pub parse_parallelism: usize,
    /// Parallelism of the count bolt (the controlled stage).
    pub count_parallelism: usize,
    /// Tumbling-window length, seconds.
    pub window_s: f64,
    /// Top-K URLs reported per window and task.
    pub top_k: usize,
    /// Use dynamic grouping on `parse → count` (fields grouping otherwise).
    pub dynamic_grouping: bool,
    /// Workload seed.
    pub seed: u64,
    /// Simulator cost of one spout emission (µs).
    pub spout_cost_us: f64,
    /// Simulator cost of one parse execution (µs).
    pub parse_cost_us: f64,
    /// Simulator cost of one count execution (µs).
    pub count_cost_us: f64,
}

impl Default for UrlCountConfig {
    fn default() -> Self {
        UrlCountConfig {
            pattern: RatePattern::paper_default(1200.0),
            n_urls: 5000,
            zipf_s: 1.1,
            parse_parallelism: 4,
            count_parallelism: 4,
            window_s: 5.0,
            top_k: 5,
            dynamic_grouping: true,
            seed: 42,
            spout_cost_us: 15.0,
            parse_cost_us: 60.0,
            count_cost_us: 90.0,
        }
    }
}

/// One closed window as seen by the report stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window index (`floor(t / window_s)`).
    pub window: u64,
    /// Total clicks across all count tasks.
    pub total: u64,
    /// Distinct `(task, url)` partial rows merged.
    pub rows: usize,
    /// Most-clicked URL and its count.
    pub top_url: String,
    /// Count of the top URL.
    pub top_count: u64,
}

/// Shared observability of a running URL-count topology.
#[derive(Debug, Default)]
pub struct UrlCountStats {
    /// Tuples emitted by the spout.
    pub emitted: AtomicU64,
    /// Tuples counted by the count stage.
    pub counted: AtomicU64,
    /// Spout-tuple replays triggered by fails/timeouts.
    pub replays: AtomicU64,
    /// Finalized window reports.
    pub reports: Mutex<Vec<WindowReport>>,
}

/// The URL click spout.
struct UrlSpout {
    driver: RateDriver,
    catalog: UrlCatalog,
    next_id: MessageId,
    /// In-flight tuples for replay on failure.
    pending: HashMap<MessageId, Tuple>,
    /// Failed ids awaiting re-emission.
    replay_queue: Vec<MessageId>,
    stats: Arc<UrlCountStats>,
    /// Max emissions per poll, to bound event-queue bursts.
    batch_cap: u64,
    user_rng: StdRng,
}

impl UrlSpout {
    fn new(cfg: &UrlCountConfig, stats: Arc<UrlCountStats>) -> Self {
        UrlSpout {
            driver: RateDriver::new(cfg.pattern.clone()),
            catalog: UrlCatalog::new(cfg.n_urls, cfg.zipf_s, cfg.seed),
            next_id: 0,
            pending: HashMap::new(),
            replay_queue: Vec::new(),
            stats,
            batch_cap: 64,
            user_rng: StdRng::seed_from_u64(cfg.seed ^ 0x5EED),
        }
    }
}

impl Spout for UrlSpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        use rand::Rng;
        let now = out.now_s();
        // Replays first: reliability before fresh load.
        if let Some(id) = self.replay_queue.pop() {
            if let Some(tuple) = self.pending.get(&id) {
                out.emit_with_id(tuple.clone(), id);
                self.stats.replays.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        let due = self.driver.due(now).min(self.batch_cap);
        for _ in 0..due {
            let url = self.catalog.next_url().to_owned();
            let user: i64 = self.user_rng.gen_range(0..100_000);
            let tuple = Tuple::of([Value::from(url), Value::from(user), Value::from(now)]);
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

/// Extracts the domain from the URL.
struct ParseBolt;

impl Bolt for ParseBolt {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        let Some(url) = tuple.get_by_field("url").and_then(Value::as_str) else {
            out.fail();
            return;
        };
        let domain = url
            .strip_prefix("http://")
            .or_else(|| url.strip_prefix("https://"))
            .unwrap_or(url)
            .split('/')
            .next()
            .unwrap_or("")
            .to_owned();
        let ts = tuple.get_by_field("ts").cloned().unwrap_or(Value::Null);
        out.emit(Tuple::of([
            tuple.get_by_field("url").cloned().unwrap_or(Value::Null),
            Value::from(domain),
            ts,
        ]));
    }
}

/// Tumbling-window partial counter (per task).
struct CountBolt {
    window_s: f64,
    top_k: usize,
    current_window: Option<u64>,
    counts: HashMap<Arc<str>, u64>,
    total: u64,
    stats: Arc<UrlCountStats>,
}

impl CountBolt {
    fn new(cfg: &UrlCountConfig, stats: Arc<UrlCountStats>) -> Self {
        CountBolt {
            window_s: cfg.window_s,
            top_k: cfg.top_k,
            current_window: None,
            counts: HashMap::new(),
            total: 0,
            stats,
        }
    }

    fn flush(&mut self, window: u64, out: &mut BoltOutput) {
        if self.total == 0 {
            return;
        }
        // Emit the top-K partial rows plus the task's total.
        let mut rows: Vec<(&Arc<str>, &u64)> = self.counts.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        for (url, &count) in rows.into_iter().take(self.top_k) {
            out.emit_unanchored(Tuple::of([
                Value::from(window as i64),
                Value::Str(Arc::clone(url)),
                Value::from(count as i64),
            ]));
        }
        out.emit_unanchored(Tuple::of([
            Value::from(window as i64),
            Value::from("__total__"),
            Value::from(self.total as i64),
        ]));
        self.counts.clear();
        self.total = 0;
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

impl Bolt for CountBolt {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        let window = (out.now_s() / self.window_s) as u64;
        self.roll_to(window, out);
        if let Some(Value::Str(url)) = tuple.get_by_field("url") {
            *self.counts.entry(Arc::clone(url)).or_insert(0) += 1;
            self.total += 1;
            self.stats.counted.fetch_add(1, Ordering::Relaxed);
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

/// Snapshot image of a [`CountBolt`]: current window, per-URL counts
/// (sorted for a deterministic encoding), running total.
type CountState = (Option<u64>, Vec<(String, u64)>, u64);

impl StatefulComponent for CountBolt {
    fn snapshot(&mut self) -> StateSnapshot {
        let mut counts: Vec<(String, u64)> = self
            .counts
            .iter()
            .map(|(url, &n)| (url.to_string(), n))
            .collect();
        counts.sort();
        let state: CountState = (self.current_window, counts, self.total);
        StateSnapshot::encode(SnapshotKind::Full, &state)
    }

    fn restore(
        &mut self,
        base: &StateSnapshot,
        deltas: &[StateSnapshot],
    ) -> std::result::Result<(), String> {
        if !deltas.is_empty() {
            return Err("CountBolt snapshots are full-only".into());
        }
        let (window, counts, total): CountState = base.decode()?;
        self.current_window = window;
        self.counts = counts
            .into_iter()
            .map(|(url, n)| (Arc::<str>::from(url.as_str()), n))
            .collect();
        self.total = total;
        Ok(())
    }
}

/// Merges partial rows from all count tasks into per-window reports.
struct ReportBolt {
    stats: Arc<UrlCountStats>,
    /// window → (total, rows, best)
    open: HashMap<u64, (u64, usize, String, u64)>,
}

impl ReportBolt {
    fn new(stats: Arc<UrlCountStats>) -> Self {
        ReportBolt {
            stats,
            open: HashMap::new(),
        }
    }

    fn finalize_older_than(&mut self, window: u64) {
        let closed: Vec<u64> = self.open.keys().filter(|&&w| w < window).copied().collect();
        for w in closed {
            let (total, rows, top_url, top_count) = self.open.remove(&w).unwrap();
            self.stats.reports.lock().push(WindowReport {
                window: w,
                total,
                rows,
                top_url,
                top_count,
            });
        }
    }
}

impl Bolt for ReportBolt {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        let _ = out;
        let (Some(window), Some(key), Some(count)) = (
            tuple.get(0).and_then(Value::as_i64),
            tuple.get(1).and_then(Value::as_str),
            tuple.get(2).and_then(Value::as_i64),
        ) else {
            return;
        };
        let window = window as u64;
        let count = count as u64;
        let entry = self
            .open
            .entry(window)
            .or_insert_with(|| (0, 0, String::new(), 0));
        entry.1 += 1;
        if key == "__total__" {
            entry.0 += count;
        } else if count > entry.3 {
            entry.2 = key.to_owned();
            entry.3 = count;
        }
        // Rows for window w-2 can no longer arrive (tasks flush promptly).
        self.finalize_older_than(window.saturating_sub(1));
    }
}

/// Builds the Windowed URL Count topology.  The returned stats handle is
/// shared with every component instance.
pub fn build_url_count(cfg: &UrlCountConfig) -> Result<(Topology, Arc<UrlCountStats>)> {
    let stats = Arc::new(UrlCountStats::default());
    let mut b = TopologyBuilder::new("windowed-url-count");

    let spout_cfg = cfg.clone();
    let spout_stats = stats.clone();
    b.set_spout("url-spout", 1, move || {
        UrlSpout::new(&spout_cfg, spout_stats.clone())
    })?
    .output_fields(Fields::new(["url", "user", "ts"]))
    .cost(CostModel {
        base_service_time_us: cfg.spout_cost_us,
        jitter: 0.05,
    });

    b.set_bolt("parse", cfg.parse_parallelism, || ParseBolt)?
        .output_fields(Fields::new(["url", "domain", "ts"]))
        .cost(CostModel {
            base_service_time_us: cfg.parse_cost_us,
            jitter: 0.1,
        })
        .shuffle_grouping("url-spout")?;

    let count_cfg = cfg.clone();
    let count_stats = stats.clone();
    {
        let mut count = b.set_bolt("count", cfg.count_parallelism, move || {
            CountBolt::new(&count_cfg, count_stats.clone())
        })?;
        count
            .output_fields(Fields::new(["window", "key", "count"]))
            .cost(CostModel {
                base_service_time_us: cfg.count_cost_us,
                jitter: 0.1,
            });
        if cfg.dynamic_grouping {
            count.dynamic_grouping("parse")?;
        } else {
            count.fields_grouping("parse", &["url"])?;
        }
    }

    let report_stats = stats.clone();
    b.set_bolt("report", 1, move || ReportBolt::new(report_stats.clone()))?
        .cost(CostModel {
            base_service_time_us: 20.0,
            jitter: 0.05,
        })
        .global_grouping("count")?;

    Ok((b.build()?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsdps::config::EngineConfig;
    use dsdps::sim::SimRuntime;

    fn small_cfg() -> UrlCountConfig {
        UrlCountConfig {
            pattern: RatePattern::Constant { rate: 500.0 },
            n_urls: 200,
            parse_parallelism: 2,
            count_parallelism: 3,
            window_s: 2.0,
            ..UrlCountConfig::default()
        }
    }

    #[test]
    fn topology_shape() {
        let (topo, _) = build_url_count(&small_cfg()).unwrap();
        assert_eq!(topo.components().count(), 4);
        assert_eq!(topo.task_count(), 1 + 2 + 3 + 1);
        assert!(topo.dynamic_handle("parse", "count").is_some());
    }

    #[test]
    fn fields_grouping_variant_has_no_dynamic_handle() {
        let cfg = UrlCountConfig {
            dynamic_grouping: false,
            ..small_cfg()
        };
        let (topo, _) = build_url_count(&cfg).unwrap();
        assert!(topo.dynamic_handle("parse", "count").is_none());
    }

    #[test]
    fn runs_and_counts_match_emissions() {
        let (topo, stats) = build_url_count(&small_cfg()).unwrap();
        let mut engine = SimRuntime::new(topo, EngineConfig::default()).unwrap();
        let report = engine.run_until(10.0);
        let emitted = stats.emitted.load(Ordering::Relaxed);
        let counted = stats.counted.load(Ordering::Relaxed);
        assert!(emitted > 4000, "emitted {emitted}");
        // Everything emitted (minus in-flight tail) must reach the counter.
        assert!(
            counted as f64 > emitted as f64 * 0.95,
            "{counted}/{emitted}"
        );
        assert_eq!(report.failed, 0);
        assert!(report.acked > 0);
    }

    #[test]
    fn windows_close_and_totals_are_consistent() {
        let (topo, stats) = build_url_count(&small_cfg()).unwrap();
        let mut engine = SimRuntime::new(topo, EngineConfig::default()).unwrap();
        engine.run_until(21.0);
        let reports = stats.reports.lock();
        assert!(reports.len() >= 5, "got {} window reports", reports.len());
        for r in reports.iter() {
            assert!(r.total > 0);
            assert!(r.top_count > 0);
            assert!(r.top_count <= r.total);
            assert!(r.top_url.starts_with("http://"));
        }
        // ~500 t/s over 2 s windows → totals near 1000 each.
        let mid = &reports[2];
        assert!(
            mid.total > 500 && mid.total < 1600,
            "window total {} out of range",
            mid.total
        );
    }

    #[test]
    fn zipf_head_dominates_window_top() {
        let (topo, stats) = build_url_count(&UrlCountConfig {
            zipf_s: 1.4,
            ..small_cfg()
        })
        .unwrap();
        let mut engine = SimRuntime::new(topo, EngineConfig::default()).unwrap();
        engine.run_until(15.0);
        let reports = stats.reports.lock();
        assert!(!reports.is_empty());
        // With heavy skew the top URL takes a sizeable share of each window.
        let r = &reports[1];
        assert!(
            r.top_count as f64 > r.total as f64 * 0.05,
            "top {} of {}",
            r.top_count,
            r.total
        );
    }

    #[test]
    fn spout_replays_failed_tuples() {
        let stats = Arc::new(UrlCountStats::default());
        let cfg = small_cfg();
        let mut spout = UrlSpout::new(&cfg, stats.clone());
        let mut out = SpoutOutput::new();
        out.set_now(0.1);
        spout.next_tuple(&mut out);
        let emissions = out.drain();
        assert!(!emissions.is_empty());
        let id = emissions[0].message_id.unwrap();
        spout.fail(id);
        out.set_now(0.1001);
        spout.next_tuple(&mut out);
        let replayed = out.drain();
        assert_eq!(
            replayed[0].message_id,
            Some(id),
            "failed tuple re-emitted first"
        );
        assert_eq!(stats.replays.load(Ordering::Relaxed), 1);
        // Acked tuples are forgotten and cannot replay.
        spout.ack(id);
        spout.fail(id);
        out.set_now(0.1002);
        spout.next_tuple(&mut out);
        let after_ack = out.drain();
        assert!(after_ack.iter().all(|e| e.message_id != Some(id)));
    }

    #[test]
    fn count_bolt_snapshot_restore_round_trips() {
        let stats = Arc::new(UrlCountStats::default());
        let cfg = small_cfg();
        let mut bolt = CountBolt::new(&cfg, stats.clone());
        let mut out = BoltOutput::new();
        let click = |url: &str| {
            Tuple::with_fields(
                [Value::from(url), Value::from("d"), Value::from(0.5)],
                Fields::new(["url", "domain", "ts"]),
            )
        };
        out.set_now(0.5);
        bolt.execute(&click("http://a.com/1"), &mut out);
        bolt.execute(&click("http://a.com/1"), &mut out);
        bolt.execute(&click("http://b.com/2"), &mut out);
        let snap = bolt.snapshot();

        let mut fresh = CountBolt::new(&cfg, stats);
        fresh.restore(&snap, &[]).unwrap();
        assert_eq!(fresh.total, 3);
        assert_eq!(fresh.current_window, Some(0));
        assert_eq!(fresh.counts.len(), 2);
        // The restored bolt flushes the pre-snapshot window intact.
        out.drain();
        out.set_now(cfg.window_s + 0.1);
        fresh.tick(&mut out);
        let (emissions, _) = out.drain();
        let total = emissions
            .iter()
            .find(|e| e.tuple.get(1).unwrap().as_str() == Some("__total__"))
            .unwrap();
        assert_eq!(total.tuple.get(2).unwrap().as_i64(), Some(3));
        assert!(
            fresh.restore(&snap, std::slice::from_ref(&snap)).is_err(),
            "full-only"
        );
    }

    #[test]
    fn parse_bolt_extracts_domain() {
        let mut bolt = ParseBolt;
        let mut out = BoltOutput::new();
        let t = Tuple::with_fields(
            [
                Value::from("http://site7.example.com/page123"),
                Value::from(5i64),
                Value::from(1.5),
            ],
            Fields::new(["url", "user", "ts"]),
        );
        bolt.execute(&t, &mut out);
        let (emissions, failed) = out.drain();
        assert!(!failed);
        assert_eq!(
            emissions[0].tuple.get(1).unwrap().as_str(),
            Some("site7.example.com")
        );
    }

    #[test]
    fn parse_bolt_fails_malformed_tuple() {
        let mut bolt = ParseBolt;
        let mut out = BoltOutput::new();
        bolt.execute(&Tuple::of([Value::from(1i64)]), &mut out);
        let (_, failed) = out.drain();
        assert!(failed);
    }
}
