//! Live metrics registry with Prometheus text exposition.
//!
//! Instruments are registered once by name + labels and accessed through
//! cached handles ([`Counter`], [`Gauge`], [`Summary`]); updates through a
//! handle are single atomic stores — no lock, no map lookup, no
//! allocation.  The registry itself is sharded by key hash so concurrent
//! registration from many task threads does not serialize on one mutex.
//!
//! Three instrument kinds cover the runtime's needs:
//!
//! * [`Counter`] — monotonically increasing `u64`;
//! * [`Gauge`] — arbitrary `f64` (stored as bits in an `AtomicU64`);
//! * [`Summary`] — a [`LatencyHistogram`] rendered as φ-quantiles.
//!
//! [`Registry::render`] produces the Prometheus text exposition format
//! (version 0.0.4), served live by [`super::MetricsServer`] or dumped to a
//! file for tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hash::FxBuildHasher;
use crate::metrics::LatencyHistogram;

/// Handle to a monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the count (used to mirror an externally maintained
    /// cumulative total; keep it monotone).
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a gauge (an arbitrary instantaneous `f64`).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Handle to a latency summary backed by a [`LatencyHistogram`].
#[derive(Debug, Clone)]
pub struct Summary(Arc<Mutex<LatencyHistogram>>);

impl Summary {
    /// Records one observation (µs).
    pub fn observe(&self, us: f64) {
        self.0.lock().record(us);
    }

    /// Replaces the whole histogram (used to mirror a merged snapshot).
    pub fn replace(&self, h: LatencyHistogram) {
        *self.0.lock() = h;
    }

    /// Clone of the current histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.lock().clone()
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Summary(Summary),
}

impl Cell {
    fn type_name(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Summary(_) => "summary",
        }
    }
}

#[derive(Debug)]
struct Entry {
    family: String,
    labels: String,
    cell: Cell,
}

/// Sharded name+labels → instrument registry.
#[derive(Debug)]
pub struct Registry {
    shards: Box<[Mutex<Vec<Entry>>]>,
    hasher: FxBuildHasher,
}

impl Default for Registry {
    /// Eight independently locked shards, the only count a caller ever used.
    fn default() -> Self {
        Registry {
            shards: (0..8).map(|_| Mutex::new(Vec::new())).collect(),
            hasher: FxBuildHasher::default(),
        }
    }
}

impl Registry {
    /// A registry with the default shard count.
    pub fn new() -> Self {
        Registry::default()
    }

    fn shard_of(&self, family: &str, labels: &str) -> usize {
        use std::hash::{BuildHasher, Hash, Hasher};
        let mut h = self.hasher.build_hasher();
        family.hash(&mut h);
        labels.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn get_or_insert(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        let labels = render_labels(labels);
        let mut shard = self.shards[self.shard_of(family, &labels)].lock();
        if let Some(e) = shard
            .iter()
            .find(|e| e.family == family && e.labels == labels)
        {
            return e.cell.clone();
        }
        let cell = make();
        shard.push(Entry {
            family: family.to_string(),
            labels,
            cell: cell.clone(),
        });
        cell
    }

    /// Registers (or retrieves) a counter.  Panics if the same name+labels
    /// was registered as a different instrument kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || {
            Cell::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Cell::Counter(c) => c,
            other => panic!(
                "metric `{name}` already registered as {}",
                other.type_name()
            ),
        }
    }

    /// Registers (or retrieves) a gauge.  Panics on kind mismatch.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, || {
            Cell::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        }) {
            Cell::Gauge(g) => g,
            other => panic!(
                "metric `{name}` already registered as {}",
                other.type_name()
            ),
        }
    }

    /// Registers (or retrieves) a latency summary.  Panics on kind mismatch.
    pub fn summary(&self, name: &str, labels: &[(&str, &str)]) -> Summary {
        match self.get_or_insert(name, labels, || {
            Cell::Summary(Summary(Arc::new(Mutex::new(LatencyHistogram::new()))))
        }) {
            Cell::Summary(s) => s,
            other => panic!(
                "metric `{name}` already registered as {}",
                other.type_name()
            ),
        }
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the registry in Prometheus text exposition format
    /// (`text/plain; version=0.0.4`): one `# TYPE` line per metric family,
    /// samples sorted by name then labels, summaries as φ-quantiles plus a
    /// `_count` sample.
    pub fn render(&self) -> String {
        let mut rows: Vec<(String, String, Cell)> = Vec::new();
        for shard in self.shards.iter() {
            for e in shard.lock().iter() {
                rows.push((e.family.clone(), e.labels.clone(), e.cell.clone()));
            }
        }
        rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));

        let mut out = String::new();
        let mut last_family = String::new();
        for (family, labels, cell) in rows {
            if family != last_family {
                out.push_str(&format!("# TYPE {family} {}\n", cell.type_name()));
                last_family = family.clone();
            }
            match cell {
                Cell::Counter(c) => {
                    out.push_str(&sample_line(&family, &labels, &[], &format!("{}", c.get())));
                }
                Cell::Gauge(g) => {
                    out.push_str(&sample_line(&family, &labels, &[], &format!("{}", g.get())));
                }
                Cell::Summary(s) => {
                    let h = s.snapshot();
                    for q in [0.5, 0.9, 0.99] {
                        let v = h.quantile(q).unwrap_or(0.0);
                        out.push_str(&sample_line(
                            &family,
                            &labels,
                            &[("quantile", &format!("{q}"))],
                            &format!("{v}"),
                        ));
                    }
                    out.push_str(&sample_line(
                        &format!("{family}_count"),
                        &labels,
                        &[],
                        &format!("{}", h.count()),
                    ));
                }
            }
        }
        out
    }

    /// Structured export of every counter and gauge as
    /// `(family, rendered_labels, value)`, sorted by family then labels.
    /// Summaries are skipped — they do not aggregate across processes by
    /// value.  The distributed worker walks this to build its
    /// `MetricsPush` frame; the coordinator re-registers each sample under
    /// `worker`/`generation` labels.
    pub fn export_samples(&self) -> Vec<(String, String, SampleValue)> {
        let mut rows: Vec<(String, String, SampleValue)> = Vec::new();
        for shard in self.shards.iter() {
            for e in shard.lock().iter() {
                let v = match &e.cell {
                    Cell::Counter(c) => SampleValue::Counter(c.get()),
                    Cell::Gauge(g) => SampleValue::Gauge(g.get()),
                    Cell::Summary(_) => continue,
                };
                rows.push((e.family.clone(), e.labels.clone(), v));
            }
        }
        rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        rows
    }
}

/// One exported counter or gauge value (see [`Registry::export_samples`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleValue {
    /// Cumulative counter total.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(f64),
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    parts.sort();
    parts.join(",")
}

fn sample_line(name: &str, labels: &str, extra: &[(&str, &str)], value: &str) -> String {
    let mut all = labels.to_string();
    for (k, v) in extra {
        if !all.is_empty() {
            all.push(',');
        }
        all.push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if all.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{all}}} {value}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_cached_and_shared() {
        let r = Registry::new();
        let a = r.counter("dsdps_acked_total", &[]);
        let b = r.counter("dsdps_acked_total", &[]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.len(), 1);

        let g = r.gauge("dsdps_in_flight", &[]);
        g.set(17.5);
        assert_eq!(r.gauge("dsdps_in_flight", &[]).get(), 17.5);
    }

    #[test]
    fn labels_distinguish_instruments_and_are_sorted() {
        let r = Registry::new();
        let t0 = r.counter("task_executed", &[("task", "0"), ("component", "src")]);
        let t1 = r.counter("task_executed", &[("component", "work"), ("task", "1")]);
        t0.add(5);
        t1.add(7);
        assert_eq!(r.len(), 2);
        let text = r.render();
        assert!(text.contains("# TYPE task_executed counter"));
        // Label keys render sorted regardless of registration order.
        assert!(text.contains("task_executed{component=\"src\",task=\"0\"} 5"));
        assert!(text.contains("task_executed{component=\"work\",task=\"1\"} 7"));
        // One TYPE line per family.
        assert_eq!(text.matches("# TYPE task_executed").count(), 1);
    }

    #[test]
    fn summary_renders_quantiles_and_count() {
        let r = Registry::new();
        let s = r.summary("complete_latency_us", &[]);
        for us in [100.0, 200.0, 400.0, 800.0, 1600.0] {
            s.observe(us);
        }
        let text = r.render();
        assert!(text.contains("# TYPE complete_latency_us summary"));
        assert!(text.contains("complete_latency_us{quantile=\"0.5\"}"));
        assert!(text.contains("complete_latency_us{quantile=\"0.99\"}"));
        assert!(text.contains("complete_latency_us_count 5"));
    }

    #[test]
    fn export_samples_covers_counters_and_gauges() {
        let r = Registry::new();
        r.counter("b_total", &[]).add(9);
        r.gauge("a_up", &[("worker", "1")]).set(2.5);
        r.summary("lat_us", &[]).observe(10.0);
        let rows = r.export_samples();
        assert_eq!(rows.len(), 2, "summaries are skipped");
        assert_eq!(
            rows[0],
            (
                "a_up".into(),
                "worker=\"1\"".into(),
                SampleValue::Gauge(2.5)
            )
        );
        assert_eq!(
            rows[1],
            ("b_total".into(), "".into(), SampleValue::Counter(9))
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x", &[]);
        let _ = r.gauge("x", &[]);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("weird", &[("msg", "a\"b\\c\nd")]).inc();
        let text = r.render();
        assert!(text.contains(r#"msg="a\"b\\c\nd""#));
    }
}
