//! Benchmark-owned bolts and the wrapper that observes them.
//!
//! Every bolt of every rt/dist workload is wrapped in [`Timed`].  In an
//! end-to-end run it only counts executions; in the traced pass it times
//! `execute` for sampled tuples (busy time per task, scaled up) and records
//! a span for each.  In `dist` worker processes the totals are written to a file at
//! `cleanup`, which is how the coordinator-side harness reads them.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsdps::component::{Bolt, BoltOutput, TopologyContext};
use dsdps::rt::StatefulComponent;
use dsdps::tuple::{Fields, Tuple, Value};
use dsdps::window::WindowAggregate;

use crate::trace::{sampled, Tracer, SAMPLE_EVERY};

/// `(component, task, executions, ns inside execute)` of one wrapped task.
pub type StageRow = (String, usize, u64, u64);

/// Counters of one wrapped task.
#[derive(Default)]
pub struct StageStats {
    pub component: String,
    pub task_index: usize,
    pub execs: AtomicU64,
    pub busy_ns: AtomicU64,
}

/// What the wrappers of one run share: where to register their counters
/// and whether (and where) to trace.
#[derive(Default)]
pub struct Probes {
    pub stages: Mutex<Vec<Arc<StageStats>>>,
    /// Traced pass: time sampled calls…
    pub timing: bool,
    /// …and record a span for each (in-process tasks only).
    pub tracer: Option<Arc<Tracer>>,
    /// Worker processes: write `<component> <task> <execs> <busy_ns>` lines
    /// into this directory at `cleanup`.
    pub dump_dir: Option<PathBuf>,
}

impl Probes {
    /// Counting-only without a tracer, timing and spans with one.
    pub fn for_run(tracer: Option<Arc<Tracer>>) -> Arc<Self> {
        Arc::new(Probes {
            timing: tracer.is_some(),
            tracer,
            ..Probes::default()
        })
    }

    /// The totals of every registered task.
    pub fn snapshot(&self) -> Vec<StageRow> {
        self.stages
            .lock()
            .expect("probe registry poisoned")
            .iter()
            .map(|s| {
                (
                    s.component.clone(),
                    s.task_index,
                    s.execs.load(Ordering::Relaxed),
                    s.busy_ns.load(Ordering::Relaxed),
                )
            })
            .collect()
    }
}

/// Reads and removes the per-task files worker processes left in `dir`.
pub fn collect_dumps(dir: &std::path::Path) -> Vec<StageRow> {
    let mut rows = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return rows;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let is_dump = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("stage_"));
        if !is_dump {
            continue;
        }
        if let Ok(text) = std::fs::read_to_string(&path) {
            let f: Vec<&str> = text.split_whitespace().collect();
            if let [component, task, execs, busy] = f[..] {
                rows.push((
                    component.to_owned(),
                    task.parse().unwrap_or(0),
                    execs.parse().unwrap_or(0),
                    busy.parse().unwrap_or(0),
                ));
            }
        }
        let _ = std::fs::remove_file(&path);
    }
    rows
}

/// Observing wrapper around a benchmark-owned bolt.
pub struct Timed<B> {
    inner: B,
    probes: Arc<Probes>,
    stats: Arc<StageStats>,
    span_name: String,
}

impl<B: Bolt> Timed<B> {
    pub fn new(inner: B, probes: Arc<Probes>) -> Self {
        Timed {
            inner,
            probes,
            stats: Arc::default(),
            span_name: String::new(),
        }
    }
}

impl<B: Bolt> Bolt for Timed<B> {
    fn prepare(&mut self, ctx: &TopologyContext) {
        self.stats = Arc::new(StageStats {
            component: ctx.component.clone(),
            task_index: ctx.task_index,
            ..StageStats::default()
        });
        self.span_name = format!("{}.execute", ctx.component);
        self.probes
            .stages
            .lock()
            .expect("probe registry poisoned")
            .push(self.stats.clone());
        self.inner.prepare(ctx);
    }

    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        let nth = self.stats.execs.fetch_add(1, Ordering::Relaxed);
        if !self.probes.timing {
            return self.inner.execute(tuple, out);
        }
        // Reading the clock around every call would itself cost a tenth of
        // a flood's throughput, so one call in SAMPLE_EVERY is timed and
        // stands for the others in the busy total.
        let id = tuple_id(tuple);
        if !sampled(id.unwrap_or(nth)) {
            return self.inner.execute(tuple, out);
        }
        let t0 = Instant::now();
        self.inner.execute(tuple, out);
        let t1 = Instant::now();
        self.stats.busy_ns.fetch_add(
            (t1 - t0).as_nanos() as u64 * SAMPLE_EVERY,
            Ordering::Relaxed,
        );
        if let (Some(tracer), Some(id)) = (&self.probes.tracer, id) {
            let tid = 1 + self.stats.task_index as u32;
            tracer.span(&self.span_name, "gen.emit_to_ack", id, t0, t1, tid);
        }
    }

    fn tick(&mut self, out: &mut BoltOutput) {
        self.inner.tick(out);
    }

    fn cleanup(&mut self) {
        self.inner.cleanup();
        if let Some(dir) = &self.probes.dump_dir {
            let s = &self.stats;
            let line = format!(
                "{} {} {} {}\n",
                s.component,
                s.task_index,
                s.execs.load(Ordering::Relaxed),
                s.busy_ns.load(Ordering::Relaxed)
            );
            let name = format!(
                "stage_{}_{}_{}.txt",
                std::process::id(),
                s.component,
                s.task_index
            );
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(dir.join(name), line);
        }
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
        self.inner.stateful()
    }
}

/// The generator's tuple id, wherever the payload carries it.
fn tuple_id(tuple: &Tuple) -> Option<u64> {
    let v = if tuple.fields().is_empty() {
        tuple.get(0)
    } else {
        tuple.get_by_field("id")
    };
    v.and_then(Value::as_i64).map(|i| i as u64)
}

/// Re-emits its input anchored (keeps the tree alive one more hop).
pub struct Relay;
impl Bolt for Relay {
    fn execute(&mut self, t: &Tuple, out: &mut BoltOutput) {
        out.emit(t.clone());
    }
}

/// Terminal stage.
pub struct Sink;
impl Bolt for Sink {
    fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
}

/// CPU-bound stage: spins for a fixed time per tuple.
pub struct Spin(pub Duration);
impl Bolt for Spin {
    fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {
        let until = Instant::now() + self.0;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }
}

pub fn parsed_fields() -> Fields {
    Fields::new(["url", "id"])
}

/// `rt_paced` first stage: projects the generator's tuple to `(url, id)`.
pub struct Parse {
    fields: Fields,
}

impl Default for Parse {
    fn default() -> Self {
        Parse {
            fields: parsed_fields(),
        }
    }
}

impl Bolt for Parse {
    fn execute(&mut self, t: &Tuple, out: &mut BoltOutput) {
        if let (Some(url), Some(id)) = (t.get_by_field("key"), t.get_by_field("id")) {
            out.emit(Tuple::with_fields(
                [url.clone(), id.clone()],
                self.fields.clone(),
            ));
        }
    }
}

/// `rt_paced` window aggregate: hits per URL; a closing window emits one
/// `(window_start, url, count)` tuple per URL.
pub struct UrlCount;

impl WindowAggregate for UrlCount {
    type Acc = HashMap<String, u64>;

    fn add(&mut self, acc: &mut Self::Acc, tuple: &Tuple) {
        if let Some(url) = tuple.get_by_field("url").and_then(Value::as_str) {
            match acc.get_mut(url) {
                Some(c) => *c += 1,
                None => {
                    acc.insert(url.to_owned(), 1);
                }
            }
        }
    }

    fn emit(&mut self, window_start_s: f64, acc: Self::Acc, out: &mut BoltOutput) {
        for (url, count) in acc {
            out.emit(Tuple::of([
                Value::from(window_start_s),
                Value::from(url),
                Value::from(count as i64),
            ]));
        }
    }
}

/// Totals the `report` stage has received: per-URL hits summed over all
/// closed windows, and their grand total.
#[derive(Default)]
pub struct ReportTotals {
    pub per_url: Mutex<HashMap<String, u64>>,
    pub total: AtomicU64,
    pub windows: Mutex<std::collections::BTreeSet<i64>>,
}

/// `rt_paced` last stage: folds window results into [`ReportTotals`].
pub struct Report(pub Arc<ReportTotals>);

impl Bolt for Report {
    fn execute(&mut self, t: &Tuple, _o: &mut BoltOutput) {
        let v = t.values();
        if let [Value::F64(start), Value::Str(url), Value::I64(count)] = v {
            *self
                .0
                .per_url
                .lock()
                .expect("report totals poisoned")
                .entry(url.to_string())
                .or_insert(0) += *count as u64;
            self.0
                .windows
                .lock()
                .expect("report windows poisoned")
                .insert(*start as i64);
            self.0.total.fetch_add(*count as u64, Ordering::SeqCst);
        }
    }
}
