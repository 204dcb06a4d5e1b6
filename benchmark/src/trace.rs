//! Benchmark-owned span recorder: spans are taken around calls into each
//! layer from the harness's own spouts, bolt wrappers and hooks, kept in
//! memory, and written at exit as Chrome `trace_event` JSON.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One tuple in this many is traced (decided on the tuple id that rides in
/// the payload, so every wrapper agrees without shared state).
pub const SAMPLE_EVERY: u64 = 64;

/// Spans kept per run; later ones are counted as dropped.
const MAX_SPANS: usize = 100_000;

pub fn sampled(id: u64) -> bool {
    id.is_multiple_of(SAMPLE_EVERY)
}

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: String,
    /// Name of the span that caused this one (`""` for a root).
    pub parent: String,
    /// Shared by all spans of one request (tuple id, epoch index, run index).
    pub trace_id: u64,
    pub start_us: f64,
    pub dur_us: f64,
    pub pid: u32,
    pub tid: u32,
}

/// In-memory span store shared by every recording site of a run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds from the run's epoch to `t`.
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn record(&self, span: SpanRec) {
        let mut spans = self.spans.lock().expect("span store poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `[start, end)` on the calling process under `name`.
    pub fn span(
        &self,
        name: &str,
        parent: &str,
        trace_id: u64,
        start: Instant,
        end: Instant,
        tid: u32,
    ) {
        self.record(SpanRec {
            name: name.to_owned(),
            parent: parent.to_owned(),
            trace_id,
            start_us: self.us(start),
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            pid: std::process::id(),
            tid,
        });
    }

    pub fn take(&self) -> (Vec<SpanRec>, u64) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span store poisoned"));
        (spans, self.dropped.load(Ordering::Relaxed))
    }
}

/// Per span name: count, total duration and self time (duration minus the
/// part covered by child spans of the same trace), all in µs.
pub fn self_times(spans: &[SpanRec]) -> Vec<(String, u64, f64, f64)> {
    use std::collections::BTreeMap;
    let mut by_trace: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut agg: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for group in by_trace.values() {
        for s in group {
            let mut kids: Vec<(f64, f64)> = group
                .iter()
                .filter(|c| c.parent == s.name && !std::ptr::eq(**c, *s))
                .map(|c| {
                    (
                        c.start_us.max(s.start_us),
                        (c.start_us + c.dur_us).min(s.start_us + s.dur_us),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut edge) = (0.0, f64::MIN);
            for (a, b) in kids {
                let a = a.max(edge);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            let e = agg.entry(s.name.as_str()).or_default();
            e.0 += 1;
            e.1 += s.dur_us;
            e.2 += (s.dur_us - covered).max(0.0);
        }
    }
    agg.into_iter()
        .map(|(n, (c, d, s))| (n.to_owned(), c, d, s))
        .collect()
}

/// Writes `spans` as Chrome `trace_event` JSON (complete events, `ph: "X"`;
/// `args` carries the trace id and the parent span's name).
pub fn write_chrome_trace(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut s = String::with_capacity(spans.len() * 160 + 64);
    s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":{},\"parent\":\"{}\"}}}}",
            sp.name,
            sp.name.split('.').next().unwrap_or(""),
            sp.start_us,
            sp.dur_us,
            sp.pid,
            sp.tid,
            sp.trace_id,
            sp.parent
        );
    }
    s.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}
