//! Sampled per-tuple-tree tracing: spans, ring buffers, and exporters.
//!
//! A tuple tree is sampled by a deterministic hash test on its root id, so
//! every thread — the spout that tracks the tree, each bolt that executes a
//! hop, and whichever thread delivers the terminal outcome — reaches the
//! same decision with no shared state and no coordination.  Sampled spans
//! go into the recording task's own fixed-capacity buffer (one uncontended
//! mutex per task); when a buffer fills, *new* spans are rejected and
//! counted, so early spans (the tree roots) survive overload.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, JsonValue, Serialize};

use crate::acker::{splitmix64, Completion, RootId, TreeOutcome};
use crate::hash::FxHashMap;

/// The role a [`Span`] plays within its tuple tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// The spout emission that started (or replayed) the tree.
    SpoutEmit,
    /// One bolt execution of a tuple belonging to the tree.
    Hop,
    /// Terminal event: the tree fully acked.
    Ack,
    /// Terminal event: the tree failed.
    Fail,
    /// Terminal event: the tree timed out on the acker.
    Timeout,
}

impl SpanKind {
    /// True for the ack/fail/timeout terminal events.
    pub fn is_terminal(self) -> bool {
        matches!(self, SpanKind::Ack | SpanKind::Fail | SpanKind::Timeout)
    }
}

/// One traced hop or terminal event of a sampled tuple tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Trace id of the tree: `splitmix64(root)`.
    pub trace_id: u64,
    /// Root id of the tree on the acker.
    pub root: u64,
    /// What this span records.
    pub kind: SpanKind,
    /// Component the recording task runs.
    pub component: String,
    /// Global task id of the recording task.
    pub task: usize,
    /// Worker hosting the recording task.
    pub worker: usize,
    /// Span start, µs since runtime start.
    pub start_us: u64,
    /// Time the tuple waited in the inbound queue, µs (hops only).
    pub queue_wait_us: u64,
    /// Execution time, µs; for terminal events the tree's complete latency.
    pub exec_us: u64,
    /// Sequence number of the delivering batch within the executing task.
    pub batch_id: u64,
    /// Replay attempt of the tree's spout emission (0 = first emission).
    pub replay_attempt: u32,
    /// Spout message id (spout-emit and terminal spans).
    pub message_id: Option<u64>,
    /// OS process id of the recording process (0 = single-process run; the
    /// distributed coordinator stamps real pids when merging worker spans).
    pub pid: u32,
    /// Worker connection generation the span was recorded under (0 before
    /// the first respawn and for single-process runs).
    pub generation: u64,
}

/// Trace id of a tuple tree (shared with the acker's edge-id scrambler).
pub fn trace_id(root: RootId) -> u64 {
    splitmix64(root)
}

struct SpanBuf {
    spans: VecDeque<Span>,
    dropped: u64,
}

/// Per-task metadata the tracer stamps into each span.
#[derive(Debug, Clone)]
struct TaskMeta {
    component: Arc<str>,
    worker: usize,
}

/// Sampling decision plus per-task span ring buffers.
///
/// Slots are indexed by recording task id; one extra trailing slot belongs
/// to the metrics thread (which delivers timeout outcomes), mirroring the
/// runtime's latency-slot layout.
pub struct Tracer {
    /// Sample iff `splitmix64(root) < threshold`; `0` disables, `u64::MAX`
    /// samples everything.
    threshold: u64,
    slots: Vec<Mutex<SpanBuf>>,
    meta: Vec<TaskMeta>,
    capacity: usize,
}

/// Per-task span buffer capacity.  At sample rate 1.0 a chaos-test run
/// stays well under this; overload rejects new spans and counts them.
pub const SPAN_BUF_CAPACITY: usize = 1 << 16;

impl Tracer {
    /// A tracer with `slots` buffers (pass `n_tasks + 1`; the last slot is
    /// for the metrics thread) and per-task metadata `(component, worker)`
    /// indexed by task id.
    pub fn new(sample_rate: f64, slots: usize, meta: Vec<(String, usize)>) -> Self {
        let threshold = if sample_rate.is_nan() || sample_rate <= 0.0 {
            0
        } else if sample_rate >= 1.0 {
            u64::MAX
        } else {
            (sample_rate * u64::MAX as f64) as u64
        };
        Tracer {
            threshold,
            slots: (0..slots)
                .map(|_| {
                    Mutex::new(SpanBuf {
                        spans: VecDeque::new(),
                        dropped: 0,
                    })
                })
                .collect(),
            meta: meta
                .into_iter()
                .map(|(component, worker)| TaskMeta {
                    component: Arc::from(component),
                    worker,
                })
                .collect(),
            capacity: SPAN_BUF_CAPACITY,
        }
    }

    /// True when any tree can be sampled.  Data-plane call sites branch on
    /// this once per batch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.threshold != 0
    }

    /// Deterministic per-tree sampling decision.
    #[inline]
    pub fn sampled(&self, root: RootId) -> bool {
        self.threshold == u64::MAX || (self.threshold != 0 && splitmix64(root) < self.threshold)
    }

    fn component_of(&self, task: usize) -> String {
        self.meta
            .get(task)
            .map(|m| m.component.to_string())
            .unwrap_or_default()
    }

    fn worker_of(&self, task: usize) -> usize {
        self.meta.get(task).map(|m| m.worker).unwrap_or_default()
    }

    fn push(&self, slot: usize, span: Span) {
        if let Some(buf) = self.slots.get(slot) {
            let mut buf = buf.lock();
            if buf.spans.len() >= self.capacity {
                buf.dropped += 1;
            } else {
                buf.spans.push_back(span);
            }
        }
    }

    /// Records the spout emission that started (or replayed) a sampled tree.
    #[allow(clippy::too_many_arguments)]
    pub fn record_emit(
        &self,
        slot: usize,
        root: RootId,
        task: usize,
        start_us: u64,
        replay_attempt: u32,
        message_id: u64,
    ) {
        self.push(
            slot,
            Span {
                trace_id: trace_id(root),
                root,
                kind: SpanKind::SpoutEmit,
                component: self.component_of(task),
                task,
                worker: self.worker_of(task),
                start_us,
                queue_wait_us: 0,
                exec_us: 0,
                batch_id: 0,
                replay_attempt,
                message_id: Some(message_id),
                pid: 0,
                generation: 0,
            },
        );
    }

    /// Records one bolt execution of a tuple from a sampled tree.
    #[allow(clippy::too_many_arguments)]
    pub fn record_hop(
        &self,
        slot: usize,
        root: RootId,
        task: usize,
        start_us: u64,
        queue_wait_us: u64,
        exec_us: u64,
        batch_id: u64,
    ) {
        self.push(
            slot,
            Span {
                trace_id: trace_id(root),
                root,
                kind: SpanKind::Hop,
                component: self.component_of(task),
                task,
                worker: self.worker_of(task),
                start_us,
                queue_wait_us,
                exec_us,
                batch_id,
                replay_attempt: 0,
                message_id: None,
                pid: 0,
                generation: 0,
            },
        );
    }

    /// Records the terminal ack/fail/timeout event of a sampled tree.
    #[allow(clippy::too_many_arguments)]
    pub fn record_terminal(
        &self,
        slot: usize,
        root: RootId,
        kind: SpanKind,
        spout_task: usize,
        start_us: u64,
        complete_us: u64,
        message_id: u64,
    ) {
        debug_assert!(kind.is_terminal());
        self.push(
            slot,
            Span {
                trace_id: trace_id(root),
                root,
                kind,
                component: self.component_of(spout_task),
                task: spout_task,
                worker: self.worker_of(spout_task),
                start_us,
                queue_wait_us: 0,
                exec_us: complete_us,
                batch_id: 0,
                replay_attempt: 0,
                message_id: Some(message_id),
                pid: 0,
                generation: 0,
            },
        );
    }

    /// Records the terminal event of a sampled tree from its acker outcome.
    pub fn record_outcome(&self, slot: usize, o: &TreeOutcome) {
        let kind = match o.completion {
            Completion::Acked => SpanKind::Ack,
            Completion::Failed => SpanKind::Fail,
            Completion::TimedOut => SpanKind::Timeout,
        };
        self.record_terminal(
            slot,
            o.root,
            kind,
            o.spout_task.0,
            (o.completed_at * 1e6) as u64,
            (o.complete_latency() * 1e6).max(0.0) as u64,
            o.message_id,
        );
    }

    /// Takes all buffered spans, slot by slot in record order (the run
    /// report sorts the merged log, once), and resets the dropped counters,
    /// returning `(spans, dropped_since_last_drain)`.  The distributed worker
    /// drains its local tracer on every
    /// [`SpanBatch`](crate::dist::codec::Frame::SpanBatch) push so spans ship
    /// incrementally instead of accumulating; the runtimes drain theirs once,
    /// into the report.
    pub fn drain(&self) -> (Vec<Span>, u64) {
        let mut spans = Vec::new();
        let mut dropped = 0;
        for slot in &self.slots {
            let mut buf = slot.lock();
            spans.extend(buf.spans.drain(..));
            dropped += buf.dropped;
            buf.dropped = 0;
        }
        (spans, dropped)
    }
}

/// Shifts every span's `start_us` by `offset_us` (saturating at zero), the
/// clock re-basing the distributed coordinator applies to worker spans.
/// The offset is estimated at the `Hello` handshake as
/// `coordinator_now_us − worker_clock_us`, so after the shift all spans of
/// a merged trace share the coordinator's clock to within one socket
/// one-way latency.
pub fn normalize_start_us(spans: &mut [Span], offset_us: i64) {
    for s in spans {
        s.start_us = if offset_us >= 0 {
            s.start_us.saturating_add(offset_us as u64)
        } else {
            s.start_us.saturating_sub(offset_us.unsigned_abs())
        };
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders spans as Chrome `trace_event` JSON — the format `chrome://tracing`
/// and [Perfetto](https://ui.perfetto.dev) open directly.  Hops and spout
/// emissions become `"ph":"X"` complete events (pid = the span's OS pid
/// when stamped, else its logical worker; tid = task); terminal events
/// become `"ph":"i"` instants.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    chrome_trace_json_named(spans, &[])
}

/// The Chrome `pid` track a span renders under: the real OS pid when the
/// distributed coordinator stamped one, else the logical worker index.
fn chrome_pid(s: &Span) -> u64 {
    if s.pid != 0 {
        u64::from(s.pid)
    } else {
        s.worker as u64
    }
}

/// Like [`chrome_trace_json`], but prefixes `process_name` metadata records
/// (`"ph":"M"`) so each process renders as its own named track: one record
/// per distinct pid appearing in `spans`, named from `process_names`
/// (`(pid, name)` pairs) with a `"process <pid>"` fallback.
/// [`Report::chrome_trace_json`](crate::report::Report::chrome_trace_json)
/// names a `dist` run's coordinator and every worker generation here so
/// cross-process traces stay readable.
pub fn chrome_trace_json_named(spans: &[Span], process_names: &[(u64, String)]) -> String {
    let mut events: Vec<JsonValue> = Vec::new();
    if !process_names.is_empty() {
        let mut seen: Vec<u64> = Vec::new();
        for s in spans {
            let pid = chrome_pid(s);
            if !seen.contains(&pid) {
                seen.push(pid);
            }
        }
        seen.sort_unstable();
        for pid in seen {
            let name = process_names
                .iter()
                .find(|(p, _)| *p == pid)
                .map(|(_, n)| n.clone())
                .unwrap_or_else(|| format!("process {pid}"));
            events.push(obj(vec![
                ("name", JsonValue::Str("process_name".to_string())),
                ("ph", JsonValue::Str("M".to_string())),
                ("pid", JsonValue::U64(pid)),
                ("args", obj(vec![("name", JsonValue::Str(name))])),
            ]));
        }
    }
    events.extend(spans.iter().map(|s| {
        let args = obj(vec![
            ("trace_id", JsonValue::Str(format!("{:016x}", s.trace_id))),
            ("root", JsonValue::U64(s.root)),
            ("queue_wait_us", JsonValue::U64(s.queue_wait_us)),
            ("batch_id", JsonValue::U64(s.batch_id)),
            ("replay_attempt", JsonValue::U64(s.replay_attempt as u64)),
        ]);
        let mut fields = vec![
            (
                "name",
                JsonValue::Str(match s.kind {
                    SpanKind::SpoutEmit => format!("emit:{}", s.component),
                    SpanKind::Hop => s.component.clone(),
                    SpanKind::Ack => "ack".to_string(),
                    SpanKind::Fail => "fail".to_string(),
                    SpanKind::Timeout => "timeout".to_string(),
                }),
            ),
            (
                "cat",
                JsonValue::Str(
                    match s.kind {
                        SpanKind::SpoutEmit => "spout",
                        SpanKind::Hop => "hop",
                        _ => "terminal",
                    }
                    .to_string(),
                ),
            ),
            ("ts", JsonValue::U64(s.start_us)),
            ("pid", JsonValue::U64(chrome_pid(s))),
            ("tid", JsonValue::U64(s.task as u64)),
        ];
        if s.kind.is_terminal() {
            fields.push(("ph", JsonValue::Str("i".to_string())));
            fields.push(("s", JsonValue::Str("p".to_string())));
        } else {
            fields.push(("ph", JsonValue::Str("X".to_string())));
            fields.push(("dur", JsonValue::U64(s.exec_us.max(1))));
        }
        fields.push(("args", args));
        obj(fields)
    }));
    let doc = obj(vec![
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", JsonValue::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).expect("trace serialization cannot fail")
}

/// Renders spans as JSONL: one JSON span object per line.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&serde_json::to_string(s).expect("span serialization cannot fail"));
        out.push('\n');
    }
    out
}

/// Writes [`spans_jsonl`] output to `path`.
pub fn write_spans_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(spans_jsonl(spans).as_bytes())
}

// ---------------------------------------------------------------------------
// Consistency checking
// ---------------------------------------------------------------------------

/// Aggregate shape of a span set, as checked by [`validate_spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Distinct sampled tuple trees (distinct roots).
    pub trees: usize,
    /// Trees with a terminal ack/fail/timeout event.
    pub terminated_trees: usize,
    /// Trees with no terminal event (in flight when the snapshot was taken).
    pub open_trees: usize,
    /// Trees whose spout emission has `replay_attempt > 0`.
    pub replayed_trees: usize,
    /// Total hop spans.
    pub hop_spans: usize,
}

/// Checks per-tree structural consistency of a span set and summarizes it.
///
/// Every root must have exactly one spout-emit span and at most one
/// terminal event, and hop/terminal spans must not appear for a root that
/// never recorded its emission.  Violations return `Err` with a
/// description; trees that are merely unterminated (still in flight) are
/// legal and reported via [`TraceSummary::open_trees`].
pub fn validate_spans(spans: &[Span]) -> Result<TraceSummary, String> {
    #[derive(Default)]
    struct Tree {
        emits: usize,
        terminals: usize,
        hops: usize,
        replayed: bool,
    }
    let mut trees: FxHashMap<u64, Tree> = FxHashMap::default();
    for s in spans {
        let t = trees.entry(s.root).or_default();
        match s.kind {
            SpanKind::SpoutEmit => {
                t.emits += 1;
                t.replayed |= s.replay_attempt > 0;
            }
            SpanKind::Hop => t.hops += 1,
            _ => t.terminals += 1,
        }
        if s.trace_id != splitmix64(s.root) {
            return Err(format!(
                "span for root {} carries trace id {:#x}, expected {:#x}",
                s.root,
                s.trace_id,
                splitmix64(s.root)
            ));
        }
    }
    let mut summary = TraceSummary {
        trees: trees.len(),
        ..TraceSummary::default()
    };
    for (root, t) in &trees {
        if t.emits == 0 {
            return Err(format!("root {root} has spans but no spout-emit span"));
        }
        if t.emits > 1 {
            return Err(format!("root {root} has {} spout-emit spans", t.emits));
        }
        if t.terminals > 1 {
            return Err(format!("root {root} has {} terminal events", t.terminals));
        }
        if t.terminals == 1 {
            summary.terminated_trees += 1;
        } else {
            summary.open_trees += 1;
        }
        if t.replayed {
            summary.replayed_trees += 1;
        }
        summary.hop_spans += t.hops;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new(1.0, 3, vec![("src".into(), 0), ("work".into(), 1)])
    }

    #[test]
    fn sampling_thresholds() {
        let none = Tracer::new(0.0, 1, vec![]);
        let all = Tracer::new(1.0, 1, vec![]);
        assert!(!none.enabled());
        assert!(all.enabled());
        for root in 1..100 {
            assert!(!none.sampled(root));
            assert!(all.sampled(root));
        }
        let half = Tracer::new(0.5, 1, vec![]);
        let hits = (1..10_000u64).filter(|&r| half.sampled(r)).count();
        assert!(
            (3_500..6_500).contains(&hits),
            "0.5 sampling hit {hits}/9999"
        );
    }

    #[test]
    fn spans_validate_and_roundtrip() {
        let t = tracer();
        t.record_emit(0, 7, 0, 10, 0, 99);
        t.record_hop(1, 7, 1, 20, 5, 30, 2);
        t.record_terminal(2, 7, SpanKind::Ack, 0, 60, 50, 99);
        t.record_emit(0, 8, 0, 70, 1, 99);
        let (spans, dropped) = t.drain();
        assert_eq!(spans.len(), 4);
        assert_eq!(dropped, 0);
        let summary = validate_spans(&spans).unwrap();
        assert_eq!(summary.trees, 2);
        assert_eq!(summary.terminated_trees, 1);
        assert_eq!(summary.open_trees, 1);
        assert_eq!(summary.replayed_trees, 1);
        assert_eq!(summary.hop_spans, 1);

        // JSONL round-trips through serde.
        let jsonl = spans_jsonl(&spans);
        let back: Vec<Span> = jsonl
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back, spans);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let t = tracer();
        t.record_emit(0, 7, 0, 10, 0, 1);
        t.record_hop(1, 7, 1, 20, 5, 30, 0);
        t.record_terminal(2, 7, SpanKind::Timeout, 0, 60, 50, 1);
        let (spans, _) = t.drain();
        let doc = serde_json::parse(&chrome_trace_json(&spans)).unwrap();
        let events = doc
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents"))
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 3);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| {
                e.as_object()
                    .and_then(|o| o.iter().find(|(k, _)| k == "ph"))
                    .and_then(|(_, v)| v.as_str())
                    .unwrap()
            })
            .collect();
        assert_eq!(phases, ["X", "X", "i"]);
    }

    #[test]
    fn named_chrome_trace_emits_process_metadata() {
        let t = tracer();
        t.record_emit(0, 7, 0, 10, 0, 1);
        t.record_hop(1, 7, 1, 20, 5, 30, 0);
        let (mut spans, _) = t.drain();
        // Stamp the hop as coming from a separate worker process.
        for s in &mut spans {
            if s.kind == SpanKind::Hop {
                s.pid = 4711;
                s.generation = 1;
            }
        }
        let names = vec![(4711u64, "worker 0 gen 1".to_string())];
        let doc = serde_json::parse(&chrome_trace_json_named(&spans, &names)).unwrap();
        let events = doc
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents"))
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array");
        // Two distinct pids (coordinator track 0, worker 4711) => two
        // metadata records ahead of the two span events.
        assert_eq!(events.len(), 4);
        let metas: Vec<_> = events
            .iter()
            .filter(|e| {
                e.as_object()
                    .and_then(|o| o.iter().find(|(k, _)| k == "ph"))
                    .and_then(|(_, v)| v.as_str())
                    == Some("M")
            })
            .collect();
        assert_eq!(metas.len(), 2);
        let text = chrome_trace_json_named(&spans, &names);
        assert!(text.contains("worker 0 gen 1"));
        assert!(text.contains("process_name"));
    }

    #[test]
    fn normalize_shifts_span_clocks() {
        let t = tracer();
        t.record_emit(0, 7, 0, 1_000, 0, 1);
        let (mut spans, _) = t.drain();
        normalize_start_us(&mut spans, 500);
        assert_eq!(spans[0].start_us, 1_500);
        normalize_start_us(&mut spans, -700);
        assert_eq!(spans[0].start_us, 800);
        normalize_start_us(&mut spans, -10_000);
        assert_eq!(spans[0].start_us, 0, "shifts saturate at zero");
    }

    #[test]
    fn inconsistent_span_sets_are_rejected() {
        let t = tracer();
        t.record_hop(1, 7, 1, 20, 5, 30, 0);
        let (spans, _) = t.drain();
        assert!(validate_spans(&spans)
            .unwrap_err()
            .contains("no spout-emit"));

        let t = tracer();
        t.record_emit(0, 7, 0, 10, 0, 1);
        t.record_terminal(2, 7, SpanKind::Ack, 0, 60, 50, 1);
        t.record_terminal(2, 7, SpanKind::Timeout, 0, 61, 51, 1);
        let (spans, _) = t.drain();
        assert!(validate_spans(&spans)
            .unwrap_err()
            .contains("terminal events"));
    }

    #[test]
    fn buffer_overflow_rejects_and_counts() {
        let t = Tracer::new(1.0, 1, vec![("s".into(), 0)]);
        for i in 0..(SPAN_BUF_CAPACITY as u64 + 10) {
            t.record_emit(0, i + 1, 0, i, 0, i);
        }
        let (spans, dropped) = t.drain();
        assert_eq!(spans.len(), SPAN_BUF_CAPACITY);
        assert_eq!(dropped, 10);
    }
}
