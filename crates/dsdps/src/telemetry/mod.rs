//! Observability for the threaded runtime: sampled distributed tracing, a
//! live metrics registry, and a control-plane event journal.
//!
//! The interval-level [`crate::metrics::MetricsSnapshot`]s answer *what* the
//! topology did; this module answers *why*.  Three pillars:
//!
//! * **Sampled tracing** ([`trace`]): every tuple tree already has a 64-bit
//!   root id; `splitmix64(root)` doubles as its trace id.  A configurable
//!   fraction of trees (`RtConfig::trace_sample_rate`) records one
//!   [`Span`] per hop — component, task, worker, queue wait, execute time,
//!   batch id, replay attempt — plus the terminal ack/fail/timeout event.
//!   Spans land in per-task ring buffers and are merged at shutdown into
//!   Chrome `trace_event` JSON (viewable in `chrome://tracing` / Perfetto)
//!   and a JSONL span log.
//! * **Metrics registry** ([`registry`]): counters, gauges, and log2-bucket
//!   latency summaries registered by name + labels.  Updates are plain
//!   atomic stores through cached handles (no lock, no lookup); the
//!   registry renders Prometheus text exposition, served live by the
//!   minimal [`MetricsServer`] (`RtConfig::metrics_addr`) or dumped to a
//!   file for tests.
//! * **Event journal** ([`journal`]): an append-only timestamped log of
//!   control-plane decisions — routing-ratio updates, supervisor restarts,
//!   replay/backoff decisions, fault injections — serialized to JSONL and
//!   cross-referencable with trace ids.
//!
//! The disabled path (sample rate 0, no registry address) costs one branch
//! per batch on the data plane and allocates nothing.

pub mod http;
pub mod journal;
pub mod registry;
pub mod trace;

pub use http::MetricsServer;
pub use journal::{Journal, JournalEvent};
pub use registry::{Counter, Gauge, Registry, SampleValue, Summary};
pub use trace::{
    chrome_trace_json, chrome_trace_json_named, normalize_start_us, spans_jsonl, validate_spans,
    write_spans_jsonl, Span, SpanKind, TraceSummary, Tracer,
};

/// Hot-path instrumentation is always compiled in; there is one build
/// configuration.  Kept because run stamps print it.
pub const HOT_PATH_TELEMETRY: bool = true;
