//! Compact binary wire codec for the distributed runtime.
//!
//! Every cross-process hop — tuples, acks, credit grants, checkpoint
//! deposits and control messages — is one length-prefixed **frame**:
//!
//! ```text
//! frame := len:varint  tag:u8  body
//! ```
//!
//! Integers are LEB128 varints (signed values zigzag-encoded), floats are
//! 8 little-endian bytes, strings and byte strings are length-prefixed.
//! Field schemas are never sent per tuple: both sides of a connection
//! build the same topology from the same registry entry, so a tuple
//! travels as its producer's component id plus raw values and the receiver
//! looks the producer's output schema up.  Encoding appends into a
//! caller-owned, reusable `Vec<u8>`; decoding never allocates beyond the
//! decoded values themselves and **never panics** on truncated or corrupted
//! input — every length is bounds-checked against the remaining payload.
//!
//! [`write_json_value`] / [`read_json_value`] binary-encode a
//! [`serde::JsonValue`] tree — the workspace serde model — and back.  The
//! checkpoint store reuses them for compact state snapshots (see
//! [`crate::checkpoint`]).

/// An [`AckBatch`](Frame::AckBatch) item is the crate's ack record.
pub use crate::acker::AckRecord as AckItem;
use crate::checkpoint::{SnapshotKind, StateSnapshot};
use crate::rt::CreditTotals;
use crate::tuple::Value;

/// Frames larger than this are rejected as malformed (a corrupted length
/// prefix must not make the reader allocate gigabytes).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// A decode failure.  Carries enough context to debug a corrupt stream;
/// decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the value it promised.
    Truncated,
    /// A tag, length or invariant was out of range.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// --- varints ------------------------------------------------------------

/// Appends `v` as an LEB128 varint (1–10 bytes).
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Zigzag-maps a signed value so small magnitudes stay short varints.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bounds-checked cursor over an encoded payload.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte was consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an LEB128 varint (at most 10 bytes).
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::Malformed("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::Malformed("varint longer than 10 bytes"));
            }
        }
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn svarint(&mut self) -> Result<i64, CodecError> {
        Ok(unzigzag(self.varint()?))
    }

    /// Reads a varint and checks it fits a length of remaining payload.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(n as usize)
    }

    /// Reads a varint element *count*; each element needs ≥ 1 byte, so a
    /// count beyond the remaining bytes is corruption, not a short read.
    fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::Malformed("element count exceeds payload"));
        }
        Ok(n as usize)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length-prefixed byte string.
    pub fn byte_str(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.len()?;
        self.bytes(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.byte_str()?).map_err(|_| CodecError::Malformed("invalid UTF-8"))
    }

    /// Reads an 8-byte little-endian u64.
    pub fn u64_le(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an 8-byte little-endian f64.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64_le()?))
    }
}

#[inline]
fn write_str(buf: &mut Vec<u8>, s: &str) {
    write_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

#[inline]
fn write_byte_str(buf: &mut Vec<u8>, s: &[u8]) {
    write_varint(buf, s.len() as u64);
    buf.extend_from_slice(s);
}

// --- tuple values -------------------------------------------------------

const V_NULL: u8 = 0;
const V_FALSE: u8 = 1;
const V_TRUE: u8 = 2;
const V_I64: u8 = 3;
const V_F64: u8 = 4;
const V_STR: u8 = 5;
const V_BYTES: u8 = 6;
const V_LIST: u8 = 7;

/// Appends one tuple [`Value`].
pub fn write_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(V_NULL),
        Value::Bool(false) => buf.push(V_FALSE),
        Value::Bool(true) => buf.push(V_TRUE),
        Value::I64(i) => {
            buf.push(V_I64);
            write_varint(buf, zigzag(*i));
        }
        Value::F64(x) => {
            buf.push(V_F64);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(V_STR);
            write_str(buf, s);
        }
        Value::Bytes(b) => {
            buf.push(V_BYTES);
            write_byte_str(buf, b);
        }
        Value::List(items) => {
            buf.push(V_LIST);
            write_varint(buf, items.len() as u64);
            for item in items {
                write_value(buf, item);
            }
        }
    }
}

/// Reads one tuple [`Value`].
pub fn read_value(d: &mut Dec<'_>) -> Result<Value, CodecError> {
    match d.u8()? {
        V_NULL => Ok(Value::Null),
        V_FALSE => Ok(Value::Bool(false)),
        V_TRUE => Ok(Value::Bool(true)),
        V_I64 => Ok(Value::I64(d.svarint()?)),
        V_F64 => Ok(Value::F64(d.f64()?)),
        V_STR => Ok(Value::from(d.str()?)),
        V_BYTES => Ok(Value::Bytes(bytes::Bytes::from(d.byte_str()?.to_vec()))),
        V_LIST => {
            let n = d.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(read_value(d)?);
            }
            Ok(Value::List(items))
        }
        _ => Err(CodecError::Malformed("unknown value tag")),
    }
}

fn write_values(buf: &mut Vec<u8>, values: &[Value]) {
    write_varint(buf, values.len() as u64);
    for v in values {
        write_value(buf, v);
    }
}

fn read_values(d: &mut Dec<'_>) -> Result<Vec<Value>, CodecError> {
    let n = d.count()?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(read_value(d)?);
    }
    Ok(values)
}

// --- frames -------------------------------------------------------------

/// One tuple delivery, on any data link (coordinator → worker for spout
/// emissions, worker → worker for bolt and tick emissions).
#[derive(Debug, Clone, PartialEq)]
pub struct WireTuple {
    /// Edge id of this delivery in its tuple tree (`0` when unanchored);
    /// the executing worker XORs it into its ack record ([`AckItem::xor`]).
    pub token: u64,
    /// Destination global task id.
    pub dest_task: u32,
    /// Component id of the producer (its output schema is implied).
    pub stream: u32,
    /// Replay-dedup id under exactly-once-effect recovery: the spout
    /// message id on the first hop, derived from the parent's id after.
    pub dedup: Option<u64>,
    /// Root id of the tuple tree, present iff the delivery is anchored.
    /// Workers derive the trace sampling decision from it and the rate in
    /// `Assign` (`trace_id = splitmix64(root)` is never sent).
    pub trace_root: Option<u64>,
    /// Raw tuple values; the schema is the producer's.
    pub values: Vec<Value>,
}

/// One hop span on the worker → coordinator telemetry path
/// ([`Frame::SpanBatch`]).  Carries only what the worker knows: timestamps
/// are µs on the **worker's** clock (the coordinator re-bases them with the
/// clock offset estimated at the `Hello`/`Assign` handshake) and the
/// component/worker/pid/generation tags are stamped coordinator-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// [`SpanKind`](crate::telemetry::SpanKind) discriminant
    /// (0 = spout-emit, 1 = hop, 2 = ack, 3 = fail, 4 = timeout).
    pub kind: u8,
    /// Tuple-tree root id the delivery carried.
    pub root: u64,
    /// Global task id that executed the tuple.
    pub task: u32,
    /// Start timestamp, µs on the worker's clock.
    pub start_us: u64,
    /// Socket-receipt → execution-start wait, µs.
    pub queue_wait_us: u64,
    /// Bolt execute time, µs.
    pub exec_us: u64,
    /// Sequence number of the tuple batch the delivery arrived in.
    pub batch_id: u64,
}

/// One metric sample on the worker → coordinator telemetry path
/// ([`Frame::MetricsPush`]).  Counters travel as **deltas** since the last
/// push (respawns restart from zero without double counting); gauges travel
/// as the current value with the f64 stored in `value` via `to_bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMetric {
    /// 0 = counter delta, 1 = gauge.
    pub kind: u8,
    /// Metric family name (the coordinator re-registers it under
    /// `worker`/`generation` labels).
    pub name: String,
    /// Peer slot when the sample describes one worker→worker link
    /// (re-registered with an extra `peer` label).
    pub peer: Option<u32>,
    /// Counter delta, or `f64::to_bits` of the gauge value.
    pub value: u64,
}

/// A worker's answer to [`Frame::Flush`]: its send-side accounting at the
/// moment the flush completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushReport {
    /// The flush sequence number being answered.
    pub seq: u64,
    /// Deliveries this worker sent or parked that no receiver has credited
    /// back yet.
    pub in_flight: u64,
    /// Monotone count of tuples executed plus tuples sent: unchanged
    /// between two reports means the worker did nothing in between.
    pub activity: u64,
    /// Totals of the worker's own credit ledger.
    pub credits: CreditTotals,
}

/// A live worker's data listener, as listed in [`Frame::Assign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePeer {
    /// Worker slot index.
    pub slot: u32,
    /// Connection generation of that slot (1 = first spawn).
    pub generation: u64,
    /// Its data endpoint, in `DSDPS_DIST_ADDR` syntax.
    pub endpoint: String,
}

/// Frame tag of `TupleBatch`, exposed so the transport's batching writer
/// can encode a batch incrementally (tag, count, then items one by one as
/// they drain) without materializing a `Frame` first.
pub const TUPLE_BATCH_TAG: u8 = 3;

const T_HELLO: u8 = 1;
const T_ASSIGN: u8 = 2;
const T_TUPLE_BATCH: u8 = TUPLE_BATCH_TAG;
const T_ACK_BATCH: u8 = 4;
const T_CREDIT_GRANT: u8 = 5;
const T_CHECKPOINT: u8 = 6;
const T_SET_RATIO: u8 = 7;
const T_RESTORE: u8 = 8;
const T_RESTORED: u8 = 9;
const T_FLUSH: u8 = 10;
const T_FLUSHED: u8 = 11;
const T_SHUTDOWN: u8 = 12;
const T_SPAN_BATCH: u8 = 14;
const T_METRICS_PUSH: u8 = 15;
const T_LAST_WORDS: u8 = 16;

/// Every message of the wire protocol.
///
/// Direction is noted per variant; see `DESIGN.md` §9 for the protocol
/// walk-through.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// First frame on a fresh connection: worker → coordinator, and
    /// dialing worker → accepting worker.
    Hello {
        /// Worker slot index (from `DSDPS_DIST_WORKER`).
        worker: u32,
        /// Worker OS process id, journaled by the coordinator.
        pid: u32,
        /// Worker clock reading (µs since the worker's span clock epoch) at
        /// the moment the frame was sent.  The coordinator estimates
        /// `offset = coordinator_now_us − clock_us` on receipt and re-bases
        /// every span the worker later ships.
        clock_us: u64,
        /// The sender's data listener in `DSDPS_DIST_ADDR` syntax, bound
        /// *before* this frame is sent so a peer's first dial succeeds.
        endpoint: String,
    },
    /// Coordinator → worker: topology assignment, routing table, peers
    /// and runtime knobs.
    Assign {
        /// Worker slot index the coordinator believes it is talking to.
        worker: u32,
        /// Connection generation of this slot (1 = first spawn).
        generation: u64,
        /// Registry name of the topology to build.
        topology: String,
        /// Opaque argument string passed to the registry builder.
        args: String,
        /// Owning worker slot per global task (`u32::MAX` = a spout task on
        /// the coordinator); the length doubles as a fingerprint.
        task_slots: Vec<u32>,
        /// Workers connected right now; the assignee dials each of them.
        peers: Vec<WirePeer>,
        /// [`RecoveryMode`](crate::rt::RecoveryMode) discriminant.
        recovery: u8,
        /// Checkpoint interval for stateful tasks, microseconds.
        ckpt_interval_us: u64,
        /// Bolt tick interval, microseconds (0 = no ticks).
        tick_interval_us: u64,
        /// Telemetry push cadence, microseconds: the worker ships
        /// [`Frame::SpanBatch`] + [`Frame::MetricsPush`] this often.
        metrics_interval_us: u64,
        /// Topology fingerprint: output stream count, one per component.
        stream_count: u32,
        /// Tuples per `TupleBatch` on peer links.
        batch_size: u32,
        /// Credit window (tuples per destination task) toward its peers.
        credit_window: u64,
        /// `f64::to_bits` of the trace sample rate.
        trace_sample_bits: u64,
        /// `RestoreState` frames that follow this one.  The assignee applies
        /// them all before it dials a peer or takes a tuple off any link.
        restores: u32,
    },
    /// A batch of tuple deliveries (any data link).
    TupleBatch {
        /// The deliveries, possibly for several of the receiver's tasks.
        items: Vec<WireTuple>,
    },
    /// Worker → coordinator: one ack record per executed anchored tuple.
    AckBatch {
        /// The records; order is irrelevant (XOR commutes).
        items: Vec<AckItem>,
    },
    /// Receiver → sender of a data link: flow-control credits for one of
    /// the receiver's tasks (granted back as deliveries are processed).
    CreditGrant {
        /// Global task id whose credit pool is replenished.
        task: u32,
        /// Credits granted.
        amount: u64,
    },
    /// Worker → coordinator: a state snapshot (full or delta) of one
    /// stateful task.  The ack records of the inputs it covers follow in an
    /// `AckBatch`.
    CheckpointDeposit {
        /// Global task id.
        task: u32,
        /// The snapshot.
        snapshot: StateSnapshot,
        /// Replay-dedup message ids captured with the snapshot.
        dedup: Vec<u64>,
    },
    /// Coordinator → worker: a dynamic grouping's split ratio changed.
    SetRatio {
        /// Index of the dynamic edge in router order (identical on both
        /// sides, which build the same topology).
        edge: u32,
        /// The new weights.
        weights: Vec<f64>,
    },
    /// Coordinator → worker: restore a task's state after a respawn,
    /// before any tuple flows.
    RestoreState {
        /// Global task id.
        task: u32,
        /// The base full snapshot, then the deltas deposited after it in
        /// order; empty when only a dedup set survives.
        snapshots: Vec<StateSnapshot>,
        /// Replay-dedup ids captured with the snapshot.
        dedup: Vec<u64>,
    },
    /// Worker → coordinator: the restore finished.
    StateRestored {
        /// Global task id.
        task: u32,
        /// Whether decoding + restoring succeeded.
        ok: bool,
        /// Restore latency, microseconds.
        latency_us: u64,
    },
    /// Coordinator → worker: checkpoint every stateful task now, release
    /// the withheld ack records and report (drain step of shutdown).
    Flush {
        /// Echoed in the matching [`Frame::Flushed`].
        seq: u64,
    },
    /// Worker → coordinator: the matching [`Frame::Flush`] completed.
    Flushed(FlushReport),
    /// Coordinator → worker: exit cleanly.
    Shutdown,
    /// Worker → coordinator: hop spans drained from the worker's local
    /// trace ring buffers, shipped on the metrics interval.
    SpanBatch {
        /// Worker slot index.
        worker: u32,
        /// Spans rejected by the worker's ring buffers since the last
        /// batch (the coordinator folds this into its dropped counter).
        dropped: u64,
        /// The spans, timestamped on the worker's clock.
        spans: Vec<WireSpan>,
    },
    /// Worker → coordinator: local registry deltas, shipped on the metrics
    /// interval and re-registered under `worker`/`generation` labels.
    MetricsPush {
        /// Worker slot index.
        worker: u32,
        /// The samples.
        samples: Vec<WireMetric>,
    },
    /// Worker → coordinator: best-effort structured last words sent while
    /// the worker is dying (panic, decode error, socket failure).  The
    /// supervisor attaches the cause to the `worker_died` journal event.
    LastWords {
        /// Worker slot index.
        worker: u32,
        /// Short machine-readable cause (`panic`, `decode_error`, `io_error`).
        cause: String,
        /// Human-readable detail (panic payload, error text).
        detail: String,
    },
}

impl Frame {
    /// Short tag name for logs and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Assign { .. } => "assign",
            Frame::TupleBatch { .. } => "tuple_batch",
            Frame::AckBatch { .. } => "ack_batch",
            Frame::CreditGrant { .. } => "credit_grant",
            Frame::CheckpointDeposit { .. } => "checkpoint_deposit",
            Frame::SetRatio { .. } => "set_ratio",
            Frame::RestoreState { .. } => "restore_state",
            Frame::StateRestored { .. } => "state_restored",
            Frame::Flush { .. } => "flush",
            Frame::Flushed(_) => "flushed",
            Frame::Shutdown => "shutdown",
            Frame::SpanBatch { .. } => "span_batch",
            Frame::MetricsPush { .. } => "metrics_push",
            Frame::LastWords { .. } => "last_words",
        }
    }
}

fn write_opt_varint(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            write_varint(buf, v);
        }
    }
}

fn read_opt_varint(d: &mut Dec<'_>) -> Result<Option<u64>, CodecError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.varint()?)),
        _ => Err(CodecError::Malformed("bad option tag")),
    }
}

fn write_varints(buf: &mut Vec<u8>, vs: &[u64]) {
    write_varint(buf, vs.len() as u64);
    for v in vs {
        write_varint(buf, *v);
    }
}

fn read_varints(d: &mut Dec<'_>) -> Result<Vec<u64>, CodecError> {
    let n = d.count()?;
    let mut vs = Vec::with_capacity(n);
    for _ in 0..n {
        vs.push(d.varint()?);
    }
    Ok(vs)
}

/// A snapshot on the wire: its kind, then its payload.
fn write_snapshot(buf: &mut Vec<u8>, snap: &StateSnapshot) {
    buf.push(match snap.kind {
        SnapshotKind::Full => 0,
        SnapshotKind::Delta => 1,
    });
    write_byte_str(buf, &snap.bytes);
}

fn read_snapshot(d: &mut Dec<'_>) -> Result<StateSnapshot, CodecError> {
    let kind = match d.u8()? {
        0 => SnapshotKind::Full,
        1 => SnapshotKind::Delta,
        _ => return Err(CodecError::Malformed("bad snapshot kind")),
    };
    let bytes = d.byte_str()?.to_vec();
    Ok(StateSnapshot { kind, bytes })
}

fn read_bool(d: &mut Dec<'_>) -> Result<bool, CodecError> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError::Malformed("bad bool")),
    }
}

/// Appends one [`WireTuple`] in `TupleBatch` item layout (the transport's
/// batching writer drains its queue through this).
pub fn write_tuple_item(buf: &mut Vec<u8>, item: &WireTuple) {
    write_varint(buf, item.token);
    write_varint(buf, u64::from(item.dest_task));
    write_varint(buf, u64::from(item.stream));
    write_opt_varint(buf, item.dedup);
    write_opt_varint(buf, item.trace_root);
    write_values(buf, &item.values);
}

fn write_span(buf: &mut Vec<u8>, s: &WireSpan) {
    buf.push(s.kind);
    write_varint(buf, s.root);
    write_varint(buf, u64::from(s.task));
    write_varint(buf, s.start_us);
    write_varint(buf, s.queue_wait_us);
    write_varint(buf, s.exec_us);
    write_varint(buf, s.batch_id);
}

fn read_span(d: &mut Dec<'_>) -> Result<WireSpan, CodecError> {
    let kind = d.u8()?;
    if kind > 4 {
        return Err(CodecError::Malformed("bad span kind"));
    }
    Ok(WireSpan {
        kind,
        root: d.varint()?,
        task: d.varint()? as u32,
        start_us: d.varint()?,
        queue_wait_us: d.varint()?,
        exec_us: d.varint()?,
        batch_id: d.varint()?,
    })
}

fn write_metric(buf: &mut Vec<u8>, m: &WireMetric) {
    buf.push(m.kind);
    write_str(buf, &m.name);
    write_opt_varint(buf, m.peer.map(u64::from));
    write_varint(buf, m.value);
}

fn read_metric(d: &mut Dec<'_>) -> Result<WireMetric, CodecError> {
    let kind = d.u8()?;
    if kind > 1 {
        return Err(CodecError::Malformed("bad metric kind"));
    }
    Ok(WireMetric {
        kind,
        name: d.str()?.to_owned(),
        peer: read_opt_varint(d)?.map(|p| p as u32),
        value: d.varint()?,
    })
}

/// Appends the frame body (tag + payload) **without** the length prefix —
/// the transport writer prefixes it when it owns the framing.
pub fn encode_frame_body(frame: &Frame, buf: &mut Vec<u8>) {
    match frame {
        Frame::Hello {
            worker,
            pid,
            clock_us,
            endpoint,
        } => {
            buf.push(T_HELLO);
            write_varint(buf, u64::from(*worker));
            write_varint(buf, u64::from(*pid));
            write_varint(buf, *clock_us);
            write_str(buf, endpoint);
        }
        Frame::Assign {
            worker,
            generation,
            topology,
            args,
            task_slots,
            peers,
            recovery,
            ckpt_interval_us,
            tick_interval_us,
            metrics_interval_us,
            stream_count,
            batch_size,
            credit_window,
            trace_sample_bits,
            restores,
        } => {
            buf.push(T_ASSIGN);
            write_varint(buf, u64::from(*worker));
            write_varint(buf, *generation);
            write_str(buf, topology);
            write_str(buf, args);
            write_varint(buf, task_slots.len() as u64);
            for t in task_slots {
                write_varint(buf, u64::from(*t));
            }
            write_varint(buf, peers.len() as u64);
            for p in peers {
                write_varint(buf, u64::from(p.slot));
                write_varint(buf, p.generation);
                write_str(buf, &p.endpoint);
            }
            buf.push(*recovery);
            write_varint(buf, *ckpt_interval_us);
            write_varint(buf, *tick_interval_us);
            write_varint(buf, *metrics_interval_us);
            write_varint(buf, u64::from(*stream_count));
            write_varint(buf, u64::from(*batch_size));
            write_varint(buf, *credit_window);
            buf.extend_from_slice(&trace_sample_bits.to_le_bytes());
            write_varint(buf, u64::from(*restores));
        }
        Frame::TupleBatch { items } => {
            buf.push(T_TUPLE_BATCH);
            write_varint(buf, items.len() as u64);
            for item in items {
                write_tuple_item(buf, item);
            }
        }
        Frame::AckBatch { items } => {
            buf.push(T_ACK_BATCH);
            write_varint(buf, items.len() as u64);
            for item in items {
                // Roots are small counters, edge XORs are uniformly random
                // 64-bit values: varint the first, fixed-width the second.
                write_varint(buf, item.root);
                buf.extend_from_slice(&item.xor.to_le_bytes());
                buf.push(item.failed as u8);
            }
        }
        Frame::CreditGrant { task, amount } => {
            buf.push(T_CREDIT_GRANT);
            write_varint(buf, u64::from(*task));
            write_varint(buf, *amount);
        }
        Frame::CheckpointDeposit {
            task,
            snapshot,
            dedup,
        } => {
            buf.push(T_CHECKPOINT);
            write_varint(buf, u64::from(*task));
            write_snapshot(buf, snapshot);
            write_varints(buf, dedup);
        }
        Frame::SetRatio { edge, weights } => {
            buf.push(T_SET_RATIO);
            write_varint(buf, u64::from(*edge));
            write_varint(buf, weights.len() as u64);
            for w in weights {
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
        Frame::RestoreState {
            task,
            snapshots,
            dedup,
        } => {
            buf.push(T_RESTORE);
            write_varint(buf, u64::from(*task));
            write_varint(buf, snapshots.len() as u64);
            for snap in snapshots {
                write_snapshot(buf, snap);
            }
            write_varints(buf, dedup);
        }
        Frame::StateRestored {
            task,
            ok,
            latency_us,
        } => {
            buf.push(T_RESTORED);
            write_varint(buf, u64::from(*task));
            buf.push(*ok as u8);
            write_varint(buf, *latency_us);
        }
        Frame::Flush { seq } => {
            buf.push(T_FLUSH);
            write_varint(buf, *seq);
        }
        Frame::Flushed(r) => {
            buf.push(T_FLUSHED);
            let c = &r.credits;
            for v in [
                r.seq,
                r.in_flight,
                r.activity,
                c.granted,
                c.consumed,
                c.revoked,
            ] {
                write_varint(buf, v);
            }
            write_varint(buf, zigzag(c.outstanding));
        }
        Frame::Shutdown => buf.push(T_SHUTDOWN),
        Frame::SpanBatch {
            worker,
            dropped,
            spans,
        } => {
            buf.push(T_SPAN_BATCH);
            write_varint(buf, u64::from(*worker));
            write_varint(buf, *dropped);
            write_varint(buf, spans.len() as u64);
            for s in spans {
                write_span(buf, s);
            }
        }
        Frame::MetricsPush { worker, samples } => {
            buf.push(T_METRICS_PUSH);
            write_varint(buf, u64::from(*worker));
            write_varint(buf, samples.len() as u64);
            for m in samples {
                write_metric(buf, m);
            }
        }
        Frame::LastWords {
            worker,
            cause,
            detail,
        } => {
            buf.push(T_LAST_WORDS);
            write_varint(buf, u64::from(*worker));
            write_str(buf, cause);
            write_str(buf, detail);
        }
    }
}

/// Decodes one frame body (tag + payload, no length prefix).
pub fn decode_frame(body: &[u8]) -> Result<Frame, CodecError> {
    let mut d = Dec::new(body);
    let frame = decode_frame_inner(&mut d)?;
    if !d.is_done() {
        return Err(CodecError::Malformed("trailing bytes after frame"));
    }
    Ok(frame)
}

fn decode_frame_inner(d: &mut Dec<'_>) -> Result<Frame, CodecError> {
    match d.u8()? {
        T_HELLO => Ok(Frame::Hello {
            worker: d.varint()? as u32,
            pid: d.varint()? as u32,
            clock_us: d.varint()?,
            endpoint: d.str()?.to_owned(),
        }),
        T_ASSIGN => {
            let worker = d.varint()? as u32;
            let generation = d.varint()?;
            let topology = d.str()?.to_owned();
            let args = d.str()?.to_owned();
            let task_slots = read_varints(d)?.into_iter().map(|t| t as u32).collect();
            let n = d.count()?;
            let mut peers = Vec::with_capacity(n);
            for _ in 0..n {
                peers.push(WirePeer {
                    slot: d.varint()? as u32,
                    generation: d.varint()?,
                    endpoint: d.str()?.to_owned(),
                });
            }
            Ok(Frame::Assign {
                worker,
                generation,
                topology,
                args,
                task_slots,
                peers,
                recovery: d.u8()?,
                ckpt_interval_us: d.varint()?,
                tick_interval_us: d.varint()?,
                metrics_interval_us: d.varint()?,
                stream_count: d.varint()? as u32,
                batch_size: d.varint()? as u32,
                credit_window: d.varint()?,
                trace_sample_bits: d.u64_le()?,
                restores: d.varint()? as u32,
            })
        }
        T_TUPLE_BATCH => {
            let n = d.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(WireTuple {
                    token: d.varint()?,
                    dest_task: d.varint()? as u32,
                    stream: d.varint()? as u32,
                    dedup: read_opt_varint(d)?,
                    trace_root: read_opt_varint(d)?,
                    values: read_values(d)?,
                });
            }
            Ok(Frame::TupleBatch { items })
        }
        T_ACK_BATCH => {
            let n = d.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(AckItem {
                    root: d.varint()?,
                    xor: d.u64_le()?,
                    failed: read_bool(d)?,
                });
            }
            Ok(Frame::AckBatch { items })
        }
        T_CREDIT_GRANT => Ok(Frame::CreditGrant {
            task: d.varint()? as u32,
            amount: d.varint()?,
        }),
        T_CHECKPOINT => Ok(Frame::CheckpointDeposit {
            task: d.varint()? as u32,
            snapshot: read_snapshot(d)?,
            dedup: read_varints(d)?,
        }),
        T_SET_RATIO => {
            let edge = d.varint()? as u32;
            let n = d.count()?;
            let mut weights = Vec::with_capacity(n);
            for _ in 0..n {
                weights.push(d.f64()?);
            }
            Ok(Frame::SetRatio { edge, weights })
        }
        T_RESTORE => {
            let task = d.varint()? as u32;
            let n = d.count()?;
            let mut snapshots = Vec::with_capacity(n);
            for _ in 0..n {
                snapshots.push(read_snapshot(d)?);
            }
            Ok(Frame::RestoreState {
                task,
                snapshots,
                dedup: read_varints(d)?,
            })
        }
        T_RESTORED => Ok(Frame::StateRestored {
            task: d.varint()? as u32,
            ok: read_bool(d)?,
            latency_us: d.varint()?,
        }),
        T_FLUSH => Ok(Frame::Flush { seq: d.varint()? }),
        T_FLUSHED => Ok(Frame::Flushed(FlushReport {
            seq: d.varint()?,
            in_flight: d.varint()?,
            activity: d.varint()?,
            credits: CreditTotals {
                granted: d.varint()?,
                consumed: d.varint()?,
                revoked: d.varint()?,
                outstanding: d.svarint()?,
            },
        })),
        T_SHUTDOWN => Ok(Frame::Shutdown),
        T_SPAN_BATCH => {
            let worker = d.varint()? as u32;
            let dropped = d.varint()?;
            let n = d.count()?;
            let mut spans = Vec::with_capacity(n);
            for _ in 0..n {
                spans.push(read_span(d)?);
            }
            Ok(Frame::SpanBatch {
                worker,
                dropped,
                spans,
            })
        }
        T_METRICS_PUSH => {
            let worker = d.varint()? as u32;
            let n = d.count()?;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                samples.push(read_metric(d)?);
            }
            Ok(Frame::MetricsPush { worker, samples })
        }
        T_LAST_WORDS => Ok(Frame::LastWords {
            worker: d.varint()? as u32,
            cause: d.str()?.to_owned(),
            detail: d.str()?.to_owned(),
        }),
        _ => Err(CodecError::Malformed("unknown frame tag")),
    }
}

// --- binary JsonValue trees (checkpoint snapshots) ----------------------

/// First payload byte of an encoded snapshot; a payload without it is
/// rejected as corrupt.
pub const SNAPSHOT_MAGIC: u8 = 0xC5;

const J_NULL: u8 = 0;
const J_FALSE: u8 = 1;
const J_TRUE: u8 = 2;
const J_I64: u8 = 3;
const J_U64: u8 = 4;
const J_F64: u8 = 5;
const J_STR: u8 = 6;
const J_ARRAY: u8 = 7;
const J_OBJECT: u8 = 8;

/// Appends the binary encoding of a workspace-serde [`serde::JsonValue`]
/// tree.  Checkpoint snapshots are this, prefixed with [`SNAPSHOT_MAGIC`].
pub fn write_json_value(buf: &mut Vec<u8>, v: &serde::JsonValue) {
    use serde::JsonValue as J;
    match v {
        J::Null => buf.push(J_NULL),
        J::Bool(false) => buf.push(J_FALSE),
        J::Bool(true) => buf.push(J_TRUE),
        J::I64(i) => {
            buf.push(J_I64);
            write_varint(buf, zigzag(*i));
        }
        J::U64(u) => {
            buf.push(J_U64);
            write_varint(buf, *u);
        }
        J::F64(x) => {
            buf.push(J_F64);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        J::Str(s) => {
            buf.push(J_STR);
            write_str(buf, s);
        }
        J::Array(items) => {
            buf.push(J_ARRAY);
            write_varint(buf, items.len() as u64);
            for item in items {
                write_json_value(buf, item);
            }
        }
        J::Object(fields) => {
            buf.push(J_OBJECT);
            write_varint(buf, fields.len() as u64);
            for (k, val) in fields {
                write_str(buf, k);
                write_json_value(buf, val);
            }
        }
    }
}

/// Reads one binary-encoded [`serde::JsonValue`] tree.
pub fn read_json_value(d: &mut Dec<'_>) -> Result<serde::JsonValue, CodecError> {
    use serde::JsonValue as J;
    match d.u8()? {
        J_NULL => Ok(J::Null),
        J_FALSE => Ok(J::Bool(false)),
        J_TRUE => Ok(J::Bool(true)),
        J_I64 => Ok(J::I64(d.svarint()?)),
        J_U64 => Ok(J::U64(d.varint()?)),
        J_F64 => Ok(J::F64(d.f64()?)),
        J_STR => Ok(J::Str(d.str()?.to_owned())),
        J_ARRAY => {
            let n = d.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(read_json_value(d)?);
            }
            Ok(J::Array(items))
        }
        J_OBJECT => {
            let n = d.count()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let k = d.str()?.to_owned();
                fields.push((k, read_json_value(d)?));
            }
            Ok(J::Object(fields))
        }
        _ => Err(CodecError::Malformed("unknown json-value tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut d = Dec::new(&buf);
            assert_eq!(d.varint().unwrap(), v);
            assert!(d.is_done());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -64, 63, -65] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes must stay short.
        assert!(zigzag(-64) < 128);
        assert!(zigzag(63) < 128);
    }

    #[test]
    fn varint_overflow_is_an_error_not_a_panic() {
        let buf = [0xffu8; 11];
        assert!(Dec::new(&buf).varint().is_err());
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(Dec::new(&buf).varint().is_err());
    }

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::from(-42i64),
            Value::from(3.5f64),
            Value::from("hello"),
            Value::Bytes(bytes::Bytes::from_static(b"\x00\x01\x02")),
            Value::List(vec![Value::from(1i64), Value::from("x")]),
        ]
    }

    #[test]
    fn value_round_trips() {
        for v in sample_values() {
            let mut buf = Vec::new();
            write_value(&mut buf, &v);
            let mut d = Dec::new(&buf);
            assert_eq!(read_value(&mut d).unwrap(), v);
            assert!(d.is_done());
        }
    }

    /// One frame of every kind (arbitrary payloads: `tests/prop.rs`).
    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                worker: 2,
                pid: 4711,
                clock_us: 12_345,
                endpoint: "unix:/tmp/dsdps-w2.sock".into(),
            },
            Frame::Assign {
                worker: 1,
                generation: 2,
                topology: "calib".into(),
                args: "n=100".into(),
                task_slots: vec![u32::MAX, 0, 1, 1],
                peers: vec![WirePeer {
                    slot: 0,
                    generation: 1,
                    endpoint: "tcp:127.0.0.1:4000".into(),
                }],
                recovery: 0,
                ckpt_interval_us: 500_000,
                tick_interval_us: 1_000_000,
                metrics_interval_us: 250_000,
                stream_count: 3,
                batch_size: 64,
                credit_window: 1024,
                trace_sample_bits: 0.25f64.to_bits(),
                restores: 1,
            },
            Frame::TupleBatch {
                items: vec![WireTuple {
                    token: 99,
                    dest_task: 3,
                    stream: 1,
                    dedup: Some(7),
                    trace_root: Some(4242),
                    values: sample_values(),
                }],
            },
            Frame::AckBatch {
                items: vec![
                    AckItem {
                        root: 4242,
                        xor: 99 ^ 0xdead_beef,
                        failed: false,
                    },
                    AckItem::failed(4243),
                ],
            },
            Frame::CreditGrant {
                task: 3,
                amount: 64,
            },
            Frame::CheckpointDeposit {
                task: 3,
                snapshot: StateSnapshot {
                    kind: SnapshotKind::Delta,
                    bytes: vec![0xC5, 1, 2, 3],
                },
                dedup: vec![7, 8, 9],
            },
            Frame::SetRatio {
                edge: 1,
                weights: vec![0.25, 0.75],
            },
            Frame::RestoreState {
                task: 3,
                snapshots: vec![
                    StateSnapshot {
                        kind: SnapshotKind::Full,
                        bytes: vec![0xC5, 1],
                    },
                    StateSnapshot {
                        kind: SnapshotKind::Delta,
                        bytes: vec![0xC5],
                    },
                ],
                dedup: vec![7],
            },
            Frame::StateRestored {
                task: 3,
                ok: true,
                latency_us: 120,
            },
            Frame::Flush { seq: 4 },
            Frame::Flushed(FlushReport {
                seq: 4,
                in_flight: 2,
                activity: 640,
                credits: CreditTotals {
                    granted: 100,
                    consumed: 60,
                    revoked: 8,
                    outstanding: -32,
                },
            }),
            Frame::Shutdown,
            Frame::SpanBatch {
                worker: 1,
                dropped: 2,
                spans: vec![WireSpan {
                    kind: 1,
                    root: 4242,
                    task: 3,
                    start_us: 1_000_000,
                    queue_wait_us: 35,
                    exec_us: 12,
                    batch_id: 17,
                }],
            },
            Frame::MetricsPush {
                worker: 1,
                samples: vec![
                    WireMetric {
                        kind: 0,
                        name: "dsdps_dist_conn_frames_out_total".into(),
                        peer: Some(0),
                        value: 640,
                    },
                    WireMetric {
                        kind: 1,
                        name: "dsdps_worker_uptime_seconds".into(),
                        peer: None,
                        value: 1.5f64.to_bits(),
                    },
                ],
            },
            Frame::LastWords {
                worker: 1,
                cause: "panic".into(),
                detail: "bolt exploded at tuple 7".into(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        let frames = sample_frames();
        let kinds: std::collections::HashSet<_> = frames.iter().map(Frame::kind).collect();
        assert_eq!(kinds.len(), 15, "one sample per frame kind");
        for frame in frames {
            let mut buf = Vec::new();
            encode_frame_body(&frame, &mut buf);
            let back = decode_frame(&buf).unwrap_or_else(|e| panic!("{}: {e}", frame.kind()));
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking() {
        for frame in sample_frames() {
            let mut buf = Vec::new();
            encode_frame_body(&frame, &mut buf);
            for cut in 0..buf.len() {
                // Every proper prefix must decode to an error, never panic.
                let _ = decode_frame(&buf[..cut]);
            }
        }
    }

    #[test]
    fn corrupted_tags_error() {
        assert!(decode_frame(&[0xfe]).is_err());
        assert!(decode_frame(&[]).is_err());
        // Element count far beyond the payload is malformed, not an OOM.
        let mut buf = vec![T_TUPLE_BATCH];
        write_varint(&mut buf, u64::MAX);
        assert!(matches!(
            decode_frame(&buf),
            Err(CodecError::Malformed(_)) | Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn json_value_trees_round_trip() {
        use serde::JsonValue as J;
        let tree = J::Object(vec![
            (
                "counts".into(),
                J::Array(vec![J::I64(-3), J::U64(u64::MAX)]),
            ),
            ("name".into(), J::Str("w0".into())),
            ("f".into(), J::F64(0.25)),
            ("none".into(), J::Null),
            ("on".into(), J::Bool(true)),
        ]);
        let mut buf = Vec::new();
        write_json_value(&mut buf, &tree);
        let mut d = Dec::new(&buf);
        assert_eq!(read_json_value(&mut d).unwrap(), tree);
        assert!(d.is_done());
    }
}
