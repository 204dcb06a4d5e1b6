//! `GenSpout`: the one load generator every rt/dist workload uses.
//!
//! It runs as a single spout task (one thread).  Open-loop workloads emit
//! tuple *i* at its due time `i / rate` regardless of how the system keeps
//! up, and latency is `time of ack(i) − due time of i`, so a stall charges
//! every tuple it delays.  Closed-loop workloads emit as fast as the
//! runtime's `max_spout_pending` gate allows and latency is emit → ack.
//! Everything is recorded here, outside the program under test; on `dist`
//! the spout lives in the coordinator, so the same code measures all
//! backends.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsdps::component::{MessageId, Spout, SpoutOutput};
use dsdps::tuple::{Fields, Tuple, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stream_apps::workload::ZipfSampler;

use crate::stats::LogHist;
use crate::trace::{sampled, Tracer, SAMPLE_EVERY};

/// Emits nothing (set-up repetitions).
pub const IDLE: u8 = 0;
/// Emits; samples are discarded.
pub const WARMUP: u8 = 1;
/// Emits; tuples due inside the window are measured.
pub const MEASURE: u8 = 2;

/// Acks are counted per slot of this length (by ack time) so throughput can
/// be taken over sub-windows and split at phase and fault boundaries.
pub const SLOT_S: f64 = 0.1;

/// Latencies are also kept per segment of this length (by due time): a
/// stall of the host spoils the segments it touches and no others, so a
/// quantile taken per segment and then across segments (see
/// `live::undisturbed`) does not move with how many stalls a run caught.
pub const SEGMENT_S: f64 = 0.25;

/// Ids in flight never exceed `max_spout_pending` plus one call's burst.
const RING: usize = 1 << 16;
/// Tuples per `next_tuple` call in a closed loop.
const CLOSED_BURST: usize = 32;
/// Most overdue tuples released per call in an open loop.
const OPEN_BURST: usize = 256;
/// A gap this long after a call that emitted means the runtime withheld
/// `next_tuple` (pending gate / backpressure), not that it was routing.
const BLOCKED_GAP: Duration = Duration::from_micros(100);

/// How the generator paces itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pace {
    /// Tuple *i* is due at `i / rate` seconds.
    Open { rate: f64 },
    /// An open loop at `rate` through warm-up and the first `open_s` seconds
    /// of the measured window, then a closed loop to its end: latency and
    /// cost at a fixed rate and saturation throughput from one run.
    OpenThenClosed { open_s: f64, rate: f64 },
}

/// The key column of the payload: `n` strings drawn Zipf(`skew`) (`skew` 0 is
/// uniform), with the generator's own per-key emission counts as reference.
pub struct Keys {
    values: Vec<Value>,
    sampler: ZipfSampler,
    rng: StdRng,
    pub counts: Vec<u64>,
}

impl Keys {
    /// `"sensor-NNNN"` keys, the string column of the codec bench payload;
    /// which 50 sensors exist depends on the seed.
    pub fn sensors(seed: u64) -> Self {
        let base = seed % 9_000;
        let names = (0..50).map(|i| format!("sensor-{:04}", base + i)).collect();
        Self::new(names, 0.0, seed)
    }

    /// `n` URLs with Zipf popularity.
    pub fn urls(n: usize, skew: f64, seed: u64) -> Self {
        let domains = n / 20 + 1;
        let names = (0..n)
            .map(|i| format!("http://site{}.example.com/page{}", i % domains, i))
            .collect();
        Self::new(names, skew, seed)
    }

    fn new(names: Vec<String>, skew: f64, seed: u64) -> Self {
        Keys {
            sampler: ZipfSampler::new(names.len(), skew),
            counts: vec![0; names.len()],
            values: names.into_iter().map(Value::from).collect(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn next(&mut self) -> Value {
        let idx = self.sampler.sample(&mut self.rng);
        self.counts[idx] += 1;
        self.values[idx].clone()
    }

    /// `(key, times emitted)` for every key emitted at least once.
    pub fn reference(&self) -> Vec<(String, u64)> {
        self.values
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v.as_str().unwrap_or_default().to_owned(), c))
            .collect()
    }
}

/// Everything the generator measured, published when the spout closes.
#[derive(Default)]
pub struct GenResult {
    /// Latency of tuples due inside the measured window, ns.
    pub latency: LogHist,
    /// Same, one histogram per [`SEGMENT_S`] of the window, by due time.
    pub latency_segments: Vec<LogHist>,
    /// Same, restricted to tuples due inside the fault sub-window.
    pub latency_fault: LogHist,
    /// `emit − due` of measured tuples (open loop), ns.
    pub lag: LogHist,
    /// Acks per [`SLOT_S`] slot of the measured window, by ack time.
    pub ack_slots: Vec<u64>,
    /// Tuples emitted with a due time inside the window, and how many of
    /// those were acked.
    pub measured_emitted: u64,
    pub measured_acked: u64,
    /// Time inside `next_tuple` / `ack` during the accounted part of the
    /// window, ns (`ack` only in the traced pass, from sampled calls).
    pub next_tuple_ns: u64,
    pub ack_ns: u64,
    /// Time the runtime withheld `next_tuple` during that part, ns.
    pub blocked_ns: u64,
    /// Per-key emission counts over the whole run.
    pub reference: Vec<(String, u64)>,
}

/// State shared between the spout (runtime thread) and the harness.
pub struct GenShared {
    pub epoch: Instant,
    phase: AtomicU8,
    /// Measured window as ns since `epoch`.
    window_start_ns: AtomicU64,
    window_end_ns: AtomicU64,
    /// The part of the window whose CPU the harness accounts; the
    /// generator's own time totals cover the same part.
    accounted_start_ns: AtomicU64,
    accounted_end_ns: AtomicU64,
    pub emitted: AtomicU64,
    pub acked: AtomicU64,
    pub failed: AtomicU64,
    pub result: Mutex<Option<GenResult>>,
}

impl GenShared {
    pub fn new(phase: u8) -> Arc<Self> {
        Arc::new(GenShared {
            epoch: Instant::now(),
            phase: AtomicU8::new(phase),
            window_start_ns: AtomicU64::new(u64::MAX),
            window_end_ns: AtomicU64::new(u64::MAX),
            accounted_start_ns: AtomicU64::new(u64::MAX),
            accounted_end_ns: AtomicU64::new(u64::MAX),
            emitted: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            result: Mutex::new(None),
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens the measured window `[start, start + seconds)`, whose
    /// `accounted` part is given as offsets in seconds; the generator stops
    /// emitting by itself at the window's end.
    pub fn begin_measure(&self, start: Instant, seconds: f64, accounted: (f64, f64)) {
        let s = self.ns(start);
        let at = |offset_s: f64| s + (offset_s * 1e9) as u64;
        self.window_start_ns.store(s, Ordering::SeqCst);
        self.window_end_ns.store(at(seconds), Ordering::SeqCst);
        self.accounted_start_ns
            .store(at(accounted.0), Ordering::SeqCst);
        self.accounted_end_ns
            .store(at(accounted.1), Ordering::SeqCst);
        self.phase.store(MEASURE, Ordering::SeqCst);
    }

    fn accounted(&self, now_ns: u64) -> bool {
        now_ns >= self.accounted_start_ns.load(Ordering::Relaxed)
            && now_ns < self.accounted_end_ns.load(Ordering::Relaxed)
    }

    /// All emitted tuples have been acked or failed.
    pub fn drained(&self) -> bool {
        self.acked.load(Ordering::SeqCst) + self.failed.load(Ordering::SeqCst)
            >= self.emitted.load(Ordering::SeqCst)
    }

    pub fn take_result(&self) -> GenResult {
        self.result
            .lock()
            .expect("generator result poisoned")
            .take()
            .unwrap_or_default()
    }
}

/// Static configuration of one generator instance.
pub struct GenConfig {
    pub pace: Pace,
    pub keys: Keys,
    /// Declared output fields (`None` = positional tuples, the flood path).
    pub fields: Option<Fields>,
    /// Sub-window of the measured window, as offsets in seconds, whose
    /// latencies are also kept separately: the whole fault.
    pub fault: Option<(f64, f64)>,
    /// Time `ack` for sampled tuples as well, and record their spans.
    pub tracer: Option<Arc<Tracer>>,
}

pub struct GenSpout {
    shared: Arc<GenShared>,
    cfg: GenConfig,
    next_id: u64,
    /// Open loop: due time (ns since epoch) and id of its first tuple.
    open_base: Option<(u64, u64)>,
    due_ns: Vec<u64>,
    emit_ns: Vec<u64>,
    last_exit: Option<(Instant, bool)>,
    res: GenResult,
}

impl GenSpout {
    pub fn new(shared: Arc<GenShared>, cfg: GenConfig) -> Self {
        GenSpout {
            shared,
            cfg,
            next_id: 0,
            open_base: None,
            due_ns: vec![0; RING],
            emit_ns: vec![0; RING],
            last_exit: None,
            res: GenResult::default(),
        }
    }

    fn window(&self) -> (u64, u64) {
        (
            self.shared.window_start_ns.load(Ordering::Relaxed),
            self.shared.window_end_ns.load(Ordering::Relaxed),
        )
    }

    fn emit_one(&mut self, out: &mut SpoutOutput, due: u64, now: u64, window: (u64, u64)) {
        let id = self.next_id;
        self.next_id += 1;
        let slot = id as usize & (RING - 1);
        self.due_ns[slot] = due;
        self.emit_ns[slot] = now;
        if due >= window.0 && due < window.1 {
            self.res.measured_emitted += 1;
            if self.open_base.is_some() {
                self.res.lag.record(now.saturating_sub(due));
            }
        }
        let values = [
            Value::from(id as i64),
            self.cfg.keys.next(),
            Value::from(due as f64 * 1e-9),
            Value::from(id.is_multiple_of(2)),
        ];
        let tuple = match &self.cfg.fields {
            Some(f) => Tuple::with_fields(values, f.clone()),
            None => Tuple::of(values),
        };
        out.emit_with_id(tuple, id);
    }
}

impl Spout for GenSpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        if self.shared.phase.load(Ordering::Relaxed) == IDLE {
            return true;
        }
        let t_in = Instant::now();
        let now = self.shared.ns(t_in);
        let window = self.window();
        if now >= window.1 {
            // Window over: stay alive for the acks still in flight.
            return true;
        }
        let accounted = self.shared.accounted(now);
        if let (true, Some((exit, true))) = (accounted, self.last_exit) {
            let gap = t_in.saturating_duration_since(exit);
            if gap >= BLOCKED_GAP {
                self.res.blocked_ns += gap.as_nanos() as u64;
            }
        }
        let before = self.next_id;
        let open_rate = match self.cfg.pace {
            Pace::Open { rate } => {
                self.open_base.get_or_insert((now, self.next_id));
                Some(rate)
            }
            Pace::OpenThenClosed { open_s, rate } => {
                // Before the window opens its start reads u64::MAX.
                let flip = window.0.saturating_add((open_s * 1e9) as u64);
                (now < flip).then(|| {
                    self.open_base.get_or_insert((now, self.next_id));
                    rate
                })
            }
        };
        match (open_rate, self.open_base) {
            (Some(rate), Some((origin, first))) => {
                for _ in 0..OPEN_BURST {
                    let due = origin + ((self.next_id - first) as f64 / rate * 1e9) as u64;
                    if due > now || due >= window.1 {
                        break;
                    }
                    self.emit_one(out, due, now, window);
                }
            }
            _ => {
                for _ in 0..CLOSED_BURST {
                    self.emit_one(out, now, now, window);
                }
            }
        }
        let n = self.next_id - before;
        self.shared.emitted.fetch_add(n, Ordering::Relaxed);
        let t_out = Instant::now();
        if accounted {
            self.res.next_tuple_ns += (t_out - t_in).as_nanos() as u64;
        }
        self.last_exit = Some((t_out, n > 0));
        true
    }

    fn ack(&mut self, id: MessageId) {
        let t = Instant::now();
        let now = self.shared.ns(t);
        self.shared.acked.fetch_add(1, Ordering::Relaxed);
        let window = self.window();
        if now >= window.0 {
            let slot = ((now - window.0) as f64 * 1e-9 / SLOT_S) as usize;
            if slot >= self.res.ack_slots.len() {
                self.res.ack_slots.resize(slot + 1, 0);
            }
            self.res.ack_slots[slot] += 1;
        }
        let ring = id as usize & (RING - 1);
        let due = self.due_ns[ring];
        if due >= window.0 && due < window.1 {
            let lat = now.saturating_sub(due);
            self.res.latency.record(lat);
            self.res.measured_acked += 1;
            let off = (due - window.0) as f64 * 1e-9;
            let segment = (off / SEGMENT_S) as usize;
            if segment >= self.res.latency_segments.len() {
                self.res
                    .latency_segments
                    .resize_with(segment + 1, LogHist::default);
            }
            self.res.latency_segments[segment].record(lat);
            if self.cfg.fault.is_some_and(|(a, b)| off >= a && off < b) {
                self.res.latency_fault.record(lat);
            }
            if let Some(tracer) = self.cfg.tracer.as_ref().filter(|_| sampled(id)) {
                // Taken before the spans are written, so that their cost is
                // not charged to `ack`; one sampled call stands for the rest.
                if self.shared.accounted(now) {
                    self.res.ack_ns += t.elapsed().as_nanos() as u64 * SAMPLE_EVERY;
                }
                let at = |ns: u64| self.shared.epoch + Duration::from_nanos(ns);
                let emit = at(self.emit_ns[ring]);
                tracer.span("gen.due_to_ack", "", id, at(due), t, 0);
                tracer.span("gen.due_to_emit", "gen.due_to_ack", id, at(due), emit, 0);
                tracer.span("gen.emit_to_ack", "gen.due_to_ack", id, emit, t, 0);
            }
        }
    }

    fn fail(&mut self, _id: MessageId) {
        self.shared.failed.fetch_add(1, Ordering::Relaxed);
    }

    fn close(&mut self) {
        let mut res = std::mem::take(&mut self.res);
        res.reference = self.cfg.keys.reference();
        *self
            .shared
            .result
            .lock()
            .expect("generator result poisoned") = Some(res);
    }
}
