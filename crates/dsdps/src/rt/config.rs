//! Knobs specific to the threaded runtime.

use std::net::SocketAddr;
use std::time::Duration;

use crate::checkpoint::RecoveryMode;
use crate::error::{Error, Result};

/// Tuning parameters for the threaded runtime: tuple batching, task
/// supervision, and end-to-end replay.
///
/// **Batching.** Tuples routed to the same downstream task accumulate in a
/// per-destination output buffer and travel the channel as one `Vec` batch.
/// A buffer is flushed when it reaches [`batch_size`](Self::batch_size)
/// entries or when its oldest entry has waited [`linger`](Self::linger) —
/// whichever comes first — so batching trades at most `linger` of latency
/// for amortized channel and acker traffic.  The default `batch_size` of 1
/// flushes every tuple inline and reproduces the unbatched runtime behavior
/// exactly.
///
/// **Supervision.** A supervisor thread watches every task's heartbeat: a
/// task whose thread died (panic) or stopped beating for
/// [`hang_timeout`](Self::hang_timeout) is superseded and restarted from its
/// component factory — a fresh component instance wired to the *same* input
/// channel, so queued tuples survive the crash.  Each task is restarted at
/// most [`max_restarts`](Self::max_restarts) times.
///
/// **Replay.** With [`max_replays`](Self::max_replays) > 0, the spout loop
/// caches each tracked emission and re-emits trees
/// that fail or time out, waiting `replay_backoff × 2^attempt` between
/// attempts before declaring a message permanently failed.  The default of 0
/// preserves the classic fire-and-forget semantics where user code sees
/// every failure.
///
/// **Backpressure.** On `rt` a task's bounded input channel
/// (`EngineConfig::queue_capacity` batches) is the one per-edge bound: a
/// producer facing a full queue blocks, heartbeating, next to the
/// `EngineConfig::max_spout_pending` in-flight gate.  `dist` bounds each
/// data link with a credit window of
/// [`credit_window`](Self::credit_window) `×`
/// [`batch_size`](Self::batch_size) tuples per destination task and sender.
#[derive(Debug, Clone, PartialEq)]
pub struct RtConfig {
    /// Maximum tuples per output batch (per destination task).  Must be at
    /// least 1; `1` disables batching.
    pub batch_size: usize,
    /// Longest a buffered tuple may wait before its batch is flushed even if
    /// not full.  Irrelevant when `batch_size == 1`.
    pub linger: Duration,
    /// A task whose heartbeat is older than this is considered hung and
    /// superseded.  Must exceed zero; keep it well above the longest
    /// legitimate single `execute` call.
    pub hang_timeout: Duration,
    /// Upper bound on supervisor restarts per task (guards against a
    /// component that panics immediately on every start).
    pub max_restarts: u32,
    /// Maximum runtime-level replays per message id (0 disables replay).
    pub max_replays: u32,
    /// Base delay before the first replay of a message; doubles per attempt.
    pub replay_backoff: Duration,
    /// Fraction of tuple trees to trace end-to-end, in `[0, 1]`.  Sampling
    /// is a deterministic hash test on the tree's root id, so every thread
    /// agrees on the decision with no shared state.  `0` (the default)
    /// disables tracing at the cost of one branch per batch on the data
    /// plane; sampled trees record one [`crate::telemetry::Span`] per hop
    /// plus the terminal ack/fail/timeout event.
    pub trace_sample_rate: f64,
    /// When set, serve the live metrics registry as Prometheus text
    /// exposition over HTTP on this address (`None`, the default, binds
    /// nothing).  Port 0 picks a free port; the bound address is available
    /// from `RunningTopology::metrics_addr()`.
    pub metrics_addr: Option<SocketAddr>,
    /// `dist` only: credit window per destination task and sender, in
    /// batches; a link may have `credit_window × batch_size` tuples sent
    /// but not yet executed.  `rt` ignores it.
    pub credit_window: usize,
    /// Enable periodic checkpoints of stateful tasks (bolts whose
    /// [`Bolt::stateful`](crate::component::Bolt::stateful) returns a
    /// [`StatefulComponent`](crate::checkpoint::StatefulComponent)).  Off
    /// by default — a supervisor restart then rebuilds components from
    /// their factories, losing accumulated state.
    pub checkpoints: bool,
    /// Interval between checkpoints of one task.  Checkpoints are taken
    /// cooperatively on the task's own thread at batch boundaries, right
    /// after the batch's acks are applied, so the snapshot is aligned with
    /// the acked frontier.
    pub checkpoint_interval: Duration,
    /// What a restart of a stateful task guarantees; see [`RecoveryMode`].
    /// Only meaningful with [`checkpoints`](Self::checkpoints) on.
    pub recovery_mode: RecoveryMode,
}

impl Default for RtConfig {
    fn default() -> Self {
        Self {
            batch_size: 1,
            linger: Duration::from_millis(1),
            hang_timeout: Duration::from_secs(3),
            max_restarts: 8,
            max_replays: 0,
            replay_backoff: Duration::from_millis(100),
            trace_sample_rate: 0.0,
            metrics_addr: None,
            credit_window: 1024,
            checkpoints: false,
            checkpoint_interval: Duration::from_millis(500),
            recovery_mode: RecoveryMode::AtLeastOnce,
        }
    }
}

impl RtConfig {
    /// Returns the config with the given batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Returns the config with the given linger deadline.
    pub fn with_linger(mut self, linger: Duration) -> Self {
        self.linger = linger;
        self
    }

    /// Returns the config with the given hang-detection timeout.
    pub fn with_hang_timeout(mut self, hang_timeout: Duration) -> Self {
        self.hang_timeout = hang_timeout;
        self
    }

    /// Returns the config with the given per-task restart budget.
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// Returns the config with the given per-message replay budget.
    pub fn with_max_replays(mut self, max_replays: u32) -> Self {
        self.max_replays = max_replays;
        self
    }

    /// Returns the config with the given base replay backoff.
    pub fn with_replay_backoff(mut self, replay_backoff: Duration) -> Self {
        self.replay_backoff = replay_backoff;
        self
    }

    /// Returns the config with the given tuple-tree trace sampling rate.
    pub fn with_trace_sample_rate(mut self, trace_sample_rate: f64) -> Self {
        self.trace_sample_rate = trace_sample_rate;
        self
    }

    /// Returns the config serving Prometheus metrics on `metrics_addr`.
    pub fn with_metrics_addr(mut self, metrics_addr: SocketAddr) -> Self {
        self.metrics_addr = Some(metrics_addr);
        self
    }

    /// Returns the config with the given `dist` credit window (in
    /// batches; see [`credit_window`](Self::credit_window)).
    pub fn with_credit_flow(mut self, credit_window: usize) -> Self {
        self.credit_window = credit_window;
        self
    }

    /// Returns the config with periodic checkpoints on at the given
    /// interval.
    pub fn with_checkpoints(mut self, interval: Duration) -> Self {
        self.checkpoints = true;
        self.checkpoint_interval = interval;
        self
    }

    /// Returns the config with the given recovery guarantee for stateful
    /// task restarts.
    pub fn with_recovery_mode(mut self, mode: RecoveryMode) -> Self {
        self.recovery_mode = mode;
        self
    }

    /// The effective per-task input-queue bound, in **tuples**, once this
    /// config composes with an [`EngineConfig`](crate::config::EngineConfig):
    /// `EngineConfig::queue_capacity` (the channel's depth, in batches)
    /// times [`batch_size`](Self::batch_size).  It is independent of
    /// `EngineConfig::max_spout_pending`, which caps in-flight tuple
    /// *trees* per spout across the whole topology.
    pub fn effective_queue_bound(&self, engine: &crate::config::EngineConfig) -> usize {
        engine.queue_capacity * self.batch_size
    }

    /// Validates the config.
    pub fn validate(&self) -> Result<()> {
        if self.batch_size == 0 {
            return Err(Error::Config("rt batch_size must be at least 1".into()));
        }
        if self.hang_timeout.is_zero() {
            return Err(Error::Config("rt hang_timeout must be positive".into()));
        }
        if !self.trace_sample_rate.is_finite() || !(0.0..=1.0).contains(&self.trace_sample_rate) {
            return Err(Error::Config(
                "rt trace_sample_rate must be within [0, 1]".into(),
            ));
        }
        if self.credit_window == 0 {
            return Err(Error::Config("rt credit_window must be at least 1".into()));
        }
        if self.checkpoints {
            if self.checkpoint_interval.is_zero() {
                return Err(Error::Config(
                    "rt checkpoint_interval must be positive when checkpoints are on".into(),
                ));
            }
        } else if self.recovery_mode != RecoveryMode::AtLeastOnce {
            return Err(Error::Config(format!(
                "rt recovery_mode {} requires checkpoints to be enabled",
                self.recovery_mode.as_str()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbatched() {
        let cfg = RtConfig::default();
        assert_eq!(cfg.batch_size, 1);
        assert_eq!(cfg.max_replays, 0, "replay is opt-in");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zero_batch_size_rejected() {
        assert!(RtConfig::default().with_batch_size(0).validate().is_err());
        assert!(RtConfig::default().with_batch_size(64).validate().is_ok());
    }

    #[test]
    fn zero_hang_timeout_rejected() {
        let cfg = RtConfig::default().with_hang_timeout(Duration::ZERO);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn telemetry_knobs() {
        let cfg = RtConfig::default();
        assert_eq!(cfg.trace_sample_rate, 0.0, "tracing is opt-in");
        assert!(cfg.metrics_addr.is_none(), "no scrape endpoint by default");
        assert!(RtConfig::default()
            .with_trace_sample_rate(0.25)
            .validate()
            .is_ok());
        assert!(RtConfig::default()
            .with_trace_sample_rate(1.5)
            .validate()
            .is_err());
        assert!(RtConfig::default()
            .with_trace_sample_rate(-0.1)
            .validate()
            .is_err());
        assert!(RtConfig::default()
            .with_trace_sample_rate(f64::NAN)
            .validate()
            .is_err());
        let addr: std::net::SocketAddr = "127.0.0.1:0".parse().unwrap();
        assert_eq!(
            RtConfig::default().with_metrics_addr(addr).metrics_addr,
            Some(addr)
        );
    }

    /// Pins how `max_spout_pending`, `queue_capacity` and `batch_size`
    /// compose into the per-task queue bound: one counts trees, the other
    /// two batches and tuples per batch.  `dist`'s credit window is no part
    /// of `rt`'s bound.
    #[test]
    fn effective_queue_bound_composes_engine_and_rt_knobs() {
        let engine = crate::config::EngineConfig::default();
        assert_eq!(engine.queue_capacity, 2048, "default channel depth");
        assert_eq!(engine.max_spout_pending, 512, "default in-flight gate");

        // The channel alone bounds the queue.
        assert_eq!(RtConfig::default().effective_queue_bound(&engine), 2048);
        assert_eq!(
            RtConfig::default()
                .with_credit_flow(1)
                .effective_queue_bound(&engine),
            2048,
            "the dist window does not bound an rt queue"
        );

        // Batching multiplies the bound: the channel counts batches, the
        // bound is in tuples.
        assert_eq!(
            RtConfig::default()
                .with_batch_size(8)
                .effective_queue_bound(&engine),
            16_384
        );

        // The spout-pending gate is independent: a small queue bound does
        // not move it, and vice versa.
        let mut tight = engine.clone();
        tight.queue_capacity = 64;
        assert_eq!(RtConfig::default().effective_queue_bound(&tight), 64);
        assert_eq!(tight.max_spout_pending, 512);
    }

    #[test]
    fn zero_credit_window_rejected() {
        assert!(RtConfig::default().with_credit_flow(0).validate().is_err());
        assert_eq!(RtConfig::default().credit_window, 1024);
    }

    #[test]
    fn checkpoint_knobs() {
        let cfg = RtConfig::default();
        assert!(!cfg.checkpoints, "checkpoints are opt-in");
        assert_eq!(cfg.recovery_mode, RecoveryMode::AtLeastOnce);
        assert!(cfg.validate().is_ok());

        let on = RtConfig::default()
            .with_checkpoints(Duration::from_millis(100))
            .with_recovery_mode(RecoveryMode::ExactlyOnceEffect);
        assert!(on.checkpoints);
        assert!(on.validate().is_ok());

        // Stronger guarantees without checkpoints make no sense.
        assert!(RtConfig::default()
            .with_recovery_mode(RecoveryMode::ExactlyOnceEffect)
            .validate()
            .is_err());
        assert!(RtConfig::default()
            .with_recovery_mode(RecoveryMode::Approximate)
            .validate()
            .is_err());

        // A zero interval is rejected when checkpoints are on.
        assert!(RtConfig::default()
            .with_checkpoints(Duration::ZERO)
            .validate()
            .is_err());
    }

    #[test]
    fn replay_knobs() {
        let cfg = RtConfig::default()
            .with_max_replays(3)
            .with_replay_backoff(Duration::from_millis(20));
        assert_eq!(cfg.max_replays, 3);
        assert!(cfg.validate().is_ok());
    }
}
