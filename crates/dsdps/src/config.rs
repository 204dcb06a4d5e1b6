//! Engine configuration shared by both runtimes.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// Cluster and engine parameters.
///
/// Defaults match the reconstructed experimental setup in `DESIGN.md`:
/// 4 machines × 2 workers, 4 cores each, 30 s message timeout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of simulated machines in the cluster.
    pub num_machines: usize,
    /// Worker processes per machine.
    pub workers_per_machine: usize,
    /// CPU cores per machine (capacity of the interference model).
    pub machine_cores: usize,
    /// Seconds before an unacked tuple tree times out and is replayed.
    pub message_timeout_s: f64,
    /// Maximum spout tuple trees in flight per spout task before the spout
    /// is throttled (Storm's `topology.max.spout.pending`).
    ///
    /// This bound counts **tuple trees** and is independent of
    /// [`queue_capacity`](Self::queue_capacity), which counts **batches**
    /// queued at a single task: the two compose.  A spout can never have
    /// more than `max_spout_pending` trees unacked in total, while no
    /// single task's input queue can hold more than `queue_capacity`
    /// batches (`RtConfig::effective_queue_bound` gives the per-task
    /// figure in tuples).  Overload experiments that want the *queue-level*
    /// backpressure machinery to engage must raise this gate, or the
    /// in-flight cap throttles the spout first.
    pub max_spout_pending: usize,
    /// Length of one metrics interval (seconds); the control framework's
    /// sampling period.
    pub metrics_interval_s: f64,
    /// Bolt tick interval in seconds (0 or less disables ticks).
    pub tick_interval_s: f64,
    /// Per-task input queue capacity; beyond this, backpressure throttles
    /// upstream spouts.
    pub queue_capacity: usize,
    /// Master RNG seed for workloads, jitter and placement tie-breaks.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_machines: 4,
            workers_per_machine: 2,
            machine_cores: 4,
            message_timeout_s: 30.0,
            max_spout_pending: 512,
            metrics_interval_s: 1.0,
            tick_interval_s: 1.0,
            queue_capacity: 2048,
            seed: 42,
        }
    }
}

impl EngineConfig {
    /// Total number of workers in the cluster.
    pub fn num_workers(&self) -> usize {
        self.num_machines * self.workers_per_machine
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.num_machines == 0 {
            return Err(Error::Config("num_machines must be >= 1".into()));
        }
        if self.workers_per_machine == 0 {
            return Err(Error::Config("workers_per_machine must be >= 1".into()));
        }
        if self.machine_cores == 0 {
            return Err(Error::Config("machine_cores must be >= 1".into()));
        }
        // Written so that NaN fails each test: every value here becomes a
        // `Duration` or a time on some backend's clock.
        if !(self.message_timeout_s > 0.0 && self.message_timeout_s.is_finite()) {
            return Err(Error::Config(
                "message_timeout_s must be finite and positive".into(),
            ));
        }
        if !(self.metrics_interval_s > 0.0 && self.metrics_interval_s.is_finite()) {
            return Err(Error::Config(
                "metrics_interval_s must be finite and positive".into(),
            ));
        }
        if !self.tick_interval_s.is_finite() {
            return Err(Error::Config("tick_interval_s must be finite".into()));
        }
        if self.max_spout_pending == 0 {
            return Err(Error::Config("max_spout_pending must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(Error::Config("queue_capacity must be >= 1".into()));
        }
        Ok(())
    }

    /// Builder-style setter for the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the cluster shape.
    pub fn with_cluster(
        mut self,
        machines: usize,
        workers_per_machine: usize,
        cores: usize,
    ) -> Self {
        self.num_machines = machines;
        self.workers_per_machine = workers_per_machine;
        self.machine_cores = cores;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = EngineConfig::default();
        c.validate().unwrap();
        assert_eq!(c.num_workers(), 8);
    }

    #[test]
    fn validation_catches_each_zero() {
        let base = EngineConfig::default();
        let mut c = base.clone();
        c.num_machines = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.workers_per_machine = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.machine_cores = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.message_timeout_s = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.metrics_interval_s = -1.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.max_spout_pending = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.queue_capacity = 0;
        assert!(c.validate().is_err());
        // Non-finite values fail too, and a non-positive tick interval
        // still means "no ticks".
        let fields: [fn(&mut EngineConfig) -> &mut f64; 3] = [
            |c| &mut c.message_timeout_s,
            |c| &mut c.metrics_interval_s,
            |c| &mut c.tick_interval_s,
        ];
        for field in fields {
            for v in [f64::NAN, f64::INFINITY] {
                let mut c = base.clone();
                *field(&mut c) = v;
                assert!(c.validate().is_err(), "{c:?}");
            }
        }
        let mut c = base;
        c.tick_interval_s = -1.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::default().with_seed(7).with_cluster(2, 3, 8);
        assert_eq!(c.seed, 7);
        assert_eq!(c.num_workers(), 6);
        assert_eq!(c.machine_cores, 8);
    }

    #[test]
    fn serde_round_trip() {
        let c = EngineConfig::default().with_seed(123);
        let s = serde_json::to_string(&c).unwrap();
        let back: EngineConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(c, back);
    }
}
