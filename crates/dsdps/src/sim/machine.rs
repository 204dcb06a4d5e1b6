//! Machine model: capacity, co-location interference, external load and
//! worker slowdown faults.
//!
//! This is the simulator's substitute for the physical-cluster interference
//! the paper measures: the time a task needs for one tuple grows as the
//! machine's CPU pressure — from co-located stream workers *and* from
//! external (injected) load — approaches and exceeds capacity.

use serde::{Deserialize, Serialize};

/// Parameters of the interference (service-time inflation) model.
///
/// At service start the simulator computes the machine pressure
/// `p = (busy_executors + external_load_cores) / cores` and multiplies the
/// base service time by
///
/// ```text
/// mult(p) = 1 + softness * p           for p <= 1
/// mult(p) = (1 + softness) * p^gamma   for p >  1
/// ```
///
/// The linear low-load term models cache/memory-bandwidth contention that
/// exists even below saturation; the super-linear high-load term models CPU
/// time-slicing once the machine is oversubscribed.  Both effects are what
/// make per-worker performance a *nonlinear function of co-located load* —
/// precisely the signal the paper's DRNN features capture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceModel {
    /// Sub-saturation contention slope (default 0.3).
    pub softness: f64,
    /// Oversubscription exponent (default 1.8).
    pub gamma: f64,
}

impl Default for InterferenceModel {
    fn default() -> Self {
        InterferenceModel {
            softness: 0.3,
            gamma: 1.8,
        }
    }
}

impl InterferenceModel {
    /// Service-time multiplier for pressure `p >= 0`.
    pub fn multiplier(&self, pressure: f64) -> f64 {
        let p = pressure.max(0.0);
        if p <= 1.0 {
            1.0 + self.softness * p
        } else {
            (1.0 + self.softness) * p.powf(self.gamma)
        }
    }
}

/// Live state of one simulated machine.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Core count.
    pub cores: usize,
    /// Number of executors currently in service on this machine.
    pub busy_executors: usize,
    /// Cores consumed by injected external load (faults, foreign jobs).
    pub external_load_cores: f64,
    /// Interference model parameters.
    pub model: InterferenceModel,
    /// Accumulated busy core-seconds in the current metrics interval.
    pub busy_core_seconds: f64,
}

impl MachineState {
    /// A machine with `cores` cores and the given interference model.
    pub fn new(cores: usize, model: InterferenceModel) -> Self {
        MachineState {
            cores,
            busy_executors: 0,
            external_load_cores: 0.0,
            model,
            busy_core_seconds: 0.0,
        }
    }

    /// CPU pressure right now: busy executors plus external load, relative
    /// to capacity.
    pub fn pressure(&self) -> f64 {
        (self.busy_executors as f64 + self.external_load_cores) / self.cores as f64
    }

    /// Service-time multiplier for a task starting service now.
    pub fn interference_multiplier(&self) -> f64 {
        self.model.multiplier(self.pressure())
    }
}

/// A scheduled disturbance in the simulated cluster.
///
/// These model the paper's "misbehaving workers": processes on shared
/// machines that hog resources, or workers whose own service rate collapses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Adds `cores` of external CPU load to a machine between `from_s` and
    /// `until_s` (a resource-hogging co-located process).
    ExternalLoad {
        /// Target machine index.
        machine: usize,
        /// Cores of load to add.
        cores: f64,
        /// Start time (virtual seconds).
        from_s: f64,
        /// End time (virtual seconds).
        until_s: f64,
    },
    /// Multiplies the service time of every task in a worker by `factor`
    /// between `from_s` and `until_s` (a degraded/misbehaving worker).
    /// Overlapping slowdowns of one worker multiply.
    WorkerSlowdown {
        /// Target worker index.
        worker: usize,
        /// Service-time multiplier (> 1 slows the worker down).
        factor: f64,
        /// Start time (virtual seconds).
        from_s: f64,
        /// End time (virtual seconds).
        until_s: f64,
    },
}

impl Fault {
    /// The time the fault begins.
    pub fn from_s(&self) -> f64 {
        match self {
            Fault::ExternalLoad { from_s, .. } | Fault::WorkerSlowdown { from_s, .. } => *from_s,
        }
    }

    /// The time the fault ends.
    pub fn until_s(&self) -> f64 {
        match self {
            Fault::ExternalLoad { until_s, .. } | Fault::WorkerSlowdown { until_s, .. } => *until_s,
        }
    }

    /// Validates the time window.
    pub fn is_valid(&self) -> bool {
        self.from_s() >= 0.0 && self.until_s() > self.from_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_is_one_plus_softness_at_idle_and_saturation() {
        let m = InterferenceModel::default();
        assert!((m.multiplier(0.0) - 1.0).abs() < 1e-12);
        assert!((m.multiplier(1.0) - 1.3).abs() < 1e-12);
    }

    #[test]
    fn multiplier_is_monotone_and_continuous_at_saturation() {
        let m = InterferenceModel::default();
        let mut last = 0.0;
        for i in 0..60 {
            let p = i as f64 * 0.05;
            let v = m.multiplier(p);
            assert!(v >= last, "multiplier must be monotone in pressure");
            last = v;
        }
        // Continuity at p = 1.
        let below = m.multiplier(1.0 - 1e-9);
        let above = m.multiplier(1.0 + 1e-9);
        assert!((below - above).abs() < 1e-6);
    }

    #[test]
    fn oversubscription_is_superlinear() {
        let m = InterferenceModel::default();
        let at2 = m.multiplier(2.0);
        let at4 = m.multiplier(4.0);
        assert!(
            at4 / at2 > 2.0,
            "doubling pressure should more than double the multiplier"
        );
    }

    #[test]
    fn negative_pressure_clamped() {
        let m = InterferenceModel::default();
        assert_eq!(m.multiplier(-3.0), 1.0);
    }

    #[test]
    fn machine_pressure_counts_external_load() {
        let mut s = MachineState::new(4, InterferenceModel::default());
        assert_eq!(s.pressure(), 0.0);
        s.busy_executors = 2;
        s.external_load_cores = 2.0;
        assert!((s.pressure() - 1.0).abs() < 1e-12);
        assert!((s.interference_multiplier() - 1.3).abs() < 1e-12);
        s.external_load_cores = 6.0;
        assert!(s.interference_multiplier() > 2.0);
    }

    #[test]
    fn fault_validation() {
        let ok = Fault::ExternalLoad {
            machine: 0,
            cores: 3.0,
            from_s: 10.0,
            until_s: 20.0,
        };
        assert!(ok.is_valid());
        assert_eq!(ok.from_s(), 10.0);
        assert_eq!(ok.until_s(), 20.0);
        let bad = Fault::WorkerSlowdown {
            worker: 1,
            factor: 4.0,
            from_s: 20.0,
            until_s: 10.0,
        };
        assert!(!bad.is_valid());
    }
}
