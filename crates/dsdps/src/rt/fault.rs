//! Wall-clock fault injection for the threaded runtime.
//!
//! The simulator injects [`sim::Fault`](crate::sim::Fault)s on virtual time;
//! this module gives the threaded runtime the same vocabulary on wall-clock
//! time, plus task-level faults only a real runtime can exhibit: panicking a
//! task, hanging it, or dropping its tuples on delivery.  An
//! [`RtFaultPlan`] is validated against the topology at submit and consulted
//! by every task loop through a lock-free [`FaultInjector`].
//!
//! Semantics:
//!
//! * [`RtFault::WorkerSlowdown`] multiplies the observed service time of
//!   every task on the worker by `factor` while active — implemented as an
//!   extra busy-spin of `(factor - 1) × max(execute_time, 20 µs)` per tuple,
//!   so the slowdown burns real CPU and shows up in
//!   `avg_execute_latency_us` exactly like a degraded worker would.
//! * [`RtFault::ExternalLoad`] is reported through
//!   [`MachineStats::external_load_cores`](crate::metrics::MachineStats) so
//!   feature extraction sees the same machine-level signal as in the
//!   simulator.
//! * [`RtFault::TaskPanic`] fires **once** at `at_s`: the task thread panics
//!   and the supervisor restarts it from its component factory.
//! * [`RtFault::TaskHang`] fires once: the task stops heartbeating until
//!   `until_s` (or until the supervisor supersedes it, or shutdown).
//! * [`RtFault::DropTuples`] silently discards tuples delivered to the task
//!   while active — neither acked nor failed, so their trees time out and
//!   exercise the replay path.

use std::sync::atomic::{AtomicBool, Ordering};

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::scheduler::Placement;
use crate::sim::Fault;
use crate::topology::TaskId;

/// One scheduled disturbance of the threaded runtime.  Times are wall-clock
/// seconds since submit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RtFault {
    /// `factor`× service-time slowdown of every task on `worker` during
    /// `[from_s, until_s)`.
    WorkerSlowdown {
        /// Target worker index.
        worker: usize,
        /// Service-time multiplier (> 1 slows the worker down).
        factor: f64,
        /// Start time, seconds since submit.
        from_s: f64,
        /// End time, seconds since submit.
        until_s: f64,
    },
    /// `cores` of external CPU load on `machine` during `[from_s, until_s)`,
    /// reported in the machine-level metrics.
    ExternalLoad {
        /// Target machine index.
        machine: usize,
        /// Cores of load to report.
        cores: f64,
        /// Start time, seconds since submit.
        from_s: f64,
        /// End time, seconds since submit.
        until_s: f64,
    },
    /// Panics the task's thread once, at `at_s`.
    TaskPanic {
        /// Target global task id.
        task: usize,
        /// When to fire, seconds since submit.
        at_s: f64,
    },
    /// Stops the task's loop (no heartbeats, no progress) from `from_s`
    /// until `until_s`, supersession, or shutdown.  Fires once.
    TaskHang {
        /// Target global task id.
        task: usize,
        /// Start time, seconds since submit.
        from_s: f64,
        /// Latest end time, seconds since submit.
        until_s: f64,
    },
    /// Discards every tuple delivered to the task during `[from_s, until_s)`
    /// without acking or failing it.
    DropTuples {
        /// Target global task id.
        task: usize,
        /// Start time, seconds since submit.
        from_s: f64,
        /// End time, seconds since submit.
        until_s: f64,
    },
}

impl RtFault {
    /// Start of the fault's active window, seconds since submit.
    pub fn from_s(&self) -> f64 {
        match self {
            RtFault::WorkerSlowdown { from_s, .. }
            | RtFault::ExternalLoad { from_s, .. }
            | RtFault::TaskHang { from_s, .. }
            | RtFault::DropTuples { from_s, .. } => *from_s,
            RtFault::TaskPanic { at_s, .. } => *at_s,
        }
    }

    /// End of the fault's active window, seconds since submit.
    pub fn until_s(&self) -> f64 {
        match self {
            RtFault::WorkerSlowdown { until_s, .. }
            | RtFault::ExternalLoad { until_s, .. }
            | RtFault::TaskHang { until_s, .. }
            | RtFault::DropTuples { until_s, .. } => *until_s,
            RtFault::TaskPanic { at_s, .. } => *at_s,
        }
    }

    /// True when the schedule and magnitude make sense.
    pub fn is_valid(&self) -> bool {
        let window = self.from_s() >= 0.0 && self.until_s() >= self.from_s();
        let magnitude = match self {
            RtFault::WorkerSlowdown { factor, .. } => *factor >= 1.0,
            RtFault::ExternalLoad { cores, .. } => *cores >= 0.0,
            _ => true,
        };
        window && magnitude
    }
}

impl From<&Fault> for RtFault {
    /// Maps a simulator fault onto the identical wall-clock fault, so one
    /// [`FaultScenario`](crate::sim::Fault) vocabulary drives both runtimes.
    fn from(f: &Fault) -> Self {
        match f {
            Fault::ExternalLoad {
                machine,
                cores,
                from_s,
                until_s,
            } => RtFault::ExternalLoad {
                machine: *machine,
                cores: *cores,
                from_s: *from_s,
                until_s: *until_s,
            },
            Fault::WorkerSlowdown {
                worker,
                factor,
                from_s,
                until_s,
            } => RtFault::WorkerSlowdown {
                worker: *worker,
                factor: *factor,
                from_s: *from_s,
                until_s: *until_s,
            },
        }
    }
}

/// A schedule of [`RtFault`]s to inject into one threaded run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RtFaultPlan {
    /// The faults to inject.
    pub faults: Vec<RtFault>,
}

impl RtFaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style push.
    pub fn with(mut self, fault: RtFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Appends a fault.
    pub fn push(&mut self, fault: RtFault) {
        self.faults.push(fault);
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Converts a simulator fault schedule into the equivalent wall-clock
    /// plan.
    pub fn from_sim(faults: &[Fault]) -> Self {
        RtFaultPlan {
            faults: faults.iter().map(RtFault::from).collect(),
        }
    }

    /// Checks every fault against the cluster shape.
    pub fn validate(&self, n_tasks: usize, n_workers: usize, n_machines: usize) -> Result<()> {
        for f in &self.faults {
            if !f.is_valid() {
                return Err(Error::Config(format!("invalid fault schedule: {f:?}")));
            }
            let in_range = match f {
                RtFault::WorkerSlowdown { worker, .. } => *worker < n_workers,
                RtFault::ExternalLoad { machine, .. } => *machine < n_machines,
                RtFault::TaskPanic { task, .. }
                | RtFault::TaskHang { task, .. }
                | RtFault::DropTuples { task, .. } => *task < n_tasks,
            };
            if !in_range {
                return Err(Error::Config(format!("fault target out of range: {f:?}")));
            }
        }
        Ok(())
    }
}

/// Floor used when scaling a near-zero execute time: a `factor`× slowdown
/// spins at least `(factor - 1) × 20 µs` per tuple so trivial bolts still
/// exhibit a measurable degradation.
pub(super) const SLOWDOWN_FLOOR_NANOS: u64 = 20_000;

/// Runtime-side view of a fault plan: answers per-task/per-machine queries
/// from the task loops and the metrics thread.  One-shot faults (panic,
/// hang) latch an [`AtomicBool`] so they fire exactly once across restarts.
pub(crate) struct FaultInjector {
    faults: Vec<RtFault>,
    /// Latch per fault; only consulted for one-shot faults.
    fired: Vec<AtomicBool>,
    /// Global task id → worker index.
    task_worker: Vec<usize>,
}

impl FaultInjector {
    pub(crate) fn new(plan: RtFaultPlan, placement: &Placement, n_tasks: usize) -> Self {
        let task_worker: Vec<usize> = (0..n_tasks)
            .map(|t| placement.worker_of(TaskId(t)).0)
            .collect();
        let fired = (0..plan.faults.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        Self {
            faults: plan.faults,
            fired,
            task_worker,
        }
    }

    /// Combined service-time multiplier for `task` at `now_s` (product of
    /// active slowdowns on its worker); `1.0` when healthy.
    pub(crate) fn slowdown_factor(&self, task: usize, now_s: f64) -> f64 {
        let worker = self.task_worker[task];
        let mut factor = 1.0;
        for f in &self.faults {
            if let RtFault::WorkerSlowdown {
                worker: w,
                factor: x,
                from_s,
                until_s,
            } = f
            {
                if *w == worker && now_s >= *from_s && now_s < *until_s {
                    factor *= *x;
                }
            }
        }
        factor
    }

    /// True when a drop-tuples window is active for `task`.
    pub(crate) fn should_drop(&self, task: usize, now_s: f64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, RtFault::DropTuples { task: t, from_s, until_s }
                if *t == task && now_s >= *from_s && now_s < *until_s)
        })
    }

    /// Consumes a scheduled panic for `task` if one is due.  Fires once.
    pub(crate) fn take_panic(&self, task: usize, now_s: f64) -> bool {
        for (i, f) in self.faults.iter().enumerate() {
            if let RtFault::TaskPanic { task: t, at_s } = f {
                if *t == task && now_s >= *at_s && !self.fired[i].swap(true, Ordering::SeqCst) {
                    return true;
                }
            }
        }
        false
    }

    /// Consumes a scheduled hang for `task` if one is due; returns the hang's
    /// latest end time.  Fires once, so a supervisor-restarted replacement
    /// thread does not re-enter the same hang.
    pub(crate) fn take_hang(&self, task: usize, now_s: f64) -> Option<f64> {
        for (i, f) in self.faults.iter().enumerate() {
            if let RtFault::TaskHang {
                task: t,
                from_s,
                until_s,
            } = f
            {
                if *t == task
                    && now_s >= *from_s
                    && now_s < *until_s
                    && !self.fired[i].swap(true, Ordering::SeqCst)
                {
                    return Some(*until_s);
                }
            }
        }
        None
    }

    /// External load (cores) injected on `machine` at `now_s`.
    pub(crate) fn external_load(&self, machine: usize, now_s: f64) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                RtFault::ExternalLoad {
                    machine: m,
                    cores,
                    from_s,
                    until_s,
                } if *m == machine && now_s >= *from_s && now_s < *until_s => Some(*cores),
                _ => None,
            })
            .sum()
    }

    /// True when the plan contains any machine-level external load (lets the
    /// metrics thread skip the per-machine scan in the common case).
    pub(crate) fn has_external_load(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, RtFault::ExternalLoad { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{MachineId, WorkerId};

    fn placement_2x2() -> Placement {
        // Tasks 0,1 on worker 0 (machine 0); tasks 2,3 on worker 1 (machine 1).
        Placement::from_assignments(
            vec![WorkerId(0), WorkerId(0), WorkerId(1), WorkerId(1)],
            vec![MachineId(0), MachineId(1)],
        )
        .unwrap()
    }

    #[test]
    fn plan_validation() {
        let ok = RtFaultPlan::new()
            .with(RtFault::WorkerSlowdown {
                worker: 1,
                factor: 10.0,
                from_s: 1.0,
                until_s: 5.0,
            })
            .with(RtFault::TaskPanic { task: 3, at_s: 0.5 });
        assert!(ok.validate(4, 2, 2).is_ok());
        assert!(ok.validate(3, 2, 2).is_err(), "task 3 out of range");
        assert!(ok.validate(4, 1, 2).is_err(), "worker 1 out of range");

        let bad_window = RtFaultPlan::new().with(RtFault::DropTuples {
            task: 0,
            from_s: 5.0,
            until_s: 1.0,
        });
        assert!(bad_window.validate(4, 2, 2).is_err());
        let bad_factor = RtFaultPlan::new().with(RtFault::WorkerSlowdown {
            worker: 0,
            factor: 0.5,
            from_s: 0.0,
            until_s: 1.0,
        });
        assert!(bad_factor.validate(4, 2, 2).is_err());
    }

    #[test]
    fn sim_faults_convert() {
        let sim = vec![
            Fault::WorkerSlowdown {
                worker: 1,
                factor: 4.0,
                from_s: 10.0,
                until_s: 20.0,
            },
            Fault::ExternalLoad {
                machine: 0,
                cores: 2.5,
                from_s: 0.0,
                until_s: 5.0,
            },
        ];
        let plan = RtFaultPlan::from_sim(&sim);
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(
            plan.faults[0],
            RtFault::WorkerSlowdown {
                worker: 1,
                factor: 4.0,
                from_s: 10.0,
                until_s: 20.0,
            }
        );
        assert!(plan.validate(4, 2, 2).is_ok());
    }

    #[test]
    fn slowdown_targets_worker_tasks_in_window() {
        let plan = RtFaultPlan::new().with(RtFault::WorkerSlowdown {
            worker: 1,
            factor: 8.0,
            from_s: 1.0,
            until_s: 2.0,
        });
        let inj = FaultInjector::new(plan, &placement_2x2(), 4);
        assert_eq!(inj.slowdown_factor(2, 1.5), 8.0);
        assert_eq!(inj.slowdown_factor(3, 1.5), 8.0);
        assert_eq!(inj.slowdown_factor(0, 1.5), 1.0, "other worker untouched");
        assert_eq!(inj.slowdown_factor(2, 0.5), 1.0, "before window");
        assert_eq!(inj.slowdown_factor(2, 2.0), 1.0, "window end exclusive");
    }

    #[test]
    fn one_shot_faults_fire_once() {
        let plan = RtFaultPlan::new()
            .with(RtFault::TaskPanic { task: 1, at_s: 0.5 })
            .with(RtFault::TaskHang {
                task: 2,
                from_s: 0.5,
                until_s: 3.0,
            });
        let inj = FaultInjector::new(plan, &placement_2x2(), 4);
        assert!(!inj.take_panic(1, 0.4), "not yet due");
        assert!(inj.take_panic(1, 0.6));
        assert!(!inj.take_panic(1, 0.7), "panic is one-shot");
        assert!(!inj.take_panic(0, 0.7), "wrong task");
        assert_eq!(inj.take_hang(2, 1.0), Some(3.0));
        assert_eq!(inj.take_hang(2, 1.1), None, "hang is one-shot");
    }

    #[test]
    fn external_load_sums_active_windows() {
        let plan = RtFaultPlan::new()
            .with(RtFault::ExternalLoad {
                machine: 0,
                cores: 2.0,
                from_s: 0.0,
                until_s: 10.0,
            })
            .with(RtFault::ExternalLoad {
                machine: 0,
                cores: 1.5,
                from_s: 5.0,
                until_s: 10.0,
            });
        let inj = FaultInjector::new(plan, &placement_2x2(), 4);
        assert!(inj.has_external_load());
        assert_eq!(inj.external_load(0, 1.0), 2.0);
        assert_eq!(inj.external_load(0, 6.0), 3.5);
        assert_eq!(inj.external_load(1, 6.0), 0.0);
    }

    #[test]
    fn drop_window_is_task_scoped() {
        let plan = RtFaultPlan::new().with(RtFault::DropTuples {
            task: 1,
            from_s: 1.0,
            until_s: 2.0,
        });
        let inj = FaultInjector::new(plan, &placement_2x2(), 4);
        assert!(inj.should_drop(1, 1.5));
        assert!(!inj.should_drop(0, 1.5));
        assert!(!inj.should_drop(1, 2.5));
    }
}
