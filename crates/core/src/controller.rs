//! The control loop: observe multilevel metrics → (predict) → detect
//! misbehaving workers → plan split ratios → actuate dynamic groupings.
//!
//! A [`Controller`] is driven by the runtime's metrics hook, one call per
//! metrics interval.  In `Predictive` mode it acts on what the performance
//! model says latency *will be* `horizon` intervals from now — the paper's
//! framework.  `Reactive` mode (an evaluation baseline) acts on the latency
//! just observed, and `Monitor` mode never actuates.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dsdps::grouping::dynamic::{DynamicGroupingHandle, SplitRatio};
use dsdps::metrics::MetricsSnapshot;
use dsdps::metrics::SnapshotHook;
use dsdps::scheduler::{Placement, WorkerId};
use dsdps::telemetry::{Journal, JournalEvent};
use dsdps::topology::{TaskId, Topology};
use serde::{Deserialize, Serialize};

use crate::detector::{Detector, DetectorConfig};
use crate::error::{Error, Result};
use crate::planner::{plan_ratio, PlanPolicy};
use crate::predictor::PerformancePredictor;

/// How the controller decides which workers are misbehaving.
pub enum ControlMode {
    /// Act on model predictions (the paper's framework).
    Predictive(Box<dyn PerformancePredictor>),
    /// Act on the latency observed in the last interval.
    Reactive,
    /// Observe only; never touch the groupings.
    Monitor,
}

impl ControlMode {
    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            ControlMode::Predictive(p) => format!("predictive({})", p.name()),
            ControlMode::Reactive => "reactive".into(),
            ControlMode::Monitor => "monitor".into(),
        }
    }
}

/// A spout-rate actuation surface: the second knob (next to routing
/// ratios) the planner can turn, trading throughput against tail latency.
/// Implemented by `dsdps::rt::BackpressureHandle` for live topologies and
/// trivially stubbable in tests.
pub trait RateActuator: Send {
    /// Current spout rate cap, tuples/s (`None` = uncapped).
    fn rate_cap(&self) -> Option<f64>;
    /// Applies (or clears) the cap; `reason` lands in the journal.
    fn set_rate_cap(&self, cap: Option<f64>, reason: &str);
}

impl RateActuator for dsdps::rt::BackpressureHandle {
    fn rate_cap(&self) -> Option<f64> {
        dsdps::rt::BackpressureHandle::rate_cap(self)
    }
    fn set_rate_cap(&self, cap: Option<f64>, reason: &str) {
        dsdps::rt::BackpressureHandle::set_rate_cap(self, cap, reason);
    }
}

/// Parameters of the controller's spout-rate policy
/// ([`Controller::attach_rate_actuator`]): hold the topology's complete-
/// latency p99 under an SLO by capping spout rate, and recover throughput
/// multiplicatively once comfortably back under it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateControlConfig {
    /// Target: complete-latency p99 must stay at or under this, ms.
    pub p99_slo_ms: f64,
    /// Multiplicative cut applied to the cap while over the SLO, in (0, 1).
    pub decrease_factor: f64,
    /// Multiplicative growth applied while under half the SLO, > 1.
    pub recovery_factor: f64,
    /// The cap never drops below this, tuples/s.
    pub min_rate: f64,
}

impl Default for RateControlConfig {
    fn default() -> Self {
        RateControlConfig {
            p99_slo_ms: 50.0,
            decrease_factor: 0.7,
            recovery_factor: 1.25,
            min_rate: 100.0,
        }
    }
}

/// Controller parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Misbehavior detection thresholds.
    pub detector: DetectorConfig,
    /// Split-ratio policy.
    pub policy: PlanPolicy,
    /// Intervals observed before the controller may actuate; baselines are
    /// calibrated from this window if not set explicitly.  At most
    /// `HISTORY_CAPACITY` (256), the history the controller retains.
    pub warmup_intervals: usize,
    /// Traffic share each bypassed task keeps receiving as a health probe,
    /// so its worker stays observable and recovery can be detected.  In
    /// `[0, 0.5)`.
    pub probe_weight: f64,
}

/// Intervals of history retained for prediction.
const HISTORY_CAPACITY: usize = 256;
/// Minimum L∞ ratio change worth applying (suppresses churn).
const MIN_RATIO_DELTA: f64 = 0.02;
/// Auto-calibrated baselines are clamped from below to this fraction of the
/// cross-worker median baseline.  A worker whose metric mixes cheap work
/// (e.g. it co-hosts a spout) would otherwise get a tiny baseline and flag
/// on trivial absolute latencies.
const BASELINE_FLOOR_FRACTION: f64 = 0.5;

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            detector: DetectorConfig::default(),
            policy: PlanPolicy::default(),
            warmup_intervals: 20,
            probe_weight: 0.02,
        }
    }
}

/// One dynamic-grouping edge under control.
pub struct ControlledEdge {
    /// Label `producer->subscriber` for logs.
    pub label: String,
    /// Live ratio handle.
    pub handle: DynamicGroupingHandle,
    /// Subscriber tasks in ratio-index order.
    pub tasks: Vec<TaskId>,
}

/// Audit-log entry of a control decision.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEvent {
    /// A worker was flagged as misbehaving.
    Flagged {
        /// Interval index.
        interval: u64,
        /// The worker.
        worker: WorkerId,
        /// The latency (µs) that triggered the flag.
        latency_us: f64,
    },
    /// A previously flagged worker recovered.
    Recovered {
        /// Interval index.
        interval: u64,
        /// The worker.
        worker: WorkerId,
    },
    /// A new split ratio was pushed to an edge.
    RatioApplied {
        /// Interval index.
        interval: u64,
        /// Edge label.
        edge: String,
        /// The applied ratio.
        ratio: SplitRatio,
    },
    /// A new spout rate cap was pushed to the rate actuator.
    RateCapApplied {
        /// Interval index.
        interval: u64,
        /// The applied cap, tuples/s (`None` = uncapped).
        rate_cap: Option<f64>,
        /// The p99 complete latency (ms) that drove the decision.
        p99_ms: f64,
    },
}

/// The predictive controller.
pub struct Controller {
    config: ControllerConfig,
    mode: ControlMode,
    detector: Detector,
    edges: Vec<ControlledEdge>,
    task_worker: HashMap<TaskId, WorkerId>,
    workers: Vec<WorkerId>,
    history: Vec<MetricsSnapshot>,
    events: Vec<ControlEvent>,
    calibrated: bool,
    /// Attached control-plane journal, if any ([`Controller::attach_journal`]).
    journal: Option<Arc<Journal>>,
    /// Attached spout-rate actuator and its policy, if any
    /// ([`Controller::attach_rate_actuator`]).
    rate_control: Option<(RateControlConfig, Box<dyn RateActuator>)>,
}

impl Controller {
    /// Builds a controller for every dynamic-grouping edge of `topology`.
    ///
    /// `placement` maps the subscriber tasks to the workers whose health
    /// governs their weight.
    pub fn for_topology(
        topology: &Topology,
        placement: &Placement,
        config: ControllerConfig,
        mode: ControlMode,
    ) -> Result<Self> {
        // Either value would leave a controller that runs and never acts:
        // its history never reaches warm-up, or every plan fails.
        if config.warmup_intervals > HISTORY_CAPACITY {
            let msg = format!("warmup_intervals must be <= {HISTORY_CAPACITY}");
            return Err(Error::Config(msg));
        }
        if !(0.0..0.5).contains(&config.probe_weight) {
            return Err(Error::Config("probe_weight must be in [0, 0.5)".into()));
        }
        let mut edges = Vec::new();
        let mut task_worker = HashMap::new();
        let mut workers: Vec<WorkerId> = Vec::new();
        for ((producer, subscriber), handle) in topology.dynamic_handles() {
            let sub = topology
                .component_by_name(subscriber)
                .ok_or_else(|| Error::Config(format!("unknown subscriber {subscriber}")))?;
            let tasks: Vec<TaskId> = sub.tasks().collect();
            for &t in &tasks {
                let w = placement.worker_of(t);
                task_worker.insert(t, w);
                if !workers.contains(&w) {
                    workers.push(w);
                }
            }
            edges.push(ControlledEdge {
                label: format!("{producer}->{subscriber}"),
                handle: handle.clone(),
                tasks,
            });
        }
        if edges.is_empty() {
            return Err(Error::Config(
                "topology has no dynamic-grouping edge to control".into(),
            ));
        }
        workers.sort();
        Ok(Controller {
            detector: Detector::new(config.detector),
            config,
            mode,
            edges,
            task_worker,
            workers,
            history: Vec::new(),
            events: Vec::new(),
            calibrated: false,
            journal: None,
            rate_control: None,
        })
    }

    /// Attaches a control-plane [`Journal`] (typically the running
    /// topology's, via `RunningTopology::journal()`): every subsequent
    /// flag / recover / ratio decision is appended there as a
    /// [`JournalEvent`] alongside the in-memory [`ControlEvent`] audit log,
    /// cross-referencable with the runtime's restart and replay events.
    pub fn attach_journal(&mut self, journal: Arc<Journal>) {
        self.journal = Some(journal);
    }

    /// Attaches a spout-rate actuator (typically the running topology's
    /// `BackpressureHandle`): each control epoch then also holds the
    /// topology's complete-latency p99 under `config.p99_slo_ms` by cutting
    /// the spout rate cap multiplicatively, recovering it once the p99 sits
    /// comfortably under half the SLO.  Decisions are pushed through the
    /// actuator (which journals them as `ThrottleChanged` with reason
    /// `"controller"`) and recorded as [`ControlEvent::RateCapApplied`].
    pub fn attach_rate_actuator(
        &mut self,
        actuator: Box<dyn RateActuator>,
        config: RateControlConfig,
    ) {
        self.rate_control = Some((config, actuator));
    }

    /// The workers whose health this controller tracks.
    pub fn controlled_workers(&self) -> &[WorkerId] {
        &self.workers
    }

    /// The control-decision audit log.
    pub fn events(&self) -> &[ControlEvent] {
        &self.events
    }

    /// Retained metrics history (oldest first).
    pub fn history(&self) -> &[MetricsSnapshot] {
        &self.history
    }

    /// The control mode's name.
    pub fn mode_name(&self) -> String {
        self.mode.name()
    }

    /// Sets a worker's healthy baseline explicitly (µs).  Otherwise
    /// baselines auto-calibrate from the warmup window.
    pub fn set_baseline(&mut self, worker: WorkerId, baseline_us: f64) {
        self.detector.set_baseline(worker, baseline_us);
        self.calibrated = true;
    }

    fn calibrate_from_warmup(&mut self) {
        // In predictive mode the baseline is the median of the *model's own
        // warmup predictions*, not of the raw observations: the detector
        // then compares prediction against prediction, so any systematic
        // bias of the model cancels instead of causing spurious flags.
        let mut baselines: Vec<(WorkerId, f64)> = Vec::new();
        for &w in &self.workers {
            let mut lats: Vec<f64> = match &self.mode {
                ControlMode::Predictive(p) => (1..self.history.len())
                    .filter_map(|t| {
                        let refs: Vec<&MetricsSnapshot> = self.history[..=t].iter().collect();
                        p.predict(&refs, w)
                    })
                    .collect(),
                _ => Vec::new(),
            };
            if lats.is_empty() {
                lats = self
                    .history
                    .iter()
                    .filter_map(|s| s.worker_avg_latency_us(w))
                    .collect();
            }
            if lats.is_empty() {
                continue;
            }
            lats.sort_by(f64::total_cmp);
            let median = lats[lats.len() / 2];
            if median > 0.0 {
                baselines.push((w, median));
            }
        }
        // Clamp tiny baselines (mixed workers co-hosting cheap components)
        // to a fraction of the cross-worker median.
        if !baselines.is_empty() {
            let mut meds: Vec<f64> = baselines.iter().map(|(_, b)| *b).collect();
            meds.sort_by(f64::total_cmp);
            let floor = meds[meds.len() / 2] * BASELINE_FLOOR_FRACTION;
            for (w, b) in baselines {
                self.detector.set_baseline(w, b.max(floor));
            }
        }
        self.calibrated = true;
    }

    /// Feeds one metrics snapshot; runs a control epoch when warmed up.
    pub fn on_snapshot(&mut self, snapshot: &MetricsSnapshot) {
        self.history.push(snapshot.clone());
        if self.history.len() > HISTORY_CAPACITY {
            let overflow = self.history.len() - HISTORY_CAPACITY;
            self.history.drain(..overflow);
        }
        if self.history.len() < self.config.warmup_intervals {
            return;
        }
        if !self.calibrated {
            self.calibrate_from_warmup();
        }
        if matches!(self.mode, ControlMode::Monitor) {
            return;
        }

        // 1. Estimate each worker's (near-future) latency.
        let refs: Vec<&MetricsSnapshot> = self.history.iter().collect();
        let mut estimates: HashMap<WorkerId, f64> = HashMap::new();
        for &w in &self.workers {
            // A worker that executed nothing this interval gives no signal:
            // feeding the model its zeroed idle features would read as
            // "instantly healthy" and cause flag/unflag flapping.  Probe
            // traffic (see `probe_weight`) keeps bypassed workers observable.
            if snapshot.worker_avg_latency_us(w).is_none() {
                continue;
            }
            let observed = snapshot.worker_avg_latency_us(w);
            let est = match &self.mode {
                // Flagging combines the model's forecast with the current
                // observation.  Three cases for an unflagged worker:
                //   1. observation clearly healthy (below the recovery
                //      threshold): trust the measurement — acting on a
                //      prediction that contradicts a healthy measurement
                //      causes closed-loop flapping, because rerouting
                //      itself shifts the feature distribution the model
                //      was trained on;
                //   2. observation drifting: act on max(prediction,
                //      observation) — the prediction makes the controller
                //      proactive, the observation guarantees it is never
                //      slower than reactive control on faults outside the
                //      model's training distribution.
                // Recovery of an already-flagged worker is confirmed from
                // the observed latency of its probe traffic alone — the
                // probe regime (trickle load on a degraded worker) is not a
                // regime the model was trained on, and a measured probe is
                // ground truth.
                ControlMode::Predictive(p) if !self.detector.is_misbehaving(w) => {
                    match (p.predict(&refs, w), observed) {
                        (Some(pred), Some(obs)) => {
                            let clearly_healthy = self
                                .detector
                                .baseline(w)
                                .is_some_and(|b| obs <= self.config.detector.recover_factor * b);
                            Some(if clearly_healthy { obs } else { pred.max(obs) })
                        }
                        (pred, obs) => pred.or(obs),
                    }
                }
                ControlMode::Predictive(_) | ControlMode::Reactive => observed,
                ControlMode::Monitor => unreachable!(),
            };
            if let Some(est) = est {
                estimates.insert(w, est);
            }
        }

        // 2. Detect.
        let before: Vec<WorkerId> = self.detector.misbehaving_workers();
        for (&w, &lat) in &estimates {
            self.detector.observe(w, lat);
        }
        let after = self.detector.misbehaving_workers();
        for &w in &after {
            if !before.contains(&w) {
                let latency_us = estimates.get(&w).copied().unwrap_or(f64::NAN);
                if let Some(journal) = &self.journal {
                    journal.append(JournalEvent::WorkerFlagged {
                        time_s: snapshot.time_s,
                        worker: w.0,
                        latency_us,
                    });
                }
                self.events.push(ControlEvent::Flagged {
                    interval: snapshot.interval,
                    worker: w,
                    latency_us,
                });
            }
        }
        for &w in &before {
            if !after.contains(&w) {
                if let Some(journal) = &self.journal {
                    journal.append(JournalEvent::WorkerRecovered {
                        time_s: snapshot.time_s,
                        worker: w.0,
                    });
                }
                self.events.push(ControlEvent::Recovered {
                    interval: snapshot.interval,
                    worker: w,
                });
            }
        }

        // 3. Plan and actuate each edge.
        for edge in &self.edges {
            let Ok(ratio) = plan_ratio(
                self.config.policy,
                &edge.tasks,
                &self.task_worker,
                &after,
                &estimates,
                self.config.probe_weight,
            ) else {
                continue;
            };
            let current = edge.handle.ratio();
            if current.max_abs_diff(&ratio) >= MIN_RATIO_DELTA
                && edge.handle.set_ratio(ratio.clone()).is_ok()
            {
                if let Some(journal) = &self.journal {
                    journal.append(JournalEvent::RatioApplied {
                        time_s: snapshot.time_s,
                        edge: edge.label.clone(),
                        ratio: ratio.as_slice().to_vec(),
                    });
                }
                self.events.push(ControlEvent::RatioApplied {
                    interval: snapshot.interval,
                    edge: edge.label.clone(),
                    ratio,
                });
            }
        }
        // 4. Rate actuation: trade throughput for tail latency.
        if let Some((rc, actuator)) = &self.rate_control {
            let p99_ms = snapshot.topology.p99_complete_latency_ms;
            let cap = actuator.rate_cap();
            let new_cap = if p99_ms > rc.p99_slo_ms {
                // Over SLO: cut.  From uncapped, start at the throughput
                // actually observed (INFINITY has no meaningful multiple).
                let base = cap.unwrap_or_else(|| snapshot.topology.throughput.max(rc.min_rate));
                Some((base * rc.decrease_factor).max(rc.min_rate))
            } else if p99_ms < rc.p99_slo_ms * 0.5 {
                // Comfortably under: recover throughput.
                cap.map(|c| c * rc.recovery_factor)
            } else {
                cap
            };
            if new_cap != cap {
                actuator.set_rate_cap(new_cap, "controller");
                self.events.push(ControlEvent::RateCapApplied {
                    interval: snapshot.interval,
                    rate_cap: new_cap,
                    p99_ms,
                });
            }
        }
    }
}

/// Wraps a shared controller as the snapshot hook of either backend:
/// [`dsdps::sim::SimRuntime::add_control_hook`] in virtual time,
/// [`dsdps::rt::submit_faulty`] on the wall clock.
pub fn control_hook(controller: Arc<Mutex<Controller>>) -> SnapshotHook {
    Box::new(move |snapshot| {
        controller.lock().on_snapshot(snapshot);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsdps::metrics::{MachineStats, TopologyStats, WorkerStats};
    use dsdps::scheduler::MachineId;

    struct StubPredictor {
        /// Worker → fixed prediction.
        preds: HashMap<WorkerId, f64>,
    }

    impl PerformancePredictor for StubPredictor {
        fn fit(&mut self, _h: &[&MetricsSnapshot], _w: &[WorkerId]) -> Result<()> {
            Ok(())
        }
        fn predict(&self, _h: &[&MetricsSnapshot], worker: WorkerId) -> Option<f64> {
            self.preds.get(&worker).copied()
        }
        fn horizon(&self) -> usize {
            1
        }
        fn name(&self) -> String {
            "stub".into()
        }
    }

    fn snapshot(interval: u64, lats: &[f64]) -> MetricsSnapshot {
        MetricsSnapshot {
            interval,
            time_s: interval as f64,
            interval_s: 1.0,
            tasks: vec![],
            workers: lats
                .iter()
                .enumerate()
                .map(|(i, &lat)| WorkerStats {
                    worker: WorkerId(i),
                    machine: MachineId(0),
                    cpu_cores_used: 0.5,
                    memory_mb: 100.0,
                    executed: 100,
                    tuples_in: 0,
                    tuples_out: 0,
                    avg_execute_latency_us: lat,
                    num_tasks: 1,
                })
                .collect(),
            machines: vec![MachineStats {
                machine: MachineId(0),
                cpu_cores_used: 1.0,
                external_load_cores: 0.0,
                cores: 4,
                num_workers: lats.len(),
            }],
            topology: TopologyStats {
                spout_emitted: 0,
                acked: 0,
                failed: 0,
                timed_out: 0,
                avg_complete_latency_ms: 0.0,
                p99_complete_latency_ms: 0.0,
                throughput: 0.0,
            },
        }
    }

    /// Builds a 1-spout → 4-task dynamic topology and its controller.
    fn build(mode: ControlMode) -> (Controller, DynamicGroupingHandle) {
        let cfg = ControllerConfig {
            warmup_intervals: 3,
            // Full bypass in these tests: zeroed-task assertions are exact.
            probe_weight: 0.0,
            ..ControllerConfig::default()
        };
        build_with(cfg, mode).unwrap()
    }

    fn build_with(
        cfg: ControllerConfig,
        mode: ControlMode,
    ) -> Result<(Controller, DynamicGroupingHandle)> {
        use dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
        use dsdps::config::EngineConfig;
        use dsdps::topology::TopologyBuilder;
        use dsdps::tuple::Tuple;

        struct S;
        impl Spout for S {
            fn next_tuple(&mut self, _o: &mut SpoutOutput) -> bool {
                false
            }
        }
        struct B;
        impl Bolt for B {
            fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
        }
        let mut b = TopologyBuilder::new("t");
        b.set_spout("s", 1, || S).unwrap();
        b.set_bolt("sink", 4, || B)
            .unwrap()
            .dynamic_grouping("s")
            .unwrap();
        let topo = b.build().unwrap();
        let handle = topo.dynamic_handle("s", "sink").unwrap();
        // 4 workers on 2 machines; sink tasks are tasks 1..5.
        let placement =
            dsdps::scheduler::even_placement(&topo, &EngineConfig::default().with_cluster(2, 2, 4))
                .unwrap();
        let c = Controller::for_topology(&topo, &placement, cfg, mode)?;
        Ok((c, handle))
    }

    #[test]
    fn builds_edges_and_workers_from_topology() {
        let (c, _) = build(ControlMode::Monitor);
        assert_eq!(c.controlled_workers().len(), 4);
        assert_eq!(c.mode_name(), "monitor");
    }

    #[test]
    fn rejects_configs_that_would_never_act() {
        let base = ControllerConfig::default();
        let bad = [
            ControllerConfig {
                warmup_intervals: HISTORY_CAPACITY + 1,
                ..base.clone()
            },
            ControllerConfig {
                probe_weight: 0.5,
                ..base.clone()
            },
            ControllerConfig {
                probe_weight: -0.01,
                ..base.clone()
            },
            ControllerConfig {
                probe_weight: f64::NAN,
                ..base.clone()
            },
        ];
        for cfg in bad {
            let err = build_with(cfg.clone(), ControlMode::Reactive).err();
            assert!(matches!(err, Some(Error::Config(_))), "{cfg:?}");
        }
        let edge = ControllerConfig {
            warmup_intervals: HISTORY_CAPACITY,
            probe_weight: 0.0,
            ..base
        };
        assert!(build_with(edge, ControlMode::Reactive).is_ok());
    }

    #[test]
    fn errors_without_dynamic_edges() {
        use dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
        use dsdps::config::EngineConfig;
        use dsdps::topology::TopologyBuilder;
        use dsdps::tuple::Tuple;
        struct S;
        impl Spout for S {
            fn next_tuple(&mut self, _o: &mut SpoutOutput) -> bool {
                false
            }
        }
        struct B;
        impl Bolt for B {
            fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
        }
        let mut b = TopologyBuilder::new("t");
        b.set_spout("s", 1, || S).unwrap();
        b.set_bolt("sink", 2, || B)
            .unwrap()
            .shuffle_grouping("s")
            .unwrap();
        let topo = b.build().unwrap();
        let placement = dsdps::scheduler::even_placement(&topo, &EngineConfig::default()).unwrap();
        assert!(Controller::for_topology(
            &topo,
            &placement,
            ControllerConfig::default(),
            ControlMode::Monitor
        )
        .is_err());
    }

    #[test]
    fn monitor_mode_never_actuates() {
        let (mut c, handle) = build(ControlMode::Monitor);
        let v0 = handle.version();
        for i in 0..20 {
            c.on_snapshot(&snapshot(i, &[100.0, 100.0, 9999.0, 100.0]));
        }
        assert_eq!(handle.version(), v0);
        assert!(c.events().is_empty());
    }

    #[test]
    fn reactive_mode_zeroes_tasks_of_misbehaving_worker() {
        let (mut c, handle) = build(ControlMode::Reactive);
        let journal = Arc::new(Journal::new());
        c.attach_journal(Arc::clone(&journal));
        // Warmup with healthy latencies → baselines ≈ 100.
        for i in 0..5 {
            c.on_snapshot(&snapshot(i, &[100.0, 100.0, 100.0, 100.0]));
        }
        // Worker 2 degrades hard for several epochs.
        for i in 5..10 {
            c.on_snapshot(&snapshot(i, &[100.0, 100.0, 800.0, 100.0]));
        }
        let flagged: Vec<_> = c
            .events()
            .iter()
            .filter(|e| matches!(e, ControlEvent::Flagged { .. }))
            .collect();
        assert!(!flagged.is_empty(), "worker 2 must be flagged");
        let ratio = handle.ratio();
        // The sink task hosted by worker 2 must be zeroed.  With the even
        // scheduler, task 1+k is on worker (1+k) % 4; worker 2 hosts task 1.
        let zeroed = ratio.zeroed_tasks();
        assert_eq!(zeroed.len(), 1, "exactly one task bypassed: {ratio:?}");
        // The journal names the edge `producer->subscriber`.
        let edges: Vec<_> = (journal.events().into_iter())
            .filter_map(|e| match e {
                JournalEvent::RatioApplied { edge, .. } => Some(edge),
                _ => None,
            })
            .collect();
        assert!(
            !edges.is_empty() && edges.iter().all(|e| e == "s->sink"),
            "{edges:?}"
        );
    }

    #[test]
    fn predictive_mode_ignores_prediction_when_observation_healthy() {
        // Clearly healthy observation + alarming prediction: the
        // corroboration rule trusts the measurement (prevents closed-loop
        // flapping after reroutes shift the feature distribution).
        let mut preds: HashMap<WorkerId, f64> = (0..4).map(|i| (WorkerId(i), 100.0)).collect();
        preds.insert(WorkerId(2), 900.0);
        let (mut c, _handle) = build(ControlMode::Predictive(Box::new(StubPredictor { preds })));
        for &w in &[0, 1, 2, 3] {
            c.set_baseline(WorkerId(w), 100.0);
        }
        for i in 0..10 {
            c.on_snapshot(&snapshot(i, &[100.0; 4]));
        }
        assert!(
            !c.events()
                .iter()
                .any(|e| matches!(e, ControlEvent::Flagged { .. })),
            "healthy measurement must veto the prediction: {:?}",
            c.events()
        );
    }

    #[test]
    fn predictive_mode_never_slower_than_reactive() {
        // Healthy predictions but terrible observations: the hybrid
        // max(prediction, observation) estimate must still flag, so the
        // predictive controller is never blinder than the reactive one.
        let preds: HashMap<WorkerId, f64> = (0..4).map(|i| (WorkerId(i), 100.0)).collect();
        let (mut c, handle) = build(ControlMode::Predictive(Box::new(StubPredictor { preds })));
        for &w in &[0, 1, 2, 3] {
            c.set_baseline(WorkerId(w), 100.0);
        }
        for i in 0..10 {
            c.on_snapshot(&snapshot(i, &[100.0, 100.0, 5000.0, 100.0]));
        }
        assert!(c
            .events()
            .iter()
            .any(|e| matches!(e, ControlEvent::Flagged { worker, .. } if *worker == WorkerId(2))));
        let _ = handle;
    }

    #[test]
    fn predictive_mode_flags_on_predicted_degradation() {
        let mut preds: HashMap<WorkerId, f64> = (0..4).map(|i| (WorkerId(i), 100.0)).collect();
        preds.insert(WorkerId(1), 900.0); // model predicts worker 1 will degrade
        let (mut c, handle) = build(ControlMode::Predictive(Box::new(StubPredictor { preds })));
        for &w in &[0, 1, 2, 3] {
            c.set_baseline(WorkerId(w), 100.0);
        }
        // Worker 1's observation is drifting (above the recovery threshold
        // of 1.4x baseline but below the 2x trigger), so the corroboration
        // rule lets the *prediction* flag it proactively.
        for i in 0..10 {
            c.on_snapshot(&snapshot(i, &[100.0, 160.0, 100.0, 100.0]));
        }
        assert!(c
            .events()
            .iter()
            .any(|e| matches!(e, ControlEvent::Flagged { worker, .. } if *worker == WorkerId(1))));
        assert_eq!(handle.ratio().zeroed_tasks().len(), 1);
    }

    #[test]
    fn ratio_churn_suppressed_below_delta() {
        let (mut c, handle) = build(ControlMode::Reactive);
        for i in 0..30 {
            // Tiny latency wiggle: capacity-proportional ratios barely move.
            let wiggle = 100.0 + (i % 2) as f64 * 0.5;
            c.on_snapshot(&snapshot(i, &[wiggle, 100.0, 100.0, 100.0]));
        }
        let applied = c
            .events()
            .iter()
            .filter(|e| matches!(e, ControlEvent::RatioApplied { .. }))
            .count();
        assert!(applied <= 1, "churn: {applied} ratio updates");
        let _ = handle;
    }

    #[test]
    fn history_is_bounded() {
        let (mut c, _) = build(ControlMode::Monitor);
        for i in 0..600 {
            c.on_snapshot(&snapshot(i, &[100.0; 4]));
        }
        assert_eq!(c.history().len(), HISTORY_CAPACITY);
    }

    /// Stub rate actuator: a shared cell standing in for the runtime's
    /// `BackpressureHandle`.
    struct StubActuator {
        cap: Arc<Mutex<Option<f64>>>,
    }
    impl RateActuator for StubActuator {
        fn rate_cap(&self) -> Option<f64> {
            *self.cap.lock()
        }
        fn set_rate_cap(&self, cap: Option<f64>, _reason: &str) {
            *self.cap.lock() = cap;
        }
    }

    fn snapshot_with_p99(interval: u64, p99_ms: f64, throughput: f64) -> MetricsSnapshot {
        let mut s = snapshot(interval, &[100.0; 4]);
        s.topology.p99_complete_latency_ms = p99_ms;
        s.topology.throughput = throughput;
        s
    }

    #[test]
    fn rate_actuator_caps_over_slo_and_recovers_under_it() {
        let (mut c, _) = build(ControlMode::Reactive);
        let cap = Arc::new(Mutex::new(None));
        c.attach_rate_actuator(
            Box::new(StubActuator { cap: cap.clone() }),
            RateControlConfig {
                p99_slo_ms: 50.0,
                ..RateControlConfig::default()
            },
        );
        // Warmup + over-SLO intervals: the first breach caps at
        // throughput × decrease_factor, further breaches keep cutting.
        for i in 0..5 {
            c.on_snapshot(&snapshot_with_p99(i, 10.0, 2000.0));
        }
        assert_eq!(*cap.lock(), None, "under SLO stays uncapped");
        for i in 5..8 {
            c.on_snapshot(&snapshot_with_p99(i, 200.0, 2000.0));
        }
        let capped = cap.lock().expect("over-SLO run must be capped");
        assert!(capped < 2000.0, "cap below observed throughput: {capped}");
        // Comfortably under half the SLO: the cap recovers multiplicatively.
        for i in 8..12 {
            c.on_snapshot(&snapshot_with_p99(i, 5.0, 1000.0));
        }
        let recovered = cap.lock().expect("recovery keeps a (growing) cap");
        assert!(recovered > capped, "{recovered} vs {capped}");
        // Decisions land in the audit log.
        assert!(c
            .events()
            .iter()
            .any(|e| matches!(e, ControlEvent::RateCapApplied { .. })));
        // Never below the floor.
        let floor = RateControlConfig::default().min_rate;
        for i in 12..40 {
            c.on_snapshot(&snapshot_with_p99(i, 500.0, 2000.0));
        }
        assert!(cap.lock().unwrap() >= floor);
    }

    #[test]
    fn control_hook_drives_shared_controller() {
        let (c, _) = build(ControlMode::Monitor);
        let shared = Arc::new(Mutex::new(c));
        let mut hook = control_hook(shared.clone());
        hook(&snapshot(0, &[1.0; 4]));
        hook(&snapshot(1, &[1.0; 4]));
        assert_eq!(shared.lock().history().len(), 2);
    }
}

#[cfg(test)]
mod multi_edge_tests {
    use super::*;
    use crate::detector::DetectorConfig;
    use dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
    use dsdps::config::EngineConfig;
    use dsdps::metrics::{MachineStats, TopologyStats, WorkerStats};
    use dsdps::scheduler::MachineId;
    use dsdps::topology::TopologyBuilder;
    use dsdps::tuple::Tuple;

    struct S;
    impl Spout for S {
        fn next_tuple(&mut self, _o: &mut SpoutOutput) -> bool {
            false
        }
    }
    struct B;
    impl Bolt for B {
        fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
    }

    fn snapshot(interval: u64, lats: &[f64]) -> MetricsSnapshot {
        MetricsSnapshot {
            interval,
            time_s: interval as f64,
            interval_s: 1.0,
            tasks: vec![],
            workers: lats
                .iter()
                .enumerate()
                .map(|(i, &lat)| WorkerStats {
                    worker: WorkerId(i),
                    machine: MachineId(0),
                    cpu_cores_used: 0.5,
                    memory_mb: 100.0,
                    executed: 100,
                    tuples_in: 0,
                    tuples_out: 0,
                    avg_execute_latency_us: lat,
                    num_tasks: 1,
                })
                .collect(),
            machines: vec![MachineStats {
                machine: MachineId(0),
                cpu_cores_used: 1.0,
                external_load_cores: 0.0,
                cores: 4,
                num_workers: lats.len(),
            }],
            topology: TopologyStats {
                spout_emitted: 0,
                acked: 0,
                failed: 0,
                timed_out: 0,
                avg_complete_latency_ms: 0.0,
                p99_complete_latency_ms: 0.0,
                throughput: 0.0,
            },
        }
    }

    /// A topology with TWO dynamic edges feeding different stages; the
    /// controller must manage both, and a flagged worker affects exactly
    /// the edge(s) whose tasks it hosts.
    #[test]
    fn controller_manages_multiple_dynamic_edges() {
        let mut b = TopologyBuilder::new("multi");
        b.set_spout("s", 1, || S).unwrap();
        b.set_bolt("stage_a", 3, || B)
            .unwrap()
            .dynamic_grouping("s")
            .unwrap();
        b.set_bolt("stage_b", 2, || B)
            .unwrap()
            .dynamic_grouping("stage_a")
            .unwrap();
        let topo = b.build().unwrap();
        let handle_a = topo.dynamic_handle("s", "stage_a").unwrap();
        let handle_b = topo.dynamic_handle("stage_a", "stage_b").unwrap();
        // 6 tasks over 6 workers: stage_a on w1..w3, stage_b on w4..w5.
        let placement =
            dsdps::scheduler::even_placement(&topo, &EngineConfig::default().with_cluster(3, 2, 4))
                .unwrap();
        let mut c = Controller::for_topology(
            &topo,
            &placement,
            ControllerConfig {
                warmup_intervals: 3,
                probe_weight: 0.0,
                detector: DetectorConfig {
                    trigger_factor: 2.0,
                    trigger_consecutive: 2,
                    ..DetectorConfig::default()
                },
                ..ControllerConfig::default()
            },
            ControlMode::Reactive,
        )
        .unwrap();
        assert_eq!(c.controlled_workers().len(), 5);

        // Warmup healthy, then degrade w4 (hosts stage_b task 0) only.
        for i in 0..5 {
            c.on_snapshot(&snapshot(i, &[100.0; 6]));
        }
        for i in 5..12 {
            let mut lats = [100.0; 6];
            lats[4] = 900.0;
            c.on_snapshot(&snapshot(i, &lats));
        }
        // Edge A (stage_a on w1..w3) stays balanced; edge B zeroes task 0.
        let ra = handle_a.ratio();
        assert!(ra.zeroed_tasks().is_empty(), "edge A untouched: {ra:?}");
        let rb = handle_b.ratio();
        assert_eq!(
            rb.zeroed_tasks(),
            vec![0],
            "edge B bypasses w4's task: {rb:?}"
        );
    }
}
