//! # stream-control — the paper's predictive control framework
//!
//! Reproduction of the contribution of *"A Deep Recurrent Neural Network
//! Based Predictive Control Framework for Reliable Distributed Stream Data
//! Processing"* (IPDPS 2019): a closed loop that keeps a stream topology
//! healthy when workers misbehave.
//!
//! ```text
//!        multilevel metrics                     split ratios
//!  DSDPS ──────────────────► features ─► DRNN ─► detector ─► planner ──► dynamic
//!  (dsdps crate)                        predictor  (hysteresis)          grouping
//! ```
//!
//! * [`features`] — assembles DRNN inputs from task/worker/machine stats,
//!   with the co-location interference features the paper emphasizes;
//! * [`predictor`] — the [`predictor::DrnnPredictor`] and the ARIMA / SVR
//!   baselines behind one [`predictor::PerformancePredictor`] trait;
//! * [`detector`] — per-worker misbehavior detection with hysteresis;
//! * [`planner`] — split-ratio computation (uniform-excluding or
//!   capacity-proportional);
//! * [`controller`] — the control loop, pluggable into either runtime's
//!   metrics hook; supports predictive / reactive / monitor-only modes.

#![warn(missing_docs)]

pub mod controller;
pub mod detector;
pub mod error;
pub mod features;
pub mod planner;
pub mod predictor;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::controller::{
        control_hook, ControlEvent, ControlMode, Controller, ControllerConfig,
    };
    pub use crate::detector::{Detector, DetectorConfig};
    pub use crate::error::{Error, Result};
    pub use crate::features::FeatureSpec;
    pub use crate::planner::{plan_ratio, PlanPolicy};
    pub use crate::predictor::{
        ArimaPredictor, DrnnPredictor, DrnnPredictorConfig, PerformancePredictor, SvrPredictor,
    };
}
