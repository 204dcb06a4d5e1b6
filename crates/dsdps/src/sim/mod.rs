//! Discrete-event simulated runtime.
//!
//! This runtime substitutes for the physical Storm cluster of the paper's
//! evaluation (see `DESIGN.md` §1): virtual time, a machine/worker/executor
//! placement hierarchy, a co-location interference model, and deterministic
//! fault injection.  It exposes the identical observation surface
//! (multilevel [`crate::metrics::MetricsSnapshot`]s) and actuation surface
//! (dynamic-grouping handles) as the threaded runtime.

pub mod engine;
pub mod event;
pub mod machine;

pub use engine::{RunReport, SimRuntime};
pub use machine::{Fault, InterferenceModel, MachineState};
