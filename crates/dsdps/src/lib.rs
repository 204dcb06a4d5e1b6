//! # dsdps — a Storm-model Distributed Stream Data Processing System
//!
//! This crate is a from-scratch reproduction of the substrate that the
//! IPDPS 2019 paper *"A Deep Recurrent Neural Network Based Predictive
//! Control Framework for Reliable Distributed Stream Data Processing"*
//! builds on: Apache Storm.  It implements the Storm programming and
//! execution model:
//!
//! * **Tuples and streams** — dynamically typed tuples ([`tuple::Tuple`])
//!   flowing between components, one output stream per component.
//! * **Topologies** — directed graphs of **spouts** (sources) and **bolts**
//!   (operators), built with [`topology::TopologyBuilder`].
//! * **Stream groupings** — shuffle, fields (hash), global and, crucially,
//!   the paper's **dynamic grouping** ([`grouping::dynamic`]) which splits
//!   tuples across downstream tasks according to a ratio vector that can be
//!   swapped atomically *while the topology runs*.
//! * **Reliability** — Storm's tuple-tree XOR acker with message timeouts
//!   and replay ([`acker`]).
//! * **Multilevel runtime metrics** — task-, worker- and machine-level
//!   statistics ([`metrics`]), the feature source for the paper's DRNN
//!   performance predictor.
//! * **Two runtimes** sharing the same topology API:
//!   - [`sim`]: a deterministic discrete-event simulation with a virtual
//!     clock, a machine/worker/executor placement hierarchy, a co-location
//!     interference model and fault injection.  All paper experiments run
//!     here (see `DESIGN.md` for the substitution argument).
//!   - [`rt`]: a threaded runtime executing the same topologies on real OS
//!     threads connected by crossbeam channels.
//! * **Observability** — sampled per-tuple-tree tracing, a live Prometheus
//!   metrics registry, and a control-plane event journal ([`telemetry`]).
//!
//! ## Quick example
//!
//! ```
//! use dsdps::prelude::*;
//!
//! struct Numbers(i64);
//! impl Spout for Numbers {
//!     fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
//!         self.0 += 1;
//!         out.emit(Tuple::of([Value::from(self.0)]));
//!         self.0 < 100
//!     }
//! }
//!
//! struct Doubler;
//! impl Bolt for Doubler {
//!     fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
//!         let v = tuple.values()[0].as_i64().unwrap();
//!         out.emit(Tuple::of([Value::from(v * 2)]));
//!     }
//! }
//!
//! let mut builder = TopologyBuilder::new("doubling");
//! builder.set_spout("nums", 1, move || Numbers(0)).unwrap();
//! builder
//!     .set_bolt("double", 2, || Doubler)
//!     .unwrap()
//!     .shuffle_grouping("nums")
//!     .unwrap();
//! let topology = builder.build().unwrap();
//! assert_eq!(topology.components().count(), 2);
//! ```

#![warn(missing_docs)]

pub mod acker;
mod bolt_task;
pub mod checkpoint;
pub mod component;
pub mod config;
pub mod dist;
pub mod error;
pub mod grouping;
pub mod hash;
mod lifecycle;
pub mod metrics;
pub mod report;
mod route;
pub mod rt;
pub mod scheduler;
pub mod sim;
mod spout_task;
mod stop;
pub mod telemetry;
pub mod topology;
pub mod tuple;
pub mod window;

/// Spawns a named thread of a runtime; the OS refusing is a runtime error.
/// Linux shows the first 15 bytes of `name` in `/proc/<pid>/task/*/comm`.
pub(crate) fn spawn_thread<T: Send + 'static>(
    name: String,
    body: impl FnOnce() -> T + Send + 'static,
) -> error::Result<std::thread::JoinHandle<T>> {
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(body)
        .map_err(|e| error::Error::Runtime(format!("spawn {name}: {e}")))
}

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::component::{Bolt, BoltOutput, Spout, SpoutOutput, TopologyContext};
    pub use crate::config::EngineConfig;
    pub use crate::error::{Error, Result};
    pub use crate::grouping::dynamic::{DynamicGroupingHandle, SplitRatio};
    pub use crate::grouping::Grouping;
    pub use crate::topology::{ComponentId, TaskId, Topology, TopologyBuilder};
    pub use crate::tuple::{Fields, Tuple, Value};
}
