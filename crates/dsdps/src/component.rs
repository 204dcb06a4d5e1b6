//! Spout and bolt traits plus the output collectors the runtime hands them.
//!
//! Components are written once and run unchanged on both the discrete-event
//! simulator ([`crate::sim`]) and the threaded runtime ([`crate::rt`]):
//! instead of pushing tuples into runtime-specific channels, a component
//! records emissions into a [`SpoutOutput`] / [`BoltOutput`] buffer which the
//! runtime drains and routes after the call returns.  A component has one
//! output stream: every emission is offered to each of its subscribers.

use crate::checkpoint::StatefulComponent;
use crate::tuple::Tuple;

/// Identifier a spout attaches to a tuple so it can be acked or replayed.
pub type MessageId = u64;

/// Static information about the task a component instance is running as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyContext {
    /// Name of the component this task belongs to.
    pub component: String,
    /// Index of this task within the component (`0..parallelism`).
    pub task_index: usize,
    /// Number of tasks of this component.
    pub parallelism: usize,
}

impl TopologyContext {
    /// Context for a single-task component, useful in unit tests.
    pub fn solo(component: &str) -> Self {
        TopologyContext {
            component: component.to_owned(),
            task_index: 0,
            parallelism: 1,
        }
    }
}

/// A single emission recorded by a component.
#[derive(Debug, Clone)]
pub struct Emission {
    /// The tuple itself.
    pub tuple: Tuple,
    /// Spout-assigned message id for reliability tracking (spouts only).
    pub message_id: Option<MessageId>,
    /// Whether the emission is anchored to the input tuple (bolts only).
    /// Unanchored tuples are not tracked by the acker.
    pub anchored: bool,
}

/// Collector a [`Spout`] writes into during [`Spout::next_tuple`].
#[derive(Debug, Default)]
pub struct SpoutOutput {
    emissions: Vec<Emission>,
    now_s: f64,
}

impl SpoutOutput {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current runtime clock in seconds (virtual time in the simulator,
    /// seconds since start on the threaded runtime).  Spouts use this for
    /// rate control and event timestamps.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Sets the clock before handing the collector to a component
    /// (runtime use).
    pub fn set_now(&mut self, now_s: f64) {
        self.now_s = now_s;
    }

    /// Emits a tuple without reliability tracking.
    pub fn emit(&mut self, tuple: Tuple) {
        self.emissions.push(Emission {
            tuple,
            message_id: None,
            anchored: false,
        });
    }

    /// Emits a tuple with a message id.  The runtime tracks the tuple tree
    /// and calls [`Spout::ack`] / [`Spout::fail`].
    pub fn emit_with_id(&mut self, tuple: Tuple, message_id: MessageId) {
        self.emissions.push(Emission {
            tuple,
            message_id: Some(message_id),
            anchored: false,
        });
    }

    /// Number of buffered emissions.
    pub fn len(&self) -> usize {
        self.emissions.len()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.emissions.is_empty()
    }

    /// Drains the buffered emissions (runtime use).
    pub fn drain(&mut self) -> Vec<Emission> {
        std::mem::take(&mut self.emissions)
    }

    /// Moves the buffered emissions into `buf`, keeping both vectors'
    /// capacity — the allocation-free variant of [`drain`](Self::drain) the
    /// threaded runtime calls once per `next_tuple`.
    pub fn drain_into(&mut self, buf: &mut Vec<Emission>) {
        buf.append(&mut self.emissions);
    }
}

/// Collector a [`Bolt`] writes into during [`Bolt::execute`] / [`Bolt::tick`].
#[derive(Debug, Default)]
pub struct BoltOutput {
    emissions: Vec<Emission>,
    failed: bool,
    now_s: f64,
}

impl BoltOutput {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current runtime clock in seconds (see [`SpoutOutput::now_s`]).
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Sets the clock before handing the collector to a component
    /// (runtime use).
    pub fn set_now(&mut self, now_s: f64) {
        self.now_s = now_s;
    }

    /// Emits a tuple anchored to the input tuple (the acker extends the
    /// tuple tree — Storm "basic bolt" semantics).
    pub fn emit(&mut self, tuple: Tuple) {
        self.emissions.push(Emission {
            tuple,
            message_id: None,
            anchored: true,
        });
    }

    /// Emits without anchoring: failure of the emitted tuple will not replay
    /// the spout tuple.
    pub fn emit_unanchored(&mut self, tuple: Tuple) {
        self.emissions.push(Emission {
            tuple,
            message_id: None,
            anchored: false,
        });
    }

    /// Marks the input tuple as failed.  The acker fails the whole tuple
    /// tree and the originating spout's [`Spout::fail`] runs.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Number of buffered emissions.
    pub fn len(&self) -> usize {
        self.emissions.len()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.emissions.is_empty()
    }

    /// Drains buffered emissions and resets the failure flag (runtime use).
    pub fn drain(&mut self) -> (Vec<Emission>, bool) {
        let failed = std::mem::replace(&mut self.failed, false);
        (std::mem::take(&mut self.emissions), failed)
    }

    /// Moves buffered emissions into `buf` and returns the reset failure
    /// flag — the allocation-free variant of [`drain`](Self::drain) the
    /// threaded runtime calls once per `execute`.
    pub fn drain_into(&mut self, buf: &mut Vec<Emission>) -> bool {
        buf.append(&mut self.emissions);
        std::mem::replace(&mut self.failed, false)
    }
}

/// A stream source.  One instance exists per task.
pub trait Spout: Send {
    /// Called once before the first `next_tuple`.
    fn open(&mut self, _ctx: &TopologyContext) {}

    /// Produce the next tuple(s).  Returning `false` signals the spout is
    /// exhausted; the runtime stops polling it (used for finite workloads
    /// and tests — infinite spouts always return `true`).
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool;

    /// The tuple tree rooted at `message_id` was fully processed.
    fn ack(&mut self, _message_id: MessageId) {}

    /// The tuple tree rooted at `message_id` failed or timed out.
    /// Implementations typically re-emit the original tuple.
    fn fail(&mut self, _message_id: MessageId) {}

    /// Called when the topology shuts down.
    fn close(&mut self) {}
}

/// A stream operator.  One instance exists per task.
pub trait Bolt: Send {
    /// Called once before the first `execute`.
    fn prepare(&mut self, _ctx: &TopologyContext) {}

    /// Process one input tuple.
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput);

    /// Called at the configured tick interval (virtual time in the
    /// simulator, wall clock on the threaded runtime).  Used by windowed
    /// bolts to close windows.
    fn tick(&mut self, _out: &mut BoltOutput) {}

    /// Called when the topology shuts down.
    fn cleanup(&mut self) {}

    /// Access to the bolt's checkpointable state, when it has any.
    ///
    /// Stateful bolts return `Some(self)`; the threaded runtime's
    /// checkpoint coordinator then snapshots them on the configured
    /// interval and restores the latest snapshot on a supervisor restart
    /// (see [`crate::checkpoint`]).  The default is stateless: a
    /// restart rebuilds the bolt from its component factory.
    fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Value;

    #[test]
    fn spout_output_buffers_and_drains() {
        let mut out = SpoutOutput::new();
        assert!(out.is_empty());
        out.emit(Tuple::of([Value::from(1i64)]));
        out.emit_with_id(Tuple::of([Value::from(2i64)]), 42);
        assert_eq!(out.len(), 2);
        let drained = out.drain();
        assert!(out.is_empty());
        assert_eq!(drained[0].message_id, None);
        assert_eq!(drained[1].message_id, Some(42));
        assert!(drained.iter().all(|e| !e.anchored));
    }

    #[test]
    fn bolt_output_anchoring_and_failure() {
        let mut out = BoltOutput::new();
        out.emit(Tuple::of([Value::from(1i64)]));
        out.emit_unanchored(Tuple::of([Value::from(2i64)]));
        out.fail();
        let (emissions, failed) = out.drain();
        assert!(failed);
        assert!(!out.drain().1, "drain resets failure flag");
        assert!(emissions[0].anchored);
        assert!(!emissions[1].anchored);
    }

    #[test]
    fn context_solo() {
        let ctx = TopologyContext::solo("counter");
        assert_eq!(ctx.component, "counter");
        assert_eq!(ctx.task_index, 0);
        assert_eq!(ctx.parallelism, 1);
    }
}
