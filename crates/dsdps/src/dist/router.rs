//! What the coordinator and every worker share on the send side of the
//! data plane: the router that picks destination tasks for an emission,
//! and the per-link [`Outbox`] that puts deliveries on the wire under the
//! sender's credit ledger.
//!
//! The coordinator routes spout emissions with these types; each worker
//! routes its own bolt and tick emissions with the very same ones.

use std::collections::VecDeque;

use super::codec::{Frame, InternTable, WireTuple};
use super::transport::BatchWriter;
use crate::acker::splitmix64;
use crate::grouping::dynamic::DynamicGroupingHandle;
use crate::grouping::{make_grouping, Grouping, GroupingSpec};
use crate::rt::CreditLedger;
use crate::topology::Topology;
use crate::tuple::Tuple;

/// Fresh edge ids for one routing thread: a SplitMix64-scrambled counter
/// from a per-thread seed, so ids drawn in different processes behave like
/// independent random 64-bit values (what the acker's XOR zero-test
/// needs) without shared state.
pub(crate) struct EdgeIds(u64);

impl EdgeIds {
    /// `seed` must differ between any two threads routing in the same run.
    pub(crate) fn new(seed: u64) -> Self {
        EdgeIds(splitmix64(seed))
    }

    /// A fresh nonzero edge id.
    pub(crate) fn next(&mut self) -> u64 {
        loop {
            self.0 = self.0.wrapping_add(1);
            let id = splitmix64(self.0);
            if id != 0 {
                return id;
            }
        }
    }
}

/// One subscription of a downstream component to a producer's stream.
struct Route {
    stream: u32,
    subscriber_base: usize,
    parallelism: usize,
    grouping: Box<dyn Grouping>,
    is_direct: bool,
}

/// Destination selection for every producing component of a topology.
/// Owned by one thread (a coordinator spout thread, a worker's executor),
/// so groupings need no lock and the scratch buffers are reused.
pub(crate) struct DistRouter {
    /// Routes indexed by producing component id.
    per_component: Vec<Vec<Route>>,
    /// Handles of the dynamic-grouping edges, in route order — the index
    /// is the `edge` of a `SetRatio` frame.
    dynamic: Vec<DynamicGroupingHandle>,
    dests: Vec<usize>,
    locals: Vec<usize>,
}

impl DistRouter {
    pub(crate) fn new(topology: &Topology, intern: &InternTable) -> Self {
        let mut per_component = Vec::new();
        let mut dynamic = Vec::new();
        for component in topology.components() {
            let mut routes = Vec::new();
            for decl in &component.outputs {
                let stream = intern
                    .lookup(component.id.0, decl.id.as_str())
                    .expect("declared stream is interned");
                for (sub, spec) in topology.subscribers_of(component.id, &decl.id) {
                    let handle = match spec {
                        GroupingSpec::Dynamic(_) => {
                            topology.dynamic_handle(&component.name, &decl.id, &sub.name)
                        }
                        _ => None,
                    };
                    dynamic.extend(handle.clone());
                    routes.push(Route {
                        stream,
                        subscriber_base: sub.base_task.0,
                        parallelism: sub.parallelism,
                        grouping: make_grouping(spec, sub.parallelism, &decl.fields, 0, handle),
                        is_direct: matches!(spec, GroupingSpec::Direct),
                    });
                }
            }
            per_component.push(routes);
        }
        DistRouter {
            per_component,
            dynamic,
            dests: Vec::new(),
            locals: Vec::new(),
        }
    }

    /// The dynamic-grouping handles, indexed by `SetRatio` edge.
    pub(crate) fn dynamic_handles(&self) -> &[DynamicGroupingHandle] {
        &self.dynamic
    }

    /// Destination task ids for one emission of `component` on interned
    /// stream `stream`.  The slice is valid until the next call.
    pub(crate) fn select(
        &mut self,
        component: usize,
        stream: u32,
        tuple: &Tuple,
        direct_task: Option<usize>,
    ) -> &[usize] {
        self.dests.clear();
        for route in &mut self.per_component[component] {
            if route.stream != stream {
                continue;
            }
            match (direct_task, route.is_direct) {
                (Some(local), true) if local < route.parallelism => {
                    self.dests.push(route.subscriber_base + local);
                }
                (None, false) => {
                    self.locals.clear();
                    route.grouping.select(tuple, &mut self.locals);
                    let base = route.subscriber_base;
                    self.dests.extend(self.locals.iter().map(|l| base + l));
                }
                // Direct emissions only travel direct routes and vice versa.
                _ => {}
            }
        }
        &self.dests
    }
}

/// Send side of one data link: the batching writer plus the deliveries
/// parked for want of credit.  A link that has never been up parks
/// everything (the peer is still starting and will dial in); one that died
/// refuses, so the caller fails the tuple's tree instead of holding it for
/// a process that may never return.
#[derive(Default)]
pub(crate) struct Outbox {
    writer: Option<BatchWriter>,
    down: bool,
    /// FIFO across the link's tasks: they share one executor on the far
    /// side, so head-of-line order is the order they would run in anyway.
    parked: VecDeque<WireTuple>,
}

impl Outbox {
    /// Whether a live connection backs this link.
    pub(crate) fn is_up(&self) -> bool {
        self.writer.is_some() && !self.down
    }

    /// Deliveries waiting for credit (or for the link to come up).
    pub(crate) fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Runs `op` on the writer of an up link; a failed write marks the
    /// link down (its reader observes the same failure and closes it).
    fn with_writer(&mut self, op: impl FnOnce(&mut BatchWriter) -> bool) -> bool {
        if !self.is_up() {
            return false;
        }
        self.down = !op(self.writer.as_mut().expect("an up link has a writer"));
        !self.down
    }

    /// Sends a control frame (after any pending tuples).  `false` when the
    /// link is not up.
    pub(crate) fn send(&mut self, frame: &Frame) -> bool {
        self.with_writer(|w| w.send(frame).is_ok())
    }

    /// Flushes the partial tuple batch, if any.
    pub(crate) fn flush(&mut self) {
        self.with_writer(|w| w.flush_items().is_ok());
    }

    /// Flushes the partial tuple batch once it is past the linger deadline.
    pub(crate) fn poll_linger(&mut self) {
        self.with_writer(|w| w.poll_linger().is_ok());
    }

    /// Sends `item` if its destination has credit and nothing is parked
    /// ahead of it, parks it otherwise.  `false` means the link is down
    /// and the delivery was dropped.
    pub(crate) fn enqueue(&mut self, ledger: &CreditLedger, item: WireTuple) -> bool {
        if self.down {
            return false;
        }
        if self.writer.is_none()
            || !self.parked.is_empty()
            || !ledger.try_acquire(item.dest_task as usize)
        {
            self.parked.push_back(item);
            return true;
        }
        self.with_writer(|w| w.push_tuple(item).is_ok())
    }

    /// Moves parked deliveries onto the wire as credits permit (after a
    /// grant, or once the link is up).
    pub(crate) fn drain(&mut self, ledger: &CreditLedger) {
        while self.is_up() {
            match self.parked.front() {
                Some(item) if ledger.try_acquire(item.dest_task as usize) => {}
                _ => break,
            }
            let item = self.parked.pop_front().expect("front checked");
            self.with_writer(|w| w.push_tuple(item).is_ok());
        }
    }

    /// A fresh connection backs the link: parked deliveries can move.
    pub(crate) fn open(&mut self, writer: BatchWriter, ledger: &CreditLedger) {
        self.writer = Some(writer);
        self.down = false;
        self.drain(ledger);
    }

    /// The far side is dead (or being torn down): the link refuses
    /// deliveries until the next [`open`](Self::open).  If a connection
    /// backed it, the credits out with deliveries toward `tasks` — the tasks
    /// behind this link — will never come back, so their pools are
    /// refilled, and the old writer (for its counters) and the parked
    /// deliveries (for the caller to fail) are returned.
    pub(crate) fn close(
        &mut self,
        ledger: &CreditLedger,
        tasks: impl Iterator<Item = usize>,
    ) -> Option<(BatchWriter, VecDeque<WireTuple>)> {
        self.down = true;
        let writer = self.writer.take()?;
        tasks.for_each(|t| ledger.refill(t));
        Some((writer, std::mem::take(&mut self.parked)))
    }
}
