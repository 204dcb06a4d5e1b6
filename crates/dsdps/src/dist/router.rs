//! What the coordinator and every worker share on the send side of the
//! data plane besides the crate's [`FanOut`](crate::route::FanOut): the
//! `SetRatio` edge numbering and the per-link [`Outbox`] that puts
//! deliveries on the wire under the sender's credit ledger.

use std::collections::VecDeque;
use std::time::Instant;

use super::codec::{Frame, WireTuple};
use super::transport::BatchWriter;
use crate::grouping::dynamic::DynamicGroupingHandle;
use crate::route::Delivery;
use crate::rt::CreditLedger;
use crate::topology::Topology;

/// Every dynamic-grouping handle of the topology, by producer then
/// subscription order — the index is the `edge` of a `SetRatio` frame.
/// Coordinator and workers build this from the same topology, so they agree
/// on it.
pub(crate) fn dynamic_handles(topology: &Topology) -> Vec<DynamicGroupingHandle> {
    let edges = topology.components().flat_map(|producer| {
        let subscribers = topology.subscribers_of(producer.id).into_iter();
        subscribers.map(move |(sub, _)| (producer, sub))
    });
    edges
        .filter_map(|(producer, sub)| topology.dynamic_handle(&producer.name, &sub.name))
        .collect()
}

/// The wire form of a delivery to task `dest` from a task of component
/// `producer`.
pub(crate) fn wire_tuple(producer: u32, dest: usize, delivery: Delivery) -> WireTuple {
    let (root, edge) = delivery.anchor.unzip();
    WireTuple {
        token: edge.unwrap_or(0),
        dest_task: dest as u32,
        stream: producer,
        dedup: delivery.dedup,
        trace_root: root,
        values: delivery.tuple.into_values(),
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

    /// Flushes the partial tuple batch once it is past the linger deadline;
    /// returns the deadline of a batch still lingering.
    pub(crate) fn poll_linger(&mut self) -> Option<Instant> {
        let mut lingering = None;
        self.with_writer(|w| w.poll_linger().map(|due| lingering = due).is_ok());
        lingering
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
