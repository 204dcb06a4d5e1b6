//! Destination selection and fan-out, shared by every backend.
//!
//! A [`RouteTable`] answers "which tasks get this emission" for one
//! producer: built once from the [`Topology`], it holds one [`Grouping`] per
//! subscription to each declared output stream.  It is a plain value — no
//! thread, socket or clock inside — stepped with `&mut` by the routing
//! thread of whichever backend owns it, so groupings need no lock.  A
//! [`FanOut`] turns the selected tasks into one [`Delivery`] each — copy,
//! rekey, fresh edge id — for `rt` and `dist`; where a delivery goes
//! (channel batch, local queue, wire frame) stays with the backend's sink.

use std::borrow::Borrow;

use crate::acker::{EdgeIds, RootId};
use crate::component::{Emission, MessageId};
use crate::grouping::dynamic::DynamicGroupingHandle;
use crate::grouping::{make_grouping, Grouping, GroupingSpec};
use crate::stream::StreamId;
use crate::topology::{Component, Topology};
use crate::tuple::{Fields, Tuple};

/// One subscription of a downstream component to one of the producer's
/// declared streams.  `select` hands back a route the emission matched: the
/// backend rekeys delivered tuples to `fields`, and `dist` derives the
/// interned wire id of the stream from `decl` without a second lookup.
pub(crate) struct Route {
    stream: StreamId,
    /// Index of the stream among the producer's declared outputs.
    pub(crate) decl: usize,
    /// Schema of the stream.
    pub(crate) fields: Fields,
    base_task: usize,
    grouping: Box<dyn Grouping>,
}

/// Destination selection for the emissions of one producer (the default
/// one has no subscriber).
#[derive(Default)]
pub(crate) struct RouteTable {
    /// In declaration order, then subscription order.
    routes: Vec<Route>,
    /// Handles of the dynamic-grouping subscriptions, in route order.
    dynamic: Vec<DynamicGroupingHandle>,
}

impl RouteTable {
    /// Builds the table for `component`.  `producer_offset` de-phases
    /// round-robin shuffles: backends with one table per task pass the
    /// task's index within the component.
    pub(crate) fn new(topology: &Topology, component: &Component, producer_offset: usize) -> Self {
        let mut routes = Vec::new();
        let mut dynamic = Vec::new();
        for (index, decl) in component.outputs.iter().enumerate() {
            for (sub, spec) in topology.subscribers_of(component.id, &decl.id) {
                let handle = match spec {
                    GroupingSpec::Dynamic(_) => {
                        topology.dynamic_handle(&component.name, &decl.id, &sub.name)
                    }
                    _ => None,
                };
                dynamic.extend(handle.clone());
                routes.push(Route {
                    stream: decl.id.clone(),
                    decl: index,
                    fields: decl.fields.clone(),
                    base_task: sub.base_task.0,
                    grouping: make_grouping(
                        spec,
                        sub.parallelism,
                        &decl.fields,
                        producer_offset,
                        handle,
                    ),
                });
            }
        }
        RouteTable { routes, dynamic }
    }

    /// The dynamic-grouping handles of this producer, in route order.
    pub(crate) fn dynamic_handles(&self) -> &[DynamicGroupingHandle] {
        &self.dynamic
    }

    /// Replaces the contents of `dests` with the global ids of the tasks
    /// `emission` reaches, in route order: each subscription to its stream
    /// adds what its grouping selects.  `None` when nothing is reached:
    /// undeclared stream or no subscription to it.
    pub(crate) fn select(&mut self, emission: &Emission, dests: &mut Vec<usize>) -> Option<&Route> {
        dests.clear();
        let mut matched = None;
        for (r, route) in self.routes.iter_mut().enumerate() {
            if route.stream != emission.stream {
                continue;
            }
            matched = Some(r);
            let first = dests.len();
            route.grouping.select(&emission.tuple, dests);
            for dest in &mut dests[first..] {
                *dest += route.base_task;
            }
        }
        matched
            .filter(|_| !dests.is_empty())
            .map(|r| &self.routes[r])
    }
}

/// One tuple instance bound for one task.
pub(crate) struct Delivery {
    /// Rekeyed to the schema of the stream it travels on.
    pub(crate) tuple: Tuple,
    /// Index of that stream among its producer's declared outputs.
    pub(crate) decl: usize,
    /// The tree it extends and its own edge id in it (`None`: unanchored).
    pub(crate) anchor: Option<(RootId, u64)>,
    /// Replay-dedup id a stateful consumer dedups on: the spout message id
    /// on the first hop, derived hop by hop after it.  Only set when the
    /// recovery policy dedups.
    pub(crate) dedup: Option<MessageId>,
}

/// An emission on its way through [`FanOut::route`]: owned, its tuple goes
/// to the last delivery; borrowed (a spout's, kept for replay), each
/// delivery gets a copy.
pub(crate) trait Routed: Borrow<Emission> {
    fn into_tuple(self) -> Tuple;
}

impl Routed for Emission {
    fn into_tuple(self) -> Tuple {
        self.tuple
    }
}

impl Routed for &Emission {
    fn into_tuple(self) -> Tuple {
        self.tuple.clone()
    }
}

/// One producer's route table plus what fanning an emission out needs
/// besides: fresh edge ids and the destinations of the emission in hand.
/// The default one has no subscriber.
#[derive(Default)]
pub(crate) struct FanOut {
    table: RouteTable,
    edge_ids: EdgeIds,
    dests: Vec<usize>,
}

impl FanOut {
    /// The fan-out of one producer of `component` (`producer_offset` as in
    /// [`RouteTable::new`]).  `edge_seed` must differ between any two
    /// producers of one run.
    pub(crate) fn new(
        topology: &Topology,
        component: &Component,
        producer_offset: usize,
        edge_seed: u64,
    ) -> Self {
        FanOut {
            table: RouteTable::new(topology, component, producer_offset),
            edge_ids: EdgeIds::new(edge_seed),
            dests: Vec::new(),
        }
    }

    /// Hands `sink` one delivery per task `emission` reaches — extending
    /// `root`'s tree under a fresh edge id each when there is one — and
    /// returns the XOR of the edge ids drawn (0 when nothing was reached or
    /// anchored).
    pub(crate) fn route(
        &mut self,
        emission: impl Routed,
        root: Option<RootId>,
        dedup: Option<MessageId>,
        mut sink: impl FnMut(usize, Delivery),
    ) -> u64 {
        let Some(route) = self.table.select(emission.borrow(), &mut self.dests) else {
            return 0;
        };
        // Rekey once per emission, not once per destination; a tuple that
        // already carries the stream's schema — the common case, since
        // schemas come from the same declaration `Arc` — is left alone.
        let tuple = emission.into_tuple();
        let mut tuple = Some(if tuple.fields().ptr_eq(&route.fields) {
            tuple
        } else {
            tuple.into_rekeyed(route.fields.clone())
        });
        let mut xor = 0;
        for (i, &dest) in self.dests.iter().enumerate() {
            let copy = if i + 1 == self.dests.len() {
                tuple.take()
            } else {
                tuple.clone()
            };
            let anchor = root.map(|root| (root, self.edge_ids.next()));
            xor ^= anchor.map_or(0, |(_, edge)| edge);
            let delivery = Delivery {
                tuple: copy.expect("taken at the last destination only"),
                decl: route.decl,
                anchor,
                dedup,
            };
            sink(dest, delivery);
        }
        xor
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::component::{Bolt, BoltOutput, Spout, SpoutOutput};
    use crate::topology::TopologyBuilder;
    use crate::tuple::{Tuple, Value};

    struct NullSpout;
    impl Spout for NullSpout {
        fn next_tuple(&mut self, _out: &mut SpoutOutput) -> bool {
            false
        }
    }

    struct NullBolt;
    impl Bolt for NullBolt {
        fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
    }

    const STREAMS: [&str; 3] = ["default", "s1", "s2"];

    /// `src` declares [`STREAMS`]; each `(kind, stream, parallelism)` adds a
    /// bolt subscribed to one of them.  Kinds 0‥3 are the four groupings;
    /// global, which the builder only offers on the default stream,
    /// subscribes there.
    fn topology(subscribers: &[(usize, usize, usize)]) -> Topology {
        let schema = || Fields::new(["k", "v"]);
        let mut b = TopologyBuilder::new("routes");
        b.set_spout("src", 3, || NullSpout)
            .unwrap()
            .output_fields(schema())
            .output_stream("s1", schema())
            .output_stream("s2", schema());
        for (i, &(kind, stream, parallelism)) in subscribers.iter().enumerate() {
            let stream = STREAMS[stream];
            let mut bolt = b
                .set_bolt(&format!("b{i}"), parallelism, || NullBolt)
                .unwrap();
            match kind {
                0 => bolt.shuffle_grouping_stream("src", stream),
                1 => bolt.fields_grouping_stream("src", stream, &["k"]),
                2 => bolt.global_grouping("src"),
                _ => bolt.dynamic_grouping_stream("src", stream),
            }
            .unwrap();
        }
        b.build().unwrap()
    }

    /// The naive model: one `make_grouping` per subscription, consulted
    /// subscription by subscription.
    struct Naive {
        stream: StreamId,
        base_task: usize,
        grouping: Box<dyn Grouping>,
    }

    fn naive(topology: &Topology, offset: usize) -> Vec<Naive> {
        let src = topology.component_by_name("src").unwrap();
        let mut model = Vec::new();
        for decl in &src.outputs {
            for (sub, spec) in topology.subscribers_of(src.id, &decl.id) {
                let handle = topology.dynamic_handle("src", &decl.id, &sub.name);
                model.push(Naive {
                    stream: decl.id.clone(),
                    base_task: sub.base_task.0,
                    grouping: make_grouping(spec, sub.parallelism, &decl.fields, offset, handle),
                });
            }
        }
        model
    }

    proptest! {
        /// `select` reaches exactly the tasks the per-subscription model
        /// reaches, in the same order, and names the matched declaration.
        #[test]
        fn select_equals_per_subscription_model(
            subscribers in prop::collection::vec((0usize..4, 0usize..3, 1usize..5), 1..7),
            emissions in prop::collection::vec((0usize..4, 0i64..12), 1..80),
            offset in 0usize..3,
        ) {
            let topology = topology(&subscribers);
            let src = topology.component_by_name("src").unwrap();
            let mut table = RouteTable::new(&topology, src, offset);
            let mut model = naive(&topology, offset);
            let mut dests = vec![usize::MAX];
            for (stream, key) in emissions {
                // Stream 3 is undeclared.
                let stream = StreamId::new(STREAMS.get(stream).copied().unwrap_or("nope"));
                let tuple = Tuple::of([Value::from(key), Value::from(1i64)]);
                let emission = Emission {
                    stream,
                    tuple: tuple.clone(),
                    message_id: None,
                    anchored: true,
                };
                let mut expected = Vec::new();
                for route in model.iter_mut().filter(|r| r.stream == emission.stream) {
                    let mut locals = Vec::new();
                    route.grouping.select(&tuple, &mut locals);
                    expected.extend(locals.iter().map(|l| route.base_task + l));
                }
                let selected = table.select(&emission, &mut dests);
                prop_assert_eq!(selected.is_some(), !expected.is_empty());
                if let Some(selected) = selected {
                    let decl = &src.outputs[selected.decl];
                    prop_assert_eq!(&decl.id, &emission.stream);
                    prop_assert!(selected.fields.ptr_eq(&decl.fields));
                }
                prop_assert_eq!(&dests, &expected);
                prop_assert!(dests.iter().all(|&d| d >= 3 && d < topology.task_count()));
            }
        }
    }
}
