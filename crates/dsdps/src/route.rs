//! Destination selection and fan-out, shared by every backend.
//!
//! A [`FanOut`] answers "which tasks get this emission" for one producer
//! and turns the answer into one [`Delivery`] each — copy, rekey, fresh
//! edge id.  Built once from the [`Topology`], it holds the producer's
//! output schema and one [`Grouping`] per subscriber.  It is a plain value —
//! no thread, socket or clock inside — stepped with `&mut` by the routing
//! thread of whichever backend owns it, so groupings need no lock; where a
//! delivery goes (slab instance, channel batch, local queue, wire frame)
//! stays with the backend's sink.

use std::borrow::Borrow;

use crate::acker::{EdgeIds, RootId};
use crate::component::{Emission, MessageId};
use crate::grouping::{make_grouping, Grouping, GroupingSpec};
use crate::topology::{Component, Topology};
use crate::tuple::{Fields, Tuple};

/// One subscriber of the producer: where its tasks start and how they
/// share the producer's output.
struct Route {
    base_task: usize,
    grouping: Box<dyn Grouping>,
}

/// One tuple instance bound for one task.
pub(crate) struct Delivery {
    /// Rekeyed to its producer's output schema.
    pub(crate) tuple: Tuple,
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

/// Destination selection and fan-out for the emissions of one producer:
/// its schema, its subscribers, its own edge ids and the destinations of
/// the emission in hand.  The default one has no subscriber.
#[derive(Default)]
pub(crate) struct FanOut {
    /// Schema of the producer's output; deliveries are rekeyed to it.
    fields: Fields,
    /// In subscription order.
    routes: Vec<Route>,
    edge_ids: EdgeIds,
    dests: Vec<usize>,
}

impl FanOut {
    /// The fan-out of one producer of `component`.  `producer_offset`
    /// de-phases round-robin shuffles: backends with one fan-out per task
    /// pass the task's index within the component.  `edge_seed` must
    /// differ between any two producers of one run.
    pub(crate) fn new(
        topology: &Topology,
        component: &Component,
        producer_offset: usize,
        edge_seed: u64,
    ) -> Self {
        let fields = component.fields.clone();
        let mut routes = Vec::new();
        for (sub, spec) in topology.subscribers_of(component.id) {
            let handle = match spec {
                GroupingSpec::Dynamic => topology.dynamic_handle(&component.name, &sub.name),
                _ => None,
            };
            routes.push(Route {
                base_task: sub.base_task.0,
                grouping: make_grouping(spec, sub.parallelism, &fields, producer_offset, handle),
            });
        }
        FanOut {
            fields,
            routes,
            edge_ids: EdgeIds::new(edge_seed),
            dests: Vec::new(),
        }
    }

    /// Replaces the contents of `dests` with the global ids of the tasks
    /// `tuple` reaches, in route order: each subscriber adds what its
    /// grouping selects.
    fn select(&mut self, tuple: &Tuple) {
        self.dests.clear();
        for route in &mut self.routes {
            let first = self.dests.len();
            route.grouping.select(tuple, &mut self.dests);
            for dest in &mut self.dests[first..] {
                *dest += route.base_task;
            }
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
        self.select(&emission.borrow().tuple);
        if self.dests.is_empty() {
            return 0;
        }
        // Rekey once per emission, not once per destination; a tuple that
        // already carries the producer's schema — the common case, since
        // schemas come from the same declaration `Arc` or are both the
        // empty schema — is left alone.
        let tuple = emission.into_tuple();
        let mut tuple = Some(if tuple.fields().ptr_eq(&self.fields) {
            tuple
        } else {
            tuple.into_rekeyed(self.fields.clone())
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

    /// `src` declares `[k, v]`; each `(kind, parallelism)` adds a bolt
    /// subscribed to it.  Kinds 0‥3 are the four groupings.
    fn topology(subscribers: &[(usize, usize)]) -> Topology {
        let mut b = TopologyBuilder::new("routes");
        b.set_spout("src", 3, || NullSpout)
            .unwrap()
            .output_fields(Fields::new(["k", "v"]));
        for (i, &(kind, parallelism)) in subscribers.iter().enumerate() {
            let mut bolt = b
                .set_bolt(&format!("b{i}"), parallelism, || NullBolt)
                .unwrap();
            match kind {
                0 => bolt.shuffle_grouping("src"),
                1 => bolt.fields_grouping("src", &["k"]),
                2 => bolt.global_grouping("src"),
                _ => bolt.dynamic_grouping("src"),
            }
            .unwrap();
        }
        b.build().unwrap()
    }

    /// The naive model: one `make_grouping` per subscription, consulted
    /// subscription by subscription.
    struct Naive {
        base_task: usize,
        grouping: Box<dyn Grouping>,
    }

    fn naive(topology: &Topology, offset: usize) -> Vec<Naive> {
        let src = topology.component_by_name("src").unwrap();
        let subscribers = topology.subscribers_of(src.id).into_iter();
        subscribers
            .map(|(sub, spec)| {
                let handle = topology.dynamic_handle("src", &sub.name);
                Naive {
                    base_task: sub.base_task.0,
                    grouping: make_grouping(spec, sub.parallelism, &src.fields, offset, handle),
                }
            })
            .collect()
    }

    /// A producer declared without a schema — the builder's default or an
    /// explicit `Fields::new([])` — delivers the emitted tuple with the
    /// empty schema it was built with: nothing is rekeyed.
    #[test]
    fn schema_less_outputs_are_not_rekeyed() {
        let mut b = TopologyBuilder::new("bare");
        b.set_spout("default", 1, || NullSpout).unwrap();
        b.set_spout("bare", 1, || NullSpout)
            .unwrap()
            .output_fields(Fields::new(Vec::<String>::new()));
        for i in 0..2 {
            b.set_bolt(&format!("b{i}"), 2, || NullBolt)
                .unwrap()
                .shuffle_grouping("default")
                .unwrap()
                .shuffle_grouping("bare")
                .unwrap();
        }
        let topology = b.build().unwrap();
        for producer in ["default", "bare"] {
            let src = topology.component_by_name(producer).unwrap();
            let mut fan_out = FanOut::new(&topology, src, 0, 1);
            let emission = Emission {
                tuple: Tuple::of([Value::from(1i64)]),
                message_id: None,
                anchored: false,
            };
            let mut delivered = 0;
            fan_out.route(emission, None, None, |_, delivery| {
                assert!(delivery.tuple.fields().ptr_eq(&Fields::none()));
                delivered += 1;
            });
            assert_eq!(delivered, 2, "producer {producer}");
        }
    }

    proptest! {
        /// `route` reaches exactly the tasks the per-subscription model
        /// reaches, in the same order, with the producer's schema.
        #[test]
        fn select_equals_per_subscription_model(
            subscribers in prop::collection::vec((0usize..4, 1usize..5), 1..7),
            keys in prop::collection::vec(0i64..12, 1..80),
            offset in 0usize..3,
        ) {
            let topology = topology(&subscribers);
            let src = topology.component_by_name("src").unwrap();
            let mut fan_out = FanOut::new(&topology, src, offset, 1);
            let mut model = naive(&topology, offset);
            for key in keys {
                let tuple = Tuple::of([Value::from(key), Value::from(1i64)]);
                let mut expected = Vec::new();
                for route in &mut model {
                    let mut locals = Vec::new();
                    route.grouping.select(&tuple, &mut locals);
                    expected.extend(locals.iter().map(|l| route.base_task + l));
                }
                let emission = Emission {
                    tuple,
                    message_id: None,
                    anchored: false,
                };
                let mut dests = Vec::new();
                let mut rekeyed = true;
                fan_out.route(emission, None, None, |dest, delivery| {
                    rekeyed &= delivery.tuple.fields().ptr_eq(&src.fields);
                    dests.push(dest);
                });
                prop_assert!(rekeyed);
                prop_assert_eq!(&dests, &expected);
                prop_assert!(dests.iter().all(|&d| d >= 3 && d < topology.task_count()));
            }
        }
    }
}
