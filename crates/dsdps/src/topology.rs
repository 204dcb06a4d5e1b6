//! Topology construction: spouts, bolts, subscriptions.
//!
//! Mirrors Storm's `TopologyBuilder` API: declare components with a
//! parallelism hint and the schema of their one output stream, and
//! subscribe bolts to upstream components with a grouping.  An edge is a
//! `(producer, subscriber)` pair.  [`TopologyBuilder::build`] validates the
//! graph (components exist, fields-grouping fields are in the producer's
//! schema, every bolt has an input, subscribes to a producer at most once
//! and not to itself, at least one spout) and assigns global task ids.
//! A bolt can only subscribe to components declared before it, so
//! declaration order is a topological order of the graph.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::component::{Bolt, Spout};
use crate::error::{Error, Result};
use crate::grouping::dynamic::{DynamicGroupingHandle, SplitRatio};
use crate::grouping::GroupingSpec;
use crate::tuple::Fields;

/// Index of a component within its topology.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct ComponentId(pub usize);

/// Global task index (unique across all components of a topology).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct TaskId(pub usize);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Factory producing a fresh spout instance for each task.
pub type SpoutFactory = Arc<dyn Fn() -> Box<dyn Spout> + Send + Sync>;
/// Factory producing a fresh bolt instance for each task.
pub type BoltFactory = Arc<dyn Fn() -> Box<dyn Bolt> + Send + Sync>;

/// What kind of component this is, with its instance factory.
#[derive(Clone)]
pub enum ComponentKind {
    /// A stream source.
    Spout(SpoutFactory),
    /// A stream operator.
    Bolt(BoltFactory),
}

impl fmt::Debug for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentKind::Spout(_) => write!(f, "Spout"),
            ComponentKind::Bolt(_) => write!(f, "Bolt"),
        }
    }
}

/// Per-component cost parameters consumed by the simulated runtime.
///
/// The threaded runtime executes real code and ignores these.  In the
/// simulator the time to process one tuple is
/// `base_service_time_us * interference_multiplier * (1 + jitter)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Mean tuple service time in microseconds on an unloaded machine.
    pub base_service_time_us: f64,
    /// Relative (uniform) jitter applied per tuple, e.g. `0.1` = ±10 %.
    pub jitter: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            base_service_time_us: 100.0,
            jitter: 0.05,
        }
    }
}

/// A subscription of a bolt to an upstream component's output.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// The upstream component.
    pub from: ComponentId,
    /// How tuples are distributed over the subscriber's tasks.
    pub grouping: GroupingSpec,
}

/// A declared component (spout or bolt) inside a [`Topology`].
#[derive(Debug, Clone)]
pub struct Component {
    /// Component id (stable index).
    pub id: ComponentId,
    /// User-facing name.
    pub name: String,
    /// Spout or bolt, with the instance factory.
    pub kind: ComponentKind,
    /// Number of tasks.
    pub parallelism: usize,
    /// Schema of the component's output stream.
    pub fields: Fields,
    /// Inbound subscriptions (bolts only).
    pub subscriptions: Vec<Subscription>,
    /// First global task id; tasks are `base_task.0 .. base_task.0 + parallelism`.
    pub base_task: TaskId,
    /// Simulator cost model.
    pub cost: CostModel,
}

impl Component {
    /// Global task ids of this component.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (self.base_task.0..self.base_task.0 + self.parallelism).map(TaskId)
    }

    /// True if this component is a spout.
    pub fn is_spout(&self) -> bool {
        matches!(self.kind, ComponentKind::Spout(_))
    }
}

/// A validated, immutable topology ready to hand to a runtime.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    components: Vec<Component>,
    by_name: HashMap<String, ComponentId>,
    task_count: usize,
    /// Handles for every dynamic grouping in the topology, keyed by
    /// `(producer name, subscriber name)`.
    dynamic_handles: HashMap<(String, String), DynamicGroupingHandle>,
}

impl Topology {
    /// The topology's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iterates all components in declaration order.
    pub fn components(&self) -> impl Iterator<Item = &Component> {
        self.components.iter()
    }

    /// Looks up a component by id.
    pub fn component(&self, id: ComponentId) -> &Component {
        &self.components[id.0]
    }

    /// Looks up a component id by name.
    pub fn component_id(&self, name: &str) -> Option<ComponentId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a component by name.
    pub fn component_by_name(&self, name: &str) -> Option<&Component> {
        self.component_id(name).map(|id| self.component(id))
    }

    /// Total number of tasks across all components.
    pub fn task_count(&self) -> usize {
        self.task_count
    }

    /// Maps a global task id to its component.
    pub fn component_of_task(&self, task: TaskId) -> ComponentId {
        // Components are contiguous in task space; linear scan is fine for
        // the handful of components real topologies have.
        for c in &self.components {
            if task.0 >= c.base_task.0 && task.0 < c.base_task.0 + c.parallelism {
                return c.id;
            }
        }
        panic!("task {task} out of range");
    }

    /// The dynamic grouping handle for the edge `producer -> subscriber`,
    /// if that edge uses dynamic grouping.
    ///
    /// This is the actuation surface of the paper's control framework: the
    /// controller holds the handle and calls
    /// [`DynamicGroupingHandle::set_ratio`] while the topology runs.
    pub fn dynamic_handle(
        &self,
        producer: &str,
        subscriber: &str,
    ) -> Option<DynamicGroupingHandle> {
        self.dynamic_handles
            .get(&(producer.to_owned(), subscriber.to_owned()))
            .cloned()
    }

    /// All dynamic grouping handles: `((producer, subscriber), handle)`.
    pub fn dynamic_handles(
        &self,
    ) -> impl Iterator<Item = (&(String, String), &DynamicGroupingHandle)> {
        self.dynamic_handles.iter()
    }

    /// Components subscribing to `producer`, with their grouping.
    pub fn subscribers_of(&self, producer: ComponentId) -> Vec<(&Component, &GroupingSpec)> {
        self.components
            .iter()
            .flat_map(|c| {
                c.subscriptions
                    .iter()
                    .filter(|s| s.from == producer)
                    .map(move |s| (c, &s.grouping))
            })
            .collect()
    }
}

/// Builder for [`Topology`].
pub struct TopologyBuilder {
    name: String,
    components: Vec<Component>,
    by_name: HashMap<String, ComponentId>,
}

impl TopologyBuilder {
    /// Starts a new topology with the given name.
    pub fn new(name: &str) -> Self {
        TopologyBuilder {
            name: name.to_owned(),
            components: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    fn add_component(
        &mut self,
        name: &str,
        kind: ComponentKind,
        parallelism: usize,
    ) -> Result<ComponentId> {
        if parallelism == 0 {
            return Err(Error::InvalidParallelism(name.to_owned()));
        }
        if self.by_name.contains_key(name) {
            return Err(Error::DuplicateComponent(name.to_owned()));
        }
        let id = ComponentId(self.components.len());
        self.components.push(Component {
            id,
            name: name.to_owned(),
            kind,
            parallelism,
            fields: Fields::none(),
            subscriptions: Vec::new(),
            base_task: TaskId(0), // assigned in build()
            cost: CostModel::default(),
        });
        self.by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Declares a spout with `parallelism` tasks.  `factory` is invoked once
    /// per task to create independent instances.
    pub fn set_spout<S, F>(
        &mut self,
        name: &str,
        parallelism: usize,
        factory: F,
    ) -> Result<SpoutDeclarer<'_>>
    where
        S: Spout + 'static,
        F: Fn() -> S + Send + Sync + 'static,
    {
        let factory: SpoutFactory = Arc::new(move || Box::new(factory()));
        let id = self.add_component(name, ComponentKind::Spout(factory), parallelism)?;
        Ok(SpoutDeclarer { builder: self, id })
    }

    /// Declares a bolt with `parallelism` tasks.
    pub fn set_bolt<B, F>(
        &mut self,
        name: &str,
        parallelism: usize,
        factory: F,
    ) -> Result<BoltDeclarer<'_>>
    where
        B: Bolt + 'static,
        F: Fn() -> B + Send + Sync + 'static,
    {
        let factory: BoltFactory = Arc::new(move || Box::new(factory()));
        let id = self.add_component(name, ComponentKind::Bolt(factory), parallelism)?;
        Ok(BoltDeclarer { builder: self, id })
    }

    /// Validates and freezes the topology.
    pub fn build(self) -> Result<Topology> {
        let mut components = self.components;
        if !components.iter().any(|c| c.is_spout()) {
            return Err(Error::InvalidTopology("topology has no spout".into()));
        }

        // Validate subscriptions against the producers' schemas.
        for c in &components {
            if c.is_spout() {
                if !c.subscriptions.is_empty() {
                    return Err(Error::SpoutCannotSubscribe(c.name.clone()));
                }
                continue;
            }
            if c.subscriptions.is_empty() {
                return Err(Error::InvalidTopology(format!(
                    "bolt `{}` has no inbound subscription",
                    c.name
                )));
            }
            for (i, sub) in c.subscriptions.iter().enumerate() {
                // The one edge that would break declaration order as a
                // topological order.
                if sub.from == c.id {
                    return Err(Error::InvalidTopology(format!(
                        "bolt `{}` subscribes to itself",
                        c.name
                    )));
                }
                let from = &components[sub.from.0];
                // One grouping per edge: a second one would share the edge's
                // dynamic handle and be invisible to the controller.
                if c.subscriptions[..i].iter().any(|s| s.from == sub.from) {
                    return Err(Error::InvalidTopology(format!(
                        "bolt `{}` subscribes to `{}` more than once",
                        c.name, from.name
                    )));
                }
                if let GroupingSpec::Fields(fields) = &sub.grouping {
                    if let Some(f) = fields.iter().find(|f| !from.fields.contains(f)) {
                        return Err(Error::UnknownField {
                            component: from.name.clone(),
                            field: f.clone(),
                        });
                    }
                }
            }
        }

        // Assign contiguous global task ids in declaration order.
        let mut next = 0usize;
        for c in &mut components {
            c.base_task = TaskId(next);
            next += c.parallelism;
        }

        // Materialize one shared handle per dynamic-grouping edge.
        let mut dynamic_handles = HashMap::new();
        for c in &components {
            for sub in &c.subscriptions {
                if let GroupingSpec::Dynamic = sub.grouping {
                    let producer = components[sub.from.0].name.clone();
                    let handle = DynamicGroupingHandle::new(SplitRatio::uniform(c.parallelism));
                    dynamic_handles.insert((producer, c.name.clone()), handle);
                }
            }
        }

        Ok(Topology {
            name: self.name,
            by_name: self.by_name,
            task_count: next,
            components,
            dynamic_handles,
        })
    }
}

/// Fluent declarer returned by [`TopologyBuilder::set_spout`].
pub struct SpoutDeclarer<'a> {
    builder: &'a mut TopologyBuilder,
    id: ComponentId,
}

impl fmt::Debug for SpoutDeclarer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpoutDeclarer({})", self.id)
    }
}

impl SpoutDeclarer<'_> {
    /// Declares the schema of the output stream.
    pub fn output_fields(&mut self, fields: Fields) -> &mut Self {
        self.builder.components[self.id.0].fields = fields;
        self
    }

    /// Sets the simulator cost model (mean µs per `next_tuple` call).
    pub fn cost(&mut self, cost: CostModel) -> &mut Self {
        self.builder.components[self.id.0].cost = cost;
        self
    }

    /// The component id assigned to this spout.
    pub fn id(&self) -> ComponentId {
        self.id
    }
}

/// Fluent declarer returned by [`TopologyBuilder::set_bolt`].
pub struct BoltDeclarer<'a> {
    builder: &'a mut TopologyBuilder,
    id: ComponentId,
}

impl fmt::Debug for BoltDeclarer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BoltDeclarer({})", self.id)
    }
}

impl BoltDeclarer<'_> {
    /// Declares the schema of the output stream.
    pub fn output_fields(&mut self, fields: Fields) -> &mut Self {
        self.builder.components[self.id.0].fields = fields;
        self
    }

    /// Sets the simulator cost model (mean µs per tuple).
    pub fn cost(&mut self, cost: CostModel) -> &mut Self {
        self.builder.components[self.id.0].cost = cost;
        self
    }

    fn subscribe(&mut self, from: &str, grouping: GroupingSpec) -> Result<&mut Self> {
        let from_id = self
            .builder
            .by_name
            .get(from)
            .copied()
            .ok_or_else(|| Error::UnknownComponent(from.to_owned()))?;
        self.builder.components[self.id.0]
            .subscriptions
            .push(Subscription {
                from: from_id,
                grouping,
            });
        Ok(self)
    }

    /// Random uniform distribution over subscriber tasks.
    pub fn shuffle_grouping(&mut self, from: &str) -> Result<&mut Self> {
        self.subscribe(from, GroupingSpec::Shuffle)
    }

    /// Hash partitioning on the given fields of the producer's output.
    pub fn fields_grouping(&mut self, from: &str, fields: &[&str]) -> Result<&mut Self> {
        let fields = fields.iter().map(|s| s.to_string()).collect();
        self.subscribe(from, GroupingSpec::Fields(fields))
    }

    /// All tuples go to the subscriber's lowest task.
    pub fn global_grouping(&mut self, from: &str) -> Result<&mut Self> {
        self.subscribe(from, GroupingSpec::Global)
    }

    /// The paper's **dynamic grouping** with a uniform initial split ratio.
    ///
    /// After `build()`, fetch the live handle with
    /// [`Topology::dynamic_handle`] to change the ratio on the fly.
    pub fn dynamic_grouping(&mut self, from: &str) -> Result<&mut Self> {
        self.subscribe(from, GroupingSpec::Dynamic)
    }

    /// The component id assigned to this bolt.
    pub fn id(&self) -> ComponentId {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{BoltOutput, SpoutOutput};
    use crate::tuple::{Tuple, Value};

    struct NullSpout;
    impl Spout for NullSpout {
        fn next_tuple(&mut self, _out: &mut SpoutOutput) -> bool {
            false
        }
    }

    struct NullBolt;
    impl Bolt for NullBolt {
        fn execute(&mut self, _tuple: &Tuple, _out: &mut BoltOutput) {}
    }

    fn two_stage() -> TopologyBuilder {
        let mut b = TopologyBuilder::new("t");
        b.set_spout("spout", 2, || NullSpout)
            .unwrap()
            .output_fields(Fields::new(["url", "ts"]));
        b
    }

    #[test]
    fn builds_and_assigns_task_ids() {
        let mut b = two_stage();
        b.set_bolt("count", 3, || NullBolt)
            .unwrap()
            .fields_grouping("spout", &["url"])
            .unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.task_count(), 5);
        let spout = t.component_by_name("spout").unwrap();
        let count = t.component_by_name("count").unwrap();
        assert_eq!(
            spout.tasks().collect::<Vec<_>>(),
            vec![TaskId(0), TaskId(1)]
        );
        assert_eq!(
            count.tasks().collect::<Vec<_>>(),
            vec![TaskId(2), TaskId(3), TaskId(4)]
        );
        assert_eq!(t.component_of_task(TaskId(3)), count.id);
        assert_eq!(t.component_of_task(TaskId(0)), spout.id);
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = two_stage();
        let err = b.set_spout("spout", 1, || NullSpout).unwrap_err();
        assert_eq!(err, Error::DuplicateComponent("spout".into()));
    }

    #[test]
    fn rejects_zero_parallelism() {
        let mut b = TopologyBuilder::new("t");
        let err = b.set_spout("s", 0, || NullSpout).unwrap_err();
        assert_eq!(err, Error::InvalidParallelism("s".into()));
    }

    #[test]
    fn rejects_unknown_upstream() {
        let mut b = two_stage();
        let err = b
            .set_bolt("b", 1, || NullBolt)
            .unwrap()
            .shuffle_grouping("nope")
            .unwrap_err();
        assert_eq!(err, Error::UnknownComponent("nope".into()));
    }

    #[test]
    fn rejects_unknown_field() {
        let mut b = two_stage();
        b.set_bolt("b", 1, || NullBolt)
            .unwrap()
            .fields_grouping("spout", &["missing"])
            .unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, Error::UnknownField { .. }));
    }

    #[test]
    fn rejects_second_subscription_to_one_producer() {
        let mut b = two_stage();
        b.set_bolt("b", 2, || NullBolt)
            .unwrap()
            .dynamic_grouping("spout")
            .unwrap()
            .shuffle_grouping("spout")
            .unwrap();
        assert!(matches!(b.build(), Err(Error::InvalidTopology(_))));
    }

    #[test]
    fn rejects_self_subscription() {
        let mut b = two_stage();
        b.set_bolt("b", 1, || NullBolt)
            .unwrap()
            .shuffle_grouping("spout")
            .unwrap()
            .shuffle_grouping("b")
            .unwrap();
        assert!(matches!(b.build(), Err(Error::InvalidTopology(_))));
    }

    #[test]
    fn rejects_topology_without_spout() {
        let b = TopologyBuilder::new("t");
        assert!(matches!(b.build(), Err(Error::InvalidTopology(_))));
    }

    #[test]
    fn rejects_bolt_without_input() {
        let mut b = two_stage();
        b.set_bolt("orphan", 1, || NullBolt).unwrap();
        assert!(matches!(b.build(), Err(Error::InvalidTopology(_))));
    }

    #[test]
    fn dynamic_handle_exposed_after_build() {
        let mut b = two_stage();
        b.set_bolt("b", 4, || NullBolt)
            .unwrap()
            .dynamic_grouping("spout")
            .unwrap();
        let t = b.build().unwrap();
        let h = t.dynamic_handle("spout", "b").expect("handle exists");
        assert_eq!(h.ratio().len(), 4);
        assert_eq!(t.dynamic_handles().count(), 1);
        assert!(t.dynamic_handle("spout", "zzz").is_none());
    }

    #[test]
    fn subscribers_of_lists_groupings() {
        let mut b = two_stage();
        b.set_bolt("b1", 1, || NullBolt)
            .unwrap()
            .shuffle_grouping("spout")
            .unwrap();
        b.set_bolt("b2", 2, || NullBolt)
            .unwrap()
            .fields_grouping("spout", &["url"])
            .unwrap();
        let t = b.build().unwrap();
        let spout_id = t.component_id("spout").unwrap();
        let subs = t.subscribers_of(spout_id);
        assert_eq!(subs.len(), 2);
        let names: Vec<_> = subs.iter().map(|(c, _)| c.name.as_str()).collect();
        assert!(names.contains(&"b1") && names.contains(&"b2"));
    }

    #[test]
    fn spout_factories_produce_independent_instances() {
        struct CountingSpout(i64);
        impl Spout for CountingSpout {
            fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
                self.0 += 1;
                out.emit(Tuple::of([Value::from(self.0)]));
                true
            }
        }
        let mut b = TopologyBuilder::new("t");
        b.set_spout("s", 2, || CountingSpout(0)).unwrap();
        b.set_bolt("b", 1, || NullBolt)
            .unwrap()
            .shuffle_grouping("s")
            .unwrap();
        let t = b.build().unwrap();
        let c = t.component_by_name("s").unwrap();
        if let ComponentKind::Spout(factory) = &c.kind {
            let mut a = factory();
            let mut b2 = factory();
            let mut out = SpoutOutput::new();
            a.next_tuple(&mut out);
            a.next_tuple(&mut out);
            b2.next_tuple(&mut out);
            let e = out.drain();
            assert_eq!(e[1].tuple.get(0).unwrap().as_i64(), Some(2));
            assert_eq!(e[2].tuple.get(0).unwrap().as_i64(), Some(1), "fresh state");
        } else {
            panic!("expected spout");
        }
    }
}
