//! Stream groupings: how a producer's tuples are distributed over the tasks
//! of a subscribing component.
//!
//! The Storm groupings the paper's applications route with (shuffle, fields,
//! global) are implemented here; the paper's contribution, **dynamic
//! grouping**, the one its controller steers, lives in [`dynamic`].
//!
//! A [`GroupingSpec`] is the declarative form stored in the topology; the
//! runtime instantiates a [`Grouping`] router per producer-task × edge via
//! [`make_grouping`].

pub mod dynamic;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::tuple::{Fields, Tuple};
use dynamic::{DynamicGrouping, DynamicGroupingHandle};

/// Declarative grouping choice attached to a subscription.
#[derive(Debug, Clone)]
pub enum GroupingSpec {
    /// Balanced distribution over subscriber tasks (round-robin).
    Shuffle,
    /// Hash partitioning on the listed fields: equal keys always reach the
    /// same task.
    Fields(Vec<String>),
    /// All tuples to the subscriber's first task.
    Global,
    /// The paper's dynamic grouping: split by a live-updatable ratio vector,
    /// uniform until the edge's [`DynamicGroupingHandle`] sets another.
    Dynamic,
}

/// A runtime router deciding which subscriber task(s) receive each tuple.
///
/// Implementations push **subscriber-local task indices** (`0..n_tasks`)
/// into `out`; the runtime maps them to global task ids.  `out` is reused
/// across calls to avoid per-tuple allocation.
pub trait Grouping: Send {
    /// Chooses target task indices for `tuple`.
    fn select(&mut self, tuple: &Tuple, out: &mut Vec<usize>);

    /// Number of subscriber tasks this grouping routes over.
    fn fan_out(&self) -> usize;
}

/// Round-robin shuffle grouping.
///
/// Storm's shuffle grouping randomizes; round-robin achieves the same
/// balance deterministically, which matters for reproducible experiments.
/// Distinct producer tasks start at different offsets so the aggregate is
/// not phase-locked.
#[derive(Debug)]
pub struct ShuffleGrouping {
    n_tasks: usize,
    next: usize,
}

impl ShuffleGrouping {
    /// Creates a shuffle router over `n_tasks` tasks, starting at `offset`.
    pub fn new(n_tasks: usize, offset: usize) -> Self {
        assert!(n_tasks > 0);
        ShuffleGrouping {
            n_tasks,
            next: offset % n_tasks,
        }
    }
}

impl Grouping for ShuffleGrouping {
    fn select(&mut self, _tuple: &Tuple, out: &mut Vec<usize>) {
        out.push(self.next);
        self.next = (self.next + 1) % self.n_tasks;
    }

    fn fan_out(&self) -> usize {
        self.n_tasks
    }
}

/// Hash partitioning on a subset of fields.
#[derive(Debug)]
pub struct FieldsGrouping {
    n_tasks: usize,
    /// Indices of the grouping fields within the stream schema.
    field_indices: Vec<usize>,
}

impl FieldsGrouping {
    /// Resolves `fields` against the stream `schema`.
    ///
    /// Returns `None` if any field is missing (the topology builder already
    /// validates this; the check here guards direct construction).
    pub fn new(n_tasks: usize, fields: &[String], schema: &Fields) -> Option<Self> {
        assert!(n_tasks > 0);
        let field_indices = fields
            .iter()
            .map(|f| schema.index_of(f))
            .collect::<Option<Vec<_>>>()?;
        Some(FieldsGrouping {
            n_tasks,
            field_indices,
        })
    }

    /// Hash of the grouping-key values of `tuple`.
    pub fn key_hash(&self, tuple: &Tuple) -> u64 {
        let mut h = DefaultHasher::new();
        for &i in &self.field_indices {
            tuple.values()[i].hash(&mut h);
        }
        h.finish()
    }
}

impl Grouping for FieldsGrouping {
    fn select(&mut self, tuple: &Tuple, out: &mut Vec<usize>) {
        out.push((self.key_hash(tuple) % self.n_tasks as u64) as usize);
    }

    fn fan_out(&self) -> usize {
        self.n_tasks
    }
}

/// Everything to task 0.
#[derive(Debug)]
pub struct GlobalGrouping {
    n_tasks: usize,
}

impl Grouping for GlobalGrouping {
    fn select(&mut self, _tuple: &Tuple, out: &mut Vec<usize>) {
        out.push(0);
    }

    fn fan_out(&self) -> usize {
        self.n_tasks
    }
}

/// Instantiates the runtime router for a grouping spec.
///
/// * `n_tasks` — subscriber task count.
/// * `schema` — the producer stream's schema (for fields grouping).
/// * `producer_offset` — producer task index, used to de-phase round-robin
///   shuffles across producer tasks.
/// * `handle` — the shared dynamic-grouping handle for this edge, required
///   iff the spec is [`GroupingSpec::Dynamic`].
pub fn make_grouping(
    spec: &GroupingSpec,
    n_tasks: usize,
    schema: &Fields,
    producer_offset: usize,
    handle: Option<DynamicGroupingHandle>,
) -> Box<dyn Grouping> {
    match spec {
        GroupingSpec::Shuffle => Box::new(ShuffleGrouping::new(n_tasks, producer_offset)),
        GroupingSpec::Fields(fields) => Box::new(
            FieldsGrouping::new(n_tasks, fields, schema)
                .expect("fields validated at topology build time"),
        ),
        GroupingSpec::Global => Box::new(GlobalGrouping { n_tasks }),
        GroupingSpec::Dynamic => {
            let handle = handle.expect("dynamic grouping requires the edge's shared handle");
            assert_eq!(handle.ratio().len(), n_tasks, "ratio arity mismatch");
            Box::new(DynamicGrouping::new(handle))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Value;

    fn tup(key: &str) -> Tuple {
        Tuple::with_fields(
            [Value::from(key), Value::from(1i64)],
            Fields::new(["url", "count"]),
        )
    }

    fn run(g: &mut dyn Grouping, tuples: &[Tuple]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        tuples
            .iter()
            .map(|t| {
                out.clear();
                g.select(t, &mut out);
                out.clone()
            })
            .collect()
    }

    #[test]
    fn shuffle_is_balanced_round_robin() {
        let mut g = ShuffleGrouping::new(4, 0);
        let tuples: Vec<_> = (0..40).map(|i| tup(&format!("k{i}"))).collect();
        let picks = run(&mut g, &tuples);
        let mut counts = [0usize; 4];
        for p in &picks {
            assert_eq!(p.len(), 1);
            counts[p[0]] += 1;
        }
        assert_eq!(counts, [10, 10, 10, 10]);
    }

    #[test]
    fn shuffle_offset_dephases_producers() {
        let mut a = ShuffleGrouping::new(3, 0);
        let mut b = ShuffleGrouping::new(3, 1);
        let t = tup("x");
        let mut out = Vec::new();
        a.select(&t, &mut out);
        let first_a = out[0];
        out.clear();
        b.select(&t, &mut out);
        assert_ne!(first_a, out[0]);
    }

    #[test]
    fn fields_grouping_is_consistent_per_key() {
        let schema = Fields::new(["url", "count"]);
        let mut g = FieldsGrouping::new(5, &["url".into()], &schema).unwrap();
        for key in ["a", "b", "c", "longer-url"] {
            let picks = run(&mut g, &[tup(key), tup(key), tup(key)]);
            assert_eq!(picks[0], picks[1]);
            assert_eq!(picks[1], picks[2]);
        }
    }

    #[test]
    fn fields_grouping_spreads_keys() {
        let schema = Fields::new(["url", "count"]);
        let mut g = FieldsGrouping::new(8, &["url".into()], &schema).unwrap();
        let tuples: Vec<_> = (0..256).map(|i| tup(&format!("url-{i}"))).collect();
        let picks = run(&mut g, &tuples);
        let mut seen = std::collections::HashSet::new();
        for p in picks {
            seen.insert(p[0]);
        }
        assert!(
            seen.len() >= 6,
            "256 keys should hit most of 8 tasks, hit {}",
            seen.len()
        );
    }

    #[test]
    fn fields_grouping_missing_field_is_none() {
        let schema = Fields::new(["url"]);
        assert!(FieldsGrouping::new(2, &["nope".into()], &schema).is_none());
    }

    #[test]
    fn global_always_task_zero() {
        let mut g = GlobalGrouping { n_tasks: 7 };
        for p in run(&mut g, &[tup("a"), tup("b")]) {
            assert_eq!(p, vec![0]);
        }
    }

    #[test]
    fn factory_builds_each_kind() {
        let schema = Fields::new(["url"]);
        let specs = [
            GroupingSpec::Shuffle,
            GroupingSpec::Fields(vec!["url".into()]),
            GroupingSpec::Global,
        ];
        for spec in &specs {
            let g = make_grouping(spec, 3, &schema, 0, None);
            assert_eq!(g.fan_out(), 3);
        }
        let h = DynamicGroupingHandle::new(dynamic::SplitRatio::uniform(3));
        let g = make_grouping(&GroupingSpec::Dynamic, 3, &schema, 0, Some(h));
        assert_eq!(g.fan_out(), 3);
    }
}
