//! Windowing support: tumbling and sliding event-time windows as a reusable
//! assigner, plus a [`WindowedBolt`] adapter that turns a per-window
//! aggregation into an ordinary [`Bolt`].
//!
//! Storm ships `BaseWindowedBolt` for the same purpose; here windows are
//! driven by the runtime clock delivered through
//! [`BoltOutput::now_s`](crate::component::BoltOutput::now_s), so the same
//! window logic runs under virtual time in the simulator and wall time on
//! the threaded runtime.

use std::collections::{BTreeMap, BTreeSet};

use crate::checkpoint::{SnapshotKind, StateSnapshot, StatefulComponent};
use crate::component::{Bolt, BoltOutput, TopologyContext};
use crate::tuple::Tuple;

/// A window assigner: maps a timestamp to the window(s) it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowAssigner {
    /// Non-overlapping windows of `size_s` seconds.
    Tumbling {
        /// Window length in seconds.
        size_s: f64,
    },
    /// Overlapping windows of `size_s` seconds, starting every `slide_s`.
    /// `slide_s` must not exceed `size_s`.
    Sliding {
        /// Window length in seconds.
        size_s: f64,
        /// Window start spacing in seconds.
        slide_s: f64,
    },
}

/// A window instance, identified by its start index (start time =
/// `index × slide`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowId(pub i64);

impl WindowAssigner {
    /// Validates parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            WindowAssigner::Tumbling { size_s } => {
                if *size_s <= 0.0 {
                    return Err("window size must be positive".into());
                }
            }
            WindowAssigner::Sliding { size_s, slide_s } => {
                if *size_s <= 0.0 || *slide_s <= 0.0 {
                    return Err("window size and slide must be positive".into());
                }
                if slide_s > size_s {
                    return Err("slide must not exceed window size".into());
                }
            }
        }
        Ok(())
    }

    /// The slide (window start spacing) in seconds.
    pub fn slide_s(&self) -> f64 {
        match self {
            WindowAssigner::Tumbling { size_s } => *size_s,
            WindowAssigner::Sliding { slide_s, .. } => *slide_s,
        }
    }

    /// The window size in seconds.
    pub fn size_s(&self) -> f64 {
        match self {
            WindowAssigner::Tumbling { size_s } => *size_s,
            WindowAssigner::Sliding { size_s, .. } => *size_s,
        }
    }

    /// Windows containing timestamp `t` (ascending by id).
    pub fn assign(&self, t: f64) -> Vec<WindowId> {
        let size = self.size_s();
        let slide = self.slide_s();
        // A window with start index k covers [k*slide, k*slide + size).
        let last = (t / slide).floor() as i64;
        let first = ((t - size) / slide).floor() as i64 + 1;
        (first..=last).map(WindowId).collect()
    }

    /// Start time of a window.
    pub fn window_start(&self, id: WindowId) -> f64 {
        id.0 as f64 * self.slide_s()
    }

    /// End time (exclusive) of a window.
    pub fn window_end(&self, id: WindowId) -> f64 {
        self.window_start(id) + self.size_s()
    }
}

/// Per-window aggregation logic for [`WindowedBolt`].
///
/// The accumulator must be cloneable and serializable so [`WindowedBolt`]
/// can checkpoint open windows (see [`crate::checkpoint`]).
pub trait WindowAggregate: Send {
    /// Accumulator type kept per open window.
    type Acc: Default + Send + Clone + serde::Serialize + serde::Deserialize;

    /// Folds one tuple into the accumulator.
    fn add(&mut self, acc: &mut Self::Acc, tuple: &Tuple);

    /// Called when a window closes; emit the window's results.
    fn emit(&mut self, window_start_s: f64, acc: Self::Acc, out: &mut BoltOutput);
}

/// Adapter running a [`WindowAggregate`] as a [`Bolt`]: assigns each input
/// tuple to its window(s) by arrival time, closes windows when the clock
/// passes their end (on tuple arrival or tick), and emits via the
/// aggregate's `emit`.
///
/// Windows close with an `allowed_lateness_s` grace period to absorb
/// in-flight tuples.
pub struct WindowedBolt<A: WindowAggregate> {
    assigner: WindowAssigner,
    aggregate: A,
    allowed_lateness_s: f64,
    open: BTreeMap<WindowId, A::Acc>,
    /// Windows closed per lifetime (observability).
    closed: u64,
    /// Tuples that arrived after their window closed.
    late_dropped: u64,
    /// Windows mutated since the last snapshot/delta (incremental
    /// checkpointing).
    dirty: BTreeSet<WindowId>,
    /// Windows closed since the last snapshot/delta.
    removed: BTreeSet<WindowId>,
    /// `closed` as of the last snapshot/delta.
    closed_at_snap: u64,
    /// `late_dropped` as of the last snapshot/delta.
    late_at_snap: u64,
}

impl<A: WindowAggregate> WindowedBolt<A> {
    /// Creates the adapter.  Panics on invalid assigner parameters.
    pub fn new(assigner: WindowAssigner, aggregate: A, allowed_lateness_s: f64) -> Self {
        assigner.validate().expect("valid window parameters");
        assert!(allowed_lateness_s >= 0.0);
        WindowedBolt {
            assigner,
            aggregate,
            allowed_lateness_s,
            open: BTreeMap::new(),
            closed: 0,
            late_dropped: 0,
            dirty: BTreeSet::new(),
            removed: BTreeSet::new(),
            closed_at_snap: 0,
            late_at_snap: 0,
        }
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.closed
    }

    /// Tuples dropped for arriving after their window closed.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Currently open windows.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    fn close_expired(&mut self, now: f64, out: &mut BoltOutput) {
        while let Some((&id, _)) = self.open.iter().next() {
            if self.assigner.window_end(id) + self.allowed_lateness_s > now {
                break;
            }
            let acc = self.open.remove(&id).expect("window exists");
            self.dirty.remove(&id);
            self.removed.insert(id);
            self.aggregate
                .emit(self.assigner.window_start(id), acc, out);
            self.closed += 1;
        }
    }
}

/// Full image: open windows (ascending by id), `closed`, `late_dropped`.
type WindowFullState<Acc> = (Vec<(i64, Acc)>, u64, u64);
/// Delta since the previous image: upserted windows, removed window ids,
/// `closed` increment, `late_dropped` increment.
type WindowDeltaState<Acc> = (Vec<(i64, Acc)>, Vec<i64>, u64, u64);

impl<A: WindowAggregate> StatefulComponent for WindowedBolt<A> {
    fn snapshot(&mut self) -> StateSnapshot {
        let open: Vec<(i64, A::Acc)> = self
            .open
            .iter()
            .map(|(id, acc)| (id.0, acc.clone()))
            .collect();
        let state: WindowFullState<A::Acc> = (open, self.closed, self.late_dropped);
        self.dirty.clear();
        self.removed.clear();
        self.closed_at_snap = self.closed;
        self.late_at_snap = self.late_dropped;
        StateSnapshot::encode(SnapshotKind::Full, &state)
    }

    fn delta(&mut self) -> Option<StateSnapshot> {
        let upserts: Vec<(i64, A::Acc)> = self
            .dirty
            .iter()
            .filter_map(|id| self.open.get(id).map(|acc| (id.0, acc.clone())))
            .collect();
        let removed: Vec<i64> = self.removed.iter().map(|id| id.0).collect();
        let state: WindowDeltaState<A::Acc> = (
            upserts,
            removed,
            self.closed - self.closed_at_snap,
            self.late_dropped - self.late_at_snap,
        );
        self.dirty.clear();
        self.removed.clear();
        self.closed_at_snap = self.closed;
        self.late_at_snap = self.late_dropped;
        Some(StateSnapshot::encode(SnapshotKind::Delta, &state))
    }

    fn restore(&mut self, base: &StateSnapshot, deltas: &[StateSnapshot]) -> Result<(), String> {
        let (open, closed, late): WindowFullState<A::Acc> = base.decode()?;
        self.open = open
            .into_iter()
            .map(|(id, acc)| (WindowId(id), acc))
            .collect();
        self.closed = closed;
        self.late_dropped = late;
        for d in deltas {
            let (upserts, removed, closed_inc, late_inc): WindowDeltaState<A::Acc> = d.decode()?;
            for (id, acc) in upserts {
                self.open.insert(WindowId(id), acc);
            }
            for id in removed {
                self.open.remove(&WindowId(id));
            }
            self.closed += closed_inc;
            self.late_dropped += late_inc;
        }
        self.dirty.clear();
        self.removed.clear();
        self.closed_at_snap = self.closed;
        self.late_at_snap = self.late_dropped;
        Ok(())
    }
}

impl<A: WindowAggregate + 'static> Bolt for WindowedBolt<A> {
    fn prepare(&mut self, _ctx: &TopologyContext) {}

    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        let now = out.now_s();
        self.close_expired(now, out);
        let mut assigned = false;
        for id in self.assigner.assign(now) {
            // A window that already closed cannot accept this tuple.
            if self.assigner.window_end(id) + self.allowed_lateness_s <= now {
                continue;
            }
            let acc = self.open.entry(id).or_default();
            self.aggregate.add(acc, tuple);
            // A window can be touched after closing (non-monotone clock):
            // keep the dirty/removed sets disjoint so delta application is
            // order-independent.
            self.dirty.insert(id);
            self.removed.remove(&id);
            assigned = true;
        }
        if !assigned {
            self.late_dropped += 1;
        }
    }

    fn tick(&mut self, out: &mut BoltOutput) {
        let now = out.now_s();
        self.close_expired(now, out);
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Value;

    #[test]
    fn tumbling_assignment_is_partition() {
        let a = WindowAssigner::Tumbling { size_s: 5.0 };
        assert_eq!(a.assign(0.0), vec![WindowId(0)]);
        assert_eq!(a.assign(4.999), vec![WindowId(0)]);
        assert_eq!(a.assign(5.0), vec![WindowId(1)]);
        assert_eq!(a.assign(12.3), vec![WindowId(2)]);
        assert_eq!(a.window_start(WindowId(2)), 10.0);
        assert_eq!(a.window_end(WindowId(2)), 15.0);
    }

    #[test]
    fn sliding_assignment_overlaps() {
        // size 10, slide 5: each instant belongs to exactly 2 windows.
        let a = WindowAssigner::Sliding {
            size_s: 10.0,
            slide_s: 5.0,
        };
        assert_eq!(a.assign(7.0), vec![WindowId(0), WindowId(1)]);
        assert_eq!(a.assign(12.0), vec![WindowId(1), WindowId(2)]);
        // Window 1 covers [5, 15).
        assert_eq!(a.window_start(WindowId(1)), 5.0);
        assert_eq!(a.window_end(WindowId(1)), 15.0);
    }

    #[test]
    fn sliding_cover_count_is_size_over_slide() {
        let a = WindowAssigner::Sliding {
            size_s: 9.0,
            slide_s: 3.0,
        };
        for t in [0.5, 3.7, 10.1, 100.9] {
            assert_eq!(a.assign(t).len(), 3, "t={t}");
        }
    }

    #[test]
    fn validation_rejects_bad_params() {
        assert!(WindowAssigner::Tumbling { size_s: 0.0 }.validate().is_err());
        assert!(WindowAssigner::Sliding {
            size_s: 5.0,
            slide_s: 6.0
        }
        .validate()
        .is_err());
        assert!(WindowAssigner::Sliding {
            size_s: 5.0,
            slide_s: -1.0
        }
        .validate()
        .is_err());
        assert!(WindowAssigner::Tumbling { size_s: 1.0 }.validate().is_ok());
    }

    /// Sums the integer in field 0 per window; emits (start, sum).
    struct SumAgg;

    impl WindowAggregate for SumAgg {
        type Acc = i64;

        fn add(&mut self, acc: &mut i64, tuple: &Tuple) {
            *acc += tuple.get(0).and_then(Value::as_i64).unwrap_or(0);
        }

        fn emit(&mut self, window_start_s: f64, acc: i64, out: &mut BoltOutput) {
            out.emit_unanchored(Tuple::of([Value::from(window_start_s), Value::from(acc)]));
        }
    }

    fn feed(bolt: &mut WindowedBolt<SumAgg>, t: f64, v: i64, out: &mut BoltOutput) {
        out.set_now(t);
        bolt.execute(&Tuple::of([Value::from(v)]), out);
    }

    #[test]
    fn tumbling_windowed_bolt_sums_per_window() {
        let mut bolt = WindowedBolt::new(WindowAssigner::Tumbling { size_s: 2.0 }, SumAgg, 0.0);
        let mut out = BoltOutput::new();
        feed(&mut bolt, 0.5, 1, &mut out);
        feed(&mut bolt, 1.5, 2, &mut out);
        feed(&mut bolt, 2.5, 10, &mut out); // closes window 0
        let (emissions, _) = out.drain();
        assert_eq!(emissions.len(), 1);
        assert_eq!(emissions[0].tuple.get(0).unwrap().as_f64(), Some(0.0));
        assert_eq!(emissions[0].tuple.get(1).unwrap().as_i64(), Some(3));
        assert_eq!(bolt.windows_closed(), 1);
        assert_eq!(bolt.open_windows(), 1);
    }

    #[test]
    fn tick_closes_windows_without_traffic() {
        let mut bolt = WindowedBolt::new(WindowAssigner::Tumbling { size_s: 1.0 }, SumAgg, 0.0);
        let mut out = BoltOutput::new();
        feed(&mut bolt, 0.2, 7, &mut out);
        out.set_now(5.0);
        bolt.tick(&mut out);
        let (emissions, _) = out.drain();
        assert_eq!(emissions.len(), 1, "idle window flushed by tick");
        assert_eq!(emissions[0].tuple.get(1).unwrap().as_i64(), Some(7));
    }

    #[test]
    fn sliding_windows_double_count_by_design() {
        let mut bolt = WindowedBolt::new(
            WindowAssigner::Sliding {
                size_s: 4.0,
                slide_s: 2.0,
            },
            SumAgg,
            0.0,
        );
        let mut out = BoltOutput::new();
        // t=3 belongs to windows starting at 0 and 2.
        feed(&mut bolt, 3.0, 5, &mut out);
        out.set_now(20.0);
        bolt.tick(&mut out);
        let (emissions, _) = out.drain();
        let sums: Vec<i64> = emissions
            .iter()
            .map(|e| e.tuple.get(1).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(
            sums,
            vec![5, 5],
            "tuple counted in both overlapping windows"
        );
    }

    #[test]
    fn allowed_lateness_delays_close() {
        let mut strict = WindowedBolt::new(WindowAssigner::Tumbling { size_s: 1.0 }, SumAgg, 0.0);
        let mut lenient = WindowedBolt::new(WindowAssigner::Tumbling { size_s: 1.0 }, SumAgg, 1.0);
        let mut out = BoltOutput::new();
        feed(&mut strict, 0.5, 1, &mut out);
        feed(&mut lenient, 0.5, 1, &mut out);
        out.drain();
        out.set_now(1.5);
        strict.tick(&mut out);
        lenient.tick(&mut out);
        let (e, _) = out.drain();
        assert_eq!(e.len(), 1, "only the strict bolt closed at t=1.5");
        assert_eq!(strict.windows_closed(), 1);
        assert_eq!(lenient.windows_closed(), 0);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut bolt = WindowedBolt::new(WindowAssigner::Tumbling { size_s: 2.0 }, SumAgg, 0.0);
        let mut out = BoltOutput::new();
        feed(&mut bolt, 0.5, 1, &mut out);
        feed(&mut bolt, 2.5, 10, &mut out); // closes window 0
        feed(&mut bolt, 3.5, 20, &mut out);
        let snap = bolt.snapshot();

        let mut fresh = WindowedBolt::new(WindowAssigner::Tumbling { size_s: 2.0 }, SumAgg, 0.0);
        fresh.restore(&snap, &[]).unwrap();
        assert_eq!(fresh.open_windows(), 1);
        assert_eq!(fresh.windows_closed(), 1);
        // The restored bolt closes window 1 with the pre-snapshot sum.
        out.drain();
        out.set_now(10.0);
        fresh.tick(&mut out);
        let (e, _) = out.drain();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].tuple.get(1).unwrap().as_i64(), Some(30));
    }

    #[test]
    fn deltas_compose_to_full_snapshot() {
        let mut bolt = WindowedBolt::new(WindowAssigner::Tumbling { size_s: 1.0 }, SumAgg, 0.0);
        let mut out = BoltOutput::new();
        feed(&mut bolt, 0.1, 1, &mut out);
        let base = bolt.snapshot();
        feed(&mut bolt, 0.2, 2, &mut out);
        let d1 = bolt.delta().unwrap();
        assert_eq!(d1.kind, SnapshotKind::Delta);
        feed(&mut bolt, 1.3, 5, &mut out); // closes window 0
        feed(&mut bolt, 7.7, 9, &mut out); // closes window 1 too
        let d2 = bolt.delta().unwrap();
        let full = bolt.snapshot();

        let mut via_deltas =
            WindowedBolt::new(WindowAssigner::Tumbling { size_s: 1.0 }, SumAgg, 0.0);
        via_deltas.restore(&base, &[d1, d2]).unwrap();
        let mut via_full = WindowedBolt::new(WindowAssigner::Tumbling { size_s: 1.0 }, SumAgg, 0.0);
        via_full.restore(&full, &[]).unwrap();
        assert_eq!(via_deltas.windows_closed(), via_full.windows_closed());
        assert_eq!(via_deltas.open_windows(), via_full.open_windows());
        assert_eq!(
            via_deltas.snapshot().bytes,
            via_full.snapshot().bytes,
            "delta-composed state matches the full image byte-for-byte"
        );
    }

    #[test]
    fn windows_close_in_order() {
        let mut bolt = WindowedBolt::new(WindowAssigner::Tumbling { size_s: 1.0 }, SumAgg, 0.0);
        let mut out = BoltOutput::new();
        for t in [0.1, 1.1, 2.1, 3.1] {
            feed(&mut bolt, t, 1, &mut out);
        }
        out.set_now(10.0);
        bolt.tick(&mut out);
        let (emissions, _) = out.drain();
        let starts: Vec<f64> = emissions
            .iter()
            .map(|e| e.tuple.get(0).unwrap().as_f64().unwrap())
            .collect();
        let mut sorted = starts.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(starts, sorted, "windows emitted oldest-first");
        assert_eq!(starts.len(), 4);
    }
}
