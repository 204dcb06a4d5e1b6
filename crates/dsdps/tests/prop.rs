//! Property-based tests for the engine's core data structures:
//! split ratios, the dynamic-grouping router, the XOR acker, streaming
//! statistics, tuple values, groupings, the backpressure credit ledger,
//! and operator-state snapshot/restore.

#![allow(clippy::needless_range_loop)] // task indices are part of the assertions

use proptest::prelude::*;

use dsdps::acker::{splitmix64, Acker, Completion, ShardedAcker};
use dsdps::component::{Bolt, BoltOutput};
use dsdps::grouping::dynamic::{DynamicGrouping, DynamicGroupingHandle, SplitRatio};
use dsdps::grouping::{FieldsGrouping, Grouping, ShuffleGrouping};
use dsdps::metrics::{LatencyHistogram, OnlineStats};
use dsdps::rt::{CreditLedger, SnapshotKind, StateSnapshot, StatefulComponent};
use dsdps::topology::TaskId;
use dsdps::tuple::{Fields, Tuple, Value};
use dsdps::window::{WindowAggregate, WindowAssigner, WindowedBolt};

/// Sums field 0 per window (checkpoint proptests).
struct PropSum;

impl WindowAggregate for PropSum {
    type Acc = i64;

    fn add(&mut self, acc: &mut i64, tuple: &Tuple) {
        *acc += tuple.get(0).and_then(Value::as_i64).unwrap_or(0);
    }

    fn emit(&mut self, window_start_s: f64, acc: i64, out: &mut BoltOutput) {
        out.emit_unanchored(Tuple::of([Value::from(window_start_s), Value::from(acc)]));
    }
}

fn prop_windowed() -> WindowedBolt<PropSum> {
    WindowedBolt::new(
        WindowAssigner::Sliding {
            size_s: 4.0,
            slide_s: 2.0,
        },
        PropSum,
        1.0,
    )
}

/// Arbitrary (time, value) event streams driving a windowed bolt.
fn window_events() -> impl Strategy<Value = Vec<(f64, i64)>> {
    prop::collection::vec((0.0f64..30.0, -100i64..100), 0..60)
}

/// Weights with at least one strictly positive entry.
fn weights_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..100.0, 1..12).prop_filter("at least one positive weight", |w| {
        w.iter().any(|&x| x > 1e-6)
    })
}

proptest! {
    #[test]
    fn split_ratio_always_normalized(weights in weights_strategy()) {
        let r = SplitRatio::new(weights).unwrap();
        let sum: f64 = r.as_slice().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(r.as_slice().iter().all(|&w| (0.0..=1.0 + 1e-12).contains(&w)));
    }

    #[test]
    fn split_ratio_excluding_keeps_normalization(weights in weights_strategy(), idx_seed in 0usize..100) {
        let r = SplitRatio::new(weights).unwrap();
        let idx = idx_seed % r.len();
        if let Ok(e) = r.excluding(idx) {
            prop_assert_eq!(e.get(idx), 0.0);
            let sum: f64 = e.as_slice().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// Smooth WRR: over any run of W tuples, each task's count deviates
    /// from `W * weight` by at most the number of tasks.
    #[test]
    fn dynamic_grouping_tracks_any_ratio(weights in weights_strategy(), w in 50usize..400) {
        let ratio = SplitRatio::new(weights).unwrap();
        let n = ratio.len();
        let handle = DynamicGroupingHandle::new(ratio.clone());
        let mut g = DynamicGrouping::new(handle);
        let tuple = Tuple::of([Value::from(1i64)]);
        let mut counts = vec![0usize; n];
        let mut out = Vec::new();
        for _ in 0..w {
            out.clear();
            g.select(&tuple, &mut out);
            counts[out[0]] += 1;
        }
        for i in 0..n {
            let expected = ratio.get(i) * w as f64;
            prop_assert!(
                (counts[i] as f64 - expected).abs() <= n as f64 + 1.0,
                "task {} got {} expected {:.1} (n={})", i, counts[i], expected, n
            );
        }
    }

    #[test]
    fn dynamic_grouping_zero_weight_never_selected(idx_seed in 0usize..100) {
        let n = 2 + idx_seed % 6;
        let zero = idx_seed % n;
        let mut weights = vec![1.0; n];
        weights[zero] = 0.0;
        let handle = DynamicGroupingHandle::new(SplitRatio::new(weights).unwrap());
        let mut g = DynamicGrouping::new(handle);
        let tuple = Tuple::of([Value::from(1i64)]);
        let mut out = Vec::new();
        for _ in 0..500 {
            out.clear();
            g.select(&tuple, &mut out);
            prop_assert_ne!(out[0], zero);
        }
    }

    #[test]
    fn shuffle_grouping_is_balanced(n in 1usize..16, total in 1usize..500, offset in 0usize..32) {
        let mut g = ShuffleGrouping::new(n, offset);
        let tuple = Tuple::of([Value::from(1i64)]);
        let mut counts = vec![0usize; n];
        let mut out = Vec::new();
        for _ in 0..total {
            out.clear();
            g.select(&tuple, &mut out);
            counts[out[0]] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "imbalance {counts:?}");
    }

    #[test]
    fn fields_grouping_same_key_same_task(key in "[a-z]{1,16}", n in 1usize..16) {
        let schema = Fields::new(["k"]);
        let mut g = FieldsGrouping::new(n, &["k".into()], &schema).unwrap();
        let t = Tuple::with_fields([Value::from(key.as_str())], schema.clone());
        let mut out = Vec::new();
        g.select(&t, &mut out);
        let first = out[0];
        for _ in 0..10 {
            out.clear();
            g.select(&t, &mut out);
            prop_assert_eq!(out[0], first);
        }
        prop_assert!(first < n);
    }

    /// Random tuple trees: emit a random number of children per node up to
    /// depth 2, ack everything in a scrambled order → the tree completes
    /// exactly once, as Acked.
    #[test]
    fn acker_completes_random_trees(fanouts in prop::collection::vec(0usize..5, 1..6), seed in 0u64..1000) {
        let mut acker = Acker::new();
        // Edge ids: a SplitMix64-scrambled counter, as the backends draw them.
        let mut counter = 0u64;
        let mut new_edge_id = || {
            counter += 1;
            splitmix64(counter)
        };
        let root = 1u64;
        let e_root = new_edge_id();
        acker.track(root, e_root, TaskId(0), 9, 0.0);

        // Level 1: children of the root tuple; level 2: children of those.
        let mut pending_edges = vec![e_root];
        let mut all_children = Vec::new();
        for (i, &fan) in fanouts.iter().enumerate() {
            let _ = i;
            let mut next = Vec::new();
            for _ in 0..fan {
                let e = new_edge_id();
                acker.on_emit(root, e);
                next.push(e);
            }
            all_children.extend(next);
            if all_children.len() > 20 {
                break;
            }
        }
        pending_edges.extend(all_children);

        // Scramble ack order deterministically from the seed.
        let mut order: Vec<usize> = (0..pending_edges.len()).collect();
        let mut state = seed.wrapping_add(1);
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for (k, &i) in order.iter().enumerate() {
            prop_assert_eq!(acker.pending_count(), 1, "completed early at step {}", k);
            acker.on_ack(root, pending_edges[i], k as f64);
        }
        prop_assert_eq!(acker.pending_count(), 0);
        let outcomes = acker.drain_outcomes();
        prop_assert_eq!(outcomes.len(), 1);
        prop_assert_eq!(outcomes[0].completion, Completion::Acked);
    }

    /// After enough tuples the realized split converges to the commanded
    /// ratio within tolerance (law of the smooth WRR: bounded deviation
    /// means the time-average converges as 1/W).
    #[test]
    fn dynamic_grouping_ratio_converges_within_tolerance(weights in weights_strategy()) {
        let ratio = SplitRatio::new(weights).unwrap();
        let n = ratio.len();
        let handle = DynamicGroupingHandle::new(ratio.clone());
        let mut g = DynamicGrouping::new(handle);
        let tuple = Tuple::of([Value::from(1i64)]);
        let w = 5000usize;
        let mut counts = vec![0usize; n];
        let mut out = Vec::new();
        for _ in 0..w {
            out.clear();
            g.select(&tuple, &mut out);
            prop_assert_eq!(out.len(), 1, "select must pick exactly one task");
            counts[out[0]] += 1;
        }
        for i in 0..n {
            let observed = counts[i] as f64 / w as f64;
            prop_assert!(
                (observed - ratio.get(i)).abs() < 0.01,
                "task {} observed {:.4} commanded {:.4}", i, observed, ratio.get(i)
            );
        }
    }

    /// An atomic mid-stream ratio swap neither drops nor duplicates a
    /// tuple: every select before, during and after the swap yields exactly
    /// one in-range task, the totals add up, and the post-swap suffix obeys
    /// the new ratio (including zeroed tasks going fully dark).
    #[test]
    fn dynamic_grouping_midstream_swap_never_drops_or_duplicates(
        pre in weights_strategy(),
        swap_at in 1usize..2000,
    ) {
        let pre_ratio = SplitRatio::new(pre).unwrap();
        let n = pre_ratio.len();
        let handle = DynamicGroupingHandle::new(pre_ratio);
        let mut g = DynamicGrouping::new(handle.clone());
        let tuple = Tuple::of([Value::from(1i64)]);
        let total = 4000usize;
        let swap_at = swap_at.min(total - 1);
        // Post ratio: all weight on task 0 (plus task 1 when it exists),
        // zeroing every other task.
        let mut post = vec![0.0; n];
        post[0] = 1.0;
        if n > 1 {
            post[1] = 0.5;
        }
        let post_ratio = SplitRatio::new(post).unwrap();
        let mut out = Vec::new();
        let mut routed = 0usize;
        let mut post_counts = vec![0usize; n];
        for i in 0..total {
            if i == swap_at {
                handle.set_ratio(post_ratio.clone()).unwrap();
            }
            out.clear();
            g.select(&tuple, &mut out);
            prop_assert_eq!(out.len(), 1, "swap dropped or duplicated a tuple");
            prop_assert!(out[0] < n, "selected task out of range");
            routed += 1;
            if i >= swap_at {
                post_counts[out[0]] += 1;
            }
        }
        prop_assert_eq!(routed, total);
        prop_assert_eq!(handle.version(), 1);
        // Zero-weight tasks under the new ratio must go dark immediately.
        for z in 2..n {
            prop_assert_eq!(
                post_counts[z], 0,
                "task {} was zeroed by the swap but still got tuples", z
            );
        }
        prop_assert_eq!(post_counts.iter().sum::<usize>(), total - swap_at);
    }

    #[test]
    fn online_stats_merge_matches_sequential(data in prop::collection::vec(-1e6f64..1e6, 2..200), cut_seed in 0usize..1000) {
        let cut = 1 + cut_seed % (data.len() - 1);
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.update(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..cut] {
            a.update(x);
        }
        for &x in &data[cut..] {
            b.update(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
    }

    /// Histogram quantiles stay within the documented ~9 % relative error.
    #[test]
    fn histogram_quantile_relative_error_bounded(mut samples in prop::collection::vec(1.0f64..1e7, 20..300), q_pct in 1u32..100) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_by(f64::total_cmp);
        let q = q_pct as f64 / 100.0;
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let truth = samples[rank - 1];
        let got = h.quantile(q).unwrap();
        prop_assert!(
            got >= truth * 0.9 && got <= truth * 1.1,
            "q={}: got {} truth {}", q, got, truth
        );
    }

    /// Histogram merge is associative and commutative, and agrees with
    /// recording the concatenated sample stream directly — so per-shard
    /// telemetry summaries can be combined in any order.
    #[test]
    fn histogram_merge_associative_commutative(
        a in prop::collection::vec(0.25f64..1e6, 0..150),
        b in prop::collection::vec(0.25f64..1e6, 0..150),
        c in prop::collection::vec(0.25f64..1e6, 0..150),
    ) {
        let build = |xs: &[f64]| {
            let mut h = LatencyHistogram::new();
            for &x in xs {
                h.record(x);
            }
            h
        };
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");
        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "merge must be associative");
        prop_assert_eq!(ab_c.count(), (a.len() + b.len() + c.len()) as u64);
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(&ab_c, &build(&all), "merge must equal one-stream recording");
    }

    /// Quantile estimates stay within ONE bucket's relative error: buckets
    /// are spaced 2^(1/8) apart, so `estimate / truth` lies in
    /// `[1 - ε, 2^(1/8) + ε]` for samples above the underflow cutoff.
    #[test]
    fn histogram_quantile_within_one_bucket(
        mut samples in prop::collection::vec(1.0f64..1e7, 1..300),
        q_pct in 1u32..101,
    ) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_by(f64::total_cmp);
        let q = q_pct as f64 / 100.0;
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let truth = samples[rank - 1];
        let got = h.quantile(q).unwrap();
        let one_bucket = 2f64.powf(1.0 / 8.0);
        prop_assert!(
            got >= truth * (1.0 - 1e-12),
            "q={}: estimate {} below truth {}", q, got, truth
        );
        prop_assert!(
            got <= truth * one_bucket * (1.0 + 1e-12),
            "q={}: estimate {} exceeds truth {} by more than one bucket ({:.4}x)",
            q, got, truth, got / truth
        );
    }

    /// The credit ledger against a reference model, one arbitrary op
    /// sequence at a time: `available` never goes negative, acquire
    /// succeeds iff the model has balance, revoke takes exactly
    /// `min(asked, available)`, and the conservation identity
    /// `granted == consumed + revoked + outstanding` holds after EVERY op.
    #[test]
    fn credit_ledger_matches_model_and_conserves(
        ops in prop::collection::vec((0u8..4, 0usize..4, 0u64..6), 1..150),
    ) {
        const TASKS: usize = 4;
        let ledger = CreditLedger::new(TASKS);
        let mut avail = [0i64; TASKS];
        let mut window = [0u64; TASKS];
        for (step, &(kind, task, amount)) in ops.iter().enumerate() {
            match kind {
                0 => {
                    ledger.grant(task, amount);
                    avail[task] += amount as i64;
                }
                1 => {
                    let got = ledger.try_acquire(task);
                    prop_assert_eq!(
                        got,
                        avail[task] > 0,
                        "step {}: acquire must succeed iff balance positive", step
                    );
                    if got {
                        avail[task] -= 1;
                    }
                }
                2 => {
                    let revoked = ledger.revoke(task, amount);
                    prop_assert_eq!(
                        revoked as i64,
                        avail[task].min(amount as i64),
                        "step {}: revoke takes min(asked, available)", step
                    );
                    avail[task] -= revoked as i64;
                }
                _ => {
                    ledger.set_window(task, amount);
                    let old = window[task];
                    window[task] = amount;
                    if amount > old {
                        avail[task] += (amount - old) as i64;
                    } else {
                        avail[task] -= avail[task].min((old - amount) as i64);
                    }
                    prop_assert_eq!(ledger.window(task), amount);
                }
            }
            prop_assert!(ledger.outstanding(task) >= 0, "step {}: negative balance", step);
            prop_assert_eq!(ledger.outstanding(task), avail[task], "step {}", step);
            prop_assert!(ledger.conservation_holds(), "step {}: conservation broke", step);
        }
        let t = ledger.totals();
        prop_assert_eq!(t.outstanding, avail.iter().sum::<i64>());
        prop_assert!(t.conservation_holds());
    }

    /// The same invariants under real thread interleavings: competing
    /// producers (acquire + consumer-style re-grant), a granter and a
    /// revoker all race on two pools; after joining, the books must close
    /// exactly and no pool may be negative.
    #[test]
    fn credit_ledger_conserves_under_threaded_interleavings(
        initial in 1u64..48,
        seed in 0u64..1_000,
    ) {
        use std::sync::Arc;
        let ledger = Arc::new(CreditLedger::new(2));
        ledger.grant(0, initial);
        ledger.grant(1, initial);
        let mut handles = Vec::new();
        for worker in 0..3u64 {
            let l = Arc::clone(&ledger);
            handles.push(std::thread::spawn(move || {
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ worker;
                let mut acquired = 0u64;
                for _ in 0..1_000 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let task = (state >> 33) as usize % 2;
                    match state % 16 {
                        // Mostly the data-plane round trip: acquire, then
                        // re-grant as the consumer would after processing.
                        0..=11 => {
                            if l.try_acquire(task) {
                                acquired += 1;
                                l.grant(task, 1);
                            }
                        }
                        12..=13 => l.grant(task, 1),
                        _ => {
                            l.revoke(task, 1);
                        }
                    }
                }
                acquired
            }));
        }
        let consumed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let t = ledger.totals();
        prop_assert_eq!(t.consumed, consumed, "every successful acquire is counted once");
        prop_assert!(t.outstanding >= 0);
        prop_assert!(ledger.outstanding(0) >= 0);
        prop_assert!(ledger.outstanding(1) >= 0);
        prop_assert!(t.conservation_holds(), "{:?}", t);
    }

    /// Arbitrary window contents → snapshot → restore ⇒ identical state:
    /// the restored bolt reports the same open/closed/late counters and
    /// re-snapshots to the same byte image.
    #[test]
    fn windowed_snapshot_restore_yields_identical_state(events in window_events()) {
        let mut bolt = prop_windowed();
        let mut out = BoltOutput::new();
        for &(t, v) in &events {
            out.set_now(t);
            bolt.execute(&Tuple::of([Value::from(v)]), &mut out);
        }
        out.drain();
        let snap = bolt.snapshot();
        let mut restored = prop_windowed();
        restored.restore(&snap, &[]).unwrap();
        prop_assert_eq!(restored.open_windows(), bolt.open_windows());
        prop_assert_eq!(restored.windows_closed(), bolt.windows_closed());
        prop_assert_eq!(restored.late_dropped(), bolt.late_dropped());
        prop_assert_eq!(
            restored.snapshot().bytes,
            bolt.snapshot().bytes,
            "restored state re-images byte-for-byte"
        );
    }

    /// Incremental deltas compose to the full snapshot: restoring the base
    /// plus every delta equals restoring the final full image, no matter
    /// where the delta cuts fall in the event stream.
    #[test]
    fn windowed_deltas_compose_to_full_snapshot(
        events in window_events(),
        cuts in prop::collection::vec(0usize..60, 1..5),
    ) {
        let mut bolt = prop_windowed();
        let mut out = BoltOutput::new();
        let base = bolt.snapshot();
        let cut_set: std::collections::BTreeSet<usize> = cuts.into_iter().collect();
        let mut deltas = Vec::new();
        for (i, &(t, v)) in events.iter().enumerate() {
            if cut_set.contains(&i) {
                deltas.push(bolt.delta().unwrap());
            }
            out.set_now(t);
            bolt.execute(&Tuple::of([Value::from(v)]), &mut out);
        }
        deltas.push(bolt.delta().unwrap());
        out.drain();
        let full = bolt.snapshot();
        let mut composed = prop_windowed();
        composed.restore(&base, &deltas).unwrap();
        prop_assert_eq!(
            composed.snapshot().bytes,
            full.bytes,
            "base + deltas must equal the full image"
        );
    }

    #[test]
    fn value_equality_implies_hash_equality(a in value_strategy(), b in value_strategy()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        if a == b {
            prop_assert_eq!(hash(&a), hash(&b));
        }
        // And every value equals itself (incl. NaN, by bit-comparison).
        prop_assert_eq!(&a, &a);
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        any::<i64>().prop_map(Value::from),
        any::<f64>().prop_map(Value::from),
        "[ -~]{0,12}".prop_map(|s| Value::from(s.as_str())),
        prop::collection::vec(any::<i64>().prop_map(Value::from), 0..4).prop_map(Value::List),
    ]
}

/// Arbitrary schedules for the simulator's event queue: finite non-negative
/// timestamps (virtual time never runs backwards) with many duplicates.
fn event_times() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            0.0f64..10.0,
            // Coarse grid to force plenty of exact-tie timestamps.
            (0i32..10).prop_map(|t| t as f64),
        ],
        1..80,
    )
}

proptest! {
    /// Pops come out in non-decreasing time order regardless of insertion
    /// order.
    #[test]
    fn event_queue_pops_non_decreasing(times in event_times()) {
        let mut q = dsdps::sim::event::EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        prop_assert_eq!(q.len(), times.len());
        let mut last = f64::NEG_INFINITY;
        while let Some(s) = q.pop() {
            prop_assert!(s.time >= last, "{} < {}", s.time, last);
            prop_assert_eq!(q.peek_time().is_none(), q.is_empty());
            last = s.time;
        }
        prop_assert!(q.is_empty());
    }

    /// Equal-time events drain in insertion order (FIFO tie-break), so two
    /// identically built queues drain identically — the determinism the
    /// engine's seed-stability relies on.
    #[test]
    fn event_queue_ties_break_fifo_deterministically(times in event_times()) {
        let build = || {
            let mut q = dsdps::sim::event::EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(t, i);
            }
            q
        };
        let (mut a, mut b) = (build(), build());
        let mut prev: Option<(f64, usize)> = None;
        while let Some(sa) = a.pop() {
            let sb = b.pop().expect("same length");
            prop_assert_eq!(sa.event, sb.event);
            prop_assert_eq!(sa.time.to_bits(), sb.time.to_bits());
            if let Some((pt, pe)) = prev {
                if pt == sa.time {
                    // Tie: insertion index must increase.
                    prop_assert!(sa.event > pe, "tie broke out of order");
                }
            }
            prev = Some((sa.time, sa.event));
        }
        prop_assert!(b.pop().is_none());
    }

    /// The heap agrees with the obvious model: a stable sort of the input
    /// by timestamp.
    #[test]
    fn event_queue_matches_stable_sorted_model(times in event_times()) {
        let mut q = dsdps::sim::event::EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut model: Vec<(f64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        model.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable: ties keep insertion order
        for (expect_t, expect_i) in model {
            let s = q.pop().expect("model and queue have equal length");
            prop_assert_eq!(s.time.to_bits(), expect_t.to_bits());
            prop_assert_eq!(s.event, expect_i);
        }
        prop_assert!(q.pop().is_none());
    }
}

// --- wire codec (dist runtime) ------------------------------------------

use dsdps::dist::codec::{
    self, decode_frame, encode_frame_body, AckItem, Dec, FlushReport, Frame, WireMetric, WirePeer,
    WireSpan, WireTuple,
};

/// Scalar tuple values.  Floats stay finite so value equality is
/// meaningful after the bit-exact roundtrip.
fn wire_leaf() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        any::<i64>().prop_map(Value::from),
        (-1.0e12f64..1.0e12).prop_map(Value::from),
        "[a-z]{0,12}".prop_map(|s: String| Value::from(s)),
        prop::collection::vec(any::<u8>(), 0..16).prop_map(|b| Value::Bytes(bytes::Bytes::from(b))),
    ]
    .boxed()
}

/// Tuple values, including one level of list nesting.
fn wire_value() -> BoxedStrategy<Value> {
    prop_oneof![
        wire_leaf(),
        prop::collection::vec(wire_leaf(), 0..4).prop_map(Value::List),
    ]
    .boxed()
}

fn wire_tuple() -> impl Strategy<Value = WireTuple> {
    (
        any::<u64>(),
        0u32..64,
        0u32..16,
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        prop::collection::vec(wire_value(), 0..5),
    )
        .prop_map(
            |(token, dest_task, stream, dedup, trace_root, values)| WireTuple {
                token,
                dest_task,
                stream,
                dedup,
                trace_root,
                values,
            },
        )
}

fn wire_span() -> impl Strategy<Value = WireSpan> {
    (
        0u8..5,
        any::<u64>(),
        0u32..64,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(kind, root, task, start_us, queue_wait_us, exec_us, batch_id)| WireSpan {
                kind,
                root,
                task,
                start_us,
                queue_wait_us,
                exec_us,
                batch_id,
            },
        )
}

fn wire_metric() -> impl Strategy<Value = WireMetric> {
    (
        0u8..2,
        "[a-z_]{1,24}",
        prop_oneof![Just(None), (0u32..8).prop_map(Some)],
        any::<u64>(),
    )
        .prop_map(|(kind, name, peer, value)| WireMetric {
            kind,
            name,
            peer,
            value,
        })
}

fn ack_item() -> impl Strategy<Value = AckItem> {
    (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(root, xor, failed)| AckItem {
        root,
        xor,
        failed,
    })
}

/// A snapshot as it travels in `CheckpointDeposit` / `RestoreState`: either
/// kind, any payload (the codec carries it opaquely).
fn wire_snapshot() -> impl Strategy<Value = StateSnapshot> {
    let kind = prop_oneof![Just(SnapshotKind::Full), Just(SnapshotKind::Delta)];
    (kind, prop::collection::vec(any::<u8>(), 0..64))
        .prop_map(|(kind, bytes)| StateSnapshot { kind, bytes })
}

/// An endpoint string (the codec carries it opaquely; only the transport
/// parses it).
fn endpoint() -> impl Strategy<Value = String> {
    "[a-z0-9:/.-]{0,40}"
}

fn wire_peer() -> impl Strategy<Value = WirePeer> {
    (0u32..8, 1u64..5, endpoint()).prop_map(|(slot, generation, endpoint)| WirePeer {
        slot,
        generation,
        endpoint,
    })
}

/// Every frame type of the wire protocol with arbitrary payloads.
fn any_frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        (0u32..8, any::<u32>(), any::<u64>(), endpoint()).prop_map(
            |(worker, pid, clock_us, endpoint)| Frame::Hello {
                worker,
                pid,
                clock_us,
                endpoint,
            }
        ),
        (
            (0u32..8, 1u64..5, "[a-z]{1,10}", "[a-z0-9:]{0,10}"),
            prop::collection::vec(prop_oneof![Just(u32::MAX), 0u32..8], 0..8),
            prop::collection::vec(wire_peer(), 0..4),
            (0u8..3, 0u32..16),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (1u32..32, 1u32..256, any::<u64>(), 0.0f64..=1.0),
        )
            .prop_map(
                |(
                    (worker, generation, topology, args),
                    task_slots,
                    peers,
                    (recovery, restores),
                    (ckpt, tick, push),
                    (stream_count, batch_size, credit_window, rate),
                )| {
                    Frame::Assign {
                        worker,
                        generation,
                        topology,
                        args,
                        task_slots,
                        peers,
                        recovery,
                        ckpt_interval_us: ckpt,
                        tick_interval_us: tick,
                        metrics_interval_us: push,
                        stream_count,
                        batch_size,
                        credit_window,
                        trace_sample_bits: rate.to_bits(),
                        restores,
                    }
                },
            ),
        prop::collection::vec(wire_tuple(), 0..6).prop_map(|items| Frame::TupleBatch { items }),
        prop::collection::vec(ack_item(), 0..8).prop_map(|items| Frame::AckBatch { items }),
        (0u32..64, any::<u64>()).prop_map(|(task, amount)| Frame::CreditGrant { task, amount }),
        (
            0u32..64,
            wire_snapshot(),
            prop::collection::vec(any::<u64>(), 0..8),
        )
            .prop_map(|(task, snapshot, dedup)| Frame::CheckpointDeposit {
                task,
                snapshot,
                dedup,
            }),
        (0u32..8, prop::collection::vec(0.0f64..1.0e6, 0..6))
            .prop_map(|(edge, weights)| Frame::SetRatio { edge, weights }),
        // Nothing, a base alone, or a base with deltas after it.
        (
            0u32..64,
            prop::collection::vec(wire_snapshot(), 0..4),
            prop::collection::vec(any::<u64>(), 0..8),
        )
            .prop_map(|(task, snapshots, dedup)| Frame::RestoreState {
                task,
                snapshots,
                dedup,
            }),
        (0u32..64, any::<bool>(), any::<u64>()).prop_map(|(task, ok, latency_us)| {
            Frame::StateRestored {
                task,
                ok,
                latency_us,
            }
        }),
        any::<u64>().prop_map(|seq| Frame::Flush { seq }),
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<i64>()),
        )
            .prop_map(
                |((seq, in_flight, activity), (granted, consumed, revoked, outstanding))| {
                    Frame::Flushed(FlushReport {
                        seq,
                        in_flight,
                        activity,
                        credits: dsdps::rt::CreditTotals {
                            granted,
                            consumed,
                            revoked,
                            outstanding,
                        },
                    })
                }
            ),
        Just(Frame::Shutdown),
        (
            0u32..8,
            any::<u64>(),
            prop::collection::vec(wire_span(), 0..6)
        )
            .prop_map(|(worker, dropped, spans)| Frame::SpanBatch {
                worker,
                dropped,
                spans
            }),
        (0u32..8, prop::collection::vec(wire_metric(), 0..6))
            .prop_map(|(worker, samples)| Frame::MetricsPush { worker, samples }),
        (0u32..8, "[a-z_]{1,12}", "[ -~]{0,40}").prop_map(|(worker, cause, detail)| {
            Frame::LastWords {
                worker,
                cause,
                detail,
            }
        }),
    ]
    .boxed()
}

proptest! {
    /// Every frame type survives an encode/decode roundtrip bit-exactly.
    #[test]
    fn codec_every_frame_type_round_trips(frame in any_frame()) {
        let mut buf = Vec::new();
        encode_frame_body(&frame, &mut buf);
        let back = decode_frame(&buf);
        prop_assert_eq!(back, Ok(frame));
    }

    /// Every strict prefix of a valid frame body is a decode *error* —
    /// never a panic, and never a silent short parse.
    #[test]
    fn codec_truncated_frames_error_never_panic(frame in any_frame()) {
        let mut buf = Vec::new();
        encode_frame_body(&frame, &mut buf);
        for cut in 0..buf.len() {
            prop_assert!(
                decode_frame(&buf[..cut]).is_err(),
                "prefix of {} bytes decoded", cut
            );
        }
    }

    /// Single-byte corruption anywhere in a frame body either errors or
    /// decodes to *some* frame — it must never panic or overallocate.
    #[test]
    fn codec_corrupted_frames_never_panic(
        frame in any_frame(),
        pos in any::<u16>(),
        xor in 1u8..=255,
    ) {
        let mut buf = Vec::new();
        encode_frame_body(&frame, &mut buf);
        let pos = pos as usize % buf.len().max(1);
        buf[pos] ^= xor;
        let _ = decode_frame(&buf); // Err or a different frame; both fine.
    }

    /// Arbitrary garbage bytes never panic the decoder.
    #[test]
    fn codec_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame(&bytes);
    }

    /// Unsigned and zigzag varints roundtrip across the whole range,
    /// including the multi-byte boundaries.
    #[test]
    fn codec_varints_round_trip(v in any::<u64>(), s in any::<i64>()) {
        for v in [v, v >> 7, v >> 35, 0, u64::MAX] {
            let mut buf = Vec::new();
            codec::write_varint(&mut buf, v);
            let mut d = Dec::new(&buf);
            prop_assert_eq!(d.varint(), Ok(v));
            prop_assert!(d.is_done());
        }
        prop_assert_eq!(codec::unzigzag(codec::zigzag(s)), s);
    }
}

/// One tuple tree as the mesh sees it: the XOR of its first-hop edges (what
/// the coordinator registers) and one ack record per executed tuple — the
/// tuple's own edge XOR the fresh edges of its anchored emissions.  Level 0
/// is the spout's deliveries; every tuple of a level emits the next
/// level's fan-out.
fn xor_tree(fanouts: &[usize], edge_ids: &mut impl FnMut() -> u64) -> (u64, Vec<u64>) {
    let mut frontier: Vec<u64> = (0..fanouts[0].max(1)).map(|_| edge_ids()).collect();
    let registered = frontier.iter().fold(0, |acc, e| acc ^ e);
    let mut records = Vec::new();
    for &fanout in &fanouts[1..] {
        let mut next = Vec::new();
        for edge_in in frontier {
            let children: Vec<u64> = (0..fanout).map(|_| edge_ids()).collect();
            records.push(children.iter().fold(edge_in, |acc, e| acc ^ e));
            next.extend(children);
        }
        frontier = next;
    }
    records.extend(frontier); // leaves emit nothing: the record is their own edge
    (registered, records)
}

proptest! {
    /// Workers send their ack records over independent connections, so the
    /// coordinator applies them in whatever interleaving the reader threads
    /// produce.  For every interleaving — here: any permutation, stronger
    /// than any per-connection order — a tree is never complete before its
    /// last record and always complete after it.
    #[test]
    fn xor_ack_records_complete_trees_exactly_at_the_last_record(
        shapes in prop::collection::vec(prop::collection::vec(0usize..4, 1..5), 1..6),
        seed in any::<u64>(),
    ) {
        use dsdps::acker::splitmix64;
        let mut counter = seed;
        let mut edge_ids = || {
            counter = counter.wrapping_add(1);
            splitmix64(counter) | 1 // nonzero
        };
        let ackers = ShardedAcker::new(4);
        let mut left = Vec::new(); // records still to apply, per root
        let mut all = Vec::new();
        for (i, fanouts) in shapes.iter().enumerate() {
            let root = i as u64 + 1;
            let (registered, records) = xor_tree(fanouts, &mut edge_ids);
            ackers.track(root, registered, TaskId(0), root, 0.0);
            left.push(records.len());
            all.extend(records.into_iter().map(|r| (root, r)));
        }
        // Fisher–Yates with the same deterministic generator.
        for i in (1..all.len()).rev() {
            all.swap(i, (edge_ids() % (i as u64 + 1)) as usize);
        }
        let mut done = 0;
        for (root, record) in all {
            ackers.on_ack(root, record, 1.0);
            left[root as usize - 1] -= 1;
            done += usize::from(left[root as usize - 1] == 0);
            prop_assert_eq!(ackers.pending_count(), shapes.len() - done);
        }
        let outcomes = ackers.drain_outcomes_blocking();
        prop_assert_eq!(outcomes.len(), shapes.len());
        prop_assert!(outcomes.iter().all(|o| o.completion == Completion::Acked));
    }
}

/// Clock normalization: a worker's hop spans are recorded against its own
/// process clock, which may be skewed either way relative to the
/// coordinator's.  Applying the offset the coordinator estimated at the
/// `Hello` handshake must land the hops *inside* the tree's coordinator-side
/// bounds (emit .. terminal), for positive and negative skew alike, and the
/// merged set must still validate as one coherent tree.
#[test]
fn clock_normalization_merges_worker_spans_into_tree_bounds() {
    use dsdps::telemetry::trace::trace_id;
    use dsdps::telemetry::{normalize_start_us, validate_spans, Span, SpanKind};

    let root = 42u64;
    let span = |kind: SpanKind, task: usize, start_us: u64| Span {
        trace_id: trace_id(root),
        root,
        kind,
        component: "c".into(),
        task,
        worker: 0,
        start_us,
        queue_wait_us: 5,
        exec_us: 10,
        batch_id: 1,
        replay_attempt: 0,
        message_id: None,
        pid: 0,
        generation: 0,
    };

    // Coordinator clock: emit at t=1_000us, terminal ack at t=9_000us.
    let emit = span(SpanKind::SpoutEmit, 0, 1_000);
    let ack = span(SpanKind::Ack, 0, 9_000);

    for offset_us in [4_000i64, -4_000i64] {
        // The worker executed the hop at t=5_000us coordinator time, but
        // its local clock read `5_000 - offset` (offset = coord - worker).
        let local_start = (5_000i64 - offset_us) as u64;
        let mut worker_spans = vec![span(SpanKind::Hop, 1, local_start)];
        normalize_start_us(&mut worker_spans, offset_us);
        assert_eq!(worker_spans[0].start_us, 5_000);

        let mut merged = vec![emit.clone(), ack.clone()];
        merged.extend(worker_spans);
        merged.sort_by_key(|s| s.start_us);
        assert!(merged[0].start_us <= merged[1].start_us);
        assert!(merged[1].start_us >= emit.start_us && merged[1].start_us <= ack.start_us);

        let summary = validate_spans(&merged).expect("merged trace validates");
        assert_eq!(summary.trees, 1);
        assert_eq!(summary.terminated_trees, 1);
        assert_eq!(summary.hop_spans, 1);
    }

    // Normalization saturates rather than wrapping when the offset would
    // push a span before the epoch.
    let mut early = vec![span(SpanKind::Hop, 1, 100)];
    normalize_start_us(&mut early, -1_000);
    assert_eq!(early[0].start_us, 0);
}
