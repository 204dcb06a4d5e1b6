//! Property and stress tests for the lock-striped acker.
//!
//! The sharded acker must be observationally equivalent to the single
//! global acker: the same interleaved op sequence — tracks, child emits,
//! acks, fails, records, timeouts — must complete the same trees with the
//! same outcomes regardless of the stripe count, and the conservation
//! invariant
//!
//! ```text
//! tracked == acked + failed + timed_out + still_pending
//! ```
//!
//! must hold at every shard count.  The records of one tree — one per
//! executed tuple, `input edge ^ every child edge` — must complete it
//! whatever order they arrive in, which is what lets a bolt send its
//! deliveries before its record is applied.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use dsdps::acker::{AckRecord, Completion, RootId, ShardedAcker, TreeOutcome};
use dsdps::topology::TaskId;

/// What one tracked message does with its tuple tree.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// All edges acked in scrambled order → `Acked`.
    Complete,
    /// A bolt fails a tuple mid-tree → `Failed`.
    Fail,
    /// Never resolved → pending until `expire` turns it into `TimedOut`.
    Hang,
}

/// One acker operation, pre-routed to nothing: the same script is applied
/// verbatim to ackers with different stripe counts.
#[derive(Debug, Clone, Copy)]
enum Op {
    Track {
        root: RootId,
        message_id: u64,
    },
    Emit {
        root: RootId,
        edge: u64,
    },
    Ack {
        root: RootId,
        edge: u64,
    },
    Fail {
        root: RootId,
    },
    /// What one executed tuple did to its tree, as `rt` and `dist` send it.
    Record(AckRecord),
}

/// Splitmix64 finalizer — the same scrambling `ShardedAcker::new_edge_id`
/// applies, so sequential test counters can't XOR to zero by accident
/// (e.g. edges 1 ^ 2 ^ 3 == 0 would complete a tree while edges are still
/// outstanding; that is an id-assignment hazard, not an acker bug).
fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands per-message scripts (root, fate, fanout) into per-message op
/// queues, then interleaves the queues deterministically from `seed`
/// while preserving each message's own op order — exactly the reordering
/// freedom concurrent task threads have.
fn interleaved_script(fates: &[(Fate, usize)], seed: u64) -> (Vec<Op>, BTreeMap<u64, Fate>) {
    let mut queues: Vec<Vec<Op>> = Vec::new();
    let mut expected = BTreeMap::new();
    let mut next_edge = 1u64;
    for (i, &(fate, fanout)) in fates.iter().enumerate() {
        let root = (i as u64) + 1;
        let message_id = 1000 + i as u64;
        expected.insert(message_id, fate);
        let mut ops = vec![Op::Track { root, message_id }];
        let root_edge = scramble(next_edge);
        next_edge += 1;
        ops.push(Op::Emit {
            root,
            edge: root_edge,
        });
        // Every other message speaks the record protocol: its children are
        // covered by the record of the tuple that emitted them.
        let by_records = i % 2 == 1;
        let ack = |edge: u64| match by_records {
            true => Op::Record(AckRecord {
                root,
                xor: edge,
                failed: false,
            }),
            false => Op::Ack { root, edge },
        };
        let mut edges = vec![root_edge];
        for _ in 0..fanout {
            let e = scramble(next_edge);
            next_edge += 1;
            if by_records {
                edges[0] ^= e;
            } else {
                ops.push(Op::Emit { root, edge: e });
            }
            edges.push(e);
        }
        match fate {
            Fate::Complete => {
                // Scrambled ack order: reverse is enough to exercise
                // out-of-order completion under XOR accounting.
                ops.extend(edges.iter().rev().map(|&e| ack(e)));
            }
            Fate::Fail => {
                // Ack all but one edge, then fail the tree.
                ops.extend(edges.iter().skip(1).map(|&e| ack(e)));
                ops.push(match by_records {
                    true => Op::Record(AckRecord::failed(root)),
                    false => Op::Fail { root },
                });
            }
            Fate::Hang => {}
        }
        queues.push(ops);
    }

    // Seeded merge: repeatedly pick a nonempty queue and pop its next op.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut cursors = vec![0usize; queues.len()];
    let mut script = Vec::new();
    let total: usize = queues.iter().map(Vec::len).sum();
    while script.len() < total {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let live: Vec<usize> = (0..queues.len())
            .filter(|&q| cursors[q] < queues[q].len())
            .collect();
        let q = live[(state % live.len() as u64) as usize];
        script.push(queues[q][cursors[q]]);
        cursors[q] += 1;
    }
    (script, expected)
}

/// Runs a script against a fresh acker with `shards` stripes and returns
/// `(outcomes, pending_after_expire)`.
fn run_script(script: &[Op], shards: usize) -> (Vec<TreeOutcome>, usize) {
    let acker = ShardedAcker::new(shards);
    let mut now = 0.0f64;
    for op in script {
        now += 0.001;
        match *op {
            Op::Track { root, message_id } => acker.track(root, 0, TaskId(0), message_id, now),
            Op::Emit { root, edge } => acker.on_emit(root, edge),
            Op::Ack { root, edge } => acker.on_ack(root, edge, now),
            Op::Fail { root } => acker.on_fail(root, now),
            Op::Record(record) => acker.on_record(record, now),
        }
    }
    let mut outcomes = acker.drain_outcomes_blocking();
    // Everything unresolved times out well past the message deadline.
    acker.expire(now + 1e6, 1.0);
    outcomes.extend(acker.drain_outcomes_blocking());
    (outcomes, acker.pending_count())
}

/// Sorted (message_id, completion) pairs — the multiset the equivalence
/// check compares across shard counts.
fn outcome_key(outcomes: &[TreeOutcome]) -> Vec<(u64, Completion)> {
    let mut v: Vec<(u64, Completion)> = outcomes
        .iter()
        .map(|o| (o.message_id, o.completion))
        .collect();
    v.sort_by_key(|&(id, c)| (id, c as u8));
    v
}

fn fate_strategy() -> impl Strategy<Value = Vec<(Fate, usize)>> {
    prop::collection::vec(
        (
            prop_oneof![Just(Fate::Complete), Just(Fate::Fail), Just(Fate::Hang)],
            0usize..5,
        ),
        1..40,
    )
}

proptest! {
    /// The tentpole equivalence property: one stripe and eight stripes
    /// resolve an interleaved emit/ack/fail/timeout workload identically,
    /// and every tracked message is accounted for.
    #[test]
    fn sharded_acker_equivalent_to_global(fates in fate_strategy(), seed in 0u64..5000) {
        let (script, expected) = interleaved_script(&fates, seed);
        let (out1, pending1) = run_script(&script, 1);
        let (out8, pending8) = run_script(&script, 8);

        prop_assert_eq!(outcome_key(&out1), outcome_key(&out8),
            "shard count changed tree outcomes");
        prop_assert_eq!(pending1, 0, "expire must resolve every hung tree");
        prop_assert_eq!(pending8, 0);

        // Conservation + per-message fate, on the sharded run.
        let mut acked = 0usize;
        let mut failed = 0usize;
        let mut timed_out = 0usize;
        for o in &out8 {
            let fate = expected[&o.message_id];
            match o.completion {
                Completion::Acked => {
                    prop_assert_eq!(fate, Fate::Complete);
                    acked += 1;
                }
                Completion::Failed => {
                    prop_assert_eq!(fate, Fate::Fail);
                    failed += 1;
                }
                Completion::TimedOut => {
                    prop_assert_eq!(fate, Fate::Hang);
                    timed_out += 1;
                }
            }
        }
        prop_assert_eq!(acked + failed + timed_out, expected.len(),
            "tracked != acked + failed + timed_out + in_flight(0)");
    }

    /// Shard routing is stable: every op of a root lands on one shard, so
    /// a root acked through the convenience API completes exactly once no
    /// matter how many stripes the acker has.
    #[test]
    fn completion_is_exactly_once_at_any_shard_count(shards in 1usize..13, roots in 1u64..50) {
        let acker = ShardedAcker::new(shards);
        for root in 1..=roots {
            let edge = acker.new_edge_id();
            acker.track(root, edge, TaskId(0), root, 0.0);
            acker.on_ack(root, edge, 1.0);
        }
        let outcomes = acker.drain_outcomes_blocking();
        prop_assert_eq!(outcomes.len(), roots as usize);
        prop_assert!(outcomes.iter().all(|o| o.completion == Completion::Acked));
        prop_assert_eq!(acker.pending_count(), 0);
        prop_assert!(acker.drain_outcomes_blocking().is_empty(), "double completion");
    }
}

/// A random tuple tree as the runtimes account for it.
struct Tree {
    /// XOR of the first-hop edges: what the spout's `Track` registers.
    first_hop: u64,
    /// One record per executed tuple.
    records: Vec<AckRecord>,
    /// Every (record, child edge it covers) pair.
    children: Vec<(usize, u64)>,
}

/// Grows a tree under `root`: `first` deliveries off the spout, then
/// `fanouts` consumed in execution order (0‥4 children per tuple, none below
/// depth 4).  The `fail_at`-th executed tuple, if there is one, fails it.
fn grow_tree(root: RootId, first: usize, fanouts: &[usize], fail_at: usize) -> Tree {
    let mut next_edge = root * 1_000_003;
    let mut fresh = || {
        next_edge += 1;
        scramble(next_edge)
    };
    let mut tree = Tree {
        first_hop: 0,
        records: Vec::new(),
        children: Vec::new(),
    };
    // (edge of the delivery, its depth).
    let mut frontier: Vec<(u64, usize)> = Vec::new();
    for _ in 0..first {
        let edge = fresh();
        tree.first_hop ^= edge;
        frontier.push((edge, 1));
    }
    let mut fanout = fanouts.iter().cycle();
    while let Some((edge, depth)) = frontier.pop() {
        let mut xor = edge;
        let fanout = if depth < 4 {
            *fanout.next().unwrap()
        } else {
            0
        };
        for _ in 0..fanout {
            let child = fresh();
            xor ^= child;
            tree.children.push((tree.records.len(), child));
            frontier.push((child, depth + 1));
        }
        let failed = tree.records.len() == fail_at;
        tree.records.push(AckRecord { root, xor, failed });
    }
    tree
}

/// A seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = scramble(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Tracks `root` with `first_hop`, applies `records` in order and returns
/// which record (by position) completed the tree and how — checking on the
/// way that it completes at most once — plus what is left pending.
fn completion_point(
    shards: usize,
    root: RootId,
    first_hop: u64,
    records: &[AckRecord],
) -> (Option<(usize, Completion)>, usize) {
    let acker = ShardedAcker::new(shards);
    acker.track(root, first_hop, TaskId(0), 7, 0.0);
    let mut done = None;
    for (i, &record) in records.iter().enumerate() {
        assert_eq!(acker.pending_count(), usize::from(done.is_none()));
        acker.on_record(record, 1.0 + i as f64);
        for outcome in acker.drain_outcomes_blocking() {
            assert_eq!(done, None, "completed twice");
            done = Some((i, outcome.completion));
        }
    }
    (done, acker.pending_count())
}

proptest! {
    /// The record algebra: after its `Track`, the records of a tree in
    /// *any* order complete it exactly once and never before the last one
    /// (or, with a failing tuple, fail it at that tuple's record and ignore
    /// the rest); records without a `Track` are ignored.  A record that
    /// omits a child edge is caught: the tree completes early or never.
    #[test]
    fn records_complete_a_tree_in_any_order(
        first in 1usize..5,
        fanouts in prop::collection::vec(0usize..5, 1..40),
        fail_at in prop_oneof![Just(usize::MAX), 0usize..6],
        omit in any::<usize>(),
        shards in 1usize..13,
        seed in 0u64..5000,
    ) {
        let root = seed + 1;
        let tree = grow_tree(root, first, &fanouts, fail_at);
        // The mutation the property must catch: a record lacking one of the
        // child edges it covers.
        let mut broken = tree.records.clone();
        if let Some(&(parent, child)) = tree.children.get(omit % tree.children.len().max(1)) {
            broken[parent].xor ^= child;
        }
        for order in 0..4 {
            let (mut records, mut broken) = (tree.records.clone(), broken.clone());
            shuffle(&mut records, seed * 4 + order);
            shuffle(&mut broken, seed * 4 + order);
            // Unknown root: nothing to complete.
            let untracked = ShardedAcker::new(shards);
            for &record in &records {
                untracked.on_record(record, 0.0);
            }
            prop_assert_eq!(untracked.pending_count(), 0);
            prop_assert!(untracked.drain_outcomes_blocking().is_empty());

            let expected = match records.iter().position(|r| r.failed) {
                Some(at) => (at, Completion::Failed),
                None => (records.len() - 1, Completion::Acked),
            };
            let (done, pending) = completion_point(shards, root, tree.first_hop, &records);
            prop_assert_eq!((done, pending), (Some(expected), 0));
            if expected.1 == Completion::Acked && broken != records {
                let (done, pending) = completion_point(shards, root, tree.first_hop, &broken);
                prop_assert_ne!((done, pending), (Some(expected), 0), "omission unnoticed");
            }
        }
    }
}

/// Concurrent stress: several threads drive disjoint root ranges through
/// track → emit child → ack both edges, racing on the shard locks.  Every
/// tree must complete exactly once as Acked.
#[test]
fn concurrent_threads_conserve_trees() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 2000;
    let acker = Arc::new(ShardedAcker::new(8));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let acker = Arc::clone(&acker);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let root = (t as u64) * 1_000_000 + i + 1;
                    let e_root = acker.new_edge_id();
                    acker.track(root, e_root, TaskId(t), root, 0.0);
                    let e_child = acker.new_edge_id();
                    acker.on_emit(root, e_child);
                    acker.on_ack(root, e_root, 0.5);
                    acker.on_ack(root, e_child, 1.0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let outcomes = acker.drain_outcomes_blocking();
    assert_eq!(outcomes.len(), THREADS * PER_THREAD as usize);
    assert!(outcomes.iter().all(|o| o.completion == Completion::Acked));
    assert_eq!(
        acker.pending_count(),
        0,
        "conservation: nothing left behind"
    );
}
