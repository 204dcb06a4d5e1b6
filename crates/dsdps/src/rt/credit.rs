//! Credit-based per-edge flow control of `dist`'s data links.
//!
//! Each sender process (the coordinator, every worker) keeps one ledger
//! with a **credit pool** per remote bolt task.  At submit every pool gets
//! its window, `RtConfig::credit_window × batch_size` credits (one credit
//! = the right to put one tuple on the link toward that task).  A sender
//! acquires a credit per tuple before it writes the tuple and parks the
//! tuple while the pool is empty; the receiver grants the credits of a
//! batch back once it has executed the batch.  Tuples sent but not yet
//! executed per task and sender are therefore bounded by the window.
//!
//! Four monotone counters per pool make the accounting auditable:
//!
//! ```text
//! granted == consumed + revoked + outstanding
//! ```
//!
//! where `outstanding` is the pool's currently `available` balance.  Grants
//! add to `granted` and `available`; a successful acquire moves one credit
//! from `available` to `consumed`; a revoke (window shrink) moves credits
//! from `available` to `revoked`.  `available` never goes negative: an
//! acquire only succeeds while the balance is positive, and a revoke only
//! takes what is actually available.  At shutdown, with every thread
//! joined, the identity is exact ([`CreditLedger::conservation_holds`]) —
//! the credit-plane mirror of the tuple-conservation invariant
//! `tracked == acked + permanently_failed + in_flight`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Aggregate snapshot of a [`CreditLedger`] (sums over every pool).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CreditTotals {
    /// Credits ever granted (initial windows, per-batch re-grants, window
    /// grows).
    pub granted: u64,
    /// Credits consumed by tuple sends.
    pub consumed: u64,
    /// Credits taken back by window shrinks.
    pub revoked: u64,
    /// Credits currently available to senders.
    pub outstanding: i64,
}

impl CreditTotals {
    /// The conservation identity `granted == consumed + revoked +
    /// outstanding`.  Exact when no thread is mutating the ledger (e.g.
    /// after shutdown); transiently off by in-progress updates otherwise.
    pub fn conservation_holds(&self) -> bool {
        self.granted as i64 == self.consumed as i64 + self.revoked as i64 + self.outstanding
    }
}

/// One task's credit pool.
#[derive(Debug, Default)]
struct CreditPool {
    /// Credits available to senders right now.  Never negative.
    available: AtomicI64,
    /// Monotone: total credits ever granted.
    granted: AtomicU64,
    /// Monotone: total credits consumed by sends.
    consumed: AtomicU64,
    /// Monotone: total credits revoked by window shrinks.
    revoked: AtomicU64,
    /// Current target window (what `set_window` last established).
    window: AtomicU64,
}

/// Per-task credit accounting for one running topology.
///
/// All operations are lock-free atomics; producers and the one consumer of
/// a pool may call concurrently.  See the module docs for the protocol and
/// the conservation identity.
#[derive(Debug)]
pub struct CreditLedger {
    pools: Vec<CreditPool>,
}

impl CreditLedger {
    /// A ledger with one (empty) pool per task.  Pools start with zero
    /// credits; the sender sets each remote task's window.
    pub fn new(n_tasks: usize) -> Self {
        CreditLedger {
            pools: (0..n_tasks).map(|_| CreditPool::default()).collect(),
        }
    }

    /// Number of pools (tasks).
    pub fn len(&self) -> usize {
        self.pools.len()
    }

    /// True when the ledger has no pools.
    pub fn is_empty(&self) -> bool {
        self.pools.is_empty()
    }

    /// Grants `n` credits to `task`'s pool (initial window, a receiver's
    /// re-grant, or window grow).
    pub fn grant(&self, task: usize, n: u64) {
        if n == 0 {
            return;
        }
        let pool = &self.pools[task];
        pool.granted.fetch_add(n, Ordering::Relaxed);
        pool.available.fetch_add(n as i64, Ordering::Release);
    }

    /// Tries to consume one credit from `task`'s pool.  Returns `false`
    /// when the pool is empty (the caller parks the tuple).
    pub fn try_acquire(&self, task: usize) -> bool {
        let pool = &self.pools[task];
        let mut avail = pool.available.load(Ordering::Acquire);
        loop {
            if avail <= 0 {
                return false;
            }
            match pool.available.compare_exchange_weak(
                avail,
                avail - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    pool.consumed.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(cur) => avail = cur,
            }
        }
    }

    /// Takes up to `n` *available* credits out of `task`'s pool (window
    /// shrink).  Returns how many were actually revoked — never more than
    /// the current balance, so `available` stays non-negative.
    pub fn revoke(&self, task: usize, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let pool = &self.pools[task];
        let mut avail = pool.available.load(Ordering::Acquire);
        loop {
            let take = avail.min(n as i64);
            if take <= 0 {
                return 0;
            }
            match pool.available.compare_exchange_weak(
                avail,
                avail - take,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    pool.revoked.fetch_add(take as u64, Ordering::Relaxed);
                    return take as u64;
                }
                Err(cur) => avail = cur,
            }
        }
    }

    /// Establishes `task`'s window, granting or revoking the difference
    /// from the previous target.  Returns `(granted, revoked)` deltas.  A
    /// shrink revokes at most the currently available balance: credits out
    /// with in-flight tuples are returned by the receiver's re-grants and
    /// simply re-fill a smaller pool.
    pub fn set_window(&self, task: usize, window: u64) -> (u64, u64) {
        let pool = &self.pools[task];
        let old = pool.window.swap(window, Ordering::Relaxed);
        if window > old {
            let delta = window - old;
            self.grant(task, delta);
            (delta, 0)
        } else {
            (0, self.revoke(task, old - window))
        }
    }

    /// `task`'s current target window.
    pub fn window(&self, task: usize) -> u64 {
        self.pools[task].window.load(Ordering::Relaxed)
    }

    /// Credits currently available to senders of `task`.
    pub fn outstanding(&self, task: usize) -> i64 {
        self.pools[task].available.load(Ordering::Acquire)
    }

    /// Credits of `task`'s window that are out with senders right now
    /// (`window − available`, floored at zero): deliveries sent but not yet
    /// credited back by the receiver.
    pub fn in_use(&self, task: usize) -> u64 {
        (self.window(task) as i64 - self.outstanding(task)).max(0) as u64
    }

    /// Tops `task`'s pool back up to its window — the receiver is gone, so
    /// the credits out with deliveries toward it will never be returned.
    pub fn refill(&self, task: usize) {
        self.grant(task, self.in_use(task));
    }

    /// Aggregate counters over every pool.
    pub fn totals(&self) -> CreditTotals {
        let mut t = CreditTotals {
            granted: 0,
            consumed: 0,
            revoked: 0,
            outstanding: 0,
        };
        for pool in &self.pools {
            t.granted += pool.granted.load(Ordering::Relaxed);
            t.consumed += pool.consumed.load(Ordering::Relaxed);
            t.revoked += pool.revoked.load(Ordering::Relaxed);
            t.outstanding += pool.available.load(Ordering::Acquire);
        }
        t
    }

    /// The conservation identity over the whole ledger; see
    /// [`CreditTotals::conservation_holds`].
    pub fn conservation_holds(&self) -> bool {
        self.totals().conservation_holds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_acquire_regrant_cycle() {
        let ledger = CreditLedger::new(2);
        ledger.grant(1, 4);
        assert_eq!(ledger.outstanding(1), 4);
        assert!(ledger.try_acquire(1));
        assert!(ledger.try_acquire(1));
        assert_eq!(ledger.outstanding(1), 2);
        // Consumer re-grants one per processed batch.
        ledger.grant(1, 1);
        assert_eq!(ledger.outstanding(1), 3);
        let t = ledger.totals();
        assert_eq!(t.granted, 5);
        assert_eq!(t.consumed, 2);
        assert!(t.conservation_holds());
    }

    #[test]
    fn acquire_fails_on_empty_pool_and_never_goes_negative() {
        let ledger = CreditLedger::new(1);
        assert!(!ledger.try_acquire(0), "empty pool must refuse");
        ledger.grant(0, 1);
        assert!(ledger.try_acquire(0));
        assert!(!ledger.try_acquire(0));
        assert_eq!(ledger.outstanding(0), 0);
        assert!(ledger.conservation_holds());
    }

    #[test]
    fn revoke_takes_at_most_available() {
        let ledger = CreditLedger::new(1);
        ledger.grant(0, 3);
        assert!(ledger.try_acquire(0));
        // 2 available; asking for 5 revokes only 2.
        assert_eq!(ledger.revoke(0, 5), 2);
        assert_eq!(ledger.outstanding(0), 0);
        let t = ledger.totals();
        assert_eq!((t.granted, t.consumed, t.revoked), (3, 1, 2));
        assert!(t.conservation_holds());
    }

    #[test]
    fn set_window_grants_and_revokes_deltas() {
        let ledger = CreditLedger::new(1);
        assert_eq!(ledger.set_window(0, 8), (8, 0));
        assert_eq!(ledger.window(0), 8);
        assert_eq!(ledger.set_window(0, 12), (4, 0));
        assert_eq!(ledger.set_window(0, 5), (0, 7));
        assert_eq!(ledger.outstanding(0), 5);
        assert!(ledger.conservation_holds());
    }

    #[test]
    fn refill_restores_the_window_and_conserves() {
        let ledger = CreditLedger::new(1);
        ledger.set_window(0, 4);
        for _ in 0..3 {
            assert!(ledger.try_acquire(0));
        }
        assert_eq!(ledger.in_use(0), 3);
        ledger.refill(0);
        assert_eq!((ledger.in_use(0), ledger.outstanding(0)), (0, 4));
        ledger.refill(0);
        assert_eq!(ledger.outstanding(0), 4, "refilling a full pool is a no-op");
        assert!(ledger.conservation_holds());
    }

    #[test]
    fn concurrent_producers_conserve() {
        use std::sync::Arc;
        let ledger = Arc::new(CreditLedger::new(1));
        ledger.grant(0, 64);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = ledger.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = 0u64;
                for _ in 0..10_000 {
                    if l.try_acquire(0) {
                        got += 1;
                        // Pretend to be the consumer too: re-grant.
                        l.grant(0, 1);
                    }
                }
                got
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        let t = ledger.totals();
        assert_eq!(t.consumed, total);
        assert!(t.conservation_holds());
        assert!(t.outstanding >= 0);
    }
}
