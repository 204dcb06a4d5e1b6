//! A live run's one stop signal: a flag the loops read on their hot paths
//! and a condvar every timed wait parks on, so setting it wakes every
//! waiting thread at once rather than at the end of its next poll.  `rt`
//! stops its whole run on it; the `dist` coordinator its background
//! threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Default)]
pub(crate) struct Stop {
    set: AtomicBool,
    lock: Mutex<()>,
    woken: Condvar,
}

impl Stop {
    /// True once [`set`](Self::set) has run.
    pub(crate) fn is_set(&self) -> bool {
        self.set.load(Ordering::Relaxed)
    }

    /// Sets the flag and wakes every thread parked in [`wait`](Self::wait).
    pub(crate) fn set(&self) {
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.set.store(true, Ordering::SeqCst);
        self.woken.notify_all();
    }

    /// Sleeps for `timeout` or until stop is set, whichever comes first, and
    /// returns whether stop is set.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while !self.is_set() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            guard = match self.woken.wait_timeout(guard, left) {
                Ok((g, _)) => g,
                Err(e) => e.into_inner().0,
            };
        }
        self.is_set()
    }
}
