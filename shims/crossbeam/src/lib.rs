//! Minimal vendored stand-in for the `crossbeam::channel` API surface used
//! by the threaded runtime: bounded/unbounded MPMC channels with timeout
//! send/receive and disconnect semantics, built on `Mutex` + `Condvar`.
//!
//! Not as fast as real crossbeam's lock-free queues, but semantics match:
//! `send_timeout` blocks while full, `recv_timeout` blocks while empty, and
//! dropping all peers on one side disconnects the other.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers currently parked on `not_empty` — senders only touch
        /// the condvar when someone is actually waiting, so the uncontended
        /// fast path is lock/push/unlock with no wakeup call.
        waiting_recv: usize,
        /// Senders currently parked on `not_full` (bounded channels only).
        waiting_send: usize,
    }

    struct Chan<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        cap: Option<usize>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::send_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum SendTimeoutError<T> {
        /// The channel stayed full for the whole timeout; the value is
        /// handed back.
        Timeout(T),
        /// All receivers are gone; the value is handed back.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The channel stayed empty for the whole timeout.
        Timeout,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    /// The sending half of a channel.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// The receiving half of a channel.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// Creates a channel holding at most `cap` in-flight messages.
    ///
    /// `cap == 0` (a rendezvous channel in real crossbeam) is clamped to 1.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        make(Some(cap.max(1)))
    }

    /// Creates a channel with unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        make(None)
    }

    fn make<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                waiting_recv: 0,
                waiting_send: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        });
        (Sender(chan.clone()), Receiver(chan))
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
            self.inner.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while the channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match self.send_deadline(value, None) {
                Ok(()) => Ok(()),
                Err(SendTimeoutError::Disconnected(v)) => Err(SendError(v)),
                Err(SendTimeoutError::Timeout(_)) => unreachable!("no deadline"),
            }
        }

        /// Sends `value`, blocking at most `timeout` while the channel is
        /// full.
        pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            self.send_deadline(value, Some(Instant::now() + timeout))
        }

        fn send_deadline(
            &self,
            value: T,
            deadline: Option<Instant>,
        ) -> Result<(), SendTimeoutError<T>> {
            let mut inner = self.0.lock();
            loop {
                if inner.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(value));
                }
                if self.0.cap.is_none_or(|cap| inner.queue.len() < cap) {
                    inner.queue.push_back(value);
                    if inner.waiting_recv > 0 {
                        self.0.not_empty.notify_one();
                    }
                    return Ok(());
                }
                inner = match deadline {
                    None => {
                        inner.waiting_send += 1;
                        let mut g = self
                            .0
                            .not_full
                            .wait(inner)
                            .unwrap_or_else(|e| e.into_inner());
                        g.waiting_send -= 1;
                        g
                    }
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return Err(SendTimeoutError::Timeout(value));
                        }
                        inner.waiting_send += 1;
                        let mut g = self
                            .0
                            .not_full
                            .wait_timeout(inner, d - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0;
                        g.waiting_send -= 1;
                        g
                    }
                };
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// True if no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut inner = self.0.lock();
                inner.senders -= 1;
                inner.senders
            };
            if remaining == 0 {
                // Wake receivers so they observe the disconnect.
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking at most `timeout` while the channel
        /// is empty.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.0.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    if inner.waiting_send > 0 {
                        self.0.not_full.notify_one();
                    }
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner.waiting_recv += 1;
                let mut g = self
                    .0
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
                g.waiting_recv -= 1;
                inner = g;
            }
        }

        /// Receives a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.0.lock();
            if let Some(v) = inner.queue.pop_front() {
                if inner.waiting_send > 0 {
                    self.0.not_full.notify_one();
                }
                return Ok(v);
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// True if no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut inner = self.0.lock();
                inner.receivers -= 1;
                inner.receivers
            };
            if remaining == 0 {
                // Wake senders so they observe the disconnect.
                self.0.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn bounded_blocks_then_times_out() {
            let (tx, rx) = bounded::<u32>(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            match tx.send_timeout(3, Duration::from_millis(10)) {
                Err(SendTimeoutError::Timeout(3)) => {}
                other => panic!("expected timeout, got {other:?}"),
            }
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
            tx.send_timeout(3, Duration::from_millis(10)).unwrap();
            assert_eq!(rx.len(), 2);
        }

        #[test]
        fn disconnect_propagates_both_ways() {
            let (tx, rx) = bounded::<u32>(1);
            drop(rx);
            assert!(matches!(tx.send(1), Err(SendError(1))));

            let (tx, rx) = unbounded::<u32>();
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(7));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn cross_thread_handoff() {
            let (tx, rx) = bounded::<usize>(4);
            let producer = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            while let Ok(v) = rx.recv_timeout(Duration::from_secs(1)) {
                got.push(v);
                if got.len() == 100 {
                    break;
                }
            }
            producer.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }
    }
}
