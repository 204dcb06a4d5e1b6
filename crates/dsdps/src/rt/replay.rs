//! Bounded-retry replay of failed tuple trees at the spout.
//!
//! With acking enabled the spout already learns about every failed or
//! timed-out tree; without replay it can only forward the bad news to user
//! code.  A [`ReplayBuffer`] caches the original emission of each tracked
//! message id so the runtime itself can re-emit a lost tree — up to
//! [`RtConfig::max_replays`](super::RtConfig::max_replays) times, with
//! exponential backoff (`replay_backoff × 2^attempt`) between attempts.
//!
//! The buffer lives in [`Shared`](super::Shared) (one per spout task), not
//! in the spout thread, so a supervisor-restarted spout keeps replaying
//! trees its predecessor emitted.  Every tracked message id stays in the
//! buffer until it is acked or its retries are exhausted, which is what the
//! shutdown conservation check counts as *in flight*:
//!
//! ```text
//! tracked == acked + permanently_failed + in_flight
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::component::{Emission, MessageId};
use crate::hash::FxHashMap;

/// What to do with a message whose tree just failed or timed out.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FailDecision {
    /// A replay is scheduled; do not surface the failure to user code yet.
    Scheduled {
        /// Attempt number this schedule will become (1 = first replay).
        attempt: u32,
        /// Backoff delay before the re-emission fires.
        delay: Duration,
    },
    /// Retries exhausted: the message is permanently failed.
    Exhausted {
        /// Replay attempts consumed before giving up.
        attempts: u32,
    },
    /// The message was never tracked here (e.g. replay enabled mid-stream);
    /// surface the failure as-is.
    Untracked,
    /// The message was doomed by an approximate-mode restore
    /// ([`ReplayBuffer::doom_tracked_before`]): drop it without replaying
    /// and count it as permanently failed, but do not surface the failure
    /// to user code — the skip is the reported approximation error.
    Doomed,
}

struct Entry {
    /// The cached emission, shared with the spout loop (never deep-cloned:
    /// caching and replaying both bump the refcount).
    emission: Arc<Emission>,
    /// Replays already attempted (0 = original emission only).
    attempts: u32,
    /// When the next replay may fire; `None` while a tree is in flight.
    retry_at: Option<Instant>,
    /// Runtime clock when the message was (re-)tracked; the approximate
    /// recovery mode dooms entries tracked before its snapshot cutoff.
    tracked_at_s: f64,
    /// Marked by [`ReplayBuffer::doom_tracked_before`]: the next failure of
    /// this in-flight tree is skipped instead of replayed.
    doomed: bool,
}

/// Replay state of one spout task.
#[derive(Default)]
pub(crate) struct ReplayBuffer {
    entries: FxHashMap<MessageId, Entry>,
    /// Entries whose `retry_at` is set.  Zero in the common case (nothing
    /// failed), which lets [`take_due`](Self::take_due) and
    /// [`next_due`](Self::next_due) skip walking every tracked entry.
    scheduled: usize,
}

impl ReplayBuffer {
    /// Records a freshly tracked emission.  Returns `true` when the message
    /// id is new (first attempt), `false` when an existing entry was
    /// refreshed (a restarted spout re-emitting the same id).
    pub(crate) fn on_track(&mut self, id: MessageId, emission: Arc<Emission>, now_s: f64) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.emission = emission;
                self.scheduled -= usize::from(e.retry_at.take().is_some());
                e.tracked_at_s = now_s;
                e.doomed = false;
                false
            }
            None => {
                self.entries.insert(
                    id,
                    Entry {
                        emission,
                        attempts: 0,
                        retry_at: None,
                        tracked_at_s: now_s,
                        doomed: false,
                    },
                );
                true
            }
        }
    }

    /// The message's tree completed: forget it.  Returns `true` when it was
    /// tracked.
    pub(crate) fn on_ack(&mut self, id: MessageId) -> bool {
        match self.entries.remove(&id) {
            Some(e) => {
                self.scheduled -= usize::from(e.retry_at.is_some());
                true
            }
            None => false,
        }
    }

    /// The message's tree failed or timed out: schedule a replay or give up.
    pub(crate) fn on_fail(
        &mut self,
        id: MessageId,
        max_replays: u32,
        backoff: Duration,
        now: Instant,
    ) -> FailDecision {
        match self.entries.get_mut(&id) {
            None => FailDecision::Untracked,
            Some(e) if e.doomed || e.attempts >= max_replays => {
                let (doomed, attempts) = (e.doomed, e.attempts);
                self.on_ack(id);
                if doomed {
                    FailDecision::Doomed
                } else {
                    FailDecision::Exhausted { attempts }
                }
            }
            Some(e) => {
                let delay = backoff * 2u32.saturating_pow(e.attempts).min(1 << 16);
                e.attempts += 1;
                self.scheduled += usize::from(e.retry_at.replace(now + delay).is_none());
                FailDecision::Scheduled {
                    attempt: e.attempts,
                    delay,
                }
            }
        }
    }

    /// Takes every message whose backoff has elapsed (with its attempt
    /// number); the entries stay tracked (marked in flight) until acked or
    /// failed again.
    pub(crate) fn take_due(&mut self, now: Instant) -> Vec<(MessageId, Arc<Emission>, u32)> {
        let mut due = Vec::new();
        if self.scheduled == 0 {
            return due;
        }
        for (id, e) in self.entries.iter_mut() {
            if matches!(e.retry_at, Some(at) if at <= now) {
                e.retry_at = None;
                due.push((*id, Arc::clone(&e.emission), e.attempts));
            }
        }
        self.scheduled -= due.len();
        due
    }

    /// Earliest scheduled replay, if any (lets an idle spout sleep exactly
    /// long enough).
    pub(crate) fn next_due(&self) -> Option<Instant> {
        if self.scheduled == 0 {
            return None;
        }
        self.entries.values().filter_map(|e| e.retry_at).min()
    }

    /// Dooms every message tracked before `cutoff_s` (an approximate-mode
    /// restore skipping pre-snapshot replays).  Entries already awaiting a
    /// scheduled replay are dropped immediately and counted in the returned
    /// total; in-flight entries are marked so their eventual failure or
    /// timeout yields [`FailDecision::Doomed`] instead of a replay.  Acks of
    /// doomed in-flight trees still complete normally.
    pub(crate) fn doom_tracked_before(&mut self, cutoff_s: f64) -> usize {
        let mut dropped = 0;
        self.entries.retain(|_, e| {
            if e.tracked_at_s >= cutoff_s {
                return true;
            }
            if e.retry_at.is_some() {
                dropped += 1;
                self.scheduled -= 1;
                false
            } else {
                e.doomed = true;
                true
            }
        });
        dropped
    }

    /// Messages still tracked: in flight or awaiting a replay.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamId;
    use crate::tuple::{Tuple, Value};

    fn emission(id: MessageId) -> Arc<Emission> {
        Arc::new(Emission {
            stream: StreamId::default(),
            tuple: Tuple::of([Value::from(id as i64)]),
            message_id: Some(id),
            direct_task: None,
            anchored: true,
        })
    }

    #[test]
    fn ack_forgets_and_fail_schedules() {
        let mut b = ReplayBuffer::default();
        let t0 = Instant::now();
        assert!(b.on_track(1, emission(1), 0.0));
        assert!(b.on_track(2, emission(2), 0.0));
        assert!(b.on_ack(1));
        assert!(!b.on_ack(1), "double ack is a no-op");
        assert_eq!(b.len(), 1);

        let d = b.on_fail(2, 3, Duration::from_millis(10), t0);
        assert_eq!(
            d,
            FailDecision::Scheduled {
                attempt: 1,
                delay: Duration::from_millis(10)
            }
        );
        assert!(b.take_due(t0).is_empty(), "backoff not elapsed");
        let due = b.take_due(t0 + Duration::from_millis(11));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0, 2);
        assert!(
            b.take_due(t0 + Duration::from_secs(10)).is_empty(),
            "taken entries are in flight, not due"
        );
        assert_eq!(b.len(), 1, "still tracked until acked");
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let mut b = ReplayBuffer::default();
        let t0 = Instant::now();
        let base = Duration::from_millis(10);
        b.on_track(7, emission(7), 0.0);
        b.on_fail(7, 10, base, t0);
        assert_eq!(b.next_due(), Some(t0 + base));
        b.take_due(t0 + base);
        b.on_fail(7, 10, base, t0);
        assert_eq!(b.next_due(), Some(t0 + base * 2), "second attempt waits 2x");
        b.take_due(t0 + base * 2);
        b.on_fail(7, 10, base, t0);
        assert_eq!(b.next_due(), Some(t0 + base * 4));
    }

    #[test]
    fn retries_exhaust() {
        let mut b = ReplayBuffer::default();
        let t0 = Instant::now();
        b.on_track(9, emission(9), 0.0);
        assert_eq!(
            b.on_fail(9, 2, Duration::ZERO, t0),
            FailDecision::Scheduled {
                attempt: 1,
                delay: Duration::ZERO
            },
            "replay 1"
        );
        let due = b.take_due(t0);
        assert_eq!(due[0].2, 1, "take_due reports the attempt number");
        assert_eq!(
            b.on_fail(9, 2, Duration::ZERO, t0),
            FailDecision::Scheduled {
                attempt: 2,
                delay: Duration::ZERO
            },
            "replay 2"
        );
        b.take_due(t0);
        assert_eq!(
            b.on_fail(9, 2, Duration::ZERO, t0),
            FailDecision::Exhausted { attempts: 2 }
        );
        assert!(b.is_empty(), "exhausted entries are dropped");
        assert_eq!(
            b.on_fail(9, 2, Duration::ZERO, t0),
            FailDecision::Untracked,
            "unknown ids are the caller's problem"
        );
    }

    #[test]
    fn doom_drops_scheduled_and_marks_in_flight() {
        let mut b = ReplayBuffer::default();
        let t0 = Instant::now();
        b.on_track(1, emission(1), 0.5); // in flight, pre-cutoff
        b.on_track(2, emission(2), 0.6); // will be awaiting a replay
        b.on_track(3, emission(3), 2.0); // post-cutoff, untouched
        b.on_fail(2, 5, Duration::from_millis(1), t0);

        assert_eq!(b.doom_tracked_before(1.0), 1, "scheduled replay dropped");
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.on_fail(1, 5, Duration::ZERO, t0),
            FailDecision::Doomed,
            "in-flight pre-cutoff failure is skipped"
        );
        assert!(matches!(
            b.on_fail(3, 5, Duration::ZERO, t0),
            FailDecision::Scheduled { .. }
        ));
        assert!(
            b.take_due(t0 + Duration::from_secs(1))
                .iter()
                .all(|d| d.0 == 3),
            "only the post-cutoff entry replays"
        );

        // Acks of doomed in-flight trees still complete normally.
        let mut b2 = ReplayBuffer::default();
        b2.on_track(9, emission(9), 0.0);
        b2.doom_tracked_before(1.0);
        assert!(b2.on_ack(9));
        assert!(b2.is_empty());
    }

    /// The scheduled count is what lets the spout loop skip the scan: it
    /// must equal the number of entries with a pending retry after every
    /// kind of transition.
    #[test]
    fn scheduled_count_tracks_pending_retries() {
        let mut b = ReplayBuffer::default();
        let t0 = Instant::now();
        let check = |b: &ReplayBuffer| {
            let pending = b.entries.values().filter(|e| e.retry_at.is_some()).count();
            assert_eq!(b.scheduled, pending);
        };
        for id in 1..=5 {
            b.on_track(id, emission(id), 0.0);
        }
        check(&b);
        assert!(b.next_due().is_none() && b.take_due(t0).is_empty());
        for id in 1..=4 {
            b.on_fail(id, 1, Duration::from_millis(5), t0);
        }
        b.on_fail(1, 1, Duration::from_millis(5), t0); // second failure while scheduled
        check(&b);
        b.on_ack(2); // acked while awaiting its replay
        b.on_track(3, emission(3), 1.0); // re-tracked while awaiting its replay
        check(&b);
        assert_eq!(b.take_due(t0 + Duration::from_secs(1)).len(), 1);
        check(&b);
        assert_eq!(b.scheduled, 0);
        b.on_fail(5, 1, Duration::ZERO, t0);
        assert_eq!(b.doom_tracked_before(10.0), 1);
        check(&b);
    }

    #[test]
    fn retrack_refreshes_entry() {
        let mut b = ReplayBuffer::default();
        let t0 = Instant::now();
        b.on_track(3, emission(3), 0.0);
        b.on_fail(3, 5, Duration::from_millis(1), t0);
        assert!(!b.on_track(3, emission(3), 1.0), "same id is not new");
        assert!(
            b.take_due(t0 + Duration::from_secs(1)).is_empty(),
            "retrack clears the pending replay"
        );
    }
}
