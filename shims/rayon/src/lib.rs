//! Minimal vendored stand-in for the `rayon` surface used by this workspace:
//!
//! * `slice.par_chunks_mut(n).for_each(..)` / `.enumerate().for_each(..)` —
//!   the drnn GEMM row-band parallelism;
//! * `(0..n).into_par_iter().for_each(..)` / `.map(..).collect::<Vec<_>>()` —
//!   index-range fan-out for batch evaluation and per-model experiments.
//!
//! Unlike the previous incarnation (which spawned a `thread::scope` and a
//! Mutex-per-item slot queue on every call), work now runs on a single
//! **persistent worker pool**: `available_parallelism() - 1` daemon threads
//! parked on a condvar, woken per job, claiming indices from an atomic chunk
//! cursor.  The submitting thread participates in the job, so small fan-outs
//! cost one wake/park round-trip instead of N thread spawns.
//!
//! Nested parallelism is handled by flattening: a task that itself calls
//! into this module runs its inner loop serially on the current thread
//! (matching rayon's "already inside the pool" behaviour closely enough for
//! GEMM-inside-batch-parallel workloads, without oversubscription).

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Persistent pool
// ---------------------------------------------------------------------------

thread_local! {
    /// True while this thread is executing pool work (worker threads always;
    /// the submitting thread while its job is live).  Nested `run` calls on
    /// such a thread execute inline instead of deadlocking on the job slot.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// `&dyn Fn(usize)` with its lifetime erased.  Sound because `run` does not
/// return until every index has been executed (`pending == 0`), so the
/// borrow outlives all uses.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One fan-out job: `count` indices claimed via `cursor`.
struct Job {
    task: TaskPtr,
    count: usize,
    cursor: AtomicUsize,
    pending: AtomicUsize,
    panicked: AtomicBool,
}

impl Job {
    /// Claims and runs indices until the cursor drains.  Panics in the task
    /// are caught and recorded so worker threads survive; the submitter
    /// re-raises after the job completes.
    fn work(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.count {
                return;
            }
            let task = unsafe { &*self.task.0 };
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            self.pending.fetch_sub(1, Ordering::Release);
        }
    }

    fn done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }
}

struct Slot {
    job: Option<Arc<Job>>,
    epoch: u64,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers wait here for a new epoch.
    work_cv: Condvar,
    /// Submitters wait here for job completion / slot availability.
    done_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    threads: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                job: None,
                epoch: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        // N-1 workers; the submitting thread is the N-th.
        for _ in 1..threads {
            let sh = shared.clone();
            std::thread::Builder::new()
                .name("rayon-shim-worker".into())
                .spawn(move || worker_loop(sh))
                .expect("spawn pool worker");
        }
        Pool { shared, threads }
    })
}

fn worker_loop(shared: Arc<Shared>) {
    IN_POOL.with(|f| f.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if slot.epoch != seen {
                    seen = slot.epoch;
                    if let Some(j) = slot.job.clone() {
                        break j;
                    }
                }
                slot = shared.work_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.work();
        if job.done() {
            // Lock-then-notify so a submitter between its final pending
            // check and its wait cannot miss the wakeup.
            drop(shared.slot.lock().unwrap_or_else(|e| e.into_inner()));
            shared.done_cv.notify_all();
        }
    }
}

/// The number of threads fan-out work is spread across.
pub fn current_num_threads() -> usize {
    pool().threads
}

/// Runs `task(i)` for every `i in 0..count`, distributing across the pool.
/// Returns when all indices have executed.  Panics (once) if any task
/// panicked.
fn run(count: usize, task: &(dyn Fn(usize) + Sync)) {
    if count == 0 {
        return;
    }
    let serial = count == 1 || IN_POOL.with(|f| f.get()) || pool().threads <= 1;
    if serial {
        for i in 0..count {
            task(i);
        }
        return;
    }

    let shared = &pool().shared;
    let job = Arc::new(Job {
        task: TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        }),
        count,
        cursor: AtomicUsize::new(0),
        pending: AtomicUsize::new(count),
        panicked: AtomicBool::new(false),
    });

    {
        let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        // Another thread may have a job in flight; queue behind it.
        while slot.job.is_some() {
            slot = shared.done_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
        slot.job = Some(job.clone());
        slot.epoch = slot.epoch.wrapping_add(1);
        shared.work_cv.notify_all();
    }

    // Participate, flattening any nested parallelism onto this thread.
    IN_POOL.with(|f| f.set(true));
    job.work();
    IN_POOL.with(|f| f.set(false));

    {
        let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        while !job.done() {
            slot = shared.done_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
        slot.job = None;
    }
    // Wake submitters queued on the slot.
    shared.done_cv.notify_all();

    if job.panicked.load(Ordering::Relaxed) {
        panic!("a parallel task panicked");
    }
}

/// Raw pointer that may cross threads (each index touches disjoint data).
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor that forces closures to capture the whole wrapper (field-
    /// precise capture of `.0` alone would reintroduce the raw pointer's
    /// `!Sync`).
    fn get(self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Slice surface: par_chunks_mut
// ---------------------------------------------------------------------------

/// Entry point trait, mirroring `rayon::prelude::ParallelSliceMut`.
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into parallelizable mutable chunks of `size`.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "par_chunks_mut: chunk size must be non-zero");
        ParChunksMut { data: self, size }
    }
}

/// Parallel iterator over mutable chunks.
pub struct ParChunksMut<'a, T: Send> {
    data: &'a mut [T],
    size: usize,
}

fn for_each_chunk<T: Send, F>(data: &mut [T], size: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Send + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunks = len.div_ceil(size);
    let base = SendPtr(data.as_mut_ptr());
    run(chunks, &|i| {
        let start = i * size;
        let end = (start + size).min(len);
        // SAFETY: indices are claimed exactly once, so chunk ranges are
        // disjoint; the borrow of `data` outlives `run`.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(i, chunk);
    });
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs each chunk with its index.
    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut {
            data: self.data,
            size: self.size,
        }
    }

    /// Runs `f` on every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Send + Sync,
    {
        for_each_chunk(self.data, self.size, |_, c| f(c));
    }
}

/// Enumerated parallel iterator over mutable chunks.
pub struct EnumerateChunksMut<'a, T: Send> {
    data: &'a mut [T],
    size: usize,
}

impl<T: Send> EnumerateChunksMut<'_, T> {
    /// Runs `f` on every `(index, chunk)` pair, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Send + Sync,
    {
        for_each_chunk(self.data, self.size, |i, c| f((i, c)));
    }
}

// ---------------------------------------------------------------------------
// Range surface: into_par_iter
// ---------------------------------------------------------------------------

/// Mirrors `rayon::iter::IntoParallelIterator` for the types we need.
pub trait IntoParallelIterator {
    /// The parallel iterator.
    type Iter;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            end: self.end.max(self.start),
        }
    }
}

/// Parallel iterator over a `usize` index range.
pub struct ParRange {
    start: usize,
    end: usize,
}

impl ParRange {
    /// Runs `f` on every index, in parallel.
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        let start = self.start;
        run(self.end - self.start, &|i| f(start + i));
    }

    /// Maps every index through `f`; terminate with
    /// [`collect`](ParRangeMap::collect).
    pub fn map<R: Send, F: Fn(usize) -> R + Sync>(self, f: F) -> ParRangeMap<R, F> {
        ParRangeMap {
            start: self.start,
            end: self.end,
            f,
            _r: std::marker::PhantomData,
        }
    }
}

/// A mapped parallel range, pending collection.
pub struct ParRangeMap<R, F> {
    start: usize,
    end: usize,
    f: F,
    _r: std::marker::PhantomData<R>,
}

impl<R: Send, F: Fn(usize) -> R + Sync> ParRangeMap<R, F> {
    /// Evaluates the map in parallel, preserving index order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let n = self.end - self.start;
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let base = SendPtr(out.as_mut_ptr());
        let start = self.start;
        let f = &self.f;
        run(n, &|i| {
            let v = f(start + i);
            // SAFETY: each index written exactly once; overwriting `None`
            // needs no drop.
            unsafe { std::ptr::write(base.get().add(i), Some(v)) };
        });
        out.into_iter()
            .map(|v| v.expect("parallel map slot unfilled"))
            .collect()
    }
}

/// Mirrors `rayon::prelude`.
pub mod prelude {
    pub use super::{IntoParallelIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn enumerated_chunks_see_their_own_rows() {
        let mut data = vec![0usize; 64];
        data.par_chunks_mut(8)
            .enumerate()
            .for_each(|(i, chunk)| chunk.iter_mut().for_each(|v| *v = i));
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 8);
        }
    }

    #[test]
    fn plain_for_each_touches_every_chunk() {
        let mut data = vec![1i64; 100];
        data.par_chunks_mut(7).for_each(|chunk| {
            for v in chunk {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 2));
    }

    #[test]
    fn uneven_tail_chunk_is_processed() {
        let mut data = [0u8; 10];
        data.par_chunks_mut(4).for_each(|chunk| chunk.fill(1));
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn par_range_for_each_covers_every_index() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        (0..100).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let out: Vec<usize> = (3..40).into_par_iter().map(|i| i * i).collect();
        assert_eq!(out.len(), 37);
        for (k, v) in out.iter().enumerate() {
            assert_eq!(*v, (k + 3) * (k + 3));
        }
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // deliberately tests an inverted range
    fn empty_range_is_a_noop() {
        let out: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
        (7..3).into_par_iter().for_each(|_| panic!("must not run"));
    }

    #[test]
    fn nested_parallelism_flattens_instead_of_deadlocking() {
        let total = AtomicUsize::new(0);
        (0..8).into_par_iter().for_each(|_| {
            (0..8).into_par_iter().for_each(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn sequential_jobs_reuse_the_pool() {
        for round in 0..50 {
            let mut data = vec![0usize; 97];
            data.par_chunks_mut(5)
                .for_each(|chunk| chunk.iter_mut().for_each(|v| *v = round));
            assert!(data.iter().all(|&v| v == round));
        }
    }

    #[test]
    fn task_panic_propagates_to_submitter() {
        let caught = std::panic::catch_unwind(|| {
            (0..16).into_par_iter().for_each(|i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
        // Pool must still be usable afterwards.
        let out: Vec<usize> = (0..10).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(out[9], 10);
    }
}
