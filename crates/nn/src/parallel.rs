//! A zero-dependency deterministic parallel runtime.
//!
//! The adaptation loop is compute-bound on a handful of kernels (matmul,
//! causal convolution, the MC-dropout sweep, KDE accumulation). This module
//! gives them a shared, from-scratch thread pool — no `rayon`, nothing from
//! crates.io — with a determinism contract strong enough for a scientific
//! reproduction:
//!
//! * **Fixed chunking.** Work is split into chunks whose boundaries depend
//!   only on the problem size, never on the thread count. Each chunk either
//!   writes a disjoint slice of the output or produces a partial result that
//!   is combined *in chunk order* on the submitting thread.
//! * **Bit-identical results.** Because per-chunk computation is sequential
//!   and combination order is fixed, every kernel built on this module
//!   returns bitwise-identical floats for any thread count, including the
//!   inline single-threaded path.
//! * **Thread count control.** Each submitting thread reads its own
//!   setting: a [`set_threads`] override for that thread (the determinism
//!   tests and the benchmark harnesses pin one this way), else the process
//!   default, resolved once from the `TASFAR_THREADS` environment variable
//!   or else [`std::thread::available_parallelism`]. Only the submitting
//!   thread reads the count, and nested regions run inline on it, so its
//!   setting governs all of its work.
//!
//! ## Pool architecture
//!
//! A lazily-started set of persistent workers shares a queue of jobs behind
//! a `Mutex` + `Condvar`. A job is a chunk counter plus a lifetime-erased
//! pointer to the caller's closure; workers claim chunk indices with a
//! fetch-add, so load balancing is dynamic while outputs stay deterministic.
//! The submitting thread participates in chunk execution and then blocks
//! until the last chunk completes, which is what makes the borrowed-closure
//! pointer sound: the closure (and everything it borrows) outlives every
//! access. Panics inside chunks are caught, the first payload is kept, and
//! the submitter re-raises it after the job drains — a panicking kernel
//! behaves the same with or without threads.
//!
//! Nested calls (a parallel kernel invoked from inside a chunk) run inline
//! on the calling thread, so composition cannot deadlock and stays
//! deterministic.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// The process default thread count, resolved on first use.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// The number of threads a parallel region submitted from this thread may
/// use (including this thread).
///
/// Resolution order: this thread's [`set_threads`] override, else the
/// process default — `TASFAR_THREADS` (parsed as a positive integer), else
/// `available_parallelism()`, else 1 — read once per process.
pub fn current_threads() -> usize {
    match THREADS_OVERRIDE.with(Cell::get) {
        0 => default_threads(),
        n => n,
    }
}

/// Overrides the thread count for parallel regions this thread submits
/// (clamped to ≥ 1). Other threads keep their own setting.
///
/// Outputs are bit-identical for every setting; this only changes how the
/// work is scheduled. Intended for tests and benchmarks.
pub fn set_threads(n: usize) {
    THREADS_OVERRIDE.with(|o| o.set(n.max(1)));
}

/// Drops this thread's [`set_threads`] override, returning it to the
/// process default.
pub fn reset_threads() {
    THREADS_OVERRIDE.with(|o| o.set(0));
}

fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        threads_from_env().unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

fn threads_from_env() -> Option<usize> {
    let raw = std::env::var("TASFAR_THREADS").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

thread_local! {
    /// This thread's [`set_threads`] override; 0 means none.
    static THREADS_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// True on pool workers and on a submitter while it runs chunks; nested
    /// parallel calls under this flag execute inline.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
    /// This thread's pool worker index, or `usize::MAX` off the pool. Lets
    /// chunk accounting attribute work to a specific worker.
    static WORKER_INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
}

// ----- pool instrumentation -------------------------------------------------
//
// Always-on relaxed counters observing how work was *scheduled*. They are
// deliberately kept outside the determinism contract: chunk outputs are
// bit-identical for any thread count, so who ran a chunk is free to vary and
// these numbers may differ between runs (except under `TASFAR_THREADS=1`,
// where everything is inline).

/// Parallel regions submitted to the worker pool.
static STAT_JOBS_SUBMITTED: AtomicU64 = AtomicU64::new(0);
/// Parallel regions executed inline (1 thread, 1 chunk, or nested).
static STAT_INLINE_REGIONS: AtomicU64 = AtomicU64::new(0);
/// Total chunks executed (inline and pooled).
static STAT_CHUNKS_TOTAL: AtomicU64 = AtomicU64::new(0);
/// Pooled chunks executed by the submitting thread itself.
static STAT_SUBMITTER_CHUNKS: AtomicU64 = AtomicU64::new(0);
/// Pooled chunks executed by each worker, indexed by worker id.
// A const item as the repeat operand (not inline-const, which is post-MSRV):
// each array element gets a fresh atomic.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_COUNTER: AtomicU64 = AtomicU64::new(0);
static STAT_WORKER_CHUNKS: [AtomicU64; MAX_WORKERS] = [ZERO_COUNTER; MAX_WORKERS];
/// Workers ever spawned (persistent; never shrinks).
static STAT_WORKERS_SPAWNED: AtomicU64 = AtomicU64::new(0);
/// High-water mark of the job queue depth — the pool saturation gauge.
static STAT_MAX_QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);

/// A point-in-time snapshot of the pool counters (see [`pool_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel regions handed to the worker pool.
    pub jobs_submitted: u64,
    /// Parallel regions that ran inline instead (single thread, single
    /// chunk, or nested inside another region).
    pub inline_regions: u64,
    /// Chunks executed in total, on any thread.
    pub chunks_total: u64,
    /// Pooled chunks the submitting thread executed itself.
    pub submitter_chunks: u64,
    /// Pooled chunks executed by each live worker (per-worker utilization);
    /// length equals the number of workers ever spawned.
    pub worker_chunks: Vec<u64>,
    /// Persistent workers spawned so far.
    pub workers_spawned: u64,
    /// High-water mark of simultaneously queued jobs (saturation gauge).
    pub max_queue_depth: u64,
}

/// Reads the pool's instrumentation counters.
///
/// The counters are always on (one relaxed atomic add per event) and purely
/// observational — they never influence scheduling or results.
pub fn pool_stats() -> PoolStats {
    let workers_spawned = STAT_WORKERS_SPAWNED.load(Ordering::Relaxed);
    let worker_chunks = STAT_WORKER_CHUNKS[..(workers_spawned as usize).min(MAX_WORKERS)]
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    PoolStats {
        jobs_submitted: STAT_JOBS_SUBMITTED.load(Ordering::Relaxed),
        inline_regions: STAT_INLINE_REGIONS.load(Ordering::Relaxed),
        chunks_total: STAT_CHUNKS_TOTAL.load(Ordering::Relaxed),
        submitter_chunks: STAT_SUBMITTER_CHUNKS.load(Ordering::Relaxed),
        worker_chunks,
        workers_spawned,
        max_queue_depth: STAT_MAX_QUEUE_DEPTH.load(Ordering::Relaxed),
    }
}

/// Zeroes the activity counters (the spawned-worker count is kept — workers
/// are persistent). For benchmark harnesses measuring one phase at a time.
pub fn reset_pool_stats() {
    STAT_JOBS_SUBMITTED.store(0, Ordering::Relaxed);
    STAT_INLINE_REGIONS.store(0, Ordering::Relaxed);
    STAT_CHUNKS_TOTAL.store(0, Ordering::Relaxed);
    STAT_SUBMITTER_CHUNKS.store(0, Ordering::Relaxed);
    for c in &STAT_WORKER_CHUNKS {
        c.store(0, Ordering::Relaxed);
    }
    STAT_MAX_QUEUE_DEPTH.store(0, Ordering::Relaxed);
}

/// One submitted parallel region.
struct Job {
    /// Lifetime-erased pointer to the caller's `Fn(chunk_index)`. Only valid
    /// while the submitter is blocked in [`parallel_for_each_chunk`].
    task: *const (dyn Fn(usize) + Sync),
    n_chunks: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Chunks not yet finished.
    pending: AtomicUsize,
    /// Helper slots left (submitter participates outside this budget).
    slots: AtomicUsize,
    /// Whether any chunk panicked. Per-job state (a fresh `Job` is allocated
    /// for every submission), so one panicked region can never taint the
    /// next — the pool stays reusable after `resume_unwind`.
    panicked: AtomicBool,
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `task` is only dereferenced between submission and the submitter's
// completion wait; the submitter keeps the closure alive for that entire
// window, and the closure is `Sync` so shared calls from many threads are
// allowed.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs chunks until none are left.
    fn run_chunks(&self) {
        let worker = WORKER_INDEX.with(|idx| idx.get());
        loop {
            let c = self.next.fetch_add(1, Ordering::SeqCst);
            if c >= self.n_chunks {
                return;
            }
            STAT_CHUNKS_TOTAL.fetch_add(1, Ordering::Relaxed);
            match STAT_WORKER_CHUNKS.get(worker) {
                Some(slot) => slot.fetch_add(1, Ordering::Relaxed),
                None => STAT_SUBMITTER_CHUNKS.fetch_add(1, Ordering::Relaxed),
            };
            // SAFETY: see the `Send`/`Sync` impls above.
            let f = unsafe { &*self.task };
            let result = catch_unwind(AssertUnwindSafe(|| f(c)));
            if let Err(e) = result {
                self.panicked.store(true, Ordering::SeqCst);
                let mut slot = self.payload.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
            if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                *self.done.lock().unwrap_or_else(|e| e.into_inner()) = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Tries to take one helper slot (workers only).
    fn try_acquire_slot(&self) -> bool {
        let mut cur = self.slots.load(Ordering::SeqCst);
        while cur > 0 {
            match self
                .slots
                .compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }
}

struct PoolState {
    queue: VecDeque<Arc<Job>>,
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    cv: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            spawned: 0,
        }),
        cv: Condvar::new(),
    })
}

/// Hard cap on pool size — a backstop against absurd `TASFAR_THREADS`.
const MAX_WORKERS: usize = 64;

fn worker_loop(worker_index: usize) {
    IN_PARALLEL.with(|f| f.set(true));
    WORKER_INDEX.with(|idx| idx.set(worker_index));
    let pool = pool();
    loop {
        let job = {
            let mut state = pool.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                let picked = state
                    .queue
                    .iter()
                    .find(|j| j.next.load(Ordering::SeqCst) < j.n_chunks && j.try_acquire_slot())
                    .cloned();
                if let Some(j) = picked {
                    break j;
                }
                state = pool.cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.run_chunks();
    }
}

/// Runs `f(chunk_index)` for every `0 <= chunk_index < n_chunks`, possibly
/// on multiple threads.
///
/// `f` must be safe to call concurrently for *different* chunk indices; each
/// index is executed exactly once. When the effective thread count is 1 (or
/// the call is nested inside another parallel region) the chunks run inline
/// in index order — the deterministic reference path.
///
/// Panics raised inside `f` are re-raised on the calling thread with their
/// original payload.
pub fn parallel_for_each_chunk<F>(n_chunks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if n_chunks == 0 {
        return;
    }
    let threads = current_threads().min(n_chunks);
    let nested = IN_PARALLEL.with(|flag| flag.get());
    if threads <= 1 || n_chunks == 1 || nested {
        STAT_INLINE_REGIONS.fetch_add(1, Ordering::Relaxed);
        STAT_CHUNKS_TOTAL.fetch_add(n_chunks as u64, Ordering::Relaxed);
        for c in 0..n_chunks {
            f(c);
        }
        return;
    }
    STAT_JOBS_SUBMITTED.fetch_add(1, Ordering::Relaxed);

    let local: *const (dyn Fn(usize) + Sync) = &f;
    // SAFETY: erasing the closure's borrow lifetime is sound because this
    // function does not return until every chunk has completed, so the
    // pointer is never dereferenced after `f` (or its borrows) die.
    let task: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<_, *const (dyn Fn(usize) + Sync)>(local) };
    let job = Arc::new(Job {
        task,
        n_chunks,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(n_chunks),
        slots: AtomicUsize::new((threads - 1).min(MAX_WORKERS)),
        panicked: AtomicBool::new(false),
        payload: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });

    let pool = pool();
    {
        let mut state = pool.state.lock().unwrap_or_else(|e| e.into_inner());
        let want = (threads - 1).min(MAX_WORKERS);
        while state.spawned < want {
            let worker_index = state.spawned;
            thread::Builder::new()
                .name(format!("tasfar-worker-{worker_index}"))
                .spawn(move || worker_loop(worker_index))
                .expect("parallel: failed to spawn worker thread");
            state.spawned += 1;
            STAT_WORKERS_SPAWNED.store(state.spawned as u64, Ordering::Relaxed);
        }
        state.queue.push_back(job.clone());
        STAT_MAX_QUEUE_DEPTH.fetch_max(state.queue.len() as u64, Ordering::Relaxed);
        pool.cv.notify_all();
    }

    // The submitter works too; nested parallel calls under it run inline.
    IN_PARALLEL.with(|flag| flag.set(true));
    job.run_chunks();
    IN_PARALLEL.with(|flag| flag.set(false));

    // Wait for helpers to drain the remaining chunks.
    {
        let mut finished = job.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*finished {
            finished = job
                .done_cv
                .wait(finished)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
    // Retire the job from the queue (workers skip exhausted jobs, but don't
    // let the queue grow without bound).
    {
        let mut state = pool.state.lock().unwrap_or_else(|e| e.into_inner());
        state.queue.retain(|j| !Arc::ptr_eq(j, &job));
    }
    if job.panicked.load(Ordering::SeqCst) {
        let payload = job
            .payload
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .unwrap_or_else(|| Box::new("parallel chunk panicked"));
        std::panic::resume_unwind(payload);
    }
}

/// Runs `f(chunk_index)` for each chunk and collects the results in chunk
/// order. The combination order is fixed, so reductions built on this are
/// deterministic for any thread count.
pub fn map_chunks<T, F>(n_chunks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n_chunks).map(|_| None).collect());
    parallel_for_each_chunk(n_chunks, |c| {
        let value = f(c);
        results.lock().unwrap_or_else(|e| e.into_inner())[c] = Some(value);
    });
    results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|v| v.expect("map_chunks: chunk did not produce a value"))
        .collect()
}

/// Number of chunks covering `n_items` at `chunk_size` items per chunk.
pub fn chunk_count(n_items: usize, chunk_size: usize) -> usize {
    assert!(chunk_size > 0, "chunk_count: chunk_size must be positive");
    n_items.div_ceil(chunk_size)
}

/// The `[start, end)` item range of chunk `c`. Boundaries depend only on
/// `n_items` and `chunk_size` — never on the thread count.
pub fn chunk_bounds(n_items: usize, chunk_size: usize, c: usize) -> Range<usize> {
    let start = c * chunk_size;
    let end = (start + chunk_size).min(n_items);
    start..end
}

/// A raw pointer that may cross threads. Used to hand each chunk a disjoint
/// sub-slice of one output buffer.
struct SendPtr(*mut f64);
// SAFETY: every user derives non-overlapping ranges from fixed chunk
// boundaries, so no two threads touch the same element.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Splits `out` into fixed row chunks (`rows_per_chunk` rows of `row_width`
/// elements each) and runs `f(rows, chunk_slice)` per chunk, where `rows` is
/// the row range the slice covers. Rows are disjoint across chunks, so this
/// is safe to parallelise, and per-row results are bit-identical regardless
/// of the thread count.
///
/// # Panics
/// Panics if `out.len()` is not `rows * row_width` for a whole number of
/// rows.
pub fn for_each_row_chunk<F>(out: &mut [f64], row_width: usize, rows_per_chunk: usize, f: F)
where
    F: Fn(Range<usize>, &mut [f64]) + Sync,
{
    assert!(
        row_width > 0,
        "for_each_row_chunk: row_width must be positive"
    );
    assert_eq!(
        out.len() % row_width,
        0,
        "for_each_row_chunk: buffer is not a whole number of rows"
    );
    let rows = out.len() / row_width;
    let n_chunks = chunk_count(rows, rows_per_chunk.max(1));
    let base = SendPtr(out.as_mut_ptr());
    // Borrow the wrapper itself: edition-2021 closures would otherwise
    // capture the raw-pointer *field*, which is neither Send nor Sync.
    let base = &base;
    parallel_for_each_chunk(n_chunks, |c| {
        let range = chunk_bounds(rows, rows_per_chunk.max(1), c);
        // SAFETY: ranges from `chunk_bounds` are disjoint and in-bounds, so
        // each chunk owns its sub-slice exclusively.
        let slice = unsafe {
            std::slice::from_raw_parts_mut(
                base.0.add(range.start * row_width),
                (range.end - range.start) * row_width,
            )
        };
        f(range, slice);
    });
}

/// [`for_each_row_chunk`] with a per-chunk auxiliary buffer: chunk `c`
/// additionally receives the disjoint slice
/// `aux[c * aux_per_chunk .. (c + 1) * aux_per_chunk]`, for kernels that
/// produce per-chunk partial results (e.g. weight-gradient accumulators)
/// without allocating. The caller combines the partials in chunk order
/// afterwards, which keeps reductions bit-identical for any thread count.
///
/// # Panics
/// Panics if `out.len()` is not a whole number of rows, or `aux.len()` is
/// not exactly `n_chunks * aux_per_chunk`.
pub fn for_each_row_chunk_with_aux<F>(
    out: &mut [f64],
    row_width: usize,
    rows_per_chunk: usize,
    aux: &mut [f64],
    aux_per_chunk: usize,
    f: F,
) where
    F: Fn(Range<usize>, &mut [f64], &mut [f64]) + Sync,
{
    assert!(
        row_width > 0,
        "for_each_row_chunk_with_aux: row_width must be positive"
    );
    assert_eq!(
        out.len() % row_width,
        0,
        "for_each_row_chunk_with_aux: buffer is not a whole number of rows"
    );
    let rows = out.len() / row_width;
    let n_chunks = chunk_count(rows, rows_per_chunk.max(1));
    assert_eq!(
        aux.len(),
        n_chunks * aux_per_chunk,
        "for_each_row_chunk_with_aux: aux buffer must hold {aux_per_chunk} values per chunk"
    );
    let base = SendPtr(out.as_mut_ptr());
    let aux_base = SendPtr(aux.as_mut_ptr());
    // Borrow the wrappers themselves (see `for_each_row_chunk`).
    let base = &base;
    let aux_base = &aux_base;
    parallel_for_each_chunk(n_chunks, |c| {
        let range = chunk_bounds(rows, rows_per_chunk.max(1), c);
        // SAFETY: ranges from `chunk_bounds` are disjoint and in-bounds, and
        // aux slices are indexed by the chunk id, so each chunk owns both of
        // its sub-slices exclusively.
        let (slice, aux_slice) = unsafe {
            (
                std::slice::from_raw_parts_mut(
                    base.0.add(range.start * row_width),
                    (range.end - range.start) * row_width,
                ),
                std::slice::from_raw_parts_mut(aux_base.0.add(c * aux_per_chunk), aux_per_chunk),
            )
        };
        f(range, slice, aux_slice);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` under a forced thread count, restoring the default after.
    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        set_threads(n);
        let out = f();
        reset_threads();
        out
    }

    #[test]
    fn chunk_geometry() {
        assert_eq!(chunk_count(10, 4), 3);
        assert_eq!(chunk_bounds(10, 4, 0), 0..4);
        assert_eq!(chunk_bounds(10, 4, 2), 8..10);
        assert_eq!(chunk_count(0, 4), 0);
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        for threads in [1, 2, 4, 7] {
            with_threads(threads, || {
                let counts: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
                parallel_for_each_chunk(23, |c| {
                    counts[c].fetch_add(1, Ordering::SeqCst);
                });
                for c in &counts {
                    assert_eq!(c.load(Ordering::SeqCst), 1);
                }
            });
        }
    }

    #[test]
    fn map_chunks_preserves_order() {
        for threads in [1, 3, 8] {
            let got = with_threads(threads, || map_chunks(17, |c| c * c));
            let want: Vec<usize> = (0..17).map(|c| c * c).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn row_chunks_cover_disjointly() {
        for threads in [1, 4] {
            with_threads(threads, || {
                let mut out = vec![0.0; 7 * 3];
                for_each_row_chunk(&mut out, 3, 2, |rows, slice| {
                    for (k, row) in rows.clone().enumerate() {
                        for j in 0..3 {
                            slice[k * 3 + j] = (row * 10 + j) as f64;
                        }
                    }
                });
                for row in 0..7 {
                    for j in 0..3 {
                        assert_eq!(out[row * 3 + j], (row * 10 + j) as f64);
                    }
                }
            });
        }
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        with_threads(4, || {
            let total = AtomicUsize::new(0);
            parallel_for_each_chunk(8, |_| {
                parallel_for_each_chunk(8, |_| {
                    total.fetch_add(1, Ordering::SeqCst);
                });
            });
            assert_eq!(total.load(Ordering::SeqCst), 64);
        });
    }

    #[test]
    fn panic_payload_survives_the_pool() {
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            parallel_for_each_chunk(8, |c| {
                if c == 5 {
                    panic!("chunk five exploded");
                }
            });
        });
        reset_threads();
        let err = result.expect_err("the panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("chunk five exploded"), "payload was {msg:?}");
    }

    /// Satellite regression: a panicked job must not wedge the pool. The
    /// workers stay alive, the queue is drained, and both ordinary and
    /// panicking jobs submitted *afterwards* behave exactly like a fresh
    /// pool (the panic flag is per-job and cannot stick).
    #[test]
    fn pool_is_reusable_after_a_panicked_job() {
        set_threads(4);

        let first = std::panic::catch_unwind(|| {
            parallel_for_each_chunk(8, |c| {
                if c == 3 {
                    panic!("first job exploded");
                }
            });
        });
        assert!(first.is_err(), "the first panic must propagate");

        // An ordinary job right after the panicked one must run all chunks
        // and return correct, ordered results.
        let got = map_chunks(16, |c| c * 2);
        let want: Vec<usize> = (0..16).map(|c| c * 2).collect();
        assert_eq!(got, want, "pool must execute post-panic jobs correctly");

        // A second panicking job still reports *its own* payload — the
        // panicked flag did not leak from the first job.
        let second = std::panic::catch_unwind(|| {
            parallel_for_each_chunk(8, |c| {
                if c == 5 {
                    panic!("second job exploded");
                }
            });
        });
        let err = second.expect_err("the second panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("second job exploded"), "payload was {msg:?}");

        // And the pool still works after the second panic too.
        let got = map_chunks(9, |c| c + 1);
        let want: Vec<usize> = (1..=9).collect();
        assert_eq!(got, want);

        reset_threads();
    }

    #[test]
    fn pool_stats_observe_inline_and_pooled_regions() {
        // Other test threads may touch the pool concurrently, so assertions
        // are lower bounds on the deltas, not exact counts.
        set_threads(1);
        let before = pool_stats();
        parallel_for_each_chunk(5, |_| {});
        let after = pool_stats();
        assert!(after.inline_regions > before.inline_regions);
        assert!(after.chunks_total >= before.chunks_total + 5);

        set_threads(4);
        let before = pool_stats();
        parallel_for_each_chunk(16, |_| {});
        let after = pool_stats();
        assert!(after.jobs_submitted > before.jobs_submitted);
        assert!(after.chunks_total >= before.chunks_total + 16);
        assert!(after.workers_spawned >= 3);
        assert_eq!(after.worker_chunks.len(), after.workers_spawned as usize);
        assert!(after.max_queue_depth >= 1);
        reset_threads();
    }

    #[test]
    fn set_threads_clamps_to_one() {
        set_threads(0);
        assert_eq!(current_threads(), 1);
        reset_threads();
    }

    #[test]
    fn thread_overrides_are_per_thread() {
        // A sets 1, then B sets 3; each still reads its own setting, and a
        // thread with no override reads the process default.
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = thread::scope(|s| {
            let a = s.spawn(|| {
                set_threads(1);
                barrier.wait();
                barrier.wait();
                current_threads()
            });
            let b = s.spawn(|| {
                barrier.wait();
                set_threads(3);
                barrier.wait();
                current_threads()
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a, b), (1, 3));
        let fresh = thread::spawn(current_threads).join().unwrap();
        assert_eq!(fresh, default_threads());
    }
}
