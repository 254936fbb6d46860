//! A size-bucketed scratch arena for the training and inference hot paths.
//!
//! Steady-state forward/backward and fused MC-dropout inference run the same
//! shapes over and over; allocating a fresh `Vec` per op is pure overhead.
//! [`Scratch`] keeps returned buffers in power-of-two capacity buckets and
//! hands them back on the next checkout, so after one warm-up pass the hot
//! loops perform **zero** heap allocations (proven by the counting-allocator
//! tests in `tests/alloc_audit.rs`).
//!
//! The contract is deliberately loose — a checkout is *any* buffer with
//! sufficient capacity, resized and zeroed to the requested shape, so a
//! [`Scratch::take`] is observably identical to [`Tensor::zeros`]. Returning
//! a buffer ([`Scratch::give`]) is optional: an un-returned buffer is simply
//! freed by its `Drop`, never leaked.
//!
//! Arenas are plain `&mut` state (no locks, no `unsafe`): every layer and
//! the training loop thread one `&mut Scratch` through explicitly. Public
//! entry points that do not take an arena use the per-thread instance via
//! [`with`]; re-entrant use falls back to a fresh arena rather than
//! panicking.
//!
//! Global counters ([`stats`]) feed the `arena.{checkouts,reuses,bytes_peak}`
//! gauges in `tasfar-obs` and the kernel bench.

use crate::tensor::Tensor;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two capacity buckets (covers every `usize` capacity).
const N_BUCKETS: usize = usize::BITS as usize + 1;

static CHECKOUTS: AtomicU64 = AtomicU64::new(0);
static REUSES: AtomicU64 = AtomicU64::new(0);
static BYTES_PEAK: AtomicU64 = AtomicU64::new(0);

/// Process-wide arena counters, aggregated over every [`Scratch`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// Total buffer checkouts ([`Scratch::take`] / [`Scratch::take_vec`]).
    pub checkouts: u64,
    /// Checkouts served from a free list instead of the allocator.
    pub reuses: u64,
    /// Peak bytes resident in arena free lists at any point.
    pub bytes_peak: u64,
}

/// A snapshot of the process-wide arena counters.
pub fn stats() -> ScratchStats {
    ScratchStats {
        checkouts: CHECKOUTS.load(Ordering::Relaxed),
        reuses: REUSES.load(Ordering::Relaxed),
        bytes_peak: BYTES_PEAK.load(Ordering::Relaxed),
    }
}

/// Zeroes the process-wide arena counters (for tests and benchmarks that
/// measure one phase at a time).
pub fn reset_stats() {
    CHECKOUTS.store(0, Ordering::Relaxed);
    REUSES.store(0, Ordering::Relaxed);
    BYTES_PEAK.store(0, Ordering::Relaxed);
}

/// The bucket a returned buffer of capacity `cap >= 1` belongs to: buffers
/// in bucket `b` have capacity in `[2^b, 2^(b+1))`.
fn bucket_of_capacity(cap: usize) -> usize {
    usize::BITS as usize - 1 - cap.leading_zeros() as usize
}

/// The first bucket whose *every* member can hold `n` values:
/// `2^b >= n`, i.e. `b = ceil(log2(n))`.
fn first_fitting_bucket(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        usize::BITS as usize - (n - 1).leading_zeros() as usize
    }
}

/// A checkout/return buffer arena with power-of-two size bucketing.
///
/// See the [module docs](self) for the contract.
#[derive(Debug, Default)]
pub struct Scratch {
    /// `buckets[b]` holds free buffers with capacity in `[2^b, 2^(b+1))`.
    buckets: Vec<Vec<Vec<f64>>>,
    /// Bytes of capacity currently resident in the free lists.
    bytes_held: u64,
}

impl Scratch {
    /// An empty arena. The first checkouts allocate (warm-up); steady-state
    /// take/give cycles over the same shapes are allocation-free.
    pub fn new() -> Self {
        Scratch {
            buckets: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            bytes_held: 0,
        }
    }

    /// Checks out a zeroed `rows × cols` tensor, indistinguishable from
    /// [`Tensor::zeros`] but served from the free lists when possible.
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        let v = self.take_vec(rows * cols);
        Tensor::from_vec(rows, cols, v)
    }

    /// Checks out a zeroed length-`n` vector.
    pub fn take_vec(&mut self, n: usize) -> Vec<f64> {
        let mut v = self.take_vec_spare(n);
        v.resize(n, 0.0);
        v
    }

    /// Checks out an empty vector with capacity for at least `n` values.
    /// The caller fills it (e.g. via `extend`); unlike [`Scratch::take_vec`]
    /// nothing is prefilled.
    pub fn take_vec_spare(&mut self, n: usize) -> Vec<f64> {
        let mut v = self.checkout(n);
        v.clear();
        v
    }

    /// Checks out a `rows × cols` tensor with unspecified contents, for an
    /// output a kernel then assigns in full: a recycled buffer at least as
    /// long keeps its old values, so unlike [`Scratch::take`] no value is
    /// written here; only a shortfall past a buffer's old length is
    /// zero-filled. Also serves the `*_into` maps, which clear and refill
    /// their output in one pass.
    pub(crate) fn take_for_overwrite(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut v = self.checkout(rows * cols);
        v.resize(rows * cols, 0.0);
        Tensor::from_vec(rows, cols, v)
    }

    /// A buffer with capacity for at least `n` values, recycled when one
    /// fits (old length and contents intact) and freshly allocated
    /// otherwise; counted as one checkout.
    fn checkout(&mut self, n: usize) -> Vec<f64> {
        CHECKOUTS.fetch_add(1, Ordering::Relaxed);
        match self.pop_fitting(n) {
            Some(v) => {
                REUSES.fetch_add(1, Ordering::Relaxed);
                v
            }
            // Fresh allocations are rounded up to the bucket guarantee
            // (2^ceil(log2 n)); with capacity exactly `n` the buffer would
            // land one bucket below where same-size requests scan and
            // non-power-of-two shapes would never be reused.
            None => Vec::with_capacity(n.max(1).next_power_of_two()),
        }
    }

    /// Returns a tensor's buffer to the free lists.
    pub fn give(&mut self, t: Tensor) {
        self.give_vec(t.into_vec());
    }

    /// Returns a vector to the free lists. Zero-capacity vectors are
    /// dropped (there is nothing to reuse).
    pub fn give_vec(&mut self, v: Vec<f64>) {
        let cap = v.capacity();
        if cap == 0 {
            return;
        }
        self.bytes_held += (cap * std::mem::size_of::<f64>()) as u64;
        BYTES_PEAK.fetch_max(self.bytes_held, Ordering::Relaxed);
        self.buckets[bucket_of_capacity(cap)].push(v);
    }

    /// Pops a free buffer with capacity ≥ `n`, scanning buckets upward from
    /// the first one whose members are all large enough.
    fn pop_fitting(&mut self, n: usize) -> Option<Vec<f64>> {
        for bucket in &mut self.buckets[first_fitting_bucket(n)..] {
            if let Some(v) = bucket.pop() {
                debug_assert!(v.capacity() >= n);
                self.bytes_held -= (v.capacity() * std::mem::size_of::<f64>()) as u64;
                return Some(v);
            }
        }
        None
    }

    /// Number of buffers currently resident in the free lists.
    pub fn free_buffers(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Runs `f` with this thread's arena.
///
/// Public entry points that do not take an explicit `&mut Scratch`
/// (e.g. [`crate::layers::Layer::forward`]) route through here so their
/// buffers are reused across calls. A re-entrant call — `with` inside `with`
/// — receives a fresh temporary arena instead of panicking, trading reuse
/// for safety on that (cold, internal-misuse) path.
pub fn with<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_matches_zeros() {
        let mut s = Scratch::new();
        let t = s.take(3, 4);
        assert_eq!(t, Tensor::zeros(3, 4));
        // A dirtied, returned buffer comes back zeroed.
        let mut t = t;
        t.set(1, 2, 7.0);
        s.give(t);
        assert_eq!(s.take(3, 4), Tensor::zeros(3, 4));
    }

    #[test]
    fn take_for_overwrite_keeps_recycled_contents() {
        // A fresh buffer has nothing to keep: it comes back zeroed.
        let mut s = Scratch::new();
        assert_eq!(s.take_for_overwrite(2, 3), Tensor::zeros(2, 3));
        // A recycled buffer at least as long is reshaped, not rewritten.
        let mut t = s.take(2, 3);
        t.as_mut_slice().fill(7.0);
        s.give(t);
        let t = s.take_for_overwrite(3, 2);
        assert_eq!(t, Tensor::full(3, 2, 7.0));
        // A shorter one keeps its old prefix; only the shortfall is zeroed.
        let mut s = Scratch::new();
        let mut v = Vec::with_capacity(8);
        v.extend([5.0, 5.0]);
        s.give_vec(v);
        let t = s.take_for_overwrite(2, 2);
        assert_eq!(t.as_slice(), &[5.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn buffers_are_reused_not_reallocated() {
        let mut s = Scratch::new();
        let v = s.take_vec(100);
        let ptr = v.as_ptr();
        s.give_vec(v);
        let v2 = s.take_vec(100);
        assert_eq!(v2.as_ptr(), ptr, "same-size checkout must reuse the buffer");
        // A smaller request is also served by the same buffer (cap ≥ n).
        s.give_vec(v2);
        let v3 = s.take_vec(10);
        assert_eq!(v3.as_ptr(), ptr);
        assert_eq!(v3.len(), 10);
    }

    #[test]
    fn bucketing_serves_only_large_enough_buffers() {
        let mut s = Scratch::new();
        let small = s.take_vec(8);
        s.give_vec(small);
        // cap 8 lives in bucket 3; a request for 9 starts at bucket 4, so
        // the small buffer must NOT be returned (its capacity is too small).
        let v = s.take_vec(9);
        assert!(v.capacity() >= 9);
        assert_eq!(s.free_buffers(), 1, "small buffer stays in its bucket");
    }

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of_capacity(1), 0);
        assert_eq!(bucket_of_capacity(2), 1);
        assert_eq!(bucket_of_capacity(3), 1);
        assert_eq!(bucket_of_capacity(4), 2);
        assert_eq!(bucket_of_capacity(1024), 10);
        assert_eq!(first_fitting_bucket(0), 0);
        assert_eq!(first_fitting_bucket(1), 0);
        assert_eq!(first_fitting_bucket(2), 1);
        assert_eq!(first_fitting_bucket(3), 2);
        assert_eq!(first_fitting_bucket(4), 2);
        assert_eq!(first_fitting_bucket(5), 3);
        // Every bucket the scan starts at guarantees capacity ≥ n.
        for n in 1..200usize {
            let b = first_fitting_bucket(n);
            assert!(1usize << b >= n, "bucket {b} cannot guarantee {n}");
        }
    }

    #[test]
    fn stats_count_checkouts_and_reuses() {
        let before = stats();
        let mut s = Scratch::new();
        let v = s.take_vec(64);
        s.give_vec(v);
        let v = s.take_vec(64);
        s.give_vec(v);
        let after = stats();
        assert!(after.checkouts >= before.checkouts + 2);
        assert!(after.reuses > before.reuses);
        assert!(after.bytes_peak >= 64 * 8);
    }

    #[test]
    fn with_is_reentrant_safe() {
        let outer_ptr = with(|s| {
            let v = s.take_vec(32);
            let ptr = v.as_ptr() as usize;
            s.give_vec(v);
            // Re-entrant: gets a fresh arena, must not deadlock or panic.
            with(|inner| {
                let v = inner.take_vec(32);
                assert_eq!(v.len(), 32);
            });
            ptr
        });
        // The thread-local arena still serves its cached buffer afterwards.
        let again = with(|s| {
            let v = s.take_vec(32);
            let ptr = v.as_ptr() as usize;
            s.give_vec(v);
            ptr
        });
        assert_eq!(outer_ptr, again);
    }
}
