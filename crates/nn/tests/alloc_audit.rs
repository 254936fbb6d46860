//! Counting-allocator proof that the training hot paths are zero-allocation
//! in steady state: after a few warm-up iterations (arena buffers, layer
//! caches, optimizer state), repeated `train_step` / `forward_scratch` /
//! `backward_scratch` calls must never touch the heap.
//!
//! The audit pins `TASFAR_THREADS = 1`: the parallel runtime's pooled
//! dispatch allocates its job handle by design, while the inline path (one
//! thread) is allocation-free — and bit-identity across thread counts is
//! already pinned elsewhere, so auditing the single-thread path covers the
//! arithmetic all configurations share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use tasfar_nn::parallel::{reset_threads, set_threads};
use tasfar_nn::prelude::*;

/// Wraps the system allocator with a per-thread allocation counter.
/// Deallocations are free of charge: the audit is about *acquiring* memory
/// in the hot loop, and counting `alloc` + `realloc` catches exactly that.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// `set_threads` is process-global; serialize the tests that pin it.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn mlp_with_batchnorm(rng: &mut Rng) -> Sequential {
    Sequential::new()
        .add(Dense::new(4, 16, Init::HeNormal, rng))
        .add(BatchNorm1d::new(16))
        .add(Relu::new())
        .add(Dropout::new(0.2, rng))
        .add(Dense::new(16, 8, Init::HeNormal, rng))
        .add(Tanh::new())
        .add(Dense::new(8, 1, Init::XavierUniform, rng))
}

#[test]
fn train_step_is_allocation_free_after_warmup() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_threads(1);

    let mut rng = Rng::new(1);
    let mut model = mlp_with_batchnorm(&mut rng);
    let mut opt = Adam::new(0.01);
    let x = Tensor::rand_normal(32, 4, 0.0, 1.0, &mut rng);
    let y = Tensor::rand_normal(32, 1, 0.0, 1.0, &mut rng);
    let w: Vec<f64> = (0..32).map(|i| 1.0 + (i % 3) as f64).collect();
    let mut scratch = Scratch::new();

    for epoch in 0..5 {
        train_step(
            &mut model,
            &mut opt,
            &Mse,
            &x,
            &y,
            Some(&w),
            Mode::Train,
            epoch,
            &mut scratch,
        )
        .unwrap();
    }

    let before = alloc_count();
    for epoch in 5..25 {
        train_step(
            &mut model,
            &mut opt,
            &Mse,
            &x,
            &y,
            Some(&w),
            Mode::Train,
            epoch,
            &mut scratch,
        )
        .unwrap();
    }
    let delta = alloc_count() - before;
    reset_threads();
    assert_eq!(
        delta, 0,
        "steady-state train_step performed {delta} heap allocations"
    );
}

#[test]
fn tcn_train_step_is_allocation_free_after_warmup() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_threads(1);

    // The PDR shape: a 6→16 block (two 8-row register panels of output
    // channels, plus the k = 1 downsample) and a 16→16 dilation-2 block
    // over T = 20, with rank-4 adapters so every conv runs the `W_eff` path.
    let mut rng = Rng::new(2);
    let mut model = Sequential::new()
        .add(TcnBlock::new(6, 16, 3, 1, 20, 0.1, &mut rng))
        .add(TcnBlock::new(16, 16, 3, 2, 20, 0.1, &mut rng))
        .add(GlobalAvgPool1d::new(16, 20))
        .add(Dense::new(16, 2, Init::XavierUniform, &mut rng));
    assert_eq!(
        enable_adapters(&mut model, &AdapterConfig::rank(4), &mut rng),
        6
    );
    let mut opt = Sgd::with_options(0.01, 0.9, 1e-4);
    let x = Tensor::rand_normal(16, 6 * 20, 0.0, 1.0, &mut rng);
    let y = Tensor::rand_normal(16, 2, 0.0, 1.0, &mut rng);
    let mut scratch = Scratch::new();

    for epoch in 0..5 {
        train_step(
            &mut model,
            &mut opt,
            &Huber::new(1.0),
            &x,
            &y,
            None,
            Mode::Train,
            epoch,
            &mut scratch,
        )
        .unwrap();
    }

    let before = alloc_count();
    for epoch in 5..15 {
        train_step(
            &mut model,
            &mut opt,
            &Huber::new(1.0),
            &x,
            &y,
            None,
            Mode::Train,
            epoch,
            &mut scratch,
        )
        .unwrap();
    }
    let delta = alloc_count() - before;
    reset_threads();
    assert_eq!(
        delta, 0,
        "steady-state TCN train_step performed {delta} heap allocations"
    );
}

#[test]
fn forward_backward_scratch_are_allocation_free_after_warmup() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_threads(1);

    let mut rng = Rng::new(3);
    let mut model = mlp_with_batchnorm(&mut rng);
    let x = Tensor::rand_normal(24, 4, 0.0, 1.0, &mut rng);
    let g = Tensor::rand_normal(24, 1, 0.0, 1.0, &mut rng);
    let mut scratch = Scratch::new();

    for _ in 0..3 {
        let out = model.forward_scratch(&x, Mode::Train, &mut scratch);
        scratch.give(out);
        let dx = model.backward_scratch(&g, &mut scratch);
        scratch.give(dx);
    }

    let before = alloc_count();
    for _ in 0..20 {
        let out = model.forward_scratch(&x, Mode::Eval, &mut scratch);
        scratch.give(out);
        let out = model.forward_scratch(&x, Mode::Train, &mut scratch);
        scratch.give(out);
        let dx = model.backward_scratch(&g, &mut scratch);
        scratch.give(dx);
    }
    let delta = alloc_count() - before;
    reset_threads();
    assert_eq!(
        delta, 0,
        "steady-state forward/backward performed {delta} heap allocations"
    );
}

#[test]
fn blocked_gemm_packing_is_allocation_free_after_warmup() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_threads(1);

    // The MLP-sized audits above stay below the blocking cutoff; this one
    // drives the blocked driver proper (256³ is far above it) so the audit
    // covers panel packing. The first call grows the thread-local pack
    // buffers; afterwards every call must reuse them — including across an
    // interleaved smaller blocked shape, which must not shrink capacity.
    tasfar_nn::backend::set_backend(tasfar_nn::backend::BackendKind::Blocked);
    let mut rng = Rng::new(5);
    let a = Tensor::rand_normal(256, 256, 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(256, 256, 0.0, 1.0, &mut rng);
    let small_a = Tensor::rand_normal(64, 80, 0.0, 1.0, &mut rng);
    let small_b = Tensor::rand_normal(80, 72, 0.0, 1.0, &mut rng);
    let mut out = Tensor::zeros(256, 256);
    let mut small_out = Tensor::zeros(64, 72);
    a.matmul_into(&b, &mut out);
    a.t_matmul_into(&b, &mut out);
    a.matmul_t_into(&b, &mut out);
    small_a.matmul_into(&small_b, &mut small_out);

    let before = alloc_count();
    for _ in 0..5 {
        a.matmul_into(&b, &mut out);
        small_a.matmul_into(&small_b, &mut small_out);
        a.t_matmul_into(&b, &mut out);
        a.matmul_t_into(&b, &mut out);
    }
    let delta = alloc_count() - before;
    tasfar_nn::backend::reset_backend();
    reset_threads();
    assert_eq!(
        delta, 0,
        "steady-state blocked GEMM performed {delta} heap allocations"
    );
}

#[test]
fn arena_serves_steady_state_from_reuses() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_threads(1);

    let mut rng = Rng::new(4);
    let mut model = mlp_with_batchnorm(&mut rng);
    let x = Tensor::rand_normal(8, 4, 0.0, 1.0, &mut rng);
    let mut scratch = Scratch::new();
    for _ in 0..2 {
        let out = model.forward_scratch(&x, Mode::Eval, &mut scratch);
        scratch.give(out);
    }

    // Global counters are shared with concurrently running tests, so only
    // deltas that can't go the wrong way are asserted: this thread's steady
    // iterations add equal numbers of checkouts and reuses, so the reuse
    // counter must advance by at least this loop's checkout count.
    let before = tasfar_nn::scratch::stats();
    let iters = 10;
    for _ in 0..iters {
        let out = model.forward_scratch(&x, Mode::Eval, &mut scratch);
        scratch.give(out);
    }
    let after = tasfar_nn::scratch::stats();
    reset_threads();
    assert!(
        after.reuses >= before.reuses + iters,
        "steady-state checkouts must be served from the free lists \
         (reuses {} → {})",
        before.reuses,
        after.reuses
    );
    assert!(after.bytes_peak > 0);
}
