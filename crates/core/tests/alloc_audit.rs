//! Counting-allocator proof that fused MC-dropout inference is
//! zero-allocation in steady state: after a warm-up call (arena buffers,
//! metric registrations, the model's stream buffer), repeated
//! [`McDropout::predict_into`] calls with a reused [`McPrediction`] must
//! never touch the heap.
//!
//! The audit pins one compute thread on its own test thread (`set_threads`
//! is a per-thread override): the parallel runtime's pooled dispatch
//! allocates its job handle by design, while the inline path is
//! allocation-free — and fused/unfused bit-identity across thread counts is
//! already pinned by `fused_mc.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tasfar_core::uncertainty::{McDropout, McPrediction};
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

fn mc_model(rng: &mut Rng) -> Sequential {
    Sequential::new()
        .add(Dense::new(3, 16, Init::HeNormal, rng))
        .add(Relu::new())
        .add(Dropout::new(0.2, rng))
        .add(Dense::new(16, 8, Init::HeNormal, rng))
        .add(Tanh::new())
        .add(Dropout::new(0.2, rng))
        .add(Dense::new(8, 2, Init::XavierUniform, rng))
}

#[test]
fn predict_into_is_allocation_free_after_warmup() {
    set_threads(1);

    let mut rng = Rng::new(1);
    let mut model = mc_model(&mut rng);
    let x = Tensor::rand_normal(12, 3, 0.0, 1.0, &mut rng);
    let est = McDropout::new(20).relative(true);
    let mut out = McPrediction::empty();

    // Warm-up: arena buffers, the model's fused stream buffer, the obs
    // metric registrations, and `out`'s own tensors all materialise here.
    for _ in 0..3 {
        est.predict_into(&mut model, &x, &mut out);
    }

    let before = alloc_count();
    for _ in 0..20 {
        est.predict_into(&mut model, &x, &mut out);
    }
    let delta = alloc_count() - before;
    reset_threads();
    assert_eq!(
        delta, 0,
        "steady-state predict_into performed {delta} heap allocations"
    );
}
