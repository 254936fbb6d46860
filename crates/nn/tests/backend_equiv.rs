//! Cross-backend equivalence: the public tensor API must produce
//! bit-identical results under `naive` and `blocked`, for every GEMM
//! variant, over shapes chosen to stress the blocked driver — non-square,
//! degenerate (0- and 1-sized dimensions), prime-sized, and large enough to
//! cross the blocking cutoff. The in-module tests in `backend::blocked`
//! exercise the kernels directly; this suite goes through `set_backend` and
//! the `Tensor` entry points, the path real callers take.
//!
//! Every test flips the process-global backend, so the suite serialises on
//! one mutex (tests within a binary run concurrently by default).

use std::sync::Mutex;
use tasfar_nn::backend::{self, BackendKind};
use tasfar_nn::rng::Rng;
use tasfar_nn::tensor::Tensor;

static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn rand_tensor(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    Tensor::rand_normal(rows, cols, 0.0, 1.0, rng)
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

/// Non-square, prime, and cutoff-crossing shapes. Degenerate 0-sized
/// dimensions are rejected by the `Tensor` constructors themselves, so the
/// degenerate coverage here is the 1-sized edge.
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 97, 1),
        (2, 3, 251),     // prime n, far below cutoff
        (17, 1, 64),     // k = 1: every output is a single product
        (61, 67, 71),    // all prime, just above the cutoff
        (64, 300, 64),   // two kc-blocks
        (200, 129, 77),  // multiple mc-slabs, ragged everywhere
        (256, 256, 256), // the bench shape
    ]
}

/// Runs `f` under both backends and returns the two results.
fn under_both(f: impl Fn() -> Tensor) -> (Tensor, Tensor) {
    backend::set_backend(BackendKind::Naive);
    let naive = f();
    backend::set_backend(BackendKind::Blocked);
    let blocked = f();
    backend::reset_backend();
    (naive, blocked)
}

#[test]
fn matmul_bits_match_across_backends() {
    let _g = lock();
    let mut rng = Rng::new(0xBE01);
    for (m, k, n) in shapes() {
        let a = rand_tensor(m, k, &mut rng);
        let b = rand_tensor(k, n, &mut rng);
        let (nv, bl) = under_both(|| a.matmul(&b));
        assert_bits_eq(&nv, &bl, &format!("matmul {m}x{k}x{n}"));
    }
}

#[test]
fn t_matmul_bits_match_across_backends() {
    let _g = lock();
    let mut rng = Rng::new(0xBE02);
    for (m, k, n) in shapes() {
        let a = rand_tensor(k, m, &mut rng);
        let b = rand_tensor(k, n, &mut rng);
        let (nv, bl) = under_both(|| a.t_matmul(&b));
        assert_bits_eq(&nv, &bl, &format!("t_matmul {m}x{k}x{n}"));
    }
}

#[test]
fn matmul_t_bits_match_across_backends() {
    let _g = lock();
    let mut rng = Rng::new(0xBE03);
    for (m, k, n) in shapes() {
        let a = rand_tensor(m, k, &mut rng);
        let b = rand_tensor(n, k, &mut rng);
        let (nv, bl) = under_both(|| a.matmul_t(&b));
        assert_bits_eq(&nv, &bl, &format!("matmul_t {m}x{k}x{n}"));
    }
}

#[test]
fn addmm_scaled_bits_match_across_backends() {
    let _g = lock();
    let mut rng = Rng::new(0xBE07);
    for (m, k, n) in shapes() {
        let a = rand_tensor(m, k, &mut rng);
        let b = rand_tensor(k, n, &mut rng);
        let base = rand_tensor(m, n, &mut rng);
        let (nv, bl) = under_both(|| {
            let mut out = base.clone();
            tasfar_nn::scratch::with(|scratch| {
                a.addmm_scaled_into(&b, 0.375, &mut out, scratch);
            });
            out
        });
        assert_bits_eq(&nv, &bl, &format!("addmm_scaled {m}x{k}x{n}"));
    }
}

/// Bit equality where any NaN matches any NaN (payloads are not part of the
/// contract); everything else, signed zeros included, must match exactly.
fn assert_bits_eq_nan(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: bit mismatch at {i}: {x:e} vs {y:e}"
        );
    }
}

/// A value drawn to stress the conv kernels' edge arithmetic: mostly
/// normals, with `-0.0`/`+0.0` (a padded product would flip a `-0.0` sum
/// to `+0.0`), subnormals, and, at rate `p_inf`, `±inf` (a padded
/// `inf·0` would turn a skipped tap into NaN).
fn edge_value(rng: &mut Rng, p_zero: f64, p_inf: f64) -> f64 {
    let u = rng.uniform(0.0, 1.0);
    let sign = if rng.bernoulli(0.5) { -1.0 } else { 1.0 };
    if u < p_zero {
        sign * 0.0
    } else if u < p_zero + 0.05 {
        sign * rng.uniform(0.0, 1.0) * 2e-310
    } else if u < p_zero + 0.05 + p_inf {
        sign * f64::INFINITY
    } else {
        rng.gaussian(0.0, 1.0)
    }
}

fn edge_tensor(rows: usize, cols: usize, rng: &mut Rng, p_zero: f64, p_inf: f64) -> Tensor {
    let v = (0..rows * cols)
        .map(|_| edge_value(rng, p_zero, p_inf))
        .collect();
    Tensor::from_vec(rows, cols, v)
}

#[test]
fn conv_layers_bits_match_across_backends() {
    use tasfar_nn::adapter::AdapterConfig;
    use tasfar_nn::layers::{Conv1d, Layer, Mode};
    let _g = lock();
    // Forward + backward through the Conv1d layer (the dispatch path the
    // TCN takes) over random geometries: channels past one register panel,
    // every kernel size and dilation, causal reach at or past the window
    // (`(k-1)·dil >= T`), batches across the 8-row backward chunk, and
    // adapters on and off (the `W_eff` path).
    let mut cases = Rng::new(0xBE04);
    for case in 0..160 {
        let in_ch = 1 + cases.below(20);
        let out_ch = 1 + cases.below(20);
        let kernel = 1 + cases.below(5);
        let dilation = 1 + cases.below(5);
        let t_len = 1 + cases.below(40);
        let batch = 1 + cases.below(70);
        let adapters = cases.bernoulli(0.3);
        // Every third case is zero-heavy (signed zeros everywhere, the
        // bias included); every fifth carries infinities.
        let p_zero = if case % 3 == 0 { 0.5 } else { 0.05 };
        let p_inf = if case % 5 == 0 { 0.01 } else { 0.0 };
        let seed = cases.u64();
        let run = || {
            let mut rng = Rng::new(seed);
            let mut conv = Conv1d::new(in_ch, out_ch, kernel, dilation, t_len, &mut rng);
            conv.visit_base_params(&mut |p| {
                let (r, c) = p.value.shape();
                p.value = edge_tensor(r, c, &mut rng, p_zero, p_inf);
            });
            if adapters {
                conv.attach_adapters(&AdapterConfig::rank(1 + rng.below(4)), &mut rng);
                conv.visit_params(&mut |p| {
                    let (r, c) = p.value.shape();
                    p.value = edge_tensor(r, c, &mut rng, p_zero, 0.0);
                });
            }
            let x = edge_tensor(batch, in_ch * t_len, &mut rng, p_zero, p_inf);
            let g = edge_tensor(batch, out_ch * t_len, &mut rng, p_zero, p_inf);
            let y = conv.forward(&x, Mode::Train);
            let dx = conv.backward(&g);
            let mut grads: Vec<Tensor> = Vec::new();
            conv.visit_params(&mut |p| grads.push(p.grad.clone()));
            (y, dx, grads)
        };
        backend::set_backend(BackendKind::Naive);
        let (y_n, dx_n, g_n) = run();
        backend::set_backend(BackendKind::Blocked);
        let (y_b, dx_b, g_b) = run();
        backend::reset_backend();
        let what = format!(
            "conv case {case}: {in_ch}->{out_ch} k={kernel} d={dilation} T={t_len} \
             batch={batch} adapters={adapters}"
        );
        assert_bits_eq_nan(&y_n, &y_b, &format!("{what} forward"));
        assert_bits_eq_nan(&dx_n, &dx_b, &format!("{what} grad_input"));
        for (i, (gn, gb)) in g_n.iter().zip(&g_b).enumerate() {
            assert_bits_eq_nan(gn, gb, &format!("{what} param grad {i}"));
        }
    }
}

#[test]
fn blocked_packing_reaches_steady_state_without_alloc_churn() {
    let _g = lock();
    // The pack buffers are thread-local and retained: after one warmup call
    // above the blocking cutoff, repeated calls must reuse them. There is no
    // counting allocator in this binary, so assert the observable contract
    // instead: results stay bit-identical call over call (buffers are
    // re-filled, never stale) including after an intervening *smaller*
    // blocked call that shrinks the packed extent.
    backend::set_backend(BackendKind::Blocked);
    let mut rng = Rng::new(0xBE05);
    let a = Tensor::rand_normal(256, 256, 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(256, 256, 0.0, 1.0, &mut rng);
    let small_a = Tensor::rand_normal(64, 80, 0.0, 1.0, &mut rng);
    let small_b = Tensor::rand_normal(80, 64, 0.0, 1.0, &mut rng);
    let mut out = Tensor::zeros(1, 1);
    a.matmul_into(&b, &mut out);
    let first = out.clone();
    for _ in 0..3 {
        let mut small_out = Tensor::zeros(1, 1);
        small_a.matmul_into(&small_b, &mut small_out);
        a.matmul_into(&b, &mut out);
        assert_bits_eq(&out, &first, "steady-state blocked matmul");
    }
    backend::reset_backend();
}

#[test]
fn dispatch_counters_attribute_to_active_backend() {
    let _g = lock();
    let mut rng = Rng::new(0xBE06);
    let a = Tensor::rand_normal(8, 8, 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(8, 8, 0.0, 1.0, &mut rng);

    backend::set_backend(BackendKind::Naive);
    let before = backend::stats();
    let _ = a.matmul(&b);
    let after = backend::stats();
    assert_eq!(after.naive_calls, before.naive_calls + 1);
    assert_eq!(after.blocked_calls, before.blocked_calls);

    backend::set_backend(BackendKind::Blocked);
    let before = backend::stats();
    let _ = a.matmul(&b);
    let after = backend::stats();
    assert_eq!(after.blocked_calls, before.blocked_calls + 1);
    assert_eq!(after.naive_calls, before.naive_calls);
    backend::reset_backend();
}
