//! Cross-thread-count determinism of the parallel kernels.
//!
//! The contract of `tasfar_nn::parallel` is that chunk boundaries depend
//! only on the problem size and per-chunk results combine in chunk order, so
//! every kernel must produce *bit-identical* output whether it runs on one
//! thread, four threads, or the machine default. These tests pin the global
//! thread count and compare raw `f64` bits.

use tasfar_nn::parallel::{reset_threads, set_threads};
use tasfar_nn::prelude::*;
use tasfar_nn::rng::Rng;

/// Runs `f` at a pinned thread count, then restores the default.
fn at_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    set_threads(n);
    let out = f();
    reset_threads();
    out
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Matmul family over shapes that exercise every chunk-boundary case:
/// single-row, non-divisible-by-chunk, and multi-chunk.
#[test]
fn matmul_family_is_thread_count_invariant() {
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (7, 13, 5),
        (33, 17, 9),
        (64, 48, 96),
    ] {
        let mut rng = Rng::new(0xB175 + m as u64);
        let a = Tensor::rand_normal(m, k, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(k, n, 0.0, 1.0, &mut rng);
        let at = Tensor::rand_normal(k, m, 0.0, 1.0, &mut rng);
        let bt = Tensor::rand_normal(n, k, 0.0, 1.0, &mut rng);

        let run = || {
            (
                bits(&a.matmul(&b)),
                bits(&at.t_matmul(&b)),
                bits(&a.matmul_t(&bt)),
            )
        };
        let one = at_threads(1, run);
        let four = at_threads(4, run);
        let default = run();
        assert_eq!(one, four, "{m}x{k}x{n}: 1 vs 4 threads");
        assert_eq!(one, default, "{m}x{k}x{n}: 1 vs default threads");
    }
}

/// A full TCN forward + backward pass (convolutions, residual path, dropout
/// masks from a cloned PRNG state) is bit-identical at any thread count.
#[test]
fn tcn_forward_backward_is_thread_count_invariant() {
    let mut rng = Rng::new(0x7C4B);
    let proto = Sequential::new()
        .add(TcnBlock::new(3, 8, 3, 1, 12, 0.2, &mut rng))
        .add(TcnBlock::new(8, 8, 3, 2, 12, 0.2, &mut rng))
        .add(GlobalAvgPool1d::new(8, 12))
        .add(Dense::new(8, 2, Init::XavierUniform, &mut rng));
    let x = Tensor::rand_normal(19, 36, 0.0, 1.0, &mut rng);
    let g = Tensor::rand_normal(19, 2, 0.0, 1.0, &mut rng);

    let run = || {
        let mut model = proto.clone();
        let y = model.forward(&x, Mode::Train);
        let dx = model.backward(&g);
        let mut grads: Vec<Vec<u64>> = Vec::new();
        model.visit_params(&mut |p| grads.push(bits(&p.grad)));
        (bits(&y), bits(&dx), grads)
    };
    let one = at_threads(1, run);
    let four = at_threads(4, run);
    let default = run();
    assert_eq!(one, four, "1 vs 4 threads");
    assert_eq!(one, default, "1 vs default threads");
}

/// Finite-difference gradient checks still pass with the parallel kernels
/// pinned to multiple threads.
#[test]
fn gradcheck_is_green_under_parallelism() {
    at_threads(4, || {
        let mut rng = Rng::new(0x96AD);
        let mut model = Sequential::new()
            .add(Conv1d::new(2, 4, 3, 1, 8, &mut rng))
            .add(Relu::new())
            .add(GlobalAvgPool1d::new(4, 8))
            .add(Dense::new(4, 1, Init::XavierUniform, &mut rng));
        let x = Tensor::rand_normal(5, 16, 0.0, 1.0, &mut rng);
        let y = Tensor::rand_normal(5, 1, 0.0, 1.0, &mut rng);
        let report = check_gradients(&mut model, &Mse, &x, &y, Mode::Eval, 1e-5, 1e-4).unwrap();
        assert!(report.checked > 0);
    });
}
