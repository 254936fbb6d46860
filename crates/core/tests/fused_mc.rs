//! Equivalence suite for the fused batched MC-dropout path.
//!
//! [`McDropout::predict`] runs the `T` stochastic passes as one batched
//! forward; [`McDropout::predict_unfused`] runs them one by one. The model
//! contract says the two are bit-identical — same dropout mask bits drawn
//! from the same pre-split per-pass streams, same accumulation order — so
//! every output (point, MC mean, std, uncertainty) and the model's
//! post-call RNG state must match exactly, at any thread count.

use tasfar_core::uncertainty::{McDropout, McPrediction};
use tasfar_nn::parallel::{reset_threads, set_threads};
use tasfar_nn::prelude::*;

fn at_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    set_threads(n);
    let out = f();
    reset_threads();
    out
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

fn assert_prediction_bits_eq(a: &McPrediction, b: &McPrediction) {
    assert_bits_eq(&a.point, &b.point, "point");
    assert_bits_eq(&a.mc_mean, &b.mc_mean, "mc_mean");
    assert_bits_eq(&a.std, &b.std, "std");
    assert_eq!(a.uncertainty.len(), b.uncertainty.len(), "uncertainty: len");
    for (i, (x, y)) in a.uncertainty.iter().zip(&b.uncertainty).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "uncertainty: sample {i}");
    }
}

fn mlp(rng: &mut Rng, p: f64) -> Sequential {
    Sequential::new()
        .add(Dense::new(3, 16, Init::HeNormal, rng))
        .add(Relu::new())
        .add(Dropout::new(p, rng))
        .add(Dense::new(16, 8, Init::HeNormal, rng))
        .add(Tanh::new())
        .add(Dropout::new(p, rng))
        .add(Dense::new(8, 2, Init::XavierUniform, rng))
}

fn batchnorm_model(rng: &mut Rng) -> Sequential {
    Sequential::new()
        .add(Dense::new(3, 12, Init::HeNormal, rng))
        .add(BatchNorm1d::new(12))
        .add(Relu::new())
        .add(Dropout::new(0.25, rng))
        .add(Dense::new(12, 1, Init::XavierUniform, rng))
}

fn tcn_model(rng: &mut Rng) -> Sequential {
    // Two blocks → four dropout layers, plus a dense head.
    Sequential::new()
        .add(TcnBlock::new(2, 4, 3, 1, 10, 0.2, rng))
        .add(TcnBlock::new(4, 4, 3, 2, 10, 0.2, rng))
        .add(Dense::new(40, 2, Init::XavierUniform, rng))
}

/// Core check: clone the model, run fused on one copy and unfused on the
/// other, and demand bitwise-equal outputs *and* bitwise-equal post-call
/// behaviour (the RNG advancement left behind must match too).
fn check_equivalence(model: &Sequential, x: &Tensor, est: &McDropout) {
    let mut fused_model = model.clone();
    let mut unfused_model = model.clone();

    let fused = est.predict(&mut fused_model, x);
    let unfused = est.predict_unfused(&mut unfused_model, x);
    assert_prediction_bits_eq(&fused, &unfused);

    // Post-state parity: a second (unfused) estimate from each copy agrees,
    // proving both paths advanced the model's dropout RNGs identically.
    let after_fused = est.predict_unfused(&mut fused_model, x);
    let after_unfused = est.predict_unfused(&mut unfused_model, x);
    assert_prediction_bits_eq(&after_fused, &after_unfused);
}

#[test]
fn mlp_fused_matches_unfused() {
    let mut rng = Rng::new(11);
    let model = mlp(&mut rng, 0.2);
    let x = Tensor::rand_normal(7, 3, 0.0, 1.0, &mut rng);
    for threads in [1, 4] {
        at_threads(threads, || {
            check_equivalence(&model, &x, &McDropout::new(20));
        });
    }
}

#[test]
fn mlp_relative_uncertainty_matches() {
    let mut rng = Rng::new(12);
    let model = mlp(&mut rng, 0.3);
    let x = Tensor::rand_normal(5, 3, 0.0, 2.0, &mut rng);
    check_equivalence(&model, &x, &McDropout::new(8).relative(true));
}

#[test]
fn batchnorm_model_fused_matches_unfused() {
    // Batch norm is the one layer whose Train-mode arithmetic couples rows;
    // in StochasticEval it is frozen to running moments, which is what makes
    // the stacked forward legal. Warm the running moments first so they are
    // non-trivial.
    let mut rng = Rng::new(13);
    let mut model = batchnorm_model(&mut rng);
    let warm = Tensor::rand_normal(32, 3, 0.5, 2.0, &mut rng);
    let _ = model.forward(&warm, Mode::Train);
    let x = Tensor::rand_normal(6, 3, 0.0, 1.0, &mut rng);
    for threads in [1, 4] {
        at_threads(threads, || {
            check_equivalence(&model, &x, &McDropout::new(10));
        });
    }
}

#[test]
fn tcn_fused_matches_unfused() {
    let mut rng = Rng::new(14);
    let model = tcn_model(&mut rng);
    let x = Tensor::rand_normal(4, 20, 0.0, 1.0, &mut rng);
    for threads in [1, 4] {
        at_threads(threads, || {
            check_equivalence(&model, &x, &McDropout::new(12));
        });
    }
}

#[test]
fn zero_dropout_fused_matches_unfused() {
    // p = 0 exercises the identity path of the fused dropout kernel (no RNG
    // draws at all) — the passes are identical, so the uncertainty is zero
    // up to the rounding of mean-of-identical-values.
    let mut rng = Rng::new(15);
    let model = mlp(&mut rng, 0.0);
    let x = Tensor::rand_normal(5, 3, 0.0, 1.0, &mut rng);
    let mut fused_model = model.clone();
    let est = McDropout::new(6);
    let fused = est.predict(&mut fused_model, &x);
    assert!(fused.uncertainty.iter().all(|&u| u < 1e-12));
    check_equivalence(&model, &x, &est);
}

#[test]
fn single_row_batch_fused_matches_unfused() {
    let mut rng = Rng::new(16);
    let model = mlp(&mut rng, 0.2);
    let x = Tensor::rand_normal(1, 3, 0.0, 1.0, &mut rng);
    check_equivalence(&model, &x, &McDropout::new(20));
}

#[test]
fn predict_into_reuses_buffers_and_matches_predict() {
    let mut rng = Rng::new(17);
    let model = mlp(&mut rng, 0.2);
    let x = Tensor::rand_normal(6, 3, 0.0, 1.0, &mut rng);
    let est = McDropout::new(10);

    let mut a = model.clone();
    let mut b = model.clone();
    let mut out = McPrediction::empty();
    est.predict_into(&mut a, &x, &mut out);
    let fresh = est.predict(&mut b, &x);
    assert_prediction_bits_eq(&out, &fresh);

    // Reuse: the same out-parameter is refilled, and the second call's
    // result still matches a fresh prediction from the same model state.
    est.predict_into(&mut a, &x, &mut out);
    let fresh2 = est.predict(&mut b, &x);
    assert_prediction_bits_eq(&out, &fresh2);
}
