//! Property-based tests of the tensor algebra and layer contracts.
//!
//! Randomised inputs come from hand-rolled seed loops over the in-tree
//! [`tasfar_nn::rng::Rng`] (the build environment has no crates.io access,
//! so `proptest` is not available). Each case derives every input from a
//! case-indexed PRNG stream, so a failure reproduces exactly from the case
//! number printed in the assertion message.

use tasfar_nn::prelude::*;
use tasfar_nn::rng::Rng as TRng;

const CASES: u64 = 48;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

fn tensors_close(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(&x, &y)| close(x, y))
}

/// `lo + below(hi - lo)`: a uniform integer in `[lo, hi)`.
fn dim(g: &mut TRng, lo: usize, hi: usize) -> usize {
    lo + g.below(hi - lo)
}

/// (A·B)·C == A·(B·C) up to floating-point tolerance.
#[test]
fn matmul_is_associative() {
    for case in 0..CASES {
        let mut rng = TRng::new(0xA550C ^ case);
        let (m, k, n, p) = (
            dim(&mut rng, 1, 8),
            dim(&mut rng, 1, 8),
            dim(&mut rng, 1, 8),
            dim(&mut rng, 1, 8),
        );
        let a = Tensor::rand_normal(m, k, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(k, n, 0.0, 1.0, &mut rng);
        let c = Tensor::rand_normal(n, p, 0.0, 1.0, &mut rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(tensors_close(&left, &right), "case {case}");
    }
}

/// (A·B)ᵀ == Bᵀ·Aᵀ.
#[test]
fn matmul_transpose_identity() {
    for case in 0..CASES {
        let mut rng = TRng::new(0x7A15 ^ case);
        let (m, k, n) = (
            dim(&mut rng, 1, 8),
            dim(&mut rng, 1, 8),
            dim(&mut rng, 1, 8),
        );
        let a = Tensor::rand_normal(m, k, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(k, n, 0.0, 1.0, &mut rng);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        assert!(tensors_close(&left, &right), "case {case}");
    }
}

/// The fused transposed products agree with their explicit forms.
#[test]
fn fused_transposed_products() {
    for case in 0..CASES {
        let mut rng = TRng::new(0xF05E ^ case);
        let (m, k, n) = (
            dim(&mut rng, 1, 8),
            dim(&mut rng, 1, 8),
            dim(&mut rng, 1, 8),
        );
        let a = Tensor::rand_normal(k, m, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(k, n, 0.0, 1.0, &mut rng);
        assert!(
            tensors_close(&a.t_matmul(&b), &a.transpose().matmul(&b)),
            "case {case}: t_matmul"
        );
        let c = Tensor::rand_normal(m, k, 0.0, 1.0, &mut rng);
        let d = Tensor::rand_normal(n, k, 0.0, 1.0, &mut rng);
        assert!(
            tensors_close(&c.matmul_t(&d), &c.matmul(&d.transpose())),
            "case {case}: matmul_t"
        );
    }
}

/// Matmul distributes over addition.
#[test]
fn matmul_distributes() {
    for case in 0..CASES {
        let mut rng = TRng::new(0xD157 ^ case);
        let (m, k, n) = (
            dim(&mut rng, 1, 8),
            dim(&mut rng, 1, 8),
            dim(&mut rng, 1, 8),
        );
        let a = Tensor::rand_normal(m, k, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(k, n, 0.0, 1.0, &mut rng);
        let c = Tensor::rand_normal(k, n, 0.0, 1.0, &mut rng);
        assert!(
            tensors_close(&a.matmul(&b.add(&c)), &a.matmul(&b).add(&a.matmul(&c))),
            "case {case}"
        );
    }
}

/// vstack/select_rows round trip: selecting the original row ranges out of a
/// stack recovers the parts.
#[test]
fn vstack_select_roundtrip() {
    for case in 0..CASES {
        let mut rng = TRng::new(0x57AC ^ case);
        let (r1, r2, c) = (
            dim(&mut rng, 1, 6),
            dim(&mut rng, 1, 6),
            dim(&mut rng, 1, 6),
        );
        let a = Tensor::rand_normal(r1, c, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(r2, c, 0.0, 1.0, &mut rng);
        let stack = Tensor::vstack(&[&a, &b]);
        assert_eq!(stack.slice_rows(0, r1), a, "case {case}");
        assert_eq!(stack.slice_rows(r1, r1 + r2), b, "case {case}");
    }
}

/// A Dense layer is affine: tested through the identity
/// f(x+z) − f(x) − f(z) + f(0) == 0.
#[test]
fn dense_is_affine() {
    for case in 0..CASES {
        let mut rng = TRng::new(0xAFF1 ^ case);
        let (d_in, d_out) = (dim(&mut rng, 1, 6), dim(&mut rng, 1, 6));
        let mut layer = Dense::new(d_in, d_out, Init::HeNormal, &mut rng);
        let x = Tensor::rand_normal(1, d_in, 0.0, 1.0, &mut rng);
        let z = Tensor::rand_normal(1, d_in, 0.0, 1.0, &mut rng);
        let f = |layer: &mut Dense, v: &Tensor| layer.forward(v, Mode::Eval);
        let fx = f(&mut layer, &x);
        let fz = f(&mut layer, &z);
        let fxz = f(&mut layer, &x.add(&z));
        let f0 = f(&mut layer, &Tensor::zeros(1, d_in));
        let residual = fxz.sub(&fx).sub(&fz).add(&f0);
        assert!(residual.frobenius_norm() < 1e-9, "case {case}");
    }
}

/// Sequential backward == product of layer Jacobians: for a linear chain
/// (no activations), the input gradient equals g · (W1·W2)ᵀ.
#[test]
fn linear_chain_gradient_is_weight_product() {
    for case in 0..CASES {
        let mut rng = TRng::new(0xC4A1 ^ case);
        let l1 = Dense::new(3, 4, Init::HeNormal, &mut rng);
        let l2 = Dense::new(4, 2, Init::HeNormal, &mut rng);
        let w1 = l1.weight().clone();
        let w2 = l2.weight().clone();
        let mut chain = Sequential::new().add(l1).add(l2);
        let x = Tensor::rand_normal(5, 3, 0.0, 1.0, &mut rng);
        let _ = chain.forward(&x, Mode::Eval);
        let g = Tensor::rand_normal(5, 2, 0.0, 1.0, &mut rng);
        let dx = chain.backward(&g);
        let expected = g.matmul_t(&w1.matmul(&w2));
        assert!(tensors_close(&dx, &expected), "case {case}");
    }
}

/// Dropout in eval mode never changes values, and in train mode only zeroes
/// or rescales by exactly 1/(1−p).
#[test]
fn dropout_values_are_exact() {
    for case in 0..CASES {
        let mut rng = TRng::new(0xD0D0 ^ case);
        let p = rng.uniform(0.05, 0.9);
        let mut layer = Dropout::new(p, &mut rng);
        let x = Tensor::rand_normal(4, 6, 1.0, 0.5, &mut rng);
        let eval = layer.forward(&x, Mode::Eval);
        assert_eq!(eval, x, "case {case}");
        let train = layer.forward(&x, Mode::Train);
        let scale = 1.0 / (1.0 - p);
        for (&orig, &out) in x.as_slice().iter().zip(train.as_slice()) {
            assert!(out == 0.0 || close(out, orig * scale), "case {case}");
        }
    }
}

/// The LR schedules never produce a rate above base or at-or-below zero
/// (within their domains).
#[test]
fn schedules_are_bounded() {
    for case in 0..CASES {
        let mut rng = TRng::new(0x5CED ^ case);
        let base = rng.uniform(1e-5, 1.0);
        let epoch = rng.below(500);
        let schedules = [
            LrSchedule::Constant,
            LrSchedule::StepDecay {
                every: 7,
                factor: 0.5,
            },
            LrSchedule::Cosine {
                total_epochs: 200,
                min_lr: base * 0.01,
            },
            LrSchedule::Warmup {
                warmup_epochs: 13,
                start_fraction: 0.1,
            },
        ];
        for s in schedules {
            let r = s.rate(base, epoch);
            assert!(
                r > 0.0 && r <= base * (1.0 + 1e-12),
                "case {case}: {s:?} gave {r} for base {base}"
            );
        }
    }
}

/// Adam and SGD leave parameters finite for any reasonable gradient.
#[test]
fn optimizers_stay_finite() {
    for case in 0..CASES {
        let mut rng = TRng::new(0x0F71 ^ case);
        let lr = rng.uniform(1e-5, 0.5);
        let gscale = rng.uniform(0.0, 100.0);
        let mut p = tasfar_nn::layers::Param::new(Tensor::rand_normal(2, 2, 0.0, 1.0, &mut rng));
        let mut adam = Adam::new(lr);
        let mut sgd = Sgd::with_options(lr, 0.9, 1e-4);
        let mut q = p.clone();
        for _ in 0..20 {
            p.grad = Tensor::rand_normal(2, 2, 0.0, gscale, &mut rng);
            q.grad = p.grad.clone();
            adam.begin_step(1);
            adam.step_param(0, &mut p);
            sgd.begin_step(1);
            sgd.step_param(0, &mut q);
        }
        assert!(p.value.all_finite(), "case {case}: adam");
        assert!(q.value.all_finite(), "case {case}: sgd");
    }
}
