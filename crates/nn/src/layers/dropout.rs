//! Inverted dropout — the library's source of Monte-Carlo uncertainty.
//!
//! In `Train` and `StochasticEval` modes each unit is zeroed with
//! probability `p` and the survivors are scaled by `1/(1-p)` so the expected
//! activation is unchanged. TASFAR's uncertainty estimator (paper Sec. IV-A)
//! runs `T = 20` stochastic forward passes with `p = 0.2` and reads the
//! standard deviation of the predictions as the model uncertainty, following
//! Gal & Ghahramani's MC-dropout interpretation.

use super::{Layer, McContext, Mode};
use crate::rng::Rng;
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Inverted dropout with drop probability `p`.
#[derive(Clone)]
pub struct Dropout {
    p: f64,
    rng: Rng,
    /// Mask (already including the `1/(1-p)` scale) from the last stochastic
    /// forward. The buffer persists across steps so mask refills never
    /// allocate; `mask_live` says whether the last forward was stochastic.
    mask: Tensor,
    mask_live: bool,
}

impl Dropout {
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f64, rng: &mut Rng) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "Dropout: p ({p}) must be in [0, 1)"
        );
        Dropout {
            p,
            rng: rng.split(),
            mask: Tensor::zeros(0, 0),
            mask_live: false,
        }
    }

    /// The drop probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward_scratch(&mut self, input: &Tensor, mode: Mode, scratch: &mut Scratch) -> Tensor {
        let mut out = scratch.take(input.rows(), input.cols());
        if !mode.dropout_active() || self.p == 0.0 {
            self.mask_live = false;
            out.copy_from(input);
            return out;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        // Refill the persistent mask row-major — the exact draw order
        // `Tensor::from_fn` used, so the mask bits are unchanged.
        self.mask.resize_to(input.rows(), input.cols());
        for m in self.mask.as_mut_slice() {
            *m = if self.rng.bernoulli(keep) { scale } else { 0.0 };
        }
        self.mask_live = true;
        input.zip_map_into(&self.mask, |x, m| x * m, &mut out);
        out
    }

    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor {
        let mut out = scratch.take(grad_output.rows(), grad_output.cols());
        if self.mask_live {
            grad_output.zip_map_into(&self.mask, |g, m| g * m, &mut out);
        } else {
            out.copy_from(grad_output);
        }
        out
    }

    fn forward_mc(&mut self, input: &Tensor, ctx: &mut McContext, scratch: &mut Scratch) -> Tensor {
        let layer = ctx.next_dropout;
        ctx.next_dropout += 1;
        let mut out = scratch.take(input.rows(), input.cols());
        if self.p == 0.0 {
            out.copy_from(input);
            return out;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        debug_assert_eq!(
            input.rows(),
            ctx.samples * ctx.batch,
            "Dropout: fused batch mismatch"
        );
        let block = ctx.batch * input.cols();
        let src = input.as_slice();
        let dst = out.as_mut_slice();
        // Each pass block draws its mask from that pass's pre-split stream,
        // row-major within the block — bit-for-bit the mask the per-pass
        // path would draw, and `x * m` matches `input.mul(&mask)` exactly
        // (including signed zeros). The stream runs as a local copy for the
        // block (written back afterwards) so its state stays in registers
        // instead of round-tripping through the slice on every draw.
        for t in 0..ctx.samples {
            let slot = &mut ctx.streams[t * ctx.n_dropout + layer];
            let mut rng = slot.clone();
            let range = t * block..(t + 1) * block;
            for (d, &s) in dst[range.clone()].iter_mut().zip(&src[range]) {
                let m = if rng.bernoulli(keep) { scale } else { 0.0 };
                *d = s * m;
            }
            *slot = rng;
        }
        out
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }

    fn visit_dropout_rngs(&mut self, f: &mut dyn FnMut(&mut Rng)) {
        f(&mut self.rng);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut rng = Rng::new(1);
        let mut d = Dropout::new(0.5, &mut rng);
        let x = Tensor::rand_normal(3, 4, 0.0, 1.0, &mut rng);
        let y = d.forward(&x, Mode::Eval);
        assert_eq!(y, x);
        let g = d.backward(&Tensor::full(3, 4, 2.0));
        assert_eq!(g.as_slice(), &[2.0; 12]);
    }

    #[test]
    fn train_mode_zeroes_roughly_p_fraction() {
        let mut rng = Rng::new(2);
        let mut d = Dropout::new(0.3, &mut rng);
        let x = Tensor::full(100, 100, 1.0);
        let y = d.forward(&x, Mode::Train);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "dropped fraction {frac}");
    }

    #[test]
    fn survivors_are_rescaled() {
        let mut rng = Rng::new(3);
        let mut d = Dropout::new(0.2, &mut rng);
        let x = Tensor::full(50, 50, 1.0);
        let y = d.forward(&x, Mode::Train);
        for &v in y.as_slice() {
            assert!(v == 0.0 || (v - 1.25).abs() < 1e-12);
        }
        // Expectation is preserved approximately.
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn stochastic_eval_activates_dropout() {
        let mut rng = Rng::new(4);
        let mut d = Dropout::new(0.5, &mut rng);
        let x = Tensor::full(20, 20, 1.0);
        let y1 = d.forward(&x, Mode::StochasticEval);
        let y2 = d.forward(&x, Mode::StochasticEval);
        assert_ne!(y1, y2, "stochastic passes must differ");
    }

    #[test]
    fn backward_uses_same_mask_as_forward() {
        let mut rng = Rng::new(5);
        let mut d = Dropout::new(0.5, &mut rng);
        let x = Tensor::full(10, 10, 1.0);
        let y = d.forward(&x, Mode::Train);
        let g = d.backward(&Tensor::full(10, 10, 1.0));
        // The gradient passes exactly where the activation passed.
        for (a, b) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    fn zero_p_is_identity_even_in_train() {
        let mut rng = Rng::new(6);
        let mut d = Dropout::new(0.0, &mut rng);
        let x = Tensor::full(2, 2, 3.0);
        assert_eq!(d.forward(&x, Mode::Train), x);
    }
}
