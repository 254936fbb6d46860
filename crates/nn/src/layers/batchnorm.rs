//! Batch normalisation over the feature axis.

use super::{Layer, Mode, Param, SegmentedContext};
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Batch normalisation (Ioffe & Szegedy) for `(batch, features)` inputs.
///
/// In `Train` mode the batch mean/variance normalise the activations and the
/// running moments are updated with momentum; in `Eval` and
/// `StochasticEval` modes the stored running moments are used, so
/// MC-dropout sampling does not perturb normalisation statistics.
#[derive(Clone)]
pub struct BatchNorm1d {
    dim: usize,
    eps: f64,
    momentum: f64,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f64>,
    running_var: Vec<f64>,
    /// Per-batch cache for backward.
    cache: Option<BnCache>,
}

#[derive(Clone)]
struct BnCache {
    /// Normalised activations x̂.
    x_hat: Tensor,
    /// 1/√(var + ε) per feature, for the statistics used in the forward.
    inv_std: Vec<f64>,
    /// Whether batch statistics (true) or running moments (false) were used.
    batch_stats: bool,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `dim` features with the conventional
    /// defaults (`eps = 1e-5`, `momentum = 0.1`).
    pub fn new(dim: usize) -> Self {
        Self::with_options(dim, 1e-5, 0.1)
    }

    /// Creates a batch-norm layer with explicit epsilon and momentum.
    ///
    /// # Panics
    /// Panics if `dim == 0`, `eps <= 0`, or `momentum` is outside `(0, 1]`.
    pub fn with_options(dim: usize, eps: f64, momentum: f64) -> Self {
        assert!(dim > 0, "BatchNorm1d: dim must be positive");
        assert!(eps > 0.0, "BatchNorm1d: eps must be positive");
        assert!(
            momentum > 0.0 && momentum <= 1.0,
            "BatchNorm1d: momentum must be in (0, 1]"
        );
        BatchNorm1d {
            dim,
            eps,
            momentum,
            gamma: Param::new(Tensor::full(1, dim, 1.0)),
            beta: Param::new(Tensor::zeros(1, dim)),
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            cache: None,
        }
    }

    /// The running mean per feature.
    pub fn running_mean(&self) -> &[f64] {
        &self.running_mean
    }

    /// The running variance per feature.
    pub fn running_var(&self) -> &[f64] {
        &self.running_var
    }
}

impl Layer for BatchNorm1d {
    fn forward_scratch(&mut self, input: &Tensor, mode: Mode, scratch: &mut Scratch) -> Tensor {
        assert_eq!(
            input.cols(),
            self.dim,
            "BatchNorm1d: expected {} features, got {}",
            self.dim,
            input.cols()
        );
        let use_batch = mode.batch_stats() && input.rows() > 1;
        let mut mean = scratch.take_vec(self.dim);
        let mut var = scratch.take_vec(self.dim);
        if use_batch {
            input.mean_rows_into(&mut mean);
            input.var_rows_with_means_into(&mean, &mut var);
        } else {
            mean.copy_from_slice(&self.running_mean);
            var.copy_from_slice(&self.running_var);
        }

        // Reuse the persistent cache buffers; first call allocates them.
        let eps = self.eps;
        let cache = self.cache.get_or_insert_with(|| BnCache {
            x_hat: Tensor::zeros(0, 0),
            inv_std: Vec::new(),
            batch_stats: false,
        });
        cache.batch_stats = use_batch;
        cache.inv_std.clear();
        cache
            .inv_std
            .extend(var.iter().map(|&v| 1.0 / (v + eps).sqrt()));

        cache.x_hat.copy_from(input);
        for row in cache.x_hat.as_mut_slice().chunks_exact_mut(self.dim) {
            for ((v, &m), &s) in row.iter_mut().zip(&mean).zip(&cache.inv_std) {
                *v = (*v - m) * s;
            }
        }
        let mut out = scratch.take(input.rows(), self.dim);
        out.copy_from(&cache.x_hat);
        out.mul_row_broadcast_assign(self.gamma.value.as_slice());
        out.add_row_broadcast_assign(self.beta.value.as_slice());

        if use_batch {
            // Update running moments with the batch statistics.
            let m = self.momentum;
            for ((rm, rv), (&bm, &bv)) in self
                .running_mean
                .iter_mut()
                .zip(self.running_var.iter_mut())
                .zip(mean.iter().zip(&var))
            {
                *rm = (1.0 - m) * *rm + m * bm;
                *rv = (1.0 - m) * *rv + m * bv;
            }
        }
        scratch.give_vec(mean);
        scratch.give_vec(var);
        out
    }

    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm1d::backward called before forward");
        let n = grad_output.rows() as f64;
        let gamma = self.gamma.value.as_slice();

        // dβ = Σ g, dγ = Σ g ⊙ x̂ (column sums).
        let mut dbeta = scratch.take_vec(self.dim);
        grad_output.sum_rows_into(&mut dbeta);
        let mut gx = scratch.take(grad_output.rows(), self.dim);
        grad_output.zip_map_into(&cache.x_hat, |g, x| g * x, &mut gx);
        let mut dgamma = scratch.take_vec(self.dim);
        gx.sum_rows_into(&mut dgamma);
        scratch.give(gx);
        for (g, d) in self.beta.grad.as_mut_slice().iter_mut().zip(&dbeta) {
            *g += d;
        }
        for (g, d) in self.gamma.grad.as_mut_slice().iter_mut().zip(&dgamma) {
            *g += d;
        }

        if !cache.batch_stats {
            // Running moments are constants: dx = g ⊙ γ ⊙ inv_std.
            let mut dx = scratch.take(grad_output.rows(), self.dim);
            dx.copy_from(grad_output);
            dx.mul_row_broadcast_assign(gamma);
            for row in dx.as_mut_slice().chunks_exact_mut(self.dim) {
                for (v, &s) in row.iter_mut().zip(&cache.inv_std) {
                    *v *= s;
                }
            }
            scratch.give_vec(dbeta);
            scratch.give_vec(dgamma);
            return dx;
        }

        // Full batch-statistics backward:
        // dx = (γ·inv_std / N) · (N·g − Σg − x̂·Σ(g⊙x̂))
        let sum_g = &dbeta;
        let sum_gx = &dgamma;
        let mut dx = scratch.take(grad_output.rows(), self.dim);
        for ((g_row, xh_row), dx_row) in grad_output
            .iter_rows()
            .zip(cache.x_hat.iter_rows())
            .zip(dx.as_mut_slice().chunks_exact_mut(self.dim))
        {
            for c in 0..self.dim {
                let coeff = gamma[c] * cache.inv_std[c] / n;
                dx_row[c] = coeff * (n * g_row[c] - sum_g[c] - xh_row[c] * sum_gx[c]);
            }
        }
        scratch.give_vec(dbeta);
        scratch.give_vec(dgamma);
        dx
    }

    fn forward_segmented(
        &mut self,
        input: &Tensor,
        ctx: &mut SegmentedContext<'_>,
        scratch: &mut Scratch,
    ) -> Tensor {
        assert_eq!(
            input.cols(),
            self.dim,
            "BatchNorm1d: expected {} features, got {}",
            self.dim,
            input.cols()
        );
        let (gamma_idx, beta_idx) = (ctx.param_cursor, ctx.param_cursor + 1);
        ctx.param_cursor += 2;
        // Normalise with the running moments once across the whole stacked
        // batch: they are frozen source state shared by every tenant (a
        // DeltaArtifact stores trainable params only, never the moments),
        // and Eval-mode normalisation is row-independent, so each segment
        // sees exactly the x̂ bits a solo forward would compute.
        let mut inv_std = scratch.take_vec(self.dim);
        for (s, &v) in inv_std.iter_mut().zip(&self.running_var) {
            *s = 1.0 / (v + self.eps).sqrt();
        }
        let mut out = scratch.take(input.rows(), self.dim);
        out.copy_from(input);
        for row in out.as_mut_slice().chunks_exact_mut(self.dim) {
            for ((v, &m), &s) in row.iter_mut().zip(&self.running_mean).zip(&inv_std) {
                *v = (*v - m) * s;
            }
        }
        // Per-segment affine: γ/β stay trainable under adapters (TENT-style
        // affine adaptation), so a tenant's artifact carries its trained
        // values at this layer's two trainable slots. Source-only segments
        // use the layer's own (source) γ/β. Same multiply-then-add per
        // element as the solo broadcast pair — bit-identical rows.
        let mut row0 = 0usize;
        for seg in ctx.segments {
            let rows = seg.rows;
            let (gamma, beta): (&[f64], &[f64]) = match seg.delta {
                Some(art) => {
                    // The engine validates artifacts with
                    // `DeltaArtifact::check` before batching; these guard
                    // against indexing drift.
                    assert_eq!(
                        art.shapes[gamma_idx],
                        (1, self.dim),
                        "forward_segmented: gamma shape mismatch at tensor {gamma_idx}"
                    );
                    assert_eq!(
                        art.shapes[beta_idx],
                        (1, self.dim),
                        "forward_segmented: beta shape mismatch at tensor {beta_idx}"
                    );
                    (&art.values[gamma_idx], &art.values[beta_idx])
                }
                None => (self.gamma.value.as_slice(), self.beta.value.as_slice()),
            };
            for row in out.as_mut_slice()[row0 * self.dim..(row0 + rows) * self.dim]
                .chunks_exact_mut(self.dim)
            {
                for ((v, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
                    *v = *v * g + b;
                }
            }
            row0 += rows;
        }
        scratch.give_vec(inv_std);
        out
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    // The running moments are learnable state that `Eval` predictions depend
    // on, but they carry no gradient — snapshots and serialization reach
    // them here. (γ/β stay ordinary trainable params even when adapters are
    // attached elsewhere: affine-BN adaptation is the TENT-style norm for
    // test-time adaptation and costs only 2·dim scalars per layer.)
    fn visit_state(&mut self, f: &mut dyn FnMut(&mut [f64])) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn name(&self) -> &'static str {
        "BatchNorm1d"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        assert_eq!(
            input_dim, self.dim,
            "BatchNorm1d: wired after {} features, expects {}",
            input_dim, self.dim
        );
        self.dim
    }

    fn input_dim(&self) -> Option<usize> {
        Some(self.dim)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn train_output_is_normalised() {
        let mut rng = Rng::new(1);
        let mut bn = BatchNorm1d::new(3);
        let x = Tensor::rand_normal(256, 3, 5.0, 2.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        let mean = y.mean_rows();
        let var = y.var_rows();
        for &m in &mean {
            assert!(m.abs() < 1e-10, "mean {m} should be ~0");
        }
        for &v in &var {
            assert!((v - 1.0).abs() < 1e-3, "var {v} should be ~1");
        }
    }

    #[test]
    fn running_moments_track_batch_statistics() {
        let mut rng = Rng::new(2);
        let mut bn = BatchNorm1d::with_options(2, 1e-5, 0.5);
        let x = Tensor::rand_normal(512, 2, 10.0, 1.0, &mut rng);
        for _ in 0..20 {
            let _ = bn.forward(&x, Mode::Train);
        }
        assert!((bn.running_mean()[0] - 10.0).abs() < 0.2);
        assert!((bn.running_var()[0] - 1.0).abs() < 0.2);
    }

    #[test]
    fn eval_uses_running_moments() {
        let mut rng = Rng::new(3);
        let mut bn = BatchNorm1d::new(1);
        let train = Tensor::rand_normal(512, 1, 4.0, 1.0, &mut rng);
        for _ in 0..50 {
            let _ = bn.forward(&train, Mode::Train);
        }
        // A single eval sample at exactly the running mean maps to ~β = 0.
        let x = Tensor::from_vec(1, 1, vec![bn.running_mean()[0]]);
        let y = bn.forward(&x, Mode::Eval);
        assert!(y.get(0, 0).abs() < 1e-9);
    }

    #[test]
    fn stochastic_eval_does_not_update_running_moments() {
        let mut bn = BatchNorm1d::new(2);
        let before = bn.running_mean().to_vec();
        let x = Tensor::full(16, 2, 100.0);
        let _ = bn.forward(&x, Mode::StochasticEval);
        assert_eq!(bn.running_mean(), &before[..]);
    }

    #[test]
    fn single_row_train_falls_back_to_running_moments() {
        // Batch statistics of one sample are degenerate (var = 0); the layer
        // must not divide by ~zero.
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(1, 2, vec![3.0, -3.0]);
        let y = bn.forward(&x, Mode::Train);
        assert!(y.all_finite());
    }

    #[test]
    fn backward_gradient_shapes() {
        let mut rng = Rng::new(4);
        let mut bn = BatchNorm1d::new(3);
        let x = Tensor::rand_normal(8, 3, 0.0, 1.0, &mut rng);
        let _ = bn.forward(&x, Mode::Train);
        let dx = bn.backward(&Tensor::full(8, 3, 1.0));
        assert_eq!(dx.shape(), (8, 3));
        assert_eq!(bn.gamma.grad.shape(), (1, 3));
        assert_eq!(bn.beta.grad.as_slice(), &[8.0, 8.0, 8.0]);
    }

    /// For a constant upstream gradient, the batch-statistics backward sends
    /// (almost) zero gradient to the input: shifting all inputs equally does
    /// not change normalised outputs.
    #[test]
    fn constant_gradient_is_annihilated() {
        let mut rng = Rng::new(5);
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::rand_normal(32, 2, 0.0, 1.0, &mut rng);
        let _ = bn.forward(&x, Mode::Train);
        let dx = bn.backward(&Tensor::full(32, 2, 3.0));
        assert!(dx.frobenius_norm() < 1e-9, "norm {}", dx.frobenius_norm());
    }
}
