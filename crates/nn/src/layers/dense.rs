//! Fully-connected (affine) layer.

use super::{
    copy_rows_in, copy_rows_out, frozen_segmented_forward, load_factor_pair, Layer, McContext,
    Mode, Param, SegmentedContext,
};
use crate::adapter::{AdapterConfig, DeltaParams};
use crate::init::Init;
use crate::rng::Rng;
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// `y = x · W + b` with `W: (in_dim, out_dim)`, `b: (1, out_dim)`.
///
/// May optionally carry a low-rank delta adapter ([`crate::adapter`]):
/// with a delta attached, the layer computes
/// `y = x · W + b + scale · (x · down) · up`, freezes `W` and `b` (they
/// drop out of [`Layer::visit_params`]), and trains
/// only the factors. With no delta, every code path below is byte-for-byte
/// the pre-adapter one.
#[derive(Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_dim: usize,
    out_dim: usize,
    /// Input cached by the last `forward` for use in `backward`.
    cached_input: Option<Tensor>,
    /// Optional low-rank delta; `None` means the base affine layer.
    delta: Option<DeltaParams>,
}

impl Dense {
    /// Creates a dense layer with the given initialisation for the weight;
    /// the bias starts at zero.
    pub fn new(in_dim: usize, out_dim: usize, init: Init, rng: &mut Rng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "Dense: dimensions must be positive"
        );
        Dense {
            weight: Param::new(init.tensor(in_dim, out_dim, in_dim, out_dim, rng)),
            bias: Param::new(Tensor::zeros(1, out_dim)),
            in_dim,
            out_dim,
            cached_input: None,
            delta: None,
        }
    }

    /// The input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// The output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Read access to the weight matrix (used by tests and inspection tools).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Read access to the bias row.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    /// The attached delta adapter, if any.
    pub fn delta(&self) -> Option<&DeltaParams> {
        self.delta.as_ref()
    }
}

impl Layer for Dense {
    fn forward_scratch(&mut self, input: &Tensor, _mode: Mode, scratch: &mut Scratch) -> Tensor {
        assert_eq!(
            input.cols(),
            self.in_dim,
            "Dense: expected {} input features, got {}",
            self.in_dim,
            input.cols()
        );
        let mut out = scratch.take_for_overwrite(input.rows(), self.out_dim);
        input.matmul_into(&self.weight.value, &mut out);
        out.add_row_broadcast_assign(self.bias.value.as_slice());
        if let Some(delta) = &mut self.delta {
            // out += scale · (x · down) · up; the hidden product is cached
            // for backward (it is O(batch · rank), far smaller than x).
            let mut hidden = scratch.take(input.rows(), delta.rank());
            input.matmul_into(&delta.down.value, &mut hidden);
            hidden.addmm_scaled_into(&delta.up.value, delta.scale, &mut out, scratch);
            match &mut delta.cached_hidden {
                Some(c) => c.copy_from(&hidden),
                None => delta.cached_hidden = Some(hidden.clone()),
            }
            scratch.give(hidden);
        }
        match &mut self.cached_input {
            Some(c) => c.copy_from(input),
            None => self.cached_input = Some(input.clone()),
        }
        out
    }

    fn forward_mc(
        &mut self,
        input: &Tensor,
        _ctx: &mut McContext,
        scratch: &mut Scratch,
    ) -> Tensor {
        assert_eq!(
            input.cols(),
            self.in_dim,
            "Dense: expected {} input features, got {}",
            self.in_dim,
            input.cols()
        );
        // Same affine map as `forward_scratch`, minus the input cache: the
        // fused MC path never runs a backward pass, so caching would only
        // add a full copy of the stacked batch per layer.
        let mut out = scratch.take_for_overwrite(input.rows(), self.out_dim);
        input.matmul_into(&self.weight.value, &mut out);
        out.add_row_broadcast_assign(self.bias.value.as_slice());
        if let Some(delta) = &self.delta {
            let mut hidden = scratch.take(input.rows(), delta.rank());
            input.matmul_into(&delta.down.value, &mut hidden);
            hidden.addmm_scaled_into(&delta.up.value, delta.scale, &mut out, scratch);
            scratch.give(hidden);
        }
        out
    }

    fn forward_segmented(
        &mut self,
        input: &Tensor,
        ctx: &mut SegmentedContext<'_>,
        scratch: &mut Scratch,
    ) -> Tensor {
        let Some(delta) = &self.delta else {
            return frozen_segmented_forward(self, input, ctx, scratch);
        };
        assert_eq!(
            input.cols(),
            self.in_dim,
            "Dense: expected {} input features, got {}",
            self.in_dim,
            input.cols()
        );
        // Base affine once over the whole stacked batch. With a delta
        // attached the base weights are frozen, so this is the shared
        // source-model contribution for every segment.
        let mut out = scratch.take_for_overwrite(input.rows(), self.out_dim);
        input.matmul_into(&self.weight.value, &mut out);
        out.add_row_broadcast_assign(self.bias.value.as_slice());
        let idx = ctx.param_cursor;
        ctx.param_cursor += 2;
        let mut row0 = 0usize;
        for seg in ctx.segments {
            let rows = seg.rows;
            if let Some(art) = seg.delta {
                // out[seg] += scale · (x[seg] · down) · up — the same kernels
                // in the same order as the solo adapter path above,
                // restricted to the segment's rows. matmul and the addmm
                // fold-in are row-independent, so the segment's rows are
                // bit-identical to a solo forward with this delta applied.
                let (down, up) = load_factor_pair(art, idx, delta, scratch);
                let x_seg = copy_rows_in(input, row0, rows, scratch);
                let mut hidden = scratch.take(rows, delta.rank());
                x_seg.matmul_into(&down, &mut hidden);
                let mut out_seg = copy_rows_in(&out, row0, rows, scratch);
                hidden.addmm_scaled_into(&up, delta.scale, &mut out_seg, scratch);
                copy_rows_out(&out_seg, &mut out, row0);
                for t in [out_seg, hidden, x_seg, up, down] {
                    scratch.give(t);
                }
            }
            row0 += rows;
        }
        out
    }

    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        assert_eq!(
            grad_output.cols(),
            self.out_dim,
            "Dense: grad width mismatch"
        );
        if let Some(delta) = &mut self.delta {
            // Base W and b are frozen: only the factor gradients accumulate.
            // With h = x · down:
            //   dUp   = scale · hᵀ · g
            //   dH    = scale · g · upᵀ
            //   dDown = xᵀ · dH
            //   dx    = g · Wᵀ + dH · downᵀ
            let hidden = delta
                .cached_hidden
                .as_ref()
                .expect("Dense::backward called before forward (adapter hidden)");
            let rank = delta.up.value.rows();
            let mut dup = scratch.take(rank, self.out_dim);
            hidden.t_matmul_into(grad_output, &mut dup);
            delta.up.grad.axpy(delta.scale, &dup);
            scratch.give(dup);

            let mut dh = scratch.take(grad_output.rows(), rank);
            grad_output.matmul_t_into(&delta.up.value, &mut dh);
            dh.scale_assign(delta.scale);

            let mut ddown = scratch.take(self.in_dim, rank);
            input.t_matmul_into(&dh, &mut ddown);
            delta.down.grad.add_assign(&ddown);
            scratch.give(ddown);

            let mut dx = scratch.take(grad_output.rows(), self.in_dim);
            grad_output.matmul_t_into(&self.weight.value, &mut dx);
            let mut dx_delta = scratch.take(grad_output.rows(), self.in_dim);
            dh.matmul_t_into(&delta.down.value, &mut dx_delta);
            dx.add_assign(&dx_delta);
            scratch.give(dx_delta);
            scratch.give(dh);
            return dx;
        }
        // dW = xᵀ · g, db = column sums of g, dx = g · Wᵀ. dW goes through a
        // temporary (not straight into the accumulator) so `grad += 0 + dW`
        // keeps the exact signed-zero semantics of accumulate-after-compute.
        let mut dw = scratch.take(self.in_dim, self.out_dim);
        input.t_matmul_into(grad_output, &mut dw);
        self.weight.grad.add_assign(&dw);
        scratch.give(dw);
        let mut db = scratch.take_vec(self.out_dim);
        grad_output.sum_rows_into(&mut db);
        for (g, d) in self.bias.grad.as_mut_slice().iter_mut().zip(&db) {
            *g += d;
        }
        scratch.give_vec(db);
        let mut dx = scratch.take(grad_output.rows(), self.in_dim);
        grad_output.matmul_t_into(&self.weight.value, &mut dx);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match &mut self.delta {
            Some(d) => {
                f(&mut d.down);
                f(&mut d.up);
            }
            None => {
                f(&mut self.weight);
                f(&mut self.bias);
            }
        }
    }

    fn visit_base_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn attach_adapters(&mut self, cfg: &AdapterConfig, rng: &mut Rng) -> usize {
        self.delta = Some(DeltaParams::zero_init(self.in_dim, self.out_dim, cfg, rng));
        1
    }

    fn detach_adapters(&mut self) -> usize {
        usize::from(self.delta.take().is_some())
    }

    fn adapted_layers(&self) -> usize {
        usize::from(self.delta.is_some())
    }

    fn name(&self) -> &'static str {
        "Dense"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        assert_eq!(
            input_dim, self.in_dim,
            "Dense: wired after {} features, expects {}",
            input_dim, self.in_dim
        );
        self.out_dim
    }

    fn input_dim(&self) -> Option<usize> {
        Some(self.in_dim)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_affine() {
        let mut rng = Rng::new(1);
        let mut d = Dense::new(2, 3, Init::Zeros, &mut rng);
        // W = [[1,2,3],[4,5,6]], b = [0.5, -0.5, 1.0]
        d.weight.value = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        d.bias.value = Tensor::from_vec(1, 3, vec![0.5, -0.5, 1.0]);
        let x = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let y = d.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[9.5, 11.5, 16.0]);
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let mut rng = Rng::new(2);
        let mut d = Dense::new(3, 2, Init::HeNormal, &mut rng);
        let x = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);
        let _ = d.forward(&x, Mode::Train);
        let g = Tensor::full(4, 2, 1.0);
        let dx = d.backward(&g);
        assert_eq!(dx.shape(), (4, 3));
        // db = column sums of g = [4, 4].
        assert_eq!(d.bias.grad.as_slice(), &[4.0, 4.0]);
        assert_eq!(d.weight.grad.shape(), (3, 2));
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = Rng::new(3);
        let mut d = Dense::new(2, 2, Init::HeNormal, &mut rng);
        let x = Tensor::full(1, 2, 1.0);
        let g = Tensor::full(1, 2, 1.0);
        let _ = d.forward(&x, Mode::Train);
        let _ = d.backward(&g);
        let first = d.bias.grad.clone();
        let _ = d.forward(&x, Mode::Train);
        let _ = d.backward(&g);
        assert_eq!(d.bias.grad.as_slice()[0], 2.0 * first.as_slice()[0]);
        d.visit_params(&mut |p| p.zero_grad());
        assert_eq!(d.bias.grad.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "expected 3 input features")]
    fn rejects_wrong_width() {
        let mut rng = Rng::new(4);
        let mut d = Dense::new(3, 2, Init::Zeros, &mut rng);
        d.forward(&Tensor::zeros(1, 4), Mode::Eval);
    }

    #[test]
    fn adapter_forward_matches_manual_delta_math() {
        let mut rng = Rng::new(10);
        let mut d = Dense::new(3, 2, Init::HeNormal, &mut rng);
        d.attach_adapters(
            &AdapterConfig {
                rank: 2,
                alpha: 4.0,
            },
            &mut rng,
        );
        // Give the factors non-trivial values.
        let delta = d.delta.as_mut().unwrap();
        delta.down.value = Tensor::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5]);
        delta.up.value = Tensor::from_vec(2, 2, vec![1.0, -0.5, 0.25, 2.0]);
        let scale = delta.scale;
        assert_eq!(scale, 2.0, "alpha/r = 4/2");

        let x = Tensor::rand_normal(5, 3, 0.0, 1.0, &mut rng);
        let got = d.forward(&x, Mode::Eval);

        // Manual: x·W + b + scale·(x·down)·up.
        let base = {
            let mut t = x.matmul(d.weight());
            t.add_row_broadcast_assign(d.bias().as_slice());
            t
        };
        let lowrank = x
            .matmul(&d.delta().unwrap().down.value)
            .matmul(&d.delta().unwrap().up.value);
        let mut want = base;
        for (w, &l) in want.as_mut_slice().iter_mut().zip(lowrank.as_slice()) {
            *w += scale * l;
        }
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn adapter_backward_freezes_base_and_matches_finite_difference() {
        let mut rng = Rng::new(11);
        let mut d = Dense::new(3, 2, Init::HeNormal, &mut rng);
        d.attach_adapters(&AdapterConfig::rank(2), &mut rng);
        // Non-zero up so the delta actually participates.
        d.delta.as_mut().unwrap().up.value = Tensor::rand_normal(2, 2, 0.0, 0.3, &mut rng);
        let x = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);

        let _ = d.forward(&x, Mode::Train);
        let g = Tensor::full(4, 2, 1.0);
        let dx = d.backward(&g);
        assert_eq!(dx.shape(), (4, 3));
        assert_eq!(d.weight.grad.sum(), 0.0, "frozen base weight gets no grad");
        assert_eq!(d.bias.grad.sum(), 0.0, "frozen bias gets no grad");

        // Finite-difference check of every trainable (factor) gradient under
        // loss L = Σ y (so ∂L/∂y = 1, matching g above).
        let eps = 1e-5;
        let analytic: Vec<Vec<f64>> = {
            let delta = d.delta.as_ref().unwrap();
            vec![
                delta.down.grad.as_slice().to_vec(),
                delta.up.grad.as_slice().to_vec(),
            ]
        };
        for (pi, grads) in analytic.iter().enumerate() {
            for (i, &g_analytic) in grads.iter().enumerate() {
                let probe = |v: f64, layer: &mut Dense| {
                    let delta = layer.delta.as_mut().unwrap();
                    let p = if pi == 0 {
                        &mut delta.down
                    } else {
                        &mut delta.up
                    };
                    let old = p.value.as_slice()[i];
                    p.value.as_mut_slice()[i] = v;
                    old
                };
                let delta = d.delta.as_ref().unwrap();
                let base = if pi == 0 {
                    delta.down.value.as_slice()[i]
                } else {
                    delta.up.value.as_slice()[i]
                };
                probe(base + eps, &mut d);
                let plus = d.forward(&x, Mode::Eval).sum();
                probe(base - eps, &mut d);
                let minus = d.forward(&x, Mode::Eval).sum();
                probe(base, &mut d);
                let numeric = (plus - minus) / (2.0 * eps);
                assert!(
                    (numeric - g_analytic).abs() < 1e-6,
                    "factor {pi} entry {i}: numeric {numeric} vs analytic {g_analytic}"
                );
            }
        }
    }

    #[test]
    fn adapter_mc_path_matches_plain_forward() {
        let mut rng = Rng::new(12);
        let mut d = Dense::new(3, 4, Init::HeNormal, &mut rng);
        d.attach_adapters(&AdapterConfig::rank(2), &mut rng);
        d.delta.as_mut().unwrap().up.value = Tensor::rand_normal(2, 4, 0.0, 0.5, &mut rng);
        let x = Tensor::rand_normal(6, 3, 0.0, 1.0, &mut rng);
        let plain = d.forward(&x, Mode::StochasticEval);
        let mut ctx = McContext {
            samples: 2,
            batch: 3,
            streams: &mut [],
            n_dropout: 0,
            next_dropout: 0,
        };
        let mc = crate::scratch::with(|s| d.forward_mc(&x, &mut ctx, s));
        assert_eq!(plain.as_slice(), mc.as_slice());
    }
}
