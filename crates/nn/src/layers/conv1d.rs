//! Dilated causal 1-D convolution.
//!
//! This is the building block of the temporal-convolutional network used as
//! the PDR regressor (the paper adapts RoNIN, a TCN). Because the substrate
//! tensor is 2-D, the time series is packed channels-major into the feature
//! axis: a `(channels, time)` window occupies one row as
//! `[c0t0 … c0t(T−1), c1t0 …]`. The layer validates the expected width.
//!
//! The convolution is *causal*: output at time `t` only sees inputs at times
//! `≤ t` (left zero-padding of `(kernel−1)·dilation`), and the output keeps
//! the input's time length, so TCN blocks can be residually stacked.

use super::{
    copy_rows_in, copy_rows_out, frozen_segmented_forward, load_factor_pair, Layer, McContext,
    Mode, Param, SegmentedContext,
};
use crate::adapter::{AdapterConfig, DeltaParams};
use crate::backend::Conv1dGeometry;
use crate::init::Init;
use crate::rng::Rng;
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// A causal, dilated 1-D convolution over channels-major packed rows.
///
/// Like [`super::Dense`], the layer may carry a low-rank delta adapter
/// ([`crate::adapter`]): the `(out_ch, in_ch·kernel)` weight matrix is then
/// frozen and the convolution runs with the materialised effective kernel
/// `W_eff = W + scale · down · up` (a scratch-resident GEMM, so both the
/// merge and the sweep ride the compute backend). With no delta,
/// every code path below is byte-for-byte the pre-adapter one.
#[derive(Clone)]
pub struct Conv1d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    dilation: usize,
    time_len: usize,
    /// Kernel weights as an `(out_ch, in_ch * kernel)` matrix; tap `k`
    /// of input channel `c` for output channel `o` lives at `(o, c*kernel+k)`.
    weight: Param,
    /// One bias per output channel, `(1, out_ch)`.
    bias: Param,
    cached_input: Option<Tensor>,
    /// Optional low-rank delta over the packed weight matrix.
    delta: Option<DeltaParams>,
}

impl Conv1d {
    /// Creates a causal conv layer for windows of `time_len` steps.
    ///
    /// # Panics
    /// Panics on zero-sized dimensions.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        dilation: usize,
        time_len: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            in_ch > 0 && out_ch > 0 && kernel > 0 && dilation > 0 && time_len > 0,
            "Conv1d: all dimensions must be positive"
        );
        let fan_in = in_ch * kernel;
        Conv1d {
            in_ch,
            out_ch,
            kernel,
            dilation,
            time_len,
            weight: Param::new(Init::HeNormal.tensor(out_ch, fan_in, fan_in, out_ch, rng)),
            bias: Param::new(Tensor::zeros(1, out_ch)),
            cached_input: None,
            delta: None,
        }
    }

    /// The attached delta adapter, if any.
    pub fn delta(&self) -> Option<&DeltaParams> {
        self.delta.as_ref()
    }

    /// Writes `W + scale·down·up` into a scratch tensor via the backend
    /// GEMM. The attached delta supplies `scale`; `down`/`up` are its own
    /// factors or, on the segmented serving path, a tenant artifact's.
    fn materialize_w_eff(&self, down: &Tensor, up: &Tensor, scratch: &mut Scratch) -> Tensor {
        let delta = self.delta.as_ref().expect("materialize_w_eff: no delta");
        let mut w_eff = scratch.take(self.out_ch, self.in_ch * self.kernel);
        w_eff.copy_from(&self.weight.value);
        down.addmm_scaled_into(up, delta.scale, &mut w_eff, scratch);
        w_eff
    }

    /// Input row width this layer expects (`in_ch * time_len`).
    pub fn input_width(&self) -> usize {
        self.in_ch * self.time_len
    }

    /// Output row width (`out_ch * time_len`).
    pub fn output_width(&self) -> usize {
        self.out_ch * self.time_len
    }

    /// The window length in time steps.
    pub fn time_len(&self) -> usize {
        self.time_len
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// This layer's shape parameters as a backend [`Conv1dGeometry`].
    pub fn geometry(&self) -> Conv1dGeometry {
        Conv1dGeometry {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            kernel: self.kernel,
            dilation: self.dilation,
            time_len: self.time_len,
        }
    }

    /// The forward pass without the input cache that backward reads.
    fn forward_uncached(&self, input: &Tensor, scratch: &mut Scratch) -> Tensor {
        assert_eq!(
            input.cols(),
            self.input_width(),
            "Conv1d: expected {}x{} = {} input features, got {}",
            self.in_ch,
            self.time_len,
            self.input_width(),
            input.cols()
        );
        let geo = self.geometry();
        let b = self.bias.value.as_slice();
        let mut out = scratch.take_for_overwrite(input.rows(), geo.output_width());
        // The inner loops live on the compute backend; every backend
        // assigns each output cell (seeded with its bias) and parallelises
        // over independent batch rows with a fixed per-row arithmetic
        // order, keeping results bit-identical for any thread count and
        // across backends.
        if let Some(delta) = &self.delta {
            let w_eff = self.materialize_w_eff(&delta.down.value, &delta.up.value, scratch);
            crate::backend::dispatch().conv1d_forward(&geo, input, w_eff.as_slice(), b, &mut out);
            scratch.give(w_eff);
        } else {
            let w = self.weight.value.as_slice();
            crate::backend::dispatch().conv1d_forward(&geo, input, w, b, &mut out);
        }
        out
    }
}

impl Layer for Conv1d {
    fn forward_scratch(&mut self, input: &Tensor, _mode: Mode, scratch: &mut Scratch) -> Tensor {
        let out = self.forward_uncached(input, scratch);
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
        // The fused MC path never runs a backward pass, so caching would
        // only keep a copy of the stacked batch (and overwrite the cache a
        // `Train` forward left for its backward).
        self.forward_uncached(input, scratch)
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
            self.input_width(),
            "Conv1d: expected {}x{} = {} input features, got {}",
            self.in_ch,
            self.time_len,
            self.input_width(),
            input.cols()
        );
        let geo = self.geometry();
        let b = self.bias.value.as_slice();
        let idx = ctx.param_cursor;
        ctx.param_cursor += 2;
        // Unlike Dense there is no base sweep over all rows: the delta
        // changes the kernel itself, so an adapted segment needs a full
        // sweep with its own W_eff and a shared base sweep would be
        // discarded. Each segment convolves its own rows with the kernel
        // a solo forward would use — W_eff built from the artifact's
        // factors exactly as `forward_scratch` builds it, or W for a
        // source-only segment — and the backend's per-row arithmetic order
        // keeps the rows bit-identical to solo serving. The segments cover
        // every row, so each row of `out` is written once.
        let mut out = scratch.take_for_overwrite(input.rows(), geo.output_width());
        let mut row0 = 0usize;
        for seg in ctx.segments {
            let w_eff = seg.delta.map(|art| {
                let (down, up) = load_factor_pair(art, idx, delta, scratch);
                let w_eff = self.materialize_w_eff(&down, &up, scratch);
                scratch.give(up);
                scratch.give(down);
                w_eff
            });
            let w = w_eff.as_ref().unwrap_or(&self.weight.value).as_slice();
            let x_seg = copy_rows_in(input, row0, seg.rows, scratch);
            let mut out_seg = scratch.take_for_overwrite(seg.rows, geo.output_width());
            crate::backend::dispatch().conv1d_forward(&geo, &x_seg, w, b, &mut out_seg);
            copy_rows_out(&out_seg, &mut out, row0);
            for t in [out_seg, x_seg].into_iter().chain(w_eff) {
                scratch.give(t);
            }
            row0 += seg.rows;
        }
        out
    }

    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv1d::backward called before forward");
        assert_eq!(
            grad_output.cols(),
            self.output_width(),
            "Conv1d: grad width mismatch"
        );
        let geo = self.geometry();
        let mut grad_input = scratch.take(input.rows(), geo.input_width());
        // The backend computes disjoint `grad_input` rows in parallel and
        // reduces the shared `dw`/`db` gradients through per-chunk buffers
        // combined in chunk order — bit-identical for any thread count and
        // across backends.
        if let Some(delta) = &self.delta {
            // Frozen base: run the sweep against W_eff, catch the effective
            // weight/bias gradients in scratch, then project dW_eff onto the
            // factors (chain rule through W_eff = W + s·down·up):
            //   dDown = s · dW_eff · upᵀ,  dUp = s · downᵀ · dW_eff.
            // The bias is frozen, so its gradient sink is discarded.
            let fan = self.in_ch * self.kernel;
            let w_eff = self.materialize_w_eff(&delta.down.value, &delta.up.value, scratch);
            let mut dw_eff = scratch.take(self.out_ch, fan);
            let mut db_sink = scratch.take_vec(self.out_ch);
            crate::backend::dispatch().conv1d_backward(
                &geo,
                input,
                grad_output,
                w_eff.as_slice(),
                dw_eff.as_mut_slice(),
                &mut db_sink,
                &mut grad_input,
                scratch,
            );
            scratch.give_vec(db_sink);
            scratch.give(w_eff);
            // The `input` borrow of `self` ends with the backend call, so the
            // factors can be taken mutably for the projection.
            if let Some(delta) = &mut self.delta {
                let rank = delta.up.value.rows();
                let mut ddown = scratch.take(self.out_ch, rank);
                dw_eff.matmul_t_into(&delta.up.value, &mut ddown);
                delta.down.grad.axpy(delta.scale, &ddown);
                scratch.give(ddown);
                let mut dup = scratch.take(rank, fan);
                delta.down.value.t_matmul_into(&dw_eff, &mut dup);
                delta.up.grad.axpy(delta.scale, &dup);
                scratch.give(dup);
            }
            scratch.give(dw_eff);
        } else {
            let w = self.weight.value.as_slice();
            crate::backend::dispatch().conv1d_backward(
                &geo,
                input,
                grad_output,
                w,
                self.weight.grad.as_mut_slice(),
                self.bias.grad.as_mut_slice(),
                &mut grad_input,
                scratch,
            );
        }
        grad_input
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
        self.delta = Some(DeltaParams::zero_init(
            self.out_ch,
            self.in_ch * self.kernel,
            cfg,
            rng,
        ));
        1
    }

    fn detach_adapters(&mut self) -> usize {
        usize::from(self.delta.take().is_some())
    }

    fn adapted_layers(&self) -> usize {
        usize::from(self.delta.is_some())
    }

    fn name(&self) -> &'static str {
        "Conv1d"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        assert_eq!(
            input_dim,
            self.input_width(),
            "Conv1d: wired after {} features, expects {}",
            input_dim,
            self.input_width()
        );
        self.output_width()
    }

    fn input_dim(&self) -> Option<usize> {
        Some(self.input_width())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A conv with kernel 1 and identity-ish weights acts per-time-step.
    #[test]
    fn kernel_one_is_pointwise() {
        let mut rng = Rng::new(1);
        let mut conv = Conv1d::new(1, 1, 1, 1, 4, &mut rng);
        conv.weight.value = Tensor::from_vec(1, 1, vec![2.0]);
        conv.bias.value = Tensor::from_vec(1, 1, vec![0.5]);
        let x = Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[2.5, 4.5, 6.5, 8.5]);
    }

    /// Hand-checked causal convolution with kernel 2.
    #[test]
    fn causal_kernel_two() {
        let mut rng = Rng::new(2);
        let mut conv = Conv1d::new(1, 1, 2, 1, 3, &mut rng);
        // taps: [w_past, w_present]
        conv.weight.value = Tensor::from_vec(1, 2, vec![10.0, 1.0]);
        conv.bias.value = Tensor::zeros(1, 1);
        let x = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let y = conv.forward(&x, Mode::Eval);
        // y[0] = 1 (past is zero-padded), y[1] = 10·1 + 2, y[2] = 10·2 + 3.
        assert_eq!(y.as_slice(), &[1.0, 12.0, 23.0]);
    }

    /// Dilation reaches further back.
    #[test]
    fn dilated_kernel_two() {
        let mut rng = Rng::new(3);
        let mut conv = Conv1d::new(1, 1, 2, 2, 4, &mut rng);
        conv.weight.value = Tensor::from_vec(1, 2, vec![10.0, 1.0]);
        conv.bias.value = Tensor::zeros(1, 1);
        let x = Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, Mode::Eval);
        // back = 2 for the past tap: y[t] = x[t] + 10·x[t−2].
        assert_eq!(y.as_slice(), &[1.0, 2.0, 13.0, 24.0]);
    }

    /// Causality: perturbing the future never changes the past outputs.
    #[test]
    fn output_is_causal() {
        let mut rng = Rng::new(4);
        let mut conv = Conv1d::new(2, 3, 3, 2, 8, &mut rng);
        let x1 = Tensor::rand_normal(1, 16, 0.0, 1.0, &mut rng);
        let mut x2 = x1.clone();
        // Change only the final time step of each channel.
        x2.set(0, 7, 99.0);
        x2.set(0, 15, -99.0);
        let y1 = conv.forward(&x1, Mode::Eval);
        let y2 = conv.forward(&x2, Mode::Eval);
        for o in 0..3 {
            for t in 0..7 {
                assert_eq!(
                    y1.get(0, o * 8 + t),
                    y2.get(0, o * 8 + t),
                    "output at t={t} saw the future"
                );
            }
        }
    }

    #[test]
    fn multichannel_mixes_inputs() {
        let mut rng = Rng::new(5);
        let mut conv = Conv1d::new(2, 1, 1, 1, 2, &mut rng);
        conv.weight.value = Tensor::from_vec(1, 2, vec![1.0, 100.0]);
        conv.bias.value = Tensor::zeros(1, 1);
        let x = Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]); // ch0=[1,2], ch1=[3,4]
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[301.0, 402.0]);
    }

    #[test]
    fn backward_shapes() {
        let mut rng = Rng::new(6);
        let mut conv = Conv1d::new(3, 5, 3, 1, 10, &mut rng);
        let x = Tensor::rand_normal(4, 30, 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train);
        assert_eq!(y.shape(), (4, 50));
        let dx = conv.backward(&Tensor::full(4, 50, 1.0));
        assert_eq!(dx.shape(), (4, 30));
        assert_eq!(conv.weight.grad.shape(), (5, 9));
        assert_eq!(conv.bias.grad.shape(), (1, 5));
        // Bias gradient = sum over batch and time = 4·10 per output channel.
        for &g in conv.bias.grad.as_slice() {
            assert!((g - 40.0).abs() < 1e-9);
        }
    }

    /// The fused MC forward computes what a plain forward does but leaves
    /// the input cache alone, so a backward after it still differentiates
    /// the last `Train` forward's batch.
    #[test]
    fn forward_mc_keeps_the_train_cache() {
        let mut rng = Rng::new(10);
        let mut conv = Conv1d::new(2, 3, 3, 2, 5, &mut rng);
        let x = Tensor::rand_normal(2, 10, 0.0, 1.0, &mut rng);
        let stacked = Tensor::rand_normal(8, 10, 0.0, 1.0, &mut rng);
        let g = Tensor::rand_normal(2, 15, 0.0, 1.0, &mut rng);

        let mut reference = conv.clone();
        let plain = reference.forward(&stacked, Mode::StochasticEval);
        reference.forward(&x, Mode::Train);
        let want = reference.backward(&g);

        conv.forward(&x, Mode::Train);
        let mut ctx = McContext {
            samples: 4,
            batch: 2,
            streams: &mut [],
            n_dropout: 0,
            next_dropout: 0,
        };
        let mc = crate::scratch::with(|s| conv.forward_mc(&stacked, &mut ctx, s));
        assert_eq!(mc.as_slice(), plain.as_slice());
        let got = conv.backward(&g);
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(
            conv.weight.grad.as_slice(),
            reference.weight.grad.as_slice()
        );
        assert_eq!(conv.bias.grad.as_slice(), reference.bias.grad.as_slice());
    }

    #[test]
    #[should_panic(expected = "Conv1d: expected")]
    fn rejects_wrong_width() {
        let mut rng = Rng::new(7);
        let mut conv = Conv1d::new(2, 2, 3, 1, 5, &mut rng);
        conv.forward(&Tensor::zeros(1, 9), Mode::Eval);
    }

    #[test]
    fn adapter_forward_equals_conv_with_merged_weights() {
        let mut rng = Rng::new(8);
        let mut conv = Conv1d::new(2, 3, 3, 2, 8, &mut rng);
        conv.attach_adapters(&AdapterConfig::rank(2), &mut rng);
        let delta = conv.delta.as_mut().unwrap();
        delta.up.value = Tensor::rand_normal(2, 6, 0.0, 0.4, &mut rng);
        let scale = delta.scale;

        // Reference: a plain conv whose weight is the merged W_eff.
        let mut merged = conv.clone();
        let w_eff = {
            let d = conv.delta.as_ref().unwrap();
            let mut w = conv.weight.value.clone();
            let prod = d.down.value.matmul(&d.up.value);
            for (wi, &p) in w.as_mut_slice().iter_mut().zip(prod.as_slice()) {
                *wi += scale * p;
            }
            w
        };
        merged.detach_adapters();
        merged.weight.value = w_eff;

        let x = Tensor::rand_normal(4, 16, 0.0, 1.0, &mut rng);
        let got = conv.forward(&x, Mode::Eval);
        let want = merged.forward(&x, Mode::Eval);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn adapter_backward_freezes_base_and_matches_finite_difference() {
        let mut rng = Rng::new(9);
        let mut conv = Conv1d::new(2, 2, 3, 1, 6, &mut rng);
        conv.attach_adapters(&AdapterConfig::rank(2), &mut rng);
        conv.delta.as_mut().unwrap().up.value = Tensor::rand_normal(2, 6, 0.0, 0.3, &mut rng);
        let x = Tensor::rand_normal(3, 12, 0.0, 1.0, &mut rng);

        let _ = conv.forward(&x, Mode::Train);
        let g = Tensor::full(3, 12, 1.0);
        let dx = conv.backward(&g);
        assert_eq!(dx.shape(), (3, 12));
        assert_eq!(
            conv.weight.grad.sum(),
            0.0,
            "frozen base weight gets no grad"
        );
        assert_eq!(conv.bias.grad.sum(), 0.0, "frozen bias gets no grad");

        // Finite-difference both factors under L = Σ y.
        let eps = 1e-5;
        let analytic: Vec<Vec<f64>> = {
            let d = conv.delta.as_ref().unwrap();
            vec![
                d.down.grad.as_slice().to_vec(),
                d.up.grad.as_slice().to_vec(),
            ]
        };
        for (pi, grads) in analytic.iter().enumerate() {
            for (i, &g_analytic) in grads.iter().enumerate() {
                let read = |c: &Conv1d| {
                    let d = c.delta.as_ref().unwrap();
                    if pi == 0 {
                        d.down.value.as_slice()[i]
                    } else {
                        d.up.value.as_slice()[i]
                    }
                };
                let write = |c: &mut Conv1d, v: f64| {
                    let d = c.delta.as_mut().unwrap();
                    if pi == 0 {
                        d.down.value.as_mut_slice()[i] = v;
                    } else {
                        d.up.value.as_mut_slice()[i] = v;
                    }
                };
                let base = read(&conv);
                write(&mut conv, base + eps);
                let plus = conv.forward(&x, Mode::Eval).sum();
                write(&mut conv, base - eps);
                let minus = conv.forward(&x, Mode::Eval).sum();
                write(&mut conv, base);
                let numeric = (plus - minus) / (2.0 * eps);
                assert!(
                    (numeric - g_analytic).abs() < 1e-6,
                    "factor {pi} entry {i}: numeric {numeric} vs analytic {g_analytic}"
                );
            }
        }
    }

    #[test]
    fn adapter_attach_is_prediction_preserving_and_detach_restores_base() {
        let mut rng = Rng::new(10);
        let mut conv = Conv1d::new(2, 3, 3, 1, 5, &mut rng);
        let x = Tensor::rand_normal(2, 10, 0.0, 1.0, &mut rng);
        let before = conv.forward(&x, Mode::Eval);
        conv.attach_adapters(&AdapterConfig::rank(4), &mut rng);
        assert_eq!(conv.adapted_layers(), 1);
        let attached = conv.forward(&x, Mode::Eval);
        assert_eq!(before.as_slice(), attached.as_slice());
        assert_eq!(conv.detach_adapters(), 1);
        let after = conv.forward(&x, Mode::Eval);
        assert_eq!(before.as_slice(), after.as_slice());
    }
}
