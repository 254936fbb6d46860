//! Residual temporal-convolutional block (Bai et al., "An Empirical
//! Evaluation of Generic Convolutional and Recurrent Networks").
//!
//! The PDR regressor in this reproduction is a stack of these blocks — the
//! same architecture family as RoNIN's TCN backbone that the paper adapts.
//!
//! The convolutional inner loops run on the active compute backend
//! ([`crate::backend`]); the blocked backend runs every conv of the block,
//! the 1×1 downsample included, on its register-tiled conv kernel,
//! bit-identical to the reference kernels.

use super::{Conv1d, Dropout, Layer, McContext, Mode, Param, Relu, SegmentedContext};
use crate::rng::Rng;
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// `out = ReLU( branch(x) + skip(x) )` where the branch is two dilated causal
/// convolutions with ReLU + dropout after each, and `skip` is the identity
/// when channel counts match or a 1×1 convolution otherwise.
#[derive(Clone)]
pub struct TcnBlock {
    conv1: Conv1d,
    relu1: Relu,
    drop1: Dropout,
    conv2: Conv1d,
    relu2: Relu,
    drop2: Dropout,
    /// 1×1 channel-matching convolution; `None` when `in_ch == out_ch`.
    downsample: Option<Conv1d>,
    relu_out: Relu,
    in_ch: usize,
    out_ch: usize,
    time_len: usize,
}

impl TcnBlock {
    /// Builds a block with the given channel widths, kernel size, dilation,
    /// window length, and dropout probability.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        dilation: usize,
        time_len: usize,
        dropout_p: f64,
        rng: &mut Rng,
    ) -> Self {
        let downsample = if in_ch != out_ch {
            Some(Conv1d::new(in_ch, out_ch, 1, 1, time_len, rng))
        } else {
            None
        };
        TcnBlock {
            conv1: Conv1d::new(in_ch, out_ch, kernel, dilation, time_len, rng),
            relu1: Relu::new(),
            drop1: Dropout::new(dropout_p, rng),
            conv2: Conv1d::new(out_ch, out_ch, kernel, dilation, time_len, rng),
            relu2: Relu::new(),
            drop2: Dropout::new(dropout_p, rng),
            downsample,
            relu_out: Relu::new(),
            in_ch,
            out_ch,
            time_len,
        }
    }

    /// The block's forward wiring — branch, skip, residual sum, output
    /// ReLU — with `fwd` as every sub-layer's forward, so the plain, fused
    /// MC-dropout and segmented forwards share one definition. Sub-layers
    /// run in definition order: conv1, relu1, drop1, conv2, relu2, drop2,
    /// the downsample, relu_out.
    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        fwd: &mut dyn FnMut(&mut dyn Layer, &Tensor, &mut Scratch) -> Tensor,
    ) -> Tensor {
        let mut b = fwd(&mut self.conv1, input, scratch);
        for stage in [
            &mut self.relu1 as &mut dyn Layer,
            &mut self.drop1,
            &mut self.conv2,
            &mut self.relu2,
            &mut self.drop2,
        ] {
            let next = fwd(stage, &b, scratch);
            scratch.give(b);
            b = next;
        }
        let mut sum = scratch.take(b.rows(), b.cols());
        match &mut self.downsample {
            Some(down) => {
                let skip = fwd(down, input, scratch);
                b.zip_map_into(&skip, |x, s| x + s, &mut sum);
                scratch.give(skip);
            }
            None => b.zip_map_into(input, |x, s| x + s, &mut sum),
        }
        scratch.give(b);
        let out = fwd(&mut self.relu_out, &sum, scratch);
        scratch.give(sum);
        out
    }
}

impl Layer for TcnBlock {
    fn forward_scratch(&mut self, input: &Tensor, mode: Mode, scratch: &mut Scratch) -> Tensor {
        self.forward_with(input, scratch, &mut |l, x, s| l.forward_scratch(x, mode, s))
    }

    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor {
        let g_sum = self.relu_out.backward_scratch(grad_output, scratch);
        // Branch path.
        let mut gb = self.drop2.backward_scratch(&g_sum, scratch);
        for stage in [
            &mut self.relu2 as &mut dyn Layer,
            &mut self.conv2,
            &mut self.drop1,
            &mut self.relu1,
            &mut self.conv1,
        ] {
            let next = stage.backward_scratch(&gb, scratch);
            scratch.give(gb);
            gb = next;
        }
        // Skip path.
        let mut out = scratch.take(gb.rows(), gb.cols());
        match &mut self.downsample {
            Some(down) => {
                let gr = down.backward_scratch(&g_sum, scratch);
                gb.zip_map_into(&gr, |a, b| a + b, &mut out);
                scratch.give(gr);
            }
            None => gb.zip_map_into(&g_sum, |a, b| a + b, &mut out),
        }
        scratch.give(g_sum);
        scratch.give(gb);
        out
    }

    fn forward_mc(&mut self, input: &Tensor, ctx: &mut McContext, scratch: &mut Scratch) -> Tensor {
        // The dropout layers are visited in definition order (drop1, drop2),
        // matching `visit_dropout_rngs`, so each consumes its own pre-split
        // streams.
        self.forward_with(input, scratch, &mut |l, x, s| l.forward_mc(x, ctx, s))
    }

    fn forward_segmented(
        &mut self,
        input: &Tensor,
        ctx: &mut SegmentedContext<'_>,
        scratch: &mut Scratch,
    ) -> Tensor {
        // The convs consume their artifact slots in call order — conv1,
        // conv2, then the downsample — which is `visit_params` order.
        self.forward_with(input, scratch, &mut |l, x, s| {
            l.forward_segmented(x, ctx, s)
        })
    }

    fn name(&self) -> &'static str {
        "TcnBlock"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        assert_eq!(
            input_dim,
            self.in_ch * self.time_len,
            "TcnBlock: wired after {} features, expects {}",
            input_dim,
            self.in_ch * self.time_len
        );
        self.out_ch * self.time_len
    }

    fn input_dim(&self) -> Option<usize> {
        Some(self.in_ch * self.time_len)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.conv2.visit_params(f);
        if let Some(down) = &mut self.downsample {
            down.visit_params(f);
        }
    }

    fn visit_dropout_rngs(&mut self, f: &mut dyn FnMut(&mut Rng)) {
        self.drop1.visit_dropout_rngs(f);
        self.drop2.visit_dropout_rngs(f);
    }

    fn visit_base_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_base_params(f);
        self.conv2.visit_base_params(f);
        if let Some(down) = &mut self.downsample {
            down.visit_base_params(f);
        }
    }

    fn attach_adapters(&mut self, cfg: &crate::adapter::AdapterConfig, rng: &mut Rng) -> usize {
        let mut n = self.conv1.attach_adapters(cfg, rng);
        n += self.conv2.attach_adapters(cfg, rng);
        if let Some(down) = &mut self.downsample {
            n += down.attach_adapters(cfg, rng);
        }
        n
    }

    fn detach_adapters(&mut self) -> usize {
        let mut n = self.conv1.detach_adapters();
        n += self.conv2.detach_adapters();
        if let Some(down) = &mut self.downsample {
            n += down.detach_adapters();
        }
        n
    }

    fn adapted_layers(&self) -> usize {
        self.conv1.adapted_layers()
            + self.conv2.adapted_layers()
            + self.downsample.as_ref().map_or(0, |d| d.adapted_layers())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_with_channel_change() {
        let mut rng = Rng::new(1);
        let mut block = TcnBlock::new(2, 4, 3, 1, 8, 0.0, &mut rng);
        let x = Tensor::rand_normal(3, 16, 0.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), (3, 32));
        let dx = block.backward(&Tensor::full(3, 32, 1.0));
        assert_eq!(dx.shape(), (3, 16));
    }

    #[test]
    fn same_channels_skips_downsample() {
        let mut rng = Rng::new(2);
        let block = TcnBlock::new(4, 4, 3, 2, 8, 0.1, &mut rng);
        assert!(block.downsample.is_none());
        // 2 convs × 2 params each (no downsample).
        let mut block = block;
        let mut n = 0;
        block.visit_params(&mut |_| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn channel_change_adds_downsample_params() {
        let mut rng = Rng::new(3);
        let mut block = TcnBlock::new(2, 4, 3, 1, 8, 0.0, &mut rng);
        let mut n = 0;
        block.visit_params(&mut |_| n += 1);
        assert_eq!(n, 6);
    }

    #[test]
    fn output_is_nonnegative() {
        // Final ReLU guarantees non-negative activations.
        let mut rng = Rng::new(4);
        let mut block = TcnBlock::new(3, 3, 2, 1, 6, 0.0, &mut rng);
        let x = Tensor::rand_normal(5, 18, 0.0, 3.0, &mut rng);
        let y = block.forward(&x, Mode::Eval);
        assert!(y.min() >= 0.0);
    }

    #[test]
    fn residual_path_preserves_causality() {
        let mut rng = Rng::new(5);
        let mut block = TcnBlock::new(2, 2, 3, 2, 10, 0.0, &mut rng);
        let x1 = Tensor::rand_normal(1, 20, 0.0, 1.0, &mut rng);
        let mut x2 = x1.clone();
        x2.set(0, 9, 50.0); // last step of channel 0
        x2.set(0, 19, -50.0); // last step of channel 1
        let y1 = block.forward(&x1, Mode::Eval);
        let y2 = block.forward(&x2, Mode::Eval);
        for c in 0..2 {
            for t in 0..9 {
                assert_eq!(y1.get(0, c * 10 + t), y2.get(0, c * 10 + t));
            }
        }
    }
}
