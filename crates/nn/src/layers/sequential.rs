//! The `Sequential` container: an ordered chain of layers.

use super::{Layer, McContext, Mode, Param, SegmentSpan, SegmentedContext};
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// A feed-forward chain of layers, itself a [`Layer`].
///
/// `Sequential` is the model type used throughout the workspace. It supports
/// splitting into a feature extractor and head (`split_off`), which the
/// baseline adapters use to align features while keeping the regression head
/// frozen or shared.
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Persistent buffer for the fused MC-dropout pass's pre-split per-pass
    /// RNG streams (reused so steady-state fused inference never allocates).
    mc_streams: Vec<crate::rng::Rng>,
}

impl Sequential {
    /// An empty chain (the identity function).
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            mc_streams: Vec::new(),
        }
    }

    /// Appends a layer, builder style.
    // The builder name mirrors Keras/PyTorch `Sequential.add`; it cannot be
    // confused with `std::ops::Add` in practice (different signature).
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends an already-boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the chain holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer names, in order (useful in error messages and debugging).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Splits the chain at `index`, leaving `[0, index)` in `self` and
    /// returning `[index, len)`. Used to separate a feature extractor from
    /// its regression head.
    ///
    /// # Panics
    /// Panics if `index > len`.
    pub fn split_off(&mut self, index: usize) -> Sequential {
        assert!(index <= self.layers.len(), "split_off: index out of range");
        Sequential {
            layers: self.layers.split_off(index),
            mc_streams: Vec::new(),
        }
    }

    /// Joins another chain onto the end of this one.
    pub fn extend(&mut self, tail: Sequential) {
        self.layers.extend(tail.layers);
    }

    /// Convenience: an `Eval`-mode forward pass (deterministic inference).
    pub fn predict(&mut self, input: &Tensor) -> Tensor {
        self.forward(input, Mode::Eval)
    }

    /// Zeroes every parameter gradient in the chain.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Hands out the persistent fused-MC stream buffer (see
    /// [`StochasticRegressor::stochastic_passes_fused`][fused]). The caller
    /// takes it, refills it, and puts it back so the buffer is reused.
    ///
    /// [fused]: crate::model::StochasticRegressor::stochastic_passes_fused
    pub(crate) fn take_mc_streams(&mut self) -> Vec<crate::rng::Rng> {
        std::mem::take(&mut self.mc_streams)
    }

    /// Returns the fused-MC stream buffer after use.
    pub(crate) fn put_mc_streams(&mut self, streams: Vec<crate::rng::Rng>) {
        self.mc_streams = streams;
    }

    /// The layer chain, for the fused-MC driver in `crate::model` (which
    /// runs the dropout-free prefix of the chain on the un-stacked batch).
    pub(crate) fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// True when any layer in the chain carries a low-rank delta adapter
    /// (see [`crate::adapter`]): the trainable set is then the KB-sized
    /// delta state, not the full weights.
    pub fn has_adapters(&self) -> bool {
        self.adapted_layers() > 0
    }

    /// One `Eval` forward over a stacked multi-tenant batch: `input`
    /// concatenates each segment's rows and `segments` names the delta
    /// serving each block (see [`SegmentSpan`]). Adapted `Dense` layers run
    /// their base GEMM once across the whole batch and add each segment's
    /// low-rank correction to that segment's rows only, so the base GEMMs
    /// (and their panel-packing cost) amortize over the entire batch;
    /// adapted `Conv1d` layers convolve each segment with its own
    /// effective kernel (see [`Layer::forward_segmented`]).
    ///
    /// Each segment's output rows are bit-identical to applying its delta
    /// and running that segment's rows through a solo `Eval` forward: the
    /// model's own attached adapter state is ignored (callers keep the
    /// model parked on a zero-`up` checkpoint so nothing else can leak in).
    ///
    /// # Panics
    /// Panics if segment rows don't sum to `input.rows()`, or if a segment
    /// carries an artifact for a layer whose segmented forward cannot serve
    /// it (an adapter-capable layer with no adapter attached).
    pub fn predict_segmented_scratch(
        &mut self,
        input: &Tensor,
        segments: &[SegmentSpan<'_>],
        scratch: &mut Scratch,
    ) -> Tensor {
        let total: usize = segments.iter().map(|s| s.rows).sum();
        assert_eq!(
            total,
            input.rows(),
            "predict_segmented_scratch: segment rows must sum to the stacked row count"
        );
        let mut ctx = SegmentedContext {
            segments,
            param_cursor: 0,
        };
        self.forward_segmented(input, &mut ctx, scratch)
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Copies all parameter values from `other` (shapes must match).
    ///
    /// # Panics
    /// Panics if the two chains have different parameter structures.
    pub fn load_params_from(&mut self, other: &mut Sequential) {
        let mut src = Vec::new();
        other.visit_params(&mut |p| src.push(p.value.clone()));
        let mut dst = 0usize;
        self.visit_params(&mut |_| dst += 1);
        assert_eq!(dst, src.len(), "load_params_from: parameter count mismatch");
        let mut src = src.into_iter();
        self.visit_params(&mut |d| {
            let s = src.next().expect("counted above");
            assert_eq!(
                d.value.shape(),
                s.shape(),
                "load_params_from: shape mismatch"
            );
            d.value = s;
        });
    }
}

impl Layer for Sequential {
    fn forward_scratch(&mut self, input: &Tensor, mode: Mode, scratch: &mut Scratch) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            let mut out = scratch.take(input.rows(), input.cols());
            out.copy_from(input);
            return out;
        };
        let mut x = first.forward_scratch(input, mode, scratch);
        for layer in layers {
            let next = layer.forward_scratch(&x, mode, scratch);
            scratch.give(x);
            x = next;
        }
        x
    }

    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor {
        let mut layers = self.layers.iter_mut().rev();
        let Some(first) = layers.next() else {
            let mut out = scratch.take(grad_output.rows(), grad_output.cols());
            out.copy_from(grad_output);
            return out;
        };
        let mut g = first.backward_scratch(grad_output, scratch);
        for layer in layers {
            let next = layer.backward_scratch(&g, scratch);
            scratch.give(g);
            g = next;
        }
        g
    }

    fn forward_mc(&mut self, input: &Tensor, ctx: &mut McContext, scratch: &mut Scratch) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            let mut out = scratch.take(input.rows(), input.cols());
            out.copy_from(input);
            return out;
        };
        let mut x = first.forward_mc(input, ctx, scratch);
        for layer in layers {
            let next = layer.forward_mc(&x, ctx, scratch);
            scratch.give(x);
            x = next;
        }
        x
    }

    fn forward_segmented(
        &mut self,
        input: &Tensor,
        ctx: &mut SegmentedContext<'_>,
        scratch: &mut Scratch,
    ) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            let mut out = scratch.take(input.rows(), input.cols());
            out.copy_from(input);
            return out;
        };
        let mut x = first.forward_segmented(input, ctx, scratch);
        for layer in layers {
            let next = layer.forward_segmented(&x, ctx, scratch);
            scratch.give(x);
            x = next;
        }
        x
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_dropout_rngs(&mut self, f: &mut dyn FnMut(&mut crate::rng::Rng)) {
        for layer in &mut self.layers {
            layer.visit_dropout_rngs(f);
        }
    }

    fn visit_base_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_base_params(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut [f64])) {
        for layer in &mut self.layers {
            layer.visit_state(f);
        }
    }

    fn attach_adapters(
        &mut self,
        cfg: &crate::adapter::AdapterConfig,
        rng: &mut crate::rng::Rng,
    ) -> usize {
        self.layers
            .iter_mut()
            .map(|l| l.attach_adapters(cfg, rng))
            .sum()
    }

    fn detach_adapters(&mut self) -> usize {
        self.layers.iter_mut().map(|l| l.detach_adapters()).sum()
    }

    fn adapted_layers(&self) -> usize {
        self.layers.iter().map(|l| l.adapted_layers()).sum()
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        self.layers
            .iter()
            .fold(input_dim, |dim, layer| layer.output_dim(dim))
    }

    fn input_dim(&self) -> Option<usize> {
        // Width-agnostic layers are width-preserving (the trait contract),
        // so the first constrained layer's width is the chain's.
        self.layers.iter().find_map(|l| l.input_dim())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Dense, Relu};
    use crate::rng::Rng;

    fn tiny_mlp(rng: &mut Rng) -> Sequential {
        Sequential::new()
            .add(Dense::new(3, 4, Init::HeNormal, rng))
            .add(Relu::new())
            .add(Dense::new(4, 2, Init::XavierUniform, rng))
    }

    #[test]
    fn empty_chain_is_identity() {
        let mut s = Sequential::new();
        let x = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        assert_eq!(s.forward(&x, Mode::Eval), x);
        assert_eq!(s.backward(&x), x);
        assert_eq!(s.output_dim(2), 2);
    }

    #[test]
    fn forward_chains_and_output_dim_agrees() {
        let mut rng = Rng::new(1);
        let mut m = tiny_mlp(&mut rng);
        let x = Tensor::rand_normal(5, 3, 0.0, 1.0, &mut rng);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), (5, 2));
        assert_eq!(m.output_dim(3), 2);
    }

    #[test]
    fn params_and_zero_grad() {
        let mut rng = Rng::new(2);
        let mut m = tiny_mlp(&mut rng);
        assert_eq!(m.num_parameters(), 3 * 4 + 4 + 4 * 2 + 2);
        let x = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);
        let _ = m.forward(&x, Mode::Train);
        let _ = m.backward(&Tensor::full(4, 2, 1.0));
        let mut has_grad = false;
        m.visit_params(&mut |p| has_grad |= p.grad.frobenius_norm() > 0.0);
        assert!(has_grad);
        m.zero_grad();
        m.visit_params(&mut |p| assert_eq!(p.grad.sum(), 0.0));
    }

    #[test]
    fn split_off_partitions_the_chain() {
        let mut rng = Rng::new(3);
        let mut m = tiny_mlp(&mut rng);
        let mut full = m.clone();
        let mut head = m.split_off(2);
        assert_eq!(m.len(), 2);
        assert_eq!(head.len(), 1);
        let x = Tensor::rand_normal(2, 3, 0.0, 1.0, &mut rng);
        let via_split = head.forward(&m.forward(&x, Mode::Eval), Mode::Eval);
        let direct = full.forward(&x, Mode::Eval);
        assert_eq!(via_split, direct);
    }

    #[test]
    fn extend_rejoins() {
        let mut rng = Rng::new(4);
        let mut m = tiny_mlp(&mut rng);
        let mut reference = m.clone();
        let head = m.split_off(1);
        m.extend(head);
        let x = Tensor::rand_normal(2, 3, 0.0, 1.0, &mut rng);
        assert_eq!(m.forward(&x, Mode::Eval), reference.forward(&x, Mode::Eval));
    }

    #[test]
    fn load_params_from_copies_weights() {
        let mut rng = Rng::new(5);
        let mut a = tiny_mlp(&mut rng);
        let mut b = tiny_mlp(&mut rng); // different init
        let x = Tensor::rand_normal(2, 3, 0.0, 1.0, &mut rng);
        assert_ne!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
        b.load_params_from(&mut a);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    #[test]
    fn clone_is_independent() {
        let mut rng = Rng::new(6);
        let mut a = tiny_mlp(&mut rng);
        let mut b = a.clone();
        // Perturb a's parameters; b must be unaffected.
        a.visit_params(&mut |p| p.value.scale_assign(2.0));
        let x = Tensor::rand_normal(1, 3, 0.0, 1.0, &mut rng);
        assert_ne!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    #[test]
    fn layer_names_in_order() {
        let mut rng = Rng::new(7);
        let m = tiny_mlp(&mut rng);
        assert_eq!(m.layer_names(), vec!["Dense", "Relu", "Dense"]);
    }

    #[test]
    fn input_dim_is_first_constrained_layer() {
        let mut rng = Rng::new(8);
        assert_eq!(tiny_mlp(&mut rng).input_dim(), Some(3));
        let leading_activation =
            Sequential::new()
                .add(Relu::new())
                .add(Dense::new(5, 2, Init::HeNormal, &mut rng));
        assert_eq!(
            leading_activation.input_dim(),
            Some(5),
            "width-preserving layers defer to the first constrained one"
        );
        assert_eq!(Sequential::new().add(Relu::new()).input_dim(), None);
    }
}
