//! Elementwise activation layers.
//!
//! Each activation caches the quantity its derivative needs (the input for
//! ReLU-family, the output for tanh/sigmoid where the derivative is cheaper
//! to express in terms of the output).

use super::{Layer, McContext, Mode};
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Copies `src` into the persistent cache slot, reusing its buffer.
fn cache_into(slot: &mut Option<Tensor>, src: &Tensor) {
    match slot {
        Some(c) => c.copy_from(src),
        None => *slot = Some(src.clone()),
    }
}

/// The shared `forward_mc` body: the exact elementwise map of the layer's
/// `forward_scratch`, minus the derivative cache (the fused MC path never
/// runs a backward).
fn map_uncached(input: &Tensor, f: impl Fn(f64) -> f64, scratch: &mut Scratch) -> Tensor {
    let mut out = scratch.take_for_overwrite(input.rows(), input.cols());
    input.map_into(f, &mut out);
    out
}

/// Rectified linear unit: `max(0, x)`.
#[derive(Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// A fresh ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward_scratch(&mut self, input: &Tensor, _mode: Mode, scratch: &mut Scratch) -> Tensor {
        cache_into(&mut self.cached_input, input);
        let mut out = scratch.take_for_overwrite(input.rows(), input.cols());
        input.map_into(|x| x.max(0.0), &mut out);
        out
    }

    fn forward_mc(
        &mut self,
        input: &Tensor,
        _ctx: &mut McContext,
        scratch: &mut Scratch,
    ) -> Tensor {
        map_uncached(input, |x| x.max(0.0), scratch)
    }

    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Relu::backward before forward");
        let mut out = scratch.take_for_overwrite(grad_output.rows(), grad_output.cols());
        grad_output.zip_map_into(input, |g, x| if x > 0.0 { g } else { 0.0 }, &mut out);
        out
    }

    fn name(&self) -> &'static str {
        "Relu"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Leaky ReLU: `x` for `x > 0`, `αx` otherwise.
#[derive(Clone)]
pub struct LeakyRelu {
    alpha: f64,
    cached_input: Option<Tensor>,
}

impl LeakyRelu {
    /// # Panics
    /// Panics unless `0 <= alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&alpha),
            "LeakyRelu: alpha must be in [0,1)"
        );
        LeakyRelu {
            alpha,
            cached_input: None,
        }
    }
}

impl Layer for LeakyRelu {
    fn forward_scratch(&mut self, input: &Tensor, _mode: Mode, scratch: &mut Scratch) -> Tensor {
        cache_into(&mut self.cached_input, input);
        let a = self.alpha;
        let mut out = scratch.take_for_overwrite(input.rows(), input.cols());
        input.map_into(|x| if x > 0.0 { x } else { a * x }, &mut out);
        out
    }

    fn forward_mc(
        &mut self,
        input: &Tensor,
        _ctx: &mut McContext,
        scratch: &mut Scratch,
    ) -> Tensor {
        let a = self.alpha;
        map_uncached(input, |x| if x > 0.0 { x } else { a * x }, scratch)
    }

    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("LeakyRelu::backward before forward");
        let a = self.alpha;
        let mut out = scratch.take_for_overwrite(grad_output.rows(), grad_output.cols());
        grad_output.zip_map_into(input, |g, x| if x > 0.0 { g } else { a * g }, &mut out);
        out
    }

    fn name(&self) -> &'static str {
        "LeakyRelu"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Hyperbolic tangent.
#[derive(Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// A fresh tanh layer.
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn forward_scratch(&mut self, input: &Tensor, _mode: Mode, scratch: &mut Scratch) -> Tensor {
        let mut out = scratch.take_for_overwrite(input.rows(), input.cols());
        input.map_into(f64::tanh, &mut out);
        cache_into(&mut self.cached_output, &out);
        out
    }

    fn forward_mc(
        &mut self,
        input: &Tensor,
        _ctx: &mut McContext,
        scratch: &mut Scratch,
    ) -> Tensor {
        map_uncached(input, f64::tanh, scratch)
    }

    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor {
        let out = self
            .cached_output
            .as_ref()
            .expect("Tanh::backward before forward");
        let mut dx = scratch.take_for_overwrite(grad_output.rows(), grad_output.cols());
        grad_output.zip_map_into(out, |g, y| g * (1.0 - y * y), &mut dx);
        dx
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Logistic sigmoid.
#[derive(Clone, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// A fresh sigmoid layer.
    pub fn new() -> Self {
        Sigmoid::default()
    }
}

impl Layer for Sigmoid {
    fn forward_scratch(&mut self, input: &Tensor, _mode: Mode, scratch: &mut Scratch) -> Tensor {
        let mut out = scratch.take_for_overwrite(input.rows(), input.cols());
        input.map_into(|x| 1.0 / (1.0 + (-x).exp()), &mut out);
        cache_into(&mut self.cached_output, &out);
        out
    }

    fn forward_mc(
        &mut self,
        input: &Tensor,
        _ctx: &mut McContext,
        scratch: &mut Scratch,
    ) -> Tensor {
        map_uncached(input, |x| 1.0 / (1.0 + (-x).exp()), scratch)
    }

    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor {
        let out = self
            .cached_output
            .as_ref()
            .expect("Sigmoid::backward before forward");
        let mut dx = scratch.take_for_overwrite(grad_output.rows(), grad_output.cols());
        grad_output.zip_map_into(out, |g, y| g * y * (1.0 - y), &mut dx);
        dx
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(1, 4, vec![-2.0, -0.0, 0.5, 3.0]);
        let y = relu.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 3.0]);
        let g = relu.backward(&Tensor::full(1, 4, 1.0));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn leaky_relu_passes_scaled_negatives() {
        let mut l = LeakyRelu::new(0.1);
        let x = Tensor::from_vec(1, 2, vec![-1.0, 2.0]);
        let y = l.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[-0.1, 2.0]);
        let g = l.backward(&Tensor::full(1, 2, 1.0));
        assert_eq!(g.as_slice(), &[0.1, 1.0]);
    }

    #[test]
    fn tanh_saturates() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(1, 3, vec![-100.0, 0.0, 100.0]);
        let y = t.forward(&x, Mode::Eval);
        assert!((y.get(0, 0) + 1.0).abs() < 1e-12);
        assert_eq!(y.get(0, 1), 0.0);
        assert!((y.get(0, 2) - 1.0).abs() < 1e-12);
        // Derivative at saturation is ~0, at zero is 1.
        let g = t.backward(&Tensor::full(1, 3, 1.0));
        assert!(g.get(0, 0).abs() < 1e-12);
        assert!((g.get(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_midpoint_and_derivative() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(1, 1, vec![0.0]);
        let y = s.forward(&x, Mode::Eval);
        assert_eq!(y.get(0, 0), 0.5);
        let g = s.backward(&Tensor::full(1, 1, 1.0));
        assert_eq!(g.get(0, 0), 0.25);
    }

    #[test]
    fn activations_preserve_width() {
        assert_eq!(Relu::new().output_dim(17), 17);
        assert_eq!(Tanh::new().output_dim(5), 5);
        assert_eq!(Sigmoid::new().output_dim(9), 9);
        assert_eq!(LeakyRelu::new(0.01).output_dim(3), 3);
    }
}
