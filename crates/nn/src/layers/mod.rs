//! The layer abstraction and all concrete layers.
//!
//! Layers are *stateful*: `forward` caches whatever `backward` needs, so a
//! training step is always the pair `forward(Train)` → `backward`. This
//! mirrors the define-by-run discipline of mainstream frameworks without the
//! complexity of a tape: every model in this workspace is a feed-forward
//! chain (possibly with intra-block residual connections handled inside
//! [`TcnBlock`]), so reverse-mode differentiation reduces to walking the
//! chain backwards.
//!
//! Layers own shapes, caches, and parameters; the arithmetic inner loops
//! (GEMM for [`Dense`], the convolution sweeps for [`Conv1d`]) are
//! delegated to the process-wide compute backend ([`crate::backend`]),
//! which is free to reschedule them but never to change a single output
//! bit.

mod activations;
mod batchnorm;
mod conv1d;
mod dense;
mod dropout;
mod pool;
mod sequential;
mod tcn;

pub use activations::{LeakyRelu, Relu, Sigmoid, Tanh};
pub use batchnorm::BatchNorm1d;
pub use conv1d::Conv1d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use pool::GlobalAvgPool1d;
pub use sequential::Sequential;
pub use tcn::TcnBlock;

use crate::rng::Rng;
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Forward-pass mode.
///
/// * `Train` — dropout active, batch-norm uses batch statistics and updates
///   its running moments.
/// * `Eval` — deterministic inference: dropout is the identity, batch-norm
///   uses running moments.
/// * `StochasticEval` — Monte-Carlo-dropout inference (Gal & Ghahramani):
///   dropout stays active but batch-norm keeps using running moments and
///   nothing is updated. This is the mode TASFAR's uncertainty estimator
///   runs its `T` samplings in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Dropout active; batch-norm uses and updates batch statistics.
    Train,
    /// Deterministic inference.
    Eval,
    /// MC-dropout sampling: dropout active, batch-norm frozen.
    StochasticEval,
}

impl Mode {
    /// Whether dropout masks are sampled in this mode.
    pub fn dropout_active(self) -> bool {
        matches!(self, Mode::Train | Mode::StochasticEval)
    }

    /// Whether batch statistics are used (and running moments updated).
    pub fn batch_stats(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// A trainable parameter: the value plus its gradient accumulator.
///
/// Gradients accumulate across `backward` calls until [`Param::zero_grad`];
/// the trainer zeroes them at the top of every step.
#[derive(Debug, Clone)]
pub struct Param {
    /// The parameter value.
    pub value: Tensor,
    /// The gradient accumulator, shaped like `value`.
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.rows(), value.cols());
        Param { value, grad }
    }

    /// Resets the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// Shared bookkeeping for one fused batched MC-dropout forward pass.
///
/// The fused path stacks the `T` stochastic passes into one tall batch
/// (rows = `samples × batch`). Every op in `Mode::StochasticEval` is
/// row-independent, so the only thing a layer must handle specially is
/// dropout: each block of `batch` rows must draw its mask from that pass's
/// pre-split RNG stream, exactly as the per-pass path would. `McContext`
/// carries the streams (laid out pass-major, layer-minor: stream for pass
/// `t`, dropout layer `l` lives at `streams[t * n_dropout + l]`) and hands
/// each [`Dropout`] its layer index via `next_dropout`.
pub struct McContext<'a> {
    /// Number of stacked stochastic passes `T`.
    pub samples: usize,
    /// Rows per pass (the original batch size).
    pub batch: usize,
    /// Pre-split per-(pass, dropout-layer) RNG streams, pass-major.
    pub streams: &'a mut [Rng],
    /// Number of dropout layers in the model (the stride of `streams`).
    pub n_dropout: usize,
    /// Index of the next dropout layer to be visited, in definition order.
    pub next_dropout: usize,
}

/// One contiguous block of rows in a segmented (multi-tenant) forward
/// batch: how many rows it spans and which delta serves it.
///
/// `None` means the segment is served by the frozen base weights alone
/// (a tenant that never adapted, or whose delta was rejected as stale).
pub struct SegmentSpan<'a> {
    /// Rows in this segment, contiguous in the stacked input.
    pub rows: usize,
    /// The segment's low-rank delta, or `None` for source-only serving.
    pub delta: Option<&'a crate::spec::DeltaArtifact>,
}

/// Bookkeeping for one segmented fused forward pass (the multi-tenant
/// serving path).
///
/// The stacked input concatenates every segment's rows; each adapted layer
/// serves each segment from that segment's own delta — `Dense` computes its
/// base affine once over the whole batch and adds each segment's low-rank
/// correction to that segment's rows, `Conv1d` convolves each segment with
/// its own effective kernel. The per-segment factors live in
/// [`crate::spec::DeltaArtifact`]s, whose tensors are indexed in global
/// [`Layer::visit_params`] order — `param_cursor` tracks that order as the
/// forward walks the chain, so every layer (adapted or not) must advance it
/// by the number of trainable tensors it exposes.
pub struct SegmentedContext<'a> {
    /// The row segments, in stacking order. Row counts must sum to the
    /// stacked input's row count.
    pub segments: &'a [SegmentSpan<'a>],
    /// Index of the next trainable tensor in `visit_params` order (the
    /// artifact tensor index for the layer about to consume it).
    pub param_cursor: usize,
}

/// A differentiable network layer.
///
/// Contract:
/// * `forward` must be called before `backward`, with the same batch;
/// * `backward` receives `∂L/∂output` and returns `∂L/∂input`, adding
///   parameter gradients into each [`Param::grad`];
/// * `visit_params` walks trainable parameters in a stable order (the
///   optimizer keys its per-parameter state by position).
pub trait Layer: Send + Sync {
    /// Computes the layer output for a `(batch, features)` input.
    ///
    /// Equivalent to [`Layer::forward_scratch`] with the per-thread arena;
    /// concrete layers implement `forward_scratch` and inherit this wrapper.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        crate::scratch::with(|scratch| self.forward_scratch(input, mode, scratch))
    }

    /// [`Layer::forward`] with an explicit scratch arena: all intermediate
    /// buffers (and the returned tensor's backing storage) are checked out
    /// of `scratch`, so steady-state calls are allocation-free. The caller
    /// may `give` the returned tensor back once done with it.
    ///
    /// Must be arithmetically identical to `forward` — same kernels, same
    /// accumulation order — only the buffer provenance differs.
    fn forward_scratch(&mut self, input: &Tensor, mode: Mode, scratch: &mut Scratch) -> Tensor;

    /// Back-propagates `grad_output` (`∂L/∂output`), accumulating parameter
    /// gradients and returning `∂L/∂input`.
    ///
    /// Equivalent to [`Layer::backward_scratch`] with the per-thread arena.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        crate::scratch::with(|scratch| self.backward_scratch(grad_output, scratch))
    }

    /// [`Layer::backward`] with an explicit scratch arena; same contract as
    /// [`Layer::forward_scratch`].
    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor;

    /// Forward pass for the fused batched MC-dropout path: `input` holds
    /// `ctx.samples` stacked copies of the batch and every dropout layer
    /// draws per-pass masks from `ctx.streams`. The default is correct for
    /// any layer without dropout state (all `StochasticEval` ops are
    /// row-independent); layers owning dropout RNGs must override.
    fn forward_mc(&mut self, input: &Tensor, ctx: &mut McContext, scratch: &mut Scratch) -> Tensor {
        debug_assert!(
            {
                let mut rngs = 0usize;
                self.visit_dropout_rngs(&mut |_| rngs += 1);
                rngs == 0
            },
            "{}: layers with dropout state must override forward_mc",
            self.name()
        );
        let _ = &ctx;
        self.forward_scratch(input, Mode::StochasticEval, scratch)
    }

    /// `Eval` forward for the segmented multi-tenant serving path: the
    /// input stacks row segments belonging to different tenants over one
    /// shared frozen model, and each segment's output rows must be
    /// bit-identical to applying its delta and running those rows solo.
    /// `Eval` forwards are row-independent, so a layer meets that by
    /// reading each segment's trainable values from its artifact at
    /// `ctx.param_cursor` (advancing the cursor past every trainable tensor
    /// it exposes) and running the solo kernels in the solo order over that
    /// segment's rows. The adapter carriers `Dense` and `Conv1d`, affine
    /// `BatchNorm1d` and the containers override it.
    ///
    /// The default serves layers without tenant-specific trainable state
    /// (activations, dropout, pooling): it advances the cursor and runs a
    /// plain `Eval` forward. It panics rather than silently serving base
    /// values when the layer carries adapters, or when it exposes trainable
    /// tensors and any segment carries an artifact (artifacts store *all*
    /// trainable tensors, not just adapter factors — batch-norm γ/β
    /// included).
    fn forward_segmented(
        &mut self,
        input: &Tensor,
        ctx: &mut SegmentedContext<'_>,
        scratch: &mut Scratch,
    ) -> Tensor {
        frozen_segmented_forward(self, input, ctx, scratch)
    }

    /// A short human-readable layer name for debug output.
    fn name(&self) -> &'static str;

    /// The feature width this layer produces for a given input width.
    ///
    /// Used by [`Sequential::output_dim`] to validate model wiring without a
    /// forward pass.
    fn output_dim(&self, input_dim: usize) -> usize;

    /// The input feature width this layer requires, when it constrains one.
    ///
    /// Width-agnostic layers — which must also be width-*preserving*
    /// (activations, dropout) — return the default `None`; containers
    /// return their first constrained layer's width. Serving layers use
    /// this to validate request shapes at admission instead of panicking
    /// inside a fused forward.
    fn input_dim(&self) -> Option<usize> {
        None
    }

    /// Visits every trainable parameter in a stable order (the optimizer
    /// keys its per-parameter state by position). Parameter-free layers use
    /// the default no-op; containers override to recurse.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let _ = f;
    }

    /// Visits every dropout PRNG reachable from this layer, in a stable
    /// (definition) order. Layers without dropout state use the default
    /// no-op; containers override to recurse.
    ///
    /// This is what lets MC-dropout pre-split one independent stream per
    /// stochastic pass and run the passes in parallel with bit-identical
    /// results (see `tasfar-core`'s `McDropout`).
    fn visit_dropout_rngs(&mut self, f: &mut dyn FnMut(&mut Rng)) {
        let _ = f;
    }

    /// Visits every *base* parameter — the layer's full weight set,
    /// independent of any attached low-rank adapter ([`crate::adapter`]).
    ///
    /// When no adapters are attached this is identical to
    /// [`Layer::visit_params`] (the default). Layers that can carry a
    /// [`crate::adapter::DeltaParams`] override it so serialization
    /// ([`crate::spec::SavedModel`]) always captures the frozen source
    /// weights, never the delta factors.
    fn visit_base_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.visit_params(f);
    }

    /// Visits every piece of non-parameter learnable state (currently the
    /// batch-norm running moments) as mutable slices, in a stable
    /// (definition) order. Containers recurse; stateless layers use the
    /// default no-op.
    ///
    /// This is what lets snapshots ([`crate::model::CheckpointRegressor`],
    /// [`crate::spec::SavedModel`]) round-trip state that affects `Eval`
    /// predictions but is not a gradient-carrying [`Param`].
    fn visit_state(&mut self, f: &mut dyn FnMut(&mut [f64])) {
        let _ = f;
    }

    /// Attaches a low-rank delta adapter ([`crate::adapter::DeltaParams`])
    /// to every adapter-capable layer beneath (and including) this one,
    /// freezing the base weights, and returns how many layers were adapted.
    /// Re-attaching replaces any existing delta. The default (adapter-free
    /// layers) attaches nothing.
    fn attach_adapters(&mut self, cfg: &crate::adapter::AdapterConfig, rng: &mut Rng) -> usize {
        let _ = (cfg, rng);
        0
    }

    /// Detaches any attached adapters, unfreezing the base weights, and
    /// returns how many layers had one. The learned delta is discarded, not
    /// merged: base weights are bit-identical to before the attach.
    fn detach_adapters(&mut self) -> usize {
        0
    }

    /// Number of layers beneath (and including) this one currently carrying
    /// a delta adapter.
    fn adapted_layers(&self) -> usize {
        0
    }

    /// Clones the layer behind the trait object (state included).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The default [`Layer::forward_segmented`], also taken by adapter-capable
/// layers that have no adapter attached: with no delta to read, the
/// layer's artifact slots would hold its full base tensors, which only
/// [`crate::spec::DeltaArtifact::apply`] serves.
fn frozen_segmented_forward<L: Layer + ?Sized>(
    layer: &mut L,
    input: &Tensor,
    ctx: &mut SegmentedContext<'_>,
    scratch: &mut Scratch,
) -> Tensor {
    assert_eq!(
        layer.adapted_layers(),
        0,
        "{}: carries adapters but does not implement forward_segmented",
        layer.name()
    );
    let mut n = 0usize;
    layer.visit_params(&mut |_| n += 1);
    assert!(
        n == 0 || ctx.segments.iter().all(|s| s.delta.is_none()),
        "{}: segments carry artifact values for its trainable tensors, \
         which its segmented forward does not serve",
        layer.name()
    );
    ctx.param_cursor += n;
    layer.forward_scratch(input, Mode::Eval, scratch)
}

/// Loads the `(down, up)` factors a segment's artifact stores for an
/// adapted layer at tensor indices `idx` / `idx + 1` into scratch tensors.
///
/// # Panics
/// Panics if the stored shapes differ from `delta`'s. The engine validates
/// artifacts with `DeltaArtifact::check` before batching; these asserts
/// guard against cursor drift.
fn load_factor_pair(
    art: &crate::spec::DeltaArtifact,
    idx: usize,
    delta: &crate::adapter::DeltaParams,
    scratch: &mut Scratch,
) -> (Tensor, Tensor) {
    let down_shape = delta.down.value.shape();
    let up_shape = delta.up.value.shape();
    assert_eq!(
        art.shapes[idx], down_shape,
        "forward_segmented: down factor shape mismatch at tensor {idx}"
    );
    assert_eq!(
        art.shapes[idx + 1],
        up_shape,
        "forward_segmented: up factor shape mismatch at tensor {}",
        idx + 1
    );
    let mut down = scratch.take(down_shape.0, down_shape.1);
    down.as_mut_slice().copy_from_slice(&art.values[idx]);
    let mut up = scratch.take(up_shape.0, up_shape.1);
    up.as_mut_slice().copy_from_slice(&art.values[idx + 1]);
    (down, up)
}

/// Copies rows `row0..row0 + rows` of `src` into a scratch tensor.
fn copy_rows_in(src: &Tensor, row0: usize, rows: usize, scratch: &mut Scratch) -> Tensor {
    let cols = src.cols();
    let mut seg = scratch.take(rows, cols);
    seg.as_mut_slice()
        .copy_from_slice(&src.as_slice()[row0 * cols..(row0 + rows) * cols]);
    seg
}

/// Writes `seg` over the rows of `dst` starting at `row0`.
fn copy_rows_out(seg: &Tensor, dst: &mut Tensor, row0: usize) {
    let cols = dst.cols();
    dst.as_mut_slice()[row0 * cols..(row0 + seg.rows()) * cols].copy_from_slice(seg.as_slice());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_flags() {
        assert!(Mode::Train.dropout_active());
        assert!(Mode::StochasticEval.dropout_active());
        assert!(!Mode::Eval.dropout_active());
        assert!(Mode::Train.batch_stats());
        assert!(!Mode::StochasticEval.batch_stats());
        assert!(!Mode::Eval.batch_stats());
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::full(2, 2, 1.0));
        p.grad = Tensor::full(2, 2, 3.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.value.sum(), 4.0, "zero_grad must not touch the value");
    }
}
