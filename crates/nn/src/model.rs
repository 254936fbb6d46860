//! The black-box model abstraction TASFAR's claim rests on.
//!
//! The paper treats the regressor as a black box: adaptation needs nothing
//! but predictions, a stochastic-forward facility for MC-dropout
//! uncertainty, and a way to fine-tune with per-sample weights. This module
//! states that contract as four traits so `tasfar-core` and
//! `tasfar-baselines` never mention a concrete architecture:
//!
//! * [`Regressor`] — deterministic batch prediction.
//! * [`StochasticRegressor`] — seeded dropout-active forward passes, the
//!   uncertainty source of Algorithm 1.
//! * [`TrainableRegressor`] — weighted fine-tuning, the credibility-weighted
//!   objective of Eq. 22.
//! * [`SplitRegressor`] — a feature-extractor/head decomposition, required
//!   only by the comparison baselines (MMD, ADV, Datafree, AUGfree).
//!
//! [`Sequential`] implements all four. [`FnRegressor`] is a closure-backed
//! mock proving the adaptation pipeline runs on a non-`Sequential` model.

use crate::error::TrainError;
use crate::layers::{Layer, McContext, Mode, Param, Sequential};
use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::rng::Rng;
use crate::scratch::Scratch;
use crate::tensor::Tensor;
use crate::train::{try_fit, FitReport, TrainConfig};

/// Deterministic batch regression: the minimum surface every stage of the
/// pipeline can rely on.
pub trait Regressor {
    /// Predicts a `(n, d)` output batch for a `(n, k)` input batch, with all
    /// stochastic machinery (dropout, batch statistics) disabled.
    fn predict(&mut self, x: &Tensor) -> Tensor;

    /// [`Regressor::predict`] with an explicit scratch arena: the returned
    /// tensor's buffer is checked out of `scratch` (give it back when done)
    /// and steady-state calls allocate nothing. The default ignores the
    /// arena and delegates to `predict`, which is always correct.
    fn predict_scratch(&mut self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let _ = scratch;
        self.predict(x)
    }
}

/// A regressor that can run *stochastic* forward passes for sampling-based
/// uncertainty (MC dropout in Gal & Ghahramani's interpretation).
pub trait StochasticRegressor: Regressor {
    /// Runs `samples` independent stochastic forward passes on `x`.
    ///
    /// Implementations must be deterministic given their internal RNG state
    /// and must advance that state the same way regardless of execution
    /// order (see the [`Sequential`] implementation, which pre-splits one
    /// PRNG stream per pass so results are bit-identical for any thread
    /// count).
    fn stochastic_passes(&mut self, x: &Tensor, samples: usize) -> Vec<Tensor>;

    /// The fused form of [`stochastic_passes`]: the `samples` passes are
    /// returned stacked into one `(samples × n, d)` tensor (pass `t`
    /// occupies rows `[t·n, (t+1)·n)`), checked out of `scratch`.
    ///
    /// Implementations must produce exactly the values `stochastic_passes`
    /// would — same bits, same internal-RNG advancement — so callers may
    /// choose either path freely. The default stacks the per-pass results;
    /// [`Sequential`] overrides with a single batched forward.
    ///
    /// [`stochastic_passes`]: StochasticRegressor::stochastic_passes
    fn stochastic_passes_fused(
        &mut self,
        x: &Tensor,
        samples: usize,
        scratch: &mut Scratch,
    ) -> Tensor {
        let passes = self.stochastic_passes(x, samples);
        let cols = passes.first().map_or(0, Tensor::cols);
        let block = x.rows() * cols;
        let mut out = scratch.take(samples * x.rows(), cols);
        for (t, pass) in passes.iter().enumerate() {
            out.as_mut_slice()[t * block..(t + 1) * block].copy_from_slice(pass.as_slice());
        }
        out
    }
}

/// A regressor that can be fine-tuned with per-sample weights — the
/// credibility-weighted objective of Eq. 22.
pub trait TrainableRegressor: Regressor {
    /// Fine-tunes on `(x, y)` with optional per-sample weights.
    ///
    /// Weights follow the convention of [`crate::loss`]: the objective is
    /// the weight-normalised mean loss, so uniform weights match unweighted
    /// training.
    ///
    /// # Errors
    /// Returns a [`TrainError`] on shape mismatches, unusable configuration,
    /// or numeric failure mid-run (NaN/∞ loss, armed divergence guard). A
    /// numeric error leaves the model with the updates of the epochs that
    /// completed *before* the failure; callers needing rollback snapshot via
    /// [`CheckpointRegressor`] first.
    fn fit_weighted(
        &mut self,
        optimizer: &mut dyn Optimizer,
        loss: &dyn Loss,
        x: &Tensor,
        y: &Tensor,
        weights: Option<&[f64]>,
        cfg: &TrainConfig,
    ) -> Result<FitReport, TrainError>;
}

/// A regressor whose learnable state can be snapshotted and restored — the
/// substrate of the do-no-harm guarantee: guarded adaptation checkpoints the
/// source weights, fine-tunes, and rolls back bit-identically when the run
/// degenerates.
pub trait CheckpointRegressor: Regressor {
    /// The snapshot type. `Clone + Send` so guards can hold and ship it.
    type Checkpoint: Clone + Send + 'static;

    /// Captures the current learnable state (weights/biases). The snapshot
    /// covers everything [`CheckpointRegressor::restore`] writes back;
    /// transient state that does not affect `Mode::Eval` predictions (e.g.
    /// dropout RNG positions) may be excluded.
    fn checkpoint(&mut self) -> Self::Checkpoint;

    /// Restores a snapshot taken by [`CheckpointRegressor::checkpoint`],
    /// making subsequent deterministic predictions bit-identical to those at
    /// capture time.
    ///
    /// # Panics
    /// May panic if the snapshot comes from a structurally different model.
    fn restore(&mut self, snapshot: &Self::Checkpoint);
}

/// A regressor decomposable into a feature extractor and a head — the shape
/// the feature-alignment baselines require. Adaptation itself (TASFAR) never
/// needs this trait.
pub trait SplitRegressor: Regressor {
    /// The type of the two parts (and of the whole, via [`take_whole`]).
    /// Bounded by [`Layer`] so baselines can forward, backprop and step
    /// either part, and by [`Clone`] for teacher snapshots.
    ///
    /// [`take_whole`]: SplitRegressor::take_whole
    type Part: Layer + Clone;

    /// The number of split positions + 1 (for [`Sequential`]: the layer
    /// count).
    fn depth(&self) -> usize;

    /// Splits the model at `split_at` into `(features, head)`, leaving the
    /// model empty until [`rejoin`](SplitRegressor::rejoin).
    ///
    /// # Panics
    /// May panic if `split_at` is out of range; callers validate against
    /// [`depth`](SplitRegressor::depth) first.
    fn split(&mut self, split_at: usize) -> (Self::Part, Self::Part);

    /// Reassembles the model from parts previously returned by
    /// [`split`](SplitRegressor::split), preserving the original flat layer
    /// chain so a later `split` at the same index yields the same parts.
    fn rejoin(&mut self, features: Self::Part, head: Self::Part);

    /// Takes the whole model out as a single trainable [`Layer`] (used by
    /// baselines that train end-to-end, e.g. AUGfree's student), leaving
    /// the model empty until [`restore_whole`](SplitRegressor::restore_whole).
    fn take_whole(&mut self) -> Self::Part;

    /// Puts back the model taken by [`take_whole`](SplitRegressor::take_whole).
    fn restore_whole(&mut self, whole: Self::Part);
}

impl Regressor for Sequential {
    fn predict(&mut self, x: &Tensor) -> Tensor {
        self.forward(x, Mode::Eval)
    }

    fn predict_scratch(&mut self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.forward_scratch(x, Mode::Eval, scratch)
    }
}

impl StochasticRegressor for Sequential {
    /// The `samples` passes are independent, so they run in parallel on
    /// [`crate::parallel`]: each pass `t` receives its own dropout PRNG
    /// stream, pre-split *sequentially* from the model's dropout state (one
    /// `split` per dropout layer per pass), and executes on a clone of the
    /// model. Stream derivation fixes every mask before any pass runs, so
    /// the results are bit-identical for any thread count — and the model's
    /// own dropout RNGs advance deterministically (by `samples` splits)
    /// exactly as if the passes had run in order.
    fn stochastic_passes(&mut self, x: &Tensor, samples: usize) -> Vec<Tensor> {
        // One independent stream per (pass, dropout layer), derived in pass
        // order on this thread.
        let streams: Vec<Vec<Rng>> = (0..samples)
            .map(|_| {
                let mut pass = Vec::new();
                self.visit_dropout_rngs(&mut |rng| pass.push(rng.split()));
                pass
            })
            .collect();
        let proto = self.clone();
        crate::parallel::map_chunks(samples, |t| {
            let mut pass_model = proto.clone();
            let mut stream = streams[t].iter();
            pass_model.visit_dropout_rngs(&mut |rng| {
                *rng = stream.next().expect("one stream per dropout RNG").clone();
            });
            pass_model.forward(x, Mode::StochasticEval)
        })
    }

    /// One batched `StochasticEval` forward over `samples` stacked copies of
    /// `x`. Every op in that mode is row-independent (matmuls accumulate
    /// `p = 0..k` per output element regardless of row grouping; batch-norm
    /// is frozen to running moments; conv/pool/activations are per-row), so
    /// stacking the passes as extra rows cannot change any bit — and the
    /// dropout masks are drawn per pass block from the same pre-split
    /// streams, in the same order, as the per-pass path. The dropout-free
    /// prefix of the chain runs once on the plain batch (its rows would be
    /// identical in every stacked block) before stacking. Stream derivation
    /// is also identical (one `split` per dropout layer per pass, pass-
    /// major), so the model's own RNGs advance exactly as in
    /// [`StochasticRegressor::stochastic_passes`].
    fn stochastic_passes_fused(
        &mut self,
        x: &Tensor,
        samples: usize,
        scratch: &mut Scratch,
    ) -> Tensor {
        let mut streams = self.take_mc_streams();
        streams.clear();
        for _ in 0..samples {
            self.visit_dropout_rngs(&mut |rng| streams.push(rng.split()));
        }
        let n_dropout = streams.len().checked_div(samples).unwrap_or(0);
        // The leading dropout-free layers are deterministic and
        // row-independent in this mode, so every stacked copy of `x` would
        // produce the same rows through them. Run that prefix once on the
        // plain batch and replicate its output, instead of forwarding
        // `samples` identical copies through the widest tensors.
        let mut prefix_len = 0;
        for layer in self.layers_mut().iter_mut() {
            let mut has_dropout = false;
            layer.visit_dropout_rngs(&mut |_| has_dropout = true);
            if has_dropout {
                break;
            }
            prefix_len += 1;
        }
        let mut ctx = McContext {
            samples,
            batch: x.rows(),
            streams: &mut streams,
            n_dropout,
            next_dropout: 0,
        };
        let (prefix, rest) = self.layers_mut().split_at_mut(prefix_len);
        let mut cur: Option<Tensor> = None;
        for layer in prefix {
            let next = layer.forward_mc(cur.as_ref().unwrap_or(x), &mut ctx, scratch);
            if let Some(prev) = cur.take() {
                scratch.give(prev);
            }
            cur = Some(next);
        }
        let base = cur.as_ref().unwrap_or(x);
        let mut v = scratch.take_vec_spare(samples * base.len());
        for _ in 0..samples {
            v.extend_from_slice(base.as_slice());
        }
        let stacked = Tensor::from_vec(samples * base.rows(), base.cols(), v);
        if let Some(prev) = cur.take() {
            scratch.give(prev);
        }
        let mut out = stacked;
        for layer in rest {
            let next = layer.forward_mc(&out, &mut ctx, scratch);
            scratch.give(out);
            out = next;
        }
        self.put_mc_streams(streams);
        out
    }
}

impl TrainableRegressor for Sequential {
    fn fit_weighted(
        &mut self,
        optimizer: &mut dyn Optimizer,
        loss: &dyn Loss,
        x: &Tensor,
        y: &Tensor,
        weights: Option<&[f64]>,
        cfg: &TrainConfig,
    ) -> Result<FitReport, TrainError> {
        try_fit(self, optimizer, loss, x, y, weights, cfg)
    }
}

/// A [`Sequential`] snapshot, sized to what can actually change.
///
/// With low-rank adapters attached ([`crate::adapter`]) the base weights are
/// frozen, so rollback only needs the trainable values (delta factors plus
/// any still-trainable params such as batch-norm affine) and the
/// non-parameter state slices (batch-norm running moments) — an
/// `O(rank·dim)` snapshot instead of an `O(weights)` clone. Without
/// adapters, the snapshot stays the legacy full clone, which also preserves
/// dropout PRNG positions so a restore is bit-identical in *every* mode.
#[derive(Clone)]
pub enum SeqCheckpoint {
    /// Full clone of the chain (no adapters attached).
    Full(Sequential),
    /// Delta-only snapshot: trainable values in `visit_params` order plus
    /// state slices in `visit_state` order.
    Deltas {
        /// Cloned trainable parameter values.
        params: Vec<Tensor>,
        /// Cloned non-parameter state (batch-norm running moments).
        state: Vec<Vec<f64>>,
    },
}

impl SeqCheckpoint {
    /// True when this is the delta-only (adapter) snapshot.
    pub fn is_delta(&self) -> bool {
        matches!(self, SeqCheckpoint::Deltas { .. })
    }

    /// Resident bytes of the snapshot's `f64` payload.
    pub fn payload_bytes(&mut self) -> usize {
        match self {
            SeqCheckpoint::Full(model) => model.num_parameters() * std::mem::size_of::<f64>(),
            SeqCheckpoint::Deltas { params, state } => {
                let scalars: usize = params.iter().map(|t| t.len()).sum::<usize>()
                    + state.iter().map(|s| s.len()).sum::<usize>();
                scalars * std::mem::size_of::<f64>()
            }
        }
    }
}

impl CheckpointRegressor for Sequential {
    /// Delta-only when adapters are attached, full clone otherwise — see
    /// [`SeqCheckpoint`]. Either way a restore reproduces `Eval` (and, for
    /// full clones, every-mode) predictions bit-identically.
    type Checkpoint = SeqCheckpoint;

    fn checkpoint(&mut self) -> SeqCheckpoint {
        if !self.has_adapters() {
            return SeqCheckpoint::Full(self.clone());
        }
        // Adapters freeze the base weights; only the trainable set and the
        // running statistics can drift during adaptation.
        let mut params = Vec::new();
        self.visit_params(&mut |p| params.push(p.value.clone()));
        let mut state = Vec::new();
        self.visit_state(&mut |s| state.push(s.to_vec()));
        SeqCheckpoint::Deltas { params, state }
    }

    fn restore(&mut self, snapshot: &SeqCheckpoint) {
        match snapshot {
            SeqCheckpoint::Full(full) => *self = full.clone(),
            SeqCheckpoint::Deltas { params, state } => {
                assert!(
                    self.has_adapters(),
                    "SeqCheckpoint: delta snapshot restored onto an adapter-free model"
                );
                let mut i = 0usize;
                self.visit_params(&mut |p| {
                    assert!(i < params.len(), "SeqCheckpoint: trainable set grew");
                    p.value.copy_from(&params[i]);
                    i += 1;
                });
                assert_eq!(i, params.len(), "SeqCheckpoint: trainable set shrank");
                let mut j = 0usize;
                self.visit_state(&mut |s| {
                    assert!(j < state.len(), "SeqCheckpoint: state set grew");
                    s.copy_from_slice(&state[j]);
                    j += 1;
                });
                assert_eq!(j, state.len(), "SeqCheckpoint: state set shrank");
            }
        }
    }
}

impl SplitRegressor for Sequential {
    // The parts are plain `Sequential`s (not nested boxes) so `rejoin`
    // restores the original *flat* layer chain: baselines split the same
    // model repeatedly at the same index.
    type Part = Sequential;

    fn depth(&self) -> usize {
        self.len()
    }

    fn split(&mut self, split_at: usize) -> (Sequential, Sequential) {
        let mut features = std::mem::take(self);
        let head = features.split_off(split_at);
        (features, head)
    }

    fn rejoin(&mut self, features: Sequential, head: Sequential) {
        debug_assert!(self.is_empty(), "rejoin: model still holds layers");
        self.extend(features);
        self.extend(head);
    }

    fn take_whole(&mut self) -> Sequential {
        std::mem::take(self)
    }

    fn restore_whole(&mut self, whole: Sequential) {
        debug_assert!(self.is_empty(), "restore_whole: model still holds layers");
        *self = whole;
    }
}

/// The base-predictor closure of an [`FnRegressor`]: `(n, k)` batch in,
/// `(n, d)` predictions out.
pub type PredictFn = Box<dyn FnMut(&Tensor) -> Tensor + Send>;

/// The noise closure of an [`FnRegressor`]: one stochastic spread per
/// sample of the batch.
pub type NoiseFn = Box<dyn FnMut(&Tensor) -> Vec<f64> + Send>;

/// A closure-backed regressor: the black-box property made concrete.
///
/// `FnRegressor` shares *no* machinery with [`Sequential`] — prediction is
/// an arbitrary closure plus a learnable per-dimension bias, uncertainty is
/// a caller-supplied per-sample noise scale, and fine-tuning is plain
/// gradient descent on the bias through the loss gradient. It exists to
/// prove (and test) that the adaptation pipeline touches models only
/// through the traits above.
pub struct FnRegressor {
    f: PredictFn,
    noise: NoiseFn,
    bias: Param,
    rng: Rng,
}

impl FnRegressor {
    /// A mock regressor.
    ///
    /// * `f` — the base predictor, mapping a `(n, k)` batch to `(n, d)`.
    /// * `noise` — per-sample stochastic spread (the MC-dropout stand-in);
    ///   larger values make a sample look less certain.
    /// * `dims` — output dimension `d` (sizes the learnable bias).
    /// * `seed` — seed of the pass-noise PRNG.
    pub fn new(
        f: impl FnMut(&Tensor) -> Tensor + Send + 'static,
        noise: impl FnMut(&Tensor) -> Vec<f64> + Send + 'static,
        dims: usize,
        seed: u64,
    ) -> Self {
        FnRegressor {
            f: Box::new(f),
            noise: Box::new(noise),
            bias: Param::new(Tensor::zeros(1, dims)),
            rng: Rng::new(seed),
        }
    }

    /// The current learnable bias, one value per output dimension.
    pub fn bias(&self) -> &[f64] {
        self.bias.value.as_slice()
    }
}

impl Regressor for FnRegressor {
    fn predict(&mut self, x: &Tensor) -> Tensor {
        let mut out = (self.f)(x);
        let dims = out.cols();
        for r in 0..out.rows() {
            for d in 0..dims {
                let v = out.get(r, d) + self.bias.value.get(0, d);
                out.set(r, d, v);
            }
        }
        out
    }
}

impl StochasticRegressor for FnRegressor {
    fn stochastic_passes(&mut self, x: &Tensor, samples: usize) -> Vec<Tensor> {
        let base = self.predict(x);
        let scales = (self.noise)(x);
        assert_eq!(
            scales.len(),
            x.rows(),
            "FnRegressor: noise closure must return one scale per sample"
        );
        (0..samples)
            .map(|_| {
                Tensor::from_fn(base.rows(), base.cols(), |r, c| {
                    base.get(r, c) + self.rng.gaussian(0.0, scales[r])
                })
            })
            .collect()
    }
}

impl TrainableRegressor for FnRegressor {
    /// Full-batch gradient descent on the bias: the per-dimension bias
    /// gradient is the column sum of the loss gradient, stepped by the
    /// supplied optimizer. Early stopping is ignored (the mock trains the
    /// full epoch budget).
    fn fit_weighted(
        &mut self,
        optimizer: &mut dyn Optimizer,
        loss: &dyn Loss,
        x: &Tensor,
        y: &Tensor,
        weights: Option<&[f64]>,
        cfg: &TrainConfig,
    ) -> Result<FitReport, TrainError> {
        if x.rows() != y.rows() {
            return Err(TrainError::ShapeMismatch {
                context: format!(
                    "FnRegressor: x has {} rows but y has {}",
                    x.rows(),
                    y.rows()
                ),
            });
        }
        let mut report = FitReport {
            epoch_losses: Vec::with_capacity(cfg.epochs),
            stopped_early_at: None,
        };
        if weights.is_some_and(|w| w.iter().sum::<f64>() <= 0.0) {
            return Ok(report);
        }
        for epoch in 0..cfg.epochs {
            let pred = self.predict(x);
            report
                .epoch_losses
                .push(loss.checked_value(&pred, y, weights, epoch)?);
            let grad = loss.grad(&pred, y, weights);
            self.bias.zero_grad();
            for row in grad.iter_rows() {
                for (d, &g) in row.iter().enumerate() {
                    let acc = self.bias.grad.get(0, d) + g;
                    self.bias.grad.set(0, d, acc);
                }
            }
            optimizer.begin_step(1);
            optimizer.step_param(0, &mut self.bias);
        }
        Ok(report)
    }
}

impl CheckpointRegressor for FnRegressor {
    /// Only the learnable bias is snapshotted — the closures are opaque and
    /// stateless as far as `Mode::Eval`-equivalent prediction is concerned,
    /// and the noise PRNG is exactly the transient state the contract lets
    /// implementations exclude.
    type Checkpoint = Tensor;

    fn checkpoint(&mut self) -> Tensor {
        self.bias.value.clone()
    }

    fn restore(&mut self, snapshot: &Tensor) {
        assert_eq!(
            self.bias.value.shape(),
            snapshot.shape(),
            "FnRegressor::restore: snapshot shape mismatch"
        );
        self.bias.value = snapshot.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Dense, Dropout, Relu};
    use crate::loss::Mse;
    use crate::optim::Adam;

    fn mlp(rng: &mut Rng) -> Sequential {
        Sequential::new()
            .add(Dense::new(2, 8, Init::HeNormal, rng))
            .add(Relu::new())
            .add(Dropout::new(0.2, rng))
            .add(Dense::new(8, 1, Init::XavierUniform, rng))
    }

    #[test]
    fn sequential_predict_matches_eval_forward() {
        let mut rng = Rng::new(1);
        let mut m = mlp(&mut rng);
        let x = Tensor::rand_normal(5, 2, 0.0, 1.0, &mut rng);
        let via_trait = Regressor::predict(&mut m, &x);
        assert_eq!(via_trait, m.forward(&x, Mode::Eval));
    }

    #[test]
    fn sequential_stochastic_passes_vary_and_are_seed_deterministic() {
        let run = || {
            let mut rng = Rng::new(2);
            let mut m = mlp(&mut rng);
            let x = Tensor::rand_normal(4, 2, 0.0, 1.0, &mut rng);
            m.stochastic_passes(&x, 6)
                .iter()
                .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
                .collect::<Vec<u64>>()
        };
        let a = run();
        assert_eq!(a, run(), "passes must be deterministic given the seed");
        let first = &a[..a.len() / 6];
        assert!(
            a.chunks(a.len() / 6).any(|c| c != first),
            "dropout must make passes differ"
        );
    }

    #[test]
    fn sequential_split_rejoin_preserves_flat_chain() {
        let mut rng = Rng::new(3);
        let mut m = mlp(&mut rng);
        let names = m.layer_names();
        let before = Regressor::predict(&mut m, &Tensor::full(1, 2, 0.5));
        let (features, head) = SplitRegressor::split(&mut m, 2);
        assert_eq!(features.len() + head.len(), 4);
        SplitRegressor::rejoin(&mut m, features, head);
        assert_eq!(m.layer_names(), names, "rejoin must restore the flat chain");
        assert_eq!(Regressor::predict(&mut m, &Tensor::full(1, 2, 0.5)), before);

        let whole = m.take_whole();
        assert!(m.is_empty());
        m.restore_whole(whole);
        assert_eq!(m.layer_names(), names);
    }

    #[test]
    fn fn_regressor_predicts_learns_and_samples() {
        let mut reg = FnRegressor::new(
            |x| Tensor::from_fn(x.rows(), 1, |r, _| 2.0 * x.get(r, 0)),
            |x| {
                (0..x.rows())
                    .map(|r| 0.1 * (1.0 + x.get(r, 0).abs()))
                    .collect()
            },
            1,
            42,
        );
        let x = Tensor::from_fn(8, 1, |r, _| r as f64 * 0.1);
        let base = reg.predict(&x);
        assert_eq!(base.get(3, 0), 2.0 * x.get(3, 0));

        // Stochastic passes differ but stay centred on the prediction.
        let passes = reg.stochastic_passes(&x, 16);
        assert_eq!(passes.len(), 16);
        assert!(passes[0] != passes[1]);

        // Training against shifted targets moves the bias toward the shift.
        let y = base.map(|v| v + 1.0);
        let mut opt = Adam::new(0.2);
        let report = reg
            .fit_weighted(
                &mut opt,
                &Mse,
                &x,
                &y,
                None,
                &TrainConfig {
                    epochs: 200,
                    ..TrainConfig::default()
                },
            )
            .expect("mock fine-tune must succeed");
        assert!(report.final_loss() < report.epoch_losses[0]);
        assert!(
            (reg.bias()[0] - 1.0).abs() < 0.1,
            "bias {} should approach 1.0",
            reg.bias()[0]
        );
    }

    #[test]
    fn fn_regressor_zero_weights_are_a_noop() {
        let mut reg = FnRegressor::new(
            |x| Tensor::zeros(x.rows(), 1),
            |x| vec![0.1; x.rows()],
            1,
            7,
        );
        let x = Tensor::zeros(4, 1);
        let y = Tensor::full(4, 1, 3.0);
        let mut opt = Adam::new(0.5);
        let report = reg
            .fit_weighted(
                &mut opt,
                &Mse,
                &x,
                &y,
                Some(&[0.0; 4]),
                &TrainConfig::default(),
            )
            .expect("zero-weight fine-tune must succeed");
        assert!(report.epoch_losses.is_empty());
        assert_eq!(reg.bias()[0], 0.0);
    }

    #[test]
    fn sequential_checkpoint_restores_bit_identical_predictions() {
        let mut rng = Rng::new(11);
        let mut m = mlp(&mut rng);
        let x = Tensor::rand_normal(16, 2, 0.0, 1.0, &mut rng);
        let y = Tensor::rand_normal(16, 1, 0.0, 1.0, &mut rng);
        let before = Regressor::predict(&mut m, &x);
        let snap = m.checkpoint();

        let mut opt = Adam::new(0.1);
        let _ = m
            .fit_weighted(
                &mut opt,
                &Mse,
                &x,
                &y,
                None,
                &TrainConfig {
                    epochs: 10,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        assert_ne!(
            Regressor::predict(&mut m, &x),
            before,
            "training must move the weights"
        );

        m.restore(&snap);
        let after = Regressor::predict(&mut m, &x);
        let same_bits = before
            .as_slice()
            .iter()
            .zip(after.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same_bits, "restore must be bit-identical");
    }

    #[test]
    fn fn_regressor_checkpoint_restores_bias() {
        let mut reg = FnRegressor::new(
            |x| Tensor::zeros(x.rows(), 1),
            |x| vec![0.1; x.rows()],
            1,
            3,
        );
        let snap = reg.checkpoint();
        let x = Tensor::zeros(4, 1);
        let y = Tensor::full(4, 1, 3.0);
        let mut opt = Adam::new(0.5);
        let _ = reg
            .fit_weighted(&mut opt, &Mse, &x, &y, None, &TrainConfig::default())
            .unwrap();
        assert_ne!(reg.bias()[0], 0.0);
        reg.restore(&snap);
        assert_eq!(reg.bias()[0], 0.0);
    }

    #[test]
    fn fn_regressor_fit_reports_mismatched_rows() {
        let mut reg = FnRegressor::new(
            |x| Tensor::zeros(x.rows(), 1),
            |x| vec![0.1; x.rows()],
            1,
            3,
        );
        let mut opt = Adam::new(0.5);
        let err = reg
            .fit_weighted(
                &mut opt,
                &Mse,
                &Tensor::zeros(3, 1),
                &Tensor::zeros(4, 1),
                None,
                &TrainConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, TrainError::ShapeMismatch { .. }));
    }

    #[test]
    fn adapted_checkpoint_is_delta_only_and_restores_bit_identically() {
        let mut rng = Rng::new(31);
        let mut m = mlp(&mut rng);
        let full_bytes = m.num_parameters() * std::mem::size_of::<f64>();
        crate::adapter::enable_adapters(&mut m, &crate::adapter::AdapterConfig::rank(4), &mut rng);
        let x = Tensor::rand_normal(6, 2, 0.0, 1.0, &mut rng);
        let reference = Regressor::predict(&mut m, &x);

        let mut snap = m.checkpoint();
        assert!(snap.is_delta(), "adapters attached ⇒ delta snapshot");
        assert!(
            snap.payload_bytes() < full_bytes,
            "delta snapshot ({} B) must undercut a full clone ({} B)",
            snap.payload_bytes(),
            full_bytes
        );

        // Drift the trainable set, then roll back.
        m.visit_params(&mut |p| {
            for v in p.value.as_mut_slice() {
                *v += 0.37;
            }
        });
        assert_ne!(Regressor::predict(&mut m, &x), reference);
        m.restore(&snap);
        assert_eq!(
            Regressor::predict(&mut m, &x).as_slice(),
            reference.as_slice(),
            "delta restore must be bit-identical"
        );
    }

    #[test]
    fn adapter_free_checkpoint_stays_a_full_clone() {
        let mut rng = Rng::new(32);
        let mut m = mlp(&mut rng);
        let snap = m.checkpoint();
        assert!(!snap.is_delta());
        assert!(matches!(snap, SeqCheckpoint::Full(_)));
    }

    #[test]
    #[should_panic(expected = "delta snapshot restored onto an adapter-free model")]
    fn delta_snapshot_rejects_adapter_free_target() {
        let mut rng = Rng::new(33);
        let mut m = mlp(&mut rng);
        crate::adapter::enable_adapters(&mut m, &crate::adapter::AdapterConfig::rank(2), &mut rng);
        let snap = m.checkpoint();
        m.detach_adapters();
        m.restore(&snap);
    }
}
