//! Low-rank delta adapters: parameter-efficient per-user adaptation state.
//!
//! TASFAR adapts one model per target user (one per walker in the PDR task).
//! Cloning the full weight set per user caps how many users a server can
//! hold resident; the source-free time-series adaptation literature (e.g.
//! parameter subspace disentanglement, arXiv 2410.02147) shows the target
//! update can be factored into a low-rank subspace over *frozen* source
//! weights with little accuracy loss. This module is that factorisation:
//!
//! * [`DeltaParams`] — a LoRA-style pair of factors `(down, up)` attached to
//!   a [`crate::layers::Dense`] or [`crate::layers::Conv1d`], realising
//!   `W_eff = W_frozen + (α/r) · down · up`. `up` is zero-initialised, so
//!   the instant an adapter is attached the model's predictions are
//!   unchanged; all adaptation then lives in the `O(r·(rows+cols))` factors.
//! * [`AdapterConfig`] — rank `r` and scaling `α` (scale = `α/r`).
//! * [`enable_adapters`] — attaches adapters to a model. Nothing attaches
//!   them implicitly: a binary that offers an adapter switch parses it
//!   itself and calls this.
//!
//! Once attached, the adapted layers *freeze their base weights*: they
//! expose only the delta factors through
//! [`crate::layers::Layer::visit_params`], so the optimizer, `zero_grad`,
//! checkpointing, and the per-tenant (or per-group)
//! [`crate::spec::DeltaArtifact`] all shrink to the delta footprint without
//! any trainer changes. The base weights stay reachable through
//! [`crate::layers::Layer::visit_base_params`] for serialization.
//!
//! All adapter arithmetic routes through the process-wide compute backend
//! ([`crate::backend`]) — the factor products are plain GEMMs — so both
//! `CpuNaive` and `CpuBlocked` accelerate it, bit-identically.

use crate::layers::{Layer, Param};
use crate::rng::Rng;
use crate::tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration for attaching low-rank adapters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdapterConfig {
    /// Requested rank `r` of the delta factors. Each layer clamps it to
    /// `min(rows, cols)` of its weight so tiny layers stay well-formed.
    pub rank: usize,
    /// LoRA scaling numerator `α`: the delta enters as `(α/r) · down · up`.
    pub alpha: f64,
}

impl AdapterConfig {
    /// Rank-`r` config with the conventional `α = r` (scale = 1).
    pub fn rank(rank: usize) -> Self {
        assert!(rank > 0, "adapter rank must be positive");
        AdapterConfig {
            rank,
            alpha: rank as f64,
        }
    }

    /// The effective multiplier `α/r` applied to the factor product.
    pub fn scale(&self) -> f64 {
        self.alpha / self.rank as f64
    }
}

impl Default for AdapterConfig {
    fn default() -> Self {
        AdapterConfig::rank(8)
    }
}

/// The low-rank delta carried by an adapted layer:
/// `W_eff = W_frozen + scale · down · up`.
///
/// For a base weight of shape `(rows, cols)`, `down` is `(rows, r)`
/// (Gaussian-initialised, std `1/√rows`) and `up` is `(r, cols)`
/// (zero-initialised) — so the delta is exactly zero at attach time and the
/// adapted model's predictions start bit-identical to the source model's.
#[derive(Debug, Clone)]
pub struct DeltaParams {
    /// Left factor, `(rows, r)`.
    pub down: Param,
    /// Right factor, `(r, cols)`; zero-initialised.
    pub up: Param,
    /// Multiplier `α/r` applied to `down · up`.
    pub scale: f64,
    /// Cached `x · down` hidden activations from the last training forward
    /// (the Dense adapter path reuses them in backward).
    pub(crate) cached_hidden: Option<Tensor>,
}

impl DeltaParams {
    /// Builds a zero delta for a `(rows, cols)` base weight: random `down`,
    /// zero `up`, rank clamped to `min(rows, cols)`.
    pub fn zero_init(rows: usize, cols: usize, cfg: &AdapterConfig, rng: &mut Rng) -> Self {
        let r = cfg.rank.min(rows).min(cols).max(1);
        let std = 1.0 / (rows as f64).sqrt();
        DeltaParams {
            down: Param::new(Tensor::rand_normal(rows, r, 0.0, std, rng)),
            up: Param::new(Tensor::zeros(r, cols)),
            scale: cfg.alpha / r as f64,
            cached_hidden: None,
        }
    }

    /// The (possibly clamped) rank of this delta.
    pub fn rank(&self) -> usize {
        self.down.value.cols()
    }

    /// Number of scalar parameters in both factors.
    pub fn num_params(&self) -> usize {
        self.down.value.len() + self.up.value.len()
    }
}

static GAUGE_RANK: AtomicU64 = AtomicU64::new(0);
static GAUGE_LAYERS: AtomicU64 = AtomicU64::new(0);
static GAUGE_PARAMS: AtomicU64 = AtomicU64::new(0);
static GAUGE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the adapter gauges: the footprint of the most recent
/// [`enable_adapters`] attach (all zeros before the first attach, or after
/// [`reset_stats`]). `tasfar-obs` mirrors these into the metrics registry as
/// `adapter.{rank,params,bytes}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdapterStats {
    /// Requested rank of the last attach.
    pub rank: u64,
    /// Number of layers that received a delta.
    pub layers: u64,
    /// Total trainable scalars after the attach (delta factors plus any
    /// still-trainable params such as batch-norm affine).
    pub params: u64,
    /// `params × 8` — the per-user resident bytes of one delta state.
    pub bytes: u64,
}

/// Reads the adapter gauges.
pub fn stats() -> AdapterStats {
    AdapterStats {
        rank: GAUGE_RANK.load(Ordering::Relaxed),
        layers: GAUGE_LAYERS.load(Ordering::Relaxed),
        params: GAUGE_PARAMS.load(Ordering::Relaxed),
        bytes: GAUGE_BYTES.load(Ordering::Relaxed),
    }
}

/// Zeroes the adapter gauges (for benchmarks measuring one phase).
pub fn reset_stats() {
    GAUGE_RANK.store(0, Ordering::Relaxed);
    GAUGE_LAYERS.store(0, Ordering::Relaxed);
    GAUGE_PARAMS.store(0, Ordering::Relaxed);
    GAUGE_BYTES.store(0, Ordering::Relaxed);
}

/// Attaches rank-`cfg.rank` adapters to every adapter-capable layer in
/// `model`, freezing the base weights, and updates the [`stats`] gauges.
/// Returns the number of layers adapted. Predictions are bit-preserved at
/// attach time (`up` is zero-initialised).
pub fn enable_adapters(model: &mut dyn Layer, cfg: &AdapterConfig, rng: &mut Rng) -> usize {
    let layers = model.attach_adapters(cfg, rng);
    let (params, bytes) = delta_footprint(model);
    GAUGE_RANK.store(cfg.rank as u64, Ordering::Relaxed);
    GAUGE_LAYERS.store(layers as u64, Ordering::Relaxed);
    GAUGE_PARAMS.store(params, Ordering::Relaxed);
    GAUGE_BYTES.store(bytes, Ordering::Relaxed);
    layers
}

/// The trainable-state footprint of `model` once adapters are attached:
/// `(scalar count, bytes)` over everything `visit_params` yields (delta
/// factors plus any still-trainable params). Returns `(0, 0)` when no
/// adapters are attached — the full weight set is not a "delta".
pub fn delta_footprint(model: &mut dyn Layer) -> (u64, u64) {
    if model.adapted_layers() == 0 {
        return (0, 0);
    }
    let mut params = 0u64;
    model.visit_params(&mut |p| params += p.value.len() as u64);
    (params, params * std::mem::size_of::<f64>() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Dense, Dropout, Mode, Relu, Sequential};

    fn toy_model(seed: u64) -> Sequential {
        let mut rng = Rng::new(seed);
        Sequential::new()
            .add(Dense::new(3, 16, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dropout::new(0.2, &mut rng))
            .add(Dense::new(16, 1, Init::XavierUniform, &mut rng))
    }

    #[test]
    fn attach_preserves_predictions_bit_identically() {
        let mut model = toy_model(11);
        let mut rng = Rng::new(99);
        let x = Tensor::rand_normal(9, 3, 0.0, 1.0, &mut rng);
        let before = model.forward(&x, Mode::Eval);
        let adapted = enable_adapters(&mut model, &AdapterConfig::rank(4), &mut rng);
        assert_eq!(adapted, 2, "both Dense layers take a delta");
        assert_eq!(model.adapted_layers(), 2);
        let after = model.forward(&x, Mode::Eval);
        assert_eq!(
            before.as_slice(),
            after.as_slice(),
            "zero-initialised delta must not change a single bit"
        );
    }

    #[test]
    fn attach_swaps_the_trainable_set_and_detach_restores_it() {
        let mut model = toy_model(5);
        let full = model.num_parameters();
        let mut rng = Rng::new(7);
        enable_adapters(&mut model, &AdapterConfig::rank(2), &mut rng);
        let trainable = model.num_parameters();
        // rank-2 on (3,16): 3·2 + 2·16 = 38; on (16,1): rank clamps to 1 →
        // 16·1 + 1·1 = 17.
        assert_eq!(trainable, 38 + 17);
        assert!(trainable < full);
        let (params, bytes) = delta_footprint(&mut model);
        assert_eq!(params, trainable as u64);
        assert_eq!(bytes, params * 8);
        assert_eq!(model.detach_adapters(), 2);
        assert_eq!(model.adapted_layers(), 0);
        assert_eq!(model.num_parameters(), full);
        assert_eq!(delta_footprint(&mut model), (0, 0));
    }

    #[test]
    fn rank_clamps_to_weight_dims() {
        let mut rng = Rng::new(3);
        let d = DeltaParams::zero_init(2, 5, &AdapterConfig::rank(64), &mut rng);
        assert_eq!(d.rank(), 2);
        assert_eq!(d.down.value.shape(), (2, 2));
        assert_eq!(d.up.value.shape(), (2, 5));
        // α stays, r is the clamped rank → scale = α/r_eff.
        assert_eq!(d.scale, 64.0 / 2.0);
    }
}
