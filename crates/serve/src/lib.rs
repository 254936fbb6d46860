//! # tasfar-serve — sharded multi-tenant serving over one frozen source model
//!
//! The paper's PDR task is one adapted model per walker; this crate is the
//! runtime that scales that shape: **one shared frozen source model per
//! worker, a few-KB [`DeltaArtifact`] per tenant**, and a batching layer
//! that fuses many tenants' predict calls into single stacked forwards.
//!
//! The pieces, bottom to top:
//!
//! - [`registry`] — FNV-keyed sharded tenant registry (fixed shard count,
//!   one lock per shard) holding each tenant's delta either *resident*
//!   (deserialized, byte-budgeted LRU) or *cold* (serialized artifact,
//!   rehydrated on demand).
//! - [`queue`] — bounded two-priority admission queue: predicts drain ahead
//!   of adapt/evict ops, and a full class rejects with a typed
//!   [`ServeError::Overloaded`] instead of panicking or blocking.
//! - [`engine`] — the serving loop: a [`engine::ServeWorker`] takes a
//!   window of predict requests, groups them by tenant, and runs **one
//!   segmented whole-batch forward** over every request at once, for every
//!   model it serves (the paper's PDR TCN included): dense base GEMMs are
//!   paid once per batch while each tenant's delta is applied to its own
//!   row segment, read in place from the registry's shared artifact
//!   handles — the model is never mutated on the predict path. Adapt ops
//!   route through
//!   [`tasfar_core::session::TenantSession`] (and therefore
//!   `adapt_guarded`), so one tenant's divergence cannot poison the shard.
//! - [`traffic`] — deterministic synthetic traffic (seeded Pareto
//!   inter-arrival, Zipf tenant popularity, mixed predict/adapt/evict) for
//!   the `bench/serve` harness and the chaos gauntlet.
//!
//! Fused batches are **bit-identical** to solo serving: an `Eval` forward
//! is row-independent (matmuls accumulate per output element, batch norm is
//! frozen to running moments, activations are pointwise), so stacking one
//! tenant's requests next to another's changes which rows exist, never
//! their values. The suite pins this with FNV-1a hashes over the output
//! bits ([`hash_tensor_bits`]).
//!
//! Every queue, batch, and evict decision lands in `tasfar-obs`:
//! `serve.batch` / `serve.evict` / `serve.adapt` spans and the `serve.*`
//! counter family.
//!
//! [`DeltaArtifact`]: tasfar_nn::spec::DeltaArtifact

pub mod engine;
pub mod queue;
pub mod registry;
pub mod traffic;

pub use engine::{Completion, CompletionKind, ServeConfig, ServeRuntime, ServeWorker, ServedVia};
pub use queue::{AdmissionQueue, OpClass, PredictRequest, Request, Work};
pub use registry::{fnv1a, RegistryStats, Residency, TenantRegistry};
pub use traffic::{generate, OpSpec, TrafficConfig, TrafficEvent};

use tasfar_nn::tensor::Tensor;

/// Typed serving-layer failures. The admission queue rejects with
/// [`ServeError::Overloaded`] under backpressure — callers retry, shed, or
/// drain; nothing in the serving path panics on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The request's priority class is at its bounded depth; the request
    /// was **not** enqueued.
    Overloaded {
        /// Which class was full.
        class: OpClass,
        /// The configured bound it hit.
        depth: usize,
    },
    /// The request's input feature width does not match the model's — a
    /// fused forward would panic mid-batch, taking every other tenant's
    /// requests down with it, so the mismatch is rejected at admission. The
    /// request was **not** enqueued.
    InputWidth {
        /// The model's input feature width.
        expected: usize,
        /// The request's `x.cols()`.
        got: usize,
    },
    /// The queue was closed for shutdown; no further requests are admitted.
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ServeError::Overloaded { class, depth } => {
                write!(
                    f,
                    "serve: {} queue overloaded (depth {depth})",
                    class.label()
                )
            }
            ServeError::InputWidth { expected, got } => write!(
                f,
                "serve: request input width {got} does not match the model's {expected}"
            ),
            ServeError::Closed => write!(f, "serve: queue closed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// FNV-1a over the raw IEEE-754 bits of a tensor's values, row-major — the
/// hash the bit-identity pins compare. Two tensors hash equal iff they are
/// bit-identical (same values, same NaN payloads, same `-0.0`s).
pub fn hash_tensor_bits(t: &Tensor) -> u64 {
    let mut h = registry::FNV_OFFSET;
    for v in t.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(registry::FNV_PRIME);
        }
    }
    h
}
