//! Pluggable CPU compute backends for the GEMM-family and Conv1d kernels.
//!
//! Every adaptation stage in this workspace — MC-dropout uncertainty sweeps,
//! pseudo-label fine-tuning, the baseline adapters — bottoms out in the same
//! handful of kernels: the three matmul variants behind [`crate::tensor::Tensor`]
//! and the causal-convolution loops behind [`crate::layers::Conv1d`]. This
//! module puts those entry points behind a [`Backend`] trait (the kubecl-style
//! runtime abstraction named in the roadmap) so competing implementations can
//! land side by side and be benchmarked apples-to-apples:
//!
//! * [`CpuNaive`] — the original scalar + threads kernels, ported verbatim.
//!   This is the reference implementation the golden-hash suite was pinned
//!   against.
//! * [`CpuBlocked`] — cache-blocked loop nests driven by an explicit
//!   [`TilingScheme`], with A/B panel packing into persistent thread-local
//!   buffers, a register-tiled `mr×nr` microkernel, and a register-tiled
//!   conv1d kernel for every kernel size and dilation.
//!
//! ## Bit-identity contract
//!
//! Both backends accumulate every output element's `k` products in ascending
//! index order from the same starting value, and Rust never contracts
//! `a*b + c` into a fused multiply-add or re-associates float reductions
//! without explicit fast-math. Blocking over `k` round-trips the accumulator
//! through memory between panels — an exact operation for `f64` — so
//! [`CpuBlocked`] is **bit-identical** to [`CpuNaive`] on every input, not
//! merely close. The cross-backend property suite
//! (`crates/nn/tests/backend_equiv.rs`) pins this exactly (`to_bits`
//! equality) by running both through the trait on the same inputs.
//!
//! ## Dispatch
//!
//! Every kernel call in [`crate::tensor`] and [`crate::layers::Conv1d`] runs
//! on [`CpuBlocked`]; there is no runtime switch. [`CpuNaive`] stays as the
//! bit-exact reference that the equivalence tests and the `kernels` bench
//! call directly through the [`Backend`] trait. Every dispatch increments a
//! counter ([`stats`]) that `tasfar-obs` mirrors into the metrics registry
//! as `backend.{naive,blocked}.calls`.

mod blocked;
mod naive;

pub use blocked::{CpuBlocked, TilingScheme};
pub use naive::CpuNaive;

use crate::scratch::Scratch;
use crate::tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Geometry of a causal dilated 1-D convolution (see
/// [`crate::layers::Conv1d`] for the packing convention: a `(channels,
/// time)` window occupies one tensor row, channels-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv1dGeometry {
    /// Input channel count.
    pub in_ch: usize,
    /// Output channel count.
    pub out_ch: usize,
    /// Kernel taps per channel pair.
    pub kernel: usize,
    /// Dilation between taps.
    pub dilation: usize,
    /// Window length in time steps.
    pub time_len: usize,
}

impl Conv1dGeometry {
    /// Input row width (`in_ch * time_len`).
    pub fn input_width(&self) -> usize {
        self.in_ch * self.time_len
    }

    /// Output row width (`out_ch * time_len`).
    pub fn output_width(&self) -> usize {
        self.out_ch * self.time_len
    }

    /// Flat weight length (`out_ch * in_ch * kernel`).
    pub fn weight_len(&self) -> usize {
        self.out_ch * self.in_ch * self.kernel
    }
}

/// A CPU compute backend owning the GEMM-family and Conv1d inner loops.
///
/// ## Contract
///
/// * All GEMM entry points receive `out` with `out.len() == m * n` and
///   **arbitrary contents**; the kernel must define every cell.
/// * Per output element, the `k` products are accumulated in ascending
///   index order starting from `0.0` — the bit-identity contract shared by
///   every implementation and pinned by the golden-hash suite.
/// * Implementations are free to parallelise through [`crate::parallel`];
///   results must be bit-identical for any thread count.
pub trait Backend: Sync {
    /// Short backend name (`naive` or `blocked`), the label of the
    /// `kernels` bench rows.
    fn name(&self) -> &'static str;

    /// `C (m×n) = A (m×k) · B (k×n)`, all row-major.
    fn matmul_into(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]);

    /// `C (m×n) = Aᵀ · B` where `A` is stored `k×m` row-major (the transpose
    /// is never materialised).
    fn t_matmul_into(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]);

    /// `C (m×n) = A · Bᵀ` where `B` is stored `n×k` row-major.
    fn matmul_t_into(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]);

    /// Causal dilated conv forward: writes `(batch, out_ch·time)` into `out`
    /// (already shaped by the caller, with arbitrary contents; the kernel
    /// assigns every cell). `w` is the flat `(out_ch, in_ch·kernel)` weight
    /// matrix, `bias` one value per output channel.
    fn conv1d_forward(
        &self,
        geo: &Conv1dGeometry,
        input: &Tensor,
        w: &[f64],
        bias: &[f64],
        out: &mut Tensor,
    );

    /// `C (m×n) += s · (A (m×k) · B (k×n))`: scaled-accumulate GEMM, the
    /// kernel behind the adapter merge path (`W_eff = W + (α/r)·down·up`)
    /// and [`crate::tensor::Tensor::addmm_scaled_into`].
    ///
    /// The product is computed exactly as [`Backend::matmul_into`] would —
    /// same kernels, same ascending-`p` accumulation — into a scratch
    /// temporary, then folded into `out` as `out[i] += s * tmp[i]` in index
    /// order. Both halves are bit-deterministic, so the result is
    /// bit-identical across backends and thread counts, and every backend
    /// accelerates the inner product with its own GEMM. `scratch` serves the
    /// temporary; steady-state calls are allocation-free.
    #[allow(clippy::too_many_arguments)]
    fn addmm_scaled_into(
        &self,
        m: usize,
        k: usize,
        n: usize,
        s: f64,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        scratch: &mut Scratch,
    ) {
        debug_assert_eq!(out.len(), m * n, "addmm_scaled_into: out must be m*n");
        let mut tmp = scratch.take_vec(m * n);
        self.matmul_into(m, k, n, a, b, &mut tmp);
        for (o, &t) in out.iter_mut().zip(tmp.iter()) {
            *o += s * t;
        }
        scratch.give_vec(tmp);
    }

    /// Causal dilated conv backward: accumulates the weight gradient into
    /// `dw` (flat, `weight_len`) and bias gradient into `db` (`out_ch`), and
    /// writes the input gradient into `grad_input` (already shaped and
    /// zeroed). `scratch` serves the per-chunk reduction buffers so the call
    /// is allocation-free at steady state.
    #[allow(clippy::too_many_arguments)]
    fn conv1d_backward(
        &self,
        geo: &Conv1dGeometry,
        input: &Tensor,
        grad_output: &Tensor,
        w: &[f64],
        dw: &mut [f64],
        db: &mut [f64],
        grad_input: &mut Tensor,
        scratch: &mut Scratch,
    );
}

/// The one dispatched backend instance.
static BLOCKED: CpuBlocked = CpuBlocked::with_tiling(TilingScheme::DEFAULT);

// ----- dispatch instrumentation ---------------------------------------------
//
// Mirrors the `parallel` pool-stats pattern: an always-on relaxed counter in
// the substrate, bridged into the obs metrics registry as
// `backend.{naive,blocked}.calls` by `tasfar-obs`. Purely observational.

/// Kernel dispatches served by [`CpuBlocked`] (including calls it chose to
/// route to the shared scalar path below its blocking cutoff — the policy is
/// the backend's, so the dispatch is attributed to it).
static BLOCKED_CALLS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the per-backend dispatch counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendStats {
    /// Kernel dispatches served by the naive backend: always 0, since
    /// dispatch never selects it. Kept so counter readers keep one schema.
    pub naive_calls: u64,
    /// Kernel dispatches served by the blocked backend.
    pub blocked_calls: u64,
}

/// Reads the dispatch counters.
pub fn stats() -> BackendStats {
    BackendStats {
        naive_calls: 0,
        blocked_calls: BLOCKED_CALLS.load(Ordering::Relaxed),
    }
}

/// Zeroes the dispatch counters (for benchmarks measuring one phase).
pub fn reset_stats() {
    BLOCKED_CALLS.store(0, Ordering::Relaxed);
}

/// The dispatched backend, with the call counted. Every kernel entry point
/// in [`crate::tensor`] and [`crate::layers::Conv1d`] routes through here —
/// there is no bypass path.
pub(crate) fn dispatch() -> &'static dyn Backend {
    BLOCKED_CALLS.fetch_add(1, Ordering::Relaxed);
    &BLOCKED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_counts_by_backend() {
        let before = stats();
        let _ = dispatch();
        let after = stats();
        assert!(after.blocked_calls > before.blocked_calls);
        assert_eq!(
            after.naive_calls, 0,
            "dispatch never serves the naive backend"
        );
    }

    #[test]
    fn geometry_widths() {
        let geo = Conv1dGeometry {
            in_ch: 3,
            out_ch: 5,
            kernel: 2,
            dilation: 1,
            time_len: 7,
        };
        assert_eq!(geo.input_width(), 21);
        assert_eq!(geo.output_width(), 35);
        assert_eq!(geo.weight_len(), 30);
    }
}
