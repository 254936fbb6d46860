//! Deterministic, seeded fault injection for the adaptation pipeline.
//!
//! Chaos-testing support: arm exactly one [`Fault`] with [`arm`] or
//! [`arm_seeded`], and the next run *on the same thread* that reaches the
//! fault's stage corrupts its own intermediate state in a reproducible way.
//! The armed slot is thread-local: every probe runs on the thread that
//! entered `adapt_guarded`, `StreamAdapter::push` or a serving worker's
//! batch, so a fault lands only on its own thread's work and concurrent
//! runs cannot take each other's faults. Faults are **one-shot**: the first
//! run that trips one consumes it, so a guarded retry observes the healthy
//! pipeline. Every injection increments the process-wide
//! `chaos.injected.<fault>` counter in the metrics registry, so traces and
//! snapshots show exactly which runs were sabotaged.
//!
//! The library reads no environment variable. Binaries that offer chaos
//! runs (the quickstart and streaming examples) parse `TASFAR_CHAOS` with
//! [`parse_spec`] and arm the result just before their guarded run.
//!
//! The injected corruption is indistinguishable from the real failure it
//! models — a NaN-poisoned batch, a split with nothing confident, a
//! massless density map, a mid-training loss explosion — which is the
//! point: the chaos suite proves the *validation and recovery* layers catch
//! the corruption, not that the injector can throw errors.

use std::cell::Cell;
use std::sync::atomic::{AtomicI32, Ordering};

use tasfar_nn::rng::Rng;
use tasfar_nn::tensor::Tensor;

/// The injectable fault classes, one per pipeline failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Poison a seeded selection of target-batch entries with NaN before
    /// the `Predict` stage's input validation.
    NanBatch,
    /// Reclassify every confident sample as uncertain after the `Split`
    /// stage, starving the density estimator.
    EmptyConfidentSplit,
    /// Zero the estimated density map's mass after `EstimateDensity`.
    ZeroDensityMass,
    /// Swap the fine-tune loss for one whose value grows ×10 per batch,
    /// tripping the divergence guard.
    LossExplosion,
    /// Poison a contiguous run of incoming stream rows with NaN before the
    /// streaming engine's ingest validation (a sensor dropout burst).
    StreamNanBurst,
    /// Flush the streaming engine's entire sliding window (an upstream
    /// outage draining the buffer), so windowed operations underflow until
    /// the stream refills it.
    WindowStarvation,
    /// Force the drift detector to report a spurious trip, exercising the
    /// guarded re-adaptation path on a healthy window.
    DriftFlap,
    /// Swap the loss for the whole guarded *re-adaptation* (every retry)
    /// for an exploding one, forcing the degrade-to-last-good path.
    ReadaptLossExplosion,
    /// Make one tenant's group in the next fused serving batch artificially
    /// slow (the serving engine burns extra forwards on it), exercising the
    /// batching layer's head-of-line behaviour: other tenants' requests and
    /// the admission queue must keep draining, never deadlock.
    ServeSlowTenant,
    /// Evict every resident tenant delta at the start of the next serving
    /// batch (a cold-cache storm), forcing the registry to rehydrate from
    /// serialized artifacts mid-batch.
    ServeEvictStorm,
}

impl Fault {
    /// Every injectable fault, in declaration order.
    pub const ALL: [Fault; 10] = [
        Fault::NanBatch,
        Fault::EmptyConfidentSplit,
        Fault::ZeroDensityMass,
        Fault::LossExplosion,
        Fault::StreamNanBurst,
        Fault::WindowStarvation,
        Fault::DriftFlap,
        Fault::ReadaptLossExplosion,
        Fault::ServeSlowTenant,
        Fault::ServeEvictStorm,
    ];

    /// Stable snake_case label (metrics and [`parse_spec`] syntax).
    pub fn label(self) -> &'static str {
        match self {
            Fault::NanBatch => "nan_batch",
            Fault::EmptyConfidentSplit => "empty_confident_split",
            Fault::ZeroDensityMass => "zero_density_mass",
            Fault::LossExplosion => "loss_explosion",
            Fault::StreamNanBurst => "stream_nan_burst",
            Fault::WindowStarvation => "window_starvation",
            Fault::DriftFlap => "drift_flap",
            Fault::ReadaptLossExplosion => "readapt_loss_explosion",
            Fault::ServeSlowTenant => "serve_slow_tenant",
            Fault::ServeEvictStorm => "serve_evict_storm",
        }
    }

    /// Parses a label back to a fault.
    pub fn parse(label: &str) -> Option<Fault> {
        Fault::ALL.into_iter().find(|f| f.label() == label)
    }

    fn counter_name(self) -> &'static str {
        match self {
            Fault::NanBatch => "chaos.injected.nan_batch",
            Fault::EmptyConfidentSplit => "chaos.injected.empty_confident_split",
            Fault::ZeroDensityMass => "chaos.injected.zero_density_mass",
            Fault::LossExplosion => "chaos.injected.loss_explosion",
            Fault::StreamNanBurst => "chaos.injected.stream_nan_burst",
            Fault::WindowStarvation => "chaos.injected.window_starvation",
            Fault::DriftFlap => "chaos.injected.drift_flap",
            Fault::ReadaptLossExplosion => "chaos.injected.readapt_loss_explosion",
            Fault::ServeSlowTenant => "chaos.injected.serve_slow_tenant",
            Fault::ServeEvictStorm => "chaos.injected.serve_evict_storm",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Armed {
    fault: Fault,
    seed: u64,
}

thread_local! {
    /// The fault armed on this thread, if any.
    static ARMED: Cell<Option<Armed>> = const { Cell::new(None) };
}

/// Arms `fault` with seed 0 on this thread. One-shot: consumed by the next
/// run on this thread that reaches the fault's stage.
pub fn arm(fault: Fault) {
    arm_seeded(fault, 0);
}

/// Arms `fault` with an explicit seed (the seed steers which entries a
/// [`Fault::NanBatch`] poisons; other faults ignore it but record it).
pub fn arm_seeded(fault: Fault, seed: u64) {
    ARMED.with(|a| a.set(Some(Armed { fault, seed })));
}

/// Disarms any fault pending on this thread.
pub fn disarm() {
    ARMED.with(|a| a.set(None));
}

/// The fault armed on this thread, if any (not consumed).
pub fn armed() -> Option<Fault> {
    ARMED.with(Cell::get).map(|a| a.fault)
}

/// Parses a chaos spec (`<fault>` or `<fault>:<seed>`, the `TASFAR_CHAOS`
/// syntax of the examples) into a fault + seed pair. A chaos run with a
/// misspelled fault name would otherwise silently test nothing, so unknown
/// labels — and malformed seeds — are hard errors listing the accepted
/// names.
pub fn parse_spec(value: &str) -> Result<(Fault, u64), String> {
    let (label, seed_str) = match value.split_once(':') {
        Some((l, s)) => (l, Some(s)),
        None => (value, None),
    };
    let Some(fault) = Fault::parse(label) else {
        let accepted: Vec<&str> = Fault::ALL.iter().map(|f| f.label()).collect();
        return Err(format!(
            "unknown fault `{label}` (accepted: {})",
            accepted.join(", ")
        ));
    };
    let seed = match seed_str {
        None => 0,
        Some(s) => s.parse().map_err(|_| format!("seed `{s}` is not a u64"))?,
    };
    Ok((fault, seed))
}

/// Consumes this thread's armed fault if it matches `fault`, returning its
/// seed, and counts the injection in `chaos.injected.<fault>`. This is the
/// probe injection sites call at their stage boundary; it is public so
/// downstream crates (the serving runtime's `serve_*` faults) can host
/// injection sites of their own.
pub fn consume(fault: Fault) -> Option<u64> {
    let armed = ARMED.with(Cell::get).filter(|a| a.fault == fault)?;
    disarm();
    tasfar_obs::metrics::counter(fault.counter_name()).incr();
    tasfar_obs::event(
        "chaos.injected",
        vec![
            ("fault", fault.label().into()),
            ("seed", (armed.seed as f64).into()),
        ],
    );
    Some(armed.seed)
}

/// A copy of `x` with a seeded selection of entries replaced by NaN —
/// the [`Fault::NanBatch`] payload. Deterministic in `(shape, seed)`.
pub(crate) fn nan_corrupted(x: &Tensor, seed: u64) -> Tensor {
    let mut out = x.clone();
    let n = out.as_slice().len();
    if n == 0 {
        return out;
    }
    let mut rng = Rng::new(seed.wrapping_add(0x0005_eedc_4a05));
    // Poison ~1% of the batch, at least one entry.
    let poisoned = (n / 100).max(1);
    let slice = out.as_mut_slice();
    for _ in 0..poisoned {
        slice[rng.below(n)] = f64::NAN;
    }
    out
}

/// A copy of `x` with a contiguous burst of whole rows replaced by NaN —
/// the [`Fault::StreamNanBurst`] payload, modelling a sensor dropout where
/// several consecutive readings arrive corrupted. At least one row and up to
/// a quarter of the chunk is poisoned; deterministic in `(shape, seed)`.
pub(crate) fn nan_burst(x: &Tensor, seed: u64) -> Tensor {
    let mut out = x.clone();
    let rows = out.rows();
    if rows == 0 {
        return out;
    }
    let mut rng = Rng::new(seed.wrapping_add(0x0005_eedb_0457));
    let burst = (rows / 4).max(1);
    let start = rng.below(rows - burst + 1);
    for r in start..start + burst {
        for v in out.row_mut(r) {
            *v = f64::NAN;
        }
    }
    out
}

/// A loss whose value grows ×10 on every evaluation — the
/// [`Fault::LossExplosion`] payload. The gradient is zero, so the weights
/// stay untouched while the divergence guard watches the value blow past
/// its epoch-0 baseline.
pub(crate) struct ExplodingLoss {
    calls: AtomicI32,
}

impl ExplodingLoss {
    pub(crate) fn new() -> ExplodingLoss {
        ExplodingLoss {
            calls: AtomicI32::new(0),
        }
    }
}

impl tasfar_nn::loss::Loss for ExplodingLoss {
    fn name(&self) -> &'static str {
        "chaos_exploding"
    }

    fn per_sample(&self, pred: &Tensor, _target: &Tensor) -> Vec<f64> {
        let k = self.calls.fetch_add(1, Ordering::SeqCst);
        vec![10f64.powi(k.min(300)); pred.rows()]
    }

    fn grad(&self, pred: &Tensor, _target: &Tensor, _weights: Option<&[f64]>) -> Tensor {
        Tensor::zeros(pred.rows(), pred.cols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_is_one_shot() {
        arm_seeded(Fault::ZeroDensityMass, 7);
        assert_eq!(armed(), Some(Fault::ZeroDensityMass));
        // A different stage's probe leaves the fault armed.
        assert_eq!(consume(Fault::NanBatch), None);
        assert_eq!(consume(Fault::ZeroDensityMass), Some(7));
        // Consumed: the retry sees a healthy pipeline.
        assert_eq!(consume(Fault::ZeroDensityMass), None);
        assert_eq!(armed(), None);
    }

    #[test]
    fn an_armed_fault_stays_on_its_thread() {
        arm_seeded(Fault::EmptyConfidentSplit, 9);
        let elsewhere = std::thread::spawn(|| (armed(), consume(Fault::EmptyConfidentSplit)))
            .join()
            .unwrap();
        assert_eq!(elsewhere, (None, None), "another thread's probe misses it");
        assert_eq!(consume(Fault::EmptyConfidentSplit), Some(9));
    }

    #[test]
    fn labels_roundtrip() {
        for fault in Fault::ALL {
            assert_eq!(Fault::parse(fault.label()), Some(fault));
        }
        assert_eq!(Fault::parse("segfault"), None);
        // The mid-stream faults are in the accepted set under their
        // documented names.
        for label in [
            "stream_nan_burst",
            "window_starvation",
            "drift_flap",
            "readapt_loss_explosion",
        ] {
            assert!(Fault::parse(label).is_some(), "{label} must be accepted");
        }
    }

    #[test]
    fn chaos_spec_parses_strictly() {
        assert_eq!(parse_spec("nan_batch"), Ok((Fault::NanBatch, 0)));
        assert_eq!(
            parse_spec("drift_flap:42"),
            Ok((Fault::DriftFlap, 42)),
            "mid-stream faults parse with seeds"
        );
        let err = parse_spec("nan_btach").unwrap_err();
        assert!(err.contains("unknown fault `nan_btach`"), "{err}");
        assert!(
            err.contains("stream_nan_burst") && err.contains("loss_explosion"),
            "the error lists the accepted names: {err}"
        );
        let err = parse_spec("nan_batch:not_a_seed").unwrap_err();
        assert!(err.contains("not_a_seed"), "{err}");
        // Round-trip: every label parses back through the spec grammar.
        for fault in Fault::ALL {
            assert_eq!(parse_spec(fault.label()), Ok((fault, 0)));
            assert_eq!(parse_spec(&format!("{}:7", fault.label())), Ok((fault, 7)));
        }
    }

    #[test]
    fn nan_burst_poisons_contiguous_rows_deterministically() {
        let x = Tensor::zeros(16, 3);
        let a = nan_burst(&x, 9);
        let b = nan_burst(&x, 9);
        let bad_rows = |t: &Tensor| {
            (0..t.rows())
                .filter(|&r| t.row(r).iter().all(|v| v.is_nan()))
                .collect::<Vec<_>>()
        };
        let rows = bad_rows(&a);
        assert!(!rows.is_empty() && rows.len() <= 4);
        assert!(
            rows.windows(2).all(|w| w[1] == w[0] + 1),
            "the burst is contiguous: {rows:?}"
        );
        assert_eq!(rows, bad_rows(&b), "same seed, same burst");
    }

    #[test]
    fn nan_corruption_is_deterministic_and_nonempty() {
        let x = Tensor::zeros(40, 3);
        let a = nan_corrupted(&x, 11);
        let b = nan_corrupted(&x, 11);
        let bad = |t: &Tensor| {
            t.as_slice()
                .iter()
                .enumerate()
                .filter(|(_, v)| v.is_nan())
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        assert!(!bad(&a).is_empty());
        assert_eq!(bad(&a), bad(&b), "same seed, same poisoned entries");
        assert_ne!(bad(&a), bad(&nan_corrupted(&x, 12)));
    }
}
