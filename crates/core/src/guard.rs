//! Guarded adaptation: retries, graceful degradation, and the do-no-harm
//! guarantee.
//!
//! [`adapt_guarded`] wraps [`crate::adapt::adapt`] in a fault-tolerant
//! envelope. Before the first attempt it snapshots the model's learnable
//! state via [`CheckpointRegressor`]; every failed attempt rolls the model
//! back to that snapshot, so a deployment can never end up *worse* than the
//! source model it started from. Failures classified recoverable by
//! [`AdaptError::recoverable`] earn bounded retries with hyper-parameters
//! adjusted per the failure cause ([`RecoveryPolicy`]); unrecoverable
//! failures — and recoverable ones that exhaust the retry budget — degrade
//! gracefully to [`GuardedOutcome::FellBackToSource`] with the model
//! bit-identical to its pre-adaptation state.
//!
//! Every decision is observable: `guard.*` counters in the metrics registry
//! (`runs`, `adapted`, `recovered`, `retries`, `rollbacks`, `fallbacks`),
//! a `guard.rollback` trace event per failed attempt, and an
//! `adapt_guarded` span carrying the final outcome label and retry count.

use crate::adapt::{adapt, AdaptationOutcome, SourceCalibration, TasfarConfig};
use crate::error::{AdaptError, ErrorKind};
use tasfar_nn::loss::Loss;
use tasfar_nn::model::{CheckpointRegressor, StochasticRegressor, TrainableRegressor};
use tasfar_nn::tensor::Tensor;

/// How [`adapt_guarded`] reacts to recoverable failures.
///
/// Factors that are non-finite or non-positive are treated as 1.0 (no
/// adjustment) rather than panicking — the guarded path never panics on a
/// bad policy.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Retry budget after the first attempt (0 = fail fast).
    pub max_retries: usize,
    /// Learning-rate multiplier applied after a fine-tune failure
    /// ([`ErrorKind::Train`]), e.g. 0.1 for a 10× backoff.
    pub lr_backoff: f64,
    /// Density grid-cell multiplier applied after
    /// [`ErrorKind::ZeroDensityMass`], [`ErrorKind::DegenerateBandwidth`],
    /// or [`ErrorKind::ZeroCredibility`] — a wider cell spreads mass over
    /// fewer, fuller bins.
    pub bandwidth_widen: f64,
    /// τ multiplier applied after [`ErrorKind::NoConfidentSamples`] (and,
    /// inverted, after [`ErrorKind::NoUncertainSamples`]): widening τ admits
    /// more samples into the confident set.
    pub tau_widen: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            lr_backoff: 0.1,
            bandwidth_widen: 2.0,
            tau_widen: 2.0,
        }
    }
}

/// The result of a guarded adaptation run.
#[derive(Debug)]
pub enum GuardedOutcome {
    /// The first attempt succeeded — the common, healthy path.
    Adapted(AdaptationOutcome),
    /// One or more attempts failed, a retry with adjusted hyper-parameters
    /// succeeded.
    Recovered {
        /// The successful attempt's outcome.
        outcome: AdaptationOutcome,
        /// How many retries were spent (≥ 1).
        retries: usize,
        /// The classified error of every failed attempt, in order.
        errors: Vec<AdaptError>,
    },
    /// Adaptation could not complete; the model was rolled back to its
    /// pre-adaptation snapshot (do-no-harm).
    FellBackToSource {
        /// The error that ended the run (the first unrecoverable one, or
        /// the last recoverable one after the retry budget ran out).
        error: AdaptError,
        /// Retries spent before giving up.
        retries: usize,
    },
}

impl GuardedOutcome {
    /// The successful adaptation outcome, if any.
    pub fn adaptation(&self) -> Option<&AdaptationOutcome> {
        match self {
            GuardedOutcome::Adapted(o) => Some(o),
            GuardedOutcome::Recovered { outcome, .. } => Some(outcome),
            GuardedOutcome::FellBackToSource { .. } => None,
        }
    }

    /// Stable snake_case label for metrics, span fields, and reports.
    pub fn label(&self) -> &'static str {
        match self {
            GuardedOutcome::Adapted(_) => "adapted",
            GuardedOutcome::Recovered { .. } => "recovered",
            GuardedOutcome::FellBackToSource { .. } => "fell_back",
        }
    }

    /// Retries spent across the run (0 on the healthy path).
    pub fn retries(&self) -> usize {
        match self {
            GuardedOutcome::Adapted(_) => 0,
            GuardedOutcome::Recovered { retries, .. }
            | GuardedOutcome::FellBackToSource { retries, .. } => *retries,
        }
    }

    /// Whether the run degraded to the source model.
    pub fn fell_back(&self) -> bool {
        matches!(self, GuardedOutcome::FellBackToSource { .. })
    }
}

/// A multiplicative factor sanitized for [`ConfidenceClassifier::rescaled`]
/// and friends: non-finite or non-positive values become 1.0 (no-op).
///
/// [`ConfidenceClassifier::rescaled`]: crate::confidence::ConfidenceClassifier::rescaled
fn safe_factor(f: f64) -> f64 {
    if f.is_finite() && f > 0.0 {
        f
    } else {
        1.0
    }
}

/// Adjusts the calibration/config for a retry, keyed on the failure cause.
fn adjust_for_retry(
    calib: &mut SourceCalibration,
    cfg: &mut TasfarConfig,
    err: &AdaptError,
    policy: &RecoveryPolicy,
) {
    match &err.kind {
        // Too few confident samples: widen τ to admit more of the batch.
        ErrorKind::NoConfidentSamples { .. } => {
            calib.classifier = calib.classifier.rescaled(safe_factor(policy.tau_widen));
        }
        // Everything confident: tighten τ so some samples become uncertain.
        ErrorKind::NoUncertainSamples => {
            calib.classifier = calib
                .classifier
                .rescaled(1.0 / safe_factor(policy.tau_widen));
        }
        // Density degeneracies: widen the KDE grid cell so mass concentrates
        // in fewer, fuller bins. A degenerate cell is first reset to a sane
        // default, since multiplying garbage stays garbage.
        ErrorKind::ZeroDensityMass
        | ErrorKind::DegenerateBandwidth { .. }
        | ErrorKind::ZeroCredibility { .. } => {
            if !cfg.grid_cell.is_finite() || cfg.grid_cell <= 0.0 {
                cfg.grid_cell = 0.1;
            } else {
                cfg.grid_cell *= safe_factor(policy.bandwidth_widen);
            }
        }
        // Fine-tune divergence/explosion: back the learning rate off.
        ErrorKind::Train(_) => {
            let lr = cfg.learning_rate * safe_factor(policy.lr_backoff);
            if lr.is_finite() && lr > 0.0 {
                cfg.learning_rate = lr;
            }
        }
        // Unrecoverable kinds never reach here (the guard falls back first).
        _ => {}
    }
}

/// Runs [`adapt`] under the do-no-harm guard.
///
/// 1. Snapshots the model ([`CheckpointRegressor::checkpoint`]).
/// 2. Attempts the adaptation; on failure, restores the snapshot —
///    predictions are bit-identical to the pre-adaptation model.
/// 3. Recoverable failures spend the [`RecoveryPolicy`] retry budget, each
///    retry adjusting τ, the density grid cell, or the learning rate to
///    address the classified cause.
/// 4. Unrecoverable failures, or an exhausted budget, degrade to
///    [`GuardedOutcome::FellBackToSource`].
///
/// Also the entry point for chaos testing: a fault armed on the calling
/// thread ([`crate::faultinject`]) just before this call lands on the
/// guarded adaptation, never on source-side calibration, and never on a run
/// another thread makes.
pub fn adapt_guarded<M>(
    model: &mut M,
    calib: &SourceCalibration,
    target_x: &Tensor,
    loss: &dyn Loss,
    cfg: &TasfarConfig,
    policy: &RecoveryPolicy,
) -> GuardedOutcome
where
    M: StochasticRegressor + TrainableRegressor + CheckpointRegressor + ?Sized,
{
    tasfar_obs::metrics::counter("guard.runs").incr();
    let mut span = tasfar_obs::timed_span("adapt_guarded");
    span.field("target_rows", target_x.rows());
    span.field("max_retries", policy.max_retries);

    let snapshot = model.checkpoint();
    let mut calib = calib.clone();
    let mut cfg = cfg.clone();
    let mut errors: Vec<AdaptError> = Vec::new();
    let mut retries = 0usize;

    let outcome = loop {
        match adapt(model, &calib, target_x, loss, &cfg) {
            Ok(outcome) => {
                if retries == 0 {
                    tasfar_obs::metrics::counter("guard.adapted").incr();
                    break GuardedOutcome::Adapted(outcome);
                }
                tasfar_obs::metrics::counter("guard.recovered").incr();
                break GuardedOutcome::Recovered {
                    outcome,
                    retries,
                    errors,
                };
            }
            Err(err) => {
                // Do-no-harm: a failed attempt may have touched the weights
                // (mid-fine-tune failures); always restore the snapshot.
                model.restore(&snapshot);
                tasfar_obs::metrics::counter("guard.rollbacks").incr();
                tasfar_obs::event(
                    "guard.rollback",
                    vec![
                        ("error", err.label().into()),
                        ("recoverable", err.recoverable().into()),
                        ("attempt", retries.into()),
                    ],
                );
                if !err.recoverable() || retries >= policy.max_retries {
                    tasfar_obs::metrics::counter("guard.fallbacks").incr();
                    break GuardedOutcome::FellBackToSource {
                        error: err,
                        retries,
                    };
                }
                tasfar_obs::metrics::counter("guard.retries").incr();
                adjust_for_retry(&mut calib, &mut cfg, &err, policy);
                errors.push(err);
                retries += 1;
            }
        }
    };
    span.field("outcome", outcome.label());
    span.field("retries", outcome.retries());
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::calibrate_on_source;
    use crate::confidence::ConfidenceClassifier;
    use tasfar_data::Dataset;
    use tasfar_nn::init::Init;
    use tasfar_nn::layers::{Dense, Dropout, Relu, Sequential};
    use tasfar_nn::loss::Mse;
    use tasfar_nn::optim::Adam;
    use tasfar_nn::rng::Rng;
    use tasfar_nn::train::{fit, TrainConfig};

    struct Toy {
        model: Sequential,
        source: Dataset,
        target_x: Tensor,
    }

    /// Same synthetic task shape as `adapt::tests::build_toy`, smaller.
    fn build_toy(seed: u64) -> Toy {
        let mut rng = Rng::new(seed);
        let n_src = 400;
        let mut xs = Tensor::zeros(n_src, 2);
        let mut ys = Tensor::zeros(n_src, 1);
        for i in 0..n_src {
            let y = rng.uniform(-1.0, 1.0);
            let hard = rng.bernoulli(0.05);
            let noise = if hard {
                rng.gaussian(0.0, 0.8)
            } else {
                rng.gaussian(0.0, 0.03)
            };
            xs.set(i, 0, y + noise);
            xs.set(
                i,
                1,
                if hard {
                    rng.uniform(3.0, 5.0)
                } else {
                    rng.uniform(0.0, 0.5)
                },
            );
            ys.set(i, 0, y);
        }
        let source = Dataset::new(xs, ys);

        let mut model = Sequential::new()
            .add(Dense::new(2, 24, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dropout::new(0.2, &mut rng))
            .add(Dense::new(24, 1, Init::XavierUniform, &mut rng));
        let mut opt = Adam::new(5e-3);
        let _ = fit(
            &mut model,
            &mut opt,
            &Mse,
            &source.x,
            &source.y,
            None,
            &TrainConfig {
                epochs: 80,
                batch_size: 32,
                seed,
                ..TrainConfig::default()
            },
        );

        let n_tgt = 200;
        let mut xt = Tensor::zeros(n_tgt, 2);
        for i in 0..n_tgt {
            let y = rng.gaussian(0.6, 0.05);
            let hard = rng.bernoulli(0.4);
            let noise = if hard {
                rng.gaussian(0.0, 0.8)
            } else {
                rng.gaussian(0.0, 0.03)
            };
            xt.set(i, 0, y + noise);
            xt.set(
                i,
                1,
                if hard {
                    rng.uniform(3.0, 5.0)
                } else {
                    rng.uniform(0.0, 0.5)
                },
            );
        }
        Toy {
            model,
            source,
            target_x: xt,
        }
    }

    fn toy_config() -> TasfarConfig {
        TasfarConfig {
            grid_cell: 0.05,
            epochs: 30,
            learning_rate: 1e-3,
            early_stop: None,
            ..TasfarConfig::default()
        }
    }

    #[test]
    fn healthy_runs_adapt_without_retries() {
        let mut toy = build_toy(21);
        let cfg = toy_config();
        let calib = calibrate_on_source(&mut toy.model, &toy.source, &cfg).unwrap();
        let outcome = adapt_guarded(
            &mut toy.model,
            &calib,
            &toy.target_x,
            &Mse,
            &cfg,
            &RecoveryPolicy::default(),
        );
        assert_eq!(outcome.label(), "adapted");
        assert_eq!(outcome.retries(), 0);
        assert!(outcome.adaptation().is_some());
        assert!(!outcome.fell_back());
    }

    #[test]
    fn unrecoverable_failure_falls_back_and_restores_the_model() {
        let mut toy = build_toy(22);
        let cfg = toy_config();
        let calib = calibrate_on_source(&mut toy.model, &toy.source, &cfg).unwrap();
        let reference = toy.model.clone();
        let mut poisoned = toy.target_x.clone();
        poisoned.set(0, 0, f64::NAN);
        let outcome = adapt_guarded(
            &mut toy.model,
            &calib,
            &poisoned,
            &Mse,
            &cfg,
            &RecoveryPolicy::default(),
        );
        match &outcome {
            GuardedOutcome::FellBackToSource { error, retries } => {
                assert_eq!(error.label(), "non_finite_input");
                assert_eq!(*retries, 0, "fatal errors must not burn retries");
            }
            other => panic!("expected fallback, got {}", other.label()),
        }
        // Do-no-harm: predictions bit-identical to the pre-adaptation model.
        let mut m = toy.model.clone();
        let mut r = reference.clone();
        assert_eq!(
            m.predict(&toy.target_x).as_slice(),
            r.predict(&toy.target_x).as_slice()
        );
    }

    #[test]
    fn recoverable_failure_is_fixed_by_one_widening_retry() {
        let mut toy = build_toy(23);
        let cfg = toy_config();
        let calib = calibrate_on_source(&mut toy.model, &toy.source, &cfg).unwrap();
        // Shrink τ by exactly the factor one retry widens it back by: the
        // first attempt finds nothing confident, the retry runs healthy.
        let factor = 1e9;
        let broken = SourceCalibration {
            classifier: ConfidenceClassifier::from_tau(
                calib.classifier.tau / factor,
                calib.classifier.eta,
            ),
            qs: calib.qs.clone(),
            median_uncertainty: calib.median_uncertainty,
        };
        let policy = RecoveryPolicy {
            tau_widen: factor,
            ..RecoveryPolicy::default()
        };
        let outcome = adapt_guarded(&mut toy.model, &broken, &toy.target_x, &Mse, &cfg, &policy);
        match &outcome {
            GuardedOutcome::Recovered {
                retries, errors, ..
            } => {
                assert_eq!(*retries, 1);
                assert_eq!(errors.len(), 1);
                assert_eq!(errors[0].label(), "no_confident_samples");
            }
            other => panic!("expected recovery, got {}", other.label()),
        }
    }

    #[test]
    fn exhausted_budget_degrades_gracefully() {
        let mut toy = build_toy(24);
        let cfg = toy_config();
        let calib = calibrate_on_source(&mut toy.model, &toy.source, &cfg).unwrap();
        let reference = toy.model.clone();
        // τ so small that doubling it twice cannot help.
        let broken = SourceCalibration {
            classifier: ConfidenceClassifier::from_tau(1e-300, calib.classifier.eta),
            qs: calib.qs,
            median_uncertainty: calib.median_uncertainty,
        };
        let policy = RecoveryPolicy {
            max_retries: 2,
            ..RecoveryPolicy::default()
        };
        let outcome = adapt_guarded(&mut toy.model, &broken, &toy.target_x, &Mse, &cfg, &policy);
        match &outcome {
            GuardedOutcome::FellBackToSource { error, retries } => {
                assert_eq!(error.label(), "no_confident_samples");
                assert!(error.recoverable());
                assert_eq!(*retries, 2, "the full budget was spent");
            }
            other => panic!("expected fallback, got {}", other.label()),
        }
        let mut m = toy.model.clone();
        let mut r = reference.clone();
        assert_eq!(
            m.predict(&toy.target_x).as_slice(),
            r.predict(&toy.target_x).as_slice()
        );
    }

    #[test]
    fn degenerate_policies_are_sanitized_not_fatal() {
        assert_eq!(safe_factor(f64::NAN), 1.0);
        assert_eq!(safe_factor(0.0), 1.0);
        assert_eq!(safe_factor(-3.0), 1.0);
        assert_eq!(safe_factor(f64::INFINITY), 1.0);
        assert_eq!(safe_factor(2.5), 2.5);

        // A policy full of garbage never panics the guarded path.
        let mut toy = build_toy(25);
        let cfg = toy_config();
        let calib = calibrate_on_source(&mut toy.model, &toy.source, &cfg).unwrap();
        let broken = SourceCalibration {
            classifier: ConfidenceClassifier::from_tau(1e-300, calib.classifier.eta),
            qs: calib.qs,
            median_uncertainty: calib.median_uncertainty,
        };
        let policy = RecoveryPolicy {
            max_retries: 1,
            lr_backoff: f64::NAN,
            bandwidth_widen: -1.0,
            tau_widen: f64::INFINITY,
        };
        let outcome = adapt_guarded(&mut toy.model, &broken, &toy.target_x, &Mse, &cfg, &policy);
        assert!(outcome.fell_back());
    }
}
