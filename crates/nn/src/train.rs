//! Mini-batch training loop with early stopping on the loss-drop rate.
//!
//! The early-stopping rule implements the paper's Fig. 13 observation: the
//! adaptation should stop "when the rate of error reduction slows down",
//! because at that point the model has absorbed the high-credibility
//! pseudo-labels and further epochs chase the noisy low-credibility ones.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::TrainError;
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::layers::{Layer, Mode, Sequential};
use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::rng::Rng;
use crate::schedule::LrSchedule;
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// A per-epoch observer hook on [`fit`].
///
/// This crate is the bottom of the workspace dependency graph, so it cannot
/// emit telemetry itself; instead `fit` calls back into whatever observer the
/// configuration carries (the `tasfar-obs` crate provides one that turns
/// epochs into trace events). Observers are passive: they see each epoch's
/// summary after the weights have been updated and must not influence
/// training — `fit`'s arithmetic is identical with or without one.
pub trait TrainObserver: Send + Sync {
    /// Called after every completed epoch with its mean training loss, the
    /// learning rate that was in effect, and the epoch's wall time.
    fn on_epoch(&self, epoch: usize, mean_loss: f64, lr: f64, wall: Duration);

    /// Called once if the early-stopping rule fires at `epoch`.
    fn on_early_stop(&self, epoch: usize) {
        let _ = epoch;
    }
}

/// Configuration of a training run.
#[derive(Clone)]
pub struct TrainConfig {
    /// Maximum number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size; the final batch of an epoch may be smaller.
    pub batch_size: usize,
    /// Seed for the shuffling stream.
    pub seed: u64,
    /// Whether to reshuffle every epoch.
    pub shuffle: bool,
    /// Optional early stopping on the loss-drop rate.
    pub early_stop: Option<EarlyStop>,
    /// Forward mode used during training. `Train` (default) activates
    /// dropout and batch statistics; `Eval` fine-tunes deterministically.
    ///
    /// Deterministic fine-tuning matters for self-/pseudo-label objectives:
    /// with dropout active, the expected loss against *fixed* targets
    /// contains the model's own output variance, so the optimizer drifts
    /// toward variance suppression even when the targets equal the current
    /// predictions. TASFAR's adaptation trainer therefore fine-tunes in
    /// `Eval` mode while MC-dropout uncertainty still uses stochastic
    /// passes.
    pub mode: Mode,
    /// Learning-rate schedule, applied to the optimizer at the start of
    /// every epoch relative to the optimizer's initial rate.
    pub schedule: LrSchedule,
    /// Optional per-epoch observer (telemetry). `None` (the default) keeps
    /// the loop free of clock reads; observers never affect the arithmetic.
    pub observer: Option<Arc<dyn TrainObserver>>,
    /// Optional divergence guard: abort the run with
    /// [`TrainError::Diverged`] when an epoch's mean loss blows past the
    /// first epoch's by the configured factor. `None` (the default) keeps
    /// the historical behaviour of training to completion regardless.
    pub divergence: Option<DivergenceGuard>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 32,
            seed: 0,
            shuffle: true,
            early_stop: None,
            mode: Mode::Train,
            schedule: LrSchedule::Constant,
            observer: None,
            divergence: None,
        }
    }
}

impl fmt::Debug for TrainConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrainConfig")
            .field("epochs", &self.epochs)
            .field("batch_size", &self.batch_size)
            .field("seed", &self.seed)
            .field("shuffle", &self.shuffle)
            .field("early_stop", &self.early_stop)
            .field("mode", &self.mode)
            .field("schedule", &self.schedule)
            .field(
                "observer",
                &self.observer.as_ref().map(|_| "dyn TrainObserver"),
            )
            .field("divergence", &self.divergence)
            .finish()
    }
}

/// Loss blow-up detector for [`try_fit`].
///
/// The first completed epoch's mean loss becomes the baseline; any later
/// epoch whose mean loss exceeds `baseline × factor` aborts the run with
/// [`TrainError::Diverged`]. With pseudo-label fine-tuning there is no
/// held-out labelled set that could catch a diverging run, so the training
/// loss itself is the only signal available.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceGuard {
    /// Blow-up factor relative to the first epoch's mean loss. Must be
    /// `> 1` to be meaningful; typical values are 4–10.
    pub factor: f64,
}

impl Default for DivergenceGuard {
    fn default() -> Self {
        DivergenceGuard { factor: 8.0 }
    }
}

impl ToJson for DivergenceGuard {
    fn to_json_value(&self) -> Json {
        Json::obj(vec![("factor", Json::Num(self.factor))])
    }
}

impl FromJson for DivergenceGuard {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(DivergenceGuard {
            factor: v.field("factor")?.as_f64()?,
        })
    }
}

/// Early stopping on the *rate* of loss reduction.
///
/// After each epoch ≥ `min_epochs`, compare the mean loss of the last
/// `window` epochs against the `window` before it; stop when the relative
/// improvement falls below `min_rel_improvement`.
#[derive(Debug, Clone)]
pub struct EarlyStop {
    /// Width of the trailing loss windows being compared.
    pub window: usize,
    /// Stop when the windows' relative improvement falls below this.
    pub min_rel_improvement: f64,
    /// Never stop before this many epochs.
    pub min_epochs: usize,
}

impl ToJson for EarlyStop {
    fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("window", Json::from(self.window)),
            ("min_rel_improvement", Json::Num(self.min_rel_improvement)),
            ("min_epochs", Json::from(self.min_epochs)),
        ])
    }
}

impl FromJson for EarlyStop {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(EarlyStop {
            window: v.field("window")?.as_usize()?,
            min_rel_improvement: v.field("min_rel_improvement")?.as_f64()?,
            min_epochs: v.field("min_epochs")?.as_usize()?,
        })
    }
}

impl Default for EarlyStop {
    fn default() -> Self {
        EarlyStop {
            window: 5,
            min_rel_improvement: 0.01,
            min_epochs: 10,
        }
    }
}

/// The outcome of [`fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Mean training loss per completed epoch.
    pub epoch_losses: Vec<f64>,
    /// The epoch at which early stopping triggered, if it did.
    pub stopped_early_at: Option<usize>,
}

impl FitReport {
    /// The final epoch's training loss.
    pub fn final_loss(&self) -> f64 {
        *self.epoch_losses.last().unwrap_or(&f64::NAN)
    }
}

/// Trains `model` on `(x, y)` with optional per-sample weights.
///
/// Weights follow the convention of [`crate::loss`]: the objective is the
/// weight-normalised mean loss, so uniform weights match unweighted training.
///
/// # Panics
/// Panics if `x` and `y` disagree on the batch size, if `weights` has the
/// wrong length, or if the dataset is empty while `epochs > 0`. This is the
/// historical panicking façade over [`try_fit`]; numeric failures
/// ([`TrainError::NonFinite`], [`TrainError::Diverged`]) also panic here, so
/// callers that need to recover must use [`try_fit`].
pub fn fit(
    model: &mut Sequential,
    optimizer: &mut dyn Optimizer,
    loss: &dyn Loss,
    x: &Tensor,
    y: &Tensor,
    weights: Option<&[f64]>,
    cfg: &TrainConfig,
) -> FitReport {
    match try_fit(model, optimizer, loss, x, y, weights, cfg) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// Runs one optimisation step on a single mini-batch: zero gradients,
/// forward, checked loss, backward, optimizer update. This is the
/// allocation-free core of [`try_fit`]'s inner loop — every intermediate
/// (activations, per-sample losses, the loss gradient) lives in `scratch`,
/// and the optimizer is driven through the parameter visitor, so after the
/// arena and optimizer state have warmed up a steady-state call performs no
/// heap allocation.
///
/// The finite check on the batch loss runs *before* the backward pass: a
/// NaN/∞ loss returns [`TrainError::NonFinite`] with the model still in its
/// pre-batch state (gradients zeroed, weights untouched).
#[allow(clippy::too_many_arguments)]
pub fn train_step(
    model: &mut Sequential,
    optimizer: &mut dyn Optimizer,
    loss: &dyn Loss,
    xb: &Tensor,
    yb: &Tensor,
    weights: Option<&[f64]>,
    mode: Mode,
    epoch: usize,
    scratch: &mut Scratch,
) -> Result<f64, TrainError> {
    model.zero_grad();
    let pred = model.forward_scratch(xb, mode, scratch);
    let batch_loss = {
        let mut per = scratch.take_vec(xb.rows());
        let r = loss.checked_value_with(&pred, yb, weights, epoch, &mut per);
        scratch.give_vec(per);
        r
    };
    let batch_loss = match batch_loss {
        Ok(v) => v,
        Err(e) => {
            scratch.give(pred);
            return Err(e);
        }
    };
    let mut grad = scratch.take(pred.rows(), pred.cols());
    loss.grad_into(&pred, yb, weights, &mut grad);
    scratch.give(pred);
    let dx = model.backward_scratch(&grad, scratch);
    scratch.give(grad);
    scratch.give(dx);
    optimizer.step(model);
    Ok(batch_loss)
}

/// Fallible core of [`fit`]: trains `model` on `(x, y)` and reports every
/// failure as a typed [`TrainError`] instead of panicking.
///
/// Validation failures (shape mismatch, empty dataset with `epochs > 0`,
/// zero batch size) return `Err` before any weight is touched. Numeric
/// failures abort mid-run: a NaN/∞ batch loss returns
/// [`TrainError::NonFinite`] *before* the poisoned gradient is applied, and
/// an armed [`DivergenceGuard`] returns [`TrainError::Diverged`] at the end
/// of the offending epoch. In both cases earlier epochs' updates remain in
/// the model — callers that need the do-no-harm guarantee snapshot weights
/// first (see `tasfar_core`'s guarded adaptation).
pub fn try_fit(
    model: &mut Sequential,
    optimizer: &mut dyn Optimizer,
    loss: &dyn Loss,
    x: &Tensor,
    y: &Tensor,
    weights: Option<&[f64]>,
    cfg: &TrainConfig,
) -> Result<FitReport, TrainError> {
    if x.rows() != y.rows() {
        return Err(TrainError::ShapeMismatch {
            context: format!("fit: x has {} rows but y has {}", x.rows(), y.rows()),
        });
    }
    if let Some(w) = weights {
        if w.len() != x.rows() {
            return Err(TrainError::ShapeMismatch {
                context: format!(
                    "fit: weight length mismatch ({} weights for {} rows)",
                    w.len(),
                    x.rows()
                ),
            });
        }
    }
    if x.rows() == 0 && cfg.epochs > 0 {
        return Err(TrainError::EmptyDataset);
    }
    if cfg.batch_size == 0 {
        return Err(TrainError::InvalidConfig {
            context: "fit: batch_size must be positive".into(),
        });
    }

    let n = x.rows();
    let mut rng = Rng::new(cfg.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut report = FitReport {
        epoch_losses: Vec::with_capacity(cfg.epochs),
        stopped_early_at: None,
    };
    let base_lr = optimizer.learning_rate();

    // Persistent mini-batch buffers: allocated (at most) once on the first
    // batch, reused for the rest of the run via `select_rows_into` and
    // clear-and-extend. Together with `train_step`'s scratch arena this
    // makes the steady-state epoch loop allocation-free.
    let mut xb = Tensor::zeros(0, 0);
    let mut yb = Tensor::zeros(0, 0);
    let mut wb: Vec<f64> = Vec::new();

    crate::scratch::with(|scratch| {
        for epoch in 0..cfg.epochs {
            // Clock reads happen only when an observer is attached, so the
            // unobserved loop stays exactly as lean as before.
            let epoch_start = cfg.observer.as_ref().map(|_| Instant::now());
            optimizer.set_learning_rate(cfg.schedule.rate(base_lr, epoch));
            if cfg.shuffle {
                rng.shuffle(&mut order);
            }
            let mut epoch_loss = 0.0;
            let mut epoch_weight = 0.0;
            for chunk in order.chunks(cfg.batch_size) {
                x.select_rows_into(chunk, &mut xb);
                y.select_rows_into(chunk, &mut yb);
                let wb_ref: Option<&[f64]> = match weights {
                    Some(w) => {
                        wb.clear();
                        wb.extend(chunk.iter().map(|&i| w[i]));
                        Some(&wb)
                    }
                    None => None,
                };
                // Skip batches whose weights sum to zero — they carry no
                // signal and would poison the normalisation.
                let batch_weight = match wb_ref {
                    Some(w) => w.iter().sum::<f64>(),
                    None => chunk.len() as f64,
                };
                if batch_weight <= 0.0 {
                    continue;
                }

                let batch_loss = train_step(
                    model, optimizer, loss, &xb, &yb, wb_ref, cfg.mode, epoch, scratch,
                )?;

                epoch_loss += batch_loss * batch_weight;
                epoch_weight += batch_weight;
            }
            let mean_loss = if epoch_weight > 0.0 {
                epoch_loss / epoch_weight
            } else {
                0.0
            };
            report.epoch_losses.push(mean_loss);
            if let Some(observer) = &cfg.observer {
                let wall = epoch_start.map(|s| s.elapsed()).unwrap_or_default();
                observer.on_epoch(epoch, mean_loss, optimizer.learning_rate(), wall);
            }

            if let Some(guard) = &cfg.divergence {
                let baseline = report.epoch_losses[0];
                if epoch > 0 && baseline.is_finite() && baseline > 0.0 {
                    let limit = guard.factor * baseline;
                    if mean_loss > limit {
                        return Err(TrainError::Diverged {
                            loss: mean_loss,
                            baseline,
                            factor: guard.factor,
                            epoch,
                        });
                    }
                }
            }

            if let Some(es) = &cfg.early_stop {
                if should_stop(&report.epoch_losses, es, epoch) {
                    report.stopped_early_at = Some(epoch);
                    if let Some(observer) = &cfg.observer {
                        observer.on_early_stop(epoch);
                    }
                    break;
                }
            }
        }
        Ok(report)
    })
}

/// The Fig. 13 stopping rule: stop once the relative improvement of the
/// trailing loss window over the preceding window falls below the threshold.
fn should_stop(losses: &[f64], es: &EarlyStop, epoch: usize) -> bool {
    if epoch + 1 < es.min_epochs.max(2 * es.window) {
        return false;
    }
    let n = losses.len();
    let recent: f64 = losses[n - es.window..].iter().sum::<f64>() / es.window as f64;
    let previous: f64 =
        losses[n - 2 * es.window..n - es.window].iter().sum::<f64>() / es.window as f64;
    if previous <= 0.0 {
        return true; // loss already at the floor
    }
    (previous - recent) / previous < es.min_rel_improvement
}

/// Evaluates the mean loss of `model` on `(x, y)` without updating anything.
pub fn evaluate(model: &mut Sequential, loss: &dyn Loss, x: &Tensor, y: &Tensor) -> f64 {
    let pred = model.predict(x);
    loss.value(&pred, y, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Dense, Relu};
    use crate::loss::Mse;
    use crate::optim::Adam;

    fn linear_data(rng: &mut Rng, n: usize) -> (Tensor, Tensor) {
        // y = 3x₀ − 2x₁ + 1 + noise
        let x = Tensor::rand_uniform(n, 2, -1.0, 1.0, rng);
        let y = Tensor::from_fn(n, 1, |r, _| {
            3.0 * x.get(r, 0) - 2.0 * x.get(r, 1) + 1.0 + rng.gaussian(0.0, 0.01)
        });
        (x, y)
    }

    #[test]
    fn fit_learns_a_linear_function() {
        let mut rng = Rng::new(1);
        let (x, y) = linear_data(&mut rng, 256);
        let mut model = Sequential::new().add(Dense::new(2, 1, Init::XavierUniform, &mut rng));
        let mut opt = Adam::new(0.05);
        let report = fit(
            &mut model,
            &mut opt,
            &Mse,
            &x,
            &y,
            None,
            &TrainConfig {
                epochs: 200,
                batch_size: 32,
                ..TrainConfig::default()
            },
        );
        assert!(
            report.final_loss() < 0.01,
            "final loss {}",
            report.final_loss()
        );
        assert!(report.epoch_losses[0] > report.final_loss());
    }

    #[test]
    fn fit_learns_nonlinear_with_hidden_layer() {
        let mut rng = Rng::new(2);
        let x = Tensor::rand_uniform(512, 1, -2.0, 2.0, &mut rng);
        let y = x.map(|v| v * v);
        let mut model = Sequential::new()
            .add(Dense::new(1, 32, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(32, 1, Init::XavierUniform, &mut rng));
        let mut opt = Adam::new(0.01);
        let report = fit(
            &mut model,
            &mut opt,
            &Mse,
            &x,
            &y,
            None,
            &TrainConfig {
                epochs: 300,
                batch_size: 64,
                ..TrainConfig::default()
            },
        );
        assert!(
            report.final_loss() < 0.02,
            "final loss {}",
            report.final_loss()
        );
    }

    #[test]
    fn weighted_fit_ignores_zero_weight_samples() {
        let mut rng = Rng::new(3);
        // Two clusters with contradictory labels; weights select cluster A.
        let xa = Tensor::full(64, 1, 1.0);
        let ya = Tensor::full(64, 1, 2.0);
        let xb = Tensor::full(64, 1, 1.0);
        let yb = Tensor::full(64, 1, -2.0);
        let x = Tensor::vstack(&[&xa, &xb]);
        let y = Tensor::vstack(&[&ya, &yb]);
        let mut w = vec![1.0; 64];
        w.extend(vec![0.0; 64]);
        let mut model = Sequential::new().add(Dense::new(1, 1, Init::XavierUniform, &mut rng));
        let mut opt = Adam::new(0.05);
        let _ = fit(
            &mut model,
            &mut opt,
            &Mse,
            &x,
            &y,
            Some(&w),
            &TrainConfig {
                epochs: 200,
                batch_size: 16,
                ..TrainConfig::default()
            },
        );
        let pred = model.predict(&Tensor::full(1, 1, 1.0));
        assert!(
            (pred.get(0, 0) - 2.0).abs() < 0.1,
            "prediction {} should match the weighted cluster",
            pred.get(0, 0)
        );
    }

    #[test]
    fn early_stop_triggers_on_plateau() {
        let mut rng = Rng::new(4);
        let (x, y) = linear_data(&mut rng, 128);
        let mut model = Sequential::new().add(Dense::new(2, 1, Init::XavierUniform, &mut rng));
        let mut opt = Adam::new(0.1);
        let report = fit(
            &mut model,
            &mut opt,
            &Mse,
            &x,
            &y,
            None,
            &TrainConfig {
                epochs: 1000,
                batch_size: 32,
                early_stop: Some(EarlyStop {
                    window: 5,
                    min_rel_improvement: 0.01,
                    min_epochs: 10,
                }),
                ..TrainConfig::default()
            },
        );
        assert!(
            report.stopped_early_at.is_some(),
            "plateaued training should stop early"
        );
        assert!(report.epoch_losses.len() < 1000);
    }

    #[test]
    fn zero_epochs_is_a_noop() {
        let mut rng = Rng::new(5);
        let mut model = Sequential::new().add(Dense::new(1, 1, Init::XavierUniform, &mut rng));
        let before = model.predict(&Tensor::full(1, 1, 1.0));
        let mut opt = Adam::new(0.1);
        let report = fit(
            &mut model,
            &mut opt,
            &Mse,
            &Tensor::zeros(4, 1),
            &Tensor::zeros(4, 1),
            None,
            &TrainConfig {
                epochs: 0,
                ..TrainConfig::default()
            },
        );
        assert!(report.epoch_losses.is_empty());
        assert_eq!(model.predict(&Tensor::full(1, 1, 1.0)), before);
    }

    #[test]
    fn deterministic_given_seeds() {
        let build = || {
            let mut rng = Rng::new(6);
            let (x, y) = linear_data(&mut rng, 64);
            let mut model = Sequential::new().add(Dense::new(2, 1, Init::XavierUniform, &mut rng));
            let mut opt = Adam::new(0.05);
            let report = fit(
                &mut model,
                &mut opt,
                &Mse,
                &x,
                &y,
                None,
                &TrainConfig {
                    epochs: 20,
                    seed: 9,
                    ..TrainConfig::default()
                },
            );
            report.epoch_losses
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn evaluate_matches_loss_on_predictions() {
        let mut rng = Rng::new(7);
        let mut model = Sequential::new().add(Dense::new(1, 1, Init::XavierUniform, &mut rng));
        let x = Tensor::rand_normal(16, 1, 0.0, 1.0, &mut rng);
        let y = Tensor::zeros(16, 1);
        let direct = {
            let pred = model.predict(&x);
            Mse.value(&pred, &y, None)
        };
        assert_eq!(evaluate(&mut model, &Mse, &x, &y), direct);
    }

    #[test]
    fn schedule_is_applied_per_epoch() {
        let mut rng = Rng::new(9);
        let mut model = Sequential::new().add(Dense::new(1, 1, Init::XavierUniform, &mut rng));
        let x = Tensor::rand_normal(8, 1, 0.0, 1.0, &mut rng);
        let y = x.clone();
        let mut opt = Adam::new(0.1);
        let _ = fit(
            &mut model,
            &mut opt,
            &Mse,
            &x,
            &y,
            None,
            &TrainConfig {
                epochs: 10,
                batch_size: 8,
                schedule: crate::schedule::LrSchedule::StepDecay {
                    every: 5,
                    factor: 0.5,
                },
                ..TrainConfig::default()
            },
        );
        // After the last epoch (epoch index 9), the step decay has fired
        // once: 0.1 · 0.5 = 0.05.
        assert!((opt.learning_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn observer_sees_every_epoch_and_never_perturbs_training() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct Recorder {
            epochs: Mutex<Vec<(usize, f64)>>,
            stopped: Mutex<Option<usize>>,
        }
        impl TrainObserver for Recorder {
            fn on_epoch(&self, epoch: usize, mean_loss: f64, lr: f64, _wall: Duration) {
                assert!(lr > 0.0);
                self.epochs.lock().unwrap().push((epoch, mean_loss));
            }
            fn on_early_stop(&self, epoch: usize) {
                *self.stopped.lock().unwrap() = Some(epoch);
            }
        }

        let run = |observer: Option<Arc<dyn TrainObserver>>| {
            let mut rng = Rng::new(10);
            let (x, y) = linear_data(&mut rng, 128);
            let mut model = Sequential::new().add(Dense::new(2, 1, Init::XavierUniform, &mut rng));
            let mut opt = Adam::new(0.1);
            fit(
                &mut model,
                &mut opt,
                &Mse,
                &x,
                &y,
                None,
                &TrainConfig {
                    epochs: 200,
                    batch_size: 32,
                    early_stop: Some(EarlyStop::default()),
                    observer,
                    ..TrainConfig::default()
                },
            )
        };

        let recorder = Arc::new(Recorder::default());
        let observed = run(Some(recorder.clone()));
        let plain = run(None);

        // Observers are passive: identical losses with and without one.
        assert_eq!(observed.epoch_losses, plain.epoch_losses);

        let seen = recorder.epochs.lock().unwrap();
        assert_eq!(seen.len(), observed.epoch_losses.len());
        for (i, &(epoch, loss)) in seen.iter().enumerate() {
            assert_eq!(epoch, i);
            assert_eq!(loss.to_bits(), observed.epoch_losses[i].to_bits());
        }
        assert_eq!(*recorder.stopped.lock().unwrap(), observed.stopped_early_at);
    }

    #[test]
    fn try_fit_reports_validation_errors_without_touching_weights() {
        let mut rng = Rng::new(20);
        let mut model = Sequential::new().add(Dense::new(1, 1, Init::XavierUniform, &mut rng));
        let probe = Tensor::full(1, 1, 1.0);
        let before = model.predict(&probe);
        let mut opt = Adam::new(0.1);

        let shape = try_fit(
            &mut model,
            &mut opt,
            &Mse,
            &Tensor::zeros(3, 1),
            &Tensor::zeros(4, 1),
            None,
            &TrainConfig::default(),
        );
        assert!(matches!(shape, Err(TrainError::ShapeMismatch { .. })));

        let weights = try_fit(
            &mut model,
            &mut opt,
            &Mse,
            &Tensor::zeros(3, 1),
            &Tensor::zeros(3, 1),
            Some(&[1.0]),
            &TrainConfig::default(),
        );
        assert!(matches!(weights, Err(TrainError::ShapeMismatch { .. })));

        let empty = try_fit(
            &mut model,
            &mut opt,
            &Mse,
            &Tensor::zeros(0, 1),
            &Tensor::zeros(0, 1),
            None,
            &TrainConfig::default(),
        );
        assert_eq!(empty, Err(TrainError::EmptyDataset));

        let batch = try_fit(
            &mut model,
            &mut opt,
            &Mse,
            &Tensor::zeros(3, 1),
            &Tensor::zeros(3, 1),
            None,
            &TrainConfig {
                batch_size: 0,
                ..TrainConfig::default()
            },
        );
        assert!(matches!(batch, Err(TrainError::InvalidConfig { .. })));

        assert_eq!(model.predict(&probe), before, "no error may update weights");
    }

    #[test]
    fn nan_targets_fail_fast_with_clean_weights() {
        let mut rng = Rng::new(21);
        let mut model = Sequential::new().add(Dense::new(1, 1, Init::XavierUniform, &mut rng));
        let probe = Tensor::full(1, 1, 1.0);
        let before = model.predict(&probe);
        let mut opt = Adam::new(0.1);
        let x = Tensor::full(8, 1, 1.0);
        let y = Tensor::full(8, 1, f64::NAN);
        let err = try_fit(
            &mut model,
            &mut opt,
            &Mse,
            &x,
            &y,
            None,
            &TrainConfig {
                epochs: 5,
                batch_size: 8,
                ..TrainConfig::default()
            },
        )
        .unwrap_err();
        match err {
            TrainError::NonFinite { loss, epoch } => {
                assert!(!loss.is_finite());
                assert_eq!(epoch, 0);
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        // The check fires before the poisoned backward pass, so the model
        // still predicts exactly what it did before the call.
        assert_eq!(model.predict(&probe), before);
        assert!(model.predict(&probe).as_slice()[0].is_finite());
    }

    #[test]
    fn divergence_guard_catches_a_blowing_up_run() {
        use std::sync::atomic::{AtomicI32, Ordering};

        /// Scripted loss: 10× larger on every value call, gradient zero —
        /// a pure loss-curve blow-up with no numeric side effects.
        struct Exploding(AtomicI32);
        impl Loss for Exploding {
            fn name(&self) -> &'static str {
                "exploding"
            }
            fn per_sample(&self, pred: &Tensor, _target: &Tensor) -> Vec<f64> {
                let k = self.0.fetch_add(1, Ordering::Relaxed);
                vec![10f64.powi(k); pred.rows()]
            }
            fn grad(&self, pred: &Tensor, _target: &Tensor, _w: Option<&[f64]>) -> Tensor {
                Tensor::zeros(pred.rows(), pred.cols())
            }
        }

        let mut rng = Rng::new(22);
        let mut model = Sequential::new().add(Dense::new(1, 1, Init::XavierUniform, &mut rng));
        let mut opt = Adam::new(0.01);
        let x = Tensor::zeros(8, 1);
        let y = Tensor::zeros(8, 1);
        let err = try_fit(
            &mut model,
            &mut opt,
            &Exploding(AtomicI32::new(0)),
            &x,
            &y,
            None,
            &TrainConfig {
                epochs: 50,
                batch_size: 8,
                divergence: Some(DivergenceGuard { factor: 8.0 }),
                ..TrainConfig::default()
            },
        )
        .unwrap_err();
        assert!(err.recoverable());
        match err {
            TrainError::Diverged {
                loss,
                baseline,
                factor,
                epoch,
            } => {
                assert_eq!(epoch, 1);
                assert_eq!(baseline, 1.0);
                assert_eq!(loss, 10.0);
                assert_eq!(factor, 8.0);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn divergence_guard_stays_quiet_on_healthy_runs() {
        let mut rng = Rng::new(23);
        let (x, y) = linear_data(&mut rng, 128);
        let mut model = Sequential::new().add(Dense::new(2, 1, Init::XavierUniform, &mut rng));
        let mut opt = Adam::new(0.05);
        let cfg = TrainConfig {
            epochs: 50,
            batch_size: 32,
            ..TrainConfig::default()
        };
        let guarded = try_fit(
            &mut model,
            &mut opt,
            &Mse,
            &x,
            &y,
            None,
            &TrainConfig {
                divergence: Some(DivergenceGuard::default()),
                ..cfg.clone()
            },
        )
        .expect("healthy run must not trip the guard");
        // The guard is observation-only: losses are bit-identical to an
        // unguarded run.
        let mut rng2 = Rng::new(23);
        let (x2, y2) = linear_data(&mut rng2, 128);
        let mut model2 = Sequential::new().add(Dense::new(2, 1, Init::XavierUniform, &mut rng2));
        let mut opt2 = Adam::new(0.05);
        let plain = try_fit(&mut model2, &mut opt2, &Mse, &x2, &y2, None, &cfg).unwrap();
        assert_eq!(guarded.epoch_losses, plain.epoch_losses);
    }

    #[test]
    #[should_panic(expected = "fit: x has")]
    fn mismatched_rows_panic() {
        let mut rng = Rng::new(8);
        let mut model = Sequential::new().add(Dense::new(1, 1, Init::Zeros, &mut rng));
        let mut opt = Adam::new(0.1);
        fit(
            &mut model,
            &mut opt,
            &Mse,
            &Tensor::zeros(3, 1),
            &Tensor::zeros(4, 1),
            None,
            &TrainConfig::default(),
        );
    }
}
