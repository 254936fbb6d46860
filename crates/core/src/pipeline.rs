//! The staged TASFAR adaptation pipeline.
//!
//! [`crate::adapt::adapt`] used to be one 200-line monolith; it is now a thin
//! wrapper over five typed stages, each consuming and producing explicit
//! artifacts:
//!
//! ```text
//! Predict ──▶ Split ──▶ EstimateDensity ──▶ PseudoLabel ──▶ FineTune
//! McPrediction  ConfidenceSplit  DensityArtifacts  Vec<PseudoLabel>  FitReport
//! ```
//!
//! Every stage validates its inputs and returns a typed
//! [`AdaptError`] instead of panicking; each records a [`StageTrace`] —
//! wall time, sample counts, and the error label if the stage aborted — in
//! the [`PipelineTrace`] that travels with the
//! [`crate::adapt::AdaptationOutcome`]. The stages are
//! generic over the `tasfar_nn::model` traits
//! ([`StochasticRegressor`] for prediction, [`TrainableRegressor`] for the
//! fine-tune), so *any* regressor implementing them — not just
//! `Sequential` — can run the pipeline; `tasfar_nn::model::FnRegressor`
//! exercises this with a closure-backed mock.
//!
//! **Bit-compatibility contract**: the stage bodies preserve the monolith's
//! float-operation order, RNG stream order, and parallel chunk geometry
//! exactly. The golden-equivalence suite (`tests/golden_adapt.rs`) pins the
//! raw `f64` bit patterns across 1/4/default `TASFAR_THREADS`.
//!
//! **Telemetry**: every stage runs inside a `tasfar_obs` span (named
//! `stage.<name>`, carrying the sample counts and skip reason as fields),
//! and its wall time also feeds the always-on `pipeline.stage_ns.<name>`
//! histogram. [`StageTrace`] is now a *view* over the same measurement: the
//! wall time it records is the span's elapsed time, so trace and telemetry
//! can never disagree. Tracing is observational only — outputs are
//! bit-identical with `TASFAR_TRACE` on or off.

use std::time::Duration;

use crate::adapt::{scenario_classifier, BuiltMaps, SourceCalibration, TasfarConfig};
use crate::confidence::{ConfidenceClassifier, ConfidenceSplit};
use crate::density::{DensityMap1d, DensityMap2d, GridSpec};
use crate::error::{AdaptError, ErrorKind};
use crate::faultinject::{self, Fault};
use crate::pseudo::{PseudoLabel, PseudoLabelGenerator1d, PseudoLabelGenerator2d};
use crate::uncertainty::{McDropout, McPrediction};
use tasfar_nn::loss::Loss;
use tasfar_nn::model::{StochasticRegressor, TrainableRegressor};
use tasfar_nn::optim::Adam;
use tasfar_nn::parallel::{chunk_bounds, chunk_count, map_chunks};
use tasfar_nn::tensor::Tensor;
use tasfar_nn::train::{DivergenceGuard, FitReport, TrainConfig};

/// Uncertain samples pseudo-labelled per parallel chunk. Fixed (independent
/// of thread count) so the chunk geometry — and therefore the output — is
/// identical at any `TASFAR_THREADS`.
const PSEUDO_SAMPLES_PER_CHUNK: usize = 32;

/// The five pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// MC-dropout prediction on the target batch ([`predict_stage`]).
    Predict,
    /// Confidence thresholding at τ ([`split_stage`]).
    Split,
    /// Label-density estimation from the confident predictions, Algorithm 2
    /// ([`estimate_density_stage`]).
    EstimateDensity,
    /// Posterior-interpolated pseudo-labelling of the uncertain samples,
    /// Algorithm 3 ([`pseudo_label_stage`]).
    PseudoLabel,
    /// Credibility-weighted fine-tuning, Eq. 22 ([`finetune_stage`]).
    FineTune,
}

impl Stage {
    /// Stable display name (snake_case, log-friendly).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Predict => "predict",
            Stage::Split => "split",
            Stage::EstimateDensity => "estimate_density",
            Stage::PseudoLabel => "pseudo_label",
            Stage::FineTune => "fine_tune",
        }
    }

    /// The stage's trace span name (`stage.<name>`).
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Predict => "stage.predict",
            Stage::Split => "stage.split",
            Stage::EstimateDensity => "stage.estimate_density",
            Stage::PseudoLabel => "stage.pseudo_label",
            Stage::FineTune => "stage.fine_tune",
        }
    }

    /// The stage's wall-time histogram name in the metrics registry.
    fn histogram_name(self) -> &'static str {
        match self {
            Stage::Predict => "pipeline.stage_ns.predict",
            Stage::Split => "pipeline.stage_ns.split",
            Stage::EstimateDensity => "pipeline.stage_ns.estimate_density",
            Stage::PseudoLabel => "pipeline.stage_ns.pseudo_label",
            Stage::FineTune => "pipeline.stage_ns.fine_tune",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One stage's execution record.
#[derive(Debug, Clone)]
pub struct StageTrace {
    /// Which stage ran.
    pub stage: Stage,
    /// Wall-clock time the stage took.
    pub wall: Duration,
    /// Samples the stage received. Per stage: target rows (Predict, Split),
    /// confident samples (EstimateDensity), uncertain samples (PseudoLabel),
    /// assembled training rows (FineTune).
    pub samples_in: usize,
    /// Samples the stage produced. Per stage: predicted rows (Predict),
    /// uncertain samples (Split), confident samples used for the map
    /// (EstimateDensity), *informative* pseudo-labels (PseudoLabel),
    /// trained rows (FineTune). Zero when the stage was skipped.
    pub samples_out: usize,
    /// Why the stage aborted the pipeline, if it did — the
    /// [`AdaptError::label`] of the typed error it returned.
    pub skipped: Option<&'static str>,
}

/// The ordered stage records of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineTrace {
    /// Stage records in execution order; stages after a skip never run and
    /// therefore never appear.
    pub stages: Vec<StageTrace>,
}

impl PipelineTrace {
    /// The record of `stage`, if that stage ran.
    pub fn stage(&self, stage: Stage) -> Option<&StageTrace> {
        self.stages.iter().find(|t| t.stage == stage)
    }

    /// The skip reason that aborted the pipeline, if any.
    pub fn skip_reason(&self) -> Option<&'static str> {
        self.stages.iter().find_map(|t| t.skipped)
    }

    /// Total wall-clock time across the recorded stages.
    pub fn total_wall(&self) -> Duration {
        self.stages.iter().map(|t| t.wall).sum()
    }

    /// Closes a stage's span and records the matching [`StageTrace`]. The
    /// one `elapsed()` reading backs both the trace entry and the span's
    /// emitted `dur_ns`-adjacent wall figure, plus the stage histogram.
    fn record(
        &mut self,
        stage: Stage,
        mut span: tasfar_obs::SpanGuard,
        samples_in: usize,
        samples_out: usize,
        skipped: Option<&'static str>,
    ) {
        let wall = span.elapsed();
        span.field("samples_in", samples_in);
        span.field("samples_out", samples_out);
        // The measured stage wall also travels in the record itself, so
        // trace analytics can self-time a stage without trusting `dur_ns`
        // (which includes the serialisation overhead of the drop).
        span.field("wall_ns", wall.as_nanos() as u64);
        if let Some(reason) = skipped {
            span.field("skipped", reason);
        }
        tasfar_obs::metrics::histogram(stage.histogram_name()).record(wall.as_nanos() as u64);
        self.stages.push(StageTrace {
            stage,
            wall,
            samples_in,
            samples_out,
            skipped,
        });
        // `span` drops here, emitting the stage record when tracing is on.
    }

    /// Records a failing stage (zero samples out, the error's label as the
    /// abort reason) and returns the typed error for propagation.
    fn fail(
        &mut self,
        stage: Stage,
        span: tasfar_obs::SpanGuard,
        samples_in: usize,
        kind: ErrorKind,
    ) -> AdaptError {
        let err = AdaptError::at(stage, kind);
        self.record(stage, span, samples_in, 0, Some(err.label()));
        err
    }
}

/// Count of non-finite entries in a tensor (stage input validation).
fn non_finite(t: &Tensor) -> usize {
    t.as_slice().iter().filter(|v| !v.is_finite()).count()
}

/// What [`estimate_density_stage`] hands to [`pseudo_label_stage`]: the
/// estimated label-density map(s) plus the per-sample inputs the generator
/// needs for the uncertain set.
#[derive(Debug, Clone)]
pub struct DensityArtifacts {
    /// The estimated label-density map(s).
    pub maps: BuiltMaps,
    /// Point predictions of the uncertain samples, `(n_unc, d)`, aligned
    /// with `split.uncertain`.
    pub unc_pred: Tensor,
    /// Calibrated spreads σ = Q_s(u) of the uncertain samples, `(n_unc, d)`.
    pub unc_sigma: Tensor,
    /// The confidence threshold in effect for this batch (after any
    /// scenario rescaling) — the posterior-interpolation anchor.
    pub tau: f64,
}

/// **Stage 1 — Predict**: MC-dropout point predictions and uncertainty on
/// the batch.
///
/// # Errors
/// [`ErrorKind::NonFiniteInput`] when the target batch — or the model's MC
/// output — carries NaN/±∞ values. The input check runs *before* any
/// forward pass, so a poisoned batch never reaches the model.
pub fn predict_stage<M: StochasticRegressor + ?Sized>(
    model: &mut M,
    x: &Tensor,
    cfg: &TasfarConfig,
    trace: &mut PipelineTrace,
) -> Result<McPrediction, AdaptError> {
    let span = tasfar_obs::timed_span(Stage::Predict.span_name());
    let corrupted =
        faultinject::consume(Fault::NanBatch).map(|seed| faultinject::nan_corrupted(x, seed));
    let x = corrupted.as_ref().unwrap_or(x);
    let bad = non_finite(x);
    if bad > 0 {
        return Err(trace.fail(
            Stage::Predict,
            span,
            x.rows(),
            ErrorKind::NonFiniteInput {
                what: "target batch",
                bad,
            },
        ));
    }
    let mc = McDropout::new(cfg.mc_samples)
        .relative(cfg.relative_uncertainty)
        .predict(model, x);
    let bad = non_finite(&mc.point)
        + non_finite(&mc.std)
        + mc.uncertainty.iter().filter(|u| !u.is_finite()).count();
    if bad > 0 {
        return Err(trace.fail(
            Stage::Predict,
            span,
            x.rows(),
            ErrorKind::NonFiniteInput {
                what: "MC-dropout prediction",
                bad,
            },
        ));
    }
    trace.record(Stage::Predict, span, x.rows(), mc.point.rows(), None);
    Ok(mc)
}

/// **Stage 2 — Split**: partitions the batch into confident/uncertain at the
/// (possibly scenario-rescaled) threshold τ. Returns the classifier actually
/// used, so downstream stages see the effective τ.
///
/// # Errors
/// [`ErrorKind::DegenerateBandwidth`] when the effective threshold τ is
/// non-finite or non-positive (nothing meaningful can be split). Degenerate
/// *partitions* — nothing confident, nothing uncertain — are classified by
/// [`estimate_density_stage`], which knows the configured minimum.
pub fn split_stage(
    calib: &SourceCalibration,
    cfg: &TasfarConfig,
    mc: &McPrediction,
    trace: &mut PipelineTrace,
) -> Result<(ConfidenceClassifier, ConfidenceSplit), AdaptError> {
    let span = tasfar_obs::timed_span(Stage::Split.span_name());
    let classifier = scenario_classifier(calib, cfg, &mc.uncertainty);
    if !classifier.tau.is_finite() || classifier.tau < 0.0 {
        let tau = classifier.tau;
        return Err(trace.fail(
            Stage::Split,
            span,
            mc.uncertainty.len(),
            ErrorKind::DegenerateBandwidth { value: tau },
        ));
    }
    let mut split = classifier.split(&mc.uncertainty);
    if faultinject::consume(Fault::EmptyConfidentSplit).is_some() {
        // Simulate a batch where nothing clears τ: everything formerly
        // confident becomes uncertain (the partition invariant holds).
        split.uncertain.append(&mut split.confident);
        split.uncertain.sort_unstable();
    }
    trace.record(
        Stage::Split,
        span,
        mc.uncertainty.len(),
        split.uncertain.len(),
        None,
    );
    Ok((classifier, split))
}

/// Builds the grid for one label dimension around the confident predictions,
/// padded so the instance distributions fit on-grid.
fn dim_grid(
    preds: impl Iterator<Item = f64> + Clone,
    sigmas: impl Iterator<Item = f64>,
    cell: f64,
) -> GridSpec {
    let max_sigma = sigmas.fold(0.0_f64, f64::max);
    let lo = preds.clone().fold(f64::INFINITY, f64::min) - 4.0 * max_sigma;
    let hi = preds.fold(f64::NEG_INFINITY, f64::max) + 4.0 * max_sigma;
    GridSpec::from_range(lo, (hi).max(lo + cell), cell)
}

/// Per-dimension calibrated spreads for the given sample indices.
fn sigmas_for(mc: &McPrediction, calib: &SourceCalibration, indices: &[usize]) -> Tensor {
    let dims = mc.point.cols();
    let mut out = Tensor::zeros(indices.len(), dims);
    for (row, &i) in indices.iter().enumerate() {
        for d in 0..dims {
            out.set(row, d, calib.qs[d].sigma(mc.std.get(i, d)));
        }
    }
    out
}

/// **Stage 3 — EstimateDensity**: estimates the scenario's label density
/// map(s) from the confident predictions (Algorithm 2) and prepares the
/// uncertain samples' generator inputs.
///
/// # Errors
/// * [`ErrorKind::NoConfidentSamples`] — fewer confident samples than
///   `cfg.min_confident` (no prior can be estimated).
/// * [`ErrorKind::NoUncertainSamples`] — nothing needs pseudo-labels.
/// * [`ErrorKind::DegenerateBandwidth`] — the grid cell width or a
///   calibrated spread σ is non-finite/non-positive, so no grid can be
///   built.
/// * [`ErrorKind::ZeroDensityMass`] — the estimated map carries no
///   probability mass (a flat, uninformative prior; the paper's Fig. 22
///   failure signature taken to its limit).
pub fn estimate_density_stage(
    mc: &McPrediction,
    calib: &SourceCalibration,
    classifier: &ConfidenceClassifier,
    split: &ConfidenceSplit,
    cfg: &TasfarConfig,
    trace: &mut PipelineTrace,
) -> Result<DensityArtifacts, AdaptError> {
    let span = tasfar_obs::timed_span(Stage::EstimateDensity.span_name());
    let required = cfg.min_confident.max(1);
    if split.confident.len() < required {
        let found = split.confident.len();
        return Err(trace.fail(
            Stage::EstimateDensity,
            span,
            found,
            ErrorKind::NoConfidentSamples { found, required },
        ));
    }
    if split.uncertain.is_empty() {
        return Err(trace.fail(
            Stage::EstimateDensity,
            span,
            split.confident.len(),
            ErrorKind::NoUncertainSamples,
        ));
    }
    if !cfg.grid_cell.is_finite() || cfg.grid_cell <= 0.0 {
        return Err(trace.fail(
            Stage::EstimateDensity,
            span,
            split.confident.len(),
            ErrorKind::DegenerateBandwidth {
                value: cfg.grid_cell,
            },
        ));
    }

    let dims = mc.point.cols();
    let conf_sigma = sigmas_for(mc, calib, &split.confident);
    let conf_pred = mc.point.select_rows(&split.confident);
    let unc_sigma = sigmas_for(mc, calib, &split.uncertain);
    let unc_pred = mc.point.select_rows(&split.uncertain);

    // A non-finite spread would blow the grid bounds up to ±∞ (and the bin
    // count with them); a non-positive one degenerates the instance
    // distribution. Catch both before any grid is allocated.
    if let Some(&bad) = conf_sigma
        .as_slice()
        .iter()
        .chain(unc_sigma.as_slice())
        .find(|s| !s.is_finite() || **s <= 0.0)
    {
        return Err(trace.fail(
            Stage::EstimateDensity,
            span,
            split.confident.len(),
            ErrorKind::DegenerateBandwidth { value: bad },
        ));
    }

    let joint = cfg.joint_2d && dims == 2;
    let mut maps = if joint {
        let xgrid = dim_grid(conf_pred.col_iter(0), conf_sigma.col_iter(0), cfg.grid_cell);
        let ygrid = dim_grid(conf_pred.col_iter(1), conf_sigma.col_iter(1), cfg.grid_cell);
        BuiltMaps::Joint2d(DensityMap2d::estimate(
            &conf_pred,
            &conf_sigma,
            xgrid,
            ygrid,
            cfg.error_model,
        ))
    } else {
        // Independent per-dimension maps; a one-dimensional task reduces to
        // Eq. 21 exactly.
        BuiltMaps::PerDim(
            (0..dims)
                .map(|d| {
                    let preds_d = conf_pred.col(d);
                    let sigmas_d = conf_sigma.col(d);
                    let grid =
                        dim_grid(conf_pred.col_iter(d), conf_sigma.col_iter(d), cfg.grid_cell);
                    DensityMap1d::estimate(&preds_d, &sigmas_d, grid, cfg.error_model)
                })
                .collect(),
        )
    };
    if faultinject::consume(Fault::ZeroDensityMass).is_some() {
        match &mut maps {
            BuiltMaps::Joint2d(m) => m.chaos_clear_mass(),
            BuiltMaps::PerDim(ms) => ms.iter_mut().for_each(DensityMap1d::chaos_clear_mass),
        }
    }
    // A massless map (or any massless dimension) yields all-fallback
    // pseudo-labels downstream; classify it here, where it originates.
    let min_mass = match &maps {
        BuiltMaps::Joint2d(m) => m.total_mass(),
        BuiltMaps::PerDim(ms) => ms
            .iter()
            .map(DensityMap1d::total_mass)
            .fold(f64::INFINITY, f64::min),
    };
    if min_mass.is_nan() || min_mass <= 0.0 {
        return Err(trace.fail(
            Stage::EstimateDensity,
            span,
            split.confident.len(),
            ErrorKind::ZeroDensityMass,
        ));
    }
    trace.record(
        Stage::EstimateDensity,
        span,
        split.confident.len(),
        split.confident.len(),
        None,
    );
    Ok(DensityArtifacts {
        maps,
        unc_pred,
        unc_sigma,
        tau: classifier.tau,
    })
}

/// **Stage 4 — PseudoLabel**: posterior-interpolates a pseudo-label for
/// every uncertain sample (Algorithm 3), in `split.uncertain` order.
///
/// The per-sample expectation over grid cells is independent across samples,
/// so both map variants run it through the parallel runtime in fixed-size
/// chunks and splice the per-chunk vectors back together in chunk order —
/// bit-identical for any thread count. Chunk geometry depends only on the
/// uncertain-set size.
///
/// # Errors
/// [`ErrorKind::NonFiniteInput`] when any generated pseudo-label value or
/// credibility is non-finite — corrupt labels must never reach the
/// fine-tune.
pub fn pseudo_label_stage(
    mc: &McPrediction,
    split: &ConfidenceSplit,
    density: &DensityArtifacts,
    cfg: &TasfarConfig,
    trace: &mut PipelineTrace,
) -> Result<Vec<PseudoLabel>, AdaptError> {
    let span = tasfar_obs::timed_span(Stage::PseudoLabel.span_name());
    let uncertain = &split.uncertain;
    let uncertainty = &mc.uncertainty;
    let unc_pred = &density.unc_pred;
    let unc_sigma = &density.unc_sigma;
    let tau = density.tau;
    let n_unc = uncertain.len();
    let n_chunks = chunk_count(n_unc, PSEUDO_SAMPLES_PER_CHUNK);

    let mut pseudo = Vec::with_capacity(n_unc);
    match &density.maps {
        BuiltMaps::Joint2d(map) => {
            let generator = PseudoLabelGenerator2d::new(map, tau, cfg.error_model);
            let chunks = map_chunks(n_chunks, |c| {
                chunk_bounds(n_unc, PSEUDO_SAMPLES_PER_CHUNK, c)
                    .map(|row| {
                        let i = uncertain[row];
                        generator.generate(
                            [unc_pred.get(row, 0), unc_pred.get(row, 1)],
                            [unc_sigma.get(row, 0), unc_sigma.get(row, 1)],
                            uncertainty[i].max(1e-12),
                        )
                    })
                    .collect::<Vec<_>>()
            });
            pseudo.extend(chunks.into_iter().flatten());
        }
        BuiltMaps::PerDim(maps) => {
            // Credibilities multiply geometric-mean style across dimensions.
            let dims = unc_pred.cols();
            let chunks = map_chunks(n_chunks, |c| {
                chunk_bounds(n_unc, PSEUDO_SAMPLES_PER_CHUNK, c)
                    .map(|row| {
                        let i = uncertain[row];
                        let mut value = Vec::with_capacity(dims);
                        let mut cred_product = 1.0;
                        let mut informative = true;
                        let mut ratio = 0.0;
                        for (d, map) in maps.iter().enumerate() {
                            let generator = PseudoLabelGenerator1d::new(map, tau, cfg.error_model);
                            let p = generator.generate(
                                unc_pred.get(row, d),
                                unc_sigma.get(row, d),
                                uncertainty[i].max(1e-12),
                            );
                            value.push(p.value[0]);
                            cred_product *= p.credibility;
                            informative &= p.informative;
                            ratio += p.local_density_ratio / dims as f64;
                        }
                        PseudoLabel {
                            value,
                            credibility: if informative {
                                cred_product.powf(1.0 / dims as f64)
                            } else {
                                0.0
                            },
                            local_density_ratio: ratio,
                            informative,
                        }
                    })
                    .collect::<Vec<_>>()
            });
            pseudo.extend(chunks.into_iter().flatten());
        }
    }
    let bad = pseudo
        .iter()
        .flat_map(|p| p.value.iter())
        .filter(|v| !v.is_finite())
        .count()
        + pseudo.iter().filter(|p| !p.credibility.is_finite()).count();
    if bad > 0 {
        return Err(trace.fail(
            Stage::PseudoLabel,
            span,
            n_unc,
            ErrorKind::NonFiniteInput {
                what: "pseudo-labels",
                bad,
            },
        ));
    }
    let informative = pseudo.iter().filter(|p| p.informative).count();
    trace.record(Stage::PseudoLabel, span, n_unc, informative, None);
    Ok(pseudo)
}

/// **Stage 5 — FineTune**: assembles the credibility-weighted training set
/// (pseudo-labelled uncertain rows, plus self-labelled confident replay when
/// `cfg.replay_confident`) and fine-tunes the model via
/// [`TrainableRegressor::fit_weighted`] (Eq. 22). The fine-tune runs under
/// a [`DivergenceGuard`], so a loss blowing past 8× its epoch-0 baseline
/// aborts with a typed error instead of silently wrecking the weights.
///
/// # Errors
/// * [`ErrorKind::ZeroCredibility`] — every training weight is zero; the
///   model is left untouched.
/// * [`ErrorKind::Train`] — the fine-tune itself failed (non-finite loss,
///   divergence, shape mismatch). The model may hold partially fine-tuned
///   weights; [`crate::guard::adapt_guarded`] rolls back to the snapshot.
#[allow(clippy::too_many_arguments)]
pub fn finetune_stage<M: TrainableRegressor + ?Sized>(
    model: &mut M,
    target_x: &Tensor,
    mc: &McPrediction,
    split: &ConfidenceSplit,
    pseudo: &[PseudoLabel],
    loss: &dyn Loss,
    cfg: &TasfarConfig,
    trace: &mut PipelineTrace,
) -> Result<FitReport, AdaptError> {
    let span = tasfar_obs::timed_span(Stage::FineTune.span_name());
    let dims = mc.point.cols();
    let n_unc = split.uncertain.len();
    let n_conf = if cfg.replay_confident {
        split.confident.len()
    } else {
        0
    };
    let mut train_x_rows = Vec::with_capacity(n_unc + n_conf);
    let mut train_y = Tensor::zeros(n_unc + n_conf, dims);
    let mut weights = Vec::with_capacity(n_unc + n_conf);

    for (row, &i) in split.uncertain.iter().enumerate() {
        train_x_rows.push(i);
        for d in 0..dims {
            train_y.set(row, d, pseudo[row].value[d]);
        }
        weights.push(if cfg.use_credibility {
            pseudo[row].credibility
        } else if pseudo[row].informative {
            1.0
        } else {
            0.0
        });
    }
    if cfg.replay_confident {
        for (row, &i) in split.confident.iter().enumerate() {
            train_x_rows.push(i);
            for d in 0..dims {
                train_y.set(n_unc + row, d, mc.point.get(i, d));
            }
            weights.push(1.0);
        }
    }

    if weights.iter().sum::<f64>() <= 0.0 {
        return Err(trace.fail(
            Stage::FineTune,
            span,
            n_unc + n_conf,
            ErrorKind::ZeroCredibility { labels: n_unc },
        ));
    }

    let exploding;
    let loss: &dyn Loss = if faultinject::consume(Fault::LossExplosion).is_some() {
        exploding = faultinject::ExplodingLoss::new();
        &exploding
    } else {
        loss
    };

    let train_x = target_x.select_rows(&train_x_rows);
    let mut optimizer = Adam::new(cfg.learning_rate);
    let report = model.fit_weighted(
        &mut optimizer,
        loss,
        &train_x,
        &train_y,
        Some(&weights),
        &TrainConfig {
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            seed: cfg.seed,
            shuffle: true,
            early_stop: cfg.early_stop.clone(),
            mode: if cfg.finetune_dropout {
                tasfar_nn::layers::Mode::Train
            } else {
                tasfar_nn::layers::Mode::Eval
            },
            // `train_observer()` is Some only when tracing is enabled, so
            // the untraced fine-tune loop stays free of clock reads.
            observer: tasfar_obs::train_observer(),
            divergence: Some(DivergenceGuard::default()),
            ..TrainConfig::default()
        },
    );
    match report {
        Ok(report) => {
            trace.record(Stage::FineTune, span, n_unc + n_conf, n_unc + n_conf, None);
            Ok(report)
        }
        Err(e) => Err(trace.fail(Stage::FineTune, span, n_unc + n_conf, ErrorKind::Train(e))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable() {
        let all = [
            Stage::Predict,
            Stage::Split,
            Stage::EstimateDensity,
            Stage::PseudoLabel,
            Stage::FineTune,
        ];
        let names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "predict",
                "split",
                "estimate_density",
                "pseudo_label",
                "fine_tune"
            ]
        );
        assert_eq!(Stage::PseudoLabel.to_string(), "pseudo_label");
    }

    #[test]
    fn trace_lookup_and_totals() {
        let mut trace = PipelineTrace::default();
        let span = |stage: Stage| tasfar_obs::timed_span(stage.span_name());
        trace.record(Stage::Predict, span(Stage::Predict), 10, 10, None);
        trace.record(Stage::Split, span(Stage::Split), 10, 4, None);
        trace.record(
            Stage::EstimateDensity,
            span(Stage::EstimateDensity),
            6,
            0,
            Some("boom"),
        );
        assert_eq!(trace.stages.len(), 3);
        assert_eq!(trace.stage(Stage::Split).unwrap().samples_out, 4);
        assert!(trace.stage(Stage::FineTune).is_none());
        assert_eq!(trace.skip_reason(), Some("boom"));
        assert_eq!(
            trace.total_wall(),
            trace.stages.iter().map(|t| t.wall).sum()
        );
    }

    #[test]
    fn empty_trace_has_no_skip() {
        let trace = PipelineTrace::default();
        assert_eq!(trace.skip_reason(), None);
        assert_eq!(trace.total_wall(), Duration::ZERO);
    }
}
