//! # tasfar-core — Target-Agnostic Source-Free domain adaptation for regression
//!
//! A from-scratch Rust implementation of **TASFAR** (He, Xia, Chen, Li,
//! Chan — *Target-agnostic Source-free Domain Adaptation for Regression
//! Tasks*, ICDE 2024). TASFAR adapts a pre-trained regression model to an
//! unlabeled target domain **without source data and without any prior
//! knowledge of the domain gap**, by exploiting one observation: target
//! labels originate from the same scenario as target inputs, so their
//! distribution is itself a learnable prior.
//!
//! The pipeline (paper Fig. 1):
//!
//! 1. [`uncertainty`] — MC-dropout predictions + uncertainty `u` per sample.
//! 2. [`confidence`] — Algorithm 1: split target data at the threshold τ
//!    calibrated on source data (the η-quantile of source uncertainties).
//! 3. [`calibration`] — the source-side fit `σ = Q_s(u)` mapping uncertainty
//!    to an error spread (Eq. 6–9), with pluggable distribution families.
//! 4. [`density`] — Algorithm 2: accumulate the confident samples'
//!    instance-label distributions into a label density map (Eq. 10–12).
//! 5. [`pseudo`] — Algorithm 3: posterior-interpolated pseudo-labels with
//!    credibility weights β (Eq. 13–21).
//! 6. [`adapt`] — Eq. 22: credibility-weighted fine-tuning with confident
//!    replay and early stopping; the two-phase API
//!    ([`adapt::calibrate_on_source`] / [`adapt::adapt`]) mirrors the
//!    deployment story.
//!
//! [`adapt::adapt`] is a thin wrapper over the staged [`pipeline`]
//! (`Predict → Split → EstimateDensity → PseudoLabel → FineTune`), each
//! stage recording a [`pipeline::StageTrace`]. The whole crate is generic
//! over the `tasfar_nn::model` traits — the regressor is a black box with
//! deterministic/stochastic forward passes and weighted fine-tuning, not
//! necessarily a `Sequential` network.
//!
//! [`metrics`] provides the paper's evaluation measures (STE, RTE, MSE,
//! MAE, RMSLE, Pearson correlation).
//!
//! ## Quick example
//!
//! ```no_run
//! use tasfar_core::prelude::*;
//! use tasfar_nn::prelude::*;
//! use tasfar_data::Dataset;
//!
//! # fn get_model() -> Sequential { unimplemented!() }
//! # fn get_source() -> Dataset { unimplemented!() }
//! # fn get_target_inputs() -> Tensor { unimplemented!() }
//! let mut model = get_model();          // trained with dropout layers
//! let source: Dataset = get_source();   // still on the source side
//! let cfg = TasfarConfig::default();
//!
//! // Phase 1 (source side): calibrate τ and Q_s, then ship the model.
//! let calib = calibrate_on_source(&mut model, &source, &cfg)
//!     .expect("source calibration failed");
//!
//! // Phase 2 (target side): adapt with *unlabeled* target data only, under
//! // the do-no-harm guard — failures roll the model back to its source
//! // weights instead of shipping a broken adaptation.
//! let target_x: Tensor = get_target_inputs();
//! let outcome = adapt_guarded(
//!     &mut model, &calib, &target_x, &Mse, &cfg, &RecoveryPolicy::default(),
//! );
//! match outcome.adaptation() {
//!     Some(a) => println!(
//!         "{} (retries {}): uncertain share {:.1}%",
//!         outcome.label(),
//!         outcome.retries(),
//!         100.0 * a.split.uncertain_ratio(),
//!     ),
//!     None => println!("fell back to the source model"),
//! }
//! ```
//!
//! Fault tolerance: every fallible step returns a typed [`error::AdaptError`]
//! (stage, cause, recoverability) instead of panicking; [`guard`] adds
//! bounded retries and source-checkpoint rollback; [`faultinject`] provides
//! the deterministic chaos hooks the robustness suite drives.
//!
//! ## Adapt entry points
//!
//! Every adaptation runs the one staged pipeline. [`adapt::adapt`] is its
//! unguarded body; everything else goes through the do-no-harm guard:
//! [`guard::adapt_guarded`] for one model,
//! [`session::TenantSession::adapt_delta`] for one low-rank delta per
//! tenant over a shared frozen source, and the [`stream`] engine's
//! re-adapt on drift. The paper's Sec. VI extensions add no entry point of
//! their own: the classification plugin ([`classification`]) is the
//! [`classification::SoftCrossEntropy`] loss handed to `adapt_guarded`, and
//! partitioned adaptation ([`partition`]) is a caller-side loop of
//! `adapt_delta`, one group per tenant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod calibration;
pub mod classification;
pub mod confidence;
pub mod density;
pub mod diagnostics;
pub mod drift;
pub mod error;
pub mod faultinject;
pub mod guard;
pub mod metrics;
pub mod partition;
pub mod pipeline;
pub mod pseudo;
pub mod session;
mod stats;
pub mod stream;
pub mod uncertainty;

/// One-stop imports for running TASFAR.
pub mod prelude {
    pub use crate::adapt::{
        adapt, calibrate_on_source, AdaptationOutcome, BuiltMaps, SourceCalibration, TasfarConfig,
    };
    pub use crate::calibration::{ErrorModel, QsCalibration};
    pub use crate::classification::{softmax_rows, SoftCrossEntropy};
    pub use crate::confidence::{ConfidenceClassifier, ConfidenceSplit};
    pub use crate::density::{DensityMap1d, DensityMap2d, GridSpec};
    pub use crate::diagnostics::AdaptationDiagnostics;
    pub use crate::drift::{DriftConfig, DriftDetector, DriftObservation};
    pub use crate::error::{AdaptError, ErrorKind};
    pub use crate::guard::{adapt_guarded, GuardedOutcome, RecoveryPolicy};
    pub use crate::metrics;
    pub use crate::partition::group_by_key;
    pub use crate::pipeline::{PipelineTrace, Stage, StageTrace};
    pub use crate::pseudo::{PseudoLabel, PseudoLabelGenerator1d, PseudoLabelGenerator2d};
    pub use crate::session::TenantSession;
    pub use crate::stream::{
        IncrementalKde, ReplayStream, StreamAdapter, StreamConfig, StreamOutcome, StreamPhase,
        StreamReport, StreamSource, StreamTick,
    };
    pub use crate::uncertainty::{Ensemble, McDropout, McPrediction};
}
