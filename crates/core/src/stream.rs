//! Streaming online adaptation: sliding window, incremental density, and
//! guarded re-adaptation.
//!
//! The batch API ([`crate::adapt::adapt`]) assumes the target scenario is a
//! static set. Real deployments (PDR traces, virtual sensors) see target
//! samples as an unbounded *stream* whose distribution moves. This module
//! turns adaptation into a long-running, fault-tolerant process:
//!
//! * **[`StreamSource`]** — where samples come from: a push API
//!   ([`StreamAdapter::push`]) plus replayable synthetic feeds
//!   ([`ReplayStream`]).
//! * **Sliding window** — every ingested sample is MC-predicted once
//!   (fused dropout passes), classified against τ, and cached; the oldest
//!   samples are evicted as the window slides.
//! * **[`IncrementalKde`]** — the label-density map over the window updates
//!   by *incremental bin add/evict*, no full recompute. Contributions are
//!   quantised to integer ticks, whose addition is exact and
//!   order-independent, so the incremental state is **bit-identical** to a
//!   from-scratch rebuild of the same window (property-tested in
//!   `tests/stream_window.rs`).
//! * **Micro-batch fine-tuning** — pseudo-labelling and fine-tuning run in
//!   micro-batches *through the existing typed pipeline stages*
//!   ([`crate::pipeline::pseudo_label_stage`],
//!   [`crate::pipeline::finetune_stage`]), so streaming runs carry the same
//!   stage spans, histograms, and typed errors as batch runs.
//! * **Drift → guarded re-adaptation** — a [`DriftDetector`] watches
//!   uncertainty and density-mass-shift statistics; on trip the engine
//!   re-adapts over the whole window through [`adapt_guarded`]'s
//!   snapshot/rollback path, and if even that fails it **degrades to the
//!   last good checkpoint** (a few-KB delta when the adapter subspace is
//!   on) rather than shipping a wrecked model.
//!
//! Mid-stream chaos ([`crate::faultinject`]): NaN bursts are rejected at
//! ingest, window starvation produces typed
//! [`ErrorKind::WindowUnderflow`] errors, detector flaps are absorbed by
//! the cooldown, and re-adaptation loss explosions exhaust the retry budget
//! and fall back to the last good state — never a panic, never silent
//! corruption.

use std::collections::VecDeque;

use crate::adapt::{BuiltMaps, SourceCalibration, TasfarConfig};
use crate::calibration::ErrorModel;
use crate::confidence::ConfidenceSplit;
use crate::density::{DensityMap1d, GridSpec};
use crate::drift::{DriftConfig, DriftDetector, DriftObservation};
use crate::error::{AdaptError, ErrorKind};
use crate::faultinject::{self, Fault};
use crate::guard::{adapt_guarded, GuardedOutcome, RecoveryPolicy};
use crate::pipeline::{finetune_stage, pseudo_label_stage, DensityArtifacts, PipelineTrace};
use crate::uncertainty::{McDropout, McPrediction};
use tasfar_nn::loss::Loss;
use tasfar_nn::model::{CheckpointRegressor, StochasticRegressor, TrainableRegressor};
use tasfar_nn::tensor::Tensor;
use tasfar_nn::window::RollingStats;

// ---------------------------------------------------------------------------
// Stream sources
// ---------------------------------------------------------------------------

/// A source of target-sample chunks for [`StreamAdapter::run`].
pub trait StreamSource {
    /// The next chunk of target rows, or `None` when the stream is
    /// exhausted. Chunks may vary in row count but must share the feature
    /// width.
    fn next_chunk(&mut self) -> Option<Tensor>;
}

/// A replayable synthetic feed: serves a fixed tensor in fixed-size chunks.
#[derive(Debug, Clone)]
pub struct ReplayStream {
    data: Tensor,
    chunk: usize,
    pos: usize,
}

impl ReplayStream {
    /// Wraps `data`, serving `chunk` rows per [`StreamSource::next_chunk`]
    /// call (a zero chunk size is bumped to one).
    pub fn new(data: Tensor, chunk: usize) -> ReplayStream {
        ReplayStream {
            data,
            chunk: chunk.max(1),
            pos: 0,
        }
    }

    /// Rewinds to the beginning, so the same feed can be replayed.
    pub fn rewind(&mut self) {
        self.pos = 0;
    }

    /// Rows left to serve.
    pub fn remaining(&self) -> usize {
        self.data.rows().saturating_sub(self.pos)
    }
}

impl StreamSource for ReplayStream {
    fn next_chunk(&mut self) -> Option<Tensor> {
        if self.pos >= self.data.rows() {
            return None;
        }
        let hi = (self.pos + self.chunk).min(self.data.rows());
        let chunk = self.data.slice_rows(self.pos, hi);
        self.pos = hi;
        Some(chunk)
    }
}

// ---------------------------------------------------------------------------
// Incremental KDE
// ---------------------------------------------------------------------------

/// Mass quantisation scale: one unit of probability mass is `2^42` ticks.
/// The quantisation error per (sample, bin) is at most half a tick
/// (~1.1e-13 mass) — far below anything the density consumers resolve —
/// and in exchange every bin total is an exact integer.
const MASS_TICKS: f64 = (1u64 << 42) as f64;

/// A label-density estimator over a sliding window with exact incremental
/// add/evict.
///
/// Floating-point accumulation is not reversible: `(a + b) - a` generally
/// differs from `b` in the last bits, so a subtract-on-evict f64 estimator
/// would drift away from a from-scratch rebuild. This estimator quantises
/// each sample's per-bin contribution to integer *ticks* — a pure function
/// of `(μ, σ, bin)` — and accumulates ticks in `u64`. Integer addition is
/// exact, associative, and commutative, so after any sequence of adds and
/// evicts the tick counts (and therefore the [`IncrementalKde::snapshot`]
/// masses, bit for bit) equal those of a fresh estimator fed only the
/// surviving samples.
///
/// The grid is fixed at construction: a sliding window cannot re-derive its
/// grid per update without invalidating previous contributions. Mass beyond
/// the grid is dropped, exactly like the batch estimator's off-grid
/// leakage.
#[derive(Debug, Clone)]
pub struct IncrementalKde {
    spec: GridSpec,
    model: ErrorModel,
    ticks: Vec<u64>,
    samples: usize,
}

impl IncrementalKde {
    /// An empty estimator on a fixed grid.
    pub fn new(spec: GridSpec, model: ErrorModel) -> IncrementalKde {
        IncrementalKde {
            ticks: vec![0; spec.bins],
            spec,
            model,
            samples: 0,
        }
    }

    /// The fixed grid.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Samples currently contributing to the estimate.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Whether any on-grid mass is held.
    pub fn has_mass(&self) -> bool {
        self.ticks.iter().any(|&t| t > 0)
    }

    /// The quantised per-bin contribution of one sample, as `(bin, ticks)`
    /// pairs over the error model's effective support (the same support
    /// window as [`DensityMap1d::estimate`]).
    fn contribution(&self, mu: f64, sigma: f64, mut sink: impl FnMut(usize, u64)) {
        let half = self.model.support_halfwidth_sigmas();
        let spec = &self.spec;
        let lo_cell = spec.index_of(mu - half * sigma).unwrap_or(0);
        let hi_cell = if mu + half * sigma >= spec.origin + spec.span() {
            spec.bins
        } else {
            spec.index_of(mu + half * sigma)
                .map(|i| (i + 1).min(spec.bins))
                .unwrap_or(0)
        };
        for i in lo_cell..hi_cell {
            let (a, b) = spec.edges(i);
            let t = (self.model.interval_mass(a, b, mu, sigma) * MASS_TICKS).round() as u64;
            sink(i, t);
        }
    }

    /// Whether a sample is usable: the instance distribution needs a
    /// finite centre and a positive finite spread.
    fn usable(mu: f64, sigma: f64) -> bool {
        mu.is_finite() && sigma.is_finite() && sigma > 0.0
    }

    /// Adds one sample's instance-label distribution `N(μ, σ²)` to the
    /// estimate. Samples with a non-finite `μ` or non-positive/non-finite
    /// `σ` are skipped entirely (not counted) — the matching
    /// [`IncrementalKde::evict`] skips them symmetrically.
    pub fn add(&mut self, mu: f64, sigma: f64) {
        if !Self::usable(mu, sigma) {
            return;
        }
        let mut staged: Vec<(usize, u64)> = Vec::new();
        self.contribution(mu, sigma, |i, t| staged.push((i, t)));
        for (i, t) in staged {
            self.ticks[i] += t;
        }
        self.samples += 1;
    }

    /// Removes a previously added sample. Must only be called with a
    /// `(μ, σ)` pair that was added and not yet evicted — the contribution
    /// is recomputed, and because quantised ticks are a pure function of
    /// `(μ, σ, bin)`, the subtraction removes *exactly* what the add put
    /// in. Evicting a never-added sample is a caller bug; the subtraction
    /// saturates at zero rather than panicking.
    pub fn evict(&mut self, mu: f64, sigma: f64) {
        if !Self::usable(mu, sigma) {
            return;
        }
        let mut staged: Vec<(usize, u64)> = Vec::new();
        self.contribution(mu, sigma, |i, t| staged.push((i, t)));
        for (i, t) in staged {
            self.ticks[i] = self.ticks[i].saturating_sub(t);
        }
        self.samples = self.samples.saturating_sub(1);
    }

    /// Materialises the current estimate as a [`DensityMap1d`], normalised
    /// by the contributing sample count (the Eq. 12 normalisation). The
    /// masses are a pure function of the tick counts, so two estimators
    /// with equal ticks and sample counts snapshot bit-identically. An
    /// empty estimator snapshots to an all-zero map.
    pub fn snapshot(&self) -> DensityMap1d {
        let inv = if self.samples == 0 {
            0.0
        } else {
            1.0 / self.samples as f64
        };
        let mass: Vec<f64> = self
            .ticks
            .iter()
            .map(|&t| (t as f64 / MASS_TICKS) * inv)
            .collect();
        DensityMap1d::from_masses(self.spec.clone(), mass)
    }

    /// The on-grid mass normalised to sum 1 (shape only, for
    /// distribution-shift comparison). Empty when no mass is held.
    pub fn normalized_masses(&self) -> Vec<f64> {
        let total: u64 = self.ticks.iter().sum();
        if total == 0 {
            return Vec::new();
        }
        let inv = 1.0 / total as f64;
        self.ticks.iter().map(|&t| t as f64 * inv).collect()
    }
}

// ---------------------------------------------------------------------------
// Engine configuration & reporting
// ---------------------------------------------------------------------------

/// Sliding-window and micro-batch geometry for [`StreamAdapter`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Sliding-window capacity in samples.
    pub window: usize,
    /// Samples ingested before the grids freeze and the initial guarded
    /// adaptation runs (clamped to the window capacity).
    pub warmup: usize,
    /// Uncertain samples per pseudo-label fine-tune micro-batch.
    pub micro_batch: usize,
    /// Fine-tune epochs per micro-batch (small — micro-batches are frequent).
    pub micro_epochs: usize,
    /// Confident replay rows appended to each micro-batch (the streaming
    /// equivalent of `TasfarConfig::replay_confident`).
    pub replay_confident: usize,
    /// Live sub-window length for drift statistics (clamped to `window`).
    pub live_window: usize,
    /// Drift-detector cadence: one check every this many ingested samples.
    pub check_every: usize,
    /// Frozen-grid span multiplier around the warmup window's predictions.
    /// Headroom lets the incremental density keep tracking moderate drift
    /// without the cluster walking off-grid.
    pub grid_headroom: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 512,
            warmup: 256,
            micro_batch: 32,
            micro_epochs: 8,
            replay_confident: 32,
            live_window: 64,
            check_every: 8,
            grid_headroom: 3.0,
        }
    }
}

/// Terminal outcome of the engine's most recent guarded (re-)adaptation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOutcome {
    /// The guarded adaptation succeeded first try.
    Adapted,
    /// The guarded adaptation succeeded after retries.
    Recovered,
    /// Every attempt failed; the model was restored to the last good
    /// checkpoint (initially the source model).
    DegradedLastGood,
}

impl StreamOutcome {
    /// Stable label for metrics, span fields, and reports.
    pub fn label(self) -> &'static str {
        match self {
            StreamOutcome::Adapted => "adapted",
            StreamOutcome::Recovered => "recovered",
            StreamOutcome::DegradedLastGood => "degraded-to-last-good",
        }
    }
}

/// Where the engine is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPhase {
    /// Still filling the window; no adaptation has run yet.
    Warmup,
    /// Past warmup; carries the most recent (re-)adaptation outcome.
    Steady(StreamOutcome),
}

impl StreamPhase {
    /// Stable label (`warmup`, or the outcome's label).
    pub fn label(self) -> &'static str {
        match self {
            StreamPhase::Warmup => "warmup",
            StreamPhase::Steady(o) => o.label(),
        }
    }
}

/// What one [`StreamAdapter::push`] call did.
#[derive(Debug, Clone, Default)]
pub struct StreamTick {
    /// Rows accepted into the window.
    pub ingested: usize,
    /// Rows rejected at ingest validation (non-finite values, width
    /// mismatch, or unusable calibrated spread).
    pub rejected: usize,
    /// Micro-batch fine-tunes run.
    pub micro_batches: usize,
    /// The typed error of a skipped/failed micro-batch or re-adaptation,
    /// if any (the engine continues either way).
    pub error: Option<AdaptError>,
    /// The detector observation (score decomposition and trip decision),
    /// when a drift check ran.
    pub drift: Option<DriftObservation>,
    /// The outcome of a (re-)adaptation triggered by this push.
    pub readapt: Option<StreamOutcome>,
}

/// Accumulated counters over a [`StreamAdapter`]'s lifetime.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Rows accepted into the window.
    pub ingested: usize,
    /// Rows rejected at ingest validation.
    pub rejected: usize,
    /// Micro-batch fine-tunes completed.
    pub micro_batches: usize,
    /// Micro-batch fine-tunes that failed and were rolled back.
    pub micro_rollbacks: usize,
    /// Drift-detector trips.
    pub trips: usize,
    /// Sample index (ingested count) at each trip.
    pub trip_samples: Vec<usize>,
    /// Guarded (re-)adaptation runs, including the warmup adaptation.
    pub readapts: usize,
    /// Re-adaptations that degraded to the last good checkpoint.
    pub degraded: usize,
    /// Wall time of each (re-)adaptation, milliseconds.
    pub readapt_walls_ms: Vec<f64>,
    /// Outcome of the most recent (re-)adaptation.
    pub last_outcome: Option<StreamOutcome>,
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// One window sample with its cached per-ingest prediction state.
#[derive(Debug, Clone)]
struct WindowEntry {
    x: Vec<f64>,
    pred: Vec<f64>,
    std: Vec<f64>,
    sigma: Vec<f64>,
    uncertainty: f64,
    confident: bool,
    /// Whether every calibrated spread is finite and positive; entries
    /// failing this are quarantined from both the density and the
    /// pseudo-label micro-batches.
    valid_sigma: bool,
}

/// A live-ring entry: just what the live density needs.
#[derive(Debug, Clone)]
struct LiveEntry {
    pred: Vec<f64>,
    sigma: Vec<f64>,
    confident: bool,
}

/// The incremental streaming adaptation engine.
///
/// Owns the model. Ingest samples with [`StreamAdapter::push`] (or drive a
/// [`StreamSource`] with [`StreamAdapter::run`]); query the adapted model
/// any time with [`StreamAdapter::predict`].
pub struct StreamAdapter<M>
where
    M: StochasticRegressor + TrainableRegressor + CheckpointRegressor,
{
    model: M,
    calib: SourceCalibration,
    cfg: TasfarConfig,
    stream_cfg: StreamConfig,
    policy: RecoveryPolicy,
    detector: DriftDetector,

    window: VecDeque<WindowEntry>,
    /// One per label dimension once the grids freeze at warmup.
    kdes: Vec<IncrementalKde>,
    live: VecDeque<LiveEntry>,
    live_kdes: Vec<IncrementalKde>,
    live_unc: RollingStats,

    dims: usize,
    input_width: Option<usize>,
    samples_seen: usize,
    last_check: usize,
    pending_uncertain: usize,
    micro_count: u64,

    last_good: M::Checkpoint,
    phase: StreamPhase,
    report: StreamReport,
}

impl<M> StreamAdapter<M>
where
    M: StochasticRegressor + TrainableRegressor + CheckpointRegressor,
{
    /// Builds an engine around a calibrated model. The model's current
    /// state becomes the first "last good" checkpoint, so even a stream
    /// whose every adaptation fails can only degrade back to the source
    /// model (do-no-harm, extended in time).
    ///
    /// For chaos testing, arm a fault ([`crate::faultinject`]) on the thread
    /// that will call [`StreamAdapter::push`] after building the engine: the
    /// probes run inside `push`, so the fault lands mid-stream, not on
    /// source-side calibration.
    ///
    /// # Errors
    /// [`ErrorKind::WindowUnderflow`] when the window capacity is zero or
    /// smaller than the micro-batch — a window that cannot hold one
    /// micro-batch can never fine-tune.
    pub fn new(
        mut model: M,
        calib: SourceCalibration,
        cfg: TasfarConfig,
        stream_cfg: StreamConfig,
        drift_cfg: DriftConfig,
        policy: RecoveryPolicy,
    ) -> Result<Self, AdaptError> {
        if stream_cfg.window == 0 {
            return Err(AdaptError::new(ErrorKind::WindowUnderflow {
                have: 0,
                need: 1,
            }));
        }
        let micro_batch = stream_cfg.micro_batch.max(1);
        if stream_cfg.window < micro_batch {
            return Err(AdaptError::new(ErrorKind::WindowUnderflow {
                have: stream_cfg.window,
                need: micro_batch,
            }));
        }
        let mut stream_cfg = stream_cfg;
        stream_cfg.micro_batch = micro_batch;
        stream_cfg.warmup = stream_cfg.warmup.clamp(1, stream_cfg.window);
        stream_cfg.live_window = stream_cfg.live_window.clamp(1, stream_cfg.window);
        stream_cfg.check_every = stream_cfg.check_every.max(1);
        let dims = calib.qs.len();
        let last_good = model.checkpoint();
        Ok(StreamAdapter {
            model,
            calib,
            cfg,
            live_unc: RollingStats::new(stream_cfg.live_window),
            stream_cfg,
            policy,
            detector: DriftDetector::new(drift_cfg),
            window: VecDeque::new(),
            kdes: Vec::new(),
            live: VecDeque::new(),
            live_kdes: Vec::new(),
            dims,
            input_width: None,
            samples_seen: 0,
            last_check: 0,
            pending_uncertain: 0,
            micro_count: 0,
            last_good,
            phase: StreamPhase::Warmup,
            report: StreamReport::default(),
        })
    }

    /// The engine's lifecycle phase.
    pub fn phase(&self) -> StreamPhase {
        self.phase
    }

    /// Accumulated counters.
    pub fn report(&self) -> &StreamReport {
        &self.report
    }

    /// Samples currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Samples accepted over the engine's lifetime.
    pub fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    /// Whether the density grids have been frozen (warmup complete).
    pub fn grids_frozen(&self) -> bool {
        !self.kdes.is_empty()
    }

    /// Deterministic (eval-mode) predictions of the current model.
    pub fn predict(&mut self, x: &Tensor) -> Tensor {
        self.model.predict(x)
    }

    /// The adapted model, consuming the engine.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Drives `source` to exhaustion through [`StreamAdapter::push`].
    pub fn run<S: StreamSource + ?Sized>(
        &mut self,
        source: &mut S,
        loss: &dyn Loss,
    ) -> StreamReport {
        while let Some(chunk) = source.next_chunk() {
            self.push(&chunk, loss);
        }
        self.report.clone()
    }

    /// Ingests one chunk of target rows: validates, MC-predicts (fused
    /// dropout passes), classifies, slides the window and both incremental
    /// densities, then runs whatever the new samples triggered — warmup
    /// adaptation, micro-batch fine-tunes, a drift check, guarded
    /// re-adaptation. Never panics on degenerate input; failures surface as
    /// typed errors in the returned tick.
    pub fn push(&mut self, chunk: &Tensor, loss: &dyn Loss) -> StreamTick {
        let mut tick = StreamTick::default();
        if chunk.rows() == 0 {
            return tick;
        }

        // Mid-stream chaos: a sensor dropout burst corrupts the chunk
        // *before* validation — which is the point: ingest validation must
        // reject the burst, not let it poison the window.
        let corrupted = faultinject::consume(Fault::StreamNanBurst)
            .map(|seed| faultinject::nan_burst(chunk, seed));
        let chunk = corrupted.as_ref().unwrap_or(chunk);

        // Mid-stream chaos: an upstream outage drains the buffer.
        if faultinject::consume(Fault::WindowStarvation).is_some() {
            self.starve_window();
        }

        let width = *self.input_width.get_or_insert(chunk.cols());
        if chunk.cols() != width {
            tick.rejected += chunk.rows();
            self.note_rejected(chunk.rows());
            return tick;
        }

        // Validate rows; only finite rows reach the model.
        let valid_rows: Vec<usize> = (0..chunk.rows())
            .filter(|&r| chunk.row(r).iter().all(|v| v.is_finite()))
            .collect();
        let dropped = chunk.rows() - valid_rows.len();
        if dropped > 0 {
            tick.rejected += dropped;
            self.note_rejected(dropped);
        }
        if valid_rows.is_empty() {
            return tick;
        }
        let batch = chunk.select_rows(&valid_rows);
        let mc = McDropout::new(self.cfg.mc_samples)
            .relative(self.cfg.relative_uncertainty)
            .predict(&mut self.model, &batch);

        for r in 0..batch.rows() {
            self.ingest_row(&batch, &mc, r);
            tick.ingested += 1;
        }
        self.report.ingested += tick.ingested;
        tasfar_obs::metrics::counter("stream.ingested").add(tick.ingested as u64);

        // Warmup boundary: freeze the grids and run the initial guarded
        // adaptation over the window.
        if !self.grids_frozen() && self.samples_seen >= self.stream_cfg.warmup {
            self.freeze_grids();
            if self.grids_frozen() {
                match self.readapt(loss, "warmup") {
                    Ok(outcome) => tick.readapt = Some(outcome),
                    Err(err) => tick.error = Some(err),
                }
            }
        }

        // Micro-batch fine-tunes for the uncertain arrivals.
        while self.grids_frozen() && self.pending_uncertain >= self.stream_cfg.micro_batch {
            self.pending_uncertain = 0;
            match self.micro_finetune(loss) {
                Ok(()) => tick.micro_batches += 1,
                Err(err) => {
                    tick.error = Some(err);
                    break;
                }
            }
        }

        // Drift check on the configured cadence.
        if self.detector.has_reference()
            && self.samples_seen / self.stream_cfg.check_every > self.last_check
        {
            self.last_check = self.samples_seen / self.stream_cfg.check_every;
            let obs = if faultinject::consume(Fault::DriftFlap).is_some() {
                self.detector.chaos_trip()
            } else {
                let live_mass: Vec<Vec<f64>> = self
                    .live_kdes
                    .iter()
                    .map(IncrementalKde::normalized_masses)
                    .collect();
                self.detector.observe(self.live_unc.median(), &live_mass)
            };
            tick.drift = Some(obs.clone());
            if obs.tripped {
                self.report.trips += 1;
                self.report.trip_samples.push(self.samples_seen);
                match self.readapt(loss, "drift_trip") {
                    Ok(outcome) => tick.readapt = Some(outcome),
                    Err(err) => tick.error = Some(err),
                }
            }
        }
        tick
    }

    /// Re-adapts over the entire current window through the guarded
    /// snapshot/rollback path, degrading to the last good checkpoint when
    /// every attempt fails. Public so deployments can force a re-adaptation
    /// (e.g. on an external schedule); the drift detector calls it on trip.
    ///
    /// # Errors
    /// [`ErrorKind::WindowUnderflow`] when the window is empty — there is
    /// nothing to adapt on (all samples evicted or none ingested yet).
    pub fn readapt(
        &mut self,
        loss: &dyn Loss,
        reason: &'static str,
    ) -> Result<StreamOutcome, AdaptError> {
        tasfar_obs::metrics::counter("drift.readapt").incr();
        let mut span = tasfar_obs::timed_span("readapt");
        span.field("reason", reason);
        span.field("window", self.window.len());
        if self.window.is_empty() {
            let err = AdaptError::new(ErrorKind::WindowUnderflow { have: 0, need: 1 });
            span.field("error", err.label());
            return Err(err);
        }

        let rows: Vec<Vec<f64>> = self.window.iter().map(|e| e.x.clone()).collect();
        let target_x = Tensor::from_rows(&rows);

        // Mid-stream chaos: the re-adaptation fine-tune explodes on *every*
        // retry (unlike the one-shot batch LossExplosion), forcing the
        // retry budget to exhaust and the degrade path to run.
        let exploding;
        let loss: &dyn Loss = if faultinject::consume(Fault::ReadaptLossExplosion).is_some() {
            exploding = faultinject::ExplodingLoss::new();
            &exploding
        } else {
            loss
        };

        let started = std::time::Instant::now();
        let guarded = adapt_guarded(
            &mut self.model,
            &self.calib,
            &target_x,
            loss,
            &self.cfg,
            &self.policy,
        );
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let outcome = match &guarded {
            GuardedOutcome::Adapted(_) => {
                self.last_good = self.model.checkpoint();
                StreamOutcome::Adapted
            }
            GuardedOutcome::Recovered { .. } => {
                self.last_good = self.model.checkpoint();
                StreamOutcome::Recovered
            }
            GuardedOutcome::FellBackToSource { .. } => {
                // The guard already restored the pre-call weights; go one
                // step further and restore the last *good* state — recent
                // micro-batch updates may be exactly what drifted bad.
                self.model.restore(&self.last_good);
                tasfar_obs::metrics::counter("drift.rollbacks").incr();
                self.report.degraded += 1;
                StreamOutcome::DegradedLastGood
            }
        };

        // Re-baseline the window against the (possibly new) model: cached
        // predictions, classifications, densities, and the drift reference
        // all refresh together.
        self.refresh_window();

        span.field("outcome", outcome.label());
        span.field("retries", guarded.retries());
        span.field("wall_ms", wall_ms as u64);
        self.report.readapts += 1;
        self.report.readapt_walls_ms.push(wall_ms);
        self.report.last_outcome = Some(outcome);
        self.phase = StreamPhase::Steady(outcome);
        Ok(outcome)
    }

    // -- internals ---------------------------------------------------------

    fn note_rejected(&mut self, n: usize) {
        self.report.rejected += n;
        tasfar_obs::metrics::counter("stream.rejected").add(n as u64);
    }

    /// Classifies one predicted row into a [`WindowEntry`].
    fn classify(
        &self,
        pred: Vec<f64>,
        std: Vec<f64>,
        uncertainty: f64,
        x: Vec<f64>,
    ) -> WindowEntry {
        let sigma: Vec<f64> = (0..self.dims)
            .map(|d| self.calib.qs[d].sigma(std[d]))
            .collect();
        let valid_sigma = sigma.iter().all(|s| s.is_finite() && *s > 0.0);
        let confident = valid_sigma
            && uncertainty.is_finite()
            && self.calib.classifier.is_confident(uncertainty);
        WindowEntry {
            x,
            pred,
            std,
            sigma,
            uncertainty,
            confident,
            valid_sigma,
        }
    }

    fn ingest_row(&mut self, batch: &Tensor, mc: &McPrediction, r: usize) {
        let entry = self.classify(
            mc.point.row(r).to_vec(),
            mc.std.row(r).to_vec(),
            mc.uncertainty[r],
            batch.row(r).to_vec(),
        );

        // Window slide with incremental density add/evict.
        if self.window.len() == self.stream_cfg.window {
            if let Some(old) = self.window.pop_front() {
                if old.confident {
                    for (d, kde) in self.kdes.iter_mut().enumerate() {
                        kde.evict(old.pred[d], old.sigma[d]);
                    }
                }
            }
        }
        if entry.confident {
            for (d, kde) in self.kdes.iter_mut().enumerate() {
                kde.add(entry.pred[d], entry.sigma[d]);
            }
        } else if entry.valid_sigma {
            self.pending_uncertain += 1;
        }

        // Live sub-window slide.
        if self.live.len() == self.stream_cfg.live_window {
            if let Some(old) = self.live.pop_front() {
                if old.confident {
                    for (d, kde) in self.live_kdes.iter_mut().enumerate() {
                        kde.evict(old.pred[d], old.sigma[d]);
                    }
                }
            }
        }
        if entry.confident {
            for (d, kde) in self.live_kdes.iter_mut().enumerate() {
                kde.add(entry.pred[d], entry.sigma[d]);
            }
        }
        self.live.push_back(LiveEntry {
            pred: entry.pred.clone(),
            sigma: entry.sigma.clone(),
            confident: entry.confident,
        });
        self.live_unc.push(entry.uncertainty);

        self.window.push_back(entry);
        self.samples_seen += 1;
    }

    /// The `Fault::WindowStarvation` payload: the upstream buffer drains.
    fn starve_window(&mut self) {
        self.window.clear();
        self.live.clear();
        self.live_unc.clear();
        self.pending_uncertain = 0;
        for kde in self.kdes.iter_mut().chain(self.live_kdes.iter_mut()) {
            *kde = IncrementalKde::new(kde.spec().clone(), self.cfg.error_model);
        }
    }

    /// Freezes one grid per label dimension around the warmup window's
    /// predictions, widened by `grid_headroom` so moderate drift stays
    /// on-grid. No-op (grids stay unfrozen) when the window is empty or the
    /// cell width is degenerate — the next push retries.
    fn freeze_grids(&mut self) {
        if self.window.is_empty() || !self.cfg.grid_cell.is_finite() || self.cfg.grid_cell <= 0.0 {
            return;
        }
        let cell = self.cfg.grid_cell;
        let headroom = if self.stream_cfg.grid_headroom.is_finite() {
            self.stream_cfg.grid_headroom.max(1.0)
        } else {
            1.0
        };
        let mut kdes = Vec::with_capacity(self.dims);
        for d in 0..self.dims {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for e in &self.window {
                let s = if e.valid_sigma { e.sigma[d] } else { 0.0 };
                lo = lo.min(e.pred[d] - 4.0 * s);
                hi = hi.max(e.pred[d] + 4.0 * s);
            }
            if !lo.is_finite() || !hi.is_finite() {
                return;
            }
            let center = 0.5 * (lo + hi);
            let halfspan = (0.5 * (hi - lo) * headroom).max(cell);
            let spec = GridSpec::from_range(center - halfspan, center + halfspan, cell);
            kdes.push(IncrementalKde::new(spec, self.cfg.error_model));
        }
        self.kdes = kdes;
        self.rebuild_densities();
    }

    /// Rebuilds both incremental densities from the current window/live
    /// entries on the frozen grids (used after freeze and refresh; steady
    /// ingest uses the incremental add/evict path).
    fn rebuild_densities(&mut self) {
        for kde in self.kdes.iter_mut().chain(self.live_kdes.iter_mut()) {
            *kde = IncrementalKde::new(kde.spec().clone(), self.cfg.error_model);
        }
        if self.live_kdes.is_empty() && !self.kdes.is_empty() {
            self.live_kdes = self
                .kdes
                .iter()
                .map(|k| IncrementalKde::new(k.spec().clone(), self.cfg.error_model))
                .collect();
        }
        for e in self.window.iter().filter(|e| e.confident) {
            for (d, kde) in self.kdes.iter_mut().enumerate() {
                kde.add(e.pred[d], e.sigma[d]);
            }
        }
        for e in self.live.iter().filter(|e| e.confident) {
            for (d, kde) in self.live_kdes.iter_mut().enumerate() {
                kde.add(e.pred[d], e.sigma[d]);
            }
        }
    }

    /// Re-predicts and re-classifies every window entry against the current
    /// model, rebuilds both densities, and re-baselines the drift detector.
    fn refresh_window(&mut self) {
        if self.window.is_empty() {
            return;
        }
        let rows: Vec<Vec<f64>> = self.window.iter().map(|e| e.x.clone()).collect();
        let batch = Tensor::from_rows(&rows);
        let mc = McDropout::new(self.cfg.mc_samples)
            .relative(self.cfg.relative_uncertainty)
            .predict(&mut self.model, &batch);
        let mut refreshed = VecDeque::with_capacity(self.window.len());
        for (r, old) in self.window.iter().enumerate() {
            refreshed.push_back(self.classify(
                mc.point.row(r).to_vec(),
                mc.std.row(r).to_vec(),
                mc.uncertainty[r],
                old.x.clone(),
            ));
        }
        self.window = refreshed;

        // The live ring mirrors the window's most recent entries.
        let live_len = self.live.len().min(self.window.len());
        self.live = self
            .window
            .iter()
            .skip(self.window.len() - live_len)
            .map(|e| LiveEntry {
                pred: e.pred.clone(),
                sigma: e.sigma.clone(),
                confident: e.confident,
            })
            .collect();
        self.live_unc.clear();
        for e in self.window.iter().skip(self.window.len() - live_len) {
            self.live_unc.push(e.uncertainty);
        }
        self.rebuild_densities();

        if self.grids_frozen() {
            // Median, not mean: hard samples carry heavy-tailed uncertainty,
            // and the reference must match the live window's robust statistic.
            let mut unc: Vec<f64> = self.window.iter().map(|e| e.uncertainty).collect();
            unc.sort_by(f64::total_cmp);
            let central_unc = if unc.is_empty() {
                0.0
            } else if unc.len() % 2 == 1 {
                unc[unc.len() / 2]
            } else {
                0.5 * (unc[unc.len() / 2 - 1] + unc[unc.len() / 2])
            };
            let mass: Vec<Vec<f64>> = self
                .kdes
                .iter()
                .map(IncrementalKde::normalized_masses)
                .collect();
            self.detector.set_reference(central_unc, mass);
        }
    }

    /// One pseudo-label fine-tune micro-batch through the existing typed
    /// pipeline stages: the most recent uncertain window entries get
    /// pseudo-labels from the incremental density snapshot, joined by
    /// confident replay rows, and the fine-tune runs under a snapshot that
    /// is rolled back on any typed failure.
    fn micro_finetune(&mut self, loss: &dyn Loss) -> Result<(), AdaptError> {
        if self.window.is_empty() {
            return Err(AdaptError::new(ErrorKind::WindowUnderflow {
                have: 0,
                need: self.stream_cfg.micro_batch,
            }));
        }
        // Most recent uncertain/confident entries, chronological order.
        let mut uncertain_idx: Vec<usize> = self
            .window
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, e)| !e.confident && e.valid_sigma)
            .map(|(i, _)| i)
            .take(self.stream_cfg.micro_batch)
            .collect();
        uncertain_idx.reverse();
        let mut confident_idx: Vec<usize> = self
            .window
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, e)| e.confident)
            .map(|(i, _)| i)
            .take(self.stream_cfg.replay_confident.max(1))
            .collect();
        confident_idx.reverse();

        if uncertain_idx.is_empty() {
            return Err(AdaptError::new(ErrorKind::NoUncertainSamples));
        }
        let required = self.cfg.min_confident.max(1);
        if confident_idx.len() < required {
            return Err(AdaptError::new(ErrorKind::NoConfidentSamples {
                found: confident_idx.len(),
                required,
            }));
        }
        let maps: Vec<DensityMap1d> = self.kdes.iter().map(IncrementalKde::snapshot).collect();
        if maps
            .iter()
            .map(DensityMap1d::total_mass)
            .fold(f64::INFINITY, f64::min)
            <= 0.0
        {
            return Err(AdaptError::new(ErrorKind::ZeroDensityMass));
        }

        // Assemble the micro-batch: uncertain rows first, then replay.
        let selection: Vec<usize> = uncertain_idx
            .iter()
            .chain(confident_idx.iter())
            .copied()
            .collect();
        let n_unc = uncertain_idx.len();
        let n_rows = selection.len();
        let entry = |i: usize| &self.window[selection[i]];
        let target_x =
            Tensor::from_rows(&(0..n_rows).map(|i| entry(i).x.clone()).collect::<Vec<_>>());
        let point = Tensor::from_rows(
            &(0..n_rows)
                .map(|i| entry(i).pred.clone())
                .collect::<Vec<_>>(),
        );
        let std = Tensor::from_rows(
            &(0..n_rows)
                .map(|i| entry(i).std.clone())
                .collect::<Vec<_>>(),
        );
        let mc = McPrediction {
            mc_mean: point.clone(),
            uncertainty: (0..n_rows).map(|i| entry(i).uncertainty).collect(),
            point,
            std,
        };
        let split = ConfidenceSplit {
            uncertain: (0..n_unc).collect(),
            confident: (n_unc..n_rows).collect(),
        };
        let unc_pred = Tensor::from_rows(
            &(0..n_unc)
                .map(|i| entry(i).pred.clone())
                .collect::<Vec<_>>(),
        );
        let unc_sigma = Tensor::from_rows(
            &(0..n_unc)
                .map(|i| entry(i).sigma.clone())
                .collect::<Vec<_>>(),
        );
        let density = DensityArtifacts {
            maps: BuiltMaps::PerDim(maps),
            unc_pred,
            unc_sigma,
            tau: self.calib.classifier.tau,
        };

        self.micro_count += 1;
        let micro_cfg = TasfarConfig {
            epochs: self.stream_cfg.micro_epochs.max(1),
            early_stop: None,
            batch_size: self.cfg.batch_size.min(n_rows).max(1),
            replay_confident: true,
            seed: self.cfg.seed.wrapping_add(self.micro_count),
            ..self.cfg.clone()
        };

        let mut trace = PipelineTrace::default();
        let pseudo = pseudo_label_stage(&mc, &split, &density, &micro_cfg, &mut trace)?;
        let snapshot = self.model.checkpoint();
        match finetune_stage(
            &mut self.model,
            &target_x,
            &mc,
            &split,
            &pseudo,
            loss,
            &micro_cfg,
            &mut trace,
        ) {
            Ok(_) => {
                self.report.micro_batches += 1;
                tasfar_obs::metrics::counter("stream.micro_batches").incr();
                Ok(())
            }
            Err(err) => {
                // Do-no-harm at micro-batch granularity: restore the
                // pre-micro-batch weights and keep streaming.
                self.model.restore(&snapshot);
                self.report.micro_rollbacks += 1;
                tasfar_obs::metrics::counter("stream.micro_rollbacks").incr();
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_stream_chunks_and_rewinds() {
        let data = Tensor::from_fn(10, 2, |r, c| (r * 2 + c) as f64);
        let mut s = ReplayStream::new(data, 4);
        let a = s.next_chunk().unwrap();
        assert_eq!(a.shape(), (4, 2));
        assert_eq!(s.next_chunk().unwrap().shape(), (4, 2));
        let tail = s.next_chunk().unwrap();
        assert_eq!(tail.shape(), (2, 2), "short final chunk");
        assert!(s.next_chunk().is_none());
        s.rewind();
        assert_eq!(s.remaining(), 10);
        assert_eq!(s.next_chunk().unwrap().as_slice(), a.as_slice());
    }

    #[test]
    fn zero_chunk_size_is_bumped() {
        let mut s = ReplayStream::new(Tensor::zeros(3, 1), 0);
        assert_eq!(s.next_chunk().unwrap().rows(), 1);
    }

    #[test]
    fn incremental_kde_add_then_evict_returns_to_empty() {
        let spec = GridSpec::from_range(-1.0, 1.0, 0.1);
        let mut kde = IncrementalKde::new(spec, ErrorModel::Gaussian);
        assert!(!kde.has_mass());
        kde.add(0.2, 0.05);
        kde.add(-0.3, 0.1);
        assert_eq!(kde.samples(), 2);
        assert!(kde.has_mass());
        kde.evict(0.2, 0.05);
        kde.evict(-0.3, 0.1);
        assert_eq!(kde.samples(), 0);
        assert!(!kde.has_mass(), "exact integer ticks cancel to zero");
    }

    #[test]
    fn incremental_kde_skips_unusable_samples_symmetrically() {
        let spec = GridSpec::from_range(-1.0, 1.0, 0.1);
        let mut kde = IncrementalKde::new(spec, ErrorModel::Gaussian);
        kde.add(f64::NAN, 0.1);
        kde.add(0.0, -1.0);
        kde.add(0.0, f64::INFINITY);
        assert_eq!(kde.samples(), 0, "unusable samples are not counted");
        kde.evict(f64::NAN, 0.1);
        assert_eq!(kde.samples(), 0);
    }

    #[test]
    fn incremental_kde_snapshot_tracks_batch_estimator_closely() {
        // The quantised snapshot is not bit-equal to the f64 batch
        // estimator (that is the point of the ticks), but it must agree to
        // far better than any consumer resolves.
        let spec = GridSpec::from_range(-1.5, 1.5, 0.05);
        let preds = [0.1, 0.2, -0.4, 0.8, 0.0, 0.33];
        let sigmas = [0.05, 0.1, 0.2, 0.07, 0.15, 0.09];
        let mut kde = IncrementalKde::new(spec.clone(), ErrorModel::Gaussian);
        for (&p, &s) in preds.iter().zip(&sigmas) {
            kde.add(p, s);
        }
        let batch = DensityMap1d::estimate(&preds, &sigmas, spec, ErrorModel::Gaussian);
        let snap = kde.snapshot();
        for i in 0..batch.spec.bins {
            assert!(
                (snap.mass(i) - batch.mass(i)).abs() < 1e-9,
                "bin {i}: {} vs {}",
                snap.mass(i),
                batch.mass(i)
            );
        }
    }

    #[test]
    fn normalized_masses_sum_to_one_or_are_empty() {
        let spec = GridSpec::from_range(-1.0, 1.0, 0.1);
        let mut kde = IncrementalKde::new(spec, ErrorModel::Gaussian);
        assert!(kde.normalized_masses().is_empty());
        kde.add(0.0, 0.1);
        kde.add(0.5, 0.2);
        let mass = kde.normalized_masses();
        let total: f64 = mass.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "normalised total {total}");
    }

    #[test]
    fn outcome_and_phase_labels_are_stable() {
        assert_eq!(StreamOutcome::Adapted.label(), "adapted");
        assert_eq!(StreamOutcome::Recovered.label(), "recovered");
        assert_eq!(
            StreamOutcome::DegradedLastGood.label(),
            "degraded-to-last-good"
        );
        assert_eq!(StreamPhase::Warmup.label(), "warmup");
        assert_eq!(
            StreamPhase::Steady(StreamOutcome::Recovered).label(),
            "recovered"
        );
    }
}
