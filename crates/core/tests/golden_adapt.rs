//! Golden-equivalence suite for the staged-pipeline refactor.
//!
//! Pins the raw `f64` bit patterns (FNV-1a hashed) of everything
//! [`calibrate_on_source`] and [`adapt`] produce — calibration parameters,
//! MC predictions, pseudo-labels, fine-tune losses, and the adapted model's
//! predictions — on a small deterministic toy, across the 1-D, joint-2-D,
//! per-dimension-2-D, and skip paths. Each scenario also asserts bit-identity
//! at 1, 4, and default `TASFAR_THREADS`.
//!
//! The pinned constants were captured immediately before `adapt.rs` was
//! decomposed into `core::pipeline`; they hold as long as the refactor keeps
//! the float-operation order, the RNG stream order, and the parallel chunk
//! geometry exactly.

use tasfar_core::prelude::*;
use tasfar_data::Dataset;
use tasfar_nn::parallel::{reset_threads, set_threads};
use tasfar_nn::prelude::*;

/// Runs `f` at a pinned thread count, then restores the default.
fn at_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    set_threads(n);
    let out = f();
    reset_threads();
    out
}

/// FNV-1a over the bit patterns of a value stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn slice(&mut self, s: &[f64]) {
        self.u64(s.len() as u64);
        for &v in s {
            self.f64(v);
        }
    }
    fn tensor(&mut self, t: &Tensor) {
        self.u64(t.rows() as u64);
        self.u64(t.cols() as u64);
        self.slice(t.as_slice());
    }
}

fn hash_calibration(calib: &SourceCalibration) -> u64 {
    let mut h = Fnv::new();
    h.f64(calib.classifier.tau);
    h.f64(calib.classifier.eta);
    h.f64(calib.median_uncertainty);
    h.u64(calib.qs.len() as u64);
    for qs in &calib.qs {
        // Probe the fitted map at fixed points instead of reading fields, so
        // the hash survives representation changes that preserve behaviour.
        for u in [0.0, 0.05, 0.2, 1.0] {
            h.f64(qs.sigma(u));
        }
    }
    h.0
}

fn hash_outcome(outcome: &AdaptationOutcome, adapted_pred: &Tensor) -> u64 {
    let mut h = Fnv::new();
    h.tensor(&outcome.mc.point);
    h.tensor(&outcome.mc.std);
    h.slice(&outcome.mc.uncertainty);
    h.u64(outcome.split.confident.len() as u64);
    h.u64(outcome.split.uncertain.len() as u64);
    for &i in outcome
        .split
        .confident
        .iter()
        .chain(&outcome.split.uncertain)
    {
        h.u64(i as u64);
    }
    h.u64(outcome.pseudo.len() as u64);
    for p in &outcome.pseudo {
        h.slice(&p.value);
        h.f64(p.credibility);
        h.f64(p.local_density_ratio);
        h.u64(p.informative as u64);
    }
    h.slice(&outcome.fit.epoch_losses);
    h.u64(outcome.fit.stopped_early_at.map_or(u64::MAX, |e| e as u64));
    h.tensor(adapted_pred);
    h.0
}

/// A deterministic toy: an *untrained* dropout MLP whose uncertainty grows
/// with input magnitude, a source batch in the small-magnitude regime and a
/// target batch with a large-magnitude (uncertain) subpopulation.
fn build_toy(dims: usize, seed: u64) -> (Sequential, Dataset, Tensor) {
    let mut rng = Rng::new(seed);
    let model = Sequential::new()
        .add(Dense::new(3, 16, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.2, &mut rng))
        .add(Dense::new(16, dims, Init::XavierUniform, &mut rng));

    let n_src = 120;
    let xs = Tensor::rand_uniform(n_src, 3, -1.0, 1.0, &mut rng);
    let ys = Tensor::from_fn(n_src, dims, |r, d| {
        0.5 * xs.get(r, 0) + 0.1 * d as f64 + rng.gaussian(0.0, 0.05)
    });
    let source = Dataset::new(xs, ys);

    let n_tgt = 90;
    let target_x = Tensor::from_fn(n_tgt, 3, |r, _| {
        if r % 3 == 0 {
            rng.uniform(3.0, 5.0) // large-magnitude ⇒ high dropout variance
        } else {
            rng.uniform(-1.0, 1.0)
        }
    });
    (model, source, target_x)
}

fn toy_config() -> TasfarConfig {
    TasfarConfig {
        mc_samples: 10,
        grid_cell: 0.1,
        epochs: 8,
        batch_size: 16,
        early_stop: None,
        ..TasfarConfig::default()
    }
}

/// One full calibrate→adapt pass; returns the two golden hashes.
fn run_scenario(dims: usize, seed: u64, joint_2d: bool) -> (u64, u64) {
    let (mut model, source, target_x) = build_toy(dims, seed);
    let cfg = TasfarConfig {
        joint_2d,
        ..toy_config()
    };
    let calib = calibrate_on_source(&mut model, &source, &cfg).expect("toy source calibrates");
    let outcome = adapt(&mut model, &calib, &target_x, &Mse, &cfg)
        .expect("golden scenario must exercise the full pipeline");
    assert!(!outcome.pseudo.is_empty());
    let pred = model.predict(&target_x);
    (hash_calibration(&calib), hash_outcome(&outcome, &pred))
}

fn assert_golden(dims: usize, seed: u64, joint_2d: bool, expect: (u64, u64)) {
    let one = at_threads(1, || run_scenario(dims, seed, joint_2d));
    let four = at_threads(4, || run_scenario(dims, seed, joint_2d));
    let default = run_scenario(dims, seed, joint_2d);
    assert_eq!(one, four, "1 vs 4 threads");
    assert_eq!(one, default, "1 vs default threads");
    assert_eq!(
        one, expect,
        "golden hash drifted — the refactor changed observable f64 bits \
         (got ({:#018x}, {:#018x}))",
        one.0, one.1
    );
}

#[test]
fn golden_one_dimensional_path() {
    assert_golden(1, 11, true, GOLDEN_1D);
}

#[test]
fn golden_joint_2d_path() {
    assert_golden(2, 12, true, GOLDEN_JOINT_2D);
}

#[test]
fn golden_per_dimension_2d_path() {
    assert_golden(2, 12, false, GOLDEN_PER_DIM_2D);
}

/// The benchmark's PDR TCN in miniature: a 6→16 dilation-1 block (with its
/// 1×1 downsample), a 16→16 dilation-2 block over 20-step windows, pooling
/// and a dropout Dense head with two outputs. Inputs are latent 2-D labels
/// written into six channels of sinusoids; the target batch shifts the
/// labels and scales a third of its windows up, so MC-dropout splits it.
fn build_tcn(seed: u64) -> (Sequential, Dataset, Tensor) {
    const CH: usize = 6;
    const T: usize = 20;
    let mut rng = Rng::new(seed);
    let model = Sequential::new()
        .add(TcnBlock::new(CH, 16, 3, 1, T, 0.1, &mut rng))
        .add(TcnBlock::new(16, 16, 3, 2, T, 0.1, &mut rng))
        .add(GlobalAvgPool1d::new(16, T))
        .add(Dense::new(16, 16, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.2, &mut rng))
        .add(Dense::new(16, 2, Init::XavierUniform, &mut rng));
    let window = |y: [f64; 2], gain: f64, rng: &mut Rng| -> Vec<f64> {
        (0..CH * T)
            .map(|i| {
                let (c, t) = ((i / T) as f64, (i % T) as f64);
                gain * (y[0] * (0.3 * t + c).cos() + y[1] * (0.2 * t * (c + 1.0)).sin())
                    + rng.gaussian(0.0, 0.05)
            })
            .collect()
    };
    let n_src = 96;
    let mut xs = Vec::with_capacity(n_src * CH * T);
    let mut ys = Vec::with_capacity(n_src * 2);
    for _ in 0..n_src {
        let y = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)];
        xs.extend(window(y, 1.0, &mut rng));
        ys.extend(y);
    }
    let source = Dataset::new(
        Tensor::from_vec(n_src, CH * T, xs),
        Tensor::from_vec(n_src, 2, ys),
    );
    let n_tgt = 64;
    let mut xt = Vec::with_capacity(n_tgt * CH * T);
    for r in 0..n_tgt {
        let y = [rng.uniform(0.0, 1.0), rng.uniform(-0.5, 0.5)];
        let gain = if r % 3 == 0 { 3.0 } else { 1.0 };
        xt.extend(window(y, gain, &mut rng));
    }
    (model, source, Tensor::from_vec(n_tgt, CH * T, xt))
}

/// Source fit, calibration, then one guarded rank-4 `adapt_delta` on a
/// 64-window batch; returns (calibration hash, hash of the outcome, the
/// artifact's values and the adapted model's predictions).
fn run_tcn_scenario() -> (u64, u64) {
    let (mut model, source, target_x) = build_tcn(21);
    let _ = fit(
        &mut model,
        &mut Adam::new(2e-3),
        &Mse,
        &source.x,
        &source.y,
        None,
        &TrainConfig {
            epochs: 3,
            batch_size: 32,
            seed: 5,
            ..TrainConfig::default()
        },
    );
    let cfg = TasfarConfig {
        joint_2d: true,
        scenario_tau_rescale: true,
        mc_samples: 4,
        grid_cell: 0.1,
        learning_rate: 5e-4,
        epochs: 2,
        batch_size: 32,
        early_stop: None,
        ..TasfarConfig::default()
    };
    let calib = calibrate_on_source(&mut model, &source, &cfg).expect("TCN source calibrates");
    let calib_hash = hash_calibration(&calib);
    let session = TenantSession::new(calib, cfg, AdapterConfig::rank(4));
    let mut rng = Rng::new(22);
    let (mut shared, init) = session.prepare_shared(&model, &mut rng);
    let (outcome, artifact) =
        session.adapt_delta(&mut shared, &init, 7, None, &target_x, &Mse, &mut rng);
    let adapted = outcome
        .adaptation()
        .expect("golden TCN scenario must adapt, not fall back");
    assert!(!adapted.pseudo.is_empty());
    let artifact = artifact.expect("an adapted tenant has a delta");
    artifact.apply(&mut shared, &mut rng);
    let pred = shared.predict(&target_x);
    let mut h = Fnv::new();
    h.u64(hash_outcome(adapted, &pred));
    h.u64(artifact.rank as u64);
    h.f64(artifact.alpha);
    for (&(rows, cols), values) in artifact.shapes.iter().zip(&artifact.values) {
        h.u64(rows as u64);
        h.u64(cols as u64);
        h.slice(values);
    }
    (calib_hash, h.0)
}

/// The PDR TCN through the delta session: every `Conv1d` kernel size the
/// TCN uses (k = 3 at dilations 1 and 2, the k = 1 downsample) runs its
/// forward, MC-dropout and backward, plain and with adapters, so the hash
/// pins the conv kernels' bits end to end.
#[test]
fn golden_tcn_adapt_delta_path() {
    let one = at_threads(1, run_tcn_scenario);
    let four = at_threads(4, run_tcn_scenario);
    let default = run_tcn_scenario();
    assert_eq!(one, four, "1 vs 4 threads");
    assert_eq!(one, default, "1 vs default threads");
    assert_eq!(
        one, GOLDEN_TCN,
        "golden hash drifted — the conv kernels changed observable f64 bits \
         (got ({:#018x}, {:#018x}))",
        one.0, one.1
    );
}

/// The two degenerate splits abort adaptation with typed, recoverable
/// errors and leave the model bit-identical, at every thread count.
#[test]
fn golden_error_paths() {
    let run = || {
        let (mut model, source, target_x) = build_toy(1, 13);
        let cfg = toy_config();
        let calib = calibrate_on_source(&mut model, &source, &cfg).unwrap();
        let snapshot = model.clone();

        let tiny = SourceCalibration {
            classifier: ConfidenceClassifier::from_tau(1e-12, 0.9),
            qs: calib.qs.clone(),
            median_uncertainty: calib.median_uncertainty,
        };
        let all_uncertain = adapt(&mut model, &tiny, &target_x, &Mse, &cfg).unwrap_err();
        assert_eq!(
            all_uncertain.kind,
            ErrorKind::NoConfidentSamples {
                found: 0,
                required: 1
            }
        );
        assert!(all_uncertain.recoverable());

        let huge = SourceCalibration {
            classifier: ConfidenceClassifier::from_tau(1e12, 0.9),
            qs: calib.qs.clone(),
            median_uncertainty: calib.median_uncertainty,
        };
        let all_confident = adapt(&mut model, &huge, &target_x, &Mse, &cfg).unwrap_err();
        assert_eq!(all_confident.kind, ErrorKind::NoUncertainSamples);
        assert!(all_confident.recoverable());

        // Failed runs never touch the model.
        assert_eq!(
            model.predict(&target_x).as_slice(),
            snapshot.clone().predict(&target_x).as_slice()
        );

        let mut h = Fnv::new();
        h.u64(hash_calibration(&calib));
        h.tensor(&model.predict(&target_x));
        h.0
    };
    let one = at_threads(1, run);
    let four = at_threads(4, run);
    let default = run();
    assert_eq!(one, four, "1 vs 4 threads");
    assert_eq!(one, default, "1 vs default threads");
}

/// Turning tracing on must be purely observational: the golden hash of the
/// 1-D scenario is bit-identical with a live sink, while the captured trace
/// is valid JSONL covering all five pipeline stages and the training loop.
#[test]
fn golden_hash_unchanged_with_tracing_enabled() {
    let sink = tasfar_obs::capture();
    let got = at_threads(1, || run_scenario(1, 11, true));
    tasfar_obs::disable();
    assert_eq!(
        got, GOLDEN_1D,
        "enabling TASFAR_TRACE changed the adapted weights"
    );

    let lines = sink.lines();
    let parsed: Vec<tasfar_nn::json::Json> = lines
        .iter()
        .map(|l| tasfar_nn::json::Json::parse(l).expect("trace line parses"))
        .collect();
    // Mandatory schema on every record.
    for (record, line) in parsed.iter().zip(&lines) {
        record.field("ts").and_then(|v| v.as_u64()).expect(line);
        record.field("kind").and_then(|v| v.as_str()).expect(line);
        record.field("name").and_then(|v| v.as_str()).expect(line);
    }
    // The run-level span, all five stages, and per-epoch training events.
    for name in [
        "adapt",
        "stage.predict",
        "stage.split",
        "stage.estimate_density",
        "stage.pseudo_label",
        "stage.fine_tune",
        "train_epoch",
        "parallel_pool",
    ] {
        assert!(
            parsed
                .iter()
                .any(|r| r.get("name").and_then(|n| n.as_str().ok()) == Some(name)),
            "trace has no `{name}` record among {} lines",
            lines.len()
        );
    }
}

// Captured from the pre-refactor monolithic `adapt.rs` (post `median`
// even-length fix), release profile, this repository's deterministic RNG.
const GOLDEN_1D: (u64, u64) = (0xb7345d5c220c3d75, 0xfced5561f52c176e);
const GOLDEN_JOINT_2D: (u64, u64) = (0x191871068b8c9bc6, 0xc63b92eb247e7821);
const GOLDEN_PER_DIM_2D: (u64, u64) = (0x191871068b8c9bc6, 0x5f0c410d78b3fc34);
// Captured with the k = 3 fused loops and the naive k ≠ 3 fallback that
// preceded the register-tiled conv kernel.
const GOLDEN_TCN: (u64, u64) = (0x74505b32e250b21f, 0xf5bab57290ef8e56);
