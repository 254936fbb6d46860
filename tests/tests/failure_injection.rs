//! Failure-injection and edge-case tests: degenerate configurations,
//! adversarial batch compositions, and boundary geometries across the
//! cross-crate surface.

use integration::{toy_task, train_mlp};
use tasfar_core::prelude::*;
use tasfar_nn::prelude::*;

fn calibrated_toy() -> (
    Sequential,
    SourceCalibration,
    TasfarConfig,
    tasfar_nn::tensor::Tensor,
) {
    let toy = toy_task(9, 0.5);
    let mut model = train_mlp(&toy.source, 24, 80, 5e-3, 9);
    let cfg = TasfarConfig {
        grid_cell: 0.05,
        epochs: 10,
        early_stop: None,
        ..TasfarConfig::default()
    };
    let calib = calibrate_on_source(&mut model, &toy.source, &cfg).expect("toy source calibrates");
    (model, calib, cfg, toy.target_x)
}

#[test]
fn adapt_on_a_tiny_batch_is_safe() {
    let (model, calib, cfg, target_x) = calibrated_toy();
    for n in [1usize, 2, 3] {
        let mut m = model.clone();
        let rows: Vec<usize> = (0..n).collect();
        let xb = target_x.select_rows(&rows);
        // Tiny batches usually degenerate to all-confident or all-uncertain;
        // either way the pipeline must not panic: it reports a typed,
        // recoverable error (or produces finite pseudo-labels).
        match adapt(&mut m, &calib, &xb, &Mse, &cfg) {
            Ok(outcome) => {
                for p in &outcome.pseudo {
                    assert!(p.value[0].is_finite());
                }
            }
            Err(err) => assert!(err.recoverable(), "unexpected fatal error: {err}"),
        }
        assert!(m.predict(&xb).all_finite());
    }
}

#[test]
fn adapt_with_identical_rows_is_safe() {
    // A pathological target batch: one sample repeated. The density map
    // degenerates to a spike; the pipeline must stay finite.
    let (model, calib, cfg, target_x) = calibrated_toy();
    let rows = vec![0usize; 64];
    let xb = target_x.select_rows(&rows);
    let mut m = model.clone();
    let _ = adapt(&mut m, &calib, &xb, &Mse, &cfg); // any typed error is acceptable
    assert!(m.predict(&xb).all_finite());
}

#[test]
fn grid_wider_than_data_still_works() {
    let labels = [0.5, 0.50001, 0.49999];
    let spec = GridSpec::covering(&labels, 10.0, 1); // one giant cell + pads
    let map = DensityMap1d::from_labels(&labels, spec);
    assert!((map.total_mass() - 1.0).abs() < 1e-12);
    let generator = PseudoLabelGenerator1d::new(&map, 0.1, ErrorModel::Gaussian);
    let p = generator.generate(0.5, 0.2, 0.3);
    assert!(p.value[0].is_finite());
}

#[test]
fn sigma_floor_protects_against_degenerate_source_errors() {
    // All source errors identical ⇒ every segment std is 0 ⇒ the σ floor
    // must keep downstream Gaussians valid.
    let us: Vec<f64> = (0..100).map(|i| 0.1 + i as f64 * 0.01).collect();
    let es = vec![0.25; 100]; // constant *signed* error, zero spread
    let qs = QsCalibration::fit(&us, &es, 10);
    let sigma = qs.sigma(0.5);
    assert!(sigma > 0.0);
    // And the density estimator accepts it.
    let spec = GridSpec::from_range(0.0, 1.0, 0.1);
    let map = DensityMap1d::estimate(&[0.5], &[sigma], spec, ErrorModel::Gaussian);
    assert!(map.total_mass() > 0.99);
}

#[test]
fn classifier_with_constant_source_uncertainty() {
    let c = ConfidenceClassifier::calibrate(&[0.3; 50], 0.9);
    assert_eq!(c.tau, 0.3);
    let s = c.split(&[0.29, 0.3, 0.31]);
    assert_eq!(s.confident, vec![0, 1]);
    assert_eq!(s.uncertain, vec![2]);
}

#[test]
fn scenario_rescale_with_degenerate_targets() {
    let (mut model, calib, mut cfg, target_x) = calibrated_toy();
    cfg.scenario_tau_rescale = true;
    // Zero-uncertainty batch (deterministic model would produce this):
    // rescaling must fall back to the shipped τ rather than divide by zero.
    let cls = tasfar_core::adapt::scenario_classifier(&calib, &cfg, &[0.0, 0.0, 0.0]);
    assert_eq!(cls.tau, calib.classifier.tau);
    // Empty batch: same fallback.
    let cls = tasfar_core::adapt::scenario_classifier(&calib, &cfg, &[]);
    assert_eq!(cls.tau, calib.classifier.tau);
    // And a normal batch still adapts.
    let outcome = adapt(&mut model, &calib, &target_x, &Mse, &cfg).expect("toy target adapts");
    assert!(!outcome.pseudo.is_empty());
}

#[test]
fn training_skips_zero_weight_batches_entirely() {
    // If an entire mini-batch has zero weight, fit must skip it rather than
    // divide by zero. Construct weights so whole contiguous chunks are zero
    // and shuffling is off.
    let mut rng = Rng::new(3);
    let x = Tensor::rand_uniform(64, 1, -1.0, 1.0, &mut rng);
    let y = x.clone();
    let mut w = vec![0.0; 64];
    for wi in w.iter_mut().take(16) {
        *wi = 1.0;
    }
    let mut model = Sequential::new().add(Dense::new(1, 1, Init::XavierUniform, &mut rng));
    let mut opt = Adam::new(0.05);
    let report = fit(
        &mut model,
        &mut opt,
        &Mse,
        &x,
        &y,
        Some(&w),
        &TrainConfig {
            epochs: 50,
            batch_size: 16,
            shuffle: false,
            ..TrainConfig::default()
        },
    );
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    let pred = model.predict(&Tensor::full(1, 1, 0.5));
    assert!(
        (pred.get(0, 0) - 0.5).abs() < 0.1,
        "model should fit the weighted chunk"
    );
}

#[test]
fn mc_dropout_handles_large_inputs_without_overflow() {
    let mut rng = Rng::new(4);
    let mut model = Sequential::new()
        .add(Dense::new(2, 8, Init::HeNormal, &mut rng))
        .add(Tanh::new())
        .add(Dropout::new(0.2, &mut rng))
        .add(Dense::new(8, 1, Init::XavierUniform, &mut rng));
    let x = Tensor::full(4, 2, 1e6);
    let p = McDropout::new(10).predict(&mut model, &x);
    assert!(p.point.all_finite());
    assert!(p.uncertainty.iter().all(|u| u.is_finite()));
}

#[test]
fn relative_uncertainty_near_zero_predictions_is_floored() {
    // Predictions at ~0 magnitude must not explode the relative form.
    let mut rng = Rng::new(5);
    let mut model = Sequential::new()
        .add(Dense::new(1, 8, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.3, &mut rng))
        .add(Dense::new(8, 1, Init::Zeros, &mut rng)); // all-zero head
    let x = Tensor::rand_normal(16, 1, 0.0, 1.0, &mut rng);
    let p = McDropout::new(10).relative(true).predict(&mut model, &x);
    assert!(p.uncertainty.iter().all(|u| u.is_finite()));
}

#[test]
fn pseudo_generator_with_huge_sigma_collapses_to_map_mean_not_nan() {
    let mut rng = Rng::new(6);
    let labels: Vec<f64> = (0..1000).map(|_| rng.gaussian(2.0, 0.3)).collect();
    let map = DensityMap1d::from_labels(&labels, GridSpec::covering(&labels, 0.1, 2));
    let generator = PseudoLabelGenerator1d::new(&map, 0.1, ErrorModel::Gaussian);
    let p = generator.generate(2.0, 1e6, 0.5);
    assert!(p.value[0].is_finite());
    // With an (effectively) flat instance distribution the posterior is the
    // map itself; the label lands near the map's mean.
    assert!((p.value[0] - 2.0).abs() < 0.2, "got {}", p.value[0]);
}

#[test]
fn empty_and_single_bin_density_maps() {
    // One label, one bin.
    let spec = GridSpec::from_range(0.0, 1.0, 2.0);
    assert_eq!(spec.bins, 1);
    let map = DensityMap1d::from_labels(&[0.5], spec);
    assert_eq!(map.mass(0), 1.0);
    assert_eq!(map.mean_mass(), 1.0);
}

#[test]
fn partitioned_adapter_with_single_group_matches_plain_adapt_structure() {
    // The partition loop with one group: a single delta adapt over the
    // whole batch, run the way callers run it.
    let (model, calib, cfg, target_x) = calibrated_toy();
    let keys = vec![0usize; target_x.rows()];
    let groups = group_by_key(&keys);
    assert_eq!(groups.len(), 1);
    let session = TenantSession::new(calib, cfg, tasfar_nn::adapter::AdapterConfig::rank(8));
    let mut rng = Rng::new(9);
    let (mut shared, init) = session.prepare_shared(&model, &mut rng);
    let xg = target_x.select_rows(&groups[0]);
    let (outcome, art) = session.adapt_delta(&mut shared, &init, 0, None, &xg, &Mse, &mut rng);
    let adapted = outcome.adaptation().expect("single toy group adapts");
    assert!(art.is_some());
    assert_eq!(
        adapted.split.confident.len() + adapted.split.uncertain.len(),
        target_x.rows()
    );
}
