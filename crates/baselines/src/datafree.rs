//! Feature-histogram alignment without source data (the paper's "Datafree"
//! comparison, after Eastwood et al., *Source-free Adaptation to Measurement
//! Shift via Bottom-up Feature Restoration*, ICLR 2022).
//!
//! At source time, each feature unit's marginal distribution is summarised
//! as a *soft histogram* — lightweight statistics, not data. At the target,
//! the feature extractor is fine-tuned so the target feature histograms
//! match the stored source histograms, with the regression head frozen. The
//! approach is source-free but, as the paper's experiments show, aligning
//! marginal feature statistics only repairs small "measurement-shift"-style
//! gaps — it carries no information about the target label distribution.

use crate::common::{
    rejoin, split_model, validate_target, zero_grad, BaselineConfig, DomainAdapter,
};
use tasfar_core::error::AdaptError;
use tasfar_data::Dataset;
use tasfar_nn::layers::{Layer, Mode};
use tasfar_nn::loss::Loss;
use tasfar_nn::model::SplitRegressor;
use tasfar_nn::optim::{Adam, Optimizer};
use tasfar_nn::rng::Rng;
use tasfar_nn::tensor::Tensor;

/// Differentiable soft histogram of one feature unit: Gaussian-kernel
/// binning over a fixed range.
#[derive(Debug, Clone)]
pub struct SoftHistogram {
    /// Bin centres.
    pub centers: Vec<f64>,
    /// Kernel bandwidth.
    pub bandwidth: f64,
}

impl SoftHistogram {
    /// A histogram with `bins` centres spanning `[lo, hi]`; the kernel
    /// bandwidth equals the bin spacing.
    ///
    /// # Panics
    /// Panics unless `bins >= 2` and `lo < hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 2, "SoftHistogram: need at least 2 bins");
        assert!(lo < hi, "SoftHistogram: lo must be below hi");
        let step = (hi - lo) / (bins - 1) as f64;
        SoftHistogram {
            centers: (0..bins).map(|b| lo + b as f64 * step).collect(),
            bandwidth: step,
        }
    }

    /// Kernel response of value `v` at bin `b` (unnormalised Gaussian).
    fn kernel(&self, v: f64, b: usize) -> f64 {
        let z = (v - self.centers[b]) / self.bandwidth;
        (-0.5 * z * z).exp()
    }

    /// The soft histogram of `values`: per-bin mean kernel response,
    /// normalised to sum to one.
    pub fn evaluate(&self, values: &[f64]) -> Vec<f64> {
        assert!(!values.is_empty(), "SoftHistogram: no values");
        let mut h = vec![0.0; self.centers.len()];
        for &v in values {
            for (b, hb) in h.iter_mut().enumerate() {
                *hb += self.kernel(v, b);
            }
        }
        let total: f64 = h.iter().sum();
        if total > 0.0 {
            for hb in &mut h {
                *hb /= total;
            }
        }
        h
    }
}

/// The stored source-side feature statistics (what ships with the model in
/// place of the source dataset).
#[derive(Debug, Clone)]
pub struct FeatureStats {
    /// One histogram spec per feature unit.
    pub specs: Vec<SoftHistogram>,
    /// The source histograms `q` per unit.
    pub histograms: Vec<Vec<f64>>,
}

/// Computes the source feature statistics (run before shipping the model).
///
/// # Panics
/// Panics if the source dataset is empty.
pub fn record_source_stats<M: SplitRegressor>(
    model: &mut M,
    source: &Dataset,
    split_at: usize,
    bins: usize,
) -> FeatureStats {
    assert!(!source.is_empty(), "record_source_stats: empty source");
    let (mut features, head) = split_model(model, split_at);
    let f = features.forward(&source.x, Mode::Eval);
    let mut specs = Vec::with_capacity(f.cols());
    let mut histograms = Vec::with_capacity(f.cols());
    for unit in 0..f.cols() {
        let lo = f.col_iter(unit).fold(f64::INFINITY, f64::min);
        let hi = f.col_iter(unit).fold(f64::NEG_INFINITY, f64::max);
        let spec = SoftHistogram::new(lo - 1e-6, hi.max(lo + 1e-3) + 1e-6, bins);
        let hist = spec.evaluate(&f.col(unit));
        specs.push(spec);
        histograms.push(hist);
    }
    rejoin(model, features, head);
    FeatureStats { specs, histograms }
}

/// The Datafree adapter: histogram-matching fine-tuning of the feature
/// extractor with a frozen head.
#[derive(Debug, Clone)]
pub struct DatafreeAdapter {
    /// Shared training hyper-parameters.
    pub config: BaselineConfig,
    /// The stored source statistics.
    pub stats: FeatureStats,
}

impl DatafreeAdapter {
    /// An adapter around previously recorded source statistics.
    pub fn new(config: BaselineConfig, stats: FeatureStats) -> Self {
        DatafreeAdapter { config, stats }
    }
}

/// Cross-entropy `−Σ_b q_b log p_b` of the target histogram `p` against the
/// stored source histogram `q`, plus its gradient with respect to each
/// contributing feature value.
fn histogram_loss_and_grad(
    spec: &SoftHistogram,
    source_hist: &[f64],
    values: &[f64],
) -> (f64, Vec<f64>) {
    let bins = spec.centers.len();
    // Unnormalised responses and their total.
    let mut responses = vec![0.0; bins];
    let mut per_value: Vec<Vec<f64>> = Vec::with_capacity(values.len());
    for &v in values {
        let mut row = Vec::with_capacity(bins);
        for (b, resp) in responses.iter_mut().enumerate() {
            let k = spec.kernel(v, b);
            *resp += k;
            row.push(k);
        }
        per_value.push(row);
    }
    let total: f64 = responses.iter().sum::<f64>().max(1e-12);
    let p: Vec<f64> = responses.iter().map(|r| (r / total).max(1e-12)).collect();
    let loss: f64 = source_hist
        .iter()
        .zip(&p)
        .map(|(&q, &pb)| -q * pb.ln())
        .sum();

    // dL/dv = Σ_b (−q_b/p_b) · dp_b/dv, with p_b = r_b / Σr:
    // dp_b/dv_i = (dk_{ib}/dv_i · total − r_b · Σ_b' dk_{ib'}/dv_i) / total².
    let mut grads = Vec::with_capacity(values.len());
    for (i, &v) in values.iter().enumerate() {
        // dk/dv for each bin.
        let dk: Vec<f64> = (0..bins)
            .map(|b| {
                let z = (v - spec.centers[b]) / spec.bandwidth;
                per_value[i][b] * (-z / spec.bandwidth)
            })
            .collect();
        let dk_sum: f64 = dk.iter().sum();
        let mut g = 0.0;
        for b in 0..bins {
            let dp = (dk[b] * total - responses[b] * dk_sum) / (total * total);
            g += -source_hist[b] / p[b] * dp;
        }
        grads.push(g);
    }
    (loss, grads)
}

impl<M: SplitRegressor> DomainAdapter<M> for DatafreeAdapter {
    fn name(&self) -> &'static str {
        "Datafree"
    }

    fn requires_source(&self) -> bool {
        false
    }

    fn adapt(
        &self,
        model: &mut M,
        _source: Option<&Dataset>,
        target_x: &Tensor,
        _loss: &dyn Loss,
    ) -> Result<(), AdaptError> {
        // Histogram matching needs ≥ 2 samples for a meaningful target
        // histogram.
        validate_target(target_x, 2)?;
        let mut span = tasfar_obs::span("baseline.adapt");
        span.field("scheme", "Datafree");
        span.field("target_rows", target_x.rows());
        tasfar_obs::metrics::counter("baseline.adapts").incr();
        let cfg = &self.config;
        let (mut features, head) = split_model(model, cfg.split_at);
        let mut opt = Adam::new(cfg.learning_rate);
        let mut rng = Rng::new(cfg.seed);
        let n = target_x.rows();
        let batch = cfg.batch_size.max(16).min(n);
        let steps_per_epoch = (n / batch).max(1);

        for _ in 0..cfg.epochs {
            for _ in 0..steps_per_epoch {
                let idx: Vec<usize> = (0..batch).map(|_| rng.below(n)).collect();
                let xb = target_x.select_rows(&idx);
                let f = features.forward(&xb, cfg.train_mode);
                let mut g_f = Tensor::zeros(f.rows(), f.cols());
                for unit in 0..f.cols() {
                    let col = f.col(unit);
                    let (_, grads) = histogram_loss_and_grad(
                        &self.stats.specs[unit],
                        &self.stats.histograms[unit],
                        &col,
                    );
                    for (r, g) in grads.into_iter().enumerate() {
                        g_f.set(r, unit, g);
                    }
                }
                zero_grad(&mut features);
                features.backward(&g_f);
                opt.step(&mut features);
            }
        }
        rejoin(model, features, head);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasfar_core::metrics;
    use tasfar_nn::init::Init;
    use tasfar_nn::layers::{Dense, Relu, Sequential};
    use tasfar_nn::loss::Mse;
    use tasfar_nn::optim::Adam;
    use tasfar_nn::train::{fit, TrainConfig};

    #[test]
    fn soft_histogram_is_normalised_and_localised() {
        let spec = SoftHistogram::new(0.0, 10.0, 11);
        let h = spec.evaluate(&[5.0, 5.0, 5.0]);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Mass concentrates at the bin containing 5.0 (index 5).
        let peak = h
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 5);
    }

    #[test]
    fn histogram_gradient_matches_finite_differences() {
        let spec = SoftHistogram::new(-2.0, 2.0, 9);
        let q = spec.evaluate(&[-0.5, 0.0, 0.5, 0.2, -0.1]);
        let values = [1.0, -1.5, 0.8];
        let (_, grads) = histogram_loss_and_grad(&spec, &q, &values);
        let eps = 1e-6;
        for i in 0..values.len() {
            let mut plus = values.to_vec();
            plus[i] += eps;
            let mut minus = values.to_vec();
            minus[i] -= eps;
            let (lp, _) = histogram_loss_and_grad(&spec, &q, &plus);
            let (lm, _) = histogram_loss_and_grad(&spec, &q, &minus);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grads[i]).abs() < 1e-6,
                "value {i}: numeric {numeric} vs analytic {}",
                grads[i]
            );
        }
    }

    #[test]
    fn matching_distributions_have_near_zero_gradient_balance() {
        // Values drawn from the same distribution as the source histogram:
        // the loss is near its floor and gradients are small.
        let spec = SoftHistogram::new(-3.0, 3.0, 15);
        let mut rng = Rng::new(1);
        let src: Vec<f64> = (0..2000).map(|_| rng.gaussian(0.0, 1.0)).collect();
        let q = spec.evaluate(&src);
        let tgt: Vec<f64> = (0..2000).map(|_| rng.gaussian(0.0, 1.0)).collect();
        let shifted: Vec<f64> = tgt.iter().map(|v| v + 1.5).collect();
        let (loss_match, _) = histogram_loss_and_grad(&spec, &q, &tgt);
        let (loss_shift, _) = histogram_loss_and_grad(&spec, &q, &shifted);
        assert!(loss_shift > loss_match, "shifted features must cost more");
    }

    #[test]
    fn adapter_repairs_a_measurement_shift() {
        // Source: y = x. Target: the *sensor* reads 2x (a measurement
        // shift) — exactly the gap class histogram restoration can repair.
        let mut rng = Rng::new(2);
        let n = 300;
        let xs = Tensor::rand_uniform(n, 1, -1.0, 1.0, &mut rng);
        let ys = xs.clone();
        let source = Dataset::new(xs, ys);
        let true_y = Tensor::rand_uniform(n, 1, -1.0, 1.0, &mut rng);
        let xt = true_y.scale(2.0); // miscalibrated sensor

        let mut model = Sequential::new()
            .add(Dense::new(1, 16, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(16, 16, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(16, 1, Init::XavierUniform, &mut rng));
        let mut opt = Adam::new(5e-3);
        let _ = fit(
            &mut model,
            &mut opt,
            &Mse,
            &source.x,
            &source.y,
            None,
            &TrainConfig {
                epochs: 150,
                batch_size: 32,
                ..Default::default()
            },
        );
        let stats = record_source_stats(&mut model, &source, 2, 16);
        let before = metrics::mse(&model.predict(&xt), &true_y);
        let adapter = DatafreeAdapter::new(
            BaselineConfig {
                split_at: 2,
                epochs: 60,
                learning_rate: 2e-3,
                ..Default::default()
            },
            stats,
        );
        adapter
            .adapt(&mut model, None, &xt, &Mse)
            .expect("Datafree adaptation succeeds without source data");
        let after = metrics::mse(&model.predict(&xt), &true_y);
        assert!(
            after < before * 0.8,
            "histogram restoration should repair the scale shift: {before:.4} → {after:.4}"
        );
    }

    #[test]
    fn requires_no_source() {
        let spec = SoftHistogram::new(0.0, 1.0, 4);
        let stats = FeatureStats {
            specs: vec![spec.clone()],
            histograms: vec![spec.evaluate(&[0.5])],
        };
        let adapter = DatafreeAdapter::new(BaselineConfig::default(), stats);
        assert!(!DomainAdapter::<Sequential>::requires_source(&adapter));
    }

    #[test]
    fn degenerate_target_batches_are_typed_errors() {
        use tasfar_core::error::ErrorKind;
        let mut rng = Rng::new(3);
        let mut model = Sequential::new()
            .add(Dense::new(1, 4, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(4, 1, Init::XavierUniform, &mut rng));
        let spec = SoftHistogram::new(0.0, 1.0, 4);
        let stats = FeatureStats {
            specs: vec![spec.clone()],
            histograms: vec![spec.evaluate(&[0.5])],
        };
        let adapter = DatafreeAdapter::new(BaselineConfig::default(), stats);

        let err = adapter
            .adapt(&mut model, None, &Tensor::zeros(1, 1), &Mse)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::EmptyTargetBatch);

        let mut poisoned = Tensor::zeros(8, 1);
        poisoned.set(2, 0, f64::NAN);
        let err = adapter
            .adapt(&mut model, None, &poisoned, &Mse)
            .unwrap_err();
        assert_eq!(
            err.kind,
            ErrorKind::NonFiniteInput {
                what: "target batch",
                bad: 1
            }
        );
    }
}
