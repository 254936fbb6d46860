//! Adversarial source-based UDA (the paper's "ADV" comparison, after Tzeng
//! et al., *Adversarial Discriminative Domain Adaptation*).
//!
//! A domain discriminator learns to tell source features from target
//! features; the feature extractor receives the *reversed* discriminator
//! gradient (DANN-style gradient reversal), pushing the two feature
//! distributions together while the head keeps fitting the supervised source
//! loss. Like MMD, this is source-based and serves as an upper reference.

use crate::common::{
    bce_with_logits, rejoin, require_source, split_model, validate_target, zero_grad,
    BaselineConfig, DomainAdapter,
};
use tasfar_core::error::AdaptError;
use tasfar_data::Dataset;
use tasfar_nn::init::Init;
use tasfar_nn::layers::{Dense, Layer, Mode, Relu, Sequential};
use tasfar_nn::loss::Loss;
use tasfar_nn::model::SplitRegressor;
use tasfar_nn::optim::{Adam, Optimizer};
use tasfar_nn::rng::Rng;
use tasfar_nn::tensor::Tensor;

/// The adversarial adapter.
#[derive(Debug, Clone)]
pub struct AdvAdapter {
    /// Shared training hyper-parameters.
    pub config: BaselineConfig,
    /// Gradient-reversal strength λ.
    pub lambda: f64,
    /// Hidden width of the domain discriminator.
    pub disc_hidden: usize,
}

impl AdvAdapter {
    /// An adapter with the given config, reversal strength, and
    /// discriminator width.
    pub fn new(config: BaselineConfig, lambda: f64, disc_hidden: usize) -> Self {
        assert!(lambda >= 0.0, "AdvAdapter: lambda must be non-negative");
        assert!(disc_hidden > 0, "AdvAdapter: disc_hidden must be positive");
        AdvAdapter {
            config,
            lambda,
            disc_hidden,
        }
    }

    fn build_discriminator(&self, feature_dim: usize, rng: &mut Rng) -> Sequential {
        Sequential::new()
            .add(Dense::new(
                feature_dim,
                self.disc_hidden,
                Init::HeNormal,
                rng,
            ))
            .add(Relu::new())
            .add(Dense::new(self.disc_hidden, 1, Init::XavierUniform, rng))
    }
}

impl<M: SplitRegressor> DomainAdapter<M> for AdvAdapter {
    fn name(&self) -> &'static str {
        "ADV"
    }

    fn requires_source(&self) -> bool {
        true
    }

    fn adapt(
        &self,
        model: &mut M,
        source: Option<&Dataset>,
        target_x: &Tensor,
        loss: &dyn Loss,
    ) -> Result<(), AdaptError> {
        let source = require_source(source, "adv")?;
        // The discriminator needs ≥ 2 samples per domain.
        validate_target(target_x, 2)?;
        let mut span = tasfar_obs::span("baseline.adapt");
        span.field("scheme", "ADV");
        span.field("target_rows", target_x.rows());
        tasfar_obs::metrics::counter("baseline.adapts").incr();
        let cfg = &self.config;
        let (mut features, mut head) = split_model(model, cfg.split_at);
        let mut rng = Rng::new(cfg.seed);
        let feature_dim = {
            // Probe the feature width with a single sample.
            let probe = features.forward(&source.x.slice_rows(0, 1), Mode::Eval);
            probe.cols()
        };
        let mut discriminator = self.build_discriminator(feature_dim, &mut rng);

        let mut opt_feat = Adam::new(cfg.learning_rate);
        let mut opt_head = Adam::new(cfg.learning_rate);
        let mut opt_disc = Adam::new(cfg.learning_rate * 2.0);

        let ns = source.len();
        let nt = target_x.rows();
        // One "epoch" is one pass over the target set; source batches are
        // drawn with replacement. This keeps the adaptation cost driven by
        // the (small) target set rather than the large source dataset.
        let steps_per_epoch = (nt / cfg.batch_size).max(1);

        for _ in 0..cfg.epochs {
            for _ in 0..steps_per_epoch {
                let src_idx: Vec<usize> =
                    (0..cfg.batch_size.min(ns)).map(|_| rng.below(ns)).collect();
                let tgt_idx: Vec<usize> =
                    (0..cfg.batch_size.min(nt)).map(|_| rng.below(nt)).collect();
                let xs = source.x.select_rows(&src_idx);
                let ys = source.y.select_rows(&src_idx);
                let xt = target_x.select_rows(&tgt_idx);
                let nsb = xs.rows();

                // --- 1. discriminator step (features frozen) -------------
                let z = features.forward(&Tensor::vstack(&[&xs, &xt]), cfg.train_mode);
                let mut domain_labels = vec![1.0; nsb];
                domain_labels.extend(vec![0.0; z.rows() - nsb]);
                let logits = discriminator.forward(&z, cfg.train_mode);
                let (_, g_logits) = bce_with_logits(&logits, &domain_labels);
                discriminator.zero_grad();
                let g_z_disc = discriminator.backward(&g_logits);
                opt_disc.step(&mut discriminator);

                // --- 2. feature/head step with reversed domain gradient --
                // The discriminator just moved, but its gradient w.r.t. the
                // features (g_z_disc) is a serviceable confusion signal; the
                // reversal pushes features toward the decision boundary.
                let fs = z.slice_rows(0, nsb);
                let pred = head.forward(&fs, cfg.train_mode);
                let g_task = loss.grad(&pred, &ys, None);
                zero_grad(&mut features);
                zero_grad(&mut head);
                let g_fs_task = head.backward(&g_task);

                let mut g_z = g_z_disc.scale(-self.lambda); // gradient reversal
                for (row, g_extra) in g_z
                    .as_mut_slice()
                    .chunks_exact_mut(feature_dim)
                    .take(nsb)
                    .zip(g_fs_task.iter_rows())
                {
                    for (g, &e) in row.iter_mut().zip(g_extra) {
                        *g += e;
                    }
                }
                features.backward(&g_z);
                opt_feat.step(&mut features);
                opt_head.step(&mut head);
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
    use tasfar_nn::loss::Mse;
    use tasfar_nn::train::{fit, TrainConfig};

    fn pretrained_setup(rng: &mut Rng) -> (Sequential, Dataset, Tensor, Tensor) {
        // Source: y = x on [−1, 1]. Target: inputs shifted by +2.
        let n = 200;
        let xs = Tensor::rand_uniform(n, 1, -1.0, 1.0, rng);
        let ys = xs.clone();
        let source = Dataset::new(xs, ys);
        let xt = Tensor::rand_uniform(n, 1, -1.0, 1.0, rng).map(|v| v + 2.0);
        let yt = xt.map(|v| v - 2.0);
        let mut model = Sequential::new()
            .add(Dense::new(1, 16, Init::HeNormal, rng))
            .add(Relu::new())
            .add(Dense::new(16, 16, Init::HeNormal, rng))
            .add(Relu::new())
            .add(Dense::new(16, 1, Init::XavierUniform, rng));
        let mut opt = Adam::new(5e-3);
        let _ = fit(
            &mut model,
            &mut opt,
            &Mse,
            &source.x,
            &source.y,
            None,
            &TrainConfig {
                epochs: 120,
                batch_size: 32,
                ..Default::default()
            },
        );
        (model, source, xt, yt)
    }

    #[test]
    fn adapter_reduces_target_error_on_shifted_domain() {
        let mut rng = Rng::new(1);
        let (mut model, source, xt, yt) = pretrained_setup(&mut rng);
        let before = metrics::mse(&model.predict(&xt), &yt);
        let adapter = AdvAdapter::new(
            BaselineConfig {
                split_at: 4,
                epochs: 40,
                learning_rate: 1e-3,
                ..Default::default()
            },
            0.3,
            16,
        );
        adapter
            .adapt(&mut model, Some(&source), &xt, &Mse)
            .expect("ADV adaptation with source data succeeds");
        let after = metrics::mse(&model.predict(&xt), &yt);
        assert!(
            after < before,
            "ADV adaptation should reduce target MSE: {before:.4} → {after:.4}"
        );
    }

    #[test]
    fn source_accuracy_is_retained() {
        let mut rng = Rng::new(2);
        let (mut model, source, xt, _) = pretrained_setup(&mut rng);
        let adapter = AdvAdapter::new(
            BaselineConfig {
                split_at: 4,
                epochs: 30,
                learning_rate: 1e-3,
                ..Default::default()
            },
            0.3,
            16,
        );
        adapter
            .adapt(&mut model, Some(&source), &xt, &Mse)
            .expect("ADV adaptation with source data succeeds");
        let src_mse = metrics::mse(&model.predict(&source.x), &source.y);
        assert!(
            src_mse < 0.1,
            "the supervised source loss keeps source accuracy, got MSE {src_mse:.4}"
        );
    }

    #[test]
    fn missing_source_is_a_typed_error() {
        use tasfar_core::error::ErrorKind;
        let mut rng = Rng::new(3);
        let mut model = Sequential::new()
            .add(Dense::new(1, 4, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(4, 1, Init::XavierUniform, &mut rng));
        let adapter = AdvAdapter::new(BaselineConfig::default(), 0.3, 8);
        let err = adapter
            .adapt(&mut model, None, &Tensor::zeros(4, 1), &Mse)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::MissingSource { baseline: "adv" });
        assert!(!err.recoverable());
    }
}
