//! TASFAR as a classification plugin (the paper's Section VI, second
//! future-work direction).
//!
//! "TASFAR may be used to explore the correlation among label classes of a
//! classification task and generate soft pseudo-labels for uncertain data."
//! — TASFAR, Sec. VI.
//!
//! The regression machinery transfers by treating the classifier's *logit
//! vector* as a multi-dimensional regression target, so the plugin is no
//! separate adaptation loop — it is one loss handed to the guarded pipeline:
//!
//! ```text
//! adapt_guarded(model, calib, target_x, &SoftCrossEntropy, cfg, policy)
//! ```
//!
//! The pipeline's per-dimension path estimates one density map per logit
//! from the confident samples (capturing the scenario's class correlations
//! — the "dark knowledge"), pseudo-labels the uncertain samples' logits by
//! posterior interpolation with credibilities combined by geometric mean,
//! and fine-tunes on them plus the confident replay. [`SoftCrossEntropy`]
//! softens both kinds of logit target inside the loss, so the softmax of a
//! pseudo-logit row is the sample's **soft pseudo-label**
//! (`softmax_rows` of the outcome's pseudo values). Running under
//! [`crate::guard::adapt_guarded`] gives the plugin the do-no-harm
//! contract: a poisoned or empty batch, or a diverging fine-tune, falls back
//! to the source model bit for bit. (A two-class classifier goes through
//! the joint 2-D map unless `joint_2d` is off.)
//!
//! As the paper predicts, TASFAR alone is "not expected to show advantages
//! over those approaches in classification tasks" — the tests below verify
//! the mechanism is sound and non-destructive, which is exactly the plugin
//! contract.

use tasfar_nn::loss::Loss;
use tasfar_nn::tensor::Tensor;

/// Numerically stable row-wise softmax.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    let mut out = logits.clone();
    for row in out.as_mut_slice().chunks_exact_mut(logits.cols().max(1)) {
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut total = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            total += *v;
        }
        for v in row.iter_mut() {
            *v /= total;
        }
    }
    out
}

/// Soft-target cross-entropy over logits, with per-sample weights.
///
/// Both `pred` and `target` rows are logits: the target is softened with
/// [`softmax_rows`] into a probability vector (a soft label) inside the
/// loss, so the pipeline can hand over pseudo-logits and confident-replay
/// logits unchanged. The gradient is the classic
/// `softmax(pred) − softmax(target)`, scaled per sample like the other
/// losses in this workspace.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftCrossEntropy;

impl Loss for SoftCrossEntropy {
    fn name(&self) -> &'static str {
        "soft_ce"
    }

    fn per_sample(&self, pred: &Tensor, target: &Tensor) -> Vec<f64> {
        assert_eq!(pred.shape(), target.shape(), "soft_ce: shape mismatch");
        let probs = softmax_rows(pred);
        let soft = softmax_rows(target);
        probs
            .iter_rows()
            .zip(soft.iter_rows())
            .map(|(p, t)| {
                p.iter()
                    .zip(t)
                    .map(|(&pi, &ti)| -ti * pi.max(1e-12).ln())
                    .sum()
            })
            .collect()
    }

    fn grad(&self, pred: &Tensor, target: &Tensor, weights: Option<&[f64]>) -> Tensor {
        assert_eq!(pred.shape(), target.shape(), "soft_ce: shape mismatch");
        let batch = pred.rows();
        let scales: Vec<f64> = match weights {
            None => vec![1.0 / batch.max(1) as f64; batch],
            Some(w) => {
                assert_eq!(w.len(), batch, "soft_ce: weight length mismatch");
                let total: f64 = w.iter().sum();
                assert!(total > 0.0, "soft_ce: weights must not sum to zero");
                w.iter().map(|&wi| wi / total).collect()
            }
        };
        let mut g = softmax_rows(pred).sub(&softmax_rows(target));
        for (row, &s) in g
            .as_mut_slice()
            .chunks_exact_mut(pred.cols().max(1))
            .zip(&scales)
        {
            for v in row {
                *v *= s;
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::{calibrate_on_source, TasfarConfig};
    use crate::error::ErrorKind;
    use crate::guard::{adapt_guarded, GuardedOutcome, RecoveryPolicy};
    use tasfar_data::Dataset;
    use tasfar_nn::prelude::*;

    #[test]
    fn softmax_rows_is_a_distribution() {
        let logits = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&logits);
        for row in p.iter_rows() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&v| v > 0.0));
        }
        // Largest logit gets the largest probability.
        assert!(p.get(0, 2) > p.get(0, 1) && p.get(0, 1) > p.get(0, 0));
    }

    #[test]
    fn softmax_is_stable_for_huge_logits() {
        let logits = Tensor::from_rows(&[vec![1000.0, 999.0], vec![-1000.0, -1001.0]]);
        let p = softmax_rows(&logits);
        assert!(p.all_finite());
        assert!(p.get(0, 0) > p.get(0, 1));
    }

    #[test]
    fn soft_ce_gradient_matches_finite_differences() {
        let pred = Tensor::from_rows(&[vec![0.3, -0.7, 1.1], vec![2.0, 0.1, -0.4]]);
        // Logit targets: the loss softens them itself.
        let target = Tensor::from_rows(&[vec![1.2, -0.1, -0.8], vec![-1.0, -0.9, 1.3]]);
        let w = [1.0, 2.0];
        let loss = SoftCrossEntropy;
        let g = loss.grad(&pred, &target, Some(&w));
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = pred.clone();
                plus.set(r, c, pred.get(r, c) + eps);
                let mut minus = pred.clone();
                minus.set(r, c, pred.get(r, c) - eps);
                let num = (loss.value(&plus, &target, Some(&w))
                    - loss.value(&minus, &target, Some(&w)))
                    / (2.0 * eps);
                assert!(
                    (num - g.get(r, c)).abs() < 1e-7,
                    "({r},{c}): numeric {num} vs {}",
                    g.get(r, c)
                );
            }
        }
    }

    /// A 3-class toy classifier with a target scenario whose class prior is
    /// skewed; the plugin should run end-to-end and not destroy accuracy
    /// (the paper's stated expectation for TASFAR-alone on classification),
    /// and a poisoned or empty batch must fall back to the source bits.
    #[test]
    fn plugin_is_sound_and_non_destructive() {
        let mut rng = Rng::new(21);
        let k = 3;
        // Class centres in 2-D input space.
        let centres = [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.5)];
        let gen = |n: usize, prior: [f64; 3], hard_p: f64, rng: &mut Rng| {
            let mut x = Tensor::zeros(n, 2);
            let mut y = Tensor::zeros(n, k); // one-hot logit targets
            let mut labels = Vec::with_capacity(n);
            for i in 0..n {
                let c = rng.weighted_index(&prior);
                let (cx, cy) = centres[c];
                let noise = if rng.bernoulli(hard_p) { 0.9 } else { 0.25 };
                x.set(i, 0, cx + rng.gaussian(0.0, noise));
                x.set(i, 1, cy + rng.gaussian(0.0, noise));
                // Regress to scaled one-hot logits.
                for j in 0..k {
                    y.set(i, j, if j == c { 3.0 } else { -3.0 });
                }
                labels.push(c);
            }
            (x, y, labels)
        };
        let (xs, ys, _) = gen(900, [1.0, 1.0, 1.0], 0.05, &mut rng);
        let source = Dataset::new(xs, ys);
        let mut model = Sequential::new()
            .add(Dense::new(2, 32, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dropout::new(0.2, &mut rng))
            .add(Dense::new(32, k, Init::XavierUniform, &mut rng));
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
                ..TrainConfig::default()
            },
        );

        let cfg = TasfarConfig {
            grid_cell: 0.25,
            epochs: 40,
            learning_rate: 5e-4,
            early_stop: None,
            ..TasfarConfig::default()
        };
        let calib = calibrate_on_source(&mut model, &source, &cfg).unwrap();

        // Target scenario: class 2 dominates, 40 % hard inputs.
        let (xt, _, labels) = gen(400, [0.15, 0.15, 0.7], 0.4, &mut rng);
        let accuracy = |m: &mut Sequential| {
            let probs = softmax_rows(&m.predict(&xt));
            let correct = probs
                .iter_rows()
                .zip(&labels)
                .filter(|(row, &c)| {
                    let argmax = row
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .unwrap()
                        .0;
                    argmax == c
                })
                .count();
            correct as f64 / labels.len() as f64
        };
        let before = accuracy(&mut model);
        let policy = RecoveryPolicy::default();
        let outcome = adapt_guarded(&mut model, &calib, &xt, &SoftCrossEntropy, &cfg, &policy);
        let after = accuracy(&mut model);

        let adapted = outcome
            .adaptation()
            .unwrap_or_else(|| panic!("the plugin should adapt: {}", outcome.label()));
        assert!(
            !adapted.split.uncertain.is_empty(),
            "uncertain samples should exist"
        );
        // Soft labels (the softmax of the pseudo-logits) are valid
        // distributions.
        let pseudo_logits: Vec<Vec<f64>> = adapted.pseudo.iter().map(|p| p.value.clone()).collect();
        for row in softmax_rows(&Tensor::from_rows(&pseudo_logits)).iter_rows() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert!(adapted
            .pseudo
            .iter()
            .all(|p| p.credibility >= 0.0 && p.credibility.is_finite()));
        // The paper's contract: the plugin must not destroy accuracy.
        assert!(
            after >= before - 0.03,
            "plugin degraded accuracy too much: {before:.3} → {after:.3}"
        );

        // Do-no-harm: one NaN row poisons nothing — the guard falls back
        // and predictions keep their bits.
        let bits = |m: &mut Sequential| -> Vec<u64> {
            m.predict(&xt)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let reference = bits(&mut model);
        let mut poisoned = xt.clone();
        poisoned.set(7, 0, f64::NAN);
        poisoned.set(7, 1, f64::NAN);
        let outcome = adapt_guarded(
            &mut model,
            &calib,
            &poisoned,
            &SoftCrossEntropy,
            &cfg,
            &policy,
        );
        assert!(
            matches!(
                &outcome,
                GuardedOutcome::FellBackToSource { error, .. }
                    if matches!(error.kind, ErrorKind::NonFiniteInput { .. })
            ),
            "poisoned batch: {outcome:?}"
        );
        assert_eq!(bits(&mut model), reference, "fallback must keep the bits");

        // An empty batch is a typed fallback, not a panic.
        let empty = Tensor::zeros(0, 2);
        let outcome = adapt_guarded(&mut model, &calib, &empty, &SoftCrossEntropy, &cfg, &policy);
        assert!(
            matches!(
                &outcome,
                GuardedOutcome::FellBackToSource { error, .. }
                    if error.kind == ErrorKind::EmptyTargetBatch
            ),
            "empty batch: {outcome:?}"
        );
        assert_eq!(bits(&mut model), reference);
    }
}
