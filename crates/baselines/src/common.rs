//! Shared machinery for the comparison schemes.
//!
//! Every baseline views the regressor as `feature extractor ∘ head`, split
//! at a layer index. Because layers cache their last forward pass, source
//! and target batches are always pushed through the feature extractor as
//! *one* concatenated batch and the gradients are reassembled before the
//! single backward call.

use tasfar_core::error::{AdaptError, ErrorKind};
use tasfar_data::Dataset;
use tasfar_nn::layers::{Layer, Mode};
use tasfar_nn::loss::Loss;
use tasfar_nn::model::SplitRegressor;
use tasfar_nn::tensor::Tensor;

/// Uniform interface over the comparison schemes, so the benchmark harness
/// can sweep them. `source` is `Some` only for the source-based UDA schemes
/// (MMD, ADV); the source-free schemes ignore it and must work with `None`.
///
/// Generic over any [`SplitRegressor`] — the schemes only need the model to
/// decompose into a trainable feature extractor and head, never a concrete
/// network type. `Box<dyn DomainAdapter<Sequential>>` remains usable for
/// heterogeneous scheme lists (`Sequential` being `tasfar_nn`'s network
/// container).
pub trait DomainAdapter<M: SplitRegressor> {
    /// Scheme name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Whether the scheme needs the source dataset at adaptation time.
    fn requires_source(&self) -> bool;

    /// Adapts `model` in place using unlabeled `target_x` (and the source
    /// dataset when the scheme is source-based).
    ///
    /// # Errors
    /// [`ErrorKind::MissingSource`] when a source-based scheme runs without
    /// source data, [`ErrorKind::EmptyTargetBatch`] /
    /// [`ErrorKind::NonFiniteInput`] on unusable target batches — the same
    /// taxonomy the TASFAR pipeline reports, so the benchmark harness
    /// handles every scheme's failures uniformly.
    fn adapt(
        &self,
        model: &mut M,
        source: Option<&Dataset>,
        target_x: &Tensor,
        loss: &dyn Loss,
    ) -> Result<(), AdaptError>;
}

/// Pre-flight validation shared by the baseline adapters: the target batch
/// must have at least `min_rows` rows (≥ 1) and contain only finite values.
pub fn validate_target(target_x: &Tensor, min_rows: usize) -> Result<(), AdaptError> {
    if target_x.rows() < min_rows.max(1) {
        return Err(AdaptError::new(ErrorKind::EmptyTargetBatch));
    }
    let bad = target_x
        .as_slice()
        .iter()
        .filter(|v| !v.is_finite())
        .count();
    if bad > 0 {
        return Err(AdaptError::new(ErrorKind::NonFiniteInput {
            what: "target batch",
            bad,
        }));
    }
    Ok(())
}

/// Unwraps the source dataset a source-based scheme needs, or reports the
/// typed [`ErrorKind::MissingSource`] failure.
pub fn require_source<'a>(
    source: Option<&'a Dataset>,
    baseline: &'static str,
) -> Result<&'a Dataset, AdaptError> {
    source.ok_or(AdaptError::new(ErrorKind::MissingSource { baseline }))
}

/// Hyper-parameters shared by the baseline training loops.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Layer index splitting the model into feature extractor and head.
    pub split_at: usize,
    /// Adaptation epochs.
    pub epochs: usize,
    /// Mini-batch size (per domain for the two-domain schemes).
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Shuffling / augmentation seed.
    pub seed: u64,
    /// Forward mode used during adaptation training. Defaults to `Eval`
    /// (dropout off): all four schemes fine-tune against objectives that
    /// are fixed functions of the current model (self-/teacher targets,
    /// feature statistics), where active dropout turns the loss into
    /// output-variance suppression and degrades the model — the same
    /// pathology the TASFAR trainer avoids.
    pub train_mode: Mode,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            split_at: 2,
            epochs: 30,
            batch_size: 32,
            learning_rate: 5e-4,
            seed: 0,
            train_mode: Mode::Eval,
        }
    }
}

/// Splits a model into `(features, head)` at `split_at` without copying
/// parameters (the pieces are moved out and must be rejoined with
/// [`rejoin`]), validating the index against the model's depth first.
pub fn split_model<M: SplitRegressor>(model: &mut M, split_at: usize) -> (M::Part, M::Part) {
    assert!(
        split_at > 0 && split_at < model.depth(),
        "split_model: split_at ({split_at}) must be inside the {}-layer chain",
        model.depth()
    );
    model.split(split_at)
}

/// Rejoins the pieces produced by [`split_model`] back into `model`.
pub fn rejoin<M: SplitRegressor>(model: &mut M, features: M::Part, head: M::Part) {
    model.rejoin(features, head);
}

/// Zeroes the accumulated gradients of any trainable [`Layer`] (model
/// parts included).
pub fn zero_grad<L: Layer + ?Sized>(layer: &mut L) {
    layer.visit_params(&mut |p| p.zero_grad());
}

/// Numerically stable logistic sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy of logits against {0, 1} labels, with its gradient
/// with respect to the logits. Returns `(loss, grad)`.
///
/// # Panics
/// Panics if shapes disagree or `logits` is empty.
pub fn bce_with_logits(logits: &Tensor, labels: &[f64]) -> (f64, Tensor) {
    assert_eq!(logits.rows(), labels.len(), "bce: row mismatch");
    assert_eq!(logits.cols(), 1, "bce: logits must be a column");
    assert!(!labels.is_empty(), "bce: empty batch");
    let n = labels.len() as f64;
    let mut loss = 0.0;
    let mut grad = Tensor::zeros(logits.rows(), 1);
    for (i, (&label, row)) in labels.iter().zip(logits.iter_rows()).enumerate() {
        let z = row[0];
        let p = sigmoid(z);
        // Stable: log(1+e^{-|z|}) + max(z,0) − z·label
        loss += (1.0 + (-z.abs()).exp()).ln() + z.max(0.0) - z * label;
        grad.set(i, 0, (p - label) / n);
    }
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasfar_nn::init::Init;
    use tasfar_nn::layers::{Dense, Relu, Sequential};
    use tasfar_nn::rng::Rng;

    fn mlp(rng: &mut Rng) -> Sequential {
        Sequential::new()
            .add(Dense::new(3, 8, Init::HeNormal, rng))
            .add(Relu::new())
            .add(Dense::new(8, 1, Init::XavierUniform, rng))
    }

    #[test]
    fn split_and_rejoin_roundtrip() {
        let mut rng = Rng::new(1);
        let mut model = mlp(&mut rng);
        let mut reference = model.clone();
        let x = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);
        let before = reference.forward(&x, Mode::Eval);
        let (features, head) = split_model(&mut model, 2);
        rejoin(&mut model, features, head);
        assert_eq!(model.forward(&x, Mode::Eval), before);
    }

    #[test]
    #[should_panic(expected = "split_model")]
    fn split_at_zero_panics() {
        let mut rng = Rng::new(2);
        let mut model = mlp(&mut rng);
        split_model(&mut model, 0);
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(1000.0) <= 1.0 && sigmoid(1000.0) > 0.999);
        assert!(sigmoid(-1000.0) >= 0.0 && sigmoid(-1000.0) < 1e-300);
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn bce_perfect_predictions_have_low_loss() {
        let logits = Tensor::from_vec(2, 1, vec![20.0, -20.0]);
        let (loss, grad) = bce_with_logits(&logits, &[1.0, 0.0]);
        assert!(loss < 1e-6);
        assert!(grad.frobenius_norm() < 1e-6);
    }

    #[test]
    fn bce_gradient_matches_finite_differences() {
        let logits = Tensor::from_vec(3, 1, vec![0.5, -1.2, 2.0]);
        let labels = [1.0, 0.0, 1.0];
        let (_, grad) = bce_with_logits(&logits, &labels);
        let eps = 1e-6;
        for i in 0..3 {
            let mut plus = logits.clone();
            plus.set(i, 0, logits.get(i, 0) + eps);
            let mut minus = logits.clone();
            minus.set(i, 0, logits.get(i, 0) - eps);
            let (lp, _) = bce_with_logits(&plus, &labels);
            let (lm, _) = bce_with_logits(&minus, &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - grad.get(i, 0)).abs() < 1e-6);
        }
    }

    #[test]
    fn bce_chance_level_is_log2() {
        let logits = Tensor::zeros(4, 1);
        let (loss, _) = bce_with_logits(&logits, &[0.0, 1.0, 0.0, 1.0]);
        assert!((loss - std::f64::consts::LN_2).abs() < 1e-12);
    }
}
