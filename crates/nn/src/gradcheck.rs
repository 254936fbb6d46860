//! Finite-difference verification of backpropagation.
//!
//! Every layer's `backward` is validated against central differences in the
//! test suite; this module provides the shared machinery. Checks run in a
//! caller-chosen [`Mode`] — use `Eval` for models containing dropout (the
//! stochastic mask would otherwise change between the analytic and numeric
//! passes) and `Train` to exercise batch-statistics paths of batch norm.

use crate::layers::{Layer, Mode, Sequential};
use crate::loss::Loss;
use crate::tensor::Tensor;

/// The worst parameter-gradient discrepancy found by [`check_gradients`].
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_diff: f64,
    /// Largest relative difference (normalised by max(|a|, |n|, 1e-8)).
    pub max_rel_diff: f64,
    /// Number of scalar parameters compared.
    pub checked: usize,
}

/// Rewrites entry `ei` of trainable parameter `pi` (in
/// [`Layer::visit_params`] order) to `f(old)` and returns the old value.
fn update_entry(model: &mut Sequential, pi: usize, ei: usize, f: &dyn Fn(f64) -> f64) -> f64 {
    let mut old = f64::NAN;
    let mut index = 0usize;
    model.visit_params(&mut |p| {
        if index == pi {
            let v = &mut p.value.as_mut_slice()[ei];
            old = *v;
            *v = f(old);
        }
        index += 1;
    });
    old
}

/// Compares analytic parameter gradients against central finite differences.
///
/// Returns `Err` with a diagnostic if any entry's relative difference
/// exceeds `tol`. `eps` is the perturbation size (1e-5 is a good default
/// for f64).
///
/// **Kink handling.** Networks with stacked ReLUs can sit *exactly* on a
/// kink (e.g. a residual TCN block adds two non-negative ReLU outputs, so
/// zero-plus-zero corners occur with nonzero probability). At a corner the
/// central difference returns the average of the two one-sided slopes — for
/// any `eps` — while backprop returns a valid subgradient equal to one of
/// them. When the central difference disagrees, the check therefore falls
/// back to the one-sided derivatives and accepts the analytic value if it
/// matches either side (with a looser tolerance, since one-sided
/// differences are only O(eps)-accurate).
///
/// # Panics
/// Panics if the model is stochastic in the chosen mode (detected as a
/// non-deterministic loss between two identical forward passes).
pub fn check_gradients(
    model: &mut Sequential,
    loss: &dyn Loss,
    x: &Tensor,
    y: &Tensor,
    mode: Mode,
    eps: f64,
    tol: f64,
) -> Result<GradCheckReport, String> {
    // Determinism guard: stochastic layers make the check meaningless.
    let l1 = loss.value(&model.forward(x, mode), y, None);
    let l2 = loss.value(&model.forward(x, mode), y, None);
    assert!(
        (l1 - l2).abs() < 1e-12,
        "check_gradients: model is stochastic in {mode:?} mode; use Mode::Eval or remove dropout"
    );

    // Analytic gradients.
    model.zero_grad();
    let pred = model.forward(x, mode);
    let grad = loss.grad(&pred, y, None);
    model.backward(&grad);
    let mut analytic: Vec<Tensor> = Vec::new();
    model.visit_params(&mut |p| analytic.push(p.grad.clone()));

    let mut report = GradCheckReport {
        max_abs_diff: 0.0,
        max_rel_diff: 0.0,
        checked: 0,
    };
    let mut failure: Option<String> = None;
    let loss_base = l1;
    // One-sided differences lose a factor of ~eps in accuracy; accept a
    // correspondingly looser match when falling back to them at kinks.
    let side_tol = (tol * 100.0).max(1e-3);

    for (pi, grad) in analytic.iter().enumerate() {
        for (ei, &ana) in grad.as_slice().iter().enumerate() {
            // Perturb parameter `pi` entry `ei` in both directions.
            let original = update_entry(model, pi, ei, &|v| v + eps);
            let loss_plus = loss.value(&model.forward(x, mode), y, None);
            update_entry(model, pi, ei, &|_| original - eps);
            let loss_minus = loss.value(&model.forward(x, mode), y, None);
            update_entry(model, pi, ei, &|_| original);

            let numeric = (loss_plus - loss_minus) / (2.0 * eps);
            let abs_diff = (numeric - ana).abs();
            let mut rel_diff = abs_diff / numeric.abs().max(ana.abs()).max(1e-8);
            if rel_diff > tol {
                // Possible kink: compare against each one-sided slope.
                let right = (loss_plus - loss_base) / eps;
                let left = (loss_base - loss_minus) / eps;
                let side_rel = [right, left]
                    .into_iter()
                    .map(|s| (s - ana).abs() / s.abs().max(ana.abs()).max(1e-8))
                    .fold(f64::INFINITY, f64::min);
                if side_rel < side_tol {
                    rel_diff = side_rel.min(rel_diff);
                }
            }
            report.max_abs_diff = report.max_abs_diff.max(abs_diff);
            report.max_rel_diff = report.max_rel_diff.max(rel_diff);
            report.checked += 1;
            if rel_diff > tol && rel_diff >= side_tol && abs_diff > tol * 1e-2 && failure.is_none()
            {
                failure = Some(format!(
                    "param {pi} entry {ei}: analytic {ana:.3e} vs numeric {numeric:.3e} (rel {rel_diff:.3e})"
                ));
            }
        }
    }
    match failure {
        Some(msg) => Err(msg),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{
        BatchNorm1d, Conv1d, Dense, GlobalAvgPool1d, LeakyRelu, Relu, Sigmoid, Tanh, TcnBlock,
    };
    use crate::loss::{Huber, Mae, Mse, Msle};
    use crate::rng::Rng;

    fn data(rng: &mut Rng, n: usize, d_in: usize, d_out: usize) -> (Tensor, Tensor) {
        (
            Tensor::rand_normal(n, d_in, 0.0, 1.0, rng),
            Tensor::rand_normal(n, d_out, 0.5, 1.0, rng),
        )
    }

    #[test]
    fn dense_relu_mlp_gradients() {
        let mut rng = Rng::new(1);
        let mut m = Sequential::new()
            .add(Dense::new(4, 8, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(8, 2, Init::XavierUniform, &mut rng));
        let (x, y) = data(&mut rng, 6, 4, 2);
        let report = check_gradients(&mut m, &Mse, &x, &y, Mode::Eval, 1e-5, 1e-5).unwrap();
        assert!(report.checked > 0);
    }

    #[test]
    fn tanh_sigmoid_leaky_gradients() {
        let mut rng = Rng::new(2);
        let mut m = Sequential::new()
            .add(Dense::new(3, 6, Init::XavierUniform, &mut rng))
            .add(Tanh::new())
            .add(Dense::new(6, 6, Init::XavierUniform, &mut rng))
            .add(Sigmoid::new())
            .add(Dense::new(6, 4, Init::XavierUniform, &mut rng))
            .add(LeakyRelu::new(0.1))
            .add(Dense::new(4, 1, Init::XavierUniform, &mut rng));
        let (x, y) = data(&mut rng, 5, 3, 1);
        check_gradients(&mut m, &Mse, &x, &y, Mode::Eval, 1e-5, 1e-5).unwrap();
    }

    #[test]
    fn conv1d_gradients() {
        let mut rng = Rng::new(3);
        let mut m = Sequential::new()
            .add(Conv1d::new(2, 3, 3, 1, 6, &mut rng))
            .add(Relu::new())
            .add(Conv1d::new(3, 2, 2, 2, 6, &mut rng))
            .add(GlobalAvgPool1d::new(2, 6))
            .add(Dense::new(2, 1, Init::XavierUniform, &mut rng));
        let (x, y) = data(&mut rng, 4, 12, 1);
        check_gradients(&mut m, &Mse, &x, &y, Mode::Eval, 1e-5, 1e-5).unwrap();
    }

    #[test]
    fn tcn_block_gradients() {
        let mut rng = Rng::new(4);
        let mut m = Sequential::new()
            .add(TcnBlock::new(2, 4, 3, 1, 5, 0.0, &mut rng))
            .add(TcnBlock::new(4, 4, 3, 2, 5, 0.0, &mut rng))
            .add(GlobalAvgPool1d::new(4, 5))
            .add(Dense::new(4, 2, Init::XavierUniform, &mut rng));
        let (x, y) = data(&mut rng, 3, 10, 2);
        check_gradients(&mut m, &Mse, &x, &y, Mode::Eval, 1e-5, 1e-4).unwrap();
    }

    #[test]
    fn batchnorm_gradients_in_train_mode() {
        let mut rng = Rng::new(5);
        let mut m = Sequential::new()
            .add(Dense::new(3, 6, Init::HeNormal, &mut rng))
            .add(BatchNorm1d::new(6))
            .add(Relu::new())
            .add(Dense::new(6, 1, Init::XavierUniform, &mut rng));
        let (x, y) = data(&mut rng, 8, 3, 1);
        // Train mode exercises the batch-statistics backward path. The
        // running-moment update between passes changes nothing the loss
        // depends on within a pass, so the check stays valid.
        check_gradients(&mut m, &Mse, &x, &y, Mode::Train, 1e-5, 1e-4).unwrap();
    }

    #[test]
    fn batchnorm_gradients_in_eval_mode() {
        let mut rng = Rng::new(6);
        let mut m = Sequential::new()
            .add(Dense::new(3, 6, Init::HeNormal, &mut rng))
            .add(BatchNorm1d::new(6))
            .add(Dense::new(6, 1, Init::XavierUniform, &mut rng));
        // Warm the running statistics first so eval mode is non-trivial.
        let (x, y) = data(&mut rng, 8, 3, 1);
        let _ = m.forward(&x, Mode::Train);
        check_gradients(&mut m, &Mse, &x, &y, Mode::Eval, 1e-5, 1e-5).unwrap();
    }

    #[test]
    fn all_losses_backprop_correctly_through_a_model() {
        let mut rng = Rng::new(7);
        let losses: Vec<Box<dyn Loss>> = vec![
            Box::new(Mse),
            Box::new(Mae),
            Box::new(Huber::new(0.5)),
            Box::new(Msle),
        ];
        for loss in &losses {
            let mut m = Sequential::new()
                .add(Dense::new(2, 4, Init::HeNormal, &mut rng))
                .add(Tanh::new())
                .add(Dense::new(4, 1, Init::XavierUniform, &mut rng));
            let x = Tensor::rand_normal(5, 2, 0.0, 1.0, &mut rng);
            // Keep targets away from pred to dodge MAE's kink at zero error.
            let y = Tensor::rand_uniform(5, 1, 2.0, 3.0, &mut rng);
            check_gradients(&mut m, loss.as_ref(), &x, &y, Mode::Eval, 1e-6, 1e-4)
                .unwrap_or_else(|e| panic!("{}: {e}", loss.name()));
        }
    }
}
