//! MMD-based source-based UDA (the paper's "MMD" comparison, after Long et
//! al., *Deep Transfer Learning with Joint Adaptation Networks*).
//!
//! Jointly minimises the supervised source loss and the squared maximum mean
//! discrepancy between source and target features under an RBF kernel:
//!
//! ```text
//! L = L_task(head(φ(x_s)), y_s) + λ · MMD²(φ(x_s), φ(x_t))
//! ```
//!
//! This is *source-based*: the source dataset must be present at adaptation
//! time — the storage/privacy cost TASFAR exists to avoid. It serves as the
//! upper-reference comparison in every experiment.

use crate::common::{
    rejoin, require_source, split_model, validate_target, zero_grad, BaselineConfig, DomainAdapter,
};
use tasfar_core::error::AdaptError;
use tasfar_data::Dataset;
use tasfar_nn::layers::Layer;
use tasfar_nn::loss::Loss;
use tasfar_nn::model::SplitRegressor;
use tasfar_nn::optim::{Adam, Optimizer};
use tasfar_nn::rng::Rng;
use tasfar_nn::tensor::Tensor;

/// The MMD adapter.
#[derive(Debug, Clone)]
pub struct MmdAdapter {
    /// Shared training hyper-parameters.
    pub config: BaselineConfig,
    /// Weight λ of the MMD² term.
    pub lambda: f64,
}

impl MmdAdapter {
    /// An adapter with the given config and MMD weight.
    pub fn new(config: BaselineConfig, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "MmdAdapter: lambda must be non-negative");
        MmdAdapter { config, lambda }
    }
}

/// Squared MMD between two feature batches under a single-bandwidth RBF
/// kernel (median heuristic), together with its gradients with respect to
/// each batch. Returns `(mmd², grad_a, grad_b)`.
///
/// The bandwidth is treated as a constant when differentiating — standard
/// practice (the median heuristic is re-evaluated per batch but not
/// back-propagated through).
pub fn mmd_sq_with_grad(a: &Tensor, b: &Tensor) -> (f64, Tensor, Tensor) {
    let gamma_sq = median_sq_distance(a, b).max(1e-9);
    mmd_sq_with_grad_fixed(a, b, gamma_sq)
}

/// [`mmd_sq_with_grad`] with an explicit RBF bandwidth `γ²`.
///
/// # Panics
/// Panics if widths disagree, either batch has fewer than 2 rows, or
/// `gamma_sq <= 0`.
pub fn mmd_sq_with_grad_fixed(a: &Tensor, b: &Tensor, gamma_sq: f64) -> (f64, Tensor, Tensor) {
    assert_eq!(a.cols(), b.cols(), "mmd: feature widths differ");
    assert!(
        a.rows() > 1 && b.rows() > 1,
        "mmd: need ≥2 samples per domain"
    );
    assert!(gamma_sq > 0.0, "mmd: bandwidth must be positive");

    let (na, nb) = (a.rows() as f64, b.rows() as f64);
    let mut value = 0.0;
    let mut grad_a = Tensor::zeros(a.rows(), a.cols());
    let mut grad_b = Tensor::zeros(b.rows(), b.cols());

    // k(x, y) = exp(−‖x−y‖² / γ²);  ∂k/∂x = k · 2(y−x)/γ².
    let mut accumulate =
        |xs: &Tensor, ys: &Tensor, gx: &mut Tensor, gy: Option<&mut Tensor>, coeff: f64| {
            let mut gy = gy;
            for (i, xi) in xs.iter_rows().enumerate() {
                for (j, yj) in ys.iter_rows().enumerate() {
                    let d2: f64 = xi.iter().zip(yj).map(|(&p, &q)| (p - q).powi(2)).sum();
                    let k = (-d2 / gamma_sq).exp();
                    value += coeff * k;
                    let scale = coeff * k * 2.0 / gamma_sq;
                    {
                        let gx_row = gx.row_mut(i);
                        for ((g, &p), &q) in gx_row.iter_mut().zip(xi).zip(yj) {
                            *g += scale * (q - p);
                        }
                    }
                    if let Some(gy) = gy.as_deref_mut() {
                        let gy_row = gy.row_mut(j);
                        for ((g, &q), &p) in gy_row.iter_mut().zip(yj).zip(xi) {
                            *g += scale * (p - q);
                        }
                    }
                }
            }
        };

    accumulate(a, &a.clone(), &mut grad_a, None, 1.0 / (na * na));
    // Within-domain terms: each ordered pair is visited once per side, and
    // by symmetry the gradient of the (i,j) term w.r.t. xi equals that of
    // (j,i), so a factor 2 replaces the missing `gy` accumulation.
    grad_a.scale_assign(2.0);
    let mut grad_b_within = Tensor::zeros(b.rows(), b.cols());
    accumulate(b, &b.clone(), &mut grad_b_within, None, 1.0 / (nb * nb));
    grad_b_within.scale_assign(2.0);
    grad_b.add_assign(&grad_b_within);
    accumulate(a, b, &mut grad_a, Some(&mut grad_b), -2.0 / (na * nb));

    (value, grad_a, grad_b)
}

/// Median squared pairwise distance between the two batches (the RBF
/// bandwidth heuristic).
fn median_sq_distance(a: &Tensor, b: &Tensor) -> f64 {
    let mut d2s = Vec::with_capacity(a.rows() * b.rows());
    for xi in a.iter_rows() {
        for yj in b.iter_rows() {
            d2s.push(xi.iter().zip(yj).map(|(&p, &q)| (p - q).powi(2)).sum());
        }
    }
    d2s.sort_by(f64::total_cmp);
    d2s[d2s.len() / 2]
}

impl<M: SplitRegressor> DomainAdapter<M> for MmdAdapter {
    fn name(&self) -> &'static str {
        "MMD"
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
        let source = require_source(source, "mmd")?;
        // The MMD estimator needs ≥ 2 samples per domain.
        validate_target(target_x, 2)?;
        let mut span = tasfar_obs::span("baseline.adapt");
        span.field("scheme", "MMD");
        span.field("target_rows", target_x.rows());
        tasfar_obs::metrics::counter("baseline.adapts").incr();
        let cfg = &self.config;
        let (mut features, mut head) = split_model(model, cfg.split_at);
        let mut opt_feat = Adam::new(cfg.learning_rate);
        let mut opt_head = Adam::new(cfg.learning_rate);
        let mut rng = Rng::new(cfg.seed);

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

                // One concatenated pass keeps the layer caches coherent.
                let z = features.forward(&Tensor::vstack(&[&xs, &xt]), cfg.train_mode);
                let fs = z.slice_rows(0, nsb);
                let ft = z.slice_rows(nsb, z.rows());

                let pred = head.forward(&fs, cfg.train_mode);
                let g_task = loss.grad(&pred, &ys, None);
                zero_grad(&mut features);
                zero_grad(&mut head);
                let g_fs_task = head.backward(&g_task);

                let (_, g_fs_mmd, g_ft_mmd) = mmd_sq_with_grad(&fs, &ft);
                let mut g_fs = g_fs_task;
                g_fs.axpy(self.lambda, &g_fs_mmd);
                let g_ft = g_ft_mmd.scale(self.lambda);

                let g_z = Tensor::vstack(&[&g_fs, &g_ft]);
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
    use tasfar_nn::init::Init;
    use tasfar_nn::layers::{Dense, Relu, Sequential};

    #[test]
    fn mmd_of_identical_batches_is_zero() {
        let mut rng = Rng::new(1);
        let a = Tensor::rand_normal(16, 4, 0.0, 1.0, &mut rng);
        let (v, ga, gb) = mmd_sq_with_grad(&a, &a);
        assert!(v.abs() < 1e-9, "mmd² {v}");
        // Gradients of a symmetric configuration cancel.
        assert!(ga.add(&gb).frobenius_norm() < 1e-9);
    }

    #[test]
    fn mmd_detects_mean_shift() {
        let mut rng = Rng::new(2);
        let a = Tensor::rand_normal(32, 3, 0.0, 1.0, &mut rng);
        let b_near = Tensor::rand_normal(32, 3, 0.3, 1.0, &mut rng);
        let b_far = Tensor::rand_normal(32, 3, 3.0, 1.0, &mut rng);
        let (v_near, _, _) = mmd_sq_with_grad(&a, &b_near);
        let (v_far, _, _) = mmd_sq_with_grad(&a, &b_far);
        assert!(
            v_far > v_near,
            "mmd should grow with the shift: {v_far} vs {v_near}"
        );
        assert!(v_near > 0.0);
    }

    #[test]
    fn mmd_gradients_match_finite_differences() {
        let mut rng = Rng::new(3);
        let a = Tensor::rand_normal(5, 2, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(6, 2, 0.5, 1.0, &mut rng);
        // Fix the bandwidth so the analytic gradient (which treats γ as a
        // constant) is the exact derivative being probed.
        let gamma_sq = 1.7;
        let (_, ga, gb) = mmd_sq_with_grad_fixed(&a, &b, gamma_sq);
        let eps = 1e-6;
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                let mut plus = a.clone();
                plus.set(r, c, a.get(r, c) + eps);
                let mut minus = a.clone();
                minus.set(r, c, a.get(r, c) - eps);
                let (vp, _, _) = mmd_sq_with_grad_fixed(&plus, &b, gamma_sq);
                let (vm, _, _) = mmd_sq_with_grad_fixed(&minus, &b, gamma_sq);
                let num = (vp - vm) / (2.0 * eps);
                assert!(
                    (num - ga.get(r, c)).abs() < 1e-5,
                    "grad_a ({r},{c}): numeric {num} vs {}",
                    ga.get(r, c)
                );
            }
        }
        for r in 0..b.rows() {
            for c in 0..b.cols() {
                let mut plus = b.clone();
                plus.set(r, c, b.get(r, c) + eps);
                let mut minus = b.clone();
                minus.set(r, c, b.get(r, c) - eps);
                let (vp, _, _) = mmd_sq_with_grad_fixed(&a, &plus, gamma_sq);
                let (vm, _, _) = mmd_sq_with_grad_fixed(&a, &minus, gamma_sq);
                let num = (vp - vm) / (2.0 * eps);
                assert!(
                    (num - gb.get(r, c)).abs() < 1e-5,
                    "grad_b ({r},{c}): numeric {num} vs {}",
                    gb.get(r, c)
                );
            }
        }
    }

    #[test]
    fn adapter_aligns_shifted_features() {
        // Source: y = x. Target inputs are shifted by +2; MMD training
        // should pull the target features back onto the source manifold and
        // reduce target error without target labels.
        let mut rng = Rng::new(4);
        let n = 200;
        let xs = Tensor::rand_uniform(n, 1, -1.0, 1.0, &mut rng);
        let ys = xs.clone();
        let source = Dataset::new(xs, ys);
        let xt = Tensor::rand_uniform(n, 1, -1.0, 1.0, &mut rng).map(|v| v + 2.0);
        let yt = xt.map(|v| v - 2.0); // the same function in the source frame

        let mut model = Sequential::new()
            .add(Dense::new(1, 16, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(16, 16, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(16, 1, Init::XavierUniform, &mut rng));
        // Pre-train on source.
        let mut opt = Adam::new(5e-3);
        let _ = tasfar_nn::train::fit(
            &mut model,
            &mut opt,
            &tasfar_nn::loss::Mse,
            &source.x,
            &source.y,
            None,
            &tasfar_nn::train::TrainConfig {
                epochs: 120,
                batch_size: 32,
                ..Default::default()
            },
        );
        let before = {
            let p = model.predict(&xt);
            tasfar_core::metrics::mse(&p, &yt)
        };
        let adapter = MmdAdapter::new(
            BaselineConfig {
                split_at: 4,
                epochs: 40,
                learning_rate: 1e-3,
                ..Default::default()
            },
            1.0,
        );
        adapter
            .adapt(&mut model, Some(&source), &xt, &tasfar_nn::loss::Mse)
            .expect("MMD adaptation with source data succeeds");
        let after = {
            let p = model.predict(&xt);
            tasfar_core::metrics::mse(&p, &yt)
        };
        assert!(
            after < before,
            "MMD adaptation should reduce target MSE: {before:.4} → {after:.4}"
        );
    }

    #[test]
    fn missing_source_is_a_typed_error() {
        use tasfar_core::error::ErrorKind;
        let mut rng = Rng::new(5);
        let mut model = Sequential::new()
            .add(Dense::new(1, 4, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(4, 1, Init::XavierUniform, &mut rng));
        let reference = model.clone();
        let adapter = MmdAdapter::new(BaselineConfig::default(), 1.0);
        let err = adapter
            .adapt(
                &mut model,
                None,
                &Tensor::zeros(4, 1),
                &tasfar_nn::loss::Mse,
            )
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::MissingSource { baseline: "mmd" });
        assert!(!err.recoverable(), "no retry can conjure source data");
        // Rejected before any training: model untouched.
        let probe = Tensor::zeros(2, 1);
        assert_eq!(
            model.predict(&probe).as_slice(),
            reference.clone().predict(&probe).as_slice()
        );
    }
}
