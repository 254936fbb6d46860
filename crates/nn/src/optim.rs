//! First-order optimizers.
//!
//! Optimizers key their per-parameter state (momentum buffers, Adam moments)
//! by parameter *position*, which is stable because
//! [`crate::layers::Layer::visit_params`] walks in a fixed order. Passing the
//! parameters of a different model to an already-initialised optimizer is a
//! bug and is caught by a shape assertion.

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;

/// A gradient-based parameter updater.
pub trait Optimizer: Send {
    /// Applies one update step to every trainable parameter of `model`,
    /// using the accumulated gradients: [`begin_step`](Optimizer::begin_step)
    /// followed by one [`step_param`](Optimizer::step_param) per parameter,
    /// in [`Layer::visit_params`] order. Allocation-free.
    fn step(&mut self, model: &mut dyn Layer) {
        let mut count = 0usize;
        model.visit_params(&mut |_| count += 1);
        self.begin_step(count);
        let mut index = 0usize;
        model.visit_params(&mut |p| {
            self.step_param(index, p);
            index += 1;
        });
    }

    /// Opens an update step over `n` parameters: validates the model binding
    /// and advances any per-step state (e.g. Adam's time step). Follow with
    /// exactly one [`step_param`](Optimizer::step_param) call per parameter,
    /// in the stable `visit_params` order.
    fn begin_step(&mut self, n: usize);

    /// Updates the parameter at position `index` within the step opened by
    /// [`begin_step`](Optimizer::begin_step).
    fn step_param(&mut self, index: usize, param: &mut Param);

    /// The current learning rate.
    fn learning_rate(&self) -> f64;

    /// Overrides the learning rate (used by schedules and fine-tuning).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Stochastic gradient descent with classical momentum and decoupled
/// weight decay.
pub struct Sgd {
    lr: f64,
    momentum: f64,
    weight_decay: f64,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD.
    ///
    /// # Panics
    /// Panics unless `lr > 0`.
    pub fn new(lr: f64) -> Self {
        Self::with_options(lr, 0.0, 0.0)
    }

    /// SGD with momentum `μ` and weight decay `λ` (applied as `θ ← θ(1−lr·λ)`).
    ///
    /// # Panics
    /// Panics on invalid hyper-parameters.
    pub fn with_options(lr: f64, momentum: f64, weight_decay: f64) -> Self {
        assert!(lr > 0.0, "Sgd: lr must be positive");
        assert!(
            (0.0..1.0).contains(&momentum),
            "Sgd: momentum must be in [0,1)"
        );
        assert!(
            weight_decay >= 0.0,
            "Sgd: weight_decay must be non-negative"
        );
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn begin_step(&mut self, n: usize) {
        assert!(
            self.velocity.is_empty() || self.velocity.len() == n,
            "optimizer: parameter count changed ({} → {}); optimizers are bound to one model",
            self.velocity.len(),
            n
        );
    }

    fn step_param(&mut self, index: usize, p: &mut Param) {
        if self.velocity.len() <= index {
            // First step: momentum buffers appear as parameters are visited.
            debug_assert_eq!(self.velocity.len(), index);
            self.velocity
                .push(Tensor::zeros(p.value.rows(), p.value.cols()));
        }
        let v = &mut self.velocity[index];
        assert_eq!(
            v.shape(),
            p.value.shape(),
            "optimizer: parameter shape changed; optimizers are bound to one model"
        );
        if self.weight_decay > 0.0 {
            p.value.scale_assign(1.0 - self.lr * self.weight_decay);
        }
        if self.momentum > 0.0 {
            v.scale_assign(self.momentum);
            v.add_assign(&p.grad);
            p.value.axpy(-self.lr, v);
        } else {
            p.value.axpy(-self.lr, &p.grad);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0, "Sgd: lr must be positive");
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW-style).
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    weight_decay: f64,
    t: u64,
    /// Bias corrections `1 − βᵢᵗ`, cached by `begin_step` for the step's
    /// `step_param` calls.
    bc1: f64,
    bc2: f64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the conventional defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    ///
    /// # Panics
    /// Panics unless `lr > 0`.
    pub fn new(lr: f64) -> Self {
        Self::with_options(lr, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Fully parameterised Adam.
    ///
    /// # Panics
    /// Panics on invalid hyper-parameters.
    pub fn with_options(lr: f64, beta1: f64, beta2: f64, eps: f64, weight_decay: f64) -> Self {
        assert!(lr > 0.0, "Adam: lr must be positive");
        assert!((0.0..1.0).contains(&beta1), "Adam: beta1 must be in [0,1)");
        assert!((0.0..1.0).contains(&beta2), "Adam: beta2 must be in [0,1)");
        assert!(eps > 0.0, "Adam: eps must be positive");
        assert!(
            weight_decay >= 0.0,
            "Adam: weight_decay must be non-negative"
        );
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            bc1: 1.0,
            bc2: 1.0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self, n: usize) {
        assert!(
            self.m.is_empty() || self.m.len() == n,
            "optimizer: parameter count changed ({} → {}); optimizers are bound to one model",
            self.m.len(),
            n
        );
        self.t += 1;
        self.bc1 = 1.0 - self.beta1.powi(self.t as i32);
        self.bc2 = 1.0 - self.beta2.powi(self.t as i32);
    }

    fn step_param(&mut self, index: usize, p: &mut Param) {
        if self.m.len() <= index {
            // First step: moment buffers appear as parameters are visited.
            debug_assert_eq!(self.m.len(), index);
            self.m.push(Tensor::zeros(p.value.rows(), p.value.cols()));
            self.v.push(Tensor::zeros(p.value.rows(), p.value.cols()));
        }
        let m = &mut self.m[index];
        let v = &mut self.v[index];
        assert_eq!(
            m.shape(),
            p.value.shape(),
            "optimizer: parameter shape changed; optimizers are bound to one model"
        );
        if self.weight_decay > 0.0 {
            p.value.scale_assign(1.0 - self.lr * self.weight_decay);
        }
        let g = p.grad.as_slice();
        let mv = m.as_mut_slice();
        let vv = v.as_mut_slice();
        let theta = p.value.as_mut_slice();
        for i in 0..g.len() {
            mv[i] = self.beta1 * mv[i] + (1.0 - self.beta1) * g[i];
            vv[i] = self.beta2 * vv[i] + (1.0 - self.beta2) * g[i] * g[i];
            let m_hat = mv[i] / self.bc1;
            let v_hat = vv[i] / self.bc2;
            theta[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0, "Adam: lr must be positive");
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(x0: f64) -> Param {
        Param::new(Tensor::from_vec(1, 1, vec![x0]))
    }

    /// One update over a bare parameter list, in list order.
    fn step(opt: &mut dyn Optimizer, params: &mut [&mut Param]) {
        opt.begin_step(params.len());
        for (i, p) in params.iter_mut().enumerate() {
            opt.step_param(i, p);
        }
    }

    /// One step of plain SGD on f(x) = x² moves x by −lr·2x.
    #[test]
    fn sgd_single_step() {
        let mut p = quadratic_param(3.0);
        p.grad = Tensor::from_vec(1, 1, vec![6.0]);
        let mut opt = Sgd::new(0.1);
        step(&mut opt, &mut [&mut p]);
        assert!((p.value.get(0, 0) - 2.4).abs() < 1e-12);
    }

    /// SGD converges on a convex quadratic.
    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = quadratic_param(5.0);
        let mut opt = Sgd::with_options(0.1, 0.9, 0.0);
        // Heavy-ball on x² contracts like √μ per step (≈0.949 here), so give
        // it enough iterations to pass a tight absolute bound.
        for _ in 0..500 {
            let x = p.value.get(0, 0);
            p.zero_grad();
            p.grad.set(0, 0, 2.0 * x);
            step(&mut opt, &mut [&mut p]);
        }
        assert!(p.value.get(0, 0).abs() < 1e-6);
    }

    /// Momentum accelerates along a consistent gradient direction.
    #[test]
    fn momentum_accumulates() {
        let mut plain = quadratic_param(0.0);
        let mut with_mom = quadratic_param(0.0);
        let mut opt_plain = Sgd::new(0.1);
        let mut opt_mom = Sgd::with_options(0.1, 0.9, 0.0);
        for _ in 0..5 {
            plain.grad = Tensor::from_vec(1, 1, vec![1.0]);
            with_mom.grad = Tensor::from_vec(1, 1, vec![1.0]);
            step(&mut opt_plain, &mut [&mut plain]);
            step(&mut opt_mom, &mut [&mut with_mom]);
        }
        assert!(
            with_mom.value.get(0, 0) < plain.value.get(0, 0),
            "momentum should have travelled farther"
        );
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut p = quadratic_param(1.0);
        // Zero gradient: only the decay acts.
        let mut opt = Sgd::with_options(0.1, 0.0, 0.5);
        step(&mut opt, &mut [&mut p]);
        assert!((p.value.get(0, 0) - 0.95).abs() < 1e-12);
    }

    /// Adam's first step moves by ≈ lr regardless of gradient scale.
    #[test]
    fn adam_first_step_is_lr_sized() {
        for scale in [1e-3, 1.0, 1e3] {
            let mut p = quadratic_param(0.0);
            p.grad = Tensor::from_vec(1, 1, vec![scale]);
            let mut opt = Adam::new(0.01);
            step(&mut opt, &mut [&mut p]);
            assert!(
                (p.value.get(0, 0).abs() - 0.01).abs() < 1e-6,
                "step size for grad scale {scale} was {}",
                p.value.get(0, 0)
            );
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = quadratic_param(4.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let x = p.value.get(0, 0);
            p.zero_grad();
            p.grad.set(0, 0, 2.0 * x);
            step(&mut opt, &mut [&mut p]);
        }
        assert!(p.value.get(0, 0).abs() < 1e-3);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.05);
        assert_eq!(opt.learning_rate(), 0.05);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn rebinding_to_different_model_panics() {
        let mut a = quadratic_param(0.0);
        let mut b = quadratic_param(0.0);
        let mut opt = Sgd::with_options(0.1, 0.5, 0.0);
        step(&mut opt, &mut [&mut a]);
        step(&mut opt, &mut [&mut a, &mut b]);
    }
}
