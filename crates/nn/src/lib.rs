//! # tasfar-nn — the deep-learning substrate of the TASFAR reproduction
//!
//! The TASFAR paper (He et al., ICDE 2024) adapts deep regression models —
//! a temporal-convolutional network for pedestrian dead reckoning, a CNN
//! for crowd counting, and MLPs for two tabular prediction tasks — using
//! Monte-Carlo-dropout uncertainty. Reproducing it in Rust therefore needs a
//! complete, correct training stack; this crate is that stack, built from
//! scratch and verified by finite-difference gradient checking.
//!
//! ## What's here
//!
//! * [`tensor::Tensor`] — dense row-major `(batch, features)` matrices.
//! * [`adapter`] — LoRA-style low-rank delta adapters over frozen source
//!   weights (`W_eff = W + (α/r)·down·up`), the KB-scale per-user adaptation
//!   state (attached explicitly with `enable_adapters`).
//! * [`backend`] — the CPU compute backends behind the GEMM-family and
//!   `Conv1d` kernels: every call runs on the cache-blocked, panel-packed
//!   `CpuBlocked`; the bit-identical `CpuNaive` is the reference that tests
//!   and benches call directly.
//! * [`rng::Rng`] — a splittable xoshiro256++ PRNG making every experiment
//!   bit-reproducible.
//! * [`layers`] — `Dense`, activations, inverted `Dropout` (the MC-dropout
//!   uncertainty source), `BatchNorm1d`, dilated causal `Conv1d`,
//!   residual `TcnBlock`, `GlobalAvgPool1d`, and the `Sequential` container.
//! * [`model`] — the black-box regressor contract (`Regressor`,
//!   `StochasticRegressor`, `TrainableRegressor`, `SplitRegressor`) that
//!   `tasfar-core` and `tasfar-baselines` are generic over, plus the
//!   closure-backed `FnRegressor` mock proving the pipeline never needs a
//!   concrete architecture.
//! * [`loss`] — MSE / MAE / Huber / MSLE, all supporting the per-sample
//!   weights TASFAR's credibility-weighted objective requires.
//! * [`optim`] — SGD (+momentum, weight decay) and Adam.
//! * [`train`] — a mini-batch trainer with early stopping on the
//!   loss-drop rate (the paper's Fig. 13 rule).
//! * [`gradcheck`] — finite-difference verification used across the test
//!   suite.
//! * [`parallel`] — a zero-dependency deterministic thread pool; the matmul,
//!   convolution, MC-dropout, and KDE hot paths run on it and return
//!   bit-identical results for any thread count (`TASFAR_THREADS` sets the
//!   process default, `set_threads` a per-thread override).
//! * [`scratch`] — a size-bucketed buffer arena threaded through the layers
//!   and the training loop, making steady-state forward/backward and fused
//!   MC-dropout inference allocation-free after warm-up.
//! * [`json`] — a minimal JSON reader/writer (the build environment has no
//!   crates.io access, so `serde` is not an option).
//!
//! ## Quick example
//!
//! ```
//! use tasfar_nn::prelude::*;
//!
//! let mut rng = Rng::new(42);
//! let x = Tensor::rand_uniform(128, 1, -1.0, 1.0, &mut rng);
//! let y = x.map(|v| 2.0 * v + 0.5);
//!
//! let mut model = Sequential::new().add(Dense::new(1, 1, Init::XavierUniform, &mut rng));
//! let mut opt = Adam::new(0.05);
//! let report = fit(&mut model, &mut opt, &Mse, &x, &y, None, &TrainConfig {
//!     epochs: 100,
//!     batch_size: 32,
//!     ..TrainConfig::default()
//! });
//! assert!(report.final_loss() < 1e-3);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod backend;
pub mod error;
pub mod gradcheck;
pub mod init;
pub mod json;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
// The parallel runtime is the one module allowed to use `unsafe`: its worker
// pool hands borrowed closures and disjoint output sub-slices across threads,
// with the safety argument documented at each site.
#[allow(unsafe_code)]
pub mod parallel;
pub mod rng;
pub mod schedule;
pub mod scratch;
pub mod spec;
pub mod tensor;
pub mod train;
pub mod window;

pub use error::TrainError;

/// One-stop imports for model building and training.
pub mod prelude {
    pub use crate::adapter::{enable_adapters, AdapterConfig, DeltaParams};
    pub use crate::backend::{Backend, CpuBlocked, CpuNaive, TilingScheme};
    pub use crate::error::TrainError;
    pub use crate::gradcheck::check_gradients;
    pub use crate::init::Init;
    pub use crate::json::{FromJson, Json, JsonError, ToJson};
    pub use crate::layers::{
        BatchNorm1d, Conv1d, Dense, Dropout, GlobalAvgPool1d, Layer, LeakyRelu, Mode, Param, Relu,
        Sequential, Sigmoid, Tanh, TcnBlock,
    };
    pub use crate::loss::{Huber, Loss, Mae, Mse, Msle};
    pub use crate::model::{
        CheckpointRegressor, FnRegressor, Regressor, SeqCheckpoint, SplitRegressor,
        StochasticRegressor, TrainableRegressor,
    };
    pub use crate::optim::{Adam, Optimizer, Sgd};
    pub use crate::rng::Rng;
    pub use crate::schedule::LrSchedule;
    pub use crate::scratch::Scratch;
    pub use crate::tensor::Tensor;
    pub use crate::train::{
        evaluate, fit, train_step, try_fit, DivergenceGuard, EarlyStop, FitReport, TrainConfig,
        TrainObserver,
    };
    pub use crate::window::{tv_distance, RollingStats};
}
