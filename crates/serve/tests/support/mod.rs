//! Shared setup for the serving integration suites: a small trained source
//! model, its calibration, and a ready [`ServeRuntime`].

use std::sync::Arc;

use tasfar_core::adapt::{calibrate_on_source, TasfarConfig};
use tasfar_core::session::TenantSession;
use tasfar_data::Dataset;
use tasfar_nn::adapter::AdapterConfig;
use tasfar_nn::init::Init;
use tasfar_nn::layers::{BatchNorm1d, Dense, Dropout, GlobalAvgPool1d, Relu, Sequential, TcnBlock};
use tasfar_nn::loss::Mse;
use tasfar_nn::optim::Adam;
use tasfar_nn::prelude::*;
use tasfar_nn::train::{fit, TrainConfig};
use tasfar_serve::{ServeConfig, ServeRuntime};

/// `y = x₀` with a hard-sample tail — the partition suite's workload, sized
/// down for test speed.
pub fn source_dataset(rng: &mut Rng, n: usize) -> Dataset {
    let mut xs = Tensor::zeros(n, 2);
    let mut ys = Tensor::zeros(n, 1);
    for i in 0..n {
        let y = rng.uniform(-1.0, 1.0);
        let hard = rng.bernoulli(0.05);
        let noise = if hard {
            rng.gaussian(0.0, 0.8)
        } else {
            rng.gaussian(0.0, 0.03)
        };
        xs.set(i, 0, y + noise);
        xs.set(
            i,
            1,
            if hard {
                rng.uniform(3.0, 5.0)
            } else {
                rng.uniform(0.0, 0.5)
            },
        );
        ys.set(i, 0, y);
    }
    Dataset::new(xs, ys)
}

/// An unlabeled target batch whose labels cluster at `centre` — what a
/// tenant's adapt op carries.
pub fn target_batch(rng: &mut Rng, n: usize, centre: f64) -> Tensor {
    let mut xt = Tensor::zeros(n, 2);
    for i in 0..n {
        let y = rng.gaussian(centre, 0.05);
        let hard = rng.bernoulli(0.3);
        let noise = if hard {
            rng.gaussian(0.0, 0.8)
        } else {
            rng.gaussian(0.0, 0.03)
        };
        xt.set(i, 0, y + noise);
        xt.set(
            i,
            1,
            if hard {
                rng.uniform(3.0, 5.0)
            } else {
                rng.uniform(0.0, 0.5)
            },
        );
    }
    xt
}

/// A quick adaptation config (few MC passes / epochs: test speed).
pub fn quick_cfg() -> TasfarConfig {
    TasfarConfig {
        grid_cell: 0.05,
        mc_samples: 8,
        epochs: 12,
        learning_rate: 1e-3,
        early_stop: None,
        ..TasfarConfig::default()
    }
}

/// Trains the source model, calibrates it, and wraps everything in a
/// runtime with the given serving config.
pub fn runtime(serve_cfg: ServeConfig) -> Arc<ServeRuntime> {
    let mut rng = Rng::new(11);
    let model = Sequential::new()
        .add(Dense::new(2, 24, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.2, &mut rng))
        .add(Dense::new(24, 1, Init::XavierUniform, &mut rng));
    finish_runtime(model, rng, serve_cfg)
}

/// [`runtime`] with a `BatchNorm1d` in the model: γ/β stay trainable under
/// adapters (TENT-style affine adaptation), so every tenant artifact
/// carries a batch-norm affine the segmented fused path must serve per
/// segment — the suite pins that against solo serving.
#[allow(dead_code)] // each integration suite compiles its own `support`
pub fn runtime_batchnorm(serve_cfg: ServeConfig) -> Arc<ServeRuntime> {
    let mut rng = Rng::new(12);
    let model = Sequential::new()
        .add(Dense::new(2, 24, Init::HeNormal, &mut rng))
        .add(BatchNorm1d::new(24))
        .add(Relu::new())
        .add(Dropout::new(0.2, &mut rng))
        .add(Dense::new(24, 1, Init::XavierUniform, &mut rng));
    finish_runtime(model, rng, serve_cfg)
}

/// [`runtime`] over a PDR-style TCN: the two input features are read as
/// one channel × two time steps, so the same datasets fit. It has a
/// downsampling block (1 → 4 channels), a same-width block, pooling over
/// time and a Dense head, so tenant artifacts carry conv deltas on every
/// conv, the residual downsample included.
#[allow(dead_code)] // each integration suite compiles its own `support`
pub fn runtime_tcn(serve_cfg: ServeConfig) -> Arc<ServeRuntime> {
    let mut rng = Rng::new(13);
    let model = Sequential::new()
        .add(TcnBlock::new(1, 4, 3, 1, 2, 0.2, &mut rng))
        .add(TcnBlock::new(4, 4, 3, 2, 2, 0.2, &mut rng))
        .add(GlobalAvgPool1d::new(4, 2))
        .add(Dense::new(4, 1, Init::XavierUniform, &mut rng));
    finish_runtime(model, rng, serve_cfg)
}

fn finish_runtime(
    mut model: Sequential,
    mut rng: Rng,
    serve_cfg: ServeConfig,
) -> Arc<ServeRuntime> {
    let source = source_dataset(&mut rng, 400);
    let mut opt = Adam::new(5e-3);
    let _ = fit(
        &mut model,
        &mut opt,
        &Mse,
        &source.x,
        &source.y,
        None,
        &TrainConfig {
            epochs: 80,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    let cfg = quick_cfg();
    let calib = calibrate_on_source(&mut model, &source, &cfg).unwrap();
    let session = TenantSession::new(calib, cfg, AdapterConfig::rank(2));
    ServeRuntime::new(model, session, serve_cfg)
}
