//! Set-up of the two serving fixtures: the frozen model, its calibration,
//! the runtime with every tenant's delta registered, the adapt walkers and
//! the predict payload pool, ending with a warm-up.
//!
//! The fixtures do not depend on `--seed`: the seed chooses the traffic,
//! not the program under test. Everything here is built through the public
//! APIs of `tasfar-data`, `tasfar-nn`, `tasfar-core` and `tasfar-serve`.

use std::sync::Arc;

use tasfar_core::adapt::{calibrate_on_source, TasfarConfig};
use tasfar_core::session::TenantSession;
use tasfar_data::pdr::{self, PdrConfig};
use tasfar_data::{Dataset, Scaler};
use tasfar_nn::adapter::{enable_adapters, AdapterConfig};
use tasfar_nn::init::Init;
use tasfar_nn::layers::{Dense, Dropout, GlobalAvgPool1d, Relu, Sequential, TcnBlock};
use tasfar_nn::loss::Mse;
use tasfar_nn::optim::Adam;
use tasfar_nn::rng::Rng;
use tasfar_nn::spec::DeltaArtifact;
use tasfar_nn::tensor::Tensor;
use tasfar_nn::train::{fit, TrainConfig};
use tasfar_serve::{ServeConfig, ServeRuntime, ServeWorker};

use crate::gen::{SplitMix64, Zipf};

/// Which model a fixture serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// 8→512→512→1 dropout MLP with rank-2 deltas on every Dense.
    Mlp,
    /// The PDR TCN: two TcnBlocks, pooling and a dense head over 120-wide
    /// IMU windows, with rank-4 deltas on every Conv1d and Dense.
    Tcn,
}

/// Where each walker's deltas live in the tenant id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkerIds {
    /// Walker `w` is tenant `w`: the popular head of the population first.
    Population,
    /// Walker `w` is cold population tenant `1000 + 150·w`.
    ColdTail,
    /// Walker `w` is tenant `1_000_000 + w`, outside the predict
    /// population, so no predict ever reads a delta an adapt rewrites.
    Fresh,
}

/// Fixed shape of one fixture.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub model: Model,
    /// Tenants with a registered delta; predicts draw from them.
    pub population: u64,
    /// Zipf exponent of predict tenant popularity.
    pub zipf_s: f64,
    /// Total resident-delta byte budget of the registry.
    pub budget_bytes: u64,
    pub walker_ids: WalkerIds,
    /// Closed-loop predicts run at the end of set-up.
    pub warmup_predicts: usize,
}

/// One adapt walker: unlabeled 64-window slices and labelled held-out rows.
pub struct Walker {
    pub tenant: u64,
    pub slices: Vec<Tensor>,
    pub heldout_x: Tensor,
    pub heldout_y: Tensor,
}

/// A built fixture, ready for the measured phases.
pub struct Fixture {
    pub runtime: Arc<ServeRuntime>,
    pub worker: ServeWorker,
    /// Predict payload rows.
    pub pool: Tensor,
    pub zipf: Zipf,
    pub walkers: Vec<Walker>,
    /// The serialized deltas tenant `t` is registered with
    /// (`prototypes[t % len]`), for the registry replay.
    pub prototypes: Vec<Arc<str>>,
    /// Base-layer forward FLOPs per input row, from the layer shapes.
    pub flops_per_row: f64,
    /// Output columns of one prediction row.
    pub out_cols: usize,
    pub spec: Spec,
}

/// Rows per adapt op: one walker's unlabeled batch.
pub const ADAPT_ROWS: usize = 64;
/// Fused predict window of the serving worker.
pub const BATCH_WINDOW: usize = 256;
const SHARDS: usize = 16;
const QUEUE_DEPTH: usize = 4096;
const PROTOTYPES: usize = 8;
const MLP_WIDTH: usize = 512;
const MLP_IN: usize = 8;
const MLP_RANK: usize = 2;
const TCN_CH: usize = 16;
const TCN_HEAD: usize = 32;
const TCN_RANK: usize = 4;
/// PDR walkers: each adapt slice is one walker's unlabeled windows.
const WALKERS: usize = 96;
/// MLP walkers: enough that back-to-back adapts outlast their phase.
const MLP_WALKERS: usize = 160;

fn walker_tenant(ids: WalkerIds, w: usize) -> u64 {
    match ids {
        WalkerIds::Population => w as u64,
        WalkerIds::ColdTail => 1000 + 150 * w as u64,
        WalkerIds::Fresh => 1_000_000 + w as u64,
    }
}

/// Builds the fixture from scratch: data, source training, calibration,
/// runtime, delta registration and warm-up.
pub fn build(spec: Spec) -> Fixture {
    let (model, session, pool, walkers, flops_per_row) = match spec.model {
        Model::Mlp => mlp(spec.walker_ids),
        Model::Tcn => tcn(spec.walker_ids),
    };
    let rank = session.adapter_config().rank;
    let prototypes = prototype_artifacts(&model, rank);
    let runtime = ServeRuntime::new(
        model,
        session,
        ServeConfig {
            shards: SHARDS,
            queue_depth: QUEUE_DEPTH,
            batch_window: BATCH_WINDOW,
            resident_budget_bytes: spec.budget_bytes,
        },
    );
    for t in 0..spec.population {
        let proto = &prototypes[(t % PROTOTYPES as u64) as usize];
        runtime.registry().register_cold(t, Arc::clone(proto));
    }
    let mut worker = runtime.worker(0x5EED);
    let zipf = Zipf::new(spec.population as usize, spec.zipf_s);
    warm_up(&runtime, &mut worker, &pool, &zipf, spec);
    Fixture {
        runtime,
        worker,
        pool,
        zipf,
        walkers,
        prototypes,
        flops_per_row,
        out_cols: match spec.model {
            Model::Mlp => 1,
            Model::Tcn => 2,
        },
        spec,
    }
}

/// Row `r` of `pool` as a one-row input.
pub fn row(pool: &Tensor, r: usize) -> Tensor {
    Tensor::from_vec(1, pool.cols(), pool.row(r).to_vec())
}

/// One predict per population tenant (capped), then closed-loop Zipf
/// predicts, so the registry, scratch arenas and caches reach their steady
/// state before anything is measured.
fn warm_up(rt: &ServeRuntime, worker: &mut ServeWorker, pool: &Tensor, zipf: &Zipf, spec: Spec) {
    let mut rng = SplitMix64::new(0, 0x3A53);
    let tenants = (0..spec.population.min(BATCH_WINDOW as u64))
        .chain((0..spec.warmup_predicts).map(|_| zipf.rank(rng.next_f64()) as u64));
    for (i, t) in tenants.enumerate() {
        rt.submit_predict(t, row(pool, i % pool.rows()))
            .expect("warm-up stays within the queue depth");
        if rt.queue().pending_predicts() >= BATCH_WINDOW {
            drain(worker);
        }
    }
    drain(worker);
}

fn drain(worker: &mut ServeWorker) {
    loop {
        let done = worker.process_next();
        if done.is_empty() {
            return;
        }
        for c in done {
            if let tasfar_serve::CompletionKind::Predict { output, .. } = c.kind {
                worker.recycle(output);
            }
        }
    }
}

/// Distinct serialized deltas with realistic payloads: captured from the
/// adapter-enabled model, then perturbed so each one moves predictions.
fn prototype_artifacts(source: &Sequential, rank: usize) -> Vec<Arc<str>> {
    (0..PROTOTYPES)
        .map(|p| {
            let mut rng = Rng::new(0x5EED_0000 + p as u64);
            let mut model = source.clone();
            enable_adapters(&mut model, &AdapterConfig::rank(rank), &mut rng);
            let mut artifact = DeltaArtifact::capture(&mut model, &AdapterConfig::rank(rank));
            for values in &mut artifact.values {
                for v in values.iter_mut() {
                    *v += rng.gaussian(0.0, 0.02);
                }
            }
            Arc::from(artifact.to_json().as_str())
        })
        .collect()
}

type Parts = (Sequential, TenantSession, Tensor, Vec<Walker>, f64);

fn normal_tensor(rng: &mut SplitMix64, rows: usize, cols: usize, mean: f64) -> Tensor {
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| mean + rng.normal()).collect(),
    )
}

/// The regression target of the MLP task: the row mean plus noise.
fn mlp_labels(rng: &mut SplitMix64, x: &Tensor) -> Tensor {
    let y: Vec<f64> = (0..x.rows())
        .map(|i| x.row(i).iter().sum::<f64>() / x.cols() as f64 + 0.05 * rng.normal())
        .collect();
    Tensor::from_vec(x.rows(), 1, y)
}

fn mlp(ids: WalkerIds) -> Parts {
    let mut rng = Rng::new(0x5E127E);
    let mut model = Sequential::new()
        .add(Dense::new(MLP_IN, MLP_WIDTH, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.1, &mut rng))
        .add(Dense::new(MLP_WIDTH, MLP_WIDTH, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.1, &mut rng))
        .add(Dense::new(MLP_WIDTH, 1, Init::XavierUniform, &mut rng));
    let mut data = SplitMix64::new(0, 0xDA7A);
    let x = normal_tensor(&mut data, 256, MLP_IN, 0.0);
    let y = mlp_labels(&mut data, &x);
    let _ = fit(
        &mut model,
        &mut Adam::new(1e-3),
        &Mse,
        &x,
        &y,
        None,
        &TrainConfig {
            epochs: 4,
            batch_size: 32,
            seed: 1,
            ..TrainConfig::default()
        },
    );
    let cfg = TasfarConfig {
        mc_samples: 4,
        epochs: 2,
        segments: 8,
        grid_cell: 0.1,
        early_stop: None,
        ..TasfarConfig::default()
    };
    let calib =
        calibrate_on_source(&mut model, &Dataset::new(x, y), &cfg).expect("MLP calibration");
    let session = TenantSession::new(calib, cfg, AdapterConfig::rank(MLP_RANK));
    let pool = normal_tensor(&mut data, 4096, MLP_IN, 0.0);
    // Each walker's inputs are shifted away from the source distribution:
    // the domain gap the adaptation sees.
    let walkers = (0..MLP_WALKERS)
        .map(|w| {
            let shift = 0.5 * data.normal();
            let slices = (0..2)
                .map(|_| normal_tensor(&mut data, ADAPT_ROWS, MLP_IN, shift))
                .collect();
            let heldout_x = normal_tensor(&mut data, ADAPT_ROWS, MLP_IN, shift);
            let heldout_y = mlp_labels(&mut data, &heldout_x);
            Walker {
                tenant: walker_tenant(ids, w),
                slices,
                heldout_x,
                heldout_y,
            }
        })
        .collect();
    let dense = |i: usize, o: usize| 2.0 * (i * o) as f64;
    let flops = dense(MLP_IN, MLP_WIDTH) + dense(MLP_WIDTH, MLP_WIDTH) + dense(MLP_WIDTH, 1);
    (model, session, pool, walkers, flops)
}

fn tcn(ids: WalkerIds) -> Parts {
    let config = PdrConfig {
        n_seen: 3,
        n_unseen: WALKERS,
        source_steps_per_user: 100,
        trajectories_per_user: 5,
        steps_per_trajectory: 20,
        ..PdrConfig::default()
    };
    let world = pdr::generate(&config);
    let scaler = Scaler::fit(&world.source.x);
    let x = scaler.transform(&world.source.x);
    let t = config.time_len;
    let mut rng = Rng::new(config.seed ^ 0x5eed);
    let mut model = Sequential::new()
        .add(TcnBlock::new(pdr::CHANNELS, TCN_CH, 3, 1, t, 0.1, &mut rng))
        .add(TcnBlock::new(TCN_CH, TCN_CH, 3, 2, t, 0.1, &mut rng))
        .add(GlobalAvgPool1d::new(TCN_CH, t))
        .add(Dense::new(TCN_CH, TCN_HEAD, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.2, &mut rng))
        .add(Dense::new(TCN_HEAD, 2, Init::XavierUniform, &mut rng));
    // The paper-harness "Quick" schedule: a long Adam run, then a polish.
    for (lr, epochs, seed) in [(1e-3, 30, 1), (2e-4, 15, 2)] {
        let _ = fit(
            &mut model,
            &mut Adam::new(lr),
            &Mse,
            &x,
            &world.source.y,
            None,
            &TrainConfig {
                epochs,
                batch_size: 64,
                seed,
                ..TrainConfig::default()
            },
        );
    }
    // A short fine-tune keeps one adapt near 45 ms, so a run fits more than
    // a hundred of them at a rate the single worker can absorb.
    let cfg = TasfarConfig {
        grid_cell: 0.1,
        joint_2d: true,
        scenario_tau_rescale: true,
        learning_rate: 5e-4,
        epochs: 4,
        mc_samples: 4,
        batch_size: 64,
        early_stop: None,
        ..TasfarConfig::default()
    };
    let source = Dataset::new(x, world.source.y.clone());
    let calib = calibrate_on_source(&mut model, &source, &cfg).expect("PDR calibration");
    let session = TenantSession::new(calib, cfg, AdapterConfig::rank(TCN_RANK));

    let walkers: Vec<Walker> = world
        .unseen_users
        .iter()
        .enumerate()
        .map(|(w, user)| {
            let (adapt, test) = user.adaptation_test_split(0.8);
            let cat = |ts: &[&pdr::Trajectory]| {
                let parts: Vec<Dataset> = ts
                    .iter()
                    .map(|t| Dataset::new(scaler.transform(&t.windows), t.displacements.clone()))
                    .collect();
                Dataset::concat(&parts.iter().collect::<Vec<_>>())
            };
            let unlabeled = cat(&adapt).x;
            let held = cat(&test);
            let slices = (0..2)
                .map(|k| {
                    let rows: Vec<usize> = (k * ADAPT_ROWS..(k + 1) * ADAPT_ROWS).collect();
                    unlabeled.select_rows(&rows)
                })
                .collect();
            Walker {
                tenant: walker_tenant(ids, w),
                slices,
                heldout_x: held.x,
                heldout_y: held.y,
            }
        })
        .collect();
    let pool_rows: Vec<usize> = (0..4096).collect();
    let all: Vec<&Tensor> = walkers.iter().flat_map(|w| w.slices.iter()).collect();
    let pool = Tensor::from_vec(
        all.len() * ADAPT_ROWS,
        config.input_dim(),
        all.iter()
            .flat_map(|t| t.as_slice().iter().copied())
            .collect(),
    )
    .select_rows(&pool_rows);

    let conv = |i: usize, o: usize, k: usize| 2.0 * (i * k * o * t) as f64;
    let flops = conv(pdr::CHANNELS, TCN_CH, 3)
        + conv(TCN_CH, TCN_CH, 3)
        + conv(pdr::CHANNELS, TCN_CH, 1)
        + 2.0 * conv(TCN_CH, TCN_CH, 3)
        + 2.0 * (TCN_CH * TCN_HEAD + TCN_HEAD * 2) as f64;
    (model, session, pool, walkers, flops)
}
