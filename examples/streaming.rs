//! Streaming quickstart: online adaptation with drift detection and
//! guarded re-adaptation on the virtual-sensor workload.
//!
//! A factory-calibrated sensor model is deployed against a live stream
//! whose operating point creeps and then jumps (`tasfar_data::sensor`).
//! The `StreamAdapter` ingests the stream chunk by chunk: it slides its
//! window with incremental density add/evict, fine-tunes in pseudo-label
//! micro-batches, watches for drift, and on a detector trip re-adapts
//! through the guarded snapshot/rollback path — degrading to the last
//! good checkpoint rather than shipping a wrecked model.
//!
//! Honors `TASFAR_CHAOS=<fault>[:<seed>]` mid-stream fault injection (try
//! `TASFAR_CHAOS=drift_flap` or `TASFAR_CHAOS=stream_nan_burst`; an unknown
//! fault name exits with status 2) and `TASFAR_TRACE` for a structured
//! trace of the run (`drift_trip` events, `readapt` spans, the pipeline
//! stages of every micro-batch).
//!
//! Run with: `cargo run --release -p examples --bin streaming`

use tasfar_core::faultinject;
use tasfar_core::metrics;
use tasfar_core::prelude::*;
use tasfar_data::sensor::{self, SensorConfig};
use tasfar_nn::prelude::*;

fn main() {
    // Parsed up front so a misspelled fault fails before any training.
    let chaos = std::env::var("TASFAR_CHAOS").ok().map(|v| {
        faultinject::parse_spec(&v).unwrap_or_else(|e| {
            eprintln!("TASFAR_CHAOS: {e}");
            std::process::exit(2);
        })
    });

    // ---- the deployment: steady regime, slow creep, abrupt jump ---------
    let sensor_cfg = SensorConfig {
        n_source: 800,
        n_stream: 900,
        shift_at: 450,
        ..SensorConfig::default()
    };
    let world = sensor::generate(&sensor_cfg);

    // ---- factory side: train + calibrate the source model ---------------
    let mut rng = Rng::new(7);
    let mut model = Sequential::new()
        .add(Dense::new(sensor::FEATURES, 32, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.2, &mut rng))
        .add(Dense::new(32, 1, Init::XavierUniform, &mut rng));
    let mut opt = Adam::new(5e-3);
    let report = fit(
        &mut model,
        &mut opt,
        &Mse,
        &world.source.x,
        &world.source.y,
        None,
        &TrainConfig {
            epochs: 100,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    println!("factory training: final MSE {:.5}", report.final_loss());
    let cfg = TasfarConfig {
        grid_cell: 0.05,
        epochs: 20,
        learning_rate: 1e-3,
        early_stop: None,
        ..TasfarConfig::default()
    };
    let calib =
        calibrate_on_source(&mut model, &world.source, &cfg).expect("the factory sweep calibrates");
    println!("calibration: tau = {:.4}", calib.classifier.tau);
    let source_mae = metrics::mae(&model.predict(&world.stream.x), &world.stream.y);

    // ---- deployment side: stream the target through the engine ----------
    let stream_cfg = StreamConfig {
        window: 192,
        warmup: 128,
        micro_batch: 24,
        micro_epochs: 6,
        replay_confident: 24,
        live_window: 48,
        check_every: 8,
        grid_headroom: 3.0,
    };
    let mut engine = StreamAdapter::new(
        model,
        calib,
        cfg,
        stream_cfg,
        DriftConfig::default(),
        RecoveryPolicy::default(),
    )
    .expect("valid streaming geometry");
    // A `TASFAR_CHAOS` fault is armed on this thread, which pushes the
    // stream, so it lands mid-stream rather than on calibration.
    if let Some((fault, seed)) = chaos {
        faultinject::arm_seeded(fault, seed);
    }

    // Prequential scoring: each chunk is predicted before it is ingested,
    // so the error curve is honest (the ground truth below is never shown
    // to the engine).
    let chunk_rows = 12;
    let mut abs_err = Vec::with_capacity(world.stream.len());
    let mut source = ReplayStream::new(world.stream.x.clone(), chunk_rows);
    let mut pos = 0;
    while let Some(chunk) = StreamSource::next_chunk(&mut source) {
        let pred = engine.predict(&chunk);
        for r in 0..pred.rows() {
            abs_err.push((pred.get(r, 0) - world.stream.y.get(pos + r, 0)).abs());
        }
        pos += chunk.rows();
        let tick = engine.push(&chunk, &Mse);
        if let Some(obs) = tick.drift.as_ref().filter(|o| o.tripped) {
            println!(
                "[sample {pos:>4}] drift trip: score {:.2} \
                 (uncertainty ratio {:.2}, mass shift {:.2})",
                obs.score, obs.unc_ratio, obs.mass_shift
            );
        }
        if let Some(outcome) = tick.readapt {
            println!(
                "[sample {pos:>4}] re-adaptation -> {} ({} trip(s) so far)",
                outcome.label(),
                engine.report().trips
            );
        }
        if let Some(err) = &tick.error {
            println!("[sample {pos:>4}] typed error absorbed: {err}");
        }
    }

    // ---- the drift story -------------------------------------------------
    let r = engine.report().clone();
    let eval = 150;
    let mae = |lo: usize, hi: usize| abs_err[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
    let pre = mae(sensor_cfg.shift_at - eval, sensor_cfg.shift_at);
    let post = mae(sensor_cfg.n_stream - eval, sensor_cfg.n_stream);
    println!(
        "stream done: {} ingested, {} rejected, {} micro-batches, \
         {} trip(s), {} readapt(s) ({} degraded)",
        r.ingested, r.rejected, r.micro_batches, r.trips, r.readapts, r.degraded
    );
    println!(
        "prequential MAE: {pre:.4} before the jump, {post:.4} at stream end \
         (unadapted source model over the whole stream: {source_mae:.4})"
    );
    println!("terminal state: {}", engine.phase().label());
    assert_ne!(
        engine.phase().label(),
        "warmup",
        "the stream is long enough to adapt"
    );
    let final_pred = engine.predict(&world.stream.x);
    assert!(
        final_pred.as_slice().iter().all(|v| v.is_finite()),
        "the engine must never ship a non-finite model"
    );

    // Close the trace with a metrics snapshot (drift.* counters and the
    // stream.* ingest counters included) so obs-report can expose them.
    tasfar_obs::metrics::emit_snapshot("streaming");
    tasfar_obs::flush();
}
