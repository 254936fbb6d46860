//! Manual timing probe for the serving hot path (ignored by default):
//! `cargo test -q -p tasfar-serve --test perf_probe --release -- --ignored --nocapture`

use std::time::Instant;

use tasfar_nn::adapter::{enable_adapters, AdapterConfig};
use tasfar_nn::init::Init;
use tasfar_nn::layers::{Dense, Dropout, Layer, Mode, Relu, Sequential};
use tasfar_nn::prelude::*;
use tasfar_nn::spec::DeltaArtifact;

#[test]
#[ignore]
fn time_engine_loop() {
    use std::sync::Arc;
    use tasfar_core::adapt::{calibrate_on_source, TasfarConfig};
    use tasfar_core::session::TenantSession;
    use tasfar_data::Dataset;
    use tasfar_serve::{CompletionKind, ServeConfig, ServeRuntime};

    let mut rng = Rng::new(1);
    let mut model = Sequential::new()
        .add(Dense::new(8, 256, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.1, &mut rng))
        .add(Dense::new(256, 256, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.1, &mut rng))
        .add(Dense::new(256, 1, Init::XavierUniform, &mut rng));
    let x = Tensor::rand_normal(96, 8, 0.0, 1.0, &mut rng);
    let y = Tensor::rand_normal(96, 1, 0.0, 1.0, &mut rng);
    let source = Dataset::new(x, y);
    let cfg = TasfarConfig {
        mc_samples: 4,
        epochs: 2,
        segments: 8,
        early_stop: None,
        ..TasfarConfig::default()
    };
    let calib = calibrate_on_source(&mut model, &source, &cfg).unwrap();
    let session = TenantSession::new(calib, cfg, AdapterConfig::rank(2));

    for (label, window) in [("unbatched", 1usize), ("batched", 256)] {
        let rt: Arc<ServeRuntime> = ServeRuntime::new(
            model.clone(),
            session.clone(),
            ServeConfig {
                shards: 64,
                queue_depth: 2048,
                batch_window: window,
                resident_budget_bytes: 16 << 20,
            },
        );
        let mut worker = rt.worker(7);
        let n = 2048usize;
        let t0 = Instant::now();
        for i in 0..n {
            rt.submit_predict(
                (i % 10) as u64,
                Tensor::rand_normal(1, 8, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        }
        let submit_us = t0.elapsed().as_secs_f64() * 1e6;
        let t0 = Instant::now();
        let mut done = 0usize;
        while done < n {
            for c in worker.process_next() {
                if let CompletionKind::Predict { output, .. } = c.kind {
                    done += 1;
                    worker.recycle(output);
                }
            }
        }
        let drain_us = t0.elapsed().as_secs_f64() * 1e6;
        println!(
            "{label:<10} submit {:>6.2} us/req   drain {:>6.2} us/req",
            submit_us / n as f64,
            drain_us / n as f64
        );
    }
}

#[test]
#[ignore]
fn time_hot_path_shapes() {
    for &h in &[256usize, 512, 1024] {
        let mut rng = Rng::new(1);
        let mut model = Sequential::new()
            .add(Dense::new(8, h, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(h, h, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(h, 1, Init::XavierUniform, &mut rng));
        enable_adapters(&mut model, &AdapterConfig::rank(2), &mut rng);
        let mut scratch = Scratch::new();
        let x1 = Tensor::rand_normal(1, 8, 0.0, 1.0, &mut rng);
        let x256 = Tensor::rand_normal(256, 8, 0.0, 1.0, &mut rng);
        for _ in 0..8 {
            let out = model.forward_scratch(&x1, Mode::Eval, &mut scratch);
            scratch.give(out);
        }
        let n = 128;
        let t0 = Instant::now();
        for _ in 0..n {
            let out = model.forward_scratch(&x1, Mode::Eval, &mut scratch);
            scratch.give(out);
        }
        let solo = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
        let t0 = Instant::now();
        for _ in 0..8 {
            let out = model.forward_scratch(&x256, Mode::Eval, &mut scratch);
            scratch.give(out);
        }
        let fused_row = t0.elapsed().as_secs_f64() * 1e6 / 8.0 / 256.0;
        println!(
            "h={h:<5} solo {solo:>7.1} us/row   fused {fused_row:>6.2} us/row   ratio {:.2}x",
            solo / fused_row
        );
    }
}

#[test]
#[ignore]
fn time_hot_path_components() {
    let mut rng = Rng::new(1);
    let mut model = Sequential::new()
        .add(Dense::new(8, 256, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.1, &mut rng))
        .add(Dense::new(256, 256, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.1, &mut rng))
        .add(Dense::new(256, 1, Init::XavierUniform, &mut rng));
    enable_adapters(&mut model, &AdapterConfig::rank(2), &mut rng);
    let init = model.checkpoint();
    let artifact = DeltaArtifact::capture(&mut model, &AdapterConfig::rank(2));
    let mut scratch = Scratch::new();
    let x1 = Tensor::rand_normal(1, 8, 0.0, 1.0, &mut rng);
    let x256 = Tensor::rand_normal(256, 8, 0.0, 1.0, &mut rng);
    let n = 256;

    // Warmup.
    for _ in 0..16 {
        let out = model.forward_scratch(&x1, Mode::Eval, &mut scratch);
        scratch.give(out);
    }

    let t0 = Instant::now();
    for _ in 0..n {
        let out = model.forward_scratch(&x1, Mode::Eval, &mut scratch);
        scratch.give(out);
    }
    println!(
        "forward 1-row:      {:>8.1} us/call",
        t0.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    let t0 = Instant::now();
    for _ in 0..16 {
        let out = model.forward_scratch(&x256, Mode::Eval, &mut scratch);
        scratch.give(out);
    }
    println!(
        "forward 256-row:    {:>8.1} us/call",
        t0.elapsed().as_secs_f64() * 1e6 / 16.0
    );

    let t0 = Instant::now();
    for _ in 0..n {
        artifact.try_apply(&mut model, &mut rng).unwrap();
    }
    println!(
        "delta try_apply:    {:>8.1} us/call",
        t0.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    let t0 = Instant::now();
    for _ in 0..n {
        model.restore(&init);
    }
    println!(
        "restore(init):      {:>8.1} us/call",
        t0.elapsed().as_secs_f64() * 1e6 / n as f64
    );
}
