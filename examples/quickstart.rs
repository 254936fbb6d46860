//! Quickstart: TASFAR on a minimal synthetic regression task.
//!
//! A source model is trained on `y = x₀` with clean inputs; the target
//! scenario corrupts a share of the inputs ("hard" samples) while its labels
//! cluster tightly — the scenario prior TASFAR exploits. The example walks
//! the full two-phase API:
//!
//! 1. source-side calibration (τ + Q_s) while the source data still exists;
//! 2. source-free adaptation with *unlabeled* target inputs only.
//!
//! Run with: `cargo run --release -p examples --bin quickstart`
//!
//! `TASFAR_CHAOS=<fault>[:<seed>]` sabotages the guarded adaptation with one
//! injected fault (e.g. `nan_batch`); an unknown fault name exits with
//! status 2 and lists the accepted names.

use tasfar_core::faultinject;
use tasfar_core::prelude::*;
use tasfar_data::Dataset;
use tasfar_nn::prelude::*;

fn main() {
    // Parsed up front so a misspelled fault fails before any training.
    let chaos = std::env::var("TASFAR_CHAOS").ok().map(|v| {
        faultinject::parse_spec(&v).unwrap_or_else(|e| {
            eprintln!("TASFAR_CHAOS: {e}");
            std::process::exit(2);
        })
    });
    let mut rng = Rng::new(42);

    // ---- source scenario: y uniform in [−1, 1], mostly clean inputs ----
    let n_src = 800;
    let mut xs = Tensor::zeros(n_src, 2);
    let mut ys = Tensor::zeros(n_src, 1);
    for i in 0..n_src {
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
    let source = Dataset::new(xs, ys);

    // ---- train the source model (dropout makes MC uncertainty possible) --
    let mut model = Sequential::new()
        .add(Dense::new(2, 32, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.2, &mut rng))
        .add(Dense::new(32, 1, Init::XavierUniform, &mut rng));
    let mut opt = Adam::new(5e-3);
    let report = fit(
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
    println!("source training: final MSE {:.5}", report.final_loss());

    // ---- optional adapter subspace (TASFAR_ADAPTER=rank:<r>) ------------
    // Freezes the source weights and hands adaptation a zero-initialised
    // low-rank delta to move instead, so the per-scenario adapted state is
    // KB-scale. Only `rank:<r>` with r ≥ 1 attaches adapters; any other
    // value (or none) runs without them, bit-identical to before.
    let adapter_rank = std::env::var("TASFAR_ADAPTER")
        .ok()
        .and_then(|v| {
            let v = v.trim().to_ascii_lowercase();
            v.strip_prefix("rank:")?.trim().parse::<usize>().ok()
        })
        .filter(|&r| r >= 1);
    if let Some(rank) = adapter_rank {
        enable_adapters(&mut model, &AdapterConfig::rank(rank), &mut rng);
        let stats = tasfar_nn::adapter::stats();
        println!(
            "adapter subspace: rank {} on {} layer(s), {} delta params ({} B)",
            stats.rank, stats.layers, stats.params, stats.bytes
        );
    }
    tasfar_obs::emit_adapter_event();

    // ---- phase 1: calibrate τ and Q_s on the source side ----------------
    let cfg = TasfarConfig {
        grid_cell: 0.05,
        epochs: 80,
        ..TasfarConfig::default()
    };
    let calib =
        calibrate_on_source(&mut model, &source, &cfg).expect("the source scenario calibrates");
    println!(
        "calibration: tau = {:.4}, Q_s = {:.3} + {:.3}·u",
        calib.classifier.tau, calib.qs[0].a0, calib.qs[0].a1
    );

    // ---- target scenario: labels cluster at 0.6; 40 % hard inputs -------
    let n_tgt = 500;
    let mut xt = Tensor::zeros(n_tgt, 2);
    let mut yt = Tensor::zeros(n_tgt, 1);
    for i in 0..n_tgt {
        let y = rng.gaussian(0.6, 0.05);
        let hard = rng.bernoulli(0.4);
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
        yt.set(i, 0, y);
    }

    // ---- phase 2: source-free adaptation (labels yt never touched) ------
    // The guarded entry point wraps the pipeline in the fault-tolerant
    // path: recoverable errors trigger policy-driven retries, and anything
    // unrecoverable rolls the model back to the source checkpoint
    // (do-no-harm). A `TASFAR_CHAOS` fault is armed just before the run, so
    // it lands on the adaptation, not on calibration.
    let before = metrics::mse(&model.predict(&xt), &yt);
    if let Some((fault, seed)) = chaos {
        faultinject::arm_seeded(fault, seed);
    }
    let outcome = adapt_guarded(
        &mut model,
        &calib,
        &xt,
        &Mse,
        &cfg,
        &RecoveryPolicy::default(),
    );
    let after = metrics::mse(&model.predict(&xt), &yt);

    match &outcome {
        GuardedOutcome::Adapted(_) => {}
        GuardedOutcome::Recovered { retries, .. } => {
            println!("adaptation recovered after {retries} retry(ies)");
        }
        GuardedOutcome::FellBackToSource { error, retries } => {
            println!("adaptation fell back to the source model ({error}; {retries} retries)");
            assert_eq!(
                before, after,
                "fallback must restore the source model bit-identically"
            );
            println!("target MSE unchanged at {after:.5} — do-no-harm held");
            tasfar_obs::metrics::emit_snapshot("quickstart");
            tasfar_obs::flush();
            return;
        }
    }
    let adapted = outcome
        .adaptation()
        .expect("adapted/recovered outcomes carry the pipeline result");
    println!(
        "target split: {} confident / {} uncertain ({:.1}% uncertain)",
        adapted.split.confident.len(),
        adapted.split.uncertain.len(),
        100.0 * adapted.split.uncertain_ratio()
    );
    println!(
        "mean pseudo-label credibility: {:.3}",
        adapted.mean_credibility()
    );
    println!("target MSE before adaptation: {before:.5}");
    println!("target MSE after  adaptation: {after:.5}");
    println!(
        "error reduction: {:.1}%",
        metrics::error_reduction_pct(before, after)
    );
    assert!(after < before, "adaptation should reduce the target error");

    // Close the trace with a full metrics snapshot (stage histograms now
    // carry p50/p90/p99), so `obs-report --prom` has something to expose.
    tasfar_obs::metrics::emit_snapshot("quickstart");
    tasfar_obs::flush();
}
