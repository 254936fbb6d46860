//! Target-data partitioning (the paper's Sec. VI future work, see
//! `tasfar_core::partition`): adapt the crowd counter once per scene
//! instead of fusing all scenes, and compare against both the baseline and
//! the fused adaptation — the protocol behind the paper's Fig. 20.
//!
//! Each scene is one tenant of a `TenantSession`: a guarded adapt that
//! keeps only a low-rank delta over the shared source model, served
//! through the segmented forward.
//!
//! Run with: `cargo run --release -p examples --bin partitioned_scenes`

use tasfar_core::prelude::*;
use tasfar_data::crowd::{self, CrowdConfig};
use tasfar_data::{Dataset, Scaler};
use tasfar_nn::layers::SegmentSpan;
use tasfar_nn::prelude::*;

fn main() {
    let world = crowd::generate(&CrowdConfig::default());
    let scaler = Scaler::fit(&world.source.x);
    let source = Dataset::new(scaler.transform(&world.source.x), world.source.y.clone());

    let mut rng = Rng::new(11);
    let mut model = Sequential::new()
        .add(Dense::new(crowd::FEATURES, 64, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.2, &mut rng))
        .add(Dense::new(64, 32, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dropout::new(0.2, &mut rng))
        .add(Dense::new(32, 1, Init::XavierUniform, &mut rng));
    println!("training the source counter on {} images...", source.len());
    let mut opt = Adam::new(1e-3);
    let _ = fit(
        &mut model,
        &mut opt,
        &Mse,
        &source.x,
        &source.y,
        None,
        &TrainConfig {
            epochs: 150,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );

    let cfg = TasfarConfig {
        grid_cell: 5.0,
        joint_2d: false,
        relative_uncertainty: true,
        scenario_tau_rescale: true,
        learning_rate: 1e-3,
        epochs: 100,
        ..TasfarConfig::default()
    };
    let calib =
        calibrate_on_source(&mut model, &source, &cfg).expect("the dense source scenes calibrate");

    // Build the fused target batch with per-row scene keys.
    let mut adapt_parts = Vec::new();
    let mut test_parts = Vec::new();
    let mut keys = Vec::new();
    for (s, scene) in world.scenes.iter().enumerate() {
        let data = Dataset::new(scaler.transform(&scene.data.x), scene.data.y.clone());
        let mut srng = Rng::new(50 + s as u64);
        let (a, t) = data.split_fraction(0.8, &mut srng);
        keys.extend(std::iter::repeat_n(s, a.len()));
        adapt_parts.push(a);
        test_parts.push(t);
    }
    let fused_adapt = Dataset::concat(&adapt_parts.iter().collect::<Vec<_>>());

    // Fused: one adaptation over everything.
    let mut fused_model = model.clone();
    let _ = adapt(&mut fused_model, &calib, &fused_adapt.x, &Mse, &cfg);

    // Partitioned: one guarded rank-8 delta adapt per scene over one shared
    // source model.
    let session = TenantSession::new(calib, cfg, AdapterConfig::rank(8));
    let (mut shared, init) = session.prepare_shared(&model, &mut rng);
    let groups = group_by_key(&keys);
    let mut deltas = Vec::with_capacity(groups.len());
    let mut summaries = Vec::with_capacity(groups.len());
    for (g, rows) in groups.iter().enumerate() {
        let xg = fused_adapt.x.select_rows(rows);
        let (outcome, art) =
            session.adapt_delta(&mut shared, &init, g as u64, None, &xg, &Mse, &mut rng);
        summaries.push(match outcome.adaptation() {
            Some(a) => format!("{:.2}", a.split.uncertain_ratio()),
            None => format!("{} (source)", outcome.label()),
        });
        deltas.push(art);
    }
    println!(
        "partitioned into {} scene groups; per-group uncertain ratios: {summaries:?}",
        groups.len()
    );

    println!(
        "\n{:>7} {:>10} {:>10} {:>13}",
        "scene", "baseline", "fused", "partitioned"
    );
    for (s, test_ds) in test_parts.iter().enumerate() {
        let base = metrics::mae(&model.clone().predict(&test_ds.x), &test_ds.y);
        let fused_mae = metrics::mae(&fused_model.predict(&test_ds.x), &test_ds.y);
        let span = SegmentSpan {
            rows: test_ds.len(),
            delta: deltas[s].as_ref(),
        };
        let part_pred = shared.predict_segmented_scratch(&test_ds.x, &[span], &mut Scratch::new());
        let part_mae = metrics::mae(&part_pred, &test_ds.y);
        println!(
            "{:>7} {base:>10.2} {fused_mae:>10.2} {part_mae:>13.2}",
            s + 1
        );
    }
}
