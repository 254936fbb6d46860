//! Mid-stream chaos gauntlet: every streaming fault class — NaN burst at
//! ingest, window starvation, drift-detector flap, loss explosion during
//! re-adaptation — is injected back-to-back into one live engine. Each
//! fault must settle to a terminal `adapted` / `recovered` /
//! `degraded-to-last-good` state with the rollback pinned by
//! prediction-bit hashes; never a panic, never silent corruption.
//!
//! Faults are armed programmatically, on the thread that pushes the stream
//! (the armed slot is thread-local).

mod stream_util;

use stream_util::{fnv1a_bits, stream_toy, toy_stream_cfg};
use tasfar_core::faultinject::{self, Fault};
use tasfar_core::prelude::*;
use tasfar_nn::prelude::*;

const CHUNK: usize = 8;
const TERMINAL: [&str; 3] = ["adapted", "recovered", "degraded-to-last-good"];

fn injected_count(fault: Fault) -> u64 {
    tasfar_obs::metrics::counter(&format!("chaos.injected.{}", fault.label())).get()
}

/// Feeds `chunks` chunks of the stream into the engine, asserting the
/// model stays usable after every push.
fn feed(
    engine: &mut StreamAdapter<Sequential>,
    stream: &Tensor,
    pos: &mut usize,
    chunks: usize,
    probe: &Tensor,
) -> Vec<StreamTick> {
    let mut ticks = Vec::new();
    for _ in 0..chunks {
        let hi = (*pos + CHUNK).min(stream.rows());
        if *pos >= hi {
            break;
        }
        let chunk = stream.slice_rows(*pos, hi);
        *pos = hi;
        ticks.push(engine.push(&chunk, &Mse));
        assert!(
            engine
                .predict(probe)
                .as_slice()
                .iter()
                .all(|v| v.is_finite()),
            "the model must stay finite after every push"
        );
    }
    ticks
}

#[test]
fn mid_stream_fault_gauntlet_settles_every_fault() {
    // A stationary regime (the jump sits past the feed) — every state
    // change below is caused by an injected fault, not by real drift.
    let toy = stream_toy(41, 400, 400);
    let stream = toy.world.stream.x.clone();
    let probe = stream.slice_rows(0, 32);
    let mut engine = StreamAdapter::new(
        toy.model,
        toy.calib,
        toy.cfg,
        toy_stream_cfg(),
        DriftConfig::default(),
        RecoveryPolicy::default(),
    )
    .expect("valid geometry");
    let mut pos = 0;

    // -- Warmup: the initial guarded adaptation runs and terminates. -----
    feed(&mut engine, &stream, &mut pos, 9, &probe);
    assert!(engine.grids_frozen(), "warmup must freeze the grids");
    assert!(
        TERMINAL.contains(&engine.phase().label()),
        "warmup must reach a terminal state, got `{}`",
        engine.phase().label()
    );

    // -- Fault 1: a sensor dropout poisons a burst of rows with NaN. -----
    let injected = injected_count(Fault::StreamNanBurst);
    let rejected = engine.report().rejected;
    faultinject::arm_seeded(Fault::StreamNanBurst, 5);
    feed(&mut engine, &stream, &mut pos, 1, &probe);
    assert_eq!(injected_count(Fault::StreamNanBurst), injected + 1);
    assert_eq!(faultinject::armed(), None, "the fault is one-shot");
    assert!(
        engine.report().rejected > rejected,
        "ingest validation must reject the burst, not window it"
    );

    // -- Fault 2: an upstream outage drains the window. ------------------
    faultinject::arm(Fault::WindowStarvation);
    feed(&mut engine, &stream, &mut pos, 1, &probe);
    assert!(
        engine.window_len() <= CHUNK,
        "starvation must drain the window (len {})",
        engine.window_len()
    );
    // The stream keeps flowing and the engine simply refills.
    feed(&mut engine, &stream, &mut pos, 12, &probe);
    assert!(engine.window_len() > CHUNK);
    assert!(TERMINAL.contains(&engine.phase().label()));

    // -- Fault 3: the drift detector flaps (forced trip, no real drift). -
    let trips = engine.report().trips;
    let readapts = engine.report().readapts;
    faultinject::arm(Fault::DriftFlap);
    feed(&mut engine, &stream, &mut pos, 3, &probe);
    assert_eq!(faultinject::armed(), None);
    assert!(engine.report().trips > trips, "the flap must trip");
    assert!(
        engine.report().readapts > readapts,
        "a trip must trigger guarded re-adaptation"
    );
    assert!(TERMINAL.contains(&engine.phase().label()));

    // -- Fault 4: the re-adaptation fine-tune explodes on every retry. ---
    // Right after a (re-)adaptation the model *is* the last-good
    // checkpoint, so its prediction hash pins the state the explosion
    // must degrade back to.
    let good_hash = fnv1a_bits(engine.predict(&probe).as_slice());
    // Micro-batches in between may legitimately move the weights...
    feed(&mut engine, &stream, &mut pos, 2, &probe);
    let degraded = engine.report().degraded;
    let rollbacks = tasfar_obs::metrics::counter("drift.rollbacks").get();
    faultinject::arm(Fault::ReadaptLossExplosion);
    let outcome = engine
        .readapt(&Mse, "chaos_forced")
        .expect("the window is populated");
    // ...but the degrade must land exactly on the last good state.
    assert_eq!(outcome, StreamOutcome::DegradedLastGood);
    assert_eq!(engine.phase().label(), "degraded-to-last-good");
    assert_eq!(engine.report().degraded, degraded + 1);
    assert_eq!(
        tasfar_obs::metrics::counter("drift.rollbacks").get(),
        rollbacks + 1
    );
    assert_eq!(
        fnv1a_bits(engine.predict(&probe).as_slice()),
        good_hash,
        "degrade-to-last-good must restore the checkpoint bit-identically"
    );

    // -- The stream goes on: the degraded engine keeps serving. ----------
    feed(&mut engine, &stream, &mut pos, 2, &probe);
    assert!(engine.report().readapts >= 2);
    assert!(TERMINAL.contains(&engine.phase().label()));
}
