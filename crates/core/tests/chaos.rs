//! Chaos suite: every injectable fault class is caught by the validation
//! layer, classified into the typed error taxonomy, and either recovered by
//! the policy-driven retry or degraded to the source checkpoint — with the
//! rollback provably bit-identical.
//!
//! Faults are armed programmatically here, on the test's own thread (the
//! armed slot is thread-local). The `TASFAR_CHAOS` path is the examples'
//! own: `scripts/verify.sh` drives a sabotaged quickstart.

mod chaos_util;

use std::sync::Mutex;

use chaos_util::{calibrated_toy, fnv1a_bits};
use tasfar_core::faultinject::{self, Fault};
use tasfar_core::prelude::*;
use tasfar_nn::prelude::*;

/// Serialises the exact `chaos.injected.<fault>` deltas the single-fault
/// tests assert: those counters are process-wide, and the trace test and
/// the back-to-back gauntlet inject the same four faults (`nan_batch`,
/// `empty_confident_split`, `zero_density_mass`, `loss_explosion`). The
/// armed slot itself is thread-local and needs no lock.
static LOCK: Mutex<()> = Mutex::new(());

fn injected_count(fault: Fault) -> u64 {
    tasfar_obs::metrics::counter(&format!("chaos.injected.{}", fault.label())).get()
}

#[test]
fn nan_batch_fault_is_fatal_and_rolls_back_bit_identically() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut toy = calibrated_toy(31);
    let reference_hash = fnv1a_bits(toy.model.clone().predict(&toy.target_x).as_slice());
    let injected_before = injected_count(Fault::NanBatch);

    faultinject::arm_seeded(Fault::NanBatch, 7);
    let outcome = adapt_guarded(
        &mut toy.model,
        &toy.calib,
        &toy.target_x,
        &Mse,
        &toy.cfg,
        &RecoveryPolicy::default(),
    );
    match &outcome {
        GuardedOutcome::FellBackToSource { error, retries } => {
            assert_eq!(error.label(), "non_finite_input");
            assert!(!error.recoverable());
            assert_eq!(*retries, 0, "a fatal fault must not burn retries");
        }
        other => panic!("expected fallback, got {}", other.label()),
    }
    assert_eq!(injected_count(Fault::NanBatch), injected_before + 1);
    assert_eq!(faultinject::armed(), None, "the fault is one-shot");
    // Do-no-harm, pinned by hash: the rolled-back model's predictions are
    // bit-identical to the pre-adaptation model's.
    assert_eq!(
        fnv1a_bits(toy.model.predict(&toy.target_x).as_slice()),
        reference_hash,
        "rollback must restore the source checkpoint bit-identically"
    );
}

#[test]
fn empty_confident_split_fault_recovers_in_one_retry() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut toy = calibrated_toy(32);
    let injected_before = injected_count(Fault::EmptyConfidentSplit);

    faultinject::arm(Fault::EmptyConfidentSplit);
    // A near-neutral τ adjustment: the fault is one-shot, so the retry's
    // split is healthy as long as the widening doesn't overshoot it into
    // the all-confident regime.
    let policy = RecoveryPolicy {
        tau_widen: 1.01,
        ..RecoveryPolicy::default()
    };
    let outcome = adapt_guarded(
        &mut toy.model,
        &toy.calib,
        &toy.target_x,
        &Mse,
        &toy.cfg,
        &policy,
    );
    match &outcome {
        GuardedOutcome::Recovered {
            retries, errors, ..
        } => {
            assert_eq!(*retries, 1, "the fault is one-shot, the retry is clean");
            assert_eq!(errors.len(), 1);
            assert_eq!(errors[0].label(), "no_confident_samples");
            assert!(errors[0].recoverable());
        }
        other => panic!("expected recovery, got {}", other.label()),
    }
    assert_eq!(
        injected_count(Fault::EmptyConfidentSplit),
        injected_before + 1
    );
}

#[test]
fn zero_density_mass_fault_recovers_in_one_retry() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut toy = calibrated_toy(33);
    let injected_before = injected_count(Fault::ZeroDensityMass);

    faultinject::arm(Fault::ZeroDensityMass);
    let outcome = adapt_guarded(
        &mut toy.model,
        &toy.calib,
        &toy.target_x,
        &Mse,
        &toy.cfg,
        &RecoveryPolicy::default(),
    );
    match &outcome {
        GuardedOutcome::Recovered {
            retries, errors, ..
        } => {
            assert_eq!(*retries, 1);
            assert_eq!(errors[0].label(), "zero_density_mass");
            assert!(errors[0].recoverable());
        }
        other => panic!("expected recovery, got {}", other.label()),
    }
    assert_eq!(injected_count(Fault::ZeroDensityMass), injected_before + 1);
}

#[test]
fn loss_explosion_fault_recovers_with_backed_off_learning_rate() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut toy = calibrated_toy(34);
    let injected_before = injected_count(Fault::LossExplosion);

    faultinject::arm(Fault::LossExplosion);
    let outcome = adapt_guarded(
        &mut toy.model,
        &toy.calib,
        &toy.target_x,
        &Mse,
        &toy.cfg,
        &RecoveryPolicy::default(),
    );
    match &outcome {
        GuardedOutcome::Recovered {
            retries, errors, ..
        } => {
            assert_eq!(*retries, 1);
            assert_eq!(errors[0].label(), "train");
            assert!(errors[0].recoverable());
        }
        other => panic!("expected recovery, got {}", other.label()),
    }
    assert_eq!(injected_count(Fault::LossExplosion), injected_before + 1);
}

#[test]
fn injection_and_rollback_are_visible_in_the_trace() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut toy = calibrated_toy(35);

    let sink = tasfar_obs::capture();
    faultinject::arm_seeded(Fault::NanBatch, 3);
    let outcome = adapt_guarded(
        &mut toy.model,
        &toy.calib,
        &toy.target_x,
        &Mse,
        &toy.cfg,
        &RecoveryPolicy::default(),
    );
    tasfar_obs::disable();
    assert!(outcome.fell_back());

    let lines = sink.lines();
    let has = |needle: &str| lines.iter().any(|l| l.contains(needle));
    assert!(has("chaos.injected"), "the injection emits a trace event");
    assert!(has("nan_batch"), "the event names the fault");
    assert!(has("guard.rollback"), "the rollback emits a trace event");
    assert!(
        has("adapt_guarded"),
        "the guarded run has a span with its outcome"
    );
    assert!(has("fell_back"), "the span records the outcome label");
}

#[test]
fn every_fault_class_is_survivable_back_to_back() {
    // The acceptance sweep: all four fault classes in sequence against one
    // deployment, none panics, each resolves per policy, and the model ends
    // the gauntlet either adapted or bit-identical to the source.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let toy = calibrated_toy(36);

    for (fault, expect) in [
        (Fault::NanBatch, "fell_back"),
        (Fault::EmptyConfidentSplit, "recovered"),
        (Fault::ZeroDensityMass, "recovered"),
        (Fault::LossExplosion, "recovered"),
    ] {
        let mut model = toy.model.clone();
        faultinject::arm(fault);
        let outcome = adapt_guarded(
            &mut model,
            &toy.calib,
            &toy.target_x,
            &Mse,
            &toy.cfg,
            &RecoveryPolicy::default(),
        );
        assert_eq!(
            outcome.label(),
            expect,
            "fault {} must resolve per policy",
            fault.label()
        );
        if outcome.fell_back() {
            assert_eq!(
                fnv1a_bits(model.predict(&toy.target_x).as_slice()),
                fnv1a_bits(toy.model.clone().predict(&toy.target_x).as_slice()),
            );
        }
        assert!(model.predict(&toy.target_x).all_finite());
    }
}
