//! Chaos gauntlet with the adapter subspace enabled: every injectable fault
//! class must be caught and settled exactly as in the full-model suite
//! (`chaos.rs`), except the guard's checkpoint is now a KB-sized delta
//! snapshot (`SeqCheckpoint::Deltas`) — and rolling back only the factors
//! must still restore the source predictions bit-identically.

mod chaos_util;

use chaos_util::{calibrated_toy, fnv1a_bits, Toy};
use tasfar_core::faultinject::{self, Fault};
use tasfar_core::prelude::*;
use tasfar_nn::adapter::{enable_adapters, AdapterConfig};
use tasfar_nn::model::CheckpointRegressor;
use tasfar_nn::prelude::*;

/// A calibrated toy with rank-4 adapters attached. Attaching is
/// prediction-preserving, so the calibration stays valid.
fn adapted_toy(seed: u64) -> Toy {
    let mut toy = calibrated_toy(seed);
    let mut rng = Rng::new(seed ^ 0xada9);
    let attached = enable_adapters(&mut toy.model, &AdapterConfig::rank(4), &mut rng);
    assert!(attached > 0);
    toy
}

#[test]
fn adapted_guard_checkpoints_are_delta_sized() {
    let mut toy = adapted_toy(61);
    let mut ckpt = toy.model.checkpoint();
    assert!(
        ckpt.is_delta(),
        "an adapted model must snapshot factors, not a full clone"
    );
    // The toy (Dense 2→24→1) keeps 121 base weights; its rank-4 delta is
    // (2·2 + 2·24) + (24·1 + 1·1) = 77 scalars. The guard therefore holds
    // well under the full parameter payload while recovering.
    let full_bytes = {
        let mut scalars = 0usize;
        toy.model
            .visit_base_params(&mut |p| scalars += p.value.as_slice().len());
        scalars * std::mem::size_of::<f64>()
    };
    let delta_bytes = ckpt.payload_bytes();
    assert!(
        delta_bytes < full_bytes,
        "delta checkpoint ({delta_bytes} B) must undercut the base weights ({full_bytes} B)"
    );
}

#[test]
fn nan_batch_rolls_back_the_delta_bit_identically() {
    let mut toy = adapted_toy(62);
    let reference_hash = fnv1a_bits(toy.model.predict(&toy.target_x).as_slice());

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
            assert_eq!(*retries, 0);
        }
        other => panic!("expected fallback, got {}", other.label()),
    }
    // Delta-only rollback: only O(rank·dim) factor values were restored,
    // yet the composed predictions carry the exact source bit pattern.
    assert_eq!(
        fnv1a_bits(toy.model.predict(&toy.target_x).as_slice()),
        reference_hash,
        "delta rollback must restore source predictions bit-identically"
    );
    assert!(
        toy.model.has_adapters(),
        "rollback must not detach the adapters"
    );
}

#[test]
fn adapted_gauntlet_settles_every_fault_class() {
    // Same expectations as the full-model gauntlet in `chaos.rs`: the
    // adapter subspace changes what the guard snapshots and the optimizer
    // moves, never how faults classify or recover.
    let expectations = [
        (Fault::NanBatch, "fell_back"),
        (Fault::EmptyConfidentSplit, "recovered"),
        (Fault::ZeroDensityMass, "recovered"),
        (Fault::LossExplosion, "recovered"),
    ];
    for (fault, expected) in expectations {
        let mut toy = adapted_toy(63);
        let reference_hash = fnv1a_bits(toy.model.predict(&toy.target_x).as_slice());
        match fault {
            Fault::NanBatch => faultinject::arm_seeded(fault, 11),
            _ => faultinject::arm(fault),
        }
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
        assert_eq!(
            outcome.label(),
            expected,
            "fault {} must settle as {expected} under adapters",
            fault.label()
        );
        assert_eq!(faultinject::armed(), None, "every fault is one-shot");
        if expected == "fell_back" {
            assert_eq!(
                fnv1a_bits(toy.model.predict(&toy.target_x).as_slice()),
                reference_hash,
                "fallback after {} must be bit-identical",
                fault.label()
            );
        }
    }
}
