//! Batching-window edge cases and the fused-vs-solo bit-identity pins.
//!
//! The load-bearing property: a tenant's prediction inside a fused
//! cross-tenant batch is **bit-identical** to the same request served
//! alone. Pinned via FNV-1a hashes over the output bits, not approximate
//! comparison — one flipped mantissa bit fails the suite.

mod support;

use std::sync::Arc;

use tasfar_nn::prelude::*;
use tasfar_serve::{
    hash_tensor_bits, Completion, CompletionKind, ServeConfig, ServeRuntime, ServeWorker, ServedVia,
};

/// Adapts `tenant` on a batch centred at `centre` so it holds a real,
/// non-zero delta.
fn adapt_tenant(worker: &mut ServeWorker, tenant: u64, centre: f64) {
    let rt = worker.runtime().clone();
    let mut rng = Rng::new(1000 + tenant);
    rt.submit_adapt(tenant, support::target_batch(&mut rng, 96, centre))
        .unwrap();
    let done = worker.process_next();
    assert_eq!(done.len(), 1);
    assert!(
        matches!(
            done[0].kind,
            CompletionKind::Adapt {
                outcome: "adapted" | "recovered"
            }
        ),
        "warmup adaptation must succeed, got {:?}",
        done[0].kind
    );
}

fn predict_outputs(completions: Vec<Completion>) -> Vec<(u64, Tensor, ServedVia)> {
    completions
        .into_iter()
        .map(|c| match c.kind {
            CompletionKind::Predict { output, via } => (c.tenant, output, via),
            other => panic!("expected predict completion, got {other:?}"),
        })
        .collect()
}

/// The fused-vs-solo pin on one runtime: tenants 1 and 2 adapt, tenant 3
/// never does; every request of a cross-tenant batch must hash equal to
/// the same request served alone.
fn assert_fused_batch_matches_solo(rt: &Arc<ServeRuntime>, worker_seed: u64) {
    let mut worker = rt.worker(worker_seed);
    adapt_tenant(&mut worker, 1, -0.6);
    adapt_tenant(&mut worker, 2, 0.6);
    // Tenant 3 never adapted: served by the source model inside the batch.

    let mut rng = Rng::new(7);
    let requests: Vec<(u64, Tensor)> = vec![
        (1, Tensor::rand_normal(3, 2, 0.0, 1.0, &mut rng)),
        (2, Tensor::rand_normal(1, 2, 0.0, 1.0, &mut rng)),
        (1, Tensor::rand_normal(2, 2, 0.0, 1.0, &mut rng)),
        (3, Tensor::rand_normal(4, 2, 0.0, 1.0, &mut rng)),
        (2, Tensor::rand_normal(1, 2, 0.0, 1.0, &mut rng)),
    ];

    // Reference: each request served alone, hash-pinned.
    let solo_hashes: Vec<u64> = requests
        .iter()
        .map(|(tenant, x)| {
            let (out, _) = worker.serve_solo(*tenant, x);
            let h = hash_tensor_bits(&out);
            worker.recycle(out);
            h
        })
        .collect();

    // The same five requests fused into one cross-tenant batch.
    for (tenant, x) in &requests {
        rt.submit_predict(*tenant, x.clone()).unwrap();
    }
    let outs = predict_outputs(worker.process_next());
    assert_eq!(outs.len(), requests.len());
    for (i, (tenant, out, via)) in outs.iter().enumerate() {
        assert_eq!(*tenant, requests[i].0, "completions keep admission order");
        assert_eq!(
            hash_tensor_bits(out),
            solo_hashes[i],
            "request {i} (tenant {tenant}): fused prediction must be \
             bit-identical to solo serving"
        );
        let expect_via = if *tenant == 3 {
            ServedVia::Source
        } else {
            ServedVia::Delta
        };
        assert_eq!(*via, expect_via);
    }
    // Adapted tenants must actually differ from the source path, or the
    // pin above proves nothing.
    let x = &requests[0].1;
    let (src, _) = worker.serve_solo(3, x);
    let (t1, _) = worker.serve_solo(1, x);
    assert_ne!(
        hash_tensor_bits(&src),
        hash_tensor_bits(&t1),
        "tenant 1's delta must change its predictions"
    );
}

fn pin_config() -> ServeConfig {
    ServeConfig {
        shards: 4,
        batch_window: 32,
        ..ServeConfig::default()
    }
}

#[test]
fn fused_cross_tenant_batch_is_bit_identical_to_solo() {
    assert_fused_batch_matches_solo(&support::runtime(pin_config()), 42);
}

#[test]
fn batchnorm_model_fused_batch_is_bit_identical_to_solo() {
    let rt = support::runtime_batchnorm(pin_config());
    assert_fused_batch_matches_solo(&rt, 47);
    // The artifacts must carry a *moved* batch-norm affine (γ/β stay
    // trainable under adapters), or the pin never covers per-segment
    // affine serving. Trainable order: d1 down/up, γ, β, d2 down/up.
    let art = rt.registry().clone_artifact(1).expect("tenant 1 adapted");
    assert_eq!(art.shapes[2], (1, 24), "index 2 is batch-norm γ");
    assert!(
        art.values[2] != vec![1.0; 24] || art.values[3] != vec![0.0; 24],
        "adaptation must move the batch-norm affine off its source init"
    );
}

#[test]
fn tcn_model_fused_batch_is_bit_identical_to_solo() {
    assert_fused_batch_matches_solo(&support::runtime_tcn(pin_config()), 49);
}

#[test]
fn wrong_width_request_is_rejected_at_admission() {
    use tasfar_serve::ServeError;

    let rt = support::runtime(ServeConfig::default());
    let mut worker = rt.worker(48);
    // The model takes 2 input features; 3 must be refused before it can
    // reach a fused batch and panic the worker.
    let bad = Tensor::zeros(1, 3);
    assert_eq!(
        rt.submit_predict(1, bad.clone()),
        Err(ServeError::InputWidth {
            expected: 2,
            got: 3
        })
    );
    assert_eq!(
        rt.submit_adapt(1, bad),
        Err(ServeError::InputWidth {
            expected: 2,
            got: 3
        })
    );
    assert!(
        rt.queue().is_empty(),
        "rejected requests must never be enqueued"
    );
    // Well-formed traffic on the same runtime still serves.
    rt.submit_predict(1, Tensor::zeros(1, 2)).unwrap();
    let outs = predict_outputs(worker.process_next());
    assert_eq!(outs.len(), 1);
}

#[test]
fn batch_of_one_tenant_fuses_all_requests() {
    let rt = support::runtime(ServeConfig {
        shards: 4,
        batch_window: 16,
        ..ServeConfig::default()
    });
    let mut worker = rt.worker(43);
    adapt_tenant(&mut worker, 5, 0.4);
    let mut rng = Rng::new(8);
    let xs: Vec<Tensor> = (0..6)
        .map(|_| Tensor::rand_normal(2, 2, 0.0, 1.0, &mut rng))
        .collect();
    let solo: Vec<u64> = xs
        .iter()
        .map(|x| {
            let (out, _) = worker.serve_solo(5, x);
            let h = hash_tensor_bits(&out);
            worker.recycle(out);
            h
        })
        .collect();
    for x in &xs {
        rt.submit_predict(5, x.clone()).unwrap();
    }
    let outs = predict_outputs(worker.process_next());
    assert_eq!(outs.len(), 6, "one batch serves all six requests");
    for (i, (tenant, out, via)) in outs.iter().enumerate() {
        assert_eq!(*tenant, 5);
        assert_eq!(*via, ServedVia::Delta);
        assert_eq!(hash_tensor_bits(out), solo[i]);
    }
}

#[test]
fn batch_spanning_every_shard_completes() {
    let shards = 4;
    let rt = support::runtime(ServeConfig {
        shards,
        batch_window: 64,
        ..ServeConfig::default()
    });
    let mut worker = rt.worker(44);
    // Pick one tenant per shard (FNV spreads ids, so a small scan finds
    // them all).
    let registry = rt.registry();
    let mut per_shard: Vec<Option<u64>> = vec![None; shards];
    let mut t = 0u64;
    while per_shard.iter().any(Option::is_none) {
        let s = registry.shard_of(t);
        if per_shard[s].is_none() {
            per_shard[s] = Some(t);
        }
        t += 1;
    }
    let tenants: Vec<u64> = per_shard.into_iter().map(Option::unwrap).collect();
    let mut rng = Rng::new(9);
    let x = Tensor::rand_normal(1, 2, 0.0, 1.0, &mut rng);
    for &tenant in &tenants {
        rt.submit_predict(tenant, x.clone()).unwrap();
    }
    let outs = predict_outputs(worker.process_next());
    assert_eq!(
        outs.len(),
        shards,
        "one fused batch spans all {shards} shards"
    );
    // Source-only tenants, identical input: identical source prediction.
    let first = hash_tensor_bits(&outs[0].1);
    for (_, out, via) in &outs {
        assert_eq!(*via, ServedVia::Source);
        assert_eq!(hash_tensor_bits(out), first);
    }
}

#[test]
fn empty_window_flush_is_a_noop() {
    let rt = support::runtime(ServeConfig::default());
    let mut worker = rt.worker(45);
    let batches_before = tasfar_obs::metrics::counter("serve.batches").get();
    assert!(worker.process_next().is_empty(), "no work: no completions");
    assert!(worker.process_next().is_empty(), "still a no-op on repeat");
    assert_eq!(
        tasfar_obs::metrics::counter("serve.batches").get(),
        batches_before,
        "an empty flush must not count as a batch"
    );
}

#[test]
fn stale_cold_delta_degrades_to_source_serving() {
    use tasfar_nn::adapter::{enable_adapters, AdapterConfig};
    use tasfar_nn::init::Init;
    use tasfar_nn::layers::{Dense, Relu, Sequential};
    use tasfar_nn::spec::DeltaArtifact;

    let rt = support::runtime(ServeConfig::default());
    let mut worker = rt.worker(46);
    // A delta captured against a *different* architecture, registered as
    // tenant 9's cold artifact — rehydration must degrade, not panic.
    let mut rng = Rng::new(99);
    let mut alien = Sequential::new()
        .add(Dense::new(3, 5, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dense::new(5, 1, Init::HeNormal, &mut rng));
    enable_adapters(&mut alien, &AdapterConfig::rank(2), &mut rng);
    let stale = DeltaArtifact::capture(&mut alien, &AdapterConfig::rank(2));
    rt.registry()
        .register_cold(9, Arc::from(stale.to_json().as_str()));

    let x = Tensor::rand_normal(2, 2, 0.0, 1.0, &mut rng);
    let (source_out, source_via) = worker.serve_solo(8, &x); // 8 = never registered
    assert_eq!(source_via, ServedVia::Source);
    let source_hash = hash_tensor_bits(&source_out);
    worker.recycle(source_out);

    rt.submit_predict(9, x.clone()).unwrap();
    let outs = predict_outputs(worker.process_next());
    assert_eq!(outs.len(), 1);
    assert_eq!(outs[0].2, ServedVia::SourceStaleDelta);
    assert_eq!(
        hash_tensor_bits(&outs[0].1),
        source_hash,
        "a stale delta serves exactly the source model's bits"
    );
}

#[test]
fn unparseable_cold_artifacts_serve_source_and_are_dropped() {
    let rt = support::runtime(ServeConfig::default());
    let mut worker = rt.worker(47);
    adapt_tenant(&mut worker, 1, 0.5);
    let json = rt.registry().clone_artifact(1).unwrap().to_json();
    // Tenant 20's cold copy is cut short; tenant 21's has one byte inside
    // its `values` overwritten. Neither parses.
    let truncated = &json[..json.len() / 2];
    let mut corrupted = json.clone().into_bytes();
    corrupted[json.find("\"values\"").unwrap() + 20] = b'x';
    let corrupted = String::from_utf8(corrupted).unwrap();
    rt.registry().register_cold(20, Arc::from(truncated));
    rt.registry()
        .register_cold(21, Arc::from(corrupted.as_str()));

    let mut rng = Rng::new(21);
    let x = Tensor::rand_normal(2, 2, 0.0, 1.0, &mut rng);
    let (source_out, _) = worker.serve_solo(8, &x); // 8 = never registered
    let source_hash = hash_tensor_bits(&source_out);
    worker.recycle(source_out);

    let parse_errors = || tasfar_obs::metrics::counter("serve.cold_parse_errors").get();
    let errors_before = parse_errors();
    let rehydrations_before = rt.registry().stats().rehydrations;
    for round in 0..2 {
        for tenant in [20, 1, 21] {
            rt.submit_predict(tenant, x.clone()).unwrap();
        }
        let outs = predict_outputs(worker.process_next());
        assert_eq!(outs.len(), 3, "round {round}: one fused batch");
        for (tenant, out, via) in &outs {
            if *tenant == 1 {
                assert_eq!(*via, ServedVia::Delta);
                continue;
            }
            assert_eq!(*via, ServedVia::Source, "round {round}: tenant {tenant}");
            assert_eq!(
                hash_tensor_bits(out),
                source_hash,
                "round {round}: tenant {tenant} serves the source model's bits"
            );
        }
        // Each bad copy is counted once, on the lookup that found it, and
        // then dropped: the second round parses nothing.
        assert_eq!(parse_errors(), errors_before + 2, "round {round}");
    }
    assert_eq!(rt.registry().stats().rehydrations, rehydrations_before);
    for tenant in [20, 21] {
        let (handle, residency) = rt.registry().artifact_handle(tenant);
        assert!(handle.is_none());
        assert_eq!(residency, tasfar_serve::Residency::SourceOnly);
    }
}
