//! Serving-layer chaos gauntlet: the queue never deadlocks under a slow
//! tenant, rejected requests carry a typed `Overloaded`, and an evict storm
//! rehydrates bit-identically mid-batch.
//!
//! The armed-fault slot is thread-local, so a fault lands only on batches
//! processed by the thread that armed it, and the tests run concurrently.

mod support;

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use tasfar_core::faultinject::{self, Fault};
use tasfar_nn::prelude::*;
use tasfar_serve::{
    generate, hash_tensor_bits, CompletionKind, OpClass, OpSpec, Residency, ServeConfig,
    ServeError, TrafficConfig,
};

#[test]
fn serve_faults_parse_from_chaos_spec() {
    assert_eq!(
        faultinject::parse_spec("serve_slow_tenant"),
        Ok((Fault::ServeSlowTenant, 0))
    );
    assert_eq!(
        faultinject::parse_spec("serve_evict_storm:3"),
        Ok((Fault::ServeEvictStorm, 3))
    );
}

#[test]
fn overload_rejections_are_typed_and_recoverable() {
    let rt = support::runtime(ServeConfig {
        queue_depth: 4,
        batch_window: 4,
        ..ServeConfig::default()
    });
    let mut worker = rt.worker(50);
    let mut rng = Rng::new(3);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for i in 0..12u64 {
        match rt.submit_predict(i, Tensor::rand_normal(1, 2, 0.0, 1.0, &mut rng)) {
            Ok(_) => accepted += 1,
            Err(e) => {
                assert_eq!(
                    e,
                    ServeError::Overloaded {
                        class: OpClass::Predict,
                        depth: 4
                    },
                    "backpressure must be the typed Overloaded rejection"
                );
                rejected += 1;
            }
        }
    }
    assert_eq!(accepted, 4, "depth 4 admits exactly 4 without draining");
    assert_eq!(rejected, 8);
    // Backpressure is recoverable: drain, then the queue admits again.
    let mut completed = 0;
    loop {
        let done = worker.process_next();
        if done.is_empty() {
            break;
        }
        completed += done.len();
    }
    assert_eq!(completed, accepted, "every admitted request completes");
    rt.submit_predict(99, Tensor::rand_normal(1, 2, 0.0, 1.0, &mut rng))
        .expect("after draining, admission resumes");
}

/// Two worker threads drain mixed Zipf traffic while a slow tenant burns
/// extra forwards at the head of a batch: every admitted request must still
/// complete within the watchdog budget — no deadlock, no stranded work.
#[test]
fn slow_tenant_gauntlet_never_deadlocks() {
    let rt = support::runtime(ServeConfig {
        shards: 8,
        queue_depth: 64,
        batch_window: 16,
        ..ServeConfig::default()
    });
    let slow_injected = || tasfar_obs::metrics::counter("chaos.injected.serve_slow_tenant").get();
    let injected_before = slow_injected();

    let (tx, rx) = mpsc::channel();
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let mut worker = rt.worker(60 + i);
            let tx = tx.clone();
            thread::spawn(move || {
                if i == 0 {
                    // Only this worker's first predict batch turns slow.
                    faultinject::arm(Fault::ServeSlowTenant);
                } else {
                    // Join once that batch is under way (the injection
                    // counter ticks as worker 0 takes the fault), so worker
                    // 0 is sure to take it and this worker drains the
                    // queue around it.
                    let deadline = Instant::now() + Duration::from_secs(60);
                    while slow_injected() == injected_before && Instant::now() < deadline {
                        thread::sleep(Duration::from_millis(1));
                    }
                }
                worker.run_until_closed(|c| {
                    let _ = tx.send(c);
                });
            })
        })
        .collect();
    drop(tx);

    let traffic = generate(&TrafficConfig {
        tenants: 32,
        requests: 200,
        adapt_frac: 0.02,
        evict_frac: 0.02,
        seed: 17,
        ..TrafficConfig::default()
    });
    let mut rng = Rng::new(5);
    let mut accepted = 0usize;
    for event in &traffic {
        let result = match event.op {
            OpSpec::Predict { tenant } => {
                rt.submit_predict(tenant, Tensor::rand_normal(1, 2, 0.0, 1.0, &mut rng))
            }
            OpSpec::Adapt { tenant } => {
                rt.submit_adapt(tenant, support::target_batch(&mut rng, 48, 0.3))
            }
            OpSpec::Evict { tenant } => rt.submit_evict(tenant),
        };
        match result {
            Ok(_) => accepted += 1,
            Err(ServeError::Overloaded { .. }) => {
                // Shed under backpressure; the workers keep draining.
            }
            Err(other) => panic!("unexpected submit failure: {other}"),
        }
    }
    rt.queue().close();

    // Watchdog: every accepted request must complete; a deadlocked queue
    // or worker trips the timeout rather than hanging the suite.
    let mut completed = 0usize;
    while completed < accepted {
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(_) => completed += 1,
            Err(_) => panic!("deadlock watchdog: {completed}/{accepted} completions after 60s"),
        }
    }
    for w in workers {
        w.join().expect("worker thread must exit cleanly");
    }
    assert_eq!(
        slow_injected(),
        injected_before + 1,
        "the slow-tenant fault must have been injected exactly once"
    );
}

#[test]
fn evict_storm_rehydrates_bit_identically_mid_batch() {
    let rt = support::runtime(ServeConfig {
        shards: 4,
        batch_window: 16,
        ..ServeConfig::default()
    });
    let mut worker = rt.worker(70);
    // Give tenants 1 and 2 real resident deltas.
    for (tenant, centre) in [(1u64, -0.5), (2, 0.5)] {
        let mut rng = Rng::new(2000 + tenant);
        rt.submit_adapt(tenant, support::target_batch(&mut rng, 96, centre))
            .unwrap();
        let done = worker.process_next();
        assert!(matches!(
            done[0].kind,
            CompletionKind::Adapt {
                outcome: "adapted" | "recovered"
            }
        ));
    }
    assert_eq!(rt.registry().stats().resident_tenants, 2);

    let mut rng = Rng::new(6);
    let x1 = Tensor::rand_normal(2, 2, 0.0, 1.0, &mut rng);
    let x2 = Tensor::rand_normal(1, 2, 0.0, 1.0, &mut rng);
    let solo: Vec<u64> = [(1u64, &x1), (2, &x2)]
        .iter()
        .map(|(t, x)| {
            let (out, _) = worker.serve_solo(*t, x);
            let h = hash_tensor_bits(&out);
            worker.recycle(out);
            h
        })
        .collect();

    let evictions_before = rt.registry().stats().evictions;
    faultinject::arm(Fault::ServeEvictStorm);
    rt.submit_predict(1, x1.clone()).unwrap();
    rt.submit_predict(2, x2.clone()).unwrap();
    let done = worker.process_next();
    assert_eq!(done.len(), 2);
    for (i, c) in done.iter().enumerate() {
        match &c.kind {
            CompletionKind::Predict { output, via } => {
                assert_eq!(
                    hash_tensor_bits(output),
                    solo[i],
                    "post-storm rehydrated predictions must be bit-identical"
                );
                assert_eq!(
                    *via,
                    tasfar_serve::ServedVia::Delta,
                    "the storm must not drop tenants to source serving"
                );
            }
            other => panic!("expected predict, got {other:?}"),
        }
    }
    let stats = rt.registry().stats();
    assert!(
        stats.evictions >= evictions_before + 2,
        "the storm must have evicted both residents"
    );
    assert!(stats.rehydrations >= 2, "both deltas rehydrated mid-batch");
    // And the registry is healthy afterwards: next lookup is resident.
    let (handle, residency) = rt.registry().artifact_handle(1);
    assert!(handle.is_some());
    assert_eq!(residency, Residency::Resident);
}

/// A cold delta with a number literal that overflows `f64` (`1e999`) must
/// fail to parse rather than rehydrate as infinite weights: the tenant
/// serves the source model, and a later adapt and evict of it complete.
/// (Decoded as `+inf`, it served NaN predictions, an adapt fell back to
/// the infinite prior and stored it resident with no cold copy, and the
/// eviction that serialised it panicked the worker.)
#[test]
fn overflowing_cold_literal_degrades_to_source_through_adapt_and_evict() {
    let rt = support::runtime(ServeConfig::default());
    let mut worker = rt.worker(71);
    let mut rng = Rng::new(30);
    rt.submit_adapt(1, support::target_batch(&mut rng, 96, 0.5))
        .unwrap();
    worker.process_next();
    let json = rt.registry().clone_artifact(1).unwrap().to_json();
    let first = json.find("\"values\":[[").unwrap() + "\"values\":[[".len();
    let len = json[first..].find([',', ']']).unwrap();
    let bad = format!("{}1e999{}", &json[..first], &json[first + len..]);
    rt.registry()
        .register_cold(30, std::sync::Arc::from(bad.as_str()));

    let x = Tensor::rand_normal(3, 2, 0.0, 1.0, &mut rng);
    let (source_out, _) = worker.serve_solo(8, &x); // 8 = never registered
    let source_hash = hash_tensor_bits(&source_out);
    let parse_errors = || tasfar_obs::metrics::counter("serve.cold_parse_errors").get();
    let errors_before = parse_errors();

    rt.submit_predict(30, x.clone()).unwrap();
    let done = worker.process_next();
    match &done[0].kind {
        CompletionKind::Predict { output, via } => {
            assert_eq!(*via, tasfar_serve::ServedVia::Source);
            assert_eq!(hash_tensor_bits(output), source_hash, "source bits");
        }
        other => panic!("expected predict, got {other:?}"),
    }
    assert_eq!(parse_errors(), errors_before + 1);

    rt.submit_adapt(30, support::target_batch(&mut rng, 96, -0.5))
        .unwrap();
    let done = worker.process_next();
    assert!(
        matches!(
            done[0].kind,
            CompletionKind::Adapt {
                outcome: "adapted" | "recovered" | "fell_back"
            }
        ),
        "got {:?}",
        done[0].kind
    );
    rt.submit_evict(30).unwrap();
    let done = worker.process_next();
    assert!(matches!(done[0].kind, CompletionKind::Evict { .. }));
    rt.submit_predict(30, x).unwrap();
    match &worker.process_next()[0].kind {
        CompletionKind::Predict { output, .. } => {
            assert!(output.as_slice().iter().all(|v| v.is_finite()));
        }
        other => panic!("expected predict, got {other:?}"),
    }
}
