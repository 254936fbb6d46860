//! Multi-tenant serving-throughput benchmark: cross-tenant fused batching
//! vs one-request-at-a-time serving over one shared frozen source model.
//!
//! For each tenant count (10 / 1 000 / 100 000) the driver replays the same
//! deterministic Zipf-popularity, Pareto-gap traffic (see
//! `tasfar_serve::traffic`) through the serving runtime twice:
//!
//! * **batched** — the production configuration: concurrent predicts fuse
//!   across tenants within the batch window into **one** segmented
//!   whole-batch forward — the base GEMMs (and the backend's panel-packing
//!   cost) amortize over every request in the window, with per-tenant
//!   rank-`r` corrections applied per row segment.
//! * **unbatched** — the same engine with `batch_window: 1`, so every
//!   request pays the full per-call forward cost alone. Same code path, so
//!   the gap measures batching, not implementation drift.
//!
//! The driver is closed-loop: it fills the bounded admission queue until
//! typed backpressure, drains one work item, repeats — nothing is shed, so
//! both variants serve the identical request set. Per-row figures: predict
//! throughput (ops/s), queue-inclusive latency percentiles (integer
//! nanoseconds, see the DESIGN.md bench schema), mean fused-batch
//! occupancy, and the registry's resident-delta footprint. Guarded
//! adaptation is timed separately (`adapt` section): one adapt op costs
//! many orders of magnitude more than a predict and would otherwise
//! dominate every throughput figure while exercising none of the batching
//! under test.
//!
//! Before the grid it times one cold decode (`DeltaArtifact::from_json`,
//! what every rehydrate pays) of a prototype delta as written, with
//! base64 payloads, and as the decimal document earlier builds wrote.
//!
//! Self-asserts (release builds): the payload decode is at least 3× faster
//! than the decimal one, fused batching is at least 2× unbatched predict
//! throughput at the largest tenant count, and a resident tenant delta
//! stays within 5% of the full model's parameter bytes.
//!
//! Run with: `cargo run --release -p tasfar-bench --bin serve`
//! (from the repo root, so `.cargo/config.toml` applies). Results go to
//! `BENCH_serve.json` or `TASFAR_BENCH_OUT`; `TASFAR_BENCH_QUICK` shrinks
//! the request counts for the verify.sh smoke gate.

use std::sync::Arc;
use std::time::Instant;

use tasfar_core::adapt::{calibrate_on_source, TasfarConfig};
use tasfar_core::session::TenantSession;
use tasfar_data::Dataset;
use tasfar_nn::adapter::{enable_adapters, AdapterConfig};
use tasfar_nn::init::Init;
use tasfar_nn::json::{Json, ToJson};
use tasfar_nn::layers::{Dense, Dropout, Relu, Sequential};
use tasfar_nn::rng::Rng;
use tasfar_nn::spec::DeltaArtifact;
use tasfar_nn::tensor::Tensor;
use tasfar_serve::registry::{register_prototypes, tenant_rng};
use tasfar_serve::{
    generate, CompletionKind, OpSpec, ServeConfig, ServeError, ServeRuntime, TrafficConfig,
    TrafficEvent,
};

const INPUT_DIM: usize = 8;
const ADAPTER_RANK: usize = 2;

/// The serving-scale model: ~268k parameters (≈2.1 MB — past L2, so the
/// unbatched path pays real weight-streaming per request), with a rank-2
/// delta of ≈33 KB landing visibly under the 5% per-tenant residency
/// criterion.
fn bench_model(rng: &mut Rng) -> Sequential {
    Sequential::new()
        .add(Dense::new(INPUT_DIM, 512, Init::HeNormal, rng))
        .add(Relu::new())
        .add(Dropout::new(0.1, rng))
        .add(Dense::new(512, 512, Init::HeNormal, rng))
        .add(Relu::new())
        .add(Dropout::new(0.1, rng))
        .add(Dense::new(512, 1, Init::XavierUniform, rng))
}

/// A small synthetic source set — enough for `calibrate_on_source` to fit
/// τ and Q_s; serving throughput does not care about model quality.
fn source_dataset(rng: &mut Rng, n: usize) -> Dataset {
    let x = Tensor::rand_normal(n, INPUT_DIM, 0.0, 1.0, rng);
    let mut y = Tensor::zeros(n, 1);
    for i in 0..n {
        let mean: f64 = (0..INPUT_DIM).map(|j| x.get(i, j)).sum::<f64>() / INPUT_DIM as f64;
        y.set(i, 0, mean + rng.gaussian(0.0, 0.05));
    }
    Dataset::new(x, y)
}

/// Distinct per-prototype deltas with realistic payloads: captured from the
/// adapter-enabled model, then perturbed so each prototype actually moves
/// predictions (the apply cost is identical either way).
fn prototype_artifacts(source: &Sequential, count: usize) -> Vec<Arc<str>> {
    (0..count)
        .map(|p| {
            let mut rng = Rng::new(0x5EED_0000 + p as u64);
            let mut model = source.clone();
            enable_adapters(&mut model, &AdapterConfig::rank(ADAPTER_RANK), &mut rng);
            let mut artifact =
                DeltaArtifact::capture(&mut model, &AdapterConfig::rank(ADAPTER_RANK));
            for values in &mut artifact.values {
                for v in values.iter_mut() {
                    *v += rng.gaussian(0.0, 0.02);
                }
            }
            Arc::from(artifact.to_json().as_str())
        })
        .collect()
}

/// `artifact` in the format earlier builds wrote: decimal `values`, no
/// `check`.
fn legacy_json(artifact: &DeltaArtifact) -> String {
    let shapes = artifact
        .shapes
        .iter()
        .map(|&(r, c)| Json::Arr(vec![Json::from(r), Json::from(c)]))
        .collect();
    Json::obj(vec![
        ("rank", Json::from(artifact.rank)),
        ("alpha", Json::Num(artifact.alpha)),
        ("shapes", Json::Arr(shapes)),
        ("values", artifact.values.to_json_value()),
    ])
    .to_string()
}

/// Median wall time of one `DeltaArtifact::from_json` of `text` over
/// `runs` runs, in microseconds.
fn decode_us(text: &str, runs: usize) -> f64 {
    let mut us: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let artifact = DeltaArtifact::from_json(std::hint::black_box(text));
            let us = t0.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(artifact.expect("the prototype decodes"));
            us
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[runs / 2]
}

struct RunStats {
    predicts: u64,
    ops_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    /// Mean predicts per fused batch, from the `serve.*` counters.
    occupancy_mean: f64,
    resident_tenants: usize,
    resident_bytes: u64,
    evictions: u64,
}

/// Replays `events` closed-loop through one worker: fill the queue until
/// typed backpressure, drain one work item, repeat. Nothing is shed — an
/// `Overloaded` submit is retried after the next drain, so every variant
/// serves the identical request set.
fn run_traffic(rt: &Arc<ServeRuntime>, events: &[TrafficEvent], seed: u64) -> RunStats {
    let mut worker = rt.worker(seed);
    let batches_before = tasfar_obs::metrics::counter("serve.batches").get();
    let fused_before = tasfar_obs::metrics::counter("serve.batch.requests").get();
    let mut lat_ns: Vec<u64> = Vec::with_capacity(events.len());
    let mut payload_rng = Rng::new(seed ^ 0x70AD);
    let mut i = 0usize;
    let t0 = Instant::now();
    while i < events.len() {
        while i < events.len() {
            let result = match events[i].op {
                OpSpec::Predict { tenant } => rt.submit_predict(
                    tenant,
                    Tensor::rand_normal(1, INPUT_DIM, 0.0, 1.0, &mut payload_rng),
                ),
                OpSpec::Adapt { tenant } => {
                    let mut rng = tenant_rng(seed, tenant);
                    rt.submit_adapt(
                        tenant,
                        Tensor::rand_normal(64, INPUT_DIM, 0.0, 1.0, &mut rng),
                    )
                }
                OpSpec::Evict { tenant } => rt.submit_evict(tenant),
            };
            match result {
                Ok(_) => i += 1,
                Err(ServeError::Overloaded { .. }) => break,
                Err(e) => panic!("bench submit failed: {e}"),
            }
        }
        for c in worker.process_next() {
            if let CompletionKind::Predict { output, .. } = c.kind {
                lat_ns.push(c.latency_ns);
                worker.recycle(output);
            }
        }
    }
    loop {
        let done = worker.process_next();
        if done.is_empty() {
            break;
        }
        for c in done {
            if let CompletionKind::Predict { output, .. } = c.kind {
                lat_ns.push(c.latency_ns);
                worker.recycle(output);
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    lat_ns.sort_unstable();
    let rank = |q: f64| {
        // Nearest-rank percentile over the sorted latencies.
        let n = lat_ns.len();
        lat_ns[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
    };
    let batches = tasfar_obs::metrics::counter("serve.batches").get() - batches_before;
    let fused = tasfar_obs::metrics::counter("serve.batch.requests").get() - fused_before;
    let stats = rt.registry().stats();
    RunStats {
        predicts: lat_ns.len() as u64,
        ops_per_sec: lat_ns.len() as f64 / wall,
        p50_ns: rank(0.50),
        p99_ns: rank(0.99),
        occupancy_mean: if batches == 0 {
            0.0
        } else {
            fused as f64 / batches as f64
        },
        resident_tenants: stats.resident_tenants,
        resident_bytes: stats.resident_bytes,
        evictions: stats.evictions,
    }
}

fn main() {
    let quick = std::env::var("TASFAR_BENCH_QUICK").is_ok();
    let cpus = tasfar_obs::host_cpus();
    let requests: usize = if quick { 256 } else { 4096 };
    let batch_window = 256usize;
    let tenant_counts: [u64; 3] = [10, 1_000, 100_000];
    println!(
        "host cpus: {cpus}; {requests} requests per run{}",
        if quick { " (quick)" } else { "" }
    );

    // --- shared fixtures --------------------------------------------------
    let mut rng = Rng::new(0x5E127E);
    let mut model = bench_model(&mut rng);
    let source = source_dataset(&mut rng, 96);
    let cfg = TasfarConfig {
        mc_samples: 4,
        epochs: 2,
        segments: 8,
        grid_cell: 0.1,
        early_stop: None,
        ..TasfarConfig::default()
    };
    let calib = calibrate_on_source(&mut model, &source, &cfg).expect("bench calibration");
    let session = TenantSession::new(calib, cfg, AdapterConfig::rank(ADAPTER_RANK));
    let prototypes = prototype_artifacts(&model, 8);
    let delta_bytes = DeltaArtifact::from_json(&prototypes[0])
        .expect("prototype roundtrip")
        .payload_bytes() as u64;

    let runtime_for = |window: usize, tenants: u64| -> Arc<ServeRuntime> {
        let rt = ServeRuntime::new(
            model.clone(),
            session.clone(),
            ServeConfig {
                shards: 64,
                queue_depth: 2048,
                batch_window: window,
                // Generous enough that steady-state Zipf traffic parses
                // each distinct tenant's cold delta once instead of
                // thrashing the LRU (the JSON rehydration cost would
                // otherwise dominate both variants identically).
                resident_budget_bytes: 64 << 20,
            },
        );
        register_prototypes(rt.registry(), tenants, &prototypes);
        rt
    };

    let full_model_bytes = runtime_for(1, 1).worker(0).full_model_bytes();
    let delta_frac = delta_bytes as f64 / full_model_bytes as f64;
    println!(
        "model {full_model_bytes} B, per-tenant delta {delta_bytes} B ({:.1}% of model)",
        100.0 * delta_frac
    );

    // --- cold decode --------------------------------------------------------
    // Every rehydrate decodes the tenant's cold text. It runs here, before
    // the grid, so its assert is reached even when the batching one fails.
    let decode_runs = if quick { 201 } else { 2001 };
    let legacy = legacy_json(&DeltaArtifact::from_json(&prototypes[0]).expect("prototype"));
    let payload_us = decode_us(&prototypes[0], decode_runs);
    let legacy_us = decode_us(&legacy, decode_runs);
    let decode_speedup = legacy_us / payload_us;
    println!(
        "cold decode of one delta: payload {payload_us:.1} us ({} B of JSON), \
         decimals {legacy_us:.1} us ({} B): {decode_speedup:.1}x",
        prototypes[0].len(),
        legacy.len()
    );
    assert!(
        cfg!(debug_assertions) || decode_speedup >= 3.0,
        "a payload decode must be >= 3x faster than the decimal decode, \
         measured {decode_speedup:.2}x"
    );

    // --- predict throughput grid -----------------------------------------
    // Predict-only traffic with a sliver of evictions: adapt ops cost
    // orders of magnitude more than a predict and are timed separately
    // below, so they would only blur the batching comparison here.
    let mut rows: Vec<Json> = Vec::new();
    let mut speedup_at_largest = 0.0f64;
    for &tenants in &tenant_counts {
        let traffic = generate(&TrafficConfig {
            tenants,
            requests,
            zipf_s: 1.2,
            adapt_frac: 0.0,
            evict_frac: 0.005,
            seed: 0xA11CE,
            ..TrafficConfig::default()
        });
        let mut ops = [0.0f64; 2];
        for (vi, (variant, window)) in [("unbatched", 1usize), ("batched", batch_window)]
            .iter()
            .enumerate()
        {
            let rt = runtime_for(*window, tenants);
            let stats = run_traffic(&rt, &traffic, 0xD00E + tenants);
            ops[vi] = stats.ops_per_sec;
            println!(
                "tenants {tenants:>6} {variant:<9} {:>9.0} predicts/s  p50 {:>8} ns  p99 {:>9} ns  \
                 occupancy {:>5.1}  resident {} ({} B)",
                stats.ops_per_sec,
                stats.p50_ns,
                stats.p99_ns,
                stats.occupancy_mean,
                stats.resident_tenants,
                stats.resident_bytes
            );
            rows.push(Json::obj(vec![
                ("task", Json::from("serve")),
                ("size", Json::from(format!("tenants:{tenants}"))),
                ("variant", Json::from(*variant)),
                ("requests", Json::from(stats.predicts)),
                ("ops_per_sec", Json::Num(stats.ops_per_sec)),
                ("p50_ns", Json::UInt(stats.p50_ns)),
                ("p99_ns", Json::UInt(stats.p99_ns)),
                ("batch_occupancy_mean", Json::Num(stats.occupancy_mean)),
                ("resident_tenants", Json::from(stats.resident_tenants)),
                ("resident_bytes", Json::UInt(stats.resident_bytes)),
                ("evictions", Json::UInt(stats.evictions)),
            ]));
        }
        let speedup = ops[1] / ops[0];
        println!("tenants {tenants:>6} batched speedup: {speedup:.2}x");
        if tenants == *tenant_counts.last().unwrap() {
            speedup_at_largest = speedup;
        }
    }

    // --- guarded adaptation, timed separately -----------------------------
    let adapt_ops = if quick { 1 } else { 3 };
    let rt = runtime_for(batch_window, 64);
    let mut worker = rt.worker(0xADA);
    let mut adapt_ms = Vec::with_capacity(adapt_ops);
    let mut outcomes: Vec<(String, Json)> = Vec::new();
    for t in 0..adapt_ops as u64 {
        let mut batch_rng = tenant_rng(0xADA, t);
        rt.submit_adapt(
            t,
            Tensor::rand_normal(64, INPUT_DIM, 0.0, 1.0, &mut batch_rng),
        )
        .expect("adapt admit");
        let t0 = Instant::now();
        let done = worker.process_next();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        adapt_ms.push(ms);
        if let CompletionKind::Adapt { outcome } = &done[0].kind {
            println!("adapt tenant {t}: {outcome} in {ms:.0} ms");
            outcomes.push((format!("tenant_{t}"), Json::from(*outcome)));
        }
    }
    let adapt_ms_mean = adapt_ms.iter().sum::<f64>() / adapt_ms.len() as f64;

    // --- self-checks -------------------------------------------------------
    // (Debug builds are exempt: they measure the allocator, not the engine.)
    assert!(
        cfg!(debug_assertions) || speedup_at_largest >= 2.0,
        "fused batching must be >= 2x unbatched predict throughput at \
         {} tenants, measured {speedup_at_largest:.2}x",
        tenant_counts.last().unwrap()
    );
    assert!(
        delta_frac <= 0.05,
        "per-tenant resident delta ({delta_bytes} B) must stay within 5% of \
         the full model ({full_model_bytes} B), measured {:.1}%",
        100.0 * delta_frac
    );

    // --- report -----------------------------------------------------------
    let doc = Json::obj(vec![
        ("host_cpus", Json::from(cpus)),
        ("requests_per_run", Json::from(requests)),
        ("batch_window", Json::from(batch_window)),
        ("zipf_s", Json::Num(1.2)),
        ("results", Json::Arr(rows)),
        (
            "model",
            Json::obj(vec![
                ("full_model_bytes", Json::UInt(full_model_bytes)),
                ("delta_bytes", Json::UInt(delta_bytes)),
                ("delta_frac_of_model", Json::Num(delta_frac)),
                ("adapter_rank", Json::from(ADAPTER_RANK)),
            ]),
        ),
        (
            "adapt",
            Json::obj(vec![
                ("ops", Json::from(adapt_ops)),
                ("adapt_ms_mean", Json::Num(adapt_ms_mean)),
                ("outcomes", Json::Obj(outcomes)),
            ]),
        ),
        // Every serve.* counter/gauge/histogram the runs above touched —
        // queue admissions, batches, evictions, rehydrations — as
        // provenance for the rows.
        (
            "serve_metrics",
            tasfar_obs::metrics::snapshot_prefixed("serve."),
        ),
    ]);
    let out_path = std::env::var("TASFAR_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&out_path, format!("{doc}\n"))
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path} (batched speedup at largest: {speedup_at_largest:.2}x)");
}
