//! Bridges between `tasfar_nn`'s native instrumentation hooks and the obs
//! layer.
//!
//! The dependency graph points one way — this crate serialises through
//! `tasfar_nn::json`, so the substrate cannot call obs directly. Instead it
//! exposes passive hooks ([`tasfar_nn::parallel::pool_stats`] and the
//! [`TrainObserver`] slot on `TrainConfig`), and this module turns them into
//! trace records and registry metrics.

use std::sync::Arc;
use std::time::Duration;

use tasfar_nn::json::Json;
use tasfar_nn::parallel;
use tasfar_nn::train::TrainObserver;

/// Wraps an `f64` that may be non-finite: the JSON writer rejects NaN and
/// infinities, so those serialise as strings instead of aborting a trace.
fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Str(v.to_string())
    }
}

/// A [`TrainObserver`] that emits one `train_epoch` event per epoch (loss,
/// learning rate, wall time) and a `train_early_stop` event when the Fig. 13
/// rule fires, and counts both in the metrics registry.
pub struct TrainTelemetry;

impl TrainObserver for TrainTelemetry {
    fn on_epoch(&self, epoch: usize, mean_loss: f64, lr: f64, wall: Duration) {
        crate::metrics::counter("train.epochs").incr();
        crate::span::event(
            "train_epoch",
            vec![
                ("epoch", epoch.into()),
                ("loss", num(mean_loss)),
                ("lr", num(lr)),
                ("dur_ns", (wall.as_nanos() as u64).into()),
            ],
        );
    }

    fn on_early_stop(&self, epoch: usize) {
        crate::metrics::counter("train.early_stops").incr();
        crate::span::event("train_early_stop", vec![("epoch", epoch.into())]);
    }
}

/// The observer to put on a `TrainConfig`: `Some(TrainTelemetry)` when
/// tracing is enabled, `None` otherwise (keeping the unobserved training
/// loop free of clock reads).
pub fn train_observer() -> Option<Arc<dyn TrainObserver>> {
    if crate::enabled() {
        Some(Arc::new(TrainTelemetry))
    } else {
        None
    }
}

/// The parallel pool's counters as one JSON object (cumulative totals).
pub fn pool_stats_json() -> Json {
    let stats = parallel::pool_stats();
    Json::obj(vec![
        ("threads", Json::from(parallel::current_threads())),
        ("jobs_submitted", Json::UInt(stats.jobs_submitted)),
        ("inline_regions", Json::UInt(stats.inline_regions)),
        ("chunks_total", Json::UInt(stats.chunks_total)),
        ("submitter_chunks", Json::UInt(stats.submitter_chunks)),
        (
            "worker_chunks",
            Json::Arr(stats.worker_chunks.iter().map(|&c| Json::UInt(c)).collect()),
        ),
        ("workers_spawned", Json::UInt(stats.workers_spawned)),
        ("max_queue_depth", Json::UInt(stats.max_queue_depth)),
    ])
}

/// Mirrors the pool counters into the metrics registry as gauges, so a
/// [`crate::metrics::snapshot`] includes pool utilization without the caller
/// touching `tasfar_nn::parallel` directly.
pub fn sync_pool_metrics() {
    let stats = parallel::pool_stats();
    crate::metrics::gauge("pool.jobs_submitted").set(stats.jobs_submitted as i64);
    crate::metrics::gauge("pool.inline_regions").set(stats.inline_regions as i64);
    crate::metrics::gauge("pool.chunks_total").set(stats.chunks_total as i64);
    crate::metrics::gauge("pool.submitter_chunks").set(stats.submitter_chunks as i64);
    crate::metrics::gauge("pool.workers_spawned").set(stats.workers_spawned as i64);
    crate::metrics::gauge("pool.max_queue_depth").set(stats.max_queue_depth as i64);
    for (i, &chunks) in stats.worker_chunks.iter().enumerate() {
        crate::metrics::gauge(&format!("pool.worker_chunks.{i}")).set(chunks as i64);
    }
}

/// The scratch-arena counters as one JSON object (cumulative totals).
pub fn arena_stats_json() -> Json {
    let stats = tasfar_nn::scratch::stats();
    Json::obj(vec![
        ("checkouts", Json::UInt(stats.checkouts)),
        ("reuses", Json::UInt(stats.reuses)),
        ("bytes_peak", Json::UInt(stats.bytes_peak)),
    ])
}

/// Mirrors the scratch-arena counters ([`tasfar_nn::scratch::stats`]) into
/// the metrics registry as `arena.{checkouts,reuses,bytes_peak}` gauges, so
/// a [`crate::metrics::snapshot`] shows how well the hot paths reuse their
/// buffers.
pub fn sync_arena_metrics() {
    let stats = tasfar_nn::scratch::stats();
    crate::metrics::gauge("arena.checkouts").set(stats.checkouts as i64);
    crate::metrics::gauge("arena.reuses").set(stats.reuses as i64);
    crate::metrics::gauge("arena.bytes_peak").set(stats.bytes_peak as i64);
}

/// The compute-backend dispatch counters as one JSON object: cumulative
/// kernel dispatches served by each backend
/// ([`tasfar_nn::backend::stats`]).
pub fn backend_stats_json() -> Json {
    let stats = tasfar_nn::backend::stats();
    Json::obj(vec![
        ("naive_calls", Json::UInt(stats.naive_calls)),
        ("blocked_calls", Json::UInt(stats.blocked_calls)),
    ])
}

/// Mirrors the compute-backend dispatch counters into the metrics registry
/// as `backend.{naive,blocked}.calls` gauges, so traces attribute kernel
/// time to the backend that actually ran (the PR 3 pool-stats pattern).
pub fn sync_backend_metrics() {
    let stats = tasfar_nn::backend::stats();
    crate::metrics::gauge("backend.naive.calls").set(stats.naive_calls as i64);
    crate::metrics::gauge("backend.blocked.calls").set(stats.blocked_calls as i64);
}

/// The adapter-layer gauges as one JSON object: the footprint of the most
/// recent [`tasfar_nn::adapter::enable_adapters`] call
/// ([`tasfar_nn::adapter::stats`]). A `rank` of 0 means no adapters were
/// attached.
pub fn adapter_stats_json() -> Json {
    let stats = tasfar_nn::adapter::stats();
    Json::obj(vec![
        ("rank", Json::UInt(stats.rank)),
        ("layers", Json::UInt(stats.layers)),
        ("params", Json::UInt(stats.params)),
        ("bytes", Json::UInt(stats.bytes)),
    ])
}

/// Mirrors the adapter gauges ([`tasfar_nn::adapter::stats`]) into the
/// metrics registry as `adapter.{rank,layers,params,bytes}`, so a
/// [`crate::metrics::snapshot`] records the per-user delta footprint
/// alongside the backend and pool counters.
pub fn sync_adapter_metrics() {
    let stats = tasfar_nn::adapter::stats();
    crate::metrics::gauge("adapter.rank").set(stats.rank as i64);
    crate::metrics::gauge("adapter.layers").set(stats.layers as i64);
    crate::metrics::gauge("adapter.params").set(stats.params as i64);
    crate::metrics::gauge("adapter.bytes").set(stats.bytes as i64);
}

/// Emits an `adapter_layer` event carrying [`adapter_stats_json`] and
/// refreshes the adapter gauges. A no-op record-wise when tracing is
/// disabled (the gauges still update).
pub fn emit_adapter_event() {
    sync_adapter_metrics();
    if !crate::enabled() {
        return;
    }
    crate::span::emit_record(
        "event",
        "adapter_layer",
        vec![("adapter", adapter_stats_json())],
    );
}

/// Emits a `parallel_pool` event carrying [`pool_stats_json`] and refreshes
/// the pool gauges. A no-op record-wise when tracing is disabled (the gauges
/// still update).
pub fn emit_pool_event() {
    sync_pool_metrics();
    if !crate::enabled() {
        return;
    }
    crate::span::emit_record("event", "parallel_pool", vec![("pool", pool_stats_json())]);
}

/// The physical CPU count of the host.
///
/// `available_parallelism` reflects cgroup/affinity limits, which is the
/// wrong number for a benchmark provenance record; take the max of it and
/// the `/proc/cpuinfo` processor count so the recorded value is the real
/// host width wherever `/proc` exists, with a sane fallback elsewhere.
pub fn host_cpus() -> usize {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| {
            text.lines()
                .filter(|line| line.starts_with("processor"))
                .count()
        })
        .unwrap_or(0);
    available.max(cpuinfo).max(1)
}

/// Builds a run-manifest record (seed, thread count, build profile, host
/// width, plus caller-provided fields), emits it as a `"manifest"` trace
/// record when tracing is on, and returns it so callers can also print it or
/// write it next to their results.
pub fn emit_manifest(name: &str, extra: Vec<(&str, Json)>) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![
        ("threads", parallel::current_threads().into()),
        ("host_cpus", host_cpus().into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        (
            "tasfar_threads_env",
            match std::env::var("TASFAR_THREADS") {
                Ok(v) => Json::Str(v),
                Err(_) => Json::Null,
            },
        ),
    ];
    fields.extend(extra);
    if crate::enabled() {
        crate::span::emit_record("manifest", name, fields.clone());
    }
    let mut pairs: Vec<(&str, Json)> = vec![("name", name.into())];
    pairs.extend(fields);
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cpus_is_positive() {
        assert!(host_cpus() >= 1);
    }

    #[test]
    fn manifest_carries_configuration() {
        let manifest = emit_manifest("test_run", vec![("seed", 7u64.into())]);
        assert_eq!(
            manifest.field("name").unwrap().as_str().unwrap(),
            "test_run"
        );
        assert_eq!(manifest.field("seed").unwrap().as_u64().unwrap(), 7);
        assert!(manifest.field("threads").unwrap().as_u64().unwrap() >= 1);
        let profile = manifest.field("profile").unwrap().as_str().unwrap();
        assert!(profile == "debug" || profile == "release");
    }

    #[test]
    fn arena_metrics_mirror_scratch_stats() {
        // Touch the arena so the counters are non-trivially populated.
        tasfar_nn::scratch::with(|s| {
            let v = s.take_vec(64);
            s.give_vec(v);
            let v = s.take_vec(64);
            s.give_vec(v);
        });
        sync_arena_metrics();
        let stats = tasfar_nn::scratch::stats();
        assert_eq!(
            crate::metrics::gauge("arena.checkouts").get(),
            stats.checkouts as i64
        );
        let v = arena_stats_json();
        assert!(v.field("checkouts").unwrap().as_u64().unwrap() >= 2);
        assert!(v.field("bytes_peak").unwrap().as_u64().unwrap() >= 64 * 8);
    }

    #[test]
    fn backend_metrics_mirror_dispatch_counters() {
        // Drive at least one dispatch so the counters are populated.
        let x = tasfar_nn::tensor::Tensor::zeros(2, 2);
        let _ = x.matmul(&x);
        let before = tasfar_nn::backend::stats();
        assert!(before.naive_calls + before.blocked_calls >= 1);
        sync_backend_metrics();
        let mirrored = crate::metrics::gauge("backend.naive.calls").get()
            + crate::metrics::gauge("backend.blocked.calls").get();
        assert!(mirrored >= (before.naive_calls + before.blocked_calls) as i64);
        let v = backend_stats_json();
        assert!(v.field("naive_calls").unwrap().as_u64().is_ok());
        assert!(v.field("blocked_calls").unwrap().as_u64().is_ok());
    }

    #[test]
    fn adapter_metrics_mirror_adapter_stats() {
        use tasfar_nn::init::Init;
        use tasfar_nn::layers::{Dense, Sequential};
        let mut rng = tasfar_nn::rng::Rng::new(9);
        let mut model = Sequential::new().add(Dense::new(6, 12, Init::XavierUniform, &mut rng));
        tasfar_nn::adapter::enable_adapters(
            &mut model,
            &tasfar_nn::adapter::AdapterConfig::rank(3),
            &mut rng,
        );
        sync_adapter_metrics();
        let stats = tasfar_nn::adapter::stats();
        assert_eq!(stats.rank, 3);
        assert_eq!(
            crate::metrics::gauge("adapter.params").get(),
            stats.params as i64
        );
        assert_eq!(
            crate::metrics::gauge("adapter.bytes").get(),
            stats.bytes as i64
        );
        let v = adapter_stats_json();
        assert_eq!(v.field("rank").unwrap().as_u64().unwrap(), 3);
        assert_eq!(v.field("layers").unwrap().as_u64().unwrap(), 1);
        // down (6×3) + up (3×12) = 54 scalars.
        assert_eq!(v.field("params").unwrap().as_u64().unwrap(), 54);
        assert_eq!(v.field("bytes").unwrap().as_u64().unwrap(), 54 * 8);
    }

    #[test]
    fn pool_stats_json_shape() {
        let v = pool_stats_json();
        assert!(v.field("chunks_total").unwrap().as_u64().is_ok());
        assert!(v.field("worker_chunks").unwrap().as_arr().is_ok());
    }

    #[test]
    fn non_finite_numbers_serialise_as_strings() {
        assert_eq!(num(f64::NAN).to_string(), "\"NaN\"");
        assert_eq!(num(1.5), Json::Num(1.5));
    }
}
