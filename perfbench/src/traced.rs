//! What only a traced run measures: span self times from the JSONL trace
//! (`tasfar_obs::Forest`), and per-lookup registry costs from a replay of a
//! phase's tenant-lookup order on a freshly built registry.

use std::time::Instant;

use tasfar_obs::Forest;
use tasfar_serve::{Residency, TenantRegistry};

use crate::fixture::Fixture;

/// Per-lookup registry costs, split by where the delta was found (µs).
#[derive(Debug, Default)]
pub struct Replay {
    pub hit_us: Vec<f64>,
    pub rehydrate_us: Vec<f64>,
}

/// Replays `order` through `TenantRegistry::artifact_handle` on a registry
/// built like the fixture's (same shards, budget and cold registrations).
/// The replay starts cold, so its hit/rehydrate mix is not the phase's;
/// only the per-lookup cost of each residency class is. Lookups are timed
/// on the wall clock: a resident hit takes less than one read of the CPU
/// clock (about 0.4 µs here).
pub fn replay(fix: &Fixture, order: &[u64]) -> Replay {
    let registry = TenantRegistry::new(fix.runtime.registry().num_shards(), fix.spec.budget_bytes);
    let n = fix.prototypes.len() as u64;
    for t in 0..fix.spec.population {
        registry.register_cold(t, fix.prototypes[(t % n) as usize].clone());
    }
    let mut out = Replay::default();
    for &tenant in order {
        let t0 = Instant::now();
        let (handle, residency) = registry.artifact_handle(tenant);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        drop(handle);
        match residency {
            Residency::Resident => out.hit_us.push(us),
            Residency::Rehydrated => out.rehydrate_us.push(us),
            Residency::SourceOnly => {}
        }
    }
    out
}

/// One row of the self-time table.
#[derive(Debug)]
pub struct SelfTime {
    pub name: String,
    pub calls: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Per-span-name totals and self times of a trace file, largest self
/// time first.
pub fn self_times(path: &str) -> Result<Vec<SelfTime>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let forest = Forest::parse(&text)?;
    let mut rows: Vec<SelfTime> = forest
        .aggregate()
        .into_iter()
        .map(|s| SelfTime {
            name: s.name,
            calls: s.calls,
            total_ms: s.total_ns as f64 / 1e6,
            self_ms: s.self_ns as f64 / 1e6,
        })
        .collect();
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    Ok(rows)
}
