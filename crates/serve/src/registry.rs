//! Sharded tenant registry with byte-budgeted LRU delta residency.
//!
//! Tenants are spread over a fixed number of shards by FNV-1a of their id;
//! each shard is an independently locked map, so lookups for different
//! shards never contend. A tenant's delta lives in one of two states:
//!
//! - **resident** — a deserialized [`DeltaArtifact`] ready to apply, charged
//!   against the shard's byte budget;
//! - **cold** — a serialized JSON artifact (shared `Arc<str>`), rehydrated
//!   on the next lookup.
//!
//! When inserting or rehydrating pushes a shard past its budget, the
//! least-recently-used resident deltas are evicted — serialized back to the
//! cold store if they weren't there already — until the shard fits. Each
//! shard lists its resident tenants, so the victim search scans only those,
//! not every tenant the shard knows. Every eviction emits a `serve.evict`
//! span with the tenant, bytes, and reason.
//!
//! A registry never stores full models: the budget covers deltas only, the
//! frozen source model is the workers' business.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tasfar_nn::rng::Rng;
use tasfar_nn::spec::DeltaArtifact;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Where a lookup found the tenant's delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Already deserialized in the shard.
    Resident,
    /// Rehydrated from the cold store for this lookup.
    Rehydrated,
    /// The tenant has no delta (never adapted, or its cold artifact failed
    /// to parse): serve the source model.
    SourceOnly,
}

/// Point-in-time registry occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Tenants known to the registry (resident or cold).
    pub tenants: usize,
    /// Tenants with a resident delta.
    pub resident_tenants: usize,
    /// Bytes of resident delta payloads across all shards.
    pub resident_bytes: u64,
    /// Evictions performed since construction.
    pub evictions: u64,
    /// Cold-store rehydrations since construction.
    pub rehydrations: u64,
}

struct TenantState {
    /// Shared handle so the segmented fused forward can hold a whole
    /// batch's deltas without pinning shard locks (or copying payloads).
    resident: Option<Arc<DeltaArtifact>>,
    cold: Option<Arc<str>>,
    bytes: u64,
    last_used: u64,
}

struct Shard {
    tenants: HashMap<u64, TenantState>,
    /// The tenants whose `resident` is `Some`, in no particular order.
    residents: Vec<u64>,
    resident_bytes: u64,
}

impl Shard {
    fn unlist(&mut self, tenant: u64) {
        if let Some(i) = self.residents.iter().position(|&t| t == tenant) {
            self.residents.swap_remove(i);
        }
    }
}

/// The sharded delta store. All methods take `&self`; internal per-shard
/// locks make it safe to share across workers (`Arc<TenantRegistry>`).
pub struct TenantRegistry {
    shards: Vec<Mutex<Shard>>,
    budget_per_shard: u64,
    clock: AtomicU64,
    evictions: AtomicU64,
    rehydrations: AtomicU64,
}

impl TenantRegistry {
    /// A registry with `shards` locks and a *total* resident-byte budget of
    /// `budget_bytes`, split evenly across shards.
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    pub fn new(shards: usize, budget_bytes: u64) -> Self {
        assert!(shards > 0, "TenantRegistry: at least one shard");
        TenantRegistry {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        tenants: HashMap::new(),
                        residents: Vec::new(),
                        resident_bytes: 0,
                    })
                })
                .collect(),
            budget_per_shard: (budget_bytes / shards as u64).max(1),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `tenant` maps to: FNV-1a of its little-endian bytes,
    /// modulo the shard count.
    pub fn shard_of(&self, tenant: u64) -> usize {
        (fnv1a(&tenant.to_le_bytes()) % self.shards.len() as u64) as usize
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard> {
        self.shards[shard].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a tenant with a serialized (cold) delta. Cheap at any
    /// tenant count: the `Arc<str>` is shared, nothing is parsed until the
    /// first lookup. Replaces any previous state for the tenant.
    pub fn register_cold(&self, tenant: u64, artifact_json: Arc<str>) {
        let mut shard = self.lock(self.shard_of(tenant));
        let last_used = self.tick();
        let prev = shard.tenants.insert(
            tenant,
            TenantState {
                resident: None,
                cold: Some(artifact_json),
                bytes: 0,
                last_used,
            },
        );
        if let Some(prev) = prev.filter(|p| p.resident.is_some()) {
            shard.resident_bytes -= prev.bytes;
            shard.unlist(tenant);
        }
    }

    /// Installs a freshly captured resident delta (the adapt path), then
    /// enforces the shard budget. The previous cold copy is dropped: it no
    /// longer describes the tenant.
    pub fn insert_resident(&self, tenant: u64, artifact: DeltaArtifact) {
        let bytes = artifact.payload_bytes() as u64;
        let shard_idx = self.shard_of(tenant);
        let mut shard = self.lock(shard_idx);
        let last_used = self.tick();
        let prev = shard.tenants.insert(
            tenant,
            TenantState {
                resident: Some(Arc::new(artifact)),
                cold: None,
                bytes,
                last_used,
            },
        );
        match prev {
            Some(prev) if prev.resident.is_some() => shard.resident_bytes -= prev.bytes,
            _ => shard.residents.push(tenant),
        }
        shard.resident_bytes += bytes;
        self.enforce_budget(&mut shard, tenant);
    }

    /// Looks up the tenant's delta, rehydrating from the cold store when
    /// necessary, and returns a shared handle to it. The handle stays valid
    /// after the shard lock is released — even across a concurrent eviction
    /// — so the segmented fused forward can collect one handle per tenant
    /// group and read every delta's factors in place during a single
    /// whole-batch forward. Touches the tenant's LRU stamp.
    pub fn artifact_handle(&self, tenant: u64) -> (Option<Arc<DeltaArtifact>>, Residency) {
        let shard_idx = self.shard_of(tenant);
        let mut guard = self.lock(shard_idx);
        let shard = &mut *guard;
        let tick = self.tick();
        let mut residency = Residency::SourceOnly;
        let mut rehydrated_bytes = 0u64;
        if let Some(state) = shard.tenants.get_mut(&tenant) {
            state.last_used = tick;
            if state.resident.is_some() {
                residency = Residency::Resident;
            } else if let Some(cold) = &state.cold {
                match DeltaArtifact::from_json(cold) {
                    Ok(artifact) => {
                        state.bytes = artifact.payload_bytes() as u64;
                        rehydrated_bytes = state.bytes;
                        state.resident = Some(Arc::new(artifact));
                        shard.residents.push(tenant);
                        residency = Residency::Rehydrated;
                        self.rehydrations.fetch_add(1, Ordering::Relaxed);
                        tasfar_obs::metrics::counter("serve.rehydrations").incr();
                    }
                    Err(_) => {
                        // An unparseable cold artifact degrades to source
                        // serving; dropping it stops retrying every lookup.
                        state.cold = None;
                        tasfar_obs::metrics::counter("serve.cold_parse_errors").incr();
                    }
                }
            }
        }
        shard.resident_bytes += rehydrated_bytes;
        let handle = shard.tenants.get(&tenant).and_then(|s| s.resident.clone());
        if rehydrated_bytes > 0 {
            self.enforce_budget(shard, tenant);
        }
        (handle, residency)
    }

    /// Evicts LRU residents until the shard fits its budget, searching only
    /// the shard's resident list (`last_used` ticks are unique, so the
    /// victim is the one a scan of every tenant would pick). `keep` (the
    /// tenant just touched) is evicted only if it alone exceeds the budget:
    /// the budget is a hard cap, so an oversized artifact is serialized
    /// back to cold immediately rather than leaving the shard over budget
    /// indefinitely. (Handles already returned for `keep` stay valid — the
    /// `Arc` outlives residency.)
    fn enforce_budget(&self, shard: &mut Shard, keep: u64) {
        while shard.resident_bytes > self.budget_per_shard {
            let victim = shard
                .residents
                .iter()
                .copied()
                .filter(|&t| t != keep)
                .min_by_key(|t| shard.tenants[t].last_used);
            match victim {
                Some(victim) => {
                    Self::evict_locked(shard, victim, "budget", &self.evictions);
                }
                None => {
                    // `keep` is the sole resident and still over budget.
                    Self::evict_locked(shard, keep, "budget", &self.evictions);
                    break;
                }
            }
        }
    }

    /// Drops `tenant`'s resident delta (serializing it to the cold store
    /// first if needed). Must hold the shard lock.
    fn evict_locked(shard: &mut Shard, tenant: u64, reason: &str, evictions: &AtomicU64) -> bool {
        let Some(state) = shard.tenants.get_mut(&tenant) else {
            return false;
        };
        let Some(artifact) = state.resident.take() else {
            return false;
        };
        if state.cold.is_none() {
            state.cold = Some(Arc::from(artifact.to_json().as_str()));
        }
        let bytes = state.bytes;
        state.bytes = 0;
        shard.resident_bytes -= bytes;
        shard.unlist(tenant);
        evictions.fetch_add(1, Ordering::Relaxed);
        tasfar_obs::metrics::counter("serve.evictions").incr();
        let mut span = tasfar_obs::span("serve.evict");
        span.field("tenant", tenant);
        span.field("bytes", bytes);
        span.field("reason", reason);
        true
    }

    /// Explicitly evicts one tenant's resident delta. Returns whether a
    /// resident delta existed.
    pub fn evict(&self, tenant: u64, reason: &str) -> bool {
        let mut shard = self.lock(self.shard_of(tenant));
        Self::evict_locked(&mut shard, tenant, reason, &self.evictions)
    }

    /// Evicts every resident delta in every shard (the
    /// `serve_evict_storm` chaos payload). Returns how many were evicted.
    pub fn evict_all_resident(&self, reason: &str) -> usize {
        let mut evicted = 0;
        for i in 0..self.shards.len() {
            let mut shard = self.lock(i);
            let residents = shard.residents.clone();
            for t in residents {
                if Self::evict_locked(&mut shard, t, reason, &self.evictions) {
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// Point-in-time occupancy across all shards.
    pub fn stats(&self) -> RegistryStats {
        let mut stats = RegistryStats {
            tenants: 0,
            resident_tenants: 0,
            resident_bytes: 0,
            evictions: self.evictions.load(Ordering::Relaxed),
            rehydrations: self.rehydrations.load(Ordering::Relaxed),
        };
        for i in 0..self.shards.len() {
            let shard = self.lock(i);
            stats.tenants += shard.tenants.len();
            stats.resident_tenants += shard.residents.len();
            stats.resident_bytes += shard.resident_bytes;
        }
        stats
    }

    /// A clone of the tenant's current artifact, rehydrating if cold — the
    /// adapt path's warm-start read (off the hot path, so the clone is
    /// fine).
    pub fn clone_artifact(&self, tenant: u64) -> Option<DeltaArtifact> {
        self.artifact_handle(tenant).0.as_deref().cloned()
    }
}

/// A tiny deterministic helper for tests and benches: a registry where
/// every tenant shares one of `prototypes` serialized deltas, assigned
/// round-robin, registered cold (O(1) memory per tenant beyond the map
/// entry).
pub fn register_prototypes(registry: &TenantRegistry, tenants: u64, prototypes: &[Arc<str>]) {
    assert!(!prototypes.is_empty(), "register_prototypes: no prototypes");
    for t in 0..tenants {
        registry.register_cold(
            t,
            Arc::clone(&prototypes[(t % prototypes.len() as u64) as usize]),
        );
    }
}

/// Seeds an `Rng` stream per tenant for request payloads: deterministic,
/// decorrelated across tenants.
pub fn tenant_rng(seed: u64, tenant: u64) -> Rng {
    Rng::new(seed ^ fnv1a(&tenant.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasfar_nn::adapter::{enable_adapters, AdapterConfig};
    use tasfar_nn::init::Init;
    use tasfar_nn::layers::{Dense, Layer, Relu, Sequential};
    use tasfar_nn::tensor::Tensor;

    fn artifact(seed: u64) -> DeltaArtifact {
        let mut rng = Rng::new(seed);
        let mut m = Sequential::new()
            .add(Dense::new(3, 4, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dense::new(4, 1, Init::HeNormal, &mut rng));
        enable_adapters(&mut m, &AdapterConfig::rank(2), &mut rng);
        m.visit_params(&mut |p| {
            let noise = Tensor::rand_normal(p.value.rows(), p.value.cols(), 0.0, 0.1, &mut rng);
            p.value.add_assign(&noise);
        });
        DeltaArtifact::capture(&mut m, &AdapterConfig::rank(2))
    }

    #[test]
    fn shard_assignment_is_stable_and_spread() {
        let reg = TenantRegistry::new(8, 1 << 20);
        let mut hit = [false; 8];
        for t in 0..256u64 {
            let s = reg.shard_of(t);
            assert_eq!(s, reg.shard_of(t), "shard_of must be deterministic");
            hit[s] = true;
        }
        assert!(
            hit.iter().all(|&h| h),
            "256 tenants must reach all 8 shards"
        );
    }

    #[test]
    fn rehydration_roundtrips_and_counts() {
        let reg = TenantRegistry::new(2, 1 << 20);
        let a = artifact(1);
        reg.register_cold(7, Arc::from(a.to_json().as_str()));
        let (got, residency) = reg.artifact_handle(7);
        assert_eq!(
            got.as_deref(),
            Some(&a),
            "rehydrated artifact must equal the original"
        );
        assert_eq!(residency, Residency::Rehydrated);
        let (got, residency) = reg.artifact_handle(7);
        assert!(got.is_some());
        assert_eq!(residency, Residency::Resident, "second lookup is resident");
        let stats = reg.stats();
        assert_eq!(stats.rehydrations, 1);
        assert_eq!(stats.resident_tenants, 1);
        assert_eq!(stats.resident_bytes, a.payload_bytes() as u64);
    }

    #[test]
    fn unknown_tenant_serves_source_only() {
        let reg = TenantRegistry::new(2, 1 << 20);
        let (got, residency) = reg.artifact_handle(99);
        assert!(got.is_none());
        assert_eq!(residency, Residency::SourceOnly);
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let a = artifact(1);
        let bytes = a.payload_bytes() as u64;
        // One shard, room for two residents.
        let reg = TenantRegistry::new(1, 2 * bytes);
        reg.insert_resident(10, artifact(1));
        reg.insert_resident(20, artifact(2));
        // Touch 10 so 20 becomes the LRU, then push a third resident in.
        reg.artifact_handle(10);
        reg.insert_resident(30, artifact(3));
        let stats = reg.stats();
        assert_eq!(stats.resident_tenants, 2, "budget holds two residents");
        assert_eq!(stats.evictions, 1);
        let (a20, r20) = reg.artifact_handle(20);
        assert!(a20.is_some());
        assert_eq!(
            r20,
            Residency::Rehydrated,
            "the LRU tenant was evicted to cold and must rehydrate"
        );
        // Rehydrating 20 pushed the shard back over budget: still 2 resident.
        assert_eq!(reg.stats().resident_tenants, 2);
    }

    #[test]
    fn oversized_artifact_never_leaves_shard_over_budget() {
        let a = artifact(1);
        let bytes = a.payload_bytes() as u64;
        // Budget smaller than a single artifact: nothing may stay resident.
        let reg = TenantRegistry::new(1, bytes / 2);
        reg.insert_resident(10, a.clone());
        let stats = reg.stats();
        assert_eq!(stats.resident_tenants, 0, "oversized resident is evicted");
        assert_eq!(stats.resident_bytes, 0, "shard ends within budget");
        assert_eq!(stats.evictions, 1);
        // The delta survives in the cold store; each lookup rehydrates it
        // (and the budget pass re-evicts it), degrading, never growing.
        let (handle, residency) = reg.artifact_handle(10);
        assert_eq!(residency, Residency::Rehydrated);
        assert_eq!(handle.as_deref(), Some(&a), "handle outlives residency");
        assert_eq!(reg.stats().resident_bytes, 0);
    }

    #[test]
    fn evict_storm_clears_all_and_preserves_artifacts() {
        let reg = TenantRegistry::new(4, 1 << 20);
        for t in 0..6 {
            reg.insert_resident(t, artifact(t));
        }
        assert_eq!(reg.evict_all_resident("storm"), 6);
        let stats = reg.stats();
        assert_eq!(stats.resident_tenants, 0);
        assert_eq!(stats.resident_bytes, 0);
        for t in 0..6 {
            let expect = artifact(t);
            let (got, residency) = reg.artifact_handle(t);
            assert_eq!(
                got.as_deref(),
                Some(&expect),
                "storm-evicted artifact must rehydrate bit-identically"
            );
            assert_eq!(residency, Residency::Rehydrated);
        }
    }

    /// What the registry tracks per tenant, kept by a reference that has
    /// no resident list: each LRU victim comes from a scan of every tenant.
    #[derive(Clone)]
    struct RefTenant {
        resident: Option<DeltaArtifact>,
        cold: Option<String>,
        bytes: u64,
        last_used: u64,
    }

    struct Reference {
        shards: usize,
        budget: u64,
        tenants: HashMap<u64, RefTenant>,
        clock: u64,
        evictions: u64,
        rehydrations: u64,
    }

    impl Reference {
        fn shard_of(&self, t: u64) -> usize {
            (fnv1a(&t.to_le_bytes()) % self.shards as u64) as usize
        }

        fn tick(&mut self) -> u64 {
            self.clock += 1;
            self.clock
        }

        fn shard_bytes(&self, shard: usize) -> u64 {
            self.tenants
                .iter()
                .filter(|(&t, s)| self.shard_of(t) == shard && s.resident.is_some())
                .map(|(_, s)| s.bytes)
                .sum()
        }

        fn evict(&mut self, t: u64) -> bool {
            let Some(s) = self.tenants.get_mut(&t) else {
                return false;
            };
            let Some(a) = s.resident.take() else {
                return false;
            };
            s.cold.get_or_insert_with(|| a.to_json());
            s.bytes = 0;
            self.evictions += 1;
            true
        }

        fn enforce_budget(&mut self, keep: u64) {
            let shard = self.shard_of(keep);
            while self.shard_bytes(shard) > self.budget {
                let victim = self
                    .tenants
                    .iter()
                    .filter(|(&t, s)| {
                        self.shard_of(t) == shard && s.resident.is_some() && t != keep
                    })
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(&t, _)| t);
                match victim {
                    Some(v) => {
                        self.evict(v);
                    }
                    None => {
                        self.evict(keep);
                        break;
                    }
                }
            }
        }

        fn register_cold(&mut self, t: u64, json: &str) {
            let last_used = self.tick();
            self.tenants.insert(
                t,
                RefTenant {
                    resident: None,
                    cold: Some(json.to_string()),
                    bytes: 0,
                    last_used,
                },
            );
        }

        fn insert_resident(&mut self, t: u64, a: DeltaArtifact) {
            let last_used = self.tick();
            let bytes = a.payload_bytes() as u64;
            self.tenants.insert(
                t,
                RefTenant {
                    resident: Some(a),
                    cold: None,
                    bytes,
                    last_used,
                },
            );
            self.enforce_budget(t);
        }

        fn artifact_handle(&mut self, t: u64) -> (Option<DeltaArtifact>, Residency) {
            let tick = self.tick();
            let Some(s) = self.tenants.get_mut(&t) else {
                return (None, Residency::SourceOnly);
            };
            s.last_used = tick;
            if s.resident.is_some() {
                return (s.resident.clone(), Residency::Resident);
            }
            let Some(cold) = &s.cold else {
                return (None, Residency::SourceOnly);
            };
            match DeltaArtifact::from_json(cold) {
                Ok(a) => {
                    s.bytes = a.payload_bytes() as u64;
                    s.resident = Some(a.clone());
                    self.rehydrations += 1;
                    if s.bytes > 0 {
                        self.enforce_budget(t);
                    }
                    (Some(a), Residency::Rehydrated)
                }
                Err(_) => {
                    s.cold = None;
                    (None, Residency::SourceOnly)
                }
            }
        }
    }

    /// Random operation sequences over a few shards with tight budgets: after
    /// every operation the registry, which searches only its resident lists,
    /// must agree with the reference on the returned handle and residency,
    /// on `stats()`, on which tenants are resident, and on the budget cap.
    #[test]
    fn resident_lists_evict_what_a_full_scan_evicts() {
        // Deltas of three sizes, their JSON, and two texts that fail to
        // parse (truncated; an extra first tensor written as decimals
        // whose literal overflows).
        let artifacts: Vec<DeltaArtifact> = [(3, 4), (3, 9), (5, 16)]
            .iter()
            .enumerate()
            .map(|(i, &(d_in, width))| {
                let mut rng = Rng::new(40 + i as u64);
                let mut m = Sequential::new()
                    .add(Dense::new(d_in, width, Init::HeNormal, &mut rng))
                    .add(Relu::new())
                    .add(Dense::new(width, 1, Init::HeNormal, &mut rng));
                enable_adapters(&mut m, &AdapterConfig::rank(2), &mut rng);
                DeltaArtifact::capture(&mut m, &AdapterConfig::rank(2))
            })
            .collect();
        let mut texts: Vec<String> = artifacts.iter().map(|a| a.to_json()).collect();
        texts.push(texts[0][..texts[0].len() / 2].to_string());
        texts.push(texts[1].replacen("\"values\":[", "\"values\":[[1e999],", 1));
        assert_ne!(texts[4], texts[1]);
        let unit = artifacts[1].payload_bytes() as u64;

        for case in 0..60u64 {
            let mut g = Rng::new(0x4E51D ^ case);
            let shards = 1 + g.below(3);
            let budget = unit * (1 + g.below(4) as u64) * shards as u64 / 2;
            let reg = TenantRegistry::new(shards, budget);
            let mut reference = Reference {
                shards,
                budget: reg.budget_per_shard,
                tenants: HashMap::new(),
                clock: 0,
                evictions: 0,
                rehydrations: 0,
            };
            for op in 0..150 {
                let t = g.below(10) as u64;
                let what = format!("case {case} op {op}");
                match g.below(10) {
                    0..=1 => {
                        let text = &texts[g.below(texts.len())];
                        reg.register_cold(t, Arc::from(text.as_str()));
                        reference.register_cold(t, text);
                    }
                    2..=3 => {
                        let a = artifacts[g.below(artifacts.len())].clone();
                        reg.insert_resident(t, a.clone());
                        reference.insert_resident(t, a);
                    }
                    4..=7 => {
                        let (handle, residency) = reg.artifact_handle(t);
                        let (want, want_residency) = reference.artifact_handle(t);
                        assert_eq!(residency, want_residency, "{what}: residency of {t}");
                        assert_eq!(handle.as_deref(), want.as_ref(), "{what}: handle of {t}");
                    }
                    8 => assert_eq!(
                        reg.evict(t, "test"),
                        reference.evict(t),
                        "{what}: evict {t}"
                    ),
                    _ => {
                        let want = (0..10).filter(|&t| reference.evict(t)).count();
                        assert_eq!(reg.evict_all_resident("test"), want, "{what}: storm");
                    }
                }

                let stats = reg.stats();
                let resident: Vec<u64> = {
                    let mut r: Vec<u64> = reference
                        .tenants
                        .iter()
                        .filter(|(_, s)| s.resident.is_some())
                        .map(|(&t, _)| t)
                        .collect();
                    r.sort_unstable();
                    r
                };
                assert_eq!(
                    stats.resident_tenants,
                    resident.len(),
                    "{what}: resident tenants"
                );
                assert_eq!(
                    stats.resident_bytes,
                    (0..shards).map(|s| reference.shard_bytes(s)).sum::<u64>(),
                    "{what}: resident bytes"
                );
                assert_eq!(stats.evictions, reference.evictions, "{what}: evictions");
                assert_eq!(
                    stats.rehydrations, reference.rehydrations,
                    "{what}: rehydrations"
                );
                assert_eq!(stats.tenants, reference.tenants.len(), "{what}: tenants");
                let mut listed = Vec::new();
                for (i, shard) in reg.shards.iter().enumerate() {
                    let shard = shard.lock().unwrap();
                    assert!(
                        shard.resident_bytes <= reg.budget_per_shard,
                        "{what}: shard {i} over budget"
                    );
                    assert_eq!(
                        shard.resident_bytes,
                        reference.shard_bytes(i),
                        "{what}: shard {i}"
                    );
                    listed.extend_from_slice(&shard.residents);
                }
                listed.sort_unstable();
                assert_eq!(listed, resident, "{what}: resident lists");
            }
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
