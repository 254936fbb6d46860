//! The serving loop: fused cross-tenant predict batches over one shared
//! frozen model, guarded adaptation, and registry-backed delta residency.
//!
//! A [`ServeRuntime`] is the shared state (queue + registry + the
//! adaptation recipe); a [`ServeWorker`] is one execution context — its own
//! clone of the source model with adapters attached, its own scratch arena
//! — that drains the queue. One runtime can feed any number of workers
//! (each worker's model is a private replica; the deltas are shared through
//! the registry).
//!
//! The fused predict path per batch:
//!
//! 1. group the window's requests by tenant (first-appearance order);
//! 2. per tenant: resolve a shared delta handle
//!    ([`TenantRegistry::artifact_handle`] — resident, rehydrated, or
//!    absent) and validate it against the model
//!    ([`DeltaArtifact::check`]; a stale delta degrades to source serving,
//!    counted in `serve.stale_delta`);
//! 3. stack **every** request in the window — all tenants — into one tall
//!    input, group-contiguous, and run a single
//!    [`predict_segmented_scratch`] forward that reads each tenant's
//!    factors in place from its artifact: a `Dense` layer pays its base
//!    GEMM (and the compute backend's panel-packing cost) once per batch
//!    and applies each tenant's rank-`r` correction to that tenant's row
//!    segment; a `Conv1d` layer convolves each segment with that tenant's
//!    effective kernel. The worker model itself is never mutated — it
//!    stays parked on the source state, so there is no per-tenant
//!    apply/restore on the predict path at all.
//!
//! `Eval` forwards are row-independent and each segment runs the same
//! kernels in the same order as a solo adapted forward, so each request's
//! rows are bit-identical to solo serving (the batching suite pins this
//! with FNV-1a hashes). This is the only batch path, for every model the
//! serving layer accepts: MLPs, batch-norm models and the PDR TCN alike.
//! [`ServeWorker::serve_solo`] is the independent apply → forward →
//! restore reference those pins compare against.
//!
//! [`predict_segmented_scratch`]: tasfar_nn::layers::Sequential::predict_segmented_scratch
//! [`DeltaArtifact::check`]: tasfar_nn::spec::DeltaArtifact::check
//! [`TenantRegistry::artifact_handle`]: crate::registry::TenantRegistry::artifact_handle

use std::collections::HashMap;
use std::sync::Arc;

use tasfar_core::faultinject::{self, Fault};
use tasfar_core::session::TenantSession;
use tasfar_nn::layers::{Layer, SegmentSpan, Sequential};
use tasfar_nn::loss::Mse;
use tasfar_nn::model::{CheckpointRegressor, Regressor, SeqCheckpoint};
use tasfar_nn::rng::Rng;
use tasfar_nn::scratch::Scratch;
use tasfar_nn::spec::DeltaArtifact;
use tasfar_nn::tensor::Tensor;

use crate::queue::{AdmissionQueue, PredictRequest, Request, Work};
use crate::registry::TenantRegistry;
use crate::ServeError;

/// Serving-runtime knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registry shard count (fixed at construction).
    pub shards: usize,
    /// Bounded queue depth per priority class.
    pub queue_depth: usize,
    /// Max predict requests fused into one batch. `1` is unbatched
    /// serving — the bench's reference variant.
    pub batch_window: usize,
    /// Total resident-delta byte budget across all shards.
    pub resident_budget_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 16,
            queue_depth: 1024,
            batch_window: 64,
            resident_budget_bytes: 64 << 20,
        }
    }
}

/// How a predict request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedVia {
    /// The tenant's delta was applied (resident or rehydrated).
    Delta,
    /// The tenant has no delta: source model.
    Source,
    /// The tenant's delta no longer fits the serving model (stale rank or
    /// architecture): degraded to the source model instead of panicking.
    SourceStaleDelta,
}

/// What completed for one admitted request.
#[derive(Debug)]
pub enum CompletionKind {
    /// A prediction, with the rows for the request's input.
    Predict {
        /// Output rows (one per input row). The tensor's buffer came from
        /// the worker's scratch arena; hand it back via
        /// [`ServeWorker::recycle`] to keep the steady state allocation
        /// free, or just drop it.
        output: Tensor,
        /// Which weights served it.
        via: ServedVia,
    },
    /// A guarded adaptation finished.
    Adapt {
        /// `adapted` / `recovered` / `fell_back` (the
        /// [`GuardedOutcome::label`] vocabulary).
        ///
        /// [`GuardedOutcome::label`]: tasfar_core::guard::GuardedOutcome::label
        outcome: &'static str,
    },
    /// An evict op ran.
    Evict {
        /// Whether a resident delta existed to evict.
        evicted: bool,
    },
}

/// One finished request.
#[derive(Debug)]
pub struct Completion {
    /// The ticket from submit.
    pub id: u64,
    /// The tenant it belonged to.
    pub tenant: u64,
    /// What happened.
    pub kind: CompletionKind,
    /// Submit-to-completion latency.
    pub latency_ns: u64,
}

/// Shared serving state: config, queue, registry, and the adaptation
/// recipe plus the frozen source model workers replicate.
pub struct ServeRuntime {
    cfg: ServeConfig,
    queue: AdmissionQueue,
    registry: TenantRegistry,
    session: TenantSession,
    source: Sequential,
    /// The model's input feature width ([`Layer::input_dim`]), checked at
    /// admission so a malformed request is rejected with a typed error
    /// instead of panicking a worker mid-batch. `None` when the model does
    /// not constrain its input width (admission then skips the check).
    input_width: Option<usize>,
}

impl ServeRuntime {
    /// Builds the runtime around a frozen source model and an adaptation
    /// recipe.
    pub fn new(source: Sequential, session: TenantSession, cfg: ServeConfig) -> Arc<Self> {
        let input_width = source.input_dim();
        Arc::new(ServeRuntime {
            queue: AdmissionQueue::new(cfg.queue_depth),
            registry: TenantRegistry::new(cfg.shards, cfg.resident_budget_bytes),
            session,
            source,
            input_width,
            cfg,
        })
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The admission queue (submit requests here).
    pub fn queue(&self) -> &AdmissionQueue {
        &self.queue
    }

    /// The tenant registry (register cold deltas, inspect occupancy).
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Rejects a request whose input width the model cannot serve. Every
    /// request in a fused batch (and every adapt forward) runs through the
    /// model's input assert — one malformed tensor would panic the worker
    /// mid-batch and lose the window's other tenants' requests, so the
    /// mismatch is turned away at admission instead.
    fn check_input_width(&self, x: &Tensor) -> Result<(), ServeError> {
        match self.input_width {
            Some(expected) if x.cols() != expected => {
                tasfar_obs::metrics::counter("serve.queue.rejected_width").incr();
                tasfar_obs::event(
                    "serve.bad_width",
                    vec![("expected", expected.into()), ("got", x.cols().into())],
                );
                Err(ServeError::InputWidth {
                    expected,
                    got: x.cols(),
                })
            }
            _ => Ok(()),
        }
    }

    /// Admits a predict request for `tenant`. Rejects a wrong input width
    /// with [`ServeError::InputWidth`] — nothing malformed reaches a fused
    /// batch.
    pub fn submit_predict(&self, tenant: u64, x: Tensor) -> Result<u64, ServeError> {
        self.check_input_width(&x)?;
        self.queue.submit_predict(tenant, x)
    }

    /// Admits an adapt op for `tenant`. Rejects a wrong input width with
    /// [`ServeError::InputWidth`], like [`ServeRuntime::submit_predict`].
    pub fn submit_adapt(&self, tenant: u64, x: Tensor) -> Result<u64, ServeError> {
        self.check_input_width(&x)?;
        self.queue.submit_adapt(tenant, x)
    }

    /// Admits an evict op for `tenant`.
    pub fn submit_evict(&self, tenant: u64) -> Result<u64, ServeError> {
        self.queue.submit_evict(tenant)
    }

    /// Spawns a worker context: a private replica of the source model with
    /// adapters attached (seeded by `seed`), parked on its init checkpoint.
    pub fn worker(self: &Arc<Self>, seed: u64) -> ServeWorker {
        let mut rng = Rng::new(seed);
        let (model, init) = self.session.prepare_shared(&self.source, &mut rng);
        ServeWorker {
            runtime: Arc::clone(self),
            model,
            init,
            scratch: Scratch::new(),
            rng,
            group_order: Vec::new(),
            group_of: HashMap::new(),
            groups: Vec::new(),
        }
    }
}

/// One serving execution context. Not `Sync`: each worker owns its model
/// replica and scratch arena; parallelism comes from multiple workers
/// draining one runtime's queue.
pub struct ServeWorker {
    runtime: Arc<ServeRuntime>,
    model: Sequential,
    init: SeqCheckpoint,
    scratch: Scratch,
    rng: Rng,
    // Per-batch grouping state, worker-owned so steady-state batches reuse
    // the buffers instead of allocating.
    group_order: Vec<u64>,
    group_of: HashMap<u64, usize>,
    groups: Vec<Vec<usize>>,
}

impl ServeWorker {
    /// The runtime this worker drains.
    pub fn runtime(&self) -> &Arc<ServeRuntime> {
        &self.runtime
    }

    /// Whether batches take the segmented fused forward. Always `true`:
    /// every layer serves tenant artifacts through
    /// [`Layer::forward_segmented`], so there is no other batch path. Kept
    /// for callers that report the serving path.
    pub fn is_segmented(&self) -> bool {
        true
    }

    /// Returns an output tensor's buffer to the worker's scratch arena so
    /// the next batch reuses it.
    pub fn recycle(&mut self, t: Tensor) {
        self.scratch.give(t);
    }

    /// Bytes of the worker's full model replica (base params + state) —
    /// the denominator of the per-tenant residency ratio.
    pub fn full_model_bytes(&mut self) -> u64 {
        let mut scalars = 0usize;
        self.model
            .visit_base_params(&mut |p| scalars += p.value.as_slice().len());
        self.model.visit_state(&mut |s| scalars += s.len());
        (scalars * std::mem::size_of::<f64>()) as u64
    }

    /// Drains one unit of work without blocking: a fused predict batch (up
    /// to the configured window) or one admin op. Returns the completions,
    /// empty when the queue had nothing — the empty-window flush is a
    /// no-op, no span, no forward.
    pub fn process_next(&mut self) -> Vec<Completion> {
        match self.runtime.queue.next_work(self.runtime.cfg.batch_window) {
            Some(Work::Batch(reqs)) => self.process_predict_batch(reqs),
            Some(Work::Admin(req)) => vec![self.process_admin(req)],
            None => Vec::new(),
        }
    }

    /// Service-thread loop: blocks for work, forwards completions to
    /// `sink`, returns when the queue is closed and drained.
    pub fn run_until_closed(&mut self, mut sink: impl FnMut(Completion)) {
        while let Some(work) = self
            .runtime
            .queue
            .next_work_blocking(self.runtime.cfg.batch_window)
        {
            let completions = match work {
                Work::Batch(reqs) => self.process_predict_batch(reqs),
                Work::Admin(req) => vec![self.process_admin(req)],
            };
            for c in completions {
                sink(c);
            }
        }
    }

    fn process_predict_batch(&mut self, batch: Vec<PredictRequest>) -> Vec<Completion> {
        let mut span = tasfar_obs::timed_span("serve.batch");
        // Chaos, consumed at the batch boundary: a cold-cache storm evicts
        // every resident delta (rehydration mid-batch must stay
        // bit-identical); a slow tenant burns extra forwards on the first
        // group (others must still complete — no head-of-line deadlock).
        if faultinject::consume(Fault::ServeEvictStorm).is_some() {
            let evicted = self.runtime.registry.evict_all_resident("storm");
            span.field("chaos_evict_storm", evicted);
        }
        let slow_tenant = faultinject::consume(Fault::ServeSlowTenant).is_some();

        // Group by tenant, first-appearance order (deterministic).
        self.group_order.clear();
        self.group_of.clear();
        for g in &mut self.groups {
            g.clear();
        }
        for (i, req) in batch.iter().enumerate() {
            let g = *self.group_of.entry(req.tenant).or_insert_with(|| {
                self.group_order.push(req.tenant);
                if self.groups.len() < self.group_order.len() {
                    self.groups.push(Vec::new());
                }
                self.group_order.len() - 1
            });
            self.groups[g].push(i);
        }

        let mut outputs: Vec<Option<(Tensor, ServedVia)>> = Vec::with_capacity(batch.len());
        outputs.resize_with(batch.len(), || None);
        let n_groups = self.group_order.len();
        let rows_total = self.predict_batch_segmented(&batch, &mut outputs, slow_tenant);

        span.field("requests", batch.len());
        span.field("tenants", n_groups);
        span.field("rows", rows_total);
        tasfar_obs::metrics::counter("serve.batches").incr();
        tasfar_obs::metrics::counter("serve.batch.requests").add(batch.len() as u64);
        tasfar_obs::metrics::histogram("serve.batch.occupancy").record(batch.len() as u64);
        tasfar_obs::metrics::histogram("serve.batch.tenants").record(n_groups as u64);

        batch
            .into_iter()
            .zip(outputs)
            .map(|(req, out)| {
                let (output, via) = out.expect("every request belongs to exactly one group");
                Completion {
                    id: req.id,
                    tenant: req.tenant,
                    kind: CompletionKind::Predict { output, via },
                    latency_ns: req.enqueued.elapsed().as_nanos() as u64,
                }
            })
            .collect()
    }

    /// The segmented fused forward: one whole-batch forward over every
    /// request in the window, all tenants at once. The worker model is
    /// never mutated — it stays parked on the source state, each tenant's
    /// delta is read in place from its artifact handle — so there is no
    /// per-tenant apply/restore and the dense base GEMMs are paid once per
    /// batch. Fills `outputs` (indexed like `batch`) and returns the total
    /// row count.
    ///
    /// Caller must have populated the per-batch grouping state
    /// (`group_order` / `groups`).
    fn predict_batch_segmented(
        &mut self,
        batch: &[PredictRequest],
        outputs: &mut [Option<(Tensor, ServedVia)>],
        slow_tenant: bool,
    ) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let n_groups = self.group_order.len();
        // Resolve one shared delta handle per tenant group. `check`
        // validates factor shapes against the model without loading them,
        // keeping the stale-delta degradation path.
        let mut handles: Vec<Option<Arc<DeltaArtifact>>> = Vec::with_capacity(n_groups);
        let mut vias: Vec<ServedVia> = Vec::with_capacity(n_groups);
        for g in 0..n_groups {
            let tenant = self.group_order[g];
            let (handle, _residency) = self.runtime.registry.artifact_handle(tenant);
            match handle {
                Some(a) => match a.check(&mut self.model) {
                    Ok(()) => {
                        handles.push(Some(a));
                        vias.push(ServedVia::Delta);
                    }
                    Err(e) => {
                        tasfar_obs::metrics::counter("serve.stale_delta").incr();
                        tasfar_obs::event(
                            "serve.stale_delta",
                            vec![("tenant", tenant.into()), ("error", e.to_string().into())],
                        );
                        handles.push(None);
                        vias.push(ServedVia::SourceStaleDelta);
                    }
                },
                None => {
                    handles.push(None);
                    vias.push(ServedVia::Source);
                }
            }
        }

        // Stack every request's rows, tenant-group-contiguous, into one
        // tall input.
        let in_cols = batch[0].x.cols();
        let total_rows: usize = batch.iter().map(|r| r.x.rows()).sum();
        let mut stacked = self.scratch.take(total_rows, in_cols);
        let mut segments: Vec<SegmentSpan<'_>> = Vec::with_capacity(n_groups);
        let mut row0 = 0usize;
        for (group, handle) in self.groups.iter().take(n_groups).zip(handles.iter()) {
            let mut seg_rows = 0usize;
            for &i in group {
                let x = &batch[i].x;
                assert_eq!(
                    x.cols(),
                    in_cols,
                    "fused requests must share one input feature width"
                );
                let rows = x.rows();
                stacked.as_mut_slice()[row0 * in_cols..(row0 + rows) * in_cols]
                    .copy_from_slice(x.as_slice());
                row0 += rows;
                seg_rows += rows;
            }
            segments.push(SegmentSpan {
                rows: seg_rows,
                delta: handle.as_deref(),
            });
        }

        let stacked_out =
            self.model
                .predict_segmented_scratch(&stacked, &segments, &mut self.scratch);
        if slow_tenant {
            // Burn duplicate forwards on the first group's requests;
            // results are discarded, only wall time is injected.
            for _ in 0..8 {
                for &i in &self.groups[0] {
                    let t = self.model.predict_scratch(&batch[i].x, &mut self.scratch);
                    self.scratch.give(t);
                }
            }
            tasfar_obs::event(
                "serve.slow_tenant",
                vec![("tenant", self.group_order[0].into())],
            );
        }

        // Split the stacked output rows back per request, in the same
        // group-contiguous order they were stacked.
        let out_cols = stacked_out.cols();
        let mut row0 = 0usize;
        for (group, &via) in self.groups.iter().take(n_groups).zip(vias.iter()) {
            for &i in group {
                let rows = batch[i].x.rows();
                let mut out = self.scratch.take(rows, out_cols);
                out.as_mut_slice().copy_from_slice(
                    &stacked_out.as_slice()[row0 * out_cols..(row0 + rows) * out_cols],
                );
                outputs[i] = Some((out, via));
                row0 += rows;
            }
        }
        self.scratch.give(stacked_out);
        self.scratch.give(stacked);
        total_rows
    }

    fn process_admin(&mut self, req: Request) -> Completion {
        match req {
            Request::Adapt {
                id,
                tenant,
                x,
                enqueued,
            } => {
                let mut span = tasfar_obs::timed_span("serve.adapt");
                span.field("tenant", tenant);
                let prior = self.runtime.registry.clone_artifact(tenant);
                let (outcome, artifact) = self.runtime.session.adapt_delta(
                    &mut self.model,
                    &self.init,
                    tenant,
                    prior.as_ref(),
                    &x,
                    &Mse,
                    &mut self.rng,
                );
                let label = outcome.label();
                span.field("outcome", label);
                tasfar_obs::metrics::counter(&format!("serve.adapt.{label}")).incr();
                if let Some(a) = artifact {
                    self.runtime.registry.insert_resident(tenant, a);
                }
                Completion {
                    id,
                    tenant,
                    kind: CompletionKind::Adapt { outcome: label },
                    latency_ns: enqueued.elapsed().as_nanos() as u64,
                }
            }
            Request::Evict {
                id,
                tenant,
                enqueued,
            } => {
                let evicted = self.runtime.registry.evict(tenant, "explicit");
                Completion {
                    id,
                    tenant,
                    kind: CompletionKind::Evict { evicted },
                    latency_ns: enqueued.elapsed().as_nanos() as u64,
                }
            }
        }
    }

    /// Serves one predict immediately, bypassing the queue — the reference
    /// solo path the bit-identity pins compare against (apply → one
    /// single-request forward → restore).
    pub fn serve_solo(&mut self, tenant: u64, x: &Tensor) -> (Tensor, ServedVia) {
        let (artifact, _residency) = self.runtime.registry.artifact_handle(tenant);
        // The model is parked on the source state between operations, and
        // `try_apply` validates before mutating: a stale delta leaves it
        // there, so the forward below serves the source model.
        let via = match artifact.map(|a| a.try_apply(&mut self.model, &mut self.rng)) {
            Some(Ok(())) => ServedVia::Delta,
            Some(Err(e)) => {
                tasfar_obs::metrics::counter("serve.stale_delta").incr();
                tasfar_obs::event(
                    "serve.stale_delta",
                    vec![("tenant", tenant.into()), ("error", e.to_string().into())],
                );
                ServedVia::SourceStaleDelta
            }
            None => ServedVia::Source,
        };
        let out = self.model.predict_scratch(x, &mut self.scratch);
        self.model.restore(&self.init);
        (out, via)
    }
}
