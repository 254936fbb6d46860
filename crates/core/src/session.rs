//! Per-tenant adaptation sessions over one shared frozen source model.
//!
//! A [`TenantSession`] owns the *recipe* (source calibration, TASFAR
//! config, adapter config, recovery policy) and applies it to one tenant at
//! a time, on demand, against a shared model the caller keeps parked on the
//! source state between tenants:
//!
//! 1. [`TenantSession::prepare_shared`] clones the frozen source model,
//!    attaches low-rank adapters, and returns the model together with its
//!    delta-only *init checkpoint* (zero factors + source running state).
//! 2. [`TenantSession::adapt_delta`] restores the init checkpoint, warm
//!    starts from the tenant's prior [`DeltaArtifact`] when one exists,
//!    runs [`crate::guard::adapt_guarded`] (so one tenant's divergence
//!    can't poison the shared model — the guard rolls back to the warm
//!    start), exports the refreshed delta, and re-parks the model on the
//!    source state.
//!
//! A tenant is any group of target rows: the serving runtime adapts one
//! per user, and partitioned adaptation ([`crate::partition`]) one per
//! scene or other task-specific key.
//!
//! A stale prior (captured under a different architecture or rank) is
//! dropped — the tenant adapts from the zero delta instead — rather than
//! panicking the serving shard.

use tasfar_nn::adapter::AdapterConfig;
use tasfar_nn::layers::Sequential;
use tasfar_nn::loss::Loss;
use tasfar_nn::model::{CheckpointRegressor, SeqCheckpoint};
use tasfar_nn::rng::Rng;
use tasfar_nn::spec::DeltaArtifact;
use tasfar_nn::tensor::Tensor;

use crate::adapt::{SourceCalibration, TasfarConfig};
use crate::guard::{adapt_guarded, GuardedOutcome, RecoveryPolicy};

/// The per-tenant adaptation recipe: everything needed to turn one tenant's
/// unlabeled batch into a refreshed [`DeltaArtifact`], guarded.
#[derive(Debug, Clone)]
pub struct TenantSession {
    calib: SourceCalibration,
    cfg: TasfarConfig,
    adapter_cfg: AdapterConfig,
    policy: RecoveryPolicy,
}

impl TenantSession {
    /// A session with the default [`RecoveryPolicy`].
    pub fn new(calib: SourceCalibration, cfg: TasfarConfig, adapter_cfg: AdapterConfig) -> Self {
        TenantSession {
            calib,
            cfg,
            adapter_cfg,
            policy: RecoveryPolicy::default(),
        }
    }

    /// Overrides the recovery policy.
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The adapter configuration tenants' deltas are captured under.
    pub fn adapter_config(&self) -> &AdapterConfig {
        &self.adapter_cfg
    }

    /// Clones the frozen source model, attaches adapters, and returns it
    /// parked on the *init checkpoint* (zero delta factors + source running
    /// state) alongside that checkpoint. The checkpoint is delta-sized; the
    /// caller restores it to detach any tenant's delta in O(delta) work.
    ///
    /// # Panics
    /// Panics when the source model has no adapter-capable layers — a
    /// serving shard without a delta subspace cannot host tenants.
    pub fn prepare_shared(
        &self,
        source: &Sequential,
        rng: &mut Rng,
    ) -> (Sequential, SeqCheckpoint) {
        let mut model = source.clone();
        let attached = tasfar_nn::adapter::enable_adapters(&mut model, &self.adapter_cfg, rng);
        assert!(
            attached > 0,
            "TenantSession::prepare_shared: the source model has no adapter-capable layers"
        );
        let init = model.checkpoint();
        debug_assert!(init.is_delta());
        (model, init)
    }

    /// Adapts the shared model to one tenant's unlabeled batch under the
    /// guard, returning the guarded outcome and the tenant's delta going
    /// forward:
    ///
    /// - on success (`Adapted`/`Recovered`), the freshly captured artifact;
    /// - on `FellBackToSource`, the prior artifact unchanged (the guard
    ///   rolled the model back to the warm start), or `None` if the tenant
    ///   had never adapted.
    ///
    /// A `prior` that no longer fits the model (stale rank/architecture) is
    /// discarded and the adaptation warm starts from the zero delta; the
    /// `session.stale_prior` counter records the drop. The model is always
    /// re-parked on `init` before returning, whatever the outcome.
    #[allow(clippy::too_many_arguments)]
    pub fn adapt_delta(
        &self,
        model: &mut Sequential,
        init: &SeqCheckpoint,
        tenant: u64,
        prior: Option<&DeltaArtifact>,
        target_x: &Tensor,
        loss: &dyn Loss,
        rng: &mut Rng,
    ) -> (GuardedOutcome, Option<DeltaArtifact>) {
        let mut span = tasfar_obs::timed_span("tenant_session.adapt");
        span.field("tenant", tenant);
        span.field("rows", target_x.rows());
        span.field("warm_start", prior.is_some());

        model.restore(init);
        let mut prior = prior;
        if let Some(p) = prior {
            if let Err(e) = p.try_apply(model, rng) {
                // try_apply validates before mutating, so the model is
                // still parked on init: adapt from the zero delta.
                tasfar_obs::metrics::counter("session.stale_prior").incr();
                tasfar_obs::event(
                    "session.stale_prior",
                    vec![("tenant", tenant.into()), ("error", e.to_string().into())],
                );
                prior = None;
            }
        }

        let outcome = adapt_guarded(model, &self.calib, target_x, loss, &self.cfg, &self.policy);
        let artifact = if outcome.fell_back() {
            prior.cloned()
        } else {
            Some(DeltaArtifact::capture(model, &self.adapter_cfg))
        };
        model.restore(init);
        span.field("outcome", outcome.label());
        (outcome, artifact)
    }
}
