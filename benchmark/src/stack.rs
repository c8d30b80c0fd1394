//! The store stack a workload runs against, in its two builds.
//!
//! The *plain* build is exactly what `NsdfClient::simulated*` hands out;
//! every end-to-end number is measured on it. The *traced* build is the
//! same wrapper stack assembled here from the public constructors — on the
//! client's own clock, registry and scheduler, with the same seeds — with
//! a [`SpanStore`] interposed at every layer boundary:
//!
//! ```text
//! SchedStore → TierCache → RetryStore → IntegrityStore → BreakerStore → FaultStore → CloudStore → MemoryStore
//! ```
//!
//! (the four resilience wrappers only on a chaos stack). The runner checks
//! that the traced build charges the same virtual time and moves the same
//! WAN counters as the plain one, and reports it as `trace.equivalent`.

use crate::trace::{SpanStore, Tracer};
use nsdf_core::{EndpointKind, EndpointPolicy, NsdfClient, StorageEndpoint};
use nsdf_storage::{
    BreakerStore, CloudStore, FaultPlan, FaultStore, IntegrityStore, MemoryStore, NetworkProfile,
    ObjectStore, RetryStore, SchedStore, TierCache,
};
use nsdf_util::{derive_seed, Result};
use std::sync::Arc;

/// Tenant id `NsdfClient` admits its own traffic under.
const CLIENT_TENANT: u32 = 0;
/// Disk-tier budget of the `NsdfClient::simulated*_tiered` constructors.
const DISK_TIER_BYTES: u64 = 1 << 30;
/// RAM-tier budget of `NsdfClient::simulated`.
const QUIET_CACHE_BYTES: u64 = 256 << 20;

/// Fault model and resilience policy of a chaos stack, with the store
/// that plays the disk tier.
pub struct Chaos<'a> {
    /// Scripted faults.
    pub plan: &'a FaultPlan,
    /// Retry / hedge / breaker / integrity / RAM-tier policy.
    pub policy: &'a EndpointPolicy,
    /// The persistent tier's backing store.
    pub disk: Arc<dyn ObjectStore>,
}

/// A client plus the handles a workload needs on one remote endpoint.
pub struct Stack {
    /// The client; `endpoint` resolves to the stack under test.
    pub client: NsdfClient,
    /// `"seal"` or `"dataverse"`.
    pub endpoint: &'static str,
    /// The endpoint's two-tier cache (for `clear_ram`, `tier_stats`).
    pub tier: Arc<TierCache>,
    /// The store scripted background tenants are granted against: the
    /// tier cache, below the admission layer.
    pub tier_store: Arc<dyn ObjectStore>,
    /// Records spans in the traced build; disabled in the plain one.
    pub tracer: Tracer,
}

impl Stack {
    /// The endpoint's store, as workloads reach it.
    pub fn store(&self) -> Arc<dyn ObjectStore> {
        self.client.store(self.endpoint).expect("endpoint registered at build")
    }

    /// Registry scope prefix of the endpoint's counters (`"seal."`).
    pub fn scope(&self) -> String {
        format!("{}.", self.endpoint)
    }
}

fn profile_of(endpoint: &str) -> (EndpointKind, NetworkProfile, &'static str) {
    match endpoint {
        "seal" => (EndpointKind::PrivateCloud, NetworkProfile::private_seal(), "wan-seal"),
        "dataverse" => {
            (EndpointKind::PublicCommons, NetworkProfile::public_dataverse(), "wan-dataverse")
        }
        other => panic!("no simulated endpoint named {other:?}"),
    }
}

/// Build the stack for `endpoint` under `seed`: quiet (`chaos` = `None`)
/// or chaos-tiered, plain or traced.
pub fn build(
    seed: u64,
    endpoint: &'static str,
    chaos: Option<Chaos<'_>>,
    traced: bool,
) -> Result<Stack> {
    if !traced {
        let client = match chaos {
            None => NsdfClient::simulated(seed),
            Some(c) => NsdfClient::simulated_chaos_tiered(seed, c.plan, c.policy, c.disk)?,
        };
        let tier = client.tiercache(endpoint).expect("remote endpoints are cache-fronted");
        let tier_store = Arc::clone(&tier) as Arc<dyn ObjectStore>;
        return Ok(Stack { client, endpoint, tier, tier_store, tracer: Tracer::disabled() });
    }

    // The client supplies clock, registry, scheduler (tenant 0 registered)
    // and the local endpoint; its own copy of `endpoint` is replaced below.
    let mut client = NsdfClient::simulated(seed);
    let tracer = Tracer::recording(client.clock().clone());
    let wrap = |store: Arc<dyn ObjectStore>, layer| SpanStore::wrap(store, layer, &tracer);
    let clock = client.clock().clone();
    let ep_obs = client.obs().scoped(endpoint);
    let (kind, profile, label) = profile_of(endpoint);

    let memory = wrap(Arc::new(MemoryStore::new()), "memory");
    let wan =
        CloudStore::new(memory, profile, clock.clone(), derive_seed(seed, label)).with_obs(&ep_obs);
    let mut stack = wrap(Arc::new(wan), "wan");
    let mut cache_bytes = QUIET_CACHE_BYTES;
    let mut disk = None;
    if let Some(c) = chaos {
        let mut plan = c.plan.clone();
        plan.seed = derive_seed(c.plan.seed, endpoint);
        stack =
            wrap(Arc::new(FaultStore::new(stack, plan, clock.clone())?.with_obs(&ep_obs)), "fault");
        if let Some(breaker) = c.policy.breaker {
            stack = wrap(
                Arc::new(BreakerStore::new(stack, breaker, clock.clone())?.with_obs(&ep_obs)),
                "breaker",
            );
        }
        if c.policy.verify_checksums {
            stack = wrap(Arc::new(IntegrityStore::new(stack).with_obs(&ep_obs)), "integrity");
        }
        let mut retry = RetryStore::new(stack, c.policy.retry, clock.clone())?;
        if let Some(hedge) = c.policy.hedge {
            retry = retry.with_hedging(hedge)?;
        }
        stack = wrap(Arc::new(retry.with_obs(&ep_obs)), "retry");
        cache_bytes = c.policy.cache_bytes;
        disk = Some(c.disk);
    }
    let mut tier = TierCache::new(stack, cache_bytes);
    if let Some(d) = disk {
        tier = tier.with_disk(d, endpoint, DISK_TIER_BYTES)?;
    }
    let tier = Arc::new(tier.with_obs(&ep_obs));
    let tier_store = wrap(Arc::clone(&tier) as Arc<dyn ObjectStore>, "tier");
    let admitted: Arc<dyn ObjectStore> = Arc::new(SchedStore::new(
        Arc::clone(&tier_store),
        Arc::clone(client.scheduler()),
        CLIENT_TENANT,
    ));
    client.add_endpoint(StorageEndpoint {
        name: endpoint.to_string(),
        kind,
        store: wrap(admitted, "sched"),
    });
    Ok(Stack { client, endpoint, tier, tier_store, tracer })
}
