//! What the chaos differential suites share: the one resilience policy
//! they run and the stack it builds.
#![allow(dead_code)] // each suite uses its own subset

use nsdf::storage::{
    BreakerPolicy, CloudStore, EndpointPolicy, FaultPlan, HedgePolicy, MemoryStore, NetworkProfile,
    ObjectStore, RetryPolicy,
};
use nsdf::util::{Obs, SimClock};
use std::sync::Arc;

/// Eight fast retries with two 5 ms hedge waves, checksum verification, and
/// a breaker that watches the chaos but opens only after
/// `breaker_failures` consecutive failures — a differential suite needs
/// every read to succeed.
pub fn chaos_policy(breaker_failures: u32) -> EndpointPolicy {
    EndpointPolicy {
        retry: RetryPolicy { max_attempts: 8, initial_backoff_secs: 0.01, multiplier: 2.0 },
        hedge: Some(HedgePolicy { delay_secs: 0.005, max_hedges: 2 }),
        breaker: Some(BreakerPolicy {
            failure_threshold: breaker_failures,
            cooldown_secs: 0.05,
            success_threshold: 1,
        }),
        ..EndpointPolicy::default()
    }
}

/// The full resilience stack over a WAN-simulated view of `mem`.
pub fn chaos_stack(
    mem: Arc<MemoryStore>,
    profile: NetworkProfile,
    plan: FaultPlan,
    clock: SimClock,
    obs: &Obs,
) -> Arc<dyn ObjectStore> {
    let wan_seed = plan.seed ^ 0x57A6_57A6_57A6_57A6;
    let wan = Arc::new(CloudStore::new(mem, profile, clock.clone(), wan_seed).with_obs(obs));
    // Tolerates a sustained 20% fault rate without opening spuriously
    // (24 consecutive failures at p=0.25 is ~1e-15).
    chaos_policy(24).resilient(wan, plan, &clock, obs).unwrap()
}
