//! Chaos under contention: a multi-tenant fleet pushed through per-tenant
//! resilience stacks (fault injection -> breaker -> checksum -> retries
//! with hedging) over one shared WAN endpoint, admitted by the scheduler.
//! Every tenant's reads must be bitwise-equal to the fault-free oracle —
//! 20% injected faults, payload corruption, and a scripted outage shift
//! virtual time, never bytes — and every fault/retry/breaker/hedge
//! counter must attribute to the tenant whose stack absorbed it.

use nsdf::storage::sched::{digest_get_results, SchedOp, SchedRequest};
use nsdf::storage::{
    CloudStore, FailScope, FaultPlan, MemoryStore, NetworkProfile, ObjectStore, Priority,
    SchedConfig, Scheduler, TenantPolicy,
};
use nsdf::util::{derive_seed, MetricsSnapshot, Obs, SimClock};
use std::collections::BTreeMap;
use std::sync::Arc;

mod common;
use common::chaos_policy;

const TENANTS: u32 = 6;
const REQS_PER_TENANT: usize = 8;
const KEYS_PER_REQ: usize = 3;
const OBJECTS: usize = 24;
const SEED: u64 = 0xC4A05;

fn obj_key(i: usize) -> String {
    format!("chaos/obj-{i:02}")
}

fn seed_objects(mem: &MemoryStore) {
    for i in 0..OBJECTS {
        let fill = (derive_seed(SEED, &obj_key(i)) & 0xff) as u8;
        mem.put(&obj_key(i), &vec![fill; 512 + i * 17]).unwrap();
    }
}

/// The keys request `k` of tenant `t` reads — a fixed, deterministic set.
fn req_keys(t: u32, k: usize) -> Vec<String> {
    (0..KEYS_PER_REQ).map(|j| obj_key((t as usize * 5 + k * 3 + j) % OBJECTS)).collect()
}

/// Per-tenant resilience stack over the shared WAN endpoint, reporting
/// into that tenant's metrics scope. Tenant 0 additionally suffers a
/// scripted read outage; every tenant runs 20% faults + 5% corruption.
fn tenant_stack(t: u32, wan: Arc<CloudStore>, clock: SimClock, obs: &Obs) -> Arc<dyn ObjectStore> {
    let scoped = obs.scoped(&format!("t{t:02}"));
    let mut plan = FaultPlan::new(derive_seed(SEED, &format!("plan-{t}")))
        .with_scope(FailScope::Reads)
        .with_fault_rate(0.2)
        .with_corrupt_rate(0.05);
    if t == 0 {
        plan = plan.outage(2.0, 2.3);
    }
    chaos_policy(200).resilient(wan, plan, &clock, &scoped).unwrap()
}

/// One completion, reduced to (tenant, arrival_vns, errors, digest).
type CompletionRow = (u32, u64, u64, u64);

/// Build the contended chaos fleet, run it to drain, and return
/// (completions as (tenant, arrival, errors, digest), clock, metrics).
fn run_chaos_fleet() -> (Vec<CompletionRow>, u64, MetricsSnapshot) {
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let mem = Arc::new(MemoryStore::new());
    seed_objects(&mem);
    let wan = Arc::new(
        CloudStore::new(
            Arc::clone(&mem) as Arc<dyn ObjectStore>,
            NetworkProfile::private_seal(),
            clock.clone(),
            derive_seed(SEED, "wan"),
        )
        .with_obs(&obs),
    );
    let sched = Scheduler::new(clock.clone(), SchedConfig::default()).with_obs(&obs);
    for t in 0..TENANTS {
        sched.register_tenant(t, &format!("chaos-{t:02}"), TenantPolicy::new(5_000_000, 2_000_000));
        let stack = tenant_stack(t, Arc::clone(&wan), clock.clone(), &obs);
        for k in 0..REQS_PER_TENANT {
            let at_secs = 0.2 + t as f64 * 0.13 + k as f64 * 0.9;
            sched.script(
                (at_secs * 1e9) as u64,
                SchedRequest {
                    tenant: t,
                    class: if k % 4 == 3 { Priority::Bulk } else { Priority::Interactive },
                    op: SchedOp::Get { store: Arc::clone(&stack), keys: req_keys(t, k) },
                    est_bytes: 2048,
                },
            );
        }
    }
    sched.run_to_idle();
    let completions = sched
        .take_completions()
        .into_iter()
        .map(|c| (c.tenant, c.arrival_vns, c.errors, c.digest))
        .collect();
    (completions, clock.now_ns(), obs.snapshot())
}

#[test]
fn every_tenant_reads_bitwise_equal_the_fault_free_oracle() {
    // Oracle digests straight off the backing data, no WAN, no faults.
    let oracle_mem = MemoryStore::new();
    seed_objects(&oracle_mem);
    let mut oracle: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for t in 0..TENANTS {
        for k in 0..REQS_PER_TENANT {
            let at_secs = 0.2 + t as f64 * 0.13 + k as f64 * 0.9;
            let keys = req_keys(t, k);
            let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            let digest = digest_get_results(&oracle_mem.get_many(&refs));
            oracle.insert((t, (at_secs * 1e9) as u64), digest);
        }
    }

    let (completions, _, snap) = run_chaos_fleet();
    assert_eq!(completions.len(), TENANTS as usize * REQS_PER_TENANT);
    for (tenant, arrival, errors, digest) in &completions {
        assert_eq!(*errors, 0, "tenant {tenant} request at {arrival} leaked a fault");
        let want = oracle.get(&(*tenant, *arrival)).expect("scripted request");
        assert_eq!(digest, want, "tenant {tenant} request at {arrival} read different bytes");
    }

    // The chaos was real — and attributed to the tenant that absorbed it.
    let counter = |name: &str| snap.counter(name);
    let mut injected_total = 0;
    let mut retries_total = 0;
    for t in 0..TENANTS {
        let injected = counter(&format!("t{t:02}.fault.injected"));
        assert!(injected > 0, "tenant {t}'s plan injected no faults");
        injected_total += injected;
        retries_total += counter(&format!("t{t:02}.retry.retries"));
        assert_eq!(
            counter(&format!("t{t:02}.breaker.fast_failures")),
            0,
            "tenant {t}'s breaker must absorb chaos without fast-failing reads"
        );
    }
    // Retries and hedged backup waves together absorb every injected
    // fault (a hedge win recovers a fault without counting as a retry).
    assert!(injected_total > 0 && retries_total > 0, "chaos was injected and retried away");
    assert!(counter("t00.fault.outage_failures") > 0, "the scripted outage actually bit");
    let corrupt_rejections: u64 =
        (0..TENANTS).map(|t| counter(&format!("t{t:02}.integrity.rejected"))).sum();
    assert!(corrupt_rejections > 0, "checksum layer caught injected corruption");
    let hedge_waves: u64 =
        (0..TENANTS).map(|t| counter(&format!("t{t:02}.retry.hedge_waves"))).sum();
    assert!(hedge_waves > 0, "hedged backup waves fired under chaos");
}

#[test]
fn per_tenant_counters_sum_to_the_cross_scope_totals() {
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let mem = Arc::new(MemoryStore::new());
    seed_objects(&mem);
    let wan = Arc::new(CloudStore::new(
        Arc::clone(&mem) as Arc<dyn ObjectStore>,
        NetworkProfile::private_seal(),
        clock.clone(),
        derive_seed(SEED, "wan"),
    ));
    for t in 0..3u32 {
        let stack = tenant_stack(t, Arc::clone(&wan), clock.clone(), &obs);
        for k in 0..4 {
            let keys = req_keys(t, k);
            let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            for r in stack.get_many(&refs) {
                r.unwrap();
            }
        }
    }
    let snap = obs.snapshot();
    for name in ["fault.injected", "retry.retries", "breaker.opened", "integrity.verified"] {
        let total = snap.sum_counter_across_scopes(name);
        let manual: u64 = (0..3).map(|t| snap.counter(&format!("t{t:02}.{name}"))).sum();
        assert_eq!(total, manual, "{name}: cross-scope sum must match per-tenant counters");
    }
    assert!(snap.sum_counter_across_scopes("integrity.verified") > 0);
}

#[test]
fn chaos_fleet_replays_byte_identically() {
    let (c1, clock1, metrics1) = run_chaos_fleet();
    let (c2, clock2, metrics2) = run_chaos_fleet();
    assert_eq!(c1, c2, "completion stream must replay exactly");
    assert_eq!(clock1, clock2, "virtual clock must land on the same nanosecond");
    assert_eq!(metrics1.to_json(), metrics2.to_json(), "metrics snapshots must be byte-identical");
}

// ---------------------------------------------------------------------------
// Chaos with the shared persistent tier in front of each tenant's stack
// ---------------------------------------------------------------------------

use nsdf::storage::TierCache;

/// Per-tenant two-tier cache over that tenant's resilience stack, all
/// sharing one disk store under one content namespace. The tier sits
/// *above* retry + checksum, so only verified payloads are persisted.
fn tiered_tenant_stack(
    t: u32,
    wan: Arc<CloudStore>,
    disk: &Arc<dyn ObjectStore>,
    clock: SimClock,
    obs: &Obs,
) -> Arc<TierCache> {
    let stack = tenant_stack(t, wan, clock, obs);
    Arc::new(
        TierCache::new(stack, 4 << 20)
            .with_disk(Arc::clone(disk), "seal", 64 << 20)
            .unwrap()
            .with_obs(&obs.scoped(&format!("t{t:02}"))),
    )
}

/// Run the scripted chaos fleet with every tenant fronted by a tier cache
/// over `disk`, returning (completions, clock_ns, metrics, tier handles).
#[allow(clippy::type_complexity)]
fn run_tiered_chaos_fleet(
    disk: &Arc<dyn ObjectStore>,
) -> (Vec<CompletionRow>, u64, MetricsSnapshot, Vec<Arc<TierCache>>) {
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let mem = Arc::new(MemoryStore::new());
    seed_objects(&mem);
    let wan = Arc::new(
        CloudStore::new(
            Arc::clone(&mem) as Arc<dyn ObjectStore>,
            NetworkProfile::private_seal(),
            clock.clone(),
            derive_seed(SEED, "wan"),
        )
        .with_obs(&obs),
    );
    let sched = Scheduler::new(clock.clone(), SchedConfig::default()).with_obs(&obs);
    let mut tiers = Vec::new();
    for t in 0..TENANTS {
        sched.register_tenant(t, &format!("chaos-{t:02}"), TenantPolicy::new(5_000_000, 2_000_000));
        let tier = tiered_tenant_stack(t, Arc::clone(&wan), disk, clock.clone(), &obs);
        tiers.push(Arc::clone(&tier));
        for k in 0..REQS_PER_TENANT {
            let at_secs = 0.2 + t as f64 * 0.13 + k as f64 * 0.9;
            sched.script(
                (at_secs * 1e9) as u64,
                SchedRequest {
                    tenant: t,
                    class: if k % 4 == 3 { Priority::Bulk } else { Priority::Interactive },
                    op: SchedOp::Get {
                        store: Arc::clone(&tier) as Arc<dyn ObjectStore>,
                        keys: req_keys(t, k),
                    },
                    est_bytes: 2048,
                },
            );
        }
    }
    sched.run_to_idle();
    let completions = sched
        .take_completions()
        .into_iter()
        .map(|c| (c.tenant, c.arrival_vns, c.errors, c.digest))
        .collect();
    (completions, clock.now_ns(), obs.snapshot(), tiers)
}

#[test]
fn tiered_chaos_fleet_matches_the_oracle_and_persists_only_verified_bytes() {
    // Oracle digests straight off the backing data, no WAN, no faults.
    let oracle_mem = MemoryStore::new();
    seed_objects(&oracle_mem);
    let mut oracle: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for t in 0..TENANTS {
        for k in 0..REQS_PER_TENANT {
            let at_secs = 0.2 + t as f64 * 0.13 + k as f64 * 0.9;
            let keys = req_keys(t, k);
            let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            let digest = digest_get_results(&oracle_mem.get_many(&refs));
            oracle.insert((t, (at_secs * 1e9) as u64), digest);
        }
    }

    let disk: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let (completions, _, snap, tiers) = run_tiered_chaos_fleet(&disk);
    assert_eq!(completions.len(), TENANTS as usize * REQS_PER_TENANT);
    for (tenant, arrival, errors, digest) in &completions {
        assert_eq!(*errors, 0, "tenant {tenant} request at {arrival} leaked a fault");
        let want = oracle.get(&(*tenant, *arrival)).expect("scripted request");
        assert_eq!(digest, want, "tenant {tenant} request at {arrival} read different bytes");
    }
    // The chaos was real, yet the tier above it stayed clean: corruption
    // is absorbed below the checksum layer, so nothing was quarantined.
    let injected: u64 =
        (0..TENANTS).map(|t| snap.counter(&format!("t{t:02}.fault.injected"))).sum();
    assert!(injected > 0, "chaos plans injected no faults");
    for (t, tier) in tiers.iter().enumerate() {
        let s = tier.tier_stats();
        assert_eq!(s.quarantined, 0, "tenant {t}: unverified bytes reached the disk tier");
        assert_eq!(s.lookups, s.ram_hits + s.disk_hits + s.wan_fetches, "tenant {t} counters");
    }

    // Warm pass: fresh tier caches (fresh RAM, "restarted" tenants) over
    // the same disk serve every scripted key bitwise-correct without the
    // WAN, the faults, or the retries — zero reads below the tier.
    let oracle_clock = SimClock::new();
    let oracle_obs = Obs::new(oracle_clock.clone());
    for t in 0..TENANTS {
        let warm = TierCache::new(Arc::new(MemoryStore::new()), 4 << 20)
            .with_disk(Arc::clone(&disk), "seal", 64 << 20)
            .unwrap()
            .with_obs(&oracle_obs);
        for k in 0..REQS_PER_TENANT {
            for key in req_keys(t, k) {
                assert_eq!(
                    warm.get(&key).unwrap(),
                    oracle_mem.get(&key).unwrap(),
                    "warm tier read of {key} differs from the fault-free oracle"
                );
            }
        }
        assert_eq!(warm.tier_stats().wan_fetches, 0, "tenant {t}: warm pass touched the origin");
    }
}

#[test]
fn tiered_chaos_fleet_replays_byte_identically() {
    let d1: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let d2: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let (c1, clock1, metrics1, _) = run_tiered_chaos_fleet(&d1);
    let (c2, clock2, metrics2, _) = run_tiered_chaos_fleet(&d2);
    assert_eq!(c1, c2, "completion stream must replay exactly");
    assert_eq!(clock1, clock2, "virtual clock must land on the same nanosecond");
    assert_eq!(metrics1.to_json(), metrics2.to_json(), "metrics snapshots must be byte-identical");
}
