//! Property tests for the shared-WAN admission scheduler.
//!
//! Two invariants the multi-tenant QoS story rests on (the third, that a
//! token bucket never over-grants, is a property test in `sched`'s unit
//! tests):
//!
//! 1. **Total, stable ordering**: grant order is a pure function of the
//!    submitted sequence (rerun-identical), and same-tenant same-class
//!    requests are served FIFO in submission order.
//! 2. **Starvation-freedom**: with tier quotas in force, every request's
//!    grant index is bounded by a closed-form function of its queue
//!    position, its tier's tenant count, and the quota — no mix of
//!    competing tenants can push a ready request back indefinitely.

use nsdf_storage::sched::{SchedOp, SchedRequest};
use nsdf_storage::{MemoryStore, ObjectStore, Priority, SchedConfig, Scheduler};
use nsdf_util::SimClock;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One generated request: (tenant, class).
type ReqSpec = (u32, Priority);

fn class_strategy() -> impl Strategy<Value = Priority> {
    (0usize..3).prop_map(|i| [Priority::Interactive, Priority::Prefetch, Priority::Bulk][i])
}

/// Script every request at virtual time 0 (all unthrottled tenants),
/// drive to idle, and return completions in grant order.
fn run_mix(cfg: SchedConfig, reqs: &[ReqSpec]) -> Vec<(u64, u32, Priority)> {
    let sched = Scheduler::new(SimClock::new(), cfg);
    let mem = Arc::new(MemoryStore::new());
    mem.put("ns/k", b"payload").unwrap();
    let store: Arc<dyn ObjectStore> = mem;
    for &(tenant, class) in reqs {
        let op = SchedOp::Get { store: Arc::clone(&store), keys: vec!["ns/k".into()] };
        sched.script(0, SchedRequest { tenant, class, op, est_bytes: 0 });
    }
    sched.run_to_idle();
    sched.take_completions().into_iter().map(|c| (c.id, c.tenant, c.class)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grant_order_is_stable_and_rerun_identical(
        reqs in proptest::collection::vec((0u32..5, class_strategy()), 1..80),
    ) {
        let first = run_mix(SchedConfig::default(), &reqs);
        let second = run_mix(SchedConfig::default(), &reqs);
        prop_assert_eq!(&first, &second, "grant order must be a pure function of input");
        prop_assert_eq!(first.len(), reqs.len(), "every request is granted exactly once");
        // Same-tenant same-class requests are FIFO: ids (submission
        // order) must appear in ascending order within each group.
        let mut last_id: BTreeMap<(u32, Priority), u64> = BTreeMap::new();
        for &(id, tenant, class) in &first {
            if let Some(&prev) = last_id.get(&(tenant, class)) {
                prop_assert!(
                    prev < id,
                    "tenant {} class {:?}: id {} granted after {}",
                    tenant, class, id, prev
                );
            }
            last_id.insert((tenant, class), id);
        }
        // The QoS-off baseline is one global FIFO over submission order.
        let fifo = run_mix(SchedConfig::fifo(), &reqs);
        for w in fifo.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "fifo config must grant in submission order");
        }
    }

    #[test]
    fn starvation_freedom_bounds_every_grant_index(
        reqs in proptest::collection::vec((0u32..6, class_strategy()), 1..90),
    ) {
        let cfg = SchedConfig::default();
        // Queue position of each submitted request within its
        // (tenant, tier) FIFO, and the tenant population per tier.
        let mut pos_in_queue: Vec<usize> = Vec::with_capacity(reqs.len());
        let mut counts: BTreeMap<(u32, usize), usize> = BTreeMap::new();
        let mut tier_tenants: [BTreeSet<u32>; 3] = Default::default();
        for &(tenant, class) in &reqs {
            let tier = class as usize;
            let n = counts.entry((tenant, tier)).or_insert(0);
            pos_in_queue.push(*n);
            *n += 1;
            tier_tenants[tier].insert(tenant);
        }
        let completions = run_mix(cfg, &reqs);
        for (grant_idx, &(id, _tenant, class)) in completions.iter().enumerate() {
            let tier = class as usize;
            let pos = pos_in_queue[id as usize] as u64;
            let t_count = tier_tenants[tier].len() as u64;
            let quota = cfg.tier_quota[tier] as u64;
            // Within one quota cycle the tier receives up to `quota`
            // grants round-robin over its tenants, and a full cycle is at
            // most sum(tier_quota) grants; +1 cycle covers the partially
            // spent cycle the request arrives into.
            let cycles = (pos + 1) * t_count.div_ceil(quota) + 1;
            let per_cycle: u64 = cfg.tier_quota.iter().map(|&q| q as u64).sum();
            let bound = cycles * per_cycle;
            prop_assert!(
                (grant_idx as u64) < bound,
                "request id {} (tier {} pos {} of {} tenants) granted at index {} >= bound {}",
                id, tier, pos, t_count, grant_idx, bound
            );
        }
    }
}
