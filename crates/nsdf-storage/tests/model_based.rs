//! Model-based property testing of the storage stack: any composition of
//! wrappers (tier cache, WAN, retry-over-faults) must behave observably like a
//! plain in-memory map under arbitrary operation interleavings.

use nsdf_storage::{
    CloudStore, FaultPlan, FaultStore, MemoryStore, NetworkProfile, ObjectStore, RetryPolicy,
    RetryStore, TierCache,
};
use nsdf_util::SimClock;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Get(u8),
    GetRange(u8, u8, u8),
    Head(u8),
    Delete(u8),
    DeleteMany(Vec<u8>),
    List,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..10, proptest::collection::vec(any::<u8>(), 0..100)).prop_map(|(k, v)| Op::Put(k, v)),
        (0u8..10).prop_map(Op::Get),
        (0u8..10, any::<u8>(), any::<u8>()).prop_map(|(k, o, l)| Op::GetRange(k, o, l)),
        (0u8..10).prop_map(Op::Head),
        (0u8..10).prop_map(Op::Delete),
        proptest::collection::vec(0u8..10, 0..6).prop_map(Op::DeleteMany),
        Just(Op::List),
    ]
}

fn key(k: u8) -> String {
    format!("ns{}/obj-{k:02}", k % 2)
}

fn check_store(store: &dyn ObjectStore, ops: &[Op]) {
    let mut model: HashMap<String, Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            Op::Put(k, data) => {
                store.put(&key(*k), data).unwrap();
                model.insert(key(*k), data.clone());
            }
            Op::Get(k) => match model.get(&key(*k)) {
                Some(want) => assert_eq!(&store.get(&key(*k)).unwrap(), want),
                None => assert!(store.get(&key(*k)).unwrap_err().is_not_found()),
            },
            Op::GetRange(k, o, l) => {
                let got = store.get_range(&key(*k), *o as u64, *l as u64);
                match model.get(&key(*k)) {
                    None => assert!(got.unwrap_err().is_not_found()),
                    Some(want) => {
                        let end = *o as usize + *l as usize;
                        if end <= want.len() {
                            assert_eq!(got.unwrap(), want[*o as usize..end].to_vec());
                        } else {
                            assert!(got.is_err());
                        }
                    }
                }
            }
            Op::Head(k) => match model.get(&key(*k)) {
                Some(want) => {
                    assert_eq!(store.head(&key(*k)).unwrap().size, want.len() as u64)
                }
                None => assert!(store.head(&key(*k)).unwrap_err().is_not_found()),
            },
            Op::Delete(k) => {
                let got = store.delete(&key(*k));
                if model.remove(&key(*k)).is_some() {
                    got.unwrap();
                } else {
                    assert!(got.unwrap_err().is_not_found());
                }
            }
            Op::DeleteMany(ks) => {
                // Distinct keys only: which copy of a repeated key is
                // reported missing is not part of the contract.
                let mut ks = ks.clone();
                ks.sort_unstable();
                ks.dedup();
                let keys: Vec<String> = ks.iter().map(|k| key(*k)).collect();
                let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
                let got = store.delete_many(&refs);
                assert_eq!(got.len(), keys.len());
                for (k, r) in keys.iter().zip(got) {
                    if model.remove(k).is_some() {
                        r.unwrap();
                    } else {
                        assert!(r.unwrap_err().is_not_found());
                    }
                }
            }
            Op::List => {
                let mut got: Vec<String> =
                    store.list("").unwrap().into_iter().map(|m| m.key).collect();
                got.sort();
                let mut want: Vec<String> = model.keys().cloned().collect();
                want.sort();
                assert_eq!(got, want);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ram_tiercache_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        // A tiny cache maximises eviction churn.
        let store = TierCache::new(Arc::new(MemoryStore::new()), 128);
        check_store(&store, &ops);
    }

    #[test]
    fn two_tier_tiercache_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        // Tiny budgets on both tiers: RAM churns, shards are evicted, and
        // the larger payloads fit neither tier (a 38-byte envelope leaves
        // 58 payload bytes per shard).
        let store = TierCache::new(Arc::new(MemoryStore::new()), 64)
            .with_disk(Arc::new(MemoryStore::new()), "t", 96)
            .unwrap();
        check_store(&store, &ops);
    }

    #[test]
    fn wan_store_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let store = CloudStore::new(
            Arc::new(MemoryStore::new()),
            NetworkProfile::public_dataverse(),
            SimClock::new(),
            5,
        );
        check_store(&store, &ops);
    }

    #[test]
    fn retry_over_flaky_matches_model(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        fail_rate in 0.0f64..0.4,
    ) {
        let clock = SimClock::new();
        let plan = FaultPlan::new(9).with_fault_rate(fail_rate);
        let flaky =
            Arc::new(FaultStore::new(Arc::new(MemoryStore::new()), plan, clock.clone()).unwrap());
        let store = RetryStore::new(
            flaky,
            RetryPolicy { max_attempts: 30, initial_backoff_secs: 0.001, multiplier: 1.5 },
            clock,
        )
        .unwrap();
        check_store(&store, &ops);
    }

    #[test]
    fn full_stack_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        // tier cache -> retry -> fault -> WAN -> memory: the whole sandwich.
        let clock = SimClock::new();
        let wan = Arc::new(CloudStore::new(
            Arc::new(MemoryStore::new()),
            NetworkProfile::private_seal(),
            clock.clone(),
            2,
        ));
        let plan = FaultPlan::new(3).with_fault_rate(0.15);
        let flaky = Arc::new(FaultStore::new(wan, plan, clock.clone()).unwrap());
        let retry = Arc::new(
            RetryStore::new(
                flaky,
                RetryPolicy { max_attempts: 25, initial_backoff_secs: 0.001, multiplier: 1.5 },
                clock,
            )
            .unwrap(),
        );
        let store = TierCache::new(retry, 4096);
        check_store(&store, &ops);
    }
}
