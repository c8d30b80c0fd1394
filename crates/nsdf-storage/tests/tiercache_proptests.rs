//! Property tests for the two-tier persistent cache.
//!
//! Two invariants the shared-cache story rests on (the third, scan-resistant
//! admission, is checked against the cache's own ruling log in the crate's
//! unit tests, `tiercache::tests`):
//!
//! 1. **Content addressing is sound**: `hash_to_path` is deterministic,
//!    injective over distinct keys, yields storable keys, and fans out
//!    through exactly two fixed-width hex directory levels (bounded
//!    fan-out: ≤ 256 children per level).
//! 2. **Budgets hold everywhere**: a random get/put/delete driver never
//!    pushes RAM or disk residency past its byte budget at *any* point,
//!    and the lookup counters reconcile exactly
//!    (`lookups == ram_hits + disk_hits + wan_fetches`).

use nsdf_storage::{hash_to_path, validate_key, MemoryStore, ObjectStore, TierCache};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Deterministic pool key for index `i`.
fn pool_key(i: usize) -> String {
    format!("pool/obj-{i:03}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hash_to_path_is_injective_storable_and_bounded_fanout(
        ids in proptest::collection::vec((0u64..1_000_000_000_000, 1u8..4), 1..150),
    ) {
        let keys: BTreeSet<String> = ids
            .iter()
            .map(|&(id, depth)| {
                (0..depth).map(|d| format!("s{}-{id:x}", d)).collect::<Vec<_>>().join("/")
            })
            .collect();
        let mut seen: BTreeMap<String, String> = BTreeMap::new();
        for key in &keys {
            let path = hash_to_path("seal", key);
            prop_assert_eq!(&path, &hash_to_path("seal", key), "must be deterministic");
            prop_assert!(validate_key(&path).is_ok(), "shard path {} not storable", path);
            let segs: Vec<&str> = path.split('/').collect();
            prop_assert_eq!(segs.len(), 4, "path {} must be ns/xx/yy/leaf", path);
            prop_assert_eq!(segs[0], "seal");
            for level in [segs[1], segs[2]] {
                prop_assert_eq!(level.len(), 2, "fan-out dir {} must be 2 hex chars", level);
                prop_assert!(
                    level.bytes().all(|b| b.is_ascii_hexdigit()),
                    "fan-out dir {} must be hex (≤256 children per level)", level
                );
            }
            prop_assert!(segs[3].ends_with(".obj"));
            if let Some(other) = seen.insert(path.clone(), key.clone()) {
                prop_assert_eq!(other, key.clone(), "collision: two keys share shard {}", path);
            }
            // Namespaces are disjoint by construction.
            prop_assert!(hash_to_path("dataverse", key).starts_with("dataverse/"));
        }
        prop_assert_eq!(seen.len(), keys.len(), "hash_to_path must be injective");
    }

    #[test]
    fn budgets_hold_and_lookups_reconcile_under_random_ops(
        ram_budget in 200u64..2_000,
        disk_budget in 500u64..4_000,
        ops in proptest::collection::vec((0u8..4, 0usize..12, 1usize..400), 1..120),
    ) {
        let wan = Arc::new(MemoryStore::new());
        let disk: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let tier = TierCache::new(Arc::clone(&wan) as Arc<dyn ObjectStore>, ram_budget)
            .with_disk(disk, "ns", disk_budget)
            .unwrap();
        // Model of which keys currently exist, so reads always succeed.
        let mut live: BTreeSet<usize> = BTreeSet::new();
        for &(kind, idx, size) in &ops {
            let key = pool_key(idx);
            match kind {
                0 | 1 => {
                    // put (fresh or overwrite)
                    tier.put(&key, &vec![idx as u8; size]).unwrap();
                    live.insert(idx);
                }
                2 if live.contains(&idx) => {
                    tier.get(&key).unwrap();
                }
                _ => {
                    if live.remove(&idx) {
                        tier.delete(&key).unwrap();
                    }
                }
            }
            let s = tier.tier_stats();
            prop_assert!(
                s.ram_resident_bytes <= ram_budget,
                "RAM over budget: {} > {}", s.ram_resident_bytes, ram_budget
            );
            prop_assert!(
                s.disk_resident_bytes <= disk_budget,
                "disk over budget: {} > {}", s.disk_resident_bytes, disk_budget
            );
        }
        let s = tier.tier_stats();
        prop_assert_eq!(
            s.lookups,
            s.ram_hits + s.disk_hits + s.wan_fetches,
            "lookup counters must reconcile exactly"
        );
    }
}
