//! `ObjectStore::delete_many` contract, table-driven over every
//! implementation in the crate: per-key results in input order, a missing
//! key is an error that never aborts its neighbours, an empty batch is a
//! no-op, and the batch leaves the store — and reports — exactly what the
//! same keys deleted one `delete` at a time do on a twin store.

use nsdf_storage::{
    BreakerPolicy, BreakerStore, CloudStore, CrashStore, FaultPlan, FaultStore, GateStore,
    IntegrityStore, LocalStore, MemoryStore, NetworkProfile, ObjectStore, RetryPolicy, RetryStore,
    SchedConfig, SchedStore, Scheduler, TierCache,
};
use nsdf_util::{NsdfError, SimClock};
use std::sync::Arc;

type Build = fn(&str) -> Arc<dyn ObjectStore>;

fn mem() -> Arc<dyn ObjectStore> {
    Arc::new(MemoryStore::new())
}

/// Every implementation, fault-free, over a fresh backing store. `tag`
/// keeps the two twins of the filesystem backend apart.
const IMPLS: [(&str, Build); 11] = [
    ("MemoryStore", |_| mem()),
    ("LocalStore", |tag| {
        let dir =
            std::env::temp_dir().join(format!("nsdf-delete-many-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(LocalStore::open(dir).unwrap())
    }),
    ("CloudStore", |_| {
        Arc::new(CloudStore::new(mem(), NetworkProfile::private_seal(), SimClock::new(), 7))
    }),
    ("SchedStore", |_| {
        let sched = Arc::new(Scheduler::new(SimClock::new(), SchedConfig::default()));
        Arc::new(SchedStore::new(mem(), sched, 1))
    }),
    ("TierCache", |_| {
        Arc::new(TierCache::new(mem(), 1 << 20).with_disk(mem(), "t", 1 << 20).unwrap())
    }),
    ("FaultStore", |_| {
        Arc::new(FaultStore::new(mem(), FaultPlan::new(3), SimClock::new()).unwrap())
    }),
    ("RetryStore", |_| {
        Arc::new(RetryStore::new(mem(), RetryPolicy::default(), SimClock::new()).unwrap())
    }),
    ("BreakerStore", |_| {
        Arc::new(BreakerStore::new(mem(), BreakerPolicy::default(), SimClock::new()).unwrap())
    }),
    ("IntegrityStore", |_| Arc::new(IntegrityStore::new(mem()))),
    ("GateStore", |_| Arc::new(GateStore::new(mem(), "never-gated/"))),
    ("CrashStore", |_| Arc::new(CrashStore::new(mem()))),
];

/// A result reduced to what the contract fixes: success, or which error.
fn verdict(r: &Result<(), NsdfError>) -> &'static str {
    match r {
        Ok(()) => "ok",
        Err(e) if e.is_not_found() => "not-found",
        Err(_) => "other-error",
    }
}

fn keys_left(store: &dyn ObjectStore) -> Vec<String> {
    store.list("").unwrap().into_iter().map(|m| m.key).collect()
}

#[test]
fn delete_many_contract_holds_for_every_implementation() {
    let seeded = ["gc/a", "gc/b", "gc/c", "keep/d", "keep/e"];
    let batch = ["gc/b", "gc/missing-1", "gc/a", "keep/e", "gc/missing-2", "gc/c"];
    for (name, build) in IMPLS {
        let (wave, twin) = (build("wave"), build("twin"));
        for store in [&wave, &twin] {
            for k in seeded {
                store.put(k, k.as_bytes()).unwrap();
                store.get(k).unwrap(); // warm any cache in the stack
            }
        }

        // Empty batch: no results, nothing removed.
        assert!(wave.delete_many(&[]).is_empty(), "{name}: empty batch");
        assert_eq!(keys_left(&*wave), seeded, "{name}: empty batch removed something");

        // One wave against N single deletes on the twin.
        let got: Vec<&str> = wave.delete_many(&batch).iter().map(verdict).collect();
        let want: Vec<&str> = batch.iter().map(|k| verdict(&twin.delete(k))).collect();
        assert_eq!(got, want, "{name}: wave differs from single deletes");
        assert_eq!(
            got,
            ["ok", "not-found", "ok", "ok", "not-found", "ok"],
            "{name}: input order, and a missing key does not abort its neighbours"
        );
        assert_eq!(keys_left(&*wave), ["keep/d"], "{name}: what the wave left");
        assert_eq!(keys_left(&*wave), keys_left(&*twin), "{name}: twin listing");
        for k in batch {
            assert!(wave.get(k).unwrap_err().is_not_found(), "{name}: {k} still readable");
        }
        assert_eq!(wave.get("keep/d").unwrap(), b"keep/d", "{name}: bystander damaged");
    }
}
