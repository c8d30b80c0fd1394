//! The batch contract of `ObjectStore` (`get_many`, `put_many`, `head_many`,
//! `delete_many`), table-driven over every implementation in the crate:
//! per-key results in input order, a failed or missing key is an error that
//! never aborts its neighbours, an empty batch is a no-op, and the batch
//! leaves the store — and reports — exactly what the same keys handled one
//! single call at a time do on a twin store. For the production wrappers a
//! batch also *costs* what the bare WAN's batch costs: one network episode,
//! not one per key.

use nsdf_storage::{
    BreakerPolicy, BreakerStore, CloudStore, CrashStore, FaultPlan, FaultStore, GateStore,
    IntegrityStore, LocalStore, MemoryStore, NetworkProfile, ObjectMeta, ObjectStore, RetryPolicy,
    RetryStore, SchedConfig, SchedStore, Scheduler, TierCache,
};
use nsdf_util::{seal, NsdfError, Obs, SimClock};
use std::sync::Arc;

fn mem() -> Arc<dyn ObjectStore> {
    Arc::new(MemoryStore::new())
}

type Wrap = fn(Arc<dyn ObjectStore>, &SimClock) -> Arc<dyn ObjectStore>;

/// The six production wrappers, fault-free, over `inner` on `clock`.
const WRAPPERS: [(&str, Wrap); 6] = [
    ("SchedStore", |inner, clock| {
        let sched = Arc::new(Scheduler::new(clock.clone(), SchedConfig::default()));
        Arc::new(SchedStore::new(inner, sched, 1))
    }),
    ("TierCache", |inner, _| {
        Arc::new(TierCache::new(inner, 1 << 20).with_disk(mem(), "t", 1 << 20).unwrap())
    }),
    ("RetryStore", |inner, clock| {
        Arc::new(RetryStore::new(inner, RetryPolicy::default(), clock.clone()).unwrap())
    }),
    ("IntegrityStore", |inner, _| Arc::new(IntegrityStore::new(inner))),
    ("BreakerStore", |inner, clock| {
        Arc::new(BreakerStore::new(inner, BreakerPolicy::default(), clock.clone()).unwrap())
    }),
    ("FaultStore", |inner, clock| {
        Arc::new(FaultStore::new(inner, FaultPlan::new(3), clock.clone()).unwrap())
    }),
];

/// Every implementation — three backends, the six wrappers and the two
/// testkit stores — over a fresh backing store. `tag` keeps the two twins of
/// the filesystem backend apart.
fn every_store(tag: &str) -> Vec<(&'static str, Arc<dyn ObjectStore>)> {
    let dir =
        std::env::temp_dir().join(format!("nsdf-batch-contract-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = SimClock::new();
    let mut stores: Vec<(&'static str, Arc<dyn ObjectStore>)> = vec![
        ("MemoryStore", mem()),
        ("LocalStore", Arc::new(LocalStore::open(dir).unwrap())),
        (
            "CloudStore",
            Arc::new(CloudStore::new(mem(), NetworkProfile::private_seal(), clock.clone(), 7)),
        ),
        ("GateStore", Arc::new(GateStore::new(mem(), "never-gated/"))),
        ("CrashStore", Arc::new(CrashStore::new(mem()))),
    ];
    stores.extend(WRAPPERS.iter().map(|(name, wrap)| (*name, wrap(mem(), &clock))));
    stores
}

/// The same store list twice, paired by name.
fn twins(
    tag: &str,
) -> impl Iterator<Item = (&'static str, Arc<dyn ObjectStore>, Arc<dyn ObjectStore>)> {
    let twin_tag = format!("{tag}-twin");
    every_store(tag).into_iter().zip(every_store(&twin_tag)).map(|((name, a), (_, b))| (name, a, b))
}

/// A result reduced to what the contract fixes: success, or which error.
fn verdict<T>(r: &Result<T, NsdfError>) -> &'static str {
    match r {
        Ok(_) => "ok",
        Err(e) if e.is_not_found() => "not-found",
        Err(_) => "other-error",
    }
}

/// What a `put` / `head` reports about an object, minus the store-local
/// modification stamp.
fn meta_facts(r: Result<ObjectMeta, NsdfError>) -> Result<(String, u64, u64), &'static str> {
    r.map(|m| (m.key, m.size, m.checksum)).map_err(|e| verdict::<()>(&Err(e)))
}

fn oks<T>(results: Vec<Result<T, NsdfError>>) -> usize {
    results.iter().filter(|r| r.is_ok()).count()
}

fn keys_left(store: &dyn ObjectStore) -> Vec<String> {
    store.list("").unwrap().into_iter().map(|m| m.key).collect()
}

#[test]
fn delete_many_contract_holds_for_every_implementation() {
    let seeded = ["gc/a", "gc/b", "gc/c", "keep/d", "keep/e"];
    let batch = ["gc/b", "gc/missing-1", "gc/a", "keep/e", "gc/missing-2", "gc/c"];
    for (name, wave, twin) in twins("wave") {
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

#[test]
fn read_and_write_batches_match_single_calls_for_every_implementation() {
    let seeded = ["b/1", "b/2", "b/3"];
    // An invalid key is refused by every backend; a fresh one is stored.
    let puts: [(&str, &[u8]); 4] =
        [("b/2", b"replaced"), ("bad//key", b"x"), ("b/new", b"fresh"), ("b/1", b"")];
    let reads = ["b/3", "b/missing", "b/1", "b/new", "bad//key", "b/2"];
    for (name, wave, twin) in twins("wave-rw") {
        for store in [&wave, &twin] {
            for k in seeded {
                store.put(k, k.as_bytes()).unwrap();
            }
        }

        // Empty batches: no results, nothing stored.
        assert!(wave.put_many(&[]).is_empty(), "{name}: empty put_many");
        assert!(wave.get_many(&[]).is_empty(), "{name}: empty get_many");
        assert!(wave.head_many(&[]).is_empty(), "{name}: empty head_many");
        assert_eq!(keys_left(&*wave), seeded, "{name}: an empty batch changed the store");

        let got: Vec<_> = wave.put_many(&puts).into_iter().map(meta_facts).collect();
        let want: Vec<_> = puts.iter().map(|(k, d)| meta_facts(twin.put(k, d))).collect();
        assert_eq!(got, want, "{name}: put_many differs from single puts");
        assert_eq!(got[1], Err("other-error"), "{name}: the invalid key was not refused");
        assert!(got[0].is_ok() && got[2].is_ok() && got[3].is_ok(), "{name}: neighbours aborted");
        assert_eq!(keys_left(&*wave), keys_left(&*twin), "{name}: listing after put_many");

        let got = wave.get_many(&reads);
        let want: Vec<_> = reads.iter().map(|k| twin.get(k)).collect();
        for ((k, g), w) in reads.iter().zip(&got).zip(&want) {
            assert_eq!(verdict(g), verdict(w), "{name}: get_many verdict for {k}");
            assert_eq!(g.as_ref().ok(), w.as_ref().ok(), "{name}: get_many payload for {k}");
        }
        let verdicts: Vec<_> = got.iter().map(verdict).collect();
        assert_eq!(
            verdicts[..4],
            ["ok", "not-found", "ok", "ok"],
            "{name}: input order, and a missing key does not abort its neighbours"
        );
        assert_eq!(got[3].as_ref().unwrap(), b"fresh", "{name}: put_many payload read back");
        assert_eq!(got[5].as_ref().unwrap(), b"replaced", "{name}: put_many replaces");

        let got: Vec<_> = wave.head_many(&reads).into_iter().map(meta_facts).collect();
        let want: Vec<_> = reads.iter().map(|k| meta_facts(twin.head(k))).collect();
        assert_eq!(got, want, "{name}: head_many differs from single heads");
        assert_eq!(got[1], Err("not-found"), "{name}: head of a missing key");
        assert_eq!(
            got[5],
            Ok(("b/2".to_string(), 8, nsdf_util::checksum64(b"replaced"))),
            "{name}"
        );
    }
}

/// `GateStore` and `CrashStore` are left out on purpose: they are testkit
/// stores that script a park or a crash at the n-th *single* call and so
/// forward read and write batches key by key; the suites using them assert
/// on stored state and ordering, never on virtual time.
#[test]
fn a_batch_through_a_production_wrapper_costs_what_the_bare_wan_batch_costs() {
    // A seeded WAN endpoint over 20 stored objects, on its own clock.
    let endpoint = || {
        let backing = MemoryStore::new();
        for i in 0..20 {
            backing.put(&format!("o/{i:02}"), &vec![i as u8; 4096 + i * 100]).unwrap();
        }
        let clock = SimClock::new();
        let wan: Arc<dyn ObjectStore> = Arc::new(CloudStore::new(
            Arc::new(backing),
            NetworkProfile::public_dataverse(),
            clock.clone(),
            11,
        ));
        (wan, clock)
    };
    let stored: Vec<String> = (0..20).map(|i| format!("o/{i:02}")).collect();
    let mut keys: Vec<&str> = stored.iter().map(|k| k.as_str()).collect();
    keys.insert(7, "o/missing"); // costs nothing on either side
    let payload = vec![9u8; 2048];
    let fresh: Vec<String> = (0..20).map(|i| format!("n/{i:02}")).collect();
    let items: Vec<(&str, &[u8])> = fresh.iter().map(|k| (k.as_str(), &payload[..])).collect();

    for (name, wrap) in WRAPPERS {
        let (wan, clock) = endpoint();
        let wrapped = wrap(wan, &clock);
        let (bare, bare_clock) = endpoint();
        // Same seed, same call sequence: the two endpoints draw the same
        // jitter, so one episode on each side advances both clocks alike,
        // while N single calls would draw N times.
        let step = |what: &str, ok: usize, call: &dyn Fn(&dyn ObjectStore) -> usize| {
            let (t, bare_t) = (clock.now_ns(), bare_clock.now_ns());
            assert_eq!(call(&*wrapped), ok, "{name}: {what} successes");
            assert_eq!(call(&*bare), ok, "bare WAN: {what} successes");
            if what == "get_many" && name == "IntegrityStore" {
                // A fetched batch is verified against one `head_many` wave:
                // two episodes instead of one, still not one per key.
                bare.head_many(&keys);
            }
            assert!(clock.now_ns() > t, "{name}: {what} must cross the WAN");
            assert_eq!(
                clock.now_ns() - t,
                bare_clock.now_ns() - bare_t,
                "{name}: {what} did not cost what the bare WAN batch costs"
            );
        };
        step("get_many", 20, &|s| oks(s.get_many(&keys)));
        step("head_many", 20, &|s| oks(s.head_many(&keys)));
        step("put_many", 20, &|s| oks(s.put_many(&items)));
        step("delete_many", 20, &|s| oks(s.delete_many(&keys)));
    }
}

/// A sealed payload carries its own checksum, so `IntegrityStore` verifies
/// it in place: a batch of sealed payloads costs exactly the bare WAN
/// `get_many`, while unsealed payloads keep the `head_many` episode.
#[test]
fn a_sealed_batch_through_integrity_store_costs_one_bare_get_many() {
    let endpoint = |sealed: bool| {
        let backing = MemoryStore::new();
        for i in 0..20 {
            let body = vec![i as u8; 4096 + i * 100];
            let payload = if sealed { seal(b"NSDFBK01", &body) } else { body };
            backing.put(&format!("o/{i:02}"), &payload).unwrap();
        }
        let clock = SimClock::new();
        let wan = Arc::new(CloudStore::new(
            Arc::new(backing),
            NetworkProfile::public_dataverse(),
            clock.clone(),
            11,
        ));
        (wan, clock)
    };
    let stored: Vec<String> = (0..20).map(|i| format!("o/{i:02}")).collect();
    let keys: Vec<&str> = stored.iter().map(|k| k.as_str()).collect();
    for sealed in [true, false] {
        let (wan, clock) = endpoint(sealed);
        let obs = Obs::default();
        let verified = IntegrityStore::new(Arc::clone(&wan) as Arc<dyn ObjectStore>).with_obs(&obs);
        let (bare, bare_clock) = endpoint(sealed);
        assert_eq!(oks(verified.get_many(&keys)), 20);
        assert_eq!(oks(bare.get_many(&keys)), 20);
        if !sealed {
            assert_eq!(oks(bare.head_many(&keys)), 20);
        }
        assert_eq!(clock.now_ns(), bare_clock.now_ns(), "sealed {sealed}: virtual time");
        assert_eq!(
            wan.transfer_log().read_ops,
            bare.transfer_log().read_ops,
            "sealed {sealed}: WAN read operations"
        );
        let snap = obs.snapshot();
        assert_eq!(
            (snap.counter("integrity.verified"), snap.counter("integrity.rejected")),
            (20, 0)
        );
    }
}

/// The other half of the contract: a single call through a wrapper reaches
/// the WAN as the single call it is, so it costs and counts what the bare
/// endpoint's single call does — even in the wrappers whose one body per
/// operation is the batch form.
#[test]
fn a_single_call_through_a_production_wrapper_costs_what_the_bare_wan_single_call_costs() {
    // A seeded WAN endpoint over 20 stored objects, on its own clock.
    let endpoint = || {
        let backing = MemoryStore::new();
        for i in 0..20 {
            backing.put(&format!("o/{i:02}"), &vec![i as u8; 4096 + i * 100]).unwrap();
        }
        let clock = SimClock::new();
        let wan = Arc::new(CloudStore::new(
            Arc::new(backing),
            NetworkProfile::public_dataverse(),
            clock.clone(),
            11,
        ));
        (wan, clock)
    };
    let payload = vec![9u8; 2048];

    for (name, wrap) in WRAPPERS {
        let (wan, clock) = endpoint();
        let wrapped = wrap(Arc::clone(&wan) as Arc<dyn ObjectStore>, &clock);
        let (bare, bare_clock) = endpoint();
        let step = |what: &str, call: &dyn Fn(&dyn ObjectStore) -> bool| {
            let (t, bare_t) = (clock.now_ns(), bare_clock.now_ns());
            assert!(call(&*wrapped), "{name}: {what} failed");
            match (what, name) {
                // A fetched payload is verified against its own `head`.
                ("get", "IntegrityStore") => {
                    bare.get("o/03").unwrap();
                    bare.head("o/03").unwrap();
                }
                // The cache serves a range from the whole object it fetched.
                ("get_range", "TierCache") => assert!(bare.get("o/04").is_ok()),
                _ => assert!(call(&*bare), "bare WAN: {what} failed"),
            }
            assert!(clock.now_ns() > t, "{name}: {what} must cross the WAN");
            assert_eq!(
                clock.now_ns() - t,
                bare_clock.now_ns() - bare_t,
                "{name}: {what} did not cost what the bare WAN single call costs"
            );
            let (log, bare_log) = (wan.transfer_log(), bare.transfer_log());
            assert_eq!(
                (log.read_ops, log.write_ops),
                (bare_log.read_ops, bare_log.write_ops),
                "{name}: {what} counted other WAN operations than the bare single call"
            );
        };
        step("put", &|s| s.put("n/00", &payload).is_ok());
        step("get", &|s| s.get("o/03").is_ok());
        step("get_range", &|s| s.get_range("o/04", 100, 1000).is_ok());
        step("head", &|s| s.head("o/05").is_ok());
        step("list", &|s| s.list("o/").is_ok_and(|l| l.len() == 20));
        step("delete", &|s| s.delete("o/06").is_ok());
    }
}
