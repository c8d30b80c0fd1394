//! Chaos differential test for the catalog engine: the whole LSM state —
//! WAL batches, segments, manifests — lives behind the same resilience
//! stack the fleet tests use (fault injection → breaker → checksum →
//! retries with hedging) over a seeded WAN. A bulk-load plus mixed
//! mutations is built through the stack, closed, and reopened *through
//! 20% injected read faults and 5% payload corruption*; recovery and the
//! mixed query workload after it must be digest-equal to a fault-free
//! oracle, and the whole run must replay byte-identically. A second
//! scenario scripts a write outage onto one garbage-collection wave: the
//! keys it failed to delete must leave with the next manifest swap's wave,
//! not wait for the next `open`.

use nsdf::catalog::{Catalog, CatalogConfig, Record};
use nsdf::storage::{
    CloudStore, FailScope, FaultPlan, FaultStore, MemoryStore, NetworkProfile, ObjectStore,
};
use nsdf::util::{derive_seed, fnv1a64, splitmix64, MetricsSnapshot, Obs, SimClock};
use std::sync::Arc;

mod common;
use common::chaos_policy;

const SEED: u64 = 0xCA7C4A05;
const N: u64 = 5_000;
const SOURCES: [&str; 3] = ["dataverse", "materials-commons", "seal"];

fn synth(id: u64, v: u64) -> Record {
    Record::new(
        id,
        format!("c{:02}/obj-{id:05}", id % 23),
        SOURCES[(v % 3) as usize],
        512 + splitmix64(id ^ v) % 4096,
        splitmix64(id.wrapping_add(v) % 900),
    )
    .expect("valid record")
}

/// Small budgets so 5k records spread over many segments — recovery then
/// has a real fan-out of objects to fetch through the chaos.
fn cfg(shards: usize) -> CatalogConfig {
    CatalogConfig {
        memtable_budget_bytes: 8_000,
        level_base_bytes: 16_000,
        segment_target_bytes: 4_000,
        l0_compact_trigger: 3,
        wal_batch_ops: 64,
        ..CatalogConfig::new(shards)
    }
}

/// fleet_chaos-style resilience stack: 20% read faults + 5% corruption,
/// absorbed by checksum verification and retries before the engine sees
/// anything.
fn chaos_stack(
    mem: Arc<MemoryStore>,
    profile: NetworkProfile,
    clock: &SimClock,
    obs: &Obs,
    plan_salt: &str,
) -> Arc<dyn ObjectStore> {
    let wan = Arc::new(CloudStore::new(mem, profile, clock.clone(), derive_seed(SEED, "wan")));
    let plan = FaultPlan::new(derive_seed(SEED, plan_salt))
        .with_scope(FailScope::Reads)
        .with_fault_rate(0.2)
        .with_corrupt_rate(0.05);
    chaos_policy(200).resilient(wan, plan, clock, obs).unwrap()
}

/// Bulk-load + mixed mutations, identical on every substrate.
fn build(cat: &Catalog) {
    cat.bulk_load((0..N).map(|i| synth(i, i % 4))).expect("bulk load");
    for k in 0..800u64 {
        let id = splitmix64(SEED ^ k) % N;
        cat.upsert(synth(id, 4 + k % 3)).expect("upsert");
    }
    for k in 0..200u64 {
        cat.delete(splitmix64(SEED ^ (k + 0x5000)) % N).expect("delete");
    }
    cat.flush().expect("flush");
    cat.compact().expect("compact");
}

/// Mixed queries, folded into one digest.
fn query_digest(cat: &Catalog) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |s: &str| acc = acc.rotate_left(7) ^ fnv1a64(s.as_bytes());
    for k in 0..1_500u64 {
        // Interleave hits and guaranteed misses.
        let id = splitmix64(SEED ^ (k + 0xA000)) % (N + N / 4);
        match cat.get(id) {
            Some(r) => fold(&r.to_line()),
            None => fold(&format!("miss {id}")),
        }
    }
    for p in ["c05/", "c17/", "c22/"] {
        for r in cat.find_by_prefix(p) {
            fold(&r.to_line());
        }
    }
    for s in SOURCES {
        fold(&format!("{s} {}", cat.find_by_source(s).len()));
    }
    let stats = cat.stats();
    fold(&format!(
        "{} {} {} {:?}",
        stats.records, stats.total_bytes, stats.duplicate_checksums, stats.per_source
    ));
    for r in cat.scan_all() {
        fold(&r.to_line());
    }
    acc
}

/// One full chaos run: build through the stack, close, reopen through a
/// *fresh* chaos plan, query. Returns (digest, live, clock_ns, metrics).
fn run_chaos(profile: fn() -> NetworkProfile, shards: usize) -> (u64, u64, u64, MetricsSnapshot) {
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let mem = Arc::new(MemoryStore::new());
    let cat = Catalog::open(
        chaos_stack(Arc::clone(&mem), profile(), &clock, &obs.scoped("build"), "plan-build"),
        clock.clone(),
        cfg(shards),
    )
    .expect("open through chaos")
    .with_obs(&obs);
    build(&cat);
    cat.close().expect("close");
    drop(cat);

    // Recovery reads — manifest, every live segment, the WAL tail — all
    // pass through 20% faults and 5% corruption.
    let cat = Catalog::open(
        chaos_stack(mem, profile(), &clock, &obs.scoped("reopen"), "plan-reopen"),
        clock.clone(),
        cfg(shards),
    )
    .expect("reopen through chaos")
    .with_obs(&obs);
    (query_digest(&cat), cat.len(), clock.now_ns(), obs.snapshot())
}

#[test]
fn chaos_run_is_digest_equal_to_the_fault_free_oracle() {
    for profile in [NetworkProfile::public_dataverse, NetworkProfile::private_seal] {
        for shards in [2usize, 8, 32] {
            let ctx = format!("{} shards={shards}", profile().name);
            // Oracle: same workload, plain in-memory store, no WAN, no
            // faults, and no reopen — the catalog's merged view must not
            // depend on any of those.
            let oracle_clock = SimClock::new();
            let oracle = Catalog::open(Arc::new(MemoryStore::new()), oracle_clock, cfg(shards))
                .expect("oracle open");
            build(&oracle);
            let want = query_digest(&oracle);

            let (digest, live, _, snap) = run_chaos(profile, shards);
            assert_eq!(live, oracle.len(), "{ctx}: live count diverged under chaos");
            assert_eq!(digest, want, "{ctx}: chaos run differs from the fault-free oracle");

            // The chaos must have been real: faults injected on the
            // reopen path, corruption caught by the checksum layer,
            // retries absorbing both.
            assert!(snap.counter("reopen.fault.injected") > 0, "{ctx}: no injected faults");
            assert!(
                snap.counter("reopen.integrity.rejected") > 0,
                "{ctx}: no corruption reached the checksum layer"
            );
            assert!(snap.counter("reopen.retry.retries") > 0, "{ctx}: nothing was retried");
            assert_eq!(
                snap.counter("reopen.breaker.fast_failures"),
                0,
                "{ctx}: breaker must not fast-fail recovery"
            );
        }
    }
}

#[test]
fn chaos_run_replays_byte_identically() {
    let (d1, l1, clock1, m1) = run_chaos(NetworkProfile::private_seal, 8);
    let (d2, l2, clock2, m2) = run_chaos(NetworkProfile::private_seal, 8);
    assert_eq!(d1, d2, "query digest must replay exactly");
    assert_eq!(l1, l2, "live count must replay exactly");
    assert_eq!(clock1, clock2, "virtual clock must land on the same nanosecond");
    assert_eq!(m1.to_json(), m2.to_json(), "metrics snapshots must be byte-identical");
}

/// Keys on `mem` under `dir`, sorted.
fn keys_under(mem: &MemoryStore, dir: &str) -> Vec<String> {
    mem.list(dir).unwrap().into_iter().map(|m| m.key).collect()
}

/// Segment keys the engine's resident layout references, sorted.
fn referenced_seg_keys(cat: &Catalog) -> Vec<String> {
    let mut keys = Vec::new();
    for (si, levels) in cat.layout().iter().enumerate() {
        for seg in levels.iter().flatten() {
            keys.push(format!("catalog/seg/s{si:04}-{:08}.seg", seg.seq));
        }
    }
    keys.sort();
    keys
}

#[test]
fn garbage_whose_delete_failed_leaves_with_the_next_swap() {
    // Default (8 MiB) memtable budget: checkpoints happen only where the
    // script asks for them.
    let cfg = CatalogConfig { segment_target_bytes: 4_000, ..CatalogConfig::new(2) };
    // Catalog -> FaultStore (writes only, optional outage) -> seeded WAN.
    let stack = |outage: Option<(f64, f64)>| {
        let clock = SimClock::new();
        let mem = Arc::new(MemoryStore::new());
        let wan = Arc::new(CloudStore::new(
            Arc::clone(&mem) as Arc<dyn ObjectStore>,
            NetworkProfile::private_seal(),
            clock.clone(),
            derive_seed(SEED, "wan"),
        ));
        let mut plan = FaultPlan::new(derive_seed(SEED, "gc")).with_scope(FailScope::Writes);
        if let Some((start, end)) = outage {
            plan = plan.outage(start, end);
        }
        let fault = FaultStore::new(Arc::clone(&wan) as _, plan, clock.clone()).unwrap();
        let cat = Catalog::open(Arc::new(fault), clock.clone(), cfg.clone()).expect("open");
        (cat, wan, mem, clock)
    };
    // Two settled manifests, then 40 WAL objects for the next checkpoint
    // to retire (together with manifest 0).
    let settle = |cat: &Catalog| {
        cat.ingest((0..300).map(|i| synth(i, 0))).expect("ingest");
        cat.flush().expect("flush");
        for i in 0..30 {
            cat.upsert(synth(i, 1)).expect("upsert");
        }
        cat.flush().expect("flush");
        for i in 30..60 {
            cat.upsert(synth(i, 2)).expect("upsert");
        }
        for i in 290..300 {
            assert!(cat.delete(i).expect("delete"));
        }
    };

    // Probe, fault-free: at which virtual instant does compact()'s first
    // GC wave reach the WAN? compact() = checkpoint (segment wave,
    // manifest put, GC wave) + forced merge (the same three again).
    let gc_wave_secs = {
        let (cat, wan, _, _) = stack(None);
        settle(&cat);
        let before = wan.obs().span_tree().len();
        cat.compact().expect("fault-free compact");
        let waves = wan.obs().span_tree();
        assert_eq!(waves.len(), before + 4, "two segment waves, two GC waves");
        waves[before + 1].start_vns as f64 / 1e9
    };

    // Same script, with the endpoint refusing writes from just before
    // that wave (the manifest put ahead of it entered ~60 ms earlier).
    let (cat, _, mem, clock) = stack(Some((gc_wave_secs - 0.001, gc_wave_secs + 1.0)));
    let counter = |name: &str| cat.obs().snapshot().counter(&format!("catalog.{name}"));
    settle(&cat);
    let wal_garbage = keys_under(&mem, "catalog/wal/");
    assert_eq!(wal_garbage.len(), 40);
    cat.compact().expect_err("the outage refuses the merge's segment wave");
    // The checkpoint inside compact() is durable (manifest 2 landed); its
    // GC wave failed wholesale and every key is still on the store.
    assert_eq!(counter("gc_failed"), 41, "40 WAL objects + manifest 0");
    assert_eq!(keys_under(&mem, "catalog/wal/"), wal_garbage);
    assert_eq!(keys_under(&mem, "catalog/manifest/").len(), 3);
    cat.upsert(synth(1, 3)).expect_err("the outage refuses the WAL append");

    // Failed operations charge no virtual time: step past the window.
    clock.advance_secs(2.0);
    cat.upsert(synth(1, 3)).expect("upsert after the outage");
    cat.flush().expect("flush after the outage");
    assert_eq!(keys_under(&mem, "catalog/seg/"), referenced_seg_keys(&cat));
    assert!(keys_under(&mem, "catalog/manifest/").len() <= 2);
    assert_eq!(keys_under(&mem, "catalog/wal/"), Vec::<String>::new(), "floor == next WAL seq");
    assert_eq!(counter("gc_failed"), 41, "nothing failed after the window");
    assert_eq!(counter("wal_trimmed"), counter("wal_batches"), "every WAL object was retired");

    // And the catalog itself never noticed: equal to a quiet oracle.
    let oracle = Catalog::open(Arc::new(MemoryStore::new()), SimClock::new(), cfg).unwrap();
    settle(&oracle);
    oracle.upsert(synth(1, 3)).unwrap();
    assert_eq!(cat.scan_all(), oracle.scan_all());
}
