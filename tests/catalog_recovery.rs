//! Crash-recovery battery for the catalog engine: a scripted [`CrashStore`]
//! kills the "process" at every durability-critical write — the WAL
//! append, the segment flush, the manifest swap — in all three flavours
//! (absent, torn, fully-landed-but-unacknowledged). A fresh engine opened
//! over the surviving bytes must recover exactly the acknowledged state
//! (plus, only for a fully-landed WAL append, the in-flight record),
//! quarantine torn objects rather than serve them, and leave no orphan
//! segments behind. A fourth script kills it inside a garbage-collection
//! `delete_many` wave, after the manifest swap: recovery must collect
//! whatever the wave left. A [`GateStore`] regression test pins the
//! WAL-ack-before-visibility ordering the engine guarantees.
//!
//! The engine's contract under test: an op that returned `Ok` is durable
//! and must survive any crash; an op that returned `Err` may only have
//! reached the store if its WAL write fully landed (`AfterWrite`).

use nsdf::catalog::{Catalog, CatalogConfig, Record};
use nsdf::storage::{CrashPoint, CrashSpec, CrashStore, GateStore, MemoryStore, ObjectStore};
use nsdf::util::{splitmix64, SimClock};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn synth(id: u64, v: u64) -> Record {
    Record::new(
        id,
        format!("r{:02}/obj-{id:05}", id % 13),
        ["dataverse", "seal"][(v % 2) as usize],
        512 + (id ^ v) % 2048,
        splitmix64(id.wrapping_add(v) % 500),
    )
    .expect("valid record")
}

fn cfg(shards: usize) -> CatalogConfig {
    // Large memtable budget: checkpoints happen only at explicit flush(),
    // so each crash site is reached from a known call.
    CatalogConfig { segment_target_bytes: 2_000, ..CatalogConfig::new(shards) }
}

#[derive(Clone, Debug)]
enum MutOp {
    Up(Record),
    Del(u64),
}

fn mutation(k: u64) -> MutOp {
    if k % 5 == 4 {
        MutOp::Del(k % 120) // settled ids, so the tombstone is real
    } else {
        MutOp::Up(synth(1_000 + k, 1))
    }
}

fn oracle_apply(oracle: &mut BTreeMap<u64, Record>, op: &MutOp) {
    match op {
        MutOp::Up(r) => {
            oracle.insert(r.id, r.clone());
        }
        MutOp::Del(id) => {
            oracle.remove(id);
        }
    }
}

/// Segment keys a recovered engine is allowed to have on the store: only
/// those its in-memory layout references (`catalog/seg/s{shard}-{seq}`).
fn referenced_seg_keys(cat: &Catalog) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for (si, levels) in cat.layout().iter().enumerate() {
        for level in levels {
            for seg in level {
                keys.insert(format!("catalog/seg/s{si:04}-{:08}.seg", seg.seq));
            }
        }
    }
    keys
}

/// Run one crash scenario: settle a durable baseline, arm the crash, push
/// mutations into it, reopen over the surviving bytes, and return
/// (recovered catalog, acknowledged oracle, in-flight op if the crash
/// interrupted one, backing store).
fn crash_scenario(
    spec: CrashSpec,
    shards: usize,
) -> (Catalog, BTreeMap<u64, Record>, Option<MutOp>, Arc<MemoryStore>) {
    let clock = SimClock::new();
    let mem = Arc::new(MemoryStore::new());
    let crash = Arc::new(CrashStore::new(Arc::clone(&mem) as Arc<dyn ObjectStore>));
    let cat = Catalog::open(Arc::clone(&crash) as Arc<dyn ObjectStore>, clock.clone(), cfg(shards))
        .expect("open");
    let mut oracle = BTreeMap::new();

    // Durable baseline: records in L1 segments, a manifest, a trimmed WAL.
    for i in 0..120 {
        let r = synth(i, 0);
        cat.upsert(r.clone()).expect("settle upsert");
        oracle.insert(r.id, r);
    }
    cat.flush().expect("settle flush");
    cat.compact().expect("settle compact");

    crash.arm(spec);
    let mut pending = None;
    for k in 0..40u64 {
        let op = mutation(k);
        let outcome = match &op {
            MutOp::Up(r) => cat.upsert(r.clone()).map(|_| ()),
            MutOp::Del(id) => cat.delete(*id).map(|_| ()),
        };
        match outcome {
            Ok(()) => oracle_apply(&mut oracle, &op),
            Err(_) => {
                pending = Some(op); // the WAL append crashed mid-op
                break;
            }
        }
    }
    if !crash.is_dead() {
        // Segment/manifest crash sites are reached from the checkpoint.
        cat.flush().expect_err("flush must fail at the armed crash point");
    }
    assert!(crash.is_dead(), "scripted crash never fired");
    drop(cat);

    // A fresh "process" over the surviving bytes.
    let recovered = Catalog::open(Arc::clone(&mem) as Arc<dyn ObjectStore>, clock, cfg(shards))
        .expect("reopen");
    (recovered, oracle, pending, mem)
}

fn check_scenario(prefix: &str, point: CrashPoint, shards: usize) {
    let ctx = format!("{prefix} {point:?} shards={shards}");
    // wal: the 6th append after arming; seg: the 2nd segment of the
    // checkpoint's batch (so one orphan landed before the crash);
    // manifest: the swap itself (a checkpoint writes exactly one).
    let nth = match prefix {
        p if p.ends_with("wal/") => 5,
        p if p.ends_with("seg/") => 1,
        _ => 0,
    };
    let spec = CrashSpec { prefix: prefix.into(), nth, point };
    let (cat, mut oracle, pending, mem) = crash_scenario(spec, shards);

    // Acknowledged ops always survive. The in-flight op (only possible at
    // a WAL crash) survives exactly when its WAL bytes fully landed.
    if let Some(op) = pending {
        assert!(prefix.ends_with("wal/"), "{ctx}: only WAL crashes interrupt an op");
        if point == CrashPoint::AfterWrite {
            oracle_apply(&mut oracle, &op);
        }
    }
    let want: Vec<Record> = oracle.values().cloned().collect();
    assert_eq!(cat.scan_all(), want, "{ctx}: recovered state");
    assert_eq!(cat.len(), oracle.len() as u64, "{ctx}: live count");

    // Torn objects were quarantined — counted, deleted, never decoded
    // into the live view (the scan equality above proves the last part).
    let quarantined = cat.obs().snapshot().counter("catalog.quarantined");
    if matches!(point, CrashPoint::Torn(_)) {
        assert!(quarantined > 0, "{ctx}: torn object was not quarantined");
    }
    // No orphan segments: everything under catalog/seg/ is referenced by
    // the recovered layout.
    let on_store: BTreeSet<String> =
        mem.list("catalog/seg/").unwrap().into_iter().map(|m| m.key).collect();
    assert_eq!(on_store, referenced_seg_keys(&cat), "{ctx}: orphan or missing segments");

    // The recovered engine keeps working: mutate, checkpoint, verify.
    for k in 100..130u64 {
        let op = mutation(k);
        match &op {
            MutOp::Up(r) => {
                cat.upsert(r.clone()).expect("post-recovery upsert");
            }
            MutOp::Del(id) => {
                cat.delete(*id).expect("post-recovery delete");
            }
        }
        oracle_apply(&mut oracle, &op);
    }
    cat.flush().expect("post-recovery flush");
    cat.compact().expect("post-recovery compact");
    assert_eq!(
        cat.scan_all(),
        oracle.values().cloned().collect::<Vec<_>>(),
        "{ctx}: post-recovery state"
    );
}

#[test]
fn crash_during_wal_append_recovers_acknowledged_state() {
    for point in [CrashPoint::BeforeWrite, CrashPoint::Torn(0.4), CrashPoint::AfterWrite] {
        for shards in [2usize, 4, 9] {
            check_scenario("catalog/wal/", point, shards);
        }
    }
}

#[test]
fn crash_during_segment_flush_recovers_from_wal() {
    for point in [CrashPoint::BeforeWrite, CrashPoint::Torn(0.4), CrashPoint::AfterWrite] {
        for shards in [2usize, 4, 9] {
            check_scenario("catalog/seg/", point, shards);
        }
    }
}

#[test]
fn crash_during_manifest_swap_recovers_either_side() {
    for point in [CrashPoint::BeforeWrite, CrashPoint::Torn(0.4), CrashPoint::AfterWrite] {
        for shards in [2usize, 4, 9] {
            check_scenario("catalog/manifest/", point, shards);
        }
    }
}

#[test]
fn crash_during_gc_wave_recovers_and_collects_leftovers() {
    // compact() swaps two manifests, each followed by one GC wave:
    //   checkpoint  -> [manifest 0, 40 WAL objects]
    //   forced merge -> [every replaced segment, manifest 1]
    // "catalog/" dies at the 8th key of the first wave (the merge then
    // fails on the dead store); "catalog/seg/" lets the first wave through
    // and dies at the 2nd segment of the second.
    for (prefix, nth) in [("catalog/", 7), ("catalog/seg/", 1)] {
        for shards in [2usize, 4, 9] {
            let ctx = format!("gc wave {prefix} nth={nth} shards={shards}");
            let clock = SimClock::new();
            let mem = Arc::new(MemoryStore::new());
            let crash = Arc::new(CrashStore::new(Arc::clone(&mem) as Arc<dyn ObjectStore>));
            let cat = Catalog::open(Arc::clone(&crash) as _, clock.clone(), cfg(shards)).unwrap();
            let mut oracle = BTreeMap::new();
            for i in 0..120 {
                let r = synth(i, 0);
                cat.upsert(r.clone()).expect("settle upsert");
                oracle.insert(r.id, r);
            }
            cat.flush().expect("settle flush");
            cat.compact().expect("settle compact");
            for k in 0..40u64 {
                let op = mutation(k);
                match &op {
                    MutOp::Up(r) => cat.upsert(r.clone()).map(|_| ()),
                    MutOp::Del(id) => cat.delete(*id).map(|_| ()),
                }
                .expect("acknowledged mutation");
                oracle_apply(&mut oracle, &op);
            }

            crash.arm(CrashSpec { prefix: prefix.into(), nth, point: CrashPoint::BeforeDelete });
            let _ = cat.compact(); // GC is best-effort: the call may well return Ok
            assert!(crash.is_dead(), "{ctx}: scripted crash never fired");
            drop(cat);
            let before: BTreeSet<String> =
                mem.list("catalog/").unwrap().into_iter().map(|m| m.key).collect();

            // Every mutation was acknowledged, so all of them survive.
            let cat = Catalog::open(Arc::clone(&mem) as _, clock, cfg(shards)).expect("reopen");
            let want: Vec<Record> = oracle.values().cloned().collect();
            assert_eq!(cat.scan_all(), want, "{ctx}: recovered state");
            assert_eq!(cat.len(), oracle.len() as u64, "{ctx}: live count");

            // Recovery's own waves removed the leftovers: what remains is
            // the referenced segments, the manifest with its fallback, and
            // no WAL object (the floor is the next sequence number).
            let after: BTreeSet<String> =
                mem.list("catalog/").unwrap().into_iter().map(|m| m.key).collect();
            let segs: BTreeSet<String> =
                after.iter().filter(|k| k.starts_with("catalog/seg/")).cloned().collect();
            assert_eq!(segs, referenced_seg_keys(&cat), "{ctx}: orphan or missing segments");
            let manifests = after.iter().filter(|k| k.starts_with("catalog/manifest/")).count();
            assert!((1..=2).contains(&manifests), "{ctx}: {manifests} manifests left");
            assert_eq!(after.len(), segs.len() + manifests, "{ctx}: WAL objects left");
            // ... and its counters account for every one of them.
            let removed = before.difference(&after).count() as u64;
            assert!(after.is_subset(&before) && removed > 0, "{ctx}: nothing was left over");
            let snap = cat.obs().snapshot();
            assert_eq!(
                snap.counter("catalog.quarantined") + snap.counter("catalog.wal_trimmed"),
                removed,
                "{ctx}: unaccounted leftovers"
            );
        }
    }
}

#[test]
fn record_is_not_visible_until_its_wal_write_is_acknowledged() {
    // Regression test for write-ahead ordering: a writer parked *inside*
    // its durable WAL put (bytes landed, acknowledgement withheld) must
    // be invisible to every reader. Before the ordering fix the engine
    // applied the memtable insert first and a concurrent reader could
    // observe a record whose WAL write later failed.
    let clock = SimClock::new();
    let gate = Arc::new(GateStore::new(Arc::new(MemoryStore::new()), "catalog/wal/"));
    let cat = Arc::new(
        Catalog::open(Arc::clone(&gate) as Arc<dyn ObjectStore>, clock, cfg(4)).expect("open"),
    );
    let rec = synth(42, 0);

    let writer = {
        let cat = Arc::clone(&cat);
        let rec = rec.clone();
        std::thread::spawn(move || cat.upsert(rec).expect("gated upsert"))
    };
    gate.wait_entered(1);
    assert_eq!(cat.get(rec.id), None, "record visible before its WAL ack");
    assert_eq!(cat.len(), 0, "live count moved before the WAL ack");
    assert!(cat.scan_all().is_empty(), "scan sees an unacknowledged record");

    gate.open();
    assert!(writer.join().expect("writer thread"), "first upsert inserts");
    assert_eq!(cat.get(rec.id), Some(rec), "record must appear once acknowledged");
    assert_eq!(cat.len(), 1);
}
