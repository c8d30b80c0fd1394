//! Property tests for the LSM engine's structural invariants: every level
//! of every shard keeps its segments sorted and (below L0) non-overlapping,
//! compaction preserves the live-record multiset, replaying one trace
//! into engines with different shard counts always produces the same
//! index, and bulk load keeps the last arrival of every id with exact
//! dedup / overwrite counts. The bloom and merge-accounting properties of
//! the engine's parts are unit tests of `bloom` and `compact`.

use nsdf_catalog::{Catalog, CatalogConfig, Record};
use nsdf_storage::MemoryStore;
use nsdf_util::{splitmix64, SimClock};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Version `v` of record `id`; the tiny checksum domain forces both
/// dedup (same content re-ingested) and overwrite (changed content).
fn synth(id: u64, v: u64) -> Record {
    Record::new(
        id,
        format!("g{:02}/obj-{id:04}", id % 11),
        ["dataverse", "seal"][(v % 2) as usize],
        256 + (id ^ v) % 1024,
        splitmix64(id.wrapping_mul(7).wrapping_add(v) % 64),
    )
    .expect("valid record")
}

/// `(op, id, v)` triples: op 0 = upsert, 1 = delete, 2 = flush-marker.
fn op_trace() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    collection::vec((0u8..8, 0u64..600, 0u64..6), 20..400)
}

/// Drive a trace into `cat` and a `BTreeMap` oracle. Every 8th-op slot
/// doubles as a flush so the state spreads over WAL, L0, and deeper.
fn apply(cat: &Catalog, oracle: &mut BTreeMap<u64, Record>, ops: &[(u8, u64, u64)]) {
    for &(op, id, v) in ops {
        match op {
            0..=4 => {
                let r = synth(id, v);
                cat.upsert(r.clone()).expect("upsert");
                oracle.insert(id, r);
            }
            5..=6 => {
                cat.delete(id).expect("delete");
                oracle.remove(&id);
            }
            _ => cat.flush().expect("flush"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn levels_stay_sorted_and_non_overlapping(ops in op_trace(), shards in 1usize..9) {
        let cat = Catalog::new(shards).expect("catalog");
        let mut oracle = BTreeMap::new();
        apply(&cat, &mut oracle, &ops);
        cat.flush().expect("flush");
        for (si, levels) in cat.layout().iter().enumerate() {
            for (li, level) in levels.iter().enumerate() {
                for seg in level {
                    prop_assert!(seg.count > 0, "shard {si} L{li}: empty segment resident");
                    prop_assert!(seg.min_id <= seg.max_id, "shard {si} L{li}: inverted bounds");
                }
                if li >= 1 {
                    for w in level.windows(2) {
                        prop_assert!(
                            w[0].max_id < w[1].min_id,
                            "shard {si} L{li}: segments overlap or are unsorted \
                             ({}..{} then {}..{})",
                            w[0].min_id, w[0].max_id, w[1].min_id, w[1].max_id
                        );
                    }
                }
            }
        }
        // The invariant survives a forced full compaction, and the merged
        // view still equals the oracle.
        cat.compact().expect("compact");
        for levels in cat.layout() {
            for level in levels.iter().skip(1) {
                for w in level.windows(2) {
                    prop_assert!(w[0].max_id < w[1].min_id, "post-compact overlap");
                }
            }
        }
        prop_assert_eq!(cat.scan_all(), oracle.values().cloned().collect::<Vec<_>>());
    }

    #[test]
    fn compaction_preserves_the_live_multiset(ops in op_trace(), shards in 1usize..9) {
        let cat = Catalog::new(shards).expect("catalog");
        let mut oracle = BTreeMap::new();
        apply(&cat, &mut oracle, &ops);
        let before = cat.scan_all();
        cat.compact().expect("compact");
        prop_assert_eq!(cat.scan_all(), before.clone(), "compaction changed the live view");
        prop_assert_eq!(before, oracle.values().cloned().collect::<Vec<_>>());
        prop_assert_eq!(cat.len(), oracle.len() as u64);
    }

    #[test]
    fn resharding_replay_is_stable(ops in op_trace()) {
        // The id→shard route is an internal detail: replaying one trace
        // into engines with different shard counts must build the same
        // index, and re-ingesting a scan into yet another shard count
        // (the documented reshard path) must preserve it bitwise.
        let mut scans = Vec::new();
        for shards in [1usize, 5, 32] {
            let cat = Catalog::new(shards).expect("catalog");
            let mut oracle = BTreeMap::new();
            apply(&cat, &mut oracle, &ops);
            scans.push(cat.scan_all());
        }
        prop_assert_eq!(&scans[1], &scans[0], "5 shards diverged from 1");
        prop_assert_eq!(&scans[2], &scans[0], "32 shards diverged from 1");

        let resharded = Catalog::new(13).expect("catalog");
        resharded.ingest(scans[0].iter().cloned()).expect("reshard replay");
        prop_assert_eq!(resharded.scan_all(), scans[0].clone());
    }

    #[test]
    fn bulk_load_keeps_the_last_arrival_and_counts_every_repeat(
        raw in collection::vec((0u64..200, 0u64..3), 1..600),
        shards in 1usize..9,
    ) {
        // Small segments and write waves, so a load splits output and
        // persists in several waves.
        let cfg = CatalogConfig {
            memtable_budget_bytes: 4_000,
            segment_target_bytes: 1_500,
            ..CatalogConfig::new(shards)
        };
        let cat = Catalog::open(Arc::new(MemoryStore::new()), SimClock::new(), cfg)
            .expect("catalog");
        // Repeated ids arrive with the same version (identical content) or
        // another one (different content, unless the checksum collides).
        let batch: Vec<Record> = raw.iter().map(|&(id, v)| synth(id, v)).collect();
        let mut last_wins: BTreeMap<u64, Record> = BTreeMap::new();
        for r in &batch {
            last_wins.insert(r.id, r.clone());
        }
        let (mut dedup, mut overwritten) = (0u64, 0u64);
        for (i, r) in batch.iter().enumerate() {
            if batch[i + 1..].iter().any(|later| later.id == r.id) {
                if r.checksum == last_wins[&r.id].checksum {
                    dedup += 1;
                } else {
                    overwritten += 1;
                }
            }
        }
        prop_assert_eq!(cat.bulk_load(batch).expect("bulk load"), last_wins.len() as u64);
        prop_assert_eq!(cat.scan_all(), last_wins.values().cloned().collect::<Vec<_>>());
        for id in 0..200 {
            prop_assert_eq!(cat.get(id), last_wins.get(&id).cloned(), "get({})", id);
        }
        let snap = cat.obs().snapshot();
        prop_assert_eq!(snap.counter("catalog.dedup_records"), dedup, "dedup count");
        prop_assert_eq!(snap.counter("catalog.overwritten_records"), overwritten, "overwrite count");
    }
}
