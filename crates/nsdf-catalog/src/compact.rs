//! Leveled compaction: k-way merge of sorted runs with checksum-based
//! dedup accounting.
//!
//! Inputs are ordered **newest first**; for every id the newest version
//! wins, so merging never changes what queries observe — the differential
//! harness holds the engine bitwise-equal to a `BTreeMap` oracle across
//! every compaction. What compaction *does* change is bookkeeping, and the
//! merge attributes every dropped entry to exactly one bucket:
//!
//! * `dedup_records` — a shadowed older `Put` whose content checksum
//!   equals the surviving winner's (the same bytes re-ingested, e.g. the
//!   same object harvested from two repositories);
//! * `overwritten_records` — a shadowed older `Put` with different
//!   content (a genuine update, or a put under a winning tombstone);
//! * `tombstones_dropped` — deletion markers retired: shadowed tombstones
//!   anywhere, and winning tombstones at the bottom level (nothing deeper
//!   left to shadow).
//!
//! Conservation invariant (asserted): `entries_in == entries_out +
//! dedup_records + overwritten_records + tombstones_dropped`.

use crate::segment::{SegEntry, Segment, SegmentBuilder};
use nsdf_util::Result;

/// What one merge consumed and produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MergeStats {
    /// Entries across all input runs.
    pub entries_in: u64,
    /// Entries written to output segments.
    pub entries_out: u64,
    /// Shadowed puts identical in content to their winner.
    pub dedup_records: u64,
    /// Shadowed puts with different content.
    pub overwritten_records: u64,
    /// Tombstones retired (shadowed anywhere, or winners at the bottom).
    pub tombstones_dropped: u64,
    /// Encoded bytes across all input runs.
    pub bytes_in: u64,
}

/// Merge `inputs` (newest first) into fresh segments for `target_level`,
/// splitting output at roughly `target_bytes` per segment. Output
/// segments are sorted and non-overlapping by construction. Set
/// `drop_tombstones` only when no level deeper than the target holds data
/// for this shard — a dropped tombstone must have nothing left to shadow.
pub(crate) fn merge_segments(
    inputs: &[&Segment],
    target_level: u32,
    drop_tombstones: bool,
    bits_per_key: u32,
    target_bytes: u64,
) -> Result<(Vec<Segment>, MergeStats)> {
    let mut stats = MergeStats::default();
    for seg in inputs {
        stats.entries_in += seg.count() as u64;
        stats.bytes_in += seg.encoded_bytes();
    }
    let mut pos: Vec<usize> = vec![0; inputs.len()];
    let mut out = Vec::new();
    let mut builder = SegmentBuilder::new(target_level, bits_per_key);
    loop {
        // Smallest id still unconsumed across all runs.
        let mut id = u64::MAX;
        let mut any = false;
        for (ri, seg) in inputs.iter().enumerate() {
            if let Some(&cand) = seg.ids().get(pos[ri]) {
                any = true;
                id = id.min(cand);
            }
        }
        if !any {
            break;
        }
        // Winner = the newest run holding this id (lowest run index).
        let winner = inputs
            .iter()
            .enumerate()
            .find(|(ri, seg)| seg.ids().get(pos[*ri]) == Some(&id))
            .map(|(ri, _)| ri)
            .expect("some run holds the minimum id");
        let winner_ck = inputs[winner].checksum_at(pos[winner]);
        for (ri, seg) in inputs.iter().enumerate() {
            if seg.ids().get(pos[ri]) != Some(&id) {
                continue;
            }
            if ri == winner {
                pos[ri] += 1;
                continue;
            }
            match seg.checksum_at(pos[ri]) {
                None => stats.tombstones_dropped += 1,
                Some(ck) if Some(ck) == winner_ck => stats.dedup_records += 1,
                Some(_) => stats.overwritten_records += 1,
            }
            pos[ri] += 1;
        }
        let entry = inputs[winner].entry_at(pos[winner] - 1)?;
        match entry {
            SegEntry::Tombstone if drop_tombstones => stats.tombstones_dropped += 1,
            SegEntry::Tombstone => {
                push_split(&mut builder, &mut out, target_level, bits_per_key, target_bytes)?;
                builder.push(id, None)?;
                stats.entries_out += 1;
            }
            SegEntry::Put(rec) => {
                push_split(&mut builder, &mut out, target_level, bits_per_key, target_bytes)?;
                builder.push(id, Some(&rec))?;
                stats.entries_out += 1;
            }
        }
    }
    if let Some(seg) = builder.finish() {
        out.push(seg);
    }
    debug_assert_eq!(
        stats.entries_in,
        stats.entries_out
            + stats.dedup_records
            + stats.overwritten_records
            + stats.tombstones_dropped,
        "compaction accounting must conserve entries"
    );
    Ok((out, stats))
}

/// Roll the builder over into a finished segment once it crosses the
/// target size, keeping outputs non-overlapping and roughly even.
fn push_split(
    builder: &mut SegmentBuilder,
    out: &mut Vec<Segment>,
    level: u32,
    bits_per_key: u32,
    target_bytes: u64,
) -> Result<()> {
    if builder.count() > 0 && builder.approx_bytes() >= target_bytes {
        let full = std::mem::replace(builder, SegmentBuilder::new(level, bits_per_key));
        out.push(full.finish().expect("non-empty builder"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use proptest::collection;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rec(id: u64, ck: u64) -> Record {
        Record::new(id, format!("n{id}"), "s", id * 10, ck).unwrap()
    }

    fn seg_of(level: u32, entries: &[(u64, Option<u64>)]) -> Segment {
        let mut b = SegmentBuilder::new(level, 10);
        for &(id, ck) in entries {
            match ck {
                Some(ck) => b.push(id, Some(&rec(id, ck))).unwrap(),
                None => b.push(id, None).unwrap(),
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn newest_wins_and_buckets_are_exact() {
        // newer: 1=>ckA, 2=>tombstone, 3=>ckC
        // older: 1=>ckA (dedup), 2=>ckB (overwritten by tombstone), 4=>ckD
        let newer = seg_of(0, &[(1, Some(0xA)), (2, None), (3, Some(0xC))]);
        let older = seg_of(1, &[(1, Some(0xA)), (2, Some(0xB)), (4, Some(0xD))]);
        let (segs, st) = merge_segments(&[&newer, &older], 1, false, 10, u64::MAX).unwrap();
        assert_eq!(segs.len(), 1);
        let s = &segs[0];
        assert_eq!(s.ids(), &[1, 2, 3, 4]);
        assert!(s.is_tombstone(s.position(2).unwrap()));
        assert_eq!(st.entries_in, 6);
        assert_eq!(st.entries_out, 4);
        assert_eq!(st.dedup_records, 1);
        assert_eq!(st.overwritten_records, 1);
        assert_eq!(st.tombstones_dropped, 0);

        // Same merge at the bottom: the winning tombstone retires too.
        let (segs, st) = merge_segments(&[&newer, &older], 1, true, 10, u64::MAX).unwrap();
        assert_eq!(segs[0].ids(), &[1, 3, 4]);
        assert_eq!(st.tombstones_dropped, 1);
        assert_eq!(st.entries_out, 3);
    }

    #[test]
    fn shadowed_tombstones_count_as_dropped() {
        let newer = seg_of(0, &[(7, Some(0x1))]);
        let older = seg_of(0, &[(7, None)]);
        let (_, st) = merge_segments(&[&newer, &older], 1, false, 10, u64::MAX).unwrap();
        assert_eq!(st.tombstones_dropped, 1);
        assert_eq!(st.entries_out, 1);
    }

    #[test]
    fn outputs_split_sorted_and_non_overlapping() {
        let a = seg_of(0, &(0..400).map(|i| (i * 2, Some(i))).collect::<Vec<_>>());
        let b = seg_of(0, &(0..400).map(|i| (i * 2 + 1, Some(i))).collect::<Vec<_>>());
        let (segs, st) = merge_segments(&[&a, &b], 1, true, 10, 2048).unwrap();
        assert!(segs.len() > 1, "expected a split, got {} segment(s)", segs.len());
        assert_eq!(st.entries_out, 800);
        let total: usize = segs.iter().map(|s| s.count()).sum();
        assert_eq!(total, 800);
        for w in segs.windows(2) {
            assert!(w[0].max_id() < w[1].min_id(), "levels must not overlap");
        }
        // Merged output contains every id exactly once, in order.
        let ids: Vec<u64> = segs.iter().flat_map(|s| s.ids().iter().copied()).collect();
        assert_eq!(ids, (0..800).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_input_set_produces_nothing() {
        let (segs, st) = merge_segments(&[], 1, true, 10, 1024).unwrap();
        assert!(segs.is_empty());
        assert_eq!(st, MergeStats::default());
    }

    /// Version `v` of record `id`; the tiny checksum domain forces both
    /// dedup (same content re-ingested) and overwrite (changed content).
    fn synth(id: u64, v: u64) -> Record {
        let checksum = nsdf_util::splitmix64(id.wrapping_mul(7).wrapping_add(v) % 64);
        Record::new(
            id,
            format!("g{:02}/obj-{id:04}", id % 11),
            ["dataverse", "seal"][(v % 2) as usize],
            256 + (id ^ v) % 1024,
            checksum,
        )
        .expect("valid record")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn merge_accounting_is_exact(old_raw in collection::vec((0u64..120, 0u64..4, any::<bool>()), 1..120),
                                     new_raw in collection::vec((0u64..120, 0u64..4, any::<bool>()), 1..120),
                                     drop_tombstones in any::<bool>()) {
            // Two generations, each reduced to one entry per id (builder needs
            // strictly increasing ids); `true` means a tombstone.
            let gen = |raw: &[(u64, u64, bool)]| -> BTreeMap<u64, Option<Record>> {
                raw.iter().map(|&(id, v, del)| (id, (!del).then(|| synth(id, v)))).collect()
            };
            let build = |entries: &BTreeMap<u64, Option<Record>>, level: u32| {
                let mut b = SegmentBuilder::new(level, 10);
                for (id, e) in entries {
                    b.push(*id, e.as_ref()).expect("increasing ids");
                }
                b.finish().expect("non-empty segment")
            };
            let old = gen(&old_raw);
            let new = gen(&new_raw);
            let (outs, stats) =
                merge_segments(&[&build(&new, 0), &build(&old, 1)], 1, drop_tombstones, 10, 2_000)
                    .expect("merge");

            // Oracle: winner per id is the newest entry; count what merge must
            // have dropped and why.
            let mut want: BTreeMap<u64, Option<Record>> = BTreeMap::new();
            let (mut dedup, mut overwritten, mut dropped_tombstones) = (0u64, 0u64, 0u64);
            let ids: std::collections::BTreeSet<u64> = old.keys().chain(new.keys()).copied().collect();
            for id in &ids {
                let winner = new.get(id).or_else(|| old.get(id)).unwrap();
                if let (Some(Some(loser)), true) = (old.get(id), new.contains_key(id)) {
                    // An older Put lost: dedup iff the winning Put carries the
                    // same content checksum, otherwise a plain overwrite.
                    match winner {
                        Some(w) if w.checksum == loser.checksum => dedup += 1,
                        _ => overwritten += 1,
                    }
                }
                if old.contains_key(id) && new.contains_key(id) && old[id].is_none() {
                    dropped_tombstones += 1; // shadowed older tombstone
                }
                if winner.is_none() && drop_tombstones {
                    dropped_tombstones += 1; // winning tombstone at the bottom
                    want.remove(id);
                } else {
                    want.insert(*id, winner.clone());
                }
            }
            prop_assert_eq!(stats.dedup_records, dedup, "dedup accounting");
            prop_assert_eq!(stats.overwritten_records, overwritten, "overwrite accounting");
            prop_assert_eq!(stats.tombstones_dropped, dropped_tombstones, "tombstone accounting");

            // Output is exactly the winners, in id order, split into sorted
            // non-overlapping runs at the target level.
            let mut got: Vec<(u64, Option<Record>)> = Vec::new();
            for seg in &outs {
                prop_assert_eq!(seg.level(), 1);
                for (i, id) in seg.ids().iter().enumerate() {
                    got.push((*id, match seg.entry_at(i).expect("decode entry") {
                        SegEntry::Put(r) => Some(r),
                        SegEntry::Tombstone => None,
                    }));
                }
            }
            for w in got.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "merged ids must be strictly increasing");
            }
            prop_assert_eq!(got, want.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(
                stats.entries_in,
                (old.len() + new.len()) as u64,
                "every input entry is consumed"
            );
        }
    }
}
