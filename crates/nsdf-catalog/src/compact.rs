//! The one newest-wins merge over sorted runs, and leveled compaction as
//! its caller.
//!
//! [`merge`] walks runs ranked **newest first** in id order. For every id
//! the newest version wins and is handed to the caller; every shadowed
//! version is attributed to exactly one bucket:
//!
//! * `dedup_records` — a shadowed `Put` whose content checksum equals the
//!   winning `Put`'s (the same bytes re-ingested, e.g. the same object
//!   harvested from two repositories);
//! * `overwritten_records` — a shadowed `Put` with different content (a
//!   genuine update, or a put under a winning tombstone);
//! * `tombstones_dropped` — a shadowed deletion marker.
//!
//! A [`Run`] is a concrete cursor over a memtable, chained segments or a
//! bulk-load batch; the batch, stably sorted in arrival order, may repeat
//! an id on consecutive entries, and then the later entry is newer.
//! The engine writes the recency order of a shard's runs once
//! (`ShardState::runs`: memtable, L0 newest→oldest, then each deeper
//! level as one chained run), and the merge has three callers, each of which
//! returns every winner: the full scans (`scan_all`, `stats`) view the put
//! winners in place, [`merge_segments`] (compaction) writes every winner
//! into fresh segments — a segment winner's body is copied as bytes, never
//! decoded — and bulk load hands it its sorted batch as one run. Name and
//! source queries do not merge: they filter entries first and check each
//! match against its id's newest version (`ShardState::newest`).
//!
//! Compaction never changes what queries observe — the differential
//! harness holds the engine bitwise-equal to a `BTreeMap` oracle across
//! every compaction. It also retires winning tombstones at the bottom
//! level (nothing deeper left to shadow), counted as `tombstones_dropped`.
//! Conservation invariant (asserted): `entries_in == entries_out +
//! dedup_records + overwritten_records + tombstones_dropped`.

use crate::memtable::Entry;
use crate::record::{Record, RecordRef};
use crate::segment::{Segment, SegmentBuilder};
use nsdf_util::Result;
use std::collections::btree_map;
use std::iter::Peekable;

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
}

/// One version of one id, wherever it lives; materialized on demand.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Version<'a> {
    /// A memtable entry.
    Mem(&'a Entry),
    /// Entry `i` of a segment.
    Seg(&'a Segment, usize),
    /// A record of a bulk-load batch.
    Batch(&'a Record),
}

impl<'a> Version<'a> {
    /// True for a deletion marker.
    pub(crate) fn is_tombstone(&self) -> bool {
        match *self {
            Version::Mem(e) => e.record().is_none(),
            Version::Seg(seg, i) => seg.is_tombstone(i),
            Version::Batch(_) => false,
        }
    }

    /// Content checksum without materializing a segment entry; `None`
    /// for a tombstone.
    fn checksum(&self) -> Option<u64> {
        match *self {
            Version::Mem(e) => e.record().map(|r| r.checksum),
            Version::Seg(seg, i) => seg.checksum_at(i),
            Version::Batch(r) => Some(r.checksum),
        }
    }

    /// The record viewed in place, `None` for a tombstone.
    pub(crate) fn view(&self) -> Result<Option<RecordRef<'a>>> {
        Ok(match *self {
            Version::Mem(e) => e.record().map(RecordRef::from),
            Version::Seg(seg, i) => seg.record_at(i)?,
            Version::Batch(r) => Some(RecordRef::from(r)),
        })
    }
}

/// One sorted run of versions, ascending by id; equal ids may repeat on
/// consecutive entries, the later one newer.
pub(crate) enum Run<'a> {
    /// A memtable's writes.
    Mem(Peekable<btree_map::Iter<'a, u64, Entry>>),
    /// Ascending, non-overlapping (never empty) segments; entry `i` of `segs[at]` next.
    Segs { segs: Vec<&'a Segment>, at: usize, i: usize },
    /// A bulk-load batch, stably sorted by id.
    Batch(&'a [Record]),
}

impl<'a> Run<'a> {
    /// `segs`, ascending and non-overlapping, chained into one run.
    pub(crate) fn segments(segs: impl IntoIterator<Item = &'a Segment>) -> Run<'a> {
        Run::Segs { segs: segs.into_iter().collect(), at: 0, i: 0 }
    }

    /// Id of the next version.
    fn peek(&mut self) -> Option<u64> {
        match self {
            Run::Mem(entries) => entries.peek().map(|(&id, _)| id),
            Run::Segs { segs, at, i } => segs.get(*at).map(|seg| seg.ids()[*i]),
            Run::Batch(batch) => batch.first().map(|r| r.id),
        }
    }

    /// Take the next version.
    fn pop(&mut self) -> Option<Version<'a>> {
        match self {
            Run::Mem(entries) => entries.next().map(|(_, e)| Version::Mem(e)),
            Run::Segs { segs, at, i } => {
                let (seg, entry) = (*segs.get(*at)?, *i);
                (*at, *i) = if entry + 1 == seg.count() { (*at + 1, 0) } else { (*at, entry + 1) };
                Some(Version::Seg(seg, entry))
            }
            Run::Batch(batch) => {
                let (r, rest) = batch.split_first()?;
                *batch = rest;
                Some(Version::Batch(r))
            }
        }
    }
}

/// The one newest-wins merge: walk `runs` (newest first) in id order and
/// hand each id's newest version to `win`, classifying every shadowed
/// version (see the module docs). `entries_out` is the caller's to count.
pub(crate) fn merge<'a>(
    mut runs: Vec<Run<'a>>,
    mut win: impl FnMut(u64, Version<'a>) -> Result<()>,
) -> Result<MergeStats> {
    let mut stats = MergeStats::default();
    let mut shadowed: Vec<Option<u64>> = Vec::new();
    while let Some(id) = runs.iter_mut().filter_map(Run::peek).min() {
        // The winner is the last version of `id` in the first run that
        // holds it; everything else it shadows. Peek first: `next_if` would
        // take and put back the head of every run without `id`, which costs
        // scans a quarter of their time.
        let mut winner = None;
        for run in &mut runs {
            let newest_run = winner.is_none();
            while run.peek() == Some(id) {
                let version = run.pop().expect("peeked");
                stats.entries_in += 1;
                let loser = if newest_run { winner.replace(version) } else { Some(version) };
                shadowed.extend(loser.map(|v| v.checksum()));
            }
        }
        let winner = winner.expect("some run holds the minimum id");
        for loser in shadowed.drain(..) {
            match loser {
                None => stats.tombstones_dropped += 1,
                Some(ck) if Some(ck) == winner.checksum() => stats.dedup_records += 1,
                Some(_) => stats.overwritten_records += 1,
            }
        }
        win(id, winner)?;
    }
    Ok(stats)
}

/// Compaction's (and bulk load's) caller of [`merge`]: write every winner
/// of `runs` (newest first) into fresh segments for `level`, splitting
/// output at roughly `target_bytes` per segment. Output segments are
/// sorted and non-overlapping by construction. Set `drop_tombstones` only
/// when no level deeper than the target holds data for this shard — a
/// dropped tombstone must have nothing left to shadow.
pub(crate) fn merge_segments(
    runs: Vec<Run<'_>>,
    level: u32,
    drop_tombstones: bool,
    target_bytes: u64,
) -> Result<(Vec<Segment>, MergeStats)> {
    let mut out = Vec::new();
    let mut builder = SegmentBuilder::new(level);
    let (mut entries_out, mut winning_tombstones) = (0u64, 0u64);
    let mut stats = merge(runs, |id, winner| {
        if winner.is_tombstone() && drop_tombstones {
            winning_tombstones += 1;
            return Ok(());
        }
        push_split(&mut builder, &mut out, level, target_bytes);
        match winner {
            Version::Seg(seg, i) => builder.push_from(id, seg, i)?,
            Version::Mem(e) => builder.push(id, e.record())?,
            Version::Batch(r) => builder.push(id, Some(r))?,
        }
        entries_out += 1;
        Ok(())
    })?;
    out.extend(builder.finish());
    stats.entries_out = entries_out;
    stats.tombstones_dropped += winning_tombstones;
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
fn push_split(builder: &mut SegmentBuilder, out: &mut Vec<Segment>, level: u32, target_bytes: u64) {
    if builder.count() > 0 && builder.approx_bytes() >= target_bytes {
        let full = std::mem::replace(builder, SegmentBuilder::new(level));
        out.push(full.finish().expect("non-empty builder"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::Memtable;
    use proptest::collection;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rec(id: u64, ck: u64) -> Record {
        Record::new(id, format!("n{id}"), "s", id * 10, ck).unwrap()
    }

    fn seg_of(level: u32, entries: &[(u64, Option<u64>)]) -> Segment {
        let mut b = SegmentBuilder::new(level);
        for &(id, ck) in entries {
            match ck {
                Some(ck) => b.push(id, Some(&rec(id, ck))).unwrap(),
                None => b.push(id, None).unwrap(),
            }
        }
        b.finish().unwrap()
    }

    /// Merge `segs` (newest first), each its own run, into level 1.
    fn merge_of(
        segs: &[&Segment],
        drop_tombstones: bool,
        target_bytes: u64,
    ) -> (Vec<Segment>, MergeStats) {
        let runs = segs.iter().map(|&s| Run::segments([s])).collect();
        merge_segments(runs, 1, drop_tombstones, target_bytes).unwrap()
    }

    #[test]
    fn newest_wins_and_buckets_are_exact() {
        // newer: 1=>ckA, 2=>tombstone, 3=>ckC
        // older: 1=>ckA (dedup), 2=>ckB (overwritten by tombstone), 4=>ckD
        let newer = seg_of(0, &[(1, Some(0xA)), (2, None), (3, Some(0xC))]);
        let older = seg_of(1, &[(1, Some(0xA)), (2, Some(0xB)), (4, Some(0xD))]);
        let (segs, st) = merge_of(&[&newer, &older], false, u64::MAX);
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
        let (segs, st) = merge_of(&[&newer, &older], true, u64::MAX);
        assert_eq!(segs[0].ids(), &[1, 3, 4]);
        assert_eq!(st.tombstones_dropped, 1);
        assert_eq!(st.entries_out, 3);
    }

    #[test]
    fn shadowed_tombstones_count_as_dropped() {
        let newer = seg_of(0, &[(7, Some(0x1))]);
        let older = seg_of(0, &[(7, None)]);
        let (_, st) = merge_of(&[&newer, &older], false, u64::MAX);
        assert_eq!(st.tombstones_dropped, 1);
        assert_eq!(st.entries_out, 1);
    }

    #[test]
    fn outputs_split_sorted_and_non_overlapping() {
        let a = seg_of(0, &(0..400).map(|i| (i * 2, Some(i))).collect::<Vec<_>>());
        let b = seg_of(0, &(0..400).map(|i| (i * 2 + 1, Some(i))).collect::<Vec<_>>());
        let (segs, st) = merge_of(&[&a, &b], true, 2048);
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
        let (segs, st) = merge_segments(Vec::new(), 1, true, 1024).unwrap();
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
                                     batch_raw in collection::vec((0u64..120, 0u64..4), 0..120),
                                     new_raw in collection::vec((0u64..120, 0u64..4, any::<bool>()), 1..120),
                                     drop_tombstones in any::<bool>()) {
            // Two generations, each reduced to one entry per id (builder needs
            // strictly increasing ids); `None` means a tombstone.
            let gen = |raw: &[(u64, u64, bool)]| -> BTreeMap<u64, Option<Record>> {
                raw.iter().map(|&(id, v, del)| (id, (!del).then(|| synth(id, v)))).collect()
            };
            let build = |entries: &BTreeMap<u64, Option<Record>>, level: u32| {
                let mut b = SegmentBuilder::new(level);
                for (id, e) in entries {
                    b.push(*id, e.as_ref()).expect("increasing ids");
                }
                b.finish().expect("non-empty segment")
            };
            let old = gen(&old_raw);
            let new = gen(&new_raw);
            // Between them, ranked as such, a bulk-load batch: stably sorted
            // by id, so repeated ids sit on consecutive entries, last newest.
            let mut batch: Vec<Record> = batch_raw.iter().map(|&(id, v)| synth(id, v)).collect();
            batch.sort_by_key(|r| r.id);
            let (new_seg, old_seg) = (build(&new, 0), build(&old, 1));
            let runs = vec![
                Run::segments([&new_seg]),
                Run::Batch(&batch),
                Run::segments([&old_seg]),
            ];
            let (outs, stats) = merge_segments(runs, 1, drop_tombstones, 2_000).expect("merge");

            // Oracle: every version of an id, newest first; the first wins and
            // each other one is dropped for exactly one reason.
            let mut want: BTreeMap<u64, Option<Record>> = BTreeMap::new();
            let (mut dedup, mut overwritten, mut dropped_tombstones) = (0u64, 0u64, 0u64);
            let ids: std::collections::BTreeSet<u64> =
                old.keys().chain(new.keys()).chain(batch.iter().map(|r| &r.id)).copied().collect();
            for id in &ids {
                let mut versions: Vec<Option<Record>> = new.get(id).cloned().into_iter().collect();
                versions.extend(batch.iter().rev().filter(|r| r.id == *id).map(|r| Some(r.clone())));
                versions.extend(old.get(id).cloned());
                let winner = versions[0].clone();
                for loser in &versions[1..] {
                    match (loser, &winner) {
                        (None, _) => dropped_tombstones += 1,
                        (Some(l), Some(w)) if l.checksum == w.checksum => dedup += 1,
                        (Some(_), _) => overwritten += 1,
                    }
                }
                if winner.is_none() && drop_tombstones {
                    dropped_tombstones += 1; // winning tombstone at the bottom
                } else {
                    want.insert(*id, winner);
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
                    got.push((*id, seg.record_at(i).expect("decode entry").map(RecordRef::to_owned)));
                }
            }
            for w in got.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "merged ids must be strictly increasing");
            }
            prop_assert_eq!(got, want.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(
                stats.entries_in,
                (old.len() + batch.len() + new.len()) as u64,
                "every input entry is consumed"
            );
        }
    }

    /// Compaction as it was before bodies moved as bytes: every winner is
    /// decoded into a [`Record`] and encoded again. The oracle of the
    /// byte path in [`merge_segments`].
    fn merge_segments_by_decoding(
        runs: Vec<Run<'_>>,
        level: u32,
        drop_tombstones: bool,
        target_bytes: u64,
    ) -> Result<(Vec<Segment>, MergeStats)> {
        let mut out = Vec::new();
        let mut builder = SegmentBuilder::new(level);
        let (mut entries_out, mut winning_tombstones) = (0u64, 0u64);
        let mut stats = merge(runs, |id, winner| {
            let record = winner.view()?.map(RecordRef::to_owned);
            if record.is_none() && drop_tombstones {
                winning_tombstones += 1;
                return Ok(());
            }
            push_split(&mut builder, &mut out, level, target_bytes);
            builder.push(id, record.as_ref())?;
            entries_out += 1;
            Ok(())
        })?;
        out.extend(builder.finish());
        stats.entries_out = entries_out;
        stats.tombstones_dropped += winning_tombstones;
        Ok((out, stats))
    }

    /// One entry per id of `raw` (`id`, version, deleted), later ones
    /// winning; `None` is a tombstone.
    fn entries(raw: &[(u64, u64, bool)]) -> BTreeMap<u64, Option<Record>> {
        raw.iter().map(|&(id, v, del)| (id, (!del).then(|| synth(id, v)))).collect()
    }

    /// `entries` as ascending, non-overlapping segments of at most `per`
    /// entries each.
    fn chained(entries: &BTreeMap<u64, Option<Record>>, per: usize, level: u32) -> Vec<Segment> {
        let entries: Vec<_> = entries.iter().collect();
        let segment = |chunk: &[(&u64, &Option<Record>)]| {
            let mut b = SegmentBuilder::new(level);
            for (id, e) in chunk {
                b.push(**id, e.as_ref()).expect("increasing ids");
            }
            b.finish().expect("non-empty chunk")
        };
        entries.chunks(per).map(segment).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn byte_copying_merge_matches_decoding_merge(
            mem_raw in collection::vec((0u64..150, 0u64..4, any::<bool>()), 0..60),
            newer_raw in collection::vec((0u64..150, 0u64..4, any::<bool>()), 1..80),
            older_raw in collection::vec((0u64..150, 0u64..4, any::<bool>()), 1..80),
            batch_raw in collection::vec((0u64..150, 0u64..4), 0..80),
            level_raw in collection::vec((0u64..150, 0u64..4, any::<bool>()), 1..150),
            per in 1usize..40,
            drop_tombstones in any::<bool>(),
            target_bytes in 200u64..4_000,
        ) {
            // Runs newest first: a memtable, two overlapping L0 segments, a
            // bulk batch with repeated ids, and a chained deeper level.
            let mut mem = Memtable::new();
            for (id, e) in entries(&mem_raw) {
                mem.insert(id, e.map_or(Entry::Tombstone, Entry::Put));
            }
            let newer = chained(&entries(&newer_raw), usize::MAX, 0);
            let older = chained(&entries(&older_raw), usize::MAX, 0);
            let mut batch: Vec<Record> = batch_raw.iter().map(|&(id, v)| synth(id, v)).collect();
            batch.sort_by_key(|r| r.id);
            let level = chained(&entries(&level_raw), per, 1);
            let runs = || {
                vec![
                    Run::Mem(mem.iter().peekable()),
                    Run::segments(&newer),
                    Run::segments(&older),
                    Run::Batch(&batch),
                    Run::segments(&level),
                ]
            };
            let (got, got_stats) = merge_segments(runs(), 2, drop_tombstones, target_bytes)
                .expect("merge");
            let (want, want_stats) =
                merge_segments_by_decoding(runs(), 2, drop_tombstones, target_bytes)
                    .expect("oracle merge");
            prop_assert_eq!(got_stats, want_stats);
            let encode = |segs: &[Segment]| segs.iter().map(Segment::encode).collect::<Vec<_>>();
            prop_assert_eq!(encode(&got), encode(&want));
        }
    }
}
