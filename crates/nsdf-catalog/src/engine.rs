//! The log-structured merge engine behind [`Catalog`].
//!
//! Writes land in a WAL object **before** they become visible, then in a
//! per-shard `Memtable`. Checkpoints turn memtables into immutable
//! sorted `Segment`s persisted through any [`ObjectStore`] — which is
//! the point: segments ride `put_many`/`get_many`, and therefore the WAN
//! simulator, tier cache, QoS scheduler, and chaos stacks, unchanged.
//! Leveled compaction keeps read amplification bounded and retires
//! shadowed versions with checksum-based dedup accounting.
//!
//! One run order, two read plans. A shard's runs rank newest first: the
//! memtable, then L0's segments newest→oldest (each its own run, since
//! they overlap), then each deeper level as one chained run.
//! `ShardState::runs` writes that order for the newest-wins merge of
//! `compact`, and `ShardState::newest` walks it for one id.
//!
//! * What returns everything merges: `scan_all`, `stats`, compaction and
//!   bulk load.
//! * What returns a few records filters first, then checks the winner:
//!   `find_by_prefix` and `find_by_source` test every memtable entry and
//!   every segment entry's name or source, sliced from its body, and keep
//!   a segment match only when `newest` names that very entry. A memtable
//!   match always wins.
//! * A point lookup is `newest` alone: the memtable, then per segment a
//!   bloom filter and a fence-index search, stopping at the first version
//!   it finds. Only reads book its bloom outcomes; a query's winner check
//!   and a write's liveness check do not.
//!
//! Durability protocol (each step individually crash-safe):
//!
//! 1. **WAL append** — `put` one `WalBatch` object; only after the store
//!    acks does the write apply to a memtable. Both happen under the
//!    engine's write mutex, so a reader can never observe a record whose
//!    WAL object has not been durably acknowledged ahead of it.
//! 2. **Checkpoint** — every non-empty memtable becomes an L0 segment;
//!    segments are `put_many`'d, installed in memory, and only then does a
//!    new manifest (with an advanced WAL floor) swap in. A crash between
//!    any two steps leaves orphans the next open quarantines, never a
//!    state that replays wrong.
//! 3. **Compaction** — whole-level merges write fresh segments, install
//!    them, then swap the manifest. Several shards' output segments share
//!    one `put_many` wave (closed once it holds `memtable_budget_bytes`),
//!    and a pass over all shards ends in one manifest. Deeper levels are
//!    strictly non-overlapping, so a point lookup probes at most one
//!    segment per level — and the per-segment bloom filter skips nearly
//!    all of those probes.
//! 4. **GC wave** — after the manifest ack, best-effort, retried at the
//!    next swap: everything that manifest stopped referencing (replaced
//!    segments, superseded manifests, the WAL tail below the floor) goes
//!    in one `delete_many`. Nothing is deleted before the manifest that
//!    un-references it is durable; a key whose delete failed transiently
//!    waits for the next swap's wave (`catalog.gc_failed` counts them).
//!
//! Recovery (`open`) loads the highest-numbered manifest that decodes
//! cleanly, fetches every referenced segment with one batched `get_many`,
//! verifies each against its manifest checksum, quarantines torn or
//! orphaned objects (one `delete_many` wave each for manifests, segments
//! and WAL objects), and replays the WAL tail floor..next in order. An
//! object in a retired framing, or sealed with the retired FNV-1a
//! trailer, is a format error: open returns it before any quarantine, so
//! a store this build cannot read loses nothing.

use crate::compact::{merge, merge_segments, MergeStats, Run, Version};
use crate::manifest::{
    manifest_key, parse_seq, segment_key, wal_key, Manifest, SegmentRef, WalBatch, WalOp,
};
use crate::memtable::{Entry, Memtable};
use crate::record::{Record, RecordRef};
use crate::segment::{Segment, SegmentBuilder};
use nsdf_storage::{MemoryStore, ObjectStore};
use nsdf_util::{sealed_checksum, splitmix64, Counter, NsdfError, Obs, Result, SimClock};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::ops::RangeBounds;
use std::ptr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual merge throughput for the compaction cost model: one byte per
/// nanosecond (≈1 GB/s), charged to the [`SimClock`] per merge.
const MERGE_NS_PER_BYTE: u64 = 1;

/// Bloom filter density of every segment: 10 bits per key, ≈1 % false
/// positives.
pub(crate) const BITS_PER_KEY: u32 = 10;

/// Growth factor between adjacent levels' byte budgets.
const LEVEL_RATIO: u64 = 8;

/// Tuning knobs for the LSM engine.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// Hash shards over the id space (1..=4096).
    pub shards: usize,
    /// Key prefix all engine objects live under.
    pub prefix: String,
    /// Total in-memory write-buffer budget across shards; crossing it
    /// triggers a checkpoint. Bulk load and compaction honour the same
    /// budget for segments staged ahead of a shared `put_many` wave.
    pub memtable_budget_bytes: usize,
    /// L0 segment count per shard that triggers compaction into L1.
    pub l0_compact_trigger: usize,
    /// Byte budget of L1; each deeper level gets 8× more.
    pub level_base_bytes: u64,
    /// Max write ops per WAL object during batched ingest.
    pub wal_batch_ops: usize,
    /// Split compaction/bulk-load output segments at roughly this size.
    pub segment_target_bytes: u64,
}

impl CatalogConfig {
    /// Defaults for `shards` shards.
    pub fn new(shards: usize) -> CatalogConfig {
        CatalogConfig {
            shards,
            prefix: "catalog".to_string(),
            memtable_budget_bytes: 8 << 20,
            l0_compact_trigger: 4,
            level_base_bytes: 4 << 20,
            wal_batch_ops: 1024,
            segment_target_bytes: 2 << 20,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.shards == 0 || self.shards > 4096 {
            return Err(NsdfError::invalid("shard count must be in 1..=4096"));
        }
        if self.memtable_budget_bytes == 0 || self.segment_target_bytes == 0 {
            return Err(NsdfError::invalid("byte budgets must be positive"));
        }
        if self.l0_compact_trigger == 0 || self.wal_batch_ops == 0 {
            return Err(NsdfError::invalid("l0_compact_trigger and wal_batch_ops must be >= 1"));
        }
        nsdf_storage::validate_key(&manifest_key(&self.prefix, 0))?;
        Ok(())
    }

    /// Byte budget of `level` (≥ 1): `level_base_bytes ·
    /// LEVEL_RATIO^(level-1)`. `None` when that overflows: no tree grows
    /// that deep.
    fn level_budget(&self, level: u32) -> Option<u64> {
        LEVEL_RATIO.checked_pow(level.saturating_sub(1))?.checked_mul(self.level_base_bytes)
    }
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig::new(64)
    }
}

/// Aggregate catalog statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogStats {
    /// Live records.
    pub records: u64,
    /// Total indexed bytes.
    pub total_bytes: u64,
    /// Records per source repository.
    pub per_source: BTreeMap<String, u64>,
    /// Checksums seen in more than one record (cross-repo duplicates).
    pub duplicate_checksums: u64,
}

/// Shape of one resident segment, for layout introspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment sequence number.
    pub seq: u64,
    /// Entries (tombstones included).
    pub count: u64,
    /// Smallest id.
    pub min_id: u64,
    /// Largest id.
    pub max_id: u64,
    /// Encoded size.
    pub bytes: u64,
}

/// A resident segment plus the identity the manifest knows it by.
struct SegHandle {
    seq: u64,
    checksum: u64,
    seg: Arc<Segment>,
}

struct ShardState {
    memtable: Memtable,
    /// `levels[0]` oldest→newest (overlapping); `levels[n≥1]` ascending,
    /// non-overlapping.
    levels: Vec<Vec<SegHandle>>,
}

impl ShardState {
    fn new() -> ShardState {
        ShardState { memtable: Memtable::new(), levels: Vec::new() }
    }

    fn has_segments(&self) -> bool {
        self.levels.iter().any(|l| !l.is_empty())
    }

    /// True when no level strictly deeper than `level` holds data.
    fn is_bottom(&self, level: u32) -> bool {
        self.levels.iter().skip(level as usize + 1).all(|l| l.is_empty())
    }

    fn level_bytes(&self, level: usize) -> u64 {
        self.levels.get(level).map_or(0, |l| l.iter().map(|h| h.seg.encoded_bytes()).sum())
    }

    /// The newest version of `id`, walking `runs`' order: the memtable, L0
    /// newest→oldest, then the one segment per deeper level that covers
    /// `id`; per segment the bloom filter, then `Segment::position`. Each
    /// bloom outcome is booked in `c` when given.
    fn newest(&self, id: u64, c: Option<&Counters>) -> Option<Version<'_>> {
        if let Some(e) = self.memtable.get(id) {
            return Some(Version::Mem(e));
        }
        let count = |counter: fn(&Counters) -> &Counter| c.map(|c| counter(c).inc());
        let l0 = self.levels.iter().take(1).flat_map(|l0| l0.iter().rev());
        let deeper = self.levels.iter().skip(1).filter_map(|level| {
            level.get(level.partition_point(|h| h.seg.min_id() <= id).checked_sub(1)?)
        });
        for seg in l0.chain(deeper).map(|h| &*h.seg).filter(|seg| seg.covers(id)) {
            if !seg.bloom().contains(id) {
                count(|c| &c.bloom_skip);
            } else if let Some(i) = seg.position(id) {
                count(|c| &c.bloom_hit);
                return Some(Version::Seg(seg, i));
            } else {
                count(|c| &c.bloom_fp);
            }
        }
        None
    }

    /// True when `id`'s newest version is a record.
    fn is_live(&self, id: u64) -> bool {
        self.newest(id, None).is_some_and(|v| !v.is_tombstone())
    }

    /// The shard's sorted runs over `levels`, newest first — the one place
    /// the recency order is written: the memtable, then L0's segments
    /// newest→oldest (overlapping, so each is its own run), then each
    /// deeper level as one chained run. Compaction runs right after a
    /// checkpoint, so its memtable run is empty.
    fn runs(&self, levels: impl RangeBounds<usize>) -> Vec<Run<'_>> {
        let mut runs = vec![Run::Mem(self.memtable.iter().peekable())];
        for (level, handles) in self.levels.iter().enumerate() {
            if !levels.contains(&level) {
                continue;
            }
            if level == 0 {
                runs.extend(handles.iter().rev().map(|h| Run::segments([&*h.seg])));
            } else {
                runs.push(Run::segments(handles.iter().map(|h| &*h.seg)));
            }
        }
        runs
    }

    /// Every live record, in id order and viewed in place: the merge's
    /// put winners.
    fn for_each_live(&self, mut f: impl FnMut(RecordRef<'_>)) {
        merge(self.runs(..), |_, winner| {
            if let Some(r) = winner.view()? {
                f(r);
            }
            Ok(())
        })
        .expect("segment verified at load");
    }
}

/// One shard's merge, done in memory and waiting for its output segments
/// to become durable in a wave shared with other shards.
struct StagedMerge {
    shard: usize,
    target: usize,
    /// Levels whose resident segments the outputs replace.
    consumed_levels: Vec<usize>,
    /// Encoded bytes of the consumed segments.
    bytes_in: u64,
    outputs: Vec<Segment>,
    stats: MergeStats,
}

/// The leading run of `handles` that belongs to `shard`: a persisted wave
/// lists each shard's segments contiguously, in staging order.
fn take_shard(
    handles: &mut std::iter::Peekable<impl Iterator<Item = (usize, SegHandle)>>,
    shard: usize,
) -> Vec<SegHandle> {
    std::iter::from_fn(|| handles.next_if(|(si, _)| *si == shard)).map(|(_, h)| h).collect()
}

/// Serialized mutable half of the engine: sequence counters and trim
/// bookkeeping. Holding this mutex is what orders WAL-ack before
/// visibility and quiesces writers during checkpoint/compaction.
struct WalState {
    next_wal: u64,
    wal_floor: u64,
    wal_trimmed_to: u64,
    next_seg: u64,
    next_manifest: u64,
    manifest_trimmed_to: u64,
    /// Garbage awaiting the GC wave that follows the next durable manifest:
    /// replaced segment keys (kept alive until then for crash recovery)
    /// and keys an earlier wave failed to delete. Every key here is below
    /// `next_seg` / `next_manifest - 1` / `wal_floor`, so none is ever
    /// written again.
    pending_delete: Vec<String>,
}

struct Counters {
    upserts: Counter,
    deletes: Counter,
    gets: Counter,
    bloom_hit: Counter,
    bloom_fp: Counter,
    bloom_skip: Counter,
    flushes: Counter,
    segments_written: Counter,
    segment_bytes_written: Counter,
    compactions: Counter,
    compaction_bytes: Counter,
    dedup_records: Counter,
    overwritten_records: Counter,
    tombstones_dropped: Counter,
    wal_batches: Counter,
    wal_trimmed: Counter,
    gc_failed: Counter,
    quarantined: Counter,
    bulk_records: Counter,
}

impl Counters {
    fn new(obs: &Obs) -> Counters {
        let o = obs.scoped("catalog");
        Counters {
            upserts: o.counter("upserts"),
            deletes: o.counter("deletes"),
            gets: o.counter("gets"),
            bloom_hit: o.counter("bloom_hit"),
            bloom_fp: o.counter("bloom_fp"),
            bloom_skip: o.counter("bloom_skip"),
            flushes: o.counter("flushes"),
            segments_written: o.counter("segments_written"),
            segment_bytes_written: o.counter("segment_bytes_written"),
            compactions: o.counter("compactions"),
            compaction_bytes: o.counter("compaction_bytes"),
            dedup_records: o.counter("dedup_records"),
            overwritten_records: o.counter("overwritten_records"),
            tombstones_dropped: o.counter("tombstones_dropped"),
            wal_batches: o.counter("wal_batches"),
            wal_trimmed: o.counter("wal_trimmed"),
            gc_failed: o.counter("gc_failed"),
            quarantined: o.counter("quarantined"),
            bulk_records: o.counter("bulk_records"),
        }
    }
}

/// The indexing service: an LSM tree over any [`ObjectStore`].
pub struct Catalog {
    store: Arc<dyn ObjectStore>,
    clock: SimClock,
    obs: Obs,
    cfg: CatalogConfig,
    wal: Mutex<WalState>,
    shards: Vec<RwLock<ShardState>>,
    live: AtomicU64,
    c: Counters,
}

impl Catalog {
    /// In-memory catalog with `shards` id-space shards — the lightweight
    /// configuration the examples and services use.
    pub fn new(shards: usize) -> Result<Catalog> {
        Catalog::open(Arc::new(MemoryStore::new()), SimClock::new(), CatalogConfig::new(shards))
    }

    /// Open (or create) a catalog on `store`, recovering any durable
    /// state: highest cleanly-decoding manifest, verified segments, WAL
    /// tail replay. Torn or orphaned objects are quarantined, never
    /// served.
    pub fn open(
        store: Arc<dyn ObjectStore>,
        clock: SimClock,
        cfg: CatalogConfig,
    ) -> Result<Catalog> {
        cfg.validate()?;
        let obs = Obs::default();
        let c = Counters::new(&obs);
        let mut cat = Catalog {
            shards: (0..cfg.shards).map(|_| RwLock::new(ShardState::new())).collect(),
            wal: Mutex::new(WalState {
                next_wal: 0,
                wal_floor: 0,
                wal_trimmed_to: 0,
                next_seg: 0,
                next_manifest: 0,
                manifest_trimmed_to: 0,
                pending_delete: Vec::new(),
            }),
            live: AtomicU64::new(0),
            store,
            clock,
            obs,
            cfg,
            c,
        };
        cat.recover()?;
        Ok(cat)
    }

    /// Report metrics into `obs` (scope `catalog.*`) instead of a private
    /// registry. Call before any operations.
    pub fn with_obs(mut self, obs: &Obs) -> Catalog {
        self.obs = obs.clone();
        self.c = Counters::new(obs);
        self
    }

    /// The metrics registry this engine reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The engine's virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn shard_index(&self, id: u64) -> usize {
        (splitmix64(id) % self.shards.len() as u64) as usize
    }

    // ---------------------------------------------------------------- reads

    /// Look up a record by id.
    pub fn get(&self, id: u64) -> Option<Record> {
        self.c.gets.inc();
        self.locate(&self.shards[self.shard_index(id)].read(), id)
    }

    /// Batched cross-shard lookup: ids are grouped per shard so each
    /// shard lock is taken once. Results align with `ids`.
    pub fn get_many(&self, ids: &[u64]) -> Vec<Option<Record>> {
        self.c.gets.add(ids.len() as u64);
        let mut out: Vec<Option<Record>> = vec![None; ids.len()];
        let mut by_shard: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.shards.len()];
        for (i, &id) in ids.iter().enumerate() {
            by_shard[self.shard_index(id)].push((i, id));
        }
        for (si, items) in by_shard.iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let st = self.shards[si].read();
            for &(i, id) in items {
                out[i] = self.locate(&st, id);
            }
        }
        out
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// True when the catalog holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records whose name starts with `prefix`, sorted by id. No
    /// secondary index — NSDF-Catalog favours ingest speed and a tiny
    /// footprint — but no merge either: names are compared as body bytes,
    /// and only a match is checked for being its id's newest version.
    pub fn find_by_prefix(&self, prefix: &str) -> Vec<Record> {
        self.find_where(|name, _| name.starts_with(prefix.as_bytes()))
    }

    /// All records from `source`, sorted by id; planned as
    /// [`Catalog::find_by_prefix`] is.
    pub fn find_by_source(&self, source: &str) -> Vec<Record> {
        self.find_where(|_, s| s == source.as_bytes())
    }

    /// Every live record, sorted by id — the differential harness's view.
    /// One merged scan.
    pub fn scan_all(&self) -> Vec<Record> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.read().for_each_live(|r| out.push(r.to_owned()));
        }
        out.sort_by_key(|r| r.id);
        out
    }

    /// Aggregate statistics (full merged scan).
    pub fn stats(&self) -> CatalogStats {
        let mut stats = CatalogStats::default();
        let mut checksums: HashMap<u64, u64> = HashMap::new();
        for shard in &self.shards {
            shard.read().for_each_live(|r| {
                stats.records += 1;
                stats.total_bytes += r.size;
                match stats.per_source.get_mut(r.source) {
                    Some(n) => *n += 1,
                    None => _ = stats.per_source.insert(r.source.to_owned(), 1),
                }
                *checksums.entry(r.checksum).or_insert(0) += 1;
            });
        }
        stats.duplicate_checksums = checksums.values().filter(|&&n| n > 1).count() as u64;
        stats
    }

    /// Per-shard, per-level segment layout, for invariant checks and
    /// space accounting. `layout()[shard][level]` lists segments in their
    /// resident order (L0 oldest→newest, deeper levels ascending).
    pub fn layout(&self) -> Vec<Vec<Vec<SegmentInfo>>> {
        self.shards
            .iter()
            .map(|sh| {
                let st = sh.read();
                st.levels
                    .iter()
                    .map(|level| {
                        level
                            .iter()
                            .map(|h| SegmentInfo {
                                seq: h.seq,
                                count: h.seg.count() as u64,
                                min_id: h.seg.min_id(),
                                max_id: h.seg.max_id(),
                                bytes: h.seg.encoded_bytes(),
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Every live record whose name and source pass `keep`, sorted by id:
    /// each memtable match (the newest run always wins), and each segment
    /// match that is its id's newest version. Tombstones have no text.
    fn find_where(&self, keep: impl Fn(&[u8], &[u8]) -> bool) -> Vec<Record> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let st = shard.read();
            let records = st.memtable.iter().filter_map(|(_, e)| e.record());
            out.extend(records.filter(|r| keep(r.name.as_bytes(), r.source.as_bytes())).cloned());
            for seg in st.levels.iter().flatten().map(|h| &*h.seg) {
                let found = |&i: &usize| {
                    let is_here = |v| matches!(v, Version::Seg(s, j) if ptr::eq(s, seg) && j == i);
                    seg.texts_at(i).is_some_and(|(name, source)| keep(name, source))
                        && st.newest(seg.ids()[i], None).is_some_and(is_here)
                };
                for i in (0..seg.count()).filter(found) {
                    let r = seg.record_at(i).expect("segment verified at load");
                    out.push(r.expect("a match is a record").to_owned());
                }
            }
        }
        out.sort_by_key(|r| r.id);
        out
    }

    /// `id`'s newest version as a record, booking bloom outcomes as a read.
    fn locate(&self, st: &ShardState, id: u64) -> Option<Record> {
        let version = st.newest(id, Some(&self.c))?;
        version.view().expect("segment verified at load").map(RecordRef::to_owned)
    }

    // --------------------------------------------------------------- writes

    /// Insert or replace a record. Returns `true` when the id was new.
    /// The write is durably logged before it becomes visible to readers.
    pub fn upsert(&self, record: Record) -> Result<bool> {
        Ok(self.ingest([record])? == 1)
    }

    /// Bulk ingest through the WAL in batches of
    /// [`CatalogConfig::wal_batch_ops`]; returns the number of *new* ids.
    /// Every record is first checked as [`Record::new`] checks it: one
    /// that fails is [`NsdfError::InvalidArg`], and then nothing is logged.
    pub fn ingest(&self, records: impl IntoIterator<Item = Record>) -> Result<u64> {
        let records: Vec<Record> = records.into_iter().collect();
        records.iter().try_for_each(Record::check)?;
        let mut w = self.wal.lock();
        let mut it = records.into_iter();
        let mut new = 0u64;
        loop {
            let ops: Vec<WalOp> =
                it.by_ref().take(self.cfg.wal_batch_ops).map(WalOp::Put).collect();
            if ops.is_empty() {
                break;
            }
            let batch = WalBatch { ops };
            self.append_wal_locked(&mut w, &batch)?;
            for op in batch.ops {
                let WalOp::Put(r) = op else { unreachable!("ingest logs only puts") };
                new += !self.apply(r.id, Entry::Put(r)) as u64;
                self.c.upserts.inc();
            }
            self.maybe_checkpoint_locked(&mut w)?;
        }
        Ok(new)
    }

    /// Delete by id. Returns `true` when the record existed.
    pub fn delete(&self, id: u64) -> Result<bool> {
        let mut w = self.wal.lock();
        // Writers hold the WAL mutex, so `id` is still live once logged.
        let shard = &self.shards[self.shard_index(id)];
        if !shard.read().is_live(id) {
            return Ok(false);
        }
        self.append_wal_locked(&mut w, &WalBatch { ops: vec![WalOp::Del(id)] })?;
        shard.write().memtable.insert(id, Entry::Tombstone);
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.c.deletes.inc();
        self.maybe_checkpoint_locked(&mut w)?;
        Ok(true)
    }

    /// Checkpoint all memtables into L0 segments and run any due
    /// compactions.
    pub fn flush(&self) -> Result<()> {
        let mut w = self.wal.lock();
        self.checkpoint_locked(&mut w)?;
        self.compact_locked(&mut w, false)
    }

    /// Checkpoint, then force a full merge of every shard down to one
    /// bottom level, retiring all shadowed versions and tombstones.
    pub fn compact(&self) -> Result<()> {
        let mut w = self.wal.lock();
        self.checkpoint_locked(&mut w)?;
        self.compact_locked(&mut w, true)
    }

    /// Flush buffered writes and persist a final manifest. The catalog
    /// remains usable; this is the clean-shutdown point before reopening
    /// elsewhere.
    pub fn close(&self) -> Result<()> {
        let mut w = self.wal.lock();
        self.checkpoint_locked(&mut w)
    }

    /// Bypass the WAL and load `records` straight into bottom-level
    /// segments — the fast path for harvesting an existing repository
    /// into an **empty** catalog. Later arrivals win on duplicate ids: each
    /// shard's batch, stably sorted, is one run of the merge.
    /// Durability: nothing is acknowledged until the single manifest swap
    /// at the end, so a crash mid-load recovers to the empty catalog. A
    /// record that fails [`Record::new`]'s checks is
    /// [`NsdfError::InvalidArg`] before anything is staged.
    pub fn bulk_load(&self, records: impl IntoIterator<Item = Record>) -> Result<u64> {
        let mut w = self.wal.lock();
        if !self.is_empty()
            || self
                .shards
                .iter()
                .any(|sh| !sh.read().memtable.is_empty() || sh.read().has_segments())
        {
            return Err(NsdfError::invalid("bulk_load requires an empty catalog"));
        }
        let mut by_shard: Vec<Vec<Record>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut total_in = 0u64;
        for r in records {
            r.check()?;
            total_in += 1;
            by_shard[self.shard_index(r.id)].push(r);
        }
        let mut live_total = 0u64;
        // Shards' segments share `put_many` waves: a wave closes once it
        // holds the write-buffer budget.
        let mut staged: Vec<(usize, Segment)> = Vec::new();
        for (si, slot) in by_shard.iter_mut().enumerate() {
            let mut batch = std::mem::take(slot);
            if batch.is_empty() {
                continue;
            }
            // Stable sort keeps arrival order within an id: last wins.
            batch.sort_by_key(|r| r.id);
            let (segs, stats) =
                merge_segments(vec![Run::Batch(&batch)], 1, true, self.cfg.segment_target_bytes)?;
            drop(batch);
            self.c.dedup_records.add(stats.dedup_records);
            self.c.overwritten_records.add(stats.overwritten_records);
            live_total += stats.entries_out;
            staged.extend(segs.into_iter().map(|seg| (si, seg)));
            let staged_bytes: u64 = staged.iter().map(|(_, seg)| seg.encoded_bytes()).sum();
            if staged_bytes >= self.cfg.memtable_budget_bytes as u64 {
                self.install_bulk_locked(&mut w, std::mem::take(&mut staged))?;
            }
        }
        self.install_bulk_locked(&mut w, staged)?;
        self.live.store(live_total, Ordering::Relaxed);
        self.c.bulk_records.add(total_in);
        self.write_manifest_locked(&mut w)?;
        Ok(live_total)
    }

    /// Put the WAL object and advance the sequence; the caller applies
    /// the ops to memtables only after this returns Ok (ack before
    /// visibility).
    fn append_wal_locked(&self, w: &mut WalState, batch: &WalBatch) -> Result<()> {
        self.store.put(&wal_key(&self.cfg.prefix, w.next_wal), &batch.encode())?;
        w.next_wal += 1;
        self.c.wal_batches.inc();
        Ok(())
    }

    /// Make `entry` the newest write of `id` and keep the live count;
    /// returns whether `id` was live before.
    fn apply(&self, id: u64, entry: Entry) -> bool {
        let mut st = self.shards[self.shard_index(id)].write();
        let (was_live, is_live) = (st.is_live(id), entry.record().is_some());
        st.memtable.insert(id, entry);
        match (was_live, is_live) {
            (false, true) => _ = self.live.fetch_add(1, Ordering::Relaxed),
            (true, false) => _ = self.live.fetch_sub(1, Ordering::Relaxed),
            _ => {}
        }
        was_live
    }

    // ------------------------------------------------- checkpoint & compact

    fn maybe_checkpoint_locked(&self, w: &mut WalState) -> Result<()> {
        let total: usize = self.shards.iter().map(|sh| sh.read().memtable.approx_bytes()).sum();
        if total < self.cfg.memtable_budget_bytes {
            return Ok(());
        }
        self.checkpoint_locked(w)?;
        self.compact_locked(w, false)
    }

    /// Turn every non-empty memtable into an L0 segment, durably, then
    /// swap the manifest and retire the covered WAL tail.
    fn checkpoint_locked(&self, w: &mut WalState) -> Result<()> {
        let mut staged: Vec<(usize, Segment)> = Vec::new();
        for (si, sh) in self.shards.iter().enumerate() {
            let st = sh.read();
            if st.memtable.is_empty() {
                continue;
            }
            let mut b = SegmentBuilder::new(0);
            for (&id, e) in st.memtable.iter() {
                b.push(id, e.record())?;
            }
            staged.push((si, b.finish().expect("non-empty memtable")));
        }
        if staged.is_empty() {
            return Ok(());
        }
        // One batched put carries every shard's new L0 segment.
        let handles = self.persist_segments_locked(w, staged)?;
        for (si, handle) in handles {
            let mut st = self.shards[si].write();
            if st.levels.is_empty() {
                st.levels.push(Vec::new());
            }
            st.levels[0].push(handle);
            st.memtable.clear();
        }
        self.c.flushes.inc();
        // Everything buffered is now in durable segments: the entire WAL
        // tail becomes redundant once the next manifest lands.
        w.wal_floor = w.next_wal;
        self.write_manifest_locked(w)
    }

    /// Encode, checksum, and `put_many` a batch of `(shard, segment)`
    /// pairs in one wave; `seal` is the one pass that hashes each.
    fn persist_segments_locked(
        &self,
        w: &mut WalState,
        segs: Vec<(usize, Segment)>,
    ) -> Result<Vec<(usize, SegHandle)>> {
        if segs.is_empty() {
            return Ok(Vec::new());
        }
        let mut handles = Vec::with_capacity(segs.len());
        let mut keys = Vec::with_capacity(segs.len());
        let mut blobs = Vec::with_capacity(segs.len());
        for (shard, seg) in segs {
            let bytes = seg.encode();
            let seq = w.next_seg;
            w.next_seg += 1;
            keys.push(segment_key(&self.cfg.prefix, shard as u32, seq));
            let checksum = sealed_checksum(&bytes);
            handles.push((shard, SegHandle { seq, checksum, seg: Arc::new(seg) }));
            blobs.push(bytes);
        }
        let items: Vec<(&str, &[u8])> =
            keys.iter().map(|k| k.as_str()).zip(blobs.iter().map(|b| b.as_slice())).collect();
        for res in self.store.put_many(&items) {
            res?;
        }
        self.c.segments_written.add(handles.len() as u64);
        self.c.segment_bytes_written.add(blobs.iter().map(|b| b.len() as u64).sum());
        Ok(handles)
    }

    /// Persist one wave of bulk-loaded segments and install each shard's
    /// run as its L1.
    fn install_bulk_locked(&self, w: &mut WalState, staged: Vec<(usize, Segment)>) -> Result<()> {
        let mut handles = self.persist_segments_locked(w, staged)?.into_iter().peekable();
        while let Some(&(si, _)) = handles.peek() {
            let run = take_shard(&mut handles, si);
            self.shards[si].write().levels = vec![Vec::new(), run];
        }
        Ok(())
    }

    /// Run due merges (or, when `force`, one full merge per shard down to
    /// the bottom level). Writers are quiesced by the caller's lock.
    ///
    /// Works in rounds over all shards: each round merges every shard's
    /// next due levels in memory, persists the outputs in shared
    /// `put_many` waves (a wave closes once it holds the write-buffer
    /// budget) and installs them; a merge that pushes its target level
    /// over budget is picked up by the next round. One manifest — and so
    /// one GC wave — covers the whole pass.
    fn compact_locked(&self, w: &mut WalState, force: bool) -> Result<()> {
        let mut swapped = false;
        loop {
            let mut merged = false;
            let mut staged: Vec<StagedMerge> = Vec::new();
            for si in 0..self.shards.len() {
                let Some(merge) = self.merge_shard(si, force)? else { continue };
                merged = true;
                staged.push(merge);
                let staged_bytes: u64 =
                    staged.iter().flat_map(|m| &m.outputs).map(Segment::encoded_bytes).sum();
                if staged_bytes >= self.cfg.memtable_budget_bytes as u64 {
                    self.install_merges_locked(w, std::mem::take(&mut staged))?;
                }
            }
            self.install_merges_locked(w, staged)?;
            swapped |= merged;
            if force || !merged {
                break;
            }
        }
        if swapped {
            self.write_manifest_locked(w)?;
        }
        Ok(())
    }

    /// Plan and run, in memory, the next merge due on shard `si`: L0 into
    /// L1 at the trigger, else the shallowest over-budget level into the
    /// one below; `force` merges every level into the deepest. Nothing is
    /// persisted or installed here.
    fn merge_shard(&self, si: usize, force: bool) -> Result<Option<StagedMerge>> {
        // Plan and merge under one read lock; writers are quiesced anyway.
        let st = self.shards[si].read();
        let plan = if force {
            st.has_segments().then(|| (0, (st.levels.len() - 1).max(1)))
        } else if st.levels.first().map_or(0, |l| l.len()) >= self.cfg.l0_compact_trigger {
            Some((0, 1))
        } else {
            (1..st.levels.len())
                .find(|&level| {
                    let budget = self.cfg.level_budget(level as u32).unwrap_or(u64::MAX);
                    st.level_bytes(level) > budget
                })
                .map(|level| (level, level + 1))
        };
        let Some((from, target)) = plan else { return Ok(None) };
        debug_assert!(st.memtable.is_empty(), "compaction follows a checkpoint");
        let consumed_levels: Vec<usize> = (from..=target)
            .filter(|&level| st.levels.get(level).is_some_and(|l| !l.is_empty()))
            .collect();
        let bytes_in: u64 = consumed_levels.iter().map(|&level| st.level_bytes(level)).sum();
        let (outputs, stats) = merge_segments(
            st.runs(from..=target),
            target as u32,
            st.is_bottom(target as u32),
            self.cfg.segment_target_bytes,
        )?;
        drop(st);
        self.clock.advance_ns(bytes_in.saturating_mul(MERGE_NS_PER_BYTE));
        Ok(Some(StagedMerge { shard: si, target, consumed_levels, bytes_in, outputs, stats }))
    }

    /// Make one wave of staged merges durable, then install each: the
    /// consumed levels drain into `pending_delete` (their objects stay on
    /// the store until the next manifest is acked) and the outputs become
    /// the target level.
    fn install_merges_locked(&self, w: &mut WalState, mut staged: Vec<StagedMerge>) -> Result<()> {
        let outputs = staged
            .iter_mut()
            .flat_map(|m| std::mem::take(&mut m.outputs).into_iter().map(|seg| (m.shard, seg)))
            .collect();
        let mut handles = self.persist_segments_locked(w, outputs)?.into_iter().peekable();
        for m in staged {
            let mut st = self.shards[m.shard].write();
            while st.levels.len() <= m.target {
                st.levels.push(Vec::new());
            }
            for level in m.consumed_levels {
                for h in st.levels[level].drain(..) {
                    w.pending_delete.push(segment_key(&self.cfg.prefix, m.shard as u32, h.seq));
                }
            }
            st.levels[m.target] = take_shard(&mut handles, m.shard);
            drop(st);
            self.c.compactions.inc();
            self.c.compaction_bytes.add(m.bytes_in);
            self.c.dedup_records.add(m.stats.dedup_records);
            self.c.overwritten_records.add(m.stats.overwritten_records);
            self.c.tombstones_dropped.add(m.stats.tombstones_dropped);
        }
        Ok(())
    }

    // ------------------------------------------------------------- manifest

    /// Write the next manifest describing the current resident tree; once
    /// it is acked, retire what it stopped referencing — replaced
    /// segments, superseded manifests, the WAL tail below the floor — in
    /// one best-effort GC wave.
    fn write_manifest_locked(&self, w: &mut WalState) -> Result<()> {
        let mut m = Manifest {
            shards: self.shards.len() as u32,
            next_seg: w.next_seg,
            wal_floor: w.wal_floor,
            live: self.len(),
            segments: Vec::new(),
        };
        for (si, sh) in self.shards.iter().enumerate() {
            let st = sh.read();
            for (level, handles) in st.levels.iter().enumerate() {
                for h in handles {
                    m.segments.push(SegmentRef {
                        shard: si as u32,
                        level: level as u32,
                        seq: h.seq,
                        count: h.seg.count() as u64,
                        min_id: h.seg.min_id(),
                        max_id: h.seg.max_id(),
                        bytes: h.seg.encoded_bytes(),
                        checksum: h.checksum,
                    });
                }
            }
        }
        let seq = w.next_manifest;
        self.store.put(&manifest_key(&self.cfg.prefix, seq), &m.encode())?;
        w.next_manifest = seq + 1;
        // Keep the previous manifest as a fallback; drop anything older.
        let keep_from = seq.saturating_sub(1);
        for old in w.manifest_trimmed_to..keep_from {
            w.pending_delete.push(manifest_key(&self.cfg.prefix, old));
        }
        w.manifest_trimmed_to = w.manifest_trimmed_to.max(keep_from);
        for old in w.wal_trimmed_to..w.wal_floor {
            w.pending_delete.push(wal_key(&self.cfg.prefix, old));
        }
        w.wal_trimmed_to = w.wal_floor;
        self.collect_garbage_locked(w);
        Ok(())
    }

    /// Durability step 4: delete everything in `pending_delete` in one
    /// wave. Only called right after a manifest ack, so every key is
    /// already unreferenced by durable state. A key whose delete failed
    /// transiently stays queued for the next swap's wave; `NotFound` means
    /// an earlier attempt landed and only its acknowledgement was lost.
    fn collect_garbage_locked(&self, w: &mut WalState) {
        if w.pending_delete.is_empty() {
            return;
        }
        let keys = std::mem::take(&mut w.pending_delete);
        let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
        let results = self.store.delete_many(&refs);
        let wal_dir = format!("{}/wal/", self.cfg.prefix);
        for (key, result) in keys.into_iter().zip(results) {
            match result {
                Ok(()) if key.starts_with(&wal_dir) => self.c.wal_trimmed.inc(),
                Err(NsdfError::Io(_)) => {
                    self.c.gc_failed.inc();
                    w.pending_delete.push(key);
                }
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------- recovery

    /// Load durable state: manifest, segments, WAL tail. See module docs.
    fn recover(&mut self) -> Result<()> {
        let prefix = self.cfg.prefix.clone();
        let manifests = self.store.list(&format!("{prefix}/manifest/"))?;
        let mut manifest: Option<(u64, Manifest)> = None;
        // Newest first; quarantine torn manifests until one decodes, and
        // any a crashed GC wave left behind below that one's fallback.
        let mut dead_manifests: Vec<&str> = Vec::new();
        for meta in manifests.iter().rev() {
            let Some(seq) = parse_seq(&meta.key) else { continue };
            if let Some((chosen, _)) = &manifest {
                if seq + 1 < *chosen {
                    dead_manifests.push(&meta.key);
                }
                continue;
            }
            match self.store.get(&meta.key).and_then(|b| Manifest::decode(&b)) {
                Ok(m) => manifest = Some((seq, m)),
                Err(e) if e.is_corrupt() => dead_manifests.push(&meta.key),
                Err(e) => return Err(e),
            }
        }
        self.quarantine(&dead_manifests);
        let (manifest_seq, manifest) = match manifest {
            Some((seq, m)) => (Some(seq), m),
            None => (None, Manifest { shards: self.shards.len() as u32, ..Default::default() }),
        };
        if manifest.shards as usize != self.shards.len() {
            return Err(NsdfError::invalid(format!(
                "catalog was built with {} shards, opened with {} — replay the source \
                 trace into a fresh catalog to reshard",
                manifest.shards,
                self.shards.len()
            )));
        }

        // Fetch and verify every referenced segment in one batched read.
        let keys: Vec<String> = manifest.segments.iter().map(|r| r.key(&prefix)).collect();
        let key_refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
        let fetched = self.store.get_many(&key_refs);
        for ((r, key), bytes) in manifest.segments.iter().zip(&keys).zip(fetched) {
            // Unsealing is the one hashing pass; the checksum is its trailer.
            let bytes = bytes?;
            let seg = Segment::decode(&bytes)?;
            if sealed_checksum(&bytes) != r.checksum || bytes.len() as u64 != r.bytes {
                return Err(NsdfError::corrupt(format!(
                    "segment {key} does not match its manifest entry"
                )));
            }
            if seg.count() as u64 != r.count
                || seg.min_id() != r.min_id
                || seg.max_id() != r.max_id
                || seg.level() != r.level
            {
                return Err(NsdfError::corrupt(format!(
                    "segment {key} shape disagrees with manifest"
                )));
            }
            if self.cfg.level_budget(r.level).is_none() {
                return Err(NsdfError::corrupt(format!("segment {key} is on level {}", r.level)));
            }
            let mut st = self.shards[r.shard as usize].write();
            while st.levels.len() <= r.level as usize {
                st.levels.push(Vec::new());
            }
            st.levels[r.level as usize].push(SegHandle {
                seq: r.seq,
                checksum: r.checksum,
                seg: Arc::new(seg),
            });
        }
        // Deeper levels keep ascending order regardless of manifest row
        // order; L0 row order (oldest→newest) is preserved as written.
        for sh in &self.shards {
            let mut st = sh.write();
            for level in st.levels.iter_mut().skip(1) {
                level.sort_by_key(|h| h.seg.min_id());
            }
        }
        self.live.store(manifest.live, Ordering::Relaxed);

        // Quarantine orphan segments (durably written, never referenced —
        // a crash between segment put and manifest swap leaves these).
        let referenced: std::collections::HashSet<&str> = keys.iter().map(|k| k.as_str()).collect();
        let segments = self.store.list(&format!("{prefix}/seg/"))?;
        let orphans: Vec<&str> = segments
            .iter()
            .map(|meta| meta.key.as_str())
            .filter(|key| !referenced.contains(key))
            .collect();
        self.quarantine(&orphans);

        // Replay the WAL tail in order; quarantine a torn batch and
        // everything after it (nothing past a torn write was ever acked).
        let mut w = self.wal.lock();
        w.next_seg = manifest.next_seg;
        w.wal_floor = manifest.wal_floor;
        w.wal_trimmed_to = manifest.wal_floor;
        w.next_manifest = manifest_seq.map_or(0, |s| s + 1);
        w.manifest_trimmed_to = manifest_seq.map_or(0, |s| s.saturating_sub(1));
        let mut stale: Vec<String> = Vec::new();
        let mut tail: Vec<(u64, String)> = Vec::new();
        for meta in self.store.list(&format!("{prefix}/wal/"))? {
            let Some(seq) = parse_seq(&meta.key) else { continue };
            if seq < manifest.wal_floor {
                stale.push(meta.key);
            } else {
                tail.push((seq, meta.key));
            }
        }
        tail.sort();
        w.next_wal = manifest.wal_floor;
        let mut poisoned_from = tail.len();
        let tail_keys: Vec<&str> = tail.iter().map(|(_, k)| k.as_str()).collect();
        let fetched = self.store.get_many(&tail_keys);
        for (i, ((seq, _), bytes)) in tail.iter().zip(fetched).enumerate() {
            let batch = match bytes.and_then(|b| WalBatch::decode(&b)) {
                Ok(b) => b,
                Err(e) if e.is_corrupt() => {
                    poisoned_from = i;
                    break;
                }
                Err(e) => return Err(e),
            };
            for op in batch.ops {
                match op {
                    WalOp::Put(r) => self.apply(r.id, Entry::Put(r)),
                    WalOp::Del(id) => self.apply(id, Entry::Tombstone),
                };
            }
            w.next_wal = seq + 1;
        }
        // One wave retires the WAL objects below the floor (trimmed) and
        // the poisoned tail (quarantined).
        let mut garbage: Vec<&str> = stale.iter().map(|k| k.as_str()).collect();
        garbage.extend(&tail_keys[poisoned_from..]);
        if !garbage.is_empty() {
            let results = self.store.delete_many(&garbage);
            let trimmed = results.iter().take(stale.len()).filter(|r| r.is_ok()).count();
            self.c.wal_trimmed.add(trimmed as u64);
            self.c.quarantined.add((garbage.len() - stale.len()) as u64);
        }
        Ok(())
    }

    /// One recovery wave: best-effort delete of torn or orphaned objects,
    /// each counted as quarantined. Failures are not queued for the next
    /// GC wave — these sequence numbers are about to be reused — so a
    /// survivor waits for the next open.
    fn quarantine(&self, keys: &[&str]) {
        if !keys.is_empty() {
            let _ = self.store.delete_many(keys);
            self.c.quarantined.add(keys.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, name: &str, source: &str) -> Record {
        Record::new(id, name, source, 100 + id, id % 7).unwrap()
    }

    fn small_cfg(shards: usize) -> CatalogConfig {
        CatalogConfig {
            memtable_budget_bytes: 2_000,
            level_base_bytes: 4_000,
            segment_target_bytes: 1_500,
            l0_compact_trigger: 3,
            wal_batch_ops: 16,
            ..CatalogConfig::new(shards)
        }
    }

    #[test]
    fn upsert_get_delete() {
        let cat = Catalog::new(16).unwrap();
        assert!(cat.upsert(rec(1, "a/b", "s1")).unwrap());
        assert!(!cat.upsert(rec(1, "a/b2", "s1")).unwrap()); // replace
        assert_eq!(cat.get(1).unwrap().name, "a/b2");
        assert!(cat.delete(1).unwrap());
        assert!(!cat.delete(1).unwrap());
        assert!(cat.get(1).is_none());
        assert!(cat.is_empty());
    }

    #[test]
    fn prefix_and_source_queries() {
        let cat = Catalog::new(8).unwrap();
        cat.ingest(
            (0..100)
                .map(|i| rec(i, &format!("soil/t{i:02}"), if i % 2 == 0 { "dv" } else { "mc" })),
        )
        .unwrap();
        assert_eq!(cat.len(), 100);
        let q = cat.find_by_prefix("soil/t0");
        assert_eq!(q.len(), 10);
        assert!(q.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(cat.find_by_source("dv").len(), 50);
        assert!(cat.find_by_prefix("nomatch").is_empty());
    }

    #[test]
    fn stats_count_duplicates() {
        let cat = Catalog::new(4).unwrap();
        cat.upsert(Record::new(1, "a", "s1", 10, 0xAA).unwrap()).unwrap();
        cat.upsert(Record::new(2, "b", "s2", 20, 0xAA).unwrap()).unwrap();
        cat.upsert(Record::new(3, "c", "s1", 30, 0xBB).unwrap()).unwrap();
        let st = cat.stats();
        assert_eq!(st.records, 3);
        assert_eq!(st.total_bytes, 60);
        assert_eq!(st.per_source["s1"], 2);
        assert_eq!(st.duplicate_checksums, 1);
    }

    #[test]
    fn shard_bounds() {
        assert!(Catalog::new(0).is_err());
        assert!(Catalog::new(5000).is_err());
        assert!(Catalog::new(1).is_ok());
    }

    #[test]
    fn queries_survive_flush_and_compaction() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let cat = Catalog::open(store, SimClock::new(), small_cfg(4)).unwrap();
        cat.ingest((0..500).map(|i| rec(i, &format!("a/n{i:03}"), "s"))).unwrap();
        cat.delete(7).unwrap();
        cat.upsert(rec(3, "a/replaced", "s")).unwrap();
        let before = cat.scan_all();
        cat.flush().unwrap();
        assert_eq!(cat.scan_all(), before, "flush must not change results");
        cat.compact().unwrap();
        assert_eq!(cat.scan_all(), before, "compaction must not change results");
        assert_eq!(cat.len(), 499);
        assert!(cat.get(7).is_none());
        assert_eq!(cat.get(3).unwrap().name, "a/replaced");
        // Forced compaction leaves exactly one populated level per shard,
        // tombstone-free, sorted and non-overlapping.
        for shard in cat.layout() {
            let populated: Vec<_> =
                shard.iter().enumerate().filter(|(_, l)| !l.is_empty()).collect();
            assert!(populated.len() <= 1);
            for (_, level) in populated {
                for pair in level.windows(2) {
                    assert!(pair[0].max_id < pair[1].min_id);
                }
            }
        }
    }

    #[test]
    fn close_and_reopen_recovers_everything() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let cfg = small_cfg(4);
        let cat = Catalog::open(Arc::clone(&store), SimClock::new(), cfg.clone()).unwrap();
        cat.ingest((0..300).map(|i| rec(i, &format!("x/n{i:03}"), "s"))).unwrap();
        cat.delete(100).unwrap();
        cat.upsert(rec(301, "x/tail", "s")).unwrap(); // sits in WAL tail
        let want = cat.scan_all();
        let want_stats = cat.stats();
        cat.close().unwrap();
        drop(cat);
        let back = Catalog::open(Arc::clone(&store), SimClock::new(), cfg.clone()).unwrap();
        assert_eq!(back.scan_all(), want);
        assert_eq!(back.stats(), want_stats);
        assert_eq!(back.len(), want.len() as u64);
        // And again without close(): the WAL tail alone must carry
        // anything unflushed.
        back.upsert(rec(999, "x/unflushed", "s")).unwrap();
        let want2 = back.scan_all();
        drop(back);
        let again = Catalog::open(store, SimClock::new(), cfg).unwrap();
        assert_eq!(again.scan_all(), want2);
    }

    #[test]
    fn reopen_with_different_shard_count_is_refused() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let cat = Catalog::open(Arc::clone(&store), SimClock::new(), small_cfg(4)).unwrap();
        cat.upsert(rec(1, "a", "s")).unwrap();
        cat.close().unwrap();
        drop(cat);
        assert!(Catalog::open(store, SimClock::new(), small_cfg(8)).is_err());
    }

    /// A closed 4-shard catalog that holds segments.
    fn closed_catalog() -> Arc<dyn ObjectStore> {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let cat = Catalog::open(Arc::clone(&store), SimClock::new(), small_cfg(4)).unwrap();
        cat.ingest((0..300).map(|i| rec(i, &format!("f/n{i:03}"), "s"))).unwrap();
        cat.close().unwrap();
        store
    }

    /// The newest manifest on `store`, with its key.
    fn newest_manifest(store: &dyn ObjectStore) -> (String, Manifest) {
        let key = store.list("catalog/manifest/").unwrap().pop().unwrap().key;
        let manifest = Manifest::decode(&store.get(&key).unwrap()).unwrap();
        (key, manifest)
    }

    #[test]
    fn a_forged_manifest_shard_fails_open_instead_of_panicking() {
        // A resealed manifest whose row names shard 9 of 4, with the
        // segment it names stored under that shard's key.
        let store = closed_catalog();
        let (key, mut manifest) = newest_manifest(&*store);
        let row = &mut manifest.segments[0];
        let seg = store.get(&row.key("catalog")).unwrap();
        row.shard = 9;
        store.put(&row.key("catalog"), &seg).unwrap();
        store.put(&key, &manifest.encode()).unwrap();
        match Catalog::open(Arc::clone(&store), SimClock::new(), small_cfg(4)) {
            Ok(_) => {
                assert!(store.get(&key).is_err(), "open fell back past a quarantined manifest")
            }
            Err(e) => assert!(e.is_corrupt(), "{e}"),
        }
    }

    #[test]
    fn a_forged_segment_level_fails_open_instead_of_allocating() {
        // A resealed manifest + segment pair that agree on level u32::MAX,
        // a level with no byte budget.
        let store = closed_catalog();
        let (key, mut manifest) = newest_manifest(&*store);
        let row = &mut manifest.segments[0];
        let seg_key = row.key("catalog");
        let mut body =
            nsdf_util::unseal(b"NSDFSG01", &store.get(&seg_key).unwrap()).unwrap().to_vec();
        body[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let forged = nsdf_util::seal(b"NSDFSG01", &body);
        (row.level, row.checksum) = (u32::MAX, nsdf_util::sealed_checksum(&forged));
        store.put(&seg_key, &forged).unwrap();
        store.put(&key, &manifest.encode()).unwrap();
        let err = Catalog::open(store, SimClock::new(), small_cfg(4)).err().expect("refused");
        assert!(err.is_corrupt(), "{err}");
    }

    #[test]
    fn a_forged_record_body_fails_open_instead_of_panicking() {
        // Resealed manifest + segment pairs whose first entry's body is bad:
        // each used to open `Ok` and panic at the first read of it.
        // Where the offset column and the payload start: past the 28-byte
        // header, the bloom filter (k, word count, words), ids and flags.
        let columns = |body: &[u8]| {
            let count = u64::from_le_bytes(body[4..12].try_into().unwrap()) as usize;
            let words = u32::from_le_bytes(body[32..36].try_into().unwrap()) as usize;
            let offsets = 28 + 8 + 8 * words + 9 * count;
            (offsets, offsets + 4 * (count + 1) + 8)
        };
        // Each edits a segment body, given its offset column and payload.
        type Forge = fn(&mut [u8], usize, usize);
        let forgeries: [(&str, Forge); 4] = [
            ("a name byte that is not UTF-8", |body, _, payload| body[payload + 18] = 0xff),
            ("a name length past the body", |body, _, payload| {
                body[payload + 16..payload + 18].copy_from_slice(&u16::MAX.to_le_bytes())
            }),
            ("a body shorter than 16 bytes", |body, offsets, _| {
                body[offsets + 4..offsets + 8].copy_from_slice(&10u32.to_le_bytes())
            }),
            ("a space in the source", |body, _, payload| {
                let name_len = u16::from_le_bytes([body[payload + 16], body[payload + 17]]);
                body[payload + 20 + name_len as usize] = b' '
            }),
        ];
        for (what, forge) in forgeries {
            let store = closed_catalog();
            let (key, mut manifest) = newest_manifest(&*store);
            let row = &mut manifest.segments[0];
            let seg_key = row.key("catalog");
            let mut body =
                nsdf_util::unseal(b"NSDFSG01", &store.get(&seg_key).unwrap()).unwrap().to_vec();
            let (offsets, payload) = columns(&body);
            forge(&mut body, offsets, payload);
            let forged = nsdf_util::seal(b"NSDFSG01", &body);
            row.checksum = nsdf_util::sealed_checksum(&forged);
            store.put(&seg_key, &forged).unwrap();
            store.put(&key, &manifest.encode()).unwrap();
            let err = Catalog::open(store, SimClock::new(), small_cfg(4)).err().expect(what);
            assert!(err.is_corrupt(), "{what}: {err}");
        }
    }

    #[test]
    fn retired_framings_fail_open_and_delete_nothing() {
        use crate::manifest::tests::retired_framing;
        let manifest = retired_framing("NSDFMF01", "shards 4\nnext-seg 0\nwal-floor 0\nlive 1\n");
        let wal = retired_framing("NSDFWL01", "put 1 s 101 a/b 0000000000000001\n");
        let objects = [(manifest_key("catalog", 0), manifest), (wal_key("catalog", 0), wal)];
        // Old manifest and WAL batch, then an old WAL batch alone.
        for objects in [&objects[..], &objects[1..]] {
            let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
            for (key, bytes) in objects {
                store.put(key, bytes).unwrap();
            }
            let before = store.list("catalog/").unwrap();
            let err = Catalog::open(Arc::clone(&store), SimClock::new(), small_cfg(4))
                .err()
                .expect("refused");
            assert!(matches!(err, NsdfError::Format(_)), "{err}");
            assert_eq!(store.list("catalog/").unwrap(), before, "nothing was quarantined");
        }
        // What a build that sealed with FNV-1a trailers left: manifest,
        // segments and a WAL tail, then a WAL tail alone.
        let full = closed_catalog();
        let cat = Catalog::open(Arc::clone(&full), SimClock::new(), small_cfg(4)).unwrap();
        cat.upsert(rec(900, "g/late", "s")).unwrap();
        let wal_only: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let cat = Catalog::open(Arc::clone(&wal_only), SimClock::new(), small_cfg(4)).unwrap();
        cat.ingest((0..10).map(|i| rec(i, &format!("w/n{i}"), "s"))).unwrap();
        for store in [full, wal_only] {
            for meta in store.list("catalog/").unwrap() {
                let mut bytes = store.get(&meta.key).unwrap();
                let framed = bytes.len() - 8;
                let retired = nsdf_util::fnv1a64(&bytes[..framed]);
                bytes[framed..].copy_from_slice(&retired.to_le_bytes());
                store.put(&meta.key, &bytes).unwrap();
            }
            let before = store.list("catalog/").unwrap();
            assert!(before.iter().any(|m| m.key.starts_with("catalog/wal/")));
            let err = Catalog::open(Arc::clone(&store), SimClock::new(), small_cfg(4))
                .err()
                .expect("refused");
            assert!(matches!(err, NsdfError::Format(_)), "{err}");
            assert_eq!(store.list("catalog/").unwrap(), before, "nothing was quarantined");
        }
    }

    #[test]
    fn a_record_built_past_new_is_refused_and_loses_no_acknowledged_write() {
        let base = rec(2, "b", "s");
        let long = "n".repeat(1 << 16);
        for bad in
            [Record { name: "has space".into(), ..base.clone() }, Record { name: long, ..base }]
        {
            let refused = |r: Result<u64>| assert!(matches!(r, Err(NsdfError::InvalidArg(_))));
            // Through the WAL: the call fails and logs nothing.
            let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
            let cat = Catalog::open(Arc::clone(&store), SimClock::new(), small_cfg(4)).unwrap();
            assert!(cat.upsert(rec(1, "a", "s")).unwrap());
            let logged = store.list("catalog/").unwrap();
            refused(cat.upsert(bad.clone()).map(u64::from));
            refused(cat.ingest([rec(4, "d", "s"), bad.clone()]));
            assert_eq!(store.list("catalog/").unwrap(), logged, "nothing was logged");
            assert!(cat.upsert(rec(3, "c", "s")).unwrap());
            let reopened =
                Catalog::open(Arc::clone(&store), SimClock::new(), small_cfg(4)).unwrap();
            assert_eq!(reopened.len(), 2);
            assert!(reopened.get(1).is_some() && reopened.get(3).is_some());
            // Bulk: the call fails, stages nothing and leaves the catalog empty.
            let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
            let cat = Catalog::open(Arc::clone(&store), SimClock::new(), small_cfg(4)).unwrap();
            let before = store.list("catalog/").unwrap();
            refused(cat.bulk_load([rec(1, "a", "s"), bad.clone()]));
            assert_eq!(store.list("catalog/").unwrap(), before, "nothing was staged");
            assert_eq!(cat.bulk_load([rec(1, "a", "s"), rec(3, "c", "s")]).unwrap(), 2);
            let reopened = Catalog::open(store, SimClock::new(), small_cfg(4)).unwrap();
            assert_eq!(reopened.len(), 2);
        }
    }

    #[test]
    fn bulk_load_requires_empty_and_dedups_last_wins() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let cat = Catalog::open(store, SimClock::new(), small_cfg(4)).unwrap();
        let mut batch: Vec<Record> = (0..200).map(|i| rec(i, &format!("b/n{i}"), "s")).collect();
        batch.push(Record::new(5, "b/newer", "s", 1, 42).unwrap()); // later wins
        batch.push(rec(6, "b/n6", "s")); // identical content re-ingest
        let live = cat.bulk_load(batch).unwrap();
        assert_eq!(live, 200);
        assert_eq!(cat.len(), 200);
        assert_eq!(cat.get(5).unwrap().name, "b/newer");
        let snap = cat.obs().snapshot();
        assert_eq!(snap.counter("catalog.dedup_records"), 1);
        assert_eq!(snap.counter("catalog.overwritten_records"), 1);
        assert!(cat.bulk_load(vec![rec(1000, "x", "s")]).is_err(), "must require empty");
    }

    #[test]
    fn compaction_counters_flow_into_obs() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let obs = Obs::default();
        let cat = Catalog::open(store, SimClock::new(), small_cfg(2)).unwrap().with_obs(&obs);
        // Two generations of the same ids: second pass rewrites half with
        // identical content (dedup) and half with new content.
        for pass in 0..2u64 {
            cat.ingest((0..200).map(|i| {
                let ck = if i % 2 == 0 { i } else { i + 1000 * pass };
                Record::new(i, format!("c/n{i}"), "s", i, ck).unwrap()
            }))
            .unwrap();
            cat.flush().unwrap();
        }
        cat.compact().unwrap();
        let snap = obs.snapshot();
        assert!(snap.counter("catalog.compactions") >= 1);
        assert!(snap.counter("catalog.dedup_records") >= 100);
        assert!(snap.counter("catalog.overwritten_records") >= 1);
        assert!(snap.counter("catalog.segments_written") >= 2);
        assert_eq!(cat.len(), 200);
    }

    #[test]
    fn point_lookups_lean_on_blooms() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let cat = Catalog::open(store, SimClock::new(), small_cfg(2)).unwrap();
        cat.ingest((0..400).map(|i| rec(i * 2, &format!("d/n{i}"), "s"))).unwrap();
        cat.flush().unwrap();
        for i in 0..400 {
            assert!(cat.get(i * 2).is_some());
            assert!(cat.get(i * 2 + 1).is_none());
        }
        let snap = cat.obs().snapshot();
        let (hit, fp, skip) = (
            snap.counter("catalog.bloom_hit"),
            snap.counter("catalog.bloom_fp"),
            snap.counter("catalog.bloom_skip"),
        );
        assert!(hit >= 400, "present keys must hit");
        // Absent keys inside covered ranges should overwhelmingly be
        // skipped by the filter rather than falsely admitted.
        assert!(fp as f64 <= 0.02 * (fp + skip).max(1) as f64, "fp={fp} skip={skip}");
    }

    #[test]
    fn queries_skip_shadowed_matches_and_book_no_bloom_probes() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let cfg = CatalogConfig { l0_compact_trigger: 8, ..small_cfg(1) };
        let cat = Catalog::open(store, SimClock::new(), cfg).unwrap();
        // L1: 1 and 4 match, 5 does not.
        cat.ingest([rec(1, "m/1", "s"), rec(4, "m/4", "s"), rec(5, "q/5", "s")]).unwrap();
        cat.compact().unwrap();
        // L0, older: 1 becomes a non-match, 5 a match; 2 and 3 match.
        cat.ingest([rec(1, "q/1", "s"), rec(2, "m/2", "s"), rec(3, "m/3", "s")]).unwrap();
        cat.ingest([rec(5, "m/5", "t")]).unwrap();
        cat.flush().unwrap();
        // L0, newer: 3 becomes a non-match. Memtable: 2 is deleted.
        cat.upsert(rec(3, "q/3", "s")).unwrap();
        cat.flush().unwrap();
        cat.delete(2).unwrap();
        let shape: Vec<usize> = cat.layout()[0].iter().map(Vec::len).collect();
        assert_eq!(shape, [2, 1], "two L0 segments over one L1 segment");

        let bloom = || {
            let snap = cat.obs().snapshot();
            ["hit", "fp", "skip"].map(|k| snap.counter(&format!("catalog.bloom_{k}")))
        };
        let before = bloom();
        let ids = |records: Vec<Record>| records.iter().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(ids(cat.find_by_prefix("m/")), [4, 5]);
        assert_eq!(ids(cat.find_by_source("s")), [1, 3, 4]);
        assert_eq!(ids(cat.find_by_source("t")), [5]);
        cat.upsert(rec(4, "m/4b", "s")).unwrap();
        cat.delete(1).unwrap();
        assert_eq!(bloom(), before, "queries and writes book no bloom probe");
        assert_eq!(ids(cat.find_by_prefix("m/")), [4, 5]);
        assert_eq!(cat.find_by_prefix("m/4")[0].name, "m/4b");
        assert!(cat.get(5).is_some());
        assert_ne!(bloom(), before, "a get books its probes");
    }

    #[test]
    fn concurrent_ingest_across_shards() {
        let cat = std::sync::Arc::new(Catalog::new(32).unwrap());
        crossbeam::scope(|s| {
            for t in 0..8u64 {
                let cat = cat.clone();
                s.spawn(move |_| {
                    for i in 0..200u64 {
                        cat.upsert(rec(t * 10_000 + i, &format!("t{t}/r{i}"), "src")).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(cat.len(), 1600);
        assert_eq!(cat.stats().records, 1600);
    }
}
