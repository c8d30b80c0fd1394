//! The IDX dataset: HZ-ordered, block-compressed, multi-resolution array
//! storage over any [`ObjectStore`] — this crate's reproduction of the
//! OpenVisus data fabric the NSDF dashboard streams from (paper §III-A).
//!
//! Layout: one text header object (`<base>/dataset.idx`) plus one object
//! per block per field per timestep (`<base>/f<F>/t<T>/b<BLOCK>.bin`): its
//! codec stream, [`nsdf_util::seal`]ed so the checksum travels with it.
//! Samples live at their HZ address; block `b` covers HZ addresses
//! `[b * 2^bits_per_block, (b+1) * 2^bits_per_block)`. Because HZ order is
//! resolution-major, a coarse query touches only the first few blocks, and
//! because it is spatially coherent, a small region at full resolution
//! touches few blocks — those two properties are the whole point of the
//! format and are benchmarked in `bench/hz_locality.rs`.
//!
//! Writes have one path, `IdxDataset::write_region`: a tile
//! ([`IdxDataset::write_box`]) and a whole grid ([`IdxDataset::write_raster`],
//! [`IdxDataset::write_volume`]) are both scattered into per-block
//! images, merged into the handle's write buffer and uploaded by the call
//! that completes a block — which, for a whole grid, is every block it
//! touches. A tile write *issues* its uploads on the handle's
//! [`UploadLanes`], so consecutive tiles share the WAN's streams. A
//! whole-grid write blocks until they are stored, unless the caller runs
//! it inside an issue frame of its own ([`UploadLanes::issue`], as a
//! task-graph run does): its upload waves are then issued on the caller's
//! lanes, and the caller owns the join.

use crate::meta::IdxMeta;
use crate::session::CancelToken;
use nsdf_compress::{AdaptiveCodec, Codec};
use nsdf_hz::HzCurve;
use nsdf_storage::{ObjectStore, UploadLanes};
use nsdf_util::obs::{Counter, Gauge, Obs};
use nsdf_util::par::{num_threads, try_par_map_owned};
use nsdf_util::{
    seal, unseal, Box2i, Box3i, Lru, NsdfError, Raster, Result, Sample, SimClock, Volume,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Accounting for one write ("convert to IDX") operation — the size numbers
/// behind the paper's "~20 % smaller than TIFF" claim (§IV-B), plus the
/// ingest-pipeline counters mirroring [`QueryStats`] on the read side.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteStats {
    /// Blocks this call uploaded: the blocks it completed (every one a
    /// full-grid write touches; or everything pending, when too much would
    /// have stayed behind), not the blocks it touched.
    pub blocks_written: u64,
    /// Blocks this write touched and left in the write buffer instead of
    /// uploading — each one an upload that write-combining deferred.
    pub blocks_combined: u64,
    /// Dirty blocks the handle's write buffer held when the call returned
    /// (see [`IdxDataset::flush`]).
    pub blocks_pending: u64,
    /// Uncompressed payload bytes.
    pub bytes_raw: u64,
    /// Stored bytes: the sealed, compressed block objects put.
    pub bytes_stored: u64,
    /// Base images of partially covered blocks fetched back from the store
    /// for read-modify-write merges.
    pub rmw_fetches: u64,
    /// Batched `put_many` calls issued to the object store.
    pub put_batches: u64,
    /// Upload batch size, and the handle's bound on uploads in flight, in
    /// force for this write.
    pub write_concurrency: u64,
    /// Wall-clock seconds spent encoding and sealing the uploaded blocks.
    pub encode_secs: f64,
    /// Wall-clock seconds spent uploading encoded blocks.
    pub put_secs: f64,
    /// Blocks stored per codec, keyed by the codec's textual name. For
    /// static-codec datasets this holds a single entry; for adaptive
    /// datasets it records what the per-block selector actually chose.
    pub codecs: BTreeMap<String, u64>,
}

impl WriteStats {
    /// Stored size as a fraction of raw size.
    pub fn compression_fraction(&self) -> f64 {
        if self.bytes_raw == 0 {
            1.0
        } else {
            self.bytes_stored as f64 / self.bytes_raw as f64
        }
    }

    /// Fold another write's accounting into this one (used by tile-by-tile
    /// ingest pipelines aggregating per-tile stats). Counts add up;
    /// `blocks_pending` and `write_concurrency` are levels and keep their
    /// peak.
    pub fn merge(&mut self, other: &WriteStats) {
        self.blocks_written += other.blocks_written;
        self.blocks_combined += other.blocks_combined;
        self.blocks_pending = self.blocks_pending.max(other.blocks_pending);
        self.bytes_raw += other.bytes_raw;
        self.bytes_stored += other.bytes_stored;
        self.rmw_fetches += other.rmw_fetches;
        self.put_batches += other.put_batches;
        self.write_concurrency = self.write_concurrency.max(other.write_concurrency);
        self.encode_secs += other.encode_secs;
        self.put_secs += other.put_secs;
        for (name, n) in &other.codecs {
            *self.codecs.entry(name.clone()).or_insert(0) += n;
        }
    }
}

/// Accounting for one box query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Distinct blocks the query needed.
    pub blocks_touched: u64,
    /// Blocks that were missing from storage (padding or never written).
    pub blocks_missing: u64,
    /// Compressed bytes fetched from the store.
    pub bytes_fetched: u64,
    /// Samples produced in the output raster.
    pub samples_out: u64,
    /// Blocks run through the codec by this query.
    pub blocks_decoded: u64,
    /// Raw bytes produced by the codec for this query (decoded output, not
    /// compressed input) — with [`QueryStats::decode_secs`] this yields the
    /// wall-clock decode throughput surfaced by the dashboard.
    pub bytes_decoded: u64,
    /// Blocks served from the decoded-block cache without refetch/redecode.
    pub decoded_cache_hits: u64,
    /// Batched `get_many` calls issued to the object store.
    pub fetch_batches: u64,
    /// Fetch batch size (block fetch concurrency) in force for this query.
    pub fetch_concurrency: u64,
    /// Wall-clock seconds spent fetching encoded blocks from the store.
    pub fetch_secs: f64,
    /// Wall-clock seconds spent decoding fetched blocks.
    pub decode_secs: f64,
    /// Resolution level the caller asked for.
    pub requested_level: u32,
    /// Resolution level actually delivered (`< requested_level` when the
    /// query degraded because finer blocks were unavailable).
    pub delivered_level: u32,
    /// Blocks whose fetch failed with a transport error (not `NotFound`)
    /// and were abandoned by a degraded read.
    pub blocks_unavailable: u64,
    /// True when the query fell back to a coarser level than requested.
    pub degraded: bool,
}

impl QueryStats {
    /// Fold another query's accounting into this one (used by progressive
    /// reads and dashboards aggregating per-frame stats).
    pub fn merge(&mut self, other: &QueryStats) {
        self.blocks_touched += other.blocks_touched;
        self.blocks_missing += other.blocks_missing;
        self.bytes_fetched += other.bytes_fetched;
        self.samples_out += other.samples_out;
        self.blocks_decoded += other.blocks_decoded;
        self.bytes_decoded += other.bytes_decoded;
        self.decoded_cache_hits += other.decoded_cache_hits;
        self.fetch_batches += other.fetch_batches;
        self.fetch_concurrency = self.fetch_concurrency.max(other.fetch_concurrency);
        self.fetch_secs += other.fetch_secs;
        self.decode_secs += other.decode_secs;
        self.requested_level = self.requested_level.max(other.requested_level);
        self.delivered_level = self.delivered_level.max(other.delivered_level);
        self.blocks_unavailable += other.blocks_unavailable;
        self.degraded |= other.degraded;
    }
}

/// Identity of one decoded block: (field index, timestep, block index).
pub(crate) type BlockKey = (usize, u32, u64);
/// Decoded raw payload, or `None` for a block known missing from storage.
pub(crate) type DecodedEntry = Option<Arc<Vec<u8>>>;

/// Byte-budgeted FIFO cache of decoded (raw, uncompressed) block images,
/// keyed by `(field, time, block)` — the one block cache type of the crate:
/// the dataset's decoded cache and every session's resident set are both
/// one of these, holding `Arc`s of the same images. `None` records a block
/// known to be missing from storage, so progressive refinement neither
/// refetches nor redecodes — nor re-misses — a block it already resolved.
///
/// The recency queue is an [`Lru`] that is never touched on a hit, so it
/// evicts by latest insertion.
pub(crate) struct DecodedCache {
    lru: Lru<BlockKey, DecodedEntry>,
    budget: u64,
    /// Bumped by every write-side invalidation. A read records the epoch
    /// when it partitions against the cache; if a write lands while its
    /// fetch/decode is in flight the epochs no longer match and the decoded
    /// payloads (possibly pre-write) still answer that read but are never
    /// installed — so a racing read can never re-populate an entry a write
    /// just invalidated.
    write_epoch: u64,
}

impl DecodedCache {
    pub(crate) fn new(budget: u64) -> Self {
        DecodedCache { lru: Lru::default(), budget, write_epoch: 0 }
    }

    pub(crate) fn get(&self, key: &BlockKey) -> Option<DecodedEntry> {
        self.lru.entries.get(key).map(|(entry, ..)| entry.clone())
    }

    /// Admit `value` as the newest entry; returns how many resident entries
    /// were evicted to respect the byte budget (reported as
    /// `decoded_evictions.budget`).
    pub(crate) fn insert(&mut self, key: BlockKey, value: DecodedEntry) -> u64 {
        let cost = value.as_ref().map_or(0, |d| d.len() as u64);
        if cost > self.budget {
            return 0; // Larger than the whole budget: never admit.
        }
        self.lru.insert(key, value, cost);
        let mut evicted = 0;
        while self.lru.bytes() > self.budget {
            let Some(victim) = self.lru.victim() else { break };
            self.lru.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    /// Drop `key`; true when a resident entry was actually invalidated
    /// (reported as `decoded_evictions.epoch` on the write path).
    fn remove(&mut self, key: &BlockKey) -> bool {
        self.lru.remove(key)
    }
}

/// Tests inspect the queue through the cache.
#[cfg(test)]
impl std::ops::Deref for DecodedCache {
    type Target = Lru<BlockKey, DecodedEntry>;

    fn deref(&self) -> &Self::Target {
        &self.lru
    }
}

/// The samples one write brings to one block: a raw block image holding
/// them at their offsets, zeros elsewhere, and the set of offsets they
/// cover — so merging them needs no sample type.
struct BlockUpdate {
    raw: Vec<u8>,
    covered: BitSet,
    /// How many of the block's samples lie inside the logical grid: the
    /// block is complete once that many distinct offsets are written.
    in_bounds: u64,
}

/// A growable set of small indices, one bit each, that counts its members.
#[derive(Default)]
struct BitSet {
    words: Vec<u64>,
    ones: u64,
}

impl BitSet {
    fn insert(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.ones += u64::from(self.words[word] & bit == 0);
        self.words[word] |= bit;
    }

    fn contains(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|word| word & (1 << (i % 64)) != 0)
    }
}

/// One dirty block held back by the write buffer.
struct PendingBlock {
    /// The block's full raw image: its base contents plus every update
    /// merged so far. Reads through the handle share it; a merge copies on
    /// write, so a reader's snapshot never changes under it.
    raw: Arc<Vec<u8>>,
    /// The in-block offsets written since the block entered the buffer.
    /// Base contents do not count: the block is complete when the *updates*
    /// cover every in-bounds sample.
    covered: BitSet,
    /// Chosen for an upload that has not reported back. A merge clears it,
    /// so a store success retires only the image the upload carried.
    uploading: bool,
}

impl PendingBlock {
    /// Copy the samples `update` covers over this image.
    fn merge(&mut self, update: &BlockUpdate, sample_size: usize) {
        let raw = Arc::make_mut(&mut self.raw);
        for (w, &word) in update.covered.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let offset = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let at = offset * sample_size..(offset + 1) * sample_size;
                raw[at.clone()].copy_from_slice(&update.raw[at]);
                self.covered.insert(offset);
            }
        }
        self.uploading = false;
    }
}

/// The write-combining buffer of one handle: dirty block images keyed
/// `(field, time, block)`, under a byte budget.
struct WriteBuffer {
    blocks: BTreeMap<BlockKey, PendingBlock>,
    bytes: u64,
    /// What a call may leave pending: [`WRITE_BUFFER_BYTES`], lowered only
    /// by this crate's tests.
    budget: u64,
    /// On a handle obtained from `create`: per field and timestep, the
    /// blocks an upload was ever attempted for (one bit each). No other
    /// block can be in the store, so a partial write starts it from zeros
    /// without asking. `None` on an opened dataset, whose stored blocks are
    /// unknown.
    attempted: Option<HashMap<(usize, u32), BitSet>>,
}

impl WriteBuffer {
    fn new(created: bool) -> Self {
        WriteBuffer {
            blocks: BTreeMap::new(),
            bytes: 0,
            budget: WRITE_BUFFER_BYTES,
            attempted: created.then(HashMap::new),
        }
    }

    /// True when `key` cannot be in the store (and is not pending either).
    fn known_absent(&self, (field_idx, time, block): &BlockKey) -> bool {
        self.attempted.as_ref().is_some_and(|attempted| {
            !attempted.get(&(*field_idx, *time)).is_some_and(|set| set.contains(*block as usize))
        })
    }

    /// Merge `update` into `key`'s image — `base` (zeros when `None`) if the
    /// block was not pending yet — and return how many offsets are covered.
    /// An update that covers every in-bounds sample, or that has nothing to
    /// go over, becomes the block's image itself, moved in without a copy.
    fn merge(
        &mut self,
        key: BlockKey,
        base: DecodedEntry,
        update: BlockUpdate,
        sample_size: usize,
    ) -> u64 {
        let pending = self.blocks.remove(&key);
        if pending.is_none() {
            self.bytes += update.raw.len() as u64;
        }
        let fresh = |raw| PendingBlock { raw, covered: BitSet::default(), uploading: false };
        let block = match pending.or(base.map(fresh)) {
            Some(mut block) if update.covered.ones < update.in_bounds => {
                block.merge(&update, sample_size);
                block
            }
            _ => PendingBlock { covered: update.covered, ..fresh(Arc::new(update.raw)) },
        };
        let covered = block.covered.ones;
        self.blocks.insert(key, block);
        covered
    }

    /// Mark the pending blocks `wanted` picks as in flight and return their
    /// images in `(field, time, block)` order.
    fn check_out(&mut self, wanted: impl Fn(&BlockKey) -> bool) -> Vec<(BlockKey, Arc<Vec<u8>>)> {
        self.blocks
            .iter_mut()
            .filter(|(key, _)| wanted(key))
            .map(|(key, block)| {
                block.uploading = true;
                (*key, Arc::clone(&block.raw))
            })
            .collect()
    }

    /// `key` reached the store: drop its image unless a merge dirtied it
    /// again while the upload was in flight.
    fn retire(&mut self, key: &BlockKey) {
        if self.blocks.get(key).is_some_and(|block| block.uploading) {
            let block = self.blocks.remove(key).expect("present above");
            self.bytes -= block.raw.len() as u64;
        }
    }
}

/// What one handle keeps in RAM about blocks, under one lock so a read's
/// partition sees pending images and decoded payloads as of one instant.
struct BlockState {
    decoded: DecodedCache,
    pending: WriteBuffer,
}

/// Block id of an empty level cursor: no block reaches it.
const NO_BLOCK: u64 = u64::MAX;

/// Which of the scatter's and gather's 64 current blocks `block` uses: its
/// bit length, one cursor per HZ level (block 0 holds levels
/// `0..=bits_per_block`, block `b > 0` lies within one level). A block id
/// has at most 62 bits, as an HZ address does.
fn level_cursor(block: u64) -> usize {
    (u64::BITS - block.leading_zeros()) as usize
}

/// Envelope magic of a stored block. No codec tag (0–6) is `N`, so only a
/// bare static-codec stream stored before the envelope could be mistaken.
const BLOCK_MAGIC: &[u8; 8] = b"NSDFBK01";

/// Default number of blocks fetched per `get_many` batch.
const DEFAULT_FETCH_CONCURRENCY: usize = 8;

/// Default number of blocks uploaded per `put_many` batch.
const DEFAULT_WRITE_CONCURRENCY: usize = 8;

/// Default decoded-block cache budget (raw bytes).
const DEFAULT_DECODED_CACHE_BYTES: u64 = 256 << 20;

/// Raw bytes of dirty block images a [`IdxDataset::write_box`] call may
/// leave in the write buffer; a call that would leave more uploads them all.
const WRITE_BUFFER_BYTES: u64 = 64 << 20;

/// Per-axis `(origin, stride, count)` of a box query's output grid at one
/// resolution level; a 2-D query is one sample deep.
pub(crate) type LevelGrid = [(i64, i64, usize); 3];

/// How one [`IdxDataset::resolve`] runs its read waves: the registry and
/// label of the span opened around each `get_many` (the `decode` span
/// follows in the same registry), the `*_vns` counter that accumulates the
/// clock advance, and the clock it is read from; whether fetched payloads
/// go into the decoded cache (not for the base images `write_box` is about
/// to supersede); and the token checked on that clock before each wave.
pub(crate) struct WaveReport<'a> {
    pub(crate) obs: &'a Obs,
    pub(crate) span: &'a str,
    pub(crate) vns: &'a Counter,
    pub(crate) clock: &'a SimClock,
    pub(crate) install: bool,
    pub(crate) cancel: Option<&'a CancelToken>,
}

/// Registry handles for one `IdxDataset`, under the `idx` scope.
///
/// `fetch_vns`, `rmw_fetch_vns`, and `put_vns` accumulate the *virtual*
/// nanoseconds the shared clock advanced during store fetches and uploads —
/// when the dataset shares a registry (and therefore a clock) with the WAN
/// stores below it, this attributes WAN time to the query and ingest layers
/// deterministically, independent of wall time.
struct IdxMetrics {
    obs: Obs,
    queries: Counter,
    blocks_touched: Counter,
    blocks_missing: Counter,
    blocks_decoded: Counter,
    decoded_cache_hits: Counter,
    decoded_evictions_budget: Counter,
    decoded_evictions_epoch: Counter,
    bytes_fetched: Counter,
    fetch_batches: Counter,
    fetch_vns: Counter,
    degraded_queries: Counter,
    blocks_unavailable: Counter,
    writes: Counter,
    blocks_written: Counter,
    bytes_written: Counter,
    rmw_fetches: Counter,
    put_batches: Counter,
    rmw_fetch_vns: Counter,
    put_vns: Counter,
    blocks_combined: Counter,
    pending_bytes: Gauge,
    flush_failures: Counter,
}

/// Cumulative wall-clock codec work done through one dataset handle.
/// Deliberately kept *out* of the obs registry: registry snapshots must
/// serialize byte-identically across identically-seeded replays, and wall
/// time is not deterministic.
#[derive(Debug, Default)]
struct WallCodec {
    encode_micros: AtomicU64,
    bytes_encoded: AtomicU64,
    decode_micros: AtomicU64,
    bytes_decoded: AtomicU64,
}

/// Snapshot of a dataset's wall-clock codec throughput counters (see
/// [`IdxDataset::codec_throughput`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecThroughput {
    /// Wall-clock microseconds spent in codec encode (write path).
    pub encode_micros: u64,
    /// Raw bytes pushed through the encoder (write path).
    pub bytes_encoded: u64,
    /// Wall-clock microseconds spent in codec decode (read path, including
    /// decodes done by sessions over this dataset).
    pub decode_micros: u64,
    /// Raw bytes produced by the decoder (read path).
    pub bytes_decoded: u64,
}

impl CodecThroughput {
    /// Fold another snapshot into this one (e.g. across datasets).
    pub fn merge(&mut self, other: &CodecThroughput) {
        self.encode_micros += other.encode_micros;
        self.bytes_encoded += other.bytes_encoded;
        self.decode_micros += other.decode_micros;
        self.bytes_decoded += other.bytes_decoded;
    }

    /// Encode throughput in MB/s, when any encoding was timed.
    pub fn encode_mb_s(&self) -> Option<f64> {
        (self.encode_micros > 0).then(|| {
            self.bytes_encoded as f64 / (1 << 20) as f64 / (self.encode_micros as f64 / 1e6)
        })
    }

    /// Decode throughput in MB/s, when any decoding was timed.
    pub fn decode_mb_s(&self) -> Option<f64> {
        (self.decode_micros > 0).then(|| {
            self.bytes_decoded as f64 / (1 << 20) as f64 / (self.decode_micros as f64 / 1e6)
        })
    }
}

impl IdxMetrics {
    fn new(obs: &Obs) -> Self {
        let obs = obs.scoped("idx");
        IdxMetrics {
            queries: obs.counter("queries"),
            blocks_touched: obs.counter("blocks_touched"),
            blocks_missing: obs.counter("blocks_missing"),
            blocks_decoded: obs.counter("blocks_decoded"),
            decoded_cache_hits: obs.counter("decoded_cache_hits"),
            decoded_evictions_budget: obs.counter("decoded_evictions.budget"),
            decoded_evictions_epoch: obs.counter("decoded_evictions.epoch"),
            bytes_fetched: obs.counter("bytes_fetched"),
            fetch_batches: obs.counter("fetch_batches"),
            fetch_vns: obs.counter("fetch_vns"),
            degraded_queries: obs.counter("degraded_queries"),
            blocks_unavailable: obs.counter("blocks_unavailable"),
            writes: obs.counter("writes"),
            blocks_written: obs.counter("blocks_written"),
            bytes_written: obs.counter("bytes_written"),
            rmw_fetches: obs.counter("rmw_fetches"),
            put_batches: obs.counter("put_batches"),
            rmw_fetch_vns: obs.counter("rmw_fetch_vns"),
            put_vns: obs.counter("put_vns"),
            blocks_combined: obs.counter("blocks_combined"),
            pending_bytes: obs.gauge("pending_bytes"),
            flush_failures: obs.counter("flush_failures"),
            obs,
        }
    }
}

/// An open IDX dataset bound to an object store.
///
/// A 2-D grid or a 3-D volume: one type for either, with 2-D reads
/// ([`IdxDataset::read_box`], [`IdxDataset::read_slice_z`]) that return
/// [`Raster`]s and 3-D ones ([`IdxDataset::read_volume`]) that return
/// [`Volume`]s. A 2-D read of a volume shows its z-plane 0; a volume read
/// of a 2-D grid is one sample deep.
///
/// The only owner of block I/O in this crate: every block read — a box,
/// slice or volume query here, a [`crate::QuerySession`] frame or
/// prefetch, a `write_box` base image — is one `IdxDataset::resolve` call,
/// and every block write ends in `IdxDataset::encode_and_put`. The
/// decoded-block cache, its write epoch, the write buffer of
/// [`IdxDataset::write_box`], and the codec throughput counters live here
/// and nowhere else.
///
/// Dropping the handle flushes its write buffer; a flush that fails there
/// can only be counted (`idx.flush_failures`) and marked on the span
/// timeline (`idx.flush-lost`), so call [`IdxDataset::flush`] first when
/// the error matters.
pub struct IdxDataset {
    store: Arc<dyn ObjectStore>,
    base: String,
    meta: IdxMeta,
    curve: HzCurve,
    fetch_concurrency: usize,
    write_concurrency: usize,
    degraded_reads: bool,
    blocks: Mutex<BlockState>,
    /// Held by every write and flush from start to end, so none of them
    /// sees the write buffer change between deciding which base images it
    /// needs and merging into them. Reads never take it. It guards the
    /// `write_concurrency` lanes the handle's `write_box` uploads are
    /// issued on.
    writer: Mutex<UploadLanes>,
    /// Per-block codec selector, present exactly when `meta.codec` is
    /// [`Codec::Adaptive`]. Kept alongside the plain enum so the write path
    /// can pass each field's own sample width and observe which codec the
    /// selector chose (for [`WriteStats`] and the `codec.selected.*`
    /// counters) instead of dispatching blindly through [`Codec::encode`].
    adaptive: Option<AdaptiveCodec>,
    m: IdxMetrics,
    wall: WallCodec,
}

impl IdxDataset {
    /// Create a new 2-D or 3-D dataset under `base`, writing the header
    /// object.
    ///
    /// `base` must hold no blocks yet: the handle takes every block it has
    /// not uploaded itself to be absent, so a partial
    /// [`IdxDataset::write_box`] starts such a block from zeros without
    /// asking the store. To patch a dataset that already has blocks, use
    /// [`IdxDataset::open`].
    pub fn create(store: Arc<dyn ObjectStore>, base: &str, meta: IdxMeta) -> Result<IdxDataset> {
        meta.validate()?;
        store.put(&format!("{base}/dataset.idx"), meta.to_text().as_bytes())?;
        Ok(Self::assemble(store, base, meta, true))
    }

    /// Open an existing dataset by reading its header object.
    pub fn open(store: Arc<dyn ObjectStore>, base: &str) -> Result<IdxDataset> {
        let key = format!("{base}/dataset.idx");
        let text = store.get(&key)?;
        // Stored bytes that do not parse into valid metadata are damage,
        // whatever the parser calls them.
        let meta = String::from_utf8(text)
            .map_err(|_| NsdfError::format("not valid UTF-8"))
            .and_then(|text| IdxMeta::from_text(&text))
            .map_err(|e| NsdfError::corrupt(format!("{key}: {e}")))?;
        Ok(Self::assemble(store, base, meta, false))
    }

    /// `created`: the handle comes from `create`, whose caller vouches that
    /// the store holds no block of this dataset the handle did not put
    /// there itself.
    fn assemble(store: Arc<dyn ObjectStore>, base: &str, meta: IdxMeta, created: bool) -> Self {
        let adaptive = match meta.codec {
            Codec::Adaptive { .. } => Some(AdaptiveCodec::default()),
            _ => None,
        };
        IdxDataset {
            store,
            base: base.to_string(),
            curve: HzCurve::new(meta.bitmask.clone()),
            meta,
            fetch_concurrency: DEFAULT_FETCH_CONCURRENCY,
            write_concurrency: DEFAULT_WRITE_CONCURRENCY,
            degraded_reads: false,
            blocks: Mutex::new(BlockState {
                decoded: DecodedCache::new(DEFAULT_DECODED_CACHE_BYTES),
                pending: WriteBuffer::new(created),
            }),
            writer: Mutex::new(UploadLanes::new(DEFAULT_WRITE_CONCURRENCY)),
            adaptive,
            m: IdxMetrics::new(&Obs::default()),
            wall: WallCodec::default(),
        }
    }

    /// Report query accounting and spans into `obs` (scope `…idx`).
    ///
    /// Share the same registry with the stores underneath (and build it on
    /// the WAN clock) and the `idx.fetch` spans will attribute virtual WAN
    /// time to this dataset's queries, with the stores' own spans nested
    /// inside.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.m = IdxMetrics::new(obs);
        // Rebuild the selector so `codec.selected.*` lands in the caller's
        // registry rather than a throwaway default.
        if let Codec::Adaptive { .. } = self.meta.codec {
            self.adaptive = Some(AdaptiveCodec::default().with_obs(obs));
        }
        self
    }

    /// The observability handle this dataset reports into (scoped `…idx`).
    pub fn obs(&self) -> &Obs {
        &self.m.obs
    }

    /// Set how many blocks each batched store fetch carries (>= 1). Higher
    /// values amortize WAN round-trips across parallel streams; 1 restores
    /// strictly sequential fetching.
    pub fn with_fetch_concurrency(mut self, n: usize) -> Self {
        self.fetch_concurrency = n.max(1);
        self
    }

    /// Set how many encoded blocks each batched store upload carries
    /// (>= 1), which is also how many block uploads the handle keeps in
    /// flight: [`IdxDataset::write_box`] issues its waves on that many
    /// lanes, so consecutive waves overlap on the WAN's streams up to this
    /// bound. 1 restores strictly sequential uploads, each waiting for the
    /// one before. Uploads already in flight are joined first.
    pub fn with_write_concurrency(mut self, n: usize) -> Self {
        self.write_concurrency = n.max(1);
        self.join_uploads(&self.writer.lock());
        *self.writer.get_mut() = UploadLanes::new(self.write_concurrency);
        self
    }

    /// Set the decoded-block cache budget in raw bytes (0 disables it).
    pub fn with_decoded_cache_bytes(mut self, budget: u64) -> Self {
        self.blocks.get_mut().decoded = DecodedCache::new(budget);
        self
    }

    /// Allow [`IdxDataset::read_box`] to degrade gracefully: when blocks of
    /// the requested level cannot be fetched (transport errors, after any
    /// retry layers below have given up), the query falls back to the
    /// finest coarser level whose blocks all resolved and returns that
    /// complete result, recording the degradation in [`QueryStats`]
    /// (`degraded`, `delivered_level`, `blocks_unavailable`) instead of
    /// erroring. `NotFound` blocks are unaffected — they are unwritten
    /// data, not failures. Off by default.
    pub fn with_degraded_reads(mut self, enabled: bool) -> Self {
        self.degraded_reads = enabled;
        self
    }

    /// Dataset metadata.
    pub fn meta(&self) -> &IdxMeta {
        &self.meta
    }

    /// The HZ curve for this dataset's grid.
    pub fn curve(&self) -> &HzCurve {
        &self.curve
    }

    /// Finest resolution level (= number of address bits).
    pub fn max_level(&self) -> u32 {
        self.curve.max_level()
    }

    /// Full-grid bounding box of the x/y plane.
    pub fn bounds(&self) -> Box2i {
        Box2i::new(0, 0, self.meta.dims[0] as i64, self.meta.dims[1] as i64)
    }

    /// Full-grid bounding box over all three axes (a 2-D grid is one sample
    /// deep).
    pub fn extent(&self) -> Box3i {
        let dim = |a: usize| self.meta.dims.get(a).copied().unwrap_or(1) as i64;
        Box3i::new(0, 0, 0, dim(0), dim(1), dim(2))
    }

    /// The one-sample-thick box of `region` on the z-plane at depth `z`,
    /// snapped down to the z-stride of `level` so it holds samples of that
    /// level's grid — plane 0 is all there is of a 2-D dataset.
    pub(crate) fn plane_box(&self, region: Box2i, z: i64, level: u32) -> Result<Box3i> {
        if z < 0 || z >= self.extent().z1 {
            return Err(NsdfError::invalid(format!("slice z={z} outside volume")));
        }
        let strides = self.curve.mask().level_strides(level)?;
        let sz = strides.get(2).copied().unwrap_or(1) as i64;
        let z = z / sz * sz;
        Ok(Box3i::new(region.x0, region.y0, z, region.x1, region.y1, z + 1))
    }

    /// Storage key of one block.
    pub fn block_key(&self, field_idx: usize, time: u32, block: u64) -> String {
        format!("{}/f{field_idx}/t{time}/b{block:08}.bin", self.base)
    }

    pub(crate) fn check_time(&self, time: u32) -> Result<()> {
        if time >= self.meta.timesteps {
            return Err(NsdfError::invalid(format!(
                "timestep {time} out of range (dataset has {})",
                self.meta.timesteps
            )));
        }
        Ok(())
    }

    pub(crate) fn check_level(&self, level: u32) -> Result<()> {
        if level > self.max_level() {
            return Err(NsdfError::invalid(format!(
                "level {level} exceeds max {}",
                self.max_level()
            )));
        }
        Ok(())
    }

    /// Index of `field`, checked to hold samples of type `T`.
    pub(crate) fn field_checked<T: Sample>(&self, field: &str) -> Result<usize> {
        let idx = self.meta.field_index(field)?;
        if self.meta.fields[idx].dtype != T::DTYPE {
            return Err(NsdfError::invalid(format!(
                "field {field:?} holds {}, requested {}",
                self.meta.fields[idx].dtype,
                T::DTYPE
            )));
        }
        Ok(idx)
    }

    /// Fresh accounting for one query at `level`.
    pub(crate) fn query_stats(&self, level: u32) -> QueryStats {
        QueryStats {
            fetch_concurrency: self.fetch_concurrency as u64,
            requested_level: level,
            delivered_level: level,
            ..QueryStats::default()
        }
    }

    /// Partition `blocks` against what the handle holds in RAM: entries
    /// already resolved — a pending write-buffer image first (so a read
    /// through this handle always sees its own writes), else a decoded
    /// payload or a known-missing mark — blocks still to fetch, and the
    /// write epoch observed — pass it back to `IdxDataset::read_wave` so
    /// payloads decoded while a write landed are never installed.
    fn decoded_partition(
        &self,
        field_idx: usize,
        time: u32,
        blocks: &[u64],
    ) -> (Vec<(u64, DecodedEntry)>, Vec<u64>, u64) {
        let state = self.blocks.lock();
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for &block in blocks {
            let key = (field_idx, time, block);
            match state.pending.blocks.get(&key) {
                Some(pending) => hits.push((block, Some(Arc::clone(&pending.raw)))),
                None => match state.decoded.get(&key) {
                    Some(entry) => hits.push((block, entry)),
                    None => misses.push(block),
                },
            }
        }
        (hits, misses, state.decoded.write_epoch)
    }

    /// Write a full-resolution raster into `field` at `time`.
    ///
    /// The raster shape must equal the dataset's logical dims and `T` must
    /// match the field dtype. This is [`IdxDataset::write_box`] over the
    /// whole grid: it covers every in-bounds sample of every block it
    /// touches, so it completes them all and uploads them before it
    /// returns, superseding whatever an earlier `write_box` left pending
    /// for them; blocks of pure power-of-two padding are never touched.
    /// The uploads block, unless the caller's issue frame
    /// ([`UploadLanes::issue`]) owns the join: then the call returns once
    /// each upload holds one of the caller's lanes, with every upload's
    /// result known. On
    /// an upload error the same rule as `write_box`'s holds: the samples
    /// stay merged and the blocks that did not store stay dirty.
    pub fn write_raster<T: Sample>(
        &self,
        field: &str,
        time: u32,
        raster: &Raster<T>,
    ) -> Result<WriteStats> {
        let (w, h) = raster.shape();
        self.write_full("write_raster", field, time, [w, h, 1], raster.data())
    }

    /// Write a full-resolution volume into `field` at `time`: the volume's
    /// shape must equal the dataset's [`IdxDataset::extent`] (a 2-D grid
    /// takes a depth-1 volume), and the write follows
    /// [`IdxDataset::write_raster`]'s rules, blocking uploads included
    /// unless the caller's issue frame owns the join.
    pub fn write_volume<T: Sample>(
        &self,
        field: &str,
        time: u32,
        volume: &Volume<T>,
    ) -> Result<WriteStats> {
        let (w, h, d) = volume.shape();
        self.write_full("write_volume", field, time, [w, h, d], volume.data())
    }

    /// A full-grid write ([`IdxDataset::write_raster`],
    /// [`IdxDataset::write_volume`]): `shape` must equal the dataset's
    /// dims, and the write is [`IdxDataset::write_region`] from the origin.
    fn write_full<T: Sample>(
        &self,
        span: &str,
        field: &str,
        time: u32,
        shape: [usize; 3],
        data: &[T],
    ) -> Result<WriteStats> {
        let e = self.extent();
        let dims = [e.x1, e.y1, e.z1].map(|d| d as usize);
        if shape != dims {
            return Err(NsdfError::invalid(format!(
                "{span}: shape {shape:?} does not match dataset dims {dims:?}"
            )));
        }
        self.write_region(span, field, time, [0; 3], shape, data)
    }

    /// The one write tail of the crate: encode and seal complete raw block
    /// images — of any field and timestep, in the order given — in parallel
    /// (deterministic earliest-block error), then upload them in
    /// `write_concurrency`-sized `put_many` batches, issued on `lanes` when
    /// given (the store's results still come back here; only the wait for
    /// the uploads to end is left to [`IdxDataset::join_uploads`]). Every
    /// block that actually stored loses its decoded-block cache entry, so
    /// a later read can never observe stale decoded bytes, and its
    /// write-buffer image: a written-back block leaves RAM. A block that
    /// did not store keeps its pending image, dirty, for a later
    /// [`IdxDataset::flush`].
    fn encode_and_put(
        &self,
        entries: Vec<(BlockKey, Arc<Vec<u8>>)>,
        stats: &mut WriteStats,
        mut lanes: Option<&mut UploadLanes>,
    ) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let t_encode = Instant::now();
        let encoded = {
            let _encode_span = self.m.obs.span("encode");
            try_par_map_owned(entries, num_threads(), |(key, raw)| -> Result<_> {
                let (enc, chosen) = match &self.adaptive {
                    // Each field is planed at its own sample width.
                    Some(selector) => {
                        let width = self.meta.fields[key.0].dtype.size_bytes() as u8;
                        selector.encode_block(&raw, width)?
                    }
                    None => (self.meta.codec.encode(&raw)?, self.meta.codec),
                };
                Ok((key, raw.len(), seal(BLOCK_MAGIC, &enc), chosen))
            })?
        };
        let encode_secs = t_encode.elapsed().as_secs_f64();
        stats.encode_secs += encode_secs;
        self.wall.encode_micros.fetch_add((encode_secs * 1e6) as u64, Ordering::Relaxed);
        self.wall.bytes_encoded.fetch_add(
            encoded.iter().map(|(_, raw_len, _, _)| *raw_len as u64).sum(),
            Ordering::Relaxed,
        );

        for batch in encoded.chunks(self.write_concurrency) {
            let keys: Vec<String> =
                batch.iter().map(|((f, t, b), _, _, _)| self.block_key(*f, *t, *b)).collect();
            let items: Vec<(&str, &[u8])> = keys
                .iter()
                .zip(batch)
                .map(|(k, (_, _, enc, _))| (k.as_str(), enc.as_slice()))
                .collect();
            let t_put = Instant::now();
            let results = {
                let _put_span = self.m.obs.span("put");
                let v0 = self.m.obs.clock().now_ns();
                let results = match lanes.as_deref_mut() {
                    Some(lanes) => lanes.issue(|| self.store.put_many(&items)),
                    None => self.store.put_many(&items),
                };
                self.m.put_vns.add(self.m.obs.clock().now_ns().saturating_sub(v0));
                results
            };
            stats.put_secs += t_put.elapsed().as_secs_f64();
            stats.put_batches += 1;

            // Settle the batch under one lock, then surface its earliest
            // error: blocks that stored before it remain written (and
            // invalidated) — exactly what a sequential put loop would leave.
            let mut first_err = None;
            {
                let mut state = self.blocks.lock();
                let state = &mut *state;
                state.decoded.write_epoch += 1;
                for ((key, raw_len, enc, chosen), r) in batch.iter().zip(results) {
                    // Failed or not, the store may hold this block from now on.
                    if let Some(attempted) = state.pending.attempted.as_mut() {
                        attempted.entry((key.0, key.1)).or_default().insert(key.2 as usize);
                    }
                    match r {
                        Ok(_) => {
                            if state.decoded.remove(key) {
                                self.m.decoded_evictions_epoch.inc();
                            }
                            state.pending.retire(key);
                            stats.blocks_written += 1;
                            stats.bytes_raw += *raw_len as u64;
                            stats.bytes_stored += enc.len() as u64;
                            *stats.codecs.entry(chosen.name()).or_insert(0) += 1;
                        }
                        Err(e) if first_err.is_none() => first_err = Some(e),
                        Err(_) => {}
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Wait, inside a `put` span booked as `put_vns`, until every upload
    /// issued on `lanes` has ended.
    fn join_uploads(&self, lanes: &UploadLanes) {
        if lanes.in_flight() {
            let _put_span = self.m.obs.span("put");
            self.m.put_vns.add(lanes.join());
        }
    }

    /// Snapshot the cumulative wall-clock codec throughput counters of this
    /// handle: raw bytes and microseconds through encode (write path) and
    /// decode (read path, including session-driven decodes). Wall time is
    /// nondeterministic, so these live here rather than in the obs registry
    /// — registry snapshots stay byte-identical across seeded replays.
    pub fn codec_throughput(&self) -> CodecThroughput {
        CodecThroughput {
            encode_micros: self.wall.encode_micros.load(Ordering::Relaxed),
            bytes_encoded: self.wall.bytes_encoded.load(Ordering::Relaxed),
            decode_micros: self.wall.decode_micros.load(Ordering::Relaxed),
            bytes_decoded: self.wall.bytes_decoded.load(Ordering::Relaxed),
        }
    }

    /// Close one write's accounting — which of the blocks it `touched` it
    /// left in the write buffer, and what the buffer holds now — and feed
    /// the registry with its totals, so cross-layer snapshots see
    /// ingest-side accounting alongside the store-side counters.
    fn note_write(&self, stats: &mut WriteStats, touched: &[BlockKey]) {
        let pending_bytes = {
            let state = self.blocks.lock();
            let pending = &state.pending;
            stats.blocks_combined =
                touched.iter().filter(|key| pending.blocks.contains_key(key)).count() as u64;
            stats.blocks_pending = pending.blocks.len() as u64;
            pending.bytes
        };
        self.m.pending_bytes.set(pending_bytes as f64);
        self.m.writes.inc();
        self.m.blocks_written.add(stats.blocks_written);
        self.m.bytes_written.add(stats.bytes_stored);
        self.m.rmw_fetches.add(stats.rmw_fetches);
        self.m.put_batches.add(stats.put_batches);
        self.m.blocks_combined.add(stats.blocks_combined);
    }

    /// Write a raster into a sub-region of the dataset at full resolution,
    /// with its top-left corner at `(x0, y0)` — how a tile-by-tile ingest
    /// pipeline appends to a large IDX dataset without ever holding the full
    /// grid in memory.
    ///
    /// The write is *write-back*. Its samples are merged into the handle's
    /// write buffer, one raw image per touched block, and are visible to
    /// every read through this handle at once. A block is encoded and
    /// uploaded — once — by the call whose samples complete it (every
    /// in-bounds sample written since the block entered the buffer), by a
    /// call that would leave more than 64 MiB of block images pending (it
    /// uploads them all), by [`IdxDataset::flush`], or when the handle
    /// drops. Until then the store — and any other handle — holds the
    /// block's previous image or none: every stored block is always a
    /// complete image, so an interrupted conversion loses only unflushed
    /// blocks and re-running it converges. `Ok` therefore means merged, not
    /// durable: call `flush` before anything else looks at the store, and
    /// always when the handle is shared (`Arc<IdxDataset>`), where the
    /// write-back on drop waits for the last clone.
    ///
    /// The uploads are *issued*, not waited for: on a WAN store
    /// ([`nsdf_storage::CloudStore`]) the call returns once each upload
    /// holds one of the handle's `write_concurrency` lanes, so it blocks
    /// only while that many are outstanding, and the next tile's waves
    /// share the link with this one's.
    /// The store has taken the blocks by then, and each upload's result is
    /// known; only the virtual time until they end is still owed. `flush`,
    /// drop and every blocking store call wait for it.
    ///
    /// A block first touched by a partial write starts from its current
    /// contents, fetched through the read pipeline (`rmw-fetch` span) — or
    /// from zeros with no fetch when this handle came from
    /// [`IdxDataset::create`] and never uploaded the block. That, and the
    /// buffer itself, assume a **single writer** per dataset: blocks written
    /// through another handle meanwhile are not seen. Writes and flushes
    /// through one handle from several threads run one at a time.
    ///
    /// A pending image is shared, not copied, with whoever read it through
    /// this handle — a [`crate::QuerySession`] keeps it resident. Such a
    /// reader keeps seeing the snapshot it resolved: a later merge into
    /// that block copies the image first, so a resident reader costs the
    /// block one copy per merge.
    ///
    /// If an upload fails the error is returned, the samples stay merged,
    /// and the blocks that did not store stay dirty for a later `flush`.
    pub fn write_box<T: Sample>(
        &self,
        field: &str,
        time: u32,
        x0: u64,
        y0: u64,
        raster: &Raster<T>,
    ) -> Result<WriteStats> {
        let (w, h) = raster.shape();
        self.write_region("write_box", field, time, [x0, y0, 0], [w, h, 1], raster.data())
    }

    /// The one write path of the crate, behind [`IdxDataset::write_box`],
    /// [`IdxDataset::write_raster`] and [`IdxDataset::write_volume`]
    /// (their rules are documented on `write_box`), under a root span named
    /// `span`. `data` holds `shape` samples, x fastest, the first at grid
    /// position `origin` (a 2-D grid is one sample deep). It scatters them
    /// into one image per touched block, fetches the base images partial
    /// blocks need, merges into the write buffer, picks what to upload and
    /// hands that to [`IdxDataset::encode_and_put`].
    fn write_region<T: Sample>(
        &self,
        span: &str,
        field: &str,
        time: u32,
        origin: [u64; 3],
        shape: [usize; 3],
        data: &[T],
    ) -> Result<WriteStats> {
        self.check_time(time)?;
        let field_idx = self.field_checked::<T>(field)?;
        let e = self.extent();
        let ends = [e.x1, e.y1, e.z1];
        if (0..3)
            .any(|a| origin[a].checked_add(shape[a] as u64).is_none_or(|end| end > ends[a] as u64))
        {
            return Err(NsdfError::invalid(format!(
                "write of shape {shape:?} at {origin:?} exceeds dataset bounds {e:?}"
            )));
        }
        let sample_size = T::DTYPE.size_bytes();
        let block_bytes = self.meta.block_samples() as usize * sample_size;

        let mut lanes = self.writer.lock();
        let _write_span = self.m.obs.span(span);
        let plan_span = self.m.obs.span("plan");
        let touched = self.scatter(origin, shape, data)?;
        // Only a block this call covers partially, that is not pending
        // already and that the store may hold needs its current contents.
        let need_base: Vec<u64> = {
            let state = self.blocks.lock();
            touched
                .iter()
                .filter(|(block, update)| {
                    let key = (field_idx, time, **block);
                    update.covered.ones < update.in_bounds
                        && !state.pending.blocks.contains_key(&key)
                        && !state.pending.known_absent(&key)
                })
                .map(|(&block, _)| block)
                .collect()
        };
        drop(plan_span);

        let mut stats = WriteStats {
            write_concurrency: self.write_concurrency as u64,
            ..WriteStats::default()
        };

        // Base images: decoded-cache hits, else read waves. `NotFound` is a
        // block never written (zero contents), any other error aborts the
        // write before anything of it is merged. Not installed: the merge
        // below supersedes them.
        let report = WaveReport {
            obs: &self.m.obs,
            span: "rmw-fetch",
            vns: &self.m.rmw_fetch_vns,
            clock: self.m.obs.clock(),
            install: false,
            cancel: None,
        };
        let mut fetch = QueryStats::default();
        let mut bases = BTreeMap::new();
        self.resolve((field_idx, time), &need_base, &report, None, &mut fetch, |b, raw, _| {
            bases.insert(b, raw);
        })?;
        stats.rmw_fetches = need_base.len() as u64 - fetch.decoded_cache_hits;
        if let Some(bad) = bases.values().flatten().find(|raw| raw.len() != block_bytes) {
            return Err(NsdfError::corrupt(format!(
                "stored block decodes to {} bytes, expected {block_bytes}",
                bad.len()
            )));
        }

        // Merge, then pick what this call uploads: the blocks it completed,
        // or everything pending when more than the budget would stay behind.
        // A merge invalidates like an upload does — the pending image is the
        // block's truth now.
        let keys: Vec<BlockKey> = touched.keys().map(|&b| (field_idx, time, b)).collect();
        let ready = {
            let mut state = self.blocks.lock();
            let state = &mut *state;
            state.decoded.write_epoch += 1;
            let mut completed = Vec::new();
            for (block, update) in touched {
                let key = (field_idx, time, block);
                if state.decoded.remove(&key) {
                    self.m.decoded_evictions_epoch.inc();
                }
                let base = bases.remove(&block).flatten();
                let in_bounds = update.in_bounds;
                if state.pending.merge(key, base, update, sample_size) == in_bounds {
                    completed.push(key);
                }
            }
            let pending = &mut state.pending;
            let held = pending.bytes - (completed.len() * block_bytes) as u64;
            let everything = held > pending.budget;
            pending.check_out(|key| everything || completed.binary_search(key).is_ok())
        };

        // A tile issues its uploads; a full grid promises they are stored
        // when it returns.
        let issue = (span == "write_box").then_some(&mut *lanes);
        let result = self.encode_and_put(ready, &mut stats, issue);
        self.note_write(&mut stats, &keys);
        result.map(|()| stats)
    }

    /// The scatter — the one coordinate walk on the way in, where samples
    /// become bytes: `shape` samples of `data`, x fastest, the first at
    /// grid position `origin`, written into one zero-filled image per
    /// touched block. It walks x-rows with [`HzCurve::row_block_offsets`]
    /// and keeps one current block per HZ level ([`level_cursor`]): along a
    /// row the samples hop between levels, but within a level they come in
    /// rank order, so the map is touched only when a level's block changes.
    fn scatter<T: Sample>(
        &self,
        origin: [u64; 3],
        [w, h, d]: [usize; 3],
        data: &[T],
    ) -> Result<BTreeMap<u64, BlockUpdate>> {
        let block_samples = self.meta.block_samples();
        let size = T::DTYPE.size_bytes();
        let fresh = |raw| BlockUpdate { raw, covered: BitSet::default(), in_bounds: 0 };
        let mut touched = BTreeMap::new();
        let mut cursors: [(u64, BlockUpdate); 64] =
            std::array::from_fn(|_| (NO_BLOCK, fresh(Vec::new())));
        for (r, row) in (0..d * h).map(|r| (r, &data[r * w..][..w])) {
            let start = [origin[0], origin[1] + (r % h) as u64, origin[2] + (r / h) as u64];
            let walk = self.curve.row_block_offsets(start, 1, w, block_samples)?;
            for (&v, (block, offset)) in row.iter().zip(walk) {
                let (at, current) = &mut cursors[level_cursor(block)];
                if *at != block {
                    let next = touched
                        .remove(&block)
                        .unwrap_or_else(|| fresh(vec![0; block_samples as usize * size]));
                    let done = (std::mem::replace(at, block), std::mem::replace(current, next));
                    if done.0 != NO_BLOCK {
                        touched.insert(done.0, done.1);
                    }
                }
                v.write_le(&mut current.raw[offset * size..]);
                current.covered.insert(offset);
            }
        }
        touched.extend(cursors.into_iter().filter(|(at, _)| *at != NO_BLOCK));
        for (&block, update) in &mut touched {
            update.in_bounds =
                self.curve.block_samples_in_bounds(block, block_samples, &self.meta.dims)?;
        }
        Ok(touched)
    }

    /// Upload every block the write buffer still holds, in
    /// `(field, time, block)` order, and wait until every upload this
    /// handle issued has ended — what makes the partial blocks of earlier
    /// [`IdxDataset::write_box`] calls durable and visible to other
    /// handles, and what puts their upload time on the clock. The returned
    /// stats count what this call uploaded; with nothing pending or in
    /// flight it does nothing. On an error the blocks that did not store
    /// stay pending and `idx.flush_failures` counts the failure; call
    /// again to retry.
    pub fn flush(&self) -> Result<WriteStats> {
        let mut stats = WriteStats {
            write_concurrency: self.write_concurrency as u64,
            ..WriteStats::default()
        };
        let mut lanes = self.writer.lock();
        let ready = self.blocks.lock().pending.check_out(|_| true);
        if ready.is_empty() && !lanes.in_flight() {
            return Ok(stats);
        }
        let _flush_span = self.m.obs.span("flush");
        let uploads = !ready.is_empty();
        let result = self.encode_and_put(ready, &mut stats, Some(&mut lanes));
        self.join_uploads(&lanes);
        if result.is_err() {
            self.m.flush_failures.inc();
        }
        if uploads {
            self.note_write(&mut stats, &[]);
        }
        result.map(|()| stats)
    }

    /// Set of blocks a box query at `level` must read.
    ///
    /// Delegates to [`HzCurve::blocks_in_region`], which descends the HZ
    /// hierarchy in O(blocks) instead of walking every sample in the
    /// region — the difference between planning a 4K-viewport query in
    /// microseconds versus milliseconds. The original sample-walking
    /// implementation survives as the test oracle
    /// (`blocks_for_query_matches_sample_walk`).
    pub fn blocks_for_query(&self, region: Box2i, level: u32) -> Result<Vec<u64>> {
        self.curve.blocks_in_region(region, level, self.meta.block_samples())
    }

    /// One fetch→decode wave of [`IdxDataset::resolve`]. Fetches `chunk`
    /// (one `fetch_concurrency`-sized slice of the plan) of field/timestep
    /// `at` with a single `get_many` under `report`'s span and counter,
    /// decodes the payloads in parallel with deterministic (earliest-block)
    /// error semantics, books the work into `stats` and the codec throughput
    /// counters, and installs the decoded payloads into the shared cache when
    /// `report` asks for it, unless a write landed since `epoch` was observed
    /// ([`IdxDataset::decoded_partition`]).
    ///
    /// `NotFound` is unwritten data and resolves to a known-missing entry.
    /// Any other fetch error aborts the wave before anything of it is
    /// decoded or installed — unless the caller collects them: with
    /// `unavailable` present the failed blocks land there (and stay out of
    /// the cache, so a retry re-fetches them) while the rest of the wave
    /// completes.
    fn read_wave(
        &self,
        at: (usize, u32),
        chunk: &[u64],
        epoch: u64,
        report: &WaveReport,
        mut unavailable: Option<&mut BTreeMap<u64, NsdfError>>,
        stats: &mut QueryStats,
    ) -> Result<Vec<(u64, DecodedEntry)>> {
        let (field_idx, time) = at;
        let keys: Vec<String> = chunk.iter().map(|&b| self.block_key(field_idx, time, b)).collect();
        let key_refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
        let t_fetch = Instant::now();
        let results = {
            let _fetch_span = report.obs.span(report.span);
            let v0 = report.clock.now_ns();
            let results = self.store.get_many(&key_refs);
            report.vns.add(report.clock.now_ns().saturating_sub(v0));
            results
        };
        stats.fetch_secs += t_fetch.elapsed().as_secs_f64();
        stats.fetch_batches += 1;

        let mut encoded: Vec<(u64, Option<Vec<u8>>)> = Vec::with_capacity(chunk.len());
        for (&block, r) in chunk.iter().zip(results) {
            match r {
                Ok(enc) => encoded.push((block, Some(enc))),
                Err(e) if e.is_not_found() => encoded.push((block, None)),
                Err(e) => match unavailable.as_deref_mut() {
                    Some(failed) => {
                        failed.insert(block, e);
                    }
                    None => return Err(e),
                },
            }
        }
        let raw_len =
            self.meta.block_samples() as usize * self.meta.fields[field_idx].dtype.size_bytes();
        let t_decode = Instant::now();
        let decoded = {
            let _decode_span = report.obs.span("decode");
            try_par_map_owned(encoded, num_threads(), |(block, enc)| -> Result<_> {
                match enc {
                    Some(enc) => {
                        let enc_len = enc.len() as u64;
                        // A block stored before the envelope is the bare stream.
                        let stream = if enc.starts_with(BLOCK_MAGIC) {
                            unseal(BLOCK_MAGIC, &enc)?
                        } else {
                            &enc
                        };
                        let raw = self.meta.codec.decode(stream, raw_len)?;
                        Ok((block, enc_len, Some(Arc::new(raw))))
                    }
                    None => Ok((block, 0, None)),
                }
            })?
        };
        let decode_secs = t_decode.elapsed().as_secs_f64();
        stats.decode_secs += decode_secs;
        self.wall.decode_micros.fetch_add((decode_secs * 1e6) as u64, Ordering::Relaxed);

        let mut state = self.blocks.lock();
        let cache = &mut state.decoded;
        let install = report.install && epoch == cache.write_epoch;
        let mut cache_evicted = 0;
        let mut wave = Vec::with_capacity(decoded.len());
        for (block, enc_len, raw) in decoded {
            stats.bytes_fetched += enc_len;
            if let Some(r) = &raw {
                stats.blocks_decoded += 1;
                stats.bytes_decoded += r.len() as u64;
                self.wall.bytes_decoded.fetch_add(r.len() as u64, Ordering::Relaxed);
            }
            if install {
                cache_evicted += cache.insert((field_idx, time, block), raw.clone());
            }
            wave.push((block, raw));
        }
        self.m.decoded_evictions_budget.add(cache_evicted);
        Ok(wave)
    }

    /// The one resolve loop of the crate, behind every box query, session
    /// frame and prefetch, and `write_box`'s base images: the blocks of
    /// field/timestep `at` the handle holds in RAM
    /// ([`IdxDataset::decoded_partition`]; a decoded-cache hit skips the
    /// store and the codec, which is what makes progressive refinement
    /// decode each block once) first, then `fetch_concurrency`-wide
    /// [`IdxDataset::read_wave`]s run as `report` says, its cancel token
    /// checked on its clock before each. Every block goes to `sink` as it
    /// arrives, flagged when it came from RAM, so what earlier waves brought
    /// stays with the caller whether a later wave is cancelled or fails.
    /// `unavailable` as for `read_wave`. Returns `true` when the token fired.
    pub(crate) fn resolve(
        &self,
        at: (usize, u32),
        needed: &[u64],
        report: &WaveReport,
        mut unavailable: Option<&mut BTreeMap<u64, NsdfError>>,
        stats: &mut QueryStats,
        mut sink: impl FnMut(u64, DecodedEntry, bool),
    ) -> Result<bool> {
        let (hits, misses, epoch) = self.decoded_partition(at.0, at.1, needed);
        stats.decoded_cache_hits += hits.len() as u64;
        for (block, raw) in hits {
            sink(block, raw, true);
        }
        for chunk in misses.chunks(self.fetch_concurrency) {
            if report.cancel.is_some_and(|c| c.is_cancelled_at(report.clock.now_ns())) {
                return Ok(true);
            }
            let failed = unavailable.as_deref_mut();
            for (block, raw) in self.read_wave(at, chunk, epoch, report, failed, stats)? {
                sink(block, raw, false);
            }
        }
        Ok(false)
    }

    /// The one gather of the crate — where bytes become samples. Output
    /// sample `(i, j, k)` of `grid`, x fastest, is the stored value at
    /// `(x0 + i*sx, y0 + j*sy, z0 + k*sz)`, read straight from its block's
    /// raw image at `offset * size`; zero where `blocks` has no image (a
    /// known-missing block, or one a cancelled resolve never reached).
    /// It walks rows with one current block per HZ level, as
    /// [`IdxDataset::scatter`] does. Closes the query's accounting:
    /// `samples_out`, and `blocks_missing` as the known-missing entries of
    /// `blocks`.
    pub(crate) fn gather<T: Sample>(
        &self,
        [(x0, sx, ow), (y0, sy, oh), (z0, sz, od)]: LevelGrid,
        blocks: &BTreeMap<u64, DecodedEntry>,
        stats: &mut QueryStats,
    ) -> Result<Vec<T>> {
        let block_samples = self.meta.block_samples();
        let size = T::DTYPE.size_bytes();
        let mut out = vec![T::ZERO; ow * oh * od];
        let mut cursors: [(u64, Option<&[u8]>); 64] = [(NO_BLOCK, None); 64];
        for (r, row) in out.chunks_mut(ow.max(1)).enumerate() {
            let (j, k) = ((r % oh) as i64, (r / oh) as i64);
            let start = [x0, y0 + j * sy, z0 + k * sz].map(|c| c as u64);
            let walk = self.curve.row_block_offsets(start, sx as u64, ow, block_samples)?;
            for (v, (block, offset)) in row.iter_mut().zip(walk) {
                let (at, image) = &mut cursors[level_cursor(block)];
                if *at != block {
                    *at = block;
                    *image = blocks.get(&block).and_then(Option::as_deref).map(Vec::as_slice);
                }
                if let Some(raw) = image {
                    *v = T::read_le(raw.get(offset * size..).unwrap_or_default())?;
                }
            }
        }
        stats.samples_out = out.len() as u64;
        stats.blocks_missing = blocks.values().filter(|raw| raw.is_none()).count() as u64;
        Ok(out)
    }

    /// One z-plane of gathered samples as a raster, georeferenced to the
    /// grid's window and strides.
    pub(crate) fn plane<T: Sample>(
        &self,
        [(x0, sx, ow), (y0, sy, oh), _]: LevelGrid,
        samples: Vec<T>,
    ) -> Result<Raster<T>> {
        let mut out = Raster::from_vec(ow, oh, samples)?;
        out.geo = self.meta.geo.map(|g| {
            let windowed = g.for_window(x0, y0);
            nsdf_util::GeoTransform {
                x0: windowed.x0,
                y0: windowed.y0,
                dx: windowed.dx * sx as f64,
                dy: windowed.dy * sy as f64,
            }
        });
        Ok(out)
    }

    /// Feed the registry with one query's totals so cross-layer snapshots
    /// see query-side accounting alongside the store-side counters.
    fn note_query(&self, stats: &QueryStats) {
        self.m.queries.inc();
        self.m.blocks_touched.add(stats.blocks_touched);
        self.m.blocks_missing.add(stats.blocks_missing);
        self.m.blocks_decoded.add(stats.blocks_decoded);
        self.m.decoded_cache_hits.add(stats.decoded_cache_hits);
        self.m.bytes_fetched.add(stats.bytes_fetched);
        self.m.fetch_batches.add(stats.fetch_batches);
        self.m.blocks_unavailable.add(stats.blocks_unavailable);
        if stats.degraded {
            self.m.degraded_queries.inc();
        }
    }

    /// The one box query of the crate — check, plan, fetch, fall back when
    /// degraded, gather, account — behind [`IdxDataset::read_box`],
    /// [`IdxDataset::read_volume`] and [`IdxDataset::read_slice_z`]. Returns
    /// the samples of the delivered level's grid, x fastest, with that grid.
    pub(crate) fn query_box<T: Sample>(
        &self,
        field: &str,
        time: u32,
        region: Box3i,
        level: u32,
    ) -> Result<(LevelGrid, Vec<T>, QueryStats)> {
        self.check_time(time)?;
        let field_idx = self.field_checked::<T>(field)?;
        self.check_level(level)?;
        let region = region
            .intersect(&self.extent())
            .ok_or_else(|| NsdfError::invalid("query region does not intersect dataset"))?;

        let _query_span = self.m.obs.span("read_box");
        let plan_span = self.m.obs.span("plan");
        let Some(mut grid) = self.curve.level_grid(level, region)? else {
            return Err(NsdfError::invalid(
                "query region contains no samples at the requested level",
            ));
        };

        // Which blocks, fetched once each.
        let block_samples = self.meta.block_samples();
        let needed = self.curve.blocks_in_region(region, level, block_samples)?;
        drop(plan_span);
        let mut stats =
            QueryStats { blocks_touched: needed.len() as u64, ..self.query_stats(level) };

        // With degraded reads enabled, transport failures are collected
        // instead of aborting so the query can fall back to a coarser level.
        let mut failed: BTreeMap<u64, NsdfError> = BTreeMap::new();
        let report = WaveReport {
            obs: &self.m.obs,
            span: "fetch",
            vns: &self.m.fetch_vns,
            clock: self.m.obs.clock(),
            install: true,
            cancel: None,
        };
        let mut raw_blocks = BTreeMap::new();
        self.resolve(
            (field_idx, time),
            &needed,
            &report,
            self.degraded_reads.then_some(&mut failed),
            &mut stats,
            |b, raw, _| {
                raw_blocks.insert(b, raw);
            },
        )?;

        // Degraded fallback: if any block stayed unreachable, deliver the
        // finest coarser level whose block set — always a subset of the
        // requested level's — avoids every failed block, instead of failing
        // the whole query.
        stats.blocks_unavailable = failed.len() as u64;
        if !failed.is_empty() {
            let mut fallback = None;
            for d in (0..level).rev() {
                let coarser = self.curve.blocks_in_region(region, d, block_samples)?;
                if coarser.iter().any(|b| failed.contains_key(b)) {
                    continue;
                }
                // Strides only grow as levels coarsen: a region empty at
                // this level stays empty at every coarser one.
                fallback = self.curve.level_grid(d, region)?.map(|grid| (d, grid));
                break;
            }
            match fallback {
                Some((d, coarser)) => {
                    grid = coarser;
                    stats.delivered_level = d;
                    stats.degraded = true;
                    self.m.obs.event("degraded");
                }
                None => {
                    let (_, e) = failed.into_iter().next().expect("failed map is non-empty");
                    return Err(e);
                }
            }
        }

        let _gather_span = self.m.obs.span("gather");
        let samples = self.gather(grid, &raw_blocks, &mut stats)?;
        self.note_query(&stats);
        Ok((grid, samples, stats))
    }

    /// Read a rectangular region at resolution `level` (0 = coarsest,
    /// [`IdxDataset::max_level`] = full resolution).
    ///
    /// Returns the decimated raster — sample `(i, j)` holds the stored
    /// full-resolution value at `(x0 + i*sx, y0 + j*sy)` where `(sx, sy)`
    /// are the level strides — plus per-query accounting.
    pub fn read_box<T: Sample>(
        &self,
        field: &str,
        time: u32,
        region: Box2i,
        level: u32,
    ) -> Result<(Raster<T>, QueryStats)> {
        let (grid, samples, stats) = self.query_box(field, time, region.into(), level)?;
        Ok((self.plane(grid, samples)?, stats))
    }

    /// Read the entire grid at full resolution (z-plane 0 of a volume; the
    /// whole volume is [`IdxDataset::read_volume`] over
    /// [`IdxDataset::extent`]).
    pub fn read_full<T: Sample>(&self, field: &str, time: u32) -> Result<(Raster<T>, QueryStats)> {
        self.read_box(field, time, self.bounds(), self.max_level())
    }

    /// Read a sub-box of a volume at resolution `level`; sample `(i, j, k)`
    /// of the result is the stored value at `(x0 + i*sx, y0 + j*sy,
    /// z0 + k*sz)`.
    pub fn read_volume<T: Sample>(
        &self,
        field: &str,
        time: u32,
        region: Box3i,
        level: u32,
    ) -> Result<(Volume<T>, QueryStats)> {
        let ([(_, _, ow), (_, _, oh), (_, _, od)], samples, stats) =
            self.query_box(field, time, region, level)?;
        Ok((Volume::from_vec(ow, oh, od, samples)?, stats))
    }

    /// Read the z-plane at depth `z` (snapped down to `level`'s z-stride)
    /// as a raster at resolution `level` — the dashboard's volumetric slice
    /// view (paper §III-A's "horizontal and vertical slices").
    pub fn read_slice_z<T: Sample>(
        &self,
        field: &str,
        time: u32,
        z: i64,
        level: u32,
    ) -> Result<(Raster<T>, QueryStats)> {
        let region = self.plane_box(self.bounds(), z, level)?;
        let (grid, samples, stats) = self.query_box(field, time, region, level)?;
        Ok((self.plane(grid, samples)?, stats))
    }

    /// Progressive read: the same region at every level in
    /// `min_level..=max_level`, coarse to fine — the refinement sequence a
    /// dashboard viewport displays while data streams in.
    pub fn read_progressive<T: Sample>(
        &self,
        field: &str,
        time: u32,
        region: Box2i,
        min_level: u32,
        max_level: u32,
    ) -> Result<Vec<(u32, Raster<T>, QueryStats)>> {
        if min_level > max_level || max_level > self.max_level() {
            return Err(NsdfError::invalid("bad progressive level range"));
        }
        let mut out = Vec::new();
        for level in min_level..=max_level {
            let (raster, stats) = self.read_box::<T>(field, time, region, level)?;
            out.push((level, raster, stats));
        }
        Ok(out)
    }
}

impl Drop for IdxDataset {
    /// Write back what [`IdxDataset::write_box`] left pending and wait for
    /// every upload in flight. A failure cannot be returned from here:
    /// `flush` counts it in `idx.flush_failures`, and an `idx.flush-lost`
    /// event marks on the span timeline that the blocks are gone with the
    /// handle.
    fn drop(&mut self) {
        if self.flush().is_err() {
            self.m.obs.event("flush-lost");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::Field;
    use nsdf_compress::Codec;
    use nsdf_storage::MemoryStore;
    use nsdf_util::{DType, GeoTransform, SimClock};

    fn make_dataset(w: u64, h: u64, codec: Codec) -> (Arc<MemoryStore>, IdxDataset) {
        let store = Arc::new(MemoryStore::new());
        let meta = IdxMeta::new_2d(
            "test",
            w,
            h,
            vec![Field::new("v", DType::F32).unwrap()],
            8, // small blocks (256 samples) to exercise multi-block paths
            codec,
        )
        .unwrap();
        let ds =
            IdxDataset::create(store.clone() as Arc<dyn ObjectStore>, "data/test", meta).unwrap();
        (store, ds)
    }

    fn ramp(w: usize, h: usize) -> Raster<f32> {
        Raster::from_fn(w, h, |x, y| (y * w + x) as f32)
    }

    #[test]
    fn full_resolution_roundtrip_square() {
        let (_s, ds) = make_dataset(64, 64, Codec::Raw);
        let r = ramp(64, 64);
        let stats = ds.write_raster("v", 0, &r).unwrap();
        assert!(stats.blocks_written > 1);
        let (back, q) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(back.data(), r.data());
        assert_eq!(q.samples_out, 64 * 64);
        assert_eq!(q.blocks_missing, 0);
    }

    #[test]
    fn full_resolution_roundtrip_rectangular_non_pow2() {
        let (_s, ds) = make_dataset(100, 37, Codec::Lzss);
        let r = ramp(100, 37);
        let stats = ds.write_raster("v", 0, &r).unwrap();
        // 128x64 padded grid = 8192 addresses = 32 blocks; the write stores
        // exactly those holding a sample, and some hold only padding.
        let mut holding = std::collections::BTreeSet::new();
        for y in 0..37 {
            for x in 0..100 {
                holding.insert(ds.curve.block_offset(&[x, y], 256).unwrap().0);
            }
        }
        assert!(holding.len() < 32);
        assert_eq!(stats.blocks_written, holding.len() as u64);
        let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(back.data(), r.data());
    }

    #[test]
    fn open_reads_header_back() {
        let (store, ds) = make_dataset(32, 32, Codec::Lz4);
        ds.write_raster("v", 0, &ramp(32, 32)).unwrap();
        let reopened = IdxDataset::open(store as Arc<dyn ObjectStore>, "data/test").unwrap();
        assert_eq!(reopened.meta(), ds.meta());
        let (back, _) = reopened.read_full::<f32>("v", 0).unwrap();
        assert_eq!(back.get(5, 7), ramp(32, 32).get(5, 7));
    }

    #[test]
    fn a_forged_header_fails_open_instead_of_panicking() {
        let (store, ds) = make_dataset(32, 32, Codec::Raw);
        ds.write_raster("v", 0, &ramp(32, 32)).unwrap();
        let header = "data/test/dataset.idx";
        let text = String::from_utf8(store.get(header).unwrap()).unwrap();
        let mut forged: Vec<Vec<u8>> = [
            ("bits_per_block=8", "bits_per_block=64"),
            ("bits_per_block=8", "bits_per_block=63"),
            ("dims=32 32", "dims=32 32 32"),
            ("dims=32 32", "dims=32"),
            ("version=", "version=9"),
            ("codec=raw", "codec=rle"),
        ]
        .iter()
        .map(|(from, to)| {
            assert!(text.contains(from), "{from:?}");
            text.replacen(from, to, 1).into_bytes()
        })
        .collect();
        forged.push(vec![0xff, 0xfe]);
        for bytes in forged {
            store.put(header, &bytes).unwrap();
            match IdxDataset::open(store.clone() as Arc<dyn ObjectStore>, "data/test") {
                Err(e) => assert!(e.is_corrupt(), "{e}"),
                Ok(_) => panic!("{:?} opened", String::from_utf8_lossy(&bytes)),
            }
        }
    }

    #[test]
    fn coarse_level_is_strided_subsample() {
        let (_s, ds) = make_dataset(64, 64, Codec::Raw);
        let r = ramp(64, 64);
        ds.write_raster("v", 0, &r).unwrap();
        let max = ds.max_level();
        let (coarse, _) = ds.read_box::<f32>("v", 0, ds.bounds(), max - 2).unwrap();
        // Level max-2 has strides (2, 2): out 32x32, values at (2i, 2j).
        assert_eq!(coarse.shape(), (32, 32));
        for j in 0..32 {
            for i in 0..32 {
                assert_eq!(coarse.get(i, j), r.get(i * 2, j * 2), "({i},{j})");
            }
        }
    }

    #[test]
    fn coarse_levels_touch_fewer_blocks() {
        let (_s, ds) = make_dataset(128, 128, Codec::Raw);
        ds.write_raster("v", 0, &ramp(128, 128)).unwrap();
        let max = ds.max_level();
        let (_, q_full) = ds.read_box::<f32>("v", 0, ds.bounds(), max).unwrap();
        let (_, q_coarse) = ds.read_box::<f32>("v", 0, ds.bounds(), max - 4).unwrap();
        assert!(
            q_coarse.blocks_touched < q_full.blocks_touched / 4,
            "coarse {} vs full {}",
            q_coarse.blocks_touched,
            q_full.blocks_touched
        );
    }

    #[test]
    fn small_region_touches_few_blocks() {
        let (_s, ds) = make_dataset(128, 128, Codec::Raw);
        ds.write_raster("v", 0, &ramp(128, 128)).unwrap();
        let max = ds.max_level();
        let region = Box2i::new(40, 40, 56, 56); // 16x16 of 128x128
        let (out, q) = ds.read_box::<f32>("v", 0, region, max).unwrap();
        assert_eq!(out.shape(), (16, 16));
        assert_eq!(out.get(0, 0), ramp(128, 128).get(40, 40));
        let (_, q_full) = ds.read_box::<f32>("v", 0, ds.bounds(), max).unwrap();
        assert!(q.blocks_touched < q_full.blocks_touched / 2);
    }

    #[test]
    fn progressive_read_refines() {
        let (_s, ds) = make_dataset(64, 64, Codec::ShuffleLzss { sample_size: 4 });
        let r = ramp(64, 64);
        ds.write_raster("v", 0, &r).unwrap();
        let seq = ds.read_progressive::<f32>("v", 0, ds.bounds(), 4, ds.max_level()).unwrap();
        assert_eq!(seq.len() as u32, ds.max_level() - 4 + 1);
        let mut prev_samples = 0;
        for (level, raster, stats) in &seq {
            assert!(stats.samples_out >= prev_samples, "level {level}");
            prev_samples = stats.samples_out;
            // Every sample at every level is a true stored value.
            let strides = ds.curve.mask().level_strides(*level).unwrap();
            assert_eq!(raster.get(0, 0), r.get(0, 0));
            let (w, _) = raster.shape();
            assert_eq!(raster.get(w - 1, 0), r.get((w - 1) * strides[0] as usize, 0));
        }
        assert!(ds.read_progressive::<f32>("v", 0, ds.bounds(), 5, 4).is_err());
    }

    #[test]
    fn multiple_fields_and_timesteps_are_independent() {
        let store = Arc::new(MemoryStore::new());
        let meta = IdxMeta::new_2d(
            "multi",
            32,
            32,
            vec![Field::new("a", DType::F32).unwrap(), Field::new("b", DType::F32).unwrap()],
            8,
            Codec::Raw,
        )
        .unwrap()
        .with_timesteps(2)
        .unwrap();
        let ds = IdxDataset::create(store, "m", meta).unwrap();
        let ra = ramp(32, 32);
        let rb = ra.map(|v: f32| -v);
        ds.write_raster("a", 0, &ra).unwrap();
        ds.write_raster("b", 0, &rb).unwrap();
        ds.write_raster("a", 1, &rb).unwrap();
        assert_eq!(ds.read_full::<f32>("a", 0).unwrap().0.data(), ra.data());
        assert_eq!(ds.read_full::<f32>("b", 0).unwrap().0.data(), rb.data());
        assert_eq!(ds.read_full::<f32>("a", 1).unwrap().0.data(), rb.data());
        assert!(ds.write_raster("a", 2, &ra).is_err());
        assert!(ds.read_full::<f32>("missing", 0).is_err());
    }

    #[test]
    fn dtype_and_shape_mismatches_rejected() {
        let (_s, ds) = make_dataset(32, 32, Codec::Raw);
        assert!(ds.write_raster("v", 0, &Raster::<u16>::zeros(32, 32)).is_err());
        assert!(ds.write_raster("v", 0, &ramp(16, 32)).is_err());
        ds.write_raster("v", 0, &ramp(32, 32)).unwrap();
        assert!(ds.read_full::<u16>("v", 0).is_err());
        assert!(ds.read_box::<f32>("v", 0, Box2i::new(0, 0, 8, 8), 99).is_err());
        assert!(ds.read_box::<f32>("v", 0, Box2i::new(500, 500, 600, 600), 5).is_err());
    }

    #[test]
    fn unwritten_region_reads_as_fill() {
        let (_s, ds) = make_dataset(32, 32, Codec::Raw);
        // Never write; all blocks missing -> zeros, counted in stats.
        let (out, q) = ds.read_full::<f32>("v", 0).unwrap();
        assert!(out.data().iter().all(|&v| v == 0.0));
        assert_eq!(q.blocks_missing, q.blocks_touched);
    }

    #[test]
    fn compression_reduces_stored_bytes_on_smooth_data() {
        let smooth = Raster::<f32>::from_fn(64, 64, |x, y| {
            ((x as f32) * 0.05).sin() * 100.0 + (y as f32) * 0.02
        });
        let (_s1, raw_ds) = make_dataset(64, 64, Codec::Raw);
        let (_s2, lz_ds) = make_dataset(64, 64, Codec::ShuffleLzss { sample_size: 4 });
        let raw = raw_ds.write_raster("v", 0, &smooth).unwrap();
        let lz = lz_ds.write_raster("v", 0, &smooth).unwrap();
        assert_eq!(raw.bytes_raw, lz.bytes_raw);
        assert!(lz.bytes_stored < raw.bytes_stored);
        assert!(lz.compression_fraction() < 0.9);
        let (back, _) = lz_ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(back.data(), smooth.data());
    }

    /// O(samples) reference planner kept solely to cross-check
    /// [`IdxDataset::blocks_for_query`].
    fn blocks_for_query_by_sample_walk(ds: &IdxDataset, region: Box2i, level: u32) -> Vec<u64> {
        let mut blocks = std::collections::BTreeSet::new();
        for l in 0..=level {
            for (_, hz) in ds.curve.level_samples_in_box(l, region).unwrap() {
                blocks.insert(hz / ds.meta.block_samples());
            }
        }
        blocks.into_iter().collect()
    }

    #[test]
    fn blocks_for_query_matches_sample_walk() {
        // The O(blocks) planner must agree with the retired O(samples)
        // walk on every region/level combination.
        let (_s, ds) = make_dataset(100, 37, Codec::Raw);
        let regions = [
            ds.bounds(),
            Box2i::new(0, 0, 1, 1),
            Box2i::new(17, 5, 63, 29),
            Box2i::new(96, 33, 100, 37),
            Box2i::new(40, 0, 41, 37),
        ];
        for region in regions {
            for level in 0..=ds.max_level() {
                assert_eq!(
                    ds.blocks_for_query(region, level).unwrap(),
                    blocks_for_query_by_sample_walk(&ds, region, level),
                    "region {region:?} level {level}"
                );
            }
        }
    }

    #[test]
    fn read_box_deterministic_across_fetch_concurrency() {
        // Byte-identical output whether blocks stream one at a time or in
        // wide parallel batches.
        let r = ramp(100, 37);
        let region = Box2i::new(11, 3, 87, 31);
        let mut reference: Option<Vec<f32>> = None;
        for conc in [1usize, 2, 4, 8, 32] {
            let (_s, ds) = make_dataset(100, 37, Codec::ShuffleLzss { sample_size: 4 });
            let ds = ds.with_fetch_concurrency(conc);
            ds.write_raster("v", 0, &r).unwrap();
            let (out, stats) = ds.read_box::<f32>("v", 0, region, ds.max_level()).unwrap();
            assert_eq!(stats.fetch_concurrency, conc as u64);
            match &reference {
                None => reference = Some(out.data().to_vec()),
                Some(want) => {
                    assert_eq!(out.data(), &want[..], "fetch_concurrency {conc}");
                }
            }
        }
    }

    #[test]
    fn fetch_batches_respect_concurrency() {
        let (_s, ds) = make_dataset(64, 64, Codec::Raw);
        let ds = ds.with_fetch_concurrency(4);
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        let (_, q) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(q.fetch_batches, q.blocks_touched.div_ceil(4));
        assert_eq!(q.blocks_decoded, q.blocks_touched - q.blocks_missing);
        assert_eq!(q.decoded_cache_hits, 0);
    }

    #[test]
    fn progressive_read_decodes_each_block_once() {
        let (_s, ds) = make_dataset(64, 64, Codec::Lz4);
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        let seq = ds.read_progressive::<f32>("v", 0, ds.bounds(), 2, ds.max_level()).unwrap();
        let total_decoded: u64 = seq.iter().map(|(_, _, q)| q.blocks_decoded).sum();
        let distinct = ds.blocks_for_query(ds.bounds(), ds.max_level()).unwrap().len() as u64;
        assert_eq!(total_decoded, distinct, "each block decoded at most once");
        // Finer levels re-touch the coarse blocks but serve them from the
        // decoded cache.
        let total_hits: u64 = seq.iter().map(|(_, _, q)| q.decoded_cache_hits).sum();
        assert!(total_hits > 0);
        let (last_level, _, _) = seq.last().unwrap();
        assert_eq!(*last_level, ds.max_level());
        // A re-read of the finest level is now decode-free.
        let (_, q) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(q.blocks_decoded, 0);
        assert_eq!(q.decoded_cache_hits, q.blocks_touched);
        assert_eq!(q.bytes_fetched, 0);
    }

    #[test]
    fn decoded_cache_invalidated_by_writes() {
        let (_s, ds) = make_dataset(64, 64, Codec::Raw);
        let base = ramp(64, 64);
        ds.write_raster("v", 0, &base).unwrap();
        let (before, _) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(before.get(30, 30), base.get(30, 30));
        // Overwrite a patch; the cached decoded blocks for it must drop.
        let patch = Raster::<f32>::filled(4, 4, -1.0);
        ds.write_box("v", 0, 28, 28, &patch).unwrap();
        let (after, _) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(after.get(30, 30), -1.0);
        assert_eq!(after.get(0, 0), base.get(0, 0));
        // Written back, the patched blocks leave RAM: the next read decodes
        // them from the store and sees the same samples.
        assert!(ds.flush().unwrap().blocks_written > 0);
        let (stored, q) = ds.read_full::<f32>("v", 0).unwrap();
        assert!(q.blocks_decoded > 0, "flushed images do not enter the decoded cache");
        assert_eq!(stored.data(), after.data());
    }

    #[test]
    fn decoded_cache_evicts_a_reinserted_block_by_its_latest_insertion() {
        let block = || Some(Arc::new(vec![0u8; 8]));
        let (a, b, c) = ((0, 0, 1), (0, 0, 2), (0, 0, 3));
        let mut cache = DecodedCache::new(16);
        cache.insert(a, block());
        cache.insert(b, block());
        assert!(cache.remove(&a), "a write invalidates A");
        cache.insert(a, block());
        assert_eq!(cache.insert(c, block()), 1, "C forces one eviction");
        assert!(cache.get(&b).is_none(), "B is now the oldest insertion");
        assert!(cache.get(&a).is_some() && cache.get(&c).is_some());
    }

    #[test]
    fn decoded_cache_queue_stays_bounded_under_write_read_cycles() {
        let key = (0, 0, 7);
        let mut cache = DecodedCache::new(1 << 20);
        cache.insert(key, Some(Arc::new(vec![1u8; 64])));
        for _ in 0..1000 {
            cache.remove(&key);
            cache.insert(key, Some(Arc::new(vec![1u8; 64])));
        }
        assert!(cache.queue.len() <= 2 * cache.entries.len() + 1, "{}", cache.queue.len());
    }

    #[test]
    fn decoded_eviction_reasons_split_exactly() {
        let obs = Obs::default();
        let (_s, ds) = make_dataset(64, 64, Codec::Raw);
        let ds = ds.with_obs(&obs);
        let base = ramp(64, 64);
        ds.write_raster("v", 0, &base).unwrap();
        let counter = |name: &str| obs.snapshot().counter(name);

        // Read everything: the cache is warm, nothing evicted yet.
        ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(counter("idx.decoded_evictions.budget"), 0);
        assert_eq!(counter("idx.decoded_evictions.epoch"), 0);

        // A write over cached blocks invalidates exactly the blocks it
        // stored — every one an epoch eviction, none budget.
        let patch = Raster::<f32>::filled(4, 4, -1.0);
        ds.write_box("v", 0, 28, 28, &patch).unwrap();
        let epoch_evictions = counter("idx.decoded_evictions.epoch");
        assert!(epoch_evictions > 0, "overwriting cached blocks must count epoch evictions");
        assert_eq!(counter("idx.decoded_evictions.budget"), 0);

        // Shrink the budget to one block and re-read: FIFO pressure now
        // produces budget evictions without touching the epoch counter.
        let block_bytes = 256 * 4; // 8 bits/block, f32 samples
        let ds = ds.with_decoded_cache_bytes(block_bytes);
        ds.read_full::<f32>("v", 0).unwrap();
        assert!(counter("idx.decoded_evictions.budget") > 0, "budget pressure must evict");
        assert_eq!(
            counter("idx.decoded_evictions.epoch"),
            epoch_evictions,
            "budget pressure must not masquerade as write invalidation"
        );
    }

    #[test]
    fn zero_budget_disables_decoded_cache() {
        let (_s, ds) = make_dataset(64, 64, Codec::Raw);
        let ds = ds.with_decoded_cache_bytes(0);
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        let (_, q1) = ds.read_full::<f32>("v", 0).unwrap();
        let (_, q2) = ds.read_full::<f32>("v", 0).unwrap();
        assert!(q1.blocks_decoded > 0);
        assert_eq!(q2.blocks_decoded, q1.blocks_decoded, "nothing was cached");
        assert_eq!(q2.decoded_cache_hits, 0);
    }

    #[test]
    fn query_stats_merge_accumulates() {
        let mut a = QueryStats {
            blocks_touched: 3,
            bytes_fetched: 100,
            fetch_concurrency: 4,
            ..QueryStats::default()
        };
        let b = QueryStats {
            blocks_touched: 2,
            blocks_missing: 1,
            fetch_concurrency: 8,
            decode_secs: 0.5,
            ..QueryStats::default()
        };
        a.merge(&b);
        assert_eq!(a.blocks_touched, 5);
        assert_eq!(a.blocks_missing, 1);
        assert_eq!(a.bytes_fetched, 100);
        assert_eq!(a.fetch_concurrency, 8);
        assert!((a.decode_secs - 0.5).abs() < 1e-12);
    }

    #[test]
    fn query_stats_merge_identity() {
        let stats = QueryStats {
            blocks_touched: 7,
            blocks_missing: 2,
            bytes_fetched: 512,
            samples_out: 100,
            blocks_decoded: 5,
            bytes_decoded: 2048,
            decoded_cache_hits: 3,
            fetch_batches: 2,
            fetch_concurrency: 8,
            fetch_secs: 0.25,
            decode_secs: 0.125,
            requested_level: 4,
            delivered_level: 3,
            blocks_unavailable: 1,
            degraded: true,
        };
        // default ∪ x == x, and x ∪ default == x.
        let mut from_default = QueryStats::default();
        from_default.merge(&stats);
        assert_eq!(from_default, stats);
        let mut into_x = stats.clone();
        into_x.merge(&QueryStats::default());
        assert_eq!(into_x, stats);
    }

    #[test]
    fn query_stats_merge_is_associative() {
        // Dyadic times so f64 addition is exact and order-insensitive.
        let mk = |bt: u64, fs: f64, ds_: f64| QueryStats {
            blocks_touched: bt,
            fetch_concurrency: bt,
            fetch_secs: fs,
            decode_secs: ds_,
            ..QueryStats::default()
        };
        let (a, b, c) = (mk(1, 0.25, 0.5), mk(2, 0.125, 0.25), mk(4, 0.5, 0.125));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn progressive_stats_merge_round_trips_to_combined_run() {
        // Merging the per-level snapshots of a progressive read must equal
        // the stats of the combined run — i.e. every counter (and the
        // fetch/decode timers, summed in the same order merge() visits
        // them) matches a manual field-wise accumulation. A double-count of
        // fetch_secs/decode_secs across batches would break the equality.
        let (_s, ds) = make_dataset(64, 64, Codec::Lz4);
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        let seq = ds.read_progressive::<f32>("v", 0, ds.bounds(), 2, ds.max_level()).unwrap();

        let mut merged = QueryStats::default();
        for (_, _, q) in &seq {
            merged.merge(q);
        }
        let manual = |f: &dyn Fn(&QueryStats) -> u64| seq.iter().map(|(_, _, q)| f(q)).sum::<u64>();
        assert_eq!(merged.blocks_touched, manual(&|q| q.blocks_touched));
        assert_eq!(merged.blocks_missing, manual(&|q| q.blocks_missing));
        assert_eq!(merged.bytes_fetched, manual(&|q| q.bytes_fetched));
        assert_eq!(merged.samples_out, manual(&|q| q.samples_out));
        assert_eq!(merged.blocks_decoded, manual(&|q| q.blocks_decoded));
        assert_eq!(merged.decoded_cache_hits, manual(&|q| q.decoded_cache_hits));
        assert_eq!(merged.fetch_batches, manual(&|q| q.fetch_batches));
        assert_eq!(
            merged.fetch_concurrency,
            seq.iter().map(|(_, _, q)| q.fetch_concurrency).max().unwrap()
        );
        // Exact (bitwise) equality: merge() adds in sequence order, so the
        // sums must be reproducible fold-for-fold, not just approximately.
        let fetch_sum = seq.iter().fold(0.0, |acc, (_, _, q)| acc + q.fetch_secs);
        let decode_sum = seq.iter().fold(0.0, |acc, (_, _, q)| acc + q.decode_secs);
        assert_eq!(merged.fetch_secs.to_bits(), fetch_sum.to_bits());
        assert_eq!(merged.decode_secs.to_bits(), decode_sum.to_bits());
        // The registry agrees with the merged per-query stats.
        let snap = ds.obs().snapshot();
        assert_eq!(snap.counter("idx.blocks_touched"), merged.blocks_touched);
        assert_eq!(snap.counter("idx.blocks_decoded"), merged.blocks_decoded);
        assert_eq!(snap.counter("idx.decoded_cache_hits"), merged.decoded_cache_hits);
        assert_eq!(snap.counter("idx.bytes_fetched"), merged.bytes_fetched);
        assert_eq!(snap.counter("idx.fetch_batches"), merged.fetch_batches);
        assert_eq!(snap.counter("idx.queries"), seq.len() as u64);
    }

    #[test]
    fn read_box_spans_cover_pipeline_stages() {
        let obs = Obs::default();
        let (_s, ds) = make_dataset(64, 64, Codec::Raw);
        let ds = ds.with_obs(&obs);
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        ds.read_full::<f32>("v", 0).unwrap();
        let tree = obs.span_tree();
        assert_eq!(tree.len(), 2, "one write root, one read root");
        let q = &tree[1];
        assert_eq!(q.label, "idx.read_box");
        let child_labels: Vec<&str> = q.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(child_labels[0], "idx.plan");
        assert!(child_labels.contains(&"idx.fetch"));
        assert!(child_labels.contains(&"idx.decode"));
        assert_eq!(*child_labels.last().unwrap(), "idx.gather");
    }

    #[test]
    fn write_raster_spans_cover_pipeline_stages() {
        let obs = Obs::default();
        let (_s, ds) = make_dataset(64, 64, Codec::Raw);
        let ds = ds.with_obs(&obs);
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        let tree = obs.span_tree();
        assert_eq!(tree.len(), 1);
        let w = &tree[0];
        assert_eq!(w.label, "idx.write_raster");
        let child_labels: Vec<&str> = w.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(child_labels[0], "idx.plan");
        assert!(child_labels.contains(&"idx.encode"));
        assert!(child_labels.contains(&"idx.put"));
        assert!(!child_labels.contains(&"idx.rmw-fetch"), "full write never RMWs");
    }

    #[test]
    fn write_box_spans_include_rmw_fetch() {
        let obs = Obs::default();
        let (_s, ds) = make_dataset(64, 64, Codec::Raw);
        let ds = ds.with_obs(&obs).with_decoded_cache_bytes(0);
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        obs.clear_spans();
        // A 3x3 patch straddles blocks without covering any fully, so every
        // touched block needs a read-modify-write fetch — and none of them
        // is uploaded before the flush.
        let patch = Raster::<f32>::filled(3, 3, -2.0);
        let stats = ds.write_box("v", 0, 30, 30, &patch).unwrap();
        assert!(stats.rmw_fetches > 0);
        assert_eq!((stats.blocks_written, stats.put_batches), (0, 0));
        assert_eq!(stats.encode_secs, 0.0, "encode_secs times the codec alone");
        assert_eq!(stats.blocks_pending, stats.rmw_fetches);
        let flushed = ds.flush().unwrap();
        assert_eq!(flushed.blocks_written, stats.blocks_pending);
        assert!(flushed.encode_secs > 0.0);
        assert_eq!(flushed.blocks_pending, 0);
        let tree = obs.span_tree();
        let labels = |n: &nsdf_util::SpanNode| -> Vec<String> {
            n.children.iter().map(|c| c.label.clone()).collect()
        };
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].label, "idx.write_box");
        assert_eq!(labels(&tree[0]), ["idx.plan", "idx.rmw-fetch", "idx.decode"]);
        assert_eq!(tree[1].label, "idx.flush");
        assert_eq!(labels(&tree[1]), ["idx.encode", "idx.put"]);
    }

    #[test]
    fn write_raster_deterministic_across_write_concurrency() {
        // Stored block bytes are identical whether uploads go one at a time
        // or in wide put_many batches.
        let r = ramp(100, 37);
        let mut reference: Option<Vec<(String, Vec<u8>)>> = None;
        for conc in [1usize, 2, 4, 8, 32] {
            let (store, ds) = make_dataset(100, 37, Codec::ShuffleLzss { sample_size: 4 });
            let ds = ds.with_write_concurrency(conc);
            let stats = ds.write_raster("v", 0, &r).unwrap();
            assert_eq!(stats.write_concurrency, conc as u64);
            assert_eq!(stats.put_batches, stats.blocks_written.div_ceil(conc as u64));
            assert_eq!(stats.rmw_fetches, 0, "full write never RMWs");
            let dump: Vec<(String, Vec<u8>)> = store
                .list("")
                .unwrap()
                .into_iter()
                .map(|m| (m.key.clone(), store.get(&m.key).unwrap()))
                .collect();
            match &reference {
                None => reference = Some(dump),
                Some(want) => assert_eq!(&dump, want, "write_concurrency {conc}"),
            }
        }
    }

    #[test]
    fn write_stats_merge_accumulates() {
        let mut a = WriteStats {
            blocks_written: 3,
            blocks_combined: 1,
            blocks_pending: 5,
            bytes_raw: 1024,
            bytes_stored: 700,
            put_batches: 1,
            write_concurrency: 4,
            encode_secs: 0.25,
            codecs: BTreeMap::from([("raw".to_string(), 2), ("lzss".to_string(), 1)]),
            ..WriteStats::default()
        };
        let b = WriteStats {
            blocks_written: 2,
            blocks_combined: 2,
            blocks_pending: 2,
            rmw_fetches: 2,
            put_batches: 1,
            write_concurrency: 8,
            put_secs: 0.5,
            codecs: BTreeMap::from([("lzss".to_string(), 2)]),
            ..WriteStats::default()
        };
        a.merge(&b);
        assert_eq!(a.blocks_written, 5);
        assert_eq!(a.blocks_combined, 3);
        assert_eq!(a.blocks_pending, 5, "a level: merging keeps the peak");
        assert_eq!(a.bytes_raw, 1024);
        assert_eq!(a.rmw_fetches, 2);
        assert_eq!(a.put_batches, 2);
        assert_eq!(a.write_concurrency, 8);
        assert!((a.encode_secs - 0.25).abs() < 1e-12);
        assert!((a.put_secs - 0.5).abs() < 1e-12);
        assert_eq!(a.codecs, BTreeMap::from([("raw".to_string(), 2), ("lzss".to_string(), 3)]));
    }

    #[test]
    fn write_stats_merge_identity() {
        let stats = WriteStats {
            blocks_written: 7,
            blocks_combined: 4,
            blocks_pending: 3,
            bytes_raw: 512,
            bytes_stored: 300,
            rmw_fetches: 3,
            put_batches: 2,
            write_concurrency: 8,
            encode_secs: 0.125,
            put_secs: 0.25,
            codecs: BTreeMap::from([("lz4".to_string(), 7)]),
        };
        let mut from_default = WriteStats::default();
        from_default.merge(&stats);
        assert_eq!(from_default, stats);
        let mut into_x = stats.clone();
        into_x.merge(&WriteStats::default());
        assert_eq!(into_x, stats);
    }

    #[test]
    fn write_metrics_feed_registry() {
        let obs = Obs::default();
        let (_s, ds) = make_dataset(64, 64, Codec::Raw);
        let ds = ds.with_obs(&obs).with_write_concurrency(4);
        let s1 = ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        let patch = Raster::<f32>::filled(3, 3, 1.5);
        let s2 = ds.write_box("v", 0, 10, 10, &patch).unwrap();
        assert!(s2.blocks_combined > 0 && s2.blocks_pending == s2.blocks_combined);
        let block_bytes = 256.0 * 4.0;
        assert_eq!(
            obs.snapshot().gauge("idx.pending_bytes"),
            s2.blocks_pending as f64 * block_bytes
        );
        let s3 = ds.flush().unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("idx.writes"), 3);
        assert_eq!(
            snap.counter("idx.blocks_written"),
            s1.blocks_written + s2.blocks_written + s3.blocks_written
        );
        assert_eq!(
            snap.counter("idx.bytes_written"),
            s1.bytes_stored + s2.bytes_stored + s3.bytes_stored
        );
        assert_eq!(snap.counter("idx.rmw_fetches"), s2.rmw_fetches);
        assert_eq!(
            snap.counter("idx.put_batches"),
            s1.put_batches + s2.put_batches + s3.put_batches
        );
        assert_eq!(snap.counter("idx.blocks_combined"), s2.blocks_combined);
        assert_eq!(snap.gauge("idx.pending_bytes"), 0.0);
        assert_eq!(snap.counter("idx.flush_failures"), 0);
    }

    #[test]
    fn adaptive_dataset_roundtrips_and_records_chosen_codecs() {
        let obs = Obs::default();
        let (_s, ds) = make_dataset(64, 64, Codec::Adaptive { sample_size: 4 });
        let ds = ds.with_obs(&obs);
        let r = ramp(64, 64);
        let stats = ds.write_raster("v", 0, &r).unwrap();
        assert!(stats.blocks_written > 1);
        // Every stored block is attributed to the codec the selector chose,
        // and the same totals land in the shared registry.
        assert_eq!(stats.codecs.values().sum::<u64>(), stats.blocks_written);
        let snap = obs.snapshot();
        let selected: u64 =
            stats.codecs.keys().map(|name| snap.counter(&format!("codec.selected.{name}"))).sum();
        assert_eq!(selected, stats.blocks_written);
        let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(back.data(), r.data());
    }

    #[test]
    fn adaptive_planes_each_field_at_its_own_sample_width() {
        let store = Arc::new(MemoryStore::new());
        let fields =
            vec![Field::new("f", DType::F32).unwrap(), Field::new("c", DType::U8).unwrap()];
        let meta =
            IdxMeta::new_2d("test", 64, 64, fields, 8, Codec::Adaptive { sample_size: 4 }).unwrap();
        let ds = IdxDataset::create(store as Arc<dyn ObjectStore>, "data/test", meta).unwrap();
        let labels = Raster::<u8>::from_fn(64, 64, |x, y| (x / 16 + y / 16 * 4) as u8);
        let stats = ds.write_raster("c", 0, &labels).unwrap();
        assert_eq!(stats.codecs.keys().collect::<Vec<_>>(), ["planes1"]);
        let stats = ds.write_raster("f", 0, &ramp(64, 64)).unwrap();
        assert_eq!(stats.codecs.keys().collect::<Vec<_>>(), ["planes4"]);
        assert_eq!(ds.read_full::<u8>("c", 0).unwrap().0.data(), labels.data());
    }

    #[test]
    fn adaptive_blocks_carry_self_describing_headers() {
        let (store, ds) = make_dataset(32, 32, Codec::Adaptive { sample_size: 4 });
        ds.write_raster("v", 0, &ramp(32, 32)).unwrap();
        // A full write always covers block 0 (the coarsest HZ addresses).
        let sealed = store.get(&ds.block_key(0, 0, 0)).unwrap();
        let enc = unseal(BLOCK_MAGIC, &sealed).unwrap();
        let (codec, header) = nsdf_compress::adaptive::read_block_header(enc).unwrap();
        assert!(header >= 1);
        let block_bytes = ds.meta().block_samples() as usize * 4;
        let raw = codec.decode(&enc[header..], block_bytes).unwrap();
        assert_eq!(raw.len(), block_bytes);
    }

    #[test]
    fn blocks_stored_before_the_envelope_still_read() {
        // A static codec stored the bare stream, adaptive the tagged one.
        for codec in [Codec::Lzss, Codec::Adaptive { sample_size: 4 }] {
            let (store, ds) = make_dataset(32, 32, codec);
            let r = ramp(32, 32);
            ds.write_raster("v", 0, &r).unwrap();
            for m in store.list("data/test/f0/").unwrap() {
                let sealed = store.get(&m.key).unwrap();
                store.put(&m.key, unseal(BLOCK_MAGIC, &sealed).unwrap()).unwrap();
            }
            let legacy = IdxDataset::open(store as Arc<dyn ObjectStore>, "data/test").unwrap();
            let (back, _) = legacy.read_full::<f32>("v", 0).unwrap();
            assert_eq!(back.data(), r.data(), "{codec}");
        }
    }

    #[test]
    fn a_block_sealed_with_the_retired_trailer_is_a_format_error_never_a_retry() {
        use nsdf_storage::{IntegrityStore, RetryPolicy, RetryStore};
        let (store, ds) = make_dataset(32, 32, Codec::Lz4);
        ds.write_raster("v", 0, &ramp(32, 32)).unwrap();
        for m in store.list("data/test/f0/").unwrap() {
            let mut bytes = store.get(&m.key).unwrap();
            let framed = bytes.len() - 8;
            let retired = nsdf_util::fnv1a64(&bytes[..framed]);
            bytes[framed..].copy_from_slice(&retired.to_le_bytes());
            store.put(&m.key, &bytes).unwrap();
        }
        let integrity = Arc::new(IntegrityStore::new(store as Arc<dyn ObjectStore>));
        let retry = RetryStore::new(integrity.clone(), RetryPolicy::default(), SimClock::new());
        let retry = Arc::new(retry.unwrap());
        let old = IdxDataset::open(retry.clone() as Arc<dyn ObjectStore>, "data/test").unwrap();
        let err = old.read_full::<f32>("v", 0).unwrap_err();
        assert!(matches!(err, NsdfError::Format(_)), "{err}");
        assert_eq!((retry.retries(), integrity.rejected()), (0, 0));
    }

    #[test]
    fn a_damaged_sealed_block_is_corrupt_never_wrong_data() {
        let (store, ds) = make_dataset(32, 32, Codec::Lz4);
        let r = ramp(32, 32);
        ds.write_raster("v", 0, &r).unwrap();
        let key = ds.block_key(0, 0, 1);
        let sealed = store.get(&key).unwrap();
        assert!(sealed.starts_with(BLOCK_MAGIC));
        for (i, flip) in (0..sealed.len()).flat_map(|i| [0x01, 0x5a, 0x80, 0xff].map(|f| (i, f))) {
            let mut bad = sealed.clone();
            bad[i] ^= flip;
            store.put(&key, &bad).unwrap();
            let fresh = IdxDataset::open(store.clone() as Arc<dyn ObjectStore>, "data/test");
            match fresh.unwrap().read_full::<f32>("v", 0) {
                Ok((back, _)) => assert_eq!(back.data(), r.data(), "byte {i} ^ {flip:#x}"),
                Err(e) => assert!(e.is_corrupt(), "byte {i} ^ {flip:#x}: {e}"),
            }
        }
    }

    #[test]
    fn adaptive_write_box_rmw_roundtrips() {
        let (_s, ds) = make_dataset(64, 64, Codec::Adaptive { sample_size: 4 });
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        let patch = Raster::<f32>::filled(5, 7, -3.25);
        ds.write_box("v", 0, 20, 11, &patch).unwrap();
        let stats = ds.flush().unwrap();
        assert!(stats.blocks_written > 0);
        assert_eq!(stats.codecs.values().sum::<u64>(), stats.blocks_written);
        let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
        for y in 0..64usize {
            for x in 0..64usize {
                let expected = if (11..18).contains(&y) && (20..25).contains(&x) {
                    -3.25
                } else {
                    (y * 64 + x) as f32
                };
                assert_eq!(back.get(x, y), expected, "at ({x}, {y})");
            }
        }
    }

    #[test]
    fn geo_propagates_with_window_and_stride() {
        let store = Arc::new(MemoryStore::new());
        let meta = IdxMeta::new_2d(
            "geo",
            64,
            64,
            vec![Field::new("v", DType::F32).unwrap()],
            8,
            Codec::Raw,
        )
        .unwrap()
        .with_geo(GeoTransform::north_up(100.0, 200.0, 30.0));
        let ds = IdxDataset::create(store, "g", meta).unwrap();
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        let (out, _) =
            ds.read_box::<f32>("v", 0, Box2i::new(8, 8, 40, 40), ds.max_level() - 2).unwrap();
        let g = out.geo.unwrap();
        assert_eq!(g.x0, 100.0 + 8.0 * 30.0);
        assert_eq!(g.y0, 200.0 - 8.0 * 30.0);
        assert_eq!(g.dx, 60.0); // stride 2 at level max-2
        assert_eq!(g.dy, -60.0);
    }

    /// Dataset whose store injects a read outage over `[start, end)` virtual
    /// seconds; the returned clock drives the outage window.
    fn outage_dataset(start: f64, end: f64) -> (IdxDataset, SimClock) {
        use nsdf_storage::{FailScope, FaultPlan, FaultStore};
        let clock = SimClock::new();
        let plan = FaultPlan::new(11).with_scope(FailScope::Reads).outage(start, end);
        let store =
            Arc::new(FaultStore::new(Arc::new(MemoryStore::new()), plan, clock.clone()).unwrap());
        let meta = IdxMeta::new_2d(
            "chaos",
            64,
            64,
            vec![Field::new("v", DType::F32).unwrap()],
            8,
            Codec::Raw,
        )
        .unwrap();
        let ds = IdxDataset::create(store, "data/chaos", meta).unwrap();
        (ds, clock)
    }

    #[test]
    fn degraded_read_falls_back_to_cached_coarse_level() {
        let obs = Obs::default();
        let (ds, clock) = outage_dataset(10.0, 30.0);
        let ds = ds.with_degraded_reads(true).with_obs(&obs);
        let r = ramp(64, 64);
        ds.write_raster("v", 0, &r).unwrap();

        // Warm the decoded cache with a coarse preview before the outage.
        let coarse_level = ds.max_level() - 3;
        let (coarse, q0) = ds.read_box::<f32>("v", 0, ds.bounds(), coarse_level).unwrap();
        assert!(!q0.degraded);
        assert_eq!(q0.delivered_level, coarse_level);

        // Inside the outage every uncached (finer) block is unreachable, so
        // the full-resolution query degrades to the cached coarse level.
        clock.advance_secs(15.0);
        let (out, q) = ds.read_box::<f32>("v", 0, ds.bounds(), ds.max_level()).unwrap();
        assert!(q.degraded);
        assert_eq!(q.requested_level, ds.max_level());
        assert_eq!(q.delivered_level, coarse_level);
        assert!(q.blocks_unavailable > 0);
        assert_eq!(out.data(), coarse.data(), "degraded result is the coarse preview");

        let snap = obs.snapshot();
        assert_eq!(snap.counter("idx.degraded_queries"), 1);
        assert_eq!(snap.counter("idx.blocks_unavailable"), q.blocks_unavailable);
        let tree = obs.span_tree();
        let degraded_events: usize =
            tree.iter().flat_map(|q| &q.children).filter(|c| c.label == "idx.degraded").count();
        assert_eq!(degraded_events, 1, "degraded fallback emits one event span");

        // Failed blocks must not be cached as missing: once the outage
        // lifts, the same query delivers full resolution.
        clock.advance_secs(20.0);
        let (full, q2) = ds.read_box::<f32>("v", 0, ds.bounds(), ds.max_level()).unwrap();
        assert!(!q2.degraded);
        assert_eq!(q2.delivered_level, ds.max_level());
        assert_eq!(full.data(), r.data());
    }

    #[test]
    fn degraded_read_requires_opt_in() {
        let (ds, clock) = outage_dataset(10.0, 30.0);
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        ds.read_box::<f32>("v", 0, ds.bounds(), ds.max_level() - 3).unwrap();
        clock.advance_secs(15.0);
        let err = ds.read_box::<f32>("v", 0, ds.bounds(), ds.max_level()).unwrap_err();
        assert!(!err.is_not_found(), "transport failure, not a missing block: {err}");
    }

    #[test]
    fn degraded_read_with_no_reachable_level_errors() {
        let (ds, clock) = outage_dataset(10.0, 30.0);
        let ds = ds.with_degraded_reads(true);
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        // Cold cache: even level 0's block is unreachable, so there is no
        // complete coarser level to fall back to.
        clock.advance_secs(15.0);
        let err = ds.read_box::<f32>("v", 0, ds.bounds(), ds.max_level()).unwrap_err();
        assert!(err.to_string().contains("outage"), "propagates the injected error: {err}");
    }

    #[test]
    fn progressive_read_continues_past_degraded_fine_levels() {
        let (ds, clock) = outage_dataset(10.0, 30.0);
        let ds = ds.with_degraded_reads(true);
        let r = ramp(64, 64);
        ds.write_raster("v", 0, &r).unwrap();
        let coarse_level = ds.max_level() - 3;
        let (warm, _) = ds.read_box::<f32>("v", 0, ds.bounds(), coarse_level).unwrap();

        clock.advance_secs(15.0);
        let seq = ds.read_progressive::<f32>("v", 0, ds.bounds(), 2, ds.max_level()).unwrap();
        assert_eq!(seq.len() as u32, ds.max_level() - 2 + 1);
        for (level, raster, stats) in &seq {
            if *level <= coarse_level {
                // Blocks for levels at or below the warmed preview are a
                // subset of its block set, so they resolve from cache.
                assert!(!stats.degraded, "level {level} fully cached");
                assert_eq!(stats.delivered_level, *level);
            } else {
                assert!(stats.degraded, "level {level} degrades during outage");
                assert_eq!(stats.delivered_level, coarse_level);
                // Delivered data is still exact — just coarser.
                assert_eq!(raster.data(), warm.data());
            }
        }
    }
}

#[cfg(test)]
mod write_box_tests {
    use super::*;
    use crate::meta::Field;
    use nsdf_compress::Codec;
    use nsdf_storage::MemoryStore;
    use nsdf_util::{DType, SimClock};

    fn dataset(codec: Codec) -> IdxDataset {
        let store = Arc::new(MemoryStore::new());
        let meta =
            IdxMeta::new_2d("wb", 64, 64, vec![Field::new("v", DType::F32).unwrap()], 8, codec)
                .unwrap();
        IdxDataset::create(store, "wb", meta).unwrap()
    }

    fn ramp(w: usize, h: usize, offset: f32) -> Raster<f32> {
        Raster::from_fn(w, h, move |x, y| (y * w + x) as f32 + offset)
    }

    #[test]
    fn tile_by_tile_ingest_equals_whole_write() {
        let whole = dataset(Codec::Lz4);
        let full = ramp(64, 64, 0.0);
        whole.write_raster("v", 0, &full).unwrap();

        let tiled = dataset(Codec::Lz4);
        for ty in 0..4u64 {
            for tx in 0..4u64 {
                let window = full
                    .window(Box2i::new(
                        (tx * 16) as i64,
                        (ty * 16) as i64,
                        (tx * 16 + 16) as i64,
                        (ty * 16 + 16) as i64,
                    ))
                    .unwrap();
                tiled.write_box("v", 0, tx * 16, ty * 16, &window).unwrap();
            }
        }
        let (a, _) = whole.read_full::<f32>("v", 0).unwrap();
        let (b, _) = tiled.read_full::<f32>("v", 0).unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn partial_update_preserves_surroundings() {
        let ds = dataset(Codec::ShuffleLzss { sample_size: 4 });
        let base = ramp(64, 64, 0.0);
        ds.write_raster("v", 0, &base).unwrap();
        // Punch a 10x10 patch of 9999s into the middle.
        let patch = Raster::<f32>::filled(10, 10, 9999.0);
        let stats = ds.write_box("v", 0, 27, 30, &patch).unwrap();
        assert!(stats.blocks_pending > 0);
        assert_eq!(ds.flush().unwrap().blocks_written, stats.blocks_pending);
        let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
        for y in 0..64usize {
            for x in 0..64usize {
                let expect = if (27..37).contains(&x) && (30..40).contains(&y) {
                    9999.0
                } else {
                    base.get(x, y)
                };
                assert_eq!(back.get(x, y), expect, "({x},{y})");
            }
        }
    }

    #[test]
    fn unaligned_single_pixel_update() {
        let ds = dataset(Codec::Raw);
        ds.write_raster("v", 0, &ramp(64, 64, 0.0)).unwrap();
        let px = Raster::<f32>::filled(1, 1, -5.0);
        ds.write_box("v", 0, 63, 0, &px).unwrap();
        let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(back.get(63, 0), -5.0);
        assert_eq!(back.get(62, 0), 62.0);
    }

    #[test]
    fn out_of_bounds_write_rejected() {
        let ds = dataset(Codec::Raw);
        let patch = Raster::<f32>::filled(10, 10, 1.0);
        assert!(ds.write_box("v", 0, 60, 60, &patch).is_err());
        assert!(ds.write_box("missing", 0, 0, 0, &patch).is_err());
        assert!(ds.write_box("v", 9, 0, 0, &patch).is_err());
        // An origin whose end overflows is out of bounds on either axis.
        for (x0, y0) in [(i64::MAX as u64, 0), (0, i64::MAX as u64), (u64::MAX, 0), (0, u64::MAX)] {
            let err = ds.write_box("v", 0, x0, y0, &patch).unwrap_err();
            assert!(matches!(err, NsdfError::InvalidArg(_)), "({x0}, {y0}): {err}");
        }
    }

    /// A 64x64 f32 dataset of 256-sample blocks whose store refuses writes
    /// during `[10, 30)` virtual seconds; the clock drives the window.
    fn write_outage_dataset() -> (Arc<dyn ObjectStore>, IdxDataset, SimClock, Obs) {
        use nsdf_storage::{FailScope, FaultPlan, FaultStore};
        let clock = SimClock::new();
        let plan = FaultPlan::new(3).with_scope(FailScope::Writes).outage(10.0, 30.0);
        let store: Arc<dyn ObjectStore> =
            Arc::new(FaultStore::new(Arc::new(MemoryStore::new()), plan, clock.clone()).unwrap());
        let meta = IdxMeta::new_2d(
            "wb",
            64,
            64,
            vec![Field::new("v", DType::F32).unwrap()],
            8,
            Codec::Lz4,
        )
        .unwrap();
        let obs = Obs::default();
        let ds = IdxDataset::create(store.clone(), "wb", meta).unwrap().with_obs(&obs);
        (store, ds, clock, obs)
    }

    #[test]
    fn failed_upload_keeps_the_block_dirty_until_a_later_flush_stores_it() {
        // Each input's last call must upload inside the outage: a 32x32 tile
        // completes several blocks, a full-grid write completes all of them
        // — the last input over a partial block a patch left pending.
        let tile = ramp(32, 32, 7.0);
        let grid = ramp(64, 64, 3.0);
        for (input, over_patch) in [(&tile, false), (&grid, false), (&grid, true)] {
            let (store, ds, clock, obs) = write_outage_dataset();
            if over_patch {
                let stats = ds.write_box("v", 0, 5, 5, &Raster::<f32>::filled(3, 3, -9.0)).unwrap();
                assert!(stats.blocks_written == 0 && stats.blocks_pending > 0);
            }
            clock.advance_secs(15.0);
            let err = if input.shape() == (64, 64) {
                ds.write_raster("v", 0, input).unwrap_err()
            } else {
                ds.write_box("v", 0, 0, 0, input).unwrap_err()
            };
            assert!(err.to_string().contains("outage"), "the put error surfaces: {err}");
            assert_eq!(store.list("wb/f0/").unwrap().len(), 0, "nothing stored");
            // The samples stay merged: visible through the handle, still dirty.
            let (w, h) = input.shape();
            let region = Box2i::new(0, 0, w as i64, h as i64);
            let (seen, _) = ds.read_box::<f32>("v", 0, region, ds.max_level()).unwrap();
            assert_eq!(seen.data(), input.data(), "{w}x{h}, over a patch: {over_patch}");
            assert!(obs.snapshot().gauge("idx.pending_bytes") > 0.0);
            assert!(ds.flush().is_err(), "still inside the outage");
            assert_eq!(obs.snapshot().counter("idx.flush_failures"), 1);

            clock.advance_secs(20.0);
            let flushed = ds.flush().unwrap();
            assert!(flushed.blocks_written > 0);
            assert_eq!(flushed.blocks_pending, 0);
            assert_eq!(obs.snapshot().gauge("idx.pending_bytes"), 0.0);
            let reader = IdxDataset::open(store, "wb").unwrap();
            let (stored, _) = reader.read_box::<f32>("v", 0, region, reader.max_level()).unwrap();
            assert_eq!(stored.data(), input.data(), "{w}x{h}, over a patch: {over_patch}");
        }
    }

    #[test]
    fn drop_flushes_and_counts_a_flush_it_cannot_make() {
        let (store, ds, clock, obs) = write_outage_dataset();
        let px = Raster::<f32>::filled(1, 1, 4.5);
        ds.write_box("v", 0, 9, 9, &px).unwrap();
        assert_eq!(store.list("wb/f0/").unwrap().len(), 0, "a partial block is held back");
        drop(ds);
        assert_eq!(store.list("wb/f0/").unwrap().len(), 1, "dropping the handle wrote it back");
        let reader = IdxDataset::open(store.clone(), "wb").unwrap().with_obs(&obs);
        assert_eq!(reader.read_full::<f32>("v", 0).unwrap().0.get(9, 9), 4.5);

        // Same through a handle dropped inside the outage: the block is lost
        // (the store keeps its old image) and the failure is counted.
        reader.write_box("v", 0, 9, 9, &Raster::<f32>::filled(1, 1, -1.0)).unwrap();
        clock.advance_secs(15.0);
        drop(reader);
        assert_eq!(obs.snapshot().counter("idx.flush_failures"), 1);
        assert!(obs.span_tree().iter().any(|root| root.label == "idx.flush-lost"));
        let reader = IdxDataset::open(store, "wb").unwrap();
        assert_eq!(reader.read_full::<f32>("v", 0).unwrap().0.get(9, 9), 4.5);
    }

    /// An empty 64x64 raw dataset over a store the test can list, with the
    /// write buffer's budget lowered to `budget_blocks` block images.
    fn budgeted(budget_blocks: u64) -> (Arc<MemoryStore>, IdxDataset) {
        let store = Arc::new(MemoryStore::new());
        let meta = IdxMeta::new_2d(
            "wb",
            64,
            64,
            vec![Field::new("v", DType::F32).unwrap()],
            8,
            Codec::Raw,
        )
        .unwrap();
        let mut ds = IdxDataset::create(store.clone() as Arc<dyn ObjectStore>, "wb", meta).unwrap();
        ds.blocks.get_mut().pending.budget = budget_blocks * 256 * 4;
        (store, ds)
    }

    #[test]
    fn a_call_that_leaves_more_than_the_budget_uploads_everything_pending() {
        let (store, mut ds) = budgeted(2);
        // One pixel touches exactly one block; these land in three
        // different ones.
        let px = Raster::<f32>::filled(1, 1, 1.0);
        let write = |ds: &IdxDataset, (x, y): (u64, u64)| {
            let stats = ds.write_box("v", 0, x, y, &px).unwrap();
            (stats.blocks_written, stats.blocks_pending, stats.rmw_fetches)
        };
        assert_eq!(write(&ds, (1, 1)), (0, 1, 0));
        assert_eq!(write(&ds, (33, 1)), (0, 2, 0));
        assert_eq!(write(&ds, (1, 1)), (0, 2, 0), "a block already pending adds nothing");
        assert_eq!(write(&ds, (1, 33)), (3, 0, 0), "the third image does not fit");
        assert_eq!(store.list("wb/f0/").unwrap().len(), 3);

        // With no budget at all every call uploads what it touched — after
        // reading it back, now that the store holds it.
        ds.blocks.get_mut().pending.budget = 0;
        assert_eq!(write(&ds, (33, 1)), (1, 0, 1));
        assert_eq!(write(&ds, (33, 33)), (1, 0, 0), "never uploaded: known absent");
        assert_eq!(store.list("wb/f0/").unwrap().len(), 4);
    }

    #[test]
    fn any_schedule_under_a_tight_budget_stores_what_write_raster_stores() {
        // Overlapping boxes in arbitrary order with a flush now and then:
        // whatever the budget, the handle reads its own writes at every
        // step, never holds more than the budget, and ends on the bytes one
        // `write_raster` of the result leaves.
        for budget_blocks in [0, 1, 5] {
            let (store, ds) = budgeted(budget_blocks);
            let mut oracle = Raster::<f32>::zeros(64, 64);
            let mut rng = 0x9e37_79b9_7f4a_7c15u64 + budget_blocks;
            let mut next = |n: u64| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 33) % n
            };
            // The first box covers the grid, so every sample gets written;
            // now and then a step is a full-grid `write_raster` instead.
            for step in 0..60 {
                let whole = step > 0 && next(10) == 0;
                let (x0, y0) = if step == 0 || whole { (0, 0) } else { (next(64), next(64)) };
                let (w, h) = if step == 0 || whole {
                    (64, 64)
                } else {
                    (1 + next(64 - x0), 1 + next(64 - y0))
                };
                let patch = ramp(w as usize, h as usize, step as f32 * 4099.0 + 1.0);
                let stats = if whole {
                    ds.write_raster("v", 0, &patch).unwrap()
                } else {
                    ds.write_box("v", 0, x0, y0, &patch).unwrap()
                };
                oracle.paste(&patch, x0 as usize, y0 as usize).unwrap();
                assert!(
                    stats.blocks_pending <= budget_blocks,
                    "budget {budget_blocks} step {step}"
                );
                if next(8) == 0 {
                    assert_eq!(ds.flush().unwrap().blocks_pending, 0);
                }
                assert_eq!(ds.read_full::<f32>("v", 0).unwrap().0.data(), oracle.data());
            }
            ds.flush().unwrap();
            let (whole_store, whole) = budgeted(0);
            whole.write_raster("v", 0, &oracle).unwrap();
            let dump = |store: &MemoryStore| -> Vec<(String, Vec<u8>)> {
                let keys = store.list("").unwrap();
                keys.into_iter().map(|m| (m.key.clone(), store.get(&m.key).unwrap())).collect()
            };
            assert_eq!(dump(&store), dump(&whole_store), "budget {budget_blocks}");
        }
    }

    #[test]
    fn flush_waits_for_a_write_that_is_fetching_base_images() {
        use nsdf_storage::testkit::GateStore;
        use std::sync::mpsc;
        use std::time::Duration;
        // A write touches block K, already pending (no base image needed),
        // and block J, whose base image it must fetch. Were a flush to
        // retire K while that fetch is in flight, the merge would restart K
        // from zeros and the next flush would store that over K's samples.
        let base = ramp(64, 64, 1.0);
        let (mem, first) = budgeted(1 << 16);
        first.write_raster("v", 0, &base).unwrap();
        let block_of = |x: u64| first.curve().block_offset(&[x, 9], 256).unwrap().0;
        let x = (0..63).find(|&x| block_of(x) != block_of(x + 1)).unwrap();
        let j_key = first.block_key(0, 0, block_of(x + 1));
        let gate = Arc::new(GateStore::on_gets(mem.clone(), j_key));
        let ds = IdxDataset::open(gate.clone(), "wb").unwrap();
        ds.write_box("v", 0, x, 9, &Raster::<f32>::filled(1, 1, -1.0)).unwrap();

        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| ds.write_box("v", 0, x, 9, &Raster::<f32>::filled(2, 1, -2.0)).unwrap());
            gate.wait_entered(1); // parked inside the fetch of J's base image
            scope.spawn(|| {
                ds.flush().unwrap();
                done_tx.send(()).unwrap();
            });
            let premature = done_rx.recv_timeout(Duration::from_millis(100));
            gate.open(); // before the assert: a parked writer would never join
            assert!(premature.is_err(), "the flush ran inside the write");
        });
        ds.flush().unwrap();

        let mut want = base;
        want.paste(&Raster::<f32>::filled(2, 1, -2.0), x as usize, 9).unwrap();
        let reader = IdxDataset::open(mem as Arc<dyn ObjectStore>, "wb").unwrap();
        assert_eq!(reader.read_full::<f32>("v", 0).unwrap().0.data(), want.data());
    }

    /// A 64x64 f32 dataset of 256-sample blocks behind a Seal-class WAN
    /// (under `faults`, when given) with `wc` uploads in flight, reporting
    /// into the WAN's registry; the header upload is reset away.
    fn wan_dataset(wc: usize, faults: Option<nsdf_storage::FaultPlan>) -> (IdxDataset, Obs) {
        use nsdf_storage::{CloudStore, FaultStore, NetworkProfile};
        let obs = Obs::new(SimClock::new());
        let clock = obs.clock().clone();
        let wan = CloudStore::new(
            Arc::new(MemoryStore::new()),
            NetworkProfile::private_seal(),
            clock.clone(),
            11,
        )
        .with_obs(&obs);
        let store: Arc<dyn ObjectStore> = match faults {
            Some(plan) => Arc::new(FaultStore::new(Arc::new(wan), plan, clock).unwrap()),
            None => Arc::new(wan),
        };
        let meta = IdxMeta::new_2d(
            "wb",
            64,
            64,
            vec![Field::new("v", DType::F32).unwrap()],
            8,
            Codec::Lz4,
        )
        .unwrap();
        let ds = IdxDataset::create(store, "wb", meta)
            .unwrap()
            .with_write_concurrency(wc)
            .with_obs(&obs);
        obs.reset();
        (ds, obs)
    }

    /// Write `full` as sixteen 16x16 tiles, row-major; the last call's stats.
    fn sweep(ds: &IdxDataset, full: &Raster<f32>) -> WriteStats {
        let mut last = WriteStats::default();
        for y0 in (0..64).step_by(16) {
            for x0 in (0..64).step_by(16) {
                let tile = full.window(Box2i::new(x0, y0, x0 + 16, y0 + 16)).unwrap();
                last = ds.write_box("v", 0, x0 as u64, y0 as u64, &tile).unwrap();
            }
        }
        last
    }

    #[test]
    fn write_box_issues_its_uploads_and_flush_joins_them() {
        let (ds, obs) = wan_dataset(8, None);
        let clock = obs.clock().clone();
        let t0 = clock.now_ns();
        let full = ramp(64, 64, 0.5);
        assert_eq!(sweep(&ds, &full).blocks_pending, 0, "the tiles complete every block");
        let finish = ds.writer.lock().finish_vns();
        assert!(finish > clock.now_ns(), "the last uploads are still in flight");
        // Nothing is pending, yet `flush` waits for the uploads.
        assert_eq!(ds.flush().unwrap().blocks_written, 0);
        assert!(clock.now_ns() >= finish);
        let busy = obs.snapshot().counter("wan.busy_vns");
        assert!(busy > clock.now_ns() - t0, "the waves overlapped on the link");

        // A patch of stored blocks fetches its bases after the link
        // drains; its flush issues and joins again.
        sweep(&ds, &full);
        let patch = Raster::<f32>::filled(3, 3, -4.0);
        assert!(ds.write_box("v", 0, 5, 5, &patch).unwrap().rmw_fetches > 0);
        ds.flush().unwrap();
        assert!(clock.now_ns() >= ds.writer.lock().finish_vns());
        let snap = obs.snapshot();
        assert!(snap.counter("idx.rmw_fetch_vns") > 0);
        assert_eq!(
            snap.counter("idx.put_vns") + snap.counter("idx.rmw_fetch_vns"),
            clock.now_ns() - t0,
            "upload and base-fetch stages own every virtual nanosecond"
        );
        let mut want = full;
        want.paste(&patch, 5, 5).unwrap();
        assert_eq!(ds.read_full::<f32>("v", 0).unwrap().0.data(), want.data());
    }

    #[test]
    fn a_dropped_handle_joins_and_one_lane_is_the_blocking_sequence() {
        let full = ramp(64, 64, 2.0);
        // (elapsed, link occupancy) of one sweep, ended by a flush or a drop.
        let run = |wc: usize, flush: bool| {
            let (ds, obs) = wan_dataset(wc, None);
            let t0 = obs.clock().now_ns();
            sweep(&ds, &full);
            let finish = ds.writer.lock().finish_vns();
            if flush {
                ds.flush().unwrap();
            } else {
                drop(ds);
            }
            assert!(obs.clock().now_ns() >= finish);
            (obs.clock().now_ns() - t0, obs.snapshot().counter("wan.busy_vns"))
        };
        let (flushed, busy) = run(8, true);
        assert_eq!(run(8, false), (flushed, busy), "a dropped handle joins like flush");
        assert!(flushed < busy);
        let (elapsed, busy) = run(1, true);
        assert_eq!(elapsed, busy, "on one lane every upload waits for the one before");
    }

    #[test]
    fn an_issued_upload_error_returns_from_its_write_box_and_leaves_blocks_dirty() {
        use nsdf_storage::{FailScope, FaultPlan};
        let plan = FaultPlan::new(3).with_scope(FailScope::Writes).outage(10.0, 30.0);
        let (ds, obs) = wan_dataset(8, Some(plan));
        let clock = obs.clock().clone();
        let (left, right) = (ramp(32, 32, 7.0), ramp(32, 32, 8.0));
        assert!(ds.write_box("v", 0, 0, 0, &left).unwrap().blocks_written > 0);
        let finish = ds.writer.lock().finish_vns();
        clock.advance_secs(15.0);
        let err = ds.write_box("v", 0, 32, 0, &right).unwrap_err();
        assert!(err.to_string().contains("outage"), "the put error surfaces: {err}");
        assert_eq!(ds.writer.lock().finish_vns(), finish, "a failed upload holds no lane");
        let dirty = ds.blocks.lock().pending.blocks.len();
        assert!(dirty > 0, "the tile's completed blocks stay dirty");

        clock.advance_secs(20.0);
        assert_eq!(ds.flush().unwrap().blocks_written as usize, dirty);
        let region = Box2i::new(32, 0, 64, 32);
        let (back, _) = ds.read_box::<f32>("v", 0, region, ds.max_level()).unwrap();
        assert_eq!(back.data(), right.data());
    }

    #[test]
    fn create_takes_the_prefix_to_be_empty() {
        // The documented precondition, pinned: a second `create` over blocks
        // it did not write patches them from zeros, where `open` merges into
        // what is stored.
        let (store, first) = budgeted(1 << 16);
        first.write_raster("v", 0, &ramp(64, 64, 1.0)).unwrap();
        let px = Raster::<f32>::filled(1, 1, -1.0);
        let block_of = |x: u64, y: u64| first.curve().block_offset(&[x, y], 256).unwrap().0;
        let x = (0..64).find(|&x| x != 9 && block_of(x, 9) == block_of(9, 9)).unwrap() as usize;
        let patch = |ds: IdxDataset| {
            let stats = ds.write_box("v", 0, 9, 9, &px).unwrap();
            ds.flush().unwrap();
            (stats.rmw_fetches, ds.read_full::<f32>("v", 0).unwrap().0.get(x, 9))
        };
        let opened = IdxDataset::open(store.clone() as Arc<dyn ObjectStore>, "wb").unwrap();
        assert_eq!(patch(opened), (1, ramp(64, 64, 1.0).get(x, 9)));
        let meta = first.meta().clone();
        let recreated = IdxDataset::create(store as Arc<dyn ObjectStore>, "wb", meta).unwrap();
        assert_eq!(patch(recreated), (0, 0.0));
    }

    #[test]
    fn write_raster_supersedes_pending_blocks() {
        let store = Arc::new(MemoryStore::new());
        let meta = IdxMeta::new_2d(
            "wb",
            64,
            64,
            vec![Field::new("v", DType::F32).unwrap()],
            8,
            Codec::Raw,
        )
        .unwrap();
        let ds = IdxDataset::create(store.clone() as Arc<dyn ObjectStore>, "wb", meta).unwrap();
        ds.write_box("v", 0, 5, 5, &Raster::<f32>::filled(3, 3, -9.0)).unwrap();
        let full = ramp(64, 64, 0.0);
        let stats = ds.write_raster("v", 0, &full).unwrap();
        assert_eq!(stats.blocks_pending, 0, "the full write retired every older image");
        assert_eq!(ds.flush().unwrap().blocks_written, 0);
        assert_eq!(ds.read_full::<f32>("v", 0).unwrap().0.data(), full.data());
    }

    #[test]
    fn write_into_empty_dataset_fills_rest_with_zero() {
        let ds = dataset(Codec::Lzss);
        let patch = ramp(8, 8, 100.0);
        ds.write_box("v", 0, 8, 8, &patch).unwrap();
        let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(back.get(8, 8), 100.0);
        assert_eq!(back.get(0, 0), 0.0);
        assert_eq!(back.get(40, 40), 0.0);
    }
}

#[cfg(test)]
mod volume_tests {
    use super::*;
    use crate::meta::Field;
    use nsdf_compress::Codec;
    use nsdf_storage::MemoryStore;
    use nsdf_util::DType;

    fn make_volume(w: u64, h: u64, d: u64, codec: Codec) -> (IdxDataset, Volume<f32>) {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let fields = vec![Field::new("density", DType::F32).unwrap()];
        let meta = IdxMeta::new("vol", &[w, h, d], fields, 8, codec).unwrap();
        let ds = IdxDataset::create(store, "vols/test", meta).unwrap();
        let data = Volume::from_fn(w as usize, h as usize, d as usize, |x, y, z| {
            ((z * h as usize + y) * w as usize + x) as f32
        });
        ds.write_volume("density", 0, &data).unwrap();
        (ds, data)
    }

    fn read_all(ds: &IdxDataset) -> (Volume<f32>, QueryStats) {
        ds.read_volume("density", 0, ds.extent(), ds.max_level()).unwrap()
    }

    /// Every stored object of `store`, keys sorted.
    fn dump(store: &MemoryStore) -> Vec<(String, Vec<u8>)> {
        let keys = store.list("").unwrap().into_iter().map(|m| m.key);
        keys.map(|k| (k.clone(), store.get(&k).unwrap())).collect()
    }

    #[test]
    fn full_resolution_roundtrip() {
        let (ds, data) = make_volume(16, 16, 16, Codec::Raw);
        let (back, q) = read_all(&ds);
        assert_eq!(back.data(), data.data());
        assert_eq!(q.samples_out, 4096);
        assert_eq!(q.blocks_missing, 0);
    }

    #[test]
    fn rectangular_non_pow2_roundtrip_compressed() {
        let (ds, data) = make_volume(20, 12, 6, Codec::LzssHuff { sample_size: 4 });
        assert_eq!(read_all(&ds).0.data(), data.data());
    }

    #[test]
    fn read_box_deterministic_across_fetch_concurrency() {
        let region = Box3i::new(3, 2, 1, 15, 13, 6);
        let (ds, _) = make_volume(16, 16, 8, Codec::Raw);
        let level = ds.max_level();
        let (baseline, base_stats) = ds.read_volume::<f32>("density", 0, region, level).unwrap();
        for conc in [1usize, 2, 4, 32] {
            let (ds, _) = make_volume(16, 16, 8, Codec::Raw);
            let ds = ds.with_fetch_concurrency(conc);
            let (vol, stats) = ds.read_volume::<f32>("density", 0, region, level).unwrap();
            assert_eq!(vol.data(), baseline.data(), "concurrency {conc} changed bytes");
            assert_eq!(stats.blocks_touched, base_stats.blocks_touched);
            assert_eq!(stats.fetch_concurrency, conc as u64);
            assert_eq!(
                stats.fetch_batches,
                base_stats.blocks_touched.div_ceil(conc as u64),
                "concurrency {conc} issued wrong batch count"
            );
            assert_eq!(stats.blocks_decoded, stats.blocks_touched - stats.blocks_missing);
        }
    }

    #[test]
    fn subbox_matches_window() {
        let (ds, data) = make_volume(16, 16, 16, Codec::Lz4);
        let region = Box3i::new(3, 5, 7, 11, 13, 15);
        let (sub, _) = ds.read_volume::<f32>("density", 0, region, ds.max_level()).unwrap();
        assert_eq!(sub.data(), data.window(region).unwrap().data());
    }

    #[test]
    fn coarse_level_is_strided_subsample() {
        let (ds, data) = make_volume(16, 16, 16, Codec::Raw);
        let level = ds.max_level() - 3; // strides (2,2,2)
        let (coarse, _) = ds.read_volume::<f32>("density", 0, ds.extent(), level).unwrap();
        assert_eq!(coarse.shape(), (8, 8, 8));
        for k in 0..8 {
            for j in 0..8 {
                for i in 0..8 {
                    assert_eq!(coarse.get(i, j, k), data.get(i * 2, j * 2, k * 2));
                }
            }
        }
    }

    #[test]
    fn coarse_levels_touch_fewer_blocks() {
        let (ds, _) = make_volume(32, 32, 32, Codec::Raw);
        let (_, full) = read_all(&ds);
        let (_, coarse) =
            ds.read_volume::<f32>("density", 0, ds.extent(), ds.max_level() - 6).unwrap();
        assert!(coarse.blocks_touched * 4 <= full.blocks_touched);
    }

    #[test]
    fn z_slice_reads_one_plane() {
        let (ds, data) = make_volume(16, 16, 16, Codec::Raw);
        let (slice, q) = ds.read_slice_z::<f32>("density", 0, 5, ds.max_level()).unwrap();
        assert_eq!(slice.shape(), (16, 16));
        assert_eq!(slice.data(), data.slice_z(5).unwrap().data());
        // A plane needs far fewer blocks than the whole volume.
        let (_, full) = read_all(&ds);
        assert!(q.blocks_touched < full.blocks_touched / 2);
        assert!(ds.read_slice_z::<f32>("density", 0, 16, ds.max_level()).is_err());
    }

    #[test]
    fn read_box_of_a_volume_is_its_plane_zero_at_every_level() {
        let (ds, _) = make_volume(20, 12, 6, Codec::Lz4);
        for level in 0..=ds.max_level() {
            let plane = ds.read_slice_z::<f32>("density", 0, 0, level);
            let boxed = ds.read_box::<f32>("density", 0, ds.bounds(), level);
            match (plane, boxed) {
                (Ok((plane, _)), Ok((boxed, _))) => {
                    assert_eq!(boxed.shape(), plane.shape(), "level {level}");
                    assert_eq!(boxed.data(), plane.data(), "level {level}");
                }
                (plane, boxed) => assert!(plane.is_err() && boxed.is_err(), "level {level}"),
            }
        }
    }

    #[test]
    fn reopen_from_store() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let fields = vec![Field::new("v", DType::F32).unwrap()];
        let meta = IdxMeta::new("vol", &[8, 8, 8], fields, 6, Codec::Raw).unwrap();
        let ds = IdxDataset::create(store.clone(), "v", meta).unwrap();
        let data = Volume::from_fn(8, 8, 8, |x, y, z| (x + y + z) as f32);
        ds.write_volume("v", 0, &data).unwrap();
        let ds2 = IdxDataset::open(store, "v").unwrap();
        assert_eq!(ds2.meta(), ds.meta());
        let (back, _) = ds2.read_volume::<f32>("v", 0, ds2.extent(), ds2.max_level()).unwrap();
        assert_eq!(back.data(), data.data());
    }

    #[test]
    fn write_volume_deterministic_across_write_concurrency() {
        // Stored block bytes are identical whether uploads go one at a time
        // or in wide put_many batches.
        let mut reference: Option<Vec<(String, Vec<u8>)>> = None;
        for conc in [1usize, 2, 8, 32] {
            let store = Arc::new(MemoryStore::new());
            let fields = vec![Field::new("density", DType::F32).unwrap()];
            let codec = Codec::LzssHuff { sample_size: 4 };
            let meta = IdxMeta::new("vol", &[20, 12, 6], fields, 8, codec).unwrap();
            let ds = IdxDataset::create(store.clone() as Arc<dyn ObjectStore>, "vols/wc", meta)
                .unwrap()
                .with_write_concurrency(conc);
            let data = Volume::from_fn(20, 12, 6, |x, y, z| ((z * 12 + y) * 20 + x) as f32);
            let stats = ds.write_volume("density", 0, &data).unwrap();
            assert_eq!(stats.write_concurrency, conc as u64);
            assert_eq!(stats.put_batches, stats.blocks_written.div_ceil(conc as u64));
            let dump = dump(&store);
            match &reference {
                None => reference = Some(dump),
                Some(want) => assert_eq!(&dump, want, "write_concurrency {conc}"),
            }
        }
    }

    #[test]
    fn write_volume_of_depth_one_is_write_raster() {
        let fields = vec![Field::new("density", DType::F32).unwrap()];
        let meta = IdxMeta::new_2d("flat", 20, 12, fields, 6, Codec::Lz4).unwrap();
        let data = Volume::from_fn(20, 12, 1, |x, y, _| (y * 20 + x) as f32 * 0.5);
        let stored = |write: &dyn Fn(&IdxDataset) -> Result<WriteStats>| {
            let store = Arc::new(MemoryStore::new());
            let ds = IdxDataset::create(store.clone(), "flat", meta.clone()).unwrap();
            write(&ds).unwrap();
            dump(&store)
        };
        let by_volume = stored(&|ds| ds.write_volume("density", 0, &data));
        let by_raster = stored(&|ds| ds.write_raster("density", 0, &data.slice_z(0)?));
        assert_eq!(by_volume, by_raster);
    }

    #[test]
    fn write_raster_on_a_volume_is_invalid() {
        let (ds, data) = make_volume(8, 8, 4, Codec::Raw);
        let plane = Raster::<f32>::zeros(8, 8);
        let err = ds.write_raster("density", 0, &plane).unwrap_err();
        assert!(matches!(err, NsdfError::InvalidArg(_)), "{err}");
        assert_eq!(read_all(&ds).0.data(), data.data(), "the volume is untouched");
    }

    #[test]
    fn validation_errors() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        // `create` re-checks metadata whose public fields were edited.
        let fields = vec![Field::new("v", DType::F32).unwrap()];
        let mut flat = IdxMeta::new("flat", &[8, 8, 8], fields, 6, Codec::Raw).unwrap();
        flat.dims = vec![8];
        assert!(IdxDataset::create(store.clone(), "x", flat).is_err());
        let (ds, _) = make_volume(8, 8, 8, Codec::Raw);
        assert!(ds.write_volume("v", 0, &Volume::<f32>::zeros(8, 8, 8)).is_err()); // bad field
        assert!(ds.write_volume("density", 0, &Volume::<f32>::zeros(4, 8, 8)).is_err()); // bad shape
        let all = ds.extent();
        assert!(ds.read_volume::<u16>("density", 0, all, ds.max_level()).is_err()); // bad dtype
        let outside = Box3i::new(99, 99, 99, 120, 120, 120);
        assert!(ds.read_volume::<f32>("density", 0, outside, 2).is_err());
    }
}

/// The row walk against the scatter and gather it replaced: one
/// `HzCurve::block_offset` and one map lookup per sample, kept here as the
/// reference the way `blocks_for_query_by_sample_walk` keeps the planner's.
#[cfg(test)]
mod row_walk_tests {
    use super::*;
    use crate::meta::Field;
    use nsdf_storage::MemoryStore;
    use nsdf_util::DType;
    use proptest::prelude::*;

    /// [`IdxDataset::scatter`], one sample at a time.
    fn scatter_by_sample<T: Sample>(
        ds: &IdxDataset,
        origin: [u64; 3],
        shape: [usize; 3],
        data: &[T],
    ) -> Result<BTreeMap<u64, BlockUpdate>> {
        let block_samples = ds.meta.block_samples();
        let size = T::DTYPE.size_bytes();
        let mut touched: BTreeMap<u64, BlockUpdate> = BTreeMap::new();
        let mut samples = data.iter();
        for z in 0..shape[2] as u64 {
            for y in 0..shape[1] as u64 {
                for x in 0..shape[0] as u64 {
                    let coords = [origin[0] + x, origin[1] + y, origin[2] + z];
                    let (block, offset) = ds.curve.block_offset(&coords, block_samples)?;
                    let update = touched.entry(block).or_insert_with(|| BlockUpdate {
                        raw: vec![0; block_samples as usize * size],
                        covered: BitSet::default(),
                        in_bounds: 0,
                    });
                    let v = samples.next().expect("callers pass `shape` samples");
                    v.write_le(&mut update.raw[offset * size..]);
                    update.covered.insert(offset);
                }
            }
        }
        for (&block, update) in &mut touched {
            update.in_bounds =
                ds.curve.block_samples_in_bounds(block, block_samples, &ds.meta.dims)?;
        }
        Ok(touched)
    }

    /// [`IdxDataset::gather`], one sample at a time.
    fn gather_by_sample<T: Sample>(
        ds: &IdxDataset,
        [(x0, sx, ow), (y0, sy, oh), (z0, sz, od)]: LevelGrid,
        blocks: &BTreeMap<u64, DecodedEntry>,
    ) -> Result<Vec<T>> {
        let block_samples = ds.meta.block_samples();
        let size = T::DTYPE.size_bytes();
        let mut out = vec![T::ZERO; ow * oh * od];
        for k in 0..od {
            for j in 0..oh {
                for i in 0..ow {
                    let at = [x0 + i as i64 * sx, y0 + j as i64 * sy, z0 + k as i64 * sz];
                    let (block, offset) =
                        ds.curve.block_offset(&at.map(|c| c as u64), block_samples)?;
                    if let Some(Some(raw)) = blocks.get(&block) {
                        out[(k * oh + j) * ow + i] =
                            T::read_le(raw.get(offset * size..).unwrap_or_default())?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// The stored block objects of `store`, sorted by key.
    fn stored_blocks(store: &MemoryStore) -> Vec<(String, Vec<u8>)> {
        let keys = store.list("").unwrap().into_iter().map(|m| m.key);
        keys.filter(|k| k.ends_with(".bin")).map(|k| (k.clone(), store.get(&k).unwrap())).collect()
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random box of `dims` that may overhang each side by two samples
    /// (a plane, `dims[2] == 1`, stays one sample deep).
    fn random_box(dims: [u64; 3], rng: &mut u64) -> Box3i {
        let mut side = |dim: u64| {
            let lo = (xorshift(rng) % (dim + 2)) as i64 - 2;
            (lo, lo + 1 + (xorshift(rng) % (dim + 2)) as i64)
        };
        let ((x0, x1), (y0, y1)) = (side(dims[0]), side(dims[1]));
        let (z0, z1) = if dims[2] == 1 { (0, 1) } else { side(dims[2]) };
        Box3i::new(x0, y0, z0, x1, y1, z1)
    }

    /// One case: `writes` random boxes — whole grids, and boxes of plane 0
    /// by `write_box` — scattered both ways and written in random order,
    /// then every read kind at every level gathered both ways.
    fn row_walk_case(dims: &[u64], bits_per_block: u32, writes: usize, seed: u64) {
        let mut rng = seed | 1;
        let fields = vec![Field::new("v", DType::F32).unwrap()];
        let meta = IdxMeta::new("walk", dims, fields, bits_per_block, Codec::Raw).unwrap();
        let store = Arc::new(MemoryStore::new());
        let ds = IdxDataset::create(store.clone(), "walk", meta.clone()).unwrap();
        let extent = ds.extent();
        let [w, h, d] = [extent.x1, extent.y1, extent.z1].map(|v| v as u64);
        let block_bytes = ds.meta.block_samples() as usize * 4;

        // Every block's image as the per-sample scatter leaves it.
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for _ in 0..writes {
            let whole = xorshift(&mut rng).is_multiple_of(3);
            let (origin, shape) = if whole {
                ([0; 3], [w, h, d].map(|v| v as usize))
            } else {
                let b = loop {
                    if let Some(b) = random_box([w, h, 1], &mut rng).intersect(&extent) {
                        break b;
                    }
                };
                let [x0, y0, x1, y1] = [b.x0, b.y0, b.x1, b.y1].map(|v| v as u64);
                ([x0, y0, 0], [(x1 - x0) as usize, (y1 - y0) as usize, 1])
            };
            let data: Vec<f32> = (0..shape.iter().product())
                .map(|_| (xorshift(&mut rng) >> 40) as f32 - 8e6)
                .collect();
            let rows = ds.scatter(origin, shape, &data).unwrap();
            let samples = scatter_by_sample(&ds, origin, shape, &data).unwrap();
            assert_eq!(rows.keys().collect::<Vec<_>>(), samples.keys().collect::<Vec<_>>());
            for ((block, a), b) in rows.iter().zip(samples.values()) {
                assert_eq!(a.raw, b.raw, "block {block}");
                assert_eq!((&a.covered.words, a.covered.ones), (&b.covered.words, b.covered.ones));
                assert_eq!(a.in_bounds, b.in_bounds, "block {block}");
            }
            for (block, update) in samples {
                let image = model.entry(block).or_insert_with(|| vec![0; block_bytes]);
                for offset in (0..block_bytes / 4).filter(|&o| update.covered.contains(o)) {
                    image[offset * 4..][..4].copy_from_slice(&update.raw[offset * 4..][..4]);
                }
            }
            if whole {
                let volume = Volume::from_vec(shape[0], shape[1], shape[2], data).unwrap();
                ds.write_volume("v", 0, &volume).unwrap();
            } else {
                let raster = Raster::from_vec(shape[0], shape[1], data).unwrap();
                ds.write_box("v", 0, origin[0], origin[1], &raster).unwrap();
            }
        }
        ds.flush().unwrap();

        // The store a per-sample scatter would have left.
        let want_store = Arc::new(MemoryStore::new());
        let want = IdxDataset::create(want_store.clone(), "walk", meta).unwrap();
        let images = model.into_iter().map(|(b, raw)| ((0, 0, b), Arc::new(raw))).collect();
        want.encode_and_put(images, &mut WriteStats::default(), None).unwrap();
        assert_eq!(stored_blocks(&store), stored_blocks(&want_store));

        // Reads: what each returns must be the per-sample gather over the
        // images its plan resolves.
        let check = |region: Box3i, level: u32, got: Result<Vec<f32>>| {
            let region = region.intersect(&extent);
            let grid = region.and_then(|r| ds.curve.level_grid(level, r).unwrap());
            let (Some(region), Some(grid)) = (region, grid) else {
                assert!(got.is_err(), "{region:?} holds no level-{level} sample");
                return;
            };
            let needed = ds.curve.blocks_in_region(region, level, ds.meta.block_samples());
            let mut stats = QueryStats::default();
            let report = WaveReport {
                obs: &ds.m.obs,
                span: "fetch",
                vns: &ds.m.fetch_vns,
                clock: ds.m.obs.clock(),
                install: true,
                cancel: None,
            };
            let mut blocks = BTreeMap::new();
            ds.resolve((0, 0), &needed.unwrap(), &report, None, &mut stats, |b, raw, _| {
                blocks.insert(b, raw);
            })
            .unwrap();
            let reference = gather_by_sample::<f32>(&ds, grid, &blocks).unwrap();
            assert_eq!(ds.gather::<f32>(grid, &blocks, &mut stats).unwrap(), reference);
            assert_eq!(got.unwrap(), reference, "{region:?} level {level}");
        };
        for level in 0..=ds.max_level() {
            for region in [extent, random_box([w, h, d], &mut rng)] {
                let volume = ds.read_volume::<f32>("v", 0, region, level);
                check(region, level, volume.map(|(v, _)| v.data().to_vec()));
                if d == 1 {
                    let plane = Box2i::new(region.x0, region.y0, region.x1, region.y1);
                    let raster = ds.read_box::<f32>("v", 0, plane, level);
                    check(region, level, raster.map(|(r, _)| r.data().to_vec()));
                }
            }
            if d > 1 {
                let z = (xorshift(&mut rng) % d) as i64;
                let region = ds.plane_box(ds.bounds(), z, level).unwrap();
                let slice = ds.read_slice_z::<f32>("v", 0, z, level);
                check(region, level, slice.map(|(r, _)| r.data().to_vec()));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn row_walk_scatter_and_gather_equal_the_per_sample_walk(
            sides in (any::<u64>(), any::<u64>(), any::<u64>()),
            three_d in any::<bool>(),
            bits_per_block in 4u32..8,
            writes in 1usize..6,
            seed in any::<u64>(),
        ) {
            // Non-power-of-two sides, a quarter of them 1 wide.
            let side = |v: u64, max: u64| if v.is_multiple_of(4) { 1 } else { 1 + v / 4 % max };
            let dims = if three_d {
                vec![side(sides.0, 20), side(sides.1, 14), side(sides.2, 7)]
            } else {
                vec![side(sides.0, 45), side(sides.1, 33)]
            };
            row_walk_case(&dims, bits_per_block, writes, seed);
        }
    }
}
