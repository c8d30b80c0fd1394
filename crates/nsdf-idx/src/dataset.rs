//! The IDX dataset: HZ-ordered, block-compressed, multi-resolution array
//! storage over any [`ObjectStore`] — this crate's reproduction of the
//! OpenVisus data fabric the NSDF dashboard streams from (paper §III-A).
//!
//! Layout: one text header object (`<base>/dataset.idx`) plus one object
//! per block per field per timestep (`<base>/f<F>/t<T>/b<BLOCK>.bin`).
//! Samples live at their HZ address; block `b` covers HZ addresses
//! `[b * 2^bits_per_block, (b+1) * 2^bits_per_block)`. Because HZ order is
//! resolution-major, a coarse query touches only the first few blocks, and
//! because it is spatially coherent, a small region at full resolution
//! touches few blocks — those two properties are the whole point of the
//! format and are benchmarked in `bench/hz_locality.rs`.

use crate::meta::IdxMeta;
use nsdf_compress::{AdaptiveCodec, Codec};
use nsdf_hz::HzCurve;
use nsdf_storage::ObjectStore;
use nsdf_util::obs::{Counter, Obs};
use nsdf_util::par::{num_threads, try_par_map, try_par_map_owned};
use nsdf_util::{
    bytes_to_samples, samples_to_bytes, Box2i, NsdfError, Raster, Result, Sample, SimClock,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Accounting for one write ("convert to IDX") operation — the size numbers
/// behind the paper's "~20 % smaller than TIFF" claim (§IV-B), plus the
/// ingest-pipeline counters mirroring [`QueryStats`] on the read side.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteStats {
    /// Blocks written.
    pub blocks_written: u64,
    /// Blocks skipped because they hold only power-of-two padding.
    pub blocks_skipped: u64,
    /// Uncompressed payload bytes.
    pub bytes_raw: u64,
    /// Stored (compressed) bytes.
    pub bytes_stored: u64,
    /// Partially covered blocks fetched back from the store for
    /// read-modify-write merges.
    pub rmw_fetches: u64,
    /// Batched `put_many` calls issued to the object store.
    pub put_batches: u64,
    /// Upload batch size (block put concurrency) in force for this write.
    pub write_concurrency: u64,
    /// Wall-clock seconds spent merging and encoding blocks.
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
    /// ingest pipelines aggregating per-tile stats).
    pub fn merge(&mut self, other: &WriteStats) {
        self.blocks_written += other.blocks_written;
        self.blocks_skipped += other.blocks_skipped;
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
type BlockKey = (usize, u32, u64);
/// Decoded raw payload, or `None` for a block known missing from storage.
pub(crate) type DecodedEntry = Option<Arc<Vec<u8>>>;

/// Byte-budgeted FIFO cache of decoded (raw, uncompressed) block payloads,
/// keyed by `(field, time, block)`. `None` records a block known to be
/// missing from storage, so progressive refinement neither refetches nor
/// redecodes — nor re-misses — a block it already resolved.
struct DecodedCache {
    entries: HashMap<BlockKey, DecodedEntry>,
    /// Insertion order; stale keys (invalidated by writes) are skipped
    /// lazily at eviction time.
    queue: VecDeque<BlockKey>,
    bytes: u64,
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
    fn new(budget: u64) -> Self {
        DecodedCache {
            entries: HashMap::new(),
            queue: VecDeque::new(),
            bytes: 0,
            budget,
            write_epoch: 0,
        }
    }

    fn cost(entry: &DecodedEntry) -> u64 {
        entry.as_ref().map_or(0, |d| d.len() as u64)
    }

    fn get(&self, key: &BlockKey) -> Option<DecodedEntry> {
        self.entries.get(key).cloned()
    }

    /// Admit `value`; returns how many resident entries were evicted to
    /// respect the byte budget (reported as `decoded_evictions.budget`).
    fn insert(&mut self, key: BlockKey, value: DecodedEntry) -> u64 {
        let cost = Self::cost(&value);
        if cost > self.budget {
            return 0; // Larger than the whole budget: never admit.
        }
        match self.entries.insert(key, value) {
            Some(old) => self.bytes -= Self::cost(&old),
            None => self.queue.push_back(key),
        }
        self.bytes += cost;
        let mut evicted = 0;
        while self.bytes > self.budget {
            let Some(victim) = self.queue.pop_front() else { break };
            if let Some(old) = self.entries.remove(&victim) {
                self.bytes -= Self::cost(&old);
                evicted += 1;
            }
        }
        evicted
    }

    /// Drop `key`; true when a resident entry was actually invalidated
    /// (reported as `decoded_evictions.epoch` on the write path).
    fn remove(&mut self, key: &BlockKey) -> bool {
        match self.entries.remove(key) {
            Some(old) => {
                self.bytes -= Self::cost(&old);
                true
            }
            None => false,
        }
    }
}

/// Default number of blocks fetched per `get_many` batch.
const DEFAULT_FETCH_CONCURRENCY: usize = 8;

/// Default number of blocks uploaded per `put_many` batch.
const DEFAULT_WRITE_CONCURRENCY: usize = 8;

/// Default decoded-block cache budget (raw bytes).
const DEFAULT_DECODED_CACHE_BYTES: u64 = 256 << 20;

/// Aligned origin, per-axis strides, and output dims of a box query at one
/// resolution level: `(x0, y0, sx, sy, out_w, out_h)`.
pub(crate) type LevelLayout = (i64, i64, i64, i64, usize, usize);

/// Where one read wave reports the store time it spends: the registry and
/// label of the span opened around `get_many` (the `decode` span follows in
/// the same registry), the `*_vns` counter that accumulates the clock
/// advance, and the clock it is read from.
pub(crate) struct WaveReport<'a> {
    pub(crate) obs: &'a Obs,
    pub(crate) span: &'a str,
    pub(crate) vns: &'a Counter,
    pub(crate) clock: &'a SimClock,
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
            obs,
        }
    }
}

/// An open IDX dataset bound to an object store.
///
/// The only owner of block I/O in this crate: every block read — a box
/// query here, a [`crate::QuerySession`] frame, an [`crate::IdxVolume`]
/// cutout or slice — is a sequence of `IdxDataset::read_wave` calls, and
/// every block write ends in `IdxDataset::encode_and_put`. The decoded-block
/// cache, its write epoch, and the codec throughput counters live here and
/// nowhere else.
pub struct IdxDataset {
    store: Arc<dyn ObjectStore>,
    base: String,
    meta: IdxMeta,
    curve: HzCurve,
    fetch_concurrency: usize,
    write_concurrency: usize,
    degraded_reads: bool,
    decoded: Mutex<DecodedCache>,
    /// Per-block codec selector, present exactly when `meta.codec` is
    /// [`Codec::Adaptive`]. Kept alongside the plain enum so the write path
    /// can observe which codec the selector chose (for [`WriteStats`] and
    /// the `codec.selected.*` counters) instead of dispatching blindly
    /// through [`Codec::encode`].
    adaptive: Option<AdaptiveCodec>,
    m: IdxMetrics,
    wall: WallCodec,
}

impl IdxDataset {
    /// Create a new dataset under `base`, writing the header object.
    pub fn create(store: Arc<dyn ObjectStore>, base: &str, meta: IdxMeta) -> Result<IdxDataset> {
        if meta.dims.len() != 2 {
            return Err(NsdfError::unsupported("IdxDataset currently supports 2-D datasets"));
        }
        Self::create_nd(store, base, meta)
    }

    /// Open an existing dataset by reading its header object.
    pub fn open(store: Arc<dyn ObjectStore>, base: &str) -> Result<IdxDataset> {
        let ds = Self::open_nd(store, base)?;
        if ds.meta.dims.len() != 2 {
            return Err(NsdfError::unsupported("IdxDataset currently supports 2-D datasets"));
        }
        Ok(ds)
    }

    /// [`IdxDataset::create`] for metadata of any dimensionality: the block
    /// pipeline is dimension-agnostic, only planning and gather are not, and
    /// [`crate::IdxVolume`] brings its own.
    pub(crate) fn create_nd(
        store: Arc<dyn ObjectStore>,
        base: &str,
        meta: IdxMeta,
    ) -> Result<IdxDataset> {
        store.put(&format!("{base}/dataset.idx"), meta.to_text().as_bytes())?;
        Ok(Self::assemble(store, base, meta))
    }

    /// [`IdxDataset::open`] for metadata of any dimensionality.
    pub(crate) fn open_nd(store: Arc<dyn ObjectStore>, base: &str) -> Result<IdxDataset> {
        let text = store.get(&format!("{base}/dataset.idx"))?;
        let text = String::from_utf8(text)
            .map_err(|_| NsdfError::format("dataset.idx is not valid UTF-8"))?;
        Ok(Self::assemble(store, base, IdxMeta::from_text(&text)?))
    }

    fn assemble(store: Arc<dyn ObjectStore>, base: &str, meta: IdxMeta) -> Self {
        let adaptive = match meta.codec {
            Codec::Adaptive { sample_size } => Some(AdaptiveCodec::new(sample_size)),
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
            decoded: Mutex::new(DecodedCache::new(DEFAULT_DECODED_CACHE_BYTES)),
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
        // Rebuild the selector so `codec.selected.*` / `codec.sampled_bytes`
        // land in the caller's registry rather than a throwaway default.
        if let Codec::Adaptive { sample_size } = self.meta.codec {
            self.adaptive = Some(AdaptiveCodec::new(sample_size).with_obs(obs));
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
    /// (>= 1). Higher values amortize WAN round-trips across parallel
    /// streams on ingest; 1 restores strictly sequential uploads.
    pub fn with_write_concurrency(mut self, n: usize) -> Self {
        self.write_concurrency = n.max(1);
        self
    }

    /// Set the decoded-block cache budget in raw bytes (0 disables it).
    pub fn with_decoded_cache_bytes(self, budget: u64) -> Self {
        *self.decoded.lock() = DecodedCache::new(budget);
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

    /// Fetch batch size in force.
    pub fn fetch_concurrency(&self) -> usize {
        self.fetch_concurrency
    }

    /// Upload batch size in force.
    pub fn write_concurrency(&self) -> usize {
        self.write_concurrency
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

    /// Full-grid bounding box.
    pub fn bounds(&self) -> Box2i {
        Box2i::new(0, 0, self.meta.dims[0] as i64, self.meta.dims[1] as i64)
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

    /// Partition `blocks` against the decoded-block cache: entries already
    /// decoded (including known-missing ones), blocks still to fetch, and
    /// the write epoch observed — pass it back to `IdxDataset::read_wave` so
    /// payloads decoded while a write landed are never installed.
    pub(crate) fn decoded_partition(
        &self,
        field_idx: usize,
        time: u32,
        blocks: &[u64],
    ) -> (Vec<(u64, DecodedEntry)>, Vec<u64>, u64) {
        let cache = self.decoded.lock();
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for &block in blocks {
            match cache.get(&(field_idx, time, block)) {
                Some(entry) => hits.push((block, entry)),
                None => misses.push(block),
            }
        }
        (hits, misses, cache.write_epoch)
    }

    /// Write a full-resolution raster into `field` at `time`.
    ///
    /// The raster shape must equal the dataset's logical dims and `T` must
    /// match the field dtype. All samples are scattered to their HZ address
    /// and stored block by block; blocks consisting purely of power-of-two
    /// padding are skipped.
    pub fn write_raster<T: Sample>(
        &self,
        field: &str,
        time: u32,
        raster: &Raster<T>,
    ) -> Result<WriteStats> {
        self.check_time(time)?;
        let field_idx = self.field_checked::<T>(field)?;
        let (w, h) = (self.meta.dims[0] as usize, self.meta.dims[1] as usize);
        if raster.shape() != (w, h) {
            return Err(NsdfError::invalid(format!(
                "raster shape {:?} does not match dataset dims ({w}, {h})",
                raster.shape()
            )));
        }
        let block_samples = self.meta.block_samples();

        let _write_span = self.m.obs.span("write_raster");
        let plan_span = self.m.obs.span("plan");
        // Scatter row-major samples into per-block HZ-ordered buffers.
        let mut blocks: BTreeMap<u64, Vec<T>> = BTreeMap::new();
        for y in 0..h {
            for x in 0..w {
                let (block, offset) =
                    self.curve.block_offset(&[x as u64, y as u64], block_samples)?;
                blocks.entry(block).or_insert_with(|| vec![T::ZERO; block_samples as usize])
                    [offset] = raster.get(x, y);
            }
        }
        drop(plan_span);
        self.put_full_blocks(field_idx, time, blocks)
    }

    /// Store the complete payloads of a full-grid write (raster or volume):
    /// the data covers every non-padding sample of every block it touches,
    /// so no block needs a read-modify-write fetch, and blocks it never
    /// touches hold only power-of-two padding.
    pub(crate) fn put_full_blocks<T: Sample>(
        &self,
        field_idx: usize,
        time: u32,
        blocks: BTreeMap<u64, Vec<T>>,
    ) -> Result<WriteStats> {
        let mut stats = WriteStats {
            blocks_skipped: self.meta.blocks_per_field() - blocks.len() as u64,
            write_concurrency: self.write_concurrency as u64,
            ..WriteStats::default()
        };
        let entries: Vec<(u64, Vec<T>)> = blocks.into_iter().collect();
        self.encode_and_put(field_idx, time, &entries, &mut stats)?;
        self.note_write(&stats);
        Ok(stats)
    }

    /// The one write tail of the crate: encode complete block payloads in
    /// parallel (deterministic earliest-block error), then upload them in
    /// `write_concurrency`-sized `put_many` batches, invalidating the
    /// decoded-block cache entry of every block that actually stored so a
    /// later read can never observe stale decoded bytes.
    fn encode_and_put<T: Sample>(
        &self,
        field_idx: usize,
        time: u32,
        entries: &[(u64, Vec<T>)],
        stats: &mut WriteStats,
    ) -> Result<()> {
        let t_encode = Instant::now();
        let encoded = {
            let _encode_span = self.m.obs.span("encode");
            try_par_map(entries, num_threads(), |(block, samples)| -> Result<_> {
                // `samples_to_bytes` already materialises an owned buffer, so
                // hand it to the codec by value — the `Raw` arm becomes a
                // move instead of a second full copy.
                let raw = samples_to_bytes(samples);
                let raw_len = raw.len();
                let (enc, chosen) = match &self.adaptive {
                    Some(selector) => {
                        let (enc, codec) = selector.encode_block(&raw)?;
                        (enc, codec)
                    }
                    None => (self.meta.codec.encode_owned(raw)?, self.meta.codec),
                };
                Ok((*block, raw_len, enc, chosen))
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
                batch.iter().map(|(b, _, _, _)| self.block_key(field_idx, time, *b)).collect();
            let items: Vec<(&str, &[u8])> = keys
                .iter()
                .zip(batch)
                .map(|(k, (_, _, enc, _))| (k.as_str(), enc.as_slice()))
                .collect();
            let t_put = Instant::now();
            let results = {
                let _put_span = self.m.obs.span("put");
                let v0 = self.m.obs.clock().now_ns();
                let results = self.store.put_many(&items);
                self.m.put_vns.add(self.m.obs.clock().now_ns().saturating_sub(v0));
                results
            };
            stats.put_secs += t_put.elapsed().as_secs_f64();
            stats.put_batches += 1;

            // Invalidate under one lock, then surface the earliest error of
            // the batch: blocks that stored before it remain written (and
            // invalidated) — exactly what a sequential put loop would leave.
            let mut first_err = None;
            {
                let mut cache = self.decoded.lock();
                cache.write_epoch += 1;
                for ((block, raw_len, enc, chosen), r) in batch.iter().zip(results) {
                    match r {
                        Ok(_) => {
                            if cache.remove(&(field_idx, time, *block)) {
                                self.m.decoded_evictions_epoch.inc();
                            }
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

    /// Feed the registry with one write's totals so cross-layer snapshots
    /// see ingest-side accounting alongside the store-side counters.
    fn note_write(&self, stats: &WriteStats) {
        self.m.writes.inc();
        self.m.blocks_written.add(stats.blocks_written);
        self.m.bytes_written.add(stats.bytes_stored);
        self.m.rmw_fetches.add(stats.rmw_fetches);
        self.m.put_batches.add(stats.put_batches);
    }

    /// Write a raster into a sub-region of the dataset at full resolution,
    /// with its top-left corner at `(x0, y0)` — a partial update that
    /// read-modify-writes only the affected blocks (how a tile-by-tile
    /// ingest pipeline appends to a large IDX dataset without ever holding
    /// the full grid in memory).
    pub fn write_box<T: Sample>(
        &self,
        field: &str,
        time: u32,
        x0: u64,
        y0: u64,
        raster: &Raster<T>,
    ) -> Result<WriteStats> {
        self.check_time(time)?;
        let field_idx = self.field_checked::<T>(field)?;
        let (rw, rh) = raster.shape();
        let target = Box2i::new(x0 as i64, y0 as i64, x0 as i64 + rw as i64, y0 as i64 + rh as i64);
        if !self.bounds().contains_box(&target) {
            return Err(NsdfError::invalid(format!(
                "write box {target:?} exceeds dataset bounds {:?}",
                self.bounds()
            )));
        }
        let block_samples = self.meta.block_samples() as usize;
        let sample_size = T::DTYPE.size_bytes();

        /// Where a touched block's current contents come from before the
        /// incoming updates are merged in.
        enum RmwSource {
            /// No current contents: fully overwritten, known missing from
            /// storage, or never written — start from a zero block.
            Fresh,
            /// Decoded raw payload already resident in the decoded cache.
            Cached(Arc<Vec<u8>>),
            /// Encoded payload fetched from the store.
            Fetched(Vec<u8>),
        }

        let _write_span = self.m.obs.span("write_box");
        let plan_span = self.m.obs.span("plan");
        // Group incoming samples by block.
        let mut touched: BTreeMap<u64, Vec<(usize, T)>> = BTreeMap::new();
        for y in 0..rh {
            for x in 0..rw {
                let (block, offset) = self
                    .curve
                    .block_offset(&[x0 + x as u64, y0 + y as u64], block_samples as u64)?;
                touched.entry(block).or_default().push((offset, raster.get(x, y)));
            }
        }

        let mut stats = WriteStats {
            write_concurrency: self.write_concurrency as u64,
            ..WriteStats::default()
        };

        // Partition touched blocks: fully covered blocks (every offset
        // updated) need no current contents; partially covered ones resolve
        // from the decoded cache when possible and otherwise join the
        // batched read-modify-write fetch.
        let mut sources: BTreeMap<u64, RmwSource> = BTreeMap::new();
        let mut to_fetch: Vec<u64> = Vec::new();
        {
            let cache = self.decoded.lock();
            for (&block, updates) in &touched {
                if updates.len() == block_samples {
                    sources.insert(block, RmwSource::Fresh);
                    continue;
                }
                match cache.get(&(field_idx, time, block)) {
                    Some(Some(raw)) => {
                        sources.insert(block, RmwSource::Cached(raw));
                    }
                    Some(None) => {
                        sources.insert(block, RmwSource::Fresh);
                    }
                    None => to_fetch.push(block),
                }
            }
        }
        drop(plan_span);

        // Batched RMW fetches. Not a `read_wave`: the payloads are decoded
        // inside the merge below and never enter the decoded cache (the
        // upload that follows would only invalidate them again). `NotFound`
        // means the block was never written (zero contents), any other error
        // aborts the write.
        for chunk in to_fetch.chunks(self.fetch_concurrency) {
            let keys: Vec<String> =
                chunk.iter().map(|&b| self.block_key(field_idx, time, b)).collect();
            let key_refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
            let results = {
                let _rmw_span = self.m.obs.span("rmw-fetch");
                let v0 = self.m.obs.clock().now_ns();
                let results = self.store.get_many(&key_refs);
                self.m.rmw_fetch_vns.add(self.m.obs.clock().now_ns().saturating_sub(v0));
                results
            };
            stats.rmw_fetches += chunk.len() as u64;
            for (&block, r) in chunk.iter().zip(results) {
                match r {
                    Ok(enc) => {
                        sources.insert(block, RmwSource::Fetched(enc));
                    }
                    Err(e) if e.is_not_found() => {
                        sources.insert(block, RmwSource::Fresh);
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        // Merge updates into each block's current samples in parallel with
        // deterministic earliest-block error; encode + upload downstream.
        let work: Vec<(u64, RmwSource)> = sources.into_iter().collect();
        let t_merge = Instant::now();
        let entries: Vec<(u64, Vec<T>)> =
            try_par_map_owned(work, num_threads(), |(block, source)| -> Result<_> {
                let mut samples: Vec<T> = match source {
                    RmwSource::Fresh => vec![T::ZERO; block_samples],
                    RmwSource::Cached(raw) => bytes_to_samples(raw.as_slice())?,
                    RmwSource::Fetched(enc) => {
                        // Owned fetch result: the `Raw` passthrough moves the
                        // buffer instead of copying it.
                        let raw = self.meta.codec.decode_owned(enc, block_samples * sample_size)?;
                        bytes_to_samples(&raw)?
                    }
                };
                for &(offset, v) in &touched[&block] {
                    samples[offset] = v;
                }
                Ok((block, samples))
            })?;
        stats.encode_secs += t_merge.elapsed().as_secs_f64();

        self.encode_and_put(field_idx, time, &entries, &mut stats)?;
        self.note_write(&stats);
        Ok(stats)
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

    /// Output layout of a box query at `level`: aligned origin `(x0, y0)`,
    /// per-axis strides `(sx, sy)`, and output dimensions. `None` when the
    /// region contains no samples on that level's grid.
    pub(crate) fn level_layout(&self, region: Box2i, level: u32) -> Result<Option<LevelLayout>> {
        let grid =
            self.curve.level_grid(level, [region.x0, region.y0, 0], [region.x1, region.y1, 1])?;
        Ok(grid.map(|[(x0, sx, out_w), (y0, sy, out_h), _]| (x0, y0, sx, sy, out_w, out_h)))
    }

    /// O(samples) reference planner kept solely to cross-check
    /// [`IdxDataset::blocks_for_query`] in tests.
    #[cfg(test)]
    fn blocks_for_query_by_sample_walk(&self, region: Box2i, level: u32) -> Result<Vec<u64>> {
        let mut blocks = std::collections::BTreeSet::new();
        let block_samples = self.meta.block_samples();
        for l in 0..=level {
            for (_, _, hz) in self.curve.level_samples_in_region(l, region)? {
                blocks.insert(hz / block_samples);
            }
        }
        Ok(blocks.into_iter().collect())
    }

    /// One fetch→decode wave — the only block read in the crate. Fetches
    /// `chunk` (one `fetch_concurrency`-sized slice of some caller's plan) of
    /// field/timestep `at` with a single `get_many` under `report`'s span and
    /// counter, decodes the payloads in parallel with deterministic
    /// (earliest-block) error semantics, books the work into `stats` and the
    /// codec throughput counters, and installs the decoded payloads into the
    /// shared cache unless a write landed since `epoch` was observed
    /// ([`IdxDataset::decoded_partition`]).
    ///
    /// `NotFound` is unwritten data and resolves to a known-missing entry.
    /// Any other fetch error aborts the wave before anything of it is
    /// decoded or installed — unless the caller collects them: with
    /// `unavailable` present the failed blocks land there (and stay out of
    /// the cache, so a retry re-fetches them) while the rest of the wave
    /// completes. Which waves to run, and when to stop, is the caller's.
    pub(crate) fn read_wave(
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
                        // Owned fetch result: the `Raw` passthrough moves the
                        // buffer instead of copying it.
                        let raw = self.meta.codec.decode_owned(enc, raw_len)?;
                        Ok((block, enc_len, Some(Arc::new(raw))))
                    }
                    None => Ok((block, 0, None)),
                }
            })?
        };
        let decode_secs = t_decode.elapsed().as_secs_f64();
        stats.decode_secs += decode_secs;
        self.wall.decode_micros.fetch_add((decode_secs * 1e6) as u64, Ordering::Relaxed);

        let mut cache = self.decoded.lock();
        let install = cache.write_epoch == epoch;
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

    /// Resolve the planned blocks of a one-shot box query, typed: decoded-
    /// cache hits (including known-missing ones) skip the store and the
    /// codec entirely — this is what makes progressive refinement decode
    /// each block exactly once — and the rest arrive in `fetch_concurrency`
    /// waves under the `idx.fetch` span. `unavailable` as for
    /// `IdxDataset::read_wave`.
    pub(crate) fn query_blocks(
        &self,
        at: (usize, u32),
        needed: &[u64],
        mut unavailable: Option<&mut BTreeMap<u64, NsdfError>>,
        stats: &mut QueryStats,
    ) -> Result<BTreeMap<u64, DecodedEntry>> {
        let (hits, to_fetch, epoch) = self.decoded_partition(at.0, at.1, needed);
        stats.decoded_cache_hits += hits.len() as u64;
        let mut raw_blocks: BTreeMap<u64, DecodedEntry> = hits.into_iter().collect();
        let report = WaveReport {
            obs: &self.m.obs,
            span: "fetch",
            vns: &self.m.fetch_vns,
            clock: self.m.obs.clock(),
        };
        for chunk in to_fetch.chunks(self.fetch_concurrency) {
            raw_blocks.extend(self.read_wave(
                at,
                chunk,
                epoch,
                &report,
                unavailable.as_deref_mut(),
                stats,
            )?);
        }
        Ok(raw_blocks)
    }

    /// Reinterpret resolved payloads as typed samples (cheap, per query —
    /// the cache stays dtype-agnostic), counting the known-missing ones.
    pub(crate) fn typed_blocks<T: Sample>(
        raw_blocks: BTreeMap<u64, DecodedEntry>,
        stats: &mut QueryStats,
    ) -> Result<BTreeMap<u64, Option<Vec<T>>>> {
        let entries: Vec<(u64, DecodedEntry)> = raw_blocks.into_iter().collect();
        let typed = try_par_map(&entries, num_threads(), |(block, raw)| -> Result<_> {
            match raw {
                Some(raw) => Ok((*block, Some(bytes_to_samples::<T>(raw)?))),
                None => Ok((*block, None)),
            }
        })?;
        stats.blocks_missing = typed.iter().filter(|(_, v)| v.is_none()).count() as u64;
        Ok(typed.into_iter().collect())
    }

    /// Gather the decimated raster of `layout` from typed blocks — sample
    /// `(i, j)` is the stored value at `(x0 + i*sx, y0 + j*sy)`, zero where
    /// `block_of` has no payload — georeferenced to the window and strides.
    pub(crate) fn gather_raster<'a, T: Sample>(
        &self,
        (x0, y0, sx, sy, out_w, out_h): LevelLayout,
        block_of: impl Fn(u64) -> Option<&'a [T]>,
    ) -> Result<Raster<T>> {
        let block_samples = self.meta.block_samples();
        let mut out = Raster::<T>::zeros(out_w, out_h);
        for j in 0..out_h {
            let y = y0 + j as i64 * sy;
            for i in 0..out_w {
                let x = x0 + i as i64 * sx;
                let (block, offset) =
                    self.curve.block_offset(&[x as u64, y as u64], block_samples)?;
                if let Some(samples) = block_of(block) {
                    out.set(i, j, samples[offset]);
                }
            }
        }
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
    pub(crate) fn note_query(&self, stats: &QueryStats) {
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
        self.check_time(time)?;
        let field_idx = self.field_checked::<T>(field)?;
        self.check_level(level)?;
        let region = region
            .intersect(&self.bounds())
            .ok_or_else(|| NsdfError::invalid("query region does not intersect dataset"))?;

        let _query_span = self.m.obs.span("read_box");
        let plan_span = self.m.obs.span("plan");
        let Some(mut layout) = self.level_layout(region, level)? else {
            return Err(NsdfError::invalid(
                "query region contains no samples at the requested level",
            ));
        };

        // Which blocks, fetched once each.
        let needed = self.blocks_for_query(region, level)?;
        drop(plan_span);
        let mut stats =
            QueryStats { blocks_touched: needed.len() as u64, ..self.query_stats(level) };

        // With degraded reads enabled, transport failures are collected
        // instead of aborting so the query can fall back to a coarser level.
        let mut failed: BTreeMap<u64, NsdfError> = BTreeMap::new();
        let raw_blocks = self.query_blocks(
            (field_idx, time),
            &needed,
            self.degraded_reads.then_some(&mut failed),
            &mut stats,
        )?;

        // Degraded fallback: if any block stayed unreachable, deliver the
        // finest coarser level whose block set — always a subset of the
        // requested level's — avoids every failed block, instead of failing
        // the whole query.
        stats.blocks_unavailable = failed.len() as u64;
        if !failed.is_empty() {
            let mut fallback = None;
            for d in (0..level).rev() {
                if self.blocks_for_query(region, d)?.iter().any(|b| failed.contains_key(b)) {
                    continue;
                }
                // Strides only grow as levels coarsen: a region empty at
                // this level stays empty at every coarser one.
                fallback = self.level_layout(region, d)?.map(|layout| (d, layout));
                break;
            }
            match fallback {
                Some((d, coarser)) => {
                    layout = coarser;
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
        let fetched = Self::typed_blocks::<T>(raw_blocks, &mut stats)?;
        let out = self.gather_raster(layout, |b| fetched.get(&b).and_then(|s| s.as_deref()))?;
        stats.samples_out = (out.width() * out.height()) as u64;
        self.note_query(&stats);
        Ok((out, stats))
    }

    /// Read the entire grid at full resolution.
    pub fn read_full<T: Sample>(&self, field: &str, time: u32) -> Result<(Raster<T>, QueryStats)> {
        self.read_box(field, time, self.bounds(), self.max_level())
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
        // 128x64 padded grid = 8192 addresses = 32 blocks; some all-padding.
        assert!(stats.blocks_skipped > 0 || stats.blocks_written == 32);
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
                    ds.blocks_for_query_by_sample_walk(region, level).unwrap(),
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
        // touched block needs a read-modify-write fetch.
        let patch = Raster::<f32>::filled(3, 3, -2.0);
        let stats = ds.write_box("v", 0, 30, 30, &patch).unwrap();
        assert!(stats.rmw_fetches > 0);
        let tree = obs.span_tree();
        assert_eq!(tree.len(), 1);
        let w = &tree[0];
        assert_eq!(w.label, "idx.write_box");
        let child_labels: Vec<&str> = w.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(child_labels[0], "idx.plan");
        assert!(child_labels.contains(&"idx.rmw-fetch"));
        assert!(child_labels.contains(&"idx.encode"));
        assert_eq!(*child_labels.last().unwrap(), "idx.put");
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
            blocks_skipped: 1,
            rmw_fetches: 2,
            put_batches: 1,
            write_concurrency: 8,
            put_secs: 0.5,
            codecs: BTreeMap::from([("lzss".to_string(), 2)]),
            ..WriteStats::default()
        };
        a.merge(&b);
        assert_eq!(a.blocks_written, 5);
        assert_eq!(a.blocks_skipped, 1);
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
            blocks_skipped: 2,
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
        let snap = obs.snapshot();
        assert_eq!(snap.counter("idx.writes"), 2);
        assert_eq!(snap.counter("idx.blocks_written"), s1.blocks_written + s2.blocks_written);
        assert_eq!(snap.counter("idx.bytes_written"), s1.bytes_stored + s2.bytes_stored);
        assert_eq!(snap.counter("idx.rmw_fetches"), s1.rmw_fetches + s2.rmw_fetches);
        assert_eq!(snap.counter("idx.put_batches"), s1.put_batches + s2.put_batches);
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
        assert!(snap.counter("codec.sampled_bytes") > 0);
        let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(back.data(), r.data());
    }

    #[test]
    fn adaptive_blocks_carry_self_describing_headers() {
        let (store, ds) = make_dataset(32, 32, Codec::Adaptive { sample_size: 4 });
        ds.write_raster("v", 0, &ramp(32, 32)).unwrap();
        // A full write always covers block 0 (the coarsest HZ addresses).
        let enc = store.get(&ds.block_key(0, 0, 0)).unwrap();
        let (codec, header) = nsdf_compress::adaptive::read_block_header(&enc).unwrap();
        assert!(header >= 1);
        let block_bytes = ds.meta().block_samples() as usize * 4;
        let raw = codec.decode(&enc[header..], block_bytes).unwrap();
        assert_eq!(raw.len(), block_bytes);
    }

    #[test]
    fn static_codec_blocks_stay_headerless_legacy_format() {
        let (store, ds) = make_dataset(32, 32, Codec::Lzss);
        ds.write_raster("v", 0, &ramp(32, 32)).unwrap();
        let enc = store.get(&ds.block_key(0, 0, 0)).unwrap();
        let block_bytes = ds.meta().block_samples() as usize * 4;
        // The stored object is exactly the bare codec stream — no header
        // byte — so datasets written before adaptive selection existed (and
        // static-codec datasets written after) share one on-disk format.
        let raw = Codec::Lzss.decode(&enc, block_bytes).unwrap();
        assert_eq!(Codec::Lzss.encode(&raw).unwrap(), enc);
    }

    #[test]
    fn adaptive_write_box_rmw_roundtrips() {
        let (_s, ds) = make_dataset(64, 64, Codec::Adaptive { sample_size: 4 });
        ds.write_raster("v", 0, &ramp(64, 64)).unwrap();
        let patch = Raster::<f32>::filled(5, 7, -3.25);
        let stats = ds.write_box("v", 0, 20, 11, &patch).unwrap();
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
    use nsdf_util::DType;

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
        assert!(stats.blocks_written > 0);
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
