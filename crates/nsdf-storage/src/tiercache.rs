//! Two-tier persistent content-addressed cache with scan-resistant
//! admission.
//!
//! OpenVisus is "caching-enabled" (§III-A): once a block has streamed from
//! remote storage it is served locally on re-access, which is what makes
//! interactive pan/zoom affordable over a WAN. [`TierCache`] is that layer
//! for any inner [`ObjectStore`], at whole-object granularity (IDX blocks
//! are the objects). [`TierCache::new`] alone is the byte-budgeted RAM
//! cache; [`TierCache::with_disk`] adds the persistent tier:
//!
//! * a **hot RAM tier**: byte budget, LRU with lazy invalidation,
//!   **single-flight** fetch deduplication (concurrent misses on one key
//!   share the leader's fetch; errors are handed to the waiters but never
//!   cached, and hits are never queued behind a slow WAN miss), a
//!   write-epoch coherence guard, and **TinyLFU-style scan-resistant
//!   admission**: a count-min frequency sketch with a
//!   doorkeeper bloom filter decides, at eviction time, whether the
//!   incoming object is worth more than the LRU victim. One tenant's
//!   bulk-ingest scan (every key touched once) can no longer flush
//!   another tenant's interactive working set (every key touched often);
//! * a **persistent disk tier**: a content-addressed sharded layout
//!   ([`hash_to_path`]: digest → hash-prefix fan-out directories, one
//!   file per object) over any inner [`ObjectStore`] — typically
//!   [`crate::local::LocalStore`], whose tmp-then-rename writes make
//!   each shard atomic. A shard is one [`nsdf_util::seal`] envelope
//!   (magic `NSDFTC02`) around the original key and the payload, so
//!   promotion disk→RAM is integrity-checked: a torn, truncated, or
//!   corrupted shard is **quarantined** (deleted, counted as
//!   `tiercache.quarantined`) and transparently refetched from the
//!   origin — corrupt bytes are never returned.
//!
//! The read path is RAM → disk → origin; every resolution is counted so
//! `tiercache.ram_hits + tiercache.disk_hits + tiercache.wan_fetches ==
//! tiercache.lookups` reconciles exactly, and a client restart over a
//! warm disk tier performs zero origin reads. Writes go through all
//! tiers (origin, then disk, then RAM) under one write-epoch bump, so
//! the PR 4 stale-read invariants hold across both tiers and across
//! restarts. A write or delete the origin reports as *failed* may still
//! have landed (a lost acknowledgement), so it drops the key from both
//! tiers and the next read converges to the origin.

use crate::store::{slice_range, sole, validate_key, ObjectMeta, ObjectStore};
use nsdf_util::obs::{Counter, Gauge, Obs};
use nsdf_util::{fnv1a64, seal, splitmix64, unseal, Lru, NsdfError, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Content-addressed shard layout
// ---------------------------------------------------------------------------

/// Map an object key to its content-addressed shard path under
/// `namespace`.
///
/// The key is digested to 128 bits (fnv1a64 + a splitmix64-derived
/// second word); the first two hex pairs become fan-out directories —
/// at most 256 entries per directory level — and the remainder the file
/// name: `<ns>/ab/cd/<hex>.obj`. The mapping is injective per digest
/// (collisions are caught by the key embedded in the shard envelope)
/// and is a pure function of the key, so a freshly opened cache can
/// locate any previously written shard without an index.
pub fn hash_to_path(namespace: &str, key: &str) -> String {
    let h1 = fnv1a64(key.as_bytes());
    let h2 = splitmix64(h1 ^ 0x9e37_79b9_7f4a_7c15);
    let hex = format!("{h1:016x}{h2:016x}");
    format!("{namespace}/{}/{}/{}.obj", &hex[0..2], &hex[2..4], &hex[4..])
}

/// Shard envelope magic: identifies the format and its version.
const SHARD_MAGIC: &[u8; 8] = b"NSDFTC02";

/// Frame a payload as one shard, `seal(NSDFTC02, key_len u32 · key ·
/// payload)`: the key catches a digest collision or a relocated shard.
fn encode_shard(key: &str, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(4 + key.len() + payload.len());
    body.extend_from_slice(&(key.len() as u32).to_le_bytes());
    body.extend_from_slice(key.as_bytes());
    body.extend_from_slice(payload);
    seal(SHARD_MAGIC, &body)
}

/// Verify a shard and return its payload. Any damage (torn write,
/// truncation, bit flip, a shard of a different key) is a `corrupt`
/// error — the caller quarantines the shard and refetches from the
/// origin.
fn decode_shard(expected_key: &str, shard: &[u8]) -> Result<Vec<u8>> {
    let body = unseal(SHARD_MAGIC, shard)?;
    let payload = body
        .strip_prefix(&(expected_key.len() as u32).to_le_bytes())
        .and_then(|rest| rest.strip_prefix(expected_key.as_bytes()))
        .ok_or_else(|| {
            NsdfError::corrupt(format!(
                "shard for {expected_key:?}: key mismatch (digest collision or relocated shard)"
            ))
        })?;
    Ok(payload.to_vec())
}

// ---------------------------------------------------------------------------
// TinyLFU admission: frequency sketch + doorkeeper
// ---------------------------------------------------------------------------

/// Count-min row width (counters per row, power of two).
const SKETCH_WIDTH: usize = 4096;
/// Count-min depth (independent rows).
const SKETCH_DEPTH: usize = 4;
/// Doorkeeper bloom filter size in bits (power of two).
const DOORKEEPER_BITS: usize = 16_384;
/// Accesses per aging window: when reached, every counter is halved and
/// the doorkeeper cleared, so stale popularity decays.
const SKETCH_WINDOW: u64 = 16_384;
/// Per-row seeds decorrelating the count-min rows.
const ROW_SEEDS: [u64; SKETCH_DEPTH] =
    [0xa076_1d64_78bd_642f, 0xe703_7ed1_a0b4_28db, 0x8ebc_6af0_9c88_c6e3, 0x5898_75dd_4dd5_1420];

/// TinyLFU frequency sketch: a 4-row count-min sketch of capped 4-bit
/// counters behind a doorkeeper bloom filter that absorbs one-hit
/// wonders, aged by periodic halving. Deterministic: indices derive
/// from fnv1a64/splitmix64 of the key only.
#[derive(Debug)]
pub(crate) struct FrequencySketch {
    rows: Vec<Vec<u8>>,
    doorkeeper: Vec<u64>,
    samples: u64,
}

impl Default for FrequencySketch {
    fn default() -> Self {
        FrequencySketch::new()
    }
}

impl FrequencySketch {
    /// An empty sketch.
    pub fn new() -> FrequencySketch {
        FrequencySketch {
            rows: vec![vec![0u8; SKETCH_WIDTH]; SKETCH_DEPTH],
            doorkeeper: vec![0u64; DOORKEEPER_BITS / 64],
            samples: 0,
        }
    }

    fn indices(key: &str) -> ([usize; SKETCH_DEPTH], usize) {
        let base = fnv1a64(key.as_bytes());
        let mut idx = [0usize; SKETCH_DEPTH];
        for (i, seed) in ROW_SEEDS.iter().enumerate() {
            idx[i] = (splitmix64(base ^ seed) as usize) & (SKETCH_WIDTH - 1);
        }
        let dk = (splitmix64(base) as usize) & (DOORKEEPER_BITS - 1);
        (idx, dk)
    }

    /// Record one access to `key`. The first access within an aging
    /// window only sets the doorkeeper bit; repeat accesses feed the
    /// count-min rows.
    pub fn record(&mut self, key: &str) {
        let (idx, dk) = Self::indices(key);
        self.samples += 1;
        let (word, bit) = (dk / 64, dk % 64);
        if self.doorkeeper[word] & (1u64 << bit) == 0 {
            self.doorkeeper[word] |= 1u64 << bit;
        } else {
            for (row, &i) in self.rows.iter_mut().zip(idx.iter()) {
                if row[i] < 15 {
                    row[i] += 1;
                }
            }
        }
        if self.samples >= SKETCH_WINDOW {
            self.age();
        }
    }

    /// Estimated access frequency of `key` (doorkeeper bit counts as
    /// one access on top of the count-min minimum). Never underestimates
    /// recorded history within a window; may overestimate on collisions.
    pub(crate) fn estimate(&self, key: &str) -> u8 {
        let (idx, dk) = Self::indices(key);
        let min = self
            .rows
            .iter()
            .zip(idx.iter())
            .map(|(row, &i)| row[i])
            .min()
            .expect("sketch has rows");
        let (word, bit) = (dk / 64, dk % 64);
        let kept = ((self.doorkeeper[word] >> bit) & 1) as u8;
        min.saturating_add(kept)
    }

    /// Age the sketch: halve every counter and clear the doorkeeper so
    /// popularity decays instead of accumulating forever.
    fn age(&mut self) {
        for row in &mut self.rows {
            for c in row.iter_mut() {
                *c >>= 1;
            }
        }
        self.doorkeeper.iter_mut().for_each(|w| *w = 0);
        self.samples = 0;
    }
}

/// One admission ruling at RAM-eviction time, logged in test builds:
/// either the candidate was admitted at the victim's expense, or the
/// victim's higher sketch frequency kept the candidate out.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
struct AdmissionDecision {
    /// Key asking to enter the RAM tier.
    pub candidate: String,
    /// Sketch frequency of the candidate at decision time.
    pub candidate_freq: u8,
    /// Resident LRU-victim key that would have to leave.
    pub victim: String,
    /// Sketch frequency of the victim at decision time.
    pub victim_freq: u8,
    /// Whether the candidate was admitted (victim evicted).
    pub admitted: bool,
}

// ---------------------------------------------------------------------------
// Tier state
// ---------------------------------------------------------------------------

/// RAM-tier hit/miss accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from cache.
    pub hits: u64,
    /// Reads that had to go to the inner store.
    pub misses: u64,
    /// Objects evicted for any reason (`evictions_budget + evictions_epoch`).
    pub evictions: u64,
    /// Objects evicted to respect the byte budget (LRU pressure).
    pub evictions_budget: u64,
    /// Objects invalidated by a write epoch: a delete, a failed write, or a
    /// write-through replacing (or displacing, for an oversized overwrite)
    /// a resident copy.
    pub evictions_epoch: u64,
    /// Bytes currently cached.
    pub resident_bytes: u64,
    /// Reads that piggy-backed on another thread's in-flight fetch instead
    /// of issuing their own (single-flight deduplication).
    pub coalesced_waits: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no reads happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct TierState {
    /// The hot tier: key → payload.
    ram: Lru<String, Arc<Vec<u8>>>,
    /// Disk-tier accounting: shard path → envelope size. Rebuilt
    /// deterministically (sorted path order) when a cache opens over an
    /// existing shard tree.
    disk: Lru<String, ()>,
    sketch: FrequencySketch,
    /// One epoch guards both tiers: bumped by every write/delete so an
    /// in-flight fetch that raced a write is handed to waiters but never
    /// admitted to RAM nor written to disk.
    write_epoch: u64,
}

// ---------------------------------------------------------------------------
// Single-flight slot
// ---------------------------------------------------------------------------

/// One in-flight fetch that concurrent missers of the same key share.
///
/// The leader publishes into `done` and signals `cv`; waiters block on the
/// condvar until the slot fills. Results are replicated per waiter (the
/// payload through the `Arc`, errors via [`NsdfError::replicate`]).
#[derive(Default)]
struct InFlight {
    done: Mutex<Option<std::result::Result<Arc<Vec<u8>>, NsdfError>>>,
    cv: Condvar,
}

impl InFlight {
    fn wait(&self) -> Result<Arc<Vec<u8>>> {
        let mut done = self.done.lock();
        while done.is_none() {
            done = self.cv.wait(done);
        }
        match done.as_ref().expect("published") {
            Ok(data) => Ok(data.clone()),
            Err(e) => Err(e.replicate()),
        }
    }
}

/// Which tier resolved a miss-path fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchSource {
    Disk,
    Wan,
}

/// A resolved miss-path fetch: the payload plus the tier that served it.
type Fetched = Result<(Arc<Vec<u8>>, FetchSource)>;

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Registry handles under the `cache` (RAM tier) and `tiercache` scopes.
struct TierMetrics {
    obs: Obs,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    evictions_budget: Counter,
    evictions_epoch: Counter,
    coalesced_waits: Counter,
    resident_bytes: Gauge,
    lookups: Counter,
    ram_hits: Counter,
    disk_hits: Counter,
    wan_fetches: Counter,
    promotions: Counter,
    quarantined: Counter,
    admit_rejected: Counter,
    disk_writes: Counter,
    disk_evictions: Counter,
    disk_resident_bytes: Gauge,
}

impl TierMetrics {
    fn new(obs: &Obs) -> Self {
        let cache = obs.scoped("cache");
        let tier = obs.scoped("tiercache");
        TierMetrics {
            hits: cache.counter("hits"),
            misses: cache.counter("misses"),
            evictions: cache.counter("evictions"),
            evictions_budget: cache.counter("evictions.budget"),
            evictions_epoch: cache.counter("evictions.epoch"),
            coalesced_waits: cache.counter("coalesced_waits"),
            resident_bytes: cache.gauge("resident_bytes"),
            lookups: tier.counter("lookups"),
            ram_hits: tier.counter("ram_hits"),
            disk_hits: tier.counter("disk_hits"),
            wan_fetches: tier.counter("wan_fetches"),
            promotions: tier.counter("promotions"),
            quarantined: tier.counter("quarantined"),
            admit_rejected: tier.counter("admit_rejected"),
            disk_writes: tier.counter("disk_writes"),
            disk_evictions: tier.counter("disk_evictions"),
            disk_resident_bytes: tier.gauge("disk_resident_bytes"),
            obs: obs.clone(),
        }
    }
}

/// Point-in-time view of the tier hierarchy (for dashboards and tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Total read resolutions (hits at any tier + origin fetches).
    pub lookups: u64,
    /// Reads served from the RAM tier.
    pub ram_hits: u64,
    /// Reads served from the disk tier (integrity-verified promotions).
    pub disk_hits: u64,
    /// Reads that went all the way to the origin store.
    pub wan_fetches: u64,
    /// Corrupt/torn shards quarantined (deleted and refetched).
    pub quarantined: u64,
    /// Disk→RAM promotions admitted by the TinyLFU filter.
    pub promotions: u64,
    /// RAM-tier candidates rejected by the admission filter.
    pub admit_rejected: u64,
    /// Bytes resident in the RAM tier.
    pub ram_resident_bytes: u64,
    /// Bytes resident in the disk tier (shard envelopes).
    pub disk_resident_bytes: u64,
    /// RAM tier byte budget.
    pub ram_capacity: u64,
    /// Disk tier byte budget (0 when no disk tier is attached).
    pub disk_capacity: u64,
}

// ---------------------------------------------------------------------------
// TierCache
// ---------------------------------------------------------------------------

/// Two-tier read-through / write-through cache over an inner store: a
/// TinyLFU-admitted RAM tier over an optional persistent
/// content-addressed disk tier. See the module docs for the design.
pub struct TierCache {
    inner: Arc<dyn ObjectStore>,
    disk_store: Option<Arc<dyn ObjectStore>>,
    namespace: String,
    ram_capacity: u64,
    disk_capacity: u64,
    state: Mutex<TierState>,
    inflight: Mutex<HashMap<String, Arc<InFlight>>>,
    m: TierMetrics,
    #[cfg(test)]
    decisions: Mutex<Vec<AdmissionDecision>>,
}

impl TierCache {
    /// A RAM-only cache of up to `ram_bytes` of object payloads over
    /// `inner`. Attach a persistent tier with [`TierCache::with_disk`].
    ///
    /// Accounting goes to a private registry until [`TierCache::with_obs`]
    /// wires in a shared one.
    pub fn new(inner: Arc<dyn ObjectStore>, ram_bytes: u64) -> TierCache {
        TierCache {
            inner,
            disk_store: None,
            namespace: String::new(),
            ram_capacity: ram_bytes,
            disk_capacity: 0,
            state: Mutex::new(TierState::default()),
            inflight: Mutex::new(HashMap::new()),
            m: TierMetrics::new(&Obs::default()),
            #[cfg(test)]
            decisions: Mutex::new(Vec::new()),
        }
    }

    /// Attach a persistent disk tier rooted in `disk` under `namespace`
    /// (shards land at `hash_to_path(namespace, key)`), budgeted to
    /// `disk_bytes`. Pass a [`crate::local::LocalStore`] for real
    /// persistence — its tmp-then-rename writes keep every shard atomic —
    /// or any wrapped store (e.g. fault-injected) in tests.
    ///
    /// The accounting index is rebuilt from `disk.list(namespace + "/")`,
    /// so a cache reopened over an existing shard tree resumes with its
    /// previous contents; recency restarts in sorted-path order, which
    /// keeps budget evictions deterministic after a restart.
    pub fn with_disk(
        mut self,
        disk: Arc<dyn ObjectStore>,
        namespace: &str,
        disk_bytes: u64,
    ) -> Result<TierCache> {
        validate_key(namespace)?;
        let mut st = TierState::default();
        for meta in disk.list(&format!("{namespace}/"))? {
            st.disk.insert(meta.key, (), meta.size);
        }
        self.namespace = namespace.to_string();
        self.disk_capacity = disk_bytes;
        self.disk_store = Some(disk);
        self.state = Mutex::new(st);
        {
            let mut st = self.state.lock();
            self.evict_disk_to_budget(&mut st);
            self.m.disk_resident_bytes.set(st.disk.bytes() as f64);
        }
        Ok(self)
    }

    /// Re-home accounting into `obs` (scopes `…cache` and `…tiercache`).
    pub fn with_obs(mut self, obs: &Obs) -> TierCache {
        let disk_resident = self.state.lock().disk.bytes();
        self.m = TierMetrics::new(obs);
        self.m.disk_resident_bytes.set(disk_resident as f64);
        self
    }

    /// The observability handle this cache reports into.
    pub fn obs(&self) -> &Obs {
        &self.m.obs
    }

    /// RAM-tier statistics (hit rate, residency, evictions),
    /// reconstructed from the registry counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.m.hits.get(),
            misses: self.m.misses.get(),
            evictions: self.m.evictions.get(),
            evictions_budget: self.m.evictions_budget.get(),
            evictions_epoch: self.m.evictions_epoch.get(),
            resident_bytes: self.state.lock().ram.bytes(),
            coalesced_waits: self.m.coalesced_waits.get(),
        }
    }

    /// Point-in-time view across both tiers.
    pub fn tier_stats(&self) -> TierStats {
        let st = self.state.lock();
        TierStats {
            lookups: self.m.lookups.get(),
            ram_hits: self.m.ram_hits.get(),
            disk_hits: self.m.disk_hits.get(),
            wan_fetches: self.m.wan_fetches.get(),
            quarantined: self.m.quarantined.get(),
            promotions: self.m.promotions.get(),
            admit_rejected: self.m.admit_rejected.get(),
            ram_resident_bytes: st.ram.bytes(),
            disk_resident_bytes: st.disk.bytes(),
            ram_capacity: self.ram_capacity,
            disk_capacity: self.disk_capacity,
        }
    }

    /// Drop every RAM-resident object (simulates a process restart while
    /// keeping the disk tier warm). Statistics are preserved.
    pub fn clear_ram(&self) {
        let mut st = self.state.lock();
        st.ram = Lru::default();
        self.m.resident_bytes.set(0.0);
    }

    /// Drain the admission decision log.
    #[cfg(test)]
    fn take_decisions(&self) -> Vec<AdmissionDecision> {
        std::mem::take(&mut *self.decisions.lock())
    }

    // -- RAM admission ------------------------------------------------------

    /// Admit `data` to the RAM tier under TinyLFU rules: free space is
    /// always granted; when admission requires eviction, the candidate
    /// enters only while its sketch frequency strictly exceeds each LRU
    /// victim's. `write` marks write-through admissions, whose
    /// replacement of a resident entry counts as an epoch eviction.
    /// Returns whether the payload ended up resident.
    fn admit_ram(&self, st: &mut TierState, key: &str, data: Arc<Vec<u8>>, write: bool) -> bool {
        let size = data.len() as u64;
        if size > self.ram_capacity {
            if write && st.ram.remove(key) {
                // An oversized overwrite still invalidates the resident copy.
                self.m.evictions.inc();
                self.m.evictions_epoch.inc();
            }
            self.m.resident_bytes.set(st.ram.bytes() as f64);
            return false;
        }
        let replaced = st.ram.remove(key);
        if replaced && write {
            self.m.evictions.inc();
            self.m.evictions_epoch.inc();
        }
        // Admission filter: evict only victims colder than the candidate.
        let candidate_freq = st.sketch.estimate(key);
        let mut admitted = true;
        while st.ram.bytes() + size > self.ram_capacity {
            let Some(victim) = st.ram.victim() else { break };
            let victim_freq = st.sketch.estimate(&victim);
            let evict = victim_freq < candidate_freq;
            #[cfg(test)]
            self.decisions.lock().push(AdmissionDecision {
                candidate: key.to_string(),
                candidate_freq,
                victim: victim.clone(),
                victim_freq,
                admitted: evict,
            });
            if evict {
                st.ram.remove(&victim);
                self.m.evictions.inc();
                self.m.evictions_budget.inc();
            } else {
                admitted = false;
                self.m.admit_rejected.inc();
                break;
            }
        }
        if admitted {
            st.ram.insert(key.to_string(), data, size);
        }
        self.m.resident_bytes.set(st.ram.bytes() as f64);
        admitted
    }

    // -- disk tier ----------------------------------------------------------

    /// Write `payload` through to the disk tier (no-op without one).
    /// Failures are swallowed: the disk tier is an accelerator, never a
    /// correctness dependency — so a shard that cannot be written
    /// (oversized, or the disk store refused it) also drops the key's
    /// previous shard rather than leave an older payload behind.
    fn write_disk(&self, st: &mut TierState, key: &str, payload: &[u8]) {
        let Some(disk) = &self.disk_store else { return };
        let shard = encode_shard(key, payload);
        let path = hash_to_path(&self.namespace, key);
        if shard.len() as u64 <= self.disk_capacity && disk.put(&path, &shard).is_ok() {
            st.disk.insert(path, (), shard.len() as u64);
            self.m.disk_writes.inc();
            self.evict_disk_to_budget(st);
        } else {
            self.drop_shard(st, &path);
        }
        self.m.disk_resident_bytes.set(st.disk.bytes() as f64);
    }

    fn evict_disk_to_budget(&self, st: &mut TierState) {
        let Some(disk) = &self.disk_store else { return };
        while st.disk.bytes() > self.disk_capacity {
            let Some(path) = st.disk.victim() else { break };
            st.disk.remove(&path);
            let _ = disk.delete(&path);
            self.m.disk_evictions.inc();
        }
    }

    /// Delete a shard and drop its accounting (quarantine or
    /// write-invalidation).
    fn drop_shard(&self, st: &mut TierState, path: &str) {
        if let Some(disk) = &self.disk_store {
            if st.disk.remove(path) {
                self.m.disk_resident_bytes.set(st.disk.bytes() as f64);
            }
            let _ = disk.delete(path);
        }
    }

    /// Bring both tiers in line with one origin write of `key` (the caller
    /// has bumped the write epoch): a stored payload is written through, a
    /// failed one invalidates the key.
    fn settle_write(&self, st: &mut TierState, key: &str, data: &[u8], stored: bool) {
        if stored {
            st.sketch.record(key);
            self.admit_ram(st, key, Arc::new(data.to_vec()), true);
            self.write_disk(st, key, data);
        } else {
            self.invalidate(st, key);
        }
    }

    /// Drop `key` from both tiers: after a delete, or after a write or
    /// delete the origin reported as failed — it may have landed anyway (a
    /// lost acknowledgement), so no cached copy can be trusted and the next
    /// read must converge to the origin.
    fn invalidate(&self, st: &mut TierState, key: &str) {
        if st.ram.remove(key) {
            self.m.evictions.inc();
            self.m.evictions_epoch.inc();
        }
        self.m.resident_bytes.set(st.ram.bytes() as f64);
        self.drop_shard(st, &hash_to_path(&self.namespace, key));
    }

    /// Try to resolve `key` from the disk tier: read the shard, verify
    /// the envelope, and quarantine it on any damage. `Ok(None)` means
    /// "not on disk, go to the origin".
    fn fetch_disk(&self, key: &str) -> Option<Vec<u8>> {
        let disk = self.disk_store.as_ref()?;
        let path = hash_to_path(&self.namespace, key);
        let shard = disk.get(&path).ok()?;
        match decode_shard(key, &shard) {
            Ok(payload) => {
                let mut st = self.state.lock();
                st.disk.touch(&path);
                Some(payload)
            }
            Err(_) => {
                // Torn/corrupt shard: quarantine (delete + count) and
                // refetch from the origin. The damaged bytes are never
                // surfaced.
                let mut st = self.state.lock();
                self.drop_shard(&mut st, &path);
                self.m.quarantined.inc();
                None
            }
        }
    }

    // -- single-flight read path --------------------------------------------

    /// Leader-side completion: install a success into the tiers (unless
    /// a write bumped the epoch since the leader missed), publish to
    /// waiters, retire the slot. Errors are shared but never cached.
    fn publish(&self, key: &str, flight: &InFlight, result: &Fetched, epoch: u64) {
        let shared = match result {
            Ok((data, source)) => {
                let mut st = self.state.lock();
                if st.write_epoch == epoch {
                    let admitted = self.admit_ram(&mut st, key, data.clone(), false);
                    if admitted && *source == FetchSource::Disk {
                        self.m.promotions.inc();
                    }
                    if *source == FetchSource::Wan {
                        self.write_disk(&mut st, key, data);
                    }
                }
                Ok(data.clone())
            }
            Err(e) => Err(e.replicate()),
        };
        *flight.done.lock() = Some(shared);
        self.inflight.lock().remove(key);
        flight.cv.notify_all();
    }

    /// The one read path, RAM → disk → origin; a single read is a batch of
    /// one. `fetch` reads the keys no tier holds from the origin as one
    /// inner call.
    fn read_through(
        &self,
        keys: &[&str],
        fetch: impl FnOnce(&[&str]) -> Vec<Result<Vec<u8>>>,
    ) -> Vec<Result<Arc<Vec<u8>>>> {
        let mut out: Vec<Option<Result<Arc<Vec<u8>>>>> = keys.iter().map(|_| None).collect();

        // Phase 1: partition RAM hits from misses under one lock,
        // recording the write epoch so a write landing mid-batch keeps
        // this batch's fetches out of both tiers.
        let mut missing = Vec::new();
        let epoch;
        {
            let mut st = self.state.lock();
            epoch = st.write_epoch;
            let mut hits = 0;
            for (i, k) in keys.iter().enumerate() {
                st.sketch.record(k);
                if let Some(data) = st.ram.touch(*k) {
                    hits += 1;
                    out[i] = Some(Ok(Arc::clone(data)));
                } else {
                    missing.push(i);
                }
            }
            self.m.hits.add(hits);
            self.m.lookups.add(hits);
            self.m.ram_hits.add(hits);
        }
        if missing.is_empty() {
            return out.into_iter().map(|o| o.expect("every slot decided")).collect();
        }

        // Phase 2: claim leadership for keys nobody is fetching; keys
        // already in flight are joined as followers. A flight that landed
        // since phase 1 left its payload in RAM (`publish` installs before
        // it retires the slot), so that key is a hit, not a second fetch.
        // Leaders never wait, so batches cannot deadlock each other.
        let mut leaders = Vec::new();
        let mut followers = Vec::new();
        {
            let mut inflight = self.inflight.lock();
            for i in missing {
                let k = keys[i];
                match inflight.get(k) {
                    Some(f) => followers.push((i, f.clone())),
                    None => {
                        if let Some(data) = self.state.lock().ram.touch(k) {
                            self.m.hits.inc();
                            self.m.lookups.inc();
                            self.m.ram_hits.inc();
                            out[i] = Some(Ok(Arc::clone(data)));
                            continue;
                        }
                        let f = Arc::new(InFlight::default());
                        inflight.insert(k.to_string(), f.clone());
                        leaders.push((i, f));
                    }
                }
            }
        }

        // Phase 3: led keys try the disk tier individually; the
        // remainder is fetched from the origin as one batch — outside
        // every lock, so a slow origin serializes neither hits nor fetches
        // of other keys — then every leader publishes under the recorded
        // epoch.
        if !leaders.is_empty() {
            self.m.misses.add(leaders.len() as u64);
            self.m.lookups.add(leaders.len() as u64);
            let mut resolved: Vec<Option<Fetched>> = leaders.iter().map(|_| None).collect();
            let mut wan_slots = Vec::new();
            for (slot, (i, _)) in leaders.iter().enumerate() {
                match self.fetch_disk(keys[*i]) {
                    Some(payload) => {
                        self.m.disk_hits.inc();
                        resolved[slot] = Some(Ok((Arc::new(payload), FetchSource::Disk)));
                    }
                    None => wan_slots.push(slot),
                }
            }
            if !wan_slots.is_empty() {
                self.m.wan_fetches.add(wan_slots.len() as u64);
                let wan_keys: Vec<&str> = wan_slots.iter().map(|&s| keys[leaders[s].0]).collect();
                for (&slot, r) in wan_slots.iter().zip(fetch(&wan_keys)) {
                    resolved[slot] = Some(r.map(|d| (Arc::new(d), FetchSource::Wan)));
                }
            }
            for ((i, f), r) in leaders.into_iter().zip(resolved) {
                let r = r.expect("every leader slot resolved");
                self.publish(keys[i], &f, &r, epoch);
                out[i] = Some(r.map(|(d, _)| d));
            }
        }

        // Phase 4: collect results fetched by other threads (or by this
        // batch, for repeated keys — already published, so no waiting).
        if !followers.is_empty() {
            let n = followers.len() as u64;
            for (i, f) in followers {
                out[i] = Some(f.wait());
            }
            self.m.coalesced_waits.add(n);
        }

        out.into_iter().map(|o| o.expect("every slot decided")).collect()
    }

    /// The one write path: `send` stores `items` at the origin as one
    /// inner call, then every payload is written through under one lock
    /// acquisition and one epoch bump — the cache can never serve bytes
    /// older than an acked write, nor keep a copy the origin may have
    /// replaced behind a failed one.
    fn write_through(
        &self,
        items: &[(&str, &[u8])],
        send: impl FnOnce(&[(&str, &[u8])]) -> Vec<Result<ObjectMeta>>,
    ) -> Vec<Result<ObjectMeta>> {
        let results = send(items);
        let mut st = self.state.lock();
        st.write_epoch += 1;
        for ((k, d), r) in items.iter().zip(&results) {
            self.settle_write(&mut st, k, d, r.is_ok());
        }
        results
    }

    /// The one delete path: `send` deletes `keys` at the origin as one
    /// inner call, then under one epoch bump every key leaves both tiers
    /// whatever its result — a delete reported as failed may have landed
    /// anyway (a lost acknowledgement).
    fn delete_through(
        &self,
        keys: &[&str],
        send: impl FnOnce(&[&str]) -> Vec<Result<()>>,
    ) -> Vec<Result<()>> {
        let results = send(keys);
        let mut st = self.state.lock();
        st.write_epoch += 1;
        for key in keys {
            self.invalidate(&mut st, key);
        }
        results
    }
}

impl ObjectStore for TierCache {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        sole(self.write_through(&[(key, data)], |_| vec![self.inner.put(key, data)]))
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        self.write_through(items, |wave| self.inner.put_many(wave))
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        sole(self.read_through(&[key], |_| vec![self.inner.get(key)])).map(Arc::unwrap_or_clone)
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        let results = self.read_through(keys, |wave| self.inner.get_many(wave));
        results.into_iter().map(|r| r.map(Arc::unwrap_or_clone)).collect()
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        sole(self.read_through(&[key], |_| vec![self.inner.get(key)]))
            .and_then(|data| slice_range(&data, offset, len, key))
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.inner.head(key)
    }

    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        self.inner.head_many(keys)
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<()> {
        sole(self.delete_through(&[key], |_| vec![self.inner.delete(key)]))
    }

    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        self.delete_through(keys, |wave| self.inner.delete_many(wave))
    }

    fn describe(&self) -> String {
        match &self.disk_store {
            Some(d) => format!(
                "{} with {} byte RAM tier over {} byte disk tier ({})",
                self.inner.describe(),
                self.ram_capacity,
                self.disk_capacity,
                d.describe()
            ),
            None => format!("{} with {} byte RAM tier", self.inner.describe(), self.ram_capacity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalStore;
    use crate::memory::MemoryStore;
    use crate::testkit::{CrashPoint, CrashSpec, CrashStore, GateStore};
    use crate::wan::{CloudStore, NetworkProfile};
    use nsdf_util::SimClock;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A RAM-only cache over a fresh in-memory origin.
    fn ram_only(capacity: u64) -> (TierCache, Arc<MemoryStore>) {
        let mem = Arc::new(MemoryStore::new());
        (TierCache::new(Arc::clone(&mem) as Arc<dyn ObjectStore>, capacity), mem)
    }

    fn temp_disk(name: &str) -> (Arc<LocalStore>, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("nsdf-tiercache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (Arc::new(LocalStore::open(&dir).unwrap()), dir)
    }

    fn tiered(name: &str, ram: u64, disk_bytes: u64) -> (TierCache, Arc<MemoryStore>) {
        let mem = Arc::new(MemoryStore::new());
        let (disk, _) = temp_disk(name);
        let tc = TierCache::new(Arc::clone(&mem) as Arc<dyn ObjectStore>, ram)
            .with_disk(disk, "t", disk_bytes)
            .unwrap();
        (tc, mem)
    }

    #[test]
    fn hash_to_path_shape_and_stability() {
        let p = hash_to_path("ns", "data/block-0001.bin");
        assert_eq!(p, hash_to_path("ns", "data/block-0001.bin"), "pure function of the key");
        let parts: Vec<&str> = p.split('/').collect();
        assert_eq!(parts[0], "ns");
        assert_eq!(parts[1].len(), 2);
        assert_eq!(parts[2].len(), 2);
        assert!(parts[3].ends_with(".obj"));
        assert!(parts[3].trim_end_matches(".obj").chars().all(|c| c.is_ascii_hexdigit()));
        crate::store::validate_key(&p).unwrap();
        assert_ne!(p, hash_to_path("ns", "data/block-0002.bin"));
    }

    #[test]
    fn envelope_roundtrip_and_damage_detection() {
        let shard = encode_shard("k/1", b"payload-bytes");
        assert_eq!(decode_shard("k/1", &shard).unwrap(), b"payload-bytes");
        // Wrong key (digest collision): rejected.
        assert!(decode_shard("k/2", &shard).unwrap_err().is_corrupt());
        // Truncation (torn write): rejected at every cut point.
        for cut in 0..shard.len() {
            assert!(decode_shard("k/1", &shard[..cut]).unwrap_err().is_corrupt(), "cut {cut}");
        }
        // Single bit flip in the payload: rejected.
        let mut flipped = shard.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(decode_shard("k/1", &flipped).unwrap_err().is_corrupt());
    }

    #[test]
    fn forged_payload_length_is_corrupt() {
        // The payload's length is what the key length leaves of the body:
        // a resealed key length that lies, by an amount that overflows
        // `4 + key_len` or runs past the body, is corrupt, not a panic.
        let body = unseal(SHARD_MAGIC, &encode_shard("k/1", b"payload-bytes")).unwrap().to_vec();
        for len in [u32::MAX, u32::MAX - 2, 4, 2, 0] {
            let mut forged = body.clone();
            forged[..4].copy_from_slice(&len.to_le_bytes());
            let forged = seal(SHARD_MAGIC, &forged);
            assert!(decode_shard("k/1", &forged).unwrap_err().is_corrupt(), "key length {len}");
        }
    }

    #[test]
    fn lookups_reconcile_across_tiers() {
        let (tc, mem) = tiered("reconcile", 1 << 20, 1 << 20);
        for i in 0..4 {
            mem.put(&format!("k/{i}"), format!("payload-{i}").as_bytes()).unwrap();
        }
        for i in 0..4 {
            tc.get(&format!("k/{i}")).unwrap(); // cold: WAN
        }
        tc.clear_ram();
        for i in 0..4 {
            tc.get(&format!("k/{i}")).unwrap(); // warm disk
        }
        for i in 0..4 {
            tc.get(&format!("k/{i}")).unwrap(); // warm RAM
        }
        let s = tc.tier_stats();
        assert_eq!(s.wan_fetches, 4);
        assert_eq!(s.disk_hits, 4);
        assert_eq!(s.ram_hits, 4);
        assert_eq!(s.promotions, 4);
        assert_eq!(s.lookups, s.ram_hits + s.disk_hits + s.wan_fetches, "exact reconciliation");
    }

    #[test]
    fn warm_disk_survives_reopen_with_zero_origin_reads() {
        let mem = Arc::new(MemoryStore::new());
        let (disk, dir) = temp_disk("reopen");
        mem.put("a/b", b"persisted-payload").unwrap();
        {
            let tc = TierCache::new(Arc::clone(&mem) as Arc<dyn ObjectStore>, 1 << 20)
                .with_disk(Arc::clone(&disk) as Arc<dyn ObjectStore>, "seal", 1 << 20)
                .unwrap();
            assert_eq!(tc.get("a/b").unwrap(), b"persisted-payload");
            assert_eq!(tc.tier_stats().wan_fetches, 1);
        }
        // "Restart": a fresh cache over the same directory, and an origin
        // that would scream if touched.
        let dead_origin = Arc::new(MemoryStore::new()); // key absent -> any WAN fetch errors
        let reopened = TierCache::new(dead_origin as Arc<dyn ObjectStore>, 1 << 20)
            .with_disk(Arc::new(LocalStore::open(&dir).unwrap()), "seal", 1 << 20)
            .unwrap();
        assert_eq!(reopened.get("a/b").unwrap(), b"persisted-payload");
        let s = reopened.tier_stats();
        assert_eq!(s.wan_fetches, 0, "warm-disk reopen must not touch the origin");
        assert_eq!(s.disk_hits, 1);
        assert!(s.disk_resident_bytes > 0, "reopen rebuilt the accounting index");
    }

    #[test]
    fn corrupt_shard_is_quarantined_and_refetched() {
        let mem = Arc::new(MemoryStore::new());
        let (disk, dir) = temp_disk("quarantine");
        mem.put("q/k", b"true-bytes").unwrap();
        let tc = TierCache::new(Arc::clone(&mem) as Arc<dyn ObjectStore>, 1 << 20)
            .with_disk(Arc::clone(&disk) as Arc<dyn ObjectStore>, "t", 1 << 20)
            .unwrap();
        tc.get("q/k").unwrap();
        let shard_path = dir.join(hash_to_path("t", "q/k"));
        // A payload bit flipped in the shard file (silent disk corruption),
        // an intact shard in the retired `NSDFTC01` framing (magic · key
        // length · key · payload digest · payload length · payload), and
        // an intact `NSDFTC02` shard sealed with the retired FNV-1a trailer.
        let mut flipped = std::fs::read(&shard_path).unwrap();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x80;
        let mut retired = b"NSDFTC01".to_vec();
        retired.extend_from_slice(&3u32.to_le_bytes());
        retired.extend_from_slice(b"q/k");
        retired.extend_from_slice(&fnv1a64(b"true-bytes").to_le_bytes());
        retired.extend_from_slice(&10u64.to_le_bytes());
        retired.extend_from_slice(b"true-bytes");
        let mut fnv_trailer = encode_shard("q/k", b"true-bytes");
        let framed = fnv_trailer.len() - 8;
        let digest = fnv1a64(&fnv_trailer[..framed]);
        fnv_trailer[framed..].copy_from_slice(&digest.to_le_bytes());
        for (i, damaged) in [flipped, retired, fnv_trailer].iter().enumerate() {
            // Drop the RAM copy so the next read promotes the shard.
            std::fs::write(&shard_path, damaged).unwrap();
            tc.clear_ram();
            assert_eq!(tc.get("q/k").unwrap(), b"true-bytes", "corrupt bytes are never returned");
            let s = tc.tier_stats();
            assert_eq!(s.quarantined, i as u64 + 1, "input {i}");
            assert_eq!(s.disk_hits, 0, "input {i}");
            assert_eq!(s.wan_fetches, i as u64 + 2, "input {i}: the shard forced a refetch");
        }
        // The refetch re-persisted a healthy shard.
        tc.clear_ram();
        assert_eq!(tc.get("q/k").unwrap(), b"true-bytes");
        assert_eq!(tc.tier_stats().disk_hits, 1);
    }

    #[test]
    fn scan_does_not_flush_a_frequent_working_set() {
        // Hot keys are touched repeatedly; then a one-touch scan floods
        // the cache. TinyLFU must keep the hot set resident (pure LRU
        // would evict all of it).
        let (tc, mem) = tiered("scan", 8 * 100, 1 << 20); // room for ~8 payloads
        for i in 0..8 {
            mem.put(&format!("hot/{i}"), &[i as u8; 100]).unwrap();
        }
        for i in 0..64 {
            mem.put(&format!("scan/{i}"), &[0xAA; 100]).unwrap();
        }
        for _ in 0..4 {
            for i in 0..8 {
                tc.get(&format!("hot/{i}")).unwrap();
            }
        }
        for i in 0..64 {
            tc.get(&format!("scan/{i}")).unwrap();
        }
        let before = tc.tier_stats().ram_hits;
        for i in 0..8 {
            tc.get(&format!("hot/{i}")).unwrap();
        }
        let hits = tc.tier_stats().ram_hits - before;
        assert!(hits >= 7, "hot set must survive the scan (got {hits}/8 RAM hits)");
        assert!(tc.tier_stats().admit_rejected > 0, "the scan was actually filtered");
    }

    #[test]
    fn write_epoch_spans_both_tiers() {
        let mem = Arc::new(MemoryStore::new());
        let (disk, dir) = temp_disk("epoch");
        {
            let tc = TierCache::new(Arc::clone(&mem) as Arc<dyn ObjectStore>, 1 << 20)
                .with_disk(Arc::clone(&disk) as Arc<dyn ObjectStore>, "t", 1 << 20)
                .unwrap();
            tc.put("k", b"v1").unwrap();
            assert_eq!(tc.get("k").unwrap(), b"v1");
            tc.put("k", b"v2-longer").unwrap(); // write-through to RAM + disk + origin
            assert_eq!(tc.get("k").unwrap(), b"v2-longer");
        }
        // A restarted cache promotes the *new* bytes from disk.
        let tc2 = TierCache::new(Arc::new(MemoryStore::new()) as Arc<dyn ObjectStore>, 1 << 20)
            .with_disk(Arc::new(LocalStore::open(&dir).unwrap()), "t", 1 << 20)
            .unwrap();
        assert_eq!(tc2.get("k").unwrap(), b"v2-longer");
        assert_eq!(tc2.tier_stats().wan_fetches, 0);
        // Delete drops every tier: a fresh reopen finds nothing on disk.
        tc2.delete("k").unwrap_err(); // origin lacks the key -> inner delete errors
        let tc3 = TierCache::new(Arc::clone(&mem) as Arc<dyn ObjectStore>, 1 << 20)
            .with_disk(Arc::new(LocalStore::open(&dir).unwrap()), "t", 1 << 20)
            .unwrap();
        mem.delete("k").unwrap();
        tc3.put("k", b"v3").unwrap();
        tc3.delete("k").unwrap();
        assert_eq!(tc3.tier_stats().disk_resident_bytes, 0, "delete removed the shard");
        assert!(tc3.get("k").unwrap_err().is_not_found());
    }

    #[test]
    fn both_tiers_respect_their_byte_budgets() {
        let ram_budget = 300;
        let disk_budget = 700;
        let (tc, mem) = tiered("budget", ram_budget, disk_budget);
        for i in 0..32 {
            let key = format!("k/{i:02}");
            mem.put(&key, &[i as u8; 100]).unwrap();
            tc.get(&key).unwrap();
            let s = tc.tier_stats();
            assert!(s.ram_resident_bytes <= ram_budget, "RAM over budget at {i}");
            assert!(s.disk_resident_bytes <= disk_budget, "disk over budget at {i}");
        }
        let s = tc.tier_stats();
        assert!(s.disk_resident_bytes > 0);
        assert!(tc.stats().evictions_budget > 0 || s.admit_rejected > 0);
    }

    #[test]
    fn recency_queues_stay_bounded_under_repeated_hits() {
        // Regression: every hit queued one `(key, tick)` pair and stale
        // pairs left only inside an eviction, so a working set that fits
        // its budget leaked one heap string per hit.
        let (tc, mem) = tiered("hit-queue", 1 << 20, 1 << 20);
        mem.put("k", b"resident").unwrap();
        for _ in 0..10_000 {
            tc.get("k").unwrap(); // one WAN fetch, then RAM hits
        }
        assert_eq!(tc.tier_stats().ram_hits, 9_999);
        assert!(tc.state.lock().ram.queue.len() <= 3, "RAM queue grew with hits");

        // A RAM tier too small to admit the payload: every read after the
        // first is a disk hit.
        let (tc, mem) = tiered("hit-queue-disk", 4, 1 << 20);
        mem.put("k", b"resident").unwrap();
        for _ in 0..10_000 {
            tc.get("k").unwrap();
        }
        assert_eq!(tc.tier_stats().disk_hits, 9_999);
        assert!(tc.state.lock().disk.queue.len() <= 3, "disk queue grew with hits");
    }

    #[test]
    fn get_many_reconciles_and_mixes_tiers() {
        let (tc, mem) = tiered("getmany", 1 << 20, 1 << 20);
        for i in 0..6 {
            mem.put(&format!("m/{i}"), format!("v{i}").as_bytes()).unwrap();
        }
        // Warm 2 keys into RAM, 2 more onto disk only.
        tc.get("m/0").unwrap();
        tc.get("m/1").unwrap();
        tc.get("m/2").unwrap();
        tc.get("m/3").unwrap();
        tc.clear_ram();
        tc.get("m/0").unwrap();
        tc.get("m/1").unwrap();
        let keys = ["m/0", "m/1", "m/2", "m/3", "m/4", "m/5"];
        let results = tc.get_many(&keys);
        for (k, r) in keys.iter().zip(&results) {
            assert_eq!(r.as_ref().unwrap(), format!("v{}", &k[2..]).as_bytes());
        }
        let s = tc.tier_stats();
        assert_eq!(s.lookups, s.ram_hits + s.disk_hits + s.wan_fetches);
        assert_eq!(s.ram_hits, 2, "m/0 and m/1 hit RAM in the batch");
        assert_eq!(s.disk_hits, 2 + 2, "m/2+m/3 in-batch, m/0+m/1 after clear_ram");
        assert_eq!(s.wan_fetches, 4 + 2, "4 cold warms + m/4 and m/5 in-batch");
    }

    #[test]
    fn put_warms_both_tiers() {
        let (tc, _mem) = tiered("putwarm", 1 << 20, 1 << 20);
        tc.put("w/k", b"warm").unwrap();
        assert_eq!(tc.get("w/k").unwrap(), b"warm");
        let s = tc.tier_stats();
        assert_eq!(s.ram_hits, 1);
        assert_eq!(s.wan_fetches, 0);
        tc.clear_ram();
        assert_eq!(tc.get("w/k").unwrap(), b"warm");
        assert_eq!(tc.tier_stats().disk_hits, 1, "the write also landed on disk");
    }

    #[test]
    fn decision_log_never_admits_a_colder_candidate() {
        let (tc, mem) = tiered("decisions", 4 * 64, 1 << 20);
        for i in 0..16 {
            mem.put(&format!("d/{i}"), &[1u8; 64]).unwrap();
        }
        for _ in 0..3 {
            for i in 0..4 {
                tc.get(&format!("d/{i}")).unwrap();
            }
        }
        for i in 4..16 {
            tc.get(&format!("d/{i}")).unwrap();
        }
        let decisions = tc.take_decisions();
        assert!(!decisions.is_empty());
        for d in &decisions {
            if d.admitted {
                assert!(
                    d.victim_freq < d.candidate_freq,
                    "admitted {} (freq {}) over hotter victim {} (freq {})",
                    d.candidate,
                    d.candidate_freq,
                    d.victim,
                    d.victim_freq
                );
            } else {
                assert!(d.victim_freq >= d.candidate_freq);
            }
        }
        assert!(tc.take_decisions().is_empty(), "take_decisions drains the log");
    }

    #[test]
    fn second_read_hits() {
        let (c, mem) = ram_only(1 << 20);
        mem.put("k", b"value").unwrap(); // start cold
        c.get("k").unwrap();
        c.get("k").unwrap();
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.resident_bytes, 5);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn put_warms_cache() {
        let (c, _) = ram_only(1 << 20);
        c.put("k", b"warm").unwrap();
        c.get("k").unwrap();
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn oversized_objects_bypass_cache() {
        let (c, _) = ram_only(8);
        c.put("big", &[0u8; 100]).unwrap();
        assert_eq!(c.stats().resident_bytes, 0);
        c.get("big").unwrap();
        c.get("big").unwrap();
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn delete_invalidates() {
        let (c, _) = ram_only(1 << 20);
        c.put("k", b"v").unwrap();
        c.delete("k").unwrap();
        assert!(c.get("k").unwrap_err().is_not_found());
        assert_eq!(c.stats().resident_bytes, 0);
    }

    #[test]
    fn eviction_reasons_reconcile_budget_plus_epoch() {
        let (c, _) = ram_only(25);
        for k in ["a", "b", "c"] {
            c.put(k, &[0u8; 10]).unwrap(); // c is no hotter than a: rejected
        }
        assert_eq!(c.tier_stats().admit_rejected, 1);
        c.get("c").unwrap(); // second touch: now hotter than a -> one budget eviction
        c.put("b", &[1u8; 10]).unwrap(); // overwrite resident -> epoch
        c.delete("c").unwrap(); // delete resident -> epoch
        c.delete("ghost").unwrap_err(); // delete of a non-resident key: no eviction
        let s = c.stats();
        assert!(s.resident_bytes <= 25);
        assert_eq!(s.evictions_budget, 1, "a evicted when c earned its place");
        assert_eq!(s.evictions_epoch, 2, "one overwrite displacement + one delete");
        assert_eq!(
            s.evictions,
            s.evictions_budget + s.evictions_epoch,
            "reason split must reconcile with the total"
        );
    }

    #[test]
    fn oversized_overwrite_displaces_the_stale_copy_in_both_tiers() {
        // Regression: overwriting a cached small object with a payload
        // larger than either tier must not leave the old bytes resident in
        // RAM or on disk — the next read refetches the new payload.
        let mem = Arc::new(MemoryStore::new());
        let tc = TierCache::new(Arc::clone(&mem) as Arc<dyn ObjectStore>, 8)
            .with_disk(Arc::new(MemoryStore::new()), "t", 64)
            .unwrap();
        tc.put("k", b"tiny").unwrap();
        assert_eq!(tc.stats().resident_bytes, 4);
        assert!(tc.tier_stats().disk_resident_bytes > 0);
        tc.put("k", &[7u8; 100]).unwrap();
        assert_eq!(tc.stats().resident_bytes, 0, "stale copy displaced, giant never admitted");
        assert_eq!(tc.tier_stats().disk_resident_bytes, 0, "stale shard dropped");
        assert_eq!(tc.get("k").unwrap(), vec![7u8; 100], "read serves the new payload");
        let s = tc.stats();
        assert_eq!(s.evictions_epoch, 1, "the displacement is an epoch eviction");
        assert_eq!(s.misses, 1, "oversized payload is refetched, not cached");
        assert_eq!(tc.tier_stats().wan_fetches, 1);
    }

    #[test]
    fn ranged_reads_served_from_cached_object() {
        let (c, _) = ram_only(1 << 20);
        c.put("k", b"0123456789").unwrap();
        assert_eq!(c.get_range("k", 2, 4).unwrap(), b"2345");
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn concurrent_misses_single_flight() {
        // 16 threads hammer the same cold key while the first fetch is
        // parked inside the origin; the origin must see exactly one fetch
        // and everyone must get the payload — as a coalesced wait if they
        // arrived while it was in flight, as a hit if after.
        let mem = Arc::new(MemoryStore::new());
        mem.put("hot", b"block-payload").unwrap();
        let gate = Arc::new(GateStore::on_gets(mem, "hot"));
        let cached = TierCache::new(Arc::clone(&gate) as Arc<dyn ObjectStore>, 1 << 20);
        let barrier = std::sync::Barrier::new(16);
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    barrier.wait();
                    assert_eq!(cached.get("hot").unwrap(), b"block-payload");
                });
            }
            gate.wait_entered(1);
            gate.open();
        });
        let stats = cached.stats();
        assert_eq!(cached.tier_stats().wan_fetches, 1, "single-flight deduplicates the misses");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced_waits, 15);
    }

    /// Park a leader's `get(key)` inside the gated origin, then start
    /// `followers` threads that each `get_many([own-i, key])`: a follower
    /// joins `key`'s flight in the same step that makes it leader of its
    /// own key, so once all `followers + 1` fetches are parked every
    /// follower is provably waiting on the leader. Returns each thread's
    /// result for `key`, the leader's first.
    fn park_followers_on(
        cached: &TierCache,
        gate: &GateStore,
        key: &str,
        followers: usize,
    ) -> Vec<Result<Vec<u8>>> {
        std::thread::scope(|s| {
            let leader = s.spawn(|| cached.get(key));
            gate.wait_entered(1);
            let joined: Vec<_> = (0..followers)
                .map(|i| {
                    s.spawn(move || {
                        let own = format!("own-{i}");
                        cached.get_many(&[own.as_str(), key]).pop().expect("two results")
                    })
                })
                .collect();
            gate.wait_entered(1 + followers as u64);
            gate.open();
            std::iter::once(leader)
                .chain(joined)
                .map(|h| h.join().expect("reader thread"))
                .collect()
        })
    }

    #[test]
    fn single_flight_stress_metrics_count_one_inner_fetch() {
        // 32 readers of one cold key through a shared registry, every
        // follower forced to arrive while the leader's fetch is in flight:
        // the registry counters must show exactly one origin fetch of the
        // hot key and every other reader as a coalesced wait.
        let obs = Obs::default();
        let mem = Arc::new(MemoryStore::new());
        mem.put("hot", b"payload").unwrap();
        let gate = Arc::new(GateStore::on_gets(mem, ""));
        let cached = TierCache::new(Arc::clone(&gate) as Arc<dyn ObjectStore>, 1 << 20)
            .with_obs(&obs.scoped("seal"));
        for r in park_followers_on(&cached, &gate, "hot", 31) {
            assert_eq!(r.unwrap(), b"payload");
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counter("seal.cache.coalesced_waits"), 31);
        assert_eq!(snap.counter("seal.cache.hits"), 0);
        // One fetch per follower's own (absent) key plus exactly one of "hot".
        assert_eq!(snap.counter("seal.cache.misses"), 31 + 1);
        assert_eq!(snap.counter("seal.tiercache.wan_fetches"), 31 + 1);
        assert_eq!(snap.gauge("seal.cache.resident_bytes"), 7.0);
    }

    #[test]
    fn failed_fetch_shared_but_not_cached() {
        // Concurrent misses on a missing key share one NotFound; the error
        // is not cached, so a later write makes the key readable.
        let gate = Arc::new(GateStore::on_gets(Arc::new(MemoryStore::new()), ""));
        let cached = TierCache::new(Arc::clone(&gate) as Arc<dyn ObjectStore>, 1 << 20);
        for r in park_followers_on(&cached, &gate, "ghost", 7) {
            assert!(r.unwrap_err().is_not_found());
        }
        assert_eq!(cached.tier_stats().wan_fetches, 7 + 1, "one shared failing fetch of ghost");
        assert_eq!(cached.stats().coalesced_waits, 7);
        cached.put("ghost", b"now real").unwrap();
        assert_eq!(cached.get("ghost").unwrap(), b"now real");
    }

    #[test]
    fn get_many_partitions_hits_and_misses() {
        let (cached, mem) = ram_only(1 << 20);
        for k in ["a", "b", "c", "d"] {
            mem.put(k, k.as_bytes()).unwrap();
        }
        cached.get("a").unwrap();
        cached.get("c").unwrap();
        let before = cached.tier_stats().wan_fetches;
        let results = cached.get_many(&["a", "b", "c", "d", "missing"]);
        assert_eq!(results[0].as_ref().unwrap(), b"a");
        assert_eq!(results[1].as_ref().unwrap(), b"b");
        assert_eq!(results[2].as_ref().unwrap(), b"c");
        assert_eq!(results[3].as_ref().unwrap(), b"d");
        assert!(results[4].as_ref().unwrap_err().is_not_found());
        // Only the three missing keys reach the inner store.
        assert_eq!(cached.tier_stats().wan_fetches - before, 3);
        let stats = cached.stats();
        assert_eq!(stats.hits, 2); // a and c, warmed by the single gets
        assert_eq!(stats.misses, 5); // 2 warming gets + 3 batch leaders

        // The whole batch is now warm: a re-read touches the inner store
        // zero times.
        let warm = cached.get_many(&["a", "b", "c", "d"]);
        assert!(warm.iter().all(|r| r.is_ok()));
        assert_eq!(cached.tier_stats().wan_fetches - before, 3);
    }

    #[test]
    fn get_many_deduplicates_repeated_keys() {
        let (cached, mem) = ram_only(1 << 20);
        mem.put("k", b"v").unwrap();
        let results = cached.get_many(&["k", "k", "k"]);
        assert!(results.iter().all(|r| r.as_ref().unwrap() == b"v"));
        assert_eq!(cached.tier_stats().wan_fetches, 1, "repeated key fetched once per batch");
        assert_eq!(cached.stats().coalesced_waits, 2);
    }

    #[test]
    fn put_many_writes_through_successes_only() {
        let (c, _) = ram_only(1 << 20);
        let results = c.put_many(&[("a", b"alpha" as &[u8]), ("bad//key", b"x"), ("b", b"beta")]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        // Both stored payloads are warm; the failed key cached nothing.
        c.get("a").unwrap();
        c.get("b").unwrap();
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
        assert_eq!(s.resident_bytes, 9);
    }

    #[test]
    fn put_many_overwrite_never_serves_stale_bytes() {
        let (c, _) = ram_only(1 << 20);
        c.put("k", b"old-bytes").unwrap();
        assert_eq!(c.get("k").unwrap(), b"old-bytes");
        c.put_many(&[("k", b"new-bytes" as &[u8])]);
        assert_eq!(c.get("k").unwrap(), b"new-bytes", "write-through replaces the cached copy");
        assert_eq!(c.stats().misses, 0, "the fresh copy is served from cache, not refetched");
    }

    #[test]
    fn miss_in_flight_during_write_never_caches_stale_bytes() {
        // Regression: a single-flight leader reads the old payload, then a
        // put_many write-through lands while that fetch is still in flight.
        // The leader's publish must NOT clobber the newer cached copy.
        let gate = Arc::new(GateStore::on_gets(Arc::new(MemoryStore::new()), "k"));
        gate.put("k", b"old-bytes").unwrap();
        let cached = TierCache::new(Arc::clone(&gate) as Arc<dyn ObjectStore>, 1 << 20);
        std::thread::scope(|s| {
            let reader = s.spawn(|| cached.get("k").unwrap());
            gate.wait_entered(1); // the leader holds the pre-write payload
            cached.put_many(&[("k", b"new-bytes" as &[u8])]);
            gate.open();
            // The racing read began before the write, so the old payload is
            // a linearizable result for it.
            assert_eq!(reader.join().unwrap(), b"old-bytes");
        });
        assert_eq!(
            cached.get("k").unwrap(),
            b"new-bytes",
            "publish of an in-flight fetch must not overwrite a newer write-through"
        );
        let s = cached.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1, "the fresh payload is served from cache, not refetched");
    }

    #[test]
    fn cache_in_front_of_wan_cuts_virtual_time() {
        let clock = SimClock::new();
        let wan = Arc::new(CloudStore::new(
            Arc::new(MemoryStore::new()),
            NetworkProfile::public_dataverse(),
            clock.clone(),
            7,
        ));
        let cached = TierCache::new(wan, 64 << 20);
        cached.put("block", &vec![1u8; 1 << 20]).unwrap();
        cached.clear_ram();
        let t0 = clock.now_ns();
        cached.get("block").unwrap();
        let cold = clock.now_ns() - t0;
        let t1 = clock.now_ns();
        cached.get("block").unwrap();
        let warm = clock.now_ns() - t1;
        assert!(cold > 0);
        assert_eq!(warm, 0, "warm read must not touch the WAN");
    }

    /// Origin + disk + a cache over both whose origin handle dies
    /// `AfterWrite` on the first put of `"k"` once armed: the origin durably
    /// holds the new payload, the acknowledgement is lost.
    fn lost_ack_cache() -> (TierCache, Arc<CrashStore>, Arc<MemoryStore>, Arc<MemoryStore>) {
        let (origin, disk) = (Arc::new(MemoryStore::new()), Arc::new(MemoryStore::new()));
        let crash = Arc::new(CrashStore::new(Arc::clone(&origin) as Arc<dyn ObjectStore>));
        let tc = TierCache::new(Arc::clone(&crash) as Arc<dyn ObjectStore>, 1 << 20)
            .with_disk(Arc::clone(&disk) as Arc<dyn ObjectStore>, "t", 1 << 20)
            .unwrap();
        (tc, crash, origin, disk)
    }

    /// A restarted cache over the same disk tier and a live origin handle
    /// must read `want` for `"k"` from the origin, not an older shard.
    fn assert_reopen_converges(origin: Arc<MemoryStore>, disk: Arc<MemoryStore>, want: &[u8]) {
        let reopened = TierCache::new(origin, 1 << 20).with_disk(disk, "t", 1 << 20).unwrap();
        assert_eq!(reopened.get("k").unwrap(), want, "restart must not resurrect the old shard");
        let s = reopened.tier_stats();
        assert_eq!((s.disk_hits, s.wan_fetches), (0, 1));
    }

    #[test]
    fn failed_put_drops_the_key_from_both_tiers() {
        // Regression: a put whose ack is lost used to return early and leave
        // v1 in RAM and on disk, served forever with zero origin reads.
        let (tc, crash, origin, disk) = lost_ack_cache();
        tc.put("k", b"v1").unwrap();
        crash.arm(CrashSpec { prefix: "k".into(), nth: 0, point: CrashPoint::AfterWrite });
        tc.put("k", b"v2").unwrap_err();
        assert_eq!(origin.get("k").unwrap(), b"v2", "the write landed; only the ack was lost");
        // Same process: the dead origin handle is asked, v1 is not served.
        assert!(tc.get("k").is_err(), "stale v1 served after a failed overwrite");
        assert_eq!(tc.stats().resident_bytes, 0);
        assert_eq!(tc.stats().evictions_epoch, 1);
        assert_eq!(tc.tier_stats().disk_resident_bytes, 0);
        assert_reopen_converges(origin, disk, b"v2");
    }

    #[test]
    fn partially_failed_put_many_drops_exactly_the_failed_keys() {
        let (tc, crash, origin, disk) = lost_ack_cache();
        tc.put_many(&[("a", b"a1" as &[u8]), ("k", b"v1"), ("z", b"z1")]);
        crash.arm(CrashSpec { prefix: "k".into(), nth: 0, point: CrashPoint::AfterWrite });
        let results = tc.put_many(&[("a", b"a2" as &[u8]), ("k", b"v2"), ("z", b"z2")]);
        let ok: Vec<bool> = results.iter().map(|r| r.is_ok()).collect();
        assert_eq!(ok, [true, false, false], "a acked, k lost its ack, z never sent");
        assert_eq!(origin.get("k").unwrap(), b"v2");
        assert_eq!(tc.get("a").unwrap(), b"a2", "the acked write is served warm");
        assert!(tc.get("k").is_err(), "stale v1 served after a failed overwrite");
        assert!(tc.get("z").is_err(), "a failed write leaves no copy to trust");
        assert_eq!(tc.stats().resident_bytes, 2, "only a2 is resident");
        assert_reopen_converges(origin, disk, b"v2");
    }

    #[test]
    fn failed_delete_drops_the_key_from_both_tiers() {
        let (tc, crash, origin, disk) = lost_ack_cache();
        tc.put("k", b"v1").unwrap();
        // Kill the origin handle on an unrelated put, then delete through it.
        crash.arm(CrashSpec { prefix: "die".into(), nth: 0, point: CrashPoint::BeforeWrite });
        tc.put("die", b"x").unwrap_err();
        tc.delete("k").unwrap_err();
        assert_eq!(tc.stats().resident_bytes, 0);
        assert_eq!(tc.tier_stats().disk_resident_bytes, 0);
        assert_reopen_converges(origin, disk, b"v1");
    }

    #[test]
    fn delete_many_drops_every_key_from_both_tiers_whatever_its_result() {
        let (tc, crash, origin, disk) = lost_ack_cache();
        tc.put_many(&[("a", b"a1" as &[u8]), ("k", b"v1"), ("z", b"z1")]);
        let epoch_evictions = tc.stats().evictions_epoch;
        // The origin dies inside the wave: a is removed, k and z are not.
        crash.arm(CrashSpec { prefix: "k".into(), nth: 0, point: CrashPoint::BeforeDelete });
        let ok: Vec<bool> = tc.delete_many(&["a", "k", "z"]).iter().map(|r| r.is_ok()).collect();
        assert_eq!(ok, [true, false, false]);
        assert!(origin.get("a").unwrap_err().is_not_found());
        assert_eq!(origin.get("z").unwrap(), b"z1", "the failed deletes never landed");
        // Neither tier answers for any of the three: every read goes to
        // the (dead) origin handle.
        for k in ["a", "k", "z"] {
            assert!(tc.get(k).is_err(), "{k} served from a cache tier after the wave");
        }
        assert_eq!(tc.stats().resident_bytes, 0);
        assert_eq!(tc.stats().evictions_epoch, epoch_evictions + 3);
        assert_eq!(tc.tier_stats().disk_resident_bytes, 0);
        assert_reopen_converges(origin, disk, b"v1");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Scan resistance: under any interleaving of hot-set touches and
        /// one-shot scan keys, the TinyLFU filter never evicts a resident
        /// key whose sketch frequency meets or exceeds the candidate's —
        /// checked against the logged ruling for every eviction decision —
        /// and the sketch itself never underestimates in-window history.
        #[test]
        fn admission_never_evicts_a_hotter_victim_under_any_scan(
            ops in proptest::collection::vec(0usize..24, 20..300),
        ) {
            let key = |i: usize| format!("pool/obj-{i:03}");
            // A sketch driven alongside: estimates never undershoot history.
            let mut shadow = FrequencySketch::new();
            let mut counts: BTreeMap<usize, u64> = BTreeMap::new();

            let wan = Arc::new(MemoryStore::new());
            for i in 0..24 {
                wan.put(&key(i), &[i as u8; 64]).unwrap();
            }
            // Room for ~4 of the 64-byte objects: every admission contends.
            let tier = TierCache::new(wan as Arc<dyn ObjectStore>, 300);
            for &i in &ops {
                tier.get(&key(i)).unwrap();
                shadow.record(&key(i));
                *counts.entry(i).or_insert(0) += 1;
            }
            for d in tier.take_decisions() {
                prop_assert_eq!(
                    d.admitted,
                    d.victim_freq < d.candidate_freq,
                    "ruling must be exactly `victim colder than candidate`: {:?}", d
                );
            }
            for (&i, &n) in &counts {
                let floor = n.min(16) as u8;
                prop_assert!(
                    shadow.estimate(&key(i)) >= floor,
                    "sketch underestimated key {} ({} recorded, estimate {})",
                    i, n, shadow.estimate(&key(i))
                );
            }
        }
    }
}
