//! `catalog`: the NSDF-Catalog service on a private-cloud object store —
//! batched ingest with overwrites and deletes over a bulk-loaded base,
//! point and batched lookups, prefix scans, flush + full compaction, then
//! close and recovery.
//!
//! Why it exists: the LSM engine (WAL, memtable flush, bloom filters,
//! compaction, manifest recovery) does all the work through WAN waves;
//! IDX, codecs and the scheduler are untouched. Reads and writes mix on
//! one structure, so read cost, write cost and space trade against each
//! other and all three are reported. The data (≈ 1.8 M records) is far
//! larger than the 8 MiB memtable budget: several flush/compaction cycles
//! per run.
//!
//! User-visible op: the acknowledgement of one 1024-record `ingest` batch
//! (which includes any checkpoint or compaction the batch triggered — the
//! foreground stall background work causes).

use crate::gen::Rng;
use crate::metrics::{ratio, Delta, Layers};
use crate::trace::{SpanStore, Tracer};
use crate::workload::{cpu_timed, timed, Phase, Rep};
use nsdf_catalog::{Catalog, CatalogConfig, Record};
use nsdf_storage::{CloudStore, MemoryStore, NetworkProfile, ObjectStore};
use nsdf_util::{derive_seed, splitmix64, Obs, Result, SimClock};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const SHARDS: usize = 16;
const BATCH: u64 = 1024;
const SOURCES: [&str; 3] = ["dataverse", "materials-commons", "seal"];
/// Directory names cycle over this many values, so one prefix scan matches
/// about 1/499 of the catalog.
const DIRS: u64 = 499;

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    preload: u64,
    batches: u64,
    gets: u64,
    get_many_calls: u64,
    scans: u64,
    sample: u64,
}

/// Seed-derived inputs. Records are a pure function of `(id, version)`,
/// so nothing is materialised ahead of time.
pub struct Inputs {
    seed: u64,
    sizes: Sizes,
    /// Wall seconds generating inputs (nothing to precompute here).
    pub generate_s: f64,
}

/// Fix the sizes for `seed`.
pub fn generate(seed: u64, quick: bool) -> Inputs {
    let sizes = if quick {
        Sizes {
            preload: 100_000,
            batches: 352,
            gets: 20_000,
            get_many_calls: 100,
            scans: 2,
            sample: 2_000,
        }
    } else {
        Sizes {
            preload: 1_000_000,
            batches: 768,
            gets: 400_000,
            get_many_calls: 2_000,
            scans: 6,
            sample: 10_000,
        }
    };
    Inputs { seed, sizes, generate_s: 0.0 }
}

/// The record stored under `id` at `version` (0 = as first written).
fn record(seed: u64, id: u64, version: u32) -> Record {
    let k = id / 2;
    Record::new(
        id,
        format!("d{:03}/o{k:07}", k % DIRS),
        SOURCES[(k % 3) as usize],
        1024 + (k + version as u64) % 4096,
        // About a fifth of first-version records share a checksum with
        // another id: cross-repository duplicates for the dedup counters.
        splitmix64(seed ^ (k % 800_000)).wrapping_add(version as u64),
    )
    .expect("synthetic records are valid")
}

/// Mean `Record::approx_bytes` over the synthetic population (the three
/// sources are used equally).
fn mean_record_bytes() -> f64 {
    let source: usize = SOURCES.iter().map(|s| s.len()).sum();
    48.0 + "d000/o0000000".len() as f64 + source as f64 / SOURCES.len() as f64
}

/// What the driver knows the catalog must hold. Ids are even; preloaded
/// ids are `2i` for `i < preload`, ingested new ids continue from there.
struct Model {
    seed: u64,
    preload: u64,
    /// Ids `>= 2 * preload` handed out so far.
    new_ids: u64,
    /// Latest version of every overwritten id.
    versions: HashMap<u64, u32>,
    /// Ids whose delete was acknowledged and that were not rewritten since.
    deleted: HashSet<u64>,
}

impl Model {
    fn live(&self, id: u64) -> bool {
        id.is_multiple_of(2) && id / 2 < self.preload + self.new_ids && !self.deleted.contains(&id)
    }

    fn expect(&self, id: u64) -> Option<Record> {
        self.live(id).then(|| record(self.seed, id, self.versions.get(&id).copied().unwrap_or(0)))
    }

    fn len(&self) -> u64 {
        self.preload + self.new_ids - self.deleted.len() as u64
    }

    /// Some id in the written range (live or deleted).
    fn written_id(&self, rng: &mut Rng) -> u64 {
        2 * rng.below(self.preload + self.new_ids)
    }
}

/// The catalog's registry counters as per-layer metrics, read under
/// `scope` (the pipeline registers artifacts under `"seal."`).
pub fn fill_catalog_counters(l: &mut Layers, d: &Delta, scope: &str) {
    let f = |name: &str| d.f(&format!("{scope}catalog.{name}"));
    l.set("catalog.upserts", f("upserts"));
    l.set("catalog.gets", f("gets"));
    l.set("catalog.wal_batches", f("wal_batches"));
    l.set("catalog.flushes", f("flushes"));
    l.set("catalog.segments_written", f("segments_written"));
    l.set("catalog.segment_bytes_written", f("segment_bytes_written"));
    l.set("catalog.compactions", f("compactions"));
    l.set("catalog.compaction_bytes", f("compaction_bytes"));
    l.set("catalog.dedup_records", f("dedup_records"));
    l.set("catalog.read_amp", ratio(f("bloom_hit") + f("bloom_fp"), f("gets")));
    l.set("catalog.bloom_fpr", ratio(f("bloom_fp"), f("bloom_fp") + f("bloom_skip")));
}

fn open_store(seed: u64, clock: &SimClock, obs: &Obs, tracer: &Tracer) -> Arc<dyn ObjectStore> {
    let mut memory: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    if tracer.is_recording() {
        memory = SpanStore::wrap(memory, "memory", tracer);
    }
    let wan: Arc<dyn ObjectStore> = Arc::new(
        CloudStore::new(
            memory,
            NetworkProfile::private_seal(),
            clock.clone(),
            derive_seed(seed, "wan-catalog"),
        )
        .with_obs(obs),
    );
    if tracer.is_recording() {
        SpanStore::wrap(wan, "wan", tracer)
    } else {
        wan
    }
}

/// One repetition on a fresh store.
pub fn run(inp: &Inputs, traced: bool) -> Result<Rep> {
    let (seed, sz) = (inp.seed, inp.sizes);
    let mut rep = Rep::default();
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let tracer = if traced { Tracer::recording(clock.clone()) } else { Tracer::disabled() };
    let config = CatalogConfig::new(SHARDS);
    let (built, setup_s) = timed(|| -> Result<_> {
        let store = open_store(seed, &clock, &obs, &tracer);
        let cat = Catalog::open(Arc::clone(&store), clock.clone(), config.clone())?.with_obs(&obs);
        cat.bulk_load((0..sz.preload).map(|i| record(seed, 2 * i, 0)))?;
        Ok((store, cat))
    });
    let (store, cat) = built?;
    rep.setup_s = setup_s;
    let mut model = Model {
        seed,
        preload: sz.preload,
        new_ids: 0,
        versions: HashMap::new(),
        deleted: HashSet::new(),
    };
    let mut rng = Rng::new(seed, "catalog-ops");
    let mut wrong = 0u64;
    let (mut ingest_cpu, mut user_bytes) = (0.0, 0.0);
    let record_bytes = mean_record_bytes();

    // ---- measured phase ---------------------------------------------------
    let phase = Phase::start(&clock, &obs, &tracer);
    // Ingest: per batch 20 % overwrites of written ids, the rest new ids;
    // then 2 % as many single deletes of written ids.
    for batch in 0..sz.batches {
        tracer.set_request(batch + 1);
        let mut records = Vec::with_capacity(BATCH as usize);
        for _ in 0..BATCH {
            let id = if rng.below(5) == 0 {
                let id = model.written_id(&mut rng);
                *model.versions.entry(id).or_insert(0) += 1;
                model.deleted.remove(&id);
                id
            } else {
                model.new_ids += 1;
                2 * (model.preload + model.new_ids - 1)
            };
            records.push(record(seed, id, model.versions.get(&id).copied().unwrap_or(0)));
        }
        let t0 = clock.now_ns();
        let (ack, cpu) = cpu_timed(|| {
            let _s = tracer.span("catalog", "ingest");
            cat.ingest(records)
        });
        ack?;
        ingest_cpu += cpu;
        rep.ops_vns.push(clock.now_ns() - t0);
        for _ in 0..BATCH / 50 {
            let id = model.written_id(&mut rng);
            let was_live = model.live(id);
            let _s = tracer.span("catalog", "delete");
            wrong += (cat.delete(id)? != was_live) as u64;
            model.versions.remove(&id);
            model.deleted.insert(id);
        }
    }
    rep.attempted += sz.batches * (1 + BATCH / 50);
    user_bytes += (sz.batches * BATCH) as f64 * record_bytes;

    // Point lookups: half written ids (present unless deleted), half odd
    // ids — absent, but interior to every segment's key range.
    tracer.set_request(sz.batches + 1);
    let (hits, get_cpu) = cpu_timed(|| {
        let mut hits = 0u64;
        for chunk in 0..sz.gets.div_ceil(BATCH) {
            let _s = tracer.span("catalog", "get x1024");
            for _ in chunk * BATCH..((chunk + 1) * BATCH).min(sz.gets) {
                let id = model.written_id(&mut rng) + rng.below(2);
                let found = cat.get(id).is_some();
                hits += found as u64;
                wrong += (found != model.live(id)) as u64;
            }
        }
        hits
    });
    for _ in 0..sz.get_many_calls {
        let ids: Vec<u64> = (0..64).map(|_| model.written_id(&mut rng) + rng.below(2)).collect();
        let _s = tracer.span("catalog", "get_many");
        let found = cat.get_many(&ids);
        for (id, r) in ids.iter().zip(&found) {
            wrong += (r.is_some() != model.live(*id)) as u64;
        }
        user_bytes += found.iter().flatten().count() as f64 * record_bytes;
    }
    rep.attempted += sz.gets + sz.get_many_calls;
    user_bytes += hits as f64 * record_bytes;

    let (scanned, scan_cpu) = cpu_timed(|| {
        (0..sz.scans)
            .map(|_| {
                let _s = tracer.span("catalog", "find_by_prefix");
                cat.find_by_prefix(&format!("d{:03}/", rng.below(DIRS))).len() as u64
            })
            .sum::<u64>()
    });
    rep.attempted += sz.scans;
    user_bytes += scanned as f64 * record_bytes;

    let t_compact = clock.now_ns();
    let (compacted, compact_cpu) = cpu_timed(|| {
        let _s = tracer.span("catalog", "flush+compact");
        cat.flush().and_then(|()| cat.compact())
    });
    compacted?;
    let compact_vns = clock.now_ns() - t_compact;

    let t_reopen = clock.now_ns();
    let (reopened, reopen_cpu) = cpu_timed(|| {
        let _s = tracer.span("catalog", "close+open");
        cat.close()?;
        drop(cat);
        Catalog::open(Arc::clone(&store), clock.clone(), config.clone())
    });
    let cat = reopened?.with_obs(&obs);
    let reopen_vns = clock.now_ns() - t_reopen;
    rep.attempted += 2;
    let delta = phase.finish(&mut rep, &tracer);

    // ---- correctness: the recovered catalog equals the driver's model ------
    rep.check(wrong == 0, || format!("{wrong} lookups or deletes disagreed with the model"));
    rep.check(cat.len() == model.len(), || {
        format!("after reopen len() = {}, model holds {}", cat.len(), model.len())
    });
    let mut sample_rng = Rng::new(seed, "catalog-sample");
    let mut deleted: Vec<u64> = model.deleted.iter().copied().collect();
    deleted.sort_unstable();
    let mut stale = 0u64;
    for i in 0..sz.sample {
        // Every tenth probe is an acknowledged delete: it must stay deleted.
        let id = match deleted.get((i / 10) as usize) {
            Some(&id) if i % 10 == 0 => id,
            _ => model.written_id(&mut sample_rng) + sample_rng.below(2),
        };
        stale += (cat.get(id) != model.expect(id)) as u64;
    }
    rep.check(stale == 0, || format!("{stale} of {} sampled ids differ from the model", sz.sample));
    rep.failed = wrong + stale + (cat.len() != model.len()) as u64;

    // ---- accounting ---------------------------------------------------------
    let listing = store.list(&format!("{}/", config.prefix))?;
    rep.stored_bytes = listing.iter().map(|m| m.size).sum();
    rep.user_stored_bytes = (model.len() as f64 * record_bytes) as u64;
    rep.wan_bytes = delta.c("wan.bytes_up") + delta.c("wan.bytes_down");
    rep.user_moved_bytes = user_bytes as u64;

    let l = &mut rep.layers;
    delta.fill_store_layers(l, "", rep.virtual_ns);
    fill_catalog_counters(l, &delta, "");
    l.set(
        "catalog.write_amp",
        ratio(delta.f("wan.bytes_up"), (sz.batches * BATCH) as f64 * record_bytes),
    );
    l.set("catalog.compact_vns", compact_vns as f64);
    l.set("catalog.reopen_vns", reopen_vns as f64);
    l.set("catalog.ingest_cpu_s", ingest_cpu);
    l.set("catalog.get_cpu_us", get_cpu * 1e6 / sz.gets as f64);
    l.set("catalog.scan_cpu_ms", scan_cpu * 1e3 / sz.scans as f64);
    l.set("catalog.compact_cpu_s", compact_cpu);
    l.set("catalog.reopen_cpu_s", reopen_cpu);

    let (flushes, compactions) = (l.get("catalog.flushes"), l.get("catalog.compactions"));
    rep.check(flushes >= 3.0 && compactions >= 1.0, || {
        format!("isolation: want >= 3 flushes and >= 1 compaction, saw {flushes} and {compactions}")
    });
    rep.require_zero(&[
        "sched.submitted",
        "tier.lookups",
        "retry.retries",
        "integrity.rejected",
        "fault.injected",
        "session.frames",
        "dashboard.pixels_rendered",
        "idx.blocks_written",
        "idx.queries",
        "workflow.tasks_executed",
        "somospie.pixels",
    ]);
    Ok(rep)
}
