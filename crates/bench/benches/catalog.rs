//! NSDF-Catalog at scale: the LSM engine under seeded synthetic load.
//!
//! Two phases, both fully deterministic (virtual clock + counters only —
//! wall-clock numbers go to stdout, never into the artifact, so two runs
//! with the same seed produce a byte-identical `BENCH_catalog.json` and
//! CI byte-compares them):
//!
//! 1. **Sweep** — bulk-load 200 k records through the WAN simulator for
//!    each shard count × profile, then drive a mixed point/prefix/update/
//!    delete workload through flush + forced compaction. Reports virtual
//!    load throughput, bloom hit/fp/skip, read amplification, exact
//!    checksum-dedup accounting, resident bytes before/after compaction,
//!    and the WAN waves the load and the forced compaction cost — which
//!    must not grow with the shard count (asserted here).
//! 2. **Bulk** — load ten million records (the paper's 1.59 B catalog at
//!    ~1/159 scale) and measure the bloom false-positive rate over 100 k
//!    interior misses. Acceptance: FPR ≤ 2 %, asserted here.

use nsdf_catalog::{Catalog, CatalogConfig, Record};
use nsdf_storage::{CloudStore, MemoryStore, NetworkProfile};
use nsdf_util::json::JsonValue;
use nsdf_util::{splitmix64, Counter, Obs, SimClock};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 77;
const SWEEP_N: u64 = 200_000;
const SWEEP_SHARDS: [usize; 3] = [4, 16, 64];
const BULK_N: u64 = 10_000_000;
const BULK_MISS_PROBES: u64 = 100_000;
const BULK_HIT_PROBES: u64 = 50_000;

/// Loaded ids are even (`2i`) so odd ids are misses *interior* to every
/// segment's key range — the hard case for the bloom filters.
fn synth(i: u64, n: u64) -> Record {
    Record::new(
        2 * i,
        format!("d{:03}/o{i:07}", i % 499),
        ["dataverse", "materials-commons", "seal"][(i % 3) as usize],
        1024 + i % 4096,
        splitmix64(i % (n * 4 / 5)), // ~20% duplicate content checksums
    )
    .expect("valid synthetic record")
}

struct Bloomed {
    hit: u64,
    fp: u64,
    skip: u64,
}

impl Bloomed {
    fn mark(obs: &Obs) -> (u64, u64, u64) {
        let snap = obs.snapshot();
        (
            snap.counter("catalog.bloom_hit"),
            snap.counter("catalog.bloom_fp"),
            snap.counter("catalog.bloom_skip"),
        )
    }

    fn delta(obs: &Obs, before: &(u64, u64, u64)) -> Bloomed {
        let snap = obs.snapshot();
        Bloomed {
            hit: snap.counter("catalog.bloom_hit") - before.0,
            fp: snap.counter("catalog.bloom_fp") - before.1,
            skip: snap.counter("catalog.bloom_skip") - before.2,
        }
    }

    fn probes(&self) -> u64 {
        self.hit + self.fp + self.skip
    }

    /// False-positive rate among probes the filter had to rule on
    /// (admitted-and-missed over admitted-and-missed + skipped).
    fn fpr(&self) -> f64 {
        self.fp as f64 / (self.fp + self.skip).max(1) as f64
    }
}

impl From<&Bloomed> for JsonValue {
    fn from(b: &Bloomed) -> JsonValue {
        JsonValue::obj([
            ("hit", b.hit.into()),
            ("fp", b.fp.into()),
            ("skip", b.skip.into()),
            ("fpr", JsonValue::fixed(b.fpr(), 6)),
        ])
    }
}

fn resident_bytes(cat: &Catalog) -> u64 {
    cat.layout().iter().flatten().flatten().map(|s| s.bytes).sum()
}

fn segment_count(cat: &Catalog) -> u64 {
    cat.layout().iter().flatten().flatten().count() as u64
}

/// The catalog, its registry, the clock, and the WAN's wave counter.
fn open_catalog(profile: NetworkProfile, shards: usize) -> (Catalog, Obs, SimClock, Counter) {
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let wan = CloudStore::new(Arc::new(MemoryStore::new()), profile, clock.clone(), SEED);
    let waves = wan.obs().counter("waves");
    let cat = Catalog::open(Arc::new(wan), clock.clone(), CatalogConfig::new(shards))
        .expect("open catalog")
        .with_obs(&obs);
    (cat, obs, clock, waves)
}

/// One sweep row and its `(load, compact)` wave counts.
fn sweep_case(profile: NetworkProfile, shards: usize) -> (JsonValue, [u64; 2]) {
    let profile_name = profile.name.clone();
    let (cat, obs, clock, waves) = open_catalog(profile, shards);
    let wall = Instant::now();
    let live = cat.bulk_load((0..SWEEP_N).map(|i| synth(i, SWEEP_N))).expect("bulk load");
    assert_eq!(live, SWEEP_N);
    let load_vsecs = clock.now_ns() as f64 / 1e9;
    let load_waves = waves.get();
    let seg_bytes_initial = obs.snapshot().counter("catalog.segment_bytes_written");
    let pre_bytes = resident_bytes(&cat);

    // Point workload: 20k present + 20k interior misses, batched.
    let mark = Bloomed::mark(&obs);
    let gets_before = obs.snapshot().counter("catalog.gets");
    let present: Vec<u64> = (0..20_000).map(|k| 2 * (splitmix64(SEED ^ k) % SWEEP_N)).collect();
    let absent: Vec<u64> =
        (0..20_000).map(|k| 2 * (splitmix64(SEED ^ (k + 1_000_000)) % SWEEP_N) + 1).collect();
    for (i, r) in cat.get_many(&present).into_iter().enumerate() {
        assert!(r.is_some(), "present id {} must resolve", present[i]);
    }
    assert!(cat.get_many(&absent).iter().all(Option::is_none), "odd ids are never loaded");
    let bloom = Bloomed::delta(&obs, &mark);
    let gets = obs.snapshot().counter("catalog.gets") - gets_before;
    let read_amp = bloom.probes() as f64 / gets.max(1) as f64;

    // Prefix scan stays correct on the merged view.
    let hits = cat.find_by_prefix("d042/");
    assert!(!hits.is_empty() && hits.windows(2).all(|w| w[0].id < w[1].id));

    // Mixed update/delete wave: 10k identical re-ingests (dedup on merge),
    // 10k content changes (overwrites), 2.5k deletes — then force a full
    // merge and check the checksum-dedup accounting to the record.
    cat.ingest((0..20_000u64).map(|i| {
        let base = synth(i, SWEEP_N);
        if i % 2 == 0 {
            base // byte-identical re-ingest of the same object
        } else {
            Record::new(base.id, base.name, base.source, base.size, base.checksum ^ 0xFACE)
                .expect("valid")
        }
    }))
    .expect("update wave");
    for i in 100_000..102_500u64 {
        assert!(cat.delete(2 * i).expect("delete"), "id {} was loaded", 2 * i);
    }
    cat.flush().expect("flush");
    let (compact_mark_vns, compact_mark_waves) = (clock.now_ns(), waves.get());
    cat.compact().expect("forced compaction");
    let compact_vsecs = (clock.now_ns() - compact_mark_vns) as f64 / 1e9;
    let compact_waves = waves.get() - compact_mark_waves;
    let snap = obs.snapshot();
    assert_eq!(snap.counter("catalog.dedup_records"), 10_000, "identical re-ingests dedup");
    assert_eq!(
        snap.counter("catalog.overwritten_records"),
        12_500,
        "10k content changes + 2.5k puts shadowed by tombstones"
    );
    assert_eq!(snap.counter("catalog.tombstones_dropped"), 2_500);
    assert_eq!(cat.len(), SWEEP_N - 2_500);
    let post_bytes = resident_bytes(&cat);
    let seg_bytes_total = snap.counter("catalog.segment_bytes_written");
    let write_amp = seg_bytes_total as f64 / seg_bytes_initial.max(1) as f64;

    println!(
        "{profile_name:<18} shards={shards:<3} load {load_vsecs:>7.2} vs ({:>7.1} krec/vs)  \
         fpr={:.4} read_amp={read_amp:.3} write_amp={write_amp:.2} compact {compact_vsecs:.2} vs  \
         waves {load_waves}/{compact_waves}  [{:.1}s wall]",
        SWEEP_N as f64 / 1e3 / load_vsecs,
        bloom.fpr(),
        wall.elapsed().as_secs_f64(),
    );
    let row = JsonValue::obj([
        ("profile", profile_name.as_str().into()),
        ("shards", shards.into()),
        ("n", SWEEP_N.into()),
        ("load_vsecs", JsonValue::fixed(load_vsecs, 6)),
        ("load_krec_per_vsec", JsonValue::fixed(SWEEP_N as f64 / 1e3 / load_vsecs, 4)),
        ("load_waves", load_waves.into()),
        ("bloom", (&bloom).into()),
        ("read_amp_point", JsonValue::fixed(read_amp, 4)),
        ("prefix_hits", hits.len().into()),
        ("dedup_records", snap.counter("catalog.dedup_records").into()),
        ("overwritten_records", snap.counter("catalog.overwritten_records").into()),
        ("tombstones_dropped", snap.counter("catalog.tombstones_dropped").into()),
        ("compactions", snap.counter("catalog.compactions").into()),
        ("compact_vsecs", JsonValue::fixed(compact_vsecs, 6)),
        ("compact_waves", compact_waves.into()),
        ("write_amp", JsonValue::fixed(write_amp, 4)),
        ("resident_bytes_pre_compact", pre_bytes.into()),
        ("resident_bytes_post_compact", post_bytes.into()),
        ("live", cat.len().into()),
    ]);
    (row, [load_waves, compact_waves])
}

fn bulk_case() -> JsonValue {
    let profile = NetworkProfile::public_dataverse();
    let profile_name = profile.name.clone();
    let shards = 64usize;
    let (cat, obs, clock, _) = open_catalog(profile, shards);
    let wall = Instant::now();
    let live = cat.bulk_load((0..BULK_N).map(|i| synth(i, BULK_N))).expect("bulk load 10M");
    assert_eq!(live, BULK_N);
    let load_vsecs = clock.now_ns() as f64 / 1e9;
    let load_wall = wall.elapsed().as_secs_f64();

    // Present probes must all resolve, and end in a true bloom hit.
    let mark = Bloomed::mark(&obs);
    for k in 0..BULK_HIT_PROBES {
        let id = 2 * (splitmix64(SEED ^ (0xA000_0000 + k)) % BULK_N);
        assert!(cat.get(id).is_some(), "present id {id} must resolve");
    }
    let hit_bloom = Bloomed::delta(&obs, &mark);
    assert_eq!(hit_bloom.hit, BULK_HIT_PROBES, "every present probe ends in a bloom hit");

    // Interior misses: the acceptance measurement. The filter rules on
    // every covering-segment probe; at most 2% may be falsely admitted.
    let mark = Bloomed::mark(&obs);
    for k in 0..BULK_MISS_PROBES {
        let id = 2 * (splitmix64(SEED ^ (0xB000_0000 + k)) % BULK_N) + 1;
        assert!(cat.get(id).is_none(), "odd id {id} was never loaded");
    }
    let miss_bloom = Bloomed::delta(&obs, &mark);
    let fpr = miss_bloom.fpr();
    let read_amp_miss = miss_bloom.probes() as f64 / BULK_MISS_PROBES as f64;
    println!(
        "{profile_name:<18} shards={shards:<3} bulk-load {BULK_N} records: {load_vsecs:.2} vs \
         ({:.1} krec/vs) [{load_wall:.1}s wall]  fpr={fpr:.5} read_amp_miss={read_amp_miss:.3} \
         resident={} MB in {} segments",
        BULK_N as f64 / 1e3 / load_vsecs,
        resident_bytes(&cat) / (1 << 20),
        segment_count(&cat),
    );
    assert!(
        fpr <= 0.02,
        "acceptance: bloom FPR {fpr:.5} over 2% on {BULK_MISS_PROBES} interior misses"
    );
    JsonValue::obj([
        ("profile", profile_name.as_str().into()),
        ("shards", shards.into()),
        ("n", BULK_N.into()),
        ("load_vsecs", JsonValue::fixed(load_vsecs, 6)),
        ("load_krec_per_vsec", JsonValue::fixed(BULK_N as f64 / 1e3 / load_vsecs, 4)),
        ("live", live.into()),
        ("resident_bytes", resident_bytes(&cat).into()),
        ("segments", segment_count(&cat).into()),
        ("hit_probes", BULK_HIT_PROBES.into()),
        ("miss_probes", BULK_MISS_PROBES.into()),
        ("bloom_miss", (&miss_bloom).into()),
        ("fpr", JsonValue::fixed(fpr, 6)),
        ("read_amp_miss", JsonValue::fixed(read_amp_miss, 4)),
    ])
}

fn main() {
    let mut sweep = Vec::new();
    for profile in [NetworkProfile::public_dataverse, NetworkProfile::private_seal] {
        let mut waves = Vec::new();
        for &shards in &SWEEP_SHARDS {
            let (row, w) = sweep_case(profile(), shards);
            sweep.push(row);
            waves.push(w);
        }
        // Shards share segment waves and garbage leaves in one wave per
        // manifest, so the wave count is a function of the bytes written,
        // not of how many shards they are spread over.
        let (few, many) = (waves[0], waves[waves.len() - 1]);
        for (phase, name) in ["load", "compact"].iter().enumerate() {
            assert!(
                many[phase] <= few[phase] + 2,
                "acceptance: {name} took {} waves at the most shards vs {} at the fewest",
                many[phase],
                few[phase],
            );
        }
    }
    let bulk = bulk_case();
    let workload = JsonValue::obj([
        ("sweep_n", SWEEP_N.into()),
        ("shards", SWEEP_SHARDS.into_iter().collect()),
        ("bulk_n", BULK_N.into()),
    ]);
    let doc = JsonValue::obj([
        ("bench", "catalog".into()),
        ("seed", SEED.into()),
        ("workload", workload),
        ("sweep", JsonValue::Arr(sweep)),
        ("bulk", bulk),
        ("acceptance", JsonValue::obj([("bloom_fpr_max", 0.02f64.into())])),
    ]);
    nsdf_bench::write_artifact("BENCH_catalog.json", &doc);
}
