//! Model-based differential test for the catalog LSM engine: a seeded
//! random operation trace (upsert / delete / point get / prefix and
//! source queries / stats) runs against the real engine — small budgets,
//! so flushes and compactions fire constantly mid-trace — and against a
//! plain `BTreeMap` oracle. Every query must agree bitwise, the final
//! scans must be identical across shard counts and WAN profiles, and the
//! state must survive forced compaction and close→reopen recovery. A
//! second trace renames an id at every version, so prefix queries meet
//! matches their newest version shadows. Two
//! wave-shape regressions pin how many WAN waves a checkpoint's garbage
//! collection and a many-shard load + compaction may cost.

use nsdf::catalog::{Catalog, CatalogConfig, CatalogStats, Record};
use nsdf::storage::{CloudStore, MemoryStore, NetworkProfile, ObjectStore};
use nsdf::util::{splitmix64, SimClock};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const SEED: u64 = 0xD1FF;
const ID_SPACE: u64 = 1_500;
const OPS: usize = 4_000;
const SHARD_COUNTS: [usize; 3] = [1, 7, 64];
const SOURCES: [&str; 3] = ["dataverse", "materials-commons", "seal"];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }
}

/// Version `v` of record `id`; low-entropy checksums force dedup paths.
fn synth(id: u64, v: u64) -> Record {
    Record::new(
        id,
        format!("p{:02}/obj-{id:05}", id % 37),
        SOURCES[(v % 3) as usize],
        512 + splitmix64(id ^ (v << 32)) % 8192,
        splitmix64(id.wrapping_mul(31).wrapping_add(v) % 400),
    )
    .expect("valid synthetic record")
}

/// [`synth`] under a name that moves with the version, so an older version
/// can match a prefix its id's newest version does not.
fn synth_moving(id: u64, v: u64) -> Record {
    Record { name: format!("p{:02}/obj-{id:05}", (id + v) % 37), ..synth(id, v) }
}

#[derive(Clone)]
enum Op {
    Upsert(Record),
    Delete(u64),
    Get(u64),
    Prefix(String),
    Source(&'static str),
    Stats,
}

fn trace(seed: u64, ops: usize) -> Vec<Op> {
    trace_of(seed, ops, synth)
}

/// [`trace`] with upserts of `make(id, version)`.
fn trace_of(seed: u64, ops: usize, make: fn(u64, u64) -> Record) -> Vec<Op> {
    let mut rng = Rng(seed);
    (0..ops)
        .map(|_| {
            let roll = rng.next() % 100;
            let id = rng.next() % ID_SPACE;
            match roll {
                0..=49 => Op::Upsert(make(id, rng.next() % 8)),
                50..=64 => Op::Delete(id),
                65..=84 => Op::Get(id),
                85..=92 => Op::Prefix(format!("p{:02}/", rng.next() % 37)),
                93..=96 => Op::Source(SOURCES[(rng.next() % 3) as usize]),
                _ => Op::Stats,
            }
        })
        .collect()
}

type Oracle = BTreeMap<u64, Record>;

fn oracle_scan(o: &Oracle) -> Vec<Record> {
    o.values().cloned().collect()
}

fn oracle_stats(o: &Oracle) -> CatalogStats {
    let mut stats = CatalogStats::default();
    let mut checksums: HashMap<u64, u64> = HashMap::new();
    for r in o.values() {
        stats.records += 1;
        stats.total_bytes += r.size;
        *stats.per_source.entry(r.source.clone()).or_insert(0) += 1;
        *checksums.entry(r.checksum).or_insert(0) += 1;
    }
    stats.duplicate_checksums = checksums.values().filter(|&&n| n > 1).count() as u64;
    stats
}

fn assert_state_eq(cat: &Catalog, oracle: &Oracle, ctx: &str) {
    assert_eq!(cat.len(), oracle.len() as u64, "{ctx}: live count");
    assert_eq!(cat.scan_all(), oracle_scan(oracle), "{ctx}: full scan");
    assert_eq!(cat.stats(), oracle_stats(oracle), "{ctx}: stats");
}

/// Tiny budgets: ~4k-op traces cross every flush/compaction boundary.
fn small_cfg(shards: usize) -> CatalogConfig {
    CatalogConfig {
        memtable_budget_bytes: 4_000,
        level_base_bytes: 8_000,
        segment_target_bytes: 2_000,
        l0_compact_trigger: 3,
        wal_batch_ops: 16,
        ..CatalogConfig::new(shards)
    }
}

fn wan_store(profile: NetworkProfile, clock: &SimClock) -> Arc<dyn ObjectStore> {
    Arc::new(CloudStore::new(Arc::new(MemoryStore::new()), profile, clock.clone(), SEED))
}

/// Apply `ops` to engine and oracle in lockstep, checking every query.
fn run_trace(cat: &Catalog, oracle: &mut Oracle, ops: &[Op], ctx: &str) {
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Upsert(r) => {
                let fresh = cat.upsert(r.clone()).expect("upsert");
                assert_eq!(fresh, oracle.insert(r.id, r.clone()).is_none(), "{ctx} step {step}");
            }
            Op::Delete(id) => {
                let existed = cat.delete(*id).expect("delete");
                assert_eq!(existed, oracle.remove(id).is_some(), "{ctx} step {step}: delete {id}");
            }
            Op::Get(id) => {
                assert_eq!(cat.get(*id), oracle.get(id).cloned(), "{ctx} step {step}: get {id}");
            }
            Op::Prefix(p) => {
                let want: Vec<Record> =
                    oracle.values().filter(|r| r.name.starts_with(p)).cloned().collect();
                assert_eq!(cat.find_by_prefix(p), want, "{ctx} step {step}: prefix {p}");
            }
            Op::Source(s) => {
                let want: Vec<Record> =
                    oracle.values().filter(|r| r.source == *s).cloned().collect();
                assert_eq!(cat.find_by_source(s), want, "{ctx} step {step}: source {s}");
            }
            Op::Stats => {
                assert_eq!(cat.stats(), oracle_stats(oracle), "{ctx} step {step}: stats");
            }
        }
    }
}

#[test]
fn differential_trace_matches_oracle_across_shards_and_profiles() {
    let ops = trace(SEED, OPS);
    let mut finals: Vec<Vec<Record>> = Vec::new();
    for profile in [NetworkProfile::public_dataverse, NetworkProfile::private_seal] {
        for shards in SHARD_COUNTS {
            let ctx = format!("{} shards={shards}", profile().name);
            let clock = SimClock::new();
            let cat = Catalog::open(wan_store(profile(), &clock), clock.clone(), small_cfg(shards))
                .expect("open");
            let mut oracle = Oracle::new();
            run_trace(&cat, &mut oracle, &ops, &ctx);
            assert_state_eq(&cat, &oracle, &format!("{ctx} post-trace"));
            cat.compact().expect("forced compaction");
            assert_state_eq(&cat, &oracle, &format!("{ctx} post-compact"));
            finals.push(cat.scan_all());
        }
    }
    // One trace, six engines: every shard count × profile lands on the
    // exact same record set, bit for bit.
    for (i, f) in finals.iter().enumerate().skip(1) {
        assert_eq!(f, &finals[0], "engine {i} diverged from engine 0");
    }
}

#[test]
fn shadowed_name_matches_stay_hidden_across_shards() {
    // Every version of an id has its own name, so older versions in L0 and
    // deeper levels keep matching prefixes their newest version left.
    let ops = trace_of(SEED ^ 0x5AD0, OPS, synth_moving);
    let sweep: Vec<Op> = (0..37).map(|p| Op::Prefix(format!("p{p:02}/"))).collect();
    for shards in SHARD_COUNTS {
        let ctx = format!("moving names shards={shards}");
        let clock = SimClock::new();
        let store = wan_store(NetworkProfile::private_seal(), &clock);
        let cat = Catalog::open(store, clock.clone(), small_cfg(shards)).expect("open");
        let mut oracle = Oracle::new();
        run_trace(&cat, &mut oracle, &ops, &ctx);
        run_trace(&cat, &mut oracle, &sweep, &format!("{ctx} sweep"));
        assert_state_eq(&cat, &oracle, &format!("{ctx} post-trace"));
    }
}

#[test]
fn close_reopen_recovers_exact_state() {
    let ops = trace(SEED ^ 0xC105E, OPS);
    for shards in SHARD_COUNTS {
        let ctx = format!("reopen shards={shards}");
        let clock = SimClock::new();
        let store = wan_store(NetworkProfile::private_seal(), &clock);
        let cat = Catalog::open(Arc::clone(&store), clock.clone(), small_cfg(shards))
            .expect("open fresh");
        let mut oracle = Oracle::new();

        // Half the trace, clean shutdown, recover from segments+manifest.
        run_trace(&cat, &mut oracle, &ops[..OPS / 2], &ctx);
        cat.close().expect("close");
        drop(cat);
        let cat = Catalog::open(Arc::clone(&store), clock.clone(), small_cfg(shards))
            .expect("reopen after close");
        assert_state_eq(&cat, &oracle, &format!("{ctx} after clean close"));

        // Rest of the trace, then drop WITHOUT close: the tail lives only
        // in the WAL and recovery must replay it.
        run_trace(&cat, &mut oracle, &ops[OPS / 2..], &ctx);
        drop(cat);
        let cat = Catalog::open(Arc::clone(&store), clock.clone(), small_cfg(shards))
            .expect("reopen after crash-drop");
        assert_state_eq(&cat, &oracle, &format!("{ctx} after WAL replay"));

        // And the recovered engine still mutates + compacts correctly.
        run_trace(&cat, &mut oracle, &ops[..200], &ctx);
        cat.compact().expect("compact recovered engine");
        assert_state_eq(&cat, &oracle, &format!("{ctx} post-recovery compact"));
    }
}

/// `(wan.waves, wan.write_ops)` of a `CloudStore`.
fn wan_marks(wan: &CloudStore) -> (u64, u64) {
    (wan.obs().counter("waves").get(), wan.transfer_log().write_ops)
}

fn segment_count(cat: &Catalog) -> u64 {
    cat.layout().iter().flatten().flatten().count() as u64
}

#[test]
fn checkpoint_retires_its_wal_tail_in_one_delete_wave() {
    const N: u64 = 25;
    let clock = SimClock::new();
    let wan = Arc::new(CloudStore::new(
        Arc::new(MemoryStore::new()),
        NetworkProfile::private_seal(),
        clock.clone(),
        SEED,
    ));
    // Default 8 MiB budget: nothing checkpoints before close().
    let cat = Catalog::open(Arc::clone(&wan) as _, clock, CatalogConfig::new(4)).expect("open");
    for id in 0..N {
        cat.upsert(synth(id, 0)).expect("upsert"); // one WAL object each
    }
    let (waves, write_ops) = wan_marks(&wan);
    cat.close().expect("checkpoint");
    let snap = cat.obs().snapshot();
    let segments = snap.counter("catalog.segments_written");
    assert_eq!(snap.counter("catalog.wal_trimmed"), N);
    // One put_many wave (the L0 segments), the manifest put, and one
    // delete wave carrying all N WAL objects — not N round trips.
    let (waves_after, write_ops_after) = wan_marks(&wan);
    assert_eq!(waves_after - waves, 2, "segment wave + one GC wave");
    assert_eq!(write_ops_after - write_ops, segments + 1 + N);
}

#[test]
fn many_shard_load_and_compaction_share_segment_waves() {
    const RECORDS: u64 = 200_000;
    const SHARDS: usize = 64;
    // (scan, layout, [load waves, compact waves]) for one budget.
    let run = |memtable_budget_bytes: usize| {
        let clock = SimClock::new();
        let wan = Arc::new(CloudStore::new(
            Arc::new(MemoryStore::new()),
            NetworkProfile::private_seal(),
            clock.clone(),
            SEED,
        ));
        let cfg = CatalogConfig { memtable_budget_bytes, ..CatalogConfig::new(SHARDS) };
        let cat = Catalog::open(Arc::clone(&wan) as _, clock, cfg).expect("open");
        let bytes_written = || cat.obs().snapshot().counter("catalog.segment_bytes_written");
        let mut waves = [0u64; 2];
        for (phase, slot) in waves.iter_mut().enumerate() {
            let (waves_before, ops_before) = wan_marks(&wan);
            let (bytes_before, segs_before) = (bytes_written(), segment_count(&cat));
            if phase == 0 {
                cat.bulk_load((0..RECORDS).map(|i| synth(i, i % 8))).expect("bulk load");
            } else {
                cat.compact().expect("forced compaction");
            }
            let (waves_after, ops_after) = wan_marks(&wan);
            *slot = waves_after - waves_before;
            let staged = bytes_written() - bytes_before;
            let put_waves = staged.div_ceil(memtable_budget_bytes as u64) + 1;
            // The load's manifest is the first, so it has nothing to
            // collect; the compaction's retires every replaced segment in
            // one GC wave (manifest 0 stays as the fallback).
            assert!(*slot <= put_waves + phase as u64, "phase {phase}: {slot} waves");
            let written = segment_count(&cat);
            assert_eq!(
                ops_after - ops_before,
                written + 1 + phase as u64 * segs_before,
                "phase {phase}: new segments + manifest + one delete per replaced segment"
            );
        }
        (cat.scan_all(), cat.layout(), waves)
    };
    let (scan, layout, waves) = run(CatalogConfig::new(SHARDS).memtable_budget_bytes);
    let (scan_1, layout_1, waves_1) = run(1); // every wave holds one shard
    println!("64-shard load/compact waves: shared {waves:?}, one shard per wave {waves_1:?}");
    assert_eq!(waves_1, [SHARDS as u64, SHARDS as u64 + 1]);
    assert!(waves[0] < 8 && waves[1] < 8, "waves must not scale with shards: {waves:?}");
    assert_eq!(scan.len(), RECORDS as usize);
    assert_eq!(scan, scan_1, "wave size changed what the catalog holds");
    assert_eq!(layout, layout_1, "wave size changed the resident layout");
    for shard in &layout {
        // Forced compaction: one populated level, sorted, non-overlapping.
        assert_eq!(shard.iter().filter(|l| !l.is_empty()).count(), 1);
        for level in shard {
            assert!(level.windows(2).all(|p| p[0].max_id < p[1].min_id));
        }
    }
}
