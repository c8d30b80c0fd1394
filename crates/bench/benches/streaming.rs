//! Concurrent streaming: the parallel block fetch/decode pipeline against
//! the simulated WAN profiles of §III (public Dataverse commons, private
//! Seal cloud). Sweeps fetch concurrency {1, 2, 4, 8} on cold and warm
//! caches, plus the O(blocks) query-planner speedup over the O(samples)
//! sample walk. Emits `BENCH_streaming.json` at the repo root; numbers are
//! quoted in EXPERIMENTS.md ("concurrent streaming").
//!
//! Latency over the WAN is *virtual* time charged to the shared
//! [`SimClock`], so the run is deterministic and machine-independent;
//! decode cost is real CPU time and reported separately.

use nsdf_compress::Codec;
use nsdf_hz::HzCurve;
use nsdf_idx::{Field, IdxDataset, IdxMeta};
use nsdf_storage::{CloudStore, MemoryStore, NetworkProfile, ObjectStore, TierCache};
use nsdf_util::{Box2i, DType, Obs, Raster, SimClock};
use std::sync::Arc;
use std::time::Instant;

/// 256x256 f32 at 2^10 samples/block = 64 blocks at full resolution.
const SIZE: usize = 256;
const BITS_PER_BLOCK: u32 = 10;
const CONCURRENCIES: [usize; 4] = [1, 2, 4, 8];

struct Record {
    profile: String,
    concurrency: usize,
    cache: &'static str,
    blocks: u64,
    fetch_batches: u64,
    bytes_fetched: u64,
    virtual_secs: f64,
    real_decode_secs: f64,
}

impl Record {
    fn to_json(&self) -> String {
        let blocks_per_vsec =
            if self.virtual_secs > 0.0 { self.blocks as f64 / self.virtual_secs } else { 0.0 };
        format!(
            "{{\"profile\":\"{}\",\"concurrency\":{},\"cache\":\"{}\",\"blocks\":{},\
             \"fetch_batches\":{},\"bytes_fetched\":{},\"virtual_secs\":{:.6},\
             \"blocks_per_virtual_sec\":{:.1},\"real_decode_secs\":{:.6}}}",
            self.profile,
            self.concurrency,
            self.cache,
            self.blocks,
            self.fetch_batches,
            self.bytes_fetched,
            self.virtual_secs,
            blocks_per_vsec,
            self.real_decode_secs,
        )
    }
}

/// Seed a dataset into a plain memory store (writes are not part of the
/// measurement, so they bypass the WAN wrapper).
fn seed_store() -> Arc<MemoryStore> {
    let mem = Arc::new(MemoryStore::new());
    let meta = IdxMeta::new_2d(
        "stream",
        SIZE as u64,
        SIZE as u64,
        vec![Field::new("v", DType::F32).expect("valid field")],
        BITS_PER_BLOCK,
        Codec::Raw,
    )
    .expect("valid meta");
    let ds = IdxDataset::create(mem.clone() as Arc<dyn ObjectStore>, "stream", meta)
        .expect("create dataset");
    let data = Raster::from_fn(SIZE, SIZE, |x, y| (y * SIZE + x) as f32);
    ds.write_raster("v", 0, &data).expect("write raster");
    mem
}

fn run_case(
    mem: &Arc<MemoryStore>,
    profile: NetworkProfile,
    concurrency: usize,
    warm: bool,
) -> Record {
    let profile_name = profile.name.clone();
    let clock = SimClock::new();
    let cloud: Arc<dyn ObjectStore> =
        Arc::new(CloudStore::new(mem.clone() as Arc<dyn ObjectStore>, profile, clock.clone(), 42));
    let store: Arc<dyn ObjectStore> =
        if warm { Arc::new(TierCache::new(cloud, 64 << 20)) } else { cloud };
    let ds = IdxDataset::open(store.clone(), "stream")
        .expect("open dataset")
        .with_fetch_concurrency(concurrency);
    let region = ds.bounds();
    let level = ds.max_level();
    let ds = if warm {
        // Prime the block cache through a separate dataset handle, then
        // measure through a fresh one: its decoded cache starts empty, so
        // the read still exercises fetch + decode, but every GET hits the
        // warm object cache instead of the WAN.
        ds.read_box::<f32>("v", 0, region, level).expect("priming read");
        IdxDataset::open(store, "stream").expect("reopen").with_fetch_concurrency(concurrency)
    } else {
        ds
    };
    let v0 = clock.now_secs();
    let t0 = Instant::now();
    let (_, stats) = ds.read_box::<f32>("v", 0, region, level).expect("read box");
    let _real = t0.elapsed();
    Record {
        profile: profile_name,
        concurrency,
        cache: if warm { "warm" } else { "cold" },
        blocks: stats.blocks_touched,
        fetch_batches: stats.fetch_batches,
        bytes_fetched: stats.bytes_fetched,
        virtual_secs: clock.now_secs() - v0,
        real_decode_secs: stats.decode_secs,
    }
}

/// Time the legacy O(samples) planner (per-level sample walk, as shipped
/// before `HzCurve::blocks_in_region`) against the O(blocks) descent.
fn planner_comparison() -> String {
    let curve = HzCurve::for_dims_2d(2048, 2048).expect("curve");
    let block_samples = 1u64 << 12;
    let region = Box2i::new(300, 200, 1324, 1224);
    let level = curve.max_level();

    let t0 = Instant::now();
    let mut walk_blocks = std::collections::BTreeSet::new();
    for l in 0..=level {
        for (_, hz) in curve.level_samples_in_box(l, region).expect("walk") {
            walk_blocks.insert(hz / block_samples);
        }
    }
    let walk_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let span_blocks = curve.blocks_in_region(region, level, block_samples).expect("spans");
    let span_secs = t1.elapsed().as_secs_f64();

    assert_eq!(walk_blocks.into_iter().collect::<Vec<_>>(), span_blocks, "planners disagree");
    let speedup = if span_secs > 0.0 { walk_secs / span_secs } else { 0.0 };
    println!(
        "planner 1024x1024 window on 2048x2048: sample walk {:.1} ms, hz spans {:.3} ms ({speedup:.0}x)",
        walk_secs * 1e3,
        span_secs * 1e3
    );
    format!(
        "{{\"grid\":2048,\"window\":1024,\"blocks\":{},\"sample_walk_secs\":{walk_secs:.6},\
         \"hz_span_secs\":{span_secs:.6},\"speedup\":{speedup:.1}}}",
        span_blocks.len()
    )
}

/// Instrumented cold+warm progressive read over the private-seal profile.
/// Everything in the artifact is virtual-clock or counter state, so two
/// runs of the bench emit byte-identical files — CI diffs them.
fn metrics_artifact(mem: &Arc<MemoryStore>) -> String {
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let seal = obs.scoped("seal");
    let cloud = CloudStore::new(
        mem.clone() as Arc<dyn ObjectStore>,
        NetworkProfile::private_seal(),
        clock.clone(),
        42,
    )
    .with_obs(&seal);
    let cached = Arc::new(TierCache::new(Arc::new(cloud), 64 << 20).with_obs(&seal));
    let ds = IdxDataset::open(cached, "stream").expect("open dataset").with_obs(&seal);
    // Metadata fetch above is part of setup, not the measured reads.
    obs.reset();
    obs.clear_spans();

    let region = ds.bounds();
    let max = ds.max_level();
    ds.read_progressive::<f32>("v", 0, region, max - 3, max).expect("cold progressive");
    ds.read_progressive::<f32>("v", 0, region, max - 3, max).expect("warm progressive");
    println!("metrics artifact: {} virtual secs end to end", clock.now_secs());
    format!(
        "{{\n  \"bench\": \"streaming-metrics\",\n  \"profile\": \"private-seal\",\n  \
         \"seed\": 42,\n  \"metrics\": {},\n  \"spans\": {}\n}}\n",
        obs.snapshot().to_json(),
        obs.spans_json()
    )
}

fn main() {
    // `cargo bench` passes harness flags; this target ignores them.
    let mem = seed_store();
    let mut records = Vec::new();
    for profile in [NetworkProfile::public_dataverse, NetworkProfile::private_seal] {
        for warm in [false, true] {
            for conc in CONCURRENCIES {
                let rec = run_case(&mem, profile(), conc, warm);
                println!(
                    "{:<17} {:>4} conc={} blocks={} batches={} virtual={:.3}s decode={:.4}s",
                    rec.profile,
                    rec.cache,
                    rec.concurrency,
                    rec.blocks,
                    rec.fetch_batches,
                    rec.virtual_secs,
                    rec.real_decode_secs,
                );
                records.push(rec);
            }
        }
    }

    let find = |profile: &str, conc: usize| {
        records
            .iter()
            .find(|r| r.profile == profile && r.concurrency == conc && r.cache == "cold")
            .expect("case present")
    };
    let seq = find("private-seal", 1).virtual_secs;
    let par = find("private-seal", 8).virtual_secs;
    let ratio = par / seq;
    let pass = ratio < 0.5;
    println!(
        "acceptance: private-seal cold conc=8 is {ratio:.3}x sequential virtual time ({})",
        if pass { "PASS: < 0.5x" } else { "FAIL: >= 0.5x" }
    );

    let planner = planner_comparison();
    let body = records.iter().map(Record::to_json).collect::<Vec<_>>().join(",\n    ");
    let json = format!(
        "{{\n  \"bench\": \"streaming\",\n  \"dataset\": {{\"dims\": [{SIZE}, {SIZE}], \
         \"dtype\": \"f32\", \"bits_per_block\": {BITS_PER_BLOCK}}},\n  \"records\": [\n    \
         {body}\n  ],\n  \"acceptance\": {{\"profile\": \"private-seal\", \
         \"parallel_over_sequential_virtual\": {ratio:.4}, \"threshold\": 0.5, \"pass\": {pass}}},\n  \
         \"planner\": {planner}\n}}\n"
    );
    nsdf_bench::write_artifact("BENCH_streaming.json", &json);

    let metrics = metrics_artifact(&mem);
    nsdf_bench::write_artifact("BENCH_streaming_metrics.json", &metrics);

    assert!(pass, "parallel fetch must beat 0.5x sequential virtual time");
}
