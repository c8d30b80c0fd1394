//! Concurrent streaming: the parallel block fetch/decode pipeline against
//! the simulated WAN profiles of §III (public Dataverse commons, private
//! Seal cloud). Sweeps fetch concurrency {1, 2, 4, 8} on cold and warm
//! caches and emits `BENCH_streaming.json` at the repo root, plus the
//! instrumented cold + warm progressive read in
//! `BENCH_streaming_metrics.json`.
//!
//! Latency over the WAN is *virtual* time charged to the shared
//! [`SimClock`], so both artifacts are deterministic and
//! machine-independent; CI runs the bench twice and `cmp`s them. Decode and
//! planning CPU are measured end to end by the `benchmark/` package.

use nsdf_compress::Codec;
use nsdf_idx::{Field, IdxDataset, IdxMeta};
use nsdf_storage::{CloudStore, MemoryStore, NetworkProfile, ObjectStore, TierCache};
use nsdf_util::{DType, Obs, Raster, SimClock};
use std::sync::Arc;

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
}

impl Record {
    fn to_json(&self) -> String {
        let blocks_per_vsec =
            if self.virtual_secs > 0.0 { self.blocks as f64 / self.virtual_secs } else { 0.0 };
        format!(
            "{{\"profile\":\"{}\",\"concurrency\":{},\"cache\":\"{}\",\"blocks\":{},\
             \"fetch_batches\":{},\"bytes_fetched\":{},\"virtual_secs\":{:.6},\
             \"blocks_per_virtual_sec\":{:.1}}}",
            self.profile,
            self.concurrency,
            self.cache,
            self.blocks,
            self.fetch_batches,
            self.bytes_fetched,
            self.virtual_secs,
            blocks_per_vsec,
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
    let (_, stats) = ds.read_box::<f32>("v", 0, region, level).expect("read box");
    Record {
        profile: profile_name,
        concurrency,
        cache: if warm { "warm" } else { "cold" },
        blocks: stats.blocks_touched,
        fetch_batches: stats.fetch_batches,
        bytes_fetched: stats.bytes_fetched,
        virtual_secs: clock.now_secs() - v0,
    }
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
                    "{:<17} {:>4} conc={} blocks={} batches={} virtual={:.3}s",
                    rec.profile,
                    rec.cache,
                    rec.concurrency,
                    rec.blocks,
                    rec.fetch_batches,
                    rec.virtual_secs,
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

    let body = records.iter().map(Record::to_json).collect::<Vec<_>>().join(",\n    ");
    let json = format!(
        "{{\n  \"bench\": \"streaming\",\n  \"dataset\": {{\"dims\": [{SIZE}, {SIZE}], \
         \"dtype\": \"f32\", \"bits_per_block\": {BITS_PER_BLOCK}}},\n  \"records\": [\n    \
         {body}\n  ],\n  \"acceptance\": {{\"profile\": \"private-seal\", \
         \"parallel_over_sequential_virtual\": {ratio:.4}, \"threshold\": 0.5, \"pass\": {pass}}}\n}}\n"
    );
    nsdf_bench::write_artifact("BENCH_streaming.json", &json);

    let metrics = metrics_artifact(&mem);
    nsdf_bench::write_artifact("BENCH_streaming_metrics.json", &metrics);

    assert!(pass, "parallel fetch must beat 0.5x sequential virtual time");
}
