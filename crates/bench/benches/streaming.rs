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
use nsdf_util::json::JsonValue;
use nsdf_util::{DType, Obs, Raster, SimClock};
use std::sync::Arc;

/// 256x256 f32 at 2^10 samples/block = 64 blocks at full resolution.
const SIZE: usize = 256;
const BITS_PER_BLOCK: u32 = 10;
const CONCURRENCIES: [usize; 4] = [1, 2, 4, 8];

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

/// One measured read: its virtual seconds and its artifact record.
fn run_case(
    mem: &Arc<MemoryStore>,
    profile: NetworkProfile,
    concurrency: usize,
    warm: bool,
) -> (f64, JsonValue) {
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
    let secs = clock.now_secs() - v0;
    let cache = if warm { "warm" } else { "cold" };
    let blocks = stats.blocks_touched;
    println!(
        "{profile_name:<17} {cache:>4} conc={concurrency} blocks={blocks} batches={} \
         virtual={secs:.3}s",
        stats.fetch_batches
    );
    let blocks_per_vsec = if secs > 0.0 { blocks as f64 / secs } else { 0.0 };
    let record = JsonValue::obj([
        ("profile", profile_name.as_str().into()),
        ("concurrency", concurrency.into()),
        ("cache", cache.into()),
        ("blocks", blocks.into()),
        ("fetch_batches", stats.fetch_batches.into()),
        ("bytes_fetched", stats.bytes_fetched.into()),
        ("virtual_secs", JsonValue::fixed(secs, 6)),
        ("blocks_per_virtual_sec", JsonValue::fixed(blocks_per_vsec, 1)),
    ]);
    (secs, record)
}

/// Instrumented cold+warm progressive read over the private-seal profile.
/// Everything in the artifact is virtual-clock or counter state, so two
/// runs of the bench emit byte-identical files — CI diffs them.
fn metrics_artifact(mem: &Arc<MemoryStore>) -> JsonValue {
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
    JsonValue::obj([
        ("bench", "streaming-metrics".into()),
        ("profile", "private-seal".into()),
        ("seed", 42u64.into()),
        ("metrics", obs.snapshot().to_json()),
        ("spans", obs.spans_json()),
    ])
}

fn main() {
    // `cargo bench` passes harness flags; this target ignores them.
    let mem = seed_store();
    let mut records = Vec::new();
    // Cold private-seal virtual seconds, in CONCURRENCIES order.
    let mut seal_cold = Vec::new();
    for profile in [NetworkProfile::public_dataverse, NetworkProfile::private_seal] {
        for warm in [false, true] {
            for conc in CONCURRENCIES {
                let (secs, record) = run_case(&mem, profile(), conc, warm);
                if !warm && profile().name == "private-seal" {
                    seal_cold.push(secs);
                }
                records.push(record);
            }
        }
    }

    let ratio = seal_cold[3] / seal_cold[0]; // concurrency 8 over 1
    let pass = ratio < 0.5;
    println!(
        "acceptance: private-seal cold conc=8 is {ratio:.3}x sequential virtual time ({})",
        if pass { "PASS: < 0.5x" } else { "FAIL: >= 0.5x" }
    );

    let dataset = JsonValue::obj([
        ("dims", [SIZE, SIZE].into_iter().collect()),
        ("dtype", "f32".into()),
        ("bits_per_block", BITS_PER_BLOCK.into()),
    ]);
    let acceptance = JsonValue::obj([
        ("profile", "private-seal".into()),
        ("parallel_over_sequential_virtual", JsonValue::fixed(ratio, 4)),
        ("threshold", 0.5f64.into()),
        ("pass", pass.into()),
    ]);
    let doc = JsonValue::obj([
        ("bench", "streaming".into()),
        ("dataset", dataset),
        ("records", JsonValue::Arr(records)),
        ("acceptance", acceptance),
    ]);
    nsdf_bench::write_artifact("BENCH_streaming.json", &doc);
    nsdf_bench::write_artifact("BENCH_streaming_metrics.json", &metrics_artifact(&mem));

    assert!(pass, "parallel fetch must beat 0.5x sequential virtual time");
}
