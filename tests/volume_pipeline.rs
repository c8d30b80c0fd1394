//! Integration: the volumetric (3-D) path across crates — IDX volumes over
//! WAN-simulated, failure-injected storage, sliced into the 2-D rendering
//! pipeline.

use nsdf::core::EndpointPolicy;
use nsdf::idx::QueryStats;
use nsdf::prelude::*;
use nsdf::storage::{FaultPlan, RetryPolicy};
use nsdf::util::{fnv1a64, samples_to_bytes, Box3i, Volume};
use std::sync::Arc;

/// The whole volume in field `v` at full resolution.
fn read_all(ds: &IdxDataset) -> (Volume<f32>, QueryStats) {
    ds.read_volume("v", 0, ds.extent(), ds.max_level()).unwrap()
}

fn plume(n: usize) -> Volume<f32> {
    Volume::from_fn(n, n, n, |x, y, z| {
        (x as f32 * 0.2).sin() * 5.0 + (y as f32 * 0.15).cos() * 3.0 + z as f32
    })
}

#[test]
fn volume_roundtrip_over_wan_with_cache() {
    let clock = SimClock::new();
    let wan = Arc::new(CloudStore::new(
        Arc::new(MemoryStore::new()),
        NetworkProfile::private_seal(),
        clock.clone(),
        3,
    ));
    let cached = Arc::new(TierCache::new(wan, 32 << 20));
    let data = plume(32);
    let meta = IdxMeta::new(
        "p",
        &[32; 3],
        vec![Field::new("v", DType::F32).unwrap()],
        8,
        Codec::LzssHuff { sample_size: 4 },
    )
    .unwrap();
    let ds = IdxDataset::create(cached.clone() as Arc<dyn ObjectStore>, "v3", meta).unwrap();
    ds.write_volume("v", 0, &data).unwrap();
    cached.clear_ram();

    let t0 = clock.now_secs();
    let (back, _) = read_all(&ds);
    assert_eq!(back.data(), data.data());
    let cold = clock.now_secs() - t0;
    assert!(cold > 0.0);

    let t1 = clock.now_secs();
    read_all(&ds);
    assert_eq!(clock.now_secs(), t1, "warm volume read free");
}

#[test]
fn volume_slices_feed_the_renderer() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let data = plume(24);
    let meta =
        IdxMeta::new("p", &[24; 3], vec![Field::new("v", DType::F32).unwrap()], 6, Codec::Lz4)
            .unwrap();
    let ds = IdxDataset::create(store, "v3", meta).unwrap();
    ds.write_volume("v", 0, &data).unwrap();
    for z in [0i64, 7, 23] {
        let (slice, _) = ds.read_slice_z::<f32>("v", 0, z, ds.max_level()).unwrap();
        assert_eq!(slice.shape(), (24, 24));
        let img = nsdf::dashboard::render(&slice, Colormap::Viridis, RangeMode::Dynamic).unwrap();
        assert_eq!((img.width, img.height), (24, 24));
        // Slice content matches the source volume.
        assert_eq!(slice.get(5, 9), data.get(5, 9, z as usize));
    }
}

#[test]
fn volume_reads_survive_flaky_storage() {
    use nsdf::storage::{FaultPlan, FaultStore, RetryPolicy, RetryStore};
    let clock = SimClock::new();
    let plan = FaultPlan::new(11).with_fault_rate(0.2);
    let flaky =
        Arc::new(FaultStore::new(Arc::new(MemoryStore::new()), plan, clock.clone()).unwrap());
    let retry: Arc<dyn ObjectStore> = Arc::new(
        RetryStore::new(
            flaky,
            RetryPolicy { max_attempts: 10, initial_backoff_secs: 0.01, multiplier: 2.0 },
            clock,
        )
        .unwrap(),
    );
    let data = plume(16);
    let meta =
        IdxMeta::new("p", &[16; 3], vec![Field::new("v", DType::F32).unwrap()], 6, Codec::Raw)
            .unwrap();
    let ds = IdxDataset::create(retry, "v3", meta).unwrap();
    ds.write_volume("v", 0, &data).unwrap();
    let region = Box3i::new(2, 3, 4, 12, 13, 14);
    let (sub, _) = ds.read_volume::<f32>("v", 0, region, ds.max_level()).unwrap();
    assert_eq!(sub.data(), data.window(region).unwrap().data());
}

fn plume_meta(n: u64, bits_per_block: u32, codec: Codec) -> IdxMeta {
    let fields = vec![Field::new("v", DType::F32).unwrap()];
    IdxMeta::new("p", &[n; 3], fields, bits_per_block, codec).unwrap()
}

/// One seeded chaos timeline on `endpoint`: publish a volume through the
/// faulty stack, then a cold slice sweep, a sub-box and a full read, each
/// checked bitwise against a fault-free oracle. Returns everything
/// observable, for the replay comparison.
fn chaos_volume_timeline(endpoint: &str) -> (u64, u64, String) {
    let data = plume(32);
    let oracle =
        IdxDataset::create(Arc::new(MemoryStore::new()), "v3", plume_meta(32, 8, Codec::Lz4))
            .unwrap();
    oracle.write_volume("v", 0, &data).unwrap();

    let plan = FaultPlan::new(31).with_fault_rate(0.20).with_corrupt_rate(0.05);
    // Writes draw faults too; the hardened retry budget keeps a put from
    // exhausting its attempts (see `dag_under_chaos_matches_fault_free_oracle`).
    let policy = EndpointPolicy {
        retry: RetryPolicy { max_attempts: 6, ..RetryPolicy::default() },
        ..EndpointPolicy::default()
    };
    let client = NsdfClient::simulated_chaos(31, &plan, &policy).unwrap();
    let obs = client.obs().scoped(endpoint);
    let vol = Arc::new(
        IdxDataset::create(client.store(endpoint).unwrap(), "v3", plume_meta(32, 8, Codec::Lz4))
            .unwrap()
            .with_obs(&obs)
            .with_fetch_concurrency(4),
    );
    vol.write_volume("v", 0, &data).unwrap();
    // Forget the written-through payloads so every read crosses the WAN.
    client.tiercache(endpoint).unwrap().clear_ram();

    let max = vol.max_level();
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    let mut session = QuerySession::<f32>::new(Arc::clone(&vol), "v").unwrap().with_obs(&obs);
    for (z, level) in [(0, max), (13, max - 2), (14, max), (31, max - 4), (20, max)] {
        session.set_slice(z).unwrap();
        let got = session.frame_at(level).unwrap();
        let (want, _) = oracle.read_slice_z::<f32>("v", 0, z, level).unwrap();
        assert!(!got.cancelled, "no cancel token armed");
        assert_eq!(got.raster.data(), want.data(), "{endpoint}: slice z={z} level {level}");
        fp ^= fnv1a64(&samples_to_bytes(got.raster.data()));
    }
    let region = Box3i::new(3, 5, 7, 29, 23, 30);
    for level in [max - 3, max] {
        let (got, _) = vol.read_volume::<f32>("v", 0, region, level).unwrap();
        let (want, _) = oracle.read_volume::<f32>("v", 0, region, level).unwrap();
        assert_eq!(got.data(), want.data(), "{endpoint}: box level {level}");
        fp ^= fnv1a64(&samples_to_bytes(got.data()));
    }
    let (full, _) = read_all(&vol);
    assert_eq!(full.data(), data.data(), "{endpoint}: full read");

    let snap = client.obs().snapshot();
    let counter = |name: &str| snap.counter(&format!("{endpoint}.{name}"));
    assert!(counter("fault.injected") > 0, "{endpoint}: the plan actually injected faults");
    assert!(counter("fault.corrupted") > 0, "{endpoint}: and corrupted payloads");
    assert!(counter("integrity.rejected") > 0, "{endpoint}: checksums caught the corruption");
    assert!(counter("retry.retries") > 0, "{endpoint}: retries absorbed the failures");
    // The 3-D path runs the shared block pipeline: what the slices decoded
    // the box reads found in the decoded cache.
    assert!(counter("idx.decoded_cache_hits") > 0, "{endpoint}: boxes reuse slice decodes");
    (fp, client.clock().now_ns(), snap.to_json().to_string())
}

#[test]
fn volume_chaos_differential_is_transparent_and_replayable() {
    for endpoint in ["dataverse", "seal"] {
        let (a, b) = (chaos_volume_timeline(endpoint), chaos_volume_timeline(endpoint));
        assert_eq!(a, b, "{endpoint}: identical seeds replay the identical chaos timeline");
    }
}

#[test]
fn volume_overwrite_never_serves_old_decoded_bytes() {
    let obs = Obs::default();
    let vol = IdxDataset::create(Arc::new(MemoryStore::new()), "v3", plume_meta(16, 6, Codec::Lz4))
        .unwrap()
        .with_obs(&obs);
    let first = plume(16);
    let second = Volume::from_fn(16, 16, 16, |x, y, z| first.get(x, y, z) * -2.0 + 1.0);

    vol.write_volume("v", 0, &first).unwrap();
    let (back, cold) = read_all(&vol);
    assert_eq!(back.data(), first.data());
    let (_, warm) = read_all(&vol);
    assert_eq!(warm.decoded_cache_hits, cold.blocks_touched, "decoded payloads stay resident");

    // The overwrite invalidates every resident block it stores, so the
    // re-read decodes the new bytes instead of answering from the cache.
    vol.write_volume("v", 0, &second).unwrap();
    let evicted = obs.snapshot().counter("idx.decoded_evictions.epoch");
    assert_eq!(evicted, cold.blocks_touched - cold.blocks_missing);
    let (back, reread) = read_all(&vol);
    assert_eq!(back.data(), second.data(), "stale decoded bytes served after overwrite");
    assert_eq!(reread.blocks_decoded, evicted);
    let (plane, _) = vol.read_slice_z::<f32>("v", 0, 9, vol.max_level()).unwrap();
    assert_eq!(plane.get(4, 11), second.get(4, 11, 9));
}

/// One slice over the private-seal WAN, abandoned by a virtual-clock
/// deadline `cancel_after` nanoseconds in (when given) and then resumed.
/// Returns `(session blocks_fetched, planned blocks, wan.read_ops, cost vns)`.
fn cancelled_slice(cancel_after: Option<u64>) -> (u64, u64, u64, u64) {
    let mem = Arc::new(MemoryStore::new());
    let data = plume(32);
    IdxDataset::create(mem.clone(), "v3", plume_meta(32, 8, Codec::Lz4))
        .unwrap()
        .write_volume("v", 0, &data)
        .unwrap();

    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let wan =
        CloudStore::new(mem, NetworkProfile::private_seal(), clock.clone(), 42).with_obs(&obs);
    // The session checks deadlines against the clock of the volume's registry.
    let vol =
        IdxDataset::open(Arc::new(wan), "v3").unwrap().with_obs(&obs).with_fetch_concurrency(4);
    let vol = Arc::new(vol);
    let mut session = QuerySession::<f32>::new(Arc::clone(&vol), "v").unwrap().with_obs(&obs);
    // Opening fetched the metadata over the WAN; measure only the slice.
    obs.reset();
    obs.clear_spans();

    let (z, level) = (17, vol.max_level());
    session.set_slice(z).unwrap();
    let v0 = clock.now_ns();
    if let Some(after_vns) = cancel_after {
        session.cancel_token().cancel_at(v0 + after_vns);
        assert!(session.frame_at(level).unwrap().cancelled, "the deadline must fire mid-slice");
        assert_eq!(session.stats().cancelled, 1);
        assert!(session.stats().blocks_fetched > 0, "waves before the deadline are credited");
        // An abandoned slice lands on the span timeline like any abandoned frame.
        assert!(
            obs.spans_json().to_string().contains("session.cancelled"),
            "spans: {}",
            obs.render_spans()
        );
        session.reset_cancel();
    }
    let frame = session.frame_at(level).unwrap();
    assert!(!frame.cancelled, "resumed slice completes");
    for (x, y) in [(0, 0), (5, 9), (31, 31)] {
        assert_eq!(frame.raster.get(x, y), data.get(x, y, z as usize));
    }
    // Every slice, abandoned or not, is one `frame` span over its fetch waves.
    let frames: Vec<_> =
        obs.span_tree().into_iter().filter(|s| s.label == "session.frame").collect();
    assert_eq!(frames.len(), 1 + cancel_after.is_some() as usize);
    assert!(frames.iter().all(|f| f.children.iter().any(|c| c.label == "session.fetch")));
    let read_ops = obs.snapshot().counter("wan.read_ops");
    (session.stats().blocks_fetched, frame.stats.blocks_touched, read_ops, clock.now_ns() - v0)
}

#[test]
fn cancelled_slice_credits_the_waves_it_fetched() {
    let (fetched, planned, read_ops, cold_vns) = cancelled_slice(None);
    assert_eq!((fetched, read_ops), (planned, planned));

    // Cancel a third of the way in, resume: every planned block crossed
    // the WAN exactly once and every one of them is booked as fetched.
    let (fetched, planned, read_ops, _) = cancelled_slice(Some(cold_vns / 3));
    assert_eq!(fetched, planned, "cancelled + resumed slice undercounts fetched blocks");
    assert_eq!(read_ops, planned, "no block crossed the WAN twice");
}

#[test]
fn flythrough_fetches_each_planned_block_once() {
    let mem = Arc::new(MemoryStore::new());
    let data = plume(32);
    IdxDataset::create(mem.clone(), "v3", plume_meta(32, 8, Codec::Lz4))
        .unwrap()
        .write_volume("v", 0, &data)
        .unwrap();
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let wan = CloudStore::new(mem, NetworkProfile::private_seal(), clock, 42).with_obs(&obs);
    let vol = Arc::new(IdxDataset::open(Arc::new(wan), "v3").unwrap().with_obs(&obs));
    let mut session = QuerySession::<f32>::new(Arc::clone(&vol), "v").unwrap().with_obs(&obs);
    obs.reset();

    // What the sweep needs: the planner's blocks of every plane, each once.
    let (level, bs) = (vol.max_level(), vol.meta().block_samples());
    let curve = HzCurve::new(vol.meta().bitmask.clone());
    let planned: std::collections::BTreeSet<u64> = (0..32)
        .flat_map(|z| {
            curve.blocks_in_region(Box3i::new(0, 0, z, 32, 32, z + 1), level, bs).unwrap()
        })
        .collect();

    let sweep = |session: &mut QuerySession<f32>| {
        for z in 0..32 {
            session.set_slice(z).unwrap();
            let frame = session.frame_at(level).unwrap();
            assert_eq!(frame.raster.data(), data.slice_z(z as usize).unwrap().data(), "z={z}");
        }
    };
    sweep(&mut session);
    assert_eq!(session.stats().blocks_fetched, planned.len() as u64);
    let cold_ops = obs.snapshot().counter("wan.read_ops");
    assert_eq!(cold_ops, planned.len() as u64, "each planned block crossed the WAN once");

    // The sweep again: everything is resident.
    sweep(&mut session);
    assert_eq!(session.stats().blocks_fetched, planned.len() as u64);
    assert_eq!(obs.snapshot().counter("wan.read_ops"), cold_ops, "a repeated sweep is free");
}
