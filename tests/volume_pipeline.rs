//! Integration: the volumetric (3-D) path across crates — IDX volumes over
//! WAN-simulated, failure-injected storage, sliced into the 2-D rendering
//! pipeline.

use nsdf::idx::{IdxMeta, IdxVolume};
use nsdf::prelude::*;
use nsdf::util::{Box3i, Volume};
use std::sync::Arc;

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
    let meta = IdxMeta::new_3d(
        "p",
        32,
        32,
        32,
        vec![nsdf::idx::Field::new("v", DType::F32).unwrap()],
        8,
        Codec::LzssHuff { sample_size: 4 },
    )
    .unwrap();
    let ds = IdxVolume::create(cached.clone() as Arc<dyn ObjectStore>, "v3", meta).unwrap();
    ds.write_volume("v", 0, &data).unwrap();
    cached.clear_ram();

    let t0 = clock.now_secs();
    let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
    assert_eq!(back.data(), data.data());
    let cold = clock.now_secs() - t0;
    assert!(cold > 0.0);

    let t1 = clock.now_secs();
    ds.read_full::<f32>("v", 0).unwrap();
    assert_eq!(clock.now_secs(), t1, "warm volume read free");
}

#[test]
fn volume_slices_feed_the_renderer() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let data = plume(24);
    let meta = IdxMeta::new_3d(
        "p",
        24,
        24,
        24,
        vec![nsdf::idx::Field::new("v", DType::F32).unwrap()],
        6,
        Codec::Lz4,
    )
    .unwrap();
    let ds = IdxVolume::create(store, "v3", meta).unwrap();
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
    let meta = IdxMeta::new_3d(
        "p",
        16,
        16,
        16,
        vec![nsdf::idx::Field::new("v", DType::F32).unwrap()],
        6,
        Codec::Raw,
    )
    .unwrap();
    let ds = IdxVolume::create(retry, "v3", meta).unwrap();
    ds.write_volume("v", 0, &data).unwrap();
    let region = Box3i::new(2, 3, 4, 12, 13, 14);
    let (sub, _) = ds.read_box::<f32>("v", 0, region, ds.max_level()).unwrap();
    assert_eq!(sub.data(), data.window(region).unwrap().data());
}
