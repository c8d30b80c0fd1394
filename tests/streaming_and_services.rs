//! Integration: streaming economics and the supporting services working
//! together — IDX over WAN+cache, FUSE backed by the same stores the IDX
//! data lives in, catalog indexing of published datasets, and plugin-driven
//! endpoint choice feeding the storage profile.

use nsdf::catalog::{Catalog, Record};
use nsdf::fuse::{Mapping, VirtualFs};
use nsdf::plugin::{run_campaign, select_entry_point, Testbed};
use nsdf::prelude::*;
use nsdf::util::checksum64;
use std::sync::Arc;

fn publish_remote(
    profile: NetworkProfile,
    cache_bytes: u64,
) -> (SimClock, Arc<TierCache>, IdxDataset) {
    let clock = SimClock::new();
    let wan = Arc::new(CloudStore::new(Arc::new(MemoryStore::new()), profile, clock.clone(), 99));
    let cached = Arc::new(TierCache::new(wan, cache_bytes));
    let dem = DemConfig::conus_like(256, 256, 1).generate();
    let meta = IdxMeta::new_2d(
        "remote",
        256,
        256,
        vec![Field::new("v", DType::F32).unwrap()],
        10,
        Codec::ShuffleLzss { sample_size: 4 },
    )
    .unwrap();
    let ds =
        IdxDataset::create(cached.clone() as Arc<dyn ObjectStore>, "pub/remote", meta).unwrap();
    ds.write_raster("v", 0, &dem).unwrap();
    (clock, cached, ds)
}

#[test]
fn coarse_overview_is_much_cheaper_than_full_read_over_wan() {
    let (clock, cached, ds) = publish_remote(NetworkProfile::public_dataverse(), 64 << 20);
    cached.clear_ram();
    let t0 = clock.now_secs();
    let (_, coarse) = ds.read_box::<f32>("v", 0, ds.bounds(), ds.max_level() - 6).unwrap();
    let coarse_secs = clock.now_secs() - t0;
    cached.clear_ram();
    let t1 = clock.now_secs();
    let (_, full) = ds.read_full::<f32>("v", 0).unwrap();
    let full_secs = clock.now_secs() - t1;
    assert!(coarse.blocks_touched * 4 <= full.blocks_touched);
    assert!(coarse_secs * 2.0 < full_secs, "coarse {coarse_secs} vs full {full_secs}");
}

#[test]
fn warm_cache_eliminates_wan_time() {
    let (clock, cached, ds) = publish_remote(NetworkProfile::private_seal(), 64 << 20);
    cached.clear_ram();
    let region = Box2i::new(64, 64, 128, 128);
    ds.read_box::<f32>("v", 0, region, ds.max_level()).unwrap();
    let t = clock.now_secs();
    let (_, repeat) = ds.read_box::<f32>("v", 0, region, ds.max_level()).unwrap();
    assert_eq!(clock.now_secs(), t, "warm query must not advance the WAN clock");
    assert!(repeat.decoded_cache_hits > 0, "repeat query is served by the decoded cache");
    assert_eq!(repeat.bytes_fetched, 0, "repeat query must not touch the store");
    // A fresh handle has an empty decoded cache, so it reaches the object
    // cache — and still pays no WAN time (only the uncached dataset.idx
    // metadata read during open is charged).
    let fresh = IdxDataset::open(cached.clone() as Arc<dyn ObjectStore>, "pub/remote").unwrap();
    let t2 = clock.now_secs();
    fresh.read_box::<f32>("v", 0, region, fresh.max_level()).unwrap();
    assert_eq!(clock.now_secs(), t2, "object-cache hits must not advance the WAN clock");
    assert!(cached.stats().hits > 0);
}

#[test]
fn tiny_cache_forces_refetches() {
    let (_, cached, ds) = publish_remote(NetworkProfile::private_seal(), 1024);
    cached.clear_ram();
    ds.read_full::<f32>("v", 0).unwrap();
    ds.read_full::<f32>("v", 0).unwrap();
    let stats = cached.stats();
    assert_eq!(stats.hits, 0, "1 KiB cache cannot hold 16 KiB blocks");
    assert!(stats.misses > 0);
}

#[test]
fn fuse_and_idx_share_a_store() {
    // The FUSE view and an IDX dataset can live side by side in one bucket.
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let fs = VirtualFs::new(store.clone(), "bucket/files", Mapping::OneToOne).unwrap();
    fs.write_file("notes/readme.md", b"terrain run notes").unwrap();

    let dem = DemConfig::conus_like(64, 64, 2).generate();
    let meta =
        IdxMeta::new_2d("side", 64, 64, vec![Field::new("v", DType::F32).unwrap()], 8, Codec::Raw)
            .unwrap();
    let ds = IdxDataset::create(store.clone(), "bucket/idx", meta).unwrap();
    ds.write_raster("v", 0, &dem).unwrap();

    assert_eq!(fs.read_file("notes/readme.md").unwrap(), b"terrain run notes");
    let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
    assert_eq!(back.data(), dem.data());
    // Namespaces do not collide.
    assert!(!store.list("bucket/files/").unwrap().is_empty());
    assert!(store.list("bucket/idx/").unwrap().len() > 1);
}

#[test]
fn catalog_indexes_published_idx_blocks() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let dem = DemConfig::conus_like(64, 64, 3).generate();
    let meta =
        IdxMeta::new_2d("cat", 64, 64, vec![Field::new("v", DType::F32).unwrap()], 8, Codec::Lz4)
            .unwrap();
    let ds = IdxDataset::create(store.clone(), "published/cat", meta).unwrap();
    ds.write_raster("v", 0, &dem).unwrap();

    // Harvest the bucket into the catalog, as an NSDF indexer would.
    let cat = Catalog::new(8).unwrap();
    for (id, m) in store.list("published/").unwrap().into_iter().enumerate() {
        cat.upsert(Record::new(id as u64, m.key.clone(), "seal", m.size, m.checksum).unwrap())
            .unwrap();
    }
    assert!(cat.len() > 1);
    let blocks = cat.find_by_prefix("published/cat/f0/");
    assert!(!blocks.is_empty());
    // Checksums in the catalog match live object content.
    for rec in blocks.iter().take(3) {
        let data = store.get(&rec.name).unwrap();
        assert_eq!(checksum64(&data), rec.checksum);
    }
}

#[test]
fn plugin_selected_entry_point_streams_faster() {
    // Choose the best replica with the plugin, then actually stream through
    // the corresponding link profiles and verify the choice wins.
    let tb = Testbed::nsdf_default();
    let matrix = run_campaign(&tb, 50, 4).unwrap();
    let replicas = ["sdsc", "mghpcc"];
    let client_site = "utk";
    let (best, _) = select_entry_point(&matrix, client_site, &replicas, 8 << 20).unwrap();

    let mut times = std::collections::HashMap::new();
    for replica in replicas {
        let clock = SimClock::new();
        let profile = tb.link_profile(replica, client_site).unwrap();
        let store = CloudStore::new(Arc::new(MemoryStore::new()), profile, clock.clone(), 8);
        store.put("blob", &vec![0u8; 8 << 20]).unwrap();
        let t0 = clock.now_secs();
        store.get("blob").unwrap();
        times.insert(replica.to_string(), clock.now_secs() - t0);
    }
    let other = replicas.iter().find(|r| **r != best).unwrap().to_string();
    assert!(
        times[&best] <= times[&other],
        "selected {best} ({}) vs {other} ({})",
        times[&best],
        times[&other]
    );
}

#[test]
fn somospie_consumes_geotiled_outputs() {
    use nsdf::somospie::{downscale_knn, SyntheticTruth};
    let dem = DemConfig::conus_like(96, 96, 19).generate();
    let truth = SyntheticTruth::from_dem(&dem, 8, 19).unwrap();
    let report = downscale_knn(&truth, 5).unwrap();
    assert!(report.rmse < report.baseline_rmse);
}

#[test]
fn idx_survives_a_flaky_wan_behind_retries() {
    use nsdf::storage::{FaultPlan, FaultStore, RetryPolicy, RetryStore};
    let clock = SimClock::new();
    let plan = FaultPlan::new(5).with_fault_rate(0.25);
    let flaky =
        Arc::new(FaultStore::new(Arc::new(MemoryStore::new()), plan, clock.clone()).unwrap());
    let retry: Arc<dyn ObjectStore> = Arc::new(
        RetryStore::new(
            flaky.clone(),
            RetryPolicy { max_attempts: 12, initial_backoff_secs: 0.05, multiplier: 2.0 },
            clock.clone(),
        )
        .unwrap(),
    );
    let dem = DemConfig::conus_like(128, 128, 8).generate();
    let meta = IdxMeta::new_2d(
        "flaky",
        128,
        128,
        vec![Field::new("v", DType::F32).unwrap()],
        8,
        Codec::LzssHuff { sample_size: 4 },
    )
    .unwrap();
    let ds = IdxDataset::create(retry, "flaky", meta).unwrap();
    ds.write_raster("v", 0, &dem).unwrap();
    let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
    assert_eq!(back.data(), dem.data(), "a 25%-lossy substrate must still be exact");
    assert!(flaky.injected_failures() > 0, "failures must actually have been injected");
    assert!(clock.now_secs() > 0.0, "retries charged backoff to the timeline");
}
