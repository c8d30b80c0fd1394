//! Remote IDX streaming economics (paper §III-A, Fig. 7's substrate).
//!
//! Publishes a terrain dataset to simulated public (Dataverse-class) and
//! private (Seal-class) clouds, then measures — in deterministic virtual
//! time — what the IDX layout buys: progressive coarse-to-fine refinement,
//! small-region queries that touch few blocks, and cold-vs-warm cache
//! behaviour.
//!
//! Run with: `cargo run --release --example idx_streaming`

use nsdf::prelude::*;
use std::sync::Arc;

fn publish(store: Arc<dyn ObjectStore>, dem: &Raster<f32>) -> Result<IdxDataset> {
    let (w, h) = dem.shape();
    let meta = IdxMeta::new_2d(
        "stream-demo",
        w as u64,
        h as u64,
        vec![Field::new("elevation", DType::F32)?],
        12,
        Codec::ShuffleLzss { sample_size: 4 },
    )?;
    let ds = IdxDataset::create(store, "published/terrain", meta)?;
    ds.write_raster("elevation", 0, dem)?;
    Ok(ds)
}

fn main() -> Result<()> {
    let dem = DemConfig::conus_like(1024, 1024, 41).generate();
    println!("== IDX streaming over simulated clouds ==");
    println!("dataset: 1024x1024 float32 elevation, shuffle-lzss blocks\n");

    for profile in [NetworkProfile::public_dataverse(), NetworkProfile::private_seal()] {
        let clock = SimClock::new();
        let wan = Arc::new(CloudStore::new(
            Arc::new(MemoryStore::new()),
            profile.clone(),
            clock.clone(),
            7,
        ));
        let cached = Arc::new(TierCache::new(wan.clone(), 64 << 20));
        let t0 = clock.now_secs();
        let ds = publish(cached.clone(), &dem)?;
        println!(
            "-- {} (rtt {:.0} ms, {:.0} Mbps x{} streams): upload took {:.2}s virtual --",
            profile.name,
            profile.rtt_ms,
            profile.bandwidth_mbps,
            profile.streams,
            clock.now_secs() - t0
        );

        // Progressive refinement of the full view, cold cache.
        cached.clear_ram();
        println!(
            "   {:<8} {:>12} {:>8} {:>12} {:>10}",
            "level", "samples", "blocks", "bytes", "virt_ms"
        );
        let max = ds.max_level();
        for level in [max - 10, max - 8, max - 6, max - 4, max - 2, max] {
            let t = clock.now_secs();
            let (_, stats) = ds.read_box::<f32>("elevation", 0, ds.bounds(), level)?;
            println!(
                "   {:<8} {:>12} {:>8} {:>12} {:>10.1}",
                level,
                stats.samples_out,
                stats.blocks_touched,
                stats.bytes_fetched,
                (clock.now_secs() - t) * 1e3
            );
        }

        // Small-region full-resolution query (the "zoomed in" case).
        let region = Box2i::new(400, 400, 528, 528);
        let t = clock.now_secs();
        let (_, stats) = ds.read_box::<f32>("elevation", 0, region, max)?;
        println!(
            "   region 128x128 @ full res: {} blocks, {} bytes, {:.1} virt_ms",
            stats.blocks_touched,
            stats.bytes_fetched,
            (clock.now_secs() - t) * 1e3
        );

        // Warm-cache re-read: the §III-A caching claim.
        let t = clock.now_secs();
        let (_, _) = ds.read_box::<f32>("elevation", 0, region, max)?;
        let warm_ms = (clock.now_secs() - t) * 1e3;
        let cs = cached.stats();
        println!(
            "   same region warm: {:.3} virt_ms (cache hit rate {:.0}%)\n",
            warm_ms,
            cs.hit_rate() * 100.0
        );
    }

    println!("ok");
    Ok(())
}
