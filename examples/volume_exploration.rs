//! Advanced applications: volumetric data through the IDX fabric (the
//! tutorial's advanced tier — "handling and visualizing massive datasets
//! requiring high-resolution data management").
//!
//! Builds a synthetic 3-D scalar field (a buried plume in layered strata),
//! publishes it as a 3-D IDX dataset on a simulated private cloud, then
//! explores it the way the dashboard does: progressive z-slices, a
//! flythrough, a sub-box extraction, and cold/warm cache economics.
//!
//! Run with: `cargo run --release --example volume_exploration`

use nsdf::prelude::*;
use nsdf::util::Volume;
use std::sync::Arc;

fn synthetic_plume(n: usize) -> Volume<f32> {
    Volume::from_fn(n, n, n, |x, y, z| {
        // Layered background + an ellipsoidal anomaly.
        let layers = (z as f32 * 0.3).sin() * 10.0 + z as f32;
        let (cx, cy, cz) = (n as f32 / 2.0, n as f32 / 2.0, n as f32 / 3.0);
        let d2 = ((x as f32 - cx) / 10.0).powi(2)
            + ((y as f32 - cy) / 6.0).powi(2)
            + ((z as f32 - cz) / 14.0).powi(2);
        layers + 80.0 * (-d2).exp()
    })
}

fn main() -> Result<()> {
    let n = 64usize;
    println!("== volumetric exploration ({n}^3 scalar field) ==\n");
    let truth = synthetic_plume(n);

    let clock = SimClock::new();
    let wan = Arc::new(CloudStore::new(
        Arc::new(MemoryStore::new()),
        NetworkProfile::private_seal(),
        clock.clone(),
        9,
    ));
    let cached = Arc::new(TierCache::new(wan, 64 << 20));

    let meta = IdxMeta::new(
        "plume",
        &[n as u64; 3],
        vec![Field::new("density", DType::F32)?],
        10,
        Codec::LzssHuff { sample_size: 4 },
    )?;
    let ds = IdxDataset::create(cached.clone() as Arc<dyn ObjectStore>, "volumes/plume", meta)?;
    let t0 = clock.now_secs();
    let stats = ds.write_volume("density", 0, &truth)?;
    println!(
        "published: {} blocks, {} -> {} bytes ({:.0}% of raw), upload {:.2}s virtual",
        stats.blocks_written,
        stats.bytes_raw,
        stats.bytes_stored,
        stats.compression_fraction() * 100.0,
        clock.now_secs() - t0
    );

    // Progressive z-slice through the plume centre, coarse to fine.
    cached.clear_ram();
    let out_dir = std::env::temp_dir().join("nsdf-volume");
    std::fs::create_dir_all(&out_dir)?;
    let z = (n / 3) as i64;
    println!("\nprogressive slice at z={z}:");
    println!("{:<8} {:>10} {:>8} {:>12} {:>10}", "level", "samples", "blocks", "bytes", "virt_ms");
    let max = ds.max_level();
    for level in [max - 9, max - 6, max - 3, max] {
        let t = clock.now_secs();
        let (slice, q) = ds.read_slice_z::<f32>("density", 0, z, level)?;
        println!(
            "{:<8} {:>10} {:>8} {:>12} {:>10.1}",
            level,
            q.samples_out,
            q.blocks_touched,
            q.bytes_fetched,
            (clock.now_secs() - t) * 1e3
        );
        let img =
            nsdf::dashboard::render(&slice, Colormap::Viridis, RangeMode::Percentile(1.0, 99.0))?;
        std::fs::write(out_dir.join(format!("slice-z{z}-l{level}.ppm")), img.to_ppm())?;
    }

    // Interactive exploration through the dashboard, which opens a volume
    // like any dataset: a 4-frame flythrough along z.
    let mut dash = Dashboard::new();
    let opened = IdxDataset::open(cached.clone() as Arc<dyn ObjectStore>, "volumes/plume")?;
    dash.add_dataset("plume", Arc::new(opened));
    dash.select_dataset("plume")?;
    dash.set_colormap(Colormap::CoolWarm);
    for (z, img) in dash.flythrough(4, max - 3)? {
        std::fs::write(out_dir.join(format!("fly-z{z}.ppm")), img.to_ppm())?;
    }
    println!("\nflythrough: 4 frames at level {} written", max - 3);

    // What planning those reads costs: the O(blocks) HZ descent every query
    // runs, against the O(samples) walk kept as its test oracle.
    let curve = HzCurve::new(ds.meta().bitmask.clone());
    let bs = ds.meta().block_samples();
    let slab = nsdf::util::Box3i::new(0, 0, z, n as i64, n as i64, z + 1);
    println!("\nplanner at level {max}:");
    for (what, region) in [("full volume", ds.extent()), ("one z-slice", slab)] {
        let t = std::time::Instant::now();
        let planned = curve.blocks_in_region(region, max, bs)?;
        let descent = t.elapsed();
        let t = std::time::Instant::now();
        let mut walked = std::collections::BTreeSet::new();
        for l in 0..=max {
            walked.extend(curve.level_samples_in_box(l, region)?.iter().map(|(_, hz)| hz / bs));
        }
        let walk = t.elapsed();
        assert!(planned.iter().eq(&walked), "planner and walk disagree on the {what}");
        println!(
            "  {what:<12} {:>4} blocks: descent {:>6.1} us, sample walk {:>7.2} ms",
            planned.len(),
            descent.as_secs_f64() * 1e6,
            walk.as_secs_f64() * 1e3
        );
    }

    // Sub-box extraction around the anomaly at full resolution.
    let b = nsdf::util::Box3i::new(
        n as i64 / 2 - 12,
        n as i64 / 2 - 8,
        n as i64 / 3 - 14,
        n as i64 / 2 + 12,
        n as i64 / 2 + 8,
        n as i64 / 3 + 14,
    );
    let t = clock.now_secs();
    let (sub, q) = ds.read_volume::<f32>("density", 0, b, max)?;
    println!(
        "\nsub-box {:?}: {:?} samples, {} blocks, {:.1} virt_ms",
        (b.width(), b.height(), b.depth()),
        sub.shape(),
        q.blocks_touched,
        (clock.now_secs() - t) * 1e3
    );
    // Verify against the ground truth.
    let window = truth.window(b)?;
    assert_eq!(sub.data(), window.data(), "IDX sub-box must equal the source window");
    println!("sub-box verified bit-exact against the source volume");

    // Warm repeat.
    let t = clock.now_secs();
    ds.read_volume::<f32>("density", 0, b, max)?;
    println!("same sub-box warm: {:.3} virt_ms", (clock.now_secs() - t) * 1e3);
    println!("\nslices written to {}", out_dir.display());
    println!("ok");
    Ok(())
}
