//! Quickstart: the paper's four-step tutorial workflow, end to end, in one
//! binary (paper §IV, Fig. 4).
//!
//! Generates CONUS-like terrain with GEOtiled, uploads TIFFs to a simulated
//! Seal-class private cloud, converts them to an IDX dataset, validates the
//! conversion, and drives the dashboard through a scripted interactive
//! session — printing per-step timings, artifact sizes, and the IDX-vs-TIFF
//! size ratio.
//!
//! Run with: `cargo run --release --example quickstart`

use nsdf::prelude::*;

fn main() -> Result<()> {
    let client = NsdfClient::simulated(2024);
    let cfg = TutorialConfig::small(2024);

    println!("== NSDF tutorial quickstart ==");
    println!(
        "grid {}x{} at 30 m, tiles {:?}, codec {}, storage endpoint {:?}\n",
        cfg.width, cfg.height, cfg.tiles, cfg.codec, cfg.storage_endpoint
    );

    let report = run_tutorial(&client, &cfg)?;

    println!("-- per-step timeline (virtual seconds) --");
    for step in &report.run.records {
        let secs = report.run.wave_secs(step.wave);
        println!("  {:<28} {:>8.3}s  ({} artifacts)", step.name, secs, step.produced.len());
        for a in &step.produced {
            println!("      {:<24} {:>12} bytes  -> {}", a.name, a.bytes, a.location);
        }
    }

    println!("\n-- conversion (Step 2, paper claim: IDX ~20% smaller) --");
    println!("  TIFF bytes: {:>12}", report.tiff_bytes);
    println!("  IDX bytes:  {:>12}", report.idx_bytes);
    println!(
        "  size ratio: {:.3}  (space saved: {:.1}%)",
        report.size_ratio(),
        (1.0 - report.size_ratio()) * 100.0
    );

    println!("\n-- validation (Step 3) --");
    for (param, acc) in &report.accuracy {
        println!(
            "  {:<10} rmse={:<12.6} max_err={:<12.6} psnr={:>6.1} dB  exact={}",
            param.name(),
            acc.rmse,
            acc.max_abs_err,
            acc.psnr_db,
            acc.is_exact()
        );
    }
    assert!(report.validation_exact(), "lossless conversion must be exact");

    println!("\n-- interactive session (Step 4) --");
    for i in &report.interactions {
        match &i.frame {
            Some(f) => println!(
                "  {:<14} {:>8.3}s  level {} ({}x{} samples, {} blocks, {} bytes)",
                i.label,
                i.virtual_secs,
                f.level,
                f.raster_width,
                f.raster_height,
                f.stats.blocks_touched,
                f.stats.bytes_fetched
            ),
            None => println!("  {:<14} {:>8.3}s", i.label, i.virtual_secs),
        }
    }

    println!("\nend-to-end virtual time: {:.3}s", report.total_virtual_secs);
    println!("ok");
    Ok(())
}
