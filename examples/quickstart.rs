//! Quickstart: the paper's four-step tutorial workflow, end to end, in one
//! binary (paper §IV, Fig. 4).
//!
//! Generates CONUS-like terrain with GEOtiled, uploads TIFFs to a simulated
//! Seal-class private cloud, converts them to an IDX dataset, validates the
//! conversion, and drives the dashboard through a scripted interactive
//! session — printing each step's tasks and artifacts, the wave timeline,
//! and the IDX-vs-TIFF size ratio.
//!
//! Run with: `cargo run --release --example quickstart`

use nsdf::prelude::*;

fn main() -> Result<()> {
    let client = NsdfClient::simulated(2024);
    let cfg = DagConfig::tutorial(2024);

    println!("== NSDF tutorial quickstart ==");
    println!(
        "grid {}x{} at 30 m, tiles {:?}, codec {}, storage endpoint {:?}\n",
        cfg.width, cfg.height, cfg.tiles, cfg.codec, cfg.storage_endpoint
    );

    let report = run_tutorial(&client, &cfg)?;

    println!("-- the four steps (tasks, waves, modelled compute, artifacts) --");
    for s in report.steps() {
        println!(
            "  {:<24} {:>3} tasks  waves {}-{}  {:>7.3}s compute  {:>3} artifacts {:>9} bytes",
            s.step,
            s.tasks,
            s.waves.0,
            s.waves.1,
            s.compute_ns as f64 / 1e9,
            s.artifacts,
            s.bytes
        );
    }
    println!("\n-- wave timeline (virtual seconds) --");
    for k in 0..report.run.waves {
        println!("  wave {k}  {:>8.3}s", report.run.wave_secs(k));
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
    for (field, acc) in &report.accuracy {
        println!(
            "  {:<10} rmse={:<12.6} max_err={:<12.6} psnr={:>6.1} dB  exact={}",
            field,
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
