//! `nsdf` — command-line interface to the nsdf-rs stack.
//!
//! Mirrors the hands-on commands of the tutorial: generate terrain,
//! convert TIFF to IDX, inspect and query datasets, render frames, and run
//! the whole four-step workflow.
//!
//! ```text
//! nsdf gen-dem   --size 512 --seed 7 --out dem.tif
//! nsdf terrain   --dem dem.tif --param slope --out slope.tif
//! nsdf convert   --tiff slope.tif --store ./idxdata --name slope
//! nsdf info      --store ./idxdata --name slope
//! nsdf query     --store ./idxdata --name slope --region 10,10,200,200 \
//!                --level 14 --out crop.tif
//! nsdf render    --store ./idxdata --name slope --out frame.ppm \
//!                --colormap terrain
//! nsdf tutorial  --seed 2024 --endpoint seal
//! ```

use nsdf::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "gen-dem" => gen_dem(&opts),
        "terrain" => terrain(&opts),
        "convert" => convert(&opts),
        "info" => info(&opts),
        "query" => query(&opts),
        "render" => render_cmd(&opts),
        "tutorial" => tutorial(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command {other:?}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "nsdf — NSDF training-stack CLI

commands:
  gen-dem   --out FILE [--size N] [--width N --height N] [--seed N]
  terrain   --dem FILE --param elevation|slope|aspect|hillshade --out FILE
            [--tiles N] [--threads N]
  convert   --tiff FILE --store DIR --name NAME [--codec NAME]
            [--bits-per-block N]
  info      --store DIR --name NAME
  query     --store DIR --name NAME --out FILE [--region x0,y0,x1,y1]
            [--level N] [--field NAME] [--time N]
  render    --store DIR --name NAME --out FILE.ppm [--colormap NAME]
            [--level N] [--field NAME] [--time N]
  tutorial  [--seed N] [--endpoint local|dataverse|seal] [--size N]";

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| NsdfError::invalid(format!("expected --option, got {a:?}")))?;
        let val = it.next().ok_or_else(|| NsdfError::invalid(format!("--{key} needs a value")))?;
        opts.insert(key.to_string(), val.clone());
    }
    Ok(opts)
}

fn req<'a>(opts: &'a Opts, key: &str) -> Result<&'a str> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| NsdfError::invalid(format!("missing required option --{key}")))
}

fn num<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => {
            v.parse().map_err(|_| NsdfError::invalid(format!("--{key}: cannot parse {v:?}")))
        }
    }
}

fn gen_dem(opts: &Opts) -> Result<()> {
    let out = req(opts, "out")?;
    let size: usize = num(opts, "size", 512)?;
    let width: usize = num(opts, "width", size)?;
    let height: usize = num(opts, "height", size)?;
    let seed: u64 = num(opts, "seed", 2024)?;
    let dem = DemConfig::conus_like(width, height, seed).generate();
    let tiff = write_tiff(&dem, TiffCompression::PackBits)?;
    std::fs::write(out, &tiff)?;
    println!("wrote {width}x{height} DEM (seed {seed}) to {out} ({} bytes)", tiff.len());
    Ok(())
}

fn terrain(opts: &Opts) -> Result<()> {
    let dem_path = req(opts, "dem")?;
    let out = req(opts, "out")?;
    let param = TerrainParam::parse(req(opts, "param")?)?;
    let tiles: usize = num(opts, "tiles", 4)?;
    let threads: usize = num(opts, "threads", nsdf::util::par::num_threads())?;
    let dem = read_tiff::<f32>(&std::fs::read(dem_path)?)?;
    let plan = TilePlan::new(tiles, tiles, 1)?;
    let (result, stats) = compute_terrain_tiled(&dem, param, Sun::default(), &plan, threads)?;
    let tiff = write_tiff(&result, TiffCompression::PackBits)?;
    std::fs::write(out, &tiff)?;
    println!(
        "computed {} over {} tiles ({:.1}% halo overhead), wrote {out}",
        param.name(),
        stats.tiles,
        stats.halo_overhead() * 100.0
    );
    Ok(())
}

fn convert(opts: &Opts) -> Result<()> {
    let tiff_path = req(opts, "tiff")?;
    let store_dir = req(opts, "store")?;
    let name = req(opts, "name")?;
    let codec = Codec::parse(opts.get("codec").map(|s| s.as_str()).unwrap_or("zlib4"))?;
    let bpb: u32 = num(opts, "bits-per-block", 14)?;
    let raster = read_tiff::<f32>(&std::fs::read(tiff_path)?)?;
    let (w, h) = raster.shape();
    let store: Arc<dyn ObjectStore> = Arc::new(LocalStore::open(store_dir)?);
    let mut meta = IdxMeta::new_2d(
        name,
        w as u64,
        h as u64,
        vec![Field::new("value", DType::F32)?],
        bpb,
        codec,
    )?;
    if let Some(g) = raster.geo {
        meta = meta.with_geo(g);
    }
    let ds = IdxDataset::create(store, name, meta)?;
    let stats = ds.write_raster("value", 0, &raster)?;
    println!(
        "converted {tiff_path} -> {store_dir}/{name}: {} blocks, {} -> {} bytes ({:.1}% of raw)",
        stats.blocks_written,
        stats.bytes_raw,
        stats.bytes_stored,
        stats.compression_fraction() * 100.0
    );
    Ok(())
}

fn open_dataset(opts: &Opts) -> Result<IdxDataset> {
    let store_dir = req(opts, "store")?;
    let name = req(opts, "name")?;
    let store: Arc<dyn ObjectStore> = Arc::new(LocalStore::open(store_dir)?);
    IdxDataset::open(store, name)
}

fn info(opts: &Opts) -> Result<()> {
    let ds = open_dataset(opts)?;
    let m = ds.meta();
    println!("dataset:        {}", m.name);
    println!("dims:           {:?}", m.dims);
    println!("bitmask:        {}", m.bitmask.to_text());
    println!("max level:      {}", ds.max_level());
    println!("bits per block: {} ({} samples)", m.bits_per_block, m.block_samples());
    println!("codec:          {}", m.codec);
    println!("timesteps:      {}", m.timesteps);
    println!(
        "fields:         {}",
        m.fields.iter().map(|f| format!("{}:{}", f.name, f.dtype)).collect::<Vec<_>>().join(", ")
    );
    if let Some(g) = m.geo {
        println!("geo:            origin ({}, {}), pixel ({}, {})", g.x0, g.y0, g.dx, g.dy);
    }
    Ok(())
}

fn query_raster(opts: &Opts, ds: &IdxDataset) -> Result<(Raster<f32>, u32)> {
    let field: String =
        opts.get("field").cloned().unwrap_or_else(|| ds.meta().fields[0].name.clone());
    let time: u32 = num(opts, "time", 0)?;
    let level: u32 = num(opts, "level", ds.max_level())?;
    let region = match opts.get("region") {
        None => ds.bounds(),
        Some(spec) => {
            let parts: Vec<i64> = spec
                .split(',')
                .map(|p| p.trim().parse().map_err(|_| NsdfError::invalid("bad --region")))
                .collect::<Result<_>>()?;
            if parts.len() != 4 {
                return Err(NsdfError::invalid("--region needs x0,y0,x1,y1"));
            }
            Box2i::new(parts[0], parts[1], parts[2], parts[3])
        }
    };
    let (raster, stats) = ds.read_box::<f32>(&field, time, region, level)?;
    eprintln!(
        "query: level {level}, {}x{} samples, {} blocks, {} bytes",
        raster.width(),
        raster.height(),
        stats.blocks_touched,
        stats.bytes_fetched
    );
    Ok((raster, level))
}

fn query(opts: &Opts) -> Result<()> {
    let ds = open_dataset(opts)?;
    let (raster, _) = query_raster(opts, &ds)?;
    let out = req(opts, "out")?;
    let tiff = write_tiff(&raster, TiffCompression::PackBits)?;
    std::fs::write(out, &tiff)?;
    println!("wrote {out} ({} bytes)", tiff.len());
    Ok(())
}

fn render_cmd(opts: &Opts) -> Result<()> {
    let ds = open_dataset(opts)?;
    let (raster, _) = query_raster(opts, &ds)?;
    let out = req(opts, "out")?;
    let colormap = Colormap::parse(opts.get("colormap").map(|s| s.as_str()).unwrap_or("viridis"))?;
    let img = nsdf::dashboard::render(&raster, colormap, RangeMode::Percentile(1.0, 99.0))?;
    std::fs::write(out, img.to_ppm())?;
    println!("wrote {out} ({}x{} px)", img.width, img.height);
    Ok(())
}

fn tutorial(opts: &Opts) -> Result<()> {
    let seed: u64 = num(opts, "seed", 2024)?;
    let size: usize = num(opts, "size", 512)?;
    let endpoint = opts.get("endpoint").map(|s| s.as_str()).unwrap_or("seal").to_string();
    let client = NsdfClient::simulated(seed);
    let cfg = DagConfig {
        width: size,
        height: size / 2,
        storage_endpoint: endpoint,
        ..DagConfig::tutorial(seed)
    };
    let report = run_tutorial(&client, &cfg)?;
    println!(
        "{:<24} {:>5} {:>6} {:>10} {:>9} {:>10}",
        "step", "tasks", "waves", "compute s", "artifacts", "bytes"
    );
    for s in report.steps() {
        let waves = format!("{}-{}", s.waves.0, s.waves.1);
        let compute = s.compute_ns as f64 / 1e9;
        println!(
            "{:<24} {:>5} {waves:>6} {compute:>10.3} {:>9} {:>10}",
            s.step, s.tasks, s.artifacts, s.bytes
        );
    }
    for k in 0..report.run.waves {
        println!("wave {k:<3} {:>8.3}s", report.run.wave_secs(k));
    }
    println!(
        "TIFF {} B -> IDX {} B (ratio {:.3}); validation exact: {}",
        report.tiff_bytes,
        report.idx_bytes,
        report.size_ratio(),
        report.validation_exact()
    );
    Ok(())
}
