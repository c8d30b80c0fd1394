//! The paper's four-step workflow as one scheduled task DAG, at the
//! *tile* granularity the GEOtiled workflow has on a cluster. This module
//! builds Steps 1–2 and their digest-checked read-back;
//! [`crate::pipeline::run_tutorial`] adds the tutorial's static renders
//! and dashboard session to the same graph:
//!
//! - `gen/{tx}_{ty}` — synthesise one DEM tile (parallel task);
//! - `{param}/{tx}_{ty}` — one terrain parameter over one tile, with
//!   halo-exchange edges to the DEM tile and its up-to-8 neighbors
//!   (parallel); bit-exact versus the untiled kernel by the halo proof
//!   in `nsdf-geotiled`;
//! - `moisture/{tx}_{ty}` — SOMOSPIE tile-local downscaling consuming
//!   that tile's elevation/slope/aspect (parallel);
//! - `dataset-init`, `ingest/{field}`, `validate/{field}` — IDX dataset
//!   creation, mosaic ingest through `write_raster`'s `put_many` upload
//!   waves, and digest-checked read-back (exclusive tasks, serialized
//!   store I/O). The digests they compute go back to the engine as
//!   payloads, so a wave's five land in one `put_many`.
//!
//! With a manifest configured, editing one DEM cell re-executes only the
//! edited tile's dependency cone — and because fingerprints hash
//! recomputed content, neighbor tiles whose halos did not see the edit
//! cut the cone off one level further down.

use crate::client::NsdfClient;
use nsdf_compress::Codec;
use nsdf_geotiled::{compute_terrain, DemConfig, DemEdit, Sun, TerrainParam, TilePlan};
use nsdf_idx::{Field, IdxDataset, IdxMeta};
use nsdf_somospie::{downscale_tile, TileMoistureParams};
use nsdf_storage::ObjectStore;
use nsdf_tiff::{read_tiff, write_tiff, TiffCompression};
use nsdf_util::{Box2i, DType, Fnv1a, GeoTransform, NsdfError, Raster, Result, SimClock};
use nsdf_workflow::{GraphRun, RunOptions, TaskCtx, TaskGraph, TaskOutput};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Virtual compute charged per DEM pixel synthesised.
const GEN_NS_PER_PX: u64 = 2_000;
/// Virtual compute charged per padded pixel of a terrain tile.
const TERRAIN_NS_PER_PX: u64 = 2_000;
/// Virtual compute charged per pixel of KNN moisture downscaling.
const MOISTURE_NS_PER_PX: u64 = 20_000;
/// Virtual compute charged per pixel ingested into IDX.
const INGEST_NS_PER_PX: u64 = 1_000;
/// Virtual compute charged per pixel validated on read-back.
pub(crate) const VALIDATE_NS_PER_PX: u64 = 500;
/// Virtual compute charged for writing the dataset header.
const INIT_NS: u64 = 1_000_000;

/// Configuration of one DAG pipeline run.
#[derive(Debug, Clone)]
pub struct DagConfig {
    /// DEM width in pixels.
    pub width: usize,
    /// DEM height in pixels.
    pub height: usize,
    /// Master seed.
    pub seed: u64,
    /// GEOtiled tile grid.
    pub tiles: (usize, usize),
    /// Worker threads for parallel task waves.
    pub threads: usize,
    /// Block codec for the IDX dataset.
    pub codec: Codec,
    /// log2 samples per IDX block.
    pub bits_per_block: u32,
    /// Blocks per `put_many` upload wave during ingest.
    pub write_concurrency: usize,
    /// Storage endpoint holding tiles, dataset, and manifest.
    pub storage_endpoint: String,
    /// Tile-local moisture model parameters.
    pub moisture: TileMoistureParams,
    /// Elevation edits applied to the DEM before tiling.
    pub edits: Vec<DemEdit>,
    /// Manifest key enabling incremental recompute (None = always cold).
    pub manifest_key: Option<String>,
    /// Run the sequential baseline (one task per wave) instead of the
    /// parallel schedule.
    pub sequential: bool,
    /// Object-key prefix for every artifact of this pipeline.
    pub prefix: String,
}

impl DagConfig {
    /// A small run that completes in seconds: 128x96 CONUS-like DEM on
    /// a 4x4 tile grid, five IDX fields, manifest enabled.
    pub fn small(seed: u64) -> DagConfig {
        DagConfig {
            width: 128,
            height: 96,
            seed,
            tiles: (4, 4),
            threads: 4,
            codec: Codec::LzssHuff { sample_size: 4 },
            bits_per_block: 12,
            write_concurrency: 8,
            storage_endpoint: "seal".into(),
            moisture: TileMoistureParams::default(),
            edits: Vec::new(),
            manifest_key: Some("dag/manifest.json".into()),
            sequential: false,
            prefix: "dag".into(),
        }
    }

    /// The tutorial's Tennessee-scale run (Figs. 3–4): a 512x256 DEM on a
    /// 4x2 tile grid under the `tutorial` prefix, always cold.
    pub fn tutorial(seed: u64) -> DagConfig {
        DagConfig {
            width: 512,
            height: 256,
            tiles: (4, 2),
            manifest_key: None,
            prefix: "tutorial".into(),
            ..DagConfig::small(seed)
        }
    }

    fn dem_config(&self) -> DemConfig {
        DemConfig::conus_like(self.width, self.height, self.seed)
    }

    /// Check the config before any task runs, naming the offending field,
    /// and build the dataset header `dataset-init` writes.
    fn checked_meta(&self) -> Result<IdxMeta> {
        let bad = |f: &str, why: String| NsdfError::invalid(format!("DagConfig.{f}: {why}"));
        let (w, h, (tx, ty)) = (self.width, self.height, self.tiles);
        if w == 0 || h == 0 {
            return Err(bad("width", format!("the grid {w}x{h} is empty")));
        }
        if tx == 0 || ty == 0 || tx > w || ty > h {
            return Err(bad("tiles", format!("a {tx}x{ty} tile grid does not fit {w}x{h}")));
        }
        if let Some(e) = self.edits.iter().find(|e| e.x >= w || e.y >= h) {
            return Err(bad("edits", format!("({}, {}) is outside {w}x{h}", e.x, e.y)));
        }
        let fields = DagConfig::field_names().into_iter().map(|n| Field::new(n, DType::F32));
        let fields = fields.collect::<Result<Vec<_>>>()?;
        let (bits, codec) = (self.bits_per_block, self.codec);
        let meta = IdxMeta::new_2d("dag-terrain", w as u64, h as u64, fields, bits, codec)
            .map_err(|e| bad("bits_per_block", e.to_string()))?;
        Ok(meta.with_geo(GeoTransform::north_up(0.0, 0.0, self.dem_config().pixel_size_m)))
    }

    /// How a graph built from this config runs: its threads, its store,
    /// its manifest and its schedule.
    pub(crate) fn run_options(&self, clock: SimClock, store: &Arc<dyn ObjectStore>) -> RunOptions {
        let mut opts =
            RunOptions::new(clock).with_threads(self.threads).with_store(Arc::clone(store));
        if let Some(key) = &self.manifest_key {
            opts = opts.with_manifest(format!("{}/{key}", self.prefix));
        }
        if self.sequential {
            opts = opts.sequential();
        }
        opts
    }

    /// Paste the `{field}/{tx}_{ty}` tile inputs of `ctx` into one mosaic
    /// of the grid: the raster `ingest/{field}` writes and `static/{field}`
    /// measures against.
    pub(crate) fn mosaic(
        &self,
        ctx: &TaskCtx,
        field: &str,
        plan: &TilePlan,
    ) -> Result<Raster<f32>> {
        let (w, h) = (self.width, self.height);
        let mut mosaic = Raster::<f32>::zeros(w, h);
        for ty in 0..plan.tiles_y {
            for tx in 0..plan.tiles_x {
                let interior = plan.tile_box(w, h, tx, ty);
                let tile = read_tiff::<f32>(ctx.input_bytes(&format!("{field}/{tx}_{ty}"))?)?;
                mosaic.paste(&tile, interior.x0 as usize, interior.y0 as usize)?;
            }
        }
        Ok(mosaic)
    }

    /// The five IDX field names: four terrain parameters plus moisture.
    pub fn field_names() -> Vec<&'static str> {
        let mut names: Vec<&'static str> = TerrainParam::all().iter().map(|p| p.name()).collect();
        names.push("moisture");
        names
    }
}

/// Result of one DAG pipeline run.
#[derive(Debug)]
pub struct DagReport {
    /// Full run report (statuses, waves, fingerprints, artifacts).
    pub run: GraphRun,
    /// Per-field content digest of the ingested-and-validated mosaic —
    /// the quantity differential tests compare bitwise.
    pub digests: BTreeMap<String, String>,
    /// End-to-end virtual seconds.
    pub virtual_secs: f64,
}

fn tile_name(tx: usize, ty: usize) -> String {
    format!("{tx}_{ty}")
}

fn raster_digest(r: &Raster<f32>) -> String {
    let mut h = Fnv1a::new();
    for v in r.data() {
        h.update(&v.to_le_bytes());
    }
    format!("{:016x}", h.digest())
}

/// Build the task graph for `cfg` against `store`.
///
/// Kept separate from [`run_terrain_dag`] so tests can interrogate the
/// graph structure (e.g. [`TaskGraph::dependency_cone`]) directly. An
/// invalid `cfg` fails here, before any task runs, naming its field.
pub fn build_terrain_graph(
    client: &NsdfClient,
    cfg: &DagConfig,
) -> Result<(TaskGraph, Arc<dyn ObjectStore>)> {
    let meta = cfg.checked_meta()?;
    let store = client.store(&cfg.storage_endpoint)?;
    let obs = client.obs().scoped("dag");
    let (w, h) = (cfg.width, cfg.height);
    let plan = TilePlan::new(cfg.tiles.0, cfg.tiles.1, 1)?;
    let dem_cfg = cfg.dem_config();
    let pixel_m = dem_cfg.pixel_size_m;
    let bounds = Box2i::new(0, 0, w as i64, h as i64);
    let mut g = TaskGraph::new("four-step-dag");

    // --- Step 1a: DEM tile generation (parallel, no deps). ------------
    for ty in 0..cfg.tiles.1 {
        for tx in 0..cfg.tiles.0 {
            let tn = tile_name(tx, ty);
            let interior = plan.tile_box(w, h, tx, ty);
            // Only edits landing inside this tile affect its content, so
            // only those enter the task definition — unedited tiles keep
            // their fingerprints across an edit.
            let tile_edits: Vec<DemEdit> =
                cfg.edits.iter().copied().filter(|e| e.within(&interior)).collect();
            let definition = format!("{dem_cfg:?}|{interior:?}|{tile_edits:?}");
            let dem_cfg = dem_cfg.clone();
            g.add_task(format!("gen/{tn}"), &[], &definition, {
                let prefix = cfg.prefix.clone();
                move |ctx| {
                    let tile = dem_cfg.generate_window(interior, &tile_edits)?;
                    ctx.charge_compute_ns(interior.area() as u64 * GEN_NS_PER_PX);
                    let bytes = write_tiff(&tile, TiffCompression::None)?;
                    Ok(vec![TaskOutput::payload(
                        format!("dem/{tn}"),
                        format!("{prefix}/dem/{tn}.tif"),
                        bytes,
                    )])
                }
            })?;
        }
    }

    // --- Step 1b: terrain parameters per tile with halo edges. --------
    for param in TerrainParam::all() {
        for ty in 0..cfg.tiles.1 {
            for tx in 0..cfg.tiles.0 {
                let tn = tile_name(tx, ty);
                let interior = plan.tile_box(w, h, tx, ty);
                let padded = interior
                    .inflate(1)
                    .intersect(&bounds)
                    .ok_or_else(|| NsdfError::invalid("tile outside DEM bounds"))?;
                // Halo-exchange edges: the clamped 3x3 neighborhood.
                let mut neighbors = Vec::new();
                for ny in ty.saturating_sub(1)..(ty + 2).min(cfg.tiles.1) {
                    for nx in tx.saturating_sub(1)..(tx + 2).min(cfg.tiles.0) {
                        neighbors.push((nx, ny));
                    }
                }
                let dep_names: Vec<String> = neighbors
                    .iter()
                    .map(|(nx, ny)| format!("gen/{}", tile_name(*nx, *ny)))
                    .collect();
                let deps: Vec<&str> = dep_names.iter().map(String::as_str).collect();
                let definition = format!("{}|halo=1|{interior:?}|px={pixel_m}", param.name());
                let plan = plan.clone();
                g.add_task(format!("{}/{tn}", param.name()), &deps, &definition, {
                    let prefix = cfg.prefix.clone();
                    move |ctx| {
                        // Reassemble the padded window by pasting each
                        // neighbor interior's overlap — identical bytes to
                        // windowing the full DEM, so the Horn stencil sees
                        // exactly what the untiled kernel would.
                        let mut dem =
                            Raster::<f32>::zeros(padded.width() as usize, padded.height() as usize);
                        for &(nx, ny) in &neighbors {
                            let n_interior = plan.tile_box(w, h, nx, ny);
                            let Some(overlap) = n_interior.intersect(&padded) else { continue };
                            let n_tile = read_tiff::<f32>(
                                ctx.input_bytes(&format!("dem/{}", tile_name(nx, ny)))?,
                            )?;
                            let local = Box2i::new(
                                overlap.x0 - n_interior.x0,
                                overlap.y0 - n_interior.y0,
                                overlap.x1 - n_interior.x0,
                                overlap.y1 - n_interior.y0,
                            );
                            dem.paste(
                                &n_tile.window(local)?,
                                (overlap.x0 - padded.x0) as usize,
                                (overlap.y0 - padded.y0) as usize,
                            )?;
                        }
                        let dem = dem.with_geo(GeoTransform::north_up(0.0, 0.0, pixel_m));
                        let full = compute_terrain(&dem, param, Sun::default())?;
                        ctx.charge_compute_ns(padded.area() as u64 * TERRAIN_NS_PER_PX);
                        let crop = Box2i::new(
                            interior.x0 - padded.x0,
                            interior.y0 - padded.y0,
                            interior.x1 - padded.x0,
                            interior.y1 - padded.y0,
                        );
                        let tile = full.window(crop)?;
                        Ok(vec![TaskOutput::payload(
                            format!("{}/{tn}", param.name()),
                            format!("{prefix}/{}/{tn}.tif", param.name()),
                            write_tiff(&tile, TiffCompression::None)?,
                        )])
                    }
                })?;
            }
        }
    }

    // --- Step 1c: SOMOSPIE moisture per tile. -------------------------
    for ty in 0..cfg.tiles.1 {
        for tx in 0..cfg.tiles.0 {
            let tn = tile_name(tx, ty);
            let dep_names: Vec<String> =
                ["elevation", "slope", "aspect"].iter().map(|p| format!("{p}/{tn}")).collect();
            let deps: Vec<&str> = dep_names.iter().map(String::as_str).collect();
            let params = cfg.moisture.clone();
            let definition = format!("{params:?}");
            g.add_task(format!("moisture/{tn}"), &deps, &definition, {
                let prefix = cfg.prefix.clone();
                move |ctx| {
                    let elev = read_tiff::<f32>(ctx.input_bytes(&format!("elevation/{tn}"))?)?;
                    let slope = read_tiff::<f32>(ctx.input_bytes(&format!("slope/{tn}"))?)?;
                    let aspect = read_tiff::<f32>(ctx.input_bytes(&format!("aspect/{tn}"))?)?;
                    let tile = downscale_tile(&elev, &slope, &aspect, &params)?;
                    ctx.charge_compute_ns(elev.len() as u64 * MOISTURE_NS_PER_PX);
                    Ok(vec![TaskOutput::payload(
                        format!("moisture/{tn}"),
                        format!("{prefix}/moisture/{tn}.tif"),
                        write_tiff(&tile.predicted, TiffCompression::None)?,
                    )])
                }
            })?;
        }
    }

    // --- Step 2a: IDX dataset creation (exclusive). -------------------
    let header_key = format!("{}/idx/dataset.idx", cfg.prefix);
    let init_def = format!(
        "dims={w}x{h}|fields={:?}|bits={}|codec={:?}|px={pixel_m}",
        DagConfig::field_names(),
        cfg.bits_per_block,
        cfg.codec
    );
    g.add_exclusive_task("dataset-init", &[], &init_def, {
        let store = Arc::clone(&store);
        let prefix = cfg.prefix.clone();
        let header_key = header_key.clone();
        move |ctx| {
            IdxDataset::create(Arc::clone(&store), &format!("{prefix}/idx"), meta.clone())?;
            ctx.charge_compute_ns(INIT_NS);
            let header = store.get(&header_key)?;
            Ok(vec![TaskOutput::Stored(nsdf_workflow::Artifact::of_bytes(
                "idx/meta",
                &header,
                &header_key,
            ))])
        }
    })?;

    // --- Steps 2b–3: per-field mosaic ingest + digest validation. -----
    for field in DagConfig::field_names() {
        let mut dep_names = vec!["dataset-init".to_string()];
        for ty in 0..cfg.tiles.1 {
            for tx in 0..cfg.tiles.0 {
                dep_names.push(format!("{field}/{}", tile_name(tx, ty)));
            }
        }
        let deps: Vec<&str> = dep_names.iter().map(String::as_str).collect();
        let ingest_def = format!("ingest|{field}|wc={}", cfg.write_concurrency);
        g.add_exclusive_task(format!("ingest/{field}"), &deps, &ingest_def, {
            let store = Arc::clone(&store);
            let obs = obs.clone();
            let (cfg, plan) = (cfg.clone(), plan.clone());
            move |ctx| {
                let mosaic = cfg.mosaic(ctx, field, &plan)?;
                let ds = IdxDataset::open(Arc::clone(&store), &format!("{}/idx", cfg.prefix))?
                    .with_obs(&obs)
                    .with_write_concurrency(cfg.write_concurrency);
                ds.write_raster(field, 0, &mosaic)?;
                ctx.charge_compute_ns(mosaic.len() as u64 * INGEST_NS_PER_PX);
                Ok(vec![TaskOutput::payload(
                    format!("digest/{field}"),
                    format!("{}/digest/{field}", cfg.prefix),
                    raster_digest(&mosaic).into_bytes(),
                )])
            }
        })?;

        // A lossy codec cannot reproduce the ingest digest: its read-back
        // is hashed as is, and the codec joins the definition so a change
        // of rate re-validates.
        let lossy = matches!(cfg.codec, Codec::FixedRate { .. });
        let lossy_def = if lossy { format!("|{:?}", cfg.codec) } else { String::new() };
        let ingest_name = format!("ingest/{field}");
        g.add_exclusive_task(
            format!("validate/{field}"),
            &[ingest_name.as_str()],
            &format!("validate|{field}{lossy_def}"),
            {
                let store = Arc::clone(&store);
                let obs = obs.clone();
                let prefix = cfg.prefix.clone();
                move |ctx| {
                    let ds = IdxDataset::open(Arc::clone(&store), &format!("{prefix}/idx"))?
                        .with_obs(&obs);
                    let (back, _stats) = ds.read_full::<f32>(field, 0)?;
                    ctx.charge_compute_ns(back.len() as u64 * VALIDATE_NS_PER_PX);
                    let expect = ctx.input_bytes(&format!("digest/{field}"))?;
                    let got = raster_digest(&back);
                    if !lossy && got.as_bytes() != expect {
                        return Err(NsdfError::corrupt(format!(
                            "field {field:?}: read-back digest {got} != ingest digest {:?}",
                            String::from_utf8_lossy(expect)
                        )));
                    }
                    Ok(vec![TaskOutput::payload(
                        format!("validated/{field}"),
                        format!("{prefix}/validated/{field}"),
                        got.into_bytes(),
                    )])
                }
            },
        )?;
    }

    Ok((g, store))
}

/// Run the four-step pipeline as a task DAG on `client`.
///
/// Errors if any task fails; otherwise returns the run report plus the
/// per-field validated mosaic digests.
pub fn run_terrain_dag(client: &NsdfClient, cfg: &DagConfig) -> Result<DagReport> {
    let (graph, store) = build_terrain_graph(client, cfg)?;
    let run = graph.run(&cfg.run_options(client.clock().clone(), &store))?;
    if !run.succeeded() {
        return Err(NsdfError::invalid(format!(
            "dag pipeline failed: {}",
            run.first_error().unwrap_or("unknown task failure")
        )));
    }
    let mut digests = BTreeMap::new();
    for field in DagConfig::field_names() {
        let bytes = store.get(&format!("{}/validated/{field}", cfg.prefix))?;
        let digest = String::from_utf8(bytes)
            .map_err(|_| NsdfError::corrupt(format!("digest for {field:?} is not utf-8")))?;
        digests.insert(field.to_string(), digest);
    }
    let virtual_secs = run.virtual_secs();
    Ok(DagReport { run, digests, virtual_secs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NsdfClient;
    use nsdf_workflow::TaskStatus;

    #[test]
    fn dag_pipeline_runs_and_validates_all_fields() {
        let client = NsdfClient::simulated(11);
        let cfg = DagConfig::small(11);
        let report = run_terrain_dag(&client, &cfg).unwrap();
        assert!(report.run.succeeded());
        assert_eq!(report.run.records.len(), 16 + 64 + 16 + 1 + 5 + 5);
        assert_eq!(report.run.count(TaskStatus::Succeeded), 107);
        assert_eq!(report.digests.len(), 5);
        assert!(report.virtual_secs > 0.0);
    }

    #[test]
    fn second_run_is_fully_up_to_date() {
        let client = NsdfClient::simulated(12);
        let cfg = DagConfig::small(12);
        run_terrain_dag(&client, &cfg).unwrap();
        let rerun = run_terrain_dag(&client, &cfg).unwrap();
        assert_eq!(rerun.run.count(TaskStatus::UpToDate), 107);
        assert_eq!(rerun.run.count(TaskStatus::Succeeded), 0);
    }

    #[test]
    fn lossy_codec_runs_and_hashes_its_read_back() {
        let client = NsdfClient::simulated(14);
        let mut cfg = DagConfig::small(14);
        cfg.codec = Codec::FixedRate { bits: 12 };
        let report = run_terrain_dag(&client, &cfg).unwrap();
        assert_eq!(report.run.count(TaskStatus::Succeeded), 107);
        let lossless = run_terrain_dag(&NsdfClient::simulated(14), &DagConfig::small(14)).unwrap();
        assert_ne!(report.digests, lossless.digests, "the lossy read-back is hashed as is");
    }

    /// Each invalid config fails before any task runs, naming its field.
    fn rejected(edit: impl FnOnce(&mut DagConfig)) -> String {
        let client = NsdfClient::simulated(15);
        let mut cfg = DagConfig::small(15);
        edit(&mut cfg);
        let err = run_terrain_dag(&client, &cfg).unwrap_err();
        assert!(matches!(err, NsdfError::InvalidArg(_)), "{err}");
        assert!(client.store("seal").unwrap().list("").unwrap().is_empty(), "a task ran: {err}");
        err.to_string()
    }

    #[test]
    fn edit_outside_the_grid_is_rejected() {
        let err = rejected(|c| c.edits = vec![DemEdit { x: 10_000, y: 5, delta_m: 1.0 }]);
        assert!(err.contains("DagConfig.edits: (10000, 5) is outside 128x96"), "{err}");
    }

    #[test]
    fn tile_grid_larger_than_the_dem_is_rejected() {
        let err = rejected(|c| (c.width, c.height) = (3, 3));
        assert!(err.contains("DagConfig.tiles: a 4x4 tile grid does not fit 3x3"), "{err}");
    }

    #[test]
    fn empty_grid_is_rejected() {
        let err = rejected(|c| c.width = 0);
        assert!(err.contains("DagConfig.width: the grid 0x96 is empty"), "{err}");
    }

    #[test]
    fn bad_bits_per_block_is_rejected() {
        let err = rejected(|c| c.bits_per_block = 40);
        assert!(err.contains("DagConfig.bits_per_block: ") && err.contains("4..=28"), "{err}");
    }

    #[test]
    fn terrain_tiles_match_untiled_kernel_bitwise() {
        // The DAG's halo reassembly must agree with computing each
        // parameter over the whole DEM — the GEOtiled accuracy claim.
        let client = NsdfClient::simulated(13);
        let mut cfg = DagConfig::small(13);
        cfg.storage_endpoint = "local".into();
        let report = run_terrain_dag(&client, &cfg).unwrap();
        let store = client.store("local").unwrap();
        let dem = cfg.dem_config().generate();
        let plan = TilePlan::new(cfg.tiles.0, cfg.tiles.1, 1).unwrap();
        for param in TerrainParam::all() {
            let full = compute_terrain(&dem, param, Sun::default()).unwrap();
            for ty in 0..cfg.tiles.1 {
                for tx in 0..cfg.tiles.0 {
                    let interior = plan.tile_box(cfg.width, cfg.height, tx, ty);
                    let key = format!("{}/{}/{tx}_{ty}.tif", cfg.prefix, param.name());
                    let tile = read_tiff::<f32>(&store.get(&key).unwrap()).unwrap();
                    let expect = full.window(interior).unwrap();
                    assert_eq!(
                        tile.data(),
                        expect.data(),
                        "{} tile ({tx},{ty}) diverges from untiled kernel",
                        param.name()
                    );
                }
            }
        }
        drop(report);
    }
}
