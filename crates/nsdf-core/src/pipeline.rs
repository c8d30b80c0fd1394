//! The four-step tutorial workflow (paper §IV, Figs. 3–4): data
//! generation → conversion to IDX → static visualization/validation →
//! interactive visualization & analysis — as a chain of four exclusive
//! tasks on the [`nsdf_workflow::graph`] engine over an [`NsdfClient`].
//!
//! Data crosses steps as artifacts, the way Fig. 3 draws it: step 1 hands
//! the four TIFFs to the engine, which uploads them in one batch; step 2
//! converts them and hands on the dataset header, the one hashed object
//! that stands for the IDX dataset; step 3 validates the read-back against
//! the TIFFs and hands on its PPMs; step 4 hands back the snipped script
//! and array. So every artifact in the run report is a stored object with
//! its size and checksum; report-only results (ingest and read-back
//! accounting, accuracy, interactions) leave through one `StepResults`.
//!
//! Timing model: storage operations charge the shared virtual clock
//! through the WAN simulation; compute stages charge the *modelled*
//! per-pixel costs [`crate::dag`] owns, through
//! [`nsdf_workflow::TaskCtx::charge_compute_ns`]. No host wall time
//! reaches the clock, so the run report reads as one coherent timeline
//! that repeats bit for bit for a seed; with one step per wave, step `k`
//! took [`GraphRun::wave_secs`]`(k)`. Wall-clock codec throughput
//! ([`TutorialReport::encode_mb_s`]) is a report field, never a charge.

use crate::client::NsdfClient;
use crate::dag::{GEN_NS_PER_PX, INGEST_NS_PER_PX, TERRAIN_NS_PER_PX, VALIDATE_NS_PER_PX};
use nsdf_compress::Codec;
use nsdf_dashboard::{Colormap, Dashboard, FrameInfo, RangeMode};
use nsdf_geotiled::{compute_terrain_tiled_obs, DemConfig, Sun, TerrainParam, TilePlan};
use nsdf_idx::{Field, IdxDataset, IdxMeta, QueryStats, WriteStats};
use nsdf_tiff::{read_tiff, write_tiff, TiffCompression};
use nsdf_util::{samples_to_bytes, AccuracyReport, Box2i, DType, NsdfError, Result};
use nsdf_workflow::{Artifact, GraphRun, RunOptions, TaskGraph, TaskOutput, TaskStatus};
use std::sync::{Arc, Mutex};

/// Configuration of one tutorial run.
#[derive(Debug, Clone)]
pub struct TutorialConfig {
    /// DEM width in pixels.
    pub width: usize,
    /// DEM height in pixels.
    pub height: usize,
    /// Master seed.
    pub seed: u64,
    /// GEOtiled tile grid.
    pub tiles: (usize, usize),
    /// Worker threads for tiled computation.
    pub threads: usize,
    /// Block codec for the IDX dataset.
    pub codec: Codec,
    /// log2 samples per IDX block.
    pub bits_per_block: u32,
    /// Blocks uploaded per `put_many` batch during Step 2's conversion.
    pub write_concurrency: usize,
    /// Storage endpoint holding the TIFFs and the IDX dataset
    /// (`"local"`, `"dataverse"`, or `"seal"` on a simulated client).
    pub storage_endpoint: String,
    /// Dashboard viewport size in pixels.
    pub viewport_px: usize,
}

impl TutorialConfig {
    /// A Tennessee-scale run that completes in seconds.
    pub fn small(seed: u64) -> TutorialConfig {
        TutorialConfig {
            width: 512,
            height: 256,
            seed,
            tiles: (4, 2),
            threads: 4,
            codec: Codec::LzssHuff { sample_size: 4 },
            bits_per_block: 12,
            write_concurrency: 8,
            storage_endpoint: "seal".into(),
            viewport_px: 256,
        }
    }
}

/// One recorded dashboard interaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Interaction {
    /// Interaction label (`"overview"`, `"zoom"`, ...).
    pub label: String,
    /// Virtual seconds the interaction took (storage time).
    pub virtual_secs: f64,
    /// Frame metadata, when the interaction rendered one.
    pub frame: Option<FrameInfo>,
}

/// Everything a tutorial run produces.
#[derive(Debug)]
pub struct TutorialReport {
    /// Run report: one record per step (one step per wave) with its
    /// artifacts, plus the per-wave timeline.
    pub run: GraphRun,
    /// Total bytes of the four TIFFs (Step 1 output).
    pub tiff_bytes: u64,
    /// Total stored bytes of the IDX dataset (Step 2 output).
    pub idx_bytes: u64,
    /// Merged ingest accounting across Step 2's per-parameter writes.
    pub ingest: WriteStats,
    /// Merged read-back accounting across Step 3's validation queries.
    pub readback: QueryStats,
    /// Per-parameter accuracy of IDX-read-back vs the original rasters
    /// (Step 3's validation).
    pub accuracy: Vec<(TerrainParam, AccuracyReport)>,
    /// Scripted dashboard interactions (Step 4).
    pub interactions: Vec<Interaction>,
    /// End-to-end virtual seconds.
    pub total_virtual_secs: f64,
}

impl TutorialReport {
    /// IDX size as a fraction of TIFF size — the §IV-B "~20 % smaller"
    /// number is `1 - size_ratio`.
    pub fn size_ratio(&self) -> f64 {
        if self.tiff_bytes == 0 {
            1.0
        } else {
            self.idx_bytes as f64 / self.tiff_bytes as f64
        }
    }

    /// True when every parameter validated bit-exactly in Step 3.
    pub fn validation_exact(&self) -> bool {
        !self.accuracy.is_empty() && self.accuracy.iter().all(|(_, r)| r.is_exact())
    }

    /// Wall-clock codec encode throughput of Step 2's ingest, in MB/s
    /// (raw bytes over `encode_secs`), when any encoding was timed.
    pub fn encode_mb_s(&self) -> Option<f64> {
        (self.ingest.encode_secs > 0.0)
            .then(|| self.ingest.bytes_raw as f64 / (1 << 20) as f64 / self.ingest.encode_secs)
    }

    /// Wall-clock codec decode throughput of Step 3's read-back, in MB/s
    /// (decoded bytes over `decode_secs`), when any decoding was timed.
    pub fn decode_mb_s(&self) -> Option<f64> {
        (self.readback.decode_secs > 0.0).then(|| {
            self.readback.bytes_decoded as f64 / (1 << 20) as f64 / self.readback.decode_secs
        })
    }

    /// Human-readable run summary: sizes, validation, timings, and the
    /// wall-clock codec throughput both directions.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("== NSDF tutorial summary ==\n");
        let _ = writeln!(out, "TIFF bytes:   {}", self.tiff_bytes);
        let _ = writeln!(
            out,
            "IDX bytes:    {} ({:.1} % of TIFF)",
            self.idx_bytes,
            self.size_ratio() * 100.0
        );
        let _ = writeln!(
            out,
            "validation:   {}",
            if self.validation_exact() { "bit-exact" } else { "lossy" }
        );
        let _ = writeln!(out, "virtual time: {:.3}s", self.total_virtual_secs);
        if let Some(v) = self.encode_mb_s() {
            let _ = writeln!(out, "encode:       {v:.1} MB/s (wall clock)");
        }
        if let Some(v) = self.decode_mb_s() {
            let _ = writeln!(out, "decode:       {v:.1} MB/s (wall clock)");
        }
        out
    }
}

/// Report-only results the step closures hand out beside their artifacts.
#[derive(Default)]
struct StepResults {
    ingest: WriteStats,
    readback: QueryStats,
    accuracy: Vec<(TerrainParam, AccuracyReport)>,
    interactions: Vec<Interaction>,
}

/// The four steps, in order: task names, span labels and Fig. 4's rows.
const GENERATE: &str = "1-data-generation";
const CONVERT: &str = "2-convert-to-idx";
const VISUALIZE: &str = "3-static-visualization";
const DASHBOARD: &str = "4-interactive-dashboard";

fn tiff_name(param: TerrainParam) -> String {
    format!("{}.tif", param.name())
}

/// Run the four-step workflow. See module docs for the data flow and the
/// timing model.
pub fn run_tutorial(client: &NsdfClient, cfg: &TutorialConfig) -> Result<TutorialReport> {
    if cfg.width == 0 || cfg.height == 0 {
        return Err(NsdfError::invalid("tutorial grid must be non-empty"));
    }
    let store = client.store(&cfg.storage_endpoint)?;
    let clock = client.clock().clone();
    let obs = client.obs().scoped("tutorial");
    let results = Arc::new(Mutex::new(StepResults::default()));
    let definition = format!("{cfg:?}");
    let mut g = TaskGraph::new("nsdf-tutorial");

    // ---- Step 1: data generation (GEOtiled) -------------------------------
    let (cfg1, obs1) = (cfg.clone(), obs.clone());
    g.add_exclusive_task(GENERATE, &[], &definition, move |ctx| {
        let _step_span = obs1.span(GENERATE);
        let dem = DemConfig::conus_like(cfg1.width, cfg1.height, cfg1.seed).generate();
        ctx.charge_compute_ns(dem.len() as u64 * GEN_NS_PER_PX);
        let plan = TilePlan::new(cfg1.tiles.0, cfg1.tiles.1, 1)?;
        let mut tiffs = Vec::new();
        for param in TerrainParam::all() {
            let (raster, stats) =
                compute_terrain_tiled_obs(&dem, param, Sun::default(), &plan, cfg1.threads, &obs1)?;
            ctx.charge_compute_ns(stats.pixels_computed * TERRAIN_NS_PER_PX);
            tiffs.push(TaskOutput::payload(
                tiff_name(param),
                format!("tutorial/tiff/{}", tiff_name(param)),
                write_tiff(&raster, TiffCompression::None)?,
            ));
        }
        Ok(tiffs)
    })?;

    // ---- Step 2: conversion to IDX ----------------------------------------
    let (cfg2, store2, obs2, results2) = (cfg.clone(), store.clone(), obs.clone(), results.clone());
    g.add_exclusive_task(CONVERT, &[GENERATE], &definition, move |ctx| {
        let _step_span = obs2.span(CONVERT);
        let mut rasters = Vec::new();
        let mut fields = Vec::new();
        for param in TerrainParam::all() {
            rasters.push((param, read_tiff::<f32>(ctx.input_bytes(&tiff_name(param))?)?));
            fields.push(Field::new(param.name(), DType::F32)?);
        }
        let mut meta = IdxMeta::new_2d(
            "tutorial-terrain",
            cfg2.width as u64,
            cfg2.height as u64,
            fields,
            cfg2.bits_per_block,
            cfg2.codec,
        )?;
        if let Some(g) = rasters[0].1.geo {
            meta = meta.with_geo(g);
        }
        let ds = IdxDataset::create(store2.clone(), "tutorial/idx", meta)?
            .with_obs(&obs2)
            .with_write_concurrency(cfg2.write_concurrency);
        let mut ingest = WriteStats::default();
        for (param, raster) in &rasters {
            ingest.merge(&ds.write_raster(param.name(), 0, raster)?);
            ctx.charge_compute_ns(raster.len() as u64 * INGEST_NS_PER_PX);
        }
        results2.lock().expect("step results poisoned").ingest = ingest;
        // The block objects stay behind the dataset; the header is the
        // one hashed object that stands for it on the edges below.
        let header_key = "tutorial/idx/dataset.idx";
        let header = store2.get(header_key)?;
        Ok(vec![TaskOutput::Stored(Artifact::of_bytes("dataset.idx", &header, header_key))])
    })?;

    // ---- Step 3: static visualization & validation -------------------------
    let (store3, obs3, results3) = (store.clone(), obs.clone(), results.clone());
    g.add_exclusive_task(VISUALIZE, &[GENERATE, CONVERT], &definition, move |ctx| {
        let _step_span = obs3.span(VISUALIZE);
        let ds = IdxDataset::open(store3.clone(), "tutorial/idx")?.with_obs(&obs3);
        let mut accuracy = Vec::new();
        let mut readback = QueryStats::default();
        let mut ppms = Vec::new();
        for param in TerrainParam::all() {
            let original = read_tiff::<f32>(ctx.input_bytes(&tiff_name(param))?)?;
            let (from_idx, q) = ds.read_full::<f32>(param.name(), 0)?;
            readback.merge(&q);
            accuracy.push((param, AccuracyReport::compare(&original, &from_idx)?));
            let img = nsdf_dashboard::render(&from_idx, Colormap::Terrain, RangeMode::Dynamic)?;
            ctx.charge_compute_ns(from_idx.len() as u64 * VALIDATE_NS_PER_PX);
            ppms.push(TaskOutput::payload(
                format!("{}.ppm", param.name()),
                format!("tutorial/static/{}.ppm", param.name()),
                img.to_ppm(),
            ));
        }
        let mut results = results3.lock().expect("step results poisoned");
        results.accuracy = accuracy;
        results.readback = readback;
        Ok(ppms)
    })?;

    // ---- Step 4: interactive visualization & analysis ----------------------
    let (cfg4, store4, obs4, results4) = (cfg.clone(), store.clone(), obs.clone(), results.clone());
    g.add_exclusive_task(DASHBOARD, &[CONVERT, VISUALIZE], &definition, move |ctx| {
        let _step_span = obs4.span(DASHBOARD);
        let ds = Arc::new(IdxDataset::open(store4.clone(), "tutorial/idx")?.with_obs(&obs4));
        let mut dash = Dashboard::new();
        dash.set_obs(&obs4);
        dash.add_dataset("tutorial-terrain", ds.clone());
        dash.select_dataset("tutorial-terrain")?;
        dash.set_viewport_px(cfg4.viewport_px)?;
        dash.set_colormap(Colormap::Terrain);

        let clock = ctx.clock();
        let mut interactions = Vec::new();
        let mut record = |label: &str, frame: Option<FrameInfo>, t0: f64| {
            interactions.push(Interaction {
                label: label.to_string(),
                virtual_secs: clock.now_secs() - t0,
                frame,
            });
        };

        let t = clock.now_secs();
        let (_, info) = dash.render_frame()?;
        record("overview", Some(info), t);

        let t = clock.now_secs();
        dash.zoom(4.0)?;
        let (_, info) = dash.render_frame()?;
        record("zoom-4x", Some(info), t);

        let t = clock.now_secs();
        dash.pan((cfg4.width / 8) as i64, 0)?;
        let (_, info) = dash.render_frame()?;
        record("pan", Some(info), t);

        let t = clock.now_secs();
        dash.select_field("slope")?;
        let (_, info) = dash.render_frame()?;
        record("switch-field", Some(info), t);

        let t = clock.now_secs();
        let region = dash.region();
        let quarter = Box2i::new(
            region.x0,
            region.y0,
            region.x0 + (region.width() / 2).max(1),
            region.y0 + (region.height() / 2).max(1),
        );
        let snip = dash.snip(quarter)?;
        record("snip", None, t);

        results4.lock().expect("step results poisoned").interactions = interactions;
        let script = snip.python_script.into_bytes();
        let array = samples_to_bytes(snip.raster.data());
        Ok(vec![
            TaskOutput::payload("snippet.py", "tutorial/snippets/extract.py", script),
            TaskOutput::payload("snippet.npy", "tutorial/snippets/region.npy", array),
        ])
    })?;

    let run_span = obs.span("run");
    let run = g.run(&RunOptions::new(clock).with_store(store))?;
    drop(run_span);
    if let Some(failed) = run.records.iter().find(|r| r.status == TaskStatus::Failed) {
        return Err(NsdfError::invalid(format!(
            "tutorial workflow failed at {:?}: {}",
            failed.name,
            failed.error.as_deref().unwrap_or_default()
        )));
    }

    let StepResults { ingest, readback, accuracy, interactions } =
        std::mem::take(&mut *results.lock().expect("step results poisoned"));
    Ok(TutorialReport {
        tiff_bytes: run.records[0].produced.iter().map(|a| a.bytes).sum(),
        idx_bytes: ingest.bytes_stored,
        ingest,
        readback,
        accuracy,
        interactions,
        total_virtual_secs: run.virtual_secs(),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{EndpointKind, StorageEndpoint};
    use nsdf_storage::{FailScope, FaultPlan, FaultStore, MemoryStore, ObjectStore};

    fn small_config(seed: u64, endpoint: &str) -> TutorialConfig {
        let mut cfg = TutorialConfig::small(seed);
        cfg.width = 128;
        cfg.height = 64;
        cfg.tiles = (2, 2);
        cfg.storage_endpoint = endpoint.into();
        cfg
    }

    fn run_small(endpoint: &str) -> TutorialReport {
        run_tutorial(&NsdfClient::simulated(5), &small_config(5, endpoint)).unwrap()
    }

    /// Labels of the step spans under the run's one root span. The
    /// engine's per-wave uploads open endpoint-scoped siblings between
    /// them, which this leaves out.
    fn step_spans(client: &NsdfClient) -> Vec<String> {
        let roots = client.obs().span_tree();
        assert_eq!(roots.len(), 1, "one root span for the whole run");
        assert_eq!(roots[0].label, "tutorial.run");
        let labels = roots[0].children.iter().map(|c| c.label.clone());
        labels.filter(|l| l.starts_with("tutorial.")).collect()
    }

    #[test]
    fn four_steps_all_succeed() {
        let report = run_small("seal");
        assert_eq!(report.run.records.len(), 4);
        assert!(report.run.succeeded());
        let names: Vec<&str> = report.run.records.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "1-data-generation",
                "2-convert-to-idx",
                "3-static-visualization",
                "4-interactive-dashboard"
            ]
        );
        // One step per wave, each costing virtual time; together they tile
        // the run to the nanosecond.
        let run = &report.run;
        assert!(run.records.iter().enumerate().all(|(k, r)| r.wave == k as u64));
        let mut marks = vec![run.started_ns];
        marks.extend(&run.wave_ended_ns);
        assert_eq!((marks.len(), marks[4]), (5, run.ended_ns));
        assert!(marks.windows(2).all(|w| w[0] < w[1]), "{marks:?}");
        let secs: f64 = run.records.iter().map(|r| run.wave_secs(r.wave)).sum();
        assert!((secs - report.total_virtual_secs).abs() < 1e-9);
    }

    #[test]
    fn idx_is_smaller_than_tiff_and_lossless() {
        let report = run_small("seal");
        assert!(report.tiff_bytes > 0 && report.idx_bytes > 0);
        assert!(
            report.size_ratio() < 1.0,
            "IDX {} vs TIFF {}",
            report.idx_bytes,
            report.tiff_bytes
        );
        assert!(report.validation_exact(), "lossless codec must validate exactly");
        assert_eq!(report.accuracy.len(), 4);
        // Step 2's merged ingest accounting agrees with the byte totals and
        // records the batched upload pipeline.
        assert_eq!(report.ingest.bytes_stored, report.idx_bytes);
        assert!(report.ingest.blocks_written > 0);
        assert_eq!(report.ingest.write_concurrency, 8);
        assert!(report.ingest.put_batches > 0);
        assert_eq!(report.ingest.rmw_fetches, 0, "full-raster conversion never RMWs");
        // Step 3's read-back accounting yields the wall-clock codec
        // throughput the summary panel prints.
        assert!(report.readback.blocks_decoded > 0);
        assert!(report.readback.bytes_decoded >= report.ingest.bytes_raw);
        assert!(report.encode_mb_s().unwrap() > 0.0);
        assert!(report.decode_mb_s().unwrap() > 0.0);
        let summary = report.summary();
        assert!(summary.contains("encode:") && summary.contains("decode:"), "{summary}");
        assert!(summary.contains("bit-exact"), "{summary}");
    }

    #[test]
    fn dashboard_interactions_recorded_with_time() {
        let report = run_small("dataverse");
        let labels: Vec<&str> = report.interactions.iter().map(|i| i.label.as_str()).collect();
        assert_eq!(labels, vec!["overview", "zoom-4x", "pan", "switch-field", "snip"]);
        // Step 2's write-through cache keeps step-4 reads warm (that is the
        // caching behaviour §III-A advertises), so interactions are nearly
        // free; the uploads earlier in the run must still have cost time.
        assert!(report.interactions.iter().all(|i| i.virtual_secs >= 0.0));
        assert!(report.total_virtual_secs > 0.0);
        assert!(report.interactions[0].frame.as_ref().unwrap().stats.blocks_touched > 0);
    }

    #[test]
    fn local_endpoint_has_zero_storage_time_for_interactions() {
        let report = run_small("local");
        // All data local: the memory store charges no time for reads, and
        // modelled compute lands on the clock only when a step returns.
        assert!(report.interactions.iter().all(|i| i.virtual_secs < 0.5));
        assert!(report.validation_exact());
    }

    /// Lineage links the steps, and every linked artifact is a real stored
    /// object: its location heads on the endpoint with the recorded size
    /// and checksum.
    #[test]
    fn provenance_lineage_links_steps() {
        let client = NsdfClient::simulated(5);
        let report = run_tutorial(&client, &small_config(5, "seal")).unwrap();
        let p = &report.run;
        assert_eq!(p.producer_of("elevation.tif").unwrap().name, "1-data-generation");
        let consumers = p.consumers_of("dataset.idx");
        assert_eq!(consumers.len(), 2); // steps 3 and 4

        let store = client.store("seal").unwrap();
        let produced: Vec<&Artifact> = p.records.iter().flat_map(|r| &r.produced).collect();
        assert_eq!(produced.len(), 4 + 1 + 4 + 2);
        for a in produced {
            let head = store.head(&a.location).unwrap();
            assert_eq!((head.size, head.checksum), (a.bytes, a.checksum), "{}", a.name);
        }
    }

    /// An endpoint that refuses every write fails step 1's upload: the
    /// error names the step and nothing downstream ran.
    #[test]
    fn failed_step_is_named_and_nothing_downstream_runs() {
        let mut client = NsdfClient::simulated(8);
        let inner: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let plan = FaultPlan::new(8).with_scope(FailScope::Writes).with_fault_rate(1.0);
        let faulty = FaultStore::new(Arc::clone(&inner), plan, client.clock().clone()).unwrap();
        client.add_endpoint(StorageEndpoint {
            name: "read-only".into(),
            kind: EndpointKind::Local,
            store: Arc::new(faulty),
        });
        let err = run_tutorial(&client, &small_config(8, "read-only")).unwrap_err().to_string();
        let want = "tutorial workflow failed at \"1-data-generation\": persist ";
        assert!(err.contains(want), "{err}");
        assert!(inner.list("").unwrap().is_empty(), "no object landed");
        assert_eq!(step_spans(&client), vec!["tutorial.1-data-generation"]);
    }

    #[test]
    fn tutorial_spans_attribute_steps_and_layers() {
        let client = NsdfClient::simulated(12);
        run_tutorial(&client, &small_config(12, "seal")).unwrap();

        assert_eq!(
            step_spans(&client),
            vec![
                "tutorial.1-data-generation",
                "tutorial.2-convert-to-idx",
                "tutorial.3-static-visualization",
                "tutorial.4-interactive-dashboard"
            ]
        );
        // Layers below the steps landed in the same registry.
        let snap = client.obs().snapshot();
        assert!(snap.counter("tutorial.geotiled.tiles") > 0);
        assert!(snap.counter("tutorial.idx.queries") > 0);
        assert!(snap.counter("tutorial.dashboard.frames") > 0);
        assert!(snap.counter("seal.wan.bytes_up") > 0, "tutorial stored on seal");
    }

    #[test]
    fn lossy_codec_reports_inexact_validation() {
        let mut cfg = small_config(6, "local");
        cfg.width = 64;
        cfg.codec = Codec::FixedRate { bits: 12 };
        let report = run_tutorial(&NsdfClient::simulated(6), &cfg).unwrap();
        assert!(!report.validation_exact());
        // But still close: PSNR above 40 dB for 12-bit terrain.
        for (p, acc) in &report.accuracy {
            assert!(acc.psnr_db > 40.0, "{}: {} dB", p.name(), acc.psnr_db);
        }
        assert!(report.size_ratio() < 0.5);
    }
}
