//! The four-step tutorial workflow (paper §IV, Figs. 3–4) as one task
//! graph: the terrain DAG of [`crate::dag`] (Steps 1–2 and the
//! digest-checked read-back) plus two kinds of task only the tutorial runs:
//! `static/{field}` reads one field back, measures it against the mosaic
//! of its tiles and renders a PPM (Step 3), and `dashboard` drives a
//! scripted interactive session that hands back a snipped region (Step 4).
//! [`step_of`] maps every task to one of the paper's four steps.

use crate::client::NsdfClient;
use crate::dag::{build_terrain_graph, DagConfig, VALIDATE_NS_PER_PX};
use nsdf_compress::Codec;
use nsdf_dashboard::{Colormap, Dashboard, FrameInfo, RangeMode};
use nsdf_geotiled::TilePlan;
use nsdf_idx::IdxDataset;
use nsdf_util::{samples_to_bytes, AccuracyReport, Box2i, NsdfError, Result};
use nsdf_workflow::{GraphRun, TaskOutput, TaskStatus};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Dashboard viewport size in pixels.
const VIEWPORT_PX: usize = 256;

/// The paper's four steps, in order: Fig. 4's rows.
const STEPS: [&str; 4] =
    ["1-data-generation", "2-convert-to-idx", "3-static-visualization", "4-interactive-dashboard"];

/// The paper's step the task named `task` belongs to: DEM, terrain
/// and moisture tiles are Step 1, `dataset-init` and `ingest/*` Step 2,
/// `validate/*` and `static/*` Step 3, and `dashboard` Step 4.
pub fn step_of(task: &str) -> &'static str {
    match task.split('/').next().unwrap_or(task) {
        "dataset-init" | "ingest" => STEPS[1],
        "validate" | "static" => STEPS[2],
        "dashboard" => STEPS[3],
        _ => STEPS[0],
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

/// One of the paper's four steps, folded from the run report (Fig. 4).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepRow {
    /// The step's name, as [`step_of`] gives it.
    pub step: &'static str,
    /// Tasks the step holds.
    pub tasks: usize,
    /// First and last wave a task of the step ran in.
    pub waves: (u64, u64),
    /// Modelled compute its tasks charged, in virtual ns.
    pub compute_ns: u64,
    /// Artifacts its tasks produced.
    pub artifacts: usize,
    /// Bytes of those artifacts.
    pub bytes: u64,
}

/// Everything a tutorial run produces.
#[derive(Debug)]
pub struct TutorialReport {
    /// Run report: one record per task, with its artifacts, plus the
    /// per-wave timeline.
    pub run: GraphRun,
    /// Total bytes of the field-tile TIFFs (Step 1 output).
    pub tiff_bytes: u64,
    /// Total stored bytes of the IDX dataset (Step 2 output).
    pub idx_bytes: u64,
    /// Per-field accuracy of the read-back vs the tile mosaic, from the
    /// `static/*` tasks this run executed.
    pub accuracy: BTreeMap<String, AccuracyReport>,
    /// Scripted dashboard interactions, when `dashboard` executed.
    pub interactions: Vec<Interaction>,
    /// End-to-end virtual seconds.
    pub total_virtual_secs: f64,
    lossless: bool,
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

    /// True when the codec is lossless and every field's digest-checked
    /// read-back (`validate/*`) succeeded or was verified up to date.
    pub fn validation_exact(&self) -> bool {
        let mut validations = self.run.records.iter().filter(|r| r.name.starts_with("validate/"));
        self.lossless
            && validations.all(|r| matches!(r.status, TaskStatus::Succeeded | TaskStatus::UpToDate))
    }

    /// Fig. 4's rows, which partition the run's tasks and artifacts.
    pub fn steps(&self) -> Vec<StepRow> {
        let mut rows =
            STEPS.map(|step| StepRow { step, waves: (u64::MAX, 0), ..StepRow::default() });
        for r in &self.run.records {
            let row = rows.iter_mut().find(|row| row.step == step_of(&r.name)).expect("a step");
            row.tasks += 1;
            row.waves = (row.waves.0.min(r.wave), row.waves.1.max(r.wave));
            row.compute_ns += r.compute_ns;
            row.artifacts += r.produced.len();
            row.bytes += r.produced.iter().map(|a| a.bytes).sum::<u64>();
        }
        rows.to_vec()
    }
}

/// Run the four-step workflow: the terrain DAG for `cfg` plus its Step 3
/// renders and Step 4 session.
pub fn run_tutorial(client: &NsdfClient, cfg: &DagConfig) -> Result<TutorialReport> {
    let (mut g, store) = build_terrain_graph(client, cfg)?;
    let obs = client.obs().scoped("tutorial");
    let accuracy = Arc::new(Mutex::new(BTreeMap::new()));
    let interactions = Arc::new(Mutex::new(Vec::new()));
    let plan = TilePlan::new(cfg.tiles.0, cfg.tiles.1, 1)?;
    let (w, prefix) = (cfg.width, cfg.prefix.clone());
    let idx_prefix = format!("{prefix}/idx");

    // ---- Step 3: static visualization, one task per field -----------------
    let mut statics = Vec::new();
    for field in DagConfig::field_names() {
        let mut deps = vec![format!("validate/{field}")];
        for ty in 0..cfg.tiles.1 {
            deps.extend((0..cfg.tiles.0).map(|tx| format!("{field}/{tx}_{ty}")));
        }
        let deps: Vec<&str> = deps.iter().map(String::as_str).collect();
        let name = format!("static/{field}");
        g.add_exclusive_task(name.as_str(), &deps, &name, {
            let (store, obs, accuracy) = (store.clone(), obs.clone(), accuracy.clone());
            let (cfg, plan, idx_prefix) = (cfg.clone(), plan.clone(), idx_prefix.clone());
            move |ctx| {
                let original = cfg.mosaic(ctx, field, &plan)?;
                let ds = IdxDataset::open(store.clone(), &idx_prefix)?.with_obs(&obs);
                let (from_idx, _) = ds.read_full::<f32>(field, 0)?;
                let report = AccuracyReport::compare(&original, &from_idx)?;
                accuracy.lock().expect("accuracy poisoned").insert(field.to_string(), report);
                let img = nsdf_dashboard::render(&from_idx, Colormap::Terrain, RangeMode::Dynamic)?;
                ctx.charge_compute_ns(from_idx.len() as u64 * VALIDATE_NS_PER_PX);
                let key = format!("{}/static/{field}.ppm", cfg.prefix);
                Ok(vec![TaskOutput::payload(format!("static/{field}"), key, img.to_ppm())])
            }
        })?;
        statics.push(name);
    }

    // ---- Step 4: interactive visualization & analysis ----------------------
    let deps: Vec<&str> = statics.iter().map(String::as_str).collect();
    g.add_exclusive_task("dashboard", &deps, &format!("dashboard|viewport={VIEWPORT_PX}"), {
        let (store, obs, results) = (store.clone(), obs.clone(), interactions.clone());
        let (idx_prefix, prefix) = (idx_prefix.clone(), prefix.clone());
        move |ctx| {
            let ds = Arc::new(IdxDataset::open(store.clone(), &idx_prefix)?.with_obs(&obs));
            let mut dash = Dashboard::new();
            dash.set_obs(&obs);
            dash.add_dataset("tutorial-terrain", ds.clone());
            dash.select_dataset("tutorial-terrain")?;
            dash.set_viewport_px(VIEWPORT_PX)?;
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
            dash.pan((w / 8) as i64, 0)?;
            let (_, info) = dash.render_frame()?;
            record("pan", Some(info), t);

            let t = clock.now_secs();
            dash.select_field("slope")?;
            let (_, info) = dash.render_frame()?;
            record("switch-field", Some(info), t);

            let t = clock.now_secs();
            let r = dash.region();
            let (qw, qh) = ((r.width() / 2).max(1), (r.height() / 2).max(1));
            let snip = dash.snip(Box2i::new(r.x0, r.y0, r.x0 + qw, r.y0 + qh))?;
            record("snip", None, t);

            *results.lock().expect("interactions poisoned") = interactions;
            let script = snip.python_script.into_bytes();
            let array = samples_to_bytes(snip.raster.data());
            Ok(vec![
                TaskOutput::payload("snippet.py", format!("{prefix}/snippets/extract.py"), script),
                TaskOutput::payload("snippet.npy", format!("{prefix}/snippets/region.npy"), array),
            ])
        }
    })?;

    let run_span = obs.span("run");
    let run = g.run(&cfg.run_options(client.clock().clone(), &store))?;
    drop(run_span);
    if let Some(failed) = run.records.iter().find(|r| r.status == TaskStatus::Failed) {
        return Err(NsdfError::invalid(format!(
            "tutorial workflow failed in step {:?} at task {:?}: {}",
            step_of(&failed.name),
            failed.name,
            failed.error.as_deref().unwrap_or_default()
        )));
    }

    let fields = DagConfig::field_names();
    let field_tiles = run.records.iter().filter(|r| fields.iter().any(|f| r.name.starts_with(f)));
    let tiff_bytes = field_tiles.flat_map(|r| &r.produced).map(|a| a.bytes).sum();
    let idx_bytes = store.list(&format!("{idx_prefix}/"))?.iter().map(|m| m.size).sum();
    let accuracy = std::mem::take(&mut *accuracy.lock().expect("accuracy poisoned"));
    let interactions = std::mem::take(&mut *interactions.lock().expect("interactions poisoned"));
    Ok(TutorialReport {
        tiff_bytes,
        idx_bytes,
        accuracy,
        interactions,
        total_virtual_secs: run.virtual_secs(),
        run,
        lossless: !matches!(cfg.codec, Codec::FixedRate { .. }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{EndpointKind, StorageEndpoint};
    use crate::dag::run_terrain_dag;
    use nsdf_storage::{FailScope, FaultPlan, FaultStore, MemoryStore, ObjectStore};
    use nsdf_workflow::Artifact;

    fn small_config(seed: u64, endpoint: &str) -> DagConfig {
        let mut cfg = DagConfig::tutorial(seed);
        cfg.width = 128;
        cfg.height = 64;
        cfg.tiles = (2, 2);
        cfg.storage_endpoint = endpoint.into();
        cfg
    }

    fn run_small(endpoint: &str) -> TutorialReport {
        run_tutorial(&NsdfClient::simulated(5), &small_config(5, endpoint)).unwrap()
    }

    #[test]
    fn four_steps_all_succeed() {
        let report = run_small("seal");
        let run = &report.run;
        // 4 DEM + 16 terrain + 4 moisture tiles, dataset-init, 5 ingests,
        // 5 validations, 5 renders and the dashboard.
        assert_eq!(run.records.len(), 4 + 16 + 4 + 1 + 5 + 5 + 5 + 1);
        assert_eq!(run.count(TaskStatus::Succeeded), run.records.len());
        let steps = report.steps();
        let rows: Vec<(&str, usize)> = steps.iter().map(|s| (s.step, s.tasks)).collect();
        assert_eq!(rows, vec![(STEPS[0], 24), (STEPS[1], 6), (STEPS[2], 10), (STEPS[3], 1)]);
        // The steps follow each other: none starts before the previous one
        // started, and the dashboard runs last, alone.
        assert!(steps.windows(2).all(|s| s[0].waves.0 <= s[1].waves.0), "{steps:?}");
        assert_eq!(steps[3].waves, (run.waves - 1, run.waves - 1));
        // The rows partition the run's artifacts.
        let produced = run.records.iter().flat_map(|r| &r.produced);
        assert_eq!(steps.iter().map(|s| s.artifacts).sum::<usize>(), produced.clone().count());
        assert_eq!(steps.iter().map(|s| s.bytes).sum::<u64>(), produced.map(|a| a.bytes).sum());
        // Every wave costs virtual time, and together the waves tile the
        // run to the nanosecond.
        let mut marks = vec![run.started_ns];
        marks.extend(&run.wave_ended_ns);
        assert_eq!((marks.len() as u64, marks[run.waves as usize]), (run.waves + 1, run.ended_ns));
        assert!(marks.windows(2).all(|w| w[0] < w[1]), "{marks:?}");
        let secs: f64 = (0..run.waves).map(|k| run.wave_secs(k)).sum();
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
        let fields: Vec<&str> = report.accuracy.keys().map(String::as_str).collect();
        assert_eq!(fields, vec!["aspect", "elevation", "hillshade", "moisture", "slope"]);
        assert!(report.accuracy.values().all(AccuracyReport::is_exact));
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
        // modelled compute lands on the clock only when a task returns.
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
        assert_eq!(p.producer_of("elevation/0_0").unwrap().name, "elevation/0_0");
        let readers: Vec<&str> =
            p.consumers_of("elevation/1_1").iter().map(|r| r.name.as_str()).collect();
        assert_eq!(readers, vec!["moisture/1_1", "ingest/elevation", "static/elevation"]);
        assert_eq!(p.consumers_of("idx/meta").len(), 5); // the ingests
        assert_eq!(p.consumers_of("validated/slope")[0].name, "static/slope");
        assert_eq!(p.consumers_of("static/moisture")[0].name, "dashboard");

        let store = client.store("seal").unwrap();
        let produced: Vec<&Artifact> = p.records.iter().flat_map(|r| &r.produced).collect();
        assert_eq!(produced.len(), 4 + 16 + 4 + 1 + 5 + 5 + 5 + 2);
        for a in produced {
            let head = store.head(&a.location).unwrap();
            assert_eq!((head.size, head.checksum), (a.bytes, a.checksum), "{}", a.name);
        }
    }

    /// An endpoint that refuses every write fails Step 1's uploads: the
    /// error names the step and the task, and nothing downstream ran.
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
        let want = "tutorial workflow failed in step \"1-data-generation\" at task \"gen/0_0\": \
                    persist ";
        assert!(err.contains(want), "{err}");
        assert!(inner.list("").unwrap().is_empty(), "no object landed");
        let snap = client.obs().snapshot();
        assert_eq!(snap.counter("dag.idx.queries") + snap.counter("tutorial.idx.queries"), 0);
        assert_eq!(snap.counter("tutorial.dashboard.frames"), 0);
    }

    #[test]
    fn tutorial_spans_attribute_steps_and_layers() {
        let client = NsdfClient::simulated(12);
        run_tutorial(&client, &small_config(12, "seal")).unwrap();

        let roots = client.obs().span_tree();
        assert_eq!(roots.len(), 1, "one root span for the whole run");
        assert_eq!(roots[0].label, "tutorial.run");
        // Layers below the tasks landed in the same registry: the DAG's
        // validations, the renders' read-back and the dashboard session.
        let snap = client.obs().snapshot();
        assert!(snap.counter("dag.idx.queries") > 0);
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
        assert!(report.run.succeeded());
        assert!(!report.validation_exact());
        // But still close: PSNR above 40 dB for 12-bit terrain.
        assert_eq!(report.accuracy.len(), 5);
        for (field, acc) in &report.accuracy {
            assert!(acc.psnr_db > 40.0, "{field}: {} dB", acc.psnr_db);
        }
        assert!(report.size_ratio() < 0.5);
    }

    /// The tutorial is the terrain DAG plus its Step 3–4 tasks: every DAG
    /// task's record and every validated digest match a plain DAG run.
    #[test]
    fn tutorial_runs_the_terrain_dag_unchanged() {
        let cfg = small_config(9, "seal");
        let tutorial = run_tutorial(&NsdfClient::simulated(9), &cfg).unwrap();
        let client = NsdfClient::simulated(9);
        let dag = run_terrain_dag(&client, &cfg).unwrap();
        assert_eq!(tutorial.run.records[..dag.run.records.len()], dag.run.records[..]);
        let store = client.store("seal").unwrap();
        for (field, digest) in &dag.digests {
            let key = format!("{}/validated/{field}", cfg.prefix);
            assert_eq!(store.get(&key).unwrap(), digest.as_bytes(), "{field}");
        }
    }

    #[test]
    fn rerun_with_manifest_is_up_to_date_and_still_exact() {
        let client = NsdfClient::simulated(10);
        let mut cfg = small_config(10, "seal");
        cfg.manifest_key = Some("manifest.json".into());
        let cold = run_tutorial(&client, &cfg).unwrap();
        assert_eq!(cold.run.count(TaskStatus::Succeeded), cold.run.records.len());
        let again = run_tutorial(&client, &cfg).unwrap();
        assert_eq!(again.run.count(TaskStatus::UpToDate), again.run.records.len());
        assert!(again.validation_exact());
        assert_eq!((again.tiff_bytes, again.idx_bytes), (cold.tiff_bytes, cold.idx_bytes));
        assert!(again.accuracy.is_empty() && again.interactions.is_empty(), "nothing re-ran");
    }
}
