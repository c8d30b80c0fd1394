//! `pipeline`: one participant walks tutorial Steps 1–3 and registers the
//! results — cold `run_terrain_dag`, catalog registration of every produced
//! artifact, then a one-DEM-cell edit and the incremental rerun.
//!
//! Why it exists: the compute + write path. `nsdf-somospie`,
//! `nsdf-geotiled`, `nsdf-workflow`, `nsdf-tiff` and caller-thread WAN puts
//! do nearly all the work; cache, scheduler contention and resilience do
//! none. The rerun uses the same layers differently (manifest `head`/verify
//! reads beside writes).
//!
//! User-visible op: one object made durable on the endpoint (tile, IDX
//! block, digest, manifest, catalog object), timed from the start of the
//! step that produced it (cold run / register / rerun) to the moment its
//! `put` is acknowledged — "when does my k-th result land".

use crate::gen::Rng;
use crate::metrics::{ratio, Delta};
use crate::stack::{self, Stack};
use crate::workload::{cpu_timed, timed, Phase, Rep};
use nsdf_catalog::{Catalog, CatalogConfig, Record};
use nsdf_compress::Codec;
use nsdf_core::dag::{build_terrain_graph, run_terrain_dag, DagConfig, DagReport};
use nsdf_core::{EndpointKind, StorageEndpoint};
use nsdf_geotiled::{compute_terrain, DemConfig, DemEdit, Sun, TerrainParam, TilePlan};
use nsdf_idx::{Field, IdxDataset, IdxMeta};
use nsdf_somospie::downscale_tile;
use nsdf_storage::{MemoryStore, ObjectMeta, ObjectStore};
use nsdf_tiff::{read_tiff, write_tiff, TiffCompression};
use nsdf_util::{Box2i, DType, Fnv1a, GeoTransform, NsdfError, Raster, Result, SimClock};
use nsdf_workflow::{GraphRun, TaskStatus};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

const ENDPOINT: &str = "seal";
const TILES: (usize, usize) = (4, 4);
/// The edit stays this many cells clear of its tile's border, so the
/// neighbours' terrain (halo 1) recomputes to identical bytes and the
/// content-hash cutoff trims their moisture tasks from the cone.
const EDIT_MARGIN: u64 = 8;

/// Seed-derived inputs, generated once per process.
pub struct Inputs {
    seed: u64,
    width: usize,
    height: usize,
    /// Digests of the four terrain fields computed untiled over the whole
    /// DEM — the oracle the tiled DAG must match bit for bit.
    expected: BTreeMap<String, String>,
    edit: DemEdit,
    edit_tile: (usize, usize),
    /// Wall seconds generating the above.
    pub generate_s: f64,
}

fn raster_digest(r: &Raster<f32>) -> String {
    let mut h = Fnv1a::new();
    for v in r.data() {
        h.update(&v.to_le_bytes());
    }
    format!("{:016x}", h.digest())
}

/// Generate the DEM oracle digests and pick the edited cell.
pub fn generate(seed: u64, quick: bool) -> Inputs {
    let (width, height) = if quick { (192, 144) } else { (768, 576) };
    let ((expected, edit, edit_tile), generate_s) = timed(|| {
        let dem = DemConfig::conus_like(width, height, seed).generate();
        let expected = TerrainParam::all()
            .iter()
            .map(|p| {
                let field = compute_terrain(&dem, *p, Sun::default()).expect("untiled terrain");
                (p.name().to_string(), raster_digest(&field))
            })
            .collect();
        // An interior tile, so the edit's cone is the full 48 tasks.
        let mut rng = Rng::new(seed, "pipeline-edit");
        let tile = (1 + rng.below(2) as usize, 1 + rng.below(2) as usize);
        let plan = TilePlan::new(TILES.0, TILES.1, 1).expect("tile plan");
        let b = plan.tile_box(width, height, tile.0, tile.1);
        let x = b.x0 as u64 + EDIT_MARGIN + rng.below(b.width() as u64 - 2 * EDIT_MARGIN);
        let y = b.y0 as u64 + EDIT_MARGIN + rng.below(b.height() as u64 - 2 * EDIT_MARGIN);
        (expected, DemEdit { x: x as usize, y: y as usize, delta_m: 5.0 }, tile)
    });
    Inputs { seed, width, height, expected, edit, edit_tile, generate_s }
}

fn dag_config(inp: &Inputs) -> DagConfig {
    DagConfig {
        width: inp.width,
        height: inp.height,
        tiles: TILES,
        threads: 1,
        codec: Codec::parse("zlib4").expect("codec name"),
        bits_per_block: 14,
        storage_endpoint: ENDPOINT.into(),
        ..DagConfig::small(inp.seed)
    }
}

/// Outermost pass-through on the endpoint: notes the virtual time at which
/// each object's `put` was acknowledged. One clock read per stored object.
struct TapStore {
    inner: Arc<dyn ObjectStore>,
    clock: SimClock,
    landed: Arc<Mutex<Vec<u64>>>,
}

impl TapStore {
    fn note(&self, n: usize) {
        let now = self.clock.now_ns();
        self.landed.lock().expect("tap log poisoned").extend(std::iter::repeat_n(now, n));
    }
}

impl ObjectStore for TapStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        let meta = self.inner.put(key, data)?;
        self.note(1);
        Ok(meta)
    }
    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        let results = self.inner.put_many(items);
        self.note(results.iter().filter(|r| r.is_ok()).count());
        results
    }
    fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.inner.get(key)
    }
    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.inner.get_range(key, offset, len)
    }
    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        self.inner.get_many(keys)
    }
    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.inner.head(key)
    }
    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        self.inner.head_many(keys)
    }
    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        self.inner.list(prefix)
    }
    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)
    }
    fn exists(&self, key: &str) -> Result<bool> {
        self.inner.exists(key)
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Move the landing times logged so far into `into`, as latencies from
/// `step_start`.
fn drain_landed(landed: &Mutex<Vec<u64>>, step_start: u64, into: &mut Vec<u64>) {
    let mut log = landed.lock().expect("tap log poisoned");
    into.extend(log.drain(..).map(|t| t - step_start));
}

fn is_exclusive(task: &str) -> bool {
    task == "dataset-init" || task.starts_with("ingest/") || task.starts_with("validate/")
}

/// Layer whose kernel a task's virtual compute charge pays for.
fn layer_of(task: &str) -> &'static str {
    match task.split('/').next().unwrap_or("") {
        "moisture" => "somospie",
        "gen" | "elevation" | "slope" | "aspect" | "hillshade" => "geotiled",
        _ => "idx",
    }
}

fn tile_of(task: &str) -> Option<(usize, usize)> {
    let (tx, ty) = task.split('/').nth(1)?.split_once('_')?;
    Some((tx.parse().ok()?, ty.parse().ok()?))
}

/// Per-wave critical compute of a run, split by the layer of the task that
/// set it: parallel tasks of a wave ran side by side (the longest counts),
/// exclusive tasks ran one after another.
fn wave_critical(run: &GraphRun) -> BTreeMap<&'static str, u64> {
    let mut longest: BTreeMap<u64, (u64, &'static str)> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in &run.records {
        if r.status != TaskStatus::Succeeded {
            continue;
        }
        if is_exclusive(&r.name) {
            *out.entry(layer_of(&r.name)).or_default() += r.compute_ns;
        } else {
            let e = longest.entry(r.wave).or_insert((0, layer_of(&r.name)));
            if r.compute_ns > e.0 {
                *e = (r.compute_ns, layer_of(&r.name));
            }
        }
    }
    for (ns, layer) in longest.into_values() {
        *out.entry(layer).or_default() += ns;
    }
    out
}

/// One repetition on a fresh client.
pub fn run(inp: &Inputs, traced: bool) -> Result<Rep> {
    let mut rep = Rep::default();
    let (built, setup_s) = timed(|| -> Result<_> {
        let mut st = stack::build(inp.seed, ENDPOINT, None, traced)?;
        let landed = Arc::new(Mutex::new(Vec::new()));
        let tap = TapStore {
            inner: st.store(),
            clock: st.client.clock().clone(),
            landed: Arc::clone(&landed),
        };
        st.client.add_endpoint(StorageEndpoint {
            name: ENDPOINT.into(),
            kind: EndpointKind::PrivateCloud,
            store: Arc::new(tap),
        });
        Ok((st, landed))
    });
    let (st, landed) = built?;
    rep.setup_s = setup_s;
    let Stack { client, tracer, .. } = &st;
    let clock = client.clock().clone();
    let cfg = dag_config(inp);
    let mut edited = cfg.clone();
    edited.edits = vec![inp.edit];

    // ---- measured phase ---------------------------------------------------
    let phase = Phase::start(&clock, client.obs(), tracer);
    let t_cold = clock.now_ns();
    tracer.set_request(1);
    let cold = {
        let _s = tracer.span("workflow", "run_terrain_dag");
        run_terrain_dag(client, &cfg)?
    };
    drain_landed(&landed, t_cold, &mut rep.ops_vns);

    let t_register = clock.now_ns();
    tracer.set_request(2);
    let records = artifact_records(&cold.run)?;
    let catalog = Catalog::open(st.store(), clock.clone(), CatalogConfig::new(4))?
        .with_obs(&client.obs().scoped(ENDPOINT));
    {
        let _s = tracer.span("catalog", "ingest");
        catalog.ingest(records.iter().cloned())?;
    }
    {
        let _s = tracer.span("catalog", "flush");
        catalog.flush()?;
    }
    drain_landed(&landed, t_register, &mut rep.ops_vns);

    let t_rerun = clock.now_ns();
    tracer.set_request(3);
    let rerun = {
        let _s = tracer.span("workflow", "run_terrain_dag");
        run_terrain_dag(client, &edited)?
    };
    drain_landed(&landed, t_rerun, &mut rep.ops_vns);
    let delta = phase.finish(&mut rep, tracer);

    // ---- correctness -------------------------------------------------------
    rep.attempted = rep.ops_vns.len() as u64;
    let succeeded = cold.run.count(TaskStatus::Succeeded);
    rep.check(succeeded == 107, || format!("cold run: {succeeded} tasks succeeded, want 107"));
    for (field, want) in &inp.expected {
        let got = cold.digests.get(field);
        rep.check(got == Some(want), || {
            format!("field {field}: tiled digest {got:?} != untiled digest {want}")
        });
    }
    let missing = records.iter().filter(|r| catalog.get(r.id).as_ref() != Some(r)).count();
    rep.check(missing == 0, || format!("{missing} registered records are not get-able"));
    check_cone(&mut rep, inp, &st, &edited, &rerun)?;
    rep.failed = rep.problems.len() as u64;

    // ---- accounting ---------------------------------------------------------
    let listing = st.store().list(&format!("{}/idx/", cfg.prefix))?;
    rep.stored_bytes = listing.iter().map(|m| m.size).sum();
    let fields = DagConfig::field_names().len() as u64;
    rep.user_stored_bytes = fields * (inp.width * inp.height * 4) as u64;
    rep.wan_bytes = delta.c("seal.wan.bytes_up") + delta.c("seal.wan.bytes_down");
    rep.user_moved_bytes = [&cold.run, &rerun.run].iter().map(|r| produced_bytes(r)).sum();

    fill_layers(&mut rep, inp, &delta, &cold, &rerun, &listing);
    rep.require_zero(&[
        "sched.queue_wait_vns",
        "sched.shed",
        "retry.retries",
        "retry.hedge_waves",
        "breaker.opened",
        "integrity.rejected",
        "fault.injected",
        "session.frames",
        "session.blocks_fetched",
        "dashboard.pixels_rendered",
    ]);
    if traced {
        probe(&mut rep, inp, &st, &cfg, &[&cold.run, &rerun.run])?;
    }
    Ok(rep)
}

/// One catalog record per artifact the run produced.
fn artifact_records(run: &GraphRun) -> Result<Vec<Record>> {
    let mut records = Vec::new();
    for a in run.records.iter().flat_map(|r| &r.produced) {
        let id = records.len() as u64;
        records.push(Record::new(id, a.location.clone(), ENDPOINT, a.bytes, a.checksum)?);
    }
    Ok(records)
}

fn produced_bytes(run: &GraphRun) -> u64 {
    run.records
        .iter()
        .filter(|r| r.status == TaskStatus::Succeeded)
        .flat_map(|r| &r.produced)
        .map(|a| a.bytes)
        .sum()
}

/// The rerun must execute exactly the edited tile's dependency cone, less
/// the neighbour moisture tasks the content-hash cutoff trims.
fn check_cone(
    rep: &mut Rep,
    inp: &Inputs,
    st: &Stack,
    edited: &DagConfig,
    rerun: &DagReport,
) -> Result<()> {
    let (graph, _) = build_terrain_graph(&st.client, edited)?;
    let (tx, ty) = inp.edit_tile;
    let own_moisture = format!("moisture/{tx}_{ty}");
    let want: BTreeSet<String> = graph
        .dependency_cone(&[&format!("gen/{tx}_{ty}")])
        .into_iter()
        .filter(|t| !t.starts_with("moisture/") || *t == own_moisture)
        .collect();
    let got: BTreeSet<String> = rerun.run.executed().into_iter().map(String::from).collect();
    rep.check(got == want, || {
        format!(
            "rerun executed {} tasks, dependency cone has {} (extra {:?}, missing {:?})",
            got.len(),
            want.len(),
            got.difference(&want).take(3).collect::<Vec<_>>(),
            want.difference(&got).take(3).collect::<Vec<_>>()
        )
    });
    Ok(())
}

fn fill_layers(
    rep: &mut Rep,
    inp: &Inputs,
    d: &Delta,
    cold: &DagReport,
    rerun: &DagReport,
    idx_listing: &[ObjectMeta],
) {
    let plan = TilePlan::new(TILES.0, TILES.1, 1).expect("tile plan");
    let bounds = Box2i::new(0, 0, inp.width as i64, inp.height as i64);
    let l = &mut rep.layers;
    d.fill_store_layers(l, "seal.", rep.virtual_ns);

    let (mut knn_px, mut terrain_px, mut tiff_bytes) = (0u64, 0u64, 0u64);
    let (mut waves, mut executed, mut up_to_date, mut compute, mut critical, mut dag_vns) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for run in [&cold.run, &rerun.run] {
        waves += run.waves;
        up_to_date += run.count(TaskStatus::UpToDate) as u64;
        dag_vns += run.ended_ns - run.started_ns;
        critical += wave_critical(run).values().sum::<u64>();
        for r in run.records.iter().filter(|r| r.status == TaskStatus::Succeeded) {
            executed += 1;
            compute += r.compute_ns;
            let Some((tx, ty)) = tile_of(&r.name) else { continue };
            let interior = plan.tile_box(inp.width, inp.height, tx, ty);
            tiff_bytes += r.produced.iter().map(|a| a.bytes).sum::<u64>();
            match layer_of(&r.name) {
                "somospie" => knn_px += interior.area() as u64,
                _ if r.name.starts_with("gen/") => terrain_px += interior.area() as u64,
                _ => {
                    let padded = interior.inflate(1).intersect(&bounds).unwrap_or(interior);
                    terrain_px += padded.area() as u64;
                }
            }
        }
    }
    l.set("somospie.pixels", knn_px as f64);
    l.set("geotiled.pixels", terrain_px as f64);
    l.set("tiff.bytes", tiff_bytes as f64);
    l.set("workflow.waves", waves as f64);
    l.set("workflow.tasks_executed", executed as f64);
    l.set("workflow.tasks_up_to_date", up_to_date as f64);
    l.set("workflow.compute_vns", compute as f64);
    l.set("workflow.wave_critical_vns", critical as f64);
    l.set("workflow.io_vns", (dag_vns - critical) as f64);

    for name in [
        "idx.blocks_written",
        "idx.rmw_fetches",
        "idx.put_batches",
        "idx.put_vns",
        "idx.rmw_fetch_vns",
        "idx.queries",
        "idx.blocks_touched",
        "idx.blocks_decoded",
        "idx.fetch_vns",
    ] {
        l.set(name, d.f(&format!("dag.{name}")));
    }
    l.set(
        "idx.rmw_per_block_written",
        ratio(d.f("dag.idx.rmw_fetches"), d.f("dag.idx.blocks_written")),
    );
    let block_keys = idx_listing.iter().filter(|m| !m.key.ends_with(".idx")).count();
    l.set("idx.write_amp", ratio(d.f("dag.idx.blocks_written"), block_keys as f64));
    l.set(
        "idx.decoded_cache_hit_ratio",
        ratio(d.f("dag.idx.decoded_cache_hits"), d.f("dag.idx.blocks_touched")),
    );
    l.set("hz.blocks_planned", d.f("dag.idx.blocks_touched"));
    l.set("compress.ratio", ratio(rep.user_stored_bytes as f64, rep.stored_bytes as f64));
    crate::workloads::catalog::fill_catalog_counters(l, d, "seal.");
}

/// Layer probes of the traced run: replay the run's captured inputs into
/// the pure kernels the DAG called (`generate_window`, `compute_terrain`,
/// `downscale_tile`, `read_tiff`/`write_tiff`, IDX write/read of the
/// mosaics) and move that much CPU out of the `workflow` row, which the
/// benchmark cannot see inside of. What stays in `workflow` is the engine
/// itself: fingerprints, manifest, scheduling.
fn probe(
    rep: &mut Rep,
    inp: &Inputs,
    st: &Stack,
    cfg: &DagConfig,
    runs: &[&GraphRun],
) -> Result<()> {
    let store = st.store();
    let plan = TilePlan::new(TILES.0, TILES.1, 1)?;
    let dem_cfg = DemConfig::conus_like(inp.width, inp.height, inp.seed);
    let bounds = Box2i::new(0, 0, inp.width as i64, inp.height as i64);
    let (mut knn, mut terrain, mut tiff, mut idx) = (0.0, 0.0, 0.0, 0.0);
    let (mut encode, mut decode) = (0.0, 0.0);
    let tile = |location: &str| -> Result<(Vec<u8>, Raster<f32>, f64)> {
        let bytes = store.get(location)?;
        let (raster, secs) = cpu_timed(|| read_tiff::<f32>(&bytes));
        Ok((bytes, raster?, secs))
    };
    for (i, run) in runs.iter().enumerate() {
        let edits: &[DemEdit] = if i == 0 { &[] } else { std::slice::from_ref(&inp.edit) };
        // How often each artifact was decoded: once per consuming task.
        let mut reads: BTreeMap<&str, u32> = BTreeMap::new();
        for r in run.records.iter().filter(|r| r.status == TaskStatus::Succeeded) {
            for name in &r.consumed {
                *reads.entry(name.as_str()).or_default() += 1;
            }
        }
        for r in run.records.iter().filter(|r| r.status == TaskStatus::Succeeded) {
            let Some((tx, ty)) = tile_of(&r.name) else {
                if r.name.starts_with("validate/") {
                    let (i, e, d) = probe_idx(st, cfg, &r.name["validate/".len()..])?;
                    idx += i;
                    encode += e;
                    decode += d;
                }
                continue;
            };
            let interior = plan.tile_box(inp.width, inp.height, tx, ty);
            let kind = r.name.split('/').next().unwrap_or("");
            match kind {
                "gen" => terrain += cpu_timed(|| dem_cfg.generate_window(interior, edits)).1,
                "moisture" => {
                    let tn = format!("{tx}_{ty}");
                    let load = |p: &str| tile(&format!("{}/{p}/{tn}.tif", cfg.prefix));
                    let (elev, slope, aspect) =
                        (load("elevation")?, load("slope")?, load("aspect")?);
                    let params = cfg.moisture.clone();
                    knn += cpu_timed(|| downscale_tile(&elev.1, &slope.1, &aspect.1, &params)).1;
                }
                _ => {
                    let padded = interior.inflate(1).intersect(&bounds).unwrap_or(interior);
                    let dem = dem_cfg
                        .generate_window(padded, edits)?
                        .with_geo(GeoTransform::north_up(0.0, 0.0, dem_cfg.pixel_size_m));
                    let param = TerrainParam::parse(kind)?;
                    terrain += cpu_timed(|| compute_terrain(&dem, param, Sun::default())).1;
                }
            }
            for a in &r.produced {
                let (_, raster, read_s) = tile(&a.location)?;
                let write_s = cpu_timed(|| write_tiff(&raster, TiffCompression::None)).1;
                tiff += write_s + read_s * reads.get(a.name.as_str()).copied().unwrap_or(0) as f64;
            }
        }
    }
    let trace = rep.trace.as_mut().expect("probe runs on a traced repetition");
    let ns = |s: f64| (s * 1e9) as u64;
    for (layer, secs) in [
        ("somospie", knn),
        ("geotiled", terrain),
        ("tiff", tiff),
        ("idx", idx),
        ("compress", encode + decode),
    ] {
        trace.budget.reattribute("workflow", layer, 0, ns(secs));
    }
    // Virtual side: a run's self time is its waves' critical compute.
    for run in runs {
        for (layer, vns) in wave_critical(run) {
            trace.budget.reattribute("workflow", layer, vns, 0);
        }
    }
    let l = &mut rep.layers;
    l.set("somospie.cpu_s", knn);
    l.set("geotiled.cpu_s", terrain);
    l.set("tiff.cpu_s", tiff);
    l.set("idx.gather_cpu_s", idx);
    l.set("compress.encode_cpu_s", encode);
    l.set("compress.decode_cpu_s", decode);
    Ok(())
}

/// Replay one field's ingest + validation against a scratch in-memory
/// dataset: CPU seconds outside the codec, encoding, and decoding.
fn probe_idx(st: &Stack, cfg: &DagConfig, field: &str) -> Result<(f64, f64, f64)> {
    let live = IdxDataset::open(st.store(), &format!("{}/idx", cfg.prefix))?;
    let (mosaic, _) = live.read_full::<f32>(field, 0)?;
    let meta = IdxMeta::new_2d(
        "probe",
        cfg.width as u64,
        cfg.height as u64,
        vec![Field::new(field, DType::F32)?],
        cfg.bits_per_block,
        cfg.codec,
    )?;
    let scratch = IdxDataset::create(Arc::new(MemoryStore::new()), "probe", meta)?;
    let (written, write_s) = cpu_timed(|| scratch.write_raster(field, 0, &mosaic));
    let encode_s = written?.encode_secs;
    let (back, read_s) = cpu_timed(|| scratch.read_full::<f32>(field, 0));
    let (back, stats) = back?;
    if back.data() != mosaic.data() {
        return Err(NsdfError::corrupt(format!("probe read-back of {field} differs")));
    }
    let outside = (write_s + read_s - encode_s - stats.decode_secs).max(0.0);
    Ok((outside, encode_s, stats.decode_secs))
}
