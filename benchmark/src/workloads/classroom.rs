//! `classroom`: twenty foreground dashboard viewers exploring one shared
//! time series on the public commons (`dataverse`) while 24 background
//! tenants use the same link and a fault window passes over the middle
//! third of the session.
//!
//! Why it exists: the read path under contention and a bad network —
//! `sched`, `tiercache` (the dataset is eight times the RAM tier, so
//! eviction, admission and disk promotion all work), retry / hedge /
//! breaker / integrity, `session` prefetch and `dashboard` render.
//! `pipeline` and `ingest` bypass all of this. The dataset is stored with
//! `lz4`, so decoding is a sliver of the CPU here (`ingest` is the
//! workload that decodes in earnest) and a run affords four times the
//! frames.
//!
//! The loop is **open** on the virtual clock: interaction `k` of viewer
//! `v` is due at a seeded think-time schedule whatever the system is
//! doing. A frame's latency counts from its due time; how late the
//! generator actually started it is reported separately
//! (`openloop.lateness_p95_ms`). One thread drives everything — the WAN
//! model grants the link to one request at a time anyway — so a stall
//! shows up as lateness of the interactions behind it, which is exactly
//! the queueing a real classroom would see.
//!
//! User-visible op: one rendered frame. A frame served from the viewer's
//! own memory costs 0 virtual ms, so the median over all frames is only a
//! latency when most frames wait for the WAN. The session is sized for
//! that (see `build_script`): about six frames in ten touch the WAN, and
//! every session asserts its share within 30–80 %.
//!
//! `--seed` draws everything: the dataset, and from it every session's
//! scripts, think times, background arrivals, fault draws and WAN jitter.
//! A run plays [`SESSIONS`] different sessions, one per repetition, and
//! the report pools their frames — a tail percentile of one session's 820
//! frames moves by a tenth from session to session. Repetitions beyond
//! that replay the same sessions in turn.

use crate::gen::{Rng, Zipf};
use crate::metrics::ratio;
use crate::stack::{self, Chaos, Stack};
use crate::stats::{nearest_rank, OpenLoopSample};
use crate::workload::{cpu_timed, timed, Phase, Rep};
use nsdf_compress::Codec;
use nsdf_core::EndpointPolicy;
use nsdf_dashboard::{render, Colormap, Dashboard, RangeMode};
use nsdf_geotiled::{compute_terrain, DemConfig, Sun, TerrainParam};
use nsdf_idx::{Field, IdxDataset, IdxMeta};
use nsdf_storage::sched::{tag_tenant, SchedOp, SchedRequest, StepOutcome};
use nsdf_storage::{
    FaultPlan, FleetSpec, MemoryStore, ObjectMeta, ObjectStore, Priority, Scheduler, TenantPolicy,
};
use nsdf_util::{derive_seed, fnv1a64, Box2i, DType, NsdfError, Raster, Result, SimClock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const ENDPOINT: &str = "dataverse";
const BASE: &str = "classroom";
const FIELD: &str = "hillshade";
/// Sessions a run pools, one per repetition: 9 840 frames.
pub const SESSIONS: usize = 12;
/// A day's playback: the class scrubs through time as much as it moves.
const TIMESTEPS: u32 = 16;
const VIEWERS: u32 = 20;
const INTERACTIONS: usize = 41;
/// Viewport side in screen pixels; two 4x zooms from the full view reach
/// full resolution.
const VIEWPORT_PX: usize = 64;
const ZOOMS: usize = 2;
const ZOOM_FACTOR: f64 = 4.0;
/// What a viewer does at a hotspot, four times over: move half a window,
/// then watch three timesteps.
const LEGS: usize = 4;
const PLAYS_PER_LEG: usize = 3;
/// log2 samples per block: 4 KiB of f32. The window a viewer zooms to is
/// 1/256 of the raster and spans a dozen blocks, so a half-window pan
/// crosses into new blocks every time and the class as a whole visits a
/// third of the dataset — the proportions of a browser window on a
/// terabyte mosaic, at a size a run can publish.
const BITS_PER_BLOCK: u32 = 10;
/// Many more places of interest than viewers: two viewers rarely meet.
const HOTSPOTS: usize = 256;
/// Background population: 18 viewers issuing `Get`s, 6 tenants uploading
/// bulk jobs, with `FleetSpec::demo` shapes and policies.
const BG_TENANTS: usize = 24;
const BG_FIRST_TENANT: u32 = 100;
const BG_GETS_PER_VIEWER: usize = 12;
const BG_JOBS_PER_UPLOADER: usize = 3;
/// Mean think time between one viewer's interactions, virtual seconds.
/// Long enough that the link is busy a sixth of the time, not saturated
/// even inside the fault window: a saturated open loop builds a backlog
/// whose size is chaotic from seed to seed, and no percentile of it
/// repeats.
const THINK_MEAN_S: f64 = 90.0;
/// Virtual second the session starts at; set-up (publishing the dataset
/// over the WAN) must be over by then.
const T0_S: f64 = 1500.0;
/// Share of the session the link is down altogether, in the middle of the
/// fault window. The frames it catches — about one in thirty, enough that
/// no session escapes — are the degraded and failed ones; they sit beyond
/// the tail percentile instead of straddling it.
const OUTAGE_SHARE: f64 = 1.0 / 20.0;
/// Decoded-block cache of one viewer's dataset handle: a browser tab's
/// worth, far below the dataset, so viewers meet in the shared tier cache
/// and not in private memory.
const DECODED_CACHE_BYTES: u64 = 4 << 20;
/// One in this many delivered frames is checked against the twin.
const SAMPLE_EVERY: u64 = 10;
/// A viewer whose frame cannot be delivered at any level waits a virtual
/// second and asks again, this many times at most.
const FRAME_RETRIES: u32 = 5;

/// What a viewer does at one interaction.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Full view at `bias` levels below the sharpest the viewport shows.
    Overview { bias: u32 },
    /// Zoom in 4x and centre on a hotspot.
    ZoomTo { cx: i64, cy: i64 },
    /// Pan by half a window, then prefetch the neighbour beyond.
    Pan { dx: i64, dy: i64 },
    /// Advance playback one timestep (prefetches the one after).
    Play,
    /// Back to the full view.
    ZoomOut,
}

#[derive(Debug, Clone, Copy)]
struct Interaction {
    viewer: u32,
    /// Due time, virtual ns after the session start.
    due_vns: u64,
    step: Step,
}

/// One scripted background request, due `at_vns` after the session start.
struct Background {
    at_vns: u64,
    tenant: u32,
    class: Priority,
    keys: Vec<String>,
    put_bytes: usize,
}

/// Seed-derived inputs, generated once per process.
pub struct Inputs {
    quick: bool,
    seed: u64,
    dim: usize,
    /// Fault-free in-memory twin of the published dataset: the source of
    /// the published objects and the oracle frames are checked against.
    twin_store: Arc<MemoryStore>,
    twin: IdxDataset,
    /// Wall seconds generating the above.
    pub generate_s: f64,
}

/// Generate the dataset twin. The sessions played over it are generated
/// per repetition (see [`run`]).
pub fn generate(seed: u64, quick: bool) -> Inputs {
    let dim = if quick { 512 } else { 1024 };
    let ((twin_store, twin), generate_s) = timed(|| build_twin(seed, dim).expect("twin dataset"));
    Inputs { quick, seed, dim, twin_store, twin, generate_s }
}

/// The dataset: hillshade of one seeded DEM as the sun crosses the sky (a
/// day's playback), f32, `lz4`.
fn build_twin(seed: u64, dim: usize) -> Result<(Arc<MemoryStore>, IdxDataset)> {
    let store = Arc::new(MemoryStore::new());
    let meta = IdxMeta::new_2d(
        BASE,
        dim as u64,
        dim as u64,
        vec![Field::new(FIELD, DType::F32)?],
        BITS_PER_BLOCK,
        Codec::parse("lz4")?,
    )?
    .with_timesteps(TIMESTEPS)?;
    let ds = IdxDataset::create(Arc::clone(&store) as Arc<dyn ObjectStore>, BASE, meta)?;
    let dem = DemConfig::conus_like(dim, dim, seed).generate();
    for t in 0..TIMESTEPS {
        let sun = Sun { azimuth_deg: 90.0 + 12.0 * t as f64, altitude_deg: 35.0 };
        ds.write_raster(FIELD, t, &compute_terrain(&dem, TerrainParam::Hillshade, sun)?)?;
    }
    Ok((store, ds))
}

/// Side of the window a viewer has zoomed to, in raster cells.
fn zoomed_window(dim: i64) -> i64 {
    (dim as f64 / ZOOM_FACTOR.powi(ZOOMS as i32)) as i64
}

const DIRECTIONS: [(i64, i64); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];

/// Every interaction of every viewer of one session, in due order.
///
/// A viewer refines the overview, then visits two hotspots. At each it
/// zooms in, then four times over moves half a window in a direction of
/// its own choosing and watches three timesteps, then zooms back out. The
/// dashboard prefetches the window beyond a pan and the timestep after a
/// tick, so a viewer who kept still or kept going straight would be served
/// from its own memory; one who looks around while time runs is ahead of
/// the prefetch about as often as not, and its `tick` fetches the next
/// timestep before the frame is drawn.
fn build_script(seed: u64, dim: i64, horizon_s: f64) -> Vec<Interaction> {
    // The places the instructor points at, shared by every viewer.
    let mut rng = Rng::new(seed, "classroom-hotspots");
    let margin = dim / 8;
    let span = (dim - 2 * margin) as u64;
    let hotspots: Vec<(i64, i64)> = (0..HOTSPOTS)
        .map(|_| (margin + rng.below(span) as i64, margin + rng.below(span) as i64))
        .collect();
    let zipf = Zipf::new(HOTSPOTS, 1.1);
    let half_window = zoomed_window(dim) / 2;

    let mut script = Vec::new();
    for viewer in 1..=VIEWERS {
        let mut rng = Rng::new(seed, &format!("classroom-viewer-{viewer}"));
        let mut steps = vec![
            Step::Overview { bias: 2 },
            Step::Overview { bias: 1 },
            Step::Overview { bias: 0 },
        ];
        for _ in 0..2 {
            let (cx, cy) = hotspots[zipf.sample(&mut rng)];
            steps.extend([Step::ZoomTo { cx, cy }; ZOOMS]);
            for _ in 0..LEGS {
                let (dx, dy) = DIRECTIONS[rng.below(4) as usize];
                steps.push(Step::Pan { dx: dx * half_window, dy: dy * half_window });
                steps.extend([Step::Play; PLAYS_PER_LEG]);
            }
            steps.push(Step::ZoomOut);
        }
        assert_eq!(steps.len(), INTERACTIONS);
        // Think times: all but the last rescaled so every viewer's session
        // fills the same horizon; the last click comes a beat after it.
        let gaps: Vec<f64> = steps.iter().map(|_| 0.25 + rng.exp(1.0)).collect();
        let scale = horizon_s / gaps[..INTERACTIONS - 1].iter().sum::<f64>();
        let mut at = 0.0;
        for (k, (step, gap)) in steps.into_iter().zip(gaps).enumerate() {
            at += if k + 1 < INTERACTIONS { gap * scale } else { gap };
            script.push(Interaction { viewer, due_vns: (at * 1e9) as u64, step });
        }
    }
    script.sort_by_key(|i| (i.due_vns, i.viewer));
    script
}

/// Background tenants with `FleetSpec::demo` request shapes: three
/// quarters request dataset blocks (zipf over blocks), one quarter upload
/// bulk jobs — all against the tier store, below admission. Each tenant
/// issues a fixed number of requests at seeded times, so the background
/// volume does not wander from seed to seed.
fn build_background(seed: u64, twin: &IdxDataset, horizon_s: f64) -> Vec<Background> {
    let spec = FleetSpec::demo(BG_TENANTS, seed);
    let zipf = Zipf::new(twin.meta().blocks_per_field() as usize, spec.zipf_s);
    let mut out = Vec::new();
    for t in 0..BG_TENANTS {
        let mut rng = Rng::new(seed, &format!("classroom-bg-{t}"));
        let tenant = BG_FIRST_TENANT + t as u32;
        let viewer = t < spec.interactive_tenants();
        let requests = if viewer { BG_GETS_PER_VIEWER } else { BG_JOBS_PER_UPLOADER };
        for job in 0..requests {
            let at_vns = (rng.next_f64() * horizon_s * 1e9) as u64;
            out.push(if viewer {
                let time = rng.below(TIMESTEPS as u64) as u32;
                let keys = (0..spec.keys_per_interaction)
                    .map(|_| twin.block_key(0, time, zipf.sample(&mut rng) as u64))
                    .collect();
                Background { at_vns, tenant, class: Priority::Interactive, keys, put_bytes: 0 }
            } else {
                let keys = (0..spec.bulk_items)
                    .map(|i| format!("bulk/t{t:02}/job{job:03}/o{i:02}"))
                    .collect();
                Background {
                    at_vns,
                    tenant,
                    class: Priority::Bulk,
                    keys,
                    put_bytes: spec.bulk_item_bytes,
                }
            });
        }
    }
    out
}

/// The disk tier's backing store, with a switch: while closed, writes are
/// refused and nothing is found. Set-up publishes the dataset through the
/// endpoint with the switch closed, so the session starts on a cold cache
/// instead of one the write-through just filled.
struct GatedDisk {
    inner: MemoryStore,
    open: AtomicBool,
}

impl GatedDisk {
    fn gate<T>(&self, what: &str, f: impl FnOnce(&MemoryStore) -> Result<T>) -> Result<T> {
        if self.open.load(Ordering::SeqCst) {
            f(&self.inner)
        } else {
            Err(NsdfError::not_found(format!("disk tier offline ({what})")))
        }
    }
}

impl ObjectStore for GatedDisk {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        self.gate(key, |s| s.put(key, data))
    }
    fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.gate(key, |s| s.get(key))
    }
    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.gate(key, |s| s.head(key))
    }
    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        self.inner.list(prefix)
    }
    fn delete(&self, key: &str) -> Result<()> {
        self.gate(key, |s| s.delete(key))
    }
}

/// Faults over the middle third of the session — a 20 % error burst and a
/// 50 ms latency spike, with a short total outage in its middle — plus
/// background payload corruption throughout (the fault model has no
/// windowed corruption).
fn fault_plan(seed: u64, horizon_s: f64) -> FaultPlan {
    let (start, end) = (T0_S + horizon_s / 3.0, T0_S + 2.0 * horizon_s / 3.0);
    let mid = (start + end) / 2.0;
    FaultPlan::new(seed)
        .with_corrupt_rate(0.05)
        .error_burst(start, end, 0.2)
        .latency_spike(start, end, 0.05)
        .outage(mid, mid + horizon_s * OUTAGE_SHARE)
}

struct Viewer {
    tenant: u32,
    dash: Dashboard,
    ds: Arc<IdxDataset>,
    playing: bool,
}

/// What one frame request came to.
enum Frame {
    /// Delivered at the requested level; `pixels_hash` when sampled.
    Delivered { pixels_hash: Option<u64>, level: u32 },
    /// Delivered below the requested level.
    Degraded,
    /// Not delivered at any level.
    Failed,
}

impl Viewer {
    fn apply(&mut self, step: Step) -> Result<()> {
        let d = &mut self.dash;
        match step {
            Step::Overview { bias } => {
                d.reset_view()?;
                d.set_resolution_bias(bias);
            }
            Step::ZoomTo { cx, cy } => {
                d.set_resolution_bias(0);
                d.zoom(ZOOM_FACTOR)?;
                let r = d.region();
                d.pan(cx - (r.x0 + r.x1) / 2, cy - (r.y0 + r.y1) / 2)?;
            }
            Step::Pan { dx, dy } => d.pan(dx, dy)?,
            Step::Play => {
                if !self.playing {
                    d.set_playing(true);
                    self.playing = true;
                }
                d.tick(1.0)?;
            }
            Step::ZoomOut => d.reset_view()?,
        }
        Ok(())
    }

    /// Render the current view. A frame the session cannot complete falls
    /// back to the dataset's degraded read (a coarser level from whatever
    /// is reachable); if even that fails the viewer waits a virtual second
    /// and asks again, a few times, before giving the frame up.
    fn frame(&self, hash_pixels: bool, clock: &SimClock, sched: &Scheduler) -> Frame {
        for attempt in 0..=FRAME_RETRIES {
            if attempt > 0 {
                sleep_vns(clock, sched, 1_000_000_000);
            }
            if let Ok((img, info)) = self.dash.render_frame() {
                return Frame::Delivered {
                    pixels_hash: hash_pixels.then(|| fnv1a64(&img.rgb)),
                    level: info.level,
                };
            }
            let level = self.dash.auto_level().unwrap_or(0);
            let fallback =
                self.ds.read_box::<f32>(FIELD, self.dash.time(), self.dash.region(), level);
            if let Ok((raster, stats)) = fallback {
                if render(&raster, Colormap::Viridis, RangeMode::Dynamic).is_ok() {
                    return if stats.degraded {
                        Frame::Degraded
                    } else {
                        Frame::Delivered { pixels_hash: None, level }
                    };
                }
            }
        }
        Frame::Failed
    }
}

/// Let `vns` virtual ns pass, serving whatever the scheduler has queued.
fn sleep_vns(clock: &SimClock, sched: &Scheduler, vns: u64) {
    let until = clock.now_ns() + vns;
    while clock.now_ns() < until {
        if sched.step() == StepOutcome::Idle {
            clock.advance_to_ns(until);
        }
    }
}

/// A frame sampled for the correctness check.
struct Sampled {
    time: u32,
    region: Box2i,
    level: u32,
    pixels_hash: u64,
}

/// One repetition: session `rep_index % SESSIONS` of the seed, on a fresh
/// client.
pub fn run(inp: &Inputs, traced: bool, rep_index: usize) -> Result<Rep> {
    let mut rep = Rep::default();
    let t0_vns = (T0_S * 1e9) as u64;
    let horizon_s = INTERACTIONS as f64 * THINK_MEAN_S;
    let session_seed =
        derive_seed(inp.seed, &format!("classroom-session-{}", rep_index % SESSIONS));
    let stored_bytes = inp.twin_store.total_bytes();

    // ---- set-up: session script, stack, publish, viewers -------------------
    let (built, setup_s) = timed(|| -> Result<_> {
        let script = build_script(session_seed, inp.dim as i64, horizon_s);
        let background = build_background(session_seed, &inp.twin, horizon_s);
        let disk = Arc::new(GatedDisk { inner: MemoryStore::new(), open: AtomicBool::new(false) });
        let plan = fault_plan(session_seed, horizon_s);
        // RAM tier = an eighth of the dataset's stored bytes, a third of
        // what the class fetches.
        let policy = EndpointPolicy { cache_bytes: stored_bytes / 8, ..EndpointPolicy::default() };
        let chaos =
            Chaos { plan: &plan, policy: &policy, disk: Arc::clone(&disk) as Arc<dyn ObjectStore> };
        let st = stack::build(session_seed, ENDPOINT, Some(chaos), traced)?;
        publish(&st, &inp.twin_store)?;
        let viewers = (1..=VIEWERS).map(|v| open_viewer(&st, v)).collect::<Result<Vec<_>>>()?;
        st.tier.clear_ram();
        disk.open.store(true, Ordering::SeqCst);
        script_arrivals(&st, &script, &background, t0_vns);
        Ok((st, viewers, script))
    });
    let (st, mut viewers, script) = built?;
    rep.setup_s = setup_s;
    let Stack { client, tracer, .. } = &st;
    let clock = client.clock().clone();
    let sched = Arc::clone(client.scheduler());
    if clock.now_ns() >= t0_vns {
        return Err(NsdfError::invalid(format!(
            "set-up ran past the session start ({:.1} vs >= {T0_S} vs)",
            clock.now_secs()
        )));
    }
    clock.advance_to_ns(t0_vns);
    sched.take_completions();
    let wan_ops = {
        let obs = client.obs().scoped(ENDPOINT);
        let (reads, writes) = (obs.counter("wan.read_ops"), obs.counter("wan.write_ops"));
        move || reads.get() + writes.get()
    };

    // ---- measured phase ---------------------------------------------------
    let phase = Phase::start(&clock, client.obs(), tracer);
    let mut samples = Vec::with_capacity(script.len());
    let mut touched_wan = 0u64;
    let (mut delivered, mut degraded, mut failed) = (0u64, 0u64, 0u64);
    let mut sampled: Vec<Sampled> = Vec::new();
    let mut busy_vns = 0u64;
    for (n, it) in script.iter().enumerate() {
        let due = t0_vns + it.due_vns;
        // Let the link serve background tenants until this interaction is
        // due; its marker arrival keeps the scheduler from idling past it.
        tracer.set_request(n as u64 + 1);
        {
            let _s = tracer.span("idle", "think");
            while clock.now_ns() < due {
                sched.step();
            }
        }
        let viewer = &mut viewers[(it.viewer - 1) as usize];
        let _tenant = tag_tenant(viewer.tenant);
        let (start, ops0) = (clock.now_ns(), wan_ops());
        let outcome = {
            let _s = tracer.span("dashboard", "interaction");
            viewer.apply(it.step)?;
            viewer.frame(delivered % SAMPLE_EVERY == 0, &clock, &sched)
        };
        samples.push(OpenLoopSample::new(due, start, clock.now_ns()));
        touched_wan += (wan_ops() > ops0) as u64;
        match outcome {
            Frame::Delivered { pixels_hash, level } => {
                delivered += 1;
                if let Some(pixels_hash) = pixels_hash {
                    sampled.push(Sampled {
                        time: viewer.dash.time(),
                        region: viewer.dash.region(),
                        level,
                        pixels_hash,
                    });
                }
            }
            Frame::Degraded => degraded += 1,
            Frame::Failed => failed += 1,
        }
        if matches!(it.step, Step::Pan { .. }) {
            // Speculation is not part of the frame the user waited for.
            let _s = tracer.span("dashboard", "prefetch_neighbors");
            let _ = viewer.dash.prefetch_neighbors();
        }
        busy_vns += clock.now_ns() - start;
    }
    {
        let _s = tracer.span("sched", "drain");
        sched.run_to_idle();
    }
    let delta = phase.finish(&mut rep, tracer);
    let completions = sched.take_completions();

    // ---- correctness: sampled frames equal the fault-free twin -------------
    let mut wrong = 0u64;
    for s in &sampled {
        let (raster, _) = inp.twin.read_box::<f32>(FIELD, s.time, s.region, s.level)?;
        let oracle = render(&raster, Colormap::Viridis, RangeMode::Dynamic)?;
        wrong += (fnv1a64(&oracle.rgb) != s.pixels_hash) as u64;
    }
    rep.check(wrong == 0, || {
        format!("{wrong} of {} sampled frames differ from the twin", sampled.len())
    });
    rep.ops_vns = samples.iter().map(|s| s.latency_vns).collect();
    rep.attempted = samples.len() as u64;
    rep.failed = failed + wrong;

    // ---- accounting ---------------------------------------------------------
    let scope = st.scope();
    let c = |name: &str| delta.f(&format!("{scope}{name}"));
    rep.stored_bytes = stored_bytes;
    rep.user_stored_bytes = (inp.dim * inp.dim * 4) as u64 * TIMESTEPS as u64;
    rep.wan_bytes = (c("wan.bytes_up") + c("wan.bytes_down")) as u64;
    // Delivered to frames: four bytes per sample gathered into a frame.
    rep.user_moved_bytes = 4 * c("dashboard.pixels_rendered") as u64;

    let frames = samples.len() as f64;
    let l = &mut rep.layers;
    delta.fill_store_layers(l, &scope, rep.virtual_ns);
    l.set("frames.failed_frac", failed as f64 / frames);
    l.set("frames.degraded_frac", degraded as f64 / frames);
    l.set("frames.wan_touch_frac", touched_wan as f64 / frames);
    l.set("openloop.busy_vns", busy_vns as f64);
    let mut lateness: Vec<u64> = samples.iter().map(|s| s.lateness_vns).collect();
    lateness.sort_unstable();
    l.set("openloop.lateness_p95_ms", nearest_rank(&lateness, 0.95) as f64 / 1e6);
    let mut waits: Vec<u64> = completions
        .iter()
        .filter(|c| c.class == Priority::Interactive)
        .map(|c| c.wait_vns())
        .collect();
    waits.sort_unstable();
    if !waits.is_empty() {
        l.set("sched.interactive_wait_p95_ms", nearest_rank(&waits, 0.95) as f64 / 1e6);
    }
    for name in [
        "session.frames",
        "session.blocks_fetched",
        "session.prefetch_issued",
        "session.prefetch_shed",
        "session.cancelled",
        "session.fetch_vns",
        "session.prefetch_vns",
        "dashboard.pixels_rendered",
        "idx.queries",
        "idx.blocks_touched",
        "idx.blocks_decoded",
        "idx.fetch_vns",
    ] {
        l.set(name, c(name));
    }
    let (reused, fetched) = (c("session.blocks_reused"), c("session.blocks_fetched"));
    l.set("session.reuse_ratio", ratio(reused, reused + fetched));
    l.set(
        "session.prefetch_hit_ratio",
        ratio(c("session.prefetch_hits"), c("session.prefetch_issued")),
    );
    l.set(
        "idx.decoded_cache_hit_ratio",
        ratio(c("idx.decoded_cache_hits"), c("idx.blocks_touched")),
    );
    l.set("hz.blocks_planned", c("idx.blocks_touched"));
    l.set("compress.ratio", ratio(rep.user_stored_bytes as f64, stored_bytes as f64));
    let mut codec = nsdf_idx::CodecThroughput::default();
    for v in &viewers {
        codec.merge(&v.ds.codec_throughput());
    }
    l.set("compress.decode_cpu_s", codec.decode_micros as f64 / 1e6);
    l.set("compress.decode_mb_s", codec.decode_mb_s().unwrap_or(0.0));

    // ---- layer isolation -----------------------------------------------------
    // The shares below hold at full size; a `--quick` session is too small.
    let touch = rep.layers.get("frames.wan_touch_frac");
    rep.check(inp.quick || (0.30..=0.80).contains(&touch), || {
        format!("isolation: {touch:.3} of frames touched the WAN, want 0.30..=0.80")
    });
    for (name, what) in [
        ("retry.hedge_waves", "a hedged wave"),
        ("integrity.rejected", "a rejected payload"),
        ("fault.injected", "an injected fault"),
        ("sched.granted.bulk", "a background bulk grant"),
    ] {
        let v = rep.layers.get(name);
        rep.check(inp.quick || v >= 1.0, || {
            format!("isolation: the session saw no {what} ({name} = {v})")
        });
    }
    let turned_away = rep.layers.get("tier.evictions") + rep.layers.get("tier.admit_rejected");
    rep.check(inp.quick || turned_away >= 1.0, || {
        "isolation: the RAM tier neither evicted nor refused a block".to_string()
    });
    rep.check(inp.quick || degraded + failed >= 1, || {
        "isolation: no frame degraded or failed inside the fault window".to_string()
    });
    rep.require_zero(&[
        "catalog.upserts",
        "catalog.gets",
        "workflow.tasks_executed",
        "somospie.pixels",
        "idx.blocks_written",
    ]);

    if rep.trace.is_some() {
        probe(&mut rep, inp, codec.decode_micros);
    }
    Ok(rep)
}

/// Copy the twin's objects to the endpoint in upload waves of eight. The
/// link corrupts one payload in twenty; the stack heals nearly all of
/// that, and the publisher re-sends the rare object it gives up on.
fn publish(st: &Stack, twin: &MemoryStore) -> Result<()> {
    let store = st.store();
    let objects = twin.list(&format!("{BASE}/"))?;
    for wave in objects.chunks(8) {
        let payloads = wave.iter().map(|m| twin.get(&m.key)).collect::<Result<Vec<_>>>()?;
        let mut items: Vec<(&str, &[u8])> =
            wave.iter().zip(&payloads).map(|(m, p)| (m.key.as_str(), p.as_slice())).collect();
        for _ in 0..8 {
            let results = store.put_many(&items);
            items = items
                .into_iter()
                .zip(results)
                .filter(|(_, r)| r.is_err())
                .map(|(i, _)| i)
                .collect();
            if items.is_empty() {
                break;
            }
        }
        if let Some((key, _)) = items.first() {
            return Err(NsdfError::invalid(format!("could not publish {key}")));
        }
    }
    Ok(())
}

fn open_viewer(st: &Stack, tenant: u32) -> Result<Viewer> {
    let spec = FleetSpec::demo(BG_TENANTS, 0);
    st.client.scheduler().register_tenant(
        tenant,
        &format!("viewer-{tenant}"),
        spec.interactive_policy,
    );
    let obs = st.client.obs().scoped(ENDPOINT);
    // The header read crosses the same lossy link as everything else.
    let opened = (0..8).find_map(|_| IdxDataset::open(st.store(), BASE).ok());
    let ds = Arc::new(
        opened
            .ok_or_else(|| NsdfError::invalid("could not open the published dataset"))?
            .with_obs(&obs)
            .with_degraded_reads(true)
            .with_decoded_cache_bytes(DECODED_CACHE_BYTES),
    );
    let mut dash = Dashboard::new();
    dash.set_obs(&obs);
    dash.attach_scheduler(Arc::clone(st.client.scheduler()));
    dash.attach_tiercache(ENDPOINT, Arc::clone(&st.tier));
    dash.add_dataset(BASE, Arc::clone(&ds));
    dash.select_dataset(BASE)?;
    dash.set_viewport_px(VIEWPORT_PX)?;
    Ok(Viewer { tenant, dash, ds, playing: false })
}

/// Script the background arrivals and one zero-cost marker per foreground
/// interaction (the scheduler advances idle time to the next arrival, so
/// the marker is what stops it exactly at a due time).
fn script_arrivals(st: &Stack, script: &[Interaction], background: &[Background], t0_vns: u64) {
    let sched = st.client.scheduler();
    let spec = FleetSpec::demo(BG_TENANTS, 0);
    for t in 0..BG_TENANTS {
        let (label, policy): (&str, TenantPolicy) = if t < spec.interactive_tenants() {
            ("bg-viewer", spec.interactive_policy)
        } else {
            ("bg-bulk", spec.bulk_policy)
        };
        sched.register_tenant(BG_FIRST_TENANT + t as u32, &format!("{label}-{t:02}"), policy);
    }
    for b in background {
        let store = Arc::clone(&st.tier_store);
        let (op, est_bytes) = if b.put_bytes == 0 {
            let est = (b.keys.len() * spec.block_bytes) as u64;
            (SchedOp::Get { store, keys: b.keys.clone() }, est)
        } else {
            let fill = (fnv1a64(b.keys[0].as_bytes()) & 0xff) as u8;
            let items = b.keys.iter().map(|k| (k.clone(), vec![fill; b.put_bytes])).collect();
            (SchedOp::Put { store, items }, (b.keys.len() * b.put_bytes) as u64)
        };
        let req = SchedRequest { tenant: b.tenant, class: b.class, op, est_bytes };
        sched.script(t0_vns + b.at_vns, req);
    }
    let nowhere: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    for it in script {
        sched.script(
            t0_vns + it.due_vns,
            SchedRequest {
                tenant: it.viewer,
                class: Priority::Interactive,
                op: SchedOp::Get { store: Arc::clone(&nowhere), keys: Vec::new() },
                est_bytes: 0,
            },
        );
    }
}

/// Layer probes of the traced run. The benchmark cannot see inside an
/// interaction span, so it splits the `dashboard` row three ways: decode
/// time from the datasets' own timers (`compress`), a replay of the
/// frames' query planning (`hz`) and of a viewport-sized render
/// (what stays in `dashboard`); the remainder is the session/dataset
/// gather path (`idx`).
fn probe(rep: &mut Rep, inp: &Inputs, decode_micros: u64) {
    let ds = &inp.twin;
    let frames = rep.layers.get("session.frames").max(1.0);
    let pixels = rep.layers.get("dashboard.pixels_rendered");
    let side = zoomed_window(inp.dim as i64);
    // One `blocks_for_query` per frame over a zoomed window at full
    // resolution — the costliest plan a frame makes.
    let window = Box2i::new(0, 0, side, side);
    let plan_s = cpu_timed(|| {
        for _ in 0..64 {
            std::hint::black_box(ds.blocks_for_query(window, ds.max_level())).expect("plan");
        }
    })
    .1 / 64.0
        * frames;
    let raster = Raster::<f32>::from_fn(VIEWPORT_PX, VIEWPORT_PX, |x, y| (x * 31 + y * 17) as f32);
    let render_s = cpu_timed(|| {
        for _ in 0..32 {
            std::hint::black_box(render(&raster, Colormap::Viridis, RangeMode::Dynamic))
                .expect("render");
        }
    })
    .1 / 32.0
        * pixels
        / (VIEWPORT_PX * VIEWPORT_PX) as f64;

    let trace = rep.trace.as_mut().expect("probe runs on a traced repetition");
    let ns = |s: f64| (s * 1e9) as u64;
    trace.budget.reattribute("dashboard", "compress", 0, decode_micros * 1000);
    trace.budget.reattribute("dashboard", "hz", 0, ns(plan_s));
    let gather_s = (trace.budget.wall_secs("dashboard") - render_s).max(0.0);
    trace.budget.reattribute("dashboard", "idx", 0, ns(gather_s));
    rep.layers.set("hz.plan_cpu_s", plan_s);
    rep.layers.set("dashboard.render_cpu_s", render_s);
    rep.layers.set("idx.gather_cpu_s", gather_s);
}
