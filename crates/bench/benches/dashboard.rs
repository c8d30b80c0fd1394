//! Interactive query sessions (Fig. 7): a scripted dashboard interaction
//! trace — cold progressive overview, zoom, pan, speculative prefetch, and
//! playback — driven through the stateful [`QuerySession`] engine on both
//! WAN profiles of §III. Emits `BENCH_dashboard.json` at the repo root
//! with per-interaction latency and refinement curves; numbers are quoted
//! in EXPERIMENTS.md ("Interactive sessions").
//!
//! Every reported latency is *virtual* time charged to the shared
//! [`SimClock`] by the simulated WAN, and every count comes from the
//! shared observability registry, so reruns emit byte-identical files —
//! CI runs the bench twice and `cmp`s the artifacts.
//!
//! The same trace is replayed against a pre-refactor baseline stack (per
//! level `read_box` on an identical WAN + cache, no sessions, no
//! prefetch); acceptance asserts that the session's pan-after-zoom is
//! strictly cheaper in virtual time on both profiles and that cold
//! refinement fetches each planned block exactly once.

use nsdf_compress::Codec;
use nsdf_dashboard::Dashboard;
use nsdf_idx::{Field, IdxDataset, IdxMeta, QuerySession};
use nsdf_storage::{CloudStore, LocalStore, MemoryStore, NetworkProfile, ObjectStore, TierCache};
use nsdf_util::json::JsonValue;
use nsdf_util::{derive_seed, DType, Obs, Raster, SimClock};
use std::sync::Arc;

/// 256x256 f32 at 2^10 samples/block = 64 blocks per timestep.
const SIZE: usize = 256;
const BITS_PER_BLOCK: u32 = 10;
const TIMESTEPS: u32 = 4;
const WAN_SEED: u64 = 42;
/// Coarsest level progressive refinement starts from.
const START_LEVEL: u32 = 6;
/// Small viewport so the overview's auto level sits well below max and
/// zooming genuinely raises the resolution the session must refine to.
const VIEWPORT_PX: usize = 64;

fn vsecs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Seed the dataset into a plain memory store: writes are not part of the
/// measurement, so they bypass the WAN wrapper entirely.
fn seed_store() -> Arc<MemoryStore> {
    let mem = Arc::new(MemoryStore::new());
    let meta = IdxMeta::new_2d(
        "dash",
        SIZE as u64,
        SIZE as u64,
        vec![Field::new("v", DType::F32).expect("valid field")],
        BITS_PER_BLOCK,
        Codec::Raw,
    )
    .expect("valid meta")
    .with_timesteps(TIMESTEPS)
    .expect("timesteps");
    let ds = IdxDataset::create(mem.clone() as Arc<dyn ObjectStore>, "dash", meta).expect("create");
    for t in 0..TIMESTEPS {
        let data =
            Raster::from_fn(SIZE, SIZE, move |x, y| (y * SIZE + x) as f32 + t as f32 * 65536.0);
        ds.write_raster("v", t, &data).expect("write raster");
    }
    mem
}

/// Counter/clock marks bracketing one user interaction.
struct Marks {
    vns: u64,
    fetched: u64,
    reused: u64,
    prefetch_issued: u64,
    prefetch_hits: u64,
    wan_reads: u64,
}

fn marks(clock: &SimClock, obs: &Obs) -> Marks {
    let s = obs.snapshot();
    Marks {
        vns: clock.now_ns(),
        fetched: s.counter("session.blocks_fetched"),
        reused: s.counter("session.blocks_reused"),
        prefetch_issued: s.counter("session.prefetch_issued"),
        prefetch_hits: s.counter("session.prefetch_hits"),
        wan_reads: s.counter("wan.read_ops"),
    }
}

struct Interaction {
    name: &'static str,
    virtual_secs: f64,
    blocks_fetched: u64,
    blocks_reused: u64,
    prefetch_issued: u64,
    prefetch_hits: u64,
    wan_read_ops: u64,
}

impl Interaction {
    fn end(name: &'static str, m0: &Marks, clock: &SimClock, obs: &Obs) -> Interaction {
        let m1 = marks(clock, obs);
        Interaction {
            name,
            virtual_secs: vsecs(m1.vns - m0.vns),
            blocks_fetched: m1.fetched - m0.fetched,
            blocks_reused: m1.reused - m0.reused,
            prefetch_issued: m1.prefetch_issued - m0.prefetch_issued,
            prefetch_hits: m1.prefetch_hits - m0.prefetch_hits,
            wan_read_ops: m1.wan_reads - m0.wan_reads,
        }
    }
}

impl From<&Interaction> for JsonValue {
    fn from(i: &Interaction) -> JsonValue {
        JsonValue::obj([
            ("name", i.name.into()),
            ("virtual_secs", JsonValue::fixed(i.virtual_secs, 6)),
            ("blocks_fetched", i.blocks_fetched.into()),
            ("blocks_reused", i.blocks_reused.into()),
            ("prefetch_issued", i.prefetch_issued.into()),
            ("prefetch_hits", i.prefetch_hits.into()),
            ("wan_read_ops", i.wan_read_ops.into()),
        ])
    }
}

/// One point of a refinement curve: the marginal cost of one more level.
struct LevelPoint {
    level: u32,
    virtual_secs: f64,
    blocks_fetched: u64,
}

impl From<&LevelPoint> for JsonValue {
    fn from(p: &LevelPoint) -> JsonValue {
        JsonValue::obj([
            ("level", p.level.into()),
            ("virtual_secs", JsonValue::fixed(p.virtual_secs, 6)),
            ("blocks_fetched", p.blocks_fetched.into()),
        ])
    }
}

struct ProfileReport {
    profile: String,
    interactions: Vec<Interaction>,
    overview_curve: Vec<LevelPoint>,
    zoom_curve: Vec<LevelPoint>,
    planner_blocks: u64,
    cold_fetched: u64,
    cold_wan_reads: u64,
    session_pan_cold_secs: f64,
    session_pan_prefetched_secs: f64,
    baseline_pan1_secs: f64,
    baseline_pan2_secs: f64,
    session_step_cold_secs: f64,
    session_step_prefetched_secs: f64,
    baseline_step_secs: f64,
    total_virtual_secs: f64,
}

impl From<&ProfileReport> for JsonValue {
    fn from(r: &ProfileReport) -> JsonValue {
        let secs = |v: f64| JsonValue::fixed(v, 6);
        let refinement = JsonValue::obj([
            ("overview", r.overview_curve.iter().collect()),
            ("zoom", r.zoom_curve.iter().collect()),
        ]);
        let fetch_once = JsonValue::obj([
            ("planner_blocks", r.planner_blocks.into()),
            ("session_blocks_fetched", r.cold_fetched.into()),
            ("wan_read_ops", r.cold_wan_reads.into()),
            ("pass", r.fetch_once_pass().into()),
        ]);
        let pan_after_zoom = JsonValue::obj([
            ("session_cold_secs", secs(r.session_pan_cold_secs)),
            ("session_prefetched_secs", secs(r.session_pan_prefetched_secs)),
            ("baseline_cold_secs", secs(r.baseline_pan1_secs)),
            ("baseline_repeat_secs", secs(r.baseline_pan2_secs)),
            ("saved_secs", secs(r.baseline_pan2_secs - r.session_pan_prefetched_secs)),
            ("pass", r.pan_pass().into()),
        ]);
        let playback = JsonValue::obj([
            ("session_cold_step_secs", secs(r.session_step_cold_secs)),
            ("session_prefetched_step_secs", secs(r.session_step_prefetched_secs)),
            ("baseline_step_secs", secs(r.baseline_step_secs)),
        ]);
        JsonValue::obj([
            ("profile", r.profile.as_str().into()),
            ("interactions", r.interactions.iter().collect()),
            ("refinement", refinement),
            ("fetch_once", fetch_once),
            ("pan_after_zoom", pan_after_zoom),
            ("playback", playback),
            ("total_virtual_secs", secs(r.total_virtual_secs)),
        ])
    }
}

impl ProfileReport {
    fn fetch_once_pass(&self) -> bool {
        self.cold_fetched == self.planner_blocks && self.cold_wan_reads == self.planner_blocks
    }

    fn pan_pass(&self) -> bool {
        self.session_pan_prefetched_secs < self.baseline_pan2_secs
    }
}

/// Drive the scripted interaction trace through a session-backed dashboard
/// over `profile`, then replay the same trace against the pre-refactor
/// per-level `read_box` baseline on an identical fresh stack.
fn run_trace(mem: &Arc<MemoryStore>, profile: NetworkProfile) -> ProfileReport {
    let profile_name = profile.name.clone();

    // Session stack: WAN -> block cache -> dataset -> dashboard, all on one
    // virtual clock and one observability registry.
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let cloud = CloudStore::new(
        mem.clone() as Arc<dyn ObjectStore>,
        profile.clone(),
        clock.clone(),
        WAN_SEED,
    )
    .with_obs(&obs);
    let cached: Arc<dyn ObjectStore> =
        Arc::new(TierCache::new(Arc::new(cloud), 256 << 20).with_obs(&obs));
    let ds = Arc::new(IdxDataset::open(cached, "dash").expect("open").with_obs(&obs));
    let bounds = ds.bounds();
    let mut dash = Dashboard::new();
    dash.set_obs(&obs);
    dash.add_dataset("conus", Arc::clone(&ds));
    dash.select_dataset("conus").expect("select");
    dash.set_viewport_px(VIEWPORT_PX).expect("viewport");
    // The metadata fetch above is setup, not part of the measured trace.
    obs.reset();
    obs.clear_spans();
    let trace_start = clock.now_ns();

    let mut interactions = Vec::new();

    // 1. Cold progressive overview: refine the full map from START_LEVEL up
    // to the level the viewport warrants, one frame per level.
    let overview_level = dash.auto_level().expect("auto level");
    assert!(START_LEVEL < overview_level, "viewport too coarse for a refinement curve");
    let m_cold = marks(&clock, &obs);
    let mut overview_curve = Vec::new();
    for level in START_LEVEL..=overview_level {
        let m = marks(&clock, &obs);
        dash.render_at_level(level).expect("overview frame");
        let d = Interaction::end("level", &m, &clock, &obs);
        overview_curve.push(LevelPoint {
            level,
            virtual_secs: d.virtual_secs,
            blocks_fetched: d.blocks_fetched,
        });
    }
    let cold = Interaction::end("cold_overview_refine", &m_cold, &clock, &obs);

    // Fetch-once acceptance: the whole progressive sequence resolves
    // exactly the planner's unique block set, one WAN GET per block.
    let planner_blocks = ds.blocks_for_query(bounds, overview_level).expect("plan").len() as u64;
    let (cold_fetched, cold_wan_reads) = (cold.blocks_fetched, cold.wan_read_ops);
    interactions.push(cold);

    // 2. Re-render the finished overview: everything resident, zero WAN.
    let m = marks(&clock, &obs);
    dash.render_at_level(overview_level).expect("warm frame");
    interactions.push(Interaction::end("warm_rerender", &m, &clock, &obs));

    // 3. Zoom 4x and jump to the left edge: auto level jumps to full
    // resolution; refine the zoomed viewport, reusing the coarse blocks
    // the overview already delivered. Starting at the edge leaves the
    // pans below genuinely cold territory to walk into.
    dash.zoom(4.0).expect("zoom");
    dash.pan(-10_000, 0).expect("jump to left edge");
    let zoom_region = dash.region();
    let zoom_level = dash.auto_level().expect("zoom auto level");
    assert!(zoom_level > overview_level, "zoom must raise the auto level");
    let m_zoom = marks(&clock, &obs);
    let mut zoom_curve = Vec::new();
    for level in overview_level..=zoom_level {
        let m = marks(&clock, &obs);
        dash.render_at_level(level).expect("zoom frame");
        let d = Interaction::end("level", &m, &clock, &obs);
        zoom_curve.push(LevelPoint {
            level,
            virtual_secs: d.virtual_secs,
            blocks_fetched: d.blocks_fetched,
        });
    }
    interactions.push(Interaction::end("zoom_refine", &m_zoom, &clock, &obs));

    // 4. Pan three quarters of a viewport right: the newly exposed strip's
    // blocks are cold; the overlap stays resident.
    let pan_step = zoom_region.width() * 3 / 4;
    dash.pan(pan_step, 0).expect("pan");
    let pan1_region = dash.region();
    let m = marks(&clock, &obs);
    dash.render_at_level(zoom_level).expect("pan frame");
    let pan_cold = Interaction::end("pan_cold", &m, &clock, &obs);
    let session_pan_cold_secs = pan_cold.virtual_secs;
    interactions.push(pan_cold);

    // 5. Think-time speculation: warm the neighbor viewport in the pan
    // direction through the session and the shared block cache.
    let m = marks(&clock, &obs);
    dash.prefetch_neighbors().expect("prefetch neighbors");
    interactions.push(Interaction::end("prefetch_neighbors", &m, &clock, &obs));

    // 6. Pan again in the same direction: the newly exposed strip was
    // prefetched, so the frame renders without touching the WAN.
    dash.pan(pan_step, 0).expect("pan again");
    let pan2_region = dash.region();
    let m = marks(&clock, &obs);
    dash.render_at_level(zoom_level).expect("prefetched pan frame");
    let pan_prefetched = Interaction::end("pan_prefetched", &m, &clock, &obs);
    let session_pan_prefetched_secs = pan_prefetched.virtual_secs;
    assert!(pan_prefetched.prefetch_hits > 0, "prefetched pan must consume prefetched blocks");
    interactions.push(pan_prefetched);

    // 7. Playback: each tick advances the slider and speculatively warms
    // the *next* timestep, so after the first (cold) step every frame
    // renders from the decoded cache.
    dash.set_playing(true);
    dash.set_speed(1.0).expect("speed");
    let m = marks(&clock, &obs);
    dash.tick(1.0).expect("tick"); // t=1, prefetches t=2
    interactions.push(Interaction::end("tick_prefetch_next", &m, &clock, &obs));
    let m = marks(&clock, &obs);
    dash.render_frame().expect("playback frame t1");
    let step_cold = Interaction::end("playback_step_cold", &m, &clock, &obs);
    let session_step_cold_secs = step_cold.virtual_secs;
    interactions.push(step_cold);
    dash.tick(1.0).expect("tick"); // t=2, prefetches t=3
    let m = marks(&clock, &obs);
    dash.render_frame().expect("playback frame t2");
    let step_prefetched = Interaction::end("playback_step_prefetched", &m, &clock, &obs);
    let session_step_prefetched_secs = step_prefetched.virtual_secs;
    assert!(step_prefetched.prefetch_hits > 0, "playback step must hit the prefetched timestep");
    interactions.push(step_prefetched);
    dash.set_playing(false);
    let total_virtual_secs = vsecs(clock.now_ns() - trace_start);

    // Pre-refactor baseline: the identical user trace as stateless
    // per-level read_box calls on an identical fresh WAN + cache stack.
    // No sessions, so no speculative prefetch — each interaction pays its
    // cold blocks at render time.
    let bclock = SimClock::new();
    let bcloud =
        CloudStore::new(mem.clone() as Arc<dyn ObjectStore>, profile, bclock.clone(), WAN_SEED);
    let bcached: Arc<dyn ObjectStore> = Arc::new(TierCache::new(Arc::new(bcloud), 256 << 20));
    let bds = IdxDataset::open(bcached, "dash").expect("open baseline");
    bds.read_progressive::<f32>("v", 0, bounds, START_LEVEL, overview_level)
        .expect("baseline overview");
    bds.read_progressive::<f32>("v", 0, zoom_region, overview_level, zoom_level)
        .expect("baseline zoom");
    let v0 = bclock.now_ns();
    bds.read_box::<f32>("v", 0, pan1_region, zoom_level).expect("baseline pan1");
    let baseline_pan1_secs = vsecs(bclock.now_ns() - v0);
    let v0 = bclock.now_ns();
    bds.read_box::<f32>("v", 0, pan2_region, zoom_level).expect("baseline pan2");
    let baseline_pan2_secs = vsecs(bclock.now_ns() - v0);
    bds.read_box::<f32>("v", 1, pan2_region, zoom_level).expect("baseline t1");
    let v0 = bclock.now_ns();
    bds.read_box::<f32>("v", 2, pan2_region, zoom_level).expect("baseline t2");
    let baseline_step_secs = vsecs(bclock.now_ns() - v0);

    ProfileReport {
        profile: profile_name,
        interactions,
        overview_curve,
        zoom_curve,
        planner_blocks,
        cold_fetched,
        cold_wan_reads,
        session_pan_cold_secs,
        session_pan_prefetched_secs,
        baseline_pan1_secs,
        baseline_pan2_secs,
        session_step_cold_secs,
        session_step_prefetched_secs,
        baseline_step_secs,
        total_virtual_secs,
    }
}

// ---------------------------------------------------------------------------
// Shared persistent cache: cold / warm-disk / warm-RAM latency triple
// ---------------------------------------------------------------------------

/// Objects in the tier working set and their size.
const TIER_OBJECTS: usize = 48;
const TIER_OBJECT_BYTES: usize = 64 << 10;
const TIER_SEED: u64 = 0x71E2;
/// On-disk tier location, rebuilt by every run.
const TIER_DISK_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench-tiercache");

fn tier_key(i: usize) -> String {
    format!("blocks/obj-{i:03}")
}

fn tier_payload(i: usize) -> Vec<u8> {
    let h = derive_seed(TIER_SEED, &tier_key(i));
    (0..TIER_OBJECT_BYTES).map(|j| (h.rotate_left((j % 59) as u32) ^ j as u64) as u8).collect()
}

/// A fast "local NVMe over the storage fabric" profile for the disk tier,
/// so disk hits charge a small, nonzero virtual cost and the triple is
/// strictly ordered.
fn disk_profile() -> NetworkProfile {
    NetworkProfile {
        name: "local-nvme".into(),
        rtt_ms: 0.2,
        bandwidth_mbps: 20_000.0,
        jitter: 0.0,
        streams: 4,
    }
}

struct TierReport {
    cold_secs: f64,
    warm_disk_secs: f64,
    warm_ram_secs: f64,
    scan_hit_rate: f64,
}

impl From<&TierReport> for JsonValue {
    fn from(t: &TierReport) -> JsonValue {
        let scan = JsonValue::obj([
            ("hot_keys", SCAN_HOT.into()),
            ("scan_keys", SCAN_COLD.into()),
            ("ram_hit_rate", JsonValue::fixed(t.scan_hit_rate, 6)),
            ("pass", (t.scan_hit_rate >= 0.9).into()),
        ]);
        JsonValue::obj([
            ("objects", TIER_OBJECTS.into()),
            ("object_bytes", TIER_OBJECT_BYTES.into()),
            ("cold_secs", JsonValue::fixed(t.cold_secs, 6)),
            ("warm_disk_secs", JsonValue::fixed(t.warm_disk_secs, 6)),
            ("warm_ram_secs", JsonValue::fixed(t.warm_ram_secs, 6)),
            ("scan", scan),
        ])
    }
}

/// Read the whole working set through a fresh tier stack over a WAN whose
/// origin holds the objects, leaving the disk tier at [`TIER_DISK_DIR`].
/// Returns the cold / warm-disk / warm-RAM virtual-latency triple.
fn run_tier_triple() -> TierReport {
    let _ = std::fs::remove_dir_all(TIER_DISK_DIR);
    std::fs::create_dir_all(TIER_DISK_DIR).expect("bench disk dir");
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let origin = Arc::new(MemoryStore::new());
    for i in 0..TIER_OBJECTS {
        origin.put(&tier_key(i), &tier_payload(i)).expect("seed origin");
    }
    let wan = Arc::new(
        CloudStore::new(
            origin as Arc<dyn ObjectStore>,
            NetworkProfile::public_dataverse(),
            clock.clone(),
            WAN_SEED,
        )
        .with_obs(&obs),
    );
    // The disk tier pays a local-NVMe virtual cost, metered under its own
    // scope so `wan.read_ops` keeps meaning "origin reads".
    let disk: Arc<dyn ObjectStore> = Arc::new(CloudStore::new(
        Arc::new(LocalStore::open(TIER_DISK_DIR).expect("open disk tier")),
        disk_profile(),
        clock.clone(),
        derive_seed(WAN_SEED, "disk"),
    ));
    let tier = TierCache::new(wan, 256 << 20)
        .with_disk(disk, "seal", 1 << 30)
        .expect("attach disk tier")
        .with_obs(&obs);

    let read_all = |label: &str| -> f64 {
        let v0 = clock.now_ns();
        for i in 0..TIER_OBJECTS {
            assert_eq!(tier.get(&tier_key(i)).expect("tier read"), tier_payload(i), "{label}");
        }
        vsecs(clock.now_ns() - v0)
    };

    let cold_secs = read_all("cold");
    let wan_reads_cold = obs.snapshot().counter("wan.read_ops");
    assert_eq!(wan_reads_cold, TIER_OBJECTS as u64, "cold pass reads each object once");

    tier.clear_ram(); // restart: RAM gone, disk shards survive
    let warm_disk_secs = read_all("warm-disk");
    assert_eq!(
        obs.snapshot().counter("wan.read_ops"),
        wan_reads_cold,
        "warm-disk pass must add zero origin reads"
    );

    let warm_ram_secs = read_all("warm-ram");
    assert_eq!(
        obs.snapshot().counter("wan.read_ops"),
        wan_reads_cold,
        "warm-RAM pass must add zero origin reads"
    );
    assert!(
        cold_secs > warm_disk_secs && warm_disk_secs > warm_ram_secs,
        "latency triple must be strictly ordered: cold {cold_secs:.6}s, \
         warm-disk {warm_disk_secs:.6}s, warm-RAM {warm_ram_secs:.6}s"
    );

    TierReport { cold_secs, warm_disk_secs, warm_ram_secs, scan_hit_rate: run_scan_resistance() }
}

/// Scan resistance: a seeded bulk-ingest scan must not flush the
/// interactive working set out of the RAM tier.
const SCAN_HOT: usize = 8;
const SCAN_COLD: usize = 64;

fn run_scan_resistance() -> f64 {
    let mem = Arc::new(MemoryStore::new());
    let hot_key = |i: usize| format!("hot/block-{i:02}");
    let scan_key = |i: usize| format!("ingest/chunk-{i:03}");
    for i in 0..SCAN_HOT {
        mem.put(&hot_key(i), &vec![i as u8; 2048]).expect("seed hot");
    }
    for i in 0..SCAN_COLD {
        mem.put(&scan_key(i), &vec![(64 + i) as u8; 2048]).expect("seed scan");
    }
    // Room for ~10 objects: the scan genuinely contends for residency.
    let tier = TierCache::new(mem as Arc<dyn ObjectStore>, 20 << 10);
    // Establish the interactive working set (4 touches each).
    for _ in 0..4 {
        for i in 0..SCAN_HOT {
            tier.get(&hot_key(i)).expect("hot read");
        }
    }
    // Bulk-ingest scan: every chunk exactly once.
    for i in 0..SCAN_COLD {
        tier.get(&scan_key(i)).expect("scan read");
    }
    // Re-touch the working set and measure its RAM hit rate.
    let ram_hits_before = tier.tier_stats().ram_hits;
    for i in 0..SCAN_HOT {
        tier.get(&hot_key(i)).expect("hot re-read");
    }
    let hit_rate = (tier.tier_stats().ram_hits - ram_hits_before) as f64 / SCAN_HOT as f64;
    assert!(
        hit_rate >= 0.9,
        "bulk-ingest scan flushed the interactive working set: RAM hit rate {hit_rate:.3}"
    );
    hit_rate
}

fn main() {
    // `cargo bench` passes harness flags; this target ignores them.
    let _ = QuerySession::<f32>::new; // the engine under test, re-exported
    let mem = seed_store();
    let mut profiles = Vec::new();
    for profile in [NetworkProfile::public_dataverse(), NetworkProfile::private_seal()] {
        let rep = run_trace(&mem, profile);
        println!(
            "{:<17} cold overview {:.3}s ({} blocks = planner {}), \
             pan cold {:.3}s / prefetched {:.3}s (baseline {:.3}s), \
             playback cold {:.3}s / prefetched {:.3}s (baseline {:.3}s)",
            rep.profile,
            rep.interactions[0].virtual_secs,
            rep.cold_fetched,
            rep.planner_blocks,
            rep.session_pan_cold_secs,
            rep.session_pan_prefetched_secs,
            rep.baseline_pan2_secs,
            rep.session_step_cold_secs,
            rep.session_step_prefetched_secs,
            rep.baseline_step_secs,
        );
        assert!(
            rep.fetch_once_pass(),
            "{}: fetch-once violated: planner {} blocks, session fetched {}, WAN GETs {}",
            rep.profile,
            rep.planner_blocks,
            rep.cold_fetched,
            rep.cold_wan_reads,
        );
        assert!(
            rep.pan_pass(),
            "{}: session pan-after-zoom ({:.6}s) not cheaper than per-level read_box \
             baseline ({:.6}s)",
            rep.profile,
            rep.session_pan_prefetched_secs,
            rep.baseline_pan2_secs,
        );
        assert!(
            rep.session_step_prefetched_secs < rep.baseline_step_secs,
            "{}: prefetched playback step ({:.6}s) not cheaper than baseline ({:.6}s)",
            rep.profile,
            rep.session_step_prefetched_secs,
            rep.baseline_step_secs,
        );
        profiles.push(JsonValue::from(&rep));
    }
    let tier = run_tier_triple();
    println!(
        "tiercache         cold {:.3}s / warm-disk {:.3}s / warm-ram {:.3}s \
         ({} x {} KiB), scan hit rate {:.3}",
        tier.cold_secs,
        tier.warm_disk_secs,
        tier.warm_ram_secs,
        TIER_OBJECTS,
        TIER_OBJECT_BYTES >> 10,
        tier.scan_hit_rate,
    );
    let dataset = JsonValue::obj([
        ("size", SIZE.into()),
        ("bits_per_block", BITS_PER_BLOCK.into()),
        ("timesteps", TIMESTEPS.into()),
        ("viewport_px", VIEWPORT_PX.into()),
    ]);
    let doc = JsonValue::obj([
        ("bench", "dashboard".into()),
        ("seed", WAN_SEED.into()),
        ("dataset", dataset),
        ("profiles", JsonValue::Arr(profiles)),
        ("tiercache", (&tier).into()),
    ]);
    nsdf_bench::write_artifact("BENCH_dashboard.json", &doc);
}
