//! Acceptance tests for the stateful [`QuerySession`] engine: progressive
//! refinement must be *transparent* (the final refined frame is bitwise
//! identical to a direct `read_box` at the finest level, fault-free and
//! under a 20% fault plan), *frugal* (each planned block crosses the WAN
//! exactly once, with `session.fetch_vns` reconciling against
//! `wan.busy_vns`), and *deterministic under cancellation* (the same seed
//! abandons the same level with byte-identical metrics).

use nsdf::compress::Codec;
use nsdf::core::NsdfClient;
use nsdf::idx::{Field, IdxDataset, IdxMeta, QuerySession};
use nsdf::storage::{CloudStore, FailScope, FaultPlan, MemoryStore, NetworkProfile, ObjectStore};
use nsdf::util::{Box2i, Obs, SimClock};
use nsdf::util::{DType, Raster};
use std::sync::Arc;

mod common;
use common::chaos_stack;

const W: usize = 128;
const H: usize = 96;

/// Publish a deterministic raster into `mem` as IDX dataset `"sess"`.
fn seed_data(mem: Arc<MemoryStore>) {
    let meta = IdxMeta::new_2d(
        "sess",
        W as u64,
        H as u64,
        vec![Field::new("v", DType::F32).unwrap()],
        8,
        Codec::Lz4,
    )
    .unwrap();
    let ds = IdxDataset::create(mem as Arc<dyn ObjectStore>, "sess", meta).unwrap();
    let r = Raster::<f32>::from_fn(W, H, |x, y| {
        ((x as u32).wrapping_mul(2654435761).wrapping_add(y as u32) % 10_000) as f32 * 0.25
    });
    ds.write_raster("v", 0, &r).unwrap();
}

#[test]
fn refined_frame_matches_direct_read_box_bitwise() {
    let mem = Arc::new(MemoryStore::new());
    seed_data(mem.clone());
    let ds = Arc::new(IdxDataset::open(mem.clone() as Arc<dyn ObjectStore>, "sess").unwrap());
    let oracle = IdxDataset::open(mem as Arc<dyn ObjectStore>, "sess").unwrap();

    // An awkward interior viewport, refined from a coarse preview.
    let region = Box2i::new(13, 9, 101, 77);
    let max = ds.max_level();
    let mut s = QuerySession::<f32>::new(Arc::clone(&ds), "v").unwrap();
    s.set_view(region, 2, max).unwrap();
    let run = s.refine().unwrap();
    assert!(run.cancelled_at.is_none());
    let finest = run.frames.last().unwrap();
    assert_eq!(finest.level, max);

    let (want, _) = oracle.read_box::<f32>("v", 0, region, max).unwrap();
    assert_eq!(finest.raster.shape(), want.shape());
    assert_eq!(finest.raster.data(), want.data(), "session refinement must be transparent");

    // Each frame plans its own level and resolves only what is not
    // resident: the whole coarse-to-fine sequence resolved exactly the
    // planner's unique block set, never a block twice.
    let planned = ds.blocks_for_query(region, max).unwrap().len() as u64;
    assert_eq!(s.stats().blocks_fetched, planned);
    assert!(s.stats().blocks_reused > 0, "later levels reuse earlier levels' blocks");
}

#[test]
fn cold_refinement_fetches_each_block_once_over_the_wan() {
    let mem = Arc::new(MemoryStore::new());
    seed_data(mem.clone());
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let wan = CloudStore::new(
        mem as Arc<dyn ObjectStore>,
        NetworkProfile::private_seal(),
        clock.clone(),
        42,
    )
    .with_obs(&obs);
    let ds = Arc::new(
        IdxDataset::open(Arc::new(wan) as Arc<dyn ObjectStore>, "sess").unwrap().with_obs(&obs),
    );
    let mut s = QuerySession::<f32>::new(Arc::clone(&ds), "v").unwrap().with_obs(&obs);
    // Opening fetched the metadata over the WAN; measure only the session.
    obs.reset();
    obs.clear_spans();

    let region = ds.bounds();
    let max = ds.max_level();
    s.set_view(region, 0, max).unwrap();
    s.refine().unwrap();

    let snap = obs.snapshot();
    let planned = ds.blocks_for_query(region, max).unwrap().len() as u64;
    assert_eq!(snap.counter("session.blocks_fetched"), planned, "fetch-once violated");
    assert_eq!(snap.counter("wan.read_ops"), planned, "zero duplicate WAN gets");
    assert!(snap.counter("wan.busy_vns") > 0, "cold refinement costs virtual WAN time");
    assert_eq!(
        snap.counter("session.fetch_vns"),
        snap.counter("wan.busy_vns"),
        "every virtual nanosecond the WAN was busy is attributed to session fetches"
    );

    // Re-rendering the covered view is free: all blocks stay resident.
    let v0 = clock.now_ns();
    let frame = s.frame_at(max).unwrap();
    assert_eq!(clock.now_ns(), v0, "warm re-render must not touch the WAN");
    assert_eq!(frame.blocks_fetched, 0);
    assert_eq!(frame.blocks_reused, planned);
}

#[test]
fn refined_frame_bitwise_identical_under_20pct_faults() {
    for profile in [NetworkProfile::public_dataverse(), NetworkProfile::private_seal()] {
        let mem = Arc::new(MemoryStore::new());
        seed_data(mem.clone());
        let oracle = IdxDataset::open(mem.clone() as Arc<dyn ObjectStore>, "sess").unwrap();

        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        let plan = FaultPlan::new(97)
            .with_scope(FailScope::Reads)
            .with_fault_rate(0.2)
            .with_corrupt_rate(0.05);
        let stack = chaos_stack(mem, profile, plan, clock, &obs);
        let ds = Arc::new(IdxDataset::open(stack, "sess").unwrap());

        let region = Box2i::new(5, 3, 120, 90);
        let max = ds.max_level();
        let mut s = QuerySession::<f32>::new(Arc::clone(&ds), "v").unwrap();
        s.set_view(region, 1, max).unwrap();
        let run = s.refine().unwrap();
        assert!(run.cancelled_at.is_none(), "faults are retried, not surfaced as cancellation");
        let finest = run.frames.last().unwrap();

        let (want, _) = oracle.read_box::<f32>("v", 0, region, max).unwrap();
        assert_eq!(finest.raster.data(), want.data(), "chaos must stay transparent");
        assert_eq!(
            s.stats().blocks_fetched,
            ds.blocks_for_query(region, max).unwrap().len() as u64
        );

        let snap = obs.snapshot();
        assert!(snap.counter("fault.injected") > 0, "the plan actually injected faults");
        assert!(snap.counter("retry.retries") > 0, "retries absorbed the failures");
    }
}

/// One seeded cancellation timeline: refine over the private-seal WAN with
/// a virtual-clock deadline armed a third of the way into the (probed)
/// cold cost, then resume to completion. Returns everything observable.
fn cancelled_timeline() -> (Option<u32>, u64, String, Vec<f32>, u64) {
    let mem = Arc::new(MemoryStore::new());
    seed_data(mem.clone());

    // Probe an identical stack for the total cold cost so the deadline is
    // derived, not hard-coded.
    let total_vns = {
        let clock = SimClock::new();
        let wan = CloudStore::new(
            mem.clone() as Arc<dyn ObjectStore>,
            NetworkProfile::private_seal(),
            clock.clone(),
            42,
        );
        let ds = Arc::new(IdxDataset::open(Arc::new(wan) as Arc<dyn ObjectStore>, "sess").unwrap());
        let mut s = QuerySession::<f32>::new(Arc::clone(&ds), "v").unwrap();
        let v0 = clock.now_ns();
        s.set_view(ds.bounds(), 0, ds.max_level()).unwrap();
        s.refine().unwrap();
        clock.now_ns() - v0
    };

    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let wan = CloudStore::new(
        mem as Arc<dyn ObjectStore>,
        NetworkProfile::private_seal(),
        clock.clone(),
        42,
    )
    .with_obs(&obs);
    let ds = Arc::new(
        IdxDataset::open(Arc::new(wan) as Arc<dyn ObjectStore>, "sess").unwrap().with_obs(&obs),
    );
    let mut s = QuerySession::<f32>::new(Arc::clone(&ds), "v").unwrap().with_obs(&obs);
    obs.reset();
    obs.clear_spans();

    s.set_view(ds.bounds(), 0, ds.max_level()).unwrap();
    s.cancel_token().cancel_at(clock.now_ns() + total_vns / 3);
    let run = s.refine().unwrap();
    let cancelled_at = run.cancelled_at;

    // The user keeps the viewport: resuming picks the abandoned level back
    // up without refetching anything already resident.
    s.reset_cancel();
    let resumed = s.refine().unwrap();
    assert!(resumed.cancelled_at.is_none());
    let finest = resumed.frames.last().unwrap().raster.data().to_vec();
    let metrics = obs.snapshot().to_json().to_string();
    (cancelled_at, clock.now_ns(), metrics, finest, s.stats().blocks_fetched)
}

#[test]
fn mid_refinement_cancellation_is_deterministic_and_resumable() {
    let a = cancelled_timeline();
    let b = cancelled_timeline();
    assert_eq!(a.0, b.0, "same seed must abandon the same level");
    assert_eq!(a.1, b.1, "virtual timeline must replay exactly");
    assert_eq!(a.2, b.2, "metrics must be byte-identical");
    assert_eq!(a.3, b.3);

    let (cancelled_at, _, metrics_json, finest, blocks_fetched) = a;
    assert!(cancelled_at.is_some(), "the deadline must fire mid-refinement");
    assert!(metrics_json.contains("\"session.cancelled\":1"), "metrics: {metrics_json}");

    // Cancel + resume preserves both transparency and fetch-once: the
    // final frame matches the fault-free oracle and no block crossed the
    // WAN twice across the two attempts.
    let mem = Arc::new(MemoryStore::new());
    seed_data(mem.clone());
    let oracle = IdxDataset::open(mem as Arc<dyn ObjectStore>, "sess").unwrap();
    let (want, _) = oracle.read_box::<f32>("v", 0, oracle.bounds(), oracle.max_level()).unwrap();
    assert_eq!(finest, want.data());
    let planned =
        oracle.blocks_for_query(oracle.bounds(), oracle.max_level()).unwrap().len() as u64;
    assert_eq!(blocks_fetched, planned);
}

#[test]
fn client_sessions_read_through_named_endpoints() {
    let client = NsdfClient::simulated(11);
    let store = client.store("dataverse").unwrap();
    let meta =
        IdxMeta::new_2d("pub", 64, 64, vec![Field::new("v", DType::F32).unwrap()], 8, Codec::Raw)
            .unwrap();
    let authored = IdxDataset::create(store, "pub/terrain", meta).unwrap();
    authored.write_raster("v", 0, &Raster::from_fn(64, 64, |x, y| (x * 64 + y) as f32)).unwrap();

    let mut s = client.open_session("dataverse", "pub/terrain", "v").unwrap();
    let (region, max) = (s.dataset().bounds(), s.dataset().max_level());
    s.set_view(region, 0, max).unwrap();
    let run = s.refine().unwrap();
    assert!(run.cancelled_at.is_none());

    let ds = client.open_dataset("dataverse", "pub/terrain").unwrap();
    let (want, _) = ds.read_box::<f32>("v", 0, region, max).unwrap();
    assert_eq!(run.frames.last().unwrap().raster.data(), want.data());

    // Session counters land under the endpoint scope of the client's
    // registry, next to that endpoint's WAN counters.
    let snap = client.obs().snapshot();
    assert!(snap.counter("dataverse.session.blocks_fetched") > 0);
    assert!(snap.counter("dataverse.session.frames") > 0);
}

#[test]
fn read_region_keeps_stats_and_spans_in_step_with_frame_at() {
    let mem = Arc::new(MemoryStore::new());
    seed_data(mem.clone());
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let wan =
        CloudStore::new(mem as Arc<dyn ObjectStore>, NetworkProfile::private_seal(), clock, 42)
            .with_obs(&obs);
    let ds = Arc::new(
        IdxDataset::open(Arc::new(wan) as Arc<dyn ObjectStore>, "sess").unwrap().with_obs(&obs),
    );
    let mut s = QuerySession::<f32>::new(Arc::clone(&ds), "v").unwrap().with_obs(&obs);
    obs.reset();
    obs.clear_spans();

    // A cold snip pays WAN time; the struct view must agree with the
    // counter afterwards, exactly as it does after `frame_at`.
    let snip = s.read_region(Box2i::new(40, 30, 90, 70), ds.max_level()).unwrap();
    assert!(snip.blocks_fetched > 0 && !snip.cancelled);
    let snap = obs.snapshot();
    assert!(snap.counter("session.fetch_vns") > 0, "cold snip costs virtual WAN time");
    assert_eq!(s.stats().fetch_vns, snap.counter("session.fetch_vns"));
    assert_eq!(s.stats().fetch_vns, snap.counter("wan.busy_vns"));

    // A snip abandoned by the token lands on the span timeline like an
    // abandoned frame does.
    s.cancel_token().cancel();
    let abandoned = s.read_region(ds.bounds(), ds.max_level()).unwrap();
    assert!(abandoned.cancelled);
    assert_eq!(s.stats().cancelled, 1);
    assert!(
        obs.spans_json().to_string().contains("session.cancelled"),
        "spans: {}",
        obs.render_spans()
    );
}
