//! Ingest acceptance tests: the write pipeline (plan → merge into the
//! write buffer → parallel encode of completed blocks → `put_many` upload
//! waves) must be *transparent* — a tile-by-tile GEOtiled→IDX conversion
//! pushed through the full chaos stack at 20% write faults + 5% corruption
//! stores bitwise the bytes of a sequential, fault-free, write-through
//! oracle — partition-invariant, seed-deterministic on the virtual clock,
//! cache-coherent under interleaved writes and reads, crash-convergent,
//! and fully accounted: every block uploads once, and the write-path spans
//! own every virtual nanosecond the WAN charges.

use nsdf::idx::WriteStats;
use nsdf::prelude::*;
use nsdf::storage::{CrashPoint, CrashSpec, CrashStore, FailScope, FaultPlan, GateStore};
use nsdf::util::SpanNode;
use std::sync::Arc;

mod common;
use common::chaos_stack;

const W: usize = 160;
const H: usize = 120;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Hillshade product of the tiled GEOtiled pipeline over a synthetic DEM,
/// plus the tile plan its ingest will follow.
fn hillshade() -> (Raster<f32>, TilePlan) {
    let dem = DemConfig::conus_like(W, H, 4242).generate();
    let plan = TilePlan::new(5, 4, 2).unwrap();
    let (shade, _) =
        compute_terrain_tiled(&dem, TerrainParam::Hillshade, Sun::default(), &plan, 4).unwrap();
    (shade, plan)
}

fn ingest_meta() -> IdxMeta {
    IdxMeta::new_2d(
        "ingest",
        W as u64,
        H as u64,
        vec![Field::new("hillshade", DType::F32).unwrap()],
        8,
        Codec::Lz4,
    )
    .unwrap()
}

/// Copy the window `b` out of `src`.
fn sub_raster(src: &Raster<f32>, b: &Box2i) -> Raster<f32> {
    Raster::from_fn((b.x1 - b.x0) as usize, (b.y1 - b.y0) as usize, |x, y| {
        src.get(b.x0 as usize + x, b.y0 as usize + y)
    })
}

/// Every stored object as `(key, payload)` pairs, sorted by key — the
/// bitwise ground truth two ingests are compared on.
fn dump(store: &MemoryStore) -> Vec<(String, Vec<u8>)> {
    store
        .list("")
        .unwrap()
        .into_iter()
        .map(|m| (m.key.clone(), store.get(&m.key).unwrap()))
        .collect()
}

/// What one chaotic ingest run is judged on: stored bytes, write stats,
/// the virtual clock, the metrics snapshot, and the span timeline.
type IngestOutput = (Vec<(String, Vec<u8>)>, WriteStats, u64, String, String);

/// Run the tiled chaotic ingest and return everything determinism is
/// judged on.
fn chaos_ingest(seed: u64) -> IngestOutput {
    let (shade, plan) = hillshade();
    let mem = Arc::new(MemoryStore::new());
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let fault_plan = FaultPlan::new(seed)
        .with_scope(FailScope::Writes)
        .with_fault_rate(0.2)
        .with_corrupt_rate(0.05);
    let stack =
        chaos_stack(mem.clone(), NetworkProfile::private_seal(), fault_plan, clock.clone(), &obs);
    let ds = IdxDataset::create(stack, "ingest", ingest_meta())
        .unwrap()
        .with_write_concurrency(8)
        .with_obs(&obs);
    let mut ingest = WriteStats::default();
    for b in &plan.tiles(W, H) {
        let stats =
            ds.write_box("hillshade", 0, b.x0 as u64, b.y0 as u64, &sub_raster(&shade, b)).unwrap();
        ingest.merge(&stats);
    }
    (
        dump(&mem),
        ingest,
        clock.now_ns(),
        obs.snapshot().to_json().to_string(),
        obs.spans_json().to_string(),
    )
}

#[test]
fn tiled_chaos_ingest_bitwise_matches_sequential_fault_free_oracle() {
    // Fault-free oracle: the whole raster in one `write_raster`, one upload
    // at a time, no WAN, no faults.
    let (shade, plan) = hillshade();
    let oracle_mem = Arc::new(MemoryStore::new());
    let oracle =
        IdxDataset::create(oracle_mem.clone() as Arc<dyn ObjectStore>, "ingest", ingest_meta())
            .unwrap()
            .with_write_concurrency(1);
    oracle.write_raster("hillshade", 0, &shade).unwrap();

    let mem = Arc::new(MemoryStore::new());
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let fault_plan = FaultPlan::new(41)
        .with_scope(FailScope::Writes)
        .with_fault_rate(0.2)
        .with_corrupt_rate(0.05);
    let stack = chaos_stack(mem.clone(), NetworkProfile::private_seal(), fault_plan, clock, &obs);
    let ds = IdxDataset::create(stack, "ingest", ingest_meta())
        .unwrap()
        .with_write_concurrency(8)
        .with_obs(&obs);
    let mut ingest = WriteStats::default();
    for b in &plan.tiles(W, H) {
        let stats =
            ds.write_box("hillshade", 0, b.x0 as u64, b.y0 as u64, &sub_raster(&shade, b)).unwrap();
        ingest.merge(&stats);
    }

    // Every stored object — blocks and header — is bitwise the oracle's:
    // faults, corruption, and batched uploads were fully transparent.
    assert_eq!(dump(&mem), dump(&oracle_mem));

    // And a read-back sweep returns bitwise the oracle's samples.
    let max = oracle.max_level();
    let mut rng = 0x1234_5678_9abc_def0u64;
    for _ in 0..8 {
        let x0 = (xorshift(&mut rng) % (W as u64 - 16)) as i64;
        let y0 = (xorshift(&mut rng) % (H as u64 - 16)) as i64;
        let w = 8 + (xorshift(&mut rng) % 56) as i64;
        let h = 8 + (xorshift(&mut rng) % 48) as i64;
        let region = Box2i::new(x0, y0, (x0 + w).min(W as i64), (y0 + h).min(H as i64));
        let level = max - (xorshift(&mut rng) % 4) as u32;
        let (want, _) = oracle.read_box::<f32>("hillshade", 0, region, level).unwrap();
        let (got, _) = ds.read_box::<f32>("hillshade", 0, region, level).unwrap();
        assert_eq!(got.data(), want.data(), "region {region:?} level {level}");
    }

    // The disjoint tiles complete every block, so nothing waits for a flush,
    // and the write buffer uploaded each block exactly once with no
    // read-modify-write at all, holding back the blocks tile seams share.
    let resident = dump(&mem).len() as u64 - 1;
    assert_eq!((ingest.blocks_written, ingest.rmw_fetches), (resident, 0));
    assert_eq!(ds.flush().unwrap().blocks_written, 0, "nothing was left pending");
    assert!(ingest.blocks_combined > 0 && ingest.put_batches > 0);
    assert_eq!(ingest.write_concurrency, 8);
    let snap = obs.snapshot();
    assert!(snap.counter("fault.injected") > 0, "the plan actually injected write faults");
    assert!(snap.counter("fault.corrupted") > 0, "and corrupted uploaded payloads");
    assert!(snap.counter("integrity.rejected") > 0, "checksums caught the corruption");
    assert!(snap.counter("retry.retries") > 0, "retries re-uploaded clean bytes");
    assert_eq!(snap.counter("breaker.opened"), 0, "breaker stayed closed at this rate");
}

#[test]
fn chaos_ingest_replays_deterministically_to_the_byte() {
    let (mut a, mut b) = (chaos_ingest(53), chaos_ingest(53));
    assert_eq!(a.0, b.0, "stored bytes replay identically");
    // Wall-clock stage timings are measured, not modeled; zero them so the
    // comparison covers every deterministic field.
    for stats in [&mut a.1, &mut b.1] {
        stats.encode_secs = 0.0;
        stats.put_secs = 0.0;
    }
    assert_eq!(a.1, b.1, "write statistics replay identically");
    assert_eq!(a.2, b.2, "the virtual clock replays identically");
    assert_eq!(a.3, b.3, "metrics serialize byte-identically");
    assert_eq!(a.4, b.4, "span timelines serialize byte-identically");

    let c = chaos_ingest(54);
    assert_eq!(a.0, c.0, "the fault seed never leaks into stored bytes");
    assert_ne!(a.3, c.3, "different seed, different chaos telemetry");
}

/// Guillotine-split `w x h` into disjoint tiles covering every cell, with
/// a forced 1-wide sliver so degenerate boxes are always exercised.
fn random_partition(w: usize, h: usize, rng: &mut u64) -> Vec<Box2i> {
    let mut rects = vec![Box2i::new(0, 0, w as i64, h as i64)];
    for _ in 0..24 {
        let i = (xorshift(rng) % rects.len() as u64) as usize;
        let b = rects[i];
        let (bw, bh) = (b.x1 - b.x0, b.y1 - b.y0);
        if bw <= 1 && bh <= 1 {
            continue;
        }
        let vertical = if bw <= 1 {
            false
        } else if bh <= 1 {
            true
        } else {
            xorshift(rng).is_multiple_of(2)
        };
        if vertical {
            let cut = b.x0 + 1 + (xorshift(rng) % (bw as u64 - 1)) as i64;
            rects[i] = Box2i::new(b.x0, b.y0, cut, b.y1);
            rects.push(Box2i::new(cut, b.y0, b.x1, b.y1));
        } else {
            let cut = b.y0 + 1 + (xorshift(rng) % (bh as u64 - 1)) as i64;
            rects[i] = Box2i::new(b.x0, b.y0, b.x1, cut);
            rects.push(Box2i::new(b.x0, cut, b.x1, b.y1));
        }
    }
    if let Some(i) = rects.iter().position(|b| b.x1 - b.x0 >= 2) {
        let b = rects[i];
        rects[i] = Box2i::new(b.x0, b.y0, b.x0 + 1, b.y1);
        rects.push(Box2i::new(b.x0 + 1, b.y0, b.x1, b.y1));
    }
    let area: i64 = rects.iter().map(|b| (b.x1 - b.x0) * (b.y1 - b.y0)).sum();
    assert_eq!(area as usize, w * h, "partition covers the grid exactly");
    rects
}

#[test]
fn any_tile_partition_any_order_any_concurrency_matches_whole_raster_write() {
    // Non-block-aligned dims: 100x37 over 2^6-sample blocks.
    const PW: usize = 100;
    const PH: usize = 37;
    let meta = || {
        IdxMeta::new_2d(
            "part",
            PW as u64,
            PH as u64,
            vec![Field::new("v", DType::F32).unwrap()],
            6,
            Codec::Lz4,
        )
        .unwrap()
    };
    let r = Raster::<f32>::from_fn(PW, PH, |x, y| {
        ((x as u32).wrapping_mul(2246822519).wrapping_add(y as u32) % 7919) as f32 * 0.125
    });

    let whole_mem = Arc::new(MemoryStore::new());
    let whole =
        IdxDataset::create(whole_mem.clone() as Arc<dyn ObjectStore>, "part", meta()).unwrap();
    whole.write_raster("v", 0, &r).unwrap();
    let want = dump(&whole_mem);

    for seed in [0xA1u64, 0xB2, 0xC3, 0xD4, 0xE5] {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut tiles = random_partition(PW, PH, &mut rng);
        for i in (1..tiles.len()).rev() {
            let j = (xorshift(&mut rng) % (i as u64 + 1)) as usize;
            tiles.swap(i, j);
        }
        let wc = [1, 2, 3, 5, 8, 17][(xorshift(&mut rng) % 6) as usize];
        assert!(tiles.iter().any(|b| b.x1 - b.x0 == 1 || b.y1 - b.y0 == 1), "sliver present");

        let mem = Arc::new(MemoryStore::new());
        let ds = IdxDataset::create(mem.clone() as Arc<dyn ObjectStore>, "part", meta())
            .unwrap()
            .with_write_concurrency(wc);
        for b in &tiles {
            ds.write_box("v", 0, b.x0 as u64, b.y0 as u64, &sub_raster(&r, b)).unwrap();
        }
        assert_eq!(dump(&mem), want, "seed {seed:#x} write_concurrency {wc}");
    }
}

#[test]
fn interleaved_writes_and_reads_never_serve_stale_blocks() {
    const IW: usize = 96;
    const IH: usize = 64;
    let obs = Obs::default();
    let base: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let cached = Arc::new(TierCache::new(base, 64 << 20).with_obs(&obs));
    let meta = IdxMeta::new_2d(
        "coherence",
        IW as u64,
        IH as u64,
        vec![Field::new("v", DType::F32).unwrap()],
        8,
        Codec::Lz4,
    )
    .unwrap();
    let ds = IdxDataset::create(cached, "coherence", meta).unwrap().with_obs(&obs);

    let mut oracle = Raster::<f32>::from_fn(IW, IH, |x, y| (x * 31 + y * 7) as f32);
    ds.write_raster("v", 0, &oracle).unwrap();

    let mut rng = 0x0DD_BA11_5EED_F00Du64;
    for step in 0..60u32 {
        if xorshift(&mut rng).is_multiple_of(3) {
            // Patch write: update the dataset and the in-memory oracle.
            let pw = 1 + (xorshift(&mut rng) % 24) as usize;
            let ph = 1 + (xorshift(&mut rng) % 16) as usize;
            let x0 = (xorshift(&mut rng) % (IW - pw + 1) as u64) as usize;
            let y0 = (xorshift(&mut rng) % (IH - ph + 1) as u64) as usize;
            let patch =
                Raster::<f32>::from_fn(pw, ph, |x, y| step as f32 * 1000.0 + (x + y * pw) as f32);
            ds.write_box("v", 0, x0 as u64, y0 as u64, &patch).unwrap();
            for y in 0..ph {
                for x in 0..pw {
                    oracle.data_mut()[(y0 + y) * IW + x0 + x] = patch.get(x, y);
                }
            }
        } else {
            // Read back a window through both cache layers and demand it
            // reflects every write so far.
            let qw = 1 + (xorshift(&mut rng) % 48) as usize;
            let qh = 1 + (xorshift(&mut rng) % 32) as usize;
            let x0 = (xorshift(&mut rng) % (IW - qw + 1) as u64) as i64;
            let y0 = (xorshift(&mut rng) % (IH - qh + 1) as u64) as i64;
            let region = Box2i::new(x0, y0, x0 + qw as i64, y0 + qh as i64);
            let (got, _) = ds.read_box::<f32>("v", 0, region, ds.max_level()).unwrap();
            let want: Vec<f32> = (0..qh)
                .flat_map(|y| (0..qw).map(move |x| (x, y)))
                .map(|(x, y)| oracle.get(x0 as usize + x, y0 as usize + y))
                .collect();
            assert_eq!(got.data(), &want[..], "step {step} region {region:?}");
        }
    }

    // The freshness above means nothing if the caches sat idle: both the
    // encoded-object cache and the decoded-block cache must have served.
    let snap = obs.snapshot();
    assert!(snap.counter("cache.hits") > 0, "encoded-object cache served interleaved reads");
    assert!(snap.counter("idx.decoded_cache_hits") > 0, "decoded-block cache served reads");
    assert!(snap.counter("idx.writes") > 0 && snap.counter("idx.queries") > 0);
}

#[test]
fn decoded_cache_miss_in_flight_during_write_is_never_installed() {
    // One 2^8-sample block holds the whole 16x16 raster, so the race is
    // over exactly one decoded-cache entry.
    const GW: usize = 16;
    const GH: usize = 16;
    // Parks `get`s, each holding the payload it read: a decoded-cache miss
    // pinned in flight so a write can land deterministically inside the
    // window. Full-raster writes never read, so only the reader parks.
    let gate = Arc::new(GateStore::on_gets(Arc::new(MemoryStore::new()), "gate/"));
    let obs = Obs::default();
    let meta = IdxMeta::new_2d(
        "gate",
        GW as u64,
        GH as u64,
        vec![Field::new("v", DType::F32).unwrap()],
        8,
        Codec::Lz4,
    )
    .unwrap();
    let ds = IdxDataset::create(gate.clone() as Arc<dyn ObjectStore>, "gate", meta)
        .unwrap()
        .with_obs(&obs);
    let v0 = Raster::<f32>::from_fn(GW, GH, |x, y| (x + y * GW) as f32);
    let v1 = Raster::<f32>::from_fn(GW, GH, |x, y| 1e6 + (x + y * GW) as f32);
    ds.write_raster("v", 0, &v0).unwrap();

    std::thread::scope(|s| {
        let reader = s.spawn(|| ds.read_box::<f32>("v", 0, ds.bounds(), ds.max_level()).unwrap().0);
        gate.wait_entered(1); // the in-flight fetch holds the pre-write payload
        ds.write_raster("v", 0, &v1).unwrap(); // lands inside the miss window
        gate.open();
        let stale_read = reader.join().unwrap();
        assert_eq!(stale_read.data(), v0.data(), "the racing read linearizes before the write");
    });

    // The racing read must not have installed its pre-write decode: the
    // next read re-fetches and sees the new payload.
    let (fresh, q) = ds.read_box::<f32>("v", 0, ds.bounds(), ds.max_level()).unwrap();
    assert_eq!(fresh.data(), v1.data(), "decoded cache must never serve the pre-write block");
    assert_eq!(q.decoded_cache_hits, 0, "the stale decode was discarded, not installed");
    assert_eq!(q.blocks_decoded, 1);

    // And the cache is still live — the fresh decode was installed.
    let (again, q2) = ds.read_box::<f32>("v", 0, ds.bounds(), ds.max_level()).unwrap();
    assert_eq!(again.data(), v1.data());
    assert_eq!(q2.decoded_cache_hits, 1);
    assert_eq!(q2.blocks_decoded, 0);
    assert_eq!(obs.snapshot().counter("idx.decoded_cache_hits"), 1);
}

struct WriteRun {
    snapshot_json: String,
    spans_json: String,
    spans: Vec<SpanNode>,
    snapshot: MetricsSnapshot,
    write_vns: u64,
    rendered: String,
}

/// Create a dataset through an instrumented seal-profile WAN, then ingest
/// a full raster plus one unaligned patch (forcing RMW fetches) and flush
/// it, measuring only the writes.
fn seeded_write_run(seed: u64) -> WriteRun {
    let base: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let seal = obs.scoped("seal");
    let wan = Arc::new(
        CloudStore::new(base, NetworkProfile::private_seal(), clock.clone(), seed).with_obs(&seal),
    );
    let meta = IdxMeta::new_2d(
        "ingest",
        128,
        96,
        vec![Field::new("v", DType::F32).unwrap()],
        8,
        Codec::Lz4,
    )
    .unwrap();
    let ds =
        IdxDataset::create(wan, "ingest", meta).unwrap().with_write_concurrency(4).with_obs(&seal);

    // Creating the dataset pushed the header over the WAN; measure only
    // the ingest itself.
    obs.reset();
    obs.clear_spans();

    let r = Raster::<f32>::from_fn(128, 96, |x, y| (x ^ y) as f32 + seed as f32);
    let patch = Raster::<f32>::from_fn(13, 9, |x, y| -((x + y) as f32));
    let t0 = clock.now_ns();
    ds.write_raster("v", 0, &r).unwrap();
    ds.write_box("v", 0, 37, 21, &patch).unwrap();
    ds.flush().unwrap();
    let write_vns = clock.now_ns() - t0;

    let snapshot = obs.snapshot();
    WriteRun {
        snapshot_json: snapshot.to_json().to_string(),
        spans_json: obs.spans_json().to_string(),
        spans: obs.span_tree(),
        snapshot,
        write_vns,
        rendered: obs.render_spans(),
    }
}

/// Sum of `end - start` virtual ns over every span named `label`, at any
/// depth of the forest.
fn span_vns(nodes: &[SpanNode], label: &str) -> u64 {
    let mut total = 0;
    for n in nodes {
        if n.label == label {
            total += n.end_vns.saturating_sub(n.start_vns);
        }
        total += span_vns(&n.children, label);
    }
    total
}

#[test]
fn write_spans_account_for_every_virtual_nanosecond() {
    let out = seeded_write_run(42);
    assert!(out.write_vns > 0, "ingest over the WAN must cost virtual time");

    // One root span per write, stages in pipeline order: the full write
    // plans and uploads, the patch plans and fetches the blocks it merges
    // into, the flush uploads them.
    let labels: Vec<&str> = out.spans.iter().map(|n| n.label.as_str()).collect();
    assert_eq!(
        labels,
        ["seal.idx.write_raster", "seal.idx.write_box", "seal.idx.flush"],
        "one root span per write:\n{}",
        out.rendered
    );
    let ends = |root: &SpanNode| {
        let children: Vec<&str> = root.children.iter().map(|c| c.label.as_str()).collect();
        (children[0].to_string(), children[children.len() - 1].to_string())
    };
    assert_eq!(ends(&out.spans[0]), ("seal.idx.plan".into(), "seal.idx.put".into()));
    assert_eq!(ends(&out.spans[1]), ("seal.idx.plan".into(), "seal.idx.decode".into()));
    assert_eq!(ends(&out.spans[2]), ("seal.idx.encode".into(), "seal.idx.put".into()));

    // Every virtual nanosecond of the ingest belongs to exactly one WAN-
    // touching stage: upload waves or RMW fetches. Plan and encode are
    // wall-clock only.
    let root_vns = span_vns(&out.spans, "seal.idx.write_raster")
        + span_vns(&out.spans, "seal.idx.write_box")
        + span_vns(&out.spans, "seal.idx.flush");
    assert_eq!(root_vns, out.write_vns);
    let put_vns = span_vns(&out.spans, "seal.idx.put");
    let rmw_vns = span_vns(&out.spans, "seal.idx.rmw-fetch");
    assert!(put_vns > 0, "uploads cost WAN time");
    assert!(rmw_vns > 0, "the unaligned patch forced RMW fetches over the WAN");
    assert_eq!(put_vns + rmw_vns, out.write_vns, "put + rmw-fetch own all virtual time");
    assert_eq!(span_vns(&out.spans, "seal.idx.plan"), 0);
    assert_eq!(span_vns(&out.spans, "seal.idx.encode"), 0);

    // Span sums reconcile exactly with the registry counters and with the
    // WAN's own busy accounting.
    assert_eq!(out.snapshot.counter("seal.idx.put_vns"), put_vns);
    assert_eq!(out.snapshot.counter("seal.idx.rmw_fetch_vns"), rmw_vns);
    assert_eq!(out.snapshot.counter("seal.wan.busy_vns"), out.write_vns);

    // WAN waves nest under the stage that charged them.
    for root in &out.spans {
        for child in &root.children {
            if child.label == "seal.idx.put" || child.label == "seal.idx.rmw-fetch" {
                assert!(child.children.iter().all(|w| w.label == "seal.wan.wave"));
            }
        }
    }

    // Identically-seeded write runs serialize byte-identically.
    let b = seeded_write_run(42);
    assert_eq!(out.snapshot_json, b.snapshot_json, "metrics must be byte-identical");
    assert_eq!(out.spans_json, b.spans_json, "span timings must be byte-identical");
    let c = seeded_write_run(43);
    assert_ne!(out.snapshot_json, c.snapshot_json, "different seed, different telemetry");
}

/// The `ingest` workload's geometry scaled down by 8 per axis: 320x160 over
/// 2^8-sample blocks, 10x5 row-major tiles of 32x32.
const SW: usize = 320;
const SH: usize = 160;

fn scaled_meta() -> IdxMeta {
    IdxMeta::new_2d(
        "ingest",
        SW as u64,
        SH as u64,
        vec![Field::new("v", DType::F32).unwrap()],
        8,
        Codec::Lz4,
    )
    .unwrap()
}

/// Strictly positive samples, so a written sample never reads as fill.
fn scaled_raster() -> Raster<f32> {
    Raster::<f32>::from_fn(SW, SH, |x, y| 1.0 + ((x * 131 + y * 17) % 4093) as f32 * 0.5)
}

#[test]
fn write_combining_uploads_each_block_once_in_the_benchmark_wave_shape() {
    let r = scaled_raster();
    let tiles = TilePlan::new(10, 5, 0).unwrap().tiles(SW, SH);
    let mem = Arc::new(MemoryStore::new());
    let ds = IdxDataset::create(mem.clone() as Arc<dyn ObjectStore>, "ingest", scaled_meta())
        .unwrap()
        .with_write_concurrency(8);
    let (mut total, mut last) = (WriteStats::default(), WriteStats::default());
    for b in &tiles {
        last = ds.write_box("v", 0, b.x0 as u64, b.y0 as u64, &sub_raster(&r, b)).unwrap();
        total.merge(&last);
    }

    // Every resident block uploads exactly once, by the tile that completes
    // it: no read-modify-write, at most 18 coarse blocks waiting for their
    // remaining tiles, and the last tile leaves nothing behind. The tiles
    // touch 550 blocks between them; a write-through `write_box` uploaded
    // every one of those, in 100 waves.
    assert_eq!(total.blocks_written as usize, dump(&mem).len() - 1);
    assert_eq!((total.blocks_written, total.put_batches, total.rmw_fetches), (213, 52, 0));
    assert_eq!((total.blocks_pending, last.blocks_pending), (18, 0));
    assert_eq!(total.blocks_combined, 550 - 213);

    // And the store holds bitwise what one `write_raster` leaves.
    let whole_mem = Arc::new(MemoryStore::new());
    IdxDataset::create(whole_mem.clone() as Arc<dyn ObjectStore>, "ingest", scaled_meta())
        .unwrap()
        .write_raster("v", 0, &r)
        .unwrap();
    assert_eq!(dump(&mem), dump(&whole_mem));
}

#[test]
fn crash_mid_ingest_leaves_complete_images_and_reingest_converges() {
    let r = scaled_raster();
    let tiles = TilePlan::new(10, 5, 0).unwrap().tiles(SW, SH);
    let tile_of =
        |x: usize, y: usize| tiles.iter().position(|b| b.contains(x as i64, y as i64)).unwrap();
    let whole_mem = Arc::new(MemoryStore::new());
    IdxDataset::create(whole_mem.clone() as Arc<dyn ObjectStore>, "ingest", scaled_meta())
        .unwrap()
        .write_raster("v", 0, &r)
        .unwrap();
    let want = dump(&whole_mem);

    let scripts = [
        (5, CrashPoint::BeforeWrite),
        (40, CrashPoint::BeforeWrite),
        (97, CrashPoint::AfterWrite),
        (200, CrashPoint::AfterWrite),
    ];
    for (nth, point) in scripts {
        let mem = Arc::new(MemoryStore::new());
        let crash = Arc::new(CrashStore::new(mem.clone()));
        let ds = IdxDataset::create(crash.clone(), "ingest", scaled_meta()).unwrap();
        crash.arm(CrashSpec { prefix: "ingest/f0/".into(), nth, point });
        let died_at = tiles
            .iter()
            .position(|b| {
                ds.write_box("v", 0, b.x0 as u64, b.y0 as u64, &sub_raster(&r, b)).is_err()
            })
            .expect("the scripted put is reached");
        assert!(crash.is_dead());
        drop(ds); // the dying process flushes nothing

        // Recovery sees only complete images: each stored block holds
        // exactly the samples of the tiles written up to some point of the
        // run, and nothing of a tile the run never reached.
        let reader = IdxDataset::open(mem.clone(), "ingest").unwrap();
        let (back, _) = reader.read_full::<f32>("v", 0).unwrap();
        let stored: std::collections::HashSet<String> =
            mem.list("ingest/f0/").unwrap().into_iter().map(|m| m.key).collect();
        assert!(!stored.is_empty(), "script {nth}: the crash came after some uploads");
        let mut as_of = std::collections::BTreeMap::<u64, usize>::new();
        for (x, y, v) in back.iter_cells() {
            let (block, _) = reader.curve().block_offset(&[x as u64, y as u64], 256).unwrap();
            if v != 0.0 {
                assert!(stored.contains(&reader.block_key(0, 0, block)));
                assert_eq!(v.to_bits(), r.get(x, y).to_bits(), "script {nth} ({x}, {y})");
                let latest = as_of.entry(block).or_insert(0);
                *latest = (*latest).max(tile_of(x, y));
            }
        }
        for (x, y, v) in back.iter_cells() {
            let (block, _) = reader.curve().block_offset(&[x as u64, y as u64], 256).unwrap();
            if let Some(&latest) = as_of.get(&block) {
                assert!(latest <= died_at, "script {nth}: block {block} is from the future");
                assert_eq!(v != 0.0, tile_of(x, y) <= latest, "script {nth} ({x}, {y}) torn image");
            }
        }

        // Re-running the conversion from the first tile converges on the
        // bytes of an uninterrupted write.
        for b in &tiles {
            reader.write_box("v", 0, b.x0 as u64, b.y0 as u64, &sub_raster(&r, b)).unwrap();
        }
        reader.flush().unwrap();
        assert_eq!(dump(&mem), want, "script {nth}");
    }
}
