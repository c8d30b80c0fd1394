//! Parallel ingest: virtual-time cost of tile-by-tile GEOtiled→IDX
//! conversion as `write_concurrency` scales the `put_many` upload waves
//! and the block uploads a handle keeps in flight (`write_box` issues its
//! waves, so consecutive tiles share the link's streams), over both WAN
//! profiles of §III. The write buffer uploads each block
//! once, by the tile that completes it, so every configuration must write
//! exactly the resident blocks with no read-modify-write fetch. Emits
//! `BENCH_ingest.json` at the repo root; numbers are quoted in
//! EXPERIMENTS.md ("Parallel ingest").
//!
//! Every quantity in the artifact is virtual-clock or counter state —
//! nothing samples wall time or ambient entropy — so two runs with the
//! same seed produce byte-identical files, and CI diffs them.

use nsdf_compress::Codec;
use nsdf_geotiled::{compute_terrain_tiled, DemConfig, Sun, TerrainParam, TilePlan};
use nsdf_idx::{Field, IdxDataset, IdxMeta, WriteStats};
use nsdf_storage::{CloudStore, MemoryStore, NetworkProfile, ObjectStore};
use nsdf_util::json::JsonValue;
use nsdf_util::{Box2i, DType, Obs, Raster, SimClock};
use std::sync::Arc;

const SEED: u64 = 42;
const W: usize = 384;
const H: usize = 256;
const TILES_X: usize = 6;
const TILES_Y: usize = 4;
const CONCURRENCIES: [usize; 4] = [1, 2, 4, 8];

/// The ingest payload: a hillshade computed by the tiled GEOtiled
/// pipeline, plus the tile grid its upload follows.
fn payload() -> (Raster<f32>, Vec<Box2i>) {
    let dem = DemConfig::conus_like(W, H, SEED).generate();
    let plan = TilePlan::new(TILES_X, TILES_Y, 2).expect("valid plan");
    let (shade, _) = compute_terrain_tiled(&dem, TerrainParam::Hillshade, Sun::default(), &plan, 4)
        .expect("terrain");
    (shade, plan.tiles(W, H))
}

fn sub_raster(src: &Raster<f32>, b: &Box2i) -> Raster<f32> {
    Raster::from_fn((b.x1 - b.x0) as usize, (b.y1 - b.y0) as usize, |x, y| {
        src.get(b.x0 as usize + x, b.y0 as usize + y)
    })
}

/// One measured configuration: the full tile sweep written through a
/// WAN-modeled store at one `write_concurrency`. Returns its virtual
/// seconds and its artifact record.
fn run_case(
    shade: &Raster<f32>,
    tiles: &[Box2i],
    profile: NetworkProfile,
    write_concurrency: usize,
) -> (f64, JsonValue) {
    let profile_name = profile.name.clone();
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let mem = Arc::new(MemoryStore::new());
    let wan = Arc::new(CloudStore::new(mem.clone(), profile, clock.clone(), SEED).with_obs(&obs));
    let meta = IdxMeta::new_2d(
        "ingest",
        W as u64,
        H as u64,
        vec![Field::new("hillshade", DType::F32).expect("field")],
        8,
        Codec::Lz4,
    )
    .expect("meta");
    let ds = IdxDataset::create(wan, "ingest", meta)
        .expect("create")
        .with_write_concurrency(write_concurrency)
        .with_obs(&obs);

    // Measure the tile sweep only, not the header upload.
    let mut ingest = WriteStats::default();
    let v0 = clock.now_secs();
    let snap0 = obs.snapshot();
    for b in tiles {
        let stats = ds
            .write_box("hillshade", 0, b.x0 as u64, b.y0 as u64, &sub_raster(shade, b))
            .expect("tile write");
        ingest.merge(&stats);
    }
    ingest.merge(&ds.flush().expect("flush"));
    let snap = obs.snapshot();
    let resident = mem.list("ingest/f0/").expect("list").len() as u64;
    assert_eq!(ingest.blocks_written, resident, "wc={write_concurrency}: one upload per block");
    assert_eq!(ingest.rmw_fetches, 0, "wc={write_concurrency}: a fresh conversion never RMWs");
    let secs = clock.now_secs() - v0;
    let [wan_write_ops, wan_waves, bytes_up] =
        ["wan.write_ops", "wan.waves", "wan.bytes_up"].map(|c| snap.counter(c) - snap0.counter(c));
    println!(
        "{profile_name:<17} wc={write_concurrency:<2} virtual={secs:>8.3}s blocks={:<4} \
         batches={:<4} rmw={:<4} waves={wan_waves:<4} bytes_up={bytes_up}",
        ingest.blocks_written, ingest.put_batches, ingest.rmw_fetches,
    );
    let record = JsonValue::obj([
        ("profile", profile_name.as_str().into()),
        ("write_concurrency", write_concurrency.into()),
        ("virtual_secs", JsonValue::fixed(secs, 6)),
        ("blocks_written", ingest.blocks_written.into()),
        ("put_batches", ingest.put_batches.into()),
        ("rmw_fetches", ingest.rmw_fetches.into()),
        ("wan_write_ops", wan_write_ops.into()),
        ("wan_waves", wan_waves.into()),
        ("bytes_up", bytes_up.into()),
    ]);
    (secs, record)
}

fn main() {
    let (shade, tiles) = payload();
    let mut records = Vec::new();
    let mut pass = true;
    let mut ratios = Vec::new();
    for profile in [NetworkProfile::public_dataverse, NetworkProfile::private_seal] {
        let mut secs = Vec::new();
        for wc in CONCURRENCIES {
            let (s, record) = run_case(&shade, &tiles, profile(), wc);
            secs.push(s);
            records.push(record);
        }
        // Acceptance: batched uploads at concurrency >= 4 beat the
        // sequential ingest on virtual time over the private (Seal-class)
        // profile.
        let name = profile().name;
        for (&wc, s) in CONCURRENCIES.iter().zip(&secs).skip(2) {
            let ratio = s / secs[0];
            let ok = ratio < 1.0;
            if name == "private-seal" {
                pass &= ok;
            }
            println!(
                "acceptance: {name} wc={wc}/sequential virtual time = {ratio:.3} ({})",
                if ok { "PASS: < 1.0" } else { "FAIL: >= 1.0" }
            );
            ratios.push(JsonValue::obj([
                ("profile", name.as_str().into()),
                ("write_concurrency", wc.into()),
                ("over_sequential_virtual", JsonValue::fixed(ratio, 4)),
            ]));
        }
    }

    let workload = JsonValue::obj([
        ("width", W.into()),
        ("height", H.into()),
        ("tiles", tiles.len().into()),
        ("concurrencies", CONCURRENCIES.into_iter().collect()),
    ]);
    let doc = JsonValue::obj([
        ("bench", "ingest".into()),
        ("seed", SEED.into()),
        ("workload", workload),
        ("records", JsonValue::Arr(records)),
        ("acceptance", JsonValue::Arr(ratios)),
    ]);
    nsdf_bench::write_artifact("BENCH_ingest.json", &doc);

    assert!(pass, "batched ingest at concurrency >= 4 must beat sequential on private-seal");
}
