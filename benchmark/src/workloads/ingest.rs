//! `ingest`: tutorial Step 2 at scale — a 50-tile `write_box` conversion of
//! four 2560×1280 f32 fields into one IDX dataset on `seal`, then a cold
//! full-resolution read-back of every field.
//!
//! Why it exists: `nsdf-compress` (encode then decode), `nsdf-idx` write
//! planning / read-modify-write / gather, `nsdf-hz` and WAN
//! `put_many`/`get_many` waves dominate; somospie, workflow, catalog and
//! scheduler contention do nothing. Writes and reads of the same blocks
//! sit side by side, so an encode win that costs decode (or ratio) shows.
//!
//! User-visible op: one tile `write_box` (n = 4 fields × 50 tiles).

use crate::metrics::ratio;
use crate::stack::{self, Stack};
use crate::workload::{cpu_timed, timed, Phase, Rep};
use nsdf_compress::Codec;
use nsdf_geotiled::{compute_terrain, DemConfig, Sun, TerrainParam, TilePlan};
use nsdf_idx::{Field, IdxDataset, IdxMeta, QueryStats, WriteStats};
use nsdf_util::{DType, Raster, Result};

const ENDPOINT: &str = "seal";
const BASE: &str = "ingest";
/// 50 tiles x 4 fields = 200 ops: the fewest that leave ten beyond p95.
const TILES: (usize, usize) = (10, 5);

/// Seed-derived inputs, generated once per process.
pub struct Inputs {
    seed: u64,
    width: usize,
    height: usize,
    /// The four terrain fields of one seeded DEM, by name.
    fields: Vec<(&'static str, Raster<f32>)>,
    /// Wall seconds generating them.
    pub generate_s: f64,
}

/// Generate the source rasters.
pub fn generate(seed: u64, quick: bool) -> Inputs {
    let (width, height) = if quick { (640, 320) } else { (2560, 1280) };
    let (fields, generate_s) = timed(|| {
        let dem = DemConfig::conus_like(width, height, seed).generate();
        TerrainParam::all()
            .iter()
            .map(|p| (p.name(), compute_terrain(&dem, *p, Sun::default()).expect("terrain field")))
            .collect()
    });
    Inputs { seed, width, height, fields, generate_s }
}

/// One repetition on a fresh client.
pub fn run(inp: &Inputs, traced: bool) -> Result<Rep> {
    let mut rep = Rep::default();
    let (built, setup_s) = timed(|| -> Result<_> {
        let st = stack::build(inp.seed, ENDPOINT, None, traced)?;
        let fields = inp
            .fields
            .iter()
            .map(|(name, _)| Field::new(*name, DType::F32))
            .collect::<Result<Vec<_>>>()?;
        let meta = IdxMeta::new_2d(
            BASE,
            inp.width as u64,
            inp.height as u64,
            fields,
            14,
            Codec::parse("adaptive4")?,
        )?;
        let ds = IdxDataset::create(st.store(), BASE, meta)?
            .with_obs(&st.client.obs().scoped(ENDPOINT))
            .with_write_concurrency(8);
        Ok((st, ds))
    });
    let (st, ds) = built?;
    rep.setup_s = setup_s;
    let Stack { client, tracer, tier, .. } = &st;
    let clock = client.clock().clone();
    let tiles = TilePlan::new(TILES.0, TILES.1, 0)?.tiles(inp.width, inp.height);

    // ---- measured phase ---------------------------------------------------
    let phase = Phase::start(&clock, client.obs(), tracer);
    let mut written = WriteStats::default();
    let mut request = 0u64;
    for (name, raster) in &inp.fields {
        for b in &tiles {
            request += 1;
            tracer.set_request(request);
            let tile = raster.window(*b)?;
            let t0 = clock.now_ns();
            let stats = {
                let _s = tracer.span("idx", "write_box");
                ds.write_box(name, 0, b.x0 as u64, b.y0 as u64, &tile)?
            };
            rep.ops_vns.push(clock.now_ns() - t0);
            written.merge(&stats);
        }
    }
    // Cold read-back: empty RAM tier, fresh dataset handle (no decoded
    // blocks), every block crosses the WAN once.
    tier.clear_ram();
    let reader = IdxDataset::open(st.store(), BASE)?.with_obs(&client.obs().scoped(ENDPOINT));
    let mut read = QueryStats::default();
    let mut mismatched = 0u64;
    for (name, raster) in &inp.fields {
        request += 1;
        tracer.set_request(request);
        let (back, stats) = {
            let _s = tracer.span("idx", "read_full");
            reader.read_full::<f32>(name, 0)?
        };
        read.merge(&stats);
        let same = back.data().iter().zip(raster.data()).all(|(a, b)| a.to_bits() == b.to_bits());
        mismatched += !(same && back.shape() == raster.shape()) as u64;
    }
    let delta = phase.finish(&mut rep, tracer);

    // ---- correctness and accounting ----------------------------------------
    rep.attempted = request;
    rep.failed = mismatched;
    rep.check(mismatched == 0, || format!("{mismatched} fields read back different bits"));
    let listing = st.store().list(&format!("{BASE}/"))?;
    rep.stored_bytes = listing.iter().map(|m| m.size).sum();
    rep.user_stored_bytes = (inp.fields.len() * inp.width * inp.height * 4) as u64;
    rep.wan_bytes = delta.c("seal.wan.bytes_up") + delta.c("seal.wan.bytes_down");
    rep.user_moved_bytes = 2 * rep.user_stored_bytes;

    let l = &mut rep.layers;
    delta.fill_store_layers(l, "seal.", rep.virtual_ns);
    l.set("idx.blocks_written", written.blocks_written as f64);
    l.set("idx.rmw_fetches", written.rmw_fetches as f64);
    l.set(
        "idx.rmw_per_block_written",
        ratio(written.rmw_fetches as f64, written.blocks_written as f64),
    );
    let block_keys = listing.iter().filter(|m| !m.key.ends_with(".idx")).count();
    l.set("idx.write_amp", ratio(written.blocks_written as f64, block_keys as f64));
    l.set("idx.put_batches", written.put_batches as f64);
    l.set("idx.put_vns", delta.f("seal.idx.put_vns"));
    l.set("idx.rmw_fetch_vns", delta.f("seal.idx.rmw_fetch_vns"));
    l.set("idx.queries", delta.f("seal.idx.queries"));
    l.set("idx.blocks_touched", read.blocks_touched as f64);
    l.set("idx.blocks_decoded", read.blocks_decoded as f64);
    l.set(
        "idx.decoded_cache_hit_ratio",
        ratio(read.decoded_cache_hits as f64, read.blocks_touched as f64),
    );
    l.set("idx.fetch_vns", delta.f("seal.idx.fetch_vns"));
    l.set("hz.blocks_planned", read.blocks_touched as f64);
    let huff: u64 =
        written.codecs.iter().filter(|(c, _)| c.starts_with("zlib")).map(|(_, n)| n).sum();
    l.set("compress.huff_block_frac", ratio(huff as f64, written.blocks_written as f64));
    l.set("compress.ratio", ratio(written.bytes_raw as f64, written.bytes_stored as f64));
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    l.set("compress.encode_cpu_s", written.encode_secs);
    l.set("compress.decode_cpu_s", read.decode_secs);
    l.set("compress.encode_mb_s", ratio(mib(written.bytes_raw), written.encode_secs));
    l.set("compress.decode_mb_s", ratio(mib(read.bytes_decoded), read.decode_secs));

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
        "catalog.upserts",
        "catalog.gets",
        "workflow.tasks_executed",
        "somospie.pixels",
    ]);
    let cold = rep.layers.get("tier.wan_fetches");
    rep.check(cold >= read.blocks_touched as f64, || {
        format!("read-back was not cold: {cold} WAN fetches for {} blocks", read.blocks_touched)
    });

    if let Some(trace) = rep.trace.as_mut() {
        // Layer probe: replay the read-back's query planning.
        let bounds = reader.bounds();
        let plan_s = cpu_timed(|| {
            for _ in &inp.fields {
                std::hint::black_box(reader.blocks_for_query(bounds, reader.max_level()))
                    .expect("plan");
            }
        })
        .1;
        let ns = |s: f64| (s * 1e9) as u64;
        trace.budget.reattribute("idx", "compress", 0, ns(written.encode_secs + read.decode_secs));
        trace.budget.reattribute("idx", "hz", 0, ns(plan_s));
        rep.layers.set("hz.plan_cpu_s", plan_s);
        rep.layers.set("idx.gather_cpu_s", trace.budget.wall_secs("idx"));
    }
    Ok(rep)
}
