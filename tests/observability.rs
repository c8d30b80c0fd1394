//! Acceptance tests for the unified observability layer: one registry and
//! one virtual clock shared by the WAN simulation, the read cache, and the
//! IDX dataset, so a progressive `read_box` over the private (Seal-class)
//! WAN profile yields a span tree that attributes virtual time to fetch vs
//! decode vs cache layers — and identically-seeded runs serialize to
//! byte-identical metrics.

use nsdf::prelude::*;
use nsdf::util::SpanNode;
use std::sync::Arc;

struct RunOutput {
    snapshot_json: String,
    spans_json: String,
    spans: Vec<SpanNode>,
    snapshot: MetricsSnapshot,
    cold_vns: u64,
    warm_vns: u64,
    rendered: String,
}

/// Author a small terrain dataset locally, then read it progressively
/// through a fully instrumented seal-profile WAN + cache chain: one cold
/// pass and one warm repeat of the same viewport.
fn seeded_run(seed: u64) -> RunOutput {
    let base: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let dem = DemConfig::conus_like(256, 128, seed).generate();
    let meta = IdxMeta::new_2d(
        "obs-acceptance",
        256,
        128,
        vec![Field::new("elevation", DType::F32).unwrap()],
        10,
        Codec::ShuffleLzss { sample_size: 4 },
    )
    .unwrap();
    let author = IdxDataset::create(base.clone(), "obs/terrain", meta).unwrap();
    author.write_raster("elevation", 0, &dem).unwrap();

    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let seal = obs.scoped("seal");
    let wan =
        CloudStore::new(base, NetworkProfile::private_seal(), clock.clone(), seed).with_obs(&seal);
    let cached = Arc::new(TierCache::new(Arc::new(wan), 64 << 20).with_obs(&seal));
    let ds = IdxDataset::open(cached, "obs/terrain").unwrap().with_obs(&seal);

    // Opening fetched the metadata over the WAN; measure only the reads.
    obs.reset();
    obs.clear_spans();

    let region = ds.bounds();
    let max = ds.max_level();
    let t0 = clock.now_ns();
    ds.read_progressive::<f32>("elevation", 0, region, max - 3, max).unwrap();
    let cold_vns = clock.now_ns() - t0;

    let t1 = clock.now_ns();
    ds.read_progressive::<f32>("elevation", 0, region, max - 3, max).unwrap();
    let warm_vns = clock.now_ns() - t1;

    let snapshot = obs.snapshot();
    RunOutput {
        snapshot_json: snapshot.to_json().to_string(),
        spans_json: obs.spans_json().to_string(),
        spans: obs.span_tree(),
        snapshot,
        cold_vns,
        warm_vns,
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

fn count_spans(nodes: &[SpanNode], label: &str) -> usize {
    nodes.iter().map(|n| usize::from(n.label == label) + count_spans(&n.children, label)).sum()
}

#[test]
fn progressive_read_span_tree_attributes_layers() {
    let out = seeded_run(42);

    // Four progressive levels x two passes = eight read_box root spans.
    assert_eq!(out.spans.len(), 8, "one root span per read_box:\n{}", out.rendered);
    for root in &out.spans {
        assert_eq!(root.label, "seal.idx.read_box");
        let labels: Vec<&str> = root.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.first(), Some(&"seal.idx.plan"));
        assert_eq!(labels.last(), Some(&"seal.idx.gather"));
    }

    // The cold pass pays WAN time inside fetch spans; every virtual
    // nanosecond the clock moved is attributed to them, and nothing else
    // in the query pipeline advances the virtual clock.
    let read_vns = span_vns(&out.spans, "seal.idx.read_box");
    let fetch_vns = span_vns(&out.spans, "seal.idx.fetch");
    let decode_vns = span_vns(&out.spans, "seal.idx.decode");
    assert!(out.cold_vns > 0, "cold pass must cost virtual WAN time");
    assert_eq!(read_vns, out.cold_vns + out.warm_vns);
    assert_eq!(fetch_vns, out.cold_vns, "all virtual time belongs to fetch");
    assert_eq!(decode_vns, 0, "decode is wall-clock only");
    assert_eq!(out.snapshot.counter("seal.idx.fetch_vns"), fetch_vns);
    assert_eq!(out.snapshot.counter("seal.wan.busy_vns"), fetch_vns);

    // WAN waves nest under the fetch stage of the same registry.
    assert!(count_spans(&out.spans, "seal.wan.wave") > 0);
    for root in &out.spans {
        for child in &root.children {
            if child.label == "seal.idx.fetch" {
                assert!(child.children.iter().all(|w| w.label == "seal.wan.wave"));
            }
        }
    }

    // The warm pass is served by the cache: zero further virtual time and
    // every block accounted as a hit or a decoded-cache hit.
    assert_eq!(out.warm_vns, 0, "warm repeat must skip the WAN");
    let hits = out.snapshot.counter("seal.cache.hits")
        + out.snapshot.counter("seal.idx.decoded_cache_hits");
    assert!(hits > 0, "warm pass must hit a cache layer");
    assert_eq!(
        out.snapshot.counter("seal.cache.misses"),
        out.snapshot.counter("seal.wan.read_ops"),
        "every cache miss is exactly one WAN read"
    );
}

#[test]
fn identically_seeded_runs_serialize_identically() {
    let a = seeded_run(7);
    let b = seeded_run(7);
    assert_eq!(a.snapshot_json, b.snapshot_json, "metrics must be byte-identical");
    assert_eq!(a.spans_json, b.spans_json, "span timings must be byte-identical");
    assert_eq!(a.cold_vns, b.cold_vns);

    let c = seeded_run(8);
    assert_ne!(a.snapshot_json, c.snapshot_json, "different seed, different telemetry");
}

/// The 3-D path reports through the same `idx.*` handles as the 2-D one:
/// upload and fetch time reconcile with the WAN on one registry, for box
/// queries through the volume and slices through a session alike.
#[test]
fn volume_pipeline_reconciles_with_the_wan() {
    use nsdf::util::Volume;

    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let seal = obs.scoped("seal");
    let wan = CloudStore::new(
        Arc::new(MemoryStore::new()),
        NetworkProfile::private_seal(),
        clock.clone(),
        42,
    )
    .with_obs(&seal);
    let meta = IdxMeta::new(
        "obs-volume",
        &[32, 32, 32],
        vec![Field::new("density", DType::F32).unwrap()],
        8,
        Codec::ShuffleLzss { sample_size: 4 },
    )
    .unwrap();
    let vol =
        Arc::new(IdxDataset::create(Arc::new(wan), "obs/plume", meta).unwrap().with_obs(&seal));
    // Creating uploaded the header over the WAN; measure only the pipeline.
    obs.reset();
    obs.clear_spans();

    let data = Volume::from_fn(32, 32, 32, |x, y, z| (x as f32 * 0.2).sin() * 5.0 + (y + z) as f32);
    let written = vol.write_volume("density", 0, &data).unwrap();
    let snap = obs.snapshot();
    assert_eq!(snap.counter("seal.idx.writes"), 1);
    assert_eq!(snap.counter("seal.idx.blocks_written"), written.blocks_written);
    assert!(written.blocks_written > 0);
    assert_eq!(snap.counter("seal.idx.put_vns"), snap.counter("seal.wan.busy_vns"));
    assert_eq!(obs.span_tree()[0].label, "seal.idx.write_volume");

    obs.reset();
    obs.clear_spans();
    let max = vol.max_level();
    vol.read_slice_z::<f32>("density", 0, 11, max - 3).unwrap();
    vol.read_volume::<f32>("density", 0, nsdf::util::Box3i::new(2, 3, 9, 30, 29, 22), max).unwrap();
    let mut session =
        QuerySession::<f32>::new(Arc::clone(&vol), "density").unwrap().with_obs(&seal);
    for z in [0, 31] {
        session.set_slice(z).unwrap();
        session.frame_at(max).unwrap();
    }

    let snap = obs.snapshot();
    assert_eq!(snap.counter("seal.idx.queries"), 2, "one per box query, slices included");
    assert!(snap.counter("seal.idx.blocks_decoded") > 0);
    assert!(snap.counter("seal.idx.fetch_vns") > 0 && snap.counter("seal.session.fetch_vns") > 0);
    assert_eq!(
        snap.counter("seal.idx.fetch_vns") + snap.counter("seal.session.fetch_vns"),
        snap.counter("seal.wan.busy_vns"),
        "every virtual nanosecond the WAN was busy belongs to a volume fetch wave"
    );
    assert_eq!(session.stats().fetch_vns, snap.counter("seal.session.fetch_vns"));
    let spans = obs.span_tree();
    assert_eq!(span_vns(&spans, "seal.idx.fetch"), snap.counter("seal.idx.fetch_vns"));
    // A slice is a session frame like any other: one `frame` span a slice,
    // its fetch waves inside.
    let frames: Vec<_> = spans.iter().filter(|r| r.label == "seal.session.frame").collect();
    assert_eq!(frames.len(), 2);
    assert_eq!(
        frames.iter().map(|f| span_vns(&f.children, "seal.session.fetch")).sum::<u64>(),
        snap.counter("seal.session.fetch_vns")
    );
    for root in spans.iter().filter(|r| r.label == "seal.idx.read_box") {
        let labels: Vec<&str> = root.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.first(), Some(&"seal.idx.plan"));
        assert_eq!(labels.last(), Some(&"seal.idx.gather"));
    }
}
