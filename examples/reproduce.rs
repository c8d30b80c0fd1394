//! Regenerate every table and figure of the paper from the Rust stack.
//!
//! Usage: `cargo run --release --example reproduce -- [target]`
//! where `target` is one of `table1`, `fig3`, `fig4`, `fig5`, `fig6`,
//! `fig7`, `fig8`, `hz`, `compress`, `fuse`, `catalog`, `plugin`, `cloud`,
//! or `all` (default).
//!
//! Each target prints one markdown block on stdout, between
//! `<!-- reproduce:<target> -->` and `<!-- /reproduce -->`. Every number
//! in a block is a function of the seed, so the blocks are byte-stable on
//! any machine and `scripts/docs_numbers.sh` pastes them into
//! EXPERIMENTS.md verbatim. Wall-clock readings go to stderr instead.

use nsdf::catalog::{CatalogConfig, Record};
use nsdf::core::pipeline::TutorialReport;
use nsdf::core::{step_of, StepRow};
use nsdf::fuse::{run_workload, Mapping, OpMix};
use nsdf::idx::{blocks_touched, Layout};
use nsdf::plugin::{run_campaign, select_entry_point, select_entry_point_oracle};
use nsdf::prelude::*;
use nsdf::util::samples_to_bytes;
use nsdf::workflow::GraphRun;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 2024;

type Target = (&'static str, fn() -> Result<String>);

const TARGETS: [Target; 13] = [
    ("table1", table1),
    ("fig8", fig8),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("hz", hz_locality),
    ("compress", compress_table),
    ("fuse", fuse_table),
    ("catalog", catalog_table),
    ("plugin", plugin_table),
    ("cloud", cloud_table),
];

fn main() -> Result<()> {
    let target = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let mut ran = false;
    for (name, run) in TARGETS {
        if target == "all" || target == name {
            // Blank lines keep the markers out of the markdown around them.
            print!("<!-- reproduce:{name} -->\n\n{}\n<!-- /reproduce -->\n\n", run()?);
            ran = true;
        }
    }
    if !ran {
        eprintln!("unknown target {target:?}");
        std::process::exit(2);
    }
    Ok(())
}

/// One markdown table: the header row, its separator, then `rows`.
fn table<const N: usize>(header: [&str; N], rows: impl IntoIterator<Item = [String; N]>) -> String {
    let mut out = format!("| {} |\n|{}\n", header.join(" | "), "---|".repeat(N));
    for row in rows {
        out += &format!("| {} |\n", row.join(" | "));
    }
    out
}

/// Table I: participants per session.
fn table1() -> Result<String> {
    let sessions = Session::paper_sessions();
    let total = Session::total_participants(&sessions);
    let rows = sessions.iter().map(|s| {
        [
            s.venue.clone(),
            s.modality.label().into(),
            s.audience.label().into(),
            s.participants.to_string(),
        ]
    });
    let total = ["**Total participants**".into(), String::new(), String::new(), total.to_string()];
    Ok(table(["Tutorial", "Modality", "Audience", "Participants"], rows.chain([total])))
}

/// Fig. 8: survey Likert histograms (simulated cohorts; see DESIGN.md).
fn fig8() -> Result<String> {
    let tallies = SurveyModel::new(SEED).run(&Session::paper_sessions())?;
    let rows = tallies.iter().map(|t| {
        [
            t.question.panel().into(),
            t.question.text().into(),
            t.total().to_string(),
            format!("{:.2}", t.mean()),
            format!("{:.0} %", t.positive_fraction() * 100.0),
        ]
    });
    let mut out = table(["Fig.", "Question", "n", "mean", "positive (4–5)"], rows);
    out += "\nResponses per rating, 1 (top) to 5 (bottom):\n\n```\n";
    for t in &tallies {
        out += &format!("({})\n{}", t.question.panel(), t.ascii());
    }
    out += "```\n";
    Ok(out)
}

/// The tutorial run of Figs. 3–4 on `endpoint`.
fn tutorial_on(endpoint: &str) -> Result<TutorialReport> {
    let cfg = DagConfig { storage_endpoint: endpoint.into(), ..DagConfig::tutorial(SEED) };
    run_tutorial(&NsdfClient::simulated(SEED), &cfg)
}

/// Fig. 3: the data-conversion flow across storage environments.
fn fig3() -> Result<String> {
    let mut rows = Vec::new();
    for endpoint in ["local", "dataverse", "seal"] {
        let report = tutorial_on(endpoint)?;
        rows.push([
            endpoint.into(),
            report.tiff_bytes.to_string(),
            report.idx_bytes.to_string(),
            format!("{:.3}", report.size_ratio()),
            format!("{:.2}", report.total_virtual_secs),
        ]);
    }
    Ok(table(["endpoint", "TIFF bytes", "IDX bytes", "ratio", "virtual s"], rows))
}

/// Fig. 4: the four-step workflow on `seal`, one row per step, then the
/// wave timeline on every endpoint. The total rows are read off the whole
/// run, so they check that the rows above them add up.
fn fig4() -> Result<String> {
    let report = tutorial_on("seal")?;
    let run = &report.run;
    let step_row = |s: &StepRow| {
        [
            s.step.to_string(),
            s.tasks.to_string(),
            format!("{}–{}", s.waves.0, s.waves.1),
            format!("{:.3}", s.compute_ns as f64 / 1e9),
            s.artifacts.to_string(),
            s.bytes.to_string(),
        ]
    };
    let produced = run.records.iter().flat_map(|r| &r.produced);
    let total = StepRow {
        step: "total",
        tasks: run.records.len(),
        waves: (0, run.waves - 1),
        compute_ns: run.records.iter().map(|r| r.compute_ns).sum(),
        artifacts: produced.clone().count(),
        bytes: produced.map(|a| a.bytes).sum(),
    };
    let rows = report.steps().iter().chain([&total]).map(step_row).collect::<Vec<_>>();
    let mut out = table(["step", "tasks", "waves", "compute s", "artifacts", "bytes"], rows);

    let [local, seal, dataverse] = ["local", "seal", "dataverse"].map(tutorial_on);
    let runs = [local?.run, seal?.run, dataverse?.run];
    let row = |label: String, steps: String, secs: &dyn Fn(&GraphRun) -> f64| {
        let [l, s, d] = runs.each_ref().map(|r| format!("{:.3}", secs(r)));
        [label, steps, l, s, d]
    };
    let waves = (0..run.waves).map(|k| {
        let in_wave = run.records.iter().filter(|r| r.wave == k);
        let steps: BTreeSet<&str> = in_wave.map(|r| &step_of(&r.name)[..1]).collect();
        row(k.to_string(), steps.into_iter().collect::<Vec<_>>().join(", "), &|r| r.wave_secs(k))
    });
    let total = row("total".into(), String::new(), &|r| r.virtual_secs());
    out += "\n";
    out += &table(["wave", "steps", "local s", "seal s", "dataverse s"], waves.chain([total]));
    let interactions: Vec<String> = report
        .interactions
        .iter()
        .map(|i| format!("{} {:.3} s", i.label, i.virtual_secs))
        .collect();
    out += &format!(
        "\nValidation exact: {}. Dashboard interactions: {}.\n",
        report.validation_exact(),
        interactions.join(", ")
    );
    Ok(out)
}

/// Fig. 5: GEOtiled — tiling preserves accuracy while parallelising. The
/// accuracy table is the block; the sequential vs tiled wall clock goes to
/// stderr.
fn fig5() -> Result<String> {
    let (mut accuracy, mut timing) = (Vec::new(), Vec::new());
    for size in [256usize, 512] {
        let dem = DemConfig::conus_like(size, size, SEED).generate();
        let t0 = Instant::now();
        let (reference, _) = compute_terrain_tiled(
            &dem,
            TerrainParam::Slope,
            Sun::default(),
            &TilePlan::new(1, 1, 1)?,
            1,
        )?;
        let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
        for (tiles, halo) in [(4usize, 1usize), (8, 1), (8, 0)] {
            let plan = TilePlan::new(tiles, tiles, halo)?;
            let t1 = Instant::now();
            let (tiled, _) =
                compute_terrain_tiled(&dem, TerrainParam::Slope, Sun::default(), &plan, 8)?;
            let par_ms = t1.elapsed().as_secs_f64() * 1e3;
            let acc = AccuracyReport::compare(&reference, &tiled)?;
            let (grid, tiles) = (format!("{size}²"), format!("{tiles}×{tiles}"));
            accuracy.push([
                grid.clone(),
                tiles.clone(),
                halo.to_string(),
                format!("{:.1}", acc.max_abs_err),
            ]);
            timing.push([
                grid,
                tiles,
                halo.to_string(),
                format!("{seq_ms:.1}"),
                format!("{par_ms:.1}"),
                format!("{:.2}×", seq_ms / par_ms),
            ]);
        }
    }
    eprint!(
        "fig5 wall clock (this box, not gated):\n{}",
        table(["grid", "tiles", "halo", "sequential ms", "tiled ms", "speed-up"], timing)
    );
    Ok(table(["grid", "tiles", "halo", "max slope error vs untiled (°)"], accuracy))
}

/// Fig. 6 + §IV-B: TIFF-vs-IDX static validation and the ~20 % size claim.
fn fig6() -> Result<String> {
    let dem = DemConfig::conus_like(512, 512, SEED).generate();
    let slope = nsdf::geotiled::compute_terrain(&dem, TerrainParam::Slope, Sun::default())?;
    let tiff = write_tiff(&slope, TiffCompression::None)?;
    let mut rows = Vec::new();
    for codec in [
        Codec::Raw,
        Codec::PackBits,
        Codec::Lz4,
        Codec::Lzss,
        Codec::ShuffleLzss { sample_size: 4 },
        Codec::LzssHuff { sample_size: 4 },
        Codec::FixedRate { bits: 16 },
        Codec::FixedRate { bits: 10 },
    ] {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let meta =
            IdxMeta::new_2d("fig6", 512, 512, vec![Field::new("slope", DType::F32)?], 12, codec)?;
        let ds = IdxDataset::create(store, "fig6", meta)?;
        let stats = ds.write_raster("slope", 0, &slope)?;
        let (back, _) = ds.read_full::<f32>("slope", 0)?;
        let acc = AccuracyReport::compare(&slope, &back)?;
        rows.push([
            codec.name(),
            stats.bytes_stored.to_string(),
            format!("{:.3}", stats.bytes_stored as f64 / tiff.len() as f64),
            format!("{:.1e}", acc.max_abs_err),
            format!("{:.1}", acc.psnr_db),
        ]);
    }
    Ok(format!(
        "512×512 f32 slope raster; uncompressed TIFF = {} bytes.\n\n{}",
        tiff.len(),
        table(["IDX codec", "bytes", "vs TIFF", "max err", "PSNR dB"], rows)
    ))
}

/// Fig. 7: interactive dashboard latencies over local vs Seal storage.
fn fig7() -> Result<String> {
    let dem = DemConfig::conus_like(1024, 1024, SEED).generate();
    let mut rows = Vec::new();
    for (label, remote) in [("local", false), ("seal", true)] {
        let clock = SimClock::new();
        let base: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let store: Arc<dyn ObjectStore> = if remote {
            Arc::new(TierCache::new(
                Arc::new(CloudStore::new(
                    base,
                    NetworkProfile::private_seal(),
                    clock.clone(),
                    SEED,
                )),
                128 << 20,
            ))
        } else {
            base
        };
        let meta = IdxMeta::new_2d(
            "conus-30m",
            1024,
            1024,
            vec![Field::new("elevation", DType::F32)?],
            12,
            Codec::ShuffleLzss { sample_size: 4 },
        )?;
        let ds = Arc::new(IdxDataset::create(store.clone(), "fig7", meta)?);
        ds.write_raster("elevation", 0, &dem)?;
        // Cold dashboard: drop the transfer cache.
        let ds = if remote {
            // Rebuild a fresh cache so interactive reads start cold.
            let inner: Arc<dyn ObjectStore> = Arc::new(CloudStore::new(
                Arc::new(MemoryStore::new()),
                NetworkProfile::private_seal(),
                clock.clone(),
                SEED,
            ));
            // Copy published objects into the fresh WAN store.
            for m in store.list("fig7")? {
                inner.put(&m.key, &store.get(&m.key)?)?;
            }
            let cold: Arc<dyn ObjectStore> = Arc::new(TierCache::new(inner, 128 << 20));
            Arc::new(IdxDataset::open(cold, "fig7")?)
        } else {
            ds
        };
        run_session(label, ds, &clock, &mut rows)?;
    }
    Ok(table(["storage", "interaction", "level", "blocks", "bytes", "virtual ms"], rows))
}

fn run_session(
    label: &str,
    ds: Arc<IdxDataset>,
    clock: &SimClock,
    rows: &mut Vec<[String; 6]>,
) -> Result<()> {
    let mut dash = Dashboard::new();
    dash.add_dataset("conus", ds);
    dash.select_dataset("conus")?;
    dash.set_viewport_px(512)?;
    let mut shot = |name: &str, dash: &Dashboard| -> Result<()> {
        let t = clock.now_secs();
        let (_, info) = dash.render_frame()?;
        rows.push([
            label.into(),
            name.into(),
            info.level.to_string(),
            info.stats.blocks_touched.to_string(),
            info.stats.bytes_fetched.to_string(),
            format!("{:.1}", (clock.now_secs() - t) * 1e3),
        ]);
        Ok(())
    };
    shot("overview, cold", &dash)?;
    shot("overview, warm", &dash)?;
    dash.zoom(4.0)?;
    shot("zoom 4×", &dash)?;
    dash.pan(128, 128)?;
    shot("pan", &dash)?;
    dash.zoom(4.0)?;
    shot("zoom 16×", &dash)?;
    Ok(())
}

/// §III-A ablation: blocks touched per layout (HZ vs Z vs row-major).
fn hz_locality() -> Result<String> {
    let curve = HzCurve::new(BitMask::for_dims(&[1024, 1024])?);
    let bpb = 12;
    let max = curve.max_level();
    let cases = [
        ("full grid, 1/64-res overview", Box2i::new(0, 0, 1024, 1024), max - 6),
        ("full grid, half res", Box2i::new(0, 0, 1024, 1024), max - 2),
        ("128² region, full res", Box2i::new(448, 448, 576, 576), max),
        ("64² region, full res", Box2i::new(100, 900, 164, 964), max),
    ];
    let mut rows = Vec::new();
    for (name, region, level) in cases {
        let counts: Vec<String> = Layout::all()
            .iter()
            .map(|&l| Ok(blocks_touched(&curve, l, region, level, bpb)?.to_string()))
            .collect::<Result<_>>()?;
        let [hz, z, row_major]: [String; 3] = counts.try_into().expect("three layouts");
        rows.push([name.into(), hz, z, row_major]);
    }
    Ok(format!(
        "1024² grid, 4096-sample blocks; blocks touched per query:\n\n{}",
        table(["query", "HZ", "Z-order", "row-major"], rows)
    ))
}

/// §III-A/IV-B: codec sizes on terrain data. Throughput is measured end to
/// end by the `benchmark/` package (`compress.*_mb_s`).
fn compress_table() -> Result<String> {
    let dem = DemConfig::conus_like(512, 512, SEED).generate();
    let raw = samples_to_bytes(dem.data());
    let mut rows = Vec::new();
    for codec in [
        Codec::PackBits,
        Codec::Lz4,
        Codec::Lzss,
        Codec::ShuffleLzss { sample_size: 4 },
        Codec::LzssHuff { sample_size: 4 },
        Codec::Planes { sample_size: 4 },
        Codec::FixedRate { bits: 16 },
    ] {
        let enc = codec.encode(&raw)?;
        let exact = codec.decode(&enc, raw.len())? == raw;
        let stats = CompressionStats { codec, raw_bytes: raw.len(), compressed_bytes: enc.len() };
        rows.push([
            codec.name(),
            enc.len().to_string(),
            format!("{:.2}", stats.ratio()),
            if exact { "exact" } else { "lossy" }.into(),
        ]);
    }
    Ok(format!(
        "512×512 f32 DEM = {} bytes raw.\n\n{}",
        raw.len(),
        table(["codec", "bytes", "raw / stored", "round trip"], rows)
    ))
}

/// §III-B NSDF-FUSE: mapping-package comparison.
fn fuse_table() -> Result<String> {
    let mut rows = Vec::new();
    for (name, mix) in
        [("200 × 16 KiB files", OpMix::small_files()), ("4 × 16 MiB files", OpMix::large_files())]
    {
        for mapping in Mapping::palette() {
            let r = run_workload(mapping, NetworkProfile::public_dataverse(), mix, SEED)?;
            rows.push([
                name.into(),
                mapping.name().into(),
                r.store_read_ops.to_string(),
                r.store_write_ops.to_string(),
                format!("{:.2}", r.virtual_secs),
            ]);
        }
    }
    Ok(table(["workload", "mapping", "store reads", "store writes", "virtual s"], rows))
}

/// §III-B NSDF-Catalog: ingest, queries and crash recovery. Ingest and
/// scan CPU are measured end to end by the `benchmark/` package
/// (`catalog.ingest_cpu_s`, `catalog.scan_cpu_ms`).
fn catalog_table() -> Result<String> {
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let open = || Catalog::open(store.clone(), SimClock::new(), CatalogConfig::new(64));
    let cat = open()?;
    let n = 200_000u64;
    cat.ingest((0..n).map(|i| {
        Record::new(i, format!("d{:03}/o{i:07}", i % 200), "dataverse", 4096, i % 50_000)
            .expect("valid")
    }))?;
    let hits = cat.find_by_prefix("d077/").len();
    let stats = cat.stats();
    let segments: usize = cat.layout().iter().flatten().map(Vec::len).sum();
    let acked = cat.scan_all();
    // Drop without `close`: the reopen must rebuild the rest from the WAL.
    drop(cat);
    let recovered = open()?.scan_all() == acked;
    Ok(table(
        ["64-shard catalog, 200 000 records", "value"],
        [
            ["live records".into(), stats.records.to_string()],
            ["segments checkpointed during ingest".into(), segments.to_string()],
            ["`d077/` prefix-query hits".into(), hits.to_string()],
            ["checksums shared by several records".into(), stats.duplicate_checksums.to_string()],
            ["reopen without close equals the acked state".into(), recovered.to_string()],
        ],
    ))
}

/// §III / Fig. 2 computing services: NSDF-Cloud ad-hoc clusters.
fn cloud_table() -> Result<String> {
    use nsdf::cloud::Job;
    let providers = Provider::nsdf_federation();
    let jobs: Vec<Job> = (0..256).map(|id| Job { id, work: 600.0 }).collect();
    let mut rows = Vec::new();
    for nodes in [4u32, 16, 36, 64] {
        let cluster = provision(&providers, &ClusterRequest { nodes, max_cost_per_hour: 50.0 })?;
        let report = cluster.run_jobs(&jobs, &SimClock::new())?;
        rows.push([
            nodes.to_string(),
            format!("{:.0}", report.makespan_secs),
            format!("{:.2}", report.cost_dollars),
            format!("{:.0} %", report.utilisation * 100.0),
            format!("{:.2}", cluster.cost_per_hour()),
        ]);
    }
    Ok(format!(
        "256 jobs × 10 core-minutes over the NSDF federation ($50/h ceiling):\n\n{}",
        table(["nodes", "makespan s", "cost $", "utilisation", "$/h"], rows)
    ))
}

/// §III-B NSDF-Plugin: constraints matrix summary + selection quality.
fn plugin_table() -> Result<String> {
    let tb = Testbed::nsdf_default();
    let matrix = run_campaign(&tb, 50, SEED)?;
    let links = || matrix.pairs.iter().filter(|p| p.from != p.to);
    let fastest = links().min_by(|a, b| a.rtt_mean_ms.total_cmp(&b.rtt_mean_ms));
    let slowest = links().max_by(|a, b| a.rtt_mean_ms.total_cmp(&b.rtt_mean_ms));
    let (fastest, slowest) = (fastest.expect("testbed has links"), slowest.expect("links"));
    let pairs = [("fastest", fastest), ("slowest", slowest)].map(|(label, p)| {
        [label.into(), p.from.clone(), p.to.clone(), format!("{:.1}", p.rtt_mean_ms)]
    });
    let replicas = ["utah", "sdsc", "mghpcc", "tacc"];
    let mut choices = Vec::new();
    for client in ["utk", "umich", "clemson", "jhu"] {
        let (got, _) = select_entry_point(&matrix, client, &replicas, 1 << 30)?;
        let (want, _) = select_entry_point_oracle(&tb, client, &replicas, 1 << 30)?;
        choices.push([client.into(), got, want]);
    }
    Ok(format!(
        "8-site campaign, 50 probes per pair:\n\n{}\nEntry point for a 1 GiB transfer, \
         measured vs noise-free oracle:\n\n{}",
        table(["pair", "from", "to", "mean RTT ms"], pairs),
        table(["client", "selected", "oracle"], choices)
    ))
}
