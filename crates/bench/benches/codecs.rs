//! Codec matrix: compression ratio and end-to-end virtual WAN time for
//! every lossless codec in the palette plus the adaptive per-block
//! selector, on three paper-shaped field types (smooth f32 elevation,
//! noisier f32 slope, blocky u8 land cover), over both WAN profiles of §III.
//!
//! Emits `BENCH_codecs_compare.json` at the repo root: sizes, ratios,
//! virtual times and per-codec block histograms, nothing wall-clock. CI
//! runs this bench twice and `cmp`s the file: any drift means wall time or
//! ambient entropy leaked into a seeded pipeline. Codec throughput is
//! measured end to end by the `benchmark/` package (`compress.*_mb_s`).

use nsdf_compress::Codec;
use nsdf_idx::{Field, IdxDataset, IdxMeta};
use nsdf_storage::{CloudStore, MemoryStore, NetworkProfile, ObjectStore};
use nsdf_util::{DType, NsdfError, Raster, Result, Sample, SimClock};
use std::sync::Arc;

const SEED: u64 = 42;
const DIM: usize = 256; // 256x256 per field, bits_per_block 8 -> 256 blocks
const BITS_PER_BLOCK: u32 = 8;

/// The measured palette: every lossless codec plus the adaptive selector.
/// FixedRate is excluded — lossy codecs have no bitwise ratio story.
fn palette() -> Vec<Codec> {
    vec![
        Codec::Raw,
        Codec::PackBits,
        Codec::Lzss,
        Codec::Lz4,
        Codec::ShuffleLzss { sample_size: 4 },
        Codec::LzssHuff { sample_size: 4 },
        Codec::Adaptive { sample_size: 4 },
    ]
}

struct FieldSpec {
    name: &'static str,
    dtype: DType,
    bytes: Vec<u8>,
}

/// Deterministic xorshift — the bench must not touch ambient entropy.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Three payloads shaped like the paper's data products.
fn field_specs() -> Vec<FieldSpec> {
    // Smooth elevation: low-frequency cosine relief, shuffle/delta food.
    let elevation: Vec<u8> = (0..DIM * DIM)
        .flat_map(|i| {
            let (x, y) = ((i % DIM) as f32, (i / DIM) as f32);
            let v = 1500.0 + 800.0 * (x * 0.013).cos() * (y * 0.009).sin();
            v.to_le_bytes()
        })
        .collect();
    // Slope: derivative-like field with deterministic high-frequency jitter.
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    let slope: Vec<u8> = (0..DIM * DIM)
        .flat_map(|i| {
            let (x, y) = ((i % DIM) as f32, (i / DIM) as f32);
            let base = 10.0 * (x * 0.013).sin() * (y * 0.009).cos();
            let jitter = ((xorshift(&mut s) >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
            (base + jitter).to_le_bytes()
        })
        .collect();
    // Land cover: blocky categorical labels, long runs, PackBits food.
    let landcover: Vec<u8> =
        (0..DIM * DIM).map(|i| ((i % DIM) / 32 + (i / DIM) / 32 * 8) as u8).collect();
    vec![
        FieldSpec { name: "elevation_f32", dtype: DType::F32, bytes: elevation },
        FieldSpec { name: "slope_f32", dtype: DType::F32, bytes: slope },
        FieldSpec { name: "landcover_u8", dtype: DType::U8, bytes: landcover },
    ]
}

struct Record {
    field: &'static str,
    codec: String,
    raw_bytes: usize,
    stored_bytes: u64,
    ratio: f64,
    /// Per-codec block counts the dataset write reported (adaptive rows
    /// show the mix; static rows show a single entry).
    codec_blocks: Vec<(String, u64)>,
    virtual_secs: Vec<(String, f64, f64)>, // (profile, write, read)
}

impl Record {
    fn to_json(&self) -> String {
        let blocks = self
            .codec_blocks
            .iter()
            .map(|(n, c)| format!("\"{n}\":{c}"))
            .collect::<Vec<_>>()
            .join(",");
        let wan = self
            .virtual_secs
            .iter()
            .map(|(p, w, r)| {
                format!("{{\"profile\":\"{p}\",\"write_secs\":{w:.6},\"read_secs\":{r:.6}}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"field\":\"{}\",\"codec\":\"{}\",\"raw_bytes\":{},\"stored_bytes\":{},\
             \"ratio\":{:.6},\"codec_blocks\":{{{blocks}}},\"wan\":[{wan}]}}",
            self.field, self.codec, self.raw_bytes, self.stored_bytes, self.ratio
        )
    }
}

/// End-to-end virtual time: write + read the field as an IDX dataset over a
/// simulated WAN. Returns (write_secs, read_secs, write_stats).
fn wan_roundtrip<T: Sample>(
    spec: &FieldSpec,
    codec: Codec,
    profile: NetworkProfile,
) -> Result<(f64, f64, nsdf_idx::WriteStats)> {
    let clock = SimClock::new();
    let mem = Arc::new(MemoryStore::new());
    let wan: Arc<dyn ObjectStore> = Arc::new(CloudStore::new(mem, profile, clock.clone(), SEED));
    let meta = IdxMeta::new_2d(
        "codecs",
        DIM as u64,
        DIM as u64,
        vec![Field::new("v", spec.dtype)?],
        BITS_PER_BLOCK,
        codec,
    )?;
    let ds = IdxDataset::create(wan, "bench/codecs", meta)?;
    let raster = Raster::<T>::from_fn(DIM, DIM, |x, y| {
        let i = (y * DIM + x) * spec.dtype.size_bytes();
        T::read_le(&spec.bytes[i..i + spec.dtype.size_bytes()]).expect("sample bytes")
    });
    let v0 = clock.now_secs();
    let stats = ds.write_raster("v", 0, &raster)?;
    let v1 = clock.now_secs();
    let (back, _) = ds.read_full::<T>("v", 0)?;
    let v2 = clock.now_secs();
    if back.data() != raster.data() {
        return Err(NsdfError::corrupt("WAN roundtrip mismatch"));
    }
    Ok((v1 - v0, v2 - v1, stats))
}

fn measure(spec: &FieldSpec, codec: Codec) -> Record {
    let mut virtual_secs = Vec::new();
    let mut stored = 0u64;
    let mut codec_blocks: Vec<(String, u64)> = Vec::new();
    for profile in [NetworkProfile::public_dataverse(), NetworkProfile::private_seal()] {
        let name = profile.name.clone();
        let (w, r, stats) = match spec.dtype {
            DType::F32 => wan_roundtrip::<f32>(spec, codec, profile),
            DType::U8 => wan_roundtrip::<u8>(spec, codec, profile),
            other => panic!("unhandled dtype {other:?}"),
        }
        .expect("WAN roundtrip");
        virtual_secs.push((name, w, r));
        stored = stats.bytes_stored;
        codec_blocks = stats.codecs.into_iter().collect();
    }
    Record {
        field: spec.name,
        codec: codec.name(),
        raw_bytes: spec.bytes.len(),
        stored_bytes: stored,
        ratio: stored as f64 / spec.bytes.len() as f64,
        codec_blocks,
        virtual_secs,
    }
}

fn main() {
    let specs = field_specs();
    let mut records: Vec<Record> = Vec::new();
    for spec in &specs {
        for codec in palette() {
            // Sample-framed static codecs need the payload to divide evenly;
            // all our payloads do (DIM*DIM elements, sample_size 4 | 1-byte).
            if matches!(codec, Codec::ShuffleLzss { .. } | Codec::LzssHuff { .. })
                && spec.bytes.len() % 4 != 0
            {
                continue;
            }
            let rec = measure(spec, codec);
            println!(
                "{:<14} {:<13} ratio={:.4} wan[0]={:.3}s",
                rec.field,
                rec.codec,
                rec.ratio,
                rec.virtual_secs[0].1 + rec.virtual_secs[0].2,
            );
            records.push(rec);
        }
    }

    // Acceptance: on the mixed-field workload, adaptive must land within 5%
    // of the best static single-codec total stored size.
    let total = |codec: &str| -> u64 {
        records.iter().filter(|r| r.codec == codec).map(|r| r.stored_bytes).sum()
    };
    let adaptive_total = total("adaptive4");
    let best_static = palette()
        .iter()
        .filter(|c| !matches!(c, Codec::Adaptive { .. }))
        .map(|c| (c.name(), total(&c.name())))
        .min_by_key(|(_, t)| *t)
        .expect("static codecs present");
    let vs_best = adaptive_total as f64 / best_static.1 as f64;
    println!(
        "acceptance: adaptive {} B vs best static {} ({} B) = {:.4} ({})",
        adaptive_total,
        best_static.0,
        best_static.1,
        vs_best,
        if vs_best <= 1.05 { "PASS: <= 1.05" } else { "FAIL: > 1.05" }
    );

    let body = records.iter().map(Record::to_json).collect::<Vec<_>>().join(",\n    ");
    let acceptance = format!(
        "{{\"adaptive_stored_bytes\":{adaptive_total},\"best_static\":\"{}\",\
         \"best_static_stored_bytes\":{},\"adaptive_over_best_static\":{vs_best:.6}}}",
        best_static.0, best_static.1
    );
    let json = format!(
        "{{\n  \"bench\": \"codecs\",\n  \"seed\": {SEED},\n  \"workload\": {{\"dim\": {DIM}, \
         \"bits_per_block\": {BITS_PER_BLOCK}}},\n  \"records\": [\n    {body}\n  ],\n  \
         \"acceptance\": {acceptance}\n}}\n"
    );
    nsdf_bench::write_artifact("BENCH_codecs_compare.json", &json);

    assert!(vs_best <= 1.05, "adaptive must track the best static codec within 5%");
}
