//! Integration: TIFF ⇄ raster ⇄ IDX round-trips across dtypes, codecs,
//! shapes, and stores — the data-integrity backbone of tutorial Steps 2–3.

use nsdf::prelude::*;
use std::sync::Arc;

fn publish(r: &Raster<f32>, codec: Codec, bits_per_block: u32) -> IdxDataset {
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let (w, h) = r.shape();
    let meta = IdxMeta::new_2d(
        "t",
        w as u64,
        h as u64,
        vec![Field::new("v", DType::F32).unwrap()],
        bits_per_block,
        codec,
    )
    .unwrap();
    let ds = IdxDataset::create(store, "t", meta).unwrap();
    ds.write_raster("v", 0, r).unwrap();
    ds
}

#[test]
fn tiff_to_idx_to_tiff_is_identity_for_lossless_codecs() {
    let dem = DemConfig::conus_like(200, 120, 31).generate();
    let tiff1 = write_tiff(&dem, TiffCompression::PackBits).unwrap();
    let decoded = read_tiff::<f32>(&tiff1).unwrap();
    for codec in Codec::lossless_palette(4) {
        let ds = publish(&decoded, codec, 10);
        let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(back.data(), dem.data(), "codec {codec}");
        let tiff2 = write_tiff(&back, TiffCompression::PackBits).unwrap();
        let again = read_tiff::<f32>(&tiff2).unwrap();
        assert_eq!(again.data(), dem.data(), "codec {codec}");
    }
}

#[test]
fn adaptive_tracks_best_static_choice() {
    // Real terrain HZ blocks: a DEM written at the 14-bit blocks of the
    // `ingest` workload. Adaptive (`planes4`, or raw per block) must store
    // no more than zlib4 and stay within 5 % of the best static codec.
    let dem = DemConfig::conus_like(256, 256, 2024).generate();
    let stored = |codec: Codec| {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let fields = vec![Field::new("v", DType::F32).unwrap()];
        let meta = IdxMeta::new_2d("t", 256, 256, fields, 14, codec).unwrap();
        let ds = IdxDataset::create(store, "t", meta).unwrap();
        ds.write_raster("v", 0, &dem).unwrap().bytes_stored
    };
    let adaptive = stored(Codec::Adaptive { sample_size: 4 });
    let zlib4 = stored(Codec::LzssHuff { sample_size: 4 });
    assert!(adaptive <= zlib4, "adaptive {adaptive} vs zlib4 {zlib4}");
    let best_static = Codec::lossless_palette(4).into_iter().map(stored).min().unwrap();
    assert!(
        adaptive as f64 <= best_static as f64 * 1.05,
        "adaptive {adaptive} vs best static {best_static}"
    );
}

#[test]
fn geotransform_survives_the_full_chain() {
    let dem = DemConfig::conus_like(64, 64, 5).generate();
    let g0 = dem.geo.unwrap();
    let tiff = write_tiff(&dem, TiffCompression::None).unwrap();
    let decoded = read_tiff::<f32>(&tiff).unwrap();
    assert_eq!(decoded.geo, Some(g0));
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let meta =
        IdxMeta::new_2d("g", 64, 64, vec![Field::new("v", DType::F32).unwrap()], 8, Codec::Raw)
            .unwrap()
            .with_geo(g0);
    let ds = IdxDataset::create(store, "g", meta).unwrap();
    ds.write_raster("v", 0, &decoded).unwrap();
    let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
    let g1 = back.geo.unwrap();
    assert!((g1.x0 - g0.x0).abs() < 1e-9);
    assert!((g1.dx - g0.dx).abs() < 1e-9);
}

#[test]
fn awkward_shapes_roundtrip() {
    for (w, h) in [(1usize, 1usize), (1, 100), (100, 1), (17, 253), (255, 33)] {
        let r = Raster::<f32>::from_fn(w, h, |x, y| (x * 31 + y * 7) as f32);
        let ds = publish(&r, Codec::Lzss, 6);
        let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(back.data(), r.data(), "{w}x{h}");
    }
}

#[test]
fn region_queries_agree_with_windowing() {
    let dem = DemConfig::conus_like(128, 128, 9).generate();
    let ds = publish(&dem, Codec::ShuffleLzss { sample_size: 4 }, 8);
    for b in [Box2i::new(0, 0, 16, 16), Box2i::new(50, 60, 70, 90), Box2i::new(100, 100, 128, 128)]
    {
        let (region, _) = ds.read_box::<f32>("v", 0, b, ds.max_level()).unwrap();
        let window = dem.window(b).unwrap();
        assert_eq!(region.data(), window.data(), "{b:?}");
    }
}

#[test]
fn progressive_levels_subsample_consistently() {
    let dem = DemConfig::conus_like(64, 64, 21).generate();
    let ds = publish(&dem, Codec::Lz4, 8);
    let seq = ds.read_progressive::<f32>("v", 0, ds.bounds(), 0, ds.max_level()).unwrap();
    assert_eq!(seq.len() as u32, ds.max_level() + 1);
    for (level, raster, _) in &seq {
        let strides = ds.curve().mask().level_strides(*level).unwrap();
        for (i, j, v) in raster.iter_cells() {
            let x = i * strides[0] as usize;
            let y = j * strides[1] as usize;
            assert_eq!(v, dem.get(x, y), "level {level} cell ({i},{j})");
        }
    }
}

#[test]
fn lossy_roundtrip_respects_psnr_floor() {
    let dem = DemConfig::conus_like(128, 128, 3).generate();
    for (bits, min_psnr) in [(10u8, 45.0), (16, 75.0), (24, 110.0)] {
        let ds = publish(&dem, Codec::FixedRate { bits }, 10);
        let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
        let acc = AccuracyReport::compare(&dem, &back).unwrap();
        assert!(acc.psnr_db > min_psnr, "bits {bits}: {} dB", acc.psnr_db);
    }
}

#[test]
fn idx_on_local_disk_store_roundtrips() {
    let dir = std::env::temp_dir().join(format!("nsdf-idx-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store: Arc<dyn ObjectStore> = Arc::new(LocalStore::open(&dir).unwrap());
    let dem = DemConfig::conus_like(96, 64, 77).generate();
    let meta = IdxMeta::new_2d(
        "disk",
        96,
        64,
        vec![Field::new("v", DType::F32).unwrap()],
        8,
        Codec::ShuffleLzss { sample_size: 4 },
    )
    .unwrap();
    let ds = IdxDataset::create(store.clone(), "disk", meta).unwrap();
    ds.write_raster("v", 0, &dem).unwrap();
    drop(ds);
    // Reopen from disk cold.
    let ds2 = IdxDataset::open(store, "disk").unwrap();
    let (back, _) = ds2.read_full::<f32>("v", 0).unwrap();
    assert_eq!(back.data(), dem.data());
    std::fs::remove_dir_all(&dir).ok();
}
