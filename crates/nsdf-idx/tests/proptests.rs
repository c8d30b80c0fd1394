//! Property tests: IDX round-trips and query/window agreement over random
//! sample types, 2-D and 3-D shapes, codecs, regions, and levels.

use nsdf_compress::Codec;
use nsdf_hz::HzCurve;
use nsdf_idx::{Field, IdxDataset, IdxMeta};
use nsdf_storage::{MemoryStore, ObjectStore};
use nsdf_util::{checksum64, samples_to_bytes, Box2i, Box3i, DType, Raster, Sample, Volume};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn any_codec() -> impl Strategy<Value = Codec> {
    prop_oneof![
        Just(Codec::Raw),
        Just(Codec::PackBits),
        Just(Codec::Lz4),
        Just(Codec::Lzss),
        Just(Codec::ShuffleLzss { sample_size: 4 }),
        Just(Codec::LzssHuff { sample_size: 4 }),
    ]
}

fn publish(r: &Raster<f32>, codec: Codec) -> IdxDataset {
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let (w, h) = r.shape();
    let meta = IdxMeta::new_2d(
        "prop",
        w as u64,
        h as u64,
        vec![Field::new("v", DType::F32).unwrap()],
        6, // tiny blocks exercise multi-block paths hard
        codec,
    )
    .unwrap();
    let ds = IdxDataset::create(store, "prop", meta).unwrap();
    ds.write_raster("v", 0, r).unwrap();
    ds
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Guillotine-split `w x h` into disjoint boxes covering every cell.
fn random_partition(w: usize, h: usize, cuts: usize, rng: &mut u64) -> Vec<Box2i> {
    let mut rects = vec![Box2i::new(0, 0, w as i64, h as i64)];
    for _ in 0..cuts {
        let i = (xorshift(rng) % rects.len() as u64) as usize;
        let b = rects[i];
        let (bw, bh) = (b.x1 - b.x0, b.y1 - b.y0);
        if bw > 1 && (bh <= 1 || xorshift(rng).is_multiple_of(2)) {
            let cut = b.x0 + 1 + (xorshift(rng) % (bw as u64 - 1)) as i64;
            rects[i] = Box2i::new(b.x0, b.y0, cut, b.y1);
            rects.push(Box2i::new(cut, b.y0, b.x1, b.y1));
        } else if bh > 1 {
            let cut = b.y0 + 1 + (xorshift(rng) % (bh as u64 - 1)) as i64;
            rects[i] = Box2i::new(b.x0, b.y0, b.x1, cut);
            rects.push(Box2i::new(b.x0, cut, b.x1, b.y1));
        }
    }
    rects
}

/// Every stored object, sorted by key.
fn dump(store: &MemoryStore) -> Vec<(String, Vec<u8>)> {
    store
        .list("")
        .unwrap()
        .into_iter()
        .map(|m| (m.key.clone(), store.get(&m.key).unwrap()))
        .collect()
}

/// The block objects of `store`: `dump` without the header.
fn dump_blocks(store: &MemoryStore) -> Vec<(String, Vec<u8>)> {
    dump(store).into_iter().filter(|(key, _)| key.ends_with(".bin")).collect()
}

/// One case of `full_roundtrip_any_shape_any_codec` at sample type `T`: a
/// `dims` grid (one sample deep = a 2-D dataset) of seeded values, written
/// whole and — in 2-D — tile by tile, then read back through `window`
/// (fractions of each axis: low corner, then extent) at the level
/// `level_frac` picks.
fn roundtrip_case<T: Sample + std::fmt::Debug>(
    [w, h, d]: [usize; 3],
    codec: Codec,
    window: [f64; 6],
    level_frac: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = seed | 1;
    let src: Vec<T> =
        (0..w * h * d).map(|_| T::from_f64((xorshift(&mut rng) % 1021) as f64 * 0.25)).collect();
    let fields = vec![Field::new("v", T::DTYPE).unwrap()];
    let dims = [w, h, d].map(|n| n as u64);
    let meta = IdxMeta::new("prop", &dims[..if d == 1 { 2 } else { 3 }], fields, 6, codec).unwrap();

    // The reference for the write walk: scatter sample by sample into typed
    // blocks, then turn each finished block into bytes, encode it and seal
    // it: `NSDFBK01` · stream · checksum64 of both, little-endian.
    let curve = HzCurve::new(meta.bitmask.clone());
    let block_samples = meta.block_samples();
    let mut typed: BTreeMap<u64, Vec<T>> = BTreeMap::new();
    for (i, &v) in src.iter().enumerate() {
        let at = [i % w, i / w % h, i / (w * h)].map(|c| c as u64);
        let hz = curve.hz_from_coords(&at).unwrap();
        typed.entry(hz / block_samples).or_insert_with(|| vec![T::ZERO; block_samples as usize])
            [(hz % block_samples) as usize] = v;
    }
    let want_blocks: Vec<(String, Vec<u8>)> = typed
        .iter()
        .map(|(block, samples)| {
            let key = format!("prop/f0/t0/b{block:08}.bin");
            let mut sealed = b"NSDFBK01".to_vec();
            sealed.extend(codec.encode(&samples_to_bytes(samples)).unwrap());
            sealed.extend(checksum64(&sealed).to_le_bytes());
            (key, sealed)
        })
        .collect();

    // The reference for the gather: a strided read of the source grid.
    let level = (level_frac * meta.bitmask.num_bits() as f64) as u32;
    let strides = meta.bitmask.level_strides(level).unwrap();
    let (mut lo, mut hi) = ([0i64; 3], [1i64; 3]);
    for (a, n) in [w, h, d].into_iter().enumerate() {
        lo[a] = ((window[a] * n as f64) as i64).min(n as i64 - 1);
        hi[a] = (lo[a] + 1 + (window[3 + a] * (n as i64 - lo[a]) as f64) as i64).min(n as i64);
    }
    let on_grid = |a: usize| {
        let stride = strides.get(a).copied().unwrap_or(1) as i64;
        ((lo[a] + stride - 1) / stride * stride..hi[a]).step_by(stride as usize)
    };
    let mut want = Vec::new();
    for z in on_grid(2) {
        for y in on_grid(1) {
            for x in on_grid(0) {
                want.push(src[(z as usize * h + y as usize) * w + x as usize]);
            }
        }
    }
    let want_shape = (on_grid(0).count(), on_grid(1).count(), on_grid(2).count());

    let mem = Arc::new(MemoryStore::new());
    let store: Arc<dyn ObjectStore> = mem.clone();
    if d > 1 {
        let vol = IdxDataset::create(store, "prop", meta).unwrap();
        vol.write_volume("v", 0, &Volume::from_vec(w, h, d, src).unwrap()).unwrap();
        prop_assert_eq!(dump_blocks(&mem), want_blocks);
        let region = Box3i::new(lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]);
        match vol.read_volume::<T>("v", 0, region, level) {
            Ok((got, stats)) => {
                prop_assert_eq!(got.shape(), want_shape);
                prop_assert_eq!(got.data(), &want[..]);
                // The planner fetched exactly the blocks a sample walk finds.
                let walked: BTreeSet<u64> = (0..=level)
                    .flat_map(|l| curve.level_samples_in_box(l, region).unwrap())
                    .map(|(_, hz)| hz / block_samples)
                    .collect();
                prop_assert_eq!(stats.blocks_touched, walked.len() as u64);
            }
            Err(_) => prop_assert!(want.is_empty(), "{:?} level {}", region, level),
        }
        return Ok(());
    }

    let grid = Raster::from_vec(w, h, src).unwrap();
    let ds = IdxDataset::create(store, "prop", meta.clone()).unwrap();
    ds.write_raster("v", 0, &grid).unwrap();
    prop_assert_eq!(dump_blocks(&mem), &want_blocks[..]);
    let region = Box2i::new(lo[0], lo[1], hi[0], hi[1]);
    match ds.read_box::<T>("v", 0, region, level) {
        Ok((got, _)) => {
            prop_assert_eq!(got.shape(), (want_shape.0, want_shape.1));
            prop_assert_eq!(got.data(), &want[..]);
        }
        Err(_) => prop_assert!(want.is_empty(), "{:?} level {}", region, level),
    }

    let tiled_mem = Arc::new(MemoryStore::new());
    let tiled =
        IdxDataset::create(tiled_mem.clone() as Arc<dyn ObjectStore>, "prop", meta).unwrap();
    for tile in random_partition(w, h, 5, &mut rng) {
        tiled
            .write_box("v", 0, tile.x0 as u64, tile.y0 as u64, &grid.window(tile).unwrap())
            .unwrap();
    }
    tiled.flush().unwrap();
    prop_assert_eq!(dump_blocks(&tiled_mem), want_blocks);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The write buffer is invisible except in when blocks upload: any
    /// schedule of `write_box` calls — a random partition in random order,
    /// mixed with overlapping and repeated boxes, flushes and reopens —
    /// reads back through the handle like an in-memory raster at every step
    /// and after a final `flush` leaves bitwise the store a single
    /// `write_raster` leaves. (What a tight budget adds is covered next to
    /// the buffer, in `dataset.rs`.)
    #[test]
    fn write_combining_is_transparent_under_any_schedule(
        w in 3usize..70,
        h in 3usize..40,
        codec in any_codec(),
        seed in any::<u64>(),
    ) {
        const BLOCK_BYTES: u64 = 64 * 4;
        let mut rng = seed | 1;
        let meta = || IdxMeta::new_2d(
            "prop",
            w as u64,
            h as u64,
            vec![Field::new("v", DType::F32).unwrap()],
            6,
            codec,
        )
        .unwrap();
        let tune = |ds: IdxDataset, wc: u64| ds.with_write_concurrency(1 + wc as usize % 5);

        // The schedule: a full partition (so every sample is written at
        // least once) plus as many boxes again that overlap it freely, some
        // of them repeats, shuffled together.
        let mut boxes = random_partition(w, h, 12, &mut rng);
        for _ in 0..boxes.len() {
            let b = if xorshift(&mut rng).is_multiple_of(4) {
                boxes[(xorshift(&mut rng) % boxes.len() as u64) as usize]
            } else {
                let x0 = (xorshift(&mut rng) % w as u64) as i64;
                let y0 = (xorshift(&mut rng) % h as u64) as i64;
                let x1 = x0 + 1 + (xorshift(&mut rng) % (w as u64 - x0 as u64)) as i64;
                let y1 = y0 + 1 + (xorshift(&mut rng) % (h as u64 - y0 as u64)) as i64;
                Box2i::new(x0, y0, x1, y1)
            };
            boxes.push(b);
        }
        for i in (1..boxes.len()).rev() {
            boxes.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
        }

        let mem = Arc::new(MemoryStore::new());
        let store: Arc<dyn ObjectStore> = mem.clone();
        let mut ds = tune(IdxDataset::create(store.clone(), "prop", meta()).unwrap(), seed);
        let mut oracle = Raster::<f32>::zeros(w, h);
        for (step, b) in boxes.iter().enumerate() {
            let (bw, bh) = ((b.x1 - b.x0) as usize, (b.y1 - b.y0) as usize);
            let patch = Raster::<f32>::from_fn(bw, bh, |x, y| {
                (step * 4099 + y * bw + x) as f32 * 0.25 + 1.0
            });
            let stats = ds.write_box("v", 0, b.x0 as u64, b.y0 as u64, &patch).unwrap();
            for (x, y, v) in patch.iter_cells() {
                oracle.set(b.x0 as usize + x, b.y0 as usize + y, v);
            }
            prop_assert_eq!(
                ds.obs().snapshot().gauge("idx.pending_bytes"),
                (stats.blocks_pending * BLOCK_BYTES) as f64
            );

            match xorshift(&mut rng) % 8 {
                0 => prop_assert_eq!(ds.flush().unwrap().blocks_pending, 0),
                // Dropping the handle flushes; an opened one must fetch the
                // base image of every block it patches.
                1 => {
                    drop(ds);
                    ds = tune(IdxDataset::open(store.clone(), "prop").unwrap(), step as u64);
                }
                _ => {}
            }

            // The whole grid at a random level, and a window at full
            // resolution, both through the writing handle.
            let level = (xorshift(&mut rng) % (ds.max_level() as u64 + 1)) as u32;
            let (coarse, _) = ds.read_box::<f32>("v", 0, ds.bounds(), level).unwrap();
            let strides = ds.curve().mask().level_strides(level).unwrap();
            let sy = strides.get(1).copied().unwrap_or(1) as usize;
            for (i, j, v) in coarse.iter_cells() {
                prop_assert_eq!(v, oracle.get(i * strides[0] as usize, j * sy), "step {}", step);
            }
            let window = boxes[(xorshift(&mut rng) % boxes.len() as u64) as usize];
            let (got, _) = ds.read_box::<f32>("v", 0, window, ds.max_level()).unwrap();
            let want = oracle.window(window).unwrap();
            prop_assert_eq!(got.data(), want.data(), "step {} window {:?}", step, window);
        }
        ds.flush().unwrap();

        let whole_mem = Arc::new(MemoryStore::new());
        let whole = IdxDataset::create(whole_mem.clone() as Arc<dyn ObjectStore>, "prop", meta())
            .unwrap();
        whole.write_raster("v", 0, &oracle).unwrap();
        prop_assert_eq!(dump(&mem), dump(&whole_mem));
    }

    /// Samples change type once on the way in and once on the way out,
    /// whatever the type: for any dtype, any 2-D or 3-D non-power-of-two
    /// grid and any codec, a whole-grid write — and in 2-D a tile-by-tile
    /// one — stores the block keys and bytes a naive typed scatter produces,
    /// and any window at any level reads back as a strided read of the
    /// source grid.
    #[test]
    fn full_roundtrip_any_shape_any_codec(
        w in 1usize..40,
        h in 1usize..24,
        depth in 0usize..6,
        dtype in 0usize..5,
        codec in any_codec(),
        lo in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        extent in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        level_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        // Half of the cases are 2-D (one sample deep).
        let dims = [w, h, depth.saturating_sub(1).max(1)];
        let window = [lo.0, lo.1, lo.2, extent.0, extent.1, extent.2];
        match dtype {
            0 => roundtrip_case::<u8>(dims, codec, window, level_frac, seed)?,
            1 => roundtrip_case::<u16>(dims, codec, window, level_frac, seed)?,
            2 => roundtrip_case::<u32>(dims, codec, window, level_frac, seed)?,
            3 => roundtrip_case::<f32>(dims, codec, window, level_frac, seed)?,
            _ => roundtrip_case::<f64>(dims, codec, window, level_frac, seed)?,
        }
    }

    #[test]
    fn region_query_equals_window(
        w in 8usize..64,
        h in 8usize..64,
        fx0 in 0.0f64..1.0,
        fy0 in 0.0f64..1.0,
        fx1 in 0.0f64..1.0,
        fy1 in 0.0f64..1.0,
    ) {
        let r = Raster::<f32>::from_fn(w, h, |x, y| (y * w + x) as f32);
        let ds = publish(&r, Codec::Lz4);
        let x0 = (fx0 * (w - 1) as f64) as i64;
        let y0 = (fy0 * (h - 1) as f64) as i64;
        let x1 = (fx1 * w as f64).ceil() as i64;
        let y1 = (fy1 * h as f64).ceil() as i64;
        let region = Box2i::new(x0.min(x1), y0.min(y1), x0.max(x1).max(x0.min(x1) + 1), y0.max(y1).max(y0.min(y1) + 1));
        let Some(region) = region.intersect(&ds.bounds()) else { return Ok(()); };
        let (got, _) = ds.read_box::<f32>("v", 0, region, ds.max_level()).unwrap();
        let want = r.window(region).unwrap();
        prop_assert_eq!(got.data(), want.data());
    }

    #[test]
    fn every_level_subsamples_consistently(
        w in 4usize..40,
        h in 4usize..40,
        level_frac in 0.0f64..1.0,
    ) {
        let r = Raster::<f32>::from_fn(w, h, |x, y| (x * 1000 + y) as f32);
        let ds = publish(&r, Codec::Raw);
        let level = (level_frac * ds.max_level() as f64) as u32;
        let (coarse, _) = ds.read_box::<f32>("v", 0, ds.bounds(), level).unwrap();
        let strides = ds.curve().mask().level_strides(level).unwrap();
        let sy = strides.get(1).copied().unwrap_or(1) as usize;
        for (i, j, v) in coarse.iter_cells() {
            prop_assert_eq!(v, r.get(i * strides[0] as usize, j * sy));
        }
    }
}
