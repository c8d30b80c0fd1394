//! Property tests: IDX round-trips and query/window agreement over random
//! shapes, codecs, regions, and levels.

use nsdf_compress::Codec;
use nsdf_idx::{Field, IdxDataset, IdxMeta};
use nsdf_storage::{MemoryStore, ObjectStore};
use nsdf_util::{Box2i, DType, Raster};
use proptest::prelude::*;
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

    #[test]
    fn full_roundtrip_any_shape_any_codec(
        w in 1usize..70,
        h in 1usize..70,
        codec in any_codec(),
        seed in any::<u32>(),
    ) {
        let r = Raster::<f32>::from_fn(w, h, |x, y| {
            let v = (x as u32).wrapping_mul(31).wrapping_add((y as u32).wrapping_mul(17)).wrapping_add(seed);
            (v % 1000) as f32 * 0.5
        });
        let ds = publish(&r, codec);
        let (back, _) = ds.read_full::<f32>("v", 0).unwrap();
        prop_assert_eq!(back.data(), r.data());
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
