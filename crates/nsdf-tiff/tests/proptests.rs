//! Property tests: TIFF round-trips across dtypes, shapes, compressions,
//! and geo tags, plus no-panic guarantees on arbitrary input bytes and a
//! mutation sweep whose reads stay within a fixed multiple of the input.

use nsdf_tiff::{read_tiff, tiff_info, write_tiff, TiffCompression};
use nsdf_util::{GeoTransform, NsdfError, Raster, Result};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

fn any_compression() -> impl Strategy<Value = TiffCompression> {
    prop_oneof![Just(TiffCompression::None), Just(TiffCompression::PackBits)]
}

/// The system allocator, counting the calling thread's live bytes and
/// their peak, so a test can bound what one call allocates.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size());
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Read `bytes` as `f32` samples, and assert the read never held more
/// than a fixed multiple of the input: PackBits yields at most 64 bytes
/// per input byte, and a read holds the strips, the samples and one
/// decoded strip.
fn read_bounded(bytes: &[u8]) -> Result<Raster<f32>> {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let result = read_tiff::<f32>(bytes);
    let held = PEAK.with(Cell::get) - base;
    assert!(held <= 256 * bytes.len() + (64 << 10), "{held} bytes for a {}-byte file", bytes.len());
    result
}

const IMAGE_WIDTH: u16 = 256;
const IMAGE_LENGTH: u16 = 257;
const STRIP_OFFSETS: u16 = 273;
const ROWS_PER_STRIP: u16 = 278;
const STRIP_BYTE_COUNTS: u16 = 279;

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// Where the IFD entry of `tag` sits in a file `write_tiff` made, and
/// where its `Long` values start: inline, or at the entry's offset.
fn entry(bytes: &[u8], tag: u16) -> (usize, usize) {
    let ifd = u32_at(bytes, 4);
    let n = u16::from_le_bytes([bytes[ifd], bytes[ifd + 1]]) as usize;
    let at = (0..n)
        .map(|i| ifd + 2 + 12 * i)
        .find(|&at| u16::from_le_bytes([bytes[at], bytes[at + 1]]) == tag)
        .expect("tag present");
    let values = if u32_at(bytes, at + 4) == 1 { at + 8 } else { u32_at(bytes, at + 8) };
    (at, values)
}

/// Overwrite value `index` of the `Long` entry `tag`.
fn forge(bytes: &mut [u8], tag: u16, index: usize, value: u32) {
    let at = entry(bytes, tag).1 + 4 * index;
    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// A `w`x`h` f32 raster of distinct finite values.
fn tile(w: usize, h: usize) -> Raster<f32> {
    Raster::from_fn(w, h, |x, y| (x * 7 + y * 131) as f32 * 0.25)
}

#[test]
fn forged_dimensions_that_overflow_are_an_error() {
    let mut bytes = write_tiff(&tile(20, 20), TiffCompression::None).unwrap();
    forge(&mut bytes, IMAGE_WIDTH, 0, 0xFFFF_FFF0);
    forge(&mut bytes, IMAGE_LENGTH, 0, 0xFFFF_FFF0);
    assert!(matches!(tiff_info(&bytes).unwrap_err(), NsdfError::Format(_)));
    assert!(matches!(read_bounded(&bytes).unwrap_err(), NsdfError::Format(_)));
}

#[test]
fn a_forged_160_gb_image_reserves_nothing() {
    for comp in [TiffCompression::None, TiffCompression::PackBits] {
        let mut bytes = write_tiff(&tile(20, 20), comp).unwrap();
        forge(&mut bytes, IMAGE_WIDTH, 0, 200_000);
        forge(&mut bytes, IMAGE_LENGTH, 0, 200_000);
        forge(&mut bytes, ROWS_PER_STRIP, 0, 200_000);
        assert_eq!(tiff_info(&bytes).unwrap().width, 200_000);
        assert!(read_bounded(&bytes).unwrap_err().is_corrupt());
    }
}

#[test]
fn more_strips_than_rows_need_are_an_error() {
    // 4000 f32 per row: four rows per 64 KiB strip, three strips.
    let r = tile(4000, 10);
    for comp in [TiffCompression::None, TiffCompression::PackBits] {
        let mut bytes = write_tiff(&r, comp).unwrap();
        assert_eq!(read_bounded(&bytes).unwrap().data(), r.data());
        // Four rows fill strip 0; an empty strip 1 matches its zero rows,
        // and strip 2 lies past the image.
        forge(&mut bytes, IMAGE_LENGTH, 0, 4);
        forge(&mut bytes, STRIP_BYTE_COUNTS, 1, 0);
        assert!(matches!(read_bounded(&bytes).unwrap_err(), NsdfError::Format(_)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn f32_roundtrip(
        w in 1usize..80,
        h in 1usize..80,
        comp in any_compression(),
        seed in any::<u32>(),
    ) {
        let r = Raster::<f32>::from_fn(w, h, |x, y| {
            let v = (x as u32).wrapping_mul(2654435761).wrapping_add(y as u32).wrapping_add(seed);
            f32::from_bits(0x3f80_0000 | (v & 0x007f_ffff)) // valid finite floats
        });
        let bytes = write_tiff(&r, comp).unwrap();
        let back = read_tiff::<f32>(&bytes).unwrap();
        let (bd, rd) = (back.data(), r.data());
        prop_assert_eq!(bd, rd);
    }

    #[test]
    fn u8_and_u16_roundtrip(w in 1usize..60, h in 1usize..60, comp in any_compression()) {
        let r8 = Raster::<u8>::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 256) as u8);
        let b8 = write_tiff(&r8, comp).unwrap();
        let back8 = read_tiff::<u8>(&b8).unwrap();
        prop_assert_eq!(back8.data(), r8.data());
        let r16 = Raster::<u16>::from_fn(w, h, |x, y| ((x * 700 + y) % 65536) as u16);
        let b16 = write_tiff(&r16, comp).unwrap();
        let back16 = read_tiff::<u16>(&b16).unwrap();
        prop_assert_eq!(back16.data(), r16.data());
    }

    #[test]
    fn geo_tags_roundtrip(
        x0 in -180.0f64..180.0,
        y0 in -90.0f64..90.0,
        px in 0.001f64..1000.0,
    ) {
        let r = Raster::<f32>::filled(5, 5, 1.0).with_geo(GeoTransform::north_up(x0, y0, px));
        let bytes = write_tiff(&r, TiffCompression::None).unwrap();
        let info = tiff_info(&bytes).unwrap();
        let g = info.geo.unwrap();
        prop_assert!((g.x0 - x0).abs() < 1e-9);
        prop_assert!((g.y0 - y0).abs() < 1e-9);
        prop_assert!((g.dx - px).abs() < 1e-9);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = tiff_info(&bytes);
        let _ = read_tiff::<f32>(&bytes);
        let _ = read_tiff::<u8>(&bytes);
    }

    #[test]
    fn truncations_of_valid_files_never_panic(
        cut in 0.0f64..1.0,
        comp in any_compression(),
    ) {
        let r = Raster::<f32>::from_fn(20, 20, |x, y| (x * y) as f32);
        let bytes = write_tiff(&r, comp).unwrap();
        let n = (bytes.len() as f64 * cut) as usize;
        let _ = read_tiff::<f32>(&bytes[..n]);
    }

    #[test]
    fn u32_roundtrip(w in 1usize..60, h in 1usize..60, comp in any_compression(), seed in any::<u32>()) {
        let r = Raster::<u32>::from_fn(w, h, |x, y| {
            (x as u32).wrapping_mul(2654435761).wrapping_add((y as u32) ^ seed)
        });
        let bytes = write_tiff(&r, comp).unwrap();
        let back = read_tiff::<u32>(&bytes).unwrap();
        prop_assert_eq!(back.data(), r.data());
    }

    #[test]
    fn degenerate_row_and_column_rasters_roundtrip(
        n in 1usize..300,
        comp in any_compression(),
        seed in any::<u32>(),
    ) {
        // 1xN and Nx1 shapes stress strip layout and per-row compression.
        let row = Raster::<f32>::from_fn(n, 1, |x, _| (x as u32 ^ seed) as f32);
        let b = write_tiff(&row, comp).unwrap();
        prop_assert_eq!(read_tiff::<f32>(&b).unwrap().data(), row.data());
        let col = Raster::<u8>::from_fn(1, n, |_, y| ((y as u32).wrapping_add(seed) % 256) as u8);
        let b = write_tiff(&col, comp).unwrap();
        prop_assert_eq!(read_tiff::<u8>(&b).unwrap().data(), col.data());
    }

    #[test]
    fn corrupted_headers_return_structured_errors(
        site in 0usize..8,
        flip in 1u8..=255,
        comp in any_compression(),
    ) {
        // Damage inside the 8-byte header (byte order, magic, IFD offset):
        // the reader must refuse with a structured error, never panic.
        let r = Raster::<u16>::from_fn(12, 9, |x, y| (x * 31 + y) as u16);
        let mut bytes = write_tiff(&r, comp).unwrap();
        bytes[site] ^= flip;
        match read_tiff::<u16>(&bytes) {
            Err(e) => {
                // Structured error with a message, not a panic or a silent
                // empty raster.
                prop_assert!(!e.to_string().is_empty());
            }
            // Some flips are survivable (e.g. IFD offset still valid after
            // redundant-bit damage) — then the payload must be intact.
            Ok(back) => prop_assert_eq!(back.data(), r.data()),
        }
    }

    #[test]
    fn single_byte_corruption_anywhere_never_panics(
        frac in 0.0f64..1.0,
        flip in 1u8..=255,
        comp in any_compression(),
    ) {
        let r = Raster::<f32>::from_fn(16, 16, |x, y| (x + y * 16) as f32);
        let mut bytes = write_tiff(&r, comp).unwrap();
        let site = ((bytes.len() - 1) as f64 * frac) as usize;
        bytes[site] ^= flip;
        let _ = tiff_info(&bytes);
        let _ = read_tiff::<f32>(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One mutation of a valid file: a flipped byte, a truncation, or a
    /// forged width, height, rows-per-strip, strip offset or strip byte
    /// count. Damage to the structure returns the original raster or a
    /// structured error. TIFF carries no checksum, so damage that only
    /// changes which pixel bytes are read (a flip in the strip data or
    /// in the strip offsets, a forged offset) may also return other
    /// pixels, but never another shape. No read panics or allocates
    /// beyond a fixed multiple of the file.
    #[test]
    fn mutations_return_the_raster_or_a_structured_error(
        dims in prop_oneof![(1usize..3000, 1usize..12), (1usize..200, 1usize..200)],
        comp in any_compression(),
        kind in 0usize..7,
        pick in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let (w, h) = dims;
        let r = tile(w, h);
        let mut bytes = write_tiff(&r, comp).unwrap();
        let strips = u32_at(&bytes, entry(&bytes, STRIP_OFFSETS).0 + 4);
        let values = [0, 1, 2, w as u32, h as u32 + 1, 200_000, 0xFFFF_FFF0, u32::MAX, pick as u32];
        let value = values[(pick >> 32) as usize % values.len()];
        let index = pick as usize % strips;
        let pixels_only = match kind {
            0 => {
                let site = pick as usize % bytes.len();
                bytes[site] ^= flip;
                let (at, array) = entry(&bytes, STRIP_OFFSETS);
                site < u32_at(&bytes, 4)
                    || (at..at + 12).contains(&site)
                    || (array..array + 4 * strips).contains(&site)
            }
            1 => {
                bytes.truncate(pick as usize % bytes.len());
                false
            }
            2 => { forge(&mut bytes, IMAGE_WIDTH, 0, value); false }
            3 => { forge(&mut bytes, IMAGE_LENGTH, 0, value); false }
            4 => { forge(&mut bytes, ROWS_PER_STRIP, 0, value); false }
            5 => { forge(&mut bytes, STRIP_OFFSETS, index, value); true }
            _ => { forge(&mut bytes, STRIP_BYTE_COUNTS, index, value); false }
        };
        let _ = tiff_info(&bytes);
        match read_bounded(&bytes) {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok(back) if pixels_only => prop_assert_eq!(back.shape(), r.shape()),
            Ok(back) => {
                prop_assert_eq!(back.shape(), r.shape());
                prop_assert_eq!(back.data(), r.data());
            }
        }
    }
}
