//! TIFF writer: single-band strip-organised little-endian files.

use crate::format::{tag, FieldType, TiffCompression, LITTLE_ENDIAN_MAGIC};
use nsdf_compress::rle::packbits_encode;
use nsdf_util::{DType, NsdfError, Raster, Result, Sample};

/// Target uncompressed strip size; strips of ~64 KiB match common practice.
const STRIP_TARGET_BYTES: usize = 64 * 1024;

/// Serialize `raster` as a TIFF file.
///
/// Geo-referencing, when present on the raster, is stored via the GeoTIFF
/// `ModelPixelScale`/`ModelTiepoint` tags (north-up only, as GeoTIFF's
/// scale+tiepoint encoding requires `dy < 0` rasters).
pub fn write_tiff<T: Sample>(raster: &Raster<T>, compression: TiffCompression) -> Result<Vec<u8>> {
    let (width, height) = raster.shape();
    if width == 0 || height == 0 {
        return Err(NsdfError::invalid("cannot write an empty TIFF"));
    }
    if width > u32::MAX as usize || height > u32::MAX as usize {
        return Err(NsdfError::invalid("image dimensions exceed u32"));
    }
    let (bits, sample_format) = match T::DTYPE {
        DType::U8 => (8u16, 1u16),
        DType::U16 => (16, 1),
        DType::U32 => (32, 1),
        DType::F32 => (32, 3),
        DType::F64 => return Err(NsdfError::unsupported("TIFF writer: float64 samples")),
    };
    if let Some(g) = raster.geo {
        if g.dy >= 0.0 || g.dx <= 0.0 {
            return Err(NsdfError::unsupported(
                "GeoTIFF scale/tiepoint encoding requires north-up geotransform (dx>0, dy<0)",
            ));
        }
    }

    let bytes_per_sample = T::DTYPE.size_bytes();
    let row_bytes = width * bytes_per_sample;
    let rows_per_strip = (STRIP_TARGET_BYTES / row_bytes).clamp(1, height);
    let strip_count = height.div_ceil(rows_per_strip);

    // Encode strips.
    let mut strips: Vec<Vec<u8>> = Vec::with_capacity(strip_count);
    for s in 0..strip_count {
        let y0 = s * rows_per_strip;
        let y1 = ((s + 1) * rows_per_strip).min(height);
        let mut raw = vec![0; (y1 - y0) * row_bytes];
        let samples = (y0..y1).flat_map(|y| raster.row(y));
        for (&v, slot) in samples.zip(raw.chunks_exact_mut(bytes_per_sample)) {
            v.write_le(slot);
        }
        strips.push(match compression {
            TiffCompression::None => raw,
            TiffCompression::PackBits => packbits_encode(&raw),
        });
    }

    // Layout: header | strip data | IFD | out-of-line values.
    let mut out = Vec::new();
    out.extend_from_slice(&LITTLE_ENDIAN_MAGIC);
    let ifd_offset_slot = out.len();
    out.extend_from_slice(&[0u8; 4]); // patched below

    let mut strip_offsets = Vec::with_capacity(strip_count);
    let mut strip_counts = Vec::with_capacity(strip_count);
    for strip in &strips {
        strip_offsets.push(out.len() as u32);
        strip_counts.push(strip.len() as u32);
        out.extend_from_slice(strip);
    }
    if out.len() % 2 == 1 {
        out.push(0); // word-align the IFD
    }

    let ifd_offset = out.len() as u32;
    out[ifd_offset_slot..ifd_offset_slot + 4].copy_from_slice(&ifd_offset.to_le_bytes());

    // Build entries; out-of-line payloads accumulate after the IFD.
    let mut entries: Vec<Entry> = vec![
        Entry::long(tag::IMAGE_WIDTH, width as u32),
        Entry::long(tag::IMAGE_LENGTH, height as u32),
        Entry::short(tag::BITS_PER_SAMPLE, bits),
        Entry::long(tag::COMPRESSION, compression.code()),
        Entry::short(tag::PHOTOMETRIC, 1),
        Entry::longs(tag::STRIP_OFFSETS, strip_offsets),
        Entry::short(tag::SAMPLES_PER_PIXEL, 1),
        Entry::long(tag::ROWS_PER_STRIP, rows_per_strip as u32),
        Entry::longs(tag::STRIP_BYTE_COUNTS, strip_counts),
        Entry::short(tag::SAMPLE_FORMAT, sample_format),
    ];
    if let Some(g) = raster.geo {
        entries.push(Entry::doubles(tag::MODEL_PIXEL_SCALE, vec![g.dx, -g.dy, 0.0]));
        entries.push(Entry::doubles(tag::MODEL_TIEPOINT, vec![0.0, 0.0, 0.0, g.x0, g.y0, 0.0]));
    }
    entries.sort_by_key(|e| e.tag); // TIFF requires ascending tag order

    let entry_bytes = 2 + entries.len() * 12 + 4;
    let mut overflow_at = ifd_offset as usize + entry_bytes;
    let mut overflow: Vec<u8> = Vec::new();

    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for e in &entries {
        out.extend_from_slice(&e.tag.to_le_bytes());
        out.extend_from_slice(&e.ftype.code().to_le_bytes());
        out.extend_from_slice(&(e.count() as u32).to_le_bytes());
        if e.payload.len() <= 4 {
            let mut v = e.payload.clone();
            v.resize(4, 0);
            out.extend_from_slice(&v);
        } else {
            out.extend_from_slice(&(overflow_at as u32).to_le_bytes());
            overflow.extend_from_slice(&e.payload);
            overflow_at += e.payload.len();
        }
    }
    out.extend_from_slice(&0u32.to_le_bytes()); // no next IFD
    out.extend_from_slice(&overflow);
    Ok(out)
}

struct Entry {
    tag: u16,
    ftype: FieldType,
    payload: Vec<u8>,
}

impl Entry {
    fn short(tag: u16, v: u16) -> Entry {
        Entry { tag, ftype: FieldType::Short, payload: v.to_le_bytes().to_vec() }
    }

    fn long(tag: u16, v: u32) -> Entry {
        Entry { tag, ftype: FieldType::Long, payload: v.to_le_bytes().to_vec() }
    }

    fn longs(tag: u16, vs: Vec<u32>) -> Entry {
        Entry {
            tag,
            ftype: FieldType::Long,
            payload: vs.iter().flat_map(|v| v.to_le_bytes()).collect(),
        }
    }

    fn doubles(tag: u16, vs: Vec<f64>) -> Entry {
        Entry {
            tag,
            ftype: FieldType::Double,
            payload: vs.iter().flat_map(|v| v.to_le_bytes()).collect(),
        }
    }

    fn count(&self) -> usize {
        self.payload.len() / self.ftype.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_util::GeoTransform;

    #[test]
    fn header_magic_and_alignment() {
        let r = Raster::<u8>::filled(10, 10, 7);
        let bytes = write_tiff(&r, TiffCompression::None).unwrap();
        assert_eq!(&bytes[..4], &LITTLE_ENDIAN_MAGIC);
        let ifd = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        assert!(ifd.is_multiple_of(2) && ifd < bytes.len());
    }

    #[test]
    fn empty_raster_rejected() {
        let r = Raster::<u8>::zeros(0, 5);
        assert!(write_tiff(&r, TiffCompression::None).is_err());
    }

    #[test]
    fn f64_rejected() {
        let r = Raster::<f64>::zeros(4, 4);
        assert!(write_tiff(&r, TiffCompression::None).is_err());
    }

    #[test]
    fn south_up_geo_rejected() {
        let r = Raster::<f32>::zeros(4, 4).with_geo(GeoTransform {
            x0: 0.0,
            y0: 0.0,
            dx: 1.0,
            dy: 1.0,
        });
        assert!(write_tiff(&r, TiffCompression::None).is_err());
    }

    #[test]
    fn packbits_smaller_on_flat_image() {
        let r = Raster::<u8>::filled(256, 256, 0);
        let raw = write_tiff(&r, TiffCompression::None).unwrap();
        let packed = write_tiff(&r, TiffCompression::PackBits).unwrap();
        assert!(packed.len() < raw.len() / 10);
    }

    #[test]
    fn multiple_strips_for_tall_images() {
        // 512x512 f32 = 1 MiB raw -> several 64 KiB strips.
        let r = Raster::<f32>::zeros(512, 512);
        let bytes = write_tiff(&r, TiffCompression::None).unwrap();
        // Raw data dominates: file must be >= payload.
        assert!(bytes.len() >= 512 * 512 * 4);
    }
}
