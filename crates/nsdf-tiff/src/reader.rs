//! TIFF reader for the subset produced by [`crate::writer`] (and by any
//! other writer emitting little-endian single-band strip TIFFs).

use crate::format::{tag, FieldType, TiffCompression, LITTLE_ENDIAN_MAGIC};
use nsdf_compress::rle::packbits_decode;
use nsdf_util::{DType, GeoTransform, NsdfError, Raster, Result, Sample};
use std::collections::HashMap;

/// Parsed structural information about a TIFF file.
#[derive(Debug, Clone, PartialEq)]
pub struct TiffInfo {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Sample type of the single band.
    pub dtype: DType,
    /// Compression of the strip data.
    pub compression: TiffCompression,
    /// Number of strips.
    pub strips: usize,
    /// Geotransform recovered from GeoTIFF tags, if present.
    pub geo: Option<GeoTransform>,
}

struct RawEntry {
    ftype: FieldType,
    payload: Vec<u8>,
}

struct Ifd {
    entries: HashMap<u16, RawEntry>,
}

impl Ifd {
    fn parse(bytes: &[u8]) -> Result<Ifd> {
        if bytes.len() < 8 || bytes[..4] != LITTLE_ENDIAN_MAGIC {
            return Err(NsdfError::format(
                "not a little-endian TIFF (big-endian `MM` files are unsupported)",
            ));
        }
        let ifd_offset = read_u32(bytes, 4)? as usize;
        let count = read_u16(bytes, ifd_offset)? as usize;
        let mut entries = HashMap::new();
        for i in 0..count {
            let at = ifd_offset + 2 + i * 12;
            let tag_id = read_u16(bytes, at)?;
            let type_code = read_u16(bytes, at + 2)?;
            let value_count = read_u32(bytes, at + 4)? as usize;
            let Some(ftype) = FieldType::from_code(type_code) else {
                continue; // skip entries of unsupported types (e.g. ASCII)
            };
            let total = value_count
                .checked_mul(ftype.size())
                .ok_or_else(|| NsdfError::format("IFD entry size overflow"))?;
            let payload = if total <= 4 {
                get(bytes, at + 8, total)?.to_vec()
            } else {
                let off = read_u32(bytes, at + 8)? as usize;
                get(bytes, off, total)?.to_vec()
            };
            entries.insert(tag_id, RawEntry { ftype, payload });
        }
        Ok(Ifd { entries })
    }

    fn u32s(&self, tag_id: u16) -> Result<Vec<u32>> {
        let e = self
            .entries
            .get(&tag_id)
            .ok_or_else(|| NsdfError::format(format!("missing TIFF tag {tag_id}")))?;
        let size = e.ftype.size();
        e.payload
            .chunks(size)
            .map(|c| match e.ftype {
                FieldType::Short => Ok(u16::from_le_bytes([c[0], c[1]]) as u32),
                FieldType::Long => Ok(u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
                FieldType::Double => {
                    Err(NsdfError::format(format!("tag {tag_id}: expected integer, found double")))
                }
            })
            .collect()
    }

    fn u32_first(&self, tag_id: u16) -> Result<u32> {
        self.u32s(tag_id)?
            .first()
            .copied()
            .ok_or_else(|| NsdfError::format(format!("TIFF tag {tag_id} is empty")))
    }

    fn u32_or(&self, tag_id: u16, default: u32) -> Result<u32> {
        if self.entries.contains_key(&tag_id) {
            self.u32_first(tag_id)
        } else {
            Ok(default)
        }
    }

    fn doubles(&self, tag_id: u16) -> Option<Vec<f64>> {
        let e = self.entries.get(&tag_id)?;
        if e.ftype != FieldType::Double {
            return None;
        }
        Some(
            e.payload
                .chunks(8)
                .filter(|c| c.len() == 8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect(),
        )
    }
}

/// Parse structure without decoding pixel data.
pub fn tiff_info(bytes: &[u8]) -> Result<TiffInfo> {
    let ifd = Ifd::parse(bytes)?;
    let width = ifd.u32_first(tag::IMAGE_WIDTH)? as usize;
    let height = ifd.u32_first(tag::IMAGE_LENGTH)? as usize;
    let bits = ifd.u32_or(tag::BITS_PER_SAMPLE, 8)?;
    let sample_format = ifd.u32_or(tag::SAMPLE_FORMAT, 1)?;
    let samples_per_pixel = ifd.u32_or(tag::SAMPLES_PER_PIXEL, 1)?;
    if samples_per_pixel != 1 {
        return Err(NsdfError::unsupported("multi-band TIFFs"));
    }
    let dtype = match (bits, sample_format) {
        (8, 1) => DType::U8,
        (16, 1) => DType::U16,
        (32, 1) => DType::U32,
        (32, 3) => DType::F32,
        other => {
            return Err(NsdfError::unsupported(format!("sample layout {other:?} (bits, format)")))
        }
    };
    let compression = TiffCompression::from_code(ifd.u32_or(tag::COMPRESSION, 1)?)
        .ok_or_else(|| NsdfError::unsupported("compression scheme"))?;
    if width == 0 || height == 0 {
        return Err(NsdfError::format(format!("empty {width}x{height} TIFF")));
    }
    width
        .checked_mul(height)
        .and_then(|n| n.checked_mul(dtype.size_bytes()))
        .ok_or_else(|| NsdfError::format(format!("{width}x{height} TIFF overflows memory")))?;
    let strips = ifd.u32s(tag::STRIP_OFFSETS)?.len();

    let geo = match (ifd.doubles(tag::MODEL_PIXEL_SCALE), ifd.doubles(tag::MODEL_TIEPOINT)) {
        (Some(scale), Some(tie)) if scale.len() >= 2 && tie.len() >= 6 => {
            // Tiepoint maps raster (i, j) to world (x, y); writer pins (0,0).
            Some(GeoTransform {
                x0: tie[3] - tie[0] * scale[0],
                y0: tie[4] + tie[1] * scale[1],
                dx: scale[0],
                dy: -scale[1],
            })
        }
        _ => None,
    };
    Ok(TiffInfo { width, height, dtype, compression, strips, geo })
}

/// Decode a TIFF into a raster of samples `T`.
///
/// Errors when the file's sample type does not match `T` — callers that
/// need dynamic typing should inspect [`tiff_info`] first.
pub fn read_tiff<T: Sample>(bytes: &[u8]) -> Result<Raster<T>> {
    let info = tiff_info(bytes)?;
    if info.dtype != T::DTYPE {
        return Err(NsdfError::invalid(format!(
            "TIFF holds {} samples, requested {}",
            info.dtype,
            T::DTYPE
        )));
    }
    let ifd = Ifd::parse(bytes)?;
    let offsets = ifd.u32s(tag::STRIP_OFFSETS)?;
    let counts = ifd.u32s(tag::STRIP_BYTE_COUNTS)?;
    if offsets.len() != counts.len() {
        return Err(NsdfError::format("strip offsets/counts length mismatch"));
    }
    let rows_per_strip = ifd.u32_or(tag::ROWS_PER_STRIP, info.height as u32)? as usize;
    if rows_per_strip == 0 {
        return Err(NsdfError::format("rows per strip is zero"));
    }
    if offsets.len() != info.height.div_ceil(rows_per_strip) {
        return Err(NsdfError::format(format!(
            "{} strips for {} rows of {rows_per_strip}",
            offsets.len(),
            info.height
        )));
    }
    // `tiff_info` checked that the image size fits. Reserve it only once
    // the strips can yield it: they lie inside the file, and PackBits
    // turns two bytes into at most 128.
    let row_bytes = info.width * info.dtype.size_bytes();
    let total = info.height * row_bytes;
    let stored: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    let ratio = match info.compression {
        TiffCompression::None => 1,
        TiffCompression::PackBits => 64,
    };
    if stored > bytes.len() as u64 || total as u64 > stored * ratio {
        return Err(NsdfError::corrupt(format!(
            "strips of {stored} bytes cannot hold a {total}-byte image"
        )));
    }

    let mut raw = Vec::with_capacity(total);
    for (s, (&off, &cnt)) in offsets.iter().zip(&counts).enumerate() {
        let rows = rows_per_strip.min(info.height - s * rows_per_strip);
        let expect = rows * row_bytes;
        let data = get(bytes, off as usize, cnt as usize)?;
        match info.compression {
            TiffCompression::None => {
                if data.len() != expect {
                    return Err(NsdfError::corrupt(format!(
                        "strip {s}: {} bytes, expected {expect}",
                        data.len()
                    )));
                }
                raw.extend_from_slice(data);
            }
            TiffCompression::PackBits => raw.extend_from_slice(&packbits_decode(data, expect)?),
        }
    }

    let samples = nsdf_util::bytes_to_samples::<T>(&raw)?;
    let mut raster = Raster::from_vec(info.width, info.height, samples)?;
    raster.geo = info.geo;
    Ok(raster)
}

fn get(bytes: &[u8], at: usize, len: usize) -> Result<&[u8]> {
    at.checked_add(len)
        .and_then(|end| bytes.get(at..end))
        .ok_or_else(|| NsdfError::corrupt(format!("TIFF read of {len} bytes at {at} out of range")))
}

fn read_u16(bytes: &[u8], at: usize) -> Result<u16> {
    Ok(u16::from_le_bytes(get(bytes, at, 2)?.try_into().expect("2 bytes")))
}

fn read_u32(bytes: &[u8], at: usize) -> Result<u32> {
    Ok(u32::from_le_bytes(get(bytes, at, 4)?.try_into().expect("4 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_tiff;
    use nsdf_util::GeoTransform;

    fn terrain_like(w: usize, h: usize) -> Raster<f32> {
        Raster::from_fn(w, h, |x, y| ((x as f32 * 0.1).sin() + (y as f32 * 0.07).cos()) * 100.0)
    }

    #[test]
    fn roundtrip_f32_uncompressed() {
        let r = terrain_like(123, 77);
        let bytes = write_tiff(&r, TiffCompression::None).unwrap();
        let back = read_tiff::<f32>(&bytes).unwrap();
        assert_eq!(back.shape(), (123, 77));
        assert_eq!(back.data(), r.data());
    }

    #[test]
    fn roundtrip_f32_packbits() {
        let r = terrain_like(200, 150);
        let bytes = write_tiff(&r, TiffCompression::PackBits).unwrap();
        let back = read_tiff::<f32>(&bytes).unwrap();
        assert_eq!(back.data(), r.data());
    }

    #[test]
    fn roundtrip_u8_and_u16() {
        let r8 = Raster::<u8>::from_fn(50, 40, |x, y| ((x * y) % 251) as u8);
        let b8 = write_tiff(&r8, TiffCompression::PackBits).unwrap();
        assert_eq!(read_tiff::<u8>(&b8).unwrap().data(), r8.data());

        let r16 = Raster::<u16>::from_fn(33, 21, |x, y| (x * 1000 + y) as u16);
        let b16 = write_tiff(&r16, TiffCompression::None).unwrap();
        assert_eq!(read_tiff::<u16>(&b16).unwrap().data(), r16.data());
    }

    #[test]
    fn geotransform_roundtrips() {
        let gt = GeoTransform::north_up(-84.5, 36.7, 30.0);
        let r = terrain_like(64, 64).with_geo(gt);
        let bytes = write_tiff(&r, TiffCompression::None).unwrap();
        let info = tiff_info(&bytes).unwrap();
        let g = info.geo.unwrap();
        assert!((g.x0 - -84.5).abs() < 1e-9);
        assert!((g.y0 - 36.7).abs() < 1e-9);
        assert!((g.dx - 30.0).abs() < 1e-9);
        assert!((g.dy - -30.0).abs() < 1e-9);
        let back = read_tiff::<f32>(&bytes).unwrap();
        assert_eq!(back.geo, Some(g));
    }

    #[test]
    fn info_reports_structure() {
        let r = terrain_like(512, 300);
        let bytes = write_tiff(&r, TiffCompression::None).unwrap();
        let info = tiff_info(&bytes).unwrap();
        assert_eq!((info.width, info.height), (512, 300));
        assert_eq!(info.dtype, DType::F32);
        assert_eq!(info.compression, TiffCompression::None);
        assert!(info.strips > 1);
        assert_eq!(info.geo, None);
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let r = terrain_like(8, 8);
        let bytes = write_tiff(&r, TiffCompression::None).unwrap();
        assert!(read_tiff::<u16>(&bytes).is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(read_tiff::<f32>(b"not a tiff at all").is_err());
        assert!(read_tiff::<f32>(&[]).is_err());
        // Big-endian header specifically called out as unsupported.
        let mm = [b'M', b'M', 0, 42, 0, 0, 0, 8];
        let err = tiff_info(&mm).unwrap_err();
        assert!(err.to_string().contains("big-endian"));
    }

    #[test]
    fn truncated_file_rejected() {
        let r = terrain_like(64, 64);
        let bytes = write_tiff(&r, TiffCompression::None).unwrap();
        assert!(read_tiff::<f32>(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn single_pixel_image() {
        let r = Raster::<f32>::filled(1, 1, 42.5);
        let bytes = write_tiff(&r, TiffCompression::None).unwrap();
        let back = read_tiff::<f32>(&bytes).unwrap();
        assert_eq!(back.get(0, 0), 42.5);
    }
}
