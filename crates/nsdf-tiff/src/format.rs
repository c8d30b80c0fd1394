//! TIFF 6.0 on-disk structures: tags, field types, and the subset of the
//! specification this crate implements.
//!
//! Scope (deliberate): little-endian (`II`) byte order, single-band
//! grayscale images of `u8`/`u16`/`f32` samples, strip organisation,
//! compression `None` or `PackBits`, plus the two GeoTIFF tags
//! (`ModelPixelScale`, `ModelTiepoint`) the terrain pipeline needs. This is
//! exactly the slice of TIFF the tutorial's GEOtiled rasters exercise.

/// TIFF magic: byte order `II` (little endian) + 42.
pub(crate) const LITTLE_ENDIAN_MAGIC: [u8; 4] = [b'I', b'I', 42, 0];

/// Tag numbers used by this implementation.
pub(crate) mod tag {
    /// Image width in pixels.
    pub(crate) const IMAGE_WIDTH: u16 = 256;
    /// Image height (length) in pixels.
    pub(crate) const IMAGE_LENGTH: u16 = 257;
    /// Bits per sample.
    pub(crate) const BITS_PER_SAMPLE: u16 = 258;
    /// Compression scheme (1 = none, 32773 = PackBits).
    pub(crate) const COMPRESSION: u16 = 259;
    /// Photometric interpretation (1 = BlackIsZero).
    pub(crate) const PHOTOMETRIC: u16 = 262;
    /// Byte offset of each strip.
    pub(crate) const STRIP_OFFSETS: u16 = 273;
    /// Samples per pixel (always 1 here).
    pub(crate) const SAMPLES_PER_PIXEL: u16 = 277;
    /// Rows per strip.
    pub(crate) const ROWS_PER_STRIP: u16 = 278;
    /// Compressed byte count of each strip.
    pub(crate) const STRIP_BYTE_COUNTS: u16 = 279;
    /// Sample format (1 = unsigned int, 3 = IEEE float).
    pub(crate) const SAMPLE_FORMAT: u16 = 339;
    /// GeoTIFF: model pixel scale (3 doubles: sx, sy, sz).
    pub(crate) const MODEL_PIXEL_SCALE: u16 = 33550;
    /// GeoTIFF: model tiepoint (6 doubles: i, j, k, x, y, z).
    pub(crate) const MODEL_TIEPOINT: u16 = 33922;
}

/// TIFF field types used by this implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FieldType {
    /// 16-bit unsigned.
    Short,
    /// 32-bit unsigned.
    Long,
    /// IEEE double.
    Double,
}

impl FieldType {
    /// Numeric code in the IFD entry.
    pub fn code(self) -> u16 {
        match self {
            FieldType::Short => 3,
            FieldType::Long => 4,
            FieldType::Double => 12,
        }
    }

    /// Byte size of one value.
    pub fn size(self) -> usize {
        match self {
            FieldType::Short => 2,
            FieldType::Long => 4,
            FieldType::Double => 8,
        }
    }

    /// Parse a numeric code (only the supported subset).
    pub(crate) fn from_code(code: u16) -> Option<FieldType> {
        match code {
            3 => Some(FieldType::Short),
            4 => Some(FieldType::Long),
            12 => Some(FieldType::Double),
            _ => None,
        }
    }
}

/// Compression values supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TiffCompression {
    /// No compression.
    None,
    /// PackBits run-length coding (Apple/TIFF standard).
    PackBits,
}

impl TiffCompression {
    /// TIFF tag value.
    pub fn code(self) -> u32 {
        match self {
            TiffCompression::None => 1,
            TiffCompression::PackBits => 32773,
        }
    }

    /// Parse a TIFF tag value.
    pub(crate) fn from_code(code: u32) -> Option<Self> {
        match code {
            1 => Some(TiffCompression::None),
            32773 => Some(TiffCompression::PackBits),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_type_codes_roundtrip() {
        for ft in [FieldType::Short, FieldType::Long, FieldType::Double] {
            assert_eq!(FieldType::from_code(ft.code()), Some(ft));
        }
        assert_eq!(FieldType::from_code(2), None); // ASCII unsupported
    }

    #[test]
    fn compression_codes_roundtrip() {
        for c in [TiffCompression::None, TiffCompression::PackBits] {
            assert_eq!(TiffCompression::from_code(c.code()), Some(c));
        }
        assert_eq!(TiffCompression::from_code(5), None); // LZW unsupported
    }

    #[test]
    fn field_sizes() {
        assert_eq!(FieldType::Short.size(), 2);
        assert_eq!(FieldType::Long.size(), 4);
        assert_eq!(FieldType::Double.size(), 8);
    }
}
