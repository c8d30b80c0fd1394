//! Scalar sample types carried by rasters, TIFF files, and IDX fields.
//!
//! `DType` is the runtime tag (what a file header stores); [`Sample`] is the
//! compile-time trait raster kernels are generic over. Every sample knows how
//! to round-trip through little-endian bytes, which is the on-disk and
//! on-the-wire representation used throughout the workspace.

use crate::error::{NsdfError, Result};

/// Runtime scalar type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit integer.
    U16,
    /// Unsigned 32-bit integer.
    U32,
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
}

impl DType {
    /// Size of one sample in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::U8 => 1,
            DType::U16 => 2,
            DType::U32 | DType::F32 => 4,
            DType::F64 => 8,
        }
    }

    /// Canonical lowercase name as stored in `.idx` metadata.
    pub fn name(self) -> &'static str {
        match self {
            DType::U8 => "uint8",
            DType::U16 => "uint16",
            DType::U32 => "uint32",
            DType::F32 => "float32",
            DType::F64 => "float64",
        }
    }

    /// Parse a canonical name produced by [`DType::name`].
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "uint8" => Ok(DType::U8),
            "uint16" => Ok(DType::U16),
            "uint32" => Ok(DType::U32),
            "float32" => Ok(DType::F32),
            "float64" => Ok(DType::F64),
            other => Err(NsdfError::format(format!("unknown dtype `{other}`"))),
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar sample a raster can hold.
///
/// The trait deliberately funnels all arithmetic through `f64`: terrain
/// kernels, resampling, and statistics operate in double precision and
/// convert at the boundary, which keeps generic code simple and numerically
/// predictable.
pub trait Sample: Copy + PartialOrd + Send + Sync + 'static {
    /// Runtime tag corresponding to `Self`.
    const DTYPE: DType;

    /// Additive identity.
    const ZERO: Self;

    /// Widen to `f64`.
    fn to_f64(self) -> f64;

    /// Narrow from `f64`, saturating/rounding as appropriate for the type.
    fn from_f64(v: f64) -> Self;

    /// Write the little-endian encoding of `self` over the first
    /// `DTYPE.size_bytes()` bytes of `out` — a sample's slot in a block
    /// image or a TIFF strip. Panics when `out` is shorter.
    fn write_le(self, out: &mut [u8]);

    /// Decode one sample from the start of `bytes`.
    ///
    /// Returns an error when fewer than `DTYPE.size_bytes()` bytes remain.
    fn read_le(bytes: &[u8]) -> Result<Self>;
}

macro_rules! int_sample {
    ($t:ty, $tag:expr) => {
        impl Sample for $t {
            const DTYPE: DType = $tag;
            const ZERO: Self = 0;

            fn to_f64(self) -> f64 {
                self as f64
            }

            fn from_f64(v: f64) -> Self {
                if v.is_nan() {
                    return 0;
                }
                let v = v.round();
                if v <= <$t>::MIN as f64 {
                    <$t>::MIN
                } else if v >= <$t>::MAX as f64 {
                    <$t>::MAX
                } else {
                    v as $t
                }
            }

            fn write_le(self, out: &mut [u8]) {
                out[..std::mem::size_of::<$t>()].copy_from_slice(&self.to_le_bytes());
            }

            fn read_le(bytes: &[u8]) -> Result<Self> {
                const N: usize = std::mem::size_of::<$t>();
                let arr: [u8; N] = bytes
                    .get(..N)
                    .ok_or_else(|| NsdfError::corrupt("short sample read"))?
                    .try_into()
                    .expect("slice length checked");
                Ok(<$t>::from_le_bytes(arr))
            }
        }
    };
}

macro_rules! float_sample {
    ($t:ty, $tag:expr) => {
        impl Sample for $t {
            const DTYPE: DType = $tag;
            const ZERO: Self = 0.0;

            fn to_f64(self) -> f64 {
                self as f64
            }

            fn from_f64(v: f64) -> Self {
                v as $t
            }

            fn write_le(self, out: &mut [u8]) {
                out[..std::mem::size_of::<$t>()].copy_from_slice(&self.to_le_bytes());
            }

            fn read_le(bytes: &[u8]) -> Result<Self> {
                const N: usize = std::mem::size_of::<$t>();
                let arr: [u8; N] = bytes
                    .get(..N)
                    .ok_or_else(|| NsdfError::corrupt("short sample read"))?
                    .try_into()
                    .expect("slice length checked");
                Ok(<$t>::from_le_bytes(arr))
            }
        }
    };
}

int_sample!(u8, DType::U8);
int_sample!(u16, DType::U16);
int_sample!(u32, DType::U32);
float_sample!(f32, DType::F32);
float_sample!(f64, DType::F64);

/// Encode a whole slice of samples as little-endian bytes.
pub fn samples_to_bytes<T: Sample>(samples: &[T]) -> Vec<u8> {
    let size = T::DTYPE.size_bytes();
    let mut out = vec![0; samples.len() * size];
    for (&s, slot) in samples.iter().zip(out.chunks_exact_mut(size)) {
        s.write_le(slot);
    }
    out
}

/// Decode a byte buffer produced by [`samples_to_bytes`].
pub fn bytes_to_samples<T: Sample>(bytes: &[u8]) -> Result<Vec<T>> {
    let sz = T::DTYPE.size_bytes();
    if !bytes.len().is_multiple_of(sz) {
        return Err(NsdfError::corrupt(format!(
            "byte length {} is not a multiple of sample size {sz}",
            bytes.len()
        )));
    }
    let mut out = Vec::with_capacity(bytes.len() / sz);
    for chunk in bytes.chunks_exact(sz) {
        out.push(T::read_le(chunk)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_roundtrips_through_name() {
        for d in [DType::U8, DType::U16, DType::U32, DType::F32, DType::F64] {
            assert_eq!(DType::parse(d.name()).unwrap(), d);
        }
        assert!(DType::parse("complex128").is_err());
    }

    #[test]
    fn sizes_match_rust_types() {
        assert_eq!(DType::U8.size_bytes(), 1);
        assert_eq!(DType::U16.size_bytes(), 2);
        assert_eq!(DType::U32.size_bytes(), 4);
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F64.size_bytes(), 8);
    }

    #[test]
    fn int_from_f64_saturates_and_rounds() {
        assert_eq!(u8::from_f64(300.0), 255);
        assert_eq!(u8::from_f64(-5.0), 0);
        assert_eq!(u8::from_f64(7.6), 8);
        assert_eq!(u16::from_f64(f64::NAN), 0);
    }

    #[test]
    fn byte_roundtrip_f32() {
        let v: Vec<f32> = vec![0.0, -1.5, 3.25e7, f32::MIN_POSITIVE];
        let bytes = samples_to_bytes(&v);
        assert_eq!(bytes.len(), 16);
        let back: Vec<f32> = bytes_to_samples(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn byte_roundtrip_u16() {
        let v: Vec<u16> = vec![0, 1, 65535, 1234];
        let back: Vec<u16> = bytes_to_samples(&samples_to_bytes(&v)).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn misaligned_buffer_rejected() {
        let r: Result<Vec<u32>> = bytes_to_samples(&[1, 2, 3]);
        assert!(r.is_err());
    }

    #[test]
    fn short_sample_read_rejected() {
        assert!(f64::read_le(&[0u8; 4]).is_err());
        assert!(u8::read_le(&[]).is_err());
    }
}
