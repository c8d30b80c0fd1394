//! Fixed-rate lossy float codec — the "zfp-class" member of the palette.
//!
//! Like ZFP's fixed-precision mode, the coder works on blocks of 64 values:
//! each block stores a shared base-2 exponent (8 bits) plus one signed
//! `bits`-wide quantised integer per value, so the output rate is a known
//! `bits + 8/64` bits per sample and the absolute error within a block is
//! bounded by `2^(e_max - bits + 2)` where `e_max` is the block's largest
//! exponent. The paper's dashboards expose exactly this "varying precision
//! bits" knob (§III-A).
//!
//! Quantised integers are stored **bit-plane-major**: the 64 values of a
//! block are transposed as a 64×64 bit matrix (`transpose64`, six
//! `u64`-word exchange passes), then one 64-bit word per plane is emitted,
//! most significant plane first. The stream length is identical to a
//! value-major layout (`8 + bits·n` bits per block) but the hot loops become
//! `bits` whole-word writes/reads per block instead of 64 narrow bit-field
//! operations, and the same quantised integers are reconstructed exactly.
//! (Plane-major is this PR's layout; streams packed value-major by earlier
//! builds are not readable — the codec is lossy and no tier-1 dataset stores
//! it, see EXPERIMENTS.md.)

use crate::bits::{BitReader, BitWriter};
use nsdf_util::{bytes_to_samples, samples_to_bytes, NsdfError, Result};

/// Values per block; matches ZFP's 4x4x4 / 64-sample granularity.
pub(crate) const BLOCK: usize = 64;

/// Exponent byte reserved for an all-zero (or all-non-finite) block.
const ZERO_BLOCK: u8 = 0xFF;

/// In-place 64×64 bit-matrix transpose (Hacker's Delight fig. 7-6): after
/// the call, bit `63-i` of word `j` equals bit `63-j` of input word `i`.
/// The transform is an involution, so it is its own inverse.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = (a[k] ^ (a[k + j] >> j)) & m;
            a[k] ^= t;
            a[k + j] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Encode `f32` samples at `bits` bits per value (`2..=30`).
///
/// Non-finite inputs are flushed to zero (documented lossy behaviour, as in
/// most fixed-rate scientific codecs).
pub(crate) fn fixedrate_encode_f32(values: &[f32], bits: u8) -> Result<Vec<u8>> {
    if !(2..=30).contains(&bits) {
        return Err(NsdfError::invalid("fixed-rate bits must be in 2..=30"));
    }
    let mut w = BitWriter::new();
    for chunk in values.chunks(BLOCK) {
        let e_max =
            chunk.iter().filter(|v| v.is_finite() && **v != 0.0).map(|v| exponent_of(*v)).max();
        match e_max {
            None => w.write_bits(ZERO_BLOCK as u64, 8),
            Some(e) => {
                // Biased exponent in 0..=254.
                let biased = (e + 127).clamp(0, 254) as u8;
                w.write_bits(biased as u64, 8);
                let e = biased as i32 - 127;
                // Scale so the largest magnitude maps near 2^(bits-1).
                let scale = pow2(bits as i32 - 1 - e - 1);
                let max_q = (1i64 << (bits - 1)) - 1;
                // Quantise into rows of the bit matrix, then transpose so
                // plane p of the block is the single word planes[63-p].
                let mut planes = [0u64; 64];
                for (row, &v) in planes.iter_mut().zip(chunk) {
                    let v = if v.is_finite() { v as f64 } else { 0.0 };
                    let q = (v * scale).round().clamp(-(max_q as f64), max_q as f64) as i64;
                    *row = (q + max_q) as u64;
                }
                transpose64(&mut planes);
                let n = chunk.len() as u8; // sample i sits at word bit 63-i
                for p in (0..bits).rev() {
                    w.write_bits(planes[63 - p as usize] >> (64 - n as u32), n);
                }
            }
        }
    }
    Ok(w.into_bytes())
}

/// Decode a buffer produced by [`fixedrate_encode_f32`]; `count` is the
/// original number of samples.
pub(crate) fn fixedrate_decode_f32(src: &[u8], bits: u8, count: usize) -> Result<Vec<f32>> {
    if !(2..=30).contains(&bits) {
        return Err(NsdfError::invalid("fixed-rate bits must be in 2..=30"));
    }
    let mut r = BitReader::new(src);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let header = r.read_bits(8)? as u8;
        let n = (count - out.len()).min(BLOCK);
        if header == ZERO_BLOCK {
            out.extend(std::iter::repeat_n(0.0f32, n));
            continue;
        }
        let e = header as i32 - 127;
        let scale = pow2(bits as i32 - 1 - e - 1);
        let max_q = (1i64 << (bits - 1)) - 1;
        let mut planes = [0u64; 64];
        for p in (0..bits).rev() {
            planes[63 - p as usize] = r.read_bits(n as u8)? << (64 - n as u32);
        }
        transpose64(&mut planes);
        for &row in planes.iter().take(n) {
            let q = row as i64 - max_q;
            out.push((q as f64 / scale) as f32);
        }
    }
    Ok(out)
}

/// Byte-buffer adapter: treats `src` as little-endian `f32`s.
pub(crate) fn fixedrate_encode_bytes(src: &[u8], bits: u8) -> Result<Vec<u8>> {
    let values: Vec<f32> = bytes_to_samples(src)?;
    fixedrate_encode_f32(&values, bits)
}

/// Byte-buffer adapter producing `dst_len` bytes of little-endian `f32`s.
pub(crate) fn fixedrate_decode_bytes(src: &[u8], bits: u8, dst_len: usize) -> Result<Vec<u8>> {
    if !dst_len.is_multiple_of(4) {
        return Err(NsdfError::invalid("fixed-rate output length must be a multiple of 4"));
    }
    let values = fixedrate_decode_f32(src, bits, dst_len / 4)?;
    Ok(samples_to_bytes(&values))
}

#[inline]
fn exponent_of(v: f32) -> i32 {
    // floor(log2(|v|)) for finite non-zero v.
    (v.abs().log2().floor()) as i32
}

#[inline]
fn pow2(e: i32) -> f64 {
    (2.0f64).powi(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worst-case absolute error for a block whose max exponent is `e_max`.
    fn error_bound(e_max: i32, bits: u8) -> f64 {
        pow2(e_max + 2 - bits as i32)
    }

    fn max_err(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x as f64 - *y as f64).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn transpose64_matches_naive_and_is_involution() {
        // Deterministic pseudo-random matrix.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut a = [0u64; 64];
        for v in a.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        let orig = a;
        transpose64(&mut a);
        for (i, row) in orig.iter().enumerate() {
            for (j, col) in a.iter().enumerate() {
                let got = (col >> (63 - i)) & 1;
                let want = (row >> (63 - j)) & 1;
                assert_eq!(got, want, "i={i} j={j}");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn zero_block_roundtrips_exactly() {
        let v = vec![0.0f32; 130];
        let enc = fixedrate_encode_f32(&v, 12).unwrap();
        let dec = fixedrate_decode_f32(&enc, 12, 130).unwrap();
        assert_eq!(dec, v);
        // 3 blocks x 1 byte header.
        assert_eq!(enc.len(), 3);
    }

    #[test]
    fn error_shrinks_with_bits() {
        let v: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.1).sin() * 1000.0).collect();
        let mut prev = f64::INFINITY;
        for bits in [4u8, 8, 12, 16, 24] {
            let enc = fixedrate_encode_f32(&v, bits).unwrap();
            let dec = fixedrate_decode_f32(&enc, bits, v.len()).unwrap();
            let e = max_err(&v, &dec);
            assert!(e < prev, "bits={bits}: {e} !< {prev}");
            prev = e;
        }
        // 24 bits on f32 data should be near-exact relative to magnitude.
        assert!(prev < 1e-3);
    }

    #[test]
    fn error_respects_theoretical_bound() {
        let v: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 3.7).collect();
        let e_max =
            v.iter().filter(|x| **x != 0.0).map(|x| x.abs().log2().floor() as i32).max().unwrap();
        for bits in [6u8, 10, 14] {
            let enc = fixedrate_encode_f32(&v, bits).unwrap();
            let dec = fixedrate_decode_f32(&enc, bits, v.len()).unwrap();
            assert!(max_err(&v, &dec) <= error_bound(e_max, bits), "bits={bits}");
        }
    }

    #[test]
    fn rate_is_fixed() {
        for n in [1usize, 63, 64, 65, 1000] {
            let v = vec![1.5f32; n];
            let enc = fixedrate_encode_f32(&v, 10).unwrap();
            let blocks = n.div_ceil(BLOCK);
            // Per full block: 8 + 64*10 bits; partial blocks still pay per-sample.
            let bits_total: usize = (0..blocks).map(|b| 8 + 10 * (n - b * BLOCK).min(BLOCK)).sum();
            assert_eq!(enc.len(), bits_total.div_ceil(8), "n={n}");
        }
    }

    #[test]
    fn non_finite_flushed_to_zero() {
        let v = vec![f32::NAN, f32::INFINITY, -3.0, f32::NEG_INFINITY];
        let enc = fixedrate_encode_f32(&v, 16).unwrap();
        let dec = fixedrate_decode_f32(&enc, 16, 4).unwrap();
        assert_eq!(dec[0], 0.0);
        assert_eq!(dec[1], 0.0);
        assert!((dec[2] + 3.0).abs() < 0.01);
        assert_eq!(dec[3], 0.0);
    }

    #[test]
    fn negative_values_preserved() {
        let v: Vec<f32> = (0..64).map(|i| -(i as f32) * 0.5).collect();
        let enc = fixedrate_encode_f32(&v, 16).unwrap();
        let dec = fixedrate_decode_f32(&enc, 16, 64).unwrap();
        for (a, b) in v.iter().zip(&dec) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn bits_out_of_range_rejected() {
        assert!(fixedrate_encode_f32(&[1.0], 1).is_err());
        assert!(fixedrate_encode_f32(&[1.0], 31).is_err());
        assert!(fixedrate_decode_f32(&[0], 0, 1).is_err());
    }

    #[test]
    fn byte_adapters_roundtrip() {
        let v: Vec<f32> = (0..100).map(|i| i as f32 * 0.25).collect();
        let raw = samples_to_bytes(&v);
        let enc = fixedrate_encode_bytes(&raw, 20).unwrap();
        assert!(enc.len() < raw.len());
        let dec = fixedrate_decode_bytes(&enc, 20, raw.len()).unwrap();
        let back: Vec<f32> = bytes_to_samples(&dec).unwrap();
        assert!(max_err(&v, &back) < 0.01);
        assert!(fixedrate_decode_bytes(&enc, 20, 13).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let v = vec![2.5f32; 64];
        let enc = fixedrate_encode_f32(&v, 16).unwrap();
        assert!(fixedrate_decode_f32(&enc[..enc.len() - 2], 16, 64).is_err());
    }

    #[test]
    fn tiny_magnitudes_survive() {
        let v = vec![1.0e-30f32, -1.0e-30, 0.0, 1.0e-30];
        let enc = fixedrate_encode_f32(&v, 20).unwrap();
        let dec = fixedrate_decode_f32(&enc, 20, 4).unwrap();
        for (a, b) in v.iter().zip(&dec) {
            assert!((a - b).abs() < 1e-32);
        }
    }
}
