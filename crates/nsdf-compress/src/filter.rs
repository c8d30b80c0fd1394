//! Reversible pre-compression filters.
//!
//! Smooth geospatial rasters compress poorly as raw little-endian floats
//! because the noisy mantissa bytes interleave with the highly regular sign
//! and exponent bytes. Byte **shuffle** transposes the buffer so each byte
//! plane is contiguous, and **delta** coding turns slowly varying planes
//! into near-zero runs — together they are what lets the LZ codecs reach
//! the "IDX is ~20 % smaller than TIFF" regime the paper quotes (§IV-B).
//!
//! The kernels here sit on the per-block encode/decode hot path, so they are
//! written to autovectorize: the 4-byte sample case (f32 rasters) walks the
//! input in 64-byte lanes with fixed-size array views (no per-byte bounds
//! checks), the generic case uses bounds-check-free iterator zips, and delta
//! coding is expressed as elementwise slice arithmetic.

use nsdf_util::{NsdfError, Result};

/// Transpose `src` (a sequence of `sample_size`-byte samples) so all first
/// bytes come first, then all second bytes, and so on.
pub(crate) fn shuffle(src: &[u8], sample_size: usize) -> Result<Vec<u8>> {
    check_sample_size(src.len(), sample_size)?;
    let mut out = vec![0u8; src.len()];
    match sample_size {
        1 => out.copy_from_slice(src),
        4 => shuffle4(src, &mut out),
        s => {
            let n = src.len() / s;
            for (plane, dst) in out.chunks_exact_mut(n).enumerate() {
                for (o, b) in dst.iter_mut().zip(src[plane..].iter().step_by(s)) {
                    *o = *b;
                }
            }
        }
    }
    Ok(out)
}

/// Inverse of [`shuffle`].
pub(crate) fn unshuffle(src: &[u8], sample_size: usize) -> Result<Vec<u8>> {
    check_sample_size(src.len(), sample_size)?;
    let mut out = vec![0u8; src.len()];
    match sample_size {
        1 => out.copy_from_slice(src),
        4 => unshuffle4(src, &mut out),
        s => {
            let n = src.len() / s;
            for (plane, p) in src.chunks_exact(n).enumerate() {
                for (b, o) in p.iter().zip(out[plane..].iter_mut().step_by(s)) {
                    *o = *b;
                }
            }
        }
    }
    Ok(out)
}

/// 4-byte-sample transpose over 64-byte lanes (16 samples per step).
fn shuffle4(src: &[u8], out: &mut [u8]) {
    let n = src.len() / 4;
    let (p0, rest) = out.split_at_mut(n);
    let (p1, rest) = rest.split_at_mut(n);
    let (p2, p3) = rest.split_at_mut(n);
    let mut lanes = src.chunks_exact(64);
    let mut idx = 0usize;
    for lane in lanes.by_ref() {
        let lane: &[u8; 64] = lane.try_into().expect("64-byte lane");
        let d0: &mut [u8; 16] = (&mut p0[idx..idx + 16]).try_into().expect("16-byte lane");
        let d1: &mut [u8; 16] = (&mut p1[idx..idx + 16]).try_into().expect("16-byte lane");
        let d2: &mut [u8; 16] = (&mut p2[idx..idx + 16]).try_into().expect("16-byte lane");
        let d3: &mut [u8; 16] = (&mut p3[idx..idx + 16]).try_into().expect("16-byte lane");
        for k in 0..16 {
            d0[k] = lane[4 * k];
            d1[k] = lane[4 * k + 1];
            d2[k] = lane[4 * k + 2];
            d3[k] = lane[4 * k + 3];
        }
        idx += 16;
    }
    for s in lanes.remainder().chunks_exact(4) {
        p0[idx] = s[0];
        p1[idx] = s[1];
        p2[idx] = s[2];
        p3[idx] = s[3];
        idx += 1;
    }
}

/// Inverse of [`shuffle4`]: scatter four planes back into 64-byte lanes.
fn unshuffle4(src: &[u8], out: &mut [u8]) {
    let n = src.len() / 4;
    let (p0, rest) = src.split_at(n);
    let (p1, rest) = rest.split_at(n);
    let (p2, p3) = rest.split_at(n);
    let mut lanes = out.chunks_exact_mut(64);
    let mut idx = 0usize;
    for lane in lanes.by_ref() {
        let lane: &mut [u8; 64] = lane.try_into().expect("64-byte lane");
        let s0: &[u8; 16] = p0[idx..idx + 16].try_into().expect("16-byte lane");
        let s1: &[u8; 16] = p1[idx..idx + 16].try_into().expect("16-byte lane");
        let s2: &[u8; 16] = p2[idx..idx + 16].try_into().expect("16-byte lane");
        let s3: &[u8; 16] = p3[idx..idx + 16].try_into().expect("16-byte lane");
        for k in 0..16 {
            lane[4 * k] = s0[k];
            lane[4 * k + 1] = s1[k];
            lane[4 * k + 2] = s2[k];
            lane[4 * k + 3] = s3[k];
        }
        idx += 16;
    }
    for s in lanes.into_remainder().chunks_exact_mut(4) {
        s[0] = p0[idx];
        s[1] = p1[idx];
        s[2] = p2[idx];
        s[3] = p3[idx];
        idx += 1;
    }
}

/// Byte-wise delta coding: each output byte is the wrapping difference from
/// the previous input byte. Applied after [`shuffle`], slowly varying byte
/// planes become runs of zeros.
pub(crate) fn delta_encode(src: &[u8]) -> Vec<u8> {
    let Some((&first, _)) = src.split_first() else {
        return Vec::new();
    };
    let mut out = vec![0u8; src.len()];
    out[0] = first;
    // Elementwise subtraction of two offset views of `src`; the zip elides
    // bounds checks so the loop vectorizes.
    for ((o, &cur), &prev) in out[1..].iter_mut().zip(&src[1..]).zip(src) {
        *o = cur.wrapping_sub(prev);
    }
    out
}

/// Inverse of [`delta_encode`].
pub(crate) fn delta_decode(src: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; src.len()];
    let mut prev = 0u8;
    for (o, &d) in out.iter_mut().zip(src) {
        prev = prev.wrapping_add(d);
        *o = prev;
    }
    out
}

fn check_sample_size(len: usize, sample_size: usize) -> Result<()> {
    if sample_size == 0 {
        return Err(NsdfError::invalid("sample size must be positive"));
    }
    if !len.is_multiple_of(sample_size) {
        return Err(NsdfError::invalid(format!(
            "buffer length {len} not a multiple of sample size {sample_size}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference scalar transpose the lane kernels must agree with.
    fn shuffle_ref(src: &[u8], sample_size: usize) -> Vec<u8> {
        let n = src.len() / sample_size;
        let mut out = vec![0u8; src.len()];
        for plane in 0..sample_size {
            for i in 0..n {
                out[plane * n + i] = src[i * sample_size + plane];
            }
        }
        out
    }

    #[test]
    fn shuffle_layout_example() {
        // Two 4-byte samples: [a0 a1 a2 a3][b0 b1 b2 b3]
        let src = [0xA0, 0xA1, 0xA2, 0xA3, 0xB0, 0xB1, 0xB2, 0xB3];
        let shuf = shuffle(&src, 4).unwrap();
        assert_eq!(shuf, [0xA0, 0xB0, 0xA1, 0xB1, 0xA2, 0xB2, 0xA3, 0xB3]);
        assert_eq!(unshuffle(&shuf, 4).unwrap(), src);
    }

    #[test]
    fn shuffle_roundtrip_various_sizes() {
        let src: Vec<u8> = (0..240).map(|i| (i * 7 % 256) as u8).collect();
        for size in [1, 2, 3, 4, 8] {
            let s = shuffle(&src, size).unwrap();
            assert_eq!(s, shuffle_ref(&src, size), "size {size}");
            assert_eq!(unshuffle(&s, size).unwrap(), src, "size {size}");
        }
    }

    #[test]
    fn lane_kernel_matches_reference_across_lengths() {
        // Exercise the 64-byte lane path, its remainder handling, and the
        // empty buffer: lengths straddling multiples of 64.
        for samples in [0usize, 1, 15, 16, 17, 63, 64, 65, 250] {
            let src: Vec<u8> = (0..samples * 4).map(|i| (i * 131 % 251) as u8).collect();
            let fast = shuffle(&src, 4).unwrap();
            assert_eq!(fast, shuffle_ref(&src, 4), "samples {samples}");
            assert_eq!(unshuffle(&fast, 4).unwrap(), src, "samples {samples}");
        }
    }

    #[test]
    fn shuffle_validates_input() {
        assert!(shuffle(&[1, 2, 3], 2).is_err());
        assert!(shuffle(&[1, 2], 0).is_err());
        assert!(shuffle(&[], 4).unwrap().is_empty());
        assert!(unshuffle(&[1, 2, 3], 2).is_err());
        assert!(unshuffle(&[1, 2], 0).is_err());
    }

    #[test]
    fn delta_roundtrip() {
        let src: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        assert_eq!(delta_decode(&delta_encode(&src)), src);
        assert!(delta_encode(&[]).is_empty());
        assert!(delta_decode(&[]).is_empty());
    }

    #[test]
    fn delta_on_smooth_data_yields_runs() {
        let src: Vec<u8> = (0..100).map(|i| 50 + i / 10).collect();
        let d = delta_encode(&src);
        let zeros = d.iter().filter(|&&b| b == 0).count();
        assert!(zeros >= 85, "zeros={zeros}");
    }

    #[test]
    fn delta_wraps_correctly() {
        let src = [255u8, 0, 255, 1];
        assert_eq!(delta_decode(&delta_encode(&src)), src);
    }

    #[test]
    fn shuffled_floats_compress_better_than_raw() {
        // Smooth f32 ramp: shuffle+delta must beat raw under LZSS.
        let floats: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.001).sin() * 100.0).collect();
        let raw: Vec<u8> = floats.iter().flat_map(|f| f.to_le_bytes()).collect();
        let filtered = delta_encode(&shuffle(&raw, 4).unwrap());
        let raw_c = crate::lzss::lzss_encode(&raw).len();
        let filt_c = crate::lzss::lzss_encode(&filtered).len();
        assert!(filt_c < raw_c, "filtered {filt_c} vs raw {raw_c}");
    }

    proptest! {
        #[test]
        fn filters_are_involutions(
            src in proptest::collection::vec(any::<u8>(), 0..4096),
            size in 1usize..9,
        ) {
            let mut padded = src;
            padded.truncate(padded.len() / size * size);
            let s = shuffle(&padded, size).unwrap();
            prop_assert_eq!(unshuffle(&s, size).unwrap(), padded.clone());
            prop_assert_eq!(delta_decode(&delta_encode(&padded)), padded);
        }
    }
}
