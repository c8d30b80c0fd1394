//! Byte-plane entropy coding for sample blocks: the `planesN` codec.
//!
//! After byte shuffle and delta (the `filter` module), each byte plane of
//! a float block has its own statistics: the sign/exponent plane is nearly
//! constant, the high mantissa plane is skewed, and the low mantissa
//! planes are close to noise. An LZ stage finds few back-references in
//! any of them, so this codec has none. It stores every plane on its own
//! as the smallest of three bodies:
//!
//! * canonical Huffman (one code table per plane, `huffman`);
//! * PackBits, which holds a constant plane (padding) in a few bytes;
//! * the plane itself, which a noisy plane costs no more than.
//!
//! # Stream layout
//!
//! The filtered buffer (`delta(shuffle(src))`, as for `zlib{N}`) is cut
//! into `sample_size` planes of `len / sample_size` bytes, each written
//! as `[mode u8][body length u32 LE][body]`. Decoding checks every mode
//! and length, and each body must decode to exactly one plane using all of
//! its bytes, so a forged mode, a forged length or a truncation is a
//! `Corrupt` error. Plane sizes come from the caller's block length, never
//! from the stream, so nothing larger than the block is allocated.

use crate::filter::{delta_decode, delta_encode, shuffle, unshuffle};
use crate::huffman::{huffman_decode_exact, huffman_encode_below};
use crate::rle::{packbits_decode, packbits_encode};
use nsdf_util::{NsdfError, Result};

/// Plane body modes.
const MODE_RAW: u8 = 0;
const MODE_PACKBITS: u8 = 1;
const MODE_HUFFMAN: u8 = 2;

/// Bytes of a plane header: mode, then body length.
const PLANE_HEADER: usize = 5;

/// Encode `src`, a whole number of `sample_size`-byte samples.
pub(crate) fn planes_encode(src: &[u8], sample_size: usize) -> Result<Vec<u8>> {
    let filtered = delta_encode(&shuffle(src, sample_size)?);
    let n = src.len() / sample_size;
    let mut out = Vec::with_capacity(src.len() / 2 + PLANE_HEADER * sample_size);
    for p in 0..sample_size {
        let plane = &filtered[p * n..(p + 1) * n];
        // Ties go to the body that decodes cheapest: raw, then PackBits.
        let packed = packbits_encode(plane);
        let (mode, body) = if packed.len() < plane.len() {
            (MODE_PACKBITS, packed.as_slice())
        } else {
            (MODE_RAW, plane)
        };
        let huff = huffman_encode_below(plane, body.len());
        let (mode, body) = match &huff {
            Some(h) => (MODE_HUFFMAN, h.as_slice()),
            None => (mode, body),
        };
        out.push(mode);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
    }
    Ok(out)
}

/// Decode a [`planes_encode`] stream into exactly `dst_len` bytes.
pub(crate) fn planes_decode(src: &[u8], sample_size: usize, dst_len: usize) -> Result<Vec<u8>> {
    if sample_size == 0 || !dst_len.is_multiple_of(sample_size) {
        return Err(NsdfError::corrupt(format!(
            "planes: {dst_len} bytes are not whole {sample_size}-byte samples"
        )));
    }
    let n = dst_len / sample_size;
    let mut filtered = Vec::with_capacity(dst_len);
    let mut rest = src;
    for p in 0..sample_size {
        let truncated = || NsdfError::corrupt(format!("planes: plane {p} truncated"));
        let header = rest.get(..PLANE_HEADER).ok_or_else(truncated)?;
        let len = u32::from_le_bytes(header[1..].try_into().expect("4 bytes")) as usize;
        let body = rest[PLANE_HEADER..].get(..len).ok_or_else(truncated)?;
        rest = &rest[PLANE_HEADER + len..];
        match header[0] {
            MODE_RAW if body.len() == n => filtered.extend_from_slice(body),
            MODE_RAW => {
                return Err(NsdfError::corrupt(format!(
                    "planes: raw plane {p} holds {} bytes, expected {n}",
                    body.len()
                )))
            }
            MODE_PACKBITS => filtered.extend_from_slice(&packbits_decode(body, n)?),
            MODE_HUFFMAN => filtered.extend_from_slice(&huffman_decode_exact(body, n)?),
            mode => {
                return Err(NsdfError::corrupt(format!(
                    "planes: plane {p} has unknown mode {mode}"
                )))
            }
        }
    }
    if !rest.is_empty() {
        return Err(NsdfError::corrupt(format!(
            "planes: {} bytes past the last plane",
            rest.len()
        )));
    }
    unshuffle(&delta_decode(&filtered), sample_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_f32(n: usize) -> Vec<u8> {
        (0..n).flat_map(|i| (((i as f32) * 0.01).cos() * 500.0).to_le_bytes()).collect()
    }

    /// The `(mode, body length)` of each plane of a stream.
    fn plane_modes(enc: &[u8], sample_size: usize) -> Vec<(u8, usize)> {
        let mut at = 0;
        (0..sample_size)
            .map(|_| {
                let len = u32::from_le_bytes(enc[at + 1..at + 5].try_into().unwrap()) as usize;
                let mode = (enc[at], len);
                at += PLANE_HEADER + len;
                mode
            })
            .collect()
    }

    #[test]
    fn each_plane_takes_its_smallest_body() {
        // A constant block: every filtered plane is one byte then zeros.
        let flat: Vec<u8> = [7.25f32; 4096].iter().flat_map(|v| v.to_le_bytes()).collect();
        let enc = planes_encode(&flat, 4).unwrap();
        assert!(plane_modes(&enc, 4).iter().all(|&(m, _)| m == MODE_PACKBITS));
        assert!(enc.len() < 600, "constant block costs {} bytes", enc.len());
        assert_eq!(planes_decode(&enc, 4, flat.len()).unwrap(), flat);

        // The noisy low byte plane stays raw; the skewed second plane goes
        // to Huffman.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let noisy: Vec<u8> = (0..4096)
            .flat_map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((((x >> 40) & 3) << 8) as u32 | (x >> 56) as u32).to_le_bytes()
            })
            .collect();
        let enc = planes_encode(&noisy, 4).unwrap();
        let modes = plane_modes(&enc, 4);
        assert_eq!(modes[0], (MODE_RAW, 4096), "{modes:?}");
        assert_eq!(modes[1].0, MODE_HUFFMAN, "{modes:?}");
        assert_eq!(planes_decode(&enc, 4, noisy.len()).unwrap(), noisy);
    }

    #[test]
    fn smooth_floats_compress() {
        let data = smooth_f32(4096);
        let enc = planes_encode(&data, 4).unwrap();
        assert!(enc.len() < data.len() * 3 / 4, "planes {} of {}", enc.len(), data.len());
        assert_eq!(planes_decode(&enc, 4, data.len()).unwrap(), data);
    }

    #[test]
    fn a_body_must_end_with_its_plane() {
        // One Huffman plane; a byte slipped in after its last code, with
        // the length raised to cover it, still decodes all `n` symbols.
        let skewed: Vec<u8> = (0..4096u32).map(|i| (i % 7 == 0) as u8 * 9).collect();
        let mut enc = planes_encode(&skewed, 1).unwrap();
        assert_eq!(plane_modes(&enc, 1)[0].0, MODE_HUFFMAN);
        let len = u32::from_le_bytes(enc[1..5].try_into().unwrap());
        enc[1..5].copy_from_slice(&(len + 1).to_le_bytes());
        enc.push(0);
        assert!(planes_decode(&enc, 1, skewed.len()).unwrap_err().is_corrupt());
    }

    #[test]
    fn empty_block_is_one_empty_plane_per_byte() {
        let enc = planes_encode(&[], 4).unwrap();
        assert_eq!(enc.len(), 4 * PLANE_HEADER);
        assert!(planes_decode(&enc, 4, 0).unwrap().is_empty());
    }

    #[test]
    fn ragged_lengths_are_structured_errors() {
        assert!(planes_encode(&[1, 2, 3], 2).is_err());
        assert!(planes_encode(&[1, 2], 0).is_err());
        let enc = planes_encode(&smooth_f32(16), 4).unwrap();
        assert!(planes_decode(&enc, 4, 63).unwrap_err().is_corrupt());
        assert!(planes_decode(&enc, 0, 64).unwrap_err().is_corrupt());
    }
}
