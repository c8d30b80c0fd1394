//! LZ4-style fast byte LZ — the "lz4-class" codec of the palette.
//!
//! Token format mirrors the LZ4 block format: one token byte whose high
//! nibble is the literal count and low nibble the match length minus 4,
//! both extended with 255-continuation bytes; literals; then a 2-byte
//! little-endian match offset. The final sequence carries literals only.
//! Matching uses the shared hash-chain finder (`crate::matchfinder`) with
//! a short chain — a few probes buy measurably better ratios than LZ4's
//! single-probe table while `u64`-word match extension keeps the encoder in
//! the same speed class. The wire format is unchanged, so streams written by
//! earlier single-probe builds still decode.

use crate::lzss::copy_match;
use crate::matchfinder::ChainMatcher;
use nsdf_util::{NsdfError, Result};

const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 16;
/// Offsets are u16, so matches may reach back at most 65535 bytes.
const WINDOW: usize = u16::MAX as usize;
const MAX_CHAIN: usize = 16;

fn write_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn read_len(src: &[u8], i: &mut usize, base: usize) -> Result<usize> {
    let mut len = base;
    if base == 15 {
        loop {
            let &b = src.get(*i).ok_or_else(|| NsdfError::corrupt("lz4: truncated length"))?;
            *i += 1;
            len += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// Compress `src` with the LZ4-style fast coder.
pub(crate) fn lz4_encode(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    if src.is_empty() {
        return out;
    }
    let mut matcher = ChainMatcher::new(WINDOW, HASH_BITS);
    let mut anchor = 0usize; // start of pending literals
    let mut i = 0usize;

    while i + MIN_MATCH <= src.len() {
        let (len, off) = matcher.find(src, i, MIN_MATCH, src.len() - i, MAX_CHAIN);
        matcher.insert(src, i);
        if len == 0 {
            i += 1;
            continue;
        }
        let lit = i - anchor;
        let lit_nib = lit.min(15) as u8;
        let match_nib = (len - MIN_MATCH).min(15) as u8;
        out.push((lit_nib << 4) | match_nib);
        if lit_nib == 15 {
            write_len(&mut out, lit - 15);
        }
        out.extend_from_slice(&src[anchor..i]);
        out.extend_from_slice(&(off as u16).to_le_bytes());
        if match_nib == 15 {
            write_len(&mut out, len - MIN_MATCH - 15);
        }
        for k in 1..len {
            matcher.insert(src, i + k);
        }
        i += len;
        anchor = i;
    }

    // Trailing literals-only sequence.
    let lit = src.len() - anchor;
    let lit_nib = lit.min(15) as u8;
    out.push(lit_nib << 4);
    if lit_nib == 15 {
        write_len(&mut out, lit - 15);
    }
    out.extend_from_slice(&src[anchor..]);
    out
}

/// Decompress into exactly `dst_len` bytes.
pub(crate) fn lz4_decode(src: &[u8], dst_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(dst_len);
    let mut i = 0usize;
    if dst_len == 0 {
        return Ok(out);
    }
    loop {
        let &token = src.get(i).ok_or_else(|| NsdfError::corrupt("lz4: missing token"))?;
        i += 1;
        let lit = read_len(src, &mut i, (token >> 4) as usize)?;
        let bytes =
            src.get(i..i + lit).ok_or_else(|| NsdfError::corrupt("lz4: literals overrun input"))?;
        out.extend_from_slice(bytes);
        i += lit;
        if out.len() >= dst_len {
            break;
        }
        let off_bytes =
            src.get(i..i + 2).ok_or_else(|| NsdfError::corrupt("lz4: missing offset"))?;
        let off = u16::from_le_bytes([off_bytes[0], off_bytes[1]]) as usize;
        i += 2;
        let len = read_len(src, &mut i, (token & 0xF) as usize)? + MIN_MATCH;
        if off == 0 || off > out.len() {
            return Err(NsdfError::corrupt("lz4: offset out of range"));
        }
        copy_match(&mut out, off, len);
    }
    if out.len() != dst_len {
        return Err(NsdfError::corrupt(format!(
            "lz4: produced {} bytes, expected {dst_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &[u8]) -> usize {
        let enc = lz4_encode(src);
        let dec = lz4_decode(&enc, src.len()).unwrap();
        assert_eq!(dec, src, "roundtrip failed for len {}", src.len());
        enc.len()
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(&[]);
        roundtrip(b"x");
        roundtrip(b"abcd");
    }

    #[test]
    fn repeated_text_compresses() {
        let src = b"streaming scientific data with NSDF services. ".repeat(100);
        let n = roundtrip(&src);
        assert!(n < src.len() / 3);
    }

    #[test]
    fn constant_run() {
        let src = vec![42u8; 65_536];
        let n = roundtrip(&src);
        assert!(n < 600);
    }

    #[test]
    fn long_literal_extension() {
        // > 15 distinct literals before any match forces length extension.
        let mut src: Vec<u8> = (0..=255u8).collect();
        src.extend((0..=255u8).rev());
        roundtrip(&src);
    }

    #[test]
    fn long_match_extension() {
        let mut src = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        src.extend(std::iter::repeat_n(9u8, 5000)); // match len >> 19
        roundtrip(&src);
    }

    #[test]
    fn overlapping_copy() {
        let src: Vec<u8> = b"xy".iter().cycle().take(333).copied().collect();
        roundtrip(&src);
    }

    #[test]
    fn chain_matcher_beats_single_probe_on_hash_collisions() {
        // Alternating motifs that hash-collide under a single-probe table
        // still compress: the chain walks past the most recent candidate.
        let mut src = Vec::new();
        for k in 0..200u32 {
            src.extend_from_slice(&k.to_le_bytes());
            src.extend_from_slice(b"MOTIF-ALPHA-0123");
            src.extend_from_slice(b"MOTIF-BETA-45678");
        }
        let n = roundtrip(&src);
        assert!(n < src.len() / 3, "compressed {n} of {}", src.len());
    }

    #[test]
    fn pseudo_random_bounded_expansion() {
        let mut x = 99u64;
        let src: Vec<u8> = (0..20_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        let n = roundtrip(&src);
        assert!(n <= src.len() + src.len() / 250 + 16);
    }

    #[test]
    fn truncated_input_rejected() {
        let enc = lz4_encode(&[5u8; 100]);
        assert!(lz4_decode(&enc[..enc.len() - 1], 100).is_err());
        assert!(lz4_decode(&[], 1).is_err());
    }

    #[test]
    fn zero_offset_rejected() {
        // token: 0 literals, match nibble 0 -> needs offset; offset 0 invalid.
        let bad = [0x00u8, 0x00, 0x00];
        assert!(lz4_decode(&bad, 8).is_err());
    }
}
