//! LZSS — the "zlib-class" lossless codec of the palette.
//!
//! Greedy LZ77 parsing over a 32 KiB window with the shared hash-chain
//! matcher (`crate::matchfinder`), emitted as flag-grouped tokens: each
//! group byte carries eight flags (bit set → match token of offset+length,
//! clear → literal byte). This is deliberately the same family as DEFLATE
//! minus the entropy stage, which keeps the implementation self-contained
//! while landing in the same compression regime on raster data.
//!
//! Decoding copies matches with `Vec::extend_from_within` (a memcpy for the
//! common non-overlapping case, pattern-doubling for overlapping ones)
//! instead of per-byte pushes — match copies dominate decode time on
//! compressible raster data.

use crate::matchfinder::ChainMatcher;
use nsdf_util::{NsdfError, Result};

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 259; // MIN_MATCH + u8::MAX
const MAX_CHAIN: usize = 64;
const HASH_BITS: u32 = 15;

/// Compress `src` with LZSS.
pub(crate) fn lzss_encode(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    if src.is_empty() {
        return out;
    }
    let mut matcher = ChainMatcher::new(WINDOW, HASH_BITS);

    let mut flags_at = usize::MAX;
    let mut flag_bit = 8u8;
    let mut i = 0usize;

    macro_rules! push_flag {
        ($set:expr) => {
            if flag_bit == 8 {
                flags_at = out.len();
                out.push(0);
                flag_bit = 0;
            }
            if $set {
                out[flags_at] |= 1 << flag_bit;
            }
            flag_bit += 1;
        };
    }

    while i < src.len() {
        let (best_len, best_off) = matcher.find(src, i, MIN_MATCH, MAX_MATCH, MAX_CHAIN);
        if best_len >= MIN_MATCH {
            push_flag!(true);
            out.extend_from_slice(&(best_off as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            for k in 0..best_len {
                matcher.insert(src, i + k);
            }
            i += best_len;
        } else {
            push_flag!(false);
            out.push(src[i]);
            matcher.insert(src, i);
            i += 1;
        }
    }
    out
}

/// Decompress LZSS output into exactly `dst_len` bytes.
pub(crate) fn lzss_decode(src: &[u8], dst_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(dst_len);
    let mut i = 0usize;
    let mut flags = 0u8;
    let mut flag_bit = 8u8;
    while out.len() < dst_len {
        if flag_bit == 8 {
            flags = *src.get(i).ok_or_else(|| NsdfError::corrupt("lzss: missing flag byte"))?;
            i += 1;
            flag_bit = 0;
        }
        let is_match = (flags >> flag_bit) & 1 == 1;
        flag_bit += 1;
        if is_match {
            let tok = src
                .get(i..i + 3)
                .ok_or_else(|| NsdfError::corrupt("lzss: truncated match token"))?;
            let off = u16::from_le_bytes([tok[0], tok[1]]) as usize;
            let len = tok[2] as usize + MIN_MATCH;
            i += 3;
            if off == 0 || off > out.len() {
                return Err(NsdfError::corrupt("lzss: match offset out of range"));
            }
            copy_match(&mut out, off, len);
        } else {
            let &b = src.get(i).ok_or_else(|| NsdfError::corrupt("lzss: missing literal"))?;
            i += 1;
            out.push(b);
        }
    }
    if out.len() != dst_len {
        return Err(NsdfError::corrupt("lzss: output length mismatch"));
    }
    Ok(out)
}

/// Append `len` bytes starting `off` back from the end of `out`.
/// Overlapping copies (`off < len`) double the available pattern each pass.
#[inline]
pub(crate) fn copy_match(out: &mut Vec<u8>, off: usize, len: usize) {
    let start = out.len() - off;
    if off >= len {
        out.extend_from_within(start..start + len);
        return;
    }
    let mut remaining = len;
    while remaining > 0 {
        let take = (out.len() - start).min(remaining);
        out.extend_from_within(start..start + take);
        remaining -= take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &[u8]) -> usize {
        let enc = lzss_encode(src);
        let dec = lzss_decode(&enc, src.len()).unwrap();
        assert_eq!(dec, src, "roundtrip failed for len {}", src.len());
        enc.len()
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(&[]);
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_text_compresses() {
        let src = b"the quick brown fox jumps over the lazy dog. ".repeat(50);
        let n = roundtrip(&src);
        assert!(n < src.len() / 4, "compressed {n} of {}", src.len());
    }

    #[test]
    fn constant_buffer_compresses_hard() {
        let src = vec![0u8; 100_000];
        let n = roundtrip(&src);
        // Max match length is 259, so ~386 three-byte tokens plus flags.
        assert!(n < 1500, "constant buffer compressed to {n}");
    }

    #[test]
    fn overlapping_match_copy() {
        // "abcabcabc..." forces matches with offset < length.
        let src: Vec<u8> = b"abc".iter().cycle().take(1000).copied().collect();
        roundtrip(&src);
    }

    #[test]
    fn copy_match_matches_per_byte_reference() {
        for (off, len) in [(1usize, 10usize), (2, 9), (3, 259), (5, 5), (8, 3), (4, 4)] {
            let seed: Vec<u8> =
                (0..off as u8).map(|b| b.wrapping_mul(37).wrapping_add(1)).collect();
            let mut fast = seed.clone();
            let mut slow = seed;
            copy_match(&mut fast, off, len);
            let start = slow.len() - off;
            for k in 0..len {
                let b = slow[start + k];
                slow.push(b);
            }
            assert_eq!(fast, slow, "off={off} len={len}");
        }
    }

    #[test]
    fn incompressible_data_bounded_expansion() {
        // Pseudo-random bytes: expansion must stay below 1/8 overhead + slack.
        let mut x = 0x12345678u32;
        let src: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let n = roundtrip(&src);
        assert!(n <= src.len() + src.len() / 8 + 16);
    }

    #[test]
    fn matches_beyond_window_not_used() {
        // A repeated motif separated by > 32 KiB of noise still roundtrips.
        let mut src = b"HEADER-MOTIF-1234".to_vec();
        let mut x = 7u32;
        src.extend((0..WINDOW + 100).map(|_| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 24) as u8
        }));
        src.extend_from_slice(b"HEADER-MOTIF-1234");
        roundtrip(&src);
    }

    #[test]
    fn corrupt_offset_rejected() {
        // Hand-craft a stream whose first token is a match (impossible: no history).
        let bad = [0b0000_0001u8, 5, 0, 0];
        assert!(lzss_decode(&bad, 10).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let enc = lzss_encode(&[1u8; 100]);
        assert!(lzss_decode(&enc[..enc.len() - 1], 100).is_err());
        assert!(lzss_decode(&[], 1).is_err());
    }

    #[test]
    fn smooth_gradient_compresses() {
        // Byte-wise smooth data, like shuffled raster planes.
        let src: Vec<u8> = (0..50_000).map(|i| (i / 200) as u8).collect();
        let n = roundtrip(&src);
        assert!(n < src.len() / 5);
    }
}
