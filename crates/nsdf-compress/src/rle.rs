//! PackBits run-length coding — the byte-oriented RLE scheme TIFF uses
//! (compression tag 32773) and the cheapest codec in the IDX block palette.
//!
//! Control byte `n`: `0..=127` → copy the next `n+1` literal bytes;
//! `129..=255` → repeat the next byte `257-n` times; `128` is a no-op.

use nsdf_util::{NsdfError, Result};

/// Compress with PackBits.
pub fn packbits_encode(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 8);
    let mut i = 0;
    while i < src.len() {
        // Measure the run starting at i.
        let b = src[i];
        let mut run = 1usize;
        while i + run < src.len() && src[i + run] == b && run < 128 {
            run += 1;
        }
        if run >= 3 {
            out.push((257 - run) as u8);
            out.push(b);
            i += run;
            continue;
        }
        // Literal stretch: scan forward until a run of >= 3 starts or we hit
        // the 128-byte literal cap.
        let start = i;
        let mut j = i;
        while j < src.len() && j - start < 128 {
            let b = src[j];
            let mut r = 1;
            while j + r < src.len() && src[j + r] == b && r < 3 {
                r += 1;
            }
            if r >= 3 {
                break;
            }
            j += 1;
        }
        let lit = j - start;
        out.push((lit - 1) as u8);
        out.extend_from_slice(&src[start..j]);
        i = j;
    }
    out
}

/// Decompress all of `src` into a buffer of exactly `dst_len` bytes.
pub fn packbits_decode(src: &[u8], dst_len: usize) -> Result<Vec<u8>> {
    // Two input bytes yield at most 128: reserve no more than `src` can make.
    let mut out = Vec::with_capacity(dst_len.min(src.len().saturating_mul(64)));
    let mut i = 0;
    while i < src.len() && out.len() <= dst_len {
        let ctrl = src[i];
        i += 1;
        match ctrl {
            0..=127 => {
                let n = ctrl as usize + 1;
                let lit = src
                    .get(i..i + n)
                    .ok_or_else(|| NsdfError::corrupt("packbits literal overruns input"))?;
                out.extend_from_slice(lit);
                i += n;
            }
            128 => {}
            129..=255 => {
                let n = 257 - ctrl as usize;
                let &b =
                    src.get(i).ok_or_else(|| NsdfError::corrupt("packbits run missing byte"))?;
                i += 1;
                out.extend(std::iter::repeat_n(b, n));
            }
        }
    }
    if out.len() != dst_len {
        return Err(NsdfError::corrupt(format!(
            "packbits produced {} bytes, expected {dst_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &[u8]) {
        let enc = packbits_encode(src);
        let dec = packbits_decode(&enc, src.len()).unwrap();
        assert_eq!(dec, src);
    }

    #[test]
    fn empty_input() {
        roundtrip(&[]);
        assert!(packbits_encode(&[]).is_empty());
    }

    #[test]
    fn all_same_compresses_hard() {
        let src = vec![7u8; 1000];
        let enc = packbits_encode(&src);
        assert!(enc.len() <= 2 * src.len().div_ceil(128));
        roundtrip(&src);
    }

    #[test]
    fn all_distinct_expands_little() {
        let src: Vec<u8> = (0..=255).collect();
        let enc = packbits_encode(&src);
        assert!(enc.len() <= src.len() + src.len().div_ceil(128));
        roundtrip(&src);
    }

    #[test]
    fn mixed_runs_and_literals() {
        let mut src = Vec::new();
        src.extend_from_slice(b"abc");
        src.extend(std::iter::repeat_n(b'x', 50));
        src.extend_from_slice(b"defg");
        src.extend(std::iter::repeat_n(0u8, 3));
        roundtrip(&src);
    }

    #[test]
    fn two_byte_runs_stay_literal() {
        roundtrip(b"aabbccdd");
    }

    #[test]
    fn long_runs_split_at_128() {
        roundtrip(&vec![9u8; 128 * 3 + 5]);
    }

    #[test]
    fn truncated_stream_rejected() {
        let enc = packbits_encode(&[7u8; 100]);
        assert!(packbits_decode(&enc[..enc.len() - 1], 100).is_err());
    }

    #[test]
    fn trailing_input_and_forged_lengths_rejected() {
        let enc = packbits_encode(b"hello world");
        let mut noop = enc.clone();
        noop.push(128);
        assert_eq!(packbits_decode(&noop, 11).unwrap(), b"hello world");
        let mut trailing = enc.clone();
        trailing.extend_from_slice(&[0, b'!']);
        assert!(packbits_decode(&trailing, 11).is_err());
        // A forged length reserves no more than the input can yield.
        assert!(packbits_decode(&enc, usize::MAX).is_err());
    }

    #[test]
    fn wrong_dst_len_rejected() {
        let enc = packbits_encode(b"hello world");
        assert!(packbits_decode(&enc, 5).is_err());
        assert!(packbits_decode(&enc, 500).is_err());
    }
}
