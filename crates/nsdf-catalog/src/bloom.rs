//! Per-segment bloom filters for point-lookup pruning.
//!
//! A point `get` at paper scale (1.59 B records) must not binary-search
//! every segment of every level: the filter lets a lookup skip any segment
//! that provably does not hold the id. The filter is a plain split-block-
//! free bit array with `k` probes from a double-hash family over
//! `splitmix64` — no false negatives by construction, and a false-positive
//! rate set by bits-per-key (10 bits ≈ 1 %, comfortably under the 2 %
//! acceptance bar).

use nsdf_util::{splitmix64, NsdfError, Result};

/// Immutable bloom filter over a set of u64 ids.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Bloom {
    bits: Vec<u64>,
    k: u32,
}

/// Salt separating the two probe streams from plain `splitmix64(id)` users.
const H1_SALT: u64 = 0xB100_F17E_0000_0001;
const H2_SALT: u64 = 0xB100_F17E_0000_0002;

impl Bloom {
    /// Build a filter for `ids` at `bits_per_key` density (clamped to a
    /// sane 1..=32 range; `k` is the optimal `bpk·ln2` rounded, min 1).
    pub fn build(ids: &[u64], bits_per_key: u32) -> Bloom {
        let bpk = bits_per_key.clamp(1, 32) as usize;
        let nbits = (ids.len().max(1) * bpk).next_multiple_of(64);
        let k = ((bpk as f64) * std::f64::consts::LN_2).round().max(1.0) as u32;
        let mut bloom = Bloom { bits: vec![0u64; nbits / 64], k };
        for &id in ids {
            let (h1, h2) = Self::hashes(id);
            for i in 0..k as u64 {
                let bit = (h1.wrapping_add(i.wrapping_mul(h2))) % (nbits as u64);
                bloom.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
            }
        }
        bloom
    }

    fn hashes(id: u64) -> (u64, u64) {
        let h1 = splitmix64(id ^ H1_SALT);
        // Force h2 odd so the probe stride never collapses mod a power of
        // two bit count.
        let h2 = splitmix64(id.rotate_left(32) ^ H2_SALT) | 1;
        (h1, h2)
    }

    /// True when `id` *may* be in the set; false means definitely absent.
    pub fn contains(&self, id: u64) -> bool {
        let nbits = (self.bits.len() * 64) as u64;
        let (h1, h2) = Self::hashes(id);
        (0..self.k as u64).all(|i| {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2))) % nbits;
            self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Serialized footprint in bytes (for space-amplification accounting).
    pub(crate) fn encoded_len(&self) -> usize {
        8 + self.bits.len() * 8
    }

    /// Append the wire encoding: `k u32 · words u32 · bit words`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&(self.bits.len() as u32).to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decode an encoding written by [`Bloom::encode_into`], advancing
    /// `pos` past it. The word count is checked against the bytes left
    /// before anything is allocated.
    pub(crate) fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Bloom> {
        let err = || NsdfError::corrupt("truncated bloom filter");
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let b = pos.checked_add(n).and_then(|end| buf.get(*pos..end)).ok_or_else(err)?;
            *pos += n;
            Ok(b)
        };
        let word = |pos: &mut usize| -> Result<u32> {
            Ok(u32::from_le_bytes(take(pos, 4)?.try_into().expect("4 bytes")))
        };
        let k = word(pos)?;
        let words = word(pos)? as usize;
        if k == 0 || k > 64 || words == 0 {
            return Err(NsdfError::corrupt("bloom filter header out of range"));
        }
        let bits = take(pos, words.checked_mul(8).ok_or_else(err)?)?
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect();
        Ok(Bloom { bits, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn no_false_negatives() {
        let ids: Vec<u64> = (0..5000).map(|i| splitmix64(i) ^ i).collect();
        let bloom = Bloom::build(&ids, 10);
        for &id in &ids {
            assert!(bloom.contains(id), "false negative for {id}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let ids: Vec<u64> = (0..10_000).collect();
        let bloom = Bloom::build(&ids, 10);
        let fp = (10_000u64..110_000).filter(|&id| bloom.contains(id)).count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.02, "false positive rate {rate} over the 2% bar");
    }

    #[test]
    fn empty_and_single_key_filters_work() {
        let empty = Bloom::build(&[], 10);
        let _ = empty.contains(7); // may be fp, never panic
        let one = Bloom::build(&[42], 10);
        assert!(one.contains(42));
    }

    #[test]
    fn encode_roundtrip() {
        let ids: Vec<u64> = (0..333).map(|i| i * 7 + 1).collect();
        let bloom = Bloom::build(&ids, 12);
        let mut buf = vec![0xAAu8; 3]; // leading junk the cursor must skip
        let mut pos = buf.len();
        bloom.encode_into(&mut buf);
        assert_eq!(buf.len() - 3, bloom.encoded_len());
        let back = Bloom::decode_from(&buf, &mut pos).unwrap();
        assert_eq!(back, bloom);
        assert_eq!(pos, buf.len());
        // Truncated encodings are structured corruption.
        let mut p = 3;
        assert!(Bloom::decode_from(&buf[..buf.len() - 2], &mut p).unwrap_err().is_corrupt());
    }

    #[test]
    fn forged_word_count_is_corrupt_not_allocated() {
        let mut buf = Vec::new();
        Bloom::build(&[1, 2, 3], 10).encode_into(&mut buf);
        for words in [u32::MAX, 1 << 28] {
            buf[4..8].copy_from_slice(&words.to_le_bytes());
            assert!(Bloom::decode_from(&buf, &mut 0).unwrap_err().is_corrupt(), "words {words}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn bloom_never_false_negative(raw in collection::vec(any::<u64>(), 1..400),
                                      bpk in 1u32..16) {
            let mut ids = raw.clone();
            ids.sort_unstable();
            ids.dedup();
            let bloom = Bloom::build(&ids, bpk);
            for id in &ids {
                prop_assert!(bloom.contains(*id), "false negative for {id} at bpk={bpk}");
            }
            // The wire roundtrip answers identically, members and strangers.
            let mut buf = Vec::new();
            bloom.encode_into(&mut buf);
            let mut pos = 0;
            let back = Bloom::decode_from(&buf, &mut pos).expect("decode");
            prop_assert_eq!(pos, buf.len());
            for probe in ids.iter().chain(raw.iter()).chain([0, u64::MAX].iter()) {
                prop_assert_eq!(back.contains(*probe), bloom.contains(*probe));
            }
        }
    }
}
