//! Bit-level I/O used by the Huffman and fixed-rate float codecs.

use nsdf_util::{NsdfError, Result};

/// Append-only MSB-first bit writer.
///
/// Bits gather in a 64-bit accumulator and leave it four bytes at a time,
/// so a write is a shift, an or and (one time in several) one 4-byte
/// append; the bytes are those of a bit-at-a-time writer.
#[derive(Debug, Default)]
pub(crate) struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, the oldest highest, in the low `held` bits.
    acc: u64,
    /// Bits pending in `acc` (0..32 between writes).
    held: u32,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty writer with room for `bytes` output bytes.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        BitWriter { buf: Vec::with_capacity(bytes), ..Self::default() }
    }

    /// Write the low `n` bits of `value`, most significant first. `n <= 64`.
    pub(crate) fn write_bits(&mut self, value: u64, n: u8) {
        debug_assert!(n <= 64);
        if n > 32 {
            self.write_bits(value >> 32, n - 32);
            self.write_bits(value, 32);
            return;
        }
        // `held < 32` and `n <= 32`, so the accumulator never overflows.
        let n = u32::from(n);
        self.acc = (self.acc << n) | (value & ((1u64 << n) - 1));
        self.held += n;
        if self.held >= 32 {
            self.held -= 32;
            self.buf.extend_from_slice(&((self.acc >> self.held) as u32).to_be_bytes());
        }
    }

    /// Finish, returning the byte buffer (final byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail = (self.acc << (32 - self.held)) as u32;
        let tail_bytes = self.held.div_ceil(8) as usize;
        self.buf.extend_from_slice(&tail.to_be_bytes()[..tail_bytes]);
        self.buf
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug)]
pub(crate) struct BitReader<'a> {
    buf: &'a [u8],
    pos_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Reader positioned at the first bit of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos_bits: 0 }
    }

    /// Read `n` bits (`n <= 64`), MSB first.
    pub(crate) fn read_bits(&mut self, n: u8) -> Result<u64> {
        debug_assert!(n <= 64);
        if self.pos_bits + n as usize > self.buf.len() * 8 {
            return Err(NsdfError::corrupt("bit stream exhausted"));
        }
        let mut out = 0u64;
        let mut remaining = n;
        while remaining > 0 {
            let byte = self.buf[self.pos_bits / 8];
            let bit_in_byte = (self.pos_bits % 8) as u8;
            let avail = 8 - bit_in_byte;
            let take = avail.min(remaining);
            let bits = (byte >> (avail - take)) & ((1u16 << take) - 1) as u8;
            out = (out << take) | bits as u64;
            self.pos_bits += take as usize;
            remaining -= take;
        }
        Ok(out)
    }

    /// Bits remaining in the stream.
    pub(crate) fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-at-a-time reference writer.
    fn write_serial(fields: &[(u64, u8)]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut used = 0usize;
        for &(v, n) in fields {
            for i in (0..n).rev() {
                if used.is_multiple_of(8) {
                    out.push(0);
                }
                let bit = ((v >> i) & 1) as u8;
                *out.last_mut().expect("byte pushed above") |= bit << (7 - used % 8);
                used += 1;
            }
        }
        out
    }

    proptest! {
        #[test]
        fn word_writer_matches_bit_serial(
            fields in proptest::collection::vec((any::<u64>(), 0u8..=64), 0..200),
        ) {
            let mut w = BitWriter::new();
            for &(v, n) in &fields {
                w.write_bits(v, n);
            }
            prop_assert_eq!(w.into_bytes(), write_serial(&fields));
        }
    }

    #[test]
    fn roundtrip_aligned_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0xAB, 8);
        w.write_bits(0xCD, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0xAB, 0xCD]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert_eq!(r.read_bits(8).unwrap(), 0xCD);
    }

    #[test]
    fn roundtrip_unaligned_fields() {
        let fields: &[(u64, u8)] = &[(0b101, 3), (0b1, 1), (0x3FF, 10), (0, 5), (0xFFFF_FFFF, 32)];
        let mut w = BitWriter::new();
        for &(v, n) in fields {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in fields {
            assert_eq!(r.read_bits(n).unwrap(), v, "field width {n}");
        }
    }

    #[test]
    fn write_64_bit_value() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(1).unwrap(), 0);
    }

    #[test]
    fn overread_errors() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn remaining_bits_tracks_position() {
        let mut r = BitReader::new(&[0, 0]);
        assert_eq!(r.remaining_bits(), 16);
        r.read_bits(3).unwrap();
        assert_eq!(r.remaining_bits(), 13);
    }
}
