//! Canonical Huffman entropy coding.
//!
//! The LZ stages in this crate emit literal bytes verbatim; real zlib
//! follows LZ77 with a Huffman stage, which is where much of its ratio on
//! filtered float data comes from. This module supplies that stage: a
//! canonical, length-limited Huffman coder over bytes with a compact
//! code-length header, used by [`crate::codec::Codec::LzssHuff`] to form
//! the workspace's full "zlib-class" pipeline.
//!
//! Codes are canonical (assigned by (length, symbol) order), so the header
//! only stores 4-bit code lengths per symbol, RLE-compressed. Maximum code
//! length is 15, enforced by the same package-merge-free heuristic zlib
//! uses in spirit: depths beyond the limit are clamped and the Kraft sum
//! repaired by deepening the shallowest leaves.
//!
//! # Decoding
//!
//! [`huffman_decode`] keeps the next code bits in a 64-bit window refilled
//! four bytes at a time and resolves a code of at most `PRIMARY_BITS` (11)
//! bits with one lookup in a 2048-entry table filled from the canonical
//! codes: every window value that starts with the code holds its symbol
//! and length. A longer code (rare: its symbol has probability below
//! 2⁻¹¹) leaves its entry empty and is found by walking the remaining
//! lengths against the per-length first code and count. Past the end of
//! the stream the window reads zeros, and a match that needed more bits
//! than were left is the truncation error.
//!
//! The decoder is a pure function of the stream: a canonical code is
//! prefix-free, so "the first length at which the bits read so far name a
//! code" — what a bit-at-a-time reader decides, and what the tests keep as
//! their reference — and "the entry at this window" are the same symbol.
//! The stream format, [`MAX_CODE_LEN`] and each `Corrupt` error are those
//! of the bit-serial decoder; the one addition is that an output length
//! larger than the number of code bits is refused before anything is
//! allocated for it.

use crate::bits::{BitReader, BitWriter};
use nsdf_util::{NsdfError, Result};

/// Maximum code length in bits.
pub(crate) const MAX_CODE_LEN: u8 = 15;

/// Codes of at most this many bits decode in one table lookup.
const PRIMARY_BITS: u8 = 11;

/// Build Huffman code lengths for the given symbol frequencies.
///
/// Returns 256 code lengths (0 = symbol absent). Guarantees the Kraft
/// inequality holds with equality when at least two symbols are present.
fn code_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    let mut lens = [0u8; 256];
    let present: Vec<u16> = (0..256u16).filter(|&s| freqs[s as usize] > 0).collect();
    match present.len() {
        0 => return lens,
        1 => {
            lens[present[0] as usize] = 1;
            return lens;
        }
        _ => {}
    }

    // Standard heap-based Huffman tree over (freq, node) pairs.
    #[derive(Clone)]
    struct Node {
        freq: u64,
        // Leaf symbol or internal children indices.
        sym: Option<u16>,
        kids: Option<(usize, usize)>,
    }
    let mut nodes: Vec<Node> = present
        .iter()
        .map(|&s| Node { freq: freqs[s as usize], sym: Some(s), kids: None })
        .collect();
    // Binary heap of (freq, idx) with smallest first.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        nodes.iter().enumerate().map(|(i, n)| std::cmp::Reverse((n.freq, i))).collect();
    while heap.len() > 1 {
        let std::cmp::Reverse((fa, a)) = heap.pop().expect("len > 1");
        let std::cmp::Reverse((fb, b)) = heap.pop().expect("len > 1");
        let idx = nodes.len();
        nodes.push(Node { freq: fa + fb, sym: None, kids: Some((a, b)) });
        heap.push(std::cmp::Reverse((fa + fb, idx)));
    }
    let root = heap.pop().expect("one root").0 .1;

    // Depth-first depth assignment.
    let mut stack = vec![(root, 0u8)];
    while let Some((idx, depth)) = stack.pop() {
        let node = nodes[idx].clone();
        match (node.sym, node.kids) {
            (Some(s), _) => lens[s as usize] = depth.max(1),
            (None, Some((a, b))) => {
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
            _ => unreachable!("node is leaf or internal"),
        }
    }

    // Length-limit: clamp and repair the Kraft sum.
    limit_lengths(&mut lens);
    lens
}

/// Clamp code lengths to [`MAX_CODE_LEN`] and repair the Kraft inequality.
fn limit_lengths(lens: &mut [u8; 256]) {
    let over: bool = lens.iter().any(|&l| l > MAX_CODE_LEN);
    if !over {
        return;
    }
    for l in lens.iter_mut() {
        if *l > MAX_CODE_LEN {
            *l = MAX_CODE_LEN;
        }
    }
    // Kraft sum in units of 2^-MAX_CODE_LEN.
    let unit = 1u64 << MAX_CODE_LEN;
    let mut kraft: u64 = lens.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
    // While oversubscribed, deepen the deepest non-max leaf... the classic
    // fix is to find a leaf with l < MAX and increment it (halving its
    // contribution).
    while kraft > unit {
        let idx = (0..256)
            .filter(|&i| lens[i] > 0 && lens[i] < MAX_CODE_LEN)
            .max_by_key(|&i| lens[i])
            .expect("a repairable leaf exists");
        kraft -= unit >> lens[idx];
        lens[idx] += 1;
        kraft += unit >> lens[idx];
    }
}

/// Canonical codes from code lengths: `codes[s]` is the code for symbol
/// `s`, MSB-aligned within `lens[s]` bits.
fn canonical_codes(lens: &[u8; 256]) -> [u32; 256] {
    let mut codes = [0u32; 256];
    // Count codes per length.
    let mut count = [0u32; (MAX_CODE_LEN + 1) as usize];
    for &l in lens.iter() {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut next = [0u32; (MAX_CODE_LEN + 2) as usize];
    let mut code = 0u32;
    for bits in 1..=MAX_CODE_LEN as usize {
        code = (code + count[bits - 1]) << 1;
        next[bits] = code;
    }
    for s in 0..256 {
        let l = lens[s] as usize;
        if l > 0 {
            codes[s] = next[l];
            next[l] += 1;
        }
    }
    codes
}

/// The code-length header's `(length, run)` pairs: runs of equal lengths
/// over the 256 symbols, each at most 64 long.
fn length_runs(lens: &[u8; 256]) -> impl Iterator<Item = (u8, usize)> + '_ {
    let mut i = 0usize;
    std::iter::from_fn(move || {
        let l = *lens.get(i)?;
        let run = lens[i..].iter().take(64).take_while(|&&x| x == l).count();
        i += run;
        Some((l, run))
    })
}

/// Serialize code lengths: run-length over the 256 nibbles.
fn write_lengths(w: &mut BitWriter, lens: &[u8; 256]) {
    for (l, run) in length_runs(lens) {
        w.write_bits(l as u64, 4);
        w.write_bits((run - 1) as u64, 6);
    }
}

fn read_lengths(r: &mut BitReader) -> Result<[u8; 256]> {
    let mut lens = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let l = r.read_bits(4)? as u8;
        let run = r.read_bits(6)? as usize + 1;
        if i + run > 256 {
            return Err(NsdfError::corrupt("huffman: length run overflows table"));
        }
        lens[i..i + run].fill(l);
        i += run;
    }
    Ok(lens)
}

/// Compress `src` with a one-pass canonical Huffman coder.
///
/// Output layout: `[lengths header][bitstream]`. Empty input encodes to an
/// empty buffer.
pub(crate) fn huffman_encode(src: &[u8]) -> Vec<u8> {
    huffman_encode_below(src, usize::MAX).expect("every stream is shorter than usize::MAX")
}

/// [`huffman_encode`] of `src` if that is shorter than `limit` bytes, else
/// `None`. The length is known from the code lengths, so a stream that
/// would lose to `limit` is never emitted.
pub(crate) fn huffman_encode_below(src: &[u8], limit: usize) -> Option<Vec<u8>> {
    if src.is_empty() {
        return (limit > 0).then(Vec::new);
    }
    let mut freqs = [0u64; 256];
    for &b in src {
        freqs[b as usize] += 1;
    }
    // No prefix code beats the entropy or one bit a symbol, so a plainly
    // losing stream is refused before its code is built. The bound is
    // shaded down a millionth against rounding.
    let n = src.len() as f64;
    let entropy: f64 =
        freqs.iter().filter(|&&f| f > 0).map(|&f| f as f64 / n).map(|p| -p * p.log2()).sum();
    if n * entropy.max(1.0) * (1.0 - 1e-6) / 8.0 >= limit as f64 {
        return None;
    }
    let lens = code_lengths(&freqs);
    let header_bits = 10 * length_runs(&lens).count() as u64;
    let code_bits: u64 = freqs.iter().zip(&lens).map(|(&f, &l)| f * u64::from(l)).sum();
    let bytes = (header_bits + code_bits).div_ceil(8) as usize;
    if bytes >= limit {
        return None;
    }
    let codes = canonical_codes(&lens);
    let mut w = BitWriter::with_capacity(bytes);
    write_lengths(&mut w, &lens);
    for &b in src {
        w.write_bits(codes[b as usize] as u64, lens[b as usize]);
    }
    Some(w.into_bytes())
}

/// MSB-first window over the code bits: `held` valid bits sit at the top of
/// `acc`, everything below them is zero, so a [`BitWindow::peek`] past the
/// end of the stream reads zero padding instead of failing.
struct BitWindow<'a> {
    bytes: &'a [u8],
    /// Next byte of `bytes` to load.
    next: usize,
    acc: u64,
    held: u32,
}

impl<'a> BitWindow<'a> {
    /// A window whose first bit is bit `bit_pos` of `bytes`.
    fn at(bytes: &'a [u8], bit_pos: usize) -> Self {
        let mut w = BitWindow { bytes, next: bit_pos / 8, acc: 0, held: 0 };
        w.refill();
        w.consume((bit_pos % 8) as u32);
        w
    }

    /// Top up from `held < 32`: four bytes at once, single bytes at the tail.
    fn refill(&mut self) {
        if let Some(four) = self.bytes.get(self.next..self.next + 4) {
            let word = u32::from_be_bytes(four.try_into().expect("4 bytes"));
            self.acc |= (word as u64) << (32 - self.held);
            self.next += 4;
            self.held += 32;
        } else {
            for &b in &self.bytes[self.next..] {
                self.acc |= (b as u64) << (56 - self.held);
                self.held += 8;
            }
            self.next = self.bytes.len();
        }
    }

    /// The next `n` bits (`1 <= n <= 32`) without consuming them.
    fn peek(&self, n: u8) -> u32 {
        (self.acc >> (64 - n)) as u32
    }

    fn consume(&mut self, n: u32) {
        self.acc <<= n;
        self.held -= n;
    }
}

/// Decompress `src` into exactly `dst_len` bytes.
pub(crate) fn huffman_decode(src: &[u8], dst_len: usize) -> Result<Vec<u8>> {
    decode_counting_tail(src, dst_len).map(|(out, _)| out)
}

/// [`huffman_decode`] of a stream that must end with its last code: a
/// whole byte left unread is `Corrupt`, as [`huffman_encode`] never
/// writes one.
pub(crate) fn huffman_decode_exact(src: &[u8], dst_len: usize) -> Result<Vec<u8>> {
    let (out, unread_bits) = decode_counting_tail(src, dst_len)?;
    if unread_bits >= 8 {
        return Err(NsdfError::corrupt(format!(
            "huffman: {} bytes past the last code",
            unread_bits / 8
        )));
    }
    Ok(out)
}

/// The decoded bytes, and how many bits of `src` follow the last code.
fn decode_counting_tail(src: &[u8], dst_len: usize) -> Result<(Vec<u8>, usize)> {
    if dst_len == 0 {
        return Ok((Vec::new(), src.len() * 8));
    }
    let mut r = BitReader::new(src);
    let lens = read_lengths(&mut r)?;
    let code_bits = r.remaining_bits();
    let codes = canonical_codes(&lens);

    // Canonical decode tables over the symbols sorted by (len, sym): the
    // codes of length `l` are the `count_per_len[l]` consecutive values
    // from `first_code[l]`, naming `symbols[first_index[l]..]` in order.
    let mut symbols: Vec<u16> = (0..256u16).filter(|&s| lens[s as usize] > 0).collect();
    if symbols.is_empty() {
        return Err(NsdfError::corrupt("huffman: empty code table"));
    }
    symbols.sort_by_key(|&s| (lens[s as usize], s));
    let mut first_code = [0u32; (MAX_CODE_LEN + 1) as usize];
    let mut first_index = [0usize; (MAX_CODE_LEN + 1) as usize];
    {
        let mut idx = 0usize;
        for l in 1..=MAX_CODE_LEN {
            first_index[l as usize] = idx;
            first_code[l as usize] = codes[symbols.get(idx).map(|&s| s as usize).unwrap_or(0)];
            // Only meaningful when symbols of this length exist; the
            // lookups below check the count.
            while idx < symbols.len() && lens[symbols[idx] as usize] == l {
                idx += 1;
            }
        }
    }
    let mut count_per_len = [0u32; (MAX_CODE_LEN + 1) as usize];
    for &s in &symbols {
        count_per_len[lens[s as usize] as usize] += 1;
    }
    // The symbol whose `len`-bit code is `code`, if the table has one.
    let symbol_at = |code: u32, len: u8| {
        let first = first_code[len as usize];
        (code >= first && code - first < count_per_len[len as usize])
            .then(|| symbols[first_index[len as usize] + (code - first) as usize])
    };

    // Primary table: every `PRIMARY_BITS`-bit window that starts with a
    // code of at most that length maps to `symbol << 4 | length`; 0 marks
    // a window that starts with a longer code (or none). Canonical
    // assignment keeps the codes prefix-free whatever lengths a forged
    // header claims — an oversubscribed one pushes codes past `2^len`,
    // where no read reaches them — so no two codes claim one slot.
    let mut primary = [0u16; 1 << PRIMARY_BITS];
    for len in 1..=PRIMARY_BITS {
        let pad = PRIMARY_BITS - len;
        let run = &symbols[first_index[len as usize]..][..count_per_len[len as usize] as usize];
        for (code, &sym) in (first_code[len as usize]..).zip(run).take_while(|(c, _)| c >> len == 0)
        {
            primary[(code << pad) as usize..((code + 1) << pad) as usize]
                .fill(sym << 4 | len as u16);
        }
    }

    // Every symbol costs at least one bit, so a longer output than the
    // stream has bits is a forged length: refuse before allocating for it.
    if dst_len > code_bits {
        return Err(NsdfError::corrupt(format!(
            "huffman: {dst_len} symbols cannot fit in {code_bits} code bits"
        )));
    }
    let mut out = Vec::with_capacity(dst_len);
    let mut w = BitWindow::at(src, src.len() * 8 - code_bits);
    while out.len() < dst_len {
        if w.held < 32 {
            w.refill();
        }
        let entry = primary[w.peek(PRIMARY_BITS) as usize];
        let (sym, len) = if entry != 0 {
            (entry >> 4, (entry & 15) as u8)
        } else {
            // A longer code: walk the remaining lengths over one window.
            let bits = w.peek(MAX_CODE_LEN);
            let hit = (PRIMARY_BITS + 1..=MAX_CODE_LEN)
                .find_map(|len| Some((symbol_at(bits >> (MAX_CODE_LEN - len), len)?, len)));
            match hit {
                Some(hit) => hit,
                None if w.held > MAX_CODE_LEN as u32 => {
                    return Err(NsdfError::corrupt("huffman: code longer than limit"));
                }
                None => return Err(NsdfError::corrupt("bit stream exhausted")),
            }
        };
        if len as u32 > w.held {
            // The match leaned on the zero padding past the last byte.
            return Err(NsdfError::corrupt("bit stream exhausted"));
        }
        w.consume(len as u32);
        out.push(sym as u8);
    }
    Ok((out, (src.len() - w.next) * 8 + w.held as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(src: &[u8]) -> usize {
        let enc = huffman_encode(src);
        let dec = huffman_decode(&enc, src.len()).unwrap();
        assert_eq!(dec, src, "roundtrip failed, len {}", src.len());
        enc.len()
    }

    #[test]
    fn empty_and_single_symbol() {
        roundtrip(&[]);
        roundtrip(b"a");
        roundtrip(&vec![7u8; 10_000]); // single symbol, 1-bit codes
    }

    #[test]
    fn two_symbols() {
        let src: Vec<u8> = (0..1000).map(|i| if i % 3 == 0 { 1 } else { 0 }).collect();
        let n = roundtrip(&src);
        // ~1 bit/symbol + header.
        assert!(n < 300, "{n}");
    }

    #[test]
    fn skewed_text_compresses() {
        let src = b"the quick brown fox jumps over the lazy dog ".repeat(100);
        let n = roundtrip(&src);
        assert!(n < src.len() * 5 / 8, "{n} of {}", src.len());
    }

    #[test]
    fn uniform_random_stays_near_raw() {
        let mut x = 1u64;
        let src: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let n = roundtrip(&src);
        assert!(n <= src.len() + 300, "{n}");
    }

    #[test]
    fn all_256_symbols() {
        let src: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&src);
    }

    #[test]
    fn extreme_skew_hits_length_limit() {
        // Exponential-ish frequencies force deep trees; the limiter must
        // keep codes <= 15 bits and decoding exact.
        let mut src = Vec::new();
        for s in 0..30u8 {
            let reps = 1usize << (30 - s as usize).min(20);
            src.extend(std::iter::repeat_n(s, reps / 1024 + 1));
        }
        roundtrip(&src);
    }

    #[test]
    fn garbage_input_errors_not_panics() {
        for dst in [1usize, 100] {
            let _ = huffman_decode(&[0xFF, 0x00, 0xAB], dst);
            let _ = huffman_decode(&[], dst);
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let enc = huffman_encode(b"hello hello hello");
        assert!(
            huffman_decode(&enc[..enc.len() - 1], 17).is_err()
                || huffman_decode(&enc[..enc.len() - 1], 17).unwrap() != b"hello hello hello"
        );
    }

    #[test]
    fn lengths_satisfy_kraft() {
        let mut freqs = [0u64; 256];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = (i as u64 + 1) * (i as u64 + 1);
        }
        let lens = code_lengths(&freqs);
        let unit = 1u64 << MAX_CODE_LEN;
        let kraft: u64 = lens.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
        assert!(kraft <= unit);
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
    }

    /// The decoder this module shipped before the lookup table: one
    /// `read_bits(1)` per code bit, lengths tried in increasing order. Kept
    /// as the reference the table decoder is compared against.
    fn decode_bit_serial(src: &[u8], dst_len: usize) -> Result<Vec<u8>> {
        if dst_len == 0 {
            return Ok(Vec::new());
        }
        let mut r = BitReader::new(src);
        let lens = read_lengths(&mut r)?;
        let codes = canonical_codes(&lens);
        let mut symbols: Vec<u16> = (0..256u16).filter(|&s| lens[s as usize] > 0).collect();
        if symbols.is_empty() {
            return Err(NsdfError::corrupt("huffman: empty code table"));
        }
        symbols.sort_by_key(|&s| (lens[s as usize], s));
        let mut first_code = [0u32; (MAX_CODE_LEN + 1) as usize];
        let mut first_index = [0usize; (MAX_CODE_LEN + 1) as usize];
        let mut idx = 0usize;
        for l in 1..=MAX_CODE_LEN {
            first_index[l as usize] = idx;
            first_code[l as usize] = codes[symbols.get(idx).map(|&s| s as usize).unwrap_or(0)];
            while idx < symbols.len() && lens[symbols[idx] as usize] == l {
                idx += 1;
            }
        }
        let mut count_per_len = [0usize; (MAX_CODE_LEN + 1) as usize];
        for &s in &symbols {
            count_per_len[lens[s as usize] as usize] += 1;
        }
        let mut out = Vec::new();
        while out.len() < dst_len {
            let mut code = 0u32;
            let mut len = 0u8;
            loop {
                code = (code << 1) | r.read_bits(1)? as u32;
                len += 1;
                if len > MAX_CODE_LEN {
                    return Err(NsdfError::corrupt("huffman: code longer than limit"));
                }
                let n = count_per_len[len as usize];
                if n > 0 {
                    let first = first_code[len as usize];
                    if code >= first && (code - first) < n as u32 {
                        out.push(
                            symbols[first_index[len as usize] + (code - first) as usize] as u8,
                        );
                        break;
                    }
                }
            }
        }
        Ok(out)
    }

    /// The table decoder must agree with the bit-serial reference: the same
    /// bytes, or the same `Corrupt` error.
    fn assert_same_as_bit_serial(stream: &[u8], dst_len: usize, what: &str) {
        match (huffman_decode(stream, dst_len), decode_bit_serial(stream, dst_len)) {
            (Ok(table), Ok(serial)) => assert_eq!(table, serial, "{what}"),
            (Err(table), Err(serial)) => {
                assert!(table.is_corrupt() && serial.is_corrupt(), "{what}: {table} / {serial}");
                // The same error, but for the output-length bound, which
                // speaks up before the reference runs out of bits.
                let (table, serial) = (table.to_string(), serial.to_string());
                assert!(
                    table == serial || table.contains("cannot fit"),
                    "{what}: {table} / {serial}"
                );
            }
            (table, serial) => panic!("{what}: table {table:?} but bit-serial {serial:?}"),
        }
    }

    /// Symbol `s` repeated `fib(s)` times: the deepest tree a byte count
    /// can buy, so 14 symbols reach 13-bit codes (past `PRIMARY_BITS`) and
    /// 24 symbols reach the `MAX_CODE_LEN` limiter.
    fn fibonacci_skew(symbols: u8) -> Vec<u8> {
        let (mut a, mut b) = (1usize, 1usize);
        let mut src = Vec::new();
        for s in 0..symbols {
            src.extend(std::iter::repeat_n(s, a));
            (a, b) = (b, a + b);
        }
        src
    }

    /// Small sources covering the code shapes: skewed text, near-uniform
    /// bytes, all 256 symbols, codes longer than `PRIMARY_BITS`, and a
    /// single symbol. Small because the sweeps below decode each of them
    /// once per encoded byte or bit.
    fn differential_sources() -> Vec<(&'static str, Vec<u8>)> {
        let mut x = 7u64;
        let uniform: Vec<u8> = (0..300)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        vec![
            ("skewed", b"the quick brown fox jumps over the lazy dog ".repeat(8)),
            ("uniform", uniform),
            ("all-256", (0..=255u8).cycle().take(512).collect()),
            ("long-codes", fibonacci_skew(14)),
            ("single-symbol", vec![7u8; 200]),
        ]
    }

    fn max_code_len(stream: &[u8]) -> u8 {
        *read_lengths(&mut BitReader::new(stream)).unwrap().iter().max().unwrap()
    }

    #[test]
    fn table_decoder_matches_bit_serial_on_valid_streams() {
        let mut sources = differential_sources();
        sources.push(("length-limit", fibonacci_skew(24)));
        for (name, src) in &sources {
            let enc = huffman_encode(src);
            assert_eq!(&huffman_decode(&enc, src.len()).unwrap(), src, "{name}");
            // Shorter and longer outputs than were encoded, too.
            for dst_len in [1, src.len() / 2, src.len(), src.len() + 1, src.len() + 9] {
                assert_same_as_bit_serial(&enc, dst_len, name);
            }
        }
        // The two deep sources are what their names say.
        assert_eq!(max_code_len(&huffman_encode(&fibonacci_skew(14))), 13);
        assert_eq!(max_code_len(&huffman_encode(&fibonacci_skew(24))), MAX_CODE_LEN);
    }

    #[test]
    fn every_truncation_matches_bit_serial() {
        for (name, src) in differential_sources() {
            let enc = huffman_encode(&src);
            for cut in 0..enc.len() {
                assert_same_as_bit_serial(&enc[..cut], src.len(), &format!("{name} cut at {cut}"));
            }
        }
    }

    #[test]
    fn every_single_bit_flip_matches_bit_serial() {
        for (name, src) in differential_sources() {
            let enc = huffman_encode(&src);
            for bit in 0..enc.len() * 8 {
                let mut flipped = enc.clone();
                flipped[bit / 8] ^= 0x80 >> (bit % 8);
                assert_same_as_bit_serial(&flipped, src.len(), &format!("{name} bit {bit}"));
            }
        }
    }

    #[test]
    fn forged_output_length_is_rejected_before_allocating() {
        let enc = huffman_encode(b"hello hello hello");
        // `Vec::with_capacity(usize::MAX)` would panic; 4 GiB would be asked for.
        for dst_len in [usize::MAX, u32::MAX as usize, enc.len() * 8 + 1] {
            let err = huffman_decode(&enc, dst_len).unwrap_err();
            assert!(err.is_corrupt() && err.to_string().contains("cannot fit"), "{err}");
        }
    }

    proptest! {
        #[test]
        fn huffman_roundtrips_adversarial(
            src in prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..4096),
                proptest::collection::vec(0u8..4, 0..4096),
                (any::<u8>(), 0usize..4096).prop_map(|(b, n)| vec![b; n]),
            ],
        ) {
            let enc = huffman_encode(&src);
            // A limit refuses the stream exactly when the stream does not
            // beat it, the entropy bound included.
            prop_assert_eq!(huffman_encode_below(&src, enc.len() + 1), Some(enc.clone()));
            prop_assert_eq!(huffman_encode_below(&src, enc.len()), None);
            prop_assert_eq!(huffman_decode(&enc, src.len()).unwrap(), src);
        }
    }
}
