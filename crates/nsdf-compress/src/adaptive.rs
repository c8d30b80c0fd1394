//! Adaptive per-block codec selection and self-describing block framing.
//!
//! Large chunked scientific stores rarely compress every chunk the same way:
//! padding blocks are constant, interior blocks are smooth, boundary blocks
//! are noisy. [`AdaptiveCodec`] samples each block (byte entropy estimate,
//! run density, delta smoothness), trial-encodes a small strided sample with
//! the shortlisted codecs, and picks the winner — then frames the block with
//! a **one-byte self-describing header** (plus one parameter byte for the
//! parameterised codecs) so blocks of one dataset can mix codecs freely.
//!
//! Datasets using a concrete static codec keep writing *headerless* codec
//! streams, so everything written before adaptive mode existed decodes
//! unchanged (`nsdf-idx` seals either kind in one checksummed envelope).
//! Selection is fully deterministic (fixed stride, no randomness), which
//! keeps identically-seeded benches byte-identical.

use crate::codec::Codec;
use nsdf_util::obs::Obs;
use nsdf_util::{NsdfError, Result};

/// Tag bytes of the self-describing block header. Parameterised codecs
/// carry one extra parameter byte after the tag.
const TAG_RAW: u8 = 0;
const TAG_PACKBITS: u8 = 1;
const TAG_LZSS: u8 = 2;
const TAG_LZ4: u8 = 3;
const TAG_SHUFFLE_LZSS: u8 = 4;
const TAG_LZSS_HUFF: u8 = 5;
const TAG_FIXED_RATE: u8 = 6;

/// Append the self-describing header for `codec` to `out`, returning the
/// header length. `Adaptive` itself never appears in a header — blocks
/// always record the concrete codec that encoded them.
pub(crate) fn write_block_header(out: &mut Vec<u8>, codec: Codec) -> Result<usize> {
    match codec {
        Codec::Raw => out.push(TAG_RAW),
        Codec::PackBits => out.push(TAG_PACKBITS),
        Codec::Lzss => out.push(TAG_LZSS),
        Codec::Lz4 => out.push(TAG_LZ4),
        Codec::ShuffleLzss { sample_size } => {
            out.extend_from_slice(&[TAG_SHUFFLE_LZSS, sample_size])
        }
        Codec::LzssHuff { sample_size } => out.extend_from_slice(&[TAG_LZSS_HUFF, sample_size]),
        Codec::FixedRate { bits } => out.extend_from_slice(&[TAG_FIXED_RATE, bits]),
        Codec::Adaptive { .. } => {
            return Err(NsdfError::invalid("adaptive blocks must record a concrete codec"))
        }
    }
    Ok(header_len(codec))
}

fn header_len(codec: Codec) -> usize {
    match codec {
        Codec::Raw | Codec::PackBits | Codec::Lzss | Codec::Lz4 => 1,
        _ => 2,
    }
}

/// Parse a self-describing block header, returning the concrete codec and
/// the header length. All failures are structured [`NsdfError::corrupt`]
/// errors — corrupted tags never panic.
pub fn read_block_header(src: &[u8]) -> Result<(Codec, usize)> {
    let &tag = src.first().ok_or_else(|| NsdfError::corrupt("tagged block: empty buffer"))?;
    let param = || {
        src.get(1)
            .copied()
            .ok_or_else(|| NsdfError::corrupt("tagged block: missing codec parameter"))
    };
    match tag {
        TAG_RAW => Ok((Codec::Raw, 1)),
        TAG_PACKBITS => Ok((Codec::PackBits, 1)),
        TAG_LZSS => Ok((Codec::Lzss, 1)),
        TAG_LZ4 => Ok((Codec::Lz4, 1)),
        TAG_SHUFFLE_LZSS => {
            let sample_size = param()?;
            if sample_size == 0 {
                return Err(NsdfError::corrupt("tagged block: zero shuffle sample size"));
            }
            Ok((Codec::ShuffleLzss { sample_size }, 2))
        }
        TAG_LZSS_HUFF => {
            let sample_size = param()?;
            if sample_size == 0 {
                return Err(NsdfError::corrupt("tagged block: zero shuffle sample size"));
            }
            Ok((Codec::LzssHuff { sample_size }, 2))
        }
        TAG_FIXED_RATE => {
            let bits = param()?;
            if !(2..=30).contains(&bits) {
                return Err(NsdfError::corrupt("tagged block: fixed-rate bits out of range"));
            }
            Ok((Codec::FixedRate { bits }, 2))
        }
        t => Err(NsdfError::corrupt(format!("tagged block: unknown codec tag {t}"))),
    }
}

/// Decode a tagged block into exactly `dst_len` bytes.
pub(crate) fn decode_tagged(src: &[u8], dst_len: usize) -> Result<Vec<u8>> {
    let (codec, header) = read_block_header(src)?;
    codec.decode(&src[header..], dst_len)
}

/// Quick shape statistics over a block sample, the inputs to codec
/// shortlisting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BlockStats {
    /// Shannon entropy of the byte histogram, in bits per byte (0..=8).
    pub entropy_bits: f64,
    /// Fraction of positions equal to their predecessor (run friendliness).
    pub run_density: f64,
    /// Fraction of same-plane byte deltas with magnitude <= 8 (after an
    /// implicit shuffle at `stride` bytes per sample) — delta smoothness.
    pub delta_smoothness: f64,
}

impl BlockStats {
    /// Measure `sample`, treating it as `stride`-byte samples for the
    /// smoothness estimate.
    pub fn measure(sample: &[u8], stride: usize) -> BlockStats {
        if sample.is_empty() {
            return BlockStats { entropy_bits: 0.0, run_density: 1.0, delta_smoothness: 1.0 };
        }
        let mut hist = [0u64; 256];
        for &b in sample {
            hist[b as usize] += 1;
        }
        let n = sample.len() as f64;
        let entropy_bits = hist
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum();
        let runs = sample.windows(2).filter(|w| w[0] == w[1]).count();
        let run_density =
            if sample.len() > 1 { runs as f64 / (sample.len() - 1) as f64 } else { 1.0 };
        let stride = stride.max(1);
        let (mut smooth, mut total) = (0u64, 0u64);
        if sample.len() > stride {
            // Compare each byte to the same byte plane of the next sample.
            for (a, b) in sample.iter().zip(&sample[stride..]) {
                let d = b.wrapping_sub(*a) as i8 as i32;
                smooth += u64::from(d.abs() <= 8);
                total += 1;
            }
        }
        let delta_smoothness = if total > 0 { smooth as f64 / total as f64 } else { 1.0 };
        BlockStats { entropy_bits, run_density, delta_smoothness }
    }
}

/// Per-block codec selector.
///
/// For each block it draws a strided sample, measures `BlockStats`,
/// shortlists candidate codecs, trial-encodes the sample, and picks the
/// winner: the best sampled ratio (ties favour the cheaper decoder). The chosen codec then encodes the
/// full block behind a self-describing header; if the result would expand
/// past a raw block, it falls back to `Raw`, so an adaptive block never
/// costs more than `raw + 2` bytes.
#[derive(Debug, Clone)]
pub struct AdaptiveCodec {
    sample_size: u8,
    obs: Option<Obs>,
}

/// Bytes sampled per block at most.
const SAMPLE_BUDGET: usize = 4096;

impl AdaptiveCodec {
    /// Selector for `sample_size`-byte samples (4 for `f32` fields).
    pub fn new(sample_size: u8) -> AdaptiveCodec {
        AdaptiveCodec { sample_size: sample_size.max(1), obs: None }
    }

    /// Report `codec.selected.<name>` / `codec.sampled_bytes` counters into
    /// `obs` (scoped under `codec`).
    pub fn with_obs(mut self, obs: &Obs) -> AdaptiveCodec {
        self.obs = Some(obs.scoped("codec"));
        self
    }

    /// Draw the deterministic strided sample: up to four contiguous,
    /// sample-aligned chunks spread evenly across the block.
    fn sample_of<'a>(&self, src: &'a [u8]) -> std::borrow::Cow<'a, [u8]> {
        let s = self.sample_size as usize;
        if src.len() <= SAMPLE_BUDGET {
            return std::borrow::Cow::Borrowed(src);
        }
        let chunk = (SAMPLE_BUDGET / 4) / s * s;
        let mut out = Vec::with_capacity(4 * chunk);
        for k in 0..4usize {
            // Even spread, aligned down to a whole sample.
            let start = (src.len() - chunk) * k / 3 / s * s;
            out.extend_from_slice(&src[start..start + chunk]);
        }
        std::borrow::Cow::Owned(out)
    }

    /// Candidate codecs for a block with the given stats, cheapest decode
    /// first. Clearly incompressible blocks shortlist to `Raw` alone.
    fn shortlist(&self, src_len: usize, stats: &BlockStats) -> Vec<Codec> {
        if stats.entropy_bits > 7.5 && stats.run_density < 0.02 && stats.delta_smoothness < 0.3 {
            return vec![Codec::Raw];
        }
        let mut list = vec![Codec::PackBits, Codec::Lz4, Codec::Lzss];
        if src_len.is_multiple_of(self.sample_size as usize) {
            list.push(Codec::ShuffleLzss { sample_size: self.sample_size });
            list.push(Codec::LzssHuff { sample_size: self.sample_size });
        }
        list
    }

    /// Pick the codec for `src`, returning the choice and the number of
    /// bytes sampled to make it.
    pub fn choose(&self, src: &[u8]) -> (Codec, usize) {
        if src.is_empty() {
            return (Codec::Raw, 0);
        }
        let sample = self.sample_of(src);
        let stats = BlockStats::measure(&sample, self.sample_size as usize);
        let candidates = self.shortlist(src.len(), &stats);
        let mut best = (Codec::Raw, 1.0f64);
        for &codec in &candidates {
            let Ok(enc) = codec.encode(&sample) else { continue };
            if enc.is_empty() {
                continue;
            }
            let ratio = sample.len() as f64 / enc.len() as f64;
            if ratio > best.1 {
                best = (codec, ratio);
            }
        }
        (best.0, sample.len())
    }

    /// Encode `src` into a tagged block, returning the bytes and the codec
    /// actually used.
    pub fn encode_block(&self, src: &[u8]) -> Result<(Vec<u8>, Codec)> {
        let (mut codec, sampled) = self.choose(src);
        let mut payload = codec.encode(src)?;
        if payload.len() >= src.len() && codec != Codec::Raw {
            // Never expand beyond a raw block (plus the header byte).
            codec = Codec::Raw;
            payload = src.to_vec();
        }
        let mut out = Vec::with_capacity(payload.len() + 2);
        write_block_header(&mut out, codec)?;
        out.extend_from_slice(&payload);
        if let Some(obs) = &self.obs {
            obs.counter("sampled_bytes").add(sampled as u64);
            obs.counter(&format!("selected.{}", codec.name())).inc();
        }
        Ok((out, codec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_f32(n: usize) -> Vec<u8> {
        (0..n).flat_map(|i| (((i as f32) * 0.01).cos() * 500.0).to_le_bytes()).collect()
    }

    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn header_roundtrips_every_concrete_codec() {
        let codecs = [
            Codec::Raw,
            Codec::PackBits,
            Codec::Lzss,
            Codec::Lz4,
            Codec::ShuffleLzss { sample_size: 4 },
            Codec::LzssHuff { sample_size: 8 },
            Codec::FixedRate { bits: 12 },
        ];
        for c in codecs {
            let mut buf = Vec::new();
            let n = write_block_header(&mut buf, c).unwrap();
            assert_eq!(buf.len(), n);
            assert_eq!(read_block_header(&buf).unwrap(), (c, n), "codec {c}");
        }
    }

    #[test]
    fn adaptive_header_is_rejected() {
        let mut buf = Vec::new();
        assert!(write_block_header(&mut buf, Codec::Adaptive { sample_size: 4 }).is_err());
    }

    #[test]
    fn corrupt_headers_are_structured_errors() {
        assert!(read_block_header(&[]).unwrap_err().is_corrupt());
        for tag in 7u8..=255 {
            assert!(read_block_header(&[tag, 4]).unwrap_err().is_corrupt(), "tag {tag}");
        }
        // Parameterised tags with a missing or invalid parameter byte.
        assert!(read_block_header(&[TAG_SHUFFLE_LZSS]).unwrap_err().is_corrupt());
        assert!(read_block_header(&[TAG_SHUFFLE_LZSS, 0]).unwrap_err().is_corrupt());
        assert!(read_block_header(&[TAG_LZSS_HUFF, 0]).unwrap_err().is_corrupt());
        assert!(read_block_header(&[TAG_FIXED_RATE, 1]).unwrap_err().is_corrupt());
        assert!(read_block_header(&[TAG_FIXED_RATE, 31]).unwrap_err().is_corrupt());
    }

    #[test]
    fn tagged_roundtrip_mixes_codecs() {
        let data = smooth_f32(1024);
        for codec in Codec::lossless_palette(4) {
            let mut enc = Vec::new();
            write_block_header(&mut enc, codec).unwrap();
            enc.extend_from_slice(&codec.encode(&data).unwrap());
            assert_eq!(decode_tagged(&enc, data.len()).unwrap(), data, "codec {codec}");
        }
    }

    #[test]
    fn stats_separate_shapes() {
        let runs = BlockStats::measure(&[9u8; 4096], 4);
        assert!(runs.run_density > 0.99);
        let rnd = BlockStats::measure(&noise(4096), 4);
        assert!(rnd.entropy_bits > 7.5, "entropy {}", rnd.entropy_bits);
        assert!(rnd.run_density < 0.02);
        let smooth = BlockStats::measure(&smooth_f32(1024), 4);
        // Mantissa planes stay noisy, but sign/exponent planes dominate the
        // separation from pure noise.
        assert!(smooth.delta_smoothness > 0.4, "smoothness {}", smooth.delta_smoothness);
        assert!(smooth.delta_smoothness > 3.0 * rnd.delta_smoothness);
        assert_eq!(
            BlockStats::measure(&[], 4),
            BlockStats { entropy_bits: 0.0, run_density: 1.0, delta_smoothness: 1.0 }
        );
    }

    #[test]
    fn selector_picks_sensible_codecs() {
        let a = AdaptiveCodec::new(4);
        // Noise: raw (no codec can win).
        assert_eq!(a.choose(&noise(16384)).0, Codec::Raw);
        // Constant: any RLE-capable codec compresses; must not pick Raw.
        assert_ne!(a.choose(&vec![5u8; 16384]).0, Codec::Raw);
        // Smooth floats: a shuffle-family codec should win.
        let c = a.choose(&smooth_f32(4096)).0;
        assert!(
            matches!(c, Codec::ShuffleLzss { .. } | Codec::LzssHuff { .. }),
            "chose {c} for smooth floats"
        );
    }

    #[test]
    fn encode_block_never_expands_past_raw() {
        let a = AdaptiveCodec::new(4);
        for data in [noise(4096), smooth_f32(1024), vec![0u8; 8192], Vec::new()] {
            let (enc, codec) = a.encode_block(&data).unwrap();
            assert!(enc.len() <= data.len() + 2, "codec {codec} expanded");
            assert_eq!(decode_tagged(&enc, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn counters_record_selection() {
        let obs = Obs::default();
        let a = AdaptiveCodec::new(4).with_obs(&obs);
        let (_, codec) = a.encode_block(&smooth_f32(2048)).unwrap();
        let snap = obs.snapshot();
        assert!(snap.counter("codec.sampled_bytes") > 0);
        assert_eq!(snap.counter(&format!("codec.selected.{}", codec.name())), 1);
    }

    #[test]
    fn adaptive_tracks_best_static_choice() {
        // On a mix of shapes, adaptive per-block totals must come within 5 %
        // of the best single static codec applied to the same blocks.
        let blocks: Vec<Vec<u8>> = vec![
            smooth_f32(4096),
            noise(16384),
            vec![3u8; 16384],
            (0..4096u32).flat_map(|i| ((i / 7) as f32).to_le_bytes()).collect(),
        ];
        let a = AdaptiveCodec::new(4);
        let adaptive_total: usize = blocks.iter().map(|b| a.encode_block(b).unwrap().0.len()).sum();
        let best_static = Codec::lossless_palette(4)
            .into_iter()
            .map(|c| blocks.iter().map(|b| c.encode(b).unwrap().len().min(b.len())).sum::<usize>())
            .min()
            .unwrap();
        assert!(
            (adaptive_total as f64) <= best_static as f64 * 1.05,
            "adaptive {adaptive_total} vs best static {best_static}"
        );
    }
}
