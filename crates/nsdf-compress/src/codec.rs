//! The codec palette: one enum unifying every compressor in the crate so
//! IDX block storage, TIFF strips, and the FUSE layer can negotiate codecs
//! through a stable textual name (stored in `.idx` metadata).

use crate::filter::{delta_decode, delta_encode, shuffle, unshuffle};
use crate::fixedrate::{fixedrate_decode_bytes, fixedrate_encode_bytes};
use crate::huffman::{huffman_decode, huffman_encode};
use crate::lz4like::{lz4_decode, lz4_encode};
use crate::lzss::{lzss_decode, lzss_encode};
use crate::planes::{planes_decode, planes_encode};
use crate::rle::{packbits_decode, packbits_encode};
use nsdf_util::{NsdfError, Result};

/// A compression method for byte buffers.
///
/// All codecs are *length-prefixed externally*: `decode` is told the exact
/// decompressed length, which block stores always know. `FixedRate` is the
/// only lossy member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Identity (no compression).
    Raw,
    /// PackBits run-length coding ("fast & simple").
    PackBits,
    /// LZSS with 32 KiB window ("zlib-class").
    Lzss,
    /// LZ4-style fast byte LZ ("lz4-class").
    Lz4,
    /// Byte shuffle + delta filter followed by LZSS; `sample_size` is the
    /// width in bytes of one sample (e.g. 4 for `f32`). The strongest
    /// LZ-only lossless choice for smooth rasters.
    ShuffleLzss {
        /// Bytes per sample for the shuffle transpose.
        sample_size: u8,
    },
    /// Shuffle + delta + LZSS + canonical Huffman — the full "zlib-class"
    /// pipeline (LZ77 followed by an entropy stage) and the strongest
    /// lossless codec in the palette.
    LzssHuff {
        /// Bytes per sample for the shuffle transpose.
        sample_size: u8,
    },
    /// Shuffle + delta, then each byte plane on its own as the smallest of
    /// canonical Huffman, PackBits or the plane itself (the crate's
    /// `planes` module). No LZ stage: the float-native lossless codec, and
    /// the one [`Codec::Adaptive`] blocks use.
    Planes {
        /// Bytes per sample for the shuffle transpose.
        sample_size: u8,
    },
    /// Fixed-rate lossy float codec ("zfp-class"); input must be
    /// little-endian `f32`s. `bits` is the per-sample budget (2..=30).
    FixedRate {
        /// Quantised bits per sample.
        bits: u8,
    },
    /// Per-block framing: each block is encoded with [`Codec::Planes`], or
    /// stored raw when that would not shrink it, behind a self-describing
    /// header naming the codec (see [`crate::adaptive`]). Blocks of one
    /// dataset may therefore mix codecs.
    Adaptive {
        /// Bytes per sample for blocks encoded through this enum; a
        /// dataset passes each field's own sample width instead.
        sample_size: u8,
    },
}

impl Codec {
    /// Compress `src`.
    pub fn encode(&self, src: &[u8]) -> Result<Vec<u8>> {
        match *self {
            Codec::Raw => Ok(src.to_vec()),
            Codec::PackBits => Ok(packbits_encode(src)),
            Codec::Lzss => Ok(lzss_encode(src)),
            Codec::Lz4 => Ok(lz4_encode(src)),
            Codec::ShuffleLzss { sample_size } => {
                let filtered = delta_encode(&shuffle(src, sample_size as usize)?);
                Ok(lzss_encode(&filtered))
            }
            Codec::LzssHuff { sample_size } => {
                let filtered = delta_encode(&shuffle(src, sample_size as usize)?);
                let lz = lzss_encode(&filtered);
                // Prefix the LZ length so decode can size the middle stage.
                let mut out = (lz.len() as u32).to_le_bytes().to_vec();
                out.extend_from_slice(&huffman_encode(&lz));
                Ok(out)
            }
            Codec::Planes { sample_size } => planes_encode(src, sample_size as usize),
            Codec::FixedRate { bits } => fixedrate_encode_bytes(src, bits),
            Codec::Adaptive { sample_size } => crate::adaptive::AdaptiveCodec::default()
                .encode_block(src, sample_size)
                .map(|(v, _)| v),
        }
    }

    /// Decompress `src` into exactly `dst_len` bytes.
    pub fn decode(&self, src: &[u8], dst_len: usize) -> Result<Vec<u8>> {
        match *self {
            Codec::Raw => {
                if src.len() != dst_len {
                    return Err(NsdfError::corrupt(format!(
                        "raw codec: stored {} bytes, expected {dst_len}",
                        src.len()
                    )));
                }
                Ok(src.to_vec())
            }
            Codec::PackBits => packbits_decode(src, dst_len),
            Codec::Lzss => lzss_decode(src, dst_len),
            Codec::Lz4 => lz4_decode(src, dst_len),
            Codec::ShuffleLzss { sample_size } => {
                let filtered = lzss_decode(src, dst_len)?;
                unshuffle(&delta_decode(&filtered), sample_size as usize)
            }
            Codec::LzssHuff { sample_size } => {
                let lz_len = src
                    .get(..4)
                    .ok_or_else(|| NsdfError::corrupt("lzss-huff: missing length prefix"))?;
                let lz_len = u32::from_le_bytes(lz_len.try_into().expect("4 bytes")) as usize;
                let lz = huffman_decode(&src[4..], lz_len)?;
                let filtered = lzss_decode(&lz, dst_len)?;
                unshuffle(&delta_decode(&filtered), sample_size as usize)
            }
            Codec::Planes { sample_size } => planes_decode(src, sample_size as usize, dst_len),
            Codec::FixedRate { bits } => fixedrate_decode_bytes(src, bits, dst_len),
            Codec::Adaptive { .. } => crate::adaptive::decode_tagged(src, dst_len),
        }
    }

    /// Stable textual name, as stored in `.idx` metadata.
    pub fn name(&self) -> String {
        match *self {
            Codec::Raw => "raw".into(),
            Codec::PackBits => "packbits".into(),
            Codec::Lzss => "lzss".into(),
            Codec::Lz4 => "lz4".into(),
            Codec::ShuffleLzss { sample_size } => format!("shuffle{sample_size}-lzss"),
            Codec::LzssHuff { sample_size } => format!("zlib{sample_size}"),
            Codec::Planes { sample_size } => format!("planes{sample_size}"),
            Codec::FixedRate { bits } => format!("fixedrate{bits}"),
            Codec::Adaptive { sample_size } => format!("adaptive{sample_size}"),
        }
    }

    /// Parse a name produced by [`Codec::name`].
    pub fn parse(s: &str) -> Result<Codec> {
        if let Some(rest) = s.strip_prefix("shuffle") {
            if let Some(sz) = rest.strip_suffix("-lzss") {
                let sample_size: u8 =
                    sz.parse().map_err(|_| NsdfError::format(format!("bad codec `{s}`")))?;
                if sample_size == 0 {
                    return Err(NsdfError::format("shuffle sample size must be positive"));
                }
                return Ok(Codec::ShuffleLzss { sample_size });
            }
        }
        for prefix in ["zlib", "planes", "adaptive"] {
            let Some(sz) = s.strip_prefix(prefix) else { continue };
            let sample_size: u8 =
                sz.parse().map_err(|_| NsdfError::format(format!("bad codec `{s}`")))?;
            if sample_size == 0 {
                return Err(NsdfError::format(format!("{prefix} sample size must be positive")));
            }
            return Ok(match prefix {
                "zlib" => Codec::LzssHuff { sample_size },
                "planes" => Codec::Planes { sample_size },
                _ => Codec::Adaptive { sample_size },
            });
        }
        if let Some(bits) = s.strip_prefix("fixedrate") {
            let bits: u8 =
                bits.parse().map_err(|_| NsdfError::format(format!("bad codec `{s}`")))?;
            if !(2..=30).contains(&bits) {
                return Err(NsdfError::format("fixedrate bits must be in 2..=30"));
            }
            return Ok(Codec::FixedRate { bits });
        }
        match s {
            "raw" => Ok(Codec::Raw),
            "packbits" => Ok(Codec::PackBits),
            "lzss" => Ok(Codec::Lzss),
            "lz4" => Ok(Codec::Lz4),
            other => Err(NsdfError::format(format!("unknown codec `{other}`"))),
        }
    }

    /// The *static* lossless codecs, for sweeps and benches. `Adaptive` is
    /// deliberately excluded: it frames `Planes` (or `Raw`) per block.
    pub fn lossless_palette(sample_size: u8) -> Vec<Codec> {
        vec![
            Codec::Raw,
            Codec::PackBits,
            Codec::Lz4,
            Codec::Lzss,
            Codec::ShuffleLzss { sample_size },
            Codec::LzssHuff { sample_size },
            Codec::Planes { sample_size },
        ]
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Outcome of compressing one buffer — the row type for the compression
/// tables in `EXPERIMENTS.md`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionStats {
    /// Codec used.
    pub codec: Codec,
    /// Input size in bytes.
    pub raw_bytes: usize,
    /// Output size in bytes.
    pub compressed_bytes: usize,
}

impl CompressionStats {
    /// Compress and measure.
    pub fn measure(codec: Codec, src: &[u8]) -> Result<Self> {
        let out = codec.encode(src)?;
        Ok(CompressionStats { codec, raw_bytes: src.len(), compressed_bytes: out.len() })
    }

    /// `raw / compressed` (higher is better); 0 for empty input.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Vec<u8> {
        // Smooth f32 field, the representative IDX payload.
        (0..2048).flat_map(|i| (((i as f32) * 0.01).cos() * 500.0).to_le_bytes()).collect()
    }

    #[test]
    fn every_lossless_codec_roundtrips() {
        let data = sample_data();
        for codec in Codec::lossless_palette(4) {
            let enc = codec.encode(&data).unwrap();
            let dec = codec.decode(&enc, data.len()).unwrap();
            assert_eq!(dec, data, "codec {codec}");
        }
    }

    #[test]
    fn fixed_rate_is_lossy_but_close() {
        let data = sample_data();
        let codec = Codec::FixedRate { bits: 16 };
        let enc = codec.encode(&data).unwrap();
        assert!(enc.len() < data.len() / 2 + 64);
        let dec = codec.decode(&enc, data.len()).unwrap();
        assert_eq!(dec.len(), data.len());
        let orig: Vec<f32> = nsdf_util::bytes_to_samples(&data).unwrap();
        let back: Vec<f32> = nsdf_util::bytes_to_samples(&dec).unwrap();
        let max_err = orig.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(max_err < 0.1, "max_err={max_err}");
    }

    #[test]
    fn names_roundtrip() {
        let codecs = [
            Codec::Raw,
            Codec::PackBits,
            Codec::Lzss,
            Codec::Lz4,
            Codec::ShuffleLzss { sample_size: 4 },
            Codec::LzssHuff { sample_size: 4 },
            Codec::Planes { sample_size: 4 },
            Codec::FixedRate { bits: 12 },
            Codec::Adaptive { sample_size: 4 },
        ];
        for c in codecs {
            assert_eq!(Codec::parse(&c.name()).unwrap(), c);
        }
        assert!(Codec::parse("zstd").is_err());
        assert!(Codec::parse("fixedrate99").is_err());
        assert!(Codec::parse("shuffle0-lzss").is_err());
        assert!(Codec::parse("adaptive0").is_err());
        assert!(Codec::parse("planes0").is_err());
        assert!(Codec::parse("adaptiveX").is_err());
    }

    #[test]
    fn adaptive_codec_roundtrips_via_enum() {
        let data = sample_data();
        let c = Codec::Adaptive { sample_size: 4 };
        let enc = c.encode(&data).unwrap();
        assert!(enc.len() < data.len());
        assert_eq!(c.decode(&enc, data.len()).unwrap(), data);
    }

    #[test]
    fn raw_codec_checks_length() {
        let c = Codec::Raw;
        assert!(c.decode(&[1, 2, 3], 4).is_err());
        assert_eq!(c.decode(&[1, 2, 3], 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn shuffle_lzss_beats_plain_lzss_on_floats() {
        let data = sample_data();
        let plain = CompressionStats::measure(Codec::Lzss, &data).unwrap();
        let shuf = CompressionStats::measure(Codec::ShuffleLzss { sample_size: 4 }, &data).unwrap();
        assert!(
            shuf.compressed_bytes < plain.compressed_bytes,
            "shuffle {} vs plain {}",
            shuf.compressed_bytes,
            plain.compressed_bytes
        );
        assert!(shuf.ratio() > 1.0 / 0.9, "less than 10 % saved");
    }

    #[test]
    fn stats_ratio_and_savings() {
        let s = CompressionStats { codec: Codec::Raw, raw_bytes: 100, compressed_bytes: 80 };
        assert!((s.ratio() - 1.25).abs() < 1e-12);
        // The space saved, the paper's "~20 % smaller", is 1 - 1/ratio.
        assert!((1.0 - 1.0 / s.ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_input_all_codecs() {
        for codec in Codec::lossless_palette(4) {
            let enc = codec.encode(&[]).unwrap();
            assert_eq!(codec.decode(&enc, 0).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn zlib_forged_length_prefix_is_corrupt_not_an_allocation() {
        let codec = Codec::LzssHuff { sample_size: 4 };
        let data = sample_data();
        let mut enc = codec.encode(&data).unwrap();
        // The middle-stage length is four stream bytes: claim 4 GiB.
        enc[..4].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        let err = codec.decode(&enc, data.len()).unwrap_err();
        assert!(err.is_corrupt() && err.to_string().contains("cannot fit"), "{err}");
    }
}
