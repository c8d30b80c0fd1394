//! Per-block codec framing with a self-describing block header.
//!
//! Large chunked scientific stores rarely compress every chunk the same way:
//! padding blocks are constant, interior blocks are smooth, boundary blocks
//! are noisy. [`AdaptiveCodec`] encodes each block with [`Codec::Planes`],
//! whose per-plane choice of Huffman, PackBits or raw bytes already adapts
//! to those shapes, and stores the block raw when that would not shrink
//! it. It frames the block with a **one-byte self-describing header** (plus
//! one parameter byte for the parameterised codecs), so blocks of one
//! dataset can mix codecs freely, and blocks written by the older
//! trial-encoding selector (tags 0–5) keep decoding.
//!
//! Datasets using a concrete static codec keep writing *headerless* codec
//! streams, so everything written before adaptive mode existed decodes
//! unchanged (`nsdf-idx` seals either kind in one checksummed envelope).
//! Encoding is a pure function of the block, which keeps
//! identically-seeded benches byte-identical.

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
const TAG_PLANES: u8 = 7;

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
        Codec::Planes { sample_size } => out.extend_from_slice(&[TAG_PLANES, sample_size]),
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
        TAG_SHUFFLE_LZSS | TAG_LZSS_HUFF | TAG_PLANES => {
            let sample_size = param()?;
            if sample_size == 0 {
                return Err(NsdfError::corrupt("tagged block: zero shuffle sample size"));
            }
            let codec = match tag {
                TAG_SHUFFLE_LZSS => Codec::ShuffleLzss { sample_size },
                TAG_LZSS_HUFF => Codec::LzssHuff { sample_size },
                _ => Codec::Planes { sample_size },
            };
            Ok((codec, 2))
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

/// Per-block encoder of [`Codec::Adaptive`] datasets.
///
/// A block is encoded with [`Codec::Planes`] at the caller's sample width
/// and framed behind a self-describing header; if that would not shrink
/// it, it is stored `Raw`, so an adaptive block never costs more than
/// `raw + 1` bytes.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveCodec {
    obs: Option<Obs>,
}

impl AdaptiveCodec {
    /// Report a `codec.selected.<name>` counter per block into `obs`
    /// (scoped under `codec`).
    pub fn with_obs(mut self, obs: &Obs) -> AdaptiveCodec {
        self.obs = Some(obs.scoped("codec"));
        self
    }

    /// Encode `src`, a block of `sample_size`-byte samples, into a tagged
    /// block, returning the bytes and the codec actually used. A block
    /// that is not a whole number of samples is coded as bytes.
    pub fn encode_block(&self, src: &[u8], sample_size: u8) -> Result<(Vec<u8>, Codec)> {
        let whole = sample_size > 0 && src.len().is_multiple_of(sample_size as usize);
        let planes = Codec::Planes { sample_size: if whole { sample_size } else { 1 } };
        let payload = planes.encode(src)?;
        let (codec, payload) = if payload.len() < src.len() {
            (planes, payload.as_slice())
        } else {
            (Codec::Raw, src)
        };
        let mut out = Vec::with_capacity(payload.len() + 2);
        write_block_header(&mut out, codec)?;
        out.extend_from_slice(payload);
        if let Some(obs) = &self.obs {
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
            Codec::Planes { sample_size: 2 },
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
        for tag in 8u8..=255 {
            assert!(read_block_header(&[tag, 4]).unwrap_err().is_corrupt(), "tag {tag}");
        }
        // Parameterised tags with a missing or invalid parameter byte.
        for tag in [TAG_SHUFFLE_LZSS, TAG_LZSS_HUFF, TAG_PLANES] {
            assert!(read_block_header(&[tag]).unwrap_err().is_corrupt(), "tag {tag}");
            assert!(read_block_header(&[tag, 0]).unwrap_err().is_corrupt(), "tag {tag}");
        }
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
    fn selector_picks_sensible_codecs() {
        let a = AdaptiveCodec::default();
        let planes4 = Codec::Planes { sample_size: 4 };
        assert_eq!(a.encode_block(&smooth_f32(4096), 4).unwrap().1, planes4);
        assert_eq!(a.encode_block(&vec![5u8; 16384], 4).unwrap().1, planes4);
        assert_eq!(a.encode_block(&noise(16384), 4).unwrap().1, Codec::Raw);
        // Each block is planed at the width it is given; a ragged block
        // as bytes.
        assert_eq!(
            a.encode_block(&vec![5u8; 16384], 1).unwrap().1,
            Codec::Planes { sample_size: 1 }
        );
        assert_eq!(
            a.encode_block(&vec![5u8; 4097], 4).unwrap().1,
            Codec::Planes { sample_size: 1 }
        );
    }

    #[test]
    fn encode_block_never_expands_past_raw() {
        let a = AdaptiveCodec::default();
        for data in [noise(4096), smooth_f32(1024), vec![0u8; 8192], Vec::new()] {
            let (enc, codec) = a.encode_block(&data, 4).unwrap();
            assert!(enc.len() <= data.len() + 1, "codec {codec} expanded");
            assert_eq!(decode_tagged(&enc, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn counters_record_selection() {
        let obs = Obs::default();
        let a = AdaptiveCodec::default().with_obs(&obs);
        let (_, codec) = a.encode_block(&smooth_f32(2048), 4).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter(&format!("codec.selected.{}", codec.name())), 1);
    }
}
