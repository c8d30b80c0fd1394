//! Property-based round-trip guarantees for every codec in the palette.

use nsdf_compress::codec::Codec;
use nsdf_compress::AdaptiveCodec;
use nsdf_util::NsdfError;
use proptest::prelude::*;

/// Tagged adaptive blocks decode through the palette entry; its sample
/// size plays no part in decoding.
const TAGGED: Codec = Codec::Adaptive { sample_size: 4 };

/// Byte buffers with a bias toward runs and structure (worst case for
/// branchy token coders) as well as pure noise.
fn byte_buffers() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..4096),
        proptest::collection::vec(0u8..4, 0..4096),
        (any::<u8>(), 0usize..4096).prop_map(|(b, n)| vec![b; n]),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|motif| motif
            .iter()
            .copied()
            .cycle()
            .take(3000)
            .collect()),
    ]
}

/// Block payloads spanning the adaptive selector's decision space: all-equal
/// runs, pure noise, smooth float gradients (shuffle-friendly), and
/// already-compressed bytes (entropy-saturated with token structure).
fn adaptive_buffers() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (any::<u8>(), 0usize..4096).prop_map(|(b, n)| vec![b; n]),
        proptest::collection::vec(any::<u8>(), 0..4096),
        (-1.0e3f32..1.0e3, -1.0f32..1.0, 0usize..1024).prop_map(|(base, slope, n)| {
            (0..n).flat_map(|i| (base + slope * i as f32).to_le_bytes()).collect()
        }),
        byte_buffers().prop_map(|src| Codec::Lzss.encode(&src).unwrap()),
    ]
}

/// `(sample_size, payload)` for sample sizes 1–8: samples cut from the low
/// bytes of NaN, subnormal, ±0 and arbitrary bit patterns (of `f64` and
/// `f32`), as an arbitrary, a constant or a steadily stepping sequence.
fn plane_payloads() -> impl Strategy<Value = (usize, Vec<u8>)> {
    let sample = prop_oneof![
        Just(f64::NAN.to_bits()),
        Just(u64::from(f32::NAN.to_bits())),
        Just(1u64),
        Just(0x8000_0001u64),
        Just(0u64),
        Just(1u64 << 63),
        Just(0x8000_0000u64),
        any::<u64>(),
    ];
    let samples = proptest::collection::vec(sample, 0..600);
    (1usize..=8, 0u8..3, samples, any::<u16>()).prop_map(|(size, shape, samples, step)| {
        let first = samples.first().copied().unwrap_or(0);
        let samples: Vec<u64> = match shape {
            0 => samples,
            1 => vec![first; samples.len()],
            _ => {
                (0..samples.len() as u64).map(|i| first.wrapping_add(i * u64::from(step))).collect()
            }
        };
        (size, samples.iter().flat_map(|x| x.to_le_bytes()[..size].to_vec()).collect())
    })
}

/// Offsets of each plane header in a `planes{size}` stream.
fn plane_headers(enc: &[u8], size: usize) -> Vec<usize> {
    let mut at = 0;
    (0..size)
        .map(|_| {
            let here = at;
            at += 5 + u32::from_le_bytes(enc[at + 1..at + 5].try_into().unwrap()) as usize;
            here
        })
        .collect()
}

proptest! {
    #[test]
    fn packbits_roundtrips(src in byte_buffers()) {
        let enc = Codec::PackBits.encode(&src).unwrap();
        prop_assert_eq!(Codec::PackBits.decode(&enc, src.len()).unwrap(), src);
    }

    #[test]
    fn lzss_roundtrips(src in byte_buffers()) {
        let enc = Codec::Lzss.encode(&src).unwrap();
        prop_assert_eq!(Codec::Lzss.decode(&enc, src.len()).unwrap(), src);
    }

    #[test]
    fn lz4_roundtrips(src in byte_buffers()) {
        let enc = Codec::Lz4.encode(&src).unwrap();
        prop_assert_eq!(Codec::Lz4.decode(&enc, src.len()).unwrap(), src);
    }

    #[test]
    fn shuffle_lzss_roundtrips(words in proptest::collection::vec(any::<u32>(), 0..1024)) {
        let src: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let codec = Codec::ShuffleLzss { sample_size: 4 };
        let enc = codec.encode(&src).unwrap();
        prop_assert_eq!(codec.decode(&enc, src.len()).unwrap(), src);
    }

    #[test]
    fn lzss_huff_roundtrips(words in proptest::collection::vec(any::<u32>(), 0..1024)) {
        let src: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let codec = Codec::LzssHuff { sample_size: 4 };
        let enc = codec.encode(&src).unwrap();
        prop_assert_eq!(codec.decode(&enc, src.len()).unwrap(), src);
    }

    #[test]
    fn fixedrate_error_bounded(
        values in proptest::collection::vec(-1.0e6f32..1.0e6, 1..512),
        bits in 8u8..24,
    ) {
        let codec = Codec::FixedRate { bits };
        let raw = nsdf_util::samples_to_bytes(&values);
        let enc = codec.encode(&raw).unwrap();
        let dec: Vec<f32> = nsdf_util::bytes_to_samples(&codec.decode(&enc, raw.len()).unwrap()).unwrap();
        prop_assert_eq!(dec.len(), values.len());
        for (block, dblock) in values.chunks(64).zip(dec.chunks(64)) {
            let e_max = block
                .iter()
                .filter(|v| **v != 0.0)
                .map(|v| v.abs().log2().floor() as i32)
                .max();
            let Some(e_max) = e_max else { continue };
            // Worst-case absolute error for a block whose max exponent is e_max.
            let bound = 2f64.powi(e_max + 2 - bits as i32) * 1.0001;
            for (a, b) in block.iter().zip(dblock) {
                prop_assert!(
                    ((*a as f64) - (*b as f64)).abs() <= bound,
                    "a={a} b={b} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn decoding_random_garbage_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        dst_len in 0usize..2048,
    ) {
        // Any result is fine; the property is "no panic, no OOM".
        let _ = Codec::PackBits.decode(&garbage, dst_len);
        let _ = Codec::Lzss.decode(&garbage, dst_len);
        let _ = Codec::Lz4.decode(&garbage, dst_len);
        let _ = Codec::FixedRate { bits: 12 }.decode(&garbage, dst_len.next_multiple_of(4));
    }

    #[test]
    fn already_compressed_inputs_roundtrip(src in byte_buffers()) {
        // Compressor output is high-entropy with residual token structure —
        // the adversarial middle ground between runs and pure noise. Every
        // codec must still round-trip it (typically by falling back to
        // near-stored encoding).
        let pre = Codec::Lzss.encode(&src).unwrap();
        for codec in [Codec::Raw, Codec::PackBits, Codec::Lzss, Codec::Lz4] {
            let enc = codec.encode(&pre).unwrap();
            prop_assert_eq!(codec.decode(&enc, pre.len()).unwrap(), pre.clone());
        }
        // Sample-framed codecs need a whole number of samples.
        let mut framed = pre.clone();
        framed.truncate(framed.len() / 4 * 4);
        for codec in [Codec::ShuffleLzss { sample_size: 4 }, Codec::LzssHuff { sample_size: 4 }] {
            let enc = codec.encode(&framed).unwrap();
            prop_assert_eq!(codec.decode(&enc, framed.len()).unwrap(), framed.clone());
        }
    }

    #[test]
    fn adaptive_roundtrips_adversarial(src in adaptive_buffers()) {
        // Whatever codec the selector picks, the tagged stream must decode
        // bitwise-identically — both from the selector's block and through
        // the `Codec::Adaptive` palette entry's own encode.
        let selector = AdaptiveCodec::default();
        let (enc, chosen) = selector.encode_block(&src, 4).unwrap();
        prop_assert_eq!(&TAGGED.decode(&enc, src.len()).unwrap(), &src, "chose {}", chosen);
        let codec = Codec::Adaptive { sample_size: 4 };
        let via_enum = codec.encode(&src).unwrap();
        prop_assert_eq!(codec.decode(&via_enum, src.len()).unwrap(), src);
    }

    #[test]
    fn planes_roundtrips_any_sample_width(payload in plane_payloads()) {
        let (size, src) = payload;
        let codec = Codec::Planes { sample_size: size as u8 };
        let enc = codec.encode(&src).unwrap();
        prop_assert_eq!(codec.decode(&enc, src.len()).unwrap(), src.clone());
        // Through the adaptive framing at the same width.
        let (tagged, chosen) = AdaptiveCodec::default().encode_block(&src, size as u8).unwrap();
        prop_assert!(tagged.len() <= src.len() + 1, "{} expanded", chosen);
        prop_assert_eq!(TAGGED.decode(&tagged, src.len()).unwrap(), src);
    }

    #[test]
    fn planes_rejects_ragged_lengths(
        size in 2usize..=8,
        samples in 0usize..64,
        extra in 1usize..8,
    ) {
        let extra = extra % size;
        prop_assume!(extra != 0);
        let src = vec![0x3c; samples * size + extra];
        let codec = Codec::Planes { sample_size: size as u8 };
        prop_assert!(matches!(codec.encode(&src), Err(NsdfError::InvalidArg(_))));
        let whole = codec.encode(&src[..samples * size]).unwrap();
        prop_assert!(codec.decode(&whole, src.len()).unwrap_err().is_corrupt());
    }

    #[test]
    fn forged_planes_streams_are_corrupt(
        payload in plane_payloads(),
        plane in any::<usize>(),
        mode in 3u8..=255,
        len in any::<u32>(),
        cut in any::<usize>(),
    ) {
        let (size, src) = payload;
        let codec = Codec::Planes { sample_size: size as u8 };
        let enc = codec.encode(&src).unwrap();
        let at = plane_headers(&enc, size)[plane % size];
        // An unknown plane mode.
        let mut forged = enc.clone();
        forged[at] = mode;
        prop_assert!(codec.decode(&forged, src.len()).unwrap_err().is_corrupt());
        // Any other body length, from one byte off to 4 GiB.
        let real = u32::from_le_bytes(enc[at + 1..at + 5].try_into().unwrap());
        for len in [len, real.wrapping_add(1), real.wrapping_sub(1)] {
            if len != real {
                let mut forged = enc.clone();
                forged[at + 1..at + 5].copy_from_slice(&len.to_le_bytes());
                prop_assert!(
                    codec.decode(&forged, src.len()).unwrap_err().is_corrupt(),
                    "plane at {} length {} -> {}", at, real, len
                );
            }
        }
        // Any truncation.
        let cut = cut % enc.len();
        prop_assert!(codec.decode(&enc[..cut], src.len()).unwrap_err().is_corrupt());
    }

    #[test]
    fn corrupted_tagged_headers_error_structurally(
        src in proptest::collection::vec(any::<u8>(), 4..512),
        tag in any::<u8>(),
        flip in any::<u8>(),
    ) {
        // Decoding a tagged stream whose header byte was corrupted must
        // return a structured error or a (possibly wrong) buffer — never
        // panic. Unknown tags specifically must classify as Corrupt.
        let (mut enc, _) = AdaptiveCodec::default().encode_block(&src, 4).unwrap();
        enc[0] = tag;
        // Any `Err` is a structured NsdfError by construction; reaching this
        // line at all proves no panic. Unknown tags must classify Corrupt.
        let _ = TAGGED.decode(&enc, src.len());
        if tag > 7 {
            prop_assert!(TAGGED.decode(&enc, src.len()).unwrap_err().is_corrupt());
        }
        // Truncation and payload bit-flips are equally non-fatal.
        let (enc, _) = AdaptiveCodec::default().encode_block(&src, 4).unwrap();
        let _ = TAGGED.decode(&enc[..enc.len() / 2], src.len());
        let mut flipped = enc.clone();
        let at = (flip as usize) % flipped.len();
        flipped[at] ^= 0x40;
        let _ = TAGGED.decode(&flipped, src.len());
    }
}

/// Deterministic edge inputs every codec must survive: empty, one byte,
/// and a long all-equal run (the RLE best case / LZ match-length torture).
#[test]
fn empty_and_all_equal_inputs_roundtrip_every_codec() {
    let edges: Vec<Vec<u8>> = vec![vec![], vec![0x5a], vec![0xab; 64 << 10]];
    let codecs = [
        Codec::Raw,
        Codec::PackBits,
        Codec::Lzss,
        Codec::Lz4,
        Codec::ShuffleLzss { sample_size: 1 },
        Codec::LzssHuff { sample_size: 1 },
    ];
    for src in &edges {
        for codec in codecs {
            let enc = codec.encode(src).unwrap();
            assert_eq!(
                &codec.decode(&enc, src.len()).unwrap(),
                src,
                "{codec:?} on {} bytes",
                src.len()
            );
        }
        let enc = nsdf_compress::rle::packbits_encode(src);
        assert_eq!(&nsdf_compress::rle::packbits_decode(&enc, src.len()).unwrap(), src);
    }
    // Fixed-rate: empty and all-equal float blocks reconstruct exactly
    // (a constant block needs only its shared exponent).
    let fixed = |bits| Codec::FixedRate { bits };
    let empty = fixed(12).encode(&[]).unwrap();
    assert!(fixed(12).decode(&empty, 0).unwrap().is_empty());
    let flat = nsdf_util::samples_to_bytes(&vec![3.25f32; 1024]);
    let enc = fixed(16).encode(&flat).unwrap();
    let dec: Vec<f32> =
        nsdf_util::bytes_to_samples(&fixed(16).decode(&enc, flat.len()).unwrap()).unwrap();
    let flat = vec![3.25f32; 1024];
    for (a, b) in flat.iter().zip(&dec) {
        assert!((a - b).abs() < 1e-3, "flat block reconstructs near-exactly: {a} vs {b}");
    }
}
