//! Content checksums, key digests and seed derivation.
//!
//! [`checksum64`] (XXH64) checks payload integrity: the [`seal`] trailer,
//! store checksums, the integrity layer and workflow artifacts. [`fnv1a64`]
//! / [`Fnv1a`] digest keys, seeds and pinned fingerprints, whose values
//! must not move. Neither is cryptographic, which the simulation does not
//! need. `splitmix64` and `derive_seed` give every stochastic component an
//! independent, documented stream from one experiment master seed.
//! [`seal`] / [`unseal`] frame every persisted object (IDX blocks, catalog
//! segments, manifests and WAL batches, tier-cache shards) so its checksum
//! travels with its bytes.

use crate::error::{NsdfError, Result};

/// FNV-1a 64-bit hash of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv1a::new().update(bytes).digest()
}

/// Incremental FNV-1a 64-bit hasher.
///
/// Streaming counterpart of [`fnv1a64`] for callers that fingerprint
/// several pieces (DAG task inputs, scheduler traces) without
/// concatenating them into one buffer first. Feeding the same
/// bytes in any split produces the same digest as [`fnv1a64`] over the
/// concatenation.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `bytes` into the running digest.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Current digest (the hasher stays usable).
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// XXH64 (seed 0) of a byte slice, per the published xxHash
/// specification: four lanes absorb 32-byte stripes eight bytes at a
/// time, then the tail is folded in by 8-, 4- and 1-byte steps and the
/// result avalanched. The content checksum of every stored payload.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;
    let round = |acc: u64, lane: u64| {
        acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
    };
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
    let mut stripes = bytes.chunks_exact(32);
    let mut acc = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (v, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *v = round(*v, word(lane));
            }
        }
        let acc = (v[0].rotate_left(1))
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(acc, |acc, &v| (acc ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4))
    } else {
        P5
    };
    acc = acc.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for lane in &mut words {
        acc = (acc ^ round(0, word(lane))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        let lane = u32::from_le_bytes(*half) as u64;
        acc = (acc ^ lane.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = rest;
    }
    for &b in tail {
        acc = (acc ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    acc = (acc ^ (acc >> 33)).wrapping_mul(P2);
    acc = (acc ^ (acc >> 29)).wrapping_mul(P3);
    acc ^ (acc >> 32)
}

/// Frame `body` as one self-verifying envelope,
/// `magic · body · checksum64(magic · body)` (digest little-endian): 16
/// bytes of overhead. `magic` starts with `NSDF`.
pub fn seal(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    debug_assert!(magic.starts_with(b"NSDF"), "{magic:?}: see `is_sealed`");
    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(magic);
    out.extend_from_slice(body);
    let digest = checksum64(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// The body of a [`seal`]ed envelope under `magic`, borrowed from `bytes`.
/// A wrong magic, a truncation or any damaged byte is
/// [`NsdfError::Corrupt`]; nothing is allocated. A trailer that is the
/// retired FNV-1a digest is [`NsdfError::Format`]: an object an older
/// build wrote, not damage, so no caller quarantines it.
pub fn unseal<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8]> {
    if !bytes.starts_with(magic) {
        return Err(NsdfError::corrupt(format!("envelope: magic is not {magic:?}")));
    }
    envelope_body(bytes).ok_or_else(|| match split_envelope(bytes) {
        Some((framed, digest)) if fnv1a64(framed) == digest => NsdfError::format(format!(
            "envelope {:?}: sealed with the retired FNV-1a trailer; this build reads XXH64",
            String::from_utf8_lossy(magic)
        )),
        _ => NsdfError::corrupt("envelope: checksum mismatch"),
    })
}

/// True when `bytes` is an intact envelope under any `NSDF` magic: what a
/// layer that does not know the magic (a checksum verifier) can check.
pub fn is_sealed(bytes: &[u8]) -> bool {
    envelope_body(bytes).is_some()
}

/// The [`checksum64`] a [`seal`]ed envelope carries: its trailer, the
/// checksum of everything before it, read in O(1). Only for an envelope
/// already [`seal`]ed or [`unseal`]ed: on any other bytes the result
/// means nothing.
pub fn sealed_checksum(envelope: &[u8]) -> u64 {
    u64::from_le_bytes(*envelope.last_chunk().expect("an envelope ends in its 8-byte digest"))
}

/// `bytes` as `(magic · body, trailer)`, when long enough and `NSDF`.
fn split_envelope(bytes: &[u8]) -> Option<(&[u8], u64)> {
    if bytes.len() < 16 || !bytes.starts_with(b"NSDF") {
        return None;
    }
    let (framed, digest) = bytes.split_at(bytes.len() - 8);
    Some((framed, u64::from_le_bytes(digest.try_into().expect("8 bytes"))))
}

fn envelope_body(bytes: &[u8]) -> Option<&[u8]> {
    let (framed, digest) = split_envelope(bytes)?;
    (checksum64(framed) == digest).then(|| &framed[8..])
}

/// One step of the SplitMix64 generator; a strong 64→64 bit mixer.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive a child seed from a master seed and a component label, so e.g.
/// the DEM generator and the WAN jitter draw from unrelated streams even
/// when the experiment uses a single `--seed`.
pub fn derive_seed(master: u64, label: &str) -> u64 {
    splitmix64(master ^ fnv1a64(label.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn checksum64_known_vectors() {
        // XXH64, seed 0; the last input crosses the 32-byte stripe loop.
        assert_eq!(checksum64(b""), 0xef46db3751d8e999);
        assert_eq!(checksum64(b"a"), 0xd24ec4f1a98c6e5b);
        assert_eq!(checksum64(b"as"), 0x1c330fb2d66be179);
        assert_eq!(checksum64(b"asd"), 0x631c37ce72a97393);
        assert_eq!(checksum64(b"asdf"), 0x415872f599cea71e);
        let ishmael = b"Call me Ishmael. Some years ago--never mind how long precisely-";
        assert_eq!(ishmael.len(), 63, "one stripe, three words, a half-word and three bytes");
        assert_eq!(checksum64(ishmael), 0x02a2e85470d6fd96);
    }

    #[test]
    fn fnv_differs_on_small_changes() {
        assert_ne!(fnv1a64(b"block-0"), fnv1a64(b"block-1"));
    }

    #[test]
    fn incremental_fnv_matches_one_shot_under_any_split() {
        let data = b"log-structured merge segments";
        for split in [0, 1, 7, data.len()] {
            let mut h = Fnv1a::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.digest(), fnv1a64(data), "split at {split}");
        }
        assert_eq!(Fnv1a::new().digest(), fnv1a64(b""));
    }

    const MAGIC: &[u8; 8] = b"NSDFXX01";

    #[test]
    fn sealed_bodies_roundtrip() {
        for body in [&b""[..], b"x", b"block payload bytes"] {
            let sealed = seal(MAGIC, body);
            assert_eq!(sealed.len(), body.len() + 16);
            assert!(is_sealed(&sealed));
            assert_eq!(unseal(MAGIC, &sealed).unwrap(), body);
        }
    }

    #[test]
    fn every_flip_and_truncation_of_an_envelope_is_corrupt() {
        let sealed = seal(MAGIC, b"sixteen-ish body");
        for i in 0..sealed.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bad = sealed.clone();
                bad[i] ^= flip;
                assert!(!is_sealed(&bad), "flip {flip:#x} at {i}");
                assert!(unseal(MAGIC, &bad).unwrap_err().is_corrupt(), "flip {flip:#x} at {i}");
            }
        }
        // Every proper prefix, lengths 0..=16 included.
        for len in 0..sealed.len() {
            assert!(!is_sealed(&sealed[..len]), "prefix {len}");
            assert!(unseal(MAGIC, &sealed[..len]).unwrap_err().is_corrupt(), "prefix {len}");
        }
    }

    #[test]
    fn a_wrong_magic_is_corrupt_even_when_intact() {
        let other = seal(b"NSDFYY01", b"body");
        assert!(is_sealed(&other));
        assert!(unseal(MAGIC, &other).unwrap_err().is_corrupt());
        // Outside the NSDF family nothing is an envelope.
        let mut foreign = b"ABCDXX01body".to_vec();
        foreign.extend_from_slice(&checksum64(&foreign).to_le_bytes());
        assert!(!is_sealed(&foreign));
    }

    #[test]
    fn a_retired_fnv_trailer_is_a_format_error_and_its_damage_corrupt() {
        let body = b"sealed by an older build";
        let mut retired = MAGIC.to_vec();
        retired.extend_from_slice(body);
        retired.extend_from_slice(&fnv1a64(&retired).to_le_bytes());
        assert_eq!(retired.len(), seal(MAGIC, body).len());
        assert!(!is_sealed(&retired));
        let err = unseal(MAGIC, &retired).unwrap_err();
        assert!(matches!(err, NsdfError::Format(_)), "{err}");
        // Damage to such an envelope fails both digests.
        for i in 0..retired.len() {
            let mut bad = retired.clone();
            bad[i] ^= 0x01;
            assert!(unseal(MAGIC, &bad).unwrap_err().is_corrupt(), "flip at {i}");
        }
    }

    proptest::proptest! {
        #[test]
        fn the_digest_of_an_envelope_is_read_off_its_trailer(
            tag in proptest::prelude::any::<u32>(),
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
        ) {
            let mut magic = *b"NSDF0000";
            magic[4..].copy_from_slice(&tag.to_le_bytes());
            for body in [&body[..], b""] {
                let sealed = seal(&magic, body);
                let framed = &sealed[..sealed.len() - 8];
                proptest::prop_assert_eq!(sealed_checksum(&sealed), checksum64(framed));
            }
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Should not be the identity.
        assert_ne!(splitmix64(42), 42);
    }

    #[test]
    fn derive_seed_separates_labels() {
        let a = derive_seed(7, "dem");
        let b = derive_seed(7, "wan");
        let c = derive_seed(8, "dem");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(7, "dem"));
    }
}
