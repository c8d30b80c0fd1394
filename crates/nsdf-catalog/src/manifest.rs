//! Durable metadata for the LSM engine: the manifest and the WAL batch.
//!
//! Both are human-readable text bodies in one [`nsdf_util::seal`]
//! envelope (magic `NSDFMF02` / `NSDFWL02`), so a torn or bit-flipped
//! object decodes to [`NsdfError::Corrupt`] instead of silently wrong
//! state — recovery quarantines it. The retired `NSDFMF01` / `NSDFWL01`
//! text framing, like an envelope sealed with the retired FNV-1a trailer,
//! decodes to [`NsdfError::Format`]: recovery refuses such a store and
//! deletes nothing.
//!
//! * **Manifest** (`{prefix}/manifest/mf-{seq:08}.mft`): the authoritative
//!   list of every live segment per shard and level, plus the WAL floor
//!   (lowest WAL sequence still needed for replay) and counters. Open
//!   loads the highest-numbered manifest that decodes cleanly; anything
//!   newer that is torn gets quarantined, which is exactly what makes the
//!   segment-put → manifest-swap → WAL-trim flush order crash-safe.
//! * **WAL batch** (`{prefix}/wal/w-{seq:08}.wal`): one durably-acked
//!   object per write batch. A write becomes visible to readers only after
//!   its WAL object is acked by the store, so replaying floor..next in
//!   order reproduces every acknowledged write.

use crate::record::Record;
use nsdf_util::{seal, unseal, NsdfError, Result};
use std::fmt::Write;

const MANIFEST_MAGIC: &[u8; 8] = b"NSDFMF02";
const WAL_MAGIC: &[u8; 8] = b"NSDFWL02";
/// First lines of the retired text framing of the two objects.
const RETIRED: [&[u8]; 2] = [b"NSDFMF01\n", b"NSDFWL01\n"];

/// Key of the manifest with sequence `seq`.
pub fn manifest_key(prefix: &str, seq: u64) -> String {
    format!("{prefix}/manifest/mf-{seq:08}.mft")
}

/// Key of segment `seq` belonging to `shard`.
pub(crate) fn segment_key(prefix: &str, shard: u32, seq: u64) -> String {
    format!("{prefix}/seg/s{shard:04}-{seq:08}.seg")
}

/// Key of the WAL batch with sequence `seq`.
pub(crate) fn wal_key(prefix: &str, seq: u64) -> String {
    format!("{prefix}/wal/w-{seq:08}.wal")
}

/// Extract the trailing sequence number from a key produced by the
/// functions above (the 8-digit run before the extension).
pub(crate) fn parse_seq(key: &str) -> Option<u64> {
    let stem = key.rsplit('/').next()?.rsplit_once('.')?.0;
    stem.rsplit('-').next()?.parse().ok()
}

/// One manifest row: where a segment lives and what it must contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentRef {
    /// Owning shard.
    pub shard: u32,
    /// LSM level.
    pub level: u32,
    /// Segment sequence number (names the object).
    pub seq: u64,
    /// Entry count (tombstones included).
    pub count: u64,
    /// Smallest id.
    pub min_id: u64,
    /// Largest id.
    pub max_id: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// The encoded object's [`nsdf_util::checksum64`], as its envelope
    /// trailer carries it; verified on load.
    pub checksum: u64,
}

impl SegmentRef {
    /// Store key of the referenced segment.
    pub fn key(&self, prefix: &str) -> String {
        segment_key(prefix, self.shard, self.seq)
    }
}

/// A point-in-time description of the whole tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Shard count the tree was built with (routing is not portable
    /// across shard counts, so open refuses a mismatch).
    pub shards: u32,
    /// Next unused segment sequence number.
    pub next_seg: u64,
    /// Lowest WAL sequence that must still be replayed on open.
    pub wal_floor: u64,
    /// Live record count at manifest time (WAL replay adjusts it).
    pub live: u64,
    /// Every live segment. L0 rows appear oldest→newest per shard; deeper
    /// levels appear in ascending id-range order.
    pub segments: Vec<SegmentRef>,
}

impl Manifest {
    /// Wire-encode as sealed text.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = String::with_capacity(64 + self.segments.len() * 64);
        body.push_str(&format!(
            "shards {}\nnext-seg {}\nwal-floor {}\nlive {}\n",
            self.shards, self.next_seg, self.wal_floor, self.live
        ));
        for s in &self.segments {
            body.push_str(&format!(
                "seg {} {} {} {} {} {} {} {:016x}\n",
                s.shard, s.level, s.seq, s.count, s.min_id, s.max_id, s.bytes, s.checksum
            ));
        }
        seal(MANIFEST_MAGIC, body.as_bytes())
    }

    /// Decode and verify an encoding; torn or flipped bytes, and a row
    /// naming a shard the tree does not have, are corrupt.
    pub fn decode(buf: &[u8]) -> Result<Manifest> {
        let mut lines = open_text(MANIFEST_MAGIC, buf, "manifest")?.lines();
        let mut header = |name: &str| -> Result<&str> {
            lines
                .next()
                .and_then(|line| line.strip_prefix(name))
                .ok_or_else(|| NsdfError::corrupt(format!("manifest: missing {name:?} line")))
        };
        let mut m = Manifest {
            shards: int(header("shards ")?, "manifest shards")?,
            next_seg: int(header("next-seg ")?, "manifest next-seg")?,
            wal_floor: int(header("wal-floor ")?, "manifest wal-floor")?,
            live: int(header("live ")?, "manifest live")?,
            segments: Vec::new(),
        };
        for line in lines {
            let rest = line
                .strip_prefix("seg ")
                .ok_or_else(|| NsdfError::corrupt(format!("manifest: bad row {line:?}")))?;
            let f: Vec<&str> = rest.split_whitespace().collect();
            if f.len() != 8 {
                return Err(NsdfError::corrupt("manifest: wrong column count"));
            }
            let row = SegmentRef {
                shard: int(f[0], "manifest shard")?,
                level: int(f[1], "manifest level")?,
                seq: int(f[2], "manifest seq")?,
                count: int(f[3], "manifest count")?,
                min_id: int(f[4], "manifest min id")?,
                max_id: int(f[5], "manifest max id")?,
                bytes: int(f[6], "manifest bytes")?,
                checksum: u64::from_str_radix(f[7], 16)
                    .map_err(|_| NsdfError::corrupt("manifest: bad checksum"))?,
            };
            if row.shard >= m.shards {
                return Err(NsdfError::corrupt(format!(
                    "manifest: row names shard {} of {}",
                    row.shard, m.shards
                )));
            }
            m.segments.push(row);
        }
        Ok(m)
    }
}

/// One logged write.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    /// Insert or replace a record.
    Put(Record),
    /// Delete an id.
    Del(u64),
}

/// One WAL object: a batch of writes acknowledged together.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct WalBatch {
    /// Writes in application order.
    pub ops: Vec<WalOp>,
}

impl WalBatch {
    /// Wire-encode as sealed text.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = String::with_capacity(self.ops.len() * 48);
        for op in &self.ops {
            match op {
                WalOp::Put(r) => writeln!(body, "put {r}"),
                WalOp::Del(id) => writeln!(body, "del {id}"),
            }
            .expect("writing to a String cannot fail");
        }
        seal(WAL_MAGIC, body.as_bytes())
    }

    /// Decode and verify an encoding.
    pub fn decode(buf: &[u8]) -> Result<WalBatch> {
        let mut ops = Vec::new();
        for line in open_text(WAL_MAGIC, buf, "wal batch")?.lines() {
            if let Some(rest) = line.strip_prefix("put ") {
                ops.push(WalOp::Put(Record::from_line(rest)?));
            } else if let Some(rest) = line.strip_prefix("del ") {
                ops.push(WalOp::Del(int(rest, "wal batch delete id")?));
            } else {
                return Err(NsdfError::corrupt(format!("wal batch: bad op line {line:?}")));
            }
        }
        Ok(WalBatch { ops })
    }
}

/// The text body of a sealed `what` under `magic`. Damage is corrupt; an
/// object in the retired text framing (magic line · body · `fnv` footer
/// line) is a format error, so recovery refuses the store rather than
/// quarantine a catalog it cannot read.
fn open_text<'a>(magic: &[u8; 8], buf: &'a [u8], what: &str) -> Result<&'a str> {
    if RETIRED.iter().any(|line| buf.starts_with(line)) {
        return Err(NsdfError::format(format!(
            "{what}: retired {:?} framing; this build reads only {:?}",
            String::from_utf8_lossy(&buf[..8]),
            String::from_utf8_lossy(magic)
        )));
    }
    let body = unseal(magic, buf)?;
    std::str::from_utf8(body).map_err(|_| NsdfError::corrupt(format!("{what}: not UTF-8")))
}

/// `text` as a `T`; anything else, out-of-range numbers included, is
/// corrupt.
fn int<T: std::str::FromStr>(text: &str, what: &str) -> Result<T> {
    text.parse()
        .map_err(|_| NsdfError::corrupt(format!("{what}: {text:?} is not a number in range")))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `body` in the retired text framing: `magic_line`, the body, and an
    /// `fnv <digest>` footer line over both.
    pub(crate) fn retired_framing(magic_line: &str, body: &str) -> Vec<u8> {
        let text = format!("{magic_line}\n{body}");
        format!("{text}fnv {:016x}\n", nsdf_util::fnv1a64(text.as_bytes())).into_bytes()
    }

    /// Every single-byte flip (masks `0x01`, `0x80`, `0xff`) and every
    /// proper prefix of `bytes` is corrupt under `decode`.
    fn assert_every_flip_and_cut_is_corrupt<T: std::fmt::Debug>(
        bytes: &[u8],
        decode: impl Fn(&[u8]) -> Result<T>,
    ) {
        for i in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut bad = bytes.to_vec();
                bad[i] ^= mask;
                assert!(decode(&bad).unwrap_err().is_corrupt(), "flip {mask:#x} at {i}");
            }
        }
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).unwrap_err().is_corrupt(), "prefix {len}");
        }
    }

    /// `body` with `from` replaced by `to` (which must occur), resealed
    /// under `magic`: a forgery the checksum cannot catch.
    fn reseal(magic: &[u8; 8], body: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let at = body.windows(from.len()).position(|w| w == from).expect("pattern present");
        let forged = [&body[..at], to, &body[at + from.len()..]].concat();
        seal(magic, &forged)
    }

    #[test]
    fn key_naming_and_seq_parse() {
        assert_eq!(manifest_key("cat", 7), "cat/manifest/mf-00000007.mft");
        assert_eq!(segment_key("cat", 3, 12), "cat/seg/s0003-00000012.seg");
        assert_eq!(wal_key("cat", 0), "cat/wal/w-00000000.wal");
        for key in [manifest_key("c", 42), segment_key("c", 9, 42), wal_key("c", 42)] {
            assert_eq!(parse_seq(&key), Some(42), "{key}");
            nsdf_storage::validate_key(&key).unwrap();
        }
        assert_eq!(parse_seq("junk"), None);
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let m = Manifest {
            shards: 8,
            next_seg: 17,
            wal_floor: 9,
            live: 12345,
            segments: vec![
                SegmentRef {
                    shard: 0,
                    level: 0,
                    seq: 3,
                    count: 10,
                    min_id: 1,
                    max_id: 99,
                    bytes: 640,
                    checksum: 0xDEAD,
                },
                SegmentRef {
                    shard: 7,
                    level: 2,
                    seq: 16,
                    count: 1000,
                    min_id: 5,
                    max_id: 12_000,
                    bytes: 64_000,
                    checksum: 0xBEEF,
                },
            ],
        };
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        // Every truncation and every flipped byte is corrupt.
        assert_every_flip_and_cut_is_corrupt(&bytes, Manifest::decode);
        // So is every resealed body that does not parse to a manifest the
        // tree can hold: non-UTF-8, a non-numeric field, a missing header
        // line, a wrong column count, a row naming a shard past `shards`
        // (the tree has 8), and a shard count or level past `u32`.
        let body = unseal(MANIFEST_MAGIC, &bytes).unwrap();
        for (from, to) in [
            (&b"live 12345"[..], &b"live 12\xff45"[..]),
            (b"live 12345", b"live 12x45"),
            (b"wal-floor 9\n", b""),
            (b" 64000 ", b" "),
            (b"seg 7 2", b"seg 8 2"),
            (b"seg 7 2", b"seg 4294967296 2"),
            (b"seg 7 2", b"seg 7 4294967298"),
            (b"shards 8", b"shards 4294967304"),
        ] {
            let forged = reseal(MANIFEST_MAGIC, body, from, to);
            let err = Manifest::decode(&forged).unwrap_err();
            assert!(
                err.is_corrupt(),
                "{:?} -> {:?}: {err}",
                from.escape_ascii(),
                to.escape_ascii()
            );
        }
        // The retired text framing is refused as a format, not as damage.
        let text = std::str::from_utf8(body).unwrap();
        let retired = retired_framing("NSDFMF01", text);
        assert!(matches!(Manifest::decode(&retired), Err(NsdfError::Format(_))));
        // Empty manifests (fresh tree) roundtrip too, 14 bytes smaller
        // than in the retired framing.
        let empty = Manifest { shards: 4, ..Default::default() };
        let bytes = empty.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), empty);
        let text = std::str::from_utf8(unseal(MANIFEST_MAGIC, &bytes).unwrap()).unwrap();
        assert_eq!(retired_framing("NSDFMF01", text).len(), bytes.len() + 14);
    }

    #[test]
    fn wal_batch_roundtrip_and_corruption() {
        let b = WalBatch {
            ops: vec![
                WalOp::Put(Record::new(5, "a/b", "src", 10, 0xAB).unwrap()),
                WalOp::Del(5),
                WalOp::Put(Record::new(6, "c", "src", 11, 0xCD).unwrap()),
            ],
        };
        let bytes = b.encode();
        assert_eq!(WalBatch::decode(&bytes).unwrap(), b);
        // Every truncation and every flipped byte is corrupt.
        assert_every_flip_and_cut_is_corrupt(&bytes, WalBatch::decode);
        // So is every resealed body that does not parse: non-UTF-8, a
        // non-numeric id, a put line with a column missing or one too
        // many, and an unknown op.
        let body = unseal(WAL_MAGIC, &bytes).unwrap();
        for (from, to) in [
            (&b"del 5"[..], &b"del \xc3"[..]),
            (b"del 5", b"del five"),
            (b"put 5 ", b"put x5 "),
            (b"put 6 src 11 c", b"put 6 src c"),
            (b"put 6 src 11 c", b"put 6 src 11 c d"),
            (b"del 5", b"get 5"),
        ] {
            let forged = reseal(WAL_MAGIC, body, from, to);
            let err = WalBatch::decode(&forged).unwrap_err();
            assert!(
                err.is_corrupt(),
                "{:?} -> {:?}: {err}",
                from.escape_ascii(),
                to.escape_ascii()
            );
        }
        // The retired text framing is refused as a format, not as damage,
        // and an empty batch roundtrips.
        let retired = retired_framing("NSDFWL01", std::str::from_utf8(body).unwrap());
        assert!(matches!(WalBatch::decode(&retired), Err(NsdfError::Format(_))));
        assert_eq!(WalBatch::decode(&WalBatch::default().encode()).unwrap().ops, vec![]);
    }
}
