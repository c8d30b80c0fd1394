//! Durable metadata for the LSM engine: the manifest and the WAL batch.
//!
//! Both are human-readable text objects with an FNV-1a footer line, so a
//! torn or bit-flipped object decodes to [`NsdfError::Corrupt`] instead of
//! silently wrong state — recovery quarantines it.
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
use nsdf_util::{fnv1a64, NsdfError, Result};

const MANIFEST_MAGIC: &str = "NSDFMF01";
const WAL_MAGIC: &str = "NSDFWL01";

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
    /// FNV-1a of the full encoded object; verified on load.
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
    /// Wire-encode as checksummed text.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = String::with_capacity(64 + self.segments.len() * 64);
        body.push_str(MANIFEST_MAGIC);
        body.push('\n');
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
        finish_checksummed(body)
    }

    /// Decode and verify an encoding; torn or flipped bytes are corrupt.
    pub fn decode(buf: &[u8]) -> Result<Manifest> {
        let body = verify_checksummed(buf, "manifest")?;
        let mut lines = body.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(NsdfError::corrupt("manifest: bad magic"));
        }
        let mut m = Manifest::default();
        let field = |line: Option<&str>, name: &str| -> Result<u64> {
            let line = line.ok_or_else(|| NsdfError::corrupt("manifest: truncated header"))?;
            line.strip_prefix(name)
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| NsdfError::corrupt(format!("manifest: bad {name} line")))
        };
        m.shards = field(lines.next(), "shards ")? as u32;
        m.next_seg = field(lines.next(), "next-seg ")?;
        m.wal_floor = field(lines.next(), "wal-floor ")?;
        m.live = field(lines.next(), "live ")?;
        for line in lines {
            let rest = line
                .strip_prefix("seg ")
                .ok_or_else(|| NsdfError::corrupt(format!("manifest: bad row {line:?}")))?;
            let f: Vec<&str> = rest.split_whitespace().collect();
            if f.len() != 8 {
                return Err(NsdfError::corrupt("manifest: wrong column count"));
            }
            let num =
                |i: usize| f[i].parse::<u64>().map_err(|_| NsdfError::corrupt("manifest: bad int"));
            m.segments.push(SegmentRef {
                shard: num(0)? as u32,
                level: num(1)? as u32,
                seq: num(2)?,
                count: num(3)?,
                min_id: num(4)?,
                max_id: num(5)?,
                bytes: num(6)?,
                checksum: u64::from_str_radix(f[7], 16)
                    .map_err(|_| NsdfError::corrupt("manifest: bad checksum"))?,
            });
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
    /// Wire-encode as checksummed text.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = String::with_capacity(16 + self.ops.len() * 48);
        body.push_str(WAL_MAGIC);
        body.push('\n');
        for op in &self.ops {
            match op {
                WalOp::Put(r) => {
                    body.push_str("put ");
                    body.push_str(&r.to_line());
                }
                WalOp::Del(id) => body.push_str(&format!("del {id}")),
            }
            body.push('\n');
        }
        finish_checksummed(body)
    }

    /// Decode and verify an encoding.
    pub fn decode(buf: &[u8]) -> Result<WalBatch> {
        let body = verify_checksummed(buf, "wal batch")?;
        let mut lines = body.lines();
        if lines.next() != Some(WAL_MAGIC) {
            return Err(NsdfError::corrupt("wal batch: bad magic"));
        }
        let mut ops = Vec::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("put ") {
                ops.push(WalOp::Put(Record::from_line(rest)?));
            } else if let Some(rest) = line.strip_prefix("del ") {
                let id =
                    rest.parse().map_err(|_| NsdfError::corrupt("wal batch: bad delete id"))?;
                ops.push(WalOp::Del(id));
            } else {
                return Err(NsdfError::corrupt(format!("wal batch: bad op line {line:?}")));
            }
        }
        Ok(WalBatch { ops })
    }
}

/// Append the `fnv <digest>` footer line over `body`'s bytes.
fn finish_checksummed(mut body: String) -> Vec<u8> {
    let digest = fnv1a64(body.as_bytes());
    body.push_str(&format!("fnv {digest:016x}\n"));
    body.into_bytes()
}

/// Verify and strip the footer line; returns the body text.
fn verify_checksummed(buf: &[u8], what: &str) -> Result<String> {
    let text =
        std::str::from_utf8(buf).map_err(|_| NsdfError::corrupt(format!("{what}: not UTF-8")))?;
    let stripped = text
        .strip_suffix('\n')
        .ok_or_else(|| NsdfError::corrupt(format!("{what}: missing trailing newline")))?;
    let (body_end, footer) = stripped
        .rsplit_once('\n')
        .map(|(b, f)| (b.len() + 1, f))
        .ok_or_else(|| NsdfError::corrupt(format!("{what}: missing footer")))?;
    let want = footer
        .strip_prefix("fnv ")
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| NsdfError::corrupt(format!("{what}: bad footer line")))?;
    let body = &text[..body_end];
    if fnv1a64(body.as_bytes()) != want {
        return Err(NsdfError::corrupt(format!("{what}: checksum mismatch (torn or flipped)")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Truncation, bit flips, and footer damage are all corrupt.
        assert!(Manifest::decode(&bytes[..bytes.len() - 2]).unwrap_err().is_corrupt());
        let mut bad = bytes.clone();
        bad[20] ^= 1;
        assert!(Manifest::decode(&bad).unwrap_err().is_corrupt());
        assert!(Manifest::decode(b"").unwrap_err().is_corrupt());
        // Empty manifests (fresh tree) roundtrip too.
        let empty = Manifest { shards: 4, ..Default::default() };
        assert_eq!(Manifest::decode(&empty.encode()).unwrap(), empty);
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
        assert!(WalBatch::decode(&bytes[..bytes.len() - 1]).unwrap_err().is_corrupt());
        let mut bad = bytes.clone();
        let at = bytes.len() / 2;
        bad[at] ^= 0x10;
        assert!(WalBatch::decode(&bad).is_err());
        assert_eq!(WalBatch::decode(&WalBatch::default().encode()).unwrap().ops, vec![]);
    }
}
