//! Immutable sorted segments — the on-store representation of the LSM tree.
//!
//! A segment is one sorted run of `(id, entry)` pairs flushed from a
//! memtable or produced by compaction, stored as one [`nsdf_util::seal`]
//! envelope under magic `NSDFSG01` around a columnar body:
//!
//! ```text
//! level u32 · count u64 · min u64 · max u64
//! bloom (k u32 · words u32 · bit words)
//! ids      count × u64          (sorted, strictly increasing)
//! flags    count × u8           (0 = record, 1 = tombstone)
//! offsets  (count+1) × u32      (into payload)
//! payload_len u64 · payload     (packed record bodies)
//! ```
//!
//! The columnar split keeps the resident form compact (ids and bodies live
//! in two flat buffers; a read sees a body through a checked, borrowed
//! [`RecordRef`], a name or source query slices its text straight from the
//! body, and compaction copies it as bytes). A point lookup passes the
//! bloom filter, then searches a fence index: every 64th id, derived from
//! the id column by [`Segment::decode`] and `SegmentBuilder::finish` and
//! never stored, picks the one 64-id window a binary search then covers.
//! [`Segment::decode`] refuses a torn or bit-flipped envelope, or a body
//! that does not parse, with a [`NsdfError::Corrupt`], which is what lets
//! recovery quarantine damage instead of serving it.

use crate::bloom::Bloom;
use crate::engine::BITS_PER_KEY;
use crate::record::{Record, RecordRef};
use nsdf_util::{seal, unseal, NsdfError, Result};

const MAGIC: &[u8; 8] = b"NSDFSG01";

/// Ids per fence window: `fences[w]` is `ids[w * FENCE]`.
const FENCE: usize = 64;

/// The fence index of a sorted id column.
fn fences(ids: &[u64]) -> Vec<u64> {
    ids.iter().step_by(FENCE).copied().collect()
}

/// One immutable sorted run, resident in memory, durable on the store.
#[derive(Debug, Clone)]
pub struct Segment {
    level: u32,
    ids: Vec<u64>,
    /// Every `FENCE`-th id, derived from `ids` (not stored).
    fences: Vec<u64>,
    flags: Vec<u8>,
    offsets: Vec<u32>,
    payload: Vec<u8>,
    bloom: Bloom,
    encoded_bytes: u64,
}

impl Segment {
    /// Level this segment currently sits on.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Entries stored (tombstones included).
    pub fn count(&self) -> usize {
        self.ids.len()
    }

    /// Smallest id.
    pub(crate) fn min_id(&self) -> u64 {
        self.ids[0]
    }

    /// Largest id.
    pub(crate) fn max_id(&self) -> u64 {
        *self.ids.last().expect("segments are never empty")
    }

    /// Size of the wire encoding in bytes.
    pub(crate) fn encoded_bytes(&self) -> u64 {
        self.encoded_bytes
    }

    /// The segment's bloom filter.
    pub(crate) fn bloom(&self) -> &Bloom {
        &self.bloom
    }

    /// True when `id` falls inside this segment's key range.
    pub(crate) fn covers(&self, id: u64) -> bool {
        id >= self.min_id() && id <= self.max_id()
    }

    /// Sorted id column.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// True when entry `i` is a tombstone.
    pub(crate) fn is_tombstone(&self, i: usize) -> bool {
        self.flags[i] == 1
    }

    /// Encoded body of entry `i`, `None` for a tombstone.
    fn body(&self, i: usize) -> Option<&[u8]> {
        let body = &self.payload[self.offsets[i] as usize..self.offsets[i + 1] as usize];
        (!self.is_tombstone(i)).then_some(body)
    }

    /// Content checksum of entry `i` without parsing the body — `None` for
    /// tombstones. The merge's dedup accounting peeks this.
    pub(crate) fn checksum_at(&self, i: usize) -> Option<u64> {
        let body = self.body(i)?;
        Some(u64::from_le_bytes(body[8..16].try_into().expect("bodies hold 16 fixed bytes")))
    }

    /// Entry `i` viewed in place: its record, `None` for a tombstone.
    pub(crate) fn record_at(&self, i: usize) -> Result<Option<RecordRef<'_>>> {
        self.body(i).map(|body| RecordRef::parse(self.ids[i], body)).transpose()
    }

    /// Name and source of entry `i`, sliced from its body unchecked (every
    /// body parsed when the segment was built or decoded); `None` for a
    /// tombstone.
    pub(crate) fn texts_at(&self, i: usize) -> Option<(&[u8], &[u8])> {
        let body = self.body(i)?;
        let (name, rest) = body[18..].split_at(u16::from_le_bytes([body[16], body[17]]) as usize);
        Some((name, &rest[2..]))
    }

    /// Position of `id` in the id column: the fence index picks its
    /// window, a binary search finds it there.
    pub fn position(&self, id: u64) -> Option<usize> {
        let start = FENCE * self.fences.partition_point(|&f| f <= id).checked_sub(1)?;
        let window = &self.ids[start..self.ids.len().min(start + FENCE)];
        window.binary_search(&id).ok().map(|i| start + i)
    }

    /// Length of the envelope's body (see the layout in the module docs).
    fn body_len(&self) -> usize {
        28 + self.bloom.encoded_len() + 13 * self.ids.len() + 12 + self.payload.len()
    }

    /// Wire-encode (see module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body_len());
        out.extend_from_slice(&self.level.to_le_bytes());
        out.extend_from_slice(&(self.ids.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.min_id().to_le_bytes());
        out.extend_from_slice(&self.max_id().to_le_bytes());
        self.bloom.encode_into(&mut out);
        for id in &self.ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(&self.flags);
        for off in &self.offsets {
            out.extend_from_slice(&off.to_le_bytes());
        }
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        seal(MAGIC, &out)
    }

    /// Decode and verify a wire encoding. Any truncation, bit flip,
    /// structural inconsistency or body that does not parse (a tombstone's
    /// must be empty) yields [`NsdfError::Corrupt`]; no column is
    /// allocated before the bytes it sizes are known to be present, since
    /// the checksum is no defence against a forged count.
    pub fn decode(buf: &[u8]) -> Result<Segment> {
        let corrupt = |what: &str| NsdfError::corrupt(format!("segment: {what}"));
        let body = unseal(MAGIC, buf)?;
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let end = pos.checked_add(n).filter(|&e| e <= body.len());
            let end = end.ok_or_else(|| corrupt("truncated"))?;
            let s = &body[*pos..end];
            *pos = end;
            Ok(s)
        };
        // Bytes of a `count`-long column of `width`-byte cells.
        let column = |count: usize, width: usize| {
            count.checked_mul(width).ok_or_else(|| corrupt("count out of range"))
        };
        let level = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4"));
        let count = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8"));
        let count = usize::try_from(count).map_err(|_| corrupt("count out of range"))?;
        if count == 0 {
            return Err(corrupt("empty segment"));
        }
        let min = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8"));
        let max = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8"));
        let bloom = Bloom::decode_from(body, &mut pos)?;
        let ids: Vec<u64> = take(&mut pos, column(count, 8)?)?
            .chunks_exact(8)
            .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("8")))
            .collect();
        if ids[0] != min || *ids.last().expect("non-empty") != max {
            return Err(corrupt("id range disagrees with header"));
        }
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt("ids not strictly sorted"));
        }
        let flags = take(&mut pos, count)?.to_vec();
        if flags.iter().any(|&f| f > 1) {
            return Err(corrupt("bad entry flag"));
        }
        let offsets: Vec<u32> = take(&mut pos, column(count.saturating_add(1), 4)?)?
            .chunks_exact(4)
            .map(|chunk| u32::from_le_bytes(chunk.try_into().expect("4")))
            .collect();
        let payload_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8")) as usize;
        let payload = take(&mut pos, payload_len)?.to_vec();
        if pos != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        if offsets[0] != 0
            || *offsets.last().expect("non-empty") as usize != payload.len()
            || !offsets.windows(2).all(|w| w[0] <= w[1])
        {
            return Err(corrupt("offset table inconsistent"));
        }
        let seg = Segment {
            level,
            fences: fences(&ids),
            ids,
            flags,
            offsets,
            payload,
            bloom,
            encoded_bytes: buf.len() as u64,
        };
        for i in 0..count {
            if seg.is_tombstone(i) && seg.offsets[i] != seg.offsets[i + 1] {
                return Err(corrupt("tombstone with a body"));
            }
            seg.record_at(i)?;
        }
        Ok(seg)
    }
}

/// Builds a segment from entries pushed in strictly increasing id order.
#[derive(Debug)]
pub(crate) struct SegmentBuilder {
    level: u32,
    ids: Vec<u64>,
    flags: Vec<u8>,
    offsets: Vec<u32>,
    payload: Vec<u8>,
}

impl SegmentBuilder {
    /// Builder for a segment destined for `level`.
    pub fn new(level: u32) -> Self {
        SegmentBuilder {
            level,
            ids: Vec::new(),
            flags: Vec::new(),
            offsets: vec![0],
            payload: Vec::new(),
        }
    }

    /// Append one entry; ids must arrive strictly increasing.
    pub fn push(&mut self, id: u64, entry: Option<&Record>) -> Result<()> {
        self.append(id, |payload| entry.map_or(Ok(()), |r| r.encode_body(payload)))
    }

    /// Append entry `i` of `seg` under `id`: its body, once it parses.
    pub(crate) fn push_from(&mut self, id: u64, seg: &Segment, i: usize) -> Result<()> {
        self.append(id, |payload| {
            if let Some(body) = seg.body(i) {
                RecordRef::parse(id, body)?;
                payload.extend_from_slice(body);
            }
            Ok(())
        })
    }

    /// Append entry `id` with the body `write` adds to the payload: none
    /// for a tombstone, since a record's body is never empty.
    fn append(&mut self, id: u64, write: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<()> {
        if let Some(&last) = self.ids.last() {
            if id <= last {
                return Err(NsdfError::invalid(format!(
                    "segment builder: id {id} out of order after {last}"
                )));
            }
        }
        let start = self.payload.len();
        write(&mut self.payload)?;
        self.ids.push(id);
        self.flags.push((self.payload.len() == start) as u8);
        if self.payload.len() > u32::MAX as usize {
            return Err(NsdfError::invalid("segment payload exceeds 4 GiB"));
        }
        self.offsets.push(self.payload.len() as u32);
        Ok(())
    }

    /// Entries pushed so far.
    pub fn count(&self) -> usize {
        self.ids.len()
    }

    /// Approximate encoded size so far (for target-size splitting).
    pub fn approx_bytes(&self) -> u64 {
        (self.payload.len() + self.ids.len() * 13) as u64
    }

    /// Finish into an immutable segment; `None` when nothing was pushed.
    pub fn finish(self) -> Option<Segment> {
        if self.ids.is_empty() {
            return None;
        }
        let bloom = Bloom::build(&self.ids, BITS_PER_KEY);
        let mut seg = Segment {
            level: self.level,
            fences: fences(&self.ids),
            ids: self.ids,
            flags: self.flags,
            offsets: self.offsets,
            payload: self.payload,
            bloom,
            encoded_bytes: 0,
        };
        seg.encoded_bytes = seg.body_len() as u64 + 16;
        debug_assert_eq!(seg.encoded_bytes, seg.encode().len() as u64);
        Some(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> Record {
        Record::new(id, format!("ds/obj-{id:05}"), "repo", id * 3, id ^ 0xC0FFEE).unwrap()
    }

    fn build(ids: &[u64], tombstones: &[u64]) -> Segment {
        let mut b = SegmentBuilder::new(1);
        let mut all: Vec<u64> = ids.iter().chain(tombstones).copied().collect();
        all.sort_unstable();
        for id in all {
            if tombstones.contains(&id) {
                b.push(id, None).unwrap();
            } else {
                b.push(id, Some(&rec(id))).unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_and_lookup() {
        let seg = build(&[2, 5, 9, 11], &[7]);
        let bytes = seg.encode();
        let back = Segment::decode(&bytes).unwrap();
        assert_eq!(back.count(), 5);
        assert_eq!((back.min_id(), back.max_id()), (2, 11));
        assert_eq!(back.level(), 1);
        assert_eq!(back.encoded_bytes(), bytes.len() as u64);
        let i = back.position(9).unwrap();
        assert_eq!(back.record_at(i).unwrap().map(RecordRef::to_owned), Some(rec(9)));
        let t = back.position(7).unwrap();
        assert_eq!(back.record_at(t).unwrap(), None);
        assert!(back.position(8).is_none());
        assert!(back.covers(8) && !back.covers(1) && !back.covers(12));
        // Bloom admits every stored id.
        for &id in back.ids() {
            assert!(back.bloom().contains(id));
        }
    }

    #[test]
    fn out_of_order_push_rejected() {
        let mut b = SegmentBuilder::new(0);
        b.push(5, Some(&rec(5))).unwrap();
        assert!(b.push(5, Some(&rec(5))).is_err());
        assert!(b.push(3, None).is_err());
        assert!(SegmentBuilder::new(0).finish().is_none());
    }

    #[test]
    fn torn_and_flipped_encodings_are_corrupt() {
        let bytes = build(&(0..200).map(|i| i * 2).collect::<Vec<_>>(), &[]).encode();
        for cut in [0, 7, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(Segment::decode(&bytes[..cut]).unwrap_err().is_corrupt(), "cut {cut}");
        }
        for flip in [9, 100, bytes.len() - 3] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x40;
            assert!(Segment::decode(&bad).unwrap_err().is_corrupt(), "flip {flip}");
        }
        assert!(Segment::decode(&bytes).is_ok());
    }

    #[test]
    fn segment_bytes_are_pinned() {
        // The envelope is the layout segments had before `seal` framed
        // them, with a `checksum64` trailer: this digest pins both.
        let bytes = build(&[2, 5, 9, 11], &[7]).encode();
        assert_eq!(bytes.len(), 281);
        assert_eq!(nsdf_util::fnv1a64(&bytes), 0xc13d_d4b9_6de6_fbb0);
    }

    /// `bytes` with the little-endian `value` written at body offset `at`
    /// and resealed — a forgery the checksum cannot catch.
    fn forge(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
        let mut body = unseal(MAGIC, bytes).unwrap().to_vec();
        body[at..at + value.len()].copy_from_slice(value);
        seal(MAGIC, &body)
    }

    #[test]
    fn forged_counts_are_corrupt_not_allocated() {
        let bytes = build(&[2, 5, 9, 11], &[7]).encode();
        // The entry count sits after the level; the bloom's word count
        // after the 24-byte count/min/max header and its `k`.
        for count in [u64::MAX, u64::MAX / 4, 1 << 40, 6] {
            let forged = forge(&bytes, 4, &count.to_le_bytes());
            assert!(Segment::decode(&forged).unwrap_err().is_corrupt(), "count {count}");
        }
        for words in [u32::MAX, 1 << 28] {
            let forged = forge(&bytes, 4 + 24 + 4, &words.to_le_bytes());
            assert!(Segment::decode(&forged).unwrap_err().is_corrupt(), "bloom words {words}");
        }
    }

    #[test]
    fn a_tombstone_with_a_body_is_corrupt() {
        let seg = build(&[2, 5, 9, 11], &[7]);
        // Flag entry 0 (id 2, which has a body) as a tombstone.
        let flags = 28 + seg.bloom().encoded_len() + 8 * seg.count();
        let forged = forge(&seg.encode(), flags, &[1]);
        assert!(Segment::decode(&forged).unwrap_err().is_corrupt());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn finish_counts_the_bytes_encode_writes(
            entries in proptest::collection::vec((proptest::prelude::any::<bool>(), 0usize..4), 1..12),
            all_tombstones in proptest::prelude::any::<bool>(),
        ) {
            let mut b = SegmentBuilder::new(3);
            for (id, &(tombstone, len)) in (0u64..).zip(&entries) {
                let name = "n".repeat([1, 9, 300, u16::MAX as usize][len]);
                let record = Record::new(id, name, "repo", id, id).unwrap();
                b.push(id, (!tombstone && !all_tombstones).then_some(&record)).unwrap();
            }
            let seg = b.finish().unwrap();
            proptest::prop_assert_eq!(seg.encoded_bytes(), seg.encode().len() as u64);
        }

        #[test]
        fn fenced_position_matches_a_binary_search(
            gaps in proptest::collection::vec(1u64..4, 1..=300),
        ) {
            // Ids from 5 up with gaps of 1..=3, so most have absent
            // neighbours; both resident forms carry their own fences.
            let ids: Vec<u64> = gaps.iter().scan(4, |id, gap| { *id += gap; Some(*id) }).collect();
            let built = build(&ids, &[]);
            let decoded = Segment::decode(&built.encode()).unwrap();
            let fence_ids = ids.iter().step_by(FENCE);
            let probes = ids.iter().flat_map(|&id| [id - 1, id, id + 1]).chain(fence_ids.copied());
            for id in probes.chain([0, u64::MAX]) {
                let want = ids.binary_search(&id).ok();
                proptest::prop_assert_eq!(built.position(id), want, "built, id {}", id);
                proptest::prop_assert_eq!(decoded.position(id), want, "decoded, id {}", id);
            }
        }
    }
}
