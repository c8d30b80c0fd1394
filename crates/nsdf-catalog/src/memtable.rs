//! The mutable in-memory tier of the LSM engine.
//!
//! One memtable per shard: a sorted map from record id to the newest write
//! for that id — a live record or a tombstone. Because the map is sorted,
//! flushing is a straight iteration into an immutable sorted segment with
//! no extra sort pass. It is the newest of the shard's runs (this memtable,
//! then L0 newest→oldest, then each deeper level as one chained run): a
//! full scan hands it to the newest-wins merge (`compact::merge`) first, a
//! point lookup (`ShardState::newest`) probes it first, and a name or
//! source query returns its matches as they are, since nothing shadows them.

use crate::record::Record;
use std::collections::{btree_map, BTreeMap};

/// The newest write for one id.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// Live record.
    Put(Record),
    /// Deletion marker; shadows older segment versions until compaction
    /// drops both at the bottom level.
    Tombstone,
}

impl Entry {
    /// The live record, if this entry is one.
    pub fn record(&self) -> Option<&Record> {
        match self {
            Entry::Put(r) => Some(r),
            Entry::Tombstone => None,
        }
    }

    /// Approximate in-memory footprint for budgeting.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Entry::Put(r) => r.approx_bytes(),
            Entry::Tombstone => 16,
        }
    }
}

/// Sorted mutable buffer of the newest writes for one shard.
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    map: BTreeMap<u64, Entry>,
    approx_bytes: usize,
}

impl Memtable {
    /// Empty memtable.
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Record a write; returns the entry it replaced, if any.
    pub fn insert(&mut self, id: u64, entry: Entry) -> Option<Entry> {
        self.approx_bytes += 8 + entry.approx_bytes();
        let old = self.map.insert(id, entry);
        if let Some(old) = &old {
            self.approx_bytes -= 8 + old.approx_bytes();
        }
        old
    }

    /// The newest write for `id`, if this memtable has one.
    pub fn get(&self, id: u64) -> Option<&Entry> {
        self.map.get(&id)
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Sorted iteration over buffered writes.
    pub fn iter(&self) -> btree_map::Iter<'_, u64, Entry> {
        self.map.iter()
    }

    /// Drop everything (after a successful flush).
    pub fn clear(&mut self) {
        self.map.clear();
        self.approx_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> Record {
        Record::new(id, format!("n{id}"), "s", id, id).unwrap()
    }

    #[test]
    fn insert_overwrites_and_tracks_bytes() {
        let mut mt = Memtable::new();
        assert!(mt.is_empty());
        mt.insert(5, Entry::Put(rec(5)));
        mt.insert(3, Entry::Put(rec(3)));
        let before = mt.approx_bytes();
        // Overwrite must not grow the footprint.
        mt.insert(5, Entry::Put(rec(5)));
        assert_eq!(mt.approx_bytes(), before);
        mt.insert(5, Entry::Tombstone);
        assert!(mt.approx_bytes() < before);
        assert_eq!(mt.iter().count(), 2);
        assert_eq!(mt.get(5), Some(&Entry::Tombstone));
        assert_eq!(mt.get(3).unwrap().record().unwrap().id, 3);
    }

    #[test]
    fn iteration_is_sorted_by_id() {
        let mut mt = Memtable::new();
        for id in [9, 1, 4, 7] {
            mt.insert(id, Entry::Put(rec(id)));
        }
        let ids: Vec<u64> = mt.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 4, 7, 9]);
        mt.clear();
        assert!(mt.is_empty());
        assert_eq!(mt.approx_bytes(), 0);
    }
}
