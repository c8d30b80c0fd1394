//! In-memory object store — the default substrate for tests, simulations,
//! and as the backing target behind the WAN simulator.

use crate::store::{slice_range, validate_key, ObjectMeta, ObjectStore};
use nsdf_util::{checksum64, NsdfError, Result};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe in-memory object store with `BTreeMap` key ordering (so
/// `list` is naturally sorted).
#[derive(Debug, Default)]
pub struct MemoryStore {
    objects: RwLock<BTreeMap<String, StoredObject>>,
    stamp: AtomicU64,
}

#[derive(Debug, Clone)]
struct StoredObject {
    data: Vec<u8>,
    meta: ObjectMeta,
}

impl MemoryStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.read().len()
    }

    /// Sum of payload sizes.
    pub fn total_bytes(&self) -> u64 {
        self.objects.read().values().map(|o| o.meta.size).sum()
    }
}

impl ObjectStore for MemoryStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        validate_key(key)?;
        let meta = ObjectMeta {
            key: key.to_string(),
            size: data.len() as u64,
            checksum: checksum64(data),
            modified: self.stamp.fetch_add(1, Ordering::Relaxed),
        };
        self.objects
            .write()
            .insert(key.to_string(), StoredObject { data: data.to_vec(), meta: meta.clone() });
        Ok(meta)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.objects
            .read()
            .get(key)
            .map(|o| o.data.clone())
            .ok_or_else(|| NsdfError::not_found(format!("object {key:?}")))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let guard = self.objects.read();
        let o = guard.get(key).ok_or_else(|| NsdfError::not_found(format!("object {key:?}")))?;
        slice_range(&o.data, offset, len, key)
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.objects
            .read()
            .get(key)
            .map(|o| o.meta.clone())
            .ok_or_else(|| NsdfError::not_found(format!("object {key:?}")))
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        Ok(self
            .objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, o)| o.meta.clone())
            .collect())
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        // Reads share the RwLock, so a parallel map turns the batch into
        // genuinely concurrent lookups (and concurrent payload copies,
        // which dominate for block-sized objects).
        nsdf_util::par::par_map(keys, nsdf_util::par::num_threads(), |k| self.get(k))
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        // Each put takes the write lock only briefly; the parallel map
        // overlaps validation, checksumming, and payload copies, which
        // dominate for block-sized objects.
        nsdf_util::par::par_map(items, nsdf_util::par::num_threads(), |(k, d)| self.put(k, d))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.objects
            .write()
            .remove(key)
            .map(|_| ())
            .ok_or_else(|| NsdfError::not_found(format!("object {key:?}")))
    }

    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        // One write-lock acquisition for the whole batch; removals are
        // pointer work, so there is nothing to overlap.
        let mut objects = self.objects.write();
        keys.iter()
            .map(|key| {
                objects
                    .remove(*key)
                    .map(|_| ())
                    .ok_or_else(|| NsdfError::not_found(format!("object {key:?}")))
            })
            .collect()
    }

    fn describe(&self) -> String {
        "in-memory object store".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_head_roundtrip() {
        let s = MemoryStore::new();
        let meta = s.put("a/b", b"hello").unwrap();
        assert_eq!(meta.size, 5);
        assert_eq!(meta.checksum, checksum64(b"hello"));
        assert_eq!(s.get("a/b").unwrap(), b"hello");
        assert_eq!(s.head("a/b").unwrap(), meta);
        assert!(s.exists("a/b").unwrap());
        assert!(!s.exists("a/c").unwrap());
    }

    #[test]
    fn overwrite_bumps_stamp() {
        let s = MemoryStore::new();
        let m1 = s.put("k", b"one").unwrap();
        let m2 = s.put("k", b"two").unwrap();
        assert!(m2.modified > m1.modified);
        assert_eq!(s.get("k").unwrap(), b"two");
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn missing_objects_error() {
        let s = MemoryStore::new();
        assert!(s.get("nope").unwrap_err().is_not_found());
        assert!(s.head("nope").unwrap_err().is_not_found());
        assert!(s.delete("nope").unwrap_err().is_not_found());
    }

    #[test]
    fn list_filters_by_prefix_sorted() {
        let s = MemoryStore::new();
        for k in ["b/2", "a/1", "a/2", "a/10", "c"] {
            s.put(k, b"x").unwrap();
        }
        let keys: Vec<String> = s.list("a/").unwrap().into_iter().map(|m| m.key).collect();
        assert_eq!(keys, vec!["a/1", "a/10", "a/2"]);
        assert_eq!(s.list("").unwrap().len(), 5);
        assert!(s.list("zzz").unwrap().is_empty());
    }

    #[test]
    fn ranged_get() {
        let s = MemoryStore::new();
        s.put("k", b"0123456789").unwrap();
        assert_eq!(s.get_range("k", 3, 4).unwrap(), b"3456");
        assert!(s.get_range("k", 9, 5).is_err());
        assert!(s.get_range("missing", 0, 1).unwrap_err().is_not_found());
    }

    #[test]
    fn delete_removes() {
        let s = MemoryStore::new();
        s.put("k", b"x").unwrap();
        s.delete("k").unwrap();
        assert!(!s.exists("k").unwrap());
        assert_eq!(s.total_bytes(), 0);
    }

    #[test]
    fn rejects_invalid_keys() {
        let s = MemoryStore::new();
        assert!(s.put("/bad", b"x").is_err());
    }

    #[test]
    fn put_many_matches_sequential_puts() {
        let s = MemoryStore::new();
        let keys: Vec<String> = (0..12).map(|i| format!("batch/{i}")).collect();
        let payloads: Vec<Vec<u8>> = (0..12).map(|i| vec![i as u8; 100 + i]).collect();
        let items: Vec<(&str, &[u8])> =
            keys.iter().zip(&payloads).map(|(k, d)| (k.as_str(), d.as_slice())).collect();
        let metas = s.put_many(&items);
        for ((k, d), m) in items.iter().zip(&metas) {
            let m = m.as_ref().unwrap();
            assert_eq!(m.key, *k);
            assert_eq!(m.checksum, checksum64(d));
            assert_eq!(s.get(k).unwrap(), *d);
        }
        let bad = s.put_many(&[("ok/key", b"x" as &[u8]), ("/bad", b"y")]);
        assert!(bad[0].is_ok());
        assert!(bad[1].is_err(), "a failed key never aborts the batch");
    }

    #[test]
    fn concurrent_puts_and_gets() {
        let s = std::sync::Arc::new(MemoryStore::new());
        crossbeam::scope(|scope| {
            for t in 0..8 {
                let s = s.clone();
                scope.spawn(move |_| {
                    for i in 0..50 {
                        let key = format!("t{t}/obj{i}");
                        s.put(&key, format!("payload-{t}-{i}").as_bytes()).unwrap();
                        assert!(s.get(&key).is_ok());
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(s.object_count(), 400);
    }
}
