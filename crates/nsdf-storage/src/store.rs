//! The `ObjectStore` trait — NSDF's storage entry-point abstraction.
//!
//! Everything above this layer (IDX blocks, FUSE files, catalog logs,
//! workflow artifacts) addresses storage through S3-style object semantics:
//! whole-object put/get plus ranged reads, keyed by `/`-separated paths.
//! Backends differ only in where bytes live (memory, local disk) and what
//! network sits in front (the WAN simulator).

use nsdf_util::{NsdfError, Result};

/// Metadata for one stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Full object key.
    pub key: String,
    /// Payload size in bytes.
    pub size: u64,
    /// Content checksum ([`nsdf_util::checksum64`] of the stored bytes).
    pub checksum: u64,
    /// Logical modification stamp (monotonic per store).
    pub modified: u64,
}

/// S3-style object storage.
///
/// Implementations must be thread-safe; the IDX reader issues concurrent
/// block fetches against a shared store.
///
/// Every store in this crate implements each operation once. A wrapper
/// writes the batch form, taking the inner call as a closure, and its
/// single-key method is a wave of one through that body whose closure
/// calls the inner *single* method. That last part matters: the WAN model
/// ([`crate::CloudStore`]) counts `wan.waves` only for batch calls, so a
/// single call must reach it as a single call to cost and count what it
/// did before it was wrapped.
pub trait ObjectStore: Send + Sync {
    /// Store `data` under `key`, replacing any existing object.
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta>;

    /// Fetch the full payload of `key`.
    fn get(&self, key: &str) -> Result<Vec<u8>>;

    /// Fetch `len` bytes starting at `offset`.
    ///
    /// The default implementation fetches the whole object and slices;
    /// backends with cheaper ranged access should override.
    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let data = self.get(key)?;
        slice_range(&data, offset, len, key)
    }

    /// Fetch many objects in one call, returning per-key results in input
    /// order.
    ///
    /// This is the batched entry point the parallel IDX block pipeline
    /// uses: backends that can amortize per-request overhead (the WAN
    /// simulator's parallel streams, the cache's single lock pass) override
    /// it; the default simply loops over [`ObjectStore::get`]. A failed key
    /// never aborts the batch — callers decide per key how to treat
    /// `NotFound` (unwritten block) versus transport errors.
    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// Store many objects in one call, returning per-key results in input
    /// order.
    ///
    /// The batched entry point of the parallel ingest pipeline, mirroring
    /// [`ObjectStore::get_many`] on the write side: backends that can
    /// amortize per-request overhead (the WAN simulator's parallel upload
    /// streams, thread-parallel disk writes) override it; the default
    /// simply loops over [`ObjectStore::put`]. A failed key never aborts
    /// the batch — callers retry or surface failures per key.
    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        items.iter().map(|(k, d)| self.put(k, d)).collect()
    }

    /// Metadata without the payload.
    fn head(&self, key: &str) -> Result<ObjectMeta>;

    /// Metadata for many objects in one call, per-key results in input
    /// order.
    ///
    /// The integrity layer uses this to verify the fetched payloads that do
    /// not carry their own checksum (anything not sealed, or a sealed one
    /// damaged in flight) without paying one WAN round trip per key; the
    /// WAN simulator overrides it to amortize like [`ObjectStore::get_many`].
    /// A failed key never aborts the batch.
    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        keys.iter().map(|k| self.head(k)).collect()
    }

    /// All objects whose key starts with `prefix`, sorted by key.
    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>>;

    /// Remove `key`. Removing a missing key is an error.
    fn delete(&self, key: &str) -> Result<()>;

    /// Remove many objects in one call, returning per-key results in input
    /// order.
    ///
    /// The batched entry point of garbage collection (catalog segments,
    /// WAL objects and manifests; FUSE chunks and packs), mirroring
    /// [`ObjectStore::put_many`]: S3-class endpoints have a multi-object
    /// delete, so the WAN simulator overrides this to amortize round trips
    /// like the other `*_many` calls. A failed key — a missing one
    /// included — never aborts the batch. The default is the per-key
    /// [`ObjectStore::delete`] loop, so a wrapper written against the
    /// older trait stays correct (it merely pays one call per key), and an
    /// override must return, for distinct keys, exactly what that loop
    /// would.
    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        keys.iter().map(|k| self.delete(k)).collect()
    }

    /// True when `key` exists.
    fn exists(&self, key: &str) -> Result<bool> {
        match self.head(key) {
            Ok(_) => Ok(true),
            Err(e) if e.is_not_found() => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Human-readable backend description (for logs and reports).
    fn describe(&self) -> String {
        "object store".to_string()
    }
}

/// The one result of a wave of one: how a single-key call unwraps the
/// batch body it rides.
pub(crate) fn sole<T>(mut wave: Vec<Result<T>>) -> Result<T> {
    debug_assert_eq!(wave.len(), 1, "a wave of one has one result");
    wave.pop().expect("a wave of one has one result")
}

/// Validate an object key: non-empty `/`-separated segments, no `.`/`..`,
/// no leading or trailing slash, printable ASCII subset.
pub fn validate_key(key: &str) -> Result<()> {
    if key.is_empty() || key.len() > 1024 {
        return Err(NsdfError::invalid(format!("bad key length for {key:?}")));
    }
    if key.starts_with('/') || key.ends_with('/') {
        return Err(NsdfError::invalid(format!("key {key:?} must not start or end with '/'")));
    }
    for seg in key.split('/') {
        if seg.is_empty() {
            return Err(NsdfError::invalid(format!("key {key:?} has an empty segment")));
        }
        if seg == "." || seg == ".." {
            return Err(NsdfError::invalid(format!("key {key:?} contains a dot segment")));
        }
        if !seg.bytes().all(|b| b.is_ascii_alphanumeric() || b"-_.".contains(&b)) {
            return Err(NsdfError::invalid(format!("key segment {seg:?} has invalid characters")));
        }
    }
    Ok(())
}

/// Shared ranged-read slicing with bounds checking.
pub(crate) fn slice_range(data: &[u8], offset: u64, len: u64, key: &str) -> Result<Vec<u8>> {
    let end = offset.checked_add(len).ok_or_else(|| NsdfError::invalid("range overflow"))?;
    if end > data.len() as u64 {
        return Err(NsdfError::invalid(format!(
            "range {offset}+{len} exceeds object {key:?} of {} bytes",
            data.len()
        )));
    }
    Ok(data[offset as usize..end as usize].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_keys_accepted() {
        for k in ["a", "data/blocks/000001.bin", "conus_30m.idx", "a-b_c.d/e"] {
            assert!(validate_key(k).is_ok(), "{k}");
        }
    }

    #[test]
    fn invalid_keys_rejected() {
        for k in ["", "/abs", "trail/", "a//b", "a/../b", ".", "sp ace", "uni\u{e9}"] {
            assert!(validate_key(k).is_err(), "{k}");
        }
    }

    #[test]
    fn slice_range_bounds() {
        let d = b"0123456789";
        assert_eq!(slice_range(d, 2, 3, "k").unwrap(), b"234");
        assert_eq!(slice_range(d, 0, 10, "k").unwrap(), d.to_vec());
        assert_eq!(slice_range(d, 10, 0, "k").unwrap(), Vec::<u8>::new());
        assert!(slice_range(d, 8, 3, "k").is_err());
        assert!(slice_range(d, u64::MAX, 2, "k").is_err());
    }
}
