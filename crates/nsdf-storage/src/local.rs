//! Filesystem-backed object store rooted at a directory — the "local
//! storage" option of tutorial Steps 3 and 4.

use crate::store::{validate_key, ObjectMeta, ObjectStore};
use nsdf_util::{checksum64, NsdfError, Result};
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Object store mapping keys to files under a root directory.
///
/// Keys are validated ([`validate_key`]) so they can never escape the root.
#[derive(Debug)]
pub struct LocalStore {
    root: PathBuf,
    stamp: AtomicU64,
}

impl LocalStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(LocalStore { root, stamp: AtomicU64::new(0) })
    }

    fn path_for(&self, key: &str) -> Result<PathBuf> {
        validate_key(key)?;
        Ok(self.root.join(key))
    }

    fn meta_for(&self, key: &str, path: &Path) -> Result<ObjectMeta> {
        let data = fs::read(path)?;
        Ok(ObjectMeta {
            key: key.to_string(),
            size: data.len() as u64,
            checksum: checksum64(&data),
            modified: self.stamp.load(Ordering::Relaxed),
        })
    }
}

impl ObjectStore for LocalStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        let path = self.path_for(key)?;
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        // Write-then-rename for atomic replacement.
        let tmp = path.with_extension("tmp-nsdf");
        fs::write(&tmp, data)?;
        fs::rename(&tmp, &path)?;
        Ok(ObjectMeta {
            key: key.to_string(),
            size: data.len() as u64,
            checksum: checksum64(data),
            modified: self.stamp.fetch_add(1, Ordering::Relaxed),
        })
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        let path = self.path_for(key)?;
        fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                NsdfError::not_found(format!("object {key:?}"))
            } else {
                e.into()
            }
        })
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let path = self.path_for(key)?;
        let mut f = fs::File::open(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                NsdfError::not_found(format!("object {key:?}"))
            } else {
                NsdfError::from(e)
            }
        })?;
        let size = f.metadata()?.len();
        let end = offset.checked_add(len).ok_or_else(|| NsdfError::invalid("range overflow"))?;
        if end > size {
            return Err(NsdfError::invalid(format!(
                "range {offset}+{len} exceeds object {key:?} of {size} bytes"
            )));
        }
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len as usize];
        f.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        let path = self.path_for(key)?;
        if !path.is_file() {
            return Err(NsdfError::not_found(format!("object {key:?}")));
        }
        self.meta_for(key, &path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            let entries = match fs::read_dir(&dir) {
                Ok(e) => e,
                Err(_) => continue,
            };
            for entry in entries {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().and_then(|e| e.to_str()) != Some("tmp-nsdf") {
                    let key = path
                        .strip_prefix(&self.root)
                        .map_err(|_| NsdfError::corrupt("file outside store root"))?
                        .to_string_lossy()
                        .replace(std::path::MAIN_SEPARATOR, "/");
                    if key.starts_with(prefix) {
                        out.push(self.meta_for(&key, &path)?);
                    }
                }
            }
        }
        out.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(out)
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        // Independent files: overlap the per-file open/read syscalls.
        nsdf_util::par::par_map(keys, nsdf_util::par::num_threads(), |k| self.get(k))
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        // Independent files: overlap the per-file write/rename syscalls.
        // Each put is still atomic on its own (write-then-rename).
        nsdf_util::par::par_map(items, nsdf_util::par::num_threads(), |(k, d)| self.put(k, d))
    }

    fn delete(&self, key: &str) -> Result<()> {
        let path = self.path_for(key)?;
        fs::remove_file(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                NsdfError::not_found(format!("object {key:?}"))
            } else {
                e.into()
            }
        })
    }

    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        // Independent files: overlap the per-file unlink syscalls.
        nsdf_util::par::par_map(keys, nsdf_util::par::num_threads(), |k| self.delete(k))
    }

    fn describe(&self) -> String {
        format!("local object store at {}", self.root.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> LocalStore {
        let dir =
            std::env::temp_dir().join(format!("nsdf-localstore-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        LocalStore::open(dir).unwrap()
    }

    #[test]
    fn put_get_roundtrip_on_disk() {
        let s = temp_store("roundtrip");
        s.put("data/block-1.bin", b"abc123").unwrap();
        assert_eq!(s.get("data/block-1.bin").unwrap(), b"abc123");
        assert!(s.root.join("data/block-1.bin").is_file());
    }

    #[test]
    fn ranged_reads_seek() {
        let s = temp_store("range");
        s.put("k", b"0123456789").unwrap();
        assert_eq!(s.get_range("k", 4, 3).unwrap(), b"456");
        assert!(s.get_range("k", 8, 5).is_err());
    }

    #[test]
    fn list_recurses_and_sorts() {
        let s = temp_store("list");
        for k in ["x/1", "x/2", "y/1", "top"] {
            s.put(k, b"v").unwrap();
        }
        let keys: Vec<String> = s.list("x/").unwrap().into_iter().map(|m| m.key).collect();
        assert_eq!(keys, vec!["x/1", "x/2"]);
        assert_eq!(s.list("").unwrap().len(), 4);
    }

    #[test]
    fn delete_and_missing() {
        let s = temp_store("delete");
        s.put("k", b"v").unwrap();
        s.delete("k").unwrap();
        assert!(s.get("k").unwrap_err().is_not_found());
        assert!(s.delete("k").unwrap_err().is_not_found());
    }

    #[test]
    fn traversal_keys_rejected() {
        let s = temp_store("traversal");
        assert!(s.put("../escape", b"x").is_err());
        assert!(s.get("/etc/passwd").is_err());
    }

    #[test]
    fn put_many_writes_every_file() {
        let s = temp_store("putmany");
        let keys: Vec<String> = (0..10).map(|i| format!("dir{}/obj{i}", i % 3)).collect();
        let payloads: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8 + 1; 64 + i]).collect();
        let items: Vec<(&str, &[u8])> =
            keys.iter().zip(&payloads).map(|(k, d)| (k.as_str(), d.as_slice())).collect();
        let metas = s.put_many(&items);
        assert!(metas.iter().all(|m| m.is_ok()));
        for (k, d) in &items {
            assert_eq!(&s.get(k).unwrap(), d);
        }
        let mixed = s.put_many(&[("../escape", b"x" as &[u8]), ("valid", b"ok")]);
        assert!(mixed[0].is_err());
        assert!(mixed[1].is_ok());
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let s = temp_store("overwrite");
        s.put("k", b"old").unwrap();
        s.put("k", b"new-longer-content").unwrap();
        assert_eq!(s.get("k").unwrap(), b"new-longer-content");
        // No stray temp files left behind.
        assert_eq!(s.list("").unwrap().len(), 1);
    }
}
