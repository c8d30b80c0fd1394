//! The virtual filesystem over an object store.

use crate::mapping::{validate_path, Mapping};
use nsdf_storage::ObjectStore;
use nsdf_util::{NsdfError, Result};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Location of a packed file inside a pack object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackLoc {
    pack: u64,
    offset: u64,
    len: u64,
}

#[derive(Debug, Default)]
struct PackedState {
    /// Live files → pack location. `pack == u64::MAX` means "in the open
    /// (unflushed) buffer at `offset`".
    index: BTreeMap<String, PackLoc>,
    /// Next pack number to flush.
    next_pack: u64,
    /// Open pack buffer.
    buffer: Vec<u8>,
    /// Whether the persisted index is stale.
    dirty: bool,
}

/// NSDF-FUSE-class filesystem facade over any [`ObjectStore`].
///
/// All mappings present the same file API; `Packed` additionally requires
/// [`VirtualFs::sync`] to persist its open pack and index (done
/// automatically by the workload runner and on a best-effort basis by
/// `read`s of flushed data).
pub struct VirtualFs {
    store: Arc<dyn ObjectStore>,
    root: String,
    mapping: Mapping,
    packed: Mutex<PackedState>,
}

impl VirtualFs {
    /// Create a filesystem rooted at `root` within `store`.
    pub fn new(store: Arc<dyn ObjectStore>, root: &str, mapping: Mapping) -> Result<VirtualFs> {
        mapping.validate()?;
        nsdf_storage::validate_key(root)?;
        let fs = VirtualFs {
            store,
            root: root.to_string(),
            mapping,
            packed: Mutex::new(PackedState::default()),
        };
        if matches!(mapping, Mapping::Packed { .. }) {
            fs.load_packed_index()?;
        }
        Ok(fs)
    }

    fn o_key(&self, path: &str) -> String {
        format!("{}/o/{path}", self.root)
    }

    fn chunk_key(&self, path: &str, i: usize) -> String {
        format!("{}/c/{path}/{i:06}.chunk", self.root)
    }

    fn manifest_key(&self, path: &str) -> String {
        format!("{}/c/{path}/manifest.txt", self.root)
    }

    fn pack_key(&self, n: u64) -> String {
        format!("{}/p/pack-{n:08}.bin", self.root)
    }

    fn index_key(&self) -> String {
        format!("{}/p/index.txt", self.root)
    }

    /// Write (create or replace) a file.
    pub fn write_file(&self, path: &str, data: &[u8]) -> Result<()> {
        validate_path(path)?;
        match self.mapping {
            Mapping::OneToOne => {
                self.store.put(&self.o_key(path), data)?;
                Ok(())
            }
            Mapping::Chunked { chunk_bytes } => {
                let chunks = data.chunks(chunk_bytes.max(1)).collect::<Vec<_>>();
                // Replace semantics: drop stale chunks from a previous version.
                let _ = self.delete_chunked(path);
                // One batched round trip for all chunks instead of a put
                // per chunk (a WAN store overlaps these across streams).
                let keys: Vec<String> =
                    (0..chunks.len()).map(|i| self.chunk_key(path, i)).collect();
                let items: Vec<(&str, &[u8])> =
                    keys.iter().map(String::as_str).zip(chunks.iter().copied()).collect();
                for r in self.store.put_many(&items) {
                    r?;
                }
                let manifest = format!(
                    "size={}\nchunks={}\nchunk_bytes={}\n",
                    data.len(),
                    chunks.len(),
                    chunk_bytes
                );
                self.store.put(&self.manifest_key(path), manifest.as_bytes())?;
                Ok(())
            }
            Mapping::Packed { pack_target_bytes } => {
                let mut st = self.packed.lock();
                let offset = st.buffer.len() as u64;
                st.buffer.extend_from_slice(data);
                st.index.insert(
                    path.to_string(),
                    PackLoc { pack: u64::MAX, offset, len: data.len() as u64 },
                );
                st.dirty = true;
                if st.buffer.len() >= pack_target_bytes {
                    self.flush_pack(&mut st)?;
                }
                Ok(())
            }
        }
    }

    /// Read a whole file.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>> {
        validate_path(path)?;
        match self.mapping {
            Mapping::OneToOne => self.store.get(&self.o_key(path)),
            Mapping::Chunked { .. } => {
                let (size, chunks) = self.read_manifest(path)?;
                // Fetch every chunk in one batched round trip.
                let keys: Vec<String> = (0..chunks).map(|i| self.chunk_key(path, i)).collect();
                let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                let mut out = Vec::with_capacity(size as usize);
                for r in self.store.get_many(&key_refs) {
                    out.extend_from_slice(&r?);
                }
                if out.len() as u64 != size {
                    return Err(NsdfError::corrupt(format!(
                        "file {path:?}: chunks total {} bytes, manifest says {size}",
                        out.len()
                    )));
                }
                Ok(out)
            }
            Mapping::Packed { .. } => {
                let loc = {
                    let st = self.packed.lock();
                    let loc = *st
                        .index
                        .get(path)
                        .ok_or_else(|| NsdfError::not_found(format!("file {path:?}")))?;
                    if loc.pack == u64::MAX {
                        // Still in the open buffer.
                        let start = loc.offset as usize;
                        return Ok(st.buffer[start..start + loc.len as usize].to_vec());
                    }
                    loc
                };
                self.store.get_range(&self.pack_key(loc.pack), loc.offset, loc.len)
            }
        }
    }

    /// Delete a file.
    pub(crate) fn delete_file(&self, path: &str) -> Result<()> {
        validate_path(path)?;
        match self.mapping {
            Mapping::OneToOne => self.store.delete(&self.o_key(path)),
            Mapping::Chunked { .. } => self.delete_chunked(path),
            Mapping::Packed { .. } => {
                let mut st = self.packed.lock();
                st.index
                    .remove(path)
                    .ok_or_else(|| NsdfError::not_found(format!("file {path:?}")))?;
                st.dirty = true;
                Ok(())
            }
        }
    }

    /// Persist any open pack buffer and the pack index. A no-op for
    /// non-packed mappings.
    pub fn sync(&self) -> Result<()> {
        if !matches!(self.mapping, Mapping::Packed { .. }) {
            return Ok(());
        }
        let mut st = self.packed.lock();
        // A zero-length file sits in the open buffer without growing it.
        if !st.buffer.is_empty() || st.index.values().any(|l| l.pack == u64::MAX) {
            self.flush_pack(&mut st)?;
        }
        if st.dirty {
            self.persist_index(&st)?;
            st.dirty = false;
        }
        Ok(())
    }

    fn flush_pack(&self, st: &mut PackedState) -> Result<()> {
        let pack_no = st.next_pack;
        self.store.put(&self.pack_key(pack_no), &st.buffer)?;
        st.next_pack += 1;
        st.buffer.clear();
        // Rebind open-buffer entries to the flushed pack.
        for loc in st.index.values_mut() {
            if loc.pack == u64::MAX {
                loc.pack = pack_no;
            }
        }
        self.persist_index(st)?;
        st.dirty = false;
        Ok(())
    }

    fn persist_index(&self, st: &PackedState) -> Result<()> {
        let mut text = format!("next_pack={}\n", st.next_pack);
        for (path, loc) in &st.index {
            if loc.pack == u64::MAX {
                continue; // unflushed entries are not durable yet
            }
            text.push_str(&format!("{path} {} {} {}\n", loc.pack, loc.offset, loc.len));
        }
        self.store.put(&self.index_key(), text.as_bytes())?;
        Ok(())
    }

    fn load_packed_index(&self) -> Result<()> {
        let data = match self.store.get(&self.index_key()) {
            Ok(d) => d,
            Err(e) if e.is_not_found() => return Ok(()),
            Err(e) => return Err(e),
        };
        let text =
            String::from_utf8(data).map_err(|_| NsdfError::corrupt("pack index not UTF-8"))?;
        let mut st = self.packed.lock();
        for line in text.lines() {
            if let Some(np) = line.strip_prefix("next_pack=") {
                st.next_pack =
                    np.parse().map_err(|_| NsdfError::corrupt("bad next_pack in index"))?;
                continue;
            }
            let mut it = line.split_whitespace();
            let (Some(path), Some(pack), Some(off), Some(len)) =
                (it.next(), it.next(), it.next(), it.next())
            else {
                return Err(NsdfError::corrupt(format!("bad index line {line:?}")));
            };
            let loc = PackLoc {
                pack: pack.parse().map_err(|_| NsdfError::corrupt("bad pack number"))?,
                offset: off.parse().map_err(|_| NsdfError::corrupt("bad offset"))?,
                len: len.parse().map_err(|_| NsdfError::corrupt("bad length"))?,
            };
            st.index.insert(path.to_string(), loc);
        }
        Ok(())
    }

    /// Rewrite all live packed data into fresh packs, dropping the dead
    /// bytes left behind by deletes and overwrites. Returns
    /// `(live_bytes, reclaimed_bytes)`. A no-op for non-packed mappings.
    pub fn compact(&self) -> Result<(u64, u64)> {
        let Mapping::Packed { pack_target_bytes } = self.mapping else {
            return Ok((0, 0));
        };
        self.sync()?;
        let mut st = self.packed.lock();
        // Measure current pack usage.
        let mut pack_bytes = 0u64;
        for m in self.store.list(&format!("{}/p/pack-", self.root))? {
            pack_bytes += m.size;
        }
        let live_bytes: u64 = st.index.values().map(|l| l.len).sum();

        // Rewrite live files into fresh packs, then delete the old ones.
        let old_packs: Vec<String> = self
            .store
            .list(&format!("{}/p/pack-", self.root))?
            .into_iter()
            .map(|m| m.key)
            .collect();
        let entries: Vec<(String, PackLoc)> =
            st.index.iter().map(|(p, l)| (p.clone(), *l)).collect();
        // One batched fetch of every distinct live pack, then slice the
        // entries out in memory — instead of a get_range round trip per
        // live file.
        let live_packs: Vec<u64> = {
            let mut p: Vec<u64> = entries.iter().map(|(_, l)| l.pack).collect();
            p.sort_unstable();
            p.dedup();
            p
        };
        let pack_keys: Vec<String> = live_packs.iter().map(|&n| self.pack_key(n)).collect();
        let pack_key_refs: Vec<&str> = pack_keys.iter().map(String::as_str).collect();
        let mut pack_data: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (&n, r) in live_packs.iter().zip(self.store.get_many(&pack_key_refs)) {
            pack_data.insert(n, r?);
        }
        let base = st.next_pack;
        let mut buffer = Vec::new();
        let mut pack_no = base;
        let mut new_index = std::collections::BTreeMap::new();
        for (path, loc) in entries {
            let pack = pack_data
                .get(&loc.pack)
                .ok_or_else(|| NsdfError::corrupt(format!("pack {} missing", loc.pack)))?;
            let data = pack.get(loc.offset as usize..(loc.offset + loc.len) as usize).ok_or_else(
                || NsdfError::corrupt(format!("file {path:?} outside pack {}", loc.pack)),
            )?;
            let offset = buffer.len() as u64;
            buffer.extend_from_slice(data);
            new_index.insert(path, PackLoc { pack: pack_no, offset, len: loc.len });
            if buffer.len() >= pack_target_bytes {
                self.store.put(&self.pack_key(pack_no), &buffer)?;
                buffer.clear();
                pack_no += 1;
            }
        }
        // Every pack an entry names must exist, even one holding only
        // zero-length files.
        if !buffer.is_empty() || new_index.values().any(|l| l.pack == pack_no) {
            self.store.put(&self.pack_key(pack_no), &buffer)?;
            pack_no += 1;
        }
        st.index = new_index;
        st.next_pack = pack_no;
        self.persist_index(&st)?;
        st.dirty = false;
        let old_refs: Vec<&str> = old_packs.iter().map(String::as_str).collect();
        let _ = self.store.delete_many(&old_refs);
        Ok((live_bytes, pack_bytes.saturating_sub(live_bytes)))
    }

    fn read_manifest(&self, path: &str) -> Result<(u64, usize)> {
        let data = self.store.get(&self.manifest_key(path)).map_err(|e| {
            if e.is_not_found() {
                NsdfError::not_found(format!("file {path:?}"))
            } else {
                e
            }
        })?;
        let text = String::from_utf8(data).map_err(|_| NsdfError::corrupt("manifest not UTF-8"))?;
        let m = nsdf_util::Meta::from_text(&text)?;
        Ok((m.get_parsed("size")?, m.get_parsed("chunks")?))
    }

    fn delete_chunked(&self, path: &str) -> Result<()> {
        let (_, chunks) = self.read_manifest(path)?;
        // Chunks, then the manifest, in one wave; chunk results are
        // best-effort and the manifest's result is the file's.
        let mut keys: Vec<String> = (0..chunks).map(|i| self.chunk_key(path, i)).collect();
        keys.push(self.manifest_key(path));
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        self.store.delete_many(&refs).pop().expect("one result per key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_storage::MemoryStore;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn fs(mapping: Mapping) -> VirtualFs {
        VirtualFs::new(Arc::new(MemoryStore::new()), "fs", mapping).unwrap()
    }

    fn exercise_basic_ops(v: &VirtualFs) {
        let name = v.mapping.name();
        v.write_file("dir/a.dat", b"alpha").unwrap();
        v.write_file("dir/b.dat", b"bravo-bravo").unwrap();
        v.write_file("top.dat", b"").unwrap();
        assert_eq!(v.read_file("dir/a.dat").unwrap(), b"alpha", "{name}");
        assert_eq!(v.read_file("top.dat").unwrap(), b"", "{name}");
        assert_eq!(v.read_file("dir/b.dat").unwrap(), b"bravo-bravo", "{name}");
        // Overwrite.
        v.write_file("dir/a.dat", b"ALPHA2").unwrap();
        assert_eq!(v.read_file("dir/a.dat").unwrap(), b"ALPHA2", "{name}");
        // Delete.
        v.delete_file("dir/a.dat").unwrap();
        assert!(v.read_file("dir/a.dat").unwrap_err().is_not_found(), "{name}");
        assert!(v.delete_file("dir/a.dat").is_err(), "{name}");
        assert!(v.read_file("never").unwrap_err().is_not_found(), "{name}");
    }

    #[test]
    fn basic_ops_all_mappings() {
        for m in Mapping::palette() {
            exercise_basic_ops(&fs(m));
        }
    }

    #[test]
    fn chunked_splits_into_multiple_objects() {
        let store = Arc::new(MemoryStore::new());
        let v = VirtualFs::new(store.clone(), "fs", Mapping::Chunked { chunk_bytes: 4 }).unwrap();
        v.write_file("f", b"0123456789").unwrap();
        // 3 chunks + manifest.
        assert_eq!(store.object_count(), 4);
        assert_eq!(v.read_file("f").unwrap(), b"0123456789");
        // Shrinking rewrite removes stale chunks.
        v.write_file("f", b"xy").unwrap();
        assert_eq!(store.object_count(), 2);
        assert_eq!(v.read_file("f").unwrap(), b"xy");
        // Deleting the file leaves neither chunk nor manifest listed.
        v.write_file("f", b"0123456789").unwrap();
        v.delete_file("f").unwrap();
        assert!(store.list("").unwrap().is_empty(), "left: {:?}", store.list("").unwrap());
    }

    #[test]
    fn packed_amortises_puts() {
        let store = Arc::new(MemoryStore::new());
        let v =
            VirtualFs::new(store.clone(), "fs", Mapping::Packed { pack_target_bytes: 64 }).unwrap();
        for i in 0..10 {
            v.write_file(&format!("small-{i}"), &[i as u8; 10]).unwrap();
        }
        v.sync().unwrap();
        // 100 bytes / 64-byte target -> 2 packs + index, far fewer than 10.
        assert!(store.object_count() <= 4, "objects: {}", store.object_count());
        for i in 0..10 {
            assert_eq!(v.read_file(&format!("small-{i}")).unwrap(), vec![i as u8; 10]);
        }
    }

    #[test]
    fn packed_reads_from_open_buffer_before_sync() {
        let v = fs(Mapping::Packed { pack_target_bytes: 1 << 20 });
        v.write_file("pending", b"not yet flushed").unwrap();
        assert_eq!(v.read_file("pending").unwrap(), b"not yet flushed");
    }

    #[test]
    fn packed_index_survives_reopen() {
        let store = Arc::new(MemoryStore::new());
        {
            let v = VirtualFs::new(store.clone(), "fs", Mapping::Packed { pack_target_bytes: 32 })
                .unwrap();
            v.write_file("a", b"aaaa").unwrap();
            v.write_file("b", b"bbbbbbbb").unwrap();
            v.delete_file("a").unwrap();
            v.sync().unwrap();
        }
        let v2 = VirtualFs::new(store, "fs", Mapping::Packed { pack_target_bytes: 32 }).unwrap();
        assert_eq!(v2.read_file("b").unwrap(), b"bbbbbbbb");
        assert!(v2.read_file("a").unwrap_err().is_not_found());
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let store = Arc::new(MemoryStore::new());
        let v = VirtualFs::new(store.clone(), "fs", Mapping::Packed { pack_target_bytes: 256 })
            .unwrap();
        for i in 0..20 {
            v.write_file(&format!("f{i:02}"), &[i as u8; 64]).unwrap();
        }
        v.sync().unwrap();
        // Delete three quarters of the files: packs keep the dead bytes.
        for i in 0..15 {
            v.delete_file(&format!("f{i:02}")).unwrap();
        }
        v.sync().unwrap();
        let old_packs = store.list("fs/p/pack-").unwrap();
        let packs_before: u64 = old_packs.iter().map(|m| m.size).sum();
        let (live, reclaimed) = v.compact().unwrap();
        assert_eq!(live, 5 * 64);
        assert_eq!(reclaimed, packs_before - live);
        let new_packs = store.list("fs/p/pack-").unwrap();
        assert_eq!(new_packs.iter().map(|m| m.size).sum::<u64>(), live);
        // No replaced pack is left listed.
        assert!(old_packs.iter().all(|old| new_packs.iter().all(|new| new.key != old.key)));
        // Every surviving file still reads back.
        for i in 15..20 {
            assert_eq!(v.read_file(&format!("f{i:02}")).unwrap(), vec![i as u8; 64]);
        }
        // And the compacted index survives reopen.
        drop(v);
        let v2 = VirtualFs::new(store, "fs", Mapping::Packed { pack_target_bytes: 256 }).unwrap();
        assert!(v2.read_file("f03").unwrap_err().is_not_found());
        assert_eq!(v2.read_file("f17").unwrap(), vec![17u8; 64]);
    }

    #[test]
    fn empty_file_in_the_open_pack_survives_compaction_and_reopen() {
        let store = Arc::new(MemoryStore::new());
        let mapping = Mapping::Packed { pack_target_bytes: 64 };
        let v = VirtualFs::new(store.clone(), "fs", mapping).unwrap();
        v.write_file("empty", b"").unwrap();
        v.compact().unwrap();
        assert_eq!(v.read_file("empty").unwrap(), b"");
        drop(v);
        let v2 = VirtualFs::new(store, "fs", mapping).unwrap();
        assert_eq!(v2.read_file("empty").unwrap(), b"");
    }

    #[test]
    fn compaction_noop_for_other_mappings() {
        let v = fs(Mapping::OneToOne);
        v.write_file("a", b"data").unwrap();
        assert_eq!(v.compact().unwrap(), (0, 0));
        assert_eq!(v.read_file("a").unwrap(), b"data");
    }

    #[test]
    fn invalid_paths_rejected() {
        let v = fs(Mapping::OneToOne);
        assert!(v.write_file("/abs", b"x").is_err());
        assert!(v.write_file("a/../b", b"x").is_err());
    }

    // Model-based property testing: every mapping package must behave
    // identically to a plain in-memory map of `path -> bytes` under
    // arbitrary interleavings of write/read/delete/overwrite/sync/compact/
    // reopen.

    #[derive(Debug, Clone)]
    enum Op {
        Write(u8, Vec<u8>),
        Read(u8),
        Delete(u8),
        /// Read every path of the key domain: the visible namespace.
        Sweep,
        Sync,
        Compact,
        Reopen,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..12, proptest::collection::vec(any::<u8>(), 0..200))
                .prop_map(|(k, v)| Op::Write(k, v)),
            (0u8..12).prop_map(Op::Read),
            (0u8..12).prop_map(Op::Delete),
            Just(Op::Sweep),
            Just(Op::Sync),
            Just(Op::Compact),
            Just(Op::Reopen),
        ]
    }

    fn path(k: u8) -> String {
        format!("dir{}/file-{k:02}.dat", k % 3)
    }

    fn check_read(fs: &VirtualFs, model: &HashMap<String, Vec<u8>>, k: u8) {
        let got = fs.read_file(&path(k));
        match model.get(&path(k)) {
            Some(want) => assert_eq!(&got.unwrap(), want, "{}", fs.mapping.name()),
            None => assert!(got.unwrap_err().is_not_found(), "{}", fs.mapping.name()),
        }
    }

    fn run_model(mapping: Mapping, ops: Vec<Op>) {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let mut fs = VirtualFs::new(store.clone(), "mbt", mapping).unwrap();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();

        for op in ops {
            match op {
                Op::Write(k, data) => {
                    fs.write_file(&path(k), &data).unwrap();
                    model.insert(path(k), data);
                }
                Op::Read(k) => check_read(&fs, &model, k),
                Op::Delete(k) => {
                    let got = fs.delete_file(&path(k));
                    if model.remove(&path(k)).is_some() {
                        got.unwrap();
                    } else {
                        assert!(got.unwrap_err().is_not_found());
                    }
                }
                Op::Sweep => (0..12).for_each(|k| check_read(&fs, &model, k)),
                Op::Sync => fs.sync().unwrap(),
                Op::Compact => {
                    fs.compact().unwrap();
                }
                Op::Reopen => {
                    // Durability boundary: everything must survive a restart.
                    fs.sync().unwrap();
                    fs = VirtualFs::new(store.clone(), "mbt", mapping).unwrap();
                }
            }
        }
        // Final full check.
        (0..12).for_each(|k| check_read(&fs, &model, k));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn one_to_one_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
            run_model(Mapping::OneToOne, ops);
        }

        #[test]
        fn chunked_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
            run_model(Mapping::Chunked { chunk_bytes: 64 }, ops);
        }

        #[test]
        fn packed_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
            run_model(Mapping::Packed { pack_target_bytes: 256 }, ops);
        }
    }
}
