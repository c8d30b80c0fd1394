//! 3-D IDX datasets — volumetric storage for the tutorial's "advanced
//! applications" tier (massive scientific volumes explored through slices
//! and sub-boxes), with the same HZ block layout, codecs, and progressive
//! query semantics as the 2-D [`crate::IdxDataset`].

use crate::dataset::{IdxDataset, QueryStats, WriteStats};
use crate::meta::{Field, IdxMeta};
use crate::session::QuerySession;
use nsdf_compress::Codec;
use nsdf_storage::ObjectStore;
use nsdf_util::obs::Obs;
use nsdf_util::{Box3i, NsdfError, Raster, Result, Sample, Volume};
use std::sync::Arc;

impl IdxMeta {
    /// Build metadata for a 3-D dataset, deriving the bitmask from the
    /// volume dimensions.
    pub fn new_3d(
        name: impl Into<String>,
        width: u64,
        height: u64,
        depth: u64,
        fields: Vec<Field>,
        bits_per_block: u32,
        codec: Codec,
    ) -> Result<IdxMeta> {
        let mut meta = IdxMeta::new_2d(name, width, height, fields, bits_per_block, codec)?;
        meta.dims = vec![width, height, depth];
        meta.bitmask = nsdf_hz::BitMask::for_dims(&[width, height, depth])?;
        Ok(meta)
    }
}

/// An open 3-D IDX dataset bound to an object store.
///
/// The typed 3-D front of an [`IdxDataset`]: it takes and returns
/// [`Volume`]s and [`Box3i`]es. Planning, block fetch and decode, the
/// decoded-block cache, gather, `idx.*` observability and upload all belong
/// to the dataset underneath, exactly as for 2-D data.
pub struct IdxVolume {
    ds: Arc<IdxDataset>,
}

impl IdxVolume {
    /// Create a new volumetric dataset under `base`.
    pub fn create(store: Arc<dyn ObjectStore>, base: &str, meta: IdxMeta) -> Result<IdxVolume> {
        if meta.dims.len() != 3 {
            return Err(NsdfError::invalid("IdxVolume requires 3-D metadata (IdxMeta::new_3d)"));
        }
        Ok(IdxVolume { ds: Arc::new(IdxDataset::create_nd(store, base, meta)?) })
    }

    /// Open an existing volumetric dataset.
    pub fn open(store: Arc<dyn ObjectStore>, base: &str) -> Result<IdxVolume> {
        let ds = IdxDataset::open_nd(store, base)?;
        if ds.meta().dims.len() != 3 {
            return Err(NsdfError::invalid(format!(
                "dataset at {base:?} is {}-dimensional, not 3-D",
                ds.meta().dims.len()
            )));
        }
        Ok(IdxVolume { ds: Arc::new(ds) })
    }

    /// Apply one of the dataset's builders. Builders configure a volume
    /// before it is used: they panic once a [`IdxVolume::session`] shares
    /// the dataset.
    fn configure(self, f: impl FnOnce(IdxDataset) -> IdxDataset) -> Self {
        let ds = Arc::into_inner(self.ds).expect("IdxVolume configured after a session was opened");
        IdxVolume { ds: Arc::new(f(ds)) }
    }

    /// Report `idx.*` accounting and spans into `obs`
    /// (see [`IdxDataset::with_obs`]).
    pub fn with_obs(self, obs: &Obs) -> Self {
        self.configure(|ds| ds.with_obs(obs))
    }

    /// Set how many blocks each batched store fetch carries (>= 1).
    pub fn with_fetch_concurrency(self, n: usize) -> Self {
        self.configure(|ds| ds.with_fetch_concurrency(n))
    }

    /// Set how many encoded blocks each batched store upload carries (>= 1).
    pub fn with_write_concurrency(self, n: usize) -> Self {
        self.configure(|ds| ds.with_write_concurrency(n))
    }

    /// Dataset metadata.
    pub fn meta(&self) -> &IdxMeta {
        self.ds.meta()
    }

    /// Finest resolution level.
    pub fn max_level(&self) -> u32 {
        self.ds.max_level()
    }

    /// Full-volume bounding box.
    pub fn bounds(&self) -> Box3i {
        self.ds.extent()
    }

    /// Open a slice-exploration session on `field`: a [`QuerySession`] whose
    /// view is one z-plane of the volume ([`QuerySession::set_slice`]), so
    /// adjacent slices and repeated flythroughs reuse the coarse blocks they
    /// share instead of refetching per slice. Configure the volume (`with_*`)
    /// first: those builders panic while a session shares the dataset.
    pub fn session<T: Sample>(&self, field: &str) -> Result<QuerySession<T>> {
        QuerySession::new(Arc::clone(&self.ds), field)
    }

    /// Write a full-resolution volume into `field` at `time`: the volume's
    /// shape must equal the dataset's dims, and the write follows
    /// [`IdxDataset::write_raster`]'s rules.
    pub fn write_volume<T: Sample>(
        &self,
        field: &str,
        time: u32,
        volume: &Volume<T>,
    ) -> Result<WriteStats> {
        let (w, h, d) = volume.shape();
        self.ds.write_full("write_volume", field, time, [w, h, d], volume.data())
    }

    /// Read a sub-box at resolution `level`; sample `(i, j, k)` of the
    /// result is the stored value at `(x0 + i*sx, y0 + j*sy, z0 + k*sz)`.
    pub fn read_box<T: Sample>(
        &self,
        field: &str,
        time: u32,
        region: Box3i,
        level: u32,
    ) -> Result<(Volume<T>, QueryStats)> {
        let ([(_, _, ow), (_, _, oh), (_, _, od)], samples, stats) =
            self.ds.query_box(field, time, region, level)?;
        Ok((Volume::from_vec(ow, oh, od, samples)?, stats))
    }

    /// Read the entire volume at full resolution.
    pub fn read_full<T: Sample>(&self, field: &str, time: u32) -> Result<(Volume<T>, QueryStats)> {
        self.read_box(field, time, self.bounds(), self.max_level())
    }

    /// Read the z-slice at depth `z` as a 2-D raster at resolution `level`
    /// — the dashboard's volumetric slice view (paper §III-A's "horizontal
    /// and vertical slices").
    pub fn read_slice_z<T: Sample>(
        &self,
        field: &str,
        time: u32,
        z: i64,
        level: u32,
    ) -> Result<(Raster<T>, QueryStats)> {
        let region = self.ds.plane_box(self.ds.bounds(), z, level)?;
        let (grid, samples, stats) = self.ds.query_box(field, time, region, level)?;
        Ok((self.ds.plane(grid, samples)?, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_storage::MemoryStore;
    use nsdf_util::DType;

    fn make_volume(w: u64, h: u64, d: u64, codec: Codec) -> (IdxVolume, Volume<f32>) {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let meta = IdxMeta::new_3d(
            "vol",
            w,
            h,
            d,
            vec![Field::new("density", DType::F32).unwrap()],
            8,
            codec,
        )
        .unwrap();
        let ds = IdxVolume::create(store, "vols/test", meta).unwrap();
        let data = Volume::from_fn(w as usize, h as usize, d as usize, |x, y, z| {
            ((z * h as usize + y) * w as usize + x) as f32
        });
        ds.write_volume("density", 0, &data).unwrap();
        (ds, data)
    }

    #[test]
    fn full_resolution_roundtrip() {
        let (ds, data) = make_volume(16, 16, 16, Codec::Raw);
        let (back, q) = ds.read_full::<f32>("density", 0).unwrap();
        assert_eq!(back.data(), data.data());
        assert_eq!(q.samples_out, 4096);
        assert_eq!(q.blocks_missing, 0);
    }

    #[test]
    fn rectangular_non_pow2_roundtrip_compressed() {
        let (ds, data) = make_volume(20, 12, 6, Codec::LzssHuff { sample_size: 4 });
        let (back, _) = ds.read_full::<f32>("density", 0).unwrap();
        assert_eq!(back.data(), data.data());
    }

    #[test]
    fn read_box_deterministic_across_fetch_concurrency() {
        let region = Box3i::new(3, 2, 1, 15, 13, 6);
        let (ds, _) = make_volume(16, 16, 8, Codec::Raw);
        let level = ds.max_level();
        let (baseline, base_stats) = ds
            .read_box::<f32>("density", 0, region, level)
            .map(|(v, s)| (v.data().to_vec(), s))
            .unwrap();
        for conc in [1usize, 2, 4, 32] {
            let (ds, _) = make_volume(16, 16, 8, Codec::Raw);
            let ds = ds.with_fetch_concurrency(conc);
            let (vol, stats) = ds.read_box::<f32>("density", 0, region, level).unwrap();
            assert_eq!(vol.data(), &baseline[..], "concurrency {conc} changed bytes");
            assert_eq!(stats.blocks_touched, base_stats.blocks_touched);
            assert_eq!(stats.fetch_concurrency, conc as u64);
            assert_eq!(
                stats.fetch_batches,
                base_stats.blocks_touched.div_ceil(conc as u64),
                "concurrency {conc} issued wrong batch count"
            );
            assert_eq!(stats.blocks_decoded, stats.blocks_touched - stats.blocks_missing);
        }
    }

    #[test]
    fn subbox_matches_window() {
        let (ds, data) = make_volume(16, 16, 16, Codec::Lz4);
        let region = Box3i::new(3, 5, 7, 11, 13, 15);
        let (sub, _) = ds.read_box::<f32>("density", 0, region, ds.max_level()).unwrap();
        let window = data.window(region).unwrap();
        assert_eq!(sub.data(), window.data());
    }

    #[test]
    fn coarse_level_is_strided_subsample() {
        let (ds, data) = make_volume(16, 16, 16, Codec::Raw);
        let level = ds.max_level() - 3; // strides (2,2,2)
        let (coarse, _) = ds.read_box::<f32>("density", 0, ds.bounds(), level).unwrap();
        assert_eq!(coarse.shape(), (8, 8, 8));
        for k in 0..8 {
            for j in 0..8 {
                for i in 0..8 {
                    assert_eq!(coarse.get(i, j, k), data.get(i * 2, j * 2, k * 2));
                }
            }
        }
    }

    #[test]
    fn coarse_levels_touch_fewer_blocks() {
        let (ds, _) = make_volume(32, 32, 32, Codec::Raw);
        let (_, full) = ds.read_full::<f32>("density", 0).unwrap();
        let (_, coarse) =
            ds.read_box::<f32>("density", 0, ds.bounds(), ds.max_level() - 6).unwrap();
        assert!(coarse.blocks_touched * 4 <= full.blocks_touched);
    }

    #[test]
    fn z_slice_reads_one_plane() {
        let (ds, data) = make_volume(16, 16, 16, Codec::Raw);
        let (slice, q) = ds.read_slice_z::<f32>("density", 0, 5, ds.max_level()).unwrap();
        assert_eq!(slice.shape(), (16, 16));
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(slice.get(x, y), data.get(x, y, 5));
            }
        }
        // A plane needs far fewer blocks than the whole volume.
        let (_, full) = ds.read_full::<f32>("density", 0).unwrap();
        assert!(q.blocks_touched < full.blocks_touched / 2);
        assert!(ds.read_slice_z::<f32>("density", 0, 16, ds.max_level()).is_err());
    }

    #[test]
    fn reopen_from_store() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let meta = IdxMeta::new_3d(
            "vol",
            8,
            8,
            8,
            vec![Field::new("v", DType::F32).unwrap()],
            6,
            Codec::Raw,
        )
        .unwrap();
        let ds = IdxVolume::create(store.clone(), "v", meta).unwrap();
        let data = Volume::from_fn(8, 8, 8, |x, y, z| (x + y + z) as f32);
        ds.write_volume("v", 0, &data).unwrap();
        let ds2 = IdxVolume::open(store, "v").unwrap();
        let (back, _) = ds2.read_full::<f32>("v", 0).unwrap();
        assert_eq!(back.data(), data.data());
    }

    #[test]
    fn write_volume_deterministic_across_write_concurrency() {
        // Stored block bytes are identical whether uploads go one at a time
        // or in wide put_many batches.
        let mut reference: Option<Vec<(String, Vec<u8>)>> = None;
        for conc in [1usize, 2, 8, 32] {
            let store = Arc::new(MemoryStore::new());
            let meta = IdxMeta::new_3d(
                "vol",
                20,
                12,
                6,
                vec![Field::new("density", DType::F32).unwrap()],
                8,
                Codec::LzssHuff { sample_size: 4 },
            )
            .unwrap();
            let ds = IdxVolume::create(store.clone() as Arc<dyn ObjectStore>, "vols/wc", meta)
                .unwrap()
                .with_write_concurrency(conc);
            let data = Volume::from_fn(20, 12, 6, |x, y, z| ((z * 12 + y) * 20 + x) as f32);
            let stats = ds.write_volume("density", 0, &data).unwrap();
            assert_eq!(stats.write_concurrency, conc as u64);
            assert_eq!(stats.put_batches, stats.blocks_written.div_ceil(conc as u64));
            let dump: Vec<(String, Vec<u8>)> = store
                .list("")
                .unwrap()
                .into_iter()
                .map(|m| (m.key.clone(), store.get(&m.key).unwrap()))
                .collect();
            match &reference {
                None => reference = Some(dump),
                Some(want) => assert_eq!(&dump, want, "write_concurrency {conc}"),
            }
        }
    }

    #[test]
    fn validation_errors() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        // 2-D meta rejected by IdxVolume.
        let meta2d = IdxMeta::new_2d(
            "flat",
            8,
            8,
            vec![Field::new("v", DType::F32).unwrap()],
            6,
            Codec::Raw,
        )
        .unwrap();
        assert!(IdxVolume::create(store.clone(), "x", meta2d).is_err());
        let (ds, _) = make_volume(8, 8, 8, Codec::Raw);
        assert!(ds.write_volume("v", 0, &Volume::<f32>::zeros(8, 8, 8)).is_err()); // bad field
        assert!(ds.write_volume("density", 0, &Volume::<f32>::zeros(4, 8, 8)).is_err()); // bad shape
        assert!(ds.read_full::<u16>("density", 0).is_err()); // bad dtype
        assert!(ds
            .read_box::<f32>("density", 0, Box3i::new(99, 99, 99, 120, 120, 120), 2)
            .is_err());
    }
}
