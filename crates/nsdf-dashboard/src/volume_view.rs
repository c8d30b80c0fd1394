//! Volumetric exploration: a z-slider over a 3-D IDX dataset.
//!
//! The dashboard's slice tooling (paper §III-A) applied to volumes: the
//! explorer holds a field, timestep, resolution level, palette, and range,
//! and renders a "flythrough" playback that sweeps z-planes through the
//! volume — the volumetric analogue of the time slider's playback control.

use crate::colormap::Colormap;
use crate::render::{render, Image, RangeMode};
use nsdf_idx::{IdxVolume, QuerySession, SessionFrame};
use nsdf_util::obs::Obs;
use nsdf_util::{NsdfError, Result};
use parking_lot::Mutex;
use std::sync::Arc;

/// Interactive slice view over an [`IdxVolume`].
///
/// Slices are frames of a lazily created [`QuerySession`] on the volume:
/// the coarse blocks adjacent z-planes share stay resident, so a
/// flythrough sweep refetches only what each new plane actually adds.
pub struct VolumeExplorer {
    volume: Arc<IdxVolume>,
    session: Mutex<Option<QuerySession<f32>>>,
    obs_root: Obs,
    field: String,
    time: u32,
    level: u32,
    colormap: Colormap,
    range: RangeMode,
}

impl VolumeExplorer {
    /// Explore `volume` at full resolution, viridis, dynamic range.
    pub fn new(volume: Arc<IdxVolume>) -> VolumeExplorer {
        let field = volume.meta().fields[0].name.clone();
        let level = volume.max_level();
        VolumeExplorer {
            volume,
            session: Mutex::new(None),
            obs_root: Obs::default(),
            field,
            time: 0,
            level,
            colormap: Colormap::Viridis,
            range: RangeMode::Dynamic,
        }
    }

    /// Report the explorer's session counters (`session.*`) into a shared
    /// registry. Drops any existing session so it re-registers.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs_root = obs.clone();
        *self.session.lock() = None;
    }

    /// The frame of plane `z` at the current field, timestep and level,
    /// through the slice session (created lazily).
    fn slice(&self, z: i64) -> Result<SessionFrame<f32>> {
        let mut guard = self.session.lock();
        if guard.is_none() {
            *guard = Some(self.volume.session::<f32>(&self.field)?.with_obs(&self.obs_root));
        }
        let session = guard.as_mut().expect("session just created");
        session.set_field(&self.field)?;
        session.set_time(self.time)?;
        session.set_slice(z)?;
        session.frame_at(self.level)
    }

    /// Depth of the volume (number of z-slices).
    pub fn depth(&self) -> i64 {
        self.volume.bounds().z1
    }

    /// Select the displayed field.
    pub fn select_field(&mut self, field: &str) -> Result<()> {
        self.volume.meta().field_index(field)?;
        self.field = field.to_string();
        Ok(())
    }

    /// Set the resolution level (clamped to the volume's maximum).
    pub fn set_level(&mut self, level: u32) {
        self.level = level.min(self.volume.max_level());
    }

    /// Current resolution level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Choose the palette.
    pub fn set_colormap(&mut self, c: Colormap) {
        self.colormap = c;
    }

    /// Choose the range mode.
    pub fn set_range(&mut self, r: RangeMode) {
        self.range = r;
    }

    /// Select the timestep.
    pub fn set_time(&mut self, t: u32) -> Result<()> {
        if t >= self.volume.meta().timesteps {
            return Err(NsdfError::invalid("timestep out of range"));
        }
        self.time = t;
        Ok(())
    }

    /// Flythrough: render `count` slices evenly spaced through the volume
    /// (the playback walkthrough along z instead of time; one slice is the
    /// middle plane). Returns the slice depths with their images. All planes share one session, so
    /// blocks spanning several z-planes are fetched once for the sweep.
    pub fn flythrough(&self, count: usize) -> Result<Vec<(i64, Image)>> {
        if count == 0 {
            return Err(NsdfError::invalid("flythrough needs at least one slice"));
        }
        let depth = self.depth();
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let z =
                if count == 1 { depth / 2 } else { i as i64 * (depth - 1) / (count as i64 - 1) };
            out.push((z, render(&self.slice(z)?.raster, self.colormap, self.range)?));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_compress::Codec;
    use nsdf_idx::{Field, IdxMeta};
    use nsdf_storage::{MemoryStore, ObjectStore};
    use nsdf_util::{DType, Volume};

    fn explorer() -> VolumeExplorer {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let meta = IdxMeta::new_3d(
            "vol",
            16,
            16,
            8,
            vec![Field::new("density", DType::F32).unwrap()],
            6,
            Codec::Raw,
        )
        .unwrap();
        let ds = IdxVolume::create(store, "v", meta).unwrap();
        let data = Volume::from_fn(16, 16, 8, |x, y, z| (x + y + 100 * z) as f32);
        ds.write_volume("density", 0, &data).unwrap();
        VolumeExplorer::new(Arc::new(ds))
    }

    #[test]
    fn starts_at_middle_slice() {
        let e = explorer();
        assert_eq!(e.depth(), 8);
        assert_eq!(e.flythrough(1).unwrap()[0].0, 4);
        assert_eq!(e.level(), 11); // 16*16*8 = 2^11 addresses
    }

    #[test]
    fn renders_the_selected_plane() {
        let mut e = explorer();
        e.set_range(RangeMode::Manual(0.0, 800.0));
        let frames = e.flythrough(2).unwrap();
        let ((z0, img0), (z7, img7)) = (&frames[0], &frames[1]);
        assert_eq!((*z0, *z7), (0, 7));
        assert_eq!((img0.width, img0.height), (16, 16));
        // Different planes (offset 100*z) must render differently.
        assert_ne!(img0.rgb, img7.rgb);
    }

    #[test]
    fn coarse_level_shrinks_slice() {
        let mut e = explorer();
        e.set_level(e.level() - 2);
        let (_, img) = &e.flythrough(1).unwrap()[0];
        assert!(img.width < 16);
    }

    #[test]
    fn flythrough_sweeps_the_volume() {
        let e = explorer();
        let frames = e.flythrough(4).unwrap();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0].0, 0);
        assert_eq!(frames[3].0, 7);
        assert!(frames.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(e.flythrough(0).is_err());
    }

    #[test]
    fn field_and_time_validation() {
        let mut e = explorer();
        assert!(e.select_field("density").is_ok());
        assert!(e.select_field("pressure").is_err());
        assert!(e.set_time(0).is_ok());
        assert!(e.set_time(1).is_err());
    }
}
