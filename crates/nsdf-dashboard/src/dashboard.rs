//! The headless dashboard engine.
//!
//! Every interaction the paper's dashboard walkthrough lists (§III-A) is a
//! method here: a dataset dropdown, field selection, a time slider with
//! playback and speed control, zoom/pan, horizontal/vertical slices, a
//! snipping tool that extracts a region as an array plus a Python script,
//! palette selection, manual/dynamic colormap ranges, and a resolution
//! slider. "Headless" means frames are returned as [`Image`]s instead of
//! being pushed to a browser — everything else behaves like the real thing,
//! including progressive streaming through the IDX store underneath.
//!
//! Fields are expected to be `float32` (the tutorial's terrain parameters).

use crate::colormap::Colormap;
use crate::render::{render, Image, RangeMode};
use nsdf_idx::{CancelToken, IdxDataset, QuerySession, QueryStats};
use nsdf_util::obs::Obs;
use nsdf_util::{Box2i, NsdfError, Result};
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Playback controller state (the time slider's play button and speed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Playback {
    /// Whether playback is running.
    pub playing: bool,
    /// Timesteps advanced per second of wall/virtual time.
    pub speed: f64,
    /// Fractional timestep accumulator.
    accum: f64,
}

impl Default for Playback {
    fn default() -> Self {
        Playback { playing: false, speed: 1.0, accum: 0.0 }
    }
}

/// Metadata about one rendered frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameInfo {
    /// Resolution level the frame was read at.
    pub level: u32,
    /// Raster shape backing the frame.
    pub raster_width: usize,
    /// Raster height backing the frame.
    pub raster_height: usize,
    /// IDX query accounting.
    pub stats: QueryStats,
}

/// Result of the snipping tool: the selected region as data plus a script
/// for later re-extraction (paper §III-A: "enabling the download of a
/// NumPy array or a Python script for future data extraction").
#[derive(Debug, Clone)]
pub struct Snippet {
    /// Extracted full-resolution data.
    pub raster: nsdf_util::Raster<f32>,
    /// The region extracted.
    pub region: Box2i,
    /// A Python script that would re-extract the same region via
    /// OpenVisusPy-style calls.
    pub python_script: String,
}

/// The dashboard.
pub struct Dashboard {
    datasets: BTreeMap<String, Arc<IdxDataset>>,
    /// One stateful [`QuerySession`] per registered dataset, created
    /// lazily — every render path goes through a session so pans, slices,
    /// playback, and progressive refinement share one gather buffer.
    sessions: Mutex<BTreeMap<String, QuerySession<f32>>>,
    selected: Option<String>,
    field: Option<String>,
    time: u32,
    region: Box2i,
    /// Levels subtracted from the auto-chosen resolution (the slider).
    resolution_bias: u32,
    /// Target viewport width/height in pixels.
    viewport_px: usize,
    colormap: Colormap,
    range: RangeMode,
    playback: Playback,
    obs: Obs,
    /// The unscoped registry sessions report into (`session.*` counters).
    obs_root: Obs,
    /// Shared-WAN admission scheduler, when the deployment is
    /// multi-tenant — feeds the per-tenant status section.
    scheduler: Mutex<Option<Arc<nsdf_storage::Scheduler>>>,
    /// Cache tiers fronting this deployment's endpoints, labelled —
    /// feeds the cache-tier status section.
    tiers: Mutex<Vec<(String, Arc<nsdf_storage::TierCache>)>>,
}

impl Dashboard {
    /// An empty dashboard with a `512 px` viewport, viridis, dynamic range.
    pub fn new() -> Dashboard {
        let base = Obs::default();
        Dashboard {
            datasets: BTreeMap::new(),
            sessions: Mutex::new(BTreeMap::new()),
            selected: None,
            field: None,
            time: 0,
            region: Box2i::new(0, 0, 1, 1),
            resolution_bias: 0,
            viewport_px: 512,
            colormap: Colormap::Viridis,
            range: RangeMode::Dynamic,
            playback: Playback::default(),
            obs: base.scoped("dashboard"),
            obs_root: base,
            scheduler: Mutex::new(None),
            tiers: Mutex::new(Vec::new()),
        }
    }

    /// Attach the shared-WAN admission scheduler serving this
    /// deployment's tenants; [`Dashboard::status`] then renders a
    /// per-tenant section (grants, bytes, queue waits, link busy time)
    /// from the scheduler's accounting.
    pub fn attach_scheduler(&self, sched: Arc<nsdf_storage::Scheduler>) {
        *self.scheduler.lock() = Some(sched);
    }

    /// Attach a cache tier hierarchy under `label` (typically the endpoint
    /// name it fronts); [`Dashboard::status`] then renders a cache-tier
    /// section with per-tier hits, residency, quarantines, and the exact
    /// RAM + disk + WAN == lookups reconciliation.
    pub fn attach_tiercache(&self, label: impl Into<String>, tier: Arc<nsdf_storage::TierCache>) {
        self.tiers.lock().push((label.into(), tier));
    }

    /// Report into a shared observability registry. Pass the same registry
    /// the datasets/stores were built with so the status view's span tree
    /// shows rendering, IDX, and storage activity on one timeline, and the
    /// sessions' `session.*` counters reconcile with the WAN counters.
    /// Existing sessions are dropped so they re-register on the new
    /// registry.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = obs.scoped("dashboard");
        self.obs_root = obs.clone();
        self.sessions.lock().clear();
    }

    /// The dashboard's observability handle (scope `dashboard`).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    // ---- dataset dropdown -------------------------------------------------

    /// Register a dataset under a display name.
    pub fn add_dataset(&mut self, name: impl Into<String>, ds: Arc<IdxDataset>) {
        self.datasets.insert(name.into(), ds);
    }

    /// Names in the dropdown, sorted.
    pub fn list_datasets(&self) -> Vec<String> {
        self.datasets.keys().cloned().collect()
    }

    /// Select a dataset; resets field, time, and viewport.
    pub fn select_dataset(&mut self, name: &str) -> Result<()> {
        let ds = self
            .datasets
            .get(name)
            .ok_or_else(|| NsdfError::not_found(format!("dataset {name:?}")))?;
        self.region = ds.bounds();
        self.field = Some(ds.meta().fields[0].name.clone());
        self.time = 0;
        self.selected = Some(name.to_string());
        Ok(())
    }

    fn current(&self) -> Result<&Arc<IdxDataset>> {
        let name =
            self.selected.as_ref().ok_or_else(|| NsdfError::invalid("no dataset selected"))?;
        Ok(&self.datasets[name])
    }

    /// Run `f` against the selected dataset's session, creating it lazily
    /// and syncing its field / time / viewport to the dashboard's current
    /// state first (a genuine change interrupts that session's in-flight
    /// refinement, exactly like a user interaction would).
    fn with_session<R>(&self, f: impl FnOnce(&mut QuerySession<f32>) -> Result<R>) -> Result<R> {
        let name =
            self.selected.as_ref().ok_or_else(|| NsdfError::invalid("no dataset selected"))?;
        let ds = &self.datasets[name];
        let field = self.field.as_ref().expect("field set on select");
        let mut sessions = self.sessions.lock();
        let session = match sessions.entry(name.clone()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                v.insert(QuerySession::<f32>::new(Arc::clone(ds), field)?.with_obs(&self.obs_root))
            }
        };
        session.set_field(field)?;
        session.set_time(self.time)?;
        session.set_view(self.region, 0, ds.max_level())?;
        f(session)
    }

    // ---- field dropdown ---------------------------------------------------

    /// Fields of the selected dataset.
    pub fn list_fields(&self) -> Result<Vec<String>> {
        Ok(self.current()?.meta().fields.iter().map(|f| f.name.clone()).collect())
    }

    /// Switch the displayed field.
    pub fn select_field(&mut self, field: &str) -> Result<()> {
        self.current()?.meta().field_index(field)?;
        self.field = Some(field.to_string());
        Ok(())
    }

    // ---- time slider & playback -------------------------------------------

    /// Number of timesteps in the selected dataset.
    pub fn timesteps(&self) -> Result<u32> {
        Ok(self.current()?.meta().timesteps)
    }

    /// Current timestep.
    pub fn time(&self) -> u32 {
        self.time
    }

    /// Move the time slider.
    pub fn set_time(&mut self, t: u32) -> Result<()> {
        let n = self.timesteps()?;
        if t >= n {
            return Err(NsdfError::invalid(format!("timestep {t} out of range 0..{n}")));
        }
        self.time = t;
        Ok(())
    }

    /// Start/stop playback.
    pub fn set_playing(&mut self, playing: bool) {
        self.playback.playing = playing;
    }

    /// Set playback speed (timesteps per second); must be finite and
    /// positive.
    pub fn set_speed(&mut self, speed: f64) -> Result<()> {
        if !(speed > 0.0 && speed.is_finite()) {
            return Err(NsdfError::invalid("playback speed must be finite and positive"));
        }
        self.playback.speed = speed;
        Ok(())
    }

    /// Current playback state.
    pub fn playback(&self) -> Playback {
        self.playback
    }

    /// Advance playback by `dt_secs`; wraps around the time range.
    /// Returns the (possibly unchanged) current timestep. A non-finite
    /// `dt_secs`, or one whose advance `dt_secs * speed` overflows, is
    /// `InvalidArg`; a non-positive one does nothing.
    ///
    /// While playing, advancing the timestep also speculatively prefetches
    /// the step after it (best effort) so steady playback renders from
    /// warm caches.
    pub fn tick(&mut self, dt_secs: f64) -> Result<u32> {
        let advance = dt_secs * self.playback.speed;
        if !advance.is_finite() {
            return Err(NsdfError::invalid("playback advance must be finite"));
        }
        if self.playback.playing && dt_secs > 0.0 {
            let n = self.timesteps()? as f64;
            self.playback.accum += advance;
            let steps = self.playback.accum.floor();
            if steps >= 1.0 {
                self.playback.accum -= steps;
                self.time = ((self.time as f64 + steps) % n) as u32;
                let _ = self.prefetch_next_time();
            }
        }
        Ok(self.time)
    }

    /// Speculatively warm the next timestep of the current viewport at the
    /// level playback would render it. Returns blocks resolved.
    pub(crate) fn prefetch_next_time(&self) -> Result<u64> {
        let n = self.timesteps()?;
        if n <= 1 {
            return Ok(0);
        }
        let next = (self.time + 1) % n;
        let level = self.min_renderable_level(self.auto_level()?)?;
        self.with_session(|s| s.prefetch_time(next, level))
    }

    /// Speculatively warm the neighbor viewport in the last pan direction
    /// at the level it would render at. Returns blocks resolved (0 when no
    /// pan has happened yet).
    pub fn prefetch_neighbors(&self) -> Result<u64> {
        let level = self.min_renderable_level(self.auto_level()?)?;
        self.with_session(|s| s.prefetch_pan_neighbor(level))
    }

    /// The cancel token guarding the selected dataset's in-flight session
    /// work — cancel it (or arm a virtual-clock deadline) to abandon
    /// refinement at the next fetch-wave boundary.
    pub fn cancel_token(&self) -> Result<CancelToken> {
        self.with_session(|s| Ok(s.cancel_token()))
    }

    // ---- viewport: zoom & pan ----------------------------------------------

    /// Current viewport region in dataset coordinates.
    pub fn region(&self) -> Box2i {
        self.region
    }

    /// Viewport target size in screen pixels.
    pub fn set_viewport_px(&mut self, px: usize) -> Result<()> {
        if px == 0 || px > 8192 {
            return Err(NsdfError::invalid("viewport must be 1..=8192 px"));
        }
        self.viewport_px = px;
        Ok(())
    }

    /// Zoom by `factor` (> 1 zooms in) about the viewport centre.
    pub fn zoom(&mut self, factor: f64) -> Result<()> {
        if factor <= 0.0 || factor.is_nan() {
            return Err(NsdfError::invalid("zoom factor must be positive"));
        }
        let bounds = self.current()?.bounds();
        let cx = (self.region.x0 + self.region.x1) as f64 / 2.0;
        let cy = (self.region.y0 + self.region.y1) as f64 / 2.0;
        let hw = (self.region.width() as f64 / (2.0 * factor)).max(1.0);
        let hh = (self.region.height() as f64 / (2.0 * factor)).max(1.0);
        let new = Box2i::new(
            (cx - hw).round() as i64,
            (cy - hh).round() as i64,
            (cx + hw).round() as i64,
            (cy + hh).round() as i64,
        );
        self.region = new.intersect(&bounds).unwrap_or(bounds);
        Ok(())
    }

    /// Pan by `(dx, dy)` dataset cells, clamped to the dataset bounds.
    pub fn pan(&mut self, dx: i64, dy: i64) -> Result<()> {
        let bounds = self.current()?.bounds();
        let (w, h) = (self.region.width(), self.region.height());
        let x0 = self.region.x0.saturating_add(dx).clamp(bounds.x0, bounds.x1 - w);
        let y0 = self.region.y0.saturating_add(dy).clamp(bounds.y0, bounds.y1 - h);
        self.region = Box2i::new(x0, y0, x0 + w, y0 + h);
        Ok(())
    }

    /// Reset the viewport to the full dataset.
    pub fn reset_view(&mut self) -> Result<()> {
        self.region = self.current()?.bounds();
        Ok(())
    }

    // ---- appearance --------------------------------------------------------

    /// Choose the palette.
    pub fn set_colormap(&mut self, c: Colormap) {
        self.colormap = c;
    }

    /// Choose the range mode (dynamic per frame, or fixed).
    pub fn set_range(&mut self, r: RangeMode) -> Result<()> {
        if let RangeMode::Manual(lo, hi) = r {
            if hi <= lo || hi.is_nan() || lo.is_nan() {
                return Err(NsdfError::invalid("manual range requires hi > lo"));
            }
        }
        self.range = r;
        Ok(())
    }

    /// Bias the auto resolution down by `levels` (the resolution slider;
    /// 0 = sharpest the viewport warrants).
    pub fn set_resolution_bias(&mut self, levels: u32) {
        self.resolution_bias = levels;
    }

    // ---- rendering ---------------------------------------------------------

    /// The level the auto-resolution logic would read the current viewport
    /// at (before progressive refinement): the coarsest level whose sample
    /// spacing still fills the viewport, minus the resolution bias.
    pub fn auto_level(&self) -> Result<u32> {
        let ds = self.current()?;
        let span = self.region.width().max(self.region.height()).max(1) as f64;
        // Want stride <= span / viewport_px.
        let want_stride = (span / self.viewport_px as f64).max(1.0);
        let mask = ds.curve().mask();
        let mut level = ds.max_level();
        for l in 0..=ds.max_level() {
            let s = mask.level_strides(l)?;
            if (s[0].max(s[1]) as f64) <= want_stride {
                level = l;
                break;
            }
        }
        Ok(level.saturating_sub(self.resolution_bias))
    }

    /// Render the current view at the auto-chosen level.
    pub fn render_frame(&self) -> Result<(Image, FrameInfo)> {
        self.render_at_level(self.auto_level()?)
    }

    /// Smallest level `>= level` whose `HzCurve::level_grid` over the
    /// current viewport is non-empty. A deeply zoomed region plus a large
    /// resolution bias can otherwise land between coarse samples and have
    /// nothing to draw; the dashboard always falls forward to the first
    /// level that does.
    fn min_renderable_level(&self, level: u32) -> Result<u32> {
        let ds = self.current()?;
        for l in level..=ds.max_level() {
            if ds.curve().level_grid(l, self.region.into())?.is_some() {
                return Ok(l);
            }
        }
        Ok(ds.max_level())
    }

    /// Render the current view at an explicit level (clamped up to the
    /// first renderable level for the viewport) through the dataset's
    /// session: blocks already delivered by coarser frames or pans of the
    /// same view are reused instead of refetched.
    pub fn render_at_level(&self, level: u32) -> Result<(Image, FrameInfo)> {
        let _frame_span = self.obs.span("frame");
        let level = self.min_renderable_level(level)?;
        let frame = self.with_session(|s| s.frame_at(level))?;
        let (rw, rh) = frame.raster.shape();
        let img = render(&frame.raster, self.colormap, self.range)?;
        self.obs.counter("frames").inc();
        self.obs.counter("pixels_rendered").add((rw * rh) as u64);
        self.obs.gauge("last_level").set(level as f64);
        Ok((img, FrameInfo { level, raster_width: rw, raster_height: rh, stats: frame.stats }))
    }

    /// Progressive refinement of the current view: frames from `start_level`
    /// up to the auto level — what a user sees while data streams in. Each
    /// frame reuses what the session's resident set holds, so the sequence
    /// fetches and decodes each block at most once.
    pub fn render_progressive(&self, start_level: u32) -> Result<Vec<(Image, FrameInfo)>> {
        let end = self.auto_level()?;
        let start = start_level.min(end);
        (start..=end).map(|l| self.render_at_level(l)).collect()
    }

    /// Flythrough: render `count` z-planes evenly spaced through the
    /// selected dataset's depth at `level` (clamped like
    /// [`Dashboard::render_at_level`]) — the playback walkthrough along z
    /// instead of time; one plane is the middle one, and a 2-D dataset has
    /// plane 0 only. Returns each plane's depth with its image. The planes
    /// are frames of the dataset's one session, so blocks spanning several
    /// planes are fetched once for the sweep; the session is back on plane
    /// 0, the plane every other view shows, when this returns.
    pub fn flythrough(&self, count: usize, level: u32) -> Result<Vec<(i64, Image)>> {
        if count == 0 {
            return Err(NsdfError::invalid("flythrough needs at least one plane"));
        }
        let depth = self.current()?.extent().z1;
        let level = self.min_renderable_level(level)?;
        self.with_session(|s| {
            let frames = (0..count as i64)
                .map(|i| {
                    let z =
                        if count == 1 { depth / 2 } else { i * (depth - 1) / (count as i64 - 1) };
                    s.set_slice(z)?;
                    Ok((z, render(&s.frame_at(level)?.raster, self.colormap, self.range)?))
                })
                .collect();
            s.set_slice(0)?;
            frames
        })
    }

    // ---- analysis tools ----------------------------------------------------

    /// Horizontal slice: the data profile along the row at fraction
    /// `fy in [0, 1]` of the current viewport, at the auto level.
    pub fn horizontal_slice(&self, fy: f64) -> Result<Vec<f64>> {
        if !(0.0..=1.0).contains(&fy) {
            return Err(NsdfError::invalid("slice fraction must be in [0, 1]"));
        }
        let level = self.min_renderable_level(self.auto_level()?)?;
        let frame = self.with_session(|s| s.frame_at(level))?;
        let raster = frame.raster;
        let y = ((raster.height() - 1) as f64 * fy).round() as usize;
        Ok(raster.row(y).iter().map(|&v| v as f64).collect())
    }

    /// Vertical slice at fraction `fx in [0, 1]` of the current viewport.
    pub fn vertical_slice(&self, fx: f64) -> Result<Vec<f64>> {
        if !(0.0..=1.0).contains(&fx) {
            return Err(NsdfError::invalid("slice fraction must be in [0, 1]"));
        }
        let level = self.min_renderable_level(self.auto_level()?)?;
        let frame = self.with_session(|s| s.frame_at(level))?;
        let raster = frame.raster;
        let x = ((raster.width() - 1) as f64 * fx).round() as usize;
        Ok((0..raster.height()).map(|y| raster.get(x, y) as f64).collect())
    }

    /// Snip a rectangle (in dataset coordinates) at full resolution. Goes
    /// through the session's one-shot read path so blocks the viewport
    /// already refined are reused.
    pub fn snip(&self, region: Box2i) -> Result<Snippet> {
        let ds = self.current()?;
        let field = self.field.as_ref().expect("field set on select");
        let max_level = ds.max_level();
        let region = region
            .intersect(&ds.bounds())
            .ok_or_else(|| NsdfError::invalid("snip region outside dataset"))?;
        let raster = self.with_session(|s| s.read_region(region, max_level))?.raster;
        let name = self.selected.as_deref().unwrap_or("dataset");
        let python_script = format!(
            concat!(
                "# Auto-generated by the NSDF dashboard snipping tool.\n",
                "# Re-extracts the selected region from the IDX dataset.\n",
                "import OpenVisus as ov\n",
                "db = ov.LoadDataset('{name}/dataset.idx')\n",
                "data = db.read(x=[{x0}, {x1}], y=[{y0}, {y1}], time={time}, field='{field}')\n",
                "print(data.shape)  # ({h}, {w})\n",
            ),
            name = name,
            x0 = region.x0,
            x1 = region.x1,
            y0 = region.y0,
            y1 = region.y1,
            time = self.time,
            field = field,
            w = raster.width(),
            h = raster.height(),
        );
        Ok(Snippet { raster, region, python_script })
    }

    // ---- status view -------------------------------------------------------

    /// The "status" view: a text panel summarising the current selection,
    /// the full metrics snapshot of the attached registry, and the recorded
    /// span tree attributing virtual (and wall) time across the dashboard,
    /// IDX, and storage layers. Only useful end to end when the dashboard
    /// and its datasets share one registry via [`Dashboard::set_obs`].
    pub fn status(&self) -> String {
        let mut out = String::new();
        out.push_str("== NSDF dashboard status ==\n");
        let _ = writeln!(out, "dataset:  {}", self.selected.as_deref().unwrap_or("<none>"));
        let _ = writeln!(out, "field:    {}", self.field.as_deref().unwrap_or("<none>"));
        let _ = writeln!(out, "time:     {}", self.time);
        let r = self.region;
        let _ = writeln!(out, "region:   [{}, {}) x [{}, {})", r.x0, r.x1, r.y0, r.y1);
        let _ = writeln!(out, "viewport: {} px, bias -{}", self.viewport_px, self.resolution_bias);
        out.push_str("\n-- metrics --\n");
        let snap = self.obs.snapshot();
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "{name} = {v}");
        }
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "{name} = {v}");
        }
        for (name, h) in &snap.histograms {
            let count: u64 = h.counts.iter().sum();
            let _ = writeln!(out, "{name}: count {count} sum {:.6}s", h.sum);
        }
        // Codec throughput summed over the registered datasets — wall-clock
        // counters live on the dataset handles (not in the registry, which
        // must stay deterministic across seeded replays).
        let mut tp = nsdf_idx::CodecThroughput::default();
        for ds in self.datasets.values() {
            tp.merge(&ds.codec_throughput());
        }
        if tp.encode_micros > 0 || tp.decode_micros > 0 {
            out.push_str("\n-- codec throughput (wall clock) --\n");
            if let Some(v) = tp.encode_mb_s() {
                let _ = writeln!(out, "encode: {v:.1} MB/s");
            }
            if let Some(v) = tp.decode_mb_s() {
                let _ = writeln!(out, "decode: {v:.1} MB/s");
            }
        }
        out.push_str("\n-- sessions --\n");
        let sessions = self.sessions.lock();
        if sessions.is_empty() {
            out.push_str("(no active sessions)\n");
        }
        for (name, s) in sessions.iter() {
            let st = s.stats();
            let _ = writeln!(
                out,
                "{name}: frames {} reused {} fetched {} cancelled {} prefetch hits {}/{} issued",
                st.frames,
                st.blocks_reused,
                st.blocks_fetched,
                st.cancelled,
                st.prefetch_hits,
                st.prefetch_issued,
            );
        }
        drop(sessions);
        if let Some(sched) = self.scheduler.lock().as_ref() {
            out.push_str("\n-- tenants --\n");
            out.push_str(&sched.render_status());
        }
        let tiers = self.tiers.lock();
        if !tiers.is_empty() {
            out.push_str("\n-- cache tiers --\n");
            for (label, tier) in tiers.iter() {
                let s = tier.tier_stats();
                let _ = writeln!(
                    out,
                    "{label}: lookups {} = ram {} + disk {} + wan {} | promoted {} quarantined \
                     {} | ram {}/{} B disk {}/{} B",
                    s.lookups,
                    s.ram_hits,
                    s.disk_hits,
                    s.wan_fetches,
                    s.promotions,
                    s.quarantined,
                    s.ram_resident_bytes,
                    s.ram_capacity,
                    s.disk_resident_bytes,
                    s.disk_capacity,
                );
            }
        }
        drop(tiers);
        out.push_str("\n-- spans --\n");
        out.push_str(&self.obs.render_spans());
        out
    }
}

impl Default for Dashboard {
    fn default() -> Self {
        Dashboard::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_compress::Codec;
    use nsdf_idx::{Field, IdxMeta};
    use nsdf_storage::{MemoryStore, ObjectStore};
    use nsdf_util::{DType, Raster};
    use proptest::prelude::*;

    fn dashboard_with_data() -> Dashboard {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let meta = IdxMeta::new_2d(
            "terrain",
            256,
            128,
            vec![
                Field::new("elevation", DType::F32).unwrap(),
                Field::new("slope", DType::F32).unwrap(),
            ],
            10,
            Codec::Raw,
        )
        .unwrap()
        .with_timesteps(4)
        .unwrap();
        let ds = IdxDataset::create(store, "dash/terrain", meta).unwrap();
        for t in 0..4 {
            let elev =
                Raster::<f32>::from_fn(256, 128, move |x, y| (x + y) as f32 + t as f32 * 1000.0);
            ds.write_raster("elevation", t, &elev).unwrap();
            ds.write_raster("slope", t, &elev.map(|v: f32| v * 0.1)).unwrap();
        }
        let mut d = Dashboard::new();
        d.add_dataset("conus", Arc::new(ds));
        d.select_dataset("conus").unwrap();
        d
    }

    #[test]
    fn dataset_and_field_dropdowns() {
        let mut d = dashboard_with_data();
        assert_eq!(d.list_datasets(), vec!["conus"]);
        assert_eq!(d.list_fields().unwrap(), vec!["elevation", "slope"]);
        d.select_field("slope").unwrap();
        assert!(d.select_field("aspect").is_err());
        assert!(d.select_dataset("missing").is_err());
    }

    #[test]
    fn render_frame_fills_viewport_scale() {
        let mut d = dashboard_with_data();
        d.set_viewport_px(128).unwrap();
        let (img, info) = d.render_frame().unwrap();
        assert_eq!(img.width, info.raster_width);
        // 256-wide dataset, 128 px viewport: stride 2 suffices.
        assert!(info.raster_width >= 128 && info.raster_width <= 256);
        assert!(info.stats.blocks_touched > 0);
    }

    #[test]
    fn zoom_raises_auto_level_detail() {
        let mut d = dashboard_with_data();
        d.set_viewport_px(128).unwrap();
        let coarse = d.auto_level().unwrap();
        d.zoom(4.0).unwrap();
        let fine = d.auto_level().unwrap();
        assert!(fine >= coarse, "zoomed level {fine} < overview level {coarse}");
        let r = d.region();
        assert!(r.width() <= 256 / 4 + 2);
    }

    #[test]
    fn pan_clamps_to_bounds() {
        let mut d = dashboard_with_data();
        d.zoom(4.0).unwrap();
        let w = d.region().width();
        d.pan(-10_000, -10_000).unwrap();
        assert_eq!(d.region().x0, 0);
        assert_eq!(d.region().y0, 0);
        assert_eq!(d.region().width(), w);
        d.pan(10_000, 10_000).unwrap();
        assert_eq!(d.region().x1, 256);
        assert_eq!(d.region().y1, 128);
        d.reset_view().unwrap();
        assert_eq!(d.region(), Box2i::new(0, 0, 256, 128));
    }

    #[test]
    fn a_huge_pan_lands_on_the_edge() {
        let mut d = dashboard_with_data();
        d.zoom(4.0).unwrap();
        let (w, h) = (d.region().width(), d.region().height());

        // Nothing lies beyond the edge a saturated pan lands on, so the
        // neighbor prefetch in the pan's direction finds nothing.
        d.pan(i64::MAX, 0).unwrap();
        assert_eq!((d.region().x1, d.region().width()), (256, w));
        assert_eq!(d.prefetch_neighbors().unwrap(), 0);
        d.pan(-w, 0).unwrap();
        assert!(d.prefetch_neighbors().unwrap() > 0, "a view lies to the left");
        d.pan(i64::MIN, 0).unwrap();
        assert_eq!((d.region().x0, d.region().width()), (0, w));
        assert_eq!(d.prefetch_neighbors().unwrap(), 0);
        d.pan(0, i64::MAX).unwrap();
        assert_eq!((d.region().y1, d.region().height()), (128, h));
        assert_eq!(d.prefetch_neighbors().unwrap(), 0);
        d.pan(0, i64::MIN).unwrap();
        assert_eq!((d.region().y0, d.region().height()), (0, h));
        assert_eq!(d.prefetch_neighbors().unwrap(), 0);
    }

    #[test]
    fn non_finite_playback_is_rejected() {
        let mut d = dashboard_with_data();
        for speed in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -1.0] {
            assert!(d.set_speed(speed).is_err(), "speed {speed}");
        }
        assert_eq!(d.playback().speed, 1.0);
        d.set_playing(true);
        for dt in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(d.tick(dt).is_err(), "dt {dt}");
        }
        // A finite speed and step whose product overflows.
        d.set_speed(f64::MAX).unwrap();
        assert!(d.tick(2.0).is_err());
        assert_eq!((d.time(), d.playback().accum), (0, 0.0));
        // A non-positive step does nothing; playback still advances.
        d.set_speed(1.0).unwrap();
        assert_eq!(d.tick(0.0).unwrap(), 0);
        assert_eq!(d.tick(-1.0).unwrap(), 0);
        assert_eq!(d.tick(1.0).unwrap(), 1);
        assert_eq!(d.tick(1.0).unwrap(), 2);
        assert_eq!(d.playback().accum, 0.0);
    }

    /// The stride arithmetic `min_renderable_level` ran before it asked
    /// `level_grid`: the first level from `level` on whose x and y strides
    /// put a sample inside the viewport.
    fn min_renderable_by_strides(d: &Dashboard, level: u32) -> u32 {
        let ds = d.current().unwrap();
        let mask = ds.curve().mask();
        let r = d.region;
        for l in level..=ds.max_level() {
            let strides = mask.level_strides(l).unwrap();
            let sx = strides[0] as i64;
            let sy = strides.get(1).copied().unwrap_or(1) as i64;
            let first_x =
                r.x0.max(0).div_euclid(sx) * sx + if r.x0.max(0) % sx == 0 { 0 } else { sx };
            let first_y =
                r.y0.max(0).div_euclid(sy) * sy + if r.y0.max(0) % sy == 0 { 0 } else { sy };
            if first_x < r.x1 && first_y < r.y1 {
                return l;
            }
        }
        ds.max_level()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn min_renderable_level_agrees_with_the_stride_arithmetic(
            dims in collection::vec(1u64..48, 2..=3),
            bits_per_block in 4u32..8,
            zoom in 1.0f64..48.0,
            pan in prop_oneof![
                (-64i64..64, -64i64..64),
                (any::<i64>(), any::<i64>()),
            ],
        ) {
            let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
            let fields = vec![Field::new("v", DType::F32).unwrap()];
            let meta = IdxMeta::new("g", &dims, fields, bits_per_block, Codec::Raw).unwrap();
            let mut d = Dashboard::new();
            d.add_dataset("g", Arc::new(IdxDataset::create(store, "g", meta).unwrap()));
            d.select_dataset("g").unwrap();
            d.zoom(zoom).unwrap();
            d.pan(pan.0, pan.1).unwrap();
            let max = d.current().unwrap().max_level();
            for level in 0..=max + 1 {
                prop_assert_eq!(
                    d.min_renderable_level(level).unwrap(),
                    min_renderable_by_strides(&d, level),
                    "level {} of {:?} over {:?}", level, d.region(), dims
                );
            }
        }
    }

    #[test]
    fn time_slider_and_playback() {
        let mut d = dashboard_with_data();
        assert_eq!(d.timesteps().unwrap(), 4);
        d.set_time(2).unwrap();
        assert!(d.set_time(4).is_err());
        // Frame content changes with time (offset +1000 per step) — use a
        // fixed range so the offset is visible through the colormap.
        d.set_range(RangeMode::Manual(0.0, 4000.0)).unwrap();
        let (img_t2, _) = d.render_frame().unwrap();
        d.set_time(0).unwrap();
        let (img_t0, _) = d.render_frame().unwrap();
        assert_ne!(img_t0.rgb, img_t2.rgb);

        d.set_playing(true);
        d.set_speed(2.0).unwrap(); // 2 steps/sec
        assert_eq!(d.tick(1.0).unwrap(), 2);
        assert_eq!(d.tick(1.0).unwrap(), 0); // wraps 4 -> 0
        d.set_playing(false);
        assert_eq!(d.tick(10.0).unwrap(), 0);
        assert!(d.set_speed(0.0).is_err());
    }

    #[test]
    fn progressive_rendering_refines() {
        let mut d = dashboard_with_data();
        d.set_viewport_px(256).unwrap();
        let frames = d.render_progressive(2).unwrap();
        assert!(frames.len() > 1);
        let mut prev = 0;
        for (_, info) in &frames {
            assert!(info.raster_width * info.raster_height >= prev);
            prev = info.raster_width * info.raster_height;
        }
    }

    #[test]
    fn resolution_bias_lowers_level() {
        let mut d = dashboard_with_data();
        let base = d.auto_level().unwrap();
        d.set_resolution_bias(3);
        assert_eq!(d.auto_level().unwrap(), base.saturating_sub(3));
    }

    #[test]
    fn slices_have_viewport_extent() {
        let d = dashboard_with_data();
        let h = d.horizontal_slice(0.5).unwrap();
        let v = d.vertical_slice(0.25).unwrap();
        assert!(!h.is_empty() && !v.is_empty());
        // Elevation x+y: horizontal slice strictly increasing.
        assert!(h.windows(2).all(|w| w[1] > w[0]));
        assert!(d.horizontal_slice(1.5).is_err());
    }

    #[test]
    fn snip_extracts_full_resolution_and_script() {
        let d = dashboard_with_data();
        let snip = d.snip(Box2i::new(10, 20, 42, 52)).unwrap();
        assert_eq!(snip.raster.shape(), (32, 32));
        assert_eq!(snip.raster.get(0, 0), 30.0); // x+y at (10,20)
        assert!(snip.python_script.contains("OpenVisus"));
        assert!(snip.python_script.contains("x=[10, 42]"));
        assert!(snip.python_script.contains("field='elevation'"));
        assert!(d.snip(Box2i::new(-50, -50, -10, -10)).is_err());
    }

    #[test]
    fn colormap_and_range_controls() {
        let mut d = dashboard_with_data();
        d.set_colormap(Colormap::Terrain);
        d.set_range(RangeMode::Manual(0.0, 500.0)).unwrap();
        assert!(d.set_range(RangeMode::Manual(5.0, 5.0)).is_err());
        let (img, _) = d.render_frame().unwrap();
        assert!(!img.rgb.is_empty());
    }

    #[test]
    fn frame_metrics_and_status_view() {
        let mut d = dashboard_with_data();
        let obs = Obs::default();
        d.set_obs(&obs);
        d.set_viewport_px(128).unwrap();
        let (_, info) = d.render_frame().unwrap();
        let frames = d.render_progressive(2).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("dashboard.frames"), 1 + frames.len() as u64);
        assert!(snap.counter("dashboard.pixels_rendered") > 0);
        assert_eq!(snap.gauge("dashboard.last_level"), info.level as f64);
        let status = d.status();
        assert!(status.contains("dataset:  conus"));
        assert!(status.contains("dashboard.frames ="));
        assert!(status.contains("dashboard.frame"), "span tree missing: {status}");
    }

    #[test]
    fn status_surfaces_codec_throughput() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let meta = IdxMeta::new_2d(
            "t",
            96,
            96,
            vec![Field::new("v", DType::F32).unwrap()],
            8,
            Codec::Lzss,
        )
        .unwrap();
        let obs = Obs::default();
        let ds = IdxDataset::create(store, "dash/t", meta).unwrap().with_obs(&obs);
        let r = Raster::<f32>::from_fn(96, 96, |x, y| (x * y) as f32);
        ds.write_raster("v", 0, &r).unwrap();
        ds.read_full::<f32>("v", 0).unwrap();
        let mut d = Dashboard::new();
        d.set_obs(&obs);
        d.add_dataset("t", Arc::new(ds));
        d.select_dataset("t").unwrap();
        let status = d.status();
        assert!(status.contains("codec throughput"), "missing throughput section: {status}");
        assert!(status.contains("encode:") && status.contains("decode:"), "{status}");
    }

    #[test]
    fn status_renders_tenants_when_scheduler_attached() {
        use nsdf_storage::{SchedConfig, Scheduler, TenantPolicy};
        use nsdf_util::SimClock;
        let d = dashboard_with_data();
        assert!(!d.status().contains("-- tenants --"));
        let sched = Arc::new(Scheduler::new(SimClock::new(), SchedConfig::default()));
        sched.register_tenant(1, "analyst", TenantPolicy::new(50_000_000, 8_000_000));
        d.attach_scheduler(sched);
        let status = d.status();
        assert!(status.contains("-- tenants --"), "missing tenants section: {status}");
        assert!(status.contains("analyst"), "missing tenant row: {status}");
    }

    #[test]
    fn status_renders_cache_tiers_when_attached() {
        use nsdf_storage::{MemoryStore, ObjectStore, TierCache};
        let d = dashboard_with_data();
        assert!(!d.status().contains("-- cache tiers --"));
        let wan: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        wan.put("blocks/a", b"payload").unwrap();
        let tier = Arc::new(TierCache::new(wan, 1 << 20));
        tier.get("blocks/a").unwrap();
        tier.get("blocks/a").unwrap();
        d.attach_tiercache("seal", Arc::clone(&tier));
        let status = d.status();
        assert!(status.contains("-- cache tiers --"), "missing tier section: {status}");
        assert!(
            status.contains("seal: lookups 2 = ram 1 + disk 0 + wan 1"),
            "missing tier reconciliation row: {status}"
        );
    }

    /// A 16 x 16 x 8 volume holding `x + y + 100 z`, selected.
    fn dashboard_with_volume() -> Dashboard {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let fields = vec![Field::new("density", DType::F32).unwrap()];
        let meta = IdxMeta::new("vol", &[16, 16, 8], fields, 6, Codec::Raw).unwrap();
        let ds = IdxDataset::create(store, "v", meta).unwrap();
        let data = nsdf_util::Volume::from_fn(16, 16, 8, |x, y, z| (x + y + 100 * z) as f32);
        ds.write_volume("density", 0, &data).unwrap();
        let mut d = Dashboard::new();
        d.add_dataset("vol", Arc::new(ds));
        d.select_dataset("vol").unwrap();
        d
    }

    #[test]
    fn starts_at_middle_slice() {
        let d = dashboard_with_volume();
        let ds = d.current().unwrap();
        assert_eq!(ds.extent().z1, 8);
        assert_eq!(ds.max_level(), 11); // 16*16*8 = 2^11 addresses
        assert_eq!(d.flythrough(1, 11).unwrap()[0].0, 4);
    }

    #[test]
    fn renders_the_selected_plane() {
        let mut d = dashboard_with_volume();
        d.set_range(RangeMode::Manual(0.0, 800.0)).unwrap();
        let frames = d.flythrough(2, 11).unwrap();
        let ((z0, img0), (z7, img7)) = (&frames[0], &frames[1]);
        assert_eq!((*z0, *z7), (0, 7));
        assert_eq!((img0.width, img0.height), (16, 16));
        // Different planes (offset 100*z) must render differently.
        assert_ne!(img0.rgb, img7.rgb);
        // The flythrough leaves the view on plane 0.
        assert_eq!(d.render_at_level(11).unwrap().0.rgb, img0.rgb);
    }

    #[test]
    fn coarse_level_shrinks_slice() {
        let d = dashboard_with_volume();
        let (_, img) = &d.flythrough(1, 11 - 2).unwrap()[0];
        assert!(img.width < 16);
    }

    #[test]
    fn flythrough_sweeps_the_volume() {
        let d = dashboard_with_volume();
        let frames = d.flythrough(4, 11).unwrap();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0].0, 0);
        assert_eq!(frames[3].0, 7);
        assert!(frames.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(d.flythrough(0, 11).is_err());
    }

    #[test]
    fn field_and_time_validation() {
        let mut d = dashboard_with_volume();
        assert!(d.select_field("density").is_ok());
        assert!(d.select_field("pressure").is_err());
        assert!(d.set_time(0).is_ok());
        assert!(d.set_time(1).is_err());
    }

    #[test]
    fn flythrough_of_a_flat_dataset_renders_plane_zero() {
        let d = dashboard_with_data();
        let level = d.auto_level().unwrap();
        let (want, _) = d.render_at_level(level).unwrap();
        let frames = d.flythrough(3, level).unwrap();
        assert_eq!(frames.len(), 3);
        for (z, img) in &frames {
            assert_eq!(*z, 0);
            assert_eq!(img.rgb, want.rgb);
        }
    }

    #[test]
    fn no_dataset_selected_errors() {
        let d = Dashboard::new();
        assert!(d.render_frame().is_err());
        assert!(d.list_fields().is_err());
    }
}
