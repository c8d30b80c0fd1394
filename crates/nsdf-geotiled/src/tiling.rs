//! GEOtiled-style tiled, parallel terrain computation (paper §IV-A, Fig. 5).
//!
//! GEOtiled's contribution is that terrain parameters over very large DEMs
//! can be computed per tile — in parallel, bounded-memory — *without losing
//! accuracy*, by giving each tile a halo (buffer) of neighbouring pixels at
//! least as wide as the kernel stencil and cropping it after computation.
//! `compute_terrain_tiled` implements exactly that and the tests prove the
//! bit-exactness claim against the untiled kernel.

use crate::terrain::{compute_terrain, Sun, TerrainParam};
use nsdf_util::par::{num_threads, par_map};
use nsdf_util::{Box2i, NsdfError, Raster, Result};

/// Tiling plan for a DEM.
#[derive(Debug, Clone, PartialEq)]
pub struct TilePlan {
    /// Tile grid columns.
    pub tiles_x: usize,
    /// Tile grid rows.
    pub tiles_y: usize,
    /// Halo width in pixels added on every tile side (clamped at the DEM
    /// border).
    pub halo: usize,
}

impl TilePlan {
    /// Regular `tiles_x x tiles_y` grid with the given halo.
    pub fn new(tiles_x: usize, tiles_y: usize, halo: usize) -> Result<TilePlan> {
        if tiles_x == 0 || tiles_y == 0 {
            return Err(NsdfError::invalid("tile grid must be non-empty"));
        }
        Ok(TilePlan { tiles_x, tiles_y, halo })
    }

    /// Interior (un-haloed) box of tile `(tx, ty)` for a `w x h` DEM.
    /// Remainder pixels go to the last row/column of tiles.
    pub fn tile_box(&self, w: usize, h: usize, tx: usize, ty: usize) -> Box2i {
        let bw = w / self.tiles_x;
        let bh = h / self.tiles_y;
        let x0 = tx * bw;
        let y0 = ty * bh;
        let x1 = if tx + 1 == self.tiles_x { w } else { (tx + 1) * bw };
        let y1 = if ty + 1 == self.tiles_y { h } else { (ty + 1) * bh };
        Box2i::new(x0 as i64, y0 as i64, x1 as i64, y1 as i64)
    }

    /// All tile interior boxes in row-major tile order.
    pub fn tiles(&self, w: usize, h: usize) -> Vec<Box2i> {
        let mut out = Vec::with_capacity(self.tiles_x * self.tiles_y);
        for ty in 0..self.tiles_y {
            for tx in 0..self.tiles_x {
                out.push(self.tile_box(w, h, tx, ty));
            }
        }
        out
    }
}

/// Per-run accounting for the tiled pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TileRunStats {
    /// Tiles processed.
    pub tiles: usize,
    /// Total pixels computed including halo overlap.
    pub pixels_computed: u64,
    /// Pixels in the output mosaic.
    pub pixels_output: u64,
}

impl TileRunStats {
    /// Fraction of extra computation due to halos (0 = none).
    pub fn halo_overhead(&self) -> f64 {
        if self.pixels_output == 0 {
            0.0
        } else {
            self.pixels_computed as f64 / self.pixels_output as f64 - 1.0
        }
    }
}

/// Compute a terrain parameter tile by tile with halos, in parallel, and
/// mosaic the result.
///
/// With `plan.halo >= 1` (Horn's stencil reaches one pixel) the result is
/// bit-identical to
/// [`compute_terrain`] on the whole DEM; with `halo = 0` tile borders use
/// clamped (wrong) neighbours — kept available because it is the ablation
/// the accuracy claim is measured against.
pub fn compute_terrain_tiled(
    dem: &Raster<f32>,
    param: TerrainParam,
    sun: Sun,
    plan: &TilePlan,
    threads: usize,
) -> Result<(Raster<f32>, TileRunStats)> {
    let (w, h) = dem.shape();
    if w == 0 || h == 0 {
        return Err(NsdfError::invalid("empty DEM"));
    }
    if plan.tiles_x > w || plan.tiles_y > h {
        return Err(NsdfError::invalid(format!(
            "tile grid {}x{} exceeds DEM {w}x{h}",
            plan.tiles_x, plan.tiles_y
        )));
    }
    let tiles = plan.tiles(w, h);
    let halo = plan.halo as i64;
    let bounds = dem.bounds();

    let results = par_map(&tiles, threads.max(1).min(num_threads() * 4), |interior| {
        let padded =
            interior.inflate(halo).intersect(&bounds).expect("tile intersects its own DEM");
        let tile_dem = dem.window(padded)?;
        let computed = compute_terrain(&tile_dem, param, sun)?;
        // Crop the halo back off.
        let crop = Box2i::new(
            interior.x0 - padded.x0,
            interior.y0 - padded.y0,
            interior.x1 - padded.x0,
            interior.y1 - padded.y0,
        );
        let cropped = computed.window(crop)?;
        Ok::<(Box2i, Raster<f32>, u64), NsdfError>((*interior, cropped, padded.area() as u64))
    });

    let mut mosaic = Raster::<f32>::zeros(w, h);
    let mut stats = TileRunStats { tiles: tiles.len(), ..Default::default() };
    for r in results {
        let (interior, cropped, computed_pixels) = r?;
        mosaic.paste(&cropped, interior.x0 as usize, interior.y0 as usize)?;
        stats.pixels_computed += computed_pixels;
    }
    stats.pixels_output = (w * h) as u64;
    mosaic.geo = dem.geo;
    Ok((mosaic, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dem::DemConfig;
    use nsdf_util::AccuracyReport;

    #[test]
    fn compute_all_returns_four_params() {
        let dem = DemConfig::conus_like(32, 32, 1).generate();
        let plan = TilePlan::new(2, 2, 1).unwrap();
        let all: Vec<(TerrainParam, Raster<f32>)> = TerrainParam::all()
            .into_iter()
            .map(|p| (p, compute_terrain_tiled(&dem, p, Sun::default(), &plan, 2).unwrap().0))
            .collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].0, TerrainParam::Elevation);
        assert_eq!(all[0].1.shape(), (32, 32));
    }

    #[test]
    fn tile_boxes_partition_the_dem() {
        let plan = TilePlan::new(3, 2, 1).unwrap();
        let tiles = plan.tiles(100, 37);
        assert_eq!(tiles.len(), 6);
        let total: i64 = tiles.iter().map(|b| b.area()).sum();
        assert_eq!(total, 100 * 37);
        // Disjointness.
        for (i, a) in tiles.iter().enumerate() {
            for b in tiles.iter().skip(i + 1) {
                assert_eq!(a.intersect(b), None);
            }
        }
        // Remainder handled by the last column/row.
        assert_eq!(tiles[2].x1, 100);
        assert_eq!(tiles[5].y1, 37);
    }

    #[test]
    fn tiled_equals_untiled_with_safe_halo() {
        let dem = DemConfig::conus_like(128, 96, 5).generate();
        let reference = compute_terrain(&dem, TerrainParam::Slope, Sun::default()).unwrap();
        for (tx, ty) in [(1, 1), (2, 2), (4, 3), (8, 8)] {
            let plan = TilePlan::new(tx, ty, 1).unwrap();
            let (tiled, stats) =
                compute_terrain_tiled(&dem, TerrainParam::Slope, Sun::default(), &plan, 4).unwrap();
            assert_eq!(tiled.data(), reference.data(), "grid {tx}x{ty}");
            assert_eq!(stats.tiles, tx * ty);
        }
    }

    #[test]
    fn all_params_exact_under_tiling() {
        let dem = DemConfig::conus_like(64, 64, 9).generate();
        let plan = TilePlan::new(4, 4, 1).unwrap();
        for param in TerrainParam::all() {
            let reference = compute_terrain(&dem, param, Sun::default()).unwrap();
            let (tiled, _) = compute_terrain_tiled(&dem, param, Sun::default(), &plan, 4).unwrap();
            let rep = AccuracyReport::compare(&reference, &tiled).unwrap();
            assert!(rep.is_exact(), "{}: max err {}", param.name(), rep.max_abs_err);
        }
    }

    #[test]
    fn zero_halo_introduces_border_error() {
        let dem = DemConfig::conus_like(64, 64, 13).generate();
        let reference = compute_terrain(&dem, TerrainParam::Slope, Sun::default()).unwrap();
        let plan = TilePlan::new(4, 4, 0).unwrap();
        let (tiled, _) =
            compute_terrain_tiled(&dem, TerrainParam::Slope, Sun::default(), &plan, 4).unwrap();
        let rep = AccuracyReport::compare(&reference, &tiled).unwrap();
        assert!(!rep.is_exact(), "halo-0 should differ at tile seams");
    }

    #[test]
    fn halo_overhead_reported() {
        let dem = DemConfig::conus_like(64, 64, 2).generate();
        let plan = TilePlan::new(8, 8, 2).unwrap();
        let (_, stats) =
            compute_terrain_tiled(&dem, TerrainParam::Slope, Sun::default(), &plan, 2).unwrap();
        assert!(stats.halo_overhead() > 0.0);
        let plan1 = TilePlan::new(1, 1, 2).unwrap();
        let (_, stats1) =
            compute_terrain_tiled(&dem, TerrainParam::Slope, Sun::default(), &plan1, 1).unwrap();
        // A single tile has no interior seams; halo clamps at the border.
        assert_eq!(stats1.halo_overhead(), 0.0);
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let dem = DemConfig::conus_like(96, 64, 21).generate();
        let plan = TilePlan::new(4, 4, 1).unwrap();
        let (one, _) =
            compute_terrain_tiled(&dem, TerrainParam::Hillshade, Sun::default(), &plan, 1).unwrap();
        let (many, _) =
            compute_terrain_tiled(&dem, TerrainParam::Hillshade, Sun::default(), &plan, 8).unwrap();
        assert_eq!(one.data(), many.data());
    }

    #[test]
    fn bad_plans_rejected() {
        assert!(TilePlan::new(0, 1, 1).is_err());
        let dem = DemConfig::conus_like(8, 8, 1).generate();
        let plan = TilePlan::new(16, 1, 1).unwrap();
        assert!(compute_terrain_tiled(&dem, TerrainParam::Slope, Sun::default(), &plan, 1).is_err());
    }
}
