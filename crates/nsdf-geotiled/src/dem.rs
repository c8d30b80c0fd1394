//! Synthetic Digital Elevation Models.
//!
//! The tutorial's Step 1 collects USGS 30 m DEMs; those are proprietary-
//! scale downloads this reproduction replaces with deterministic synthetic
//! terrain (substitution documented in DESIGN.md). Two families:
//!
//! * **fractal** — diamond-square relief, statistically similar to real
//!   terrain, for benchmarks and visual workloads;
//! * **analytic** — inclined planes and Gaussian hills with closed-form
//!   gradients, which real DEMs cannot provide, making exact accuracy
//!   tests of the terrain kernels possible.

use nsdf_util::{derive_seed, Box2i, GeoTransform, Raster, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A localized elevation edit: add `delta_m` metres at pixel `(x, y)`.
///
/// Models a scientist correcting one DEM cell (a survey update, a void
/// fill) — the canonical trigger for incremental recompute: only the
/// tiles whose generation window contains the pixel change content.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemEdit {
    /// Pixel column in the full DEM.
    pub x: usize,
    /// Pixel row in the full DEM.
    pub y: usize,
    /// Elevation delta in metres (applied after relief normalisation).
    pub delta_m: f32,
}

impl DemEdit {
    /// True when the edit lands inside `window`.
    pub fn within(&self, window: &Box2i) -> bool {
        window.contains(self.x as i64, self.y as i64)
    }
}

/// Synthetic DEM family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DemKind {
    /// Diamond-square fractal terrain with the given roughness in `(0, 1]`.
    Fractal {
        /// Amplitude decay per octave; higher = rougher terrain.
        roughness: f64,
    },
    /// Plane `z = gx * x + gy * y + 100`, gradients in elevation units per
    /// pixel — closed-form slope and aspect.
    Plane {
        /// Gradient along +x (east), per pixel.
        gx: f64,
        /// Gradient along +y (raster row, i.e. south), per pixel.
        gy: f64,
    },
    /// Sum of `count` randomly placed Gaussian hills.
    Hills {
        /// Number of hills.
        count: usize,
    },
}

/// Configuration for DEM synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct DemConfig {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Master seed; every config field change or seed change gives a
    /// different but reproducible surface.
    pub seed: u64,
    /// Total relief (max - min) to normalise the surface to, in metres.
    pub relief_m: f64,
    /// Terrain family.
    pub kind: DemKind,
    /// Pixel size in metres (30.0 matches the tutorial's CONUS dataset).
    pub pixel_size_m: f64,
}

impl DemConfig {
    /// 30 m fractal terrain with CONUS-like relief, the default workload.
    pub fn conus_like(width: usize, height: usize, seed: u64) -> Self {
        DemConfig {
            width,
            height,
            seed,
            relief_m: 4000.0,
            kind: DemKind::Fractal { roughness: 0.55 },
            pixel_size_m: 30.0,
        }
    }

    /// Generate the DEM.
    pub fn generate(&self) -> Raster<f32> {
        assert!(self.width > 0 && self.height > 0, "DEM dims must be positive");
        let mut dem = match self.kind {
            DemKind::Fractal { roughness } => {
                fractal(self.width, self.height, self.seed, roughness)
            }
            DemKind::Plane { gx, gy } => Raster::from_fn(self.width, self.height, |x, y| {
                (gx * x as f64 + gy * y as f64 + 100.0) as f32
            }),
            DemKind::Hills { count } => hills(self.width, self.height, self.seed, count),
        };
        if matches!(self.kind, DemKind::Fractal { .. }) {
            // Diamond-square injects white noise down to single-pixel scale;
            // real 30 m DEMs are smooth at that scale (the sensor footprint
            // and production pipeline low-pass them). One 3x3 blur restores
            // that character — and with it the compressibility the paper's
            // ~20 % TIFF→IDX size reduction relies on.
            dem = box_blur3(&dem);
        }
        if !matches!(self.kind, DemKind::Plane { .. }) {
            normalise_relief(&mut dem, self.relief_m);
        }
        dem.with_geo(GeoTransform::north_up(0.0, 0.0, self.pixel_size_m))
    }

    /// Generate only `window` of the full DEM, with `edits` applied.
    ///
    /// The surface is synthesised globally (fractal normalisation needs
    /// the global min/max) and then cropped, so a window is always
    /// bit-identical to the same window of [`DemConfig::generate`] —
    /// that is what lets per-tile fingerprints detect that an edit left
    /// a tile's content unchanged. Edits outside `window` are ignored.
    pub fn generate_window(&self, window: Box2i, edits: &[DemEdit]) -> Result<Raster<f32>> {
        let mut dem = self.generate();
        for e in edits {
            if e.x < self.width && e.y < self.height {
                let v = dem.get(e.x, e.y) + e.delta_m;
                dem.set(e.x, e.y, v);
            }
        }
        dem.window(window)
    }
}

/// Diamond-square over the smallest `2^n + 1` square covering the target,
/// cropped to size.
fn fractal(width: usize, height: usize, seed: u64, roughness: f64) -> Raster<f32> {
    let target = width.max(height).max(2);
    let n = (target - 1).next_power_of_two().max(2);
    let side = n + 1;
    let mut grid = vec![0.0f64; side * side];
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, "dem-fractal"));

    let mut amplitude = 1.0f64;
    // Seed corners.
    for &(x, y) in &[(0, 0), (n, 0), (0, n), (n, n)] {
        grid[y * side + x] = rng.gen_range(-1.0..1.0);
    }
    let mut step = n;
    while step > 1 {
        let half = step / 2;
        // Diamond step.
        for y in (half..side).step_by(step) {
            for x in (half..side).step_by(step) {
                let avg = (grid[(y - half) * side + (x - half)]
                    + grid[(y - half) * side + (x + half)]
                    + grid[(y + half) * side + (x - half)]
                    + grid[(y + half) * side + (x + half)])
                    / 4.0;
                grid[y * side + x] = avg + rng.gen_range(-amplitude..amplitude);
            }
        }
        // Square step.
        for y in (0..side).step_by(half) {
            let x_start = if (y / half).is_multiple_of(2) { half } else { 0 };
            for x in (x_start..side).step_by(step) {
                let mut sum = 0.0;
                let mut cnt = 0.0;
                let coords: [(i64, i64); 4] = [
                    (x as i64 - half as i64, y as i64),
                    (x as i64 + half as i64, y as i64),
                    (x as i64, y as i64 - half as i64),
                    (x as i64, y as i64 + half as i64),
                ];
                for (cx, cy) in coords {
                    if cx >= 0 && cy >= 0 && (cx as usize) < side && (cy as usize) < side {
                        sum += grid[cy as usize * side + cx as usize];
                        cnt += 1.0;
                    }
                }
                grid[y * side + x] = sum / cnt + rng.gen_range(-amplitude..amplitude);
            }
        }
        amplitude *= roughness;
        step = half;
    }
    Raster::from_fn(width, height, |x, y| grid[y * side + x] as f32)
}

fn hills(width: usize, height: usize, seed: u64, count: usize) -> Raster<f32> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, "dem-hills"));
    let hills: Vec<(f64, f64, f64, f64)> = (0..count)
        .map(|_| {
            (
                rng.gen_range(0.0..width as f64),
                rng.gen_range(0.0..height as f64),
                rng.gen_range(width.min(height) as f64 / 16.0..width.min(height) as f64 / 4.0),
                rng.gen_range(0.3..1.0),
            )
        })
        .collect();
    Raster::from_fn(width, height, |x, y| {
        let mut z = 0.0;
        for &(cx, cy, sigma, amp) in &hills {
            let d2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
            z += amp * (-d2 / (2.0 * sigma * sigma)).exp();
        }
        z as f32
    })
}

/// One 3x3 box-blur pass with clamp-to-edge borders.
fn box_blur3(dem: &Raster<f32>) -> Raster<f32> {
    let (w, h) = dem.shape();
    Raster::from_fn(w, h, |x, y| {
        let mut acc = 0.0f64;
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                acc += dem.get_clamped(x as i64 + dx, y as i64 + dy) as f64;
            }
        }
        (acc / 9.0) as f32
    })
}

fn normalise_relief(dem: &mut Raster<f32>, relief_m: f64) {
    let Some((lo, hi)) = dem.min_max() else { return };
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    for v in dem.data_mut() {
        *v = (((*v as f64 - lo) / span) * relief_m) as f32;
    }
}

/// A Gaussian hill `z(x, y) = amp * exp(-((x-cx)^2 + (y-cy)^2) / (2 s^2))`
/// with its analytic gradient — the reference surface for kernel accuracy
/// tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct AnalyticHill {
    /// Hill centre x (pixels).
    pub cx: f64,
    /// Hill centre y (pixels).
    pub cy: f64,
    /// Standard deviation (pixels).
    pub sigma: f64,
    /// Peak height (elevation units).
    pub amp: f64,
}

#[cfg(test)]
impl AnalyticHill {
    /// Elevation at `(x, y)`.
    pub fn z(&self, x: f64, y: f64) -> f64 {
        let d2 = (x - self.cx).powi(2) + (y - self.cy).powi(2);
        self.amp * (-d2 / (2.0 * self.sigma * self.sigma)).exp()
    }

    /// Analytic gradient `(dz/dx, dz/dy)` at `(x, y)` (per pixel).
    pub fn gradient(&self, x: f64, y: f64) -> (f64, f64) {
        let z = self.z(x, y);
        let s2 = self.sigma * self.sigma;
        (-(x - self.cx) / s2 * z, -(y - self.cy) / s2 * z)
    }

    /// Rasterise over a `width x height` grid.
    pub fn rasterise(&self, width: usize, height: usize, pixel_size_m: f64) -> Raster<f32> {
        Raster::from_fn(width, height, |x, y| self.z(x as f64, y as f64) as f32)
            .with_geo(GeoTransform::north_up(0.0, 0.0, pixel_size_m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = DemConfig::conus_like(128, 96, 42);
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.data(), b.data());
        let c = DemConfig { seed: 43, ..cfg }.generate();
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn windowed_generation_matches_full_and_edits_stay_local() {
        let cfg = DemConfig::conus_like(96, 64, 9);
        let full = cfg.generate();
        let win = Box2i::new(24, 16, 48, 40);
        // No edits: the window is bit-identical to cropping the full DEM.
        let a = cfg.generate_window(win, &[]).unwrap();
        let b = full.window(win).unwrap();
        assert_eq!(a.data(), b.data());
        assert_eq!(a.geo, b.geo);

        // An edit inside the window shows up there and nowhere else.
        let edit = DemEdit { x: 30, y: 20, delta_m: 55.5 };
        assert!(edit.within(&win));
        let edited = cfg.generate_window(win, &[edit]).unwrap();
        assert!((edited.get(6, 4) - (a.get(6, 4) + 55.5)).abs() < 1e-3);
        let other = cfg.generate_window(Box2i::new(48, 16, 96, 40), &[edit]).unwrap();
        assert_eq!(other.data(), full.window(Box2i::new(48, 16, 96, 40)).unwrap().data());

        // Out-of-range edits are ignored, out-of-range windows rejected.
        let huge = DemEdit { x: 10_000, y: 0, delta_m: 1.0 };
        assert_eq!(cfg.generate_window(win, &[huge]).unwrap().data(), a.data());
        assert!(cfg.generate_window(Box2i::new(0, 0, 97, 64), &[]).is_err());
    }

    #[test]
    fn relief_is_normalised() {
        let dem = DemConfig::conus_like(64, 64, 7).generate();
        let (lo, hi) = dem.min_max().unwrap();
        assert!((lo - 0.0).abs() < 1e-3);
        assert!((hi - 4000.0).abs() < 1.0);
    }

    #[test]
    fn non_square_and_odd_sizes() {
        for (w, h) in [(100, 37), (1, 1), (257, 129)] {
            let dem = DemConfig::conus_like(w, h, 1).generate();
            assert_eq!(dem.shape(), (w, h));
            assert!(dem.data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn plane_has_exact_gradient() {
        let cfg = DemConfig {
            width: 32,
            height: 32,
            seed: 0,
            relief_m: 0.0,
            kind: DemKind::Plane { gx: 2.0, gy: -1.0 },
            pixel_size_m: 1.0,
        };
        let dem = cfg.generate();
        assert!((dem.get(5, 3) as f64 - (2.0 * 5.0 - 1.0 * 3.0 + 100.0)).abs() < 1e-4);
    }

    #[test]
    fn hills_are_smooth_and_positive() {
        let cfg = DemConfig {
            width: 96,
            height: 96,
            seed: 11,
            relief_m: 500.0,
            kind: DemKind::Hills { count: 6 },
            pixel_size_m: 30.0,
        };
        let dem = cfg.generate();
        let (lo, hi) = dem.min_max().unwrap();
        assert!(lo >= 0.0 && hi <= 500.5);
        // Smoothness: adjacent cells never jump more than a fraction of relief.
        for y in 0..95 {
            for x in 0..95 {
                let d = (dem.get(x + 1, y) - dem.get(x, y)).abs();
                assert!(d < 100.0, "jump {d} at ({x},{y})");
            }
        }
    }

    #[test]
    fn analytic_hill_gradient_matches_finite_difference() {
        let hill = AnalyticHill { cx: 20.0, cy: 24.0, sigma: 8.0, amp: 100.0 };
        let eps = 1e-5;
        for &(x, y) in &[(10.0, 10.0), (20.0, 24.0), (28.0, 18.0)] {
            let (gx, gy) = hill.gradient(x, y);
            let fx = (hill.z(x + eps, y) - hill.z(x - eps, y)) / (2.0 * eps);
            let fy = (hill.z(x, y + eps) - hill.z(x, y - eps)) / (2.0 * eps);
            assert!((gx - fx).abs() < 1e-6, "gx {gx} vs {fx}");
            assert!((gy - fy).abs() < 1e-6, "gy {gy} vs {fy}");
        }
    }

    #[test]
    fn dem_carries_geotransform() {
        let dem = DemConfig::conus_like(16, 16, 1).generate();
        let g = dem.geo.unwrap();
        assert_eq!(g.dx, 30.0);
        assert_eq!(g.dy, -30.0);
    }
}
