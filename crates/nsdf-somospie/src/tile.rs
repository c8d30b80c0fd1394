//! Tile-local soil-moisture tasks for the DAG pipeline.
//!
//! The whole-raster [`crate::moisture`] path derives its truth field
//! from *global* DEM statistics (min/max relief, a correlated noise
//! field spanning the raster), so one edited pixel would dirty every
//! tile and incremental recompute could never skip work. This module is
//! the tile-task formulation: moisture over one tile is a pure function
//! of that tile's own terrain rasters and fixed pipeline constants
//! (configured relief, no stochastic noise), which makes a tile's
//! output — and therefore its content fingerprint — depend only on its
//! own inputs.

use crate::knn::KnnRegressor;
use crate::moisture::{features, northness};
use nsdf_util::{NsdfError, Raster, Result};

/// Parameters of the tile-local downscaling model.
#[derive(Debug, Clone, PartialEq)]
pub struct TileMoistureParams {
    /// Total relief (metres) used to normalise elevation — a pipeline
    /// constant shared by every tile, NOT derived from tile content.
    pub relief_m: f64,
    /// Train on every `sample_stride`-th cell in each direction.
    pub sample_stride: usize,
    /// Neighbours for the KNN predictor.
    pub k: usize,
}

impl Default for TileMoistureParams {
    fn default() -> Self {
        TileMoistureParams { relief_m: 4000.0, sample_stride: 4, k: 5 }
    }
}

impl TileMoistureParams {
    fn validate(&self) -> Result<()> {
        if !self.relief_m.is_finite() || self.relief_m <= 0.0 {
            return Err(NsdfError::invalid("relief_m must be positive"));
        }
        if self.sample_stride == 0 {
            return Err(NsdfError::invalid("sample_stride must be >= 1"));
        }
        if self.k == 0 {
            return Err(NsdfError::invalid("k must be >= 1"));
        }
        Ok(())
    }
}

fn check_shapes(elev: &Raster<f32>, slope: &Raster<f32>, aspect: &Raster<f32>) -> Result<()> {
    if elev.shape() != slope.shape() || elev.shape() != aspect.shape() {
        return Err(NsdfError::invalid(format!(
            "terrain rasters disagree: elev {:?} slope {:?} aspect {:?}",
            elev.shape(),
            slope.shape(),
            aspect.shape()
        )));
    }
    if elev.is_empty() {
        return Err(NsdfError::invalid("empty terrain tile"));
    }
    Ok(())
}

/// The tile-local "true" moisture surface: the [`crate::moisture`]
/// physics (valleys hold water, steep slopes drain, north faces stay
/// moist) evaluated pointwise against a *configured* relief constant and
/// without the stochastic noise term. Pointwise means the value at a
/// cell depends only on that cell's terrain — windowing commutes with
/// evaluation, which the tile tests pin down.
pub(crate) fn tile_truth(
    elev: &Raster<f32>,
    slope: &Raster<f32>,
    aspect: &Raster<f32>,
    relief_m: f64,
) -> Result<Raster<f32>> {
    check_shapes(elev, slope, aspect)?;
    if !relief_m.is_finite() || relief_m <= 0.0 {
        return Err(NsdfError::invalid("relief_m must be positive"));
    }
    let (w, h) = elev.shape();
    Ok(Raster::from_fn(w, h, |x, y| {
        let rel_elev = (elev.get(x, y) as f64 / relief_m).clamp(0.0, 1.0);
        let s = slope.get(x, y) as f64;
        let n = northness(aspect.get(x, y) as f64);
        let m = 0.35 - 0.20 * rel_elev - 0.06 * (s / 45.0).min(1.0) + 0.03 * n;
        m.clamp(0.02, 0.5) as f32
    }))
}

/// Result of downscaling one tile.
#[derive(Debug, Clone, PartialEq)]
pub struct TileMoisture {
    /// Predicted moisture over the tile.
    pub predicted: Raster<f32>,
    /// RMSE of the prediction against the tile-local truth.
    pub rmse: f64,
    /// Training points used.
    pub train_points: usize,
}

/// SOMOSPIE-style inference over one tile: sample the tile-local truth
/// on a stride grid (the "observations"), fit KNN on terrain features,
/// and predict every cell. Fully deterministic, no shared state — safe
/// to run as a parallel DAG task.
pub fn downscale_tile(
    elev: &Raster<f32>,
    slope: &Raster<f32>,
    aspect: &Raster<f32>,
    params: &TileMoistureParams,
) -> Result<TileMoisture> {
    params.validate()?;
    check_shapes(elev, slope, aspect)?;
    let truth = tile_truth(elev, slope, aspect, params.relief_m)?;
    let (w, h) = elev.shape();

    let mut train = Vec::new();
    for y in (0..h).step_by(params.sample_stride) {
        for x in (0..w).step_by(params.sample_stride) {
            train.push((features(x, y, elev, slope, aspect).to_vec(), truth.get(x, y) as f64));
        }
    }
    let model = KnnRegressor::fit(&train)?;
    let predicted = Raster::from_fn(w, h, |x, y| {
        model
            .predict(&features(x, y, elev, slope, aspect), params.k)
            .expect("feature dims are consistent") as f32
    });

    let ss: f64 = predicted
        .data()
        .iter()
        .zip(truth.data())
        .map(|(p, t)| (*p as f64 - *t as f64).powi(2))
        .sum();
    let rmse = (ss / truth.len() as f64).sqrt();
    Ok(TileMoisture { predicted, rmse, train_points: train.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_geotiled::{compute_terrain, DemConfig, Sun, TerrainParam};
    use nsdf_util::Box2i;

    fn terrain(dem: &Raster<f32>) -> (Raster<f32>, Raster<f32>, Raster<f32>) {
        (
            compute_terrain(dem, TerrainParam::Elevation, Sun::default()).unwrap(),
            compute_terrain(dem, TerrainParam::Slope, Sun::default()).unwrap(),
            compute_terrain(dem, TerrainParam::Aspect, Sun::default()).unwrap(),
        )
    }

    #[test]
    fn tile_truth_is_pointwise_local() {
        let dem = DemConfig::conus_like(64, 48, 3).generate();
        let (e, s, a) = terrain(&dem);
        let full = tile_truth(&e, &s, &a, 4000.0).unwrap();
        let win = Box2i::new(8, 8, 40, 32);
        let cropped = tile_truth(
            &e.window(win).unwrap(),
            &s.window(win).unwrap(),
            &a.window(win).unwrap(),
            4000.0,
        )
        .unwrap();
        // Windowing commutes with evaluation — the tile-locality the
        // incremental DAG relies on.
        assert_eq!(cropped.data(), full.window(win).unwrap().data());
        let (lo, hi) = full.min_max().unwrap();
        assert!(lo >= 0.02 - 1e-6 && hi <= 0.5 + 1e-6);
    }

    #[test]
    fn downscale_is_deterministic_and_accurate() {
        let dem = DemConfig::conus_like(48, 48, 21).generate();
        let (e, s, a) = terrain(&dem);
        let params = TileMoistureParams::default();
        let r1 = downscale_tile(&e, &s, &a, &params).unwrap();
        let r2 = downscale_tile(&e, &s, &a, &params).unwrap();
        assert_eq!(r1.predicted.data(), r2.predicted.data());
        assert_eq!(r1.train_points, 144); // ceil(48/4)^2
        assert!(r1.rmse < 0.02, "rmse {}", r1.rmse);
        let (lo, hi) = r1.predicted.min_max().unwrap();
        assert!(lo >= 0.0 && hi <= 0.55, "range [{lo}, {hi}]");
    }

    #[test]
    fn benchmark_sized_tile_equals_the_exhaustive_scan_bitwise() {
        // The `pipeline` benchmark's tile: 192x144, 48 x 36 = 1728 training
        // points, k = 5. The reference rebuilds the training set on its own
        // and ranks every training point for every pixel.
        let dem = DemConfig::conus_like(192, 144, 2024).generate();
        let (e, s, a) = terrain(&dem);
        let params = TileMoistureParams::default();
        let tile = downscale_tile(&e, &s, &a, &params).unwrap();
        assert_eq!(tile.train_points, 1728);

        let truth = tile_truth(&e, &s, &a, params.relief_m).unwrap();
        let mut train = Vec::new();
        for y in (0..144).step_by(params.sample_stride) {
            for x in (0..192).step_by(params.sample_stride) {
                train.push((features(x, y, &e, &s, &a).to_vec(), truth.get(x, y) as f64));
            }
        }
        let model = KnnRegressor::fit(&train).unwrap();
        let rows: Vec<usize> = (0..144).collect();
        let scan = nsdf_util::par::par_map(&rows, 2, |&y| {
            (0..192)
                .map(|x| model.predict_exhaustive(&features(x, y, &e, &s, &a), params.k) as f32)
                .collect::<Vec<f32>>()
        })
        .concat();
        let differing = tile
            .predicted
            .data()
            .iter()
            .zip(&scan)
            .filter(|(p, q)| p.to_bits() != q.to_bits())
            .count();
        assert_eq!(differing, 0, "of {} pixels", scan.len());
    }

    #[test]
    fn validation_errors() {
        let dem = DemConfig::conus_like(16, 16, 1).generate();
        let (e, s, a) = terrain(&dem);
        let small = e.window(Box2i::new(0, 0, 8, 8)).unwrap();
        assert!(downscale_tile(&small, &s, &a, &TileMoistureParams::default()).is_err());
        assert!(tile_truth(&e, &s, &a, 0.0).is_err());
        let bad = TileMoistureParams { sample_stride: 0, ..Default::default() };
        assert!(downscale_tile(&e, &s, &a, &bad).is_err());
        let bad_k = TileMoistureParams { k: 0, ..Default::default() };
        assert!(downscale_tile(&e, &s, &a, &bad_k).is_err());
    }
}
