//! Soil-moisture downscaling: the SOMOSPIE use case (paper §I, ref \[8\]).
//!
//! SOMOSPIE predicts fine-resolution soil moisture from coarse satellite
//! retrievals (ESA-CCI class, ~27 km) using terrain parameters as
//! predictors. Real retrievals are gated data; `SyntheticTruth` builds a
//! fine-resolution "true" moisture field as a physically plausible function
//! of terrain (wetter in valleys and on gentle north-facing slopes, plus
//! correlated noise), degrades it to a coarse grid like the satellite
//! would, and the downscaler must reconstruct the fine field from terrain
//! predictors — the exact inference task, with the bonus that ground truth
//! is known everywhere so accuracy is measurable.

use crate::knn::KnnRegressor;
use nsdf_geotiled::{compute_terrain, Sun, TerrainParam};
use nsdf_util::{derive_seed, NsdfError, Raster, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Aspect encoded as "northness" so the circular variable is continuous;
/// flat cells (which the aspect kernel marks -1) get 0.
pub(crate) fn northness(aspect_deg: f64) -> f64 {
    if aspect_deg < 0.0 {
        0.0
    } else {
        aspect_deg.to_radians().cos()
    }
}

/// Feature vector at one cell: (x, y, elevation, slope, aspect-northness).
pub(crate) fn features(
    x: usize,
    y: usize,
    elev: &Raster<f32>,
    slope: &Raster<f32>,
    aspect: &Raster<f32>,
) -> [f64; 5] {
    [
        x as f64,
        y as f64,
        elev.get(x, y) as f64,
        slope.get(x, y) as f64,
        northness(aspect.get(x, y) as f64),
    ]
}

/// Ground truth generator and its derived products.
#[derive(Debug)]
pub struct SyntheticTruth {
    /// Fine-resolution "true" volumetric soil moisture in `[0, 0.5]`.
    pub fine_truth: Raster<f32>,
    /// Terrain predictors at fine resolution.
    pub elevation: Raster<f32>,
    /// Slope (degrees).
    pub slope: Raster<f32>,
    /// Aspect (degrees, -1 flat).
    pub aspect: Raster<f32>,
    /// Coarse satellite-like observation (block means of the truth).
    pub coarse_obs: Raster<f32>,
    /// Coarsening factor between truth and observation grids.
    pub factor: u32,
}

impl SyntheticTruth {
    /// Build truth + observations from a DEM.
    ///
    /// `factor` is the resolution gap (ESA-CCI over 30 m terrain would be
    /// ~900; tests use small factors for speed — the geometry is the same).
    pub fn from_dem(dem: &Raster<f32>, factor: u32, seed: u64) -> Result<SyntheticTruth> {
        if factor < 2 {
            return Err(NsdfError::invalid("coarsening factor must be >= 2"));
        }
        let (w, h) = dem.shape();
        if (w as u32) < factor || (h as u32) < factor {
            return Err(NsdfError::invalid("DEM smaller than one coarse cell"));
        }
        let elevation = dem.clone();
        let slope = compute_terrain(dem, TerrainParam::Slope, Sun::default())?;
        let aspect = compute_terrain(dem, TerrainParam::Aspect, Sun::default())?;
        let (lo, hi) = elevation.min_max().ok_or_else(|| NsdfError::invalid("empty DEM"))?;
        let span = (hi - lo).max(1e-9);

        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "moisture-noise"));
        let mut noise_field = Raster::<f32>::zeros(w, h);
        for v in noise_field.data_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        // Smooth the noise so it is spatially correlated like real residuals.
        let noise = noise_field.downsample_mean(4).resize_bilinear(w, h);

        let fine_truth = Raster::from_fn(w, h, |x, y| {
            let rel_elev = (elevation.get(x, y) as f64 - lo) / span; // 0 valley .. 1 peak
            let s = slope.get(x, y) as f64;
            // Valleys hold water; steep slopes drain (effect saturating at
            // 45°); north faces stay moist.
            let m = 0.35 - 0.20 * rel_elev - 0.06 * (s / 45.0).min(1.0)
                + 0.03 * northness(aspect.get(x, y) as f64)
                + 0.02 * noise.get(x, y) as f64;
            m.clamp(0.02, 0.5) as f32
        });
        let coarse_obs = fine_truth.downsample_mean(factor);
        Ok(SyntheticTruth { fine_truth, elevation, slope, aspect, coarse_obs, factor })
    }
}

/// Result of one downscaling run.
#[derive(Debug, Clone, PartialEq)]
pub struct DownscaleReport {
    /// Predicted fine-resolution moisture.
    pub predicted: Raster<f32>,
    /// RMSE of the prediction against the withheld fine truth.
    pub rmse: f64,
    /// RMSE of the naive baseline (bilinear upsampling of the coarse
    /// observation) against the same truth.
    pub baseline_rmse: f64,
    /// Training points used.
    pub train_points: usize,
}

/// SOMOSPIE-style downscaling: train KNN on coarse observations located at
/// coarse-cell centres with fine-grid terrain features, then predict every
/// fine cell.
pub fn downscale_knn(truth: &SyntheticTruth, k: usize) -> Result<DownscaleReport> {
    let (w, h) = truth.fine_truth.shape();
    let f = truth.factor as usize;

    // Training set: one sample per coarse cell, features taken at the
    // fine-grid centre of that cell.
    let mut train = Vec::new();
    for cy in 0..truth.coarse_obs.height() {
        for cx in 0..truth.coarse_obs.width() {
            let x = (cx * f + f / 2).min(w - 1);
            let y = (cy * f + f / 2).min(h - 1);
            train.push((
                features(x, y, &truth.elevation, &truth.slope, &truth.aspect).to_vec(),
                truth.coarse_obs.get(cx, cy) as f64,
            ));
        }
    }
    let model = KnnRegressor::fit(&train)?;

    let predicted = Raster::from_fn(w, h, |x, y| {
        model
            .predict(&features(x, y, &truth.elevation, &truth.slope, &truth.aspect), k)
            .expect("feature dims are consistent") as f32
    });

    let rmse = rmse_between(&predicted, &truth.fine_truth);
    let baseline = truth.coarse_obs.resize_bilinear(w, h);
    let baseline_rmse = rmse_between(&baseline, &truth.fine_truth);
    Ok(DownscaleReport { predicted, rmse, baseline_rmse, train_points: train.len() })
}

fn rmse_between(a: &Raster<f32>, b: &Raster<f32>) -> f64 {
    let ss: f64 = a.data().iter().zip(b.data()).map(|(x, y)| (*x as f64 - *y as f64).powi(2)).sum();
    (ss / a.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_geotiled::DemConfig;

    fn truth() -> SyntheticTruth {
        let dem = DemConfig::conus_like(96, 96, 17).generate();
        SyntheticTruth::from_dem(&dem, 8, 17).unwrap()
    }

    #[test]
    fn truth_is_physical() {
        let t = truth();
        let (lo, hi) = t.fine_truth.min_max().unwrap();
        // f32 rounding can land a hair below the f64 clamp bound.
        assert!(lo >= 0.0199 && hi <= 0.5001, "range [{lo}, {hi}]");
        assert_eq!(t.coarse_obs.shape(), (12, 12));
        // Moisture anti-correlates with elevation: compare low vs high cells.
        let mut low_m = vec![];
        let mut high_m = vec![];
        let (elo, ehi) = t.elevation.min_max().unwrap();
        for (x, y, e) in t.elevation.iter_cells() {
            let rel = (e as f64 - elo) / (ehi - elo);
            if rel < 0.2 {
                low_m.push(t.fine_truth.get(x, y) as f64);
            } else if rel > 0.8 {
                high_m.push(t.fine_truth.get(x, y) as f64);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&low_m) > mean(&high_m) + 0.05);
    }

    #[test]
    fn truth_is_deterministic() {
        let a = truth();
        let b = truth();
        assert_eq!(a.fine_truth.data(), b.fine_truth.data());
    }

    #[test]
    fn knn_downscaling_beats_bilinear_baseline() {
        let t = truth();
        let report = downscale_knn(&t, 5).unwrap();
        assert!(
            report.rmse < report.baseline_rmse,
            "knn {} vs baseline {}",
            report.rmse,
            report.baseline_rmse
        );
        assert!(report.rmse < 0.05, "rmse {}", report.rmse);
        assert_eq!(report.train_points, 144);
        assert_eq!(report.predicted.shape(), t.fine_truth.shape());
    }

    #[test]
    fn predictions_stay_in_physical_range() {
        let t = truth();
        let report = downscale_knn(&t, 3).unwrap();
        let (lo, hi) = report.predicted.min_max().unwrap();
        assert!(lo >= 0.0 && hi <= 0.55, "range [{lo}, {hi}]");
    }

    #[test]
    fn validation_errors() {
        let dem = DemConfig::conus_like(16, 16, 1).generate();
        assert!(SyntheticTruth::from_dem(&dem, 1, 1).is_err());
        assert!(SyntheticTruth::from_dem(&dem, 32, 1).is_err());
    }
}
