//! Statistics used across the stack: raster-accuracy metrics for the
//! TIFF-vs-IDX validation step (Fig. 6), streaming summaries for benchmarks,
//! histograms for the survey figures, and Likert aggregation.

use crate::dtype::Sample;
use crate::error::{NsdfError, Result};
use crate::raster::Raster;

/// Root-mean-square error between two equal-length slices.
pub fn rmse(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(NsdfError::invalid("rmse: length mismatch"));
    }
    if a.is_empty() {
        return Err(NsdfError::invalid("rmse: empty input"));
    }
    let ss: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    Ok((ss / a.len() as f64).sqrt())
}

/// Maximum absolute difference between two equal-length slices.
pub(crate) fn max_abs_err(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(NsdfError::invalid("max_abs_err: length mismatch"));
    }
    Ok(a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max))
}

/// Peak signal-to-noise ratio in dB given a known dynamic range `peak`.
///
/// Returns `f64::INFINITY` for identical inputs.
pub(crate) fn psnr(a: &[f64], b: &[f64], peak: f64) -> Result<f64> {
    let r = rmse(a, b)?;
    if r == 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(20.0 * (peak / r).log10())
}

/// Accuracy report comparing a reconstructed raster against a reference —
/// the scientific-metric comparison in tutorial Step 3 (Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// Root-mean-square error.
    pub rmse: f64,
    /// Largest absolute per-sample deviation.
    pub max_abs_err: f64,
    /// Peak signal-to-noise ratio (dB), `inf` when bit-exact.
    pub psnr_db: f64,
    /// Dynamic range of the reference used as the PSNR peak.
    pub peak: f64,
    /// Number of samples compared.
    pub samples: usize,
}

impl AccuracyReport {
    /// Compare `candidate` against `reference` (must share shape).
    pub fn compare<T: Sample, U: Sample>(
        reference: &Raster<T>,
        candidate: &Raster<U>,
    ) -> Result<AccuracyReport> {
        if reference.shape() != candidate.shape() {
            return Err(NsdfError::invalid(format!(
                "accuracy compare: shape {:?} vs {:?}",
                reference.shape(),
                candidate.shape()
            )));
        }
        let a: Vec<f64> = reference.data().iter().map(|v| v.to_f64()).collect();
        let b: Vec<f64> = candidate.data().iter().map(|v| v.to_f64()).collect();
        let (lo, hi) = reference
            .min_max()
            .ok_or_else(|| NsdfError::invalid("accuracy compare: empty reference"))?;
        let peak = (hi - lo).max(f64::MIN_POSITIVE);
        Ok(AccuracyReport {
            rmse: rmse(&a, &b)?,
            max_abs_err: max_abs_err(&a, &b)?,
            psnr_db: psnr(&a, &b, peak)?,
            peak,
            samples: a.len(),
        })
    }

    /// True when the candidate is bit-identical to the reference.
    pub fn is_exact(&self) -> bool {
        self.max_abs_err == 0.0
    }
}

/// Streaming mean/variance/min/max via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Fold one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Percentile of a slice using linear interpolation between order statistics.
///
/// `q` is in `[0, 100]`. The input need not be sorted.
pub fn percentile(values: &[f64], q: f64) -> Result<f64> {
    if values.is_empty() {
        return Err(NsdfError::invalid("percentile of empty slice"));
    }
    if !(0.0..=100.0).contains(&q) {
        return Err(NsdfError::invalid(format!("percentile q={q} outside [0,100]")));
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let t = rank - lo as f64;
    Ok(sorted[lo] * (1.0 - t) + sorted[hi] * t)
}

/// Fixed-width histogram over a closed range.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Observations outside `[lo, hi]`.
    pub outliers: u64,
}

impl Histogram {
    /// Histogram with `bins` equal-width bins over `[lo, hi]`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if bins == 0 || hi <= lo || hi.is_nan() || lo.is_nan() {
            return Err(NsdfError::invalid("histogram needs bins>0 and hi>lo"));
        }
        Ok(Histogram { lo, hi, counts: vec![0; bins], outliers: 0 })
    }

    /// Record one observation. The upper edge is inclusive.
    pub fn push(&mut self, x: f64) {
        if x < self.lo || x > self.hi || x.is_nan() {
            self.outliers += 1;
            return;
        }
        let bins = self.counts.len();
        let idx = (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize;
        self.counts[idx.min(bins - 1)] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Render a one-line-per-bin ASCII bar chart (used by the `reproduce`
    /// harness to print the survey figures).
    pub fn ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let binw = (self.hi - self.lo) / self.counts.len() as f64;
        let mut s = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let lo = self.lo + i as f64 * binw;
            let bar = "#".repeat((c as usize * width).div_ceil(max as usize).min(width));
            s.push_str(&format!("{lo:8.2} | {bar} {c}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_and_max_err_basics() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 5.0];
        assert!((rmse(&a, &b).unwrap() - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(max_abs_err(&a, &b).unwrap(), 2.0);
        assert!(rmse(&a, &b[..2]).is_err());
        assert!(rmse(&[], &[]).is_err());
    }

    #[test]
    fn psnr_infinite_for_identical() {
        let a = [1.0, 2.0];
        assert_eq!(psnr(&a, &a, 1.0).unwrap(), f64::INFINITY);
        let b = [1.0, 2.1];
        assert!(psnr(&a, &b, 1.0).unwrap() > 0.0);
    }

    #[test]
    fn accuracy_report_exact_roundtrip() {
        let r = Raster::<f32>::from_fn(8, 8, |x, y| (x * y) as f32);
        let rep = AccuracyReport::compare(&r, &r.clone()).unwrap();
        assert!(rep.is_exact());
        assert_eq!(rep.psnr_db, f64::INFINITY);
        assert_eq!(rep.samples, 64);
    }

    #[test]
    fn accuracy_report_detects_error() {
        let r = Raster::<f32>::from_fn(4, 4, |x, _| x as f32);
        let mut c = r.clone();
        c.set(0, 0, 0.5);
        let rep = AccuracyReport::compare(&r, &c).unwrap();
        assert_eq!(rep.max_abs_err, 0.5);
        assert!(!rep.is_exact());
        assert!(rep.psnr_db.is_finite());
    }

    #[test]
    fn accuracy_report_shape_mismatch() {
        let a = Raster::<f32>::zeros(2, 2);
        let b = Raster::<f32>::zeros(3, 2);
        assert!(AccuracyReport::compare(&a, &b).is_err());
    }

    #[test]
    fn online_stats_matches_closed_form() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..37].iter().for_each(|&x| left.push(x));
        xs[37..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&v, 100.0).unwrap(), 4.0);
        assert_eq!(percentile(&v, 50.0).unwrap(), 2.5);
        assert!(percentile(&v, 101.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        for x in [0.5, 1.5, 2.5, 9.9, 10.0, -1.0, 11.0] {
            h.push(x);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 0, 2]);
        assert_eq!(h.outliers, 2);
        assert_eq!(h.total(), 5);
        assert!(Histogram::new(0.0, 0.0, 5).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn histogram_ascii_renders_each_bin() {
        let mut h = Histogram::new(0.0, 2.0, 2).unwrap();
        h.push(0.5);
        h.push(1.5);
        h.push(1.6);
        let s = h.ascii(10);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('#'));
    }
}
