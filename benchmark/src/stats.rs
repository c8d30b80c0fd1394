//! Order statistics the report is built from.
//!
//! Percentiles are nearest-rank (the value at rank `ceil(q·n)`), never
//! interpolated, so a reported latency is always one that was observed.
//! The tail percentile is p95, and the choosing-metrics rule — at least ten
//! samples beyond a reported tail — is checked on every full run.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at `q` in `(0, 1]`.
///
/// # Panics
/// On an empty slice — every caller reports a sample count next to the
/// percentile, and a percentile of nothing is a bug in the workload.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of percentile `q` among `n >= 1` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank position of `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n.max(1), q).min(n)
}

/// Median of an unsorted sample (lower middle for even counts, so the
/// result is always an observed value).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// Smallest and largest of a non-empty sample.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

/// Latency of one open-loop operation, measured from the moment it was
/// due, plus how late the generator started it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopSample {
    /// Virtual ns from the due time to completion — what a user who
    /// clicked on schedule waited, including any stall that delayed the
    /// start.
    pub latency_vns: u64,
    /// Virtual ns from the due time to the actual start (0 when on time).
    pub lateness_vns: u64,
}

impl OpenLoopSample {
    /// Account one operation due at `due`, started at `start >= due`
    /// (a generator never runs ahead of its schedule) and finished at
    /// `end >= start`.
    pub fn new(due_vns: u64, start_vns: u64, end_vns: u64) -> OpenLoopSample {
        debug_assert!(start_vns >= due_vns && end_vns >= start_vns);
        OpenLoopSample {
            latency_vns: end_vns.saturating_sub(due_vns),
            lateness_vns: start_vns.saturating_sub(due_vns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_observed_values() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.95), 95);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        // Ranks round up: p50 of five samples is the third.
        assert_eq!(nearest_rank(&[10, 20, 30, 40, 50], 0.5), 30);
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 0.5), 20);
        assert_eq!(nearest_rank(&[7], 0.95), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // n = 328 frames: p95 sits at rank 312, 16 beyond.
        assert_eq!(samples_beyond(328, 0.95), 16);
        // n = 192 tiles: p95 at rank 183 leaves 9 — one short; 200 is enough.
        assert!(samples_beyond(192, 0.95) < TAIL_SAMPLES_BEYOND);
        assert_eq!(samples_beyond(200, 0.95), TAIL_SAMPLES_BEYOND);
        assert_eq!((samples_beyond(1000, 0.99), samples_beyond(40, 0.75)), (10, 10));
        assert_eq!((samples_beyond(1, 0.95), samples_beyond(0, 0.95)), (0, 0));
    }

    #[test]
    fn median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // On time: latency is the service time, no lateness.
        assert_eq!(
            OpenLoopSample::new(1_000, 1_000, 1_400),
            OpenLoopSample { latency_vns: 400, lateness_vns: 0 }
        );
        // A stall delayed the start by 250: the user still waited from the
        // due time, and the generator reports the 250 separately.
        assert_eq!(
            OpenLoopSample::new(1_000, 1_250, 1_650),
            OpenLoopSample { latency_vns: 650, lateness_vns: 250 }
        );
    }
}
