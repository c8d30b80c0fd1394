//! Seeded generators for workload inputs. Everything a workload draws —
//! think times, hotspots, key choices — comes from a [`Rng`] derived from
//! `--seed` and a label, so the same seed always yields the same inputs
//! and the program under test only ever sees the generated inputs.

use nsdf_util::{derive_seed, splitmix64};

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `label` under `seed`.
    pub fn new(seed: u64, label: &str) -> Rng {
        Rng(derive_seed(seed, label))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.next_f64().min(1.0 - 1e-12)).ln() * mean
    }
}

/// Zipf(s) sampler over `0..n` (rank 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (0..n.max(1))
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.next_f64() * self.cdf.last().expect("non-empty cdf");
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_label() {
        let draw = |seed, label| {
            let mut r = Rng::new(seed, label);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "a"), draw(7, "a"));
        assert_ne!(draw(7, "a"), draw(7, "b"));
        assert_ne!(draw(7, "a"), draw(8, "a"));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(8, 1.1);
        let mut rng = Rng::new(1, "zipf");
        let mut counts = [0usize; 8];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 3 * counts[7]);
        assert_eq!(counts.iter().sum::<usize>(), 4000);
    }
}
