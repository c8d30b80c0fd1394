//! Deterministic virtual clock for the simulated substrates.
//!
//! The WAN model (`nsdf-storage`), the network testbed (`nsdf-plugin`), and
//! the tutorial cohort simulator all advance a *virtual* time so experiments
//! are reproducible and fast: "waiting" 200 ms of simulated RTT costs zero
//! wall time. The clock is shared (`Arc` + atomic) so concurrent simulated
//! transfers observe a single timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic virtual clock counting nanoseconds since simulation start.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    ns: Arc<AtomicU64>,
}

impl SimClock {
    /// New clock at t = 0.
    pub fn new() -> Self {
        SimClock { ns: Arc::new(AtomicU64::new(0)) }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// Advance the clock by `dur_ns` nanoseconds and return the *new* time.
    ///
    /// Concurrent advances accumulate, modelling serialized use of a shared
    /// resource (e.g. one NIC).
    pub fn advance_ns(&self, dur_ns: u64) -> u64 {
        self.ns.fetch_add(dur_ns, Ordering::SeqCst) + dur_ns
    }

    /// Advance by a floating-point number of seconds (negative clamps to 0).
    pub fn advance_secs(&self, secs: f64) -> u64 {
        self.advance_ns(secs_to_ns(secs))
    }

    /// Set the clock to `max(current, t_ns)`, modelling an event that
    /// completes at an absolute time on a parallel resource.
    pub fn advance_to_ns(&self, t_ns: u64) -> u64 {
        let mut cur = self.ns.load(Ordering::SeqCst);
        while cur < t_ns {
            match self.ns.compare_exchange(cur, t_ns, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return t_ns,
                Err(actual) => cur = actual,
            }
        }
        cur
    }
}

/// Convert seconds to whole nanoseconds with the same rounding the clock
/// uses for [`SimClock::advance_secs`] (negative clamps to 0).
///
/// Metric accumulators that mirror clock charges (e.g. WAN busy time,
/// retry backoff) use this so their integer sums match the clock exactly.
pub fn secs_to_ns(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else {
        (secs * 1e9).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance_ns(500), 500);
        assert_eq!(c.now_ns(), 500);
        c.advance_secs(1.5);
        assert_eq!(c.now_ns(), 500 + 1_500_000_000);
    }

    #[test]
    fn negative_seconds_clamp() {
        let c = SimClock::new();
        c.advance_secs(-3.0);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn clones_share_timeline() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance_ns(100);
        assert_eq!(b.now_ns(), 100);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = SimClock::new();
        c.advance_to_ns(1000);
        assert_eq!(c.now_ns(), 1000);
        c.advance_to_ns(500); // in the past: no-op
        assert_eq!(c.now_ns(), 1000);
    }
}
