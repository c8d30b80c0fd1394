//! What every workload hands back from one repetition, and the helpers
//! they share for timing a measured phase.

use crate::metrics::{Delta, Layers};
use crate::sys;
use crate::trace::{Budget, Span, Tracer};
use nsdf_util::{Obs, SimClock};
use std::time::Instant;

/// Outcome of one repetition of one workload on a fresh stack.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall seconds spent building this repetition's stack and inputs
    /// (client, published dataset, preloaded catalog) before the measured
    /// phase.
    pub setup_s: f64,
    /// Process CPU seconds of the measured phase.
    pub cpu_s: f64,
    /// `SimClock` advance over the measured phase.
    pub virtual_ns: u64,
    /// Virtual latency of every user-visible op of the measured phase.
    pub ops_vns: Vec<u64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or failed a correctness check.
    pub failed: u64,
    /// Bytes resident in the backing store at the end of the phase.
    pub stored_bytes: u64,
    /// Raw user bytes those stored bytes represent.
    pub user_stored_bytes: u64,
    /// WAN bytes moved (up + down) during the phase.
    pub wan_bytes: u64,
    /// User bytes written or delivered during the phase.
    pub user_moved_bytes: u64,
    /// Per-layer metrics.
    pub layers: Layers,
    /// Correctness-check and layer-isolation violations, one line each.
    pub problems: Vec<String>,
    /// Spans and budget of a traced repetition.
    pub trace: Option<TraceRun>,
}

/// What a traced repetition recorded.
#[derive(Debug)]
pub struct TraceRun {
    /// Every span of the measured phase.
    pub spans: Vec<Span>,
    /// Per-layer self time; rows + unattributed equal the phase exactly.
    pub budget: Budget,
}

impl Rep {
    /// Record a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Require a per-layer metric to read exactly 0 (a bypassed layer).
    pub fn require_zero(&mut self, names: &[&str]) {
        for name in names {
            let v = self.layers.get(name);
            self.check(v == 0.0, || format!("isolation: {name} must be 0 here, is {v}"));
        }
    }
}

/// Stopwatch over a measured phase: CPU seconds, virtual ns and a
/// registry snapshot at each end.
pub struct Phase {
    clock: SimClock,
    obs: Obs,
    cpu0: f64,
    v0: u64,
    before: nsdf_util::MetricsSnapshot,
}

impl Phase {
    /// Start measuring. Resets `tracer` so set-up spans stay out of the
    /// budget.
    pub fn start(clock: &SimClock, obs: &Obs, tracer: &Tracer) -> Phase {
        tracer.reset();
        Phase {
            clock: clock.clone(),
            obs: obs.clone(),
            before: obs.snapshot(),
            v0: clock.now_ns(),
            cpu0: sys::process_cpu_secs(),
        }
    }

    /// Stop: fills `rep.cpu_s` / `rep.virtual_ns` / `rep.trace` and returns
    /// the counter movement.
    pub fn finish(self, rep: &mut Rep, tracer: &Tracer) -> Delta {
        rep.cpu_s = sys::process_cpu_secs() - self.cpu0;
        rep.virtual_ns = self.clock.now_ns() - self.v0;
        if tracer.is_recording() {
            let spans = tracer.spans();
            let budget = Budget::from_spans(&spans, rep.virtual_ns, (rep.cpu_s * 1e9) as u64);
            rep.trace = Some(TraceRun { spans, budget });
        }
        Delta::new(self.before, self.obs.snapshot())
    }
}

/// Wall seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// CPU seconds `f` took, with its result.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let c0 = sys::process_cpu_secs();
    let r = f();
    (r, sys::process_cpu_secs() - c0)
}
