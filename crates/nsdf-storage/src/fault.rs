//! Deterministic, scripted fault injection: the chaos model for the
//! simulated NSDF storage fabric.
//!
//! Remote community storage — the public Dataverse commons, the private
//! Seal cloud — fails in structured ways: whole-endpoint outages, latency
//! spikes, transient per-request errors, and the occasional corrupted
//! payload. [`FaultPlan`] scripts all of these against the shared virtual
//! [`SimClock`] timeline, and [`FaultStore`] executes the plan over any
//! inner [`ObjectStore`].
//!
//! Two determinism rules make chaos runs byte-for-byte reproducible:
//!
//! 1. every per-key decision (fail? corrupt?) is a **pure function of
//!    `(seed, key, attempt)`** — the attempt counter is tracked per key, so
//!    batch composition and draw order cannot change which keys fail;
//! 2. scripted windows (outages, spikes) trigger on **virtual time**, so
//!    identically-seeded runs see identical fault sequences regardless of
//!    wall-clock scheduling.

use crate::store::{sole, ObjectMeta, ObjectStore};
use nsdf_util::obs::{Counter, Obs};
use nsdf_util::{fnv1a64, secs_to_ns, splitmix64, NsdfError, Result, SimClock};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

pub use crate::reliability::FailScope;

/// Salt separating the failure draw stream from the corruption streams.
const SALT_FAIL: u64 = 0xFA11_FA11_FA11_0001;
/// Salt for the corrupt-or-not draw.
const SALT_CORRUPT: u64 = 0xC0DE_C0DE_C0DE_0002;
/// Salt for picking which byte of a corrupted payload to damage.
const SALT_SITE: u64 = 0xB17E_B17E_B17E_0003;

/// One scripted disturbance over a virtual-time window.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultWindow {
    /// Window start, virtual seconds (inclusive).
    pub start_secs: f64,
    /// Window end, virtual seconds (exclusive).
    pub end_secs: f64,
    /// What happens inside the window.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// True when virtual time `now` falls inside this window.
    pub fn contains(&self, now_secs: f64) -> bool {
        now_secs >= self.start_secs && now_secs < self.end_secs
    }
}

/// The disturbance a [`FaultWindow`] applies.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FaultKind {
    /// Total endpoint outage: every in-scope operation fails.
    Outage,
    /// Each in-scope operation (or batch) charges `extra_secs` of extra
    /// virtual latency before reaching the endpoint.
    LatencySpike {
        /// Extra virtual seconds charged per operation/batch.
        extra_secs: f64,
    },
    /// Elevated per-key transient failure probability inside the window.
    ErrorBurst {
        /// Failure probability in `[0, 1]` while the burst lasts.
        rate: f64,
    },
}

/// A seeded, scripted fault model: background per-`(key, attempt)` failure
/// and corruption rates plus any number of virtual-time windows.
///
/// ```
/// use nsdf_storage::fault::FaultPlan;
/// let plan = FaultPlan::new(42)
///     .with_fault_rate(0.05)      // 5 % of requests fail transiently
///     .with_corrupt_rate(0.01)    // 1 % of payloads arrive damaged
///     .outage(10.0, 12.5)         // endpoint dark for 2.5 virtual secs
///     .latency_spike(20.0, 25.0, 0.25)
///     .error_burst(50.0, 55.0, 0.5);
/// assert!(plan.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed for every stochastic draw in the plan.
    pub seed: u64,
    /// Which operation classes the plan may disturb.
    pub scope: FailScope,
    /// Background transient failure probability per `(key, attempt)`.
    pub fault_rate: f64,
    /// Payload corruption probability per `(key, attempt)`: fetched
    /// payloads arrive damaged (reads), stored payloads land damaged
    /// (writes) — both within the plan's scope, both caught by checksum
    /// verification in the integrity layer.
    pub corrupt_rate: f64,
    /// Scripted windows, applied on the virtual clock.
    pub(crate) windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// A clean plan (no faults at all) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            scope: FailScope::All,
            fault_rate: 0.0,
            corrupt_rate: 0.0,
            windows: Vec::new(),
        }
    }

    /// Restrict the plan to reads or writes.
    pub fn with_scope(mut self, scope: FailScope) -> Self {
        self.scope = scope;
        self
    }

    /// Set the background transient failure rate.
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate;
        self
    }

    /// Set the payload corruption rate (reads and writes, per scope).
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Script a total outage over `[start, end)` virtual seconds.
    pub fn outage(mut self, start_secs: f64, end_secs: f64) -> Self {
        self.windows.push(FaultWindow { start_secs, end_secs, kind: FaultKind::Outage });
        self
    }

    /// Script a latency spike: `extra_secs` charged per op in the window.
    pub fn latency_spike(mut self, start_secs: f64, end_secs: f64, extra_secs: f64) -> Self {
        self.windows.push(FaultWindow {
            start_secs,
            end_secs,
            kind: FaultKind::LatencySpike { extra_secs },
        });
        self
    }

    /// Script an error burst: failure rate `rate` inside the window.
    pub fn error_burst(mut self, start_secs: f64, end_secs: f64, rate: f64) -> Self {
        self.windows.push(FaultWindow {
            start_secs,
            end_secs,
            kind: FaultKind::ErrorBurst { rate },
        });
        self
    }

    /// Check every probability and window for validity.
    pub fn validate(&self) -> Result<()> {
        let unit = |v: f64, what: &str| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(NsdfError::invalid(format!("{what} must be in [0, 1], got {v}")))
            }
        };
        unit(self.fault_rate, "fault rate")?;
        unit(self.corrupt_rate, "corrupt rate")?;
        for w in &self.windows {
            if !(w.start_secs >= 0.0 && w.end_secs > w.start_secs) {
                return Err(NsdfError::invalid(format!(
                    "fault window [{}, {}) is not a forward interval",
                    w.start_secs, w.end_secs
                )));
            }
            match w.kind {
                FaultKind::ErrorBurst { rate } => unit(rate, "error burst rate")?,
                FaultKind::LatencySpike { extra_secs: s } if !(0.0..f64::INFINITY).contains(&s) => {
                    return Err(NsdfError::invalid("spike extra_secs must be finite and >= 0"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The failure rate in force at virtual time `now` (background rate,
    /// raised by any active error burst).
    pub(crate) fn rate_at(&self, now_secs: f64) -> f64 {
        let mut rate = self.fault_rate;
        for w in &self.windows {
            if let FaultKind::ErrorBurst { rate: r } = w.kind {
                if w.contains(now_secs) {
                    rate = rate.max(r);
                }
            }
        }
        rate
    }

    /// True when an outage window covers virtual time `now`.
    pub(crate) fn in_outage(&self, now_secs: f64) -> bool {
        self.windows.iter().any(|w| matches!(w.kind, FaultKind::Outage) && w.contains(now_secs))
    }

    /// Sum of active latency-spike charges at virtual time `now`.
    pub(crate) fn spike_at(&self, now_secs: f64) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.contains(now_secs))
            .filter_map(|w| match w.kind {
                FaultKind::LatencySpike { extra_secs } => Some(extra_secs),
                _ => None,
            })
            .sum()
    }
}

/// Registry handles for one `FaultStore`, under the `fault` scope.
struct FaultMetrics {
    injected: Counter,
    outage_failures: Counter,
    corrupted: Counter,
    delay_vns: Counter,
}

impl FaultMetrics {
    fn new(obs: &Obs) -> Self {
        let obs = obs.scoped("fault");
        FaultMetrics {
            injected: obs.counter("injected"),
            outage_failures: obs.counter("outage_failures"),
            corrupted: obs.counter("corrupted"),
            delay_vns: obs.counter("delay_vns"),
        }
    }
}

/// An [`ObjectStore`] that executes a [`FaultPlan`] over its inner store.
///
/// Layer it directly above the WAN simulator so scripted latency charges
/// and the WAN's own costs share one [`SimClock`]:
/// `RetryStore(IntegrityStore(FaultStore(CloudStore(MemoryStore))))`.
pub struct FaultStore {
    inner: Arc<dyn ObjectStore>,
    plan: FaultPlan,
    clock: SimClock,
    /// Per-key attempt counters: the `attempt` input of every draw.
    attempts: Mutex<HashMap<String, u64>>,
    m: FaultMetrics,
}

impl FaultStore {
    /// Wrap `inner`, executing `plan` against `clock`.
    pub fn new(inner: Arc<dyn ObjectStore>, plan: FaultPlan, clock: SimClock) -> Result<Self> {
        plan.validate()?;
        Ok(FaultStore {
            inner,
            plan,
            clock,
            attempts: Mutex::new(HashMap::new()),
            m: FaultMetrics::new(&Obs::default()),
        })
    }

    /// Report injection accounting into `obs` (scope `…fault`).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.m = FaultMetrics::new(obs);
        self
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The virtual clock windows trigger on.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Transient failures injected so far (background + bursts + outages).
    pub fn injected_failures(&self) -> u64 {
        self.m.injected.get() + self.m.outage_failures.get()
    }

    /// Attempts consumed for `key` so far (draw-stream position).
    #[cfg(test)]
    pub(crate) fn attempts_for(&self, key: &str) -> u64 {
        self.attempts.lock().get(key).copied().unwrap_or(0)
    }

    fn in_scope(&self, is_read: bool) -> bool {
        match self.plan.scope {
            FailScope::Reads => is_read,
            FailScope::Writes => !is_read,
            FailScope::All => true,
        }
    }

    /// Uniform draw in `[0, 1)`, pure in `(seed, salt, key, attempt)`.
    fn draw(&self, salt: u64, key: &str, attempt: u64) -> f64 {
        let mixed = splitmix64(self.plan.seed ^ salt)
            ^ fnv1a64(key.as_bytes())
            ^ splitmix64(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        splitmix64(mixed) as f64 / u64::MAX as f64
    }

    /// Consume the next attempt number for `key`.
    fn next_attempt(&self, key: &str) -> u64 {
        let mut attempts = self.attempts.lock();
        let slot = attempts.entry(key.to_string()).or_insert(0);
        let attempt = *slot;
        *slot += 1;
        attempt
    }

    /// Charge any latency spike active right now (once per op or batch).
    fn charge_spike(&self, now_secs: f64) {
        let extra = self.plan.spike_at(now_secs);
        if extra > 0.0 {
            self.clock.advance_secs(extra);
            self.m.delay_vns.add(secs_to_ns(extra));
        }
    }

    fn outage_error(&self, what: &str) -> NsdfError {
        self.m.outage_failures.inc();
        NsdfError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            format!("endpoint outage during {what}"),
        ))
    }

    fn injected_error(&self, what: &str, key: &str) -> NsdfError {
        self.m.injected.inc();
        NsdfError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            format!("injected transient failure during {what} of {key:?}"),
        ))
    }

    /// Per-key admission: consume an attempt and decide failure. Returns
    /// the attempt number consumed (for the corruption draw).
    fn admit(&self, key: &str, rate: f64, what: &str) -> Result<u64> {
        let attempt = self.next_attempt(key);
        if rate > 0.0 && self.draw(SALT_FAIL, key, attempt) < rate {
            return Err(self.injected_error(what, key));
        }
        Ok(attempt)
    }

    /// Deterministically damage one byte of `data` when the corruption
    /// draw for `(key, attempt)` fires. Empty payloads are left alone.
    /// Callers gate on scope; the draw itself is the same pure
    /// `(seed, key, attempt)` stream for reads and writes.
    fn maybe_corrupt(&self, key: &str, attempt: u64, data: &mut [u8]) {
        if self.plan.corrupt_rate <= 0.0 || data.is_empty() {
            return;
        }
        if self.draw(SALT_CORRUPT, key, attempt) < self.plan.corrupt_rate {
            let mixed = splitmix64(self.plan.seed ^ SALT_SITE)
                ^ fnv1a64(key.as_bytes())
                ^ splitmix64(attempt);
            let site = (splitmix64(mixed) % data.len() as u64) as usize;
            data[site] ^= 0x5A; // non-zero mask: payload always changes
            self.m.corrupted.inc();
        }
    }

    /// One network episode over `items`, the body of every operation: a
    /// single call is an episode of one. Out of the plan's scope, `send`
    /// gets every item and no attempts. In scope, an outage fails every
    /// item (each still consumes an attempt, so the draw stream stays
    /// aligned with a healthy run of the same call sequence); otherwise the
    /// episode pays one spike charge — mirroring the WAN model's single
    /// jitter draw — and admits each key in input order, consuming the same
    /// pure `(seed, key, attempt)` draws as N single calls, so batch
    /// composition never shifts the sequence. The admitted items go to
    /// `send` as one inner call with their attempts.
    fn episode<I: Keyed, T>(
        &self,
        side: Side,
        items: &[I],
        what: &str,
        send: impl FnOnce(&[I], Option<&[u64]>) -> Vec<Result<T>>,
    ) -> Vec<Result<T>> {
        if !self.in_scope(side != Side::Write) {
            return send(items, None);
        }
        let now = self.clock.now_secs();
        if self.plan.in_outage(now) {
            return items
                .iter()
                .map(|it| {
                    let _ = self.next_attempt(it.key());
                    Err(self.outage_error(what))
                })
                .collect();
        }
        self.charge_spike(now);
        let rate = self.plan.rate_at(now);
        let mut out: Vec<Option<Result<T>>> = items.iter().map(|_| None).collect();
        let (mut pass_idx, mut pass, mut attempts) = (Vec::new(), Vec::new(), Vec::new());
        for (i, it) in items.iter().enumerate() {
            match self.admit(it.key(), rate, what) {
                Ok(attempt) => {
                    pass_idx.push(i);
                    pass.push(*it);
                    attempts.push(attempt);
                }
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        if !pass.is_empty() {
            let results = send(&pass, Some(&attempts));
            for (i, r) in pass_idx.into_iter().zip(results) {
                out[i] = Some(r);
            }
        }
        out.into_iter().map(|o| o.expect("every slot decided")).collect()
    }

    /// A payload-read episode: `send` fetches the admitted keys, and each
    /// payload may arrive corrupted.
    fn fetch(
        &self,
        keys: &[&str],
        what: &str,
        send: impl FnOnce(&[&str]) -> Vec<Result<Vec<u8>>>,
    ) -> Vec<Result<Vec<u8>>> {
        self.episode(Side::Read, keys, what, |pass, attempts| {
            let mut results = send(pass);
            // Out of scope there are no attempts, so nothing is corrupted.
            for ((key, &attempt), r) in pass.iter().zip(attempts.unwrap_or(&[])).zip(&mut results) {
                if let Ok(data) = r {
                    self.maybe_corrupt(key, attempt, data);
                }
            }
            results
        })
    }

    /// A payload-write episode. Write-path corruption lands in the stored
    /// object, so the returned meta checksums the damaged bytes — which is
    /// how the integrity layer catches it against the original payload
    /// and turns it into a retryable failure.
    fn store(
        &self,
        items: &[(&str, &[u8])],
        what: &str,
        send: impl FnOnce(&[(&str, &[u8])]) -> Vec<Result<ObjectMeta>>,
    ) -> Vec<Result<ObjectMeta>> {
        self.episode(Side::Write, items, what, |pass, attempts| match attempts {
            Some(attempts) if self.plan.corrupt_rate > 0.0 => {
                let copies: Vec<Vec<u8>> = pass
                    .iter()
                    .zip(attempts)
                    .map(|(&(k, d), &attempt)| {
                        let mut copy = d.to_vec();
                        self.maybe_corrupt(k, attempt, &mut copy);
                        copy
                    })
                    .collect();
                let damaged: Vec<(&str, &[u8])> =
                    pass.iter().zip(&copies).map(|(&(k, _), c)| (k, c.as_slice())).collect();
                send(&damaged)
            }
            _ => send(pass),
        })
    }
}

/// Which way an episode moves data: reads and writes fall under
/// different [`FailScope`]s.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    /// A read (`get`, `get_range`, `head`, `list` and their batches).
    Read,
    /// A write or delete.
    Write,
}

/// An episode item the plan draws on by key.
trait Keyed: Copy {
    fn key(&self) -> &str;
}

impl Keyed for &str {
    fn key(&self) -> &str {
        self
    }
}

impl Keyed for (&str, &[u8]) {
    fn key(&self) -> &str {
        self.0
    }
}

impl ObjectStore for FaultStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        sole(self.store(&[(key, data)], "put", |w| vec![self.inner.put(w[0].0, w[0].1)]))
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        sole(self.fetch(&[key], "get", |_| vec![self.inner.get(key)]))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        sole(self.fetch(&[key], "get_range", |_| vec![self.inner.get_range(key, offset, len)]))
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        self.fetch(keys, "get_many", |wave| self.inner.get_many(wave))
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        self.store(items, "put_many", |wave| self.inner.put_many(wave))
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        sole(self.episode(Side::Read, &[key], "head", |_, _| vec![self.inner.head(key)]))
    }

    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        self.episode(Side::Read, keys, "head_many", |wave, _| self.inner.head_many(wave))
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        sole(self.episode(Side::Read, &[prefix], "list", |_, _| vec![self.inner.list(prefix)]))
    }

    fn delete(&self, key: &str) -> Result<()> {
        sole(self.episode(Side::Write, &[key], "delete", |_, _| vec![self.inner.delete(key)]))
    }

    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        self.episode(Side::Write, keys, "delete_many", |wave, _| self.inner.delete_many(wave))
    }

    fn describe(&self) -> String {
        format!(
            "{} under fault plan (rate {:.0}%, corrupt {:.1}%, {} windows)",
            self.inner.describe(),
            self.plan.fault_rate * 100.0,
            self.plan.corrupt_rate * 100.0,
            self.plan.windows.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryStore;

    fn seeded_store(n: usize) -> (Arc<MemoryStore>, Vec<String>) {
        let mem = Arc::new(MemoryStore::new());
        let keys: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
        for (i, k) in keys.iter().enumerate() {
            mem.put(k, format!("v{i}").as_bytes()).unwrap();
        }
        (mem, keys)
    }

    fn fault(mem: Arc<MemoryStore>, plan: FaultPlan, clock: SimClock) -> FaultStore {
        FaultStore::new(mem, plan, clock).unwrap()
    }

    #[test]
    fn clean_plan_injects_nothing() {
        let (mem, keys) = seeded_store(20);
        let s = fault(mem, FaultPlan::new(1), SimClock::new());
        for k in &keys {
            s.get(k).unwrap();
        }
        assert_eq!(s.injected_failures(), 0);
        assert_eq!(s.m.corrupted.get(), 0);
    }

    #[test]
    fn failure_decision_is_pure_in_seed_key_attempt() {
        // The same key must see the same fail/pass sequence no matter what
        // other keys share its batches.
        let plan = || FaultPlan::new(99).with_fault_rate(0.5).with_scope(FailScope::Reads);
        let (mem, keys) = seeded_store(12);
        let solo = fault(mem.clone(), plan(), SimClock::new());
        let solo_outcomes: Vec<Vec<bool>> =
            keys.iter().map(|k| (0..4).map(|_| solo.get(k).is_ok()).collect()).collect();

        // Same draws, but interleaved through batches of shifting shape.
        let batched = fault(mem, plan(), SimClock::new());
        let mut batch_outcomes: Vec<Vec<bool>> = keys.iter().map(|_| Vec::new()).collect();
        for round in 0..4 {
            // Rotate the batch order each round so draw order differs.
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.rotate_left(round * 3 % keys.len());
            let refs: Vec<&str> = order.iter().map(|&i| keys[i].as_str()).collect();
            for (&i, r) in order.iter().zip(batched.get_many(&refs)) {
                batch_outcomes[i].push(r.is_ok());
            }
        }
        assert_eq!(solo_outcomes, batch_outcomes);
    }

    #[test]
    fn write_failure_decision_is_pure_in_seed_key_attempt() {
        // Satellite-4 regression: the write scope draws from the same pure
        // `(seed, key, attempt)` stream as reads — the same key sees the
        // same fail/pass sequence whether written one `put` at a time or
        // through `put_many` batches of shifting shape and order.
        let plan = || FaultPlan::new(99).with_fault_rate(0.5).with_scope(FailScope::Writes);
        let keys: Vec<String> = (0..12).map(|i| format!("k{i}")).collect();
        let body = b"payload";
        let solo = fault(Arc::new(MemoryStore::new()), plan(), SimClock::new());
        let solo_outcomes: Vec<Vec<bool>> =
            keys.iter().map(|k| (0..4).map(|_| solo.put(k, body).is_ok()).collect()).collect();

        let batched = fault(Arc::new(MemoryStore::new()), plan(), SimClock::new());
        let mut batch_outcomes: Vec<Vec<bool>> = keys.iter().map(|_| Vec::new()).collect();
        for round in 0..4 {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.rotate_left(round * 3 % keys.len());
            let items: Vec<(&str, &[u8])> =
                order.iter().map(|&i| (keys[i].as_str(), body as &[u8])).collect();
            for (&i, r) in order.iter().zip(batched.put_many(&items)) {
                batch_outcomes[i].push(r.is_ok());
            }
        }
        assert_eq!(solo_outcomes, batch_outcomes);
        // And the read stream is the *same* stream: a write consumes the
        // attempt a subsequent read would otherwise have drawn.
        assert_eq!(solo.attempts_for("k0"), 4);
    }

    #[test]
    fn write_corruption_lands_in_store_and_checksums_the_damage() {
        let mem = Arc::new(MemoryStore::new());
        let run = |mem: &Arc<MemoryStore>| {
            let s = fault(
                mem.clone(),
                FaultPlan::new(5).with_corrupt_rate(0.4).with_scope(FailScope::Writes),
                SimClock::new(),
            );
            let keys: Vec<String> = (0..40).map(|i| format!("w{i}")).collect();
            let items: Vec<(&str, &[u8])> =
                keys.iter().map(|k| (k.as_str(), b"clean-payload" as &[u8])).collect();
            let metas = s.put_many(&items);
            (keys, metas, s.m.corrupted.get())
        };
        let (keys, metas, corrupted) = run(&mem);
        assert!(corrupted > 5, "rate 0.4 over 40 writes corrupts something");
        assert!(corrupted < 40, "but not everything");
        let mut damaged = 0;
        for (k, m) in keys.iter().zip(&metas) {
            let stored = mem.get(k).unwrap();
            // The returned meta checksums the *stored* (possibly damaged)
            // bytes — that mismatch versus the original payload is what the
            // integrity layer detects.
            assert_eq!(m.as_ref().unwrap().checksum, nsdf_util::checksum64(&stored));
            if stored != b"clean-payload" {
                damaged += 1;
            }
        }
        assert_eq!(damaged, corrupted as usize);
        // Same seed, same damage: byte-determinism across reruns.
        let mem2 = Arc::new(MemoryStore::new());
        run(&mem2);
        for k in &keys {
            assert_eq!(mem.get(k).unwrap(), mem2.get(k).unwrap());
        }
    }

    #[test]
    fn outage_window_fails_everything_then_recovers() {
        let (mem, keys) = seeded_store(4);
        let clock = SimClock::new();
        let s = fault(mem, FaultPlan::new(7).outage(1.0, 2.0), clock.clone());
        for k in &keys {
            s.get(k).unwrap(); // before the window
        }
        clock.advance_secs(1.5);
        for k in &keys {
            assert!(s.get(k).is_err(), "inside the outage window");
        }
        let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
        assert!(s.get_many(&refs).iter().all(|r| r.is_err()));
        clock.advance_secs(1.0);
        for k in &keys {
            s.get(k).unwrap(); // after the window
        }
        assert!(s.injected_failures() >= 8);
    }

    #[test]
    fn latency_spike_charges_virtual_time() {
        let (mem, keys) = seeded_store(2);
        let clock = SimClock::new();
        let s = fault(mem, FaultPlan::new(7).latency_spike(0.0, 10.0, 0.25), clock.clone());
        s.get(&keys[0]).unwrap();
        assert_eq!(clock.now_ns(), 250_000_000);
        let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
        s.get_many(&refs); // one charge per batch
        assert_eq!(clock.now_ns(), 500_000_000);
    }

    #[test]
    fn error_burst_raises_rate_inside_window_only() {
        let (mem, keys) = seeded_store(40);
        let clock = SimClock::new();
        let s = fault(mem, FaultPlan::new(11).error_burst(5.0, 6.0, 1.0), clock.clone());
        let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
        assert!(s.get_many(&refs).iter().all(|r| r.is_ok()), "no faults outside the burst");
        clock.advance_secs(5.5);
        assert!(s.get_many(&refs).iter().all(|r| r.is_err()), "burst rate 1.0 fails all");
        clock.advance_secs(1.0);
        assert!(s.get_many(&refs).iter().all(|r| r.is_ok()));
    }

    #[test]
    fn corruption_damages_payload_deterministically() {
        let (mem, keys) = seeded_store(50);
        let run = || {
            let s = fault(mem.clone(), FaultPlan::new(5).with_corrupt_rate(0.3), SimClock::new());
            keys.iter().map(|k| s.get(k).unwrap()).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "corruption sites are seed-deterministic");
        let clean: Vec<Vec<u8>> = keys.iter().map(|k| mem.get(k).unwrap()).collect();
        let damaged = a.iter().zip(&clean).filter(|(got, want)| got != want).count();
        assert!(damaged > 5, "rate 0.3 over 50 reads corrupts something, got {damaged}");
        assert!(damaged < 30, "rate 0.3 must not corrupt everything, got {damaged}");
    }

    /// A fresh in-memory store failing `rate` of in-scope operations.
    fn uniform(rate: f64, scope: FailScope) -> FaultStore {
        let plan = FaultPlan::new(7).with_fault_rate(rate).with_scope(scope);
        fault(Arc::new(MemoryStore::new()), plan, SimClock::new())
    }

    #[test]
    fn scope_limits_injection() {
        let s = uniform(1.0, FailScope::Reads);
        s.put("k", b"v").unwrap(); // writes unaffected
        assert!(s.get("k").is_err());
        let s = uniform(1.0, FailScope::Writes);
        assert!(s.put("k", b"v").is_err());
        assert!(s.get("k").unwrap_err().is_not_found(), "reads reach the store");
    }

    #[test]
    fn full_rate_always_fails() {
        let s = uniform(1.0, FailScope::All);
        assert!(s.put("k", b"v").is_err());
        assert!(s.get("k").is_err());
        assert_eq!(s.injected_failures(), 2);
    }

    #[test]
    fn injection_is_deterministic() {
        let run = || {
            let s = uniform(0.3, FailScope::All);
            (0..50).map(|i| s.put(&format!("k{i}"), b"v").is_ok()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        let s = uniform(0.3, FailScope::All);
        for i in 0..50 {
            let _ = s.put(&format!("k{i}"), b"v");
        }
        let injected = s.injected_failures();
        assert!((5..30).contains(&injected), "injected {injected} of 50 at 30%");
    }

    #[test]
    fn invalid_plans_rejected() {
        let mem: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        for plan in [
            FaultPlan::new(1).with_fault_rate(1.5),
            FaultPlan::new(1).with_corrupt_rate(-0.1),
            FaultPlan::new(1).outage(5.0, 5.0),
            FaultPlan::new(1).error_burst(0.0, 1.0, 2.0),
            FaultPlan::new(1).latency_spike(0.0, 1.0, -0.5),
            FaultPlan::new(1).latency_spike(0.0, 1.0, f64::NAN),
            FaultPlan::new(1).latency_spike(0.0, 1.0, f64::INFINITY),
        ] {
            assert!(FaultStore::new(mem.clone(), plan, SimClock::new()).is_err());
        }
    }

    #[test]
    fn head_many_draws_per_key() {
        let (mem, keys) = seeded_store(30);
        let plan = || FaultPlan::new(21).with_fault_rate(0.4).with_scope(FailScope::Reads);
        let singles = {
            let s = fault(mem.clone(), plan(), SimClock::new());
            keys.iter().map(|k| s.head(k).is_ok()).collect::<Vec<_>>()
        };
        let batched = {
            let s = fault(mem, plan(), SimClock::new());
            let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
            s.head_many(&refs).iter().map(|r| r.is_ok()).collect::<Vec<_>>()
        };
        assert_eq!(singles, batched);
        assert!(singles.iter().any(|&ok| !ok) && singles.iter().any(|&ok| ok));
    }

    #[test]
    fn delete_many_draws_per_key_like_single_deletes() {
        let plan = || FaultPlan::new(21).with_fault_rate(0.4).with_scope(FailScope::Writes);
        let run = |batched: bool| {
            let (mem, keys) = seeded_store(30);
            let s = fault(mem.clone(), plan(), SimClock::new());
            let ok: Vec<bool> = if batched {
                let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
                s.delete_many(&refs).iter().map(|r| r.is_ok()).collect()
            } else {
                keys.iter().map(|k| s.delete(k).is_ok()).collect()
            };
            // Same verdicts, same draw-stream position per key, and only
            // the admitted keys left the store.
            let attempts: Vec<u64> = keys.iter().map(|k| s.attempts_for(k)).collect();
            let left: Vec<String> = mem.list("").unwrap().into_iter().map(|m| m.key).collect();
            (ok, attempts, left, s.injected_failures())
        };
        let (singles, wave) = (run(false), run(true));
        assert_eq!(singles, wave);
        assert!(wave.0.iter().any(|&ok| !ok) && wave.0.iter().any(|&ok| ok));
        assert_eq!(wave.2.len(), wave.0.iter().filter(|&&ok| !ok).count());
    }
}
