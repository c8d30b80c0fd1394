//! Resilience layers: failure injection, retries, hedging, circuit
//! breaking, and end-to-end payload integrity.
//!
//! Wide-area transfers fail; the NSDF testbed papers (refs \[2\], \[12\])
//! treat transient request failures as a fact of life. The scripted
//! [`crate::fault::FaultStore`] injects deterministic, seed-driven
//! failures into any inner store so tests and benches can exercise error
//! paths, and `RetryStore` layers bounded exponential-backoff retries —
//! optionally with hedged backup waves — on top, charging all waiting to
//! the virtual clock. `BreakerStore` adds a per-endpoint circuit breaker so
//! a dead endpoint fails fast instead of burning retry budget, and
//! `IntegrityStore` verifies payload checksums (sealed in the payload, else
//! in stored metadata) so corrupted-in-flight payloads surface as
//! retryable I/O errors. The stack proves end-to-end that a lossy substrate
//! still yields correct datasets.

use crate::fault::{FaultPlan, FaultStore};
use crate::store::{sole, ObjectMeta, ObjectStore};
use nsdf_util::obs::{Counter, Gauge, Obs};
use nsdf_util::{checksum64, is_sealed, secs_to_ns, NsdfError, Result, SimClock};
use parking_lot::Mutex;
use std::sync::Arc;

/// Which operations may be failed by the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailScope {
    /// Only reads (get/get_range/head/list).
    Reads,
    /// Only writes (put/delete).
    Writes,
    /// Everything.
    All,
}

/// Retry policy for [`RetryStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts (>= 1), including the first.
    pub max_attempts: u32,
    /// Backoff before the second attempt, in seconds.
    pub initial_backoff_secs: f64,
    /// Backoff multiplier per subsequent attempt.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    /// Three attempts, 100 ms initial backoff, doubling.
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, initial_backoff_secs: 0.1, multiplier: 2.0 }
    }
}

/// Hedged-request policy for [`RetryStore::get_many`].
///
/// When a primary wave leaves transient failures behind, the store waits a
/// short virtual `delay_secs` (far below a backoff step) and launches a
/// backup wave for just those keys — first success wins. Hedge waves hit
/// the inner store like any other request, so their cost lands on the WAN
/// model; they do not consume retry attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Virtual delay before a backup wave, in seconds.
    pub delay_secs: f64,
    /// Maximum backup waves per retry round (>= 1).
    pub max_hedges: u32,
}

impl Default for HedgePolicy {
    /// One backup wave after 20 ms.
    fn default() -> Self {
        HedgePolicy { delay_secs: 0.02, max_hedges: 1 }
    }
}

/// A store that retries transient failures with exponential backoff.
///
/// Only I/O-class errors are retried; `NotFound`/`InvalidArg`/`Corrupt`
/// are permanent and propagate immediately. Backoff sleeps advance the
/// virtual clock, so retries show up in end-to-end virtual timings.
/// [`RetryStore::with_hedging`] adds hedged backup waves to `get_many`.
pub struct RetryStore {
    inner: Arc<dyn ObjectStore>,
    policy: RetryPolicy,
    hedge: Option<HedgePolicy>,
    clock: SimClock,
    m: RetryMetrics,
}

/// Registry handles for one `RetryStore`, under the `retry` scope.
///
/// `backoff_vns` mirrors every backoff clock charge in integer nanoseconds
/// (via [`secs_to_ns`]); `waves` counts backoff episodes, so "one backoff
/// charge per wave" is directly assertable: `backoff_vns` grows by exactly
/// one policy step each time `waves` ticks. Hedge accounting is separate:
/// `hedge_waves`/`hedge_vns` count backup waves and their (short) delays,
/// `hedges` the keys hedged, and `hedge_wins` the keys a backup rescued
/// before any backoff was paid.
struct RetryMetrics {
    retries: Counter,
    waves: Counter,
    backoff_vns: Counter,
    hedges: Counter,
    hedge_waves: Counter,
    hedge_wins: Counter,
    hedge_vns: Counter,
}

impl RetryMetrics {
    fn new(obs: &Obs) -> Self {
        let obs = obs.scoped("retry");
        RetryMetrics {
            retries: obs.counter("retries"),
            waves: obs.counter("waves"),
            backoff_vns: obs.counter("backoff_vns"),
            hedges: obs.counter("hedges"),
            hedge_waves: obs.counter("hedge_waves"),
            hedge_wins: obs.counter("hedge_wins"),
            hedge_vns: obs.counter("hedge_vns"),
        }
    }
}

impl RetryStore {
    /// Wrap `inner` with `policy`, charging backoff to `clock`.
    pub fn new(inner: Arc<dyn ObjectStore>, policy: RetryPolicy, clock: SimClock) -> Result<Self> {
        if policy.max_attempts == 0 {
            return Err(NsdfError::invalid("retry policy needs at least one attempt"));
        }
        let RetryPolicy { initial_backoff_secs: backoff, multiplier, .. } = policy;
        for (field, v) in [("initial_backoff_secs", backoff), ("multiplier", multiplier)] {
            if !(0.0..f64::INFINITY).contains(&v) {
                return Err(NsdfError::invalid(format!("retry {field} must be finite, >= 0: {v}")));
            }
        }
        Ok(RetryStore { inner, policy, hedge: None, clock, m: RetryMetrics::new(&Obs::default()) })
    }

    /// Enable hedged backup waves on `get_many`.
    pub fn with_hedging(mut self, hedge: HedgePolicy) -> Result<Self> {
        if !(0.0..f64::INFINITY).contains(&hedge.delay_secs) {
            return Err(NsdfError::invalid("HedgePolicy::delay_secs must be finite and >= 0"));
        }
        if hedge.max_hedges == 0 {
            return Err(NsdfError::invalid("hedge policy needs at least one backup wave"));
        }
        self.hedge = Some(hedge);
        Ok(self)
    }

    /// Report retry accounting into `obs` (scope `…retry`).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.m = RetryMetrics::new(obs);
        self
    }

    /// Total retry attempts performed (excludes first attempts).
    pub fn retries(&self) -> u64 {
        self.m.retries.get()
    }

    /// Charge one backoff episode (a "wave": one shared sleep covering
    /// `keys_retried` keys) and return the next backoff value.
    fn charge_backoff(&self, backoff: f64, keys_retried: u64) -> f64 {
        self.m.retries.add(keys_retried);
        self.m.waves.inc();
        self.m.backoff_vns.add(secs_to_ns(backoff));
        self.clock.advance_secs(backoff);
        backoff * self.policy.multiplier
    }

    /// A single call is a wave of one.
    fn with_retries<T>(&self, f: impl Fn() -> Result<T>) -> Result<T> {
        sole(self.retry_waves(&[()], None, |_| vec![f()]))
    }

    /// The one retry loop. `send` issues one inner batch for a subset of
    /// `items`; transiently failed ones re-batch and share one backoff per
    /// wave (concurrent retries back off in parallel, not in sequence),
    /// permanent errors resolve immediately, and the retry counter counts
    /// per key so it agrees with the single-call accounting.
    ///
    /// With `hedge` (only `get_many` passes it), each round may launch
    /// backup waves for its transient failures after a short hedge delay —
    /// rescued keys skip the backoff wave entirely, the rest fall through
    /// to the normal schedule. The write batches and `head_many` stay
    /// unhedged: a hedged backup wave would race two writes of the same
    /// key, and "first ack wins" is not a coherent write semantic.
    fn retry_waves<I: Copy, T>(
        &self,
        items: &[I],
        hedge: Option<HedgePolicy>,
        send: impl Fn(&[I]) -> Vec<Result<T>>,
    ) -> Vec<Result<T>> {
        let send = |at: &[usize]| send(&at.iter().map(|&i| items[i]).collect::<Vec<I>>());
        let mut out: Vec<Option<Result<T>>> = items.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..items.len()).collect();
        let mut backoff = self.policy.initial_backoff_secs;
        let mut attempt = 1;
        loop {
            let mut next = Vec::new();
            for (&i, r) in pending.iter().zip(send(&pending)) {
                match r {
                    Err(NsdfError::Io(_)) if attempt < self.policy.max_attempts => next.push(i),
                    r => out[i] = Some(r),
                }
            }
            if let Some(hedge) = hedge {
                let mut round = 0;
                while round < hedge.max_hedges && !next.is_empty() {
                    self.m.hedge_waves.inc();
                    self.m.hedge_vns.add(secs_to_ns(hedge.delay_secs));
                    self.clock.advance_secs(hedge.delay_secs);
                    self.m.hedges.add(next.len() as u64);
                    let mut still = Vec::new();
                    for (&i, r) in next.iter().zip(send(&next)) {
                        match r {
                            Err(NsdfError::Io(_)) => still.push(i),
                            r => {
                                self.m.hedge_wins.inc();
                                out[i] = Some(r);
                            }
                        }
                    }
                    next = still;
                    round += 1;
                }
            }
            if next.is_empty() {
                break;
            }
            backoff = self.charge_backoff(backoff, next.len() as u64);
            attempt += 1;
            pending = next;
        }
        out.into_iter().map(|o| o.expect("every slot decided")).collect()
    }
}

impl ObjectStore for RetryStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        self.with_retries(|| self.inner.put(key, data))
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.with_retries(|| self.inner.get(key))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.with_retries(|| self.inner.get_range(key, offset, len))
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        self.retry_waves(keys, self.hedge, |wave| self.inner.get_many(wave))
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        self.retry_waves(items, None, |wave| self.inner.put_many(wave))
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.with_retries(|| self.inner.head(key))
    }

    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        self.retry_waves(keys, None, |wave| self.inner.head_many(wave))
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        self.with_retries(|| self.inner.list(prefix))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.with_retries(|| self.inner.delete(key))
    }

    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        self.retry_waves(keys, None, |wave| self.inner.delete_many(wave))
    }

    fn describe(&self) -> String {
        format!("{} with {}-attempt retry", self.inner.describe(), self.policy.max_attempts)
    }
}

/// Circuit-breaker policy for [`BreakerStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive transient failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Virtual seconds the breaker stays open before probing (half-open).
    pub cooldown_secs: f64,
    /// Consecutive half-open successes that close the breaker again.
    pub success_threshold: u32,
}

impl Default for BreakerPolicy {
    /// Trip after 5 consecutive failures, probe after 1 virtual second,
    /// close after 2 probe successes.
    fn default() -> Self {
        BreakerPolicy { failure_threshold: 5, cooldown_secs: 1.0, success_threshold: 2 }
    }
}

/// Circuit-breaker state, visible through the `breaker.state` gauge
/// (0 = closed, 1 = open, 2 = half-open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Requests flow; consecutive transient failures are counted.
    Closed,
    /// Requests fail fast without touching the endpoint.
    Open,
    /// Cooldown elapsed; probe requests flow, one failure re-opens.
    HalfOpen,
}

struct BreakerCore {
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    opened_at_ns: u64,
}

/// Registry handles for one `BreakerStore`, under the `breaker` scope.
struct BreakerMetrics {
    obs: Obs,
    opened: Counter,
    half_opened: Counter,
    closed: Counter,
    fast_failures: Counter,
    state: Gauge,
}

impl BreakerMetrics {
    fn new(obs: &Obs) -> Self {
        let obs = obs.scoped("breaker");
        BreakerMetrics {
            opened: obs.counter("opened"),
            half_opened: obs.counter("half_opened"),
            closed: obs.counter("closed"),
            fast_failures: obs.counter("fast_failures"),
            state: obs.gauge("state"),
            obs,
        }
    }
}

/// A per-endpoint circuit breaker over any [`ObjectStore`].
///
/// Closed → open after `failure_threshold` consecutive transient (I/O)
/// failures; open fast-fails every request *without touching the inner
/// store* (so a dark endpoint costs nothing on the WAN model) until
/// `cooldown_secs` of virtual time elapse; the first request after
/// cooldown half-opens the breaker and probes the endpoint — a probe
/// failure re-opens it, `success_threshold` consecutive successes close
/// it. All transitions land in the observability registry as counters,
/// a state gauge, and instantaneous `breaker.open` / `breaker.half_open` /
/// `breaker.closed` span events on the virtual timeline.
///
/// `NotFound` and other permanent errors are responses from a live
/// endpoint, so they count as successes.
pub struct BreakerStore {
    inner: Arc<dyn ObjectStore>,
    policy: BreakerPolicy,
    clock: SimClock,
    core: Mutex<BreakerCore>,
    m: BreakerMetrics,
}

impl BreakerStore {
    /// Wrap `inner` with `policy`, timing the cooldown on `clock`.
    pub fn new(
        inner: Arc<dyn ObjectStore>,
        policy: BreakerPolicy,
        clock: SimClock,
    ) -> Result<Self> {
        if policy.failure_threshold == 0 || policy.success_threshold == 0 {
            return Err(NsdfError::invalid("breaker thresholds must be >= 1"));
        }
        if !(policy.cooldown_secs > 0.0 && policy.cooldown_secs.is_finite()) {
            return Err(NsdfError::invalid("BreakerPolicy::cooldown_secs must be finite and > 0"));
        }
        Ok(BreakerStore {
            inner,
            policy,
            clock,
            core: Mutex::new(BreakerCore {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                half_open_successes: 0,
                opened_at_ns: 0,
            }),
            m: BreakerMetrics::new(&Obs::default()),
        })
    }

    /// Report breaker accounting into `obs` (scope `…breaker`).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.m = BreakerMetrics::new(obs);
        self
    }

    fn open_error(&self) -> NsdfError {
        NsdfError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "circuit breaker open: endpoint fast-failed",
        ))
    }

    /// Admit `n` requests, or fast-fail them all. Transitions open →
    /// half-open when the cooldown has elapsed on the virtual clock.
    fn admit(&self, n: u64) -> bool {
        let mut core = self.core.lock();
        match core.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let reopen_at = core.opened_at_ns + secs_to_ns(self.policy.cooldown_secs);
                if self.clock.now_ns() >= reopen_at {
                    core.state = BreakerState::HalfOpen;
                    core.half_open_successes = 0;
                    self.m.half_opened.inc();
                    self.m.state.set(2.0);
                    self.m.obs.event("half_open");
                    true
                } else {
                    self.m.fast_failures.add(n);
                    false
                }
            }
        }
    }

    fn trip(&self, core: &mut BreakerCore) {
        core.state = BreakerState::Open;
        core.opened_at_ns = self.clock.now_ns();
        core.consecutive_failures = 0;
        core.half_open_successes = 0;
        self.m.opened.inc();
        self.m.state.set(1.0);
        self.m.obs.event("open");
    }

    /// Record one outcome. Transient (I/O) failures drive the breaker;
    /// permanent errors are live-endpoint responses and count as success.
    fn record(&self, ok: bool) {
        let mut core = self.core.lock();
        match (core.state, ok) {
            (BreakerState::Closed, true) => core.consecutive_failures = 0,
            (BreakerState::Closed, false) => {
                core.consecutive_failures += 1;
                if core.consecutive_failures >= self.policy.failure_threshold {
                    self.trip(&mut core);
                }
            }
            (BreakerState::HalfOpen, true) => {
                core.half_open_successes += 1;
                if core.half_open_successes >= self.policy.success_threshold {
                    core.state = BreakerState::Closed;
                    core.consecutive_failures = 0;
                    self.m.closed.inc();
                    self.m.state.set(0.0);
                    self.m.obs.event("closed");
                }
            }
            (BreakerState::HalfOpen, false) => self.trip(&mut core),
            (BreakerState::Open, _) => {}
        }
    }

    /// Admit `n` requests or fast-fail them all, then record every
    /// per-key outcome. A single call is a wave of one.
    fn guarded_many<T>(&self, n: usize, f: impl FnOnce() -> Vec<Result<T>>) -> Vec<Result<T>> {
        if !self.admit(n as u64) {
            return (0..n).map(|_| Err(self.open_error())).collect();
        }
        let results = f();
        for r in &results {
            self.record(!matches!(r, Err(NsdfError::Io(_))));
        }
        results
    }
}

impl ObjectStore for BreakerStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        sole(self.guarded_many(1, || vec![self.inner.put(key, data)]))
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        sole(self.guarded_many(1, || vec![self.inner.get(key)]))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        sole(self.guarded_many(1, || vec![self.inner.get_range(key, offset, len)]))
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        self.guarded_many(keys.len(), || self.inner.get_many(keys))
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        self.guarded_many(items.len(), || self.inner.put_many(items))
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        sole(self.guarded_many(1, || vec![self.inner.head(key)]))
    }

    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        self.guarded_many(keys.len(), || self.inner.head_many(keys))
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        sole(self.guarded_many(1, || vec![self.inner.list(prefix)]))
    }

    fn delete(&self, key: &str) -> Result<()> {
        sole(self.guarded_many(1, || vec![self.inner.delete(key)]))
    }

    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        self.guarded_many(keys.len(), || self.inner.delete_many(keys))
    }

    fn describe(&self) -> String {
        format!(
            "{} behind a circuit breaker ({} failures open it)",
            self.inner.describe(),
            self.policy.failure_threshold
        )
    }
}

/// Registry handles for one `IntegrityStore`, under the `integrity` scope.
struct IntegrityMetrics {
    verified: Counter,
    rejected: Counter,
}

impl IntegrityMetrics {
    fn new(obs: &Obs) -> Self {
        let obs = obs.scoped("integrity");
        IntegrityMetrics { verified: obs.counter("verified"), rejected: obs.counter("rejected") }
    }
}

/// End-to-end payload verification over any [`ObjectStore`].
///
/// Every check is [`nsdf_util::checksum64`]. An intact
/// [`nsdf_util::seal`] envelope (every IDX block and catalog object)
/// carries its checksum and is verified in place. Any other
/// `get`/`get_many` payload (headers, TIFFs, FUSE files, unsealed older
/// blocks, an envelope with the retired FNV-1a trailer, a sealed payload
/// damaged in flight) is checked against [`ObjectMeta::checksum`],
/// fetched by one [`ObjectStore::head_many`] wave over just those keys.
/// A mismatch surfaces as a retryable I/O error, so a [`RetryStore`]
/// above re-fetches instead of handing corrupt bytes to the decoder.
/// Ranged reads pass through unverified. Like S3's in-response
/// checksum, the in-place check proves the bytes are what a writer
/// sealed, not that they are the latest version: that takes content
/// addressing.
///
/// Writes are verified symmetrically: the [`ObjectMeta`] a `put`/`put_many`
/// returns checksums what the endpoint actually stored, so comparing it
/// against the payload we sent catches write-path corruption — again as a
/// retryable I/O error, so the retry layer re-uploads clean bytes.
pub struct IntegrityStore {
    inner: Arc<dyn ObjectStore>,
    m: IntegrityMetrics,
}

impl IntegrityStore {
    /// Wrap `inner`, verifying full-object read payloads.
    pub fn new(inner: Arc<dyn ObjectStore>) -> Self {
        IntegrityStore { inner, m: IntegrityMetrics::new(&Obs::default()) }
    }

    /// Report verification accounting into `obs` (scope `…integrity`).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.m = IntegrityMetrics::new(obs);
        self
    }

    /// Payloads rejected for checksum mismatch so far.
    pub fn rejected(&self) -> u64 {
        self.m.rejected.get()
    }

    fn check(&self, key: &str, data: &[u8], meta: &ObjectMeta) -> Result<()> {
        if checksum64(data) == meta.checksum {
            self.m.verified.inc();
            Ok(())
        } else {
            self.m.rejected.inc();
            Err(NsdfError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("checksum mismatch for {key:?}: payload damaged in flight"),
            )))
        }
    }

    /// The one write-verify body: `send` stores `items`, and every stored
    /// object's checksum is compared against the payload sent.
    fn verified_writes(
        &self,
        items: &[(&str, &[u8])],
        send: impl FnOnce(&[(&str, &[u8])]) -> Vec<Result<ObjectMeta>>,
    ) -> Vec<Result<ObjectMeta>> {
        let mut results = send(items);
        for (r, (k, d)) in results.iter_mut().zip(items) {
            if let Err(e) = r.as_ref().map_or(Ok(()), |meta| self.check(k, d, meta)) {
                *r = Err(e);
            }
        }
        results
    }

    /// The one read-verify body: `fetch` the keys, pass the intact sealed
    /// payloads, and `head` the other arrivals to check their checksums.
    fn verified_reads(
        &self,
        keys: &[&str],
        fetch: impl FnOnce(&[&str]) -> Vec<Result<Vec<u8>>>,
        head: impl FnOnce(&[&str]) -> Vec<Result<ObjectMeta>>,
    ) -> Vec<Result<Vec<u8>>> {
        let mut results = fetch(keys);
        let mut ok_idx = Vec::new();
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(data) if is_sealed(data) => self.m.verified.inc(),
                Ok(_) => ok_idx.push(i),
                Err(_) => {}
            }
        }
        if ok_idx.is_empty() {
            return results;
        }
        let ok_keys: Vec<&str> = ok_idx.iter().map(|&i| keys[i]).collect();
        for (&i, meta) in ok_idx.iter().zip(head(&ok_keys)) {
            // A payload whose checksum did not arrive is one failed
            // (retryable) fetch.
            let data = results[i].as_ref().expect("index filtered on Ok");
            if let Err(e) = meta.and_then(|meta| self.check(keys[i], data, &meta)) {
                results[i] = Err(e);
            }
        }
        results
    }
}

impl ObjectStore for IntegrityStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        sole(self.verified_writes(&[(key, data)], |_| vec![self.inner.put(key, data)]))
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        self.verified_writes(items, |wave| self.inner.put_many(wave))
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        sole(self.verified_reads(
            &[key],
            |_| vec![self.inner.get(key)],
            |_| vec![self.inner.head(key)],
        ))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.inner.get_range(key, offset, len)
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        self.verified_reads(keys, |wave| self.inner.get_many(wave), |ok| self.inner.head_many(ok))
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.inner.head(key)
    }

    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        self.inner.head_many(keys)
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)
    }

    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        self.inner.delete_many(keys)
    }

    fn describe(&self) -> String {
        format!("{} with checksum verification", self.inner.describe())
    }
}

/// Resilience policy for a remote endpoint: how its store stack retries,
/// hedges, sheds load, and verifies payloads.
///
/// [`EndpointPolicy::resilient`] is the one place the stack is assembled:
///
/// ```text
/// RetryStore(+hedge?) → IntegrityStore? → BreakerStore? → FaultStore → wan
/// ```
///
/// so a fault injected at the bottom is first seen by the breaker (endpoint
/// health), then surfaced as a checksum failure if it was silent
/// corruption, then retried/hedged — a cache above the result only ever
/// holds verified payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointPolicy {
    /// Exponential-backoff retry policy.
    pub retry: RetryPolicy,
    /// Hedged backup waves for batch reads; `None` disables hedging.
    pub hedge: Option<HedgePolicy>,
    /// Per-endpoint circuit breaker; `None` disables the breaker.
    pub breaker: Option<BreakerPolicy>,
    /// Verify payload checksums against object metadata, turning silent
    /// corruption into retryable I/O errors.
    pub verify_checksums: bool,
    /// Read-cache budget in bytes, for the cache tier a client puts above
    /// the stack.
    pub cache_bytes: u64,
}

impl Default for EndpointPolicy {
    /// Defaults tolerate sustained ~20% fault rates without tripping: three
    /// retry attempts with one 20 ms hedge wave, a breaker that only opens
    /// on 16 consecutive failures, checksum verification on, and a 256 MiB
    /// cache.
    fn default() -> Self {
        EndpointPolicy {
            retry: RetryPolicy::default(),
            hedge: Some(HedgePolicy::default()),
            breaker: Some(BreakerPolicy {
                failure_threshold: 16,
                cooldown_secs: 0.05,
                success_threshold: 2,
            }),
            verify_checksums: true,
            cache_bytes: 256 << 20,
        }
    }
}

impl EndpointPolicy {
    /// `wan` under the scripted `plan` and this policy's resilience layers,
    /// every layer timing itself on `clock` and reporting into `obs`.
    pub fn resilient(
        &self,
        wan: Arc<dyn ObjectStore>,
        plan: FaultPlan,
        clock: &SimClock,
        obs: &Obs,
    ) -> Result<Arc<dyn ObjectStore>> {
        let mut stack: Arc<dyn ObjectStore> =
            Arc::new(FaultStore::new(wan, plan, clock.clone())?.with_obs(obs));
        if let Some(breaker) = self.breaker {
            stack = Arc::new(BreakerStore::new(stack, breaker, clock.clone())?.with_obs(obs));
        }
        if self.verify_checksums {
            stack = Arc::new(IntegrityStore::new(stack).with_obs(obs));
        }
        let mut retry = RetryStore::new(stack, self.retry, clock.clone())?;
        if let Some(hedge) = self.hedge {
            retry = retry.with_hedging(hedge)?;
        }
        Ok(Arc::new(retry.with_obs(obs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultStore};
    use crate::memory::MemoryStore;

    /// A fresh in-memory store failing `rate` of in-scope operations.
    fn flaky_seeded(rate: f64, scope: FailScope, seed: u64) -> FaultStore {
        let plan = FaultPlan::new(seed).with_fault_rate(rate).with_scope(scope);
        FaultStore::new(Arc::new(MemoryStore::new()), plan, SimClock::new()).unwrap()
    }

    fn flaky(rate: f64, scope: FailScope) -> Arc<FaultStore> {
        Arc::new(flaky_seeded(rate, scope, 7))
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let clock = SimClock::new();
        let flaky = flaky(0.4, FailScope::All);
        let retry = RetryStore::new(
            flaky.clone(),
            RetryPolicy { max_attempts: 10, initial_backoff_secs: 0.05, multiplier: 2.0 },
            clock.clone(),
        )
        .unwrap();
        for i in 0..50 {
            retry.put(&format!("k{i}"), format!("v{i}").as_bytes()).unwrap();
        }
        for i in 0..50 {
            assert_eq!(retry.get(&format!("k{i}")).unwrap(), format!("v{i}").as_bytes());
        }
        assert!(retry.retries() > 0);
        assert!(clock.now_secs() > 0.0, "backoff must charge the clock");
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let clock = SimClock::new();
        let always_fail = flaky(1.0, FailScope::All);
        let retry = RetryStore::new(
            always_fail,
            RetryPolicy { max_attempts: 3, initial_backoff_secs: 0.1, multiplier: 2.0 },
            clock.clone(),
        )
        .unwrap();
        assert!(retry.get("k").is_err());
        assert_eq!(retry.retries(), 2); // 3 attempts = 2 retries
                                        // Backoff 0.1 + 0.2 charged.
        assert!((clock.now_secs() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn permanent_errors_not_retried() {
        let clock = SimClock::new();
        let retry =
            RetryStore::new(Arc::new(MemoryStore::new()), RetryPolicy::default(), clock.clone())
                .unwrap();
        assert!(retry.get("missing").unwrap_err().is_not_found());
        assert_eq!(retry.retries(), 0);
        assert_eq!(clock.now_secs(), 0.0);
    }

    #[test]
    fn retry_get_many_recovers_in_waves() {
        let clock = SimClock::new();
        let flaky = flaky(0.4, FailScope::Reads);
        let retry = RetryStore::new(
            flaky.clone(),
            RetryPolicy { max_attempts: 10, initial_backoff_secs: 0.05, multiplier: 2.0 },
            clock.clone(),
        )
        .unwrap();
        let keys: Vec<String> = (0..30).map(|i| format!("k{i}")).collect();
        for (i, k) in keys.iter().enumerate() {
            retry.put(k, format!("v{i}").as_bytes()).unwrap();
        }
        let before = clock.now_secs();
        let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
        let results = retry.get_many(&refs);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), format!("v{i}").as_bytes(), "key {i}");
        }
        assert!(retry.retries() > 0, "rate 0.4 over 30 keys must retry");
        // Waves share one backoff each: the clock charge is exactly the
        // per-wave schedule (0.05 doubling), while the retry counter counts
        // per key — strictly more retried keys than backoff episodes.
        let charged = clock.now_secs() - before;
        let waves = retry.m.waves.get();
        let schedule: f64 = (0..waves).map(|w| 0.05 * 2f64.powi(w as i32)).sum();
        assert!(charged > 0.0);
        assert!((charged - schedule).abs() < 1e-9, "one backoff per wave: {charged} vs {schedule}");
        assert!(retry.retries() > waves, "waves must be shared across keys");
    }

    #[test]
    fn retry_get_many_mixes_permanent_and_transient() {
        let clock = SimClock::new();
        let flaky = flaky(0.4, FailScope::Reads);
        let retry = RetryStore::new(flaky, RetryPolicy::default(), clock.clone()).unwrap();
        retry.put("present", b"yes").unwrap();
        // "absent" resolves as NotFound without burning retry attempts even
        // while its wave-mates retry transient failures.
        let results = retry.get_many(&["present", "absent"]);
        assert_eq!(results[0].as_ref().unwrap(), b"yes");
        assert!(results[1].as_ref().unwrap_err().is_not_found());
    }

    #[test]
    fn retry_get_many_gives_up_after_max_attempts() {
        let clock = SimClock::new();
        let always_fail = flaky(1.0, FailScope::All);
        let retry = RetryStore::new(
            always_fail,
            RetryPolicy { max_attempts: 3, initial_backoff_secs: 0.1, multiplier: 2.0 },
            clock.clone(),
        )
        .unwrap();
        let results = retry.get_many(&["a", "b"]);
        assert!(results.iter().all(|r| matches!(r, Err(NsdfError::Io(_)))));
        // Two keys x 2 retry waves; backoff charged once per wave.
        assert_eq!(retry.retries(), 4);
        assert!((clock.now_secs() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn retry_get_many_charges_one_backoff_per_wave() {
        // Satellite fault-path test: drive get_many through a flaky inner
        // and check, via the registry, that each retry wave charges exactly
        // one policy backoff step — and that the whole episode (per-key
        // outcomes, error text, clock charge) is deterministic.
        let policy = RetryPolicy { max_attempts: 4, initial_backoff_secs: 0.05, multiplier: 2.0 };
        let run = || {
            let obs = Obs::new(SimClock::new());
            let flaky = Arc::new(flaky_seeded(0.45, FailScope::Reads, 11).with_obs(&obs));
            let retry = RetryStore::new(flaky, policy, obs.clock().clone()).unwrap().with_obs(&obs);
            let keys: Vec<String> = (0..24).map(|i| format!("k{i}")).collect();
            for (i, k) in keys.iter().enumerate() {
                retry.put(k, format!("v{i}").as_bytes()).unwrap();
            }
            let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
            let outcomes: Vec<String> = retry
                .get_many(&refs)
                .into_iter()
                .map(|r| match r {
                    Ok(v) => String::from_utf8(v).unwrap(),
                    Err(e) => format!("err: {e}"),
                })
                .collect();
            (obs.snapshot(), outcomes, obs.clock().now_ns())
        };

        let (snap, outcomes, clock_ns) = run();
        let waves = snap.counter("retry.waves");
        assert!(waves >= 1, "rate 0.45 over 24 keys must need at least one retry wave");
        assert!(waves <= (policy.max_attempts - 1) as u64);
        // One backoff charge per wave, stepping through the policy schedule.
        let expected_backoff: u64 = (0..waves)
            .map(|w| secs_to_ns(policy.initial_backoff_secs * policy.multiplier.powi(w as i32)))
            .sum();
        assert_eq!(snap.counter("retry.backoff_vns"), expected_backoff);
        assert_eq!(clock_ns, expected_backoff, "clock charge == sum of per-wave backoffs");
        assert!(snap.counter("retry.retries") >= waves, "each wave retries >= 1 key");
        assert!(snap.counter("fault.injected") >= snap.counter("retry.retries"));

        // Deterministic error propagation: an identically-seeded run gives
        // identical per-key outcomes (including error text) and metrics.
        let (snap2, outcomes2, clock_ns2) = run();
        assert_eq!(outcomes, outcomes2);
        assert_eq!(snap.to_json(), snap2.to_json());
        assert_eq!(clock_ns, clock_ns2);
    }

    #[test]
    fn invalid_configs_rejected() {
        let inner: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        assert!(RetryStore::new(
            inner.clone(),
            RetryPolicy { max_attempts: 0, initial_backoff_secs: 0.1, multiplier: 2.0 },
            SimClock::new()
        )
        .is_err());
        for (backoff, multiplier, field) in [
            (f64::INFINITY, 2.0, "initial_backoff_secs"),
            (f64::NAN, 2.0, "initial_backoff_secs"),
            (-0.1, 2.0, "initial_backoff_secs"),
            (0.1, f64::NAN, "multiplier"),
            (0.1, f64::INFINITY, "multiplier"),
            (0.1, -2.0, "multiplier"),
        ] {
            let policy = RetryPolicy { max_attempts: 3, initial_backoff_secs: backoff, multiplier };
            let err = RetryStore::new(inner.clone(), policy, SimClock::new()).err().unwrap();
            assert!(matches!(err, NsdfError::InvalidArg(ref m) if m.contains(field)), "{err}");
        }
        for delay_secs in [-0.1, f64::NAN, f64::INFINITY] {
            let retry =
                RetryStore::new(inner.clone(), RetryPolicy::default(), SimClock::new()).unwrap();
            let err = retry.with_hedging(HedgePolicy { delay_secs, max_hedges: 1 }).err().unwrap();
            assert!(
                matches!(err, NsdfError::InvalidArg(ref m) if m.contains("delay_secs")),
                "{err}"
            );
        }
        let retry =
            RetryStore::new(inner.clone(), RetryPolicy::default(), SimClock::new()).unwrap();
        assert!(retry.with_hedging(HedgePolicy { delay_secs: 0.1, max_hedges: 0 }).is_err());
        assert!(BreakerStore::new(
            inner.clone(),
            BreakerPolicy { failure_threshold: 0, ..BreakerPolicy::default() },
            SimClock::new()
        )
        .is_err());
        for cooldown_secs in [0.0, f64::NAN, f64::INFINITY] {
            let policy = BreakerPolicy { cooldown_secs, ..BreakerPolicy::default() };
            let err = BreakerStore::new(inner.clone(), policy, SimClock::new()).err().unwrap();
            assert!(matches!(err, NsdfError::InvalidArg(ref m) if m.contains("cooldown_secs")));
        }
    }

    #[test]
    fn hedged_get_many_rescues_failures_cheaper_than_backoff() {
        let run = |hedged: bool| {
            let obs = Obs::new(SimClock::new());
            let flaky = Arc::new(flaky_seeded(0.35, FailScope::Reads, 17).with_obs(&obs));
            let policy =
                RetryPolicy { max_attempts: 6, initial_backoff_secs: 0.1, multiplier: 2.0 };
            let mut retry =
                RetryStore::new(flaky, policy, obs.clock().clone()).unwrap().with_obs(&obs);
            if hedged {
                retry =
                    retry.with_hedging(HedgePolicy { delay_secs: 0.005, max_hedges: 1 }).unwrap();
            }
            let keys: Vec<String> = (0..40).map(|i| format!("k{i}")).collect();
            for (i, k) in keys.iter().enumerate() {
                retry.put(k, format!("v{i}").as_bytes()).unwrap();
            }
            let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
            let results = retry.get_many(&refs);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(r.as_ref().unwrap(), format!("v{i}").as_bytes(), "key {i}");
            }
            (obs.clock().now_ns(), obs.snapshot(), retry.m.hedge_wins.get())
        };
        let (plain_ns, plain_snap, _) = run(false);
        let (hedged_ns, hedged_snap, wins) = run(true);
        assert!(wins > 0, "rate 0.35 over 40 keys must let some hedge win");
        assert_eq!(hedged_snap.counter("retry.hedge_wins"), wins);
        assert!(hedged_snap.counter("retry.hedge_waves") >= 1);
        assert!(
            hedged_ns < plain_ns,
            "hedging at 5 ms must beat 100 ms+ backoff waves: {hedged_ns} vs {plain_ns}"
        );
        // Hedge waves do not consume retry attempts, and the hedge clock
        // charge mirrors the delay schedule exactly.
        assert_eq!(
            hedged_snap.counter("retry.hedge_vns"),
            hedged_snap.counter("retry.hedge_waves") * secs_to_ns(0.005)
        );
        let _ = plain_snap;
    }

    #[test]
    fn hedging_is_deterministic() {
        let run = || {
            let obs = Obs::new(SimClock::new());
            let flaky = Arc::new(flaky_seeded(0.3, FailScope::Reads, 23).with_obs(&obs));
            let retry = RetryStore::new(flaky, RetryPolicy::default(), obs.clock().clone())
                .unwrap()
                .with_obs(&obs)
                .with_hedging(HedgePolicy::default())
                .unwrap();
            let keys: Vec<String> = (0..30).map(|i| format!("k{i}")).collect();
            for (i, k) in keys.iter().enumerate() {
                retry.put(k, format!("v{i}").as_bytes()).unwrap();
            }
            let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
            let ok: Vec<bool> = retry.get_many(&refs).iter().map(|r| r.is_ok()).collect();
            (ok, obs.clock().now_ns(), obs.snapshot().to_json())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn breaker_trips_fast_fails_and_recovers() {
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        let dead = Arc::new(flaky_seeded(1.0, FailScope::Reads, 3));
        let policy =
            BreakerPolicy { failure_threshold: 3, cooldown_secs: 0.5, success_threshold: 2 };
        let breaker =
            BreakerStore::new(dead.clone(), policy, clock.clone()).unwrap().with_obs(&obs);
        breaker.put("k", b"v").unwrap(); // writes pass (scope Reads)

        assert_eq!(breaker.core.lock().state, BreakerState::Closed);
        for _ in 0..3 {
            assert!(breaker.get("k").is_err());
        }
        assert_eq!(breaker.core.lock().state, BreakerState::Open);
        let injected_when_open = dead.injected_failures();

        // Open: fast-fail without touching the inner store.
        for _ in 0..5 {
            assert!(breaker.get("k").is_err());
        }
        assert_eq!(dead.injected_failures(), injected_when_open, "open breaker shields inner");
        assert_eq!(breaker.m.fast_failures.get(), 5);

        // Cooldown elapses on the virtual clock; next request half-opens
        // and probes. The endpoint is still dead, so the probe re-opens.
        clock.advance_secs(0.6);
        assert!(breaker.get("k").is_err());
        assert!(dead.injected_failures() > injected_when_open, "half-open probes the endpoint");
        assert_eq!(breaker.core.lock().state, BreakerState::Open);

        let snap = obs.snapshot();
        assert_eq!(snap.counter("breaker.opened"), 2, "tripped once, re-opened once");
        assert_eq!(snap.counter("breaker.half_opened"), 1);
        assert_eq!(snap.counter("breaker.fast_failures"), 5);
        assert_eq!(snap.gauge("breaker.state"), 1.0);
        // Transitions land on the span timeline as zero-duration events.
        let labels: Vec<String> = obs.span_tree().iter().map(|s| s.label.clone()).collect();
        assert!(labels.contains(&"breaker.open".to_string()));
        assert!(labels.contains(&"breaker.half_open".to_string()));
    }

    #[test]
    fn breaker_closes_after_probe_successes() {
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        // Fails exactly while we trip the breaker, then the window ends and
        // the endpoint is healthy again — the scripted-outage shape.
        let plan = FaultPlan::new(1).error_burst(0.0, 1.0, 1.0);
        let inner = Arc::new(MemoryStore::new());
        inner.put("k", b"v").unwrap();
        let faulty = Arc::new(FaultStore::new(inner, plan, clock.clone()).unwrap());
        let policy =
            BreakerPolicy { failure_threshold: 2, cooldown_secs: 0.5, success_threshold: 2 };
        let breaker = BreakerStore::new(faulty, policy, clock.clone()).unwrap().with_obs(&obs);

        assert!(breaker.get("k").is_err());
        assert!(breaker.get("k").is_err());
        assert_eq!(breaker.core.lock().state, BreakerState::Open);
        clock.advance_secs(1.1); // past cooldown AND past the burst window
        assert!(breaker.get("k").is_ok(), "first probe succeeds");
        assert_eq!(breaker.core.lock().state, BreakerState::HalfOpen);
        assert!(breaker.get("k").is_ok(), "second probe closes");
        assert_eq!(breaker.core.lock().state, BreakerState::Closed);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("breaker.opened"), 1);
        assert_eq!(snap.counter("breaker.closed"), 1);
        assert_eq!(snap.gauge("breaker.state"), 0.0);
    }

    #[test]
    fn breaker_batches_fast_fail_per_key() {
        let clock = SimClock::new();
        let dead = Arc::new(flaky_seeded(1.0, FailScope::Reads, 3));
        let breaker = BreakerStore::new(
            dead,
            BreakerPolicy { failure_threshold: 2, ..BreakerPolicy::default() },
            clock,
        )
        .unwrap();
        let r = breaker.get_many(&["a", "b", "c"]);
        assert!(r.iter().all(|x| x.is_err()), "dead endpoint fails the batch and trips");
        assert_eq!(breaker.core.lock().state, BreakerState::Open);
        let r = breaker.get_many(&["a", "b", "c"]);
        assert!(r.iter().all(|x| x.is_err()));
        assert_eq!(breaker.m.fast_failures.get(), 3, "every key of the shed batch is counted");
    }

    #[test]
    fn not_found_does_not_trip_breaker() {
        let breaker = BreakerStore::new(
            Arc::new(MemoryStore::new()),
            BreakerPolicy { failure_threshold: 1, ..BreakerPolicy::default() },
            SimClock::new(),
        )
        .unwrap();
        for _ in 0..5 {
            assert!(breaker.get("missing").unwrap_err().is_not_found());
        }
        assert_eq!(breaker.core.lock().state, BreakerState::Closed);
    }

    #[test]
    fn integrity_store_detects_corruption_and_retry_recovers() {
        let obs = Obs::new(SimClock::new());
        let inner = Arc::new(MemoryStore::new());
        let keys: Vec<String> = (0..40).map(|i| format!("k{i}")).collect();
        for (i, k) in keys.iter().enumerate() {
            inner.put(k, format!("payload-{i}").as_bytes()).unwrap();
        }
        let plan = FaultPlan::new(31).with_corrupt_rate(0.3);
        let faulty =
            Arc::new(FaultStore::new(inner, plan, obs.clock().clone()).unwrap().with_obs(&obs));
        let verified = Arc::new(IntegrityStore::new(faulty.clone()).with_obs(&obs));

        // Unverified, corruption slips through: some payload differs.
        let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
        let raw = faulty.get_many(&refs);
        let damaged = raw
            .iter()
            .enumerate()
            .filter(|(i, r)| r.as_ref().unwrap() != format!("payload-{i}").as_bytes())
            .count();
        assert!(damaged > 0, "corrupt rate 0.3 over 40 keys must damage something");

        // Verified + retried: every payload comes back clean.
        let retry = RetryStore::new(
            verified,
            RetryPolicy { max_attempts: 8, initial_backoff_secs: 0.01, multiplier: 2.0 },
            obs.clock().clone(),
        )
        .unwrap()
        .with_obs(&obs);
        for (i, r) in retry.get_many(&refs).iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), format!("payload-{i}").as_bytes(), "key {i}");
        }
        let snap = obs.snapshot();
        assert!(snap.counter("integrity.rejected") > 0, "mismatches must be caught");
        assert!(snap.counter("integrity.verified") > 0);
        assert!(snap.counter("fault.corrupted") >= snap.counter("integrity.rejected"));
    }

    #[test]
    fn retry_put_many_recovers_in_waves() {
        let clock = SimClock::new();
        let flaky = flaky(0.4, FailScope::Writes);
        let retry = RetryStore::new(
            flaky,
            RetryPolicy { max_attempts: 10, initial_backoff_secs: 0.05, multiplier: 2.0 },
            clock.clone(),
        )
        .unwrap();
        let keys: Vec<String> = (0..30).map(|i| format!("k{i}")).collect();
        let bodies: Vec<Vec<u8>> = (0..30).map(|i| format!("v{i}").into_bytes()).collect();
        let items: Vec<(&str, &[u8])> =
            keys.iter().zip(&bodies).map(|(k, d)| (k.as_str(), d.as_slice())).collect();
        let before = clock.now_secs();
        let results = retry.put_many(&items);
        assert!(results.iter().all(|r| r.is_ok()), "retries absorb 40% write faults");
        for (k, d) in keys.iter().zip(&bodies) {
            assert_eq!(&retry.get(k).unwrap(), d);
        }
        assert!(retry.retries() > 0);
        // One shared backoff per wave, same schedule as reads.
        let charged = clock.now_secs() - before;
        let waves = retry.m.waves.get();
        let schedule: f64 = (0..waves).map(|w| 0.05 * 2f64.powi(w as i32)).sum();
        assert!((charged - schedule).abs() < 1e-9, "one backoff per wave: {charged} vs {schedule}");
        assert!(retry.retries() > waves, "waves must be shared across keys");
    }

    #[test]
    fn retry_put_many_permanent_errors_resolve_immediately() {
        let clock = SimClock::new();
        let retry =
            RetryStore::new(Arc::new(MemoryStore::new()), RetryPolicy::default(), clock.clone())
                .unwrap();
        let results = retry.put_many(&[("fine", b"ok" as &[u8]), ("bad//key", b"x")]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert_eq!(retry.retries(), 0, "invalid-key errors are permanent");
        assert_eq!(clock.now_secs(), 0.0);
    }

    #[test]
    fn retry_delete_many_resends_only_transient_failures() {
        let clock = SimClock::new();
        let mem = Arc::new(MemoryStore::new());
        let keys: Vec<String> = (0..30).map(|i| format!("k{i}")).collect();
        for k in &keys {
            mem.put(k, b"v").unwrap(); // below the fault layer: no draws consumed
        }
        let plan = FaultPlan::new(7).with_fault_rate(0.4).with_scope(FailScope::Writes);
        let flaky = Arc::new(FaultStore::new(mem.clone(), plan, clock.clone()).unwrap());
        let retry = RetryStore::new(
            flaky.clone(),
            RetryPolicy { max_attempts: 10, initial_backoff_secs: 0.05, multiplier: 2.0 },
            clock.clone(),
        )
        .unwrap();
        let mut refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
        refs.push("never-stored");
        let results = retry.delete_many(&refs);
        // A key removed by one wave and sent again would come back
        // NotFound: all-Ok proves no acked delete was re-sent.
        assert!(results[..30].iter().all(|r| r.is_ok()), "retries absorb 40% write faults");
        assert!(results[30].as_ref().unwrap_err().is_not_found(), "permanent, in input order");
        assert_eq!(mem.object_count(), 0);
        // Every extra attempt the endpoint saw is a counted retry of a
        // transiently failed key, and each wave paid one shared backoff.
        let resent: u64 = refs.iter().map(|k| flaky.attempts_for(k) - 1).sum();
        assert_eq!(resent, retry.retries());
        assert_eq!(resent, flaky.injected_failures());
        let waves = retry.m.waves.get();
        let schedule: f64 = (0..waves).map(|w| 0.05 * 2f64.powi(w as i32)).sum();
        assert!((clock.now_secs() - schedule).abs() < 1e-9, "one backoff per wave");
        assert!(retry.retries() > waves, "waves must be shared across keys");
    }

    #[test]
    fn retry_head_many_rides_waves_not_one_round_trip_per_key() {
        use crate::wan::{CloudStore, NetworkProfile};
        // Twenty heads in one batch over a seeded WAN with its own registry:
        // (WAN episodes charged, metrics).
        let run = |fault_rate: f64| {
            let clock = SimClock::new();
            let obs = Obs::new(clock.clone());
            let mem = Arc::new(MemoryStore::new());
            let keys: Vec<String> = (0..20).map(|i| format!("k{i:02}")).collect();
            for k in &keys {
                mem.put(k, b"v").unwrap(); // below the WAN: no clock, no draws
            }
            let wan = CloudStore::new(mem, NetworkProfile::private_seal(), clock.clone(), 5)
                .with_obs(&obs);
            let plan = FaultPlan::new(7).with_fault_rate(fault_rate).with_scope(FailScope::Reads);
            let flaky = FaultStore::new(Arc::new(wan), plan, clock.clone()).unwrap();
            let retry = RetryStore::new(
                Arc::new(flaky),
                RetryPolicy { max_attempts: 10, initial_backoff_secs: 0.05, multiplier: 2.0 },
                clock,
            )
            .unwrap()
            .with_obs(&obs);
            let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
            let metas = retry.head_many(&refs);
            for (k, m) in refs.iter().zip(&metas) {
                assert_eq!(&m.as_ref().unwrap().key, k, "per-key results in input order");
            }
            let snap = obs.snapshot();
            let episodes: u64 = snap.histograms["wan.op_vsecs"].counts.iter().sum();
            (episodes, snap)
        };

        // Quiet endpoint: one batch is one WAN episode, not twenty.
        let (episodes, snap) = run(0.0);
        assert_eq!(episodes, 1);
        assert_eq!(snap.counter("wan.read_ops"), 20);
        assert_eq!(snap.counter("retry.waves"), 0);

        // 25% read faults: failed keys re-batch, so back-offs are counted
        // per wave (shared by the keys in it) and every wave is one episode.
        let (episodes, snap) = run(0.25);
        let (waves, retries) = (snap.counter("retry.waves"), snap.counter("retry.retries"));
        assert!(waves >= 1 && waves < retries, "{waves} waves for {retries} retried keys");
        assert_eq!(episodes, waves + 1, "one WAN episode per wave");
        assert_eq!(snap.counter("wan.read_ops"), 20, "an acked head is never re-sent");
    }

    #[test]
    fn breaker_shields_dead_endpoint_from_put_many() {
        let clock = SimClock::new();
        let dead = Arc::new(flaky_seeded(1.0, FailScope::Writes, 3));
        let breaker = BreakerStore::new(
            dead.clone(),
            BreakerPolicy { failure_threshold: 2, ..BreakerPolicy::default() },
            clock,
        )
        .unwrap();
        let items: Vec<(&str, &[u8])> = vec![("a", b"1"), ("b", b"2"), ("c", b"3")];
        assert!(breaker.put_many(&items).iter().all(|r| r.is_err()));
        assert_eq!(breaker.core.lock().state, BreakerState::Open);
        let injected = dead.injected_failures();
        assert!(breaker.put_many(&items).iter().all(|r| r.is_err()));
        assert_eq!(dead.injected_failures(), injected, "open breaker shields inner");
        assert_eq!(breaker.m.fast_failures.get(), 3);
    }

    #[test]
    fn integrity_catches_write_corruption_and_retry_reuploads() {
        let obs = Obs::new(SimClock::new());
        let inner = Arc::new(MemoryStore::new());
        let plan = FaultPlan::new(31).with_corrupt_rate(0.3).with_scope(FailScope::Writes);
        let faulty = Arc::new(
            FaultStore::new(inner.clone(), plan, obs.clock().clone()).unwrap().with_obs(&obs),
        );
        let verified = Arc::new(IntegrityStore::new(faulty).with_obs(&obs));
        let retry = RetryStore::new(
            verified,
            RetryPolicy { max_attempts: 8, initial_backoff_secs: 0.01, multiplier: 2.0 },
            obs.clock().clone(),
        )
        .unwrap()
        .with_obs(&obs);

        let keys: Vec<String> = (0..40).map(|i| format!("k{i}")).collect();
        let bodies: Vec<Vec<u8>> = (0..40).map(|i| format!("payload-{i}").into_bytes()).collect();
        let items: Vec<(&str, &[u8])> =
            keys.iter().zip(&bodies).map(|(k, d)| (k.as_str(), d.as_slice())).collect();
        let results = retry.put_many(&items);
        assert!(results.iter().all(|r| r.is_ok()));
        // Every stored object is bitwise the payload we sent: corrupted
        // uploads were caught by the checksum check and re-uploaded clean.
        for (k, d) in keys.iter().zip(&bodies) {
            assert_eq!(&inner.get(k).unwrap(), d);
        }
        let snap = obs.snapshot();
        assert!(snap.counter("fault.corrupted") > 0, "corruption was injected");
        assert!(snap.counter("integrity.rejected") > 0, "and caught on the write path");
        assert!(snap.counter("retry.retries") > 0, "and healed by re-upload");
    }

    #[test]
    fn integrity_single_put_detects_corruption() {
        let plan = FaultPlan::new(2).with_corrupt_rate(1.0).with_scope(FailScope::Writes);
        let faulty =
            Arc::new(FaultStore::new(Arc::new(MemoryStore::new()), plan, SimClock::new()).unwrap());
        let verified = IntegrityStore::new(faulty);
        let err = verified.put("k", b"payload").unwrap_err();
        assert!(matches!(err, NsdfError::Io(_)), "mismatch must be retryable I/O");
        assert_eq!(verified.rejected(), 1);
    }

    #[test]
    fn integrity_single_get_detects_corruption() {
        let inner = Arc::new(MemoryStore::new());
        inner.put("k", b"payload").unwrap();
        // corrupt_rate 1.0: every read is damaged.
        let plan = FaultPlan::new(2).with_corrupt_rate(1.0);
        let faulty = Arc::new(FaultStore::new(inner, plan, SimClock::new()).unwrap());
        let verified = IntegrityStore::new(faulty);
        let err = verified.get("k").unwrap_err();
        assert!(matches!(err, NsdfError::Io(_)), "mismatch must be retryable I/O");
        assert_eq!(verified.rejected(), 1);
        assert!(verified.head("k").is_ok(), "metadata itself is fine");
    }
}
