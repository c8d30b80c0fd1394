//! Shared-WAN admission control: the multi-tenant scheduler in front of
//! the modeled cloud endpoints.
//!
//! Every subsystem below this layer is single-user: a [`CloudStore`]
//! charges whoever calls it, first come first served. A shared science
//! fabric does not work that way — thousands of concurrent sessions and
//! ingest jobs contend for the same WAN links, and what makes the fabric
//! usable is *fairness*, not raw single-stream speed. This module models
//! that admission layer on the same deterministic [`SimClock`] the WAN
//! runs on:
//!
//! * [`Scheduler`] — a single grant loop multiplexing requests from many
//!   tenants over the shared link. Requests queue per tenant within three
//!   priority tiers ([`Priority::Interactive`] > [`Priority::Prefetch`] >
//!   [`Priority::Bulk`]); grants cycle through the tiers under a weighted
//!   quota (default 8/2/1) so interactive pans preempt bulk ingest without
//!   starving it, and round-robin across tenants within a tier so one
//!   tenant cannot monopolize its class.
//! * `TokenBucket` — per-tenant bandwidth shares in exact integer
//!   byte-nanosecond arithmetic: a grant is eligible only when the
//!   tenant's bucket holds the request's charge, and the bucket never
//!   over-grants within any virtual window (property-tested).
//! * [`SchedStore`] — an [`ObjectStore`] adapter that routes the data
//!   plane (`get`/`get_many`/`put`/`put_many`) of an existing stack
//!   through the scheduler, attributing each call to a tenant and class.
//!   Callers higher in the stack (sessions) tag their calls through the
//!   ambient [`tag_tenant`]/[`tag_class`] guards without widening the
//!   `ObjectStore` signatures. A caller's issue frame ([`UploadLanes`])
//!   travels the same way, and the adapter moves it into the caller's own
//!   request: another tenant's grant run on the caller's thread meanwhile
//!   stays blocking.
//!
//! Everything is deterministic under seed and single-threaded driving:
//! queues are `BTreeMap`-ordered, ties break on submission sequence, and
//! idle time advances the virtual clock to the earliest token refill or
//! scripted arrival. Instrumentation lands under the `sched.*` scope;
//! when every WAN call runs inside a grant, `sched.granted_vns`
//! reconciles *exactly* with `wan.busy_vns` ([`CloudStore::busy_vns`]):
//! every WAN call is a placement on the link timeline, and a grant counts
//! the charges its placements booked — an issued wave's included, though
//! it moved the clock only to its lane grant, and a blocking call's wait
//! for the link to drain left out.
//!
//! [`CloudStore`]: crate::wan::CloudStore
//! [`CloudStore::busy_vns`]: crate::wan::CloudStore::busy_vns
//! [`UploadLanes`]: crate::wan::UploadLanes

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

use nsdf_util::{checksum64, Counter, Fnv1a, Obs, Result, SimClock};
use parking_lot::Mutex;

use crate::store::{sole, ObjectMeta, ObjectStore};
use crate::wan::{
    restore_issue_frame, take_issue_frame, uncharged_vns, with_issue_frame, UploadLanes,
};

/// Identifies one tenant (user, session owner, ingest job) to the scheduler.
pub type TenantId = u32;

/// Nanoseconds per second: the scale factor between bytes and the
/// byte-nanosecond token unit.
const BNS: u128 = 1_000_000_000;

/// Request class, in strict preference order.
///
/// The derived `Ord` is the scheduling order: `Interactive` ranks before
/// `Prefetch` ranks before `Bulk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// A user is waiting on this request (pans, zooms, demand fetches).
    Interactive = 0,
    /// Speculative work issued ahead of need.
    Prefetch = 1,
    /// Throughput-oriented background transfers (bulk ingest).
    Bulk = 2,
}

impl Priority {
    /// Stable lowercase name (metric keys, reports).
    pub fn name(&self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Prefetch => "prefetch",
            Priority::Bulk => "bulk",
        }
    }

    fn tier(&self) -> usize {
        *self as usize
    }
}

/// Per-tenant bandwidth share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Sustained refill rate in bytes per virtual second. `0` means
    /// unthrottled (the bucket never gates this tenant).
    pub rate_bytes_per_sec: u64,
    /// Burst capacity in bytes. A single request is charged at most the
    /// burst, so any request eventually becomes affordable.
    pub burst_bytes: u64,
}

impl TenantPolicy {
    /// A throttled share of `rate` bytes/s with `burst` bytes of credit.
    pub fn new(rate_bytes_per_sec: u64, burst_bytes: u64) -> TenantPolicy {
        TenantPolicy { rate_bytes_per_sec, burst_bytes }
    }

    /// No bandwidth gating for this tenant.
    pub fn unthrottled() -> TenantPolicy {
        TenantPolicy { rate_bytes_per_sec: 0, burst_bytes: 0 }
    }

    /// True when the bucket never gates.
    pub(crate) fn is_unthrottled(&self) -> bool {
        self.rate_bytes_per_sec == 0
    }

    /// The charge a request of `bytes` pays against this share: clamped to
    /// the burst so oversized requests stay schedulable.
    pub(crate) fn charge_bytes(&self, bytes: u64) -> u64 {
        if self.is_unthrottled() {
            0
        } else {
            bytes.min(self.burst_bytes)
        }
    }
}

/// A token bucket on the virtual clock, in exact integer arithmetic.
///
/// Tokens are byte-nanoseconds: taking `b` bytes costs `b * 1e9` units and
/// refilling at `rate` bytes per virtual second adds `rate` units per
/// nanosecond, so budget accounting is exact — no float drift, and the
/// over-grant invariant (grants inside any virtual window `[t0, t1]` never
/// exceed `burst + rate * (t1 - t0)` bytes-equivalent) holds to the unit.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    rate_bytes_per_sec: u64,
    cap_bns: u128,
    tokens_bns: u128,
    last_vns: u64,
}

impl TokenBucket {
    /// A full bucket with `burst_bytes` capacity refilling at
    /// `rate_bytes_per_sec`.
    pub(crate) fn new(rate_bytes_per_sec: u64, burst_bytes: u64) -> TokenBucket {
        let cap = (burst_bytes as u128).saturating_mul(BNS);
        TokenBucket { rate_bytes_per_sec, cap_bns: cap, tokens_bns: cap, last_vns: 0 }
    }

    fn tokens_at(&self, now_vns: u64) -> u128 {
        let delta = now_vns.saturating_sub(self.last_vns) as u128;
        self.cap_bns.min(
            self.tokens_bns.saturating_add((self.rate_bytes_per_sec as u128).saturating_mul(delta)),
        )
    }

    /// Advance the refill to `now_vns` (monotonic; earlier times are ignored).
    pub(crate) fn refill(&mut self, now_vns: u64) {
        if now_vns <= self.last_vns {
            return;
        }
        self.tokens_bns = self.tokens_at(now_vns);
        self.last_vns = now_vns;
    }

    /// Whether `bytes` could be taken at `now_vns` (no mutation).
    pub(crate) fn can_take(&self, bytes: u64, now_vns: u64) -> bool {
        self.rate_bytes_per_sec == 0 || self.tokens_at(now_vns) >= (bytes as u128) * BNS
    }

    /// Take `bytes` at `now_vns`; `false` (and no deduction) when the
    /// bucket cannot afford it.
    pub(crate) fn try_take(&mut self, bytes: u64, now_vns: u64) -> bool {
        if self.rate_bytes_per_sec == 0 {
            return true;
        }
        self.refill(now_vns);
        let cost = (bytes as u128) * BNS;
        if self.tokens_bns >= cost {
            self.tokens_bns -= cost;
            true
        } else {
            false
        }
    }

    /// Earliest virtual time `>= now_vns` at which taking `bytes` succeeds.
    ///
    /// Returns `u64::MAX` if the cost exceeds the bucket's capacity (the
    /// scheduler avoids this by clamping charges to the burst).
    pub(crate) fn ready_at(&self, bytes: u64, now_vns: u64) -> u64 {
        if self.can_take(bytes, now_vns) {
            return now_vns;
        }
        let cost = (bytes as u128) * BNS;
        if cost > self.cap_bns || self.rate_bytes_per_sec == 0 {
            return u64::MAX;
        }
        let deficit = cost - self.tokens_at(now_vns);
        let rate = self.rate_bytes_per_sec as u128;
        let delta = deficit.div_ceil(rate);
        now_vns.saturating_add(u64::try_from(delta).unwrap_or(u64::MAX))
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// QoS on: priority tiers and token buckets. QoS off: one FIFO over
    /// the shared link (the comparison baseline).
    pub qos: bool,
    /// Grants per cycle for `[interactive, prefetch, bulk]`. Every tier
    /// with queued eligible work receives its quota within one cycle, so
    /// a ready tenant's wait is bounded (no starvation).
    pub tier_quota: [u32; 3],
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig { qos: true, tier_quota: [8, 2, 1] }
    }
}

impl SchedConfig {
    /// The QoS-off baseline: a single FIFO, no buckets.
    pub fn fifo() -> SchedConfig {
        SchedConfig { qos: false, ..SchedConfig::default() }
    }
}

/// The store operation a scheduled request performs when granted.
#[derive(Clone)]
pub enum SchedOp {
    /// Batched read against `store`.
    Get {
        /// The stack the grant executes against (typically cache-over-WAN).
        store: Arc<dyn ObjectStore>,
        /// Keys to fetch, input order preserved.
        keys: Vec<String>,
    },
    /// Batched write against `store`.
    Put {
        /// The stack the grant executes against.
        store: Arc<dyn ObjectStore>,
        /// Key/payload pairs to store.
        items: Vec<(String, Vec<u8>)>,
    },
}

impl SchedOp {
    fn payload_bytes(&self) -> u64 {
        match self {
            SchedOp::Get { .. } => 0,
            SchedOp::Put { items, .. } => items.iter().map(|(_, d)| d.len() as u64).sum(),
        }
    }
}

impl std::fmt::Debug for SchedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedOp::Get { keys, .. } => f.debug_struct("Get").field("keys", &keys.len()).finish(),
            SchedOp::Put { items, .. } => {
                f.debug_struct("Put").field("items", &items.len()).finish()
            }
        }
    }
}

/// One admission request.
#[derive(Debug, Clone)]
pub struct SchedRequest {
    /// The tenant charged for this request.
    pub tenant: TenantId,
    /// Scheduling class.
    pub class: Priority,
    /// The operation to run when granted.
    pub op: SchedOp,
    /// Estimated payload bytes, charged against the tenant's bucket
    /// (clamped to the burst). For puts the exact size is known; for gets
    /// callers estimate (e.g. keys × expected block size).
    pub est_bytes: u64,
}

/// Record of one granted, executed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Scheduler-assigned request id (grant order is id-free; ids are
    /// submission-ordered).
    pub id: u64,
    /// Charged tenant.
    pub tenant: TenantId,
    /// Scheduling class.
    pub class: Priority,
    /// Virtual arrival time (scripted time for scripted requests).
    pub arrival_vns: u64,
    /// Virtual time the grant started executing.
    pub start_vns: u64,
    /// Virtual time the operation finished.
    pub end_vns: u64,
    /// Actual payload bytes moved (successful keys only).
    pub bytes: u64,
    /// Per-key errors inside the executed batch.
    pub errors: u64,
    /// Digest over per-key outcomes and payload checksums of a `Get` (`0`
    /// for puts, see [`digest_get_results`]) — lets a harness compare reads against an oracle without
    /// retaining payloads.
    pub digest: u64,
}

impl Completion {
    /// Queueing delay: grant start minus arrival.
    pub fn wait_vns(&self) -> u64 {
        self.start_vns.saturating_sub(self.arrival_vns)
    }

    /// End-to-end virtual latency: completion minus arrival.
    pub(crate) fn latency_vns(&self) -> u64 {
        self.end_vns.saturating_sub(self.arrival_vns)
    }
}

/// Result of a blocking [`Scheduler::submit_and_wait`].
#[derive(Debug)]
pub(crate) enum Served {
    /// Per-key results of a granted `Get`.
    Get(Vec<Result<Vec<u8>>>),
    /// Per-key results of a granted `Put`.
    Put(Vec<Result<ObjectMeta>>),
}

/// Cumulative per-tenant accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TenantStats {
    /// Requests granted and executed.
    granted: u64,
    /// Actual payload bytes moved by this tenant's grants.
    bytes: u64,
    /// Total queueing delay across grants (virtual ns).
    wait_vns: u64,
    /// Worst single queueing delay (virtual ns).
    max_wait_vns: u64,
    /// Virtual time this tenant's grants occupied the link.
    busy_vns: u64,
}

#[derive(Debug, Clone)]
struct TenantEntry {
    label: String,
    policy: TenantPolicy,
    bucket: TokenBucket,
    stats: TenantStats,
}

#[derive(Debug, Clone)]
struct Pending {
    id: u64,
    seq: u64,
    tenant: TenantId,
    class: Priority,
    op: SchedOp,
    est_bytes: u64,
    arrival_vns: u64,
    waited: bool,
    /// The blocked caller's issue frame, installed only while this request
    /// executes.
    frame: Option<UploadLanes>,
}

struct Arrival {
    at_vns: u64,
    seq: u64,
    req: SchedRequest,
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Arrival) -> bool {
        self.at_vns == other.at_vns && self.seq == other.seq
    }
}
impl Eq for Arrival {}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Arrival) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Arrival {
    fn cmp(&self, other: &Arrival) -> std::cmp::Ordering {
        (self.at_vns, self.seq).cmp(&(other.at_vns, other.seq))
    }
}

/// Outcome of one [`Scheduler::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One request was granted and executed (its id).
    Granted(u64),
    /// Nothing was eligible; the clock advanced to the given virtual time
    /// (earliest token refill or next scripted arrival).
    AdvancedTo(u64),
    /// No queued work and no future arrivals.
    Idle,
}

struct State {
    /// Per-tier, per-tenant FIFO queues (BTreeMap order = deterministic
    /// round-robin order). Empty tenant queues are removed eagerly.
    queues: [BTreeMap<TenantId, VecDeque<Pending>>; 3],
    queued: [usize; 3],
    /// Last tenant granted per tier (round-robin resumes after it).
    rr_cursor: [Option<TenantId>; 3],
    cycle_left: [u32; 3],
    arrivals: BinaryHeap<Reverse<Arrival>>,
    tenants: BTreeMap<TenantId, TenantEntry>,
    next_id: u64,
    next_seq: u64,
    completions: Vec<Completion>,
    /// Results for blocked callers, with the issue frame each one lent.
    waited: BTreeMap<u64, (Served, Option<UploadLanes>)>,
}

impl State {
    fn push(&mut self, p: Pending) {
        let tier = p.class.tier();
        self.queues[tier].entry(p.tenant).or_default().push_back(p);
        self.queued[tier] += 1;
    }

    fn pop(&mut self, tier: usize, tenant: TenantId) -> Option<Pending> {
        let q = self.queues[tier].get_mut(&tenant)?;
        let p = q.pop_front();
        if q.is_empty() {
            self.queues[tier].remove(&tenant);
        }
        if p.is_some() {
            self.queued[tier] -= 1;
        }
        p
    }

    fn ensure_tenant(&mut self, id: TenantId) -> &mut TenantEntry {
        self.tenants.entry(id).or_insert_with(|| {
            let policy = TenantPolicy::unthrottled();
            TenantEntry {
                label: format!("t{id:04}"),
                policy,
                bucket: TokenBucket::new(policy.rate_bytes_per_sec, policy.burst_bytes),
                stats: TenantStats::default(),
            }
        })
    }
}

/// Registry handles under the `sched` scope.
struct SchedMetrics {
    obs: Obs,
    submitted: Counter,
    granted: Counter,
    granted_class: [Counter; 3],
    granted_vns: Counter,
    queue_wait_vns: Counter,
    idle_advanced_vns: Counter,
    bytes: Counter,
    errors: Counter,
}

impl SchedMetrics {
    fn new(obs: &Obs) -> SchedMetrics {
        let obs = obs.scoped("sched");
        SchedMetrics {
            submitted: obs.counter("submitted"),
            granted: obs.counter("granted"),
            granted_class: [
                obs.counter("granted.interactive"),
                obs.counter("granted.prefetch"),
                obs.counter("granted.bulk"),
            ],
            granted_vns: obs.counter("granted_vns"),
            queue_wait_vns: obs.counter("queue_wait_vns"),
            idle_advanced_vns: obs.counter("idle_advanced_vns"),
            bytes: obs.counter("bytes"),
            errors: obs.counter("errors"),
            obs,
        }
    }
}

/// The shared-WAN admission scheduler. See the [module docs](crate::sched).
///
/// Determinism contract: driven from one thread (every fleet harness and
/// test does), grant order is a pure function of configuration, scripted
/// arrivals, and submission order. The structure is `Sync` so store
/// adapters can share it, but concurrent multi-threaded driving trades
/// away reproducible grant order.
pub struct Scheduler {
    clock: SimClock,
    cfg: SchedConfig,
    state: Mutex<State>,
    m: SchedMetrics,
}

impl Scheduler {
    /// A scheduler on `clock` with `cfg`.
    pub fn new(clock: SimClock, cfg: SchedConfig) -> Scheduler {
        let m = SchedMetrics::new(&Obs::new(clock.clone()));
        Scheduler {
            clock,
            cfg,
            state: Mutex::new(State {
                queues: [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()],
                queued: [0; 3],
                rr_cursor: [None; 3],
                cycle_left: cfg.tier_quota,
                arrivals: BinaryHeap::new(),
                tenants: BTreeMap::new(),
                next_id: 0,
                next_seq: 0,
                completions: Vec::new(),
                waited: BTreeMap::new(),
            }),
            m,
        }
    }

    /// Report `sched.*` counters and spans into `obs` — pass the registry
    /// the WAN endpoints share so `sched.granted_vns` and `wan.busy_vns`
    /// land in one snapshot.
    pub fn with_obs(mut self, obs: &Obs) -> Scheduler {
        self.m = SchedMetrics::new(obs);
        self
    }

    /// The virtual clock grants execute against.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Register (or update) a tenant's label and bandwidth share.
    /// Unregistered tenants that submit are auto-registered unthrottled.
    pub fn register_tenant(&self, id: TenantId, label: &str, policy: TenantPolicy) {
        let mut st = self.state.lock();
        let e = st.ensure_tenant(id);
        e.label = label.to_string();
        e.policy = policy;
        e.bucket = TokenBucket::new(policy.rate_bytes_per_sec, policy.burst_bytes);
    }

    /// Script a future arrival at virtual time `at_vns` (open-loop load).
    /// The request queues when the clock reaches `at_vns`; its latency is
    /// measured from `at_vns`.
    pub fn script(&self, at_vns: u64, req: SchedRequest) {
        let mut st = self.state.lock();
        st.ensure_tenant(req.tenant);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.arrivals.push(Reverse(Arrival { at_vns, seq, req }));
    }

    /// Submit a request arriving now and drive the scheduler until it
    /// completes, returning its results and `frame`, the caller's issue
    /// frame, which its grant ran under. Higher-ranked work queued ahead
    /// is granted first — the caller experiences admission queueing as
    /// virtual time.
    pub(crate) fn submit_and_wait(
        &self,
        req: SchedRequest,
        frame: Option<UploadLanes>,
    ) -> (Served, Option<UploadLanes>) {
        let id = {
            let now = self.clock.now_ns();
            let mut st = self.state.lock();
            let mut p = self.pending(&mut st, req, now, None, true);
            p.frame = frame;
            let id = p.id;
            st.push(p);
            id
        };
        loop {
            if let Some(served) = self.state.lock().waited.remove(&id) {
                return served;
            }
            if self.step() == StepOutcome::Idle {
                // Unreachable by construction: a waited request is queued
                // until granted, so the scheduler cannot go idle under it.
                let served = self.state.lock().waited.remove(&id);
                return served.expect("scheduler went idle with a waited request queued");
            }
        }
    }

    /// The one way a request enters the scheduler: it gets the next id and
    /// — unless it carries a scripted `seq` — the next submission sequence,
    /// and counts as submitted.
    fn pending(
        &self,
        st: &mut State,
        req: SchedRequest,
        arrival_vns: u64,
        seq: Option<u64>,
        waited: bool,
    ) -> Pending {
        st.ensure_tenant(req.tenant);
        let id = st.next_id;
        st.next_id += 1;
        let seq = seq.unwrap_or_else(|| {
            let next = st.next_seq;
            st.next_seq += 1;
            next
        });
        self.m.submitted.inc();
        let SchedRequest { tenant, class, op, est_bytes } = req;
        Pending { id, seq, tenant, class, op, est_bytes, arrival_vns, waited, frame: None }
    }

    /// Advance the scheduler by one decision: drain due arrivals, then
    /// grant the next eligible request or advance the clock toward
    /// eligibility.
    pub fn step(&self) -> StepOutcome {
        let grant = {
            let mut st = self.state.lock();
            let now = self.clock.now_ns();
            self.drain_arrivals(&mut st, now);
            match self.pick(&mut st, now) {
                Pick::Grant(p) => p,
                Pick::Wait(t) => {
                    drop(st);
                    let now = self.clock.now_ns();
                    self.clock.advance_to_ns(t);
                    self.m.idle_advanced_vns.add(t.saturating_sub(now));
                    return StepOutcome::AdvancedTo(t);
                }
                Pick::Idle => return StepOutcome::Idle,
            }
        };
        let id = grant.id;
        self.execute(grant);
        StepOutcome::Granted(id)
    }

    /// Drive until idle (all queued work granted, all scripted arrivals
    /// served). Returns the number of grants executed.
    pub fn run_to_idle(&self) -> u64 {
        let mut grants = 0;
        loop {
            match self.step() {
                StepOutcome::Granted(_) => grants += 1,
                StepOutcome::AdvancedTo(_) => {}
                StepOutcome::Idle => return grants,
            }
        }
    }

    fn drain_arrivals(&self, st: &mut State, now: u64) {
        while let Some(Reverse(head)) = st.arrivals.peek() {
            if head.at_vns > now {
                break;
            }
            let Reverse(a) = st.arrivals.pop().expect("peeked arrival");
            let p = self.pending(st, a.req, a.at_vns, Some(a.seq), false);
            st.push(p);
        }
    }

    fn pick(&self, st: &mut State, now: u64) -> Pick {
        if st.queued.iter().all(|&n| n == 0) {
            return match st.arrivals.peek() {
                Some(Reverse(a)) => Pick::Wait(a.at_vns.max(now)),
                None => Pick::Idle,
            };
        }
        if !self.cfg.qos {
            // Baseline: one FIFO over the link, oldest arrival first
            // (submission seq breaks ties deterministically — seq alone
            // would order scripted fleets by script order, not time).
            let (tier, tenant) = st
                .queues
                .iter()
                .enumerate()
                .flat_map(|(tier, m)| {
                    m.iter().map(move |(t, q)| {
                        let head = q.front().expect("non-empty");
                        ((head.arrival_vns, head.seq), tier, *t)
                    })
                })
                .min()
                .map(|(_, tier, t)| (tier, t))
                .expect("queued request exists");
            let p = st.pop(tier, tenant).expect("picked head");
            return Pick::Grant(p);
        }
        let mut reset = false;
        loop {
            if let Some((tier, tenant)) = self.find_eligible(st, now) {
                st.cycle_left[tier] -= 1;
                st.rr_cursor[tier] = Some(tenant);
                let p = st.pop(tier, tenant).expect("picked head");
                let charge = {
                    let e = st.ensure_tenant(tenant);
                    e.policy.charge_bytes(p.est_bytes)
                };
                let e = st.tenants.get_mut(&tenant).expect("tenant");
                let took = e.bucket.try_take(charge, now);
                debug_assert!(took, "eligibility implies affordability");
                return Pick::Grant(p);
            }
            if !reset {
                st.cycle_left = self.cfg.tier_quota.map(|q| q.max(1));
                reset = true;
                continue;
            }
            // No tenant can afford its head even with fresh quotas: wait
            // for the earliest token refill or the next scripted arrival.
            let mut wake = u64::MAX;
            for queue in &st.queues {
                for (t, q) in queue.iter() {
                    let head = q.front().expect("non-empty");
                    let e = st.tenants.get(t).expect("tenant");
                    let charge = e.policy.charge_bytes(head.est_bytes);
                    wake = wake.min(e.bucket.ready_at(charge, now));
                }
            }
            if let Some(Reverse(a)) = st.arrivals.peek() {
                wake = wake.min(a.at_vns);
            }
            debug_assert!(wake != u64::MAX, "queued work with no finite wake time");
            return Pick::Wait(wake.max(now.saturating_add(1)));
        }
    }

    /// First (tier, tenant) whose head request the tenant's bucket can
    /// afford, honoring per-tier cycle quotas and round-robin cursors.
    fn find_eligible(&self, st: &State, now: u64) -> Option<(usize, TenantId)> {
        for (tier, queue) in st.queues.iter().enumerate() {
            if st.cycle_left[tier] == 0 || queue.is_empty() {
                continue;
            }
            let ordered: Vec<TenantId> = match st.rr_cursor[tier] {
                Some(cur) => {
                    let after = queue
                        .range((std::ops::Bound::Excluded(cur), std::ops::Bound::Unbounded))
                        .map(|(t, _)| *t);
                    let before = queue.range(..=cur).map(|(t, _)| *t);
                    after.chain(before).collect()
                }
                None => queue.keys().copied().collect(),
            };
            for t in ordered {
                let head = queue[&t].front().expect("non-empty");
                let e = st.tenants.get(&t).expect("tenant");
                if e.bucket.can_take(e.policy.charge_bytes(head.est_bytes), now) {
                    return Some((tier, t));
                }
            }
        }
        None
    }

    fn execute(&self, mut p: Pending) {
        let _span = self.m.obs.span("grant");
        let start = self.clock.now_ns();
        let uncharged = uncharged_vns();
        let run = || match &p.op {
            SchedOp::Get { store, keys } => {
                let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                let results = store.get_many(&refs);
                let bytes = results.iter().filter_map(|r| r.as_ref().ok()).map(|d| d.len() as u64);
                let bytes = bytes.sum();
                let errors = results.iter().filter(|r| r.is_err()).count() as u64;
                let digest = digest_get_results(&results);
                (bytes, errors, digest, p.waited.then_some(Served::Get(results)))
            }
            SchedOp::Put { store, items } => {
                let pairs: Vec<(&str, &[u8])> =
                    items.iter().map(|(k, d)| (k.as_str(), d.as_slice())).collect();
                let results = store.put_many(&pairs);
                let mut bytes = 0u64;
                let mut errors = 0u64;
                for (r, (_, d)) in results.iter().zip(items) {
                    match r {
                        Ok(_) => bytes += d.len() as u64,
                        Err(_) => errors += 1,
                    }
                }
                (bytes, errors, 0, p.waited.then_some(Served::Put(results)))
            }
        };
        let ((bytes, errors, digest, served), frame) = with_issue_frame(p.frame.take(), run);
        let end = self.clock.now_ns();
        // Service is the link time the grant booked: its elapsed time less
        // what its WAN calls advanced the clock beyond their charges. Exact,
        // since each call's advance ends before the next one reads the clock.
        let service = (end - start).wrapping_sub(uncharged_vns().wrapping_sub(uncharged));
        let c = Completion {
            id: p.id,
            tenant: p.tenant,
            class: p.class,
            arrival_vns: p.arrival_vns,
            start_vns: start,
            end_vns: end,
            bytes,
            errors,
            digest,
        };
        self.m.granted.inc();
        self.m.granted_class[p.class.tier()].inc();
        self.m.granted_vns.add(service);
        self.m.queue_wait_vns.add(c.wait_vns());
        self.m.bytes.add(bytes);
        self.m.errors.add(errors);
        let mut st = self.state.lock();
        {
            let e = st.ensure_tenant(p.tenant);
            e.stats.granted += 1;
            e.stats.bytes += bytes;
            e.stats.wait_vns += c.wait_vns();
            e.stats.max_wait_vns = e.stats.max_wait_vns.max(c.wait_vns());
            e.stats.busy_vns += service;
        }
        st.completions.push(c);
        if let Some(served) = served {
            st.waited.insert(p.id, (served, frame));
        }
    }

    /// Drain the completion records accumulated since the last call.
    pub fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut self.state.lock().completions)
    }

    /// Total virtual nanoseconds of service the grants booked: the clock
    /// time each spent executing, less what its WAN calls advanced the
    /// clock beyond their charges: an issued wave counts at its link
    /// charge, and a wait for the link to drain counts not at all.
    /// Reconciles exactly with [`CloudStore::busy_vns`] when every WAN
    /// call runs inside a grant (fault-free stacks; retry backoff inside a
    /// grant adds scheduler-visible service time the WAN never charged).
    ///
    /// [`CloudStore::busy_vns`]: crate::wan::CloudStore::busy_vns
    pub(crate) fn granted_vns(&self) -> u64 {
        self.m.granted_vns.get()
    }

    /// Human-readable per-tenant status table (dashboard's tenants view).
    pub fn render_status(&self) -> String {
        let st = self.state.lock();
        let mut out = String::new();
        out.push_str(&format!(
            "queues int/pre/bulk: {}/{}/{}  scripted: {}\n",
            st.queued[0],
            st.queued[1],
            st.queued[2],
            st.arrivals.len()
        ));
        for e in st.tenants.values() {
            let s = e.stats;
            let avg_wait = s.wait_vns.checked_div(s.granted).unwrap_or(0);
            out.push_str(&format!(
                "{} [{}] granted={} bytes={} wait avg/max={}/{} vns busy={} vns\n",
                e.label,
                if e.policy.is_unthrottled() {
                    "unthrottled".to_string()
                } else {
                    format!("{} B/s burst {} B", e.policy.rate_bytes_per_sec, e.policy.burst_bytes)
                },
                s.granted,
                s.bytes,
                avg_wait,
                s.max_wait_vns,
                s.busy_vns,
            ));
        }
        out
    }
}

enum Pick {
    Grant(Pending),
    Wait(u64),
    Idle,
}

/// The [`Completion::digest`] of a `Get`: FNV-1a over per-key outcomes —
/// `0x01`, payload length and the payload's [`checksum64`] (both LE) for
/// each `Ok`; a lone `0x00` for each `Err`. Each payload goes through the
/// word-at-a-time checksum once; only 17 bytes a key go through FNV-1a.
/// Public so harnesses can compute the same digest from a fault-free
/// oracle and compare reads bitwise without retaining payloads.
pub fn digest_get_results(results: &[Result<Vec<u8>>]) -> u64 {
    let mut digest = Fnv1a::new();
    for r in results {
        match r {
            Ok(d) => {
                let (len, sum) = (d.len() as u64, checksum64(d));
                digest.update(&[1]).update(&len.to_le_bytes()).update(&sum.to_le_bytes())
            }
            Err(_) => digest.update(&[0]),
        };
    }
    digest.digest()
}

// ---------------------------------------------------------------------------
// Ambient request tagging
// ---------------------------------------------------------------------------

thread_local! {
    static AMBIENT: Cell<(Option<TenantId>, Option<Priority>)> = const { Cell::new((None, None)) };
}

/// RAII guard restoring the previous ambient tag on drop.
///
/// The ambient tag lets layers that cannot widen the [`ObjectStore`]
/// signatures (sessions, datasets) attribute the store calls they make to
/// a tenant and class: a [`SchedStore`] reads the tag at call time on the
/// calling thread.
#[derive(Debug)]
pub struct TagGuard {
    prev: (Option<TenantId>, Option<Priority>),
}

impl Drop for TagGuard {
    fn drop(&mut self) {
        AMBIENT.with(|c| c.set(self.prev));
    }
}

/// Attribute store calls on this thread to `tenant` until the guard drops.
pub fn tag_tenant(tenant: TenantId) -> TagGuard {
    AMBIENT.with(|c| {
        let prev = c.get();
        c.set((Some(tenant), prev.1));
        TagGuard { prev }
    })
}

/// Mark store calls on this thread as `class` until the guard drops.
pub fn tag_class(class: Priority) -> TagGuard {
    AMBIENT.with(|c| {
        let prev = c.get();
        c.set((prev.0, Some(class)));
        TagGuard { prev }
    })
}

/// The ambient `(tenant, class)` tag of the calling thread.
pub(crate) fn ambient_tag() -> (Option<TenantId>, Option<Priority>) {
    AMBIENT.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// SchedStore
// ---------------------------------------------------------------------------

/// Routes a stack's data plane through a [`Scheduler`].
///
/// `get`/`get_many`/`put`/`put_many` submit a request attributed to the
/// ambient tag (falling back to the adapter's defaults) and drive the
/// scheduler until it is granted, so higher-ranked work queued ahead runs
/// first and the caller experiences admission queueing as virtual time.
/// Control-plane calls (`head`, `list`, `delete`/`delete_many`, ranged
/// reads) pass through unscheduled — they are metadata, not link
/// bandwidth, in this model.
///
/// Place the adapter *above* the cache layer (`SchedStore(TierCache(
/// CloudStore))`): cache hits then still clear admission cheaply — a
/// granted hit charges zero virtual time.
pub struct SchedStore {
    inner: Arc<dyn ObjectStore>,
    sched: Arc<Scheduler>,
    tenant: TenantId,
}

impl SchedStore {
    /// Schedule `inner`'s data plane as `tenant`. Calls with no ambient
    /// class tag run as [`Priority::Interactive`]. Reads charge nothing
    /// against the tenant's bucket up front; writes charge their exact
    /// payload size.
    pub fn new(inner: Arc<dyn ObjectStore>, sched: Arc<Scheduler>, tenant: TenantId) -> SchedStore {
        SchedStore { inner, sched, tenant }
    }

    fn tag(&self) -> (TenantId, Priority) {
        let (t, c) = ambient_tag();
        (t.unwrap_or(self.tenant), c.unwrap_or(Priority::Interactive))
    }

    /// Submit `req` and wait for it, its grant running under the calling
    /// thread's issue frame (moved into the request, and back after).
    fn serve(&self, req: SchedRequest) -> Served {
        let (served, frame) = self.sched.submit_and_wait(req, take_issue_frame());
        restore_issue_frame(frame);
        served
    }
}

impl ObjectStore for SchedStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        sole(self.put_many(&[(key, data)]))
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        sole(self.get_many(&[key]))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.inner.get_range(key, offset, len)
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        let (tenant, class) = self.tag();
        let req = SchedRequest {
            tenant,
            class,
            op: SchedOp::Get {
                store: Arc::clone(&self.inner),
                keys: keys.iter().map(|k| k.to_string()).collect(),
            },
            est_bytes: 0,
        };
        match self.serve(req) {
            Served::Get(results) => results,
            Served::Put(_) => unreachable!("get request served as put"),
        }
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        let (tenant, class) = self.tag();
        let op = SchedOp::Put {
            store: Arc::clone(&self.inner),
            items: items.iter().map(|(k, d)| (k.to_string(), d.to_vec())).collect(),
        };
        let est = op.payload_bytes();
        let req = SchedRequest { tenant, class, op, est_bytes: est };
        match self.serve(req) {
            Served::Put(results) => results,
            Served::Get(_) => unreachable!("put request served as get"),
        }
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
        format!("sched(tenant {} over {})", self.tenant, self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryStore;
    use crate::wan::{CloudStore, NetworkProfile};
    use proptest::prelude::*;

    fn get_req(
        store: &Arc<dyn ObjectStore>,
        tenant: TenantId,
        class: Priority,
        keys: &[&str],
        est: u64,
    ) -> SchedRequest {
        SchedRequest {
            tenant,
            class,
            op: SchedOp::Get {
                store: Arc::clone(store),
                keys: keys.iter().map(|k| k.to_string()).collect(),
            },
            est_bytes: est,
        }
    }

    #[test]
    fn token_bucket_exact_refill_and_take() {
        let mut b = TokenBucket::new(100, 50); // 100 B/s, 50 B burst
        assert!(b.try_take(50, 0), "starts full");
        assert!(!b.try_take(1, 0), "empty after burst");
        // 100 B/s == 1 byte per 10 ms; 10 bytes need exactly 100 ms.
        assert!(!b.can_take(10, 99_999_999));
        assert!(b.can_take(10, 100_000_000));
        assert_eq!(b.ready_at(10, 0), 100_000_000);
        assert!(b.try_take(10, 100_000_000));
        assert!(!b.can_take(1, 100_000_000));
    }

    #[test]
    fn token_bucket_caps_at_burst() {
        let mut b = TokenBucket::new(1_000, 100);
        b.refill(1_000_000_000_000); // very long idle
        assert!(b.try_take(100, 1_000_000_000_000));
        assert!(!b.try_take(1, 1_000_000_000_000), "cap is the burst, not the idle time");
    }

    #[test]
    fn unthrottled_bucket_never_gates() {
        let mut b = TokenBucket::new(0, 0);
        assert!(b.can_take(u64::MAX, 0));
        assert!(b.try_take(u64::MAX, 0));
        assert_eq!(b.ready_at(u64::MAX, 7), 7);
    }

    /// Replay `events` against a bucket, recording each successful take, and
    /// check the windowed over-grant bound across every pair of grant times.
    fn check_no_over_grant(rate: u64, burst: u64, events: &[(u64, u64)]) {
        let mut bucket = TokenBucket::new(rate, burst);
        let mut now = 0u64;
        let mut grants: Vec<(u64, u64)> = Vec::new();
        for &(delta, bytes) in events {
            now = now.saturating_add(delta);
            // ready_at must agree with can_take at the instant it names.
            let at = bucket.ready_at(bytes, now);
            if at != u64::MAX {
                assert!(bucket.can_take(bytes, at), "ready_at({bytes}, {now}) = {at} not takeable");
            }
            if bucket.try_take(bytes, now) {
                grants.push((now, bytes));
            }
        }
        for i in 0..grants.len() {
            let mut granted_bns = 0u128;
            for j in i..grants.len() {
                granted_bns += grants[j].1 as u128 * BNS;
                let window = (grants[j].0 - grants[i].0) as u128;
                let allowed = burst as u128 * BNS + rate as u128 * window;
                assert!(
                    granted_bns <= allowed,
                    "over-grant: {granted_bns} byte-ns granted in window \
                     [{}, {}] with burst {burst} rate {rate} (allowed {allowed})",
                    grants[i].0,
                    grants[j].0,
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// No over-grant: a bucket never grants more than
        /// `burst + rate * window` bytes inside *any* virtual window,
        /// checked in exact byte-nanosecond units over every window of
        /// every generated take sequence.
        #[test]
        fn token_bucket_never_over_grants_in_any_window(
            rate in 1u64..10_000,
            burst in 1u64..100_000,
            events in proptest::collection::vec(
                (0u64..200_000_000, 0u64..4_096), 1..60),
        ) {
            check_no_over_grant(rate, burst, &events);
        }
    }

    #[test]
    fn priority_order_is_total() {
        assert!(Priority::Interactive < Priority::Prefetch);
        assert!(Priority::Prefetch < Priority::Bulk);
        assert_eq!(Priority::Prefetch.name(), "prefetch");
    }

    #[test]
    fn interactive_preempts_queued_bulk() {
        let clock = SimClock::new();
        let mem = Arc::new(MemoryStore::new());
        mem.put("a", b"xx").unwrap();
        let store: Arc<dyn ObjectStore> =
            Arc::new(CloudStore::new(mem, NetworkProfile::private_seal(), clock.clone(), 1));
        let sched = Scheduler::new(clock, SchedConfig::default());
        for _ in 0..4 {
            sched.script(0, get_req(&store, 2, Priority::Bulk, &["a"], 0));
        }
        sched.script(0, get_req(&store, 1, Priority::Interactive, &["a"], 0));
        sched.run_to_idle();
        let done = sched.take_completions();
        assert_eq!(done.len(), 5);
        // The interactive request arrived last but ran first.
        assert_eq!(done[0].class, Priority::Interactive);
        assert_eq!(done[0].tenant, 1);
    }

    #[test]
    fn fifo_mode_ignores_class() {
        let clock = SimClock::new();
        let mem = Arc::new(MemoryStore::new());
        mem.put("a", b"xx").unwrap();
        let store: Arc<dyn ObjectStore> =
            Arc::new(CloudStore::new(mem, NetworkProfile::private_seal(), clock.clone(), 1));
        let sched = Scheduler::new(clock, SchedConfig::fifo());
        sched.script(0, get_req(&store, 2, Priority::Bulk, &["a"], 0));
        sched.script(0, get_req(&store, 1, Priority::Interactive, &["a"], 0));
        sched.run_to_idle();
        let done = sched.take_completions();
        assert_eq!(done[0].class, Priority::Bulk, "fifo serves submission order");
    }

    #[test]
    fn round_robin_shares_a_tier_across_tenants() {
        let clock = SimClock::new();
        let mem = Arc::new(MemoryStore::new());
        mem.put("a", b"xx").unwrap();
        let store: Arc<dyn ObjectStore> =
            Arc::new(CloudStore::new(mem, NetworkProfile::private_seal(), clock.clone(), 1));
        let sched = Scheduler::new(clock, SchedConfig::default());
        // Tenant 1 floods first; tenant 2 queues two requests after.
        for _ in 0..4 {
            sched.script(0, get_req(&store, 1, Priority::Interactive, &["a"], 0));
        }
        for _ in 0..2 {
            sched.script(0, get_req(&store, 2, Priority::Interactive, &["a"], 0));
        }
        sched.run_to_idle();
        let tenants: Vec<TenantId> = sched.take_completions().iter().map(|c| c.tenant).collect();
        // Round-robin alternates instead of draining tenant 1 first.
        assert_eq!(tenants, vec![1, 2, 1, 2, 1, 1]);
    }

    #[test]
    fn token_bucket_gates_and_clock_advances_to_refill() {
        let clock = SimClock::new();
        let mem = Arc::new(MemoryStore::new());
        mem.put("a", &[7u8; 1000]).unwrap();
        let store: Arc<dyn ObjectStore> =
            Arc::new(CloudStore::new(mem, NetworkProfile::private_seal(), clock.clone(), 1));
        let sched = Scheduler::new(clock.clone(), SchedConfig::default());
        // 1000 B/s with a 1000 B burst: the second 1000 B request must wait
        // a full virtual second of refill.
        sched.register_tenant(1, "metered", TenantPolicy::new(1000, 1000));
        sched.script(0, get_req(&store, 1, Priority::Bulk, &["a"], 1000));
        sched.script(0, get_req(&store, 1, Priority::Bulk, &["a"], 1000));
        sched.run_to_idle();
        let done = sched.take_completions();
        assert_eq!(done.len(), 2);
        assert!(
            done[1].start_vns >= 1_000_000_000,
            "second grant at {} vns, before the bucket refilled",
            done[1].start_vns
        );
        assert!(sched.m.idle_advanced_vns.get() > 0);
    }

    #[test]
    fn granted_vns_reconciles_with_wan_busy_vns() {
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        let mem = Arc::new(MemoryStore::new());
        for i in 0..8 {
            mem.put(&format!("k{i}"), &vec![i as u8; 100 + i as usize]).unwrap();
        }
        let wan = Arc::new(
            CloudStore::new(mem, NetworkProfile::public_dataverse(), clock.clone(), 42)
                .with_obs(&obs),
        );
        let store: Arc<dyn ObjectStore> = wan.clone();
        let sched = Scheduler::new(clock, SchedConfig::default()).with_obs(&obs);
        for i in 0..8 {
            let key = format!("k{i}");
            sched.script(
                0,
                get_req(
                    &store,
                    i % 3,
                    [Priority::Interactive, Priority::Prefetch, Priority::Bulk][(i % 3) as usize],
                    &[key.as_str()],
                    0,
                ),
            );
        }
        sched.run_to_idle();
        assert!(wan.busy_vns() > 0);
        assert_eq!(sched.granted_vns(), wan.busy_vns());
        let snap = obs.snapshot();
        assert_eq!(snap.counter("sched.granted_vns"), snap.counter("wan.busy_vns"));
    }

    #[test]
    fn an_issued_grant_keeps_its_frame_and_books_its_link_charge() {
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        let wan = Arc::new(
            CloudStore::new(
                Arc::new(MemoryStore::new()),
                NetworkProfile::private_seal(),
                clock.clone(),
                9,
            )
            .with_obs(&obs),
        );
        let store: Arc<dyn ObjectStore> = wan.clone();
        let sched = Arc::new(Scheduler::new(clock.clone(), SchedConfig::fifo()).with_obs(&obs));
        // Tenant 2's blocking upload is queued first, so the writer's
        // thread grants it before its own.
        let bulk: Vec<(String, Vec<u8>)> =
            (0..3).map(|i| (format!("bulk/{i}"), vec![2; 512])).collect();
        sched.script(
            0,
            SchedRequest {
                tenant: 2,
                class: Priority::Interactive,
                op: SchedOp::Put { store: Arc::clone(&store), items: bulk },
                est_bytes: 1536,
            },
        );
        let writer = SchedStore::new(store, Arc::clone(&sched), 1);
        let mut lanes = UploadLanes::new(8);
        let items: Vec<(&str, &[u8])> = vec![("tile/0", &[1; 512]), ("tile/1", &[1; 512])];
        let results = lanes.issue(|| writer.put_many(&items));
        assert!(results.iter().all(|r| r.is_ok()));
        assert!(take_issue_frame().is_none(), "the frame went back to `lanes`");

        let done = sched.take_completions();
        assert_eq!(done.iter().map(|c| c.tenant).collect::<Vec<_>>(), vec![2, 1]);
        let (other, own) = (done[0], done[1]);
        assert!(other.end_vns > other.start_vns, "the other tenant's grant blocked");
        assert_eq!(own.start_vns, other.end_vns);
        assert_eq!(own.end_vns, own.start_vns, "the writer's wave was issued");
        assert!(lanes.finish_vns() > clock.now_ns());
        // Both grants count the link time they booked.
        assert_eq!(sched.granted_vns(), wan.busy_vns());

        // A blocking read first waits for the issued wave to drain, and
        // that wait is not service either.
        let (finish, busy) = (lanes.finish_vns(), wan.busy_vns());
        let reader = SchedStore::new(wan.clone(), Arc::clone(&sched), 3);
        assert_eq!(reader.get("tile/0").unwrap(), vec![1; 512]);
        let read = sched.take_completions()[0];
        assert_eq!(read.start_vns, own.end_vns);
        assert_eq!(read.end_vns, finish + (wan.busy_vns() - busy));
        assert_eq!(sched.granted_vns(), wan.busy_vns());
        assert!(!lanes.in_flight());
    }

    #[test]
    fn scripted_arrivals_measure_latency_from_script_time() {
        let clock = SimClock::new();
        let mem = Arc::new(MemoryStore::new());
        mem.put("a", b"abc").unwrap();
        let store: Arc<dyn ObjectStore> =
            Arc::new(CloudStore::new(mem, NetworkProfile::private_seal(), clock.clone(), 1));
        let sched = Scheduler::new(clock, SchedConfig::default());
        sched.script(5_000_000, get_req(&store, 1, Priority::Interactive, &["a"], 0));
        sched.script(1_000_000, get_req(&store, 2, Priority::Interactive, &["a"], 0));
        sched.run_to_idle();
        let done = sched.take_completions();
        assert_eq!(done.len(), 2);
        // Earlier scripted time runs first regardless of script call order.
        assert_eq!(done[0].tenant, 2);
        assert_eq!(done[0].arrival_vns, 1_000_000);
        assert!(done[0].start_vns >= 1_000_000);
        assert_eq!(done[1].arrival_vns, 5_000_000);
    }

    #[test]
    fn ambient_tags_override_adapter_defaults() {
        let (t, c) = ambient_tag();
        assert_eq!((t, c), (None, None));
        {
            let _t = tag_tenant(7);
            let _c = tag_class(Priority::Prefetch);
            assert_eq!(ambient_tag(), (Some(7), Some(Priority::Prefetch)));
            {
                let _c2 = tag_class(Priority::Bulk);
                assert_eq!(ambient_tag(), (Some(7), Some(Priority::Bulk)));
            }
            assert_eq!(ambient_tag(), (Some(7), Some(Priority::Prefetch)));
        }
        assert_eq!(ambient_tag(), (None, None));
    }

    #[test]
    fn sched_store_round_trips_data() {
        let clock = SimClock::new();
        let mem = Arc::new(MemoryStore::new());
        let store: Arc<dyn ObjectStore> =
            Arc::new(CloudStore::new(mem, NetworkProfile::private_seal(), clock.clone(), 1));
        let sched = Arc::new(Scheduler::new(clock, SchedConfig::default()));
        let s = SchedStore::new(store, sched.clone(), 3);
        s.put("x/1", b"hello").unwrap();
        assert_eq!(s.get("x/1").unwrap(), b"hello");
        let metas = s.put_many(&[("x/2", b"aa".as_slice()), ("x/3", b"bbb".as_slice())]);
        assert!(metas.iter().all(|m| m.is_ok()));
        let got = s.get_many(&["x/1", "x/2", "x/3", "x/nope"]);
        assert_eq!(got[0].as_ref().unwrap(), b"hello");
        assert_eq!(got[2].as_ref().unwrap(), b"bbb");
        assert!(got[3].as_ref().err().is_some_and(|e| e.is_not_found()));
        let granted: Vec<(TenantId, u64)> =
            sched.state.lock().tenants.iter().map(|(id, e)| (*id, e.stats.granted)).collect();
        assert_eq!(granted, vec![(3, 4)]);
        let status = sched.render_status();
        assert!(status.contains("t0003"), "{status}");
    }

    #[test]
    fn render_status_reports_policies() {
        let clock = SimClock::new();
        let sched = Scheduler::new(clock, SchedConfig::default());
        sched.register_tenant(1, "alice", TenantPolicy::new(1000, 4000));
        sched.register_tenant(2, "bulk-ingest", TenantPolicy::unthrottled());
        let s = sched.render_status();
        assert!(s.contains("alice [1000 B/s burst 4000 B]"), "{s}");
        assert!(s.contains("bulk-ingest [unthrottled]"), "{s}");
    }
}
