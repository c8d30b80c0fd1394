//! Simulated wide-area cloud storage.
//!
//! The tutorial's storage options — the public Dataverse commons and the
//! private Seal Storage cloud — differ from local disk in exactly one way
//! that matters to the workflows: the network in front of them. `CloudStore`
//! wraps any [`ObjectStore`] with a parameterised WAN model and charges
//! every operation against the shared virtual [`SimClock`]. An episode of
//! `ops` successful requests of `trips` round trips each, moving `bytes`,
//! costs
//!
//! ```text
//! secs = (RTT x trips x ceil(ops / streams) + bytes / (bandwidth x streams)) x (1 + jitter x u)
//! ```
//!
//! with one draw `u` in `[-1, 1)` per episode. It is drawn deterministically
//! from a seeded stream, so experiments are exactly reproducible while
//! still exercising variance-sensitive code.
//!
//! # The link timeline
//!
//! The store keeps a busy-until time per stream, plus one for the
//! aggregate byte rate, and every episode is a placement on them. The
//! link's drain time is its busiest stream.
//!
//! A *blocking* call is a placement that takes every stream at once from
//! `max(now, drain)`, holds them for `secs` and is joined at once: the
//! clock advances to its end. So with nothing issued every call costs
//! exactly the formula above, and concurrent blocking callers accumulate,
//! each placed after the last under the link's lock.
//!
//! A `put_many` wave made inside [`UploadLanes::issue`] is *issued*
//! instead. It is charged the same `secs` (same formula, same jitter
//! draw), but each of its ops takes the earliest-free stream and the
//! earliest-free lane of the caller's [`UploadLanes`], starts at
//! `max(now, stream, lane)` and holds both for `secs`. A wave with more
//! ops than streams takes every stream at once, which is the `ceil` rule
//! above. Overlapping waves share the byte rate: each op's share of the
//! payload queues on the aggregate timeline, and the op ends no earlier
//! than its bytes got through. A lane is the caller's request slot, held
//! from issue to the op's end, so the issuing call advances the clock
//! only to its last op's lane grant, `max(now, lane)`, as a transfer
//! manager's caller waits for room in its request queue, never for a
//! stream; [`UploadLanes::join`] later waits for the last op's end.
//! Per-key results still come back from the issuing call: only the wait is
//! deferred.

use crate::store::{ObjectMeta, ObjectStore};
use nsdf_util::obs::{Counter, HistogramMetric, Obs};
use nsdf_util::{secs_to_ns, splitmix64, Result, SimClock};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Parameters of one simulated network path.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Human-readable profile name.
    pub name: String,
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Sustained bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// Relative jitter applied to each operation's duration (0.1 = ±10 %).
    pub jitter: f64,
    /// Concurrent transfer streams (aggregated bandwidth multiplier for
    /// large objects, as parallel HTTP range requests provide).
    pub streams: u32,
}

impl NetworkProfile {
    /// Public research commons, Dataverse-class: mid-range RTT and
    /// bandwidth shared with the world.
    pub fn public_dataverse() -> Self {
        NetworkProfile {
            name: "public-dataverse".into(),
            rtt_ms: 70.0,
            bandwidth_mbps: 400.0,
            jitter: 0.15,
            streams: 4,
        }
    }

    /// Private cloud, Seal-class: decentralized object storage with good
    /// peering and more parallel streams.
    pub fn private_seal() -> Self {
        NetworkProfile {
            name: "private-seal".into(),
            rtt_ms: 30.0,
            bandwidth_mbps: 1000.0,
            jitter: 0.08,
            streams: 8,
        }
    }

    /// Campus/Internet2-class path between NSDF entry points.
    pub fn campus() -> Self {
        NetworkProfile {
            name: "campus".into(),
            rtt_ms: 5.0,
            bandwidth_mbps: 10_000.0,
            jitter: 0.03,
            streams: 8,
        }
    }

    /// Local loopback — effectively no network.
    pub fn local() -> Self {
        NetworkProfile {
            name: "local".into(),
            rtt_ms: 0.1,
            bandwidth_mbps: 40_000.0,
            jitter: 0.0,
            streams: 1,
        }
    }

    /// Seconds to move `bytes` over this path, excluding RTT and jitter.
    pub(crate) fn transfer_secs(&self, bytes: u64) -> f64 {
        let bits = bytes as f64 * 8.0;
        bits / (self.bandwidth_mbps * 1e6 * self.streams.max(1) as f64)
    }
}

/// Aggregate transfer accounting for one `CloudStore`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferLog {
    /// GET/HEAD/LIST operations issued.
    pub read_ops: u64,
    /// PUT/DELETE operations issued.
    pub write_ops: u64,
    /// Bytes downloaded.
    pub bytes_down: u64,
    /// Bytes uploaded.
    pub bytes_up: u64,
    /// Total virtual seconds this store's operations occupied the link:
    /// the sum of every episode's charge. It is occupancy, not elapsed
    /// time, so issued waves that overlap can make it exceed the clock
    /// time that passed (a `wan.busy_share` above 1 means overlap).
    pub busy_secs: f64,
}

/// Registry handles for one `CloudStore`, under the `wan` scope.
///
/// `busy_vns` mirrors every charge in integer nanoseconds (via
/// [`secs_to_ns`]), so with nothing issued the accounting sums exactly what
/// the clock advanced, independent of thread interleaving.
struct WanMetrics {
    obs: Obs,
    read_ops: Counter,
    write_ops: Counter,
    bytes_down: Counter,
    bytes_up: Counter,
    busy_vns: Counter,
    waves: Counter,
    op_vsecs: HistogramMetric,
}

impl WanMetrics {
    /// Virtual-second buckets for per-op latency: spans sub-RTT ranged
    /// reads through multi-second bulk uploads.
    const OP_BUCKETS: [f64; 7] = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0];

    fn new(obs: &Obs) -> Self {
        let obs = obs.scoped("wan");
        WanMetrics {
            read_ops: obs.counter("read_ops"),
            write_ops: obs.counter("write_ops"),
            bytes_down: obs.counter("bytes_down"),
            bytes_up: obs.counter("bytes_up"),
            busy_vns: obs.counter("busy_vns"),
            waves: obs.counter("waves"),
            op_vsecs: obs.histogram("op_vsecs", &Self::OP_BUCKETS),
            obs,
        }
    }
}

/// The upload lanes of one writer: request slots, each holding one upload
/// from issue until it ends, queueing for a stream included.
///
/// A handle that writes back (an IDX dataset's `write_box`) owns one set
/// and makes its upload waves inside [`UploadLanes::issue`]; a
/// [`CloudStore`] below then issues each wave on the link timeline instead
/// of blocking on it (see the [module docs](crate::wan)), so the caller
/// blocks only while every lane is held. The lanes travel as the calling
/// thread's *issue frame*, so no [`ObjectStore`] signature carries them.
#[derive(Debug, Clone)]
pub struct UploadLanes {
    /// Per lane, when its last upload ends; none when lanes never bind.
    free_vns: Vec<u64>,
    /// When the last upload issued on these lanes ends.
    finish_vns: u64,
    /// The clock of the store that issued on these lanes last.
    clock: Option<SimClock>,
}

impl UploadLanes {
    /// `n` free lanes (at least one).
    pub fn new(n: usize) -> UploadLanes {
        UploadLanes { free_vns: vec![0; n.max(1)], finish_vns: 0, clock: None }
    }

    /// Lanes that never bind: the issuing call never waits, and only the
    /// link's streams and byte rate delay an upload. For a writer that
    /// bounds nothing itself, such as a task-graph run, whose exclusive
    /// tasks make upload waves of any width.
    pub fn unbounded() -> UploadLanes {
        UploadLanes { free_vns: Vec::new(), finish_vns: 0, clock: None }
    }

    /// Run `f` with these lanes as the calling thread's issue frame: every
    /// `put_many` wave `f` makes on a [`CloudStore`] is issued on them.
    /// The previous frame is back when `f` returns or unwinds.
    pub fn issue<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (result, frame) = with_issue_frame(Some(self.clone()), f);
        if let Some(lanes) = frame {
            *self = lanes;
        }
        result
    }

    /// Virtual time the last upload issued on these lanes ends.
    pub fn finish_vns(&self) -> u64 {
        self.finish_vns
    }

    /// True while an issued upload has not ended on its store's clock.
    pub fn in_flight(&self) -> bool {
        self.clock.as_ref().is_some_and(|c| self.finish_vns() > c.now_ns())
    }

    /// Advance the issuing store's clock to [`UploadLanes::finish_vns`];
    /// returns the nanoseconds it moved.
    pub fn join(&self) -> u64 {
        let Some(clock) = &self.clock else { return 0 };
        let now = clock.now_ns();
        clock.advance_to_ns(self.finish_vns());
        self.finish_vns().saturating_sub(now)
    }
}

thread_local! {
    static ISSUE_FRAME: Cell<Option<UploadLanes>> = const { Cell::new(None) };
    static UNCHARGED: Cell<u64> = const { Cell::new(0) };
}

/// Run `f` with `frame` as the calling thread's issue frame, and put the
/// previous one back when `f` returns or unwinds. Returns `f`'s result and
/// the frame as `f` left it.
pub(crate) fn with_issue_frame<R>(
    frame: Option<UploadLanes>,
    f: impl FnOnce() -> R,
) -> (R, Option<UploadLanes>) {
    struct Restore(Option<UploadLanes>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ISSUE_FRAME.with(|c| c.set(self.0.take()));
        }
    }
    let _restore = Restore(ISSUE_FRAME.with(|c| c.replace(frame)));
    let result = f();
    (result, ISSUE_FRAME.with(Cell::take))
}

/// Take the calling thread's issue frame, leaving none: a layer that runs
/// other callers' requests on this thread moves the frame into the
/// caller's own request.
pub(crate) fn take_issue_frame() -> Option<UploadLanes> {
    ISSUE_FRAME.with(Cell::take)
}

/// Put back a frame [`take_issue_frame`] took.
pub(crate) fn restore_issue_frame(frame: Option<UploadLanes>) {
    ISSUE_FRAME.with(|c| c.set(frame));
}

/// What `CloudStore` calls on the calling thread advanced the clock by
/// beyond their charges, as a running wrapping total: each call adds its
/// clock advance minus its charge. A blocking call adds its wait for the
/// link to drain; an issued wave adds its wait for the caller's own lanes
/// minus the charge it booked without advancing. A layer that times calls
/// by the clock (the scheduler's grants) subtracts the change in this
/// total to count link occupancy, not waiting.
pub(crate) fn uncharged_vns() -> u64 {
    UNCHARGED.with(Cell::get)
}

/// Busy-until times of one endpoint's link.
#[derive(Default)]
struct Link {
    /// Per stream.
    streams: Vec<u64>,
    /// The aggregate byte rate.
    bandwidth: u64,
    /// Every op placed so far: its start and end.
    #[cfg(test)]
    placed: Vec<(u64, u64)>,
}

impl Link {
    /// Place an episode of `ops` ops, each held `secs_ns`, whose payload
    /// takes `xfer_ns` of the aggregate rate, on the streams and on
    /// `lanes`; returns when its last op was granted a lane and when its
    /// last op ends.
    fn place(
        &mut self,
        lanes: &mut UploadLanes,
        now: u64,
        blocking: bool,
        ops: usize,
        secs_ns: u64,
        xfer_ns: u64,
    ) -> (u64, u64) {
        // A blocking call, or a wave wider than the link, takes every
        // stream at once.
        let wide = blocking || ops > self.streams.len();
        let all_free = self.streams.iter().copied().max().unwrap_or(0);
        let (mut last_grant, mut last_end) = (now, now);
        for i in 0..ops {
            let stream =
                (0..self.streams.len()).min_by_key(|&s| self.streams[s]).expect("at least one");
            let stream_free = if wide { all_free } else { self.streams[stream] };
            let lane = lanes.free_vns.iter_mut().min_by_key(|t| **t);
            let grant = now.max(lane.as_deref().copied().unwrap_or(0));
            let start = grant.max(stream_free);
            let (i, n) = (i as u64, ops as u64);
            let share = xfer_ns * (i + 1) / n - xfer_ns * i / n;
            self.bandwidth = self.bandwidth.max(start) + share;
            let end = (start + secs_ns).max(self.bandwidth);
            if let Some(lane) = lane {
                *lane = end;
            }
            if !wide {
                self.streams[stream] = end;
            }
            #[cfg(test)]
            self.placed.push((start, end));
            last_grant = last_grant.max(grant);
            last_end = last_end.max(end);
        }
        if wide {
            self.streams.iter_mut().for_each(|s| *s = last_end);
        }
        lanes.finish_vns = lanes.finish_vns.max(last_end);
        (last_grant, last_end)
    }
}

/// An [`ObjectStore`] behind a simulated WAN.
pub struct CloudStore {
    inner: Arc<dyn ObjectStore>,
    profile: NetworkProfile,
    clock: SimClock,
    seed: u64,
    op_counter: AtomicU64,
    link: Mutex<Link>,
    m: WanMetrics,
}

impl CloudStore {
    /// Wrap `inner` behind `profile`, charging time to `clock`.
    ///
    /// Accounting goes to a private registry until [`CloudStore::with_obs`]
    /// wires in a shared one.
    pub fn new(
        inner: Arc<dyn ObjectStore>,
        profile: NetworkProfile,
        clock: SimClock,
        seed: u64,
    ) -> Self {
        let m = WanMetrics::new(&Obs::new(clock.clone()));
        let link = Link { streams: vec![0; profile.streams.max(1) as usize], ..Link::default() };
        CloudStore {
            inner,
            profile,
            clock,
            seed,
            op_counter: AtomicU64::new(0),
            link: Mutex::new(link),
            m,
        }
    }

    /// Re-home accounting into `obs` (under its scope + `.wan`), so this
    /// store shares a registry — and span tree — with the layers above it.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.m = WanMetrics::new(obs);
        self
    }

    /// The observability handle this store reports into (scoped `…wan`).
    pub fn obs(&self) -> &Obs {
        &self.m.obs
    }

    /// The network profile in force.
    pub fn profile(&self) -> &NetworkProfile {
        &self.profile
    }

    /// The virtual clock charged by this store.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Integer virtual nanoseconds this endpoint's episodes occupied the
    /// link (issued waves included, so it can exceed elapsed time) — the
    /// exact quantity an admission layer above must account for: when
    /// every WAN call runs inside a scheduler grant, `sched.granted_vns`
    /// reconciles with this counter nanosecond for nanosecond.
    pub fn busy_vns(&self) -> u64 {
        self.m.busy_vns.get()
    }

    /// Snapshot of the transfer accounting, reconstructed from the
    /// registry counters.
    pub fn transfer_log(&self) -> TransferLog {
        TransferLog {
            read_ops: self.m.read_ops.get(),
            write_ops: self.m.write_ops.get(),
            bytes_down: self.m.bytes_down.get(),
            bytes_up: self.m.bytes_up.get(),
            busy_secs: self.m.busy_vns.get() as f64 / 1e9,
        }
    }

    /// The charge of one episode of `ops` successful requests, each of
    /// `trips` control round trips, moving `bytes` over the wire, and the
    /// part of it the payload takes. The episode rides the profile's
    /// parallel streams: each stream carries ceil(ops/streams) requests
    /// back to back, so only that many round trips serialize (a single
    /// call pays its own `trips`), while `transfer_secs` spreads the
    /// payload across the streams. One deterministic jitter draw for the
    /// whole episode — it is one network episode, not `ops`.
    fn episode_secs(&self, ops: u64, trips: u32, bytes: u64) -> (f64, f64) {
        let round_trips = trips * (ops as u32).div_ceil(self.profile.streams.max(1));
        let transfer = self.profile.transfer_secs(bytes);
        let base = self.profile.rtt_ms / 1000.0 * round_trips as f64 + transfer;
        let op = self.op_counter.fetch_add(1, Ordering::Relaxed);
        let jitter_u = splitmix64(self.seed ^ op) as f64 / u64::MAX as f64; // [0,1)
        let factor = (1.0 + self.profile.jitter * (2.0 * jitter_u - 1.0)).max(0.0);
        (base * factor, transfer * factor)
    }

    /// Charge, count and place one episode (see
    /// [`CloudStore::episode_secs`] and the [module docs](crate::wan)):
    /// issued on `lanes` when given, else blocking. A `wave` counts in
    /// `wan.waves`. An episode where nothing succeeded costs nothing.
    fn charge(
        &self,
        traffic: Traffic,
        ops: u64,
        trips: u32,
        bytes: u64,
        wave: bool,
        lanes: Option<&mut UploadLanes>,
    ) {
        if ops == 0 {
            return;
        }
        let (secs, transfer) = self.episode_secs(ops, trips, bytes);
        let secs_ns = secs_to_ns(secs);
        let blocking = lanes.is_none();
        let mut one_shot = UploadLanes::unbounded();
        let lanes = lanes.unwrap_or(&mut one_shot);
        let mut link = self.link.lock();
        let now = self.clock.now_ns();
        let (grant, end) =
            link.place(lanes, now, blocking, ops as usize, secs_ns, secs_to_ns(transfer));
        let to = if blocking { end } else { grant };
        self.clock.advance_to_ns(to);
        drop(link);
        lanes.clock = Some(self.clock.clone());
        UNCHARGED.with(|c| c.set(c.get().wrapping_add(to - now).wrapping_sub(secs_ns)));
        self.book(traffic, ops, bytes, secs);
        if wave {
            self.m.waves.inc();
        }
    }

    /// Count one charged episode: `busy_vns` mirrors the charge in integer
    /// nanoseconds, whether the clock advanced by it or not.
    fn book(&self, traffic: Traffic, ops: u64, bytes: u64, secs: f64) {
        self.m.busy_vns.add(secs_to_ns(secs));
        self.m.op_vsecs.observe(secs);
        if traffic == Traffic::Write {
            self.m.write_ops.add(ops);
        } else {
            self.m.read_ops.add(ops);
        }
        match traffic {
            Traffic::Read => self.m.bytes_down.add(bytes),
            Traffic::Write => self.m.bytes_up.add(bytes),
            Traffic::Listing => {}
        }
    }
}

/// How [`CloudStore::book`] counts an episode.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Traffic {
    /// `GET` / `HEAD`: read ops, payload counted as `bytes_down`.
    Read,
    /// `LIST`: read ops whose metadata takes wire time but is not object
    /// payload.
    Listing,
    /// `PUT` / `DELETE`: write ops, payload counted as `bytes_up`.
    Write,
}

impl ObjectStore for CloudStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        let meta = self.inner.put(key, data)?;
        self.charge(Traffic::Write, 1, 2, data.len() as u64, false, None); // handshake + ack
        Ok(meta)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        let data = self.inner.get(key)?;
        self.charge(Traffic::Read, 1, 1, data.len() as u64, false, None);
        Ok(data)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let data = self.inner.get_range(key, offset, len)?;
        self.charge(Traffic::Read, 1, 1, data.len() as u64, false, None);
        Ok(data)
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        let _wave = self.m.obs.span("wave");
        let results = self.inner.get_many(keys);
        let fetched = results.iter().filter_map(|r| r.as_ref().ok());
        let total: u64 = fetched.clone().map(|d| d.len() as u64).sum();
        self.charge(Traffic::Read, fetched.count() as u64, 1, total, true, None);
        results
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        let _wave = self.m.obs.span("wave");
        let results = self.inner.put_many(items);
        let stored = results.iter().zip(items).filter(|(r, _)| r.is_ok());
        let total: u64 = stored.clone().map(|(_, (_, d))| d.len() as u64).sum();
        // Each upload is a handshake + ack pair, like a single `put`.
        let mut frame = take_issue_frame();
        self.charge(Traffic::Write, stored.count() as u64, 2, total, true, frame.as_mut());
        restore_issue_frame(frame);
        results
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        let meta = self.inner.head(key)?;
        self.charge(Traffic::Read, 1, 1, 0, false, None);
        Ok(meta)
    }

    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        let results = self.inner.head_many(keys);
        let heads = results.iter().filter(|r| r.is_ok()).count() as u64;
        self.charge(Traffic::Read, heads, 1, 0, false, None);
        results
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        let listing = self.inner.list(prefix)?;
        // Listing payload: ~100 bytes of metadata per entry.
        self.charge(Traffic::Listing, 1, 1, listing.len() as u64 * 100, false, None);
        Ok(listing)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)?;
        self.charge(Traffic::Write, 1, 1, 0, false, None);
        Ok(())
    }

    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        let _wave = self.m.obs.span("wave");
        let results = self.inner.delete_many(keys);
        let gone = results.iter().filter(|r| r.is_ok()).count() as u64;
        self.charge(Traffic::Write, gone, 1, 0, true, None);
        results
    }

    fn describe(&self) -> String {
        format!("{} behind {} WAN", self.inner.describe(), self.profile.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryStore;

    fn cloud(profile: NetworkProfile) -> CloudStore {
        CloudStore::new(Arc::new(MemoryStore::new()), profile, SimClock::new(), 42)
    }

    #[test]
    fn operations_advance_virtual_clock() {
        let c = cloud(NetworkProfile::public_dataverse());
        assert_eq!(c.clock().now_ns(), 0);
        c.put("k", &vec![0u8; 1_000_000]).unwrap();
        let after_put = c.clock().now_secs();
        // 1 MB over 400 Mbps x 4 streams ≈ 5 ms + 140 ms RTT, ± 15 % jitter.
        assert!(after_put > 0.10 && after_put < 0.20, "put took {after_put}");
        c.get("k").unwrap();
        assert!(c.clock().now_secs() > after_put);
    }

    #[test]
    fn jitter_is_deterministic() {
        let t1 = {
            let c = cloud(NetworkProfile::public_dataverse());
            c.put("k", b"data").unwrap();
            c.get("k").unwrap();
            c.clock().now_ns()
        };
        let t2 = {
            let c = cloud(NetworkProfile::public_dataverse());
            c.put("k", b"data").unwrap();
            c.get("k").unwrap();
            c.clock().now_ns()
        };
        assert_eq!(t1, t2);
    }

    #[test]
    fn faster_profile_is_faster() {
        let slow = cloud(NetworkProfile::public_dataverse());
        let fast = cloud(NetworkProfile::campus());
        let payload = vec![7u8; 4 << 20];
        slow.put("k", &payload).unwrap();
        fast.put("k", &payload).unwrap();
        assert!(fast.clock().now_secs() < slow.clock().now_secs());
    }

    #[test]
    fn transfer_log_accumulates() {
        let c = cloud(NetworkProfile::private_seal());
        c.put("a", &vec![1u8; 1000]).unwrap();
        c.get("a").unwrap();
        c.get_range("a", 0, 100).unwrap();
        c.head("a").unwrap();
        c.list("").unwrap();
        c.delete("a").unwrap();
        let log = c.transfer_log();
        assert_eq!(log.write_ops, 2);
        assert_eq!(log.read_ops, 4);
        assert_eq!(log.bytes_up, 1000);
        assert_eq!(log.bytes_down, 1100);
        assert!(log.busy_secs > 0.0);
        c.obs().reset();
        assert_eq!(c.transfer_log(), TransferLog::default());
    }

    #[test]
    fn errors_pass_through_without_charge() {
        let c = cloud(NetworkProfile::local());
        assert!(c.get("missing").unwrap_err().is_not_found());
        assert_eq!(c.transfer_log().read_ops, 0);
    }

    #[test]
    fn get_many_amortizes_round_trips() {
        let keys: Vec<String> = (0..16).map(|i| format!("k{i}")).collect();
        let payload = vec![3u8; 64 << 10];

        let sequential = cloud(NetworkProfile::public_dataverse());
        for k in &keys {
            sequential.put(k, &payload).unwrap();
        }
        let t0 = sequential.clock().now_secs();
        for k in &keys {
            sequential.get(k).unwrap();
        }
        let seq_secs = sequential.clock().now_secs() - t0;

        let batched = cloud(NetworkProfile::public_dataverse());
        for k in &keys {
            batched.put(k, &payload).unwrap();
        }
        let t0 = batched.clock().now_secs();
        let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
        let results = batched.get_many(&refs);
        let batch_secs = batched.clock().now_secs() - t0;

        assert!(results.iter().all(|r| r.as_ref().is_ok_and(|d| d == &payload)));
        // 16 gets over 4 streams: 4 serialized RTTs instead of 16, same
        // payload time. Even with jitter that must be far below sequential.
        assert!(
            batch_secs < seq_secs * 0.5,
            "batched {batch_secs:.4}s vs sequential {seq_secs:.4}s"
        );
        // Accounting still counts every object.
        let log = batched.transfer_log();
        assert_eq!(log.read_ops, 16);
        assert_eq!(log.bytes_down, 16 * payload.len() as u64);
    }

    #[test]
    fn get_many_charges_only_successes() {
        let c = cloud(NetworkProfile::private_seal());
        c.put("present", b"data").unwrap();
        c.obs().reset();
        let t0 = c.clock().now_ns();
        let results = c.get_many(&["missing-a", "present", "missing-b"]);
        assert!(results[0].as_ref().unwrap_err().is_not_found());
        assert_eq!(results[1].as_ref().unwrap(), b"data");
        assert!(results[2].as_ref().unwrap_err().is_not_found());
        assert_eq!(c.transfer_log().read_ops, 1);
        assert_eq!(c.transfer_log().bytes_down, 4);
        assert!(c.clock().now_ns() > t0, "the one success must charge time");

        c.obs().reset();
        let t1 = c.clock().now_ns();
        let all_missing = c.get_many(&["nope-1", "nope-2"]);
        assert!(all_missing.iter().all(|r| r.as_ref().unwrap_err().is_not_found()));
        assert_eq!(c.transfer_log().read_ops, 0);
        assert_eq!(c.clock().now_ns(), t1, "all-error batch charges nothing");
    }

    #[test]
    fn put_many_amortizes_round_trips() {
        let keys: Vec<String> = (0..16).map(|i| format!("k{i}")).collect();
        let payload = vec![3u8; 64 << 10];

        let sequential = cloud(NetworkProfile::private_seal());
        let t0 = sequential.clock().now_secs();
        for k in &keys {
            sequential.put(k, &payload).unwrap();
        }
        let seq_secs = sequential.clock().now_secs() - t0;

        let batched = cloud(NetworkProfile::private_seal());
        let t0 = batched.clock().now_secs();
        let items: Vec<(&str, &[u8])> = keys.iter().map(|k| (k.as_str(), &payload[..])).collect();
        let results = batched.put_many(&items);
        let batch_secs = batched.clock().now_secs() - t0;

        assert!(results.iter().all(|r| r.is_ok()));
        // 16 puts over 8 streams: 2 serialized handshake+ack pairs instead
        // of 16, same payload time.
        assert!(
            batch_secs < seq_secs * 0.5,
            "batched {batch_secs:.4}s vs sequential {seq_secs:.4}s"
        );
        let log = batched.transfer_log();
        assert_eq!(log.write_ops, 16);
        assert_eq!(log.bytes_up, 16 * payload.len() as u64);
        for k in &keys {
            assert_eq!(batched.get(k).unwrap(), payload);
        }
    }

    #[test]
    fn put_many_charges_only_successes() {
        let c = cloud(NetworkProfile::private_seal());
        let t0 = c.clock().now_ns();
        let results = c.put_many(&[("bad//key", b"x" as &[u8]), ("fine", b"data")]);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
        assert_eq!(c.transfer_log().write_ops, 1);
        assert_eq!(c.transfer_log().bytes_up, 4);
        assert!(c.clock().now_ns() > t0, "the one success must charge time");

        let t1 = c.clock().now_ns();
        let all_bad = c.put_many(&[("also//bad", b"y" as &[u8])]);
        assert!(all_bad[0].is_err());
        assert_eq!(c.clock().now_ns(), t1, "all-error batch charges nothing");
    }

    #[test]
    fn put_many_records_wave_span_and_mirrors_busy_vns() {
        let c = cloud(NetworkProfile::private_seal());
        let items: Vec<(&str, &[u8])> = vec![("a", b"xx"), ("b", b"yy")];
        c.put_many(&items);
        let spans = c.obs().span_tree();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].label, "wan.wave");
        assert_eq!(c.obs().counter("waves").get(), 1);
        assert_eq!(c.obs().counter("busy_vns").get(), c.clock().now_ns());
    }

    #[test]
    fn delete_many_amortizes_round_trips() {
        let keys: Vec<String> = (0..16).map(|i| format!("k{i}")).collect();
        let refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();

        let sequential = cloud(NetworkProfile::private_seal());
        let batched = cloud(NetworkProfile::private_seal());
        for k in &keys {
            sequential.put(k, b"x").unwrap();
            batched.put(k, b"x").unwrap();
        }
        let t0 = sequential.clock().now_secs();
        for k in &keys {
            sequential.delete(k).unwrap();
        }
        let seq_secs = sequential.clock().now_secs() - t0;

        batched.obs().reset();
        let t0 = batched.clock().now_secs();
        let results = batched.delete_many(&refs);
        let batch_secs = batched.clock().now_secs() - t0;

        assert!(results.iter().all(|r| r.is_ok()));
        // 16 deletes over 8 streams: 2 serialized round trips instead of 16.
        assert!(
            batch_secs < seq_secs * 0.25,
            "batched {batch_secs:.4}s vs sequential {seq_secs:.4}s"
        );
        // Accounting still counts every object, and moves no bytes.
        let log = batched.transfer_log();
        assert_eq!(log.write_ops, 16);
        assert_eq!((log.bytes_up, log.bytes_down), (0, 0));
        assert!(batched.list("").unwrap().is_empty());
    }

    #[test]
    fn delete_many_charges_only_successes() {
        let c = cloud(NetworkProfile::private_seal());
        c.put("present", b"data").unwrap();
        c.obs().reset();
        let t0 = c.clock().now_ns();
        let results = c.delete_many(&["missing-a", "present", "missing-b"]);
        assert!(results[0].as_ref().unwrap_err().is_not_found());
        assert!(results[1].is_ok());
        assert!(results[2].as_ref().unwrap_err().is_not_found());
        assert_eq!(c.transfer_log().write_ops, 1);
        assert!(c.clock().now_ns() > t0, "the one success must charge time");

        c.obs().reset();
        let t1 = c.clock().now_ns();
        let all_missing = c.delete_many(&["present", "nope"]);
        assert!(all_missing.iter().all(|r| r.as_ref().unwrap_err().is_not_found()));
        assert_eq!(c.transfer_log().write_ops, 0);
        assert_eq!(c.obs().counter("waves").get(), 0);
        assert_eq!(c.clock().now_ns(), t1, "all-error batch charges nothing");
    }

    #[test]
    fn delete_many_records_wave_span_and_mirrors_busy_vns() {
        let c = cloud(NetworkProfile::private_seal());
        c.put("a", b"xx").unwrap();
        c.put("b", b"yy").unwrap();
        c.obs().reset();
        let before = c.clock().now_ns();
        c.delete_many(&["a", "b"]);
        let spans = c.obs().span_tree();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].label, "wan.wave");
        assert!(spans[0].end_vns > before, "wave span must cover the batch charge");
        assert_eq!(c.obs().counter("waves").get(), 1);
        assert_eq!(c.obs().counter("busy_vns").get(), c.clock().now_ns() - before);
    }

    #[test]
    fn metrics_registry_mirrors_transfer_log() {
        let obs = Obs::new(SimClock::new());
        let c = CloudStore::new(
            Arc::new(MemoryStore::new()),
            NetworkProfile::private_seal(),
            obs.clock().clone(),
            42,
        )
        .with_obs(&obs.scoped("seal"));
        c.put("a", &vec![1u8; 1000]).unwrap();
        c.get("a").unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("seal.wan.write_ops"), 1);
        assert_eq!(snap.counter("seal.wan.read_ops"), 1);
        assert_eq!(snap.counter("seal.wan.bytes_up"), 1000);
        assert_eq!(snap.counter("seal.wan.bytes_down"), 1000);
        // busy_vns mirrors every clock charge exactly, nanosecond for
        // nanosecond, because both go through secs_to_ns.
        assert_eq!(snap.counter("seal.wan.busy_vns"), obs.clock().now_ns());
        let log = c.transfer_log();
        assert_eq!(log.write_ops, 1);
        assert_eq!(log.busy_secs, snap.counter("seal.wan.busy_vns") as f64 / 1e9);
        c.obs().reset();
        assert_eq!(c.transfer_log(), TransferLog::default());
    }

    #[test]
    fn get_many_records_wave_span_and_counter() {
        let c = cloud(NetworkProfile::private_seal());
        c.put("a", b"xx").unwrap();
        c.put("b", b"yy").unwrap();
        let before = c.clock().now_ns();
        c.get_many(&["a", "b"]);
        let spans = c.obs().span_tree();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].label, "wan.wave");
        assert!(spans[0].end_vns > before, "wave span must cover the batch charge");
        assert_eq!(c.obs().counter("waves").get(), 1);
        assert_eq!(c.transfer_log().read_ops, 2);
    }

    #[test]
    fn transfer_secs_scales_with_bytes_and_streams() {
        let p = NetworkProfile::public_dataverse();
        let one = p.transfer_secs(1_000_000);
        let two = p.transfer_secs(2_000_000);
        assert!((two / one - 2.0).abs() < 1e-9);
        let single = NetworkProfile { streams: 1, ..p.clone() };
        assert!(single.transfer_secs(1_000_000) > one);
    }

    #[test]
    fn ranged_read_cheaper_than_full_get() {
        let c = cloud(NetworkProfile::public_dataverse());
        c.put("k", &vec![0u8; 64 << 20]).unwrap();
        c.obs().reset();
        let t0 = c.clock().now_ns();
        c.get_range("k", 0, 4096).unwrap();
        let ranged = c.clock().now_ns() - t0;
        let t1 = c.clock().now_ns();
        c.get("k").unwrap();
        let full = c.clock().now_ns() - t1;
        assert!(ranged < full / 4, "ranged {ranged} vs full {full}");
    }

    /// The WAN model before the link timeline, copied as the oracle: the
    /// charge of the `op`-th episode.
    fn blocking_oracle_secs(
        p: &NetworkProfile,
        seed: u64,
        op: u64,
        ops: u64,
        trips: u32,
        bytes: u64,
    ) -> f64 {
        let round_trips = trips * (ops as u32).div_ceil(p.streams.max(1));
        let base = p.rtt_ms / 1000.0 * round_trips as f64 + p.transfer_secs(bytes);
        let jitter_u = splitmix64(seed ^ op) as f64 / u64::MAX as f64;
        let factor = 1.0 + p.jitter * (2.0 * jitter_u - 1.0);
        base * factor.max(0.0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// With nothing issued, every call moves the clock and `busy_vns`
        /// exactly as the old arithmetic did, episode by episode.
        #[test]
        fn blocking_calls_cost_exactly_the_old_arithmetic(
            seed in 0u64..1_000,
            profile in 0usize..4,
            calls in proptest::collection::vec((0u8..8, 1usize..20, 0usize..5_000), 1..40),
        ) {
            let p = [
                NetworkProfile::public_dataverse(),
                NetworkProfile::private_seal(),
                NetworkProfile::campus(),
                NetworkProfile::local(),
            ][profile].clone();
            let c = CloudStore::new(Arc::new(MemoryStore::new()), p.clone(), SimClock::new(), seed);
            let (mut clock, mut op) = (0u64, 0u64);
            let mut charge = |ops: u64, trips: u32, bytes: u64| {
                if ops > 0 {
                    clock += secs_to_ns(blocking_oracle_secs(&p, seed, op, ops, trips, bytes));
                    op += 1;
                }
                clock
            };
            c.put("k0", b"seed").unwrap();
            charge(1, 2, 4);
            for (kind, n, size) in calls {
                let keys: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
                let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                let payload = vec![kind; size];
                let expect = match kind {
                    0 => {
                        c.put(refs[0], &payload).unwrap();
                        charge(1, 2, size as u64)
                    }
                    1 => {
                        let items: Vec<(&str, &[u8])> =
                            refs.iter().map(|k| (*k, payload.as_slice())).collect();
                        c.put_many(&items);
                        charge(n as u64, 2, (n * size) as u64)
                    }
                    2 => {
                        let got = c.get_many(&refs);
                        let hits: Vec<u64> =
                            got.iter().filter_map(|r| r.as_ref().ok()).map(|d| d.len() as u64).collect();
                        charge(hits.len() as u64, 1, hits.iter().sum())
                    }
                    3 => {
                        let bytes = c.get("k0").map(|d| d.len() as u64).unwrap();
                        charge(1, 1, bytes)
                    }
                    4 => {
                        let heads = c.head_many(&refs).iter().filter(|r| r.is_ok()).count();
                        charge(heads as u64, 1, 0)
                    }
                    5 => {
                        let listed = c.list("k").unwrap().len() as u64;
                        charge(1, 1, listed * 100)
                    }
                    6 => {
                        let gone = c.delete_many(&refs[1..]).iter().filter(|r| r.is_ok()).count();
                        charge(gone as u64, 1, 0)
                    }
                    _ => {
                        assert!(c.get("missing").is_err());
                        charge(0, 1, 0)
                    }
                };
                proptest::prop_assert_eq!(c.clock().now_ns(), expect);
                proptest::prop_assert_eq!(c.busy_vns(), expect);
            }
        }
    }

    /// Seal's shape without jitter, so charges can be named exactly.
    fn flat(rtt_ms: f64, bandwidth_mbps: f64) -> NetworkProfile {
        NetworkProfile { name: "flat".into(), rtt_ms, bandwidth_mbps, jitter: 0.0, streams: 8 }
    }

    /// One `put_many` wave of `n` objects of `size` bytes, issued on
    /// `lanes`.
    fn issue(c: &CloudStore, lanes: &mut UploadLanes, prefix: &str, n: usize, size: usize) {
        let keys: Vec<String> = (0..n).map(|i| format!("{prefix}{i}")).collect();
        let payload = vec![1u8; size];
        let items: Vec<(&str, &[u8])> = keys.iter().map(|k| (k.as_str(), &payload[..])).collect();
        assert!(lanes.issue(|| c.put_many(&items)).iter().all(|r| r.is_ok()));
    }

    /// The charge of a wave of `ops` uploads of `size` bytes each.
    fn wave_ns(p: &NetworkProfile, ops: u64, size: u64) -> u64 {
        secs_to_ns(blocking_oracle_secs(p, 0, 0, ops, 2, ops * size))
    }

    #[test]
    fn two_issued_narrow_waves_finish_together() {
        let p = flat(30.0, 1000.0);
        let c = CloudStore::new(Arc::new(MemoryStore::new()), p.clone(), SimClock::new(), 1);
        let mut lanes = UploadLanes::new(8);
        issue(&c, &mut lanes, "a", 4, 100);
        issue(&c, &mut lanes, "b", 4, 100);
        // Both waves found four free streams and lanes at time 0.
        assert_eq!(c.clock().now_ns(), 0, "issuing waits for no upload");
        let s = wave_ns(&p, 4, 100);
        assert_eq!(lanes.finish_vns(), s);
        assert!(lanes.in_flight());
        assert_eq!(c.busy_vns(), 2 * s, "busy_vns is occupancy");
        assert_eq!(c.transfer_log().write_ops, 8);
        assert_eq!(c.obs().counter("waves").get(), 2);
        assert_eq!(lanes.join(), s);
        assert_eq!(c.clock().now_ns(), s);
        assert!(!lanes.in_flight());
    }

    #[test]
    fn a_five_plus_five_pair_splits_per_op() {
        let p = flat(30.0, 1000.0);
        let c = CloudStore::new(Arc::new(MemoryStore::new()), p.clone(), SimClock::new(), 1);
        let mut lanes = UploadLanes::new(10);
        issue(&c, &mut lanes, "a", 5, 100);
        let s = wave_ns(&p, 5, 100);
        issue(&c, &mut lanes, "b", 5, 100);
        // Three of the second wave's ops start at once on the free streams;
        // the other two wait for the first wave's streams, but each holds
        // one of the ten lanes at issue, so the caller does not wait.
        assert_eq!(c.clock().now_ns(), 0, "the issuing call waits only for lanes");
        let started_late = lanes.free_vns.iter().filter(|&&t| t == 2 * s).count();
        let started_now = lanes.free_vns.iter().filter(|&&t| t == s).count();
        assert_eq!((started_now, started_late), (8, 2));
        assert_eq!(lanes.finish_vns(), 2 * s);
    }

    #[test]
    fn a_wave_wider_than_the_streams_waits_for_all_of_them() {
        let p = flat(30.0, 1000.0);
        let c = CloudStore::new(Arc::new(MemoryStore::new()), p.clone(), SimClock::new(), 1);
        let mut lanes = UploadLanes::new(16);
        issue(&c, &mut lanes, "a", 1, 100);
        let one = wave_ns(&p, 1, 100);
        // Seven streams are free, but nine ops take all eight at once; the
        // caller holds nine of its sixteen lanes at issue and goes on.
        issue(&c, &mut lanes, "b", 9, 100);
        assert_eq!(c.clock().now_ns(), 0);
        let nine = wave_ns(&p, 9, 100);
        let two_pairs = secs_to_ns(p.rtt_ms / 1000.0 * 4.0 + p.transfer_secs(900));
        assert_eq!(nine, two_pairs, "nine ops on eight streams serialize two round-trip pairs");
        assert_eq!(lanes.finish_vns(), one + nine);
        assert_eq!(c.link.lock().streams, vec![one + nine; 8]);
    }

    #[test]
    fn overlapping_waves_share_the_byte_rate() {
        // 1 ms RTT at 100 Mbit/s per stream: payload dominates the charge.
        let p = flat(1.0, 100.0);
        let c = CloudStore::new(Arc::new(MemoryStore::new()), p.clone(), SimClock::new(), 1);
        let mut lanes = UploadLanes::new(8);
        let (ops, size) = (4, 1 << 20);
        let b = (ops * size) as u64;
        issue(&c, &mut lanes, "a", ops, size);
        issue(&c, &mut lanes, "b", ops, size);
        assert_eq!(c.clock().now_ns(), 0, "both waves start at once");
        let alone = wave_ns(&p, ops as u64, size as u64);
        assert!(secs_to_ns(p.transfer_secs(2 * b)) > alone, "the test needs payload-bound waves");
        // Each wave alone would end at `alone`; together they cannot beat
        // the aggregate rate.
        assert!(lanes.finish_vns() >= secs_to_ns(p.transfer_secs(2 * b)));
        assert_eq!(c.busy_vns(), 2 * alone, "the charge is unchanged");
    }

    #[test]
    fn a_blocking_call_after_issued_waves_starts_at_drain() {
        let p = NetworkProfile::private_seal();
        let mem = Arc::new(MemoryStore::new());
        let c = CloudStore::new(mem.clone(), p.clone(), SimClock::new(), 5);
        let twin = CloudStore::new(Arc::new(MemoryStore::new()), p, SimClock::new(), 5);
        let mut lanes = UploadLanes::new(8);
        issue(&c, &mut lanes, "a", 3, 4096);
        issue(&c, &mut lanes, "b", 3, 4096);
        let drain = *c.link.lock().streams.iter().max().unwrap();
        assert!(drain > c.clock().now_ns());
        c.get("a0").unwrap();
        // The twin pays the same two jitter draws blocking, then the get.
        for prefix in ["a", "b"] {
            let payload = vec![1u8; 4096];
            let keys: Vec<String> = (0..3).map(|i| format!("{prefix}{i}")).collect();
            let items: Vec<(&str, &[u8])> =
                keys.iter().map(|k| (k.as_str(), &payload[..])).collect();
            twin.put_many(&items);
        }
        let before = twin.clock().now_ns();
        twin.get("a0").unwrap();
        assert_eq!(c.clock().now_ns(), drain + (twin.clock().now_ns() - before));
        assert_eq!(c.busy_vns(), twin.busy_vns());
    }

    #[test]
    fn a_failed_op_is_neither_charged_nor_holds_a_lane() {
        let p = flat(30.0, 1000.0);
        let c = CloudStore::new(Arc::new(MemoryStore::new()), p.clone(), SimClock::new(), 1);
        let mut lanes = UploadLanes::new(4);
        let results = lanes.issue(|| {
            c.put_many(&[("a", b"x" as &[u8]), ("bad//key", b"y"), ("b", b"z"), ("c", b"w")])
        });
        assert!(results[1].is_err());
        assert_eq!(c.transfer_log().write_ops, 3);
        assert_eq!(c.busy_vns(), wave_ns(&p, 3, 1));
        assert_eq!(lanes.free_vns.iter().filter(|&&t| t == 0).count(), 1, "one lane stays free");

        let before = lanes.clone();
        let all_bad = lanes.issue(|| c.put_many(&[("also//bad", b"y" as &[u8])]));
        assert!(all_bad[0].is_err());
        assert_eq!(lanes.free_vns, before.free_vns);
        assert_eq!(c.busy_vns(), wave_ns(&p, 3, 1));
        assert_eq!(c.obs().counter("waves").get(), 1);
    }

    #[test]
    fn unbounded_lanes_never_delay_an_upload() {
        let p = flat(30.0, 1000.0);
        let bounded = CloudStore::new(Arc::new(MemoryStore::new()), p.clone(), SimClock::new(), 1);
        let open = CloudStore::new(Arc::new(MemoryStore::new()), p.clone(), SimClock::new(), 1);
        let (mut four, mut lanes) = (UploadLanes::new(4), UploadLanes::unbounded());
        // Sixteen ops take all eight streams at once; four lanes serialize
        // them four at a time, open lanes start all of them at issue.
        issue(&bounded, &mut four, "a", 16, 100);
        issue(&open, &mut lanes, "a", 16, 100);
        let s = wave_ns(&p, 16, 100);
        assert_eq!((bounded.clock().now_ns(), open.clock().now_ns()), (3 * s, 0));
        assert_eq!(four.finish_vns(), 4 * s);
        assert_eq!(lanes.finish_vns(), s);
        // A narrow wave queues for the streams, but its caller does not.
        issue(&open, &mut lanes, "b", 2, 100);
        assert_eq!(open.clock().now_ns(), 0);
        assert_eq!(lanes.finish_vns(), s + wave_ns(&p, 2, 100));
        assert_eq!(lanes.join(), s + wave_ns(&p, 2, 100));
    }

    /// The lanes before a lane stopped delaying its caller, copied as the
    /// oracle: unbounded lanes open a lane rather than wait for one.
    struct OracleLanes {
        free_vns: Vec<u64>,
        grows: bool,
    }

    impl OracleLanes {
        fn lane_for(&mut self, ready_vns: u64) -> usize {
            match (0..self.free_vns.len()).min_by_key(|&i| self.free_vns[i]) {
                Some(i) if !self.grows || self.free_vns[i] <= ready_vns => i,
                _ => {
                    self.free_vns.push(0);
                    self.free_vns.len() - 1
                }
            }
        }
    }

    /// `Link::place` before a lane stopped delaying its caller, copied as
    /// the oracle. Returns each op's start and end, and the latest time one
    /// of them was granted a lane of its own: `now` on lanes that grow, the
    /// lane's free time on bounded ones.
    fn oracle_place(
        streams: &mut [u64],
        bandwidth: &mut u64,
        lanes: &mut OracleLanes,
        now: u64,
        ops: usize,
        secs_ns: u64,
        xfer_ns: u64,
    ) -> (Vec<(u64, u64)>, u64) {
        let wide = ops > streams.len();
        let all_free = streams.iter().copied().max().unwrap_or(0);
        let (mut placed, mut last_grant, mut last_end) = (Vec::new(), now, now);
        for i in 0..ops {
            let stream = (0..streams.len()).min_by_key(|&s| streams[s]).expect("at least one");
            let stream_free = if wide { all_free } else { streams[stream] };
            let lane = lanes.lane_for(now.max(stream_free));
            let start = now.max(stream_free).max(lanes.free_vns[lane]);
            let (i, n) = (i as u64, ops as u64);
            let share = xfer_ns * (i + 1) / n - xfer_ns * i / n;
            *bandwidth = (*bandwidth).max(start) + share;
            let end = (start + secs_ns).max(*bandwidth);
            if !lanes.grows {
                last_grant = last_grant.max(lanes.free_vns[lane]);
            }
            lanes.free_vns[lane] = end;
            if !wide {
                streams[stream] = end;
            }
            placed.push((start, end));
            last_end = last_end.max(end);
        }
        if wide {
            streams.iter_mut().for_each(|s| *s = last_end);
        }
        (placed, last_grant)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Only the caller's clock follows the lanes: every issued op is
        /// placed as the oracle places it for the same call at the same
        /// `now` (start, end, stream and byte-rate state, `busy_vns`), and
        /// the issuing call returns at the latest lane grant. Blocking calls
        /// between waves still wait for the drain, and take every stream.
        #[test]
        fn issuing_moves_no_upload(
            seed in 0u64..1_000,
            profile in 0usize..3,
            bounds in proptest::collection::vec(0usize..16, 3),
            calls in proptest::collection::vec((0usize..5, 1usize..24, 0usize..300_000), 1..40),
        ) {
            let p = [
                NetworkProfile::public_dataverse(),
                NetworkProfile::private_seal(),
                flat(30.0, 1000.0),
            ][profile].clone();
            let c = CloudStore::new(Arc::new(MemoryStore::new()), p.clone(), SimClock::new(), seed);
            // Lane set `i` is unbounded when its bound is 0.
            let mut lanes: Vec<UploadLanes> = bounds
                .iter()
                .map(|&b| if b == 0 { UploadLanes::unbounded() } else { UploadLanes::new(b) })
                .collect();
            let mut oracle: Vec<OracleLanes> = bounds
                .iter()
                .map(|&b| OracleLanes { free_vns: vec![0; b], grows: b == 0 })
                .collect();
            let mut streams = vec![0u64; p.streams as usize];
            let (mut bandwidth, mut drain, mut busy, mut op) = (0u64, 0u64, 0u64, 0u64);
            for (step, (kind, n, size)) in calls.into_iter().enumerate() {
                let now = c.clock().now_ns();
                let bytes = (n * size) as u64;
                // The charge and payload time of the `op`-th episode.
                let secs = blocking_oracle_secs(&p, seed, op, n as u64, 2, bytes);
                let jitter_u = splitmix64(seed ^ op) as f64 / u64::MAX as f64;
                let xfer = p.transfer_secs(bytes) * (1.0 + p.jitter * (2.0 * jitter_u - 1.0)).max(0.0);
                let expect = match kind {
                    0..=2 => {
                        let (placed, grant) = oracle_place(
                            &mut streams,
                            &mut bandwidth,
                            &mut oracle[kind],
                            now,
                            n,
                            secs_to_ns(secs),
                            secs_to_ns(xfer),
                        );
                        c.link.lock().placed.clear();
                        issue(&c, &mut lanes[kind], &format!("w{step}/"), n, size);
                        (op, busy) = (op + 1, busy + secs_to_ns(secs));
                        drain = drain.max(placed.iter().map(|&(_, e)| e).max().unwrap());
                        proptest::prop_assert_eq!(&c.link.lock().placed, &placed);
                        let finish = oracle[kind].free_vns.iter().copied().max().unwrap();
                        proptest::prop_assert_eq!(lanes[kind].finish_vns(), finish);
                        if bounds[kind] > 0 {
                            proptest::prop_assert_eq!(&lanes[kind].free_vns, &oracle[kind].free_vns);
                        }
                        grant
                    }
                    3 => {
                        let payload = vec![3u8; size];
                        let keys: Vec<String> = (0..n).map(|i| format!("b{step}/{i}")).collect();
                        let items: Vec<(&str, &[u8])> =
                            keys.iter().map(|k| (k.as_str(), &payload[..])).collect();
                        c.put_many(&items);
                        (op, busy) = (op + 1, busy + secs_to_ns(secs));
                        // It takes every stream from the drain to its end.
                        let end = now.max(drain) + secs_to_ns(secs);
                        streams.iter_mut().for_each(|s| *s = end);
                        bandwidth = now.max(drain) + secs_to_ns(xfer);
                        end
                    }
                    _ => {
                        let set = n % lanes.len();
                        lanes[set].join();
                        now.max(lanes[set].finish_vns())
                    }
                };
                proptest::prop_assert_eq!(c.clock().now_ns(), expect);
                proptest::prop_assert_eq!(&c.link.lock().streams, &streams);
                proptest::prop_assert_eq!(c.link.lock().bandwidth, bandwidth);
                proptest::prop_assert_eq!(c.busy_vns(), busy);
            }
        }
    }

    #[test]
    fn concurrent_blocking_callers_accumulate() {
        let c = cloud(NetworkProfile::public_dataverse());
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..50 {
                        let key = format!("t{t}/{i}");
                        c.put(&key, &vec![t as u8; 1000 * i]).unwrap();
                        c.get(&key).unwrap();
                    }
                });
            }
        });
        assert_eq!(c.transfer_log().write_ops, 200);
        assert_eq!(c.clock().now_ns(), c.busy_vns(), "no two blocking calls overlap");
    }

    #[test]
    fn the_issue_frame_is_scoped_to_its_closure() {
        let c = cloud(NetworkProfile::private_seal());
        let mut lanes = UploadLanes::new(8);
        issue(&c, &mut lanes, "a", 2, 10);
        assert_eq!(c.clock().now_ns(), 0);
        // Outside `issue`, the same call blocks again, after the drain.
        c.put_many(&[("z", b"z" as &[u8])]);
        assert!(c.clock().now_ns() > lanes.finish_vns());
        assert!(take_issue_frame().is_none());
    }
}
