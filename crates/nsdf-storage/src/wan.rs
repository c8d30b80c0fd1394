//! Simulated wide-area cloud storage.
//!
//! The tutorial's storage options — the public Dataverse commons and the
//! private Seal Storage cloud — differ from local disk in exactly one way
//! that matters to the workflows: the network in front of them. `CloudStore`
//! wraps any [`ObjectStore`] with a parameterised WAN model and charges
//! every operation against the shared virtual [`SimClock`]:
//!
//! ```text
//! op time = RTT x round_trips + bytes / (bandwidth x streams) + jitter
//! ```
//!
//! Jitter is drawn deterministically from a seeded stream, so experiments
//! are exactly reproducible while still exercising variance-sensitive code.

use crate::store::{ObjectMeta, ObjectStore};
use nsdf_util::obs::{Counter, HistogramMetric, Obs};
use nsdf_util::{secs_to_ns, splitmix64, Result, SimClock};
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
    /// Total virtual seconds spent in this store's operations.
    pub busy_secs: f64,
}

/// Registry handles for one `CloudStore`, under the `wan` scope.
///
/// `busy_vns` mirrors every clock charge in integer nanoseconds (via
/// [`secs_to_ns`]) so the accounting sums exactly what the clock advanced,
/// independent of thread interleaving.
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

/// An [`ObjectStore`] behind a simulated WAN.
pub struct CloudStore {
    inner: Arc<dyn ObjectStore>,
    profile: NetworkProfile,
    clock: SimClock,
    seed: u64,
    op_counter: AtomicU64,
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
        CloudStore { inner, profile, clock, seed, op_counter: AtomicU64::new(0), m }
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

    /// Integer virtual nanoseconds this endpoint has charged to the clock —
    /// the exact quantity an admission layer above must account for: when
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

    /// Charge and count one episode of `ops` successful requests, each of
    /// `trips` control round trips, moving `bytes` over the wire. The
    /// episode rides the profile's parallel streams: each stream carries
    /// ceil(ops/streams) requests back to back, so only that many round
    /// trips serialize (a single call pays its own `trips`), while
    /// `transfer_secs` spreads the payload across the streams. One
    /// deterministic jitter draw for the whole episode — it is one network
    /// episode, not `ops`. An episode where nothing succeeded costs nothing
    /// and returns false.
    fn settle(&self, traffic: Traffic, ops: u64, trips: u32, bytes: u64) -> bool {
        if ops == 0 {
            return false;
        }
        let round_trips = trips * (ops as u32).div_ceil(self.profile.streams.max(1));
        let base =
            self.profile.rtt_ms / 1000.0 * round_trips as f64 + self.profile.transfer_secs(bytes);
        let op = self.op_counter.fetch_add(1, Ordering::Relaxed);
        let jitter_u = splitmix64(self.seed ^ op) as f64 / u64::MAX as f64; // [0,1)
        let factor = 1.0 + self.profile.jitter * (2.0 * jitter_u - 1.0);
        let secs = base * factor.max(0.0);
        self.clock.advance_secs(secs);
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
        true
    }

    /// [`CloudStore::settle`] for a batch: a charged episode is a wave.
    fn settle_wave(&self, traffic: Traffic, ops: u64, trips: u32, bytes: u64) {
        if self.settle(traffic, ops, trips, bytes) {
            self.m.waves.inc();
        }
    }
}

/// How [`CloudStore::settle`] counts an episode.
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
        self.settle(Traffic::Write, 1, 2, data.len() as u64); // handshake + ack
        Ok(meta)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        let data = self.inner.get(key)?;
        self.settle(Traffic::Read, 1, 1, data.len() as u64);
        Ok(data)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let data = self.inner.get_range(key, offset, len)?;
        self.settle(Traffic::Read, 1, 1, data.len() as u64);
        Ok(data)
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        let _wave = self.m.obs.span("wave");
        let results = self.inner.get_many(keys);
        let fetched = results.iter().filter_map(|r| r.as_ref().ok());
        let total: u64 = fetched.clone().map(|d| d.len() as u64).sum();
        self.settle_wave(Traffic::Read, fetched.count() as u64, 1, total);
        results
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        let _wave = self.m.obs.span("wave");
        let results = self.inner.put_many(items);
        let stored = results.iter().zip(items).filter(|(r, _)| r.is_ok());
        let total: u64 = stored.clone().map(|(_, (_, d))| d.len() as u64).sum();
        // Each upload is a handshake + ack pair, like a single `put`.
        self.settle_wave(Traffic::Write, stored.count() as u64, 2, total);
        results
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        let meta = self.inner.head(key)?;
        self.settle(Traffic::Read, 1, 1, 0);
        Ok(meta)
    }

    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        let results = self.inner.head_many(keys);
        self.settle(Traffic::Read, results.iter().filter(|r| r.is_ok()).count() as u64, 1, 0);
        results
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        let listing = self.inner.list(prefix)?;
        // Listing payload: ~100 bytes of metadata per entry.
        self.settle(Traffic::Listing, 1, 1, listing.len() as u64 * 100);
        Ok(listing)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)?;
        self.settle(Traffic::Write, 1, 1, 0);
        Ok(())
    }

    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        let _wave = self.m.obs.span("wave");
        let results = self.inner.delete_many(keys);
        self.settle_wave(Traffic::Write, results.iter().filter(|r| r.is_ok()).count() as u64, 1, 0);
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
}
