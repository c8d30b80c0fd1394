//! Chaos differential tests: the full resilience stack (fault injection →
//! circuit breaker → checksum verification → retries with hedging) must be
//! *transparent* — queries through a faulty endpoint return bitwise the
//! same samples as the fault-free oracle — and fully seed-deterministic on
//! the virtual clock, including when it degrades gracefully mid-outage.

use nsdf::compress::Codec;
use nsdf::idx::{Field, IdxDataset, IdxMeta};
use nsdf::storage::{
    FailScope, FaultPlan, FaultStore, IntegrityStore, MemoryStore, NetworkProfile, ObjectMeta,
    ObjectStore, RetryPolicy, RetryStore,
};
use nsdf::util::{fnv1a64, samples_to_bytes, Box2i, DType, Obs, Raster, Result, SimClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;
use common::chaos_stack;

const W: usize = 128;
const H: usize = 96;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Publish a deterministic raster into `mem` as IDX dataset `"chaos"`.
fn seed_data(mem: Arc<MemoryStore>) {
    let meta = IdxMeta::new_2d(
        "chaos",
        W as u64,
        H as u64,
        vec![Field::new("v", DType::F32).unwrap()],
        8,
        Codec::Lz4,
    )
    .unwrap();
    let ds = IdxDataset::create(mem as Arc<dyn ObjectStore>, "chaos", meta).unwrap();
    let r = Raster::<f32>::from_fn(W, H, |x, y| {
        ((x as u32).wrapping_mul(2654435761).wrapping_add(y as u32) % 10_000) as f32 * 0.25
    });
    ds.write_raster("v", 0, &r).unwrap();
}

/// A deterministic sweep of query regions/levels within the dataset bounds.
fn query_sweep(max_level: u32, n: usize, rng_seed: u64) -> Vec<(Box2i, u32)> {
    let mut rng = rng_seed;
    (0..n)
        .map(|_| {
            let x0 = (xorshift(&mut rng) % (W as u64 - 16)) as i64;
            let y0 = (xorshift(&mut rng) % (H as u64 - 16)) as i64;
            let w = 8 + (xorshift(&mut rng) % 56) as i64;
            let h = 8 + (xorshift(&mut rng) % 48) as i64;
            let region = Box2i::new(x0, y0, (x0 + w).min(W as i64), (y0 + h).min(H as i64));
            let level = max_level - (xorshift(&mut rng) % 4) as u32;
            (region, level)
        })
        .collect()
}

#[test]
fn read_box_bitwise_identical_under_20pct_faults_both_profiles() {
    for profile in [NetworkProfile::public_dataverse(), NetworkProfile::private_seal()] {
        let mem = Arc::new(MemoryStore::new());
        seed_data(mem.clone());
        let oracle = IdxDataset::open(mem.clone() as Arc<dyn ObjectStore>, "chaos").unwrap();

        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        let plan = FaultPlan::new(97)
            .with_scope(FailScope::Reads)
            .with_fault_rate(0.2)
            .with_corrupt_rate(0.05);
        let stack = chaos_stack(mem, profile, plan, clock, &obs);
        let chaotic = IdxDataset::open(stack, "chaos").unwrap();

        for (region, level) in query_sweep(oracle.max_level(), 12, 0x1234_5678_9abc_def0) {
            let (want, qa) = oracle.read_box::<f32>("v", 0, region, level).unwrap();
            let (got, qb) = chaotic.read_box::<f32>("v", 0, region, level).unwrap();
            assert_eq!(got.data(), want.data(), "region {region:?} level {level}");
            assert_eq!(qb.samples_out, qa.samples_out);
            assert!(!qb.degraded, "resilience stack hides faults without degrading");
        }

        let snap = obs.snapshot();
        assert!(snap.counter("fault.injected") > 0, "the plan actually injected faults");
        assert!(snap.counter("fault.corrupted") > 0, "and corrupted payloads");
        assert!(snap.counter("integrity.rejected") > 0, "checksums caught the corruption");
        assert!(snap.counter("retry.retries") > 0, "retries absorbed the failures");
        assert_eq!(snap.counter("breaker.opened"), 0, "breaker stayed closed at this rate");
    }
}

#[test]
fn chaos_sweep_is_deterministic_including_clock_and_metrics() {
    let run = || {
        let mem = Arc::new(MemoryStore::new());
        seed_data(mem.clone());
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        let plan = FaultPlan::new(53)
            .with_scope(FailScope::Reads)
            .with_fault_rate(0.15)
            .with_corrupt_rate(0.05)
            .latency_spike(0.0, 1e9, 0.003);
        let stack = chaos_stack(mem, NetworkProfile::public_dataverse(), plan, clock.clone(), &obs);
        let ds = IdxDataset::open(stack, "chaos").unwrap();
        let mut fp = 0xcbf2_9ce4_8422_2325u64;
        for (region, level) in query_sweep(ds.max_level(), 8, 0xfeed_f00d_dead_beef) {
            let (r, _) = ds.read_box::<f32>("v", 0, region, level).unwrap();
            fp ^= fnv1a64(&samples_to_bytes(r.data()));
        }
        (fp, clock.now_ns(), obs.snapshot().to_json())
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "identical seeds replay the identical chaos timeline");
}

#[test]
fn outage_degrades_through_full_stack_then_recovers() {
    let mem = Arc::new(MemoryStore::new());
    seed_data(mem.clone());
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    // Total read blackout between t=1000s and t=2000s of virtual time.
    let plan = FaultPlan::new(7).with_scope(FailScope::Reads).outage(1000.0, 2000.0);
    let stack = chaos_stack(mem, NetworkProfile::private_seal(), plan, clock.clone(), &obs);
    let ds = IdxDataset::open(stack, "chaos").unwrap().with_degraded_reads(true).with_obs(&obs);

    // Warm a coarse preview while the endpoint is healthy.
    let coarse_level = ds.max_level() - 3;
    let (coarse, q0) = ds.read_box::<f32>("v", 0, ds.bounds(), coarse_level).unwrap();
    assert!(!q0.degraded);

    // Mid-outage the fine query degrades to the cached preview instead of
    // failing, even though retries and hedges all exhaust.
    clock.advance_secs(1500.0 - clock.now_secs());
    let (out, q) = ds.read_box::<f32>("v", 0, ds.bounds(), ds.max_level()).unwrap();
    assert!(q.degraded);
    assert_eq!(q.requested_level, ds.max_level());
    assert_eq!(q.delivered_level, coarse_level);
    assert!(q.blocks_unavailable > 0);
    assert_eq!(out.data(), coarse.data());
    let snap = obs.snapshot();
    assert_eq!(snap.counter("idx.degraded_queries"), 1);
    assert!(snap.counter("breaker.opened") > 0, "sustained outage trips the breaker");

    // After the outage (and the breaker cooldown) the same query delivers
    // full resolution again.
    clock.advance_secs(2100.0 - clock.now_secs());
    let (_, q2) = ds.read_box::<f32>("v", 0, ds.bounds(), ds.max_level()).unwrap();
    assert!(!q2.degraded);
    assert_eq!(q2.delivered_level, ds.max_level());
}

/// Counts the keys its `head` calls ask for, forwarding everything.
struct HeadCounter {
    inner: Arc<dyn ObjectStore>,
    heads: AtomicU64,
}

impl ObjectStore for HeadCounter {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        self.inner.put(key, data)
    }
    fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.inner.get(key)
    }
    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        self.inner.get_many(keys)
    }
    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.heads.fetch_add(1, Ordering::Relaxed);
        self.inner.head(key)
    }
    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        self.heads.fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.inner.head_many(keys)
    }
    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        self.inner.list(prefix)
    }
    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)
    }
}

#[test]
fn sealed_blocks_are_headed_only_when_damaged_in_flight() {
    let mem = Arc::new(MemoryStore::new());
    seed_data(mem.clone());
    let clock = SimClock::new();
    let plan = FaultPlan::new(11).with_scope(FailScope::Reads).with_corrupt_rate(0.2);
    let faulty = Arc::new(FaultStore::new(mem.clone(), plan, clock.clone()).unwrap());
    let counter = Arc::new(HeadCounter { inner: faulty, heads: AtomicU64::new(0) });
    let verified = Arc::new(IntegrityStore::new(counter.clone()));
    let policy = RetryPolicy { max_attempts: 12, ..RetryPolicy::default() };
    let stack = Arc::new(RetryStore::new(verified.clone(), policy, clock).unwrap());

    let oracle = IdxDataset::open(mem as Arc<dyn ObjectStore>, "chaos").unwrap();
    let (want, _) = oracle.read_full::<f32>("v", 0).unwrap();
    // The header is not sealed, so opening heads it; count the block reads.
    let ds = IdxDataset::open(stack, "chaos").unwrap();
    let (heads0, rejected0) = (counter.heads.load(Ordering::Relaxed), verified.rejected());
    let (got, _) = ds.read_full::<f32>("v", 0).unwrap();
    assert_eq!(got.data(), want.data());
    let rejected = verified.rejected() - rejected0;
    assert!(rejected > 0, "a 20% corruption rate damaged no block");
    assert_eq!(counter.heads.load(Ordering::Relaxed) - heads0, rejected);
}
