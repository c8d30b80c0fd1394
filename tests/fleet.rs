//! Fleet differential tests: the multi-tenant admission layer must be
//! *transparent to data* (a tenant reads bitwise the same bytes alone as
//! inside a 100-tenant fleet — contention moves virtual time, never
//! payloads), byte-identically reproducible under a seed, and exactly
//! reconciled (`sched.granted_vns == wan.busy_vns`). Plus the session
//! path: a speculative fetch through the scheduler warms the cache below
//! it for the next pan.

use nsdf::compress::Codec;
use nsdf::idx::{Field, IdxDataset, IdxMeta, QuerySession};
use nsdf::storage::sched::Completion;
use nsdf::storage::{
    CloudStore, FleetSim, FleetSpec, MemoryStore, NetworkProfile, ObjectStore, Priority,
    SchedConfig, SchedStore, Scheduler, TenantPolicy, TierCache,
};
use nsdf::util::{Box2i, DType, Obs, Raster, SimClock};
use std::sync::Arc;

/// Run a fleet to full drain and return its completion stream.
fn run_fleet(spec: FleetSpec, cfg: SchedConfig, profile: NetworkProfile) -> Vec<Completion> {
    let sim = FleetSim::new(spec, cfg, profile).unwrap();
    sim.scheduler().run_to_idle();
    sim.scheduler().take_completions()
}

/// A tenant's observable results, independent of global interleaving:
/// (scripted arrival, class, bytes, errors, payload digest), sorted.
fn tenant_trace(completions: &[Completion], tenant: u32) -> Vec<(u64, Priority, u64, u64, u64)> {
    let mut trace: Vec<_> = completions
        .iter()
        .filter(|c| c.tenant == tenant)
        .map(|c| (c.arrival_vns, c.class, c.bytes, c.errors, c.digest))
        .collect();
    trace.sort_unstable();
    trace
}

#[test]
fn tenant_reads_identical_alone_and_inside_a_100_tenant_fleet() {
    const SEED: u64 = 0xF1EE7;
    // Tenant 0's arrival process, key choices, and payloads derive from
    // `derive_seed(seed, "tenant-0")` and the dataset seeding alone, so
    // its trace must not depend on who else shares the link.
    let alone = run_fleet(
        FleetSpec::demo(1, SEED),
        SchedConfig::default(),
        NetworkProfile::public_dataverse(),
    );
    let fleet = run_fleet(
        FleetSpec::demo(100, SEED),
        SchedConfig::default(),
        NetworkProfile::public_dataverse(),
    );
    let probe_alone = tenant_trace(&alone, 0);
    let probe_fleet = tenant_trace(&fleet, 0);
    assert!(!probe_alone.is_empty(), "probe tenant scripted no work");
    assert_eq!(
        probe_alone, probe_fleet,
        "contention must shift virtual time, never the bytes a tenant reads"
    );
    assert!(probe_alone.iter().all(|t| t.4 != 0), "read digests must be populated");
    assert!(probe_alone.iter().all(|t| t.3 == 0), "fault-free fleet must read cleanly");
}

#[test]
fn identically_seeded_fleets_are_byte_identical() {
    let build = |profile: NetworkProfile| {
        let mut spec = FleetSpec::demo(48, 0xA11CE);
        spec.horizon_vsecs = 20.0;
        let sim = FleetSim::new(spec, SchedConfig::default(), profile).unwrap();
        let report = sim.run();
        (report, sim.clock().now_ns(), sim.obs().snapshot().to_json())
    };
    for profile in [NetworkProfile::public_dataverse(), NetworkProfile::private_seal()] {
        let (r1, clock1, metrics1) = build(profile.clone());
        let (r2, clock2, metrics2) = build(profile);
        assert_eq!(r1, r2, "fleet report must be seed-deterministic");
        assert_eq!(clock1, clock2, "virtual clock must land on the same nanosecond");
        assert_eq!(metrics1, metrics2, "metrics snapshots must be byte-identical");
    }
}

#[test]
fn granted_vns_reconciles_with_wan_busy_vns_across_configs() {
    for (cfg, profile) in [
        (SchedConfig::default(), NetworkProfile::public_dataverse()),
        (SchedConfig::default(), NetworkProfile::private_seal()),
        (SchedConfig::fifo(), NetworkProfile::public_dataverse()),
        (SchedConfig::fifo(), NetworkProfile::private_seal()),
    ] {
        let mut spec = FleetSpec::demo(12, 99);
        spec.horizon_vsecs = 10.0;
        let sim = FleetSim::new(spec, cfg, profile).unwrap();
        let report = sim.run();
        assert!(report.grants > 0);
        assert_eq!(
            report.granted_vns, report.wan_busy_vns,
            "every WAN nanosecond must be attributed to exactly one grant \
             (qos={} profile makespan {})",
            cfg.qos, report.makespan_vns
        );
    }
}

/// An IDX dataset on `backing`, fronted by WAN -> cache -> scheduler.
fn session_stack() -> (Obs, Arc<IdxDataset>) {
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let backing = Arc::new(MemoryStore::new());
    let meta = IdxMeta::new_2d(
        "fleetds",
        256,
        128,
        vec![Field::new("v", DType::F32).unwrap()],
        10,
        Codec::Raw,
    )
    .unwrap();
    let ds =
        IdxDataset::create(Arc::clone(&backing) as Arc<dyn ObjectStore>, "fleetds", meta).unwrap();
    let raster = Raster::<f32>::from_fn(256, 128, |x, y| (x * 3 + y * 7) as f32);
    ds.write_raster("v", 0, &raster).unwrap();
    drop(ds);

    let wan = Arc::new(
        CloudStore::new(
            Arc::clone(&backing) as Arc<dyn ObjectStore>,
            NetworkProfile::private_seal(),
            clock.clone(),
            7,
        )
        .with_obs(&obs),
    );
    let cache = Arc::new(TierCache::new(wan, 32 * 1024 * 1024).with_obs(&obs));
    let sched = Arc::new(Scheduler::new(clock, SchedConfig::default()).with_obs(&obs));
    let sstore: Arc<dyn ObjectStore> = Arc::new(SchedStore::new(cache, Arc::clone(&sched), 7));
    let ds = IdxDataset::open(sstore, "fleetds").unwrap().with_fetch_concurrency(64);
    (obs, Arc::new(ds))
}

#[test]
fn scheduled_prefetch_warms_the_cache_for_the_next_pan() {
    let (obs, ds) = session_stack();
    let level = ds.max_level();
    let mut session = QuerySession::<f32>::new(ds, "v").unwrap();
    session.set_view(Box2i::new(0, 0, 96, 64), level, level).unwrap();
    session.frame_at(level).unwrap();
    session.pan(32, 0).unwrap();
    session.frame_at(level).unwrap();
    let fetched = session.prefetch_pan_neighbor(level).unwrap();
    assert!(fetched > 0, "a prefetch through the scheduler resolves its blocks");

    // The prefetch went through the cache below the scheduler: panning
    // onto the prefetched neighbor renders without touching the WAN again.
    let wan_reads_before = obs.snapshot().counter("wan.read_ops");
    session.pan(96, 0).unwrap();
    let frame = session.frame_at(level).unwrap();
    assert!(frame.raster.width() > 0, "neighbor frame must render");
    assert_eq!(
        obs.snapshot().counter("wan.read_ops"),
        wan_reads_before,
        "neighbor frame must be served from the prefetch-warmed cache"
    );
}

#[test]
fn two_tenants_share_one_disk_tier_so_the_second_reads_with_zero_wan_ops() {
    // Two tenants, each with a private RAM tier and scheduler identity,
    // share one persistent disk tier under the same content namespace.
    // Tenant A's reads pay the WAN once and land shards in the shared
    // tier; tenant B's *first* reads of the same blocks must then be
    // digest-equal with exactly zero additional WAN read ops.
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let backing = Arc::new(MemoryStore::new());
    let keys: Vec<String> = (0..16).map(|i| format!("shared/block-{i:02}")).collect();
    for (i, key) in keys.iter().enumerate() {
        backing.put(key, &vec![(i * 37 + 11) as u8; 1024 + i * 64]).unwrap();
    }
    let wan = Arc::new(
        CloudStore::new(
            Arc::clone(&backing) as Arc<dyn ObjectStore>,
            NetworkProfile::private_seal(),
            clock.clone(),
            7,
        )
        .with_obs(&obs),
    );
    let disk: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let sched = Arc::new(Scheduler::new(clock, SchedConfig::default()).with_obs(&obs));
    let mut stores = Vec::new();
    for (tenant, name) in [(1u32, "alice"), (2u32, "bob")] {
        sched.register_tenant(tenant, name, TenantPolicy::unthrottled());
        let tier = Arc::new(
            TierCache::new(Arc::clone(&wan) as Arc<dyn ObjectStore>, 8 << 20)
                .with_disk(Arc::clone(&disk), "seal", 64 << 20)
                .unwrap()
                .with_obs(&obs.scoped(name)),
        );
        let store: Arc<dyn ObjectStore> = Arc::new(SchedStore::new(
            Arc::clone(&tier) as Arc<dyn ObjectStore>,
            Arc::clone(&sched),
            tenant,
        ));
        stores.push((tier, store));
    }

    // Tenant A reads everything cold: the WAN pays, the disk tier warms.
    let a_bytes: Vec<Vec<u8>> = keys.iter().map(|k| stores[0].1.get(k).unwrap()).collect();
    let wan_after_a = obs.snapshot().counter("wan.read_ops");
    assert!(wan_after_a > 0, "tenant A's cold reads must hit the WAN");
    let a_stats = stores[0].0.tier_stats();
    assert_eq!(a_stats.wan_fetches, keys.len() as u64);
    assert!(a_stats.disk_resident_bytes > 0, "tenant A must have warmed the shared tier");

    // Tenant B's first-ever reads: same bytes, zero new WAN ops.
    for (key, want) in keys.iter().zip(&a_bytes) {
        assert_eq!(&stores[1].1.get(key).unwrap(), want, "tenant B read different bytes: {key}");
    }
    assert_eq!(
        obs.snapshot().counter("wan.read_ops"),
        wan_after_a,
        "tenant B's reads must be served entirely from the shared disk tier"
    );
    let b_stats = stores[1].0.tier_stats();
    assert_eq!(b_stats.wan_fetches, 0);
    assert_eq!(b_stats.disk_hits, keys.len() as u64);
    assert_eq!(b_stats.lookups, b_stats.ram_hits + b_stats.disk_hits + b_stats.wan_fetches);
    // And the scheduler attributed each tenant's traffic to its own lane.
    let snap = obs.snapshot();
    assert!(snap.counter("alice.tiercache.wan_fetches") > 0);
    assert_eq!(snap.counter("bob.tiercache.wan_fetches"), 0);
}
