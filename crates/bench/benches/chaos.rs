//! Chaos & resilience: virtual-time cost of hedged reads versus plain
//! exponential-backoff retry while a seeded [`FaultPlan`] injects
//! transient failures at 1%, 5%, and 20% rates, over both WAN profiles of
//! §III. Emits `BENCH_chaos.json` at the repo root; numbers are quoted in
//! EXPERIMENTS.md ("Chaos & resilience").
//!
//! Every quantity in the artifact is virtual-clock or counter state —
//! nothing samples wall time or ambient entropy — so two runs with the
//! same seed produce byte-identical files, and CI diffs them.

use nsdf_storage::{
    CloudStore, EndpointPolicy, FailScope, FaultPlan, HedgePolicy, MemoryStore, NetworkProfile,
    ObjectStore, RetryPolicy,
};
use nsdf_util::json::JsonValue;
use nsdf_util::{Obs, SimClock};
use std::sync::Arc;

const SEED: u64 = 42;
const OBJECTS: usize = 64;
const OBJECT_BYTES: usize = 64 << 10;
const BATCH: usize = 16;
const ROUNDS: usize = 3;
const FAULT_RATES: [f64; 3] = [0.01, 0.05, 0.20];

/// Seed the object population once; reads are the measured workload.
fn seed_store() -> Arc<MemoryStore> {
    let mem = Arc::new(MemoryStore::new());
    for i in 0..OBJECTS {
        let body: Vec<u8> = (0..OBJECT_BYTES).map(|j| ((i * 131 + j * 7) % 251) as u8).collect();
        mem.put(&format!("chaos/{i:03}"), &body).expect("seed object");
    }
    mem
}

/// One measured configuration: batched `get_many` sweeps through the
/// retry(+hedge) → integrity → fault → WAN stack. Returns its virtual
/// seconds and its artifact record.
fn run_case(
    mem: &Arc<MemoryStore>,
    profile: NetworkProfile,
    fault_rate: f64,
    hedged: bool,
) -> (f64, JsonValue) {
    let profile_name = profile.name.clone();
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let wan = Arc::new(
        CloudStore::new(mem.clone() as Arc<dyn ObjectStore>, profile, clock.clone(), SEED)
            .with_obs(&obs),
    );
    let plan = FaultPlan::new(SEED)
        .with_scope(FailScope::Reads)
        .with_fault_rate(fault_rate)
        .with_corrupt_rate(fault_rate / 4.0);
    let policy = EndpointPolicy {
        retry: RetryPolicy { max_attempts: 8, initial_backoff_secs: 0.05, multiplier: 2.0 },
        hedge: hedged.then_some(HedgePolicy { delay_secs: 0.01, max_hedges: 2 }),
        breaker: None,
        ..EndpointPolicy::default()
    };
    let store = policy.resilient(wan, plan, &clock, &obs).expect("valid plan and policy");

    let keys: Vec<String> = (0..OBJECTS).map(|i| format!("chaos/{i:03}")).collect();
    let v0 = clock.now_secs();
    for _ in 0..ROUNDS {
        for chunk in keys.chunks(BATCH) {
            let refs: Vec<&str> = chunk.iter().map(|k| k.as_str()).collect();
            for (key, r) in refs.iter().zip(store.get_many(&refs)) {
                let body = r.expect("resilient read survives injected faults");
                assert_eq!(body.len(), OBJECT_BYTES, "{key}: wrong payload");
            }
        }
    }

    let secs = clock.now_secs() - v0;
    let mode = if hedged { "hedged" } else { "plain" };
    let snap = obs.snapshot();
    let [injected, retries, hedges, hedge_wins] =
        ["fault.injected", "retry.retries", "retry.hedges", "retry.hedge_wins"]
            .map(|c| snap.counter(c));
    println!(
        "{profile_name:<17} rate={fault_rate:<4} {mode:<6} virtual={secs:>8.3}s \
         injected={injected:<4} retries={retries:<4} hedges={hedges:<3} wins={hedge_wins}"
    );
    let record = JsonValue::obj([
        ("profile", profile_name.as_str().into()),
        ("fault_rate", fault_rate.into()),
        ("mode", mode.into()),
        ("virtual_secs", JsonValue::fixed(secs, 6)),
        ("injected", injected.into()),
        ("retries", retries.into()),
        ("hedges", hedges.into()),
        ("hedge_wins", hedge_wins.into()),
    ]);
    (secs, record)
}

/// A scripted-window scenario (outage + latency spike + error burst) whose
/// full metrics snapshot and span tree go into the artifact verbatim: the
/// determinism check CI runs covers every counter the stack owns.
fn metrics_artifact(mem: &Arc<MemoryStore>) -> JsonValue {
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let seal = obs.scoped("seal");
    let wan = Arc::new(
        CloudStore::new(
            mem.clone() as Arc<dyn ObjectStore>,
            NetworkProfile::private_seal(),
            clock.clone(),
            SEED,
        )
        .with_obs(&seal),
    );
    let plan = FaultPlan::new(SEED)
        .with_scope(FailScope::Reads)
        .with_fault_rate(0.05)
        .latency_spike(2.0, 6.0, 0.25)
        .error_burst(8.0, 12.0, 0.6);
    let policy = EndpointPolicy {
        retry: RetryPolicy { max_attempts: 10, initial_backoff_secs: 0.05, multiplier: 2.0 },
        breaker: None,
        verify_checksums: false,
        ..EndpointPolicy::default()
    };
    let store = policy.resilient(wan, plan, &clock, &seal).expect("valid plan and policy");

    let keys: Vec<String> = (0..OBJECTS).map(|i| format!("chaos/{i:03}")).collect();
    // Walk the timeline through the scripted windows in 1s strides.
    for step in 0..14 {
        let chunk = &keys[(step * 4) % OBJECTS..(step * 4) % OBJECTS + 4];
        let refs: Vec<&str> = chunk.iter().map(|k| k.as_str()).collect();
        for r in store.get_many(&refs) {
            r.expect("resilient read");
        }
        let target = step as f64 + 1.0;
        let now = clock.now_secs();
        if now < target {
            clock.advance_secs(target - now);
        }
    }
    println!("metrics artifact: {} virtual secs end to end", clock.now_secs());
    JsonValue::obj([
        ("scenario", "windowed-outage-spike-burst".into()),
        ("seed", SEED.into()),
        ("metrics", obs.snapshot().to_json()),
        ("spans", obs.spans_json()),
    ])
}

fn main() {
    let mem = seed_store();
    let mut records = Vec::new();
    let mut pass = true;
    let mut ratios = Vec::new();
    for profile in [NetworkProfile::public_dataverse, NetworkProfile::private_seal] {
        for rate in FAULT_RATES {
            let (plain, plain_record) = run_case(&mem, profile(), rate, false);
            let (hedged, hedged_record) = run_case(&mem, profile(), rate, true);
            records.extend([plain_record, hedged_record]);
            // Acceptance: hedging beats plain backoff on virtual time
            // wherever faults actually bite (the 20% tier on both profiles).
            if rate == 0.20 {
                let name = profile().name;
                let ratio = hedged / plain;
                pass &= ratio < 1.0;
                println!(
                    "acceptance: {name} hedged/plain virtual time at 20% faults = {ratio:.3} ({})",
                    if ratio < 1.0 { "PASS: < 1.0" } else { "FAIL: >= 1.0" }
                );
                ratios.push(JsonValue::obj([
                    ("profile", name.as_str().into()),
                    ("hedged_over_plain_virtual", JsonValue::fixed(ratio, 4)),
                ]));
            }
        }
    }

    let workload = JsonValue::obj([
        ("objects", OBJECTS.into()),
        ("object_bytes", OBJECT_BYTES.into()),
        ("batch", BATCH.into()),
        ("rounds", ROUNDS.into()),
    ]);
    let doc = JsonValue::obj([
        ("bench", "chaos".into()),
        ("seed", SEED.into()),
        ("workload", workload),
        ("records", JsonValue::Arr(records)),
        ("acceptance", JsonValue::Arr(ratios)),
        ("windowed_scenario", metrics_artifact(&mem)),
    ]);
    nsdf_bench::write_artifact("BENCH_chaos.json", &doc);

    assert!(pass, "hedged reads must beat plain backoff at the 20% fault tier");
}
