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
use nsdf_util::{Obs, SimClock};
use std::sync::Arc;

const SEED: u64 = 42;
const OBJECTS: usize = 64;
const OBJECT_BYTES: usize = 64 << 10;
const BATCH: usize = 16;
const ROUNDS: usize = 3;
const FAULT_RATES: [f64; 3] = [0.01, 0.05, 0.20];

struct Record {
    profile: String,
    fault_rate: f64,
    mode: &'static str,
    virtual_secs: f64,
    injected: u64,
    retries: u64,
    hedges: u64,
    hedge_wins: u64,
}

impl Record {
    fn to_json(&self) -> String {
        format!(
            "{{\"profile\":\"{}\",\"fault_rate\":{},\"mode\":\"{}\",\"virtual_secs\":{:.6},\
             \"injected\":{},\"retries\":{},\"hedges\":{},\"hedge_wins\":{}}}",
            self.profile,
            self.fault_rate,
            self.mode,
            self.virtual_secs,
            self.injected,
            self.retries,
            self.hedges,
            self.hedge_wins,
        )
    }
}

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
/// retry(+hedge) → integrity → fault → WAN stack.
fn run_case(
    mem: &Arc<MemoryStore>,
    profile: NetworkProfile,
    fault_rate: f64,
    hedged: bool,
) -> Record {
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

    let snap = obs.snapshot();
    Record {
        profile: profile_name,
        fault_rate,
        mode: if hedged { "hedged" } else { "plain" },
        virtual_secs: clock.now_secs() - v0,
        injected: snap.counter("fault.injected"),
        retries: snap.counter("retry.retries"),
        hedges: snap.counter("retry.hedges"),
        hedge_wins: snap.counter("retry.hedge_wins"),
    }
}

/// A scripted-window scenario (outage + latency spike + error burst) whose
/// full metrics snapshot and span tree go into the artifact verbatim: the
/// determinism check CI runs covers every counter the stack owns.
fn metrics_artifact(mem: &Arc<MemoryStore>) -> String {
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
    format!(
        "{{\"scenario\": \"windowed-outage-spike-burst\", \"seed\": {SEED}, \"metrics\": {}, \
         \"spans\": {}}}",
        obs.snapshot().to_json(),
        obs.spans_json()
    )
}

fn main() {
    let mem = seed_store();
    let mut records = Vec::new();
    for profile in [NetworkProfile::public_dataverse, NetworkProfile::private_seal] {
        for rate in FAULT_RATES {
            for hedged in [false, true] {
                let rec = run_case(&mem, profile(), rate, hedged);
                println!(
                    "{:<17} rate={:<4} {:<6} virtual={:>8.3}s injected={:<4} retries={:<4} \
                     hedges={:<3} wins={}",
                    rec.profile,
                    rec.fault_rate,
                    rec.mode,
                    rec.virtual_secs,
                    rec.injected,
                    rec.retries,
                    rec.hedges,
                    rec.hedge_wins,
                );
                records.push(rec);
            }
        }
    }

    // Acceptance: hedging beats plain backoff on virtual time wherever
    // faults actually bite (the 20% tier on both profiles).
    let find = |profile: &str, rate: f64, mode: &str| {
        records
            .iter()
            .find(|r| r.profile == profile && r.fault_rate == rate && r.mode == mode)
            .expect("case present")
    };
    let mut pass = true;
    let mut ratios = Vec::new();
    for profile in ["public-dataverse", "private-seal"] {
        let plain = find(profile, 0.20, "plain").virtual_secs;
        let hedged = find(profile, 0.20, "hedged").virtual_secs;
        let ratio = hedged / plain;
        pass &= ratio < 1.0;
        println!(
            "acceptance: {profile} hedged/plain virtual time at 20% faults = {ratio:.3} ({})",
            if ratio < 1.0 { "PASS: < 1.0" } else { "FAIL: >= 1.0" }
        );
        ratios.push(format!(
            "{{\"profile\":\"{profile}\",\"hedged_over_plain_virtual\":{ratio:.4}}}"
        ));
    }

    let body = records.iter().map(Record::to_json).collect::<Vec<_>>().join(",\n    ");
    let metrics = metrics_artifact(&mem);
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"seed\": {SEED},\n  \"workload\": {{\"objects\": \
         {OBJECTS}, \"object_bytes\": {OBJECT_BYTES}, \"batch\": {BATCH}, \"rounds\": \
         {ROUNDS}}},\n  \"records\": [\n    {body}\n  ],\n  \"acceptance\": [{}],\n  \
         \"windowed_scenario\": {metrics}\n}}\n",
        ratios.join(", ")
    );
    nsdf_bench::write_artifact("BENCH_chaos.json", &json);

    assert!(pass, "hedged reads must beat plain backoff at the 20% fault tier");
}
