//! Multi-tenant QoS at fleet scale: per-interaction virtual latency
//! percentiles vs fleet size, with the admission scheduler's QoS on
//! (priority tiers + token buckets) and off (one
//! shared FIFO), over both WAN profiles of §III. Emits `BENCH_fleet.json`
//! at the repo root; numbers are quoted in EXPERIMENTS.md ("Multi-tenant
//! QoS").
//!
//! Every quantity is virtual-clock or counter state — nothing samples
//! wall time or ambient entropy — so two runs with the same seed produce
//! byte-identical files, and CI diffs them.

use nsdf_storage::{FleetSim, FleetSpec, LatencySummary, NetworkProfile, SchedConfig};
use nsdf_util::json::JsonValue;

const SEED: u64 = 42;
const FLEETS: [usize; 3] = [16, 48, 96];

struct Record {
    profile: String,
    tenants: usize,
    qos: bool,
    makespan_vsecs: f64,
    interactive: LatencySummary,
    prefetch: LatencySummary,
    bulk: LatencySummary,
    bulk_throughput_mbps: f64,
    granted_vns: u64,
    wan_busy_vns: u64,
}

impl From<&Record> for JsonValue {
    fn from(r: &Record) -> JsonValue {
        let latency = |s: &LatencySummary| {
            let ms = |vns: u64| JsonValue::fixed(vns as f64 / 1e6, 3);
            JsonValue::obj([
                ("count", s.count.into()),
                ("p50_ms", ms(s.p50_vns)),
                ("p99_ms", ms(s.p99_vns)),
                ("p999_ms", ms(s.p999_vns)),
                ("max_ms", ms(s.max_vns)),
            ])
        };
        JsonValue::obj([
            ("profile", r.profile.as_str().into()),
            ("tenants", r.tenants.into()),
            ("qos", r.qos.into()),
            ("makespan_vsecs", JsonValue::fixed(r.makespan_vsecs, 6)),
            ("interactive", latency(&r.interactive)),
            ("prefetch", latency(&r.prefetch)),
            ("bulk", latency(&r.bulk)),
            ("bulk_throughput_mbps", JsonValue::fixed(r.bulk_throughput_mbps, 4)),
            ("granted_vns", r.granted_vns.into()),
            ("wan_busy_vns", r.wan_busy_vns.into()),
        ])
    }
}

/// The fleet for one profile: demo rates saturate the slow public link;
/// the fast private link needs a proportionally busier population to see
/// comparable contention (otherwise both configs measure an idle queue).
fn spec_for(profile_name: &str, tenants: usize) -> FleetSpec {
    let mut spec = FleetSpec::demo(tenants, SEED);
    if profile_name == "private-seal" {
        spec.bulk_rate_hz = 0.05;
        spec.bulk_items = 64;
    }
    spec
}

fn run_case(profile: NetworkProfile, tenants: usize, qos: bool) -> Record {
    let profile_name = profile.name.clone();
    let cfg = if qos { SchedConfig::default() } else { SchedConfig::fifo() };
    let sim =
        FleetSim::new(spec_for(&profile_name, tenants), cfg, profile).expect("valid fleet spec");
    let r = sim.run();
    assert_eq!(
        r.granted_vns, r.wan_busy_vns,
        "acceptance: sched.granted_vns must reconcile exactly with wan.busy_vns \
         ({profile_name}, {tenants} tenants, qos={qos})"
    );
    Record {
        profile: profile_name,
        tenants,
        qos,
        makespan_vsecs: r.makespan_vns as f64 / 1e9,
        interactive: r.interactive,
        prefetch: r.prefetch,
        bulk: r.bulk,
        bulk_throughput_mbps: r.bulk_throughput_bps / 1e6,
        granted_vns: r.granted_vns,
        wan_busy_vns: r.wan_busy_vns,
    }
}

fn main() {
    let mut records = Vec::new();
    for profile in [NetworkProfile::public_dataverse, NetworkProfile::private_seal] {
        for &tenants in &FLEETS {
            for qos in [false, true] {
                let rec = run_case(profile(), tenants, qos);
                println!(
                    "{:<17} tenants={:<3} qos={:<5} int p50/p99={:>9.2}/{:>9.2} ms  \
                     bulk p99={:>9.2} ms thr={:>7.3} MB/s",
                    rec.profile,
                    rec.tenants,
                    rec.qos,
                    rec.interactive.p50_vns as f64 / 1e6,
                    rec.interactive.p99_vns as f64 / 1e6,
                    rec.bulk.p99_vns as f64 / 1e6,
                    rec.bulk_throughput_mbps,
                );
                records.push(rec);
            }
        }
    }

    // Acceptance at the largest fleet, per profile: QoS must at least
    // halve interactive p99 while costing bulk no more than 20% of its
    // aggregate throughput.
    let find = |profile: &str, tenants: usize, qos: bool| {
        records
            .iter()
            .find(|r| r.profile == profile && r.tenants == tenants && r.qos == qos)
            .expect("case present")
    };
    let largest = *FLEETS.last().expect("non-empty");
    let mut pass = true;
    let mut acceptance = Vec::new();
    for profile in ["public-dataverse", "private-seal"] {
        let off = find(profile, largest, false);
        let on = find(profile, largest, true);
        let p99_ratio = on.interactive.p99_vns as f64 / off.interactive.p99_vns.max(1) as f64;
        let thr_ratio = on.bulk_throughput_mbps / off.bulk_throughput_mbps.max(1e-9);
        let p99_ok = p99_ratio <= 0.5;
        let thr_ok = thr_ratio >= 0.8;
        pass &= p99_ok && thr_ok;
        println!(
            "acceptance: {profile} {largest}-tenant qos/fifo interactive p99 = {p99_ratio:.3} \
             ({}), bulk throughput = {thr_ratio:.3} ({})",
            if p99_ok { "PASS: <= 0.5" } else { "FAIL: > 0.5" },
            if thr_ok { "PASS: >= 0.8" } else { "FAIL: < 0.8" },
        );
        acceptance.push(JsonValue::obj([
            ("profile", profile.into()),
            ("tenants", largest.into()),
            ("interactive_p99_qos_over_fifo", JsonValue::fixed(p99_ratio, 4)),
            ("bulk_throughput_qos_over_fifo", JsonValue::fixed(thr_ratio, 4)),
        ]));
    }
    assert!(pass, "fleet QoS acceptance failed");

    let workload = JsonValue::obj([
        ("fleets", FLEETS.into_iter().collect()),
        ("horizon_vsecs", 60.0f64.into()),
        ("interactive_frac", 0.75f64.into()),
    ]);
    let doc = JsonValue::obj([
        ("bench", "fleet".into()),
        ("seed", SEED.into()),
        ("workload", workload),
        ("records", records.iter().collect()),
        ("acceptance", JsonValue::Arr(acceptance)),
    ]);
    nsdf_bench::write_artifact("BENCH_fleet.json", &doc);
}
