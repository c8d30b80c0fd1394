//! Seeded synthetic fleet generator for the shared-WAN scheduler.
//!
//! The paper's services exist to serve *populations* — hundreds of
//! students hitting the same endpoints in a workshop — and scheduler
//! properties (fairness, starvation-freedom) only show up under
//! population-scale contention. [`FleetSim`] builds that load
//! deterministically:
//!
//! * **open-loop arrivals** — every tenant emits requests on its own
//!   seeded exponential clock, independent of service times, so overload
//!   queues instead of self-throttling (the honest way to measure p99);
//! * **zipf dataset popularity** — interactive tenants read blocks of a
//!   zipf-popular dataset, mimicking the few-hot-datasets shape of real
//!   science gateways;
//! * **tenant mix** — a fraction of tenants are interactive viewers
//!   (small reads, occasionally speculative prefetch); the rest are bulk
//!   ingest jobs (large batched puts).
//!
//! All randomness is a pure function of [`FleetSpec::seed`] via
//! `splitmix64` chains, every latency is virtual nanoseconds, and the
//! whole run is single-threaded — identically-seeded runs produce
//! byte-identical reports, metrics snapshots, and clock values.

use std::sync::Arc;

use nsdf_util::{derive_seed, splitmix64, NsdfError, Obs, Result, SimClock};

use crate::memory::MemoryStore;
use crate::sched::{
    Completion, Priority, SchedConfig, SchedOp, SchedRequest, Scheduler, TenantPolicy,
};
use crate::store::ObjectStore;
use crate::wan::{CloudStore, NetworkProfile};

/// Parameters of one synthetic fleet.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Master seed; every stream (arrivals, popularity, key choice)
    /// derives from it.
    pub seed: u64,
    /// Total tenants.
    pub tenants: usize,
    /// Datasets the interactive population reads from.
    pub datasets: usize,
    /// Pre-seeded blocks per dataset.
    pub blocks_per_dataset: usize,
    /// Payload bytes per block object.
    pub block_bytes: usize,
    /// Arrival horizon in virtual seconds (no arrivals after it; the run
    /// drains the backlog past it).
    pub horizon_vsecs: f64,
    /// Fraction of tenants that are interactive viewers (rest are bulk).
    pub interactive_frac: f64,
    /// Per-tenant interactive interactions per virtual second.
    pub interactive_rate_hz: f64,
    /// Probability an interaction also issues a speculative prefetch.
    pub prefetch_prob: f64,
    /// Blocks fetched per interaction.
    pub keys_per_interaction: usize,
    /// Per-tenant bulk-ingest jobs per virtual second.
    pub bulk_rate_hz: f64,
    /// Objects uploaded per bulk job.
    pub bulk_items: usize,
    /// Payload bytes per bulk object.
    pub bulk_item_bytes: usize,
    /// Zipf exponent for dataset popularity (larger = more skew).
    pub zipf_s: f64,
    /// Bandwidth share for interactive tenants.
    pub interactive_policy: TenantPolicy,
    /// Bandwidth share for bulk tenants.
    pub bulk_policy: TenantPolicy,
}

impl FleetSpec {
    /// A workshop-shaped fleet: mostly viewers over a dozen datasets with
    /// a bulk-ingest minority, sized so the largest fleets in the bench
    /// push the public-WAN link toward (but not past) saturation.
    pub fn demo(tenants: usize, seed: u64) -> FleetSpec {
        FleetSpec {
            seed,
            tenants,
            datasets: 12,
            blocks_per_dataset: 48,
            block_bytes: 64 * 1024,
            horizon_vsecs: 60.0,
            interactive_frac: 0.75,
            interactive_rate_hz: 0.08,
            prefetch_prob: 0.5,
            keys_per_interaction: 4,
            bulk_rate_hz: 0.02,
            bulk_items: 16,
            bulk_item_bytes: 64 * 1024,
            zipf_s: 1.1,
            interactive_policy: TenantPolicy::new(50_000_000, 8_000_000),
            bulk_policy: TenantPolicy::new(20_000_000, 4_000_000),
        }
    }

    /// Check that the arrival process terminates: the horizon and both
    /// per-tenant rates must be finite (a NaN or infinite one would script
    /// arrivals forever).
    pub fn validate(&self) -> Result<()> {
        for (field, v) in [
            ("horizon_vsecs", self.horizon_vsecs),
            ("interactive_rate_hz", self.interactive_rate_hz),
            ("bulk_rate_hz", self.bulk_rate_hz),
        ] {
            if !v.is_finite() {
                return Err(NsdfError::invalid(format!(
                    "FleetSpec::{field} must be finite, got {v}"
                )));
            }
        }
        Ok(())
    }

    /// Interactive tenants in this spec.
    pub fn interactive_tenants(&self) -> usize {
        (self.tenants as f64 * self.interactive_frac).round() as usize
    }
}

/// Latency percentiles over one request class (virtual nanoseconds,
/// nearest-rank on the exact integer latencies — deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Completed requests summarized.
    pub count: u64,
    /// Median end-to-end virtual latency.
    pub p50_vns: u64,
    /// 99th percentile.
    pub p99_vns: u64,
    /// 99.9th percentile.
    pub p999_vns: u64,
    /// Worst observed.
    pub max_vns: u64,
}

impl LatencySummary {
    /// Summarize a set of end-to-end latencies (order irrelevant).
    pub(crate) fn from_latencies(mut vns: Vec<u64>) -> LatencySummary {
        if vns.is_empty() {
            return LatencySummary::default();
        }
        vns.sort_unstable();
        let rank = |pct_milli: u64| -> u64 {
            // Nearest-rank in integer permille: ceil(p * n / 1000), 1-based.
            let n = vns.len() as u64;
            let r = (pct_milli * n).div_ceil(1000).clamp(1, n);
            vns[(r - 1) as usize]
        };
        LatencySummary {
            count: vns.len() as u64,
            p50_vns: rank(500),
            p99_vns: rank(990),
            p999_vns: rank(999),
            max_vns: *vns.last().expect("non-empty"),
        }
    }
}

/// Result of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Tenants simulated.
    pub tenants: usize,
    /// Requests granted and executed.
    pub grants: u64,
    /// Virtual time from start to full drain.
    pub makespan_vns: u64,
    /// Interactive-class latency percentiles.
    pub interactive: LatencySummary,
    /// Prefetch-class latency percentiles.
    pub prefetch: LatencySummary,
    /// Bulk-class latency percentiles.
    pub bulk: LatencySummary,
    /// Payload bytes moved by bulk grants.
    pub bulk_bytes: u64,
    /// Bulk aggregate throughput in bytes per virtual second.
    pub bulk_throughput_bps: f64,
    /// Scheduler-accounted execution time (virtual ns).
    pub granted_vns: u64,
    /// WAN-charged busy time (virtual ns) — equals `granted_vns` here:
    /// every WAN call in a fleet runs inside a grant.
    pub wan_busy_vns: u64,
}

/// A deterministic multi-tenant fleet over one modeled WAN endpoint.
pub struct FleetSim {
    spec: FleetSpec,
    obs: Obs,
    clock: SimClock,
    wan: Arc<CloudStore>,
    sched: Arc<Scheduler>,
}

impl FleetSim {
    /// Build the fleet: seed the backing store, stand up the WAN endpoint
    /// and scheduler on one fresh clock, register tenants, and script
    /// every arrival in `[0, horizon)`. Fails with `InvalidArg` when
    /// [`FleetSpec::validate`] rejects `spec`.
    pub fn new(spec: FleetSpec, cfg: SchedConfig, profile: NetworkProfile) -> Result<FleetSim> {
        spec.validate()?;
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        let backing = Arc::new(MemoryStore::new());
        // Seed dataset blocks directly into the backing store — setup
        // must not charge the WAN or advance the clock.
        for d in 0..spec.datasets {
            for b in 0..spec.blocks_per_dataset {
                let fill = (splitmix64(derive_seed(spec.seed, "payload") ^ ((d * 1000 + b) as u64))
                    & 0xff) as u8;
                backing.put(&block_key(d, b), &vec![fill; spec.block_bytes]).expect("seed block");
            }
        }
        let wan = Arc::new(
            CloudStore::new(backing, profile, clock.clone(), derive_seed(spec.seed, "wan"))
                .with_obs(&obs),
        );
        let sched = Arc::new(Scheduler::new(clock.clone(), cfg).with_obs(&obs));
        let sim = FleetSim { spec, obs, clock, wan, sched };
        sim.register_tenants();
        sim.script_arrivals();
        Ok(sim)
    }

    fn register_tenants(&self) {
        let n_int = self.spec.interactive_tenants();
        for t in 0..self.spec.tenants {
            if t < n_int {
                self.sched.register_tenant(
                    t as u32,
                    &format!("int-{t:03}"),
                    self.spec.interactive_policy,
                );
            } else {
                self.sched.register_tenant(
                    t as u32,
                    &format!("bulk-{t:03}"),
                    self.spec.bulk_policy,
                );
            }
        }
    }

    /// Script the full open-loop arrival process for every tenant.
    fn script_arrivals(&self) {
        let spec = &self.spec;
        let n_int = spec.interactive_tenants();
        let zipf = ZipfCdf::new(spec.datasets, spec.zipf_s);
        let store = Arc::clone(&self.wan) as Arc<dyn ObjectStore>;
        for t in 0..spec.tenants {
            let mut rng = derive_seed(spec.seed, &format!("tenant-{t}"));
            let interactive = t < n_int;
            let rate = if interactive { spec.interactive_rate_hz } else { spec.bulk_rate_hz };
            if rate <= 0.0 {
                continue;
            }
            let mut at_secs = 0.0_f64;
            let mut job = 0usize;
            loop {
                at_secs += exp_sample(&mut rng, rate);
                if at_secs >= spec.horizon_vsecs {
                    break;
                }
                let at_vns = (at_secs * 1e9) as u64;
                if interactive {
                    let ds = zipf.sample(next_f64(&mut rng));
                    let keys = pick_blocks(&mut rng, ds, spec, spec.keys_per_interaction);
                    let est = (spec.keys_per_interaction * spec.block_bytes) as u64;
                    self.sched.script(
                        at_vns,
                        SchedRequest {
                            tenant: t as u32,
                            class: Priority::Interactive,
                            op: SchedOp::Get { store: Arc::clone(&store), keys },
                            est_bytes: est,
                        },
                    );
                    if next_f64(&mut rng) < spec.prefetch_prob {
                        let keys = pick_blocks(&mut rng, ds, spec, spec.keys_per_interaction);
                        self.sched.script(
                            at_vns.saturating_add(1),
                            SchedRequest {
                                tenant: t as u32,
                                class: Priority::Prefetch,
                                op: SchedOp::Get { store: Arc::clone(&store), keys },
                                est_bytes: est,
                            },
                        );
                    }
                } else {
                    let items: Vec<(String, Vec<u8>)> = (0..spec.bulk_items)
                        .map(|i| {
                            let fill = (next_u64(&mut rng) & 0xff) as u8;
                            (
                                format!("ingest/t{t:04}/job{job:05}/obj{i:03}"),
                                vec![fill; spec.bulk_item_bytes],
                            )
                        })
                        .collect();
                    let est = (spec.bulk_items * spec.bulk_item_bytes) as u64;
                    self.sched.script(
                        at_vns,
                        SchedRequest {
                            tenant: t as u32,
                            class: Priority::Bulk,
                            op: SchedOp::Put { store: Arc::clone(&store), items },
                            est_bytes: est,
                        },
                    );
                    job += 1;
                }
            }
        }
    }

    /// The admission scheduler.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// The shared registry (scheduler + WAN on one snapshot).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Drive the fleet to full drain and summarize.
    pub fn run(&self) -> FleetReport {
        let grants = self.sched.run_to_idle();
        let completions = self.sched.take_completions();
        self.report(grants, &completions)
    }

    fn report(&self, grants: u64, completions: &[Completion]) -> FleetReport {
        let mut by_class: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut bulk_bytes = 0u64;
        for c in completions {
            by_class[c.class as usize].push(c.latency_vns());
            if c.class == Priority::Bulk {
                bulk_bytes += c.bytes;
            }
        }
        let makespan_vns = self.clock.now_ns();
        let makespan_secs = makespan_vns as f64 / 1e9;
        let [i, p, b] = by_class;
        FleetReport {
            tenants: self.spec.tenants,
            grants,
            makespan_vns,
            interactive: LatencySummary::from_latencies(i),
            prefetch: LatencySummary::from_latencies(p),
            bulk: LatencySummary::from_latencies(b),
            bulk_bytes,
            bulk_throughput_bps: if makespan_secs > 0.0 {
                bulk_bytes as f64 / makespan_secs
            } else {
                0.0
            },
            granted_vns: self.sched.granted_vns(),
            wan_busy_vns: self.wan.busy_vns(),
        }
    }
}

/// Key of pre-seeded block `b` of dataset `d`.
pub fn block_key(d: usize, b: usize) -> String {
    format!("ds{d:03}/blk/{b:05}")
}

fn pick_blocks(rng: &mut u64, ds: usize, spec: &FleetSpec, n: usize) -> Vec<String> {
    // Distinct blocks via a random start and stride over the dataset.
    let m = spec.blocks_per_dataset.max(1);
    let start = (next_u64(rng) as usize) % m;
    let stride = 1 + (next_u64(rng) as usize) % m.div_ceil(n.max(1)).max(1);
    (0..n.min(m)).map(|i| block_key(ds, (start + i * stride) % m)).collect()
}

fn next_u64(state: &mut u64) -> u64 {
    *state = splitmix64(*state);
    *state
}

fn next_f64(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn exp_sample(state: &mut u64, rate_hz: f64) -> f64 {
    let u = next_f64(state).min(1.0 - 1e-12);
    -(1.0 - u).ln() / rate_hz
}

/// Zipf popularity over `n` items with exponent `s`, sampled by inverse
/// CDF (deterministic for a given input draw).
struct ZipfCdf {
    cdf: Vec<f64>,
}

impl ZipfCdf {
    fn new(n: usize, s: f64) -> ZipfCdf {
        let mut cdf = Vec::with_capacity(n.max(1));
        let mut acc = 0.0;
        for k in 0..n.max(1) {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        ZipfCdf { cdf }
    }

    fn sample(&self, u: f64) -> usize {
        let total = *self.cdf.last().expect("non-empty");
        let x = u * total;
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_nearest_rank() {
        let s = LatencySummary::from_latencies((1..=100).collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_vns, 50);
        assert_eq!(s.p99_vns, 99);
        assert_eq!(s.p999_vns, 100);
        assert_eq!(s.max_vns, 100);
        assert_eq!(LatencySummary::from_latencies(vec![]).count, 0);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = ZipfCdf::new(10, 1.2);
        let mut counts = [0usize; 10];
        let mut rng = 42u64;
        for _ in 0..2000 {
            counts[z.sample(next_f64(&mut rng))] += 1;
        }
        assert!(counts[0] > counts[9] * 3, "head {} tail {}", counts[0], counts[9]);
        assert_eq!(counts.iter().sum::<usize>(), 2000);
    }

    #[test]
    fn small_fleet_runs_and_reconciles() {
        let mut spec = FleetSpec::demo(8, 2024);
        spec.horizon_vsecs = 5.0;
        let sim =
            FleetSim::new(spec, SchedConfig::default(), NetworkProfile::private_seal()).unwrap();
        let r = sim.run();
        assert!(r.grants > 0);
        assert_eq!(r.grants, r.interactive.count + r.prefetch.count + r.bulk.count);
        assert_eq!(r.granted_vns, r.wan_busy_vns, "every WAN call ran inside a grant");
        assert!(r.interactive.p50_vns > 0);
    }

    #[test]
    fn identically_seeded_fleets_match_exactly() {
        let build = || {
            let mut spec = FleetSpec::demo(6, 7);
            spec.horizon_vsecs = 4.0;
            let sim =
                FleetSim::new(spec, SchedConfig::default(), NetworkProfile::public_dataverse())
                    .unwrap();
            let r = sim.run();
            (r, sim.clock().now_ns(), sim.obs().snapshot().to_json())
        };
        let (r1, c1, j1) = build();
        let (r2, c2, j2) = build();
        assert_eq!(r1, r2);
        assert_eq!(c1, c2);
        assert_eq!(j1, j2);
    }

    /// A NaN or infinite horizon or rate never ends `script_arrivals`'
    /// loop; `FleetSim::new` rejects each one before scripting anything.
    #[test]
    fn non_finite_horizon_or_rate_is_rejected() {
        type Set = fn(&mut FleetSpec, f64);
        let fields: [(&str, Set); 3] = [
            ("horizon_vsecs", |s, v| s.horizon_vsecs = v),
            ("interactive_rate_hz", |s, v| s.interactive_rate_hz = v),
            ("bulk_rate_hz", |s, v| s.bulk_rate_hz = v),
        ];
        for (field, set) in fields {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut spec = FleetSpec::demo(4, 1);
                set(&mut spec, bad);
                let err =
                    FleetSim::new(spec, SchedConfig::default(), NetworkProfile::private_seal())
                        .err()
                        .unwrap_or_else(|| panic!("{field} = {bad} accepted"));
                assert!(matches!(err, NsdfError::InvalidArg(_)), "{field} = {bad}: {err}");
                assert!(err.to_string().contains(field), "{field} = {bad}: {err}");
            }
        }
        FleetSpec::demo(4, 1).validate().unwrap();
    }
}
